import math

import numpy as np
import pytest

from nonortho.errors import DomainError
from nonortho.feasibility import deviation
from nonortho.kaon import (KaonEvolution, kaon_deviation_closed_form,
                           kaon_entangled_state, kaon_overlap,
                           kaon_overlap_mag_sq_alt, mass_eigenstates,
                           weak_decay_norm)
from nonortho.measures import concurrence_det, entanglement_entropy
from nonortho.report import kaon_report
from nonortho.schmidt import schmidt_decompose
from nonortho.state import embed

SQ2 = 1.0 / math.sqrt(2.0)


def test_mass_eigenstates_cp_conserving():
    k_s, k_l = mass_eigenstates(0.0)
    assert np.allclose(k_s, [1, 0])
    assert np.allclose(k_l, [0, 1])
    assert np.vdot(k_s, k_l) == 0


def test_mass_eigenstates_unit_norm_and_overlap():
    for eps in (1e-3, 0.1, 0.3 + 0.2j, 1j * 1e-3):
        k_s, k_l = mass_eigenstates(eps)
        assert abs(np.linalg.norm(k_s) - 1) <= 1e-14
        assert abs(np.linalg.norm(k_l) - 1) <= 1e-14
        expected = (eps + np.conj(eps)) / (1 + abs(eps) ** 2)
        assert abs(np.vdot(k_s, k_l) - expected) <= 1e-15


def test_mass_eigenstates_domain():
    with pytest.raises(DomainError):
        mass_eigenstates(1.5)


def test_overlap_values():
    assert kaon_overlap(0.0) == 0.0
    assert kaon_overlap(1e-3).real == pytest.approx(2e-3 / (1 + 1e-6), abs=1e-18)
    assert kaon_overlap(0.1).real == pytest.approx(0.2 / 1.01, abs=1e-15)
    # purely imaginary eps leaves the eigenstates orthogonal
    assert abs(kaon_overlap(1j * 1e-3)) <= 1e-18


def test_overlap_alt_convention_reported_separately():
    # the alternate convention squares to a quarter of the direct value
    eps = 1e-3
    direct_sq = abs(kaon_overlap(eps)) ** 2
    alt_sq = kaon_overlap_mag_sq_alt(eps)
    assert alt_sq == pytest.approx((eps / (1 + eps ** 2)) ** 2, abs=1e-20)
    assert direct_sq == pytest.approx(4 * alt_sq, abs=1e-18)


@pytest.mark.parametrize("eps", [0.0, 1e-3, 1e-2, 1e-1])
def test_entangled_state_stays_maximal(eps):
    s = kaon_entangled_state(eps)
    assert deviation(schmidt_decompose(s)) <= 1e-12
    assert abs(concurrence_det(s) - 1.0) <= 1e-12
    assert abs(entanglement_entropy(concurrence_det(s)) - 1.0) <= 1e-12


def test_entangled_state_vector_equals_singlet():
    # antisymmetry kills the cross amplitude, so the embedded vector matches
    # the CP-conserving one component by component
    v = embed(kaon_entangled_state(1e-3))
    assert np.allclose(v, [0, -SQ2, SQ2, 0], atol=1e-14)


def test_weak_decay_norm():
    evo0 = KaonEvolution(gamma_s=1.0, gamma_l=0.5, t=0.0)
    assert weak_decay_norm(0.0, evo0) == 1.0
    evo1 = KaonEvolution(gamma_s=1.0, gamma_l=0.5, t=2.0 / 1.5)
    assert weak_decay_norm(0.0, evo1) == pytest.approx(math.exp(-1.0), abs=1e-15)
    evo0p = KaonEvolution(gamma_s=1.0, gamma_l=0.5, t=0.0)
    assert weak_decay_norm(1e-3, evo0p) == pytest.approx((1 + 1e-6) / (1 - 1e-6),
                                                         abs=1e-12)


def test_weak_decay_norm_monotone_in_time():
    values = [weak_decay_norm(1e-3, KaonEvolution(1.0, 0.002, t))
              for t in np.linspace(0, 5, 50)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_weak_decay_norm_domain():
    with pytest.raises(DomainError):
        KaonEvolution(gamma_s=-1.0, gamma_l=0.0, t=0.0)


def test_closed_form_deviation_vanishes_at_zero_eps():
    for branch in (+1, -1):
        assert kaon_deviation_closed_form(0.0, math.pi, branch) == pytest.approx(0.0, abs=1e-15)


def test_closed_form_deviation_reports_discrepancy():
    # both branches evaluate; the difference against the report's own d is
    # logged, not bounded
    for eps in (1e-3, 1e-1):
        doc = kaon_report(eps)
        k = doc["kaon"]
        assert k["pipeline_d"] == doc["d"] <= 1e-12
        for branch, sign in (("plus", +1), ("minus", -1)):
            closed = kaon_deviation_closed_form(eps, math.pi, sign)
            assert k[f"closed_form_d_{branch}"] == closed
            assert k[f"discrepancy_{branch}"] == abs(closed - doc["d"])


def _printed_kaon_formula(eps, eta, branch):
    """d(eps) as printed, with r = Re eps and k = 1 + |eps|^2."""
    r = eps.real
    k = 1.0 + abs(eps) ** 2
    y = (math.sqrt(2.0) * math.cos(eta) * r ** 2
         + branch * math.sqrt(r ** 4 + r ** 4 * math.cos(2.0 * eta) + 2.0 * k ** 4))
    return 1.0 - (1.0 - (r / k) ** 2) ** 2 * (
        1.0 + math.sqrt(2.0) * y * math.cos(eta) * r ** 2 * k ** -4)


def test_closed_form_is_the_printed_kaon_formula():
    for eps in (0.0, 1e-4, 1e-3, 1e-2, 0.1, 0.5, 0.3 + 0.2j, -0.2 + 0.4j):
        for eta in (math.pi, 2.0, 0.7, 0.0, -1.3):
            for branch in (+1, -1):
                got = kaon_deviation_closed_form(eps, eta, branch)
                assert abs(got - _printed_kaon_formula(complex(eps), eta, branch)) <= 1e-15


def test_closed_form_branch_validation():
    with pytest.raises(DomainError):
        kaon_deviation_closed_form(1e-3, math.pi, 2)
