import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from nonortho.errors import (LinearDependence, NotNormalized, PhaseUndefined,
                             ZeroState)
from nonortho.state import (embed, eta_phase, make_state, normalization_residual,
                            state_from_magnitudes, wrap_angle)

from conftest import valid_states

SQ2 = 1.0 / math.sqrt(2.0)


def test_singlet_is_valid_with_zero_residual():
    s = make_state(SQ2, -SQ2, 0, 0)
    assert normalization_residual(s.mu, s.nu, s.x, s.y) <= 1e-15


def test_product_state_norm_exact():
    # |mu|^2 (1 - |x|^2) + |mu x|^2 = 1 exactly for mu = 1
    s = make_state(1, 0, 0.5, 0.3)
    assert normalization_residual(s.mu, s.nu, s.x, s.y) == 0.0


def test_auto_normalize_preserves_ratio():
    # with y = 0 the norm reduces to |mu|^2 + |nu|^2, so (1, 1) -> (1/sqrt2, 1/sqrt2)
    s = make_state(1, 1, 0.9, 0, auto_normalize=True)
    assert abs(s.mu - SQ2) <= 1e-15
    assert abs(s.nu - SQ2) <= 1e-15


def test_linear_dependence_rejected():
    with pytest.raises(LinearDependence):
        make_state(1, 0, 1.0, 0)
    with pytest.raises(LinearDependence):
        make_state(1, 0, 0, 1.2)


def test_zero_state_rejected():
    with pytest.raises(ZeroState):
        make_state(0, 0, 0.1, 0.1)


def test_unnormalized_rejected_without_flag():
    with pytest.raises(NotNormalized):
        make_state(1, 1, 0.9, 0)


def test_not_normalized_message_says_whether_it_rescaled():
    with pytest.raises(NotNormalized) as plain:
        make_state(2, 0.5, 0.3, 0.2)
    assert str(plain.value) == ("norm residual 3.370e+00 exceeds 1e-12; "
                                "pass auto_normalize=True to rescale")
    # the norm cancels this close to |x| = |y| = 1, so the rescaled state misses it
    with pytest.raises(NotNormalized) as rescaled:
        make_state(9.868842363928767, -9.868842325603154, 0.9999999999999998,
                   0.9999999999999998, auto_normalize=True)
    assert str(rescaled.value).endswith("exceeds 1e-12 even after rescaling to unit norm")
    assert "auto_normalize" not in str(rescaled.value)


def test_embed_singlet():
    v = embed(make_state(SQ2, -SQ2, 0, 0))
    assert np.allclose(v, [0, -SQ2, SQ2, 0], atol=1e-15)


def test_embed_product_state():
    v = embed(make_state(1, 0, 0.5, 0.3))
    assert np.allclose(v, [0, 0, math.sqrt(0.75), 0.5], atol=1e-15)


def test_embed_antisymmetric_kills_cross_amplitude():
    # nu = -mu with equal overlaps forces the fourth component to vanish
    overlap = 0.002
    m = 1.0 / math.sqrt(2.0 * (1.0 - overlap ** 2))
    v = embed(make_state(m, -m, overlap, overlap, auto_normalize=True))
    assert v[0] == 0
    assert abs(v[3]) <= 1e-15
    assert abs(abs(v[1]) - SQ2) <= 1e-15
    assert abs(abs(v[2]) - SQ2) <= 1e-15


@given(valid_states())
def test_embed_unit_norm(s):
    assert abs(np.linalg.norm(embed(s)) - 1.0) <= 1e-12


@given(valid_states(), st.floats(-math.pi, math.pi, allow_nan=False))
def test_global_phase_invariance(s, phi):
    from nonortho.feasibility import deviation
    from nonortho.measures import concurrence_det, entanglement_entropy
    from nonortho.schmidt import schmidt_decompose, schmidt_eigenvalues

    g = np.exp(1j * phi)
    rotated = make_state(s.mu * g, s.nu * g, s.x, s.y)
    assert abs(np.linalg.norm(embed(rotated) - g * embed(s))) <= 1e-12
    # every derived scalar is unchanged by the common phase
    assert schmidt_eigenvalues(rotated) == pytest.approx(
        schmidt_eigenvalues(s), abs=1e-12)
    d_r = deviation(schmidt_decompose(rotated))
    d_s = deviation(schmidt_decompose(s))
    assert d_r == pytest.approx(d_s, abs=1e-12)
    c_r, c_s = concurrence_det(rotated), concurrence_det(s)
    assert c_r == pytest.approx(c_s, abs=1e-12)
    assert entanglement_entropy(c_r) == pytest.approx(
        entanglement_entropy(c_s), abs=1e-11)


def test_eta_examples():
    assert eta_phase(make_state(SQ2, -SQ2, 0.3, 0.3, auto_normalize=True)) == pytest.approx(math.pi)
    s = make_state(1j, 1, 0.5, 0.5j, auto_normalize=True)
    assert eta_phase(s) == pytest.approx(0.0, abs=1e-15)
    s = make_state(np.exp(1j * math.pi / 4), 1, 0.2, 0.2, auto_normalize=True)
    assert eta_phase(s) == pytest.approx(math.pi / 4)


def test_eta_undefined_on_zero_factor():
    with pytest.raises(PhaseUndefined):
        eta_phase(make_state(1, 0, 0.5, 0.3))


@given(valid_states())
def test_eta_consistency_identity(s):
    # 2 Re(mu x nu* y*) == 2 |mu||nu||x||y| cos(eta) whenever eta is defined
    if s.mu == 0 or s.nu == 0 or s.x == 0 or s.y == 0:
        return
    eta = eta_phase(s)
    lhs = 2.0 * (s.mu * s.x * np.conj(s.nu) * np.conj(s.y)).real
    rhs = 2.0 * abs(s.mu) * abs(s.nu) * abs(s.x) * abs(s.y) * math.cos(eta)
    assert abs(lhs - rhs) <= 1e-12


def test_wrap_angle_half_open():
    assert wrap_angle(math.pi) == math.pi
    assert wrap_angle(-math.pi) == math.pi
    assert wrap_angle(0.0) == 0.0
    assert wrap_angle(3 * math.pi) == pytest.approx(math.pi)


def test_state_from_magnitudes_round_trips_eta():
    s = state_from_magnitudes(0.4, 0.3, 0.5, eta=1.1)
    assert eta_phase(s) == pytest.approx(1.1)
    assert abs(abs(s.mu) ** 2 - 0.4) <= 1e-12
