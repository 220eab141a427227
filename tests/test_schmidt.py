import math

import numpy as np
import pytest
from hypothesis import given

from nonortho.errors import DomainError
from nonortho.schmidt import (eigh_2x2, reconstruct, reduced_density, schmidt_coefficients,
                              schmidt_decompose, schmidt_eigenvalues)
from nonortho.state import embed, make_state, state_from_magnitudes
from nonortho.verify import max_deviation_up_to_phase

from conftest import det2, valid_states

SQ2 = 1.0 / math.sqrt(2.0)


def random_hermitian(rng):
    a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    return a + a.conj().T


def test_eigh_2x2_against_numpy():
    rng = np.random.default_rng(3)
    for _ in range(500):
        h = random_hermitian(rng)
        evals, vecs = eigh_2x2(h)
        ref = np.linalg.eigvalsh(h)
        assert np.allclose(evals, ref, atol=1e-12)
        # eigen equation and orthonormality
        assert np.allclose(h @ vecs, vecs @ np.diag(evals), atol=1e-12)
        assert np.allclose(vecs.conj().T @ vecs, np.eye(2), atol=1e-13)


def test_eigh_2x2_degenerate():
    evals, vecs = eigh_2x2(np.eye(2, dtype=complex) * 0.5)
    assert np.allclose(evals, [0.5, 0.5])
    assert np.allclose(vecs.conj().T @ vecs, np.eye(2), atol=1e-15)


def test_reduced_density_singlet():
    s = make_state(SQ2, -SQ2, 0, 0)
    assert np.allclose(reduced_density(s, "A"), np.eye(2) / 2, atol=1e-15)
    assert np.allclose(reduced_density(s, "B"), np.eye(2) / 2, atol=1e-15)


def test_reduced_density_rejects_an_unknown_side():
    with pytest.raises(DomainError, match="side must be 'A' or 'B', got 'C'"):
        reduced_density(make_state(SQ2, -SQ2, 0, 0), "C")


def test_reduced_density_product_state_rank_one():
    s = make_state(1, 0, 0.5, 0.3)
    rho = reduced_density(s, "A")
    assert abs(det2(rho)) <= 1e-15
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)


def test_reduced_density_matches_explicit_matrix():
    # rho_A entries written out from the embedded components
    s = make_state(0.6, 0.7, 0.2, 0.4j, auto_normalize=True)
    na, nb, m = s.n_a, s.n_b, s.cross_amp
    expected = np.array([
        [abs(s.nu * na) ** 2, s.nu * na * np.conj(m)],
        [np.conj(s.nu * na * np.conj(m)), abs(s.mu * nb) ** 2 + abs(m) ** 2],
    ])
    assert np.allclose(reduced_density(s, "A"), expected, atol=1e-14)


@given(valid_states())
def test_density_invariants(s):
    target = (abs(s.mu * s.nu) * s.n_a * s.n_b) ** 2
    for side in "AB":
        rho = reduced_density(s, side)
        assert np.allclose(rho, rho.conj().T, atol=1e-14)
        assert abs(np.trace(rho).real - 1.0) <= 1e-12
        assert abs(det2(rho).real - target) <= 1e-12
    ev_a = np.linalg.eigvalsh(reduced_density(s, "A"))
    ev_b = np.linalg.eigvalsh(reduced_density(s, "B"))
    assert np.allclose(ev_a, ev_b, atol=1e-12)


def test_schmidt_eigenvalues_balanced_overlap_case():
    # |mu|^2 = 1/2, |x|^2 = 0.1, y = 0; frozen against direct eigensolving
    s = state_from_magnitudes(0.5, math.sqrt(0.1), 0.0)
    lam_plus, lam_minus = schmidt_eigenvalues(s)
    assert lam_plus == pytest.approx(0.658113883008419, abs=1e-14)
    assert lam_minus == pytest.approx(0.341886116991581, abs=1e-14)
    ref = np.linalg.eigvalsh(reduced_density(s, "A"))
    assert lam_minus == pytest.approx(ref[0], abs=1e-10)
    assert lam_plus == pytest.approx(ref[1], abs=1e-10)


def test_schmidt_eigenvalues_product_state():
    lam_plus, lam_minus = schmidt_eigenvalues(make_state(1, 0, 0.5, 0.3))
    assert lam_plus == 1.0
    assert lam_minus == 0.0


def test_schmidt_eigenvalues_maximal():
    # the closed-form split carries sqrt(rounding) noise exactly at
    # degeneracy, so the tolerance here is 1e-7, not 1e-12
    lam_plus, lam_minus = schmidt_eigenvalues(make_state(SQ2, -SQ2, 0, 0))
    assert lam_plus == pytest.approx(0.5, abs=1e-7)
    assert lam_minus == pytest.approx(0.5, abs=1e-7)
    assert lam_plus + lam_minus == pytest.approx(1.0, abs=1e-15)
    assert lam_plus >= 0.5 >= lam_minus


def test_schmidt_eigenvalues_exact_at_degeneracy():
    # 1 - 4|mu nu N_A N_B|^2 rounds to ~5.5e-17 on this phase-rotated maximal
    # state, and its square root used to split the eigenvalues by 1.5e-8
    g = np.exp(1j * 1.416015625)
    for mu, nu in ((SQ2, -SQ2), (SQ2 * 1j, SQ2 * 1j), (SQ2 * 1j * g, SQ2 * 1j * g)):
        assert schmidt_eigenvalues(make_state(mu, nu, 0, 0)) == (0.5, 0.5)
    boundary = state_from_magnitudes(1.0 / (2.0 * (1.0 - 0.3 ** 2)), 0.3, 0.3, math.pi)
    lam_plus, lam_minus = schmidt_eigenvalues(boundary)
    assert lam_plus - lam_minus <= 1e-15


def test_schmidt_eigenvalues_against_high_precision():
    # relative accuracy of lambda_minus, down to near-product states, and
    # absolute accuracy of both, against 50-digit arithmetic on the same inputs
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 50
    rng = np.random.default_rng(8)
    for _ in range(300):
        eps = 10.0 ** rng.uniform(-8, 0)
        x, y = (rng.uniform(0, 0.9) * np.exp(1j * rng.uniform(-3, 3)) for _ in range(2))
        s = make_state(complex(*rng.normal(size=2)), eps * complex(*rng.normal(size=2)),
                       x, y, auto_normalize=True)
        mu, nu, x, y = (mp.mpc(complex(z).real, complex(z).imag) for z in (s.mu, s.nu, s.x, s.y))
        a, b = abs(mu) ** 2 * (1 - abs(x) ** 2), abs(nu) ** 2 * (1 - abs(y) ** 2)
        root = mp.sqrt(1 - 4 * a * b / (a + b + abs(mu * x + nu * y) ** 2) ** 2)
        lam_plus, lam_minus = schmidt_eigenvalues(s)
        assert abs(lam_plus - (1 + root) / 2) <= 4e-16
        assert abs(lam_minus - (1 - root) / 2) <= 4e-15 * (1 - root) / 2


@given(valid_states())
def test_schmidt_eigenvalues_match_eigensolver(s):
    lam_plus, lam_minus = schmidt_eigenvalues(s)
    tight = (lam_plus - lam_minus) > 1e-6   # away from the degenerate point
    for side in "AB":
        ref = np.linalg.eigvalsh(reduced_density(s, side))
        assert abs(lam_minus - ref[0]) <= (1e-10 if tight else 1e-7)
        assert abs(lam_plus - ref[1]) <= (1e-10 if tight else 1e-7)
    assert lam_plus + lam_minus == pytest.approx(1.0, abs=1e-12)
    assert lam_plus * lam_minus == pytest.approx(
        (abs(s.mu * s.nu) * s.n_a * s.n_b) ** 2, abs=1e-12)


def test_decompose_singlet_balanced_coefficients():
    form = schmidt_decompose(make_state(SQ2, -SQ2, 0, 0))
    assert abs(form.c_plus) == pytest.approx(SQ2, abs=1e-12)
    assert abs(form.c_minus) == pytest.approx(SQ2, abs=1e-12)
    assert form.degenerate


def test_decompose_product_state():
    form = schmidt_decompose(make_state(1, 0, 0.5, 0.3))
    assert abs(form.c_minus) == 0.0
    assert abs(form.c_plus) == pytest.approx(1.0, abs=1e-12)


@given(valid_states())
def test_decompose_properties(s):
    form = schmidt_decompose(s)
    lam_plus, lam_minus = schmidt_eigenvalues(s)
    # the formula split itself is sqrt(eps)-noisy at the degenerate point
    tol = 1e-12 if (lam_plus - lam_minus) > 1e-6 else 1e-7
    assert abs(abs(form.c_plus) ** 2 - lam_plus) <= tol
    assert abs(abs(form.c_minus) ** 2 - lam_minus) <= tol
    assert abs(form.c_minus) <= abs(form.c_plus)
    assert abs(abs(form.c_plus) ** 2 + abs(form.c_minus) ** 2 - 1.0) <= 1e-12
    # the coefficient product is gap-free and always tight
    assert abs(abs(form.c_plus * form.c_minus)
               - abs(s.mu * s.nu) * s.n_a * s.n_b) <= 1e-12
    for pair in ((form.a_plus, form.a_minus), (form.b_plus, form.b_minus)):
        assert abs(np.linalg.norm(pair[0]) - 1.0) <= 1e-12
        assert abs(np.linalg.norm(pair[1]) - 1.0) <= 1e-12
        assert abs(np.vdot(pair[0], pair[1])) <= 1e-12


@given(valid_states())
def test_coefficients_are_the_decomposition_magnitudes(s):
    form = schmidt_decompose(s)
    s_plus, s_minus = schmidt_coefficients(s)
    assert s_minus <= s_plus
    # c+ and c- are these magnitudes times a unit phase, within a few roundings
    assert abs(form.c_plus) == pytest.approx(s_plus, rel=5e-16)
    assert abs(form.c_minus) == pytest.approx(s_minus, rel=5e-16, abs=1e-300)


@given(valid_states())
def test_round_trip(s):
    form = schmidt_decompose(s)
    assert max_deviation_up_to_phase(embed(s), reconstruct(form)) <= 1e-12


def test_reconstruct_computational_bases():
    from nonortho.schmidt import SchmidtForm
    e0 = np.array([1, 0], dtype=complex)
    e1 = np.array([0, 1], dtype=complex)
    form = SchmidtForm(c_minus=SQ2, c_plus=SQ2, a_minus=e0, a_plus=e1,
                       b_minus=e0, b_plus=e1)
    assert np.allclose(reconstruct(form), [SQ2, 0, 0, SQ2], atol=1e-15)
    form = SchmidtForm(c_minus=0, c_plus=1, a_minus=e0, a_plus=e1,
                       b_minus=e0, b_plus=e1)
    assert np.allclose(reconstruct(form), [0, 0, 0, 1], atol=1e-15)
