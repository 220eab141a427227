import ast
import math
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nonortho import bell, report
from nonortho.bell import (_bloch_vectors, _chsh_value, _grid_constants, _grid_stage,
                           _orbit_representatives, _pair_values, _tensor_image, _workspace,
                           analytic_bell, oracle_bell_max)
from nonortho.errors import DomainError, NonHermitianDrift
from nonortho.sampling import random_states
from nonortho.schmidt import coefficient_matrix, schmidt_decompose
from nonortho.state import embed, make_state, state_from_magnitudes
from nonortho.report import _spin_observable, canonical_bell_value

from conftest import valid_states

SQ2 = 1.0 / math.sqrt(2.0)
E0 = np.array([1, 0], dtype=complex)
E1 = np.array([0, 1], dtype=complex)


def test_spin_observable_z_like():
    obs = _spin_observable(0.0, 0.0, E0, E1)
    assert np.allclose(obs, np.diag([1, -1]), atol=1e-15)


def test_spin_observable_x_like():
    obs = _spin_observable(math.pi / 2, 0.0, E0, E1)
    assert np.allclose(obs, [[0, 1], [1, 0]], atol=1e-15)


@given(valid_states())
def test_spin_observable_squares_to_identity(s):
    form = schmidt_decompose(s)
    obs = _spin_observable(0.7, -2.1, form.a_plus, form.a_minus)
    assert np.allclose(obs, obs.conj().T, atol=1e-14)
    assert np.allclose(obs @ obs, np.eye(2), atol=1e-12)


def test_canonical_wrap_equivalence():
    # Theta(-chi, phi) == Theta(chi, phi + pi), which lets B' take -chi_B
    form = schmidt_decompose(make_state(0.6, 0.8j, 0.3 - 0.2j, 0.5j, auto_normalize=True))
    for basis in ((E0, E1), (form.b_plus, form.b_minus)):
        assert np.allclose(_spin_observable(-0.8, 0.4, *basis),
                           _spin_observable(0.8, 0.4 + math.pi, *basis), rtol=0, atol=1e-14)


def _canonical_angles(state, monkeypatch):
    """canonical_bell_value(state) and the (chi, phi) of A, A', B, B' it builds."""
    angles = []

    def spy(chi, phi, plus, minus):
        angles.append((chi, phi))
        return _spin_observable(chi, phi, plus, minus)

    monkeypatch.setattr(report, "_spin_observable", spy)
    return canonical_bell_value(state), angles


def test_canonical_settings_balanced(monkeypatch):
    _, angles = _canonical_angles(make_state(SQ2, -SQ2, 0, 0), monkeypatch)
    (chi_a, _), (chi_ap, _), (chi_b, phi_b), (chi_bp, phi_bp) = angles
    assert chi_a == 0.0
    assert chi_ap == pytest.approx(math.pi / 2)
    assert chi_b == pytest.approx(math.pi / 4)   # arccos(1/sqrt(2))
    assert chi_bp == -chi_b and phi_b == phi_bp == 0.0


def test_canonical_settings_product_state(monkeypatch):
    value, angles = _canonical_angles(make_state(1, 0, 0.5, 0.3), monkeypatch)
    assert angles[2][0] == pytest.approx(0.0, abs=1e-12)
    assert value == pytest.approx(2.0, abs=1e-12)


def test_canonical_settings_frozen_example(monkeypatch):
    # |c+|^2 = 0.9, |c-|^2 = 0.1 -> chi_B = arccos(1/sqrt(1.36))
    from nonortho.feasibility import mu_squared_solutions
    (q,) = [r for r in mu_squared_solutions(0.0, 0.0, 1 - 0.36) if r > 0.5]
    s = state_from_magnitudes(q, 0.0, 0.0)
    value, angles = _canonical_angles(s, monkeypatch)
    assert angles[2][0] == pytest.approx(0.54041950027058405, abs=1e-12)
    assert value == pytest.approx(2.3323807579381204, abs=1e-12)
    assert analytic_bell(schmidt_decompose(s)) == pytest.approx(2.3323807579381204, abs=1e-12)


def test_bell_expectation_singlet_canonical():
    s = make_state(SQ2, -SQ2, 0, 0)
    assert canonical_bell_value(s) == pytest.approx(2 * math.sqrt(2), abs=1e-12)


@given(valid_states(), st.lists(st.floats(-math.pi, math.pi), min_size=8, max_size=8))
@settings(max_examples=60)
def test_product_states_within_classical_bound(s, angles):
    # any settings on a product state stay within [-2, 2], and the canonical ones give 2
    product = make_state(1, 0, s.x, s.y)
    v = embed(product)
    a, a_prime, b, b_prime = (_spin_observable(*angles[k:k + 2], E0, E1) for k in range(0, 8, 2))
    value = np.vdot(v, (np.kron(a, b + b_prime) + np.kron(a_prime, b - b_prime)) @ v).real
    assert -2.0 - 1e-12 <= value <= 2.0 + 1e-12
    assert canonical_bell_value(product) == pytest.approx(2.0, abs=1e-12)


def test_canonical_value_rejects_an_imaginary_residue(monkeypatch):
    # A = A' = B = B' = diag(1, i): <psi| 2 diag(1, i, i, -1) |psi> has imaginary part
    # 2 (|psi_01|^2 + |psi_10|^2)
    monkeypatch.setattr(report, "_spin_observable", lambda *args: np.diag([1.0, 1j]))
    with pytest.raises(NonHermitianDrift):
        canonical_bell_value(make_state(0.6, 0.8, 0.3, 0.5, auto_normalize=True))


ORACLE_PRIVATE = {"_pauli_forms", "_share", "_chsh_value", "_tensor_image", "_polish"}


def test_canonical_route_is_independent_of_the_oracle():
    # read from the source, not run: bell imports nothing from the canonical
    # route's module, and that module names none of the oracle's private helpers
    canonical = ast.parse(Path(sys.modules[canonical_bell_value.__module__].__file__).read_text())
    names = set()
    for node in ast.walk(canonical):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    assert names.isdisjoint(ORACLE_PRIVATE)
    route = canonical_bell_value.__module__.rsplit(".", 1)[-1]
    imported = set()
    for node in ast.walk(ast.parse(Path(bell.__file__).read_text())):
        if isinstance(node, ast.ImportFrom):
            imported.update((node.module or "").split("."))
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update(part for alias in node.names for part in alias.name.split("."))
    assert route not in imported


@given(valid_states())
@settings(max_examples=150)
def test_canonical_reaches_analytic(s):
    form = schmidt_decompose(s)
    assert canonical_bell_value(s) == pytest.approx(analytic_bell(form), abs=1e-9)


@given(valid_states())
def test_analytic_bell_range_and_deviation_link(s):
    from nonortho.feasibility import deviation
    form = schmidt_decompose(s)
    bell = analytic_bell(form)
    assert 2.0 - 1e-12 <= bell <= 2.0 * math.sqrt(2.0) + 1e-12
    assert bell ** 2 == pytest.approx(4.0 * (2.0 - deviation(form)), abs=1e-12)


def test_oracle_singlet():
    value = oracle_bell_max(embed(make_state(SQ2, -SQ2, 0, 0)))
    assert value == pytest.approx(2 * math.sqrt(2), abs=1e-4)


def test_oracle_product_state():
    value = oracle_bell_max(embed(make_state(1, 0, 0.5, 0.3)))
    assert value == pytest.approx(2.0, abs=1e-4)


def test_oracle_monotone_in_refinement_and_grid_floor():
    v = embed(make_state(0.8, 0.6, 0.4, 0.2j, auto_normalize=True))
    coarse = oracle_bell_max(v, grid_n=8, refine_iters=0)
    some = oracle_bell_max(v, grid_n=8, refine_iters=5)
    more = oracle_bell_max(v, grid_n=8, refine_iters=25)
    assert coarse <= some + 1e-15 <= more + 2e-15
    assert more <= 2 * math.sqrt(2) + 1e-9


def test_oracle_rejects_tiny_grid():
    with pytest.raises(DomainError):
        oracle_bell_max(embed(make_state(SQ2, -SQ2, 0, 0)), grid_n=4)


def test_oracle_rejects_a_grid_above_the_cap(monkeypatch):
    # rejected before the grid's arrays, which grow as grid_n^4, are built
    monkeypatch.setattr(bell, "_grid_constants", None)
    with pytest.raises(DomainError, match="grid_n"):
        oracle_bell_max(embed(make_state(SQ2, -SQ2, 0, 0)), grid_n=bell.GRID_N_MAX + 1)


def test_oracle_rejects_negative_refine_iters():
    with pytest.raises(DomainError, match="refine_iters"):
        oracle_bell_max(embed(make_state(SQ2, -SQ2, 0, 0)), refine_iters=-1)


@pytest.mark.parametrize("kwargs", [{"grid_n": 24.0}, {"refine_iters": 40.0},
                                    {"grid_n": np.float64(24)}])
def test_oracle_rejects_non_integer_args(kwargs, monkeypatch):
    v = embed(make_state(SQ2, -SQ2, 0, 0))
    oracle_bell_max(v)   # 24's grid is now cached, and 24.0 hashes like 24
    monkeypatch.setattr(bell, "_grid_constants", None)
    with pytest.raises(DomainError, match=next(iter(kwargs))):
        oracle_bell_max(v, **kwargs)


def test_oracle_accepts_numpy_integer_args():
    v = embed(make_state(0.8, 0.6, 0.3, 0.2, auto_normalize=True))
    assert oracle_bell_max(v, grid_n=np.int64(24), refine_iters=np.int32(40)) == oracle_bell_max(v)


def _theta_entries(chis, phis):
    """(n, 2, 2) stack of observables in the computational basis."""
    out = np.empty((len(chis), 2, 2), dtype=complex)
    c, s, e = np.cos(chis), np.sin(chis), np.exp(1j * phis)
    out[:, 0, 0] = c
    out[:, 1, 1] = -c
    out[:, 0, 1] = s * e
    out[:, 1, 0] = s * np.conj(e)
    return out


def _full_grid_best(psi, grid_n):
    """Reference O(N^3) scan over every (a, a', b, b') of the plain grid."""
    chis = np.linspace(0.0, math.pi, grid_n)
    phis = np.linspace(-math.pi, math.pi, grid_n, endpoint=False)
    grid_chi, grid_phi = (g.ravel() for g in np.meshgrid(chis, phis, indexing="ij"))
    obs = _theta_entries(grid_chi, grid_phi)
    contracted = np.einsum('ki,nkl,lj->nij', psi.conj(), obs, psi)
    corr = np.einsum('nab,mab->nm', contracted, obs).real    # [a, b]
    plus = corr[:, :, None] + corr[:, None, :]               # [a, b, b']
    minus = corr[:, :, None] - corr[:, None, :]
    return float((plus.max(axis=0) + minus.max(axis=0)).max())


@given(valid_states())
@settings(max_examples=40, deadline=None)
def test_folded_grid_matches_full_scan(s):
    # A and A' range over every setting, a superset of the grid's
    psi = coefficient_matrix(embed(s))
    for grid_n in (8, 9):
        folded, angles = _grid_stage(psi, grid_n, 40)
        assert folded >= _full_grid_best(psi, grid_n) - 1e-14
        # the angles attain the stage's value
        assert abs(_chsh_value(psi, angles) - folded) <= 1e-15


def test_oracle_early_stop_is_exact():
    # this state's Newton steps stop well before step 40
    v = embed(make_state(0.8, 0.6, 0.4, 0.2j, auto_normalize=True))
    assert oracle_bell_max(v, refine_iters=40) == oracle_bell_max(v, refine_iters=1000)


def test_orbit_representatives_count():
    # interior orbits: (n-2) n/2 for even n, (n-2) n for odd n; the poles add one
    for grid_n, count in ((8, 25), (9, 64), (24, 265)):
        assert len(_orbit_representatives(grid_n)[0]) == count


# --- grid stage and refinement against the references -----------------------

def _grid_correlations(psi, grid_n):
    """Orbit settings, corr_t[s, r] = <Theta_r Theta_s> and the rows a_s: the grid stage's."""
    chis, phis = _orbit_representatives(grid_n)
    bloch = _bloch_vectors(chis, phis)
    image = _tensor_image(bell._pauli_forms(psi.tolist()), bloch)
    return chis, phis, image @ bloch.T, image


def _contracted_correlations(psi, chis, phis):
    """corr_t[s, r] = <Theta_r Theta_s> by contracting the observables' entries with psi."""
    obs = _theta_entries(chis, phis)
    contracted = np.einsum('ki,nkl,lj->nij', psi.conj(), obs, psi, optimize=True)
    return np.einsum('nab,mab->mn', contracted, obs, optimize=True).real


_PAULIS = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])


def _brute_force_best(psi, bloch):
    """max |a_i + a_j| + |a_i - a_j| over all R x R pairs.

    a_i = T n_i, with T_mk = <sigma_m sigma_k> contracted from the state.
    """
    tensor = np.einsum('ab,mac,kbd,cd->mk', psi.conj(), _PAULIS, _PAULIS, psi).real
    image = bloch @ tensor.T
    plus = np.linalg.norm(image[:, None] + image[None], axis=2)
    minus = np.linalg.norm(image[:, None] - image[None], axis=2)
    return float((plus + minus).max())


def _contract(psi, chi, phi):
    """(K00 - K11, K01) of K = psi^dagger Theta(chi, phi) psi, from Theta's entries."""
    (u0, u1), (v0, v1) = psi
    c, s = math.cos(chi), math.sin(chi)
    se = complex(s * math.cos(phi), s * math.sin(phi))
    sec = se.conjugate()
    # (a0, a1) and (b0, b1) are the rows of Theta psi
    a0, a1 = c * u0 + se * v0, c * u1 + se * v1
    b0, b1 = sec * u0 - c * v0, sec * u1 - c * v1
    u0c, v0c = u0.conjugate(), v0.conjugate()
    k00 = u0c * a0 + v0c * b0
    k11 = u1.conjugate() * a1 + v1.conjugate() * b1
    return (k00 - k11).real, u0c * a1 + v0c * b1


def _reference_chsh_value(psi, angles):
    """The CHSH value with both A sides contracted through Theta's entries."""
    d_a, k_a = _contract(psi, angles[0], angles[1])
    d_ap, k_ap = _contract(psi, angles[2], angles[3])
    c_b, s_b = math.cos(angles[4]), math.sin(angles[4])
    c_bp, s_bp = math.cos(angles[6]), math.sin(angles[6])
    w_b = complex(s_b * math.cos(angles[5]), s_b * math.sin(angles[5]))
    w_bp = complex(s_bp * math.cos(angles[7]), s_bp * math.sin(angles[7]))
    return (d_a * (c_b + c_bp) + 2.0 * (k_a * (w_b + w_bp)).real
            + d_ap * (c_b - c_bp) + 2.0 * (k_ap * (w_b - w_bp)).real)


def _probe_reference_oracle(psi, best, angles, refine_iters=40):
    """The refinement that fits each coordinate's sinusoid to probes at +-0.5 rad.

    Returns the value and whether a sweep reached the fixed point.
    """
    psi, angles = psi.tolist(), angles.tolist()
    current = max(_reference_chsh_value(psi, angles), best)
    probe = 0.5
    sin_p, cos_p = math.sin(probe), math.cos(probe)
    for _ in range(refine_iters):
        sweep_start = angles
        for k in range(8):
            up = angles.copy()
            up[k] += probe
            down = angles.copy()
            down[k] -= probe
            f_up, f_down = _reference_chsh_value(psi, up), _reference_chsh_value(psi, down)
            coef_b = (f_up - f_down) / (2.0 * sin_p)
            coef_a = (0.5 * (f_up + f_down) - current) / (cos_p - 1.0)
            if coef_a == 0.0 and coef_b == 0.0:
                continue
            trial = angles.copy()
            trial[k] += math.atan2(coef_b, coef_a)
            value = _reference_chsh_value(psi, trial)
            if value > current:
                current, angles = value, trial
        # a pattern move along the sweep's displacement, doubled while it gains
        displacement = [a - s for a, s in zip(angles, sweep_start)]
        if not any(displacement):
            return current, True
        scale = 1.0
        for _ in range(50):
            trial = [a + scale * d for a, d in zip(angles, displacement)]
            value = _reference_chsh_value(psi, trial)
            if value > current:
                current, angles = value, trial
                scale *= 2.0
            else:
                break
    return current, False


def _assert_grid_stage_matches_the_references(psi):
    """The grid stage against the brute force, and its angles against its value."""
    for grid_n in (8, 9, 24):
        best, angles = _grid_stage(psi, grid_n, 40)
        assert best >= _brute_force_best(psi, _grid_constants(grid_n).bloch) - 1e-14
        assert np.isfinite(angles).all()
        assert abs(_chsh_value(psi, angles) - best) <= 1e-15


@given(valid_states())
@settings(max_examples=30, deadline=None)
def test_grid_stage_matches_the_brute_force_on_random_states(s):
    _assert_grid_stage_matches_the_references(coefficient_matrix(embed(s)))


def _family_states():
    for a in np.linspace(0.0, math.pi / 2, 7):              # cos/sin Bell family
        yield make_state(math.cos(a), math.sin(a), 0, 0)
        yield make_state(math.cos(a), -math.sin(a) * 1j, 0, 0)
    yield make_state(SQ2, -SQ2, 0, 0)                        # maximally entangled
    for nu in (0.0, 1e-12, 1e-8, 1e-4, 1e-2):               # near-product states
        yield make_state(1.0, nu, 0.4, 0.3j, auto_normalize=True)
        yield state_from_magnitudes(1.0 - nu, 0.2, 0.7, 1.0)
    for overlap in (0.0, 0.3, 0.6, 0.9, 0.95):               # |x| = |y|, eta = pi
        q = 1.0 / (2.0 * (1.0 - overlap ** 2))
        yield state_from_magnitudes(q, overlap, overlap, math.pi)
        yield state_from_magnitudes(0.97 * q, overlap, overlap, math.pi)


def test_grid_stage_matches_the_brute_force_on_families():
    # the near-product states have pairs with |a_i -+ a_j| ~ 1e-8, where the
    # pair values' rounding reaches ~1e-8 and the exact comparison decides
    for s in _family_states():
        _assert_grid_stage_matches_the_references(coefficient_matrix(embed(s)))
    for nu in (1e-6, 1e-5):
        s = make_state(0.6 + 0.3j, nu * (0.5 - 0.8j), 0.4, 0.3j, auto_normalize=True)
        _assert_grid_stage_matches_the_references(coefficient_matrix(embed(s)))


def _reference_grid_stage(psi, grid_n, steps):
    """The grid stage without its float32 cut: every pair i <= j compared in float64."""
    grid = _grid_constants(grid_n)
    forms = bell._pauli_forms(psi.tolist())
    image = _tensor_image(forms, grid.bloch)
    first, second = np.triu_indices(len(image))
    best = int(np.argmax(bell._pair_totals(image, first, second)))
    return bell._pair_settings(psi.tolist(), forms, grid, int(first[best]), int(second[best]),
                               steps)


def _assert_grid_exact(psi):
    """The pruned grid stage matches the unpruned reference bit for bit."""
    for grid_n in (8, 9, 24):
        best, angles = _grid_stage(psi, grid_n, 40)
        ref_best, ref_angles = _reference_grid_stage(psi, grid_n, 40)
        assert best == ref_best
        assert np.array_equal(angles, ref_angles)


@given(valid_states())
@settings(max_examples=30, deadline=None)
def test_pruned_grid_is_bit_identical_on_random_states(s):
    _assert_grid_exact(coefficient_matrix(embed(s)))


def test_pruned_grid_is_bit_identical_on_families():
    # the pairs the cut keeps are compared by the reference's own helper, so
    # the first largest pair and its angles are the same to the last bit
    for s in _family_states():
        _assert_grid_exact(coefficient_matrix(embed(s)))
    for nu in (1e-6, 1e-5):
        s = make_state(0.6 + 0.3j, nu * (0.5 - 0.8j), 0.4, 0.3j, auto_normalize=True)
        _assert_grid_exact(coefficient_matrix(embed(s)))


def _coverage_states():
    """Near-product, maximally entangled, boundary-family and random states."""
    for nu in (1e-16, 1e-12, 1e-8):
        yield make_state(1.0, nu, 0.4, 0.3j, auto_normalize=True)
    yield make_state(SQ2, -SQ2, 0, 0)
    for t in (0.3, 0.6, 0.9, 0.95):
        for s in (1.0, 0.999, 0.97):
            yield state_from_magnitudes(s / (2.0 * (1.0 - t * t)), t, t, math.pi)
    yield from random_states(50, 20)


def test_float32_window_keeps_the_float64_best_pair():
    # the best pair of the unpruned float64 comparison is always among the
    # pairs the float32 keys' window keeps
    for s in _coverage_states():
        forms = bell._pauli_forms(coefficient_matrix(embed(s)).tolist())
        for grid_n in (8, 9, 24):
            grid = _grid_constants(grid_n)
            image = _tensor_image(forms, grid.bloch)
            first, second = np.divmod(grid.pairs, len(image))
            best = int(np.argmax(bell._pair_totals(image, first, second)))
            kept_first, kept_second = bell._candidates(image, grid.pairs)
            assert ((kept_first == first[best]) & (kept_second == second[best])).any()


def test_pruning_stays_exact_with_a_wrong_tensor_or_noisy_correlations(monkeypatch):
    # the cut keeps the best pair whenever every key is within the bound it
    # assumes for the state: E(rho) of bell._key_error where that applies,
    # else the 2.5e-3 max|a_i|^2 that _pair_values proves for all keys.
    # Keys from a slightly wrong tensor, keys anywhere within that bound of
    # the exact keys, or at its worst (the best pairs low by all of it in
    # float32, all others high) reorder the candidates but leave the result
    rng = np.random.default_rng(5)
    pair_values = bell._pair_values

    def wrong_tensor(image, pairs, space):
        scale = np.abs(image).max()
        return pair_values(image * (1.0 + 2.0 ** -24)
                           + rng.uniform(-1.0, 1.0, image.shape) * 2.0 ** -26 * scale,
                           pairs, space)

    def exact_keys(image, pairs):
        totals = bell._pair_totals(image, *np.divmod(pairs, len(image)))
        keys = 0.5 * totals ** 2
        m_sq = float(np.einsum('ij,ij->i', image, image).max())
        reach = bell._KEY_ERROR * m_sq
        # keys within reach of the exact ones put the cut's rho at or below
        # this one, where the bound is E(rho) or more
        rho = float(keys.max()) - (2.0 + bell._CUT_SLACK) * m_sq
        if rho > 0.0:
            reach = min(reach, bell._key_error(m_sq, rho))
        return totals, keys, reach

    def noisy(image, pairs, space):
        _, keys, reach = exact_keys(image, pairs)
        return keys + rng.uniform(-1.0, 1.0, keys.shape) * reach

    def worst(image, pairs, space):
        # less 2^-22, the float32 rounding of a key below 8
        totals, keys, reach = exact_keys(image, pairs)
        reach -= 2.0 ** -22
        return (keys + np.where(totals == totals.max(), -reach, reach)).astype(np.float32)

    states = [*random_states(5, 12), *_family_states()]
    expected = {}
    for i, s in enumerate(states):
        psi = coefficient_matrix(embed(s))
        for grid_n in (8, 9, 24):
            expected[i, grid_n] = _reference_grid_stage(psi, grid_n, 40)
    reordered = 0
    for perturb in (wrong_tensor, noisy, worst):
        monkeypatch.setattr(bell, "_pair_values", perturb)
        for i, s in enumerate(states):
            psi = coefficient_matrix(embed(s))
            for grid_n in (8, 9, 24):
                best, angles = _grid_stage(psi, grid_n, 40)
                ref_best, ref_angles = expected[i, grid_n]
                assert best == ref_best
                assert np.array_equal(angles, ref_angles)
                grid = _grid_constants(grid_n)
                image = _tensor_image(bell._pauli_forms(psi.tolist()), grid.bloch)
                keys = perturb(image, grid.pairs, _workspace(len(image)))
                first, second = np.divmod(grid.pairs[int(np.argmax(keys))], len(image))
                reordered += not np.array_equal(
                    ref_angles[4:], [grid.chis[first], grid.phis[first],
                                     grid.chis[second], grid.phis[second]])
    assert reordered > 0    # the perturbed values alone would pick another pair


def test_grid_angles_are_finite_on_product_states():
    # finite angles that attain the value, at most the classical 2; on |00>
    # the best pair is the pole twice, so A' points along a_i - a_j = 0
    for vector in ([1.0, 0, 0, 0], [0.6, 0, 0.8j, 0], embed(make_state(1, 0, 0.5, 0.3))):
        psi = coefficient_matrix(vector)
        for grid_n in (8, 9, 24):
            best, angles = _grid_stage(psi, grid_n, 40)
            assert np.isfinite(angles).all()
            assert abs(_chsh_value(psi, angles) - best) <= 1e-15
            assert best <= 2.0 + 1e-15
    best, angles = _grid_stage(coefficient_matrix([1.0, 0, 0, 0]), 24, 40)
    assert best == 2.0 and angles[4] == angles[6] == 0.0


def test_refine_starts_from_the_grid_value_exactly():
    # zero Newton steps leave B and B' at the grid's best pair, so the
    # oracle returns the unpolished grid value bit for bit
    for s in [*_family_states(), *random_states(20, 17)]:
        psi = coefficient_matrix(embed(s))
        for grid_n in (8, 9, 24):
            grid = _grid_constants(grid_n)
            best, angles = _reference_grid_stage(psi, grid_n, 0)
            settings = set(zip(grid.chis.tolist(), grid.phis.tolist()))
            b_angles = angles[4:].tolist()
            assert {tuple(b_angles[:2]), tuple(b_angles[2:])} <= settings
            assert oracle_bell_max(embed(s), grid_n, 0) == best


def test_grid_stage_polish_reaches_the_canonical_value():
    # the Newton steps on the grid's best pair top the flat ridge that
    # single-angle moves crawl along (largest shortfall seen: 2.2e-15)
    for s in [*_family_states(), *random_states(40, 7)]:
        psi = coefficient_matrix(embed(s))
        for grid_n in (8, 9, 24):
            assert canonical_bell_value(s) - _grid_stage(psi, grid_n, 40)[0] <= 1e-13


@pytest.mark.parametrize("n", [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, -1.0),
                               (0.6, -0.48, 0.64), (1e-9, 0.0, 1.0)])
def test_polish_frames_and_turns_stay_orthonormal(n):
    norm = math.sqrt(sum(x * x for x in n))
    n = tuple(x / norm for x in n)
    frame = np.array([n, *bell._tangent_frame(n)])
    assert np.abs(frame @ frame.T - np.eye(3)).max() <= 1e-15
    for u, v in ((0.0, 0.0), (0.3, -0.2), (2.5, 1.0)):
        moved = np.array(bell._turn(n, frame[1:], u, v))
        assert abs(np.linalg.norm(moved) - 1.0) <= 1e-15
        angle = math.atan2(np.linalg.norm(np.cross(moved, frame[0])), moved @ frame[0])
        assert abs(angle - math.hypot(u, v)) <= 1e-15


def _assert_rank3_matches_the_contraction(psi):
    for grid_n in (8, 9, 24):
        chis, phis, corr_t = _grid_correlations(psi, grid_n)[:3]
        assert np.abs(corr_t - _contracted_correlations(psi, chis, phis)).max() <= 1e-15


@given(valid_states())
@settings(max_examples=60, deadline=None)
def test_rank3_correlations_match_the_contraction(s):
    # the tensor's rows against the observables contracted entry by entry
    _assert_rank3_matches_the_contraction(coefficient_matrix(embed(s)))


def test_rank3_correlations_match_the_contraction_on_families():
    for s in _family_states():
        _assert_rank3_matches_the_contraction(coefficient_matrix(embed(s)))


def _all_totals(corr_t):
    """Totals of every pair i <= j over the grid's A settings, packed row-major."""
    return np.concatenate([np.abs(corr_t[ib:] + corr_t[ib]).max(axis=1)
                           + np.abs(corr_t[ib] - corr_t[ib:]).max(axis=1)
                           for ib in range(len(corr_t))])


def _packed_index(n, i, j):
    """Position of pair (i, j), i <= j, in the row-major packing of n orbits."""
    return i * n - i * (i - 1) // 2 + (j - i)


def test_pair_bounds_dominate_every_total():
    # with A and A' free every pair reaches at least what the grid's A
    # settings reach, and each float32 key stays within the 2.5e-3 max|a_i|^2
    # of (|a_i + a_j| + |a_i - a_j|)^2 / 2 that _pair_values proves, and
    # within its E(rho) at rho = |a_i + a_j| |a_i - a_j|; on
    # near-product states and at i = j, where |a_i - a_j| ~ 0, the key's
    # square root magnifies the rounding of the squares
    near_product = [make_state(0.6 + 0.3j, nu * (0.5 - 0.8j), x, y, auto_normalize=True)
                    for nu in (1e-16, 1e-12, 1e-10, 1e-8) for x, y in ((0.4, 0.3j), (0, 0))]
    pairs = _grid_constants(24).pairs
    q = 1.0 / (2.0 * (1.0 - 0.6 ** 2))
    boundary = [state_from_magnitudes(s * q, 0.6, 0.6, math.pi) for s in (1.0, 0.97)]
    rounded = 0.0
    for s in [*random_states(20, 11), *near_product, *boundary]:
        _, _, corr_t, image = _grid_correlations(coefficient_matrix(embed(s)), 24)
        keys = _pair_values(image, pairs, _workspace(len(corr_t)))
        first, second = np.divmod(pairs, len(image))
        exact = (np.linalg.norm(image[first] + image[second], axis=1)
                 + np.linalg.norm(image[first] - image[second], axis=1))
        assert keys.dtype == np.float32 and keys.shape == exact.shape
        assert (exact >= _all_totals(corr_t) - 1e-14).all()
        error = np.abs(keys - 0.5 * exact ** 2)
        m_sq = np.linalg.norm(image, axis=1).max() ** 2
        assert error.max() <= 2.5e-3 * m_sq
        # and within E(rho) at rho = the pair's own |p||q|, where that is positive
        product = (np.linalg.norm(image[first] + image[second], axis=1)
                   * np.linalg.norm(image[first] - image[second], axis=1))
        tight = product > 0.0
        assert (error[tight] <= bell._key_error(m_sq, product[tight])).all()
        rounded = max(rounded, float(error.max()))
    assert rounded > 1e-4       # the float32 rounding the grid stage's window covers


def test_pair_bounds_are_tight_on_pure_states():
    # Theta = n . sigma, read off its entries; on the maximally entangled
    # state T is orthogonal, so |a_i| = 1 and a pair's value |a_i + a_j| +
    # |a_i - a_j| reaches 2 sqrt 2 (key 4) when n_i . n_j = 0, as the pole
    # and the equator do at grid_n 9 (not at 24, whose chis miss pi/2, so
    # there the polish of the best pair gets it); the float32 keys stay
    # within their proven 2.5e-3 of the exact keys
    psi = coefficient_matrix(embed(make_state(SQ2, -SQ2, 0, 0)))
    tops = []
    for grid_n in (9, 24):
        chis, phis, corr_t, image = _grid_correlations(psi, grid_n)
        bloch = _bloch_vectors(chis, phis)
        obs = _theta_entries(chis, phis)
        read_off = np.stack([obs[:, 0, 1].real, -obs[:, 0, 1].imag, obs[:, 0, 0].real], axis=1)
        assert np.abs(bloch - read_off).max() < 1e-15
        assert np.abs(np.linalg.norm(image, axis=1) - 1.0).max() < 1e-15
        pairs = _grid_constants(grid_n).pairs
        totals = bell._pair_totals(image, *np.divmod(pairs, len(image)))
        keys = _pair_values(image, pairs, _workspace(len(corr_t)))
        assert abs(keys.max() - 4.0) <= 2.5e-3
        assert totals.max() <= 2.0 * math.sqrt(2.0) + 1e-15
        assert abs(_grid_stage(psi, grid_n, 40)[0] - 2.0 * math.sqrt(2.0)) < 1e-15
        tops.append(totals.max())
    assert abs(tops[0] - 2.0 * math.sqrt(2.0)) < 1e-15 and tops[1] < 2.0 * math.sqrt(2.0) - 1e-9


# --- regressions: states the A-grid scan left crawling ----------------------

@pytest.mark.parametrize("grid_n", [8, 9, 12, 24])
def test_oracle_reaches_the_near_maximal_boundary_state(grid_n):
    # at grid_n 9 the A-grid scan's start stopped 3.34e-3 short after 40 sweeps
    q0 = 1.0 / (2.0 * (1.0 - 0.95 ** 2))
    s = state_from_magnitudes(0.97 * q0, 0.95, 0.95, math.pi)
    value = oracle_bell_max(embed(s), grid_n)
    assert analytic_bell(schmidt_decompose(s)) - value <= 1e-9
    assert value <= 2 * math.sqrt(2) + 1e-9


def test_oracle_reaches_the_tie_input():
    # two A-grid pairs tied here, and one of them led to a crawl 5.6e-11 short
    s = make_state(0.5 + 0.5j, -0.3 + 0.6j, 0.6 - 0.3j, 0.1 + 0.7j, auto_normalize=True)
    assert analytic_bell(schmidt_decompose(s)) - oracle_bell_max(embed(s)) <= 1e-12


def test_oracle_reaches_a_boundary_state_off_the_family():
    # near-maximal (d ~ 1e-3); the A-grid scan's start was 1.13e-6 short at 40 sweeps
    s = make_state(0.7386214236228797, 0.5443168430911733 - 0.5319434847141975j,
                   -0.3121233246455152 + 0.11656266638013081j,
                   0.30469641469030134 + 0.13478842626980725j)
    assert canonical_bell_value(s) - oracle_bell_max(embed(s)) <= 1e-9


def test_grid_constants_are_cached_and_read_only():
    grid = _grid_constants(24)
    assert _grid_constants(24) is grid
    for array in (grid.chis, grid.phis, grid.bloch):
        with pytest.raises(ValueError):
            array[0] = 0.0
    # the pairs i <= j in row-major order, i.e. ascending flat index; they
    # stay writeable so that np.take uses them without a copy, and a grid
    # stage leaves them as built
    n = len(grid.chis)
    rows, cols = np.triu_indices(n)
    _grid_stage(coefficient_matrix(embed(_workspace_states()[1])), 24, 40)
    assert grid.pairs.dtype == np.intp and grid.pairs.flags.writeable
    assert np.array_equal(grid.pairs, rows * n + cols)
    assert _packed_index(n, 7, 9) == int(np.flatnonzero(grid.pairs == 7 * n + 9)[0])


# --- the grid stage's per-thread workspace ----------------------------------

def _workspace_states():
    """A random, a near-maximal boundary and a near-product state."""
    q = 1.0 / (2.0 * (1.0 - 0.6 ** 2))
    return [next(iter(random_states(1, 3))), state_from_magnitudes(0.97 * q, 0.6, 0.6, math.pi),
            state_from_magnitudes(1e-3, 0.4, 0.2, 1.0)]


def test_grid_stage_allocates_less_than_one_square_array():
    # every R x R array lives in the workspace, so after a warm-up call the
    # traced peak stays below one R x R float64 array
    n = len(_grid_constants(24).chis)
    own_trace = not tracemalloc.is_tracing()     # else measure inside the running trace
    for s in _workspace_states():
        v = embed(s)
        oracle_bell_max(v, 24)
        if own_trace:
            tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            oracle_bell_max(v, 24)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if own_trace:
                tracemalloc.stop()
        assert peak < n * n * 8


def test_workspace_layout_reuse_and_keys():
    n = len(_grid_constants(24).chis)
    space = _workspace(n)
    assert _workspace(n) is space
    flat = space.work.base
    assert flat.dtype == np.float32
    assert all(view.base is flat and view.flags.c_contiguous for view in space)
    pairs = n * (n + 1) // 2
    assert flat.size == n * n + 2 * pairs + 10 * n
    assert space.work.shape == (n, n) and space.halves.shape == (2, pairs)
    assert space.left.shape == (n, 5) and space.right.shape == (5, n)
    assert not any(np.shares_memory(u, v) for k, u in enumerate(space) for v in space[k + 1:])
    # the operands' ones stay as written, and the rest holds the last
    # state's a, 2 a and |a|^2, each rounded once to float32
    psi = coefficient_matrix(embed(_workspace_states()[0]))
    best, angles = _grid_stage(psi, 24, 40)
    assert not np.shares_memory(angles, flat)
    image = _tensor_image(bell._pauli_forms(psi.tolist()), _grid_constants(24).bloch)
    assert (space.left[:, 4] == 1.0).all() and (space.right[3] == 1.0).all()
    assert np.array_equal(space.left[:, :3], image.astype(np.float32))
    assert np.array_equal(space.right[:3], (2.0 * image.T).astype(np.float32))
    assert np.array_equal(space.left[:, 3], space.right[4])
    assert np.allclose(space.right[4], (image ** 2).sum(axis=1), rtol=1.0001 * 2.0 ** -24,
                       atol=0.0)
    # another thread gets its own workspace
    box = []
    worker = threading.Thread(target=lambda: box.append(_workspace(n)))
    worker.start()
    worker.join(timeout=60)
    assert not worker.is_alive() and len(box) == 1
    assert not np.shares_memory(box[0].work.base, flat)
    # and each orbit count its own
    small = _workspace(len(_grid_constants(8).chis))
    assert small is not space and small.work.shape == (25, 25)
    assert _workspace(n) is space


def test_threads_interleaving_grid_sizes_match_sequential_results():
    # more threads than cores, each on its own states, with grid sizes
    # interleaved so that every thread keeps three workspaces in use
    jobs = [[(embed(s), grid_n) for s in states for grid_n in (8, 24, 9)]
            for states in (_workspace_states(), random_states(3, 4), random_states(3, 5))]
    expected = [[oracle_bell_max(v, grid_n) for v, grid_n in thread_jobs]
                for thread_jobs in jobs]
    results = [[] for _ in jobs]
    start = threading.Barrier(len(jobs))

    def run(thread_jobs, out):
        start.wait(timeout=60)
        for _ in range(3):
            out.append([oracle_bell_max(v, grid_n) for v, grid_n in thread_jobs])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=run, args=(thread_jobs, out))
                   for thread_jobs, out in zip(jobs, results)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    for out, want in zip(results, expected):
        assert out == [want] * 3


# --- scalar CHSH value against the matrix form ------------------------------

def _einsum_chsh_value(psi, angles):
    """The CHSH value by 2x2 matrix products: Re sum_ab K_ab (B +- B')_ab per A side."""
    angles = np.asarray(angles)
    obs = _theta_entries(angles[0::2], angles[1::2])
    k_a = psi.conj().T @ obs[0] @ psi
    k_ap = psi.conj().T @ obs[1] @ psi
    return (np.einsum('ab,ab->', k_a, obs[2] + obs[3])
            + np.einsum('ab,ab->', k_ap, obs[2] - obs[3])).real


@given(valid_states(), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=100, deadline=None)
def test_scalar_chsh_value_matches_einsum_form(s, seed):
    psi = coefficient_matrix(embed(s))
    rng = np.random.default_rng(seed)
    for angles in rng.uniform(-2 * math.pi, 2 * math.pi, (20, 8)):
        reference = _einsum_chsh_value(psi, angles)
        assert abs(_chsh_value(psi, angles) - reference) <= 1e-15
        assert abs(_chsh_value(psi.tolist(), angles.tolist()) - reference) <= 1e-15


# --- per-setting shares, and the probe refinement at the oracle's angles ---

@given(valid_states(), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=100, deadline=None)
def test_linear_form_shares_match_the_contraction(s, seed):
    psi = coefficient_matrix(embed(s)).tolist()
    forms = bell._pauli_forms(psi)
    rng = np.random.default_rng(seed)
    for angles in rng.uniform(-2 * math.pi, 2 * math.pi, (20, 8)).tolist():
        for side in range(4):
            chi, phi = angles[2 * side], angles[2 * side + 1]
            if side < 2:
                expected = _contract(psi, chi, phi)
            else:
                expected = math.cos(chi), math.sin(chi) * complex(math.cos(phi), math.sin(phi))
            got = bell._share(forms, side, chi, phi)
            assert abs(got[0] - expected[0]) <= 1e-15
            assert abs(got[1] - expected[1]) <= 1e-15


def test_exact_moves_match_the_probe_refinement_at_its_fixed_points():
    # started from the oracle's own final angles, the probe refinement,
    # which shares no derivative with the Newton steps, finds nothing more
    # where it reaches its fixed point within 40 sweeps (largest difference
    # seen: 1.3e-15)
    compared = 0
    for s in [*_family_states(), *random_states(40, 7)]:
        psi = coefficient_matrix(embed(s))
        for grid_n in (8, 9, 24):
            oracle = oracle_bell_max(embed(s), grid_n)
            best, angles = _grid_stage(psi, grid_n, 40)
            assert best == oracle
            probe, probe_fixed = _probe_reference_oracle(psi, best, angles)
            if probe_fixed:
                compared += 1
                assert abs(oracle - probe) <= 1e-13
    assert compared >= 200
