import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nonortho import bell
from nonortho.bell import (MeasurementSetting, _best_pair, _bloch_vectors,
                           _chsh_value, _grid_constants, _grid_stage,
                           _new_workspace, _orbit_representatives, _pair_bounds,
                           _theta_entries, _workspace, analytic_bell,
                           bell_expectation, canonical_settings, oracle_bell_max,
                           spin_observable)
from nonortho.errors import DomainError
from nonortho.sampling import random_states
from nonortho.schmidt import coefficient_matrix, schmidt_decompose
from nonortho.state import embed, make_state, state_from_magnitudes
from nonortho.report import canonical_bell_value

from conftest import valid_states

SQ2 = 1.0 / math.sqrt(2.0)
E0 = np.array([1, 0], dtype=complex)
E1 = np.array([0, 1], dtype=complex)


def test_spin_observable_z_like():
    obs = spin_observable(MeasurementSetting(0.0, 0.0), E0, E1)
    assert np.allclose(obs, np.diag([1, -1]), atol=1e-15)


def test_spin_observable_x_like():
    obs = spin_observable(MeasurementSetting(math.pi / 2, 0.0), E0, E1)
    assert np.allclose(obs, [[0, 1], [1, 0]], atol=1e-15)


@given(valid_states())
def test_spin_observable_squares_to_identity(s):
    form = schmidt_decompose(s)
    setting = MeasurementSetting.canonical(0.7, -2.1)
    obs = spin_observable(setting, form.a_plus, form.a_minus)
    assert np.allclose(obs, obs.conj().T, atol=1e-14)
    assert np.allclose(obs @ obs, np.eye(2), atol=1e-12)


def test_canonical_wrap_equivalence():
    # Theta(-chi, phi) == Theta(chi, phi + pi) after wrapping
    raw = (-0.8, 0.4)
    wrapped = MeasurementSetting.canonical(*raw)
    assert wrapped.chi == pytest.approx(0.8)
    direct = spin_observable(MeasurementSetting(*raw), E0, E1)
    assert np.allclose(spin_observable(wrapped, E0, E1), direct, atol=1e-14)


def test_canonical_settings_balanced():
    form = schmidt_decompose(make_state(SQ2, -SQ2, 0, 0))
    st = canonical_settings(form)
    assert st.a.chi == 0.0
    assert st.a_prime.chi == pytest.approx(math.pi / 2)
    assert st.b.chi == pytest.approx(math.pi / 4)   # arccos(1/sqrt(2))
    assert st.b_prime.chi == pytest.approx(math.pi / 4)


def test_canonical_settings_product_state():
    form = schmidt_decompose(make_state(1, 0, 0.5, 0.3))
    st = canonical_settings(form)
    assert st.b.chi == pytest.approx(0.0, abs=1e-12)


def test_canonical_settings_frozen_example():
    # |c+|^2 = 0.9, |c-|^2 = 0.1 -> chi_B = arccos(1/sqrt(1.36))
    from nonortho.feasibility import mu_squared_solutions
    from nonortho.state import state_from_magnitudes
    (q,) = [r for r in mu_squared_solutions(0.0, 0.0, 1 - 0.36) if r > 0.5]
    s = state_from_magnitudes(q, 0.0, 0.0)
    form = schmidt_decompose(s)
    st = canonical_settings(form)
    assert st.b.chi == pytest.approx(0.54041950027058405, abs=1e-12)
    assert analytic_bell(form) == pytest.approx(2.3323807579381204, abs=1e-12)


def test_bell_expectation_singlet_canonical():
    s = make_state(SQ2, -SQ2, 0, 0)
    assert canonical_bell_value(s) == pytest.approx(2 * math.sqrt(2), abs=1e-12)


@given(valid_states())
@settings(max_examples=60)
def test_product_states_within_classical_bound(s):
    # any settings on a product state stay within [-2, 2]
    product = make_state(1, 0, s.x, s.y)
    settings_obj = canonical_settings(schmidt_decompose(s))
    value = bell_expectation(embed(product), settings_obj)
    assert -2.0 - 1e-12 <= value <= 2.0 + 1e-12


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
    psi = coefficient_matrix(embed(s))
    for grid_n in (8, 9):
        folded, angles = _grid_stage(psi, grid_n)
        full = _full_grid_best(psi, grid_n)
        if grid_n % 2 == 0:     # the antipode-closed grid is the grid itself
            assert abs(folded - full) <= 1e-14
        else:                   # a superset of the grid
            assert folded >= full - 1e-14
        # the mapped-back angles attain the folded best
        assert abs(_chsh_value(psi, angles) - folded) <= 1e-14


def test_oracle_early_stop_is_exact():
    # this state's refinement reaches its fixed point well before sweep 40
    v = embed(make_state(0.8, 0.6, 0.4, 0.2j, auto_normalize=True))
    assert oracle_bell_max(v, refine_iters=40) == oracle_bell_max(v, refine_iters=1000)


def test_orbit_representatives_count():
    # interior orbits: (n-2) n/2 for even n, (n-2) n for odd n; the poles add one
    for grid_n, count in ((8, 25), (9, 64), (24, 265)):
        assert len(_orbit_representatives(grid_n)[0]) == count


# --- pruned grid and one-side refinement against the unpruned references ----

def _grid_correlations(psi, grid_n):
    """Orbit settings and corr_t[s, r] = <Theta_r Theta_s>, as the grid stage has them."""
    chis, phis = _orbit_representatives(grid_n)
    obs = _theta_entries(chis, phis)
    contracted = np.einsum('ki,nkl,lj->nij', psi.conj(), obs, psi, optimize=True)
    corr_t = np.ascontiguousarray(
        np.einsum('nab,mab->mn', contracted, obs, optimize=True).real)
    return chis, phis, corr_t


def _fitted_tensor(corr_t, bloch):
    pinv = np.linalg.pinv(bloch)
    return pinv @ corr_t @ pinv.T


def _reference_scan(corr_t):
    """The unpruned row scan over every B pair i <= j."""
    best = -np.inf
    arg = (0, 0)
    for ib in range(len(corr_t)):
        row, tail = corr_t[ib], corr_t[ib:]
        totals = np.abs(tail + row).max(axis=1) + np.abs(row - tail).max(axis=1)
        offset = int(np.argmax(totals))
        if totals[offset] > best:
            best = float(totals[offset])
            arg = (ib, ib + offset)
    return best, arg


def _reference_grid_stage(psi, grid_n):
    """The grid stage with the unpruned scan, angles mapped back as in bell.py."""
    chis, phis, corr_t = _grid_correlations(psi, grid_n)
    best, (ib, ibp) = _reference_scan(corr_t)
    angles = []
    for combo in (corr_t[ib] + corr_t[ibp], corr_t[ib] - corr_t[ibp]):
        ia = int(np.argmax(np.abs(combo)))
        if combo[ia] >= 0.0:
            angles += [chis[ia], phis[ia]]
        else:
            angles += [math.pi - chis[ia], phis[ia] + math.pi]
    return best, np.array(angles + [chis[ib], phis[ib], chis[ibp], phis[ibp]])


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


def _pattern_move(value_at, current, angles, sweep_start):
    """The doubling pattern move along a sweep's displacement, or None at a fixed point."""
    displacement = [a - s for a, s in zip(angles, sweep_start)]
    if not any(displacement):
        return None
    scale = 1.0
    for _ in range(50):
        trial = [a + scale * d for a, d in zip(angles, displacement)]
        value = value_at(trial)
        if value > current:
            current, angles = value, trial
            scale *= 2.0
        else:
            break
    return current, angles


def _reference_oracle(psi, best, angles, refine_iters=40):
    """oracle_bell_max's refinement from grid stage (best, angles), every share recomputed.

    Returns the value and whether a sweep reached the fixed point.
    """
    forms, angles = bell._pauli_forms(psi.tolist()), angles.tolist()

    def shares(angles):
        return [bell._share(forms, side, angles[2 * side], angles[2 * side + 1])
                for side in range(4)]

    current = max(bell._combine(*shares(angles)), best)
    for _ in range(refine_iters):
        sweep_start = angles
        for k in range(8):
            side = k // 2
            v = bell._linear_form(forms, shares(angles), side)
            trial = angles.copy()
            trial[k] += bell._coordinate_offset(v, k, angles[2 * side], angles[2 * side + 1])
            value = bell._combine(*shares(trial))
            if value > current:
                current, angles = value, trial
        moved = _pattern_move(lambda trial: bell._combine(*shares(trial)),
                              current, angles, sweep_start)
        if moved is None:
            return current, True
        current, angles = moved
    return current, False


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
        moved = _pattern_move(lambda trial: _reference_chsh_value(psi, trial),
                              current, angles, sweep_start)
        if moved is None:
            return current, True
        current, angles = moved
    return current, False


def _assert_grid_exact(psi):
    """The grid stage, and the oracle refined from it, match the references bit for bit."""
    for grid_n in (8, 9, 24):
        best, angles = _grid_stage(psi, grid_n)
        ref_best, ref_angles = _reference_grid_stage(psi, grid_n)
        assert best == ref_best
        assert np.array_equal(angles, ref_angles)
        assert (oracle_bell_max(psi.ravel(), grid_n)
                == _reference_oracle(psi, ref_best, ref_angles)[0])


@given(valid_states())
@settings(max_examples=30, deadline=None)
def test_pruned_grid_is_bit_identical_on_random_states(s):
    _assert_grid_exact(coefficient_matrix(embed(s)))


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


def test_pruned_grid_is_bit_identical_on_families():
    for s in _family_states():
        _assert_grid_exact(coefficient_matrix(embed(s)))


def _all_totals(corr_t):
    """Exact totals of every pair i <= j, packed row-major: the tightest bounds."""
    return np.concatenate([np.abs(corr_t[ib:] + corr_t[ib]).max(axis=1)
                           + np.abs(corr_t[ib] - corr_t[ib:]).max(axis=1)
                           for ib in range(len(corr_t))])


def _packed_index(n, i, j):
    """Position of pair (i, j), i <= j, in the row-major packing of n orbits."""
    return i * n - i * (i - 1) // 2 + (j - i)


@pytest.mark.parametrize("chunk", [1, bell.PAIR_CHUNK])
def test_best_pair_is_exact_for_any_valid_bounds(chunk, monkeypatch):
    # any array at or above every total is a valid bound; these reorder the
    # candidates so that the smallest maximal pair is evaluated last, alone in
    # its chunk when chunk is 1, with a bound equal to the maximum
    monkeypatch.setattr(bell, "PAIR_CHUNK", chunk)
    for s in _family_states():
        psi = coefficient_matrix(embed(s))
        for grid_n in (8, 9):
            if chunk == 1 and grid_n == 9:
                continue        # 2080 pairs, one chunk each under the flat bound
            corr_t = _grid_correlations(psi, grid_n)[2]
            n, pairs = len(corr_t), _grid_constants(grid_n).pairs
            expected = _reference_scan(corr_t)
            tight = _all_totals(corr_t)
            ties = tight == expected[0]
            raised = tight + ties       # every maximal pair 1 above its total ...
            raised[_packed_index(n, *expected[1])] -= 1.0   # ... except the first
            flat = np.full_like(tight, expected[0] + 1.0)
            for bounds in (tight, raised, flat):
                assert _best_pair(corr_t, bounds, pairs, _workspace(n)) == expected


def test_pair_bounds_dominate_every_total():
    # near-product states have pairs with |T(n_i - n_j)| ~ 1e-8, where the
    # square root of the Gram form magnifies its rounding up to that size
    near_product = [make_state(0.6 + 0.3j, nu * (0.5 - 0.8j), x, y, auto_normalize=True)
                    for nu in (1e-16, 1e-12, 1e-10, 1e-8) for x, y in ((0.4, 0.3j), (0, 0))]
    pairs = _grid_constants(24).pairs
    for s in [*random_states(20, 11), *near_product]:
        chis, phis, corr_t = _grid_correlations(coefficient_matrix(embed(s)), 24)
        bloch = _bloch_vectors(chis, phis)
        bounds = _pair_bounds(corr_t, bloch, _fitted_tensor(corr_t, bloch), pairs,
                              _workspace(len(corr_t)))
        totals = _all_totals(corr_t)
        assert bounds.shape == totals.shape
        assert (bounds >= totals).all()


def test_pruning_stays_exact_with_a_wrong_tensor_or_noisy_correlations():
    rng = np.random.default_rng(5)
    states = list(random_states(5, 12)) + [make_state(SQ2, -SQ2, 0, 0)]
    pairs = _grid_constants(24).pairs
    for s in states:
        chis, phis, corr_t = _grid_correlations(coefficient_matrix(embed(s)), 24)
        bloch = _bloch_vectors(chis, phis)
        space = _workspace(len(corr_t))
        expected = _reference_scan(corr_t)
        tensor = _fitted_tensor(corr_t, bloch)
        for wrong in (0.9 * tensor, np.zeros((3, 3)), tensor + 0.05):
            bounds = _pair_bounds(corr_t, bloch, wrong, pairs, space)
            assert _best_pair(corr_t, bounds, pairs, space) == expected
        noisy = corr_t + rng.normal(0.0, 1e-3, corr_t.shape)
        bounds = _pair_bounds(noisy, bloch, _fitted_tensor(noisy, bloch), pairs, space)
        assert _best_pair(noisy, bounds, pairs, space) == _reference_scan(noisy)


def test_pair_bounds_are_tight_on_pure_states():
    # corr is exactly rank 3 in the Bloch vectors, so the fit leaves only
    # rounding, and on the maximally entangled state most pairs are pruned
    chis, phis, corr_t = _grid_correlations(
        coefficient_matrix(embed(make_state(SQ2, -SQ2, 0, 0))), 24)
    bloch = _bloch_vectors(chis, phis)
    obs = _theta_entries(chis, phis)        # Theta = n . sigma, read off its entries
    read_off = np.stack([obs[:, 0, 1].real, -obs[:, 0, 1].imag, obs[:, 0, 0].real], axis=1)
    assert np.abs(bloch - read_off).max() < 1e-15
    tensor = _fitted_tensor(corr_t, bloch)
    assert np.abs(bloch @ tensor @ bloch.T - corr_t).max() < 1e-13
    space = _workspace(len(corr_t))
    pairs = _grid_constants(24).pairs
    bounds = _pair_bounds(corr_t, bloch, tensor, pairs, space)
    best, _ = _best_pair(corr_t, bounds, pairs, space)
    assert (bounds >= best).sum() / len(pairs) < 0.2


def test_boundary_family_spans_several_chunks():
    # so that the families' bit-identity covers the chunked candidate loop
    grid = _grid_constants(24)
    space = _new_workspace(len(grid.chis), bell.PAIR_CHUNK)   # its bounds outlive a grid stage
    spans = []
    for s in _family_states():
        psi = coefficient_matrix(embed(s))
        corr_t = _grid_correlations(psi, 24)[2]
        bounds = _pair_bounds(corr_t, grid.bloch, grid.pinv @ corr_t @ grid.pinv.T,
                              grid.pairs, space)
        spans.append((bounds >= _grid_stage(psi, 24)[0]).sum())
    assert max(spans) > 4 * bell.PAIR_CHUNK


def test_grid_constants_are_cached_and_read_only():
    grid = _grid_constants(24)
    assert _grid_constants(24) is grid
    for array in (grid.chis, grid.phis, grid.obs, grid.bloch, grid.pinv):
        with pytest.raises(ValueError):
            array[0] = 0.0
    assert isinstance(grid.contract_path, tuple) and isinstance(grid.corr_path, tuple)
    # the pairs i <= j in row-major order, i.e. ascending flat index; they
    # stay writeable so that np.take uses them without a copy, and a grid
    # stage leaves them as built
    n = len(grid.chis)
    rows, cols = np.triu_indices(n)
    _grid_stage(coefficient_matrix(embed(_workspace_states()[1])), 24)
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


def test_workspace_layout_reuse_and_keys(monkeypatch):
    n = len(_grid_constants(24).chis)
    space = _workspace(n)
    assert _workspace(n) is space
    flat = space.scratch.base
    assert all(view.base is flat for view in space)
    pairs = n * (n + 1) // 2
    assert flat.size == max(2 * n * n, 3 * bell.PAIR_CHUNK * n) + n * n + 2 * pairs
    assert space.halves.shape == (2, pairs)
    # views that live at the same time never overlap
    assert not np.shares_memory(space.corr_t, space.halves)
    for name in ("product", "work", "rows", "tails", "both"):
        view = getattr(space, name)
        assert np.shares_memory(view, space.scratch), name
        assert not np.shares_memory(view, space.corr_t), name
        assert not np.shares_memory(view, space.halves), name
    for a, b in [("rows", "tails"), ("rows", "both"), ("tails", "both")]:
        assert not np.shares_memory(getattr(space, a), getattr(space, b)), (a, b)
    best, angles = _grid_stage(coefficient_matrix(embed(_workspace_states()[0])), 24)
    assert not np.shares_memory(angles, flat)
    # another thread gets its own workspace
    box = []
    worker = threading.Thread(target=lambda: box.append(_workspace(n)))
    worker.start()
    worker.join(timeout=60)
    assert not worker.is_alive() and len(box) == 1
    assert not np.shares_memory(box[0].scratch.base, flat)
    # a workspace sized for another chunk length is never reused
    monkeypatch.setattr(bell, "PAIR_CHUNK", 1)
    single = _workspace(n)
    assert single is not space and single.rows.shape == (1, n)
    monkeypatch.undo()
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


# --- exact coordinate moves --------------------------------------------------

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


# chi at the poles (sin chi = 0 exactly at 0), and with sin chi < 0
_SPECIAL_CHIS = (0.0, math.pi, -0.9, -2.5, 4.0)


@given(valid_states(), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=40, deadline=None)
def test_coordinate_moves_reach_the_offset_grid_maximum(s, seed):
    psi = coefficient_matrix(embed(s)).tolist()
    forms = bell._pauli_forms(psi)
    rng = np.random.default_rng(seed)
    rows = rng.uniform(-2 * math.pi, 2 * math.pi, (len(_SPECIAL_CHIS) + 3, 8))
    rows[:len(_SPECIAL_CHIS), 0::2] = np.array(_SPECIAL_CHIS)[:, None]
    offsets = (2 * math.pi / 64) * np.arange(64)
    for angles in rows.tolist():
        terms = [bell._share(forms, side, angles[2 * side], angles[2 * side + 1])
                 for side in range(4)]
        for k in range(8):
            side = k // 2
            chi, phi = angles[2 * side], angles[2 * side + 1]
            v = bell._linear_form(forms, terms, side)
            offset = bell._coordinate_offset(v, k, chi, phi)

            def value(t):
                moved = angles.copy()
                moved[k] += t
                return _reference_chsh_value(psi, moved)

            sampled = [value(t) for t in offsets]
            if k % 2 and math.sin(chi) == 0.0:
                assert offset == 0.0        # at a pole phi moves nothing
                assert max(sampled) == min(sampled)
            else:
                assert -math.pi < offset <= math.pi
                assert value(offset) >= max(sampled) - 1e-14


def test_exact_moves_match_the_probe_refinement_at_its_fixed_points():
    # where both refinements reach their fixed point within 40 sweeps they
    # agree (largest difference seen: 7.4e-14); the trajectories match only
    # in exact arithmetic, and on a near-maximal state one loop can still be
    # crawling along the flat direction when the other has stopped
    compared = 0
    for s in [*_family_states(), *random_states(40, 7)]:
        psi = coefficient_matrix(embed(s))
        for grid_n in (8, 9, 24):
            start = _grid_stage(psi, grid_n)
            probe, probe_fixed = _probe_reference_oracle(psi, *start)
            exact, exact_fixed = _reference_oracle(psi, *start)
            if probe_fixed and exact_fixed:
                compared += 1
                assert abs(exact - probe) <= 1e-13
    assert compared >= 200
