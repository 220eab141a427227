import math

import numpy as np
import pytest
from hypothesis import given, settings

from nonortho.bell import (MeasurementSetting, _chsh_value, _grid_stage,
                           _orbit_representatives, _theta_entries,
                           analytic_bell, bell_expectation, canonical_settings,
                           oracle_bell_max, spin_observable)
from nonortho.schmidt import coefficient_matrix, schmidt_decompose
from nonortho.state import embed, make_state
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
    with pytest.raises(ValueError):
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
