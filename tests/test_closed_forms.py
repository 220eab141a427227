"""The closed forms of the report scalars: one implementation for numbers and arrays."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nonortho.closed_forms import report_scalars
from nonortho.report import analyze_state
from nonortho.sampling import random_states
from nonortho.state import state_from_magnitudes

from conftest import valid_states


def bits(values):
    return np.array([float(v) for v in values]).view(np.uint64).tolist()


def assert_scalar_calls_match_array_call(states):
    columns = report_scalars(*(np.array([getattr(s, k) for s in states])
                               for k in ("mu", "nu", "x", "y")))
    for i, s in enumerate(states):
        assert bits(report_scalars(s.mu, s.nu, s.x, s.y)) == bits(c[i] for c in columns), s


def test_scalar_and_array_calls_are_bit_identical():
    assert_scalar_calls_match_array_call(list(random_states(1000, 20261018)))


@settings(max_examples=50, deadline=None)
@given(st.lists(valid_states(), min_size=1, max_size=20))
def test_scalar_and_array_calls_are_bit_identical_on_drawn_states(states):
    assert_scalar_calls_match_array_call(states)


@pytest.mark.parametrize("t", [0.1, 0.3, 0.5, 0.7])
def test_deviation_against_high_precision_near_maximal_violation(t):
    """On the |x| = |y|, eta = pi family at q0 (1 + delta), d -> 0 as delta^2.

    The reference is 1 - 4ab / (a + b + c)^2 in 50 digits on the same double
    state, so it measures the arithmetic of d, not the rounding of the state.
    """
    mp = pytest.importorskip("mpmath")
    q0 = 1.0 / (2.0 * (1.0 - t * t))
    for delta in (1e-3, 1e-5, 1e-7, 1e-9):
        s = state_from_magnitudes(q0 * (1.0 + delta), t, t, math.pi)
        rep = analyze_state(s, with_feasibility=False)
        with mp.workdps(50):
            mu, nu, x, y = (mp.mpc(v.real, v.imag) for v in (s.mu, s.nu, s.x, s.y))
            a = abs(mu) ** 2 * (1 - abs(x) ** 2)
            b = abs(nu) ** 2 * (1 - abs(y) ** 2)
            c = abs(mu * x + nu * y) ** 2
            d_ref = 1 - 4 * a * b / (a + b + c) ** 2
            bell_ref = 2 * mp.sqrt(2 - d_ref)
            assert 0 < d_ref < 1e-4
            assert abs(rep.d - d_ref) <= 1e-6 * d_ref, (t, delta, rep.d, d_ref)
            assert abs(rep.bell_analytic - bell_ref) <= 1e-15 * bell_ref, (t, delta)


def _entropy_states():
    for e in range(6, 19):                      # near-product: E ~ q down to 5e-17
        yield state_from_magnitudes(10.0 ** -e, 0.3, 0.2, 2.0)
    for t in (0.1, 0.3, 0.5, 0.7):              # |x| = |y|, eta = pi: E -> 1
        q0 = 1.0 / (2.0 * (1.0 - t * t))
        for delta in (0.0, 1e-7, 1e-3, -0.03):
            yield state_from_magnitudes(q0 * (1.0 + delta), t, t, math.pi)


def test_entropy_against_high_precision():
    """E = h(lambda_minus) against 50 digits on the same double state.

    The reference takes C = 2|mu nu| N_A N_B and lambda_minus =
    (1 - sqrt(1 - C^2))/2 in 50 digits, so it measures the arithmetic of E.
    """
    mp = pytest.importorskip("mpmath")
    for s in _entropy_states():
        got = analyze_state(s, with_feasibility=False).entropy_bits
        with mp.workdps(50):
            mu, nu, x, y = (mp.mpc(v.real, v.imag) for v in (s.mu, s.nu, s.x, s.y))
            conc = 2 * abs(mu * nu) * mp.sqrt(1 - abs(x) ** 2) * mp.sqrt(1 - abs(y) ** 2)
            lam = (1 - mp.sqrt(max(0, 1 - conc * conc))) / 2   # the report clamps C <= 1
            ref = -lam * mp.log(lam, 2) - (1 - lam) * mp.log(1 - lam, 2)
            assert abs(got - ref) <= max(1e-14 * ref, 1e-300), (s, got, ref)
