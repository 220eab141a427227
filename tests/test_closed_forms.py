"""The closed forms of the report scalars: one implementation for numbers and arrays."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nonortho.closed_forms import report_scalars
from nonortho.report import analyze_state
from nonortho.sampling import random_states
from nonortho.state import make_state, state_from_magnitudes

from conftest import valid_states


def bits(values):
    return np.array([float(v) for v in values]).view(np.uint64).tolist()


def components(s):
    return s.mu, s.nu, s.x, s.y


def one_row_call(row):
    with np.errstate(all="ignore"):
        return [c[0] for c in report_scalars(*(np.array([v]) for v in row))]


def assert_scalar_calls_match_array_call(rows):
    """Each row's scalar call returns plain floats with the bits of its row in
    the stacked array call and of its one-row array call."""
    columns = report_scalars(*(np.array(column) for column in zip(*rows)))
    for i, row in enumerate(rows):
        got = report_scalars(*row)
        assert all(type(v) is float for v in got), (row, got)
        assert bits(got) == bits(c[i] for c in columns) == bits(one_row_call(row)), row


def test_scalar_and_array_calls_are_bit_identical():
    assert_scalar_calls_match_array_call([components(s)
                                          for s in random_states(1000, 20261018)])


@settings(max_examples=50, deadline=None)
@given(st.lists(valid_states(), min_size=1, max_size=20))
def test_scalar_and_array_calls_are_bit_identical_on_drawn_states(states):
    assert_scalar_calls_match_array_call([components(s) for s in states])


def _hard_regime_states():
    for e in range(1, 9):                       # near-product: |nu| down to 1e-8 |mu|
        yield make_state(0.6 + 0.8j, 10.0 ** -e * (0.3 - 0.4j), 0.3 + 0.1j, 0.5 - 0.2j,
                         auto_normalize=True)
    for t in (0.1, 0.3, 0.5, 0.7):              # |x| = |y|, eta = pi, at q0 (1 + delta)
        q0 = 1.0 / (2.0 * (1.0 - t * t))
        for delta in (0.0, 1e-9, 1e-7, 1e-5, 1e-3, -0.03):
            yield state_from_magnitudes(q0 * (1.0 + delta), t, t, math.pi)
    for e in (3, 6, 9, 12):                     # overlaps up to 1 - 1e-12
        for eta in (0.5, 2.0, math.pi):
            yield state_from_magnitudes(0.4, 1.0 - 10.0 ** -e, 0.5, eta)
            yield state_from_magnitudes(0.4, 1.0 - 10.0 ** -e, 1.0 - 10.0 ** -e, eta)
    yield make_state(0.6, 0.8j, 0, 0)           # exact OO and ON zeros, -0.0 parts
    yield make_state(0.6, -0.8, 0.3j, 0)
    yield make_state(complex(0.6, -0.0), complex(-0.0, 0.8), complex(-0.0, -0.0),
                     complex(0.3, -0.0), auto_normalize=True)
    yield make_state(1, 0, 0.5, 0.5j)


def test_scalar_and_array_calls_are_bit_identical_in_hard_regimes():
    states = list(_hard_regime_states())
    assert_scalar_calls_match_array_call([components(s) for s in states])
    # numpy float64/complex128 scalars take the float path too
    assert_scalar_calls_match_array_call([tuple(map(np.complex128, components(s)))
                                          for s in states])
    assert_scalar_calls_match_array_call([(s.mu.real, s.nu, s.x.real, s.y.real) for s in states
                                          if s.mu.imag == s.x.imag == s.y.imag == 0.0])
    assert_scalar_calls_match_array_call([(np.float64(s.mu.real), s.nu, np.float64(s.x.real),
                                           s.y) for s in states if s.mu.imag == 0.0])


def test_int_inputs_match_array_call():
    rows = [(1, 0, 0, 0), (0, -1, 0, 0), (1, 0, 0, 0.5j), (0, 1, 0.25, 0), (True, 0, 0, 0)]
    assert_scalar_calls_match_array_call(rows)
    assert_scalar_calls_match_array_call([tuple(np.int64(v) if type(v) is int else v
                                                for v in row) for row in rows])


def _outcome(call, *args):
    try:
        return bits(call(*args))
    except Exception as exc:            # the exception is the outcome
        return type(exc), str(exc)


def _bad_rows():
    base = (0.6 + 0.1j, 0.3 - 0.7j, 0.3 + 0.2j, 0.4 - 0.1j)
    for k in range(4):
        for bad in (math.nan, math.inf, -math.inf, complex(0.1, math.nan),
                    complex(math.inf, -math.inf), 1.5e308, complex(1.5e308, 1.5e308)):
            yield base[:k] + (bad,) + base[k + 1:]
    for k in (2, 3):                    # |x| >= 1 or |y| >= 1
        for bad in (1.0, -1.0j, 1.0 + 1e-12, 1.5, 0.8 + 0.8j):
            yield base[:k] + (bad,) + base[k + 1:]
    s = state_from_magnitudes(0.4, 0.3, 0.5, 2.0)
    for scale in (1.5, 1.0 / 1.5, 1e160, 1e-160):
        yield (s.mu * scale, s.nu * scale, s.x, s.y)
    yield (0j, 0j, s.x, s.y)
    yield (0.0, 0, 0.0, 0.0)
    yield (1e-170, 1e-170j, 0.0, 0.0)


def test_scalar_calls_raise_what_the_array_call_raises():
    """Invalid input makes a scalar call raise the exception of its one-row array call."""
    raised = 0
    for row in _bad_rows():
        want = _outcome(one_row_call, row)
        assert _outcome(report_scalars, *row) == want, row
        raised += isinstance(want[0], type)
    assert raised >= 30


def test_scalar_calls_use_numpy_only_for_the_logs(monkeypatch):
    """The per-state path runs in plain floats: numpy only for the entropy's logs."""
    calls = []

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    for name, fn in list(vars(np).items()):     # vars(): no lazy submodule imports
        if callable(fn) and not isinstance(fn, type) or name == "errstate":
            monkeypatch.setattr(np, name, counting(name, fn))
    s = state_from_magnitudes(0.4, 0.3, 0.5, 2.0)
    calls.clear()
    got = report_scalars(*components(s))
    assert set(calls) <= {"log2", "log1p"}, calls
    calls.clear()
    make_state(*components(s))
    rescaled = make_state(2.0 * s.mu, 2.0 * s.nu, s.x, s.y, auto_normalize=True)
    assert calls == []
    # a numpy primitive bound at import time escapes the count but not the types
    assert all(type(v) is float for v in got)
    assert all(type(v) is complex for v in components(rescaled))


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
