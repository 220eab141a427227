"""Closed forms of the report scalars, for one state or many at once.

The state components (mu, nu, x, y) may be numbers or numpy arrays, real or
complex.  Each formula has one body, written over a small table of
primitives that :func:`_primitives` picks once per call from the input
types.  When every input is a Python ``int``, ``float`` or ``complex``, a
numpy ``float64``/``complex128`` scalar (which subclass them) or a numpy
integer, the body runs in plain float arithmetic and returns plain
``float``s.  Anything else runs on numpy: arrays, and numpy scalars of
another precision (``float32``, ``complex64``, ``longdouble``), which numpy
computes in that precision.  A scalar call returns the bits that the array
call returns in that state's row:

- complex products are real arithmetic and squares are ``t * t``, since
  numpy's complex multiply and ``**`` round differently on arrays and
  scalars;
- ``hypot`` is ``abs(complex(re, im))``, the C ``hypot`` behind
  ``np.hypot`` (``math.hypot`` rounds differently), with inf where
  ``abs`` raises ``OverflowError``;
- ``sqrt`` is ``math.sqrt``, with NaN where it raises ``ValueError``;
- ``div`` is ``/``, with IEEE inf or NaN where it raises
  ``ZeroDivisionError``;
- ``clamp`` is :func:`_clamp_unit` and ``clip`` is ``min(max(v, 0), 1)``.
  They differ from numpy's only on a -0.0 argument, which none receives:
  each is a sum of squares, 1 minus a square, or a product of moduli;
- ``where`` is a conditional expression;
- ``log2`` and ``log1p`` stay numpy's, converted to ``float``: its SIMD
  logs round differently from ``math.log2`` and ``math.log1p``.

So a scalar call raises what the array call raises, and calls numpy only
for the entropy's two logs.  Callers add norm terms as ``a + b + c``, never
with ``sum()``, which compensates float sums on Python >= 3.12.
"""

from __future__ import annotations

import math
import operator
from typing import Callable, NamedTuple

import numpy as np

CLAMP_TOL = 1e-12   # rounding that _clamp_unit absorbs at the edges of [0, 1]
LN2 = math.log(2.0)


def _clamp_unit(value: float, what: str) -> float:
    """Clamp to [0, 1] against rounding within CLAMP_TOL; raise beyond it or on NaN."""
    if 0.0 <= value <= 1.0:
        return value
    if -CLAMP_TOL <= value < 0.0:
        return 0.0
    if 1.0 < value <= 1.0 + CLAMP_TOL:
        return 1.0
    raise ArithmeticError(f"{what} = {value} outside [0, 1] beyond tolerance")


def _clamp_units(values, what: str):
    """Elementwise :func:`_clamp_unit`: the first value beyond it raises there."""
    inside = (values >= -CLAMP_TOL) & (values <= 1.0 + CLAMP_TOL)
    if not inside.all():
        _clamp_unit(float(np.ravel(values)[np.argmin(inside)]), what)
    return np.minimum(np.maximum(values, 0.0), 1.0)


def _hypot(re: float, im: float) -> float:
    try:
        return abs(complex(re, im))
    except OverflowError:   # finite parts whose modulus exceeds the largest float
        return math.inf


def _sqrt(value: float) -> float:
    return math.sqrt(value) if value >= 0.0 else math.nan


def _div(num: float, den: float) -> float:
    try:
        return num / den
    except ZeroDivisionError:
        return num * math.copysign(math.inf, den) if num else math.nan


class _Primitives(NamedTuple):
    hypot: Callable
    sqrt: Callable
    div: Callable
    clamp: Callable   # into [0, 1] within CLAMP_TOL, raising beyond
    clip: Callable    # into [0, 1]
    where: Callable
    log2: Callable
    log1p: Callable


_FLOAT = _Primitives(_hypot, _sqrt, _div, _clamp_unit,
                     lambda v: min(max(v, 0.0), 1.0),
                     lambda cond, a, b: a if cond else b,
                     lambda v: float(np.log2(v)), lambda v: float(np.log1p(v)))
_NUMPY = _Primitives(np.hypot, np.sqrt, operator.truediv, _clamp_units,
                     lambda v: np.minimum(np.maximum(v, 0.0), 1.0),
                     np.where, np.log2, np.log1p)
_NUMBER = (complex, float, int, np.integer)   # complex first: state components are complex


def _primitives(*values) -> _Primitives:
    """Plain-float primitives when every value is a number, numpy's otherwise."""
    for value in values:
        if not isinstance(value, _NUMBER):
            return _NUMPY
    return _FLOAT


def _abs_sq(hypot, re, im):
    m = hypot(re, im)
    return m * m


def _norm_terms(mu, nu, x, y):
    """|mu N_B|^2, |nu N_A|^2 and |mu x + nu y|^2: the embedded components' squared moduli."""
    hypot = _primitives(mu, nu, x, y).hypot
    cross_re = (mu.real * x.real - mu.imag * x.imag) + (nu.real * y.real - nu.imag * y.imag)
    cross_im = (mu.real * x.imag + mu.imag * x.real) + (nu.real * y.imag + nu.imag * y.real)
    return (_abs_sq(hypot, mu.real, mu.imag) * (1.0 - _abs_sq(hypot, x.real, x.imag)),
            _abs_sq(hypot, nu.real, nu.imag) * (1.0 - _abs_sq(hypot, y.real, y.imag)),
            _abs_sq(hypot, cross_re, cross_im))


def entropy_bits(concurrence):
    """Entropy in bits from the concurrence: h(lambda_minus) (Wootters).

    h(z) = -z log2 z - (1 - z) log2 (1 - z), with h(0) = 0, at the smaller
    Schmidt eigenvalue lambda_minus = (1 - sqrt(1 - C^2))/2, evaluated as
    C^2 / (2 (1 + sqrt(1 - C^2))) and with log2(1 - z) = log1p(-z)/ln 2, so
    that neither cancels near product states, where C and E tend to 0.
    """
    p = _primitives(concurrence)
    c_sq = concurrence * concurrence
    lam = c_sq / (2.0 * (1.0 + p.sqrt(p.clip(1.0 - c_sq))))
    inner = lam > 0.0
    li = p.where(inner, lam, 0.5)
    return p.where(inner, -li * p.log2(li) - (1.0 - li) * (p.log1p(-li) / LN2), 0.0)


def report_scalars(mu, nu, x, y):
    """(lambda_plus, lambda_minus, bell_analytic, d, concurrence, entropy_bits).

    With a, b, c the norm terms and n = a + b + c, the deviation is the
    eigenvalue radicand, a sum of nonnegative terms that keeps its relative
    accuracy as d -> 0:  d = 1 - 4ab/n^2 = ((a-b)^2 + c(2(a+b)+c)) / n^2.
    Then lambda_pm = (1 +- sqrt(d))/2, with lambda_minus = 2ab/(n^2(1 +
    sqrt(d))) accurate near product states, Bell = 2 sqrt(2 - d) and
    C = 2|mu nu| N_A N_B.  The direct radicand 1 - C^2 is checked too, as
    it leaves [0, 1] for an unnormalized state.  Radicands are clamped when
    rounding pushes them outside [0, 1] by less than CLAMP_TOL.
    """
    p = _primitives(mu, nu, x, y)
    mu_nu = p.hypot(mu.real * nu.real - mu.imag * nu.imag,
                    mu.real * nu.imag + mu.imag * nu.real)
    conc = (2.0 * mu_nu * p.sqrt(1.0 - _abs_sq(p.hypot, y.real, y.imag))
            * p.sqrt(1.0 - _abs_sq(p.hypot, x.real, x.imag)))
    p.clamp(1.0 - conc * conc, "schmidt eigenvalue radicand")
    a, b, c = _norm_terms(mu, nu, x, y)
    n = a + b + c
    n_sq = n * n
    a_b = a - b
    # n_sq = 0 only for a zero state; d is then NaN or inf, and the clamp raises
    d = p.clamp(p.div(a_b * a_b + c * (2.0 * (a + b) + c), n_sq),
                "schmidt eigenvalue radicand")
    root = p.sqrt(d)
    conc = p.clip(conc)
    return (0.5 + 0.5 * root, 2.0 * a * b / (n_sq * (1.0 + root)),
            2.0 * p.sqrt(2.0 - d), d, conc, entropy_bits(conc))
