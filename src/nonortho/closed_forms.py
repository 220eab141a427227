"""Closed forms of the report scalars, for one state or many at once.

The state components (mu, nu, x, y) may be Python numbers or numpy arrays,
real or complex.  A call on one state's numbers returns the bits that the
array call returns in that state's row: complex products are real
arithmetic and squares are ``t * t``, since numpy's complex multiply and
``**`` round differently on arrays and scalars.  Magnitudes are
``np.hypot``, the C ``hypot`` behind CPython's ``abs(complex)``.  Scalar
calls return numpy scalars or 0-d arrays; ``float()`` makes them printable.
"""

from __future__ import annotations

import math

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


def _abs_sq(re, im):
    m = np.hypot(re, im)
    return m * m


def _norm_terms(mu, nu, x, y):
    """|mu N_B|^2, |nu N_A|^2 and |mu x + nu y|^2: the embedded components' squared moduli."""
    cross_re = (mu.real * x.real - mu.imag * x.imag) + (nu.real * y.real - nu.imag * y.imag)
    cross_im = (mu.real * x.imag + mu.imag * x.real) + (nu.real * y.imag + nu.imag * y.real)
    return (_abs_sq(mu.real, mu.imag) * (1.0 - _abs_sq(x.real, x.imag)),
            _abs_sq(nu.real, nu.imag) * (1.0 - _abs_sq(y.real, y.imag)),
            _abs_sq(cross_re, cross_im))


def entropy_bits(concurrence):
    """Entropy in bits from the concurrence: h(lambda_minus) (Wootters).

    h(z) = -z log2 z - (1 - z) log2 (1 - z), with h(0) = 0, at the smaller
    Schmidt eigenvalue lambda_minus = (1 - sqrt(1 - C^2))/2, evaluated as
    C^2 / (2 (1 + sqrt(1 - C^2))) and with log2(1 - z) = log1p(-z)/ln 2, so
    that neither cancels near product states, where C and E tend to 0.
    """
    c_sq = concurrence * concurrence
    lam = c_sq / (2.0 * (1.0 + np.sqrt(np.maximum(1.0 - c_sq, 0.0))))
    inner = lam > 0.0
    li = np.where(inner, lam, 0.5)
    return np.where(inner, -li * np.log2(li) - (1.0 - li) * (np.log1p(-li) / LN2), 0.0)


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
    mu_nu = np.hypot(mu.real * nu.real - mu.imag * nu.imag,
                     mu.real * nu.imag + mu.imag * nu.real)
    conc = (2.0 * mu_nu * np.sqrt(1.0 - _abs_sq(y.real, y.imag))
            * np.sqrt(1.0 - _abs_sq(x.real, x.imag)))
    _clamp_units(1.0 - conc * conc, "schmidt eigenvalue radicand")
    a, b, c = _norm_terms(mu, nu, x, y)
    n = a + b + c
    n_sq = n * n
    a_b = a - b
    d = _clamp_units((a_b * a_b + c * (2.0 * (a + b) + c)) / n_sq,
                     "schmidt eigenvalue radicand")
    root = np.sqrt(d)
    conc = np.minimum(np.maximum(conc, 0.0), 1.0)
    return (0.5 + 0.5 * root, 2.0 * a * b / (n_sq * (1.0 + root)),
            2.0 * np.sqrt(2.0 - d), d, conc, entropy_bits(conc))
