"""Array core of the sweep: canonical states and report scalars for many rows.

Each function evaluates, elementwise over arrays, the same closed forms as
the scalar pipeline (:func:`state.state_from_magnitudes`, ``make_state``
with ``auto_normalize``, :func:`schmidt.schmidt_eigenvalues`,
:func:`measures.concurrence_det` and :func:`measures.entanglement_entropy`),
in the same order of operations.  Every complex magnitude is
``np.hypot(z.real, z.imag)``: CPython's ``abs(complex)`` is the C library's
``hypot``, which ``np.abs`` on complex arrays does not always match in the
last bit.

d and the analytic Bell value come from the Schmidt magnitudes
s_+ = sqrt(top eigenvalue of psi^dag psi) and s_- = |det psi| / s_+, without
the scalar route's phase round trip through the Schmidt coefficients, so
they can differ from :func:`analyze_state` in the last bit.
"""

from __future__ import annotations

import math
from typing import Iterator

import numpy as np

from .errors import NonorthoError
from .schmidt import CLAMP_TOL, _clamp_unit
from .state import NORM_TOL, state_from_magnitudes

BLOCK_ROWS = 4096   # rows per evaluated block; bounds a sweep's temporaries


def wrap_angles(angle: np.ndarray) -> np.ndarray:
    """Array form of :func:`state.wrap_angle`: wrap to (-pi, pi]."""
    with np.errstate(invalid="ignore"):   # a non-finite angle wraps to NaN
        r = np.remainder(angle + math.pi, 2.0 * math.pi)
    return np.where(r == 0.0, math.pi, r - math.pi)


def _norm_terms(mu, nu, x, y):
    """``state._norm_terms`` for real mu, x, y and complex nu."""
    cross_re = mu * x + nu.real * y
    return (mu * mu * (1.0 - x * x), np.hypot(nu.real, nu.imag) ** 2 * (1.0 - y * y),
            np.hypot(cross_re, nu.imag * y) ** 2)


def _norm_sq(mu, nu, x, y):
    return sum(_norm_terms(mu, nu, x, y))


def _states(mu_sq: np.ndarray, x: np.ndarray, y: np.ndarray, eta: np.ndarray):
    """Canonical states of :func:`state.state_from_magnitudes`, row by row.

    Returns (mu, nu, x, y, ok): mu, x and y real, nu complex, normalized by
    the rule of ``make_state(auto_normalize=True)``; ``ok`` is False on the
    rows the scalar path rejects.
    """
    with np.errstate(all="ignore"):
        cos_eta = np.cos(eta)
        mu = np.sqrt(mu_sq)
        s = mu * x * y * cos_eta
        radicand = 1.0 - mu_sq + s * s
        nu_mag = np.sqrt(np.maximum(radicand, 0.0)) - s
        nu = np.maximum(nu_mag, 0.0) * (cos_eta - 1j * np.sin(eta))
        # make_state's 1e-100/1e100 rescale cannot apply: every row that passes
        # the radicand check below has 0.3 < max(|mu|, |nu|) < 1e8
        scale = 1.0 / np.sqrt(_norm_sq(mu, nu, x, y))
        mu = mu * scale
        nu = nu * scale
        # the residual is NaN for a non-finite or zero state, so it flags those too
        ok = ((mu_sq >= 0.0) & (0.0 <= x) & (x < 1.0) & (0.0 <= y) & (y < 1.0)
              & (radicand >= -NORM_TOL) & (nu_mag >= -NORM_TOL)
              & (np.abs(_norm_sq(mu, nu, x, y) - 1.0) <= NORM_TOL))
    return mu, nu, x, y, ok


def _clamp_units(values: np.ndarray, what: str) -> np.ndarray:
    """Array form of ``schmidt._clamp_unit``: the first value beyond it raises there."""
    inside = (values >= -CLAMP_TOL) & (values <= 1.0 + CLAMP_TOL)
    if not inside.all():
        _clamp_unit(float(values[np.argmin(inside)]), what)
    return np.clip(values, 0.0, 1.0)


def report_scalars(mu: np.ndarray, nu: np.ndarray, x: np.ndarray, y: np.ndarray):
    """(lambda_plus, lambda_minus, bell_analytic, d, concurrence, entropy_bits).

    lambda_pm use the closed form of :func:`schmidt.schmidt_eigenvalues`.
    s_+ is the square root of the top eigenvalue of psi^dag psi by the hypot
    formula of :func:`schmidt.eigh_2x2`, and s_- = min(|mu nu| N_A N_B / s_+, s_+).
    """
    n_a = np.sqrt(1.0 - y * y)
    n_b = np.sqrt(1.0 - x * x)
    mu_nu = np.hypot(mu * nu.real, mu * nu.imag)
    det = mu_nu * n_a * n_b
    _clamp_units(1.0 - 4.0 * det * det, "schmidt eigenvalue radicand")
    a, b, c = _norm_terms(mu, nu, x, y)
    n_sq = (a + b + c) ** 2
    root = np.sqrt(_clamp_units(((a - b) ** 2 + c * (2.0 * (a + b) + c)) / n_sq,
                                "schmidt eigenvalue radicand"))
    lambda_plus = 0.5 + 0.5 * root
    lambda_minus = 2.0 * a * b / (n_sq * (1.0 + root))

    # psi = [[0, nu N_A], [mu N_B, mu x + nu y]]; h = psi^dag psi
    p = mu * n_b
    q_re, q_im = nu.real * n_a, nu.imag * n_a
    r_re, r_im = mu * x + nu.real * y, nu.imag * y
    h00 = p * p
    h11 = (q_re * q_re + q_im * q_im) + (r_re * r_re + r_im * r_im)
    h01 = np.hypot(p * r_re, p * r_im)
    top = 0.5 * (h00 + h11) + np.hypot(0.5 * (h00 - h11), h01)
    s_plus = np.sqrt(_clamp_units(top, "lambda_plus"))
    s_minus = np.minimum(det / s_plus, s_plus)
    k_sq = (2.0 * s_plus * s_minus) ** 2
    d = _clamp_units(1.0 - k_sq, "deviation")
    bell = 2.0 * np.sqrt(1.0 + k_sq)

    conc = np.clip(2.0 * mu_nu * n_a * n_b, 0.0, 1.0)
    z = 0.5 * (1.0 + np.sqrt(np.maximum(1.0 - conc * conc, 0.0)))
    inner = (z > 0.0) & (z < 1.0)
    zi = np.where(inner, z, 0.5)
    entropy = np.where(inner, -zi * np.log2(zi) - (1.0 - zi) * np.log2(1.0 - zi), 0.0)
    return lambda_plus, lambda_minus, bell, d, conc, entropy


def sweep_blocks(mu_sq: np.ndarray, x_abs: np.ndarray, y_abs: np.ndarray,
                 eta: np.ndarray) -> Iterator[Iterator[tuple]]:
    """Report rows of a sweep, BLOCK_ROWS at a time.

    Each block is an iterator of row tuples in ``report.CSV_COLUMNS`` order,
    with eta wrapped to (-pi, pi].  The first row the scalar path rejects
    raises that path's error type, with the message
    ``row {idx}: ... (params {...})``.
    """
    n = len(mu_sq)
    for start in range(0, n, BLOCK_ROWS):
        block = [a[start:start + BLOCK_ROWS] for a in (mu_sq, x_abs, y_abs, eta)]
        block[3] = wrap_angles(block[3])
        *state, ok = _states(*block)
        if not ok.all():
            # the scalar path raises this row's error with its own message
            row = int(np.argmin(ok))
            params = dict(zip(("mu_sq", "x_abs", "y_abs", "eta"),
                              (float(a[row]) for a in block)))
            try:
                state_from_magnitudes(*params.values())
            except NonorthoError as exc:
                raise type(exc)(f"row {start + row}: {exc} (params {params})") from exc
            raise ArithmeticError(f"row {start + row}: the batched checks reject a "
                                  "state the scalar path accepts")
        columns = (*block, *report_scalars(*state))
        yield zip(*(c.tolist() for c in columns))
