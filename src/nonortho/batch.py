"""Sweep rows in blocks: canonical states and report scalars for many rows.

:func:`_states` evaluates :func:`state.state_from_magnitudes` (with
``make_state``'s ``auto_normalize`` rule) elementwise over arrays, in the
same order of operations, and :func:`closed_forms.report_scalars` takes the
resulting arrays, so each row carries the bits of ``analyze_state`` on the
same state.
"""

from __future__ import annotations

import math
from typing import Iterator, Sequence

import numpy as np

from .closed_forms import report_scalars
from .errors import NonorthoError
from .state import NORM_TOL, _norm_sq, state_from_magnitudes

BLOCK_ROWS = 4096   # rows per evaluated block; bounds a sweep's temporaries


def wrap_angles(angle: np.ndarray) -> np.ndarray:
    """Array form of :func:`state.wrap_angle`: wrap to (-pi, pi]."""
    with np.errstate(invalid="ignore"):   # a non-finite angle wraps to NaN
        r = np.remainder(angle + math.pi, 2.0 * math.pi)
    return np.where(r == 0.0, math.pi, r - math.pi)


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


def grid_rows(values: np.ndarray, run: int, start: int, stop: int) -> np.ndarray:
    """Rows ``start`` to ``stop`` of a row-major meshgrid column.

    Row r holds ``values[..., (r // run) % n]``, n values along the last
    axis: each value for ``run`` rows in turn, cyclically.  On the k-th of a
    meshgrid's axes, ``run`` is the product of the later axes' lengths; a
    fixed parameter is one value.  A 2-D ``values`` holds one value per
    column (a sweep's CSV fields), laid out the same way.  The cycle is an
    explicit remainder: ``take``'s mode="wrap" subtracts n from an index
    until it is in range, a cost that grows with the row number.
    """
    return values.take(np.arange(start, stop) // run % values.shape[-1], axis=-1)


def sweep_blocks(columns: Sequence[tuple[np.ndarray, int]],
                 rows: int) -> Iterator[tuple[list, ...]]:
    """The six report-scalar columns of a sweep's ``rows`` rows, BLOCK_ROWS at a time.

    ``columns`` gives mu_sq, x_abs, y_abs and eta, in that order, as
    (values, run) pairs laid out by :func:`grid_rows`, with eta already
    wrapped to (-pi, pi] by :func:`wrap_angles`; only one block's rows are
    ever laid out.  Each block is a tuple of six float64 arrays, the
    ``report.CSV_COLUMNS`` from ``lambda_plus`` on.  Every row is checked,
    and the first row the scalar path rejects raises that path's error type,
    with the message ``row {idx}: ... (params {...})``.
    """
    for start in range(0, rows, BLOCK_ROWS):
        stop = min(start + BLOCK_ROWS, rows)
        block = [grid_rows(values, run, start, stop) for values, run in columns]
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
        yield report_scalars(*state)
