"""The batched sweep core against the scalar pipeline it replaces, row by row."""

import contextlib
import csv
import io
import math
import re

import numpy as np
import pytest

from nonortho import batch, closed_forms
from nonortho.cli import SWEEP_DEFAULTS, main
from nonortho.closed_forms import _clamp_unit
from nonortho.errors import DomainError, LinearDependence, NonorthoError
from nonortho.report import CSV_COLUMNS, analyze_state
from nonortho.state import state_from_magnitudes, wrap_angle

# The five sweep shapes of the benchmark's sweep workload (swept axes with
# their steps, fixed parameters), with ranges drawn the same way.
SWEEP_SHAPES = (
    ("oo", (("mu_sq", 40), ("eta", 24)), ("x_abs", "y_abs")),
    ("on", (("x_abs", 40), ("mu_sq", 24)), ("y_abs",)),
    ("nn-3axis", (("x_abs", 8), ("y_abs", 8), ("eta", 5)), ("mu_sq",)),
    ("nn-amp", (("mu_sq", 16), ("y_abs", 20)), ("x_abs", "eta")),
    ("nn-phase", (("eta", 20), ("x_abs", 16)), ("mu_sq", "y_abs")),
)


def _sweep_range(rng, name):
    if name == "mu_sq":
        return rng.uniform(0.0, 0.1), rng.uniform(0.9, 1.0)
    if name == "eta":
        lo = rng.uniform(-math.pi, 0.0)
        return lo, lo + 2.0 * math.pi
    return rng.uniform(0.0, 0.05), rng.uniform(0.85, 0.95)


def _sweep_fixed(rng, kind, name):
    if kind == "oo" or (kind == "on" and name == "y_abs"):
        return 0.0
    if name == "mu_sq":
        return rng.uniform(0.05, 0.95)
    if name == "eta":
        return rng.uniform(-math.pi, math.pi)
    return rng.uniform(0.05, 0.95)


def shape_specs(seed):
    rng = np.random.default_rng(seed)
    for kind, axes, fixed in SWEEP_SHAPES:
        sweeps = [(name, *_sweep_range(rng, name), steps) for name, steps in axes]
        yield sweeps, {name: _sweep_fixed(rng, kind, name) for name in fixed}


EDGE_SPECS = [
    ([("mu_sq", 0.0, 1.0, 41), ("eta", -math.pi, math.pi, 9)], {"x_abs": 0.999, "y_abs": 0.5}),
    ([("x_abs", 0.0, 0.999, 30), ("y_abs", 0.999, 0.0, 7)], {"mu_sq": 1.0, "eta": math.pi}),
    ([("y_abs", 0.9, 0.999, 25), ("mu_sq", 1.0, 0.0, 11)], {"x_abs": 0.999, "eta": -math.pi}),
    ([("eta", math.pi, -math.pi, 13)], {"mu_sq": 0.0, "x_abs": 0.999, "y_abs": 0.999}),
]

# the CLI lays out each parameter's text per block: flag order unlike column
# order, a sweep whose parameter runs cross a block boundary, and fixed etas
# that wrap (-pi to pi, the others from outside (-pi, pi])
LAYOUT_SPECS = [
    ([("eta", -3.0, 3.0, 5), ("mu_sq", 0.05, 0.95, 4), ("y_abs", 0.0, 0.9, 3)],
     {"x_abs": 0.7}),
    ([("y_abs", 0.9, 0.0, 9), ("eta", -math.pi, math.pi, 8), ("x_abs", 0.0, 0.95, 8),
      ("mu_sq", 0.0, 1.0, 9)], {}),
    ([("mu_sq", 0.1, 0.9, 7), ("x_abs", 0.0, 0.9, 5)], {"eta": -math.pi, "y_abs": 0.4}),
    ([("y_abs", 0.0, 0.9, 6)], {"eta": 7.5, "mu_sq": 0.3, "x_abs": 0.8}),
    ([("x_abs", 0.0, 0.9, 6)], {"eta": -3.0 * math.pi, "mu_sq": 0.6, "y_abs": 0.5}),
]

SPECS = [*shape_specs(1), *shape_specs(2), *EDGE_SPECS, *LAYOUT_SPECS]


def sweep_argv(sweeps, fixes):
    argv = ["sweep"]
    for name, lo, hi, steps in sweeps:
        argv += ["--sweep", f"{name}={float(lo)!r}:{float(hi)!r}:{steps}"]
    for name, value in fixes.items():
        argv += ["--fix", f"{name}={float(value)!r}"]
    return argv


def reference_rows(sweeps, fixes):
    """The scalar pipeline one row at a time, as the sweep computed it before."""
    grids = np.meshgrid(*[np.linspace(lo, hi, steps) for _, lo, hi, steps in sweeps],
                        indexing="ij")
    flat = [g.ravel() for g in grids]
    for idx in range(flat[0].size):
        params = {**SWEEP_DEFAULTS, **fixes}
        for (name, *_), column in zip(sweeps, flat):
            params[name] = float(column[idx])
        params["eta"] = wrap_angle(params["eta"])
        rep = analyze_state(state_from_magnitudes(*params.values()), with_feasibility=False)
        yield (*params.values(), rep.lambda_plus, rep.lambda_minus, rep.bell_analytic,
               rep.d, rep.concurrence, rep.entropy_bits)


def core_rows(sweeps, fixes):
    """``sweep_blocks`` on the meshgrid's own columns, each a run of one row."""
    grids = np.meshgrid(*[np.linspace(lo, hi, steps) for _, lo, hi, steps in sweeps],
                        indexing="ij")
    columns = {**SWEEP_DEFAULTS, **fixes,
               **{name: g.ravel() for (name, *_), g in zip(sweeps, grids)}}
    rows = grids[0].size
    cols = [np.broadcast_to(columns[name], rows) for name in ("mu_sq", "x_abs", "y_abs", "eta")]
    cols[3] = batch.wrap_angles(cols[3])
    scalars = [row for block in batch.sweep_blocks([(c, 1) for c in cols], rows)
               for row in zip(*(c.tolist() for c in block))]
    return [(*params, *row) for params, row in zip(zip(*(c.tolist() for c in cols)), scalars)]


@pytest.mark.parametrize("sweeps,fixes", SPECS)
def test_core_matches_scalar_pipeline(sweeps, fixes):
    """Bit for bit: the sweep's states and its array call of the closed forms
    against ``state_from_magnitudes`` and the scalar call in ``analyze_state``."""
    ref = list(reference_rows(sweeps, fixes))
    got = core_rows(sweeps, fixes)
    assert got == ref


@pytest.mark.parametrize("sweeps,fixes", SPECS)
def test_sweep_csv_matches_scalar_pipeline(sweeps, fixes):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(sweep_argv(sweeps, fixes)) == 0
    rows = list(csv.reader(io.StringIO(buf.getvalue())))
    assert tuple(rows[0]) == CSV_COLUMNS
    ref = [[f"{v:.12g}" for v in values] for values in reference_rows(sweeps, fixes)]
    assert len(rows) - 1 == len(ref)
    assert rows[1:] == ref


@pytest.mark.parametrize("column,value,error", [
    ("mu_sq", -0.1, DomainError),
    ("mu_sq", 2.0, DomainError),
    ("mu_sq", 1e300, DomainError),
    ("mu_sq", math.nan, DomainError),
    ("x_abs", 1.0, LinearDependence),
    ("y_abs", -1e-300, LinearDependence),
    ("eta", math.nan, DomainError),
])
def test_first_rejected_row_raises_the_scalar_error(column, value, error):
    # the first bad row sits in the second block, and a later row fails too
    n = batch.BLOCK_ROWS + 10
    cols = {"mu_sq": np.full(n, 0.5), "x_abs": np.full(n, 0.3), "y_abs": np.full(n, 0.6),
            "eta": np.full(n, 2.0)}
    bad = batch.BLOCK_ROWS + 3
    cols[column][bad] = cols[column][bad + 2] = value
    params = {name: float(c[bad]) for name, c in cols.items()}
    with pytest.raises(error) as scalar:
        state_from_magnitudes(*params.values())
    with pytest.raises(NonorthoError) as core:
        for _ in batch.sweep_blocks([(c, 1) for c in cols.values()], n):
            pass
    assert type(core.value) is error
    assert str(core.value) == f"row {bad}: {scalar.value} (params {params})"


@pytest.mark.parametrize("shape", [(2,), (5, 3), (3, 1, 4), (7, 6, 5, 4), (40, 130)])
def test_grid_rows_match_the_meshgrid(shape):
    # every parameter's block of rows, at every block boundary, is the
    # block of its meshgrid column (runs as the CLI takes them)
    axes = [np.arange(n) + 10.0 * k for k, n in enumerate(shape)]
    grids = [g.ravel() for g in np.meshgrid(*axes, indexing="ij")]
    rows = math.prod(shape)
    for k, (values, grid) in enumerate(zip(axes, grids)):
        run = math.prod(shape[k + 1:])
        for size in (1, 3, 7, rows):
            for start in range(0, rows, size):
                stop = min(start + size, rows)
                assert batch.grid_rows(values, run, start, stop).tolist() == \
                    grid[start:stop].tolist()
        assert batch.grid_rows(values[:1], rows, 0, rows).tolist() == [values[0]] * rows


def test_grid_rows_lay_out_byte_columns_far_into_a_sweep():
    # a 2-D array holds one value per column, as a sweep's CSV fields do;
    # rows past a million index the cycle by its remainder
    fields = np.arange(12, dtype=np.uint8).reshape(3, 4)
    for run, start in ((1, 0), (3, 5), (1, 10 ** 6 + 1), (7, 4 * 10 ** 6 + 3)):
        cycle = (np.arange(start, start + 50) // run) % 4
        assert batch.grid_rows(fields, run, start, start + 50).tolist() == \
            fields[:, cycle].tolist()
        assert batch.grid_rows(fields[0], run, start, start + 50).tolist() == \
            fields[0, cycle].tolist()


def test_clamp_matches_scalar_clamp():
    values = [-2e-12, -1e-12, -5e-13, -0.0, 0.0, 0.5, 1.0, 1.0 + 5e-13, 1.0 + 1e-12,
              1.0 + 2e-12, math.nan]
    for v in values:
        try:
            want = _clamp_unit(v, "x")
        except ArithmeticError as exc:
            with pytest.raises(ArithmeticError, match=re.escape(str(exc))):
                closed_forms._clamp_units(np.array([0.5, v, 2.0]), "x")
            with pytest.raises(ArithmeticError, match=re.escape(str(exc))):
                closed_forms._clamp_units(np.float64(v), "x")
        else:
            assert closed_forms._clamp_units(np.array([0.5, v]), "x")[1] == want
            assert closed_forms._clamp_units(np.float64(v), "x") == want


def test_unnormalized_state_raises_in_the_clamp():
    with pytest.raises(ArithmeticError, match="schmidt eigenvalue radicand"):
        closed_forms.report_scalars(np.array([2.0]), np.array([2.0 + 0j]), np.zeros(1),
                                    np.zeros(1))
    with pytest.raises(ArithmeticError, match="schmidt eigenvalue radicand"):
        closed_forms.report_scalars(2.0, 2.0 + 0j, 0.0, 0.0)


def test_wrap_angles_matches_scalar():
    angles = np.array([-math.pi, math.pi, 0.0, -0.0, 3 * math.pi, -3 * math.pi, 1e300,
                       -7.5, 7.5, 2 * math.pi])
    assert batch.wrap_angles(angles).tolist() == [wrap_angle(a) for a in angles.tolist()]


@pytest.mark.parametrize("sweeps,fixes", [
    ([("x_abs", 0.0, 0.9, 70), ("y_abs", 0.0, 0.9, 70)], {"mu_sq": 1e-320}),
    ([("eta", -3.0, 3.0, 70), ("mu_sq", 0.0, 1e-300, 70)], {"x_abs": 0.6, "y_abs": 0.2}),
])
def test_sweep_csv_with_tiny_scalars_across_a_block_boundary(sweeps, fixes):
    # zero and subnormal scalars take the formatter's "%.12g" fallback; the
    # rows run past BLOCK_ROWS, so two blocks are formatted
    assert math.prod(steps for *_, steps in sweeps) > batch.BLOCK_ROWS
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(sweep_argv(sweeps, fixes)) == 0
    text = buf.getvalue()
    want = [",".join(CSV_COLUMNS)] + [",".join(f"{v:.12g}" for v in values)
                                      for values in reference_rows(sweeps, fixes)]
    assert text == "\n".join(want) + "\n"
    tiny = [i for i, line in enumerate(want[1:])
            if min(map(float, line.split(",")[4:])) < 2.3e-308]
    assert tiny[0] < batch.BLOCK_ROWS <= tiny[-1]
