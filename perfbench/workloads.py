"""Seeded inputs, program calls and output checks of the four workloads.

Each workload turns ``--seed`` into a fixed *pass*: a list of operations
whose composition (how many of each kind) does not depend on the seed, so
that seeds change values, never the mix.  The loop in ``run.py`` repeats
passes and hands every operation to :meth:`Workload.call` (the timed
program call) and then to :meth:`Workload.check` (untimed).
:meth:`Workload.replay` re-runs an operation's inputs through the public
functions of each module, one span per call, for the traced run.

Importing this module imports ``nonortho``; ``run.py`` puts the checkout's
``src`` directory on ``sys.path`` first.
"""

from __future__ import annotations

import contextlib
import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable

import numpy as np

from nonortho import cli, feasibility, kaon, measures, report, sampling, schmidt, state
from nonortho.bell import analytic_bell, oracle_bell_max
from nonortho.verify import run_verify

TWO_SQRT_TWO = 2.0 * math.sqrt(2.0)
# The CSV prints 12 significant digits; identities among printed values of
# order 1 hold to a few units of 1e-12, so 1e-10 is the printed-precision
# tolerance with headroom for the two independent routes behind C and d.
CSV_TOL = 1e-10
JSON_TOL = 1e-12
ORACLE_ANALYTIC_TOL = 1e-4        # the gates of verify's oracle check
ORACLE_SHORTFALL_TOL = 1e-9
ORACLE_CEILING_TOL = 1e-9
OVERLAP_MAX = 0.95


@dataclass
class Op:
    """One closed-loop request.

    ``units`` is what ``ops_per_s`` counts (CSV rows for sweep, 1 otherwise);
    ``expect`` is None for a request that must succeed, an error type for a
    documented rejection, or "*" for an input that must be rejected with
    any error object.
    """

    kind: str
    argv: list[str] | None = None
    units: int = 1
    expect: str | None = None
    out: Path | None = None
    data: dict = field(default_factory=dict)


class Tracer:
    """Spans around the benchmark's calls into the program, kept in memory.

    A span is (name, start, end, op id, top): ``top`` marks the direct
    children of an operation whose durations add up to the operation minus
    the CLI's own work; other spans re-time calls nested inside those.
    """

    def __init__(self) -> None:
        self.ops: dict[int, tuple[str, float, float, str]] = {}   # name, start, end, kind
        self.spans: list[tuple[str, float, float, int, bool]] = []
        self.scan_reports = 0       # reports whose verdict ran concurrence_scan
        self.verdict_reports = 0    # reports that carry a feasibility verdict
        self.oracle_gaps: list[float] = []

    def count_verdict(self, verdict, scans: list) -> None:
        if verdict is not None:
            self.verdict_reports += 1
            self.scan_reports += bool(scans)

    def call(self, name: str, op_id: int, top: bool, fn: Callable, *args, **kwargs):
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans.append((name, start, perf_counter(), op_id, top))


class PassThrough(Tracer):
    """A tracer that records no spans, to time the same replay without them."""

    def call(self, name: str, op_id: int, top: bool, fn: Callable, *args, **kwargs):
        return fn(*args, **kwargs)


def _fmt(value: float) -> str:
    return repr(float(value))


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def _finite_tree(obj) -> bool:
    if isinstance(obj, float):
        return math.isfinite(obj)
    if isinstance(obj, dict):
        return all(_finite_tree(v) for v in obj.values())
    if isinstance(obj, list):
        return all(_finite_tree(v) for v in obj)
    return True


def _parse(argv: list[str]):
    return cli.build_parser().parse_args(argv)


def _check_reject(op: Op, rc: int, stdout: str) -> str | None:
    """A rejected input ends in exit 2 with an error object on stdout."""
    if rc == 0:
        return "accepted an input that must be rejected"
    if rc != 2:
        return f"exit {rc}, expected 2"
    try:
        err = json.loads(stdout)["error"]
        kind, message = err["type"], err["message"]
    except (ValueError, KeyError, TypeError) as exc:
        return f"exit 2 without an error object: {exc}"
    if not isinstance(kind, str) or not isinstance(message, str):
        return "error object fields are not strings"
    if op.expect != "*" and kind != op.expect:
        return f"error type {kind}, expected {op.expect}"
    return None


class Workload:
    name = ""
    op_span = ""            # span name of the operation itself in the traced run

    def __init__(self, seed: int, workdir: Path) -> None:
        """Make the seeded pass; ``workdir`` holds its input and output files."""
        self.ops: list[Op] = []

    def next_pass(self) -> None:
        """Called before each pass over ``ops``."""

    def call(self, op: Op):
        """The timed program call."""
        raise NotImplementedError

    def check(self, op: Op, result, stdout: str) -> str | None:
        """None when the result of :meth:`call` and its stdout are right, else why not."""
        raise NotImplementedError

    def known_defect(self, op: Op, result) -> bool:
        """True when a failed op shows exactly a program defect recorded at this baseline.

        Such failures count in ``failed`` and ``ok_frac`` like any other but
        do not mark the run incorrect; any other failure does.
        """
        return False

    def replay(self, tracer: Tracer, op_id: int, op: Op, result) -> None:
        """Re-run ``op``'s inputs through each module's public functions."""
        raise NotImplementedError

    def sample_ops(self) -> list[Op]:
        """The first operation of each kind, for a short traced replay."""
        seen: dict[str, Op] = {}
        for op in self.ops:
            seen.setdefault(op.kind, op)
        return list(seen.values())

    def composition(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for op in self.ops:
            counts[op.kind] = counts.get(op.kind, 0) + 1
        return counts


# --- sweep -----------------------------------------------------------------

# (kind, swept axes with their step counts, fixed parameters) per CLI call.
# Step counts are fixed so every seed writes the same number of rows; the
# seed draws the ranges and the fixed values.  No record of real sweeps
# exists, so the mix is an assumption: the OO, ON and NN regimes get equal
# rows (960 each), NN split over three shapes.
SWEEP_SHAPES = (
    ("oo", (("mu_sq", 40), ("eta", 24)), ("x_abs", "y_abs")),
    ("on", (("x_abs", 40), ("mu_sq", 24)), ("y_abs",)),
    ("nn-3axis", (("x_abs", 8), ("y_abs", 8), ("eta", 5)), ("mu_sq",)),
    ("nn-amp", (("mu_sq", 16), ("y_abs", 20)), ("x_abs", "eta")),
    ("nn-phase", (("eta", 20), ("x_abs", 16)), ("mu_sq", "y_abs")),
)


def _sweep_range(rng: np.random.Generator, name: str) -> tuple[float, float]:
    if name == "mu_sq":
        return float(rng.uniform(0.0, 0.1)), float(rng.uniform(0.9, 1.0))
    if name == "eta":
        # the whole circle, starting at a seeded phase
        lo = float(rng.uniform(-math.pi, 0.0))
        return lo, lo + 2.0 * math.pi
    return float(rng.uniform(0.0, 0.05)), float(rng.uniform(0.85, OVERLAP_MAX))


def _sweep_fixed(rng: np.random.Generator, kind: str, name: str) -> float:
    if kind == "oo" or (kind == "on" and name == "y_abs"):
        return 0.0
    if name == "mu_sq":
        return float(rng.uniform(0.05, 0.95))
    if name == "eta":
        return float(rng.uniform(-math.pi, math.pi))
    return float(rng.uniform(0.05, OVERLAP_MAX))


class Sweep(Workload):
    """``cli.main(["sweep", ...])`` over 2-3 axes; one op unit is one CSV row."""

    name = "sweep"
    op_span = "cli.main"

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        rng = _rng(seed, 1)
        for i, (kind, axes, fixed) in enumerate(SWEEP_SHAPES):
            spec_axes = [(name, *_sweep_range(rng, name), steps) for name, steps in axes]
            fixes = {name: _sweep_fixed(rng, kind, name) for name in fixed}
            out = workdir / f"sweep-{i}.csv"
            argv = ["sweep"]
            for name, lo, hi, steps in spec_axes:
                argv += ["--sweep", f"{name}={_fmt(lo)}:{_fmt(hi)}:{steps}"]
            for name, value in fixes.items():
                argv += ["--fix", f"{name}={_fmt(value)}"]
            argv += ["--csv", str(out)]
            self.ops.append(Op(kind, argv, units=math.prod(s for *_, s in spec_axes),
                               out=out, data={"axes": spec_axes, "fixes": fixes}))

    def call(self, op: Op) -> int:
        return cli.main(op.argv)

    def check(self, op: Op, rc: int, stdout: str) -> str | None:
        if rc != 0:
            return f"sweep exit {rc}: {stdout.strip()[:200]}"
        try:
            with open(op.out, newline="", encoding="utf-8") as fh:
                rows = list(csv.DictReader(fh))
        except OSError as exc:
            return f"sweep CSV unreadable: {exc}"
        if len(rows) != op.units:
            return f"{len(rows)} rows, expected {op.units}"
        for i, row in enumerate(rows):
            try:
                lp, lm = float(row["lambda_plus"]), float(row["lambda_minus"])
                bell, d = float(row["bell_analytic"]), float(row["d"])
                conc = float(row["concurrence"])
                entropy = float(row["entropy_bits"])
            except (KeyError, TypeError, ValueError) as exc:
                return f"row {i}: unreadable ({exc})"
            if not all(map(math.isfinite, (lp, lm, bell, d, conc, entropy))):
                return f"row {i}: non-finite value"
            if abs(lp + lm - 1.0) > CSV_TOL:
                return f"row {i}: lambda_plus + lambda_minus = {lp + lm!r}"
            if abs(bell - 2.0 * math.sqrt(2.0 - d)) > CSV_TOL:
                return f"row {i}: bell {bell!r} vs 2 sqrt(2 - d), d = {d!r}"
            if abs(conc * conc + d - 1.0) > CSV_TOL:
                return f"row {i}: C^2 + d = {conc * conc + d!r}"
        return None

    @staticmethod
    def rows(op: Op):
        """The (mu_sq, x_abs, y_abs, eta) rows, in the CLI's row-major order."""
        fixed = dict(cli.SWEEP_DEFAULTS)
        fixed.update(op.data["fixes"])
        axes = op.data["axes"]
        grids = np.meshgrid(*[np.linspace(lo, hi, steps) for _, lo, hi, steps in axes],
                            indexing="ij")
        flat = [g.ravel() for g in grids]
        for idx in range(flat[0].size):
            params = dict(fixed)
            for (name, *_), column in zip(axes, flat):
                params[name] = float(column[idx])
            params["eta"] = state.wrap_angle(params["eta"])
            yield params["mu_sq"], params["x_abs"], params["y_abs"], params["eta"]

    def replay(self, tracer: Tracer, op_id: int, op: Op, result) -> None:
        t = tracer.call
        t("cli.parse", op_id, True, _parse, op.argv)
        for mu_sq, x_abs, y_abs, eta in self.rows(op):
            st = t("state.state_from_magnitudes", op_id, True,
                   state.state_from_magnitudes, mu_sq, x_abs, y_abs, eta)
            t("state.embed", op_id, False, state.embed, st)
            form = t("schmidt.decompose", op_id, False, schmidt.schmidt_decompose, st)
            t("schmidt.eigenvalues", op_id, False, schmidt.schmidt_eigenvalues, st)
            t("feasibility.deviation", op_id, False, feasibility.deviation, form)
            t("bell.analytic", op_id, False, analytic_bell, form)
            conc = t("measures.concurrence_det", op_id, False, measures.concurrence_det, st)
            t("measures.entropy", op_id, False, measures.entanglement_entropy, conc)
            rep = t("report.analyze", op_id, True, report.analyze_state, st,
                    with_feasibility=False)
            t("report.csv_row", op_id, True, report.csv_row, mu_sq, x_abs, y_abs, eta, rep)


# --- report ----------------------------------------------------------------

# Operations per pass, by kind, each drawn REPORT_SETS times: 76 distinct
# inputs.  Few distinct inputs give each one some 25 calls in a 40 s run,
# so its fastest call is a steady estimate of its cost.  No record of real usage
# exists, so the mix is an assumption: the four overlap cases are weighted
# equally, with a few kaon calls, rejects and item-3 inputs beside them.
REPORT_SETS = 2
REPORT_COUNTS = {
    "oo": 6, "on": 6, "nn-equal": 6, "nn-unequal": 6,
    "kaon": 3, "kaon-t": 3,
    "reject-linear-dependence": 1, "reject-not-normalized": 1, "reject-zero-state": 1,
    "reject-sweep-spec": 1, "reject-fix-spec": 1,
    "item3-nan-component": 1, "item3-kaon-nan": 1, "item3-non-numeric-input": 1,
}
STATE_KEYS = cli.STATE_KEYS


def _components(mu: complex, nu: complex, x: complex, y: complex) -> dict:
    return {"mu_re": mu.real, "mu_im": mu.imag, "nu_re": nu.real, "nu_im": nu.imag,
            "x_re": x.real, "x_im": x.imag, "y_re": y.real, "y_im": y.imag}


def _random_overlap(rng: np.random.Generator, mag: float | None = None) -> complex:
    if mag is None:
        mag = rng.uniform(0.05, OVERLAP_MAX)
    return complex(mag * np.exp(1j * rng.uniform(-math.pi, math.pi)))


def _random_amps(rng: np.random.Generator) -> tuple[complex, complex]:
    amps = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    amps = amps / np.linalg.norm(amps)
    return complex(amps[0]), complex(amps[1])


@contextlib.contextmanager
def _counting_scans():
    """Count calls of ``feasibility.concurrence_scan`` inside the block.

    ``maximal_feasibility`` looks the scan up in its module at call time, so
    wrapping the module attribute counts exactly the scans a report ran.
    """
    calls: list[int] = []
    original = feasibility.concurrence_scan

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    feasibility.concurrence_scan = counting
    try:
        yield calls
    finally:
        feasibility.concurrence_scan = original


def boundary_state(rng: np.random.Generator, q_scale: float = 1.0):
    """A member of the |x| = |y|, eta = pi boundary family (d = 0 at q_scale 1)."""
    t = float(rng.uniform(0.1, 0.7))
    alpha, beta = rng.uniform(-math.pi, math.pi, 2)
    q = q_scale / (2.0 * (1.0 - t * t))
    base = state.state_from_magnitudes(q, t, t, math.pi)
    # move the overlap phases while keeping eta = arg mu - arg nu + arg x - arg y
    x = t * complex(np.exp(1j * alpha))
    y = t * complex(np.exp(1j * beta))
    nu = abs(base.nu) * complex(np.exp(1j * (alpha - beta - math.pi)))
    return state.make_state(base.mu, nu, x, y, auto_normalize=True)


class Report(Workload):
    """Back-to-back ``cli.main`` ``analyze``/``kaon`` calls, JSON to a file."""

    name = "report"
    op_span = "cli.main"
    # Item-3 inputs the baseline does not reject: the exception each raises.
    KNOWN_DEFECTS = {
        "item3-nan-component": ArithmeticError,      # make_state accepts NaN; deviation raises
        "item3-kaon-nan": ArithmeticError,           # --eps-re nan passes; deviation raises
        "item3-non-numeric-input": ValueError,       # --input field 'abc' is not caught
    }

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        rng = _rng(seed, 2)
        states = sampling.random_states(REPORT_COUNTS["nn-unequal"] * REPORT_SETS, seed)
        ops = []
        for kind, count in REPORT_COUNTS.items():
            for j in range(count * REPORT_SETS):
                ops.append(self._make(kind, rng, states, as_file=bool(j % 2)))
        order = rng.permutation(len(ops))
        for i, k in enumerate(order):
            op = ops[k]
            op.out = workdir / f"report-{i}.json"
            if op.argv[0] != "sweep":
                op.argv += ["--json", str(op.out)]
            if op.data.get("input_file"):
                path = workdir / f"input-{i}.json"
                path.write_text(json.dumps(op.data["input_file"]), encoding="utf-8")
                op.argv += ["--input", str(path)]
            self.ops.append(op)

    @staticmethod
    def _analyze(kind: str, comps: dict, normalize: bool, as_file: bool,
                 expect: str | None = None) -> Op:
        argv = ["analyze"]
        data = {"components": comps, "normalize": normalize}
        if as_file:
            data["input_file"] = comps
        else:
            argv += [f"--{k.replace('_', '-')}={_fmt(comps[k])}" for k in STATE_KEYS]
        if normalize:
            argv.append("--normalize")
        return Op(kind, argv, expect=expect, data=data)

    def _make(self, kind: str, rng: np.random.Generator, states, as_file: bool) -> Op:
        if kind == "oo":
            mu, nu = _random_amps(rng)
            return self._analyze(kind, _components(mu, nu, 0j, 0j), True, as_file)
        if kind == "on":
            mu, nu = _random_amps(rng)
            x, y = _random_overlap(rng), 0j
            if rng.integers(2):
                x, y = y, x
            return self._analyze(kind, _components(mu, nu, x, y), True, as_file)
        if kind == "nn-equal":
            s = boundary_state(rng)
            return self._analyze(kind, _components(s.mu, s.nu, s.x, s.y), True, as_file)
        if kind == "nn-unequal":
            s = next(states)
            return self._analyze(kind, _components(s.mu, s.nu, s.x, s.y), False, as_file)
        if kind in ("kaon", "kaon-t"):
            eps = complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
            argv = ["kaon", f"--eps-re={_fmt(eps.real)}", f"--eps-im={_fmt(eps.imag)}"]
            data = {"eps": eps, "evolution": None}
            if kind == "kaon-t":
                evo = (1.0, float(rng.uniform(0.001, 0.01)), float(rng.uniform(0.0, 5.0)))
                argv += [f"--gamma-s={_fmt(evo[0])}", f"--gamma-l={_fmt(evo[1])}",
                         f"--t={_fmt(evo[2])}"]
                data["evolution"] = evo
            return Op(kind, argv, data=data)
        mu, nu = _random_amps(rng)
        x, y = _random_overlap(rng), _random_overlap(rng)
        if kind == "reject-linear-dependence":
            x = _random_overlap(rng, rng.uniform(1.05, 2.0))
            return self._analyze(kind, _components(mu, nu, x, y), True, as_file,
                                 expect="LinearDependence")
        if kind == "reject-not-normalized":
            s = next(iter(sampling.random_states(1, int(rng.integers(1 << 30)))))
            scale = float(rng.uniform(1.1, 2.0))
            return self._analyze(kind, _components(scale * s.mu, scale * s.nu, s.x, s.y),
                                 False, as_file, expect="NotNormalized")
        if kind == "reject-zero-state":
            return self._analyze(kind, _components(0j, 0j, x, y), True, as_file,
                                 expect="ZeroState")
        if kind == "reject-sweep-spec":
            return Op(kind, ["sweep", "--sweep", f"mu_sq=0:{_fmt(rng.uniform(0.5, 1))}"],
                      expect="SweepSpec")
        if kind == "reject-fix-spec":
            return Op(kind, ["sweep", "--sweep", "mu_sq=0:1:5", "--fix", "x_abs=abc"],
                      expect="SweepSpec")
        if kind == "item3-nan-component":
            comps = _components(mu, nu, x, y)
            comps[str(rng.choice(STATE_KEYS))] = math.nan
            return self._analyze(kind, comps, True, False, expect="*")
        if kind == "item3-kaon-nan":
            return Op(kind, ["kaon", "--eps-re=nan"], expect="*",
                      data={"eps": complex(math.nan, 0.0), "evolution": None})
        if kind == "item3-non-numeric-input":
            comps: dict = _components(mu, nu, x, y)
            comps[str(rng.choice(STATE_KEYS))] = "abc"
            return Op(kind, ["analyze", "--normalize"], expect="*",
                      data={"input_file": comps, "components": comps, "normalize": True})
        raise ValueError(f"unknown report kind {kind!r}")

    def call(self, op: Op) -> int:
        return cli.main(op.argv)

    def check(self, op: Op, rc: int, stdout: str) -> str | None:
        if op.expect is not None:
            return _check_reject(op, rc, stdout)
        if rc != 0:
            return f"exit {rc}: {stdout.strip()[:200]}"
        try:
            doc = json.loads(op.out.read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            return f"report JSON unreadable: {exc}"
        if not isinstance(doc.get("schema_version"), int):
            return "schema_version missing"
        if not _finite_tree(doc):
            return "non-finite value in report"
        bell, d = doc.get("bell_analytic"), doc.get("d")
        if not isinstance(bell, float) or not isinstance(d, (int, float)):
            return "bell_analytic or d missing"
        if abs(bell - 2.0 * math.sqrt(2.0 - d)) > JSON_TOL:
            return f"bell_analytic {bell!r} disagrees with d {d!r}"
        if op.argv[0] == "kaon" and not isinstance(doc.get("kaon"), dict):
            return "kaon section missing"
        return None

    def known_defect(self, op: Op, result) -> bool:
        return type(result) is self.KNOWN_DEFECTS.get(op.kind)

    def _replay_state(self, tracer: Tracer, op_id: int, comps: dict, normalize: bool):
        t = tracer.call
        values = {k: float(comps[k]) for k in STATE_KEYS}
        st = t("state.make_state", op_id, True, state.make_state,
               complex(values["mu_re"], values["mu_im"]),
               complex(values["nu_re"], values["nu_im"]),
               complex(values["x_re"], values["x_im"]),
               complex(values["y_re"], values["y_im"]), auto_normalize=normalize)
        with _counting_scans() as scans:
            rep = t("report.analyze_feas", op_id, True, report.analyze_state, st)
        tracer.count_verdict(rep.feasibility, scans)
        self._replay_feasibility(tracer, op_id, abs(st.x), abs(st.y))
        t("report.to_json", op_id, True, lambda r: report.to_json(r.to_dict()), rep)

    @staticmethod
    def _replay_feasibility(tracer: Tracer, op_id: int, abs_x: float, abs_y: float) -> None:
        case = feasibility.overlap_case(abs_x, abs_y)
        if case == "OO" or (case == "NN" and abs(abs_x - abs_y) < 1e-12):
            tracer.call("feasibility.witness", op_id, False,
                        feasibility.maximal_feasibility, abs_x, abs_y)
        else:
            tracer.call("feasibility.scan", op_id, False,
                        feasibility.concurrence_scan, abs_x, abs_y)

    def replay(self, tracer: Tracer, op_id: int, op: Op, result) -> None:
        t = tracer.call
        t("cli.parse", op_id, True, _parse, op.argv)
        if op.argv[0] == "analyze":
            self._replay_state(tracer, op_id, op.data["components"], op.data["normalize"])
        elif op.argv[0] == "kaon":
            eps, evo = op.data["eps"], op.data["evolution"]
            evolution = None if evo is None else kaon.KaonEvolution(*evo)
            with _counting_scans() as scans:
                doc = t("report.kaon_report", op_id, True, report.kaon_report, eps,
                        evolution=evolution)
            tracer.count_verdict(doc["feasibility"], scans)
            st = t("kaon.entangled_state", op_id, False, kaon.kaon_entangled_state, eps)
            self._replay_feasibility(tracer, op_id, abs(st.x), abs(st.y))
            t("report.analyze_feas", op_id, False, report.analyze_state, st)
            for branch in (+1, -1):
                t("kaon.closed_form", op_id, False, kaon.kaon_deviation_closed_form,
                  eps, math.pi, branch)
            t("report.to_json", op_id, True, report.to_json, doc)


# --- oracle ----------------------------------------------------------------

ORACLE_KINDS = ("random", "random", "boundary", "near-product")


class Oracle(Workload):
    """``bell.oracle_bell_max`` at its defaults on seed-drawn states."""

    name = "oracle"
    op_span = "bell.oracle"
    # refine_iters=40 can stop short of the maximum near maximal violation:
    # 1.1e-6 below the canonical value at seed 2, against the 1e-9 gate.
    KNOWN_SHORTFALL_CAP = 1e-5

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        rng = _rng(seed, 3)
        for kind in ORACLE_KINDS:
            if kind == "random":
                st = sampling.random_state(rng)
            elif kind == "boundary":
                # exact boundary family (d = 0) or slightly off it (d > 0)
                st = boundary_state(rng, q_scale=float(rng.choice([1.0, 0.97])))
            else:
                st = state.state_from_magnitudes(float(rng.uniform(1e-4, 1e-2)),
                                                 float(rng.uniform(0.0, OVERLAP_MAX)),
                                                 float(rng.uniform(0.0, OVERLAP_MAX)),
                                                 float(rng.uniform(-math.pi, math.pi)))
            self.ops.append(Op(kind, data={"state": st, "vector": state.embed(st)}))

    def call(self, op: Op) -> float:
        return oracle_bell_max(op.data["vector"], grid_n=24, refine_iters=40)

    @staticmethod
    def _references(op: Op) -> tuple[float, float]:
        """The analytic and the canonical-settings CHSH values of ``op``'s state."""
        st = op.data["state"]
        return analytic_bell(schmidt.schmidt_decompose(st)), report.canonical_bell_value(st)

    def check(self, op: Op, value: float, stdout: str) -> str | None:
        analytic, canonical = self._references(op)
        if not math.isfinite(value):
            return f"oracle value {value!r}"
        if abs(value - analytic) > ORACLE_ANALYTIC_TOL:
            return f"|oracle - analytic| = {abs(value - analytic):.3e}"
        if canonical - value > ORACLE_SHORTFALL_TOL:
            return f"shortfall vs canonical {canonical - value:.3e}"
        if value > TWO_SQRT_TWO + ORACLE_CEILING_TOL:
            return f"oracle value {value!r} above 2 sqrt 2"
        return None

    def known_defect(self, op: Op, value) -> bool:
        """Only a boundary state's shortfall under the cap, every other gate holding."""
        if op.kind != "boundary" or not isinstance(value, float) or not math.isfinite(value):
            return False
        analytic, canonical = self._references(op)
        return (abs(value - analytic) <= ORACLE_ANALYTIC_TOL
                and value <= TWO_SQRT_TWO + ORACLE_CEILING_TOL
                and canonical - value <= self.KNOWN_SHORTFALL_CAP)

    def replay(self, tracer: Tracer, op_id: int, op: Op, result) -> None:
        tracer.call("bell.oracle_grid", op_id, False, oracle_bell_max,
                    op.data["vector"], grid_n=24, refine_iters=0)
        tracer.oracle_gaps.append(abs(result - self._references(op)[0]))


# --- verify ----------------------------------------------------------------

VERIFY_REPLAY_STATES = 300


class Verify(Workload):
    """``run_verify("quick", seed)`` with seed-drawn verify seeds."""

    name = "verify"
    op_span = "verify.run_verify"

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        self._rng = _rng(seed, 4)
        self.ops.append(Op("quick", data={"seed": 0}))

    def next_pass(self) -> None:
        """Each pass runs the quick suite on a fresh seed-derived verify seed."""
        self.ops[0].data["seed"] = int(self._rng.integers(1, 1 << 31))

    def call(self, op: Op):
        return run_verify("quick", op.data["seed"])

    def check(self, op: Op, summary, stdout: str) -> str | None:
        if not summary.ok:
            bad = [r.name for r in summary.results if not r.passed]
            return f"verify checks failed: {bad}"
        return None

    def replay(self, tracer: Tracer, op_id: int, op: Op, result) -> None:
        t = tracer.call
        rng = np.random.default_rng(op.data["seed"])
        for _ in range(VERIFY_REPLAY_STATES):
            st = t("sampling.random_state", op_id, False, sampling.random_state, rng)
            vec = t("state.embed", op_id, False, state.embed, st)
            form = t("schmidt.decompose", op_id, False, schmidt.schmidt_decompose, st)
            rho = t("schmidt.reduced_density", op_id, False, schmidt.reduced_density, st, "A")
            t("schmidt.reconstruct", op_id, False, schmidt.reconstruct, form)
            t("measures.spin_flip", op_id, False, measures.concurrence_spin_flip, vec)
            t("measures.entropy_direct", op_id, False, measures.entropy_direct, rho)
            t("bell.expectation", op_id, False, report.canonical_bell_value, st)


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (Sweep, Report, Oracle, Verify)}
