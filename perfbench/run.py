"""nonortho benchmark: one process, one closed-loop caller.

Run from the root of a checkout:

    python3 perfbench/run.py --workload {sweep,report,oracle,verify} \\
        --seed N --seconds S --trace {0,1}

The program is imported from the checkout's ``src`` directory.  Inputs are
made from ``--seed``; each request is sent only after the previous one
returns, and every output is checked.  The last line of stdout is the
result object ``{"correct", "attempted", "failed", "metrics"}``: with
``--trace 0`` the end-to-end metrics, with ``--trace 1`` the per-layer
metrics of a separate traced run.  The line before it records the
environment.  Scratch files, the result and the spans go to
``.bench_out/`` in the checkout.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOAD_NAMES = ("sweep", "report", "oracle", "verify")

# One caller and one process, so numpy's BLAS/OpenMP pools are pinned to one
# thread (nproc is 2 on the reference machine; never run more than that).
BLAS_THREADS = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 6            # fresh processes timing set-up, besides this one

# Share of --seconds spent on each part of the traced run.
TRACE_TRACED_SHARE = 0.2
TRACE_OVERHEAD_SHARE = 0.15

TIMED_LAYERS = (   # (metric, span name, unit)
    ("state.make_state_us", "state.make_state", "us"),
    ("state.state_from_magnitudes_us", "state.state_from_magnitudes", "us"),
    ("state.embed_us", "state.embed", "us"),
    ("schmidt.decompose_us", "schmidt.decompose", "us"),
    ("schmidt.eigenvalues_us", "schmidt.eigenvalues", "us"),
    ("schmidt.reduced_density_us", "schmidt.reduced_density", "us"),
    ("schmidt.reconstruct_us", "schmidt.reconstruct", "us"),
    ("bell.analytic_us", "bell.analytic", "us"),
    ("bell.expectation_us", "bell.expectation", "us"),
    ("bell.oracle_ms", "bell.oracle", "ms"),
    ("bell.oracle_grid_ms", "bell.oracle_grid", "ms"),
    ("feasibility.deviation_us", "feasibility.deviation", "us"),
    ("feasibility.scan_ms", "feasibility.scan", "ms"),
    ("feasibility.witness_us", "feasibility.witness", "us"),
    ("measures.concurrence_det_us", "measures.concurrence_det", "us"),
    ("measures.entropy_us", "measures.entropy", "us"),
    ("measures.spin_flip_us", "measures.spin_flip", "us"),
    ("measures.entropy_direct_us", "measures.entropy_direct", "us"),
    ("kaon.entangled_state_us", "kaon.entangled_state", "us"),
    ("kaon.closed_form_us", "kaon.closed_form", "us"),
    ("report.analyze_us", "report.analyze", "us"),
    ("report.analyze_feas_us", "report.analyze_feas", "us"),
    ("report.to_json_us", "report.to_json", "us"),
    ("report.csv_row_us", "report.csv_row", "us"),
    ("sampling.random_state_us", "sampling.random_state", "us"),
    ("cli.parse_us", "cli.parse", "us"),
    ("verify.run_verify_ms", "verify.run_verify", "ms"),
)
SCALE = {"us": 1e6, "ms": 1e3}
SWEEP_ROW_SPANS = ("state.state_from_magnitudes", "report.analyze", "report.csv_row")


class BenchError(Exception):
    """The benchmark cannot run here; reported on stderr with exit status 3."""


def pin_threads() -> None:
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)


def check_checkout() -> None:
    if not (SRC / "nonortho" / "__init__.py").is_file():
        raise BenchError(f"no nonortho sources under {SRC}; run from a full checkout")


def load_program():
    """Import nonortho from this checkout's ``src``, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import nonortho
    if Path(nonortho.__file__).resolve().parent != (SRC / "nonortho").resolve():
        raise BenchError(f"imported nonortho from {nonortho.__file__}, not {SRC}")
    import workloads
    return workloads


def blas_threads_in_use() -> int | None:
    """Thread count reported by the OpenBLAS numpy loaded, if it is OpenBLAS."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted(set(re.findall(r"(/\S*openblas\S*\.so\S*)", fh.read())))
    except OSError:
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def timed_setup(name: str, seed: int, workdir: Path):
    """Import the program and make the seeded inputs; returns (workload, seconds)."""
    start = perf_counter()
    workloads = load_program()
    workload = workloads.WORKLOADS[name](seed, workdir)
    return workload, perf_counter() - start


def probe_setup(name: str, seed: int) -> float:
    """Set-up time of one fresh process (interpreter start excluded)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
           "--seed", str(seed), "--setup-probe"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, cwd=ROOT)
    if proc.returncode != 0:
        raise BenchError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
    return float(proc.stdout.strip().splitlines()[-1])


@dataclass
class Tally:
    latencies: list[float] = field(default_factory=list)   # seconds, every call
    best: dict[int, float] = field(default_factory=dict)   # fastest call per op
    units: dict[int, int] = field(default_factory=dict)    # op units per op
    failed_ops: set[int] = field(default_factory=set)      # ops that failed any call
    results: dict[int, object] = field(default_factory=dict)  # last result per op
    unexpected: int = 0     # failed calls that are not a recorded program defect
    failures: dict[str, str] = field(default_factory=dict)  # first detail per kind


def execute(workload, op):
    """Time one program call, then check its output; a crash never aborts."""
    if op.out is not None:
        op.out.unlink(missing_ok=True)
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        start = perf_counter()
        try:
            result = workload.call(op)
        except Exception as exc:       # an op that raises is a failed op
            result = exc
        except SystemExit as exc:      # argparse exits on bad flags
            result = exc
        end = perf_counter()
    if isinstance(result, BaseException):
        problem = f"{type(result).__name__}: {result}"
    else:
        problem = workload.check(op, result, stdout.getvalue())
    return start, end, problem, result


def measure(workload, seconds: float, tally: Tally, ops=None, tracer=None) -> None:
    """Closed loop over passes of ``ops`` until ``seconds`` have elapsed.

    The first pass always completes.  Each op keeps its fastest call: on a
    shared machine the spread of an op's calls is interference from other
    tenants, and the fastest call is the steadiest estimate of its cost.
    With a ``tracer`` each op is recorded as a span and then replayed.
    """
    ops = ops or workload.ops
    deadline = perf_counter() + seconds
    first_pass = True
    while True:
        workload.next_pass()
        for index, op in enumerate(ops):
            if not first_pass and perf_counter() >= deadline:
                return
            start, end, problem, result = execute(workload, op)
            elapsed = end - start
            tally.latencies.append(elapsed)
            tally.best[index] = min(elapsed, tally.best.get(index, elapsed))
            tally.units[index] = op.units
            tally.results[index] = result
            if problem is not None:
                tally.failed_ops.add(index)
                tally.unexpected += not workload.known_defect(op, result)
                tally.failures.setdefault(op.kind, problem[:300])
            if tracer is not None:
                op_id = len(tracer.ops)
                tracer.ops[op_id] = (workload.op_span, start, end,
                                     f"{workload.name}:{op.kind}")
                try:
                    workload.replay(tracer, op_id, op, result)
                except Exception:   # replays of rejected inputs stop where they raise
                    pass
        first_pass = False


def attempted_failed(tally: Tally) -> tuple[int, int]:
    """Op units of the pass's distinct ops, and of those that failed any call.

    Every call is checked, but the counts cover each distinct op once, so
    they depend on the code and the seed only, not on how many passes fit
    into the run.
    """
    attempted = sum(tally.units.values())
    return attempted, sum(tally.units[i] for i in tally.failed_ops)


def percentile(values: list[float], pct: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def end_to_end_metrics(tally: Tally, setup_times: list[float]) -> dict:
    """Metrics over the pass's distinct ops, each at its fastest call."""
    costs = list(tally.best.values())
    units, failed = attempted_failed(tally)
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "ops_per_s": (units / sum(costs), "1/s"),
        "p50_ms": (percentile(costs, 50) * 1e3, "ms"),
        "p95_ms": (percentile(costs, 95) * 1e3, "ms"),
        "ok_frac": ((units - failed) / units, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def tracing_overhead(workload, tally: Tally, seconds: float) -> float:
    """Cost of recording spans: one replay of each op kind, with and without.

    Each op is replayed back to back through a recording tracer and a
    pass-through one, in alternating order, over rounds until ``seconds``
    have elapsed (at least one round).  The result is the sum over ops of
    the fastest recording replay, over the same sum for pass-through, minus 1.
    """
    workloads = sys.modules["workloads"]
    first: dict[str, int] = {}
    for index, op in enumerate(workload.ops):
        first.setdefault(op.kind, index)
    pairs = [(workload.ops[i], tally.results[i]) for i in first.values()]
    kinds = [workloads.Tracer, workloads.PassThrough]
    times = {kind: [[] for _ in pairs] for kind in kinds}
    deadline = perf_counter() + seconds
    while not times[kinds[0]][0] or perf_counter() < deadline:
        for op_id, (op, result) in enumerate(pairs):
            for kind in kinds:
                tracer = kind()
                start = perf_counter()
                try:
                    workload.replay(tracer, op_id, op, result)
                except Exception:   # replays of rejected inputs stop where they raise
                    pass
                times[kind][op_id].append(perf_counter() - start)
            kinds.reverse()
    recording, passing = (sum(min(t) for t in times[kind])
                          for kind in (workloads.Tracer, workloads.PassThrough))
    return recording / passing - 1.0


def layer_metrics(tracer, overhead: float) -> tuple[dict, dict]:
    """Per-layer metrics from the spans, plus a table of calls and shares."""
    by_name: dict[str, list[float]] = {}
    per_op: dict[tuple[str, int], float] = {}
    top_per_op: dict[int, float] = {}
    for name, start, end, op_id, top in tracer.spans:
        by_name.setdefault(name, []).append(end - start)
        per_op[name, op_id] = per_op.get((name, op_id), 0.0) + end - start
        if top:
            top_per_op[op_id] = top_per_op.get(op_id, 0.0) + end - start
    op_time: dict[int, float] = {}
    by_kind: dict[str, list[int]] = {}
    for op_id, (name, start, end, kind) in tracer.ops.items():
        by_name.setdefault(name, []).append(end - start)
        op_time[op_id] = end - start
        by_kind.setdefault(kind, []).append(op_id)

    metrics: dict = {}
    table: dict = {}
    for metric, span, unit in TIMED_LAYERS:
        durations = by_name.get(span)
        if not durations:
            raise BenchError(f"traced run recorded no {span} span")
        value = statistics.median(durations) * SCALE[unit]
        parents = [op_id for (n, op_id) in per_op if n == span]
        share = (sum(per_op[span, i] for i in parents) / sum(op_time[i] for i in parents)
                 if parents else 1.0)
        base = metric.rsplit("_", 1)[0]
        metrics[metric] = (value, unit)
        metrics[base + ".calls"] = (len(durations), "count")
        table[metric] = {"median": value, "calls": len(durations), "share_of_op": share}

    metrics["bell.oracle_refine_ms"] = (
        metrics["bell.oracle_ms"][0] - metrics["bell.oracle_grid_ms"][0], "ms")
    metrics["bell.oracle_max_gap"] = (max(tracer.oracle_gaps), "chsh")
    metrics["feasibility.scan_share"] = (tracer.scan_reports / tracer.verdict_reports, "ratio")

    sweep_ops = {i for (n, i) in per_op if n == "report.csv_row"}
    row_time = sum(per_op.get((n, i), 0.0) for n in SWEEP_ROW_SPANS for i in sweep_ops)
    metrics["report.csv_share"] = (
        sum(per_op["report.csv_row", i] for i in sweep_ops) / row_time, "ratio")

    overheads = [op_time[i] - top_per_op.get(i, 0.0)
                 for i, (name, *_) in tracer.ops.items() if name == "cli.main"]
    metrics["cli.overhead_us"] = (statistics.median(overheads) * 1e6, "us")
    metrics["cli.overhead.calls"] = (len(overheads), "count")
    metrics["trace.overhead_frac"] = (overhead, "ratio")
    # per op kind: median op time, and the replayed scan's share of it
    table["op_kinds"] = {
        kind: {"ops": len(ids), "median_ms": statistics.median(op_time[i] for i in ids) * 1e3,
               "scan_share": sum(per_op.get(("feasibility.scan", i), 0.0) for i in ids)
               / sum(op_time[i] for i in ids)}
        for kind, ids in sorted(by_kind.items())}
    return metrics, table


def write_spans(path: Path, tracer) -> None:
    """One JSON list per line, times in microseconds from the first op.

    Operations first: [name, op id, "workload:kind", false, start, duration];
    then spans: [name, null, parent op id, top, start, duration].
    """
    origin = min((start for _, start, *_ in tracer.ops.values()), default=0.0)
    with open(path, "w", encoding="utf-8") as fh:
        for op_id, (name, start, end, kind) in tracer.ops.items():
            fh.write(json.dumps([name, op_id, kind, False, round((start - origin) * 1e6, 3),
                                 round((end - start) * 1e6, 3)]) + "\n")
        for name, start, end, op_id, top in tracer.spans:
            fh.write(json.dumps([name, None, op_id, top, round((start - origin) * 1e6, 3),
                                 round((end - start) * 1e6, 3)]) + "\n")


def run(args) -> dict:
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload, own_setup = timed_setup(args.workload, args.seed, workdir)
        setup_times = [own_setup] + [probe_setup(args.workload, args.seed)
                                     for _ in range(SETUP_PROBES)]
        import numpy
        env = {
            "nproc": os.cpu_count(),
            "cpus_allowed": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "blas_threads": blas_threads_in_use(),
            "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "loop": "closed", "processes": 1, "callers": 1,
            "pass_composition": workload.composition(),
        }
        tally = Tally()
        if args.trace == 0:
            measure(workload, args.seconds, tally)
            metrics = end_to_end_metrics(tally, setup_times)
            p95 = metrics["p95_ms"][0] / 1e3
            env.update(calls=len(tally.latencies), ops=len(tally.best),
                       ops_above_p95=sum(t > p95 for t in tally.best.values()),
                       calls_above_p95=sum(t > p95 for t in tally.latencies))
            detail: dict = {}
        else:
            workloads = sys.modules["workloads"]
            tracer = workloads.Tracer()
            measure(workload, args.seconds * TRACE_TRACED_SHARE, tally, tracer=tracer)
            overhead = tracing_overhead(workload, tally, args.seconds * TRACE_OVERHEAD_SHARE)
            others = Tally()
            for name in WORKLOAD_NAMES:
                if name != args.workload:
                    other = workloads.WORKLOADS[name](args.seed, workdir)
                    measure(other, 0.0, others, ops=other.sample_ops(), tracer=tracer)
            metrics, detail = layer_metrics(tracer, overhead)
            # attempted and failed count this workload's ops; an unexpected
            # failure in any replayed workload still makes the run incorrect
            tally.unexpected += others.unexpected
            env["replayed_workload_failures"] = others.failures
            write_spans(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl", tracer)
        env["failures"] = tally.failures
        attempted, failed = attempted_failed(tally)
        result = {
            "correct": tally.unexpected == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()},
        }
        record = {"env": env, "layers": detail, "result": result}
        (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps(record, indent=2) + "\n", encoding="utf-8")
        print(json.dumps({"env": env, "layers": detail}))
        return result
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    pin_threads()
    try:
        check_checkout()
        if args.setup_probe:
            workdir = OUT / f"probe-{os.getpid()}"
            workdir.mkdir(parents=True, exist_ok=True)
            try:
                _, seconds = timed_setup(args.workload, args.seed, workdir)
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            print(repr(seconds))
            return 0
        result = run(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
