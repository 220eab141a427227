"""Self-test of the benchmark's declared metrics.

    python3 perfbench/selftest.py

Run from the root of a checkout (about two minutes).  It checks that

- every workload and metric name in BENCHMARK.json matches [A-Za-z0-9_.-]+
  and is declared once;
- every workload, run for one second, ends with a valid result object whose
  metrics are exactly the declared end-to-end metrics (``--trace 0``) or
  per-layer metrics (``--trace 1``), with the declared units and finite
  values, and with every output checked correct;
- run from a directory that holds only BENCHMARK.json and the benchmark's
  own files, the benchmark exits nonzero without printing a result.

Exit status 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NAME = re.compile(r"[A-Za-z0-9_.-]+")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run_bench(spec: dict, cwd: Path, workload: str, trace: int,
              seconds: int = 1) -> subprocess.CompletedProcess:
    cmd = spec["command"] + ["--workload", workload, "--seed", "1",
                             "--seconds", str(seconds), "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def check_result(proc: subprocess.CompletedProcess, declared: list[dict]) -> list[str]:
    if proc.returncode != 0:
        return [f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}"]
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError) as exc:
        return [f"last stdout line is not JSON: {exc}"]
    problems = []
    if set(result) != RESULT_KEYS:
        problems.append(f"result keys {sorted(result)}")
    if not result.get("correct"):
        problems.append("correct is not true")
    if not (isinstance(result.get("attempted"), int) and result["attempted"] >= 1):
        problems.append(f"attempted {result.get('attempted')!r}")
    if not isinstance(result.get("failed"), int):
        problems.append(f"failed {result.get('failed')!r}")
    metrics = result.get("metrics", {})
    want = {m["name"]: m["unit"] for m in declared}
    missing, extra = sorted(set(want) - set(metrics)), sorted(set(metrics) - set(want))
    if missing or extra:
        problems.append(f"missing {missing}, undeclared {extra}")
    for name, unit in want.items():
        entry = metrics.get(name)
        if entry is None:
            continue
        value = entry.get("value")
        if set(entry) != {"value", "unit"} or entry["unit"] != unit:
            problems.append(f"{name}: {entry} does not carry unit {unit}")
        elif isinstance(value, bool) or not isinstance(value, (int, float)) \
                or not math.isfinite(value):
            problems.append(f"{name}: value {value!r} is not a finite number")
    return problems


def check_bare_directory(spec: dict) -> list[str]:
    bare = ROOT / ".bench_out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy2(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_bench(spec, bare, spec["workloads"][0]["name"], 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0:
        return ["exit 0 in a directory without the program"]
    if proc.stdout.strip():
        return [f"printed {proc.stdout.strip()[:200]!r} in a directory without the program"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    failures = []
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    for name in names:
        if not NAME.fullmatch(name):
            failures.append(f"name {name!r} does not match {NAME.pattern}")
    for name in sorted({n for n in names if names.count(n) > 1}):
        failures.append(f"name {name!r} declared more than once")
    for workload in spec["workloads"]:
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            problems = check_result(run_bench(spec, ROOT, workload["name"], trace), declared)
            failures += [f"{workload['name']} --trace {trace}: {p}" for p in problems]
            print(f"{workload['name']} --trace {trace}: "
                  f"{'ok' if not problems else 'FAIL'}", flush=True)
    failures += check_bare_directory(spec)
    for failure in failures:
        print(f"FAIL {failure}")
    print("selftest passed" if not failures else f"{len(failures)} problem(s)")
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
