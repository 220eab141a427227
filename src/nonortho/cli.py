"""Command-line front end.

Subcommands:

    analyze   full entanglement report for one state (JSON)
    sweep     parameter grid -> CSV rows of report scalars
    kaon      two-kaon report for a CP parameter, with comparison fields
    verify    self-check suites (quick < 10 s, full adds oracle scans)

State input is a flat record of eight reals, either as flags
(--mu-re ... --y-im, plus --normalize) or as a JSON file via --input with
keys mu_re, mu_im, nu_re, nu_im, x_re, x_im, y_re, y_im.

Exit status: 0 success, 2 validation failure (with a machine-readable error
object on stdout), 1 for verify when any check fails.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys

import numpy as np

from .errors import NonorthoError
from .kaon import KaonEvolution
from .report import (CSV_COLUMNS, analyze_state, csv_row, kaon_report, to_json)
from .sampling import DEFAULT_SEED
from .state import make_state, state_from_magnitudes, wrap_angle
from .verify import run_verify

STATE_KEYS = ("mu_re", "mu_im", "nu_re", "nu_im", "x_re", "x_im", "y_re", "y_im")

SWEEP_PARAMS = ("mu_sq", "x_abs", "y_abs", "eta")
SWEEP_DEFAULTS = {"mu_sq": 0.5, "x_abs": 0.0, "y_abs": 0.0, "eta": math.pi}


class CliError(Exception):
    """Validation failure carrying the machine-readable error object."""

    def __init__(self, kind: str, message: str):
        super().__init__(message)
        self.kind = kind

    def to_json(self) -> str:
        return json.dumps({"error": {"type": self.kind, "message": str(self)}},
                          indent=2)


def _add_state_flags(parser: argparse.ArgumentParser) -> None:
    for key in STATE_KEYS:
        parser.add_argument(f"--{key.replace('_', '-')}", type=float, default=None)
    parser.add_argument("--normalize", action="store_true",
                        help="rescale amplitudes to unit norm")
    parser.add_argument("--input", type=str, default=None, metavar="JSON",
                        help="JSON file with the eight state components")


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--json", type=str, default=None, metavar="PATH",
                        help="write the JSON report to PATH instead of stdout")
    parser.add_argument("--csv", type=str, default=None, metavar="PATH",
                        help="write CSV output to PATH instead of stdout")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="seed for randomized scans (default %(default)s)")
    parser.add_argument("--grid-n", type=int, default=24,
                        help="grid resolution per angle for the CHSH maximizer")
    parser.add_argument("--refine-iters", type=int, default=40,
                        help="refinement iterations for the CHSH maximizer")


def _state_from_args(args: argparse.Namespace):
    values = {}
    if args.input is not None:
        try:
            with open(args.input, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise CliError("InputFile", f"cannot read state file: {exc}") from exc
        if not isinstance(doc, dict):
            raise CliError("InputFile", "state file must hold a JSON object")
        for key in STATE_KEYS:
            if key not in doc:
                raise CliError("InputFile", f"state file missing key {key!r}")
            try:
                values[key] = float(doc[key])
            except (TypeError, ValueError) as exc:
                raise CliError("InputFile",
                               f"state file key {key!r} is not a number") from exc
    else:
        for key in STATE_KEYS:
            flag = getattr(args, key)
            if flag is None:
                raise CliError(
                    "MissingInput",
                    f"--{key.replace('_', '-')} is required (or use --input)")
            values[key] = flag
    try:
        return make_state(
            complex(values["mu_re"], values["mu_im"]),
            complex(values["nu_re"], values["nu_im"]),
            complex(values["x_re"], values["x_im"]),
            complex(values["y_re"], values["y_im"]),
            auto_normalize=args.normalize)
    except NonorthoError as exc:
        raise CliError(type(exc).__name__, str(exc)) from exc


def _emit(text: str, path: str | None) -> None:
    if path is None:
        print(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + ("" if text.endswith("\n") else "\n"))


def cmd_analyze(args: argparse.Namespace) -> int:
    state = _state_from_args(args)
    report = analyze_state(state, with_oracle=args.oracle, grid_n=args.grid_n,
                           refine_iters=args.refine_iters)
    doc = report.to_dict()
    doc["seed"] = args.seed
    _emit(to_json(doc), args.json)
    return 0


def _parse_sweep_spec(items: list[str] | None, what: str) -> dict:
    """Parse NAME=START:STOP:STEPS items, preserving order."""
    specs = {}
    for item in items or []:
        try:
            name, rng = item.split("=", 1)
            start, stop, steps = rng.split(":")
            spec = (float(start), float(stop), int(steps))
        except ValueError as exc:
            raise CliError("SweepSpec",
                           f"bad {what} {item!r}, expected NAME=START:STOP:STEPS") from exc
        if name not in SWEEP_PARAMS:
            raise CliError("SweepSpec",
                           f"unknown parameter {name!r}, choose from {SWEEP_PARAMS}")
        if name in specs:
            raise CliError("SweepSpec", f"parameter {name!r} given twice")
        if spec[2] < 2:
            raise CliError("SweepSpec", f"{name}: steps must be >= 2, got {spec[2]}")
        specs[name] = spec
    return specs


def _parse_fixes(items: list[str] | None) -> dict:
    fixes = {}
    for item in items or []:
        try:
            name, value = item.split("=", 1)
            fixes[name] = float(value)
        except ValueError as exc:
            raise CliError("SweepSpec", f"bad --fix {item!r}, expected NAME=VALUE") from exc
        if name not in SWEEP_PARAMS:
            raise CliError("SweepSpec",
                           f"unknown parameter {name!r}, choose from {SWEEP_PARAMS}")
    return fixes


def _validate_sweep_domain(name: str, lo: float, hi: float) -> None:
    if name == "mu_sq" and not (0.0 <= lo and hi <= 1.0):
        raise CliError("SweepSpec", "mu_sq range must lie within [0, 1]")
    if name in ("x_abs", "y_abs") and not (0.0 <= lo and hi < 1.0):
        raise CliError("SweepSpec", f"{name} range must lie within [0, 1)")


def cmd_sweep(args: argparse.Namespace) -> int:
    specs = _parse_sweep_spec(args.sweep, "--sweep")
    if not specs:
        raise CliError("SweepSpec", "at least one --sweep NAME=START:STOP:STEPS is required")
    fixes = _parse_fixes(args.fix)
    overlap = set(specs) & set(fixes)
    if overlap:
        raise CliError("SweepSpec", f"parameters both swept and fixed: {sorted(overlap)}")
    for name, (lo, hi, _) in specs.items():
        _validate_sweep_domain(name, min(lo, hi), max(lo, hi))
    for name, value in fixes.items():
        _validate_sweep_domain(name, value, value)

    axes = [(name, np.linspace(lo, hi, steps)) for name, (lo, hi, steps) in specs.items()]
    fixed = dict(SWEEP_DEFAULTS)
    fixed.update(fixes)

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    grids = np.meshgrid(*[axis for _, axis in axes], indexing="ij")
    flat = [g.ravel() for g in grids]
    names = [name for name, _ in axes]
    for idx in range(flat[0].size):
        params = dict(fixed)
        for name, column in zip(names, flat):
            params[name] = float(column[idx])
        params["eta"] = wrap_angle(params["eta"])
        try:
            state = state_from_magnitudes(params["mu_sq"], params["x_abs"],
                                          params["y_abs"], params["eta"])
        except NonorthoError as exc:
            raise CliError(type(exc).__name__,
                           f"row {idx}: {exc} (params {params})") from exc
        report = analyze_state(state, with_feasibility=False)
        writer.writerow(csv_row(params["mu_sq"], params["x_abs"], params["y_abs"],
                                params["eta"], report))
    _emit(buf.getvalue().rstrip("\n"), args.csv)
    return 0


def cmd_kaon(args: argparse.Namespace) -> int:
    eps = complex(args.eps_re, args.eps_im)
    evolution = None
    if args.t is not None:
        evolution = KaonEvolution(gamma_s=args.gamma_s, gamma_l=args.gamma_l, t=args.t)
    try:
        doc = kaon_report(eps, eta=args.eta, evolution=evolution,
                          with_oracle=args.oracle, grid_n=args.grid_n,
                          refine_iters=args.refine_iters)
    except NonorthoError as exc:
        raise CliError(type(exc).__name__, str(exc)) from exc
    doc["seed"] = args.seed
    _emit(to_json(doc), args.json)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    summary = run_verify(args.level, seed=args.seed, grid_n=args.grid_n,
                         refine_iters=args.refine_iters)
    for result in summary.results:
        tag = "PASS" if result.passed else "FAIL"
        print(f"[{tag}] {result.name}: {result.detail}")
    n_pass = sum(r.passed for r in summary.results)
    print(f"{n_pass}/{len(summary.results)} checks passed "
          f"(level {summary.level}, seed {summary.seed})")
    return 0 if summary.ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nonortho",
        description="Entanglement analysis for bipartite states over "
                    "non-orthogonal components")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="report for one state")
    _add_state_flags(p)
    _add_common_flags(p)
    p.add_argument("--oracle", action="store_true",
                   help="also run the brute-force CHSH maximizer")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("sweep", help="parameter sweep to CSV")
    p.add_argument("--sweep", action="append", metavar="NAME=START:STOP:STEPS",
                   help="swept parameter (repeatable; row-major in given order); "
                        f"names: {', '.join(SWEEP_PARAMS)}")
    p.add_argument("--fix", action="append", metavar="NAME=VALUE",
                   help="fixed parameter value (defaults: mu_sq=0.5, x_abs=0, "
                        "y_abs=0, eta=pi)")
    _add_common_flags(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("kaon", help="two-kaon report for a CP parameter")
    p.add_argument("--eps-re", type=float, required=True)
    p.add_argument("--eps-im", type=float, default=0.0)
    p.add_argument("--eta", type=float, default=math.pi,
                   help="phase input for the closed-form deviation (default pi)")
    p.add_argument("--gamma-s", type=float, default=1.0)
    p.add_argument("--gamma-l", type=float, default=0.002,
                   help="long-mode width relative to --gamma-s")
    p.add_argument("--t", type=float, default=None,
                   help="elapsed time; enables the intensity factor output")
    _add_common_flags(p)
    p.add_argument("--oracle", action="store_true",
                   help="also run the brute-force CHSH maximizer")
    p.set_defaults(func=cmd_kaon)

    p = sub.add_parser("verify", help="run the self-check suites")
    p.add_argument("level", choices=("quick", "full"), nargs="?", default="quick")
    _add_common_flags(p)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(exc.to_json())
        return 2
    except NonorthoError as exc:
        print(CliError(type(exc).__name__, str(exc)).to_json())
        return 2


if __name__ == "__main__":
    sys.exit(main())
