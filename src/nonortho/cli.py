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
object on stdout), 1 for verify when any check fails, 141 (128 + SIGPIPE)
when the reader closes stdout early.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from typing import Iterable, Iterator

import numpy as np

from .batch import grid_rows, sweep_blocks, wrap_angles
from .bell import DEFAULT_GRID_N, DEFAULT_REFINE_ITERS, GRID_N_MAX
from .errors import NonorthoError
from .kaon import KaonEvolution
from .report import (CSV_COLUMNS, analyze_state, csv_block, csv_fields, csv_numbers,
                     kaon_report, to_json)
from .sampling import DEFAULT_SEED
from .state import make_state
from .verify import run_verify

STATE_KEYS = ("mu_re", "mu_im", "nu_re", "nu_im", "x_re", "x_im", "y_re", "y_im")

SEED_IN_REPORT = 'copied into the JSON "seed" field; this command draws no random number'

SWEEP_PARAMS = ("mu_sq", "x_abs", "y_abs", "eta")
SWEEP_DEFAULTS = {"mu_sq": 0.5, "x_abs": 0.0, "y_abs": 0.0, "eta": math.pi}
# A sweep checks every row before it writes any (so a rejected row leaves
# only the error object), holding each row's six report scalars as float64
# until then: ~54 MB of peak RSS per million rows, measured, so about 0.3 GB
# at this cap, which is checked before any axis is built.
SWEEP_ROWS_MAX = 5_000_000


class CliError(Exception):
    """Validation failure carrying the machine-readable error object."""

    def __init__(self, kind: str, message: str):
        super().__init__(message)
        self.kind = kind

    def to_json(self) -> str:
        return to_json({"error": {"type": self.kind, "message": str(self)}})


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors raise CliError("Usage") for ``main``.

    Subparsers are built with the class of their parent, so they raise too;
    ``--help`` still prints and exits 0.  ``build_parser`` sets ``commands``
    on the top-level parser: the name -> subparser mapping of its
    subcommands.
    """

    commands: dict[str, argparse.ArgumentParser]

    def error(self, message: str):
        raise CliError("Usage", f"{self.prog}: {message}")


def _add_state_flags(parser: argparse.ArgumentParser) -> None:
    for key in STATE_KEYS:
        parser.add_argument(f"--{key.replace('_', '-')}", type=float, default=None)
    parser.add_argument("--normalize", action="store_true",
                        help="rescale amplitudes to unit norm")
    parser.add_argument("--input", type=str, default=None, metavar="JSON",
                        help="JSON file with the eight state components")


def _add_output_flag(parser: argparse.ArgumentParser, fmt: str) -> None:
    parser.add_argument(f"--{fmt}", type=str, default=None, metavar="PATH",
                        help=f"write the {fmt.upper()} output to PATH instead of stdout")


def _add_run_flags(parser: argparse.ArgumentParser, seed_help: str) -> None:
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"{seed_help} (default %(default)s)")
    parser.add_argument("--grid-n", type=int, default=DEFAULT_GRID_N,
                        help="grid resolution per angle for the CHSH maximizer, "
                             f"8 to {GRID_N_MAX}, odd values up to 45 (default %(default)s)")
    parser.add_argument("--refine-iters", type=int, default=DEFAULT_REFINE_ITERS,
                        help="most Newton refinement steps of the CHSH maximizer, which "
                             "stops sooner once a step gains no more than the value's "
                             "rounding (default %(default)s)")


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
    return make_state(
        complex(values["mu_re"], values["mu_im"]),
        complex(values["nu_re"], values["nu_im"]),
        complex(values["x_re"], values["x_im"]),
        complex(values["y_re"], values["y_im"]),
        auto_normalize=args.normalize)


def _emit(texts: Iterable[str], path: str | None) -> None:
    """Write the texts, each ending in its newline, to PATH, or to stdout.

    A PATH that cannot be opened or written raises CliError("OutputFile"),
    so stdout carries only the error object.
    """
    if path is None:
        sys.stdout.writelines(texts)
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(texts)
    except OSError as exc:
        raise CliError("OutputFile", f"cannot write output file: {exc}") from exc


def cmd_analyze(args: argparse.Namespace) -> int:
    state = _state_from_args(args)
    report = analyze_state(state, with_oracle=args.oracle, grid_n=args.grid_n,
                           refine_iters=args.refine_iters)
    doc = report.to_dict()
    doc["seed"] = args.seed
    _emit([to_json(doc) + "\n"], args.json)
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


def _validate_sweep_domain(name: str, *values: float) -> None:
    lo, hi = min(values), max(values)
    # min and max skip NaN, and linspace yields NaN when hi - lo overflows
    if not (all(map(math.isfinite, values)) and math.isfinite(hi - lo)):
        raise CliError("SweepSpec",
                       f"{name} values and their span must be finite, got {list(values)}")
    if name == "mu_sq" and not (0.0 <= lo and hi <= 1.0):
        raise CliError("SweepSpec", "mu_sq range must lie within [0, 1]")
    if name in ("x_abs", "y_abs") and not (0.0 <= lo and hi < 1.0):
        raise CliError("SweepSpec", f"{name} range must lie within [0, 1)")


def cmd_sweep(args: argparse.Namespace) -> int:
    """Write the CSV rows of a parameter grid; raise CliError("SweepSpec") on a bad spec.

    The grid is row-major in the order of the --sweep flags (the first
    varies slowest); the other parameters take their --fix or
    SWEEP_DEFAULTS values, and eta is wrapped to (-pi, pi].  A grid of more
    than SWEEP_ROWS_MAX rows is rejected before any axis is built.  Every
    row is checked before any is written.  Then each parameter's distinct
    values are formatted once, as NUL-padded byte fields, and each block's
    text is one ``report.csv_block`` call (see :func:`_sweep_lines`), which
    formats the block's six report scalars with one numpy kernel, byte for
    byte as ``"%.12g"``.
    """
    specs = _parse_sweep_spec(args.sweep, "--sweep")
    if not specs:
        raise CliError("SweepSpec", "at least one --sweep NAME=START:STOP:STEPS is required")
    fixes = _parse_fixes(args.fix)
    overlap = set(specs) & set(fixes)
    if overlap:
        raise CliError("SweepSpec", f"parameters both swept and fixed: {sorted(overlap)}")
    for name, (lo, hi, _) in specs.items():
        _validate_sweep_domain(name, lo, hi)
    for name, value in fixes.items():
        _validate_sweep_domain(name, value)

    rows = math.prod(steps for _, _, steps in specs.values())
    if rows > SWEEP_ROWS_MAX:
        raise CliError("SweepSpec", f"the sweep has {rows} rows, more than the "
                                    f"{SWEEP_ROWS_MAX} allowed")

    # each parameter's distinct values and their run in the rows' row-major
    # meshgrid (batch.grid_rows), eta wrapped as each row's is
    axes = {name: np.array([value]) for name, value in {**SWEEP_DEFAULTS, **fixes}.items()}
    runs = dict.fromkeys(SWEEP_PARAMS, rows)
    run = rows
    for name, (lo, hi, steps) in specs.items():
        run //= steps
        axes[name], runs[name] = np.linspace(lo, hi, steps), run
    axes["eta"] = wrap_angles(axes["eta"])
    # the blocks wait as float columns until every row has passed, so a
    # rejected row leaves only the error object
    blocks = list(sweep_blocks([(axes[name], runs[name]) for name in SWEEP_PARAMS], rows))
    # each distinct value is formatted once, and its bytes laid out per block
    fields = {name: csv_fields(csv_numbers(values.tolist())) for name, values in axes.items()}
    _emit(_sweep_lines(fields, runs, blocks), args.csv)
    return 0


def _sweep_lines(fields: dict, runs: dict, blocks: list) -> Iterator[str]:
    """The CSV header line, then the lines of each block, one text per block.

    A block's text is one ``report.csv_block`` call: its parameter fields are
    the columns of ``fields`` laid out by ``batch.grid_rows``, and its six
    ``batch.sweep_blocks`` scalar columns are formatted together.
    """
    yield ",".join(CSV_COLUMNS) + "\n"
    start = 0
    for scalars in blocks:
        stop = start + len(scalars[0])
        yield csv_block([grid_rows(fields[name], runs[name], start, stop)
                         for name in SWEEP_PARAMS], scalars)
        start = stop


def cmd_kaon(args: argparse.Namespace) -> int:
    eps = complex(args.eps_re, args.eps_im)
    evolution = None
    if args.t is not None:
        evolution = KaonEvolution(gamma_s=args.gamma_s, gamma_l=args.gamma_l, t=args.t)
    doc = kaon_report(eps, eta=args.eta, evolution=evolution, with_oracle=args.oracle,
                      grid_n=args.grid_n, refine_iters=args.refine_iters)
    doc["seed"] = args.seed
    _emit([to_json(doc) + "\n"], args.json)
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="nonortho",
        description="Entanglement analysis for bipartite states over "
                    "non-orthogonal components")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="report for one state")
    _add_state_flags(p)
    _add_output_flag(p, "json")
    _add_run_flags(p, SEED_IN_REPORT)
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
    _add_output_flag(p, "csv")
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
    _add_output_flag(p, "json")
    _add_run_flags(p, SEED_IN_REPORT)
    p.add_argument("--oracle", action="store_true",
                   help="also run the brute-force CHSH maximizer")
    p.set_defaults(func=cmd_kaon)

    p = sub.add_parser("verify", help="run the self-check suites")
    p.add_argument("level", choices=("quick", "full"), nargs="?", default="quick")
    _add_run_flags(p, "seed of the checks' random draws")
    p.set_defaults(func=cmd_verify)

    parser.commands = sub.choices
    return parser


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    """``build_parser().parse_args(argv)``, running only the subcommand's parser.

    When ``argv[0]`` names a subcommand, its parser reads the rest, into a
    namespace that already holds ``command``, and leftover arguments raise
    the top-level parser's own ``unrecognized arguments`` error: the same
    namespace and messages as the full parse, without the top-level pass.
    Anything else (no arguments, ``-h``, an unknown name) takes the full
    parse.  ``argv=None`` reads ``sys.argv[1:]``.
    """
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    command = parser.commands.get(argv[0]) if argv else None
    if command is None:
        return parser.parse_args(argv)
    args, extras = command.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
    if extras:
        parser.error(f"unrecognized arguments: {' '.join(extras)}")
    return args


def main(argv: list[str] | None = None) -> int:
    try:
        args = parse_args(argv)
        return args.func(args)
    except BrokenPipeError:
        # the reader closed stdout early (``| head``): point stdout at devnull, so that the
        # interpreter's final flush cannot fail again, and exit 128 + SIGPIPE, as that signal would
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except CliError as exc:
        print(exc.to_json())
        return 2
    except NonorthoError as exc:
        print(CliError(type(exc).__name__, str(exc)).to_json())
        return 2


if __name__ == "__main__":
    sys.exit(main())
