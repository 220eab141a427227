import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import nonortho.bell as bell_mod
import nonortho.feasibility as feasibility_mod
import nonortho.report as report_mod
import nonortho.verify as verify_mod
import nonortho.batch as batch_mod
from nonortho.cli import (STATE_KEYS, SWEEP_PARAMS, SWEEP_ROWS_MAX, build_parser, main,
                          parse_args)
from nonortho.errors import DomainError

ROOT = Path(__file__).resolve().parent.parent
SQ2 = 1.0 / math.sqrt(2.0)

SINGLET_FLAGS = ["--mu-re", str(SQ2), "--mu-im", "0",
                 "--nu-re", str(-SQ2), "--nu-im", "0",
                 "--x-re", "0", "--x-im", "0", "--y-re", "0", "--y-im", "0"]


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def test_analyze_singlet(capsys):
    code, out = run_cli(["analyze", *SINGLET_FLAGS], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["schema_version"] == 2
    assert doc["d"] == pytest.approx(0.0, abs=1e-12)
    assert doc["concurrence"] == pytest.approx(1.0, abs=1e-12)
    assert doc["entropy_bits"] == pytest.approx(1.0, abs=1e-12)
    assert doc["bell_analytic"] == pytest.approx(2 * math.sqrt(2), abs=1e-12)
    assert doc["feasibility"]["verdict"] == "FeasibleOrthogonal"
    assert doc["bell_oracle"] is None


def test_analyze_product_state(capsys):
    code, out = run_cli(["analyze", "--mu-re", "1", "--mu-im", "0",
                         "--nu-re", "0", "--nu-im", "0",
                         "--x-re", "0.5", "--x-im", "0",
                         "--y-re", "0.3", "--y-im", "0"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["d"] == pytest.approx(1.0, abs=1e-12)
    assert doc["concurrence"] == pytest.approx(0.0, abs=1e-12)
    assert doc["entropy_bits"] == pytest.approx(0.0, abs=1e-12)
    assert doc["bell_analytic"] == pytest.approx(2.0, abs=1e-12)


def test_analyze_single_overlap_example(capsys):
    # |mu|^2 = 1/2, s^2 = 0.1 -> d = 0.1, C = sqrt(0.9)
    m = SQ2
    code, out = run_cli(["analyze", "--mu-re", str(m), "--mu-im", "0",
                         "--nu-re", str(m), "--nu-im", "0",
                         "--x-re", str(math.sqrt(0.1)), "--x-im", "0",
                         "--y-re", "0", "--y-im", "0", "--normalize"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["d"] == pytest.approx(0.1, abs=1e-12)
    assert doc["concurrence"] == pytest.approx(math.sqrt(0.9), abs=1e-12)


def test_parser_is_built_once():
    assert build_parser() is build_parser()


def test_analyze_byte_stable(capsys):
    _, first = run_cli(["analyze", *SINGLET_FLAGS], capsys)
    _, second = run_cli(["analyze", *SINGLET_FLAGS], capsys)
    assert first == second


def test_analyze_rejects_dependent_overlap(capsys):
    code, out = run_cli(["analyze", "--mu-re", "1", "--mu-im", "0",
                         "--nu-re", "0", "--nu-im", "0",
                         "--x-re", "1.0", "--x-im", "0",
                         "--y-re", "0", "--y-im", "0"], capsys)
    assert code == 2
    doc = json.loads(out)
    assert doc["error"]["type"] == "LinearDependence"


def test_analyze_rejects_unnormalized(capsys):
    code, out = run_cli(["analyze", "--mu-re", "1", "--mu-im", "0",
                         "--nu-re", "1", "--nu-im", "0",
                         "--x-re", "0", "--x-im", "0",
                         "--y-re", "0", "--y-im", "0"], capsys)
    assert code == 2
    assert json.loads(out)["error"]["type"] == "NotNormalized"


def test_analyze_missing_flag(capsys):
    code, out = run_cli(["analyze", "--mu-re", "1"], capsys)
    assert code == 2
    assert json.loads(out)["error"]["type"] == "MissingInput"


def test_analyze_from_input_file(tmp_path, capsys):
    doc = {"mu_re": SQ2, "mu_im": 0.0, "nu_re": -SQ2, "nu_im": 0.0,
           "x_re": 0.0, "x_im": 0.0, "y_re": 0.0, "y_im": 0.0}
    path = tmp_path / "state.json"
    path.write_text(json.dumps(doc))
    code, out = run_cli(["analyze", "--input", str(path)], capsys)
    assert code == 0
    assert json.loads(out)["d"] == pytest.approx(0.0, abs=1e-12)


def test_analyze_input_file_missing_key(tmp_path, capsys):
    path = tmp_path / "state.json"
    path.write_text(json.dumps({"mu_re": 1.0}))
    code, out = run_cli(["analyze", "--input", str(path)], capsys)
    assert code == 2
    assert json.loads(out)["error"]["type"] == "InputFile"


@pytest.mark.parametrize("doc", [
    {"mu_re": 1.0, "mu_im": 0.0, "nu_re": 0.0, "nu_im": 0.0,
     "x_re": "abc", "x_im": 0.0, "y_re": 0.0, "y_im": 0.0},
    5.0,
])
def test_analyze_input_file_non_numeric(doc, tmp_path, capsys):
    path = tmp_path / "state.json"
    path.write_text(json.dumps(doc))
    code, out = run_cli(["analyze", "--input", str(path), "--normalize"], capsys)
    assert code == 2
    assert json.loads(out)["error"]["type"] == "InputFile"


def test_analyze_rejects_nan_component(capsys):
    code, out = run_cli(["analyze", "--mu-re=nan", *SINGLET_FLAGS[2:], "--normalize"],
                        capsys)
    assert code == 2
    assert json.loads(out)["error"]["type"] == "DomainError"


def test_analyze_json_to_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, _ = run_cli(["analyze", *SINGLET_FLAGS, "--json", str(target)], capsys)
    assert code == 0
    assert json.loads(target.read_text())["concurrence"] == pytest.approx(1.0)


def test_analyze_with_oracle(capsys):
    code, out = run_cli(["analyze", *SINGLET_FLAGS, "--oracle",
                         "--grid-n", "10", "--refine-iters", "12"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["bell_oracle"] == pytest.approx(2 * math.sqrt(2), abs=1e-4)


def state_flags(mu, nu, x, y):
    comps = (mu.real, mu.imag, nu.real, nu.imag, x.real, x.imag, y.real, y.imag)
    return [f"--{k.replace('_', '-')}={v!r}" for k, v in zip(STATE_KEYS, comps)]


# one single-overlap (ON) and one unequal-overlap (NN) state
INFEASIBLE_FLAGS = [state_flags(0.6 + 0j, 0.8j, 0.3 + 0j, 0j),
                    state_flags(0.6 + 0j, 0.8j, 0.3 + 0.1j, 0.5 + 0j)]


def test_default_reports_never_scan(monkeypatch, capsys):
    def no_scan(*args, **kwargs):
        raise AssertionError("concurrence_scan called")
    monkeypatch.setattr(feasibility_mod, "concurrence_scan", no_scan)
    monkeypatch.setattr(report_mod, "concurrence_scan", no_scan)
    for flags in INFEASIBLE_FLAGS:
        code, out = run_cli(["analyze", *flags, "--normalize"], capsys)
        assert code == 0
        feas = json.loads(out)["feasibility"]
        assert feas["verdict"] == "Infeasible" and feas["margin"] > 0
        assert feas["scan_margin"] is None
    code, _ = run_cli(["kaon", "--eps-re", "0.1"], capsys)
    assert code == 0


def test_oracle_runs_the_scan_once(monkeypatch, capsys):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return feasibility_mod.concurrence_scan(*args, **kwargs)
    monkeypatch.setattr(report_mod, "concurrence_scan", counting)
    for flags in INFEASIBLE_FLAGS:
        calls.clear()
        code, out = run_cli(["analyze", *flags, "--normalize", "--oracle",
                             "--grid-n", "8"], capsys)
        assert code == 0 and len(calls) == 1
        feas = json.loads(out)["feasibility"]
        assert abs(feas["scan_margin"] - feas["margin"]) <= 1e-6


@pytest.mark.parametrize("amp", [1e-200, 1e300])
def test_analyze_normalizes_extreme_amplitudes(amp, capsys):
    code, out = run_cli(["analyze", *state_flags(complex(amp), complex(amp), 0.5 + 0j, 0j),
                         "--normalize"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["input"]["mu_re"] == pytest.approx(doc["input"]["nu_re"])
    assert doc["d"] == pytest.approx(0.25, abs=1e-12)


@pytest.mark.parametrize("flag", ["--t=nan", "--gamma-s=nan", "--eta=nan", "--eta=inf"])
def test_kaon_rejects_non_finite_inputs(flag, capsys):
    code, out = run_cli(["kaon", "--eps-re=0.1", "--t=1", flag], capsys)
    assert code == 2
    assert json.loads(out)["error"]["type"] == "DomainError"


@pytest.mark.parametrize("argv,error", [
    (["analyze", *state_flags(1 + 0j, 0j, complex(1.5e308, 1.5e308), 0j)], "LinearDependence"),
    (["kaon", "--eps-re=1.5e308", "--eps-im=1.5e308"], "DomainError"),
    (["kaon", "--eps-re=0.1", "--eta=1.5e308"], "DomainError"),
    (["analyze", *state_flags(complex(1.5e308, 1.5e308), 0j, 0j, 0j)], "NotNormalized"),
])
def test_largest_floats_are_rejected(argv, error, capsys):
    code, out = run_cli(argv, capsys)
    assert code == 2
    assert json.loads(out)["error"]["type"] == error


def test_largest_amplitudes_normalize(capsys):
    """|mu| overflows a float, but --normalize rescales before squaring."""
    code, out = run_cli(["analyze", *state_flags(complex(1.5e308, 1.5e308), 0j, 0j, 0j),
                         "--normalize"], capsys)
    assert code == 0
    assert json.loads(out)["d"] == 1.0


def test_kaon_widths_near_the_largest_float(capsys):
    code, out = run_cli(["kaon", "--eps-re=0.1", "--gamma-s=1.5e308", "--gamma-l=1.5e308",
                         "--t=0"], capsys)
    assert code == 0
    assert json.loads(out)["kaon"]["weak_decay_norm"] == pytest.approx(1.01 / 0.99)


@pytest.mark.parametrize("argv", [
    ["analyze", *SINGLET_FLAGS, "--json"],
    ["kaon", "--eps-re", "1e-3", "--json"],
    ["sweep", "--sweep", "mu_sq=0:1:3", "--csv"],
])
@pytest.mark.parametrize("target", ["missing-dir/out.txt", "is-a-dir", "/dev/full"])
def test_unwritable_output_path_is_an_error_object(argv, target, tmp_path, capsys):
    (tmp_path / "is-a-dir").mkdir()
    code, out = run_cli([*argv, str(tmp_path / target)], capsys)
    assert code == 2
    assert json.loads(out)["error"]["type"] == "OutputFile"


@pytest.mark.parametrize("argv", [
    ["analyze", *SINGLET_FLAGS, "--csv", "OUT"],
    ["kaon", "--eps-re", "1e-3", "--csv", "OUT"],
    ["sweep", "--sweep", "mu_sq=0:1:3", "--json", "OUT"],
    ["verify", "quick", "--json", "OUT"],
    ["verify", "quick", "--csv", "OUT"],
    ["sweep", "--sweep", "mu_sq=0:1:3", "--seed", "3"],
    ["sweep", "--sweep", "mu_sq=0:1:3", "--grid-n", "10"],
    ["sweep", "--sweep", "mu_sq=0:1:3", "--refine-iters", "10"],
    ["analyze", *SINGLET_FLAGS, "--grid-n", "abc", "--json", "OUT"],
])
def test_flags_a_subcommand_ignores_are_usage_errors(argv, tmp_path, capsys):
    target = tmp_path / "out"
    code, out = run_cli([str(target) if a == "OUT" else a for a in argv], capsys)
    assert code == 2
    assert json.loads(out)["error"]["type"] == "Usage"
    assert not target.exists()


def test_help_still_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: nonortho analyze")


def module_env():
    """The environment for ``python -m nonortho`` on this checkout's sources."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    return env


def test_closed_stdout_ends_without_a_traceback():
    # under ``with`` both pipes close, whatever the asserts do
    with subprocess.Popen([sys.executable, "-m", "nonortho", "sweep",
                           "--sweep", "mu_sq=0:1:20000"], env=module_env(),
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        assert proc.stdout.readline().startswith(b"mu_sq,")
        proc.stdout.close()   # ~2 MB remain unwritten, far beyond a pipe's buffer
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 141
    assert err == b""


def _joined(flags):
    """``--flag value`` pairs as ``--flag=value`` items."""
    return [f"{flag}={value}" for flag, value in zip(flags[::2], flags[1::2])]


RUN_FLAGS = ["--seed", "3", "--grid-n", "10", "--refine-iters", "7"]
ANALYZE_FLAGS = [*SINGLET_FLAGS, "--input", "state.json", "--json", "out.json", *RUN_FLAGS]
SWEEP_FLAGS = ["--sweep", "mu_sq=0:1:3", "--sweep", "eta=-1:1:2", "--fix", "x_abs=0.2",
               "--fix", "y_abs=0.1", "--csv", "out.csv"]
KAON_FLAGS = ["--eps-re", "-0.001", "--eps-im", "2e-4", "--eta", "1.5", "--gamma-s", "2",
              "--gamma-l", "0.1", "--t", "0.5", "--json", "out.json", *RUN_FLAGS]


@pytest.mark.parametrize("argv", [
    ["analyze"],
    ["analyze", *ANALYZE_FLAGS, "--normalize", "--oracle"],
    ["analyze", *_joined(ANALYZE_FLAGS), "--oracle", "--normalize"],
    ["sweep"],
    ["sweep", *SWEEP_FLAGS],
    ["sweep", *_joined(SWEEP_FLAGS)],
    ["kaon", "--eps-re", "1e-3"],
    ["kaon", *KAON_FLAGS, "--oracle"],
    ["kaon", "--oracle", *_joined(KAON_FLAGS)],
    ["verify"],
    ["verify", "full", *RUN_FLAGS],
    ["verify", *_joined(RUN_FLAGS), "quick"],
])
def test_dispatch_builds_the_namespace_of_the_full_parse(argv):
    # main runs only the subcommand's parser; the namespace, its order
    # included, is the one the top-level parser builds
    expected = build_parser().parse_args(argv)
    assert list(vars(parse_args(argv)).items()) == list(vars(expected).items())


@pytest.mark.parametrize("argv,message", [
    ([], "nonortho: the following arguments are required: command"),
    (["analyze", *SINGLET_FLAGS, "stray"], "nonortho: unrecognized arguments: stray"),
    (["verify", "quick", "full"], "nonortho: unrecognized arguments: full"),
    (["sweep", "--sweep", "mu_sq=0:1:3", "--", "--csv"],
     "nonortho: unrecognized arguments: -- --csv"),
    (["analyze", *SINGLET_FLAGS, "--grid-n", "abc"],
     "nonortho analyze: argument --grid-n: invalid int value: 'abc'"),
])
def test_usage_error_objects_are_byte_stable(argv, message, capsys):
    code, out = run_cli(argv, capsys)
    assert code == 2
    assert out == ('{\n  "error": {\n    "type": "Usage",\n'
                   f'    "message": {json.dumps(message)}\n  }}\n}}\n')


def test_unknown_subcommand_is_a_usage_error(capsys):
    code, out = run_cli(["analyse", *SINGLET_FLAGS], capsys)
    assert code == 2
    error = json.loads(out)["error"]
    assert error["type"] == "Usage"
    assert error["message"].startswith("nonortho: argument command: invalid choice: 'analyse'")


def test_module_entry_point_parses_sys_argv():
    def run(*args):
        return subprocess.run([sys.executable, "-m", "nonortho", *args], env=module_env(),
                              capture_output=True, text=True, timeout=60)

    bare = run()
    assert bare.returncode == 2
    assert json.loads(bare.stdout)["error"] == {
        "type": "Usage", "message": "nonortho: the following arguments are required: command"}
    helped = run("analyze", "--help")
    assert helped.returncode == 0
    assert helped.stdout.startswith("usage: nonortho analyze")


def test_analyze_oracle_rejects_tiny_grid(capsys):
    code, out = run_cli(["analyze", *SINGLET_FLAGS, "--oracle", "--grid-n", "4"], capsys)
    assert code == 2
    assert json.loads(out)["error"]["type"] == "DomainError"


def test_analyze_oracle_rejects_negative_refine_iters(capsys):
    code, out = run_cli(["analyze", *SINGLET_FLAGS, "--oracle", "--refine-iters", "-5"], capsys)
    assert code == 2
    error = json.loads(out)["error"]
    assert error["type"] == "DomainError" and "refine_iters" in error["message"]


@pytest.mark.parametrize("argv", [
    ["analyze", *SINGLET_FLAGS, "--oracle", "--grid-n", "65"],
    ["kaon", "--eps-re", "0.1", "--oracle", "--grid-n", "65"],
    # odd: within [8, 64], but with more orbit settings than 64 has
    ["analyze", *SINGLET_FLAGS, "--oracle", "--grid-n", "63"],
])
def test_oracle_rejects_a_grid_above_the_cap_before_building_it(argv, monkeypatch, capsys):
    # the grid's arrays grow as grid_n^4; none may be built
    monkeypatch.setattr(bell_mod, "_grid_constants", None)
    code, out = run_cli(argv, capsys)
    assert code == 2
    error = json.loads(out)["error"]
    assert error["type"] == "DomainError" and "grid_n" in error["message"]


@pytest.mark.parametrize("argv, arg", [
    (["verify", "full", "--refine-iters", "-5"], "refine_iters"),
    (["verify", "quick", "--grid-n", "4"], "grid_n"),
    (["verify", "full", "--grid-n", "65"], "grid_n"),
    # the checks draw from seeds seed to seed + 5, so -1 would break some
    (["verify", "quick", "--seed", "-1"], "seed"),
    (["verify", "full", "--seed", "-5"], "seed"),
    # odd: within [8, 64], but with more orbit settings than 64 has
    (["verify", "full", "--grid-n", "47"], "grid_n"),
])
def test_verify_rejects_bad_oracle_args_before_any_check(argv, arg, monkeypatch, capsys):
    def no_check(name, fn):
        raise AssertionError(f"check {name} ran")

    monkeypatch.setattr(verify_mod, "_run", no_check)
    code, out = run_cli(argv, capsys)
    assert code == 2
    error = json.loads(out)["error"]
    assert error["type"] == "DomainError" and arg in error["message"]


EDGE_VALUES = st.sampled_from([math.nan, math.inf, -math.inf, 1.5e308, -1.5e308, 1e300,
                               -1e300, 1e-300, -1e-300, 0.0, -0.0, 1.0, -1.0])


def values(bound):
    """One branch in eight draws an edge value, the rest a float in [-bound, bound]."""
    return st.one_of(EDGE_VALUES, *[st.floats(-bound, bound)] * 7)


def _reject_constant(name):
    raise ValueError(f"non-JSON constant {name}")


def assert_clean_exit(argv):
    """The run ends in exit 0 with strict JSON, or in exit 2 with an error object."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    doc = json.loads(buf.getvalue(), parse_constant=_reject_constant)
    if code == 0:
        assert "error" not in doc and doc["schema_version"] == 2
    else:
        assert code == 2 and set(doc) == {"error"}


def oracle_flags(draw):
    if draw(st.integers(0, 3)):
        return []
    return ["--oracle", f"--grid-n={draw(st.integers(0, 9))}", "--refine-iters=3"]


@st.composite
def analyze_argv(draw):
    bounds = {k: 0.7 if k[0] in "xy" else 2.0 for k in STATE_KEYS}   # overlaps, amplitudes
    argv = ["analyze", *[f"--{k.replace('_', '-')}={draw(values(b))!r}"
                         for k, b in bounds.items()]]
    return argv + (["--normalize"] if draw(st.integers(0, 3)) else []) + oracle_flags(draw)


@st.composite
def kaon_argv(draw):
    argv = ["kaon"]
    for flag in ("--eps-re", "--eps-im", "--eta", "--gamma-s", "--gamma-l", "--t"):
        if flag == "--eps-re" or draw(st.booleans()):
            argv.append(f"{flag}={draw(values(0.7 if flag.startswith('--eps') else 5))!r}")
    return argv + oracle_flags(draw)


@st.composite
def input_documents(draw):
    value = values(0.7) | st.none() | st.text(max_size=3)
    doc = {k: draw(value) for k in STATE_KEYS if draw(st.integers(0, 9))}
    return draw(st.sampled_from([doc, doc, doc, [doc], 5.0, None]))


FUZZ = settings(max_examples=150, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


@FUZZ
@given(argv=analyze_argv())
def test_fuzz_analyze_argv(argv):
    assert_clean_exit(argv)


@FUZZ
@given(argv=kaon_argv())
def test_fuzz_kaon_argv(argv):
    assert_clean_exit(argv)


@FUZZ
@given(doc=input_documents(), normalize=st.booleans())
def test_fuzz_input_documents(doc, normalize, tmp_path):
    path = tmp_path / "state.json"
    path.write_text(json.dumps(doc))
    assert_clean_exit(["analyze", "--input", str(path), *(["--normalize"] if normalize else [])])


# one bound in four is an edge value
SWEEP_BOUNDS = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, 1e300, -1e300, 0.0, 1.0, 0.999]),
    *[st.floats(0.0, 1.0, exclude_max=True)] * 3)
SWEEP_STEPS = st.sampled_from([2, 3, 4, 5, 6] * 2 + [0, 1])   # one in six is < 2


@st.composite
def sweep_argv(draw):
    """Distinct known names, and in some draws one more: unknown, repeated or
    conflicting."""
    names = draw(st.permutations(SWEEP_PARAMS))
    n_swept = draw(st.sampled_from([1, 2, 3, 0]))
    swept = list(names[:n_swept])
    fixed = list(names[n_swept:n_swept + draw(st.integers(0, 4 - n_swept))])
    extra = draw(st.sampled_from([None] * 12 + ["zeta", "", *SWEEP_PARAMS]))
    if extra is not None:
        draw(st.sampled_from([swept, fixed])).append(extra)
    argv = ["sweep"]
    for name in swept:
        lo, hi, steps = draw(SWEEP_BOUNDS), draw(SWEEP_BOUNDS), draw(SWEEP_STEPS)
        argv += ["--sweep", f"{name}={lo!r}:{hi!r}:{steps}"]
    for name in fixed:
        argv += ["--fix", f"{name}={draw(SWEEP_BOUNDS)!r}"]
    return argv


@FUZZ
@given(argv=sweep_argv())
def test_fuzz_sweep_argv(argv):
    """Exit 0 with finite CSV rows obeying C^2 + d = 1, or exit 2 with an error object."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    if code == 2:
        assert set(json.loads(buf.getvalue())) == {"error"}
        return
    assert code == 0
    header, data = parse_csv(buf.getvalue())
    assert data and all(len(row) == len(header) for row in data)
    conc, d = header.index("concurrence"), header.index("d")
    for row in data:
        assert all(map(math.isfinite, row))
        assert abs(row[conc] ** 2 + row[d] - 1.0) <= 1e-10


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    header, data = rows[0], rows[1:]
    return header, [[float(v) for v in row] for row in data]


def test_sweep_single_overlap_tracks_squared_overlap(capsys):
    code, out = run_cli(["sweep", "--sweep", f"y_abs=0:{math.sqrt(0.5)}:40",
                         "--fix", "mu_sq=0.5"], capsys)
    assert code == 0
    header, data = parse_csv(out)
    assert header[:4] == ["mu_sq", "x_abs", "y_abs", "eta"]
    d_col = header.index("d")
    y_col = header.index("y_abs")
    assert len(data) == 40
    for row in data:
        assert abs(row[d_col] - row[y_col] ** 2) <= 1e-11


def test_sweep_amplitude_split_orthogonal_case(capsys):
    code, out = run_cli(["sweep", "--sweep", "mu_sq=0:1:51"], capsys)
    assert code == 0
    header, data = parse_csv(out)
    d_col = header.index("d")
    q_col = header.index("mu_sq")
    for row in data:
        q = row[q_col]
        assert abs(row[d_col] - (1 - 4 * q * (1 - q))) <= 1e-11


def test_sweep_row_major_order_and_determinism(capsys):
    args = ["sweep", "--sweep", "mu_sq=0.2:0.8:3", "--sweep", "y_abs=0:0.5:2"]
    code, first = run_cli(args, capsys)
    assert code == 0
    _, second = run_cli(args, capsys)
    assert first == second
    _, data = parse_csv(first)
    # first axis varies slowest
    assert [row[0] for row in data] == pytest.approx([0.2, 0.2, 0.5, 0.5, 0.8, 0.8])
    assert [row[2] for row in data] == pytest.approx([0, 0.5, 0, 0.5, 0, 0.5])


def test_sweep_csv_to_file(tmp_path, capsys):
    target = tmp_path / "sweep.csv"
    code, _ = run_cli(["sweep", "--sweep", "mu_sq=0:1:5", "--csv", str(target)],
                      capsys)
    assert code == 0
    header, data = parse_csv(target.read_text())
    assert len(data) == 5


def test_sweep_requires_a_parameter(capsys):
    code, out = run_cli(["sweep"], capsys)
    assert code == 2
    assert json.loads(out)["error"]["type"] == "SweepSpec"


def test_sweep_rejects_single_step(capsys):
    code, out = run_cli(["sweep", "--sweep", "mu_sq=0:1:1"], capsys)
    assert code == 2
    assert json.loads(out)["error"]["type"] == "SweepSpec"


def test_sweep_rejects_unknown_parameter(capsys):
    code, out = run_cli(["sweep", "--sweep", "zeta=0:1:5"], capsys)
    assert code == 2


def test_sweep_rejects_out_of_domain(capsys):
    code, out = run_cli(["sweep", "--sweep", "x_abs=0:1.0:5"], capsys)
    assert code == 2


@pytest.mark.parametrize("args", [
    ["--sweep", "mu_sq=1:nan:3"],
    ["--sweep", "x_abs=0:nan:3"],
    ["--sweep", "eta=0:inf:3"],
    ["--sweep", "eta=-1.5e308:1.5e308:3"],
    ["--sweep", "mu_sq=0:1:3", "--fix", "eta=nan"],
    ["--sweep", "mu_sq=0:1:3", "--fix", "y_abs=-inf"],
])
def test_sweep_rejects_non_finite_spec(args, capsys):
    code, out = run_cli(["sweep", *args], capsys)
    assert code == 2
    assert json.loads(out)["error"]["type"] == "SweepSpec"


@pytest.mark.parametrize("args", [
    ["--sweep", "mu_sq=0:1:100000000000000000000"],
    ["--sweep", "mu_sq=0:1:3000000000000", "--sweep", "eta=0:1:3000000"],
    ["--sweep", f"mu_sq=0:1:{SWEEP_ROWS_MAX + 1}"],
    ["--sweep", "x_abs=0:0.5:2", "--sweep", f"eta=0:1:{SWEEP_ROWS_MAX // 2 + 1}"],
])
def test_sweep_rejects_more_rows_than_the_cap_before_allocating(args, capsys, monkeypatch):
    # numpy used to end the first two in a traceback (size exceeded, out of
    # memory); each is rejected before any axis is built, so none allocates
    def no_linspace(*_args, **_kwargs):
        raise AssertionError("an oversized sweep built an axis")

    monkeypatch.setattr(np, "linspace", no_linspace)
    code, out = run_cli(["sweep", *args], capsys)
    assert code == 2
    error = json.loads(out)["error"]
    assert error["type"] == "SweepSpec" and f"{SWEEP_ROWS_MAX} allowed" in error["message"]


@pytest.mark.parametrize("to_file", [False, True])
def test_sweep_rejecting_a_late_row_writes_nothing(to_file, tmp_path, capsys, monkeypatch):
    # no grid the CLI accepts holds a row the scalar path rejects, so both
    # reject one row of the second block here; the rows before it are valid
    steps, bad = batch_mod.BLOCK_ROWS + 200, batch_mod.BLOCK_ROWS + 37
    bad_mu_sq = np.linspace(0.0, 1.0, steps)[bad]
    states, scalar = batch_mod._states, batch_mod.state_from_magnitudes

    def reject_in_batch(mu_sq, *rest):
        *state, ok = states(mu_sq, *rest)
        return (*state, ok & (mu_sq != bad_mu_sq))

    def reject_in_scalar(mu_sq, *rest):
        if mu_sq == bad_mu_sq:
            raise DomainError("rejected")
        return scalar(mu_sq, *rest)

    monkeypatch.setattr(batch_mod, "_states", reject_in_batch)
    monkeypatch.setattr(batch_mod, "state_from_magnitudes", reject_in_scalar)
    target = tmp_path / "sweep.csv"
    argv = ["sweep", "--sweep", f"mu_sq=0:1:{steps}", *(["--csv", str(target)] * to_file)]
    code, out = run_cli(argv, capsys)
    assert code == 2
    error = json.loads(out)["error"]
    assert error["type"] == "DomainError"
    assert error["message"].startswith(f"row {bad}: rejected (params ")
    assert not target.exists()


def test_kaon_cp_conserving(capsys):
    code, out = run_cli(["kaon", "--eps-re", "0"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["d"] == pytest.approx(0.0, abs=1e-12)
    assert doc["concurrence"] == pytest.approx(1.0, abs=1e-12)
    assert doc["kaon"]["overlap_re"] == 0.0


def test_kaon_small_epsilon(capsys):
    code, out = run_cli(["kaon", "--eps-re", "1e-3"], capsys)
    assert code == 0
    doc = json.loads(out)
    k = doc["kaon"]
    assert doc["d"] == pytest.approx(0.0, abs=1e-12)
    assert k["overlap_re"] == pytest.approx(2e-3 / (1 + 1e-6), abs=1e-15)
    assert k["overlap_mag_sq_alt"] == pytest.approx((1e-3 / (1 + 1e-6)) ** 2)
    assert "closed_form_d_plus" in k and "closed_form_d_minus" in k
    assert k["discrepancy_plus"] >= 0
    assert k["weak_decay_norm"] is None


def test_kaon_with_evolution(capsys):
    code, out = run_cli(["kaon", "--eps-re", "0", "--gamma-s", "1",
                         "--gamma-l", "0.5", "--t", str(2 / 1.5)], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["kaon"]["weak_decay_norm"] == pytest.approx(math.exp(-1), abs=1e-12)


def test_kaon_rejects_large_epsilon(capsys):
    code, out = run_cli(["kaon", "--eps-re", "1.5"], capsys)
    assert code == 2
    assert json.loads(out)["error"]["type"] == "DomainError"


def test_kaon_rejects_nan_epsilon(capsys):
    code, out = run_cli(["kaon", "--eps-re", "nan"], capsys)
    assert code == 2
    assert json.loads(out)["error"]["type"] == "DomainError"


EQUAL_OVERLAP_STATE = ["--mu-re", "0.6", "--mu-im", "0", "--nu-re", "0.5", "--nu-im", "0"]


def test_equal_overlaps_near_one_end_in_a_report_or_an_error_object(capsys):
    # the feasibility witness q = 1/(2(1 - |x|^2)) cancels as |x| = |y| -> 1;
    # a witness that fails validation is a WitnessUnverified error object
    argvs = [["analyze", *EQUAL_OVERLAP_STATE, "--x-re", repr(t), "--x-im", "0",
              "--y-re", repr(t), "--y-im", "0", "--normalize"]
             for t in (1.0 - 10.0 ** -k for k in np.linspace(2.0, 13.0, 45).tolist())]
    argvs.append(["kaon", "--eps-re", "0.9999"])
    kinds = []
    for argv in argvs:
        code, out = run_cli(argv, capsys)
        assert code in (0, 2), argv
        kinds.append("report" if code == 0 else json.loads(out)["error"]["type"])
    assert kinds[-1] == "WitnessUnverified"
    assert "report" in kinds
    repro = ["analyze", *EQUAL_OVERLAP_STATE, "--x-re", "0.9999999683772234", "--x-im", "0",
             "--y-re", "0.9999999683772234", "--y-im", "0", "--normalize"]
    code, out = run_cli(repro, capsys)
    assert code == 2
    err = json.loads(out)["error"]
    assert err["type"] == "WitnessUnverified"
    assert err["message"].startswith("feasibility witness q=")


def test_verify_quick_passes(capsys):
    code, out = run_cli(["verify", "quick"], capsys)
    assert code == 0
    assert "[PASS]" in out
    assert "[FAIL]" not in out
