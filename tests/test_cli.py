import csv
import io
import json
import math

import pytest

from nonortho.cli import main

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
    assert doc["schema_version"] == 1
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


def test_verify_quick_passes(capsys):
    code, out = run_cli(["verify", "quick"], capsys)
    assert code == 0
    assert "[PASS]" in out
    assert "[FAIL]" not in out
