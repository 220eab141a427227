"""The experiment scripts run to completion against the current package."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def script_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    return env


def run_script(name, *args):
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          env=script_env(), capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("name, args", [("kaon_audit.py", []), ("oracle_check.py", ["2"])])
def test_script_exits_zero(name, args):
    result = run_script(name, *args)
    assert result.returncode == 0, result.stderr
    if name == "oracle_check.py":
        assert re.search(r"^oracle stages per state: grid stage median \d+\.\d\d ms, "
                         r"refinement median \d+\.\d\d ms$", result.stdout, re.MULTILINE)
        if sys.platform.startswith("linux"):
            assert "minor page faults per oracle call: first call " in result.stdout


@pytest.mark.parametrize("count", ["0", "-3", "abc"])
def test_oracle_check_rejects_a_bad_count(count):
    result = run_script("oracle_check.py", count)
    assert result.returncode == 2
    assert "Traceback" not in result.stderr
    assert result.stderr.startswith("usage: oracle_check.py") and result.stderr.count("\n") == 1
    assert result.stdout == ""


def test_overlap_sweep_writes_csv(tmp_path):
    result = run_script("overlap_sweep.py", str(tmp_path))
    assert result.returncode == 0, result.stderr
    assert (tmp_path / "on_sweep.csv").exists() and (tmp_path / "oo_sweep.csv").exists()


def test_oracle_check_with_closed_stdout_ends_without_a_traceback():
    proc = subprocess.Popen([sys.executable, str(ROOT / "scripts" / "oracle_check.py"), "2"],
                            env=script_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.close()     # before the script has written anything
    err = proc.stderr.read()
    assert proc.wait(timeout=300) == 141
    assert err == b""
