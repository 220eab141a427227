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


def test_script_exits_zero():
    result = run_script("oracle_check.py", "2")
    assert result.returncode == 0, result.stderr
    assert re.search(r"^oracle stages per state: grid stage median \d+\.\d\d ms, "
                     r"refinement median \d+\.\d\d ms$", result.stdout, re.MULTILINE)
    assert re.search(r"^grid stage split per state: pair ranking median \d+\.\d\d ms, "
                     r"rest median -?\d+\.\d\d ms$", result.stdout, re.MULTILINE)
    assert re.search(r"^float32 cut survivors per state, of 35245 pairs: random median "
                     r"\d+(\.5)?, max \d+; boundary family median \d+(\.5)?, max \d+$",
                     result.stdout, re.MULTILINE)
    assert re.search(r"^boundary family, 6 states, oracle time per state: "
                     r"median \d+\.\d ms, worst \d+\.\d ms, "
                     r"worst \|oracle - analytic\| = \d\.\d{3}e[-+]\d\d$",
                     result.stdout, re.MULTILINE)
    if sys.platform.startswith("linux"):
        assert "minor page faults per oracle call: first call " in result.stdout


@pytest.mark.parametrize("count", ["0", "-3", "abc"])
def test_oracle_check_rejects_a_bad_count(count):
    result = run_script("oracle_check.py", count)
    assert result.returncode == 2
    assert "Traceback" not in result.stderr
    assert result.stderr.startswith("usage: oracle_check.py") and result.stderr.count("\n") == 1
    assert result.stdout == ""


def test_oracle_check_with_closed_stdout_ends_without_a_traceback():
    # under ``with`` both pipes close, whatever the asserts do
    with subprocess.Popen([sys.executable, str(ROOT / "scripts" / "oracle_check.py"), "2"],
                          env=script_env(), stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE) as proc:
        proc.stdout.close()     # before the script has written anything
        err = proc.stderr.read()
        assert proc.wait(timeout=300) == 141
    assert err == b""
