import ast
import math
import re
from pathlib import Path

import numpy as np
import pytest

import nonortho.verify as verify_mod
from nonortho.errors import DomainError
from nonortho.verify import Gate, checks, judge, run_verify


def test_judge_formats_each_bound_kind():
    passed, detail = judge([Gate("err", [1e-13, -2e-13], high=1e-12),
                            Gate("gap", [3e-8, 5e-8], low=-1e-10),
                            Gate("spread", [-1e-10, 2e-7], low=-1e-9, high=1e-6),
                            Gate("missed", 0, high=0)])
    assert passed
    assert detail == ("err 1.00e-13 (tol 1e-12), gap 3.00e-08 (>= -1e-10), "
                      "spread [-1.00e-10, 2.00e-07] (within [-1e-9, 1e-6]), missed 0 (tol 0)")


def test_judge_counts_the_values_outside():
    passed, detail = judge([Gate("short", [0.0, 2e-9, 3e-9, 0.0], high=1e-9),
                            Gate("missed", 1, high=0)])
    assert not passed
    assert detail == "short 3.00e-09 (tol 1e-9, 2/4 outside), missed 1 (tol 0)"


@pytest.mark.parametrize("where", [0, 1, 2])
@pytest.mark.parametrize("bounds", [{"high": 1.0}, {"low": -1.0}, {"low": -1.0, "high": 1.0}])
def test_judge_fails_a_nan_anywhere(where, bounds):
    values = [0.0, 0.0, 0.0]
    values[where] = math.nan
    passed, detail = judge([Gate("ok", 0.5, **bounds), Gate("err", values, **bounds)])
    assert not passed
    assert "nan" in detail and "1/3 outside" in detail


def test_a_raising_check_is_a_failure():
    def crash():
        raise ValueError("boom")

    result = verify_mod._run("crash", crash)
    assert not result.passed and result.detail == "raised ValueError: boom"


def test_verify_writes_no_tolerance_twice_and_reduces_with_nan_propagation():
    # read from the source, not run: each tolerance is a gate bound, never
    # spelled in a message, and no built-in max or min (which skip a NaN
    # unless it comes first) reduces a measurement
    tree = ast.parse(Path(verify_mod.__file__).read_text())
    spelled = re.compile(r"\d(\.\d*)?e-?\d|tol \d")
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            assert node.func.id not in ("max", "min"), f"line {node.lineno}"
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            assert not spelled.search(node.value), f"line {node.lineno}: {node.value!r}"


@pytest.mark.parametrize("kwargs", [{"grid_n": 24.0}, {"refine_iters": 40.0},
                                    {"grid_n": np.float64(24)}])
def test_verify_rejects_non_integer_oracle_args_before_any_check(kwargs, monkeypatch):
    def no_check(name, fn):
        raise AssertionError(f"check {name} ran")

    monkeypatch.setattr(verify_mod, "_run", no_check)
    arg = next(iter(kwargs))
    for level in ("quick", "full"):
        with pytest.raises(DomainError, match=arg):
            checks(level, **kwargs)
        with pytest.raises(DomainError, match=arg):
            run_verify(level, **kwargs)


def test_oracle_boundary_check_passes_at_grid_n_10_with_the_default_step_cap():
    # at 40 Newton steps 34 of these 200 near-maximal states stopped up to
    # 7.6e-8 short at grid_n 10, as the steps crawl along the ridge
    passed, detail = judge(checks("full", grid_n=10)["oracle-boundary-200"]())
    assert passed, detail


def test_csv_format_check_passes_and_fails_without_the_tie_window(monkeypatch):
    assert judge(verify_mod._check_csv_format(1729)) == (
        True, "values unlike %.12g (of 19987) 0 (tol 0)")
    monkeypatch.setattr("nonortho.report._TIE_WINDOW", -1.0)
    passed, detail = judge(verify_mod._check_csv_format(1729))
    assert not passed
