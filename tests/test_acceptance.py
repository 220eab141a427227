"""Acceptance criteria, one test per criterion.

Criteria 1-8 run the named checks of ``nonortho verify full`` through its
judge, so each criterion is implemented once, in ``verify.py``, with its
counts, seeds and tolerances.  Criteria 9a-9d mutate the program and require
verify to fail; 9c and 9d make a route return NaN.  Run with
``pytest tests/test_acceptance.py -v -s`` to see one line per check.
"""

import math

import numpy as np
import pytest

import nonortho.measures as measures_mod
import nonortho.state as state_mod
import nonortho.verify as verify_mod
from nonortho.bell import OracleRun
from nonortho.measures import concurrence_det, concurrence_spin_flip
from nonortho.state import embed, make_state
from nonortho.verify import checks, judge, run_verify

FULL = checks("full")


def report(line):
    print(f"\nACCEPTANCE {line}")


def check_passes(name, table=FULL):
    """Judge one check's gates and report its line."""
    passed, detail = judge(table[name]())
    report(f"{name} {'PASS' if passed else 'FAIL'}: {detail}")
    return passed


def assert_checks_pass(*names):
    for name in names:
        assert check_passes(name), name


def test_criterion_1_oo_maximal_case():
    assert_checks_pass("oo-maximal-case")


def test_criterion_2_closed_form_pipeline_consistency():
    assert_checks_pass("closed-form-identities-10k")


def test_criterion_3_canonical_settings_achieve_closed_form():
    assert_checks_pass("canonical-settings-1k")


def test_criterion_4_independent_chsh_oracle():
    assert_checks_pass("oracle-vs-analytic-100", "oracle-boundary-200")


def test_criterion_4_boundary_check_fails_without_refinement():
    # the grid's best pair alone is short of canonical near maximal violation
    assert not check_passes("oracle-boundary-200", checks("full", refine_iters=0))


def test_criterion_5_single_overlap_impossibility():
    assert_checks_pass("on-impossibility")   # full level: the per-state pipeline


def test_criterion_6_double_overlap_impossibility_and_boundary():
    assert_checks_pass("nn-generic-impossibility", "scan-vs-pipeline", "nn-boundary-family")


def test_criterion_7_schmidt_round_trip():
    assert_checks_pass("schmidt-round-trip-1k")


def test_criterion_8_kaon_application():
    assert_checks_pass("kaon-suite", "kaon-closed-form")


def _mutated_residual(mu, nu, x, y):
    # normalization read with a zero right-hand side instead of one
    n_a_sq = 1.0 - abs(y) ** 2
    n_b_sq = 1.0 - abs(x) ** 2
    norm_sq = (abs(mu) ** 2 * n_b_sq + abs(nu) ** 2 * n_a_sq
               + abs(mu * x + nu * y) ** 2)
    return abs(norm_sq - 0.0)


def test_criterion_9a_normalization_mutation_breaks_suite(monkeypatch):
    monkeypatch.setattr(state_mod, "normalization_residual", _mutated_residual)
    with pytest.raises(state_mod.NotNormalized):
        make_state(1 / math.sqrt(2), 1 / math.sqrt(2), 0, 0)
    summary = run_verify("quick")
    assert not summary.ok
    failed = [r.name for r in summary.results if not r.passed]
    report(f"9a PASS: zero-RHS normalization mutation fails verify checks {failed}")


def test_criterion_9b_single_sided_spin_flip_breaks_consistency(monkeypatch):
    one_sided = np.kron(measures_mod.SIGMA_Y, np.eye(2, dtype=complex))
    monkeypatch.setattr(measures_mod, "SPIN_FLIP", one_sided)
    # the dual-route concurrence identity of criterion 2 must now fail
    s = make_state(0.8, 0.6, 0.3, 0.2, auto_normalize=True)
    assert abs(concurrence_det(s) - concurrence_spin_flip(embed(s))) > 1e-12
    summary = run_verify("quick")
    assert not summary.ok
    failed = [r.name for r in summary.results if not r.passed]
    assert "closed-form-identities-10k" in failed
    report(f"9b PASS: one-sided spin flip fails verify checks {failed}")


def nan(*args, **kwargs):
    return math.nan


def nan_run(*args, **kwargs):
    # a polish that ended normally, so only the NaN value can fail the checks
    return OracleRun(math.nan, 1, "rounding")


@pytest.mark.parametrize("route, names", [
    ("oracle_bell_run", ["oracle-vs-analytic-100", "oracle-boundary-200"]),
    ("canonical_bell_value", ["canonical-settings-1k"]),
])
def test_criterion_9c_nan_chsh_route_fails_its_checks(route, names, monkeypatch):
    monkeypatch.setattr(verify_mod, route, nan_run if route == "oracle_bell_run" else nan)
    for name in names:
        assert not check_passes(name)


@pytest.mark.parametrize("name", ["root-feedback", "nn-boundary-family", "scan-vs-pipeline"])
def test_criterion_9d_one_nan_deviation_fails_its_check(name, monkeypatch):
    # the second call, so a reduction that skips a NaN not seen first lets it through
    calls = []
    real = verify_mod.state_deviation

    def one_nan(*args):
        calls.append(args)
        return math.nan if len(calls) == 2 else real(*args)

    monkeypatch.setattr(verify_mod, "state_deviation", one_nan)
    assert not check_passes(name)
    assert len(calls) >= 2
