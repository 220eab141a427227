import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nonortho.errors import DomainError, NoCompatibleNu, WitnessUnverified
from nonortho.feasibility import (VERDICT_FEASIBLE_DEGENERATE,
                                  VERDICT_FEASIBLE_ORTHOGONAL, VERDICT_INFEASIBLE,
                                  concurrence_scan, deviation,
                                  deviation_closed_form, maximal_feasibility,
                                  mu_squared_solutions, nn_case_floor,
                                  on_case_floor, state_deviation)
from nonortho.measures import concurrence_det
from nonortho.sampling import random_states
from nonortho.schmidt import schmidt_decompose
from nonortho.state import eta_phase, make_state, state_from_magnitudes
from nonortho.verify import NN_PAIRS, ON_OVERLAPS

from conftest import valid_states

SQ2 = 1.0 / math.sqrt(2.0)


class TestDeviation:
    def test_balanced_orthogonal_state_is_maximal(self):
        assert deviation(schmidt_decompose(make_state(SQ2, SQ2, 0, 0))) <= 1e-12

    def test_product_state(self):
        assert deviation(schmidt_decompose(make_state(1, 0, 0.5, 0.3))) == pytest.approx(1.0)

    def test_single_overlap_balanced(self):
        # |mu|^2 = 1/2 with one overlap s^2 = 0.1 gives d = 0.1
        assert state_deviation(0.5, math.sqrt(0.1), 0.0) == pytest.approx(0.1, abs=1e-12)

    def test_state_deviation_matches_the_full_decomposition(self):
        """d from the Schmidt coefficients alone is the full decomposition's d within 1e-15."""
        magnitudes = [(abs(s.mu) ** 2, abs(s.x), abs(s.y), eta_phase(s))
                      for s in random_states(500, 3)]
        magnitudes += [(1.0 / (2.0 * (1.0 - t * t)), t, t, math.pi)
                       for t in np.linspace(0.01, 0.97, 100).tolist()]
        magnitudes.append((0.5, 0.0, 0.0, math.pi))   # the OO witness
        for args in magnitudes:
            full = deviation(schmidt_decompose(state_from_magnitudes(*args)))
            assert abs(state_deviation(*args) - full) <= 1e-15, args

    @given(valid_states())
    def test_links_concurrence(self, s):
        d = deviation(schmidt_decompose(s))
        assert 0.0 <= d <= 1.0
        assert d == pytest.approx(1.0 - concurrence_det(s) ** 2, abs=1e-12)


class TestMuSquaredSolutions:
    def test_orthogonal_maximal(self):
        assert mu_squared_solutions(0.0, 0.0, 0.0) == [0.5]

    def test_single_overlap_double_root(self):
        roots = mu_squared_solutions(math.sqrt(0.04), 0.0, 0.04)
        assert roots == pytest.approx([0.5], abs=1e-12)

    def test_single_overlap_no_solution_below_floor(self):
        assert mu_squared_solutions(math.sqrt(0.04), 0.0, 0.01) == []

    def test_boundary_family_root(self):
        roots = mu_squared_solutions(0.3, 0.3, 0.0, eta=math.pi)
        assert roots == pytest.approx([1 / (2 * (1 - 0.09))], abs=1e-12)
        assert state_deviation(roots[0], 0.3, 0.3, math.pi) <= 1e-12

    def test_eta_required_for_double_overlap(self):
        with pytest.raises(DomainError):
            mu_squared_solutions(0.3, 0.3, 0.0)

    @given(st.floats(0.01, 0.9), st.floats(0.0, 0.95))
    @settings(max_examples=100)
    def test_orthogonal_roots_feed_back(self, d, q_unused):
        for q in mu_squared_solutions(0.0, 0.0, d):
            assert abs(state_deviation(q, 0.0, 0.0) - d) <= 1e-10

    @given(st.floats(0.05, 0.9), st.floats(0.05, 0.9), st.floats(0.0, 0.95),
           st.floats(-math.pi, math.pi))
    @settings(max_examples=150)
    def test_general_roots_feed_back(self, abs_x, abs_y, d, eta):
        for q in mu_squared_solutions(abs_x, abs_y, d, eta=eta):
            assert abs(state_deviation(q, abs_x, abs_y, eta) - d) <= 1e-10


class TestClosedFormDeviation:
    def test_orthogonal_balanced(self):
        res = deviation_closed_form(SQ2, 0.0, 0.0, 0.0, branch=-1)
        assert res.closed_form == pytest.approx(0.0, abs=1e-12)
        assert res.pipeline == pytest.approx(0.0, abs=1e-12)

    def test_single_overlap_example(self):
        # |mu|^2 = 0.3, surviving overlap s^2 = 0.1: d = 1 - 4*0.3*0.7*0.9
        res = deviation_closed_form(math.sqrt(0.3), math.sqrt(0.1), 0.0, 0.0, branch=-1)
        assert res.closed_form == pytest.approx(0.244, abs=1e-12)
        assert res.difference <= 1e-12

    def test_boundary_family_branches(self):
        q = 1 / (2 * (1 - 0.09))
        res = deviation_closed_form(math.sqrt(q), 0.3, 0.3, math.pi, branch=-1)
        assert res.pipeline <= 1e-12
        assert res.difference <= 1e-10

    def test_no_compatible_nu(self):
        # branch +1 asks for |nu| = -s - W < 0 whenever cos(eta) >= 0
        with pytest.raises(NoCompatibleNu):
            deviation_closed_form(0.7, 0.3, 0.4, 0.0, branch=+1)

    @given(st.floats(0.1, 0.95), st.floats(0.05, 0.9), st.floats(0.05, 0.9),
           st.floats(-math.pi, math.pi))
    @settings(max_examples=150)
    def test_matches_pipeline_on_principal_branch(self, abs_mu, abs_x, abs_y, eta):
        res = deviation_closed_form(abs_mu, abs_x, abs_y, eta, branch=-1)
        assert res.difference <= 1e-10

    def test_branch_validation(self):
        with pytest.raises(DomainError):
            deviation_closed_form(0.5, 0.1, 0.1, 0.0, branch=0)


class TestMaximalFeasibility:
    def test_orthogonal_orthogonal(self):
        verdict = maximal_feasibility(0.0, 0.0)
        assert verdict.verdict == VERDICT_FEASIBLE_ORTHOGONAL
        assert verdict.witness_q == 0.5
        assert verdict.witness_pipeline_d < 1e-10

    def test_single_overlap_infeasible(self):
        verdict = maximal_feasibility(0.3, 0.0)
        assert verdict.verdict == VERDICT_INFEASIBLE
        assert verdict.margin is not None and verdict.margin > 0

    def test_unequal_overlaps_infeasible(self):
        verdict = maximal_feasibility(0.3, 0.5)
        assert verdict.verdict == VERDICT_INFEASIBLE
        assert verdict.margin > 0

    def test_equal_overlaps_boundary_family(self):
        verdict = maximal_feasibility(0.3, 0.3)
        assert verdict.verdict == VERDICT_FEASIBLE_DEGENERATE
        assert verdict.required_eta == math.pi
        assert verdict.witness_q == pytest.approx(1 / (2 * (1 - 0.09)), abs=1e-15)
        assert verdict.witness_pipeline_d < 1e-10

    def test_domain_error(self):
        with pytest.raises(DomainError):
            maximal_feasibility(1.0, 0.3)

    @pytest.mark.parametrize("overlap,why", [
        (0.9999999801278153, "failed validation: pipeline d="),
        (0.9999999969541447, "has no valid state: no nonnegative |nu| exists"),
    ])
    def test_a_witness_that_cancels_is_a_named_error(self, overlap, why):
        # q = 1/(2(1 - |x||y|)) cancels this close to 1: the witness misses
        # its gate or its state cannot be built
        with pytest.raises(WitnessUnverified, match=r"^feasibility witness q=") as exc:
            maximal_feasibility(overlap, overlap)
        assert why in str(exc.value)

    def test_margin_is_closed_form_in_the_floor(self):
        cases = ([((s, 0.0), on_case_floor(s)) for s in ON_OVERLAPS]
                 + [(pair, nn_case_floor(*pair)) for pair in NN_PAIRS])
        for (abs_x, abs_y), floor in cases:
            margin = maximal_feasibility(abs_x, abs_y).margin
            assert abs(margin - (1.0 - math.sqrt(1.0 - floor))) <= 1e-15

    def test_scan_reaches_states_beyond_unit_mu_squared(self):
        # the best state has |mu|^2 = 1/(2(1 - |x||y|)) = 3.45 at eta = pi
        abs_x, abs_y = 0.9, 0.95
        q = 1.0 / (2.0 * (1.0 - abs_x * abs_y))
        floor = nn_case_floor(abs_x, abs_y)
        assert state_deviation(q, abs_x, abs_y, math.pi) == pytest.approx(floor, abs=1e-12)
        margin = maximal_feasibility(abs_x, abs_y).margin
        assert margin == pytest.approx(0.0613, abs=1e-4)
        assert abs((1.0 - concurrence_scan(abs_x, abs_y)) - margin) <= 1e-6


class TestFloors:
    def test_single_overlap_floor_tight_at_balanced_amplitudes(self):
        s = 0.4
        assert on_case_floor(s) == pytest.approx(s * s)
        assert state_deviation(0.5, s, 0.0) == pytest.approx(s * s, abs=1e-12)

    def test_double_overlap_floor_tight_at_antialigned_balanced_state(self):
        abs_x, abs_y = 0.3, 0.6
        floor = nn_case_floor(abs_x, abs_y)
        q = 1 / (2 * (1 - abs_x * abs_y))
        assert state_deviation(q, abs_x, abs_y, math.pi) == pytest.approx(floor, abs=1e-12)
        assert 1.0 - concurrence_scan(abs_x, abs_y) ** 2 >= floor - 1e-9

    def test_floor_zero_only_for_equal_overlaps(self):
        assert nn_case_floor(0.3, 0.3) == pytest.approx(0.0, abs=1e-15)
        assert nn_case_floor(0.3, 0.31) > 0

    def test_floor_keeps_relative_accuracy_near_equal_overlaps(self):
        # exact floor (|x|-|y|)^2 / (1-|x||y|)^2 = 1.7777778193e-16 in rationals
        floor = nn_case_floor(0.5, 0.50000001)
        assert floor == pytest.approx(1.7777778193472928e-16, rel=1e-12)
        margin = maximal_feasibility(0.5, 0.50000001).margin
        assert margin == pytest.approx(floor / 2, rel=1e-12)

    @given(st.floats(0.05, 0.9), st.floats(0.05, 0.9), st.floats(0.01, 0.99),
           st.floats(-math.pi, math.pi))
    @settings(max_examples=200)
    def test_every_state_respects_the_floor(self, abs_x, abs_y, q, eta):
        floor = nn_case_floor(abs_x, abs_y)
        assert state_deviation(q, abs_x, abs_y, eta) >= floor - 1e-12
