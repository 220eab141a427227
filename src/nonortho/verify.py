"""Self-verification suites: tolerance identities, scans, and oracle runs.

``quick`` covers the closed-form identities, fixed examples, feasibility
verdicts and the kaon application in a few seconds; ``full`` adds the
independent CHSH maximizer comparison, on random states and near maximal
violation, and the impossibility grid scans.
Every check is wrapped so an exception counts as a failure rather than
aborting the run.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import measures
from .bell import analytic_bell, check_oracle_args, oracle_bell_max
from .closed_forms import report_scalars
from .errors import DomainError, NoCompatibleNu, NonorthoError
from .feasibility import (VERDICT_FEASIBLE_DEGENERATE, VERDICT_FEASIBLE_ORTHOGONAL,
                          VERDICT_INFEASIBLE, concurrence_scan, deviation,
                          deviation_closed_form, deviation_formula, maximal_feasibility,
                          mu_squared_solutions, nn_case_floor, scan_concurrence,
                          state_deviation)
from .kaon import (KaonEvolution, kaon_deviation_closed_form, kaon_entangled_state,
                   kaon_overlap, weak_decay_norm)
from .report import analyze_state, canonical_bell_value
from .sampling import DEFAULT_SEED, random_states
from .schmidt import reconstruct, reduced_density, schmidt_decompose
from .state import embed, eta_phase, make_state, state_from_magnitudes

TWO_SQRT_TWO = 2.0 * math.sqrt(2.0)
# overlap levels of the single- and double-overlap impossibility checks
ON_OVERLAPS = tuple(round(0.05 * k, 2) for k in range(1, 19))
NN_PAIRS = tuple(itertools.permutations((0.1, 0.3, 0.5, 0.7, 0.9), 2))

Check = Callable[[], tuple[bool, str]]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class VerifySummary:
    level: str
    seed: int
    results: list[CheckResult]

    @property
    def ok(self) -> bool:
        return all(r.passed for r in self.results)


def max_deviation_up_to_phase(u: np.ndarray, v: np.ndarray) -> float:
    """max-norm distance between u and v after aligning a global phase."""
    overlap = np.vdot(v, u)
    phase = overlap / abs(overlap) if abs(overlap) > 0 else 1.0
    return float(np.max(np.abs(u - phase * v)))


def _run(name: str, fn: Check) -> CheckResult:
    try:
        passed, detail = fn()
    except Exception as exc:   # a crash is a failure, not an abort
        passed, detail = False, f"raised {type(exc).__name__}: {exc}"
    return CheckResult(name, passed, detail)


def _check_oo_maximal() -> tuple[bool, str]:
    s = make_state(1 / math.sqrt(2), -1 / math.sqrt(2), 0, 0)
    rep = analyze_state(s)
    errs = (abs(rep.bell_analytic - TWO_SQRT_TWO), abs(rep.d), abs(rep.concurrence - 1),
            abs(rep.entropy_bits - 1))
    return max(errs) <= 1e-12, f"max error {max(errs):.2e} (tol 1e-12)"


def _stacked_report_scalars(states: list) -> tuple:
    """One :func:`report_scalars` call on the stacked components of ``states``."""
    return report_scalars(*(np.array([getattr(s, k) for s in states])
                            for k in ("mu", "nu", "x", "y")))


def _check_identities(seed: int, count: int = 10_000) -> tuple[bool, str]:
    """Worst-case residuals of the dual-route identities, each within 1e-12.

    The closed forms are one :func:`report_scalars` call on the stacked
    states; the Schmidt coefficients, the spin flip and the reduced-density
    spectrum are evaluated state by state.
    """
    states = list(random_states(count, seed))
    _, _, bell, d, conc, entropy = _stacked_report_scalars(states)
    forms = [schmidt_decompose(s) for s in states]
    residuals = {
        "deviation-two-routes": d - np.array([deviation(f) for f in forms]),
        "bell-vs-deviation": bell - np.array([analytic_bell(f) for f in forms]),
        "concurrence-sq-plus-d": conc * conc + d - 1.0,
        "concurrence-two-routes":
            conc - np.array([measures.concurrence_spin_flip(embed(s)) for s in states]),
        "entropy-two-routes": entropy - np.array(
            [measures.entropy_direct(reduced_density(s, "A")) for s in states]),
    }
    worst = {name: float(np.abs(r).max()) for name, r in residuals.items()}
    detail = ", ".join(f"{name} {val:.2e}" for name, val in worst.items())
    return all(val <= 1e-12 for val in worst.values()), detail + " (tol 1e-12 each)"


def _check_canonical_settings(seed: int, count: int = 1000) -> tuple[bool, str]:
    worst = 0.0
    for s in random_states(count, seed + 1):
        form = schmidt_decompose(s)
        worst = max(worst, abs(canonical_bell_value(s) - analytic_bell(form)))
    return worst <= 1e-9, f"worst |canonical - analytic| {worst:.2e} (tol 1e-9)"


def _check_round_trip(seed: int, count: int = 1000) -> tuple[bool, str]:
    worst_vec = worst_det = 0.0
    states = list(random_states(count, seed + 2))
    for s, conc in zip(states, _stacked_report_scalars(states)[4].tolist()):
        v = embed(s)
        worst_vec = max(worst_vec,
                        max_deviation_up_to_phase(v, reconstruct(schmidt_decompose(s))))
        target = 0.25 * conc * conc   # det rho = |mu nu N_A N_B|^2 = C^2 / 4
        for side in "AB":
            rho = reduced_density(s, side)
            det = (rho[0, 0] * rho[1, 1] - rho[0, 1] * rho[1, 0]).real
            worst_det = max(worst_det, abs(det - target))
    ok = worst_vec <= 1e-12 and worst_det <= 1e-12
    return ok, f"worst round trip {worst_vec:.2e}, worst det residual {worst_det:.2e}"


def _check_fixed_examples() -> tuple[bool, str]:
    errs = []
    # auto-normalization with one orthogonal side: plain amplitude rescale
    s = make_state(1, 1, 0.9, 0, auto_normalize=True)
    errs.append(abs(abs(s.mu) - 1 / math.sqrt(2)))
    errs.append(abs(abs(s.nu) - 1 / math.sqrt(2)))
    # product state embedding
    v = embed(make_state(1, 0, 0.5, 0.3))
    errs.append(float(np.max(np.abs(v - np.array([0, 0, math.sqrt(0.75), 0.5])))))
    # single-overlap eigenvalues at balanced amplitudes
    s = state_from_magnitudes(0.5, math.sqrt(0.1), 0.0)
    rep = analyze_state(s)
    errs.append(abs(rep.lambda_plus - (0.5 + 0.5 * math.sqrt(0.1))))
    errs.append(abs(rep.d - 0.1))
    errs.append(abs(rep.concurrence - math.sqrt(0.9)))
    worst = max(errs)
    return worst <= 1e-12, f"worst example error {worst:.2e} (tol 1e-12)"


def _check_root_feedback() -> tuple[bool, str]:
    cases = [(0.0, 0.0, 0.3, None), (math.sqrt(0.04), 0.0, 0.04, None),
             (0.3, 0.3, 0.0, math.pi), (0.4, 0.6, 0.5, 2.0),
             (0.2, 0.7, 0.8, -1.3)]
    worst = 0.0
    any_root = False
    for abs_x, abs_y, d_target, eta in cases:
        roots = mu_squared_solutions(abs_x, abs_y, d_target, eta)
        for q in roots:
            any_root = True
            d_back = state_deviation(q, abs_x, abs_y,
                                     eta if eta is not None else math.pi)
            worst = max(worst, abs(d_back - d_target))
    return (any_root and worst <= 1e-10), f"worst feedback error {worst:.2e} (tol 1e-10)"


def _check_on_impossibility(full_pipeline: bool) -> tuple[bool, str]:
    qs = np.linspace(0.0, 1.0, 2002)[1:-1]
    worst_gap = math.inf
    for s_abs in ON_OVERLAPS:
        verdict = maximal_feasibility(s_abs, 0.0)
        if verdict.verdict != VERDICT_INFEASIBLE:
            return False, f"|x|={s_abs} not flagged infeasible"
        if full_pipeline:
            dmin = min(state_deviation(float(q), s_abs, 0.0) for q in qs)
        else:
            dmin = float((1.0 - scan_concurrence(qs, 0.0, s_abs, 0.0) ** 2).min())
        worst_gap = min(worst_gap, dmin - s_abs ** 2)
    return worst_gap >= -1e-10, f"worst (min d - s^2) gap {worst_gap:.2e} (>= -1e-10)"


def _check_nn_boundary() -> tuple[bool, str]:
    worst = 0.0
    for t in (0.1, 0.3, 0.5):
        q = 1.0 / (2.0 * (1.0 - t * t))
        worst = max(worst, state_deviation(q, t, t, math.pi))
        verdict = maximal_feasibility(t, t)
        if verdict.verdict != VERDICT_FEASIBLE_DEGENERATE:
            return False, f"|x|=|y|={t} not flagged as the boundary family"
    return worst <= 1e-12, f"worst boundary-family d {worst:.2e} (tol 1e-12)"


def _check_kaon() -> tuple[bool, str]:
    errs = []
    for eps in (0.0, 1e-3, 1e-2, 1e-1):
        s = kaon_entangled_state(eps)
        rep = analyze_state(s)
        errs.append(abs(rep.d))
        errs.append(abs(rep.concurrence - 1.0))
        expected = (eps + eps) / (1.0 + eps * eps)
        if abs(kaon_overlap(eps) - expected) > 1e-15:
            return False, f"overlap mismatch at eps={eps}"
    evo = KaonEvolution(gamma_s=1.0, gamma_l=0.5, t=2.0 / 1.5)
    errs.append(abs(weak_decay_norm(0.0, evo) - math.exp(-1.0)))
    worst = max(errs)
    return worst <= 1e-12, f"worst kaon error {worst:.2e} (tol 1e-12)"


def _check_kaon_closed_form() -> tuple[bool, str]:
    """Why the kaon d(eps) is nonzero while the pipeline's d is 0.

    The closed form is the general formula at q = 1/2 with half the kaon
    overlap, its +1 branch admits no |nu|, and the kaon state itself lies
    on the |x| = |y|, eta = pi boundary family, where d = 0.
    """
    worst_formula = worst_family = 0.0
    for eps in (1e-3, 1e-2, 1e-1, 0.5, 0.3 + 0.2j, -0.2 + 0.4j):
        half = abs(kaon_overlap(eps)) / 2.0
        for eta in (math.pi, 2.0, 0.7):
            for branch in (+1, -1):
                worst_formula = max(worst_formula, abs(
                    kaon_deviation_closed_form(eps, eta, branch)
                    - deviation_formula(0.5, half, half, eta, branch)))
            try:
                deviation_closed_form(math.sqrt(0.5), half, half, eta, +1)
            except NoCompatibleNu:
                pass
            else:
                return False, f"+1 branch has a compatible |nu| at eps={eps}, eta={eta}"
        s = kaon_entangled_state(eps)
        x_abs, y_abs = abs(s.x), abs(s.y)
        worst_family = max(worst_family, abs(x_abs - y_abs), abs(eta_phase(s) - math.pi),
                           abs(abs(s.mu) ** 2 - 1.0 / (2.0 * (1.0 - x_abs * y_abs))))
    ok = worst_formula <= 1e-15 and worst_family <= 1e-15
    return ok, (f"worst |kaon d - general d at q=1/2| {worst_formula:.2e} (tol 1e-15), "
                f"worst boundary-family residual {worst_family:.2e} (tol 1e-15), "
                "+1 branch has no |nu|")


def _check_oracle(seed: int, grid_n: int, refine_iters: int,
                  count: int = 100) -> tuple[bool, str]:
    worst_match = worst_short = 0.0
    ceiling = 0.0
    for s in random_states(count, seed + 3):
        v = embed(s)
        analytic = analytic_bell(schmidt_decompose(s))
        canonical = canonical_bell_value(s)
        got = oracle_bell_max(v, grid_n=grid_n, refine_iters=refine_iters)
        worst_match = max(worst_match, abs(got - analytic))
        worst_short = max(worst_short, canonical - got)
        ceiling = max(ceiling, got)
    ok = (worst_match <= 1e-4 and worst_short <= 1e-9
          and ceiling <= TWO_SQRT_TWO + 1e-9)
    return ok, (f"worst |oracle - analytic| {worst_match:.2e} (tol 1e-4), "
                f"worst shortfall vs canonical {worst_short:.2e} (tol 1e-9), "
                f"max value {ceiling:.12f} <= 2*sqrt(2)+1e-9")


def _check_oracle_boundary(seed: int, grid_n: int, refine_iters: int,
                           count: int = 200) -> tuple[bool, str]:
    """The oracle just below maximal violation, where its local search can stop short.

    The states are the boundary family |x| = |y| = t, eta = pi at
    |mu|^2 = s/(2 (1 - t^2)), s in {0.97, 0.99, 0.999} (s = 1 is maximal);
    the CHSH value there has a nearly flat ridge.
    """
    rng = np.random.default_rng(seed + 5)
    worst, short = 0.0, 0
    for t, scale in zip(rng.uniform(0.02, 0.97, count), itertools.cycle((0.97, 0.99, 0.999))):
        s = state_from_magnitudes(scale / (2.0 * (1.0 - t * t)), t, t, math.pi)
        gap = canonical_bell_value(s) - oracle_bell_max(embed(s), grid_n=grid_n,
                                                        refine_iters=refine_iters)
        worst, short = max(worst, gap), short + (gap > 1e-9)
    return short == 0, (f"{short}/{count} boundary states more than 1e-9 short of canonical, "
                        f"worst shortfall {worst:.2e}")


def _check_nn_generic() -> tuple[bool, str]:
    """The scan's min d over each unequal pair lies on the closed-form floor."""
    low_gap, high_gap = math.inf, -math.inf
    min_floor = math.inf
    for abs_x, abs_y in NN_PAIRS:
        floor = nn_case_floor(abs_x, abs_y)
        min_floor = min(min_floor, floor)
        gap = 1.0 - concurrence_scan(abs_x, abs_y) ** 2 - floor
        low_gap, high_gap = min(low_gap, gap), max(high_gap, gap)
        verdict = maximal_feasibility(abs_x, abs_y)
        if verdict.verdict != VERDICT_INFEASIBLE:
            return False, f"({abs_x},{abs_y}) not flagged infeasible"
    ok = low_gap >= -1e-9 and high_gap <= 1e-6 and min_floor > 0
    return ok, (f"(scan min d - floor) in [{low_gap:.2e}, {high_gap:.2e}] "
                f"(within [-1e-9, 1e-6]), smallest floor {min_floor:.3e} > 0")


def _check_scan_vs_pipeline(seed: int) -> tuple[bool, str]:
    """The scan's concurrence kernel agrees with the per-state pipeline."""
    rng = np.random.default_rng(seed + 4)
    worst = 0.0
    for _ in range(100):
        abs_x, abs_y = rng.uniform(0.05, 0.9, 2)
        eta = rng.uniform(-math.pi, math.pi)
        q = rng.uniform(0.01, 0.99)
        d_vec = 1.0 - scan_concurrence(q, eta, abs_x, abs_y) ** 2
        worst = max(worst, abs(d_vec - state_deviation(q, abs_x, abs_y, eta)))
    return worst <= 1e-10, f"worst |vectorized - pipeline| {worst:.2e} (tol 1e-10)"


def _check_feasible_orthogonal() -> tuple[bool, str]:
    verdict = maximal_feasibility(0.0, 0.0)
    ok = (verdict.verdict == VERDICT_FEASIBLE_ORTHOGONAL
          and verdict.witness_q == 0.5
          and verdict.witness_pipeline_d is not None
          and verdict.witness_pipeline_d < 1e-10)
    return ok, f"verdict {verdict.verdict}, witness d {verdict.witness_pipeline_d}"


def checks(level: str = "quick", seed: int = DEFAULT_SEED, grid_n: int = 24,
           refine_iters: int = 40) -> dict[str, Check]:
    """The named checks of one level, in run order, each not yet run.

    Raises before any check runs for an unknown level, a negative ``seed``
    (the checks draw from seeds ``seed`` to ``seed + 5``) or oracle
    arguments ``check_oracle_args`` rejects, at either level.
    """
    if level not in ("quick", "full"):
        raise NonorthoError(f"verify level must be 'quick' or 'full', got {level!r}")
    if seed < 0:
        raise DomainError(f"seed must be >= 0, got {seed}")
    check_oracle_args(grid_n, refine_iters)
    table: dict[str, Check] = {
        "oo-maximal-case": _check_oo_maximal,
        "closed-form-identities-10k": lambda: _check_identities(seed),
        "canonical-settings-1k": lambda: _check_canonical_settings(seed),
        "schmidt-round-trip-1k": lambda: _check_round_trip(seed),
        "fixed-examples": _check_fixed_examples,
        "root-feedback": _check_root_feedback,
        "feasible-orthogonal": _check_feasible_orthogonal,
        "nn-boundary-family": _check_nn_boundary,
        "on-impossibility":
            lambda: _check_on_impossibility(full_pipeline=(level == "full")),
        "kaon-suite": _check_kaon,
        "kaon-closed-form": _check_kaon_closed_form,
        "scan-vs-pipeline": lambda: _check_scan_vs_pipeline(seed),
    }
    if level == "full":
        table["nn-generic-impossibility"] = _check_nn_generic
        table["oracle-vs-analytic-100"] = lambda: _check_oracle(seed, grid_n, refine_iters)
        table["oracle-boundary-200"] = lambda: _check_oracle_boundary(seed, grid_n, refine_iters)
    return table


def run_verify(level: str = "quick", seed: int = DEFAULT_SEED,
               grid_n: int = 24, refine_iters: int = 40) -> VerifySummary:
    table = checks(level, seed, grid_n, refine_iters)
    results = [_run(name, fn) for name, fn in table.items()]
    return VerifySummary(level=level, seed=seed, results=results)
