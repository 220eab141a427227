"""Self-verification suites: tolerance identities, scans, and oracle runs.

``quick`` covers the closed-form identities, fixed examples, feasibility
verdicts and the kaon application in a few seconds; ``full`` adds the
independent CHSH maximizer comparison, on random states and near maximal
violation, and the impossibility grid scans.
Each check returns its gates, measured values with the bounds they must
lie in, and one judge turns them into a verdict and a detail line; an
exception counts as a failure rather than aborting the run.
"""

from __future__ import annotations

import contextlib
import itertools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import measures
from .bell import (DEFAULT_GRID_N, DEFAULT_REFINE_ITERS, analytic_bell, check_oracle_args,
                   oracle_bell_run)
from .closed_forms import report_scalars
from .errors import DomainError, NoCompatibleNu, NonorthoError
from .feasibility import (VERDICT_FEASIBLE_DEGENERATE, VERDICT_FEASIBLE_ORTHOGONAL,
                          VERDICT_INFEASIBLE, concurrence_scan, deviation,
                          deviation_closed_form, deviation_formula, maximal_feasibility,
                          mu_squared_solutions, nn_case_floor, scan_concurrence,
                          state_deviation)
from .kaon import (KaonEvolution, kaon_deviation_closed_form, kaon_entangled_state,
                   kaon_overlap, weak_decay_norm)
from .report import analyze_state, canonical_bell_value, csv_number_fields, csv_numbers
from .sampling import DEFAULT_SEED, random_states
from .schmidt import reconstruct, reduced_density, schmidt_decompose
from .state import embed, eta_phase, make_state, state_from_magnitudes

TWO_SQRT_TWO = 2.0 * math.sqrt(2.0)
# overlap levels of the single- and double-overlap impossibility checks
ON_OVERLAPS = tuple(round(0.05 * k, 2) for k in range(1, 19))
NN_PAIRS = tuple(itertools.permutations((0.1, 0.3, 0.5, 0.7, 0.9), 2))


class Gate(NamedTuple):
    """Measured values under one label, each of which must lie in [low, high]."""
    label: str
    values: object   # a number or an array of numbers
    low: float = -math.inf
    high: float = math.inf


Check = Callable[[], list[Gate]]


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


def judge(gates: list[Gate]) -> tuple[bool, str]:
    """Pass when every value of every gate lies within its bounds; NaN never does.

    The detail reads ``label value (tol high)``, ``label value (>= low)`` or
    ``label [min, max] (within [low, high])``, each value reduced with NaN
    propagating, and names how many of a gate's values lie outside if any do.
    """
    num = lambda x: f"{x:.2e}" if isinstance(x, float) else str(x)
    bound = lambda x: str(x).replace("e-0", "e-")
    passed, parts = True, []
    for label, values, low, high in gates:
        v = np.asarray(values).ravel()
        outside = int(np.count_nonzero(~((low <= v) & (v <= high))))
        passed = passed and not outside
        if low == -math.inf:
            shown, bounds = num(v.max()), f"tol {bound(high)}"
        elif high == math.inf:
            shown, bounds = num(v.min()), f">= {bound(low)}"
        else:
            shown = f"[{num(v.min())}, {num(v.max())}]"
            bounds = f"within [{bound(low)}, {bound(high)}]"
        if outside and v.size > 1:   # a single value shows its own verdict
            bounds += f", {outside}/{v.size} outside"
        parts.append(f"{label} {shown} ({bounds})")
    return passed, ", ".join(parts)


def _run(name: str, fn: Check) -> CheckResult:
    try:
        passed, detail = judge(fn())
    except Exception as exc:   # a crash is a failure, not an abort
        passed, detail = False, f"raised {type(exc).__name__}: {exc}"
    return CheckResult(name, passed, detail)


def _check_oo_maximal() -> list[Gate]:
    rep = analyze_state(make_state(1 / math.sqrt(2), -1 / math.sqrt(2), 0, 0))
    errs = (rep.bell_analytic - TWO_SQRT_TWO, rep.d, rep.concurrence - 1, rep.entropy_bits - 1)
    return [Gate("max error", np.abs(errs), high=1e-12)]


def _stacked_report_scalars(states: list) -> tuple:
    """One :func:`report_scalars` call on the stacked components of ``states``."""
    return report_scalars(*(np.array([getattr(s, k) for s in states])
                            for k in ("mu", "nu", "x", "y")))


def _check_identities(seed: int, count: int = 10_000) -> list[Gate]:
    """Residuals of the dual-route identities.

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
    return [Gate(name, np.abs(r), high=1e-12) for name, r in residuals.items()]


def _check_canonical_settings(seed: int, count: int = 1000) -> list[Gate]:
    errs = [canonical_bell_value(s) - analytic_bell(schmidt_decompose(s))
            for s in random_states(count, seed + 1)]
    return [Gate("worst |canonical - analytic|", np.abs(errs), high=1e-9)]


def _check_round_trip(seed: int, count: int = 1000) -> list[Gate]:
    states = list(random_states(count, seed + 2))
    vec_errs, det_errs = [], []
    for s, conc in zip(states, _stacked_report_scalars(states)[4].tolist()):
        vec_errs.append(max_deviation_up_to_phase(embed(s), reconstruct(schmidt_decompose(s))))
        for side in "AB":
            rho = reduced_density(s, side)
            det = (rho[0, 0] * rho[1, 1] - rho[0, 1] * rho[1, 0]).real
            det_errs.append(det - 0.25 * conc * conc)   # det rho = |mu nu N_A N_B|^2 = C^2 / 4
    return [Gate(label, np.abs(errs), high=1e-12) for label, errs in
            (("worst round trip", vec_errs), ("worst det residual", det_errs))]


def _check_fixed_examples() -> list[Gate]:
    # auto-normalization with one orthogonal side: plain amplitude rescale
    s = make_state(1, 1, 0.9, 0, auto_normalize=True)
    errs = [abs(s.mu) - 1 / math.sqrt(2), abs(s.nu) - 1 / math.sqrt(2)]
    # product state embedding
    errs.extend(embed(make_state(1, 0, 0.5, 0.3)) - np.array([0, 0, math.sqrt(0.75), 0.5]))
    # single-overlap eigenvalues at balanced amplitudes
    rep = analyze_state(state_from_magnitudes(0.5, math.sqrt(0.1), 0.0))
    errs += [rep.lambda_plus - (0.5 + 0.5 * math.sqrt(0.1)), rep.d - 0.1,
             rep.concurrence - math.sqrt(0.9)]
    return [Gate("worst example error", np.abs(errs), high=1e-12)]


def _check_root_feedback() -> list[Gate]:
    cases = [(0.0, 0.0, 0.3, None), (math.sqrt(0.04), 0.0, 0.04, None),
             (0.3, 0.3, 0.0, math.pi), (0.4, 0.6, 0.5, 2.0),
             (0.2, 0.7, 0.8, -1.3)]
    errs = [state_deviation(q, abs_x, abs_y, eta if eta is not None else math.pi) - d_target
            for abs_x, abs_y, d_target, eta in cases
            for q in mu_squared_solutions(abs_x, abs_y, d_target, eta)]
    return [Gate("worst feedback error", np.abs(errs), high=1e-10)]


def _check_on_impossibility(full_pipeline: bool) -> list[Gate]:
    qs = np.linspace(0.0, 1.0, 2002)[1:-1]
    gaps = []
    for s_abs in ON_OVERLAPS:
        if full_pipeline:
            d = np.array([state_deviation(float(q), s_abs, 0.0) for q in qs])
        else:
            d = 1.0 - scan_concurrence(qs, 0.0, s_abs, 0.0) ** 2
        gaps.append(np.min(d) - s_abs ** 2)
    missed = sum(maximal_feasibility(s_abs, 0.0).verdict != VERDICT_INFEASIBLE
                 for s_abs in ON_OVERLAPS)
    return [Gate("overlaps not flagged infeasible", missed, high=0),
            Gate("worst (min d - s^2) gap", gaps, low=-1e-10)]


def _check_nn_boundary() -> list[Gate]:
    ts = (0.1, 0.3, 0.5)
    ds = [state_deviation(1.0 / (2.0 * (1.0 - t * t)), t, t, math.pi) for t in ts]
    missed = sum(maximal_feasibility(t, t).verdict != VERDICT_FEASIBLE_DEGENERATE for t in ts)
    return [Gate("overlaps not flagged as the boundary family", missed, high=0),
            Gate("worst boundary-family d", ds, high=1e-12)]


def _check_kaon() -> list[Gate]:
    errs, overlap_errs = [], []
    for eps in (0.0, 1e-3, 1e-2, 1e-1):
        rep = analyze_state(kaon_entangled_state(eps))
        errs.extend((rep.d, rep.concurrence - 1.0))
        overlap_errs.append(kaon_overlap(eps) - (eps + eps) / (1.0 + eps * eps))
    evo = KaonEvolution(gamma_s=1.0, gamma_l=0.5, t=2.0 / 1.5)
    errs.append(weak_decay_norm(0.0, evo) - math.exp(-1.0))
    return [Gate("worst overlap error", np.abs(overlap_errs), high=1e-15),
            Gate("worst kaon error", np.abs(errs), high=1e-12)]


def _check_kaon_closed_form() -> list[Gate]:
    """Why the kaon d(eps) is nonzero while the pipeline's d is 0.

    The closed form is the general formula at q = 1/2 with half the kaon
    overlap, its +1 branch admits no |nu|, and the kaon state itself lies
    on the |x| = |y|, eta = pi boundary family, where d = 0.
    """
    formula_errs, family_errs, admitted = [], [], 0
    for eps in (1e-3, 1e-2, 1e-1, 0.5, 0.3 + 0.2j, -0.2 + 0.4j):
        half = abs(kaon_overlap(eps)) / 2.0
        for eta in (math.pi, 2.0, 0.7):
            formula_errs.extend(kaon_deviation_closed_form(eps, eta, branch)
                                - deviation_formula(0.5, half, half, eta, branch)
                                for branch in (+1, -1))
            with contextlib.suppress(NoCompatibleNu):
                deviation_closed_form(math.sqrt(0.5), half, half, eta, +1)
                admitted += 1
        s = kaon_entangled_state(eps)
        x_abs, y_abs = abs(s.x), abs(s.y)
        family_errs.extend((x_abs - y_abs, eta_phase(s) - math.pi,
                            abs(s.mu) ** 2 - 1.0 / (2.0 * (1.0 - x_abs * y_abs))))
    return [Gate("+1 branches with a compatible |nu|", admitted, high=0)] + [
        Gate(label, np.abs(errs), high=1e-15) for label, errs in
        (("worst |kaon d - general d at q=1/2|", formula_errs),
         ("worst boundary-family residual", family_errs))]


def _oracle_values(states: list, grid_n: int, refine_iters: int) -> tuple[np.ndarray, Gate]:
    """The oracle's values on ``states``, and a gate on its Newton polishes
    that stopped at the step cap, and so were still rising."""
    runs = [oracle_bell_run(embed(s), grid_n=grid_n, refine_iters=refine_iters) for s in states]
    return np.array([run.value for run in runs]), Gate(
        "polishes stopped at the step cap", sum(run.exit == "cap" for run in runs), high=0)


def _check_oracle(seed: int, grid_n: int, refine_iters: int,
                  count: int = 100) -> list[Gate]:
    states = list(random_states(count, seed + 3))
    got, capped = _oracle_values(states, grid_n, refine_iters)
    analytic = [analytic_bell(schmidt_decompose(s)) for s in states]
    canonical = [canonical_bell_value(s) for s in states]
    return [Gate("worst |oracle - analytic|", np.abs(got - analytic), high=1e-4),
            Gate("worst shortfall vs canonical", np.subtract(canonical, got), high=1e-9),
            Gate("max (oracle - 2*sqrt(2))", got - TWO_SQRT_TWO, high=1e-9), capped]


def _check_oracle_boundary(seed: int, grid_n: int, refine_iters: int,
                           count: int = 200) -> list[Gate]:
    """The oracle just below maximal violation, where its local search can stop short.

    The states are the boundary family |x| = |y| = t, eta = pi at
    |mu|^2 = s/(2 (1 - t^2)), s in {0.97, 0.99, 0.999} (s = 1 is maximal);
    the CHSH value there has a nearly flat ridge.
    """
    ts = np.random.default_rng(seed + 5).uniform(0.02, 0.97, count)
    states = [state_from_magnitudes(scale / (2.0 * (1.0 - t * t)), t, t, math.pi)
              for t, scale in zip(ts, itertools.cycle((0.97, 0.99, 0.999)))]
    got, capped = _oracle_values(states, grid_n, refine_iters)
    gaps = np.subtract([canonical_bell_value(s) for s in states], got)
    return [Gate("worst boundary-state shortfall vs canonical", gaps, high=1e-9), capped]


def _check_nn_generic() -> list[Gate]:
    """The scan's min d over each unequal pair lies on the closed-form floor."""
    floors = [nn_case_floor(abs_x, abs_y) for abs_x, abs_y in NN_PAIRS]
    gaps = [1.0 - concurrence_scan(abs_x, abs_y) ** 2 - floor
            for (abs_x, abs_y), floor in zip(NN_PAIRS, floors)]
    missed = sum(maximal_feasibility(abs_x, abs_y).verdict != VERDICT_INFEASIBLE
                 for abs_x, abs_y in NN_PAIRS)
    return [Gate("pairs not flagged infeasible", missed, high=0),
            Gate("(scan min d - floor)", gaps, low=-1e-9, high=1e-6),
            Gate("smallest floor", floors, low=math.ulp(0.0))]


def _check_scan_vs_pipeline(seed: int) -> list[Gate]:
    """The scan's concurrence kernel agrees with the per-state pipeline."""
    rng = np.random.default_rng(seed + 4)
    errs = []
    for _ in range(100):
        abs_x, abs_y = rng.uniform(0.05, 0.9, 2)
        eta, q = rng.uniform(-math.pi, math.pi), rng.uniform(0.01, 0.99)
        errs.append(1.0 - scan_concurrence(q, eta, abs_x, abs_y) ** 2
                    - state_deviation(q, abs_x, abs_y, eta))
    return [Gate("worst |vectorized - pipeline|", np.abs(errs), high=1e-10)]


def _check_feasible_orthogonal() -> list[Gate]:
    verdict = maximal_feasibility(0.0, 0.0)
    return [Gate(f"verdicts other than {VERDICT_FEASIBLE_ORTHOGONAL}",
                 int(verdict.verdict != VERDICT_FEASIBLE_ORTHOGONAL), high=0),
            Gate("|witness q - 1/2|", abs(verdict.witness_q - 0.5), high=0),
            Gate("witness d", verdict.witness_pipeline_d, high=1e-10)]


def _check_csv_format(seed: int, per_decade: int = 2400, uniform: int = 7900) -> list[Gate]:
    """The sweep CSV's number kernel against ``"%.12g"``, value by value.

    The values are the kernel's hard cases, about 20 000 in all: near-ties
    (k + 1/2) 10^(e - 11) of its 12-digit rounding in each decade e = -4..0,
    powers of ten from 10^-5 to 10 and the doubles two ulps either side,
    signed zeros, subnormals and U(0, 3).
    """
    rng = np.random.default_rng(seed + 6)
    ties = [(rng.integers(10 ** 11, 10 ** 12, per_decade) + 0.5) / 10.0 ** (11 - e)
            for e in range(-4, 1)]
    powers = 10.0 ** np.arange(-5, 2)
    below, above = np.nextafter(powers, 0.0), np.nextafter(powers, 20.0)
    near = [powers, below, np.nextafter(below, 0.0), above, np.nextafter(above, 20.0)]
    values = np.concatenate([*ties, *near, [0.0, -0.0],
                             math.ulp(0.0) * rng.integers(1, 2 ** 52, 50),
                             rng.uniform(0.0, 3.0, uniform)])
    fields = csv_number_fields(values)
    got = [field.tobytes().replace(b"\0", b"").decode("ascii") for field in fields.T]
    mismatches = sum(a != b for a, b in zip(got, csv_numbers(values.tolist())))
    return [Gate(f"values unlike %.12g (of {values.size})", mismatches, high=0)]


def checks(level: str = "quick", seed: int = DEFAULT_SEED, grid_n: int = DEFAULT_GRID_N,
           refine_iters: int = DEFAULT_REFINE_ITERS) -> dict[str, Check]:
    """The named checks of one level, in run order, each not yet run.

    Raises before any check runs for an unknown level, a negative ``seed``
    (the checks draw from seeds ``seed`` to ``seed + 6``) or oracle
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
        "csv-format": lambda: _check_csv_format(seed),
    }
    if level == "full":
        table["nn-generic-impossibility"] = _check_nn_generic
        table["oracle-vs-analytic-100"] = lambda: _check_oracle(seed, grid_n, refine_iters)
        table["oracle-boundary-200"] = lambda: _check_oracle_boundary(seed, grid_n, refine_iters)
    return table


def run_verify(level: str = "quick", seed: int = DEFAULT_SEED, grid_n: int = DEFAULT_GRID_N,
               refine_iters: int = DEFAULT_REFINE_ITERS) -> VerifySummary:
    results = [_run(name, fn) for name, fn in checks(level, seed, grid_n, refine_iters).items()]
    return VerifySummary(level=level, seed=seed, results=results)
