"""Feasibility of maximal CHSH violation and the deviation parameter.

The deviation d = 1 - |2 c+ c-|^2 measures departure from the maximal CHSH
value: the closed-form Bell value is 2*sqrt(2 - d), so d = 0 is maximal
violation and d = 1 is a product state.  Requiring d = 0 together with the
normalization constraint produces a quadratic in q = |mu|^2 whose
discriminant analysis splits by overlap pattern:

  OO  (both overlaps zero)      feasible, q = 1/2;
  ON  (exactly one nonzero, s)  infeasible, with the floor d >= s^2;
  NN  (both nonzero)            infeasible unless |x| = |y| and cos(eta) = -1,
                                where the boundary family q = 1/(2(1-|x||y|))
                                is maximal.

Feasible witnesses are validated by running the state pipeline.  Infeasible
verdicts carry the exact margin from the case floor; the scan oracle over
the (eta, q) domain is the independent check of that floor, run by
``verify``, the tests and ``analyze --oracle``.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NoCompatibleNu, NonorthoError, WitnessUnverified
from .closed_forms import _clamp_unit
from .schmidt import SchmidtForm, schmidt_decompose
from .state import ORTHO_EPS, make_state, state_from_magnitudes

SCAN_ETA_POINTS = 720
SCAN_Q_POINTS = 2000


def deviation(form: SchmidtForm) -> float:
    """d = 1 - |2 c+ c-|^2, clamped to [0, 1] against rounding no wider than 1e-12."""
    return _clamp_unit(1.0 - (2.0 * abs(form.c_plus) * abs(form.c_minus)) ** 2,
                       "deviation")


def state_deviation(mu_sq: float, x_abs: float, y_abs: float,
                    eta: float = math.pi) -> float:
    """Pipeline deviation of the canonical state with these magnitudes."""
    return deviation(schmidt_decompose(state_from_magnitudes(mu_sq, x_abs, y_abs, eta)))


def mu_squared_solutions(abs_x: float, abs_y: float, d: float,
                         eta: float | None = None) -> list[float]:
    """Real roots q = |mu|^2 in (0, 1) reaching deviation d, by overlap case.

    Both quadratic branches are returned (neither root is privileged); a
    double root appears once.  An empty list means no real solution exists,
    which is a meaningful verdict rather than a failure.  ``eta`` is only
    consulted when both overlaps are nonzero.
    """
    if not (0.0 <= abs_x < 1.0 and 0.0 <= abs_y < 1.0):
        raise DomainError(f"overlaps out of range: {abs_x}, {abs_y}")
    if not (0.0 <= d < 1.0):
        raise DomainError(f"deviation target out of range: {d}")
    case = overlap_case(abs_x, abs_y)
    if case == "NN":
        if eta is None:
            raise DomainError("eta is required when both overlaps are nonzero")
        g = (1.0 - abs_x ** 2) * (1.0 - abs_y ** 2)
        big_x = math.sqrt(abs_x ** 2 * abs_y ** 2 * (1.0 - d) / g)
        lead = 1.0 - big_x * math.cos(eta)
        disc = lead * lead - big_x ** 2 / (abs_x ** 2 * abs_y ** 2)
        roots = _quadratic_roots(lead, disc)
    elif case == "ON":
        s = max(abs_x, abs_y)   # the surviving overlap
        roots = _quadratic_roots(1.0, (d - s * s) / (1.0 - s * s))
    else:
        roots = _quadratic_roots(1.0, d)
    return [q for q in roots if 0.0 < q < 1.0]


def _quadratic_roots(lead: float, disc: float) -> list[float]:
    """Roots (lead +- sqrt(disc)) / 2; |disc| < 1e-12 counts as a double root."""
    if disc < -1e-12:
        return []
    if disc < 1e-12:
        return [0.5 * lead]
    root = math.sqrt(disc)
    return [0.5 * (lead - root), 0.5 * (lead + root)]


@dataclass(frozen=True)
class ClosedFormDeviation:
    """Closed-form deviation for one branch, with its pipeline comparator."""

    closed_form: float
    pipeline: float
    difference: float


def deviation_formula(q: float, abs_x: float, abs_y: float, eta: float,
                      branch: int) -> float:
    """Deviation as an explicit function of (q = |mu|^2, overlaps, eta) for one branch.

    With G = (1-|x|^2)(1-|y|^2) and Z = sqrt(2(1-q) + q|x|^2|y|^2(1+cos 2 eta)):

        d = 1 - 4G [ q + q^2 (2|x|^2|y|^2 cos^2 eta - 1)
                     +- sqrt(2) Z q^{3/2} |x||y| cos(eta) ]

    ``branch`` (+1 or -1) selects the printed sign.  The formula is
    evaluated as printed, whether or not the branch admits a state.
    """
    if branch not in (+1, -1):
        raise DomainError(f"branch must be +1 or -1, got {branch}")
    g = (1.0 - abs_x ** 2) * (1.0 - abs_y ** 2)
    t = abs_x * abs_y * math.cos(eta)
    z = math.sqrt(max(2.0 * (1.0 - q) + q * abs_x ** 2 * abs_y ** 2
                      * (1.0 + math.cos(2.0 * eta)), 0.0))
    bracket = (q + q * q * (2.0 * abs_x ** 2 * abs_y ** 2 * math.cos(eta) ** 2 - 1.0)
               + branch * math.sqrt(2.0) * z * q ** 1.5 * t)
    return 1.0 - 4.0 * g * bracket


def deviation_closed_form(abs_mu: float, abs_x: float, abs_y: float, eta: float,
                          branch: int) -> ClosedFormDeviation:
    """:func:`deviation_formula` at q = |mu|^2, checked against the pipeline.

    Each branch corresponds to one solution |nu| = -s -+ sqrt(1 - q + s^2),
    s = |mu||x||y| cos(eta), of the normalization constraint; the matching
    pipeline deviation and the absolute difference are reported alongside.
    Raises NoCompatibleNu when the selected branch admits no nonnegative
    |nu|.
    """
    if not (0.0 <= abs_x < 1.0 and 0.0 <= abs_y < 1.0):
        raise DomainError(f"overlaps out of range: {abs_x}, {abs_y}")
    if abs_mu < 0.0:
        raise DomainError(f"abs_mu must be nonnegative, got {abs_mu}")
    q = abs_mu * abs_mu
    closed = deviation_formula(q, abs_x, abs_y, eta, branch)

    s = abs_mu * abs_x * abs_y * math.cos(eta)
    nu_mag = -s - branch * math.sqrt(max(1.0 - q + s * s, 0.0))
    if nu_mag < -1e-12:
        raise NoCompatibleNu(
            f"branch {branch:+d} gives |nu| = {nu_mag:.3e} < 0 for these inputs")
    nu = max(nu_mag, 0.0) * cmath.exp(-1j * eta)
    state = make_state(complex(abs_mu), nu, complex(abs_x), complex(abs_y),
                       auto_normalize=True)
    pipeline = deviation(schmidt_decompose(state))
    return ClosedFormDeviation(closed, pipeline, abs(closed - pipeline))


VERDICT_FEASIBLE_ORTHOGONAL = "FeasibleOrthogonal"
VERDICT_FEASIBLE_DEGENERATE = "FeasibleDegenerate"
VERDICT_INFEASIBLE = "Infeasible"


@dataclass(frozen=True)
class FeasibilityVerdict:
    """Outcome of the maximal-violation feasibility analysis for (|x|, |y|).

    ``witness_q`` is present iff feasible, and ``witness_pipeline_d`` is its
    validated pipeline deviation.  For infeasible pairs, ``margin`` is 1
    minus the largest reachable concurrence, sqrt(1 - floor), in closed form.
    """

    verdict: str
    witness_q: float | None = None
    required_eta: float | None = None
    witness_pipeline_d: float | None = None
    margin: float | None = None


def overlap_case(abs_x: float, abs_y: float) -> str:
    """Classify the overlap pattern: 'OO', 'ON' or 'NN' (threshold 1e-12)."""
    x_on = abs_x > ORTHO_EPS
    y_on = abs_y > ORTHO_EPS
    if x_on and y_on:
        return "NN"
    if x_on or y_on:
        return "ON"
    return "OO"


def scan_concurrence(q, eta, abs_x: float, abs_y: float):
    """Concurrence 2 sqrt(q) |nu| sqrt(G) of the canonical state, elementwise.

    ``q`` = |mu|^2 and ``eta`` are arrays (or scalars) that broadcast; |nu|
    is the principal root sqrt(1 - q + s^2) - s, s = sqrt(q)|x||y|cos(eta),
    of the normalization constraint, as in ``state_from_magnitudes``.  Where
    that root is negative no state exists and the value is negative.
    """
    s = np.sqrt(q) * abs_x * abs_y * np.cos(eta)
    nu_mag = np.sqrt(np.maximum(1.0 - q + s * s, 0.0)) - s
    g = (1.0 - abs_x ** 2) * (1.0 - abs_y ** 2)
    return 2.0 * np.sqrt(q) * nu_mag * math.sqrt(g)


def concurrence_scan(abs_x: float, abs_y: float,
                     eta_points: int = SCAN_ETA_POINTS,
                     q_points: int = SCAN_Q_POINTS) -> float:
    """Largest pipeline concurrence over an (eta, q) grid, vectorized.

    For each eta, q runs over the open interval (0, 1/(1 - |x|^2|y|^2
    cos^2 eta)) on which a real |nu| exists.  Where two nonnegative roots
    exist (q > 1, cos eta < 0) the principal one is the larger, and the
    concurrence grows with |nu|, so the scan covers the maximum over every
    admissible state at these overlap magnitudes, up to the phase
    conventions that the concurrence ignores.
    """
    etas = np.linspace(-math.pi, math.pi, eta_points)[:, None]
    q_max = 1.0 / (1.0 - (abs_x * abs_y * np.cos(etas)) ** 2)
    qs = q_max * np.linspace(0.0, 1.0, q_points + 2)[1:-1]
    return float(scan_concurrence(qs, etas, abs_x, abs_y).max())


def maximal_feasibility(abs_x: float, abs_y: float) -> FeasibilityVerdict:
    """Can these overlap magnitudes support maximal CHSH violation?

    Equal overlaps are matched within 1e-12, as is the orthogonality
    threshold.  Feasible witnesses are checked by constructing the state and
    requiring pipeline d < 1e-10.  Infeasible verdicts carry the margin
    1 - sqrt(1 - f) = f / (1 + sqrt(1 - f)) from the case floor f, written
    without the cancellation near f = 0.
    """
    if not (0.0 <= abs_x < 1.0 and 0.0 <= abs_y < 1.0):
        raise DomainError(f"overlaps out of range: {abs_x}, {abs_y}")
    case = overlap_case(abs_x, abs_y)
    if case == "OO":
        return _validated_feasible(VERDICT_FEASIBLE_ORTHOGONAL, 0.5, None,
                                   abs_x, abs_y)
    if case == "NN" and abs(abs_x - abs_y) < 1e-12:
        witness = 1.0 / (2.0 * (1.0 - abs_x * abs_y))
        return _validated_feasible(VERDICT_FEASIBLE_DEGENERATE, witness, math.pi,
                                   abs_x, abs_y)
    floor = (on_case_floor(max(abs_x, abs_y)) if case == "ON"
             else nn_case_floor(abs_x, abs_y))
    return FeasibilityVerdict(VERDICT_INFEASIBLE,
                              margin=floor / (1.0 + math.sqrt(1.0 - floor)))


def _validated_feasible(verdict: str, witness_q: float, required_eta: float | None,
                        abs_x: float, abs_y: float) -> FeasibilityVerdict:
    """The verdict with its witness state's pipeline d, which must be below 1e-10.

    Raises WitnessUnverified, naming the witness, when its state cannot be
    built or misses the gate: near |x| = |y| = 1 the witness
    q = 1/(2(1 - |x||y|)) cancels in double precision.
    """
    eta = required_eta if required_eta is not None else math.pi
    witness = "feasibility witness q={} at |x|={}, |y|={}".format
    try:
        d = state_deviation(witness_q, abs_x, abs_y, eta)
    except NonorthoError as exc:
        raise WitnessUnverified(f"{witness(witness_q, abs_x, abs_y)} has no valid state: "
                                f"{exc}") from exc
    if d >= 1e-10:
        raise WitnessUnverified(f"{witness(witness_q, abs_x, abs_y)} failed validation: "
                                f"pipeline d={d:.3e}")
    return FeasibilityVerdict(verdict, witness_q=witness_q,
                              required_eta=required_eta, witness_pipeline_d=d)


def on_case_floor(overlap: float) -> float:
    """Smallest reachable deviation with one overlap s: d >= s^2 (at q = 1/2)."""
    return overlap * overlap


def nn_case_floor(abs_x: float, abs_y: float) -> float:
    """Smallest reachable deviation with both overlaps nonzero.

    d >= 1 - (1-|x|^2)(1-|y|^2) / (1 - |x||y|)^2, tight at cos(eta) = -1 and
    the balanced splitting q = 1/(2(1-|x||y|)); zero exactly when |x| = |y|.
    Evaluated as the equal ((|x| - |y|) / (1 - |x||y|))^2, which keeps its
    relative accuracy as |x| - |y| -> 0, where the printed form cancels.
    """
    return ((abs_x - abs_y) / (1.0 - abs_x * abs_y)) ** 2
