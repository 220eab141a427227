"""Assembly of the per-state entanglement report and its JSON/CSV forms.

Also the canonical-settings CHSH route, ``canonical_bell_value``: the CHSH
combination at the settings of the Schmidt form that reach the closed form
2*sqrt(1 + |2 c+ c-|^2), with the unit-spin observables

    Theta(chi, phi) = cos(chi) (|+><+| - |-><-|)
                    + sin(chi) (e^{i phi} |+><-| + e^{-i phi} |-><+|)

built in the Schmidt bases: chi_A = 0, chi_A' = pi/2 and
chi_B = -chi_B' = arccos[1 + |2 c+ c-|^2]^{-1/2}, with the whole phase
phi_plus - phi_minus on side A and 0 on side B (the phase sums
phi_A + phi_B = phi_A' + phi_B' fix only the total).  It shares no code
with the CHSH maximizer of ``bell``, which is checked against it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from . import measures
from .bell import DEFAULT_GRID_N, DEFAULT_REFINE_ITERS, oracle_bell_max
from .closed_forms import report_scalars
from .errors import NonHermitianDrift, PhaseUndefined
from .feasibility import (VERDICT_INFEASIBLE, FeasibilityVerdict, concurrence_scan,
                          maximal_feasibility)
from .kaon import (KaonEvolution, kaon_deviation_closed_form,
                   kaon_entangled_state, kaon_overlap_mag_sq_alt,
                   weak_decay_norm)
from .schmidt import DEGENERACY_TOL, schmidt_decompose
from .state import NonorthogonalState, embed, eta_phase, wrap_angle

SCHEMA_VERSION = 2

CSV_SIG_DIGITS = 12

CSV_COLUMNS = ("mu_sq", "x_abs", "y_abs", "eta", "lambda_plus", "lambda_minus",
               "bell_analytic", "d", "concurrence", "entropy_bits")


@dataclass
class EntanglementReport:
    """All derived scalars for one state, plus the feasibility summary.

    ``bell_oracle`` and ``scan_margin`` come from the brute-force oracles and
    are None unless they were requested; ``scan_margin`` is 1 minus the
    largest concurrence the (eta, q) scan finds for an infeasible verdict.
    """

    state: NonorthogonalState
    lambda_plus: float
    lambda_minus: float
    bell_analytic: float
    d: float
    concurrence: float
    entropy_bits: float
    eta: float | None
    feasibility: FeasibilityVerdict | None
    bell_oracle: float | None = None
    scan_margin: float | None = None
    warnings: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        s = self.state
        doc = {
            "schema_version": SCHEMA_VERSION,
            "input": {
                "mu_re": s.mu.real, "mu_im": s.mu.imag,
                "nu_re": s.nu.real, "nu_im": s.nu.imag,
                "x_re": s.x.real, "x_im": s.x.imag,
                "y_re": s.y.real, "y_im": s.y.imag,
            },
            "lambda_plus": self.lambda_plus,
            "lambda_minus": self.lambda_minus,
            "bell_analytic": self.bell_analytic,
            "bell_oracle": self.bell_oracle,
            "d": self.d,
            "concurrence": self.concurrence,
            "entropy_bits": self.entropy_bits,
            "entropy_nats": measures.entropy_nats(self.entropy_bits),
            "eta": self.eta,
            "feasibility": None if self.feasibility is None else {
                "verdict": self.feasibility.verdict,
                "witness_q": self.feasibility.witness_q,
                "required_eta": self.feasibility.required_eta,
                "witness_pipeline_d": self.feasibility.witness_pipeline_d,
                "margin": self.feasibility.margin,
                "scan_margin": self.scan_margin,
            },
            "warnings": list(self.warnings),
        }
        return doc


def analyze_state(state: NonorthogonalState, with_oracle: bool = False,
                  grid_n: int = DEFAULT_GRID_N, refine_iters: int = DEFAULT_REFINE_ITERS,
                  with_feasibility: bool = True) -> EntanglementReport:
    """Run the full pipeline on one validated state.

    The six report scalars come from one :func:`closed_forms.report_scalars`
    call.  ``with_feasibility=False`` skips the overlap-pattern verdict,
    leaving the per-state scalars of a sweep row (sweeps themselves run
    through :func:`batch.sweep_blocks`).  ``with_oracle`` runs the CHSH
    maximizer and, for an infeasible verdict, the concurrence scan.
    """
    warnings: list[str] = []
    lam_plus, lam_minus, bell, d, concurrence, entropy = report_scalars(
        state.mu, state.nu, state.x, state.y)
    if lam_plus - lam_minus < DEGENERACY_TOL:
        warnings.append("degenerate-schmidt: lambda_plus - lambda_minus < 1e-10, "
                        "local bases are one valid choice among many")
    try:
        eta = eta_phase(state)
    except PhaseUndefined:
        eta = None
        warnings.append("eta-undefined: a parameter is zero, phase combination "
                        "not reported")
    report = EntanglementReport(
        state=state,
        lambda_plus=lam_plus,
        lambda_minus=lam_minus,
        bell_analytic=bell,
        d=d,
        concurrence=concurrence,
        entropy_bits=entropy,
        eta=eta,
        feasibility=(maximal_feasibility(abs(state.x), abs(state.y))
                     if with_feasibility else None),
        warnings=warnings,
    )
    if with_oracle:
        report.bell_oracle = oracle_bell_max(embed(state), grid_n=grid_n,
                                             refine_iters=refine_iters)
        verdict = report.feasibility
        if verdict is not None and verdict.verdict == VERDICT_INFEASIBLE:
            report.scan_margin = 1.0 - concurrence_scan(abs(state.x), abs(state.y))
    return report


def kaon_report(eps: complex, eta: float = math.pi,
                evolution: KaonEvolution | None = None,
                with_oracle: bool = False, grid_n: int = DEFAULT_GRID_N,
                refine_iters: int = DEFAULT_REFINE_ITERS) -> dict:
    """Entanglement report for the two-kaon state plus comparison fields.

    ``pipeline_d`` is the report's own d; each discrepancy is its distance
    from the closed-form d(eps) of one branch.  The overlap fields read the
    state's x, which ``make_state`` keeps as ``kaon_overlap(eps)`` gave it.
    """
    report = analyze_state(kaon_entangled_state(eps), with_oracle=with_oracle,
                           grid_n=grid_n, refine_iters=refine_iters)
    overlap = report.state.x
    plus = kaon_deviation_closed_form(eps, eta, +1)
    minus = kaon_deviation_closed_form(eps, eta, -1)
    doc = report.to_dict()
    doc["kaon"] = {
        "epsilon_re": complex(eps).real,
        "epsilon_im": complex(eps).imag,
        "eta": eta,
        "overlap_re": overlap.real,
        "overlap_im": overlap.imag,
        "overlap_mag_sq": abs(overlap) ** 2,
        "overlap_mag_sq_alt": kaon_overlap_mag_sq_alt(eps),
        "closed_form_d_plus": plus,
        "closed_form_d_minus": minus,
        "pipeline_d": report.d,
        "discrepancy_plus": abs(plus - report.d),
        "discrepancy_minus": abs(minus - report.d),
        "weak_decay_norm": (None if evolution is None
                            else weak_decay_norm(eps, evolution)),
    }
    return doc


def to_json(doc: dict) -> str:
    """Indented strict JSON; floats print as their shortest round-trip repr.

    A non-finite float raises ValueError rather than printing NaN.
    """
    return json.dumps(doc, indent=2, allow_nan=False)


# one conversion per value: "%.12g" % v and f"{v:.12g}" print the same digits
_CSV_NUMBER = f"%.{CSV_SIG_DIGITS}g"
_CSV_LINE = ",".join(["%s"] * 4 + [_CSV_NUMBER] * (len(CSV_COLUMNS) - 4))


def csv_numbers(values: Iterable[float]) -> list[str]:
    """The CSV text of each value, in the number format of :func:`csv_lines`."""
    return list(map(_CSV_NUMBER.__mod__, values))


def csv_lines(rows: Iterable[tuple]) -> str:
    """CSV text of report rows, one line each.

    A row is a tuple in CSV_COLUMNS order: the four parameters as text from
    :func:`csv_numbers`, so that a sweep formats each distinct parameter
    value once, then the six report scalars as floats.
    """
    return "\n".join(map(_CSV_LINE.__mod__, rows))


def csv_row(mu_sq: float, x_abs: float, y_abs: float, eta: float,
            report: EntanglementReport) -> list[str]:
    values = (*csv_numbers((mu_sq, x_abs, y_abs, eta)), report.lambda_plus,
              report.lambda_minus, report.bell_analytic, report.d, report.concurrence,
              report.entropy_bits)
    return csv_lines([values]).split(",")


def _spin_observable(chi: float, phi: float, plus: np.ndarray,
                     minus: np.ndarray) -> np.ndarray:
    """Theta(chi, phi), the 2x2 Hermitian unit-spin component, in the basis (plus, minus)."""
    pp = np.outer(plus, plus.conj())
    mm = np.outer(minus, minus.conj())
    pm = np.outer(plus, minus.conj())
    c, s = math.cos(chi), math.sin(chi)
    e = complex(math.cos(phi), math.sin(phi))
    return c * (pp - mm) + s * (e * pm + np.conj(e) * pm.conj().T)


def canonical_bell_value(state: NonorthogonalState) -> float:
    """<psi| A (B + B') + A' (B - B') |psi> at the canonical settings in the Schmidt bases.

    chi_A = 0, chi_A' = pi/2, chi_B = -chi_B' = arccos[1 + |2 c+ c-|^2]^{-1/2},
    with the phase phi_plus - phi_minus on side A and 0 on side B.  Raises
    NonHermitianDrift if the imaginary residue exceeds 1e-10.
    """
    form = schmidt_decompose(state)
    k_sq = (2.0 * abs(form.c_plus) * abs(form.c_minus)) ** 2
    chi_b = math.acos(1.0 / math.sqrt(1.0 + k_sq))
    phase = wrap_angle(form.phi_plus - form.phi_minus)
    a, a_prime = (_spin_observable(chi, phase, form.a_plus, form.a_minus)
                  for chi in (0.0, math.pi / 2.0))
    b, b_prime = (_spin_observable(chi, 0.0, form.b_plus, form.b_minus)
                  for chi in (chi_b, -chi_b))
    vector = embed(state)
    value = np.vdot(vector, (np.kron(a, b + b_prime) + np.kron(a_prime, b - b_prime)) @ vector)
    if abs(value.imag) > 1e-10:
        raise NonHermitianDrift(f"imaginary residue {value.imag:.3e} exceeds 1e-10")
    return float(value.real)
