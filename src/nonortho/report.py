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
from typing import Iterable, Sequence

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


# The one CSV number format: "%.12g" % v and f"{v:.12g}" print the same digits.
_CSV_NUMBER = f"%.{CSV_SIG_DIGITS}g"


def csv_numbers(values: Iterable[float]) -> list[str]:
    """The CSV text of each value: ``"%.12g" % v``."""
    return list(map(_CSV_NUMBER.__mod__, values))


def csv_row(mu_sq: float, x_abs: float, y_abs: float, eta: float,
            report: EntanglementReport) -> list[str]:
    return csv_numbers((mu_sq, x_abs, y_abs, eta, report.lambda_plus, report.lambda_minus,
                        report.bell_analytic, report.d, report.concurrence,
                        report.entropy_bits))


# A sweep block's CSV text is built as one (bytes, rows) uint8 matrix: each
# field is a run of rows holding its text NUL-padded, commas and the newline
# are constant rows, and the NULs are deleted from the transposed bytes.
CSV_FIELD_BYTES = 19   # the longest "%.12g" text, "-1.23456789012e-308"
# fl(10^k) > 10^k for k = -4..-1, so v >= fl(10^k) exactly when v >= 10^k
_DECADES = np.array([1e-3, 1e-2, 1e-1, 1.0])
_TO_INTEGER = np.array([1e15, 1e14, 1e13, 1e12, 1e11])                 # 10^(11 - e)
_TO_FIXED = 10 ** np.arange(5, dtype=np.int64)                         # 10^(e + 4)
_TIE_WINDOW = 2.0 ** -13


def _digit_tables() -> tuple[np.ndarray, np.ndarray]:
    """Character columns of the fixed-point field [NUL, tens, units, '.', 15 digits].

    ``fraction[:, g]`` is the three digits of a fraction group g < 1000 and
    ``fraction[:, 1000 + g]`` the same with its trailing zeros NUL, for the
    last nonzero group.  ``units[:, i]`` is NUL, the tens, the units and the
    point of an integer part i <= 10, and ``units[:, 11 + i]`` the same
    without the point, for a value with no nonzero fraction digit.
    """
    g = np.arange(1000)
    digits = np.stack([g // 100, g // 10 % 10, g % 10]) + ord("0")
    trailing = np.stack([g == 0, g % 100 == 0, g % 10 == 0])
    fraction = np.concatenate([digits, np.where(trailing, 0, digits)], axis=1)
    i = np.arange(22) % 11
    units = np.stack([np.zeros(22, dtype=np.int64), np.where(i >= 10, ord("1"), 0),
                      i % 10 + ord("0"), np.where(np.arange(22) < 11, ord("."), 0)])
    return fraction.astype(np.uint8), units.astype(np.uint8)


_FRACTION_CHARS, _UNITS_CHARS = _digit_tables()


def csv_fields(texts: Sequence[str], width: int | None = None) -> np.ndarray:
    """The texts as NUL-padded byte columns: a (width, len(texts)) uint8 matrix.

    ``width`` defaults to the longest text; a longer text would be cut.
    """
    fixed = np.array(texts, dtype=bytes if width is None else f"S{width}")
    return np.ascontiguousarray(fixed.view(np.uint8).reshape(len(texts), -1).T)


def csv_number_fields(values: np.ndarray) -> np.ndarray:
    """The ``"%.12g"`` text of each value as a NUL-padded byte column, mostly in numpy.

    Returns a (CSV_FIELD_BYTES, len(values)) uint8 matrix; deleting its NULs,
    which may lead a column as well as trail it, leaves each value's text.

    A value v with 1e-4 <= v < 10 prints "%.12g" as a fixed-point number,
    which is built here from its 12 significant digits.  With
    e = floor(log10 v) (exactly, by comparison with the decades),
    P = v 10^(11 - e) lies in [1e11, 1e12), and the power of ten is an
    exact double since 11 - e <= 15.  The product P' = fl(P) < 2^40 is
    rounded once, to within half an ulp, so |P' - P| <= 2^-14.  Outside
    the tie window, where P' lies within 1/2 - 2^-13 of rint(P'), P and P'
    lie between the same two half-integers, so rint(P') is P correctly
    rounded: the 12 digits "%.12g" prints (rint(P') = 1e12 carries into
    the next decade).  Then F = rint(P') 10^(e + 4) <= 10^16 is v in units
    of 10^-15, exactly in int64; its six groups of three digits come from
    the tables, and the leading and trailing zeros "%.12g" drops are NUL.
    Every other value (zero, v < 1e-4 or v >= 10, negatives, -0.0,
    non-finite values and the near-ties) is formatted by ``"%.12g"`` and
    written into its column.
    """
    values = np.asarray(values, dtype=np.float64)
    fast = (values >= 1e-4) & (values < 10.0)
    v = np.where(fast, values, 1.0)
    decade = _DECADES.searchsorted(v, side="right")   # e + 4
    scaled = v * _TO_INTEGER.take(decade)
    rounded = np.rint(scaled)
    fast &= np.abs(scaled - rounded) < 0.5 - _TIE_WINDOW
    fixed = rounded.astype(np.int64) * _TO_FIXED.take(decade)
    # six groups of three digits, the integer part first, each split off by a
    # scalar divisor (numpy divides by a scalar far faster than by an array)
    groups = np.empty((6, v.size), dtype=np.int64)
    for j in range(5, 0, -1):
        above = fixed // 1000
        groups[j] = fixed - 1000 * above
        fixed = above
    groups[0] = fixed
    # last[j]: every fraction group after group j is zero, so that group j is
    # the last printed and takes the table columns with trailing zeros NUL
    last = np.empty(groups.shape, dtype=bool)
    last[5] = True
    for j in range(4, -1, -1):
        np.logical_and(last[j + 1], groups[j + 1] == 0, out=last[j])
    out = np.empty((CSV_FIELD_BYTES, v.size), dtype=np.uint8)
    _UNITS_CHARS.take(groups[0] + 11 * last[0], axis=1, out=out[:4], mode="clip")
    for j in range(1, 6):
        _FRACTION_CHARS.take(groups[j] + 1000 * last[j], axis=1, out=out[3 * j + 1:3 * j + 4],
                             mode="clip")
    slow = np.flatnonzero(~fast)
    if slow.size:
        out[:, slow] = csv_fields(csv_numbers(values[slow].tolist()), CSV_FIELD_BYTES)
    return out


def csv_block(params: Sequence[np.ndarray], scalars: Sequence[np.ndarray]) -> str:
    """CSV text of a block of sweep rows, each line ending in a newline.

    ``params`` are the four parameter columns already as byte fields, one
    (width, rows) matrix each (from :func:`csv_fields`, laid out per row),
    so that a sweep formats each distinct parameter value once; ``scalars``
    are the six report-scalar columns as float arrays, formatted by one
    :func:`csv_number_fields` call.
    """
    rows = len(scalars[0])
    numbers = csv_number_fields(np.concatenate(scalars)).reshape(CSV_FIELD_BYTES, -1, rows)
    fields = [*params, *numbers.transpose(1, 0, 2)]
    matrix = np.empty((sum(len(f) + 1 for f in fields), rows), dtype=np.uint8)
    top = 0
    for field in fields:
        matrix[top:top + len(field)] = field
        top += len(field)
        matrix[top] = ord(",")
        top += 1
    matrix[-1] = ord("\n")
    return matrix.T.tobytes().translate(None, b"\0").decode("ascii")


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
