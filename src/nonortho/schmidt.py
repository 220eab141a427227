"""Reduced density matrices and Schmidt decomposition of the embedded state.

Everything here is strictly 2x2: the reduced density matrices of a two-qubit
pure state share the eigenvalue pair

    lambda_pm = 1/2 +- 1/2 * sqrt(1 - 4*|mu*nu*N_A*N_B|^2)

and the state splits as c_minus |-,-> + c_plus |+,+> over the local
eigenbases.  The eigenproblems are solved in closed form (trace/determinant
formulas), not iteratively.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .closed_forms import _clamp_unit, report_scalars
from .errors import DomainError
from .state import NonorthogonalState, embed

DEGENERACY_TOL = 1e-10


def _spectrum_2x2(a: float, c: float, b: complex) -> tuple[float, float]:
    """(mid, r) of the Hermitian [[a, b], [conj(b), c]]: its eigenvalues are mid -+ r."""
    return 0.5 * (a + c), math.hypot(0.5 * (a - c), abs(b))


def eigh_2x2(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form eigendecomposition of a 2x2 Hermitian matrix.

    Returns (eigenvalues ascending, column eigenvectors), mirroring
    numpy.linalg.eigh.  The second eigenvector is the exact orthogonal
    complement of the first, so the pair is orthonormal even near
    degeneracy.
    """
    a = h[0, 0].real
    c = h[1, 1].real
    b = h[0, 1]
    mid, r = _spectrum_2x2(a, c, b)
    lo, hi = mid - r, mid + r
    scale = max(abs(a), abs(c), abs(b))
    if r <= max(1e-300, scale * 1e-32):
        # numerically scalar: any orthonormal basis is an eigenbasis
        return np.array([lo, hi]), np.eye(2, dtype=complex)
    # eigenvector for hi from whichever null-space column of (h - hi*I) is
    # larger; pre-divide by the max component so tiny scales cannot underflow
    cand1 = np.array([b, hi - a], dtype=complex)
    cand2 = np.array([hi - c, np.conj(b)], dtype=complex)
    n1 = max(abs(cand1[0]), abs(cand1[1]))
    n2 = max(abs(cand2[0]), abs(cand2[1]))
    v_hi = cand1 / n1 if n1 >= n2 else cand2 / n2
    v_hi = v_hi / np.linalg.norm(v_hi)
    v_lo = np.array([-np.conj(v_hi[1]), np.conj(v_hi[0])])
    return np.array([lo, hi]), np.column_stack([v_lo, v_hi])


def coefficient_matrix(vector: np.ndarray) -> np.ndarray:
    """Reshape the 4-vector to the 2x2 coefficient matrix psi[i_A, j_B]."""
    return np.asarray(vector, dtype=complex).reshape(2, 2)


def reduced_density(state: NonorthogonalState, side: str) -> np.ndarray:
    """Partial trace of the pure-state projector over the other side.

    ``side`` is "A" or "B".  Both matrices are Hermitian with unit trace and
    share the determinant |mu*nu*N_A*N_B|^2.
    """
    psi = coefficient_matrix(embed(state))
    side = side.upper()
    if side == "A":
        return psi @ psi.conj().T
    if side == "B":
        return psi.T @ psi.conj()
    raise DomainError(f"side must be 'A' or 'B', got {side!r}")


def schmidt_eigenvalues(state: NonorthogonalState) -> tuple[float, float]:
    """(lambda_plus, lambda_minus) from the closed form of :func:`closed_forms.report_scalars`."""
    return report_scalars(state.mu, state.nu, state.x, state.y)[:2]


@dataclass(frozen=True)
class SchmidtForm:
    """Schmidt data: coefficients, phases, and the two local eigenbases.

    Gauge: the first component of each basis vector with magnitude above
    1e-12 is made real positive on both sides; all remaining phase freedom
    sits in c_minus and c_plus, so reconstruction is exact (no leftover
    global phase).  ``degenerate`` flags lambda_plus - lambda_minus < 1e-10;
    the bases are then one valid choice among many.
    """

    c_minus: complex
    c_plus: complex
    a_minus: np.ndarray
    a_plus: np.ndarray
    b_minus: np.ndarray
    b_plus: np.ndarray
    degenerate: bool = False

    @property
    def phi_minus(self) -> float:
        return cmath.phase(self.c_minus)

    @property
    def phi_plus(self) -> float:
        return cmath.phase(self.c_plus)


def _first_big_phase(v: np.ndarray) -> float:
    for comp in v:
        if abs(comp) > 1e-12:
            return cmath.phase(comp)
    return 0.0


def schmidt_coefficients(state: NonorthogonalState,
                         gram: np.ndarray | None = None) -> tuple[float, float]:
    """(s_plus, s_minus) = (|c_plus|, |c_minus|), from psi^dag psi alone, with no bases.

    s_plus = sqrt(lambda_plus), the larger eigenvalue of ``gram`` =
    psi^dag psi in closed form (stable everywhere, including degeneracy),
    and s_minus = |det psi| / s_plus = |mu nu| N_A N_B / s_plus, which
    avoids the cancellation the small eigenvalue suffers near product
    states.  ``gram`` is formed from the state when not given.
    """
    if gram is None:
        psi = coefficient_matrix(embed(state))
        gram = psi.conj().T @ psi
    mid, r = _spectrum_2x2(gram[0, 0].real, gram[1, 1].real, gram[0, 1])
    s_plus = math.sqrt(_clamp_unit(mid + r, "lambda_plus"))
    # the ordering s_minus <= s_plus is exact in real arithmetic; the min
    # guards the one-ulp rounding of the division
    s_minus = min(abs(state.mu * state.nu) * state.n_a * state.n_b / s_plus,
                  s_plus)
    return s_plus, s_minus


def schmidt_decompose(state: NonorthogonalState) -> SchmidtForm:
    """Split the embedded state as c_minus |-,-> + c_plus |+,+>.

    The eigenbases come from the closed-form eigendecomposition of
    psi^dag psi: the right singular vectors give side B (conjugated), psi
    maps them to side A.  The coefficient magnitudes are those of
    :func:`schmidt_coefficients`.  The minus vector on side A is
    re-orthogonalized against the plus vector so the basis stays
    orthonormal even when lambda_minus underflows.
    """
    psi = coefficient_matrix(embed(state))
    gram = psi.conj().T @ psi
    s_plus, s_minus = schmidt_coefficients(state, gram)
    evals, w = eigh_2x2(gram)
    lam_minus = s_minus * s_minus

    w_minus, w_plus = w[:, 0], w[:, 1]
    a_plus = psi @ w_plus / s_plus           # s_plus >= sqrt(1/2) always
    raw = psi @ w_minus
    raw = raw - np.vdot(a_plus, raw) * a_plus
    nrm = np.linalg.norm(raw)
    if nrm > 1e-14:
        a_minus = raw / nrm
    else:
        a_minus = np.array([-np.conj(a_plus[1]), np.conj(a_plus[0])])
    b_plus = np.conj(w_plus)
    b_minus = np.conj(w_minus)

    phases = {}
    vecs = {"a+": a_plus, "a-": a_minus, "b+": b_plus, "b-": b_minus}
    for key, vec in vecs.items():
        ph = _first_big_phase(vec)
        phases[key] = ph
        vecs[key] = vec * cmath.exp(-1j * ph)
    c_plus = s_plus * cmath.exp(1j * (phases["a+"] + phases["b+"]))
    c_minus = s_minus * cmath.exp(1j * (phases["a-"] + phases["b-"]))

    return SchmidtForm(
        c_minus=c_minus, c_plus=c_plus,
        a_minus=vecs["a-"], a_plus=vecs["a+"],
        b_minus=vecs["b-"], b_plus=vecs["b+"],
        # evals[1] is lambda_plus unclamped: it is at least 1/2, and the clamp moves
        # only values above 1, far from degeneracy
        degenerate=(evals[1] - lam_minus) < DEGENERACY_TOL)


def reconstruct(form: SchmidtForm) -> np.ndarray:
    """Reassemble the 4-vector c_minus (a- x b-) + c_plus (a+ x b+)."""
    return (form.c_minus * np.kron(form.a_minus, form.b_minus)
            + form.c_plus * np.kron(form.a_plus, form.b_plus))
