"""Neutral-kaon application: CP violation makes the mass eigenstates overlap.

In the CP basis (K1, K2) the mass eigenstates are

    K_S = (1, eps) / sqrt(1 + |eps|^2),    K_L = (eps, 1) / sqrt(1 + |eps|^2)

so <K_S|K_L> = (eps + conj(eps)) / (1 + |eps|^2) = 2 Re(eps) / (1 + |eps|^2).
The antisymmetric two-kaon state from Phi decay maps onto the general
parametrization with mu = -nu and x = y = <K_S|K_L>.  Renormalized, it lies
on the NN boundary family |x| = |y|, eta = pi, |mu|^2 = 1/(2(1 - |x||y|)),
so d = 0 for every |eps| < 1: an antisymmetrized pair is the singlet.  The
explicit d(eps) of :func:`kaon_deviation_closed_form` is the general
formula at |mu|^2 = 1/2 with the overlap |Re eps| / (1 + |eps|^2), which
lacks the factor 2 of <K_S|K_L>; its +1 branch admits no |nu| >= 0.  Both
numbers are reported side by side.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, SingularNorm
from .feasibility import deviation_formula
from .state import NonorthogonalState, make_state


def _check_eps(eps: complex) -> complex:
    eps = complex(eps)
    if not cmath.isfinite(eps):
        raise DomainError(f"CP parameter must be finite, got eps={eps}")
    # a component >= 1 is rejected before abs(), which overflows near the largest float
    if max(abs(eps.real), abs(eps.imag)) >= 1.0 or abs(eps) >= 1.0:
        raise DomainError(f"CP parameter must satisfy |eps| < 1, got eps={eps}")
    return eps


def mass_eigenstates(eps: complex) -> tuple[np.ndarray, np.ndarray]:
    """(K_S, K_L) as unit vectors in the CP basis (K1, K2)."""
    eps = _check_eps(eps)
    norm = math.sqrt(1.0 + abs(eps) ** 2)
    k_short = np.array([1.0, eps], dtype=complex) / norm
    k_long = np.array([eps, 1.0], dtype=complex) / norm
    return k_short, k_long


def kaon_overlap(eps: complex) -> complex:
    """<K_S|K_L> from the eigenstate vectors: (eps + conj(eps)) / (1 + |eps|^2)."""
    k_short, k_long = mass_eigenstates(eps)
    return complex(np.vdot(k_short, k_long))


def kaon_overlap_mag_sq_alt(eps: complex) -> float:
    """Squared overlap under the convention (Re eps / (1+|eps|^2))^2.

    This alternate normalization omits the factor 2 relative to the direct
    inner product; it is emitted alongside the first-principles value so the
    tension between the two conventions stays visible in reports.
    """
    eps = _check_eps(eps)
    return (eps.real / (1.0 + abs(eps) ** 2)) ** 2


def kaon_entangled_state(eps: complex) -> NonorthogonalState:
    """The antisymmetric two-kaon state mapped onto the (mu, nu, x, y) form.

    Component assignments: side A uses (K_S, K_L), side B uses (K_L, K_S),
    so both overlaps equal <K_S|K_L> and mu = -nu; amplitudes are rescaled
    to unit norm.
    """
    eps = _check_eps(eps)
    overlap = kaon_overlap(eps)
    return make_state(1.0, -1.0, overlap, overlap, auto_normalize=True)


@dataclass(frozen=True)
class KaonEvolution:
    """Widths of the short and long modes and an elapsed proper time."""

    gamma_s: float
    gamma_l: float
    t: float

    def __post_init__(self) -> None:
        if not all(math.isfinite(v) for v in (self.gamma_s, self.gamma_l, self.t)):
            raise DomainError("decay widths and time must be finite")
        if self.gamma_s < 0 or self.gamma_l < 0:
            raise DomainError("decay widths must be nonnegative")
        if self.t < 0:
            raise DomainError("time must be nonnegative")


def weak_decay_norm(eps: complex, evo: KaonEvolution) -> float:
    """Overall intensity factor |N(t)| = (1+|eps|^2)/|1-eps^2| * exp(-(G_S+G_L)t/2).

    Pure damping of the pair intensity; it never enters the entanglement
    scalars, which always use the renormalized state.
    """
    eps = _check_eps(eps)
    denom = abs(1.0 - eps * eps)
    if denom < 1e-300:
        raise SingularNorm("1 - eps^2 vanishes; intensity factor is singular")
    # halve before adding: two widths near the largest float overflow in their sum
    rate = 0.5 * evo.gamma_s + 0.5 * evo.gamma_l
    return (1.0 + abs(eps) ** 2) / denom * math.exp(-rate * evo.t)


def kaon_deviation_closed_form(eps: complex, eta: float, branch: int) -> float:
    """The explicit d(eps): :func:`feasibility.deviation_formula` at q = 1/2.

    With r = Re(eps) and k = 1 + |eps|^2 this is

        d = 1 - {1 - (r/k)^2}^2 [1 + sqrt(2) Y cos(eta) r^2 k^-4]
        Y = sqrt(2) cos(eta) r^2 +- sqrt(r^4 + r^4 cos(2 eta) + 2 k^4),

    the general formula at |x| = |y| = |r| / k.  ``branch`` (+1/-1) picks
    the sign.  ``eta`` is a free input: the antisymmetric construction pins
    cos(eta) = -1, but the formula is defined for any phase combination.
    """
    eps = _check_eps(eps)
    if not math.isfinite(2.0 * eta):   # the formula takes cos(2 eta)
        raise DomainError(f"eta and 2*eta must be finite, got {eta}")
    overlap = math.sqrt(kaon_overlap_mag_sq_alt(eps))
    return deviation_formula(0.5, overlap, overlap, eta, branch)
