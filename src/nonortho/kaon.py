"""Neutral-kaon application: CP violation makes the mass eigenstates overlap.

In the CP basis (K1, K2) the mass eigenstates are

    K_S = (1, eps) / sqrt(1 + |eps|^2),    K_L = (eps, 1) / sqrt(1 + |eps|^2)

so <K_S|K_L> = (eps + conj(eps)) / (1 + |eps|^2) = 2 Re(eps) / (1 + |eps|^2).
The antisymmetric two-kaon state from Phi decay maps onto the general
parametrization with mu = -nu and x = y = <K_S|K_L>; antisymmetry forces the
cross amplitude mu*x + nu*y to vanish, so the renormalized state equals the
eps = 0 singlet exactly and the pipeline gives d = 0, C = 1, E = 1 bit for
every |eps| < 1.  The explicit closed form d(eps) evaluated by
:func:`kaon_deviation_closed_form` does not share that property; both
numbers are reported side by side and the discrepancy is logged, not
bounded.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, SingularNorm
from .feasibility import deviation
from .schmidt import schmidt_decompose
from .state import NonorthogonalState, make_state


def _check_eps(eps: complex) -> complex:
    eps = complex(eps)
    if not cmath.isfinite(eps):
        raise DomainError(f"CP parameter must be finite, got eps={eps}")
    if abs(eps) >= 1.0:
        raise DomainError(f"CP parameter must satisfy |eps| < 1, got |eps|={abs(eps)}")
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
    return ((1.0 + abs(eps) ** 2) / denom
            * math.exp(-0.5 * (evo.gamma_s + evo.gamma_l) * evo.t))


@dataclass(frozen=True)
class KaonDeviation:
    """Closed-form d(eps) for one branch next to the pipeline value."""

    closed_form: float
    pipeline: float
    difference: float


def kaon_deviation_closed_form(eps: complex, eta: float, branch: int) -> KaonDeviation:
    """Evaluate the explicit d(eps) formula and compare with the pipeline.

    With r = Re(eps) and k = 1 + |eps|^2:

        d = 1 - {1 - (r/k)^2}^2 [1 + sqrt(2) Y cos(eta) r^2 k^-4]
        Y = sqrt(2) cos(eta) r^2 +- sqrt(r^4 + r^4 cos(2 eta) + 2 k^4)

    ``branch`` (+1/-1) picks the sign in Y.  ``eta`` is a free input: the
    antisymmetric construction pins cos(eta) = -1, but the closed form is
    defined for any phase combination.  The pipeline comparator is the
    deviation of :func:`kaon_entangled_state`, which is 0 for all |eps| < 1;
    the difference is reported, not bounded.
    """
    eps = _check_eps(eps)
    if branch not in (+1, -1):
        raise DomainError(f"branch must be +1 or -1, got {branch}")
    r = eps.real
    k = 1.0 + abs(eps) ** 2
    y = (math.sqrt(2.0) * math.cos(eta) * r ** 2
         + branch * math.sqrt(r ** 4 + r ** 4 * math.cos(2.0 * eta) + 2.0 * k ** 4))
    closed = 1.0 - (1.0 - (r / k) ** 2) ** 2 * (
        1.0 + math.sqrt(2.0) * y * math.cos(eta) * r ** 2 * k ** -4)
    pipeline = deviation(schmidt_decompose(kaon_entangled_state(eps)))
    return KaonDeviation(closed, pipeline, abs(closed - pipeline))
