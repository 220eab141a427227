"""Bipartite states over non-orthogonal component pairs.

A state is parametrized by two complex amplitudes (mu, nu) and two complex
overlaps (x on side B, y on side A), each overlap strictly inside the unit
disc.  Choosing the standard embedding for each two-dimensional subspace,
the state becomes a 4-component vector in an orthonormal product basis:

    (0,  nu*N_A,  mu*N_B,  mu*x + nu*y),   N_A = sqrt(1-|y|^2), N_B = sqrt(1-|x|^2)

and normalization reads |mu*N_B|^2 + |nu*N_A|^2 + |mu*x + nu*y|^2 = 1,
equivalently |mu|^2 + |nu|^2 + 2|mu||nu||x||y|cos(eta) = 1 with
eta = arg(mu) - arg(nu) + arg(x) - arg(y).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import (DomainError, LinearDependence, NotNormalized,
                     PhaseUndefined, ZeroState)

NORM_TOL = 1e-12
ORTHO_EPS = 1e-12   # overlap magnitudes below this count as orthogonal


@dataclass(frozen=True)
class NonorthogonalState:
    """Validated (mu, nu, x, y) tuple; construct through :func:`make_state`."""

    mu: complex
    nu: complex
    x: complex
    y: complex

    @property
    def n_a(self) -> float:
        """Side-A embedding normalizer sqrt(1 - |y|^2)."""
        return math.sqrt(1.0 - abs(self.y) ** 2)

    @property
    def n_b(self) -> float:
        """Side-B embedding normalizer sqrt(1 - |x|^2)."""
        return math.sqrt(1.0 - abs(self.x) ** 2)

    @property
    def cross_amp(self) -> complex:
        """Fourth embedded component mu*x + nu*y."""
        return self.mu * self.x + self.nu * self.y


@dataclass(frozen=True)
class DerivedScalars:
    """Convenience bundle of the embedding normalizers and phase combination."""

    n_a: float
    n_b: float
    cross_amp: complex
    eta: float | None


def normalization_residual(mu: complex, nu: complex, x: complex, y: complex) -> float:
    """Absolute deviation of the embedded-vector norm from 1."""
    n_a_sq = 1.0 - abs(y) ** 2
    n_b_sq = 1.0 - abs(x) ** 2
    norm_sq = abs(mu) ** 2 * n_b_sq + abs(nu) ** 2 * n_a_sq + abs(mu * x + nu * y) ** 2
    return abs(norm_sq - 1.0)


def make_state(mu: complex, nu: complex, x: complex, y: complex,
               auto_normalize: bool = False) -> NonorthogonalState:
    """Validate the four parameters, optionally rescaling (mu, nu) to unit norm.

    The rescaling multiplies both amplitudes by one positive real factor, so
    their ratio and all phases are preserved.  Without ``auto_normalize`` the
    norm must already be 1 within ``NORM_TOL``.

    Raises DomainError, LinearDependence, ZeroState or NotNormalized on bad
    input.
    """
    mu, nu, x, y = complex(mu), complex(nu), complex(x), complex(y)
    for name, value in (("mu", mu), ("nu", nu), ("x", x), ("y", y)):
        if not cmath.isfinite(value):
            raise DomainError(f"{name} must be finite, got {value}")
    if abs(x) >= 1.0 or abs(y) >= 1.0:
        raise LinearDependence(
            f"overlaps must satisfy |x| < 1 and |y| < 1, got |x|={abs(x)}, |y|={abs(y)}")
    if mu == 0 and nu == 0:
        raise ZeroState("both amplitudes are zero")
    if auto_normalize:
        norm_sq = (abs(mu) ** 2 * (1.0 - abs(x) ** 2)
                   + abs(nu) ** 2 * (1.0 - abs(y) ** 2)
                   + abs(mu * x + nu * y) ** 2)
        scale = 1.0 / math.sqrt(norm_sq)
        mu *= scale
        nu *= scale
    residual = normalization_residual(mu, nu, x, y)
    if residual > NORM_TOL:
        raise NotNormalized(
            f"norm residual {residual:.3e} exceeds {NORM_TOL:.0e}; "
            "pass auto_normalize=True to rescale")
    return NonorthogonalState(mu, nu, x, y)


def embed(state: NonorthogonalState) -> np.ndarray:
    """Return the 4-component product-basis vector (0, nu*N_A, mu*N_B, mu*x+nu*y)."""
    return np.array(
        [0.0, state.nu * state.n_a, state.mu * state.n_b, state.cross_amp],
        dtype=complex)


def eta_phase(state: NonorthogonalState) -> float:
    """Phase combination arg(mu) - arg(nu) + arg(x) - arg(y), wrapped to (-pi, pi].

    Only defined when all four scalars are nonzero; callers handling states
    with a vanishing overlap should branch to the single-overlap or
    orthogonal formulas instead.
    """
    for name, value in (("mu", state.mu), ("nu", state.nu),
                        ("x", state.x), ("y", state.y)):
        if value == 0:
            raise PhaseUndefined(f"{name} is zero, eta is undefined")
    eta = (cmath.phase(state.mu) - cmath.phase(state.nu)
           + cmath.phase(state.x) - cmath.phase(state.y))
    return wrap_angle(eta)


def wrap_angle(angle: float) -> float:
    """Wrap to the half-open interval (-pi, pi]."""
    r = (angle + math.pi) % (2.0 * math.pi)
    return math.pi if r == 0.0 else r - math.pi


def derived_scalars(state: NonorthogonalState) -> DerivedScalars:
    """Bundle N_A, N_B, the cross amplitude, and eta (None when undefined)."""
    try:
        eta = eta_phase(state)
    except PhaseUndefined:
        eta = None
    return DerivedScalars(state.n_a, state.n_b, state.cross_amp, eta)


def state_from_magnitudes(mu_sq: float, x_abs: float, y_abs: float,
                          eta: float = math.pi) -> NonorthogonalState:
    """Build the canonical state with |mu|^2 = mu_sq, real overlaps, and phase eta.

    The second amplitude magnitude is the unique nonnegative root of the
    normalization constraint for mu_sq <= 1 (and the continuation of that
    root branch above 1):

        |nu| = sqrt(1 - mu_sq + s^2) - s,   s = sqrt(mu_sq)*x_abs*y_abs*cos(eta)

    and its phase is -eta so that the state's phase combination equals eta.
    Used by sweeps, scan oracles and feasibility witnesses.
    """
    if mu_sq < 0:
        raise DomainError(f"mu_sq must be nonnegative, got {mu_sq}")
    if not (0 <= x_abs < 1 and 0 <= y_abs < 1):
        raise LinearDependence(f"overlaps out of range: {x_abs}, {y_abs}")
    mu_mag = math.sqrt(mu_sq)
    s = mu_mag * x_abs * y_abs * math.cos(eta)
    radicand = 1.0 - mu_sq + s * s
    if radicand < 0:
        if radicand < -NORM_TOL:
            raise DomainError(
                f"no nonnegative |nu| exists for mu_sq={mu_sq} at these overlaps")
        radicand = 0.0
    nu_mag = math.sqrt(radicand) - s
    if nu_mag < 0:
        if nu_mag < -NORM_TOL:
            raise DomainError(
                f"no nonnegative |nu| exists for mu_sq={mu_sq} at these overlaps")
        nu_mag = 0.0   # roundoff at the product-state edge
    mu = complex(mu_mag)
    nu = nu_mag * cmath.exp(-1j * eta)
    return make_state(mu, nu, complex(x_abs), complex(y_abs), auto_normalize=True)
