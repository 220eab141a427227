"""Concurrence and entanglement entropy, each computed two independent ways.

Concurrence comes either from the determinant route
C = 2|mu nu| sqrt((1-|x|^2)(1-|y|^2)) = 2 sqrt(det rho_A), or from the
spin-flip overlap |<Psi|Psi~>| where Psi~ applies sigma_y on both factors to
the conjugated vector.  Entropy comes either from the reduced-density
spectrum or from the binary-entropy form h((1 + sqrt(1-C^2))/2).  The
determinant and binary-entropy routes are the closed forms of
:mod:`closed_forms`.  All entropies are in bits (log base 2); multiply by
ln 2 for nats.
"""

from __future__ import annotations

import math

import numpy as np

from .closed_forms import LN2, entropy_bits, report_scalars
from .errors import DomainError
from .schmidt import eigh_2x2
from .state import NonorthogonalState

SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
SPIN_FLIP = np.kron(SIGMA_Y, SIGMA_Y)


def concurrence_det(state: NonorthogonalState) -> float:
    """C = 2|mu nu| N_A N_B, clamped into [0, 1] against rounding."""
    return report_scalars(state.mu, state.nu, state.x, state.y)[4]


def concurrence_spin_flip(vector: np.ndarray) -> float:
    """|<Psi | (sigma_y x sigma_y) Psi*>| for a unit 4-vector."""
    flipped = SPIN_FLIP @ np.conj(vector)
    c = abs(np.vdot(vector, flipped))
    return min(max(float(c), 0.0), 1.0)


def entanglement_entropy(concurrence: float) -> float:
    """Entropy in bits from the concurrence: h((1 - sqrt(1 - C^2)) / 2)."""
    if not (0.0 <= concurrence <= 1.0):
        raise DomainError(f"concurrence out of range: {concurrence}")
    return entropy_bits(concurrence)


def entropy_direct(rho: np.ndarray) -> float:
    """-sum lambda_i log2 lambda_i over the eigenvalues of a 2x2 density matrix."""
    evals, _ = eigh_2x2(np.asarray(rho, dtype=complex))
    total = 0.0
    for lam in evals:
        if lam > 1e-300:
            total -= lam * math.log2(lam)
    return total


def entropy_nats(entropy_bits: float) -> float:
    return entropy_bits * LN2
