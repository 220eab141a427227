"""Spin observables, canonical Bell settings, and the CHSH expectation.

The observable family is the full unit-spin set

    Theta(chi, phi) = cos(chi) (|+><+| - |-><-|)
                    + sin(chi) (e^{i phi} |+><-| + e^{-i phi} |-><+|)

built in a given orthonormal basis.  For a Schmidt form the canonical
settings (chi_A = 0, chi_A' = pi/2, chi_B = -chi_B' = arccos[1+|2 c+ c-|^2]^{-1/2},
phase sums phi_A + phi_B = phi_A' + phi_B' = phi_plus - phi_minus) give the
CHSH value 2*sqrt(1 + |2 c+ c-|^2).

``oracle_bell_max`` is the independent check: it maximizes the raw CHSH
combination over all four settings by exhaustive grid search plus local
refinement, sharing no algebra with the closed form.  The grid search is
folded by exact symmetries: by Theta(pi - chi, phi + pi) = -Theta(chi, phi)
it visits one setting per {Theta, -Theta} pair, and each unordered (B, B')
pair once.  Refinement stops at its first fixed point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonHermitianDrift
from .schmidt import SchmidtForm, coefficient_matrix
from .state import wrap_angle

IMAG_TOL = 1e-10

COMP_PLUS = np.array([1.0, 0.0], dtype=complex)
COMP_MINUS = np.array([0.0, 1.0], dtype=complex)


@dataclass(frozen=True)
class MeasurementSetting:
    """One spin direction, canonically wrapped to chi in [0, pi], phi in (-pi, pi]."""

    chi: float
    phi: float

    @staticmethod
    def canonical(chi: float, phi: float) -> "MeasurementSetting":
        chi = wrap_angle(chi)
        if chi < 0:
            # Theta(-chi, phi) == Theta(chi, phi + pi)
            chi, phi = -chi, phi + math.pi
        return MeasurementSetting(chi, wrap_angle(phi))


@dataclass(frozen=True)
class BellSettings:
    a: MeasurementSetting
    a_prime: MeasurementSetting
    b: MeasurementSetting
    b_prime: MeasurementSetting


def spin_observable(setting: MeasurementSetting,
                    basis_plus: np.ndarray,
                    basis_minus: np.ndarray) -> np.ndarray:
    """2x2 Hermitian unit-spin component along (chi, phi) in the given basis."""
    pp = np.outer(basis_plus, basis_plus.conj())
    mm = np.outer(basis_minus, basis_minus.conj())
    pm = np.outer(basis_plus, basis_minus.conj())
    c, s = math.cos(setting.chi), math.sin(setting.chi)
    e = complex(math.cos(setting.phi), math.sin(setting.phi))
    return c * (pp - mm) + s * (e * pm + np.conj(e) * pm.conj().T)


def canonical_settings(form: SchmidtForm) -> BellSettings:
    """Measurement settings that achieve the closed-form CHSH value.

    The phase constraint fixes only the sums phi_A + phi_B; the split used
    here puts the whole phase phi_plus - phi_minus on side A and 0 on side
    B, which is one deterministic choice among the valid family.
    """
    k_sq = (2.0 * abs(form.c_plus) * abs(form.c_minus)) ** 2
    chi_b = math.acos(1.0 / math.sqrt(1.0 + k_sq))
    phase_a = wrap_angle(form.phi_plus - form.phi_minus)
    return BellSettings(
        a=MeasurementSetting.canonical(0.0, phase_a),
        a_prime=MeasurementSetting.canonical(math.pi / 2.0, phase_a),
        b=MeasurementSetting.canonical(chi_b, 0.0),
        b_prime=MeasurementSetting.canonical(-chi_b, 0.0))


def bell_expectation(vector: np.ndarray, settings: BellSettings,
                     basis_a: tuple[np.ndarray, np.ndarray] | None = None,
                     basis_b: tuple[np.ndarray, np.ndarray] | None = None) -> float:
    """<Psi| A B + A B' + A' B - A' B' |Psi> for unit ``vector``.

    ``basis_a`` and ``basis_b`` are (plus, minus) pairs; the computational
    basis is used when omitted.  Raises NonHermitianDrift if the imaginary
    residue exceeds 1e-10.
    """
    if basis_a is None:
        basis_a = (COMP_PLUS, COMP_MINUS)
    if basis_b is None:
        basis_b = (COMP_PLUS, COMP_MINUS)
    obs_a = spin_observable(settings.a, *basis_a)
    obs_ap = spin_observable(settings.a_prime, *basis_a)
    obs_b = spin_observable(settings.b, *basis_b)
    obs_bp = spin_observable(settings.b_prime, *basis_b)
    op = (np.kron(obs_a, obs_b) + np.kron(obs_a, obs_bp)
          + np.kron(obs_ap, obs_b) - np.kron(obs_ap, obs_bp))
    value = np.vdot(vector, op @ vector)
    if abs(value.imag) > IMAG_TOL:
        raise NonHermitianDrift(f"imaginary residue {value.imag:.3e} exceeds {IMAG_TOL:.0e}")
    return float(value.real)


def analytic_bell(form: SchmidtForm) -> float:
    """Closed-form CHSH value 2*sqrt(1 + |2 c+ c-|^2), always in [2, 2*sqrt(2)]."""
    k_sq = (2.0 * abs(form.c_plus) * abs(form.c_minus)) ** 2
    return 2.0 * math.sqrt(1.0 + k_sq)


# --- independent maximizer -------------------------------------------------

def _theta_entries(chis: np.ndarray, phis: np.ndarray) -> np.ndarray:
    """(n, 2, 2) stack of observables in the computational basis."""
    out = np.empty((len(chis), 2, 2), dtype=complex)
    c, s, e = np.cos(chis), np.sin(chis), np.exp(1j * phis)
    out[:, 0, 0] = c
    out[:, 1, 1] = -c
    out[:, 0, 1] = s * e
    out[:, 1, 0] = s * np.conj(e)
    return out


def _chsh_value(psi: np.ndarray, angles: np.ndarray) -> float:
    obs = _theta_entries(angles[0::2], angles[1::2])
    k_a = psi.conj().T @ obs[0] @ psi
    k_ap = psi.conj().T @ obs[1] @ psi
    return (np.einsum('ab,ab->', k_a, obs[2] + obs[3])
            + np.einsum('ab,ab->', k_ap, obs[2] - obs[3])).real


def _orbit_representatives(grid_n: int) -> tuple[np.ndarray, np.ndarray]:
    """(chi, phi) of one setting per {Theta, -Theta} orbit of the search set.

    The search set is the grid chi_k = k pi/(n-1), phi_j = -pi + 2 pi j/n
    closed under the antipode map (chi, phi) -> (pi - chi, phi + pi), which
    sends Theta to -Theta.  With phi counted in half-steps h = 2j the map
    reads (k, h) -> (n-1-k, h+n mod 2n): for even n it stays on the grid, so
    the set is the grid itself; for odd n it adds the odd-h points.  Each
    orbit is labelled by its member with the smaller (k, h), and the two pole
    rows, where sin(chi) = 0 makes phi irrelevant, collapse to one orbit.
    """
    n = grid_n
    k, h = (g.ravel() for g in np.meshgrid(np.arange(n), np.arange(0, 2 * n, 2),
                                           indexing="ij"))
    k_anti, h_anti = n - 1 - k, (h + n) % (2 * n)
    anti = (k_anti < k) | ((k_anti == k) & (h_anti < h))
    k, h = np.where(anti, k_anti, k), np.where(anti, h_anti, h)
    h[k == 0] = 0
    k, h = np.divmod(np.unique(k * 2 * n + h), 2 * n)
    chis = np.linspace(0.0, math.pi, n)
    phis = np.linspace(-math.pi, math.pi, 2 * n, endpoint=False)
    return chis[k], phis[h]


def _grid_stage(psi: np.ndarray, grid_n: int) -> tuple[float, np.ndarray]:
    """Best CHSH value over the antipode-closed settings grid and its angle vector.

    With r running over orbit representatives, corr[r, s] = <Theta_r Theta_s>
    and the full set is {+Theta_r} and {-Theta_r}, so for B settings
    (+-Theta_i, +-Theta_j) the best A and A' give

        max_r |corr[r, i] + corr[r, j]| + max_r |corr[r, i] - corr[r, j]|,

    which no sign choice on B and no swap of i and j changes: only i <= j
    is scanned.  An A setting picked with a negative sign maps back to the
    antipode angles.
    """
    chis, phis = _orbit_representatives(grid_n)
    obs = _theta_entries(chis, phis)
    contracted = np.einsum('ki,nkl,lj->nij', psi.conj(), obs, psi, optimize=True)
    corr_t = np.ascontiguousarray(
        np.einsum('nab,mab->mn', contracted, obs, optimize=True).real)
    best = -np.inf
    arg = (0, 0)
    for ib in range(len(chis)):
        row, tail = corr_t[ib], corr_t[ib:]
        totals = np.abs(tail + row).max(axis=1) + np.abs(row - tail).max(axis=1)
        offset = int(np.argmax(totals))
        if totals[offset] > best:
            best = float(totals[offset])
            arg = (ib, ib + offset)
    ib, ibp = arg
    angles = []
    for combo in (corr_t[ib] + corr_t[ibp], corr_t[ib] - corr_t[ibp]):
        ia = int(np.argmax(np.abs(combo)))
        if combo[ia] >= 0.0:
            angles += [chis[ia], phis[ia]]
        else:
            angles += [math.pi - chis[ia], phis[ia] + math.pi]
    return best, np.array(angles + [chis[ib], phis[ib], chis[ibp], phis[ibp]])


def oracle_bell_max(vector: np.ndarray, grid_n: int = 24,
                    refine_iters: int = 40) -> float:
    """Brute-force CHSH maximum over all four settings.

    An exhaustive search over the ``grid_n`` x ``grid_n`` (chi, phi) grid
    closed under the antipode map Theta -> -Theta (the grid itself for even
    ``grid_n``, a superset for odd) seeds a coordinate-wise refinement: the
    objective is an exact sinusoid in each single angle, so each coordinate
    is maximized from three samples in closed form; a pattern move along
    each sweep's displacement (doubled while it improves) accelerates the
    slow collinear modes.  Every accepted move strictly improves the value,
    so the result is monotone non-decreasing in ``refine_iters``.  A sweep
    that accepts no move is a fixed point, where refinement stops: the
    result equals that of any larger ``refine_iters``.
    """
    if grid_n < 8:
        raise ValueError(f"grid_n must be >= 8, got {grid_n}")
    psi = coefficient_matrix(vector)
    best, angles = _grid_stage(psi, grid_n)
    current = _chsh_value(psi, angles)
    if current < best:      # identical algebra; guards rounding asymmetry
        current = best
    probe = 0.5
    sin_p, cos_p = math.sin(probe), math.cos(probe)
    for _ in range(refine_iters):
        sweep_start = angles.copy()
        for k in range(8):
            up = angles.copy()
            up[k] += probe
            down = angles.copy()
            down[k] -= probe
            f_up, f_down = _chsh_value(psi, up), _chsh_value(psi, down)
            # f(t) = A cos t + B sin t + C along offset t of this angle
            coef_b = (f_up - f_down) / (2.0 * sin_p)
            coef_a = (0.5 * (f_up + f_down) - current) / (cos_p - 1.0)
            if coef_a == 0.0 and coef_b == 0.0:
                continue
            trial = angles.copy()
            trial[k] += math.atan2(coef_b, coef_a)
            value = _chsh_value(psi, trial)
            if value > current:
                current, angles = value, trial
        displacement = angles - sweep_start
        if not displacement.any():
            break       # fixed point: every later sweep would repeat this one
        scale = 1.0
        for _ in range(50):
            trial = angles + scale * displacement
            value = _chsh_value(psi, trial)
            if value > current:
                current, angles = value, trial
                scale *= 2.0
            else:
                break
    return current
