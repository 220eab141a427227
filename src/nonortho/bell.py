"""Spin observables, canonical Bell settings, and the CHSH expectation.

The observable family is the full unit-spin set

    Theta(chi, phi) = cos(chi) (|+><+| - |-><-|)
                    + sin(chi) (e^{i phi} |+><-| + e^{-i phi} |-><+|)

built in a given orthonormal basis.  For a Schmidt form the canonical
settings (chi_A = 0, chi_A' = pi/2, chi_B = -chi_B' = arccos[1+|2 c+ c-|^2]^{-1/2},
phase sums phi_A + phi_B = phi_A' + phi_B' = phi_plus - phi_minus) give the
CHSH value 2*sqrt(1 + |2 c+ c-|^2).

``oracle_bell_max`` is the independent check: it maximizes the raw CHSH
combination over all four settings by a grid search plus local refinement,
sharing no algebra with the closed form.  Theta(chi, phi) = n . sigma with
the Bloch vector n = (sin chi cos phi, -sin chi sin phi, cos chi), so each
grid correlation is n_A . T n_B for the 3x3 Pauli correlation tensor T of
psi: the grid's table is one exact rank-3 product of T, and eps bounds its
rounding.  The search visits one setting per
{Theta, -Theta} pair and each unordered (B, B') pair once, and bounds each
pair's total at two levels: |T(n_B + n_B')| + |T(n_B - n_B')| + 4 eps for
every pair (Cauchy-Schwarz, as if A could point anywhere), then, for the
pairs left after one chunk, those lengths times how far the grid's A
settings reach along T(n_B +- n_B'), read from a table folded by the grid's
symmetries.  Bounds only order the pairs and stop the scan; every pair whose
bound reaches the maximum is evaluated exactly, and the first such pair in
(i, j) order wins, so the result is that of the unpruned scan bit for bit.

Refinement moves one angle at a time to its exact maximizer (one atan2): with
three settings fixed, the value is n . v + const in the fourth's Bloch vector.
"""

from __future__ import annotations

import functools
import math
import threading
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import DomainError, NonHermitianDrift
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

def _pauli_forms(psi) -> tuple[tuple[float, float, float], tuple[complex, complex, complex]]:
    """(D, K) with D_k = (M_k)00 - (M_k)11 and K_k = (M_k)01, M_k = psi^dagger sigma_k psi.

    From the rows (u0, u1), (v0, v1) of ``psi``: sigma_x swaps the rows,
    sigma_y swaps them with phases -i and i, and sigma_z negates v.
    """
    (u0, u1), (v0, v1) = psi
    cu0, cu1, cv0, cv1 = u0.conjugate(), u1.conjugate(), v0.conjugate(), v1.conjugate()
    uv0, uv1 = cu0 * v0, cu1 * v1
    d = (2.0 * (uv0.real - uv1.real), 2.0 * (uv0.imag - uv1.imag),
         (cu0 * u0 - cv0 * v0).real - (cu1 * u1 - cv1 * v1).real)
    k = (cu0 * v1 + cv0 * u1, 1j * (cv0 * u1 - cu0 * v1), cu0 * u1 - cv0 * v1)
    return d, k


def _share(forms, side: int, chi: float, phi: float) -> tuple[float, complex]:
    """The part of the CHSH value that setting ``side`` (0..3 for A, A', B, B') sets.

    For A and A' it is (K00 - K11, K01) of K = psi^dagger Theta psi =
    sum_k n_k M_k, i.e. (n . D, n . K) with ``forms`` = (D, K); for B and B'
    it is (Theta00, Theta01) = (n_z, n_x - i n_y), which ``_combine`` sums.
    """
    s = math.sin(chi)
    nx, ny, nz = s * math.cos(phi), -s * math.sin(phi), math.cos(chi)
    if side >= 2:
        return nz, complex(nx, -ny)
    (dx, dy, dz), (kx, ky, kz) = forms
    return nx * dx + ny * dy + nz * dz, nx * kx + ny * ky + nz * kz


def _combine(a, a_prime, b, b_prime) -> float:
    """The CHSH value from the four settings' ``_share``s."""
    (d_a, k_a), (d_ap, k_ap), (c_b, w_b), (c_bp, w_bp) = a, a_prime, b, b_prime
    return (d_a * (c_b + c_bp) + 2.0 * (k_a * (w_b + w_bp)).real
            + d_ap * (c_b - c_bp) + 2.0 * (k_ap * (w_b - w_bp)).real)


def _chsh_value(psi, angles) -> float:
    """CHSH value of the 2x2 coefficient matrix ``psi`` (rows) at the 8 ``angles``.

    ``angles`` is (chi, phi) of A, A', B, B'.  With K = psi^dagger Theta_A psi
    and W = Theta_B + Theta_B' (Hermitian, W11 = -W00), <A (B + B')> =
    Re sum K_ab W_ab = (K00 - K11) W00 + 2 Re(K01 W01); likewise A', B - B'.
    """
    forms = _pauli_forms(psi)
    return _combine(*(_share(forms, side, angles[2 * side], angles[2 * side + 1])
                      for side in range(4)))


def _linear_form(forms, terms, side: int) -> tuple[float, float, float]:
    """The real 3-vector v with CHSH value = n . v + (terms free of setting ``side``).

    n is the setting's Bloch vector; v takes the other three ``terms`` with
    ``_combine``'s coefficients: for A, v_k = D_k (c_B + c_B') +
    2 Re(K_k (w_B + w_B')), for B, v = (2 Re S, 2 Im S, d_A + d_A') with
    S = k_A + k_A'; A' and B' take the differences.
    """
    (d_a, k_a), (d_ap, k_ap), (c_b, w_b), (c_bp, w_bp) = terms
    if side >= 2:
        if side == 2:
            s, z = k_a + k_ap, d_a + d_ap
        else:
            s, z = k_a - k_ap, d_a - d_ap
        return 2.0 * s.real, 2.0 * s.imag, z
    if side == 0:
        c, w = c_b + c_bp, w_b + w_bp
    else:
        c, w = c_b - c_bp, w_b - w_bp
    (dx, dy, dz), (kx, ky, kz) = forms
    return (dx * c + 2.0 * (kx * w).real, dy * c + 2.0 * (ky * w).real,
            dz * c + 2.0 * (kz * w).real)


def _coordinate_offset(v, k: int, chi: float, phi: float) -> float:
    """The move of angle ``k`` (even: chi, odd: phi) to its exact maximizer of n . v.

    n . v = sin chi (cos phi v_x - sin phi v_y) + cos chi v_z is maximal at
    chi* = atan2(cos phi v_x - sin phi v_y, v_z) and, for sin chi > 0, at
    phi* = atan2(-v_y, v_x) (both arguments negated for sin chi < 0); at a
    pole phi moves nothing.  The offset is wrapped to (-pi, pi].
    """
    vx, vy, vz = v
    if k % 2 == 0:
        return wrap_angle(math.atan2(math.cos(phi) * vx - math.sin(phi) * vy, vz) - chi)
    s = math.sin(chi)
    if s == 0.0:
        return 0.0
    target = math.atan2(-vy, vx) if s > 0.0 else math.atan2(vy, -vx)
    return wrap_angle(target - phi)


def _orbit_representatives(grid_n: int) -> tuple[np.ndarray, np.ndarray]:
    """(chi, phi) of one setting per {Theta, -Theta} orbit of the search set.

    The search set is the grid chi_k = k pi/(n-1), phi_j = -pi + 2 pi j/n
    closed under the antipode map (chi, phi) -> (pi - chi, phi + pi), which
    sends Theta to -Theta; in half-steps h = 2j it reads (k, h) ->
    (n-1-k, h+n mod 2n), so odd n adds the odd-h points.  Each orbit is
    labelled by its smaller (k, h), and the two pole rows form one orbit.
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


def _bloch_vectors(chis: np.ndarray, phis: np.ndarray) -> np.ndarray:
    """Rows n with Theta(chi, phi) = n . sigma."""
    sin_chi = np.sin(chis)
    return np.stack([sin_chi * np.cos(phis), -sin_chi * np.sin(phis), np.cos(chis)],
                    axis=1)


PAIR_CHUNK = 128    # B pairs per batched evaluation; bounds the scan's temporaries
REACH_STEP = 0.01   # rad; the reach table's cell width in chi and in phi
REACH_BLOCK = 1024  # pairs per block of reach bounds; bounds their temporaries


class _Workspace(NamedTuple):
    """One thread's grid-stage buffers for R orbits: views of one flat float64 array.

    The array is [scratch | corr_t | halves].  Scratch holds in turn
    ``_pair_bounds``' ``work`` and a chunk's rows; ``halves`` is 2 x P for
    the P = R (R + 1)/2 pairs i <= j.
    """

    scratch: np.ndarray
    work: np.ndarray
    rows: np.ndarray
    tails: np.ndarray
    both: np.ndarray
    corr_t: np.ndarray
    halves: np.ndarray


def _new_workspace(n: int, chunk: int) -> _Workspace:
    """Buffers for ``n`` orbits and chunks of ``chunk`` pairs."""
    square = n * n
    size = max(square, 3 * chunk * n)
    flat = np.empty(size + square + n * (n + 1))
    scratch = flat[:size]
    rows, tails, both = scratch[:3 * chunk * n].reshape(3, chunk, n)
    return _Workspace(
        scratch=scratch,
        work=scratch[:square].reshape(n, n),
        rows=rows, tails=tails, both=both,
        corr_t=flat[size:size + square].reshape(n, n),
        halves=flat[size + square:].reshape(2, -1))


_WORKSPACES = threading.local()


def _workspace(n: int) -> _Workspace:
    """This thread's workspace for ``n`` orbits, kept per (n, PAIR_CHUNK)."""
    spaces = _WORKSPACES.__dict__.setdefault("spaces", {})     # this thread's own dict
    key = (n, PAIR_CHUNK)
    if key not in spaces:
        spaces[key] = _new_workspace(n, PAIR_CHUNK)
    return spaces[key]


def _rank3_correlations(psi: np.ndarray, bloch: np.ndarray,
                        out: np.ndarray) -> tuple[np.ndarray, float]:
    """corr_t = (bloch T^T) bloch^T into ``out``, the rows a_i = T n_i, and eps.

    T is the Pauli correlation tensor of ``psi``, <Theta_A Theta_B> = n_A . T
    n_B; by ``_combine`` B's coefficients are (2 Re k_A, 2 Im k_A, d_A) with
    (d_A, k_A) = (n_A . D, n_A . K), so T^T has rows (2 Re K, 2 Im K, D),
    as the B side of ``_linear_form``.  eps bounds the product's rounding:
    a 3-term dot product rounds by at most gamma_3 sum_k |a_ik n_rk| <=
    gamma_3 |a_i|_1 as |n_rk| <= 1, and gamma_3 = 3u/(1 - 3u) < 2^-51 with
    room for the rounding of |a_i|_1.
    """
    d, k = _pauli_forms(psi.tolist())
    image = bloch @ np.array([[2.0 * z.real for z in k], [2.0 * z.imag for z in k], d])
    np.matmul(image, bloch.T, out=out)
    return image, 2.0 ** -51 * float(np.abs(image).sum(axis=1).max())


def _pair_bounds(image: np.ndarray, eps: float, pairs: np.ndarray,
                 space: _Workspace) -> np.ndarray:
    """Upper bounds U on the totals of the B pairs i <= j, in ``space.halves``.

    ``pairs`` holds the pairs' flat indices i R + j, row-major; row i of
    ``image`` is a 3-vector a_i with |corr_t[i, r] - a_i . n_r| <= eps for
    every r, so by Cauchy-Schwarz U = |a_i + a_j| + |a_i - a_j| + 4 eps +
    1e-12.  The squares are entries of [a, |a|^2, 1] [+-2 a, 1 + 1e-13,
    (1 + 1e-13) |a|^2]^T (1e-13 covers their rounding under the root),
    formed in ``space.work`` and gathered into ``space.halves``.
    """
    work, halves = space.work, space.halves
    sq = np.einsum('ij,ij->i', image, image)
    left = np.column_stack((image, sq, np.ones_like(sq)))
    right = np.column_stack((2.0 * image, np.full_like(sq, 1.0 + 1e-13), (1.0 + 1e-13) * sq))
    for half in halves:
        np.matmul(left, right.T, out=work)
        # the indices are in range; "wrap" skips the copy of ``out`` that "raise" makes
        np.take(work.ravel(), pairs, out=half, mode="wrap")
        right[:, :3] *= -1.0
    np.maximum(halves, 0.0, out=halves)
    np.sqrt(halves, out=halves)
    bounds, minus = halves
    bounds += minus
    bounds += 4.0 * eps + 1e-12
    return bounds


def _reach_table(bloch: np.ndarray, grid_n: int) -> tuple[np.ndarray, float, float]:
    """Upper bounds on g(u) = max_r |n_r . u| per (chi', phi') cell, and cells per radian.

    With u = (sin chi cos phi, sin chi sin phi, cos chi), {+-n_r} is the
    product of the chis k pi/(n-1) and the phis -pi + m p, p = 2 pi/n for
    even n and pi/n for odd (``_orbit_representatives``), so g is even and
    unchanged by z -> -z and by a turn by p about z: the table covers
    chi' = min(chi, pi - chi) and phi' = (phi + pi) mod p.  As ds^2 <=
    dchi^2 + dphi^2, a cell lies within rho = hypot(dchi, dphi)/2 of its
    center c, so by the triangle inequality g <= cos(max(arccos g(c) - rho,
    0)) on it; 1e-7 covers arccos' error near 1 and a cell edge's rounding,
    1e-12 is relative slack.
    """
    period = (2.0 if grid_n % 2 == 0 else 1.0) * math.pi / grid_n
    rows, cols = math.ceil(0.5 * math.pi / REACH_STEP), math.ceil(period / REACH_STEP)
    d_chi, d_phi = 0.5 * math.pi / rows, period / cols
    chi, phi = (g.ravel() for g in np.meshgrid((np.arange(rows) + 0.5) * d_chi,
                                               (np.arange(cols) + 0.5) * d_phi - math.pi,
                                               indexing="ij"))
    centers = _bloch_vectors(chi, -phi)     # -phi: Bloch vectors flip the sign of y
    reach, step = np.empty(len(centers)), -(-2 ** 13 // len(bloch))
    products = np.empty((step, len(bloch)))     # one 64 KiB buffer, reused by every block
    for start in range(0, len(centers), step):
        part = centers[start:start + step]
        block = np.matmul(part, bloch.T, out=products[:len(part)])
        np.abs(block, out=block).max(axis=1, out=reach[start:start + step])
    rho = 0.5 * math.hypot(d_chi, d_phi) + 1e-7
    table = np.cos(np.maximum(np.arccos(np.minimum(reach, 1.0)) - rho, 0.0)) + 1e-12
    return table.reshape(rows, cols), 1.0 / d_chi, 1.0 / d_phi


def _reach_lengths(reach: tuple, v: np.ndarray) -> np.ndarray:
    """|v| G(v/|v|) for the vectors v stacked along the first axis: >= max_r |n_r . v|."""
    x, y, z = v
    h = x * x + y * y
    norm = np.sqrt(z * z + h)
    chi = np.arctan2(np.sqrt(h, out=h), np.abs(z))     # chi' = min(chi, pi - chi)
    table, chi_scale, phi_scale = reach
    rows, cols = table.shape
    cell = np.minimum((chi * chi_scale).astype(np.intp), rows - 1)
    cell *= cols
    cell += ((np.arctan2(y, x) + math.pi) * phi_scale).astype(np.intp) % cols
    norm *= table.take(cell)
    return norm


def _reach_bounds(reach: tuple, image: np.ndarray, eps: float, flat: np.ndarray) -> np.ndarray:
    """Upper bounds on the totals of the B pairs with flat indices ``flat``.

    Row i of corr_t lies within eps of a_i . n_r, so with a+- = a_i +- a_j,
    max_r |corr_t[i, r] +- corr_t[j, r]| <= |a+-| G(a+-/|a+-|) + 2 eps: the
    grid's A settings reach G of the length that ``_pair_bounds`` grants.
    """
    image_t, bounds = image.T.copy(), np.empty(len(flat))
    for start in range(0, len(flat), REACH_BLOCK):
        block = slice(start, start + REACH_BLOCK)
        a, b = (image_t.take(rows, axis=1) for rows in np.divmod(flat[block], len(image)))
        plus, minus = _reach_lengths(reach, np.stack((a + b, np.subtract(a, b, out=b)), axis=1))
        np.add(plus, minus, out=bounds[block])
    bounds += 4.0 * eps + 1e-12
    return bounds


def _pair_totals(corr_t: np.ndarray, flat: np.ndarray, space: _Workspace) -> np.ndarray:
    """Exact totals of at most PAIR_CHUNK B pairs with flat indices ``flat``, in ``space``."""
    m = len(flat)
    row, tail, both = space.rows[:m], space.tails[:m], space.both[:m]
    first_rows, second_rows = np.divmod(flat, len(corr_t))
    # the indices are in range; "clip" skips the copy of ``out`` that "raise" makes
    np.take(corr_t, first_rows, axis=0, out=row, mode="clip")
    np.take(corr_t, second_rows, axis=0, out=tail, mode="clip")
    totals = np.abs(np.add(tail, row, out=both), out=both).max(axis=1)
    totals += np.abs(np.subtract(row, tail, out=both), out=both).max(axis=1)
    return totals


def _scan(corr_t, pairs, space, cands, limits, best, arg) -> tuple[float, int]:
    """``best`` and its smallest packed index ``arg`` after evaluating ``cands``.

    PAIR_CHUNK at a time, until a chunk's first limit (they descend) is below ``best``.
    """
    for start in range(0, len(cands), PAIR_CHUNK):
        if limits[start] < best:
            break
        chunk = cands[start:start + PAIR_CHUNK]
        totals = _pair_totals(corr_t, pairs[chunk], space)
        top = float(totals.max())
        if top >= best:
            first = int(chunk[totals == top].min())
            arg = first if top > best else min(arg, first)
            best = top
    return best, arg


def _best_pair(corr_t: np.ndarray, bounds: np.ndarray, pairs: np.ndarray, space: _Workspace,
               refine: Callable[[np.ndarray], np.ndarray]) -> tuple[float, tuple[int, int]]:
    """Largest grid total over B pairs i <= j, and the first pair in (i, j) order reaching it.

    ``bounds`` bound the totals of the pairs packed as ``pairs`` (row-major:
    packed order is (i, j) order), and ``refine`` maps packed indices to
    further bounds.  Of the pairs reaching the floor (the total of the pair
    with the largest bound), the PAIR_CHUNK with the largest bounds are
    evaluated first; the rest still reaching that best keep min(bound,
    refine) and are evaluated in its order until it falls below the best.
    No pair skipped can reach the maximum, so the result is the row scan's
    bit for bit.  ``corr_t`` and ``bounds`` must lie outside ``space.scratch``.
    """
    floor = float(_pair_totals(corr_t, pairs[[np.argmax(bounds)]], space)[0])
    cands = np.flatnonzero(bounds >= floor)
    if len(cands) > PAIR_CHUNK:
        cands = cands[np.argpartition(-bounds[cands], PAIR_CHUNK - 1)]
    top = cands[:PAIR_CHUNK]
    best, arg = _scan(corr_t, pairs, space, top, bounds[top], -np.inf, 0)
    rest = cands[PAIR_CHUNK:]
    rest = rest[bounds[rest] >= best]
    if len(rest):
        limits = np.minimum(bounds[rest], refine(rest))
        keep = np.flatnonzero(limits >= best)
        keep = keep[np.argsort(-limits[keep])]
        best, arg = _scan(corr_t, pairs, space, rest[keep], limits[keep], best, arg)
    return best, divmod(int(pairs[arg]), len(corr_t))


class _Grid(NamedTuple):
    """Constants of the grid stage for one ``grid_n``, read-only but for ``pairs``."""

    chis: np.ndarray            # orbit representatives' chi and phi
    phis: np.ndarray
    bloch: np.ndarray           # their Bloch vectors as rows, (R, 3)
    pairs: np.ndarray           # flat indices i R + j of the B pairs i <= j, row-major
    reach: tuple                # how far the A settings reach, by ``_reach_table``


def _upper_pairs(n: int) -> np.ndarray:
    """Flat indices i n + j of the pairs i <= j, row-major, as a running sum of steps."""
    pairs = np.ones(n * (n + 1) // 2, dtype=np.intp)
    pairs[0] = 0
    pairs[np.cumsum(np.arange(n, 1, -1))] = np.arange(2, n + 1)
    return np.cumsum(pairs, out=pairs)


@functools.cache
def _grid_constants(grid_n: int) -> _Grid:
    """The grid stage's constant arrays, built on its first call per ``grid_n``.

    ``pairs`` stays writeable (``np.take`` copies an index array it may not
    write to), and nothing writes to it.
    """
    chis, phis = _orbit_representatives(grid_n)
    bloch = _bloch_vectors(chis, phis)
    reach = _reach_table(bloch, grid_n)
    for array in (chis, phis, bloch, reach[0]):
        array.flags.writeable = False
    return _Grid(chis, phis, bloch, _upper_pairs(len(chis)), reach)


def _grid_stage(psi: np.ndarray, grid_n: int) -> tuple[float, np.ndarray]:
    """Best CHSH value over the antipode-closed settings grid and its angle vector.

    With r over orbit representatives and corr[r, s] = <Theta_r Theta_s>, B
    settings (+-Theta_i, +-Theta_j) with the best A and A' total
    max_r |corr[r, i] + corr[r, j]| + max_r |corr[r, i] - corr[r, j]|,
    whatever the signs and the order of i, j, so only i <= j is scanned
    (``_best_pair``).  An A setting picked with a negative sign maps back to
    the antipode angles.  corr_t is ``_rank3_correlations``' exact rank-3
    product of the Pauli correlation tensor.  Every R x R array lives in
    this thread's ``_workspace``; the returned angles are a new array.
    """
    grid = _grid_constants(grid_n)
    chis, phis, bloch, pairs = grid.chis, grid.phis, grid.bloch, grid.pairs
    space = _workspace(len(chis))
    corr_t = space.corr_t
    image, eps = _rank3_correlations(psi, bloch, corr_t)
    bounds = _pair_bounds(image, eps, pairs, space)
    best, (ib, ibp) = _best_pair(corr_t, bounds, pairs, space, lambda cands: _reach_bounds(
        grid.reach, image, eps, pairs[cands]))
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

    The best point of the ``grid_n`` x ``grid_n`` (chi, phi) grid, closed
    under Theta -> -Theta, seeds a coordinate-wise refinement: each angle
    moves to its exact maximizer, and a pattern move along each sweep's
    displacement, doubled while it improves, speeds the collinear modes.
    Only strict improvements are taken, so the result is non-decreasing in
    ``refine_iters``, and a sweep that moves nothing ends the refinement.
    """
    if grid_n < 8:
        raise DomainError(f"grid_n must be >= 8, got {grid_n}")
    psi = coefficient_matrix(vector)
    return _refine(psi, *_grid_stage(psi, grid_n), refine_iters)


def _refine(psi: np.ndarray, best: float, angles: np.ndarray, refine_iters: int) -> float:
    """``oracle_bell_max``'s refinement from the grid stage's ``best`` at ``angles``."""
    forms, angles = _pauli_forms(psi.tolist()), angles.tolist()
    # each setting's share of the value; a move of one angle recomputes one
    terms = [_share(forms, side, angles[2 * side], angles[2 * side + 1]) for side in range(4)]
    current = _combine(*terms)
    if current < best:      # different arithmetic; guards rounding asymmetry
        current = best
    for _ in range(refine_iters):
        sweep_start = angles    # angles is rebound below, never changed in place
        for side in range(4):
            # the other shares stay fixed while this setting's two angles move
            v = _linear_form(forms, terms, side)
            for k in (2 * side, 2 * side + 1):
                offset = _coordinate_offset(v, k, angles[2 * side], angles[2 * side + 1])
                if offset == 0.0:
                    continue    # the trial would be the current point
                trial = angles.copy()
                trial[k] += offset
                moved = terms.copy()
                moved[side] = _share(forms, side, trial[2 * side], trial[2 * side + 1])
                value = _combine(*moved)
                if value > current:
                    current, angles, terms = value, trial, moved
        displacement = [a - s for a, s in zip(angles, sweep_start)]
        if not any(displacement):
            break       # fixed point: every later sweep would repeat this one
        scale = 1.0
        for _ in range(50):
            trial = [a + scale * d for a, d in zip(angles, displacement)]
            moved = [_share(forms, side, trial[2 * side], trial[2 * side + 1])
                     for side in range(4)]
            value = _combine(*moved)
            if value > current:
                current, angles, terms = value, trial, moved
                scale *= 2.0
            else:
                break
    return current
