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
pair once.  It is also pruned without changing its result: Theta(chi, phi)
is n . sigma with the Bloch vector n = (sin chi cos phi, -sin chi sin phi,
cos chi), so every grid correlation is the bilinear form n_A^T T n_B of one
3x3 tensor T, and by Cauchy-Schwarz a (B, B') pair totals at most
|T(n_B + n_B')| + |T(n_B - n_B')|.  T is fitted to the grid's own
correlations, and the fit's largest residual eps enters the bound as 4 eps
of slack, so a poor fit only prunes less.  The bounds are formed for the
R (R + 1)/2 pairs i <= j only (R orbits), packed in row-major order, which
is (i, j) order.  Pairs are evaluated in batches in order of descending
bound, until the next batch's largest bound falls below the best total
found; each total uses the unpruned arithmetic, and of the pairs reaching
the maximum the smallest (B, B') index pair wins, so the result is that of
the unpruned scan bit for bit.  The grid's orbits, observables, Bloch
vectors, fit matrix, pair indices and einsum paths are built once per grid
size, and every R x R array of the grid stage lives in a workspace that
each thread allocates once per grid size, so a call allocates no R x R
array.

Refinement uses the same linearity.  With M_k = psi^dagger sigma_k psi
formed once per call, each setting's share of the CHSH value is linear in
its Bloch vector, so with the other three settings fixed the value is
n . v + const for a real 3-vector v, and each angle's exact maximizer is one
atan2.  A move is taken only if the raw CHSH combination strictly improves;
each setting's share is kept between moves, so a move costs one share, and
refinement stops at its first fixed point.
"""

from __future__ import annotations

import functools
import math
import threading
from dataclasses import dataclass
from typing import NamedTuple

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

def _theta_entries(chis: np.ndarray, phis: np.ndarray) -> np.ndarray:
    """(n, 2, 2) stack of observables in the computational basis."""
    out = np.empty((len(chis), 2, 2), dtype=complex)
    c, s, e = np.cos(chis), np.sin(chis), np.exp(1j * phis)
    out[:, 0, 0] = c
    out[:, 1, 1] = -c
    out[:, 0, 1] = s * e
    out[:, 1, 0] = s * np.conj(e)
    return out


def _pauli_forms(psi) -> tuple[tuple[float, float, float], tuple[complex, complex, complex]]:
    """(D, K) with D_k = (M_k)00 - (M_k)11 and K_k = (M_k)01, M_k = psi^dagger sigma_k psi.

    k runs over x, y, z.  The entries come from the rows (u0, u1), (v0, v1)
    of ``psi`` directly: sigma_x swaps the rows, sigma_y swaps them with
    phases -i and i, and sigma_z negates v.
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

    Theta(chi, phi) = n . sigma with n = (sin chi cos phi, -sin chi sin phi,
    cos chi).  For A and A' the share is (K00 - K11, K01) of
    K = psi^dagger Theta psi = sum_k n_k M_k, i.e. (n . D, n . K) with
    ``forms`` = (D, K) of ``_pauli_forms``; for B and B' it is
    (Theta00, Theta01) = (n_z, n_x - i n_y), the entries W00 and W01 that
    ``_combine`` sums.
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

    ``angles`` is (chi, phi) of A, A', B, B' in turn.  With K = psi^dagger
    Theta_A psi and W = Theta_B + Theta_B', <A (B + B')> = Re sum K_ab W_ab,
    and K, W Hermitian with W11 = -W00 reduce the sum to
    (K00 - K11) W00 + 2 Re(K01 W01); likewise for A' with B - B'.
    """
    forms = _pauli_forms(psi)
    return _combine(*(_share(forms, side, angles[2 * side], angles[2 * side + 1])
                      for side in range(4)))


def _linear_form(forms, terms, side: int) -> tuple[float, float, float]:
    """The real 3-vector v with CHSH value = n . v + (terms free of setting ``side``).

    n is the Bloch vector of setting ``side``, and ``terms`` holds the four
    settings' shares, of which v uses the other three with ``_combine``'s
    coefficients: for A, v_k = D_k (c_B + c_B') + 2 Re(K_k (w_B + w_B')),
    and for B, v = (2 Re S, 2 Im S, d_A + d_A') with S = k_A + k_A'; A' and
    B' take the differences.
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

    n . v = sin chi (cos phi v_x - sin phi v_y) + cos chi v_z is a sinusoid
    in each angle, maximal at chi* = atan2(cos phi v_x - sin phi v_y, v_z)
    and, for sin chi > 0, at phi* = atan2(-v_y, v_x) (both arguments negated
    for sin chi < 0).  At a pole, sin chi = 0, phi moves nothing and the
    offset is 0.  The offset from the current angle is wrapped to (-pi, pi].
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


def _bloch_vectors(chis: np.ndarray, phis: np.ndarray) -> np.ndarray:
    """Rows n with Theta(chi, phi) = n . sigma."""
    sin_chi = np.sin(chis)
    return np.stack([sin_chi * np.cos(phis), -sin_chi * np.sin(phis), np.cos(chis)],
                    axis=1)


PAIR_CHUNK = 128    # B pairs per batched evaluation; bounds the scan's temporaries


class _Workspace(NamedTuple):
    """One thread's grid-stage buffers for R orbits: views of one flat float64 array.

    The array is [scratch | corr_t | halves], where scratch holds
    max(2 R^2, 3 PAIR_CHUNK R) floats and serves three steps in turn, whose
    views never live at the same time:

    - ``product``, the complex R x R correlations, until ``corr_t`` has
      their real part;
    - ``work``, R x R, while ``_pair_bounds`` runs;
    - ``rows``, ``tails`` and ``both``, PAIR_CHUNK x R each, while
      ``_best_pair`` runs.

    ``corr_t`` lives for the whole grid stage.  ``halves`` is 2 x P for the
    P = R (R + 1)/2 pairs i <= j: ``_pair_bounds`` fills it, and its first
    row carries the bounds into ``_best_pair``.
    """

    scratch: np.ndarray
    product: np.ndarray
    work: np.ndarray
    rows: np.ndarray
    tails: np.ndarray
    both: np.ndarray
    corr_t: np.ndarray
    halves: np.ndarray


def _new_workspace(n: int, chunk: int) -> _Workspace:
    """Buffers for ``n`` orbits and chunks of ``chunk`` pairs."""
    square = n * n
    size = max(2 * square, 3 * chunk * n)
    flat = np.empty(size + square + n * (n + 1))
    scratch = flat[:size]
    rows, tails, both = scratch[:3 * chunk * n].reshape(3, chunk, n)
    return _Workspace(
        scratch=scratch,
        product=scratch[:2 * square].view(complex).reshape(n, n),
        work=scratch[:square].reshape(n, n),
        rows=rows, tails=tails, both=both,
        corr_t=flat[size:size + square].reshape(n, n),
        halves=flat[size + square:].reshape(2, -1))


_WORKSPACES = threading.local()


def _workspace(n: int) -> _Workspace:
    """This thread's workspace for ``n`` orbits at the current PAIR_CHUNK.

    It is built on a thread's first grid stage of that size and reused by
    every later one, so the grid stage allocates no R x R array per call.
    Keying by PAIR_CHUNK as well keeps a workspace sized for one chunk
    length from serving another.
    """
    spaces = getattr(_WORKSPACES, "spaces", None)
    if spaces is None:
        spaces = _WORKSPACES.spaces = {}
    key = (n, PAIR_CHUNK)
    space = spaces.get(key)
    if space is None:
        space = spaces[key] = _new_workspace(n, PAIR_CHUNK)
    return space


def _pair_bounds(corr_t: np.ndarray, bloch: np.ndarray, tensor: np.ndarray,
                 pairs: np.ndarray, space: _Workspace) -> np.ndarray:
    """Upper bounds on the grid total of every B pair i <= j, in the order of ``pairs``.

    ``pairs`` holds the flat indices i R + j of the pairs, row-major.
    ``bloch`` holds the settings' Bloch vectors as rows, and ``tensor`` is
    any 3x3 X meant to give corr_t ~ bloch X bloch^T, i.e. X = T^T.  With
    eps the largest residual of that form over all R^2 entries, each
    correlation lies within eps of n_r . T n_s, so by Cauchy-Schwarz the
    total of pair (i, j) is at most

        U = |T(n_i + n_j)| + |T(n_i - n_j)| + 4 eps + 1e-12,

    whatever X is.  With a_i = T n_i, the squares
    |a_i +- a_j|^2 = |a_i|^2 + |a_j|^2 +- 2 a_i . a_j are the entries of the
    product of the R x 5 factors [a, |a|^2, 1] and [+-2 a, 1, |a|^2].  Their
    absolute rounding error (a few ulp of |a_i|^2 + |a_j|^2) the square root
    would magnify near zero, so the second factor scales its 1 and |a|^2
    columns by 1 + 1e-13, which adds 1e-13 (|a_i|^2 + |a_j|^2) under each
    root; 1e-12 covers the rest.

    Each product is formed in ``space.work`` (which first holds the
    residual) and gathered into a row of ``space.halves``; the first row is
    returned, valid until ``space`` is next used.  ``corr_t`` must not lie
    in ``space.scratch``.
    """
    work, halves = space.work, space.halves
    image = bloch @ tensor                  # row i is a_i = T n_i
    np.matmul(image, bloch.T, out=work)
    work -= corr_t
    eps = float(np.abs(work, out=work).max())
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


def _best_pair(corr_t: np.ndarray, bounds: np.ndarray, pairs: np.ndarray,
               space: _Workspace) -> tuple[float, tuple[int, int]]:
    """Largest grid total over B pairs i <= j, and the first pair reaching it.

    ``bounds`` are upper bounds on the pairs' totals, packed as the flat
    indices ``pairs`` (row-major, so packed order is (i, j) order).  The
    total of (i, j) is max_r |corr_t[i, r] + corr_t[j, r]| +
    max_r |corr_t[i, r] - corr_t[j, r]|.  The exact total of the pair with
    the largest bound is a floor on the maximum.  The pairs whose bound
    reaches the floor are sorted by descending bound and their totals taken
    PAIR_CHUNK at a time, until the next chunk's largest bound falls below
    the best total: every pair left has a total below it, so none reaches
    the maximum.  Every pair whose bound reaches the maximum is evaluated
    with the unpruned scan's arithmetic, and of those reaching it the
    smallest (i, j) wins, so the result is bit-identical to the row scan
    over every pair: the maximum, at the first pair in (i, j) order.

    A chunk's rows i, rows j and their sum or difference go to
    ``space.rows``, ``space.tails`` and ``space.both``, which lie in
    ``space.scratch``; ``corr_t`` and ``bounds`` must lie outside it.
    """
    n = len(corr_t)
    i, j = divmod(int(pairs[np.argmax(bounds)]), n)
    row, other = corr_t[i], corr_t[j]
    floor = float(np.abs(other + row).max() + np.abs(row - other).max())
    cands = np.flatnonzero(bounds >= floor)
    cands = cands[np.argsort(-bounds[cands], kind="stable")]
    best = -np.inf
    arg = 0
    for start in range(0, len(cands), PAIR_CHUNK):
        chunk = cands[start:start + PAIR_CHUNK]
        if bounds[chunk[0]] < best:
            break
        m = len(chunk)
        row, tail, both = space.rows[:m], space.tails[:m], space.both[:m]
        first_rows, second_rows = np.divmod(pairs[chunk], n)
        # the indices are in range; "clip" skips the copy of ``out`` that "raise" makes
        np.take(corr_t, first_rows, axis=0, out=row, mode="clip")
        np.take(corr_t, second_rows, axis=0, out=tail, mode="clip")
        totals = np.abs(np.add(tail, row, out=both), out=both).max(axis=1)
        totals += np.abs(np.subtract(row, tail, out=both), out=both).max(axis=1)
        top = float(totals.max())
        if top >= best:
            first = int(chunk[totals == top].min())
            arg = first if top > best else min(arg, first)
            best = top
    return best, divmod(int(pairs[arg]), n)


class _Grid(NamedTuple):
    """Constants of the grid stage for one ``grid_n``, read-only but for ``pairs``."""

    chis: np.ndarray            # orbit representatives' chi and phi
    phis: np.ndarray
    obs: np.ndarray             # their observables, (R, 2, 2)
    bloch: np.ndarray           # their Bloch vectors as rows, (R, 3)
    pinv: np.ndarray            # least-squares fit of T: T^T ~ pinv corr_t pinv^T
    pairs: np.ndarray           # flat indices i R + j of the B pairs i <= j, row-major
    contract_path: tuple        # einsum paths of the two correlation contractions
    corr_path: tuple


def _upper_pairs(n: int) -> np.ndarray:
    """Flat indices i n + j of the pairs i <= j, in row-major order.

    They are the running sum of steps 1 within a row and i + 1 from the end
    of row i - 1 to (i, i), which builds them with no array larger than the
    result.
    """
    pairs = np.ones(n * (n + 1) // 2, dtype=np.intp)
    pairs[0] = 0
    pairs[np.cumsum(np.arange(n, 1, -1))] = np.arange(2, n + 1)
    return np.cumsum(pairs, out=pairs)


@functools.cache
def _grid_constants(grid_n: int) -> _Grid:
    """The grid stage's state-independent arrays, built once per ``grid_n``.

    The einsum paths are the ones ``optimize=True`` searches for on every
    call; the contractions depend only on the operand shapes.  Every array
    but ``pairs`` is read-only: ``np.take`` copies an index array it may not
    write to (R (R + 1)/2 intp per call), so ``pairs`` stays writeable, and
    nothing writes to it.
    """
    chis, phis = _orbit_representatives(grid_n)
    obs = _theta_entries(chis, phis)
    bloch = _bloch_vectors(chis, phis)
    pinv = np.linalg.solve(bloch.T @ bloch, bloch.T)
    psi = np.zeros((2, 2), dtype=complex)
    pairs = _upper_pairs(len(chis))
    contract_path = tuple(np.einsum_path('ki,nkl,lj->nij', psi, obs, psi, optimize=True)[0])
    corr_path = tuple(np.einsum_path('nab,mab->mn', obs, obs, optimize=True)[0])
    for array in (chis, phis, obs, bloch, pinv):
        array.flags.writeable = False
    return _Grid(chis, phis, obs, bloch, pinv, pairs, contract_path, corr_path)


def _grid_stage(psi: np.ndarray, grid_n: int) -> tuple[float, np.ndarray]:
    """Best CHSH value over the antipode-closed settings grid and its angle vector.

    With r running over orbit representatives, corr[r, s] = <Theta_r Theta_s>
    and the full set is {+Theta_r} and {-Theta_r}, so for B settings
    (+-Theta_i, +-Theta_j) the best A and A' give

        max_r |corr[r, i] + corr[r, j]| + max_r |corr[r, i] - corr[r, j]|,

    which no sign choice on B and no swap of i and j changes: only i <= j
    is considered.  T is fitted to corr by least squares, and with eps its
    largest residual no pair totals more than
    |T(n_i + n_j)| + |T(n_i - n_j)| + 4 eps (``_pair_bounds``).  Only pairs
    whose bound reaches the best total are evaluated, and of the pairs
    reaching the maximum the first in (i, j) order wins (``_best_pair``), as
    in the unpruned scan.  An A setting picked with a negative sign maps back
    to the antipode angles.

    Every R x R array of the stage lives in this thread's ``_workspace``,
    in the order ``_Workspace`` lays out; the returned angles are a new
    array.
    """
    grid = _grid_constants(grid_n)
    chis, phis, obs, pinv = grid.chis, grid.phis, grid.obs, grid.pinv
    space = _workspace(len(chis))
    contracted = np.einsum('ki,nkl,lj->nij', psi.conj(), obs, psi,
                           optimize=grid.contract_path)
    np.einsum('nab,mab->mn', contracted, obs, optimize=grid.corr_path, out=space.product)
    corr_t = space.corr_t
    np.copyto(corr_t, space.product.real)
    bounds = _pair_bounds(corr_t, grid.bloch, pinv @ corr_t @ pinv.T, grid.pairs, space)
    best, (ib, ibp) = _best_pair(corr_t, bounds, grid.pairs, space)
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
    ``grid_n``, a superset for odd) seeds a coordinate-wise refinement.  The
    value is n . v + const in each setting's Bloch vector n
    (``_linear_form``), so each angle moves straight to its exact maximizer
    (``_coordinate_offset``), by an offset wrapped to (-pi, pi]; a pattern
    move along each sweep's displacement (doubled while it improves)
    accelerates the slow collinear modes.  Every accepted move strictly
    improves the raw CHSH value, so the result is monotone non-decreasing in
    ``refine_iters``.  A sweep that accepts no move is a fixed point, where
    refinement stops: the result equals that of any larger
    ``refine_iters``.
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
