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
of slack, so a poor fit only prunes less.  Pairs are evaluated in batches
in order of descending bound, until the next batch's largest bound falls
below the best total found; each total uses the unpruned arithmetic, and of
the pairs reaching the maximum the smallest (B, B') index pair wins, so the
result is that of the unpruned scan bit for bit.  The grid's orbits,
observables, Bloch vectors, fit matrix and einsum paths are built once per
grid size, and every R x R array of the grid stage (R orbits) lives in a
workspace that each thread allocates once per grid size, so a call
allocates no R x R array.  Refinement evaluates the CHSH value in scalar complex
arithmetic, keeps each setting's share of it between moves so that moving
one angle recomputes one share, and stops at its first fixed point.
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


def _contract(psi, chi: float, phi: float) -> tuple[float, complex]:
    """(K00 - K11, K01) of the Hermitian K = psi^dagger Theta(chi, phi) psi."""
    (u0, u1), (v0, v1) = psi
    c, s = math.cos(chi), math.sin(chi)
    se = complex(s * math.cos(phi), s * math.sin(phi))
    sec = se.conjugate()
    # (a0, a1) and (b0, b1) are the rows of Theta psi
    a0, a1 = c * u0 + se * v0, c * u1 + se * v1
    b0, b1 = sec * u0 - c * v0, sec * u1 - c * v1
    u0c, v0c = u0.conjugate(), v0.conjugate()
    k00 = u0c * a0 + v0c * b0
    k11 = u1.conjugate() * a1 + v1.conjugate() * b1
    return (k00 - k11).real, u0c * a1 + v0c * b1


def _setting_terms(psi, angles, side: int) -> tuple[float, complex]:
    """The part of the CHSH value that setting ``side`` (0..3 for A, A', B, B') sets.

    For A and A' it is (K00 - K11, K01) of ``_contract``; for B and B' it is
    (Theta00, Theta01), the entries W00 and W01 that ``_combine`` sums.
    """
    chi, phi = angles[2 * side], angles[2 * side + 1]
    if side < 2:
        return _contract(psi, chi, phi)
    s = math.sin(chi)
    return math.cos(chi), complex(s * math.cos(phi), s * math.sin(phi))


def _combine(a, a_prime, b, b_prime) -> float:
    """The CHSH value from the four settings' ``_setting_terms``."""
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
    return _combine(*(_setting_terms(psi, angles, side) for side in range(4)))


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

    The array is [scratch | corr_t | gram], where scratch holds
    max(2 R^2, 3 PAIR_CHUNK R) floats and serves three steps in turn, whose
    views never live at the same time:

    - ``product``, the complex R x R correlations, until ``corr_t`` has
      their real part;
    - ``work`` and ``minus``, R x R each, while ``_pair_bounds`` runs;
    - ``rows``, ``tails`` and ``both``, PAIR_CHUNK x R each, while
      ``_best_pair`` runs.

    ``corr_t`` lives for the whole grid stage, and ``gram`` carries the
    Gram matrix and then the bounds into ``_best_pair``.
    """

    scratch: np.ndarray
    product: np.ndarray
    work: np.ndarray
    minus: np.ndarray
    rows: np.ndarray
    tails: np.ndarray
    both: np.ndarray
    corr_t: np.ndarray
    gram: np.ndarray


def _new_workspace(n: int, chunk: int) -> _Workspace:
    """Buffers for ``n`` orbits and chunks of ``chunk`` pairs."""
    square = n * n
    size = max(2 * square, 3 * chunk * n)
    flat = np.empty(size + 2 * square)
    scratch = flat[:size]
    rows, tails, both = scratch[:3 * chunk * n].reshape(3, chunk, n)
    return _Workspace(
        scratch=scratch,
        product=scratch[:2 * square].view(complex).reshape(n, n),
        work=scratch[:square].reshape(n, n),
        minus=scratch[square:2 * square].reshape(n, n),
        rows=rows, tails=tails, both=both,
        corr_t=flat[size:size + square].reshape(n, n),
        gram=flat[size + square:].reshape(n, n))


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
                 below: np.ndarray, space: _Workspace) -> np.ndarray:
    """Upper bounds U[i, j] on the grid total of every B pair i <= j.

    ``bloch`` holds the settings' Bloch vectors as rows, and ``tensor`` is
    any 3x3 X meant to give corr_t ~ bloch X bloch^T, i.e. X = T^T.  With
    eps the largest residual of that form, each correlation lies within eps
    of n_r . T n_s, so by Cauchy-Schwarz the total of pair (i, j) is at most

        U = |T(n_i + n_j)| + |T(n_i - n_j)| + 4 eps + 1e-12,

    whatever X is.  The norms come from the Gram matrix G of the rows T n_i,
    |T(n_i +- n_j)|^2 = G_ii + G_jj +- 2 G_ij, whose absolute rounding error
    (a few ulp of G_ii + G_jj) the square root would magnify near zero, so
    1e-13 (G_ii + G_jj) is added under each root; 1e-12 covers the rest.
    Entries where the boolean mask ``below`` is set (those below the
    diagonal) are -inf.

    Every R x R step writes into ``space``: the residual, then the outer
    sum and the slack, in ``space.work``, the minus half in ``space.minus``,
    and G, then the plus half and the bounds, in ``space.gram``, which is
    returned.  ``corr_t`` must not lie in ``space.scratch``; the bounds stay
    valid until ``space`` is next used.
    """
    work, minus, gram = space.work, space.minus, space.gram
    image = bloch @ tensor                  # row i is T n_i
    np.matmul(image, bloch.T, out=work)
    work -= corr_t
    eps = float(np.abs(work, out=work).max())
    np.matmul(image, image.T, out=gram)
    sq = np.diag(gram).copy()
    outer = np.add.outer(sq, sq, out=work)
    gram *= 2.0
    np.subtract(outer, gram, out=minus)
    plus = np.add(outer, gram, out=gram)
    slack = np.multiply(outer, 1e-13, out=outer)
    for half in (plus, minus):
        np.maximum(half, 0.0, out=half)
        half += slack
        np.sqrt(half, out=half)
    plus += minus
    plus += 4.0 * eps + 1e-12
    np.copyto(plus, -np.inf, where=below)
    return plus


def _best_pair(corr_t: np.ndarray, bounds: np.ndarray,
               space: _Workspace) -> tuple[float, tuple[int, int]]:
    """Largest grid total over B pairs i <= j, and the first pair reaching it.

    The total of (i, j) is max_r |corr_t[i, r] + corr_t[j, r]| +
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
    flat = bounds.ravel()
    i, j = divmod(int(np.argmax(flat)), n)
    row, other = corr_t[i], corr_t[j]
    floor = float(np.abs(other + row).max() + np.abs(row - other).max())
    cands = np.flatnonzero(flat >= floor)
    cands = cands[np.argsort(-flat[cands], kind="stable")]
    best = -np.inf
    arg = 0
    for start in range(0, len(cands), PAIR_CHUNK):
        chunk = cands[start:start + PAIR_CHUNK]
        if flat[chunk[0]] < best:
            break
        m = len(chunk)
        row, tail, both = space.rows[:m], space.tails[:m], space.both[:m]
        # the indices are in range; "clip" skips the copy of ``out`` that "raise" makes
        np.take(corr_t, chunk // n, axis=0, out=row, mode="clip")
        np.take(corr_t, chunk % n, axis=0, out=tail, mode="clip")
        totals = np.abs(np.add(tail, row, out=both), out=both).max(axis=1)
        totals += np.abs(np.subtract(row, tail, out=both), out=both).max(axis=1)
        top = float(totals.max())
        if top >= best:
            first = int(chunk[totals == top].min())
            arg = first if top > best else min(arg, first)
            best = top
    return best, divmod(arg, n)


class _Grid(NamedTuple):
    """Read-only constants of the grid stage for one ``grid_n``."""

    chis: np.ndarray            # orbit representatives' chi and phi
    phis: np.ndarray
    obs: np.ndarray             # their observables, (R, 2, 2)
    bloch: np.ndarray           # their Bloch vectors as rows, (R, 3)
    pinv: np.ndarray            # least-squares fit of T: T^T ~ pinv corr_t pinv^T
    below: np.ndarray           # (R, R) mask of the entries below the diagonal
    contract_path: tuple        # einsum paths of the two correlation contractions
    corr_path: tuple


@functools.cache
def _grid_constants(grid_n: int) -> _Grid:
    """The grid stage's state-independent arrays, built once per ``grid_n``.

    The einsum paths are the ones ``optimize=True`` searches for on every
    call; the contractions depend only on the operand shapes.
    """
    chis, phis = _orbit_representatives(grid_n)
    obs = _theta_entries(chis, phis)
    bloch = _bloch_vectors(chis, phis)
    pinv = np.linalg.solve(bloch.T @ bloch, bloch.T)
    psi = np.zeros((2, 2), dtype=complex)
    below = np.tri(len(chis), k=-1, dtype=bool)
    contract_path = tuple(np.einsum_path('ki,nkl,lj->nij', psi, obs, psi, optimize=True)[0])
    corr_path = tuple(np.einsum_path('nab,mab->mn', obs, obs, optimize=True)[0])
    for array in (chis, phis, obs, bloch, pinv, below):
        array.flags.writeable = False
    return _Grid(chis, phis, obs, bloch, pinv, below, contract_path, corr_path)


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
    bounds = _pair_bounds(corr_t, grid.bloch, pinv @ corr_t @ pinv.T, grid.below, space)
    best, (ib, ibp) = _best_pair(corr_t, bounds, space)
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
        raise DomainError(f"grid_n must be >= 8, got {grid_n}")
    psi = coefficient_matrix(vector)
    best, angles = _grid_stage(psi, grid_n)
    psi, angles = psi.tolist(), angles.tolist()
    # each setting's share of the value; a move of one angle recomputes one
    terms = [_setting_terms(psi, angles, side) for side in range(4)]
    current = _combine(*terms)
    if current < best:      # different arithmetic; guards rounding asymmetry
        current = best
    probe = 0.5
    sin_p, cos_p = math.sin(probe), math.cos(probe)
    for _ in range(refine_iters):
        sweep_start = angles    # angles is rebound below, never changed in place
        for k in range(8):
            side = k // 2
            moved = terms.copy()
            up = angles.copy()
            up[k] += probe
            moved[side] = _setting_terms(psi, up, side)
            f_up = _combine(*moved)
            down = angles.copy()
            down[k] -= probe
            moved[side] = _setting_terms(psi, down, side)
            f_down = _combine(*moved)
            # f(t) = A cos t + B sin t + C along offset t of this angle
            coef_b = (f_up - f_down) / (2.0 * sin_p)
            coef_a = (0.5 * (f_up + f_down) - current) / (cos_p - 1.0)
            if coef_a == 0.0 and coef_b == 0.0:
                continue
            trial = angles.copy()
            trial[k] += math.atan2(coef_b, coef_a)
            moved[side] = _setting_terms(psi, trial, side)
            value = _combine(*moved)
            if value > current:
                current, angles, terms = value, trial, moved
        displacement = [a - s for a, s in zip(angles, sweep_start)]
        if not any(displacement):
            break       # fixed point: every later sweep would repeat this one
        scale = 1.0
        for _ in range(50):
            trial = [a + scale * d for a, d in zip(angles, displacement)]
            moved = [_setting_terms(psi, trial, side) for side in range(4)]
            value = _combine(*moved)
            if value > current:
                current, angles, terms = value, trial, moved
                scale *= 2.0
            else:
                break
    return current
