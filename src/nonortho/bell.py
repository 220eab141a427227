"""The closed-form CHSH value and the independent CHSH maximizer.

``analytic_bell`` is the closed form 2*sqrt(1 + |2 c+ c-|^2) of a Schmidt
form.  ``oracle_bell_max`` is the independent check: it maximizes the raw
CHSH combination over all four settings by a grid search plus local
refinement, sharing no algebra with the closed form.  A setting is the
unit-spin observable Theta(chi, phi) = n . sigma with the Bloch vector
n = (sin chi cos phi, -sin chi sin phi, cos chi), so a correlation is
n_A . T n_B for the 3x3 Pauli correlation tensor T of psi.
With B and B' fixed the value is n_A . T(n_B + n_B') + n_A' . T(n_B - n_B'),
so by Cauchy-Schwarz the best A and A' point along T(n_B +- n_B') and the
value is |T(n_B + n_B')| + |T(n_B - n_B')|.  The grid stage takes the B pair
of the settings grid that maximizes it, one setting per {Theta, -Theta} pair
and each unordered pair once.  Newton steps on B and B' (A and A'
re-derived) refine that pair, also along the nearly flat ridge the value
has near maximal violation, and A and A' are then set exactly.
"""

from __future__ import annotations

import functools
import math
import operator
import threading
from typing import NamedTuple

import numpy as np

from .errors import DomainError
from .schmidt import SchmidtForm, coefficient_matrix


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
    it is (Theta00, Theta01) = (n_z, n_x - i n_y), which ``_chsh_value`` sums.
    """
    s = math.sin(chi)
    nx, ny, nz = s * math.cos(phi), -s * math.sin(phi), math.cos(chi)
    if side >= 2:
        return nz, complex(nx, -ny)
    (dx, dy, dz), (kx, ky, kz) = forms
    return nx * dx + ny * dy + nz * dz, nx * kx + ny * ky + nz * kz


def _chsh_value(psi, angles) -> float:
    """CHSH value of the 2x2 coefficient matrix ``psi`` (rows) at the 8 ``angles``.

    ``angles`` is (chi, phi) of A, A', B, B'.  With K = psi^dagger Theta_A psi
    and W = Theta_B + Theta_B' (Hermitian, W11 = -W00), <A (B + B')> =
    Re sum K_ab W_ab = (K00 - K11) W00 + 2 Re(K01 W01); likewise A', B - B'.
    """
    forms = _pauli_forms(psi)
    (d_a, k_a), (d_ap, k_ap), (c_b, w_b), (c_bp, w_bp) = (
        _share(forms, side, angles[2 * side], angles[2 * side + 1]) for side in range(4))
    return (d_a * (c_b + c_bp) + 2.0 * (k_a * (w_b + w_bp)).real
            + d_ap * (c_b - c_bp) + 2.0 * (k_ap * (w_b - w_bp)).real)


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


class _Workspace(NamedTuple):
    """One thread's grid-stage buffers for R orbits: row-major views of one flat float32 array.

    ``work`` (R x R) holds one of ``_pair_values``' products at a time, and
    last the pairs' products of squares; ``halves`` is 2 x P for the
    P = R (R + 1)/2 pairs i <= j.  ``left`` (R x 5, columns [a, |a|^2, 1]) and ``right``
    (5 x R, rows [+-2 a; 1; |a|^2]) are the products' operands: their ones
    are written once here, and ``_pair_values`` fills the rest in place on
    each call, since a depends on the state.  float32 halves the bytes
    every pass moves; ``_pair_values`` bounds what it costs in precision.
    """

    work: np.ndarray
    halves: np.ndarray
    left: np.ndarray
    right: np.ndarray


_WORKSPACES = threading.local()


def _workspace(n: int) -> _Workspace:
    """This thread's workspace for ``n`` orbits, kept per ``n``."""
    spaces = _WORKSPACES.__dict__.setdefault("spaces", {})     # this thread's own dict
    if n not in spaces:
        flat = np.empty(n * n + n * (n + 1) + 10 * n, dtype=np.float32)
        work, halves, left, right = np.split(flat, np.cumsum([n * n, n * (n + 1), 5 * n]))
        left, right = left.reshape(n, 5), right.reshape(5, n)
        left[:, 4] = right[3] = 1.0
        spaces[n] = _Workspace(work.reshape(n, n), halves.reshape(2, -1), left, right)
    return spaces[n]


def _tensor_image(forms, bloch: np.ndarray) -> np.ndarray:
    """The rows a_i = T n_i for the Bloch vectors n_i, the rows of ``bloch``.

    T is the Pauli correlation tensor of psi, <Theta_A Theta_B> = n_A . T
    n_B; by ``_chsh_value`` B's coefficients are (2 Re k_A, 2 Im k_A, d_A)
    with (d_A, k_A) = (n_A . D, n_A . K) and ``forms`` = (D, K), so T^T has
    rows (2 Re K, 2 Im K, D).
    """
    d, k = forms
    return bloch @ np.array([[2.0 * z.real for z in k], [2.0 * z.imag for z in k], d])


def _pair_values(image: np.ndarray, pairs: np.ndarray, space: _Workspace) -> np.ndarray:
    """float32 keys ranking the pairs i <= j by |a_i + a_j| + |a_i - a_j|, in ``space.halves[0]``.

    ``pairs`` holds the pairs' flat indices i R + j, row-major, and row i of
    ``image`` is a_i.  With B, B' = Theta_i, Theta_j the CHSH value is
    n_A . (a_i + a_j) + n_A' . (a_i - a_j), so by Cauchy-Schwarz the pair
    value |p| + |q|, p, q = a_i +- a_j, is its maximum over every A and A'.
    The key is (|p|^2 + |q|^2)/2 + sqrt(|p|^2 |q|^2) = (|p| + |q|)^2/2, which
    rises with the value and takes one square root per pair.  The squares
    are entries of [a, |a|^2, 1] [+-2 a; 1; |a|^2], formed in ``space.work``
    from ``space.left`` and ``space.right`` and gathered into
    ``space.halves``; their product is formed in ``space.work``, clipped at
    0 and rooted.  Everything runs in float32, from a and |a|^2 (summed in
    float64) rounded once.

    Rounding, with u = 2^-24 and m = max_i |a_i| (near 1, as T's largest
    singular value is 1, so nothing here underflows or overflows): a square
    |a_i|^2 + |a_j|^2 +- 2 a_i . a_j moves by at most 2 (u + 2^-51) m^2 as
    |a|^2 is rounded, and by at most 2 (2u + u^2) m^2 as a is; its five
    products have absolute sum at most (1 + 3u) (|a_i| + |a_j|)^2 <= (1 +
    3u) 4 m^2, so forming it adds at most gamma_5 (1 + 3u) 4 m^2.  Each
    square is thus off by at most delta < 26.1 u m^2, and half their sum by
    at most delta.  As the clip only moves the product towards |p|^2 |q|^2
    >= 0 and |sqrt x - sqrt y| <= sqrt |x - y|, the root of the squares'
    exact product is off by at most sqrt(delta (|p|^2 + |q|^2) + delta^2)
    <= sqrt(4 m^2 delta + delta^2) < 2.4946e-3 m^2, as |p|^2 + |q|^2 <=
    4 m^2.  Rounding the product, the root, the sum and the last addition
    adds < 9.1 u m^2, so a key is within 2.4967e-3 m^2 < 2.5e-3 m^2 of its
    pair's exact key.  The top key is at least 2 m^2 (a pair i = j with
    |a_i| = m), so that is less than 1.25e-3 of the top key.  A key may sit
    on either side of its pair's, which is why ``_grid_stage`` compares its
    top pairs again in float64.

    The root's bound is reached only where |p||q| nearly vanishes.  For a
    pair with |p||q| >= rho > 0 the clipped, rounded product x is within
    X = 4 m^2 delta + delta^2 + u (2 m^2 + delta)^2 of |p|^2 |q|^2 (the last
    term its rounding, as the factors' product is at most (2 m^2 +
    delta)^2), and |sqrt x - |p||q|| = |x - |p|^2 |q|^2| / (sqrt x + |p||q|)
    <= X / rho.  So its key is within E(rho) = delta + X / rho + 9.1 u m^2
    (``_key_error``; the last term is the rounding above, counting the
    product's once more) of the exact key: ~5.3e-6 m^2 at rho = 2 m^2.
    """
    work, halves, left, right = space
    right[4] = np.einsum('ij,ij->i', image, image)
    left[:, 3] = right[4]
    left[:, :3] = image
    np.multiply(image.T, 2.0, out=right[:3])
    for half in halves:
        np.matmul(left, right, out=work)
        # the indices are in range; "wrap" skips the copy of ``out`` that "raise" makes
        np.take(work.ravel(), pairs, out=half, mode="wrap")
        right[:3] *= -1.0
    keys, minus = halves
    roots = work.ravel()[:len(keys)]
    np.multiply(keys, minus, out=roots)
    np.maximum(roots, 0.0, out=roots)
    np.sqrt(roots, out=roots)
    keys += minus
    keys *= 0.5
    keys += roots
    return keys


# twice the bound on ``_pair_values``' keys relative to the top key
_KEY_WINDOW = 2.5e-3
# ``_pair_values``' bounds over m^2: every key's error, a float32 square's
# (delta) and the rounding after the squares; with 2^-24 for float32 rounding
_KEY_ERROR = 2.4967e-3
_SQUARE_ERROR = 26.1 * 2.0 ** -24
_ROUNDING_ERROR = 9.1 * 2.0 ** -24
# over m^2: covers the float64 totals' rounding and the cut's own arithmetic
_CUT_SLACK = 2.0 ** -40


def _key_error(m_sq: float, rho: float) -> float:
    """E(rho), ``_pair_values``' bound on the key error of a pair with |p||q| >= rho > 0."""
    delta = _SQUARE_ERROR * m_sq
    product = 4.0 * m_sq * delta + delta * delta + 2.0 ** -24 * (2.0 * m_sq + delta) ** 2
    return delta + product / rho + _ROUNDING_ERROR * m_sq


def _candidates(image: np.ndarray, pairs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(i, j) of the pairs whose float32 key clears a cut that keeps the best pair.

    Let m^2 bound max |a_i|^2 from above (summed in float64 and raised by
    2^-50), E = 2.4967e-3 m^2 bound every key's error and s = 2^-40 m^2,
    which also covers the rounding of this function's own float64 terms.
    The pair with the top key has exact key at least top - E, and the pair
    the float64 comparison picks is within s of the best exact key (a pair
    that ties or beats it in float64 is within 2^-44 m^2 of it), so its
    exact key is at least top - E - s.  As (|p|^2 + |q|^2)/2 <= 2 m^2, both pairs then have
    |p||q| >= rho = top - E - 2 m^2 - s.  Where rho > 0 and E(rho) < E
    (``_key_error``), both keys are within E(rho) of the exact keys, so the
    picked pair's key is at least top - 2 E(rho) - s: the cut sits there,
    lowered by 2^-23 of itself so that its float32 rounding keeps it below.
    Otherwise the cut is ``_KEY_WINDOW`` below the top key, relative, as
    ``_grid_stage`` argues.
    """
    keys = _pair_values(image, pairs, _workspace(len(image)))
    top = keys.max()
    m_sq = float(np.einsum('ij,ij->i', image, image).max()) * (1.0 + 2.0 ** -50)
    rho = float(top) - (_KEY_ERROR + 2.0 + _CUT_SLACK) * m_sq
    if rho > 0.0 and (error := _key_error(m_sq, rho)) < _KEY_ERROR * m_sq:
        cut = (float(top) - 2.0 * error - _CUT_SLACK * m_sq) * (1.0 - 2.0 ** -23)
    else:
        cut = (1.0 - _KEY_WINDOW) * top
    return np.divmod(pairs[keys >= cut], len(image))


def _pair_totals(image: np.ndarray, first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """|a_i + a_j| + |a_i - a_j| in float64 for the pairs (i, j) of ``first`` and ``second``.

    Each axis of the rows a_i of ``image`` is gathered on its own, so every
    pass runs along the pairs.
    """
    a_i, a_j = image.T.take(first, axis=1), image.T.take(second, axis=1)
    plus = a_i + a_j
    minus = np.subtract(a_i, a_j, out=a_i)
    plus *= plus
    minus *= minus
    return np.sqrt(plus.sum(axis=0)) + np.sqrt(minus.sum(axis=0))


class _Grid(NamedTuple):
    """Constants of the grid stage for one ``grid_n``, read-only but for ``pairs``."""

    chis: np.ndarray            # orbit representatives' chi and phi
    phis: np.ndarray
    bloch: np.ndarray           # their Bloch vectors as rows, (R, 3)
    pairs: np.ndarray           # flat indices i R + j of the B pairs i <= j, row-major


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
    for array in (chis, phis, bloch):
        array.flags.writeable = False
    return _Grid(chis, phis, bloch, _upper_pairs(len(chis)))


def _dot(u, v) -> float:
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def _tangent_frame(n) -> tuple[tuple[float, float, float], tuple[float, float, float]]:
    """Two unit vectors that complete the unit 3-vector ``n`` to an orthonormal frame.

    The first is n x e_k for the axis e_k least aligned with n, so it is
    never shorter than sqrt(2/3); the second is n x the first.
    """
    x, y, z = n
    if abs(x) <= abs(y) and abs(x) <= abs(z):
        e = (0.0, z, -y)
    elif abs(y) <= abs(z):
        e = (-z, 0.0, x)
    else:
        e = (y, -x, 0.0)
    scale = 1.0 / math.sqrt(_dot(e, e))
    e = (e[0] * scale, e[1] * scale, e[2] * scale)
    return e, (y * e[2] - z * e[1], z * e[0] - x * e[2], x * e[1] - y * e[0])


def _turn(n, frame, u: float, v: float) -> tuple[float, float, float]:
    """Unit ``n`` moved by the angle |(u, v)| along the tangent u e1 + v e2 of ``frame``."""
    (e1, e2), r = frame, math.hypot(u, v)
    if r == 0.0:
        return n
    c, s = math.cos(r), math.sin(r) / r
    m = [c * n[k] + s * (u * e1[k] + v * e2[k]) for k in range(3)]
    scale = 1.0 / math.sqrt(_dot(m, m))
    return m[0] * scale, m[1] * scale, m[2] * scale


def _polish(forms, b, b_prime, steps: int):
    """Newton ascent of f = |T(b + b')| + |T(b - b')| over the unit vectors b, b'.

    T's rows are (2 Re K_k, 2 Im K_k, D_k) for ``forms`` = (D, K), as in
    ``_tensor_image``.  f is the CHSH value with A and A' at their exact
    maximizers.  On a near-maximal state f has a nearly flat ridge, along
    which single-angle moves crawl and stop, rounding-limited, short of the
    top.  Each step moves b and b' along great circles, using f's gradient
    G and Hessian H in tangent frames of b and b', from p = T(b + b') and
    m = T(b - b'): a frame vector e of b moves p and m by T e, and its
    second derivative adds -T b to both; e of b' moves p by +T e and m by
    -T e.  The step is |H|^-1 G, H's eigenvalues taken by absolute value
    (so saddles repel) and floored at 1e-8 of the largest, and it is
    halved, up to 11 times, until f rises.  The ascent stops when the
    step's first-order gain is below f's rounding, when no halving raises
    f, after ``steps`` steps, or where p or m vanishes (a cone point of f).
    Returns b, b', p, m and whether b, b' moved.
    """
    d, k = forms
    rows = [(2.0 * z.real, 2.0 * z.imag, dz) for z, dz in zip(k, d)]

    def image(n):
        return _dot(rows[0], n), _dot(rows[1], n), _dot(rows[2], n)

    def value(b, b_prime):
        u, u_prime = image(b), image(b_prime)
        p = [x + y for x, y in zip(u, u_prime)]
        m = [x - y for x, y in zip(u, u_prime)]
        return math.sqrt(_dot(p, p)) + math.sqrt(_dot(m, m)), u, u_prime, p, m

    current, u, u_prime, p, m = value(b, b_prime)
    moved = False
    signs = (1.0, 1.0, -1.0, -1.0)      # how each frame direction enters m
    for _ in range(steps):
        length_p, length_m = math.sqrt(_dot(p, p)), math.sqrt(_dot(m, m))
        if length_p == 0.0 or length_m == 0.0:
            break
        p_hat = [x / length_p for x in p]
        m_hat = [x / length_m for x in m]
        frame, frame_prime = _tangent_frame(b), _tangent_frame(b_prime)
        jac = [image(e) for e in (*frame, *frame_prime)]
        grad_p = [_dot(j, p_hat) for j in jac]
        grad_m = [s * _dot(j, m_hat) for s, j in zip(signs, jac)]
        hess = [[0.0] * 4 for _ in range(4)]
        for k in range(4):
            for l in range(k, 4):
                gram = _dot(jac[k], jac[l])
                hess[k][l] = hess[l][k] = (
                    (gram - grad_p[k] * grad_p[l]) / length_p
                    + (signs[k] * signs[l] * gram - grad_m[k] * grad_m[l]) / length_m)
        curv = _dot(p_hat, u) + _dot(m_hat, u)
        curv_prime = _dot(p_hat, u_prime) - _dot(m_hat, u_prime)
        for k, c in enumerate((curv, curv, curv_prime, curv_prime)):
            hess[k][k] -= c
        grad = np.array([x + y for x, y in zip(grad_p, grad_m)])
        curvatures, vectors = np.linalg.eigh(hess)
        curvatures = np.abs(curvatures)
        step = vectors @ ((vectors.T @ grad) / np.maximum(curvatures, 1e-8 * curvatures.max()))
        if grad @ step <= 1e-15 * current:
            break       # no step gains above the value's rounding
        step = step.tolist()
        for _ in range(12):
            trial_b = _turn(b, frame, step[0], step[1])
            trial_b_prime = _turn(b_prime, frame_prime, step[2], step[3])
            trial = value(trial_b, trial_b_prime)
            if trial[0] > current:
                break
            step = [0.5 * x for x in step]
        else:
            break
        current, u, u_prime, p, m = trial
        b, b_prime, moved = trial_b, trial_b_prime, True
    return b, b_prime, p, m, moved


def _direction_angles(n) -> list[float]:
    """(chi, phi) with n = |n| (sin chi cos phi, -sin chi sin phi, cos chi); (0, 0) at n = 0."""
    x, y, z = n
    return [math.atan2(math.hypot(x, y), z), math.atan2(-y, x)]


def _pair_settings(psi: list, forms, grid: _Grid, ib: int, ibp: int,
                   steps: int) -> tuple[float, np.ndarray]:
    """The CHSH value and the angles of A, A', B, B' from the grid's B pair (ib, ibp).

    B and B' start at the pair's settings and take up to ``steps`` Newton
    steps (``_polish``); A and A' point along p = T(b + b') and
    m = T(b - b').  The value is ``_chsh_value`` at the angles, and the
    angles are a new array.
    """
    b, b_prime, p, m, moved = _polish(forms, tuple(grid.bloch[ib].tolist()),
                                      tuple(grid.bloch[ibp].tolist()), steps)
    if moved:
        angles_b = _direction_angles(b) + _direction_angles(b_prime)
    else:
        angles_b = [float(grid.chis[ib]), float(grid.phis[ib]),
                    float(grid.chis[ibp]), float(grid.phis[ibp])]
    angles = _direction_angles(p) + _direction_angles(m) + angles_b
    return _chsh_value(psi, angles), np.array(angles)


def _grid_stage(psi: np.ndarray, grid_n: int, steps: int) -> tuple[float, np.ndarray]:
    """The CHSH value and angles from the settings grid's best B pair, A and A' free.

    A B pair (+-Theta_i, +-Theta_j) reaches the value |a_i + a_j| +
    |a_i - a_j| whatever the signs and the order of i, j, so only i <= j is
    searched.  ``_pair_values`` ranks the pairs in float32, by keys off by
    less than r = 1.25e-3 of the top key.  With K the best pair's exact key,
    its key is at least (1 - r) K and the top key at most (1 + r) K; as
    (1 - 2r)(1 + r) = 1 - r - 2r^2, a cut at 2r = 2.5e-3 below the top key,
    relative, keeps the best pair, with 2r^2 ~ 3e-6 to spare for the cut's
    own float32 rounding (< 3u).  Where the top pairs' |p||q| is bounded
    away from 0, their keys' tighter bound E(rho) allows a cut ~500 times
    closer to the top key.  ``_candidates`` makes the closer of the two
    cuts it can prove, the pairs it keeps are compared again in float64 by
    ``_pair_totals``, and the first largest pair in (i, j) order wins.  That pair takes up to
    ``steps`` Newton steps and is set by ``_pair_settings``.  The R x R
    products live in this thread's ``_workspace``.
    """
    grid = _grid_constants(grid_n)
    psi = psi.tolist()
    forms = _pauli_forms(psi)
    image = _tensor_image(forms, grid.bloch)
    first, second = _candidates(image, grid.pairs)
    best = int(np.argmax(_pair_totals(image, first, second)))
    return _pair_settings(psi, forms, grid, int(first[best]), int(second[best]), steps)


# The grid stage's arrays (workspace and ``pairs``) grow as grid_n^4: 0.9 MB at
# 24, 47 MB at 64, and 178 MB at 63, since an odd grid_n adds the half-step
# settings (``_orbit_representatives``).
GRID_N_MAX = 64
DEFAULT_GRID_N = 24
DEFAULT_REFINE_ITERS = 40


def check_oracle_args(grid_n: int, refine_iters: int) -> None:
    """Raise DomainError unless both are integers (24.0 would share 24's cached
    ``_grid_constants``), 8 <= ``grid_n`` <= GRID_N_MAX and ``refine_iters`` >= 0."""
    for name, value in (("grid_n", grid_n), ("refine_iters", refine_iters)):
        try:
            operator.index(value)   # ints and numpy integers pass, unlike floats
        except TypeError:
            raise DomainError(f"{name} must be an integer, got {value!r}") from None
    if not 8 <= grid_n <= GRID_N_MAX:
        raise DomainError(f"grid_n must be in [8, {GRID_N_MAX}], got {grid_n}")
    if refine_iters < 0:
        raise DomainError(f"refine_iters must be >= 0, got {refine_iters}")


def oracle_bell_max(vector: np.ndarray, grid_n: int = DEFAULT_GRID_N,
                    refine_iters: int = DEFAULT_REFINE_ITERS) -> float:
    """Brute-force CHSH maximum over all four settings.

    The best B pair of the ``grid_n`` x ``grid_n`` (chi, phi) grid, closed
    under Theta -> -Theta, is refined by at most ``refine_iters`` Newton
    steps on B and B' (``_polish``), with A and A' at their exact
    maximizers, and the value is the CHSH combination at those settings.
    A step is taken only where it raises the value, so the result is
    non-decreasing in ``refine_iters`` up to its rounding, and the steps
    end early once none can gain above that rounding.  Raises DomainError
    for arguments ``check_oracle_args`` rejects.
    """
    check_oracle_args(grid_n, refine_iters)
    return _grid_stage(coefficient_matrix(vector), grid_n, refine_iters)[0]
