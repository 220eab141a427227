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
``oracle_bell_run`` also returns how that refinement ended.
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


def _pair_values(image: np.ndarray, norms: np.ndarray, pairs: np.ndarray,
                 space: _Workspace) -> np.ndarray:
    """float32 keys ranking the pairs i <= j by |a_i + a_j| + |a_i - a_j|, in ``space.halves[0]``.

    ``pairs`` holds the pairs' flat indices i R + j, row-major, row i of
    ``image`` is a_i and ``norms`` holds the |a_i|^2, summed in float64.
    With B, B' = Theta_i, Theta_j the CHSH value is
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
    right[4] = norms
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

    The rows' |a_i|^2 are summed once, in float64, for both ``_pair_values``
    and the cut.  Let m^2 bound max |a_i|^2 from above (their max raised by
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
    ``_grid_stage`` argues.  The pairs are split into (i, j) only after
    ``compress`` has kept those that clear it.
    """
    norms = np.einsum('ij,ij->i', image, image)
    keys = _pair_values(image, norms, pairs, _workspace(len(image)))
    top = keys.max()
    m_sq = float(norms.max()) * (1.0 + 2.0 ** -50)
    rho = float(top) - (_KEY_ERROR + 2.0 + _CUT_SLACK) * m_sq
    if rho > 0.0 and (error := _key_error(m_sq, rho)) < _KEY_ERROR * m_sq:
        cut = (float(top) - 2.0 * error - _CUT_SLACK * m_sq) * (1.0 - 2.0 ** -23)
    else:
        cut = (1.0 - _KEY_WINDOW) * top
    return np.divmod(pairs.compress(keys >= cut), len(image))


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


# why ``_polish`` stopped: gain below rounding, no halving rises, the step cap, a cone point
_POLISH_EXITS = ("rounding", "no rise", "cap", "cone")


def _saddle_free_step(hess: np.ndarray, grad) -> tuple[list[float], float]:
    """(|H|^-1 G, |H|'s largest eigenvalue) for the symmetric 4 x 4 ``hess`` H and ``grad`` G.

    With H = V diag(lambda) V^T from ``np.linalg.eigh``, |H|^-1 G is
    V diag(1 / max(|lambda|, 1e-8 max |lambda|)) V^T G: H's eigenvalues by
    absolute value, so saddles repel, floored at 1e-8 of the largest.
    Both products run in floats on the eigenpairs' ``tolist()``.
    """
    curvatures, vectors = np.linalg.eigh(hess)
    c0, c1, c2, c3 = (abs(c) for c in curvatures.tolist())
    top = max(c0, c1, c2, c3)
    floor = 1e-8 * top
    (v00, v01, v02, v03), (v10, v11, v12, v13), (v20, v21, v22, v23), (v30, v31, v32, v33) = (
        vectors.tolist())
    g0, g1, g2, g3 = grad
    w0 = (v00 * g0 + v10 * g1 + v20 * g2 + v30 * g3) / max(c0, floor)
    w1 = (v01 * g0 + v11 * g1 + v21 * g2 + v31 * g3) / max(c1, floor)
    w2 = (v02 * g0 + v12 * g1 + v22 * g2 + v32 * g3) / max(c2, floor)
    w3 = (v03 * g0 + v13 * g1 + v23 * g2 + v33 * g3) / max(c3, floor)
    return [v00 * w0 + v01 * w1 + v02 * w2 + v03 * w3,
            v10 * w0 + v11 * w1 + v12 * w2 + v13 * w3,
            v20 * w0 + v21 * w1 + v22 * w2 + v23 * w3,
            v30 * w0 + v31 * w1 + v32 * w2 + v33 * w3], top


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
    -T e.  T's entries, the Jacobian, G and H's ten entries are plain
    floats; H is written into one 4 x 4 array per call for
    ``_saddle_free_step``, which gives the step |H|^-1 G, H's eigenvalues
    taken by absolute value (so saddles repel) and floored at 1e-8 of the
    largest.  The step is halved, up to 11 times, until f rises.  Where a
    curvature sits at that floor the step is tens of radians long, and
    halving shortens it but never turns it; when no halving raises f, the
    gradient step G / (largest |H| eigenvalue) is taken instead, with its
    own halvings.  The ascent stops, and the last item of the result names
    why, when the step's first-order gain is below f's rounding
    ("rounding"), when no halving of either step raises f ("no rise"),
    after ``steps`` steps ("cap"), or where p or m vanishes, a cone point
    of f ("cone").
    Returns b, b', p, m, the number of steps taken and that exit reason.
    """
    d, k = forms
    (t00, t01, t02), (t10, t11, t12), (t20, t21, t22) = (
        (2.0 * z.real, 2.0 * z.imag, dz) for z, dz in zip(k, d))

    def image(n):
        x, y, z = n
        return (t00 * x + t01 * y + t02 * z, t10 * x + t11 * y + t12 * z,
                t20 * x + t21 * y + t22 * z)

    def value(b, b_prime):
        u, u_prime = image(b), image(b_prime)
        p = (u[0] + u_prime[0], u[1] + u_prime[1], u[2] + u_prime[2])
        m = (u[0] - u_prime[0], u[1] - u_prime[1], u[2] - u_prime[2])
        return math.sqrt(_dot(p, p)) + math.sqrt(_dot(m, m)), u, u_prime, p, m

    def rise(step):
        # the first of step and its halvings that raises f from b, b', or None
        for _ in range(12):
            trial_b = _turn(b, frame, step[0], step[1])
            trial_b_prime = _turn(b_prime, frame_prime, step[2], step[3])
            trial = value(trial_b, trial_b_prime)
            if trial[0] > current:
                return trial_b, trial_b_prime, trial
            step = [0.5 * x for x in step]
        return None

    hess = np.empty((4, 4))
    entries = hess.reshape(16)      # a view
    current, u, u_prime, p, m = value(b, b_prime)
    taken, reason = 0, "cap"
    for _ in range(steps):
        length_p, length_m = math.sqrt(_dot(p, p)), math.sqrt(_dot(m, m))
        if length_p == 0.0 or length_m == 0.0:
            reason = "cone"
            break
        p0, p1, p2 = p[0] / length_p, p[1] / length_p, p[2] / length_p
        m0, m1, m2 = m[0] / length_m, m[1] / length_m, m[2] / length_m
        frame, frame_prime = _tangent_frame(b), _tangent_frame(b_prime)
        # the Jacobian's columns q, r, s, v = T e for e1, e2 of b and e1', e2' of b'
        (q0, q1, q2), (r0, r1, r2) = image(frame[0]), image(frame[1])
        (s0, s1, s2), (v0, v1, v2) = image(frame_prime[0]), image(frame_prime[1])
        # G's parts along p and m; e1', e2' enter m with a minus sign
        gp0, gp1 = q0 * p0 + q1 * p1 + q2 * p2, r0 * p0 + r1 * p1 + r2 * p2
        gp2, gp3 = s0 * p0 + s1 * p1 + s2 * p2, v0 * p0 + v1 * p1 + v2 * p2
        gm0, gm1 = q0 * m0 + q1 * m1 + q2 * m2, r0 * m0 + r1 * m1 + r2 * m2
        gm2, gm3 = -(s0 * m0 + s1 * m1 + s2 * m2), -(v0 * m0 + v1 * m1 + v2 * m2)
        # H's Gram entries T e . T e'; then the second derivatives -T b, -T b' along p and m
        qq, qr, qs, qv = (q0 * q0 + q1 * q1 + q2 * q2, q0 * r0 + q1 * r1 + q2 * r2,
                          q0 * s0 + q1 * s1 + q2 * s2, q0 * v0 + q1 * v1 + q2 * v2)
        rr, rs, rv = (r0 * r0 + r1 * r1 + r2 * r2, r0 * s0 + r1 * s1 + r2 * s2,
                      r0 * v0 + r1 * v1 + r2 * v2)
        ss, sv, vv = (s0 * s0 + s1 * s1 + s2 * s2, s0 * v0 + s1 * v1 + s2 * v2,
                      v0 * v0 + v1 * v1 + v2 * v2)
        curv = ((p0 * u[0] + p1 * u[1] + p2 * u[2])
                + (m0 * u[0] + m1 * u[1] + m2 * u[2]))
        curv_prime = ((p0 * u_prime[0] + p1 * u_prime[1] + p2 * u_prime[2])
                      - (m0 * u_prime[0] + m1 * u_prime[1] + m2 * u_prime[2]))
        h00 = (qq - gp0 * gp0) / length_p + (qq - gm0 * gm0) / length_m - curv
        h01 = (qr - gp0 * gp1) / length_p + (qr - gm0 * gm1) / length_m
        h02 = (qs - gp0 * gp2) / length_p + (-qs - gm0 * gm2) / length_m
        h03 = (qv - gp0 * gp3) / length_p + (-qv - gm0 * gm3) / length_m
        h11 = (rr - gp1 * gp1) / length_p + (rr - gm1 * gm1) / length_m - curv
        h12 = (rs - gp1 * gp2) / length_p + (-rs - gm1 * gm2) / length_m
        h13 = (rv - gp1 * gp3) / length_p + (-rv - gm1 * gm3) / length_m
        h22 = (ss - gp2 * gp2) / length_p + (ss - gm2 * gm2) / length_m - curv_prime
        h23 = (sv - gp2 * gp3) / length_p + (sv - gm2 * gm3) / length_m
        h33 = (vv - gp3 * gp3) / length_p + (vv - gm3 * gm3) / length_m - curv_prime
        entries[:] = (h00, h01, h02, h03, h01, h11, h12, h13,
                      h02, h12, h22, h23, h03, h13, h23, h33)
        grad = (gp0 + gm0, gp1 + gm1, gp2 + gm2, gp3 + gm3)
        step, top = _saddle_free_step(hess, grad)
        if grad[0] * step[0] + grad[1] * step[1] + grad[2] * step[2] + grad[3] * step[3] <= (
                1e-15 * current):
            reason = "rounding"     # no step gains above the value's rounding
            break
        found = rise(step) or rise([g / top for g in grad])
        if found is None:
            reason = "no rise"
            break
        b, b_prime, (current, u, u_prime, p, m) = found
        taken += 1
    return b, b_prime, p, m, taken, reason


def _direction_angles(n) -> list[float]:
    """(chi, phi) with n = |n| (sin chi cos phi, -sin chi sin phi, cos chi); (0, 0) at n = 0."""
    x, y, z = n
    return [math.atan2(math.hypot(x, y), z), math.atan2(-y, x)]


def _pair_settings(psi: list, forms, grid: _Grid, ib: int, ibp: int,
                   steps: int) -> tuple[float, np.ndarray, int, str]:
    """The CHSH value and the angles of A, A', B, B' from the grid's B pair (ib, ibp).

    B and B' start at the pair's settings and take up to ``steps`` Newton
    steps (``_polish``); A and A' point along p = T(b + b') and
    m = T(b - b').  The value is ``_chsh_value`` at the angles, and the
    angles are a new array; the Newton step count and exit reason follow.
    """
    b, b_prime, p, m, taken, reason = _polish(forms, tuple(grid.bloch[ib].tolist()),
                                              tuple(grid.bloch[ibp].tolist()), steps)
    if taken:
        angles_b = _direction_angles(b) + _direction_angles(b_prime)
    else:
        angles_b = [float(grid.chis[ib]), float(grid.phis[ib]),
                    float(grid.chis[ibp]), float(grid.phis[ibp])]
    angles = _direction_angles(p) + _direction_angles(m) + angles_b
    return _chsh_value(psi, angles), np.array(angles), taken, reason


def _grid_stage(psi: np.ndarray, grid_n: int,
                steps: int) -> tuple[float, np.ndarray, int, str]:
    """``_pair_settings``' result for the settings grid's best B pair, A and A' free.

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


# The grid stage's arrays (workspace and ``pairs``) grow as R^2 in the orbit
# count R (``_orbit_count``): 0.9 MB at grid_n 24 and 47 MB at 64.  An odd
# grid_n adds the half-step settings and nearly doubles R, so the cap is on R:
# every grid_n up to 64 whose R is at most R(64) = 1985 (odd ones up to 45).
GRID_N_MAX = 64
DEFAULT_GRID_N = 24
DEFAULT_REFINE_ITERS = 100


def _orbit_count(grid_n: int) -> int:
    """R, the number of ``_orbit_representatives(grid_n)``, in closed form."""
    return grid_n * grid_n // 2 - grid_n + 1 if grid_n % 2 == 0 else (grid_n - 1) ** 2


def check_oracle_args(grid_n: int, refine_iters: int) -> None:
    """Raise DomainError unless both are integers (24.0 would share 24's cached
    ``_grid_constants``), 8 <= ``grid_n`` <= GRID_N_MAX, ``grid_n`` has at
    most as many orbits as GRID_N_MAX, and ``refine_iters`` >= 0."""
    for name, value in (("grid_n", grid_n), ("refine_iters", refine_iters)):
        try:
            operator.index(value)   # ints and numpy integers pass, unlike floats
        except TypeError:
            raise DomainError(f"{name} must be an integer, got {value!r}") from None
    if not 8 <= grid_n <= GRID_N_MAX:
        raise DomainError(f"grid_n must be in [8, {GRID_N_MAX}], got {grid_n}")
    if (count := _orbit_count(grid_n)) > (limit := _orbit_count(GRID_N_MAX)):
        raise DomainError(f"grid_n {grid_n} has {count} orbit settings, above the limit of "
                          f"{limit} (grid_n {GRID_N_MAX}) that bounds the grid's memory")
    if refine_iters < 0:
        raise DomainError(f"refine_iters must be >= 0, got {refine_iters}")


class OracleRun(NamedTuple):
    """The oracle's CHSH value, its polish's Newton steps and exit reason (``_POLISH_EXITS``)."""

    value: float
    steps: int
    exit: str


def oracle_bell_run(vector: np.ndarray, grid_n: int = DEFAULT_GRID_N,
                    refine_iters: int = DEFAULT_REFINE_ITERS) -> OracleRun:
    """``oracle_bell_max``'s value, with its polish's step count and exit reason."""
    check_oracle_args(grid_n, refine_iters)
    value, _, steps, reason = _grid_stage(coefficient_matrix(vector), grid_n, refine_iters)
    return OracleRun(value, steps, reason)


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
    return oracle_bell_run(vector, grid_n, refine_iters).value
