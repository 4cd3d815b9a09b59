"""Truncated singular integrals with odd kernels on atomic measures.

The transform T_eps nu(x) = sum_{|y - x| > eps} w(y) k(y - x) is an exact
finite sum; as a function of eps it is piecewise constant with breakpoints
at the atom distances, so suprema over truncations are exact maxima over
breakpoint grids, read off one distance sort and a suffix sum.  Operator
norms live on the weighted finite-dimensional L^2(mu) space: with
D = diag(w), each kernel component gives the block D^1/2 K_c D^1/2 with the
pairs within eps zeroed, and the truncated operator's norm is the top
singular value of their stack B, computed by Lanczos on
B^T B = -sum_c K_c K_c.  An odd kernel makes every block antisymmetric, so
two components share one N x N array, one in each strict triangle, and an
unsigned index per pair (one byte up to 255 truncations) names the first
truncation that drops it.  Every norm carries its Ritz residual, which
bounds its error, and a cap on the applications of B^T B; a norm whose
residual misses the tolerance within the cap is flagged as stalled.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt
from typing import Callable

import numpy as np

from . import geometry
from .errors import DimensionMismatch, InvalidParams, TooLarge
from .measure import DiscreteMeasure

# Largest operator-norm profile allowed, in bytes: about N = 14,500 atoms for
# a two-component kernel.
OPERATOR_BYTE_BUDGET = 2 * 2 ** 30


@dataclass(frozen=True)
class Kernel:
    """Odd kernel of Calderon-Zygmund type with declared decay constant.

    ``components`` maps an (N, d) array of offsets to an (N, c) array of
    kernel values; the declared ``constant`` bounds |grad^j k| |x|^(n+j) for
    j = 0, 1, 2 on the validation grid.
    """

    name: str
    dim_param: int
    ambient_dim: int
    components: Callable[[np.ndarray], np.ndarray]
    constant: float

    def __call__(self, offsets: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(offsets, dtype=float))
        if x.shape[1] != self.ambient_dim:
            raise DimensionMismatch(f"kernel {self.name} expects R^{self.ambient_dim}")
        vals = self.components(x)
        return vals if np.asarray(offsets).ndim > 1 else vals[0]


def _cauchy(x: np.ndarray) -> np.ndarray:
    r2 = np.sum(x ** 2, axis=1)
    return np.stack([x[:, 0] / r2, -x[:, 1] / r2], axis=1)


def _riesz(n: int):
    def k(x: np.ndarray) -> np.ndarray:
        r = np.linalg.norm(x, axis=1)
        return x / r[:, None] ** (n + 1)
    return k


def builtin_kernels(n: int = 1, d: int = 2) -> dict[str, Kernel]:
    """Cauchy (n=1, d=2) and Riesz x / |x|^(n+1) kernels.

    Decay constants are hand-derived suprema of |grad^j k| |x|^(n+j): the
    Cauchy kernel needs 2.0 (the second derivative of 1/z has modulus
    2/|z|^3), the Riesz kernel (n+1)(n+3).
    """
    kernels = {"riesz": Kernel("riesz", n, d, _riesz(n), float((n + 1) * (n + 3)))}
    if n == 1 and d == 2:
        kernels["cauchy"] = Kernel("cauchy", 1, 2, _cauchy, 2.0)
    return kernels


@dataclass(frozen=True)
class TruncationGrid:
    """Strictly increasing positive truncation radii."""

    eps: np.ndarray

    def __post_init__(self):
        e = np.asarray(self.eps, dtype=float)
        # each comparison fails on NaN; inf passes once, as its norm of 0 is
        # exact
        if e.ndim != 1 or len(e) == 0 or not e[0] > 0 or not np.all(e[1:] > e[:-1]):
            raise InvalidParams("grid must be strictly increasing and positive, "
                                "without NaN")
        object.__setattr__(self, "eps", e)

    @staticmethod
    def breakpoints(m: DiscreteMeasure, x) -> "TruncationGrid":
        """All truncation values the transform at x can distinguish.

        Half the smallest positive distance plus every distinct distance, so
        the maximum over this grid is the exact supremum.
        """
        d = np.unique(m.distances_from(x))
        d = d[d > 0]
        if len(d) == 0:
            return TruncationGrid(np.array([1.0]))
        return TruncationGrid(np.concatenate(([d[0] / 2], d)))

    @staticmethod
    def log_spaced(m: DiscreteMeasure, count: int = 64) -> "TruncationGrid":
        """``count`` geometric radii from the smallest distance between
        distinct atom locations to the diameter, both from one pass of
        ``geometry.pair_extremes``; ``[1.]`` when the two are equal or
        every atom sits at one point."""
        if count < 1:
            raise InvalidParams("a log-spaced grid needs at least one radius")
        _, lo, hi = geometry.pair_extremes(m.points)
        if not lo < hi:
            return TruncationGrid(np.array([1.0]))
        return TruncationGrid(np.geomspace(lo, hi, count))


def maximal_transform(m: DiscreteMeasure, kernel: Kernel, grid: TruncationGrid, x) -> float:
    """Max over the grid of |T_eps(x)|; exact sup for breakpoint grids.

    One stable sort of the distances and a reverse cumulative sum of the
    weighted kernel vectors give T_eps(x) for every eps at once: the atoms
    with distance > eps are a suffix of the sorted order, so tied atoms drop
    together.  O(N log N) plus a binary search per grid value.
    """
    d = m.distances_from(x)
    x = np.asarray(x, dtype=float)
    order = np.argsort(d, kind="stable")
    order = order[d[order] > 0]
    if len(order) == 0:
        return 0.0
    vals = m.weights[order][:, None] * kernel(m.points[order] - x[None, :])
    suffix = np.zeros((len(order) + 1, vals.shape[1]))
    suffix[:-1] = np.cumsum(vals[::-1], axis=0)[::-1]
    first = np.searchsorted(d[order], grid.eps, side="right")
    return float(np.max(np.linalg.norm(suffix[first], axis=1)))


def _components(kernel: Kernel) -> int:
    return kernel(np.ones((1, kernel.ambient_dim))).shape[1]


def _tiles(n: int):
    """Square tiles (rows, cols) of the pair table that cover its upper
    triangle, each of at most ``geometry.PAIR_BLOCK // 4`` pairs (128 x 128),
    the cone sweeps' budget."""
    side = isqrt(geometry.PAIR_BLOCK // 4)
    for r0 in range(0, n, side):
        for c0 in range(r0, n, side):
            yield slice(r0, min(n, r0 + side)), slice(c0, min(n, c0 + side))


def _tile_offsets(coords: np.ndarray, rows: slice, cols: slice):
    """The owned offsets z_j - z_i of a tile as an (M, d) array, the tile's
    distances, and the mask of the owned pairs: i < j at distinct locations.
    ``coords`` is the (d, N) transpose of the points; each coordinate plane
    c[None, cols] - c[rows, None] is formed again to gather its owned
    entries, which is cheaper than gathering rows of the points."""
    dist = geometry.square_lengths(coords[:, rows], coords[:, cols])
    np.sqrt(dist, out=dist)
    own = dist > 0
    if rows.start == cols.start:
        own = np.triu(own, 1)
    offsets = np.empty((np.count_nonzero(own), len(coords)))
    for k, c in enumerate(coords):
        offsets[:, k] = (c[None, cols] - c[rows, None])[own]
    return offsets, dist, own


def _check_odd(kernel: Kernel, pts: np.ndarray) -> None:
    """Refuse a kernel unless k(-x) == -k(x) bit for bit on the offsets of
    the first ``isqrt(geometry.PAIR_BLOCK)`` atoms (256 x 256 pairs): the
    packed operator stores one value per pair and negates it for the pair's
    other end."""
    first = slice(0, min(len(pts), isqrt(geometry.PAIR_BLOCK)))
    x, _, _ = _tile_offsets(np.ascontiguousarray(pts[first].T), first, first)
    if len(x) and not np.array_equal(kernel(-x), -kernel(x)):
        raise InvalidParams(f"kernel {kernel.name} is not odd: k(-x) != -k(x) "
                            "at some offset of the cloud")


def _interaction_stack(m: DiscreteMeasure, kernel: Kernel, grid: TruncationGrid):
    """The weighted kernel blocks K_c = D^1/2 [k_c(z_j - z_i)] D^1/2 packed two
    to an array, and the truncation index of every pair.

    An odd kernel makes each K_c antisymmetric.  Fortran-ordered array p holds
    K_2p in its strict upper triangle and K_2p+1 in its strict lower triangle
    over a zero diagonal; with an odd component count the last lower triangle
    stays zero.  The kernel is evaluated once per pair i < j, at z_j - z_i, in
    the square tiles of ``_tiles``, whose distances come from coordinate
    planes: sw_i k_c sw_j is K_c[i, j], and its exact negation is K_c[j, i].
    ``idx[i, j]`` is the first grid position whose truncation drops the pair
    (|z_j - z_i| <= eps), in the smallest unsigned dtype that holds
    ``len(grid.eps)``; coincident atoms and the diagonal read 0.
    """
    coords = np.ascontiguousarray(m.points.T)
    n = m.size
    comps = _components(kernel)
    packed = [np.zeros((n, n), order="F") for _ in range((comps + 1) // 2)]
    idx = np.empty((n, n), dtype=np.min_scalar_type(len(grid.eps)), order="F")
    sw = np.sqrt(m.weights)
    for rows, cols in _tiles(n):
        offsets, dist, own = _tile_offsets(coords, rows, cols)
        first = np.searchsorted(grid.eps, dist, side="left")
        idx[rows, cols] = first
        idx[cols, rows] = first.T
        vals = kernel(offsets)
        for comp in range(comps):
            blk = np.zeros(dist.shape)
            blk[own] = vals[:, comp]
            blk *= sw[rows, None]
            blk *= sw[None, cols]
            # On a diagonal tile both writes cover one square, and each
            # leaves the other's triangle at zero, so they add.
            if comp % 2 == 0:
                packed[comp // 2][rows, cols] += blk
            else:
                packed[comp // 2][cols, rows] -= blk.T
    return packed, idx


def _normal_operator(packed: list, comps: int) -> Callable[[np.ndarray], np.ndarray]:
    """v -> B^T B v = -sum_c K_c (K_c v) for the antisymmetric blocks K_c
    packed by ``_interaction_stack``.  With T the triangle of
    ``packed[c // 2]`` that holds K_c (upper for even c), K_c v = T v - T^T v:
    two triangular BLAS products, each reading the Fortran-ordered array in
    place.  The arrays are read at each application, so truncating them in
    place truncates the operator."""
    from scipy.linalg.blas import dtrmv

    def normal(v: np.ndarray) -> np.ndarray:
        out = np.zeros_like(v)
        for comp in range(comps):
            P, lower = packed[comp // 2], comp % 2
            kv = dtrmv(P, v, lower=lower) - dtrmv(P, v, lower=lower, trans=1)
            out -= dtrmv(P, kv, lower=lower) - dtrmv(P, kv, lower=lower, trans=1)
        return out
    return normal


def _top_singular(normal: Callable[[np.ndarray], np.ndarray], tol: float,
                  max_iter: int, start: np.ndarray):
    """Top singular value of B by Lanczos on ``normal``, v -> B^T B v, fully
    reorthogonalised.

    Each step applies ``normal`` once and orthogonalises against the basis
    twice; the top Ritz pair (theta, y) of the tridiagonal has residual
    |B^T B y - theta y| = beta_j |s_j|.  The run stops once that is at most
    tol * theta: some eigenvalue of B^T B then lies within tol * theta of
    theta (Parlett), so sigma = sqrt(theta) is within about tol / 2.  After
    ``max_iter`` applications without that, the Ritz value, a lower bound on
    sigma^2, is returned as stalled.  Returns (sigma, Ritz vector, steps,
    residual / theta, stalled).
    """
    from scipy.linalg import eigh_tridiagonal
    n = len(start)
    basis = np.empty((min(max_iter, n), n))
    alpha, beta = [], []
    q = start / np.linalg.norm(start)
    for j in range(len(basis)):
        basis[j] = q
        w = normal(q)
        Q = basis[:j + 1]
        h = Q @ w
        w -= h @ Q
        w -= (Q @ w) @ Q
        alpha.append(h[j])
        b = float(np.linalg.norm(w))
        theta, s = eigh_tridiagonal(np.array(alpha), np.array(beta),
                                    select="i", select_range=(j, j))
        theta, s = float(theta[0]), s[:, 0]
        resid = b * abs(s[-1])
        if resid <= tol * theta:
            break
        beta.append(b)
        q = w / b
    rel = float(resid / theta) if theta > 0 else 0.0
    return (float(np.sqrt(max(theta, 0.0))), s @ Q, j + 1, rel,
            not resid <= tol * theta)


@dataclass(frozen=True)
class OperatorNormResult:
    """``iterations`` counts applications of B^T B; ``residual`` is the
    Ritz residual relative to sigma^2, and ``stalled`` marks a norm whose
    residual missed ``tol`` within ``max_iter`` applications."""

    norm: float
    eps: float
    iterations: int
    stalled: bool
    residual: float


def operator_norm_profile(m: DiscreteMeasure, kernel: Kernel, grid: TruncationGrid,
                          tol: float = 1e-6, max_iter: int = 500) -> list[OperatorNormResult]:
    """Operator norms along a truncation grid on one packed operator.

    The grid increases, so truncation k zeroes in place the pairs whose index
    is at most k, a superset of the previous truncation's.  Each Lanczos run
    starts from the previous Ritz vector plus a fixed-seed random unit vector:
    the residual certifies an eigenvalue, and the random part makes it the top
    one with high probability.  Once every pair is dropped the norm is 0
    without a solve.  Raises ``TooLarge`` before allocating when the operator
    would exceed ``OPERATOR_BYTE_BUDGET``, and ``InvalidParams`` when ``tol``
    is not finite and positive or the kernel is not odd bit for bit on the
    offsets ``_check_odd`` tests.
    """
    if max_iter < 1:
        raise InvalidParams("max_iter must be at least 1")
    if not (np.isfinite(tol) and tol > 0):
        raise InvalidParams("tol must be finite and positive")
    n = m.size
    comps = _components(kernel)
    index_bytes = np.min_scalar_type(len(grid.eps)).itemsize
    # Peak beyond a fixed tile scratch: the packed arrays at 8 B per pair for
    # two components, the truncation index, the drop mask at 1 B per
    # pair, and the Lanczos basis.
    need = (8 * ((comps + 1) // 2) + index_bytes + 1) * n * n + 8 * min(max_iter, n) * n
    if need > OPERATOR_BYTE_BUDGET:
        raise TooLarge(f"an N={n} operator needs {need / 2 ** 30:.1f} GiB, over the "
                       f"{OPERATOR_BYTE_BUDGET / 2 ** 30:.0f} GiB budget")
    _check_odd(kernel, m.points)
    packed, idx = _interaction_stack(m, kernel, grid)
    normal = _normal_operator(packed, comps)
    # every pair is dropped from this grid position on
    reach = int(idx.max())
    rng = np.random.default_rng(0)
    ritz = np.zeros(n)
    out = []
    for k, eps in enumerate(grid.eps):
        if k >= reach:
            out.append(OperatorNormResult(0.0, float(eps), 0, False, 0.0))
            continue
        for P in packed:
            # one drop mask alive at a time: 1 B per pair
            P[idx <= k] = 0.0
        g = rng.standard_normal(n)
        sigma, ritz, iters, resid, stalled = _top_singular(
            normal, tol, max_iter, ritz + g / np.linalg.norm(g))
        out.append(OperatorNormResult(sigma, float(eps), iters, stalled, resid))
    return out


def norm_vs_generation(measure_factory: Callable[[int], DiscreteMeasure],
                       kernel: Kernel, generations, grid_cap: int = 64,
                       tol: float = 1e-6, max_iter: int = 500) -> dict:
    """Sup-over-grid operator norms per generation with a trend statistic.

    A row is ``certified`` when no truncation of its profile stalled, so its
    ``sup_norm`` is a maximum of certified norms; ``all_certified`` says so
    of every row.
    """
    rows = []
    for g in generations:
        m = measure_factory(g)
        grid = TruncationGrid.log_spaced(m, grid_cap)
        profile = operator_norm_profile(m, kernel, grid, tol, max_iter)
        best = max(profile, key=lambda r: r.norm)
        rows.append({
            "generation": g,
            "atoms": m.size,
            "sup_norm": best.norm,
            "argmax_eps": best.eps,
            "grid_size": len(grid.eps),
            "stalled": sum(1 for r in profile if r.stalled),
            "certified": not any(r.stalled for r in profile),
        })
    sups = [r["sup_norm"] for r in rows]
    fit_slope = 0.0
    if len(sups) > 1:
        xs = np.arange(len(sups), dtype=float)
        fit_slope = float(np.polyfit(xs, np.asarray(sups), 1)[0])
    return {
        "kernel": kernel.name,
        "rows": rows,
        "strictly_increasing": all(b > a for a, b in zip(sups, sups[1:])),
        "max_over_min": max(sups) / min(sups) if min(sups) > 0 else np.inf,
        "trend_slope": fit_slope,
        "all_certified": all(r["certified"] for r in rows),
    }
