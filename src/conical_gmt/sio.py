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
its strict upper triangle holds it: one buffer of panels, 128 rows of every
component's triangle each, with numpy's matrix-vector products over them,
and an unsigned index per pair (one byte up to 255 truncations) names the
first truncation that drops it.  Every norm carries its Ritz residual, which
bounds its error, and a cap on the applications of B^T B; a norm whose
residual misses the tolerance within the cap is flagged as stalled.  The
module runs on numpy alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt
from typing import Callable

import numpy as np

from . import geometry
from .errors import DimensionMismatch, InvalidParams, TooLarge
from .measure import DiscreteMeasure

# Largest operator-norm profile allowed, in bytes: about N = 15,100 atoms for
# a two-component kernel and 12,600 for a three-component one.
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


def _block_rows(n: int) -> list[tuple[int, int]]:
    """Block rows (r0, r1) of the pair table, ``isqrt(geometry.PAIR_BLOCK // 4)``
    (128) rows each and fewer in the last: the rows of the operator's panels,
    whose square tiles of at most ``geometry.PAIR_BLOCK // 4`` pairs are the
    cone sweeps' budget."""
    side = isqrt(geometry.PAIR_BLOCK // 4)
    return [(r0, min(n, r0 + side)) for r0 in range(0, n, side)]


def _panel_pairs(n: int) -> int:
    """Entries of one component's panels: (r1 - r0) x (N - r0) per block row."""
    return sum((r1 - r0) * (n - r0) for r0, r1 in _block_rows(n))


def _panels(buf: np.ndarray, n: int, comps: int) -> list:
    """(r0, panel) per block row: the C-ordered (comps, r1 - r0, N - r0) view
    of ``buf`` holding rows r0:r1 of every U_c from column r0 on (see
    ``_interaction_stack``), the panels laid end to end."""
    out, at = [], 0
    for r0, r1 in _block_rows(n):
        size = comps * (r1 - r0) * (n - r0)
        out.append((r0, buf[at:at + size].reshape(comps, r1 - r0, n - r0)))
        at += size
    return out


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
    panels store one value per pair i < j, and the product negates it for
    the pair's other end."""
    first = slice(0, min(len(pts), isqrt(geometry.PAIR_BLOCK)))
    x, _, _ = _tile_offsets(np.ascontiguousarray(pts[first].T), first, first)
    if len(x) and not np.array_equal(kernel(-x), -kernel(x)):
        raise InvalidParams(f"kernel {kernel.name} is not odd: k(-x) != -k(x) "
                            "at some offset of the cloud")


def _stack_bytes(n: int, comps: int, grid_size: int) -> int:
    """Bytes of ``_interaction_stack``'s result: the panels at 8 B per
    component and entry, and the N x N truncation index."""
    return 8 * comps * _panel_pairs(n) + np.min_scalar_type(grid_size).itemsize * n * n


def _operator_bytes(n: int, comps: int, grid_size: int, max_iter: int) -> int:
    """Peak bytes of an operator-norm profile beyond a fixed tile scratch:
    the stack, one panel's drop mask at 1 B per pair, the Lanczos basis, and
    the Ritz solve's tridiagonal, eigenvectors and LAPACK workspace, about
    32 B per step squared."""
    steps = min(max_iter, n)
    return (_stack_bytes(n, comps, grid_size) + isqrt(geometry.PAIR_BLOCK // 4) * n
            + 8 * steps * n + 32 * steps * steps)


def _interaction_stack(m: DiscreteMeasure, kernel: Kernel, grid: TruncationGrid):
    """The weighted kernel blocks K_c = D^1/2 [k_c(z_j - z_i)] D^1/2 as one
    buffer of panels, in a one-element list, and the truncation index of
    every pair.

    An odd kernel makes each K_c antisymmetric, so its strict upper triangle
    U_c holds it: K_c = U_c - U_c^T.  ``_panels`` cuts the buffer into one
    panel per block row of ``_block_rows``, holding rows r0:r1 of every U_c
    from column r0 on; the lower triangle of its leading square stays zero.
    The kernel is evaluated once per pair i < j, at z_j - z_i, in square
    tiles that cut each block row into columns of its height, whose
    distances come from coordinate planes: sw_i k_c sw_j is U_c[i, j].  ``idx[i, j]`` is the first grid position
    whose truncation drops the pair (|z_j - z_i| <= eps), in the smallest
    unsigned dtype that holds ``len(grid.eps)``; coincident atoms and the
    diagonal read 0.
    """
    coords = np.ascontiguousarray(m.points.T)
    n = m.size
    comps = _components(kernel)
    buf = np.zeros(comps * _panel_pairs(n))
    idx = np.empty((n, n), dtype=np.min_scalar_type(len(grid.eps)))
    sw = np.sqrt(m.weights)
    for r0, p in _panels(buf, n, comps):
        rows = slice(r0, r0 + p.shape[1])
        for c0 in range(r0, n, p.shape[1]):
            cols = slice(c0, min(n, c0 + p.shape[1]))
            offsets, dist, own = _tile_offsets(coords, rows, cols)
            first = np.searchsorted(grid.eps, dist, side="left")
            idx[rows, cols] = first
            idx[cols, rows] = first.T
            tile = p[:, :, c0 - r0:cols.stop - r0]
            for blk, vals in zip(tile, kernel(offsets).T):
                blk[own] = vals
            tile *= sw[rows, None]
            tile *= sw[None, cols]
    return [buf], idx


def _truncate(panels: list, idx: np.ndarray, k: int) -> None:
    """Zero in place the pairs whose truncation index is at most k; one
    panel's drop mask is alive at a time."""
    for r0, p in panels:
        np.copyto(p, 0.0, where=idx[r0:r0 + p.shape[1], r0:] <= k)


def _normal_operator(panels: list, n: int) -> Callable[[np.ndarray], np.ndarray]:
    """v -> B^T B v = -sum_c K_c (K_c v) for the antisymmetric blocks K_c in
    the ``_panels`` of ``_interaction_stack``.  K_c x = U_c x - U_c^T x takes
    two matrix-vector products per panel and component: p_c x[r0:] for rows
    r0:r1 and x[r0:r1] p_c for the columns from r0 on.  The panels are read
    at each application, so truncating them in place truncates the
    operator."""
    comps = len(panels[0][1])
    # (r0, r1, component, its rows of the panel), listed once: the Python
    # work per product is a fair share of a product at N = 1,024
    blocks = [(r0, r0 + p.shape[1], c, pc) for r0, p in panels for c, pc in enumerate(p)]

    def normal(v: np.ndarray) -> np.ndarray:
        kv = np.zeros((comps, n))
        for r0, r1, c, pc in blocks:
            y = kv[c]
            y[r0:r1] += pc @ v[r0:]
            y[r0:] -= v[r0:r1] @ pc
        out = np.zeros(n)
        for r0, r1, c, pc in blocks:
            x = kv[c]
            out[r0:r1] -= pc @ x[r0:]
            out[r0:] += x[r0:r1] @ pc
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
    theta (Parlett), so sigma = sqrt(theta) is within about tol / 2.  The
    Ritz pair comes from a dense symmetric eigensolve, O(j^3) at step j, so
    it is checked at each of the first 64 steps, then at steps growing by
    about 1/8, at the cap, and at any step whose beta_j alone certifies
    (theta is at least every diagonal entry, so beta_j <= tol * max alpha
    implies the stop).  After ``max_iter`` applications without the stop,
    the Ritz value, a lower bound on sigma^2, is returned as stalled.
    Returns (sigma, Ritz vector, steps, residual / theta, stalled).
    """
    n = len(start)
    basis = np.empty((min(max_iter, n), n))
    alpha, beta = [], []
    q = start / np.linalg.norm(start)
    check = 1
    for j in range(len(basis)):
        basis[j] = q
        w = normal(q)
        Q = basis[:j + 1]
        h = Q @ w
        w -= h @ Q
        w -= (Q @ w) @ Q
        alpha.append(h[j])
        b = float(np.linalg.norm(w))
        steps = j + 1
        if steps >= check or steps == len(basis) or b <= tol * max(alpha):
            theta, S = np.linalg.eigh(np.diag(alpha) + np.diag(beta, -1))
            theta, s = float(theta[-1]), S[:, -1]
            resid = b * abs(s[-1])
            if resid <= tol * theta:
                break
            check = steps + 1 if steps < 64 else steps + steps // 8
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
    """Operator norms along a truncation grid on one panel operator.

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
    need = _operator_bytes(n, comps, len(grid.eps), max_iter)
    if need > OPERATOR_BYTE_BUDGET:
        raise TooLarge(f"an N={n} operator needs {need / 2 ** 30:.1f} GiB, over the "
                       f"{OPERATOR_BYTE_BUDGET / 2 ** 30:.0f} GiB budget")
    _check_odd(kernel, m.points)
    (buf,), idx = _interaction_stack(m, kernel, grid)
    panels = _panels(buf, n, comps)
    normal = _normal_operator(panels, n)
    # every pair is dropped from this grid position on
    reach = int(idx.max())
    rng = np.random.default_rng(0)
    ritz = np.zeros(n)
    out = []
    for k, eps in enumerate(grid.eps):
        if k >= reach:
            out.append(OperatorNormResult(0.0, float(eps), 0, False, 0.0))
            continue
        _truncate(panels, idx, k)
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
