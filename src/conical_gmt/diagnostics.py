"""Flatness diagnostics: best-fit planes, multiscale square functions, shell
counts, the low-density set, and the graph-cover check.

The beta number at (x, r) is the scale-normalized weighted L^2 distance of
the in-ball atoms to the best affine n-plane; weighted PCA around the
in-ball centroid is the exact minimizer, and the centroid lies in the ball,
so the minimizing plane always meets B(x, r).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, EmptyBall, GraphAmbientMismatch, InvalidParams
from .geometry import Plane, SortedIndex, cone_pairs, cone_rows, lengths
from .graphs import LipschitzGraph
from .measure import DiscreteMeasure, sorted_profiles

DEGENERATE_GAP = 1e-12
_CIRCLE_SAMPLES = 2048


@dataclass(frozen=True)
class BetaResult:
    center: np.ndarray
    radius: float
    beta: float
    base_point: np.ndarray   # a point on the minimizing affine plane
    plane: Plane
    degenerate: bool
    ball_mass: float


def beta2(m: DiscreteMeasure, x, r: float) -> BetaResult:
    """Weighted total-least-squares beta number with its minimizing plane."""
    x = np.asarray(x, dtype=float)
    idx = m.ball_indices(x, r)
    if len(idx) == 0:
        raise EmptyBall(f"no atoms in B({x.tolist()}, {r})")
    pts = m.points[idx]
    w = m.weights[idx]
    mass = float(np.sum(w))
    centroid = np.sum(pts * w[:, None], axis=0) / mass
    diff = pts - centroid[None, :]
    moments = (diff * w[:, None]).T @ diff
    evals, evecs = np.linalg.eigh(moments)  # ascending
    n = m.dim_param
    d = m.ambient_dim
    top = evecs[:, d - n:].T[::-1]
    residual = float(np.sum(evals[:d - n]))
    kept = evals[d - n]
    dropped = evals[d - n - 1]
    beta = math.sqrt(max(residual, 0.0) / r ** (n + 2))
    return BetaResult(x, float(r), beta, centroid, Plane(top),
                      degenerate=abs(kept - dropped) <= DEGENERATE_GAP,
                      ball_mass=mass)


def beta_square_function(m: DiscreteMeasure, x, scale_grid) -> dict:
    """Left-endpoint Riemann sum of beta^2 dr/r along a decreasing grid.

    Scales whose ball is empty contribute zero.
    """
    scales = np.asarray(scale_grid, dtype=float)
    if scales.ndim != 1 or len(scales) < 2 or np.any(np.diff(scales) >= 0):
        raise InvalidParams("need a strictly decreasing grid of >= 2 scales")
    betas = np.zeros(len(scales))
    for i, r in enumerate(scales):
        try:
            betas[i] = beta2(m, x, r).beta
        except EmptyBall:
            betas[i] = 0.0
    return {"scales": scales.tolist(), "betas": betas.tolist(),
            "total": beta_square_sum(scales, betas)}


def beta_square_sum(scales, betas) -> float:
    """sum_i beta_i^2 log(r_i / r_{i+1}) over a strictly decreasing grid of
    scales r_i with their beta numbers: the left-endpoint Riemann sum."""
    scales, betas = np.asarray(scales, dtype=float), np.asarray(betas, dtype=float)
    return float(np.sum(betas[:-1] ** 2 * np.log(scales[:-1] / scales[1:])))


def _shell_indices(t: np.ndarray) -> np.ndarray:
    """The unique j with 2^-j <= t < 2^-(j-1), for each t > 0.

    ``frexp`` writes t = f 2^e with 1/2 <= f < 1 exactly, so j = 1 - e."""
    return 1 - np.frexp(t)[1]


def theta_m_property(points, direction: Plane, theta: float) -> np.ndarray:
    """Exact dyadic-shell counts: for each x, the number of integers j such
    that the theta-cone at x restricted to the shell [2^-j, 2^-j+1) meets the
    other points.

    One ``cone_pairs`` sweep marks each in-cone pair's shell for both ends in
    an (atoms x shells) table; the vertex itself has distance 0 and is never
    in the cone."""
    if not 0 < theta < 1:
        raise InvalidParams("theta must lie in (0, 1)")
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[1] != direction.ambient_dim:
        raise DimensionMismatch("points and plane dimensions differ")
    hit = np.zeros((len(pts), 0), dtype=bool)   # column c is shell j = lo + c
    lo = 0
    for i0, mask, dist in cone_pairs(pts, direction, theta):
        pair = np.flatnonzero(mask)             # strip positions r * width + c
        if len(pair) == 0:
            continue
        j = _shell_indices(dist.ravel()[pair])
        if hit.shape[1] == 0:
            lo = int(j.min())
        # widen the table to shells lo_new <= j < hi, once per strip
        lo_new, hi = min(lo, int(j.min())), max(lo + hit.shape[1], int(j.max()) + 1)
        if lo_new < lo or hi > lo + hit.shape[1]:
            hit = np.pad(hit, ((0, 0), (lo - lo_new, hi - lo - hit.shape[1])))
            lo = lo_new
        j -= lo
        # the pair at strip position r * width + c joins atoms i0 + r and
        # i0 + 1 + c; each end marks its table entry atom * shells + j
        rows, width = mask.shape
        r = np.repeat(np.arange(rows), np.count_nonzero(mask, axis=1))
        c = pair - r * width
        table, shells = hit.reshape(-1), hit.shape[1]
        for atom in (r + i0, c + i0 + 1):
            atom *= shells
            atom += j
            table[atom] = True
    return np.count_nonzero(hit, axis=1)


def f_epsilon_set(m: DiscreteMeasure, eps: float, r_grid=None) -> np.ndarray:
    """Atoms with mu(B(x, r)) <= eps r^n for some tested radius r in (0, 1].

    With no grid supplied the per-atom breakpoint radii (every atom distance
    in (0, 1] plus 1 itself) are used, making the existential exact.
    """
    if not eps > 0:
        raise InvalidParams("eps must be positive")
    n = m.dim_param
    explicit = None
    if r_grid is not None:
        explicit = np.asarray(r_grid, dtype=float)
        if np.any(explicit <= 0) or np.any(explicit > 1):
            raise InvalidParams("grid radii must lie in (0, 1]")
    out = []
    for rows, ds, cum in sorted_profiles(m, m.points):
        # before[:, j] is mu(B(x, ds[:, j])) at the first position of a run of
        # equal distances and more at its later ones, so every position may
        # be tested
        before = np.zeros((len(ds), m.size + 1))
        before[:, 1:] = cum
        if explicit is None:
            low = (ds > 0) & (ds <= 1.0) & (before[:, :-1] <= eps * ds ** n)
            # and r = 1 itself: the mass of the distances below it
            at_one = before[np.arange(len(ds)), np.count_nonzero(ds < 1.0, axis=1)]
            low = low.any(axis=1) | (at_one <= eps)
        else:
            mass = np.array([b[np.searchsorted(d, explicit, side="left")]
                             for d, b in zip(ds, before)])
            low = np.any(mass <= eps * explicit ** n, axis=1)
        out.append(rows.start + np.flatnonzero(low))
    return np.concatenate(out)


def necessary_bplg_cover(m: DiscreteMeasure, graph: LipschitzGraph,
                         aperture: float | None = None) -> dict:
    """Greedy disjoint ball cover of off-graph atoms with cone-void checks.

    Balls B_x = B(x, 0.01 dist(x, graph samples)) are thinned greedily by
    decreasing radius into a disjoint family whose 5-dilates cover every
    off-graph atom; the report carries sum r_j^n against the covered mass and
    verifies, atom against sample, that each ball's union cone truncated
    below its radius misses the graph samples.
    """
    if graph.ambient_dim != m.ambient_dim:
        raise GraphAmbientMismatch("graph and measure ambient dimensions differ")
    lip = graph.lip_measured
    theta = 1.0 / math.sqrt(1.0 + lip * lip)
    if aperture is None:
        candidates = [theta / 2.0, 0.1]
        if lip > 0:
            candidates.append(1.0 / (4.0 * lip))
        aperture = min(candidates)
    samples = graph.ambient_anchors()
    sample_index = SortedIndex(samples)
    gdist = sample_index.nearest(m.points)
    off = np.nonzero(gdist > 0)[0]
    radii = 0.01 * gdist[off]

    order = sorted(range(len(off)), key=lambda t: (-radii[t], off[t]))
    centers = np.empty((len(off), m.ambient_dim))
    ch_radii = np.empty(len(off))
    k = 0
    for t in order:
        c, rc = m.points[off[t]], radii[t]
        if np.all(lengths(c - centers[:k]) >= rc + ch_radii[:k]):
            centers[k], ch_radii[k] = c, rc
            k += 1
    centers, ch_radii = centers[:k], ch_radii[:k]

    disjoint = not any(
        np.any(lengths(centers[a] - centers[a + 1:]) < ch_radii[a] + ch_radii[a + 1:])
        for a in range(k - 1))

    # the 5-dilates are asked in one family call: each flags the atoms it
    # covers and lists the atoms y whose cone below rc must miss the samples;
    # only samples in B(y, rc) can be in that cone, and the ball and the cone
    # measure |s - y| alike, so those balls are one family too, and the cone
    # test of their samples needs no radius
    covered = np.zeros(m.size, dtype=bool)
    near = list(m.balls(centers, 5 * ch_radii))
    owner = np.repeat(np.arange(k), [len(idx) for idx in near])
    near = np.concatenate(near) if near else np.empty(0, dtype=int)
    covered[near] = True
    cone_violations = []
    for j, y_idx, cand in zip(owner, near, sample_index.balls(m.points[near], ch_radii[owner])):
        if len(cand) and next(cone_rows(samples[cand], m.points[y_idx][None],
                                        graph.normal, aperture))[1].any():
            cone_violations.append((int(j), int(y_idx)))

    n = m.dim_param
    sum_rn = float(np.sum(ch_radii ** n))
    sum_mass = float(sum(float(np.sum(m.weights[idx])) for idx in m.balls(centers, ch_radii)))
    return {
        "aperture": aperture,
        "theta": theta,
        "lip": lip,
        "off_graph_atoms": int(len(off)),
        "chosen_balls": k,
        "disjoint": disjoint,
        "all_covered": bool(np.all(covered[off])),
        "sum_radii_n": sum_rn,
        "sum_ball_mass": sum_mass,
        "ratio": sum_rn / sum_mass if sum_mass > 0 else 0.0,
        "cone_violations": cone_violations,
    }
