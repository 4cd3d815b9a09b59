"""Flatness and tangent diagnostics: best-fit planes, multiscale square
functions, conical density profiles, shell counts, and the graph-cover check.

The beta number at (x, r) is the scale-normalized weighted L^2 distance of
the in-ball atoms to the best affine n-plane; weighted PCA around the
in-ball centroid is the exact minimizer, and the centroid lies in the ball,
so the minimizing plane always meets B(x, r).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .errors import (DimensionMismatch, EmptyBall, GraphAmbientMismatch,
                     InvalidEta, InvalidParams, UnsupportedDimension)
from .geometry import Plane, _row_norms, cone_mask, cone_pairs
from .graphs import LipschitzGraph
from .measure import _QUERY_SLACK, DiscreteMeasure, ball_mass, sorted_mass

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
    gaps = np.log(scales[:-1] / scales[1:])
    total = float(np.sum(betas[:-1] ** 2 * gaps))
    return {"scales": scales.tolist(), "betas": betas.tolist(), "total": total}


def _plane_ball_cap(base: np.ndarray, plane: Plane, center: np.ndarray, r: float):
    """Center and radius of (affine plane) cap (closed ball), or None."""
    rel = center - base
    par = (rel @ plane.basis.T) @ plane.basis
    foot = base + par
    h = float(np.linalg.norm(center - foot))
    if h > r:
        return None
    return foot, math.sqrt(max(r * r - h * h, 0.0))


def _dist_point_segment(q: np.ndarray, a: np.ndarray, b: np.ndarray) -> float:
    ab = b - a
    denom = float(ab @ ab)
    if denom == 0:
        return float(np.linalg.norm(q - a))
    t = float((q - a) @ ab) / denom
    t = min(max(t, 0.0), 1.0)
    return float(np.linalg.norm(q - (a + t * ab)))


def _dist_points_disk(qs: np.ndarray, foot: np.ndarray, plane: Plane, rho: float) -> np.ndarray:
    rel = qs - foot[None, :]
    coords = rel @ plane.basis.T
    radial = np.linalg.norm(coords, axis=1)
    clamp = np.minimum(1.0, np.divide(rho, radial, out=np.ones_like(radial),
                                      where=radial > 0))
    closest = foot[None, :] + (coords * clamp[:, None]) @ plane.basis
    return np.linalg.norm(qs - closest, axis=1)


def hausdorff_plane_sections(base_a, plane_a: Plane, base_b, plane_b: Plane,
                             center, r: float) -> float:
    """Hausdorff distance between two affine-plane sections of a closed ball.

    Closed form for lines (segments); dense boundary sampling for 2-planes
    (sampling error well below 1e-3 r); higher section dimensions are not
    supported.
    """
    n = plane_a.dim
    if plane_b.dim != n:
        raise DimensionMismatch("sections have different dimensions")
    if n > 2:
        raise UnsupportedDimension("Hausdorff profiles support n <= 2 only")
    center = np.asarray(center, dtype=float)
    cap_a = _plane_ball_cap(np.asarray(base_a, float), plane_a, center, r)
    cap_b = _plane_ball_cap(np.asarray(base_b, float), plane_b, center, r)
    if cap_a is None and cap_b is None:
        return 0.0
    if cap_a is None or cap_b is None:
        return math.inf
    (foot_a, rho_a), (foot_b, rho_b) = cap_a, cap_b

    if n == 1:
        ua = plane_a.basis[0]
        ub = plane_b.basis[0]
        a1, a2 = foot_a - rho_a * ua, foot_a + rho_a * ua
        b1, b2 = foot_b - rho_b * ub, foot_b + rho_b * ub
        d_ab = max(_dist_point_segment(a1, b1, b2), _dist_point_segment(a2, b1, b2))
        d_ba = max(_dist_point_segment(b1, a1, a2), _dist_point_segment(b2, a1, a2))
        return max(d_ab, d_ba)

    theta = np.linspace(0.0, 2 * math.pi, _CIRCLE_SAMPLES, endpoint=False)
    ring = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    bd_a = foot_a[None, :] + (rho_a * ring) @ plane_a.basis
    bd_b = foot_b[None, :] + (rho_b * ring) @ plane_b.basis
    d_ab = float(np.max(_dist_points_disk(bd_a, foot_b, plane_b, rho_b)))
    d_ba = float(np.max(_dist_points_disk(bd_b, foot_a, plane_a, rho_a)))
    return max(d_ab, d_ba)


def tangent_convergence(m: DiscreteMeasure, x, scale_grid) -> dict:
    """Normalized Hausdorff gap between per-scale minimizers and the
    finest-scale minimizer (the tangent surrogate, named in the report)."""
    scales = np.asarray(scale_grid, dtype=float)
    if scales.ndim != 1 or len(scales) < 3 or np.any(np.diff(scales) >= 0):
        raise InvalidParams("need a strictly decreasing grid of >= 3 scales")
    if m.dim_param > 2:
        raise UnsupportedDimension("tangent profiles support n <= 2 only")
    x = np.asarray(x, dtype=float)
    finest = beta2(m, x, scales[-1])
    values = []
    for r in scales:
        fit = beta2(m, x, r)
        gap = hausdorff_plane_sections(fit.base_point, fit.plane,
                                       finest.base_point, finest.plane, x, r)
        values.append(gap / r)
    ratio = values[-1] / values[0] if values[0] > 0 else 0.0
    return {"scales": scales.tolist(), "values": values,
            "surrogate_scale": float(scales[-1]), "last_over_first": ratio}


def conical_density_profile(m: DiscreteMeasure, x, tangent: Plane, aperture: float,
                            scale_grid, epsilon_n: float | None = None,
                            upper_density: float | None = None) -> dict:
    """mu(K(x, W^perp, alpha, r)) / r^n along a decreasing grid of scales.

    When a dimensional constant ``epsilon_n`` and an upper-density surrogate
    are supplied, the finest-scale value is also compared against the
    threshold alpha^n * epsilon_n * upper_density; the constant has no
    canonical value and is always user input.
    """
    if tangent.dim != m.dim_param:
        raise InvalidParams("tangent plane must have dimension n")
    scales = np.asarray(scale_grid, dtype=float)
    if scales.ndim != 1 or len(scales) < 1 or np.any(np.diff(scales) >= 0):
        raise InvalidParams("need a strictly decreasing grid of scales")
    from .geometry import Cone
    from .measure import cone_mass
    direction = tangent.complement()
    x = np.asarray(x, dtype=float)
    vals = []
    for r in scales:
        c = Cone(x, direction, aperture, 0.0, float(r))
        vals.append(cone_mass(m, c) / r ** m.dim_param)
    ratio = vals[-1] / vals[0] if vals[0] > 0 else 0.0
    out = {"scales": scales.tolist(), "values": vals, "last_over_first": ratio}
    if epsilon_n is not None and upper_density is not None:
        threshold = aperture ** m.dim_param * epsilon_n * upper_density
        out["threshold"] = threshold
        out["finest_below_threshold"] = vals[-1] < threshold
    return out


def cone_outside_tube_check(x, r: float, tangent: Plane, tube_base, tube_plane: Plane,
                            aperture: float, eps: float, samples: int = 1000,
                            seed: int = 0) -> dict:
    """Monte-Carlo containment: the truncated cone shell around the tangent's
    normal must avoid the eta r tube of a nearby plane.

    The hypothesis (section Hausdorff distance <= eps r) is checked first;
    when it fails the containment test is skipped and reported as such.
    Requires eta = 1 - alpha - 3 eps > 0.
    """
    eta = 1.0 - aperture - 3.0 * eps
    if not eta > 0:
        raise InvalidEta("need 1 - alpha - 3 eps > 0")
    x = np.asarray(x, dtype=float)
    gap = hausdorff_plane_sections(x, tangent, np.asarray(tube_base, float),
                                   tube_plane, x, r)
    if gap > eps * r:
        return {"hypothesis_ok": False, "eta": eta, "section_gap": gap,
                "passed": None, "violations": 0, "samples": 0, "witness": None}
    rng = np.random.default_rng(seed)
    d = tangent.ambient_dim
    normal = tangent.complement()

    def unit_in(plane: Plane, count: int) -> np.ndarray:
        g = rng.standard_normal((count, plane.dim))
        g /= np.linalg.norm(g, axis=1)[:, None]
        return g @ plane.basis

    rho = r * (1.0 + rng.random(samples))            # (r, 2r)
    s = aperture * rng.random(samples)               # in-plane fraction < alpha
    e_tan = unit_in(tangent, samples)
    e_nor = unit_in(normal, samples)
    pts = x[None, :] + rho[:, None] * (s[:, None] * e_tan
                                       + np.sqrt(1 - s ** 2)[:, None] * e_nor)
    rel = pts - np.asarray(tube_base, float)[None, :]
    par = (rel @ tube_plane.basis.T) @ tube_plane.basis
    dist_tube = np.linalg.norm(rel - par, axis=1)
    bad = np.nonzero(dist_tube < eta * r)[0]
    return {
        "hypothesis_ok": True,
        "eta": eta,
        "section_gap": gap,
        "passed": len(bad) == 0,
        "violations": int(len(bad)),
        "samples": samples,
        "witness": pts[bad[0]].tolist() if len(bad) else None,
    }


def _shell_indices(t: np.ndarray) -> np.ndarray:
    """The unique j with 2^-j <= t < 2^-(j-1), for each t > 0.

    ``frexp`` writes t = f 2^e with 1/2 <= f < 1 exactly, so j = 1 - e."""
    return 1 - np.frexp(t)[1]


def theta_m_property(points, direction: Plane, theta: float,
                     per_point: bool = False):
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
    for i, mask, dist in cone_pairs(pts, direction, theta):
        partners = np.flatnonzero(mask)
        if len(partners) == 0:
            continue
        j = _shell_indices(dist[partners])
        if hit.shape[1] == 0:
            lo = int(j.min())
        # widen the table to shells lo_new <= j < hi
        lo_new, hi = min(lo, int(j.min())), max(lo + hit.shape[1], int(j.max()) + 1)
        if lo_new < lo or hi > lo + hit.shape[1]:
            hit = np.pad(hit, ((0, 0), (lo - lo_new, hi - lo - hit.shape[1])))
            lo = lo_new
        hit[i, j - lo] = True
        hit[partners + i + 1, j - lo] = True
    counts = np.count_nonzero(hit, axis=1)
    if per_point:
        return int(counts.max(initial=0)), counts
    return int(counts.max(initial=0))


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
    for i in range(m.size):
        d = m.distances_from(m.points[i])
        if explicit is None:
            radii = np.unique(np.concatenate((d[(d > 0) & (d <= 1.0)], [1.0])))
        else:
            radii = explicit
        ds, cum = sorted_mass(d, m.weights)
        pos = np.searchsorted(ds, radii, side="left")  # strict: atoms with dist < r
        mass = np.where(pos > 0, cum[np.maximum(pos - 1, 0)], 0.0)
        if np.any(mass <= eps * radii ** n):
            out.append(i)
    return np.asarray(out, dtype=int)


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
    sample_tree = cKDTree(samples)
    gdist, _ = sample_tree.query(m.points, k=1)
    off = np.nonzero(gdist > 0)[0]
    radii = 0.01 * gdist[off]

    order = sorted(range(len(off)), key=lambda t: (-radii[t], off[t]))
    centers = np.empty((len(off), m.ambient_dim))
    ch_radii = np.empty(len(off))
    k = 0
    for t in order:
        c, rc = m.points[off[t]], radii[t]
        if np.all(_row_norms(c - centers[:k]) >= rc + ch_radii[:k]):
            centers[k], ch_radii[k] = c, rc
            k += 1
    centers, ch_radii = centers[:k], ch_radii[:k]

    disjoint = not any(
        np.any(_row_norms(centers[a] - centers[a + 1:]) < ch_radii[a] + ch_radii[a + 1:])
        for a in range(k - 1))

    # each 5-dilate is asked once: it flags the atoms it covers and lists the
    # atoms whose cone below rc must miss the samples; only samples the KD
    # prefilter puts within rc can be in that cone
    covered = np.zeros(m.size, dtype=bool)
    cone_violations = []
    for j, (c, rc) in enumerate(zip(centers, ch_radii)):
        near = m.ball_indices(c, 5 * rc)
        covered[near] = True
        for y_idx in near:
            y = m.points[y_idx]
            cand = sample_tree.query_ball_point(y, rc * (1.0 + _QUERY_SLACK))
            if cand and np.any(cone_mask(samples[cand], y, graph.normal, aperture,
                                         outer_radius=rc)):
                cone_violations.append((j, int(y_idx)))

    n = m.dim_param
    sum_rn = float(np.sum(ch_radii ** n))
    sum_mass = float(sum(ball_mass(m, c, rc) for c, rc in zip(centers, ch_radii)))
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
