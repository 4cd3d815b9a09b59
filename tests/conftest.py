import math
import tracemalloc
from collections import Counter
from dataclasses import dataclass

import numpy as np
import pytest

from conical_gmt.energy import weighted_sum
from conical_gmt.errors import InvalidRange
from conical_gmt.generators import GeneratorSpec, generate
from conical_gmt.geometry import Plane, cone_rows, lengths, make_plane, sample_grassmannian
from conical_gmt.graphs import LipschitzGraph, _graph_through, cone_separation_violations
from conical_gmt.measure import DiscreteMeasure
from conical_gmt.sio import _panels


def random_cloud(seed: int, count: int = 200, d: int = 2,
                 uniform_weights: bool = False) -> DiscreteMeasure:
    rng = np.random.default_rng(seed)
    pts = rng.random((count, d))
    if uniform_weights:
        w = np.full(count, 1.0 / count)
    else:
        w = rng.random(count) + 0.1
        w /= w.sum()
    return DiscreteMeasure(pts, w, dim_param=1 if d == 2 else d - 1)


def menger_curvature_sum(points: np.ndarray, weights: np.ndarray,
                         block: int = 8) -> float:
    """Oracle: sum over i < j < k of w_i w_j w_k c(z_i, z_j, z_k)^2 in the
    plane, with Menger curvature c = 2 |cross(z_j - z_i, z_k - z_i)| over the
    product of the three side lengths, for ``block`` values of i at a time."""
    pts = np.asarray(points, float)
    w = np.asarray(weights, float)
    n = len(pts)
    diff = pts[None, :, :] - pts[:, None, :]
    d2 = np.sum(diff * diff, axis=2)
    upper = np.triu(np.ones((n, n), dtype=bool), 1)
    total = 0.0
    for lo in range(0, n, block):
        i = np.arange(lo, min(n, lo + block))
        a, b = diff[i, :, None, :], diff[i, None, :, :]
        cross = a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]
        keep = (i[:, None, None] < np.arange(n)[None, :, None]) & upper[None]
        c2 = np.zeros(keep.shape)
        c2[keep] = 4.0 * cross[keep] ** 2 / (
            d2[i][:, :, None] * d2[i][:, None, :] * d2[None])[keep]
        total += float(np.einsum("i,j,k,ijk->", w[i], w, w, c2))
    return total


def panel_upper(buf: np.ndarray, n: int, comps: int) -> np.ndarray:
    """The strict upper triangles U_c of the SIO operator blocks as a dense
    (comps, N, N) array, read from the panels of ``_panels``; asserts that
    every panel entry on or below the diagonal is zero."""
    upper = np.zeros((comps, n, n))
    for r0, p in _panels(buf, n, comps):
        rows = p.shape[1]
        assert not np.any(np.tril(p[:, :, :rows]))
        upper[:, r0:r0 + rows, r0:] = p
    return upper


def mixture_cloud() -> DiscreteMeasure:
    """The 1,000-atom mixture of a jittered Lipschitz graph (744 atoms) and a
    generation-4 Cantor piece that the direction scans are tested on."""
    comps = [{"spec": {"kind": "lipschitz_graph", "seed": 4,
                       "params": {"count": 744, "lipschitz": 0.5, "jitter": 0.5}}},
             {"spec": {"kind": "four_corner_cantor", "params": {"generation": 4}},
              "offset": [1.25, -0.5]}]
    m, _ = generate(GeneratorSpec("mixture", {"components": comps}, 4))
    return m


def traced_peak(fn, *args):
    """``fn(*args)`` and the peak bytes traced by ``tracemalloc`` during the
    call above what was traced before it; numpy reports its array buffers to
    ``tracemalloc``, so the peak includes every temporary array."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out = fn(*args)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if started:
            tracemalloc.stop()
    return out, peak


def coordinate_order_lengths(diff: np.ndarray) -> np.ndarray:
    """Oracle: |v| along the last axis of ``diff``, the squares of the
    coordinates summed in coordinate order and then one root, the package's
    one arithmetic for every |y - x|."""
    sq = np.zeros(diff.shape[:-1])
    for k in range(diff.shape[-1]):
        sq = sq + diff[..., k] * diff[..., k]
    return np.sqrt(sq)


def ball_mass(m: DiscreteMeasure, x, r: float) -> float:
    """mu(B(x, r)) from the package's open-ball query: numpy's sum of the
    weights of ``ball_indices``, in index order."""
    return float(np.sum(m.weights[m.ball_indices(x, r)]))


def brute_ball_mass(m: DiscreteMeasure, x, r: float) -> float:
    d = np.linalg.norm(m.points - np.asarray(x, float)[None, :], axis=1)
    return float(np.sum(m.weights[d < r]))


def brute_cone_mass(m: DiscreteMeasure, x, basis: np.ndarray, alpha: float,
                    inner: float = 0.0, outer: float = np.inf) -> float:
    x = np.asarray(x, float)
    mask = np.zeros(m.size, dtype=bool)
    for i, p in enumerate(m.points):
        diff = p - x
        dist = np.linalg.norm(diff)
        par = (diff @ basis.T) @ basis
        perp = np.linalg.norm(diff - par)
        mask[i] = inner < dist < outer and perp < alpha * dist
    return float(np.sum(m.weights[mask]))


def project(point, plane: Plane):
    """Oracle: a vector split into (component in V, component in V^perp)."""
    y = np.asarray(point, dtype=float)
    par = (y @ plane.basis.T) @ plane.basis
    return par, y - par


def dist_to_affine_plane(y, plane: Plane, through) -> float:
    """Oracle: the distance from y to the affine plane V + x."""
    _, perp = project(np.asarray(y, dtype=float) - np.asarray(through, dtype=float), plane)
    return float(lengths(perp))


@dataclass(frozen=True)
class Cone:
    """The open truncated cone K(x, V, alpha, r, R) of the scalar oracle."""

    vertex: np.ndarray
    direction: Plane
    aperture: float
    inner_radius: float = 0.0
    outer_radius: float = np.inf


def cone_contains(cone: Cone, y) -> bool:
    """Oracle: strict membership, r < |y-x| < R and dist(y, V+x) < alpha |y-x|."""
    diff = np.asarray(y, dtype=float) - np.asarray(cone.vertex, dtype=float)
    dist = float(lengths(diff))
    if not (cone.inner_radius < dist < cone.outer_radius):
        return False
    _, perp = project(diff, cone.direction)
    return float(lengths(perp)) < cone.aperture * dist


def plane_metric(v: Plane, w: Plane) -> float:
    """Oracle: the operator-norm distance ||P_V - P_W|| between projections."""
    diff = v.basis.T @ v.basis - w.basis.T @ w.basis
    val = float(np.linalg.svd(diff, compute_uv=False)[0])
    return min(max(val, 0.0), 1.0)


def riesz_cone_sum(m: DiscreteMeasure, x, direction: Plane, aperture: float) -> float:
    """Oracle: n^{-1} sum over the in-cone atoms of w / |x - y|^n, the p = 1,
    R = infinity energy by the layer-cake identity, as a direct sum."""
    x = np.asarray(x, dtype=float)
    mask = cone_row(m.points, x, direction, aperture)[0]
    if not np.any(mask):
        return 0.0
    n = m.dim_param
    return float(np.sum(m.weights[mask] * lengths(m.points[mask] - x) ** (-n)) / n)


def truncated_transform(m: DiscreteMeasure, kernel, eps: float, x) -> np.ndarray:
    """Oracle: T_eps at x, strict |x - y| > eps, so the self-atom never
    contributes."""
    x = np.asarray(x, dtype=float)
    mask = m.distances_from(x) > eps
    if not np.any(mask):
        return np.zeros(kernel(np.ones((1, m.ambient_dim))).shape[1])
    vals = kernel(m.points[mask] - x[None, :])
    return np.sum(m.weights[mask][:, None] * vals, axis=0)


def graph_through(points, direction: Plane, aperture: float) -> LipschitzGraph:
    """The corona's graph fit: the distinct anchors, checked for half-aperture
    separation by ``cone_separation_violations``, through ``_graph_through``."""
    pts = np.unique(np.atleast_2d(np.asarray(points, dtype=float)), axis=0)
    assert cone_separation_violations(pts, direction, aperture) == []
    return _graph_through(pts, direction, aperture)


def graph_document(g: LipschitzGraph) -> dict:
    """The JSON graph document of g, as ``LipschitzGraph.from_json`` reads it:
    both planes, every anchor and both constants."""
    return {
        "base_plane": g.base.basis.tolist(),
        "normal_plane": g.normal.basis.tolist(),
        "anchors": [[z.tolist(), v.tolist()] for z, v in zip(g.anchors_base, g.anchors_value)],
        "L": g.lip_measured,
        "extension_constant": g.extension_constant,
    }


def _plane_ball_cap(base: np.ndarray, plane: Plane, center: np.ndarray, r: float):
    """Center and radius of (affine plane) cap (closed ball), or None."""
    foot = base + project(center - base, plane)[0]
    h = float(lengths(center - foot))
    if h > r:
        return None
    return foot, math.sqrt(max(r * r - h * h, 0.0))


def _dist_point_segment(q: np.ndarray, a: np.ndarray, b: np.ndarray) -> float:
    ab = b - a
    denom = float(ab @ ab)
    if denom == 0:
        return float(lengths(q - a))
    t = min(max(float((q - a) @ ab) / denom, 0.0), 1.0)
    return float(lengths(q - (a + t * ab)))


def _dist_points_disk(qs: np.ndarray, foot: np.ndarray, plane: Plane, rho: float) -> np.ndarray:
    coords = (qs - foot[None, :]) @ plane.basis.T
    radial = lengths(coords)
    clamp = np.minimum(1.0, np.divide(rho, radial, out=np.ones_like(radial),
                                      where=radial > 0))
    return lengths(qs - (foot[None, :] + (coords * clamp[:, None]) @ plane.basis))


def hausdorff_plane_sections(base_a, plane_a: Plane, base_b, plane_b: Plane,
                             center, r: float) -> float:
    """Hausdorff distance between two affine-plane sections of a closed ball:
    closed form for lines (segments), 2048 boundary samples for 2-planes
    (sampling error well below 1e-3 r)."""
    center = np.asarray(center, dtype=float)
    cap_a = _plane_ball_cap(np.asarray(base_a, float), plane_a, center, r)
    cap_b = _plane_ball_cap(np.asarray(base_b, float), plane_b, center, r)
    if cap_a is None and cap_b is None:
        return 0.0
    if cap_a is None or cap_b is None:
        return math.inf
    (foot_a, rho_a), (foot_b, rho_b) = cap_a, cap_b
    if plane_a.dim == 1:
        a1, a2 = foot_a - rho_a * plane_a.basis[0], foot_a + rho_a * plane_a.basis[0]
        b1, b2 = foot_b - rho_b * plane_b.basis[0], foot_b + rho_b * plane_b.basis[0]
        return max(_dist_point_segment(a1, b1, b2), _dist_point_segment(a2, b1, b2),
                   _dist_point_segment(b1, a1, a2), _dist_point_segment(b2, a1, a2))
    theta = np.linspace(0.0, 2 * math.pi, 2048, endpoint=False)
    ring = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    bd_a = foot_a[None, :] + (rho_a * ring) @ plane_a.basis
    bd_b = foot_b[None, :] + (rho_b * ring) @ plane_b.basis
    return max(float(np.max(_dist_points_disk(bd_a, foot_b, plane_b, rho_b))),
               float(np.max(_dist_points_disk(bd_b, foot_a, plane_a, rho_a))))


def cone_outside_tube_check(x, r: float, tangent: Plane, tube_base, tube_plane: Plane,
                            aperture: float, eps: float, samples: int = 1000,
                            seed: int = 0) -> dict:
    """Paper check, by Monte Carlo: the truncated cone shell around the
    tangent's normal avoids the eta r tube of a nearby plane, eta =
    1 - alpha - 3 eps > 0.  The hypothesis (section Hausdorff distance
    <= eps r) is checked first; when it fails the containment test is skipped
    and reported as such."""
    eta = 1.0 - aperture - 3.0 * eps
    x = np.asarray(x, dtype=float)
    gap = hausdorff_plane_sections(x, tangent, np.asarray(tube_base, float),
                                   tube_plane, x, r)
    if gap > eps * r:
        return {"hypothesis_ok": False, "passed": None}
    rng = np.random.default_rng(seed)

    def unit_in(plane: Plane) -> np.ndarray:
        g = rng.standard_normal((samples, plane.dim))
        g /= np.linalg.norm(g, axis=1)[:, None]
        return g @ plane.basis

    rho = r * (1.0 + rng.random(samples))            # (r, 2r)
    s = aperture * rng.random(samples)               # in-plane fraction < alpha
    e_tan = unit_in(tangent)
    e_nor = unit_in(tangent.complement())
    pts = x[None, :] + rho[:, None] * (s[:, None] * e_tan
                                       + np.sqrt(1 - s ** 2)[:, None] * e_nor)
    _, perp = project(pts - np.asarray(tube_base, float)[None, :], tube_plane)
    violations = int(np.count_nonzero(lengths(perp) < eta * r))
    return {"hypothesis_ok": True, "passed": violations == 0, "violations": violations}


def greedy_centers_oracle(points: np.ndarray, r0: float, a0: float, depth: int) -> list:
    """Oracle: each level's net centres (sorted) by the greedy rule with a
    full-cloud distance per chosen centre, for root radius r0.  Level k keeps
    level k - 1's centres (they are 10 r0 a0^-(k-1) > 10 r0 a0^-k apart, so
    all survive) and then takes every atom in index order unless an open ball
    of radius 10 r0 a0^-k around a taken centre holds it."""
    levels = [[0]]
    for k in range(1, depth):
        sep = 10.0 * (r0 * a0 ** (-k))
        blocked = np.zeros(len(points), dtype=bool)
        chosen = []
        for i in levels[-1] + list(range(len(points))):
            if not blocked[i]:
                chosen.append(i)
                blocked |= np.linalg.norm(points - points[i], axis=1) < sep
        levels.append(sorted(chosen))
    return levels


def net_oracle(m: DiscreteMeasure, sep: float, priority: list) -> list:
    """Oracle: the lattice's greedy net one point at a time.  The priority
    points' balls are asked as one family, then each unblocked point in index
    order is chosen and blocks its own open ball of radius sep."""
    blocked = np.zeros(m.size, dtype=bool)
    chosen = []
    priority = np.asarray(priority, dtype=int)
    for i, ball in zip(priority, m.balls(m.points[priority], sep)):
        if not blocked[i]:
            chosen.append(int(i))
            blocked[ball] = True
    for i in range(m.size):
        if not blocked[i]:
            chosen.append(i)
            blocked[m.ball_indices(m.points[i], sep)] = True
    return chosen


def tree_oracle(lattice, root, params, ctx) -> tuple:
    """Oracle: one stopping-time tree grown depth first, a cube at a time,
    each expanded cube's children asked together.  Returns the tree's cube
    ids in pre-order, its BCE, HD and LD stop lists, and its density and
    chain-energy ledgers in the order they were filled."""
    theta_r = ctx.ask([root])[0][0]
    bce_threshold = params.energy_stop * theta_r ** params.exponent
    tree_ids = []
    stop = {"bce": [], "hd": [], "ld": []}
    theta_ledger, chain_energy = {}, {}
    stack = [(root, 0.0)]
    while stack:
        q, inherited = stack.pop()
        theta_q, energy = ctx.ask([q])[0]
        esum = inherited + energy
        tree_ids.append(q.id)
        theta_ledger[q.id] = theta_q
        chain_energy[q.id] = esum
        label = None
        if esum > bce_threshold:
            label = "bce"
        elif q.doubling and theta_q > params.density_high * theta_r:
            label = "hd"
        elif theta_q < params.density_low * theta_r:
            label = "ld"
        if label is not None:
            stop[label].append(q.id)
            continue
        children = [lattice.cubes[cid] for cid in q.children]
        ctx.ask(children)
        for c in reversed(children):
            stack.append((c, esum))
    return (tree_ids, stop["bce"], stop["hd"], stop["ld"],
            list(theta_ledger.items()), list(chain_energy.items()))


def doubling_flags_loop(lattice) -> list:
    """Oracle: each cube's (doubling flag, mu(Q), B(Q) within Q) by the
    lattice's per-cube loop, from one B(Q) and one 100 B(Q) family per
    level: numpy's sum of each ball's and each cube's weights, and one owner
    test per cube."""
    m = lattice.measure
    w = m.weights
    out = {}
    for ids in lattice.levels:
        cubes = [lattice.cubes[i] for i in ids]
        centers = np.array([q.center for q in cubes])
        r = cubes[0].radius
        owner = np.empty(m.size, dtype=int)
        for j, q in enumerate(cubes):
            owner[q.members] = j
        for j, (q, inner, big) in enumerate(zip(cubes, m.balls(centers, r),
                                                m.balls(centers, 100.0 * r))):
            out[q.id] = (float(np.sum(w[big])) <= lattice.c0 * float(np.sum(w[inner])),
                         float(np.sum(w[q.members])), bool(np.all(owner[inner] == j)))
    return [out[q.id] for q in lattice.cubes]


def cube_ask_loop(ctx, cubes) -> list:
    """Oracle: (theta(2B_Q), energy) of each cube by the corona's per-cube
    loop over one family of 2B_Q balls: numpy's sum of the ball's weights
    over r^n, and ``weighted_sum`` of its atoms' window energies at the
    cube's level over mu(Q)."""
    m = ctx.lattice.measure
    balls = m.balls(np.array([q.center for q in cubes]), [q.double_ball_radius for q in cubes])
    out = []
    for q, idx in zip(cubes, balls):
        w = m.weights[idx]
        out.append((float(np.sum(w)) / q.double_ball_radius ** m.dim_param,
                    weighted_sum(w, ctx._table[idx, q.level]) / q.mass))
    return out


def extension_loop(g: LipschitzGraph, z: np.ndarray) -> np.ndarray:
    """Oracle: the McShane-Whitney extension at each query row of z from
    every anchor, one query at a time, with |z - z_i| in the package's
    arithmetic."""
    out = np.empty((len(z), g.anchors_value.shape[1]))
    for i, x in enumerate(z):
        d = g.extension_constant * coordinate_order_lengths(g.anchors_base - x)[:, None]
        out[i] = 0.5 * (np.min(g.anchors_value + d, axis=0) + np.max(g.anchors_value - d, axis=0))
    return out


def _segment_sum_clouds() -> list:
    """Clouds for the per-cube sum oracles: Cantor generations 4 and 5
    (exact distance ties), a jittered segment, a random cloud with a third
    of its atoms duplicated, and a random cloud offset by 1e6."""
    clouds = []
    for gen in (4, 5):
        m, _ = generate(GeneratorSpec("four_corner_cantor", {"generation": gen}))
        clouds.append(pytest.param(m, id=f"cantor{gen}"))
    m, _ = generate(GeneratorSpec("segment", {"count": 600, "jitter": 0.05}, 5))
    clouds.append(pytest.param(m, id="segment"))
    base = random_cloud(61, 300)
    pts = base.points.copy()
    pts[:100] = pts[100:200]
    clouds.append(pytest.param(DiscreteMeasure(pts, base.weights, 1), id="duplicates"))
    far = random_cloud(62, 300)
    clouds.append(pytest.param(DiscreteMeasure(far.points + 1e6, far.weights, 1), id="offset-1e6"))
    return clouds


# across numpy's 8-term unrolled sum and its 128-term pairwise blocks
SEGMENT_LENGTHS = [0, 1, 7, 8, 127, 128, 129, 255, 256, 257, 5000]


def segment_family(seed: int, special: bool) -> tuple:
    """Terms from 2^-500 to 2^500 of both signs with zeros of both signs,
    and, if ``special``, inf, -inf and nan; and a family of index arrays into
    them (repeats allowed) with every length of ``SEGMENT_LENGTHS`` three
    times over, in a shuffled order."""
    rng = np.random.default_rng(seed)
    terms = rng.choice([-1.0, 1.0], 20_000) * np.exp2(rng.uniform(-500, 500, 20_000))
    terms[rng.random(20_000) < 0.1] = 0.0
    terms[rng.random(20_000) < 0.1] = -0.0
    if special:
        for value in (np.inf, -np.inf, np.nan):
            terms[rng.choice(20_000, 3, replace=False)] = value
    sizes = rng.permutation(SEGMENT_LENGTHS * 3)
    return terms, [rng.integers(0, 20_000, size) for size in sizes]


def weighted_sum_loop(weights, energies) -> float:
    """Oracle: sum_j w_j e_j in Python floats, from 0.0, left to right."""
    total = 0.0
    for w, e in zip(np.asarray(weights).tolist(), np.asarray(energies).tolist()):
        total += w * e
    return total


def profile(d: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Oracle: distances in ascending order, equal ones in index order (an
    explicit tie-break by ``np.lexsort``), with the cumulative weight through
    each position, summed left to right."""
    order = np.lexsort((np.arange(len(d)), d))
    return d[order], np.cumsum(w[order])


def f_epsilon_candidates(m: DiscreteMeasure, eps: float, r_grid=None) -> np.ndarray:
    """Oracle: the low-density set over each atom's sorted set of candidate
    radii (``np.unique`` of its distances in (0, 1], and 1) or the grid, with
    the open-ball mass at each radius found by binary search."""
    out = []
    for i in range(m.size):
        d = m.distances_from(m.points[i])
        radii = (np.unique(np.concatenate((d[(d > 0) & (d <= 1.0)], [1.0])))
                 if r_grid is None else np.asarray(r_grid, dtype=float))
        ds, cum = profile(d, m.weights)
        pos = np.searchsorted(ds, radii, side="left")
        mass = np.where(pos > 0, cum[np.maximum(pos - 1, 0)], 0.0)
        if np.any(mass <= eps * radii ** m.dim_param):
            out.append(i)
    return np.asarray(out, dtype=int)


def maximal_function(m: DiscreteMeasure, x, r_min: float, r_max: float) -> float:
    """Oracle: sup over r in [r_min, r_max] of mu(B(x, r)) / r^n at one
    point, from one ``profile`` of its distances.

    mu(B(x, r)) is a left-continuous step function of r jumping after each
    atom distance, so the supremum equals the maximum of closed-ball mass
    over the candidate radii {r_min} and every atom distance in (r_min, r_max).
    cum[j] is the closed-ball mass at ds[j] when j is the last of its run of
    equal distances, and at most that elsewhere in the run, so every position
    may be a candidate.
    """
    if not 0 < r_min < r_max:
        raise InvalidRange("need 0 < r_min < r_max")
    ds, cum = profile(m.distances_from(x), m.weights)
    lo = np.searchsorted(ds, r_min, side="right")
    hi = np.searchsorted(ds, r_max, side="left")
    radii = np.append(r_min, ds[lo:hi])
    mass = np.append(cum[lo - 1] if lo else 0.0, cum[lo:hi])
    return float(np.max(mass / radii ** m.dim_param))


def maximal_function_candidates(m: DiscreteMeasure, x, r_min: float, r_max: float) -> float:
    """Oracle: the closed-ball density maximum over the sorted set of
    candidate radii {r_min} and the distances in (r_min, r_max), with the
    mass at each radius found by binary search."""
    d = m.distances_from(x)
    cands = np.unique(np.concatenate(([r_min], d[(d > r_min) & (d < r_max)])))
    ds, cum = profile(d, m.weights)
    pos = np.searchsorted(ds, cands, side="right")
    mass = np.where(pos > 0, cum[np.maximum(pos - 1, 0)], 0.0)
    return float(np.max(mass / cands ** m.dim_param))


def _profile_clouds() -> list:
    """Clouds with exact distance ties for the radial-profile oracles: Cantor
    generation 4, a dyadic grid in R^3 (n = 2) with random weights, and random
    clouds in R^2 and R^3 with a third of their atoms duplicated."""
    cantor, _ = generate(GeneratorSpec("four_corner_cantor", {"generation": 4}))
    g = np.arange(5) / 8.0
    grid = np.stack(np.meshgrid(g, g, g, indexing="ij"), axis=-1).reshape(-1, 3)
    w = np.random.default_rng(89).random(len(grid)) + 0.1
    clouds = [pytest.param(cantor, id="cantor4-n1"),
              pytest.param(DiscreteMeasure(grid, w / w.sum(), 2), id="grid-n2")]
    for d in (2, 3):
        base = random_cloud(90 + d, 120, d)
        pts = base.points.copy()
        pts[:40] = pts[40:80]
        clouds.append(pytest.param(DiscreteMeasure(pts, base.weights, d - 1),
                                   id=f"duplicates-n{d - 1}"))
    return clouds


def cone_row(points: np.ndarray, x, direction: Plane,
             aperture: float) -> tuple[np.ndarray, np.ndarray]:
    """The cone relation of one vertex x with every point, (mask, dist): the
    single row of ``cone_rows``, copied out of its scratch."""
    _, mask, dist = next(cone_rows(points, np.asarray(x, dtype=float)[None],
                                   direction, aperture))
    return mask[0].copy(), dist[0].copy()


def _jumps(mask: np.ndarray, dist: np.ndarray, weights: np.ndarray):
    """Oracle: the sorted distinct distances of the atoms in ``mask``, the
    cumulative mass through each, and the number of such atoms."""
    if not mask.any():
        return np.empty(0), np.empty(0), 0
    d, cum = profile(dist[mask], weights[mask])
    # last position of each run of equal distances
    ends = np.append(d[1:] > d[:-1], True)
    return d[ends], cum[ends], len(d)


def _step_energy(radii: np.ndarray, cum: np.ndarray, n: int, p: float,
                 lo: float, hi: float):
    """Oracle: integrate (mass(r) / r^n)^p dr/r over (lo, hi] for the step
    function mass(r) = cum[i] on (radii[i], radii[i+1]], returning each
    step's term and numpy's sum of them."""
    if len(radii) == 0 or hi <= radii[0]:
        return np.empty(0), 0.0
    a = np.maximum(radii, lo)
    b = np.append(radii[1:], np.inf)
    b = np.minimum(b, hi)
    np_exp = n * p
    with np.errstate(divide="ignore"):
        lower = np.where(a > 0, a ** -np_exp, np.inf)
        upper = np.where(np.isinf(b), 0.0, b ** -np_exp)
    contrib = np.where(b > a, cum ** p * (lower - upper) / np_exp, 0.0)
    return contrib, float(np.sum(contrib))


def cone_jumps(points: np.ndarray, weights: np.ndarray, x, direction: Plane,
               aperture: float, hi: float = np.inf):
    """The sorted distinct distances of the in-cone atoms closer than hi, the
    cumulative mass through each, and the number of such atoms: ``_jumps``
    of ``cone_row``."""
    mask, dist = cone_row(points, x, direction, aperture)
    mask &= dist < hi
    return _jumps(mask, dist, weights)


def _cone_energy(points: np.ndarray, weights: np.ndarray, x, direction,
                 aperture: float, n: int, p: float, lo: float, hi: float) -> float:
    """Oracle: int_lo^hi (mass(K(x, r)) / r^n)^p dr/r for one vertex and one
    direction, from a full-cloud cone test, a sort and the step integral of
    the profile's strict ``< hi`` prefix."""
    radii, cum, _ = cone_jumps(points, weights, x, direction, aperture, hi)
    return _step_energy(radii, cum, n, p, lo, hi)[1]


def point_energy(m: DiscreteMeasure, x, spec) -> float:
    """E_p(x, V, alpha, R) at one vertex x, anywhere: ``_cone_energy`` over
    (0, R)."""
    return _cone_energy(m.points, m.weights, x, spec.direction, spec.aperture,
                        m.dim_param, spec.exponent, 0.0, spec.outer_scale)


def _shell_index(t: float) -> int:
    """Oracle: the unique j with 2^-j <= t < 2^-(j-1), by scalar search."""
    j = math.ceil(-math.log2(t))
    while t < 2.0 ** (-j):
        j += 1
    while t >= 2.0 ** (-j + 1):
        j -= 1
    return j


def theta_m_oracle(points: np.ndarray, direction, theta: float) -> np.ndarray:
    """Oracle: per-atom dyadic-shell counts from a full-cloud cone test at
    every atom and a set of scalar shell indices."""
    counts = np.zeros(len(points), dtype=int)
    for i, x in enumerate(points):
        mask, dist = cone_row(points, x, direction, theta)
        counts[i] = len({_shell_index(t) for t in dist[mask]})
    return counts


def pointwise_energies_row_loop(m: DiscreteMeasure, spec) -> tuple[np.ndarray, np.ndarray]:
    """Oracle: the p = 1 whole-cloud sweep one row at a time.  Row i is the
    cone test of the atoms after x_i seen from x_i; each in-cone partner j
    within R takes w_i times its term at once, and x_i adds numpy's sum of
    its row's terms, so an atom adds its lower-indexed partners' terms one
    at a time, in order, before its own row's sum."""
    n, R, w = m.dim_param, spec.outer_scale, m.weights
    tail = 0.0 if np.isinf(R) else R ** -n
    energies = np.zeros(m.size)
    counts = np.zeros(m.size, dtype=int)
    for i in range(m.size - 1):
        mask, dist = cone_row(m.points[i + 1:], m.points[i], spec.direction, spec.aperture)
        counts[i] += np.count_nonzero(mask)
        counts[i + 1:] += mask
        near = np.flatnonzero(mask & (dist < R))
        if len(near) == 0:
            continue
        term = dist[near] ** -n - tail
        near += i + 1
        energies[i] += float(np.sum(w[near] * term))
        energies[near] += w[i] * term
    return energies / n, counts


def separation_oracle(points: np.ndarray, direction, aperture: float) -> list:
    """Oracle: half-aperture cone violations by a cone test per row of the
    upper triangle, without padding the last one-partner row."""
    out = []
    for i in range(len(points) - 1):
        bad = np.nonzero(cone_row(points[i + 1:], points[i], direction, aperture / 2)[0])[0]
        out.extend((i, i + 1 + int(b)) for b in bad)
    return out


def _sweep_cases():
    """(measure, direction, aperture) cases for the upper-triangle pair sweep:
    exact 3-4-5 boundary ties, duplicate atoms, a far offset, random planes of
    every dimension in R^2..R^5, and tiny clouds."""
    v_axis = make_plane([[0.0, 1.0]])
    cases = []
    cantor, _ = generate(GeneratorSpec("four_corner_cantor", {"generation": 5}))
    cases.append(pytest.param(cantor, v_axis, 0.8, id="cantor5-ties"))
    base = random_cloud(83, 120)
    pts = base.points.copy()
    pts[:30] = pts[30:60]
    cases.append(pytest.param(DiscreteMeasure(pts, base.weights, 1), v_axis, 0.7,
                              id="duplicates"))
    far = random_cloud(85, 150)
    cases.append(pytest.param(DiscreteMeasure(far.points + 1e6, far.weights, 1),
                              make_plane([[0.3, 1.0]]), 0.6, id="offset-1e6"))
    for d in range(2, 6):
        for k in range(1, d):
            cloud = random_cloud(100 * d + k, 60, d)
            plane = sample_grassmannian(d, k, 1, seed=d + 10 * k)[0]
            cases.append(pytest.param(DiscreteMeasure(cloud.points, cloud.weights, d - k),
                                      plane, 0.6, id=f"d{d}-plane{k}"))
    for count in (1, 2, 3, 17):
        cloud = random_cloud(count, count)
        cases.append(pytest.param(cloud, make_plane([[0.2, 1.0]]), 0.9, id=f"N{count}"))
    return cases


SWEEP_CASES = _sweep_cases()
PROFILE_CLOUDS = _profile_clouds()
SEGMENT_SUM_CLOUDS = _segment_sum_clouds()


@pytest.fixture
def asked_balls(monkeypatch) -> Counter:
    """Counts each (centre, radius) that the open-ball query is asked while
    the test runs: every ball of every ``DiscreteMeasure.balls`` family,
    ``ball_indices``' one-ball families included."""
    calls = Counter()
    query = DiscreteMeasure.balls

    def counted(self, centers, radii):
        c = np.asarray(centers, dtype=float)
        r = np.broadcast_to(np.asarray(radii, dtype=float), len(c))
        calls.update((tuple(x.tolist()), float(s)) for x, s in zip(c, r))
        return query(self, centers, radii)

    monkeypatch.setattr(DiscreteMeasure, "balls", counted)
    return calls


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)
