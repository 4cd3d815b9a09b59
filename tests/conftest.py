import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from conical_gmt.energy import _in_cone_jumps, _step_energy
from conical_gmt.generators import GeneratorSpec, generate
from conical_gmt.geometry import cone_dist, cone_mask, make_plane, sample_grassmannian
from conical_gmt.measure import DiscreteMeasure, sorted_mass


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


def f_epsilon_candidates(m: DiscreteMeasure, eps: float, r_grid=None) -> np.ndarray:
    """Oracle: the low-density set over each atom's sorted set of candidate
    radii (``np.unique`` of its distances in (0, 1], and 1) or the grid, with
    the open-ball mass at each radius found by binary search."""
    out = []
    for i in range(m.size):
        d = m.distances_from(m.points[i])
        radii = (np.unique(np.concatenate((d[(d > 0) & (d <= 1.0)], [1.0])))
                 if r_grid is None else np.asarray(r_grid, dtype=float))
        ds, cum = sorted_mass(d, m.weights)
        pos = np.searchsorted(ds, radii, side="left")
        mass = np.where(pos > 0, cum[np.maximum(pos - 1, 0)], 0.0)
        if np.any(mass <= eps * radii ** m.dim_param):
            out.append(i)
    return np.asarray(out, dtype=int)


def maximal_function_candidates(m: DiscreteMeasure, x, r_min: float, r_max: float) -> float:
    """Oracle: the closed-ball density maximum over the sorted set of
    candidate radii {r_min} and the distances in (r_min, r_max), with the
    mass at each radius found by binary search."""
    d = m.distances_from(x)
    cands = np.unique(np.concatenate(([r_min], d[(d > r_min) & (d < r_max)])))
    ds, cum = sorted_mass(d, m.weights)
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


def _cone_energy(points: np.ndarray, weights: np.ndarray, x, direction,
                 aperture: float, n: int, p: float, lo: float, hi: float) -> float:
    """Oracle: int_lo^hi (mass(K(x, r)) / r^n)^p dr/r for one vertex and one
    direction, from a full-cloud cone test, a sort and the step integral."""
    radii, cum, _ = _in_cone_jumps(points, weights, x, direction, aperture, hi)
    return _step_energy(radii, cum, n, p, lo, hi)[1]


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
        mask, dist = cone_dist(points, x, direction, theta)
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
        mask, dist = cone_dist(m.points[i + 1:], m.points[i], spec.direction, spec.aperture)
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
        bad = np.nonzero(cone_mask(points[i + 1:], points[i], direction, aperture / 2))[0]
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
