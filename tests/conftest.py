import math

import numpy as np
import pytest

from conical_gmt.energy import _in_cone_jumps, _step_energy
from conical_gmt.generators import GeneratorSpec, generate
from conical_gmt.geometry import cone_dist, cone_mask, make_plane, sample_grassmannian
from conical_gmt.measure import DiscreteMeasure


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


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)
