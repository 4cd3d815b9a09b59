import numpy as np
import pytest

from conical_gmt.energy import _in_cone_jumps, _step_energy
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


def _cone_energy(points: np.ndarray, weights: np.ndarray, x, direction,
                 aperture: float, n: int, p: float, lo: float, hi: float) -> float:
    """Oracle: int_lo^hi (mass(K(x, r)) / r^n)^p dr/r for one vertex and one
    direction, from a full-cloud cone test, a sort and the step integral."""
    radii, cum, _ = _in_cone_jumps(points, weights, x, direction, aperture, hi)
    return _step_energy(radii, cum, n, p, lo, hi)[1]


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)
