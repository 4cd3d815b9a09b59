"""Weighted point clouds with spatially indexed mass queries.

A ``DiscreteMeasure`` is an atomic stand-in for a compactly supported Radon
measure: N atoms in R^d with positive weights and a density exponent n
(0 < n < d) used by every Theta-type quantity.  Balls and cones are open,
so boundary atoms never count; this keeps every query deterministic and
lets the spatial index be checked bit-for-bit against brute force.

``DiscreteMeasure.ball_indices`` is the package's one open-ball query over
the atoms: a KD-tree prefilter with a slightly inflated radius, then the
strict test |y - x| < r on ``np.linalg.norm(..., axis=1)``.  Masses,
densities, the lattice's nets and containments, the corona's 2B_Q and the
graph cover all ask it, so an atom on a sphere is outside everywhere alike.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree
from scipy.spatial.distance import cdist

from .errors import DimensionMismatch, EmptyBall, InputError, InvalidParams, InvalidRange
from .geometry import Cone, cone_mask

# relative inflation of KD-tree query radii; strict filtering happens afterwards
_QUERY_SLACK = 1e-9


class DiscreteMeasure:
    """Immutable weighted point cloud with a KD-tree index built on load."""

    def __init__(self, points, weights, dim_param: int):
        pts = np.ascontiguousarray(np.asarray(points, dtype=float))
        if pts.ndim != 2 or pts.shape[0] < 1:
            raise InvalidParams("points must be a nonempty N x d array")
        w = np.ascontiguousarray(np.asarray(weights, dtype=float))
        if w.shape != (pts.shape[0],):
            raise InvalidParams("weights must be one positive mass per point")
        if not np.all(w > 0):
            raise InvalidParams("all weights must be positive")
        if not np.all(np.isfinite(pts)) or not np.all(np.isfinite(w)):
            raise InvalidParams("points and weights must be finite")
        n = int(dim_param)
        if not 0 < n < pts.shape[1]:
            raise InvalidParams(f"dim_param must satisfy 0 < n < d={pts.shape[1]}")
        pts.setflags(write=False)
        w.setflags(write=False)
        self.points = pts
        self.weights = w
        self.dim_param = n
        self._tree = cKDTree(pts)

    @property
    def ambient_dim(self) -> int:
        return self.points.shape[1]

    @property
    def size(self) -> int:
        return self.points.shape[0]

    @property
    def total_mass(self) -> float:
        return float(np.sum(self.weights))

    def diameter(self) -> float:
        """Exact max pairwise distance, computed in memory-bounded blocks.

        Distances come from coordinate differences, not the Gram identity
        |a|^2 + |b|^2 - 2 a.b, which cancels for clouds far from the origin.
        """
        pts = self.points
        best = 0.0
        block = max(1, 2 ** 22 // len(pts))
        for lo in range(0, len(pts), block):
            best = max(best, float(cdist(pts[lo:lo + block], pts).max()))
        return best

    def min_interpoint_distance(self) -> float:
        if self.size < 2:
            return 0.0
        d, _ = self._tree.query(self.points, k=2)
        return float(d[:, 1].min())

    def ball_indices(self, x, r: float) -> np.ndarray:
        """Sorted indices of atoms with |y - x| < r (strict); the one open-ball
        query (see the module docstring)."""
        x = self._check_point(x)
        if not r > 0:
            raise InvalidRange("radius must be positive")
        if np.isinf(r):
            return np.arange(self.size)
        idx = np.asarray(self._tree.query_ball_point(x, r * (1.0 + _QUERY_SLACK),
                                                     return_sorted=True), dtype=int)
        d = np.linalg.norm(self.points[idx] - x[None, :], axis=1)
        return idx[d < r]

    def _check_point(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.ambient_dim,):
            raise DimensionMismatch(f"query point must live in R^{self.ambient_dim}")
        return x

    def distances_from(self, x) -> np.ndarray:
        x = self._check_point(x)
        return np.linalg.norm(self.points - x[None, :], axis=1)


def ball_mass(m: DiscreteMeasure, x, r: float) -> float:
    """Mass of the open ball B(x, r)."""
    idx = m.ball_indices(x, r)
    return float(np.sum(m.weights[idx]))


def theta(m: DiscreteMeasure, x, r: float) -> float:
    """Normalized density Theta(x, r) = mu(B(x, r)) / r^n."""
    return ball_mass(m, x, r) / r ** m.dim_param


def cone_mass(m: DiscreteMeasure, cone: Cone) -> float:
    """Mass of a (truncated) open cone."""
    if cone.vertex.shape[0] != m.ambient_dim:
        raise DimensionMismatch("cone and measure ambient dimensions differ")
    mask = cone_mask(m.points, cone.vertex, cone.direction, cone.aperture,
                     cone.inner_radius, cone.outer_radius)
    return float(np.sum(m.weights[mask]))


def sorted_mass(d: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distances in ascending (stable) order with the cumulative weight
    through each position."""
    order = np.argsort(d, kind="stable")
    return d[order], np.cumsum(w[order])


def maximal_function(m: DiscreteMeasure, x, r_min: float, r_max: float) -> float:
    """sup over r in [r_min, r_max] of mu(B(x, r)) / r^n.

    mu(B(x, r)) is a left-continuous step function of r jumping after each
    atom distance, so the supremum equals the maximum of closed-ball mass
    over the candidate radii {r_min} and every atom distance in (r_min, r_max).
    """
    if not 0 < r_min < r_max:
        raise InvalidRange("need 0 < r_min < r_max")
    x = np.asarray(x, dtype=float)
    d = m.distances_from(x)
    n = m.dim_param
    cands = np.concatenate(([r_min], d[(d > r_min) & (d < r_max)]))
    cands = np.unique(cands)
    ds, cum = sorted_mass(d, m.weights)
    # closed-ball mass at c: atoms with distance <= c
    pos = np.searchsorted(ds, cands, side="right")
    mass = np.where(pos > 0, cum[np.maximum(pos - 1, 0)], 0.0)
    return float(np.max(mass / cands ** n))


@dataclass(frozen=True)
class DensityProfile:
    """Theta(x, r_k) along a strictly decreasing list of scales."""

    center: np.ndarray
    scales: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.scales, dtype=float)
        if s.ndim != 1 or len(s) < 1 or np.any(np.diff(s) >= 0):
            raise InvalidParams("scales must be strictly decreasing")
        if np.any(np.asarray(self.values) < 0):
            raise InvalidParams("density values must be nonnegative")


def density_profile(m: DiscreteMeasure, x, scales) -> DensityProfile:
    s = np.asarray(scales, dtype=float)
    vals = np.array([theta(m, x, r) for r in s])
    return DensityProfile(np.asarray(x, dtype=float), s, vals)


@dataclass(frozen=True)
class GrowthReport:
    """Estimated polynomial-growth constant sup mu(B(x,r))/r^n over a sample."""

    value: float
    r_min: float
    r_max: float
    degenerate: bool
    sampled: int


def growth_constant(m: DiscreteMeasure, r0: float, sample_count: int = 256,
                    seed: int = 0) -> GrowthReport:
    """Max of the truncated maximal function over sampled support atoms.

    The scale floor is half the smallest interpoint distance; a single-atom
    cloud has no such floor and is reported with a degeneracy flag.
    """
    if not r0 > 0:
        raise InvalidRange("r0 must be positive")
    if m.size == 1:
        return GrowthReport(float(m.weights[0]) / r0 ** m.dim_param, r0, r0, True, 1)
    r_min = 0.5 * m.min_interpoint_distance()
    degenerate = False
    if not r_min > 0:  # duplicate locations
        r_min = r0
        degenerate = True
    if r_min >= r0:
        r_min = r0 / 2
        degenerate = True
    rng = np.random.default_rng(seed)
    if sample_count >= m.size:
        idx = np.arange(m.size)
    else:
        idx = rng.choice(m.size, size=sample_count, replace=False)
        idx.sort()
    best = max(maximal_function(m, m.points[i], r_min, r0) for i in idx)
    return GrowthReport(float(best), r_min, r0, degenerate, len(idx))


def load_csv(path, dim_param: int | None = None) -> DiscreteMeasure:
    """Read the `x0,...,x{d-1},w` point-cloud format.

    Positive weights are enforced here so the CLI can reject bad inputs
    uniformly (exit code 2).  ``dim_param`` defaults to d - 1.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise InputError(f"{path}: empty file")
        header = [h.strip() for h in header]
        if header[-1] != "w" or not all(h == f"x{i}" for i, h in enumerate(header[:-1])):
            raise InputError(f"{path}: expected header x0,...,x{{d-1}},w")
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            try:
                rows.append([float(v) for v in row])
            except ValueError as exc:
                raise InputError(f"{path}:{lineno}: non-numeric value") from exc
    if not rows:
        raise InputError(f"{path}: no data rows")
    arr = np.asarray(rows, dtype=float)
    if arr.shape[1] != len(header):
        raise InputError(f"{path}: ragged rows")
    pts, w = arr[:, :-1], arr[:, -1]
    if np.any(w <= 0):
        raise InputError(f"{path}: non-positive weight found")
    d = pts.shape[1]
    n = max(1, d - 1) if dim_param is None else int(dim_param)
    return DiscreteMeasure(pts, w, dim_param=n)


def save_csv(m: DiscreteMeasure, path) -> None:
    """Write the point cloud at 17 significant digits (round-trip exact)."""
    d = m.ambient_dim
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"x{i}" for i in range(d)] + ["w"])
        for p, w in zip(m.points, m.weights):
            writer.writerow([format(v, ".17g") for v in p] + [format(w, ".17g")])
