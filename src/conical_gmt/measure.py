"""Weighted point clouds with spatially indexed mass queries.

A ``DiscreteMeasure`` is an atomic stand-in for a compactly supported Radon
measure: N atoms in R^d with positive weights and a density exponent n
(0 < n < d) used by every Theta-type quantity.  Balls and cones are open,
so boundary atoms never count; this keeps every query deterministic and
lets the spatial index be checked bit-for-bit against brute force.

``DiscreteMeasure.balls`` is the package's one open-ball query over the
atoms: a ``geometry.SortedIndex`` over the atoms gives each ball's candidates
as one run of the atoms sorted along their coordinate of widest spread, and
the strict test |y - x| < r keeps those inside, with |y - x| from
``geometry.lengths`` like every distance in the package.  It is asked of a
family of balls at once: one vectorised test per block of centres whose runs
hold about ``geometry.PAIR_BLOCK`` candidates.  ``ball_indices`` is its
one-ball case.
Masses, densities, the lattice's nets (the priority centres in one call,
then the chosen points of each chunk of candidates), B(Q) and 100 B(Q) (one
call per level), the corona's 2B_Q (one call per level of a tree's
frontier) and the graph cover's balls all ask it, so an atom on a sphere is
outside everywhere alike.  The index is built on the first ball query and
kept; it is numpy alone, so no ball query loads scipy.  The diameter and the smallest interpoint distance
come from one numpy pass, ``geometry.pair_extremes``, whose positive end
``sio``'s automatic grid also reads.
"""

from __future__ import annotations

import csv
from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionMismatch, InputError, InvalidParams, InvalidRange
from . import geometry
from .geometry import SortedIndex, lengths


class DiscreteMeasure:
    """Immutable weighted point cloud with a ``SortedIndex`` built on the
    first ball query and kept, as are the diameter and the smallest
    interpoint distance once computed."""

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
        self._diameter: float | None = None
        self._min_distance: float | None = None

    @cached_property
    def _index(self) -> SortedIndex:
        return SortedIndex(self.points)

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
        """Exact max pairwise distance, from ``geometry.pair_extremes``: row
        blocks of at most ``geometry.PAIR_BLOCK`` pairs, so the scratch does
        not grow with N, and the bits of scipy's ``cdist``.

        Distances come from coordinate differences, not the Gram identity
        |a|^2 + |b|^2 - 2 a.b, which cancels for clouds far from the origin.
        Computed on the first call and kept, with the smallest distance.
        """
        if self._diameter is None:
            self._min_distance, _, self._diameter = geometry.pair_extremes(self.points)
        return self._diameter

    def min_interpoint_distance(self) -> float:
        """The smallest distance between two atoms, 0.0 when two coincide or
        the cloud has one atom: read off the diameter's pass."""
        self.diameter()
        return self._min_distance if self.size > 1 else 0.0

    def ball_indices(self, x, r: float) -> np.ndarray:
        """Sorted indices of atoms with |y - x| < r (strict): the one-ball
        case of ``balls``."""
        x = self._check_point(x)
        return next(self.balls(x[None, :], r))

    def balls(self, centers, radii) -> Iterator[np.ndarray]:
        """The open balls B(c_i, r_i) of a family, in order, each as the
        sorted indices of its atoms; ``radii`` is one radius or one per
        centre (see the module docstring).  The answers come block by block,
        so the scratch holds about ``PAIR_BLOCK`` candidates whatever the
        family's size.  A non-finite centre or a radius that is not positive
        raises ``InvalidRange`` here, before any ball is answered."""
        c = np.asarray(centers, dtype=float)
        if c.ndim != 2 or c.shape[1] != self.ambient_dim:
            raise DimensionMismatch(f"ball centres must live in R^{self.ambient_dim}")
        r = np.asarray(radii, dtype=float)
        if r.ndim > 1 or r.size not in (1, len(c)):
            raise DimensionMismatch("need one radius or one radius per centre")
        r = np.broadcast_to(r, len(c))
        if not np.all(np.isfinite(c)):
            raise InvalidRange("ball centres must be finite")
        if not np.all(r > 0):
            raise InvalidRange("radius must be positive")
        return self._index.balls(c, r)

    def _check_point(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.ambient_dim,):
            raise DimensionMismatch(f"query point must live in R^{self.ambient_dim}")
        return x

    def distances_from(self, x) -> np.ndarray:
        """|y - x| for every atom y, in ``geometry.lengths``' arithmetic."""
        return lengths(self.points - self._check_point(x))


def sorted_mass(d: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distances in ascending (stable) order along the last axis, a row or
    a block of rows, with the cumulative weight through each position,
    summed left to right along the row."""
    order = np.argsort(d, axis=-1, kind="stable")
    return np.take_along_axis(d, order, axis=-1), np.cumsum(w[order], axis=-1)


def segment_sums(values: np.ndarray, segments, ordered: bool = False) -> np.ndarray:
    """The sum of values[s] for each index array s of the iterable
    ``segments``, in order: numpy's sum of the 1-D gather, or with
    ``ordered`` the left-to-right sum from 0.0 of ``energy.weighted_sum``.

    Both are taken bit for bit without a call per segment.  numpy sums each
    row of a C-contiguous 2-D block along its last axis as it sums that row
    alone (pairwise, by position), and ``cumsum`` along a row adds left to
    right, so segments of equal length are gathered into one (rows, length)
    block and reduced with ``np.add.reduce(axis=1)``, or with
    ``np.cumsum(axis=1)[:, -1] + 0.0``.  The segments are taken in chunks of
    about ``geometry.PAIR_BLOCK`` entries, so no block is larger, whatever
    the family's size; an empty segment sums to 0.0.  Overflow and
    inf - inf give inf and nan silently, as in ``weighted_sum``.
    """
    out, chunk, size = [], [], 0
    for seg in segments:
        chunk.append(seg)
        size += len(seg)
        if size >= geometry.PAIR_BLOCK:
            out.append(_chunk_sums(values, chunk, ordered))
            chunk, size = [], 0
    out.append(_chunk_sums(values, chunk, ordered))
    return np.concatenate(out)


def _chunk_sums(values: np.ndarray, chunk: list, ordered: bool) -> np.ndarray:
    """``segment_sums`` of one chunk: one block per length present."""
    sums = np.zeros(len(chunk))
    if not chunk:
        return sums
    counts = np.array([len(s) for s in chunk])
    flat = values[np.concatenate(chunk)]
    starts = np.cumsum(counts) - counts
    order = np.argsort(counts, kind="stable")
    with np.errstate(over="ignore", invalid="ignore"):
        for rows in np.split(order, np.flatnonzero(np.diff(counts[order])) + 1):
            width = counts[rows[0]]
            if width == 0:
                continue
            block = flat[starts[rows, None] + np.arange(width)]
            sums[rows] = (np.cumsum(block, axis=1)[:, -1] + 0.0 if ordered
                          else np.add.reduce(block, axis=1))
    return sums


def sorted_profiles(m: DiscreteMeasure,
                    centers: np.ndarray) -> Iterator[tuple[slice, np.ndarray, np.ndarray]]:
    """Every centre's distances to all atoms through ``sorted_mass``, in
    blocks of centres: a block ``(rows, ds, cum)`` holds in row
    i - rows.start the profile of centers[i].  The distances are one
    ``square_lengths`` tile and its root, the bits of ``distances_from``.
    A block holds about ``PAIR_BLOCK // 4`` pairs, as ``cone_rows``' do,
    since the sort keeps five arrays of its size alive at once."""
    coords = np.ascontiguousarray(m.points.T)
    for rows in geometry.row_blocks(len(centers), 4 * m.size):
        sq = geometry.square_lengths(centers[rows].T, coords)
        yield rows, *sorted_mass(np.sqrt(sq, out=sq), m.weights)


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
    # mu(B(x, r)) is a left-continuous step function of r jumping after each
    # atom distance, so each centre's supremum over [r_min, r0] is the largest
    # closed-ball density at r_min and at the distances in (r_min, r0); cum[j]
    # is the closed-ball mass at ds[j] at the last of a run of equal
    # distances and at most that elsewhere in the run
    n = m.dim_param
    best = -np.inf
    for _, ds, cum in sorted_profiles(m, m.points[idx]):
        k = np.count_nonzero(ds <= r_min, axis=1)
        mass = np.where(k > 0, cum[np.arange(len(cum)), k - 1], 0.0)
        # r_min^n from numpy's power, as the distances' are
        floor = np.full(len(mass), r_min)
        best = max(best, float(np.max(mass / floor ** n)))
        inside = (ds > r_min) & (ds < r0)
        if inside.any():
            best = max(best, float(np.max(cum[inside] / ds[inside] ** n)))
    return GrowthReport(best, r_min, r0, degenerate, len(idx))


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
