"""Lipschitz graphs over a base plane, anchored at cone-separated points.

A point set whose pairwise differences avoid the half-aperture cone
K(0, V, alpha/2) projects injectively onto V^perp, and the induced map
pi_perp(x) -> pi_V(x) is Lipschitz with constant at most sqrt(4/alpha^2 - 1).
The graph is extended off the anchors componentwise by the symmetric
McShane-Whitney rule with L' = 2/alpha,

    F_j(z) = ( min_i (F_j(z_i) + L' |z - z_i|)
             + max_i (F_j(z_i) - L' |z - z_i|) ) / 2,

which reproduces anchors exactly, is L'-Lipschitz per component, and keeps
constant anchor data constant.  The componentwise extension can inflate the
full vector constant by up to sqrt(n); reports carry the componentwise
constant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InvalidParams
from .geometry import Plane, cone_pairs, lengths, row_blocks, square_lengths


def cone_separation_violations(points: np.ndarray, direction: Plane,
                               aperture: float) -> list[tuple[int, int]]:
    """All pairs (i, j) with x_j inside the half-aperture cone at x_i.

    The membership test is symmetric, so one ``cone_pairs`` sweep lists each
    violating pair once, as (i, j) with i < j.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != direction.ambient_dim:
        raise DimensionMismatch("anchor points and plane dimensions differ")
    out = []
    for i0, mask, _ in cone_pairs(pts, direction, aperture / 2.0):
        i, c = np.nonzero(mask)
        out.extend(zip((i + i0).tolist(), (c + i0 + 1).tolist()))
    return out


@dataclass(frozen=True)
class LipschitzGraph:
    """Graph map over ``base`` (dimension n) with values in ``normal``."""

    base: Plane
    normal: Plane
    anchors_base: np.ndarray    # (k, n) coordinates in base basis
    anchors_value: np.ndarray   # (k, d-n) coordinates in normal basis
    lip_measured: float         # max anchor-pair slope
    extension_constant: float   # per-component extension slope L'

    @property
    def ambient_dim(self) -> int:
        return self.base.ambient_dim

    @property
    def anchor_count(self) -> int:
        return len(self.anchors_base)

    def evaluate(self, zcoords: np.ndarray) -> np.ndarray:
        """Graph values at base-plane coordinates, anchors reproduced exactly.

        Queries are taken in ``row_blocks`` as wide as the anchor count, so
        the scratch is about ``geometry.PAIR_BLOCK`` (query, anchor) pairs
        whatever the numbers of queries and anchors.
        """
        z = np.atleast_2d(np.asarray(zcoords, dtype=float))
        vals = np.empty((len(z), self.anchors_value.shape[1]))
        for rows in row_blocks(len(z), self.anchor_count):
            d = np.sqrt(square_lengths(z[rows].T, self.anchors_base.T))[:, :, None]
            d *= self.extension_constant
            upper = np.min(self.anchors_value[None, :, :] + d, axis=1)
            lower = np.max(self.anchors_value[None, :, :] - d, axis=1)
            vals[rows] = 0.5 * (upper + lower)
        return vals if np.asarray(zcoords).ndim > 1 else vals[0]

    def ambient_anchors(self) -> np.ndarray:
        return self.base.embed(self.anchors_base) + self.normal.embed(self.anchors_value)

    def vertical_distance(self, points: np.ndarray) -> np.ndarray:
        """|pi_V(x) - F(pi_perp(x))| per point; an upper bound on dist(x, graph)."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if pts.shape[1] != self.ambient_dim:
            raise DimensionMismatch("points and graph ambient dimensions differ")
        z = self.base.coords(pts)
        v = self.normal.coords(pts)
        dev = lengths(v - np.atleast_2d(self.evaluate(z)))
        return dev if np.asarray(points).ndim > 1 else dev[0]

    @staticmethod
    def from_json(data) -> "LipschitzGraph":
        """The graph of a graph document, a JSON object with ``base_plane``,
        optionally ``normal_plane`` (the complement of the base if absent),
        ``anchors`` as [base coordinates, normal coordinates] pairs, and
        optionally ``L`` and ``extension_constant``; any other document
        raises ``InvalidParams``."""
        try:
            base = Plane(np.asarray(data["base_plane"], dtype=float))
            normal = (Plane(np.asarray(data["normal_plane"], dtype=float))
                      if "normal_plane" in data else base.complement())
            zs = np.asarray([a[0] for a in data["anchors"]], dtype=float)
            vs = np.asarray([a[1] for a in data["anchors"]], dtype=float)
            lip = float(data.get("L", 0.0))
            ext = float(data.get("extension_constant", max(lip, 1.0)))
        except (TypeError, ValueError, KeyError, IndexError) as exc:
            raise InvalidParams(f"not a graph document ({exc!r})") from exc
        k, d = len(zs), base.ambient_dim
        if not (k and zs.shape == (k, base.dim) and vs.shape == (k, normal.dim)
                and normal.ambient_dim == d and base.dim + normal.dim == d
                and np.all(np.isfinite(zs)) and np.all(np.isfinite(vs))
                and math.isfinite(lip) and math.isfinite(ext) and min(lip, ext) >= 0):
            raise InvalidParams("a graph needs complementary planes, anchors [base "
                                "coords, normal coords] and finite constants >= 0")
        return LipschitzGraph(base, normal, zs, vs, lip, ext)


def _graph_through(pts: np.ndarray, direction: Plane, aperture: float) -> LipschitzGraph:
    """The graph through distinct anchors ``pts``, which the caller has
    checked for half-aperture separation.  ``lip_measured`` is the largest
    slope |v_j - v_i| / |z_j - z_i| over the pairs i < j, taken in
    ``row_blocks``: entry (a, b) of a block starting at row lo is the pair
    (lo + a, lo + 1 + b), so its upper triangle holds the block's pairs.
    Slopes are nonnegative, so zeroing the lower triangle never raises the
    maximum."""
    base = direction.complement()
    z = base.coords(pts)
    vals = direction.coords(pts)
    k = len(pts)
    lip = 0.0
    for rows in row_blocks(k - 1, k):
        lo = rows.start
        dz = np.sqrt(square_lengths(z[rows].T, z[lo + 1:].T))
        slopes = np.sqrt(square_lengths(vals[rows].T, vals[lo + 1:].T))
        with np.errstate(divide="ignore", invalid="ignore"):
            slopes /= dz
        slopes[dz == 0] = np.inf
        slopes[np.tri(*slopes.shape, -1, dtype=bool)] = 0.0
        lip = max(lip, float(slopes.max()))
    return LipschitzGraph(base, direction, z, vals, lip, 2.0 / aperture)
