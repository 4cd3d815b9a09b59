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

For n = 1 the base is a line, and the two all-pairs steps, the separation
check and ``lip_measured``, are decided by one sort of the anchors along it.
With z the base coordinate and v the normal ones, a pair lies in the
half-aperture cone exactly when |dv| > L |dz|, L = sqrt(4/alpha^2 - 1), and by
the triangle inequality no pair has a larger slope |dv| / |dz| than the
largest between neighbours in z order.  The sorted answer is taken only where
the margin delta of ``_slope_margin``, a bound on the rounding of a slope and
of a cone decision, proves it equal to the sweep's:

- no violation, when every neighbour slope, taken from the difference of the
  two anchors as the cone test takes it (so its rounding is relative to
  |y - x|, not to |x|), is at most L (1 - delta);
- ``lip_measured``, in the sweep's arithmetic on the anchors' coordinates,
  when every neighbour slope is 0, or when the largest exceeds every other
  by the factor 1 / (1 - delta) and each gap beside its own is at least delta
  times its own: every other pair's slope is then below it by more than the
  sweep's rounding.

Otherwise, and always for n >= 2, the pairwise sweep runs; it alone lists
the violating pairs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InvalidParams
from .geometry import Plane, SortedIndex, cone_pairs, lengths, row_blocks, square_lengths


def cone_separation_violations(points: np.ndarray, direction: Plane,
                               aperture: float) -> list[tuple[int, int]]:
    """All pairs (i, j) with x_j inside the half-aperture cone at x_i.

    The membership test is symmetric, so one ``cone_pairs`` sweep lists each
    violating pair once, as (i, j) with i < j.  Over a base line the sweep
    runs only where one sort does not prove that there is none (see the
    module docstring).
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != direction.ambient_dim:
        raise DimensionMismatch("anchor points and plane dimensions differ")
    if direction.dim == direction.ambient_dim - 1 and _line_separated(pts, direction, aperture):
        return []
    out = []
    for i0, mask, _ in cone_pairs(pts, direction, aperture / 2.0):
        i, c = np.nonzero(mask)
        out.extend(zip((i + i0).tolist(), (c + i0 + 1).tolist()))
    return out


_EPS = np.finfo(float).eps
# nonzero magnitudes whose differences square and sum without underflow or
# overflow, so that every rounding below is relative
_RANGE = (math.sqrt(np.finfo(float).tiny) / _EPS ** 2, math.sqrt(np.finfo(float).max) * _EPS)


def _in_range(a: np.ndarray) -> bool:
    mag = np.abs(a)
    return bool(np.all((mag == 0) | ((mag >= _RANGE[0]) & (mag <= _RANGE[1]))))


def _slope_margin(d: int, aperture: float) -> float:
    """delta of the sorted n = 1 path in R^d (see the module docstring).

    A slope or a cone decision on a difference in R^d is rounded by at most
    about 8 d^2 eps relative to |y - x|, and so by 16 d^2 eps / aperture
    relative to its base part, which is at least aperture/2 times |y - x|
    outside the cone; the second term is twice that.  A pair that spans the
    largest neighbour slope is below it by the factor
    1 - delta^2 / (1 + delta); the first term makes that more than twice the
    (d + 8) eps / 2 rounding of a slope in the sweep's arithmetic.
    """
    return max(math.sqrt(64 * d * _EPS), 32 * d * d * _EPS / aperture)


def _line_separated(pts: np.ndarray, direction: Plane, aperture: float) -> bool:
    """True when the neighbour slopes of ``pts`` sorted along the base line
    prove that no pair lies in the half-aperture cone.  A duplicate point is
    at distance 0, never in the cone, and takes no part."""
    if not _in_range(pts):
        return False
    base = direction.complement()
    step = np.diff(pts[np.argsort(base.coords(pts)[:, 0], kind="stable")], axis=0)
    step = step[np.any(step != 0, axis=1)]
    dz = base.coords(step)[:, 0]
    bound = math.sqrt(4.0 / aperture ** 2 - 1.0) * (1.0 - _slope_margin(pts.shape[1], aperture))
    return bool(np.all(dz > 0) and np.all(lengths(direction.coords(step)) <= bound * dz))


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

        Over a base line, each query reads only the anchors within
        ``_reach`` of it, from a ``SortedIndex`` of the anchors, in its
        ``count_blocks``; no other anchor can give the min or the max, so
        the values are the direct formula's bit for bit.  Otherwise queries
        are taken in ``row_blocks`` as wide as the anchor count.  Either
        way the scratch is about ``geometry.PAIR_BLOCK`` (query, anchor)
        pairs whatever the numbers of queries and anchors.
        """
        z = np.atleast_2d(np.asarray(zcoords, dtype=float))
        vals = np.empty((len(z), self.anchors_value.shape[1]))
        index = SortedIndex(self.anchors_base) if self.base.dim == 1 else None
        reach = None if index is None else self._reach(z, index)
        if reach is not None:
            for b, rows, _, d, starts in index.runs(z, reach):
                d = (d * self.extension_constant)[:, None]
                upper = np.minimum.reduceat(self.anchors_value[rows] + d, starts)
                lower = np.maximum.reduceat(self.anchors_value[rows] - d, starts)
                vals[b] = 0.5 * (upper + lower)
        else:
            for rows in row_blocks(len(z), self.anchor_count):
                d = np.sqrt(square_lengths(z[rows].T, self.anchors_base.T))[:, :, None]
                d *= self.extension_constant
                upper = np.min(self.anchors_value[None, :, :] + d, axis=1)
                lower = np.max(self.anchors_value[None, :, :] - d, axis=1)
                vals[rows] = 0.5 * (upper + lower)
        return vals if np.asarray(zcoords).ndim > 1 else vals[0]

    def _reach(self, z: np.ndarray, index: SortedIndex) -> np.ndarray | None:
        """Per query z (a base line), a radius past which no anchor gives
        the extension's min or max, or None where the anchors' slopes leave
        the extension slope L' no room; ``index`` is the anchors'
        ``SortedIndex``, whose order is theirs along the line.

        With D the distance to the nearest anchor p, S the largest anchor
        slope (a neighbour slope in z order) and V the largest |value|, an
        anchor at distance t has v_i + L' t >= v_p - S (t + D) + L' t, and
        the rounding of each term is below eps (V + 6 L' t); so it exceeds
        p's term once (L' - S) t > (L' + S) D + 2 eps V, less a margin c for
        the rounding of S, D and the radius itself.  The max is the same
        with the values negated."""
        zs, vs = self.anchors_base[:, 0], self.anchors_value
        if not (_in_range(zs) and _in_range(vs) and _in_range(z)):
            return None
        order = index.order
        gap = np.diff(zs[order])
        if not np.all(gap > 0):
            return None
        c = 16 * self.ambient_dim * _EPS
        slope = float(np.max(lengths(np.diff(vs[order], axis=0)) / gap, initial=0.0)) * (1 + c)
        room = self.extension_constant * (1 - c) - slope
        if not room > 0:
            return None
        near = index.nearest(z) * (1 + c)
        spread = c * float(np.max(np.abs(vs), initial=0.0))
        return ((self.extension_constant * (1 + c) + slope) * near + spread) / room * (1 + c)

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
    slope |v_j - v_i| / |z_j - z_i| over the pairs i < j: over a base line
    from the neighbour slopes where the margin proves it (see the module
    docstring), and otherwise from ``_pair_lip``."""
    base = direction.complement()
    z = base.coords(pts)
    vals = direction.coords(pts)
    lip = _line_lip(z[:, 0], vals, aperture) if base.dim == 1 else None
    if lip is None:
        lip = _pair_lip(z, vals)
    return LipschitzGraph(base, direction, z, vals, lip, 2.0 / aperture)


def _line_lip(z: np.ndarray, vals: np.ndarray, aperture: float) -> float | None:
    """The largest pair slope of the anchors with base coordinates z (a
    line) and values ``vals``, from their neighbour slopes in z order in
    ``_pair_lip``'s arithmetic, or None where the margin does not prove it.
    A tie in z, whose slope the sweep takes as inf, is left to the sweep."""
    order = np.argsort(z, kind="stable")
    z, vals = z[order], vals[order]
    gap = np.diff(z)
    if not (_in_range(z) and _in_range(vals) and np.all(gap > 0)):
        return None
    slopes = lengths(np.diff(vals, axis=0)) / np.sqrt(gap * gap)
    if not slopes.any():
        return 0.0
    top = int(np.argmax(slopes))
    delta = _slope_margin(1 + vals.shape[1], aperture)
    beside = gap[[k for k in (top - 1, top + 1) if 0 <= k < len(gap)]]
    if (np.count_nonzero(slopes > slopes[top] * (1.0 - delta)) == 1
            and np.all(beside >= delta * gap[top])):
        return float(slopes[top])
    return None


def _pair_lip(z: np.ndarray, vals: np.ndarray) -> float:
    """The largest slope |v_j - v_i| / |z_j - z_i| over the pairs i < j, inf
    for a pair with z_i = z_j, taken in ``row_blocks``: entry (a, b) of a
    block starting at row lo is the pair (lo + a, lo + 1 + b), so its upper
    triangle holds the block's pairs.  Slopes are nonnegative, so zeroing
    the lower triangle never raises the maximum."""
    k = len(z)
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
    return lip
