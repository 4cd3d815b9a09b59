"""Planes, the strict cone test, pairwise distances, and Grassmannian sampling.

A ``Plane`` is a linear subspace of R^d stored as an orthonormal basis.  The
cone K(x, V, alpha) is the open set {y : dist(y, V+x) < alpha |x-y|}.  The
test is strict, so boundary points are outside, and so is the vertex itself:
|P_{V^perp}(y-x)| >= 0, so a point in the cone has |y - x| > 0.

Tie rule: every length |y - x| in the package is the root of the squares of
the coordinates of y - x summed in coordinate order (``lengths``,
``square_lengths``, and ``_cone_test`` in its scratch), so every query
decides a pair on a sphere or a cone boundary alike.  The cone test compares
|P_{V^perp}(y-x)| < alpha |y-x| in floating point, which keeps exact
boundary points outside: on a dyadic grid at alpha = 0.8 the 3-4-5 pairs are
not in the cone.  The plane coordinates of the differences are one BLAS
product of their (M, d) block with the basis; when V is a line, mapping them
back has one term per entry, one rounding in BLAS and elementwise alike, so
it is taken elementwise.  A one-row block is padded to two rows, since a
one-row product takes another BLAS path: a row's bit does not depend on the
batch it came in.

The relation is symmetric bit for bit: both lengths are even in y - x, and
negating a difference is exact, so seen from y the pair gets the same mask bit
and the same distance as seen from x.  ``cone_pairs`` therefore tests each
unordered pair once, from its lower-indexed end.

Pair blocks: a kernel that compares rows with ``width`` columns pair by pair
(the diameter, graph evaluation and slopes, nearest-centre assignment, set
distance and direction table) takes ``row_blocks``' slices of
``PAIR_BLOCK // width`` rows, and the SIO operator square tiles of
``PAIR_BLOCK // 4`` pairs, so the scratch stays near ``PAIR_BLOCK`` pairs
whatever the cloud's size; ``pair_extremes`` has scipy ``cdist``'s bits.
``SortedIndex`` answers a family of open balls, or of nearest-distance
queries, in ``count_blocks``: consecutive queries whose candidate runs hold
about ``PAIR_BLOCK`` rows together.  Per-pair values do not depend on the
block, and each kernel reduces them by max, min or argmin or writes them in
place, so its output does not either.

The whole-cloud sweep ``cone_pairs`` works in row strips: rows [i0, i1)
against the columns (i0, N), with ``max(1, (PAIR_BLOCK // 4) // (N - 1 - i0))``
rows, so a strip holds at most ``max(PAIR_BLOCK // 4, N - 1)`` pairs.  Its
mask keeps the pairs j > i, so each unordered pair is still tested once, and
a strip of one pair is padded like a one-row input.  ``cone_rows`` takes
``max(1, (PAIR_BLOCK // 4) // N)`` vertices a block against all N points.
One ``_ConeWork`` scratch serves every strip or block of a sweep: with fresh
arrays per strip, glibc returns the freed top of the heap to the system after
each strip and faults it back in on the next.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InvalidParams, RankDeficient

ORTHO_TOL = 1e-12
RANK_TOL = 1e-10
# Pairs per block of every pairwise kernel (see the module docstring).
PAIR_BLOCK = 2 ** 16


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(np.asarray(a, dtype=float))
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class Plane:
    """Linear m-dimensional subspace of R^d, 0 < m < d, orthonormal basis rows."""

    basis: np.ndarray  # (m, d)

    def __post_init__(self):
        b = _readonly(np.atleast_2d(self.basis))
        object.__setattr__(self, "basis", b)
        m, d = b.shape
        if not 0 < m < d:
            raise InvalidParams(f"subspace dimension {m} must lie strictly between 0 and {d}")
        gram = b @ b.T
        if not np.allclose(gram, np.eye(m), atol=ORTHO_TOL):
            raise InvalidParams("basis is not orthonormal within 1e-12")

    @property
    def ambient_dim(self) -> int:
        return self.basis.shape[1]

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    def complement(self) -> "Plane":
        """Orthonormal basis of the orthogonal complement."""
        # rows of basis span V; null space of the projection gives V^perp
        return Plane(np.linalg.svd(self.basis)[2][self.dim:])

    def coords(self, points: np.ndarray) -> np.ndarray:
        """Coordinates of (projected) points in this plane's basis."""
        return np.asarray(points, dtype=float) @ self.basis.T

    def embed(self, coords: np.ndarray) -> np.ndarray:
        """Ambient vectors from in-plane coordinates."""
        return np.asarray(coords, dtype=float) @ self.basis


def make_plane(vectors) -> Plane:
    """Orthonormalize spanning vectors into a Plane.

    Raises RankDeficient when the input is linearly dependent within 1e-10.
    """
    v = np.atleast_2d(np.asarray(vectors, dtype=float))
    m, d = v.shape
    if m == 0 or m > d:
        raise InvalidParams(f"need between 1 and {d} spanning vectors in R^{d}")
    if not np.all(np.isfinite(v)):
        raise InvalidParams("spanning vectors must be finite")
    _, s, vt = np.linalg.svd(v, full_matrices=False)
    if s[-1] <= RANK_TOL * max(s[0], 1.0):
        raise RankDeficient("input vectors are linearly dependent within 1e-10")
    if m == d:
        raise InvalidParams("spanning vectors fill the ambient space; need m < d")
    basis = vt[:m]
    # keep user orientation where possible: a single already-unit vector stays itself
    if m == 1:
        n = np.linalg.norm(v[0])
        basis = v[None, 0] / n
    return Plane(basis)


def sample_grassmannian(d: int, m: int, count: int, seed: int) -> list[Plane]:
    """Draw planes from the rotation-invariant distribution on G(d, m).

    Standard Gaussian frames orthonormalized by QR; deterministic per seed.
    """
    if not 0 < m < d:
        raise InvalidParams(f"need 0 < m={m} < d={d}")
    if count < 1:
        raise InvalidParams("count must be >= 1")
    if seed < 0:
        raise InvalidParams(f"seed must be a nonnegative integer, not {seed}")
    rng = np.random.default_rng(seed)
    planes = []
    for _ in range(count):
        g = rng.standard_normal((d, m))
        q, r = np.linalg.qr(g)
        # fix signs so the map from frames is deterministic w.r.t. the draw
        q = q * np.sign(np.diag(r))[None, :]
        planes.append(Plane(q.T[:m]))
    return planes


def row_blocks(rows: int, width: int) -> Iterator[slice]:
    """Consecutive slices of ``max(1, PAIR_BLOCK // width)`` rows covering
    range(rows): the row blocks of a pairwise kernel ``width`` pairs wide."""
    step = max(1, PAIR_BLOCK // width)
    for lo in range(0, rows, step):
        yield slice(lo, min(rows, lo + step))


def count_blocks(counts) -> Iterator[slice]:
    """Consecutive slices of items whose ``counts`` sum to at most
    ``PAIR_BLOCK``, or of one item that alone holds more: the blocks of a
    kernel whose items differ in width."""
    cum = np.cumsum(counts)
    lo = 0
    while lo < len(cum):
        base = cum[lo - 1] if lo else 0
        hi = max(lo + 1, int(np.searchsorted(cum, base + PAIR_BLOCK, side="right")))
        yield slice(lo, hi)
        lo = hi


def lengths(a) -> np.ndarray:
    """|a| along the last axis, a scalar for one vector: the squares of the
    coordinates summed in coordinate order, then one root (the tie rule)."""
    a = np.asarray(a, dtype=float)
    sq = a[..., 0] * a[..., 0]
    for k in range(1, a.shape[-1]):
        sq += a[..., k] * a[..., k]
    return np.sqrt(sq, out=sq) if a.ndim > 1 else np.sqrt(sq)


def square_lengths(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """|b_j - a_i|^2 as an (R, C) array for the coordinate-major (d, R) and
    (d, C) operands: one coordinate plane b_k[None, :] - a_k[:, None] at a
    time, squared and summed in place in ``lengths``' order."""
    sq = np.subtract(b[0][None, :], a[0][:, None])
    sq *= sq
    if len(a) > 1:
        plane = np.empty_like(sq)
        for ak, bk in zip(a[1:], b[1:]):
            np.subtract(bk[None, :], ak[:, None], out=plane)
            plane *= plane
            sq += plane
    return sq


def pair_extremes(pts: np.ndarray) -> tuple[float, float, float]:
    """The smallest distance between two rows of ``pts``, the smallest
    positive one and the largest one: the first is 0.0 when two rows
    coincide, and the last two are (inf, 0.0) when all rows do.

    One pass over the pairs in ``row_blocks`` keeps the smallest positive and
    the largest square, and takes one root of each at the end; the root is
    monotone, so these are the bits of the extreme distances.  In the pass's
    blocks each pair i < j appears as (i, j) and, when both rows are in the
    block, as (j, i), with the same bits; the pairs i = i give one zero per
    row, so a further zero means two rows coincide.
    """
    n = len(pts)
    coords = np.ascontiguousarray(pts.T)
    lo, hi, tied = np.inf, 0.0, False
    for rows in row_blocks(n, n):
        sq = square_lengths(coords[:, rows], coords[:, rows.start:])
        hi = max(hi, float(sq.max()))
        zero = sq == 0
        tied = tied or np.count_nonzero(zero) > rows.stop - rows.start
        sq[zero] = np.inf
        lo = min(lo, float(sq.min()))
    lo = math.sqrt(lo)
    return 0.0 if tied else lo, lo, math.sqrt(hi)


# half-width of a run's widening, relative to max(|x|, r): a few ulps
_RUN_SLACK = 8 * np.finfo(float).eps


class SortedIndex:
    """Exact open-ball and nearest-distance queries over the rows of
    ``points``, from one stable sort of the rows along their coordinate of
    widest spread (the first such coordinate).

    A query at x with radius r reads one run of that order: the rows whose
    sort coordinate lies within r of x's, found by two ``searchsorted``
    calls.  The run's ends are widened by ``_RUN_SLACK`` max(|x|, r), a few
    ulps, so it holds every row that the exact test can accept whatever the
    rounding of x -+ r, also where that rounds at the scale of |x|, and an
    infinite r gives every row.  Each candidate is then tested exactly, with
    |y - x| from ``lengths``.  A family of queries is answered in
    ``count_blocks`` of its run lengths, known before anything is gathered,
    so the scratch holds
    about ``PAIR_BLOCK`` candidates whatever the family's size.
    """

    def __init__(self, points: np.ndarray):
        self.points = np.asarray(points, dtype=float)
        self.axis = int(np.argmax(np.ptp(self.points, axis=0)))
        self.order = np.argsort(self.points[:, self.axis], kind="stable")
        self.keys = self.points[self.order, self.axis]

    def _runs(self, x: np.ndarray, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The ends [lo, hi) in the sort order of the widened runs of the
        queries x with radii r."""
        at = x[:, self.axis]
        reach = r + _RUN_SLACK * np.maximum(np.abs(at), r)
        return (self.keys.searchsorted(at - reach, side="left"),
                self.keys.searchsorted(at + reach, side="right"))

    def _lengths(self, rows: np.ndarray, x: np.ndarray, owner: np.ndarray) -> np.ndarray:
        """|points[rows[k]] - x[owner[k]]| for every k, one coordinate of
        the queries gathered at a time."""
        diff = self.points[rows]
        for k, col in enumerate(x.T):
            diff[:, k] -= col[owner]
        return lengths(diff)

    def _candidates(self, x: np.ndarray, lo: np.ndarray, hi: np.ndarray):
        """The rows of the runs [lo, hi) of the queries x, run after run,
        with the query each belongs to and its distance from that query."""
        counts = hi - lo
        owner = np.arange(len(x)).repeat(counts)
        pos = np.arange(owner.size)
        pos += (lo - (counts.cumsum() - counts))[owner]
        rows = self.order[pos]
        del pos
        return rows, owner, self._lengths(rows, x, owner)

    def balls(self, centers: np.ndarray, radii: np.ndarray) -> Iterator[np.ndarray]:
        """The open balls B(c_i, r_i), in order, each as the ascending
        indices of its rows; ``radii`` holds one radius per centre."""
        lo, hi = self._runs(centers, radii)
        n = len(self.points)
        for b in count_blocks(hi - lo):
            rows, owner, dist = self._candidates(centers[b], lo[b], hi[b])
            inside = dist < radii[b][owner]
            del dist
            owner = owner[inside]
            # one integer sort orders each ball's rows by index: a run's
            # owner is constant, so owner * n + row sorts run by run
            kept = owner * n
            kept += rows[inside]
            kept.sort()
            kept -= owner * n
            ends = np.bincount(owner, minlength=b.stop - b.start).cumsum().tolist()
            del rows, owner, inside
            start = 0
            for end in ends:
                yield kept[start:end]
                start = end

    def nearest(self, queries: np.ndarray) -> np.ndarray:
        """min_j |q_i - y_j| over the rows y_j, for every query row q_i, in
        ``balls``' arithmetic.  The nearer of the two rows beside a query's
        place in the sort order bounds its distance; the exact minimum is
        then taken over the run of that bound."""
        q = np.asarray(queries, dtype=float)
        place = self.keys.searchsorted(q[:, self.axis])
        last, each = len(self.keys) - 1, np.arange(len(q))
        bound = np.minimum(
            self._lengths(self.order[np.maximum(place - 1, 0)], q, each),
            self._lengths(self.order[np.minimum(place, last)], q, each))
        lo, hi = self._runs(q, bound)
        out = np.empty(len(q))
        for b in count_blocks(hi - lo):
            counts = hi[b] - lo[b]
            # each run holds the row that gave its bound, so none is empty
            out[b] = np.minimum.reduceat(self._candidates(q[b], lo[b], hi[b])[2],
                                         counts.cumsum() - counts)
        return out


class _ConeWork:
    """Scratch of the strict cone test for up to ``size`` differences in R^d
    against an m-plane: the differences coordinate by coordinate, their
    stacked (size, d) block and its plane coordinates, the distances, the
    perpendicular lengths, a temporary and the mask.  A sweep reuses one, so
    its strips' cone tests allocate no pair-sized array."""

    def __init__(self, size: int, d: int, m: int):
        self.diff = np.empty((d, size))
        # room for the one-row padding (see the module docstring)
        self.block = np.empty((max(size, 2), d))
        self.coef = np.empty((max(size, 2), m))
        self.dist, self.perp, self.tmp = np.empty((3, size))
        self.mask = np.empty(size, dtype=bool)


def _cone_test(work: _ConeWork, shape: tuple, direction: Plane,
               aperture: float) -> tuple[np.ndarray, np.ndarray]:
    """The one cone arithmetic of ``cone_rows`` and ``cone_pairs``: the mask
    of |P_{V^perp}(y-x)| < alpha |y-x| and the distances |y-x|, of ``shape``,
    for the differences y - x held in ``work.diff``, coordinate by
    coordinate, both lengths in ``lengths``' arithmetic.  The results are
    views of ``work``."""
    size = math.prod(shape)
    flat = work.diff[:, :size]
    diff = flat.reshape(-1, *shape)
    dist, perp, tmp = (a[:size].reshape(shape) for a in (work.dist, work.perp, work.tmp))
    np.multiply(diff[0], diff[0], out=dist)
    for dk in diff[1:]:
        dist += np.multiply(dk, dk, out=tmp)
    np.sqrt(dist, out=dist)
    block = work.block[:max(size, 2)]
    for k, dk in enumerate(flat):
        block[:size, k] = dk
    if size == 1:
        block[1] = block[0]     # one row is padded to two (see the module docstring)
    coef = np.matmul(block, direction.basis.T, out=work.coef[:len(block)])
    if direction.dim == 1:
        # a one-term product is one rounding, in BLAS as elementwise
        along = coef[:size, 0].reshape(shape)
        par = (np.multiply(along, b, out=tmp) for b in direction.basis[0])
    else:
        par = (p.reshape(shape) for p in (coef @ direction.basis)[:size].T)
    for k, p in enumerate(par):
        np.subtract(diff[k], p, out=tmp)
        if k == 0:
            np.multiply(tmp, tmp, out=perp)
        else:
            perp += np.multiply(tmp, tmp, out=tmp)
    np.sqrt(perp, out=perp)
    mask = work.mask[:size].reshape(shape)
    np.less(perp, np.multiply(dist, aperture, out=tmp), out=mask)
    return mask, dist


def cone_rows(points: np.ndarray, vertices: np.ndarray, direction: Plane,
              aperture: float) -> Iterator[tuple[slice, np.ndarray, np.ndarray]]:
    """The strict cone relation of every vertex with every point, in row
    blocks of about ``PAIR_BLOCK // 4`` pairs: a block ``(rows, mask, dist)``
    holds, in row i - rows.start of its (len, N) arrays, the mask of the
    points in the cone at vertices[i] and their distances from it (see the
    module docstring).  Both arrays are scratch that the next block
    overwrites."""
    pts = np.asarray(points, dtype=float)
    xs = np.asarray(vertices, dtype=float)
    if pts.ndim != 2 or xs.ndim != 2 or not pts.shape[1] == xs.shape[1] == direction.ambient_dim:
        raise DimensionMismatch("points/vertex/plane dimensions differ")
    n, d = pts.shape
    step = max(1, min(len(xs), (PAIR_BLOCK // 4) // max(n, 1)))
    work = _ConeWork(step * n, d, direction.dim)
    coords = np.ascontiguousarray(pts.T)
    for lo in range(0, len(xs), step):
        rows = slice(lo, min(len(xs), lo + step))
        k = rows.stop - lo
        np.subtract(coords[:, None, :], xs[rows].T[:, :, None],
                    out=work.diff[:, :k * n].reshape(d, k, n))
        yield (rows, *_cone_test(work, (k, n), direction, aperture))


def cone_pairs(points: np.ndarray, direction: Plane,
               aperture: float) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """The upper triangle of the strict cone relation on ``points``, in row
    strips (see the module docstring).  A strip ``(i0, mask, dist)`` pairs
    the rows i0 <= i < i0 + len(mask) with the columns j = i0 + 1 + c of
    (i0, N): ``dist[r, c]`` is |x_j - x_i|, and ``mask[r, c]`` is
    ``cone_rows``' bit for the pair (i, j) where j > i and False where
    j <= i.  By the tie rule's symmetry that bit is also the pair's seen from
    x_j.  Both arrays are scratch that the next strip overwrites."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != direction.ambient_dim:
        raise DimensionMismatch("points/plane dimensions differ")
    n, d = pts.shape
    budget = max(1, PAIR_BLOCK // 4)
    work = _ConeWork(max(budget, n - 1), d, direction.dim)
    coords = np.ascontiguousarray(pts.T)
    i0 = 0
    while i0 < n - 1:
        width = n - 1 - i0
        i1 = min(n - 1, i0 + max(1, budget // width))
        rows = i1 - i0
        np.subtract(coords[:, None, i0 + 1:], coords[:, i0:i1, None],
                    out=work.diff[:, :rows * width].reshape(d, rows, width))
        mask, dist = _cone_test(work, (rows, width), direction, aperture)
        for r in range(1, rows):
            mask[r, :r] = False         # the pairs j <= i
        yield i0, mask, dist
        i0 = i1


def parse_plane(text: str) -> Plane:
    """Parse "1,0,0;0,1,0"-style semicolon/comma plane serialization."""
    try:
        vecs = [[float(t) for t in part.split(",")] for part in text.split(";") if part.strip()]
    except ValueError as exc:
        raise InvalidParams(f"cannot parse plane string {text!r}") from exc
    if not vecs:
        raise InvalidParams("empty plane string")
    return make_plane(vecs)


def format_plane(plane: Plane, digits: int = 17) -> str:
    return ";".join(",".join(format(x, f".{digits}g") for x in row) for row in plane.basis)
