"""Planes, cones, projections, and Grassmannian sampling.

A ``Plane`` is a linear subspace of R^d stored as an orthonormal basis;
a ``Cone`` is the open set K(x, V, alpha) = {y : dist(y, V+x) < alpha |x-y|},
optionally truncated to inner/outer radii.  All membership tests use strict
inequalities, so boundary points and the vertex itself are outside.

Tie rule: ``cone_dist`` is the package's one vectorized cone test
(``cone_mask`` returns its mask).  It compares |P_{V^perp}(y-x)| < alpha |y-x|
in floating point, which keeps exact boundary points outside: on a dyadic grid
at alpha = 0.8 the 3-4-5 pairs are not in the cone.  Both lengths are square
roots of sums of squares taken in coordinate order, c0*c0 + c1*c1 + ...;
for d <= 7 this equals ``np.linalg.norm(..., axis=1)`` bit for bit, while for
d >= 8 numpy's pairwise summation groups the terms differently, so a distance
can differ from it in the last place.  A one-row input is padded to two rows,
since a one-row product takes another BLAS path: a row's bit does not depend
on the batch it came in.  ``cone_contains`` is the scalar test oracle.

The relation is symmetric bit for bit: both lengths are even in y - x, and
negating a difference is exact, so seen from y the pair gets the same mask bit
and the same distance as seen from x.  ``cone_pairs`` therefore tests each
unordered pair once, from its lower-indexed end.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, InvalidParams, RankDeficient

ORTHO_TOL = 1e-12
RANK_TOL = 1e-10


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

    def projection_matrix(self) -> np.ndarray:
        return self.basis.T @ self.basis

    def complement(self) -> "Plane":
        """Orthonormal basis of the orthogonal complement."""
        d = self.ambient_dim
        # rows of basis span V; null space of the projection gives V^perp
        u, s, vt = np.linalg.svd(self.basis)
        return Plane(vt[self.dim:])

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
    u, s, vt = np.linalg.svd(v, full_matrices=False)
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


def project(point, plane: Plane):
    """Split a vector into (component in V, component in V^perp)."""
    y = np.asarray(point, dtype=float)
    if y.shape[-1] != plane.ambient_dim:
        raise DimensionMismatch(f"point in R^{y.shape[-1]}, plane in R^{plane.ambient_dim}")
    par = (y @ plane.basis.T) @ plane.basis
    return par, y - par


def dist_to_affine_plane(y, plane: Plane, through) -> float:
    """Distance from y to the affine plane V + x."""
    y = np.asarray(y, dtype=float)
    x = np.asarray(through, dtype=float)
    if y.shape != x.shape or y.shape[-1] != plane.ambient_dim:
        raise DimensionMismatch("point/plane ambient dimensions differ")
    _, perp = project(y - x, plane)
    return float(np.linalg.norm(perp))


def plane_metric(v: Plane, w: Plane) -> float:
    """Operator-norm distance ||P_V - P_W|| between projection maps."""
    if v.ambient_dim != w.ambient_dim:
        raise DimensionMismatch("planes live in different ambient spaces")
    if v.dim != w.dim:
        raise DimensionMismatch("planes have different subspace dimensions")
    diff = v.projection_matrix() - w.projection_matrix()
    s = np.linalg.svd(diff, compute_uv=False)
    val = float(s[0]) if s.size else 0.0
    return min(max(val, 0.0), 1.0) if val < 1.0 + RANK_TOL else 1.0


def sample_grassmannian(d: int, m: int, count: int, seed: int) -> list[Plane]:
    """Draw planes from the rotation-invariant distribution on G(d, m).

    Standard Gaussian frames orthonormalized by QR; deterministic per seed.
    """
    if not 0 < m < d:
        raise InvalidParams(f"need 0 < m={m} < d={d}")
    if count < 1:
        raise InvalidParams("count must be >= 1")
    rng = np.random.default_rng(seed)
    planes = []
    for _ in range(count):
        g = rng.standard_normal((d, m))
        q, r = np.linalg.qr(g)
        # fix signs so the map from frames is deterministic w.r.t. the draw
        q = q * np.sign(np.diag(r))[None, :]
        planes.append(Plane(q.T[:m]))
    return planes


@dataclass(frozen=True)
class Cone:
    """Open truncated cone K(x, V, alpha, r, R); R may be infinite."""

    vertex: np.ndarray
    direction: Plane
    aperture: float
    inner_radius: float = 0.0
    outer_radius: float = np.inf

    def __post_init__(self):
        object.__setattr__(self, "vertex", _readonly(self.vertex))
        if self.vertex.ndim != 1 or self.vertex.shape[0] != self.direction.ambient_dim:
            raise DimensionMismatch("vertex and direction plane dimensions differ")
        if not 0.0 < self.aperture < 1.0:
            raise InvalidParams("aperture must lie in (0, 1)")
        if self.inner_radius < 0 or self.inner_radius >= self.outer_radius:
            raise InvalidParams("need 0 <= inner_radius < outer_radius")


def cone_contains(cone: Cone, y) -> bool:
    """Strict membership: r < |y-x| < R and dist(y, V+x) < alpha |y-x|."""
    y = np.asarray(y, dtype=float)
    if y.shape != cone.vertex.shape:
        raise DimensionMismatch("point and cone vertex dimensions differ")
    diff = y - cone.vertex
    dist = float(np.linalg.norm(diff))
    if not (cone.inner_radius < dist < cone.outer_radius):
        return False
    _, perp = project(diff, cone.direction)
    return float(np.linalg.norm(perp)) < cone.aperture * dist


def _row_norms(a: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row, squares summed in coordinate order."""
    s = a[:, 0] * a[:, 0]
    for k in range(1, a.shape[1]):
        s += a[:, k] * a[:, k]
    return np.sqrt(s)


def cone_dist(points: np.ndarray, vertex: np.ndarray, direction: Plane,
              aperture: float, inner_radius: float = 0.0,
              outer_radius: float = np.inf) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized strict cone membership for an (N, d) array of points, with
    the distance |y - x| of every point; boundary ties stay outside (see the
    module docstring)."""
    pts = np.asarray(points, dtype=float)
    x = np.asarray(vertex, dtype=float)
    if pts.shape[1] != x.shape[0] or x.shape[0] != direction.ambient_dim:
        raise DimensionMismatch("points/vertex/plane dimensions differ")
    diff = pts - x[None, :]
    dist = _row_norms(diff)
    # one row is padded to two (see the module docstring)
    operand = diff if len(diff) != 1 else np.vstack((diff, diff))
    par = ((operand @ direction.basis.T) @ direction.basis)[:len(diff)]
    perp = _row_norms(diff - par)
    mask = (dist > inner_radius) & (dist < outer_radius) & (perp < aperture * dist)
    return mask, dist


def cone_pairs(points: np.ndarray, direction: Plane,
               aperture: float) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """The upper triangle of the strict cone relation on ``points``: for each
    i < N - 1, ``(i, mask, dist)`` is ``cone_dist`` of ``points[i+1:]`` seen
    from ``points[i]``, so entry k belongs to the pair (i, i + 1 + k).  By the
    tie rule's symmetry this is also the pair seen from its other end."""
    pts = np.asarray(points, dtype=float)
    for i in range(len(pts) - 1):
        yield i, *cone_dist(pts[i + 1:], pts[i], direction, aperture)


def cone_mask(points: np.ndarray, vertex: np.ndarray, direction: Plane,
              aperture: float, inner_radius: float = 0.0,
              outer_radius: float = np.inf) -> np.ndarray:
    """The membership mask of ``cone_dist``."""
    return cone_dist(points, vertex, direction, aperture, inner_radius, outer_radius)[0]


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
