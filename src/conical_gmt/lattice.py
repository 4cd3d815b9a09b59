"""Hierarchical net-based partition of a point cloud into "cubes".

The lattice runs on the input cloud itself, with radii in input units.  The
root radius r0 = diam / (1 - 1e-9) is just above the diameter, so the level-0
ball covers everything from any support point, and level k has radius
r_k = r0 A0^-k.  No coordinate is transformed, so every distance and cone
test over the lattice is the same arithmetic as on the input.

Per level k the construction greedily selects centers among support points
so that chosen centers are at least 10 r_k apart (making the balls
5 B(Q) = B(x_Q, 5 r_k) pairwise disjoint), then assigns every atom to the
nearest selected center inside its parent cube.  Centers of parent cubes are
re-selected first, so each parent always owns at least one center and member
nesting is exact by construction.

The inner/outer ball containments (E cap B(Q) subset Q subset 28 B(Q)) are
*checked and reported*, not enforced: the greedy assignment can violate them
on adversarial clouds, and downstream consumers only rely on the verified
partition, nesting, radius, and 5B-disjointness properties.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .errors import (CubeNotFound, IntermediateDoubling, InvalidParams,
                     NotNested)
from .measure import DiscreteMeasure, ball_mass

# the root radius is the diameter divided by this, only so that the open root
# ball about any atom strictly contains the whole cloud
_ROOT_SLACK = 1.0 - 1e-9


@dataclass
class Cube:
    id: int
    level: int
    center_idx: int
    radius: float
    members: np.ndarray
    parent: int | None
    children: list = field(default_factory=list)
    doubling: bool = False
    mass: float = 0.0
    center: np.ndarray = None

    @property
    def ball_radius(self) -> float:
        """Radius of B_Q = 28 B(Q)."""
        return 28.0 * self.radius

    def is_singleton(self) -> bool:
        return len(self.members) == 1


class Lattice:
    def __init__(self, measure: DiscreteMeasure, cubes: list[Cube],
                 levels: list[list[int]], c0: float, a0: float):
        self.measure = measure
        self.cubes = cubes
        self.levels = levels
        self.c0 = c0
        self.a0 = a0

    @property
    def root(self) -> Cube:
        return self.cubes[self.levels[0][0]]

    @property
    def depth(self) -> int:
        return len(self.levels)

    def resolve(self, cube) -> Cube:
        if isinstance(cube, Cube):
            return cube
        try:
            return self.cubes[int(cube)]
        except (IndexError, ValueError, TypeError) as exc:
            raise CubeNotFound(f"no cube {cube!r}") from exc

    def is_descendant(self, q, s) -> bool:
        """True when q is contained in s (q == s counts)."""
        q, s = self.resolve(q), self.resolve(s)
        while q is not None:
            if q.id == s.id:
                return True
            q = self.cubes[q.parent] if q.parent is not None else None
        return False

    def containment_report(self) -> dict:
        """Fractions of cubes satisfying the ball containments.

        Member nesting is exact by construction; the inner/outer ball
        containments and the designated-ball nesting B_Q within B_parent are
        only reported, since the greedy assignment does not enforce them.
        """
        m = self.measure
        inner_ok = outer_ok = nest_ok = nest_total = 0
        for q in self.cubes:
            d = np.linalg.norm(m.points[q.members] - q.center[None, :], axis=1)
            if d.max() <= 28.0 * q.radius:
                outer_ok += 1
            if np.all(np.isin(m.ball_indices(q.center, q.radius), q.members)):
                inner_ok += 1
            if q.parent is not None:
                p = self.cubes[q.parent]
                nest_total += 1
                if (np.linalg.norm(q.center - p.center) + q.ball_radius
                        <= p.ball_radius):
                    nest_ok += 1
        total = len(self.cubes)
        return {"cubes": total,
                "outer_containment_fraction": outer_ok / total,
                "inner_containment_fraction": inner_ok / total,
                "ball_nesting_fraction": nest_ok / nest_total if nest_total else 1.0}

    def to_records(self, include_members: bool = False) -> list[dict]:
        recs = []
        for q in self.cubes:
            rec = {"id": q.id, "level": q.level, "center": q.center.tolist(),
                   "r": q.radius, "parent": q.parent, "children": list(q.children),
                   "members_count": int(len(q.members)), "doubling": bool(q.doubling)}
            if include_members:
                rec["members"] = q.members.tolist()
            recs.append(rec)
        return recs


def natural_depth(m: DiscreteMeasure, a0: float = 8.0, cap: int = 12) -> int:
    """Depth at which the net resolves the cloud's atomic scale.

    Deep enough for the greedy separation threshold 10 r0 A0^-k to drop below
    the smallest interpoint distance (atoms become singletons), but not so
    deep that the designated balls 2B_Q stop seeing neighbouring atoms;
    past that point singleton-chain densities diverge like A0^k and carry
    no geometric information about an atomic cloud.
    """
    diam = m.diameter()
    spacing = m.min_interpoint_distance()
    if diam <= 0 or spacing <= 0:
        return 2
    k_sep = int(np.ceil(np.log(10.0 * diam / spacing) / np.log(a0)))
    k_vis = int(np.floor(np.log(56.0 * diam / spacing) / np.log(a0)))
    return max(2, min(cap, max(k_sep, k_vis) + 1))


def build_lattice(m: DiscreteMeasure, c0: float = 2.0, a0: float = 8.0,
                  max_depth: int = 12) -> Lattice:
    """Build the hierarchical net partition; deterministic in point order."""
    if not c0 > 1:
        raise InvalidParams("need C0 > 1")
    if not a0 >= 2 * c0:
        raise InvalidParams("need A0 >= 2 C0")
    if max_depth < 1:
        raise InvalidParams("max_depth must be >= 1")

    diam = m.diameter()
    r0 = diam / _ROOT_SLACK if diam > 0 else 1.0
    pts = m.points

    cubes: list[Cube] = []
    levels: list[list[int]] = []

    root = Cube(id=0, level=0, center_idx=0, radius=r0,
                members=np.arange(m.size), parent=None,
                center=pts[0].copy())
    cubes.append(root)
    levels.append([0])

    for k in range(1, max_depth):
        prev_ids = levels[-1]
        val = r0 * a0 ** (-k)
        centers = _select_centers(m, 10.0 * val, [cubes[i].center_idx for i in prev_ids])
        center_set = np.zeros(m.size, dtype=bool)
        center_set[centers] = True
        level_ids = []
        for pid in prev_ids:
            parent = cubes[pid]
            local_centers = parent.members[center_set[parent.members]]
            local_centers = np.sort(local_centers)
            # nearest in-parent center, ties to the lowest point index
            d = np.linalg.norm(pts[parent.members][:, None, :]
                               - pts[local_centers][None, :, :], axis=2)
            owner = local_centers[np.argmin(d, axis=1)]
            for c in local_centers:
                mem = parent.members[owner == c]
                q = Cube(id=len(cubes), level=k, center_idx=int(c), radius=val,
                         members=mem, parent=pid, center=pts[c].copy())
                cubes.append(q)
                parent.children.append(q.id)
                level_ids.append(q.id)
        levels.append(level_ids)

    lat = Lattice(m, cubes, levels, c0, a0)
    doubling_flags(lat)
    return lat


def _select_centers(m: DiscreteMeasure, sep: float, priority: list[int]) -> list[int]:
    """Greedy maximal set of support points with pairwise distance >= sep.

    Priority indices are processed first (they are mutually separated by
    construction), then all points in index order; each chosen point blocks
    its open ball of radius sep.
    """
    blocked = np.zeros(m.size, dtype=bool)
    chosen = []
    for i in chain(priority, range(m.size)):
        if not blocked[i]:
            chosen.append(i)
            blocked[m.ball_indices(m.points[i], sep)] = True
    return chosen


def doubling_flags(lattice: Lattice) -> Lattice:
    """Set each cube's flag per mu(100 B(Q)) <= C0 mu(B(Q)), non-strict."""
    m = lattice.measure
    for q in lattice.cubes:
        small = ball_mass(m, q.center, q.radius)
        big = ball_mass(m, q.center, 100.0 * q.radius)
        q.doubling = big <= lattice.c0 * small
        q.mass = float(np.sum(m.weights[q.members]))
    return lattice


@dataclass(frozen=True)
class MaximalDoubling:
    """Maximal doubling strict descendants plus the uncovered remainder.

    For atomic clouds a chain may end without ever reaching a doubling cube,
    so the remainder can carry positive mass; it is reported, never hidden.
    """

    cubes: list
    uncovered_indices: np.ndarray
    uncovered_mass_fraction: float


def maximal_doubling(lattice: Lattice, cube) -> MaximalDoubling:
    q = lattice.resolve(cube)
    found: list[Cube] = []
    covered: list[np.ndarray] = []

    def descend(c: Cube):
        for cid in c.children:
            child = lattice.cubes[cid]
            if child.doubling:
                found.append(child)
                covered.append(child.members)
            else:
                descend(child)

    descend(q)
    cov = np.concatenate(covered) if covered else np.empty(0, dtype=int)
    uncovered = np.setdiff1d(q.members, cov, assume_unique=False)
    w = lattice.measure.weights
    total = float(np.sum(w[q.members]))
    frac = float(np.sum(w[uncovered]) / total) if total > 0 else 0.0
    return MaximalDoubling(found, uncovered, frac)


def delta_mu(lattice: Lattice, q, s) -> float:
    """Sum over atoms in 2B_S setminus 2B_Q of w / |y - x_Q|^n."""
    q, s = lattice.resolve(q), lattice.resolve(s)
    if not lattice.is_descendant(q, s):
        raise NotNested(f"cube {q.id} is not contained in cube {s.id}")
    m = lattice.measure
    idx = m.ball_indices(s.center, 2 * s.ball_radius)
    r = np.linalg.norm(m.points[idx] - q.center[None, :], axis=1)
    out = r >= 2 * q.ball_radius
    return float(np.sum(m.weights[idx[out]] * r[out] ** (-m.dim_param)))


def density_drop_check(lattice: Lattice, q, r) -> dict:
    """Compare Theta(100 B(Q)) with the geometric density-drop bound along a
    chain of non-doubling intermediates between Q and R."""
    q, r = lattice.resolve(q), lattice.resolve(r)
    if q.id == r.id or not lattice.is_descendant(q, r):
        raise NotNested(f"cube {q.id} is not a proper descendant of {r.id}")
    chain = []
    cur = lattice.cubes[q.parent]
    while cur.id != r.id:
        chain.append(cur)
        cur = lattice.cubes[cur.parent]
    for s in chain:
        if s.doubling:
            raise IntermediateDoubling(f"intermediate cube {s.id} is doubling")
    m = lattice.measure
    n = m.dim_param
    d = m.ambient_dim

    def theta100(c: Cube) -> float:
        rad = 100.0 * c.radius
        return ball_mass(m, c.center, rad) / rad ** n

    lhs = theta100(q)
    rhs_theta = theta100(r)
    gap = q.level - r.level - 1
    factor = (lattice.c0 * lattice.a0) ** d * lattice.a0 ** (-9.0 * d * gap)
    rhs = factor * rhs_theta
    achieved = None
    if gap > 0 and lhs > 0 and rhs_theta > 0:
        base = lhs / ((lattice.c0 * lattice.a0) ** d * rhs_theta)
        achieved = -float(np.log(base) / (np.log(lattice.a0) * gap))
    return {
        "lhs": lhs,
        "rhs": rhs,
        "holds": lhs <= rhs,
        "levels_between": gap,
        "nominal_exponent": 9.0 * d,
        "achieved_exponent": achieved,
    }
