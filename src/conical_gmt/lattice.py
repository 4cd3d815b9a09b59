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

Each cube's own quantities are computed once, on the cube: mu(Q), the
doubling flag, whether the atoms of B(Q) (asked once, by the doubling test)
all lie in Q, and the radii of B_Q and 2B_Q.  Balls known up front are asked
as families (``DiscreteMeasure.balls``): each level's B(Q) and 100 B(Q) in
one call each, the net's priority balls in one call, and the balls of the
points the net chooses from each chunk of candidates in one call.  A level's
masses mu(B(Q)), mu(100 B(Q)) and mu(Q) come from ``measure.segment_sums``,
numpy's sum of each ball's or cube's weights without a call per cube, and
B(Q)'s containment from one comparison of its atoms' owners per level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import geometry
from .errors import CubeNotFound, InvalidParams
from .geometry import lengths, row_blocks, square_lengths
from .measure import DiscreteMeasure, segment_sums

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
    inner_contained: bool = False   # every atom of B(Q) is a member
    center: np.ndarray = None

    @property
    def ball_radius(self) -> float:
        """Radius of B_Q = 28 B(Q)."""
        return 28.0 * self.radius

    @property
    def double_ball_radius(self) -> float:
        """Radius of 2B_Q = 56 B(Q)."""
        return 2.0 * self.ball_radius


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
        outer_ok = 0
        for ids in self.levels:
            cubes = [self.cubes[i] for i in ids]
            owner = _level_owner(m.size, cubes)
            centers = np.array([q.center for q in cubes])
            # one distance pass per level: every atom against its own centre
            d = lengths(m.points - centers[owner])
            outer_ok += len(cubes) - len(np.unique(owner[d > cubes[0].ball_radius]))
        inner_ok = sum(q.inner_contained for q in self.cubes)
        kids = [q for q in self.cubes if q.parent is not None]
        nest_total = len(kids)
        nest_ok = 0
        if kids:
            parents = [self.cubes[q.parent] for q in kids]
            # one distance pass over every (child centre - parent centre)
            d = lengths(np.array([q.center for q in kids])
                        - np.array([p.center for p in parents]))
            d += [q.ball_radius for q in kids]
            nest_ok = int(np.count_nonzero(d <= [p.ball_radius for p in parents]))
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
            members = parent.members
            local_centers = np.sort(members[center_set[members]])
            # nearest in-parent center, ties to the lowest point index
            owner = np.empty_like(members)
            for rows in row_blocks(len(members), len(local_centers)):
                d = square_lengths(pts[members[rows]].T, pts[local_centers].T)
                owner[rows] = local_centers[np.argmin(np.sqrt(d, out=d), axis=1)]
            for c in local_centers:
                mem = members[owner == c]
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
    its open ball of radius sep.  Being separated, every priority point is
    chosen, so their balls are asked as one family.  The rest is decided in
    chunks of the next ``isqrt(PAIR_BLOCK)`` unblocked points: one
    ``square_lengths`` tile of the chunk and its root give |x_b - x_a| < sep
    with the bits of the ball query's strict test, the greedy runs over the
    chunk on that table, and only the chosen points' balls are asked, as one
    family, so no ball is asked for a point that is not chosen.
    """
    blocked = np.zeros(m.size, dtype=bool)
    chosen = []
    priority = np.asarray(priority, dtype=int)
    for i, ball in zip(priority, m.balls(m.points[priority], sep)):
        if not blocked[i]:
            chosen.append(int(i))
            blocked[ball] = True
    chunk = math.isqrt(geometry.PAIR_BLOCK)
    free = np.flatnonzero(~blocked)
    while len(free):
        cand = free[:chunk]
        x = m.points[cand].T
        near = square_lengths(x, x)
        near = np.sqrt(near, out=near) < sep
        taken = np.zeros(len(cand), dtype=bool)
        picks = []
        for a in range(len(cand)):
            if not taken[a]:
                picks.append(a)
                taken |= near[a]
        new = cand[picks]
        chosen.extend(new.tolist())
        for ball in m.balls(m.points[new], sep):
            blocked[ball] = True
        # every point of the chunk now lies in a chosen point's ball
        free = free[~blocked[free]]
    return chosen


def doubling_flags(lattice: Lattice) -> Lattice:
    """Set each cube's flag per mu(100 B(Q)) <= C0 mu(B(Q)), non-strict, its
    mass mu(Q), and whether B(Q)'s atoms all lie in Q.  Each level asks its
    B(Q) in one call and its 100 B(Q) in another; a ball's mass is the sum
    of its sorted atoms' weights, as ``corona._Ctx.ask`` takes it, and every
    mass of a level comes from ``segment_sums``.  B(Q) lies in Q when none
    of its atoms has another owner, from one owner comparison per level."""
    m = lattice.measure
    w = m.weights
    for ids in lattice.levels:
        cubes = [lattice.cubes[i] for i in ids]
        centers = np.array([q.center for q in cubes])
        r = cubes[0].radius
        inner = list(m.balls(centers, r))
        doubling = (segment_sums(w, m.balls(centers, 100.0 * r))
                    <= lattice.c0 * segment_sums(w, inner))
        masses = segment_sums(w, [q.members for q in cubes])
        ball = np.repeat(np.arange(len(cubes)), [len(b) for b in inner])
        stray = _level_owner(m.size, cubes)[np.concatenate(inner)] != ball
        contained = np.bincount(ball[stray], minlength=len(cubes)) == 0
        for q, flag, mass, inside in zip(cubes, doubling.tolist(), masses.tolist(),
                                         contained.tolist()):
            q.doubling, q.mass, q.inner_contained = flag, mass, inside
    return lattice


def _level_owner(size: int, cubes: list[Cube]) -> np.ndarray:
    """The position in ``cubes``, one level's cubes, of each atom's cube."""
    owner = np.empty(size, dtype=int)
    for j, q in enumerate(cubes):
        owner[q.members] = j
    return owner


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
    frac = float(np.sum(lattice.measure.weights[uncovered]) / q.mass)
    return MaximalDoubling(found, uncovered, frac)
