"""Stopping-time tree decomposition of a lattice with graph extraction.

Starting from a doubling root, cubes are stopped the first time one of three
conditions fires along a chain: accumulated window energy exceeding a
threshold (BCE), density exceeding A times the root density on doubling
cubes (HD), or density below tau times the root density (LD); the check
order is BCE, HD, LD, since the density families are defined away from the
energy family.  Atoms never caught by a stop cube form the good set; those,
together with centers of a separated/filtered subfamily of stop cubes, are
the anchors of the tree's Lipschitz graph.  The recursion continues through
maximal doubling descendants of the stop cubes, and the ledger tracks the
density packing sum against the growth constant and total energy.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .energy import EnergySpec, weighted_sum, window_energies
from .errors import InvalidParams, NotDoublingRoot
from .geometry import Plane, SortedIndex, lengths
from .graphs import LipschitzGraph, _graph_through, cone_separation_violations
from .lattice import Cube, Lattice, maximal_doubling
from .measure import growth_constant, segment_sums

# a good atom counts as on its tree's graph within this vertical distance,
# and an anchor as reproduced within _TOL_ANCHOR; both are counted in the
# larger of the root radius and the largest coordinate, since a round trip
# through an oblique plane's base and normal coordinates loses about
# eps |x| (1 + L') to rounding
_TOL_GRAPH = 1e-9
_TOL_ANCHOR = 1e-12


@dataclass(frozen=True)
class CoronaParams:
    plane: Plane                # cone direction V, dimension d - n
    aperture: float
    exponent: float = 1.0
    density_high: float = 10.0      # A
    density_low: float = 0.01       # tau
    energy_stop: float = 0.1        # epsilon
    eta: float = 0.1                # cube-energy window
    key_const: float | None = None  # M, defaults to 4 / aperture
    sep_const: float | None = None  # t, defaults to 10 M
    prox_const: float | None = None  # Lambda, defaults to 4 M
    # the cube energies' spec, built from the fields above, which it checks
    spec: EnergySpec = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "spec", EnergySpec(self.plane, self.aperture, self.exponent))
        if not 0 < self.eta < 1:
            raise InvalidParams("eta must lie in (0, 1)")
        if not (0 < self.density_low < 1 < self.density_high):
            raise InvalidParams("need tau < 1 < A")
        if not 0 <= self.energy_stop < 1:
            raise InvalidParams("energy threshold must lie in [0, 1)")
        m = self.key_const if self.key_const is not None else 4.0 / self.aperture
        t = self.sep_const if self.sep_const is not None else 10.0 * m
        lam = self.prox_const if self.prox_const is not None else 4.0 * m
        if not m > 1:
            raise InvalidParams("key constant M must exceed 1")
        if not t > m:
            raise InvalidParams("separation constant t must exceed M")
        if not lam > 2 * m:
            raise InvalidParams("proximity constant Lambda must exceed 2M")
        object.__setattr__(self, "key_const", m)
        object.__setattr__(self, "sep_const", t)
        object.__setattr__(self, "prox_const", lam)

    def describe(self) -> dict:
        return {"aperture": self.aperture, "exponent": self.exponent,
                "A": self.density_high, "tau": self.density_low,
                "epsilon": self.energy_stop, "eta": self.eta,
                "M": self.key_const, "t": self.sep_const,
                "Lambda": self.prox_const,
                "plane": self.plane.basis.tolist(),
                "defaults_note": "engineering defaults, not proof-grade constants"}


@dataclass
class TreeResult:
    root_id: int
    tree_ids: list[int]
    stop_hd: list[int]
    stop_ld: list[int]
    stop_bce: list[int]
    sep_ids: list[int]
    sep_star_ids: list[int]
    good_indices: np.ndarray
    graph: LipschitzGraph | None
    graph_violations: list[tuple[int, int]]
    theta_ledger: dict
    chain_energy: dict
    root_theta: float
    is_increasing_density: bool
    ld_mass_fraction: float

    @property
    def stop_ids(self) -> list[int]:
        return self.stop_bce + self.stop_hd + self.stop_ld


class _Ctx:
    """Shared per-lattice caches for cube densities and window energies.

    ``_table[x, k]`` is atom x's energy over level k's window
    (eta r_k, r_k / eta); the last column is the whole-space window, and
    ``_terms`` is the table with each row times its atom's weight.  Each
    visited cube's 2B_Q is asked once, for its density and its energy
    together: a tree's root on its own, then each level of the tree's
    frontier (the children of the cubes it expands there) in one family
    call.  The masses and energies of a family come from ``segment_sums``,
    the bits of ``np.sum`` and ``weighted_sum`` per cube without a call per
    cube.
    """

    def __init__(self, lattice: Lattice, params: CoronaParams):
        self.lattice = lattice
        self._cube: dict[int, tuple[float, float]] = {}
        eta = params.eta
        radii = [lattice.cubes[ids[0]].radius for ids in lattice.levels]
        windows = [(eta * r, r / eta) for r in radii]
        windows.append((0.0, np.inf))
        self._table = window_energies(lattice.measure, params.spec, windows)[0]
        self._terms = lattice.measure.weights[:, None] * self._table

    def ask(self, cubes: list[Cube]) -> list[tuple[float, float]]:
        """(theta(2B_Q), energy) of each cube, those not asked before from
        one query of their 2B_Q."""
        new = [q for q in cubes if q.id not in self._cube]
        if new:
            m = self.lattice.measure
            balls = list(m.balls(np.array([q.center for q in new]),
                                 [q.double_ball_radius for q in new]))
            masses = segment_sums(m.weights, balls).tolist()
            levels = np.array([q.level for q in new])
            energies = np.empty(len(new))
            for level in np.unique(levels).tolist():
                at = np.flatnonzero(levels == level)
                energies[at] = segment_sums(self._terms[:, level],
                                            [balls[j] for j in at], ordered=True)
            for q, mass, energy in zip(new, masses, energies.tolist()):
                self._cube[q.id] = (mass / q.double_ball_radius ** m.dim_param,
                                    energy / q.mass)
        return [self._cube[q.id] for q in cubes]


def stopping_decomposition(lattice: Lattice, root, params: CoronaParams,
                           _ctx: _Ctx | None = None) -> TreeResult:
    """Grow one stopping-time tree from a doubling root."""
    ctx = _ctx or _Ctx(lattice, params)
    root = lattice.resolve(root)
    if not root.doubling:
        raise NotDoublingRoot(f"cube {root.id} is not doubling")

    theta_r = ctx.ask([root])[0][0]
    bce_threshold = params.energy_stop * theta_r ** params.exponent

    # decide the tree a level at a time: the frontier is the children of the
    # previous level's cubes that did not stop, asked in one family; a label
    # depends only on the cube, its inherited chain energy and theta_r
    decided: dict[int, tuple[float, float, str | None]] = {}
    frontier = [(root, 0.0)]
    while frontier:
        below = []
        for (q, inherited), (theta_q, energy) in zip(frontier, ctx.ask([q for q, _ in frontier])):
            esum = inherited + energy
            label = None
            if esum > bce_threshold:
                label = "bce"
            elif q.doubling and theta_q > params.density_high * theta_r:
                label = "hd"
            elif theta_q < params.density_low * theta_r:
                label = "ld"
            decided[q.id] = (theta_q, esum, label)
            if label is None:
                below.extend((lattice.cubes[cid], esum) for cid in q.children)
        frontier = below

    # emit in depth-first pre-order, children in lattice order
    tree_ids: list[int] = []
    stop = {"bce": [], "hd": [], "ld": []}
    theta_ledger: dict[int, float] = {}
    chain_energy: dict[int, float] = {}
    stack = [root.id]
    while stack:
        qid = stack.pop()
        theta_ledger[qid], chain_energy[qid], label = decided[qid]
        tree_ids.append(qid)
        if label is not None:
            stop[label].append(qid)
        else:
            stack.extend(reversed(lattice.cubes[qid].children))

    stop_all = stop["bce"] + stop["hd"] + stop["ld"]
    stopped_atoms = (np.concatenate([lattice.cubes[i].members for i in stop_all])
                     if stop_all else np.empty(0, dtype=int))
    good = np.setdiff1d(root.members, stopped_atoms)

    stop_cubes = sorted((lattice.cubes[i] for i in stop_all),
                        key=lambda c: (c.level, c.id))
    good_pts = lattice.measure.points[good]
    sep_ids, sep_star_ids = separated_families(
        stop_cubes, params.sep_const, params.key_const, good_pts, lattice)

    anchor_idx = np.unique(np.concatenate(
        [good, np.array([lattice.cubes[i].center_idx for i in sep_star_ids], dtype=int)]
    )) if (len(good) or sep_star_ids) else np.empty(0, dtype=int)
    graph = None
    violations: list[tuple[int, int]] = []
    if len(anchor_idx):
        anchors = lattice.measure.points[anchor_idx]
        violations = cone_separation_violations(anchors, params.plane, params.aperture)
        if not violations:
            # a duplicate anchor is at distance 0, never in the open cone, so
            # the check above also covers the distinct anchors
            graph = _graph_through(np.unique(anchors, axis=0), params.plane,
                                   params.aperture)

    hd_mass = sum(lattice.cubes[i].mass for i in stop["hd"])
    ld_mass = sum(lattice.cubes[i].mass for i in stop["ld"])
    return TreeResult(
        root_id=root.id, tree_ids=tree_ids,
        stop_hd=stop["hd"], stop_ld=stop["ld"], stop_bce=stop["bce"],
        sep_ids=sep_ids, sep_star_ids=sep_star_ids,
        good_indices=good, graph=graph, graph_violations=violations,
        theta_ledger=theta_ledger, chain_energy=chain_energy,
        root_theta=theta_r,
        is_increasing_density=hd_mass >= 0.5 * root.mass,
        ld_mass_fraction=ld_mass / root.mass,
    )


def _set_distance(a: np.ndarray, b: np.ndarray) -> float:
    """min |a_i - b_j|: the nearest distances of a's rows in a
    ``SortedIndex`` of b."""
    return float(SortedIndex(b).nearest(a).min())


def _t_neighbours(q: Cube, p: Cube, t: float, pts: np.ndarray) -> bool:
    if not (q.radius / t <= p.radius <= q.radius * t):
        return False
    d = _set_distance(pts[q.members], pts[p.members])
    return d <= t * (q.radius + p.radius)


def separated_families(stop_cubes: list[Cube], t: float, m_const: float,
                       good_points: np.ndarray, lattice: Lattice):
    """Greedy maximal t-separated subfamily plus the twice-filtered family.

    The second family keeps cubes whose 2M-dilated ball misses the discrete
    good set and is not swallowed by another kept cube's dilated ball.
    """
    pts = lattice.measure.points
    sep: list[Cube] = []
    for q in stop_cubes:
        if all(not _t_neighbours(q, p, t, pts) for p in sep):
            sep.append(q)
    sep_ids = [q.id for q in sep]

    star_ids = []
    for q in sep:
        rad_q = 2.0 * m_const * q.ball_radius
        if np.any(lengths(good_points - q.center) < rad_q):
            continue
        swallowed_other = False
        for p in sep:
            if p.id == q.id:
                continue
            rad_p = 2.0 * m_const * p.ball_radius
            if lengths(p.center - q.center) + rad_p <= rad_q:
                swallowed_other = True
                break
        if not swallowed_other:
            star_ids.append(q.id)
    return sep_ids, star_ids


@dataclass
class CoronaResult:
    params: CoronaParams
    lattice: Lattice
    trees: list[TreeResult]
    top_ids: list[int]
    tr_assignment: dict
    ledger: dict


def build_top(lattice: Lattice, params: CoronaParams,
              c1_seed: int = 0) -> CoronaResult:
    """Full recursion: trees, the top family, and the packing ledger."""
    ctx = _Ctx(lattice, params)
    root = lattice.root
    if not root.doubling:
        raise NotDoublingRoot("the root cube is not doubling")

    trees: list[TreeResult] = []
    top_ids: list[int] = []
    queue = [root.id]
    seen = set()
    while queue:
        rid = queue.pop(0)
        if rid in seen:
            continue
        seen.add(rid)
        top_ids.append(rid)
        tree = stopping_decomposition(lattice, rid, params, _ctx=ctx)
        trees.append(tree)
        for sid in tree.stop_ids:
            queue.extend(c.id for c in maximal_doubling(lattice, sid).cubes)

    tr_assignment = _assign_trees(lattice, set(top_ids))

    m = lattice.measure
    p = params.exponent
    packing = sum(t.root_theta ** p * lattice.cubes[t.root_id].mass for t in trees)
    c1 = growth_constant(m, r0=root.radius, sample_count=min(m.size, 256), seed=c1_seed)
    e_total = weighted_sum(m.weights, ctx._table[:, -1])
    rhs = c1.value ** p * m.total_mass + e_total
    ledger = {
        "packing_sum": packing,
        "growth_constant": c1.value,
        "growth_degenerate": c1.degenerate,
        "growth_term": c1.value ** p * m.total_mass,
        "total_energy": e_total,
        "rhs": rhs,
        "ratio": packing / rhs if rhs > 0 else np.inf,
        "top_count": len(top_ids),
        "trees": [{
            "root": t.root_id,
            "level": lattice.cubes[t.root_id].level,
            "root_theta": t.root_theta,
            "root_mass": lattice.cubes[t.root_id].mass,
            "tree_size": len(t.tree_ids),
            "stop_counts": {"bce": len(t.stop_bce), "hd": len(t.stop_hd),
                            "ld": len(t.stop_ld)},
            "good_count": int(len(t.good_indices)),
            "sep_star_count": len(t.sep_star_ids),
            "is_increasing_density": t.is_increasing_density,
            "ld_mass_fraction": t.ld_mass_fraction,
            "ld_mass_bound_sqrt_tau": params.density_low ** 0.5,
            "graph_fitted": t.graph is not None,
            "graph_lip": t.graph.lip_measured if t.graph else None,
            "cone_violations": len(t.graph_violations),
        } for t in trees],
    }
    return CoronaResult(params, lattice, trees, top_ids, tr_assignment, ledger)


def _assign_trees(lattice: Lattice, top_set: set) -> dict:
    """Map every cube to its smallest enclosing top root (an exact partition)."""
    assignment: dict[int, int] = {}
    stack = [(lattice.root.id, lattice.root.id)]
    while stack:
        cid, current = stack.pop()
        if cid in top_set:
            current = cid
        assignment[cid] = current
        for ch in lattice.cubes[cid].children:
            stack.append((ch, current))
    return assignment


def verify_corona(result: CoronaResult) -> dict:
    """Recheck the structural conclusions on a finished decomposition, with
    the lattice and parameters it was built from.

    Hard checks (collected, not raised): graph anchors reproduced to rounding,
    good atoms within _TOL_GRAPH of the tree graph, stop-family
    disjointness, lower density bound and energy control on non-stopped tree
    cubes, exact tree partition of the lattice.  Soft quantities (density ratio maxima,
    graph proximity fractions, LD mass fractions) are reported.
    """
    lattice, params = result.lattice, result.params
    failures: list[str] = []
    tree_reports = []
    assignment = result.tr_assignment
    counts: dict[int, int] = {}
    for cid, rid in assignment.items():
        counts[rid] = counts.get(rid, 0) + 1
    if len(assignment) != len(lattice.cubes):
        failures.append("tree assignment does not cover the lattice")
    if set(assignment.values()) - set(result.top_ids):
        failures.append("tree assignment names a non-top root")

    pts = lattice.measure.points
    unit = max(lattice.root.radius, float(np.max(np.abs(pts))))
    for tree in result.trees:
        theta_r = tree.root_theta
        report = {"root": tree.root_id}

        stop_ids = tree.stop_ids
        for i, a in enumerate(stop_ids):
            for b in stop_ids[i + 1:]:
                if lattice.is_descendant(a, b) or lattice.is_descendant(b, a):
                    failures.append(f"tree {tree.root_id}: stop cubes {a},{b} nested")

        stopped = set(stop_ids)
        max_ratio = 0.0
        prox_hits = 0
        anchors = tree.graph.ambient_anchors() if tree.graph is not None else None
        if anchors is not None and len(anchors):
            cubes = [lattice.cubes[cid] for cid in tree.tree_ids]
            gap = SortedIndex(anchors).nearest(np.array([q.center for q in cubes]))
            reach = params.prox_const * np.array([q.ball_radius for q in cubes])
            prox_hits = int(np.count_nonzero(gap < reach))
        bce_threshold = params.energy_stop * theta_r ** params.exponent
        for cid in tree.tree_ids:
            q = lattice.cubes[cid]
            theta_q = tree.theta_ledger[cid]
            max_ratio = max(max_ratio, theta_q / theta_r if theta_r > 0 else 0.0)
            if cid not in stopped:
                if theta_q < params.density_low * theta_r:
                    failures.append(f"tree {tree.root_id}: cube {cid} below the LD bound")
                if tree.chain_energy[cid] > bce_threshold:
                    failures.append(f"tree {tree.root_id}: cube {cid} above the BCE bound")
                if q.doubling and theta_q > params.density_high * theta_r:
                    failures.append(f"tree {tree.root_id}: cube {cid} above the HD bound")
        for cid in tree.stop_hd:
            if not lattice.cubes[cid].doubling:
                failures.append(f"tree {tree.root_id}: HD cube {cid} not doubling")

        report["max_density_ratio"] = max_ratio
        report["density_ratio_reference"] = params.density_high
        report["proximity_fraction"] = (prox_hits / len(tree.tree_ids)
                                        if tree.tree_ids else 1.0)

        if tree.graph is not None:
            # the good atoms are mostly the anchors themselves; evaluation is
            # row-independent, so each distinct point is evaluated once
            distinct, inverse = np.unique(np.concatenate((anchors, pts[tree.good_indices])),
                                          axis=0, return_inverse=True)
            dev_all = tree.graph.vertical_distance(distinct)[inverse.reshape(-1)]
            dev, gdev = dev_all[:len(anchors)], dev_all[len(anchors):]
            if np.any(dev > _TOL_ANCHOR * unit):
                failures.append(f"tree {tree.root_id}: anchors deviate from the graph")
            if len(tree.good_indices):
                report["good_max_deviation"] = float(np.max(gdev))
                if np.any(gdev > _TOL_GRAPH * unit):
                    failures.append(f"tree {tree.root_id}: good atoms off the graph")
            else:
                report["good_max_deviation"] = 0.0
            aviol = cone_separation_violations(anchors, params.plane, params.aperture)
            if aviol:
                failures.append(f"tree {tree.root_id}: anchors violate cone separation")
        elif len(tree.good_indices):
            failures.append(f"tree {tree.root_id}: good atoms present but no graph fitted")
        report["ld_mass_fraction"] = tree.ld_mass_fraction
        tree_reports.append(report)

    return {
        "passed": not failures,
        "failures": failures,
        "tree_count": len(result.trees),
        "partition_sizes": counts,
        "trees": tree_reports,
    }
