"""Independent checks of the pipelines' outputs.

Nothing here imports conical_gmt: every expected value is recomputed from the
input files with the benchmark's own numpy code, or is a property the method
must have.  A result outside its tolerance is a failed operation; a missing
or unreadable output is an error, which makes the run incorrect.

Each check returns a ``Verdict`` for one pass's output directory.  Besides
the verdict it reports the per-layer counts that come from the program's own
reports (in-cone counts, iterations, cube and stop counts).
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree

ENERGY_RTOL = 1e-9
NORM_RTOL = 1e-4
BETA_RTOL = 1e-9


@dataclass
class Verdict:
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)   # one line per failed operation
    counts: dict = field(default_factory=dict)

    def op(self, ok: bool, what: str):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(what)


class StaleReference(RuntimeError):
    """The stored reference was computed from another input."""


def load_points(path):
    arr = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return arr[:, :-1], arr[:, -1]


def sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _json(path):
    with open(path) as fh:
        return json.load(fh)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _close(got, want, rtol):
    return abs(got - want) <= rtol * abs(want) or got == want


# ------------------------------------------------------------ cantor-energy

def dyadic_integers(x):
    """Exact integer coordinates x * 2^k for the smallest k that makes them so."""
    for k in range(64):
        y = np.ldexp(x, k)
        if np.all(y == np.round(y)) and np.max(np.abs(y)) < 2 ** 26:
            return y.astype(np.int64), k
    raise ValueError("points do not lie on a common dyadic grid")


def cantor_reference(points, weights, radius=1.0, alpha=(4, 5), block=256):
    """Per-atom in-cone counts and p = 1 energies for the direction e2.

    Cone membership is decided exactly on the integer grid:
    q^2 dx^2 < p^2 (dx^2 + dy^2) for alpha = p/q, so boundary ties are
    outside (the cone is open).  The energy is the layer-cake sum
    sum_{y in cone, |y-x| < R} w_y (|y-x|^-1 - R^-1) for n = 1.
    """
    grid, k = dyadic_integers(points)
    p, q = alpha
    r2 = int(round(radius * 2 ** k)) ** 2
    n = len(points)
    counts = np.zeros(n, dtype=np.int64)
    energy = np.zeros(n)
    ties = []
    for lo in range(0, n, block):
        hi = min(n, lo + block)
        dx = grid[None, :, 0] - grid[lo:hi, None, 0]
        dy = grid[None, :, 1] - grid[lo:hi, None, 1]
        d2 = dx * dx + dy * dy
        lhs, rhs = q * q * dx * dx, p * p * d2
        cone = (d2 > 0) & (lhs < rhs)
        counts[lo:hi] = cone.sum(axis=1)
        near = cone & (d2 < r2)
        dist = np.ldexp(np.sqrt(d2.astype(float)), -k)
        with np.errstate(divide="ignore"):
            terms = np.where(near, weights[None, :] * (1.0 / dist - 1.0 / radius), 0.0)
        energy[lo:hi] = terms.sum(axis=1)
        for i, j in zip(*np.nonzero((d2 > 0) & (lhs == rhs) & (d2 < r2))):
            if len(ties) < 8:
                ties.append((lo + int(i), int(j)))
    return counts, energy, ties


def check_cantor_energy(inputs, out):
    pts, w = load_points(os.path.join(inputs, "cantor.csv"))
    rows = read_csv(os.path.join(out, "energy_points.csv"))
    counts, energy, _ = cantor_reference(pts, w)
    v = Verdict()
    if len(rows) != len(pts) or [int(r["index"]) for r in rows] != list(range(len(pts))):
        raise ValueError("per-point output does not list every atom once, in order")
    got_e = np.array([float(r["energy"]) for r in rows])
    got_c = np.array([int(r["in_cone_count"]) for r in rows])
    for i in range(len(pts)):
        v.op(got_c[i] == counts[i] and _close(got_e[i], energy[i], ENERGY_RTOL),
             f"atom {i}: energy {float(got_e[i])!r} count {got_c[i]}, "
             f"expected {float(energy[i])!r} count {counts[i]}")
    total = _json(os.path.join(out, "energy.json"))["total_energy"]
    want = float(np.dot(w, energy))
    v.op(_close(total, want, ENERGY_RTOL), f"total energy {total!r}, expected {want!r}")
    v.counts["energy.in_cone_pairs"] = int(got_c.sum())
    return v


# ----------------------------------------------------------- segment-corona

def check_segment_corona(inputs, out):
    pts, _ = load_points(os.path.join(inputs, "segment.csv"))
    rep = _json(os.path.join(out, "corona_report.json"))
    dump = _json(os.path.join(out, "corona_trees.json"))
    cubes = {c["id"]: c for c in dump["cubes"]}
    trees = dump["trees"]
    n = len(pts)
    bad = []

    if not rep["verification"]["passed"]:
        bad.append("verification failed: " + "; ".join(rep["verification"]["failures"][:3]))
    levels: dict = {}
    for c in cubes.values():
        levels.setdefault(c["level"], []).append(c)
    for lv, cs in sorted(levels.items()):
        members = np.sort(np.concatenate([np.asarray(c["members"], int) for c in cs]))
        if not np.array_equal(members, np.arange(n)):
            bad.append(f"level {lv} does not partition the atoms")
        centers = np.asarray([c["center"] for c in cs])
        radius = cs[0]["r"]
        if len({c["r"] for c in cs}) != 1:
            bad.append(f"level {lv} mixes radii")
        close = cKDTree(centers).query_pairs(10.0 * radius * (1 - 1e-12))
        if close:
            bad.append(f"level {lv}: {len(close)} centre pairs closer than 10 r (5B overlap)")
    for c in cubes.values():
        if c["parent"] is not None:
            parent = set(cubes[c["parent"]]["members"])
            if not parent.issuperset(c["members"]):
                bad.append(f"cube {c['id']} members not inside parent {c['parent']}")
                break

    # smallest enclosing top root of every cube, from the parent pointers
    tops = {t["root"] for t in trees}
    owner = {}
    for cid in sorted(cubes, key=lambda i: cubes[i]["level"]):
        par = cubes[cid]["parent"]
        owner[cid] = cid if cid in tops or par is None else owner[par]
    sizes = {}
    for cid, rid in owner.items():
        sizes[rid] = sizes.get(rid, 0) + 1
    reported = {int(k): v for k, v in rep["verification"]["partition_sizes"].items()}
    if sizes != reported:
        bad.append("tree partition sizes differ from the smallest-enclosing-root assignment")
    for t in trees:
        if any(owner[c] != t["root"] for c in t["tree"]):
            bad.append(f"tree {t['root']} holds cubes of another top root")

    ledger = rep["ledger"]
    if ledger["total_energy"] != 0.0:
        bad.append(f"total energy {ledger['total_energy']!r} on a segment outside every cone")
    bce = sum(len(t["stop"]["bce"]) for t in trees)
    if bce or any(t["stop_counts"]["bce"] for t in ledger["trees"]):
        bad.append(f"{bce} BCE stops on a zero-energy cloud")
    if not (math.isfinite(ledger["ratio"]) and ledger["ratio"] < 10):
        bad.append(f"packing ratio {ledger['ratio']!r} not finite and below 10")

    v = Verdict()
    v.op(not bad, "; ".join(bad))
    v.counts.update({
        "lattice.cubes": len(cubes),
        "lattice.doubling_cubes": sum(1 for c in cubes.values() if c["doubling"]),
        "corona.trees": len(trees),
        "corona.tree_cubes": sum(len(t["tree"]) for t in trees),
        "corona.stops.bce": bce,
        "corona.stops.hd": sum(len(t["stop"]["hd"]) for t in trees),
        "corona.stops.ld": sum(len(t["stop"]["ld"]) for t in trees),
    })
    return v


# ---------------------------------------------------------------- graph-sio

def cauchy_blocks(pts, w):
    """D^1/2 K_c D^1/2 for the two components of the Cauchy kernel
    k(z) = (z_0, -z_1) / |z|^2 at z = y - x, and the distance matrix."""
    dx = pts[None, :, 0] - pts[:, None, 0]
    dy = pts[None, :, 1] - pts[:, None, 1]
    r2 = dx * dx + dy * dy
    dist = np.sqrt(r2)
    sw = np.sqrt(w)
    with np.errstate(divide="ignore", invalid="ignore"):
        inv = np.where(r2 > 0, 1.0 / r2, 0.0)
    scale = sw[:, None] * sw[None, :] * inv
    return [dx * scale, -dy * scale], dist


def sio_reference(points_path, eps_values):
    """Top singular value of the stacked truncated matrix, by dense SVD."""
    pts, w = load_points(points_path)
    blocks, dist = cauchy_blocks(pts, w)
    sigma, above = [], []
    for eps in eps_values:
        mask = dist > eps
        stacked = np.vstack([b * mask for b in blocks])
        s = np.linalg.svd(stacked, compute_uv=False)
        sigma.append(float(s[0]))
        above.append(int(mask.sum()))
    return {"points_sha256": sha256(points_path), "atoms": len(pts),
            "eps": [float(e) for e in eps_values], "sigma": sigma,
            "pairs_above": above}


def check_graph_sio(inputs, out, reference):
    points = os.path.join(inputs, "graph.csv")
    rep = _json(os.path.join(out, "sio_report.json"))
    if reference["points_sha256"] != rep["points_sha256"]:
        raise StaleReference(
            f"reference was computed for input {reference['points_sha256'][:12]}, "
            f"this run used {rep['points_sha256'][:12]}: rerun perfbench/reference.py")
    rows = read_csv(os.path.join(out, "sio_norms.csv"))
    if len(rows) != len(reference["eps"]):
        raise ValueError(f"{len(rows)} truncations, reference has {len(reference['eps'])}")
    pts, _ = load_points(points)
    dist = np.sqrt((pts[None, :, 0] - pts[:, None, 0]) ** 2
                   + (pts[None, :, 1] - pts[:, None, 1]) ** 2)
    v = Verdict()
    iterations = 0
    for row, sigma, above in zip(rows, reference["sigma"], reference["pairs_above"]):
        eps, norm = float(row["eps"]), float(row["norm"])
        iterations += int(row["iterations"])
        same_matrix = int((dist > eps).sum()) == above
        ok = same_matrix and (_close(norm, sigma, NORM_RTOL) if sigma > 0 else norm == 0)
        v.op(ok, f"eps {eps:.6g}: norm {norm!r} vs dense SVD {sigma!r} "
                 f"(rel {abs(norm - sigma) / sigma if sigma else 0:.3g}, "
                 f"{row['iterations']} iterations, flag {row['flag']})"
                 + ("" if same_matrix else "; truncation differs from the reference's"))
    v.counts["sio.iterations"] = iterations
    v.counts["sio.norms_within_tol"] = (v.attempted - v.failed) / v.attempted
    return v


# ------------------------------------------------------ mixture-diagnostics

def cone_masks(pts, vertex, direction, alpha, radius=np.inf):
    diff = pts - vertex[None, :]
    dist = np.sqrt(np.sum(diff * diff, axis=1))
    par = np.outer(diff @ direction, direction)
    perp = np.sqrt(np.sum((diff - par) ** 2, axis=1))
    return (dist > 0) & (perp < alpha * dist) & (dist < radius), dist


def energy_p2(pts, w, vertex, direction, alpha, radius):
    """E_2 for n = 1 from the pair-sum closed form

        int_0^R mu(K(x, r))^2 r^-3 dr
          = 1/2 sum_{y,z in K, max(d_y, d_z) < R} w_y w_z (max(d_y, d_z)^-2 - R^-2),

    summed in increasing order of d_z as w_z (2 W_before(z) + w_z) (d_z^-2 - R^-2).
    """
    mask, dist = cone_masks(pts, vertex, direction, alpha, radius)
    d = dist[mask]
    wz = w[mask]
    order = np.argsort(d, kind="stable")
    d, wz = d[order], wz[order]
    before = np.cumsum(wz) - wz
    return 0.5 * float(np.sum(wz * (2 * before + wz) * (d ** -2.0 - radius ** -2.0)))


def feps_reference(pts, w, eps, block=128):
    """Atoms x with mu(B(x, r)) <= eps r for some r among the atom distances in
    (0, 1] and r = 1, counting the open ball B(x, r)."""
    n = len(pts)
    out = []
    for lo in range(0, n, block):
        hi = min(n, lo + block)
        d = np.sqrt(((pts[lo:hi, None, :] - pts[None, :, :]) ** 2).sum(axis=2))
        order = np.argsort(d, axis=1, kind="stable")
        ds = np.take_along_axis(d, order, axis=1)
        ws = w[order]
        below = np.zeros_like(ws)                   # mass strictly before position j
        below[:, 1:] = np.cumsum(ws, axis=1)[:, :-1]
        # the open ball of radius ds[j] holds the atoms before the first tie of ds[j]
        first = np.where(np.diff(ds, axis=1, prepend=-1.0) > 0,
                         np.arange(n)[None, :], 0)
        first = np.maximum.accumulate(first, axis=1)
        mass = np.take_along_axis(below, first, axis=1)
        cand = (ds > 0) & (ds <= 1.0)
        hit = np.any(cand & (mass <= eps * ds), axis=1)
        inside_unit = (ds < 1.0).sum(axis=1)
        hit |= np.take_along_axis(below, inside_unit[:, None], axis=1)[:, 0] <= eps
        out.extend(lo + np.nonzero(hit)[0])
    return np.asarray(out, dtype=int)


def shell_counts(pts, normal, theta):
    """Number of dyadic shells [2^-j, 2^-j+1) in which the theta-cone about
    `normal` at each atom meets another atom; j = 1 - e for t = m 2^e."""
    out = np.zeros(len(pts), dtype=int)
    for i in range(len(pts)):
        mask, dist = cone_masks(pts, pts[i], normal, theta)
        _, e = np.frexp(dist[mask])
        out[i] = len(np.unique(e))
    return out


def beta_reference(pts, w, center, r):
    """Weighted total-least-squares residual on the open ball, by SVD."""
    inside = np.sqrt(((pts - center[None, :]) ** 2).sum(axis=1)) < r
    p, wb = pts[inside], w[inside]
    mass = float(wb.sum())
    c = (p * wb[:, None]).sum(axis=0) / mass
    s = np.linalg.svd(np.sqrt(wb)[:, None] * (p - c[None, :]), compute_uv=False)
    residual = float(s[-1] ** 2) if len(s) == pts.shape[1] else 0.0
    return residual, float(np.sum(s ** 2)), mass


def check_mixture(inputs, out):
    pts, w = load_points(os.path.join(inputs, "mixture.csv"))
    meta = _json(os.path.join(inputs, "mixture_meta.json"))
    v = Verdict()

    scan = _json(os.path.join(out, "scan.json"))
    alpha = scan["aperture"]
    evaluations = 0
    for b in scan["balls"]:
        center, radius = np.asarray(b["center"]), b["radius"]
        direction = np.asarray(b["best_direction"][0])
        inside = np.nonzero(np.sqrt(((pts - center) ** 2).sum(axis=1)) < radius)[0]
        evaluations += len(inside) * scan["direction_count"]
        e = np.array([energy_p2(pts, w, pts[i], direction, alpha, radius) for i in inside])
        want = float(np.average(e, weights=w[inside])) if len(inside) else 0.0
        v.op(_close(b["mean_energy"], want, ENERGY_RTOL),
             f"ball r={radius}: mean energy {b['mean_energy']!r}, expected {want!r}")
    v.counts["energy.scan_evaluations"] = evaluations

    cover = _json(os.path.join(out, "cover.json"))
    graph = _json(os.path.join(inputs, "graph.json"))
    anchors = {(a[0][0], a[1][0]) for a in graph["anchors"]}
    off = sum(1 for x, y in pts if (x, y) not in anchors)
    v.op(cover["off_graph_atoms"] == off and cover["disjoint"] and cover["all_covered"]
         and not cover["cone_violations"],
         f"cover: off-graph {cover['off_graph_atoms']} (expected {off}), disjoint "
         f"{cover['disjoint']}, covered {cover['all_covered']}, "
         f"{len(cover['cone_violations'])} cone violations")

    th = _json(os.path.join(out, "thetam.json"))
    theta = th["theta"]
    want = shell_counts(pts, np.array([0.0, 1.0]), theta)
    got = np.asarray(th["counts"])
    v.op(abs(theta - 0.5 / math.sqrt(1 + graph["L"] ** 2)) <= 1e-15
         and np.array_equal(got, want)
         and th["max_count"] == want.max(),
         f"thetaM: {int(np.sum(got != want))} atoms with other shell counts")

    feps = _json(os.path.join(out, "feps.json"))
    want = feps_reference(pts, w, feps["eps"])
    got = np.asarray(feps["indices"], dtype=int)
    v.op(np.array_equal(got, want) and feps["count"] == len(want),
         f"feps: {len(got)} atoms, expected {len(want)} "
         f"({len(np.setxor1d(got, want))} differ)")

    diameter = float(np.max(np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2))))
    for k, idx in enumerate(meta["beta_centers"]):
        rows = read_csv(os.path.join(out, f"beta{k}.csv"))
        radii = [float(r["r"]) for r in rows]
        if not _close(radii[0], diameter, 1e-9):
            raise ValueError(f"beta{k}: top scale {radii[0]!r}, diameter {diameter!r}")
        for row in rows:
            r, beta, mass = float(row["r"]), float(row["beta"]), float(row["ball_mass"])
            residual, spread, want_mass = beta_reference(pts, w, pts[idx], r)
            got_res = beta * beta * r ** 3
            v.op(abs(got_res - residual) <= 1e-12 * spread + BETA_RTOL * residual
                 and _close(mass, want_mass, 1e-12),
                 f"beta at atom {idx}, r={r:.6g}: beta {beta!r} "
                 f"(residual {got_res!r} vs {residual!r}), mass {mass!r} vs {want_mass!r}")
    return v


CHECKS = {
    "cantor-energy": check_cantor_energy,
    "segment-corona": check_segment_corona,
    "graph-sio": check_graph_sio,
    "mixture-diagnostics": check_mixture,
}
