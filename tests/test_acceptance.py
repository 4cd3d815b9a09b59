"""Acceptance suite: one test per criterion, each printing a PASS line with
its measured statistic and wall time.  Run with `pytest tests/test_acceptance.py -v -s`.
"""

import math
import time

import numpy as np
import pytest

from conftest import (cone_outside_tube_check, graph_through, point_energy, random_cloud,
                      riesz_cone_sum, truncated_transform)

from conical_gmt.corona import CoronaParams, build_top, verify_corona
from conical_gmt.diagnostics import (beta2, f_epsilon_set, necessary_bplg_cover,
                                     theta_m_property)
from conical_gmt.energy import EnergySpec
from conical_gmt.generators import GeneratorSpec, generate
from conical_gmt.geometry import make_plane, sample_grassmannian
from conical_gmt.lattice import build_lattice, natural_depth
from conical_gmt.measure import DiscreteMeasure
from conical_gmt.sio import (TruncationGrid, builtin_kernels, norm_vs_generation,
                             operator_norm_profile)

V_AXIS = make_plane([[0.0, 1.0]])


def report(num: int, ok: bool, detail: str, elapsed: float, budget: float):
    line = (f"criterion {num}: {'PASS' if ok else 'FAIL'} ({detail}; "
            f"{elapsed:.1f}s of {budget:.0f}s budget)")
    print(line)
    assert ok, line
    assert elapsed < budget, line


def test_criterion_1_layer_cake_identity():
    t0 = time.perf_counter()
    worst = 0.0
    for seed in range(20):
        m = random_cloud(seed, 500)
        v = sample_grassmannian(2, 1, 1, seed=seed)[0]
        spec = EnergySpec(v, 0.7, 1.0, np.inf)
        for i in range(m.size):
            lhs = point_energy(m, m.points[i], spec)
            rhs = riesz_cone_sum(m, m.points[i], v, 0.7)
            if rhs == 0.0:
                assert lhs == 0.0
            else:
                worst = max(worst, abs(lhs - rhs) / rhs)
    elapsed = time.perf_counter() - t0
    report(1, worst <= 1e-9, f"max rel err {worst:.2e}", elapsed, 10.0)


def test_criterion_2_cone_avoidance():
    t0 = time.perf_counter()
    checked = 0
    for lip in (0.0, 0.25, 0.5):
        alpha = 0.9 / math.sqrt(1.0 + lip * lip)
        m, _ = generate(GeneratorSpec("lipschitz_graph",
                                      {"count": 2000, "lipschitz": lip}))
        spec = EnergySpec(V_AXIS, alpha, 1.0, np.inf)
        for i in range(m.size):
            assert point_energy(m, m.points[i], spec) == 0.0
            checked += 1
    elapsed = time.perf_counter() - t0
    report(2, True, f"{checked} sample points exactly zero", elapsed, 5.0)


def _mean_energy(m: DiscreteMeasure, spec: EnergySpec) -> float:
    return float(np.mean([point_energy(m, m.points[i], spec) for i in range(m.size)]))


@pytest.mark.slow
def test_criterion_3_energy_dichotomy():
    t0 = time.perf_counter()
    spec = EnergySpec(V_AXIS, 0.8, 1.0, 1.0)
    gens = [3, 4, 5, 6, 7]
    means = []
    for g in gens:
        m, _ = generate(GeneratorSpec("four_corner_cantor", {"generation": g}))
        means.append(_mean_energy(m, spec))
    increasing = all(b > a for a, b in zip(means, means[1:]))
    xs = np.asarray(gens, float)
    ys = np.asarray(means)
    slope, intercept = np.polyfit(xs, ys, 1)
    pred = slope * xs + intercept
    r2 = 1.0 - float(np.sum((ys - pred) ** 2) / np.sum((ys - ys.mean()) ** 2))

    graph_means = []
    for count in (256, 1024, 4096):
        mg, _ = generate(GeneratorSpec("lipschitz_graph",
                                       {"count": count, "lipschitz": 0.5}))
        graph_means.append(_mean_energy(mg, spec))
    top = max(graph_means)
    variation = 0.0 if top == 0 else (top - min(graph_means)) / top
    elapsed = time.perf_counter() - t0
    ok = increasing and slope > 0 and r2 > 0.9 and variation < 0.5
    report(3, ok, f"slope {slope:.3f}, R2 {r2:.4f}, graph variation {variation:.2f}",
           elapsed, 120.0)


def test_criterion_4_beta_correctness():
    t0 = time.perf_counter()
    worst_gap = -np.inf
    for seed in range(50):
        m = random_cloud(seed, 60)
        rng = np.random.default_rng(900 + seed)
        x = rng.random(2)
        r = 0.8
        idx = m.ball_indices(x, r)
        if len(idx) == 0:
            continue
        fit = beta2(m, x, r)
        pts, w = m.points[idx], m.weights[idx]
        centroid = np.sum(pts * w[:, None], axis=0) / np.sum(w)
        rel = pts - centroid
        best = np.inf
        for k in range(720):
            phi = math.pi * k / 720
            u = np.array([math.cos(phi), math.sin(phi)])
            resid = float(np.sum(w * (np.sum(rel ** 2, axis=1) - (rel @ u) ** 2)))
            best = min(best, resid)
        grid_beta = math.sqrt(max(best, 0.0) / r ** 3)
        worst_gap = max(worst_gap, fit.beta - grid_beta)

    corners = DiscreteMeasure(np.array([[0, 0], [1, 0], [0, 1], [1, 1]], float),
                              np.full(4, 0.25), 1)
    b = beta2(corners, np.array([0.5, 0.5]), 1.0)
    corner_ok = abs(b.beta - 0.5) <= 1e-12 and b.degenerate
    elapsed = time.perf_counter() - t0
    ok = worst_gap <= 1e-10 and corner_ok
    report(4, ok, f"max PCA-grid gap {worst_gap:.2e}, corner beta {b.beta}",
           elapsed, 30.0)


def _lattice_invariants_exact(lat) -> bool:
    size = lat.measure.size
    for lvl in lat.levels:
        members = np.concatenate([lat.cubes[i].members for i in lvl])
        if len(members) != size or len(np.unique(members)) != size:
            return False
        cubes = [lat.cubes[i] for i in lvl]
        for i in range(len(cubes)):
            for j in range(i + 1, len(cubes)):
                d = np.linalg.norm(cubes[i].center - cubes[j].center)
                if d < 5 * (cubes[i].radius + cubes[j].radius):
                    return False
    for q in lat.cubes:
        if q.parent is not None:
            if not set(q.members).issubset(set(lat.cubes[q.parent].members)):
                return False
    return True


@pytest.mark.slow
def test_criterion_5_corona_structural_suite():
    t0 = time.perf_counter()
    params = CoronaParams(plane=V_AXIS, aperture=0.8)
    inputs = {
        "line": generate(GeneratorSpec("segment", {"count": 1000}))[0],
        "graph": generate(GeneratorSpec("lipschitz_graph",
                                        {"count": 1000, "lipschitz": 0.5}))[0],
        "cantor5": generate(GeneratorSpec("four_corner_cantor", {"generation": 5}))[0],
    }
    details = []
    ok = True
    for name, m in inputs.items():
        lat = build_lattice(m, 2.0, 8.0, natural_depth(m))
        assert _lattice_invariants_exact(lat), f"{name}: lattice invariants"
        res = build_top(lat, params)
        # (b) exact tree partition
        assert set(res.tr_assignment.keys()) == {q.id for q in lat.cubes}
        top_set = set(res.top_ids)
        for q in lat.cubes:
            cur = q
            while cur.id not in top_set:
                cur = lat.cubes[cur.parent]
            assert res.tr_assignment[q.id] == cur.id, f"{name}: partition"
        # (c) + (d) via the verification report's hard checks
        ver = verify_corona(res)
        assert ver["passed"], (name, ver["failures"])
        ratio = res.ledger["ratio"]
        assert np.isfinite(ratio), name
        if name == "line":
            assert ratio < 10.0, f"line ratio {ratio}"
        details.append(f"{name} ratio {ratio:.3g}")
        ok = ok and ver["passed"]
    elapsed = time.perf_counter() - t0
    report(5, ok, "; ".join(details), elapsed, 120.0)


@pytest.mark.slow
def test_criterion_6_sio_suite():
    t0 = time.perf_counter()
    cauchy = builtin_kernels(1, 2)["cauchy"]
    # (a) symmetric pair exactly zero
    pair = DiscreteMeasure(np.array([[-1.0, 0.0], [1.0, 0.0]]),
                           np.array([0.5, 0.5]), 1)
    assert np.array_equal(truncated_transform(pair, cauchy, 0.5, np.zeros(2)),
                          np.zeros(2))
    # (b) the 2x2 hand case
    two = DiscreteMeasure(np.array([[0.0, 0.0], [1.0, 0.0]]),
                          np.array([0.5, 0.5]), 1)
    nrm = operator_norm_profile(two, cauchy, TruncationGrid(np.array([0.5])))[0].norm
    assert abs(nrm - 0.5) <= 1e-9

    # (c) generation trends with breakpoint grids truncated to 64 values
    def cantor(g):
        return generate(GeneratorSpec("four_corner_cantor", {"generation": g}))[0]

    def graph(k):
        return generate(GeneratorSpec("lipschitz_graph",
                                      {"count": k, "lipschitz": 0.5}))[0]

    cant = norm_vs_generation(cantor, cauchy, [2, 3, 4, 5, 6],
                              grid_cap=64, max_iter=48)
    grph = norm_vs_generation(graph, cauchy, [256, 1024, 4096],
                              grid_cap=64, max_iter=48)
    elapsed = time.perf_counter() - t0
    ok = (cant["strictly_increasing"] and grph["max_over_min"] <= 1.5)
    report(6, ok,
           f"cantor sups {[round(r['sup_norm'], 3) for r in cant['rows']]}, "
           f"graph max/min {grph['max_over_min']:.3f}", elapsed, 180.0)


def test_criterion_7_cone_outside_tube_fuzz():
    t0 = time.perf_counter()
    rng = np.random.default_rng(777)
    valid = 0
    violations = 0
    while valid < 10_000:
        alpha = rng.uniform(0.1, 0.85)
        eps = rng.uniform(1e-4, (1 - alpha) / 3 * 0.9)
        phi = rng.uniform(0, math.pi)
        x = rng.standard_normal(2) * 2
        r = rng.uniform(0.2, 3.0)
        w = make_plane([[math.cos(phi), math.sin(phi)]])
        tilt = rng.uniform(-1, 1) * eps / 4
        shift = rng.uniform(-1, 1) * eps * r / 4
        base = x + shift * w.complement().basis[0]
        l_plane = make_plane([[math.cos(phi + tilt), math.sin(phi + tilt)]])
        rep = cone_outside_tube_check(x, r, w, base, l_plane, alpha, eps,
                                      samples=1000, seed=int(rng.integers(2 ** 31)))
        if not rep["hypothesis_ok"]:
            continue
        valid += 1
        violations += rep["violations"]
    elapsed = time.perf_counter() - t0
    report(7, violations == 0, f"{valid} valid configs, {violations} violations",
           elapsed, 60.0)


def test_criterion_8_theta_m_and_f_eps():
    t0 = time.perf_counter()
    line, _ = generate(GeneratorSpec("segment", {"count": 400}))
    assert theta_m_property(line.points, V_AXIS, 0.9).max() == 0
    assert len(f_epsilon_set(line, 0.5)) == 0

    def brute_count(pts, basis, theta, i):
        shells = set()
        for j, y in enumerate(pts):
            if j == i:
                continue
            diff = y - pts[i]
            dist = np.linalg.norm(diff)
            perp = np.linalg.norm(diff - (diff @ basis.T) @ basis)
            if perp < theta * dist:
                k = math.ceil(-math.log2(dist))
                while dist < 2.0 ** (-k):
                    k += 1
                while dist >= 2.0 ** (-k + 1):
                    k -= 1
                shells.add(k)
        return len(shells)

    for seed in range(20):
        m = random_cloud(seed, 40)
        v = make_plane([[1.0, 0.4]])
        c_small = theta_m_property(m.points, v, 0.35)
        c_big = theta_m_property(m.points, v, 0.75)
        assert np.all(c_small <= c_big)
        for i in range(m.size):
            assert c_big[i] == brute_count(m.points, v.basis, 0.75, i)
        small = set(f_epsilon_set(m, 0.05).tolist())
        big = set(f_epsilon_set(m, 0.25).tolist())
        assert small <= big
    elapsed = time.perf_counter() - t0
    report(8, True, "20 clouds, per-shell and eps-set monotonicity", elapsed, 30.0)


def test_criterion_9_vitali_cover():
    t0 = time.perf_counter()
    checked = []
    for seed, (gcount, ggen) in enumerate([(1000, 4), (1200, 5)]):
        mg, _ = generate(GeneratorSpec("lipschitz_graph",
                                       {"count": gcount, "lipschitz": 0.4}))
        mc, _ = generate(GeneratorSpec("four_corner_cantor", {"generation": ggen}))
        keep = min(2000 - gcount, mc.size)
        rng = np.random.default_rng(seed)
        sel = np.sort(rng.choice(mc.size, keep, replace=False))
        pts = np.vstack([mg.points, mc.points[sel] * 0.5 + np.array([0.25, 0.3])])
        w = np.concatenate([mg.weights * 0.5,
                            np.full(keep, 0.5 / keep)])
        m = DiscreteMeasure(pts, w, 1)
        graph = graph_through(mg.points, V_AXIS, 0.8)
        rep = necessary_bplg_cover(m, graph)
        assert rep["disjoint"], seed
        assert rep["all_covered"], seed
        assert rep["cone_violations"] == [], seed
        checked.append(rep["chosen_balls"])
    elapsed = time.perf_counter() - t0
    report(9, True, f"disjoint covers with {checked} balls", elapsed, 30.0)
