import math

import numpy as np
import pytest
from scipy.spatial import cKDTree

from conftest import (PROFILE_CLOUDS, SWEEP_CASES, _shell_index, cone_outside_tube_check,
                      f_epsilon_candidates, graph_document, graph_through,
                      hausdorff_plane_sections, cone_row, random_cloud, theta_m_oracle)

from conical_gmt import diagnostics

from conical_gmt.diagnostics import (_shell_indices, beta2, beta_square_function,
                                     f_epsilon_set, necessary_bplg_cover,
                                     theta_m_property)
from conical_gmt.errors import EmptyBall, GraphAmbientMismatch
from conical_gmt.generators import GeneratorSpec, generate
from conical_gmt.geometry import Plane, make_plane
from conical_gmt.graphs import LipschitzGraph
from conical_gmt.measure import DiscreteMeasure

V_AXIS = make_plane([[0.0, 1.0]])
H_AXIS = make_plane([[1.0, 0.0]])


def grid_angle_oracle(m, x, r, angles=720):
    """Brute-force beta over lines through the in-ball centroid."""
    idx = m.ball_indices(x, r)
    pts, w = m.points[idx], m.weights[idx]
    centroid = np.sum(pts * w[:, None], axis=0) / np.sum(w)
    best = math.inf
    for k in range(angles):
        phi = math.pi * k / angles
        u = np.array([math.cos(phi), math.sin(phi)])
        rel = pts - centroid
        dist2 = np.sum(rel ** 2, axis=1) - (rel @ u) ** 2
        best = min(best, float(np.sum(w * np.maximum(dist2, 0.0))))
    return math.sqrt(best / r ** 3)


def test_beta_collinear_zero():
    z = np.linspace(0, 1, 30)
    m = DiscreteMeasure(np.stack([z, 2 * z], axis=1), np.full(30, 1 / 30), 1)
    b = beta2(m, np.array([0.5, 1.0]), 1.0)
    assert b.beta == pytest.approx(0.0, abs=1e-12)
    u = b.plane.basis[0]
    assert abs(abs(u @ np.array([1.0, 2.0]) / np.sqrt(5))) == pytest.approx(1.0)


def test_beta_unit_square_corners():
    m = DiscreteMeasure(np.array([[0, 0], [1, 0], [0, 1], [1, 1]], float),
                        np.full(4, 0.25), 1)
    b = beta2(m, np.array([0.5, 0.5]), 1.0)
    assert b.beta == pytest.approx(0.5, abs=1e-12)
    assert b.degenerate
    # oracle: 720-angle grid search through the centroid
    assert grid_angle_oracle(m, np.array([0.5, 0.5]), 1.0) == pytest.approx(0.5, abs=1e-9)


def test_beta_pca_beats_grid_oracle():
    for seed in range(10):
        m = random_cloud(seed, 50)
        rng = np.random.default_rng(500 + seed)
        x = rng.random(2)
        r = 0.8
        try:
            b = beta2(m, x, r)
        except EmptyBall:
            continue
        assert b.beta <= grid_angle_oracle(m, x, r) + 1e-10


def test_beta_empty_ball():
    m = DiscreteMeasure(np.array([[0.0, 0.0]]), np.array([1.0]), 1)
    with pytest.raises(EmptyBall):
        beta2(m, np.array([5.0, 5.0]), 0.1)


def test_beta_scale_invariance():
    # the formula is scale-normalized under the intrinsic scaling: points
    # and radius by s, masses by s^n
    m = random_cloud(3, 60)
    x = np.array([0.4, 0.6])
    r = 0.5
    b1 = beta2(m, x, r)
    s = 4.0
    ms = DiscreteMeasure((m.points - x) * s + x,
                         m.weights * s ** m.dim_param, 1)
    b2 = beta2(ms, x, r * s)
    assert b2.beta == pytest.approx(b1.beta, rel=1e-9)


def test_beta_minimizer_plane_meets_ball():
    m = random_cloud(11, 80)
    x = np.array([0.5, 0.5])
    b = beta2(m, x, 0.7)
    assert np.linalg.norm(b.base_point - x) <= 0.7


def test_beta_square_function_line_zero():
    m, _ = generate(GeneratorSpec("segment", {"count": 200}))
    rep = beta_square_function(m, np.array([0.5, 0.0]), [0.5, 0.25, 0.125])
    assert rep["total"] == 0.0
    assert all(b == 0 for b in rep["betas"])


def test_beta_square_function_cantor_bounded_below():
    # direct computation: the top dyadic scales all carry beta^2 >= 0.005
    m, _ = generate(GeneratorSpec("four_corner_cantor", {"generation": 6}))
    x = m.points[0]
    scales = [m.diameter() / 2 ** j for j in range(4)]
    rep = beta_square_function(m, x, scales)
    assert min(b * b for b in rep["betas"]) >= 0.005
    assert rep["total"] > 0


def test_beta_square_function_graph_coarse_dominated():
    m, _ = generate(GeneratorSpec("lipschitz_graph", {"count": 2000, "lipschitz": 0.3}))
    x = m.points[1000]
    scales = [0.5 / 2 ** j for j in range(8)]
    rep = beta_square_function(m, x, scales)
    assert np.isfinite(rep["total"]) and rep["total"] > 0
    contribs = [b * b * math.log(2) for b in rep["betas"][:-1]]
    assert contribs[0] >= 0.5 * sum(contribs)


def tangent_convergence(m: DiscreteMeasure, x, scale_grid) -> dict:
    """Paper check: the Hausdorff gap, over r, between the minimizing plane
    at each scale and the finest-scale one (the tangent surrogate), both
    sections of B(x, r), along a strictly decreasing grid."""
    scales = np.asarray(scale_grid, dtype=float)
    x = np.asarray(x, dtype=float)
    fits = [diagnostics.beta2(m, x, r) for r in scales]
    finest = fits[-1]
    values = [hausdorff_plane_sections(fit.base_point, fit.plane, finest.base_point,
                                       finest.plane, x, r) / r
              for r, fit in zip(scales, fits)]
    ratio = values[-1] / values[0] if values[0] > 0 else 0.0
    return {"values": values, "surrogate_scale": float(scales[-1]),
            "last_over_first": ratio}


def conical_density_profile(m: DiscreteMeasure, x, tangent: Plane, aperture: float,
                            scale_grid, epsilon_n: float | None = None,
                            upper_density: float | None = None) -> dict:
    """Paper check: mu(K(x, W^perp, alpha, r)) / r^n along a decreasing grid
    of scales; with a dimensional constant ``epsilon_n`` and an upper-density
    surrogate, the finest value is also compared with the threshold
    alpha^n epsilon_n upper_density."""
    mask, dist = cone_row(m.points, x, tangent.complement(), aperture)
    vals = [float(np.sum(m.weights[mask & (dist < r)])) / r ** m.dim_param
            for r in scale_grid]
    ratio = vals[-1] / vals[0] if vals[0] > 0 else 0.0
    out = {"values": vals, "last_over_first": ratio}
    if epsilon_n is not None and upper_density is not None:
        out["threshold"] = aperture ** m.dim_param * epsilon_n * upper_density
        out["finest_below_threshold"] = vals[-1] < out["threshold"]
    return out


def test_tangent_convergence_line():
    m, _ = generate(GeneratorSpec("segment", {"count": 400}))
    rep = tangent_convergence(m, np.array([0.5, 0.0]), [0.4, 0.2, 0.1, 0.05])
    assert all(v <= 1e-9 for v in rep["values"])


def test_tangent_convergence_smooth_graph_decreasing():
    m, _ = generate(GeneratorSpec("lipschitz_graph", {"count": 2000, "lipschitz": 0.3}))
    x = m.points[1000]
    rep = tangent_convergence(m, x, [0.4, 0.2, 0.1, 0.05, 0.025])
    vals = rep["values"]
    assert rep["last_over_first"] < 0.5
    # the next-to-finest scale is already within half of the coarse gap
    assert vals[-2] < 0.5 * vals[0]
    assert rep["surrogate_scale"] == pytest.approx(0.025)


def test_tangent_convergence_crossing_does_not_settle():
    z = np.linspace(-0.5, 0.5, 400)
    pts = np.vstack([np.stack([z, z], axis=1), np.stack([z, -z], axis=1)])
    m = DiscreteMeasure(pts, np.full(800, 1 / 800), 1)
    rep = tangent_convergence(m, np.zeros(2), [0.4, 0.2, 0.1, 0.05])
    assert max(rep["values"][:-1]) > 0.5


def test_conical_density_profile_line_and_cantor():
    m, _ = generate(GeneratorSpec("segment", {"count": 300}))
    rep = conical_density_profile(m, np.array([0.5, 0.0]), H_AXIS, 0.8,
                                  [0.4, 0.2, 0.1])
    assert all(v == 0 for v in rep["values"])

    mc, _ = generate(GeneratorSpec("four_corner_cantor", {"generation": 6}))
    repc = conical_density_profile(mc, mc.points[0], H_AXIS, 0.7,
                                   [0.5 / 2 ** j for j in range(5)])
    assert min(repc["values"]) >= 0.1


def test_conical_density_profile_threshold_comparison():
    # the dimensional constant is user input; the report compares the finest
    # scale against alpha^n * eps_n * (upper-density surrogate)
    m, _ = generate(GeneratorSpec("segment", {"count": 300}))
    rep = conical_density_profile(m, np.array([0.5, 0.0]), H_AXIS, 0.8,
                                  [0.4, 0.2, 0.1], epsilon_n=0.01,
                                  upper_density=2.0)
    assert rep["threshold"] == pytest.approx(0.8 * 0.01 * 2.0)
    assert rep["finest_below_threshold"]

    mc, _ = generate(GeneratorSpec("four_corner_cantor", {"generation": 5}))
    repc = conical_density_profile(mc, mc.points[0], H_AXIS, 0.7,
                                   [0.5, 0.25, 0.125], epsilon_n=0.01,
                                   upper_density=2.0)
    assert not repc["finest_below_threshold"]


def test_conical_density_profile_offset_mass_decays():
    # a graph plus one vertically offset atom: in-cone mass lives only at
    # coarse scales, so the profile decreases to zero
    mg, _ = generate(GeneratorSpec("lipschitz_graph", {"count": 500, "lipschitz": 0.2}))
    pts = np.vstack([mg.points, [[0.5, 0.3]]])
    w = np.concatenate([mg.weights * 0.9, [0.1]])
    m = DiscreteMeasure(pts, w, 1)
    x = m.points[250]
    rep = conical_density_profile(m, x, H_AXIS, 0.8, [0.8, 0.4, 0.2, 0.1])
    vals = rep["values"]
    # the offset atom sits ~0.3 above the vertex: visible at the two coarse
    # scales, gone below its distance
    assert vals[0] > 0 and vals[1] > 0
    assert vals[2] == 0.0 and vals[3] == 0.0
    assert rep["last_over_first"] == 0.0


def test_cone_outside_tube_exact_hypothesis():
    rep = cone_outside_tube_check(np.zeros(2), 1.0, H_AXIS, np.zeros(2), H_AXIS,
                                  0.5, 0.1, samples=3000, seed=7)
    assert rep["hypothesis_ok"]
    assert rep["passed"]
    assert rep["violations"] == 0


def test_cone_outside_tube_rejects_tilted_plane():
    tilted = make_plane([[1.0, 0.8]])
    rep = cone_outside_tube_check(np.zeros(2), 1.0, H_AXIS, np.zeros(2), tilted,
                                  0.5, 0.05, samples=100, seed=7)
    assert rep["hypothesis_ok"] is False
    assert rep["passed"] is None


def test_cone_outside_tube_random_valid_configs():
    rng = np.random.default_rng(42)
    for trial in range(50):
        alpha = rng.uniform(0.1, 0.8)
        eps = rng.uniform(0.0, (1 - alpha) / 3 * 0.9)
        x = rng.standard_normal(2)
        phi = rng.uniform(0, math.pi)
        w = make_plane([[math.cos(phi), math.sin(phi)]])
        r = rng.uniform(0.5, 2.0)
        # tilt and shift within the hypothesis, verified before testing
        tilt = rng.uniform(-1, 1) * eps / 4
        base = x + rng.uniform(-1, 1) * (eps * r / 4) * w.complement().basis[0]
        l_plane = make_plane([[math.cos(phi + tilt), math.sin(phi + tilt)]])
        rep = cone_outside_tube_check(x, r, w, base, l_plane, alpha, eps,
                                      samples=500, seed=trial)
        if rep["hypothesis_ok"]:
            assert rep["passed"], (alpha, eps, phi, tilt)


def brute_shell_count(pts, basis, theta, i):
    x = pts[i]
    shells = set()
    for j, y in enumerate(pts):
        if j == i:
            continue
        diff = y - x
        dist = np.linalg.norm(diff)
        perp = np.linalg.norm(diff - (diff @ basis.T) @ basis)
        if perp < theta * dist:
            k = 0
            while 2.0 ** (-k) > dist:
                k += 1
            while dist >= 2.0 ** (-k + 1):
                k -= 1
            assert 2.0 ** (-k) <= dist < 2.0 ** (-k + 1)
            shells.add(k)
    return len(shells)


def test_theta_m_line_zero():
    m, _ = generate(GeneratorSpec("segment", {"count": 100}))
    assert theta_m_property(m.points, V_AXIS, 0.9).max() == 0


def test_theta_m_two_point_construction():
    pts = np.array([[0.0, 0.0], [0.0, 1.5]])
    # |diff| = 1.5 lies in the shell [1, 2) = j index 0
    assert theta_m_property(pts, V_AXIS, 0.5).tolist() == [1, 1]


def test_theta_m_matches_brute_force():
    m = random_cloud(23, 60)
    v = make_plane([[0.3, 1.0]])
    counts = theta_m_property(m.points, v, 0.6)
    for i in range(m.size):
        assert counts[i] == brute_shell_count(m.points, v.basis, 0.6, i)


def test_shell_indices_equal_scalar_search():
    rng = np.random.default_rng(7)
    powers = np.ldexp(1.0, np.arange(-1074, 1000, 7))
    t = np.concatenate((powers, np.nextafter(powers, np.inf),
                        np.nextafter(powers[1:], 0.0), rng.random(500),
                        rng.random(200) * 1e-300, [5e-324, 1.5, 0.75, 3.0]))
    assert _shell_indices(t).tolist() == [_shell_index(float(x)) for x in t]


@pytest.mark.parametrize("m, direction, theta", SWEEP_CASES)
def test_theta_m_equals_per_atom_shell_sets(m, direction, theta):
    counts = theta_m_property(m.points, direction, theta)
    assert counts.tolist() == theta_m_oracle(m.points, direction, theta).tolist()


def test_theta_m_per_shell_monotone_in_theta():
    for seed in range(8):
        m = random_cloud(seed, 40)
        v = make_plane([[1.0, 0.5]])
        c1 = theta_m_property(m.points, v, 0.3)
        c2 = theta_m_property(m.points, v, 0.7)
        assert np.all(c1 <= c2)


def test_f_epsilon_isolated_atom():
    m = DiscreteMeasure(np.array([[0.0, 0.0]]), np.array([0.4]), 1)
    assert f_epsilon_set(m, 0.5).tolist() == [0]
    assert f_epsilon_set(m, 0.3).tolist() == []


def test_f_epsilon_dense_line_empty_then_full():
    m, _ = generate(GeneratorSpec("segment", {"count": 500}))
    assert len(f_epsilon_set(m, 0.5)) == 0
    assert len(f_epsilon_set(m, 1.0 + 1e-9)) == m.size


def test_f_epsilon_monotone_and_grid_consistency():
    for seed in range(5):
        m = random_cloud(seed, 80)
        a = set(f_epsilon_set(m, 0.05).tolist())
        b = set(f_epsilon_set(m, 0.2).tolist())
        assert a <= b
        # any explicit grid is dominated by the exact breakpoint sweep
        grid = np.geomspace(1e-3, 1.0, 50)
        c = set(f_epsilon_set(m, 0.2, r_grid=grid).tolist())
        assert c <= b


@pytest.mark.parametrize("m", PROFILE_CLOUDS)
def test_f_epsilon_reads_the_sorted_profile(m):
    # every position of the sorted profile in place of the candidate set; the
    # grid has radii equal to atom distances, and the set changes with eps
    # (the uniform Cantor set all at once)
    d = m.distances_from(m.points[0])
    grid = np.unique(np.concatenate((d[(d > 0) & (d <= 1)][::7], [0.01, 0.3, 1.0])))
    sizes = set()
    for eps in (0.05, 0.2, 0.45, 0.5, 1.0):
        got = f_epsilon_set(m, eps)
        assert got.tolist() == f_epsilon_candidates(m, eps).tolist()
        assert (f_epsilon_set(m, eps, r_grid=grid).tolist()
                == f_epsilon_candidates(m, eps, grid).tolist())
        sizes.add(len(got))
    assert len(sizes) > 1


def test_tangent_convergence_fits_each_scale_once(monkeypatch):
    m, _ = generate(GeneratorSpec("lipschitz_graph", {"count": 300, "lipschitz": 0.3}))
    calls = []
    fit = diagnostics.beta2

    def counted(m, x, r):
        calls.append(r)
        return fit(m, x, r)

    monkeypatch.setattr(diagnostics, "beta2", counted)
    scales = [0.4, 0.2, 0.1, 0.05]
    rep = tangent_convergence(m, m.points[150], scales)
    assert calls == scales
    assert rep["values"][-1] == 0.0


def flat_graph(count=60):
    z = np.linspace(0.0, 1.0, count)
    pts = np.stack([z, np.zeros_like(z)], axis=1)
    return graph_through(pts, V_AXIS, 0.8)


def test_cover_everything_on_graph():
    g = flat_graph()
    m = DiscreteMeasure(g.ambient_anchors(), np.full(g.anchor_count, 1.0 / g.anchor_count), 1)
    rep = necessary_bplg_cover(m, g)
    assert rep["off_graph_atoms"] == 0
    assert rep["chosen_balls"] == 0
    assert rep["sum_radii_n"] == 0.0


def test_cover_single_off_atom():
    g = flat_graph()
    delta = 0.2
    pts = np.vstack([g.ambient_anchors(), [[0.5, delta]]])
    w = np.full(len(pts), 1.0 / len(pts))
    m = DiscreteMeasure(pts, w, 1)
    rep = necessary_bplg_cover(m, g)
    assert rep["off_graph_atoms"] == 1
    assert rep["chosen_balls"] == 1
    # ball radius = 0.01 * distance to the nearest graph sample
    d = np.min(np.linalg.norm(g.ambient_anchors() - np.array([0.5, delta]), axis=1))
    assert rep["sum_radii_n"] == pytest.approx(0.01 * d)
    assert rep["disjoint"] and rep["all_covered"]
    assert rep["cone_violations"] == []


def test_cover_mixture_exhaustive():
    mg, _ = generate(GeneratorSpec("lipschitz_graph", {"count": 400, "lipschitz": 0.4}))
    mc, _ = generate(GeneratorSpec("four_corner_cantor", {"generation": 4}))
    pts = np.vstack([mg.points, mc.points * 0.5 + np.array([0.25, 0.35])])
    w = np.concatenate([mg.weights * 0.5, mc.weights * 0.5])
    m = DiscreteMeasure(pts, w, 1)
    graph = graph_through(mg.points, V_AXIS, 0.8)
    rep = necessary_bplg_cover(m, graph)
    assert rep["disjoint"]
    assert rep["all_covered"]
    assert rep["cone_violations"] == []
    assert rep["sum_radii_n"] > 0
    assert rep["ratio"] > 0


def graph_cantor_mixture():
    """The cloud and graph of ``test_cover_mixture_exhaustive``."""
    mg, _ = generate(GeneratorSpec("lipschitz_graph", {"count": 400, "lipschitz": 0.4}))
    mc, _ = generate(GeneratorSpec("four_corner_cantor", {"generation": 4}))
    pts = np.vstack([mg.points, mc.points * 0.5 + np.array([0.25, 0.35])])
    w = np.concatenate([mg.weights * 0.5, mc.weights * 0.5])
    return DiscreteMeasure(pts, w, 1), graph_through(mg.points, V_AXIS, 0.8)


def greedy_cover_oracle(m, graph):
    """Off-graph atoms, their radii and the chosen balls' positions among
    them, by the greedy thinning with one scalar distance per chosen ball."""
    gdist, _ = cKDTree(graph.ambient_anchors()).query(m.points, k=1)
    off = np.nonzero(gdist > 0)[0]
    radii = 0.01 * gdist[off]
    chosen = []
    for t in sorted(range(len(off)), key=lambda t: (-radii[t], off[t])):
        if all(np.linalg.norm(m.points[off[t]] - m.points[off[u]]) >= radii[t] + radii[u]
               for u in chosen):
            chosen.append(t)
    return off, radii, chosen


def test_cover_greedy_equals_pairwise_loop():
    m, graph = graph_cantor_mixture()
    _, radii, chosen = greedy_cover_oracle(m, graph)
    rep = necessary_bplg_cover(m, graph)
    assert rep["chosen_balls"] == len(chosen) > 1
    assert rep["sum_radii_n"] == float(np.sum(radii[chosen]))
    assert rep["disjoint"]


def graph_hugging_cloud():
    """A flat graph's samples plus 300 atoms at heights 1e-4 to 0.3 above it."""
    g = flat_graph(200)
    rng = np.random.default_rng(3)
    z = rng.random(300)
    h = 10.0 ** rng.uniform(-4.0, np.log10(0.3), 300)
    pts = np.vstack([g.ambient_anchors(), np.stack([z, h], axis=1)])
    return DiscreteMeasure(pts, np.full(len(pts), 1.0 / len(pts)), 1), g


@pytest.mark.parametrize("case, aperture", [
    (graph_cantor_mixture, None), (graph_hugging_cloud, None), (graph_hugging_cloud, 0.9),
], ids=["mixture", "hugging", "hugging-wide"])
def test_cover_coverage_and_cone_voids_equal_unfiltered_loop(case, aperture):
    # oracle: full-cloud 5r scans and a cone test over every graph sample for
    # each (chosen ball, atom within 5r) pair.  Every atom within 5r of a
    # centre is at least 95r from the samples, so no sample is within the
    # cone's outer radius r and neither side can report a violation
    m, graph = case()
    off, radii, chosen = greedy_cover_oracle(m, graph)
    rep = necessary_bplg_cover(m, graph, aperture)
    samples, covered, voids = graph.ambient_anchors(), np.zeros(m.size, bool), []
    for j, t in enumerate(chosen):
        c, rc = m.points[off[t]], radii[t]
        near = np.flatnonzero(np.linalg.norm(m.points - c[None, :], axis=1) < 5 * rc)
        covered[near] = True
        for y in near:
            mask, dist = cone_row(samples, m.points[y], graph.normal, rep["aperture"])
            if np.any(mask & (dist < rc)):
                voids.append((j, int(y)))
    assert rep["chosen_balls"] == len(chosen) > 1
    assert rep["all_covered"] == bool(np.all(covered[off]))
    assert rep["cone_violations"] == voids == []


def test_cover_ambient_mismatch():
    g = flat_graph()
    m = DiscreteMeasure(np.zeros((3, 3)) + np.eye(3), np.ones(3), 1)
    with pytest.raises(GraphAmbientMismatch):
        necessary_bplg_cover(m, g)


def test_hausdorff_segments_closed_form():
    # hand case: two parallel chords of the unit disk at heights 0 and h
    h = 0.3
    a_base, b_base = np.zeros(2), np.array([0.0, h])
    val = hausdorff_plane_sections(a_base, H_AXIS, b_base, H_AXIS,
                                   np.zeros(2), 1.0)
    # endpoints of the shorter chord are sqrt(1 - h^2) from the center; the
    # farthest point of the long chord from the short one is its endpoint
    long_end = np.array([1.0, 0.0])
    short_end = np.array([math.sqrt(1 - h * h), h])
    expect = max(h, float(np.linalg.norm(long_end - short_end)))
    assert val == pytest.approx(expect, abs=1e-12)


def test_graph_json_roundtrip():
    g = flat_graph(20)
    data = graph_document(g)
    back = LipschitzGraph.from_json(data)
    assert np.allclose(back.ambient_anchors(), g.ambient_anchors())
    assert back.lip_measured == g.lip_measured
