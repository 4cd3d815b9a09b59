import json
import math
import warnings

import numpy as np
import pytest
from scipy.integrate import IntegrationWarning, quad

from conftest import SWEEP_CASES, _cone_energy, random_cloud

from conical_gmt import energy
from conical_gmt.energy import (EnergySpec, _direction_energies, _in_cone_jumps,
                                ball_energy,
                                bme_check, bpbe_scan, cube_energy,
                                pointwise_energies, pointwise_energy,
                                projection_energy_check,
                                riesz_cone_sum, total_energy, window_energies)
from conical_gmt.errors import MissingDirection
from conical_gmt.generators import GeneratorSpec, generate
from conical_gmt.geometry import cone_dist, cone_mask, make_plane, sample_grassmannian
from conical_gmt.lattice import build_lattice
from conical_gmt.measure import DiscreteMeasure

V_AXIS = make_plane([[0.0, 1.0]])


def quad_energy(m: DiscreteMeasure, x, direction, alpha, p, lo, hi) -> float:
    """Numeric-quadrature oracle for the multiscale cone integral."""
    mask = cone_mask(m.points, np.asarray(x, float), direction, alpha)
    d = np.linalg.norm(m.points[mask] - np.asarray(x, float)[None, :], axis=1)
    w = m.weights[mask]
    n = m.dim_param

    def integrand(r):
        return (np.sum(w[d < r]) / r ** n) ** p / r

    if len(d) == 0:
        return 0.0
    points = np.unique(d[(d > lo) & (d < hi)])
    lo_eff = max(lo, float(d.min()))
    if lo_eff >= hi:
        return 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        val, _ = quad(integrand, lo_eff, hi, points=points, limit=400)
    return val


def atom_at(pos, w=1.0):
    return DiscreteMeasure(np.array([pos], float), np.array([w]), 1)


def test_single_atom_energy_p1():
    # oracle: quadrature of the step integrand; analytic value 1.0
    m = atom_at((0.0, 0.5))
    spec = EnergySpec(V_AXIS, 0.8, 1.0, 1.0)
    bd = pointwise_energy(m, np.zeros(2), spec)
    assert bd.total == pytest.approx(1.0, abs=1e-12)
    assert quad_energy(m, np.zeros(2), V_AXIS, 0.8, 1.0, 0.0, 1.0) == pytest.approx(bd.total, abs=1e-9)
    assert bd.in_cone_count == 1


def test_single_atom_energy_p2():
    m = atom_at((0.0, 0.5))
    spec = EnergySpec(V_AXIS, 0.8, 2.0, 1.0)
    bd = pointwise_energy(m, np.zeros(2), spec)
    assert bd.total == pytest.approx(1.5, abs=1e-12)
    assert quad_energy(m, np.zeros(2), V_AXIS, 0.8, 2.0, 0.0, 1.0) == pytest.approx(bd.total, abs=1e-9)


def test_energy_zero_on_complement_support():
    m, _ = generate(GeneratorSpec("segment", {"count": 100}))
    spec = EnergySpec(V_AXIS, 0.9, 1.0, np.inf)
    for i in (0, 50, 99):
        assert pointwise_energy(m, m.points[i], spec).total == 0.0


def test_closed_form_matches_quadrature_random():
    for seed in (1, 2, 3):
        m = random_cloud(seed, 120)
        rng = np.random.default_rng(100 + seed)
        x = rng.random(2)
        alpha = rng.uniform(0.3, 0.9)
        p = rng.choice([1.0, 2.0])
        spec = EnergySpec(V_AXIS, alpha, p, 1.5)
        got = pointwise_energy(m, x, spec).total
        want = quad_energy(m, x, V_AXIS, alpha, p, 0.0, 1.5)
        assert got == pytest.approx(want, rel=1e-8, abs=1e-12)


def test_riesz_cone_sum_hand_value():
    m = atom_at((0.0, 0.5))
    assert riesz_cone_sum(m, np.zeros(2), V_AXIS, 0.8) == pytest.approx(2.0)


def test_riesz_cone_sum_empty():
    m, _ = generate(GeneratorSpec("segment", {"count": 20}))
    assert riesz_cone_sum(m, np.array([0.5, 0.0]), V_AXIS, 0.9) == 0.0


def test_layer_cake_identity_random_clouds():
    # the two sides are computed by independent code paths
    m = random_cloud(8, 500)
    spec = EnergySpec(V_AXIS, 0.7, 1.0, np.inf)
    for i in range(0, 500, 25):
        x = m.points[i]
        lhs = pointwise_energy(m, x, spec).total
        rhs = riesz_cone_sum(m, x, V_AXIS, 0.7)
        assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-15)


def test_aperture_and_scale_monotonicity(rng):
    m = random_cloud(21, 150)
    x = rng.random(2)
    e = [pointwise_energy(m, x, EnergySpec(V_AXIS, a, 1.0, 1.0)).total
         for a in (0.3, 0.5, 0.8)]
    assert e[0] <= e[1] <= e[2]
    s = [pointwise_energy(m, x, EnergySpec(V_AXIS, 0.6, 1.0, R)).total
         for R in (0.5, 1.0, 2.0)]
    assert s[0] <= s[1] <= s[2]


def test_homogeneity_under_dilation(rng):
    m = random_cloud(31, 100)
    s = 2.5
    scaled = DiscreteMeasure(m.points * s, m.weights, 1)
    x = rng.random(2)
    for p in (1.0, 2.0):
        e1 = pointwise_energy(m, x, EnergySpec(V_AXIS, 0.6, p, 1.0)).total
        e2 = pointwise_energy(scaled, x * s, EnergySpec(V_AXIS, 0.6, p, s * 1.0)).total
        assert e2 == pytest.approx(e1 * s ** (-m.dim_param * p), rel=1e-12)


def test_lipschitz_graph_cone_avoidance():
    for lip in (0.0, 0.25, 0.5):
        alpha = 0.9 / np.sqrt(1 + lip ** 2)
        m, _ = generate(GeneratorSpec(
            "lipschitz_graph", {"count": 400, "lipschitz": lip}))
        spec = EnergySpec(V_AXIS, alpha, 1.0, np.inf)
        for i in range(0, 400, 40):
            assert pointwise_energy(m, m.points[i], spec).total == 0.0


def test_exponent_comparison_pointwise(rng):
    # E_q <= (sup cone density)^(q-p) E_p with the per-point supremum
    m = random_cloud(41, 200)
    for _ in range(10):
        x = rng.random(2)
        e1 = pointwise_energy(m, x, EnergySpec(V_AXIS, 0.7, 1.0, 2.0))
        e2 = pointwise_energy(m, x, EnergySpec(V_AXIS, 0.7, 2.0, 2.0))
        if e1.total == 0:
            assert e2.total == 0
            continue
        c1 = float(np.max(e1.cumulative_mass / e1.jump_radii ** m.dim_param))
        assert e2.total <= c1 * e1.total * (1 + 1e-12)


def test_ball_energy_cases(rng):
    m, _ = generate(GeneratorSpec("segment", {"count": 60}))
    spec = EnergySpec(V_AXIS, 0.9, 1.0, np.inf)
    assert ball_energy(m, np.array([0.5, 0.0]), 0.3, spec) == 0.0

    # two stacked atoms: with r(B) = 0.2 only the lower atom is in the ball
    # and its cone mass sits at distance 0.4 > r(B), so the energy is zero
    m2 = DiscreteMeasure(np.array([[0.0, 0.0], [0.0, 0.4]]), np.array([0.3, 0.7]), 1)
    assert ball_energy(m2, np.zeros(2), 0.2, spec) == 0.0
    # with r(B) = 0.5 both atoms are vertices; hand sum
    # w0 * int_{0.4}^{0.5} (0.7/r) dr/r + w1 * int_{0.4}^{0.5} (0.3/r) dr/r
    got2 = ball_energy(m2, np.zeros(2), 0.5, spec)
    hand = 0.3 * 0.7 * (1 / 0.4 - 1 / 0.5) + 0.7 * 0.3 * (1 / 0.4 - 1 / 0.5)
    assert got2 == pytest.approx(hand, rel=1e-12)
    want = sum(m2.weights[i] * quad_energy(m2, m2.points[i], V_AXIS, 0.9, 1.0, 0.0, 0.5)
               for i in range(2))
    assert got2 == pytest.approx(want, rel=1e-9)


def test_ball_energy_brute_force_cantor():
    m, _ = generate(GeneratorSpec("four_corner_cantor", {"generation": 4}))
    spec = EnergySpec(V_AXIS, 0.8, 1.0, np.inf)
    radius = 2.0
    center = np.array([0.5, 0.5])
    got = ball_energy(m, center, radius, spec)
    # oracle: brute-force double loop over (vertex, interval) pairs
    want = 0.0
    for i in range(m.size):
        want += m.weights[i] * quad_energy(m, m.points[i], V_AXIS, 0.8, 1.0, 0.0, radius)
    assert got == pytest.approx(want, rel=1e-7)


def test_cube_energy_matches_quadrature():
    m, _ = generate(GeneratorSpec("four_corner_cantor", {"generation": 3}))
    lat = build_lattice(m, 2.0, 8.0, 4)
    spec = EnergySpec(V_AXIS, 0.8, 1.0, np.inf, 0.1)
    nm = lat.measure
    for cid in (0, len(lat.cubes) // 2, len(lat.cubes) - 1):
        q = lat.cubes[cid]
        got = cube_energy(lat, q, spec)
        lo, hi = 0.1 * q.radius, q.radius / 0.1
        vidx = nm.ball_indices(q.center, 2 * q.ball_radius)
        want = sum(nm.weights[i] * quad_energy(nm, nm.points[i], V_AXIS, 0.8, 1.0, lo, hi)
                   for i in vidx) / q.mass
        assert got == pytest.approx(want, rel=1e-7, abs=1e-8)


def test_cube_energy_zero_for_flat_cloud():
    m, _ = generate(GeneratorSpec("segment", {"count": 64}))
    lat = build_lattice(m, 2.0, 8.0, 3)
    spec = EnergySpec(V_AXIS, 0.9, 1.0, np.inf, 0.1)
    assert cube_energy(lat, lat.root, spec) == 0.0


def test_window_energies_prefix_windows_match_single_windows():
    # dyadic Cantor grid: vertically aligned atoms sit at exactly dyadic
    # distances inside the cone around V = e2, so windows can end exactly on
    # in-cone distances
    m, _ = generate(GeneratorSpec("four_corner_cantor", {"generation": 4}))
    spec = EnergySpec(V_AXIS, 0.8, 1.5, np.inf)
    x = m.points[5]
    radii, _, _ = _in_cone_jumps(m.points, m.weights, x, V_AXIS, 0.8)
    same_column = (m.points[:, 0] == x[0]) & (m.points[:, 1] != x[1])
    ties = np.unique(np.abs(m.points[same_column, 1] - x[1]))
    assert len(ties) > 4 and np.all(np.isin(ties, radii))
    # the profile capped at a tie is the strict prefix of the full one: the
    # atom at distance exactly hi is outside, as in cone_mask
    for tie in ties:
        capped, _, _ = _in_cone_jumps(m.points, m.weights, x, V_AXIS, 0.8, tie)
        assert np.array_equal(capped, radii[radii < tie])

    windows = [(0.0, float(t)) for t in ties]
    windows += [(0.01, 0.05), (ties[0] / 2, 2 * ties[0]), (0.0, np.inf)]
    idx = np.arange(m.size)
    got = window_energies(m, idx, spec, windows)
    assert got.shape == (m.size, len(windows))
    assert np.any(got[:, len(ties) - 1] > 0)
    for col, window in enumerate(windows):
        single = window_energies(m, idx, spec, [window])[:, 0]
        assert np.array_equal(got[:, col], single)


def test_bpbe_line_normal_direction_passes():
    m, _ = generate(GeneratorSpec("segment", {"count": 200}))
    balls = [(np.array([0.5, 0.0]), 1.0)]
    rep = bpbe_scan(m, balls, 0.8, 1.0, energy_bound=0.0, mass_fraction=1.0,
                    direction_samples=2, seed=3, pinned_directions=[V_AXIS])
    assert rep["all_pass"]
    ball = rep["balls"][0]
    assert ball["passing_fraction"] == 1.0


@pytest.mark.slow
def test_bpbe_cantor_gen6_fails_every_direction():
    # oracle: exhaustive pointwise-energy computation at generation 6; the
    # smallest per-direction failing fraction stays far below kappa = 0.9
    m, _ = generate(GeneratorSpec("four_corner_cantor", {"generation": 6}))
    balls = [(m.points[0], float(m.diameter() * 1.01))]
    rep = bpbe_scan(m, balls, 0.8, 1.0, energy_bound=0.5, mass_fraction=0.9,
                    direction_samples=6, seed=11)
    assert not rep["all_pass"]
    assert rep["balls"][0]["passing_fraction"] < 0.9


def test_bpbe_outlier_with_kappa_one():
    # one far atom with positive energy fails kappa = 1 for any direction
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [1.0, 0.1]])
    m = DiscreteMeasure(pts, np.full(4, 0.25), 1)
    balls = [(np.array([1.0, 0.0]), 3.0)]
    rep = bpbe_scan(m, balls, 0.95, 1.0, energy_bound=0.05, mass_fraction=1.0,
                    direction_samples=8, seed=5)
    assert not rep["all_pass"]


def oracle_table(m, vertex_idx, directions, aperture, exponent, radius):
    """One full-cloud cone test, sort and step integral per (atom, direction)."""
    return np.array([[_cone_energy(m.points, m.weights, m.points[i], v, aperture,
                                   m.dim_param, exponent, 0.0, radius)
                      for v in directions] for i in vertex_idx]).reshape(
        len(vertex_idx), len(directions))


def assert_scan_matches_oracle(monkeypatch, m, balls, aperture, exponent,
                               samples, seed, pinned=None):
    """bpbe_scan's table and JSON report equal those of the oracle table."""
    d, n = m.ambient_dim, m.dim_param
    directions = list(pinned or []) + sample_grassmannian(d, d - n, samples, seed)
    for center, radius in balls:
        idx = m.ball_indices(center, radius)
        got = _direction_energies(m, idx, directions, aperture, exponent, radius)
        want = oracle_table(m, idx, directions, aperture, exponent, radius)
        assert np.array_equal(got, want)
    args = (m, balls, aperture, exponent, 0.5, 0.9, samples, seed, pinned)
    rep = json.dumps(bpbe_scan(*args))
    with monkeypatch.context() as mp:
        mp.setattr(energy, "_direction_energies", oracle_table)
        assert rep == json.dumps(bpbe_scan(*args))
    return json.loads(rep)


def mixture_cloud():
    comps = [{"spec": {"kind": "lipschitz_graph", "seed": 4,
                       "params": {"count": 744, "lipschitz": 0.5, "jitter": 0.5}}},
             {"spec": {"kind": "four_corner_cantor", "params": {"generation": 4}},
              "offset": [1.25, -0.5]}]
    m, _ = generate(GeneratorSpec("mixture", {"components": comps}, 4))
    return m


def test_direction_table_matches_oracle_on_mixture_p2(monkeypatch):
    m = mixture_cloud()
    assert m.size == 1000
    balls = [(m.points[372], 0.35), (np.array([1.75, 0.0]), 0.5)]
    rep = assert_scan_matches_oracle(monkeypatch, m, balls, 0.8, 2.0, 4, 6)
    assert any(b["mean_energy"] > 0 for b in rep["balls"])


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
def test_direction_table_matches_oracle_on_cantor_ties(monkeypatch, p):
    # both axis planes pinned: dyadic cone-boundary ties at alpha = 0.8
    m, _ = generate(GeneratorSpec("four_corner_cantor", {"generation": 5}))
    pinned = [make_plane([[1.0, 0.0]]), V_AXIS]
    balls = [(m.points[0], 0.7), (np.array([0.5, 0.5]), 2.0)]
    assert_scan_matches_oracle(monkeypatch, m, balls, 0.8, p, 2, 9, pinned)


def test_direction_table_matches_oracle_with_duplicate_atoms(monkeypatch, rng):
    pts = rng.random((150, 2))
    pts[50:80] = pts[:30]
    pts[80:90] = pts[0]
    m = DiscreteMeasure(pts, rng.random(150) + 0.1, 1)
    balls = [(pts[0], 0.4), (np.array([0.5, 0.5]), 1.0)]
    assert_scan_matches_oracle(monkeypatch, m, balls, 0.8, 2.0, 3, 2, [V_AXIS])


def test_direction_table_degenerate_balls(monkeypatch):
    # a ball whose atoms see no in-cone neighbour, a one-atom ball and an
    # empty ball
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [5.0, 5.0]])
    m = DiscreteMeasure(pts, np.full(4, 0.25), 1)
    balls = [(np.array([1.0, 0.0]), 1.5), (pts[3], 0.5), (np.array([9.0, 9.0]), 1.0)]
    rep = assert_scan_matches_oracle(monkeypatch, m, balls, 0.5, 2.0, 2, 1, [V_AXIS])
    assert [b["ball_mass"] for b in rep["balls"]] == [0.75, 0.25, 0.0]
    assert _direction_energies(m, [0, 1, 2], [V_AXIS], 0.5, 2.0, 1.5).sum() == 0.0


def test_direction_table_is_chunk_independent(monkeypatch):
    m = mixture_cloud()
    idx = m.ball_indices(m.points[372], 0.35)
    directions = [V_AXIS] + sample_grassmannian(2, 1, 12, 7)
    whole = _direction_energies(m, idx, directions, 0.8, 2.0, 0.35)
    monkeypatch.setattr(energy, "_DIRECTION_BLOCK", 3 * len(idx))
    chunked = _direction_energies(m, idx, directions, 0.8, 2.0, 0.35)
    assert np.count_nonzero(whole) > 0
    assert np.array_equal(chunked, whole)


def test_bme_ratios_equal_left_to_right_oracle_sum():
    m = mixture_cloud()
    planes = [V_AXIS] + sample_grassmannian(2, 1, 3, 5)
    assignment = {i: planes[i % len(planes)] for i in range(m.size)}
    balls = [(m.points[372], 0.35), (np.array([1.75, 0.0]), 0.5),
             (np.array([9.0, 9.0]), 1.0)]
    rep = bme_check(m, balls, 0.8, 2.0, 1.0, assignment)
    for (center, radius), got in zip(balls, rep["balls"]):
        lhs = 0.0
        idx = m.ball_indices(center, radius)
        for i in idx:
            lhs += m.weights[i] * _cone_energy(m.points, m.weights, m.points[i],
                                               assignment[i], 0.8, 1, 2.0, 0.0, radius)
        bmass = float(np.sum(m.weights[idx]))
        assert got["mean_energy_ratio"] == (lhs / bmass if bmass > 0 else 0.0)
    assert rep["balls"][0]["mean_energy_ratio"] > 0


def test_bme_line_constant_normal():
    m, _ = generate(GeneratorSpec("segment", {"count": 100}))
    balls = [(np.array([0.5, 0.0]), 1.0), (np.array([0.2, 0.0]), 0.3)]
    assignment = {i: V_AXIS for i in range(m.size)}
    rep = bme_check(m, balls, 0.9, 1.0, 1.0, assignment)
    assert rep["all_pass"]
    assert all(b["mean_energy_ratio"] == 0.0 for b in rep["balls"])


def test_bme_missing_direction():
    m, _ = generate(GeneratorSpec("segment", {"count": 10}))
    with pytest.raises(MissingDirection):
        bme_check(m, [(np.array([0.5, 0.0]), 1.0)], 0.9, 1.0, 1.0, {0: V_AXIS})


def test_bme_single_interaction_hand_ratio():
    m = DiscreteMeasure(np.array([[0.0, 0.0], [0.0, 0.5]]), np.array([0.5, 0.5]), 1)
    balls = [(np.zeros(2), 0.1)]
    rep = bme_check(m, balls, 0.8, 1.0, 10.0, {0: V_AXIS, 1: V_AXIS})
    # only the vertex atom is in the ball; its cone mass appears at r = 0.5,
    # beyond the ball radius 0.1, so the window integral is 0
    assert rep["balls"][0]["mean_energy_ratio"] == 0.0
    balls2 = [(np.zeros(2), 1.0)]
    rep2 = bme_check(m, balls2, 0.8, 1.0, 10.0, {0: V_AXIS, 1: V_AXIS})
    # hand value: each atom sees the other at distance 0.5, so the ratio is
    # 2 * w * int_{0.5}^{1} (0.5/r) dr/r / mu(B) = 2 * 0.5 * 0.5 = 0.5
    assert rep2["balls"][0]["mean_energy_ratio"] == pytest.approx(0.5)


def test_bme_scaling_invariance():
    m = random_cloud(55, 80, uniform_weights=True)
    balls = [(np.array([0.5, 0.5]), 0.8)]
    assignment = {i: V_AXIS for i in range(m.size)}
    rep1 = bme_check(m, balls, 0.6, 2.0, 1.0, assignment)
    s = 3.0
    scaled = DiscreteMeasure(m.points * s, m.weights * s ** m.dim_param, 1)
    rep2 = bme_check(scaled, [(np.array([0.5, 0.5]) * s, 0.8 * s)], 0.6, 2.0, 1.0,
                     assignment)
    r1 = rep1["balls"][0]["mean_energy_ratio"]
    r2 = rep2["balls"][0]["mean_energy_ratio"]
    assert r2 == pytest.approx(r1, rel=1e-9)


def test_projection_check_line_zero():
    m, _ = generate(GeneratorSpec("segment", {"count": 100}))
    base = make_plane([[1.0, 0.0]])
    rep = projection_energy_check(m, base, 0.8, 1.5, 4, 0.05, seed=2)
    assert rep["left_energy"] == 0.0
    assert rep["ratio"] == 0.0
    assert rep["exploratory"]


def test_projection_check_single_atom():
    m = atom_at((0.3, 0.4))
    rep = projection_energy_check(m, make_plane([[1.0, 0.0]]), 0.5, 1.5, 2, 0.1, seed=1)
    assert rep["left_energy"] == 0.0


def test_projection_check_bin_refinement_stability():
    # oracle: convergence study -- the ratio moves by < 25% when the
    # histogram bin is halved on a vertically thickened segment
    rng = np.random.default_rng(9)
    count = 2000
    z = (np.arange(count) + 0.5) / count
    y = 0.02 * rng.standard_normal(count)
    m = DiscreteMeasure(np.stack([z, y], axis=1), np.full(count, 1.0 / count), 1)
    base = make_plane([[1.0, 0.0]])
    r1 = projection_energy_check(m, base, 0.6, 1.2, 6, 0.04, seed=4)
    r2 = projection_energy_check(m, base, 0.6, 1.2, 6, 0.02, seed=4)
    assert r1["left_energy"] > 0
    assert r1["ratio"] > 0 and np.isfinite(r1["ratio"])
    assert abs(r2["ratio"] - r1["ratio"]) <= 0.25 * r1["ratio"]


def test_breakdown_internal_consistency(rng):
    m = random_cloud(71, 150)
    for _ in range(5):
        x = rng.random(2)
        bd = pointwise_energy(m, x, EnergySpec(V_AXIS, 0.7, 1.5, 1.2))
        assert bd.total == pytest.approx(float(np.sum(bd.contributions)), rel=1e-15)
        assert np.all(bd.contributions >= 0)
        assert np.all(np.diff(bd.cumulative_mass) >= 0)
        assert np.all(np.diff(bd.jump_radii) > 0)


def test_total_energy_weighted_sum():
    m = random_cloud(61, 50)
    spec = EnergySpec(V_AXIS, 0.7, 1.0, np.inf)
    want = sum(m.weights[i] * pointwise_energy(m, m.points[i], spec).total
               for i in range(m.size))
    assert total_energy(m, spec) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
@pytest.mark.parametrize("R", [1.0, np.inf])
def test_pointwise_energies_match_pointwise_energy(p, R):
    base = random_cloud(83, 300)
    pts = base.points.copy()
    pts[:40] = pts[40:80]  # duplicate atoms sit at distance 0
    m = DiscreteMeasure(pts, base.weights, 1)
    spec = EnergySpec(V_AXIS, 0.7, p, R)
    energies, counts = pointwise_energies(m, spec)
    assert energies.shape == counts.shape == (m.size,)
    for i in range(m.size):
        bd = pointwise_energy(m, m.points[i], spec)
        assert counts[i] == bd.in_cone_count
        if p == 1:
            assert energies[i] == pytest.approx(bd.total, rel=1e-12, abs=0.0)
        else:
            assert energies[i] == bd.total


def test_pointwise_energies_cantor_ties_match_pointwise_energy():
    # exact 3-4-5 boundary pairs at alpha = 0.8 stay outside on both paths
    m, _ = generate(GeneratorSpec("four_corner_cantor", {"generation": 4}))
    for R in (1.0, np.inf):
        spec = EnergySpec(V_AXIS, 0.8, 1.0, R)
        energies, counts = pointwise_energies(m, spec)
        for i in range(m.size):
            bd = pointwise_energy(m, m.points[i], spec)
            assert counts[i] == bd.in_cone_count
            assert energies[i] == pytest.approx(bd.total, rel=1e-12, abs=0.0)


def test_pointwise_energies_equal_riesz_cone_sum():
    m = random_cloud(84, 250)
    energies, _ = pointwise_energies(m, EnergySpec(V_AXIS, 0.6))
    for i in range(m.size):
        assert energies[i] == pytest.approx(riesz_cone_sum(m, m.points[i], V_AXIS, 0.6),
                                            rel=1e-12, abs=0.0)


@pytest.mark.parametrize("R", [0.5, np.inf])
@pytest.mark.parametrize("m, direction, aperture", SWEEP_CASES)
def test_pair_sweep_matches_per_vertex_cone_tests(m, direction, aperture, R):
    # oracle: a full-cloud cone_dist at every atom, its in-cone count, and an
    # exactly rounded sum of that atom's layer-cake terms
    energies, counts = pointwise_energies(m, EnergySpec(direction, aperture, 1.0, R))
    n = m.dim_param
    tail = 0.0 if np.isinf(R) else R ** -n
    for i in range(m.size):
        mask, dist = cone_dist(m.points, m.points[i], direction, aperture)
        assert counts[i] == np.count_nonzero(mask)
        near = mask & (dist < R)
        want = math.fsum((m.weights[near] * (dist[near] ** -n - tail)).tolist()) / n
        if want == 0.0:
            assert energies[i] == 0.0
        else:
            assert energies[i] == pytest.approx(want, rel=1e-13, abs=0.0)
