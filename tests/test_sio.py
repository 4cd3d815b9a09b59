import time

import numpy as np
import pytest
from scipy.spatial.distance import pdist

from conftest import random_cloud

from conical_gmt.errors import InvalidParams, TooLarge
from conical_gmt.generators import GeneratorSpec, generate
from conical_gmt.measure import DiscreteMeasure
from conical_gmt.sio import (OPERATOR_BYTE_BUDGET, TruncationGrid, builtin_kernels,
                             maximal_transform, norm_vs_generation,
                             operator_norm, operator_norm_profile,
                             truncated_transform, validate_kernel)

CAUCHY = builtin_kernels(1, 2)["cauchy"]
RIESZ12 = builtin_kernels(1, 2)["riesz"]


def test_cauchy_formula_values():
    assert np.allclose(CAUCHY(np.array([1.0, 0.0])), [1.0, 0.0])
    assert np.allclose(CAUCHY(np.array([0.0, 1.0])), [0.0, -1.0])
    # modulus is 1/|x|
    x = np.array([3.0, 4.0])
    assert np.linalg.norm(CAUCHY(x)) == pytest.approx(1.0 / 5.0)


def test_riesz_formula_value():
    # x / |x|^(n+1) at (0, 2) with n = 1 gives (0, 2)/4
    assert np.allclose(RIESZ12(np.array([0.0, 2.0])), [0.0, 0.5])


def test_oddness_spot_check(rng):
    pts = rng.standard_normal((100, 2))
    for k in (CAUCHY, RIESZ12):
        assert np.array_equal(k(pts), -k(-pts))


def test_kernel_validation_passes():
    for k in builtin_kernels(1, 2).values():
        rep = validate_kernel(k)
        assert rep["odd"]
        assert rep["decay_ok"]
    rep3 = validate_kernel(builtin_kernels(2, 3)["riesz"])
    assert rep3["odd"] and rep3["decay_ok"]


def test_truncated_transform_symmetric_pair():
    m = DiscreteMeasure(np.array([[-1.0, 0.0], [1.0, 0.0]]), np.array([0.5, 0.5]), 1)
    for k in (CAUCHY, RIESZ12):
        out = truncated_transform(m, k, 0.5, np.zeros(2))
        assert np.array_equal(out, np.zeros(2))


def test_truncated_transform_single_atom():
    m = DiscreteMeasure(np.array([[2.0, 0.0]]), np.array([1.0]), 1)
    out = truncated_transform(m, CAUCHY, 0.5, np.zeros(2))
    assert np.allclose(out, CAUCHY(np.array([2.0, 0.0])))
    # eps beyond all distances: zero vector
    assert np.array_equal(truncated_transform(m, CAUCHY, 5.0, np.zeros(2)),
                          np.zeros(2))


def test_truncated_transform_strict_and_linearity():
    m = DiscreteMeasure(np.array([[1.0, 0.0]]), np.array([1.0]), 1)
    assert np.array_equal(truncated_transform(m, CAUCHY, 1.0, np.zeros(2)),
                          np.zeros(2))
    m2 = DiscreteMeasure(m.points, 2 * m.weights, 1)
    a = truncated_transform(m, CAUCHY, 0.5, np.zeros(2))
    b = truncated_transform(m2, CAUCHY, 0.5, np.zeros(2))
    assert np.allclose(b, 2 * a)


def test_maximal_transform_breakpoint_exact(rng):
    m = random_cloud(3, 30, uniform_weights=True)
    x = rng.random(2)
    grid = TruncationGrid.breakpoints(m, x)
    got = maximal_transform(m, CAUCHY, grid, x)
    # brute-force sup over a dense eps sweep can only probe between
    # breakpoints; the breakpoint grid must dominate it
    dense = TruncationGrid(np.geomspace(1e-4, 2.0, 4000))
    assert got >= maximal_transform(m, CAUCHY, dense, x) - 1e-15
    # and each grid value is attained by some eps, so equality holds
    vals = [np.linalg.norm(truncated_transform(m, CAUCHY, e, x)) for e in grid.eps]
    assert got == pytest.approx(max(vals))


def test_maximal_transform_symmetric_pair_zero():
    m = DiscreteMeasure(np.array([[-1.0, 0.0], [1.0, 0.0]]), np.array([0.5, 0.5]), 1)
    grid = TruncationGrid.breakpoints(m, np.zeros(2))
    assert maximal_transform(m, CAUCHY, grid, np.zeros(2)) == 0.0


def test_maximal_transform_single_far_atom():
    m = DiscreteMeasure(np.array([[2.0, 0.0]]), np.array([1.0]), 1)
    x = np.zeros(2)
    grid = TruncationGrid.breakpoints(m, x)
    want = float(np.linalg.norm(CAUCHY(np.array([2.0, 0.0]))))
    assert maximal_transform(m, CAUCHY, grid, x) == pytest.approx(want)


def test_maximal_transform_exact_beyond_ten_thousand_atoms():
    m = random_cloud(11, 10_050)
    x = np.array([0.37, 0.52])
    grid = TruncationGrid.breakpoints(m, x)
    assert len(grid.eps) == 10_051
    # every breakpoint's transform as a direct masked sum, 1,000 at a time
    d = m.distances_from(x)
    vals = m.weights[:, None] * CAUCHY(m.points - x[None, :])
    norms = np.concatenate([
        np.linalg.norm((d[None, :] > e[:, None]).astype(float) @ vals, axis=1)
        for e in np.array_split(grid.eps, 11)])
    best = int(np.argmax(norms))
    want = float(np.linalg.norm(truncated_transform(m, CAUCHY, grid.eps[best], x)))
    assert want == pytest.approx(norms[best], rel=1e-12)
    assert maximal_transform(m, CAUCHY, grid, x) == pytest.approx(want, rel=1e-12)


def test_truncation_grid_validation():
    with pytest.raises(InvalidParams):
        TruncationGrid(np.array([0.5, 0.5]))
    with pytest.raises(InvalidParams):
        TruncationGrid(np.array([-1.0, 1.0]))


def test_operator_norm_single_atom():
    m = DiscreteMeasure(np.array([[0.0, 0.0]]), np.array([1.0]), 1)
    assert operator_norm(m, CAUCHY, 0.1).norm == 0.0


def test_operator_norm_two_atom_hand_value():
    # 2x2 singular value by hand: entries +-k(dx) w give norm |k| w = 0.5
    m = DiscreteMeasure(np.array([[0.0, 0.0], [1.0, 0.0]]), np.array([0.5, 0.5]), 1)
    res = operator_norm(m, CAUCHY, 0.5)
    assert res.norm == pytest.approx(0.5, abs=1e-9)
    assert not res.stalled


def test_operator_norm_rotation_invariance_riesz():
    m = random_cloud(7, 60, uniform_weights=True)
    theta = 0.7
    rot = np.array([[np.cos(theta), -np.sin(theta)],
                    [np.sin(theta), np.cos(theta)]])
    m2 = DiscreteMeasure(m.points @ rot.T, m.weights, 1)
    a = operator_norm(m, RIESZ12, 0.05, tol=1e-10, max_iter=5000)
    b = operator_norm(m2, RIESZ12, 0.05, tol=1e-10, max_iter=5000)
    assert b.norm == pytest.approx(a.norm, rel=1e-6)


def test_operator_norm_matches_svd_oracle():
    m = random_cloud(13, 40)
    blocks_dist = None
    for eps in (0.05, 0.2, 0.6):
        res = operator_norm(m, CAUCHY, eps, tol=1e-12, max_iter=20000)
        # oracle: dense SVD of the stacked weighted interaction matrix
        sw = np.sqrt(m.weights)
        diffs = m.points[None, :, :] - m.points[:, None, :]
        dist = np.linalg.norm(diffs, axis=2)
        mask = dist > eps
        flat = diffs.reshape(-1, 2)
        nz = dist.reshape(-1) > 0
        vals = np.zeros((len(flat), 2))
        vals[nz] = CAUCHY(flat[nz])
        stacked = np.vstack([sw[:, None] * (vals[:, c].reshape(dist.shape) * mask) * sw[None, :]
                             for c in range(2)])
        want = np.linalg.svd(stacked, compute_uv=False)[0]
        assert res.norm == pytest.approx(want, rel=1e-6)


def test_operator_norm_trend_in_eps():
    # not a theorem; asserted on this generated case per the contract
    m, _ = generate(GeneratorSpec("four_corner_cantor", {"generation": 3}))
    grid = TruncationGrid.log_spaced(m, 12)
    profile = operator_norm_profile(m, CAUCHY, grid)
    norms = [r.norm for r in profile]
    assert all(b <= a * (1 + 1e-9) for a, b in zip(norms, norms[1:]))


def test_operator_antisymmetry_blocks():
    m = random_cloud(5, 25, uniform_weights=True)
    diffs = m.points[None, :, :] - m.points[:, None, :]
    flat = diffs.reshape(-1, 2)
    nz = np.linalg.norm(flat, axis=1) > 0
    vals = np.zeros((len(flat), 2))
    vals[nz] = CAUCHY(flat[nz])
    k1 = vals[:, 0].reshape(25, 25)
    assert np.array_equal(k1, -k1.T)


def test_operator_guard():
    pts = np.zeros((25000, 2))
    pts[:, 0] = np.arange(25000)
    m = DiscreteMeasure(pts, np.ones(25000), 1)
    with pytest.raises(TooLarge):
        operator_norm(m, CAUCHY, 0.5)


def test_operator_byte_guard_fires_before_allocating():
    n = 12_000
    pts = np.zeros((n, 2))
    pts[:, 0] = np.arange(n)
    m = DiscreteMeasure(pts, np.ones(n), 1)
    assert 25 * n * n > OPERATOR_BYTE_BUDGET
    t0 = time.perf_counter()
    with pytest.raises(TooLarge):
        operator_norm(m, CAUCHY, 0.5)
    assert time.perf_counter() - t0 < 1.0


@pytest.fixture(scope="module")
def graph_sio_dense():
    """The 1,024-atom graph of the CLI benchmark, its 16 auto truncations
    and the top eigenvalue of the dense B^T B of each, built here."""
    m, _ = generate(GeneratorSpec("lipschitz_graph", {"count": 1024, "lipschitz": 0.5}))
    grid = TruncationGrid.log_spaced(m, 16)
    dx = m.points[None, :, 0] - m.points[:, None, 0]
    dy = m.points[None, :, 1] - m.points[:, None, 1]
    r2 = dx * dx + dy * dy
    dist = np.sqrt(r2)
    sw = np.sqrt(m.weights)
    with np.errstate(divide="ignore"):
        scale = sw[:, None] * sw[None, :] * np.where(r2 > 0, 1.0 / r2, 0.0)
    sigma = []
    for eps in grid.eps:
        keep = dist > eps
        b = [dx * scale * keep, -dy * scale * keep]
        normal = b[0].T @ b[0] + b[1].T @ b[1]
        sigma.append(float(np.sqrt(max(np.linalg.eigvalsh(normal)[-1], 0.0))))
    return m, grid, np.array(sigma)


def test_operator_norm_profile_matches_dense_on_graph(graph_sio_dense):
    m, grid, sigma = graph_sio_dense
    profile = operator_norm_profile(m, CAUCHY, grid, 1e-6, 500)
    for r, s in zip(profile, sigma):
        assert not r.stalled
        assert r.residual <= 1e-6
        assert r.norm == pytest.approx(s, rel=1e-6, abs=0.0)


def test_operator_norm_profile_cap_flags_every_uncertified_row(graph_sio_dense):
    m, grid, sigma = graph_sio_dense
    profile = operator_norm_profile(m, CAUCHY, grid, 1e-6, 5)
    assert sum(r.stalled for r in profile) >= 12
    for r, s in zip(profile, sigma):
        assert r.iterations <= 5
        assert r.norm <= s * (1 + 1e-12)
        assert r.stalled == (r.residual > 1e-6)
        if not r.stalled:
            assert r.norm == pytest.approx(s, rel=1e-6, abs=0.0)


def test_operator_norm_matches_profile_row():
    m, _ = generate(GeneratorSpec("lipschitz_graph", {"count": 256, "lipschitz": 0.5}))
    grid = TruncationGrid.log_spaced(m, 8)
    profile = operator_norm_profile(m, CAUCHY, grid, 1e-8, 500)
    for r in profile[::3]:
        single = operator_norm(m, CAUCHY, r.eps, 1e-8, 500)
        assert single.norm == pytest.approx(r.norm, rel=1e-8)


def measure_for_generation_cantor(g):
    m, _ = generate(GeneratorSpec("four_corner_cantor", {"generation": g}))
    return m


def measure_for_refinement_graph(k):
    m, _ = generate(GeneratorSpec("lipschitz_graph",
                                  {"count": 4 ** k, "lipschitz": 0.5}))
    return m


def test_norm_vs_generation_cantor_increasing():
    table = norm_vs_generation(measure_for_generation_cantor, CAUCHY,
                               [2, 3, 4], grid_cap=32)
    assert table["strictly_increasing"]
    assert table["trend_slope"] > 0
    assert all(r["stalled"] == 0 or r["stalled"] < r["grid_size"]
               for r in table["rows"])


def test_norm_vs_generation_graph_stable():
    table = norm_vs_generation(measure_for_refinement_graph, CAUCHY,
                               [3, 4, 5], grid_cap=24)
    assert table["max_over_min"] <= 1.5


def test_norm_vs_generation_segment_stabilizes():
    def seg(k):
        m, _ = generate(GeneratorSpec("segment", {"count": 4 ** k}))
        return m
    table = norm_vs_generation(seg, CAUCHY, [3, 4, 5], grid_cap=24)
    assert table["max_over_min"] <= 1.5


def test_norm_vs_generation_flags_uncertified_rows():
    capped = norm_vs_generation(measure_for_refinement_graph, CAUCHY, [3],
                                grid_cap=8, max_iter=2)
    assert capped["rows"][0]["stalled"] > 0
    assert not capped["rows"][0]["certified"]
    assert not capped["all_certified"]
    full = norm_vs_generation(measure_for_refinement_graph, CAUCHY, [3], grid_cap=8)
    assert full["rows"][0]["stalled"] == 0
    assert full["rows"][0]["certified"]
    assert full["all_certified"]


def test_log_spaced_skips_coincident_atoms():
    rng = np.random.default_rng(7)
    pts = rng.random((200, 2))
    pts[1] = pts[0]
    m = DiscreteMeasure(pts, np.full(200, 1 / 200), 1)
    assert m.min_interpoint_distance() == 0.0
    d = pdist(pts)
    grid = TruncationGrid.log_spaced(m, 12).eps
    assert len(grid) == 12
    assert grid[0] == d[d > 0].min()
    assert grid[-1] == m.diameter()
    ratios = grid[1:] / grid[:-1]
    assert np.allclose(ratios, ratios[0], rtol=1e-12)
    one_point = DiscreteMeasure(np.zeros((5, 2)), np.full(5, 0.2), 1)
    assert np.array_equal(TruncationGrid.log_spaced(one_point, 12).eps, [1.0])
