import time

import numpy as np
import pytest
from scipy.spatial.distance import pdist

from conftest import (menger_curvature_sum, panel_upper, random_cloud, traced_peak,
                      truncated_transform)

from conical_gmt import sio
from conical_gmt.errors import InvalidParams, TooLarge
from conical_gmt.generators import GeneratorSpec, generate
from conical_gmt.measure import DiscreteMeasure
from conical_gmt.sio import (OPERATOR_BYTE_BUDGET, Kernel, TruncationGrid,
                             builtin_kernels, maximal_transform,
                             norm_vs_generation, operator_norm_profile)

CAUCHY = builtin_kernels(1, 2)["cauchy"]
RIESZ12 = builtin_kernels(1, 2)["riesz"]
RIESZ13 = builtin_kernels(1, 3)["riesz"]
RIESZ23 = builtin_kernels(2, 3)["riesz"]


def operator_norm(m, kernel, eps, tol=1e-6, max_iter=500):
    """The norm at one truncation eps: its row of ``operator_norm_profile``."""
    return operator_norm_profile(m, kernel, TruncationGrid(np.array([eps])), tol,
                                 max_iter)[0]


def validate_kernel(kernel: Kernel) -> dict:
    """Paper check of a kernel's hypotheses: oddness, exactly, and the decay
    bounds |grad^j k| |x|^(n+j) <= constant for j = 0, 1, 2 by central
    differences with a radius-proportional step on a log-spaced radial grid;
    a 5% slack absorbs the finite-difference error."""
    d, n = kernel.ambient_dim, kernel.dim_param
    dirs = np.random.default_rng(1234).standard_normal((8, d))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    pts = (np.geomspace(1e-3, 1e3, 13)[:, None, None] * dirs[None, :, :]).reshape(-1, d)
    odd_gap = float(np.max(np.abs(kernel(pts) + kernel(-pts))))
    worst = [0.0, 0.0, 0.0]
    for x in pts:
        r = np.linalg.norm(x)
        h = 1e-5 * r
        vals = kernel(x[None, :])[0]
        worst[0] = max(worst[0], float(np.max(np.abs(vals))) * r ** n)
        eye = np.eye(d) * h
        plus = kernel(x[None, :] + eye)
        minus = kernel(x[None, :] - eye)
        grad = (plus - minus) / (2 * h)            # (d, c)
        worst[1] = max(worst[1], float(np.max(np.linalg.norm(grad, axis=0))) * r ** (n + 1))
        hess = np.zeros((len(vals), d, d))
        for i in range(d):
            for j in range(d):
                if i == j:
                    hess[:, i, i] = (plus[i] - 2 * vals + minus[i]) / h ** 2
                else:
                    pp = kernel((x + eye[i] + eye[j])[None, :])[0]
                    pm = kernel((x + eye[i] - eye[j])[None, :])[0]
                    mp = kernel((x - eye[i] + eye[j])[None, :])[0]
                    mm = kernel((x - eye[i] - eye[j])[None, :])[0]
                    hess[:, i, j] = (pp - pm - mp + mm) / (4 * h ** 2)
        # |grad^2 k| as the bilinear-form (operator) norm, per component
        op = max(float(np.max(np.abs(np.linalg.eigvalsh(h_c)))) for h_c in hess)
        worst[2] = max(worst[2], op * r ** (n + 2))
    return {"odd": odd_gap <= 1e-12, "decay_ok": max(worst) <= kernel.constant * 1.05}


def dense_blocks(m, kernel, eps):
    """Oracle: the weighted kernel blocks sw_i k_c(z_j - z_i) sw_j over every
    ordered pair with |z_j - z_i| > eps, one kernel evaluation per entry, and
    that mask."""
    diffs = m.points[None, :, :] - m.points[:, None, :]
    keep = np.linalg.norm(diffs, axis=2) > eps
    vals = np.zeros(keep.shape + (sio._components(kernel),))
    vals[keep] = kernel(diffs[keep])
    sw = np.sqrt(m.weights)
    return [sw[:, None] * vals[:, :, c] * sw[None, :] for c in range(vals.shape[2])], keep


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
    for bad in ([0.5, 0.5], [-1.0, 1.0], [np.nan], [np.nan, 0.01], [0.01, np.nan],
                [0.01, np.nan, 0.02], [np.inf, np.inf], []):
        with pytest.raises(InvalidParams):
            TruncationGrid(np.array(bad))
    assert np.array_equal(TruncationGrid(np.array([0.01, np.inf])).eps, [0.01, np.inf])
    m = random_cloud(3, 20)
    for count in (0, -1):
        with pytest.raises(InvalidParams):
            TruncationGrid.log_spaced(m, count)


def test_profile_rejects_a_bad_tolerance_before_building(monkeypatch):
    def unreachable(*args):
        raise AssertionError("the operator was built")
    monkeypatch.setattr(sio, "_interaction_stack", unreachable)
    m = random_cloud(3, 20)
    grid = TruncationGrid(np.array([0.1]))
    for tol in (0.0, -1e-6, np.nan, np.inf, -np.inf):
        with pytest.raises(InvalidParams):
            operator_norm_profile(m, CAUCHY, grid, tol=tol)


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


def test_packed_product_matches_dense_oracle():
    rng = np.random.default_rng(31)
    cloud = random_cloud(6, 30)
    pts = cloud.points.copy()
    central = np.argsort(np.linalg.norm(pts - 0.5, axis=1))[:10]
    pts[central[5:]] = pts[central[:5]]
    # 600 atoms span five block rows, so off-diagonal tiles and a ragged last
    # panel; 129 and 300 atoms end in panels of 1 and 44 rows; Riesz in R^3
    # has three components
    cases = [(random_cloud(5, 600), CAUCHY),
             (random_cloud(7, 129), CAUCHY),
             (random_cloud(8, 300), CAUCHY),
             (DiscreteMeasure(pts, cloud.weights, 1), CAUCHY),
             (random_cloud(9, 25, d=3), RIESZ23),
             (random_cloud(10, 300, d=3), RIESZ13)]
    for m, kernel in cases:
        d = np.unique(pdist(m.points))
        d = d[d > 0]
        # drops no pair, some pairs, and all but the farthest pair
        grid = TruncationGrid(np.array([d[0] / 2, np.median(d), d[-2]]))
        (buf,), idx = sio._interaction_stack(m, kernel, grid)
        comps = sio._components(kernel)
        assert buf.size == comps * sio._panel_pairs(m.size) and idx.dtype == np.uint8
        # every component fills its own triangle, whatever the count
        blocks, _ = dense_blocks(m, kernel, 0.0)
        assert np.array_equal(panel_upper(buf, m.size, comps), np.triu(blocks, 1))
        panels = sio._panels(buf, m.size, comps)
        normal = sio._normal_operator(panels, m.size)
        for k, eps in enumerate(grid.eps):
            sio._truncate(panels, idx, k)
            blocks, keep = dense_blocks(m, kernel, eps)
            assert np.array_equal(idx > k, keep)
            v = rng.standard_normal(m.size)
            want = sum(K.T @ (K @ v) for K in blocks)
            got = normal(v)
            assert np.linalg.norm(got - want) <= 1e-14 * np.linalg.norm(want)
        assert keep.sum() == 2


def test_uint16_index_profile_matches_dense():
    m = random_cloud(21, 48)
    grid = TruncationGrid.log_spaced(m, 300)
    assert sio._interaction_stack(m, CAUCHY, grid)[1].dtype == np.uint16
    profile = operator_norm_profile(m, CAUCHY, grid, 1e-10, 500)
    for r in profile:
        blocks, _ = dense_blocks(m, CAUCHY, r.eps)
        top = np.linalg.eigvalsh(sum(K.T @ K for K in blocks))[-1]
        assert r.norm == pytest.approx(np.sqrt(max(top, 0.0)), rel=1e-6, abs=0.0)


def test_packed_operator_meets_menger_curvature_identity():
    # Melnikov: for the Cauchy kernel, |B sqrt(w)|^2 is the weighted curvature
    # sum plus the diagonal sum of w_i w_j^2 / |z_i - z_j|^2; 129 atoms end
    # in a one-row panel
    for m in (random_cloud(40, 40), random_cloud(41, 129)):
        w = m.weights
        grid = TruncationGrid(np.array([pdist(m.points).min() / 2]))
        (buf,), idx = sio._interaction_stack(m, CAUCHY, grid)
        panels = sio._panels(buf, m.size, 2)
        sio._truncate(panels, idx, 0)
        sw = np.sqrt(w)
        lhs = sw @ sio._normal_operator(panels, m.size)(sw)
        d2 = np.sum((m.points[None, :, :] - m.points[:, None, :]) ** 2, axis=2)
        off = ~np.eye(m.size, dtype=bool)
        rhs = (menger_curvature_sum(m.points, w)
               + np.sum((w[:, None] * w[None, :] ** 2)[off] / d2[off]))
        assert lhs == pytest.approx(rhs, rel=1e-13)


def test_odd_kernel_guard():
    def even(x):
        return np.abs(x) / np.sum(x ** 2, axis=1)[:, None]
    m = random_cloud(3, 20)
    with pytest.raises(InvalidParams):
        operator_norm(m, Kernel("even", 1, 2, even, 1.0), 0.1)
    for cloud, kernel in ((m, CAUCHY), (m, RIESZ12), (random_cloud(4, 20, d=3), RIESZ23)):
        assert operator_norm(cloud, kernel, 0.1).norm > 0


def test_odd_kernel_guard_reads_the_first_256_atoms():
    # odd on every offset shorter than 50 only: the cloud's first 128 atoms,
    # one 128 x 128 tile, sit in the unit square and the next 128 at 100, so
    # only pairs beyond the first tile can show the kernel is not odd
    def odd_when_near(x):
        far = np.linalg.norm(x, axis=1) > 50
        return CAUCHY.components(x) + far[:, None]
    kernel = Kernel("odd-near", 1, 2, odd_when_near, 1.0)
    cloud = random_cloud(12, 300)
    pts = cloud.points.copy()
    pts[128:] += 100.0
    with pytest.raises(InvalidParams):
        sio._check_odd(kernel, pts)
    sio._check_odd(kernel, pts[:128])
    # the atoms from 256 on are not read
    pts[:256] = cloud.points[:256]
    sio._check_odd(kernel, pts)


def test_operator_guard():
    pts = np.zeros((25000, 2))
    pts[:, 0] = np.arange(25000)
    m = DiscreteMeasure(pts, np.ones(25000), 1)
    with pytest.raises(TooLarge):
        operator_norm(m, CAUCHY, 0.5)


def test_operator_byte_guard_fires_before_allocating():
    n = 16_000
    pts = np.zeros((n, 2))
    pts[:, 0] = np.arange(n)
    m = DiscreteMeasure(pts, np.ones(n), 1)
    assert 10 * n * n > OPERATOR_BYTE_BUDGET
    t0 = time.perf_counter()
    with pytest.raises(TooLarge):
        operator_norm(m, CAUCHY, 0.5)
    assert time.perf_counter() - t0 < 1.0


# the tile scratch of the stack build and the solve's vectors, whatever N
SCRATCH_LIMIT = 4 * 2 ** 20


@pytest.mark.parametrize("kernel", [CAUCHY, RIESZ13], ids=["cauchy", "riesz-three-components"])
def test_byte_model_is_the_stack_plus_a_fixed_scratch(monkeypatch, kernel):
    comps = sio._components(kernel)
    for n in (300, 1200):
        m = random_cloud(11, n, d=kernel.ambient_dim)
        grid = TruncationGrid.log_spaced(m, 16)
        (stack, idx), peak = traced_peak(sio._interaction_stack, m, kernel, grid)
        held = sum(b.nbytes for b in stack) + idx.nbytes
        assert len(stack) == 1 and idx.shape == (n, n)
        assert held == sio._stack_bytes(n, comps, 16)
        assert held <= peak <= held + SCRATCH_LIMIT
    # the whole profile stays within the guard's model, and a budget one
    # byte short of it is refused before anything is allocated
    need = sio._operator_bytes(n, comps, 16, 40)
    profile, peak = traced_peak(operator_norm_profile, m, kernel, grid, 1e-6, 40)
    assert len(profile) == 16
    assert peak <= need + SCRATCH_LIMIT

    def refused():
        with pytest.raises(TooLarge):
            operator_norm_profile(m, kernel, grid, 1e-6, 40)
    monkeypatch.setattr(sio, "OPERATOR_BYTE_BUDGET", need - 1)
    assert traced_peak(refused)[1] < 2 ** 20
    monkeypatch.setattr(sio, "OPERATOR_BYTE_BUDGET", need)
    assert operator_norm_profile(m, kernel, grid, 1e-6, 40) == profile


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
