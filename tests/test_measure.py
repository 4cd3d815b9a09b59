import numpy as np
import pytest
from scipy.spatial import cKDTree
from scipy.spatial.distance import cdist, pdist

from conftest import (PROFILE_CLOUDS, ball_mass, brute_ball_mass, brute_cone_mass, cone_row,
                      coordinate_order_lengths, maximal_function, maximal_function_candidates,
                      mixture_cloud, profile, random_cloud)

from conical_gmt import geometry
from conical_gmt.errors import DimensionMismatch, InputError, InvalidParams, InvalidRange
from conical_gmt.generators import GeneratorSpec, generate
from conical_gmt.geometry import make_plane
from conical_gmt.measure import (DiscreteMeasure, growth_constant, load_csv, save_csv,
                                 sorted_mass, sorted_profiles)
from conical_gmt.sio import TruncationGrid


def cone_mass(m: DiscreteMeasure, x, direction, aperture: float, inner: float = 0.0,
              outer: float = np.inf) -> float:
    """The mass of the open truncated cone K(x, V, alpha, r, R): the weights
    of the cone test's row at x summed over r < |y - x| < R."""
    mask, dist = cone_row(m.points, x, direction, aperture)
    return float(np.sum(m.weights[mask & (dist > inner) & (dist < outer)]))


def single_atom(where=(0.0, 0.0), w=1.0) -> DiscreteMeasure:
    return DiscreteMeasure(np.array([where], float), np.array([w]), 1)


@pytest.mark.parametrize("offset", [0.0, 1e4, 1e8])
def test_diameter_exact_far_from_origin(offset):
    rng = np.random.default_rng(11)
    pts = offset + 1e-3 * rng.random((500, 2))
    m = DiscreteMeasure(pts, np.ones(500), 1)
    assert m.diameter() == pytest.approx(pdist(pts).max(), rel=1e-12)


@pytest.mark.parametrize("offset", [0.0, 1e6])
@pytest.mark.parametrize("d", [1, 2, 3, 8, 12])
def test_distance_extremes_have_the_bits_of_cdist_and_the_kd_tree(d, offset):
    rng = np.random.default_rng(d)
    pts = rng.random((300, d)) + offset
    pts[7] = pts[3]
    pts[100:104] = pts[50]
    full = cdist(pts, pts)
    lo, hi = geometry.pair_extremes(pts)[1:]
    assert hi == full.max()
    assert lo == full[full > 0].min()
    locations = np.unique(pts, axis=0)
    near = cKDTree(locations).query(locations, k=2)[0][:, 1].min()
    if d <= 7:
        assert lo == near
    else:
        # the KD-tree sums the squares of 8 or more coordinates in four
        # interleaved partial sums, so it may differ from cdist in the last place
        assert abs(lo - near) <= 2 * np.spacing(near)
    if d > 1:
        m = DiscreteMeasure(pts, np.ones(len(pts)), d - 1)
        assert m.diameter() == hi
        eps = TruncationGrid.log_spaced(m, 5).eps
        assert eps[0] == lo and eps[-1] == hi
        # the duplicates give 0, as the KD-tree's k = 2 query does; without
        # them the smallest interpoint distance is lo; no index is built
        assert m.min_interpoint_distance() == cKDTree(pts).query(pts, k=2)[0][:, 1].min() == 0.0
        apart = DiscreteMeasure(locations, np.ones(len(locations)), d - 1)
        assert apart.min_interpoint_distance() == lo
        assert "_index" not in vars(m) and "_index" not in vars(apart)


def test_distance_extremes_of_one_location():
    assert geometry.pair_extremes(np.zeros((1, 1)))[1:] == (np.inf, 0.0)
    for pts in (np.full((5, 3), 2.5), np.array([[1e6, -1e6]])):
        m = DiscreteMeasure(pts, np.ones(len(pts)), 1)
        assert m.diameter() == 0.0
        assert np.array_equal(TruncationGrid.log_spaced(m, 8).eps, [1.0])


def test_tree_and_diameter_are_built_on_first_use():
    m, _ = generate(GeneratorSpec("four_corner_cantor", {"generation": 3}))
    assert "_index" not in vars(m) and m._diameter is None
    x = m.points[5]
    d = np.linalg.norm(m.points - x[None, :], axis=1)
    # dyadic atoms: every radius below is some atom's exact distance
    for r in np.unique(d)[1:]:
        assert np.array_equal(m.ball_indices(x, r), np.nonzero(d < r)[0])
    index = vars(m)["_index"]
    m.ball_indices(m.points[0], 0.5)
    assert vars(m)["_index"] is index
    assert m.diameter() == pdist(m.points).max() == m._diameter


def test_ball_mass_single_atom():
    m = single_atom()
    assert ball_mass(m, np.zeros(2), 0.1) == 1.0


def test_ball_mass_open_boundary():
    m = single_atom()
    assert ball_mass(m, np.array([1.0, 0.0]), 1.0) == 0.0


def test_ball_mass_cantor_gen1():
    m, _ = generate(GeneratorSpec("four_corner_cantor", {"generation": 1}))
    x = np.array([1.0 / 8, 1.0 / 8])
    # oracle: brute-force sum over the four atoms
    assert brute_ball_mass(m, x, 0.5) == 0.25
    assert ball_mass(m, x, 0.5) == 0.25


def test_weights_must_be_positive():
    with pytest.raises(InvalidParams):
        DiscreteMeasure(np.zeros((2, 2)), np.array([1.0, 0.0]), 1)


def test_cone_mass_support_on_complement():
    m, _ = generate(GeneratorSpec("segment", {"count": 50}))
    v = make_plane([[0.0, 1.0]])
    assert cone_mass(m, [0.5, 0.0], v, 0.9) == 0.0


def test_cone_mass_axis_atom_and_boundary():
    v = make_plane([[0.0, 1.0]])
    m = single_atom((0.0, 0.5), w=0.7)
    assert cone_mass(m, np.zeros(2), v, 0.5, 0.0, 1.0) == 0.7
    assert cone_mass(m, np.zeros(2), v, 0.5, 0.0, 0.5) == 0.0


def test_theta_segment_midpoint():
    # oracle: exact length mass of the continuum segment
    count = 4000
    m, _ = generate(GeneratorSpec("segment", {"count": count}))
    x = np.array([0.5, 0.0])
    r = 0.25
    exact_mass = min(1.0, x[0] + r) - max(0.0, x[0] - r)
    expect = exact_mass / r
    assert ball_mass(m, x, r) / r == pytest.approx(expect, abs=2 / np.sqrt(count))


def test_theta_empty_and_atom():
    m = single_atom()
    assert ball_mass(m, np.array([5.0, 5.0]), 0.5) / 0.5 == 0.0
    assert ball_mass(m, np.zeros(2), 0.5) / 0.5 == pytest.approx(2.0)


def test_maximal_function_atom_at_rmin():
    m = single_atom()
    assert maximal_function(m, np.zeros(2), 0.1, 1.0) == pytest.approx(10.0)


def test_maximal_function_line_bounded():
    # oracle: the continuum segment has mu(B(x, r)) <= 2r
    m, _ = generate(GeneratorSpec("segment", {"count": 2000}))
    val = maximal_function(m, np.array([0.5, 0.0]), 0.01, 1.0)
    assert val <= 2.0 + 4 / np.sqrt(2000)
    assert val >= 1.0


def test_maximal_function_invalid_range():
    m = single_atom()
    with pytest.raises(InvalidRange):
        maximal_function(m, np.zeros(2), 1.0, 1.0)


def test_maximal_function_matches_brute_force(rng):
    m = random_cloud(3, 40)
    x = rng.random(2)
    r_min, r_max = 0.05, 1.5
    # oracle: dense sweep over radii just above each candidate
    cands = np.concatenate(([r_min], np.linspace(r_min, r_max, 2000)))
    d = np.linalg.norm(m.points - x[None, :], axis=1)
    best = 0.0
    for c in cands:
        for bump in (0.0, 1e-12):
            rr = min(c + bump, r_max)
            best = max(best, np.sum(m.weights[d <= rr]) / rr ** 1)
    val = maximal_function(m, x, r_min, r_max)
    assert val >= best - 1e-9
    assert val <= best * (1 + 1e-6) + 1e-9 or val == pytest.approx(best, rel=1e-3)


@pytest.mark.parametrize("m", PROFILE_CLOUDS)
def test_maximal_function_reads_the_sorted_profile(m):
    # every position of the sorted profile in place of the candidate set, at
    # every atom and one point off the cloud; r_min and r_max sit on atom
    # distances, between them and below the spacing
    d = np.unique(m.distances_from(m.points[0]))
    ranges = [(d[1], d[-1]), (d[3], d[len(d) // 2]), (d[1] / 3, 1.0),
              (0.5 * (d[2] + d[3]), 2.0)]
    for x in (*m.points, m.points.mean(axis=0)):
        for r_min, r_max in ranges:
            assert (maximal_function(m, x, r_min, r_max)
                    == maximal_function_candidates(m, x, r_min, r_max))


def test_sorted_profiles_keep_tied_distances_in_index_order():
    # seen from the atom at 0, the atoms at -0.5 and 0.5 tie, and so do those
    # at -2 and 2; the mass through the far run, summed in index order, rounds
    # otherwise than in reverse index order, also sorted by distance and one
    # that an unstable sort may take
    x = np.array([-2.0, 2.0, -0.5, 0.5, 0.0])
    w = np.array([2.0 ** -52, 2.0 ** -53, 2.0 ** -53, 1.0, 0.25])
    m = DiscreteMeasure(np.stack((x, np.zeros(5)), axis=1), w, 1)
    want_d, want_cum = profile(np.abs(x), w)
    assert want_d.tolist() == [0.0, 0.5, 0.5, 2.0, 2.0]
    assert np.cumsum(w[::-1])[-1] != want_cum[-1]
    got_d, got_cum = sorted_mass(np.abs(x), w)
    assert got_d.tolist() == want_d.tolist() and got_cum.tolist() == want_cum.tolist()
    for rows, ds, cum in sorted_profiles(m, m.points):
        for i, d_row, cum_row in zip(range(rows.start, rows.stop), ds, cum):
            want_d, want_cum = profile(m.distances_from(m.points[i]), w)
            assert d_row.tolist() == want_d.tolist() and cum_row.tolist() == want_cum.tolist()


def test_growth_constant_segment():
    # oracle: mu(B(x, r)) <= 2r exactly for the continuum unit segment; on
    # the N-atom grid the supremum just above the first neighbour distance is
    # (2k+1)/k * r with k = 1, so the exact discrete value lands in [2, 3]
    count = 1000
    m, _ = generate(GeneratorSpec("segment", {"count": count}))
    rep = growth_constant(m, r0=1.0, sample_count=200, seed=1)
    assert 2.0 <= rep.value <= 3.0 + 1e-12
    assert not rep.degenerate
    # away from the atomic scale the analytic constant shows directly
    coarse = maximal_function(m, np.array([0.5, 0.0]), 20.0 / count, 1.0)
    assert coarse <= 2.0 + 6.0 / np.sqrt(count)


@pytest.mark.parametrize("block", [None, 50], ids=["block-default", "block-50"])
@pytest.mark.parametrize("m", PROFILE_CLOUDS)
def test_growth_constant_is_the_sampled_maximal_function(monkeypatch, m, block):
    # the row blocks of profiles give the maximum of the one-point oracle
    # over the sampled atoms, bit for bit, whatever rows share a block
    if block is not None:
        monkeypatch.setattr(geometry, "PAIR_BLOCK", block)
    for sample_count, seed in ((m.size, 0), (37, 3)):
        for r0 in (m.diameter() / (1 - 1e-9), 0.3 * m.diameter()):
            rep = growth_constant(m, r0=r0, sample_count=sample_count, seed=seed)
            idx = np.arange(m.size)
            if sample_count < m.size:
                idx = np.sort(np.random.default_rng(seed).choice(m.size, sample_count,
                                                                 replace=False))
            assert rep.sampled == len(idx)
            assert rep.value == max(maximal_function(m, m.points[i], rep.r_min, r0)
                                    for i in idx)


def test_growth_constant_ties_at_its_floor_and_its_scale():
    # a duplicate makes the floor r0 / 2, and the third atom sits exactly on
    # it: the closed ball at the floor holds all three atoms
    m = DiscreteMeasure(np.array([[0.0, 0.0], [0.0, 0.0], [0.5, 0.0]]),
                        np.array([0.25, 0.25, 0.5]), 1)
    rep = growth_constant(m, r0=1.0)
    assert rep.degenerate and rep.r_min == 0.5
    assert rep.value == 2.0 == maximal_function(m, m.points[0], 0.5, 1.0)
    # and the open balls below r0 miss the atoms exactly r0 away
    m = DiscreteMeasure(np.array([[-1.0, 0.0], [0.0, 0.0], [1.0, 0.0]]), np.full(3, 1 / 3), 1)
    rep = growth_constant(m, r0=1.0)
    assert rep.value == (1 / 3) / 0.5 == maximal_function(m, m.points[1], 0.5, 1.0)


def test_growth_constant_single_atom_degenerate():
    m = single_atom()
    rep = growth_constant(m, r0=1.0)
    assert rep.degenerate
    assert rep.value == pytest.approx(1.0 / rep.r_min)


def test_growth_constant_cantor_bounded():
    # oracle: brute force over all atoms at small generations; the measured
    # maxima stay below 6 across generations (near-regular at its own scales)
    vals = []
    for g in (4, 5, 6, 7):
        m, _ = generate(GeneratorSpec("four_corner_cantor", {"generation": g}))
        rep = growth_constant(m, r0=m.diameter(), sample_count=128, seed=0)
        vals.append(rep.value)
    assert max(vals) <= 6.0
    assert min(vals) >= 1.0
    # full brute force at the smallest generation
    m4, _ = generate(GeneratorSpec("four_corner_cantor", {"generation": 4}))
    full = growth_constant(m4, r0=m4.diameter(), sample_count=m4.size, seed=0)
    assert full.value <= 6.0


def test_ball_mass_monotone_in_radius(rng):
    m = random_cloud(5, 100)
    x = rng.random(2)
    radii = np.sort(rng.random(10) + 0.01)
    masses = [ball_mass(m, x, r) for r in radii]
    assert all(b >= a for a, b in zip(masses, masses[1:]))
    assert ball_mass(m, x, 1e9) == pytest.approx(m.total_mass)


def test_cone_mass_monotonicity(rng):
    m = random_cloud(6, 150)
    v = make_plane([[0.0, 1.0]])
    x = rng.random(2)
    a = cone_mass(m, x, v, 0.3, 0.1, 1.0)
    b = cone_mass(m, x, v, 0.6, 0.1, 1.0)
    c = cone_mass(m, x, v, 0.6, 0.1, 2.0)
    d = cone_mass(m, x, v, 0.6, 0.2, 2.0)
    assert b >= a       # aperture
    assert c >= b       # outer radius
    assert d <= c       # inner radius


def test_index_equals_brute_force_bitwise():
    for seed in range(5):
        m = random_cloud(seed, 500)
        rng = np.random.default_rng(1000 + seed)
        for _ in range(20):
            x = rng.random(2) * 1.4 - 0.2
            r = rng.random() + 1e-3
            assert ball_mass(m, x, r) == brute_ball_mass(m, x, r)
    big = random_cloud(99, 10_000)
    rng = np.random.default_rng(2024)
    for _ in range(25):
        x = rng.random(2)
        r = rng.random() * 0.5 + 1e-3
        assert ball_mass(big, x, r) == brute_ball_mass(big, x, r)


def _ball_families():
    """(measure, centres, radii) families of open balls: Cantor atoms exactly
    on the spheres r = 2^-k, duplicate atoms, a cloud offset by 1e6, r = inf,
    empty balls, per-centre radii in R^3 and R^9 (where numpy's norm sums
    pairwise), and a single centre."""
    cantor, _ = generate(GeneratorSpec("four_corner_cantor", {"generation": 5}))
    # each centre is an atom moved by (2^-k, 0), so that atom is exactly on
    # the sphere of radius 2^-k
    r = np.tile(2.0 ** -np.arange(1, 7), 64)
    on_sphere = (np.repeat(cantor.points[::16], 6, axis=0) + np.stack([r, 0 * r], axis=1), r)
    dup = random_cloud(71, 300)
    pts = dup.points.copy()
    pts[:100] = pts[100:200]
    dup = DiscreteMeasure(pts, dup.weights, 1)
    far = random_cloud(72, 300)
    far = DiscreteMeasure(far.points + 1e6, far.weights, 1)
    rng = np.random.default_rng(73)
    spread = []
    for d in (3, 9):
        m = random_cloud(74 + d, 400, d)
        centers = rng.random((60, d))
        # each radius is the coordinate-order distance to some atom, which
        # then sits exactly on the sphere in the package's arithmetic
        gaps = m.points[rng.integers(0, m.size, 60)] - centers
        spread.append((m, centers, coordinate_order_lengths(gaps)))
    return [
        pytest.param(cantor, *on_sphere, id="cantor-on-sphere"),
        pytest.param(dup, dup.points[:150], rng.random(150) * 0.2, id="duplicates"),
        pytest.param(far, far.points[::3] + 1e-3, rng.random(100) * 0.3, id="offset-1e6"),
        pytest.param(dup, dup.points[:20], np.inf, id="r-inf"),
        pytest.param(dup, np.full((5, 2), 9.0), 0.5, id="empty"),
        *(pytest.param(m, c, r, id=f"per-centre-d{m.ambient_dim}") for m, c, r in spread),
        pytest.param(cantor, cantor.points[7:8], 0.25, id="single-centre"),
    ]


@pytest.mark.parametrize("tiny", [False, True], ids=["block", "tiny-block"])
@pytest.mark.parametrize("m, centers, radii", _ball_families())
def test_ball_family_equals_brute_force_bitwise(monkeypatch, tiny, m, centers, radii):
    if tiny:
        monkeypatch.setattr(geometry, "PAIR_BLOCK", 7)
    radii = np.broadcast_to(radii, len(centers))
    got = list(m.balls(centers, radii))
    assert len(got) == len(centers)
    for idx, x, r in zip(got, centers, radii):
        want = np.flatnonzero(coordinate_order_lengths(m.points - x) < r)
        assert idx.dtype == want.dtype and np.array_equal(idx, want)
        assert np.array_equal(m.ball_indices(x, r), want)


def test_ball_family_checks_its_input_when_asked():
    m = random_cloud(75, 50)
    x = m.points[:3]
    for centers, radii in ((np.array([[np.nan, 0.5]]), 0.3), (np.array([[np.inf, 0.5]]), 0.3),
                           (x, np.nan), (x, 0.0), (x, [0.1, -0.1, 0.1])):
        with pytest.raises(InvalidRange):
            m.balls(centers, radii)
    for centers, radii in ((x[:, :1], 0.3), (x[0], 0.3), (x, [0.1, 0.2])):
        with pytest.raises(DimensionMismatch):
            m.balls(centers, radii)
    with pytest.raises(InvalidRange):
        m.ball_indices([np.nan, 0.5], 0.3)
    assert list(m.balls(np.empty((0, 2)), 0.3)) == []


def _brute_balls(pts, centers, radii):
    return [np.flatnonzero(coordinate_order_lengths(pts - x) < r)
            for x, r in zip(centers, np.broadcast_to(radii, len(centers)))]


def _brute_nearest(pts, queries):
    return np.array([coordinate_order_lengths(pts - q).min() for q in queries])


def _assert_index_is_brute_force(pts, centers, radii):
    index = geometry.SortedIndex(pts)
    radii = np.broadcast_to(np.asarray(radii, dtype=float), len(centers))
    got = list(index.balls(centers, radii))
    want = _brute_balls(pts, centers, radii)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and np.array_equal(g, w)
    assert np.array_equal(index.nearest(centers), _brute_nearest(pts, centers))
    return index


@pytest.mark.parametrize("r", [1e-7, 1e-9])
def test_index_runs_hold_their_balls_at_offset_1e6(r):
    # at 1e6 an ulp is 1.2e-10, so c -+ r rounds at the scale of |c|; atoms
    # sit a few ulps inside and outside c -+ r on the sort axis, and on it
    rng = np.random.default_rng(81)
    centers = 1e6 + rng.random((40, 2)) * 1e-6
    ulps = np.arange(-4, 5)[:, None] * np.spacing(1e6)
    rims = [c + np.stack([s * r + ulps[:, 0], 0 * ulps[:, 0]], axis=1)
            for c in centers for s in (-1.0, 1.0)]
    pts = np.concatenate([1e6 + rng.random((200, 2)) * 1e-6, *rims])
    index = _assert_index_is_brute_force(pts, centers, r)
    assert min(len(b) for b in index.balls(centers, np.full(len(centers), r))) > 0


def test_index_sorts_along_the_axis_of_widest_spread():
    rng = np.random.default_rng(82)
    pts = np.stack([0.3 + 1e-3 * rng.random(400), rng.random(400), 0.01 * rng.random(400)],
                   axis=1)
    index = _assert_index_is_brute_force(pts, pts[::7] + 1e-4, rng.random(58) * 0.2)
    assert index.axis == 1
    assert np.array_equal(index.keys, np.sort(pts[:, 1]))


def test_index_of_one_location_one_atom_and_no_queries():
    one_place = np.full((30, 3), 2.5)
    _assert_index_is_brute_force(one_place, np.array([[2.5, 2.5, 2.5], [2.5, 2.5, 3.0]]),
                                 [1e-12, 0.5])
    one_atom = np.array([[1.0, -2.0]])
    index = _assert_index_is_brute_force(one_atom, np.array([[1.0, -2.0], [0.0, 0.0]]),
                                         [0.1, 3.0])
    assert list(index.balls(np.empty((0, 2)), np.empty(0))) == []
    assert index.nearest(np.empty((0, 2))).shape == (0,)
    pts = random_cloud(83, 300).points
    for got in geometry.SortedIndex(pts).balls(pts[:9], np.full(9, np.inf)):
        assert np.array_equal(got, np.arange(300))


@pytest.mark.parametrize("tiny", [False, True], ids=["block", "tiny-block"])
def test_nearest_outside_the_hull_is_the_kd_tree_distance(monkeypatch, tiny):
    # the mixture's Cantor atoms lie to the right of its graph's x-range
    if tiny:
        monkeypatch.setattr(geometry, "PAIR_BLOCK", 7)
    pts = mixture_cloud().points
    graph, cantor = pts[:744], pts[744:]
    assert cantor[:, 0].min() > graph[:, 0].max()
    got = geometry.SortedIndex(graph).nearest(cantor)
    assert np.array_equal(got, cKDTree(graph).query(cantor)[0])
    assert np.array_equal(got, _brute_nearest(graph, cantor))
    for d in (3, 9):
        cloud = random_cloud(84 + d, 300, d).points + 1e6
        queries = 1e6 + np.random.default_rng(d).random((50, d)) * 3 - 1
        assert np.array_equal(geometry.SortedIndex(cloud).nearest(queries),
                              _brute_nearest(cloud, queries))


def test_cone_mass_equals_brute_force(rng):
    m = random_cloud(9, 120)
    v = make_plane([[1.0, 1.0]])
    for _ in range(10):
        x = rng.random(2)
        alpha = rng.uniform(0.1, 0.9)
        got = cone_mass(m, x, v, alpha, 0.05, 1.5)
        want = brute_cone_mass(m, x, v.basis, alpha, 0.05, 1.5)
        assert got == want


def test_theta_dilation_scaling(rng):
    m = random_cloud(12, 80)
    s = 3.7
    scaled = DiscreteMeasure(m.points * s, m.weights, m.dim_param)
    x = rng.random(2)
    r = 0.3
    assert ball_mass(scaled, x * s, r * s) / (r * s) == pytest.approx(ball_mass(m, x, r) / r / s,
                                                                      rel=1e-12)


def test_csv_roundtrip(tmp_path):
    m = random_cloud(77, 60)
    path = tmp_path / "pts.csv"
    save_csv(m, path)
    back = load_csv(path, dim_param=1)
    assert np.array_equal(back.points, m.points)
    assert np.array_equal(back.weights, m.weights)


def test_csv_rejects_bad_weights(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x0,x1,w\n0,0,1.0\n1,1,-2.0\n")
    with pytest.raises(InputError):
        load_csv(path)


def test_csv_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n0,0,1\n")
    with pytest.raises(InputError):
        load_csv(path)
