import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (SWEEP_CASES, Cone, cone_contains, cone_row, coordinate_order_lengths,
                      dist_to_affine_plane, plane_metric, project)

from conical_gmt.corona import _set_distance
from conical_gmt.errors import InvalidParams, RankDeficient
from conical_gmt.generators import GeneratorSpec, generate
from conical_gmt.geometry import (Plane, SortedIndex, cone_pairs, format_plane, make_plane,
                                  parse_plane, sample_grassmannian)
from conical_gmt.lattice import build_lattice
from conical_gmt.measure import DiscreteMeasure


def line(angle: float) -> Plane:
    return make_plane([[math.cos(angle), math.sin(angle)]])


def test_make_plane_already_orthonormal():
    p = make_plane([[0.0, 1.0]])
    assert np.allclose(p.basis, [[0.0, 1.0]])


def test_make_plane_spans_xy_plane():
    p = make_plane([[1.0, 1.0, 0.0], [0.0, 1.0, 0.0]])
    assert p.dim == 2
    # span check: e1 and e2 project onto themselves
    for v in (np.array([1.0, 0, 0]), np.array([0, 1.0, 0])):
        par, perp = project(v, p)
        assert np.allclose(par, v, atol=1e-12)
        assert np.allclose(perp, 0, atol=1e-12)


def test_make_plane_rank_deficient():
    with pytest.raises(RankDeficient):
        make_plane([[1.0, 0.0], [2.0, 0.0]])


@pytest.mark.parametrize("vectors", [[[np.nan, 1.0]], [[np.inf, 1.0]],
                                     [[1.0, 0.0, 0.0], [0.0, -np.inf, 1.0]]])
def test_make_plane_rejects_non_finite(vectors):
    # numpy's SVD does not converge on such input
    with pytest.raises(InvalidParams):
        make_plane(vectors)


def test_dist_to_affine_plane_cases():
    y_axis = make_plane([[0.0, 1.0]])
    x_axis = make_plane([[1.0, 0.0]])
    assert dist_to_affine_plane([1.0, 0.0], y_axis, [0.0, 0.0]) == pytest.approx(1.0)
    assert dist_to_affine_plane([0.0, 3.5], y_axis, [0.0, 0.0]) == pytest.approx(0.0, abs=1e-15)
    assert dist_to_affine_plane([1.0, 1.0], x_axis, [0.0, 0.0]) == pytest.approx(1.0)


def test_cone_contains_basic():
    y_axis = make_plane([[0.0, 1.0]])
    cone = Cone(np.zeros(2), y_axis, 0.5)
    assert not cone_contains(cone, [1.0, 0.0])   # dist == |y - x|
    assert cone_contains(cone, [0.0, 1.0])       # on the axis
    assert not cone_contains(cone, [0.0, 0.0])   # vertex excluded


def test_cone_truncation_strict():
    y_axis = make_plane([[0.0, 1.0]])
    cone = Cone(np.zeros(2), y_axis, 0.9, inner_radius=0.0, outer_radius=1.0)
    assert not cone_contains(cone, [0.0, 1.0])   # |y - x| == R excluded
    cone2 = Cone(np.zeros(2), y_axis, 0.9, inner_radius=1.0, outer_radius=2.0)
    assert not cone_contains(cone2, [0.0, 1.0])  # |y - x| == r excluded
    assert cone_contains(cone2, [0.0, 1.5])


def test_plane_metric_identical():
    v = line(0.3)
    assert plane_metric(v, v) == 0.0


def test_plane_metric_orthogonal_lines():
    # oracle: P_V - P_W for the two axes is diag(1, -1); top singular value 1
    assert plane_metric(line(0.0), line(math.pi / 2)) == pytest.approx(1.0)


def test_plane_metric_angle_oracle():
    # oracle: hand 2x2 projection matrices; top singular value of the
    # difference equals sin(phi), computed via the eigenvalue formula
    phi = math.pi / 6
    p0 = np.array([[1.0, 0.0], [0.0, 0.0]])
    c, s = math.cos(phi), math.sin(phi)
    p1 = np.array([[c * c, c * s], [c * s, s * s]])
    diff = p0 - p1
    # symmetric 2x2: singular values are |eigenvalues|
    tr, det = diff[0, 0] + diff[1, 1], np.linalg.det(diff)
    lam = max(abs((tr + math.sqrt(tr * tr - 4 * det)) / 2),
              abs((tr - math.sqrt(tr * tr - 4 * det)) / 2))
    assert lam == pytest.approx(math.sin(phi), abs=1e-12)
    assert plane_metric(line(0.0), line(phi)) == pytest.approx(0.5, abs=1e-12)


def test_grassmannian_deterministic():
    a = sample_grassmannian(2, 1, 1, seed=7)[0]
    b = sample_grassmannian(2, 1, 1, seed=7)[0]
    assert np.array_equal(a.basis, b.basis)


def test_grassmannian_symmetry_monte_carlo():
    # Monte-Carlo oracle: for the invariant measure on G(3, 2) the first
    # frame vector is uniform on S^2, so E[(v . e1)^2] = 1/3
    planes = sample_grassmannian(3, 2, 1000, seed=11)
    vals = [p.basis[0, 0] ** 2 for p in planes]
    assert abs(np.mean(vals) - 1.0 / 3.0) < 0.05


def test_grassmannian_distinct():
    planes = sample_grassmannian(2, 1, 4, seed=5)
    for i in range(4):
        for j in range(i + 1, 4):
            assert plane_metric(planes[i], planes[j]) > 0


def test_project_splits_and_recombines():
    x_axis = line(0.0)
    par, perp = project([1.0, 1.0], x_axis)
    assert np.allclose(par, [1.0, 0.0])
    assert np.allclose(perp, [0.0, 1.0])


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=30, deadline=None)
def test_project_recombination_random(seed):
    rng = np.random.default_rng(seed)
    p = sample_grassmannian(4, 2, 1, seed)[0]
    y = rng.standard_normal(4)
    par, perp = project(y, p)
    assert np.allclose(par + perp, y, atol=1e-12)
    assert abs(par @ perp) < 1e-12


def test_project_idempotent(rng):
    p = sample_grassmannian(3, 1, 1, seed=2)[0]
    y = rng.standard_normal(3)
    par, _ = project(y, p)
    par2, _ = project(par, p)
    assert np.allclose(par, par2, atol=1e-12)


def test_project_in_plane_has_zero_complement():
    p = line(0.7)
    v = 2.5 * p.basis[0]
    _, perp = project(v, p)
    assert np.allclose(perp, 0, atol=1e-12)


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=40, deadline=None)
def test_cone_symmetry_untruncated(seed):
    # y in K(x, V, alpha) iff x in K(y, V, alpha)
    rng = np.random.default_rng(seed)
    v = sample_grassmannian(3, 1, 1, seed)[0]
    x, y = rng.standard_normal(3), rng.standard_normal(3)
    alpha = float(rng.uniform(0.05, 0.95))
    a = cone_contains(Cone(x, v, alpha), y)
    b = cone_contains(Cone(y, v, alpha), x)
    assert a == b


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=40, deadline=None)
def test_cone_aperture_monotone(seed):
    rng = np.random.default_rng(seed)
    v = sample_grassmannian(2, 1, 1, seed)[0]
    x, y = rng.standard_normal(2), rng.standard_normal(2)
    a1, a2 = sorted(rng.uniform(0.05, 0.95, size=2))
    if cone_contains(Cone(x, v, a1), y):
        assert cone_contains(Cone(x, v, a2), y)


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=25, deadline=None)
def test_plane_metric_triangle(seed):
    ps = sample_grassmannian(3, 1, 3, seed)
    d01 = plane_metric(ps[0], ps[1])
    d12 = plane_metric(ps[1], ps[2])
    d02 = plane_metric(ps[0], ps[2])
    assert d02 <= d01 + d12 + 1e-10


def test_cone_mask_matches_scalar(rng):
    v = sample_grassmannian(2, 1, 1, seed=9)[0]
    pts = rng.standard_normal((50, 2))
    x = rng.standard_normal(2)
    mask = cone_row(pts, x, v, 0.6)[0]
    cone = Cone(x, v, 0.6)
    for p, flag in zip(pts, mask):
        assert flag == cone_contains(cone, p)


def test_cone_mask_tie_rule_matches_exact_rationals():
    # Fraction(float) is exact, so the oracle decides the real inequality on
    # the stored coordinates.  With V = e2 and alpha = p/q = 4/5, y is in the
    # cone at x iff q^2 dx^2 < p^2 (dx^2 + dy^2); equality means
    # 3|dx| = 4|dy|, the 3-4-5 pairs on the boundary, which must stay outside.
    m, _ = generate(GeneratorSpec("four_corner_cantor", {"generation": 4}))
    exact = [(Fraction(a), Fraction(b)) for a, b in m.points]
    v = make_plane([[0.0, 1.0]])
    p, q = 4, 5
    boundary = 0
    for i, (x0, x1) in enumerate(exact):
        got = cone_row(m.points, m.points[i], v, 0.8)[0]
        for j, (y0, y1) in enumerate(exact):
            dx2, dy2 = (y0 - x0) ** 2, (y1 - x1) ** 2
            lhs, rhs = q * q * dx2, p * p * (dx2 + dy2)
            assert got[j] == (lhs < rhs), (i, j)
            boundary += lhs == rhs and dx2 > 0
    assert boundary > 0


@pytest.mark.parametrize("d", range(2, 8))
def test_cone_dist_matches_norm_expression(d):
    # the mask and distances equal, bit for bit, the linalg.norm expression
    # the cone test used before, for every plane dimension and far offsets
    rng = np.random.default_rng(100 + d)
    for m in range(1, d):
        v = sample_grassmannian(d, m, 1, seed=d * 10 + m)[0]
        for offset in (0.0, 1.0, 1e3, 1e6):
            pts = offset + rng.standard_normal((300, d))
            x = offset + rng.standard_normal(d)
            for alpha in (0.6, 0.3):
                diff = pts - x[None, :]
                dist = np.linalg.norm(diff, axis=1)
                par = (diff @ v.basis.T) @ v.basis
                perp = np.linalg.norm(diff - par, axis=1)
                mask, got = cone_row(pts, x, v, alpha)
                assert np.array_equal(got, dist), (d, m, offset)
                assert np.array_equal(mask, perp < alpha * dist), (d, m, offset)


@pytest.mark.parametrize("m, direction, aperture", SWEEP_CASES)
def test_cone_pairs_rows_are_cone_dist_from_either_end(m, direction, aperture):
    # strip row r holds the pairs (i, j > i) of i = i0 + r from column r on;
    # each must carry the mask bit and the distance of a full-cloud cone test
    # at x_i and, by symmetry, at x_j, and the columns before r (j <= i) none
    pts = m.points
    seen = 0
    rows = [cone_row(pts, x, direction, aperture) for x in pts]
    for i0, strip_mask, strip_dist in cone_pairs(pts, direction, aperture):
        assert i0 == seen
        for r, (mask, dist) in enumerate(zip(strip_mask, strip_dist)):
            i = i0 + r
            assert not mask[:r].any()
            mask, dist = mask[r:], dist[r:]
            assert np.array_equal(mask, rows[i][0][i + 1:])
            assert np.array_equal(dist, rows[i][1][i + 1:])
            back = np.arange(i + 1, len(pts))
            assert np.array_equal(mask, [rows[j][0][i] for j in back])
            assert np.array_equal(dist, [rows[j][1][i] for j in back])
            seen += 1
    assert seen == max(len(pts) - 1, 0)


def test_cone_pairs_one_partner_row_at_boundary_apertures():
    # two atoms make one strip of one pair; a one-row product takes another
    # BLAS path whose |P_{V^perp}| can differ in the last bit, and that bit
    # decides an aperture on the pair's cone boundary
    rng = np.random.default_rng(5)
    for d in range(2, 6):
        for k in range(1, d):
            for seed in range(30):
                v = sample_grassmannian(d, k, 1, seed=seed)[0]
                pts = rng.standard_normal((2, d))
                diff = pts - pts[0]
                perp = np.linalg.norm(diff - (diff @ v.basis.T) @ v.basis, axis=1)[1]
                edge = perp / np.linalg.norm(diff[1])
                for aperture in (np.nextafter(edge, 0.0), edge, np.nextafter(edge, 1.0)):
                    if not 0 < aperture < 1:
                        continue
                    want = cone_row(pts, pts[0], v, aperture)[0][1]
                    (_, mask, _), = cone_pairs(pts, v, aperture)
                    assert mask.tolist() == [[want]]


def test_cone_dist_one_row_matches_its_row_in_a_batch_at_boundary_apertures():
    # a one-row product takes another BLAS path; padded inside the cone test,
    # a row tested alone keeps the bit it gets in a batch, even on the boundary
    rng = np.random.default_rng(11)
    for d in range(2, 6):
        for k in range(1, d):
            for seed in range(30):
                v = sample_grassmannian(d, k, 1, seed=seed)[0]
                x, pts = rng.standard_normal(d), rng.standard_normal((3, d))
                diff = pts - x
                perp = np.linalg.norm(diff - (diff @ v.basis.T) @ v.basis, axis=1)
                edge = perp[0] / np.linalg.norm(diff[0])
                for aperture in (np.nextafter(edge, 0.0), edge, np.nextafter(edge, 1.0)):
                    batch_mask, batch_dist = cone_row(pts, x, v, aperture)
                    mask, dist = cone_row(pts[:1], x, v, aperture)
                    assert mask.tolist() == batch_mask[:1].tolist(), (d, k, seed)
                    assert dist.tolist() == batch_dist[:1].tolist()


def test_plane_serialization_roundtrip():
    p = make_plane([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    text = format_plane(p)
    q = parse_plane(text)
    assert np.allclose(p.basis.T @ p.basis, q.basis.T @ q.basis, atol=1e-15)
    assert parse_plane("0,1").basis.tolist() == [[0.0, 1.0]]


def pairwise_lengths(diff: np.ndarray) -> np.ndarray:
    """|v| along the last axis with numpy's pairwise sum, which groups eight
    or more terms differently from coordinate order."""
    return np.sqrt(np.add.reduce(diff * diff, axis=-1))


TIE_CASES = [pytest.param(d, offset, id=f"R{d}-offset{offset:g}")
             for d in (8, 12) for offset in (0.0, 1e6)]


@pytest.mark.parametrize("d, offset", TIE_CASES)
def test_every_query_puts_a_tied_atom_on_its_sphere(d, offset):
    """Radii equal to the coordinate-order distances of pairs whose pairwise
    row sum rounds differently: every ball, distance, nearest distance,
    extreme distance and cone measures the pair as exactly that radius."""
    rng = np.random.default_rng(d)
    pts = offset + rng.random((40, d))
    m = DiscreteMeasure(pts, np.ones(len(pts)), 1)
    i, j = np.triu_indices(len(pts), 1)
    exact = coordinate_order_lengths(pts[j] - pts[i])
    tied = np.flatnonzero(exact != pairwise_lengths(pts[j] - pts[i]))[:12]
    assert len(tied) == 12
    i, j, r = i[tied], j[tied], exact[tied]
    above = np.nextafter(r, np.inf)
    balls = zip(m.balls(pts[i], r), m.balls(pts[i], above))
    for a, b, ra, rb, (on, past) in zip(i, j, r, above, balls):
        assert b not in on and b in past
        assert m.distances_from(pts[a])[b] == ra
        assert _set_distance(pts[[a]], pts[[b]]) == ra == _set_distance(pts[[b]], pts[[a]])
        pair = DiscreteMeasure(pts[[a, b]], np.ones(2), 1)
        assert pair.min_interpoint_distance() == ra == pair.diameter()
        along = make_plane([pts[b] - pts[a]])
        mask, dist = cone_row(pts[[b]], pts[a], along, 0.5)
        assert mask[0] and dist[0] == ra
        assert cone_contains(Cone(pts[a], along, 0.5, 0.0, rb), pts[b])
        assert not cone_contains(Cone(pts[a], along, 0.5, 0.0, ra), pts[b])


@pytest.mark.parametrize("d, offset", TIE_CASES)
def test_nearest_centre_assignment_breaks_a_tie_to_the_lower_index(d, offset):
    """An atom y at one coordinate-order distance r from two level-1 centres
    c1 < c2, where the pairwise row sum puts c2 nearer: the lattice gives y
    to c1, and the balls and the nearest distance about y see both centres
    on the sphere of radius r."""
    rng = np.random.default_rng(d)
    for _ in range(5000):
        # y - c1 and y - c2 are multiples of 2^-33 and y - (y - w) is w
        # again, so the pair's differences are the permuted offsets
        y = (offset or 2.0) + 0.25 + 0.5 * rng.random(d)
        w1 = np.round((rng.random(d) - 0.5) * 0.4 * 2 ** 33) / 2 ** 33
        c1, c2 = y - w1, y - w1[rng.permutation(d)]
        r, r2, gap = coordinate_order_lengths(np.stack([y - c1, y - c2, c2 - c1]))
        if r2 == r and gap > 1.1 * r and pairwise_lengths(y - c1) > pairwise_lengths(y - c2):
            break
    else:
        pytest.fail("no tied pair of centres found")
    m = DiscreteMeasure(np.stack([c1, c2, y]), np.ones(3), 1)
    # level 1 separates centres by 10 r_1 = 0.95 |c2 - c1| > r: c1 and c2
    # are its centres and y is not
    lat = build_lattice(m, 2.0, 10.5, 2)
    cubes = {lat.cubes[q].center_idx: lat.cubes[q].members.tolist() for q in lat.levels[1]}
    assert cubes == {0: [0, 2], 1: [1]}
    assert m.ball_indices(y, r).tolist() == [2]
    assert m.ball_indices(y, np.nextafter(r, np.inf)).tolist() == [0, 1, 2]
    assert SortedIndex(m.points[:2]).nearest(y[None])[0] == r
