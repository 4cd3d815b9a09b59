import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import SWEEP_CASES

from conical_gmt.errors import DimensionMismatch, InvalidParams, RankDeficient
from conical_gmt.generators import GeneratorSpec, generate
from conical_gmt.geometry import (Cone, Plane, cone_contains, cone_dist, cone_mask,
                                  cone_pairs, dist_to_affine_plane, format_plane,
                                  make_plane, parse_plane, plane_metric,
                                  project, sample_grassmannian)


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


def test_dist_to_affine_plane_cases():
    y_axis = make_plane([[0.0, 1.0]])
    x_axis = make_plane([[1.0, 0.0]])
    assert dist_to_affine_plane([1.0, 0.0], y_axis, [0.0, 0.0]) == pytest.approx(1.0)
    assert dist_to_affine_plane([0.0, 3.5], y_axis, [0.0, 0.0]) == pytest.approx(0.0, abs=1e-15)
    assert dist_to_affine_plane([1.0, 1.0], x_axis, [0.0, 0.0]) == pytest.approx(1.0)


def test_dist_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        dist_to_affine_plane([1.0, 0.0, 0.0], make_plane([[0.0, 1.0]]), [0.0, 0.0, 0.0])


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


def test_cone_invalid_params():
    y_axis = make_plane([[0.0, 1.0]])
    with pytest.raises(InvalidParams):
        Cone(np.zeros(2), y_axis, 1.5)
    with pytest.raises(InvalidParams):
        Cone(np.zeros(2), y_axis, 0.5, inner_radius=2.0, outer_radius=1.0)


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


def test_plane_metric_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        plane_metric(line(0.0), make_plane([[1.0, 0, 0], [0, 1.0, 0]]))


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
    mask = cone_mask(pts, x, v, 0.6, 0.1, 2.0)
    cone = Cone(x, v, 0.6, 0.1, 2.0)
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
        got = cone_mask(m.points, m.points[i], v, 0.8)
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
            for alpha, r, big in ((0.6, 0.0, np.inf), (0.3, 0.5, 2.0)):
                diff = pts - x[None, :]
                dist = np.linalg.norm(diff, axis=1)
                par = (diff @ v.basis.T) @ v.basis
                perp = np.linalg.norm(diff - par, axis=1)
                want = (dist > r) & (dist < big) & (perp < alpha * dist)
                mask, got = cone_dist(pts, x, v, alpha, r, big)
                assert np.array_equal(got, dist), (d, m, offset)
                assert np.array_equal(mask, want), (d, m, offset)
                assert np.array_equal(cone_mask(pts, x, v, alpha, r, big), want)


@pytest.mark.parametrize("m, direction, aperture", SWEEP_CASES)
def test_cone_pairs_rows_are_cone_dist_from_either_end(m, direction, aperture):
    # row i holds the pairs (i, j > i); each must carry the mask bit and the
    # distance of a full-cloud cone test at x_i and, by symmetry, at x_j
    pts = m.points
    seen = 0
    rows = [cone_dist(pts, x, direction, aperture) for x in pts]
    for i, mask, dist in cone_pairs(pts, direction, aperture):
        assert np.array_equal(mask, rows[i][0][i + 1:])
        assert np.array_equal(dist, rows[i][1][i + 1:])
        back = np.arange(i + 1, len(pts))
        assert np.array_equal(mask, [rows[j][0][i] for j in back])
        assert np.array_equal(dist, [rows[j][1][i] for j in back])
        seen += 1
    assert seen == max(len(pts) - 1, 0)


def test_cone_pairs_one_partner_row_at_boundary_apertures():
    # the last row has one partner; a one-row product takes another BLAS path
    # whose |P_{V^perp}| can differ in the last bit, and that bit decides an
    # aperture on the pair's cone boundary
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
                    want = cone_dist(pts, pts[0], v, aperture)[0][1]
                    (_, mask, _), = cone_pairs(pts, v, aperture)
                    assert mask.tolist() == [want]


def test_cone_dist_one_row_matches_its_row_in_a_batch_at_boundary_apertures():
    # a one-row product takes another BLAS path; padded inside cone_dist, a
    # row tested alone keeps the bit it gets in a batch, even on the boundary
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
                    batch_mask, batch_dist = cone_dist(pts, x, v, aperture)
                    mask, dist = cone_dist(pts[:1], x, v, aperture)
                    assert mask.tolist() == batch_mask[:1].tolist(), (d, k, seed)
                    assert dist.tolist() == batch_dist[:1].tolist()


def test_plane_serialization_roundtrip():
    p = make_plane([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    text = format_plane(p)
    q = parse_plane(text)
    assert np.allclose(p.projection_matrix(), q.projection_matrix(), atol=1e-15)
    assert parse_plane("0,1").basis.tolist() == [[0.0, 1.0]]
