from collections import Counter

import numpy as np
import pytest

from conftest import SWEEP_CASES, _cone_energy, separation_oracle

from conical_gmt.corona import (CoronaParams, _Ctx, build_top,
                                key_cone_exclusion, separated_families,
                                stopping_decomposition, verify_corona)
from conical_gmt.energy import pointwise_energies, total_energy, weighted_sum
from conical_gmt.errors import ConeViolation, InvalidParams, NotDoublingRoot
from conical_gmt.generators import GeneratorSpec, generate
from conical_gmt.geometry import make_plane
from conical_gmt.graphs import cone_separation_violations, fit_lipschitz_graph
from conical_gmt.lattice import build_lattice, natural_depth
from conical_gmt.measure import DiscreteMeasure, ball_mass

V_AXIS = make_plane([[0.0, 1.0]])


def default_params(**kw):
    return CoronaParams(plane=V_AXIS, aperture=0.8, **kw)


def line_setup(count=400):
    m, _ = generate(GeneratorSpec("segment", {"count": count}))
    lat = build_lattice(m, 2.0, 8.0, natural_depth(m))
    return m, lat


def theta2b_direct(lat, cube):
    rad = 2 * cube.ball_radius
    return ball_mass(lat.measure, cube.center, rad) / rad


def test_params_validation():
    with pytest.raises(InvalidParams):
        CoronaParams(plane=V_AXIS, aperture=0.8, density_low=1.5)
    with pytest.raises(InvalidParams):
        CoronaParams(plane=V_AXIS, aperture=0.8, density_high=0.5)
    with pytest.raises(InvalidParams):
        CoronaParams(plane=V_AXIS, aperture=0.8, sep_const=1.0)
    p = default_params()
    assert p.key_const == pytest.approx(4.0 / 0.8)
    assert p.sep_const > p.key_const
    assert p.prox_const > 2 * p.key_const


def test_line_no_stopping_and_conditions_oracle():
    m, lat = line_setup()
    params = default_params()
    tree = stopping_decomposition(lat, lat.root, params)
    assert not tree.stop_ids
    assert sorted(tree.tree_ids) == sorted(q.id for q in lat.cubes)
    assert len(tree.good_indices) == m.size
    # oracle: direct condition evaluation on every tree cube
    theta_r = theta2b_direct(lat, lat.root)
    for cid in tree.tree_ids:
        q = lat.cubes[cid]
        theta_q = theta2b_direct(lat, q)
        assert tree.theta_ledger[cid] == pytest.approx(theta_q, rel=1e-12)
        assert tree.chain_energy[cid] == 0.0
        assert not (q.doubling and theta_q > params.density_high * theta_r)
        assert not theta_q < params.density_low * theta_r


def test_heavy_atom_trips_hd():
    # hand-checkable toy: diffuse mass 0.5 on a short segment plus one atom
    # of mass 0.5 far away; the lone atom's singleton cube turns doubling at
    # level 2 where its density exceeds A * root density
    count = 256
    z = (np.arange(count) + 0.5) / count
    pts = np.vstack([np.stack([z, np.zeros(count)], axis=1), [[3.0, 0.0]]])
    w = np.concatenate([np.full(count, 0.5 / count), [0.5]])
    m = DiscreteMeasure(pts, w, 1)
    lat = build_lattice(m, 2.0, 8.0, 4)
    params = default_params()
    tree = stopping_decomposition(lat, lat.root, params)
    heavy = count
    hd_cubes = [lat.cubes[i] for i in tree.stop_hd]
    assert any(heavy in q.members and q.is_singleton() for q in hd_cubes)
    theta_r = theta2b_direct(lat, lat.root)
    for q in hd_cubes:
        assert q.doubling
        assert theta2b_direct(lat, q) > params.density_high * theta_r


def test_zero_threshold_stops_root():
    m, _ = generate(GeneratorSpec("four_corner_cantor", {"generation": 3}))
    lat = build_lattice(m, 2.0, 8.0, 4)
    params = default_params(energy_stop=0.0)
    tree = stopping_decomposition(lat, lat.root, params)
    assert tree.stop_bce == [lat.root.id]
    assert tree.tree_ids == [lat.root.id]
    assert len(tree.good_indices) == 0


def test_not_doubling_root_rejected():
    pts = np.vstack([[[0.0, 0.0], [0.004, 0.0]],
                     np.stack([np.linspace(0.05, 0.25, 50), np.zeros(50)], axis=1)])
    w = np.concatenate([[0.001, 0.001], np.full(50, 0.998 / 50)])
    m = DiscreteMeasure(pts, w, 1)
    lat = build_lattice(m, 2.0, 8.0, 4)
    bad = [q for q in lat.cubes if not q.doubling]
    assert bad
    with pytest.raises(NotDoublingRoot):
        stopping_decomposition(lat, bad[0], default_params())


def brute_key_exclusion(lat, q, p, params):
    pts = lat.measure.points
    mm = params.key_const
    half = params.aperture / 2
    basis = params.plane.basis
    dmin = min(np.linalg.norm(pts[a] - pts[b])
               for a in q.members for b in p.members)
    if dmin < mm * p.radius:
        return False
    for a in q.members:
        for b in p.members:
            diff = pts[b] - pts[a]
            dist = np.linalg.norm(diff)
            if dist == 0:
                continue
            perp = np.linalg.norm(diff - (diff @ basis.T) @ basis)
            far = np.linalg.norm(pts[b] - q.center) >= mm * q.ball_radius
            if perp < half * dist and far:
                return True
    return False


def test_key_exclusion_near_cube_false():
    m, lat = line_setup(100)
    params = default_params()
    root = lat.root
    child = lat.cubes[root.children[0]]
    # every atom of the child sits inside M B_root
    assert not key_cone_exclusion(lat, root, child, params)


def test_key_exclusion_axis_construction_true():
    pts = np.array([[0.0, 0.0], [0.001, 0.0], [0.0, 0.9], [0.9, 0.45]])
    m = DiscreteMeasure(pts, np.full(4, 0.25), 1)
    lat = build_lattice(m, 2.0, 8.0, 6)
    params = default_params()
    deep = lat.depth - 1
    q = next(c for c in lat.cubes if c.level == deep and 0 in c.members)
    p = next(c for c in lat.cubes if c.level == deep and 2 in c.members)
    # atom 2 sits on the vertical axis of atom 0 at distance ~0.9, far beyond
    # M r(B_Q), and both cubes are deep singletons
    assert key_cone_exclusion(lat, q, p, params)
    assert brute_key_exclusion(lat, q, p, params)


def test_key_exclusion_matches_brute_force():
    m, _ = generate(GeneratorSpec("four_corner_cantor", {"generation": 2}))
    lat = build_lattice(m, 2.0, 8.0, 4)
    params = default_params()
    rng = np.random.default_rng(5)
    ids = rng.choice(len(lat.cubes), size=(25, 2))
    for qa, qb in ids:
        q, p = lat.cubes[qa], lat.cubes[qb]
        assert key_cone_exclusion(lat, q, p, params) == brute_key_exclusion(lat, q, p, params)


def test_separated_families_single_neighbour_cluster():
    m, lat = line_setup(200)
    params = default_params()
    level = [lat.cubes[i] for i in lat.levels[2]]
    t = params.sep_const
    sep, star = separated_families(level, t, params.key_const,
                                   np.empty((0, 2)), lat)
    # same-level line cubes are mutual t-neighbours for large t
    assert len(sep) == 1
    assert sep[0] == min(level, key=lambda c: (c.level, c.id)).id


def test_separated_families_far_pair_kept():
    pts = np.array([[0.0, 0.0], [1.0, 0.0]])
    m = DiscreteMeasure(pts, np.array([0.5, 0.5]), 1)
    lat = build_lattice(m, 2.0, 10.0, 4)
    cubes = [lat.cubes[i] for i in lat.levels[3]]
    assert len(cubes) == 2
    # with a tiny separation constant the pair is t-separated
    sep, star = separated_families(cubes, t=1.05, m_const=1.01,
                                   good_points=np.empty((0, 2)), lattice=lat)
    assert len(sep) == 2
    assert set(star) == set(sep)


def test_separated_families_swallowed_ball_excluded():
    pts = np.array([[0.0, 0.0], [0.001, 0.0], [5.0, 0.0]])
    m = DiscreteMeasure(pts, np.full(3, 1 / 3), 1)
    lat = build_lattice(m, 2.0, 8.0, 8)
    # pick one big cube around atoms 0-1 and one deep singleton inside it
    big = next(c for c in lat.cubes if c.level == 3 and 0 in c.members)
    small = next(c for c in lat.cubes if c.level == lat.depth - 1
                 and c.members.tolist() == [1])
    mm = 5.0
    rad_big = 2 * mm * big.ball_radius
    rad_small = 2 * mm * small.ball_radius
    assert np.linalg.norm(big.center - small.center) + rad_small <= rad_big
    sep, star = separated_families([small, big], t=1.2, m_const=mm,
                                   good_points=np.empty((0, 2)), lattice=lat)
    assert set(sep) == {small.id, big.id}
    assert star == [small.id]


def test_separated_families_good_set_filter():
    m, lat = line_setup(100)
    params = default_params()
    cube = lat.cubes[lat.levels[2][0]]
    near_good = lat.measure.points[cube.members[:1]]
    sep, star = separated_families([cube], params.sep_const, params.key_const,
                                   near_good, lat)
    assert sep == [cube.id]
    assert star == []


def test_fit_graph_collinear_anchors():
    z = np.linspace(0, 1, 20)
    pts = np.stack([z, np.zeros_like(z)], axis=1)
    g = fit_lipschitz_graph(pts, V_AXIS, 0.8)
    assert g.lip_measured == 0.0
    # constant extension off the anchors
    val = g.evaluate(np.array([[2.5]]))
    assert val.shape == (1, 1)
    assert val[0, 0] == pytest.approx(0.0, abs=1e-12)


def test_fit_graph_violation_threshold():
    alpha = 0.8
    slope_threshold = np.sqrt(4.0 / alpha ** 2 - 1.0)
    z = 0.1
    good = np.array([[0.0, 0.0], [z, z * (slope_threshold - 1e-6)]])
    bad = np.array([[0.0, 0.0], [z, z * (slope_threshold + 1e-6)]])
    g = fit_lipschitz_graph(good, V_AXIS, alpha)
    assert g.lip_measured <= 2.0 / alpha
    with pytest.raises(ConeViolation) as err:
        fit_lipschitz_graph(bad, V_AXIS, alpha)
    assert err.value.pair == (0, 1)


def test_fit_graph_from_lipschitz_samples():
    alpha = 0.5
    lip = 1.0 / (2 * alpha)
    m, _ = generate(GeneratorSpec("lipschitz_graph", {"count": 200, "lipschitz": lip}))
    g = fit_lipschitz_graph(m.points, V_AXIS, alpha)
    assert g.lip_measured <= lip + 1e-12
    # anchors reproduced exactly through the extension
    dev = g.vertical_distance(m.points)
    assert float(np.max(dev)) <= 1e-12


@pytest.mark.parametrize("m, direction, aperture", SWEEP_CASES)
def test_cone_separation_violations_equal_row_loop(m, direction, aperture):
    got = cone_separation_violations(m.points, direction, aperture)
    assert got == separation_oracle(m.points, direction, aperture)


def test_graph_evaluate_blocks_match_unblocked():
    alpha = 0.5
    m, _ = generate(GeneratorSpec("lipschitz_graph", {"count": 300, "lipschitz": 1.0}))
    g = fit_lipschitz_graph(m.points, V_AXIS, alpha)
    z = np.random.default_rng(3).uniform(-0.2, 1.2, (1000, 1))
    d = g.extension_constant * np.linalg.norm(
        z[:, None, :] - g.anchors_base[None, :, :], axis=2)[:, :, None]
    want = 0.5 * (np.min(g.anchors_value[None, :, :] + d, axis=1)
                  + np.max(g.anchors_value[None, :, :] - d, axis=1))
    assert np.array_equal(g.evaluate(z), want)


def test_build_top_single_atom():
    m = DiscreteMeasure(np.array([[0.2, 0.7]]), np.array([1.0]), 1)
    lat = build_lattice(m, 2.0, 8.0, 3)
    res = build_top(lat, default_params())
    assert res.top_ids == [lat.root.id]
    assert np.isfinite(res.ledger["packing_sum"])
    assert res.ledger["ratio"] >= 0


def test_build_top_line_ratio_stable_across_sizes():
    # three-run experiment: the packing ratio drifts by < 2x across sizes
    ratios = []
    for count in (200, 800, 3200):
        m, _ = generate(GeneratorSpec("segment", {"count": count}))
        lat = build_lattice(m, 2.0, 8.0, natural_depth(m))
        res = build_top(lat, default_params())
        assert res.ledger["total_energy"] == 0.0
        ratios.append(res.ledger["ratio"])
    assert max(ratios) <= 2.0 * min(ratios)


def test_build_top_cantor_packing_tracks_energy():
    # both sides computed exactly per generation; with the lattice one level
    # past the atomic resolution the packing sum grows with the generation
    # and stays within 3x of the total energy
    params = default_params()
    packs, energies = [], []
    for g in (3, 4, 5):
        m, _ = generate(GeneratorSpec("four_corner_cantor", {"generation": g}))
        lat = build_lattice(m, 2.0, 8.0, natural_depth(m) + 1)
        res = build_top(lat, params)
        packs.append(res.ledger["packing_sum"])
        energies.append(res.ledger["total_energy"])
    assert packs[0] < packs[1] < packs[2]
    for ps, e in zip(packs, energies):
        assert ps <= 3.0 * e
        assert ps >= e / 3.0


def test_build_top_determinism():
    m, _ = generate(GeneratorSpec("four_corner_cantor", {"generation": 4}))
    lat = build_lattice(m, 2.0, 8.0, natural_depth(m) + 1)
    r1 = build_top(lat, default_params())
    r2 = build_top(lat, default_params())
    assert r1.top_ids == r2.top_ids
    assert r1.ledger["packing_sum"] == r2.ledger["packing_sum"]
    assert [t.stop_ids for t in r1.trees] == [t.stop_ids for t in r2.trees]


def test_tree_partition_exact():
    m, _ = generate(GeneratorSpec("four_corner_cantor", {"generation": 4}))
    lat = build_lattice(m, 2.0, 8.0, natural_depth(m) + 1)
    res = build_top(lat, default_params())
    assignment = res.tr_assignment
    assert set(assignment.keys()) == {q.id for q in lat.cubes}
    # each cube's assigned root is its smallest enclosing top cube
    top_set = set(res.top_ids)
    for q in lat.cubes:
        cur = q
        while cur.id not in top_set:
            cur = lat.cubes[cur.parent]
        assert assignment[q.id] == cur.id


def test_stop_maximality_and_relabel_idempotence():
    m, _ = generate(GeneratorSpec("four_corner_cantor", {"generation": 4}))
    lat = build_lattice(m, 2.0, 8.0, natural_depth(m) + 1)
    params = default_params()
    res = build_top(lat, params)
    for tree in res.trees:
        again = stopping_decomposition(lat, tree.root_id, params)
        assert again.stop_bce == tree.stop_bce
        assert again.stop_hd == tree.stop_hd
        assert again.stop_ld == tree.stop_ld
        stop = set(tree.stop_ids)
        for sid in stop:
            anc = lat.cubes[sid]
            while anc.parent is not None:
                anc = lat.cubes[anc.parent]
                assert anc.id not in stop


def test_energy_control_recheck():
    m, _ = generate(GeneratorSpec("four_corner_cantor", {"generation": 4}))
    lat = build_lattice(m, 2.0, 8.0, natural_depth(m) + 1)
    params = default_params()
    res = build_top(lat, params)
    from conical_gmt.energy import cube_energy
    spec = params.energy_spec()
    for tree in res.trees[:10]:
        theta_r = tree.root_theta
        bound = params.energy_stop * theta_r ** params.exponent
        stopped = set(tree.stop_ids)
        for cid in tree.tree_ids:
            if cid in stopped:
                continue
            # independent chain recomputation
            total, cur = 0.0, lat.cubes[cid]
            while True:
                total += cube_energy(lat, cur, spec)
                if cur.id == tree.root_id:
                    break
                cur = lat.cubes[cur.parent]
            assert total <= bound + 1e-12
            assert total == pytest.approx(tree.chain_energy[cid], rel=1e-9, abs=1e-15)


@pytest.mark.parametrize("gen, plane", [
    (GeneratorSpec("four_corner_cantor", {"generation": 4}), [[0.0, 1.0]]),
    (GeneratorSpec("segment", {"count": 300, "jitter": 0.05}, 3), [[1.0, 0.0]]),
], ids=["cantor", "segment"])
def test_cube_energy_table_is_bit_identical(gen, plane):
    # the Cantor grid has cone-boundary ties at alpha = 0.8, V = e2; the
    # jittered segment has nonzero energies around V = e1
    m, _ = generate(gen)
    lat = build_lattice(m, 2.0, 8.0, natural_depth(m))
    params = CoronaParams(plane=make_plane(plane), aperture=0.8)
    spec = params.energy_spec()
    nm, eta = lat.measure, params.eta
    ctx = _Ctx(lat, params)
    nonzero = 0
    for q in lat.cubes:
        lo, hi = eta * q.radius, q.radius / eta
        want = 0.0
        for i in nm.ball_indices(q.center, 2.0 * q.ball_radius):
            want += nm.weights[i] * _cone_energy(
                nm.points, nm.weights, nm.points[i], spec.direction,
                spec.aperture, nm.dim_param, spec.exponent, lo, hi)
        want /= float(np.sum(nm.weights[q.members]))
        assert ctx.cube_energy(q) == want
        nonzero += want > 0
    assert nonzero > 0
    res = build_top(lat, params)
    assert res.ledger["total_energy"] == total_energy(nm, spec)


def test_corona_queries_each_cube_ball_once(monkeypatch):
    # the density and the energy of a cube share one query of its 2B_Q, and
    # nothing else in build_top asks the open-ball query
    m, _ = generate(GeneratorSpec("four_corner_cantor", {"generation": 4}))
    lat = build_lattice(m, 2.0, 8.0, natural_depth(m) + 1)
    calls = Counter()
    query = DiscreteMeasure.ball_indices

    def counted(self, x, r):
        calls[tuple(np.asarray(x).tolist()), r] += 1
        return query(self, x, r)

    monkeypatch.setattr(DiscreteMeasure, "ball_indices", counted)
    res = build_top(lat, default_params())
    cubes = [lat.cubes[cid] for t in res.trees for cid in t.tree_ids]
    assert len(res.trees) > 1
    assert calls == Counter((tuple(q.center.tolist()), 2.0 * q.ball_radius) for q in cubes)
    assert set(calls.values()) == {1}


def test_verify_corona_line_passes():
    m, lat = line_setup(300)
    params = default_params()
    res = build_top(lat, params)
    rep = verify_corona(res)
    assert rep["passed"], rep["failures"]
    # the reported max density ratio equals a direct recomputation
    tree = res.trees[0]
    direct = max(theta2b_direct(lat, lat.cubes[cid]) for cid in tree.tree_ids)
    assert rep["trees"][0]["max_density_ratio"] == pytest.approx(
        direct / tree.root_theta, rel=1e-12)
    assert rep["trees"][0]["proximity_fraction"] == 1.0


def test_verify_corona_cantor_and_graph_pass():
    params = default_params()
    for spec in (GeneratorSpec("four_corner_cantor", {"generation": 4}),
                 GeneratorSpec("lipschitz_graph", {"count": 300, "lipschitz": 0.5})):
        m, _ = generate(spec)
        lat = build_lattice(m, 2.0, 8.0, natural_depth(m))
        res = build_top(lat, params)
        rep = verify_corona(res)
        assert rep["passed"], rep["failures"]


def test_anchor_reproduction_is_definitional():
    m, lat = line_setup(150)
    params = default_params()
    res = build_top(lat, params)
    for tree in res.trees:
        if tree.graph is None:
            continue
        anchors = tree.graph.ambient_anchors()
        assert float(np.max(tree.graph.vertical_distance(anchors))) <= 1e-13


def test_ld_mass_fraction_reported():
    m, _ = generate(GeneratorSpec("four_corner_cantor", {"generation": 4}))
    lat = build_lattice(m, 2.0, 8.0, natural_depth(m) + 1)
    params = default_params()
    res = build_top(lat, params)
    for row in res.ledger["trees"]:
        assert 0.0 <= row["ld_mass_fraction"] <= 1.0
        assert row["ld_mass_bound_sqrt_tau"] == pytest.approx(0.1)


def _cantor(gen, order_seed=None):
    m, _ = generate(GeneratorSpec("four_corner_cantor", {"generation": gen}))
    if order_seed is None:
        return m
    order = np.random.default_rng(order_seed).permutation(m.size)
    return DiscreteMeasure(m.points[order], m.weights[order], m.dim_param)


def _tree_shapes(res):
    return res.top_ids, [(t.tree_ids, t.stop_bce, t.stop_hd, t.stop_ld, t.sep_ids,
                          t.sep_star_ids, t.good_indices.tolist()) for t in res.trees]


@pytest.mark.parametrize("order_seed", [None, 29], ids=["generator-order", "permuted"])
def test_corona_total_energy_equals_energy_pipeline(order_seed):
    # the lattice runs on the input cloud, so the ledger's whole-space energy
    # is the input's, exact cone-boundary ties included, in any atom order
    m = _cantor(5, order_seed)
    params = default_params()
    res = build_top(build_lattice(m, 2.0, 8.0, natural_depth(m)), params)
    want = weighted_sum(m.weights, pointwise_energies(m, params.energy_spec())[0])
    assert res.ledger["total_energy"] == pytest.approx(want, rel=1e-12, abs=0)


@pytest.mark.parametrize("gen", [4, 5])
def test_corona_dilation_and_translation_metamorphic(gen):
    # on the dyadic grid every difference of coordinates is exact under a
    # dilation by 2 and a translation by 2^20 or 1e6; with n = p = 1 the
    # energies and densities halve under the dilation and nothing moves
    # under the translations
    m = _cantor(gen)
    params = default_params()

    def corona(points):
        cloud = DiscreteMeasure(points, m.weights, m.dim_param)
        return build_top(build_lattice(cloud, 2.0, 8.0, natural_depth(cloud) + 1), params)

    base = corona(m.points)
    assert len(base.trees) > 1
    dilated = corona(2.0 * m.points)
    assert _tree_shapes(dilated) == _tree_shapes(base)
    for key in ("total_energy", "packing_sum"):
        assert dilated.ledger[key] == 0.5 * base.ledger[key]
    assert dilated.ledger["ratio"] == base.ledger["ratio"]
    for offset in (2.0 ** 20, 1e6):
        moved = corona(m.points + offset)
        assert _tree_shapes(moved) == _tree_shapes(base)
        assert moved.ledger == base.ledger


@pytest.mark.parametrize("move", ["dilated", "translated"])
def test_verify_corona_oblique_plane_far_from_unit_scale(move):
    # an oblique plane makes the graph's round trip through base and normal
    # coordinates inexact by about eps |x|; the checks must pass however
    # large the coordinates are, from a large diameter or from an offset
    m, _ = generate(GeneratorSpec("segment", {"count": 300}))
    pts = m.points[:, :1] * np.array([0.8, -0.6]) + m.points[:, 1:] * np.array([0.6, 0.8])
    pts = 1e6 * pts if move == "dilated" else pts + 1e6
    cloud = DiscreteMeasure(pts, m.weights, m.dim_param)
    params = CoronaParams(plane=make_plane([[0.6, 0.8]]), aperture=0.8)
    res = build_top(build_lattice(cloud, 2.0, 8.0, natural_depth(cloud)), params)
    rep = verify_corona(res)
    assert rep["passed"], rep["failures"]
    graphs = [t.graph for t in res.trees if t.graph is not None]
    assert graphs
    size = float(np.max(np.abs(pts)))
    for g in graphs:
        assert float(np.max(g.vertical_distance(g.ambient_anchors()))) <= 1e-12 * size
