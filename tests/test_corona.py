import json
from collections import Counter

import numpy as np
import pytest

from conftest import (SEGMENT_SUM_CLOUDS, SWEEP_CASES, _cone_energy, ball_mass, cone_row,
                      cube_ask_loop, extension_loop, graph_through, separation_oracle,
                      tree_oracle)

from conical_gmt import graphs
from conical_gmt.cli import run
from conical_gmt.corona import (CoronaParams, _Ctx, _set_distance, build_top,
                                separated_families, stopping_decomposition,
                                verify_corona)
from conical_gmt.energy import pointwise_energies, weighted_sum, window_energies
from conical_gmt.errors import InvalidParams, NotDoublingRoot
from conical_gmt.generators import GeneratorSpec, generate
from conical_gmt.geometry import Plane, SortedIndex, lengths, make_plane, sample_grassmannian
from conical_gmt.graphs import LipschitzGraph, cone_separation_violations
from conical_gmt.lattice import build_lattice, natural_depth
from conical_gmt.measure import DiscreteMeasure

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
    for eta in (0.0, 1.0):
        with pytest.raises(InvalidParams):
            CoronaParams(plane=V_AXIS, aperture=0.8, eta=eta)
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
    assert any(heavy in q.members and len(q.members) == 1 for q in hd_cubes)
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


def key_cone_exclusion(lattice, q, p, params: CoronaParams) -> bool:
    """Paper check, atom by atom, of the separation premise for cube pairs:
    True iff dist(Q, P) >= M r(P) and some atom of P lies in the
    half-aperture union cone of Q outside M B_Q."""
    pts = lattice.measure.points
    mm = params.key_const
    qp, pp = pts[q.members], pts[p.members]
    if _set_distance(qp, pp) < mm * p.radius:
        return False
    target = pp[lengths(pp - q.center) >= mm * q.ball_radius]
    if len(target) == 0:
        return False
    return any(np.any(cone_row(target, x, params.plane, params.aperture / 2.0)[0])
               for x in qp)


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
    g = graph_through(pts, V_AXIS, 0.8)
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
    g = graph_through(good, V_AXIS, alpha)
    assert g.lip_measured <= 2.0 / alpha
    assert cone_separation_violations(bad, V_AXIS, alpha) == [(0, 1)]


def test_fit_graph_from_lipschitz_samples():
    alpha = 0.5
    lip = 1.0 / (2 * alpha)
    m, _ = generate(GeneratorSpec("lipschitz_graph", {"count": 200, "lipschitz": lip}))
    g = graph_through(m.points, V_AXIS, alpha)
    assert g.lip_measured <= lip + 1e-12
    # anchors reproduced exactly through the extension
    dev = g.vertical_distance(m.points)
    assert float(np.max(dev)) <= 1e-12


@pytest.mark.parametrize("m, direction, aperture", SWEEP_CASES)
def test_cone_separation_violations_equal_row_loop(m, direction, aperture):
    got = cone_separation_violations(m.points, direction, aperture)
    assert got == separation_oracle(m.points, direction, aperture)


def on_line(t, values, direction: Plane, offset=0.0) -> np.ndarray:
    """Points with base coordinates t along V's complement (a line) and
    normal coordinates ``values`` in V's basis, moved by ``offset``."""
    base = direction.complement().basis[0]
    values = np.asarray(values, dtype=float).reshape(len(t), -1)
    return offset + np.asarray(t, dtype=float)[:, None] * base + values @ direction.basis


def slope_cases():
    """(anchors, direction, aperture, sorted verdict, sorted slope) for the
    n = 1 sorted steps: whether the margin lets the sorted path answer the
    separation check and ``lip_measured``, where the sweep must agree."""
    alpha = 0.8
    lip = np.sqrt(4.0 / alpha ** 2 - 1.0)
    cases = []
    # a neighbour slope exactly L and one rounding either side of it, and
    # L (1 -+ 2^-52): the cone test decides, not the sort
    for name, s in (("L", lip), ("L-ulp", np.nextafter(lip, 0)), ("L+ulp", np.nextafter(lip, 9)),
                    ("L(1-2^-52)", lip * (1 - 2.0 ** -52)), ("L(1+2^-52)", lip * (1 + 2.0 ** -52))):
        pts = np.array([[-1.0, 0.0], [0.0, 0.0], [1.0, s], [2.0, s]])
        cases.append(pytest.param(pts, V_AXIS, alpha, False, True, id=f"slope-{name}"))
    half = np.array([[-1.0, 0.0], [0.0, 0.0], [1.0, 0.5 * lip], [2.0, 0.5 * lip]])
    cases.append(pytest.param(half, V_AXIS, alpha, True, True, id="slope-L/2"))
    # a tie in z with distinct v is a violation; duplicates are not, even
    # with a point of the same z between them in the sort
    cases.append(pytest.param(np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.5]]), V_AXIS, alpha,
                              False, False, id="tie-in-z"))
    dup = np.array([[0.0, 0.0], [1.0, 0.5], [0.0, 0.0], [1.0, 0.5], [2.0, 0.2]])
    cases.append(pytest.param(dup, V_AXIS, alpha, True, True, id="duplicates"))
    cases.append(pytest.param(np.array([[0.0, 0.0], [0.0, 0.5], [0.0, 0.0]]), V_AXIS, alpha,
                              False, False, id="duplicates-around-a-tie"))
    # an oblique V at offset 1e6: each slope comes from the difference of two
    # anchors, whose rounding is relative to |y - x|, not to |x| = 1e6
    rng = np.random.default_rng(31)
    oblique = make_plane([[0.3, 1.0]])
    t = np.sort(rng.random(200))
    cases.append(pytest.param(on_line(t, 0.3 * np.sin(3 * t), oblique, 1e6), oblique, alpha,
                              True, True, id="oblique-offset-1e6"))
    steep = on_line(t, 0.3 * np.sin(3 * t) + (t > 0.5) * 0.2, oblique, 1e6)
    cases.append(pytest.param(steep, oblique, alpha, False, True, id="oblique-offset-1e6-step"))
    # d = 3 with vector v, on a coordinate plane and an oblique one
    for name, plane in (("axes", make_plane([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])),
                        ("oblique", sample_grassmannian(3, 2, 1, seed=4)[0])):
        v = np.stack([0.2 * np.sin(2 * t), 0.3 * np.cos(3 * t)], axis=1)
        cases.append(pytest.param(on_line(t, v, plane), plane, alpha, True, True, id=f"d3-{name}"))
    # the largest slope flanked by a gap 2^-40 and 2^-52 times its own: the
    # pair that spans both gaps has nearly its slope, so the sweep decides
    for k in (40, 52):
        g = 2.0 ** -k
        left = np.array([[0.0, 0.0], [1.0, 1.0], [1.0 + g, 1.0], [3.0, 1.5]])
        right = np.array([[0.0, 0.0], [g, 0.0], [1.0 + g, 1.0], [3.0, 1.5]])
        cases.append(pytest.param(left, V_AXIS, alpha, True, False, id=f"flank-2^-{k}-after"))
        cases.append(pytest.param(right, V_AXIS, alpha, True, False, id=f"flank-2^-{k}-before"))
    # two equal largest slopes: not unique, so the sweep decides
    cases.append(pytest.param(np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]]), V_AXIS, alpha,
                              True, False, id="two-largest"))
    # where the sweep's largest slope is a spanning pair's, above both
    # neighbour slopes by rounding: two nearly equal neighbour slopes, and a
    # unique largest one flanked by a gap of 1 ulp of z
    near_tie = np.array([[2.1980371728910075, 0.6998102664181641],
                         [3.1980371728910075, 1.7655044112892506],
                         [3.198042382190139, 1.765509962808834]])
    flank = np.array([[0.5076510791234781, 0.09654425304207848],
                      [1.3799795425712418, 1.399050969677306],
                      [1.379979542571242, 1.3990509696773061]])
    for name, pts in (("near-tie", near_tie), ("flank-ulp", flank)):
        z, v = pts.T
        assert graphs._pair_lip(z[:, None], v[:, None]) > max(np.abs(np.diff(v)) / np.diff(z))
        cases.append(pytest.param(pts, V_AXIS, alpha, True, False, id=f"spanning-{name}"))
    # one anchor, and flat anchors
    cases.append(pytest.param(np.array([[0.5, 0.25]]), V_AXIS, alpha, True, True, id="one"))
    cases.append(pytest.param(on_line(t, np.zeros(200), V_AXIS), V_AXIS, alpha, True, True,
                              id="flat"))
    return cases


@pytest.mark.parametrize("pts, direction, aperture, sorted_verdict, sorted_lip", slope_cases())
def test_sorted_anchor_steps_equal_the_sweep(pts, direction, aperture, sorted_verdict,
                                             sorted_lip):
    want = separation_oracle(pts, direction, aperture)
    assert cone_separation_violations(pts, direction, aperture) == want
    assert graphs._line_separated(pts, direction, aperture) is sorted_verdict
    distinct = np.unique(pts, axis=0)
    z, vals = direction.complement().coords(distinct), direction.coords(distinct)
    sweep = graphs._pair_lip(z, vals)
    fast = graphs._line_lip(z[:, 0], vals, aperture)
    assert (fast is not None) is sorted_lip
    assert fast is None or fast == sweep
    assert graphs._graph_through(distinct, direction, aperture).lip_measured == sweep


def test_benchmark_segment_runs_no_pairwise_graph_step(monkeypatch):
    """The corona on the benchmark's segment (1,000 atoms, jitter 0.05, depth
    6) decides separation, the slope and the extension without a pairwise
    sweep: no ``cone_pairs`` sweep, no all-pairs slope and no dense
    extension tile."""
    calls = Counter()
    for name in ("cone_pairs", "_pair_lip", "square_lengths"):
        def counted(*args, _name=name, _call=getattr(graphs, name)):
            calls[_name] += 1
            return _call(*args)
        monkeypatch.setattr(graphs, name, counted)
    for seed in (1, 2, 3):
        m, _ = generate(GeneratorSpec("segment", {"count": 1000, "jitter": 0.05}, seed))
        res = build_top(build_lattice(m, 2.0, 8.0, 6), default_params())
        assert verify_corona(res)["passed"] and all(t.graph is not None for t in res.trees)
    assert calls == Counter()


def extension_cases():
    """(graph, queries, windowed) for the extension over a base line:
    whether each query reads only the anchors near it."""
    rng = np.random.default_rng(32)
    t = np.sort(rng.random(300))
    queries = np.concatenate([rng.uniform(-0.5, 1.5, 200), t, 0.5 * (t[1:] + t[:-1])])
    cases = []
    flat = graph_through(on_line(t, np.zeros(300), V_AXIS), V_AXIS, 0.8)
    cases.append(pytest.param(flat, queries[:, None], True, id="flat"))
    sine = graph_through(on_line(t, 0.4 * np.sin(4 * t), V_AXIS), V_AXIS, 0.8)
    cases.append(pytest.param(sine, queries[:, None], True, id="sine"))
    oblique = make_plane([[0.3, 1.0]])
    far = graph_through(on_line(t, 0.3 * np.sin(3 * t), oblique, 1e6), oblique, 0.8)
    far_z = far.base.coords(on_line(queries, np.zeros(len(queries)), oblique, 1e6))
    cases.append(pytest.param(far, far_z, True, id="oblique-offset-1e6"))
    plane = make_plane([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    v = np.stack([0.2 * np.sin(2 * t), 0.3 * np.cos(3 * t)], axis=1)
    cases.append(pytest.param(graph_through(on_line(t, v, plane), plane, 0.8), queries[:, None],
                              True, id="d3"))
    # the window comes from the anchors' slopes, not from a document's L
    base, normal = make_plane([[1.0, 0.0]]), V_AXIS
    for name, s, windowed in (("slope-2-L-0", 2.0, True), ("slope-3-L-0", 3.0, False)):
        g = LipschitzGraph(base, normal, t[:, None], s * np.abs(t[:, None] % 0.2 - 0.1), 0.0, 2.5)
        cases.append(pytest.param(g, queries[:, None], windowed, id=name))
    one = LipschitzGraph(base, normal, np.array([[0.5]]), np.array([[0.25]]), 0.0, 2.5)
    cases.append(pytest.param(one, queries[:, None], True, id="one-anchor"))
    return cases


@pytest.mark.parametrize("g, z, windowed", extension_cases())
def test_line_extension_equals_the_dense_loop(g, z, windowed):
    assert (g._reach(z, SortedIndex(g.anchors_base)) is not None) is windowed
    assert np.array_equal(g.evaluate(z), extension_loop(g, z))


def test_graph_evaluate_blocks_match_unblocked():
    alpha = 0.5
    m, _ = generate(GeneratorSpec("lipschitz_graph", {"count": 300, "lipschitz": 1.0}))
    g = graph_through(m.points, V_AXIS, alpha)
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


def cube_energy_oracle(lat, q, params) -> float:
    """Oracle: (1 / mu(Q)) sum_{x in 2B_Q} w(x) int_{eta r(Q)}^{r(Q)/eta} (...),
    one vertex at a time, summed left to right."""
    spec, nm, eta = params.spec, lat.measure, params.eta
    lo, hi = eta * q.radius, q.radius / eta
    total = 0.0
    for i in nm.ball_indices(q.center, 2.0 * q.ball_radius):
        total += nm.weights[i] * _cone_energy(
            nm.points, nm.weights, nm.points[i], spec.direction,
            spec.aperture, nm.dim_param, spec.exponent, lo, hi)
    return total / float(np.sum(nm.weights[q.members]))


def test_energy_control_recheck():
    m, _ = generate(GeneratorSpec("four_corner_cantor", {"generation": 4}))
    lat = build_lattice(m, 2.0, 8.0, natural_depth(m) + 1)
    params = default_params()
    res = build_top(lat, params)
    energies = {}
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
                if cur.id not in energies:
                    energies[cur.id] = cube_energy_oracle(lat, cur, params)
                total += energies[cur.id]
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
    ctx = _Ctx(lat, params)
    nonzero = 0
    for q in lat.cubes:
        want = cube_energy_oracle(lat, q, params)
        assert ctx.ask([q])[0][1] == want
        nonzero += want > 0
    assert nonzero > 0
    res = build_top(lat, params)
    nm = lat.measure
    whole = window_energies(nm, params.spec, [(0.0, np.inf)])[0]
    assert res.ledger["total_energy"] == weighted_sum(nm.weights, whole[:, 0])


@pytest.mark.parametrize("m", SEGMENT_SUM_CLOUDS)
def test_cube_densities_and_energies_equal_the_per_cube_loop(m):
    """Each level's family, and one family across every level, against the
    per-cube loop, with an oblique V so that every cloud has energy."""
    lat = build_lattice(m, 2.0, 8.0, 6)
    params = CoronaParams(plane=make_plane([[1.0, 0.3]]), aperture=0.8)
    ctx = _Ctx(lat, params)
    for ids in lat.levels:
        cubes = [lat.cubes[i] for i in ids]
        assert ctx.ask(cubes) == cube_ask_loop(ctx, cubes)
    mixed = _Ctx(lat, params)
    assert mixed.ask(lat.cubes[::-1]) == cube_ask_loop(mixed, lat.cubes[::-1])
    assert any(energy > 0 for _, energy in ctx.ask(lat.cubes))


def test_corona_queries_each_cube_ball_once(asked_balls):
    # the density and the energy of a cube share one query of its 2B_Q, the
    # children of an expanded cube are asked together, and nothing else in
    # build_top asks the open-ball query
    m, _ = generate(GeneratorSpec("four_corner_cantor", {"generation": 4}))
    lat = build_lattice(m, 2.0, 8.0, natural_depth(m) + 1)
    asked_balls.clear()
    res = build_top(lat, default_params())
    cubes = [lat.cubes[cid] for t in res.trees for cid in t.tree_ids]
    assert len(res.trees) > 1
    assert asked_balls == Counter((tuple(q.center.tolist()), 2.0 * q.ball_radius)
                                  for q in cubes)
    assert set(asked_balls.values()) == {1}


@pytest.mark.parametrize("gen, extra_depth", [
    (GeneratorSpec("four_corner_cantor", {"generation": 4}), 1),
    (GeneratorSpec("lipschitz_graph", {"count": 400, "lipschitz": 0.5, "jitter": 0.5}, 5), 0),
], ids=["cantor4", "jittered-graph"])
def test_level_growth_equals_the_depth_first_oracle(gen, extra_depth):
    # the labels decided a level at a time, emitted in pre-order, are the
    # depth-first loop's: tree ids, stop lists and both ledgers in order
    m, _ = generate(gen)
    lat = build_lattice(m, 2.0, 8.0, natural_depth(m) + extra_depth)
    params = default_params()
    res = build_top(lat, params)
    ctx = _Ctx(lat, params)
    stops = 0
    for tree in res.trees:
        got = (tree.tree_ids, tree.stop_bce, tree.stop_hd, tree.stop_ld,
               list(tree.theta_ledger.items()), list(tree.chain_energy.items()))
        assert got == tree_oracle(lat, lat.cubes[tree.root_id], params, ctx)
        stops += len(tree.stop_ids)
    assert stops > 0
    assert max(lat.cubes[cid].level for t in res.trees for cid in t.tree_ids) >= 2
    if gen.kind == "four_corner_cantor":
        assert len(res.trees) > 1


@pytest.mark.parametrize("seed", range(4))
def test_level_growth_equals_the_depth_first_oracle_on_drawn_labels(seed):
    # every cube's density and energy drawn, so chains run deep with
    # nonzero energies and stop by all three rules (this graph's doubling
    # cubes, which alone may stop HD, are its finest)
    m, _ = generate(GeneratorSpec("lipschitz_graph",
                                  {"count": 400, "lipschitz": 0.5, "jitter": 0.5}, 5))
    lat = build_lattice(m, 2.0, 8.0, natural_depth(m))
    params = default_params()
    root = next(q for q in lat.cubes if q.doubling)
    rng = np.random.default_rng(seed)
    ctx = _Ctx(lat, params)
    for q in lat.cubes:
        theta = rng.choice([params.density_low / 2, 1.0, 2 * params.density_high],
                           p=[0.1, 0.8, 0.1])
        if q.level <= root.level + 1:  # a lone cube: keep the tree growing
            theta = 1.0
        ctx._cube[q.id] = (float(theta), float(rng.uniform(0, 0.3 * params.energy_stop)))
    ctx._cube[root.id] = (1.0, 0.0)
    tree = stopping_decomposition(lat, root, params, _ctx=ctx)
    got = (tree.tree_ids, tree.stop_bce, tree.stop_hd, tree.stop_ld,
           list(tree.theta_ledger.items()), list(tree.chain_energy.items()))
    assert got == tree_oracle(lat, root, params, ctx)
    assert tree.stop_bce and tree.stop_hd and tree.stop_ld
    assert len({lat.cubes[i].level for i in tree.stop_bce + tree.stop_ld}) >= 3


def test_corona_pass_asks_its_balls_in_few_families(tmp_path, monkeypatch):
    # the benchmark's segment-corona pass at seed 1 asks 5,439 balls; the
    # nets and the tree growth ask them in families, not one call per ball
    pts, cfg = tmp_path / "segment.csv", tmp_path / "corona.json"
    assert run(["gen", "--type", "segment", "--count", "1000", "--jitter", "0.05",
                "--seed", "1", "--out", str(pts)]) == 0
    cfg.write_text(json.dumps({"alpha": 0.8, "p": 1, "plane": "0,1", "n": 1, "max_depth": 6}))
    calls, balls = [0], [0]
    query = DiscreteMeasure.balls

    def counted(self, centers, radii):
        calls[0] += 1
        balls[0] += len(centers)
        return query(self, centers, radii)

    monkeypatch.setattr(DiscreteMeasure, "balls", counted)
    assert run(["corona", "--points", str(pts), "--config", str(cfg),
                "--out", str(tmp_path / "report.json"),
                "--dump-trees", str(tmp_path / "trees.json"), "--dump-members"]) == 0
    assert balls[0] == 5439
    assert calls[0] <= 40


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
    want = weighted_sum(m.weights, pointwise_energies(m, params.spec)[0])
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
