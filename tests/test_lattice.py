import numpy as np
import pytest

from conftest import greedy_centers_oracle, random_cloud

from conical_gmt.errors import (IntermediateDoubling, InvalidParams, NotNested)
from conical_gmt.generators import GeneratorSpec, generate
from conical_gmt.lattice import (build_lattice, delta_mu, density_drop_check,
                                 doubling_flags, maximal_doubling,
                                 natural_depth)
from conical_gmt.measure import DiscreteMeasure, ball_mass


def cantor_lattice(gen=3, c0=2.0, a0=4.0, depth=5):
    m, _ = generate(GeneratorSpec("four_corner_cantor", {"generation": gen}))
    return m, build_lattice(m, c0, a0, depth)


def test_invalid_params():
    m, _ = generate(GeneratorSpec("segment", {"count": 10}))
    with pytest.raises(InvalidParams):
        build_lattice(m, c0=0.5, a0=8.0)
    with pytest.raises(InvalidParams):
        build_lattice(m, c0=2.0, a0=3.0)
    with pytest.raises(InvalidParams):
        build_lattice(m, max_depth=0)


def test_single_atom_chain():
    m = DiscreteMeasure(np.array([[0.3, 0.4]]), np.array([1.0]), 1)
    lat = build_lattice(m, 2.0, 8.0, 5)
    assert lat.depth == 5
    for lvl in lat.levels:
        assert len(lvl) == 1
        q = lat.cubes[lvl[0]]
        assert q.members.tolist() == [0]
        assert q.doubling


def test_two_atoms_split_level():
    pts = np.array([[0.0, 0.0], [1.0, 0.0]])
    m = DiscreteMeasure(pts, np.array([0.5, 0.5]), 1)
    lat = build_lattice(m, 2.0, 10.0, 4)
    # hand-checkable: separation 10 * 10^-k <= 1 first holds at k = 2
    assert len(lat.levels[0]) == 1
    assert len(lat.levels[1]) == 1
    assert len(lat.levels[2]) == 2
    assert len(lat.levels[3]) == 2


def test_partition_and_nesting_exact():
    m, lat = cantor_lattice()
    for lvl in lat.levels:
        members = np.concatenate([lat.cubes[i].members for i in lvl])
        assert len(members) == m.size
        assert len(np.unique(members)) == m.size
    for q in lat.cubes:
        if q.parent is not None:
            parent = lat.cubes[q.parent]
            assert set(q.members).issubset(set(parent.members))
        for cid in q.children:
            assert lat.cubes[cid].parent == q.id


def test_5b_disjointness_exhaustive():
    # exhaustive pair scan per level (spec-parameter instance C0=2, A0=4)
    m, lat = cantor_lattice(gen=3, c0=2.0, a0=4.0, depth=5)
    for lvl in lat.levels:
        cubes = [lat.cubes[i] for i in lvl]
        for i in range(len(cubes)):
            for j in range(i + 1, len(cubes)):
                d = np.linalg.norm(cubes[i].center - cubes[j].center)
                assert d >= 5 * cubes[i].radius + 5 * cubes[j].radius - 1e-15


def test_radius_bounds_exact():
    m, lat = cantor_lattice()
    for q in lat.cubes:
        lo = lat.root.radius * lat.a0 ** (-q.level)
        assert lo <= q.radius <= lat.c0 * lo


def test_center_is_member():
    _, lat = cantor_lattice()
    for q in lat.cubes:
        assert q.center_idx in q.members


def test_determinism():
    m, _ = generate(GeneratorSpec("four_corner_cantor", {"generation": 3}))
    a = build_lattice(m, 2.0, 8.0, 5)
    b = build_lattice(m, 2.0, 8.0, 5)
    assert [q.members.tolist() for q in a.cubes] == [q.members.tolist() for q in b.cubes]
    assert [q.center_idx for q in a.cubes] == [q.center_idx for q in b.cubes]


def test_ball_nesting_reported():
    _, lat = cantor_lattice()
    rep = lat.containment_report()
    assert 0 <= rep["inner_containment_fraction"] <= 1
    assert rep["outer_containment_fraction"] >= 0.5
    assert 0 <= rep["ball_nesting_fraction"] <= 1
    # direct recomputation of the nesting fraction
    ok = total = 0
    for q in lat.cubes:
        if q.parent is None:
            continue
        total += 1
        p = lat.cubes[q.parent]
        if np.linalg.norm(q.center - p.center) + q.ball_radius <= p.ball_radius:
            ok += 1
    assert rep["ball_nesting_fraction"] == pytest.approx(ok / total)


def test_containment_fractions_equal_brute_force():
    # the Cantor grid and the segment satisfy both containments everywhere;
    # atoms clustered at the origin of a line break them at some cubes
    lattices = [build_lattice(m, 2.0, 8.0, natural_depth(m)) for m, _ in (
        generate(GeneratorSpec("four_corner_cantor", {"generation": 4})),
        generate(GeneratorSpec("segment", {"count": 300, "jitter": 0.5}, 7)))]
    for seed in range(30):
        z = np.random.default_rng(seed).random(30) ** 3
        pts = np.stack([z, np.zeros(30)], axis=1)
        lattices.append(build_lattice(DiscreteMeasure(pts, np.full(30, 1 / 30), 1),
                                      2.0, 4.0, 5))
    broken = set()
    for lat in lattices:
        pts = lat.measure.points
        inner = outer = 0
        for q in lat.cubes:
            d = np.linalg.norm(pts - q.center[None, :], axis=1)
            outer += d[q.members].max() <= 28.0 * q.radius
            inner += set(np.flatnonzero(d < q.radius)) <= set(q.members.tolist())
        rep = lat.containment_report()
        assert rep["outer_containment_fraction"] == outer / len(lat.cubes)
        assert rep["inner_containment_fraction"] == inner / len(lat.cubes)
        broken |= {k for k in ("inner", "outer") if rep[f"{k}_containment_fraction"] < 1}
    assert broken == {"inner", "outer"}


@pytest.mark.parametrize("gen", [
    GeneratorSpec("four_corner_cantor", {"generation": 4}),
    GeneratorSpec("segment", {"count": 300, "jitter": 0.5}, 7),
], ids=["cantor4", "segment300-jitter"])
def test_lattice_centers_equal_greedy_oracle(gen):
    m, _ = generate(gen)
    lat = build_lattice(m, 2.0, 8.0, natural_depth(m))
    want = greedy_centers_oracle(lat.measure.points, lat.root.radius, lat.a0, lat.depth)
    got = [sorted(lat.cubes[i].center_idx for i in ids) for ids in lat.levels]
    assert got == want
    assert len(got[-1]) > len(got[1])


def test_doubling_flags_definition():
    m, lat = cantor_lattice()
    nm = lat.measure
    for q in lat.cubes[:40]:
        big = ball_mass(nm, q.center, 100 * q.radius)
        small = ball_mass(nm, q.center, q.radius)
        assert q.doubling == (big <= lat.c0 * small)


def test_root_is_doubling():
    for spec in (GeneratorSpec("segment", {"count": 100}),
                 GeneratorSpec("four_corner_cantor", {"generation": 3})):
        m, _ = generate(spec)
        lat = build_lattice(m, 2.0, 8.0, 3)
        assert lat.root.doubling


def test_isolated_singleton_doubling():
    pts = np.vstack([np.stack([np.linspace(0, 1, 64), np.zeros(64)], axis=1),
                     [[0.5, 50.0]]])
    m = DiscreteMeasure(pts, np.full(65, 1 / 65), 1)
    lat = build_lattice(m, 2.0, 8.0, 6)
    # the far atom ends up alone in its cube from some level on, and its
    # 100-fold ball still sees nothing else
    deep = [q for q in lat.cubes if q.level == lat.depth - 1 and 64 in q.members]
    assert len(deep) == 1
    assert deep[0].is_singleton()
    assert deep[0].doubling


def test_non_doubling_example():
    # a tight pair far from a heavy cluster: the pair's small ball holds a
    # sliver while the 100-fold ball swallows the cluster
    pts = np.vstack([[[0.0, 0.0], [0.004, 0.0]],
                     np.stack([np.linspace(0.05, 0.25, 50), np.zeros(50)], axis=1)])
    w = np.concatenate([[0.001, 0.001], np.full(50, 0.998 / 50)])
    m = DiscreteMeasure(pts, w, 1)
    lat = build_lattice(m, 2.0, 8.0, 4)
    flagged = [q for q in lat.cubes
               if not q.doubling and set(q.members) <= {0, 1}]
    assert flagged


def test_maximal_doubling_all_children():
    _, lat = cantor_lattice()
    root = lat.root
    if all(lat.cubes[c].doubling for c in root.children):
        md = maximal_doubling(lat, root)
        assert sorted(c.id for c in md.cubes) == sorted(root.children)


def test_maximal_doubling_brute_force():
    _, lat = cantor_lattice(gen=3, c0=2.0, a0=8.0, depth=5)

    def brute(qid):
        out = []
        def is_strict_descendant(c, a):
            while c.parent is not None:
                c = lat.cubes[c.parent]
                if c.id == a:
                    return True
            return False
        doubling = [c for c in lat.cubes
                    if c.doubling and is_strict_descendant(c, qid)]
        for c in doubling:
            if not any(other.id != c.id and lat.is_descendant(c, other)
                       for other in doubling):
                out.append(c.id)
        return sorted(out)

    for q in lat.cubes[:20]:
        md = maximal_doubling(lat, q)
        assert sorted(c.id for c in md.cubes) == brute(q.id)
        covered = set()
        for c in md.cubes:
            covered |= set(c.members.tolist())
        frac_direct = sum(lat.measure.weights[i]
                          for i in set(q.members.tolist()) - covered)
        assert md.uncovered_mass_fraction == pytest.approx(frac_direct / q.mass
                                                           if q.mass else 0.0)


def test_delta_mu_cases():
    m, lat = cantor_lattice(gen=3, c0=2.0, a0=8.0, depth=4)
    root = lat.root
    assert delta_mu(lat, root, root) == 0.0
    # brute-force oracle on nested pairs
    nm = lat.measure
    checked = 0
    for q in lat.cubes:
        if q.parent is None or checked > 10:
            continue
        s = lat.cubes[q.parent]
        got = delta_mu(lat, q, s)
        want_mask = np.zeros(nm.size, dtype=bool)
        for i, y in enumerate(nm.points):
            in_s = np.linalg.norm(y - s.center) < 2 * s.ball_radius
            in_q = np.linalg.norm(y - q.center) < 2 * q.ball_radius
            want_mask[i] = in_s and not in_q
        want = float(np.sum(nm.weights[want_mask]
                            / np.linalg.norm(nm.points[want_mask] - q.center, axis=1)))
        assert got == pytest.approx(want, rel=1e-12, abs=1e-15)
        checked += 1
    assert checked > 5


def test_delta_mu_single_annulus_atom():
    pts = np.array([[0.0, 0.0], [0.35, 0.0]])
    m = DiscreteMeasure(pts, np.array([0.5, 0.5]), 1)
    lat = build_lattice(m, 2.0, 8.0, 3)
    # pick a level-2 cube at atom 0 and its parent; the other atom sits in
    # the annulus iff the radii say so -- verified directly by the formula
    q = next(c for c in lat.cubes if c.level == 2 and 0 in c.members)
    s = lat.cubes[q.parent]
    val = delta_mu(lat, q, s)
    y = lat.measure.points[1]
    rho = np.linalg.norm(y - q.center)
    in_s = rho < 2 * s.ball_radius or np.linalg.norm(y - s.center) < 2 * s.ball_radius
    expect = 0.5 / rho if (np.linalg.norm(y - s.center) < 2 * s.ball_radius
                           and rho >= 2 * q.ball_radius) else 0.0
    assert val == pytest.approx(expect)


def test_delta_mu_not_nested():
    _, lat = cantor_lattice(gen=2, c0=2.0, a0=8.0, depth=4)
    leaves = [q for q in lat.cubes if q.level == 3]
    with pytest.raises(NotNested):
        delta_mu(lat, leaves[0], leaves[1])


def test_density_drop_child_case():
    m, lat = cantor_lattice(gen=3, c0=2.0, a0=8.0, depth=4)
    root = lat.root
    child = lat.cubes[root.children[0]]
    rep = density_drop_check(lat, child, root)
    assert rep["levels_between"] == 0
    nm = lat.measure
    lhs = ball_mass(nm, child.center, 100 * child.radius) / (100 * child.radius)
    assert rep["lhs"] == pytest.approx(lhs)
    assert rep["rhs"] == pytest.approx((lat.c0 * lat.a0) ** 2 * rep_theta(lat, root))
    assert rep["holds"] == (rep["lhs"] <= rep["rhs"])


def rep_theta(lat, cube):
    return ball_mass(lat.measure, cube.center, 100 * cube.radius) / (100 * cube.radius)


def test_density_drop_chain_with_intermediate():
    # two clusters force non-doubling intermediates on the sparse side
    rng = np.random.default_rng(4)
    a = rng.random((120, 2)) * 0.02
    b = rng.random((120, 2)) * 0.02 + np.array([0.9, 0.0])
    pts = np.vstack([a, b, [[0.45, 0.4]]])
    w = np.concatenate([np.full(120, 0.499 / 120), np.full(120, 0.499 / 120), [0.002]])
    m = DiscreteMeasure(pts, w, 1)
    lat = build_lattice(m, 2.0, 8.0, 6)
    lone = 240
    chain = [q for q in lat.cubes if lone in q.members]
    chain.sort(key=lambda q: q.level)
    checked = raised = False
    for i in range(len(chain)):
        for j in range(i + 2, len(chain)):
            mids = chain[i + 1:j]
            if all(not c.doubling for c in mids):
                rep = density_drop_check(lat, chain[j], chain[i])
                assert rep["holds"] == (rep["lhs"] <= rep["rhs"])
                assert rep["levels_between"] == len(mids)
                checked = True
            elif any(c.doubling for c in mids):
                with pytest.raises(IntermediateDoubling):
                    density_drop_check(lat, chain[j], chain[i])
                raised = True
    assert checked and raised


def test_density_drop_not_nested():
    _, lat = cantor_lattice(gen=2, c0=2.0, a0=8.0, depth=3)
    l2 = [q for q in lat.cubes if q.level == 2]
    with pytest.raises(NotNested):
        density_drop_check(lat, l2[0], l2[1])


def test_doubling_flags_idempotent():
    _, lat = cantor_lattice(gen=2)
    flags = [q.doubling for q in lat.cubes]
    doubling_flags(lat)
    assert flags == [q.doubling for q in lat.cubes]


def test_natural_depth_reasonable():
    m, _ = generate(GeneratorSpec("segment", {"count": 1000}))
    assert 4 <= natural_depth(m) <= 8
    single = DiscreteMeasure(np.array([[0.0, 0.0]]), np.array([1.0]), 1)
    assert natural_depth(single) == 2


def test_index_stability_random_cloud():
    m = random_cloud(17, 300)
    lat = build_lattice(m, 2.0, 8.0, natural_depth(m))
    for lvl in lat.levels:
        members = np.concatenate([lat.cubes[i].members for i in lvl])
        assert len(np.unique(members)) == m.size == len(members)
