"""The shared pair block: every pairwise kernel gives the same output
whatever ``geometry.PAIR_BLOCK`` is, and its scratch does not grow with the
cloud."""

import json

import numpy as np
import pytest
from scipy.spatial.distance import cdist  # loaded before any traced call

from conftest import (coordinate_order_lengths, cone_row, mixture_cloud, panel_upper,
                      random_cloud, segment_family, traced_peak)

from conical_gmt import geometry
from conical_gmt.corona import CoronaParams, _set_distance, build_top, verify_corona
from conical_gmt.diagnostics import f_epsilon_set, theta_m_property
from conical_gmt.energy import (EnergySpec, _direction_energies, pointwise_energies,
                                window_energies)
from conical_gmt.generators import GeneratorSpec, generate
from conical_gmt.geometry import (cone_pairs, cone_rows, lengths, make_plane,
                                  row_blocks, sample_grassmannian, square_lengths)
from conical_gmt.graphs import LipschitzGraph, _graph_through, cone_separation_violations
from conical_gmt.lattice import build_lattice, natural_depth
from conical_gmt.measure import DiscreteMeasure, growth_constant, segment_sums
from conical_gmt.sio import TruncationGrid, _components, _interaction_stack, builtin_kernels

V_AXIS = make_plane([[0.0, 1.0]])
# a block far smaller than any kernel's width, so every kernel runs one row
# (or a 1 x 1 SIO tile) at a time, and every cone-pair strip is one row, the
# last one a single pair
TINY_BLOCK = 7
SCRATCH_LIMIT = 4 * 2 ** 20


@pytest.mark.parametrize("rows, width", [(0, 5), (1, 1), (10, 3), (100, 1), (9, 50)])
def test_row_blocks_cover_the_rows_within_the_budget(monkeypatch, rows, width):
    monkeypatch.setattr(geometry, "PAIR_BLOCK", TINY_BLOCK)
    step = max(1, TINY_BLOCK // width)
    blocks = list(row_blocks(rows, width))
    assert np.array_equal(np.concatenate([np.arange(rows)[b] for b in blocks] or [[]]),
                          np.arange(rows))
    assert all(b.stop - b.start == step for b in blocks[:-1])
    assert all(0 < b.stop - b.start <= step for b in blocks)


@pytest.mark.parametrize("d", [1, 2, 3, 8, 12])
def test_pair_distances_are_the_norm_of_the_differences(d):
    """Every form of |b_j - a_i| has the bits of the root of its squares
    summed in coordinate order: ``lengths`` of one difference, its row in a
    batch, the rows x columns tile of ``square_lengths`` and, where R^d has a
    line, the distances of the cone test."""
    rng = np.random.default_rng(d)
    a, b = rng.random((30, d)) + 1e4, rng.random((40, d)) + 1e4
    b[:5] = a[:5]
    diff = b[None, :, :] - a[:, None, :]
    oracle = coordinate_order_lengths(diff)
    assert np.array_equal(lengths(diff), oracle)
    assert all(lengths(diff[i, j]) == oracle[i, j] for i in range(30) for j in range(40))
    assert np.array_equal(np.sqrt(square_lengths(a.T, b.T)), oracle)
    if d > 1:
        line = make_plane([[1.0] + [0.0] * (d - 1)])
        assert all(np.array_equal(cone_row(b, x, line, 0.5)[1], oracle[i])
                   for i, x in enumerate(a))


def graph_anchors() -> np.ndarray:
    m, _ = generate(GeneratorSpec("lipschitz_graph", {"count": 300, "lipschitz": 0.5,
                                                      "jitter": 0.3}, 3))
    return m.points


def diameters():
    far = random_cloud(85, 200, d=3)
    return (random_cloud(83, 300).diameter(),
            DiscreteMeasure(far.points + 1e6, far.weights, 2).diameter())


def graph_values():
    g = _graph_through(graph_anchors(), V_AXIS, 0.8)
    z = np.random.default_rng(5).uniform(-0.2, 1.2, (400, 1))
    return g.evaluate(z), g.evaluate(g.anchors_base)


def lipschitz_constants():
    pts = graph_anchors()
    return (_graph_through(pts, V_AXIS, 0.8).lip_measured,
            _graph_through(pts[:2], V_AXIS, 0.8).lip_measured,
            _graph_through(np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.5]]),
                           V_AXIS, 0.8).lip_measured)


def slope_loop_oracle(pts: np.ndarray, direction) -> float:
    """Oracle: the largest anchor-pair slope, one row of pairs i < j at a time."""
    z, v = direction.complement().coords(pts), direction.coords(pts)
    lip = 0.0
    for i in range(len(pts) - 1):
        dz = np.linalg.norm(z[i + 1:] - z[i][None, :], axis=1)
        dv = np.linalg.norm(v[i + 1:] - v[i][None, :], axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            lip = max(lip, float(np.max(np.where(dz > 0, dv / dz, np.inf))))
    return lip


@pytest.mark.parametrize("tiny", [False, True])
def test_lip_measured_equals_the_slope_loop(monkeypatch, tiny):
    if tiny:
        monkeypatch.setattr(geometry, "PAIR_BLOCK", TINY_BLOCK)
    plane3 = make_plane([[0.0, 0.0, 1.0]])
    cases = [(graph_anchors(), V_AXIS), (random_cloud(4, 120, d=3).points, plane3),
             (np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.5]]), V_AXIS),
             (np.array([[0.25, 0.5]]), V_AXIS)]
    for pts, direction in cases:
        assert _graph_through(pts, direction, 0.8).lip_measured == slope_loop_oracle(pts, direction)


def lattice_cubes():
    m, _ = generate(GeneratorSpec("segment", {"count": 400, "jitter": 0.05}, 2))
    mix = mixture_cloud()
    out = []
    for lat in (build_lattice(m, 2.0, 8.0, 5),
                build_lattice(DiscreteMeasure(mix.points, mix.weights, 1), 2.0, 4.0, 5)):
        out.append(np.array([(q.center_idx, q.parent if q.parent is not None else -1,
                              q.doubling, q.inner_contained) for q in lat.cubes]))
        out.append(np.array([q.mass for q in lat.cubes]))
        out.append(np.array(list(lat.containment_report().values())))
        out.extend(q.members for q in lat.cubes)
    return tuple(out)


def corona_ledgers():
    """Every tree's density and chain-energy ledger, the packing ledger and
    the verification report of two corona runs, one on Cantor ties."""
    out = []
    for gen, plane in ((GeneratorSpec("segment", {"count": 300, "jitter": 0.05}, 3), [[0.0, 1.0]]),
                       (GeneratorSpec("four_corner_cantor", {"generation": 4}), [[0.0, 1.0]])):
        m, _ = generate(gen)
        res = build_top(build_lattice(m, 2.0, 8.0, natural_depth(m) + 1),
                        CoronaParams(plane=make_plane(plane), aperture=0.8))
        for t in res.trees:
            out.append(np.array([(cid, t.theta_ledger[cid], t.chain_energy[cid])
                                 for cid in t.tree_ids]))
        out.append(np.array(json.dumps(res.ledger, sort_keys=True)))
        out.append(np.array(json.dumps(verify_corona(res), sort_keys=True)))
    return tuple(out)


def window_tables():
    """Window-energy tables over every atom and a ball's atoms, with windows
    that cut the profiles, on Cantor ties and a jittered segment."""
    out = []
    segment, _ = generate(GeneratorSpec("segment", {"count": 300, "jitter": 0.05}, 3))
    for m, plane in ((sweep_clouds()[0], V_AXIS), (segment, make_plane([[1.0, 0.0]]))):
        spec = EnergySpec(plane, 0.8, 2.0)
        windows = [(0.0, 0.05), (0.01, 0.3), (0.1, np.inf)]
        out.extend(window_energies(m, spec, windows))
        out.append(window_energies(m, spec, windows[:1])[0][m.ball_indices(m.points[5], 0.2)])
    assert all(np.count_nonzero(t) for t in out)
    return tuple(out)


def direction_energies():
    m = mixture_cloud()
    idx = m.ball_indices(m.points[372], 0.35)
    directions = [V_AXIS] + sample_grassmannian(2, 1, 12, 7)
    table = _direction_energies(m, idx, directions, 0.8, 2.0, 0.35)
    assert np.count_nonzero(table) > 0
    return (table,)


def interaction_stacks():
    # the panels have the block's rows, so the operator is compared densely
    out = []
    for m, kernel in ((random_cloud(5, 40), builtin_kernels()["cauchy"]),
                      (random_cloud(9, 25, d=3), builtin_kernels(2, 3)["riesz"])):
        (buf,), idx = _interaction_stack(m, kernel, TruncationGrid.log_spaced(m, 8))
        out.append(panel_upper(buf, m.size, _components(kernel)))
        out.append(idx)
    return tuple(out)


def set_distances():
    rng = np.random.default_rng(8)
    a, b = rng.random((50, 2)), rng.random((80, 2)) + [0.5, 0.0]
    return _set_distance(a, b), _set_distance(b, a), _set_distance(a[:1], b)


def sweep_clouds():
    """Clouds for the cone-pair sweeps: Cantor generation 5 (exact 3-4-5 ties
    at alpha = 0.8), shuffled, and a random cloud offset by 1e6."""
    m, _ = generate(GeneratorSpec("four_corner_cantor", {"generation": 5}))
    perm = np.random.default_rng(3).permutation(m.size)
    far = random_cloud(86, 700)
    return (DiscreteMeasure(m.points[perm], m.weights[perm], 1),
            DiscreteMeasure(far.points + 1e6, far.weights, 1))


def sweep_energies():
    out = []
    for m in sweep_clouds():
        for R in (0.5, np.inf):
            out.extend(pointwise_energies(m, EnergySpec(V_AXIS, 0.8, 1.0, R)))
    return tuple(out)


def separation_pairs():
    return tuple(np.array(cone_separation_violations(m.points, V_AXIS, 0.5), dtype=int)
                 for m in sweep_clouds())


def shell_counts():
    return tuple(theta_m_property(m.points, V_AXIS, 0.6) for m in sweep_clouds())


def sorted_profiles():
    """The low-density set and the growth constant, both read off row blocks
    of sorted profiles, on the mixture and on the Cantor ties."""
    out = []
    for m in (mixture_cloud(), sweep_clouds()[0]):
        out.extend(f_epsilon_set(m, eps) for eps in (0.1, 0.45))
        out.append(growth_constant(m, r0=m.diameter(), sample_count=256, seed=0).value)
    return tuple(out)


def segment_totals():
    """Numpy's and the left-to-right sums of a family of segments of every
    length from 0 to 5,000, with inf and nan among the terms, as their bits;
    at the tiny block every chunk holds one or two segments."""
    terms, family = segment_family(11, True)
    return tuple(segment_sums(terms, family, ordered).view(np.int64) for ordered in (False, True))


BLOCK_CASES = {"diameter": diameters, "evaluate": graph_values,
               "lip-measured": lipschitz_constants, "lattice": lattice_cubes,
               "corona": corona_ledgers, "window-energies": window_tables,
               "direction-energies": direction_energies,
               "interaction-stack": interaction_stacks, "set-distance": set_distances,
               "sweep-energies": sweep_energies, "separation": separation_pairs,
               "shell-counts": shell_counts, "sorted-profiles": sorted_profiles,
               "segment-sums": segment_totals}


@pytest.mark.parametrize("case", list(BLOCK_CASES))
def test_outputs_do_not_depend_on_the_block(monkeypatch, case):
    whole = BLOCK_CASES[case]()
    monkeypatch.setattr(geometry, "PAIR_BLOCK", TINY_BLOCK)
    tiny = BLOCK_CASES[case]()
    assert len(tiny) == len(whole)
    for got, want in zip(tiny, whole):
        assert np.array_equal(got, want)


def test_evaluate_scratch_does_not_grow_with_queries_or_anchors():
    rng = np.random.default_rng(14)
    g = LipschitzGraph(make_plane([[1.0, 0.0]]), V_AXIS, np.sort(rng.random((4096, 1)), axis=0),
                       rng.random((4096, 1)), 1.0, 2.5)
    z = rng.random((4096, 1))
    vals, peak = traced_peak(g.evaluate, z)
    assert vals.shape == (4096, 1)
    assert np.array_equal(vals[:8], g.evaluate(z[:8]))
    assert peak < SCRATCH_LIMIT


def test_diameter_scratch_does_not_grow_with_the_cloud():
    m = random_cloud(8, 8192)
    diam, peak = traced_peak(m.diameter)
    assert diam == max(cdist(m.points[lo:lo + 512], m.points).max()
                       for lo in range(0, m.size, 512))
    assert peak < SCRATCH_LIMIT


def test_interaction_stack_scratch_does_not_grow_with_the_cloud():
    m = random_cloud(12, 2048)
    grid = TruncationGrid.log_spaced(m, 16)
    (packed, idx), peak = traced_peak(_interaction_stack, m, builtin_kernels()["cauchy"], grid)
    assert len(packed) == 1 and idx.shape == (2048, 2048)
    assert peak - sum(P.nbytes for P in packed) - idx.nbytes < SCRATCH_LIMIT


def test_ball_family_scratch_does_not_grow_with_the_cloud():
    m = random_cloud(10, 10_000)
    m.ball_indices(m.points[0], 0.1)        # the index is built before tracing
    sizes, peak = traced_peak(lambda: [len(b) for b in m.balls(m.points[:64], 2.0)])
    assert sizes == [m.size] * 64
    assert peak < SCRATCH_LIMIT


@pytest.mark.parametrize("block", [None, TINY_BLOCK])
def test_cone_rows_are_cone_dist_bitwise(monkeypatch, block):
    # each row of a block of vertices must keep the bits of the one-vertex
    # call, the padded one-point cloud included
    if block:
        monkeypatch.setattr(geometry, "PAIR_BLOCK", block)
    rng = np.random.default_rng(17)
    for d in range(2, 5):
        for k in range(1, d):
            v = sample_grassmannian(d, k, 1, seed=d + k)[0]
            for n in (1, 2, 9):
                pts = rng.standard_normal((n, d)) + 1e3
                xs = np.vstack([pts, rng.standard_normal((2, d)) + 1e3])
                seen = []
                for rows, mask, dist in cone_rows(pts, xs, v, 0.6):
                    for i, mrow, drow in zip(range(rows.start, rows.stop), mask, dist):
                        want_mask, want_dist = cone_row(pts, xs[i], v, 0.6)
                        assert mrow.tolist() == want_mask.tolist(), (d, k, n, i)
                        assert drow.tolist() == want_dist.tolist(), (d, k, n, i)
                        seen.append(i)
                assert seen == list(range(len(xs)))


def test_tiny_block_strips_are_rows_ending_in_one_pair(monkeypatch):
    monkeypatch.setattr(geometry, "PAIR_BLOCK", TINY_BLOCK)
    pts = random_cloud(88, 9).points
    strips = [(i0, mask.shape) for i0, mask, _ in cone_pairs(pts, V_AXIS, 0.8)]
    assert strips == [(i, (1, 8 - i)) for i in range(8)]


def test_sweep_scratch_does_not_grow_with_the_cloud():
    m, _ = generate(GeneratorSpec("four_corner_cantor", {"generation": 6}))
    (energies, counts), peak = traced_peak(pointwise_energies, m, EnergySpec(V_AXIS, 0.8, 1.0, 1.0))
    assert energies.shape == counts.shape == (4096,)
    assert peak < SCRATCH_LIMIT
