import numpy as np
import pytest

from conftest import point_energy

from conical_gmt.errors import InvalidSpec
from conical_gmt.generators import GeneratorSpec, generate

# per-scale densities theta_k = k^(-1/3), p-summable for p = 4 but not
# square-summable; contraction ratio k is 4^-1 theta_(k-1) / theta_k
THETAS = np.arange(1, 21, dtype=float) ** (-1.0 / 3.0)
TUNED_RATIOS = (0.25 * np.append(1.0, THETAS[:-1]) / THETAS).tolist()


def test_cantor_generation1_layout():
    m, meta = generate(GeneratorSpec("four_corner_cantor", {"generation": 1}))
    expect = {(0.125, 0.125), (0.875, 0.125), (0.125, 0.875), (0.875, 0.875)}
    got = {tuple(p) for p in m.points}
    assert got == expect
    assert np.allclose(m.weights, 0.25)
    assert meta["generation"] == 1


def test_cantor_counts_and_mass():
    for g in (2, 3, 4):
        m, _ = generate(GeneratorSpec("four_corner_cantor", {"generation": g}))
        assert m.size == 4 ** g
        assert m.total_mass == pytest.approx(1.0)


def test_cantor_square_symmetry():
    m, _ = generate(GeneratorSpec("four_corner_cantor", {"generation": 3}))
    pts = {tuple(np.round(p, 12)) for p in m.points}
    # reflections about the square's axes and the rotation by 90 degrees
    for f in (lambda p: (1 - p[0], p[1]),
              lambda p: (p[0], 1 - p[1]),
              lambda p: (p[1], 1 - p[0])):
        assert {tuple(np.round(f(p), 12)) for p in pts} == pts


def test_flat_graph_is_segment():
    m, meta = generate(GeneratorSpec("lipschitz_graph", {"count": 64, "lipschitz": 0.0}))
    assert np.allclose(m.points[:, 1], 0.0)
    assert meta["lipschitz"] == 0.0


def test_graph_anchor_lipschitz_bound_exact():
    for profile in ("sine", "zigzag"):
        lip = 0.7
        m, _ = generate(GeneratorSpec(
            "lipschitz_graph", {"count": 300, "lipschitz": lip, "profile": profile}))
        z, y = m.points[:, 0], m.points[:, 1]
        dz = np.abs(z[:, None] - z[None, :])
        dy = np.abs(y[:, None] - y[None, :])
        mask = dz > 0
        assert np.all(dy[mask] <= lip * dz[mask] + 1e-15)


def test_determinism_under_seed():
    spec = GeneratorSpec("segment", {"count": 50, "jitter": 1.0}, seed=42)
    a, _ = generate(spec)
    b, _ = generate(spec)
    assert np.array_equal(a.points, b.points)
    c, _ = generate(GeneratorSpec("segment", {"count": 50, "jitter": 1.0}, seed=43))
    assert not np.array_equal(a.points, c.points)


def test_jitter_without_seed_rejected():
    with pytest.raises(InvalidSpec):
        generate(GeneratorSpec("segment", {"count": 10, "jitter": 0.5}))


def test_circle_radius():
    m, _ = generate(GeneratorSpec("circle", {"count": 100, "radius": 0.3}))
    r = np.linalg.norm(m.points - 0.5, axis=1)
    assert np.allclose(r, 0.3, atol=1e-12)


def test_unknown_kind_rejected():
    with pytest.raises(InvalidSpec):
        GeneratorSpec("donut", {})


def test_variable_cantor_density_profile():
    # oracle: brute-force per-scale density at the cell scale equals the
    # prescribed theta sequence (mass 4^-k over side s_k with s_k = 4^-k/theta_k)
    g = 5
    m, meta = generate(GeneratorSpec(
        "variable_cantor", {"ratios": TUNED_RATIOS, "generation": g}))
    assert m.size == 4 ** g
    sides = np.asarray(meta["cell_sides"])
    densities = np.asarray(meta["scale_densities"])
    assert np.allclose(densities, 4.0 ** -np.arange(1, g + 1) / sides)
    assert np.allclose(densities, THETAS[:g], rtol=1e-12)


def test_variable_cantor_pointwise_energy_uniformity():
    # atoms of the tuned measure see comparable multiscale mass profiles;
    # exact evaluation puts the spread across atoms under 8x (measured 5.9
    # at generation 5: corner cells see less cone mass than interior ones)
    from conical_gmt.energy import EnergySpec
    from conical_gmt.geometry import make_plane
    m, _ = generate(GeneratorSpec(
        "variable_cantor", {"ratios": TUNED_RATIOS, "generation": 5}))
    spec = EnergySpec(make_plane([[0.0, 1.0]]), 0.95, 4.0, 1.0)
    rng = np.random.default_rng(0)
    idx = rng.choice(m.size, 40, replace=False)
    vals = [point_energy(m, m.points[i], spec) for i in idx]
    assert min(vals) > 0
    assert max(vals) <= 8.0 * min(vals)


def test_mixture_combines_components():
    spec = GeneratorSpec("mixture", {"components": [
        {"spec": {"kind": "segment", "params": {"count": 10}}, "weight": 0.5},
        {"spec": {"kind": "four_corner_cantor", "params": {"generation": 1}},
         "weight": 0.5, "offset": [2.0, 0.0]},
    ]})
    m, meta = generate(spec)
    assert m.size == 14
    assert m.total_mass == pytest.approx(1.0)
    assert meta["weights"] == [0.5, 0.5]


def test_mixture_counts_every_component_against_the_cap():
    from conical_gmt.errors import TooLarge
    from conical_gmt.generators import MAX_ATOMS
    half = {"spec": {"kind": "segment", "params": {"count": MAX_ATOMS // 2 + 1}}}
    with pytest.raises(TooLarge):
        generate(GeneratorSpec("mixture", {"components": [half, half]}))
