import csv
import json

import numpy as np
import pytest

from conical_gmt import diagnostics
from conical_gmt.cli import _parse_balls, run
from conical_gmt.generators import GeneratorSpec, generate
from conical_gmt.measure import DiscreteMeasure, load_csv, save_csv


def test_gen_cantor_row_count(tmp_path):
    out = tmp_path / "c4.csv"
    code = run(["gen", "--type", "four_corner_cantor", "--generation", "4",
                "--out", str(out)])
    assert code == 0
    with open(out) as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 1 + 256


def test_gen_roundtrip_bit_exact(tmp_path):
    out = tmp_path / "seg.csv"
    assert run(["gen", "--type", "segment", "--count", "100", "--jitter", "0.5",
                "--seed", "9", "--out", str(out), "--meta", str(tmp_path / "m.json")]) == 0
    m, _ = generate(GeneratorSpec("segment", {"count": 100, "jitter": 0.5}, seed=9))
    back = load_csv(out, dim_param=1)
    assert np.array_equal(back.points, m.points)
    assert np.array_equal(back.weights, m.weights)


def test_gen_stochastic_requires_seed(tmp_path, capsys):
    code = run(["gen", "--type", "segment", "--count", "10", "--jitter", "0.5",
                "--out", str(tmp_path / "x.csv")])
    assert code == 2
    assert "--seed" in capsys.readouterr().err


def test_energy_subcommand_wiring(tmp_path):
    pts = tmp_path / "c4.csv"
    run(["gen", "--type", "four_corner_cantor", "--generation", "3",
         "--out", str(pts)])
    per = tmp_path / "pp.csv"
    rep = tmp_path / "e.json"
    code = run(["energy", "--points", str(pts), "--n", "1", "--p", "1",
                "--alpha", "0.8", "--plane", "0,1", "--R", "1",
                "--per-point", str(per), "--out", str(rep)])
    assert code == 0
    with open(per) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 64
    data = json.loads(rep.read_text())
    assert data["kind"] == "energy"
    assert "points_sha256" in data
    assert data["total_energy"] > 0


def test_energy_per_point_csv_matches_pointwise_energy(tmp_path):
    from conical_gmt.energy import EnergySpec, pointwise_energy
    from conical_gmt.geometry import make_plane

    pts = tmp_path / "c4.csv"
    run(["gen", "--type", "four_corner_cantor", "--generation", "4",
         "--out", str(pts)])
    per = tmp_path / "pp.csv"
    assert run(["energy", "--points", str(pts), "--n", "1", "--p", "1",
                "--alpha", "0.8", "--plane", "0,1", "--R", "inf",
                "--per-point", str(per), "--out", str(tmp_path / "e.json")]) == 0
    with open(per) as fh:
        rows = list(csv.DictReader(fh))
    m = load_csv(pts, dim_param=1)
    spec = EnergySpec(make_plane([[0.0, 1.0]]), 0.8)
    assert [int(r["index"]) for r in rows] == list(range(m.size))
    for i, row in enumerate(rows):
        bd = pointwise_energy(m, m.points[i], spec)
        assert int(row["in_cone_count"]) == bd.in_cone_count
        assert float(row["energy"]) == pytest.approx(bd.total, rel=1e-12, abs=0.0)


def test_missing_points_file_exit_2(tmp_path, capsys):
    code = run(["energy", "--points", str(tmp_path / "nope.csv"), "--n", "1",
                "--p", "1", "--alpha", "0.5", "--plane", "0,1", "--R", "1"])
    assert code == 2
    assert "nope.csv" in capsys.readouterr().err


def test_bad_weight_file_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text("x0,x1,w\n0,0,1\n1,0,0\n")
    code = run(["energy", "--points", str(path), "--n", "1", "--p", "1",
                "--alpha", "0.5", "--plane", "0,1", "--R", "1"])
    assert code == 2
    assert "weight" in capsys.readouterr().err


def test_corona_subcommand(tmp_path):
    pts = tmp_path / "line.csv"
    run(["gen", "--type", "segment", "--count", "150", "--out", str(pts)])
    cfg = tmp_path / "corona.json"
    cfg.write_text(json.dumps({"alpha": 0.8, "p": 1, "plane": "0,1", "n": 1,
                               "max_depth": 5, "seed": 0}))
    rep = tmp_path / "rep.json"
    trees = tmp_path / "trees.json"
    code = run(["corona", "--points", str(pts), "--config", str(cfg),
                "--out", str(rep), "--dump-trees", str(trees)])
    assert code == 0
    data = json.loads(rep.read_text())
    assert data["verification"]["passed"]
    assert "packing_sum" in data["ledger"]
    assert data["corona_params"]["defaults_note"]
    dump = json.loads(trees.read_text())
    assert dump["cubes"] and dump["trees"]


def test_corona_default_depth_follows_the_input(tmp_path):
    # At a fixed depth 8 this segment is cut into 1,000 single-atom top
    # cubes and the packing ratio is about 12; the depth derived from the
    # cloud's spacing keeps one top tree.
    pts = tmp_path / "seg.csv"
    run(["gen", "--type", "segment", "--count", "1000", "--jitter", "0.05",
         "--seed", "1", "--out", str(pts)])
    cfg = tmp_path / "corona.json"
    cfg.write_text(json.dumps({"alpha": 0.8, "p": 1, "plane": "0,1", "n": 1}))
    rep = tmp_path / "rep.json"
    code = run(["corona", "--points", str(pts), "--config", str(cfg),
                "--out", str(rep)])
    assert code == 0
    assert json.loads(rep.read_text())["ledger"]["ratio"] < 10


def test_sio_norm_subcommand(tmp_path):
    pts = tmp_path / "c3.csv"
    run(["gen", "--type", "four_corner_cantor", "--generation", "3",
         "--out", str(pts)])
    out = tmp_path / "norms.csv"
    code = run(["sio-norm", "--points", str(pts), "--kernel", "cauchy",
                "--n", "1", "--grid-size", "8", "--out", str(out)])
    assert code == 0
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 8
    assert all(r["flag"] == "ok" for r in rows)
    assert float(rows[0]["norm"]) > 0


def test_sio_norm_stall_exit_3(tmp_path):
    pts = tmp_path / "c3.csv"
    run(["gen", "--type", "four_corner_cantor", "--generation", "3",
         "--out", str(pts)])
    out = tmp_path / "norms.csv"
    code = run(["sio-norm", "--points", str(pts), "--kernel", "cauchy",
                "--n", "1", "--grid-size", "4", "--max-iter", "1",
                "--out", str(out)])
    assert code == 3
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert any(r["flag"] == "stalled" for r in rows)


def test_beta_subcommand(tmp_path):
    pts = tmp_path / "c3.csv"
    run(["gen", "--type", "four_corner_cantor", "--generation", "3",
         "--out", str(pts)])
    out = tmp_path / "beta.csv"
    code = run(["beta", "--points", str(pts), "--n", "1", "--center", "idx:0",
                "--scales", "dyadic:5", "--out", str(out)])
    assert code == 0
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 5


def test_beta_zero_row_only_for_empty_balls(tmp_path, monkeypatch):
    pts = tmp_path / "c3.csv"
    run(["gen", "--type", "four_corner_cantor", "--generation", "3",
         "--out", str(pts)])
    out = tmp_path / "beta.csv"
    code = run(["beta", "--points", str(pts), "--n", "1", "--center", "5,5",
                "--scales", "1,0.5", "--out", str(out)])
    assert code == 0
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert [float(r["beta"]) for r in rows] == [0.0, 0.0]
    assert [float(r["ball_mass"]) for r in rows] == [0.0, 0.0]

    def broken(*args, **kwargs):
        raise ValueError("not an empty ball")

    # one scale, so no square function is computed around the handler
    monkeypatch.setattr(diagnostics, "beta2", broken)
    with pytest.raises(ValueError):
        run(["beta", "--points", str(pts), "--n", "1", "--center", "idx:0",
             "--scales", "0.5", "--out", str(out)])


def test_bplg_subcommands(tmp_path):
    mg, _ = generate(GeneratorSpec("lipschitz_graph", {"count": 100, "lipschitz": 0.3}))
    pts_file = tmp_path / "mix.csv"
    from conical_gmt.graphs import fit_lipschitz_graph
    from conical_gmt.geometry import make_plane
    graph = fit_lipschitz_graph(mg.points, make_plane([[0.0, 1.0]]), 0.8)
    pts = np.vstack([mg.points, [[0.5, 0.4]]])
    w = np.full(len(pts), 1.0 / len(pts))
    save_csv(DiscreteMeasure(pts, w, 1), pts_file)
    graph_file = tmp_path / "graph.json"
    graph_file.write_text(json.dumps(graph.to_json()))
    for check in ("cover", "thetaM"):
        rep = tmp_path / f"{check}.json"
        code = run(["bplg", "--points", str(pts_file), "--n", "1",
                    "--graph", str(graph_file), "--check", check,
                    "--out", str(rep)])
        assert code == 0, check
    code = run(["bplg", "--points", str(pts_file), "--n", "1",
                "--graph", str(graph_file), "--check", "feps", "--eps", "0.1",
                "--out", str(tmp_path / "feps.json")])
    assert code == 0


def test_report_merge_and_hash_guard(tmp_path, capsys):
    pts = tmp_path / "c3.csv"
    run(["gen", "--type", "four_corner_cantor", "--generation", "3",
         "--out", str(pts)])
    e1 = tmp_path / "e1.json"
    run(["energy", "--points", str(pts), "--n", "1", "--p", "1",
         "--alpha", "0.8", "--plane", "0,1", "--R", "1", "--out", str(e1)])
    e2 = tmp_path / "e2.json"
    run(["energy", "--points", str(pts), "--n", "1", "--p", "2",
         "--alpha", "0.8", "--plane", "0,1", "--R", "1", "--out", str(e2)])
    merged = tmp_path / "merged.json"
    assert run(["report", "--inputs", str(e1), str(e2), "--out", str(merged)]) == 0
    data = json.loads(merged.read_text())
    assert len(data["runs"]) == 2

    # mismatched hashes rejected
    other = tmp_path / "other.csv"
    run(["gen", "--type", "segment", "--count", "20", "--out", str(other)])
    e3 = tmp_path / "e3.json"
    run(["energy", "--points", str(other), "--n", "1", "--p", "1",
         "--alpha", "0.8", "--plane", "0,1", "--R", "1", "--out", str(e3)])
    code = run(["report", "--inputs", str(e1), str(e3), "--out",
                str(tmp_path / "bad.json")])
    assert code == 2
    assert "different point clouds" in capsys.readouterr().err


def test_report_empty_inputs(tmp_path):
    out = tmp_path / "empty.json"
    assert run(["report", "--inputs", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["runs"] == []


def test_every_report_embeds_params(tmp_path):
    pts = tmp_path / "c2.csv"
    run(["gen", "--type", "four_corner_cantor", "--generation", "2",
         "--out", str(pts)])
    rep = tmp_path / "e.json"
    run(["energy", "--points", str(pts), "--n", "1", "--p", "1",
         "--alpha", "0.7", "--plane", "0,1", "--R", "2", "--out", str(rep)])
    data = json.loads(rep.read_text())
    assert data["params"]["alpha"] == 0.7
    assert data["params"]["R"] == "2"
    assert data["params"]["plane"] == "0,1"


def test_scan_bpbe_subcommand(tmp_path):
    pts = tmp_path / "seg.csv"
    run(["gen", "--type", "segment", "--count", "80", "--out", str(pts)])
    rep = tmp_path / "scan.json"
    code = run(["scan-bpbe", "--points", str(pts), "--n", "1",
                "--alpha", "0.8", "--M0", "0.5", "--kappa", "0.9",
                "--direction-samples", "4", "--seed", "3",
                "--balls", "all", "--pin-plane", "0,1", "--out", str(rep)])
    assert code == 0
    data = json.loads(rep.read_text())
    assert data["all_pass"]
    assert data["balls"][0]["pinned"]


def test_lattice_balls_sit_on_the_input_cloud():
    # the lattice runs on the input cloud, so `--balls lattice` centres are
    # input atoms also for a cloud far from the origin and of diameter 10
    m, _ = generate(GeneratorSpec("four_corner_cantor", {"generation": 3}))
    cloud = DiscreteMeasure(10.0 * m.points + 100.0, m.weights, 1)
    balls, _ = _parse_balls("lattice", cloud, 2.0, 8.0, 5)
    assert len(balls) > 1
    for center, radius in balls:
        assert np.any(np.all(cloud.points == center, axis=1))
        assert radius > 2 * 28 * cloud.diameter() * 8.0 ** -4
