import csv
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from conftest import cone_row, graph_document, graph_through, point_energy

import conical_gmt
from conical_gmt import diagnostics
from conical_gmt.cli import _build_parser, _parse_balls, run
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
    from conical_gmt.energy import EnergySpec
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
        assert int(row["in_cone_count"]) == np.count_nonzero(
            cone_row(m.points, m.points[i], spec.direction, spec.aperture)[0])
        assert float(row["energy"]) == pytest.approx(point_energy(m, m.points[i], spec),
                                                     rel=1e-12, abs=0.0)


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


def test_sio_norm_rejects_nan_truncations(tmp_path):
    pts = tmp_path / "c3.csv"
    run(["gen", "--type", "four_corner_cantor", "--generation", "3",
         "--out", str(pts)])
    out = tmp_path / "norms.csv"
    base = ["sio-norm", "--points", str(pts), "--kernel", "cauchy", "--n", "1",
            "--out", str(out), "--eps-grid"]
    for grid in ("nan", "nan,0.01", "0.01,nan", "inf,inf"):
        assert run(base + [grid]) == 2, grid
        assert not out.exists()
    # every pair is dropped at eps = inf, so its norm of 0 is exact
    assert run(base + ["0.01,inf"]) == 0
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert [r["eps"] for r in rows] == ["0.01", "inf"]
    assert float(rows[0]["norm"]) > 0 and float(rows[1]["norm"]) == 0.0


def test_sio_norm_rejects_a_tolerance_that_is_not_positive(tmp_path):
    pts = tmp_path / "c3.csv"
    run(["gen", "--type", "four_corner_cantor", "--generation", "3",
         "--out", str(pts)])
    out = tmp_path / "norms.csv"
    for tol in ("0", "-1e-6", "nan", "inf"):
        assert run(["sio-norm", "--points", str(pts), "--kernel", "cauchy",
                    "--n", "1", "--grid-size", "4", "--tol", tol,
                    "--out", str(out)]) == 2, tol
        assert not out.exists()


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


def test_beta_fits_each_scale_once(tmp_path, monkeypatch):
    pts = tmp_path / "c3.csv"
    run(["gen", "--type", "four_corner_cantor", "--generation", "3",
         "--out", str(pts)])
    calls = []
    fit = diagnostics.beta2

    def counted(m, x, r):
        calls.append(r)
        return fit(m, x, r)

    monkeypatch.setattr(diagnostics, "beta2", counted)
    rep = tmp_path / "beta.json"
    assert run(["beta", "--points", str(pts), "--n", "1", "--center", "idx:0",
                "--scales", "dyadic:6", "--out", str(tmp_path / "beta.csv"),
                "--json-out", str(rep)]) == 0
    data = json.loads(rep.read_text())
    assert calls == data["scales"]
    m = load_csv(pts, 1)
    assert data["square_function"] == diagnostics.beta_square_function(
        m, m.points[0], data["scales"])["total"]


def test_bplg_subcommands(tmp_path):
    mg, _ = generate(GeneratorSpec("lipschitz_graph", {"count": 100, "lipschitz": 0.3}))
    pts_file = tmp_path / "mix.csv"
    from conical_gmt.geometry import make_plane
    graph = graph_through(mg.points, make_plane([[0.0, 1.0]]), 0.8)
    pts = np.vstack([mg.points, [[0.5, 0.4]]])
    w = np.full(len(pts), 1.0 / len(pts))
    save_csv(DiscreteMeasure(pts, w, 1), pts_file)
    graph_file = tmp_path / "graph.json"
    graph_file.write_text(json.dumps(graph_document(graph)))
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


@pytest.mark.parametrize("option, value", [("--alpha", "-0.2"), ("--alpha", "1.5"),
                                           ("--p", "0.5")])
def test_scan_bpbe_rejects_invalid_cone_parameters(tmp_path, capsys, option, value):
    pts = tmp_path / "seg.csv"
    run(["gen", "--type", "segment", "--count", "40", "--out", str(pts)])
    rep = tmp_path / "scan.json"
    argv = {"--alpha": "0.8", "--p": "1", "--M0": "0.5", "--kappa": "0.9",
            "--direction-samples": "2", "--seed": "3", "--balls": "all", option: value}
    code = run(["scan-bpbe", "--points", str(pts), "--n", "1", "--out", str(rep),
                *(t for kv in argv.items() for t in kv)])
    assert code == 2
    assert "must" in capsys.readouterr().err
    assert not rep.exists()


@pytest.mark.parametrize("text", [
    "[[[NaN, 0.5], 0.3]]", "[[[Infinity, 0.5], 0.3]]", "[[0.5, 0.5]]",
    '[[0.5, 0.5], "x"]', '{"a": 1}', '[[[0.5, 0.5], 0.3], [[0.5, 0.5], "x"]]',
    "[[[0.5, 0.5], 0]]", "[[[0.5, 0.5], Infinity]]", "[[[0.5], 0.3]]",
    "[[[0.5, true], 0.3]]", "[[0.5, 0.5], 0.3", "[[[0.5, 0.5], 1e999]]"],
    ids=["nan-centre", "inf-centre", "no-radius", "string-entry", "object",
         "string-radius", "zero-radius", "inf-radius", "short-centre",
         "bool-coordinate", "not-json", "overflow-radius"])
def test_scan_bpbe_rejects_a_bad_balls_file(tmp_path, capsys, text):
    pts = tmp_path / "seg.csv"
    run(["gen", "--type", "segment", "--count", "40", "--out", str(pts)])
    balls = tmp_path / "balls.json"
    balls.write_text(text)
    rep = tmp_path / "scan.json"
    code = run(["scan-bpbe", "--points", str(pts), "--n", "1", "--alpha", "0.8",
                "--M0", "0.5", "--kappa", "0.9", "--direction-samples", "2",
                "--seed", "3", "--balls", str(balls), "--out", str(rep)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {balls}: ") and err.count("\n") == 1
    assert not rep.exists()


def test_scan_bpbe_reads_a_balls_file(tmp_path):
    pts = tmp_path / "seg.csv"
    run(["gen", "--type", "segment", "--count", "40", "--out", str(pts)])
    balls = tmp_path / "balls.json"
    balls.write_text("[[[0.5, 0], 0.3], [[0, 0], 2]]")
    rep = tmp_path / "scan.json"
    assert run(["scan-bpbe", "--points", str(pts), "--n", "1", "--alpha", "0.8",
                "--M0", "0.5", "--kappa", "0.9", "--direction-samples", "2",
                "--seed", "3", "--balls", str(balls), "--out", str(rep)]) == 0
    data = json.loads(rep.read_text())
    assert [(b["center"], b["radius"]) for b in data["balls"]] == [([0.5, 0.0], 0.3),
                                                                   ([0.0, 0.0], 2.0)]


def _fresh_python(args, cwd):
    """Run ``python args`` in a new interpreter that imports this conical_gmt."""
    src = os.path.dirname(os.path.dirname(conical_gmt.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], cwd=cwd, capture_output=True,
                          text=True, timeout=300, env={**os.environ, "PYTHONPATH": path})


def test_cached_parser_carries_nothing_between_runs(tmp_path):
    pts = tmp_path / "seg.csv"
    run(["gen", "--type", "segment", "--count", "40", "--out", str(pts)])
    rep = tmp_path / "scan.json"
    argv = ["scan-bpbe", "--points", str(pts), "--n", "1", "--alpha", "0.8",
            "--M0", "0.5", "--kappa", "0.9", "--direction-samples", "2",
            "--seed", "3", "--balls", "all", "--pin-plane", "0,1",
            "--pin-plane", "1,0", "--out", str(rep)]
    reports = []
    for _ in range(2):
        assert run(argv) == 0
        reports.append(rep.read_text())
    assert _build_parser() is _build_parser()
    code = ("import sys; from conical_gmt.cli import run; "
            f"sys.exit(run({argv!r}))")
    assert _fresh_python(["-c", code], tmp_path).returncode == 0
    reports.append(rep.read_text())
    assert reports[0] == reports[1] == reports[2]
    assert json.loads(reports[0])["params"]["pin_plane"] == ["0,1", "1,0"]


def test_exit_codes_of_bad_arguments_and_help(capsys):
    for _ in range(2):
        assert run(["energy", "--points", "x.csv"]) == 2
        assert run(["no-such-command"]) == 2
        assert run(["--help"]) == 0
        assert run(["corona", "--help"]) == 0
    assert capsys.readouterr().out.count("include full member lists") == 2


def test_gen_and_p1_energy_load_no_scipy(tmp_path):
    gen = ["gen", "--type", "four_corner_cantor", "--generation", "3",
           "--out", "c.csv"]
    energy = ["energy", "--points", "c.csv", "--n", "1", "--p", "1",
              "--alpha", "0.8", "--plane", "0,1", "--R", "1", "--out", "e.json"]
    code = ("import sys; from conical_gmt import cli; "
            f"assert cli.run({gen!r}) == 0 and cli.run({energy!r}) == 0; "
            "print(sorted(k for k in sys.modules if k.startswith('scipy')))")
    proc = _fresh_python(["-c", code], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"
    assert json.loads((tmp_path / "e.json").read_text())["total_energy"] > 0


def test_ball_query_pipelines_load_no_scipy(tmp_path):
    # balls, nearest distances and the smallest interpoint distance are
    # numpy alone: the lattice, the corona and its verification, the scan,
    # the graph cover, the density checks and the beta profile load no scipy
    xs = np.linspace(0.0, 1.0, 21).tolist()
    (tmp_path / "graph.json").write_text(json.dumps(
        {"base_plane": [[1.0, 0.0]], "anchors": [[[x], [0.25 * x]] for x in xs], "L": 0.25}))
    (tmp_path / "corona.json").write_text(json.dumps(
        {"alpha": 0.8, "p": 1, "plane": "0,1", "n": 1, "max_depth": 5, "seed": 0}))
    pts = ["--points", "s.csv", "--n", "1"]
    bplg = [*pts, "--graph", "graph.json", "--check"]
    calls = [["gen", "--type", "segment", "--count", "150", "--jitter", "0.05",
              "--seed", "1", "--out", "s.csv"],
             ["corona", "--points", "s.csv", "--config", "corona.json", "--out", "c.json"],
             ["scan-bpbe", *pts, "--alpha", "0.8", "--M0", "0.5", "--kappa", "0.9",
              "--direction-samples", "2", "--seed", "3", "--balls", "all",
              "--out", "scan.json"],
             ["bplg", *bplg, "cover", "--out", "cover.json"],
             ["bplg", *bplg, "thetaM", "--out", "thetam.json"],
             ["bplg", *bplg, "feps", "--eps", "0.1", "--out", "feps.json"],
             ["beta", *pts, "--center", "idx:0", "--scales", "dyadic:4", "--out", "b.csv"]]
    code = ("import sys; from conical_gmt import cli; "
            f"assert all(cli.run(argv) == 0 for argv in {calls!r}); "
            "print(sorted(k for k in sys.modules if k.startswith('scipy')))")
    proc = _fresh_python(["-c", code], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"
    report = json.loads((tmp_path / "c.json").read_text())
    assert report["verification"]["passed"]
    assert json.loads((tmp_path / "cover.json").read_text())["chosen_balls"] > 0


def test_gen_and_sio_norm_load_no_scipy_spatial(tmp_path):
    gen = ["gen", "--type", "lipschitz_graph", "--count", "128", "--lipschitz",
           "0.5", "--out", "g.csv"]
    norms = ["sio-norm", "--points", "g.csv", "--kernel", "cauchy", "--n", "1",
             "--grid-size", "4", "--out", "s.csv"]
    code = ("import sys; from conical_gmt import cli; "
            f"assert cli.run({gen!r}) == 0 and cli.run({norms!r}) == 0; "
            "print(sorted(k for k in sys.modules if k.startswith('scipy')))")
    proc = _fresh_python(["-c", code], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"
    with open(tmp_path / "s.csv") as fh:
        assert len(list(csv.DictReader(fh))) == 4


def test_python_dash_m_runs_the_cli(tmp_path):
    run(["gen", "--type", "four_corner_cantor", "--generation", "2",
         "--out", str(tmp_path / "c.csv")])
    argv = ["-m", "conical_gmt", "energy", "--points", "c.csv", "--n", "1",
            "--p", "1", "--alpha", "0.8", "--plane", "0,1", "--R", "1",
            "--out", "e.json"]
    assert _fresh_python(argv, tmp_path).returncode == 0
    assert json.loads((tmp_path / "e.json").read_text())["kind"] == "energy"
    assert _fresh_python(argv[:3], tmp_path).returncode == 2


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


def _assert_one_line_error(code, capsys):
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("text", ["{", "[1]", '{"kinds": []}'],
                         ids=["not-json", "not-object", "no-components"])
def test_gen_rejects_a_malformed_mixture_config(tmp_path, capsys, text):
    cfg = tmp_path / "mix.json"
    cfg.write_text(text)
    code = run(["gen", "--type", "mixture", "--mixture-config", str(cfg), "--seed", "1",
                "--out", str(tmp_path / "mix.csv")])
    _assert_one_line_error(code, capsys)
    assert not (tmp_path / "mix.csv").exists()


@pytest.mark.parametrize("text", [
    "alpha: 0.8", "[1]", '{"alpha": 0.8}', '{"plane": "0,1"}', '{"plane": 5, "alpha": 0.8}',
    '{"plane": "0,1", "alpha": "x"}', '{"plane": "0,1", "alpha": 0.8, "p": "x"}',
    '{"plane": "0,1", "alpha": 0.8, "max_depth": "x"}',
    '{"plane": "0,1", "alpha": 0.8, "M": [4]}', '{"plane": "0,1", "alpha": 0.8, "n": true}'],
    ids=["not-json", "not-object", "no-plane", "no-alpha", "plane-not-string",
         "alpha-string", "p-string", "depth-string", "M-list", "n-bool"])
def test_corona_rejects_a_malformed_config(tmp_path, capsys, text):
    pts = tmp_path / "seg.csv"
    run(["gen", "--type", "segment", "--count", "40", "--out", str(pts)])
    cfg = tmp_path / "corona.json"
    cfg.write_text(text)
    rep = tmp_path / "rep.json"
    code = run(["corona", "--points", str(pts), "--config", str(cfg), "--out", str(rep)])
    _assert_one_line_error(code, capsys)
    assert not rep.exists()


GRAPH = {"base_plane": [[1.0, 0.0]], "anchors": [[[0.0], [0.0]], [[1.0], [0.5]]], "L": 0.5}


@pytest.mark.parametrize("check", ["cover", "thetaM"])
@pytest.mark.parametrize("text", [
    "{", "[1]", json.dumps({**GRAPH, "anchors": []}),
    json.dumps({k: v for k, v in GRAPH.items() if k != "anchors"}),
    json.dumps({k: v for k, v in GRAPH.items() if k != "base_plane"}),
    json.dumps({**GRAPH, "anchors": [[[0.0, 1.0], [0.0]]]}),
    json.dumps({**GRAPH, "anchors": [[[0.0], [0.0, 1.0]]]}),
    json.dumps({**GRAPH, "anchors": [[[0.0]]]}), json.dumps({**GRAPH, "anchors": [5]}),
    json.dumps({**GRAPH, "L": "x"}), json.dumps({**GRAPH, "base_plane": "x"}),
    json.dumps({**GRAPH, "normal_plane": [[1.0, 0.0, 0.0]]})],
    ids=["not-json", "not-object", "empty-anchors", "no-anchors", "no-base-plane",
         "wide-base-coordinates", "wide-normal-coordinates", "anchor-without-value",
         "anchor-not-pair", "L-string", "plane-string", "normal-plane-mismatch"])
def test_bplg_rejects_a_malformed_graph(tmp_path, capsys, text, check):
    pts = tmp_path / "seg.csv"
    run(["gen", "--type", "segment", "--count", "20", "--out", str(pts)])
    graph = tmp_path / "graph.json"
    graph.write_text(text)
    rep = tmp_path / "rep.json"
    code = run(["bplg", "--points", str(pts), "--n", "1", "--graph", str(graph),
                "--check", check, "--out", str(rep)])
    _assert_one_line_error(code, capsys)
    assert not rep.exists()


@pytest.mark.parametrize("text", ["{", "[1]"], ids=["not-json", "not-object"])
def test_report_rejects_a_malformed_input_report(tmp_path, capsys, text):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    out = tmp_path / "merged.json"
    _assert_one_line_error(run(["report", "--inputs", str(bad), "--out", str(out)]), capsys)
    assert not out.exists()


@pytest.fixture
def cantor4(tmp_path):
    """Four-corner Cantor generation 4 (256 atoms) as a points file."""
    path = tmp_path / "c4.csv"
    assert run(["gen", "--type", "four_corner_cantor", "--generation", "4",
                "--out", str(path)]) == 0
    return str(path)


ENERGY = ["energy", "--n", "1", "--alpha", "0.8"]
SCAN = ["scan-bpbe", "--n", "1", "--alpha", "0.8", "--M0", "1", "--kappa", "0.5",
        "--direction-samples", "4", "--balls", "all"]
SIO = ["sio-norm", "--kernel", "cauchy", "--n", "1"]
BETA = ["beta", "--n", "1"]


@pytest.mark.parametrize("argv, code, prefix", [
    (ENERGY + ["--p", "1", "--plane", "nan,1", "--R", "1"], 2, "error:"),
    (SCAN + ["--seed", "1", "--pin-plane", "nan,1"], 2, "error:"),
    (ENERGY + ["--p", "1", "--plane", "0,1", "--R", "abc"], 2, "error:"),
    (SCAN + ["--seed", "-1"], 2, "error:"),
    (["gen", "--type", "segment", "--count", "10", "--seed", "-1"], 2, "error:"),
    (["gen", "--type", "segment", "--count", "10", "--seed", "1", "--jitter", "nan"],
     2, "error:"),
    (["gen", "--type", "segment", "--count", "10", "--seed", "1", "--jitter", "-1"],
     2, "error:"),
    (["gen", "--type", "variable_cantor", "--generation", "3"], 2, "error:"),
    (ENERGY + ["--p", "inf", "--plane", "0,1", "--R", "1"], 2, "error:"),
    (SCAN + ["--seed", "1", "--p", "inf"], 2, "error:"),
    (ENERGY + ["--p", "1e308", "--plane", "0,1", "--R", "1"], 3, "numerical failure:"),
    (SCAN + ["--seed", "1", "--p", "1e308"], 3, "numerical failure:"),
    (SIO + ["--eps-grid", "abc"], 2, "error:"),
    (SIO + ["--eps-grid", "0.1,,0.2"], 2, "error:"),
    (BETA + ["--center", "idx:0", "--scales", "abc"], 2, "error:"),
    (BETA + ["--center", "idx:0", "--scales", "dyadic:x"], 2, "error:"),
    (BETA + ["--center", "idx:abc", "--scales", "dyadic:4"], 2, "error:"),
    (BETA + ["--center", "0.5,abc", "--scales", "dyadic:4"], 2, "error:"),
    (BETA + ["--center", "0.5", "--scales", "dyadic:4"], 2, "error:"),
    (["gen", "--type", "variable_cantor", "--generation", "3", "--ratios", "0.3,abc"],
     2, "error:"),
], ids=["energy-plane-nan", "scan-pin-plane-nan", "energy-R-text", "scan-seed-negative",
        "gen-seed-negative", "gen-jitter-nan", "gen-jitter-negative",
        "gen-variable-cantor-no-ratios", "energy-p-inf",
        "scan-p-inf", "energy-p-overflow", "scan-p-overflow", "sio-eps-grid-text",
        "sio-eps-grid-empty-field", "beta-scales-text", "beta-dyadic-count-text",
        "beta-center-index-text", "beta-center-coordinate-text", "beta-center-bare-float",
        "gen-ratios-text"])
def test_bad_input_exits_with_one_message(tmp_path, cantor4, capsys, argv, code, prefix):
    # each was a traceback (exit 1), or exit 0 with an unjittered cloud or a
    # NaN energy and verdict; no output file is written
    out = tmp_path / "out"
    if argv[0] == "gen":
        argv = argv + ["--out", str(out)]
    else:
        argv = argv + ["--points", cantor4, "--out", str(out)]
    capsys.readouterr()
    assert run(argv) == code
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(prefix), err
    assert not out.exists()


@pytest.mark.parametrize("p", ["1", "2"])
def test_energy_below_every_distance_is_zero(tmp_path, cantor4, capsys, p):
    # R = 1e-320 is below every distance, and R^-n passes the double range;
    # the p = 1 sweep took that power on a Python float, an OverflowError
    out = tmp_path / "e.json"
    assert run(ENERGY + ["--p", p, "--plane", "0,1", "--R", "1e-320",
                         "--points", cantor4, "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    assert json.loads(out.read_text())["total_energy"] == 0.0


@pytest.mark.parametrize("params", [["--type", "four_corner_cantor", "--generation", "40"],
                                    ["--type", "segment", "--count", "100000000000"]],
                         ids=["cantor-generation-40", "segment-1e11"])
def test_gen_refuses_oversize_cloud_before_allocating(tmp_path, capsys, params):
    out = tmp_path / "big.csv"
    assert run(["gen", *params, "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "16777216 atoms" in err[0]
    assert not out.exists()
