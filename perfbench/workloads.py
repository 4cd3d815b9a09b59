"""The benchmark's workloads: inputs made from a seed and the calls of one pass.

Each workload writes its inputs through `gen` pipeline calls (plus the small
files the benchmark derives from them: a row permutation, a corona config, a
graph and a ball family), then repeats one *pass*: a fixed list of pipeline
calls through ``conical_gmt.cli.run``.  Every pass writes the same output
files, so a pass is one whole round of the same operations.

Only the standard library is imported here, so the module loads before the
program under test does.
"""

from __future__ import annotations

import csv
import json
import os
import random
from dataclasses import dataclass, field
from typing import Callable

# Sizes: "full" is what the benchmark measures, "small" is what the self-test
# of the checks runs (a few seconds per workload).
SIZES = {
    "full": {"cantor_generation": 6, "segment_count": 1000, "corona_depth": 6,
             "graph_count": 1024, "mix_graph_count": 744, "mix_cantor_generation": 4},
    "small": {"cantor_generation": 4, "segment_count": 300, "corona_depth": 5,
              "graph_count": 192, "mix_graph_count": 192, "mix_cantor_generation": 3},
}

ALPHA = "0.8"            # cone aperture of every cone energy in the benchmark
SIO_GRID = 16            # truncations per sio-norm call
BETA_SCALES = 8          # dyadic scales per beta profile
FEPS_EPS = "0.45"        # no atom sits exactly on the eps r boundary


@dataclass
class Workload:
    name: str
    why: str
    setup: Callable                      # (run_cli, work, seed, size) -> None
    calls: Callable                      # (work) -> list of argv lists
    outputs: list = field(default_factory=list)   # files one pass writes


def _gen(run_cli, argv):
    rc = run_cli(["gen", *argv])
    if rc != 0:
        raise RuntimeError(f"gen {' '.join(argv)} exited {rc}")


def _path(work, name):
    return os.path.join(work, name)


def _read_rows(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


# ------------------------------------------------------------ cantor-energy

def _cantor_setup(run_cli, work, seed, size):
    raw = _path(work, "cantor_raw.csv")
    _gen(run_cli, ["--type", "four_corner_cantor",
                   "--generation", str(size["cantor_generation"]), "--out", raw])
    # The seed permutes the atom order; the text of every row is kept, so the
    # dyadic coordinates stay exact.
    header, rows = _read_rows(raw)
    random.Random(seed).shuffle(rows)
    with open(_path(work, "cantor.csv"), "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def _cantor_calls(work):
    return [["energy", "--points", _path(work, "cantor.csv"), "--n", "1", "--p", "1",
             "--alpha", ALPHA, "--plane", "0,1", "--R", "1",
             "--per-point", _path(work, "energy_points.csv"),
             "--out", _path(work, "energy.json")]]


# ----------------------------------------------------------- segment-corona

def _corona_setup(run_cli, work, seed, size):
    _gen(run_cli, ["--type", "segment", "--count", str(size["segment_count"]),
                   "--jitter", "0.05", "--seed", str(seed),
                   "--out", _path(work, "segment.csv")])
    with open(_path(work, "corona.json"), "w") as fh:
        json.dump({"alpha": float(ALPHA), "p": 1, "plane": "0,1", "n": 1,
                   "max_depth": size["corona_depth"]}, fh)


def _corona_calls(work):
    return [["corona", "--points", _path(work, "segment.csv"),
             "--config", _path(work, "corona.json"),
             "--out", _path(work, "corona_report.json"),
             "--dump-trees", _path(work, "corona_trees.json"), "--dump-members"]]


# ---------------------------------------------------------------- graph-sio

def _sio_setup(run_cli, work, seed, size):
    # Seed-independent on purpose: the kept power-iteration fault fails on
    # this fixed input, the same truncations on every run.
    _gen(run_cli, ["--type", "lipschitz_graph", "--count", str(size["graph_count"]),
                   "--lipschitz", "0.5", "--out", _path(work, "graph.csv")])


def _sio_calls(work):
    return [["sio-norm", "--points", _path(work, "graph.csv"), "--kernel", "cauchy",
             "--n", "1", "--eps-grid", "auto", "--grid-size", str(SIO_GRID),
             "--tol", "1e-6", "--max-iter", "500",
             "--out", _path(work, "sio_norms.csv"),
             "--json-out", _path(work, "sio_report.json")]]


# ------------------------------------------------------ mixture-diagnostics

MIX_CANTOR_OFFSET = [1.25, -0.5]


def _mixture_setup(run_cli, work, seed, size):
    ng = size["mix_graph_count"]
    cfg = {"components": [
        {"spec": {"kind": "lipschitz_graph", "seed": seed,
                  "params": {"count": ng, "lipschitz": 0.5, "jitter": 0.5}},
         "weight": 0.5},
        {"spec": {"kind": "four_corner_cantor",
                  "params": {"generation": size["mix_cantor_generation"]}},
         "offset": MIX_CANTOR_OFFSET, "weight": 0.5}]}
    with open(_path(work, "mixture_config.json"), "w") as fh:
        json.dump(cfg, fh)
    mix = _path(work, "mixture.csv")
    _gen(run_cli, ["--type", "mixture", "--mixture-config",
                   _path(work, "mixture_config.json"), "--seed", str(seed), "--out", mix])
    _, rows = _read_rows(mix)
    pts = [(float(r[0]), float(r[1])) for r in rows]
    # The graph component comes first and has no offset: its atoms are the
    # graph's anchors, so the cover sees exactly the Cantor atoms off-graph.
    with open(_path(work, "graph.json"), "w") as fh:
        json.dump({"base_plane": [[1.0, 0.0]],
                   "anchors": [[[x], [y]] for x, y in pts[:ng]], "L": 0.5}, fh)
    mid = pts[ng // 2]
    cantor_mid = [MIX_CANTOR_OFFSET[0] + 0.5, MIX_CANTOR_OFFSET[1] + 0.5]
    with open(_path(work, "balls.json"), "w") as fh:
        json.dump([[list(mid), 0.35], [cantor_mid, 0.5]], fh)
    with open(_path(work, "mixture_meta.json"), "w") as fh:
        json.dump({"graph_count": ng, "scan_seed": seed,
                   "beta_centers": [ng // 2, ng + (len(pts) - ng) // 3]}, fh)


def _mixture_calls(work):
    pts = _path(work, "mixture.csv")
    graph = _path(work, "graph.json")
    with open(_path(work, "mixture_meta.json")) as fh:
        meta = json.load(fh)
    calls = [["scan-bpbe", "--points", pts, "--n", "1", "--p", "2", "--alpha", ALPHA,
              "--M0", "0.5", "--kappa", "0.9", "--direction-samples", "16",
              "--seed", str(meta["scan_seed"]), "--balls", _path(work, "balls.json"),
              "--out", _path(work, "scan.json")],
             ["bplg", "--points", pts, "--n", "1", "--graph", graph, "--check", "cover",
              "--out", _path(work, "cover.json")],
             ["bplg", "--points", pts, "--n", "1", "--graph", graph, "--check", "thetaM",
              "--per-point", "--out", _path(work, "thetam.json")],
             ["bplg", "--points", pts, "--n", "1", "--graph", graph, "--check", "feps",
              "--eps", FEPS_EPS, "--out", _path(work, "feps.json")]]
    for k, idx in enumerate(meta["beta_centers"]):
        calls.append(["beta", "--points", pts, "--n", "1", "--center", f"idx:{idx}",
                      "--scales", f"dyadic:{BETA_SCALES}",
                      "--out", _path(work, f"beta{k}.csv"),
                      "--json-out", _path(work, f"beta{k}.json")])
    return calls


WORKLOADS = {
    "cantor-energy": Workload(
        "cantor-energy",
        "whole-cloud p=1 pointwise energy sweep on a dyadic Cantor grid with exact cone-boundary ties",
        _cantor_setup, _cantor_calls, ["energy_points.csv", "energy.json"]),
    "segment-corona": Workload(
        "segment-corona",
        "lattice build, windowed cube energies, tree growth and verification; no whole-cloud sweep, no SIO",
        _corona_setup, _corona_calls, ["corona_report.json", "corona_trees.json"]),
    "graph-sio": Workload(
        "graph-sio",
        "dense interaction stack and power iteration dominate time and memory; no cone energy",
        _sio_setup, _sio_calls, ["sio_norms.csv", "sio_report.json"]),
    "mixture-diagnostics": Workload(
        "mixture-diagnostics",
        "p=2 multi-direction scan capped at r(B), graph cover, shell counts, low-density set and beta profiles",
        _mixture_setup, _mixture_calls,
        ["scan.json", "cover.json", "thetam.json", "feps.json",
         "beta0.csv", "beta0.json", "beta1.csv", "beta1.json"]),
}
