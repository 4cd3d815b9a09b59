"""Command-line entry point.

Subcommands: gen, energy, scan-bpbe, corona, sio-norm, beta, bplg, report.
Every run writes a machine-readable JSON report embedding the resolved
parameter set and the SHA-256 of the points file it consumed, so downstream
`report` merges can refuse mismatched inputs.  Exit codes: 0 success,
2 invalid input or configuration, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import json
import math
import os
import sys

import numpy as np

from . import corona as corona_mod
from . import diagnostics, energy, generators, sio
from .errors import EmptyBall, InputError, NumericalError, SchemaMismatch
from .geometry import format_plane, parse_plane
from .graphs import LipschitzGraph
from .lattice import build_lattice, natural_depth
from .measure import DiscreteMeasure, load_csv, save_csv


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_json(obj: dict, path: str | None) -> None:
    if path:
        with open(path, "w") as fh:
            json.dump(obj, fh, indent=2, default=_jsonable)
            fh.write("\n")


def _jsonable(o):
    if isinstance(o, (np.floating, np.integer)):
        return o.item()
    if isinstance(o, np.ndarray):
        return o.tolist()
    raise TypeError(f"not JSON serializable: {type(o)}")


def _read_json(path: str, what: str, kind: type):
    """The JSON object (``kind`` dict) or list in the file ``path``; any other
    file is an ``InputError`` naming ``what``."""
    with open(path) as fh:
        try:
            data = json.load(fh)
        except ValueError as exc:       # not JSON, or bytes that are not text
            raise InputError(f"{path}: {what} is not JSON ({exc})") from exc
    if not isinstance(data, kind):
        raise InputError(f"{path}: {what} is not a JSON {'object' if kind is dict else 'list'}")
    return data


def _config_number(cfg: dict, path: str, key: str, default=None, kind=float):
    """``kind(cfg[key])`` for a finite JSON number, ``default`` when the key
    is absent or null; any other value is an ``InputError`` naming ``path``."""
    if cfg.get(key) is None:
        return default
    if not _finite(cfg[key]):
        raise InputError(f"{path}: {key} must be a finite number, not {cfg[key]!r}")
    return kind(cfg[key])


def _load_points(path: str, n: int | None):
    if not os.path.exists(path):
        raise InputError(f"points file not found: {path}")
    return load_csv(path, dim_param=n)


def _report_base(kind: str, args: argparse.Namespace, points_path: str | None) -> dict:
    params = {k: v for k, v in vars(args).items() if k != "func"}
    base = {"kind": kind, "params": params}
    if points_path:
        base["points_file"] = points_path
        base["points_sha256"] = _sha256(points_path)
    return base


def _number(text: str, what: str, kind: type = float):
    """``kind(text)``; text that is not one is an ``InputError`` naming
    ``what``."""
    try:
        return kind(text)
    except ValueError as exc:
        noun = "an integer" if kind is int else "a number"
        raise InputError(f"{what}: {text!r} is not {noun}") from exc


def _numbers(text: str, what: str) -> list[float]:
    """The comma-separated numbers of ``text``, each read by ``_number``."""
    return [_number(v, what) for v in text.split(",")]


def _parse_scales(text: str, m: DiscreteMeasure) -> list[float]:
    if text.startswith("dyadic:"):
        k = _number(text.split(":", 1)[1], "the dyadic scale count", int)
        if k < 1:
            raise InputError("dyadic scale count must be >= 1")
        top = m.diameter() or 1.0
        return [top / 2 ** j for j in range(k)]
    vals = _numbers(text, "--scales")
    if any(v <= 0 for v in vals) or any(b >= a for a, b in zip(vals, vals[1:])):
        raise InputError("scales must be positive and strictly decreasing")
    return vals


# ---------------------------------------------------------------- subcommands

def _cmd_gen(args) -> int:
    params = {name: getattr(args, name)
              for name in ("count", "generation", "lipschitz", "profile",
                           "frequency", "jitter", "radius")
              if getattr(args, name) is not None}
    if args.ratios:
        params["ratios"] = _numbers(args.ratios, "--ratios")
    if args.mixture_config:
        cfg = _read_json(args.mixture_config, "mixture config", dict)
        if "components" not in cfg:
            raise InputError(f"{args.mixture_config}: mixture config has no \"components\"")
        params["components"] = cfg["components"]
    stochastic = bool(args.jitter)
    if stochastic and args.seed is None:
        raise InputError("this generator draws random numbers: --seed is required")
    spec = generators.GeneratorSpec(args.type, params, args.seed)
    m, meta = generators.generate(spec)
    save_csv(m, args.out)
    meta["rows"] = m.size
    meta["out"] = args.out
    if args.meta:
        _write_json(meta, args.meta)
    print(f"wrote {m.size} atoms to {args.out}")
    return 0


def _cmd_energy(args) -> int:
    m = _load_points(args.points, args.n)
    plane = parse_plane(args.plane)
    spec = energy.EnergySpec(plane, args.alpha, args.p, _number(args.R, "--R"))
    # an overflow shows in the total, which is checked
    with np.errstate(over="ignore", invalid="ignore"):
        energies, counts = energy.pointwise_energies(m, spec)
    total = energy.weighted_sum(m.weights, energies)
    if not math.isfinite(total):
        raise NumericalError(f"total energy is {total} at p = {args.p:g}: "
                             "an energy overflowed")
    if args.per_point:
        with open(args.per_point, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["index", "energy", "in_cone_count"])
            w.writerows(zip(range(m.size), energies.tolist(), counts.tolist()))
    rep = _report_base("energy", args, args.points)
    rep.update(total_energy=total,
               mean_energy=float(np.mean(energies)),
               max_energy=float(np.max(energies)),
               plane=format_plane(plane))
    _write_json(rep, args.out)
    print(f"total energy {total:.9g} over {m.size} atoms")
    return 0


def _parse_balls(kind: str, m: DiscreteMeasure, c0: float, a0: float, depth: int):
    if kind == "all":
        return [(m.points[0], max(m.diameter(), 1e-12) * 1.001)], "single covering ball"
    if kind == "lattice":
        lat = build_lattice(m, c0, a0, depth)
        balls = [(q.center, q.double_ball_radius) for q in lat.cubes if q.doubling]
        return balls, f"2B balls of doubling lattice cubes (depth {depth})"
    if os.path.exists(kind):
        data = _read_json(kind, "ball family", list)
        d = m.ambient_dim
        for i, b in enumerate(data):
            if not (isinstance(b, list) and len(b) == 2 and isinstance(b[0], list)
                    and len(b[0]) == d and all(map(_finite, b[0]))
                    and _finite(b[1]) and b[1] > 0):
                raise InputError(f"{kind}: ball {i} is not [centre of {d} finite "
                                 f"numbers, finite radius > 0]")
        return [(np.asarray(b[0], float), float(b[1])) for b in data], f"file {kind}"
    raise InputError(f"unknown ball family {kind!r}")


def _finite(v) -> bool:
    """True for a JSON number that is a finite float."""
    try:
        return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)
    except OverflowError:       # an integer beyond the float range
        return False


def _cmd_scan_bpbe(args) -> int:
    m = _load_points(args.points, args.n)
    balls, provenance = _parse_balls(args.balls, m, 2.0, 8.0, args.lattice_depth)
    pinned = [parse_plane(t) for t in args.pin_plane or []]
    rep = _report_base("scan-bpbe", args, args.points)
    scan = energy.bpbe_scan(m, balls, args.alpha, args.p, args.M0, args.kappa,
                            args.direction_samples, args.seed, pinned)
    scan["ball_family"] = provenance
    rep.update(scan)
    _write_json(rep, args.out)
    status = "pass" if scan["all_pass"] else "fail"
    print(f"bpbe scan: {status} on {len(balls)} balls "
          f"({scan['direction_count']} directions)")
    return 0


def _cmd_corona(args) -> int:
    cfg = _read_json(args.config, "corona config", dict)
    if not (isinstance(cfg.get("plane"), str) and cfg.get("alpha") is not None):
        raise InputError(f"{args.config}: corona config needs a \"plane\" string and \"alpha\"")
    num = functools.partial(_config_number, cfg, args.config)
    m = _load_points(args.points, num("n", kind=int))
    plane = parse_plane(cfg["plane"])
    params = corona_mod.CoronaParams(
        plane=plane, aperture=num("alpha"), exponent=num("p", 1.0),
        density_high=num("A", 10.0), density_low=num("tau", 0.01),
        energy_stop=num("epsilon", 0.1), eta=num("eta", 0.1),
        key_const=num("M"), sep_const=num("t"), prox_const=num("Lambda"))
    a0 = num("A0", 8.0)
    depth = num("max_depth", kind=int)
    lat = build_lattice(m, num("C0", 2.0), a0,
                        natural_depth(m, a0) if depth is None else depth)
    result = corona_mod.build_top(lat, params, c1_seed=num("seed", 0, int))
    verification = corona_mod.verify_corona(result)
    rep = _report_base("corona", args, args.points)
    rep.update(corona_params=params.describe(),
               lattice={"C0": lat.c0, "A0": lat.a0, "depth": lat.depth,
                        "cubes": len(lat.cubes),
                        "containment": lat.containment_report()},
               ledger=result.ledger, verification=verification)
    _write_json(rep, args.out)
    if args.dump_trees:
        dump = {"cubes": lat.to_records(include_members=args.dump_members),
                "trees": [{
                    "root": t.root_id, "tree": t.tree_ids,
                    "stop": {"bce": t.stop_bce, "hd": t.stop_hd, "ld": t.stop_ld},
                    "sep": t.sep_ids, "sep_star": t.sep_star_ids,
                    "good_count": int(len(t.good_indices)),
                } for t in result.trees]}
        _write_json(dump, args.dump_trees)
    ok = verification["passed"]
    print(f"corona: {result.ledger['top_count']} top cubes, "
          f"packing ratio {result.ledger['ratio']:.4g}, "
          f"verification {'pass' if ok else 'FAIL'}")
    return 0 if ok else 3


def _cmd_sio_norm(args) -> int:
    m = _load_points(args.points, args.n)
    kernels = sio.builtin_kernels(m.dim_param, m.ambient_dim)
    if args.kernel not in kernels:
        raise InputError(f"kernel {args.kernel!r} unavailable for n={m.dim_param}, "
                         f"d={m.ambient_dim}")
    kernel = kernels[args.kernel]
    if args.eps_grid == "auto":
        grid = sio.TruncationGrid.log_spaced(m, args.grid_size)
    else:
        vals = sorted(_numbers(args.eps_grid, "--eps-grid"))
        grid = sio.TruncationGrid(np.asarray(vals))
    profile = sio.operator_norm_profile(m, kernel, grid, args.tol, args.max_iter)
    with open(args.out, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["eps", "norm", "iterations", "flag", "residual"])
        for r in profile:
            w.writerow([format(r.eps, ".17g"), format(r.norm, ".17g"),
                        r.iterations, "stalled" if r.stalled else "ok",
                        format(r.residual, ".3e")])
    stalls = sum(1 for r in profile if r.stalled)
    sup = max(r.norm for r in profile)
    rep = _report_base("sio-norm", args, args.points)
    rep.update(kernel=args.kernel, sup_norm=sup, grid_size=len(grid.eps),
               stalled=stalls, max_residual=max(r.residual for r in profile),
               matvecs=sum(r.iterations for r in profile))
    _write_json(rep, args.json_out)
    print(f"sup norm {sup:.9g} over {len(grid.eps)} truncations"
          + (f" ({stalls} stalled)" if stalls else ""))
    return 3 if stalls else 0


def _cmd_beta(args) -> int:
    m = _load_points(args.points, args.n)
    if "," in args.center:
        center = np.asarray(_numbers(args.center, "--center"))
    else:
        idx = _number(args.center.removeprefix("idx:"), "the --center index", int)
        if not 0 <= idx < m.size:
            raise InputError(f"center index {idx} out of range")
        center = m.points[idx]
    scales = _parse_scales(args.scales, m)
    rows = []
    for r in scales:
        try:
            b = diagnostics.beta2(m, center, r)
            rows.append((r, b.beta, b.degenerate, b.ball_mass))
        except EmptyBall:
            rows.append((r, 0.0, False, 0.0))
    square = (diagnostics.beta_square_sum(scales, [row[1] for row in rows])
              if len(scales) > 1 else None)
    with open(args.out, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["r", "beta", "degenerate", "ball_mass"])
        for r, b, dg, bm in rows:
            w.writerow([format(r, ".17g"), format(b, ".17g"), int(dg),
                        format(bm, ".17g")])
    rep = _report_base("beta", args, args.points)
    rep.update(center=center.tolist(),
               square_function=square,
               scales=[float(s) for s in scales])
    _write_json(rep, args.json_out)
    print(f"beta profile over {len(scales)} scales"
          + (f", square function {square:.6g}" if square is not None else ""))
    return 0


def _cmd_bplg(args) -> int:
    m = _load_points(args.points, args.n)
    graph = LipschitzGraph.from_json(_read_json(args.graph, "graph", dict))
    rep = _report_base("bplg", args, args.points)
    if args.check == "cover":
        result = diagnostics.necessary_bplg_cover(m, graph, args.alpha)
        ok = result["disjoint"] and result["all_covered"] and not result["cone_violations"]
        rep.update(result)
        _write_json(rep, args.out)
        print(f"cover: {result['chosen_balls']} balls, "
              f"ratio {result['ratio']:.4g}, {'ok' if ok else 'VIOLATIONS'}")
        return 0 if ok else 3
    if args.check == "thetaM":
        theta = args.theta
        if theta is None:
            theta = 0.5 / (1.0 + graph.lip_measured ** 2) ** 0.5
        counts = diagnostics.theta_m_property(m.points, graph.normal, theta)
        max_count = int(counts.max(initial=0))
        rep.update(theta=theta, max_count=max_count,
                   counts=counts.tolist() if args.per_point else None)
        _write_json(rep, args.out)
        print(f"(theta, M) shell count: max {max_count} at theta {theta:.4g}")
        return 0
    if args.check == "feps":
        if args.eps is None:
            raise InputError("--eps is required for the feps check")
        idx = diagnostics.f_epsilon_set(m, args.eps)
        rep.update(eps=args.eps, count=int(len(idx)), indices=idx.tolist())
        _write_json(rep, args.out)
        print(f"low-density set: {len(idx)} of {m.size} atoms at eps {args.eps}")
        return 0
    raise InputError(f"unknown check {args.check!r}")


def _cmd_report(args) -> int:
    runs = []
    for path in args.inputs:
        if not os.path.exists(path):
            raise InputError(f"input report not found: {path}")
        runs.append(_read_json(path, "input report", dict))
    hashes = {r.get("points_sha256") for r in runs if "points_sha256" in r}
    if len(hashes) > 1:
        raise SchemaMismatch(f"inputs reference different point clouds: {sorted(hashes)}")
    merged = {"kind": "report", "points_sha256": next(iter(hashes)) if hashes else None,
              "runs": runs}
    _write_json(merged, args.out)
    if args.csv_dir:
        os.makedirs(args.csv_dir, exist_ok=True)
        for i, run in enumerate(runs):
            if run.get("kind") == "corona" and "ledger" in run:
                path = os.path.join(args.csv_dir, f"run{i}_corona_trees.csv")
                with open(path, "w", newline="") as fh:
                    w = csv.writer(fh)
                    w.writerow(["root", "level", "root_theta", "root_mass",
                                "tree_size", "good_count", "ld_mass_fraction"])
                    for t in run["ledger"]["trees"]:
                        w.writerow([t["root"], t["level"], t["root_theta"],
                                    t["root_mass"], t["tree_size"],
                                    t["good_count"], t["ld_mass_fraction"]])
            if run.get("kind") == "beta":
                path = os.path.join(args.csv_dir, f"run{i}_beta_scales.csv")
                with open(path, "w", newline="") as fh:
                    w = csv.writer(fh)
                    w.writerow(["scale"])
                    for s in run.get("scales") or []:
                        w.writerow([s])
    print(f"merged {len(runs)} run(s)")
    return 0


# -------------------------------------------------------------------- parser

@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of the process: parsing leaves it unchanged, and an
    ``append`` option starts each parse from a fresh list."""
    parser = argparse.ArgumentParser(
        prog="conical-gmt",
        description="cone-energy and rectifiability diagnostics on point clouds")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a synthetic point cloud")
    g.add_argument("--type", required=True, choices=generators.KINDS)
    g.add_argument("--out", required=True)
    g.add_argument("--meta")
    g.add_argument("--count", type=int)
    g.add_argument("--generation", type=int)
    g.add_argument("--lipschitz", type=float)
    g.add_argument("--profile")
    g.add_argument("--frequency", type=int)
    g.add_argument("--jitter", type=float, default=0.0)
    g.add_argument("--radius", type=float)
    g.add_argument("--ratios")
    g.add_argument("--mixture-config")
    g.add_argument("--seed", type=int)
    g.set_defaults(func=_cmd_gen)

    e = sub.add_parser("energy", help="pointwise and total cone energies")
    e.add_argument("--points", required=True)
    e.add_argument("--n", type=int, required=True)
    e.add_argument("--p", type=float, required=True)
    e.add_argument("--alpha", type=float, required=True)
    e.add_argument("--plane", required=True)
    e.add_argument("--R", required=True)
    e.add_argument("--per-point")
    e.add_argument("--out")
    e.set_defaults(func=_cmd_energy)

    s = sub.add_parser("scan-bpbe", help="per-ball best-direction energy scan")
    s.add_argument("--points", required=True)
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--p", type=float, default=1.0)
    s.add_argument("--alpha", type=float, required=True)
    s.add_argument("--M0", type=float, required=True)
    s.add_argument("--kappa", type=float, required=True)
    s.add_argument("--direction-samples", type=int, default=16)
    s.add_argument("--seed", type=int, required=True)
    s.add_argument("--balls", default="lattice",
                   help="'lattice', 'all', or a JSON file of [center, radius]")
    s.add_argument("--lattice-depth", type=int, default=4)
    s.add_argument("--pin-plane", action="append")
    s.add_argument("--out")
    s.set_defaults(func=_cmd_scan_bpbe)

    c = sub.add_parser("corona", help="stopping-time decomposition and ledger")
    c.add_argument("--points", required=True)
    c.add_argument("--config", required=True)
    c.add_argument("--out")
    c.add_argument("--dump-trees")
    c.add_argument("--dump-members", action="store_true",
                   help="include full member lists in the tree dump (large)")
    c.set_defaults(func=_cmd_corona)

    o = sub.add_parser("sio-norm", help="truncated operator norms on L^2(mu)")
    o.add_argument("--points", required=True)
    o.add_argument("--kernel", required=True, choices=["cauchy", "riesz"])
    o.add_argument("--n", type=int, required=True)
    o.add_argument("--eps-grid", default="auto")
    o.add_argument("--grid-size", type=int, default=64)
    o.add_argument("--tol", type=float, default=1e-6,
                   help="relative Ritz residual that certifies a norm")
    o.add_argument("--max-iter", type=int, default=500,
                   help="cap on applications of B^T B per truncation")
    o.add_argument("--out", required=True)
    o.add_argument("--json-out")
    o.set_defaults(func=_cmd_sio_norm)

    b = sub.add_parser("beta", help="beta-number profile at a center")
    b.add_argument("--points", required=True)
    b.add_argument("--n", type=int, required=True)
    b.add_argument("--center", required=True,
                   help="'idx:K' or comma-separated coordinates")
    b.add_argument("--scales", required=True, help="'dyadic:K' or a comma list")
    b.add_argument("--out", required=True)
    b.add_argument("--json-out")
    b.set_defaults(func=_cmd_beta)

    p = sub.add_parser("bplg", help="graph-cover / shell-count / low-density checks")
    p.add_argument("--points", required=True)
    p.add_argument("--n", type=int)
    p.add_argument("--graph", required=True)
    p.add_argument("--check", required=True, choices=["cover", "thetaM", "feps"])
    p.add_argument("--alpha", type=float)
    p.add_argument("--theta", type=float)
    p.add_argument("--eps", type=float)
    p.add_argument("--per-point", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_bplg)

    r = sub.add_parser("report", help="merge run reports sharing one point cloud")
    r.add_argument("--inputs", nargs="*", default=[])
    r.add_argument("--out", required=True)
    r.add_argument("--csv-dir")
    r.set_defaults(func=_cmd_report)
    return parser


def run(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except FileNotFoundError as exc:
        print(f"error: missing file {exc.filename}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
