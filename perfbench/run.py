"""Benchmark of the conical_gmt CLI pipelines.

    python3 perfbench/run.py --workload cantor-energy --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --all            # every workload, untraced then traced

Run from the root of a checkout.  Each workload is a closed loop of one
caller: a fresh child process (``child.py``) imports the program from
``src/``, writes its inputs with ``gen`` calls, then repeats the workload's
pass through ``conical_gmt.cli.run`` for ``--seconds``.  The BLAS thread cap
is set in the child's environment, before numpy loads.  The set-up is timed
``SETUP_REPEATS`` times per run (extra children that stop once their inputs
are written) and its median reported.

Every output is checked by ``checks.py`` against the benchmark's own
computation.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
"""

from __future__ import annotations

import os

# The cap must be in the environment before numpy loads, here and in every
# child: one thread gives steady timings on a small shared machine and makes
# the power iteration's results, and so the failure count, deterministic.
THREAD_CAP = "1"
THREAD_ENV = {"OPENBLAS_NUM_THREADS": THREAD_CAP, "OMP_NUM_THREADS": THREAD_CAP,
              "MKL_NUM_THREADS": THREAD_CAP, "CONICAL_GMT_THREADS": THREAD_CAP}
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import json  # noqa: E402
import select  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402

SETUP_REPEATS = 5
CHILD_GRACE_S = 100          # beyond --seconds, before a child is killed
REFERENCE = os.path.join(HERE, "reference", "graph_sio.json")
WORK_ROOT = os.path.join(HERE, "work")
RESULTS = os.path.join(HERE, "results")



def metric_units(root, kind):
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics that
    ``BENCHMARK.json`` at the root of the checkout declares."""
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


class BenchError(RuntimeError):
    pass


def _child_env(root):
    env = dict(os.environ)
    env.update(THREAD_ENV)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _spawn(args, work, mode, env, seconds):
    """Start a child and return it with the seconds from start to READY.

    READY is the only line a child writes to its standard output; everything
    else it prints goes to ``child.log`` in the work directory."""
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--work", work, "--mode", mode,
           "--seconds", repr(seconds), "--size", args.size]
    log = os.path.join(work, "child.log")
    start = time.perf_counter()
    with open(log, "a") as err:
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err, env=env, text=True)
    try:
        ready, _, _ = select.select([proc.stdout], [], [], CHILD_GRACE_S)
        line = proc.stdout.readline() if ready else ""
    except BaseException:
        _stop(proc)
        raise
    took = time.perf_counter() - start
    if line.strip() != "READY":
        _stop(proc)
        with open(log) as fh:
            raise BenchError(f"{mode} child gave no READY: {fh.read()[-2000:]}")
    return proc, took


def _stop(proc):
    if proc.poll() is None:
        proc.kill()
    proc.wait()


def _finish(proc, timeout, what, work):
    try:
        proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{what} child overran its time")
    finally:
        _stop(proc)
    if proc.returncode != 0:
        with open(os.path.join(work, "child.log")) as fh:
            raise BenchError(f"{what} child exited {proc.returncode}: {fh.read()[-2000:]}")


def _check_passes(args, work, child):
    import checks  # numpy loads in the parent only once the timed child has ended
    check = checks.CHECKS[args.workload]
    extra = ()
    if args.workload == "graph-sio":
        extra = (reference_for(args, work),)
    verdicts = {}
    problems = []
    first = child["digests"][0]
    for index, digest in enumerate(child["digests"]):
        if any(code != 0 for code in child["codes"][index]):
            raise BenchError(f"pass {index}: pipeline exit codes {child['codes'][index]}")
        key = 0 if digest == first else index
        if key not in verdicts:
            verdicts[key] = check(work, os.path.join(work, f"pass{key}"), *extra)
        problems.extend(p for p in verdicts[key].problems if p not in problems)
    # Every pass attempts the same operations, so a run reports one pass's
    # verdict; a pass whose outputs differ must still fail the same number.
    v = verdicts[0]
    if any((u.attempted, u.failed) != (v.attempted, v.failed) for u in verdicts.values()):
        raise BenchError("passes of one run disagree on their failed operations: "
                         + str(sorted((k, u.attempted, u.failed) for k, u in verdicts.items())))
    return v.attempted, v.failed, problems, v.counts


def reference_for(args, work):
    """The graph-sio reference: stored for the full size, computed for others."""
    import checks
    if args.size != "full":
        rows = checks.read_csv(os.path.join(work, "pass0", "sio_norms.csv"))
        return checks.sio_reference(os.path.join(work, "graph.csv"),
                                    [float(r["eps"]) for r in rows])
    if not os.path.exists(REFERENCE):
        raise BenchError("no stored graph-sio reference: run perfbench/reference.py")
    with open(REFERENCE) as fh:
        return json.load(fh)


def _per_layer(child, counts, units):
    traced = child["traced"]
    walls = child["walls"]
    untraced = [w for i, w in enumerate(walls) if i < traced[0]["pass"]]
    traced_walls = [walls[t["pass"]] for t in traced]
    layer_names = {name for t in traced for name in t["layers"]}
    metrics = {}
    for name in sorted(layer_names | set(child["setup_layers"])):
        if name == "cli.gen":
            metrics["cli.gen.s"] = child["setup_layers"][name][1]
            continue
        busy = [t["layers"].get(name, (0, 0.0))[1] for t in traced]
        metrics[f"{name}.s"] = statistics.median(busy)
        metrics[f"{name}.calls"] = traced[0]["layers"].get(name, (0, 0.0))[0]
    wrapper_counts = traced[0]["counts"]
    if any(t["counts"] != wrapper_counts for t in traced):
        raise BenchError("traced passes disagree on their counts")
    metrics.update({k: v for k, v in wrapper_counts.items() if k in units})
    metrics.update(counts)
    comps, atoms = wrapper_counts.get("sio.kernel_components"), wrapper_counts.get("sio.atoms")
    if comps and atoms and "sio.iterations" in counts:
        # per iteration: one product with each block and one with its transpose
        metrics["sio.matvec_flops"] = 4 * comps * atoms * atoms * counts["sio.iterations"]
    metrics["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(untraced)
    # The pass time no layer below cli.* accounts for: the cli.* self times
    # plus the loop's own time between the calls.
    metrics["trace.unattributed_s"] = statistics.median(
        walls[t["pass"]] - sum(busy for name, (_, busy) in t["layers"].items()
                               if not name.startswith("cli."))
        for t in traced)
    return {name: {"value": metrics.get(name, 0), "unit": unit}
            for name, unit in units.items()}


def execute(args, root, work):
    """Time the set-ups and run the passes; returns the child's record and
    the set-up samples.  The outputs stay in ``work``."""
    env = _child_env(root)
    setups = []
    if not args.trace:
        for _ in range(SETUP_REPEATS - 1):
            proc, t = _spawn(args, work, "setup", env, 0)
            _finish(proc, CHILD_GRACE_S, "setup", work)
            setups.append(t)
    mode = "trace" if args.trace else "measure"
    proc, t = _spawn(args, work, mode, env, args.seconds)
    setups.append(t)
    _finish(proc, args.seconds + CHILD_GRACE_S, mode, work)
    with open(os.path.join(work, "child.json")) as fh:
        return json.load(fh), setups


def run_once(args, root):
    """One run of one workload; returns the result object and its details."""
    if not os.path.isfile(os.path.join(root, "src", "conical_gmt", "cli.py")):
        raise BenchError(f"no program to benchmark: {root}/src/conical_gmt is missing")
    work = os.path.join(WORK_ROOT, f"{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    os.makedirs(RESULTS, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        child, setups = execute(args, root, work)
        attempted, failed, problems, counts = _check_passes(args, work, child)
        if args.trace:
            metrics = _per_layer(child, counts, metric_units(root, "per_layer"))
            shutil.copy(os.path.join(work, "spans.json"),
                        os.path.join(RESULTS, f"{tag}.spans.json"))
        else:
            metrics = {"wall_s": statistics.median(child["walls"]),
                       "setup_s": statistics.median(setups),
                       "peak_rss_mb": child["peak_rss_mb"]}
            units = metric_units(root, "end_to_end")
            metrics = {k: {"value": metrics[k], "unit": u} for k, u in units.items()}
        result = {"correct": True, "attempted": attempted, "failed": failed,
                  "metrics": metrics}
        detail = dict(result, workload=args.workload, seed=args.seed,
                      seconds=args.seconds, size=args.size, thread_cap=THREAD_CAP,
                      pass_walls=child["walls"], setup_samples=setups,
                      missing_spans=child.get("missing", []), failures=problems)
        with open(os.path.join(RESULTS, f"{tag}.json"), "w") as fh:
            json.dump(detail, fh, indent=1)
        return result, detail
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _print_detail(detail):
    print(f"# {detail['workload']} seed {detail['seed']}: {len(detail['pass_walls'])} passes, "
          f"{detail['attempted']} operations attempted, {detail['failed']} failed")
    for line in detail["failures"][:5]:
        print(f"#   failed: {line}")
    for name in detail["missing_spans"]:
        print(f"#   span missing: {name}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--all", action="store_true", help="run every workload, untraced and traced")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    args.size = "full"
    # On SIGTERM unwind normally, so the running child is stopped and awaited.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not args.all and not args.workload:
        ap.error("give --workload or --all")
    root = os.getcwd()
    try:
        if not args.all:
            result, detail = run_once(args, root)
            _print_detail(detail)
            print(json.dumps(result))
            return 0
        for name in sorted(WORKLOADS):
            args.workload = name
            for trace in (0, 1):
                args.trace = trace
                result, detail = run_once(args, root)
                _print_detail(detail)
                for metric, m in result["metrics"].items():
                    print(f"{name:20s} {metric:40s} {m['value']:>16.6g} {m['unit']}")
        return 0
    except Exception as exc:  # report any failure as a non-zero exit, no result line
        print(f"benchmark failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
