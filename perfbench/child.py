"""One closed-loop caller: sets up a workload's inputs, then repeats its pass.

Run by ``run.py`` with the BLAS thread cap already in the environment, so it
is in force before numpy loads.  Prints ``READY`` on standard output once the
inputs are written; pipeline output goes to ``child.log`` in the work
directory.  Results go to ``child.json`` there:

- ``walls``: seconds from the first pipeline call of a pass to the return of
  its last call (its outputs are then written and closed);
- ``digests``: SHA-256 of every output file after each pass; the first pass's
  files, and those of any pass that differs from it, are copied to
  ``pass<k>/`` for the checks;
- ``peak_rss_mb``: the peak resident size of the process's own address space
  (``VmHWM``) once the passes end.  ``ru_maxrss`` is not used: Linux carries
  the peak of the address space replaced at exec into it, which is the
  parent's size when the parent is the larger.

Modes: ``setup`` stops after READY; ``measure`` runs passes untraced;
``trace`` runs half its time untraced and half traced.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import SIZES, WORKLOADS  # noqa: E402


def _digest(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _peak_rss_mb():
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def _run_pass(calls, cli, tracer):
    codes = []
    start = time.perf_counter()
    for argv in calls:
        if tracer is None:
            codes.append(cli.run(argv))
        else:
            codes.append(tracer.call(f"cli.{argv[0]}", cli.run, argv))
    return time.perf_counter() - start, codes


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--work", required=True)
    ap.add_argument("--mode", choices=["setup", "measure", "trace"], required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--size", choices=sorted(SIZES), default="full")
    args = ap.parse_args()

    signal = sys.stdout
    with open(os.path.join(args.work, "child.log"), "a") as log:
        sys.stdout = log
        _serve(args, signal)


def _serve(args, signal):
    """Write the inputs, signal READY, run the passes, write child.json."""
    from conical_gmt import cli
    import tracing

    workload = WORKLOADS[args.workload]
    size = SIZES[args.size]
    tracer = tracing.Tracer() if args.mode == "trace" else None
    if tracer is not None:
        tracer.install()
        workload.setup(lambda argv: tracer.call(f"cli.{argv[0]}", cli.run, argv),
                       args.work, args.seed, size)
        tracer.uninstall()
    else:
        workload.setup(cli.run, args.work, args.seed, size)
    print("READY", file=signal, flush=True)
    if args.mode == "setup":
        return

    result = {"walls": [], "digests": [], "codes": []}
    phases = [(None, args.seconds)]
    if tracer is not None:
        setup_spans, _ = tracer.take()
        result["setup_layers"] = tracing.self_times(setup_spans)
        result["traced"] = []
        result["missing"] = tracer.missing
        phases = [(None, args.seconds / 2), (tracer, args.seconds / 2)]
    calls = workload.calls(args.work)
    first = None
    for tr, budget in phases:
        if tr is not None:
            tr.install()
        deadline = time.perf_counter() + budget
        while True:
            wall, codes = _run_pass(calls, cli, tr)
            index = len(result["walls"])
            result["walls"].append(wall)
            result["codes"].append(codes)
            if tr is not None:
                spans, counts = tr.take()
                if not result["traced"]:
                    with open(os.path.join(args.work, "spans.json"), "w") as fh:
                        json.dump(spans, fh)
                result["traced"].append({"pass": index, "layers": tracing.self_times(spans),
                                         "counts": dict(counts)})
            digest = {f: _digest(os.path.join(args.work, f)) for f in workload.outputs}
            result["digests"].append(digest)
            if digest != first:
                keep = os.path.join(args.work, f"pass{index}")
                os.makedirs(keep, exist_ok=True)
                for f in workload.outputs:
                    shutil.copy(os.path.join(args.work, f), keep)
                first = first or digest
            # Start another whole pass only if it is expected to end in time.
            if time.perf_counter() + wall > deadline:
                break
        if tr is not None:
            tr.uninstall()
    result["peak_rss_mb"] = _peak_rss_mb()
    with open(os.path.join(args.work, "child.json"), "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
