"""Recompute and store the graph-sio reference norms.

    python3 perfbench/reference.py

Run from the root of a checkout.  Writes the workload's input with the
program's own `gen` call (as a run's set-up does), then computes, with the
benchmark's own dense truncated Cauchy matrix, the top singular value by
dense SVD for each truncation of the log-spaced grid between the smallest
interpoint distance and the diameter.  The result, keyed by the input's
SHA-256, goes to ``perfbench/reference/graph_sio.json``; the graph-sio check
refuses it for any other input.  Takes about ten seconds.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys

import run  # sets the thread cap before numpy loads  # noqa: I001
import checks
from workloads import SIO_GRID
import numpy as np


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", default=run.REFERENCE)
    args = ap.parse_args()
    work = os.path.join(run.WORK_ROOT, f"reference-{os.getpid()}")
    os.makedirs(work)
    try:
        subprocess.run([sys.executable, os.path.join(run.HERE, "child.py"),
                        "--workload", "graph-sio", "--seed", "0", "--work", work,
                        "--mode", "setup"], check=True, env=run._child_env(os.getcwd()),
                       stdout=subprocess.DEVNULL)
        points = os.path.join(work, "graph.csv")
        pts, _ = checks.load_points(points)
        dist = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2))
        lo, hi = dist[dist > 0].min(), dist.max()
        ref = checks.sio_reference(points, np.geomspace(lo, hi, SIO_GRID))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    ref["method"] = ("top singular value of vstack(D^1/2 K_c D^1/2 [|y-x| > eps]) for the "
                     "Cauchy kernel, numpy.linalg.svd, eps log-spaced from the smallest "
                     "interpoint distance to the diameter")
    with open(args.out, "w") as fh:
        json.dump(ref, fh, indent=1)
        fh.write("\n")
    print(f"wrote {args.out}: {len(ref['sigma'])} truncations of {ref['atoms']} atoms")


if __name__ == "__main__":
    main()
