"""Self-test of the benchmark's checks.

    python3 perfbench/selftest.py

Run from the root of a checkout.  Each workload runs one pass at its small
size (a few seconds); its outputs must pass their check, and each
deliberately perturbed copy of them must be rejected: the perturbed check
has to count more failed operations than the unperturbed one.  Exits 1 if
any perturbation is accepted.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import shutil
import sys

import run  # sets the thread cap before numpy loads  # noqa: I001
import checks
from workloads import WORKLOADS


def _rewrite_csv(path, edit):
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    fields = list(rows[0])
    edit(rows)
    with open(path, "w", newline="") as fh:
        w = csv.DictWriter(fh, fieldnames=fields)
        w.writeheader()
        w.writerows(rows)


def _rewrite_json(path, edit):
    with open(path) as fh:
        data = json.load(fh)
    edit(data)
    with open(path, "w") as fh:
        json.dump(data, fh)


def scale_one_energy(work, out):
    def edit(rows):
        row = next(r for r in rows if float(r["energy"]) > 0)
        row["energy"] = repr(float(row["energy"]) * (1 + 1e-6))
    _rewrite_csv(os.path.join(out, "energy_points.csv"), edit)


def count_tie_inside(work, out):
    pts, w = checks.load_points(os.path.join(work, "cantor.csv"))
    _, _, ties = checks.cantor_reference(pts, w)
    if not ties:
        raise AssertionError("no cone-boundary tie within R on this input")
    i, j = ties[0]
    d = float(((pts[i] - pts[j]) ** 2).sum() ** 0.5)

    def edit(rows):
        rows[i]["in_cone_count"] = str(int(rows[i]["in_cone_count"]) + 1)
        rows[i]["energy"] = repr(float(rows[i]["energy"]) + float(w[j]) * (1.0 / d - 1.0))
    _rewrite_csv(os.path.join(out, "energy_points.csv"), edit)


def drop_one_member(work, out):
    def edit(dump):
        leaf = max(dump["cubes"], key=lambda c: (c["level"], len(c["members"])))
        leaf["members"] = leaf["members"][1:]
    _rewrite_json(os.path.join(out, "corona_trees.json"), edit)


def lower_good_norm(reference):
    def perturb(work, out):
        def edit(rows):
            for row, sigma in zip(rows, reference["sigma"]):
                if sigma > 0 and abs(float(row["norm"]) - sigma) <= checks.NORM_RTOL * sigma:
                    row["norm"] = repr(float(row["norm"]) * 0.99)
                    return
            raise AssertionError("no norm within tolerance to perturb")
        _rewrite_csv(os.path.join(out, "sio_norms.csv"), edit)
    return perturb


def drop_feps_atom(work, out):
    def edit(rep):
        rep["indices"] = rep["indices"][1:]
        rep["count"] -= 1
    _rewrite_json(os.path.join(out, "feps.json"), edit)


PERTURBATIONS = {
    "cantor-energy": [("one energy scaled by 1 + 1e-6", scale_one_energy),
                      ("one tie pair counted as inside the cone", count_tie_inside)],
    "segment-corona": [("one atom dropped from a deepest cube", drop_one_member)],
    "graph-sio": [],  # filled in once the reference is known
    "mixture-diagnostics": [("one atom dropped from the feps set", drop_feps_atom)],
}


def main():
    root = os.getcwd()
    problems = []
    for name in sorted(WORKLOADS):
        ns = argparse.Namespace(workload=name, seed=1, seconds=0.0, trace=0,
                                size="small")
        work = os.path.join(run.WORK_ROOT, f"selftest-{name}-{os.getpid()}")
        shutil.rmtree(work, ignore_errors=True)
        os.makedirs(work)
        try:
            run.execute(ns, root, work)
            out = os.path.join(work, "pass0")
            extra = ()
            perturbations = PERTURBATIONS[name]
            if name == "graph-sio":
                reference = run.reference_for(ns, work)
                extra = (reference,)
                perturbations = [("one norm lowered by 1%", lower_good_norm(reference))]
            base = checks.CHECKS[name](work, out, *extra)
            print(f"{name}: unperturbed {base.attempted} operations, {base.failed} failed")
            if base.failed and name != "graph-sio":
                problems.append(f"{name}: unperturbed output failed: {base.problems[0]}")
            for label, perturb in perturbations:
                bad = os.path.join(work, "perturbed")
                shutil.rmtree(bad, ignore_errors=True)
                shutil.copytree(out, bad)
                perturb(work, bad)
                v = checks.CHECKS[name](work, bad, *extra)
                rejected = v.failed > base.failed
                print(f"  {label}: {'rejected' if rejected else 'ACCEPTED'}"
                      + (f" ({v.problems[-1]})" if rejected and v.problems else ""))
                if not rejected:
                    problems.append(f"{name}: {label} was accepted")
        finally:
            shutil.rmtree(work, ignore_errors=True)
    print("self-test " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
