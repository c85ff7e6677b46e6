#!/usr/bin/env python3
"""Run perfbench in two checkouts as alternating pairs and compare them.

Usage, with PARENT and CHANGE two full checkouts of the repository:

    python3 tools/pairs.py PARENT CHANGE --workload obj --seeds 1-10 [--seconds 20]

Pair k runs `python3 perfbench/run.py --workload W --seed S --seconds T
--trace X` in both checkouts, seed S being the k-th of --seeds; the
parent goes first in pairs 1, 3, 5, ... and the change in the others,
so drift on a shared host falls on both sides alike.  Every pair is printed as it
finishes.  Then, for each metric that BENCHMARK.json lists and the runs
report (the end-to-end ones under --trace 0, the per-layer ones under
--trace 1):

  - each side's median and quartiles;
  - the change in the median, relative to the parent's;
  - the pairs the change won, in the metric's better direction (ties
    count for neither side);
  - whether a gain is shown: at least ten pairs, nine tenths of them
    won, and a gap between the medians wider than the parent's
    interquartile range;
  - for an end-to-end metric, whether the change's median is within
    the bound BENCHMARK.json fixes for it.

Exits 1, after printing the offending run, as soon as a run is not
`correct` or has `failed` > 0; exits 2 on bad arguments or a harness
failure.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, sep, hi = part.partition("-")
        if sep:
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(lo))
    if not seeds:
        raise argparse.ArgumentTypeError("no seeds in %r" % text)
    return seeds


def run_side(root, workload, seed, seconds, trace):
    cmd = [
        sys.executable, os.path.join("perfbench", "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print("pairs: %s: perfbench exited with status %d" % (root, proc.returncode),
              file=sys.stderr)
        sys.exit(2)
    result = json.loads(lines[-1])
    if result["correct"] is not True or result["failed"] != 0:
        print("%s seed %d: %s" % (root, seed, lines[-1]))
        print("pairs: a run was not correct or had failed operations", file=sys.stderr)
        sys.exit(1)
    return {name: m["value"] for name, m in result["metrics"].items()}


def quartiles(xs):
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return med, q1, q3


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", required=True, type=parse_seeds, help="e.g. 1-10 or 11,12")
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = ap.parse_args()
    for root in (args.parent, args.change):
        if not os.path.exists(os.path.join(root, "perfbench", "run.py")):
            ap.error("%s is not a checkout with perfbench/run.py" % root)

    with open(os.path.join(args.parent, "BENCHMARK.json")) as f:
        bench = json.load(f)
    defs = [dict(m, end_to_end=True) for m in bench["end_to_end"]]
    defs += [dict(m, end_to_end=False) for m in bench["per_layer"]]

    sides = {"parent": args.parent, "change": args.change}
    runs = {"parent": [], "change": []}
    for k, seed in enumerate(args.seeds):
        order = ["parent", "change"] if k % 2 == 0 else ["change", "parent"]
        got = {}
        for side in order:
            got[side] = run_side(sides[side], args.workload, seed, args.seconds, args.trace)
            runs[side].append(got[side])
        shown = "  ".join(
            "%s %s/%s" % (m["name"], fmt(got["parent"].get(m["name"])),
                          fmt(got["change"].get(m["name"])))
            for m in defs if m["name"] in got["parent"])
        print("pair %d seed %d (%s first): %s" % (k + 1, seed, order[0], shown), flush=True)

    print()
    print("%s, %d pairs of %d s, --trace %d (parent -> change; median [q1, q3])"
          % (args.workload, len(args.seeds), args.seconds, args.trace))
    for m in defs:
        name = m["name"]
        if not all(name in r for side in runs for r in runs[side]):
            continue
        p = [r[name] for r in runs["parent"]]
        c = [r[name] for r in runs["change"]]
        lower = m["better"] == "lower"
        won = sum(1 for a, b in zip(p, c) if (b < a if lower else b > a))
        pm, pq1, pq3 = quartiles(p)
        cm, cq1, cq3 = quartiles(c)
        gap, iqr = abs(cm - pm), pq3 - pq1
        better = cm < pm if lower else cm > pm
        gain = len(p) >= 10 and better and gap > iqr and 10 * won >= 9 * len(p)
        rel = (cm - pm) / pm if pm else 0.0
        line = ("%s %s: %s [%s, %s] -> %s [%s, %s], %+.1f%%, won %d/%d, "
                "median gap %s vs parent IQR %s: %s"
                % (name, m["unit"], fmt(pm), fmt(pq1), fmt(pq3), fmt(cm), fmt(cq1),
                   fmt(cq3), 100 * rel, won, len(p), fmt(gap), fmt(iqr),
                   "gain shown" if gain else "no gain shown"))
        if m["end_to_end"]:
            worse = rel if lower else -rel
            line += "; %s its %g bound" % ("within" if worse <= m["bound"] else "PAST",
                                          m["bound"])
        print(line)


def fmt(v):
    if v is None:
        return "-"
    return "%.4g" % v if abs(v) < 1 else "%.2f" % v


if __name__ == "__main__":
    main()
