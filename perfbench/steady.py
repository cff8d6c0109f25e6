#!/usr/bin/env python3
"""Steadiness check for the offload-datapath benchmark.

Runs every workload repeatedly with a new seed each round, rotating the
workload order from round to round. Given two checkouts (two builds, or
the same one twice for two interleaved sets of one build), it alternates
them within each round, first one first on even rounds and the other on
odd rounds. For each metric it prints the median, the quartiles and the
spread (Q3 - Q1) / median, then checks:

* every run is correct and exits 0;
* the share of failed operations is exactly the same in every run of a
  workload;
* each end-to-end spread stays within its bound;
* with two sets, no end-to-end median of the second is worse than the
  first's by more than its bound.

Before the runs it checks that a run with a wrong expected digest fails.

    python3 perfbench/steady.py [--runs 10] [--seed 1] [--trace] [CHECKOUT [CHECKOUT]]

CHECKOUT defaults to the current directory. Each checkout builds into its
own `.bench_build` unless CARGO_TARGET_DIR is set.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from fractions import Fraction


def run_once(checkout, spec, workload, seed, trace, extra=()):
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", os.path.join(os.path.abspath(checkout), ".bench_build"))
    cmd = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", "1" if trace else "0",
        *extra,
    ]
    p = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True, text=True, timeout=900)
    lines = p.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
    return p.returncode, result, p.stderr


def summary(values):
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    spread = (q3 - q1) / abs(med) if med else float("inf")
    return med, q1, q3, spread


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1, help="seed of the first round")
    ap.add_argument("--trace", action="store_true", help="run the traced (per-layer) runs")
    ap.add_argument("checkouts", nargs="*", default=["."])
    args = ap.parse_args()
    if len(args.checkouts) > 2:
        ap.error("at most two checkouts")

    with open(os.path.join(args.checkouts[0], "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    bounds = {m["name"]: m.get("bound") for m in metrics}
    problems = []

    # Self-test: a wrong expected digest must fail the run.
    rc, res, err = run_once(args.checkouts[0], dict(spec, run_seconds=1), workloads[0], 1, False,
                            ["--corrupt-digest"])
    if rc == 0 or (res is not None and res.get("correct")):
        problems.append("self-test: a run with a wrong expected digest did not fail")
    elif rc != 1:
        problems.append(f"self-test: exit {rc} instead of 1: {err.strip()[-300:]}")
    else:
        print("self-test: wrong expected digest fails the run (exit 1)")

    sets = list(range(len(args.checkouts)))
    data = {(s, w): [] for s in sets for w in workloads}
    for r in range(args.runs):
        k = r % len(workloads)
        order = workloads[k:] + workloads[:k]
        for w in order:
            for s in sets if r % 2 == 0 else sets[::-1]:
                seed = args.seed + r
                rc, res, err = run_once(args.checkouts[s], spec, w, seed, args.trace)
                if rc != 0 or res is None or not res.get("correct"):
                    problems.append(f"set {s} {w} seed {seed}: exit {rc}: {err.strip()[-300:]}")
                    continue
                data[(s, w)].append(res)
                print(f"round {r} set {s} {w} seed {seed}: "
                      f"attempted {res['attempted']} failed {res['failed']}", flush=True)

    medians = {}
    for w in workloads:
        for s in sets:
            runs = data[(s, w)]
            if not runs:
                continue
            shares = {Fraction(x["failed"], x["attempted"]) for x in runs}
            share_txt = ", ".join(f"{float(x):.6f}" for x in sorted(shares))
            print(f"\n{w} (set {s}, {len(runs)} runs, failed share {share_txt})")
            if len(shares) > 1:
                problems.append(f"set {s} {w}: failed share differs between runs")
            for m in metrics:
                name = m["name"]
                vals = [x["metrics"][name]["value"] for x in runs]
                med, q1, q3, spread = summary(vals)
                medians[(s, w, name)] = med
                bound = bounds[name]
                flag = ""
                if bound is not None:
                    if spread > bound:
                        flag = "  SPREAD ABOVE BOUND"
                        problems.append(f"set {s} {w} {name}: spread {spread:.4f} > {bound}")
                    elif spread > bound / 3:
                        flag = "  spread above a third of the bound"
                print(f"  {name:34s} median {med:14.4f}  q1 {q1:14.4f}  q3 {q3:14.4f}  "
                      f"spread {spread:7.4f}  bound {bound}{flag}")
        if len(sets) == 2 and not args.trace:
            shares = [{Fraction(x["failed"], x["attempted"]) for x in data[(s, w)]} for s in sets]
            if shares[0] != shares[1]:
                problems.append(f"{w}: failed share differs between the two sets")
            print("  set 1 vs set 0:")
            for m in metrics:
                name = m["name"]
                a, b = medians.get((0, w, name)), medians.get((1, w, name))
                if a is None or b is None or not a:
                    continue
                rel = (b - a) / abs(a)
                worse = -rel if m["better"] == "higher" else rel
                ok = abs(rel) <= m["bound"]
                print(f"  {name:34s} {a:14.4f} -> {b:14.4f}  {rel:+.4f}  "
                      f"{'agree' if ok else 'DISAGREE'} (bound {m['bound']})")
                if worse > m["bound"]:
                    problems.append(f"{w} {name}: set 1 worse than set 0 by {worse:.4f}")

    print()
    for p in problems:
        print("PROBLEM:", p)
    print("steady" if not problems else f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
