#!/usr/bin/env python3
"""Steadiness tool: runs each workload N times and prints, per end-to-end
metric, the median, the quartiles and the spread beside the bound that
BENCHMARK.json declares.

    python3 cyclebench/steady.py [--runs 10] [--seconds <run_seconds>]
                                 [--workloads a,b] [--seed0 1] [--sets 1]

Run from the root of a checkout. Each pass runs every workload once, in
alternating order (forward on even passes, reversed on odd ones), with seed
seed0 + pass, so a slow spell of the machine spreads over all workloads.
The spread is (q3 - q1) / median with the quartiles of
statistics.quantiles(values, n=4). A metric is steady when its spread is
below a third of its bound. With
--sets 2 a second set of N runs follows, on the next N seeds, and the tool
also prints how much worse each second median is than the first, against
the bound, and whether the share of failed cycles is the same in both sets.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(workload, seed, seconds):
    t0 = time.monotonic()
    res = subprocess.run(
        [sys.executable, os.path.join(ROOT, "cyclebench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    wall = time.monotonic() - t0
    try:
        out = json.loads(res.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        out = None
    if res.returncode != 0 or out is None or out.get("correct") is not True:
        print(f"  {workload} seed {seed}: FAILED (exit {res.returncode})", flush=True)
        return None, wall
    return out, wall


def run_set(spec, workloads, runs, seconds, seed0):
    results = {w: [] for w in workloads}
    for i in range(runs):
        order = workloads if i % 2 == 0 else list(reversed(workloads))
        for w in order:
            out, wall = run_once(w, seed0 + i, seconds)
            if out is not None:
                results[w].append(out)
                vals = " ".join(f"{m['name']}={out['metrics'][m['name']]['value']:.4g}"
                                for m in spec["end_to_end"])
                print(f"  pass {i} {w} seed {seed0 + i}: {wall:.1f} s, {vals}", flush=True)
    return results


def summarize(spec, results):
    medians = {}
    steady = True
    for w, outs in results.items():
        print(f"\n{w}: {len(outs)} runs")
        if len(outs) < 2:
            steady = False
            continue
        share = {o["failed"] / o["attempted"] for o in outs}
        print(f"  failed share per run: {sorted(share)}")
        print(f"  {'metric':<22}{'median':>12}{'q1':>12}{'q3':>12}{'spread':>9}{'bound':>8}  verdict")
        for m in spec["end_to_end"]:
            vals = [o["metrics"][m["name"]]["value"] for o in outs]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            medians[(w, m["name"])] = med
            if spread <= m["bound"] / 3:
                verdict = "steady"
            elif spread <= m["bound"]:
                verdict = "within bound, above a third"
                steady = False
            else:
                verdict = "TOO WIDE"
                steady = False
            print(f"  {m['name']:<22}{med:>12.5g}{q1:>12.5g}{q3:>12.5g}{spread:>9.4f}"
                  f"{m['bound']:>8.3f}  {verdict}")
    return medians, steady


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--workloads")
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--sets", type=int, choices=(1, 2), default=1)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    seconds = args.seconds or spec["run_seconds"]

    sets = []
    for k in range(args.sets):
        print(f"set {k + 1}: {args.runs} runs per workload, {seconds} s each", flush=True)
        results = run_set(spec, workloads, args.runs, seconds, args.seed0 + k * args.runs)
        sets.append((results, summarize(spec, results)))
    ok = all(steady for _, (_, steady) in sets)
    if len(sets) == 2:
        print("\nsecond set against the first (positive = worse)")
        better = {m["name"]: m["better"] for m in spec["end_to_end"]}
        bound = {m["name"]: m["bound"] for m in spec["end_to_end"]}
        (r1, (m1, _)), (r2, (m2, _)) = sets
        for (w, name), a in m1.items():
            b = m2.get((w, name))
            if b is None or a == 0:
                continue
            worse = (b - a) / a if better[name] == "lower" else (a - b) / a
            verdict = "ok" if worse <= bound[name] else "WORSE THAN BOUND"
            ok = ok and worse <= bound[name]
            print(f"  {w:<22}{name:<22}{worse:>+9.4f}  bound {bound[name]:.3f}  {verdict}")
        for w in workloads:
            s1 = {o["failed"] / o["attempted"] for o in r1[w]}
            s2 = {o["failed"] / o["attempted"] for o in r2[w]}
            same = len(s1 | s2) == 1
            ok = ok and same
            print(f"  {w:<22}failed share {sorted(s1)} vs {sorted(s2)}: {'same' if same else 'DIFFERENT'}")
    print("\nsteady" if ok else "\nNOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
