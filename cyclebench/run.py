#!/usr/bin/env python3
"""Builds the cycle benchmark from the checkout's sources and runs one workload.

    python3 cyclebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 cyclebench/run.py --selftest

Run from the root of a checkout. The build goes to .bench_build/cyclebench
(configured once, then brought up to date on every call); build output goes to
standard error, so the last line of standard output is the workload's JSON
result. --selftest runs every workload of BENCHMARK.json at tiny size, traced
and untraced, and fails unless each prints every metric BENCHMARK.json names
with the unit declared there.
"""
import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "cyclebench")
BINARY = os.path.join(BUILD_DIR, "cyclebench")


def fail(msg):
    print(f"cyclebench: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail(f"no turbda sources (CMakeLists.txt, src/) under {ROOT}")
    os.makedirs(BUILD_DIR, exist_ok=True)
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    with open(os.path.join(BUILD_DIR, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            cmd = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
                fail("cmake configure failed")
        cmd = ["cmake", "--build", BUILD_DIR, "--target", "cyclebench", "-j", jobs]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("build failed")


def run_workload(workload, seed, seconds, trace, tiny=False, capture=False):
    workdir = os.path.join(BUILD_DIR, "work", f"{workload}-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    cmd = [BINARY, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--workdir", workdir]
    if tiny:
        cmd.append("--tiny")
    try:
        return subprocess.run(cmd, stdout=subprocess.PIPE if capture else None, text=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def selftest():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = 0
    for name in [w["name"] for w in spec["workloads"]]:
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            res = run_workload(name, 1, 1, trace, tiny=True, capture=True)
            lines = res.stdout.strip().splitlines()
            problems = []
            try:
                out = json.loads(lines[-1])
            except (IndexError, json.JSONDecodeError):
                out = None
                problems.append("no JSON result on the last line")
            if res.returncode != 0:
                problems.append(f"exit code {res.returncode}")
            if out is not None:
                if set(out) != {"correct", "attempted", "failed", "metrics"}:
                    problems.append(f"result keys {sorted(out)}")
                if out.get("correct") is not True:
                    problems.append("correct is not true")
                if not isinstance(out.get("attempted"), int) or out["attempted"] < 1:
                    problems.append("attempted < 1")
                got = out.get("metrics", {})
                for m in declared:
                    v = got.get(m["name"])
                    if v is None:
                        problems.append(f"missing {m['name']}")
                    elif v.get("unit") != m["unit"] or not isinstance(v.get("value"), (int, float)):
                        problems.append(f"{m['name']} printed as {v}, declared unit {m['unit']}")
                extra = set(got) - {m["name"] for m in declared}
                if extra:
                    problems.append(f"undeclared metrics {sorted(extra)}")
            status = "ok" if not problems else "FAIL: " + "; ".join(problems)
            print(f"selftest {name} trace={trace}: {status}")
            failures += bool(problems)
    print("selftest " + ("PASS" if failures == 0 else f"FAIL ({failures})"))
    return 0 if failures == 0 else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="tiny problem sizes (seconds per run)")
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    build()
    if args.selftest:
        return selftest()
    if not args.workload:
        fail("--workload is required")
    return run_workload(args.workload, args.seed, args.seconds, args.trace, tiny=args.tiny).returncode


if __name__ == "__main__":
    sys.exit(main())
