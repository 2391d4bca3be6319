#!/usr/bin/env python3
"""Builds and runs the platform benchmark (see README.md next to this file).

One run, the form BENCHMARK.json names (the last stdout line is the JSON
result):
  python3 bench_platform/platform.py --workload W --seed N --seconds S --trace 0|1

Subcommands:
  run      every workload in its own process, untraced then traced; prints
           "workload metric value unit" lines, keeps the JSON results
  compare  alternating runs of two source trees; the win rule and the
           regression bounds of BENCHMARK.json, one table per workload
  smoke    every workload for a few seconds each way; checks the output schema

Builds go to $CARGO_TARGET_DIR (default .bench_build) in the checkout.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["svc-small", "svc-bulk", "spec-mix", "churn"]
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build(tree, out):
    """Builds bench_platform against `tree`/src in `out`; returns the binary."""
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo",
               "-DIJVM_ROOT=" + os.path.abspath(tree)]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", out, "-j", jobs], check=True, stdout=sys.stderr)
    return os.path.join(out, "bench_platform")


def git_sha(tree):
    try:
        return subprocess.run(["git", "-C", tree, "rev-parse", "--short", "HEAD"],
                              capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def run_once(binary, workload, seed, seconds, trace, out_dir, sha):
    """Runs one workload; returns (returncode, stdout)."""
    os.makedirs(out_dir, exist_ok=True)
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--out", out_dir, "--git-sha", sha]
    try:
        p = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return 124, f"timed out after {RUN_TIMEOUT_S} s\n"
    return p.returncode, p.stdout


def result_of(stdout):
    lines = stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


# ---------------------------------------------------------------- one run

def cmd_single(args):
    binary = build(ROOT, os.path.join(build_dir(), "bench_platform"))
    rc, out = run_once(binary, args.workload, args.seed, args.seconds, args.trace,
                       os.path.join(build_dir(), "results"), git_sha(ROOT))
    sys.stdout.write(out)
    return rc


# -------------------------------------------------------------------- run

def cmd_run(args):
    binary = build(ROOT, os.path.join(build_dir(), "bench_platform"))
    out_dir = os.path.join(build_dir(), "results")
    sha = git_sha(ROOT)
    status = 0
    for w in args.workload or WORKLOADS:
        for trace in (0, 1):
            rc, out = run_once(binary, w, args.seed, args.seconds, trace, out_dir, sha)
            for line in out.splitlines():
                if line.startswith(w + " ") and len(line.split()) == 4:
                    print(line)
            res = result_of(out)
            if rc != 0 or res is None or not res["correct"]:
                log(f"{w} trace={trace} failed (exit {rc}):\n{out[-2000:]}")
                status = 1
    log(f"results and traces: {out_dir}")
    return status


# ---------------------------------------------------------------- compare

def quartiles(v):
    if len(v) < 2:
        return v[0], v[0], v[0]
    q = statistics.quantiles(v, n=4)
    return q[0], statistics.median(v), q[2]


def verdict(metric, parent, change):
    """The win rule (gain), the bound (regression) and the spread check."""
    lower = metric["better"] == "lower"
    p25, pmed, p75 = quartiles(parent)
    _, cmed, _ = quartiles(change)
    spread = (p75 - p25) / pmed if pmed else 0.0
    worse = (cmed - pmed) / pmed if lower else (pmed - cmed) / pmed
    better = [c < p if lower else c > p for p, c in zip(parent, change)]
    ties = sum(1 for p, c in zip(parent, change) if p == c)
    wins = sum(better)
    all_better = all((c < min(parent)) if lower else (c > max(parent)) for c in change)
    if worse > metric["bound"]:
        return "REGRESSION", spread, wins, ties
    if spread > metric["bound"] and not all_better:
        return "unresolved", spread, wins, ties
    if wins >= 0.9 * len(parent) and abs(cmed - pmed) > (p75 - p25):
        return "gain", spread, wins, ties
    return "no change", spread, wins, ties


def cmd_compare(args):
    metrics = spec()["end_to_end"]
    base = build(args.base, os.path.join(build_dir(), "compare-base"))
    change = build(args.change, os.path.join(build_dir(), "compare-change"))
    sides = {"parent": (base, git_sha(args.base)), "change": (change, git_sha(args.change))}
    status = 0
    for w in args.workload or WORKLOADS:
        runs = {"parent": [], "change": []}
        for i in range(args.pairs):
            seed = args.first_seed + i
            order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
            for side in order:
                binary, sha = sides[side]
                rc, out = run_once(binary, w, seed, args.seconds, 0,
                                   os.path.join(build_dir(), "compare-results", side), sha)
                res = result_of(out)
                if rc != 0 or res is None or not res["correct"]:
                    log(f"{w} {side} seed {seed} failed (exit {rc}):\n{out[-2000:]}")
                    return 1
                runs[side].append(res["metrics"])
            log(f"{w}: pair {i + 1}/{args.pairs} done")
        print(f"\n{w}: {args.pairs} pairs, seeds {args.first_seed}..{args.first_seed + args.pairs - 1}")
        print(f"{'metric':12} {'parent median [q1, q3]':>32} {'change median [q1, q3]':>32} "
              f"{'wins':>6} {'spread':>7} {'bound':>6}  verdict")
        verdicts = []
        for m in metrics:
            p = [r[m["name"]]["value"] for r in runs["parent"]]
            c = [r[m["name"]]["value"] for r in runs["change"]]
            v, spread, wins, ties = verdict(m, p, c)
            verdicts.append(v)
            pq, cq = quartiles(p), quartiles(c)
            print(f"{m['name']:12} {pq[1]:12.5g} [{pq[0]:.5g}, {pq[2]:.5g}]".ljust(46) +
                  f"{cq[1]:12.5g} [{cq[0]:.5g}, {cq[2]:.5g}]".ljust(33) +
                  f"{wins:>3}/{len(p) - ties:<2} {spread * 100:6.1f}% {m['bound'] * 100:5.0f}%  {v}")
        if "REGRESSION" in verdicts:
            status = 1
        print(f"{w}: " + ", ".join(f"{m['name']}={v}" for m, v in zip(metrics, verdicts)))
    return status


# ------------------------------------------------------------------ smoke

def cmd_smoke(args):
    bench = spec()
    binary = build(ROOT, os.path.join(build_dir(), "bench_platform"))
    out_dir = os.path.join(build_dir(), "smoke")
    expected = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
                1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    names = [w["name"] for w in bench["workloads"]]
    problems = []
    if sorted(names) != sorted(WORKLOADS):
        problems.append(f"BENCHMARK.json workloads {names} != {WORKLOADS}")
    for w in names:
        for trace in (0, 1):
            rc, out = run_once(binary, w, 1, args.seconds, trace, out_dir, "smoke")
            res = result_of(out)
            where = f"{w} trace={trace}"
            if rc != 0 or res is None:
                problems.append(f"{where}: exit {rc}, no result\n{out[-1500:]}")
                continue
            if set(res) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: result keys {sorted(res)}")
            if res.get("correct") is not True or res.get("failed") != 0 or res.get("attempted", 0) < 1:
                problems.append(f"{where}: correct={res.get('correct')} failed={res.get('failed')}")
            got = {k: v.get("unit") for k, v in res.get("metrics", {}).items()}
            if got != expected[trace]:
                problems.append(f"{where}: metrics differ from BENCHMARK.json: "
                                f"{sorted(set(got) ^ set(expected[trace]))}")
            for k, v in res.get("metrics", {}).items():
                if not isinstance(v.get("value"), (int, float)):
                    problems.append(f"{where}: {k} is not a number")
            log(f"{where}: ok" if not problems else f"{where}: checked")
    for p in problems:
        log(p)
    print("smoke: " + ("PASS" if not problems else f"FAIL ({len(problems)} problems)"))
    return 0 if not problems else 1


def main():
    if len(sys.argv) > 1 and sys.argv[1] in ("run", "compare", "smoke"):
        ap = argparse.ArgumentParser(prog="platform.py " + sys.argv[1])
        sub = sys.argv[1]
        if sub in ("run", "compare"):
            ap.add_argument("--workload", action="append", choices=WORKLOADS)
            ap.add_argument("--seconds", type=float, default=spec()["run_seconds"])
        if sub == "run":
            ap.add_argument("--seed", type=int, default=1)
        if sub == "compare":
            ap.add_argument("--base", required=True, help="source tree of the parent commit")
            ap.add_argument("--change", default=ROOT, help="source tree of the change")
            ap.add_argument("--pairs", type=int, default=10)
            ap.add_argument("--first-seed", type=int, default=1001)
        if sub == "smoke":
            ap.add_argument("--seconds", type=float, default=5)
        args = ap.parse_args(sys.argv[2:])
        return {"run": cmd_run, "compare": cmd_compare, "smoke": cmd_smoke}[sub](args)
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return cmd_single(ap.parse_args())


if __name__ == "__main__":
    try:
        sys.exit(main())
    except subprocess.CalledProcessError as e:
        log(f"command failed: {e}")
        sys.exit(1)
