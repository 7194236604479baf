#!/usr/bin/env python3
"""Build and run the awesymbolic benchmark from the root of a checkout.

One run:
    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

builds bin/awesym.exe and perfbench/main.exe from source with dune under
the `perfbench` profile (the only profile that enables main.exe), then
replaces itself with main.exe, whose last stdout line is the JSON result.

Steadiness report:
    python3 perfbench/run.py --workload W --steady K [--seconds S]

runs the workload K times with seeds 1..K and prints, for each
end-to-end metric, the median, the quartiles and the quartile spread
relative to the median, flagging any spread above the metric's bound in
BENCHMARK.json.

--seconds defaults to run_seconds in BENCHMARK.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

TARGETS = ["./bin/awesym.exe", "./perfbench/main.exe"]
MAIN = os.path.join("_build", "default", "perfbench", "main.exe")
AWESYM = os.path.join("_build", "default", "bin", "awesym.exe")


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile("dune-project"):
        die("no dune-project here: run from the root of a full checkout")
    cmd = ["dune", "build", "--root", ".", "--profile", "perfbench",
           "--display", "quiet", "-j", "2"] + TARGETS
    try:
        code = subprocess.run(cmd, stdout=sys.stderr).returncode
    except OSError as e:
        die("cannot run dune: %s" % e)
    if code != 0:
        die("build failed (dune exit %d)" % code)


def main_args(workload, seed, seconds, trace):
    return [MAIN, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
            "--awesym", AWESYM]


def steady(workload, k, seconds):
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values = {}
    for seed in range(1, k + 1):
        out = subprocess.run(main_args(workload, seed, seconds, 0),
                             stdout=subprocess.PIPE, text=True)
        if out.returncode != 0:
            die("run with seed %d exited %d" % (seed, out.returncode))
        result = json.loads(out.stdout.strip().splitlines()[-1])
        if not result["correct"] or result["failed"]:
            die("run with seed %d failed its checks: %s" % (seed, result))
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print("seed %d: %s" % (seed, json.dumps(
            {n: m["value"] for n, m in result["metrics"].items()})), flush=True)
    print("%-16s %14s %14s %14s %8s %6s" % (
        "metric", "median", "q1", "q3", "spread", "bound"))
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med
        bound = bounds.get(name)
        flag = ""
        if bound is not None and spread > bound:
            flag = "  OVER BOUND"
        elif bound is not None and spread > bound / 3:
            flag = "  over bound/3"
        print("%-16s %14.6g %14.6g %14.6g %8.4f %6s%s" % (
            name, med, q1, q3, spread, bound, flag))


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--steady", type=int, metavar="K")
    a = p.parse_args()
    if a.seconds is None:
        with open("BENCHMARK.json") as f:
            a.seconds = json.load(f)["run_seconds"]
    build()
    if a.steady:
        if a.steady < 4:
            die("--steady needs at least 4 runs for quartiles")
        steady(a.workload, a.steady, a.seconds)
        return
    sys.stdout.flush()
    os.execv(MAIN, main_args(a.workload, a.seed, a.seconds, a.trace))


if __name__ == "__main__":
    main()
