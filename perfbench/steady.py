#!/usr/bin/env python3
"""Steadiness check for the PerfCloud benchmark.

Runs every workload of BENCHMARK.json ten times with seeds 1-10, each run
in its own process measuring `run_seconds`, and then does the same a second
time. For each set it prints every end-to-end metric's median and
quartiles; the spread of a metric is the distance between its first and
third quartile as a share of its median. It then compares the two sets'
medians.

Exits 1 when a run fails or reports incorrect output, when a metric's
spread exceeds its bound in either set, or when a metric's second median
is worse than its first by more than its bound.

Run from the repository root (takes about 40 minutes):

    python3 perfbench/steady.py
"""

import json
import statistics
import subprocess
import sys

SEEDS = range(1, 11)
SETS = 2


def run_once(bench, workload, seed):
    args = bench["command"] + ["--workload", workload, "--seed", str(seed),
                               "--seconds", str(bench["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(args, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"run failed: {workload} seed {seed} (exit {proc.returncode})")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.stderr.write(proc.stdout)
        raise SystemExit(f"incorrect output: {workload} seed {seed}")
    return result


def measure_set(bench, number):
    """Runs every workload once per seed; returns {workload: {metric: median}}."""
    metrics = bench["end_to_end"]
    medians = {}
    steady = True
    for w in bench["workloads"]:
        workload = w["name"]
        values = {m["name"]: [] for m in metrics}
        for seed in SEEDS:
            result = run_once(bench, workload, seed)
            for m in metrics:
                values[m["name"]].append(result["metrics"][m["name"]]["value"])
            print(f"set {number} {workload} seed {seed}: " + ", ".join(
                f"{m['name']}={values[m['name']][-1]:.6g}" for m in metrics), flush=True)
        print(f"\nset {number} {workload}: {len(SEEDS)} runs of {bench['run_seconds']} s")
        print(f"  {'metric':<16} {'median':>14} {'q1':>14} {'q3':>14} "
              f"{'spread':>8} {'bound':>6}  verdict")
        medians[workload] = {}
        for m in metrics:
            q1, med, q3 = statistics.quantiles(values[m["name"]], n=4)
            spread = (q3 - q1) / med
            if spread > m["bound"]:
                verdict = "TOO NOISY"
                steady = False
            elif spread > m["bound"] / 3:
                verdict = "ok, above a third of the bound"
            else:
                verdict = "steady"
            medians[workload][m["name"]] = med
            print(f"  {m['name']:<16} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} "
                  f"{spread:>8.4f} {m['bound']:>6}  {verdict}")
        print(flush=True)
    return medians, steady


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    sets = [measure_set(bench, k + 1) for k in range(SETS)]
    steady = all(ok for _, ok in sets)
    first, second = sets[0][0], sets[1][0]

    print("second set against the first (worsening is positive)")
    print(f"  {'workload':<16} {'metric':<16} {'first':>14} {'second':>14} "
          f"{'worse by':>9} {'bound':>6}  verdict")
    for w in bench["workloads"]:
        workload = w["name"]
        for m in bench["end_to_end"]:
            a, b = first[workload][m["name"]], second[workload][m["name"]]
            worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
            verdict = "ok" if worse <= m["bound"] else "DRIFTED"
            steady = steady and worse <= m["bound"]
            print(f"  {workload:<16} {m['name']:<16} {a:>14.6g} {b:>14.6g} "
                  f"{worse:>+9.4f} {m['bound']:>6}  {verdict}")

    sys.exit(0 if steady else 1)


if __name__ == "__main__":
    main()
