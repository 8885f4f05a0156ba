#!/usr/bin/env python3
"""Steadiness report: run workloads several times and print, per metric,
the median, the quartiles and the relative spread (distance between the
quartiles over the median, as statistics.quantiles(values, n=4) gives
them).

    python3 perfbench/steady.py [--workload NAME ...] [--runs N]
        [--first-seed S] [--seconds S] [--trace 0|1] [--json OUT]

Run i uses seed S+i, so each run draws fresh inputs. Without
--workload, every workload in BENCHMARK.json runs. Each metric's bound
in BENCHMARK.json is sized from this report: at least three times the
largest spread measured.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    start = time.monotonic()
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if out.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {out.returncode}\n{out.stderr}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    result["wall_s"] = time.monotonic() - start
    return result


def summarize(results):
    rows = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        rows[name] = {"unit": results[0]["metrics"][name]["unit"], "median": med,
                      "q1": q1, "q3": q3, "spread": spread, "values": values}
    return rows


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    p = argparse.ArgumentParser()
    p.add_argument("--workload", action="append")
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=bench["run_seconds"])
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--json")
    a = p.parse_args()
    workloads = a.workload or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    report = {}
    for w in workloads:
        results = [run_once(w, a.first_seed + i, a.seconds, a.trace) for i in range(a.runs)]
        rows = summarize(results)
        report[w] = rows
        walls = [r["wall_s"] for r in results]
        print(f"== {w}: {a.runs} runs, seeds {a.first_seed}..{a.first_seed + a.runs - 1}, "
              f"failed {sum(r['failed'] for r in results)} of {sum(r['attempted'] for r in results)}, "
              f"wall per run {min(walls):.1f}-{max(walls):.1f} s")
        print(f"{'metric':28} {'unit':6} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}")
        for name, r in rows.items():
            b = bounds.get(name)
            print(f"{name:28} {r['unit']:6} {r['median']:14.6g} {r['q1']:14.6g} {r['q3']:14.6g} "
                  f"{r['spread']:8.4f} {'' if b is None else b:>6}")
        sys.stdout.flush()
    if a.json:
        with open(a.json, "w") as f:
            json.dump(report, f, indent=1)


if __name__ == "__main__":
    main()
