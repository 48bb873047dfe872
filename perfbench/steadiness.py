#!/usr/bin/env python3
"""Steadiness check: runs the benchmark in two interleaved sets of seeds and
prints, per workload and end-to-end metric, each set's median and quartiles,
the quartile spread as a share of the median, and how far set B's median
moved from set A's.

    python3 perfbench/steadiness.py [--runs 10] [--workloads ingest,cold_query,wire]
        [--seconds 10] [--traced] [--write-readme]

Set A uses seeds 1..runs and set B seeds 101..100+runs; run i of A and run i
of B alternate, so slow drift of the host lands in both sets. --traced adds
one traced run per workload and seed of set A and reports tracing overhead
(traced end-to-end figures against untraced medians). --write-readme
replaces the reference block of perfbench/README.md with the tables.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BEGIN = "<!-- steadiness:begin -->"
END = "<!-- steadiness:end -->"


def bench_config():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"run failed: {' '.join(cmd)}\n{done.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if not trace:
        for line in lines:
            if line.startswith("coverage ") or line.startswith("timing: "):
                print(f"{workload} seed {seed}: {line}")
    traced = {}
    for line in lines:
        if line.startswith("traced end-to-end:"):
            for item in line.split()[2:]:
                name, value = item.split("=")
                traced[name] = float(value)
    return result, traced


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default="")
    parser.add_argument("--seconds", type=int, default=0)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--write-readme", action="store_true")
    args = parser.parse_args()

    config = bench_config()
    workloads = args.workloads.split(",") if args.workloads else [
        w["name"] for w in config["workloads"]]
    seconds = args.seconds or config["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}

    values = {w: {"A": {}, "B": {}} for w in workloads}
    traced = {w: {} for w in workloads}
    fail_share = {w: {"A": set(), "B": set()} for w in workloads}
    incorrect = []
    for i in range(args.runs):
        for set_name, seed in (("A", 1 + i), ("B", 101 + i)):
            for w in workloads:
                result, _ = run_once(w, seed, seconds, 0)
                if not result["correct"]:
                    incorrect.append((w, seed))
                fail_share[w][set_name].add((result["failed"], result["attempted"]))
                for name, m in result["metrics"].items():
                    values[w][set_name].setdefault(name, []).append(m["value"])
                print(f"{set_name} seed {seed:3d} {w:10s} " + " ".join(
                    f"{n}={m['value']:.4g}" for n, m in result["metrics"].items()),
                    flush=True)
            if args.traced and set_name == "A":
                for w in workloads:
                    _, t = run_once(w, seed, seconds, 1)
                    for name, v in t.items():
                        traced[w].setdefault(name, []).append(v)

    lines = [f"Runs per set: {args.runs}, run_seconds: {seconds}. "
             "Spread = (q3 - q1) / median; shift = median B / median A - 1.", ""]
    lines.append("| workload | metric | A median | A q1 | A q3 | A spread | B median | "
                 "B spread | shift | bound |")
    lines.append("|---|---|---|---|---|---|---|---|---|---|")
    worst = []
    for w in workloads:
        for name in values[w]["A"]:
            a1, am, a3 = quartiles(values[w]["A"][name])
            b1, bm, b3 = quartiles(values[w]["B"][name])
            spread_a = (a3 - a1) / am if am else 0.0
            spread_b = (b3 - b1) / bm if bm else 0.0
            shift = bm / am - 1 if am else 0.0
            bound = bounds.get(name, 0.0)
            lines.append(f"| {w} | {name} | {am:.4g} | {a1:.4g} | {a3:.4g} | "
                         f"{spread_a:.1%} | {bm:.4g} | {spread_b:.1%} | {shift:+.1%} | "
                         f"{bound:.0%} |")
            worst.append((max(spread_a, spread_b) / bound if bound else 0, w, name))
    if args.traced:
        lines += ["", "Tracing overhead: traced end-to-end median against the untraced "
                  "set-A median.", "", "| workload | metric | untraced | traced | overhead |",
                  "|---|---|---|---|---|"]
        for w in workloads:
            for name, tv in traced[w].items():
                um = statistics.median(values[w]["A"][name])
                tm = statistics.median(tv)
                lines.append(f"| {w} | {name} | {um:.4g} | {tm:.4g} | {tm / um - 1:+.1%} |")
    table = "\n".join(lines)
    print()
    print(table)
    print()
    for w in workloads:
        shares = {f"{f}/{a}" for s in fail_share[w].values() for f, a in s}
        print(f"{w}: failed/attempted seen: {sorted(shares)}")
    worst.sort(reverse=True)
    if worst:
        r, w, name = worst[0]
        print(f"largest spread relative to its bound: {w} {name} ({r:.2f} of the bound)")
    if incorrect:
        print(f"INCORRECT runs: {incorrect}")

    if args.write_readme:
        path = os.path.join(HERE, "README.md")
        with open(path) as f:
            text = f.read()
        block = f"{BEGIN}\n{table}\n{END}"
        text = re.sub(re.escape(BEGIN) + ".*?" + re.escape(END), lambda _: block, text,
                      flags=re.S)
        with open(path, "w") as f:
            f.write(text)
    return 1 if incorrect else 0


if __name__ == "__main__":
    sys.exit(main())
