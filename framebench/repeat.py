#!/usr/bin/env python3
"""Runs the frame-pipeline benchmark several times and summarises it.

Run from the repository root, for example

    python3 framebench/repeat.py --workloads tram,crowd,city --seeds 1-10

Each run is `bash framebench/run.sh --workload W --seed S --seconds N
--trace T`, one after another. For every workload and metric it prints
the median, the quartiles (statistics.quantiles, n=4) and the spread
(quartile distance over median), marks end-to-end spreads that exceed
a third of the metric's bound in BENCHMARK.json, and records the host
with the results. --out writes every run's result line and the summary
as JSON.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys


def seeds_of(text):
    out = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            out.extend(range(int(lo), int(hi) + 1))
        else:
            out.append(int(part))
    return out


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def go_version():
    try:
        return subprocess.run(["go", "version"], capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default="tram,crowd,city")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=None, help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--out", default="")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    host = {
        "go": go_version(),
        "cpu": cpu_model(),
        "nproc": os.cpu_count(),
        "seconds": seconds,
        "trace": args.trace,
    }
    print("host:", json.dumps(host))
    seeds = seeds_of(args.seeds)
    runs = {}
    summary = {}
    for w in args.workloads.split(","):
        runs[w] = []
        for s in seeds:
            cmd = bench["command"] + ["--workload", w, "--seed", str(s), "--seconds", str(seconds),
                                      "--trace", str(args.trace)]
            p = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            lines = p.stdout.strip().splitlines()
            if p.returncode != 0 or not lines:
                print(f"{w} seed {s}: exit {p.returncode}\n{p.stderr[-2000:]}", file=sys.stderr)
                sys.exit(1)
            res = json.loads(lines[-1])
            res["seed"] = s
            steal = [l for l in lines if "host steal" in l]
            res["steal"] = steal[0].rsplit("host steal", 1)[1].strip() if steal else "?"
            runs[w].append(res)
            print(f"{w} seed {s}: correct {res['correct']} attempted {res['attempted']} failed {res['failed']}"
                  f" steal {res['steal']}", flush=True)
        summary[w] = {}
        names = sorted(runs[w][0]["metrics"])
        print(f"\n{w}: {len(seeds)} runs")
        print(f"  {'metric':36} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}")
        for name in names:
            vals = [r["metrics"][name]["value"] for r in runs[w]]
            unit = runs[w][0]["metrics"][name]["unit"]
            med = statistics.median(vals)
            if len(vals) >= 2:
                q1, _, q3 = statistics.quantiles(vals, n=4)
            else:
                q1 = q3 = vals[0]
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s" and spread > bound / 3:
                flag = " <-- above bound/3" if spread <= bound else " <-- ABOVE BOUND"
            print(f"  {name:36} {med:14.4f} {q1:14.4f} {q3:14.4f} {spread:8.4f} {bound if bound is not None else '':>6} {unit}{flag}")
            summary[w][name] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "unit": unit}
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"host": host, "runs": runs, "summary": summary}, f, indent=1)


if __name__ == "__main__":
    main()
