#!/usr/bin/env python3
"""Paired before/after runs of the ipsmc benchmark, written as one BENCH file.

    python3 scripts/bench_pairs.py --parent ../parent --change . \\
        --what "what the change does" --seed 5 --out BENCH_9.json

For each workload (infer, learn and exact), each of 10 pairs runs
``python3 perfbench/run.py --workload W --seed S --seconds N --trace 0``
once in each checkout, from that checkout's root, one run at a time; the
side that runs first alternates (the parent first in odd-numbered pairs).
``--traced W`` adds one ``--trace 1`` pass of workload W per side, for the
per-layer numbers. The parent's commit id is read with git from its
checkout. The script only runs perfbench/; it edits nothing in either
checkout.

The file holds every run's result line and, per workload and end-to-end
metric, each side's median and quartiles and the number of pairs the change
won (ties count for neither side). Which direction is better, and the run
length, are read from the change's BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys

import numpy as np

PAIRS = 10
WORKLOADS = ("infer", "learn", "exact")
# seconds one benchmark run may take; a run at the length BENCHMARK.json
# sets takes under a minute on a 2-core machine
TIMEOUT_S = 600


def run_benchmark(checkout, workload, seed, seconds, trace):
    """One perfbench/run.py call; returns its JSON result line, or None
    when the run failed to produce one."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    try:
        proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE,
                              text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"{checkout}: {workload} ran over {TIMEOUT_S} s", file=sys.stderr)
        return None
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        print(f"{checkout}: {workload} printed no result line "
              f"(exit {proc.returncode})", file=sys.stderr)
        return None


def values(result, names):
    if result is None:
        return None
    return {n: result["metrics"][n]["value"] for n in names if n in result["metrics"]}


def machine():
    cpu = "unknown"
    if os.path.exists("/proc/cpuinfo"):
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    blas = "unknown"
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info.get('name', '?')} {info.get('version', '?')}"
    except (TypeError, KeyError):
        pass
    return {"cores": os.cpu_count(), "cpu": cpu, "blas": blas,
            "python": platform.python_version(), "numpy": np.__version__}


def summarize(runs, metrics):
    """Per workload and metric: medians, quartiles and pairs won."""
    out = {}
    for run in runs:
        if run["parent"] is None or run["change"] is None:
            continue
        for name, better in metrics.items():
            if name not in run["parent"] or name not in run["change"]:
                continue
            rec = out.setdefault(run["workload"], {}).setdefault(
                name, {"parent": [], "change": [], "won": 0})
            p, c = run["parent"][name], run["change"][name]
            rec["parent"].append(p)
            rec["change"].append(c)
            rec["won"] += (c < p) if better == "lower" else (c > p)
    summary = {}
    for workload, per in out.items():
        summary[workload] = {}
        for name, rec in per.items():
            p, c = np.array(rec["parent"]), np.array(rec["change"])
            summary[workload][name] = {
                "parent_median": float(np.median(p)),
                "parent_quartiles": [float(q) for q in np.percentile(p, [25, 75])],
                "change_median": float(np.median(c)),
                "change_quartiles": [float(q) for q in np.percentile(c, [25, 75])],
                "change_better_pairs": int(rec["won"]),
                "pairs": len(p),
            }
    return summary


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="checkout of the parent commit")
    ap.add_argument("--change", required=True, help="checkout of the change")
    ap.add_argument("--out", required=True, help="BENCH file to write")
    ap.add_argument("--what", required=True, help="one line on the change")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--traced", nargs="*", default=[],
                    help="workloads to run once per side with --trace 1")
    args = ap.parse_args(argv)

    with open(os.path.join(args.change, "BENCHMARK.json")) as f:
        bench = json.load(f)
    metrics = {m["name"]: m["better"] for m in bench["end_to_end"]}
    seconds = bench.get("run_seconds", 12)
    parent_commit = subprocess.check_output(["git", "rev-parse", "HEAD"],
                                            cwd=args.parent, text=True).strip()
    sides = {"parent": args.parent, "change": args.change}

    runs = []
    for workload in WORKLOADS:
        for pair in range(1, PAIRS + 1):
            order = ["parent", "change"] if pair % 2 else ["change", "parent"]
            results = {side: run_benchmark(sides[side], workload, args.seed,
                                           seconds, 0)
                       for side in order}
            runs.append({
                "workload": workload, "pair": pair, "first": order[0],
                "parent": values(results["parent"], metrics),
                "change": values(results["change"], metrics),
                "parent_correct": bool(results["parent"] and results["parent"]["correct"]),
                "change_correct": bool(results["change"] and results["change"]["correct"]),
                "failed_stage_calls": sum(r["failed"] for r in results.values() if r),
            })
            print(json.dumps(runs[-1]), file=sys.stderr)

    doc = {
        "what": args.what,
        "parent_commit": parent_commit,
        "command": (f"python3 perfbench/run.py --workload {{{','.join(WORKLOADS)}}} "
                    f"--seed {args.seed} --seconds {seconds} --trace 0"),
        "seed": args.seed,
        "machine": machine(),
        "protocol": (f"{PAIRS} pairs per workload, each side run from its own "
                     f"checkout, one run at a time; the side that runs first "
                     f"alternates (parent first in odd-numbered pairs). Each value "
                     f"is one run's result line: round_s and peak_rss_mib are "
                     f"medians over that run's rounds, setup_s its set-up time."),
        "runs": runs,
        "summary": summarize(runs, metrics),
    }
    if args.traced:
        traced = []
        for workload in args.traced:
            for side in ("parent", "change"):
                res = run_benchmark(sides[side], workload, args.seed, seconds, 1)
                traced.append({"workload": workload, "side": side,
                               "correct": bool(res and res["correct"]),
                               "metrics": values(res, res["metrics"]) if res else None})
        doc["traced"] = {
            "command": (f"python3 perfbench/run.py --workload {{{','.join(args.traced)}}} "
                        f"--seed {args.seed} --seconds {seconds} --trace 1"),
            "runs": traced,
        }
    with open(args.out, "w") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
