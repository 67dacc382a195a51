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

Its ``outputs`` block compares what the two trees compute: each checkout
runs the set-up and round stages of every workload once, through
perfbench/workloads.py's ``workload_stages`` and ``run_stage``, into a
temporary directory, and the block lists the sha256 of every file the
stages wrote and whether the two sides match.

Its ``src_lines`` block gives each checkout's line count of
``src/ipsmc/*.py``, per file and in total, as ``wc -l`` counts them.

``--tier1`` adds a ``tier1`` block: the Tier-1 suite,
``PYTHONPATH=src python -m pytest -q --continue-on-collection-errors
--durations=10``, run once in each checkout after the pairs, parent first,
with its test count, passed and failed counts, wall time and the ten
slowest test phases pytest lists. A run that exits nonzero or prints no
summary line is a problem.

Every run is checked, and its problems are listed under ``problems``: a
nonzero exit, no result line, ``correct: false``, failed stage calls, or a
metric of BENCHMARK.json missing from the result line (an untraced line
must carry every ``end_to_end`` metric, a traced line every ``per_layer``
metric). The BENCH file is written either way; the script exits 1 when any
run had a problem.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import re
import shutil
import subprocess
import sys
import tempfile
import time

import numpy as np

PAIRS = 10
WORKLOADS = ("infer", "learn", "exact")
# seconds one benchmark run may take; a run at the length BENCHMARK.json
# sets takes under a minute on a 2-core machine
TIMEOUT_S = 600
# the Tier-1 suite, run from a checkout's root with src on PYTHONPATH, and
# its ten slowest test phases; it takes about five minutes on a 2-core machine
TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
         "--durations=10"]
TIER1_TIMEOUT_S = 3600


def run_benchmark(checkout, workload, seed, seconds, trace, expected):
    """One perfbench/run.py call: (its JSON result line, or None when it
    printed none, and the run's problems; see run_problems)."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    try:
        proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE,
                              text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        problems = [f"ran over {TIMEOUT_S} s"]
        result = None
    else:
        lines = proc.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            result = None
        problems = run_problems(result, proc.returncode, expected)
    for problem in problems:
        print(f"{checkout}: {workload} --trace {trace}: {problem}", file=sys.stderr)
    return result, problems


def run_problems(result, returncode, expected):
    """What makes one run unusable: a nonzero exit, no result line, a
    failed check, failed stage calls, or a metric named in expected that
    its result line lacks."""
    problems = [f"exit {returncode}"] if returncode else []
    if result is None:
        return problems + ["no result line"]
    if not result["correct"]:
        problems.append("correct: false")
    if result["failed"]:
        problems.append(f"{result['failed']} of {result['attempted']} "
                        f"stage calls failed")
    missing = [name for name in expected if name not in result["metrics"]]
    if missing:
        problems.append("missing metrics: " + ", ".join(missing))
    return problems


def tier1_counts(output):
    """{outcome: count} from the summary line of pytest's output, the last
    line that names an outcome: "2 failed, 307 passed in 259.5s" gives
    {"failed": 2, "passed": 307}. An error counts as failed; None when no
    line names an outcome."""
    for line in reversed(output.strip().splitlines()):
        found = re.findall(r"(\d+) (passed|failed|errors?|skipped|xfailed|xpassed)\b", line)
        if found:
            counts = {}
            for n, outcome in found:
                outcome = "failed" if outcome.startswith("error") else outcome
                counts[outcome] = counts.get(outcome, 0) + int(n)
            return counts
    return None


def slowest_tests(output):
    """[{"s": seconds, "when": phase, "test": node id}] from the "slowest
    durations" section of pytest's output, slowest first; [] when there is
    none."""
    lines = output.splitlines()
    start = next((k for k, line in enumerate(lines)
                  if re.search(r"slowest( \d+)? durations", line)), None)
    rows = []
    for line in lines[start + 1:] if start is not None else []:
        found = re.match(r"(\d+(?:\.\d+)?)s (\w+)\s+(\S.*)$", line.strip())
        if not found:
            break
        rows.append({"s": float(found[1]), "when": found[2], "test": found[3]})
    return rows


def run_tier1(checkout):
    """One run of the Tier-1 suite from checkout's root: its test, passed
    and failed counts, wall time, slowest test phases, exit code and
    problems."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(["src"] + ([env["PYTHONPATH"]]
                                                   if env.get("PYTHONPATH") else []))
    start = time.perf_counter()
    try:
        proc = subprocess.run(TIER1, cwd=checkout, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True,
                              timeout=TIER1_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"wall_s": time.perf_counter() - start,
                "problems": [f"ran over {TIER1_TIMEOUT_S} s"]}
    wall = time.perf_counter() - start
    counts = tier1_counts(proc.stdout)
    problems = [f"exit {proc.returncode}"] if proc.returncode else []
    if counts is None:
        problems.append("no summary line")
        counts = {}
    for problem in problems:
        print(f"{checkout}: tier1: {problem}", file=sys.stderr)
    return {"tests": sum(counts.values()), "passed": counts.get("passed", 0),
            "failed": counts.get("failed", 0), "wall_s": wall,
            "slowest": slowest_tests(proc.stdout),
            "exit": proc.returncode, "problems": problems}


# run from a checkout's root with (workload, seed, work directory): runs
# every stage of the workload once and prints each stage's label and
# output directory
STAGES_SCRIPT = """
import json, os, sys
os.makedirs(sys.argv[3])
sys.path.insert(0, "perfbench")
from workloads import run_stage, workload_stages
setup, once, rounds = workload_stages(sys.argv[1], int(sys.argv[2]), sys.argv[3])
for stage in setup + once:
    run_stage(stage, "setup")
for stage in rounds:
    run_stage(stage)
print(json.dumps([[s.label, s.out] for s in setup + once + rounds]))
"""


def stage_digests(checkout, workload, seed, work):
    """{label/relative path: sha256} of every file the workload's stages
    write when run once from checkout into the empty directory work, or an
    error string. Output headers hash the stage configs, paths included, so
    both sides must run in the same work directory."""
    try:
        proc = subprocess.run(
            [sys.executable, "-c", STAGES_SCRIPT, workload, str(seed), work],
            cwd=checkout, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return f"ran over {TIMEOUT_S} s"
    if proc.returncode != 0:
        lines = proc.stderr.strip().splitlines()
        return lines[-1] if lines else f"exit {proc.returncode}"
    digests = {}
    for label, out in json.loads(proc.stdout.strip().splitlines()[-1]):
        for dirpath, dirnames, filenames in os.walk(out):
            dirnames.sort()
            for fn in sorted(filenames):
                full = os.path.join(dirpath, fn)
                with open(full, "rb") as f:
                    digest = hashlib.sha256(f.read()).hexdigest()
                digests[f"{label}/{os.path.relpath(full, out)}"] = digest
    return digests


def output_digests(sides, seed):
    """Per workload: each side's file digests and whether they match."""
    out = {}
    for workload in WORKLOADS:
        rec = {}
        with tempfile.TemporaryDirectory() as tmp:
            work = os.path.join(tmp, "work")
            for side, path in sides.items():
                shutil.rmtree(work, ignore_errors=True)
                rec[side] = stage_digests(path, workload, seed, work)
        rec["identical"] = (isinstance(rec["parent"], dict)
                            and rec["parent"] == rec["change"])
        out[workload] = rec
    return out


def src_lines(checkout):
    """{"files": {name: lines}, "total": lines} of src/ipsmc/*.py in
    checkout, a line being a newline character, as wc -l counts."""
    files = {}
    for path in sorted(glob.glob(os.path.join(checkout, "src", "ipsmc", "*.py"))):
        with open(path, "rb") as f:
            files[os.path.basename(path)] = f.read().count(b"\n")
    return {"files": files, "total": sum(files.values())}


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
    ap.add_argument("--tier1", action="store_true",
                    help="run the Tier-1 suite once per side")
    args = ap.parse_args(argv)

    with open(os.path.join(args.change, "BENCHMARK.json")) as f:
        bench = json.load(f)
    metrics = {m["name"]: m["better"] for m in bench["end_to_end"]}
    # an untraced line reports the end-to-end metrics, a traced one the
    # per-layer metrics
    expected = {0: list(metrics), 1: [m["name"] for m in bench["per_layer"]]}
    seconds = bench.get("run_seconds", 12)
    parent_commit = subprocess.check_output(["git", "rev-parse", "HEAD"],
                                            cwd=args.parent, text=True).strip()
    sides = {"parent": args.parent, "change": args.change}

    runs = []
    n_bad = 0
    for workload in WORKLOADS:
        for pair in range(1, PAIRS + 1):
            order = ["parent", "change"] if pair % 2 else ["change", "parent"]
            results, problems = {}, {}
            for side in order:
                results[side], problems[side] = run_benchmark(
                    sides[side], workload, args.seed, seconds, 0, expected[0])
            runs.append({
                "workload": workload, "pair": pair, "first": order[0],
                "parent": values(results["parent"], metrics),
                "change": values(results["change"], metrics),
                "parent_correct": bool(results["parent"] and results["parent"]["correct"]),
                "change_correct": bool(results["change"] and results["change"]["correct"]),
                "failed_stage_calls": sum(r["failed"] for r in results.values() if r),
                "problems": problems,
            })
            n_bad += sum(bool(p) for p in problems.values())
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
    doc["src_lines"] = {"command": "wc -l src/ipsmc/*.py",
                        **{side: src_lines(path) for side, path in sides.items()}}
    doc["outputs"] = {
        "command": ("python3 -c <STAGES_SCRIPT> {workload} "
                    f"{args.seed} <temporary directory>, from each checkout's root"),
        "workloads": output_digests(sides, args.seed),
    }
    if args.traced:
        traced = []
        for workload in args.traced:
            for side in ("parent", "change"):
                res, problems = run_benchmark(sides[side], workload, args.seed,
                                              seconds, 1, expected[1])
                traced.append({"workload": workload, "side": side,
                               "correct": bool(res and res["correct"]),
                               "metrics": values(res, res["metrics"]) if res else None,
                               "problems": problems})
                n_bad += bool(problems)
        doc["traced"] = {
            "command": (f"python3 perfbench/run.py --workload {{{','.join(args.traced)}}} "
                        f"--seed {args.seed} --seconds {seconds} --trace 1"),
            "runs": traced,
        }
    if args.tier1:
        doc["tier1"] = {"command": "PYTHONPATH=src " + " ".join(["python"] + TIER1[1:]),
                        **{side: run_tier1(sides[side]) for side in ("parent", "change")}}
        n_bad += sum(bool(doc["tier1"][side]["problems"]) for side in sides)
    doc["runs_with_problems"] = n_bad
    with open(args.out, "w") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")
    if n_bad:
        print(f"{n_bad} runs had problems; see their \"problems\" in {args.out}",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
