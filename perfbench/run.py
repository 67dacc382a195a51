#!/usr/bin/env python3
"""ipsmc benchmark: time the ipsmc CLI stages of one workload, check their
outputs, and print one JSON result line.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload infer --seed 1 --seconds 12 --trace 0

Workloads: infer (bootstrap filter and twisted SMC on the 32-node graph),
learn (sleep-only twist training and a short wake-sleep run), exact (the
dense oracle on a 243-state system). ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` reports the per-layer metrics of a traced pass and
the tracing overhead. ``--workload all`` runs the three workloads in turn.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import sys
import time

sys.dont_write_bytecode = True

from workloads import ROOT, STAGE_METRICS, run_stage, workload_stages  # noqa: E402

# set-up is repeated this many times per run and its median reported; the
# twist checkpoint of the infer workload (about 20 s) is made once per run
SETUP_REPEATS = 3
OUT = os.path.join(ROOT, ".perfbench-out")


def tree_digest(path):
    """Digest of every file under path (relative names and bytes)."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(path):
        dirnames.sort()
        for fn in sorted(filenames):
            full = os.path.join(dirpath, fn)
            h.update(os.path.relpath(full, path).encode() + b"\0")
            with open(full, "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def trace_file(trace_dir, stage, k):
    return os.path.join(trace_dir, f"{k:02d}-{stage.label}.json") if trace_dir else None


def run_setup(stages, trace_dir=None):
    """Set-up stages in order; returns their summed wall seconds. A failing
    set-up stage leaves nothing to measure, so its RuntimeError propagates."""
    total = 0.0
    for k, stage in enumerate(stages):
        shutil.rmtree(stage.out, ignore_errors=True)
        total += run_stage(stage, "setup", trace_file(trace_dir, stage, k))["wall"]
    return total


class Result:
    def __init__(self):
        self.metrics = {}     # name -> (value, unit)
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def run_round(self, stages, trace_dir=None):
        """One round of the timed stages: {label: report} of those that
        succeeded; failures are counted."""
        reports = {}
        for k, stage in enumerate(stages):
            shutil.rmtree(stage.out, ignore_errors=True)
            self.attempted += 1
            try:
                reports[stage.label] = run_stage(
                    stage, "round", trace_file(trace_dir, stage, 10 + k))
            except RuntimeError as e:
                self.failed += 1
                print(f"operation failed: {e}", file=sys.stderr)
        return reports


def measure(name, seed, seconds, work):
    """Untraced run: repeated set-up, then whole rounds for `seconds`."""
    setup, once, rounds = workload_stages(name, seed, work)
    res = Result()
    gen_walls = [run_setup(setup) for _ in range(SETUP_REPEATS)]
    setup_s = statistics.median(gen_walls) + run_setup(once)

    # the loop is bounded by time alone and always attempts one round, so a
    # stage that fails every time is counted, not retried without end
    n_rounds, round_walls, peaks, digests = 0, [], [], []
    t_start = time.perf_counter()
    while not n_rounds or time.perf_counter() - t_start < seconds:
        reports = res.run_round(rounds)
        n_rounds += 1
        if len(reports) == len(rounds):
            round_walls.append(sum(r["wall"] for r in reports.values()))
            peaks.append(max(r["maxrss_kib"] for r in reports.values()) / 1024.0)
            digests.append(tuple(tree_digest(s.out) for s in rounds))
    print(f"{name}: set-up {' '.join(f'{w:.3f}' for w in gen_walls)} s; rounds "
          f"{' '.join(f'{w:.3f}' for w in round_walls)} s", file=sys.stderr)
    if len(set(digests)) > 1:
        res.problems.append("rounds with identical configs wrote different outputs")
    res.metrics = {"setup_s": (setup_s, "s")}
    if round_walls:
        res.metrics["round_s"] = (statistics.median(round_walls), "s")
        res.metrics["peak_rss_mib"] = (statistics.median(peaks), "MiB")
    else:
        res.problems.append(f"none of {n_rounds} rounds completed every stage")
    return res, rounds


def measure_traced(name, seed, seconds, work):
    """Pairs of passes over set-up and one round, untraced then traced, for
    `seconds`. The once-only set-up (the infer twist checkpoint) runs
    untraced before the first pair and is reused."""
    from tracing import layer_metrics

    setup, once, rounds = workload_stages(name, seed, work)
    res = Result()
    if once:
        run_setup(setup + once)
    outs = [s.out for s in setup + rounds]
    passes, overheads, untraced_reports = [], [], []
    t_start = time.perf_counter()
    while not passes or time.perf_counter() - t_start < seconds:
        plain_wall = run_setup(setup)
        reports = res.run_round(rounds)
        plain_wall += sum(r["wall"] for r in reports.values())
        untraced_reports.append(reports)
        plain = {out: tree_digest(out) for out in outs}

        trace_dir = os.path.join(work, "trace", str(len(passes)))
        os.makedirs(trace_dir)
        traced_wall = run_setup(setup, trace_dir)
        traced_wall += sum(r["wall"] for r in res.run_round(rounds, trace_dir).values())
        for out in outs:
            if tree_digest(out) != plain[out]:
                res.problems.append("traced output differs from untraced under "
                                    + os.path.relpath(out, work))
        passes.append(sorted(os.path.join(trace_dir, f) for f in os.listdir(trace_dir)))
        overheads.append(traced_wall - plain_wall)

    res.metrics = layer_metrics(passes)
    kept = os.path.join(OUT, f"spans-{name}-seed{seed}")
    shutil.rmtree(kept, ignore_errors=True)
    shutil.copytree(os.path.dirname(passes[-1][0]), kept)
    n = len(untraced_reports)
    for metric, key in (("proc.user_cpu_s", "utime"), ("proc.sys_cpu_s", "stime")):
        total = sum(r[key] for reports in untraced_reports for r in reports.values())
        res.metrics[metric] = (total / n, "s")
    res.metrics["trace.overhead_s"] = (statistics.median(overheads), "s")
    units = {s.label: s.units for s in rounds}
    for label, metric in STAGE_METRICS.items():
        walls = [r[label]["wall"] for r in untraced_reports if label in r]
        res.metrics[metric] = (statistics.median(walls) / units[label] if walls else 0.0, "s")
    return res, rounds


def run_workload(name, seed, seconds, trace, work):
    import checks

    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    res, rounds = (measure_traced if trace else measure)(name, seed, seconds, work)
    res.problems += checks.check_workload(name, seed, {s.label: s.out for s in rounds},
                                          work)
    for p in res.problems:
        print(f"{name}: check failed: {p}", file=sys.stderr)
    return {
        "correct": not res.problems,
        "attempted": res.attempted,
        "failed": res.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in res.metrics.items()},
    }


def find_source():
    """Put the checkout's src/ first on sys.path; exit 2 when it is absent."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "ipsmc", "__init__.py")):
        print(f"no ipsmc source under {src}; run from the root of a checkout",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, src)
    import ipsmc

    if not os.path.abspath(ipsmc.__file__).startswith(src + os.sep):
        print(f"imported ipsmc from {ipsmc.__file__}, not from {src}",
              file=sys.stderr)
        sys.exit(2)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["infer", "learn", "exact", "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=12.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    find_source()

    names = ["infer", "learn", "exact"] if args.workload == "all" else [args.workload]
    ok = True
    for name in names:
        work = os.path.join(OUT, f"{name}-seed{args.seed}-{os.getpid()}")
        try:
            result = run_workload(name, args.seed, args.seconds, args.trace, work)
        except RuntimeError as e:  # a set-up stage failed: nothing to report
            print(f"{name}: {e}", file=sys.stderr)
            ok = False
            continue
        finally:
            shutil.rmtree(work, ignore_errors=True)
        ok = ok and result["correct"]
        if len(names) > 1:
            print(f"workload {name}:", file=sys.stderr)
        print(json.dumps(result))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
