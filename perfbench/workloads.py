"""The benchmark's workloads as ipsmc CLI stages.

Every workload uses fixed datasets; the seed passed to the benchmark is the
seed of every training and inference stage, and for ``exact`` it also picks
which training path the oracle conditions on. See README.md for why each
workload was chosen.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))

GEN32 = {"seed": 2024, "d": 32, "T": 10.0, "K": 10, "p_mask": 0.5,
         "delta": 0.001, "n_train": 50, "n_test": 50,
         "params": {"alpha0": 0.1, "alpha1": 1.0, "beta": 0.4, "gamma": 0.05}}
GEN_EXACT = {"seed": 7, "d": 5, "expected_degree": 2.0, "T": 10.0, "K": 10,
             "p_mask": 0.5, "delta": 0.001, "n_train": 4, "n_test": 0}
INFER_PATHS = list(range(8))
TWIST_STEPS_INFER = 600
TWIST_STEPS_LEARN = 100


class Stage:
    """One ipsmc CLI call: command, config, output directory, and the
    number of work units (paths or steps) its wall time is divided by."""

    def __init__(self, label, command, config, units=1):
        self.label, self.command, self.config, self.units = label, command, config, units

    @property
    def out(self):
        return self.config["out"]


def workload_stages(name, seed, work):
    """(set-up stages, once-only set-up stages, round stages)."""
    p = lambda *parts: os.path.join(work, *parts)  # noqa: E731
    if name == "exact":
        gen = Stage("generate", "generate", {**GEN_EXACT, "out": p("ds")})
        oracle = Stage("oracle", "oracle", {
            "seed": seed, "out": p("oracle"), "dataset": p("ds"),
            "split": "train", "index": seed % GEN_EXACT["n_train"],
            "grid_target": 0.1})
        return [gen], [], [oracle]
    gen = Stage("generate", "generate", {**GEN32, "out": p("ds")})
    twist = {"seed": seed, "dataset": p("ds"), "batch": 32, "dt": 0.1,
             "lr": 0.001, "m": 64, "loss": "kl", "mc_loss": True, "reuse": 25}
    if name == "infer":
        ckpt = Stage("twist", "train-twist", {**twist, "out": p("twist"),
                                               "steps": TWIST_STEPS_INFER})
        common = {"seed": seed, "dataset": p("ds"), "split": "test",
                  "indices": INFER_PATHS, "dt": 0.1}
        bpf = Stage("bpf", "infer", {**common, "out": p("bpf"), "method": "bpf",
                                     "S": 250}, units=len(INFER_PATHS))
        tsmc = Stage("tsmc", "infer", {**common, "out": p("tsmc"),
                                       "method": "tsmc-kl", "S": 25,
                                       "checkpoint": p("twist", "twist.npz")},
                     units=len(INFER_PATHS))
        return [gen], [ckpt], [bpf, tsmc]
    if name == "learn":
        tt = Stage("train_twist", "train-twist",
                   {**twist, "out": p("twist"), "steps": TWIST_STEPS_LEARN},
                   units=TWIST_STEPS_LEARN)
        # pretraining stays below 2 * pretrain_window (100), so its plateau
        # test never runs and every round does the same amount of work. Six
        # wake batches of two paths give the wake-descent check six batches
        # to sum over (see checks.py and README.md).
        train = Stage("train", "train", {
            "seed": seed, "dataset": p("ds"), "out": p("train"), "G": 6,
            "N": 10, "B": 2, "S": 10, "dt": 0.05, "reuse": 10,
            "pretrain_steps": 50, "theta_init": 0.5})
        return [gen], [], [tt, train]
    raise SystemExit(f"unknown workload {name!r}")


# per-stage wall metrics reported in the traced run's untraced pass
STAGE_METRICS = {"bpf": "stage.bpf_s_per_path", "tsmc": "stage.tsmc_s_per_path",
                 "train_twist": "stage.train_twist_s_per_step",
                 "train": "stage.train_s", "oracle": "stage.oracle_s"}


# a stage that runs longer than this is killed and counted as failed; the
# longest stage (the infer twist checkpoint) takes about 20 s, and the cap
# keeps a run with one hung stage, set-up and checks included, within 3 minutes
STAGE_TIMEOUT_S = 60


def run_stage(stage, phase="round", trace_file=None):
    """Write the stage's config and run the CLI on it in a fresh process
    (perfbench/stage.py). Returns the stage's report: wall, utime, stime
    (seconds) and maxrss_kib. Raises RuntimeError if it fails."""
    cfg_path = stage.out + ".json"
    with open(cfg_path, "w") as f:
        json.dump(stage.config, f)
    cmd = [sys.executable, os.path.join(HERE, "stage.py"), os.path.join(ROOT, "src"),
           phase, trace_file or "-", "--",
           stage.command, "--config", cfg_path, "--threads", "1"]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=STAGE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise RuntimeError(f"ipsmc {stage.command} ran over {STAGE_TIMEOUT_S} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"ipsmc {stage.command}: runner exited {proc.returncode}")
    report = json.loads(lines[-1])
    if report["code"] != 0:
        raise RuntimeError(f"ipsmc {stage.command} exited {report['code']}")
    return report
