"""Span tracing of ipsmc's layers from outside the package.

While a Tracer is installed, each traced function is replaced by a timing
wrapper in every ipsmc module that bound it by name (for example both
``ipsmc.ips.euler_simulate_batch`` and ``ipsmc.wakesleep.euler_simulate_batch``);
methods are replaced on their class. Spans (name, start, end, parent, phase)
are kept in memory and written out once, after the run.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import time
from collections import defaultdict

import numpy as np


# (layer name, module, attribute path); the layer name keys the metrics
TRACED = [
    ("smc.run_smc", "ipsmc.smc", "run_smc"),
    ("smc.effective_sample_size", "ipsmc.smc", "effective_sample_size"),
    ("smc.systematic_resample", "ipsmc.smc", "systematic_resample"),
    ("smc.posterior_marginals_from_ensemble", "ipsmc.smc",
     "posterior_marginals_from_ensemble"),
    ("twistnet.score_table_batch", "ipsmc.twistnet", "LearnedTwist.score_table_batch"),
    ("twistnet.log_h_batch", "ipsmc.twistnet", "LearnedTwist.log_h_batch"),
    ("twistnet.sleep_loss_forward_kl", "ipsmc.twistnet", "sleep_loss_forward_kl"),
    ("twistnet.TwistContext.features", "ipsmc.twistnet", "TwistContext.features"),
    ("twistnet.rho_forward", "ipsmc.twistnet", "rho_forward"),
    ("twistnet.rho_backward", "ipsmc.twistnet", "rho_backward"),
    ("twistnet.encoder_backward", "ipsmc.twistnet", "encoder_backward"),
    ("twistnet.adam_step", "ipsmc.twistnet", "adam_step"),
    ("ips.off_rates_batch", "ipsmc.ips", "RateModel.off_rates_batch"),
    ("ips.euler_simulate_batch", "ipsmc.ips", "euler_simulate_batch"),
    ("ips.sirs_rate_grad", "ipsmc.ips", "sirs_rate_grad"),
    ("ips.gillespie_simulate", "ipsmc.ips", "gillespie_simulate"),
    ("twisting.emission_log_table", "ipsmc.twisting", "emission_log_table"),
    ("twisting.sample_emission", "ipsmc.twisting", "sample_emission"),
    ("wakesleep.train", "ipsmc.wakesleep", "train"),
    ("wakesleep.sleep_phase", "ipsmc.wakesleep", "sleep_phase"),
    ("wakesleep.wake_phase", "ipsmc.wakesleep", "wake_phase"),
    ("wakesleep.wake_loss_and_grad", "ipsmc.wakesleep", "wake_loss_and_grad"),
    ("oracle.build_dense_generator", "ipsmc.oracle", "build_dense_generator"),
    ("oracle.exact_lookahead", "ipsmc.oracle", "exact_lookahead"),
    ("oracle.expm_action", "ipsmc.oracle", "expm_action"),
    ("oracle.exact_posterior_marginals", "ipsmc.oracle", "exact_posterior_marginals"),
    ("oracle.exact_log_marginal_likelihood", "ipsmc.oracle",
     "exact_log_marginal_likelihood"),
    ("bench.generate_dataset", "ipsmc.bench", "generate_dataset"),
    ("bench.load_dataset", "ipsmc.bench", "load_dataset"),
]

# module-level helpers that a refactor may delete; a missing one is skipped
# and its metric is then missing from the output
OPTIONAL = [
    ("smc._propose_step", "ipsmc.smc", "_propose_step"),
    ("oracle._uniformized_sum", "ipsmc.oracle", "_uniformized_sum"),
]

# spans under these roots are set-up work; every other layer is counted over
# the timed round only
SETUP_LAYERS = ("bench.generate_dataset", "ips.gillespie_simulate", "cli.generate")

STAGES = ("generate", "oracle", "train-twist", "train", "infer")

# per-layer metrics: (metric name, layer, statistic)
LAYER_METRICS = (
    [(f"{name}.s", name, "s") for name, _, _ in TRACED + OPTIONAL]
    + [(f"{name}.self_s", name, "self_s") for name in (
        "smc.run_smc", "twistnet.sleep_loss_forward_kl", "oracle.expm_action")]
    + [(f"{name}.calls", name, "calls") for name in (
        "twistnet.score_table_batch", "ips.off_rates_batch",
        "wakesleep.wake_loss_and_grad", "oracle.exact_lookahead")]
    + [(f"cli.{stage}.self_s", f"cli.{stage}", "self_s") for stage in STAGES]
)
COUNTERS = ("smc.resample_events", "smc.resample_uniform", "smc.collapses")


# Span storage is allocated once. Growing a list reallocates its buffer, and
# freeing a large buffer raises glibc's dynamic mmap threshold; that removed
# most of twisted SMC's kernel time and made traced passes faster than
# untraced ones.
CAPACITY = 1 << 20


class Tracer:
    """Install with ``with tracer:``; stage roots are opened with ``root``."""

    def __init__(self):
        self.spans = [None] * CAPACITY   # (name, start, end, parent index, phase)
        self.n = 0
        self.counts = {name: 0 for name in COUNTERS}
        self._stack = []
        self._phase = "round"
        self._restore = []
        self.missing = []

    # -- recording -------------------------------------------------------

    def _enter(self):
        idx = self.n
        self.n += 1
        if idx == len(self.spans):
            self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        return idx, parent, time.perf_counter()

    def _exit(self, name, idx, parent, start):
        end = time.perf_counter()
        self._stack.pop()
        self.spans[idx] = (name, start, end, parent, self._phase)

    @contextlib.contextmanager
    def root(self, name, phase):
        self._phase = phase
        state = self._enter()
        try:
            yield
        finally:
            self._exit(name, *state)

    def _wrap(self, name, fn):
        tracer = self
        collapse = sys.modules["ipsmc.errors"].CollapseError
        resample = name == "smc.systematic_resample"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = tracer._enter()
            try:
                if resample:
                    # counted inside the resampling span, so that run_smc's
                    # self time holds none of the check
                    lw = np.asarray(args[0] if args else kwargs["log_weights"])
                    tracer.counts["smc.resample_events"] += 1
                    if lw.size and np.all(lw == lw.flat[0]):
                        tracer.counts["smc.resample_uniform"] += 1
                return fn(*args, **kwargs)
            except collapse:
                if name == "smc.run_smc":
                    tracer.counts["smc.collapses"] += 1
                raise
            finally:
                tracer._exit(name, *state)

        return traced

    # -- installation ----------------------------------------------------

    def __enter__(self):
        for name, modname, attr in TRACED + OPTIONAL:
            module = importlib.import_module(modname)
            owner_name, _, leaf = attr.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            if not hasattr(owner, leaf):
                if (name, modname, attr) in OPTIONAL:
                    self.missing.append(name)
                    continue
                raise AttributeError(f"{modname} has no {attr}")
            original = owner.__dict__[leaf] if owner_name else getattr(owner, leaf)
            wrapper = self._wrap(name, original)
            if owner_name:
                self._patch(owner, leaf, original, wrapper)
                continue
            for modname2, mod in list(sys.modules.items()):
                if (modname2 == "ipsmc" or modname2.startswith("ipsmc.")) \
                        and mod.__dict__.get(leaf) is original:
                    self._patch(mod, leaf, original, wrapper)
        return self

    def _patch(self, owner, leaf, original, wrapper):
        setattr(owner, leaf, wrapper)
        self._restore.append((owner, leaf, original))

    def __exit__(self, *exc):
        for owner, leaf, original in reversed(self._restore):
            setattr(owner, leaf, original)
        self._restore.clear()
        return False

    # -- output ----------------------------------------------------------

    def dump(self, path):
        with open(path, "w") as f:
            json.dump({"spans": self.spans[:self.n], "counts": self.counts,
                       "missing": self.missing}, f)


def layer_totals(spans):
    """{layer: {"s", "self_s", "calls"}} of one traced process, set-up
    layers counted over set-up spans and all other layers over round spans."""
    child = defaultdict(float)
    for name, start, end, parent, phase in spans:
        if parent >= 0:
            child[parent] += end - start
    out = defaultdict(lambda: {"s": 0.0, "self_s": 0.0, "calls": 0})
    for idx, (name, start, end, parent, phase) in enumerate(spans):
        if (phase == "setup") != (name in SETUP_LAYERS):
            continue
        agg = out[name]
        agg["s"] += end - start
        agg["self_s"] += end - start - child[idx]
        agg["calls"] += 1
    return out


def layer_metrics(passes):
    """Per-layer metrics averaged over traced passes; a pass is the list of
    span files its stage processes wrote."""
    sums = defaultdict(float)
    missing = set()
    for files in passes:
        for path in files:
            with open(path) as f:
                data = json.load(f)
            missing.update(data["missing"])
            totals = layer_totals(data["spans"])
            for metric, layer, stat in LAYER_METRICS:
                if layer in totals:
                    sums[metric] += totals[layer][stat]
            for name in COUNTERS:
                sums[name] += data["counts"].get(name, 0)
    n = len(passes)
    out = {}
    for metric, layer, stat in LAYER_METRICS:
        if layer not in missing:
            out[metric] = (sums[metric] / n, "count" if stat == "calls" else "s")
    for name in COUNTERS:
        out[name] = (sums[name] / n, "count")
    return out
