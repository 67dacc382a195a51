"""The benchmark's learn check (perfbench/checks.py) holds the wake gradient
to central differences of the wake loss. It reads ipsmc through its public
names, so a change to any of them should fail here, not only in a benchmark
run. The test imports the checks and leaves perfbench/ as it is."""

import importlib
import json
import os
import sys

import numpy as np

from ipsmc.cli import main

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _import_checks():
    if ROOT not in sys.path:
        sys.path.insert(0, ROOT)
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # no __pycache__ under perfbench/
    try:
        return importlib.import_module("perfbench.checks")
    finally:
        sys.dont_write_bytecode = saved


def test_wake_gradient_meets_the_learn_bound(tmp_path):
    checks = _import_checks()
    gen = {"seed": 3, "d": 8, "expected_degree": 2.0, "feature_dim": 4,
           "T": 4.0, "K": 4, "n_train": 2, "n_test": 1,
           "out": str(tmp_path / "ds")}
    path = tmp_path / "gen.json"
    path.write_text(json.dumps(gen))
    assert main(["generate", "--config", str(path)]) == 0
    grad, fd = checks.wake_gradient_pair(str(tmp_path), seed=5)
    assert grad.shape == fd.shape == (4,)
    assert np.all(np.isfinite(grad)) and np.any(grad != 0)
    # check_learn's bound, read the way it reads it
    err = np.abs(grad - fd) / np.maximum(1.0, np.abs(fd))
    assert err.max() <= 1e-5
