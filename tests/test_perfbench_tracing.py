"""The benchmark's tracer (perfbench/tracing.py) wraps ipsmc functions by
name. A renamed or deleted function should fail here, not only in a traced
benchmark run. The test imports the tracer and leaves perfbench/ as it is."""

import importlib
import os
import sys

import numpy as np

import ipsmc.smc

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _import_tracing():
    if ROOT not in sys.path:
        sys.path.insert(0, ROOT)
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # no __pycache__ under perfbench/
    try:
        return importlib.import_module("perfbench.tracing")
    finally:
        sys.dont_write_bytecode = saved


def _ipsmc_namespaces():
    """Every ipsmc module and class namespace, by identity of its entries."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if name == "ipsmc" or name.startswith("ipsmc."):
            out[name] = dict(mod.__dict__)
            for attr, val in mod.__dict__.items():
                if isinstance(val, type) and val.__module__ == name:
                    out[f"{name}.{attr}"] = dict(val.__dict__)
    return out


def test_tracer_wraps_every_traced_name_and_restores_it():
    tracing = _import_tracing()
    importlib.import_module("ipsmc.cli")  # binds names in every module
    before = _ipsmc_namespaces()
    tracer = tracing.Tracer()
    with tracer:
        assert tracer.missing == []
        patched = {(id(owner), leaf) for owner, leaf, _ in tracer._restore}
        for _, modname, attr in tracing.TRACED + tracing.OPTIONAL:
            owner_name, _, leaf = attr.rpartition(".")
            module = sys.modules[modname]
            owner = getattr(module, owner_name) if owner_name else module
            assert (id(owner), leaf) in patched, attr
        n = tracer.n
        ipsmc.smc.effective_sample_size(np.zeros(3))
        assert tracer.n == n + 1
    assert tracer._restore == []
    after = _ipsmc_namespaces()
    assert after.keys() == before.keys()
    for key, entries in before.items():
        changed = [k for k, v in entries.items() if after[key].get(k) is not v]
        assert changed == [], key
