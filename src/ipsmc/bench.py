"""Epidemic benchmark on expected-degree graphs: data generation with
masked snapshots and the evaluation metrics (cross-entropy, Brier score,
relative parameter error)."""

from __future__ import annotations

import dataclasses
import json
import math
import os
import random
from dataclasses import dataclass

import numpy as np

from .ips import (PathSample, SIRSParams, StateSpaceSpec, gillespie_simulate,
                  read_path, rng_streams, sirs_model, write_path, I, S)
from .smc import FactorizedInitial
from .twisting import (ObservationSequence, read_observations, sample_emission,
                       write_observations)

DEFAULT_INFECT_PROB = 0.1


def generate_graph(d, expected_degree, F, rng) -> StateSpaceSpec:
    """Expected-degree random graph with unit-norm standard-normal node
    features."""
    if d < 2:
        raise ValueError("need at least two nodes")
    if not 0 <= expected_degree < math.inf:
        raise ValueError(f"expected degree must be finite and >= 0, "
                         f"got {expected_degree}")
    seed = int(rng.integers(2**31 - 1))
    adj = np.zeros((d, d), dtype=np.int8)
    for a, b in _expected_degree_edges(d, expected_degree, seed):
        adj[a, b] = adj[b, a] = 1
    if F > 0:
        feats = rng.normal(size=(d, F))
        feats /= np.linalg.norm(feats, axis=1, keepdims=True)
    else:
        feats = np.zeros((d, 0))
    return StateSpaceSpec(d=d, V=3, adjacency=adj, node_features=feats)


def _expected_degree_edges(d, w, seed):
    """Edges of the Chung-Lu graph with every expected degree w and no
    self-loops, drawn by the skipping sampler of Miller & Hagberg (WAW 2011)
    on random.Random(seed). It replays networkx's expected_degree_graph
    draw for draw: with equal weights each edge probability is the same p,
    and the acceptance uniform is still drawn although q / p = 1 accepts.
    Where 1 - p rounds to 1 the skips are endless and there is no edge;
    networkx divides by zero there."""
    if w == 0:
        return []
    rng = random.Random(seed)
    rho = 1 / sum([w] * d)  # summed in sequence, as networkx does
    p = min(w * (w * rho), 1)
    edges = []
    for u in range(d - 1):
        v = u + 1
        while v < d and 1 - p < 1:
            if p != 1:
                v += math.floor(math.log(rng.random(), 1 - p))
            if v < d:
                rng.random()
                edges.append((u, v))
                v += 1
    return edges


def initial_distribution(spec, infect_prob=DEFAULT_INFECT_PROB):
    """Each node independently infected with a small probability, else
    susceptible. The data-generating initial law is a benchmark constant."""
    probs = np.zeros((spec.d, spec.V))
    probs[:, S] = 1.0 - infect_prob
    probs[:, I] = infect_prob
    return FactorizedInitial(probs)


@dataclass
class BenchmarkDataset:
    spec: StateSpaceSpec
    params: SIRSParams
    T: float
    K: int
    p_mask: float
    label_noise: float
    infect_prob: float
    train_paths: list
    train_obs: list
    test_paths: list
    test_obs: list

    def p0(self):
        return initial_distribution(self.spec, self.infect_prob)

    @property
    def model(self):
        """The rate model the data was generated with."""
        return sirs_model()


def generate_dataset(spec, params, T, K, p_mask, delta, n_train, n_test, seed,
                     infect_prob=DEFAULT_INFECT_PROB, mapper=map) -> BenchmarkDataset:
    """Exact trajectories with per-trajectory uniform snapshot times and
    masked noisy observations, simulated through mapper (builtin map, or a
    pool's). Reproducible from the seed alone."""
    model = sirs_model()
    p0 = initial_distribution(spec, infect_prob)
    n = n_train + n_test
    streams = rng_streams(seed, n)

    def one(idx):
        rng = streams[idx]
        z0 = p0.sample(rng, 1)[0]
        path = gillespie_simulate(model, spec, params, z0, T, rng)
        taus = np.sort(rng.uniform(0.0, T, size=K))
        while K and (len(np.unique(taus)) < K or taus[0] <= 0):
            taus = np.sort(rng.uniform(0.0, T, size=K))
        template = ObservationSequence(horizon=T, times=taus,
                                       values=np.full((K, spec.d), spec.V),
                                       V=spec.V, p_mask=p_mask, label_noise=delta)
        if K:
            values = np.stack([sample_emission(template, path.state_at(t), rng)
                               for t in taus])
        else:
            values = np.zeros((0, spec.d), dtype=np.int64)
        obs = ObservationSequence(horizon=T, times=taus, values=values, V=spec.V,
                                  p_mask=p_mask, label_noise=delta)
        return path, obs

    results = list(mapper(one, range(n)))
    paths = [r[0] for r in results]
    obs = [r[1] for r in results]
    return BenchmarkDataset(spec=spec, params=params, T=T, K=K, p_mask=p_mask,
                            label_noise=delta, infect_prob=infect_prob,
                            train_paths=paths[:n_train], train_obs=obs[:n_train],
                            test_paths=paths[n_train:], test_obs=obs[n_train:])


def cross_entropy_metric(marginals, truth_states):
    """Mean negative log smoothed marginal mass of the true value, averaged
    over nodes and grid times. marginals is (M+1, d, V), truth (M+1, d)."""
    marginals = np.asarray(marginals)
    truth_states = np.asarray(truth_states)
    if marginals.shape[:2] != truth_states.shape:
        raise ValueError("marginals and truth disagree on the grid or d")
    M1, d, _ = marginals.shape
    picked = marginals[np.arange(M1)[:, None], np.arange(d)[None, :], truth_states]
    return float(-np.log(picked).mean())


def brier_metric(marginals, truth_states):
    """Mean squared distance between the smoothed marginals and the one-hot
    truth, averaged over nodes and grid times."""
    marginals = np.asarray(marginals)
    truth_states = np.asarray(truth_states)
    if marginals.shape[:2] != truth_states.shape:
        raise ValueError("marginals and truth disagree on the grid or d")
    M1, d, V = marginals.shape
    onehot = np.zeros_like(marginals)
    onehot[np.arange(M1)[:, None], np.arange(d)[None, :], truth_states] = 1.0
    return float(((marginals - onehot) ** 2).sum(axis=2).mean())


def relative_parameter_error(theta_hat, theta_star):
    """Sum over components of |estimate - truth| / |truth|."""
    a = np.asarray(theta_hat, dtype=float)
    b = np.asarray(theta_star, dtype=float)
    if a.shape != b.shape:
        raise ValueError("parameter vectors disagree in length")
    if np.any(b == 0):
        raise ValueError("truth components must be nonzero")
    return float(np.sum(np.abs(a - b) / np.abs(b)))


# ---------------------------------------------------------------------------
# dataset directory layout

def save_dataset(ds: BenchmarkDataset, out_dir):
    os.makedirs(out_dir, exist_ok=True)
    spec_payload = {
        "d": ds.spec.d, "V": ds.spec.V,
        "adjacency": ds.spec.adjacency.tolist(),
        "node_features": ds.spec.node_features.tolist(),
    }
    with open(os.path.join(out_dir, "spec.json"), "w") as f:
        json.dump(spec_payload, f, sort_keys=True)
    with open(os.path.join(out_dir, "params.json"), "w") as f:
        json.dump({**dataclasses.asdict(ds.params), "T": ds.T, "K": ds.K,
                   "p_mask": ds.p_mask, "label_noise": ds.label_noise,
                   "infect_prob": ds.infect_prob}, f, sort_keys=True)
    for split, paths, obs in (("train", ds.train_paths, ds.train_obs),
                              ("test", ds.test_paths, ds.test_obs)):
        pdir = os.path.join(out_dir, "paths", split)
        odir = os.path.join(out_dir, "obs", split)
        os.makedirs(pdir, exist_ok=True)
        os.makedirs(odir, exist_ok=True)
        for k, (path, o) in enumerate(zip(paths, obs)):
            with open(os.path.join(pdir, f"{k}.path"), "w") as f:
                write_path(f, path, ds.spec.V)
            with open(os.path.join(odir, f"{k}.obs"), "w") as f:
                write_observations(f, o)


def load_dataset(out_dir) -> BenchmarkDataset:
    with open(os.path.join(out_dir, "spec.json")) as f:
        sp = json.load(f)
    spec = StateSpaceSpec(d=sp["d"], V=sp["V"],
                          adjacency=np.array(sp["adjacency"], dtype=np.int8),
                          node_features=np.array(sp["node_features"], dtype=float).reshape(sp["d"], -1))
    with open(os.path.join(out_dir, "params.json")) as f:
        pj = json.load(f)
    params = SIRSParams(*(pj[f.name] for f in dataclasses.fields(SIRSParams)))

    def load_split(split):
        pdir = os.path.join(out_dir, "paths", split)
        odir = os.path.join(out_dir, "obs", split)
        paths, obs = [], []
        if not os.path.isdir(pdir):
            return paths, obs
        for k in range(len(os.listdir(pdir))):
            with open(os.path.join(pdir, f"{k}.path")) as f:
                path, _ = read_path(f)
            with open(os.path.join(odir, f"{k}.obs")) as f:
                o = read_observations(f, pj["T"])
            paths.append(path)
            obs.append(o)
        return paths, obs

    train_paths, train_obs = load_split("train")
    test_paths, test_obs = load_split("test")
    return BenchmarkDataset(spec=spec, params=params, T=pj["T"], K=pj["K"],
                            p_mask=pj["p_mask"], label_noise=pj["label_noise"],
                            infect_prob=pj["infect_prob"],
                            train_paths=train_paths, train_obs=train_obs,
                            test_paths=test_paths, test_obs=test_obs)
