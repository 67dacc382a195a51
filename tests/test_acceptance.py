"""Acceptance suite: every criterion runs at its stated tolerance and
prints one pass/fail line. The heavy end-to-end runs (parameter recovery,
method ordering, command determinism) drive the CLI exactly as an
operator would."""

import json
import math
import os
import shutil

import numpy as np
import pytest
from scipy.special import logsumexp

from ipsmc.ips import (SIRSParams, StateSpaceSpec, gillespie_simulate,
                       make_grid, sirs_model)
from ipsmc import oracle as orc
from ipsmc import twistnet as tn
from ipsmc.cli import main as cli_main
from ipsmc.smc import (DenseInitial, SMCConfig, bpf_run, doob_initial,
                       run_smc)
from ipsmc.twisting import ExactTwist, ObservationSequence

from conftest import chain_spec, make_flip_model
from helpers import exact_twist_ess_values, kernel_pmf, skeleton_score
from test_oracle import _obs


def _report(num, name, ok, detail=""):
    print(f"criterion {num:>2} [{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"criterion {num}: {detail}"


# ---------------------------------------------------------------------------
# 1. product-kernel convergence rate

def test_criterion_1_euler_rate():
    spec = chain_spec(3, V=2)
    model = make_flip_model(0.5, 0.7, coupling=0.6)
    gen = orc.build_dense_generator(model, spec, None)
    table = orc.state_table(spec)
    off = model.off_rates_batch(0.0, table, spec, None)

    def max_tv(dt):
        P = orc.expm_action(gen.Q, dt, np.eye(gen.n))
        q = kernel_pmf(off, table, dt, table)
        return float((0.5 * np.abs(q - P).sum(axis=1)).max())

    tvs = [max_tv(dt) for dt in (0.2, 0.1, 0.05, 0.025)]
    ratios = [a / b for a, b in zip(tvs, tvs[1:])]
    ok = all(2.5 <= r <= 6.0 for r in ratios)
    _report(1, "product-kernel TV rate", ok,
            "ratios " + ", ".join(f"{r:.2f}" for r in ratios) + " in [2.5, 6]")


# ---------------------------------------------------------------------------
# 2. conditioned-process simulation matches exact smoothing marginals

@pytest.mark.slow
def test_criterion_2_doob_consistency(pair_spec):
    theta = SIRSParams(0.3, 1.0, 0.5, 0.3)
    model = sirs_model()
    obs = _obs(pair_spec, 2.0, [1.1], [[1, 3]], p_mask=0.5, delta=0.02)
    grid = make_grid(2.0, 0.05, obs.times)
    pots = orc.potential_vectors(pair_spec, obs)
    la = orc.exact_lookahead(model, pair_spec, theta, pots, grid)
    p0_vec = np.zeros(9)
    p0_vec[orc.state_index(pair_spec, [1, 0])] = 1.0
    marg, _ = orc.exact_posterior_marginals(model, pair_spec, theta, p0_vec, obs,
                                            grid)
    twisted = la.twisted_model(model, pair_spec, theta)
    n = 10_000
    rng = np.random.default_rng(2024)
    check = [int(np.argmin(np.abs(grid - t)))
             for t in (0.4, 0.8, 1.2, 1.6, 2.0)]
    counts = np.zeros((len(check), 9))
    for _ in range(n):
        path = gillespie_simulate(twisted, pair_spec, theta, np.array([1, 0]),
                                  2.0, rng)
        for c, j in enumerate(check):
            counts[c, orc.state_index(pair_spec, path.state_at(grid[j]))] += 1
    worst = 0.0
    ok = True
    for c, j in enumerate(check):
        emp = counts[c] / n
        band = 3 * np.sqrt(marg[j] * (1 - marg[j]) / n) + 1.0 / n
        ok &= bool(np.all(np.abs(emp - marg[j]) <= band))
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(band > 0, np.abs(emp - marg[j]) / band, 0.0)
        worst = max(worst, float(np.nanmax(ratio)))
    _report(2, "twisted simulation vs smoothing marginals", ok,
            f"worst |error|/band = {worst:.2f} over 5 times x 9 states")


# ---------------------------------------------------------------------------
# 3. incremental ESS of the exact twist

def _ess_system():
    spec = chain_spec(2, V=2)
    model = make_flip_model(0.3, 0.3, coupling=1.5)
    obs = ObservationSequence(horizon=1.0, times=np.array([0.6]),
                              values=np.array([[1, 0]]), V=2, p_mask=0.0,
                              label_noise=0.1)
    return spec, model, obs


def test_criterion_3_incremental_ess():
    spec, model, obs = _ess_system()
    fine = exact_twist_ess_values(spec, model, None, obs, 0.01)
    deficits = []
    for dt in (0.1, 0.05, 0.025):
        vals = exact_twist_ess_values(spec, model, None, obs, dt)
        deficits.append(1.0 / vals.mean() - 1.0)
    slope = np.polyfit(np.log([0.1, 0.05, 0.025]), np.log(deficits), 1)[0]
    ok = fine.mean() >= 0.99 and 1.6 <= slope <= 2.4
    _report(3, "exact-twist incremental ESS", ok,
            f"mean ESS(dt=0.01) = {fine.mean():.5f} >= 0.99, "
            f"log-log slope = {slope:.2f} in [1.6, 2.4]")


# ---------------------------------------------------------------------------
# 4. normalizer consistency

def test_criterion_4_log_normalizer():
    spec, model, obs = _ess_system()
    p0_vec = np.full(4, 0.25)
    grid = make_grid(1.0, 0.01, obs.times)
    exact = orc.exact_log_marginal_likelihood(model, spec, None, p0_vec, obs,
                                              grid)
    la = orc.exact_lookahead(model, spec, None,
                             orc.potential_vectors(spec, obs), grid)
    twist = ExactTwist(la, spec)
    q0 = doob_initial(spec, p0_vec, la)
    p0 = DenseInitial(spec, p0_vec)
    tz = [run_smc(model, spec, None, twist, q0, p0, obs,
                  SMCConfig(S=256, dt=0.01, seed=s), grid=grid)[1]
          for s in range(20)]
    bz = [bpf_run(model, spec, None, p0, obs,
                  SMCConfig(S=2048, dt=0.01, seed=100 + s), grid=grid)[1]
          for s in range(20)]
    t_rel = abs(np.mean(tz) - exact) / abs(exact)
    b_se = np.std(bz, ddof=1) / math.sqrt(len(bz))
    b_dev = abs(np.mean(bz) - exact)
    ok = t_rel < 0.01 and b_dev <= 3 * b_se
    _report(4, "normalizer estimates vs exact", ok,
            f"exact {exact:.4f}; twisted rel err {t_rel:.3%} < 1%; "
            f"bootstrap dev {b_dev:.4f} <= 3 SE ({3 * b_se:.4f})")


# ---------------------------------------------------------------------------
# 5. posterior score identity

@pytest.mark.slow
def test_criterion_5_fisher_identity(pair_spec):
    theta = SIRSParams(0.25, 0.4, 0.35, 1.2)
    model = sirs_model()
    obs = _obs(pair_spec, 2.0, [0.4, 0.8, 1.2, 1.6, 2.0],
               [[1, 0], [1, 1], [2, 1], [0, 2], [1, 0]], p_mask=0.0,
               delta=0.02)
    p0_vec = np.full(9, 1 / 9)

    def logz(arr):
        th = SIRSParams(*arr)
        g = orc.oracle_grid(model, pair_spec, th, obs, target=0.05)
        return orc.exact_log_marginal_likelihood(model, pair_spec, th, p0_vec,
                                                 obs, g)

    base = theta.as_array()
    fd = np.zeros(4)
    for j in range(4):
        hi = base.copy()
        hi[j] += 1e-5
        lo = base.copy()
        lo[j] -= 1e-5
        fd[j] = (logz(hi) - logz(lo)) / 2e-5
    grid = make_grid(2.0, 0.0025, obs.times)
    sk = orc.sample_posterior_skeleton(model, pair_spec, theta, p0_vec, obs,
                                       grid, 100_000,
                                       np.random.default_rng(0))
    g = skeleton_score(model, pair_spec, theta, sk, grid)
    rel = np.abs(g - fd) / np.abs(fd)
    ok = bool(np.all(rel < 0.02))
    _report(5, "posterior score vs marginal-likelihood gradient", ok,
            "per-parameter rel err " + ", ".join(f"{r:.3%}" for r in rel)
            + " < 2%")


# ---------------------------------------------------------------------------
# 6. loss gradients against central differences

def test_criterion_6_gradient_exactness():
    from ipsmc.ips import euler_simulate_batch

    spec = chain_spec(2, V=3)
    theta = SIRSParams(0.3, 1.0, 0.5, 0.3)
    model = sirs_model()
    obs = ObservationSequence(horizon=1.0, times=np.array([0.4, 0.9]),
                              values=np.array([[1, 3], [2, 1]]), V=3,
                              p_mask=0.5, label_noise=0.001)
    params = tn.init_params(3, m=4, seed=1)
    rng = np.random.default_rng(1000)
    for k, a in params.arrays().items():
        a[...] += rng.normal(size=a.shape) * 0.2
    grid = make_grid(1.0, 0.1, obs.times)
    states = euler_simulate_batch(model, spec, theta, np.array([[0, 1]]), grid,
                                  np.random.default_rng(3))[0]
    neg = euler_simulate_batch(model, spec, theta, np.array([[1, 0]]), grid,
                               np.random.default_rng(4))[0]
    ctx = tn.TwistContext(spec, obs)
    sleep_item = tn.SleepItem(grid=grid, states=states, ctx=ctx)
    dre_item = tn.DREItem(grid=grid, states_pos=states, states_neg=neg, ctx=ctx)

    losses = {
        "sleep-kl": lambda q: tn.sleep_loss_forward_kl(q, model, spec, theta,
                                                       [sleep_item])[0],
        "dre": lambda q: tn.dre_loss(q, spec, [dre_item])[0],
    }
    grads = {
        "sleep-kl": tn.sleep_loss_forward_kl(params, model, spec, theta,
                                             [sleep_item])[1],
        "dre": tn.dre_loss(params, spec, [dre_item])[1],
    }
    worst = 0.0
    ok = True
    for name, loss_fn in losses.items():
        for k, a in params.arrays().items():
            fd = np.zeros_like(a)
            it = np.nditer(a, flags=["multi_index"])
            while not it.finished:
                ix = it.multi_index
                hi = params.copy()
                hi.arrays()[k][ix] += 1e-6
                lo = params.copy()
                lo.arrays()[k][ix] -= 1e-6
                fd[ix] = (loss_fn(hi) - loss_fn(lo)) / 2e-6
                it.iternext()
            num = np.linalg.norm(grads[name][k] - fd)
            den = np.linalg.norm(fd)
            if den < 1e-8:
                ok &= num < 1e-8
            else:
                worst = max(worst, num / den)
                ok &= num / den < 1e-5
    _report(6, "sleep-KL and DRE gradient exactness", ok,
            f"worst relative deviation {worst:.2e} < 1e-5")


# ---------------------------------------------------------------------------
# 7. aggregator table algebra

def test_criterion_7_twist_table_algebra():
    rng = np.random.default_rng(77)
    params = tn.init_params(3, m=64, seed=77)
    for k, a in params.arrays().items():
        a[...] += rng.normal(size=a.shape) * 0.2
    d, V = 32, 3
    Phi = rng.normal(size=(d, V, 64)) * 0.3
    worst_naive = 0.0
    invariance_exact = True
    for _ in range(1000):
        z = rng.integers(0, V, size=d)
        i = int(rng.integers(d))
        u = int(rng.integers(V))
        v = int(rng.integers(V))
        table = tn.twist_score_table(params, Phi, z[None])[0]
        naive = (tn.twist_log_values(params, Phi,
                                     np.concatenate([z[:i], [v], z[i + 1:]])[None])[0]
                 - tn.twist_log_values(params, Phi, z[None])[0])
        worst_naive = max(worst_naive, abs(table[i, v] - naive))
        z2 = z.copy()
        z2[i] = u
        H1, _ = tn.twist_table(params, Phi, z[None])
        H2, _ = tn.twist_table(params, Phi, z2[None])
        invariance_exact &= bool(np.array_equal(H1[0, i], H2[0, i]))
    ok = worst_naive <= 1e-10 and invariance_exact
    _report(7, "shifted-sum table algebra", ok,
            f"max |table - naive| = {worst_naive:.2e} <= 1e-10; "
            f"swap invariance bitwise exact over 1000 tuples")


# ---------------------------------------------------------------------------
# 8 & 9: benchmark runs through the CLI

BENCH_GEN = {
    "seed": 2024, "d": 32, "expected_degree": 5.0, "feature_dim": 16,
    "T": 10.0, "K": 10, "p_mask": 0.5, "delta": 0.001, "n_train": 50,
    "n_test": 50,
    "params": {"alpha0": 0.1, "alpha1": 1.0, "beta": 0.4, "gamma": 0.05},
}


@pytest.fixture(scope="module")
def bench_dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("bench")
    ds = str(root / "ds32")
    cfg = dict(BENCH_GEN, out=ds)
    path = str(root / "gen.json")
    with open(path, "w") as f:
        json.dump(cfg, f)
    assert cli_main(["generate", "--config", path]) == 0
    return ds


def _run_cli(tmp_path, name, command, cfg):
    path = os.path.join(tmp_path, f"{name}.json")
    with open(path, "w") as f:
        json.dump(cfg, f)
    assert cli_main([command, "--config", path]) == 0


@pytest.mark.slow
def test_criterion_8_parameter_recovery(bench_dataset, tmp_path):
    out = str(tmp_path / "train_run")
    _run_cli(tmp_path, "train", "train", {
        "seed": 7, "dataset": bench_dataset, "out": out, "G": 25, "N": 25,
        "B": 16, "S": 10, "dt": 0.05, "reuse": 25, "lr_psi": 0.0003,
        "lr_theta": 0.005, "mc_loss": True, "loss": "kl", "m": 64,
        "pretrain_steps": 2500, "theta_init": 0.2,
    })
    with open(os.path.join(out, "theta.json")) as f:
        theta = json.load(f)
    ok = theta["rpe"] <= 1.0 and abs(theta["beta"] - 0.4) <= 0.1
    _report(8, "wake-sleep parameter recovery (32 nodes)", ok,
            f"rpe = {theta['rpe']:.3f} <= 1.0, beta = {theta['beta']:.3f} "
            f"(target 0.4 +- 0.1); full estimate "
            f"({theta['alpha0']:.3f}, {theta['alpha1']:.3f}, "
            f"{theta['beta']:.3f}, {theta['gamma']:.4f})")


@pytest.mark.slow
def test_criterion_9_method_ordering(bench_dataset, tmp_path):
    twist_out = str(tmp_path / "twist_kl")
    _run_cli(tmp_path, "twist", "train-twist", {
        "seed": 1, "dataset": bench_dataset, "out": twist_out, "steps": 1500,
        "batch": 32, "dt": 0.1, "lr": 0.001, "m": 64, "loss": "kl",
        "mc_loss": True, "reuse": 25,
    })
    runs = {
        "tsmc": {"seed": 5, "dataset": bench_dataset,
                 "out": str(tmp_path / "inf_tsmc"), "split": "test",
                 "method": "tsmc-kl",
                 "checkpoint": os.path.join(twist_out, "twist.npz"),
                 "S": 25, "dt": 0.1},
        "bpf": {"seed": 5, "dataset": bench_dataset,
                "out": str(tmp_path / "inf_bpf"), "split": "test",
                "method": "bpf", "S": 250, "dt": 0.1},
    }
    ces = {}
    obs_ess = {}
    for name, cfg in runs.items():
        _run_cli(tmp_path, f"inf_{name}", "infer", cfg)
        vals = []
        with open(os.path.join(cfg["out"], "metrics.csv")) as f:
            f.readline()
            f.readline()
            for line in f:
                vals.append(float(line.split(",")[1]))
        ces[name] = np.array(vals)
        obs_ess[name] = _obs_time_ess(bench_dataset, cfg["out"], cfg["S"])
    gap = ces["bpf"].mean() - ces["tsmc"].mean()
    se = math.sqrt(ces["bpf"].var(ddof=1) / 50 + ces["tsmc"].var(ddof=1) / 50)
    ess_ordered = obs_ess["bpf"] < obs_ess["tsmc"]
    ok = gap > 2 * se and ess_ordered
    _report(9, "twisted SMC beats bootstrap on test CE", ok,
            f"CE {ces['tsmc'].mean():.3f} (S=25) vs {ces['bpf'].mean():.3f} "
            f"(S=250); gap {gap:.3f} > 2 x combined SE {2 * se:.3f}; "
            f"median snapshot ESS/S {obs_ess['bpf']:.3f} (bootstrap) < "
            f"{obs_ess['tsmc']:.3f} (twisted)")


def _obs_time_ess(dataset, out_dir, S):
    """Median normalized ESS at the grid steps carrying a snapshot."""
    from ipsmc.bench import load_dataset

    ds = load_dataset(dataset)
    vals = []
    for idx, obs in enumerate(ds.test_obs):
        path = os.path.join(out_dir, str(idx), "ess_history.csv")
        times, ess = [], []
        with open(path) as f:
            f.readline()
            f.readline()
            for line in f:
                t, e = line.split(",")
                times.append(float(t))
                ess.append(float(e))
        times = np.array(times)
        ess = np.array(ess)
        for tau in obs.times:
            j = np.argmin(np.abs(times - tau))
            vals.append(ess[j] / S)
    return float(np.median(vals))


# ---------------------------------------------------------------------------
# 10. command determinism

def test_criterion_10_determinism(tmp_path):
    ds = str(tmp_path / "ds")
    twist = str(tmp_path / "twist")
    stages = [
        ("generate", {"seed": 3, "out": ds, "d": 3, "T": 2.0, "K": 3,
                      "n_train": 3, "n_test": 2, "feature_dim": 4,
                      "expected_degree": 1.5,
                      "params": {"alpha0": 0.3, "alpha1": 1.0, "beta": 0.5,
                                 "gamma": 0.3}}),
        ("oracle", {"seed": 0, "dataset": ds, "out": str(tmp_path / "orc"),
                    "index": 0}),
        ("train-twist", {"seed": 2, "dataset": ds, "out": twist, "steps": 20,
                         "batch": 4, "dt": 0.2, "m": 8, "reuse": 10}),
        ("train", {"seed": 4, "dataset": ds, "out": str(tmp_path / "tr"),
                   "G": 1, "N": 2, "B": 2, "S": 4, "dt": 0.2, "reuse": 2,
                   "pretrain_steps": 2, "m": 8}),
        ("infer", {"seed": 5, "dataset": ds, "out": str(tmp_path / "inf"),
                   "split": "test", "method": "tsmc-kl",
                   "checkpoint": os.path.join(twist, "twist.npz"), "S": 8,
                   "dt": 0.2, "store_particles": True}),
        ("evaluate", {"seed": 0, "out": str(tmp_path / "ev"),
                      "inputs": [str(tmp_path / "inf")]}),
    ]

    def digest(root):
        out = {}
        for base, _, files in os.walk(root):
            for fn in sorted(files):
                p = os.path.join(base, fn)
                with open(p, "rb") as f:
                    out[os.path.relpath(p, root)] = f.read()
        return out

    snapshots = []
    for threads in ("1", "8", "1"):
        for cmd, cfg in stages:
            if os.path.isdir(cfg["out"]):
                shutil.rmtree(cfg["out"])
            path = os.path.join(tmp_path, f"{cmd}.json")
            with open(path, "w") as f:
                json.dump(cfg, f)
            assert cli_main([cmd, "--config", path, "--threads", threads,
                             "--svg"]) == 0
        snapshots.append({cmd: digest(cfg["out"]) for cmd, cfg in stages})
    ok = snapshots[0] == snapshots[1] == snapshots[2]
    n_files = sum(len(v) for v in snapshots[0].values())
    _report(10, "byte-identical reruns across thread counts", ok,
            f"{n_files} output files identical for threads 1/8/1")
