"""Correctness checks for the benchmark's workloads, run outside the timed
region.

Each check compares a workload's CLI outputs with the benchmark's own
independent computation, or tests a property the method must have. Every
check is also run on deliberately corrupted copies of the outputs, and a
check that passes a corrupted copy is itself reported as a failure.
"""

from __future__ import annotations

import copy
import json
import math
import os
import sys

import numpy as np
from scipy.linalg import expm

S_, I_, R_ = 0, 1, 2   # SIRS value encoding of the dataset files

# the small system on which infer's normalizer estimates meet an exact
# value, and the twist trained for it: a twist trained on the 32-node graph
# does not transfer to every path of a 4-node graph (see CHANGES.md)
GEN_SMALL = {"seed": 11, "d": 4, "expected_degree": 2.0, "T": 10.0, "K": 10,
             "p_mask": 0.5, "delta": 0.001, "n_train": 20, "n_test": 1}
TWIST_SMALL = {"steps": 300, "batch": 8, "dt": 0.1, "lr": 0.001, "m": 64,
               "loss": "kl", "mc_loss": True, "reuse": 25}
SMALL_REPEATS = 20
# The small-system runs use this seed rather than the run's: a 3-SE test of
# an unbiased estimator fails 0.3% of the time, and a seed-dependent test
# over the ~40 infer runs of a benchmark evaluation would fail one of them
# about one time in ten.
SMALL_SEED = 2024
LOSS_WINDOW = 25


# ---------------------------------------------------------------------------
# reading the files the CLI writes

def read_rows(path):
    """Data rows of a CLI csv (a provenance line, then a header)."""
    with open(path) as f:
        f.readline()
        f.readline()
        return [line.rstrip("\n").split(",") for line in f if line.strip()]


def read_system(ds, split, index):
    """Rates, adjacency weights, initial law and one observation sequence
    of a dataset directory, read from its files."""
    with open(os.path.join(ds, "spec.json")) as f:
        spec = json.load(f)
    with open(os.path.join(ds, "params.json")) as f:
        params = json.load(f)
    adj = np.array(spec["adjacency"], dtype=float)
    xi = np.array(spec["node_features"], dtype=float).reshape(spec["d"], -1)
    weights = adj / (1.0 + np.exp(-(xi @ xi.T)))
    with open(os.path.join(ds, "obs", split, f"{index}.obs")) as f:
        head = dict(tok.split("=", 1) for tok in f.readline().split())
        rows = [line.strip().split(",") for line in f if line.strip()]
    return {
        "d": spec["d"], "V": spec["V"], "W": weights,
        "theta": np.array([params[k] for k in ("alpha0", "alpha1", "beta", "gamma")]),
        "T": float(params["T"]), "infect_prob": float(params["infect_prob"]),
        "p_mask": float(head["p_mask"]), "delta": float(head["delta"]),
        "taus": np.array([float(r[0]) for r in rows]),
        "y": np.array([[int(v) for v in r[1:]] for r in rows], dtype=np.int64),
    }


# ---------------------------------------------------------------------------
# the benchmark's own model arithmetic on the enumerated state space

def states(sys_):
    """All states, coordinate i the i-th base-V digit (least significant
    first), the order of the oracle's output."""
    d, V = sys_["d"], sys_["V"]
    idx = np.arange(V ** d)
    return np.stack([(idx // V ** i) % V for i in range(d)], axis=1)


def off_rates(sys_, Z):
    """(n, d, V) SIRS rates: S->I at alpha0 + alpha1 * (weighted infected
    neighbours), I->R at beta, R->S at gamma."""
    a0, a1, beta, gamma = sys_["theta"]
    pressure = (Z == I_).astype(float) @ sys_["W"].T
    off = np.zeros(Z.shape + (sys_["V"],))
    off[..., I_] = (a0 + a1 * pressure) * (Z == S_)
    off[..., R_] = beta * (Z == I_)
    off[..., S_] = gamma * (Z == R_)
    return off


def log_initial(sys_, Z):
    p = np.zeros(sys_["V"])
    p[S_], p[I_] = 1.0 - sys_["infect_prob"], sys_["infect_prob"]
    with np.errstate(divide="ignore"):
        return np.log(p)[Z].sum(axis=1)


def log_potentials(sys_, Z):
    """(K, n) log emission likelihood of each snapshot in each state."""
    V, pm, delta = sys_["V"], sys_["p_mask"], sys_["delta"]
    hit = math.log((1 - pm) * (1 - delta * (V - 1)))
    miss = math.log((1 - pm) * delta)
    y = sys_["y"][:, None, :]                      # (K, 1, d)
    per_node = np.where(y == Z[None], hit, miss)
    per_node = np.where(y == V, math.log(pm), per_node)
    return per_node.sum(axis=2)


def chain_filter(log_p0, transition, grid, taus, logg):
    """Forward and backward passes of a Markov chain on a grid with
    snapshot potentials at the grid points nearest taus. transition(dt)
    returns the (n, n) one-step matrix. Returns (log Z, (M+1, n) smoothed
    marginals)."""
    hits = {int(np.argmin(np.abs(grid - t))): k for k, t in enumerate(taus)}
    cache = {}

    def step(j):
        dt = grid[j + 1] - grid[j]
        key = round(dt, 12)
        if key not in cache:
            cache[key] = transition(dt)
        return cache[key]

    M = len(grid) - 1
    n = len(log_p0)
    alpha = np.empty((M + 1, n))
    a = np.exp(log_p0)
    log_z = 0.0
    for j in range(M + 1):
        if j > 0:
            a = a @ step(j - 1)
        if j in hits:
            a = a * np.exp(logg[hits[j]])
        c = a.sum()
        log_z += math.log(c)
        a = a / c
        alpha[j] = a
    marg = np.empty_like(alpha)
    b = np.ones(n)
    for j in range(M, -1, -1):
        if j < M:
            nxt = b * np.exp(logg[hits[j + 1]]) if j + 1 in hits else b
            b = step(j) @ nxt
            b = b / b.max()
        post = alpha[j] * b
        marg[j] = post / post.sum()
    return log_z, marg


def generator(sys_, Z):
    """Dense generator from off_rates: single-coordinate moves only."""
    n, d = Z.shape
    V = sys_["V"]
    off = off_rates(sys_, Z)
    Q = np.zeros((n, n))
    powers = V ** np.arange(d)
    for i in range(d):
        for v in range(V):
            rows = np.flatnonzero((Z[:, i] != v) & (off[:, i, v] > 0))
            cols = rows + (v - Z[rows, i]) * powers[i]
            Q[rows, cols] = off[rows, i, v]
    Q[np.arange(n), np.arange(n)] = -Q.sum(axis=1)
    return Q


def euler_transition(sys_, Z):
    """transition(dt) of the Euler product kernel: every coordinate moves
    independently, to v with probability dt * rate, else stays."""
    off = off_rates(sys_, Z)
    exit_ = off.sum(axis=2)
    n, d = Z.shape

    def transition(dt):
        K = dt * off
        K[np.arange(n)[:, None], np.arange(d)[None, :], Z] = 1.0 - dt * exit_
        # P[s, s'] = prod_i K[s, i, Z[s', i]]
        return np.prod(K[:, np.arange(d)[None, :], Z], axis=2)

    return transition


# ---------------------------------------------------------------------------
# exact: the oracle against the benchmark's forward-backward with expm

def exact_view(outs, work, seed, n_train):
    sys_ = read_system(os.path.join(work, "ds"), "train", seed % n_train)
    rows = np.array(read_rows(os.path.join(outs["oracle"], "marginals.csv")), dtype=float)
    Z = states(sys_)
    n = len(Z)
    grid = rows[::n, 0]
    marg = rows[:, 2].reshape(len(grid), n)
    if not np.array_equal(rows[:, 1].reshape(len(grid), n), np.tile(np.arange(n), (len(grid), 1))):
        raise ValueError("marginals.csv rows are not in state order")
    logz = float(read_rows(os.path.join(outs["oracle"], "logz.csv"))[0][0])
    Q = generator(sys_, Z)
    ref_logz, ref_marg = chain_filter(log_initial(sys_, Z), lambda dt: expm(Q * dt),
                                      grid, sys_["taus"], log_potentials(sys_, Z))
    return {"marg": marg, "logz": logz, "ref_marg": ref_marg, "ref_logz": ref_logz,
            "summary": f"max marginal gap {np.abs(marg - ref_marg).max():.3g}, "
                       f"log Z gap {abs(logz - ref_logz):.3g}"}


def check_exact(v):
    out = []
    rowsum = np.abs(v["marg"].sum(axis=1) - 1.0).max()
    if not rowsum <= 1e-9:
        out.append(f"oracle marginal rows sum to one only within {rowsum:.3g}")
    gap = np.abs(v["marg"] - v["ref_marg"]).max()
    if not gap <= 1e-8:
        out.append(f"oracle marginals differ from expm forward-backward by {gap:.3g}")
    dz = abs(v["logz"] - v["ref_logz"])
    if not dz <= 1e-8 * max(1.0, abs(v["ref_logz"])):
        out.append(f"oracle log Z {v['logz']!r} differs from expm value "
                   f"{v['ref_logz']!r}")
    return out


def corrupt_exact(v):
    a = copy.deepcopy(v)
    a["marg"][len(a["marg"]) // 2, 0] += 1e-6
    b = copy.deepcopy(v)
    b["logz"] += 1e-6 * max(1.0, abs(b["logz"]))
    return [("marginal entry off by 1e-6", a), ("log Z off by 1e-6", b)]


# ---------------------------------------------------------------------------
# infer: per-path properties, the method ordering, and exact log Z on a
# small system

def read_infer(out):
    rows = read_rows(os.path.join(out, "metrics.csv"))
    res = {"index": [int(r[0]) for r in rows],
           "ce": np.array([float(r[1]) for r in rows]),
           "brier": np.array([float(r[2]) for r in rows]),
           "logz": np.array([float(r[3]) for r in rows])}
    res["ess"] = [np.array([float(r[1]) for r in
                            read_rows(os.path.join(out, str(i), "ess_history.csv"))])
                  for i in sorted(set(res["index"]))]
    return res


def small_system_ratios(work, S_by_method):
    """Z estimates over the exact Z of the Euler chain the filters simulate,
    from SMALL_REPEATS independent infer runs per method on one path."""
    from workloads import Stage, run_stage

    ds = os.path.join(work, "small_ds")
    twist = os.path.join(work, "small_twist")
    run_stage(Stage("generate", "generate", {**GEN_SMALL, "out": ds}))
    run_stage(Stage("twist", "train-twist",
                    {**TWIST_SMALL, "seed": SMALL_SEED, "dataset": ds, "out": twist}))
    sys_ = read_system(ds, "test", 0)
    Z = states(sys_)
    logz, grid = {}, None
    for method, S in S_by_method.items():
        cfg = {"seed": SMALL_SEED, "dataset": ds,
               "out": os.path.join(work, f"small_{method}"),
               "split": "test", "indices": [0] * SMALL_REPEATS, "dt": 0.1,
               "method": "bpf" if method == "bpf" else "tsmc-kl", "S": S}
        if method != "bpf":
            cfg["checkpoint"] = os.path.join(twist, "twist.npz")
        run_stage(Stage(method, "infer", cfg))
        est = read_infer(cfg["out"])
        times = [float(r[0]) for r in
                 read_rows(os.path.join(cfg["out"], "0", "ess_history.csv"))]
        grid = np.array(times + [sys_["T"]])
        logz[method] = est["logz"]
    off = off_rates(sys_, Z)
    steps = np.diff(grid)
    worst = float(off.sum(axis=2).max() * steps.max())
    log_z, _ = chain_filter(log_initial(sys_, Z), euler_transition(sys_, Z), grid,
                            sys_["taus"], log_potentials(sys_, Z))
    return {m: np.exp(lz - log_z) for m, lz in logz.items()}, worst


def infer_view(outs, work, seed):
    from workloads import workload_stages

    S = {s.label: s.config["S"] for s in workload_stages("infer", seed, work)[2]}
    runs = {m: read_infer(outs[m]) for m in ("bpf", "tsmc")}
    small, worst = small_system_ratios(work, S)
    se = {m: r.std(ddof=1) / math.sqrt(len(r)) for m, r in small.items()}
    summary = (f"mean CE tsmc {runs['tsmc']['ce'].mean():.4f} bpf "
               f"{runs['bpf']['ce'].mean():.4f}; small-system Z / exact Z "
               + ", ".join(f"{m} {small[m].mean():.3f} +- {se[m]:.3f}" for m in small))
    return {"S": S, "runs": runs, "small": small, "small_worst_step": worst,
            "summary": summary}


def check_infer(v):
    out = []
    for m, r in v["runs"].items():
        if not np.all(np.isfinite(r["logz"])):
            out.append(f"{m}: non-finite log Z")
        for name in ("ce", "brier"):
            if not np.all(np.isfinite(r[name]) & (r[name] >= 0)):
                out.append(f"{m}: {name} not finite and nonnegative")
        for ess in r["ess"]:
            if not np.all((ess >= 1 - 1e-9) & (ess <= v["S"][m] * (1 + 1e-12))):
                out.append(f"{m}: ESS outside [1, {v['S'][m]}]")
                break
    ce_t, ce_b = v["runs"]["tsmc"]["ce"].mean(), v["runs"]["bpf"]["ce"].mean()
    if not ce_t < ce_b:
        out.append(f"mean CE of tSMC ({ce_t:.4f}) is not below the bootstrap "
                   f"filter's ({ce_b:.4f})")
    if not v["small_worst_step"] <= 0.995:
        out.append("small system breaks the single-step Euler bound; its exact "
                   "log Z does not apply")
    for m, ratio in v["small"].items():
        se = ratio.std(ddof=1) / math.sqrt(len(ratio))
        if not abs(ratio.mean() - 1.0) <= 3 * se:
            out.append(f"{m}: mean Z estimate / exact Z = {ratio.mean():.4f}, "
                       f"more than 3 SE ({se:.4f}) from one")
    return out


def corrupt_infer(v):
    cases = []
    a = copy.deepcopy(v)
    a["runs"]["bpf"]["logz"][0] = float("nan")
    cases.append(("non-finite log Z", a))
    b = copy.deepcopy(v)
    b["runs"]["tsmc"]["ess"][0][3] = v["S"]["tsmc"] + 1
    cases.append(("ESS above S", b))
    c = copy.deepcopy(v)
    c["runs"]["tsmc"]["brier"][1] = -0.01
    cases.append(("negative Brier score", c))
    d = copy.deepcopy(v)
    d["runs"]["tsmc"]["ce"], d["runs"]["bpf"]["ce"] = v["runs"]["bpf"]["ce"], v["runs"]["tsmc"]["ce"]
    cases.append(("CE of the two methods swapped", d))
    e = copy.deepcopy(v)
    e["small"]["tsmc"] = e["small"]["tsmc"] * math.exp(-5.0)
    cases.append(("small-system log Z estimates 5 nats low", e))
    return cases


# ---------------------------------------------------------------------------
# learn: the sleep loss falls, training improves the rates, and the wake
# gradient matches central differences

def learn_view(outs, work, seed):
    from workloads import workload_stages

    reuse = {s.label: s for s in workload_stages("learn", seed, work)[2]}["train"].config["reuse"]
    losses = np.array([float(r[1]) for r in
                       read_rows(os.path.join(outs["train_twist"], "telemetry.csv"))])
    # wake losses grouped by the batch they were computed on
    batches = {}
    for r in read_rows(os.path.join(outs["train"], "telemetry.csv")):
        if r[1] == "wake":
            batches.setdefault((r[0], (int(r[2]) - 1) // reuse), []).append(float(r[3]))
    with open(os.path.join(outs["train"], "theta.json")) as f:
        tj = json.load(f)
    sys_ = read_system(os.path.join(work, "ds"), "train", 0)
    grad, fd = wake_gradient_pair(work, seed)
    wake = [np.array(b) for b in batches.values()]
    return {"losses": losses, "wake": wake,
            "theta": np.array([tj[k] for k in ("alpha0", "alpha1", "beta", "gamma")]),
            "reported_rpe": float(tj["rpe"]), "truth": sys_["theta"],
            "grad": grad, "fd": fd,
            "summary": f"sleep loss {losses[:LOSS_WINDOW].mean():.3f} -> "
                       f"{losses[-LOSS_WINDOW:].mean():.3f}; wake loss change within "
                       f"batches {wake_descent(wake):.3f}; rpe {tj['rpe']:.4f}"}


def wake_descent(batches):
    """Summed change of the wake loss from the first to the last step taken
    on each wake batch."""
    return float(sum(b[-1] - b[0] for b in batches))


def wake_gradient_pair(work, seed):
    """wake_loss_and_grad's gradient and central differences of its loss on
    an Euler-simulated path of the training data's first snapshot grid."""
    from ipsmc.bench import load_dataset
    from ipsmc.ips import SIRSParams, euler_simulate_batch, make_grid, sirs_model
    from ipsmc.wakesleep import wake_loss_and_grad

    ds = load_dataset(os.path.join(work, "ds"))
    model = sirs_model()
    obs = ds.train_obs[0]
    grid = make_grid(obs.horizon, 0.05, obs.times)
    rng = np.random.default_rng(seed)
    path = euler_simulate_batch(model, ds.spec, ds.params, ds.p0().sample(rng, 1),
                                grid, rng)[0]
    theta = np.array([0.15, 0.8, 0.3, 0.07])

    def loss(th):
        return wake_loss_and_grad(SIRSParams(*th), model, ds.spec, path, obs, grid)

    _, grad = loss(theta)
    fd = np.empty(4)
    for k in range(4):
        h = 1e-5 * theta[k]
        up, down = theta.copy(), theta.copy()
        up[k] += h
        down[k] -= h
        fd[k] = (loss(up)[0] - loss(down)[0]) / (2 * h)
    return np.asarray(grad, dtype=float), fd


def rpe(theta, truth):
    return float(np.sum(np.abs(theta - truth) / np.abs(truth)))


def check_learn(v):
    out = []
    first = v["losses"][:LOSS_WINDOW].mean()
    last = v["losses"][-LOSS_WINDOW:].mean()
    if not last < first:
        out.append(f"train-twist loss did not fall: first window {first:.4f}, "
                   f"last window {last:.4f}")
    if not v["wake"] or not wake_descent(v["wake"]) < 0:
        out.append("wake steps did not lower the wake loss of their batches "
                   "(summed change " + (f"{wake_descent(v['wake']):.4f})" if v["wake"] else "n/a)"))
    th = v["theta"]
    if not np.all(np.isfinite(th) & (th > 0)):
        out.append(f"final theta {th.tolist()} is not finite and positive")
    elif not abs(rpe(th, v["truth"]) - v["reported_rpe"]) <= 1e-9 * max(1.0, v["reported_rpe"]):
        out.append(f"theta.json rpe {v['reported_rpe']!r} disagrees with "
                   f"{rpe(th, v['truth'])!r}")
    err = np.abs(v["grad"] - v["fd"]) / np.maximum(1.0, np.abs(v["fd"]))
    if not err.max() <= 1e-5:
        out.append(f"wake gradient differs from central differences by {err.max():.3g}")
    return out


def corrupt_learn(v):
    a = copy.deepcopy(v)
    a["losses"] = v["losses"][::-1].copy()
    b = copy.deepcopy(v)
    b["wake"] = [w[::-1].copy() for w in v["wake"]]
    c = copy.deepcopy(v)
    c["theta"][0] = -c["theta"][0]
    d = copy.deepcopy(v)
    d["reported_rpe"] += 0.01
    e = copy.deepcopy(v)
    e["grad"][1] *= 1.001
    return [("sleep loss curve reversed", a), ("wake losses reversed", b),
            ("negative rate", c), ("rpe off by 0.01", d), ("wake gradient scaled", e)]


# ---------------------------------------------------------------------------

def check_workload(name, seed, outs, work):
    """Problems found in a workload's outputs, self-test failures included."""
    from workloads import GEN_EXACT

    try:
        if name == "exact":
            view = exact_view(outs, work, seed, GEN_EXACT["n_train"])
            check, corrupt = check_exact, corrupt_exact
        elif name == "infer":
            view = infer_view(outs, work, seed)
            check, corrupt = check_infer, corrupt_infer
        else:
            view = learn_view(outs, work, seed)
            check, corrupt = check_learn, corrupt_learn
    except (OSError, ValueError, IndexError, KeyError, RuntimeError) as e:
        return [f"{name} outputs could not be checked: {e!r}"]
    print(f"{name}: {view['summary']}", file=sys.stderr)
    problems = check(view)
    for what, bad in corrupt(view):
        if not check(bad):
            problems.append(f"self-test: the {name} checks passed a corrupted "
                            f"output ({what})")
    return problems
