"""Shared oracle-backed helpers and references for unit and acceptance
tests."""

import numpy as np

from ipsmc.ips import euler_step_table, make_grid, sample_values, sum_values
from ipsmc import oracle as orc
from ipsmc import smc
from ipsmc import twistnet as tn
from ipsmc.twisting import (SCORE_CLIP, ObservationSequence,
                            emission_log_potential, incremental_ess)
from ipsmc.wakesleep import wake_loss_and_grad


def kernel_pmf(off, Z, dt, table, scores=None):
    """Enumerated one-step pmf of the product kernel that run_smc samples
    from: (B, n), from each state of Z (B, d) with off-target rates off
    (B, d, V) to each state of table (n, d). scores (B, d, V), when given,
    tilt the rates by exp(clipped score) as the twisted proposal does."""
    if scores is not None:
        off = off * np.exp(np.clip(scores, -SCORE_CLIP, SCORE_CLIP))
    probs = euler_step_table(off, Z, dt)
    return probs[:, np.arange(Z.shape[1]), table].prod(axis=2)


def exact_twist_ess_values(spec, model, theta, obs, dt, times=None):
    """Enumerated one-step ESS of the tilted Euler proposal against the
    exact twisted target (true kernel times look-ahead times potential),
    over all states and the requested grid steps."""
    grid = make_grid(obs.horizon, dt, obs.times)
    pots = orc.potential_vectors(spec, obs)
    la = orc.exact_lookahead(model, spec, theta, pots, grid)
    gen = la.gen
    table = orc.state_table(spec)
    if times is None:
        times = range(len(grid) - 1)
    vals = []
    for m in times:
        t, t1 = grid[m], grid[m + 1]
        P = orc.expm_action(gen.Q, t1 - t, np.eye(gen.n))
        tilt = la.log_h_left[m + 1]
        q = kernel_pmf(model.off_rates_batch(t, table, spec, theta), table,
                       t1 - t, table, la.score_table_batch(t, table))
        for s in range(len(table)):
            target = P[s] * np.exp(tilt - tilt.max())
            target /= target.sum()
            vals.append(incremental_ess(q[s], target))
    return np.array(vals)


def propagator_lengths(grid, n):
    """The step lengths of a grid that the oracle's passes take by a
    transition matrix: those the backward and forward passes together step
    at least n times."""
    lengths, counts = np.unique(np.diff(grid), return_counts=True)
    return set(lengths[2 * counts >= n].tolist())


def lookahead_by_expm_action(gen, potentials, grid):
    """(log_h, log_h_left) of exact_lookahead's scaled linear-space
    recursion, with every operator formed afresh by expm_action in place of
    the generator's cached ones: exp(Q delta) = expm_action(Q, delta,
    eye(n)) for a propagator length, the series on the vector elsewhere.
    potentials maps a grid index to its (n,) log potential."""
    M = len(grid) - 1
    n = gen.n
    dense = propagator_lengths(grid, n)
    h = np.zeros((M + 1, n))
    log_scale = np.zeros(M + 1)
    h[M] = 1.0
    v, s = h[M], 0.0
    for j in range(M, 0, -1):
        if j in potentials:
            g = potentials[j]
            c = g[np.isfinite(g)].max()
            v = v * np.exp(g - c)
            m = v.max()
            if m == 0:
                break
            v = v / m
            s += c + np.log(m)
        delta = grid[j] - grid[j - 1]
        if delta in dense:
            w = orc.expm_action(gen.Q, delta, np.eye(n)) @ v
        else:
            w = orc.expm_action(gen.Q, delta, v)
        m = w.max()
        if m == 0:
            break
        h[j - 1] = v = w / m
        s += np.log(m)
        log_scale[j - 1] = s
    with np.errstate(divide="ignore"):
        log_h = np.log(h) + log_scale[:, None]
    log_h_left = log_h.copy()
    for j, vec in potentials.items():
        log_h_left[j] = log_h[j] + vec
    return log_h, log_h_left


def twist_table(params, Phi, Z):
    """(S, d, V) tables of log twist values after single swaps of each
    state of Z (S, d), entry [s, i, Z[s, i]] being the log twist of Z[s]
    itself, from a shared (d, V, m) Phi or one (S, d, V, m) Phi per row,
    with its (S, d, V, m) hidden layer: the dense reference of
    twistnet.twist_score_table. The pooled sum excluding node i is a
    cumulative sum in a fixed prefix/suffix order, so row i is bitwise
    equal for states that agree off node i."""
    own = tn._own(Phi, Z)  # (S, d, m)
    excl = np.zeros_like(own)
    np.cumsum(own[:, :-1], axis=1, out=excl[:, 1:])
    # suffix sums in place: own[:, i] becomes the sum over j >= i
    np.cumsum(own[:, ::-1], axis=1, out=own[:, ::-1])
    excl[:, :-1] += own[:, 1:]
    proj = np.matmul(excl, params.W2, out=own)
    rows = Phi if Phi.ndim == 4 else Phi[None]  # a shared Phi is one row
    hidden = tn._stacked(rows, params.W2)
    hidden += params.b2
    hidden = np.add(hidden, proj[:, :, None, :],
                    out=hidden if len(rows) == len(Z) else None)
    tn.TANH(hidden, out=hidden)
    return tn._stacked(hidden, params.w3) + params.b3, hidden


def skeleton_score(model, spec, theta, skeletons, grid):
    """Mean wake score (minus the wake_loss_and_grad gradient) of grid
    paths given as state indices, skeletons (N, M+1) of any integer type.

    The objective is a sum of one-step terms, so the mean is a
    count-weighted sum over the distinct (step length, from-state,
    to-state) triples of the gradient on a two-point path. Moves are coded
    a * n + b in int64, as one-byte codes wrap once n >= 17. A step of zero
    rate (infinite loss) adds nothing."""
    table = orc.state_table(spec)
    n = len(table)
    dts, cls = np.unique(np.diff(grid), return_inverse=True)
    counts = np.zeros((len(dts), n * n), dtype=np.int64)
    for m in range(skeletons.shape[1] - 1):
        codes = skeletons[:, m].astype(np.int64) * n + skeletons[:, m + 1]
        counts[cls[m]] += np.bincount(codes, minlength=n * n)
    no_obs = ObservationSequence(horizon=float(grid[-1]), times=np.zeros(0),
                                 values=np.zeros((0, spec.d), dtype=np.int64),
                                 V=spec.V, p_mask=0.0, label_noise=0.0)
    score = 0.0
    for c, code in zip(*np.nonzero(counts)):
        a, b = divmod(int(code), n)
        loss, grad = wake_loss_and_grad(theta, model, spec, table[[a, b]],
                                        no_obs, np.array([0.0, dts[c]]))
        if np.isfinite(loss):
            score = score - counts[c, code] * grad
    return score / len(skeletons)


# References for the SMC step, which the tests check the live code against
# bit for bit: a step that tilts even by all-zero scores, and a run loop
# built on it.

def reference_propose_step(model, spec, theta, twist, Z, t, dt, rng):
    """smc._propose_step with every step tilted, even by all-zero scores."""
    S, d = Z.shape
    Z = Z.copy()
    log_ratio = np.zeros(S)
    remaining = np.full(S, float(dt))
    live = np.arange(S)
    while len(live):
        Zl = Z[live]
        n = len(live)
        rows = np.arange(n)[:, None], np.arange(d)[None, :]
        base_off = model.off_rates_batch(t, Zl, spec, theta)
        scores = np.clip(twist.score_table_batch(t, Zl, base_off > 0),
                         -SCORE_CLIP, SCORE_CLIP)
        tw_off = base_off * np.exp(scores)
        exit_b = sum_values(base_off)
        exit_t = sum_values(tw_off)
        worst = np.maximum(exit_b.max(axis=1), exit_t.max(axis=1))
        h = remaining[live]
        split = worst * h > 0.995
        h[split] = 0.995 / worst[split]
        probs = euler_step_table(tw_off, Zl, h)
        Znext = sample_values(probs, rng.random((n, d)))
        jumped = Znext != Zl
        b_at = base_off[rows[0], rows[1], Znext]
        t_at = tw_off[rows[0], rows[1], Znext]
        with np.errstate(divide="ignore", invalid="ignore"):
            jump_term = np.log(b_at) - np.log(t_at)
        stay_term = (np.log1p(-h[:, None] * exit_b)
                     - np.log1p(-h[:, None] * exit_t))
        log_ratio[live] += np.where(jumped, jump_term, stay_term).sum(axis=1)
        Z[live] = Znext
        remaining[live] -= h
        live = live[remaining[live] > 1e-15]
    return Z, log_ratio


def reference_marginals(ens, V, eps):
    """posterior_marginals_from_ensemble by a loop over the particles, each
    weight added in particle order into its (step, node, value) cell."""
    w = ens.normalized_weights()
    S, M1, d = ens.trajectories.shape
    out = np.zeros((M1, d, V))
    for s in range(S):
        for m in range(M1):
            out[m, np.arange(d), ens.trajectories[s, m]] += w[s]
    return (1.0 - eps) * out + eps / V


def reference_run_smc(model, spec, theta, twist, q0, p0, obs, cfg, grid):
    """(states, log weights, log_z, ESS history, trajectories) of run_smc
    with the same arguments, from a loop with reference_propose_step, three
    log-sum-exps per resampling step and a stored history rewritten at
    every resampling."""
    M = len(grid) - 1
    pot = smc._potential_lookup(obs, grid)
    rng = np.random.default_rng(cfg.seed)
    S = cfg.S
    Z = q0.sample(rng, S)
    lh = twist.log_h_batch(grid[0], Z)
    logw = p0.log_pmf_batch(Z) + lh - q0.log_pmf_batch(Z)
    if 0 in pot:
        logw = logw + emission_log_potential(obs, pot[0], Z)
    traj = np.empty((S, M + 1, Z.shape[1]), dtype=np.int64)
    traj[:, 0] = Z
    log_z, ess_history = 0.0, []
    for m in range(M):
        t, t1 = grid[m], grid[m + 1]
        ess = smc.effective_sample_size(logw)
        ess_history.append((float(t), ess))
        if ess < cfg.ess_threshold * S:
            log_z += float(smc.logsumexp(logw)) - np.log(S)
            anc = smc.systematic_resample(logw, rng)
            Z, lh = Z[anc], lh[anc]
            traj[:, : m + 1] = traj[anc, : m + 1]
            logw = np.zeros(S)
        Z, log_ratio = reference_propose_step(model, spec, theta, twist, Z,
                                              t, t1 - t, rng)
        lh_next = twist.log_h_batch(t1, Z)
        logw = logw + log_ratio + (lh_next - lh)
        if m + 1 in pot:
            logw = logw + emission_log_potential(obs, pot[m + 1], Z)
        lh = lh_next
        traj[:, m + 1] = Z
    log_z += float(smc.logsumexp(logw)) - np.log(S)
    return Z, logw, log_z, ess_history, traj
