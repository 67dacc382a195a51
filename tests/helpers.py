"""Shared oracle-backed helpers for unit and acceptance tests."""

import numpy as np

from ipsmc.ips import euler_step_table, make_grid
from ipsmc import oracle as orc
from ipsmc import smc
from ipsmc.twisting import SCORE_CLIP, ExactTwist, incremental_ess


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
    twist = ExactTwist(la, spec)
    gen = la.gen
    table = orc.state_table(spec)
    pot_idx = {int(np.argmin(np.abs(grid - t))): np.asarray(v) for t, v in pots}
    if times is None:
        times = range(len(grid) - 1)
    vals = []
    for m in times:
        t, t1 = grid[m], grid[m + 1]
        P = orc.transition_matrix(gen, t1 - t)
        tilt = la.log_h[m + 1].copy()
        if m + 1 in pot_idx:
            tilt = tilt + pot_idx[m + 1]
        q = kernel_pmf(model.off_rates_batch(t, table, spec, theta), table,
                       t1 - t, table, twist.score_table_batch(t, table))
        for s in range(len(table)):
            target = P[s] * np.exp(tilt - tilt.max())
            target /= target.sum()
            vals.append(incremental_ess(q[s], target))
    return np.array(vals)


def history_rewrite_paths(model, spec, theta, twist, q0, p0, obs, cfg, grid):
    """(S, M+1, d) trajectories of run_smc with the same arguments, stored
    the direct way: one int64 history whose prefix is rewritten through the
    ancestor indices at every resampling. The reference for run_smc's
    ancestor-traced path storage; the draws are those of run_smc."""
    M = len(grid) - 1
    pot = smc._potential_lookup(obs, grid)
    rng = np.random.default_rng(cfg.seed)
    Z = q0.sample(rng, cfg.S)
    lh = twist.log_h_batch(grid[0], Z)
    logw = p0.log_pmf_batch(Z) + lh - q0.log_pmf_batch(Z)
    if 0 in pot:
        logw = logw + smc._emission_batch(obs, pot[0], Z)
    traj = np.empty((cfg.S, M + 1, Z.shape[1]), dtype=np.int64)
    traj[:, 0] = Z
    for m in range(M):
        t, t1 = grid[m], grid[m + 1]
        if smc.effective_sample_size(logw) < cfg.ess_threshold * cfg.S:
            anc = smc.systematic_resample(logw, rng)
            Z, lh = Z[anc], lh[anc]
            traj[:, : m + 1] = traj[anc, : m + 1]
            logw = np.zeros(cfg.S)
        Z, log_ratio = smc._propose_step(model, spec, theta, twist, Z, t,
                                         t1 - t, rng)
        lh_next = twist.log_h_batch(t1, Z)
        logw = logw + log_ratio + (lh_next - lh)
        if m + 1 in pot:
            logw = logw + smc._emission_batch(obs, pot[m + 1], Z)
        lh = lh_next
        traj[:, m + 1] = Z
    return traj
