"""Shared oracle-backed helpers for unit and acceptance tests."""

import numpy as np

from ipsmc.ips import euler_step_table, make_grid
from ipsmc import oracle as orc
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
