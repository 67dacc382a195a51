"""Weighted-particle machinery: ESS, systematic resampling, the bootstrap
filter, and twisted SMC with the tilt-induced proposal.

Weight bookkeeping follows the product-of-mean-increments normalizer: at
every resampling event the accumulator absorbs the log-mean of the
current weights and the weights reset to uniform; the final log-mean is
added at the horizon. With a constant twist and no potentials every
increment is exactly zero, so the estimate is exactly zero.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import CollapseError
from .ips import euler_step_table, make_grid, sample_values, sum_values
from .twisting import ConstantTwist, SCORE_CLIP, emission_log_table


@dataclass
class SMCConfig:
    S: int
    dt: float
    ess_threshold: float = 1.0
    store_paths: bool = True
    seed: int = 0

    def __post_init__(self):
        if self.S < 1:
            raise ValueError("S must be >= 1")
        if self.dt <= 0:
            raise ValueError("dt must be > 0")
        if not 0.0 < self.ess_threshold <= 1.0:
            raise ValueError("ess_threshold must lie in (0, 1]")


@dataclass
class ParticleEnsemble:
    grid: np.ndarray
    states: np.ndarray        # (S, d) final states
    log_weights: np.ndarray   # (S,) final unnormalized log weights
    trajectories: np.ndarray | None  # (S, M+1, d) if stored
    ancestors: np.ndarray | None = None  # (M, S) grid-m parent of particle s at m+1
    ess_history: list = field(default_factory=list)   # (time, ess)

    @property
    def S(self):
        return len(self.log_weights)

    def normalized_weights(self):
        lw = self.log_weights - logsumexp(self.log_weights)
        return np.exp(lw)


def logsumexp(a, axis=None, keepdims=False):
    """log(sum(exp(a))) over axis, bitwise equal to SciPy 1.17's
    scipy.special.logsumexp on real float64 input, without its array-API
    dispatch. Every entry tied at the maximum is taken out of the sum and
    counted (m), so the result is log1p(s / m) + log(m) + a_max with s the
    sum of exp(a - a_max) over the rest (Blanchard, Higham & Higham, IMA J.
    Numer. Anal. 2021). Where that is not finite (an infinite maximum, or
    every entry -inf) the result is log(sum(exp(a))). A 1-D reduction
    returns a NumPy float64 scalar."""
    a = np.asarray(a, dtype=float)
    axis = tuple(range(a.ndim)) if axis is None else axis
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        a_max = np.max(a, axis=axis, keepdims=True)
        tied = a == a_max
        m = np.sum(tied, axis=axis, keepdims=True, dtype=float)
        s = np.sum(np.exp(np.where(tied, -np.inf, a) - a_max),
                   axis=axis, keepdims=True)
        s = np.where(s == 0, s, s / m)
        out = np.log1p(s) + np.log(m) + a_max
        finite = np.isfinite(out)
        if not finite.all():
            direct = np.log(np.sum(np.exp(a), axis=axis, keepdims=True))
            out = np.where(finite, out, direct)
    if not keepdims:
        out = np.squeeze(out, axis=axis)
    return out[()] if out.ndim == 0 else out


def effective_sample_size(log_weights):
    lw = np.asarray(log_weights, dtype=float)
    finite = np.isfinite(lw)
    if not np.any(finite):
        raise CollapseError("all particle weights are -inf")
    lwn = lw - logsumexp(lw)
    return float(np.exp(-logsumexp(2.0 * lwn)))


def systematic_resample(log_weights, rng, n_out=None):
    """Ancestor indices with one shared uniform shift; offspring counts are
    floor or ceil of n_out * normalized weight, indices come out sorted."""
    lw = np.asarray(log_weights, dtype=float)
    if not np.any(np.isfinite(lw)):
        raise CollapseError("cannot resample collapsed weights")
    w = np.exp(lw - logsumexp(lw))
    if n_out is None:
        n_out = len(w)
    positions = (rng.random() + np.arange(n_out)) / n_out
    cum = np.cumsum(w)
    cum[-1] = 1.0
    return np.searchsorted(cum, positions, side="right").astype(np.int64)


class FactorizedInitial:
    """Product over nodes of per-node categoricals: probs is (d, V)."""

    def __init__(self, probs):
        probs = np.asarray(probs, dtype=float)
        if np.any(probs < 0) or np.any(np.abs(probs.sum(axis=1) - 1) > 1e-12):
            raise ValueError("rows must be distributions")
        self.probs = probs
        with np.errstate(divide="ignore"):
            self.log_probs = np.log(probs)

    def sample(self, rng, S):
        return sample_values(self.probs, rng.random((S, len(self.probs))))

    def log_pmf_batch(self, Z):
        d = self.probs.shape[0]
        return self.log_probs[np.arange(d)[None, :], Z].sum(axis=1)


class DenseInitial:
    """Explicit distribution over the enumerated state space (tiny systems)."""

    def __init__(self, spec, probs):
        from .oracle import state_index, state_table

        self._index = lambda Z: state_index(spec, Z)
        self.table = state_table(spec)
        probs = np.asarray(probs, dtype=float)
        self.probs = probs / probs.sum()
        with np.errstate(divide="ignore"):
            self.log_probs = np.log(self.probs)

    def sample(self, rng, S):
        idx = rng.choice(len(self.probs), size=S, p=self.probs)
        return self.table[idx]

    def log_pmf_batch(self, Z):
        return self.log_probs[self._index(Z)]


def doob_initial(spec, p0_vec, lookahead):
    """Exact twisted initial distribution: prior mass times look-ahead."""
    with np.errstate(divide="ignore"):
        logq = np.log(np.asarray(p0_vec, dtype=float)) + lookahead.log_h[0]
    m = logq.max()
    return DenseInitial(spec, np.exp(logq - m))


def _potential_lookup(obs, grid):
    """Map grid index -> observation index for grid points that carry one."""
    out = {}
    for k, tau in enumerate(obs.times):
        j = int(np.argmin(np.abs(grid - tau)))
        if abs(grid[j] - tau) > 1e-9:
            raise ValueError(f"grid does not contain observation time {tau}")
        out[j] = k
    return out


def run_smc(model, spec, theta, twist, q0, p0, obs, cfg, grid=None):
    """Generic twisted SMC (Algorithm: propose with the tilted product
    kernel, weight by prior/proposal times the twist ratio times any
    potential hit at the new grid time, resample adaptively).

    Returns (ParticleEnsemble, log normalizer estimate).
    """
    if grid is None:
        grid = make_grid(obs.horizon, cfg.dt, obs.times)
    grid = np.asarray(grid, dtype=float)
    M = len(grid) - 1
    pot = _potential_lookup(obs, grid)
    rng = np.random.default_rng(cfg.seed)
    S = cfg.S

    Z = q0.sample(rng, S)
    lh = twist.log_h_batch(grid[0], Z)
    logw = p0.log_pmf_batch(Z) + lh - q0.log_pmf_batch(Z)
    if 0 in pot:
        logw = logw + _emission_batch(obs, pot[0], Z)
    _check_alive(logw, step=0)

    # path storage (Jacob, Murray & Rubenthaler 2015): each step's states
    # are written once into a compact history and the paths are traced back
    # through the parent rows at the end, so a resampling costs one (S,) row
    # instead of a copy of every stored prefix
    hist = None
    if cfg.store_paths:
        hist = np.empty((M + 1, S, Z.shape[1]),
                        dtype=np.min_scalar_type(spec.V - 1))
        hist[0] = Z
    parents = np.tile(np.arange(S), (M, 1))

    log_z = 0.0
    ess_history = []
    log_S = np.log(S)

    for m in range(M):
        t, t1 = grid[m], grid[m + 1]
        dt = t1 - t
        ess = effective_sample_size(logw)
        ess_history.append((float(t), ess))
        if ess < cfg.ess_threshold * S:
            log_z += float(logsumexp(logw)) - log_S
            anc = systematic_resample(logw, rng)
            Z = Z[anc]
            lh = lh[anc]
            logw = np.zeros(S)
            parents[m] = anc

        Z, log_ratio = _propose_step(model, spec, theta, twist, Z, t, dt, rng)
        lh_next = twist.log_h_batch(t1, Z)
        logw = logw + log_ratio + (lh_next - lh)
        if m + 1 in pot:
            logw = logw + _emission_batch(obs, pot[m + 1], Z)
        _check_alive(logw, step=m + 1)
        lh = lh_next
        if hist is not None:
            hist[m + 1] = Z

    log_z += float(logsumexp(logw)) - log_S
    traj = None if hist is None else _trace_paths(hist, parents)
    ens = ParticleEnsemble(grid=grid, states=Z, log_weights=logw,
                           trajectories=traj, ancestors=parents,
                           ess_history=ess_history)
    return ens, log_z


def _trace_paths(hist, parents):
    """(S, M+1, d) int64 paths of the final particles: hist (M+1, S, d)
    holds each step's states, parents (M, S) each particle's parent one
    step back."""
    M1, S, d = hist.shape
    traj = np.empty((S, M1, d), dtype=np.int64)
    idx = np.arange(S)
    for m in range(M1 - 1, -1, -1):
        traj[:, m] = hist[m, idx]
        if m:
            idx = parents[m - 1, idx]
    return traj


def _check_alive(logw, step):
    if not np.any(np.isfinite(logw)):
        raise CollapseError("total weight collapse", step=step)


def _emission_batch(obs, k, Z):
    table = emission_log_table(obs, k)
    d = Z.shape[1]
    return table[np.arange(d)[None, :], Z].sum(axis=1)


def _propose_step(model, spec, theta, twist, Z, t, dt, rng):
    """Advance every particle by one grid step under the tilted kernel and
    return the summed log prior/proposal kernel ratio.

    Coordinates whose score row is zero contribute exactly zero to the
    ratio. A particle whose remaining time would break the small-interval
    bound for either kernel takes the largest admissible substep instead,
    and the loop repeats on the particles with time left, recomputing rates
    after every move. The twist table stays frozen at the left grid time,
    so the twist ratios still telescope across the step, and the substep
    schedule is a deterministic function of the visited states, so the
    realized proposal pmf is exactly what is accumulated.
    """
    S, d = Z.shape
    Z = Z.copy()
    log_ratio = np.zeros(S)
    remaining = np.full(S, float(dt))
    live = np.arange(S)
    while len(live):
        Zl = Z[live]
        n = len(live)
        rows = np.arange(n)[:, None], np.arange(d)[None, :]
        scores = np.clip(twist.score_table_batch(t, Zl), -SCORE_CLIP, SCORE_CLIP)
        base_off = model.off_rates_batch(t, Zl, spec, theta)
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


def bpf_run(model, spec, theta, p0, obs, cfg, grid=None):
    """Bootstrap filter: prior proposal, weights only at observation times."""
    twist = ConstantTwist(spec.d, spec.V)
    return run_smc(model, spec, theta, twist, p0, p0, obs, cfg, grid=grid)


def posterior_marginals_from_ensemble(ens: ParticleEnsemble, V, eps=1e-3):
    """Per-time nodewise frequency tables from the stored trajectories,
    weighted by the final normalized weights and smoothed with a uniform
    mixture: (M+1, d, V) with rows summing to one."""
    if ens.trajectories is None:
        raise ValueError("trajectories were not stored")
    w = ens.normalized_weights()
    traj = ens.trajectories
    M1, d = traj.shape[1:]
    out = np.empty((M1, d, V))
    # one small (S,) @ (S, d) product per grid step and value: a single
    # product over all M+1 steps is large enough for OpenBLAS to hand to
    # its thread pool, whose workers then spin on the other cores
    for m in range(M1):
        for v in range(V):
            out[m, :, v] = w @ (traj[:, m] == v)
    return (1.0 - eps) * out + eps / V


def sample_path_index(ens: ParticleEnsemble, rng):
    """One particle index by importance resampling of the final weights."""
    return int(rng.choice(ens.S, p=ens.normalized_weights()))
