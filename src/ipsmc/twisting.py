"""Potentials, twist oracles, and the diagnostics coupling a prior process
to its (approximate) posterior.

A twist assigns every (t, z) a positive value approximating the
conditional expectation of future potentials. Only log values and log
score ratios ever appear; nothing here exponentiates an unnormalized
product over nodes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class ObservationSequence:
    """Per-node snapshots at increasing, distinct times; value V means masked."""

    horizon: float
    times: np.ndarray          # (K,)
    values: np.ndarray         # (K, d) ints in [0, V]
    V: int
    p_mask: float
    label_noise: float

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.values = np.asarray(self.values, dtype=np.int64)
        if len(self.times) != len(self.values):
            raise ValueError("times and values disagree in length")
        if len(self.times) and (np.any(np.diff(self.times) <= 0)):
            raise ValueError("observation times must increase, with no ties")
        if len(self.times) and (self.times[0] <= 0 or self.times[-1] > self.horizon):
            raise ValueError("observation times must lie in (0, horizon]")
        if np.any(self.values < 0) or np.any(self.values > self.V):
            raise ValueError("observed values must lie in [0, V] (V = mask)")
        if not 0.0 <= self.p_mask <= 1.0:
            raise ValueError("p_mask must lie in [0, 1]")
        if self.label_noise < 0:
            raise ValueError("label_noise must be >= 0")

    @property
    def K(self):
        return len(self.times)

    @property
    def d(self):
        return self.values.shape[1] if self.values.ndim == 2 else 0


def emission_log_table(obs: ObservationSequence, k):
    """(d, V) table of log g(y_k^i | z_i = v); (..., d, V) for an index
    array k."""
    V = obs.V
    y = obs.values[k]
    delta = obs.label_noise
    with np.errstate(divide="ignore"):
        log_mask = np.log(obs.p_mask) if obs.p_mask > 0 else -np.inf
        log_hit = np.log((1 - obs.p_mask) * (1 - delta * (V - 1)))
        log_miss = np.log((1 - obs.p_mask) * delta)
    out = np.where(np.arange(V) == y[..., None], log_hit, log_miss)
    out[y == V] = log_mask
    return out


def emission_log_potential(obs: ObservationSequence, k, Z):
    """log G_{tau_k}(z) of each state z in Z (..., d): the sum of per-node
    emission log-likelihoods."""
    return emission_log_table(obs, k)[np.arange(obs.d), Z].sum(axis=-1)


def sample_emission(obs_template, z, rng):
    """Draw one observation row for latent state z under (p_mask, delta, V)."""
    V = obs_template.V
    delta = obs_template.label_noise
    d = len(z)
    y = np.empty(d, dtype=np.int64)
    masked = rng.random(d) < obs_template.p_mask
    for i in range(d):
        if masked[i]:
            y[i] = V
        elif delta > 0 and rng.random() < delta * (V - 1):
            others = [v for v in range(V) if v != z[i]]
            y[i] = others[rng.integers(len(others))]
        else:
            y[i] = z[i]
    return y


class TwistOracle:
    """Interface on a batch of states Z (S, d): log twist values (S,) and
    the (S, d, V) tables of log score ratios log h(z^{i->v}) - log h(z),
    zero at v = z_i; and q0_dist(p0), the initial law twisted SMC draws
    from under the prior's p0 (Whiteley & Lee, Ann. Statist. 2014).

    score_table_batch takes a boolean (S, d, V) mask cells of the entries
    the caller reads: the proposal passes the cells of positive base rate,
    since a score elsewhere multiplies a zero rate. None asks for every
    off-diagonal cell. An oracle may score only the requested cells and
    leave every other entry zero, or ignore the mask and fill the table."""

    def log_h_batch(self, t, Z):
        raise NotImplementedError

    def score_table_batch(self, t, Z, cells=None):
        raise NotImplementedError

    def q0_dist(self, p0):
        raise NotImplementedError

    def _zero_scores(self, n, d, V):
        """A read-only all-zero (n, d, V) score table: one buffer, reused
        across calls, so that an untilted step allocates none."""
        zeros = getattr(self, "_zeros", None)
        if zeros is None or len(zeros) < n:
            zeros = self._zeros = np.zeros((n, d, V))
            zeros.flags.writeable = False
        return zeros[:n]


class ConstantTwist(TwistOracle):
    """h identically one; twisted SMC degenerates to the bootstrap filter."""

    def __init__(self, d, V):
        self.d, self.V = d, V

    def log_h_batch(self, t, Z):
        return np.zeros(len(Z))

    def score_table_batch(self, t, Z, cells=None):
        return self._zero_scores(len(Z), self.d, self.V)

    def q0_dist(self, p0):
        return p0


SCORE_CLIP = 35.0  # numerical guard on exp(score); far beyond trained values


def incremental_ess(proposal, target):
    """1 / E_proposal[(target / proposal)^2] over a shared enumerated
    support; both arguments are normalized pmfs. Equals 1 iff they match."""
    q = np.asarray(proposal, dtype=float)
    p = np.asarray(target, dtype=float)
    bad = (q <= 0) & (p > 0)
    if np.any(bad):
        import warnings

        warnings.warn("target puts mass where the proposal has none; ESS = 0")
        return 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio2 = np.where(p > 0, p * p / np.where(q > 0, q, 1.0), 0.0)
    return float(1.0 / ratio2.sum())


def write_observations(f, obs: ObservationSequence):
    f.write(
        f"K={obs.K} d={obs.d} V={obs.V} p_mask={float(obs.p_mask)!r} delta={float(obs.label_noise)!r}\n"
    )
    for k in range(obs.K):
        row = ",".join(str(int(v)) for v in obs.values[k])
        f.write(f"{float(obs.times[k])!r},{row}\n")


def read_observations(f, horizon):
    header = f.readline().strip().split()
    kv = dict(tok.split("=", 1) for tok in header)
    K, d, V = int(kv["K"]), int(kv["d"]), int(kv["V"])
    times = np.empty(K)
    values = np.empty((K, d), dtype=np.int64)
    for k in range(K):
        parts = f.readline().strip().split(",")
        times[k] = float(parts[0])
        values[k] = [int(x) for x in parts[1:]]
    return ObservationSequence(horizon=horizon, times=times, values=values, V=V,
                               p_mask=float(kv["p_mask"]), label_noise=float(kv["delta"]))
