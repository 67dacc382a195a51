"""State spaces, local-rate models, exact and discretized simulation of
interacting jump processes on graphs, and path log-densities.

States are dense integer vectors in {0..V-1}^d. A rate model gives the
off-target jump intensities of every coordinate for a batch of states,
(..., d) -> (..., d, V); the entry at each coordinate's current value is
zero.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np
# NumPy 2 imports these submodules on first use (np.unique reaches
# numpy.ma); import them with the package, so that one-off cost is paid at
# import and not inside the first command that draws or sorts
import numpy.ma  # noqa: F401
import numpy.random  # noqa: F401

from .errors import StepSizeError

S, I, R = 0, 1, 2  # SIRS state encoding


def sigmoid(x):
    return 0.5 * (1.0 + np.tanh(0.5 * np.asarray(x, dtype=float)))


@dataclass(frozen=True)
class StateSpaceSpec:
    """Graph-structured product state space {0..V-1}^d."""

    d: int
    V: int
    adjacency: np.ndarray
    node_features: np.ndarray  # (d, F), F may be 0

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("d must be >= 1")
        if self.V < 2:
            raise ValueError("V must be >= 2 (V=1 has no dynamics)")
        adj = np.asarray(self.adjacency)
        if adj.shape != (self.d, self.d):
            raise ValueError("adjacency must be d x d")
        if np.any(adj != adj.T):
            raise ValueError("adjacency must be symmetric")
        if np.any(np.diag(adj) != 0):
            raise ValueError("adjacency must have zero diagonal")
        feats = np.asarray(self.node_features, dtype=float)
        if feats.ndim != 2 or feats.shape[0] != self.d:
            raise ValueError("node_features must be (d, F)")
        object.__setattr__(self, "adjacency", adj.astype(np.int8))
        object.__setattr__(self, "node_features", feats)

    @functools.cached_property
    def edge_weights(self):
        """Logistic feature inner products, masked by adjacency: (d, d).
        Computed once per spec and read-only, as every rate evaluation
        reads it."""
        xi = self.node_features
        if xi.shape[1] == 0:
            inner = np.zeros((self.d, self.d))
        else:
            inner = xi @ xi.T
        W = self.adjacency * sigmoid(inner)
        W.flags.writeable = False
        return W


@dataclass
class PathSample:
    """Cadlag piecewise-constant trajectory: initial state plus ordered jumps."""

    horizon: float
    initial: np.ndarray
    jump_times: np.ndarray = field(default_factory=lambda: np.zeros(0))
    jump_nodes: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    jump_values: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))

    def __post_init__(self):
        self.initial = np.asarray(self.initial, dtype=np.int64)
        self.jump_times = np.asarray(self.jump_times, dtype=float)
        self.jump_nodes = np.asarray(self.jump_nodes, dtype=np.int64)
        self.jump_values = np.asarray(self.jump_values, dtype=np.int64)

    def validate(self):
        if self.horizon <= 0:
            raise ValueError("horizon must be > 0")
        t = self.jump_times
        if len(t) and (t[0] <= 0 or t[-1] >= self.horizon):
            raise ValueError("jump times must lie in (0, horizon)")
        if np.any(np.diff(t) <= 0):
            raise ValueError("jump times must increase, with no ties")
        z = self.initial.copy()
        for n in range(len(t)):
            i, v = self.jump_nodes[n], self.jump_values[n]
            if v == z[i]:
                raise ValueError(f"jump {n} does not change coordinate {i}")
            z[i] = v

    @property
    def n_jumps(self):
        return len(self.jump_times)

    def state_at(self, t):
        """State at time t (jumps at times <= t applied)."""
        z = self.initial.copy()
        for n in range(len(self.jump_times)):
            if self.jump_times[n] > t:
                break
            z[self.jump_nodes[n]] = self.jump_values[n]
        return z

    def states_at(self, grid):
        """States at each time of a sorted grid: (len(grid), d)."""
        grid = np.asarray(grid, dtype=float)
        out = np.empty((len(grid), len(self.initial)), dtype=np.int64)
        z = self.initial.copy()
        n = 0
        for m, t in enumerate(grid):
            while n < len(self.jump_times) and self.jump_times[n] <= t:
                z[self.jump_nodes[n]] = self.jump_values[n]
                n += 1
            out[m] = z
        return out


@dataclass(frozen=True)
class RateModel:
    """A local-rate model: pure function (t, Z, spec, theta) -> (..., d, V)
    nonnegative off-target rates of a batch of states Z (..., d) with any
    leading batch dims, zero at each coordinate's current value.

    A rate that mixes a state's coordinates through a matrix product (the
    SIRS infection pressure) may round a state's rates differently in a
    (B, d) batch, whose rows BLAS multiplies together, than in a batch of
    one. The samplers (Euler paths, SMC, the twist network, the oracle's
    tables) read (B, d) batches. The exact simulators read each state as a
    batch of one: path_log_density and thinning as (1, d), and the lockstep
    next-event rounds as a stack of one-state batches (L, 1, d), so a path
    keeps its bits in any batch.

    lambda_bar_fn bounds the total exit rate (assumption: bounded total
    rate). rate_grad_fn, when present, returns d rates / d theta of the
    off-target entries: (d, V, P) for one state, (..., d, V, P) for a stack
    of states (..., d).
    """

    batch_off_rate_fn: Callable[[float, np.ndarray, StateSpaceSpec, Any], np.ndarray]
    lambda_bar_fn: Callable[[StateSpaceSpec, Any], float] | None = None
    time_homogeneous: bool = True
    rate_grad_fn: Callable | None = None

    def off_rates_batch(self, t, Z, spec, theta):
        """Nonnegative off-target rates for a batch of states: (..., d, V)."""
        return self.batch_off_rate_fn(t, Z, spec, theta)

    def lambda_bar(self, spec, theta):
        if self.lambda_bar_fn is None:
            raise ValueError("model does not declare a total-rate bound")
        return self.lambda_bar_fn(spec, theta)


@dataclass(frozen=True)
class SIRSParams:
    """SIRS rates, in theta's order; the defaults generate the benchmark."""

    alpha0: float = 0.1
    alpha1: float = 1.0
    beta: float = 0.4
    gamma: float = 0.05

    def __post_init__(self):
        for name in ("alpha0", "alpha1", "beta", "gamma"):
            value = getattr(self, name)
            if not math.isfinite(value) or value < 0:
                raise ValueError(f"{name} must be finite and >= 0, got {value}")


def sirs_infection_pressure(spec, Z):
    """alpha1 multiplier per node: sum over infected neighbors of the edge
    weight. Z is (..., d); returns (..., d)."""
    W = spec.edge_weights
    return (Z == I).astype(float) @ W.T


def sirs_off_rates_batch(t, Z, spec, params):
    """Cyclic S -> I -> R -> S local rates with graph-weighted infection:
    (..., d) -> (..., d, V)."""
    if spec.V != 3:
        raise ValueError("SIRS requires V = 3")
    w = sirs_infection_pressure(spec, Z)
    off = np.zeros(Z.shape + (spec.V,))
    off[..., I] = (params.alpha0 + params.alpha1 * w) * (Z == S)
    off[..., R] = params.beta * (Z == I)
    off[..., S] = params.gamma * (Z == R)
    return off


def sirs_rate_grad(t, z, spec, params):
    """d r_i(v|z) / d (alpha0, alpha1, beta, gamma) of the off-target rates.

    z is one state (d,) or a stack (..., d); returns (..., d, V, 4).
    """
    z = np.asarray(z)
    w = sirs_infection_pressure(spec, z)
    g = np.zeros(z.shape + (spec.V, 4))
    sus = z == S
    g[..., I, 0] = sus
    g[..., I, 1] = w * sus
    g[..., R, 2] = z == I
    g[..., S, 3] = z == R
    return g


def sirs_model():
    def lam(spec, p):
        wmax = sirs_infection_pressure(spec, np.full((1, spec.d), I))[0].max()
        return spec.d * max(p.alpha0 + p.alpha1 * wmax, p.beta, p.gamma)

    return RateModel(
        batch_off_rate_fn=sirs_off_rates_batch,
        lambda_bar_fn=lam,
        time_homogeneous=True,
        rate_grad_fn=sirs_rate_grad,
    )


def sum_values(x):
    """Sum over the value axis: the [..., v] slices of x (..., V) added in
    order. For V < 8 that is bitwise x.sum(axis=-1), whose pairwise
    summation adds short rows in order, at a fraction of a reduction's
    cost on (B, d, V) tables."""
    total = x[..., 0]
    for v in range(1, x.shape[-1]):
        total = total + x[..., v]
    return total


def sample_values(probs, u):
    """Inverse-cdf draw of one value per row of probs (..., V) from the
    uniforms u, which broadcast against probs[..., 0]: the first v whose
    running sum of probs exceeds u, and 0 when none does. This is exactly
    (u[..., None] < np.cumsum(probs, axis=-1)).argmax(axis=-1): the running
    sums are the same additions, and for nonnegative probs they are
    nondecreasing, so the first index above u is the count of running sums
    at or below u. Returns int64."""
    total = probs[..., 0]
    k = (total <= u).astype(np.int64)
    for v in range(1, probs.shape[-1] - 1):
        total = total + probs[..., v]
        k += total <= u
    total = total + probs[..., -1]
    k[total <= u] = 0
    return k


def euler_step_table(off, Z, dt):
    """Per-coordinate categorical tables delta + dt * off of the product
    kernel for a batch of states Z (B, d) with off-target rates off
    (B, d, V): (B, d, V). dt is one step for the batch or one per state
    (B,). Multi-coordinate flips are possible by construction. Raises
    StepSizeError if any stay probability would be negative."""
    B, d, V = off.shape
    dt = np.asarray(dt, dtype=float).reshape(-1, 1)
    stay = 1.0 - dt * sum_values(off)
    if (stay < 0).any():
        raise StepSizeError(
            f"Euler step {float(dt.max())} violates the small-interval bound "
            f"(stay probability {float(stay.min()):.3g}); shrink the step"
        )
    probs = np.multiply(dt[..., None], off, order="C")
    # the stay entries, by flat index into the C-ordered table (a view)
    probs.reshape(-1)[Z.ravel() + np.arange(0, B * d * V, V)] = stay.ravel()
    return probs


def euler_simulate_batch(model, spec, theta, Z0, grid, rng):
    """Euler-discretized prior paths for a batch: (B, M+1, d) states on grid.

    Coordinates are sampled independently per step via inverse-cdf on the
    batched kernel table (sample_values). grid is shared, (M+1,), or one
    per path, (B, M+1), padded by repeating T: a zero-length step keeps its
    state. Rates are read at the first path's time (grid.flat[m]), so
    per-path grids need a time-homogeneous model.
    """
    grid = np.asarray(grid, dtype=float)
    Z0 = np.asarray(Z0, dtype=np.int64)
    B, d = Z0.shape
    if grid.ndim == 2 and not model.time_homogeneous:
        raise ValueError("per-path grids need a time-homogeneous model")
    steps = np.diff(grid, axis=-1)
    M = grid.shape[-1] - 1
    out = np.empty((B, M + 1, d), dtype=np.int64)
    out[:, 0] = Z0
    Z = Z0.copy()
    for m in range(M):
        off = model.off_rates_batch(grid.flat[m], Z, spec, theta)
        probs = euler_step_table(off, Z, steps[..., m])
        Z = sample_values(probs, rng.random((B, d)))
        out[:, m + 1] = Z
    return out


def gillespie_simulate_batch(model, spec, theta, Z0, T, rngs):
    """Statistically exact event-driven paths on [0, T], one per state of
    Z0 (B, d). Path b draws from rngs[b] alone, in the order a lone path
    draws, so it is gillespie_simulate's path from rngs[b] whatever else is
    in the batch. Returns B PathSamples.

    Time-homogeneous models use the classic next-event recipe with the live
    paths in lockstep: each round reads their rates in one call, on a stack
    of one-state batches (L, 1, d) (see RateModel), then each path draws
    its waiting time and, before T, its event. Otherwise each path runs
    alone by thinning: candidate events arrive at the declared total-rate
    bound and are accepted with probability rate / bound, so the bound is
    required.
    """
    Z0 = np.asarray(Z0)
    if Z0.shape != (len(rngs), spec.d):
        raise ValueError(f"states have shape {Z0.shape}, expected "
                         f"({len(rngs)}, {spec.d}): one per generator")
    if np.any(Z0 < 0) or np.any(Z0 >= spec.V):
        raise ValueError("state entries must lie in [0, V)")
    Z0 = Z0.astype(np.int64)
    events = [([], [], []) for _ in rngs]  # times, nodes, values per path
    if model.time_homogeneous:
        _lockstep_events(model, spec, theta, Z0.copy(), T, rngs, events)
    else:
        lam_bar = model.lambda_bar(spec, theta)
        if not np.isfinite(lam_bar) or lam_bar < 0:
            raise ValueError("thinning requires a finite total-rate bound")
        for z, rng, ev in zip(Z0, rngs, events):
            _thinned_events(model, spec, theta, z.copy(), T, rng, lam_bar, ev)
    return [PathSample(horizon=T, initial=z0, jump_times=np.array(times),
                       jump_nodes=np.array(nodes, dtype=np.int64),
                       jump_values=np.array(values, dtype=np.int64))
            for z0, (times, nodes, values) in zip(Z0, events)]


def gillespie_simulate(model, spec, theta, z0, T, rng) -> PathSample:
    """One statistically exact path on [0, T] from z0 (d,): the batch of
    one of gillespie_simulate_batch."""
    return gillespie_simulate_batch(model, spec, theta, np.asarray(z0)[None],
                                    T, [rng])[0]


def _lockstep_events(model, spec, theta, Z, T, rngs, events):
    """Next-event rounds over the paths from Z (B, d); each jump is
    appended to its path's events. A path leaves the rounds, and its row
    leaves Z, once it has no exit rate or its next event falls at or past
    T."""
    t = [0.0] * len(Z)
    ids = list(range(len(Z)))  # the path of each row of Z
    while ids:
        off = model.off_rates_batch(0.0, Z[:, None], spec, theta)
        off = off.reshape(len(ids), -1)
        fired, u = [], []
        for j, (b, lam) in enumerate(zip(ids, _exit_rates(off))):
            if lam <= 0:
                continue
            tb = t[b] + rngs[b].exponential(1.0 / lam)
            if tb >= T:
                continue
            t[b] = tb
            events[b][0].append(tb)
            fired.append(j)
            u.append(rngs[b].random())
        if not fired:
            return
        if len(fired) < len(ids):
            ids = [ids[j] for j in fired]
            Z, off = Z[fired], off[fired]
        for j, (b, k) in enumerate(zip(ids, _draw_cells(off, u))):
            i, v = divmod(k, spec.V)
            Z[j, i] = v
            events[b][1].append(i)
            events[b][2].append(v)


def _thinned_events(model, spec, theta, z, T, rng, lam_bar, ev):
    """Thinning for one path from z (d,) under a time-inhomogeneous model
    with total-rate bound lam_bar; each jump is appended to ev."""
    t = 0.0
    while lam_bar > 0:
        t += rng.exponential(1.0 / lam_bar)
        if t >= T:
            return
        off = model.off_rates_batch(t, z[None], spec, theta).reshape(1, -1)
        lam = _exit_rate(off)
        if lam > lam_bar * (1 + 1e-9):
            raise ValueError(
                f"declared rate bound {lam_bar} violated at t={t} (rate {lam})"
            )
        if rng.random() < lam / lam_bar:
            i, v = divmod(_draw_cells(off, [rng.random()])[0], spec.V)
            z[i] = v
            ev[0].append(t)
            ev[1].append(i)
            ev[2].append(v)


def _exit_rate(off):
    """Total exit rate of one state's off-target rates. Only the positive
    entries are summed, which fixes the floating-point summation order
    that simulated paths depend on."""
    return float(np.add.reduce(off[off > 0]))


def _exit_rates(off):
    """_exit_rate of each row of off (L, n), as a list, with the same bits.
    NumPy's pairwise summation order depends on how many entries it adds,
    so rows are summed in groups with the same count of positive
    entries."""
    if len(off) == 1:
        return [_exit_rate(off)]
    pos = off > 0
    counts = np.add.reduce(pos, axis=1)
    lam = np.zeros(len(off))
    for n in set(counts.tolist()) - {0}:
        rows = counts == n
        lam[rows] = np.add.reduce(off[rows][pos[rows]].reshape(-1, n), axis=1)
    return lam.tolist()


def _draw_cells(off, u):
    """Flat cell of each row of off (L, n) drawn by inverse cdf at the
    uniforms u (L,), as a list: np.searchsorted(c, u * c[-1], "right") on
    the row's running sums c, clipped to n - 1. Index ties are impossible
    a.s. and resolve by flat order."""
    if len(off) == 1:
        c = off[0].cumsum()
        return [int(c[:-1].searchsorted(u[0] * c[-1], "right"))]
    # per row, the count of running sums at or below the target among all
    # but the last
    c = off.cumsum(axis=1)
    x = np.array(u) * c[:, -1]
    return np.add.reduce(c[:, :-1] <= x[:, None], axis=1).tolist()


def path_log_density(model, spec, theta, path: PathSample, p0_log):
    """Log-density of a path: initial mass, jump intensities, and the
    survival integral of the exit rate, exact between jumps. The exit rate
    is read once per segment, so the model must be time homogeneous; any
    other model raises ValueError."""
    if not model.time_homogeneous:
        raise ValueError("the path density reads each segment's exit rate "
                         "once and needs a time-homogeneous model")
    path.validate()
    z = path.initial.copy()

    def off_at(t):
        return model.off_rates_batch(t, z[None], spec, theta)[0]

    total = float(p0_log(z))
    seg_starts = np.concatenate([[0.0], path.jump_times])
    seg_ends = np.concatenate([path.jump_times, [path.horizon]])
    for n in range(len(seg_starts)):
        a, b = seg_starts[n], seg_ends[n]
        total -= _exit_rate(off_at(a)) * (b - a)
        if n < path.n_jumps:
            tj = path.jump_times[n]
            i, v = path.jump_nodes[n], path.jump_values[n]
            r = off_at(tj)[i, v]
            if r <= 0:
                import warnings

                warnings.warn(f"jump {n} at t={tj} has zero rate under the model")
                return -np.inf
            total += float(np.log(r))
            z[i] = v
    return total


def rng_streams(seed, n):
    """Independent per-path generators from a counter-split seed sequence."""
    ss = np.random.SeedSequence(seed)
    return [np.random.default_rng(c) for c in ss.spawn(n)]


def make_grid(T, dt, obs_times=()):
    """Uniform grid of step dt on [0, T], merged with the observation times.

    Points closer than 1e-12 are collapsed so steps stay positive.
    """
    n = max(1, int(round(T / dt)))
    base = np.linspace(0.0, T, n + 1)
    grid = np.union1d(base, np.asarray(obs_times, dtype=float))
    if grid[0] < 0 or grid[-1] > T + 1e-12:
        raise ValueError("observation times must lie in [0, T]")
    keep = np.concatenate([[True], np.diff(grid) > 1e-12])
    grid = grid[keep]
    grid[-1] = T
    return grid


def grid_indices(grid, times):
    """Index of the grid point at each time: (len(times),) int64. A time
    farther than 1e-9 from every grid point raises ValueError."""
    times = np.asarray(times, dtype=float)
    idx = np.argmin(np.abs(grid[:, None] - times), axis=0)
    off = np.abs(grid[idx] - times) > 1e-9
    if off.any():
        raise ValueError(f"grid does not contain snapshot time {times[off][0]}")
    return idx


def write_path(f, path: PathSample, V):
    z0 = ",".join(str(int(x)) for x in path.initial)
    f.write(f"T={float(path.horizon)!r} d={len(path.initial)} V={V} z0={z0}\n")
    for n in range(path.n_jumps):
        f.write(f"{float(path.jump_times[n])!r},{int(path.jump_nodes[n])},{int(path.jump_values[n])}\n")


def read_path(f):
    header = f.readline().strip().split()
    kv = dict(tok.split("=", 1) for tok in header)
    T = float(kv["T"])
    d = int(kv["d"])
    V = int(kv["V"])
    z0 = np.array([int(x) for x in kv["z0"].split(",")], dtype=np.int64)
    if len(z0) != d:
        raise ValueError("initial state length does not match d")
    times, nodes, values = [], [], []
    for line in f:
        line = line.strip()
        if not line:
            continue
        t, i, v = line.split(",")
        times.append(float(t))
        nodes.append(int(i))
        values.append(int(v))
    path = PathSample(horizon=T, initial=z0, jump_times=np.array(times),
                      jump_nodes=np.array(nodes, dtype=np.int64),
                      jump_values=np.array(values, dtype=np.int64))
    return path, V
