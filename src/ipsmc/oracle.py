"""Exact computations on the full V**d state space.

Everything here is a test instrument: dense generators, transition
matrices by uniformization, exact look-ahead tables with multiplicative
resets, exact posterior marginals and marginal likelihoods, and exact
sampling from the conditioned process. Guarded to small state spaces.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import (CollapseError, InconsistentObservationsError,
                     StateSpaceTooLargeError)
from .ips import RateModel, make_grid
from .smc import logsumexp
from .twisting import emission_log_potential

GENERATOR_BYTES_GUARD = 2**29  # dense float64 generator of at most 8192 states


def n_states(spec):
    n = spec.V**spec.d
    if 8 * n * n > GENERATOR_BYTES_GUARD:
        raise StateSpaceTooLargeError(
            f"V^d = {n} states need a {8 * n * n / 2**30:.3g} GiB dense generator; "
            f"the guard is {GENERATOR_BYTES_GUARD / 2**30:.3g} GiB")
    return n


def state_table(spec):
    """All states as an (n, d) array; coordinate i is digit i base V
    (least significant first)."""
    n = n_states(spec)
    idx = np.arange(n)
    table = np.empty((n, spec.d), dtype=np.int64)
    for i in range(spec.d):
        table[:, i] = (idx // spec.V**i) % spec.V
    return table


def state_index(spec, z):
    """Row of state_table holding a state (d,), or one per state of a
    stack (..., d)."""
    return np.asarray(z) @ (spec.V ** np.arange(spec.d))


@dataclass(frozen=True)
class DenseGenerator:
    Q: np.ndarray
    _ops: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        Q = np.asarray(self.Q, dtype=float)
        n = Q.shape[0]
        if Q.shape != (n, n):
            raise ValueError("Q must be square")
        off = Q - np.diag(np.diag(Q))
        if np.any(off < 0):
            raise ValueError("off-diagonal entries must be >= 0")
        if np.any(np.abs(Q.sum(axis=1)) > 1e-10 * max(1.0, np.abs(Q).max())):
            raise ValueError("row sums must vanish")

    @property
    def n(self):
        return self.Q.shape[0]

    def uniformization(self, transpose=False):
        """uniformization(Q), or of Q.T with transpose, formed once per
        direction."""
        if transpose not in self._ops:
            self._ops[transpose] = uniformization(self.Q.T if transpose else self.Q)
        return self._ops[transpose]

    def expm_action(self, delta, x, transpose=False):
        """expm_action(Q, delta, x), or with Q.T, on the cached operator:
        the same matrix, so the same bits."""
        _check_step(delta)
        return _propagate(self.uniformization(transpose), delta, x)


def build_dense_generator(model: RateModel, spec, theta) -> DenseGenerator:
    """Assemble the global generator from the local rates at t = 0; only
    single coordinate changes carry mass."""
    n = n_states(spec)
    off = model.off_rates_batch(0.0, state_table(spec), spec, theta)
    Q = np.zeros((n, n))
    Q[np.arange(n)[:, None, None], neighbor_index_table(spec)] = off
    np.fill_diagonal(Q, -Q.sum(axis=1))
    return DenseGenerator(Q)


def neighbor_index_table(spec):
    """(n, d, V) index of z^{i->v} for every state; [s, i, z_i] = s."""
    table = state_table(spec)
    powers = spec.V ** np.arange(spec.d)
    n = len(table)
    out = np.empty((n, spec.d, spec.V), dtype=np.int64)
    for i in range(spec.d):
        for v in range(spec.V):
            out[:, i, v] = np.arange(n) + (v - table[:, i]) * powers[i]
    return out


def expm_action(A, delta, x):
    """exp(A delta) @ x for a vector or matrix x, by uniformization: a
    Poisson mixture of powers of I + A/lam, lam the largest diagonal
    magnitude. A is an intensity matrix Q or its transpose, so every term
    is nonnegative and, unlike scaling-and-squaring, the series keeps
    nonnegativity and (for x = eye(n)) row sums in floating point."""
    _check_step(delta)
    return _propagate(uniformization(A), delta, x)


def uniformization(A):
    """(lam, I + A/lam) of an intensity matrix A, lam its largest diagonal
    magnitude; the matrix is None when lam == 0 (A vanishes)."""
    lam = float(np.max(-np.diag(A)))
    return lam, (np.eye(A.shape[0]) + A / lam if lam > 0 else None)


def _check_step(delta):
    if not 0 <= delta < np.inf:
        raise ValueError(f"delta must be finite and >= 0, got {delta}")


def _propagate(op, delta, x):
    """exp(A delta) @ x from A's uniformization op = (lam, M)."""
    lam, M = op
    x = np.asarray(x, dtype=float)
    if delta == 0 or lam == 0:
        return x.copy()
    return _uniformized_sum(M, lam * delta, x)


def _uniformized_sum(M, rho, x0):
    """sum_k Poisson(rho)(k) M^k x0, truncated when the remaining Poisson
    mass drops below 1e-12."""
    log_w = -rho  # log Poisson(rho) weight at k=0
    log_rho = np.log(rho)
    acc = np.exp(log_w) * x0
    term = x0
    covered = np.exp(log_w)
    k = 0
    while covered < 1.0 - 1e-12:
        k += 1
        term = M @ term
        log_w += log_rho - np.log(k)
        w = np.exp(log_w)
        acc += w * term
        covered += w
        if k > 100000:
            raise CollapseError("uniformization failed to converge")
    return acc / covered


@dataclass
class LookaheadTable:
    """Conditional expectation of future potentials on a time grid, stored
    in log space. Right-continuous: log_h[j] is the value at grid[j] with
    the potential at grid[j] (if any) already absorbed; log_h_left[j] is
    the left limit, differing only at potential times, where it is
    log_h[j] + potentials[j]."""

    grid: np.ndarray
    log_h: np.ndarray        # (M+1, n)
    log_h_left: np.ndarray   # (M+1, n)
    potentials: dict         # grid index -> (n,) log potential
    gen: DenseGenerator

    def _linear_cache(self):
        # scaled linear-space left limits, built once; log_h_at propagates
        # them with the generator's cached operator
        if not hasattr(self, "_lin"):
            lam, M = self.gen.uniformization()
            scales = np.array([v[np.isfinite(v)].max() if np.any(np.isfinite(v))
                               else 0.0 for v in self.log_h_left])
            vs = np.exp(self.log_h_left - scales[:, None])
            self._lin = (lam, M, scales, vs)
        return self._lin

    def log_h_at(self, t):
        """Exact log h at an arbitrary time by propagating back from the
        next grid point."""
        grid = self.grid
        if not grid[0] - 1e-12 <= t <= grid[-1] + 1e-12:
            raise ValueError(f"time {t} outside the table grid")
        j = int(np.searchsorted(grid, t - 1e-12, side="left"))
        j = min(j, len(grid) - 1)
        if abs(grid[j] - t) <= 1e-12:
            return self.log_h[j]
        # grid[j-1] < t < grid[j]: propagate the left limit at grid[j] back
        lam, M, scales, vs = self._linear_cache()
        rho = lam * (grid[j] - t)
        if rho == 0.0:
            return self.log_h_left[j]
        with np.errstate(divide="ignore"):
            return np.log(_uniformized_sum(M, rho, vs[j])) + scales[j]

    def twisted_model(self, base_model, spec, theta):
        """Rate model of the conditioned process r * h(z^{i->v}) / h(z).

        Time-inhomogeneous; the thinning bound is the tabulated maximum of
        the twisted exit rates times 1.5, re-checked by the
        thinning loop at every candidate event. Base rates must be
        time-homogeneous (they are cached per state).
        """
        if not base_model.time_homogeneous:
            raise ValueError("exact twisting is cached for homogeneous base rates")
        nbr = neighbor_index_table(spec)
        base_off = base_model.off_rates_batch(0.0, state_table(spec), spec, theta)

        def batch_off_rate_fn(t, Z, spec_, theta_):
            lh = self.log_h_at(t)
            s = state_index(spec, Z)
            return base_off[s] * np.exp(lh[nbr[s]] - lh[s][:, None, None])

        worst = 0.0
        for j in range(len(self.grid)):
            for lh in (self.log_h[j], self.log_h_left[j]):
                tilt = np.exp(lh[nbr] - lh[:, None, None])
                worst = max(worst, float((base_off * tilt).sum(axis=(1, 2)).max()))
        lam_bar = worst * 1.5

        return RateModel(batch_off_rate_fn=batch_off_rate_fn,
                         lambda_bar_fn=lambda *_: lam_bar, time_homogeneous=False)


def _log_expm_action(gen, delta, log_v, transpose=False):
    """log(exp(A delta) @ exp(log_v)) for A = Q or Q.T, stabilized by
    factoring out the max."""
    m = np.max(log_v[np.isfinite(log_v)]) if np.any(np.isfinite(log_v)) else 0.0
    w = gen.expm_action(delta, np.exp(log_v - m), transpose)
    with np.errstate(divide="ignore"):
        return np.log(np.maximum(w, 0.0)) + m


def potential_vectors(spec, obs):
    """Log emission potentials on the dense state space: [(tau_k, (n,) log G)]."""
    table = state_table(spec)
    return [(float(obs.times[k]), emission_log_potential(obs, k, table))
            for k in range(len(obs.times))]


def exact_lookahead(model, spec, theta, potentials, grid) -> LookaheadTable:
    """Backward recursion for the look-ahead on a grid containing every
    potential time: terminal value one, semigroup propagation between
    potentials, multiplicative reset at each potential."""
    gen = build_dense_generator(model, spec, theta)
    grid = np.asarray(grid, dtype=float)
    n = gen.n
    M = len(grid) - 1
    pot = {}
    for tau, vec in potentials:
        j = int(np.argmin(np.abs(grid - tau)))
        if abs(grid[j] - tau) > 1e-9:
            raise ValueError(f"grid does not contain potential time {tau}")
        if np.all(vec == -np.inf):
            raise InconsistentObservationsError("potential vanishes everywhere")
        if np.any(~np.isfinite(vec)):
            warnings.warn("non-positive potential at some states; propagating -inf")
        pot[j] = vec
    log_h = np.zeros((M + 1, n))
    log_h_left = np.zeros((M + 1, n))
    log_h_left[M] = pot[M] if M in pot else 0.0
    for j in range(M - 1, -1, -1):
        log_h[j] = _log_expm_action(gen, grid[j + 1] - grid[j], log_h_left[j + 1])
        log_h_left[j] = log_h[j] + pot[j] if j in pot else log_h[j]
    return LookaheadTable(grid=grid, log_h=log_h, log_h_left=log_h_left,
                          potentials=pot, gen=gen)


def exact_posterior_marginals(model, spec, theta, p0, obs, grid):
    """Posterior state marginals on the grid: forward filter times
    look-ahead, normalized. Returns the (M+1, n) marginals and log Z, the
    normalizer at grid index 0 (equal to exact_log_marginal_likelihood on
    the same grid)."""
    la = exact_lookahead(model, spec, theta, potential_vectors(spec, obs), grid)
    gen = la.gen
    grid = la.grid
    n = gen.n
    with np.errstate(divide="ignore"):
        log_alpha = np.log(np.asarray(p0, dtype=float))
    out = np.empty((len(grid), n))
    log_z = None
    for j in range(len(grid)):
        if j > 0:
            log_alpha = _log_expm_action(gen, grid[j] - grid[j - 1], log_alpha,
                                         transpose=True)
            if j in la.potentials:
                log_alpha = log_alpha + la.potentials[j]
        log_post = log_alpha + la.log_h[j]
        norm = logsumexp(log_post)
        if not np.isfinite(norm):
            raise InconsistentObservationsError(
                f"posterior mass vanished at grid time {grid[j]}"
            )
        out[j] = np.exp(log_post - norm)
        if j == 0:
            log_z = float(norm)
    return out, log_z


def exact_log_marginal_likelihood(model, spec, theta, p0, obs, grid=None):
    """log E[product of potentials] = log <p0, h_0>."""
    if grid is None:
        grid = oracle_grid(model, spec, theta, obs)
    la = exact_lookahead(model, spec, theta, potential_vectors(spec, obs), grid)
    with np.errstate(divide="ignore"):
        log_p0 = np.log(np.asarray(p0, dtype=float))
    val = float(logsumexp(log_p0 + la.log_h[0]))
    if not np.isfinite(val):
        warnings.warn("observations impossible under the model: log Z = -inf")
    return val


def oracle_grid(model, spec, theta, obs, target=0.1):
    """Uniform grid refined so lambda_bar * step <= target, merged with the
    observation times."""
    lam = model.lambda_bar(spec, theta)
    T = float(obs.horizon)
    dt = target / max(lam, 1e-12)
    n = max(4, int(np.ceil(T / dt)))
    return make_grid(T, T / n, obs.times)


def nodewise_marginals(spec, joint):
    """Collapse joint state marginals (.., n) onto per-node tables (.., d, V)."""
    table = state_table(spec)
    joint = np.asarray(joint)
    lead = joint.shape[:-1]
    out = np.zeros(lead + (spec.d, spec.V))
    for i in range(spec.d):
        for v in range(spec.V):
            out[..., i, v] = joint[..., table[:, i] == v].sum(axis=-1)
    return out


def sample_posterior_skeleton(model, spec, theta, p0, obs, grid, n_paths, rng):
    """Exact draws of the conditioned chain at the grid points.

    The grid skeleton of the posterior is Markov with one-step kernels
    P_dt(z, z') h_{t'}(z') G_{t'}(z')^[t' observed] / h_t(z); sampling those
    kernels forward gives exact joint skeletons. Returns (n_paths, M+1)
    state indices in the smallest unsigned integer type that holds them
    (one byte up to 256 states).
    """
    la = exact_lookahead(model, spec, theta, potential_vectors(spec, obs), grid)
    gen = la.gen
    grid = la.grid
    n = gen.n
    with np.errstate(divide="ignore"):
        log_p0 = np.log(np.asarray(p0, dtype=float))
    w0 = log_p0 + la.log_h[0]
    p_init = np.exp(w0 - logsumexp(w0))
    out = np.empty((n_paths, len(grid)), dtype=np.min_scalar_type(n - 1))
    out[:, 0] = rng.choice(n, size=n_paths, p=p_init)
    for j in range(len(grid) - 1):
        P = gen.expm_action(grid[j + 1] - grid[j], np.eye(n))
        with np.errstate(divide="ignore"):
            logK = np.log(np.maximum(P, 0.0)) + la.log_h_left[j + 1][None, :]
        K = np.exp(logK - logsumexp(logK, axis=1, keepdims=True))
        cur = out[:, j]
        nxt = np.empty(n_paths, dtype=out.dtype)
        for s in np.unique(cur):
            mask = cur == s
            nxt[mask] = rng.choice(n, size=int(mask.sum()), p=K[s])
        out[:, j + 1] = nxt
    return out

