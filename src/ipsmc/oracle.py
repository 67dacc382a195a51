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
    _props: dict = field(default_factory=dict, init=False, repr=False, compare=False)

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

    def propagator(self, delta):
        """The transition matrix exp(Q delta), expm_action on eye(n), formed
        once per step length and kept."""
        return self.propagators([delta])[0]

    def propagators(self, deltas):
        """propagator of each step length; the lengths formed in one call
        share the series' matrix powers, and each keeps the bits of
        expm_action on eye(n)."""
        lam, M = self.uniformization()
        series = []
        for d in dict.fromkeys(map(float, deltas)):
            _check_step(d)
            if d not in self._props:
                if d == 0 or lam == 0:
                    self._props[d] = np.eye(self.n)
                else:
                    series.append(d)
        if series:
            sums = _uniformized_sums(M, [lam * d for d in series], np.eye(self.n))
            self._props.update(zip(series, sums))
        return [self._props[float(d)] for d in deltas]


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
    return _uniformized_sums(M, [rho], x0)[0]


def _uniformized_sums(M, rhos, x0):
    """_uniformized_sum(M, rho, x0) at each rho of rhos, the series sharing
    the powers M^k x0."""
    weights = [_poisson_weights(rho) for rho in rhos]
    accs = [w[0] * x0 for w, _ in weights]
    term = x0
    for k in range(1, max(len(w) for w, _ in weights)):
        term = M @ term if term.ndim == 1 else _rowwise_product(M, term)
        for (w, _), acc in zip(weights, accs):
            if k < len(w):
                acc += w[k] * term
    return [acc / covered for (_, covered), acc in zip(weights, accs)]


def _poisson_weights(rho):
    """The series' weights Poisson(rho)(k), k = 0..K, and their running
    total at K, the first k where it reaches 1 - 1e-12. The weights follow
    the recurrence log w_k = log w_(k-1) + (log rho - log k) from log w_0 =
    -rho, and cumulative sums add in the order of that loop."""
    # past K at every rho checked up to 3,000 where the total reaches
    # 1 - 1e-12; from about rho = 1,085 on rounding can keep it short, and
    # the series collapses at its cap of 100,000 terms
    size = int(rho + 8 * np.sqrt(rho)) + 8
    while True:
        size = min(size, 100001)
        log_w = np.empty(size)
        log_w[0] = -rho
        np.subtract(np.log(rho), np.log(np.arange(1, size)), out=log_w[1:])
        w = np.exp(log_w.cumsum(out=log_w), out=log_w)
        covered = w.cumsum()
        K = int(covered.searchsorted(1.0 - 1e-12))
        if K < size:
            return w[:K + 1], covered[K]
        if size == 100001:
            raise CollapseError("uniformization failed to converge")
        size *= 2


def _rowwise_product(M, X):
    """M @ X as one vector-matrix product per row of M, in one matmul call.
    BLAS runs these on the calling thread's vector kernel; a threaded gemm
    of n = 243 took about 16 ms per product on a 2-core VM, 20 times its
    single-threaded time."""
    return np.matmul(M[:, None, :], X)[:, 0]


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
    # interval j -> (log scale c, power terms M^k exp(log_h_left[j] - c)
    # of log_h_at's series, as many as used so far)
    _powers: dict = field(default_factory=dict, init=False, repr=False,
                          compare=False)

    def log_h_at(self, t):
        """Exact log h at an arbitrary time by propagating back from the
        next grid point."""
        grid = self.grid
        if not grid[0] - 1e-12 <= t <= grid[-1] + 1e-12:
            raise ValueError(f"time {t} outside the table grid")
        j = int(grid.searchsorted(t - 1e-12, side="left"))
        j = min(j, len(grid) - 1)
        if abs(grid[j] - t) <= 1e-12:
            return self.log_h[j]
        # grid[j-1] < t < grid[j]: propagate the left limit at grid[j] back
        lam, M = self.gen.uniformization()
        rho = lam * (grid[j] - t)
        if rho == 0.0:
            return self.log_h_left[j]
        # the series of _uniformized_sum on the interval's cached terms; the
        # cumulative sum adds them in its order, so the bits are its own
        w, covered = _poisson_weights(rho)
        if j not in self._powers:
            v = self.log_h_left[j]
            c = v[np.isfinite(v)].max() if np.any(np.isfinite(v)) else 0.0
            self._powers[j] = (c, np.exp(v - c)[None])
        c, powers = self._powers[j]
        if len(powers) < len(w):
            more = list(powers)
            while len(more) < len(w):
                more.append(M @ more[-1])
            powers = np.array(more)
            self._powers[j] = (c, powers)
        terms = w[:, None] * powers[:len(w)]
        acc = terms.cumsum(axis=0, out=terms)[-1]
        with np.errstate(divide="ignore"):
            return np.log(acc / covered) + c

    def twisted_model(self, base_model, spec, theta):
        """Rate model of the conditioned process r * h(z^{i->v}) / h(z).

        Time-inhomogeneous; the thinning bound is the tabulated maximum of
        the twisted exit rates times 1.5, re-checked by the
        thinning loop at every candidate event. A potential with a zero
        entry is a hard condition, under which the twisted rates grow
        without bound as its time nears, so the bound is infinite and
        thinning refuses the model; its rates can still be evaluated. Base
        rates must be time-homogeneous (they are cached per state).
        """
        if not base_model.time_homogeneous:
            raise ValueError("exact twisting is cached for homogeneous base rates")
        nbr = neighbor_index_table(spec)
        base_off = base_model.off_rates_batch(0.0, state_table(spec), spec, theta)

        def batch_off_rate_fn(t, Z, spec_, theta_):
            lh = self.log_h_at(t)
            s = state_index(spec, Z)
            return base_off[s] * np.exp(lh[nbr[s]] - lh[s][:, None, None])

        if any(np.any(vec == -np.inf) for vec in self.potentials.values()):
            lam_bar = np.inf
        else:
            worst = 0.0
            for j in range(len(self.grid)):
                for lh in (self.log_h[j], self.log_h_left[j]):
                    tilt = np.exp(lh[nbr] - lh[:, None, None])
                    worst = max(worst, float((base_off * tilt).sum(axis=(1, 2)).max()))
            lam_bar = worst * 1.5

        return RateModel(batch_off_rate_fn=batch_off_rate_fn,
                         lambda_bar_fn=lambda *_: lam_bar, time_homogeneous=False)


def potential_vectors(spec, obs):
    """Log emission potentials on the dense state space: [(tau_k, (n,) log G)]."""
    table = state_table(spec)
    return [(float(obs.times[k]), emission_log_potential(obs, k, table))
            for k in range(len(obs.times))]


def _step_propagators(gen, grid):
    """Per grid step, gen.propagator of its length or None. A length takes
    the matrix when the backward and forward passes together step it at
    least n times: n series on a vector cost the flops of the one series
    on eye(n)."""
    steps = np.diff(grid)
    lengths, counts = np.unique(steps, return_counts=True)
    dense = lengths[2 * counts >= gen.n].tolist()
    dense = dict(zip(dense, gen.propagators(dense)))
    return [dense.get(dt) for dt in steps.tolist()]


def _step(gen, P, delta, v, transpose=False):
    """exp(Q delta) @ v, or exp(Q.T delta) @ v with transpose, by the
    matrix P when there is one, else by the series on v."""
    if P is None:
        return gen.expm_action(delta, v, transpose)
    return v @ P if transpose else P @ v


def _gain(log_g):
    """A log potential as (exp(log_g - c), c), c its largest finite entry."""
    c = log_g[np.isfinite(log_g)].max()
    return np.exp(log_g - c), c


def exact_lookahead(model, spec, theta, potentials, grid) -> LookaheadTable:
    """Backward recursion for the look-ahead on a grid containing every
    potential time: terminal value one, semigroup propagation between
    potentials, multiplicative reset at each potential.

    The recursion runs in linear space: after each step the vector is
    divided by its maximum, whose log joins a running log scale, and the
    logs are taken once over the whole table."""
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
    gains = {j: _gain(vec) for j, vec in pot.items()}
    props = _step_propagators(gen, grid)
    # row j is h at grid[j] divided by exp(log_scale[j]); rows left at
    # zero, once the look-ahead vanishes, become -inf
    h = np.zeros((M + 1, n))
    log_scale = np.zeros(M + 1)
    h[M] = 1.0
    v, s = h[M], 0.0
    for j in range(M, 0, -1):
        if j in gains:
            g, c = gains[j]
            v = v * g
            m = v.max()
            if m == 0:
                break
            v /= m
            s += c + np.log(m)
        w = _step(gen, props[j - 1], grid[j] - grid[j - 1], v)
        m = w.max()
        if m == 0:
            break
        v = np.divide(w, m, out=h[j - 1])
        s += np.log(m)
        log_scale[j - 1] = s
    with np.errstate(divide="ignore"):
        log_h = np.log(h, out=h)
    log_h += log_scale[:, None]
    log_h_left = log_h.copy()
    for j, vec in pot.items():
        log_h_left[j] += vec
    return LookaheadTable(grid=grid, log_h=log_h, log_h_left=log_h_left,
                          potentials=pot, gen=gen)


def exact_posterior_marginals(model, spec, theta, p0, obs, grid):
    """Posterior state marginals on the grid: forward filter times
    look-ahead, normalized. Returns the (M+1, n) marginals and log Z, the
    normalizer at grid index 0 (equal to exact_log_marginal_likelihood on
    the same grid).

    The filter runs in scaled linear space like the look-ahead; the
    product with the look-ahead and its normalization are one pass over
    the log tables, so it cannot underflow."""
    la = exact_lookahead(model, spec, theta, potential_vectors(spec, obs), grid)
    gen = la.gen
    grid = la.grid
    M = len(grid) - 1
    gains = {j: _gain(vec) for j, vec in la.potentials.items()}
    props = _step_propagators(gen, grid)
    # row j is the filter at grid[j] divided by exp(log_scale[j]); row 0
    # is p0 itself, so log Z is the sum exact_log_marginal_likelihood takes
    alpha = np.zeros((M + 1, gen.n))
    log_scale = np.zeros(M + 1)
    alpha[0] = p0
    v, s = alpha[0], 0.0
    for j in range(1, M + 1):
        w = _step(gen, props[j - 1], grid[j] - grid[j - 1], v, transpose=True)
        if j in gains:
            g, c = gains[j]
            w *= g
            s += c
        m = w.max()
        if m == 0:
            break
        v = np.divide(w, m, out=alpha[j])
        s += np.log(m)
        log_scale[j] = s
    with np.errstate(divide="ignore"):
        post = np.log(alpha, out=alpha)
    post += log_scale[:, None]
    post += la.log_h
    top = post.max(axis=1)
    vanished = top == -np.inf
    if vanished.any():
        raise InconsistentObservationsError(
            f"posterior mass vanished at grid time {grid[np.argmax(vanished)]}"
        )
    log_z = float(logsumexp(post[0]))
    # normalized in place: the table is the one full-size array
    post -= top[:, None]
    np.exp(post, out=post)
    post /= post.sum(axis=1)[:, None]
    return post, log_z


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
        P = gen.propagator(grid[j + 1] - grid[j])
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

