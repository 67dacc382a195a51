"""Exact computations on the full V**d state space.

Everything here is a test instrument: dense generators, transition
matrices by uniformization, exact look-ahead tables with multiplicative
resets (the exact twist), exact posterior marginals and marginal
likelihoods, and exact sampling from the conditioned process. Guarded to
small state spaces; no other module indexes the dense state space.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import (CollapseError, InconsistentObservationsError,
                     StateSpaceTooLargeError)
from .ips import RateModel, grid_indices, make_grid
from .smc import logsumexp
from .twisting import TwistOracle, emission_log_potential

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

    def propagators(self, deltas):
        """The transition matrix exp(Q delta) of each step length, formed
        once per length and kept; the lengths formed in one call share the
        series' matrix powers, and each keeps the bits of expm_action on
        eye(n)."""
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
    _check_step(delta)
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
    total at K, the first k where it reaches 1 - 1e-12. From about rho =
    1,100 on rounding can stop the total short of that; K is then the
    first k where it stops growing, if that is within 1e-10 of 1. The
    weights follow the recurrence log w_k = log w_(k-1) + (log rho - log k)
    from log w_0 = -rho, and cumulative sums add in the order of that
    loop."""
    size = int(rho + 8 * np.sqrt(rho)) + 8
    while True:
        size = min(size, 100001)
        log_w = np.empty(size)
        log_w[0] = -rho
        np.subtract(np.log(rho), np.log(np.arange(1, size)), out=log_w[1:])
        w = np.exp(log_w.cumsum(out=log_w), out=log_w)
        covered = w.cumsum()
        K = int(covered.searchsorted(1.0 - 1e-12))
        # past the mode the weights fall, so a last one that adds nothing
        # leaves the total final
        if K == size and covered[-2] == covered[-1] > 1.0 - 1e-10:
            K = int(covered.searchsorted(covered[-1]))
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


class DenseInitial:
    """Explicit distribution over the enumerated state space (tiny systems)."""

    def __init__(self, spec, probs):
        self.spec = spec
        self.table = state_table(spec)
        probs = np.asarray(probs, dtype=float)
        self.probs = probs / probs.sum()
        with np.errstate(divide="ignore"):
            self.log_probs = np.log(self.probs)

    def sample(self, rng, S):
        return self.table[rng.choice(len(self.probs), size=S, p=self.probs)]

    def log_pmf_batch(self, Z):
        return self.log_probs[state_index(self.spec, Z)]

    def node_support(self):
        """(d, V) mask of the values each node takes with positive mass."""
        mask = np.zeros((self.spec.d, self.spec.V), dtype=bool)
        mask[np.arange(self.spec.d), self.table[self.probs > 0]] = True
        return mask


@dataclass
class LookaheadTable(TwistOracle):
    """The exact twist: the conditional expectation of future potentials on
    a time grid, stored in log space. Right-continuous: log_h[j] is the
    value at grid[j] with the potential at grid[j] (if any) already
    absorbed; log_h_left[j] is the left limit, differing only at potential
    times, where it is log_h[j] + potentials[j].

    As a twist it keeps log_h_at's value per time it is asked for, and
    scores every cell: each entry is one gather, so the mask saves
    nothing."""

    grid: np.ndarray
    log_h: np.ndarray        # (M+1, n)
    log_h_left: np.ndarray   # (M+1, n)
    potentials: dict         # grid index -> (n,) log potential
    gen: DenseGenerator
    spec: object
    # interval j -> (log scale c, power terms M^k exp(log_h_left[j] - c)
    # of log_h_at's series, as many as used so far)
    _powers: dict = field(default_factory=dict, init=False, repr=False,
                          compare=False)
    # time -> log_h_at(time), as log_h_batch and score_table_batch ask
    _at: dict = field(default_factory=dict, init=False, repr=False,
                      compare=False)

    def __post_init__(self):
        self._nbr = neighbor_index_table(self.spec)

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

    def _log_h_kept(self, t):
        key = float(t)
        if key not in self._at:
            self._at[key] = self.log_h_at(t)
        return self._at[key]

    def log_h_batch(self, t, Z):
        return self._log_h_kept(t)[state_index(self.spec, Z)]

    def score_table_batch(self, t, Z, cells=None):
        out = self._gather(self._log_h_kept(t), state_index(self.spec, Z))
        out[np.arange(len(Z))[:, None], np.arange(self.spec.d)[None, :], Z] = 0.0
        return out

    def _gather(self, lh, s):
        """The (S, d, V) log ratios lh(z^{i->v}) - lh(z) of the states of
        indices s (S,) under a log look-ahead lh (n,); zero at v = z_i
        where lh(z) is finite."""
        return lh[self._nbr[s]] - lh[s][:, None, None]

    def q0_dist(self, p0):
        """The exact twisted initial distribution: prior mass times the
        look-ahead at time zero. p0 is any initial law with
        log_pmf_batch, read on the whole state table."""
        logq = p0.log_pmf_batch(state_table(self.spec)) + self.log_h[0]
        return DenseInitial(self.spec, np.exp(logq - logq.max()))

    def twisted_model(self, base_model, theta):
        """Rate model of the conditioned process r * h(z^{i->v}) / h(z):
        the base rates times exp of score_table_batch's gather.

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
        base_off = base_model.off_rates_batch(0.0, state_table(self.spec),
                                              self.spec, theta)

        def batch_off_rate_fn(t, Z, spec_, theta_):
            s = state_index(self.spec, Z)
            return base_off[s] * np.exp(self._gather(self.log_h_at(t), s))

        if any(np.any(vec == -np.inf) for vec in self.potentials.values()):
            lam_bar = np.inf
        else:
            worst = 0.0
            for j in range(len(self.grid)):
                for lh in (self.log_h[j], self.log_h_left[j]):
                    tilt = np.exp(self._gather(lh, np.arange(len(lh))))
                    worst = max(worst, float((base_off * tilt).sum(axis=(1, 2)).max()))
            lam_bar = worst * 1.5

        return RateModel(batch_off_rate_fn=batch_off_rate_fn,
                         lambda_bar_fn=lambda *_: lam_bar, time_homogeneous=False)


def potential_vectors(spec, obs):
    """Log emission potentials on the dense state space: [(tau_k, (n,) log G)]."""
    table = state_table(spec)
    return [(float(obs.times[k]), emission_log_potential(obs, k, table))
            for k in range(len(obs.times))]


def _log_pass(gen, grid, potentials, start, forward):
    """One pass of the forward-backward recursion in scaled linear space:
    the (M+1, n) log table of the filter from start at grid[0] (forward,
    by Q.T) or of the look-ahead from start at grid[-1] (backward, by Q).
    potentials maps a grid index to its (n,) log potential; the potential
    at a step's right end is taken after the step going forward, and
    before it going backward with a normalization of its own.

    After each step the vector is divided by its maximum, whose log joins
    a running log scale, and the logs are taken once over the table; rows
    left at zero, once the vector vanishes, become -inf. A step length
    that the two passes together take at least n times goes by its
    transition matrix, since n series on a vector cost the flops of the
    one series on eye(n); every other step by the series on the vector."""
    steps = np.diff(grid).tolist()
    lengths, counts = np.unique(steps, return_counts=True)
    dense = lengths[2 * counts >= gen.n].tolist()
    props = dict(zip(dense, gen.propagators(dense)))
    gains = {}
    for j, log_g in potentials.items():
        c = log_g[np.isfinite(log_g)].max()
        gains[j] = np.exp(log_g - c), c
    M = len(steps)
    out = np.zeros((M + 1, gen.n))
    log_scale = np.zeros(M + 1)
    out[0 if forward else M] = start
    v, s = out[0 if forward else M], 0.0
    for i in range(M) if forward else range(M - 1, -1, -1):
        # step i runs between grid[i] and grid[i + 1] and writes row b
        b = i + 1 if forward else i
        gain = gains.get(i + 1)
        if gain and not forward:
            v = v * gain[0]
            m = v.max()
            if m == 0:
                break
            v /= m
            s += gain[1] + np.log(m)
        P = props.get(steps[i])
        if P is None:
            w = _propagate(gen.uniformization(forward), steps[i], v)
        else:
            w = v @ P if forward else P @ v
        if gain and forward:
            w *= gain[0]
            s += gain[1]
        m = w.max()
        if m == 0:
            break
        v = np.divide(w, m, out=out[b])
        s += np.log(m)
        log_scale[b] = s
    with np.errstate(divide="ignore"):
        out = np.log(out, out=out)
    out += log_scale[:, None]
    return out


def exact_lookahead(model, spec, theta, potentials, grid) -> LookaheadTable:
    """Backward recursion for the look-ahead on a grid containing every
    potential time: terminal value one, semigroup propagation between
    potentials, multiplicative reset at each potential (_log_pass)."""
    gen = build_dense_generator(model, spec, theta)
    grid = np.asarray(grid, dtype=float)
    pot = {}
    js = grid_indices(grid, [tau for tau, _ in potentials]).tolist()
    for j, (_, vec) in zip(js, potentials):
        if np.all(vec == -np.inf):
            raise InconsistentObservationsError("potential vanishes everywhere")
        if np.any(~np.isfinite(vec)):
            warnings.warn("non-positive potential at some states; propagating -inf")
        pot[j] = vec
    log_h = _log_pass(gen, grid, pot, 1.0, forward=False)
    log_h_left = log_h.copy()
    for j, vec in pot.items():
        log_h_left[j] += vec
    return LookaheadTable(grid=grid, log_h=log_h, log_h_left=log_h_left,
                          potentials=pot, gen=gen, spec=spec)


def exact_posterior_marginals(model, spec, theta, p0, obs, grid):
    """Posterior state marginals on the grid: forward filter times
    look-ahead, normalized. Returns the (M+1, n) marginals and log Z, the
    normalizer at grid index 0 (equal to exact_log_marginal_likelihood on
    the same grid).

    The product of the two log tables and its normalization are one pass
    over them, so it cannot underflow. Row 0 of the filter is p0 itself,
    so log Z is the sum exact_log_marginal_likelihood takes."""
    la = exact_lookahead(model, spec, theta, potential_vectors(spec, obs), grid)
    post = _log_pass(la.gen, la.grid, la.potentials, p0, forward=True)
    post += la.log_h
    top = post.max(axis=1)
    vanished = top == -np.inf
    if vanished.any():
        raise InconsistentObservationsError(
            f"posterior mass vanished at grid time {la.grid[np.argmax(vanished)]}"
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
    for j, P in enumerate(gen.propagators(np.diff(grid).tolist())):
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

