"""Amortized twist model: a hand-crafted context encoder feeding a
sum-pool aggregator MLP, trained with exact (hand-written) backprop.

The encoder maps per-(node, value) feature vectors, built from future
observations and graph structure only, to embeddings Phi[i, v] that do
not depend on the current latent state. The log twist of a state is
rho(sum_i Phi[i, z_i]) with rho a two-layer MLP read directly in log
space, so the full d x V table of single-swap values needs one encoder
pass plus d*V cheap aggregator passes on shifted sums.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .ips import sample_values, sigmoid
from .twisting import TwistOracle

TANH = np.tanh


def _dtanh(y):
    # derivative expressed through the activation value
    return 1.0 - y * y


def feature_dim(V):
    return 4 * V + 9


@dataclass
class TwistNetParams:
    """Encoder, aggregator, and initial-distribution head weights."""

    W1: np.ndarray  # (nf, m)
    b1: np.ndarray  # (m,)
    W2: np.ndarray  # (m, m)
    b2: np.ndarray  # (m,)
    w3: np.ndarray  # (m,)
    b3: np.ndarray  # ()
    Wq: np.ndarray  # (nf,)
    bq: np.ndarray  # ()
    V: int
    m: int

    def arrays(self):
        return {k: getattr(self, k) for k in ("W1", "b1", "W2", "b2", "w3", "b3", "Wq", "bq")}

    def replace_arrays(self, arrs):
        return TwistNetParams(V=self.V, m=self.m, **{k: arrs[k] for k in self.arrays()})

    def copy(self):
        return self.replace_arrays({k: v.copy() for k, v in self.arrays().items()})


def init_params(V, m=64, seed=0):
    """Fan-in scaled symmetric uniform init; the aggregator output layer
    starts at zero so the initial twist is constant and the first sampler
    pass reduces to the bootstrap filter."""
    nf = feature_dim(V)
    rng = np.random.default_rng(seed)

    def u(shape, fan_in):
        return rng.uniform(-1, 1, size=shape) / np.sqrt(fan_in)

    return TwistNetParams(
        W1=u((nf, m), nf), b1=np.zeros(m),
        W2=u((m, m), m), b2=np.zeros(m),
        w3=np.zeros(m), b3=np.zeros(()),
        Wq=np.zeros(nf), bq=np.zeros(()),
        V=V, m=m,
    )


def zero_grads(params):
    return {k: np.zeros_like(v) for k, v in params.arrays().items()}


# ---------------------------------------------------------------------------
# context features

class TwistContext:
    """Deterministic per-(node, value) features of the future observations.

    The discrete parts depend on t only through how many observations
    remain, so they are cached per remaining-count; time offsets are
    filled in per call.
    """

    def __init__(self, spec, obs):
        self.spec = spec
        self.obs = obs
        self.T = float(obs.horizon)
        self.K = obs.K
        self._seg_cache = {}
        w = spec.edge_weights
        deg = spec.adjacency.sum(axis=1).astype(float)
        avg_deg = max(1.0, deg.mean())
        self._graph = np.stack([
            w.sum(axis=1),
            w.sum(axis=1) / np.maximum(deg, 1.0),
            deg / avg_deg,
        ], axis=1)  # (d, 3)
        self._adj = spec.adjacency.astype(float)
        self._w = w
        self._deg = np.maximum(deg, 1.0)

    def start_index(self, t):
        """Index of the first observation later than t."""
        return int(np.searchsorted(self.obs.times, t, side="right"))

    def has_future(self, t):
        return self.start_index(t) < self.K

    def _segment(self, start):
        if start in self._seg_cache:
            return self._seg_cache[start]
        d, V = self.spec.d, self.spec.V
        vals = self.obs.values[start:]
        times = self.obs.times[start:]
        next_val = np.full(d, V, dtype=np.int64)
        next_time = np.full(d, np.inf)
        count = np.zeros(d)
        for i in range(d):
            unmasked = np.flatnonzero(vals[:, i] != V)
            count[i] = len(unmasked)
            if len(unmasked):
                next_val[i] = vals[unmasked[0], i]
                next_time[i] = times[unmasked[0]]
        nbr_frac = np.zeros((d, V))
        nbr_wfrac = np.zeros((d, V))
        for u in range(V):
            hits = (next_val == u).astype(float)
            nbr_frac[:, u] = (self._adj @ hits) / self._deg
            nbr_wfrac[:, u] = self._w @ hits
        next_event = times[0] if len(times) else np.inf
        seg = (next_val, next_time, count, nbr_frac, nbr_wfrac, next_event)
        self._seg_cache[start] = seg
        return seg

    def features(self, t):
        """(d, V, nf) feature tensor at time t."""
        d, V = self.spec.d, self.spec.V
        T = self.T
        start = self.start_index(t)
        (next_val, next_time, count, nbr_frac, nbr_wfrac,
         next_event) = self._segment(start)
        nf = feature_dim(V)
        node = np.zeros((d, nf - V - 1))
        tt = np.where(np.isfinite(next_time), next_time - t, T - t) / T
        node[:, 0] = tt
        node[np.arange(d), 1 + next_val] = 1.0
        node[:, V + 2] = count / max(self.K, 1)
        node[:, V + 3:2 * V + 3] = nbr_frac
        # edge-weighted variant: how strongly my neighborhood pulls toward
        # each value, in the same units as the interaction rates
        node[:, 2 * V + 3:3 * V + 3] = nbr_wfrac
        node[:, 3 * V + 3] = t / T
        node[:, 3 * V + 4] = ((next_event - t) if np.isfinite(next_event) else (T - t)) / T
        node[:, 3 * V + 5:3 * V + 8] = self._graph
        out = np.zeros((d, V, nf))
        out[:, :, : nf - V - 1] = node[:, None, :]
        out[:, np.arange(V), nf - V - 1 + np.arange(V)] = 1.0
        out[:, :, nf - 1] = (np.arange(V)[None, :] == next_val[:, None]).astype(float)
        return out


def encode_context(params, ctx: TwistContext, t):
    """State-independent embeddings Phi (d, V, m) at time t."""
    F = ctx.features(t)
    return TANH(F @ params.W1 + params.b1), F


# ---------------------------------------------------------------------------
# aggregator

def rho_forward(params, X):
    """X (..., m) -> log twist values (...,); returns cache for backprop."""
    H = TANH(X @ params.W2 + params.b2)
    out = H @ params.w3 + params.b3
    return out, (X, H)


def rho_backward(params, cache, dout, grads):
    X, H = cache
    d = np.asarray(dout)[..., None]
    grads["w3"] += np.tensordot(d[..., 0], H, axes=(tuple(range(d.ndim - 1)),
                                                    tuple(range(d.ndim - 1))))
    grads["b3"] += d.sum()
    dH = d * params.w3
    dpre = dH * _dtanh(H)
    flatX = X.reshape(-1, X.shape[-1])
    flatd = dpre.reshape(-1, dpre.shape[-1])
    grads["W2"] += flatX.T @ flatd
    grads["b2"] += flatd.sum(axis=0)
    return dpre @ params.W2.T


def encoder_backward(params, F, Phi, dPhi, grads):
    dpre = dPhi * _dtanh(Phi)
    flatF = F.reshape(-1, F.shape[-1])
    flatd = dpre.reshape(-1, dpre.shape[-1])
    grads["W1"] += flatF.T @ flatd
    grads["b1"] += flatd.sum(axis=0)


def twist_log_values(params, Phi, Z):
    """(S,) log twists: rho of the pooled embedding of each state of Z (S, d)."""
    totals = Phi[np.arange(Z.shape[1])[None, :], Z].sum(axis=1)
    out, _ = rho_forward(params, totals)
    return out


def twist_table(params, Phi, Z):
    """(S, d, V) tables of log twist values after single swaps of each
    state of Z (S, d); entry [s, i, Z[s, i]] is the log twist of Z[s]
    itself (recomputed per row). The pooled sum excluding node i is
    accumulated in a fixed prefix/suffix order, so row i is bitwise equal
    for states that agree off node i.

    The first aggregator layer is linear, so it is applied to the (S, d, m)
    excluded sums and the (d, V, m) embeddings apart; only their sum, the
    hidden layer, has the full (S, d, V, m) shape. The cache holds
    (Phi, Z, hidden) for twist_table_backward."""
    d = Z.shape[1]
    m = Phi.shape[-1]
    own = Phi[np.arange(d)[None, :], Z]  # (S, d, m)
    excl = np.zeros_like(own)
    np.cumsum(own[:, :-1], axis=1, out=excl[:, 1:])
    # suffix sums in place: own[:, i] becomes the sum over j >= i
    np.cumsum(own[:, ::-1], axis=1, out=own[:, ::-1])
    excl[:, :-1] += own[:, 1:]
    # The projection reuses own's buffer: with few large temporaries per
    # call the allocator keeps its pages instead of returning them to the
    # kernel and faulting them in again at the next step. The products stay
    # stacked, one BLAS call per (d, m) or (V, m) matrix, each too small for
    # BLAS to split over threads that would spin on a second core.
    proj = np.matmul(excl, params.W2, out=own)
    del excl
    hidden = proj[:, :, None, :] + (Phi @ params.W2 + params.b2)
    TANH(hidden, out=hidden)
    out = (hidden.reshape(-1, m) @ params.w3).reshape(hidden.shape[:3]) + params.b3
    return out, (Phi, Z, hidden)


def twist_table_backward(params, cache, dout, grads):
    """Accumulate the aggregator gradients of twist_table for the table
    cotangent dout (S, d, V) into grads; returns the (d, V, m) gradient of
    Phi, through both the swapped-in embedding and the excluded sums.

    excl[s, i] sums own[s, j] = Phi[j, Z[s, j]] over j != i, so the
    cotangent of excl @ W2 is added into that of Phi @ W2 at (j, Z[s, j])
    first; the gradients of W2 and Phi are then one product each with
    that (d, V, m) cotangent."""
    Phi, Z, hidden = cache
    _, d, V, m = hidden.shape
    flat_out = dout.reshape(-1)
    grads["w3"] += flat_out @ hidden.reshape(-1, m)
    grads["b3"] += flat_out.sum()
    dpre = (dout[..., None] * params.w3) * _dtanh(hidden)
    dproj = dpre.sum(axis=0)                  # (d, V, m), of Phi @ W2 + b2
    grads["b2"] += dproj.reshape(-1, m).sum(axis=0)
    dexcl = dpre.sum(axis=2)                  # (S, d, m), of excl @ W2
    down = dexcl.sum(axis=1, keepdims=True) - dexcl
    # one scatter over flat (row, node, unit) indices: each (node, value)
    # cell gains its rows' terms in row order
    flat = ((np.arange(d) * V + Z)[..., None] * m + np.arange(m)).reshape(-1)
    np.add.at(dproj.reshape(-1), flat, down.reshape(-1))
    grads["W2"] += Phi.reshape(-1, m).T @ dproj.reshape(-1, m)
    return dproj @ params.W2.T


def twist_score_table(params, Phi, Z):
    """(S, d, V) log score ratios; exactly zero at [s, i, Z[s, i]]."""
    H, _ = twist_table(params, Phi, Z)
    S, d = Z.shape
    rows = np.arange(S)[:, None], np.arange(d)[None, :]
    score = H - H[rows[0], rows[1], Z][:, :, None]
    score[rows[0], rows[1], Z] = 0.0
    return score


# ---------------------------------------------------------------------------
# initial-distribution head

def q0_logits(params, ctx):
    """(d, V) logits from the time-zero context features."""
    F = ctx.features(0.0)
    return F @ params.Wq + params.bq, F


def _logsumexp_rows(x):
    m = x.max(axis=1, keepdims=True)
    return m + np.log(np.exp(x - m).sum(axis=1, keepdims=True))


class _Q0Dist:
    """Initial proposal: per-node softmax of the q0 head, confined to the
    support of the prior initial law so importance weights stay finite.
    F holds the time-zero features the logits were read from."""

    def __init__(self, params, ctx, support_logmask=None):
        self.params, self.ctx = params, ctx
        logits, self.F = q0_logits(params, ctx)
        if support_logmask is not None:
            logits = logits + support_logmask
        self.logp = logits - _logsumexp_rows(logits)
        self.p = np.exp(self.logp)

    def sample(self, rng, S):
        return sample_values(self.p, rng.random((S, len(self.p))))

    def log_pmf_batch(self, Z):
        d = self.logp.shape[0]
        return self.logp[np.arange(d)[None, :], Z].sum(axis=1)


# ---------------------------------------------------------------------------
# losses (value + exact gradient)

@dataclass
class SleepItem:
    """One prior simulation with its synthetic observation context."""

    grid: np.ndarray       # (M+1,)
    states: np.ndarray     # (M+1, d)
    ctx: TwistContext


def sleep_loss_forward_kl(params, model, spec, theta, items, mc_indices=None,
                          q0_support=None):
    """Discretized forward-KL twist objective on prior paths.

    Per item: -log q0(z_0) plus, per grid step, the step length times the
    tilted exit rate of the held state minus the log score of every
    realized coordinate change. mc_indices picks one step per item and
    scales it by the step count, an unbiased single-term estimate.
    Returns (loss, grads) with the gradient exact for the returned loss.
    """
    grads = zero_grads(params)
    B = len(items)
    total = 0.0
    for b, item in enumerate(items):
        ms = None if mc_indices is None else [mc_indices[b]]
        total += _sleep_item(params, model, spec, theta, item, ms, grads, 1.0 / B,
                             q0_support)
    return total / B, grads


def _sleep_item(params, model, spec, theta, item, ms, grads, wscale, q0_support):
    grid, states, ctx = item.grid, item.states, item.ctx
    M = len(grid) - 1
    loss = 0.0

    # initial-distribution term
    q0 = _Q0Dist(params, ctx, q0_support)
    z0 = states[0]
    loss += -float(q0.logp[np.arange(len(z0)), z0].sum())
    dlogits = q0.p
    dlogits[np.arange(len(z0)), z0] -= 1.0
    dlogits *= wscale
    grads["Wq"] += np.tensordot(q0.F.reshape(-1, q0.F.shape[-1]), dlogits.reshape(-1),
                                axes=(0, 0))
    grads["bq"] += dlogits.sum()

    idx = ms if ms is not None else range(M)
    scale = float(M) if ms is not None else 1.0
    d = states.shape[1]
    rows = np.arange(d)
    for m in idx:
        t, dt = grid[m], grid[m + 1] - grid[m]
        z, z_next = states[m], states[m + 1]
        Phi, F = encode_context(params, ctx, t)
        H, cache = twist_table(params, Phi, z[None])
        H = H[0]
        base = H[rows, z]
        score = H - base[:, None]
        score[rows, z] = 0.0
        b_off = model.off_rates_batch(t, z[None, :], spec, theta)[0]
        tilted = b_off * np.exp(score)
        jumped = z_next != z
        loss_m = dt * float(tilted.sum()) - float(score[rows, z_next][jumped].sum())
        loss += scale * loss_m

        g = dt * tilted  # d loss_m / d score
        g[rows[jumped], z_next[jumped]] -= 1.0
        dH = g.copy()
        dH[rows, z] -= g.sum(axis=1)
        dH *= scale * wscale
        dPhi = twist_table_backward(params, cache, dH[None], grads)
        encoder_backward(params, F, Phi, dPhi, grads)
    return loss


@dataclass
class DREItem:
    """Coupled path, an independent decoupled path, and the coupled context."""

    grid: np.ndarray
    states_pos: np.ndarray
    states_neg: np.ndarray
    ctx: TwistContext


def dre_loss(params, spec, items, mc_indices=None):
    """Density-ratio twist objective: logistic discrimination of coupled
    from decoupled states through the log twist value."""
    grads = zero_grads(params)
    B = len(items)
    total = 0.0
    for b, item in enumerate(items):
        ms = None if mc_indices is None else [mc_indices[b]]
        total += _dre_item(params, spec, item, ms, grads, 1.0 / B)
    return total / B, grads


def _dre_item(params, spec, item, ms, grads, wscale):
    grid = item.grid
    M = len(grid) - 1
    idx = ms if ms is not None else range(M + 1)
    scale = float(M + 1) if ms is not None else 1.0
    loss = 0.0
    d = item.states_pos.shape[1]
    rows = np.arange(d)
    for m in idx:
        t = grid[m]
        Phi, F = encode_context(params, item.ctx, t)
        zp, zn = item.states_pos[m], item.states_neg[m]
        tp = Phi[rows, zp].sum(axis=0)
        tn = Phi[rows, zn].sum(axis=0)
        out, cache = rho_forward(params, np.stack([tp, tn]))
        lp, ln = float(out[0]), float(out[1])
        loss += scale * (_softplus(-lp) + _softplus(ln))
        dout = np.array([-sigmoid(-lp), sigmoid(ln)]) * scale * wscale
        dX = rho_backward(params, cache, dout, grads)
        dPhi = np.zeros_like(Phi)
        np.add.at(dPhi, (rows, zp), dX[0])
        np.add.at(dPhi, (rows, zn), dX[1])
        encoder_backward(params, F, Phi, dPhi, grads)
    return loss


def _softplus(x):
    return np.logaddexp(0.0, x)


# ---------------------------------------------------------------------------
# Adam

@dataclass
class AdamState:
    step: int
    m: dict
    v: dict

    @classmethod
    def init(cls, params_arrays):
        return cls(step=0,
                   m={k: np.zeros_like(a) for k, a in params_arrays.items()},
                   v={k: np.zeros_like(a) for k, a in params_arrays.items()})


@dataclass(frozen=True)
class AdamHyper:
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8


def adam_step(arrays, grads, state: AdamState, hyper: AdamHyper):
    """Bias-corrected Adam update on a dict of arrays."""
    for k, g in grads.items():
        if not np.all(np.isfinite(g)):
            raise ValueError(f"non-finite gradient block {k}")
    t = state.step + 1
    new = {}
    for k, a in arrays.items():
        g = grads[k]
        state.m[k] = hyper.beta1 * state.m[k] + (1 - hyper.beta1) * g
        state.v[k] = hyper.beta2 * state.v[k] + (1 - hyper.beta2) * g * g
        mhat = state.m[k] / (1 - hyper.beta1**t)
        vhat = state.v[k] / (1 - hyper.beta2**t)
        new[k] = a - hyper.lr * mhat / (np.sqrt(vhat) + hyper.eps)
    state.step = t
    return new


# ---------------------------------------------------------------------------
# oracle wrapper and checkpoints

class LearnedTwist(TwistOracle):
    """Binds trained parameters to one observation sequence.

    Past the final observation the look-ahead is identically one, so the
    wrapper pins log h = 0 and score = 0 there; this keeps the terminal
    SMC target equal to the posterior and the normalizer estimate honest.
    """

    def __init__(self, params, spec, obs):
        self.params = params
        self.spec = spec
        self.obs = obs
        self.ctx = TwistContext(spec, obs)
        self._phi_cache = {}

    def _phi(self, t):
        key = float(t)
        if key not in self._phi_cache:
            self._phi_cache[key], _ = encode_context(self.params, self.ctx, t)
        return self._phi_cache[key]

    def log_h_batch(self, t, Z):
        if not self.ctx.has_future(t):
            return np.zeros(len(Z))
        return twist_log_values(self.params, self._phi(t), Z)

    def score_table_batch(self, t, Z):
        if not self.ctx.has_future(t):
            return np.zeros((len(Z), self.spec.d, self.spec.V))
        return twist_score_table(self.params, self._phi(t), Z)

    def q0_dist(self, support_logmask=None):
        return _Q0Dist(self.params, self.ctx, support_logmask)


def save_checkpoint(path, params, adam_state=None, meta=None):
    """Versioned npz blob: shapes, weights, optimizer state, metadata."""
    payload = {f"param_{k}": v for k, v in params.arrays().items()}
    if adam_state is not None:
        payload.update({f"adam_m_{k}": v for k, v in adam_state.m.items()})
        payload.update({f"adam_v_{k}": v for k, v in adam_state.v.items()})
        payload["adam_step"] = np.array(adam_state.step)
    header = {"format": 1, "V": params.V, "m": params.m}
    header.update(meta or {})
    payload["meta_json"] = np.frombuffer(
        json.dumps(header, sort_keys=True).encode(), dtype=np.uint8
    )
    np.savez(path, **payload)


def load_checkpoint(path):
    data = np.load(path)
    header = json.loads(bytes(data["meta_json"]).decode())
    arrs = {k[len("param_"):]: data[k] for k in data.files if k.startswith("param_")}
    params = TwistNetParams(V=header["V"], m=header["m"], **arrs)
    adam = None
    if "adam_step" in data.files:
        adam = AdamState(step=int(data["adam_step"]),
                         m={k[len("adam_m_"):]: data[k] for k in data.files
                            if k.startswith("adam_m_")},
                         v={k[len("adam_v_"):]: data[k] for k in data.files
                            if k.startswith("adam_v_")})
    return params, adam, header

