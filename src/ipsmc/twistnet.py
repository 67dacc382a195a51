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
import math
from dataclasses import dataclass

import numpy as np

from .ips import sigmoid
from .smc import FactorizedInitial
from .twisting import TwistOracle

TANH = np.tanh


def _dtanh(y, out=None):
    # derivative expressed through the activation value, in one buffer
    out = np.multiply(y, y, out=out)
    return np.subtract(1.0, out, out=out)


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

    def astype(self, dtype):
        """A copy with every array cast to dtype."""
        return self.replace_arrays({k: v.astype(dtype) for k, v in self.arrays().items()})


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
    remain, so they are built once, one (d, V, nf) segment per count in a
    (K+1, d, V, nf) table; time offsets are filled in per call.
    """

    def __init__(self, spec, obs):
        self.spec = spec
        self.obs = obs
        self.T = float(obs.horizon)
        self.K = K = obs.K
        d, V, nf = spec.d, spec.V, feature_dim(spec.V)
        w = spec.edge_weights
        deg = spec.adjacency.sum(axis=1).astype(float)
        norm = np.maximum(deg, 1.0)
        # a sentinel snapshot after the last one: unmasked, of value V, at
        # time inf; it is the next unmasked snapshot of a node with none
        vals = np.vstack([obs.values, np.full((1, d), V)])
        times = np.append(obs.times, np.inf)
        hit = vals != V
        hit[-1] = True
        # segment k: the first k snapshots have passed; first[k, i] is the
        # index of node i's next unmasked snapshot, counted from zero
        first = np.minimum.accumulate(
            np.where(hit, np.arange(K + 1)[:, None], K)[::-1], axis=0)[::-1]
        next_val = vals[first, np.arange(d)]
        hits = (next_val[..., None] == np.arange(V)).astype(float)  # (K+1, d, V)
        table = np.zeros((K + 1, d, V, nf))
        node = table[:, :, 0, : nf - V - 1]  # per-node columns, copied to every value
        node[np.arange(K + 1)[:, None], np.arange(d), 1 + next_val] = 1.0
        # unmasked snapshots still ahead, the sentinel taken off
        node[..., V + 2] = (np.cumsum(hit[::-1], axis=0)[::-1] - 1) / max(K, 1)
        node[..., V + 3:2 * V + 3] = (spec.adjacency.astype(float) @ hits) / norm[:, None]
        # edge-weighted variant: how strongly my neighborhood pulls toward
        # each value, in the same units as the interaction rates; one
        # matrix-vector product per segment and value, so the edge-weighted
        # sums keep the fixed order of a lone product
        node[..., 2 * V + 3:3 * V + 3] = np.matmul(
            w, hits.transpose(0, 2, 1)[..., None])[..., 0].transpose(0, 2, 1)
        node[..., 3 * V + 5:3 * V + 8] = np.stack(
            [w.sum(axis=1), w.sum(axis=1) / norm, deg / max(1.0, deg.mean())], axis=1)
        table[:, :, 1:, : nf - V - 1] = node[:, :, None, :]
        table[:, :, np.arange(V), nf - V - 1 + np.arange(V)] = 1.0
        table[..., nf - 1] = hits
        self.table = table
        # each segment's next snapshot time per node, and of any node (T
        # when there is none)
        self.next_time = np.where(first < K, times[first], self.T)
        self.next_event = np.append(obs.times, self.T)
        self.initial_features = self.features(0.0)  # read by the initial head

    def start_index(self, t):
        """Index of the first observation later than t."""
        return int(np.searchsorted(self.obs.times, t, side="right"))

    def has_future(self, t):
        return self.start_index(t) < self.K

    def features(self, t):
        """(d, V, nf) feature tensor at time t."""
        return stacked_features([self], np.array([t], dtype=float))[0]


def stacked_features(ctxs, t):
    """(rows, d, V, nf) features of each row's context at the row's time
    t (rows,), gathered from the contexts' segment tables in one stack."""
    V = ctxs[0].spec.V
    segs = [ctx.start_index(s) for ctx, s in zip(ctxs, t)]
    F = np.stack([ctx.table[k] for ctx, k in zip(ctxs, segs)])
    T = np.array([ctx.T for ctx in ctxs])
    next_time = np.stack([ctx.next_time[k] for ctx, k in zip(ctxs, segs)])
    next_event = np.array([ctx.next_event[k] for ctx, k in zip(ctxs, segs)])
    F[..., 0] = ((next_time - t[:, None]) / T[:, None])[..., None]
    F[..., 3 * V + 3] = (t / T)[:, None, None]
    F[..., 3 * V + 4] = ((next_event - t) / T)[:, None, None]
    return F


def _stacked(X, W):
    """X @ W over the last axis of an (S, ..., k) array, as S stacked
    products, each too small for BLAS to split over spinning threads."""
    return np.matmul(X.reshape(len(X), -1, X.shape[-1]), W).reshape(
        X.shape[:-1] + W.shape[1:])


def _stacked_gram(A, B):
    """(p, q) sum over s of A[s].T @ B[s] for (S, ..., p) and (S, ..., q)
    arrays, as S stacked products (see _stacked)."""
    S = len(A)
    return np.matmul(A.reshape(S, -1, A.shape[-1]).transpose(0, 2, 1),
                     B.reshape(S, -1, B.shape[-1])).sum(axis=0)


def encode(params, F):
    """Embeddings Phi (S, d, V, m) of the stacked features F (S, d, V, nf),
    as S stacked products (see _stacked)."""
    pre = _stacked(F, params.W1)
    pre += params.b1
    return TANH(pre, out=pre)


def encode_context(params, ctx: TwistContext, t):
    """State-independent embeddings Phi (d, V, m) at time t."""
    F = ctx.features(t)
    return encode(params, F[None])[0], F


# ---------------------------------------------------------------------------
# aggregator

def rho_forward(params, X):
    """X (..., m) -> log twist values (...,); returns cache for backprop."""
    H = TANH(X @ params.W2 + params.b2)
    out = H @ params.w3 + params.b3
    return out, (X, H)


def rho_backward(params, cache, dout, grads):
    X, H = cache
    d = np.asarray(dout, dtype=H.dtype)[..., None]
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
    """Encoder gradients of per-row embeddings Phi (S, d, V, m) of F."""
    dpre = _dtanh(Phi)
    dpre *= dPhi
    grads["W1"] += _stacked_gram(F, dpre)
    grads["b1"] += dpre.reshape(-1, dpre.shape[-1]).sum(axis=0)


def _own(Phi, Z):
    """(S, d, m) embeddings of the values each state of Z (S, d) holds, read
    from one shared (d, V, m) Phi or from one (S, d, V, m) Phi per row."""
    rows = (np.arange(len(Z))[:, None],) if Phi.ndim == 4 else ()
    return Phi[rows + (np.arange(Z.shape[1]), Z)]


def _project(params, Phi, out=None):
    """P = Phi @ W2 with node and value flattened, row i * V + v holding
    P[i, v]: (d * V, m) for a shared (d, V, m) Phi, (S, d * V, m) for one
    Phi per row."""
    rows = Phi.reshape(Phi.shape[:-3] + (-1, Phi.shape[-1]))
    return np.matmul(rows, params.W2, out=out)


def _pooled(params, P, Z, ws):
    """The (S, d, m) rows P[i, Z[s, i]] of the projection P (see _project)
    that each state of Z (S, d) holds, and the state's hidden
    pre-activation u = their sum + b2 (S, m)."""
    S, d = Z.shape
    at = np.arange(d) * (P.shape[-2] // d) + Z
    if P.ndim == 3:
        at += np.arange(S)[:, None] * P.shape[1]
    own = np.take(P.reshape(-1, P.shape[-1]), at, axis=0, mode="clip",
                  out=ws.get("own", (S, d, P.shape[-1])))
    u = own.sum(axis=1)
    u += params.b2
    return own, u


def twist_log_values(params, Phi, Z, P=None):
    """(S,) log twists of the states of Z (S, d): rho of the pooled
    embedding, computed as the own-state term of twist_score_table, so a
    state's value is bitwise the same in any batch. P, when given, is
    _project(params, Phi)."""
    P = _project(params, Phi) if P is None else P
    _, u = _pooled(params, P, Z, TableWorkspace(P.dtype))
    return np.einsum("sm,m->s", TANH(u, out=u), params.w3) + params.b3


class TableWorkspace:
    """Reused buffers of twist_score_table and its backward, one per
    caller: each named buffer grows to the largest size asked for and is
    handed out as a view. cache holds the activations of the last
    twist_score_table call for twist_score_table_backward.

    Fresh temporaries of 0.4-1.2 MB per call are returned to the kernel
    when freed and faulted in again at the next call. Buffers are not
    shared between callers, so concurrent SMC runs each hold their own.
    Every buffer has the workspace's dtype, that of the params it serves."""

    def __init__(self, dtype=np.float64):
        self.dtype = np.dtype(dtype)
        self._bufs = {}
        self.cache = None

    def get(self, name, shape):
        size = math.prod(shape)
        buf = self._bufs.get(name)
        if buf is None or len(buf) < size:
            buf = self._bufs[name] = np.empty(size, dtype=self.dtype)
        return buf[:size].reshape(shape)


def twist_score_table(params, Phi, Z, cells=None, ws=None, P=None):
    """(S, d, V) log score ratios log h(z^{i->v}) - log h(z) of each state
    of Z (S, d) under a shared (d, V, m) Phi or one (S, d, V, m) Phi per
    row, a new array of the params' dtype, computed on the cells of the
    (S, d, V) mask, which holds off-diagonal cells only (every one when
    None), and exactly zero elsewhere. Its temporaries and activations live
    in the workspace ws (a fresh one when None). P, when given, is
    _project(params, Phi), formed once by a caller that scores many
    batches under one Phi.

    The first aggregator layer is linear, so with P = Phi @ W2 the hidden
    pre-activation of a state is u = sum_j P[j, z_j] + b2, and that of its
    swap i -> v is u - P[i, z_i] + P[i, v]: one (m,) row per requested
    cell, and b3 cancels. The products with w3 run without BLAS, whose
    kernels round an output by its position in the product, so with a
    shared Phi each score is bitwise a function of its state and cell."""
    ws = TableWorkspace(Phi.dtype) if ws is None else ws
    S, d = Z.shape
    V, m = Phi.shape[-2:]
    if cells is None:
        cells = np.ones((S, d, V), dtype=bool)
        cells[np.arange(S)[:, None], np.arange(d), Z] = False
    if P is None:
        P = _project(params, Phi, ws.get("P", Phi.shape[:-3] + (d * V, m)))
    own, u = _pooled(params, P, Z, ws)
    flat = np.flatnonzero(cells)          # s * d * V + i * V + v
    node = flat // V                      # s * d + i
    state = node // d
    pre = np.take(P.reshape(-1, m), flat if P.ndim == 3 else flat % (d * V),
                  axis=0, out=ws.get("pre", (len(flat), m)), mode="clip")
    held = ws.get("held", pre.shape)
    pre -= np.take(own.reshape(-1, m), node, axis=0, out=held, mode="clip")
    pre += np.take(u, state, axis=0, out=held, mode="clip")
    out = np.zeros((S, d, V), dtype=P.dtype)
    out.reshape(-1)[flat] = (np.einsum("km,m->k", TANH(pre, out=pre), params.w3)
                             - np.einsum("sm,m->s", TANH(u, out=u), params.w3)[state])
    ws.cache = Phi, Z, flat, pre, u
    return out


def twist_score_table_backward(params, ws, dout, grads):
    """Accumulate into grads the aggregator gradients of the last
    twist_score_table call on ws, run on per-row Phi (S, d, V, m), for the
    score cotangent dout (S, d, V), read on that call's cells and cast to
    the call's dtype; returns the gradient of Phi. The call's activations
    in ws are overwritten.

    A cell's pre-activation u - P[i, z_i] + P[i, v] and the held state's
    u = sum_j P[j, z_j] + b2 both enter its score, so the cotangent of P
    is the cell's own at [i, v], and at every held row [j, z_j] that of u
    less those of node j's cells."""
    # hidden and top hold the tanh of the cells' and the states' pre-activations
    Phi, Z, flat, hidden, top = ws.cache
    S, d, V, m = Phi.shape
    g = dout.reshape(-1)[flat].astype(hidden.dtype, copy=False)
    # of each state's -tanh(u) @ w3
    G = np.bincount(flat // (d * V), g, minlength=S).astype(g.dtype, copy=False)
    grads["w3"] += g @ hidden - G @ top
    dP = ws.get("dP", (S, d, V, m))
    dP.fill(0.0)
    dP.reshape(-1, m)[flat] = _dtanh(hidden, out=hidden) * (g[:, None] * params.w3)
    dnode = dP.sum(axis=2)
    du = dnode.sum(axis=1)
    du -= _dtanh(top) * params.w3 * G[:, None]
    grads["b2"] += du.sum(axis=0)
    dP[np.arange(S)[:, None], np.arange(d), Z] += du[:, None, :] - dnode
    grads["W2"] += _stacked_gram(Phi, dP)
    return _stacked(dP, params.W2.T)


# ---------------------------------------------------------------------------
# initial-distribution head

def q0_logp(params, F0, support_logmask=None):
    """(..., d, V) per-node log-probabilities of the q0 head on time-zero
    features F0 (..., d, V, nf), confined to support_logmask's support."""
    logits = F0 @ params.Wq + params.bq
    if support_logmask is not None:
        logits += support_logmask  # in the params' dtype
    m = logits.max(axis=-1, keepdims=True)
    return logits - (m + np.log(np.exp(logits - m).sum(axis=-1, keepdims=True)))


def _support_logmask(p0):
    """(d, V) log-mask of each node's support under p0: 0 on it, -inf off
    it."""
    return np.where(p0.node_support(), 0.0, -np.inf)


class _Q0Dist(FactorizedInitial):
    """Initial proposal: per-node softmax of the q0 head, confined to the
    support of the prior initial law p0 so importance weights stay finite."""

    def __init__(self, params, ctx, p0):
        self.log_probs = q0_logp(params, ctx.initial_features,
                                 _support_logmask(p0))
        self.probs = np.exp(self.log_probs)


# ---------------------------------------------------------------------------
# losses (value + exact gradient)

@dataclass
class SleepItem:
    """One prior simulation with its synthetic observation context."""

    grid: np.ndarray       # (M+1,)
    states: np.ndarray     # (M+1, d)
    ctx: TwistContext


# bytes of one (rows, d, V, m) array: the losses run their rows in chunks
# of this size, so a loss over every grid step stays bounded in memory
CHUNK_BYTES = 1 << 18


def _rows(items, mc_indices, extra, *fields):
    """The rows of a loss batch: each item's first len(grid) - 1 + extra
    grid points, or its mc_indices point scaled by that count (an unbiased
    single-term estimate). Returns the row weights, which carry the batch
    mean, the rows' contexts, and per (name, shift) field the rows
    getattr(item, name)[point + shift], stacked."""
    n = [len(item.grid) - 1 + extra for item in items]
    js = ([np.arange(k) for k in n] if mc_indices is None
          else [np.array([j]) for j in mc_indices])
    w = np.concatenate([np.full(len(j), (1 if mc_indices is None else k) / len(items))
                        for j, k in zip(js, n)])
    ctxs = [item.ctx for item, j in zip(items, js) for _ in j]
    return w, ctxs, [np.concatenate([getattr(item, name)[j + shift]
                                     for item, j in zip(items, js)])
                     for name, shift in fields]


def _encoded_chunks(params, ctxs, t):
    """Yield (rows, F, Phi) over slices of the rows: each row's (d, V, nf)
    context features at its time t, in the params' dtype, and its (d, V, m)
    embeddings."""
    spec, dtype = ctxs[0].spec, params.W1.dtype
    size = max(1, CHUNK_BYTES // (dtype.itemsize * spec.d * spec.V * params.m))
    for a in range(0, len(t), size):
        rows = slice(a, a + size)
        F = stacked_features(ctxs[rows], t[rows]).astype(dtype, copy=False)
        yield rows, F, encode(params, F)


def sleep_loss_forward_kl(params, model, spec, theta, items, mc_indices=None,
                          q0_support=None):
    """Discretized forward-KL twist objective on prior paths.

    Per item: -log q0(z_0) plus, per grid step, the step length times the
    tilted exit rate of the held state minus the log score of every
    realized coordinate change. mc_indices picks one step per item and
    scales it by the step count, an unbiased single-term estimate.
    q0_support (_support_logmask(p0)) confines the initial head to p0.
    Returns (loss, grads) with the gradient exact for the returned loss.
    The (item, step) rows run as one batched pass, all rates read at the
    first row's time. The network and the gradients are in the params'
    dtype; the rates and the loss are float64.
    """
    if not model.time_homogeneous:
        raise ValueError("the sleep loss needs a time-homogeneous model")
    grads = zero_grads(params)
    B, nodes = len(items), np.arange(spec.d)
    # initial-distribution term, on each context's time-zero features
    F0 = np.stack([item.ctx.initial_features for item in items]).astype(
        params.Wq.dtype, copy=False)
    logp = q0_logp(params, F0, q0_support)
    at_z0 = np.arange(B)[:, None], nodes, np.stack([it.states[0] for it in items])
    total = -float(logp[at_z0].sum()) / B
    dlogits = np.exp(logp)
    dlogits[at_z0] -= 1.0
    grads["Wq"] += F0.reshape(-1, F0.shape[-1]).T @ dlogits.reshape(-1) / B
    grads["bq"] += dlogits.sum() / B

    w, ctxs, (z, z_next, t, t_next) = _rows(
        items, mc_indices, 0, ("states", 0), ("states", 1), ("grid", 0), ("grid", 1))
    # a chunk's scores are done with before the next one
    ws = TableWorkspace(params.W2.dtype)
    for rows, F, Phi in _encoded_chunks(params, ctxs, t):
        zc, zn, wc, dt = z[rows], z_next[rows], w[rows], t_next[rows] - t[rows]
        at = np.arange(len(zc))[:, None], nodes
        off = model.off_rates_batch(t[0], zc, spec, theta)
        # the positive-rate cells, where exp(score) enters, and every
        # realized move, whose score enters whatever its rate
        cells = off > 0
        cells[at + (zn,)] |= zn != zc
        score = twist_score_table(params, Phi, zc, cells, ws)
        tilted = off * np.exp(score)
        # a held coordinate scores zero at its own value
        total += float(wc @ (dt * tilted.sum(axis=(1, 2))
                             - score[at + (zn,)].sum(axis=1)))
        g = dt[:, None, None] * tilted  # d loss / d score
        g[at + (zn,)] -= zn != zc
        g *= wc[:, None, None]
        encoder_backward(params, F, Phi,
                         twist_score_table_backward(params, ws, g, grads), grads)
    return total, grads


@dataclass
class DREItem:
    """Coupled path, an independent decoupled path, and the coupled context."""

    grid: np.ndarray
    states_pos: np.ndarray
    states_neg: np.ndarray
    ctx: TwistContext


def dre_loss(params, spec, items, mc_indices=None):
    """Density-ratio twist objective: logistic discrimination of coupled
    from decoupled states through the log twist value, at every grid
    point of each item or at its mc_indices point scaled by the point
    count; the (item, point) rows run as one batched pass, the network in
    the params' dtype and the loss in float64."""
    grads = zero_grads(params)
    w, ctxs, (zp, zn, t) = _rows(items, mc_indices, 1, ("states_pos", 0),
                                 ("states_neg", 0), ("grid", 0))
    total = 0.0
    for rows, F, Phi in _encoded_chunks(params, ctxs, t):
        pos, neg, wc = zp[rows], zn[rows], w[rows]
        X = np.stack([_own(Phi, pos).sum(axis=1), _own(Phi, neg).sum(axis=1)], axis=1)
        out, cache = rho_forward(params, X)
        lp, ln = out[:, 0], out[:, 1]
        total += float(wc @ (np.logaddexp(0.0, -lp) + np.logaddexp(0.0, ln)))
        dout = np.stack([-sigmoid(-lp), sigmoid(ln)], axis=1) * wc[:, None]
        dX = rho_backward(params, cache, dout, grads)
        dPhi = np.zeros_like(Phi)
        at = np.arange(len(pos))[:, None], np.arange(spec.d)
        # two adds: a node whose two values agree gains both terms
        dPhi[at + (pos,)] += dX[:, None, 0]
        dPhi[at + (neg,)] += dX[:, None, 1]
        encoder_backward(params, F, Phi, dPhi, grads)
    return total, grads


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


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


def adam_step(arrays, grads, state: AdamState, lr):
    """Bias-corrected Adam update at learning rate lr on a dict of arrays."""
    for k, g in grads.items():
        if not np.all(np.isfinite(g)):
            raise ValueError(f"non-finite gradient block {k}")
    t = state.step + 1
    new = {}
    for k, a in arrays.items():
        g = grads[k]
        state.m[k] = ADAM_BETA1 * state.m[k] + (1 - ADAM_BETA1) * g
        state.v[k] = ADAM_BETA2 * state.v[k] + (1 - ADAM_BETA2) * g * g
        mhat = state.m[k] / (1 - ADAM_BETA1**t)
        vhat = state.v[k] / (1 - ADAM_BETA2**t)
        new[k] = a - lr * mhat / (np.sqrt(vhat) + ADAM_EPS)
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
        self._ws = TableWorkspace()
        # the embeddings Phi of one time and their projection P = Phi @ W2:
        # an SMC step reads those of its right end in log_h_batch, and the
        # next step the same in score_table_batch
        self._cache = (None, None, None)

    def _embed(self, t):
        """(Phi, P) at time t."""
        key = float(t)
        if self._cache[0] != key:
            Phi = encode_context(self.params, self.ctx, t)[0]
            self._cache = key, Phi, _project(self.params, Phi)
        return self._cache[1:]

    def log_h_batch(self, t, Z):
        if not self.ctx.has_future(t):
            return np.zeros(len(Z))
        Phi, P = self._embed(t)
        return twist_log_values(self.params, Phi, Z, P)

    def score_table_batch(self, t, Z, cells=None):
        if not self.ctx.has_future(t):
            return self._zero_scores(len(Z), self.spec.d, self.spec.V)
        Phi, P = self._embed(t)
        return twist_score_table(self.params, Phi, Z, cells, self._ws, P)

    def q0_dist(self, p0):
        return _Q0Dist(self.params, self.ctx, p0)


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
    """(params, Adam state or None, header) of a save_checkpoint file; any
    other file, or an npz without its header or weights, raises ValueError."""
    try:
        data = np.load(path)
        arrs = {k[len("param_"):]: data[k] for k in data.files
                if k.startswith("param_")}
        header = json.loads(bytes(data["meta_json"]).decode())
        params = TwistNetParams(V=header["V"], m=header["m"], **arrs)
    except (AttributeError, KeyError, TypeError, ValueError):
        raise ValueError(f"{path} is not an ipsmc twist checkpoint") from None
    adam = None
    if "adam_step" in data.files:
        adam = AdamState(step=int(data["adam_step"]),
                         m={k[len("adam_m_"):]: data[k] for k in data.files
                            if k.startswith("adam_m_")},
                         v={k[len("adam_v_"):]: data[k] for k in data.files
                            if k.startswith("adam_v_")})
    return params, adam, header

