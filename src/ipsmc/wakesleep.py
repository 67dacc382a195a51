"""Outer training loop: sleep updates of the twist on prior simulations,
wake updates of the rate parameters on posterior paths drawn with twisted
SMC under the parameters a wake phase starts with.

Rate parameters are optimized as unconstrained logs, so positivity is
structural. Inside the wake sampler both the proposal and the weights use
the phase's starting parameters; the current parameters enter only through
the wake loss.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from .errors import CollapseError
from .ips import euler_simulate_batch, grid_indices, make_grid
from .smc import SMCConfig, run_smc, sample_path_index
from .twisting import emission_log_table, sample_emission
from . import twistnet as tn

# the dtype the sleep losses run the twist network in; the master weights,
# the Adam state and checkpoints stay float64 (mixed-precision training:
# Micikevicius et al., ICLR 2018)
SLEEP_DTYPE = np.float32

# the sleep-only warm start stops on a loss plateau: at the end of a batch,
# once 2 * PRETRAIN_WINDOW losses exist, if the mean of the last window fell
# by less than PRETRAIN_REL_TOL (relative) below the mean of the one before
PRETRAIN_WINDOW = 100
PRETRAIN_REL_TOL = 1e-3


@dataclass
class TrainConfig:
    global_iters: int = 25
    steps_per_phase: int = 25
    batch: int = 16
    particles: int = 10
    dt: float = 0.05
    mc_loss: bool = True  # one-step Monte Carlo sleep loss; wake is exact
    reuse: int = 25
    lr_psi: float = 3e-4
    lr_theta: float = 5e-3
    seed: int = 0
    loss: str = "kl"
    width: int = 64
    ess_threshold: float = 1.0
    pretrain_steps: int = 2500

    def __post_init__(self):
        if min(self.batch, self.particles, self.reuse, self.width) < 1:
            raise ValueError("batch, particles, reuse and width must be >= 1")
        if min(self.global_iters, self.steps_per_phase, self.pretrain_steps) < 0:
            raise ValueError("global_iters, steps_per_phase and pretrain_steps "
                             "must be >= 0")
        if not 0 < self.dt < np.inf:
            raise ValueError(f"dt must be positive and finite, got {self.dt}")
        if self.loss not in ("kl", "dre"):
            raise ValueError("loss must be 'kl' or 'dre'")


@dataclass
class ThetaState:
    """Rate parameters in unconstrained log space plus optimizer state. kind
    is theta's dataclass, whose fields, in order, make the vector."""

    log_theta: np.ndarray
    adam: tn.AdamState
    kind: type

    @classmethod
    def init(cls, theta0):
        log_theta = np.log(dataclasses.astuple(theta0))
        return cls(log_theta=log_theta, kind=type(theta0),
                   adam=tn.AdamState.init({"log_theta": log_theta}))

    def params(self):
        return self.kind(*np.exp(self.log_theta).tolist())


def wake_loss_and_grad(theta, model, spec, states, obs, grid):
    """Discretized complete-data objective of one grid path (M+1, d) and
    its observations; gradient in the natural (rate) parameterization.

    Per step the path pays the held state's exit rate times the step
    length and earns the log intensity of every realized coordinate
    change; emission and initial terms carry no rate parameters here but
    are included in the value. The rate terms are the exact sum over all M
    steps, evaluated in one batch. Each snapshot scores the state at its
    grid point; a grid without some snapshot time raises ValueError.

    All steps share one rate evaluation, so the model must be time
    homogeneous; any other model raises ValueError. A realized jump of zero
    rate makes the path impossible under theta: the loss is then +inf and
    the returned gradient is zero, as the objective has no finite slope.
    """
    if not model.time_homogeneous:
        raise ValueError("the wake objective evaluates every grid step at "
                         "one time and needs a time-homogeneous model")
    grid = np.asarray(grid)
    states = np.asarray(states)

    snaps = states[grid_indices(grid, obs.times)]
    tables = emission_log_table(obs, np.arange(obs.K))  # (K, d, V)
    loss = -float(np.take_along_axis(tables, snaps[..., None], axis=2).sum())

    dts = np.diff(grid)
    held, nxt = states[:-1], states[1:]
    off = model.off_rates_batch(grid[0], held, spec, theta)  # (M, d, V)
    rg = model.rate_grad_fn(grid[0], held, spec, theta)      # (M, d, V, P)
    steps, nodes = np.nonzero(nxt != held)
    vals = nxt[steps, nodes]
    r = off[steps, nodes, vals]
    if np.any(r <= 0):
        return np.inf, np.zeros(rg.shape[-1])
    # time-weighted sums over steps, one matrix-vector product each
    exit_rate = dts @ off.reshape(len(dts), -1)
    exit_grad = (dts @ rg.reshape(len(dts), -1)).reshape(-1, rg.shape[-1])
    loss += float(exit_rate.sum()) - float(np.log(r).sum())
    grad = (exit_grad.sum(axis=0)
            - (rg[steps, nodes, vals] / r[:, None]).sum(axis=0))
    return loss, grad


@dataclass
class Telemetry:
    rows: list = field(default_factory=list)

    def add(self, global_iter, phase, step, loss, mean_ess, min_ess, theta):
        self.rows.append({
            "global_iter": global_iter, "phase": phase, "step": step,
            "loss": loss, "mean_ess": mean_ess, "min_ess": min_ess,
            **dataclasses.asdict(theta),
        })


def _simulate_sleep_batch(model, spec, theta, p0, seqs, cfg, rng,
                          with_negatives=False):
    """One prior path per sequence of seqs on its grid, with synthetic
    observations at its snapshot times under its emission law. The paths,
    and the decoupled negatives on their item's grid, step in lockstep on
    grids padded with repeats of the horizon: rng draws every initial
    state, every step, then the snapshots."""
    grids = [make_grid(obs.horizon, cfg.dt, obs.times) for obs in seqs]
    runs = grids * (2 if with_negatives else 1)
    width = max(map(len, grids))
    padded = np.stack([np.pad(g, (0, width - len(g)), mode="edge") for g in runs])
    # equal grids run on one shared grid, which any model accepts
    paths = euler_simulate_batch(model, spec, theta, p0.sample(rng, len(runs)),
                                 padded[0] if (padded == padded[0]).all() else padded,
                                 rng)
    items = []
    for b, (obs, grid) in enumerate(zip(seqs, grids)):
        states = paths[b, :len(grid)]
        snaps = grid_indices(grid, obs.times)
        values = (np.stack([sample_emission(obs, states[j], rng) for j in snaps])
                  if obs.K else np.zeros((0, spec.d), dtype=np.int64))
        ctx = tn.TwistContext(spec, dataclasses.replace(obs, values=values))
        if with_negatives:
            items.append(tn.DREItem(grid=grid, states_pos=states, ctx=ctx,
                                    states_neg=paths[len(grids) + b, :len(grid)]))
        else:
            items.append(tn.SleepItem(grid=grid, states=states, ctx=ctx))
    return items


def sleep_steps(psi, adam, theta, model, spec, p0, dataset_obs, cfg, rng,
                n_steps):
    """The sleep loop: n_steps Adam steps on the twist psi at rate
    cfg.lr_psi, yielding (psi, loss) after each.

    Every cfg.reuse steps it simulates a fresh batch of cfg.batch prior
    paths under theta, each mirroring a randomly drawn sequence of
    dataset_obs: its horizon, its snapshot times and its emission law.
    With cfg.mc_loss each step scores every path on one random grid
    step (Monte Carlo over time); cfg.loss picks the forward-KL or the
    density-ratio loss. Each loss runs on a SLEEP_DTYPE copy of psi, and
    its gradients are cast back to float64 for the Adam step on psi. The
    generator is lazy: it draws nothing from rng after the caller's last
    step."""
    q0_support = tn._support_logmask(p0)
    for step in range(n_steps):
        if step % cfg.reuse == 0:
            seqs = [dataset_obs[int(rng.integers(len(dataset_obs)))]
                    for _ in range(cfg.batch)]
            items = _simulate_sleep_batch(model, spec, theta, p0, seqs, cfg,
                                          rng, with_negatives=cfg.loss == "dre")
        mcs = ([int(rng.integers(len(it.grid) - 1)) for it in items]
               if cfg.mc_loss else None)
        low = psi.astype(SLEEP_DTYPE)
        if cfg.loss == "dre":
            loss, grads = tn.dre_loss(low, spec, items, mc_indices=mcs)
        else:
            loss, grads = tn.sleep_loss_forward_kl(low, model, spec, theta,
                                                   items, mc_indices=mcs,
                                                   q0_support=q0_support)
        grads = {k: g.astype(np.float64) for k, g in grads.items()}
        psi = psi.replace_arrays(tn.adam_step(psi.arrays(), grads, adam,
                                              cfg.lr_psi))
        yield psi, loss


def sleep_phase(psi, psi_adam, theta, model, spec, p0, dataset_obs, cfg, rng,
                n_steps, telemetry=None, global_iter=0, pretrain=False):
    """n_steps sleep steps on the twist (sleep_steps), one telemetry row
    each. mc_loss applies to the sleep loop only; the wake phase always
    uses the exact full-path objective.

    pretrain=True labels the rows "pretrain" (else "sleep") and stops
    early on a loss plateau (PRETRAIN_WINDOW, PRETRAIN_REL_TOL)."""
    window = PRETRAIN_WINDOW
    losses = []
    for step, (psi, loss) in enumerate(
            sleep_steps(psi, psi_adam, theta, model, spec, p0, dataset_obs,
                        cfg, rng, n_steps), 1):
        losses.append(loss)
        if telemetry is not None:
            telemetry.add(global_iter, "pretrain" if pretrain else "sleep",
                          step, loss, float("nan"), float("nan"), theta)
        if pretrain and step % cfg.reuse == 0 and len(losses) >= 2 * window:
            prev = float(np.mean(losses[-2 * window:-window]))
            last = float(np.mean(losses[-window:]))
            if (prev - last) / max(abs(prev), 1e-9) < PRETRAIN_REL_TOL:
                break
    return psi


def wake_phase(theta_state: ThetaState, psi, model, spec, p0, dataset_obs,
               cfg, rng, n_steps, telemetry=None, global_iter=0,
               skip_counter=None, mapper=map):
    """n_steps optimizer steps on the rate parameters: per batch, run
    twisted SMC under the parameters the phase started with, draw one path
    per item by importance resampling, then reuse the batch for several
    steps. mapper maps the batch's tSMC runs (builtin map, or a pool's).

    Each step follows the exact full-path wake objective of every sampled
    path (cfg.mc_loss does not apply here). A batch in which every tSMC
    run collapsed raises CollapseError."""
    step = 0
    theta_bar = theta_state.params()
    while step < n_steps:
        picks = [int(rng.integers(len(dataset_obs))) for _ in range(cfg.batch)]
        seeds = [int(rng.integers(2**63)) for _ in picks]
        jobs = [(dataset_obs[i], s) for i, s in zip(picks, seeds)]
        results = mapper(lambda job: _wake_sample(model, spec, theta_bar, psi,
                                                  p0, job[0], cfg, job[1]), jobs)
        batch = []
        ess_stats = []
        for res in results:
            if res is None:
                if skip_counter is not None:
                    skip_counter["skipped"] += 1
                continue
            batch.append(res[:3])
            ess_stats.append(res[3])
        if skip_counter is not None:
            skip_counter["attempted"] += len(jobs)
        if not batch:
            raise CollapseError(f"every one of the {len(jobs)} twisted SMC "
                                f"runs of a wake batch collapsed")
        mean_ess = float(np.mean([e[0] for e in ess_stats]))
        min_ess = float(np.min([e[1] for e in ess_stats]))
        for _ in range(min(cfg.reuse, n_steps - step)):
            theta = theta_state.params()
            losses = []
            grad = np.zeros_like(theta_state.log_theta)
            for states, obs, grid in batch:
                lo, gr = wake_loss_and_grad(theta, model, spec, states, obs, grid)
                losses.append(lo)
                grad += gr
            grad /= len(batch)
            # chain rule into log space; wake loss is minimized
            glog = grad * np.exp(theta_state.log_theta)
            new = tn.adam_step({"log_theta": theta_state.log_theta},
                               {"log_theta": glog}, theta_state.adam,
                               cfg.lr_theta)
            theta_state.log_theta = new["log_theta"]
            step += 1
            if telemetry is not None:
                telemetry.add(global_iter, "wake", step, float(np.mean(losses)),
                              mean_ess, min_ess, theta_state.params())
    return theta_state


def _wake_sample(model, spec, theta_bar, psi, p0, obs, cfg, seed):
    """One tSMC run and one resampled path; None on weight collapse."""
    twist = tn.LearnedTwist(psi, spec, obs)
    smc_cfg = SMCConfig(S=cfg.particles, dt=cfg.dt,
                        ess_threshold=cfg.ess_threshold, seed=seed)
    try:
        ens, _ = run_smc(model, spec, theta_bar, twist, p0, obs, smc_cfg)
    except CollapseError:
        return None
    rng = np.random.default_rng(seed + 1)
    s = sample_path_index(ens, rng)
    ess = np.array([e for _, e in ens.ess_history])
    return ens.trajectories[s], obs, ens.grid, (float(ess.mean()), float(ess.min()))


def train(model, spec, p0, dataset_obs, theta0, cfg: TrainConfig,
          checkpoint_dir=None, mapper=map):
    """Alternating wake-sleep (optional sleep-only warm start first).

    Returns (ThetaState, twist params, Telemetry). The twist is frozen
    during each wake phase, whose sampler runs under the parameters the
    phase starts with.
    """
    rng = np.random.default_rng(cfg.seed)
    psi = tn.init_params(spec.V, m=cfg.width, seed=cfg.seed)
    psi_adam = tn.AdamState.init(psi.arrays())
    theta_state = ThetaState.init(theta0)
    telemetry = Telemetry()
    skip_counter = {"skipped": 0, "attempted": 0}

    if cfg.pretrain_steps > 0:
        psi = sleep_phase(psi, psi_adam, theta_state.params(), model, spec, p0,
                          dataset_obs, cfg, rng, cfg.pretrain_steps, telemetry,
                          0, pretrain=True)

    for g in range(1, cfg.global_iters + 1):
        psi = sleep_phase(psi, psi_adam, theta_state.params(), model, spec, p0,
                          dataset_obs, cfg, rng, cfg.steps_per_phase, telemetry,
                          g)
        theta_state = wake_phase(theta_state, psi, model, spec, p0, dataset_obs,
                                 cfg, rng, cfg.steps_per_phase, telemetry, g,
                                 skip_counter, mapper)
        if checkpoint_dir is not None:
            tn.save_checkpoint(f"{checkpoint_dir}/checkpoint_{g:04d}.npz", psi,
                               psi_adam, meta={"global_iter": g,
                                               "loss": cfg.loss,
                                               "theta": dataclasses.astuple(theta_state.params())})
    if skip_counter["attempted"]:
        rate = skip_counter["skipped"] / skip_counter["attempted"]
        if rate > 0.10:
            raise CollapseError(f"wake-phase collapse skip rate {rate:.1%} exceeds 10%")
    return theta_state, psi, telemetry
