"""Outer training loop: sleep updates of the twist on prior simulations,
wake updates of the rate parameters on posterior paths drawn with twisted
SMC under a lagged parameter copy.

Rate parameters are optimized as unconstrained logs, so positivity is
structural. Inside the wake sampler both the proposal and the weights use
the lagged copy; the current parameters enter only through the wake loss.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bench import relative_parameter_error
from .errors import CollapseError
from .ips import SIRSParams, euler_simulate_batch, make_grid
from .smc import SMCConfig, run_smc, sample_path_index
from .twisting import ObservationSequence, emission_log_table, sample_emission
from . import twistnet as tn


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
    pretrain_window: int = 100
    pretrain_rel_tol: float = 1e-3

    def __post_init__(self):
        if min(self.batch, self.particles, self.reuse) < 1:
            raise ValueError("batch, particles and reuse must be >= 1")
        if self.loss not in ("kl", "dre"):
            raise ValueError("loss must be 'kl' or 'dre'")


@dataclass
class ThetaState:
    """Rate parameters in unconstrained log space plus optimizer state and
    the lagged copy used by the wake-phase sampler."""

    log_theta: np.ndarray
    adam: tn.AdamState
    lagged: SIRSParams

    @classmethod
    def init(cls, theta0: SIRSParams):
        log_theta = np.log(theta0.as_array())
        return cls(log_theta=log_theta,
                   adam=tn.AdamState.init({"log_theta": log_theta}),
                   lagged=theta0)

    def params(self) -> SIRSParams:
        return SIRSParams.from_array(np.exp(self.log_theta))

    def refresh_lag(self):
        self.lagged = self.params()


def wake_loss_and_grad(theta: SIRSParams, model, spec, states, obs, grid):
    """Discretized complete-data objective of one grid path (M+1, d) and
    its observations; gradient in the natural (rate) parameterization.

    Per step the path pays the held state's exit rate times the step
    length and earns the log intensity of every realized coordinate
    change; emission and initial terms carry no rate parameters here but
    are included in the value. The rate terms are the exact sum over all M
    steps, evaluated in one batch.

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

    # each snapshot scores the state at the grid point nearest its time
    snaps = states[np.argmin(np.abs(grid[:, None] - obs.times), axis=0)]
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

    def add(self, global_iter, phase, step, loss, mean_ess, min_ess, theta, rpe):
        self.rows.append({
            "global_iter": global_iter, "phase": phase, "step": step,
            "loss": loss, "mean_ess": mean_ess, "min_ess": min_ess,
            "alpha0": theta.alpha0, "alpha1": theta.alpha1,
            "beta": theta.beta, "gamma": theta.gamma, "rpe": rpe,
        })


def _simulate_sleep_batch(model, spec, theta, p0, tau_grids, obs_template, cfg, rng,
                          with_negatives=False):
    """Prior paths on each item's grid with synthetic observations at the
    item's snapshot times."""
    items = []
    for taus in tau_grids:
        grid = make_grid(obs_template.horizon, cfg.dt, taus)
        z0 = p0.sample(rng, 1)
        states = euler_simulate_batch(model, spec, theta, z0, grid, rng)[0]
        tau_idx = [int(np.argmin(np.abs(grid - tau))) for tau in taus]
        values = np.stack([sample_emission(obs_template, states[j], rng)
                           for j in tau_idx]) if len(tau_idx) else np.zeros((0, spec.d), dtype=np.int64)
        obs = ObservationSequence(horizon=obs_template.horizon, times=np.asarray(taus),
                                  values=values, V=spec.V,
                                  p_mask=obs_template.p_mask,
                                  label_noise=obs_template.label_noise)
        ctx = tn.TwistContext(spec, obs)
        if with_negatives:
            zn0 = p0.sample(rng, 1)
            neg = euler_simulate_batch(model, spec, theta, zn0, grid, rng)[0]
            items.append(tn.DREItem(grid=grid, states_pos=states, states_neg=neg, ctx=ctx))
        else:
            items.append(tn.SleepItem(grid=grid, states=states, ctx=ctx))
    return items


def sleep_steps(psi, adam, theta, model, spec, p0, tau_grids, obs_template,
                cfg, rng, n_steps):
    """The sleep loop: n_steps Adam steps on the twist psi at rate
    cfg.lr_psi, yielding (psi, loss) after each.

    Every cfg.reuse steps it simulates a fresh batch of cfg.batch prior
    paths under theta, each on the grid of a randomly drawn tau_grids
    entry. With cfg.mc_loss each step scores every path on one random grid
    step (Monte Carlo over time); cfg.loss picks the forward-KL or the
    density-ratio loss. The generator is lazy: it draws nothing from rng
    after the caller's last step."""
    hyper = tn.AdamHyper(lr=cfg.lr_psi)
    q0_support = q0_support_logmask(p0)
    for step in range(n_steps):
        if step % cfg.reuse == 0:
            batch_taus = [tau_grids[int(rng.integers(len(tau_grids)))]
                          for _ in range(cfg.batch)]
            items = _simulate_sleep_batch(model, spec, theta, p0, batch_taus,
                                          obs_template, cfg, rng,
                                          with_negatives=cfg.loss == "dre")
        mcs = ([int(rng.integers(len(it.grid) - 1)) for it in items]
               if cfg.mc_loss else None)
        if cfg.loss == "dre":
            loss, grads = tn.dre_loss(psi, spec, items, mc_indices=mcs)
        else:
            loss, grads = tn.sleep_loss_forward_kl(psi, model, spec, theta,
                                                   items, mc_indices=mcs,
                                                   q0_support=q0_support)
        psi = psi.replace_arrays(tn.adam_step(psi.arrays(), grads, adam, hyper))
        yield psi, loss


def sleep_phase(psi, psi_adam, theta, model, spec, p0, tau_grids, obs_template,
                cfg, rng, n_steps, telemetry=None, global_iter=0, truth=None):
    """n_steps sleep steps on the twist (sleep_steps), one telemetry row
    each. mc_loss applies to the sleep loop only; the wake phase always
    uses the exact full-path objective."""
    rpe = (relative_parameter_error(theta.as_array(), truth.as_array())
           if truth is not None else float("nan"))
    for step, (psi, loss) in enumerate(
            sleep_steps(psi, psi_adam, theta, model, spec, p0, tau_grids,
                        obs_template, cfg, rng, n_steps), 1):
        if telemetry is not None:
            telemetry.add(global_iter, "sleep", step, loss,
                          float("nan"), float("nan"), theta, rpe)
    return psi


def q0_support_logmask(p0):
    """Log-mask of the prior initial support: 0 where a node value can
    occur at time zero, -inf elsewhere."""
    mask = np.where(p0.probs > 0, 0.0, -np.inf)
    return mask


def wake_phase(theta_state: ThetaState, psi, model, spec, p0, dataset_obs,
               cfg, rng, n_steps, telemetry=None, global_iter=0, truth=None,
               skip_counter=None, pool=None):
    """n_steps optimizer steps on the rate parameters: per batch, run
    twisted SMC under the lagged parameters, draw one path per item by
    importance resampling, then reuse the batch for several steps.

    Each step follows the exact full-path wake objective of every sampled
    path (cfg.mc_loss does not apply here). A batch in which every tSMC
    run collapsed raises CollapseError."""
    hyper = tn.AdamHyper(lr=cfg.lr_theta)
    step = 0
    theta_bar = theta_state.lagged
    while step < n_steps:
        picks = [int(rng.integers(len(dataset_obs))) for _ in range(cfg.batch)]
        seeds = [int(rng.integers(2**63)) for _ in picks]
        jobs = [(dataset_obs[i], s) for i, s in zip(picks, seeds)]
        results = _map(pool, lambda job: _wake_sample(model, spec, theta_bar, psi,
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
            grad = np.zeros(4)
            for states, obs, grid in batch:
                lo, gr = wake_loss_and_grad(theta, model, spec, states, obs, grid)
                losses.append(lo)
                grad += gr
            grad /= len(batch)
            # chain rule into log space; wake loss is minimized
            glog = grad * np.exp(theta_state.log_theta)
            new = tn.adam_step({"log_theta": theta_state.log_theta},
                               {"log_theta": glog}, theta_state.adam, hyper)
            theta_state.log_theta = new["log_theta"]
            step += 1
            if telemetry is not None:
                cur = theta_state.params()
                rpe = (relative_parameter_error(cur.as_array(), truth.as_array())
                       if truth is not None else float("nan"))
                telemetry.add(global_iter, "wake", step, float(np.mean(losses)),
                              mean_ess, min_ess, cur, rpe)
    return theta_state


def _wake_sample(model, spec, theta_bar, psi, p0, obs, cfg, seed):
    """One tSMC run and one resampled path; None on weight collapse."""
    twist = tn.LearnedTwist(psi, spec, obs)
    smc_cfg = SMCConfig(S=cfg.particles, dt=cfg.dt,
                        ess_threshold=cfg.ess_threshold, store_paths=True,
                        seed=seed)
    try:
        ens, _ = run_smc(model, spec, theta_bar, twist,
                         twist.q0_dist(q0_support_logmask(p0)), p0,
                         obs, smc_cfg)
    except CollapseError:
        return None
    rng = np.random.default_rng(seed + 1)
    s = sample_path_index(ens, rng)
    ess = np.array([e for _, e in ens.ess_history])
    return ens.trajectories[s], obs, ens.grid, (float(ess.mean()), float(ess.min()))


def _map(pool, fn, jobs):
    if pool is None:
        return [fn(j) for j in jobs]
    return list(pool.map(fn, jobs))


def train(model, spec, p0, dataset_obs, theta0: SIRSParams, cfg: TrainConfig,
          truth=None, checkpoint_dir=None, pool=None):
    """Alternating wake-sleep (optional sleep-only warm start first).

    Returns (ThetaState, twist params, Telemetry). The twist is frozen
    during each wake phase and the lagged copy refreshes once per global
    iteration.
    """
    rng = np.random.default_rng(cfg.seed)
    psi = tn.init_params(spec.V, m=cfg.width, seed=cfg.seed)
    psi_adam = tn.AdamState.init(psi.arrays())
    theta_state = ThetaState.init(theta0)
    telemetry = Telemetry()
    tau_grids = [np.asarray(o.times) for o in dataset_obs]
    obs_template = dataset_obs[0]
    skip_counter = {"skipped": 0, "attempted": 0}

    if cfg.pretrain_steps > 0:
        psi = _pretrain(psi, psi_adam, theta_state.params(), model, spec, p0,
                        tau_grids, obs_template, cfg, rng, telemetry, truth)

    for g in range(1, cfg.global_iters + 1):
        psi = sleep_phase(psi, psi_adam, theta_state.params(), model, spec, p0,
                          tau_grids, obs_template, cfg, rng, cfg.steps_per_phase,
                          telemetry, g, truth)
        theta_state.refresh_lag()
        theta_state = wake_phase(theta_state, psi, model, spec, p0, dataset_obs,
                                 cfg, rng, cfg.steps_per_phase, telemetry, g,
                                 truth, skip_counter, pool)
        if checkpoint_dir is not None:
            tn.save_checkpoint(f"{checkpoint_dir}/checkpoint_{g:04d}.npz", psi,
                               psi_adam, meta={"global_iter": g,
                                               "loss": cfg.loss,
                                               "theta": list(theta_state.params().as_array())})
    if skip_counter["attempted"]:
        rate = skip_counter["skipped"] / skip_counter["attempted"]
        if rate > 0.10:
            raise CollapseError(f"wake-phase collapse skip rate {rate:.1%} exceeds 10%")
    return theta_state, psi, telemetry


def _pretrain(psi, psi_adam, theta, model, spec, p0, tau_grids, obs_template,
              cfg, rng, telemetry, truth):
    """Sleep-only warm start, early-stopped on a loss plateau: at the end
    of a batch, once 2 * pretrain_window losses exist, it stops if the mean
    of the last window fell by less than pretrain_rel_tol (relative) below
    the mean of the window before."""
    window = cfg.pretrain_window
    rpe = (relative_parameter_error(theta.as_array(), truth.as_array())
           if truth is not None else float("nan"))
    losses = []
    for step, (psi, loss) in enumerate(
            sleep_steps(psi, psi_adam, theta, model, spec, p0, tau_grids,
                        obs_template, cfg, rng, cfg.pretrain_steps), 1):
        losses.append(loss)
        telemetry.add(0, "pretrain", step, loss, float("nan"), float("nan"),
                      theta, rpe)
        if step % cfg.reuse == 0 and len(losses) >= 2 * window:
            prev = float(np.mean(losses[-2 * window:-window]))
            last = float(np.mean(losses[-window:]))
            denom = max(abs(prev), 1e-9)
            if (prev - last) / denom < cfg.pretrain_rel_tol:
                break
    return psi
