import dataclasses
import math

import numpy as np
import pytest

from ipsmc.errors import CollapseError
from ipsmc.ips import (SIRSParams, StateSpaceSpec, make_grid, sirs_model,
                       sirs_rate_grad, euler_simulate_batch)
from ipsmc import oracle as orc
from ipsmc import twistnet as tn
from ipsmc.smc import FactorizedInitial
from ipsmc.twisting import ObservationSequence, emission_log_potential
from ipsmc import wakesleep
from ipsmc.wakesleep import (ThetaState, TrainConfig, Telemetry,
                             q0_support_logmask, sleep_phase, sleep_steps,
                             train, wake_loss_and_grad, wake_phase,
                             _simulate_sleep_batch)

from conftest import chain_spec
from helpers import skeleton_score
from test_oracle import _obs


def _ring_spec(d):
    adj = np.zeros((d, d), dtype=int)
    for i in range(d):
        adj[i, (i + 1) % d] = adj[(i + 1) % d, i] = 1
    return StateSpaceSpec(d=d, V=3, adjacency=adj, node_features=np.zeros((d, 0)))


def test_sirs_log_rate_derivative_examples(pair_spec):
    p = SIRSParams(0.1, 1.0, 0.4, 0.05)
    z = np.array([1, 0])  # node 0 infected
    g = sirs_rate_grad(0.0, z, pair_spec, p)
    r = sirs_model().off_rates_batch(0.0, z[None], pair_spec, p)[0, 0, 2]
    assert g[0, 2, 2] / r == pytest.approx(1 / 0.4)
    assert g[0, 2, 2] / r == pytest.approx(2.5)


def test_sirs_rate_grad_carries_leading_axes():
    spec = _ring_spec(4)
    p = SIRSParams(0.1, 1.0, 0.4, 0.05)
    Z = np.random.default_rng(0).integers(0, 3, size=(2, 5, 4))
    g = sirs_rate_grad(0.0, Z, spec, p)
    assert g.shape == (2, 5, 4, 3, 4)
    for a in range(2):
        for b in range(5):
            assert np.array_equal(g[a, b], sirs_rate_grad(0.0, Z[a, b], spec, p))


class TestWakeLoss:
    def _setup(self):
        spec = _ring_spec(3)
        theta = SIRSParams(0.3, 0.9, 0.5, 0.4)
        model = sirs_model()
        obs = ObservationSequence(horizon=1.5, times=np.array([0.5, 1.1]),
                                  values=np.array([[1, 3, 0], [2, 1, 3]]), V=3,
                                  p_mask=0.5, label_noise=0.01)
        grid = make_grid(1.5, 0.1, obs.times)
        rng = np.random.default_rng(2)
        states = euler_simulate_batch(model, spec, theta,
                                      np.array([[0, 1, 0]]), grid, rng)[0]
        return spec, theta, model, obs, grid, states

    def test_gradient_matches_finite_differences(self):
        spec, theta, model, obs, grid, states = self._setup()
        _, grad = wake_loss_and_grad(theta, model, spec, states, obs, grid)
        base = theta.as_array()
        eps = 1e-6
        for j in range(4):
            hi = base.copy()
            hi[j] += eps
            lo = base.copy()
            lo[j] -= eps
            fd = (wake_loss_and_grad(SIRSParams(*hi), model, spec, states, obs,
                                     grid)[0]
                  - wake_loss_and_grad(SIRSParams(*lo), model, spec, states,
                                       obs, grid)[0]) / (2 * eps)
            assert grad[j] == pytest.approx(fd, rel=1e-6, abs=1e-9)

    def test_two_point_gradients_sum_to_full_gradient(self):
        # the rate terms are a sum over grid steps, so the gradients of the
        # M two-point paths add up to the gradient of the whole path
        spec, theta, model, obs, grid, states = self._setup()
        _, full_grad = wake_loss_and_grad(theta, model, spec, states, obs, grid)
        M = len(grid) - 1
        total = sum(wake_loss_and_grad(theta, model, spec, states[m:m + 2],
                                       obs, grid[m:m + 2])[1]
                    for m in range(M))
        assert np.allclose(total, full_grad, atol=1e-10)

    def test_snapshot_terms_read_nearest_grid_state(self):
        # changing only the observations changes the value by the snapshot
        # log-likelihoods at the grid point nearest each observation time
        spec, theta, model, obs, grid, states = self._setup()
        other = dataclasses.replace(obs, values=np.array([[0, 2, 1], [3, 3, 2]]))
        diff = 0.0
        for k, tau in enumerate(obs.times):
            z = states[np.argmin(np.abs(grid - tau))]
            diff += (emission_log_potential(other, k, z)
                     - emission_log_potential(obs, k, z))
        a = wake_loss_and_grad(theta, model, spec, states, obs, grid)[0]
        b = wake_loss_and_grad(theta, model, spec, states, other, grid)[0]
        assert a - b == pytest.approx(diff, rel=1e-10)

    def test_impossible_jump_has_infinite_loss(self, pair_spec):
        # S -> R in one step has zero SIRS rate: the path is impossible, so
        # the minimized loss must be +inf, with a zero gradient
        theta = SIRSParams(0.3, 0.8, 0.5, 0.3)
        obs = _obs(pair_spec, 1.0, [0.5], [[3, 3]])
        grid = make_grid(1.0, 0.25, obs.times)
        states = np.array([[0, 0], [0, 0], [2, 0], [2, 0], [2, 0]])
        loss, grad = wake_loss_and_grad(theta, sirs_model(), pair_spec,
                                        states, obs, grid)
        assert loss == np.inf
        assert np.array_equal(grad, np.zeros(4))

    def test_rejects_time_inhomogeneous_model(self):
        spec, theta, model, obs, grid, states = self._setup()
        model = dataclasses.replace(model, time_homogeneous=False)
        with pytest.raises(ValueError, match="time-homogeneous"):
            wake_loss_and_grad(theta, model, spec, states, obs, grid)

    def test_dense_estimator_matches_per_path(self, pair_spec):
        # the skeleton score of one skeleton is minus the gradient of its
        # decoded path: the first five skeletons, and every skeleton of
        # finite wake loss with a step on which both nodes change
        theta = SIRSParams(0.3, 0.8, 0.5, 0.3)
        model = sirs_model()
        obs = _obs(pair_spec, 1.0, [0.5], [[1, 2]])
        grid = make_grid(1.0, 0.05, obs.times)
        p0 = np.full(9, 1 / 9)
        rng = np.random.default_rng(1)
        sk = orc.sample_posterior_skeleton(model, pair_spec, theta, p0, obs,
                                           grid, 2000, rng)
        table = orc.state_table(pair_spec)
        changed = (table[sk[:, 1:]] != table[sk[:, :-1]]).sum(axis=2)
        two_node = np.flatnonzero((changed == 2).any(axis=1))
        n_two_node = 0
        for r in [0, 1, 2, 3, 4, *two_node]:
            loss, grad = wake_loss_and_grad(theta, model, pair_spec,
                                            table[sk[r]], obs, grid)
            if not np.isfinite(loss):
                continue
            n_two_node += r in two_node
            dense = skeleton_score(model, pair_spec, theta, sk[r:r + 1], grid)
            assert np.allclose(-grad, dense, atol=1e-10), r
        assert n_two_node >= 10


def test_fisher_identity_small(pair_spec):
    # posterior-averaged path score against finite differences of the exact
    # log marginal likelihood; moderate size, the acceptance suite runs the
    # full-resolution version
    theta = SIRSParams(0.25, 0.4, 0.35, 1.2)
    model = sirs_model()
    obs = _obs(pair_spec, 2.0, [0.4, 0.8, 1.2, 1.6, 2.0],
               [[1, 0], [1, 1], [2, 1], [0, 2], [1, 0]], p_mask=0.0, delta=0.02)
    p0 = np.full(9, 1 / 9)

    def logz(arr):
        th = SIRSParams(*arr)
        grid = orc.oracle_grid(model, pair_spec, th, obs, target=0.05)
        return orc.exact_log_marginal_likelihood(model, pair_spec, th, p0, obs,
                                                 grid)

    base = theta.as_array()
    fd = np.zeros(4)
    for j in range(4):
        hi = base.copy()
        hi[j] += 1e-5
        lo = base.copy()
        lo[j] -= 1e-5
        fd[j] = (logz(hi) - logz(lo)) / 2e-5
    grid = make_grid(2.0, 0.005, obs.times)
    sk = orc.sample_posterior_skeleton(model, pair_spec, theta, p0, obs, grid,
                                       20_000, np.random.default_rng(0))
    g = skeleton_score(model, pair_spec, theta, sk, grid)
    assert np.all(np.abs(g - fd) / np.abs(fd) < 0.05)


def test_dense_gradient_of_one_byte_skeletons():
    # 27 states fit in one byte, but the move codes a * 27 + b do not
    spec = _ring_spec(3)
    theta = SIRSParams(0.3, 0.8, 0.5, 0.3)
    model = sirs_model()
    obs = _obs(spec, 1.0, [0.5], [[1, 2, 0]])
    grid = make_grid(1.0, 0.05, obs.times)
    sk = orc.sample_posterior_skeleton(model, spec, theta, np.full(27, 1 / 27),
                                       obs, grid, 500, np.random.default_rng(2))
    assert sk.dtype == np.uint8
    wide = sk.astype(np.int64)
    moved = wide[:, 1:] != wide[:, :-1]
    assert (wide[:, :-1] * 27 + wide[:, 1:])[moved].max() > 255
    assert np.array_equal(skeleton_score(model, spec, theta, sk, grid),
                          skeleton_score(model, spec, theta, wide, grid))


class TestThetaState:
    def test_positivity_is_structural(self):
        state = ThetaState.init(SIRSParams(0.2, 0.2, 0.2, 0.2))
        state.log_theta -= 50.0
        assert np.all(state.params().as_array() > 0)

    def test_lag_refresh(self):
        state = ThetaState.init(SIRSParams(0.2, 0.2, 0.2, 0.2))
        state.log_theta = np.log(np.array([0.3, 0.4, 0.5, 0.6]))
        assert state.lagged.alpha0 == 0.2
        state.refresh_lag()
        assert state.lagged.alpha0 == pytest.approx(0.3)


def _sleep_setup(d=2, seed=0):
    spec = _ring_spec(d) if d > 2 else chain_spec(d, V=3)
    theta = SIRSParams(0.3, 0.9, 0.5, 0.4)
    model = sirs_model()
    probs = np.zeros((d, 3))
    probs[:, 0] = 0.8
    probs[:, 1] = 0.2
    p0 = FactorizedInitial(probs)
    template = ObservationSequence(horizon=1.5, times=np.array([0.6, 1.2]),
                                   values=np.full((2, d), 3), V=3, p_mask=0.5,
                                   label_noise=0.01)
    tau_grids = [np.array([0.6, 1.2]), np.array([0.3, 1.0])]
    return spec, theta, model, p0, template, tau_grids


class TestSleepPhase:
    def test_zero_steps_is_identity(self):
        spec, theta, model, p0, template, tau_grids = _sleep_setup()
        cfg = TrainConfig(batch=2, dt=0.25, seed=0, pretrain_steps=0)
        psi = tn.init_params(3, m=8, seed=0)
        adam = tn.AdamState.init(psi.arrays())
        before = {k: v.copy() for k, v in psi.arrays().items()}
        out = sleep_phase(psi, adam, theta, model, spec, p0, tau_grids,
                          template, cfg, np.random.default_rng(0), n_steps=0)
        for k in before:
            assert np.array_equal(out.arrays()[k], before[k])

    def test_loss_decreases_over_training(self):
        spec, theta, model, p0, template, tau_grids = _sleep_setup()
        cfg = TrainConfig(batch=8, dt=0.15, seed=1, mc_loss=False, reuse=5,
                          lr_psi=3e-3, pretrain_steps=0)
        psi = tn.init_params(3, m=16, seed=1)
        adam = tn.AdamState.init(psi.arrays())
        telemetry = Telemetry()
        sleep_phase(psi, adam, theta, model, spec, p0, tau_grids, template,
                    cfg, np.random.default_rng(1), n_steps=200,
                    telemetry=telemetry)
        losses = [r["loss"] for r in telemetry.rows]
        assert np.mean(losses[-20:]) < np.mean(losses[:20])

    def test_steps_draw_nothing_past_the_last_step(self):
        # stopping after a batch's last step leaves the generator where a
        # run of exactly that many steps leaves it
        spec, theta, model, p0, template, tau_grids = _sleep_setup()
        cfg = TrainConfig(batch=2, dt=0.25, seed=0, reuse=3, pretrain_steps=0)
        ends = []
        for n_steps in (3, 9):
            psi = tn.init_params(3, m=8, seed=0)
            rng = np.random.default_rng(4)
            steps = sleep_steps(psi, tn.AdamState.init(psi.arrays()), theta,
                                model, spec, p0, tau_grids, template, cfg,
                                rng, n_steps)
            for _ in range(3):
                psi, _ = next(steps)
            ends.append((rng.bit_generator.state, psi.arrays()))
        assert ends[0][0] == ends[1][0]
        for k in ends[0][1]:
            assert np.array_equal(ends[0][1][k], ends[1][1][k])

    def test_mc_gradient_expectation_matches_full(self):
        spec, theta, model, p0, template, tau_grids = _sleep_setup()
        cfg = TrainConfig(batch=3, dt=0.25, seed=3, pretrain_steps=0)
        rng = np.random.default_rng(5)
        items = _simulate_sleep_batch(model, spec, theta, p0,
                                      [tau_grids[0]] * 3, template, cfg, rng)
        psi = tn.init_params(3, m=8, seed=2)
        rng2 = np.random.default_rng(7)
        for k, a in psi.arrays().items():
            a[...] += rng2.normal(size=a.shape) * 0.1
        support = q0_support_logmask(p0)
        _, full = tn.sleep_loss_forward_kl(psi, model, spec, theta, items,
                                           q0_support=support)
        M = len(items[0].grid) - 1
        acc = {k: np.zeros_like(v) for k, v in full.items()}
        for m in range(M):
            _, g = tn.sleep_loss_forward_kl(psi, model, spec, theta, items,
                                            mc_indices=[m] * 3,
                                            q0_support=support)
            for k in acc:
                acc[k] += g[k] / M
        for k in full:
            assert np.allclose(acc[k], full[k], atol=1e-10), k


class TestWakePhase:
    def _dataset(self, spec, theta, model, p0, n_items, seed):
        from ipsmc.ips import gillespie_simulate
        from ipsmc.twisting import sample_emission

        rng = np.random.default_rng(seed)
        out = []
        for _ in range(n_items):
            z0 = p0.sample(rng, 1)[0]
            path = gillespie_simulate(model, spec, theta, z0, 1.5, rng)
            taus = np.sort(rng.uniform(0.05, 1.5, size=3))
            template = ObservationSequence(horizon=1.5, times=taus,
                                           values=np.full((3, spec.d), 3),
                                           V=3, p_mask=0.5, label_noise=0.01)
            vals = np.stack([sample_emission(template, path.state_at(t), rng)
                             for t in taus])
            out.append(ObservationSequence(horizon=1.5, times=taus, values=vals,
                                           V=3, p_mask=0.5, label_noise=0.01))
        return out

    def test_zero_steps_is_identity(self):
        spec, theta, model, p0, template, tau_grids = _sleep_setup(d=3)
        obs = self._dataset(spec, theta, model, p0, 2, 0)
        cfg = TrainConfig(batch=2, particles=4, dt=0.25, seed=0,
                          pretrain_steps=0)
        state = ThetaState.init(SIRSParams(0.2, 0.2, 0.2, 0.2))
        before = state.log_theta.copy()
        psi = tn.init_params(3, m=8, seed=0)
        wake_phase(state, psi, model, spec, p0, obs, cfg,
                   np.random.default_rng(0), n_steps=0)
        assert np.array_equal(state.log_theta, before)

    def test_batch_without_survivors_raises(self, monkeypatch):
        # every tSMC run collapsing must end the phase, not loop forever
        spec, theta, model, p0, template, tau_grids = _sleep_setup(d=3)
        obs = self._dataset(spec, theta, model, p0, 2, 0)
        cfg = TrainConfig(batch=2, particles=4, dt=0.25, seed=0,
                          pretrain_steps=0)
        monkeypatch.setattr(wakesleep, "_wake_sample", lambda *a: None)
        state = ThetaState.init(SIRSParams(0.2, 0.2, 0.2, 0.2))
        psi = tn.init_params(3, m=8, seed=0)
        counter = {"skipped": 0, "attempted": 0}
        with pytest.raises(CollapseError):
            wake_phase(state, psi, model, spec, p0, obs, cfg,
                       np.random.default_rng(0), n_steps=3,
                       skip_counter=counter)
        assert counter == {"skipped": 2, "attempted": 2}

    @pytest.mark.slow
    def test_stationary_at_truth_with_trained_twist(self):
        # parameters starting at the truth should end a wake phase close to
        # it; residual motion is stochastic-gradient noise plus the finite
        # dataset's own maximum-likelihood offset
        spec, theta, model, p0, template, tau_grids = _sleep_setup(d=3)
        obs = self._dataset(spec, theta, model, p0, 20, 1)
        cfg = TrainConfig(batch=8, particles=8, dt=0.05, seed=2, reuse=5,
                          lr_psi=2e-3, lr_theta=2e-3, mc_loss=False,
                          pretrain_steps=0)
        psi = tn.init_params(3, m=16, seed=3)
        adam = tn.AdamState.init(psi.arrays())
        psi = sleep_phase(psi, adam, theta, model, spec, p0,
                          [o.times for o in obs], template, cfg,
                          np.random.default_rng(3), n_steps=120)
        state = ThetaState.init(theta)
        state.refresh_lag()
        telemetry = Telemetry()
        wake_phase(state, psi, model, spec, p0, obs, cfg,
                   np.random.default_rng(4), n_steps=100, telemetry=telemetry,
                   truth=theta)
        rpe = telemetry.rows[-1]["rpe"]
        assert rpe < 0.2


class TestTrain:
    def test_zero_global_iters_returns_initials(self):
        spec, theta, model, p0, template, tau_grids = _sleep_setup()
        obs = [template]
        cfg = TrainConfig(global_iters=0, steps_per_phase=0, batch=1,
                          particles=2, dt=0.25, seed=0, pretrain_steps=0)
        state, psi, telemetry = train(model, spec, p0, obs,
                                      SIRSParams(0.2, 0.2, 0.2, 0.2), cfg)
        assert np.allclose(state.params().as_array(), 0.2)
        assert telemetry.rows == []

    def test_telemetry_row_count(self):
        spec, theta, model, p0, template, tau_grids = _sleep_setup()
        obs = [template, template]
        cfg = TrainConfig(global_iters=2, steps_per_phase=3, batch=2,
                          particles=4, dt=0.25, seed=0, reuse=3,
                          pretrain_steps=4, pretrain_window=1000)
        state, psi, telemetry = train(model, spec, p0, obs,
                                      SIRSParams(0.2, 0.2, 0.2, 0.2), cfg,
                                      truth=theta)
        assert len(telemetry.rows) == 4 + 2 * (3 + 3)
        phases = [r["phase"] for r in telemetry.rows]
        assert phases[:4] == ["pretrain"] * 4
        assert all(np.isfinite(r["rpe"]) for r in telemetry.rows)

    def test_pretraining_stops_on_plateau_at_batch_end(self):
        # any change passes a relative tolerance of 1e9, so pretraining stops
        # at the first batch end with 2 * pretrain_window losses: step 6
        spec, theta, model, p0, template, tau_grids = _sleep_setup()
        cfg = TrainConfig(global_iters=1, steps_per_phase=2, batch=2,
                          particles=4, dt=0.25, seed=0, reuse=3,
                          pretrain_steps=20, pretrain_window=2,
                          pretrain_rel_tol=1e9)
        _, _, telemetry = train(model, spec, p0, [template, template],
                                SIRSParams(0.2, 0.2, 0.2, 0.2), cfg)
        phases = [r["phase"] for r in telemetry.rows]
        assert phases == ["pretrain"] * 6 + ["sleep"] * 2 + ["wake"] * 2

    def test_determinism(self):
        spec, theta, model, p0, template, tau_grids = _sleep_setup()
        obs = [template, template]
        cfg = TrainConfig(global_iters=1, steps_per_phase=2, batch=2,
                          particles=4, dt=0.25, seed=9, reuse=2,
                          pretrain_steps=2, pretrain_window=1000)
        runs = [train(model, spec, p0, obs, SIRSParams(0.2, 0.2, 0.2, 0.2),
                      cfg, truth=theta) for _ in range(2)]
        assert np.array_equal(runs[0][0].log_theta, runs[1][0].log_theta)
        assert len(runs[0][2].rows) == len(runs[1][2].rows)
        for a, b in zip(runs[0][2].rows, runs[1][2].rows):
            assert a.keys() == b.keys()
            for key in a:
                va, vb = a[key], b[key]
                if isinstance(va, float) and math.isnan(va):
                    assert isinstance(vb, float) and math.isnan(vb)
                else:
                    assert va == vb
        for k in runs[0][1].arrays():
            assert np.array_equal(runs[0][1].arrays()[k],
                                  runs[1][1].arrays()[k])
