import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from ipsmc.ips import (RateModel, SIRSParams, euler_simulate_batch,
                       gillespie_simulate, make_grid, sirs_model)
from ipsmc import oracle as orc
from ipsmc.smc import _propose_step
from ipsmc.twisting import (ConstantTwist, ObservationSequence,
                            TwistOracle, emission_log_potential,
                            emission_log_table, incremental_ess,
                            read_observations, sample_emission,
                            write_observations)

from conftest import chain_spec, make_flip_model
from helpers import exact_twist_ess_values, kernel_pmf
from test_oracle import two_state_model, _obs


class TestObservationSequence:
    def test_rejects_nonincreasing_times(self):
        with pytest.raises(ValueError):
            ObservationSequence(horizon=1.0, times=np.array([0.5, 0.5]),
                                values=np.zeros((2, 1), dtype=int), V=2,
                                p_mask=0.5, label_noise=0.0)

    def test_rejects_out_of_range_values(self):
        with pytest.raises(ValueError):
            ObservationSequence(horizon=1.0, times=np.array([0.5]),
                                values=np.array([[3]]), V=2, p_mask=0.5,
                                label_noise=0.0)

    def test_round_trip(self):
        obs = ObservationSequence(horizon=2.0, times=np.array([0.25, 1.5]),
                                  values=np.array([[0, 3, 2], [1, 1, 3]]), V=3,
                                  p_mask=0.5, label_noise=0.001)
        buf = io.StringIO()
        write_observations(buf, obs)
        buf.seek(0)
        back = read_observations(buf, 2.0)
        assert np.array_equal(back.times, obs.times)
        assert np.array_equal(back.values, obs.values)
        assert back.p_mask == obs.p_mask and back.label_noise == obs.label_noise


class TestEmission:
    def test_all_masked(self):
        spec = chain_spec(4, V=3)
        obs = _obs(spec, 1.0, [0.5], [[3, 3, 3, 3]], p_mask=0.5, delta=0.001)
        val = emission_log_potential(obs, 0, np.array([0, 1, 2, 0]))
        assert val == pytest.approx(4 * math.log(0.5))

    def test_correct_observation(self):
        spec = chain_spec(1, V=3)
        obs = _obs(spec, 1.0, [0.5], [[2]], p_mask=0.5, delta=0.001)
        assert emission_log_potential(obs, 0, np.array([2])) == pytest.approx(
            math.log(0.5 * (1 - 0.002)))

    def test_incorrect_observation(self):
        spec = chain_spec(1, V=3)
        obs = _obs(spec, 1.0, [0.5], [[2]], p_mask=0.5, delta=0.001)
        assert emission_log_potential(obs, 0, np.array([0])) == pytest.approx(
            math.log(0.5 * 0.001))

    def test_stack_matches_per_state_calls(self):
        # one call on a stack of states gives each state's potential bit for
        # bit, whatever the leading shape
        spec = chain_spec(5, V=3)
        obs = _obs(spec, 1.0, [0.5, 0.8], [[3, 0, 2, 3, 1], [1, 3, 3, 0, 2]],
                   p_mask=0.3, delta=0.01)
        Z = np.random.default_rng(0).integers(3, size=(40, 5))
        for k in range(2):
            stack = emission_log_potential(obs, k, Z)
            assert stack.shape == (40,)
            assert np.array_equal(stack, [emission_log_potential(obs, k, z)
                                          for z in Z])
            assert np.array_equal(emission_log_potential(obs, k, Z.reshape(8, 5, 5)),
                                  stack.reshape(8, 5))

    def test_table_matches_per_node_reference(self):
        spec = chain_spec(5, V=3)
        obs = _obs(spec, 1.0, [0.5, 0.8], [[3, 0, 2, 3, 1], [1, 3, 3, 0, 2]],
                   p_mask=0.3, delta=0.01)
        log_hit = np.log((1 - 0.3) * (1 - 0.01 * 2))
        log_miss = np.log((1 - 0.3) * 0.01)
        ref = np.empty((2, 5, 3))
        for k in range(2):
            for i, y in enumerate(obs.values[k]):
                for v in range(3):
                    ref[k, i, v] = (np.log(0.3) if y == 3
                                    else log_hit if v == y else log_miss)
        for k in range(2):
            assert np.array_equal(emission_log_table(obs, k), ref[k])
        assert np.array_equal(emission_log_table(obs, np.arange(2)), ref)

    def test_sampler_mask_rate(self):
        spec = chain_spec(1, V=3)
        obs = _obs(spec, 1.0, [0.5], [[3]], p_mask=0.3, delta=0.01)
        rng = np.random.default_rng(0)
        n = 20_000
        masked = sum(sample_emission(obs, np.array([1]), rng)[0] == 3
                     for _ in range(n))
        assert abs(masked / n - 0.3) < 3 * math.sqrt(0.3 * 0.7 / n)


class FixedScores(TwistOracle):
    """Twist with log h = 0 and the same score table at every state; it
    fills the table whatever cells are asked for."""

    def __init__(self, score):
        self.score = np.asarray(score, dtype=float)

    def log_h_batch(self, t, Z):
        return np.zeros(len(Z))

    def score_table_batch(self, t, Z, cells=None):
        return np.broadcast_to(self.score, (len(Z),) + self.score.shape)


def constant_model(off):
    """Model whose off-target rates are off (d, V) at every state."""
    off = np.asarray(off, dtype=float)
    return RateModel(batch_off_rate_fn=lambda t, Z, spec, theta:
                     np.broadcast_to(off, (len(Z),) + off.shape).copy())


class TestTwistRateField:
    def test_zero_score_is_identity(self):
        # a zero score table proposes from the prior Euler kernel itself:
        # the same draws as euler_simulate_batch and a zero weight ratio
        spec = chain_spec(3, V=2)
        model = make_flip_model(0.7, 0.5, coupling=0.4)
        Z = np.random.default_rng(1).integers(0, 2, size=(50, 3))
        Z1, log_ratio = _propose_step(model, spec, None, ConstantTwist(3, 2), Z,
                                      0.0, 0.2, np.random.default_rng(5))
        ref = euler_simulate_batch(model, spec, None, Z, np.array([0.0, 0.2]),
                                   np.random.default_rng(5))
        assert np.array_equal(Z1, ref[:, 1])
        assert np.all(log_ratio == 0.0)

    def test_single_entry_doubles(self):
        # score log 2 on one entry doubles that rate in the proposal, and
        # the weight ratio of a jump there is log(r / 2r)
        spec = chain_spec(1, V=3)
        model = constant_model([[0.0, 0.4, 0.1]])
        score = np.zeros((1, 3))
        score[0, 1] = math.log(2.0)
        n, dt = 40_000, 0.5
        Z1, log_ratio = _propose_step(model, spec, None, FixedScores(score),
                                      np.zeros((n, 1), dtype=np.int64), 0.0,
                                      dt, np.random.default_rng(3))
        to1 = Z1[:, 0] == 1
        assert abs(to1.mean() - 0.8 * dt) < 4 * math.sqrt(0.4 * 0.6 / n)
        assert np.allclose(log_ratio[to1], -math.log(2.0))
        assert np.all(log_ratio[Z1[:, 0] == 2] == 0.0)
        stay = math.log1p(-0.5 * dt) - math.log1p(-0.9 * dt)
        assert np.allclose(log_ratio[Z1[:, 0] == 0], stay)

    def test_exact_scores_recover_conditioned_bridge_rates(self):
        # analytic two-state bridge: r*(t) = r * P_{T-t}(v, y) / P_{T-t}(z, y)
        spec = chain_spec(1, V=2)
        model = two_state_model(0.8, 0.6)
        gen = orc.build_dense_generator(model, spec, None)
        T = 1.5
        grid = make_grid(T, 0.05)
        with np.errstate(divide="ignore"):
            g = np.log(np.array([0.0, 1.0]))  # condition on endpoint 1
        with pytest.warns(UserWarning):
            la = orc.exact_lookahead(model, spec, None, [(T, g)], grid)
        with np.errstate(invalid="ignore"):  # log h = -inf at the horizon
            twisted = la.twisted_model(model, None)
        for t in (0.3, 0.75, 1.2):
            P = expm(gen.Q * (T - t))
            off = twisted.off_rates_batch(t, np.array([[0]]), spec, None)
            expected = 0.8 * P[1, 1] / P[0, 1]
            assert off[0, 0, 1] == pytest.approx(expected, rel=1e-6)

    def test_conditioned_rates_are_the_scored_base_rates(self, pair_spec):
        # the sampler's twist and the conditioned process tilt the base
        # rates by the same table, to the bit, at times between grid points
        p = SIRSParams(0.3, 1.0, 0.5, 0.3)
        model = sirs_model()
        obs = _obs(pair_spec, 1.5, [0.8], [[1, 3]], p_mask=0.5, delta=0.02)
        la = orc.exact_lookahead(model, pair_spec, p,
                                 orc.potential_vectors(pair_spec, obs),
                                 make_grid(1.5, 0.25, obs.times))
        twisted = la.twisted_model(model, p)
        assert np.isfinite(twisted.lambda_bar(pair_spec, p))
        Z = orc.state_table(pair_spec)
        base_off = model.off_rates_batch(0.0, Z, pair_spec, p)
        for t in (0.1, 0.37, 0.79, 0.81, 1.42):
            assert np.array_equal(twisted.off_rates_batch(t, Z, pair_spec, p),
                                  base_off * np.exp(la.score_table_batch(t, Z)))

    def test_hard_endpoint_refuses_thinning(self):
        # the same bridge: its twisted exit rate from 0 grows without bound
        # as t -> T (about 100 at t = 1.49), so no finite thinning bound
        # exists and simulation refuses before its first event
        spec = chain_spec(1, V=2)
        model = two_state_model(0.8, 0.6)
        T = 1.5
        with np.errstate(divide="ignore"):
            g = np.log(np.array([0.0, 1.0]))
        with pytest.warns(UserWarning):
            la = orc.exact_lookahead(model, spec, None, [(T, g)], make_grid(T, 0.05))
        twisted = la.twisted_model(model, None)
        assert twisted.lambda_bar(spec, None) == np.inf
        assert twisted.off_rates_batch(1.49, np.array([[0]]), spec, None)[0, 0, 1] > 100
        with pytest.raises(ValueError, match="finite total-rate bound"):
            gillespie_simulate(twisted, spec, None, np.array([0]), T,
                               np.random.default_rng(0))


class TestTwistedKernel:
    def test_zero_rates_identity_kernel(self):
        spec = chain_spec(2, V=2)
        Z = np.array([[0, 1], [1, 0]])
        score = np.random.default_rng(0).normal(size=(2, 2))
        Z1, log_ratio = _propose_step(make_flip_model(0.0, 0.0), spec, None,
                                      FixedScores(score), Z, 0.0, 0.5,
                                      np.random.default_rng(0))
        assert np.array_equal(Z1, Z)
        assert np.all(log_ratio == 0.0)

    def test_pmf_sums_to_one(self):
        spec = chain_spec(2, V=3)
        p = SIRSParams(0.3, 1.0, 0.5, 0.3)
        z = np.array([[0, 1]])
        rng = np.random.default_rng(2)
        score = rng.normal(size=(1, 2, 3)) * 0.5
        score[0, np.arange(2), z[0]] = 0.0
        off = sirs_model().off_rates_batch(0.0, z, spec, p)
        q = kernel_pmf(off, z, 0.05, orc.state_table(spec), score)
        assert q.sum() == pytest.approx(1.0, abs=1e-12)

    def test_propose_step_samples_enumerated_pmf(self, pair_spec):
        # run_smc's proposal draws follow the enumerated tilted kernel
        p = SIRSParams(0.3, 1.0, 0.5, 0.3)
        model = sirs_model()
        z = np.array([[0, 1]])
        score = np.random.default_rng(4).normal(size=(2, 3))
        score[np.arange(2), z[0]] = 0.0
        n, dt = 40_000, 0.3
        Z1, _ = _propose_step(model, pair_spec, p, FixedScores(score),
                              np.repeat(z, n, axis=0), 0.0, dt,
                              np.random.default_rng(6))
        table = orc.state_table(pair_spec)
        q = kernel_pmf(model.off_rates_batch(0.0, z, pair_spec, p), z, dt,
                       table, score[None])[0]
        idx = Z1[:, 0] + 3 * Z1[:, 1]
        freq = np.bincount(idx, minlength=len(table)) / n
        assert 0.5 * np.abs(freq - q).sum() < 0.01

    def test_one_step_tv_second_order_against_twisted_target(self, pair_spec):
        # one Euler step of the tilted rates vs the normalized product
        # of the exact kernel, the look-ahead, and the potential
        p = SIRSParams(0.3, 1.0, 0.5, 0.3)
        model = sirs_model()
        obs = _obs(pair_spec, 1.0, [0.6], [[1, 3]])
        pots = orc.potential_vectors(pair_spec, obs)
        gen = orc.build_dense_generator(model, pair_spec, p)
        table = orc.state_table(pair_spec)
        off = model.off_rates_batch(0.0, table, pair_spec, p)

        def max_tv(dt):
            # one step anchored at t = 0.4 regardless of resolution
            grid = make_grid(1.0, dt, obs.times)
            la = orc.exact_lookahead(model, pair_spec, p, pots, grid)
            m = int(np.argmin(np.abs(grid - 0.4)))
            t, t1 = grid[m], grid[m + 1]
            P = orc.expm_action(gen.Q, t1 - t, np.eye(gen.n))
            q = kernel_pmf(off, table, t1 - t, table,
                           la.score_table_batch(t, table))
            target = P * np.exp(la.log_h_at(t1))[None, :]
            target /= target.sum(axis=1, keepdims=True)
            return (0.5 * np.abs(q - target).sum(axis=1)).max()

        tvs = [max_tv(dt) for dt in (0.1, 0.05, 0.025)]
        for coarse, fine in zip(tvs, tvs[1:]):
            assert 2.5 <= coarse / fine <= 6.0


class TestIncrementalESS:
    def test_matching_distributions(self):
        p = np.array([0.3, 0.7])
        assert incremental_ess(p, p) == pytest.approx(1.0)

    def test_half_for_point_mass_against_uniform(self):
        assert incremental_ess(np.array([0.5, 0.5]),
                               np.array([1.0, 0.0])) == pytest.approx(0.5)

    def test_support_mismatch_returns_zero(self):
        with pytest.warns(UserWarning):
            val = incremental_ess(np.array([1.0, 0.0]), np.array([0.5, 0.5]))
        assert val == 0.0

    def test_exact_twist_small_step_ess_near_one(self):
        # full-support two-value system so the literal Eq-14 sum applies
        spec = chain_spec(2, V=2)
        model = make_flip_model(0.3, 0.3, coupling=1.5)
        obs = ObservationSequence(horizon=1.0, times=np.array([0.6]),
                                  values=np.array([[1, 0]]), V=2,
                                  p_mask=0.0, label_noise=0.1)
        vals = exact_twist_ess_values(spec, model, None, obs, 0.01)
        assert np.mean(vals) >= 0.999

    def test_ess_deficit_scales_quadratically(self):
        # the quadratic term needs strong rate interaction to dominate
        spec = chain_spec(2, V=2)
        model = make_flip_model(0.3, 0.3, coupling=1.5)
        obs = ObservationSequence(horizon=1.0, times=np.array([0.6]),
                                  values=np.array([[1, 0]]), V=2,
                                  p_mask=0.0, label_noise=0.1)
        deficits = []
        for dt in (0.1, 0.05, 0.025):
            vals = exact_twist_ess_values(spec, model, None, obs, dt)
            deficits.append(1.0 / vals.mean() - 1.0)
        slope = np.polyfit(np.log([0.1, 0.05, 0.025]), np.log(deficits), 1)[0]
        assert 1.6 <= slope <= 2.4


class TestScoreAntisymmetry:
    @given(st.integers(0, 10**6))
    @settings(max_examples=20, deadline=None)
    def test_exact_twist_antisymmetric(self, seed):
        spec = chain_spec(2, V=3)
        p = SIRSParams(0.3, 1.0, 0.5, 0.3)
        model = sirs_model()
        rng = np.random.default_rng(seed)
        obs = _obs(spec, 1.0, [0.6],
                   [rng.integers(0, 4, size=2)], p_mask=0.5, delta=0.05)
        grid = make_grid(1.0, 0.25, obs.times)
        la = orc.exact_lookahead(model, spec, p,
                                 orc.potential_vectors(spec, obs), grid)
        t = float(rng.uniform(0, 1))
        z = rng.integers(0, 3, size=2)
        i = int(rng.integers(2))
        v = int(rng.integers(3))
        z2 = z.copy()
        z2[i] = v
        s1 = la.score_table_batch(t, z[None])[0, i, v]
        s2 = la.score_table_batch(t, z2[None])[0, i, z[i]]
        assert abs(s1 + s2) < 1e-10
