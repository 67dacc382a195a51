import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ipsmc.errors import CollapseError
from ipsmc.ips import RateModel, SIRSParams, make_grid, sirs_model
from ipsmc import oracle as orc
from ipsmc import smc
from ipsmc import twistnet as tn
from ipsmc.smc import (FactorizedInitial, SMCConfig, bpf_run,
                       effective_sample_size, logsumexp,
                       posterior_marginals_from_ensemble, sample_path_index,
                       run_smc, systematic_resample, _propose_step)
from ipsmc.twisting import ConstantTwist, ObservationSequence

from conftest import chain_spec, make_flip_model
from helpers import reference_marginals, reference_run_smc
from test_oracle import _obs, _empty_obs, two_state_model
from test_twisting import FixedScores


def _logsumexp_cases(rng, n_cases):
    """1-D float64 inputs with ties at the maximum, -inf entries, an all
    -inf row and +inf entries mixed in."""
    for c in range(n_cases):
        a = rng.normal(scale=10.0 ** rng.uniform(-3, 3), size=rng.integers(1, 40))
        kind = c % 6
        if kind == 1:
            a[rng.integers(len(a), size=rng.integers(1, 4))] = a.max()
        elif kind == 2:
            a[rng.random(len(a)) < 0.4] = -np.inf
        elif kind == 3:
            a[:] = -np.inf
        elif kind == 4:
            a[rng.integers(len(a))] = np.inf
        elif kind == 5:
            a = np.round(a)
        yield a


class TestLogsumexp:
    """The NumPy port against scipy.special.logsumexp, bit for bit."""

    def test_one_dimensional_bitwise(self):
        from scipy.special import logsumexp as scipy_logsumexp

        rng = np.random.default_rng(0)
        for a in _logsumexp_cases(rng, 3000):
            ours = logsumexp(a)
            ref = scipy_logsumexp(a)
            assert type(ours) is np.float64
            assert np.array_equal(ours, ref, equal_nan=True), a

    def test_scalar_input(self):
        from scipy.special import logsumexp as scipy_logsumexp

        for x in (0.0, -3.5, -np.inf, np.inf):
            assert type(logsumexp(x)) is np.float64
            assert np.array_equal(logsumexp(x), scipy_logsumexp(x))

    def test_rows_with_keepdims_bitwise(self):
        from scipy.special import logsumexp as scipy_logsumexp

        rng = np.random.default_rng(1)
        for n in (1, 2, 9, 27, 81):
            A = rng.normal(scale=20.0, size=(n, n))
            A[rng.random((n, n)) < 0.3] = -np.inf
            A[0] = -np.inf
            A[-1, :2] = A[-1].max()
            for keepdims in (True, False):
                ours = logsumexp(A, axis=1, keepdims=keepdims)
                ref = scipy_logsumexp(A, axis=1, keepdims=keepdims)
                assert ours.shape == ref.shape
                assert np.array_equal(ours, ref)
            assert np.array_equal(logsumexp(A), scipy_logsumexp(A))


class TestESS:
    def test_uniform_weights(self):
        assert effective_sample_size(np.zeros(10)) == pytest.approx(10.0)

    def test_equal_weights_give_the_exact_count(self):
        assert effective_sample_size(np.zeros(250)) == 250.0
        assert effective_sample_size(np.full(25, -3.7)) == 25.0
        assert effective_sample_size(np.array([1.5, -np.inf, 1.5])) == 2.0

    def test_single_survivor(self):
        lw = np.full(5, -np.inf)
        lw[2] = -1.3
        assert effective_sample_size(lw) == pytest.approx(1.0)

    def test_half_half(self):
        lw = np.array([math.log(0.5), math.log(0.5), -np.inf, -np.inf])
        assert effective_sample_size(lw) == pytest.approx(2.0)

    def test_collapse_raises(self):
        with pytest.raises(CollapseError):
            effective_sample_size(np.full(4, -np.inf))


class TestSystematicResample:
    def test_point_mass(self):
        lw = np.log(np.array([1.0, 1e-300, 1e-300, 1e-300]))
        anc = systematic_resample(lw, np.random.default_rng(0))
        assert np.all(anc == 0)

    def test_uniform_permutation_free(self):
        anc = systematic_resample(np.zeros(4), np.random.default_rng(3))
        assert np.array_equal(anc, np.arange(4))

    def test_deterministic_offspring_at_integer_weights(self):
        w = np.zeros(10)
        w[:2] = 0.7, 0.3
        for seed in range(25):
            with np.errstate(divide="ignore"):
                lw = np.log(w)
            anc = systematic_resample(lw, np.random.default_rng(seed))
            assert (anc == 0).sum() == 7
            assert (anc == 1).sum() == 3

    @given(st.lists(st.floats(-20, 5), min_size=2, max_size=40),
           st.integers(0, 10**6))
    @settings(max_examples=150, deadline=None)
    def test_offspring_counts_floor_or_ceil(self, lw, seed):
        lw = np.array(lw)
        anc = systematic_resample(lw, np.random.default_rng(seed))
        S = len(lw)
        w = np.exp(lw - lw.max())
        w = w / w.sum()
        counts = np.bincount(anc, minlength=S)
        assert np.all(counts >= np.floor(S * w) - 1e-9)
        assert np.all(counts <= np.ceil(S * w) + 1e-9)
        assert np.all(np.diff(anc) >= 0)


class TestInitialDistributions:
    def test_factorized_log_pmf(self):
        init = FactorizedInitial(np.array([[0.25, 0.75], [1.0, 0.0]]))
        Z = np.array([[1, 0], [0, 0]])
        lp = init.log_pmf_batch(Z)
        assert lp[0] == pytest.approx(math.log(0.75))
        assert lp[1] == pytest.approx(math.log(0.25))
        rng = np.random.default_rng(0)
        Zs = init.sample(rng, 4000)
        assert np.all(Zs[:, 1] == 0)
        assert abs((Zs[:, 0] == 1).mean() - 0.75) < 0.03

    def test_dense_initial_matches_table(self, pair_spec):
        p = np.zeros(9)
        p[4] = 1.0
        init = orc.DenseInitial(pair_spec, p)
        Z = init.sample(np.random.default_rng(0), 5)
        assert np.all(Z == orc.state_table(pair_spec)[4])


def _flip_setup(T=1.0, obs_times=(0.6,), values=((1, 0),), delta=0.1,
                p_mask=0.0):
    spec = chain_spec(2, V=2)
    model = make_flip_model(0.7, 0.5, coupling=0.4)
    obs = ObservationSequence(horizon=T, times=np.array(obs_times, dtype=float),
                              values=np.array(values, dtype=np.int64), V=2,
                              p_mask=p_mask, label_noise=delta)
    p0_vec = np.full(4, 0.25)
    return spec, model, obs, p0_vec


class TestTrivialRuns:
    def test_constant_twist_no_obs_logz_exactly_zero(self):
        spec, model, obs, _ = _flip_setup()
        empty = _empty_obs(spec, 1.0)
        p0 = FactorizedInitial(np.full((2, 2), 0.5))
        for seed in (0, 1, 17):
            cfg = SMCConfig(S=32, dt=0.1, seed=seed)
            ens, logz = run_smc(model, spec, None, ConstantTwist(2, 2), p0,
                                p0, empty, cfg)
            assert logz == 0.0
            assert np.all(ens.log_weights == 0.0)

    def test_bpf_no_obs(self):
        spec, model, obs, _ = _flip_setup()
        p0 = FactorizedInitial(np.full((2, 2), 0.5))
        ens, logz = bpf_run(model, spec, None, p0, _empty_obs(spec, 1.0),
                            SMCConfig(S=16, dt=0.25, seed=0))
        assert logz == 0.0


class TestAgainstOracle:
    def _exact(self, spec, model, obs, p0_vec, grid):
        return orc.exact_log_marginal_likelihood(model, spec, None, p0_vec,
                                                 obs, grid)

    def test_tsmc_exact_twist_logz(self):
        spec, model, obs, p0_vec = _flip_setup()
        grid = make_grid(1.0, 0.02, obs.times)
        la = orc.exact_lookahead(model, spec, None,
                                 orc.potential_vectors(spec, obs), grid)
        q0 = la.q0_dist(p0_vec)
        p0 = orc.DenseInitial(spec, p0_vec)
        exact = self._exact(spec, model, obs, p0_vec, grid)
        vals = []
        for seed in range(8):
            cfg = SMCConfig(S=128, dt=0.02, seed=seed)
            _, logz = run_smc(model, spec, None, la, q0, p0, obs, cfg,
                              grid=grid)
            vals.append(logz)
        assert abs(np.mean(vals) - exact) < 0.01 * abs(exact) + 0.01

    def test_bpf_logz_within_replicate_band(self):
        spec, model, obs, p0_vec = _flip_setup()
        grid = make_grid(1.0, 0.02, obs.times)
        p0 = orc.DenseInitial(spec, p0_vec)
        exact = self._exact(spec, model, obs, p0_vec, grid)
        vals = [bpf_run(model, spec, None, p0, obs,
                        SMCConfig(S=512, dt=0.02, seed=s), grid=grid)[1]
                for s in range(10)]
        se = np.std(vals, ddof=1) / math.sqrt(len(vals))
        assert abs(np.mean(vals) - exact) < 3 * se + 1e-3

    def test_exact_twist_keeps_ess_high(self):
        spec, model, obs, p0_vec = _flip_setup()
        grid = make_grid(1.0, 0.01, obs.times)
        la = orc.exact_lookahead(model, spec, None,
                                 orc.potential_vectors(spec, obs), grid)
        q0 = la.q0_dist(p0_vec)
        p0 = orc.DenseInitial(spec, p0_vec)
        cfg = SMCConfig(S=256, dt=0.01, seed=5)
        ens, _ = run_smc(model, spec, None, la, q0, p0, obs, cfg, grid=grid)
        ess = np.array([e for _, e in ens.ess_history])
        assert ess.min() >= 0.99 * cfg.S

    def test_tsmc_marginals_match_posterior(self):
        spec, model, obs, p0_vec = _flip_setup()
        grid = make_grid(1.0, 0.02, obs.times)
        la = orc.exact_lookahead(model, spec, None,
                                 orc.potential_vectors(spec, obs), grid)
        q0 = la.q0_dist(p0_vec)
        p0 = orc.DenseInitial(spec, p0_vec)
        cfg = SMCConfig(S=4000, dt=0.02, seed=2)
        ens, _ = run_smc(model, spec, None, la, q0, p0, obs, cfg, grid=grid)
        marg, _ = orc.exact_posterior_marginals(model, spec, None, p0_vec, obs,
                                                grid)
        node = orc.nodewise_marginals(spec, marg)
        emp = posterior_marginals_from_ensemble(ens, V=2, eps=0.0)
        for j in (0, len(grid) // 2, len(grid) - 1):
            assert np.abs(emp[j] - node[j]).max() < 0.03


class TestBookkeeping:
    def test_trajectories_prefix_consistent(self):
        spec, model, obs, p0_vec = _flip_setup()
        p0 = orc.DenseInitial(spec, p0_vec)
        cfg = SMCConfig(S=32, dt=0.1, seed=9)
        ens, _ = bpf_run(model, spec, None, p0, obs, cfg)
        traj, anc = ens.trajectories, ens.ancestors
        M = len(ens.grid) - 1
        assert traj.shape == (32, M + 1, 2) and anc.shape == (M, 32)
        assert np.all(anc >= 0) and np.all(anc < 32)
        assert traj.min() >= 0 and traj.max() < 2
        # final particles with a common ancestor at grid m share the whole
        # path up to m
        lineage = np.arange(32)
        for m in range(M, 0, -1):
            lineage = anc[m - 1, lineage]
            for a in np.unique(lineage):
                shared = traj[lineage == a, :m]
                assert np.all(shared == shared[0])
        assert len(np.unique(lineage)) < 32

    def test_collapse_error_carries_step(self):
        # noiseless emission and an impossible observation under a frozen
        # prior: all particles mismatch
        spec = chain_spec(2, V=2)
        model = make_flip_model(0.0, 0.0)
        obs = ObservationSequence(horizon=1.0, times=np.array([0.5]),
                                  values=np.array([[1, 1]]), V=2, p_mask=0.0,
                                  label_noise=0.0)
        p0 = FactorizedInitial(np.array([[1.0, 0.0], [1.0, 0.0]]))
        with pytest.raises(CollapseError) as exc:
            bpf_run(model, spec, None, p0, obs, SMCConfig(S=8, dt=0.25, seed=0))
        assert exc.value.step is not None

    def test_seed_determinism(self):
        spec, model, obs, p0_vec = _flip_setup()
        p0 = orc.DenseInitial(spec, p0_vec)
        runs = [bpf_run(model, spec, None, p0, obs,
                        SMCConfig(S=64, dt=0.05, seed=123)) for _ in range(2)]
        assert np.array_equal(runs[0][0].trajectories, runs[1][0].trajectories)
        assert runs[0][1] == runs[1][1]

    def test_sample_path_index_distribution(self):
        spec, model, obs, p0_vec = _flip_setup()
        p0 = orc.DenseInitial(spec, p0_vec)
        ens, _ = bpf_run(model, spec, None, p0, obs,
                         SMCConfig(S=4, dt=0.25, seed=1))
        rng = np.random.default_rng(0)
        idx = sample_path_index(ens, rng)
        assert 0 <= idx < 4


class _CountingTwist:
    """Delegates to a twist and counts score-table calls: more calls than
    grid steps means some particle substepped. asked keeps each call's
    (t, states, cells)."""

    def __init__(self, twist):
        self.twist, self.calls, self.asked = twist, 0, []

    def log_h_batch(self, t, Z):
        return self.twist.log_h_batch(t, Z)

    def score_table_batch(self, t, Z, cells=None):
        self.calls += 1
        self.asked.append((t, Z.copy(), None if cells is None else cells.copy()))
        return self.twist.score_table_batch(t, Z, cells)


def _cyclic_model(rate):
    """Every node moves z -> z+1 mod V at a constant rate."""

    def fn(t, Z, spec, theta):
        off = np.zeros(Z.shape + (spec.V,))
        B, d = Z.shape
        off[np.arange(B)[:, None], np.arange(d)[None, :], (Z + 1) % spec.V] = rate
        return off

    return RateModel(batch_off_rate_fn=fn,
                     lambda_bar_fn=lambda spec, theta: spec.d * rate)


def _assert_matches_reference(ens, log_z, ref):
    states, logw, ref_log_z, ess_history, traj = ref
    assert np.array_equal(ens.states, states)
    assert np.array_equal(ens.log_weights, logw)
    assert log_z == ref_log_z
    assert ens.ess_history == ess_history
    assert np.array_equal(ens.trajectories, traj)


class TestPathStorage:
    """run_smc bitwise against reference_run_smc, a loop that tilts every
    step, computes each log-sum-exp where it is used and rewrites its whole
    stored history at every resampling: states, log weights, log_z, ESS
    history and trajectories."""

    def _bpf_case(self, **cfg_kw):
        spec, model, obs, p0_vec = _flip_setup(obs_times=(0.3, 0.6),
                                               values=((1, 0), (0, 1)))
        p0 = orc.DenseInitial(spec, p0_vec)
        grid = make_grid(1.0, 0.05, obs.times)
        cfg = SMCConfig(S=64, dt=0.05, seed=3, **cfg_kw)
        ens, log_z = bpf_run(model, spec, None, p0, obs, cfg, grid=grid)
        ref = reference_run_smc(model, spec, None, ConstantTwist(2, 2), p0,
                                p0, obs, cfg, grid)
        return ens, log_z, ref, cfg

    def test_bootstrap_filter(self):
        ens, log_z, ref, _ = self._bpf_case()
        assert ens.trajectories.dtype == np.int64
        _assert_matches_reference(ens, log_z, ref)

    def test_twisted_smc_with_substeps(self):
        spec, model, obs, p0_vec = _flip_setup(delta=0.002)
        grid = make_grid(1.0, 0.1, obs.times)
        la = orc.exact_lookahead(model, spec, None,
                                 orc.potential_vectors(spec, obs), grid)
        twist = _CountingTwist(la)
        q0 = la.q0_dist(p0_vec)
        p0 = orc.DenseInitial(spec, p0_vec)
        cfg = SMCConfig(S=64, dt=0.1, seed=4)
        ens, log_z = run_smc(model, spec, None, twist, q0, p0, obs, cfg,
                             grid=grid)
        assert twist.calls > len(grid) - 1
        ref = reference_run_smc(model, spec, None, twist, q0, p0, obs, cfg,
                                grid)
        _assert_matches_reference(ens, log_z, ref)

    def test_learned_twist_past_last_snapshot(self):
        # the learned twist tilts up to its last snapshot at 0.6 and is
        # exactly zero after it, so the run takes both kinds of step
        spec, model, obs, _ = _flip_setup(obs_times=(0.3, 0.6),
                                          values=((1, 0), (0, 1)))
        params = tn.init_params(2, m=8, seed=1)
        rng = np.random.default_rng(2)
        for a in params.arrays().values():
            a[...] += rng.normal(size=a.shape) * 0.5
        twist = tn.LearnedTwist(params, spec, obs)
        p0 = FactorizedInitial(np.full((2, 2), 0.5))
        q0 = twist.q0_dist()
        grid = make_grid(1.0, 0.05, obs.times)
        cfg = SMCConfig(S=32, dt=0.05, seed=5)
        ens, log_z = run_smc(model, spec, None, twist, q0, p0, obs, cfg,
                             grid=grid)
        Z = np.zeros((1, 2), dtype=np.int64)
        assert twist.score_table_batch(0.55, Z).any()
        assert not twist.score_table_batch(0.65, Z).any()
        ref = reference_run_smc(model, spec, None, twist, q0, p0, obs, cfg,
                                grid)
        _assert_matches_reference(ens, log_z, ref)

    def test_learned_twist_scores_positive_rate_cells(self):
        # under the cyclic model one of a node's two off values has a
        # positive rate: every step asks the twist for exactly those cells
        spec = chain_spec(4, V=3)
        model = _cyclic_model(1.5)
        obs = ObservationSequence(horizon=1.0, times=np.array([0.4, 0.8]),
                                  values=np.array([[1, 3, 0, 2], [2, 1, 3, 0]]),
                                  V=3, p_mask=0.3, label_noise=0.01)
        params = tn.init_params(3, m=8, seed=3)
        rng = np.random.default_rng(4)
        for a in params.arrays().values():
            a[...] += rng.normal(size=a.shape) * 0.5
        twist = _CountingTwist(tn.LearnedTwist(params, spec, obs))
        p0 = FactorizedInitial(np.full((4, 3), 1 / 3))
        q0 = twist.twist.q0_dist()
        grid = make_grid(1.0, 0.05, obs.times)
        cfg = SMCConfig(S=16, dt=0.05, seed=7)
        ens, log_z = run_smc(model, spec, None, twist, q0, p0, obs, cfg,
                             grid=grid)
        assert len(twist.asked) == len(grid) - 1
        for t, Z, cells in twist.asked:
            assert np.array_equal(cells, model.off_rates_batch(t, Z, spec, None) > 0)
            assert np.all(cells.sum(axis=2) == 1)
        ref = reference_run_smc(model, spec, None, twist, q0, p0, obs, cfg,
                                grid)
        _assert_matches_reference(ens, log_z, ref)

    def test_uniform_weights_are_not_resampled(self):
        # at threshold 1.0 the filter resamples after each observation and
        # nowhere else: between them every weight is zero
        ens, log_z, ref, _ = self._bpf_case()
        steps = np.flatnonzero(np.any(ens.ancestors != np.arange(64), axis=1))
        obs_steps = np.flatnonzero(np.isin(np.round(ens.grid, 9), (0.3, 0.6)))
        assert set(steps) <= set(obs_steps)
        assert len(steps) == 2
        _assert_matches_reference(ens, log_z, ref)

    def test_equal_weights_skip_the_log_sum_exp(self, monkeypatch):
        # between observations every weight is zero: those steps compute
        # no log-sum-exp, and the outputs still match the reference, which
        # computes each one where it is used
        calls = []

        def counting(a, *args, **kw):
            calls.append(len(np.atleast_1d(a)))
            return logsumexp(a, *args, **kw)

        monkeypatch.setattr(smc, "logsumexp", counting)
        ens, log_z, _, cfg = self._bpf_case()
        monkeypatch.undo()
        M = len(ens.grid) - 1
        assert 0 < len(calls) < M
        _, _, ref, _ = self._bpf_case()
        _assert_matches_reference(ens, log_z, ref)

    def test_adaptive_resampling_skips_steps(self):
        ens, log_z, ref, cfg = self._bpf_case(ess_threshold=0.5)
        ess = np.array([e for _, e in ens.ess_history])
        assert np.any(ess < 0.5 * cfg.S) and np.any(ess >= 0.5 * cfg.S)
        _assert_matches_reference(ens, log_z, ref)

    def test_values_beyond_one_byte(self):
        V, d = 300, 3
        spec = chain_spec(d, V=V)
        model = _cyclic_model(3.0)
        probs = np.zeros((d, V))
        probs[:, 250:] = 1.0 / 50
        p0 = FactorizedInitial(probs)
        obs = ObservationSequence(horizon=1.0, times=np.array([0.5, 1.0]),
                                  values=np.array([[252, 299, V], [255, 2, 1]]),
                                  V=V, p_mask=0.5, label_noise=0.001)
        grid = make_grid(1.0, 0.05, obs.times)
        cfg = SMCConfig(S=32, dt=0.05, seed=6)
        ens, log_z = bpf_run(model, spec, None, p0, obs, cfg, grid=grid)
        ref = reference_run_smc(model, spec, None, ConstantTwist(d, V), p0,
                                p0, obs, cfg, grid)
        assert ens.trajectories.max() > 255
        _assert_matches_reference(ens, log_z, ref)


class TestMarginalSmoothing:
    def test_single_particle_one_hot_smoothing(self):
        from ipsmc.smc import ParticleEnsemble

        traj = np.zeros((1, 3, 1), dtype=np.int64)
        ens = ParticleEnsemble(grid=np.array([0.0, 0.5, 1.0]),
                               states=traj[:, -1], log_weights=np.zeros(1),
                               trajectories=traj)
        marg = posterior_marginals_from_ensemble(ens, V=3, eps=1e-3)
        assert marg[0, 0, 0] == pytest.approx(1 - 1e-3 + 1e-3 / 3)
        assert marg[0, 0, 1] == pytest.approx(1e-3 / 3)
        assert np.abs(marg.sum(axis=2) - 1).max() < 1e-12

    def test_uniform_two_state_ensemble(self):
        from ipsmc.smc import ParticleEnsemble

        traj = np.array([[[0]], [[1]]], dtype=np.int64)
        ens = ParticleEnsemble(grid=np.array([0.0]), states=traj[:, -1],
                               log_weights=np.zeros(2), trajectories=traj)
        marg = posterior_marginals_from_ensemble(ens, V=2, eps=1e-3)
        assert marg[0, 0, 0] == pytest.approx(0.5)


    def test_matches_sequential_sum_reference(self):
        from ipsmc.smc import ParticleEnsemble

        rng = np.random.default_rng(6)
        for S, M1, d, V in ((250, 12, 32, 3), (7, 5, 3, 2), (25, 3, 5, 4)):
            traj = rng.integers(0, V, size=(S, M1, d))
            ens = ParticleEnsemble(grid=np.arange(M1, dtype=float),
                                   states=traj[:, -1],
                                   log_weights=rng.normal(size=S) * 3,
                                   trajectories=traj)
            for eps in (0.0, 1e-3):
                assert np.array_equal(posterior_marginals_from_ensemble(ens, V, eps),
                                      reference_marginals(ens, V, eps))

    def test_matches_tensordot_reference(self):
        # one BLAS product over every grid step, as reference; the weighted
        # counts may round differently in the last bit
        from ipsmc.smc import ParticleEnsemble

        rng = np.random.default_rng(5)
        for S, M1, d in ((250, 12, 32), (7, 5, 3), (25, 3, 5)):
            traj = rng.integers(0, 3, size=(S, M1, d))
            ens = ParticleEnsemble(grid=np.arange(M1, dtype=float),
                                   states=traj[:, -1],
                                   log_weights=rng.normal(size=S) * 3,
                                   trajectories=traj)
            w = ens.normalized_weights()
            ref = np.stack([np.tensordot(w, traj == v, axes=(0, 0))
                            for v in range(3)], axis=2)
            marg = posterior_marginals_from_ensemble(ens, V=3, eps=0.0)
            assert np.allclose(marg, ref, rtol=1e-14, atol=0)


class TestAdaptiveSubstepping:
    def test_large_tilt_still_targets_posterior(self):
        # a potential so sharp the tilted rates break the step bound at the
        # configured dt; the engine must subdivide and stay correct
        spec, model, obs, p0_vec = _flip_setup(delta=0.002)
        grid = make_grid(1.0, 0.1, obs.times)
        la = orc.exact_lookahead(model, spec, None,
                                 orc.potential_vectors(spec, obs), grid)
        q0 = la.q0_dist(p0_vec)
        p0 = orc.DenseInitial(spec, p0_vec)
        exact = orc.exact_log_marginal_likelihood(model, spec, None, p0_vec,
                                                  obs, grid)
        vals = [run_smc(model, spec, None, la, q0, p0, obs,
                        SMCConfig(S=256, dt=0.1, seed=s), grid=grid)[1]
                for s in range(6)]
        se = np.std(vals, ddof=1) / math.sqrt(len(vals))
        # coarse grid: allow discretization slack on top of the MC band
        assert abs(np.mean(vals) - exact) < 3 * se + 0.05 * abs(exact)

    def test_substeps_sample_enumerated_kernel_product(self):
        # one node, exit rates 0.5 from value 0 and 3.0 from value 1, both
        # moves tilted by exp(1): from value 1 the tilted exit rate breaks
        # the small-interval bound at dt 0.5, so the step is subdivided
        base = np.array([[0.0, 0.5], [3.0, 0.0]])
        tilted = base * np.exp(1.0)
        model = two_state_model(0.5, 3.0)
        spec = chain_spec(1, V=2)
        dt, n = 0.5, 20_000

        def end_pmf(z, remaining):
            # the substep schedule of _propose_step, enumerated recursively
            worst = max(base[z].sum(), tilted[z].sum())
            h = remaining if worst * remaining <= 0.995 else 0.995 / worst
            out = np.zeros(2)
            for z2, p in ((z, 1.0 - h * tilted[z].sum()), (1 - z, h * tilted[z, 1 - z])):
                if remaining - h > 1e-15:
                    out += p * end_pmf(z2, remaining - h)
                else:
                    out[z2] += p
            return out

        rng = np.random.default_rng(11)
        for z0 in (0, 1):
            Z = np.full((n, 1), z0, dtype=np.int64)
            Z1, _ = _propose_step(model, spec, None, FixedScores(np.ones((1, 2))),
                                  Z, 0.0, dt, rng)
            freq = np.bincount(Z1[:, 0], minlength=2) / n
            assert 0.5 * np.abs(freq - end_pmf(z0, dt)).sum() < 0.01
            _, log_ratio = _propose_step(model, spec, None, ConstantTwist(1, 2),
                                         Z, 0.0, dt, rng)
            assert np.all(log_ratio == 0.0)
