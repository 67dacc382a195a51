import math

import numpy as np
import pytest

from ipsmc.bench import (BenchmarkDataset, brier_metric, cross_entropy_metric,
                         generate_dataset, generate_graph, initial_distribution,
                         load_dataset, relative_parameter_error, save_dataset)
from ipsmc.ips import SIRSParams, make_grid, sirs_model
from ipsmc import oracle as orc
from ipsmc.smc import SMCConfig, bpf_run, posterior_marginals_from_ensemble


class TestGraphGeneration:
    def test_zero_expected_degree_gives_empty_graph(self):
        spec = generate_graph(10, 0.0, 4, np.random.default_rng(0))
        assert spec.adjacency.sum() == 0

    def test_mean_degree_band(self):
        degs = []
        for seed in range(20):
            spec = generate_graph(256, 5.0, 16, np.random.default_rng(seed))
            degs.append(spec.adjacency.sum(axis=1).mean())
        assert 4.0 <= np.mean(degs) <= 6.0

    def test_unit_norm_features(self):
        spec = generate_graph(32, 5.0, 16, np.random.default_rng(3))
        norms = np.linalg.norm(spec.node_features, axis=1)
        assert np.abs(norms - 1.0).max() < 1e-12

    def test_rejects_single_node(self):
        with pytest.raises(ValueError):
            generate_graph(1, 5.0, 16, np.random.default_rng(0))

    @pytest.mark.parametrize("degree", [-1.0, float("inf"), float("nan")])
    def test_rejects_bad_expected_degree(self, degree):
        with pytest.raises(ValueError):
            generate_graph(4, degree, 2, np.random.default_rng(0))

    def test_vanishing_edge_probability_gives_empty_graph(self):
        spec = generate_graph(4, 1e-17, 2, np.random.default_rng(0))
        assert spec.adjacency.sum() == 0

    def test_matches_networkx_expected_degree_graph(self):
        # the stdlib port replays networkx's draws; degree 0 has no edges,
        # and a degree above d caps the edge probability at one
        nx = pytest.importorskip("networkx")
        for d in (2, 3, 4, 5, 8, 32, 64):
            for w in (0, 0.5, 1.5, 2, 5, 31, 40, 100):
                for s in range(40):
                    spec = generate_graph(d, w, 0, np.random.default_rng(s))
                    seed = int(np.random.default_rng(s).integers(2**31 - 1))
                    g = nx.expected_degree_graph([w] * d, seed=seed,
                                                 selfloops=False)
                    ref = nx.to_numpy_array(g, nodelist=range(d), dtype=np.int8)
                    assert np.array_equal(spec.adjacency, ref), (d, w, s)


class TestDatasetGeneration:
    def _make(self, p_mask=0.5, delta=0.001, seed=0, n_train=3, n_test=2):
        rng = np.random.default_rng(7)
        spec = generate_graph(6, 2.0, 4, rng)
        params = SIRSParams(0.3, 1.0, 0.5, 0.2)
        return generate_dataset(spec, params, T=2.0, K=4, p_mask=p_mask,
                                delta=delta, n_train=n_train, n_test=n_test,
                                seed=seed)

    def test_full_masking(self):
        ds = self._make(p_mask=1.0)
        for obs in ds.train_obs + ds.test_obs:
            assert np.all(obs.values == ds.spec.V)

    def test_noiseless_unmasked_matches_latent(self):
        ds = self._make(p_mask=0.0, delta=0.0)
        for path, obs in zip(ds.train_paths, ds.train_obs):
            for k, tau in enumerate(obs.times):
                assert np.array_equal(obs.values[k], path.state_at(tau))

    def test_seed_determinism(self):
        a = self._make(seed=5)
        b = self._make(seed=5)
        for pa, pb in zip(a.train_paths, b.train_paths):
            assert np.array_equal(pa.jump_times, pb.jump_times)
            assert np.array_equal(pa.initial, pb.initial)
        for oa, ob in zip(a.test_obs, b.test_obs):
            assert np.array_equal(oa.values, ob.values)
            assert np.array_equal(oa.times, ob.times)

    def test_mask_rate_band(self):
        ds = self._make(p_mask=0.4, seed=2, n_train=40, n_test=0)
        vals = np.concatenate([o.values.ravel() for o in ds.train_obs])
        rate = (vals == ds.spec.V).mean()
        band = 3 * math.sqrt(0.4 * 0.6 / len(vals))
        assert abs(rate - 0.4) < band

    def test_round_trip(self, tmp_path):
        ds = self._make(seed=9)
        save_dataset(ds, tmp_path / "ds")
        back = load_dataset(tmp_path / "ds")
        assert back.spec.d == ds.spec.d
        assert np.array_equal(back.spec.adjacency, ds.spec.adjacency)
        assert np.allclose(back.spec.node_features, ds.spec.node_features)
        assert back.params == ds.params
        for pa, pb in zip(ds.train_paths, back.train_paths):
            assert np.array_equal(pa.jump_times, pb.jump_times)
            assert np.array_equal(pa.jump_values, pb.jump_values)
        for oa, ob in zip(ds.test_obs, back.test_obs):
            assert np.array_equal(oa.values, ob.values)


class TestMetrics:
    def test_ce_smoothed_one_hot(self):
        marg = np.zeros((1, 1, 3))
        marg[0, 0, 0] = 1.0
        marg = (1 - 1e-3) * marg + 1e-3 / 3
        truth = np.zeros((1, 1), dtype=int)
        ce = cross_entropy_metric(marg, truth)
        assert ce == pytest.approx(-math.log(0.999 + 0.001 / 3))
        assert ce == pytest.approx(6.70e-4, rel=5e-3)

    def test_ce_uniform(self):
        marg = np.full((4, 2, 3), 1 / 3)
        truth = np.zeros((4, 2), dtype=int)
        assert cross_entropy_metric(marg, truth) == pytest.approx(math.log(3))

    def test_brier_uniform(self):
        marg = np.full((2, 3, 3), 1 / 3)
        truth = np.ones((2, 3), dtype=int)
        expected = (2 / 3) ** 2 + 2 * (1 / 3) ** 2
        assert brier_metric(marg, truth) == pytest.approx(expected)
        assert brier_metric(marg, truth) == pytest.approx(0.6667, abs=1e-4)

    def test_grid_mismatch_rejected(self):
        with pytest.raises(ValueError):
            cross_entropy_metric(np.full((3, 2, 3), 1 / 3),
                                 np.zeros((2, 2), dtype=int))

    def test_rpe_examples(self):
        assert relative_parameter_error([0.1, 1.0], [0.1, 1.0]) == 0.0
        val = relative_parameter_error([0.113, 0.922, 0.393, 0.046],
                                       [0.1, 1.0, 0.4, 0.05])
        assert val == pytest.approx(0.3055, abs=1e-4)
        assert relative_parameter_error([0.2, 2.0, 0.8, 0.1],
                                        [0.1, 1.0, 0.4, 0.05]) == pytest.approx(4.0)

    def test_rpe_zero_truth_rejected(self):
        with pytest.raises(ValueError):
            relative_parameter_error([0.1], [0.0])

    def test_metric_determinism(self):
        rng = np.random.default_rng(0)
        marg = rng.dirichlet(np.ones(3), size=(5, 4))
        truth = rng.integers(0, 3, size=(5, 4))
        assert cross_entropy_metric(marg, truth) == cross_entropy_metric(marg, truth)
        assert brier_metric(marg, truth) == brier_metric(marg, truth)


def test_oracle_posterior_ce_beats_bootstrap(pair_spec):
    # paired comparison on a tiny system: the exact smoothing marginals
    # must score at least as well as a small bootstrap ensemble on average
    params = SIRSParams(0.3, 1.0, 0.5, 0.3)
    model = sirs_model()
    T, K = 1.5, 2
    p0 = initial_distribution(pair_spec, 0.3)
    table = orc.state_table(pair_spec)
    p0_vec = np.exp(p0.log_pmf_batch(table))
    ds = generate_dataset(pair_spec, params, T=T, K=K, p_mask=0.5, delta=0.01,
                          n_train=0, n_test=50, seed=3, infect_prob=0.3)
    ce_oracle, ce_bpf = [], []
    for idx, (path, obs) in enumerate(zip(ds.test_paths, ds.test_obs)):
        grid = make_grid(T, 0.1, obs.times)
        marg, _ = orc.exact_posterior_marginals(model, pair_spec, params, p0_vec,
                                                obs, grid)
        node = orc.nodewise_marginals(pair_spec, marg)
        node = (1 - 1e-3) * node + 1e-3 / 3
        truth = path.states_at(grid)
        ce_oracle.append(cross_entropy_metric(node, truth))
        ens, _ = bpf_run(model, pair_spec, params, orc.DenseInitial(pair_spec, p0_vec),
                         obs, SMCConfig(S=24, dt=0.1, seed=1000 + idx),
                         grid=grid)
        emp = posterior_marginals_from_ensemble(ens, V=3, eps=1e-3)
        ce_bpf.append(cross_entropy_metric(emp, truth))
    assert np.mean(ce_oracle) <= np.mean(ce_bpf)
