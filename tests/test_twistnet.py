import math
import os

import numpy as np
import pytest

from ipsmc.ips import (SIRSParams, StateSpaceSpec, euler_simulate_batch,
                       make_grid, sirs_model)
from ipsmc import oracle as orc
from ipsmc import twistnet as tn
from ipsmc.smc import FactorizedInitial
from ipsmc.twisting import ObservationSequence

from conftest import chain_spec, make_flip_model


def _obs3(d=4, T=2.0):
    times = np.array([0.8, 1.5])
    values = np.array([[1, 3, 0, 2], [2, 1, 3, 3]])[:, :d]
    return ObservationSequence(horizon=T, times=times, values=values, V=3,
                               p_mask=0.5, label_noise=0.001)


def _rand_params(V, m, seed, scale=0.2):
    params = tn.init_params(V, m=m, seed=seed)
    rng = np.random.default_rng(seed + 1000)
    for k, a in params.arrays().items():
        a[...] += rng.normal(size=a.shape) * scale
    return params


class TestFeatures:
    def test_fixed_length_given_vocab(self):
        for V in (2, 3, 5):
            assert tn.feature_dim(V) == 4 * V + 9

    def test_no_future_observations_sentinels(self):
        spec = chain_spec(3, V=3)
        obs = _obs3(d=3)
        ctx = tn.TwistContext(spec, obs)
        F = ctx.features(1.9)  # after the last snapshot
        tt = F[:, 0, 0]
        assert np.allclose(tt, (2.0 - 1.9) / 2.0)
        onehot = F[0, 0, 1:5]
        assert onehot[3] == 1.0 and onehot[:3].sum() == 0.0
        assert np.all(F[:, 0, 5] == 0.0)  # future unmasked counts

    def test_match_indicator(self):
        spec = chain_spec(4, V=3)
        obs = _obs3()
        ctx = tn.TwistContext(spec, obs)
        F = ctx.features(0.7)
        nf = tn.feature_dim(3)
        # node 0 is observed as 1 at t=0.8
        assert F[0, 1, nf - 1] == 1.0
        assert F[0, 0, nf - 1] == 0.0 and F[0, 2, nf - 1] == 0.0

    def test_purity_bit_identical(self):
        spec = chain_spec(4, V=3)
        params = _rand_params(3, 8, 0)
        ctx = tn.TwistContext(spec, _obs3())
        a, _ = tn.encode_context(params, ctx, 0.37)
        b, _ = tn.encode_context(params, ctx, 0.37)
        assert np.array_equal(a, b)

    def test_locality_of_observation_edits(self):
        # star graph: changing node 1's future value may touch node 1 and
        # its neighbor (the hub), nobody else
        adj = np.zeros((5, 5), dtype=int)
        adj[0, 1:] = 1
        adj[1:, 0] = 1
        spec = StateSpaceSpec(d=5, V=3, adjacency=adj,
                              node_features=np.zeros((5, 0)))
        times = np.array([1.0])
        base_vals = np.array([[0, 1, 2, 0, 1]])
        edit_vals = np.array([[0, 2, 2, 0, 1]])
        obs_a = ObservationSequence(horizon=2.0, times=times, values=base_vals,
                                    V=3, p_mask=0.5, label_noise=0.001)
        obs_b = ObservationSequence(horizon=2.0, times=times, values=edit_vals,
                                    V=3, p_mask=0.5, label_noise=0.001)
        Fa = tn.TwistContext(spec, obs_a).features(0.5)
        Fb = tn.TwistContext(spec, obs_b).features(0.5)
        changed = np.flatnonzero(np.abs(Fa - Fb).sum(axis=(1, 2)))
        assert set(changed) <= {0, 1}
        assert 1 in changed

    def test_zero_weights_constant_twist(self):
        spec = chain_spec(4, V=3)
        params = tn.init_params(3, m=8, seed=0)
        ctx = tn.TwistContext(spec, _obs3())
        Phi, _ = tn.encode_context(params, ctx, 0.3)
        z = np.array([0, 1, 2, 0])
        assert tn.twist_log_values(params, Phi, z[None])[0] == 0.0
        assert np.all(tn.twist_score_table(params, Phi, z[None]) == 0.0)


class TestTableAlgebra:
    def test_single_node_reduces_to_direct_aggregation(self):
        spec = chain_spec(1, V=3)
        obs = ObservationSequence(horizon=2.0, times=np.array([1.0]),
                                  values=np.array([[2]]), V=3, p_mask=0.5,
                                  label_noise=0.001)
        params = _rand_params(3, 8, 3)
        ctx = tn.TwistContext(spec, obs)
        Phi, _ = tn.encode_context(params, ctx, 0.4)
        val = tn.twist_log_values(params, Phi, np.array([[1]]))[0]
        direct, _ = tn.rho_forward(params, Phi[0, 1])
        assert val == pytest.approx(float(direct), abs=1e-14)

    def test_node_permutation_symmetry(self):
        # two nodes with identical embeddings and equal states commute
        spec = chain_spec(2, V=3)
        params = _rand_params(3, 8, 4)
        Phi = np.random.default_rng(0).normal(size=(2, 3, 8))
        Phi[1] = Phi[0]
        z = np.array([2, 2])
        swapped = np.array([2, 2])
        assert tn.twist_log_values(params, Phi, z[None])[0] == pytest.approx(
            tn.twist_log_values(params, Phi, swapped[None])[0])

    def test_shift_trick_matches_naive(self):
        spec = chain_spec(32, V=3)
        rng = np.random.default_rng(5)
        params = _rand_params(3, 64, 5)
        Phi = rng.normal(size=(32, 3, 64)) * 0.3
        for _ in range(5):
            z = rng.integers(0, 3, size=32)
            table = tn.twist_score_table(params, Phi, z[None])[0]
            base = tn.twist_log_values(params, Phi, z[None])[0]
            for _ in range(20):
                i = int(rng.integers(32))
                v = int(rng.integers(3))
                z2 = z.copy()
                z2[i] = v
                naive = tn.twist_log_values(params, Phi, z2[None])[0] - base
                assert abs(table[i, v] - naive) <= 1e-10

    def test_invariance_under_swaps_exact(self):
        rng = np.random.default_rng(6)
        params = _rand_params(3, 16, 6)
        Phi = rng.normal(size=(8, 3, 16)) * 0.4
        for _ in range(50):
            z = rng.integers(0, 3, size=8)
            i = int(rng.integers(8))
            u = int(rng.integers(3))
            z2 = z.copy()
            z2[i] = u
            H1, _ = tn.twist_table(params, Phi, z[None])
            H2, _ = tn.twist_table(params, Phi, z2[None])
            assert np.array_equal(H1[0, i], H2[0, i])

    def test_score_diagonal_exact_zero(self):
        rng = np.random.default_rng(7)
        params = _rand_params(3, 16, 7)
        Phi = rng.normal(size=(6, 3, 16))
        z = rng.integers(0, 3, size=6)
        table = tn.twist_score_table(params, Phi, z[None])[0]
        assert np.all(table[np.arange(6), z] == 0.0)


class TestProjectedTable:
    """twist_table and twist_table_backward against the aggregator run on
    the materialized (S, d, V, m) shifted sums."""

    S, d, V, m = 25, 32, 3, 64

    def _case(self):
        rng = np.random.default_rng(8)
        params = _rand_params(self.V, self.m, 8)
        Phi = rng.normal(size=(self.d, self.V, self.m)) * 0.3
        Z = rng.integers(0, self.V, size=(self.S, self.d))
        own = Phi[np.arange(self.d)[None, :], Z]
        excl = own.sum(axis=1, keepdims=True) - own
        A = excl[:, :, None, :] + Phi[None]
        return rng, params, Phi, Z, A

    def test_forward_matches_materialized_sums(self):
        _, params, Phi, Z, A = self._case()
        H, _ = tn.twist_table(params, Phi, Z)
        ref, _ = tn.rho_forward(params, A)
        assert H.shape == (self.S, self.d, self.V)
        assert np.abs(H - ref).max() <= 1e-12

    def test_backward_matches_materialized_sums(self):
        rng, params, Phi, Z, A = self._case()
        dout = rng.normal(size=(self.S, self.d, self.V))
        _, cache = tn.twist_table(params, Phi, Z)
        grads = tn.zero_grads(params)
        dPhi = tn.twist_table_backward(params, cache, dout, grads)
        _, ref_cache = tn.rho_forward(params, A)
        ref = tn.zero_grads(params)
        dA = tn.rho_backward(params, ref_cache, dout, ref)
        # A[s, i, v] = Phi[i, v] + sum over j != i of Phi[j, Z[s, j]]
        ref_dPhi = dA.sum(axis=0)
        dexcl = dA.sum(axis=2)
        down = dexcl.sum(axis=1, keepdims=True) - dexcl
        for s in range(self.S):
            ref_dPhi[np.arange(self.d), Z[s]] += down[s]
        for k in ref:
            assert np.abs(grads[k] - ref[k]).max() <= 1e-12 * np.abs(ref[k]).max()
        assert np.abs(dPhi - ref_dPhi).max() <= 1e-12 * np.abs(ref_dPhi).max()

    def test_backward_scatter_keeps_row_order(self):
        # the flat scatter adds the rows' terms into each cell in row order,
        # as a loop over rows does, so both agree bit for bit
        rng, params, Phi, Z, _ = self._case()
        dout = rng.normal(size=(self.S, self.d, self.V))
        _, cache = tn.twist_table(params, Phi, Z)
        grads = tn.zero_grads(params)
        dPhi = tn.twist_table_backward(params, cache, dout, grads)
        dpre = (dout[..., None] * params.w3) * tn._dtanh(cache[2])
        dproj = dpre.sum(axis=0)
        dexcl = dpre.sum(axis=2)
        down = dexcl.sum(axis=1, keepdims=True) - dexcl
        for s in range(self.S):
            dproj[np.arange(self.d), Z[s]] += down[s]
        flat = dproj.reshape(-1, self.m)
        assert np.array_equal(grads["W2"], Phi.reshape(-1, self.m).T @ flat)
        assert np.array_equal(dPhi, dproj @ params.W2.T)


class TestSleepLoss:
    def test_single_step_constant_twist_hand_value(self):
        # one grid step, unit exit rate, uniform two-state initial head:
        # the objective is the negative discretized path log-likelihood,
        # so the exit-rate term enters with a plus sign
        spec = chain_spec(1, V=2)
        model = make_flip_model(1.0, 1.0)
        params = tn.init_params(2, m=4, seed=0)
        grid = np.array([0.0, 0.1])
        states = np.array([[0], [0]])
        obs = ObservationSequence(horizon=0.1, times=np.array([0.1]),
                                  values=np.array([[1]]), V=2, p_mask=0.5,
                                  label_noise=0.001)
        item = tn.SleepItem(grid=grid, states=states, ctx=tn.TwistContext(spec, obs))
        loss, _ = tn.sleep_loss_forward_kl(params, model, spec, None, [item])
        assert loss == pytest.approx(math.log(2.0) + 0.1, abs=1e-12)

    def test_gradient_matches_finite_differences(self):
        spec = chain_spec(2, V=3)
        p = SIRSParams(0.3, 1.0, 0.5, 0.3)
        model = sirs_model()
        obs = ObservationSequence(horizon=1.0, times=np.array([0.4, 0.9]),
                                  values=np.array([[1, 3], [2, 1]]), V=3,
                                  p_mask=0.5, label_noise=0.001)
        params = _rand_params(3, 4, 1)
        grid = make_grid(1.0, 0.1, obs.times)
        rng = np.random.default_rng(3)
        states = euler_simulate_batch(model, spec, p, np.array([[0, 1]]), grid,
                                      rng)[0]
        item = tn.SleepItem(grid=grid, states=states,
                            ctx=tn.TwistContext(spec, obs))
        _, grads = tn.sleep_loss_forward_kl(params, model, spec, p, [item])
        _assert_grads_match(params, grads, lambda q: tn.sleep_loss_forward_kl(
            q, model, spec, p, [item])[0], tol=1e-5)

    def test_mc_time_estimator_unbiased(self):
        spec = chain_spec(2, V=3)
        p = SIRSParams(0.3, 1.0, 0.5, 0.3)
        model = sirs_model()
        obs = ObservationSequence(horizon=1.0, times=np.array([0.5]),
                                  values=np.array([[1, 3]]), V=3, p_mask=0.5,
                                  label_noise=0.001)
        params = _rand_params(3, 4, 2)
        grid = make_grid(1.0, 0.2, obs.times)
        states = euler_simulate_batch(model, spec, p, np.array([[0, 1]]), grid,
                                      np.random.default_rng(0))[0]
        item = tn.SleepItem(grid=grid, states=states,
                            ctx=tn.TwistContext(spec, obs))
        full, _ = tn.sleep_loss_forward_kl(params, model, spec, p, [item])
        M = len(grid) - 1
        mc = np.mean([tn.sleep_loss_forward_kl(params, model, spec, p, [item],
                                               mc_indices=[m])[0]
                      for m in range(M)])
        assert abs(full - mc) < 1e-10


class TestDRELoss:
    def test_constant_twist_value(self):
        spec = chain_spec(2, V=3)
        params = tn.init_params(3, m=4, seed=0)
        grid = np.array([0.0, 0.5, 1.0])
        sp = np.zeros((3, 2), dtype=np.int64)
        sn = np.ones((3, 2), dtype=np.int64)
        obs = ObservationSequence(horizon=1.0, times=np.array([0.5]),
                                  values=np.array([[1, 3]]), V=3, p_mask=0.5,
                                  label_noise=0.001)
        item = tn.DREItem(grid=grid, states_pos=sp, states_neg=sn,
                          ctx=tn.TwistContext(spec, obs))
        loss, _ = tn.dre_loss(params, spec, [item])
        assert loss == pytest.approx(3 * 2 * math.log(2.0))

    def test_perfect_separation_drives_loss_to_zero(self):
        # weights crafted so the pooled aggregate is hugely positive on the
        # coupled states and hugely negative on the decoupled ones
        spec = chain_spec(2, V=2)
        params = tn.init_params(2, m=2, seed=0)
        nf = tn.feature_dim(2)
        params.W1[:] = 0.0
        params.W1[nf - 3, 0] = 5.0   # one-hot slot of value 0
        params.W1[nf - 2, 0] = -5.0  # one-hot slot of value 1
        params.W2[:] = 0.0
        params.W2[0, 0] = 1.0
        params.w3[:] = np.array([200.0, 0.0])
        obs = ObservationSequence(horizon=1.0, times=np.array([0.5]),
                                  values=np.array([[1, 2]]), V=2, p_mask=0.5,
                                  label_noise=0.001)
        grid = np.array([0.0, 0.5, 1.0])
        sp = np.zeros((3, 2), dtype=np.int64)
        sn = np.ones((3, 2), dtype=np.int64)
        item = tn.DREItem(grid=grid, states_pos=sp, states_neg=sn,
                          ctx=tn.TwistContext(spec, obs))
        loss, _ = tn.dre_loss(params, spec, [item])
        assert loss < 1e-6

    def test_gradient_matches_finite_differences(self):
        spec = chain_spec(2, V=3)
        p = SIRSParams(0.3, 1.0, 0.5, 0.3)
        model = sirs_model()
        obs = ObservationSequence(horizon=1.0, times=np.array([0.4]),
                                  values=np.array([[2, 3]]), V=3, p_mask=0.5,
                                  label_noise=0.001)
        params = _rand_params(3, 4, 9)
        grid = make_grid(1.0, 0.25, obs.times)
        rng = np.random.default_rng(1)
        sp = euler_simulate_batch(model, spec, p, np.array([[0, 1]]), grid, rng)[0]
        sn = euler_simulate_batch(model, spec, p, np.array([[1, 0]]), grid, rng)[0]
        item = tn.DREItem(grid=grid, states_pos=sp, states_neg=sn,
                          ctx=tn.TwistContext(spec, obs))
        _, grads = tn.dre_loss(params, spec, [item])
        _assert_grads_match(params, grads,
                            lambda q: tn.dre_loss(q, spec, [item])[0], tol=1e-5)


def _assert_grads_match(params, grads, loss_fn, tol, eps=1e-6):
    for k, a in params.arrays().items():
        fd = np.zeros_like(a)
        it = np.nditer(a, flags=["multi_index"])
        while not it.finished:
            ix = it.multi_index
            hi = params.copy()
            hi.arrays()[k][ix] += eps
            lo = params.copy()
            lo.arrays()[k][ix] -= eps
            fd[ix] = (loss_fn(hi) - loss_fn(lo)) / (2 * eps)
            it.iternext()
        num = np.linalg.norm(grads[k] - fd)
        den = np.linalg.norm(fd)
        if den < 1e-8:
            # structurally zero block (softmax shift invariance): only FD
            # rounding noise remains
            assert num < 1e-8, k
        else:
            assert num / den < tol, k


class TestQ0:
    def test_zero_weights_uniform(self):
        spec = chain_spec(3, V=3)
        params = tn.init_params(3, m=8, seed=0)
        ctx = tn.TwistContext(spec, _obs3(d=3))
        dist = tn._Q0Dist(params, ctx)
        assert np.allclose(dist.p, 1 / 3)

    def test_support_mask_restricts(self):
        spec = chain_spec(2, V=3)
        params = tn.init_params(3, m=8, seed=0)
        obs = ObservationSequence(horizon=1.0, times=np.array([0.5]),
                                  values=np.array([[1, 3]]), V=3, p_mask=0.5,
                                  label_noise=0.001)
        ctx = tn.TwistContext(spec, obs)
        mask = np.array([[0.0, 0.0, -np.inf], [0.0, 0.0, -np.inf]])
        dist = tn._Q0Dist(params, ctx, support_logmask=mask)
        assert np.all(dist.p[:, 2] == 0.0)
        Z = dist.sample(np.random.default_rng(0), 200)
        assert Z.max() <= 1
        assert np.all(np.isfinite(dist.log_pmf_batch(Z)))

    def test_concentrates_on_point_mass_prior(self):
        # constant-atom prior: sleep training should drive the initial head
        # onto the atom at almost every node
        d = 8
        spec = chain_spec(d, V=3)
        p = SIRSParams(0.05, 0.1, 0.05, 0.02)  # slow dynamics
        model = sirs_model()
        atom = np.full(d, 1)
        probs = np.zeros((d, 3))
        probs[:, 1] = 1.0
        p0 = FactorizedInitial(probs)
        params = tn.init_params(3, m=16, seed=0)
        adam = tn.AdamState.init(params.arrays())
        hyper = tn.AdamHyper(lr=5e-3)
        rng = np.random.default_rng(8)
        template = ObservationSequence(horizon=2.0, times=np.array([1.0, 2.0]),
                                       values=np.full((2, d), 3), V=3,
                                       p_mask=0.5, label_noise=0.001)
        from ipsmc.twisting import sample_emission

        grid = make_grid(2.0, 0.25, template.times)
        tau_idx = [int(np.argmin(np.abs(grid - t))) for t in template.times]
        for step in range(150):
            items = []
            for _ in range(8):
                z0 = p0.sample(rng, 1)
                states = euler_simulate_batch(model, spec, p, z0, grid, rng)[0]
                vals = np.stack([sample_emission(template, states[j], rng)
                                 for j in tau_idx])
                obs = ObservationSequence(horizon=2.0, times=template.times,
                                          values=vals, V=3, p_mask=0.5,
                                          label_noise=0.001)
                items.append(tn.SleepItem(grid=grid, states=states,
                                          ctx=tn.TwistContext(spec, obs)))
            _, grads = tn.sleep_loss_forward_kl(params, model, spec, p, items)
            params = params.replace_arrays(tn.adam_step(params.arrays(), grads,
                                                        adam, hyper))
        test_obs = ObservationSequence(horizon=2.0, times=template.times,
                                       values=np.full((2, d), 1), V=3,
                                       p_mask=0.5, label_noise=0.001)
        logits, _ = tn.q0_logits(params, tn.TwistContext(spec, test_obs))
        agree = (logits.argmax(axis=1) == atom).mean()
        assert agree >= 0.95


class TestAdam:
    def test_zero_gradient_keeps_params(self):
        arrays = {"a": np.array([1.0, 2.0])}
        state = tn.AdamState.init(arrays)
        out = tn.adam_step(arrays, {"a": np.zeros(2)}, state,
                           tn.AdamHyper(lr=0.1))
        assert np.array_equal(out["a"], arrays["a"])
        assert state.step == 1

    def test_first_step_magnitude_is_learning_rate(self):
        for g in (1.0, 100.0, 1e-4):
            arrays = {"a": np.array([0.0])}
            state = tn.AdamState.init(arrays)
            out = tn.adam_step(arrays, {"a": np.array([g])}, state,
                               tn.AdamHyper(lr=0.001))
            assert abs(out["a"][0]) <= 0.001 * (1 + 1e-6)
            assert abs(out["a"][0]) >= 0.001 * (1 - 1e-3)

    def test_rejects_nonfinite_gradient(self):
        arrays = {"a": np.array([0.0])}
        state = tn.AdamState.init(arrays)
        with pytest.raises(ValueError):
            tn.adam_step(arrays, {"a": np.array([np.nan])}, state,
                         tn.AdamHyper())


class TestCheckpoint:
    def test_round_trip_bitwise(self, tmp_path):
        spec = chain_spec(4, V=3)
        params = _rand_params(3, 8, 11)
        adam = tn.AdamState.init(params.arrays())
        adam.m["W1"][0, 0] = 0.25
        adam.step = 7
        path = os.path.join(tmp_path, "ck.npz")
        tn.save_checkpoint(path, params, adam, meta={"note": 1})
        back, adam2, header = tn.load_checkpoint(path)
        ctx = tn.TwistContext(spec, _obs3())
        Phi, _ = tn.encode_context(params, ctx, 0.6)
        Phi2, _ = tn.encode_context(back, ctx, 0.6)
        z = np.array([0, 1, 2, 0])
        assert (tn.twist_log_values(params, Phi, z[None])[0]
                == tn.twist_log_values(back, Phi2, z[None])[0])
        assert adam2.step == 7
        assert adam2.m["W1"][0, 0] == 0.25
        assert header["note"] == 1
        for k, a in params.arrays().items():
            assert np.array_equal(a, back.arrays()[k]), k


class TestLearnedTwistWrapper:
    def test_structural_one_after_last_observation(self):
        spec = chain_spec(3, V=3)
        params = _rand_params(3, 8, 13)
        obs = _obs3(d=3)
        lt = tn.LearnedTwist(params, spec, obs)
        Z = np.array([[0, 1, 2]])
        assert lt.log_h_batch(1.6, Z)[0] == 0.0
        assert np.all(lt.score_table_batch(1.6, Z) == 0.0)
        assert lt.log_h_batch(1.4, Z)[0] != 0.0
        # just before the last snapshot the twist still sees it
        assert lt.log_h_batch(np.nextafter(1.5, 0.0), Z)[0] != 0.0

    def test_batch_matches_scalar(self):
        spec = chain_spec(4, V=3)
        params = _rand_params(3, 8, 14)
        obs = _obs3()
        lt = tn.LearnedTwist(params, spec, obs)
        rng = np.random.default_rng(0)
        Z = rng.integers(0, 3, size=(6, 4))
        lh = lt.log_h_batch(0.3, Z)
        st = lt.score_table_batch(0.3, Z)
        for s in range(6):
            assert lh[s] == pytest.approx(lt.log_h_batch(0.3, Z[s:s + 1])[0],
                                          abs=1e-12)
            assert np.allclose(st[s], lt.score_table_batch(0.3, Z[s:s + 1])[0],
                               atol=1e-12)

    def test_score_antisymmetry(self):
        spec = chain_spec(4, V=3)
        params = _rand_params(3, 8, 15)
        lt = tn.LearnedTwist(params, spec, _obs3())
        rng = np.random.default_rng(2)
        for _ in range(40):
            z = rng.integers(0, 3, size=4)
            i = int(rng.integers(4))
            v = int(rng.integers(3))
            z2 = z.copy()
            z2[i] = v
            s1 = lt.score_table_batch(0.4, z[None])[0, i, v]
            s2 = lt.score_table_batch(0.4, z2[None])[0, i, z[i]]
            assert abs(s1 + s2) < 1e-10


@pytest.mark.slow
def test_learned_score_sign_matches_oracle_near_endpoint():
    # single site, two values, noiseless endpoint snapshot: after sleep
    # training the score toward the reported value from the disagreeing
    # state must be positive where the conditioned-process score is
    spec = chain_spec(1, V=2)
    model = make_flip_model(0.7, 0.7)
    T = 1.0
    p0 = FactorizedInitial(np.array([[0.5, 0.5]]))
    params = tn.init_params(2, m=16, seed=0)
    adam = tn.AdamState.init(params.arrays())
    hyper = tn.AdamHyper(lr=3e-3)
    rng = np.random.default_rng(5)
    grid = make_grid(T, 0.05, [T])
    for _ in range(350):
        items = []
        for _ in range(16):
            z0 = p0.sample(rng, 1)
            states = euler_simulate_batch(model, spec, None, z0, grid, rng)[0]
            obs = ObservationSequence(horizon=T, times=np.array([T]),
                                      values=states[-1][None, :].copy(), V=2,
                                      p_mask=0.0, label_noise=0.0)
            items.append(tn.SleepItem(grid=grid, states=states,
                                      ctx=tn.TwistContext(spec, obs)))
        _, grads = tn.sleep_loss_forward_kl(params, model, spec, None, items)
        params = params.replace_arrays(tn.adam_step(params.arrays(), grads,
                                                    adam, hyper))
    obs1 = ObservationSequence(horizon=T, times=np.array([T]),
                               values=np.array([[1]]), V=2, p_mask=0.0,
                               label_noise=1e-9)
    la = orc.exact_lookahead(model, spec, None,
                             orc.potential_vectors(spec, obs1), grid)
    lt = tn.LearnedTwist(params, spec, obs1)
    agree = 0
    total = 0
    for t in grid[:-1]:
        lh = la.log_h_at(t)
        oracle_score = lh[1] - lh[0]
        learned = lt.score_table_batch(t, np.array([[0]]))[0, 0, 1]
        total += 1
        agree += int(np.sign(oracle_score) == np.sign(learned))
    assert agree / total >= 0.95
