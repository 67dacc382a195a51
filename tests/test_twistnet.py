import dataclasses
import math
import os

import numpy as np
import pytest

from ipsmc.ips import (SIRSParams, StateSpaceSpec, euler_simulate_batch,
                       make_grid, sirs_model)
from ipsmc import oracle as orc
from ipsmc import twistnet as tn
from ipsmc.smc import FactorizedInitial, SMCConfig, run_smc
from ipsmc.twisting import ObservationSequence

from conftest import chain_spec, make_flip_model
from helpers import twist_table


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

    @staticmethod
    def _segment(spec, obs, start):
        """Reference: the features while the first start snapshots have
        passed, with the time columns at zero, built for that segment
        alone, and each node's next snapshot time."""
        d, V, T, K = spec.d, spec.V, float(obs.horizon), obs.K
        vals = np.vstack([obs.values[start:], np.full((1, d), V)])
        times = np.append(obs.times[start:], np.inf)
        hit = vals != V
        hit[-1] = True
        first = np.argmax(hit, axis=0)
        next_val = vals[first, np.arange(d)]
        hits = (next_val[:, None] == np.arange(V)).astype(float)
        deg = spec.adjacency.sum(axis=1).astype(float)
        w = spec.edge_weights
        nf = tn.feature_dim(V)
        out = np.zeros((d, V, nf))
        node = out[:, 0, : nf - V - 1]
        node[np.arange(d), 1 + next_val] = 1.0
        node[:, V + 2] = hit[:-1].sum(axis=0) / max(K, 1)
        node[:, V + 3:2 * V + 3] = (spec.adjacency.astype(float) @ hits) / np.maximum(
            deg, 1.0)[:, None]
        node[:, 2 * V + 3:3 * V + 3] = np.stack([w @ h for h in hits.T], axis=1)
        node[:, 3 * V + 5:3 * V + 8] = np.stack(
            [w.sum(axis=1), w.sum(axis=1) / np.maximum(deg, 1.0),
             deg / max(1.0, deg.mean())], axis=1)
        out[:, 1:, : nf - V - 1] = node[:, None, :]
        out[:, np.arange(V), nf - V - 1 + np.arange(V)] = 1.0
        out[:, :, nf - 1] = hits
        return out, np.where(first < len(times) - 1, times[first], T)

    @pytest.mark.parametrize("seed", range(6))
    def test_segment_table_matches_per_segment_reference(self, seed):
        # random weighted graphs and masked snapshot sequences, one of
        # them with no snapshot at all: every segment bit for bit, and
        # features at any time from the segment it falls in
        from ipsmc.bench import generate_graph

        rng = np.random.default_rng(seed)
        d, V, K = int(rng.integers(1, 12)), int(rng.integers(2, 5)), seed
        spec = generate_graph(d, 2.0, 3, rng) if d > 1 else chain_spec(1, V=V)
        spec = dataclasses.replace(spec, V=V)
        times = np.sort(rng.choice(np.arange(1, 40) / 10.0, size=K, replace=False))
        values = rng.integers(0, V + 1, size=(K, d))
        obs = ObservationSequence(horizon=4.0, times=times, values=values, V=V,
                                  p_mask=0.5, label_noise=0.001)
        ctx = tn.TwistContext(spec, obs)
        assert ctx.table.shape == (K + 1, d, V, tn.feature_dim(V))
        for k in range(K + 1):
            seg, next_time = self._segment(spec, obs, k)
            assert np.array_equal(ctx.table[k], seg), k
            assert np.array_equal(ctx.next_time[k], next_time), k
        for t in rng.uniform(0.0, 4.0, size=10).tolist() + [0.0] + times.tolist():
            seg, next_time = self._segment(spec, obs, ctx.start_index(t))
            nxt = times[ctx.start_index(t)] if ctx.has_future(t) else 4.0
            ref = seg.copy()
            ref[:, :, 0] = ((next_time - t) / 4.0)[:, None]
            ref[:, :, 3 * V + 3] = t / 4.0
            ref[:, :, 3 * V + 4] = (nxt - t) / 4.0
            assert np.array_equal(ctx.features(t), ref), t

    def test_stacked_features_match_per_context_calls(self):
        spec = chain_spec(4, V=3)
        ctxs = [tn.TwistContext(spec, _obs3()), tn.TwistContext(spec, _obs3(T=3.0))]
        rows = [ctxs[0], ctxs[1], ctxs[0], ctxs[1]]
        t = np.array([0.0, 0.9, 1.6, 2.5])
        F = tn.stacked_features(rows, t)
        for r, (ctx, s) in enumerate(zip(rows, t)):
            assert np.array_equal(F[r], ctx.features(s)), r

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
            H1, _ = twist_table(params, Phi, z[None])
            H2, _ = twist_table(params, Phi, z2[None])
            assert np.array_equal(H1[0, i], H2[0, i])

    def test_score_diagonal_exact_zero(self):
        rng = np.random.default_rng(7)
        params = _rand_params(3, 16, 7)
        Phi = rng.normal(size=(6, 3, 16))
        z = rng.integers(0, 3, size=6)
        table = tn.twist_score_table(params, Phi, z[None])[0]
        assert np.all(table[np.arange(6), z] == 0.0)


class TestProjectedTable:
    """twist_table against the aggregator run on the materialized
    (S, d, V, m) shifted sums, for the shared (d, V, m) embedding of the
    sampler and the per-row (S, d, V, m) embeddings of the sleep losses;
    twist_score_table_backward against rho_backward run on those sums."""

    S, d, V, m = 25, 32, 3, 64

    def _case(self, per_row=False):
        rng = np.random.default_rng(8)
        params = _rand_params(self.V, self.m, 8)
        shape = ((self.S,) if per_row else ()) + (self.d, self.V, self.m)
        Phi = rng.normal(size=shape) * 0.3
        Z = rng.integers(0, self.V, size=(self.S, self.d))
        rows = np.broadcast_to(Phi, (self.S, self.d, self.V, self.m))
        own = rows[np.arange(self.S)[:, None], np.arange(self.d), Z]
        excl = own.sum(axis=1, keepdims=True) - own
        A = excl[:, :, None, :] + rows
        return rng, params, Phi, Z, A

    def test_forward_matches_materialized_sums(self):
        _, params, Phi, Z, A = self._case()
        H, _ = twist_table(params, Phi, Z)
        ref, _ = tn.rho_forward(params, A)
        assert H.shape == (self.S, self.d, self.V)
        assert np.abs(H - ref).max() <= 1e-12

    def test_per_row_forward_matches_materialized_sums(self):
        _, params, Phi, Z, A = self._case(per_row=True)
        H, _ = twist_table(params, Phi, Z)
        ref, _ = tn.rho_forward(params, A)
        assert np.abs(H - ref).max() <= 1e-12

    def _backward(self, params, Phi, Z, cells, dout):
        ws, grads = tn.TableWorkspace(), tn.zero_grads(params)
        tn.twist_score_table(params, Phi, Z, cells, ws)
        return tn.twist_score_table_backward(params, ws, dout, grads), grads

    def test_backward_matches_materialized_sums(self):
        # score[s, i, v] = rho(A[s, i, v]) - rho(A[s, i, Z[s, i]]) on the
        # cells, where A[s, i, v] = Phi[s, i, v] + sum over j != i of
        # Phi[s, j, Z[s, j]] and A[s, i, Z[s, i]] sums every held embedding
        rng, params, Phi, Z, A = self._case(per_row=True)
        cells = rng.random(A.shape[:3]) < 0.5
        cells[np.arange(self.S)[:, None], np.arange(self.d), Z] = False
        dout = rng.normal(size=cells.shape) * cells
        dPhi, grads = self._backward(params, Phi, Z, cells, dout)
        ref = tn.zero_grads(params)
        _, cache = tn.rho_forward(params, A)
        dA = tn.rho_backward(params, cache, dout, ref)
        held = Phi[np.arange(self.S)[:, None], np.arange(self.d), Z].sum(axis=1)
        _, cache = tn.rho_forward(params, held)
        dheld = tn.rho_backward(params, cache, -dout.sum(axis=(1, 2)), ref)
        ref_dPhi = dA.copy()
        dexcl = dA.sum(axis=2)
        down = dexcl.sum(axis=1, keepdims=True) - dexcl + dheld[:, None, :]
        for s in range(self.S):
            ref_dPhi[s, np.arange(self.d), Z[s]] += down[s]
        for k in ref:
            scale = max(np.abs(ref[k]).max(), 1.0)
            assert np.abs(grads[k] - ref[k]).max() <= 1e-12 * scale, k
        assert np.abs(dPhi - ref_dPhi).max() <= 1e-12 * np.abs(ref_dPhi).max()

    def test_backward_reads_the_cells_only(self):
        # a cotangent off the requested cells changes nothing
        rng, params, Phi, Z, A = self._case(per_row=True)
        cells = np.zeros(A.shape[:3], dtype=bool)
        cells[np.arange(self.S)[:, None], np.arange(self.d), (Z + 1) % self.V] = True
        dout = rng.normal(size=cells.shape)
        dPhi, grads = self._backward(params, Phi, Z, cells, dout * cells)
        dPhi2, grads2 = self._backward(params, Phi, Z, cells, dout)
        assert np.array_equal(dPhi, dPhi2)
        for k in grads:
            assert np.array_equal(grads[k], grads2[k]), k


class TestTableWorkspace:
    """twist_score_table and its backward run in one reused workspace
    against the same calls in a fresh one, bit for bit, and the scores
    against the dense twist_table's H - H_own within 1e-12."""

    d, V, m = 32, 3, 64

    def _params(self):
        return _rand_params(self.V, self.m, 9)

    def _check(self, params, ws, Phi, Z, rng):
        cells = rng.random(Z.shape + (Phi.shape[-2],)) < 0.6
        cells[np.arange(len(Z))[:, None], np.arange(Z.shape[1]), Z] = False
        fresh = tn.TableWorkspace()
        scores = tn.twist_score_table(params, Phi, Z, cells, ws)
        assert np.array_equal(scores, tn.twist_score_table(params, Phi, Z, cells, fresh))
        H, _ = twist_table(params, Phi, Z)
        ref = H - H[np.arange(len(Z))[:, None], np.arange(Z.shape[1]), Z][..., None]
        assert np.abs(scores - ref)[cells].max(initial=0.0) <= 1e-12
        assert np.all(scores[~cells] == 0.0)
        if Phi.ndim == 3:
            return
        dout = rng.normal(size=scores.shape)
        grads, ref = tn.zero_grads(params), tn.zero_grads(params)
        dPhi = tn.twist_score_table_backward(params, ws, dout, grads)
        assert np.array_equal(dPhi, tn.twist_score_table_backward(params, fresh, dout, ref))
        for k in grads:
            assert np.array_equal(grads[k], ref[k]), k

    @pytest.mark.parametrize("S", [1, 7, 25])
    def test_shared_phi_matches_reference(self, S):
        rng = np.random.default_rng(S)
        Phi = rng.normal(size=(self.d, self.V, self.m)) * 0.3
        Z = rng.integers(0, self.V, size=(S, self.d))
        ws = tn.TableWorkspace()
        self._check(self._params(), ws, Phi, Z, rng)
        self._check(self._params(), ws, Phi, Z, rng)

    def test_shrinking_live_sets_share_a_workspace(self):
        # the substep loop of an SMC step asks for ever fewer rows
        rng = np.random.default_rng(10)
        params, ws = self._params(), tn.TableWorkspace()
        Phi = rng.normal(size=(self.d, self.V, self.m)) * 0.3
        for S in (25, 12, 3, 1, 25):
            self._check(params, ws, Phi, rng.integers(0, self.V, size=(S, self.d)), rng)

    def test_per_row_chunks_share_a_workspace(self):
        # the sleep loss's chunks of per-row Phi, the last one short
        rng = np.random.default_rng(11)
        params, ws = self._params(), tn.TableWorkspace()
        for S in (5, 5, 2):
            Phi = rng.normal(size=(S, self.d, self.V, self.m)) * 0.3
            self._check(params, ws, Phi, rng.integers(0, self.V, size=(S, self.d)), rng)

    def test_small_shapes_match_reference(self):
        rng = np.random.default_rng(12)
        ws = tn.TableWorkspace()
        for d, V, m in ((1, 2, 4), (2, 3, 8), (5, 4, 16)):
            params = _rand_params(V, m, d)
            for Phi in (rng.normal(size=(d, V, m)),
                        rng.normal(size=(3, d, V, m))):
                self._check(params, ws, Phi, rng.integers(0, V, size=(3, d)), rng)


class TestScoreCells:
    """LearnedTwist.score_table_batch on a cells mask against the dense
    twist_table's H - H_own: within 1e-12 on the requested cells, exactly
    zero on every other."""

    S, d, V, m = 25, 32, 3, 64

    def _case(self, seed):
        rng = np.random.default_rng(seed)
        spec = chain_spec(self.d, V=self.V)
        values = rng.integers(0, self.V + 1, size=(2, self.d))
        obs = ObservationSequence(horizon=2.0, times=np.array([0.8, 1.5]),
                                  values=values, V=self.V, p_mask=0.3,
                                  label_noise=0.001)
        lt = tn.LearnedTwist(_rand_params(self.V, self.m, seed), spec, obs)
        Z = rng.integers(0, self.V, size=(self.S, self.d))
        return rng, lt, Z

    def _reference(self, lt, t, Z):
        H, _ = twist_table(lt.params, lt._embed(t)[0], Z)
        return H - H[np.arange(len(Z))[:, None], np.arange(self.d), Z][..., None]

    def _off_diagonal(self, Z):
        cells = np.ones(Z.shape + (self.V,), dtype=bool)
        cells[np.arange(len(Z))[:, None], np.arange(self.d), Z] = False
        return cells

    def test_requested_cells_match_reference(self):
        rng, lt, Z = self._case(21)
        ref = self._reference(lt, 0.3, Z)
        # one positive-rate cell per node, as under SIRS, and a random mask
        one = np.zeros_like(ref, dtype=bool)
        one[np.arange(self.S)[:, None], np.arange(self.d), (Z + 1) % self.V] = True
        some = self._off_diagonal(Z) & (rng.random(ref.shape) < 0.5)
        for cells in (one, some, np.zeros_like(one)):
            scores = lt.score_table_batch(0.3, Z, cells)
            assert np.abs(scores - ref)[cells].max(initial=0.0) <= 1e-12
            assert np.all(scores[~cells] == 0.0)

    def test_no_mask_scores_every_off_diagonal_cell(self):
        _, lt, Z = self._case(22)
        scores = lt.score_table_batch(0.3, Z)
        assert np.abs(scores - self._reference(lt, 0.3, Z)).max() <= 1e-12
        assert np.all(scores[~self._off_diagonal(Z)] == 0.0)
        assert np.all(scores[self._off_diagonal(Z)] != 0.0)
        assert np.array_equal(scores, lt.score_table_batch(0.3, Z, self._off_diagonal(Z)))

    def test_cell_scores_do_not_depend_on_the_batch(self):
        # each score is bitwise a function of its state and cell: the same
        # alone, in any subset of states, and under any mask that holds it
        rng, lt, Z = self._case(23)
        full = lt.score_table_batch(0.3, Z)
        for s in range(self.S):
            assert np.array_equal(lt.score_table_batch(0.3, Z[s:s + 1])[0], full[s])
        rows = rng.permutation(self.S)[:7]
        assert np.array_equal(lt.score_table_batch(0.3, Z[rows]), full[rows])
        cells = self._off_diagonal(Z) & (rng.random(full.shape) < 0.3)
        assert np.array_equal(lt.score_table_batch(0.3, Z, cells),
                              np.where(cells, full, 0.0))

    def test_cached_projection_matches_fresh_calls(self):
        # the wrapper forms Phi and P = Phi @ W2 once per time; log h and
        # the scores equal those of the functions run from scratch
        _, lt, Z = self._case(25)
        for t in (0.3, 0.3, 0.7, 0.3, 1.2):
            Phi, _ = tn.encode_context(lt.params, lt.ctx, t)
            assert np.array_equal(lt.log_h_batch(t, Z), tn.twist_log_values(lt.params, Phi, Z))
            assert np.array_equal(lt.score_table_batch(t, Z),
                                  tn.twist_score_table(lt.params, Phi, Z))

    def test_log_h_does_not_depend_on_the_batch(self):
        # log h reads the same P = Phi @ W2 as the scores, without BLAS
        _, lt, Z = self._case(24)
        full = lt.log_h_batch(0.3, Z)
        for s in range(self.S):
            assert lt.log_h_batch(0.3, Z[s:s + 1])[0] == full[s]


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

    def test_realized_moves_are_scored_at_any_rate(self):
        # a zero-rate move (0 -> 1 under rates up=0, down=1) still enters
        # the loss through its score: the loss equals its dense form
        spec = chain_spec(3, V=2)
        model = make_flip_model(0.0, 1.0)
        params = _rand_params(2, 8, 3)
        grid = np.array([0.0, 0.1, 0.2])
        states = np.array([[0, 1, 1], [1, 1, 0], [1, 0, 0]])
        obs = ObservationSequence(horizon=0.2, times=np.array([0.2]),
                                  values=np.array([[1, 0, 2]]), V=2,
                                  p_mask=0.5, label_noise=0.001)
        ctx = tn.TwistContext(spec, obs)
        item = tn.SleepItem(grid=grid, states=states, ctx=ctx)
        loss, _ = tn.sleep_loss_forward_kl(params, model, spec, None, [item])
        logp = tn.q0_logp(params, ctx.initial_features)
        ref = -logp[np.arange(3), states[0]].sum()
        for j in range(2):
            z, zn = states[j], states[j + 1]
            H, _ = twist_table(params, tn.encode_context(params, ctx, grid[j])[0],
                                  z[None])
            score = H[0] - H[0, np.arange(3), z][:, None]
            off = model.off_rates_batch(0.0, z[None], spec, None)[0]
            ref += 0.1 * (off * np.exp(score)).sum() - score[np.arange(3), zn].sum()
        assert loss == pytest.approx(ref, abs=1e-12)

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


class TestBatchedLosses:
    """A batch runs its (item, step) rows as one pass; its loss and every
    gradient block must equal the mean over one-item calls."""

    def _items(self, loss):
        spec = chain_spec(4, V=3)
        p = SIRSParams(0.3, 1.0, 0.5, 0.3)
        model = sirs_model()
        rng = np.random.default_rng(12)
        items = []
        # three grids of different lengths: snapshots off and on the base grid
        for times in ([0.35, 0.9], [0.5], [0.15, 0.6, 0.95]):
            vals = rng.integers(0, 4, size=(len(times), 4))
            obs = ObservationSequence(horizon=1.0, times=np.array(times),
                                      values=vals, V=3, p_mask=0.5,
                                      label_noise=0.001)
            grid = make_grid(1.0, 0.1, obs.times)
            Z0 = rng.integers(0, 3, size=(2, 4))
            paths = euler_simulate_batch(model, spec, p, Z0, grid, rng)
            ctx = tn.TwistContext(spec, obs)
            if loss == "kl":
                items.append(tn.SleepItem(grid=grid, states=paths[0], ctx=ctx))
            else:
                items.append(tn.DREItem(grid=grid, states_pos=paths[0],
                                        states_neg=paths[1], ctx=ctx))
        params = _rand_params(3, 8, 21)

        def call(batch, mcs, q=params):
            if loss == "kl":
                return tn.sleep_loss_forward_kl(q, model, spec, p, batch,
                                                mc_indices=mcs,
                                                q0_support=np.zeros((4, 3)))
            return tn.dre_loss(q, spec, batch, mc_indices=mcs)

        return items, call

    @pytest.mark.parametrize("loss", ["kl", "dre"])
    @pytest.mark.parametrize("mc", [False, True])
    def test_batch_is_mean_of_single_items(self, loss, mc, monkeypatch):
        items, call = self._items(loss)
        mcs = [3, 0, 7] if mc else None
        singles = [call([it], None if mcs is None else [m])
                   for it, m in zip(items, mcs or [None] * 3)]
        if not mc:
            # two rows per chunk: the full loss's rows span many chunks
            per_row = 8 * 4 * 3 * 8
            monkeypatch.setattr(tn, "CHUNK_BYTES", 2 * per_row)
            assert sum(len(it.grid) for it in items) > 2
        loss_b, grads_b = call(items, mcs)
        assert loss_b == pytest.approx(np.mean([s[0] for s in singles]),
                                       rel=1e-12)
        refs = {k: np.mean([s[1][k] for s in singles], axis=0) for k in grads_b}
        # the kl loss's b3 gradient is structurally zero (scores are
        # differences), so the absolute floor follows the largest block
        scale = max(np.abs(r).max() for r in refs.values())
        for k, g in grads_b.items():
            assert np.allclose(g, refs[k], rtol=1e-12, atol=1e-12 * scale), k

    # (loss value as float.hex, sha256 prefix of the gradient blocks' bytes
    # in sorted order) of the full loss over all three items, recorded with
    # the float64-only code that preceded dtype-following losses
    RECORDED = {"kl": ("0x1.9265f96913503p+2", "4d1b4d1b9ffc6ac1"),
                "dre": ("0x1.48d87f05a080bp+4", "1063249095e9089b")}

    @pytest.mark.parametrize("loss", ["kl", "dre"])
    def test_float64_matches_recorded_values(self, loss):
        import hashlib

        items, call = self._items(loss)
        value, grads = call(items, None)
        digest = hashlib.sha256(b"".join(grads[k].tobytes() for k in sorted(grads)))
        assert (float(value).hex(), digest.hexdigest()[:16]) == self.RECORDED[loss]
        assert all(g.dtype == np.float64 for g in grads.values())

    @pytest.mark.parametrize("loss", ["kl", "dre"])
    @pytest.mark.parametrize("mc", [False, True])
    def test_float32_agrees_with_float64(self, loss, mc):
        # the network and gradients follow the params' dtype, the loss
        # stays a float64 sum: the value within 1e-5 relative, and every
        # gradient entry within 1e-4 of the largest float64 gradient entry
        # (the kl loss's b3 gradient and, by the softmax's shift
        # invariance, its bq gradient are structurally zero)
        items, call = self._items(loss)
        mcs = [3, 0, 7] if mc else None
        ref, ref_grads = call(items, mcs)
        params = _rand_params(3, 8, 21)
        value, grads = call(items, mcs, params.astype(np.float32))
        assert isinstance(value, float)
        assert abs(value - ref) <= 1e-5 * abs(ref)
        scale = max(np.abs(g).max() for g in ref_grads.values())
        for k, g in grads.items():
            assert g.dtype == np.float32, k
            assert np.abs(g - ref_grads[k]).max() <= 1e-4 * scale, k

    def test_rejects_time_inhomogeneous_model(self):
        items, _ = self._items("kl")
        model = dataclasses.replace(sirs_model(), time_homogeneous=False)
        with pytest.raises(ValueError, match="time-homogeneous"):
            tn.sleep_loss_forward_kl(_rand_params(3, 8, 21), model,
                                     chain_spec(4, V=3),
                                     SIRSParams(0.3, 1.0, 0.5, 0.3), items)


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
        p0 = FactorizedInitial(np.full((3, 3), 1 / 3))
        dist = tn.LearnedTwist(params, spec, _obs3(d=3)).q0_dist(p0)
        assert np.allclose(dist.probs, 1 / 3)

    def test_support_mask_restricts(self):
        spec = chain_spec(2, V=3)
        params = tn.init_params(3, m=8, seed=0)
        obs = ObservationSequence(horizon=1.0, times=np.array([0.5]),
                                  values=np.array([[1, 3]]), V=3, p_mask=0.5,
                                  label_noise=0.001)
        p0 = FactorizedInitial(np.array([[0.5, 0.5, 0.0], [0.9, 0.1, 0.0]]))
        dist = tn.LearnedTwist(params, spec, obs).q0_dist(p0)
        assert np.all(dist.probs[:, 2] == 0.0)
        Z = dist.sample(np.random.default_rng(0), 200)
        assert Z.max() <= 1
        assert np.all(np.isfinite(dist.log_pmf_batch(Z)))

    def test_dense_initial_matches_factorized_law(self):
        # a DenseInitial equal to a factorized p0 has the same nodewise
        # support, so the learned q0 and the twisted SMC run agree
        spec = chain_spec(3, V=3)
        twist = tn.LearnedTwist(_rand_params(3, 8, seed=4), spec, _obs3(d=3))
        fac = FactorizedInitial(np.array([[0.5, 0.5, 0.0], [0.9, 0.1, 0.0],
                                          [0.2, 0.3, 0.5]]))
        dense = orc.DenseInitial(
            spec, np.exp(fac.log_pmf_batch(orc.state_table(spec))))
        assert np.array_equal(dense.node_support(), fac.node_support())
        q_fac, q_dense = twist.q0_dist(fac), twist.q0_dist(dense)
        assert np.array_equal(q_dense.log_probs, q_fac.log_probs)
        assert np.all(q_fac.probs[:2, 2] == 0.0)
        cfg = SMCConfig(S=32, dt=0.1, seed=5)
        p = SIRSParams(0.3, 1.0, 0.5, 0.3)
        ens_fac, lz_fac = run_smc(sirs_model(), spec, p, twist, fac, _obs3(d=3), cfg)
        ens_dense, lz_dense = run_smc(sirs_model(), spec, p, twist, dense,
                                      _obs3(d=3), cfg)
        assert np.array_equal(ens_dense.states, ens_fac.states)
        assert lz_dense == pytest.approx(lz_fac, rel=1e-12, abs=1e-12)

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
                                                        adam, 5e-3))
        test_obs = ObservationSequence(horizon=2.0, times=template.times,
                                       values=np.full((2, d), 1), V=3,
                                       p_mask=0.5, label_noise=0.001)
        logp = tn.q0_logp(params, tn.TwistContext(spec, test_obs).initial_features)
        agree = (logp.argmax(axis=1) == atom).mean()
        assert agree >= 0.95


class TestAdam:
    def test_zero_gradient_keeps_params(self):
        arrays = {"a": np.array([1.0, 2.0])}
        state = tn.AdamState.init(arrays)
        out = tn.adam_step(arrays, {"a": np.zeros(2)}, state, 0.1)
        assert np.array_equal(out["a"], arrays["a"])
        assert state.step == 1

    def test_first_step_magnitude_is_learning_rate(self):
        for g in (1.0, 100.0, 1e-4):
            arrays = {"a": np.array([0.0])}
            state = tn.AdamState.init(arrays)
            out = tn.adam_step(arrays, {"a": np.array([g])}, state, 0.001)
            assert abs(out["a"][0]) <= 0.001 * (1 + 1e-6)
            assert abs(out["a"][0]) >= 0.001 * (1 - 1e-3)

    def test_rejects_nonfinite_gradient(self):
        arrays = {"a": np.array([0.0])}
        state = tn.AdamState.init(arrays)
        with pytest.raises(ValueError):
            tn.adam_step(arrays, {"a": np.array([np.nan])}, state, 1e-3)


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
        # the later calls reuse the wrapper's workspace; a table already
        # returned must not change under them
        spec = chain_spec(4, V=3)
        params = _rand_params(3, 8, 14)
        obs = _obs3()
        lt = tn.LearnedTwist(params, spec, obs)
        rng = np.random.default_rng(0)
        Z = rng.integers(0, 3, size=(6, 4))
        lh = lt.log_h_batch(0.3, Z)
        st = lt.score_table_batch(0.3, Z)
        kept = st.copy()
        lt.score_table_batch(0.4, rng.integers(0, 3, size=(6, 4)))
        assert np.array_equal(st, kept)
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
                                                    adam, 3e-3))
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
