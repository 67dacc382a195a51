import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from ipsmc.errors import StepSizeError
from ipsmc.ips import (PathSample, RateModel, SIRSParams, StateSpaceSpec,
                       euler_simulate_batch, euler_step_table,
                       gillespie_simulate, make_grid, path_log_density,
                       read_path, sample_values, sirs_model,
                       sirs_off_rates_batch, sum_values, write_path)
from ipsmc import oracle as orc

from conftest import chain_spec, make_flip_model
from helpers import kernel_pmf


def test_spec_rejects_degenerate_vocabulary():
    with pytest.raises(ValueError):
        StateSpaceSpec(d=2, V=1, adjacency=np.zeros((2, 2), dtype=int),
                       node_features=np.zeros((2, 0)))


def test_spec_rejects_asymmetric_adjacency():
    adj = np.array([[0, 1], [0, 0]])
    with pytest.raises(ValueError):
        StateSpaceSpec(d=2, V=2, adjacency=adj, node_features=np.zeros((2, 0)))


def test_spec_rejects_self_loops():
    adj = np.array([[1, 0], [0, 0]])
    with pytest.raises(ValueError):
        StateSpaceSpec(d=2, V=2, adjacency=adj, node_features=np.zeros((2, 0)))


def _random_off_rates(rng, d, V):
    """One random state (1, d) and its off-target rates (1, d, V), zero at
    the current values."""
    z = rng.integers(V, size=(1, d))
    off = rng.exponential(size=(1, d, V))
    off[0, np.arange(d), z[0]] = 0.0
    return z, off


@given(st.integers(1, 5), st.integers(2, 4), st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_rate_field_row_sum_invariant(d, V, seed):
    # every row of the kernel table is delta + dt * off: it sums to one and
    # its stay entry is one minus dt times the coordinate's exit rate
    rng = np.random.default_rng(seed)
    z, off = _random_off_rates(rng, d, V)
    exits = off[0].sum(axis=1)
    dt = 0.9 / max(exits.max(), 1e-9)
    probs = euler_step_table(off, z, dt)[0]
    assert np.all(probs >= 0)
    assert np.allclose(probs.sum(axis=1), 1.0, rtol=0, atol=1e-12)
    assert np.allclose(probs[np.arange(d), z[0]], 1.0 - dt * exits,
                       rtol=0, atol=1e-15)


class TestSIRSRates:
    def _off(self, z, spec, p):
        return sirs_off_rates_batch(0.0, np.array([z]), spec, p)[0]

    def test_all_susceptible_absorbing_without_spontaneous_rate(self, pair_spec):
        p = SIRSParams(0.0, 1.0, 0.4, 0.05)
        assert np.all(self._off([0, 0], pair_spec, p) == 0.0)

    def test_infected_node_recovery_rate(self, pair_spec):
        p = SIRSParams(0.0, 0.0, 0.4, 0.0)
        off = self._off([1, 0], pair_spec, p)
        assert off[0, 2] == pytest.approx(0.4)
        assert off[0, 0] == 0.0
        assert off[0, 1] == 0.0

    def test_infection_rate_with_one_infected_neighbor(self, pair_spec):
        # zero-dim features make every edge weight exactly one half
        p = SIRSParams(0.1, 1.0, 0.4, 0.05)
        off = self._off([0, 1], pair_spec, p)
        assert off[0, 1] == pytest.approx(0.1 + 1.0 * 0.5)

    def test_total_exit_rate_of_combined_example(self, pair_spec):
        p = SIRSParams(0.1, 1.0, 0.4, 0.05)
        assert self._off([0, 1], pair_spec, p).sum() == pytest.approx(1.0)

    def test_dimension_mismatch_rejected(self, pair_spec):
        with pytest.raises(ValueError):
            self._off([0, 1, 2], pair_spec, SIRSParams(0.1, 1.0, 0.4, 0.05))

    def test_requires_three_values(self):
        with pytest.raises(ValueError, match="V = 3"):
            self._off([0, 1], chain_spec(2, V=2), SIRSParams(0.1, 1.0, 0.4, 0.05))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -0.1])
    def test_params_must_be_finite_and_nonnegative(self, bad):
        for k in range(4):
            values = [0.1, 1.0, 0.4, 0.05]
            values[k] = bad
            with pytest.raises(ValueError):
                SIRSParams(*values)


def _no_jump_log_density(off, T=2.0):
    """log density of a jump-free path under constant off-target rates
    (1, d, V) from the state that never moves: minus the total exit rate
    times T."""
    d = off.shape[1]
    model = RateModel(batch_off_rate_fn=lambda t, Z, spec, theta: off)
    path = PathSample(horizon=T, initial=np.zeros(d, dtype=np.int64))
    return path_log_density(model, chain_spec(d, V=off.shape[2]), None, path,
                            lambda z: 0.0)


def test_total_exit_rate_zero_field():
    assert _no_jump_log_density(np.zeros((1, 2, 2))) == 0.0


def test_total_exit_rate_two_nodes():
    off = np.zeros((1, 2, 2))
    off[0, 0, 1] = 0.4
    off[0, 1, 1] = 0.4
    assert _no_jump_log_density(off, T=2.0) == pytest.approx(-1.6)


class TestEulerKernel:
    def test_zero_rates_identity(self):
        spec = chain_spec(3, V=2)
        Z0 = np.array([[0, 1, 0]] * 4)
        rng = np.random.default_rng(0)
        for dt in (0.01, 0.5, 10.0):
            grid = np.arange(4) * dt
            out = euler_simulate_batch(make_flip_model(0.0, 0.0), spec, None,
                                       Z0, grid, rng)
            assert np.all(out == Z0[:, None, :])

    def test_single_flip_probability(self):
        off = np.array([[[0.0, 0.5]]])
        z = np.array([[0]])
        q = kernel_pmf(off, z, 0.1, np.array([[1], [0]]))[0]
        assert q[0] == pytest.approx(0.05)
        assert q[1] == pytest.approx(0.95)

    def test_joint_flip_probability_is_product(self):
        off = np.zeros((1, 2, 2))
        off[0, 0, 1] = 1.0
        off[0, 1, 0] = 1.0
        z = np.array([[0, 1]])
        q = kernel_pmf(off, z, 0.1, np.array([[1, 0]]))[0, 0]
        assert q == pytest.approx(0.01)

    def test_pmf_normalizes_over_state_space(self):
        spec = chain_spec(3, V=2)
        model = make_flip_model(0.7, 0.5, coupling=0.4)
        z = np.array([[0, 1, 0]])
        table = orc.state_table(spec)
        q = kernel_pmf(model.off_rates_batch(0.0, z, spec, None), z, 0.2, table)
        assert q.sum() == pytest.approx(1.0, abs=1e-12)

    def test_step_size_error(self):
        spec = chain_spec(1, V=2)
        model = make_flip_model(3.0, 3.0)
        with pytest.raises(StepSizeError):
            euler_simulate_batch(model, spec, None, np.array([[0]]),
                                 np.array([0.0, 0.5]), np.random.default_rng(0))
        with pytest.raises(StepSizeError):
            kernel_pmf(np.array([[[0.0, 3.0]]]), np.array([[0]]), 0.5,
                       np.array([[1]]))

    @given(st.integers(1, 4), st.integers(2, 4), st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_pmf_normalizes_on_random_spaces(self, d, V, seed):
        rng = np.random.default_rng(seed)
        z, off = _random_off_rates(rng, d, V)
        dt = 0.9 / max(off[0].sum(axis=1).max(), 1e-9)
        table = orc.state_table(chain_spec(d, V=V))
        total = kernel_pmf(off, z, dt, table).sum()
        assert abs(total - 1.0) < 1e-10


class TestValueAxisKernels:
    """sum_values and sample_values against the NumPy reductions they
    replace, bit for bit."""

    @pytest.mark.parametrize("V", range(2, 8))
    def test_sum_values_bitwise(self, V):
        rng = np.random.default_rng(V)
        for shape in ((250, 32), (1, 32), (4,)):
            x = rng.random(shape + (V,)) * 10.0 ** rng.uniform(-8, 8, shape + (V,))
            assert np.array_equal(sum_values(x), x.sum(axis=-1))

    @pytest.mark.parametrize("V", [2, 3, 5, 300])
    def test_sample_values_matches_cumsum_argmax(self, V):
        rng = np.random.default_rng(V)
        probs = rng.random((40, 6, V)) ** 4
        probs /= probs.sum(axis=-1, keepdims=True)
        probs[0, :, 1:] = 0.0                     # point mass on value 0
        probs[1, :, :-1] = 0.0                    # point mass on the last value
        u = rng.random((40, 6))
        # uniforms at and above the last running sum, which rounding can
        # leave below one: "none above u" draws value 0
        last = np.cumsum(probs, axis=-1)[..., -1]
        u[2] = last[2]
        u[3] = np.nextafter(np.maximum(last[3], u[3]), 2.0)
        probs[4] *= 0.5
        ref = (u[..., None] < np.cumsum(probs, axis=-1)).argmax(axis=-1)
        got = sample_values(probs, u)
        assert got.dtype == np.int64
        assert np.array_equal(got, ref)
        assert np.all(ref[3] == 0)

    def test_sample_values_broadcasts_shared_table(self):
        # one (d, V) table for every particle, as the initial laws draw
        rng = np.random.default_rng(3)
        probs = rng.random((6, 3))
        probs /= probs.sum(axis=1, keepdims=True)
        u = rng.random((50, 6))
        ref = (u[..., None] < np.cumsum(probs, axis=1)[None]).argmax(axis=2)
        assert np.array_equal(sample_values(probs, u), ref)



class TestLockstepSimulation:
    """euler_simulate_batch on one (B, M+1) grid per path."""

    def test_equal_rows_match_shared_grid_bitwise(self):
        spec = chain_spec(5, V=3)
        p = SIRSParams(0.3, 1.0, 0.5, 0.3)
        grid = make_grid(2.0, 0.1, [0.55, 1.3])
        Z0 = np.random.default_rng(0).integers(0, 3, size=(6, 5))
        shared = euler_simulate_batch(sirs_model(), spec, p, Z0, grid,
                                      np.random.default_rng(4))
        rows = euler_simulate_batch(sirs_model(), spec, p, Z0,
                                    np.tile(grid, (6, 1)),
                                    np.random.default_rng(4))
        assert np.array_equal(shared, rows)

    def test_padded_path_keeps_its_last_state(self):
        # fast flips: a path stepping past its own end would move at once
        spec = chain_spec(4, V=2)
        model = make_flip_model(3.0, 3.0)
        short = np.linspace(0.0, 1.0, 11)
        long_ = np.linspace(0.0, 1.0, 31)
        grids = np.stack([np.concatenate([short, np.full(20, 1.0)]), long_])
        out = euler_simulate_batch(model, spec, None, np.zeros((2, 4), dtype=int),
                                   grids, np.random.default_rng(1))
        assert out.shape == (2, 31, 4)
        assert np.all(out[0, 10:] == out[0, 10])
        assert np.any(out[1, 10:] != out[1, 10])

    def test_one_row_past_the_euler_bound_raises(self):
        # a 0.1 step is fine at exit rate 3; the second path's 0.5 step is not
        spec = chain_spec(1, V=2)
        model = make_flip_model(3.0, 3.0)
        grids = np.array([[0.0, 0.1, 0.2], [0.0, 0.1, 0.6]])
        with pytest.raises(StepSizeError, match="Euler step 0.5"):
            euler_simulate_batch(model, spec, None, np.zeros((2, 1), dtype=int),
                                 grids, np.random.default_rng(0))
        euler_simulate_batch(model, spec, None, np.zeros((2, 1), dtype=int),
                             grids[:, :2], np.random.default_rng(0))

    def test_rows_need_a_time_homogeneous_model(self):
        spec = chain_spec(1, V=2)
        model = RateModel(batch_off_rate_fn=make_flip_model().batch_off_rate_fn,
                          time_homogeneous=False)
        with pytest.raises(ValueError, match="time-homogeneous"):
            euler_simulate_batch(model, spec, None, np.zeros((2, 1), dtype=int),
                                 np.zeros((2, 3)), np.random.default_rng(0))


def test_euler_tv_error_halves_like_squared_step():
    # second-order kernel accuracy: TV against exp(Q dt) shrinks ~4x per halving
    spec = chain_spec(3, V=2)
    model = make_flip_model(0.5, 0.7, coupling=0.6)
    gen = orc.build_dense_generator(model, spec, None)
    table = orc.state_table(spec)
    off = model.off_rates_batch(0.0, table, spec, None)

    def max_tv(dt):
        P = orc.expm_action(gen.Q, dt, np.eye(gen.n))
        return (0.5 * np.abs(kernel_pmf(off, table, dt, table) - P).sum(axis=1)).max()

    ratio = max_tv(0.2) / max_tv(0.1)
    assert 2.5 <= ratio <= 6.0


class TestGillespie:
    def test_zero_rate_model_empty_path(self):
        spec = chain_spec(2, V=2)
        model = make_flip_model(0.0, 0.0)
        path = gillespie_simulate(model, spec, None, np.array([0, 1]), 5.0,
                                  np.random.default_rng(0))
        assert path.n_jumps == 0

    def test_jump_count_matches_poisson_law(self):
        spec = chain_spec(1, V=2)
        model = make_flip_model(1.0, 1.0)
        rng = np.random.default_rng(42)
        counts = [gillespie_simulate(model, spec, None, np.array([0]), 10.0,
                                     rng).n_jumps for _ in range(10_000)]
        mean = np.mean(counts)
        band = 3.0 * math.sqrt(10.0 / 10_000)
        assert abs(mean - 10.0) < band

    def test_sirs_absorbing_state(self, pair_spec):
        p = SIRSParams(0.0, 1.0, 0.4, 0.05)
        path = gillespie_simulate(sirs_model(), pair_spec, p, np.array([0, 0]),
                                  50.0, np.random.default_rng(1))
        assert path.n_jumps == 0

    def test_inhomogeneous_requires_bound(self):
        spec = chain_spec(1, V=2)
        base = make_flip_model(1.0, 1.0)
        model = RateModel(batch_off_rate_fn=base.batch_off_rate_fn,
                          time_homogeneous=False)
        with pytest.raises(ValueError):
            gillespie_simulate(model, spec, None, np.array([0]), 1.0,
                               np.random.default_rng(0))


class TestPathLogDensity:
    def _point_mass(self, z0):
        def p0_log(z):
            return 0.0 if np.array_equal(z, z0) else -np.inf

        return p0_log

    def test_no_jump_constant_exit(self):
        spec = chain_spec(1, V=2)
        model = make_flip_model(1.0, 1.0)
        path = PathSample(horizon=2.0, initial=np.array([0]))
        val = path_log_density(model, spec, None, path, self._point_mass([0]))
        assert val == pytest.approx(-2.0)

    def test_single_jump(self):
        spec = chain_spec(1, V=2)
        model = make_flip_model(0.5, 0.5)
        path = PathSample(horizon=2.0, initial=np.array([0]),
                          jump_times=np.array([1.0]),
                          jump_nodes=np.array([0]), jump_values=np.array([1]))
        val = path_log_density(model, spec, None, path, self._point_mass([0]))
        assert val == pytest.approx(math.log(0.5) - 1.0)

    def test_zero_rate_jump_gives_minus_inf(self):
        spec = chain_spec(2, V=3)
        p = SIRSParams(0.0, 0.0, 0.4, 0.0)
        path = PathSample(horizon=1.0, initial=np.array([0, 0]),
                          jump_times=np.array([0.5]),
                          jump_nodes=np.array([0]), jump_values=np.array([1]))
        with pytest.warns(UserWarning):
            val = path_log_density(sirs_model(), spec, p, path,
                                   self._point_mass([0, 0]))
        assert val == -np.inf

    def test_truncated_path_enumeration_matches_matrix_exponential(self, pair_spec):
        # quadrature over <=2 jump paths vs the exact kernel; the residual
        # >=3 jump mass is below the tolerance at this horizon
        p = SIRSParams(0.4, 1.0, 0.6, 0.3)
        model = sirs_model()
        T = 0.25
        z0 = np.array([0, 1])
        gen = orc.build_dense_generator(model, pair_spec, p)
        P = expm(gen.Q * T)

        def density(path):
            return math.exp(path_log_density(model, pair_spec, p, path,
                                             self._point_mass(z0)))

        # 0 jumps
        total = {orc.state_index(pair_spec, z0): density(
            PathSample(horizon=T, initial=z0))}
        # enumerate single-coordinate moves with positive rates
        moves = []
        off0 = model.off_rates_batch(0.0, z0[None], pair_spec, p)[0]
        for i in range(2):
            for v in range(3):
                if v != z0[i] and off0[i, v] > 0:
                    moves.append((i, v))
        nq = 48
        ts, w = np.polynomial.legendre.leggauss(nq)
        for i, v in moves:
            # 1 jump
            z1 = z0.copy()
            z1[i] = v
            t1s = 0.5 * T * (ts + 1)
            mass = sum(wt * density(PathSample(horizon=T, initial=z0,
                                               jump_times=np.array([t]),
                                               jump_nodes=np.array([i]),
                                               jump_values=np.array([v])))
                       for t, wt in zip(t1s, w)) * 0.5 * T
            key = orc.state_index(pair_spec, z1)
            total[key] = total.get(key, 0.0) + mass
            # 2 jumps
            off1 = model.off_rates_batch(0.0, z1[None], pair_spec, p)[0]
            for i2 in range(2):
                for v2 in range(3):
                    if v2 != z1[i2] and off1[i2, v2] > 0:
                        z2 = z1.copy()
                        z2[i2] = v2
                        acc = 0.0
                        for t1, w1 in zip(0.5 * T * (ts + 1), w):
                            inner = 0.0
                            for t2r, w2 in zip(ts, w):
                                t2 = t1 + 0.5 * (T - t1) * (t2r + 1)
                                inner += w2 * density(PathSample(
                                    horizon=T, initial=z0,
                                    jump_times=np.array([t1, t2]),
                                    jump_nodes=np.array([i, i2]),
                                    jump_values=np.array([v, v2])))
                            acc += w1 * inner * 0.5 * (T - t1)
                        acc *= 0.5 * T
                        key = orc.state_index(pair_spec, z2)
                        total[key] = total.get(key, 0.0) + acc
        s0 = orc.state_index(pair_spec, z0)
        for key, val in total.items():
            assert val == pytest.approx(P[s0, key], abs=1e-3)


def test_gillespie_and_euler_agree_on_terminal_marginals(pair_spec):
    p = SIRSParams(0.3, 1.0, 0.5, 0.3)
    model = sirs_model()
    T, n = 2.0, 10_000
    rng = np.random.default_rng(11)
    z0 = np.array([0, 1])
    counts_g = np.zeros(9)
    for _ in range(n):
        path = gillespie_simulate(model, pair_spec, p, z0, T, rng)
        counts_g[orc.state_index(pair_spec, path.state_at(T))] += 1
    grid = make_grid(T, 0.01)
    Z0 = np.tile(z0, (n, 1))
    states = euler_simulate_batch(model, pair_spec, p, Z0, grid, rng)
    final = states[:, -1, :]
    idx = final[:, 0] + 3 * final[:, 1]
    counts_e = np.bincount(idx, minlength=9)
    tv = 0.5 * np.abs(counts_g / n - counts_e / n).sum()
    assert tv < 0.02


def test_path_serialization_round_trip():
    path = PathSample(horizon=3.5, initial=np.array([0, 2, 1]),
                      jump_times=np.array([0.25, 1.75]),
                      jump_nodes=np.array([1, 0]),
                      jump_values=np.array([0, 1]))
    buf = io.StringIO()
    write_path(buf, path, V=3)
    buf.seek(0)
    back, V = read_path(buf)
    assert V == 3
    assert back.horizon == path.horizon
    assert np.array_equal(back.initial, path.initial)
    assert np.array_equal(back.jump_times, path.jump_times)
    assert np.array_equal(back.jump_nodes, path.jump_nodes)
    assert np.array_equal(back.jump_values, path.jump_values)


def test_path_validation():
    bad = PathSample(horizon=1.0, initial=np.array([0]),
                     jump_times=np.array([0.5, 0.5]),
                     jump_nodes=np.array([0, 0]), jump_values=np.array([1, 0]))
    with pytest.raises(ValueError):
        bad.validate()


def test_make_grid_contains_observation_times():
    grid = make_grid(10.0, 0.3, [0.17, 5.551, 9.99])
    for tau in (0.17, 5.551, 9.99):
        assert np.any(np.abs(grid - tau) < 1e-12)
    assert grid[0] == 0.0 and grid[-1] == 10.0
    assert np.all(np.diff(grid) > 0)
