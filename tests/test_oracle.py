import ast
import math
from importlib.util import resolve_name
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.special import logsumexp

from ipsmc.errors import CollapseError, StateSpaceTooLargeError
from ipsmc.ips import (RateModel, SIRSParams, gillespie_simulate, make_grid,
                       sirs_model)
from ipsmc import oracle as orc
from ipsmc import cli, smc, twisting, wakesleep
from ipsmc.twisting import ObservationSequence

from conftest import chain_spec, make_flip_model
from helpers import lookahead_by_expm_action, propagator_lengths


def two_state_model(r01=0.5, r10=0.3):
    def batch(t, Z, spec, theta):
        B = len(Z)
        off = np.zeros((B, 1, 2))
        off[:, 0, 1] = r01 * (Z[:, 0] == 0)
        off[:, 0, 0] = r10 * (Z[:, 0] == 1)
        return off

    return RateModel(batch_off_rate_fn=batch,
                     lambda_bar_fn=lambda s, th: max(r01, r10))


class TestDenseGenerator:
    def test_two_state_example(self):
        spec = chain_spec(1, V=2)
        gen = orc.build_dense_generator(two_state_model(), spec, None)
        assert np.allclose(gen.Q, [[-0.5, 0.5], [0.3, -0.3]])

    def test_zero_model(self):
        spec = chain_spec(2, V=2)
        gen = orc.build_dense_generator(make_flip_model(0.0, 0.0), spec, None)
        assert np.all(gen.Q == 0)

    def test_independent_flips_sparsity(self):
        spec = chain_spec(2, V=2)
        gen = orc.build_dense_generator(make_flip_model(1.0, 1.0), spec, None)
        off = gen.Q - np.diag(np.diag(gen.Q))
        assert np.all((off > 0).sum(axis=1) == 2)

    def test_guard(self):
        spec = chain_spec(21, V=2)
        with pytest.raises(StateSpaceTooLargeError):
            orc.n_states(spec)

    def test_guard_bounds_generator_bytes(self):
        # 8192 states fit in 512 MiB of float64 generator; 8193 would not
        assert orc.n_states(chain_spec(13, V=2)) == 8192
        for d, V in ((14, 2), (9, 3)):
            with pytest.raises(StateSpaceTooLargeError):
                orc.n_states(chain_spec(d, V=V))

    def test_matches_per_state_assembly(self, pair_spec):
        # the vectorized assembly puts r_i(v | z) at (z, z^{i->v})
        p = SIRSParams(0.3, 1.0, 0.5, 0.3)
        model = sirs_model()
        Q = orc.build_dense_generator(model, pair_spec, p).Q
        table = orc.state_table(pair_spec)
        for s, z in enumerate(table):
            off = model.off_rates_batch(0.0, z[None], pair_spec, p)[0]
            for i in range(2):
                for v in range(3):
                    if v != z[i]:
                        z2 = z.copy()
                        z2[i] = v
                        assert Q[s, orc.state_index(pair_spec, z2)] == off[i, v]
            assert Q[s, s] == -off.sum()


def _P(gen, delta):
    return orc.expm_action(gen.Q, delta, np.eye(gen.n))


class TestTransitionMatrix:
    def test_zero_delta_identity(self):
        spec = chain_spec(1, V=2)
        gen = orc.build_dense_generator(two_state_model(), spec, None)
        assert np.array_equal(_P(gen, 0.0), np.eye(2))

    def test_two_state_closed_form(self):
        spec = chain_spec(1, V=2)
        gen = orc.build_dense_generator(two_state_model(), spec, None)
        P = _P(gen, 1.0)
        expected = (0.5 / 0.8) * (1.0 - math.exp(-0.8))
        assert P[0, 1] == pytest.approx(expected, abs=1e-10)
        assert P[0, 1] == pytest.approx(0.3441694, abs=5e-7)

    def test_row_stochastic(self, pair_spec):
        p = SIRSParams(0.3, 1.0, 0.5, 0.3)
        gen = orc.build_dense_generator(sirs_model(), pair_spec, p)
        P = _P(gen, 0.7)
        assert np.all(P >= 0)
        assert np.abs(P.sum(axis=1) - 1).max() < 1e-9

    def test_semigroup_property(self, pair_spec):
        p = SIRSParams(0.3, 1.0, 0.5, 0.3)
        gen = orc.build_dense_generator(sirs_model(), pair_spec, p)
        lhs = _P(gen, 0.9)
        rhs = _P(gen, 0.4) @ _P(gen, 0.5)
        assert np.linalg.norm(lhs - rhs) < 1e-8

    def test_against_scipy_expm(self, pair_spec):
        p = SIRSParams(0.4, 0.8, 0.6, 0.2)
        gen = orc.build_dense_generator(sirs_model(), pair_spec, p)
        assert np.abs(_P(gen, 1.3) - expm(gen.Q * 1.3)).max() < 1e-10

    def test_vector_and_transposed_actions(self, pair_spec):
        # one series serves P @ v (backward) and P.T @ v (forward)
        p = SIRSParams(0.4, 0.8, 0.6, 0.2)
        gen = orc.build_dense_generator(sirs_model(), pair_spec, p)
        v = np.random.default_rng(3).uniform(size=9)
        P = expm(gen.Q * 0.6)
        assert np.abs(orc.expm_action(gen.Q, 0.6, v) - P @ v).max() < 1e-10
        assert np.abs(orc.expm_action(gen.Q.T, 0.6, v) - P.T @ v).max() < 1e-10

    def test_iteration_cap_is_collapse(self):
        # 1.5e5 expected uniformized jumps outrun the series' iteration cap
        gen = orc.build_dense_generator(two_state_model(1e5, 1e5), chain_spec(1, V=2),
                                        None)
        with pytest.raises(CollapseError, match="failed to converge"):
            orc.expm_action(gen.Q, 1.5, np.array([1.0, 0.0]))

    def test_series_converges_at_large_rho(self):
        # from about rho = 1,100 on, rounding can stop the running Poisson
        # total short of 1 - 1e-12; the series then ends where it stops
        # growing
        for rho in np.random.default_rng(0).uniform(100, 3000, size=500):
            _, covered = orc._poisson_weights(rho)
            assert abs(covered - 1.0) < 1e-10

    def test_two_state_long_step_closed_form(self):
        # rho = 500 * 3.5 = 1,750, where the total stops short of 1 - 1e-12;
        # exp(-800 * 3.5) vanishes, so P is the stationary law in each row
        gen = orc.build_dense_generator(two_state_model(500.0, 300.0),
                                        chain_spec(1, V=2), None)
        P = orc.expm_action(gen.Q, 3.5, np.eye(2))
        assert np.abs(P - [[0.375, 0.625], [0.375, 0.625]]).max() < 1e-10

    @pytest.mark.parametrize("delta", [np.nan, np.inf, -np.inf, -0.1])
    def test_rejects_non_finite_or_negative_step(self, pair_spec, delta):
        gen = orc.build_dense_generator(sirs_model(), pair_spec,
                                        SIRSParams(0.4, 0.8, 0.6, 0.2))
        v = np.ones(9)
        with pytest.raises(ValueError, match="delta must be finite and >= 0"):
            orc.expm_action(gen.Q, delta, v)
        # the passes' cached transition matrices check their lengths too
        with pytest.raises(ValueError, match="delta must be finite and >= 0"):
            gen.propagators([delta])


class TestCachedOperator:
    """DenseGenerator forms I + A/lam once per direction; a product on it
    must give exactly the bits of a fresh expm_action call."""

    @pytest.mark.parametrize("transpose", [False, True])
    def test_matches_expm_action_bitwise(self, pair_spec, transpose):
        gen = orc.build_dense_generator(sirs_model(), pair_spec,
                                        SIRSParams(0.4, 0.8, 0.6, 0.2))
        A = gen.Q.T if transpose else gen.Q
        rng = np.random.default_rng(5)
        for x in (rng.uniform(size=9), rng.uniform(size=(9, 4)), np.eye(9)):
            for delta in (0.0, 1e-3, 0.05, 0.6, 2.5):
                out = orc._propagate(gen.uniformization(transpose), delta, x)
                assert np.array_equal(out, orc.expm_action(A, delta, x))
        assert gen.uniformization(transpose) is gen.uniformization(transpose)

    def test_propagators_match_expm_action_bitwise(self, pair_spec):
        # lengths formed together share the series' powers, one at a time
        # they do not; both give expm_action's bits, and each is kept
        gen = orc.build_dense_generator(sirs_model(), pair_spec,
                                        SIRSParams(0.4, 0.8, 0.6, 0.2))
        deltas = [0.05, 0.0, 1e-3, 0.05, 2.5]
        together = gen.propagators(deltas)
        for delta, P in zip(deltas, together):
            assert np.array_equal(P, orc.expm_action(gen.Q, delta, np.eye(9)))
            assert gen.propagators([delta])[0] is P
        alone = orc.build_dense_generator(sirs_model(), pair_spec,
                                          SIRSParams(0.4, 0.8, 0.6, 0.2))
        assert np.array_equal(alone.propagators([2.5])[0], together[-1])

    @pytest.mark.parametrize("transpose", [False, True])
    def test_zero_generator(self, transpose):
        gen = orc.build_dense_generator(make_flip_model(0.0, 0.0), chain_spec(2, V=2),
                                        None)
        assert gen.uniformization(transpose) == (0.0, None)
        x = np.random.default_rng(6).uniform(size=4)
        for delta in (0.0, 0.7):
            out = orc._propagate(gen.uniformization(transpose), delta, x)
            assert np.array_equal(out, x) and out is not x
            assert np.array_equal(out, orc.expm_action(gen.Q, delta, x))

    def test_lookahead_matches_per_call_recursion(self, pair_spec):
        p = SIRSParams(0.3, 1.0, 0.5, 0.3)
        obs = _obs(pair_spec, 2.0, [0.45, 0.8, 1.5], [[1, 3], [2, 0], [0, 1]])
        grid = make_grid(2.0, 0.07, obs.times)
        la = orc.exact_lookahead(sirs_model(), pair_spec, p,
                                 orc.potential_vectors(pair_spec, obs), grid)
        # both paths run: most steps by a cached matrix, the steps next to
        # the snapshots by the series
        dense = propagator_lengths(grid, 9)
        assert 0 < sum(dt in dense for dt in np.diff(grid)) < len(grid) - 1
        log_h, log_h_left = lookahead_by_expm_action(la.gen, la.potentials, la.grid)
        assert np.array_equal(la.log_h, log_h)
        assert np.array_equal(la.log_h_left, log_h_left)


def _obs(spec, T, times, values, p_mask=0.5, delta=0.01):
    return ObservationSequence(horizon=T, times=np.asarray(times, dtype=float),
                               values=np.asarray(values, dtype=np.int64).reshape(len(times), spec.d),
                               V=spec.V, p_mask=p_mask, label_noise=delta)


def _empty_obs(spec, T):
    return ObservationSequence(horizon=T, times=np.zeros(0),
                               values=np.zeros((0, spec.d), dtype=np.int64),
                               V=spec.V, p_mask=0.5, label_noise=0.01)


class TestLookahead:
    def test_no_potentials_identically_one(self):
        spec = chain_spec(1, V=2)
        model = two_state_model()
        grid = make_grid(2.0, 0.25)
        la = orc.exact_lookahead(model, spec, None, [], grid)
        assert np.abs(la.log_h).max() < 1e-12
        assert np.abs(la.log_h_left).max() < 1e-12

    def test_single_horizon_potential(self):
        spec = chain_spec(1, V=2)
        model = two_state_model()
        grid = make_grid(1.0, 0.25)
        g = np.log(np.array([0.7, 0.2]))
        la = orc.exact_lookahead(model, spec, None, [(1.0, g)], grid)
        assert np.allclose(la.log_h_left[-1], g)
        assert np.all(la.log_h[-1] == 0.0)

    def test_two_state_value_one_unit_before_endpoint(self):
        spec = chain_spec(1, V=2)
        model = two_state_model()
        grid = make_grid(2.0, 0.5)
        with np.errstate(divide="ignore"):
            g = np.log(np.array([1.0, 0.0]))
        with pytest.warns(UserWarning):
            la = orc.exact_lookahead(model, spec, None, [(2.0, g)], grid)
        P = _P(orc.build_dense_generator(model, spec, None), 1.0)
        assert la.log_h_at(1.0)[0] == pytest.approx(math.log(P[0, 0]), abs=1e-10)
        assert math.exp(la.log_h_at(1.0)[0]) == pytest.approx(0.6558306, abs=5e-7)

    def test_runaway_series_between_grid_points_is_collapse(self):
        # exp(-rho) underflows at rho = 1.5e5; the series ends in
        # CollapseError at its iteration cap instead of looping forever
        gen = orc.build_dense_generator(two_state_model(1e5, 1e5),
                                        chain_spec(1, V=2), None)
        zeros = np.zeros((2, 2))
        la = orc.LookaheadTable(grid=np.array([0.0, 3.0]), log_h=zeros,
                                log_h_left=zeros, potentials={}, gen=gen,
                                spec=chain_spec(1, V=2))
        with pytest.raises(CollapseError, match="failed to converge"):
            la.log_h_at(1.5)

    @pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf])
    def test_log_h_at_rejects_non_finite_time(self, t):
        spec = chain_spec(1, V=2)
        la = orc.exact_lookahead(two_state_model(), spec, None, [],
                                 make_grid(1.0, 0.25))
        with pytest.raises(ValueError, match="outside the table grid"):
            la.log_h_at(t)

    def test_reset_identity_at_potentials(self, pair_spec):
        p = SIRSParams(0.3, 1.0, 0.5, 0.3)
        model = sirs_model()
        obs = _obs(pair_spec, 2.0, [0.8, 1.5], [[1, 3], [2, 0]])
        grid = make_grid(2.0, 0.1, obs.times)
        pots = orc.potential_vectors(pair_spec, obs)
        la = orc.exact_lookahead(model, pair_spec, p, pots, grid)
        for tau, vec in pots:
            j = int(np.argmin(np.abs(grid - tau)))
            assert np.allclose(la.log_h_left[j], la.log_h[j] + vec, atol=1e-8)

    def test_martingale_between_potentials_vs_monte_carlo(self):
        # direct simulation estimate of the defining expectation
        spec = chain_spec(1, V=2)
        model = two_state_model(0.8, 0.6)
        obs = _obs(spec, 1.5, [1.0], [[1]], p_mask=0.0, delta=0.05)
        grid = make_grid(1.5, 0.05, obs.times)
        la = orc.exact_lookahead(model, spec, None,
                                 orc.potential_vectors(spec, obs), grid)
        rng = np.random.default_rng(0)
        from ipsmc.twisting import emission_log_potential

        n = 20_000
        vals = np.empty(n)
        for r in range(n):
            path = gillespie_simulate(model, spec, None, np.array([0]), 1.5, rng)
            vals[r] = math.exp(emission_log_potential(obs, 0, path.state_at(1.0)))
        mc = vals.mean()
        se = vals.std(ddof=1) / math.sqrt(n)
        assert abs(math.exp(la.log_h[0][0]) - mc) < 3 * se


class TestPosterior:
    def test_no_observations_gives_prior_marginals(self, pair_spec):
        p = SIRSParams(0.3, 1.0, 0.5, 0.3)
        model = sirs_model()
        grid = make_grid(1.0, 0.25)
        p0 = np.zeros(9)
        p0[orc.state_index(pair_spec, [1, 0])] = 1.0
        marg, _ = orc.exact_posterior_marginals(model, pair_spec, p, p0,
                                                _empty_obs(pair_spec, 1.0), grid)
        gen = orc.build_dense_generator(model, pair_spec, p)
        for j, t in enumerate(grid):
            prior = expm(gen.Q * t).T @ p0
            assert np.allclose(marg[j], prior, atol=1e-9)

    def test_noiseless_full_observation_pins_state(self, pair_spec):
        p = SIRSParams(0.3, 1.0, 0.5, 0.3)
        obs = _obs(pair_spec, 1.0, [1.0], [[2, 1]], p_mask=0.0, delta=0.0)
        grid = make_grid(1.0, 0.25)
        p0 = np.full(9, 1 / 9)
        with pytest.warns(UserWarning):
            marg, _ = orc.exact_posterior_marginals(sirs_model(), pair_spec, p,
                                                    p0, obs, grid)
        target = orc.state_index(pair_spec, [2, 1])
        assert marg[-1][target] == pytest.approx(1.0)

    def test_noiseless_interior_snapshot_pins_state(self, pair_spec):
        # with gamma 0 no node leaves I or R, so every state but (S, S)
        # has a zero look-ahead before and after the snapshot at 0.5 as
        # well as a zero potential there
        p = SIRSParams(0.3, 1.0, 0.5, 0.0)
        obs = _obs(pair_spec, 1.0, [0.5, 1.0], [[0, 0], [0, 0]], p_mask=0.0,
                   delta=0.0)
        grid = make_grid(1.0, 0.25, obs.times)
        with pytest.warns(UserWarning):
            marg, _ = orc.exact_posterior_marginals(sirs_model(), pair_spec, p,
                                                    np.full(9, 1 / 9), obs, grid)
        target = orc.state_index(pair_spec, [0, 0])
        assert marg[2][target] == 1.0
        assert marg[-1][target] == 1.0

    def test_matches_independent_forward_backward(self, pair_spec):
        # brute-force lattice with scipy expm, no uniformization, no logs
        p = SIRSParams(0.3, 1.0, 0.5, 0.3)
        model = sirs_model()
        obs = _obs(pair_spec, 2.0, [0.7, 1.4], [[1, 3], [3, 2]])
        grid = make_grid(2.0, 0.1, obs.times)
        p0 = np.full(9, 1 / 9)
        marg, _ = orc.exact_posterior_marginals(model, pair_spec, p, p0, obs, grid)

        gen = orc.build_dense_generator(model, pair_spec, p)
        pots = {float(t): np.exp(v) for t, v in orc.potential_vectors(pair_spec, obs)}
        M = len(grid) - 1
        alphas = [p0.copy()]
        for j in range(1, M + 1):
            a = expm(gen.Q * (grid[j] - grid[j - 1])).T @ alphas[-1]
            if float(grid[j]) in pots:
                a = a * pots[float(grid[j])]
            alphas.append(a)
        betas = [None] * (M + 1)
        betas[M] = np.ones(9)
        for j in range(M - 1, -1, -1):
            b = betas[j + 1]
            if float(grid[j + 1]) in pots:
                b = b * pots[float(grid[j + 1])]
            betas[j] = expm(gen.Q * (grid[j + 1] - grid[j])) @ b
        for j in range(M + 1):
            ref = alphas[j] * betas[j]
            ref = ref / ref.sum()
            assert np.abs(marg[j] - ref).max() < 1e-8

    def test_impossible_observations_error(self, pair_spec):
        p = SIRSParams(0.0, 0.0, 0.4, 0.0)  # S nodes can never infect
        obs = _obs(pair_spec, 1.0, [0.5], [[1, 1]], p_mask=0.0, delta=0.0)
        grid = make_grid(1.0, 0.25, obs.times)
        p0 = np.zeros(9)
        p0[orc.state_index(pair_spec, [0, 0])] = 1.0
        from ipsmc.errors import InconsistentObservationsError

        with pytest.raises(InconsistentObservationsError):
            with pytest.warns(UserWarning):
                orc.exact_posterior_marginals(sirs_model(), pair_spec, p, p0,
                                              obs, grid)


class TestScaledPasses:
    """The linear-space passes, with their cached propagators, against an
    independent forward-backward pass with SciPy's expm."""

    def test_matches_expm_forward_backward(self, pair_spec):
        # noiseless snapshots give potentials with zero entries, and p0
        # leaves four states without mass
        p = SIRSParams(0.3, 1.0, 0.5, 0.3)
        model = sirs_model()
        obs = _obs(pair_spec, 2.0, [0.7, 1.4], [[1, 3], [3, 2]], delta=0.0)
        grid = make_grid(2.0, 0.05, obs.times)
        p0 = np.array([0.3, 0.0, 0.1, 0.2, 0.0, 0.0, 0.25, 0.15, 0.0])
        pots = {float(t): np.exp(v) for t, v in orc.potential_vectors(pair_spec, obs)}
        assert all(np.any(g == 0.0) for g in pots.values())
        dense = propagator_lengths(grid, 9)
        assert 0 < sum(dt in dense for dt in np.diff(grid)) < len(grid) - 1
        with pytest.warns(UserWarning, match="non-positive potential"):
            marg, log_z = orc.exact_posterior_marginals(model, pair_spec, p, p0,
                                                        obs, grid)

        Q = orc.build_dense_generator(model, pair_spec, p).Q
        M = len(grid) - 1
        alphas = [p0]
        for j in range(1, M + 1):
            a = expm(Q * (grid[j] - grid[j - 1])).T @ alphas[-1]
            alphas.append(a * pots.get(float(grid[j]), 1.0))
        betas = [np.ones(9)]
        for j in range(M - 1, -1, -1):
            b = betas[0] * pots.get(float(grid[j + 1]), 1.0)
            betas.insert(0, expm(Q * (grid[j + 1] - grid[j])) @ b)
        ref = np.array(alphas) * np.array(betas)
        ref /= ref.sum(axis=1, keepdims=True)
        # each step's series leaves out under 1e-12 of Poisson mass, so the
        # marginals may drift from expm by 1e-12 per step: 6.5e-12 over
        # these 40 steps
        assert np.abs(marg - ref).max() < 1e-12 * M
        ref_log_z = math.log(p0 @ betas[0])
        assert abs(log_z - ref_log_z) < 1e-12 * abs(ref_log_z)

    def test_cached_log_h_at_matches_series_bitwise(self, pair_spec):
        # one interval, 50 times in random order, so the cached power terms
        # are both reused and extended; each value has the bits of a fresh
        # series from the scaled left limit
        p = SIRSParams(0.3, 1.0, 0.5, 0.3)
        obs = _obs(pair_spec, 2.0, [1.0], [[1, 3]], delta=0.0)
        grid = make_grid(2.0, 0.4, obs.times)
        with pytest.warns(UserWarning):
            la = orc.exact_lookahead(sirs_model(), pair_spec, p,
                                     orc.potential_vectors(pair_spec, obs), grid)
        lam, M = la.gen.uniformization()
        j = int(np.flatnonzero(grid == 1.0)[0])
        v = la.log_h_left[j]  # the snapshot's left limit, with -inf entries
        assert np.any(np.isneginf(v))
        c = v[np.isfinite(v)].max()
        ts = grid[j - 1] + (grid[j] - grid[j - 1]) * np.random.default_rng(3).uniform(
            0.01, 0.99, size=50)
        lengths = set()
        for t in ts:
            rho = lam * (grid[j] - t)
            with np.errstate(divide="ignore"):
                ref = np.log(orc._uniformized_sum(M, rho, np.exp(v - c))) + c
            lengths.add(len(orc._poisson_weights(rho)[0]))
            assert np.array_equal(la.log_h_at(t), ref)
        assert len(lengths) > 2


class TestLogMarginalLikelihood:
    def test_no_observations_is_zero(self, pair_spec):
        p = SIRSParams(0.3, 1.0, 0.5, 0.3)
        p0 = np.full(9, 1 / 9)
        val = orc.exact_log_marginal_likelihood(sirs_model(), pair_spec, p, p0,
                                                _empty_obs(pair_spec, 1.0))
        assert val == pytest.approx(0.0, abs=1e-12)

    def test_unit_potentials_give_zero(self, pair_spec):
        p = SIRSParams(0.3, 1.0, 0.5, 0.3)
        obs = _obs(pair_spec, 1.0, [0.5], [[3, 3]], p_mask=1.0)
        p0 = np.full(9, 1 / 9)
        val = orc.exact_log_marginal_likelihood(sirs_model(), pair_spec, p, p0, obs)
        assert val == pytest.approx(0.0, abs=1e-12)

    def test_posterior_normalizer_is_log_z(self, pair_spec):
        p = SIRSParams(0.3, 1.0, 0.5, 0.3)
        obs = _obs(pair_spec, 2.0, [0.7, 1.4], [[1, 3], [3, 2]])
        grid = make_grid(2.0, 0.1, obs.times)
        p0 = np.full(9, 1 / 9)
        _, log_z = orc.exact_posterior_marginals(sirs_model(), pair_spec, p, p0,
                                                 obs, grid)
        assert log_z == orc.exact_log_marginal_likelihood(
            sirs_model(), pair_spec, p, p0, obs, grid)

    def test_grid_refinement_invariance(self, pair_spec):
        p = SIRSParams(0.3, 1.0, 0.5, 0.3)
        obs = _obs(pair_spec, 2.0, [0.9], [[1, 2]])
        p0 = np.full(9, 1 / 9)
        vals = []
        for dt in (0.2, 0.05, 0.01):
            grid = make_grid(2.0, dt, obs.times)
            vals.append(orc.exact_log_marginal_likelihood(
                sirs_model(), pair_spec, p, p0, obs, grid))
        assert abs(vals[0] - vals[1]) < 1e-9
        assert abs(vals[1] - vals[2]) < 1e-9

    @pytest.mark.slow
    def test_against_naive_monte_carlo(self):
        # importance estimate with prior simulation, no dense machinery
        spec = chain_spec(2, V=2)
        model = make_flip_model(0.7, 0.5, coupling=0.3)
        obs = ObservationSequence(horizon=1.0, times=np.array([0.6]),
                                  values=np.array([[1, 2]]), V=2,
                                  p_mask=0.4, label_noise=0.05)
        p0_vec = np.full(4, 0.25)
        exact = orc.exact_log_marginal_likelihood(model, spec, None, p0_vec, obs)
        from ipsmc.twisting import emission_log_potential

        rng = np.random.default_rng(9)
        table = orc.state_table(spec)
        n = 100_000
        z0 = table[rng.integers(4, size=n)]
        weights = np.empty(n)
        for r in range(n):
            path = gillespie_simulate(model, spec, None, z0[r], 1.0, rng)
            weights[r] = math.exp(emission_log_potential(obs, 0, path.state_at(0.6)))
        mean = weights.mean()
        se = weights.std(ddof=1) / math.sqrt(n)
        assert abs(math.exp(exact) - mean) < 3 * se


class TestPosteriorSampling:
    def test_skeleton_marginals_match_exact(self, pair_spec):
        p = SIRSParams(0.3, 1.0, 0.5, 0.3)
        model = sirs_model()
        obs = _obs(pair_spec, 1.5, [0.8], [[1, 3]])
        grid = make_grid(1.5, 0.25, obs.times)
        p0 = np.full(9, 1 / 9)
        marg, _ = orc.exact_posterior_marginals(model, pair_spec, p, p0, obs, grid)
        rng = np.random.default_rng(4)
        n = 20_000
        sk = orc.sample_posterior_skeleton(model, pair_spec, p, p0, obs, grid,
                                           n, rng)
        for j in (0, len(grid) // 2, len(grid) - 1):
            emp = np.bincount(sk[:, j], minlength=9) / n
            band = 3 * np.sqrt(marg[j] * (1 - marg[j]) / n) + 1e-3
            assert np.all(np.abs(emp - marg[j]) <= band)

    @pytest.mark.slow
    def test_doob_twisted_gillespie_matches_posterior(self, pair_spec):
        # conditioned-process rates reproduce the smoothing marginals
        p = SIRSParams(0.3, 1.0, 0.5, 0.3)
        model = sirs_model()
        obs = _obs(pair_spec, 1.5, [0.8], [[1, 3]], p_mask=0.5, delta=0.02)
        grid = make_grid(1.5, 0.05, obs.times)
        pots = orc.potential_vectors(pair_spec, obs)
        la = orc.exact_lookahead(model, pair_spec, p, pots, grid)
        p0 = np.zeros(9)
        p0[orc.state_index(pair_spec, [1, 0])] = 1.0
        marg, _ = orc.exact_posterior_marginals(model, pair_spec, p, p0, obs, grid)
        twisted = la.twisted_model(model, p)
        rng = np.random.default_rng(21)
        n = 4000
        check = [len(grid) // 3, 2 * len(grid) // 3, len(grid) - 1]
        counts = np.zeros((len(check), 9))
        for _ in range(n):
            path = gillespie_simulate(twisted, pair_spec, p, np.array([1, 0]),
                                      1.5, rng)
            for c, j in enumerate(check):
                counts[c, orc.state_index(pair_spec, path.state_at(grid[j]))] += 1
        for c, j in enumerate(check):
            emp = counts[c] / n
            band = 3 * np.sqrt(marg[j] * (1 - marg[j]) / n) + 2e-3
            assert np.all(np.abs(emp - marg[j]) <= band)


def _imports(module):
    """Each import statement of a module's source, at module level or
    inside a function, with the dotted names it reaches: the module and
    each module.name."""
    tree = ast.parse(Path(module.__file__).read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            base = resolve_name("." * node.level + (node.module or ""), "ipsmc")
            yield node, [base] + [f"{base}.{a.name}" for a in node.names]
        elif isinstance(node, ast.Import):
            yield node, [a.name for a in node.names]


@pytest.mark.parametrize("module", [smc, twisting])
def test_dense_state_space_stays_in_the_oracle(module):
    # the sampler and the twist interface import nothing from the oracle
    for node, names in _imports(module):
        assert "ipsmc.oracle" not in names, ast.unparse(node)


@pytest.mark.parametrize("module, banned", [
    (wakesleep, ["ipsmc.ips.SIRSParams", "ipsmc.ips.sirs_model"]),
    (cli, ["ipsmc.ips.sirs_model"])])
def test_model_stays_out_of_the_generic_layers(module, banned):
    # the learner takes theta's shape from its dataclass and the commands
    # take the rate model from the dataset: neither imports sirs_model, and
    # the learner does not import SIRSParams either
    for node, names in _imports(module):
        assert not set(banned) & set(names), ast.unparse(node)


def test_nodewise_marginals_collapse(pair_spec):
    joint = np.zeros(9)
    joint[orc.state_index(pair_spec, [2, 1])] = 0.75
    joint[orc.state_index(pair_spec, [0, 1])] = 0.25
    node = orc.nodewise_marginals(pair_spec, joint)
    assert node[0, 2] == pytest.approx(0.75)
    assert node[0, 0] == pytest.approx(0.25)
    assert node[1, 1] == pytest.approx(1.0)
