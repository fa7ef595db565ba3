import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from hyperobs import (
    DirectedHypergraph,
    Hyperedge,
    NetworkSystem,
    ObserverDesign,
    SimConfig,
    TrajectoryEnsembleSpec,
    bistable_field,
    identity_output,
    linear_coupling,
    linear_output,
    lorenz_field,
    make_ensemble,
    monte_carlo,
    settling_time,
    simulate_network,
    tanh_coupling,
)
from hyperobs import sim
from conftest import (
    bit_pattern,
    integrate,
    random_hypergraph,
    random_system,
    reference_correction_operator,
    reference_monte_carlo,
    vector_field_from_callable,
)


def own_runs(cfg, n_runs, shape):
    """Each run's x(0), xhat(0) and generator, drawn as ``monte_carlo`` draws
    them without a parameter spread: the generator is left where its noise
    begins."""
    for seed in np.random.SeedSequence(cfg.seed).spawn(n_runs):
        rng = np.random.default_rng(seed)
        x0 = rng.uniform(*cfg.x0_box, shape)
        w = cfg.observer_init_width
        yield x0, x0 * (1.0 + rng.uniform(-w, w, shape)), rng


def lorenz_pair_system(sigma=5.0):
    h = DirectedHypergraph(2, (Hyperedge.uniform((0,), (1,), sigma),))
    return NetworkSystem(h, lorenz_field(), tanh_coupling(0.2, 0.05, 2), identity_output(3))


def square_system():
    """x' = x^2 on two nodes, 0 -> 1: runs from large starts blow up."""
    field = vector_field_from_callable(
        lambda x, mu: x**2, 1, np.zeros(1), jac_x=lambda x, mu: (2 * x)[..., None]
    )
    h = DirectedHypergraph(2, (Hyperedge.uniform((0,), (1,), 0.5),))
    return NetworkSystem(h, field, linear_coupling(1.0), identity_output(1))


class TestSettlingTime:
    def test_exponential_decay_hits_log20(self):
        t = np.arange(0, 4, 1e-3)
        ts = settling_time(t, np.exp(-t), fraction=0.05)
        assert abs(ts - np.log(20.0)) <= 1e-3

    def test_constant_series_never_settles(self):
        t = np.arange(0, 1, 0.01)
        assert settling_time(t, np.ones_like(t)) is None

    def test_zero_initial_error_settles_immediately(self):
        t = np.arange(0, 1, 0.01)
        assert settling_time(t, np.zeros_like(t)) == 0.0

    def test_requires_holding_the_bound(self):
        # dips below the threshold then bounces back: settling counts from the
        # last exceedance, not the first crossing
        t = np.linspace(0, 1, 101)
        series = np.full_like(t, 0.01)
        series[0] = 1.0
        series[60] = 0.2
        ts = settling_time(t, series)
        assert ts == pytest.approx(t[61])

    def test_nan_tail_counts_as_exceedance(self):
        t = np.linspace(0, 1, 11)
        series = np.array([1.0, 0.01, 0.01, np.nan, np.nan, 0.01, 0.01, 0.01, 0.01, 0.01, 0.01])
        assert settling_time(t, series) == pytest.approx(t[5])


class TestIntegrate:
    def test_zero_error_stays_zero(self):
        sys = lorenz_pair_system()
        design = ObserverDesign(frozenset({0}), {(0, 0): 3.0 * np.eye(3)})
        cfg = SimConfig(dt=1e-3, horizon=10.0)
        rng = np.random.default_rng(1)
        x0 = rng.uniform(-3, 3, (2, 3))
        res = integrate(sys, design, cfg, x0, x0.copy())
        assert not res.flagged
        assert np.max(res.error_norm) <= 1e-9
        assert res.settling_time == 0.0

    def test_error_norm_is_stacked_node_norms(self):
        sys = lorenz_pair_system()
        cfg = SimConfig(dt=1e-3, horizon=0.2)
        rng = np.random.default_rng(2)
        res = integrate(sys, ObserverDesign(), cfg, rng.uniform(-1, 1, (2, 3)),
                        rng.uniform(-1, 1, (2, 3)))
        np.testing.assert_allclose(
            res.error_norm, np.sqrt((res.per_node_error**2).sum(axis=1)), atol=0
        )

    def test_measured_scalar_node_decays_at_designed_rate(self):
        def f(x, mu):
            return 2.0 * x

        field = vector_field_from_callable(
            f, 1, np.zeros(1), jac_x=lambda x, mu: np.full(x.shape[:-1] + (1, 1), 2.0)
        )
        sys = NetworkSystem(DirectedHypergraph(1), field, linear_coupling(1.0),
                            identity_output(1))
        L = 5.0
        design = ObserverDesign(frozenset({0}), {(0, 0): [[L]]})
        cfg = SimConfig(dt=1e-3, horizon=1.5)
        res = integrate(sys, design, cfg, [[0.3]], [[1.3]])
        predict = np.abs(1.0) * np.exp((2.0 - L) * res.times)
        mask = predict > 1e-8
        assert np.max(np.abs(res.error_norm[mask] - predict[mask]) / predict[mask]) < 0.05

    def test_exact_reconstruction_pins_measured_nodes(self):
        sys = lorenz_pair_system()
        design = ObserverDesign(frozenset({0}), {}, exact_nodes=frozenset({0}))
        cfg = SimConfig(dt=1e-3, horizon=0.3)
        rng = np.random.default_rng(3)
        res = integrate(sys, design, cfg, rng.uniform(-2, 2, (2, 3)),
                        rng.uniform(-2, 2, (2, 3)))
        assert np.max(res.per_node_error[:, 0]) <= 1e-12
        assert np.max(res.per_node_error[:, 1]) > 0.01

    def test_exact_reconstruction_with_noise_stays_noise_sized(self):
        sys = lorenz_pair_system()
        design = ObserverDesign(frozenset({0}), {}, exact_nodes=frozenset({0}))
        cfg = SimConfig(dt=1e-3, horizon=0.2, noise_amplitude=0.1, seed=5)
        rng = np.random.default_rng(4)
        x0 = rng.uniform(-2, 2, (2, 3))
        res = integrate(sys, design, cfg, x0, x0.copy())
        noise_norms = res.per_node_error[:, 0]
        assert 0 < np.max(noise_norms) <= 0.1 * np.sqrt(3) + 1e-12

    def test_divergence_is_flagged_not_raised(self):
        def f(x, mu):
            return x**2

        field = vector_field_from_callable(
            f, 1, np.zeros(1), jac_x=lambda x, mu: (2 * x)[..., None]
        )
        sys = NetworkSystem(DirectedHypergraph(1), field, linear_coupling(1.0),
                            identity_output(1))
        cfg = SimConfig(dt=1e-3, horizon=1.0)
        res = integrate(sys, ObserverDesign(), cfg, [[2.0]], [[2.5]])
        assert res.flagged
        assert res.settling_time is None
        assert np.isnan(res.error_norm[-1])


class TestRk4Order:
    def test_halving_dt_cuts_error_sixteen_fold(self):
        sys = lorenz_pair_system(sigma=3.0)
        design = ObserverDesign(frozenset({0}), {(0, 0): 4.0 * np.eye(3)})
        rng = np.random.default_rng(6)
        x0 = rng.uniform(-3, 3, (2, 3))
        xh0 = x0 * (1 + rng.uniform(-0.2, 0.2, (2, 3)))

        def final_state(dt):
            cfg = SimConfig(dt=dt, horizon=0.4)
            res = integrate(sys, design, cfg, x0, xh0)
            return res.per_node_error[-1], res.error_norm[-1]

        # reference at dt/16
        base = 4e-3
        _, e_ref = final_state(base / 16)
        errs = {}
        for dt in (base, base / 2):
            pn, en = final_state(dt)
            errs[dt] = abs(en - e_ref)
        ratio = errs[base] / errs[base / 2]
        assert 12.0 <= ratio <= 20.0

    def test_a_field_that_returns_its_argument(self):
        # x' = x on an edgeless network, the field returning the very array
        # it is given: the step forms its stages in arrays of its own, so
        # the states are the out-of-place formula's
        field = vector_field_from_callable(lambda x, mu: x, 1, np.zeros(1))
        sys = NetworkSystem(DirectedHypergraph(2), field, linear_coupling(1.0),
                            identity_output(1))
        x0, dt = np.array([[[1.0], [-2.0]]]), 0.1
        y, expect = x0[0], [x0[0]]
        for _ in range(3):
            k1 = y
            k2 = y + 0.5 * dt * k1
            k3 = y + 0.5 * dt * k2
            k4 = y + dt * k3
            y = y + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
            expect.append(y)
        np.testing.assert_array_equal(simulate_network(sys, x0, dt, 3)[0], expect)


def with_signed_zeros(rng, a, prob):
    """``a`` with each entry replaced by -0.0 or +0.0 with probability ``prob``."""
    zero = rng.random(a.shape) < prob
    return np.where(zero, np.where(rng.random(a.shape) < 0.5, -0.0, 0.0), a)


class TestCorrectionOperator:
    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from([(2, 2), (3, 2), (3, 3), (4, 2), (4, 3)]),
        st.integers(1, 7),
        st.integers(1, 5),
    )
    @example(0, (3, 2), 5, 3)
    def test_matches_block_sparse_reference(self, seed, dims, N, runs):
        # several gain blocks per node, nodes without gains, and signed
        # zeros in the gains and the innovations: the products must match
        # scipy's block-sparse operator bit for bit
        rng = np.random.default_rng(seed)
        n, p = dims
        field = vector_field_from_callable(lambda x, mu: np.zeros_like(x), n, np.zeros(1))
        sys_ = NetworkSystem(DirectedHypergraph(N), field, linear_coupling(1.0),
                             linear_output(rng.normal(size=(p, n))))
        measured = sorted(rng.choice(N, int(rng.integers(1, N + 1)), replace=False).tolist())
        gained = rng.random(N) < 0.7
        gains = {(i, j): with_signed_zeros(rng, rng.normal(size=(n, p)), 0.2)
                 for i in range(N) for j in measured if gained[i] and rng.random() < 0.6}
        design = ObserverDesign(frozenset(measured), gains)
        got_measured, op = sim._correction_operator(sys_, design)
        ref = reference_correction_operator(sys_, design)
        assert got_measured == measured
        if ref is None:
            assert op is None
            return
        x = with_signed_zeros(rng, rng.normal(size=(len(measured) * p, runs)), 0.3)
        for arg in (x, x.T.copy().T):  # C- and Fortran-ordered innovations
            got, want = op @ arg, ref @ arg
            assert got.shape == want.shape
            np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


class TestMonteCarlo:
    def test_single_run_percentiles_coincide(self):
        sys = lorenz_pair_system()
        design = ObserverDesign(frozenset({0}), {(0, 0): 3.0 * np.eye(3)})
        cfg = SimConfig(dt=1e-3, horizon=0.2, seed=11)
        stats = monte_carlo(sys, design, cfg, n_runs=1)
        np.testing.assert_array_equal(stats.median, stats.p25)
        np.testing.assert_array_equal(stats.median, stats.p75)

    def test_percentile_monotonicity(self):
        sys = lorenz_pair_system()
        design = ObserverDesign(frozenset({0}), {(0, 0): 3.0 * np.eye(3)})
        cfg = SimConfig(dt=1e-3, horizon=0.2, seed=12, noise_amplitude=0.05)
        stats = monte_carlo(sys, design, cfg, n_runs=12)
        assert np.all(stats.p25 <= stats.median + 1e-15)
        assert np.all(stats.median <= stats.p75 + 1e-15)

    def test_deterministic_given_master_seed(self):
        sys = lorenz_pair_system()
        design = ObserverDesign(frozenset({0}), {(0, 0): 3.0 * np.eye(3)})
        cfg = SimConfig(dt=1e-3, horizon=0.1, seed=13, noise_amplitude=0.1,
                        param_rel_spread=0.02)
        s1 = monte_carlo(sys, design, cfg, n_runs=5)
        s2 = monte_carlo(sys, design, cfg, n_runs=5)
        np.testing.assert_array_equal(s1.error_norms, s2.error_norms)
        assert s1.settling_times == s2.settling_times

    def test_each_run_equals_integrate_with_its_own_generator(self):
        sys = lorenz_pair_system()
        design = ObserverDesign(frozenset({0}), {(0, 0): 3.0 * np.eye(3)})
        cfg = SimConfig(dt=1e-3, horizon=0.1, seed=14, noise_amplitude=0.05)
        stats = monte_carlo(sys, design, cfg, n_runs=6)
        for r, (x0, xh0, rng) in enumerate(own_runs(cfg, 6, (2, 3))):
            res = integrate(sys, design, cfg, x0, xh0, rng)
            np.testing.assert_array_equal(stats.error_norms[r], res.error_norm)

    def test_each_run_equals_integrate_with_a_mixing_output(self):
        # a full output matrix, gains and an exactly reconstructed node: each
        # run's outputs pass through BLAS matmuls, and its norms must not
        # depend on how many runs share the ensemble
        gamma = [[3.0, 0.4, -0.2], [0.5, 2.0, 0.3], [-0.1, 0.6, 2.5]]
        base = lorenz_pair_system()
        sys = NetworkSystem(base.hypergraph, base.field, base.coupling, linear_output(gamma))
        design = ObserverDesign(
            frozenset({0, 1}),
            {(1, 0): np.full((3, 3), 0.07), (1, 1): np.eye(3)},
            exact_nodes=frozenset({0}),
        )
        cfg = SimConfig(dt=1e-3, horizon=0.1, seed=21, noise_amplitude=0.05)
        stats = monte_carlo(sys, design, cfg, n_runs=7)
        for r, (x0, xh0, rng) in enumerate(own_runs(cfg, 7, (2, 3))):
            res = integrate(sys, design, cfg, x0, xh0, rng)
            np.testing.assert_array_equal(stats.error_norms[r], res.error_norm)

    @given(st.integers(0, 2**32 - 1), st.integers(1, 25), st.booleans())
    def test_each_runs_rows_do_not_depend_on_the_run_count(self, seed, runs, all_exact):
        # a random mixing output: with gains and one exact node the state
        # holds plant and observer (S = 2), with every node exact the plant
        # alone (S = 1).  The output map's products must give each run the
        # same bits whether 1 or 25 runs share the ensemble; a single 2-D
        # product over every run's rows does not (a row's BLAS bits depend
        # on the row count)
        rng = np.random.default_rng(seed)
        base = lorenz_pair_system()
        gamma = rng.normal(size=(3, 3)) + 3.0 * np.eye(3)
        sys = NetworkSystem(base.hypergraph, base.field, base.coupling, linear_output(gamma))
        if all_exact:
            design = ObserverDesign(frozenset({0, 1}), {}, exact_nodes=frozenset({0, 1}))
        else:
            design = ObserverDesign(frozenset({0, 1}), {(1, 0): rng.normal(0, 0.1, (3, 3)),
                                                        (1, 1): np.eye(3)},
                                    exact_nodes=frozenset({0}))
        cfg = SimConfig(dt=1e-3, horizon=0.02, seed=int(rng.integers(2**31)),
                        noise_amplitude=0.05)
        most = monte_carlo(sys, design, cfg, n_runs=25).error_norms
        got = monte_carlo(sys, design, cfg, n_runs=runs).error_norms
        assert bit_pattern(got) == bit_pattern(most[:runs])

    def test_noisy_error_norms_pinned(self):
        # computed with each run's noise drawn as one (G+1, m, p) block; drawing
        # it step by step from the same PCG64 generator gives the same numbers
        sys = lorenz_pair_system()
        design = ObserverDesign(frozenset({0}), {(0, 0): 3.0 * np.eye(3)})
        cfg = SimConfig(dt=1e-3, horizon=0.2, seed=16, noise_amplitude=0.05,
                        param_rel_spread=0.02)
        stats = monte_carlo(sys, design, cfg, n_runs=3)
        pinned = {
            1: [0.36340809292928666, 0.6903789932096775, 0.8113855874545702],
            100: [0.910414204498342, 1.7488999564844716, 0.8264383181558861],
            200: [2.1551648446982865, 4.585170106278436, 1.8041735889029056],
        }
        for k, values in pinned.items():
            np.testing.assert_allclose(stats.error_norms[:, k], values, rtol=1e-12)

    @pytest.mark.parametrize("exact, gains, pinned", [
        # every node reconstructed: only the plant is stepped
        ({0, 1}, {}, {
            0: [0.08669322688030467, 0.07153197013484895, 0.05961826602549255],
            1: [0.044458077690467036, 0.06828293993513564, 0.0732700306928366],
            100: [0.07121052238078722, 0.08105961449120722, 0.08566308199950605],
            200: [0.0575771653745244, 0.06297867348325821, 0.04905598708800586],
        }),
        # node 1 corrected by a gain: the observer is stepped
        ({0}, {(1, 1): 2.0 * np.eye(3)}, {
            0: [0.1533531707933546, 0.31938072357984576, 0.7316057533423113],
            1: [0.1458182301394158, 0.32543705170176085, 0.710303133246147],
            100: [0.1369724979559373, 0.8579153187571616, 0.482340499010497],
            200: [0.33778720229131115, 2.0290489799593345, 0.9849294385316528],
        }),
    ], ids=["all-exact", "one-not-exact"])
    def test_exact_error_norms_pinned(self, exact, gains, pinned):
        # computed with the observer of every node stepped, and the observer
        # of each exact node overwritten at each grid point
        sys = lorenz_pair_system()
        design = ObserverDesign(frozenset({0, 1}), gains, exact_nodes=frozenset(exact))
        cfg = SimConfig(dt=1e-3, horizon=0.2, seed=16, noise_amplitude=0.05,
                        param_rel_spread=0.02)
        stats = monte_carlo(sys, design, cfg, n_runs=3)
        for k, values in pinned.items():
            np.testing.assert_allclose(stats.error_norms[:, k], values, rtol=1e-12)

    def test_all_exact_equals_plant_simulation_and_reconstruction(self):
        # each run's error norms are those of its own plant trajectory, from
        # simulate_network with the run's parameters, against its
        # reconstruction Gamma^-1 (Gamma x + nu) under the run's noise
        gamma = np.array([[3.0, 0.4, -0.2], [0.5, 2.0, 0.3], [-0.1, 0.6, 2.5]])
        base = lorenz_pair_system()
        sys = NetworkSystem(base.hypergraph, base.field, base.coupling, linear_output(gamma))
        design = ObserverDesign(frozenset({0, 1}), {}, exact_nodes=frozenset({0, 1}))
        cfg = SimConfig(dt=1e-3, horizon=0.1, seed=22, noise_amplitude=0.05,
                        param_rel_spread=0.02)
        stats = monte_carlo(sys, design, cfg, n_runs=4)
        G, s, a = cfg.num_steps, cfg.param_rel_spread, cfg.noise_amplitude
        for r, (x0, _, rng) in enumerate(own_runs(cfg, 4, (2, 3))):
            params = sys.per_node_params * (1.0 + rng.uniform(-s, s, (2, 3)))
            own = NetworkSystem(sys.hypergraph, sys.field, sys.coupling, sys.output, params)
            x = simulate_network(own, x0[None], cfg.dt, G)[0]
            xhat = (x @ gamma.T + rng.uniform(-a, a, (G + 1, 2, 3))) @ sys.output.inverse.T
            expect = np.linalg.norm(np.linalg.norm(x - xhat, axis=-1), axis=-1)
            np.testing.assert_array_equal(stats.error_norms[r], expect)

    @pytest.mark.parametrize("exact, reads_xhat0", [({0, 1}, False), ({0}, True)],
                             ids=["all-exact", "one-not-exact"])
    def test_xhat0_read_only_with_an_observer_to_step(self, exact, reads_xhat0):
        # with every node reconstructed only the plant is stepped, S = 1, and
        # a NaN xhat(0) changes no error norm; with node 1 not exact the
        # observer is stepped from it
        sys = lorenz_pair_system()
        design = ObserverDesign(frozenset({0, 1}), {}, exact_nodes=frozenset(exact))
        cfg = SimConfig(dt=1e-3, horizon=0.02, seed=24, noise_amplitude=0.05)
        runs = list(own_runs(cfg, 3, (2, 3)))
        x0, xh0 = np.stack([x for x, _, _ in runs]), np.stack([x for _, x, _ in runs])
        params = np.tile(sys.per_node_params, (3, 1, 1))

        def norms(xhat0):
            rngs = [np.random.default_rng(s) for s in (1, 2, 3)]
            steps = sim._cosimulate(sys, design, cfg, x0, xhat0, params, rngs)
            return np.concatenate([err for err, _ in steps])

        same = np.array_equal(norms(xh0), norms(np.full_like(xh0, np.nan)), equal_nan=True)
        assert same != reads_xhat0

    def test_all_exact_divergence_flagged_at_the_pinned_step(self):
        # x' = x^2 with both nodes reconstructed: only the plant is stepped
        # and checked, and runs 1 and 4 are flagged at the grid steps found
        # with the observer stepped and checked alongside
        sys = square_system()
        design = ObserverDesign(frozenset({0, 1}), {}, exact_nodes=frozenset({0, 1}))
        cfg = SimConfig(dt=1e-3, horizon=1.0, seed=49, noise_amplitude=0.01,
                        x0_box=(-1.0, 1.5))
        stats = monte_carlo(sys, design, cfg, n_runs=6)
        assert stats.flagged_runs == [(1, 828), (4, 946)]
        for r, k in stats.flagged_runs:
            assert np.isnan(stats.error_norms[r, k:]).all()
            assert np.isfinite(stats.error_norms[r, :k]).all()
        np.testing.assert_allclose(
            stats.error_norms[:, 827],
            [0.006631009792396592, 0.005310399502869086, 0.009952046005334527,
             0.0048085299443999625, 0.008472934990586059, 0.008961694413197545],
            rtol=1e-12,
        )

    def test_memory_stays_below_one_per_node_history(self):
        N, R, G = 200, 4, 2000
        edges = tuple(Hyperedge.uniform((i,), ((i + 1) % N,), 0.5) for i in range(N))
        sys = NetworkSystem(DirectedHypergraph(N, edges), bistable_field(),
                            linear_coupling(1.0), identity_output(1))
        design = ObserverDesign(frozenset(range(N)),
                                {(i, i): [[2.0]] for i in range(N)})
        cfg = SimConfig(dt=1e-3, horizon=G * 1e-3, seed=17, noise_amplitude=0.01)
        tracemalloc.start()
        try:
            stats = monte_carlo(sys, design, cfg, n_runs=R)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert stats.error_norms.shape == (R, G + 1)
        # the size of one (R, G+1, N) float array
        assert peak < R * (G + 1) * N * 8

    def test_error_norms_pinned_with_two_gain_columns_on_one_node(self):
        # node 1 takes gains from measured nodes 0 and 1; computed with the
        # dense (N n) x (m p) correction matrix
        sys = lorenz_pair_system()
        design = ObserverDesign(frozenset({0, 1}), {
            (0, 0): 3.0 * np.eye(3),
            (1, 0): [[0.5, 0.2, 0.0], [0.0, 0.4, 0.1], [0.3, 0.0, 0.2]],
            (1, 1): [[2.0, 0.1, 0.0], [0.1, 2.5, 0.0], [0.0, 0.2, 3.0]],
        })
        cfg = SimConfig(dt=1e-3, horizon=0.2, seed=18, noise_amplitude=0.05)
        stats = monte_carlo(sys, design, cfg, n_runs=3)
        pinned = {
            1: [0.4320308987069774, 0.46644224687197494, 0.6872503637599742],
            100: [0.772537662645332, 0.3222838935870272, 0.9639417045879809],
            200: [1.9030563649287053, 0.47860884558276773, 2.1596998226290562],
        }
        for k, values in pinned.items():
            np.testing.assert_allclose(stats.error_norms[:, k], values, rtol=1e-12)

    def test_correction_memory_does_not_grow_with_measured_squared(self):
        N, R, G = 2000, 2, 5
        edges = tuple(Hyperedge.uniform((i,), ((i + 1) % N,), 0.5) for i in range(N))
        sys = NetworkSystem(DirectedHypergraph(N, edges), bistable_field(),
                            linear_coupling(1.0), identity_output(1))
        design = ObserverDesign(frozenset(range(N)),
                                {(i, i): [[2.0]] for i in range(N)})
        cfg = SimConfig(dt=1e-3, horizon=G * 1e-3, seed=19, noise_amplitude=0.01)
        tracemalloc.start()
        try:
            stats = monte_carlo(sys, design, cfg, n_runs=R)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert stats.error_norms.shape == (R, G + 1)
        # a dense N x N correction matrix alone would be 32 MB
        assert peak < 4e6

    def test_noise_chunks_do_not_change_the_draws(self, chunk_budget):
        sys = lorenz_pair_system()
        design = ObserverDesign(frozenset({0, 1}), {
            (0, 0): 3.0 * np.eye(3), (1, 1): 2.0 * np.eye(3),
        })
        cfg = SimConfig(dt=1e-3, horizon=0.1, seed=20, noise_amplitude=0.05)
        whole = monte_carlo(sys, design, cfg, n_runs=3)
        # 3 runs x 2 measured nodes x 3 channels: 7 grid points per chunk,
        # so the 101 grid points span 15 chunks, the last one partial
        assert (cfg.num_steps + 1) % 7 != 0
        with chunk_budget(7 * 3 * 2 * 3 * 8):
            chunked = monte_carlo(sys, design, cfg, n_runs=3)
        np.testing.assert_array_equal(chunked.error_norms, whole.error_norms)

    def test_diverged_run_leaves_the_others_untouched(self):
        # x' = x^2 blows up from large starts; at seed 49 only run 1 does
        sys = square_system()
        design = ObserverDesign(frozenset({0}), {(0, 0): [[2.0]]})
        cfg = SimConfig(dt=1e-3, horizon=1.0, seed=49, noise_amplitude=0.01,
                        x0_box=(-1.0, 1.5))
        stats = monte_carlo(sys, design, cfg, n_runs=3)
        assert [r for r, _ in stats.flagged_runs] == [1]
        k = stats.flagged_runs[0][1]
        assert np.isnan(stats.error_norms[1, k:]).all()
        assert np.isfinite(stats.error_norms[1, :k]).all()
        for r, (x0, xh0, rng) in enumerate(own_runs(cfg, 3, (2, 1))):
            if r != 1:
                res = integrate(sys, design, cfg, x0, xh0, rng)
                np.testing.assert_array_equal(stats.error_norms[r], res.error_norm)

    def test_parameter_spread_reaches_plant_only(self):
        sys = lorenz_pair_system()
        design = ObserverDesign(frozenset({0}), {(0, 0): 3.0 * np.eye(3)})
        cfg = SimConfig(dt=1e-3, horizon=0.3, seed=15, param_rel_spread=0.05,
                        observer_init_width=0.0)
        stats = monte_carlo(sys, design, cfg, n_runs=4)
        # identical initial conditions but mismatched parameters: the error
        # must leave zero
        assert np.all(stats.error_norms[:, 0] == 0.0)
        assert np.all(stats.error_norms[:, -1] > 0.0)


def blocked_monte_carlo(chunk_budget, sys, design, cfg, n_runs, points):
    """``monte_carlo`` with a byte budget at which the co-simulation
    buffers ``points`` grid points per block, a sixteenth of the budget for
    the (N, R, n) state difference or, when every node is exact, the plant
    state and the (R, m, p) noise; also returns the block lengths."""
    N, n, p = sys.num_nodes, sys.state_dim, sys.output.output_dim
    all_exact = len(design.exact_nodes) == N
    per_point = 8 * n_runs * (N * n + (len(design.measured) * p if all_exact else 0))
    sizes, real = [], sim._cosimulate

    def recorded(*args):
        for err, flags in real(*args):
            sizes.append(len(err))
            yield err, flags

    with pytest.MonkeyPatch.context() as mp, chunk_budget(16 * per_point * points):
        mp.setattr(sim, "_cosimulate", recorded)
        return monte_carlo(sys, design, cfg, n_runs), sizes


def assert_same_as_reference(stats, reference):
    norms, flagged = reference
    np.testing.assert_array_equal(stats.error_norms.view(np.uint64), norms.view(np.uint64))
    assert stats.flagged_runs == flagged


class TestBlockedObservation:
    @given(st.integers(0, 2**32 - 1), st.sampled_from(["observer", "some_exact", "all_exact"]),
           st.sampled_from([0.0, 0.05]), st.integers(1, 12), st.sampled_from([2, 9]))
    @example(0, "some_exact", 0.05, 1, 9)
    @example(1, "all_exact", 0.05, 1, 2)
    def test_error_norms_equal_the_per_grid_point_reference(self, chunk_budget, seed, route,
                                                            noise, points, min_nodes):
        # random gains, measured and exact nodes, noise and block sizes from
        # one grid point up: the blocked co-simulation's error norms and
        # flags are the per-grid-point loop's bit for bit; from 9 nodes on
        # numpy sums a run's per-node norms pairwise, so its row of them
        # must stay contiguous
        rng = np.random.default_rng(seed)
        h = random_hypergraph(rng, max_nodes=min_nodes + 3, max_edges=3, min_nodes=min_nodes)
        output = "identity" if route != "observer" or rng.random() < 0.5 else "partial"
        sys = random_system(rng, h, output_kind=output)
        N, n, p = sys.num_nodes, sys.state_dim, sys.output.output_dim
        measured = [int(v) for v in np.flatnonzero(rng.random(N) < 0.6)] or [0]
        exact = frozenset()
        if route == "all_exact":
            measured = exact = frozenset(range(N))
        elif route == "some_exact":
            exact = frozenset(measured[: max(1, len(measured) - 1)])
        gains = {(int(i), j): rng.uniform(-2.0, 2.0, (n, p))
                 for i in range(N) for j in measured if rng.random() < 0.5}
        design = ObserverDesign(frozenset(measured), gains, exact)
        cfg = SimConfig(dt=2e-3, horizon=0.04, seed=seed % 1000, noise_amplitude=noise)
        reference = reference_monte_carlo(sys, design, cfg, 3)
        stats, sizes = blocked_monte_carlo(chunk_budget, sys, design, cfg, 3, points)
        assert_same_as_reference(stats, reference)
        assert sum(sizes) == cfg.num_steps + 1 and max(sizes) == min(points, sum(sizes))

    @pytest.mark.parametrize("exact", [frozenset(), frozenset({0}), frozenset({0, 1})],
                             ids=["observer", "some-exact", "all-exact"])
    @pytest.mark.parametrize("place", ["first", "inside", "last", "one_point_blocks"])
    def test_divergence_at_each_place_in_a_block(self, chunk_budget, exact, place):
        # a block ends before the grid point where a run diverges, so the
        # run's last finite norms are taken with it alive; the first run to
        # diverge does so at a block's first grid point, inside a block or
        # at a block's last grid point, or every block holds one grid point
        sys = square_system()
        design = ObserverDesign(frozenset({0, 1}), {(1, 0): [[1.5]], (1, 1): [[2.0]]}, exact)
        cfg = SimConfig(dt=1e-3, horizon=0.5, seed=49, noise_amplitude=0.01,
                        x0_box=(-1.0, 3.0))
        reference = reference_monte_carlo(sys, design, cfg, 6)
        assert len(reference[1]) >= 2
        k = min(step for _, step in reference[1])
        points = {"first": k, "inside": k + 2, "last": k + 1, "one_point_blocks": 1}[place]
        stats, sizes = blocked_monte_carlo(chunk_budget, sys, design, cfg, 6, points)
        assert_same_as_reference(stats, reference)
        # the first block ends by grid point k - 1, the run still alive
        assert sizes[0] == min(k, points) and sum(sizes) == cfg.num_steps + 1


class TestEnsembles:
    def test_shapes_and_determinism(self):
        sys = lorenz_pair_system()
        spec = TrajectoryEnsembleSpec(count=4, horizon=0.1, dt=1e-3, subsample=5,
                                      box=(-3, 3), seed=21)
        ens1 = make_ensemble(sys, spec)
        ens2 = make_ensemble(sys, spec)
        assert ens1.states.shape == (4, 21, 2, 3)
        np.testing.assert_array_equal(ens1.states, ens2.states)
        assert ens1.stacked().shape == (84, 2, 3)

    def test_subsampled_states_are_contiguous(self):
        sys = lorenz_pair_system()
        spec = TrajectoryEnsembleSpec(count=3, horizon=0.05, dt=1e-3, subsample=5,
                                      box=(-3, 3), seed=24)
        ens = make_ensemble(sys, spec)
        # stacking is a view: certification does not copy the ensemble
        assert np.shares_memory(ens.stacked(), ens.states)
        x0 = np.random.default_rng(24).uniform(-3, 3, (3, 2, 3))
        full = simulate_network(sys, x0, 1e-3, spec.num_steps)
        np.testing.assert_array_equal(ens.states, full[:, ::5])

    @pytest.mark.parametrize("steps, stride, burn_in", [(50, 5, 0.0), (53, 5, 0.0),
                                                         (50, 1, 0.0), (40, 5, 0.02)])
    def test_only_the_sampled_states_are_kept(self, steps, stride, burn_in):
        # against integrating every step and slicing, as a full run does
        sys = lorenz_pair_system()
        x0 = np.random.default_rng(25).uniform(-3, 3, (3, 2, 3))
        full = simulate_network(sys, x0, 1e-3, steps)
        got = simulate_network(sys, x0, 1e-3, steps, stride)
        assert got.flags.c_contiguous
        np.testing.assert_array_equal(got, full[:, ::stride])
        spec = TrajectoryEnsembleSpec(count=3, horizon=steps * 1e-3, dt=1e-3,
                                      subsample=stride, seed=25, burn_in=burn_in)
        burned = x0
        if burn_in:
            burned = simulate_network(sys, x0, 1e-3, int(round(burn_in / 1e-3)))[:, -1]
        ens = make_ensemble(sys, spec)
        np.testing.assert_array_equal(
            ens.states, simulate_network(sys, burned, 1e-3, spec.num_steps)[:, ::stride])

    def test_diverging_trajectory_is_refused_by_name_and_time(self):
        # x' = x^2 from x0 reaches the box edge 1e8 at about 1/x0: trajectory
        # 1 (x0 = 4) leaves it near t = 0.25, trajectory 0 (x0 = 1) later
        field = vector_field_from_callable(
            lambda x, mu: x**2, 1, np.zeros(1), jac_x=lambda x, mu: (2 * x)[..., None]
        )
        sys = NetworkSystem(DirectedHypergraph(1), field, linear_coupling(1.0),
                            identity_output(1))
        x0 = np.array([1.0, 4.0]).reshape(2, 1, 1)
        with pytest.raises(sim.EnsembleDiverged, match="trajectory 1 ") as caught:
            simulate_network(sys, x0, 1e-3, 2000, 5)
        t = float(str(caught.value).split("t = ")[1].split()[0])
        assert 0.24 < t < 0.26
        # a run that ends before either leaves the box is not refused
        assert np.isfinite(simulate_network(sys, x0, 1e-3, 200, 5)).all()

    def test_every_trajectory_holds_two_samples(self):
        with pytest.raises(ValueError):
            TrajectoryEnsembleSpec(horizon=0.0004, dt=1e-3)
        with pytest.raises(ValueError):
            TrajectoryEnsembleSpec(horizon=0.004, dt=1e-3, subsample=5)
        spec = TrajectoryEnsembleSpec(count=2, horizon=0.005, dt=1e-3, subsample=5)
        assert make_ensemble(lorenz_pair_system(), spec).states.shape[1] == 2

    def test_burn_in_moves_starts_off_the_box(self):
        sys = lorenz_pair_system()
        base = TrajectoryEnsembleSpec(count=3, horizon=0.05, dt=1e-3, seed=22)
        burned = TrajectoryEnsembleSpec(count=3, horizon=0.05, dt=1e-3, seed=22,
                                        burn_in=1.0)
        e0 = make_ensemble(sys, base)
        e1 = make_ensemble(sys, burned)
        assert not np.allclose(e0.states[:, 0], e1.states[:, 0])

    def test_simulate_network_matches_integrate_plant_side(self):
        sys = lorenz_pair_system()
        rng = np.random.default_rng(23)
        x0 = rng.uniform(-2, 2, (1, 2, 3))
        states = simulate_network(sys, x0, dt=1e-3, steps=100)
        cfg = SimConfig(dt=1e-3, horizon=0.1)
        res = integrate(sys, ObserverDesign(), cfg, x0[0], x0[0].copy())
        # plant trajectory is recoverable from zero-error co-simulation
        assert res.error_norm.max() == 0.0
        assert states.shape == (1, 101, 2, 3)


@given(arrays(np.float64, st.tuples(st.integers(1, 25), st.integers(1, 30)),
              elements=st.floats(0.0, 1e12)))
def test_percentile_equals_nanpercentile_without_nan(norms):
    # monte_carlo takes the vectorised percentile when no run is flagged
    np.testing.assert_array_equal(
        np.percentile(norms, [50, 25, 75], axis=0),
        np.nanpercentile(norms, [50, 25, 75], axis=0),
    )


@given(st.integers(0, 2**32 - 1), st.integers(1, 5), st.sampled_from([1.0, 1e150, 1e200, 1e307]))
def test_error_norms_scale_only_what_overflows(seed, n, scale):
    # np.linalg.norm's bits wherever its sum of squares is finite; a finite
    # row whose sum overflows reads as its scaled norm, not as inf
    rng = np.random.default_rng(seed)
    x = rng.normal(0.0, 1.0, (7, n)) * np.where(rng.random((7, 1)) < 0.5, scale, 1.0)
    x[0] = [np.nan] + [0.0] * (n - 1)
    x[1] = np.inf
    got = sim._norms(x)
    with np.errstate(over="ignore"):
        plain = np.linalg.norm(x, axis=-1)
    kept = np.isfinite(plain) | ~np.isfinite(x).all(axis=-1)
    np.testing.assert_array_equal(got[kept], plain[kept])
    big = ~kept
    assert np.isfinite(got[big]).all()
    np.testing.assert_allclose(got[big] / scale, np.linalg.norm(x[big] / scale, axis=-1),
                               rtol=1e-15)
