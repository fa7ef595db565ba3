import tracemalloc

import numpy as np
import pytest

from hyperobs import (
    DirectedHypergraph,
    GainSet,
    Hyperedge,
    NetworkSystem,
    ObserverDesign,
    SimConfig,
    TrajectoryEnsembleSpec,
    bistable_field,
    identity_output,
    linear_coupling,
    lorenz_field,
    make_ensemble,
    monte_carlo,
    settling_time,
    simulate_network,
    tanh_coupling,
)
from conftest import integrate, vector_field_from_callable


def lorenz_pair_system(sigma=5.0):
    h = DirectedHypergraph(2, (Hyperedge.uniform((0,), (1,), sigma),))
    return NetworkSystem(h, lorenz_field(), tanh_coupling(0.2, 0.05, 2), identity_output(3))


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
        design = ObserverDesign(frozenset({0}), GainSet({(0, 0): 3.0 * np.eye(3)}))
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
        design = ObserverDesign(frozenset({0}), GainSet({(0, 0): [[L]]}))
        cfg = SimConfig(dt=1e-3, horizon=1.5)
        res = integrate(sys, design, cfg, [[0.3]], [[1.3]])
        predict = np.abs(1.0) * np.exp((2.0 - L) * res.times)
        mask = predict > 1e-8
        assert np.max(np.abs(res.error_norm[mask] - predict[mask]) / predict[mask]) < 0.05

    def test_exact_reconstruction_pins_measured_nodes(self):
        sys = lorenz_pair_system()
        design = ObserverDesign(frozenset({0}), GainSet({}), exact_nodes=frozenset({0}))
        cfg = SimConfig(dt=1e-3, horizon=0.3)
        rng = np.random.default_rng(3)
        res = integrate(sys, design, cfg, rng.uniform(-2, 2, (2, 3)),
                        rng.uniform(-2, 2, (2, 3)))
        assert np.max(res.per_node_error[:, 0]) <= 1e-12
        assert np.max(res.per_node_error[:, 1]) > 0.01

    def test_exact_reconstruction_with_noise_stays_noise_sized(self):
        sys = lorenz_pair_system()
        design = ObserverDesign(frozenset({0}), GainSet({}), exact_nodes=frozenset({0}))
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
        design = ObserverDesign(frozenset({0}), GainSet({(0, 0): 4.0 * np.eye(3)}))
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


class TestMonteCarlo:
    def test_single_run_percentiles_coincide(self):
        sys = lorenz_pair_system()
        design = ObserverDesign(frozenset({0}), GainSet({(0, 0): 3.0 * np.eye(3)}))
        cfg = SimConfig(dt=1e-3, horizon=0.2, seed=11)
        stats = monte_carlo(sys, design, cfg, n_runs=1)
        np.testing.assert_array_equal(stats.median, stats.p25)
        np.testing.assert_array_equal(stats.median, stats.p75)

    def test_percentile_monotonicity(self):
        sys = lorenz_pair_system()
        design = ObserverDesign(frozenset({0}), GainSet({(0, 0): 3.0 * np.eye(3)}))
        cfg = SimConfig(dt=1e-3, horizon=0.2, seed=12, noise_amplitude=0.05)
        stats = monte_carlo(sys, design, cfg, n_runs=12)
        assert np.all(stats.p25 <= stats.median + 1e-15)
        assert np.all(stats.median <= stats.p75 + 1e-15)

    def test_deterministic_given_master_seed(self):
        sys = lorenz_pair_system()
        design = ObserverDesign(frozenset({0}), GainSet({(0, 0): 3.0 * np.eye(3)}))
        cfg = SimConfig(dt=1e-3, horizon=0.1, seed=13, noise_amplitude=0.1,
                        param_rel_spread=0.02)
        s1 = monte_carlo(sys, design, cfg, n_runs=5)
        s2 = monte_carlo(sys, design, cfg, n_runs=5)
        np.testing.assert_array_equal(s1.error_norms, s2.error_norms)
        assert s1.settling_times == s2.settling_times

    def test_each_run_equals_integrate_with_its_own_generator(self):
        sys = lorenz_pair_system()
        design = ObserverDesign(frozenset({0}), GainSet({(0, 0): 3.0 * np.eye(3)}))
        cfg = SimConfig(dt=1e-3, horizon=0.1, seed=14, noise_amplitude=0.05)
        stats = monte_carlo(sys, design, cfg, n_runs=6)
        for r, seed in enumerate(np.random.SeedSequence(cfg.seed).spawn(6)):
            rng = np.random.default_rng(seed)
            x0 = rng.uniform(*cfg.x0_box, (2, 3))
            w = cfg.observer_init_width
            xh0 = x0 * (1.0 + rng.uniform(-w, w, (2, 3)))
            res = integrate(sys, design, cfg, x0, xh0, rng)
            np.testing.assert_array_equal(stats.error_norms[r], res.error_norm)

    def test_noisy_error_norms_pinned(self):
        # computed with each run's noise drawn as one (G+1, m, p) block; drawing
        # it step by step from the same PCG64 generator gives the same numbers
        sys = lorenz_pair_system()
        design = ObserverDesign(frozenset({0}), GainSet({(0, 0): 3.0 * np.eye(3)}))
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

    def test_memory_stays_below_one_per_node_history(self):
        N, R, G = 200, 4, 2000
        edges = tuple(Hyperedge.uniform((i,), ((i + 1) % N,), 0.5) for i in range(N))
        sys = NetworkSystem(DirectedHypergraph(N, edges), bistable_field(),
                            linear_coupling(1.0), identity_output(1))
        design = ObserverDesign(frozenset(range(N)),
                                GainSet({(i, i): [[2.0]] for i in range(N)}))
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
        design = ObserverDesign(frozenset({0, 1}), GainSet({
            (0, 0): 3.0 * np.eye(3),
            (1, 0): [[0.5, 0.2, 0.0], [0.0, 0.4, 0.1], [0.3, 0.0, 0.2]],
            (1, 1): [[2.0, 0.1, 0.0], [0.1, 2.5, 0.0], [0.0, 0.2, 3.0]],
        }))
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
                                GainSet({(i, i): [[2.0]] for i in range(N)}))
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

    def test_parameter_spread_reaches_plant_only(self):
        sys = lorenz_pair_system()
        design = ObserverDesign(frozenset({0}), GainSet({(0, 0): 3.0 * np.eye(3)}))
        cfg = SimConfig(dt=1e-3, horizon=0.3, seed=15, param_rel_spread=0.05,
                        observer_init_width=0.0)
        stats = monte_carlo(sys, design, cfg, n_runs=4)
        # identical initial conditions but mismatched parameters: the error
        # must leave zero
        assert np.all(stats.error_norms[:, 0] == 0.0)
        assert np.all(stats.error_norms[:, -1] > 0.0)


class TestEnsembles:
    def test_shapes_and_determinism(self):
        sys = lorenz_pair_system()
        spec = TrajectoryEnsembleSpec(count=4, horizon=0.1, dt=1e-3, subsample=5,
                                      box=(-3, 3), seed=21)
        ens1 = make_ensemble(sys, spec)
        ens2 = make_ensemble(sys, spec)
        assert ens1.states.shape == (4, 21, 2, 3)
        np.testing.assert_array_equal(ens1.states, ens2.states)
        assert ens1.dt_sample == pytest.approx(5e-3)
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