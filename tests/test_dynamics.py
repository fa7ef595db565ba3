import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.optimize import brentq

from hyperobs import (
    DimensionMismatch,
    DirectedHypergraph,
    Hyperedge,
    MissingMeasurement,
    NetworkSystem,
    GainSet,
    ObserverDesign,
    bistable_field,
    fd_jacobian,
    identity_output,
    linear_output,
    lorenz_field,
    network_rhs,
    observer_rhs,
    tanh_coupling,
    vector_field_from_callable,
)
from conftest import hypergraphs, random_system


def rel_err(a, b):
    return np.linalg.norm(a - b) / max(1.0, np.linalg.norm(b))


class TestLorenz:
    def test_point_values(self):
        f = lorenz_field(10.0, 28.0, 8.0 / 3.0)
        np.testing.assert_allclose(
            f.eval([1.0, 1.0, 1.0]), [0.0, 26.0, 1.0 - 8.0 / 3.0], rtol=0, atol=1e-14
        )
        np.testing.assert_array_equal(f.eval([0.0, 0.0, 0.0]), [0.0, 0.0, 0.0])

    def test_jacobians_match_finite_differences(self):
        f = lorenz_field()
        rng = np.random.default_rng(0)
        for _ in range(20):
            x = rng.uniform(-20, 20, 3)
            jx = fd_jacobian(lambda z: f.eval(z), x)
            assert rel_err(f.jac_x(x), jx) < 1e-6
            jm = fd_jacobian(lambda m: f.eval(x, m), f.nominal_params)
            assert rel_err(f.jac_mu(x), jm) < 1e-6

    def test_batched_matches_pointwise(self):
        f = lorenz_field()
        rng = np.random.default_rng(1)
        X = rng.uniform(-5, 5, (7, 3))
        np.testing.assert_allclose(
            f.eval(X), np.stack([f.eval(x) for x in X]), atol=1e-14
        )
        np.testing.assert_allclose(
            f.jac_x(X), np.stack([f.jac_x(x) for x in X]), atol=1e-14
        )


class TestBistable:
    def test_origin_and_slope(self):
        f = bistable_field(1.0, 2.0)
        assert f.eval([0.0]) == pytest.approx([0.0])
        # unstable origin: df/dx(0) = -mu1 + mu2 = 1
        assert f.jac_x([0.0])[0, 0] == pytest.approx(1.0)

    def test_nonzero_equilibria_near_reported_value(self):
        f = bistable_field(1.0, 2.0)
        root = brentq(lambda x: f.eval([x])[0], 1.0, 3.0, xtol=1e-12)
        assert abs(root - 1.915) < 0.01
        assert f.eval([-root])[0] == pytest.approx(0.0, abs=1e-12)

    def test_jac_mu(self):
        f = bistable_field()
        x = np.array([0.7])
        jm = fd_jacobian(lambda m: f.eval(x, m), f.nominal_params)
        assert rel_err(f.jac_mu(x), jm) < 1e-6


class TestTanhCoupling:
    def test_zero_at_origin_any_coefficients(self):
        for a, b, c in [(0.2, 0.05, 2.0), (0.2, 0.3, 2.0), (1.0, 0.5, 0.7)]:
            g = tanh_coupling(a, b, c, 3)
            np.testing.assert_array_equal(g.eval(np.zeros(3)), np.zeros(3))

    def test_value_against_independent_evaluation(self):
        a, b, c = 0.2, 0.05, 2.0
        g = tanh_coupling(a, b, c, 1)
        z = 1.0
        expect = a * z + b * (
            (z + c) * np.tanh(z + c) - (z - c) * np.tanh(z - c)
        )
        assert g.eval([z])[0] == pytest.approx(expect, rel=1e-15)

    def test_derivative_at_origin_closed_form(self):
        a, b, c = 0.2, 0.05, 2.0
        g = tanh_coupling(a, b, c, 1)
        expect = a + 2 * b * (np.tanh(c) + c * (1 - np.tanh(c) ** 2))
        assert g.jac([0.0])[0, 0] == pytest.approx(expect, rel=1e-12)
        fd = fd_jacobian(lambda z: g.eval(z), np.array([0.0]))
        assert g.jac([0.0])[0, 0] == pytest.approx(fd[0, 0], rel=1e-8)

    @given(st.floats(-30, 30))
    def test_odd_symmetry(self, z):
        g = tanh_coupling(0.2, 0.05, 2.0, 1)
        assert g.eval([-z])[0] == pytest.approx(-g.eval([z])[0], abs=1e-13)

    def test_jacobian_diagonal(self):
        g = tanh_coupling(0.2, 0.3, 2.0, 3)
        z = np.array([0.3, -1.2, 5.0])
        J = g.jac(z)
        assert J.shape == (3, 3)
        assert np.count_nonzero(J - np.diag(np.diag(J))) == 0
        fd = fd_jacobian(lambda v: g.eval(v), z)
        assert rel_err(J, fd) < 1e-7


class TestOutputMaps:
    def test_identity_inverse(self):
        h = identity_output(3)
        x = np.array([1.0, -2.0, 0.5])
        assert h.invertible
        np.testing.assert_allclose(h.inverse(h.eval(x)), x, atol=1e-12)

    def test_rectangular_has_no_inverse(self):
        h = linear_output([[0, 1, 0], [0, 0, 1]])
        assert not h.invertible
        assert h.output_dim == 2 and h.state_dim == 3

    def test_ill_conditioned_square_has_no_inverse(self):
        h = linear_output([[1.0, 0.0], [1.0, 1e-12]])
        assert not h.invertible

    def test_inverse_round_trip_tolerance(self):
        rng = np.random.default_rng(5)
        m = rng.uniform(-1, 1, (4, 4)) + 4 * np.eye(4)
        h = linear_output(m)
        for _ in range(10):
            x = rng.uniform(-10, 10, 4)
            assert np.linalg.norm(h.inverse(h.eval(x)) - x) < 1e-9


def two_tail_one_head_system(sigma=3.0):
    edge = Hyperedge((0, 1), (2,), (0.25, 0.75), (1.0,), sigma)
    h = DirectedHypergraph(3, (edge,))
    field = lorenz_field()
    return NetworkSystem(h, field, tanh_coupling(0.2, 0.05, 2.0, 3), identity_output(3))


class TestNetworkRhs:
    def test_consensus_manifold_reduces_to_field(self):
        sys = two_tail_one_head_system()
        xbar = np.array([1.0, -2.0, 3.0])
        x = np.tile(xbar, 3)
        expect = np.tile(sys.field.eval(xbar), 3)
        np.testing.assert_allclose(network_rhs(sys, x), expect, atol=1e-14)

    def test_no_edges_is_stacked_field(self):
        h = DirectedHypergraph(2)
        sys = NetworkSystem(h, lorenz_field(), tanh_coupling(0.2, 0.05, 2, 3), identity_output(3))
        rng = np.random.default_rng(8)
        x = rng.uniform(-5, 5, 6)
        expect = np.concatenate([sys.field.eval(x[:3]), sys.field.eval(x[3:])])
        np.testing.assert_allclose(network_rhs(sys, x), expect, atol=1e-14)

    def test_hand_computed_coupling(self):
        sys = two_tail_one_head_system(sigma=3.0)
        rng = np.random.default_rng(9)
        x = rng.uniform(-2, 2, 9)
        X = x.reshape(3, 3)
        arg = 0.25 * X[0] + 0.75 * X[1] - X[2]
        g = sys.coupling.eval(arg)
        expect = np.stack(
            [sys.field.eval(X[0]), sys.field.eval(X[1]), sys.field.eval(X[2]) + 3.0 * g]
        ).reshape(-1)
        np.testing.assert_allclose(network_rhs(sys, x), expect, atol=1e-13)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            network_rhs(two_tail_one_head_system(), np.zeros(7))

    def test_heterogeneous_params(self):
        sys = two_tail_one_head_system()
        params = np.tile(sys.field.nominal_params, (3, 1))
        params[1, 0] = 14.0
        sys2 = sys.with_params(params)
        xbar = np.array([1.0, 2.0, 3.0])
        rhs = network_rhs(sys2, np.tile(xbar, 3)).reshape(3, 3)
        np.testing.assert_allclose(rhs[1], sys.field.eval(xbar, params[1]), atol=1e-14)


class TestCouplingKernels:
    @given(hypergraphs(), st.sampled_from(["bistable", "planar", "lorenz"]), st.integers(0, 2**32 - 1))
    def test_match_per_edge_loop(self, h, kind, seed):
        rng = np.random.default_rng(seed)
        sys_ = random_system(rng, h, field_kind=kind)
        X = rng.uniform(-3, 3, (4, h.num_nodes, sys_.state_dim))
        args = np.zeros((4, len(h.edges), sys_.state_dim))
        expect = np.zeros_like(X)
        for k, e in enumerate(h.edges):
            for w, t in zip(e.alpha, e.tails):
                args[:, k] += w * X[:, t]
            for w, q in zip(e.beta, e.heads):
                args[:, k] -= w * X[:, q]
            g = sys_.coupling.eval(args[:, k])
            for q in e.heads:
                expect[:, q] += e.sigma * g
        assert rel_err(sys_.edge_arguments(X), args) < 1e-12
        assert rel_err(sys_.coupling_term(X), expect) < 1e-12
        pick = rng.permutation(len(h.edges))[: int(rng.integers(0, len(h.edges) + 1))]
        assert rel_err(sys_.edge_arguments(X, pick), args[:, pick]) < 1e-12


class TestObserverRhs:
    def test_zero_error_gives_plant_rhs_at_nominal(self):
        sys = two_tail_one_head_system()
        rng = np.random.default_rng(10)
        x = rng.uniform(-3, 3, 9)
        design = ObserverDesign(
            measured=frozenset({0, 2}),
            gains=GainSet({(0, 0): np.eye(3), (1, 2): 2.0 * np.eye(3)}),
        )
        y = {j: sys.output.eval(x.reshape(3, 3)[j]) for j in design.measured}
        np.testing.assert_array_equal(
            observer_rhs(sys, design, x, y), network_rhs(sys, x)
        )

    def test_no_measurements_is_copy_dynamics(self):
        sys = two_tail_one_head_system()
        rng = np.random.default_rng(11)
        xh = rng.uniform(-3, 3, 9)
        design = ObserverDesign()
        np.testing.assert_array_equal(observer_rhs(sys, design, xh, {}), network_rhs(sys, xh))

    def test_scalar_gain_correction(self):
        # single measured node with L = kappa*I and identity h
        h = DirectedHypergraph(1)
        sys = NetworkSystem(h, lorenz_field(), tanh_coupling(0.2, 0.05, 2, 3), identity_output(3))
        kappa = 4.0
        design = ObserverDesign(frozenset({0}), GainSet({(0, 0): kappa * np.eye(3)}))
        rng = np.random.default_rng(12)
        x, xh = rng.uniform(-3, 3, 3), rng.uniform(-3, 3, 3)
        got = observer_rhs(sys, design, xh, {0: x.copy()})
        expect = sys.field.eval(xh) + kappa * (x - xh)
        np.testing.assert_allclose(got, expect, atol=1e-13)

    def test_missing_measurement_raises(self):
        sys = two_tail_one_head_system()
        design = ObserverDesign(frozenset({1}), GainSet({(1, 1): np.eye(3)}))
        with pytest.raises(MissingMeasurement):
            observer_rhs(sys, design, np.zeros(9), {})


class TestFiniteDifferenceFallback:
    def test_fallback_matches_analytic_lorenz(self):
        analytic = lorenz_field()
        wrapped = vector_field_from_callable(
            analytic.func, 3, analytic.nominal_params
        )
        rng = np.random.default_rng(13)
        for _ in range(10):
            x = rng.uniform(-10, 10, 3)
            assert rel_err(wrapped.jac_x(x), analytic.jac_x(x)) < 1e-7
            assert rel_err(wrapped.jac_mu(x), analytic.jac_mu(x)) < 1e-7

    def test_fallback_batched(self):
        analytic = lorenz_field()
        wrapped = vector_field_from_callable(analytic.func, 3, analytic.nominal_params)
        X = np.random.default_rng(14).uniform(-3, 3, (4, 3))
        assert rel_err(wrapped.jac_x(X), analytic.jac_x(X)) < 1e-7
