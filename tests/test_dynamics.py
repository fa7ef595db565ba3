import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays
from scipy.optimize import brentq

from hyperobs import (
    DimensionMismatch,
    DirectedHypergraph,
    Hyperedge,
    NetworkSystem,
    ObserverDesign,
    bistable_field,
    identity_output,
    linear_output,
    lorenz_field,
    tanh_coupling,
)
from hyperobs import dynamics
from hyperobs.dynamics import JaggedMatrix
from conftest import (
    MissingMeasurement,
    fd_jacobian,
    hypergraphs,
    network_rhs,
    observer_rhs,
    random_hypergraph,
    random_system,
    vector_field_from_callable,
)


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


    @given(st.integers(0, 2**32 - 1), st.sampled_from([
        ((4, 2, 5, 3), (4, 2, 5, 3)),
        ((4, 2, 5, 3), (4, 1, 5, 3)),
        ((4, 2, 5, 3), (3,)),
        ((3,), (4, 2, 5, 3)),
    ]))
    def test_matches_stacked_formula_on_broadcast_inputs(self, seed, shapes):
        # the co-simulation evaluates node-first (N, 2, A, 3) states with
        # per-run parameters in the same layout
        rng = np.random.default_rng(seed)
        x = rng.uniform(-30, 30, shapes[0])
        mu = rng.uniform(0, 30, shapes[1])
        m1, m2, m3 = mu[..., 0], mu[..., 1], mu[..., 2]
        x1, x2, x3 = x[..., 0], x[..., 1], x[..., 2]
        stacked = np.stack([m1 * (x2 - x1), x1 * (m2 - x3) - x2, x1 * x2 - m3 * x3], axis=-1)
        np.testing.assert_array_equal(lorenz_field().eval(x, mu), stacked)


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
            g = tanh_coupling(a, b, c)
            np.testing.assert_array_equal(g.eval(np.zeros(3)), np.zeros(3))

    def test_value_against_independent_evaluation(self):
        a, b, c = 0.2, 0.05, 2.0
        g = tanh_coupling(a, b, c)
        z = 1.0
        expect = a * z + b * (
            (z + c) * np.tanh(z + c) - (z - c) * np.tanh(z - c)
        )
        assert g.eval([z])[0] == pytest.approx(expect, rel=1e-15)

    def test_derivative_at_origin_closed_form(self):
        a, b, c = 0.2, 0.05, 2.0
        g = tanh_coupling(a, b, c)
        expect = a + 2 * b * (np.tanh(c) + c * (1 - np.tanh(c) ** 2))
        assert g.deriv([0.0])[0] == pytest.approx(expect, rel=1e-12)
        fd = fd_jacobian(lambda z: g.eval(z), np.array([0.0]))
        assert g.deriv([0.0])[0] == pytest.approx(fd[0, 0], rel=1e-8)

    @given(
        arrays(np.float64, array_shapes(min_dims=0, max_dims=4, max_side=5),
               elements=st.floats(-1e3, 1e3)),
        st.floats(-10, 10), st.floats(-10, 10), st.floats(-10, 10),
    )
    def test_bits_equal_the_one_line_form(self, z, a, b, c):
        expect = a * z + b * ((z + c) * np.tanh(z + c) - (z - c) * np.tanh(z - c))
        got = np.asarray(tanh_coupling(a, b, c).eval(z))
        assert got.shape == np.shape(expect)
        np.testing.assert_array_equal(got.view(np.uint64), np.asarray(expect).view(np.uint64))

    @given(st.floats(-30, 30))
    def test_odd_symmetry(self, z):
        g = tanh_coupling(0.2, 0.05, 2.0)
        assert g.eval([-z])[0] == pytest.approx(-g.eval([z])[0], abs=1e-13)

    def test_jacobian_diagonal(self):
        g = tanh_coupling(0.2, 0.3, 2.0)
        z = np.array([0.3, -1.2, 5.0])
        d = g.deriv(z)
        assert d.shape == (3,)
        # g acts per coordinate: its Jacobian is diag(g')
        fd = fd_jacobian(lambda v: g.eval(v), z)
        assert np.count_nonzero(fd - np.diag(np.diag(fd))) == 0
        assert rel_err(np.diag(d), fd) < 1e-7
        assert g.deriv(np.tile(z, (4, 2, 1))).shape == (4, 2, 3)


class TestOutputMaps:
    def test_identity_inverse(self):
        h = identity_output(3)
        x = np.array([1.0, -2.0, 0.5])
        assert h.invertible
        np.testing.assert_array_equal(h.inverse, np.eye(3))
        np.testing.assert_allclose(h.eval(x) @ h.inverse.T, x, atol=1e-12)

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
            assert np.linalg.norm(h.eval(x) @ h.inverse.T - x) < 1e-9


def two_tail_one_head_system(sigma=3.0):
    edge = Hyperedge((0, 1), (2,), (0.25, 0.75), (1.0,), sigma)
    h = DirectedHypergraph(3, (edge,))
    field = lorenz_field()
    return NetworkSystem(h, field, tanh_coupling(0.2, 0.05, 2.0), identity_output(3))


class TestNetworkRhs:
    def test_consensus_manifold_reduces_to_field(self):
        sys = two_tail_one_head_system()
        xbar = np.array([1.0, -2.0, 3.0])
        x = np.tile(xbar, 3)
        expect = np.tile(sys.field.eval(xbar), 3)
        np.testing.assert_allclose(network_rhs(sys, x), expect, atol=1e-14)

    def test_no_edges_is_stacked_field(self):
        h = DirectedHypergraph(2)
        sys = NetworkSystem(h, lorenz_field(), tanh_coupling(0.2, 0.05, 2), identity_output(3))
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
        sys2 = NetworkSystem(sys.hypergraph, sys.field, sys.coupling, sys.output, params)
        xbar = np.array([1.0, 2.0, 3.0])
        rhs = network_rhs(sys2, np.tile(xbar, 3)).reshape(3, 3)
        np.testing.assert_allclose(rhs[1], sys.field.eval(xbar, params[1]), atol=1e-14)


def assert_bits_equal(got, want):
    assert got.shape == want.shape
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


@st.composite
def csr_triples(draw):
    """(data, indices, indptr, column count) of an arbitrary CSR matrix: up
    to 8 rows of 0-5 entries each, columns drawn with repeats and in any
    order inside a row, values with signed zeros."""
    cols = draw(st.integers(1, 6))
    lengths = draw(st.lists(st.integers(0, 5), max_size=8))
    nnz = sum(lengths)
    indices = draw(st.lists(st.integers(0, cols - 1), min_size=nnz, max_size=nnz))
    data = draw(st.lists(st.floats(-3, 3) | st.sampled_from([0.0, -0.0]),
                         min_size=nnz, max_size=nnz))
    indptr = np.concatenate([[0], np.cumsum(lengths, dtype=np.intp)])
    return np.array(data, dtype=float), np.array(indices, dtype=np.intp), indptr, cols


def per_edge_coupling(sys_, X):
    """W x and H g(W x) on node-first ``X`` by a loop over the edges: each
    argument and each node's sum starts at zero and adds its terms in
    ascending index order."""
    h = sys_.hypergraph
    args = np.zeros((len(h.edges),) + X.shape[1:])
    for k, e in enumerate(h.edges):
        weights = dict(zip(e.tails, e.alpha)) | {q: -b for q, b in zip(e.heads, e.beta)}
        for v in sorted(weights):
            args[k] += weights[v] * X[v]
    g = sys_.coupling.eval(args)
    expect = np.zeros_like(X)
    for k, e in enumerate(h.edges):
        for q in e.heads:
            expect[q] += e.sigma * g[k]
    return args, expect


class TestCouplingKernels:
    @given(
        hypergraphs(),
        st.sampled_from(["bistable", "planar", "lorenz"]),
        st.integers(0, 2**32 - 1),
        st.sampled_from([(), (4,), (2, 3)]),
        st.booleans(),
    )
    @example(DirectedHypergraph(3), "lorenz", 0, (4,), False)
    @example(DirectedHypergraph(4, (Hyperedge.uniform((2,), (0, 1), 1.5),)), "planar", 1, (2, 3),
             False)
    @example(
        DirectedHypergraph(4, (Hyperedge.uniform((2, 3), (0,), 1.5), Hyperedge.uniform((0,), (1,)))),
        "planar", 2, (3,), True,
    )
    def test_match_per_edge_loop(self, h, kind, seed, batch, zeros):
        # node-first states with batch axes; every reference sum starts at
        # zero and adds its entries in ascending index order, so the kernels
        # must agree bit for bit, signed zeros included
        rng = np.random.default_rng(seed)
        sys_ = random_system(rng, h, field_kind=kind)
        X = rng.uniform(-3, 3, (h.num_nodes,) + batch + (sys_.state_dim,))
        if zeros:
            X[rng.random(X.shape) < 0.5] = -0.0
        args, expect = per_edge_coupling(sys_, X)
        assert_bits_equal(sys_.edge_arguments(X), args)
        assert_bits_equal(sys_.coupling_term(X), expect)

    def test_column_chunks_and_reuse(self, chunk_budget):
        # a product in chunks of one column or of two (which do not divide
        # the 15 columns), products of other widths on the same matrices in
        # between, and a right-hand side with no columns give the one-chunk
        # bits, which are the per-edge loop's, with edges and without; no
        # result shares memory with the kernel's work arrays
        rng = np.random.default_rng(7)
        h = random_hypergraph(rng, max_nodes=9, max_edges=8, min_nodes=6)
        X = rng.uniform(-3, 3, (h.num_nodes, 5, 3))
        for h in (h, DirectedHypergraph(h.num_nodes)):
            sys_ = random_system(rng, h, field_kind="lorenz")
            args, coupled = sys_.edge_arguments(X), sys_.coupling_term(X)
            reference = per_edge_coupling(sys_, X)
            assert_bits_equal(args, reference[0])
            assert_bits_equal(coupled, reference[1])
            sys_.coupling_term(X[:, :2])
            assert_bits_equal(sys_.edge_arguments(X), args)
            assert_bits_equal(sys_.coupling_term(X), coupled)
            empty = sys_.edge_arguments(X[:, :0])
            assert empty.shape == (len(h.edges), 0, 3)
            assert sys_.coupling_term(X[:, :0]).shape == (h.num_nodes, 0, 3)
            for chunk in (1, 2):
                # W's chunk width is the byte budget over 8 bytes times the
                # larger of its entry and row counts
                most = max(1, len(h.members), len(h.edges))
                with chunk_budget(8 * chunk * most):
                    chunked = NetworkSystem(h, sys_.field, sys_.coupling, sys_.output)
                assert chunked._members._chunk == chunk
                got = chunked.edge_arguments(X)
                assert_bits_equal(got, args)
                assert_bits_equal(chunked.coupling_term(X), coupled)
                assert_bits_equal(got, args)
                assert_bits_equal(chunked.edge_arguments(X[:, :0]), empty)

    @given(csr_triples(), st.integers(0, 2**32 - 1), st.sampled_from([(), (4,), (2, 3)]),
           st.sampled_from([None, 1, 2]))
    @example((np.zeros(0), np.zeros(0, dtype=np.intp), np.zeros(4, dtype=np.intp), 2), 0, (3,), 1)
    @example((np.zeros(0), np.zeros(0, dtype=np.intp), np.zeros(1, dtype=np.intp), 1), 0, (), None)
    @example((np.array([1.5, -0.0, 2.0, -1.0]), np.array([2, 0, 2, 1]),
              np.array([0, 0, 3, 3, 4]), 3), 1, (2, 3), 2)
    def test_jagged_product_matches_per_row_loop(self, chunk_budget, csr, seed, batch, chunk):
        # any CSR triple, not only an incidence: empty rows, repeated and
        # unsorted columns; each row's sum starts at zero and adds its
        # products in entry order, so the bits agree, signed zeros included
        data, indices, indptr, cols = csr
        rng = np.random.default_rng(seed)
        x = rng.uniform(-3, 3, (cols,) + batch)
        x[rng.random(x.shape) < 0.3] = -0.0
        expect = np.zeros((len(indptr) - 1,) + batch)
        for r in range(len(indptr) - 1):
            for e in range(indptr[r], indptr[r + 1]):
                expect[r] += data[e] * x[indices[e]]
        # a chunk width of one or two columns, or the default budget's
        most = max(1, len(data), len(indptr) - 1)
        with chunk_budget(dynamics.CHUNK_BYTES if chunk is None else 8 * chunk * most):
            m = JaggedMatrix(data, indices, indptr)
        assert chunk is None or m._chunk == chunk
        got = m @ x
        assert_bits_equal(got, expect)
        flat = x.reshape(cols, x.size // cols)
        assert_bits_equal(m._sorted_product(flat)[m._rank], got.reshape(len(got), flat.shape[1]))

    def test_integer_states(self):
        sys_ = random_system(np.random.default_rng(8), random_hypergraph(
            np.random.default_rng(8), min_nodes=4), field_kind="planar")
        X = np.random.default_rng(9).integers(-3, 4, (sys_.num_nodes, 2, 2))
        assert_bits_equal(sys_.coupling_term(X), sys_.coupling_term(X.astype(float)))


class TestObserverRhs:
    def test_zero_error_gives_plant_rhs_at_nominal(self):
        sys = two_tail_one_head_system()
        rng = np.random.default_rng(10)
        x = rng.uniform(-3, 3, 9)
        design = ObserverDesign(
            measured=frozenset({0, 2}),
            gains={(0, 0): np.eye(3), (1, 2): 2.0 * np.eye(3)},
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
        sys = NetworkSystem(h, lorenz_field(), tanh_coupling(0.2, 0.05, 2), identity_output(3))
        kappa = 4.0
        design = ObserverDesign(frozenset({0}), {(0, 0): kappa * np.eye(3)})
        rng = np.random.default_rng(12)
        x, xh = rng.uniform(-3, 3, 3), rng.uniform(-3, 3, 3)
        got = observer_rhs(sys, design, xh, {0: x.copy()})
        expect = sys.field.eval(xh) + kappa * (x - xh)
        np.testing.assert_allclose(got, expect, atol=1e-13)

    def test_missing_measurement_raises(self):
        sys = two_tail_one_head_system()
        design = ObserverDesign(frozenset({1}), {(1, 1): np.eye(3)})
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
