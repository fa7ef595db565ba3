import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hyperobs import (
    CouplingFunction,
    DimensionMismatch,
    DirectedHypergraph,
    EmptySampleSet,
    Hyperedge,
    MissingOutsideError,
    NetworkSystem,
    NodeOutOfRange,
    NonpositiveMargin,
    ObserverDesign,
    SubsetNotHeadClosed,
    check_thm2,
    identity_output,
    linear_coupling,
    linear_output,
    lorenz_field,
    tanh_coupling,
    thm3_bound,
)
import hyperobs
from hyperobs import assembly, dynamics
from hyperobs.assembly import CertificationReport, gain_matrix, rounding_tol
from hyperobs.gain_design import GainProblem
from hyperobs.hypergraph import HypergraphError, condense, dependency_arcs, label_components
from conftest import (
    SubsetIndex,
    apply_gains_by_block,
    bit_pattern,
    brute_force_sccs,
    fd_jacobian,
    gain_array,
    head_closed,
    hold_rows,
    hypergraphs,
    incoming_closure,
    network_rhs,
    observer_rhs,
    random_hypergraph,
    random_system,
    reference_a_matrix_batch,
    reference_outside_term,
    root_rows,
    root_stack,
    to_dependency_graph,
    upstream_tails,
    vector_field_from_callable,
)


def nonlinear_error_field(sys, design, xhat_flat):
    """Error dynamics as the gap between plant and observer right-hand sides;
    the independent oracle for the assembled linearization."""
    N, n = sys.num_nodes, sys.state_dim

    def F(e_flat):
        x = xhat_flat + e_flat
        y = {j: sys.output.eval(x.reshape(N, n)[j]) for j in design.measured}
        return network_rhs(sys, x) - observer_rhs(sys, design, xhat_flat, y)

    return F


def linearized_rhs_by_rows(sys, design, xhat_flat, e_flat):
    """Direct per-node evaluation of the linearized error dynamics."""
    N, n = sys.num_nodes, sys.state_dim
    Xh = xhat_flat.reshape(N, n)
    E = e_flat.reshape(N, n)
    out = np.zeros((N, n))
    for i in range(N):
        out[i] = sys.field.jac_x(Xh[i]) @ E[i]
    for (i, j), L in design.gains.items():
        out[i] -= np.asarray(L) @ sys.output.matrix @ E[j]
    for e in sys.hypergraph.edges:
        arg = sum(w * Xh[t] for w, t in zip(e.alpha, e.tails)) - sum(
            w * Xh[q] for w, q in zip(e.beta, e.heads)
        )
        earg = sum(w * E[t] for w, t in zip(e.alpha, e.tails)) - sum(
            w * E[q] for w, q in zip(e.beta, e.heads)
        )
        term = e.sigma * (sys.coupling.deriv(arg) * earg)
        for q in e.heads:
            out[q] += term
    return out.reshape(-1)


def random_scc_union_subset(rng, h):
    """Random head-closed subset: a union of dependency-pattern SCCs."""
    arcs = zip(*(idx.tolist() for idx in to_dependency_graph(h).nonzero()))
    sccs = brute_force_sccs(h.num_nodes, arcs, range(h.num_nodes))
    k = int(rng.integers(1, len(sccs) + 1))
    chosen = rng.choice(len(sccs), size=k, replace=False)
    nodes = sorted(v for s in chosen for v in sccs[s])
    return nodes


def random_design(rng, sys, subset):
    """Random gains respecting the zero-pattern outside the subset."""
    n, p = sys.state_dim, sys.output.output_dim
    measured = [v for v in subset if rng.random() < 0.6]
    gains = {}
    for j in measured:
        for i in subset:
            if rng.random() < 0.5:
                gains[(i, j)] = rng.normal(0, 1.0, (n, p))
    return ObserverDesign(frozenset(measured), gains)


def a_with_design(sys, design, nodes, states, zero_error_nodes=frozenset()):
    """A_S with the design's gain blocks, stacked over the samples; one state
    of N * n entries is one sample."""
    states = np.reshape(states, (-1, sys.num_nodes, sys.state_dim))
    stack = root_stack(sys, nodes, states, zero_error_nodes)
    keys = list(design.gains)
    blocks = np.array([design.gains[k] for k in keys]).reshape(
        len(keys), sys.state_dim, sys.output.output_dim
    )
    return root_rows(stack) - gain_matrix(stack.entering.position, keys, blocks, sys.output.matrix)


class TestAssembleA:
    def test_single_uncoupled_unmeasured_node(self):
        h = DirectedHypergraph(1)
        sys = NetworkSystem(h, lorenz_field(), tanh_coupling(0.2, 0.05, 2), identity_output(3))
        xh = np.array([1.0, 2.0, 3.0])
        A = root_rows(root_stack(sys, (0,), xh.reshape(1, 1, 3)))[0]
        np.testing.assert_allclose(A, sys.field.jac_x(xh), atol=1e-14)

    def test_single_measured_node_identity_output(self):
        h = DirectedHypergraph(1)
        sys = NetworkSystem(h, lorenz_field(), tanh_coupling(0.2, 0.05, 2), identity_output(3))
        kappa = 7.0
        design = ObserverDesign(frozenset({0}), {(0, 0): kappa * np.eye(3)})
        xh = np.array([0.5, -1.0, 2.0])
        A = a_with_design(sys, design, (0,), xh)[0]
        np.testing.assert_allclose(A, sys.field.jac_x(xh) - kappa * np.eye(3), atol=1e-14)

    def test_full_subset_matches_fd_jacobian_of_error_field(self):
        rng = np.random.default_rng(21)
        for trial in range(8):
            h = random_hypergraph(rng, max_nodes=6, max_edges=5)
            sys = random_system(rng, h)
            S = list(range(h.num_nodes))
            design = random_design(rng, sys, S)
            xh = rng.uniform(-2, 2, h.num_nodes * sys.state_dim)
            A = a_with_design(sys, design, S, xh)[0]
            J = fd_jacobian(nonlinear_error_field(sys, design, xh), np.zeros_like(xh))
            for _ in range(5):
                e = rng.normal(0, 1, xh.size)
                err = np.linalg.norm(A @ e - J @ e) / np.linalg.norm(e)
                assert err < 1e-5

    def test_head_split_subset_rejected(self):
        h = DirectedHypergraph(3, (Hyperedge.uniform((0,), (1, 2)),))
        sys = random_system(np.random.default_rng(1), h, field_kind="bistable")
        with pytest.raises(SubsetNotHeadClosed):
            root_stack(sys, (1,), np.zeros((1, 3, 1)))
        # tolerated when the missing head carries zero error
        stack = root_stack(sys, (1,), np.zeros((1, 3, 1)), frozenset({2}))
        A = root_rows(stack)[0]
        assert A.shape == (1, 1)

    def test_repeated_node_rejected(self):
        # entering refuses it, so the subset's index holds each node once
        h = DirectedHypergraph(3, (Hyperedge.uniform((0,), (1, 2)),))
        sys = random_system(np.random.default_rng(1), h, field_kind="bistable")
        for nodes in ([1, 2, 1], [0, 0]):
            with pytest.raises(HypergraphError, match="given twice"):
                root_stack(sys, nodes, np.zeros((1, 3, 1)))

    @pytest.mark.parametrize("shape", [(3,), (2, 3), (1, 1, 3, 1), (2, 3, 2), (3, 1)])
    def test_samples_other_than_k_by_n_by_n_rejected(self, shape):
        # one state of N * n entries, (K, N * n) rows and extra leading axes too
        h = DirectedHypergraph(3)
        sys = random_system(np.random.default_rng(1), h, field_kind="bistable")
        with pytest.raises(DimensionMismatch):
            root_stack(sys, (0,), np.zeros(shape))

    def test_external_gain_column_rejected(self):
        h = DirectedHypergraph(2)
        sys = random_system(np.random.default_rng(2), h, field_kind="bistable")
        stack = root_stack(sys, (0,), np.zeros((1, 2, 1)))
        # a gain from measured node 1 into the subset {0} would couple it to
        # an error outside the subset
        with pytest.raises(ValueError):
            check_thm2(stack, 1.0, {(0, 1): np.eye(1)})
        with pytest.raises(ValueError):
            gain_matrix(stack.entering.position, [(1, 0)], np.ones((1, 1, 1)), np.eye(1))


class TestGainMatrix:
    """``a - gain_matrix(...)`` against the per-block in-place subtraction."""

    @given(st.integers(0, 2**32 - 1), st.integers(1, 4), st.integers(1, 5))
    def test_matches_per_block_subtraction_bit_for_bit(self, seed, n, M):
        rng = np.random.default_rng(seed)
        p = int(rng.integers(1, n + 1))  # p < n outputs too
        gamma = rng.normal(size=(p, n))
        sub = SubsetIndex(tuple(rng.choice(12, size=M, replace=False).tolist()))
        K, d = int(rng.integers(1, 4)), M * n
        a = rng.normal(size=(K, d, d))
        for value in (0.0, -0.0, np.inf, -np.inf, np.nan):
            a[rng.random(a.shape) < 0.08] = value
        pairs = [(i, j) for i in sub.nodes for j in sub.nodes]
        keys = [pairs[t] for t in rng.permutation(len(pairs))[: rng.integers(0, len(pairs) + 1)]]
        L = rng.normal(size=(len(keys), n, p))
        L[rng.random(L.shape) < 0.1] = -0.0
        # all-zero blocks, of +0.0 and of -0.0 entries
        zero = rng.random(len(keys)) < 0.3
        L[zero] = np.where(rng.random(L[zero].shape) < 0.5, 0.0, -0.0)
        got = a - gain_matrix(DirectedHypergraph(12).entering(sub).position, keys, L, gamma)
        want = apply_gains_by_block(a.copy(), sub, dict(zip(keys, L)), gamma)
        assert bit_pattern(got) == bit_pattern(want)

    @given(st.integers(0, 2**32 - 1), st.booleans(), st.sampled_from([0, -8, 8]))
    def test_key_outside_subset_rejected(self, seed, outside_row, shift):
        # of 8 nodes, a stranger is a node outside the subset, or an id off
        # by -8, which would wrap around to a node inside, or by +8
        rng = np.random.default_rng(seed)
        n, M = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        gamma = rng.normal(size=(n, n))
        nodes = rng.choice(8, size=M + 1, replace=False).tolist()
        sub = SubsetIndex(tuple(nodes[:M]))
        inside = int(rng.choice(sub.nodes))
        stranger = inside + shift if shift else nodes[M]
        keys = [(i, j) for i in sub.nodes for j in sub.nodes if rng.random() < 0.5]
        keys.insert(int(rng.integers(0, len(keys) + 1)),
                    (stranger, inside) if outside_row else (inside, stranger))
        L = rng.normal(size=(len(keys), n, n))
        with pytest.raises(ValueError):
            gain_matrix(DirectedHypergraph(8).entering(sub).position, keys, L, gamma)
        with pytest.raises(ValueError):
            apply_gains_by_block(np.zeros((1, M * n, M * n)), sub, dict(zip(keys, L)), gamma)


class TestAssembleB:
    """b_S, the input from tails outside S, enters the certificates only
    through the Theorem-3 bound on it."""

    def test_full_network_has_zero_b(self):
        rng = np.random.default_rng(22)
        h = random_hypergraph(rng, max_nodes=5)
        b = thm3_bound(h, range(h.num_nodes), {}, margin=1.0, g_bound=1.0,
                       f_bound=0.0, l_bound=0.0, mu_bar=0.0, nu_bar=0.0)
        assert b.outside_term == 0.0 and b.value == 0.0

    def test_zero_outside_errors_give_zero_b(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            h = random_hypergraph(rng, max_nodes=6)
            S = random_scc_union_subset(rng, h)
            outside = {v: 0.0 for v in range(h.num_nodes) if v not in S}
            b = thm3_bound(h, S, outside, margin=1.0, g_bound=2.0, f_bound=0.0,
                           l_bound=0.0, mu_bar=0.0, nu_bar=0.0)
            assert b.outside_term == 0.0

    def test_missing_outside_error_raises(self):
        h = DirectedHypergraph(2, (Hyperedge.uniform((0,), (1,)),))
        with pytest.raises(MissingOutsideError):
            thm3_bound(h, [1], {}, margin=1.0, g_bound=1.0, f_bound=0.0,
                       l_bound=0.0, mu_bar=0.0, nu_bar=0.0)

    def test_subset_dynamics_match_direct_linearization(self):
        # with zero error outside S, b_S vanishes and the linearized dynamics
        # of S are A_S e_S
        rng = np.random.default_rng(24)
        for _ in range(10):
            h = random_hypergraph(rng, max_nodes=7, max_edges=6)
            sys = random_system(rng, h)
            S = random_scc_union_subset(rng, h)
            design = random_design(rng, sys, S)
            n = sys.state_dim
            xh = rng.uniform(-2, 2, h.num_nodes * n)
            E = np.zeros((h.num_nodes, n))
            E[S] = rng.normal(0, 1, (len(S), n))
            A = a_with_design(sys, design, S, xh)[0]
            got = A @ E[S].reshape(-1)
            full = linearized_rhs_by_rows(sys, design, xh, E.reshape(-1)).reshape(h.num_nodes, n)
            expect = full[S].reshape(-1)
            assert np.linalg.norm(got - expect) <= 1e-10 * max(1.0, np.linalg.norm(expect))


class TestDenseOutput:
    def test_a_matrices_match_direct_linearization(self):
        # a dense Gamma, not a row selection, so L @ Gamma mixes every column
        rng = np.random.default_rng(25)
        for _ in range(8):
            h = random_hypergraph(rng, max_nodes=6, max_edges=5)
            base = random_system(rng, h, field_kind=rng.choice(["lorenz", "planar"]))
            n = base.state_dim
            gamma = rng.normal(0, 1, (int(rng.integers(1, n + 1)), n))
            sys = NetworkSystem(h, base.field, base.coupling, linear_output(gamma))
            S = list(range(h.num_nodes))
            design = random_design(rng, sys, S)
            samples = rng.uniform(-2, 2, (3, h.num_nodes, n))
            A = a_with_design(sys, design, S, samples)
            # the same gains through the synthesis' gain array
            prob = GainProblem(root_stack(sys, S, samples), sorted(design.measured))
            assert set(design.gains) <= set(prob.keys)
            L = gain_array(prob, design.gains)
            A_gains = prob.rows(gain_matrix(prob.position, prob.keys, L, prob.gamma), np.arange(3))
            for k, xh in enumerate(samples.reshape(3, -1)):
                e = rng.normal(0, 1, xh.size)
                expect = linearized_rhs_by_rows(sys, design, xh, e)
                scale = max(1.0, np.linalg.norm(expect))
                assert np.linalg.norm(A[k] @ e - expect) <= 1e-12 * scale
                assert np.linalg.norm(A_gains[k] @ e - expect) <= 1e-12 * scale


class TestCouplingJacBound:
    def test_one_coupling_evaluation_serves_both(self, monkeypatch):
        calls = []
        real = CouplingFunction.deriv
        monkeypatch.setattr(CouplingFunction, "deriv",
                            lambda self, z: calls.append(z) or real(self, z))
        h = DirectedHypergraph(2, (Hyperedge.uniform((0,), (1,), 2.0),))
        sys = NetworkSystem(h, lorenz_field(), tanh_coupling(0.2, 0.05, 2), identity_output(3))
        samples = np.random.default_rng(7).uniform(-5, 5, (4, 2, 3))
        stack = root_stack(sys, (0, 1), samples)
        # the node floors read g' once, and the stack, which assembles
        # nothing until it is read, once for its coupling entries and bound
        assert len(calls) == 1
        assert root_rows(stack).shape == (4, 6, 6)
        assert stack.g.shape == (1, 4) and np.all(stack.g > 0)
        assert len(calls) == 2

    @given(
        hypergraphs(),
        st.integers(0, 2**32 - 1),
        st.floats(-1, 1),
        st.floats(-1, 1),
        st.floats(0, 3),
    )
    def test_matches_svd_of_dense_diagonal(self, h, seed, a, b, c):
        rng = np.random.default_rng(seed)
        base = random_system(rng, h)
        sys = NetworkSystem(h, base.field, tanh_coupling(a, b, c), base.output)
        S = random_scc_union_subset(rng, h)
        samples = rng.uniform(-5, 5, (int(rng.integers(1, 5)), h.num_nodes, sys.state_dim))
        (bound,) = root_stack(sys, S, samples).g
        incoming = incoming_closure(h, S)
        if not incoming:
            np.testing.assert_array_equal(bound, np.zeros(len(samples)))
            return
        dg = sys.coupling.deriv(sys.edge_arguments(samples.transpose(1, 0, 2))[incoming])
        dense = dg[..., :, None] * np.eye(sys.state_dim)
        # per sample: the largest singular value over the incoming edges
        expect = np.linalg.svd(dense, compute_uv=False)[..., 0].max(axis=0)
        np.testing.assert_allclose(bound, expect, rtol=1e-15, atol=0)


def one_sample_stack(h, S, zero_error_nodes=frozenset()):
    sys = NetworkSystem(h, lorenz_field(), tanh_coupling(0.2, 0.05, 2), identity_output(3))
    samples = np.zeros((1, h.num_nodes, 3))
    return root_stack(sys, S, samples, frozenset(zero_error_nodes))


class TestHeadClosed:
    def test_full_set_closed(self):
        h = random_hypergraph(np.random.default_rng(4))
        assert head_closed(h, range(h.num_nodes))
        one_sample_stack(h, range(h.num_nodes))

    def test_partial_heads_not_closed(self):
        h = DirectedHypergraph(3, (Hyperedge.uniform((0,), (1, 2)),))
        assert not head_closed(h, [1])
        with pytest.raises(SubsetNotHeadClosed):
            one_sample_stack(h, [1])
        assert head_closed(h, [1], ignoring=[2])
        one_sample_stack(h, [1], zero_error_nodes={2})
        assert head_closed(h, [1, 2])
        one_sample_stack(h, [1, 2])

    def test_scc_unions_are_head_closed(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            h = random_hypergraph(rng)
            S = random_scc_union_subset(rng, h)
            assert head_closed(h, S)
            one_sample_stack(h, S)


class TestEnteringSliceConsumers:
    """Each reader of ``DirectedHypergraph.entering`` against its per-edge
    scan in ``conftest``."""

    @given(hypergraphs(), st.data())
    def test_head_closed_decision(self, h, data):
        nodes = st.integers(0, h.num_nodes - 1)
        S = sorted(data.draw(st.sets(nodes, min_size=1)))
        for zero in (set(), data.draw(st.sets(nodes))):
            if head_closed(h, S, zero):
                one_sample_stack(h, S, zero)
            else:
                with pytest.raises(SubsetNotHeadClosed):
                    one_sample_stack(h, S, zero)

    @given(hypergraphs(), st.data())
    def test_upstream_tails(self, h, data):
        S = sorted(data.draw(st.sets(st.integers(0, h.num_nodes - 1), min_size=1)))
        sl = one_sample_stack(h, S, set(range(h.num_nodes)) - set(S)).entering
        assert set(sl.members[sl.outside_tails].tolist()) == upstream_tails(h, S)

    @given(hypergraphs(), st.data(), st.integers(0, 2**32 - 1), st.booleans())
    def test_arguments_and_a_matrix_batch_bit_for_bit(self, h, data, seed, zeros):
        # the entering edges' arguments are W x's rows, signed zeros included,
        # and A_S is the per-edge scan's, bit for bit
        rng = np.random.default_rng(seed)
        S = sorted(data.draw(st.sets(st.integers(0, h.num_nodes - 1), min_size=1)))
        base = random_system(rng, h)
        seen = []
        coupling = CouplingFunction(
            base.coupling.func, lambda z: seen.append(z.copy()) or base.coupling.deriv_func(z)
        )
        sys = NetworkSystem(h, base.field, coupling, base.output)
        X = rng.uniform(-3, 3, (int(rng.integers(1, 4)), h.num_nodes, sys.state_dim))
        if zeros:
            X[rng.random(X.shape) < 0.5] = -0.0
        sub = SubsetIndex(tuple(S))
        stack = root_stack(sys, sub, X, frozenset(range(h.num_nodes)) - set(S))
        got = root_rows(stack)
        args = sys.edge_arguments(X.transpose(1, 0, 2))[incoming_closure(h, S)]
        # the first evaluation is the node floors', at every edge's argument,
        # and the last the stack's
        assert bit_pattern(seen[0]) == bit_pattern(sys.edge_arguments(X.transpose(1, 0, 2)))
        assert bit_pattern(seen[-1]) == bit_pattern(args)
        expect = reference_a_matrix_batch(sys, sub, X, base.coupling.deriv(args))
        assert bit_pattern(got) == bit_pattern(expect)

    @given(hypergraphs(), st.data(), st.integers(0, 2**32 - 1))
    def test_thm3_bound_bit_for_bit(self, h, data, seed):
        rng = np.random.default_rng(seed)
        S = data.draw(st.lists(st.integers(0, h.num_nodes - 1)))
        bounds = {v: float(rng.uniform(0, 2)) for v in range(h.num_nodes) if v not in S}
        g, f, l, mu, nu, margin = rng.uniform(0.1, 2, 6).tolist()
        got = thm3_bound(h, S, bounds, margin, g, f, l, mu, nu)
        outside = reference_outside_term(h, S, bounds, g)
        M = len(set(S))
        value = (np.sqrt(2.0) * outside + np.sqrt(2.0 * M) * mu * f
                 + np.sqrt(2.0 * M) * nu * l) / (2.0 * margin)
        assert got.outside_term == outside and got.value == float(value)

    def test_thm3_tails_add_in_member_order(self):
        # 1e16 + 1 rounds back to 1e16, so only member order gives 1e16 here;
        # the reverse order would give 1e16 + 2
        h = DirectedHypergraph(4, (Hyperedge.uniform((0, 1, 2), (3,)),))
        bounds = {0: 1e16, 1: 1.0, 2: 1.0}
        got = thm3_bound(h, [3], bounds, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0)
        assert got.outside_term == reference_outside_term(h, [3], bounds, 1.0) == 1e16

    @pytest.mark.parametrize("bad", [-1, 3])
    def test_out_of_range_nodes_raise(self, bad):
        h = DirectedHypergraph(3, (Hyperedge.uniform((0,), (1, 2)),))
        with pytest.raises(NodeOutOfRange):
            h.entering([0, bad])
        with pytest.raises(NodeOutOfRange):
            thm3_bound(h, [1, bad], {0: 0.0}, 1.0, 1.0, 1.0, 1.0, 0.0, 0.0)
        with pytest.raises(NodeOutOfRange):
            one_sample_stack(h, [1, 2, bad])


def constant_matrix_system(A):
    """One linear node whose Jacobian is the constant matrix A."""
    A = np.asarray(A, dtype=float)
    n = A.shape[0]

    def f(x, mu):
        return x @ A.T

    def jx(x, mu):
        return np.broadcast_to(A, x.shape[:-1] + (n, n)).copy()

    field = vector_field_from_callable(f, n, np.zeros(1), jac_x=jx)
    h = DirectedHypergraph(1)
    return NetworkSystem(h, field, linear_coupling(1.0), identity_output(n))


def root_stack_for(A, samples):
    sys = constant_matrix_system(A)
    return root_stack(sys, (0,), samples)


def parabola_system():
    """Scalar node with f(x) = x^2 / 2, whose Jacobian at x is x."""
    field = vector_field_from_callable(
        lambda x, mu: 0.5 * x**2, 1, np.zeros(1), jac_x=lambda x, mu: x[..., None]
    )
    return NetworkSystem(DirectedHypergraph(1), field, linear_coupling(1.0), identity_output(1))


def ramp_jacobian_system(omega):
    """Scalar node whose Jacobian along the ramp trajectory x(t)=t equals
    -1 + 0.5*sin(omega * t)."""

    def f(x, mu):
        return -x + (0.5 / omega) * -np.cos(omega * x)

    def jx(x, mu):
        return (-1.0 + 0.5 * np.sin(omega * x[..., 0]))[..., None, None]

    field = vector_field_from_callable(f, 1, np.zeros(1), jac_x=jx)
    return NetworkSystem(DirectedHypergraph(1), field, linear_coupling(1.0), identity_output(1))


class TestCheckThm2:
    def test_constant_minus_identity_passes_at_margin_one(self):
        # -I has margin exactly one: the check passes at one less the
        # rounding slack, and at one itself, inside the slack, it fails
        stack = root_stack_for(-np.eye(2), np.zeros((3, 1, 2)))
        report = check_thm2(stack, h_req=1.0 - 2 * rounding_tol(2, 1.0))
        assert report.passed and report.theorem_used == "thm2"
        assert report.hurwitz_margin == pytest.approx(1.0)
        assert not check_thm2(stack, h_req=1.0).passed

    @given(st.integers(2, 6), st.floats(0.1, 10.0), st.floats(0.0, 0.9), st.integers(0, 5))
    def test_a_pass_holds_through_rounding(self, d, h_req, frac, at):
        # sym A_S = diag(top, -m, ...), and an antisymmetric pair makes
        # max|A_S| = m: a top within rounding_tol of -h fails the check, one
        # at -h - 2 tol passes it
        m = 2.0 * h_req + 1.0
        tol = rounding_tol(d, m)
        for top, passes in ((-h_req - frac * tol, False), (-h_req - 2.0 * tol, True)):
            A = np.diag(np.full(d, -m))
            A[at % d, at % d] = top
            A[0, 1], A[1, 0] = m, -m
            stack = root_stack_for(A, np.zeros((2, 1, d)))
            report = check_thm2(stack, h_req)
            assert stack.a_max[0] == m
            assert report.passed is passes
        # nothing passes at a magnitude that is not finite
        for magnitude in (np.inf, np.nan):
            assert not assembly.accepts(-1e300, d, magnitude, h_req)

    def test_positive_symmetric_part_fails(self):
        A = np.array([[0.5, 0.0], [0.0, -2.0]])
        report = check_thm2(root_stack_for(A, np.zeros((1, 1, 2))), h_req=0.1)
        assert not report.passed
        assert report.hurwitz_margin == pytest.approx(-0.5)

    def test_lorenz_gain_sweep_matches_eigen_sweep(self):
        h = DirectedHypergraph(1)
        sys = NetworkSystem(h, lorenz_field(), tanh_coupling(0.2, 0.05, 2), identity_output(3))
        rng = np.random.default_rng(31)
        samples = rng.uniform(-20, 20, (40, 1, 3))
        h_req = 2.0
        # brute-force oracle: smallest kappa with max lambda_max(sym(J)) - kappa <= -h
        lam = max(
            np.linalg.eigvalsh(0.5 * (J + J.T))[-1]
            for J in (sys.field.jac_x(s[0]) for s in samples)
        )
        kappas = np.arange(0.0, 40.0, 0.25)
        oracle = next(k for k in kappas if lam - k <= -h_req)
        checker = None
        stack = root_stack(sys, (0,), samples)
        for k in kappas:
            if check_thm2(stack, h_req, {(0, 0): k * np.eye(3)}).passed:
                checker = k
                break
        assert checker == pytest.approx(oracle)

    def test_pass_fail_invariant_under_node_permutation(self):
        rng = np.random.default_rng(32)
        for _ in range(10):
            h = random_hypergraph(rng, max_nodes=5)
            sys = random_system(rng, h)
            S = random_scc_union_subset(rng, h)
            samples = rng.uniform(-1, 1, (5, h.num_nodes, sys.state_dim))
            design = random_design(rng, sys, S)
            perm = list(S)
            rng.shuffle(perm)
            gains = design.gains
            r1 = check_thm2(root_stack(sys, S, samples), 0.5, gains)
            r2 = check_thm2(root_stack(sys, perm, samples), 0.5, gains)
            assert r1.passed == r2.passed
            assert r1.hurwitz_margin == pytest.approx(r2.hurwitz_margin, abs=1e-10)

    def test_empty_samples_rejected(self):
        with pytest.raises(EmptySampleSet):
            root_stack_for(-np.eye(2), np.zeros((0, 1, 2)))

    def test_gains_leave_the_zero_gain_stack_alone(self):
        rng = np.random.default_rng(33)
        h = DirectedHypergraph(2, (Hyperedge.uniform((0,), (1,), 2.0),))
        sys = NetworkSystem(h, lorenz_field(), tanh_coupling(0.2, 0.05, 2), identity_output(3))
        stack = root_stack(sys, (0, 1), rng.uniform(-5, 5, (6, 2, 3)))
        before = root_rows(stack).copy()
        gains = {(0, 0): 5.0 * np.eye(3), (1, 0): rng.normal(0, 1, (3, 3))}
        check_thm2(stack, 1.0, gains)
        np.testing.assert_array_equal(root_rows(stack), before)

    def test_scalar_hand_derived_margin(self):
        # J(x) = x along a ramp from -3 to -1.5: the worst sample is the
        # last, so the margin is 1.5 exactly, and a margin of 1.5 itself
        # lies inside the rounding slack
        stack = root_stack(parabola_system(), (0,), np.linspace(-3.0, -1.5, 7).reshape(7, 1, 1))
        report = check_thm2(stack, 1.0)
        assert report == CertificationReport("thm2", 1.5, 7, 0.0)
        assert stack.a_max[0] == 3.0
        assert not check_thm2(stack, 1.5).passed

    def test_margin_reads_the_worst_sample_at_any_variation_speed(self):
        # the check bounds sym A_S at each sample alone, so how fast A_S
        # varies along the trajectory does not enter it: A_S <= -0.5 at
        # every sample, and a margin of 0.2 passes at every speed
        t = np.arange(60) * 0.01
        for omega in (0.05, 0.2, 0.8, 2.0, 5.0, 20.0):
            stack = root_stack(ramp_jacobian_system(omega), (0,), t.reshape(-1, 1, 1))
            worst = float((-1.0 + 0.5 * np.sin(omega * t)).max())
            report = check_thm2(stack, 0.2)
            assert report.hurwitz_margin == -worst and report.passed
        assert report.hurwitz_margin == pytest.approx(0.5, abs=1e-3)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_state_fails_without_raising(self, bad):
        # the symmetric part of a sample with a non-finite entry reads +inf,
        # and max|A_S| is not finite, so no margin passes, with no warning
        states = np.full((4, 1, 1), -2.0)
        states[2, 0, 0] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = check_thm2(root_stack(parabola_system(), (0,), states), 1.0)
        assert report == CertificationReport("none", -np.inf, 4, 0.0)

    def test_pooled_trajectories_read_the_worst_of_each(self):
        # four ramps along J(x) = x, stacked as one sample set: its rows are
        # each ramp's own, and its report pools theirs; the third ramp
        # reaches 0 and fails the margin
        sys = parabola_system()
        trajs = [np.linspace(a, a + 1.0, 5).reshape(5, 1, 1) for a in (-3.0, -2.5, -1.0, -4.0)]
        alone = [root_stack(sys, (0,), x) for x in trajs]
        for count in (2, 4):
            stack = root_stack(sys, (0,), np.concatenate(trajs[:count]))
            for t, e in enumerate(alone[:count]):
                np.testing.assert_array_equal(root_rows(stack)[5 * t : 5 * t + 5], root_rows(e))
                np.testing.assert_array_equal(stack.g[:, 5 * t : 5 * t + 5], e.g)
            reps = [check_thm2(e, 1.0) for e in alone[:count]]
            assert [r.passed for r in reps] == [True, True, False, True][:count]
            assert check_thm2(stack, 1.0) == CertificationReport(
                "thm2" if all(r.passed for r in reps) else "none",
                min(r.hurwitz_margin for r in reps),
                sum(r.sample_count for r in reps),
                max(r.g_bound for r in reps),
            )

    def test_infinite_coupling_bound_fails_any_margin(self):
        # an unbounded coupling Jacobian voids the certificate whatever the
        # symmetric part reads
        for g_bound, passed in ((0.5, True), (np.inf, False), (np.nan, False)):
            report = assembly.thm2_report(-10.0, g_bound, 3, 1.0, 2, 10.0)
            assert report.passed is passed and report.hurwitz_margin == 10.0

    @pytest.mark.parametrize("h_req", [0.0, -1.0])
    def test_nonpositive_margin_rejected(self, h_req):
        stack = root_stack_for(-np.eye(2), np.zeros((2, 1, 2)))
        with pytest.raises(NonpositiveMargin):
            check_thm2(stack, h_req)
        with pytest.raises(NonpositiveMargin):
            assembly.thm2_report(-1.0, 0.0, 2, h_req, 2, 1.0)

    @given(st.integers(1, 200), st.floats(0.0, 1e6), st.floats(1e-6, 1e3),
           st.floats(-1e6, 1e6), st.floats(0.0, 1e3))
    def test_refutation_and_acceptance_exclude_each_other(self, d, magnitude, h_req, floor,
                                                          above):
        # a floor is at most the worst value it bounds: no worst value at
        # or above a refuting floor is accepted at the same margin
        worst = floor + above
        assert not (assembly.refutes(floor, d, magnitude, h_req)
                    and assembly.accepts(worst, d, magnitude, h_req))


def same_floats(got: np.ndarray, expect: np.ndarray) -> bool:
    """Equal bit for bit, any NaN equal to any NaN."""
    nan = np.isnan(expect)
    return bool((np.isnan(got) == nan).all()) and bit_pattern(got[~nan]) == bit_pattern(expect[~nan])


@st.composite
def sample_stacks(draw):
    """(R, K, d, d) stacks whose top eigenvalues tie exactly or within
    rounding across samples, some with a NaN or infinite entry, d = 1 and
    K <= SEED_COUNT among them."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    R, K, d = draw(st.integers(1, 3)), draw(st.integers(1, 40)), draw(st.integers(1, 6))
    scale = draw(st.sampled_from([1e-3, 1.0, 1e3, 1e150]))
    A = rng.normal(0.0, 1.0, (R, K, d, d)) * scale
    A -= rng.uniform(0, 3, (R, K, 1, 1)) * scale * np.eye(d)
    for r in range(R):
        # a sample copied (an exact tie) and one moved by about an ulp
        i, j, k = rng.integers(0, K, 3)
        A[r, j] = A[r, i]
        A[r, k] = A[r, i] * (1.0 + rng.choice([-1, 1]) * 2.0**-52)
    for value in draw(st.lists(st.sampled_from([np.nan, np.inf, -np.inf]), max_size=2)):
        A[tuple(rng.integers(0, A.shape))] = value
    return A


def pulled_chunks(A: np.ndarray, step: int, pulled: list):
    """The (R, K, d, d) stack A in chunks of ``step`` samples, each chunk's
    first sample appended to ``pulled`` when the chunk is pulled."""
    for lo in range(0, A.shape[1], step):
        pulled.append(lo)
        yield A[:, lo : lo + step]


class TestTopEigMax:
    @given(sample_stacks(), st.sampled_from([None, 1, 3]))
    def test_equals_eigvalsh_over_every_sample(self, chunk_budget, A, chunk):
        # a root holding a sample whose symmetric part has a non-finite entry
        # reads +inf; the others read the max over eigvalsh of every sample,
        # whether the samples come whole or in chunks
        R, K, d = A.shape[:3]
        budget = dynamics.CHUNK_BYTES if chunk is None else 4 * 8 * d * d * chunk
        step = K if chunk is None else chunk
        with chunk_budget(budget), warnings.catch_warnings():
            warnings.simplefilter("error")
            # chunks of a few samples, screened a few at a time: every loop
            # runs more than once
            got = assembly.top_eig_max(A[:, lo : lo + step] for lo in range(0, K, step))
        with np.errstate(over="ignore", invalid="ignore"):
            finite = np.isfinite(A + A.transpose(0, 1, 3, 2)).all(axis=(1, 2, 3))
        assert (got[~finite] == np.inf).all()
        assert same_floats(got[finite], assembly.symmetric_top_eig(A[finite]).max(axis=1))

    def test_non_finite_sample_fails_the_check(self):
        # a NaN on the diagonal made eigvalsh return finite values that mean
        # nothing, a NaN off it made it raise: both samples now read +inf,
        # and neither reaches eigvalsh
        for at in ((0, 0), (0, 1)):
            A = np.tile(-5.0 * np.eye(3), (1, 4, 1, 1))
            A[0, 2][at] = np.nan
            with pytest.MonkeyPatch.context() as mp:
                real = np.linalg.eigvalsh
                mp.setattr(np.linalg, "eigvalsh",
                           lambda m: real(m) if np.isfinite(m).all() else None)
                assert assembly.top_eig_max([A]).tolist() == [np.inf]
            stack = root_stack_for(np.zeros((3, 3)), np.zeros((4, 1, 3)))
            hold_rows(stack, A)
            report = check_thm2(stack, 1.0)
            assert report.theorem_used == "none" and report.hurwitz_margin == -np.inf

    def test_screen_spares_most_samples(self, monkeypatch):
        # one sample stands out: the seeds find a max near it, and the
        # Cholesky screen rules out most of the others without eigvalsh
        rng = np.random.default_rng(3)
        A = rng.normal(0, 1, (1, 400, 6, 6)) - 10 * np.eye(6)
        A[0, 200] += 5 * np.eye(6)
        evaluated = []
        real = assembly.symmetric_top_eig
        monkeypatch.setattr(assembly, "symmetric_top_eig",
                            lambda m: evaluated.append(m.shape[0] * m.shape[1] if m.ndim == 4
                                                       else m.shape[0]) or real(m))
        got = assembly.top_eig_max([A])
        assert got[0] == real(A[0]).max()
        assert sum(evaluated) < 40

    @pytest.mark.parametrize("d", [2, 3])
    def test_no_chunk_is_pulled_once_every_root_reads_inf(self, d):
        # a NaN in the first chunk of the one root: the max is +inf, and the
        # four chunks after it are never assembled
        A = np.tile(-5.0 * np.eye(d), (1, 10, 1, 1))
        A[0, 1, 0, 0] = np.nan
        pulled = []
        assert assembly.top_eig_max(pulled_chunks(A, 2, pulled)).tolist() == [np.inf]
        assert pulled == [0]

    @pytest.mark.parametrize("d", [2, 3])
    def test_an_inf_root_leaves_the_other_roots_reading(self, d):
        # root 0 reads +inf in the first chunk; root 1's max sits in the last
        # chunk, so every chunk is pulled, and it reads eigvalsh's max
        rng = np.random.default_rng(21)
        A = rng.normal(0, 1, (2, 10, d, d)) - 5.0 * np.eye(d)
        A[0, 0, 0, 0] = np.inf
        A[1, 9] += 4.0 * np.eye(d)
        pulled = []
        got = assembly.top_eig_max(pulled_chunks(A, 2, pulled))
        assert got[0] == np.inf and got[1] == assembly.symmetric_top_eig(A[1]).max()
        assert pulled == [0, 2, 4, 6, 8]

    def test_check_thm2_reads_the_max_of_every_sample(self):
        rng = np.random.default_rng(5)
        A = rng.normal(0, 1, (300, 2, 2)) - 2.0 * np.eye(2)
        stack = root_stack_for(np.zeros((2, 2)), np.zeros((300, 1, 2)))
        hold_rows(stack, A[None])
        report = check_thm2(stack, 0.1)
        assert -report.hurwitz_margin == float(assembly.symmetric_top_eig(A).max())
        assert stack.a_max[0] == np.abs(A).max()

    def test_cholesky_failures_come_back_as_nan_rows(self):
        # the screen's verdict per sample comes from one batched LAPACK
        # factorization: a matrix that is not positive definite yields NaN
        # rows with no warning or error, the others numpy's factor
        rng = np.random.default_rng(9)
        B = rng.normal(0, 1, (6, 4, 4))
        M = B @ B.transpose(0, 2, 1) + 0.1 * np.eye(4)
        M[[1, 4]] -= 50 * np.eye(4)
        M[3, 2, 2] = -1.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(invalid="ignore", over="ignore"):
                L = assembly.cholesky_lo(M)
        failed = [1, 3, 4]
        assert np.isnan(np.diagonal(L[failed], axis1=1, axis2=2)).any(axis=1).all()
        ok = [0, 2, 5]
        np.testing.assert_array_equal(L[ok], np.linalg.cholesky(M[ok]))

    def test_one_by_one_eigvalsh_returns_the_entry(self):
        # symmetric_top_eig takes a 1 x 1 matrix's entry for its eigenvalue
        rng = np.random.default_rng(11)
        x = rng.normal(size=2000) * 10.0 ** rng.integers(-300, 300, 2000)
        x = np.concatenate([x, [0.0, -0.0, np.inf, -np.inf, 5e-324, 1.7e308]])
        got = np.linalg.eigvalsh(x[:, None, None])[:, 0]
        assert bit_pattern(got) == bit_pattern(x)
        assert np.isnan(np.linalg.eigvalsh(np.full((1, 1, 1), np.nan))).all()


class TestStackRoots:
    def test_package_exports_the_constructor_beside_the_class(self):
        sys = random_system(np.random.default_rng(0), DirectedHypergraph(2))
        stack = hyperobs.stack_roots(sys, [(0, 1)], np.zeros((3, 2, sys.state_dim)))
        assert isinstance(stack, assembly.RootStack) and assembly.one_root(stack) == (0, 1)
        assert isinstance(check_thm2(stack, 1e-3), CertificationReport)
        assert not hasattr(hyperobs, "ErrorSystem") and not hasattr(assembly, "ErrorSystem")

    def test_checks_and_synthesis_refuse_a_stack_of_two_roots(self):
        sys = NetworkSystem(DirectedHypergraph(2), lorenz_field(), tanh_coupling(0.2, 0.05, 2),
                            linear_output([[1, 0, 0], [0, 1, 0]]))
        stack = assembly.stack_roots(sys, [(0,), (1,)], np.ones((3, 2, 3)))
        with pytest.raises(ValueError, match="a stack of 2 roots, expected one"):
            check_thm2(stack, 1.0)
        with pytest.raises(ValueError, match="a stack of 2 roots, expected one"):
            hyperobs.design_gain_thm2(stack, [0], 1.0)
        with pytest.raises(ValueError, match="a stack of 2 roots, expected one"):
            GainProblem(stack, [0])
        # none of them assembled a sample
        assert stack.a is None and not stack._read.any()

    @given(hypergraphs(), st.integers(0, 2**32 - 1))
    def test_each_root_equals_its_own_error_system(self, h, seed):
        # the roots of the first design pass, grouped by size, stacked
        rng = np.random.default_rng(seed)
        sys = random_system(rng, h)
        src, dst = dependency_arcs(h)
        label = np.full(h.num_nodes, -1, dtype=np.intp)
        label_components(src, dst, range(h.num_nodes), label)
        roots = condense(src, dst, label, np.ones(h.num_nodes, dtype=bool))
        X = rng.uniform(-3, 3, (int(rng.integers(1, 4)), h.num_nodes, sys.state_dim))
        for size in {len(S) for S in roots}:
            group = [S for S in roots if len(S) == size]
            stack = assembly.stack_roots(sys, group, X)
            assert stack.a is None and stack.rows(slice(None)) is stack.a
            assert stack.a.shape == (len(group), len(X), size * sys.state_dim,
                                     size * sys.state_dim)
            upstream = set()
            for r, S in enumerate(group):
                alone = root_stack(sys, S, X)
                assert tuple(stack.roots[r].tolist()) == S
                assert bit_pattern(stack.a[r]) == bit_pattern(root_rows(alone))
                assert bit_pattern(stack.g[r]) == bit_pattern(alone.g[0])
                assert bit_pattern(stack.a_max[r]) == bit_pattern(alone.a_max[0])
                # the root's own slice, which select_node reads without a stack
                for name in ("edges", "ptr", "members", "position"):
                    got, expect = getattr(h.entering(S), name), getattr(alone.entering, name)
                    assert got.tolist() == expect.tolist()
                upstream |= upstream_tails(h, S)
            assert set(stack.upstream.tolist()) == upstream

    @given(hypergraphs(max_nodes=12, max_edges=10), st.data(), st.integers(0, 2**32 - 1))
    def test_disjoint_subsets_equal_their_own_error_systems(self, h, data, seed):
        # any disjoint subsets of one size, head-closed modulo the nodes
        # outside them, as the roots of a pass are modulo the exact nodes
        rng = np.random.default_rng(seed)
        size = data.draw(st.integers(1, max(1, h.num_nodes // 2)))
        order = rng.permutation(h.num_nodes)
        count = data.draw(st.integers(1, h.num_nodes // size))
        roots = [tuple(order[k * size:(k + 1) * size].tolist()) for k in range(count)]
        zero = frozenset(range(h.num_nodes)) - set(order[:count * size].tolist())
        sys = random_system(rng, h)
        X = rng.uniform(-3, 3, (int(rng.integers(1, 4)), h.num_nodes, sys.state_dim))
        try:
            alone = [root_stack(sys, S, X, zero) for S in roots]
        except SubsetNotHeadClosed:
            with pytest.raises(SubsetNotHeadClosed):
                assembly.stack_roots(sys, roots, X, zero)
            return
        stack = assembly.stack_roots(sys, roots, X, zero)
        for r, (S, own) in enumerate(zip(roots, alone)):
            assert bit_pattern(stack.rows(slice(None))[r]) == bit_pattern(root_rows(own))
            assert bit_pattern(stack.g[r]) == bit_pattern(own.g[0])
            assert bit_pattern(stack.a_max[r]) == bit_pattern(own.a_max[0])
            assert h.entering(S).position.tolist() == own.entering.position.tolist()

    def test_roots_of_two_sizes_or_joined_by_an_edge_are_refused(self):
        h = DirectedHypergraph(3, (Hyperedge.uniform((0,), (1,)),))
        sys = NetworkSystem(h, lorenz_field(), tanh_coupling(0.2, 0.05, 2), identity_output(3))
        X = np.zeros((2, 3, 3))
        with pytest.raises(ValueError, match="one size"):
            assembly.stack_roots(sys, [(0,), (1, 2)], X)
        # node 1's edge has its tail in root (0,): that tail is outside (1,)
        stack = assembly.stack_roots(sys, [(0,), (1,)], X)
        assert stack.upstream.tolist() == [0]
        bad = DirectedHypergraph(3, (Hyperedge.uniform((0,), (1, 2)),))
        sys = NetworkSystem(bad, lorenz_field(), tanh_coupling(0.2, 0.05, 2), identity_output(3))
        with pytest.raises(SubsetNotHeadClosed, match=r"\(1,\)"):
            assembly.stack_roots(sys, [(1,), (2,)], X)
        # a head in another root is refused even when called error-free
        with pytest.raises(SubsetNotHeadClosed, match=r"\(1,\)"):
            assembly.stack_roots(sys, [(1,), (2,)], X, frozenset({0, 1, 2}))


class TestThm3Bound:
    def chain_graph(self):
        return DirectedHypergraph(
            3, (Hyperedge.uniform((0,), (1,), 2.0), Hyperedge.uniform((1,), (2,), 3.0))
        )

    def test_zero_inputs_zero_bound(self):
        h = self.chain_graph()
        b = thm3_bound(h, [1, 2], {0: 0.0}, margin=1.0, g_bound=1.0,
                       f_bound=1.0, l_bound=1.0, mu_bar=0.0, nu_bar=0.0)
        assert b.value == 0.0

    def test_single_node_parameter_term(self):
        h = DirectedHypergraph(1)
        b = thm3_bound(h, [0], {}, margin=1.0, g_bound=0.0, f_bound=1.0,
                       l_bound=0.0, mu_bar=0.1, nu_bar=0.0)
        assert b.value == pytest.approx(np.sqrt(2) * 0.1 / 2)

    def test_noise_term_linearity(self):
        h = self.chain_graph()
        kw = dict(margin=2.0, g_bound=1.0, f_bound=0.5, l_bound=3.0, mu_bar=0.0)
        b1 = thm3_bound(h, [2], {1: 0.0}, nu_bar=0.3, **kw)
        b2 = thm3_bound(h, [2], {1: 0.0}, nu_bar=0.6, **kw)
        assert b2.value == pytest.approx(2 * b1.value)

    def test_outside_tail_term(self):
        h = self.chain_graph()
        b = thm3_bound(h, [1], {0: 0.5}, margin=1.0, g_bound=2.0, f_bound=0.0,
                       l_bound=0.0, mu_bar=0.0, nu_bar=0.0)
        # bbar = g * sigma * B_0 = 2 * 2 * 0.5
        assert b.value == pytest.approx(np.sqrt(2) * 2.0 / 2.0)

    def test_nonpositive_margin_rejected(self):
        with pytest.raises(NonpositiveMargin):
            thm3_bound(self.chain_graph(), [1], {0: 0.0}, margin=0.0, g_bound=1,
                       f_bound=1, l_bound=1, mu_bar=0, nu_bar=0)

    @given(
        st.floats(0.1, 5), st.floats(0, 2), st.floats(0, 2), st.floats(0, 2),
        st.floats(0, 2), st.floats(0, 2), st.floats(0, 3),
    )
    def test_monotonicity(self, margin, g, f, l, mu, nu, upstream):
        h = self.chain_graph()

        def bound(**over):
            kw = dict(margin=margin, g_bound=g, f_bound=f, l_bound=l,
                      mu_bar=mu, nu_bar=nu)
            up = {0: upstream}
            kw.update(over)
            return thm3_bound(h, [1], up, **kw).value

        base = bound()
        assert bound(mu_bar=mu + 0.5) >= base
        assert bound(nu_bar=nu + 0.5) >= base
        assert bound(g_bound=g + 0.5) >= base
        assert bound(f_bound=f + 0.5) >= base
        assert bound(l_bound=l + 0.5) >= base
        assert bound(margin=margin + 0.5) <= base
