import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperobs import (
    DirectedHypergraph,
    EmptySampleSet,
    GainSet,
    Hyperedge,
    MissingOutsideError,
    NetworkSystem,
    NonpositiveMargin,
    ObserverDesign,
    SubsetIndex,
    SubsetNotHeadClosed,
    SubsetTooLarge,
    check_head_closed,
    check_thm1,
    check_thm2,
    condense,
    identity_output,
    linear_coupling,
    linear_output,
    lorenz_field,
    tanh_coupling,
    thm3_bound,
)
from hyperobs import assembly
from hyperobs.assembly import KRON_CAP, CertificationReport, ErrorSystem, apply_gains, kron_sum
from hyperobs.gain_design import GainProblem
from hyperobs.hypergraph import to_dependency_graph
from conftest import (
    fd_jacobian,
    hypergraphs,
    network_rhs,
    observer_rhs,
    random_hypergraph,
    random_system,
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
    cond = condense(to_dependency_graph(h))
    k = int(rng.integers(1, len(cond.members) + 1))
    chosen = rng.choice(len(cond.members), size=k, replace=False)
    nodes = sorted(v for s in chosen for v in cond.members[s])
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
    return ObserverDesign(frozenset(measured), GainSet(gains))


def a_with_design(sys, design, nodes, states, zero_error_nodes=frozenset()):
    """A_S with the design's gain blocks, stacked over the samples."""
    sub = SubsetIndex(tuple(nodes))
    A = ErrorSystem(sys, sub, states, zero_error_nodes).a
    return apply_gains(A, sub, design.gains.entries, sys.output.matrix)


class TestAssembleA:
    def test_single_uncoupled_unmeasured_node(self):
        h = DirectedHypergraph(1)
        sys = NetworkSystem(h, lorenz_field(), tanh_coupling(0.2, 0.05, 2), identity_output(3))
        xh = np.array([1.0, 2.0, 3.0])
        A = ErrorSystem(sys, SubsetIndex((0,)), xh).a[0]
        np.testing.assert_allclose(A, sys.field.jac_x(xh), atol=1e-14)

    def test_single_measured_node_identity_output(self):
        h = DirectedHypergraph(1)
        sys = NetworkSystem(h, lorenz_field(), tanh_coupling(0.2, 0.05, 2), identity_output(3))
        kappa = 7.0
        design = ObserverDesign(frozenset({0}), GainSet({(0, 0): kappa * np.eye(3)}))
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
            ErrorSystem(sys, SubsetIndex((1,)), np.zeros(3))
        # tolerated when the missing head carries zero error
        err = ErrorSystem(sys, SubsetIndex((1,)), np.zeros(3), frozenset({2}))
        A = err.a[0]
        assert A.shape == (1, 1)

    def test_external_gain_column_rejected(self):
        h = DirectedHypergraph(2)
        sys = random_system(np.random.default_rng(2), h, field_kind="bistable")
        err = ErrorSystem(sys, SubsetIndex((0,)), np.zeros((1, 2, 1)))
        # a gain from measured node 1 into the subset {0} would couple it to
        # an error outside the subset
        with pytest.raises(ValueError):
            check_thm2(err, 1.0, {(0, 1): np.eye(1)})
        with pytest.raises(ValueError):
            apply_gains(np.zeros((1, 1, 1)), err.subset, {(1, 0): np.eye(1)}, np.eye(1))


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
            prob = GainProblem(ErrorSystem(sys, SubsetIndex(tuple(S)), samples), design.measured)
            A_gains = prob.a_with_gains(dict(design.gains.entries))
            for k, xh in enumerate(samples.reshape(3, -1)):
                e = rng.normal(0, 1, xh.size)
                expect = linearized_rhs_by_rows(sys, design, xh, e)
                scale = max(1.0, np.linalg.norm(expect))
                assert np.linalg.norm(A[k] @ e - expect) <= 1e-12 * scale
                assert np.linalg.norm(A_gains[k] @ e - expect) <= 1e-12 * scale


class TestCouplingJacBound:
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
        bound = ErrorSystem(sys, SubsetIndex(tuple(S)), samples).g
        incoming = list(h.incoming_closure(S))
        if not incoming:
            np.testing.assert_array_equal(bound, np.zeros(len(samples)))
            return
        dg = sys.coupling.deriv(sys.edge_arguments(samples, incoming))
        dense = dg[..., :, None] * np.eye(sys.state_dim)
        # per sample: the largest singular value over the incoming edges
        expect = np.linalg.svd(dense, compute_uv=False)[..., 0].max(axis=-1)
        np.testing.assert_allclose(bound, expect, rtol=1e-15, atol=0)


class TestHeadClosed:
    def test_full_set_closed(self):
        h = random_hypergraph(np.random.default_rng(4))
        assert check_head_closed(h, range(h.num_nodes))

    def test_partial_heads_not_closed(self):
        h = DirectedHypergraph(3, (Hyperedge.uniform((0,), (1, 2)),))
        assert not check_head_closed(h, [1])
        assert check_head_closed(h, [1], ignoring=[2])
        assert check_head_closed(h, [1, 2])

    def test_scc_unions_are_head_closed(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            h = random_hypergraph(rng)
            S = random_scc_union_subset(rng, h)
            assert check_head_closed(h, S)


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


def error_system_for(A, samples):
    sys = constant_matrix_system(A)
    return ErrorSystem(sys, SubsetIndex((0,)), samples)


class TestCheckThm2:
    def test_constant_minus_identity_passes_at_margin_one(self):
        err = error_system_for(-np.eye(2), np.zeros((3, 1, 2)))
        report = check_thm2(err, h_req=1.0)
        assert report.passed and report.theorem_used == "thm2"
        assert report.hurwitz_margin == pytest.approx(1.0)

    def test_positive_symmetric_part_fails(self):
        A = np.array([[0.5, 0.0], [0.0, -2.0]])
        report = check_thm2(error_system_for(A, np.zeros((1, 1, 2))), h_req=0.1)
        assert not report.passed
        assert report.worst_value == pytest.approx(0.5)

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
        err = ErrorSystem(sys, SubsetIndex((0,)), samples)
        for k in kappas:
            if check_thm2(err, h_req, {(0, 0): k * np.eye(3)}).passed:
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
            gains = design.gains.entries
            r1 = check_thm2(ErrorSystem(sys, SubsetIndex(tuple(S)), samples), 0.5, gains)
            r2 = check_thm2(ErrorSystem(sys, SubsetIndex(tuple(perm)), samples), 0.5, gains)
            assert r1.passed == r2.passed
            assert r1.worst_value == pytest.approx(r2.worst_value, abs=1e-10)

    def test_empty_samples_rejected(self):
        with pytest.raises(EmptySampleSet):
            error_system_for(-np.eye(2), np.zeros((0, 1, 2)))

    def test_gains_leave_the_zero_gain_stack_alone(self):
        rng = np.random.default_rng(33)
        h = DirectedHypergraph(2, (Hyperedge.uniform((0,), (1,), 2.0),))
        sys = NetworkSystem(h, lorenz_field(), tanh_coupling(0.2, 0.05, 2), identity_output(3))
        err = ErrorSystem(sys, SubsetIndex((0, 1)), rng.uniform(-5, 5, (6, 2, 3)))
        before = err.a.copy()
        gains = {(0, 0): 5.0 * np.eye(3), (1, 0): rng.normal(0, 1, (3, 3))}
        check_thm2(err, 1.0, gains)
        np.testing.assert_array_equal(err.a, before)


def ramp_jacobian_system(omega):
    """Scalar node whose Jacobian along the ramp trajectory x(t)=t equals
    -1 + 0.5*sin(omega * t)."""

    def f(x, mu):
        return -x + (0.5 / omega) * -np.cos(omega * x)

    def jx(x, mu):
        return (-1.0 + 0.5 * np.sin(omega * x[..., 0]))[..., None, None]

    field = vector_field_from_callable(f, 1, np.zeros(1), jac_x=jx)
    h = DirectedHypergraph(1)
    return NetworkSystem(h, field, linear_coupling(1.0), identity_output(1))


def parabola_system():
    """Scalar node with f(x) = x^2 / 2, whose Jacobian at x is x."""
    field = vector_field_from_callable(
        lambda x, mu: 0.5 * x**2, 1, np.zeros(1), jac_x=lambda x, mu: x[..., None]
    )
    return NetworkSystem(DirectedHypergraph(1), field, linear_coupling(1.0), identity_output(1))


class TestCheckThm1:
    def test_constant_hurwitz_passes_any_eps(self):
        A = np.array([[-1.0, 2.0], [0.0, -3.0]])
        err = error_system_for(A, np.zeros((10, 1, 2)))
        for eps in (0.1, 0.5, 0.9):
            report = check_thm1(err, dt=0.01, h_req=0.5, eps_req=eps)
            assert report.passed
            assert report.h2_margin > 0

    def test_scalar_hand_derived_bound(self):
        a = 1.7
        err = error_system_for(np.array([[-a]]), np.zeros((5, 1, 1)))
        report = check_thm1(err, dt=0.1, h_req=1.0, eps_req=0.3)
        # dA/dt = 0, so the slack equals the bound 2*a^2*(1-eps)
        assert report.h2_margin == pytest.approx(2 * a**2 * (1 - 0.3), rel=1e-12)

    def test_fast_variation_fails_above_threshold_found_by_sweep(self):
        dt = 0.01
        t = np.arange(60) * dt

        def analytic_pass(omega):
            A = -1.0 + 0.5 * np.sin(omega * t)
            lhs = np.abs(np.diff(A)) / dt
            rhs = (2.0 * np.abs(A[:-1])) ** 2 / 2.0 * (1 - 0.5)
            return bool(np.all(rhs - lhs > 0)) and np.all(A <= -0.2)

        results = {}
        for omega in [0.05, 0.2, 0.8, 2.0, 5.0, 20.0]:
            sys = ramp_jacobian_system(omega)
            err = ErrorSystem(sys, SubsetIndex((0,)), t.reshape(-1, 1, 1))
            report = check_thm1(err, dt=dt, h_req=0.2, eps_req=0.5)
            results[omega] = report.passed
            assert report.passed == analytic_pass(omega)
        assert results[0.05] and not results[20.0]

    def test_h2_skipped_once_h1_fails(self, monkeypatch):
        calls = []

        def counted_kron_sum(a):
            calls.append(a)
            return kron_sum(a)

        monkeypatch.setattr(assembly, "kron_sum", counted_kron_sum)
        sys = parabola_system()
        sub = SubsetIndex((0,))
        failed = check_thm1(ErrorSystem(sys, sub, np.zeros((4, 1, 1))), dt=0.1, h_req=1.0)
        assert not failed.passed and failed.h2_margin is None
        assert calls == []
        passed = check_thm1(ErrorSystem(sys, sub, np.full((4, 1, 1), -2.0)), dt=0.1, h_req=1.0)
        assert passed.passed and passed.h2_margin == pytest.approx(2 * 2.0**2 * 0.5)
        assert len(calls) == 3
        # the trajectory merge carries the skipped H2 through as None
        states = np.concatenate([np.full((4, 1, 1), -2.0), np.zeros((4, 1, 1))])
        merged = check_thm1(ErrorSystem(sys, sub, states), dt=0.1, h_req=1.0, length=4, count=2)
        assert merged.trajectory_ids == (0, 1)
        assert not merged.passed and merged.h2_margin is None

    def test_stack_rows_match_per_trajectory_checks(self):
        # four ramps along J(x) = x: two pass both hypotheses, the third fails
        # H1, so the fourth is never checked
        sys = parabola_system()
        sub = SubsetIndex((0,))
        trajs = [np.linspace(a, a + 1.0, 5).reshape(5, 1, 1) for a in (-3.0, -2.5, -1.0, -4.0)]
        err = ErrorSystem(sys, sub, np.concatenate(trajs))
        alone = [ErrorSystem(sys, sub, x) for x in trajs]
        for t, e in enumerate(alone):
            np.testing.assert_array_equal(err.a[5 * t : 5 * t + 5], e.a)
            np.testing.assert_array_equal(err.g[5 * t : 5 * t + 5], e.g)
        for count, checked in ((2, 2), (4, 3)):
            reps = [check_thm1(e, dt=0.1, h_req=1.0) for e in alone[:checked]]
            assert [r.passed for r in reps] == [True] * 2 + [False] * (checked - 2)
            merged = check_thm1(err, dt=0.1, h_req=1.0, length=5, count=count)
            h2 = [r.h2_margin for r in reps]
            assert merged == CertificationReport(
                "thm1" if all(r.passed for r in reps) else "none",
                min(r.hurwitz_margin for r in reps),
                max(r.worst_value for r in reps),
                5 * checked,
                None if None in h2 else min(h2),
                max(r.g_bound for r in reps),
                tuple(range(checked)),
            )

    def test_subset_too_large(self):
        err = error_system_for(-np.eye(KRON_CAP + 1), np.zeros((3, 1, KRON_CAP + 1)))
        with pytest.raises(SubsetTooLarge):
            check_thm1(err, 0.01, 1.0)


class TestKroneckerSum:
    @given(st.integers(0, 2**32 - 1), st.integers(1, 12))
    @settings(max_examples=30)
    def test_spectrum_is_pairwise_sums(self, seed, dim):
        rng = np.random.default_rng(seed)
        A = rng.normal(0, 1, (dim, dim))
        lam = np.linalg.eigvals(A)
        pairwise = list((lam[:, None] + lam[None, :]).reshape(-1))
        got = np.linalg.eigvals(kron_sum(A))
        # multiset comparison by greedy nearest matching (conjugate pairs make
        # a plain complex sort order-unstable)
        for v in got:
            k = int(np.argmin(np.abs(np.array(pairwise) - v)))
            assert abs(pairwise[k] - v) < 1e-9
            pairwise.pop(k)


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
