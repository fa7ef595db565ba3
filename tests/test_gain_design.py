import numpy as np
import pytest

from hyperobs import (
    DirectedHypergraph,
    ErrorSystem,
    GainSet,
    Hyperedge,
    Infeasible,
    NetworkSystem,
    NoMeasuredNodes,
    SubsetIndex,
    check_thm2,
    design_gain_thm2,
    identity_output,
    linear_coupling,
    linear_output,
    lorenz_field,
    tanh_coupling,
)
from hyperobs.gain_design import GainProblem
from conftest import random_hypergraph, random_system, vector_field_from_callable


def scalar_linear_field(a):
    def f(x, mu):
        return a * x

    def jx(x, mu):
        return np.full(x.shape[:-1] + (1, 1), a)

    return vector_field_from_callable(f, 1, np.zeros(1), jac_x=jx)


def scalar_node_system(a=2.0):
    h = DirectedHypergraph(1)
    return NetworkSystem(h, scalar_linear_field(a), linear_coupling(1.0), identity_output(1))


def scalar_chain_system(a=1.0, sigma=4.0):
    """Two scalar nodes with slope ``a``, hyperedge 0 -> 1 with diffusive
    coupling of strength ``sigma`` (which stabilizes the downstream node)."""
    h = DirectedHypergraph(2, (Hyperedge.uniform((0,), (1,), sigma),))
    return NetworkSystem(h, scalar_linear_field(a), linear_coupling(1.0),
                         identity_output(1))


class TestDesignThm2:
    def test_scalar_unstable_node(self):
        sys = scalar_node_system(a=2.0)
        samples = np.zeros((3, 1, 1))
        gains = design_gain_thm2(ErrorSystem(sys, SubsetIndex((0,)), samples), [0], h_req=1.0)
        L = gains[(0, 0)][0, 0]
        assert L >= 3.0
        assert 2.0 - L <= -1.0

    def test_already_certified_returns_zero_gains(self):
        sys = scalar_node_system(a=-5.0)
        err = ErrorSystem(sys, SubsetIndex((0,)), np.zeros((2, 1, 1)))
        gains = design_gain_thm2(err, [0], h_req=1.0)
        assert len(gains) == 0

    def test_no_measured_nodes_raises(self):
        sys = scalar_node_system(a=2.0)
        with pytest.raises(NoMeasuredNodes):
            design_gain_thm2(ErrorSystem(sys, SubsetIndex((0,)), np.zeros((2, 1, 1))), [],
                             h_req=1.0)

    def test_budget_exhaustion_is_infeasible(self):
        sys = scalar_node_system(a=50.0)
        with pytest.raises(Infeasible):
            design_gain_thm2(ErrorSystem(sys, SubsetIndex((0,)), np.zeros((2, 1, 1))), [0],
                             h_req=100.0, max_iters=1)

    def test_returned_gains_recertify_on_same_samples(self):
        rng = np.random.default_rng(40)
        h = DirectedHypergraph(2, (Hyperedge.uniform((0,), (1,), 2.0),))
        sys = NetworkSystem(h, lorenz_field(), tanh_coupling(0.2, 0.05, 2),
                            linear_output([[0, 1, 0], [0, 0, 1]]))
        samples = rng.uniform(-8, 8, (30, 2, 3))
        sub = SubsetIndex((0, 1))
        err = ErrorSystem(sys, sub, samples)
        before = err.a.copy()
        gains = design_gain_thm2(err, [0, 1], h_req=1.5)
        # synthesis works on copies: the zero-gain stack is left as it was
        np.testing.assert_array_equal(err.a, before)
        assert gains.entries
        report = check_thm2(err, 1.5, gains.entries)
        assert report.passed
        np.testing.assert_array_equal(err.a, before)

    def test_gain_pattern_stays_inside_subset(self):
        rng = np.random.default_rng(41)
        h = random_hypergraph(rng, max_nodes=5, max_edges=3)
        sys = random_system(rng, h, field_kind="planar")
        S = tuple(range(h.num_nodes))
        err = ErrorSystem(sys, SubsetIndex(S), rng.uniform(-1, 1, (5, h.num_nodes, 2)))
        gains = design_gain_thm2(err, [S[0]], h_req=0.5)
        for (i, j) in gains.entries:
            assert i in S and j == S[0]

    def test_feasibility_monotone_in_measurement(self):
        # with an extra measured node the previous gains still achieve the
        # same objective value, so the enlarged instance stays feasible
        sys = scalar_chain_system(a=1.0, sigma=4.0)
        samples = np.zeros((4, 2, 1))
        sub = SubsetIndex((0, 1))
        err = ErrorSystem(sys, sub, samples)
        gains1 = design_gain_thm2(err, [0], h_req=1.0)
        phi1, _ = GainProblem(err, [0]).subgradient(dict(gains1.entries))
        phi2, _ = GainProblem(err, [0, 1]).subgradient(dict(gains1.entries))
        assert phi2 == pytest.approx(phi1, abs=1e-12)
        gains2 = design_gain_thm2(err, [0, 1], h_req=1.0)
        assert check_thm2(err, 1.0, gains2.entries).passed


class TestSubgradient:
    def test_pullback_matches_finite_differences(self):
        rng = np.random.default_rng(43)
        h = DirectedHypergraph(2, (Hyperedge.uniform((0,), (1,), 2.0),))
        sys = NetworkSystem(h, lorenz_field(), tanh_coupling(0.2, 0.05, 2),
                            linear_output([[0, 1, 0], [0, 0, 1]]))
        samples = rng.uniform(-5, 5, (6, 2, 3))
        prob = GainProblem(ErrorSystem(sys, SubsetIndex((0, 1)), samples), [0, 1])
        gains = {k: rng.normal(0, 2, (3, 2)) for k in prob.keys}
        _, grads = prob.subgradient(gains)
        delta = 1e-6
        checked = 0
        for key in prob.keys:
            for a in range(3):
                for b in range(2):
                    gp = {k: v.copy() for k, v in gains.items()}
                    gm = {k: v.copy() for k, v in gains.items()}
                    gp[key][a, b] += delta
                    gm[key][a, b] -= delta
                    fd = (prob.subgradient(gp)[0] - prob.subgradient(gm)[0]) / (2 * delta)
                    scale = max(1.0, abs(fd))
                    assert abs(grads[key][a, b] - fd) / scale < 1e-4
                    checked += 1
        assert checked == 24
