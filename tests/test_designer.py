import json
import math

import numpy as np
import pytest

from hyperobs import (
    AllMeasured,
    DesignOptions,
    DesignOutcome,
    DirectedHypergraph,
    EmptyTrajectorySet,
    Hyperedge,
    NetworkSystem,
    TrajectoryEnsemble,
    TrajectoryEnsembleSpec,
    certify_or_fail,
    design_observer,
    identity_output,
    linear_coupling,
    linear_output,
    lorenz_field,
    make_ensemble,
    propagate_robustness_bounds,
    select_node,
    tanh_coupling,
)
from conftest import random_hypergraph, vector_field_from_callable


def stable_scalar_field(a=3.0):
    def f(x, mu):
        return -a * x

    return vector_field_from_callable(
        f, 1, np.zeros(1), jac_x=lambda x, mu: np.full(x.shape[:-1] + (1, 1), -a)
    )


def small_ensemble(sys, count=8, horizon=0.4, dt=1e-3, seed=0, box=(-3, 3)):
    return make_ensemble(
        sys, TrajectoryEnsembleSpec(count=count, horizon=horizon, dt=dt,
                                    subsample=10, box=box, seed=seed)
    )


class TestSelectNode:
    def test_unique_out_degree_maximizer(self):
        h = DirectedHypergraph(
            4,
            (
                Hyperedge.uniform((0,), (1, 2)),
                Hyperedge.uniform((0, 1), (3,)),
            ),
        )
        assert select_node([0, 1, 2, 3], h, []) == 0

    def test_all_equal_degrees_smallest_id(self):
        h = DirectedHypergraph(3)
        assert select_node([0, 1, 2], h, []) == 0
        assert select_node([0, 1, 2], h, [0]) == 1

    def test_in_degree_breaks_out_degree_ties(self):
        # nodes 0 and 1 both have out-degree 1 inside S; node 1 also has
        # in-degree 1, so it wins the tie
        h = DirectedHypergraph(
            3,
            (
                Hyperedge.uniform((0,), (2,)),
                Hyperedge.uniform((1,), (2,)),
                Hyperedge.uniform((2,), (1,)),
            ),
        )
        within = h.restrict([0, 1, 2])
        degs = {v: h.degrees(v, within) for v in (0, 1, 2)}
        oracle = max((0, 1, 2), key=lambda v: (degs[v][1], degs[v][0], -v))
        assert select_node([0, 1, 2], h, []) == oracle

    def test_matches_brute_force_lexicographic(self):
        rng = np.random.default_rng(50)
        for _ in range(40):
            h = random_hypergraph(rng, max_nodes=10)
            size = int(rng.integers(1, h.num_nodes + 1))
            S = sorted(rng.choice(h.num_nodes, size=size, replace=False))
            measured = [v for v in S if rng.random() < 0.3]
            cands = [v for v in S if v not in measured]
            if not cands:
                continue
            within = h.restrict(S)
            degs = {v: h.degrees(v, within) for v in cands}
            oracle = max(cands, key=lambda v: (degs[v][1], degs[v][0], -v))
            assert select_node(S, h, measured) == oracle

    def test_all_measured_raises(self):
        h = DirectedHypergraph(2)
        with pytest.raises(AllMeasured):
            select_node([0, 1], h, [0, 1])


def cohead_pair_system(sigma=80.0):
    """Chaotic source feeding a co-head pair, with extra damping on node 2."""
    h = DirectedHypergraph(
        3,
        (
            Hyperedge.uniform((0,), (1, 2), sigma),
            Hyperedge.uniform((0,), (2,), sigma),
        ),
    )
    return NetworkSystem(h, lorenz_field(), tanh_coupling(0.2, 0.05, 2.0),
                         identity_output(3))


class TestDesignObserver:
    def test_contracting_network_needs_no_measurements(self):
        h = DirectedHypergraph(3, (Hyperedge.uniform((0,), (1,), 0.1),))
        sys = NetworkSystem(h, stable_scalar_field(3.0), linear_coupling(1.0),
                            identity_output(1))
        ens = small_ensemble(sys, count=4, horizon=0.2)
        outcome = design_observer(sys, ens, DesignOptions(margin=1.0))
        assert outcome.complete
        assert outcome.measured == frozenset()
        assert all(p.report.theorem_used == "thm2" for p in outcome.processed)

    def test_shortcut_pair_resolution(self):
        sys = cohead_pair_system()
        ens = small_ensemble(sys, count=10, horizon=0.6, seed=3)
        outcome = design_observer(sys, ens, DesignOptions(margin=2.0))
        assert outcome.complete
        assert outcome.measured == frozenset({0, 1})
        assert outcome.exact_nodes == frozenset({0, 1})
        assert len(outcome.gains) == 0
        cert = {p.nodes: p.report.theorem_used for p in outcome.processed}
        assert cert[(2,)] == "thm2"
        assert cert[(0,)] == "exact" and cert[(1,)] == "exact"

    def test_gain_path_when_shortcut_disabled(self):
        sys = cohead_pair_system()
        ens = small_ensemble(sys, count=10, horizon=0.6, seed=3)
        options = DesignOptions(margin=2.0, use_inverse_shortcut=False)
        outcome = design_observer(sys, ens, options)
        assert outcome.complete
        assert outcome.exact_nodes == frozenset()
        assert len(outcome.measured) >= 1
        assert len(outcome.gains) > 0
        assert all(p.report.passed for p in outcome.processed)
        # every gain respects the measured-column rule
        for (i, j) in outcome.gains.entries:
            assert j in outcome.measured

    def test_everything_measured_at_worst_with_identity_output(self):
        # three isolated chaotic nodes: each must be measured, all exact
        h = DirectedHypergraph(3)
        sys = NetworkSystem(h, lorenz_field(), tanh_coupling(0.2, 0.05, 2),
                            identity_output(3))
        ens = small_ensemble(sys, count=5, horizon=0.3, seed=4)
        outcome = design_observer(sys, ens, DesignOptions(margin=1.0))
        assert outcome.complete
        assert outcome.measured == frozenset({0, 1, 2})

    def test_unobservable_output_fails_with_culprit(self):
        # x3-only measurement cannot stabilize the (x1, x2) subsystem near the
        # origin, so the design must fail on the singleton it cannot certify
        h = DirectedHypergraph(1)
        sys = NetworkSystem(h, lorenz_field(), tanh_coupling(0.2, 0.05, 2),
                            linear_output([[0.0, 0.0, 1.0]]))
        states = np.zeros((4, 20, 1, 3))
        ens = TrajectoryEnsemble(states, 1e-2)
        options = DesignOptions(margin=1.0, max_iters=400, restarts=1)
        outcome = design_observer(sys, ens, options)
        assert outcome.status == "failed"
        assert outcome.failed_subset == (0,)
        assert outcome.processed[-1].report.theorem_used == "none"

    def test_deterministic_given_seed_and_ensemble(self):
        sys = cohead_pair_system()
        ens = small_ensemble(sys, count=6, horizon=0.4, seed=5)
        o1 = design_observer(sys, ens, DesignOptions(margin=2.0, use_inverse_shortcut=False))
        o2 = design_observer(sys, ens, DesignOptions(margin=2.0, use_inverse_shortcut=False))
        assert o1.to_json_dict() == o2.to_json_dict()

    def test_json_round_trip(self):
        sys = cohead_pair_system()
        ens = small_ensemble(sys, count=6, horizon=0.4, seed=5)
        for shortcut in (False, True):
            o = design_observer(
                sys, ens, DesignOptions(margin=2.0, use_inverse_shortcut=shortcut)
            )
            back = DesignOutcome.from_json_dict(json.loads(json.dumps(o.to_json_dict())))
            assert back.processed == o.processed
            assert (back.status, back.failed_subset) == (o.status, o.failed_subset)
            assert (back.measured, back.exact_nodes) == (o.measured, o.exact_nodes)
            assert back.to_json_dict() == o.to_json_dict()

    def test_empty_ensemble_rejected(self):
        sys = cohead_pair_system()
        with pytest.raises(EmptyTrajectorySet):
            design_observer(sys, TrajectoryEnsemble(np.zeros((0, 0, 3, 3)), 1e-3))

    def test_zero_weight_tail_is_still_upstream(self):
        # tail 1 of the first edge has alpha 0, so its signed-graph arc 1 -> 0
        # has weight 0; node 0 still depends on 1, and 1 on 0 through the
        # second edge, so {0, 1} must be processed as one subset after {2}
        h = DirectedHypergraph(
            3,
            (
                Hyperedge((1, 2), (0,), (0.0, 1.0), (1.0,)),
                Hyperedge.uniform((0,), (1,)),
            ),
        )
        sys = NetworkSystem(h, stable_scalar_field(4.0), linear_coupling(1.0),
                            identity_output(1))
        ens = small_ensemble(sys, count=3, horizon=0.2, seed=8)
        outcome = design_observer(sys, ens, DesignOptions(margin=0.5))
        assert outcome.complete
        assert [p.nodes for p in outcome.processed] == [(2,), (0, 1)]

    def test_processed_subsets_cover_network_in_upstream_order(self):
        rng = np.random.default_rng(51)
        for _ in range(5):
            h = random_hypergraph(rng, max_nodes=6, max_edges=4)
            sys = NetworkSystem(h, stable_scalar_field(4.0), linear_coupling(1.0),
                                identity_output(1))
            ens = small_ensemble(sys, count=3, horizon=0.2, seed=6)
            outcome = design_observer(sys, ens, DesignOptions(margin=0.5))
            assert outcome.complete
            covered = set()
            for p in outcome.processed:
                upstream_tails = set(sys.hypergraph.tails_of(
                    sys.hypergraph.boundary(p.nodes))) - set(p.nodes)
                assert upstream_tails <= covered
                covered.update(p.nodes)
            assert covered == set(range(h.num_nodes))


class TestCertifyOrFail:
    def test_zero_gain_certification(self):
        h = DirectedHypergraph(1)
        sys = NetworkSystem(h, stable_scalar_field(2.0), linear_coupling(1.0),
                            identity_output(1))
        ens = small_ensemble(sys, count=3, horizon=0.2)
        res = certify_or_fail(sys, [0], [], ens, DesignOptions(margin=1.0))
        assert res is not None
        report, gains = res
        assert report.theorem_used == "thm2" and len(gains) == 0

    def test_unstable_unmeasured_scc_not_certified(self):
        h = DirectedHypergraph(1)
        sys = NetworkSystem(h, lorenz_field(), tanh_coupling(0.2, 0.05, 2),
                            identity_output(3))
        ens = small_ensemble(sys, count=3, horizon=0.2)
        assert certify_or_fail(sys, [0], [], ens, DesignOptions(margin=1.0)) is None

    def test_measured_node_gets_gains(self):
        h = DirectedHypergraph(1)
        sys = NetworkSystem(h, lorenz_field(), tanh_coupling(0.2, 0.05, 2),
                            identity_output(3))
        ens = small_ensemble(sys, count=3, horizon=0.2)
        res = certify_or_fail(sys, [0], [0], ens, DesignOptions(margin=1.0))
        assert res is not None
        report, gains = res
        assert report.passed and (0, 0) in gains.entries


class TestRobustnessPropagation:
    def make_outcome(self):
        sys = cohead_pair_system()
        ens = small_ensemble(sys, count=6, horizon=0.4, seed=7)
        outcome = design_observer(sys, ens, DesignOptions(margin=2.0))
        return sys, ens, outcome

    def test_bounds_finite_and_monotone(self):
        sys, ens, outcome = self.make_outcome()
        samples = ens.stacked()
        b1, per1 = propagate_robustness_bounds(sys, outcome, samples, 0.1, 0.05)
        b2, _ = propagate_robustness_bounds(sys, outcome, samples, 0.2, 0.05)
        b3, _ = propagate_robustness_bounds(sys, outcome, samples, 0.1, 0.10)
        assert math.isfinite(b1) and b1 >= 0
        assert b2 >= b1 and b3 >= b1
        assert len(per1) == len(outcome.processed)

    def test_zero_uncertainty_zero_bound(self):
        sys, ens, outcome = self.make_outcome()
        b, per = propagate_robustness_bounds(sys, outcome, ens.stacked(), 0.0, 0.0)
        assert b == 0.0

    def test_exact_nodes_bounded_by_inverted_noise(self):
        sys, ens, outcome = self.make_outcome()
        nu = 0.3
        _, per = propagate_robustness_bounds(sys, outcome, ens.stacked(), 0.0, nu)
        exact_entries = [
            bound for p, bound in zip(outcome.processed, per)
            if p.report.theorem_used == "exact"
        ]
        assert exact_entries
        for bound in exact_entries:
            assert bound.value == pytest.approx(nu)  # identity output
