import contextlib
import dataclasses
import json
import math
import multiprocessing
import os
import subprocess
import sys
import textwrap
import tracemalloc
from collections import Counter
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Callable

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import conftest
from hyperobs import (
    AllMeasured,
    DesignOptions,
    DirectedHypergraph,
    EmptyTrajectorySet,
    HierarchicalGenSpec,
    Hyperedge,
    NetworkSystem,
    TrajectoryEnsemble,
    TrajectoryEnsembleSpec,
    bistable_field,
    design_observer,
    generate_hierarchical,
    identity_output,
    linear_coupling,
    linear_output,
    lorenz_field,
    make_ensemble,
    propagate_robustness_bounds,
    select_node,
    tanh_coupling,
)
from hyperobs import assembly, designer, dynamics, gain_design
from hyperobs.config import build_design_options
from hyperobs.hypergraph import condense, dependency_arcs, label_components
from hyperobs.assembly import check_thm2, one_root, rounding_tol, symmetric_top_eig
from hyperobs.designer import design_report, field_param_jacobian_bound, read_design_report
from conftest import (
    bit_pattern,
    degrees,
    hypergraphs,
    random_hypergraph,
    random_system,
    reference_certify_zero_gain,
    reference_design_observer,
    reference_select_node,
    restrict,
    root_rows,
    root_stack,
    sample_bytes,
    upstream_tails,
    vector_field_from_callable,
)


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
        assert select_node(h.entering([0, 1, 2, 3]), []) == 0

    def test_all_equal_degrees_smallest_id(self):
        h = DirectedHypergraph(3)
        assert select_node(h.entering([0, 1, 2]), []) == 0
        assert select_node(h.entering([0, 1, 2]), [0]) == 1

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
        within = restrict(h, [0, 1, 2])
        degs = {v: degrees(h, v, within) for v in (0, 1, 2)}
        oracle = max((0, 1, 2), key=lambda v: (degs[v][1], degs[v][0], -v))
        assert select_node(h.entering([0, 1, 2]), []) == oracle

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
            within = restrict(h, S)
            degs = {v: degrees(h, v, within) for v in cands}
            oracle = max(cands, key=lambda v: (degs[v][1], degs[v][0], -v))
            assert select_node(h.entering(S), measured) == oracle

    def test_all_measured_raises(self):
        h = DirectedHypergraph(2)
        with pytest.raises(AllMeasured):
            select_node(h.entering([0, 1]), [0, 1])

    @given(hypergraphs(max_nodes=10, max_edges=8), st.data())
    def test_matches_per_node_degree_scans(self, h, data):
        nodes = st.integers(0, h.num_nodes - 1)
        S = data.draw(st.lists(nodes, min_size=1))
        measured = data.draw(st.lists(nodes))
        if set(S) <= set(measured):
            with pytest.raises(AllMeasured):
                select_node(h.entering(set(S)), iter(measured))
            return
        # a one-shot iterable: the measured set is read once
        got = select_node(h.entering(set(S)), iter(measured))
        assert got == reference_select_node(S, h, measured)


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


def _entering_calls(monkeypatch) -> list[tuple[int, ...]]:
    """The nodes of every ``DirectedHypergraph.entering`` call from now on."""
    calls = []
    real = DirectedHypergraph.entering
    monkeypatch.setattr(DirectedHypergraph, "entering",
                        lambda self, nodes: real(self, calls.append(tuple(nodes)) or calls[-1]))
    return calls


class TestDesignObserver:
    def test_contracting_network_needs_no_measurements(self):
        h = DirectedHypergraph(3, (Hyperedge.uniform((0,), (1,), 0.1),))
        sys = NetworkSystem(h, stable_scalar_field(3.0), linear_coupling(1.0),
                            identity_output(1))
        ens = small_ensemble(sys, count=4, horizon=0.2)
        outcome = design_observer(sys, ens, DesignOptions(margin=1.0))
        assert outcome.complete
        assert outcome.design.measured == frozenset()
        assert all(p.report.theorem_used == "thm2" for p in outcome.processed)

    def test_shortcut_pair_resolution(self):
        sys = cohead_pair_system()
        ens = small_ensemble(sys, count=10, horizon=0.6, seed=3)
        outcome = design_observer(sys, ens, DesignOptions(margin=2.0))
        assert outcome.complete
        assert outcome.design.measured == frozenset({0, 1})
        assert outcome.design.exact_nodes == frozenset({0, 1})
        assert len(outcome.design.gains) == 0
        cert = {p.nodes: p.report.theorem_used for p in outcome.processed}
        assert cert[(2,)] == "thm2"
        assert cert[(0,)] == "exact" and cert[(1,)] == "exact"

    def test_gain_path_when_shortcut_disabled(self):
        sys = cohead_pair_system()
        ens = small_ensemble(sys, count=10, horizon=0.6, seed=3)
        options = DesignOptions(margin=2.0, use_inverse_shortcut=False)
        outcome = design_observer(sys, ens, options)
        assert outcome.complete
        assert outcome.design.exact_nodes == frozenset()
        assert len(outcome.design.measured) >= 1
        assert len(outcome.design.gains) > 0
        assert all(p.report.passed for p in outcome.processed)
        # every gain respects the measured-column rule
        for (i, j) in outcome.design.gains:
            assert j in outcome.design.measured

    def test_everything_measured_at_worst_with_identity_output(self):
        # three isolated chaotic nodes: each must be measured, all exact
        h = DirectedHypergraph(3)
        sys = NetworkSystem(h, lorenz_field(), tanh_coupling(0.2, 0.05, 2),
                            identity_output(3))
        ens = small_ensemble(sys, count=5, horizon=0.3, seed=4)
        outcome = design_observer(sys, ens, DesignOptions(margin=1.0))
        assert outcome.complete
        assert outcome.design.measured == frozenset({0, 1, 2})

    def test_unobservable_output_fails_with_culprit(self, monkeypatch):
        # x3-only measurement cannot stabilize the (x1, x2) subsystem near the
        # origin, so the design must fail on the singleton it cannot certify
        h = DirectedHypergraph(1)
        sys = NetworkSystem(h, lorenz_field(), tanh_coupling(0.2, 0.05, 2),
                            linear_output([[0.0, 0.0, 1.0]]))
        states = np.zeros((4, 20, 1, 3))
        ens = TrajectoryEnsemble(states)
        monkeypatch.setattr(gain_design, "MAX_ITERS", 400)
        outcome = design_observer(sys, ens, DesignOptions(margin=1.0))
        assert outcome.status == "failed"
        assert outcome.failed_subset == (0,)
        assert outcome.processed[-1].report.theorem_used == "none"

    def test_deterministic_given_seed_and_ensemble(self):
        sys = cohead_pair_system()
        ens = small_ensemble(sys, count=6, horizon=0.4, seed=5)
        o1 = design_observer(sys, ens, DesignOptions(margin=2.0, use_inverse_shortcut=False))
        o2 = design_observer(sys, ens, DesignOptions(margin=2.0, use_inverse_shortcut=False))
        assert o1.to_json_dict() == o2.to_json_dict()

    def test_seed_does_not_change_the_design(self):
        # gains come from one deterministic descent, so a config's design.seed
        # is inert: the options drop it, and the design has no seed to read
        trajectories = {"count": 6, "horizon": 0.4, "dt": 1e-2}
        options = [build_design_options({"design": {
            "margin": 2.0, "use_inverse_shortcut": False, "trajectories": trajectories, **seed}})
            for seed in ({}, {"seed": 0}, {"seed": 12345})]
        assert options == [DesignOptions(margin=2.0, use_inverse_shortcut=False)] * 3
        assert "seed" not in {f.name for f in fields(DesignOptions)}

    def test_json_round_trip(self):
        sys = cohead_pair_system()
        ens = small_ensemble(sys, count=6, horizon=0.4, seed=5)
        for shortcut in (False, True):
            o = design_observer(
                sys, ens, DesignOptions(margin=2.0, use_inverse_shortcut=shortcut)
            )
            doc = json.loads(json.dumps(design_report(o, "hash", 1.5)))
            back, f_bound = read_design_report(doc, sys, "hash")
            assert f_bound == 1.5
            assert back.processed == o.processed
            assert (back.status, back.failed_subset) == (o.status, o.failed_subset)
            assert (back.design.measured, back.design.exact_nodes) == (
                o.design.measured, o.design.exact_nodes)
            assert back.to_json_dict() == o.to_json_dict()

    def test_empty_ensemble_rejected(self):
        sys = cohead_pair_system()
        with pytest.raises(EmptyTrajectorySet):
            design_observer(sys, TrajectoryEnsemble(np.zeros((0, 0, 3, 3))))

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
                assert upstream_tails(sys.hypergraph, p.nodes) <= covered
                covered.update(p.nodes)
            assert covered == set(range(h.num_nodes))

    def test_one_entering_slice_per_stack_on_the_zero_gain_path(self, monkeypatch):
        # head-closedness, the arguments, A_S and the upstream-tail check of
        # every root read the one slice its stack takes, over the union of
        # components of its size of one labelling, here the first, as no
        # node is measured: each node is sliced once
        calls = _entering_calls(monkeypatch)
        rng = np.random.default_rng(51)
        for _ in range(5):
            h = random_hypergraph(rng, max_nodes=6, max_edges=4)
            sys = NetworkSystem(h, stable_scalar_field(4.0), linear_coupling(1.0),
                                identity_output(1))
            ens = small_ensemble(sys, count=3, horizon=0.2, seed=6)
            calls.clear()
            outcome = design_observer(sys, ens, DesignOptions(margin=0.5))
            assert outcome.complete and not outcome.design.measured
            assert sorted(v for c in calls for v in c) == list(range(h.num_nodes))
            for c in calls:
                held = sorted(p.nodes for p in outcome.processed if set(p.nodes) <= set(c))
                assert [v for S in held for v in S] == list(c)
                assert len({len(S) for S in held}) == 1

    @pytest.mark.parametrize("shortcut", [True, False])
    def test_at_most_one_entering_slice_per_root_when_measuring(self, monkeypatch, usable_cpus,
                                                                shortcut):
        # a stack takes one slice of the union of components of one size and
        # one labelling; a root of a larger stack that fails its zero-gain
        # checks takes its own once and reads it on every retry: each root
        # is in one stack's slice and has at most one of its own.  A
        # labelling's stacks are made with it, the first's before pass 1, and
        # in process each root that retries takes its own slice in its pass
        usable_cpus(1)
        passes, labellings, calls = [], [], []
        live = {}  # node -> (labelling, component) of its latest labelling
        real_condense, real_label = designer.condense, designer.label_components
        real_entering = DirectedHypergraph.entering

        def label(*args):
            labellings.append(out := real_label(*args))
            live.update((v, (len(labellings) - 1, S)) for S in out for v in S)
            return out

        monkeypatch.setattr(designer, "condense",
                            lambda *args: passes.append(out := real_condense(*args)) or out)
        monkeypatch.setattr(designer, "label_components", label)
        def entering(self, nodes):
            calls.append((len(passes), nodes := tuple(nodes), {live[v] for v in nodes}))
            return real_entering(self, nodes)

        monkeypatch.setattr(DirectedHypergraph, "entering", entering)
        isolated = NetworkSystem(DirectedHypergraph(3), lorenz_field(),
                                 tanh_coupling(0.2, 0.05, 2), identity_output(3))
        for sys in (cohead_pair_system(), isolated):
            ens = small_ensemble(sys, count=5, horizon=0.3, seed=4)
            passes.clear()
            labellings.clear()
            calls.clear()
            options = DesignOptions(margin=2.0, use_inverse_shortcut=shortcut)
            outcome = design_observer(sys, ens, options)
            assert outcome.complete and outcome.design.measured
            assert (outcome.design.exact_nodes == outcome.design.measured) == shortcut
            # every call is the union of live components of one size of one
            # labelling, a root's own slice among them
            stacked = Counter()
            for _, c, held in calls:
                held = sorted(held, key=lambda pair: pair[1])
                assert [v for _, S in held for v in S] == list(c)
                assert len({len(S) for _, S in held}) == 1
                assert len({k for k, _ in held}) == 1
                stacked.update(held)
            made = {(k, S) for k, components in enumerate(labellings) for S in components}
            assert set(stacked) == made
            assert {S for _, S in made} == {S for roots in passes for S in roots}
            assert max(stacked.values()) <= 2
            # the first labelling's stacks come before pass 1 on both paths
            assert sorted(v for at, c, _ in calls if at == 0 for v in c) == list(
                range(sys.num_nodes))
        # the isolated nodes make one pass of three one-node roots, one
        # stack, and each fails its zero-gain checks and slices its own
        assert passes == [[(0,), (1,), (2,)]]
        assert [call[:2] for call in calls] == [(0, (0, 1, 2)), (1, (0,)), (1, (1,)), (1, (2,))]


@dataclass(frozen=True)
class DesignCase:
    """A small network, its design ensemble and its design options, as data;
    ``output`` holds the rows of Gamma, empty for the identity, and
    ``max_iters`` is the gain-synthesis budget ``budget`` sets."""

    num_nodes: int
    edges: tuple[Hyperedge, ...]
    field: str = "lorenz"  # "lorenz" | "bistable"
    bistable: tuple = (3.0, 0.5)
    coupling: str = "tanh"  # "tanh" | "linear"
    output: tuple = ()
    margin: float = 2.0
    shortcut: bool | None = False
    count: int = 3
    seed: int = 0
    max_iters: int = 300

    def build(self):
        h = DirectedHypergraph(self.num_nodes, self.edges)
        field = lorenz_field() if self.field == "lorenz" else bistable_field(*self.bistable)
        n = field.state_dim
        coupling = (tanh_coupling(0.2, 0.05, 2.0) if self.coupling == "tanh"
                    else linear_coupling(1.0))
        output = linear_output(self.output) if self.output else identity_output(n)
        sys = NetworkSystem(h, field, coupling, output)
        ens = make_ensemble(sys, TrajectoryEnsembleSpec(
            count=self.count, horizon=0.2, dt=1e-2, subsample=2, seed=self.seed))
        return sys, ens, DesignOptions(margin=self.margin, use_inverse_shortcut=self.shortcut)

    @contextlib.contextmanager
    def budget(self):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(gain_design, "MAX_ITERS", self.max_iters)
            yield


def _cohead(sigma, **kw):
    """``cohead_pair_system`` with an extra edge 2 -> 1."""
    edges = ((0,), (1, 2)), ((0,), (2,)), ((2,), (1,))
    return DesignCase(3, tuple(Hyperedge.uniform(t, hd, sigma) for t, hd in edges), **kw)


# one case per route of the design loop; test_named_cases_take_their_route
# checks that each still takes it
NAMED_CASES = {
    # {1, 2} passes zero-gain Theorem 2 once node 0 is certified by gains
    "zero_gain": _cohead(80.0),
    # a chaotic singleton certified by gains on its one measured node
    "synthesis_one_node": DesignCase(1, ()),
    # {1, 2}: synthesis on node 2 alone is infeasible, on nodes 2 and 1 it passes
    "synthesis_two_nodes": _cohead(20.0),
    "synthesis_two_nodes_partial_output": _cohead(20.0, output=((1, 0, 0), (0, 1, 0))),
    # an x3-only output: synthesis is infeasible and the singleton is exhausted
    "exhausted": DesignCase(1, (), output=((0, 0, 1),), margin=1.0, max_iters=100),
    "inverse_shortcut": _cohead(20.0, shortcut=None),
}


@st.composite
def design_cases(draw):
    """Random networks of 2-4 Lorenz or bistable nodes."""
    h = random_hypergraph(np.random.default_rng(draw(st.integers(0, 2**32 - 1))),
                          max_nodes=4, max_edges=3, sigma_range=(0.01, 30.0))
    field = draw(st.sampled_from(["lorenz", "bistable"]))
    output = ()
    if field == "lorenz" and draw(st.booleans()):
        output = ((1, 0, 0), (0, 1, 0))
    return DesignCase(
        h.num_nodes, h.edges, field=field,
        bistable=draw(st.sampled_from([(3.0, 0.5), (1.0, 2.0)])),
        coupling=draw(st.sampled_from(["tanh", "linear"])), output=output,
        margin=draw(st.sampled_from([0.5, 1.0, 2.0])),
        shortcut=draw(st.sampled_from([None, False])),
        seed=draw(st.integers(0, 3)),
    )


def _routes(outcome) -> set[str]:
    """The routes a design took: the theorem of each processed subset, and
    ``synthesis_<k>`` for a subset certified by gains on k measured nodes."""
    routes = {outcome.status}
    for p in outcome.processed:
        routes.add(p.report.theorem_used)
        if p.report.theorem_used == "thm2" and p.added_measured:
            routes.add(f"synthesis_{len(p.added_measured)}")
    return routes


class TestDesignMatchesReference:
    @pytest.mark.parametrize("name, routes", [
        ("zero_gain", {"thm2"}),
        ("synthesis_one_node", {"synthesis_1"}),
        ("synthesis_two_nodes", {"synthesis_2"}),
        ("synthesis_two_nodes_partial_output", {"synthesis_2"}),
        ("exhausted", {"failed", "none"}),
        ("inverse_shortcut", {"exact"}),
    ])
    def test_named_cases_take_their_route(self, name, routes):
        sys, ens, options = NAMED_CASES[name].build()
        with NAMED_CASES[name].budget():
            assert routes <= _routes(design_observer(sys, ens, options))

    @settings(max_examples=30)
    @given(case=design_cases())
    @example(case=NAMED_CASES["zero_gain"])
    @example(case=NAMED_CASES["synthesis_one_node"])
    @example(case=NAMED_CASES["synthesis_two_nodes"])
    @example(case=NAMED_CASES["synthesis_two_nodes_partial_output"])
    @example(case=NAMED_CASES["exhausted"])
    @example(case=NAMED_CASES["inverse_shortcut"])
    def test_equals_per_attempt_reference(self, case):
        # the reference reruns every route on a fresh one-root stack after each
        # measured node; certifying each subset once must decide the same
        sys, ens, options = case.build()
        with case.budget():
            assert (design_observer(sys, ens, options).to_json_dict()
                    == reference_design_observer(sys, ens, options).to_json_dict())

    def test_failing_post_synthesis_check_matches_reference(self, monkeypatch):
        # gains synthesized for half the margin fail the check at the full
        # margin, so each synthesis is rejected after it returns
        real = designer.design_gain_thm2

        def half_margin(stack, measured, h_req):
            return real(stack, measured, h_req / 2)

        monkeypatch.setattr(designer, "design_gain_thm2", half_margin)
        monkeypatch.setattr(conftest, "design_gain_thm2", half_margin)
        for name in ("synthesis_one_node", "synthesis_two_nodes"):
            sys, ens, options = NAMED_CASES[name].build()
            with NAMED_CASES[name].budget():
                outcome = design_observer(sys, ens, options)
                assert outcome.to_json_dict() == reference_design_observer(
                    sys, ens, options).to_json_dict()
            assert outcome.status == "failed"


@st.composite
def hierarchical_cases(draw):
    """Layered networks of 6-18 scalar bistable or Lorenz nodes, whose
    passes hold several roots of one size and roots that fail their
    zero-gain checks, and a byte budget that stacks one, two or every root
    of a size."""
    layers = draw(st.lists(st.integers(3, 6), min_size=2, max_size=3))
    counts = st.integers(0, 3)
    spec = HierarchicalGenSpec(
        layers, 3, draw(st.lists(counts, min_size=len(layers), max_size=len(layers))),
        draw(st.lists(counts, min_size=len(layers), max_size=len(layers))),
        draw(st.lists(counts, min_size=len(layers) - 1, max_size=len(layers) - 1)),
        draw(st.lists(counts, min_size=len(layers) - 1, max_size=len(layers) - 1)),
        seed=draw(st.integers(0, 2**16)), sigma=draw(st.sampled_from([0.1, 1.0, 10.0])))
    h = generate_hierarchical(spec)
    field = draw(st.sampled_from(["bistable", "bistable", "lorenz"]))
    # an x3-only output exhausts a chaotic root: the design fails there
    output = draw(st.sampled_from([(), ((0, 0, 1),)])) if field == "lorenz" else ()
    case = DesignCase(
        h.num_nodes, h.edges, field=field,
        bistable=draw(st.sampled_from([(1.0, 2.0), (3.0, 0.5)])),
        coupling=draw(st.sampled_from(["tanh", "linear"])), output=output,
        margin=draw(st.sampled_from([0.25, 1.0])),
        shortcut=draw(st.sampled_from([None, False])),
        seed=draw(st.integers(0, 3)), count=2, max_iters=100,
    )
    return case, draw(st.sampled_from([None, 1, 2]))


class TestBatchedPass:
    @settings(max_examples=25)
    @given(hierarchical_cases())
    def test_equals_per_root_reference(self, chunk_budget, drawn):
        # the reference certifies each root on its own one-root stack, in order
        case, roots_per_stack = drawn
        sys, ens, options = case.build()
        K, n = ens.stacked().shape[0], sys.state_dim
        budget = 8 * K * n * n * roots_per_stack if roots_per_stack else dynamics.CHUNK_BYTES
        with case.budget(), chunk_budget(budget):
            got = design_observer(sys, ens, options)
            expect = reference_design_observer(sys, ens, options)
        assert got.to_json_dict() == expect.to_json_dict()

    def test_one_info_line_per_pass(self, caplog):
        sys = NetworkSystem(DirectedHypergraph(3), lorenz_field(),
                            tanh_coupling(0.2, 0.05, 2), identity_output(3))
        ens = small_ensemble(sys, count=3, horizon=0.2, seed=4)
        with caplog.at_level("DEBUG", logger="hyperobs.designer"):
            outcome = design_observer(sys, ens, DesignOptions(margin=2.0))
        info = [r.getMessage() for r in caplog.records if r.levelname == "INFO"]
        debug = [r.getMessage() for r in caplog.records if r.levelname == "DEBUG"]
        # three chaotic one-node roots in one pass, each reconstructed exactly
        assert info == ["iteration 1: 3 roots, 0 certified, 3 nodes measured"]
        assert [m for m in debug if "measuring" in m] == [
            f"iteration 1: measuring node {j} of ({j},) (exact)" for j in range(3)]
        assert outcome.design.exact_nodes == {0, 1, 2}

    def test_retries_log_in_pass_order_in_every_process(self, caplog, usable_cpus):
        # without the shortcut the sweep refutes both roots before pass 1,
        # and each root's retries, synthesized in process or by a forked
        # worker, are logged in its pass as they were when it ran there
        case = NAMED_CASES["synthesis_two_nodes"]
        sys, ens, options = case.build()
        logs = []
        for cpus in (1, 2):
            usable_cpus(cpus)
            caplog.clear()
            with case.budget(), caplog.at_level("DEBUG", logger="hyperobs.designer"):
                design_observer(sys, ens, options)
            logs.append([r.getMessage() for r in caplog.records if r.name == "hyperobs.designer"])
        assert logs[0] == logs[1]
        prefixes = [
            "thm2 refuted on (0,): the block of node 0 reaches ",
            "thm2 refuted on (1, 2): the block of node 2 reaches ",
            "iteration 1: measuring node 0 of (0,)",
            "iteration 1: certified (0,) via thm2 (measured [0])",
            "iteration 1: 1 roots, 1 certified, 1 nodes measured",
            "iteration 2: measuring node 2 of (1, 2)",
            "thm2 synthesis infeasible on (1, 2): subset (1, 2): a direction no gain reaches holds ",
            "iteration 2: measuring node 1 of (1, 2)",
            "iteration 2: certified (1, 2) via thm2 (measured [2, 1])",
            "iteration 2: 1 roots, 1 certified, 2 nodes measured",
        ]
        assert len(logs[0]) == len(prefixes)
        for message, prefix in zip(logs[0], prefixes):
            assert message.startswith(prefix) and (prefix.endswith(" ") or message == prefix)



class TestOneCertificationPerComponent:
    @settings(max_examples=30)
    @given(case=st.one_of(design_cases(), hierarchical_cases().map(lambda drawn: drawn[0])))
    @example(case=NAMED_CASES["zero_gain"])
    @example(case=NAMED_CASES["synthesis_one_node"])
    @example(case=NAMED_CASES["synthesis_two_nodes"])
    @example(case=NAMED_CASES["synthesis_two_nodes_partial_output"])
    @example(case=NAMED_CASES["exhausted"])
    @example(case=NAMED_CASES["inverse_shortcut"])
    def test_each_component_is_certified_once(self, case):
        # the i-th certify_pass call takes the components of the i-th
        # labelling: the first before pass 1, then with the shortcut one per
        # pass whose exact node splits a root of more than one node.  Each
        # component of every labelling is certified once, on both paths,
        # and the design is the per-attempt reference's
        sys, ens, options = case.build()
        passes, labellings, certified = [], [], []
        real_condense, real_label, real_pass = (designer.condense, designer.label_components,
                                                designer.certify_pass)
        with case.budget(), pytest.MonkeyPatch.context() as mp:
            mp.setattr(designer, "condense",
                       lambda *args: passes.append(out := real_condense(*args)) or out)
            mp.setattr(designer, "label_components",
                       lambda *args: labellings.append(out := real_label(*args)) or out)
            mp.setattr(designer, "certify_pass", lambda sys, roots, *args: certified.append(
                list(roots)) or real_pass(sys, roots, *args))
            got = design_observer(sys, ens, options)
        with case.budget():
            expect = reference_design_observer(sys, ens, options)
        assert got.to_json_dict() == expect.to_json_dict()
        assert certified == labellings
        components = [S for roots in certified for S in roots]
        assert len(components) == len(set(components))
        splits = {p.iteration for p in got.processed if p.report.theorem_used == "exact"
                  and len(next(S for S in passes[p.iteration - 1] if p.nodes[0] in S)) > 1}
        assert len(certified) == 1 + len(splits)
        if not got.design.exact_nodes:
            assert len(certified) == 1


def _cycle_root(field, M: int, count: int, length: int, seed: int):
    """The one-root network of M nodes on a directed cycle, a root of M
    nodes, and an ensemble of ``count`` random trajectories of ``length``
    samples around the origin."""
    edges = tuple(Hyperedge.uniform((v,), ((v + 1) % M,), 0.5) for v in range(M))
    sys = NetworkSystem(DirectedHypergraph(M, edges), field, tanh_coupling(0.2, 0.05, 2.0),
                        identity_output(field.state_dim))
    states = np.random.default_rng(seed).uniform(-3, 3, (count, length, M, field.state_dim))
    return sys, TrajectoryEnsemble(states)


class TestStreamedCertification:
    @settings(max_examples=30)
    @given(case=st.one_of(design_cases(), hierarchical_cases().map(lambda drawn: drawn[0])),
           per_chunk=st.sampled_from([1, 2, 5]))
    @example(case=NAMED_CASES["zero_gain"], per_chunk=1)
    @example(case=NAMED_CASES["synthesis_two_nodes"], per_chunk=2)
    @example(case=NAMED_CASES["synthesis_two_nodes_partial_output"], per_chunk=1)
    @example(case=NAMED_CASES["exhausted"], per_chunk=1)
    @example(case=NAMED_CASES["inverse_shortcut"], per_chunk=1)
    def test_equals_reference_at_a_budget_of_a_few_samples(self, chunk_budget, case, per_chunk):
        # the budget holds per_chunk samples of a two-node Lorenz root's A_S:
        # the stacks of larger roots, and of most roots of many samples, are
        # streams, read a chunk at a time by every check; the reference,
        # designed at the default budget, holds every stack whole
        sys, ens, options = case.build()
        with case.budget():
            expect = reference_design_observer(sys, ens, options).to_json_dict()
            with chunk_budget(8 * 6 * 6 * per_chunk):
                got = design_observer(sys, ens, options).to_json_dict()
        # JSON text tells -0.0 from 0.0
        assert json.dumps(got) == json.dumps(expect)

    @pytest.mark.parametrize("field, M, margin, passed", [
        # a chaotic root: a diagonal block refutes Theorem 2, with no sample
        # assembled
        (lorenz_field(), 8, 2.0, False),
        # a contracting root: Theorem 2 passes over every sample
        (bistable_field(3.0, 0.5), 32, 0.25, True),
    ])
    def test_traced_peak_is_a_few_budgets(self, chunk_budget, monkeypatch, field, M, margin,
                                          passed):
        budget = 1 << 18
        sys, ens = _cycle_root(field, M, count=12, length=50, seed=3)
        K, d = ens.stacked().shape[0], M * field.state_dim
        assert 8 * K * d * d >= 10 * budget
        # the stack the certification makes
        stacks = []
        monkeypatch.setattr(designer, "stack_roots",
                            lambda *args: stacks.append(assembly.stack_roots(*args)) or stacks[-1])
        with chunk_budget(budget):
            tracemalloc.start()
            try:
                floors = assembly.node_floors(sys, ens.stacked())
                ((report, _),) = designer.certify_pass(sys, [tuple(range(M))], ens.stacked(),
                                                       DesignOptions(margin=margin), set(), floors)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        (stack,) = stacks
        assert (report is not None) == passed
        assert stack.a is None
        assert peak <= 3 * budget
        # the whole stack, as the check over every sample reads it
        whole = root_stack(sys, tuple(range(M)), ens.stacked())
        expect = reference_certify_zero_gain(whole, DesignOptions(margin=margin))
        assert report == expect

    def test_stack_budget_counts_the_entering_edges(self, chunk_budget):
        # 400 one-node roots, each entered by `edges` edges from nodes
        # outside them: a sample of a root holds one row entry and three
        # numbers per entering edge (its argument, g' and coupling terms),
        # so a stack sized by its rows alone would grow with the edges
        budget, R = 1 << 16, 400
        peaks = {}
        for edges in (1, 4, 16):
            h = DirectedHypergraph(R + edges, tuple(
                Hyperedge.uniform((R + e,), (v,), 0.5) for v in range(R) for e in range(edges)))
            sys = NetworkSystem(h, stable_scalar_field(3.0), linear_coupling(1.0),
                                identity_output(1))
            X = np.random.default_rng(3).uniform(-3, 3, (200, R + edges, 1))
            floors = assembly.node_floors(sys, X)
            with chunk_budget(budget):
                tracemalloc.start()
                try:
                    checked = designer.certify_pass(sys, [(v,) for v in range(R)], X,
                                                    DesignOptions(margin=0.5), set(), floors)
                    _, peak = tracemalloc.get_traced_memory()
                finally:
                    tracemalloc.stop()
            # every root passes, so every sample of every root is assembled
            assert all(report is not None for report, _ in checked)
            peaks[edges] = peak / budget
        assert max(peaks.values()) < 10, peaks
        assert peaks[16] <= 1.5 * peaks[1], peaks

    def test_a_root_entered_by_many_edges_is_certified_a_few_budgets_at_a_time(
            self, chunk_budget):
        # one node heading 400 edges: a sample of its root holds one row
        # entry and 1200 numbers of its entering edges, so chunks sized by
        # the rows alone would assemble all 2000 samples at once, about 390
        # budgets; it passes, so every sample is assembled
        budget = 1 << 16
        sys, X, floors = _hub_root(400, 2000)
        with chunk_budget(budget):
            tracemalloc.start()
            try:
                ((report, _),) = designer.certify_pass(sys, [(0,)], X, DesignOptions(margin=0.5),
                                                       set(), floors)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert report is not None and report.sample_count == 2000
        assert peak < 10 * budget, peak / budget

    def test_synthesis_reads_a_root_entered_by_many_edges_a_few_budgets_at_a_time(
            self, chunk_budget):
        # GainProblem holds the root's rows whole, 16 kB here, and assembles
        # them a chunk at a time: bit for bit the rows of one whole read
        budget = 1 << 16
        sys, X, floors = _hub_root(400, 2000)
        with chunk_budget(budget):
            stack = assembly.stack_roots(sys, [(0,)], X, floors=floors)
            tracemalloc.start()
            try:
                prob = gain_design.GainProblem(stack, [0])
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert peak < 10 * budget, peak / budget
        whole = assembly.stack_roots(sys, [(0,)], X, floors=floors)
        assert bit_pattern(prob.a) == bit_pattern(root_rows(whole))


def _hub_root(edges: int, K: int):
    """A contracting scalar node 0 that heads ``edges`` edges, each from a
    node of its own, over K uniform samples of [-3, 3]: the system, the
    samples and their ``node_floors``."""
    h = DirectedHypergraph(1 + edges, tuple(
        Hyperedge.uniform((1 + e,), (0,), 0.5) for e in range(edges)))
    sys = NetworkSystem(h, stable_scalar_field(3.0), linear_coupling(1.0), identity_output(1))
    X = np.random.default_rng(5).uniform(-3, 3, (K, 1 + edges, 1))
    return sys, X, assembly.node_floors(sys, X)


def _count_per_subset(monkeypatch) -> Counter:
    """Counts, per (route, subset nodes), of the stacks that assemble a
    root's A_S, the zero-gain certifications (``thm2_refuted`` then
    ``check_roots`` in ``certify_pass``), the
    Theorem-2 checks with and without gains and the gain syntheses the
    design loop makes from now on."""
    calls = Counter()

    def count(owner, name, route):
        original = getattr(owner, name)

        def counted(root, *args, **kwargs):
            calls[route(args, kwargs), one_root(root)] += 1
            return original(root, *args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    real_stack, real_refuted = designer.stack_roots, designer.thm2_refuted

    def stack(sys, roots, *args):
        calls.update(("stack", tuple(S)) for S in roots)
        return real_stack(sys, roots, *args)

    def certify(stack, *args):
        calls.update(("zero_gain", tuple(S)) for S in stack.roots.tolist())
        return real_refuted(stack, *args)

    monkeypatch.setattr(designer, "stack_roots", stack)
    # a zero-gain certification refutes what it can on every root of its
    # stack, then checks the others
    monkeypatch.setattr(designer, "thm2_refuted", certify)
    count(designer, "check_thm2",
          lambda args, kw: "thm2_gains" if args[1:] or kw else "thm2_zero_gain")
    count(designer, "design_gain_thm2", lambda args, kw: "design_gain_thm2")
    return calls


def certify(stack, options):
    """The zero-gain certification ``certify_pass`` makes of the one root of
    ``stack``, on a stack of its own over the same samples and floors, with
    every node outside the root exact."""
    S = one_root(stack)
    exact = set(range(stack.sys.num_nodes)) - set(S)
    ((report, _),) = designer.certify_pass(stack.sys, [S], stack.X, options, exact, stack.floors)
    return report


class TestCertifyRoots:
    def certify(self, sys, nodes, ens, margin=1.0):
        return certify(root_stack(sys, nodes, ens.stacked()), DesignOptions(margin=margin))

    def test_zero_gain_certification(self):
        h = DirectedHypergraph(1)
        sys = NetworkSystem(h, stable_scalar_field(2.0), linear_coupling(1.0),
                            identity_output(1))
        ens = small_ensemble(sys, count=3, horizon=0.2)
        report = self.certify(sys, [0], ens)
        assert report is not None and report.theorem_used == "thm2"

    def test_unstable_unmeasured_scc_not_certified(self):
        h = DirectedHypergraph(1)
        sys = NetworkSystem(h, lorenz_field(), tanh_coupling(0.2, 0.05, 2),
                            identity_output(3))
        ens = small_ensemble(sys, count=3, horizon=0.2)
        assert self.certify(sys, [0], ens) is None

    def test_non_finite_sample_exhausts_the_root_without_raising(self, monkeypatch):
        # a two-node bistable cycle with one NaN state, which makes A_S
        # non-finite at that sample: Theorem 2 reads +inf there, so the root
        # retries and is exhausted, with no eigvalsh call on the sample; no
        # gain makes the sample finite, so synthesis proves Infeasible before
        # any subgradient step
        case = DesignCase(2, (Hyperedge.uniform((0,), (1,), 3.0),
                              Hyperedge.uniform((1,), (0,), 0.01)),
                          field="bistable", coupling="linear", count=10)
        sys, ens, options = case.build()
        ens.states[0, 3, 0, 0] = np.nan
        steps = []
        real = gain_design.GainProblem.subgradient
        monkeypatch.setattr(gain_design.GainProblem, "subgradient",
                            lambda self, L: steps.append(1) or real(self, L))
        with case.budget():
            outcome = design_observer(sys, ens, options)
        assert outcome.status == "failed" and outcome.failed_subset == (0, 1)
        assert steps == []

    def test_measured_node_gets_gains(self):
        sys, ens, options = NAMED_CASES["synthesis_one_node"].build()
        with NAMED_CASES["synthesis_one_node"].budget():
            outcome = design_observer(sys, ens, options)
        (entry,) = outcome.processed
        assert entry.report.theorem_used == "thm2" and entry.added_measured == (0,)
        assert (0, 0) in outcome.design.gains

    def test_one_evaluation_serves_every_route(self, monkeypatch, usable_cpus):
        # per subset: one stack holding its A_S, the sweep's without the
        # shortcut and its pass's with it, one zero-gain certification
        # (Theorem 2 inside it, never through check_thm2), and one stack of
        # its own when it synthesizes gains; per measured node without the
        # shortcut, one synthesis and, when it returns gains, one Theorem-2
        # check with them.  The counts are read in process: a forked
        # worker's calls would not reach them
        usable_cpus(1)
        calls = _count_per_subset(monkeypatch)
        for name, case in NAMED_CASES.items():
            calls.clear()
            sys, ens, options = case.build()
            with case.budget():
                outcome = design_observer(sys, ens, options)
            tried = {nodes for _, nodes in calls}
            certified = [p for p in outcome.processed if p.report.theorem_used != "exact"]
            assert {p.nodes for p in certified} <= tried
            for nodes in tried:
                own = calls["design_gain_thm2", nodes] > 0
                assert calls["stack", nodes] == 1 + own and calls["zero_gain", nodes] == 1, name
                assert calls["thm2_zero_gain", nodes] == 0, name
                assert calls["thm2_gains", nodes] <= calls["design_gain_thm2", nodes], name
            for p in certified:
                assert calls["design_gain_thm2", p.nodes] == len(p.added_measured), name
            if case.shortcut is None:
                # every measured node is reconstructed exactly: no synthesis
                assert not any(route == "design_gain_thm2" for route, _ in calls)


def refuted(stack, h_req) -> bool:
    """``thm2_refuted`` on the one-root ``stack``."""
    return bool(designer.thm2_refuted(stack, h_req)[0])


@st.composite
def lorenz_or_bistable_subsets(draw):
    """The one-root stack of a random subset of a random 2-4 node Lorenz or
    bistable network, every node outside the subset exact, over 1-18 random
    samples, and a margin."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    h = random_hypergraph(rng, max_nodes=4, max_edges=4,
                          sigma_range=(0.01, 30.0))
    sys = random_system(rng, h, draw(st.sampled_from(["lorenz", "bistable"])))
    S = sorted(draw(st.sets(st.integers(0, h.num_nodes - 1), min_size=1)))
    X = rng.uniform(-3, 3, (int(rng.integers(1, 19)), h.num_nodes, sys.state_dim))
    stack = root_stack(sys, S, X, frozenset(range(h.num_nodes)) - set(S))
    return stack, draw(st.sampled_from([0.05, 0.5, 2.0]))


def stacked_chains(rng, R: int, M: int, field_kind: str):
    """R roots of M nodes each, a chain of edges inside each and none
    between them, on a random field, and samples of 1-11 states of which
    some nodes are scaled down, so that some roots are refuted and some
    not."""
    edges = tuple(Hyperedge.uniform((M * r + k,), (M * r + k + 1,), float(rng.uniform(0.1, 5)))
                  for r in range(R) for k in range(M - 1))
    h = DirectedHypergraph(M * R, edges)
    sys = random_system(rng, h, field_kind)
    X = rng.uniform(-3, 3, (int(rng.integers(1, 12)), M * R, sys.state_dim))
    X[:, rng.random(M * R) < 0.3] *= 1e-3
    return sys, [tuple(range(M * r, M * r + M)) for r in range(R)], X


class TestThm2Refutation:
    @given(st.integers(0, 2**32 - 1), st.sampled_from([0.05, 0.5, 2.0]),
           st.sampled_from([None, 1, 3]))
    def test_refutation_equals_the_dense_per_root_reference(self, chunk_budget, seed, margin,
                                                           per_chunk):
        # the floors and bounds of one pass over the samples, held or
        # streamed a few samples at a time, against the whole A_S of each
        # root: symmetric_top_eig on its diagonal blocks, and max|A_S|
        rng = np.random.default_rng(seed)
        R, M = int(rng.integers(1, 5)), int(rng.integers(2, 4))
        sys, roots, X = stacked_chains(rng, R, M, str(rng.choice(["lorenz", "bistable", "planar"])))
        n, d = sys.state_dim, M * sys.state_dim
        budget = dynamics.CHUNK_BYTES if per_chunk is None else 8 * R * d * d * per_chunk
        with chunk_budget(budget):
            stack = assembly.stack_roots(sys, roots, X)
            hit = designer.thm2_refuted(stack, margin)
            whole = stack.rows(slice(None))
        floor, bound = stack.floors
        for r, S in enumerate(roots):
            A = whole[r]
            tops = [symmetric_top_eig(A[:, p * n:(p + 1) * n, p * n:(p + 1) * n]).max()
                    for p in range(M)]
            assert bit_pattern(floor[list(S)]) == bit_pattern(np.array(tops))
            with np.errstate(over="ignore"):
                mag = float(np.maximum(A.max(), -A.min()))
                exact, tol = rounding_tol(d, mag), rounding_tol(d, float(bound[list(S)].max()))
            assert bound[list(S)].max() >= mag
            assert hit[r] == (max(tops) > tol - margin)
            # a refutation at the bound holds at the exact slack, and by
            # interlacing no block's floor beats the check's worst value by
            # more than that slack
            assert not hit[r] or max(tops) > exact - margin
            worst = -check_thm2(root_stack(sys, S, X), margin).hurwitz_margin
            assert max(tops) <= exact + worst

    @given(lorenz_or_bistable_subsets())
    def test_refuted_subset_fails_the_check(self, case):
        stack, margin = case
        if refuted(stack, margin):
            assert not check_thm2(stack, margin).passed

    @given(lorenz_or_bistable_subsets())
    def test_certify_roots_equals_the_unconditional_check(self, case):
        stack, margin = case
        options = DesignOptions(margin=margin)
        assert certify(stack, options) == reference_certify_zero_gain(stack, options)

    def test_non_finite_stack_is_never_refuted(self, monkeypatch):
        # a Lorenz pair under linear coupling: a state entry puts its value
        # into node 0's diagonal block, whose top eigenvalue is about half of
        # it, and nothing else
        h = DirectedHypergraph(2, (Hyperedge.uniform((0,), (1,)), Hyperedge.uniform((1,), (0,))))
        sys = NetworkSystem(h, lorenz_field(), linear_coupling(1.0), identity_output(3))
        X = np.random.default_rng(5).uniform(-3, 3, (4, 2, 3))

        def stack_with(entry):
            bad = X.copy()
            bad[2, 0, 1] = entry
            return assembly.stack_roots(sys, [(0, 1)], bad)

        assert designer.thm2_refuted(stack_with(1e300), 1.0)[0]
        for bad in (math.inf, math.nan):
            # the floors hold the non-finite block's +inf, but its bound is
            # not finite: no slack, no refutation, and no eigvalsh runs to
            # decide it, nor in synthesis's refutation
            stack = stack_with(bad)
            floor, bound = stack.floors
            assert floor[0] == math.inf and not np.isfinite(bound[0])
            with monkeypatch.context() as mp:
                mp.setattr(assembly, "symmetric_top_eig", None)
                assert not designer.thm2_refuted(stack, 1.0)[0]
                with pytest.raises(gain_design.Infeasible, match="not finite"):
                    gain_design.design_gain_thm2(stack, [0], 1.0)

    @given(lorenz_or_bistable_subsets(), st.data())
    def test_refuted_margin_is_out_of_every_gains_reach(self, case, data):
        # no gain on the measured nodes touches an unmeasured diagonal block,
        # so none brings the check below that block's floor, up to the slack
        stack, margin = case
        nodes = one_root(stack)
        measured = data.draw(st.lists(st.sampled_from(nodes), unique=True))
        floor = stack.floors[0][[v for v in nodes if v not in measured]].max(initial=-np.inf)
        with np.errstate(over="ignore"):
            tol = rounding_tol(stack.dim, float(stack.a_max[0]))
        if not floor > tol - margin:
            return
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        shape = (stack.sys.state_dim, stack.sys.output.output_dim)
        for scale in (0.1, 10.0, 1e3):
            gains = {(i, j): rng.normal(0.0, scale, shape) for i in nodes for j in measured}
            worst = -check_thm2(stack, margin, gains).hurwitz_margin
            assert worst >= floor - tol

    def test_refutation_is_logged_with_subset_node_and_floor(self, caplog):
        sys = NetworkSystem(DirectedHypergraph(2, (Hyperedge.uniform((0,), (1,)),
                                                   Hyperedge.uniform((1,), (0,)))),
                            lorenz_field(), tanh_coupling(0.2, 0.05, 2.0), identity_output(3))
        ens = small_ensemble(sys, count=2, horizon=0.1)
        stack = root_stack(sys, (0, 1), ens.stacked())
        with caplog.at_level("DEBUG", logger="hyperobs.designer"):
            assert refuted(stack, 1.0)
        floor = stack.floors[0]
        v = int(np.argmax(floor))
        assert caplog.messages == [f"thm2 refuted on (0, 1): the block of node {v} "
                                   f"reaches {floor[v]:.6g}"]


def _first_pass_roots(h: DirectedHypergraph) -> list[tuple[int, ...]]:
    src, dst = dependency_arcs(h)
    label = np.full(h.num_nodes, -1, dtype=np.intp)
    label_components(src, dst, range(h.num_nodes), label)
    return condense(src, dst, label, np.ones(h.num_nodes, dtype=bool))


def _floors_budget(sys, per_chunk: int) -> int:
    """A budget whose ``node_floors`` chunks hold ``per_chunk`` samples."""
    n, N, E = sys.state_dim, sys.num_nodes, len(sys.hypergraph.edges)
    return 16 * n * (N * n + E) * per_chunk


class TestNodeFloors:
    @settings(max_examples=30)
    @given(hierarchical_cases(), st.sampled_from([1, 2, 3]), st.data())
    def test_floors_and_bounds_against_each_roots_dense_stack(self, chunk_budget, drawn,
                                                              per_chunk, data):
        # every root of the first pass on its own: each node's floor is
        # symmetric_top_eig of its block of the root's dense A_S, bit for
        # bit, and the bound covers max|A_S|, with signed zeros among the
        # states and roots whose entries are all negative
        case, _ = drawn
        sys, ens, _ = case.build()
        X = ens.stacked().copy()
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        X[rng.random(X.shape) < 0.2] = -0.0
        n = sys.state_dim
        expect = assembly.node_floors(sys, X)
        with chunk_budget(_floors_budget(sys, per_chunk)):
            floor, bound = assembly.node_floors(sys, X)
        assert bit_pattern(floor) == bit_pattern(expect[0])
        assert bit_pattern(bound) == bit_pattern(expect[1])
        for S in _first_pass_roots(sys.hypergraph):
            A = root_rows(root_stack(sys, S, X))
            tops = [symmetric_top_eig(A[:, p * n:(p + 1) * n, p * n:(p + 1) * n]).max()
                    for p in range(len(S))]
            assert bit_pattern(floor[list(S)]) == bit_pattern(np.array(tops))
            assert bound[list(S)].max() >= max(A.max(), -A.min())

    @given(st.integers(0, 2**32 - 1), st.integers(2, 6))
    def test_a_node_heading_several_edges_adds_them_in_edge_order(self, seed, M):
        # node 0 heads one edge from each other node, and the floor of one
        # sample of a scalar node is its block's one entry: the sum of the
        # edges' terms, whose bits depend on the order of the adds
        rng = np.random.default_rng(seed)
        h = DirectedHypergraph(M, tuple(Hyperedge.uniform((v,), (0,), float(rng.uniform(0.1, 30)))
                                        for v in range(1, M)))
        sys = NetworkSystem(h, bistable_field(3.0, 0.5), tanh_coupling(0.2, 0.05, 2.0),
                            identity_output(1))
        X = rng.normal(0.0, 3.0, (1, M, 1))
        A = root_rows(root_stack(sys, (0,), X, frozenset(range(1, M))))
        assert bit_pattern(assembly.node_floors(sys, X)[0][0]) == bit_pattern(A[0, 0, 0])

    @settings(max_examples=30)
    @given(hierarchical_cases(), st.sampled_from([math.inf, -math.inf, math.nan]), st.data())
    def test_a_non_finite_sample_never_refutes(self, drawn, bad, data):
        case, _ = drawn
        sys, ens, options = case.build()
        X = ens.stacked().copy()
        at = tuple(data.draw(st.integers(0, size - 1)) for size in X.shape)
        X[at] = bad
        # the coupling and the field meet inf * 0 on such a sample
        with np.errstate(invalid="ignore", over="ignore"):
            floors = assembly.node_floors(sys, X)
            for S in _first_pass_roots(sys.hypergraph):
                stack = assembly.stack_roots(sys, [S], X, floors=floors)
                if not np.isfinite(stack.rows(slice(None))).all():
                    assert not designer.thm2_refuted(stack, options.margin)[0]

    @settings(max_examples=20)
    @given(hierarchical_cases(), st.sampled_from([1, 2, 3]))
    def test_design_equals_reference_at_a_floors_budget_of_a_few_samples(
            self, chunk_budget, drawn, per_chunk):
        case, _ = drawn
        sys, ens, options = case.build()
        with case.budget():
            expect = reference_design_observer(sys, ens, options).to_json_dict()
            with chunk_budget(_floors_budget(sys, per_chunk)):
                got = design_observer(sys, ens, options).to_json_dict()
        # JSON text tells -0.0 from 0.0
        assert json.dumps(got) == json.dumps(expect)


class TestLazyStack:
    def test_retried_root_assembles_once_after_its_pass(self, monkeypatch, usable_cpus):
        # {1, 2} fails synthesis on node 2 alone and passes on nodes 2 and 1:
        # its own stack, made after the sweep that certifies every root
        # before pass 1, assembles its one chunk once, and the second
        # synthesis and the check with gains read those rows.  In process,
        # each root synthesizes in its pass: (0,) in pass 1, then {1, 2}
        usable_cpus(1)
        case = NAMED_CASES["synthesis_two_nodes"]
        sys, ens, options = case.build()
        events = []
        real_batch, real_pass = assembly.a_matrix_batch, designer.certify_pass
        real_synthesis = designer.design_gain_thm2
        monkeypatch.setattr(assembly, "a_matrix_batch", lambda sys, roots, *args: events.append(
            ("assemble", tuple(map(tuple, roots.tolist())))) or real_batch(sys, roots, *args))
        monkeypatch.setattr(designer, "certify_pass", lambda sys, roots, *args: events.append(
            ("pass", tuple(roots))) or real_pass(sys, roots, *args))
        monkeypatch.setattr(designer, "design_gain_thm2", lambda stack, *args: events.append(
            ("synthesis", one_root(stack))) or real_synthesis(stack, *args))
        with case.budget():
            outcome = design_observer(sys, ens, options)
        (entry,) = [p for p in outcome.processed if p.nodes == (1, 2)]
        assert entry.report.theorem_used == "thm2" and entry.added_measured == (2, 1)
        (at,) = [k for k, (kind, roots) in enumerate(events)
                 if kind == "pass" and (1, 2) in roots]
        assert events[at] == ("pass", ((0,), (1, 2)))
        after = events[at + 1:]
        assert after.count(("synthesis", (1, 2))) == 2
        assert after.count(("assemble", ((1, 2),))) == 1
        syntheses = [roots for kind, roots in after if kind == "synthesis"]
        assert syntheses == [(0,), (1, 2), (1, 2)]

    def test_refuted_root_assembles_no_sample(self, monkeypatch):
        # a chaotic Lorenz cycle: its blocks refute Theorem 2, the only check
        # a zero-gain certification runs, so no sample is ever assembled
        sys, ens = _cycle_root(lorenz_field(), 3, count=4, length=20, seed=3)
        # the design's floors, made once before any stack
        floors = assembly.node_floors(sys, ens.stacked())
        assembled = []
        real = assembly.a_matrix_batch
        monkeypatch.setattr(assembly, "a_matrix_batch",
                            lambda sys, roots, pairs, X, dg: assembled.append(len(X)) or real(
                                sys, roots, pairs, X, dg))
        stack = assembly.stack_roots(sys, [(0, 1, 2)], ens.stacked(), floors=floors)
        assert assembled == []
        ((report, _),) = designer.certify_pass(sys, [(0, 1, 2)], ens.stacked(),
                                               DesignOptions(margin=2.0), set(), floors)
        assert report is None and designer.thm2_refuted(stack, 2.0)[0]
        assert assembled == [] and stack.a is None

    @given(st.integers(0, 2**32 - 1), st.sampled_from([1, 2, 3]), st.data())
    def test_rows_equal_the_whole_stack_under_a_budget(self, chunk_budget, seed, per_chunk,
                                                      data):
        rng = np.random.default_rng(seed)
        R, M = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        sys, roots, X = stacked_chains(rng, R, M, str(rng.choice(["lorenz", "bistable"])))
        K, stack = len(X), assembly.stack_roots(sys, roots, X)
        whole, per_sample = stack.rows(slice(None)), sample_bytes(stack)
        lo = data.draw(st.integers(0, K - 1))
        idx = slice(lo, data.draw(st.integers(lo + 1, K)))
        # chunks of per_chunk samples of everything a sample assembles
        with chunk_budget(per_sample * per_chunk):
            stack = assembly.stack_roots(sys, roots, X)
            part = stack.rows(idx)
            assert bit_pattern(part) == bit_pattern(whole[:, idx])
            assert bit_pattern(stack.rows(slice(None))) == bit_pattern(whole)
            assert (stack.a is None) == (per_chunk < K)

    @given(st.integers(0, 2**32 - 1), st.sampled_from([None, 1, 2, 3]),
           st.sampled_from([0.05, 0.5, 2.0]), st.data())
    def test_check_roots_reports_each_root_as_its_own_stack(self, chunk_budget, seed, per_chunk,
                                                            margin, data):
        # one check over a multi-root zero-gain stack, or over some of its
        # roots in any order, whole or a few samples at a time: each root's
        # report is, bit for bit, check_thm2's on a one-root stack of its own
        rng = np.random.default_rng(seed)
        R, M = int(rng.integers(2, 5)), int(rng.integers(1, 4))
        sys, roots, X = stacked_chains(rng, R, M, str(rng.choice(["lorenz", "bistable"])))
        picks = data.draw(st.none() | st.lists(st.integers(0, R - 1), min_size=1, unique=True))
        pick = slice(None) if picks is None else np.array(picks)
        per_sample = sample_bytes(assembly.stack_roots(sys, roots, X))
        with chunk_budget(dynamics.CHUNK_BYTES if per_chunk is None else per_sample * per_chunk):
            got = assembly.check_roots(assembly.stack_roots(sys, roots, X), margin, pick)
        expect = [check_thm2(assembly.stack_roots(sys, [roots[r]], X), margin)
                  for r in (range(R) if picks is None else picks)]
        assert len(got) == len(expect)
        for a, b in zip(got, expect):
            assert (a.passed, a.theorem_used, a.sample_count) == (b.passed, b.theorem_used,
                                                                  b.sample_count)
            assert bit_pattern(np.array([a.hurwitz_margin, a.g_bound])) == bit_pattern(
                np.array([b.hurwitz_margin, b.g_bound]))

    def test_bounds_assemble_only_the_unread_chunks(self, chunk_budget, monkeypatch):
        # g and a_max assemble each chunk that no read has covered, once:
        # after a read of samples 2-4 of 9, chunks of 2, they assemble the
        # chunks 0-1, 4-5 (sample 5 unread), 6-7 and 8
        rng = np.random.default_rng(17)
        sys, roots, X = stacked_chains(rng, 2, 2, "lorenz")
        X = rng.uniform(-3, 3, (9,) + X.shape[1:])
        whole = assembly.stack_roots(sys, roots, X)
        expect_g, expect_max = whole.g.copy(), whole.a_max.copy()
        assembled = []
        real = assembly.a_matrix_batch
        monkeypatch.setattr(assembly, "a_matrix_batch",
                            lambda sys, roots, pairs, X, dg: assembled.append(len(X)) or real(
                                sys, roots, pairs, X, dg))
        with chunk_budget(sample_bytes(whole) * 2):
            stack = assembly.stack_roots(sys, roots, X)
            stack.rows(slice(2, 5))
            assert assembled == [3]
            assert bit_pattern(stack.a_max) == bit_pattern(expect_max)
            assert assembled == [3, 2, 2, 2, 1]
            assert bit_pattern(stack.g) == bit_pattern(expect_g)
            assert assembled == [3, 2, 2, 2, 1] and stack.a is None


def _record_syntheses(monkeypatch, path, fail=()) -> Callable[[], list]:
    """From now on each gain synthesis, a forked worker's too, appends its
    process id and root to the file ``path``, and raises ``Infeasible`` on
    the roots ``fail``.  Returns a reader of the (pid, root) pairs, which
    empties the file."""
    real = designer.design_gain_thm2

    def recorded(stack, measured, h_req):
        with open(path, "a") as f:
            f.write(json.dumps([os.getpid(), one_root(stack)]) + "\n")
        if one_root(stack) in fail:
            raise gain_design.Infeasible(f"no gains on {one_root(stack)}")
        return real(stack, measured, h_req)

    def read():
        pairs = [(pid, tuple(S)) for pid, S in map(json.loads, path.read_text().splitlines())]
        path.unlink()
        return pairs

    monkeypatch.setattr(designer, "design_gain_thm2", recorded)
    return read


class TestSynthesisPool:
    @pytest.mark.parametrize("name", sorted(NAMED_CASES))
    def test_pool_and_in_process_give_the_same_bits(self, monkeypatch, usable_cpus, tmp_path,
                                                    name):
        # every named case without the shortcut: one usable CPU synthesizes
        # in this process, two fork a pool where two roots synthesize, and
        # with no fork two synthesize in process too
        case = dataclasses.replace(NAMED_CASES[name], shortcut=False)
        sys, ens, options = case.build()
        syntheses = _record_syntheses(monkeypatch, tmp_path / "syntheses")
        texts, forked = [], []
        for cpus, fork in ((1, True), (2, True), (2, False)):
            usable_cpus(cpus)
            if not fork:
                monkeypatch.delattr(os, "fork")
            with case.budget():
                # JSON text tells -0.0 from 0.0
                texts.append(json.dumps(design_observer(sys, ens, options).to_json_dict()))
            forked.append(any(pid != os.getpid() for pid, _ in syntheses()))
        assert texts[0] == texts[1] == texts[2]
        two_roots = {"synthesis_two_nodes", "synthesis_two_nodes_partial_output",
                     "inverse_shortcut"}
        assert forked == [False, name in two_roots, False]

    def test_a_failed_design_records_no_later_root(self, monkeypatch, usable_cpus, tmp_path):
        # (0,) of pass 1 is exhausted while a worker synthesizes {1, 2} of
        # pass 2: the design records what it records in process, and nothing
        # of {1, 2}
        case = NAMED_CASES["synthesis_two_nodes"]
        sys, ens, options = case.build()
        syntheses = _record_syntheses(monkeypatch, tmp_path / "syntheses", fail={(0,)})
        outcomes = []
        for cpus in (1, 2):
            usable_cpus(cpus)
            with case.budget():
                outcomes.append(design_observer(sys, ens, options))
            assert multiprocessing.active_children() == []
            roots = {S for _, S in syntheses()}
            assert roots == ({(0,)} if cpus == 1 else {(0,), (1, 2)})
        for outcome in outcomes:
            assert outcome.status == "failed" and outcome.failed_subset == (0,)
            assert outcome.design.measured == {0} and outcome.design.gains == {}
            assert [(p.nodes, p.report.theorem_used, p.added_measured, p.iteration)
                    for p in outcome.processed] == [((0,), "none", (0,), 1)]
        assert json.dumps(outcomes[0].to_json_dict()) == json.dumps(outcomes[1].to_json_dict())

    def test_no_worker_outlives_a_design(self, monkeypatch, usable_cpus):
        # two roots synthesize on two usable CPUs: a complete design, and one
        # whose workers raise, which reaches the caller from the first root
        # in pass order
        usable_cpus(2)
        case = NAMED_CASES["synthesis_two_nodes"]
        sys, ens, options = case.build()
        with case.budget():
            assert design_observer(sys, ens, options).complete
        assert multiprocessing.active_children() == []

        def raises(stack, measured, h_req):
            raise RuntimeError(f"synthesis on {one_root(stack)} raised")

        monkeypatch.setattr(designer, "design_gain_thm2", raises)
        with pytest.raises(RuntimeError, match=r"synthesis on \(0,\) raised"):
            design_observer(sys, ens, options)
        assert multiprocessing.active_children() == []

    def test_designs_whose_workers_raise_never_hang(self):
        # a worker stopped while it sends a result would leave a queue lock
        # held, on which a pool's shutdown can wait forever: 100 designs
        # whose two workers raise at once, in a process that must end in time
        script = textwrap.dedent("""
            import os
            import sys

            os.sched_getaffinity = lambda pid: {0, 1}
            from test_designer import NAMED_CASES, designer

            def raises(stack, measured, h_req):
                raise RuntimeError("raised")

            designer.design_gain_thm2 = raises
            system, ens, options = NAMED_CASES["synthesis_two_nodes"].build()
            for _ in range(100):
                try:
                    designer.design_observer(system, ens, options)
                except RuntimeError:
                    pass
        """)
        tests = Path(__file__).parent
        path = os.pathsep.join([str(Path(designer.__file__).parents[1]), str(tests)])
        subprocess.run([sys.executable, "-c", script], cwd=tests, check=True, timeout=120,
                       env={**os.environ, "PYTHONPATH": path})


class TestRobustnessPropagation:
    def make_outcome(self):
        sys = cohead_pair_system()
        ens = small_ensemble(sys, count=6, horizon=0.4, seed=7)
        outcome = design_observer(sys, ens, DesignOptions(margin=2.0))
        return sys, outcome, field_param_jacobian_bound(sys, ens.stacked())

    def test_bounds_finite_and_monotone(self):
        sys, outcome, f_bound = self.make_outcome()
        b1, per1 = propagate_robustness_bounds(sys, outcome, 0.1, 0.05, f_bound)
        b2, _ = propagate_robustness_bounds(sys, outcome, 0.2, 0.05, f_bound)
        b3, _ = propagate_robustness_bounds(sys, outcome, 0.1, 0.10, f_bound)
        assert math.isfinite(b1) and b1 >= 0
        assert b2 >= b1 and b3 >= b1
        assert len(per1) == len(outcome.processed)

    def test_zero_uncertainty_zero_bound(self):
        sys, outcome, f_bound = self.make_outcome()
        b, per = propagate_robustness_bounds(sys, outcome, 0.0, 0.0, f_bound)
        assert b == 0.0

    @pytest.mark.parametrize("nu", [1e154, 1e200])
    def test_overflowing_sum_of_squares_is_inf(self, nu):
        # every subset's bound is finite, the sum of their squares is not
        sys, outcome, f_bound = self.make_outcome()
        b, per = propagate_robustness_bounds(sys, outcome, 0.0, nu, f_bound)
        assert b == math.inf and all(math.isfinite(p.value) for p in per)

    def test_exact_nodes_bounded_by_inverted_noise(self):
        sys, outcome, f_bound = self.make_outcome()
        nu = 0.3
        _, per = propagate_robustness_bounds(sys, outcome, 0.0, nu, f_bound)
        exact_entries = [
            bound for p, bound in zip(outcome.processed, per)
            if p.report.theorem_used == "exact"
        ]
        assert exact_entries
        for bound in exact_entries:
            assert bound.value == pytest.approx(nu)  # identity output


class TestFieldParamJacobianBound:
    @given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(1, 40))
    def test_one_row_jacobian_matches_the_svd(self, seed, N, K):
        # bistable: a 1x2 parameter Jacobian, whose spectral norm is its
        # row's norm; the two routes round differently, by at most 4 ulp
        rng = np.random.default_rng(seed)
        sys = NetworkSystem(DirectedHypergraph(N), bistable_field(*rng.uniform(0.1, 5.0, 2)),
                            linear_coupling(1.0), identity_output(1))
        X = rng.uniform(-5.0, 5.0, (K, N, 1))
        J = sys.field.jac_mu(X, sys.field.nominal_params)
        assert J.shape == (K, N, 1, 2)
        svd = np.linalg.svd(J, compute_uv=False)[..., 0]
        for k in range(K):
            got = field_param_jacobian_bound(sys, X[k : k + 1])
            assert abs(got - svd[k].max()) <= 4 * np.spacing(svd[k].max())
        got = field_param_jacobian_bound(sys, X)
        assert abs(got - svd.max()) <= 4 * np.spacing(svd.max())

    @given(st.integers(0, 2**32 - 1), st.sampled_from(["diagonal", "lorenz"]),
           st.integers(1, 5), st.booleans(), st.sampled_from([None, 1, 4]))
    @example(0, "diagonal", 3, False, 1)
    @example(1, "diagonal", 2, True, None)
    @example(2, "lorenz", 2, False, None)
    def test_diagonal_jacobian_equals_the_svd(self, chunk_budget, seed, field, N, dense,
                                              per_chunk):
        # diagonal parameter Jacobians with zero, negative and subnormal
        # entries among ones in LAPACK's unscaled range: the max |diagonal
        # entry| is the SVD's bit for bit; a chunk holding one nonzero off
        # the diagonal takes the SVD
        rng = np.random.default_rng(seed)
        special = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-310])
        X = rng.uniform(-30.0, 30.0, (9, N, 3)) * 10.0 ** rng.integers(-100, 100, (9, N, 3))
        X = np.where(rng.random(X.shape) < 0.3, rng.choice(special, X.shape), X)
        X[rng.integers(9), rng.integers(N)] = rng.uniform(-30.0, 30.0, 3)
        if dense:
            X[4, 0, 0] = 7.25

        def diagonal(x, mu):
            J = np.zeros(x.shape + (3,))
            J[..., [0, 1, 2], [0, 1, 2]] = x
            if dense:
                # one nonzero off the diagonal, in sample 4's chunk
                J[..., 0, 1] = np.where(x[..., 0] == 7.25, 1e120, 0.0)
            return J

        fields = {"diagonal": vector_field_from_callable(
            lambda x, mu: x, 3, np.ones(3), jac_mu=diagonal), "lorenz": lorenz_field()}
        sys = NetworkSystem(DirectedHypergraph(N), fields[field], linear_coupling(1.0),
                            identity_output(3))
        J = sys.field.jac_mu(X, sys.field.nominal_params)
        svd = np.linalg.svd(J, compute_uv=False)[..., 0].max()
        per_sample = 8 * N * 3 * 3
        with chunk_budget(per_sample * (per_chunk or len(X))):
            got = field_param_jacobian_bound(sys, X)
        assert got == svd

    @pytest.mark.parametrize("field", ["bistable", "lorenz"])
    @pytest.mark.parametrize("per_chunk", [1, 3])
    def test_chunks_change_no_bit(self, chunk_budget, field, per_chunk):
        rng = np.random.default_rng(13)
        sys = random_system(rng, random_hypergraph(rng, max_nodes=5, max_edges=3), field)
        X = rng.uniform(-5.0, 5.0, (17, sys.num_nodes, sys.state_dim))
        X[4, 0, 0] = np.nan
        per_sample = 8 * sys.num_nodes * sys.state_dim * sys.field.param_dim

        def bound(samples):
            # the SVD of a NaN sample does not converge, whole or chunked
            try:
                return field_param_jacobian_bound(sys, samples)
            except np.linalg.LinAlgError:
                return "LinAlgError"

        for samples in (X[5:], X):
            whole = bound(samples)
            with chunk_budget(per_sample * per_chunk):
                got = bound(samples)
            assert got == whole or (math.isnan(got) and math.isnan(whole))
