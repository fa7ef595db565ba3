import dataclasses
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperobs import (
    DirectedHypergraph,
    HierarchicalGenSpec,
    Hyperedge,
    LayerTooSmall,
    NegativeWeight,
    NodeOutOfRange,
    OverlappingTailsHeads,
    WeightSumViolation,
    generate_hierarchical,
)
from hyperobs.hypergraph import (WEIGHT_SUM_TOL, HypergraphError, condense, dependency_arcs,
                                 label_components)
from scipy.sparse.csgraph import connected_components
from conftest import (
    boundary,
    brute_force_sccs,
    degrees,
    gen_specs,
    head_closed,
    hypergraphs,
    incoming,
    incoming_closure,
    members_of,
    outgoing,
    random_hypergraph,
    reference_condense,
    reference_edges,
    reference_generate_hierarchical,
    restrict,
    tails_of,
    to_dependency_graph,
)


def fig1_edge():
    # two tails {0,1}, two heads {2,3}, uniform weights, unit strength
    return Hyperedge((0, 1), (2, 3), (0.5, 0.5), (0.5, 0.5), 1.0)


class TestHyperedgeValidation:
    def test_two_tail_two_head_edge_accepted(self):
        h2 = DirectedHypergraph(5, (fig1_edge(),))
        assert len(h2.edges) == 1
        assert h2.edges[0].cardinality == 4

    def test_overlapping_tails_heads_rejected(self):
        with pytest.raises(OverlappingTailsHeads):
            Hyperedge((0,), (0,), (1.0,), (1.0,))

    def test_weight_sum_violation(self):
        with pytest.raises(WeightSumViolation):
            Hyperedge((0, 1), (2,), (0.7, 0.4), (1.0,))

    def test_negative_weight_rejected(self):
        with pytest.raises(NegativeWeight):
            Hyperedge((0, 1), (2,), (1.5, -0.5), (1.0,))
        with pytest.raises(NegativeWeight):
            Hyperedge((0,), (1, 2), (1.0,), (-0.5, 1.5))

    def test_non_finite_numbers_rejected(self):
        # NaN passes the sum, sign and positivity tests, which all compare false
        for value in (math.nan, math.inf):
            for alpha, beta, sigma in (
                ((value, 1.0), (1.0,), 1.0),
                ((0.5, 0.5), (value,), 1.0),
                ((0.5, 0.5), (1.0,), value),
            ):
                with pytest.raises(HypergraphError, match="finite"):
                    Hyperedge((0, 1), (2,), alpha, beta, sigma)

    def test_node_out_of_range(self):
        with pytest.raises(NodeOutOfRange):
            DirectedHypergraph(2, (Hyperedge((0,), (5,), (1.0,), (1.0,)),))


def weights_summing_to(draw, k: int, target: float) -> list[float]:
    """k weights whose Python sum, added in order, is about ``target``."""
    head = [draw(st.floats(0.0, 1.0 / k)) for _ in range(k - 1)]
    return [*head, target - sum(head)]


# offsets of a side's sum from 1 at and around the tolerance, as Python's sum
# adds the weights: just inside, on it and just outside
SUM_OFFSETS = [WEIGHT_SUM_TOL * f for f in (1 - 1e-4, 1.0, 1 + 1e-4, -(1 - 1e-4), -1.0,
                                             -(1 + 1e-4), 1e9)]
FAULTS = ["empty tails", "empty heads", "overlap", "repeat", "length", "non-finite",
          "negative", "sum", "sigma", "range"]


@st.composite
def edge_docs(draw, num_nodes: int):
    """One network-file edge over ``num_nodes`` nodes, valid or broken in
    one of the ways that Hyperedge and the node range refuse: an empty side,
    a node in both sides or twice in one, weights and nodes of unequal
    lengths, a non-finite or negative weight, a sum just inside or outside
    ``WEIGHT_SUM_TOL``, sigma <= 0 or non-finite, or a node out of range."""
    pool = max(num_nodes, 2)
    nodes = draw(st.lists(st.integers(0, pool - 1), min_size=2, max_size=min(pool, 6),
                          unique=True))
    cut = draw(st.integers(1, len(nodes) - 1))
    doc = {"tails": nodes[:cut], "heads": nodes[cut:],
           "alpha": weights_summing_to(draw, cut, 1.0),
           "beta": weights_summing_to(draw, len(nodes) - cut, 1.0)}
    if draw(st.booleans()):
        doc["sigma"] = draw(st.floats(0.01, 10.0))
    fault = draw(st.sampled_from([None, None, *FAULTS]))
    side, weights = draw(st.sampled_from([("tails", "alpha"), ("heads", "beta")]))
    k = len(doc[side])
    if fault in ("empty tails", "empty heads"):
        side, weights = ("tails", "alpha") if fault == "empty tails" else ("heads", "beta")
        doc[side], doc[weights] = [], []
    elif fault == "overlap":
        doc["heads"] = [*doc["heads"], draw(st.sampled_from(doc["tails"]))]
        doc["beta"] = weights_summing_to(draw, len(doc["heads"]), 1.0)
    elif fault == "repeat":
        doc[side] = [*doc[side], doc[side][-1]]
        doc[weights] = weights_summing_to(draw, k + 1, 1.0)
    elif fault == "length":
        doc[weights] = weights_summing_to(draw, k + draw(st.sampled_from([-1, 1])) or 2, 1.0)
    elif fault in ("non-finite", "negative"):
        bad = [math.nan, math.inf, -math.inf] if fault == "non-finite" else [-0.25, -1e-300]
        doc[weights][draw(st.integers(0, k - 1))] = draw(st.sampled_from(bad))
    elif fault == "sum":
        doc[weights] = weights_summing_to(draw, k, 1.0 + draw(st.sampled_from(SUM_OFFSETS)))
    elif fault == "sigma":
        doc["sigma"] = draw(st.sampled_from([0.0, -0.0, -1.0, math.inf, math.nan]))
    elif fault == "range":
        doc[side] = [*doc[side][:-1], draw(st.sampled_from([-1, num_nodes, num_nodes + 5]))]
    return doc


def outcome(edges):
    """What ``edges()`` returns, or the type and message of what it raises."""
    try:
        return edges()
    except HypergraphError as exc:
        return type(exc), str(exc)


class TestArrayConstructor:
    @given(st.data())
    @settings(max_examples=400)
    def test_agrees_with_the_per_edge_path(self, data):
        num_nodes = data.draw(st.integers(-1, 6))
        docs = data.draw(st.lists(edge_docs(num_nodes), max_size=3))
        doc = {"num_nodes": num_nodes, "edges": docs}
        expect = outcome(lambda: reference_edges(num_nodes, docs))
        assert outcome(lambda: DirectedHypergraph.from_json_dict(doc).edges) == expect
        if all(len(d["alpha"]) == len(d["tails"]) and len(d["beta"]) == len(d["heads"])
               for d in docs):
            # the arrays alone, with no Hyperedge built unless a check fails
            ptr = np.cumsum([0] + [len(d["tails"]) + len(d["heads"]) for d in docs])
            arrays = (ptr, [v for d in docs for v in d["tails"] + d["heads"]],
                      [w for d in docs for w in d["alpha"] + d["beta"]],
                      [len(d["tails"]) for d in docs], [d.get("sigma", 1.0) for d in docs])
            assert outcome(lambda: DirectedHypergraph.from_arrays(num_nodes, *arrays).edges
                           ) == expect

    @pytest.mark.parametrize("big", [2**63, 2**64, -2**63 - 1])
    def test_node_past_intp_is_out_of_range(self, big):
        # an id no intp holds is checked as an int on the per-edge path, in
        # the order of the edge-by-edge reference: the first bad edge, then a
        # negative num_nodes, then the first node out of range
        ok = {"tails": [1], "heads": [0], "alpha": [1.0], "beta": [1.0]}
        huge, bad_sum = {**ok, "tails": [big]}, {**ok, "alpha": [0.5]}
        cases = [(3, [huge]), (3, [ok, huge]), (3, [{**ok, "heads": [5]}, huge]),
                 (-1, [huge]), (3, [huge, bad_sum]), (-1, [huge, bad_sum])]
        for num_nodes, docs in cases:
            expect = outcome(lambda: reference_edges(num_nodes, docs))
            doc = {"num_nodes": num_nodes, "edges": docs}
            assert outcome(lambda: DirectedHypergraph.from_json_dict(doc).edges) == expect
            if bad_sum not in docs:
                edges = [Hyperedge(**d) for d in docs]
                assert outcome(lambda: DirectedHypergraph(num_nodes, edges).edges) == expect
        assert outcome(lambda: DirectedHypergraph.from_json_dict(
            {"num_nodes": 3, "edges": [huge]})) == (NodeOutOfRange, f"node {big} outside [0, 3)")

    def test_edges_are_built_when_read_in_the_order_given(self, monkeypatch):
        edges = (Hyperedge((3, 0), (2,), (0.25, 0.75), (1.0,), 2.0), fig1_edge())
        built = []
        real = Hyperedge.__post_init__
        monkeypatch.setattr(Hyperedge, "__post_init__", lambda e: built.append(e) or real(e))
        h = DirectedHypergraph.from_json_dict(DirectedHypergraph(5, edges).to_json_dict())
        assert built == []
        assert h.edges == edges and h.num_edges == 2
        assert h.members.tolist() == [0, 2, 3, 0, 1, 2, 3]

    def test_equality_is_by_content(self):
        a, b = fig1_edge(), Hyperedge((4,), (0,), (1.0,), (1.0,))
        assert DirectedHypergraph(5, (a, b)) == DirectedHypergraph.from_json_dict(
            json.loads(DirectedHypergraph(5, (a, b)).to_json()))
        assert DirectedHypergraph(5, (a, b)) != DirectedHypergraph(5, (b, a))
        assert DirectedHypergraph(5, (a,)) != DirectedHypergraph(6, (a,))
        assert DirectedHypergraph(5, (a,)) != DirectedHypergraph(5, (a, b))

    def test_json_has_one_edge_per_line(self):
        h = DirectedHypergraph(5, (fig1_edge(), Hyperedge((4,), (0,), (1.0,), (1.0,), 0.5)))
        lines = h.to_json().splitlines()
        assert len(lines) == 4 and json.loads(lines[1].rstrip(",")) == h.to_json_dict()["edges"][0]
        assert json.loads(h.to_json()) == h.to_json_dict()
        assert json.loads(DirectedHypergraph(2).to_json()) == {"num_nodes": 2, "edges": []}

    @pytest.mark.parametrize("change", [{"sigma": None}, {"alpha": [None]}, {"beta": ["x"]},
                                        {"tails": [None]}, {"heads": 0}, {"typo": 1}])
    def test_unreadable_values_raise_what_hyperedge_raises(self, change):
        # a value that no number reads, or a key no edge has: the array read
        # gives way to the per-edge one, whose refusal is today's
        doc = {"tails": [1], "heads": [0], "alpha": [1.0], "beta": [1.0], **change}
        with pytest.raises((TypeError, ValueError)) as expect:
            Hyperedge(**doc)
        with pytest.raises(type(expect.value), match=f"^{re.escape(str(expect.value))}$"):
            DirectedHypergraph.from_json_dict({"num_nodes": 2, "edges": [doc]})


def slice_rows(sl):
    """The slice's edge ids and each row's (members, weights, head flags)."""
    rows = [slice(lo, hi) for lo, hi in zip(sl.ptr[:-1], sl.ptr[1:])]
    return sl.edges.tolist(), [
        (sl.members[r].tolist(), sl.weights[r].tolist(), sl.is_head[r].tolist()) for r in rows
    ]


def slice_degrees(h):
    """(in-degrees, out-degrees) of every node, counted on the slice of all
    nodes: every edge has a head, so it holds every edge."""
    sl = h.entering(range(h.num_nodes))
    return (np.bincount(sl.members[sl.is_head], minlength=h.num_nodes),
            np.bincount(sl.members[~sl.is_head], minlength=h.num_nodes))


def internal(h, S):
    """The edges of ``h.entering(S)`` with no member outside S."""
    sl = h.entering(S)
    return [int(k) for k, lo, hi in zip(sl.edges, sl.ptr[:-1], sl.ptr[1:])
            if set(sl.members[lo:hi].tolist()) <= set(S)]


class TestEdgeQueries:
    def test_incoming_contains_edge_for_each_head(self):
        h = DirectedHypergraph(5, (fig1_edge(),))
        assert h.entering([3]).edges.tolist() == [0]
        assert h.entering([2]).edges.tolist() == [0]
        assert h.entering([0]).edges.tolist() == []
        sl = h.entering(range(5))
        assert sl.edges[sl.rows[(sl.members == 1) & ~sl.is_head]].tolist() == [0]

    def test_restrict_empty_set(self):
        h = DirectedHypergraph(5, (fig1_edge(),))
        sl = h.entering([])
        assert sl.edges.tolist() == [] and sl.ptr.tolist() == [0]
        assert len(sl.members) == len(sl.weights) == len(sl.is_head) == 0
        assert internal(h, []) == restrict(h, []) == []

    @given(hypergraphs())
    def test_boundary_union_restrict_is_incoming_closure(self, h):
        rng = np.random.default_rng(7)
        for _ in range(5):
            if h.num_nodes == 0:
                break
            size = int(rng.integers(0, h.num_nodes + 1))
            S = sorted(rng.choice(h.num_nodes, size=size, replace=False).tolist())
            got = h.entering(S).edges.tolist()
            # brute-force scan over all edges
            expect = [k for k, e in enumerate(h.edges) if set(S) & set(e.heads)]
            assert got == expect
            inside = internal(h, S)
            assert inside == restrict(h, S)
            assert sorted(set(boundary(h, S)) | set(inside)) == expect
            assert set(boundary(h, S)).isdisjoint(inside)

    def test_out_of_range_nodes_raise(self):
        h = DirectedHypergraph(5, (fig1_edge(),))
        for bad in ([5], [0, -1], [2, 7]):
            with pytest.raises(NodeOutOfRange):
                h.entering(bad)

    def test_repeated_node_raises(self):
        h = DirectedHypergraph(5, (fig1_edge(),))
        for bad in ([3, 3], [0, 2, 4, 2], [1, 0, 1, 1]):
            with pytest.raises(HypergraphError, match=f"node {bad[-1]} given twice"):
                h.entering(bad)

    @given(hypergraphs(), st.data())
    def test_position_indexes_the_nodes_in_their_order(self, h, data):
        nodes = data.draw(st.lists(st.integers(0, h.num_nodes - 1), unique=True))
        expect = [nodes.index(v) if v in nodes else -1 for v in range(h.num_nodes)]
        assert h.entering(iter(nodes)).position.tolist() == expect


class TestQueriesMatchScan:
    """The incidence slice against per-edge scans of ``h.edges``."""

    @given(hypergraphs(), st.data())
    def test_node_queries(self, h, data):
        edges = list(enumerate(h.edges))
        d_in, d_out = slice_degrees(h)
        mask = data.draw(st.lists(st.booleans(), min_size=len(edges), max_size=len(edges)))
        within = [k for k, keep in enumerate(mask) if keep]
        for i in range(h.num_nodes):
            assert h.entering([i]).edges.tolist() == incoming(h, i)
            assert incoming(h, i) == [k for k, e in edges if i in e.heads]
            assert outgoing(h, i) == [k for k, e in edges if i in e.tails]
            assert (d_in[i], d_out[i]) == degrees(h, i) == (
                sum(1 for _, e in edges if i in e.heads),
                sum(1 for _, e in edges if i in e.tails),
            )
            assert degrees(h, i, within) == (
                sum(1 for k in within if i in h.edges[k].heads),
                sum(1 for k in within if i in h.edges[k].tails),
            )

    @given(hypergraphs(), st.data())
    def test_subset_queries(self, h, data):
        nodes = st.sets(st.integers(0, h.num_nodes - 1))
        S, ignoring = data.draw(nodes), data.draw(nodes)
        edges = list(enumerate(h.edges))
        inside = [k for k, e in edges if set(e.tails) <= S and set(e.heads) <= S]
        closure = [k for k, e in edges if S & set(e.heads)]
        sl = h.entering(S)
        got_edges, rows = slice_rows(sl)
        assert got_edges == incoming_closure(h, S) == closure
        assert rows == [tuple(members_of(h, k)) for k in closure]
        assert internal(h, sorted(S)) == restrict(h, S) == inside
        assert boundary(h, S) == [k for k in closure if k not in inside]
        assert tails_of(h, closure) == sorted({t for k in closure for t in h.edges[k].tails})
        heads = set(sl.members[sl.is_head].tolist())
        assert (heads <= S | ignoring) == head_closed(h, S, ignoring) == all(
            set(e.heads) <= S | ignoring for _, e in edges if S & set(e.heads)
        )


class TestDegrees:
    def test_fig1_out_degree(self):
        h = DirectedHypergraph(5, (fig1_edge(),))
        d_in, d_out = slice_degrees(h)
        assert d_out[1] >= 1 and d_in[1] == 0
        assert degrees(h, 1) == (d_in[1], d_out[1])

    def test_isolated_node(self):
        h = DirectedHypergraph(5, (fig1_edge(),))
        d_in, d_out = slice_degrees(h)
        assert (d_in[4], d_out[4]) == degrees(h, 4) == (0, 0)

    def test_degree_sums_match_head_and_tail_counts(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            h = random_hypergraph(rng)
            d_in, d_out = slice_degrees(h)
            assert d_in.sum() == sum(degrees(h, i)[0] for i in range(h.num_nodes))
            assert d_out.sum() == sum(degrees(h, i)[1] for i in range(h.num_nodes))
            assert d_in.sum() == sum(len(e.heads) for e in h.edges)
            assert d_out.sum() == sum(len(e.tails) for e in h.edges)

    def test_restricted_degrees(self):
        h = DirectedHypergraph(5, (fig1_edge(),))
        assert degrees(h, 2, within=[]) == (0, 0)
        assert degrees(h, 2, within=[0]) == (1, 0)
        # the slice sees the one edge inside {0, 1, 2, 3}, none inside {1, 2, 3}
        assert internal(h, [0, 1, 2, 3]) == [0] and internal(h, [1, 2, 3]) == []


def arcs_of(src, dst) -> set[tuple[int, int]]:
    return set(zip(src.tolist(), dst.tolist()))


def arc_arrays(arcs):
    """(src, dst) of plain arcs, grouped by head as ``dependency_arcs`` groups them."""
    arcs = sorted(arcs, key=lambda arc: arc[1])
    return tuple(np.array([arc[k] for arc in arcs], dtype=np.intp) for k in (0, 1))


def labels_on(num_nodes, src, dst, on):
    label = np.full(num_nodes, -1, dtype=np.intp)
    label_components(src, dst, on, label)
    return label


def roots_of(num_nodes, arcs, on=None):
    """``condense``'s roots of the pattern with plain ``arcs``, induced by ``on``."""
    src, dst = arc_arrays(arcs)
    label = labels_on(num_nodes, src, dst, range(num_nodes) if on is None else on)
    return condense(src, dst, label, label >= 0)


def partition(label, nodes):
    """The node sets of ``nodes`` that share a label, ascending tuples, sorted."""
    groups: dict[int, list[int]] = {}
    for v in sorted(nodes):
        groups.setdefault(int(label[v]), []).append(v)
    return sorted(tuple(g) for g in groups.values())


def csgraph_partition(h, nodes):
    """The SCC partition of the csgraph reference pattern induced by ``nodes``."""
    nodes = sorted(nodes)
    _, label = connected_components(
        to_dependency_graph(h)[nodes][:, nodes], connection="strong"
    )
    return partition(dict(zip(nodes, label.tolist())), nodes)


class TestSignedGraph:
    """The paper's signed graph as the dependency pattern keeps it: its arcs
    before the weights are summed."""

    def test_fig1_association(self):
        h = DirectedHypergraph(5, (fig1_edge(),))
        # tails -> heads (+alpha) and head <-> head (-beta) in the signed graph
        expect = {(0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (3, 2)}
        assert arcs_of(*dependency_arcs(h)) == expect

    def test_empty_hypergraph(self):
        src, dst = dependency_arcs(DirectedHypergraph(4))
        assert len(src) == len(dst) == 0

    def test_cancelling_and_zero_weights_keep_the_arc(self):
        # +0.5 from a tail->head edge and -0.5 from a co-head edge cancel on
        # (1, 2) in the signed graph; the tail 3 of the last edge has alpha 0
        h = DirectedHypergraph(
            4,
            (
                Hyperedge((1,), (2,), (1.0,), (1.0,), sigma=0.5),
                Hyperedge((0,), (1, 2), (1.0,), (0.5, 0.5), sigma=1.0),
                Hyperedge((3, 0), (1,), (0.0, 1.0), (1.0,)),
            ),
        )
        assert arcs_of(*dependency_arcs(h)) == {(1, 2), (0, 1), (0, 2), (2, 1), (3, 1)}

    @given(hypergraphs())
    def test_pattern_matches_per_edge_loop(self, h):
        expect = {
            (j, i)
            for e in h.edges
            for i in e.heads
            for j in (*e.tails, *e.heads)
            if j != i
        }
        src, dst = dependency_arcs(h)
        assert arcs_of(src, dst) == expect
        # grouped by head, as label_components reads them
        assert (np.diff(dst) >= 0).all()
        # the csgraph reference the other tests lean on holds the same arcs
        g = to_dependency_graph(h)
        assert g.shape == (h.num_nodes, h.num_nodes)
        assert set(zip(*(idx.tolist() for idx in g.nonzero()))) == expect

    @given(hypergraphs())
    def test_heads_share_an_scc(self, h):
        sccs = brute_force_sccs(h.num_nodes, arcs_of(*dependency_arcs(h)), range(h.num_nodes))
        scc_of = {v: k for k, comp in enumerate(sccs) for v in comp}
        for e in h.edges:
            ids = {scc_of[v] for v in e.heads}
            assert len(ids) == 1


class TestCondensation:
    chain = [(0, 1), (1, 2)]

    def test_acyclic_chain(self):
        assert roots_of(3, self.chain) == [(0,)]

    def test_two_cycle_plus_pendant(self):
        arcs = [(0, 1), (1, 0), (1, 2)]
        assert roots_of(3, arcs) == [(0, 1)]
        assert brute_force_sccs(3, arcs, [0, 1, 2]) == [(0, 1), (2,)]

    def test_induced_subgraph(self):
        assert roots_of(3, [(0, 1), (1, 0), (1, 2)], on=[1, 2]) == [(1,)]

    def test_node_outside_pattern_rejected(self):
        for on in ([0, 3], [-1, 0]):
            with pytest.raises(NodeOutOfRange):
                roots_of(3, self.chain, on=on)

    @given(hypergraphs(max_nodes=10), st.data())
    def test_labels_match_brute_force_and_csgraph(self, h, data):
        src, dst = dependency_arcs(h)
        on = data.draw(st.sets(st.integers(0, h.num_nodes - 1), min_size=1))
        # node order and repeats in the node list do not matter
        label = np.full(h.num_nodes, -1, dtype=np.intp)
        components = label_components(src, dst, data.draw(st.permutations([*on, *on])), label)
        assert (label >= 0).sum() == len(on) and (label[sorted(on)] >= 0).all()
        expect = brute_force_sccs(h.num_nodes, arcs_of(src, dst), on)
        assert partition(label, on) == expect == csgraph_partition(h, on)
        # the components it returns are the labelled ones, in order of their
        # smallest member
        assert components == partition(label, on)

    def test_fresh_labels_leave_the_others(self):
        src, dst = arc_arrays([(0, 1), (1, 0), (1, 2), (2, 3), (3, 2)])
        label = labels_on(4, src, dst, [0, 1])
        label_components(src, dst, [2, 3], label)
        assert label[0] == label[1] != label[2] == label[3]
        assert label[2] > label[0]

    @given(hypergraphs(max_nodes=10), st.data())
    def test_condense_matches_brute_force(self, h, data):
        src, dst = dependency_arcs(h)
        on = data.draw(st.sets(st.integers(0, h.num_nodes - 1), min_size=1))
        label = labels_on(h.num_nodes, src, dst, on)
        sccs = brute_force_sccs(h.num_nodes, arcs_of(src, dst), on)
        scc_of = {v: k for k, comp in enumerate(sccs) for v in comp}
        # a root is a component no arc inside ``on`` enters from another one
        entered = {
            scc_of[j]
            for i, j in arcs_of(src, dst)
            if i in on and j in on and scc_of[i] != scc_of[j]
        }
        roots = condense(src, dst, label, label >= 0)
        assert roots == [comp for k, comp in enumerate(sccs) if k not in entered]

    @given(hypergraphs(max_nodes=12, max_edges=10), st.data())
    def test_peel_with_exact_splits_matches_csgraph(self, h, data):
        # the design loop's two label updates in a random order: a root is
        # certified whole, or one node of it turns exact and the rest of the
        # root alone is relabelled.  After each, the labels are the residual
        # pattern's components and condense gives csgraph's roots
        N = h.num_nodes
        src, dst = dependency_arcs(h)
        deps = to_dependency_graph(h)
        label = labels_on(N, src, dst, range(N))
        observed = np.zeros(N, dtype=bool)
        while not observed.all():
            roots = condense(src, dst, label, ~observed)
            assert roots == reference_condense(deps, np.flatnonzero(~observed).tolist())
            for S in roots:
                if data.draw(st.booleans()):
                    observed[list(S)] = True
                else:
                    j = data.draw(st.sampled_from(S))
                    observed[j] = True
                    label_components(src, dst, [v for v in S if v != j], label)
                residual = np.flatnonzero(~observed).tolist()
                assert condense(src, dst, label, ~observed) == reference_condense(deps, residual)
                assert partition(label, residual) == brute_force_sccs(
                    N, arcs_of(src, dst), residual
                )

    @given(st.integers(0, 2**32 - 1))
    def test_condense_on_dag_returns_sources(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 9))
        arcs = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.3]
        heads = {j for _, j in arcs}
        assert roots_of(n, arcs) == [(v,) for v in range(n) if v not in heads]


class TestHierarchicalGenerator:
    def one_layer_spec(self, c=4):
        return HierarchicalGenSpec((c,), c, (1,), (0,), (), (), seed=5)

    def test_single_forced_edge(self):
        h = generate_hierarchical(self.one_layer_spec())
        assert len(h.edges) == 1
        e = h.edges[0]
        assert len(e.tails) == 1 and len(e.heads) == 3

    def test_determinism(self):
        spec = HierarchicalGenSpec((6, 6), 3, (1, 1), (1, 1), (1,), (1,), seed=42, sigma=2.0)
        assert generate_hierarchical(spec) == generate_hierarchical(spec)

    def test_structural_audit(self):
        spec = HierarchicalGenSpec(
            (7, 7, 6), 3, (1, 1, 1), (2, 2, 2), (1, 1), (1, 1), seed=9, sigma=100.0
        )
        h = generate_hierarchical(spec)
        layers = spec.layers()
        layer_of = {v: i for i, layer in enumerate(layers) for v in layer}
        n_intra = sum(spec.src_intra) + sum(spec.snk_intra)
        assert len(h.edges) == n_intra + sum(spec.src_inter) + sum(spec.snk_inter)
        for e in h.edges:
            assert e.cardinality == spec.cardinality
            assert len(e.tails) in (1, spec.cardinality - 1)
            t_layers = {layer_of[v] for v in e.tails}
            h_layers = {layer_of[v] for v in e.heads}
            assert len(t_layers) == 1 and len(h_layers) == 1
            assert h_layers == t_layers or h_layers == {min(t_layers) + 1}

    def test_layer_too_small(self):
        with pytest.raises(LayerTooSmall):
            HierarchicalGenSpec((2,), 4, (1,), (0,), (), (), seed=0)
        # intra edges need c distinct participants even when layers pass the
        # c-1 size floor
        spec = HierarchicalGenSpec((2,), 3, (1,), (0,), (), (), seed=0)
        with pytest.raises(LayerTooSmall):
            generate_hierarchical(spec)


@given(gen_specs())
def test_generator_draws_as_one_draw_at_a_time(spec):
    # every shuffle step drawn at once is the per-draw loop's stream, and the
    # same layer too small for an intra edge is refused
    try:
        expect = reference_generate_hierarchical(spec)
    except LayerTooSmall as exc:
        with pytest.raises(LayerTooSmall, match=f"^{exc}$"):
            generate_hierarchical(spec)
    else:
        got = generate_hierarchical(spec)
        assert got == expect and got.to_json_dict() == expect.to_json_dict()


class TestSerialization:
    def test_hypergraph_round_trip_bit_exact(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            h = random_hypergraph(rng)
            back = DirectedHypergraph.from_json_dict(json.loads(h.to_json()))
            assert back == h
            # serializing twice gives identical bytes
            assert h.to_json() == back.to_json()

    def test_genspec_round_trip(self):
        spec = HierarchicalGenSpec((6, 5), 3, (1, 0), (0, 2), (1,), (1,), seed=3, sigma=1.5)
        doc = json.loads(json.dumps(dataclasses.asdict(spec)))
        assert HierarchicalGenSpec(**doc) == spec
