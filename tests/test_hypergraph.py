import json

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
    condense,
    generate_hierarchical,
)
from hyperobs.hypergraph import to_dependency_graph
from scipy.sparse import csr_array
from conftest import (
    boundary,
    brute_force_sccs,
    degrees,
    head_closed,
    hypergraphs,
    incoming,
    incoming_closure,
    members_of,
    outgoing,
    random_hypergraph,
    restrict,
    tails_of,
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

    def test_node_out_of_range(self):
        with pytest.raises(NodeOutOfRange):
            DirectedHypergraph(2, (Hyperedge((0,), (5,), (1.0,), (1.0,)),))


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


def arcs_of(pattern) -> set[tuple[int, int]]:
    return set(zip(*(idx.tolist() for idx in pattern.nonzero())))


def pattern_of(num_nodes, arcs):
    rows, cols = zip(*arcs) if arcs else ((), ())
    return csr_array((np.ones(len(arcs)), (rows, cols)), shape=(num_nodes, num_nodes))


class TestSignedGraph:
    """The paper's signed graph as the dependency pattern keeps it: its arcs
    before the weights are summed."""

    def test_fig1_association(self):
        h = DirectedHypergraph(5, (fig1_edge(),))
        # tails -> heads (+alpha) and head <-> head (-beta) in the signed graph
        expect = {(0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (3, 2)}
        assert arcs_of(to_dependency_graph(h)) == expect

    def test_empty_hypergraph(self):
        g = to_dependency_graph(DirectedHypergraph(4))
        assert g.shape == (4, 4) and arcs_of(g) == set()

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
        assert arcs_of(to_dependency_graph(h)) == {(1, 2), (0, 1), (0, 2), (2, 1), (3, 1)}

    @given(hypergraphs())
    def test_pattern_matches_per_edge_loop(self, h):
        expect = {
            (j, i)
            for e in h.edges
            for i in e.heads
            for j in (*e.tails, *e.heads)
            if j != i
        }
        g = to_dependency_graph(h)
        assert g.shape == (h.num_nodes, h.num_nodes)
        assert arcs_of(g) == expect

    @given(hypergraphs())
    def test_heads_share_an_scc(self, h):
        sccs = brute_force_sccs(h.num_nodes, arcs_of(to_dependency_graph(h)), range(h.num_nodes))
        scc_of = {v: k for k, comp in enumerate(sccs) for v in comp}
        for e in h.edges:
            ids = {scc_of[v] for v in e.heads}
            assert len(ids) == 1


class TestCondensation:
    def chain(self):
        return pattern_of(3, [(0, 1), (1, 2)])

    def test_acyclic_chain(self):
        assert condense(self.chain()) == [(0,)]

    def test_two_cycle_plus_pendant(self):
        arcs = [(0, 1), (1, 0), (1, 2)]
        assert condense(pattern_of(3, arcs)) == [(0, 1)]
        assert brute_force_sccs(3, arcs, [0, 1, 2]) == [(0, 1), (2,)]

    def test_induced_subgraph(self):
        assert condense(pattern_of(3, [(0, 1), (1, 0), (1, 2)]), on=[1, 2]) == [(1,)]

    def test_node_outside_pattern_rejected(self):
        with pytest.raises(NodeOutOfRange):
            condense(self.chain(), on=[0, 3])

    @given(hypergraphs(max_nodes=10), st.data())
    def test_condense_matches_brute_force(self, h, data):
        g = to_dependency_graph(h)
        on = data.draw(st.sets(st.integers(0, h.num_nodes - 1), min_size=1))
        sccs = brute_force_sccs(h.num_nodes, arcs_of(g), on)
        scc_of = {v: k for k, comp in enumerate(sccs) for v in comp}
        # a root is a component no arc inside ``on`` enters from another one
        entered = {
            scc_of[j] for i, j in arcs_of(g) if i in on and j in on and scc_of[i] != scc_of[j]
        }
        assert condense(g, on) == [comp for k, comp in enumerate(sccs) if k not in entered]

    @given(hypergraphs(max_nodes=10), st.data())
    def test_index_array_gives_the_roots_of_its_node_set(self, h, data):
        # the design loop passes np.flatnonzero of its residual mask
        g = to_dependency_graph(h)
        mask = np.array(data.draw(st.lists(st.booleans(), min_size=h.num_nodes,
                                           max_size=h.num_nodes)))
        on = np.flatnonzero(mask)
        assert condense(g, on) == condense(g, set(on.tolist()))

    @given(st.integers(0, 2**32 - 1))
    def test_condense_on_dag_returns_sources(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 9))
        arcs = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.3]
        heads = {j for _, j in arcs}
        assert condense(pattern_of(n, arcs)) == [(v,) for v in range(n) if v not in heads]


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


class TestSerialization:
    def test_hypergraph_round_trip_bit_exact(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            h = random_hypergraph(rng)
            assert DirectedHypergraph.from_json(h.to_json()) == h
            # serializing twice gives identical bytes
            assert h.to_json() == DirectedHypergraph.from_json(h.to_json()).to_json()

    def test_genspec_round_trip(self):
        spec = HierarchicalGenSpec((6, 5), 3, (1, 0), (0, 2), (1,), (1,), seed=3, sigma=1.5)
        doc = json.loads(json.dumps(spec.to_json_dict()))
        assert HierarchicalGenSpec.from_json_dict(doc) == spec
