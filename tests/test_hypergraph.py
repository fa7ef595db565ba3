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
    check_head_closed,
    condense,
    generate_hierarchical,
)
from hyperobs.hypergraph import to_dependency_graph
from scipy.sparse import csr_array
from conftest import brute_force_sccs, hypergraphs, random_hypergraph


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


class TestEdgeQueries:
    def test_incoming_contains_edge_for_each_head(self):
        h = DirectedHypergraph(5, (fig1_edge(),))
        assert 0 in h.incoming(3)
        assert 0 in h.incoming(2)
        assert h.incoming(0) == []
        assert h.outgoing(1) == [0]

    def test_restrict_empty_set(self):
        h = DirectedHypergraph(5, (fig1_edge(),))
        assert h.restrict([]) == []

    @given(hypergraphs())
    def test_boundary_union_restrict_is_incoming_closure(self, h):
        rng = np.random.default_rng(7)
        for _ in range(5):
            if h.num_nodes == 0:
                break
            size = int(rng.integers(0, h.num_nodes + 1))
            S = sorted(rng.choice(h.num_nodes, size=size, replace=False))
            got = sorted(set(h.boundary(S)) | set(h.restrict(S)))
            # brute-force scan over all edges
            expect = [k for k, e in enumerate(h.edges) if set(S) & set(e.heads)]
            assert got == expect
            assert set(h.boundary(S)).isdisjoint(h.restrict(S))


class TestQueriesMatchScan:
    """The incidence-backed queries against brute-force scans of ``h.edges``."""

    @given(hypergraphs(), st.data())
    def test_node_queries(self, h, data):
        edges = list(enumerate(h.edges))
        mask = data.draw(st.lists(st.booleans(), min_size=len(edges), max_size=len(edges)))
        within = [k for k, keep in enumerate(mask) if keep]
        for i in range(h.num_nodes):
            assert h.incoming(i) == [k for k, e in edges if i in e.heads]
            assert h.outgoing(i) == [k for k, e in edges if i in e.tails]
            assert h.degrees(i) == (
                sum(1 for _, e in edges if i in e.heads),
                sum(1 for _, e in edges if i in e.tails),
            )
            assert h.degrees(i, within) == (
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
        assert h.restrict(S) == inside
        assert h.incoming_closure(S) == closure
        assert h.boundary(S) == [k for k in closure if k not in inside]
        assert h.tails_of(closure) == sorted({t for k in closure for t in h.edges[k].tails})
        assert check_head_closed(h, S, ignoring) == all(
            set(e.heads) <= S | ignoring for _, e in edges if S & set(e.heads)
        )


class TestDegrees:
    def test_fig1_out_degree(self):
        h = DirectedHypergraph(5, (fig1_edge(),))
        d_in, d_out = h.degrees(1)
        assert d_out >= 1 and d_in == 0

    def test_isolated_node(self):
        h = DirectedHypergraph(5, (fig1_edge(),))
        assert h.degrees(4) == (0, 0)

    def test_degree_sums_match_head_and_tail_counts(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            h = random_hypergraph(rng)
            d_in = sum(h.degrees(i)[0] for i in range(h.num_nodes))
            d_out = sum(h.degrees(i)[1] for i in range(h.num_nodes))
            assert d_in == sum(len(e.heads) for e in h.edges)
            assert d_out == sum(len(e.tails) for e in h.edges)

    def test_restricted_degrees(self):
        h = DirectedHypergraph(5, (fig1_edge(),))
        assert h.degrees(2, within=[]) == (0, 0)
        assert h.degrees(2, within=[0]) == (1, 0)


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
