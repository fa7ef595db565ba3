"""Directed hypergraphs, their associated signed graphs, and condensation queries.

A directed hyperedge carries ordered, disjoint tail and head node lists with
per-tail weights ``alpha`` and per-head weights ``beta`` (each summing to one)
and a positive coupling strength ``sigma``.  A hypergraph keeps its edges in
one sparse incidence, built once on construction; every edge query, the
pairwise graphs and the coupling kernels of ``dynamics`` read it.  The
signed-graph association puts positive edges from every tail to every head
and negative edges between the heads of each hyperedge.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

WEIGHT_SUM_TOL = 1e-12


class HypergraphError(ValueError):
    pass


class OverlappingTailsHeads(HypergraphError):
    pass


class WeightSumViolation(HypergraphError):
    pass


class NegativeWeight(HypergraphError):
    pass


class NodeOutOfRange(HypergraphError):
    pass


class LayerTooSmall(HypergraphError):
    pass


@dataclass(frozen=True)
class Hyperedge:
    """One directed hyperedge: weighted tails -> weighted heads."""

    tails: tuple[int, ...]
    heads: tuple[int, ...]
    alpha: tuple[float, ...]
    beta: tuple[float, ...]
    sigma: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "tails", tuple(int(v) for v in self.tails))
        object.__setattr__(self, "heads", tuple(int(v) for v in self.heads))
        object.__setattr__(self, "alpha", tuple(float(v) for v in self.alpha))
        object.__setattr__(self, "beta", tuple(float(v) for v in self.beta))
        object.__setattr__(self, "sigma", float(self.sigma))
        if not self.tails or not self.heads:
            raise HypergraphError("hyperedge needs at least one tail and one head")
        if set(self.tails) & set(self.heads):
            raise OverlappingTailsHeads(
                f"tails {self.tails} and heads {self.heads} intersect"
            )
        if len(set(self.tails)) != len(self.tails) or len(set(self.heads)) != len(self.heads):
            raise HypergraphError("repeated node within tails or heads")
        if len(self.alpha) != len(self.tails) or len(self.beta) != len(self.heads):
            raise HypergraphError("weight vector length must match tails/heads")
        for name, w in (("alpha", self.alpha), ("beta", self.beta)):
            if abs(sum(w) - 1.0) > WEIGHT_SUM_TOL:
                raise WeightSumViolation(f"{name} sums to {sum(w)!r}, expected 1")
            if any(v < 0.0 for v in w):
                raise NegativeWeight(f"{name} has negative entries: {w}")
        if self.sigma <= 0.0:
            raise HypergraphError(f"sigma must be positive, got {self.sigma}")

    @property
    def cardinality(self) -> int:
        return len(self.tails) + len(self.heads)

    @staticmethod
    def uniform(tails: Sequence[int], heads: Sequence[int], sigma: float = 1.0) -> "Hyperedge":
        """Hyperedge with uniform convex weights on tails and heads."""
        nt, nh = len(tails), len(heads)
        return Hyperedge(tuple(tails), tuple(heads), (1.0 / nt,) * nt, (1.0 / nh,) * nh, sigma)


def _csr(rows: np.ndarray, cols: np.ndarray, num_rows: int) -> tuple[np.ndarray, np.ndarray]:
    """Row pointer and the permutation that sorts entries by (row, col)."""
    ptr = np.zeros(num_rows + 1, dtype=np.intp)
    np.cumsum(np.bincount(rows, minlength=num_rows), out=ptr[1:])
    return ptr, np.lexsort((cols, rows))


@dataclass(frozen=True)
class DirectedHypergraph:
    """Hyperedges over nodes ``0 .. num_nodes-1`` with their CSR incidence.

    Edge k's members are ``members[member_ptr[k]:member_ptr[k + 1]]``, node
    ids ascending; ``member_weight`` holds +alpha for a tail and -beta for a
    head, ``member_is_head`` marks the heads and ``edge_sigma[k]`` is the
    strength.  Node i is a head of the edges
    ``head_edges[head_ptr[i]:head_ptr[i + 1]]`` and a tail of
    ``tail_edges[tail_ptr[i]:tail_ptr[i + 1]]``, edge ids ascending.
    """

    num_nodes: int
    edges: tuple[Hyperedge, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "edges", tuple(self.edges))
        if self.num_nodes < 0:
            raise HypergraphError("num_nodes must be nonnegative")
        for e in self.edges:
            for v in (*e.tails, *e.heads):
                self._check_node(v)
        sizes = [e.cardinality for e in self.edges]
        edge = np.repeat(np.arange(len(sizes), dtype=np.intp), sizes)
        node = np.array([v for e in self.edges for v in (*e.tails, *e.heads)], dtype=np.intp)
        weight = np.array([w for e in self.edges for w in (*e.alpha, *(-b for b in e.beta))])
        is_head = np.array(
            [q for e in self.edges for q in (False,) * len(e.tails) + (True,) * len(e.heads)],
            dtype=bool,
        )
        member_ptr, order = _csr(edge, node, len(sizes))
        head_ptr, head_order = _csr(node[is_head], edge[is_head], self.num_nodes)
        tail_ptr, tail_order = _csr(node[~is_head], edge[~is_head], self.num_nodes)
        for name, value in (
            ("member_ptr", member_ptr),
            ("members", node[order]),
            ("member_weight", weight[order]),
            ("member_is_head", is_head[order]),
            ("edge_sigma", np.array([e.sigma for e in self.edges])),
            ("head_ptr", head_ptr),
            ("head_edges", edge[is_head][head_order]),
            ("tail_ptr", tail_ptr),
            ("tail_edges", edge[~is_head][tail_order]),
        ):
            object.__setattr__(self, name, value)

    def _check_node(self, i: int) -> None:
        if not 0 <= i < self.num_nodes:
            raise NodeOutOfRange(f"node {i} outside [0, {self.num_nodes})")

    def members_of(self, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Member node ids of edge k (ascending), their weights (+alpha for a
        tail, -beta for a head) and head flags."""
        s = slice(self.member_ptr[k], self.member_ptr[k + 1])
        return self.members[s], self.member_weight[s], self.member_is_head[s]

    # -- edge queries (all return edge indices, ascending) --------------------

    def incoming(self, i: int) -> list[int]:
        """Edges having node i as a head."""
        self._check_node(i)
        return self.head_edges[self.head_ptr[i] : self.head_ptr[i + 1]].tolist()

    def outgoing(self, i: int) -> list[int]:
        """Edges having node i as a tail."""
        self._check_node(i)
        return self.tail_edges[self.tail_ptr[i] : self.tail_ptr[i + 1]].tolist()

    def restrict(self, nodes: Iterable[int]) -> list[int]:
        """Edges whose tails and heads all lie inside ``nodes``."""
        # every edge has a head, so these are incoming-closure edges
        s = self._as_node_set(nodes)
        return [k for k in self.incoming_closure(s) if s.issuperset(self.members_of(k)[0].tolist())]

    def incoming_closure(self, nodes: Iterable[int]) -> list[int]:
        """Edges with at least one head inside ``nodes``."""
        s = self._as_node_set(nodes)
        parts = [self.head_edges[self.head_ptr[v] : self.head_ptr[v + 1]] for v in s]
        return np.unique(np.concatenate(parts)).tolist() if parts else []

    def boundary(self, nodes: Iterable[int]) -> list[int]:
        """Edges entering ``nodes`` that are not fully contained in it."""
        inside = set(self.restrict(nodes))
        return [k for k in self.incoming_closure(nodes) if k not in inside]

    def pair(self, j: int, i: int) -> list[int]:
        """Edges with j among the tails and i among the heads."""
        return np.intersect1d(self.outgoing(j), self.incoming(i)).tolist()

    def tails_of(self, edge_indices: Iterable[int]) -> list[int]:
        """Union of the tail sets of the given edges, ascending."""
        out: set[int] = set()
        for k in edge_indices:
            nodes, _, is_head = self.members_of(k)
            out.update(nodes[~is_head].tolist())
        return sorted(out)

    def degrees(self, i: int, within: Iterable[int] | None = None) -> tuple[int, int]:
        """(in-degree, out-degree) of node i, optionally restricted to an edge set."""
        d_in, d_out = self.incoming(i), self.outgoing(i)
        if within is None:
            return len(d_in), len(d_out)
        keep = set(within)
        return sum(k in keep for k in d_in), sum(k in keep for k in d_out)

    def _as_node_set(self, nodes: Iterable[int]) -> set[int]:
        s = set(int(v) for v in nodes)
        for v in s:
            self._check_node(v)
        return s

    # -- serialization ---------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "num_nodes": self.num_nodes,
            "edges": [
                {
                    "tails": list(e.tails),
                    "heads": list(e.heads),
                    "alpha": list(e.alpha),
                    "beta": list(e.beta),
                    "sigma": e.sigma,
                }
                for e in self.edges
            ],
        }

    @staticmethod
    def from_json_dict(doc: Mapping) -> "DirectedHypergraph":
        edges = tuple(
            Hyperedge(
                tuple(d["tails"]),
                tuple(d["heads"]),
                tuple(d["alpha"]),
                tuple(d["beta"]),
                d.get("sigma", 1.0),
            )
            for d in doc["edges"]
        )
        return DirectedHypergraph(int(doc["num_nodes"]), edges)

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)

    @staticmethod
    def from_json(text: str) -> "DirectedHypergraph":
        return DirectedHypergraph.from_json_dict(json.loads(text))


def add_hyperedge(h: DirectedHypergraph, e: Hyperedge) -> DirectedHypergraph:
    """Return a new hypergraph with ``e`` appended (hypergraphs are immutable)."""
    return DirectedHypergraph(h.num_nodes, (*h.edges, e))


# -- signed graph ---------------------------------------------------------------


@dataclass(frozen=True)
class SignedGraph:
    """Weighted directed graph allowing negative weights; no self-loops, no zeros."""

    num_nodes: int
    weights: Mapping[tuple[int, int], float]

    def __post_init__(self):
        w = dict(self.weights)
        for (i, j), v in w.items():
            if i == j:
                raise HypergraphError(f"self-loop {i}->{j} not allowed")
            if v == 0.0:
                raise HypergraphError(f"zero-weight edge {i}->{j} not allowed")
            if not (0 <= i < self.num_nodes and 0 <= j < self.num_nodes):
                raise NodeOutOfRange(f"edge ({i},{j}) outside node range")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "_arcs", np.array(list(w), dtype=np.intp).reshape(-1, 2))

    def _adjacency(self, arcs: np.ndarray) -> csr_matrix:
        return csr_matrix((np.ones(len(arcs)), arcs.T), shape=(self.num_nodes,) * 2)


def _pairwise(h: DirectedHypergraph, magnitude: bool) -> SignedGraph:
    """For each hyperedge and each head i: sigma*w_j on every other member
    j -> i (+alpha_j for tails, -beta_j for heads, or the magnitudes),
    summed per ordered pair in edge order; exact-zero sums are dropped."""
    acc: dict[tuple[int, int], float] = {}
    for k in range(len(h.edges)):
        nodes, weights, is_head = h.members_of(k)
        terms = list(zip(nodes.tolist(), (h.edge_sigma[k] * weights).tolist()))
        for i in nodes[is_head].tolist():
            for j, w in terms:
                if j != i:
                    acc[(j, i)] = acc.get((j, i), 0.0) + (abs(w) if magnitude else w)
    return SignedGraph(h.num_nodes, {key: v for key, v in acc.items() if v != 0.0})


def to_signed_graph(h: DirectedHypergraph) -> SignedGraph:
    """Signed pairwise graph associated to hyperdiffusive coupling on ``h``.

    For each hyperedge and each head i: +sigma*alpha_j on every tail j -> i
    and -sigma*beta_j on every other head j -> i.  Contributions on the same
    ordered pair are summed; exact-zero sums are dropped.
    """
    return _pairwise(h, magnitude=False)


def to_dependency_graph(h: DirectedHypergraph) -> SignedGraph:
    """Pairwise reachability structure of hyperdiffusive coupling.

    Same edge pattern as the signed graph, but contribution magnitudes are
    accumulated, so opposite-sign contributions from different hyperedges on
    one ordered pair can never cancel away a real dependency.  Condensation
    for observer design explores this graph.
    """
    return _pairwise(h, magnitude=True)


def largest_connected_component(h: DirectedHypergraph) -> tuple[list[int], list[int]]:
    """Nodes of the largest weak component of the associated signed graph,
    plus the hyperedges fully contained in it.

    Ties are broken in favor of the component with the smallest node id.
    """
    g = to_signed_graph(h)
    _, labels = connected_components(g._adjacency(g._arcs), connection="weak")
    # argmax picks the smallest node among those in a largest component
    best = labels[np.argmax(np.bincount(labels)[labels])]
    nodes = np.flatnonzero(labels == best).tolist()
    return nodes, h.restrict(nodes)


# -- condensation ---------------------------------------------------------------


@dataclass(frozen=True)
class Condensation:
    """SCC quotient of a signed graph restricted to a node subset."""

    scc_of: Mapping[int, int]
    members: tuple[tuple[int, ...], ...]
    dag_edges: frozenset[tuple[int, int]]

    def roots(self) -> list[int]:
        """SCC ids with no incoming condensation edge, sorted by smallest member."""
        targets = {b for (_, b) in self.dag_edges}
        ids = [s for s in range(len(self.members)) if s not in targets]
        return sorted(ids, key=lambda s: self.members[s][0])

    def root_members(self) -> list[tuple[int, ...]]:
        return [self.members[s] for s in self.roots()]


def condense(g: SignedGraph, on: Iterable[int] | None = None) -> Condensation:
    """Strongly connected components of the subgraph induced by ``on``.

    Reachability ignores the sign of the weights.  Components come from
    ``scipy.sparse.csgraph.connected_components`` and are relabelled in order
    of their smallest member, so members and ids are deterministic.
    """
    nodes = list(range(g.num_nodes)) if on is None else sorted(set(int(v) for v in on))
    for v in nodes:
        if not 0 <= v < g.num_nodes:
            raise NodeOutOfRange(f"node {v} outside [0, {g.num_nodes})")
    inside = np.zeros(g.num_nodes, dtype=bool)
    inside[nodes] = True
    arcs = g._arcs[inside[g._arcs].all(axis=1)]
    _, found = connected_components(g._adjacency(arcs), connection="strong")
    # nodes ascend, so numbering components by first appearance orders them
    # by smallest member
    ids: dict[int, int] = {}
    scc_of = {v: ids.setdefault(c, len(ids)) for v, c in zip(nodes, found[nodes].tolist())}
    members: list[list[int]] = [[] for _ in ids]
    for v, c in scc_of.items():
        members[c].append(v)
    dag = {(scc_of[i], scc_of[j]) for i, j in arcs.tolist() if scc_of[i] != scc_of[j]}
    return Condensation(scc_of, tuple(tuple(c) for c in members), frozenset(dag))


# -- hierarchical generator -------------------------------------------------------


@dataclass(frozen=True)
class HierarchicalGenSpec:
    """Layered random hypergraph recipe: source edges (1 tail, c-1 heads) and
    sink edges (c-1 tails, 1 head), within layers and across consecutive layers."""

    layer_sizes: tuple[int, ...]
    cardinality: int
    src_intra: tuple[int, ...]
    snk_intra: tuple[int, ...]
    src_inter: tuple[int, ...]
    snk_inter: tuple[int, ...]
    seed: int
    sigma: float = 1.0

    def __post_init__(self):
        for name in ("layer_sizes", "src_intra", "snk_intra", "src_inter", "snk_inter"):
            object.__setattr__(self, name, tuple(int(v) for v in getattr(self, name)))
        ell = len(self.layer_sizes)
        if ell < 1 or any(s < 1 for s in self.layer_sizes):
            raise HypergraphError("need at least one nonempty layer")
        if self.cardinality < 2:
            raise HypergraphError("cardinality must be >= 2")
        if any(s < self.cardinality - 1 for s in self.layer_sizes):
            raise LayerTooSmall(
                f"every layer needs >= cardinality-1 = {self.cardinality - 1} nodes"
            )
        if len(self.src_intra) != ell or len(self.snk_intra) != ell:
            raise HypergraphError("intra edge counts must have one entry per layer")
        if len(self.src_inter) != ell - 1 or len(self.snk_inter) != ell - 1:
            raise HypergraphError("inter edge counts must have one entry per layer boundary")
        if self.sigma <= 0:
            raise HypergraphError("sigma must be positive")

    @property
    def num_nodes(self) -> int:
        return sum(self.layer_sizes)

    def layers(self) -> list[list[int]]:
        out, offset = [], 0
        for size in self.layer_sizes:
            out.append(list(range(offset, offset + size)))
            offset += size
        return out

    def to_json_dict(self) -> dict:
        return {
            "layer_sizes": list(self.layer_sizes),
            "cardinality": self.cardinality,
            "src_intra": list(self.src_intra),
            "snk_intra": list(self.snk_intra),
            "src_inter": list(self.src_inter),
            "snk_inter": list(self.snk_inter),
            "seed": self.seed,
            "sigma": self.sigma,
        }

    @staticmethod
    def from_json_dict(doc: Mapping) -> "HierarchicalGenSpec":
        return HierarchicalGenSpec(
            tuple(doc["layer_sizes"]),
            int(doc["cardinality"]),
            tuple(doc["src_intra"]),
            tuple(doc["snk_intra"]),
            tuple(doc["src_inter"]),
            tuple(doc["snk_inter"]),
            int(doc["seed"]),
            float(doc.get("sigma", 1.0)),
        )


def _fisher_yates_take(rng: np.random.Generator, pool: Sequence[int], k: int) -> list[int]:
    # partial Fisher-Yates shuffle: deterministic given the generator state
    arr = list(pool)
    if k > len(arr):
        raise LayerTooSmall(f"cannot sample {k} distinct nodes from {len(arr)}")
    for idx in range(k):
        j = idx + int(rng.integers(0, len(arr) - idx))
        arr[idx], arr[j] = arr[j], arr[idx]
    return arr[:k]


def generate_hierarchical(spec: HierarchicalGenSpec) -> DirectedHypergraph:
    """Generate a layered hypergraph; deterministic given ``spec.seed``."""
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    layers = spec.layers()
    c = spec.cardinality
    edges: list[Hyperedge] = []

    def source_edge(tail_pool, head_pool):
        if tail_pool is head_pool:
            picks = _fisher_yates_take(rng, tail_pool, c)
            tails, heads = picks[:1], picks[1:]
        else:
            tails = _fisher_yates_take(rng, tail_pool, 1)
            heads = _fisher_yates_take(rng, head_pool, c - 1)
        edges.append(Hyperedge.uniform(tails, heads, spec.sigma))

    def sink_edge(tail_pool, head_pool):
        if tail_pool is head_pool:
            picks = _fisher_yates_take(rng, tail_pool, c)
            tails, heads = picks[: c - 1], picks[c - 1 :]
        else:
            tails = _fisher_yates_take(rng, tail_pool, c - 1)
            heads = _fisher_yates_take(rng, head_pool, 1)
        edges.append(Hyperedge.uniform(tails, heads, spec.sigma))

    for i, layer in enumerate(layers):
        for _ in range(spec.src_intra[i]):
            source_edge(layer, layer)
        for _ in range(spec.snk_intra[i]):
            sink_edge(layer, layer)
    for i in range(len(layers) - 1):
        for _ in range(spec.src_inter[i]):
            source_edge(layers[i], layers[i + 1])
        for _ in range(spec.snk_inter[i]):
            sink_edge(layers[i], layers[i + 1])

    return DirectedHypergraph(spec.num_nodes, tuple(edges))
