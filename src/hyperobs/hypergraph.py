"""Directed hypergraphs, their pairwise dependency pattern, and its root components.

A directed hyperedge carries ordered, disjoint tail and head node lists with
finite per-tail weights ``alpha`` and per-head weights ``beta``, each summing
to one, and a finite positive coupling strength ``sigma``.  A hypergraph keeps
its edges in one sparse incidence, built once; ``entering`` slices out the
rows of the edges that enter a node subset, with the subset's one index.
``dependency_arcs`` reads the pattern's arcs, member -> head, off the
incidence.  A design labels their strongly connected components
(``label_components``) and takes each pass's roots, the components no other
unobserved one enters, from ``condense``.  When exact nodes split roots of a
pass, only the rest of those roots is labelled again, at once: no unobserved
node outside a root reaches it, and the roots of a pass share no arc.

``_csr`` is the package's one CSR builder, of the member incidence, the head
index, ``assembly``'s edges per root and ``sim``'s gain-correction map, and
of every jagged-diagonal layout, which is the CSR of (place in row, row):
``JaggedMatrix``'s diagonals and ``assembly``'s argument terms and coupling
waves.  ``_rows`` selects rows of a CSR layout.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

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
        if not all(math.isfinite(v) for v in (*self.alpha, *self.beta, self.sigma)):
            raise HypergraphError("alpha, beta and sigma must be finite")
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
    def uniform(tails: Sequence[int], heads: Sequence[int], sigma: float = sigma) -> "Hyperedge":
        """Hyperedge with uniform convex weights on tails and heads; the
        default ``sigma`` is the field's, a class-body name here."""
        nt, nh = len(tails), len(heads)
        return Hyperedge(tuple(tails), tuple(heads), (1.0 / nt,) * nt, (1.0 / nh,) * nh, sigma)


def _csr(rows: np.ndarray, cols: np.ndarray, num_rows: int) -> tuple[np.ndarray, np.ndarray]:
    """Row pointer and the permutation that sorts entries by (row, col)."""
    ptr = np.zeros(num_rows + 1, dtype=np.intp)
    np.cumsum(np.bincount(rows, minlength=num_rows), out=ptr[1:])
    return ptr, np.lexsort((cols, rows))


def _rows(ptr: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row pointer of the chosen rows of a CSR layout and the indices of
    their entries, rows in the given order."""
    sizes = ptr[rows + 1] - ptr[rows]
    sub_ptr = np.zeros(len(rows) + 1, dtype=np.intp)
    np.cumsum(sizes, out=sub_ptr[1:])
    return sub_ptr, np.repeat(ptr[rows] - sub_ptr[:-1], sizes) + np.arange(sub_ptr[-1])


@dataclass(frozen=True)
class EdgeSlice:
    """The rows of the member incidence for the edges entering a node subset:
    edge ``edges[r]`` has the members ``members[ptr[r]:ptr[r + 1]]``,
    ascending, with their weights (+alpha for a tail, -beta for a head) and
    head flags.  ``position`` is the subset's one index, an (N,) array:
    ``position[v]`` is node v's place in the subset's order, -1 outside it."""

    edges: np.ndarray
    ptr: np.ndarray
    members: np.ndarray
    weights: np.ndarray
    is_head: np.ndarray
    position: np.ndarray

    @property
    def rows(self) -> np.ndarray:
        """The row of every entry."""
        return np.repeat(np.arange(len(self.edges)), np.diff(self.ptr))

    @property
    def outside_tails(self) -> np.ndarray:
        """The entries that are tails outside the subset."""
        return ~self.is_head & (self.position[self.members] < 0)


@dataclass(frozen=True)
class DirectedHypergraph:
    """Hyperedges over nodes ``0 .. num_nodes-1`` with their CSR incidence.

    Edge k's members are ``members[member_ptr[k]:member_ptr[k + 1]]``, node
    ids ascending; ``member_weight`` holds +alpha for a tail and -beta for a
    head, ``member_is_head`` marks the heads and ``edge_sigma[k]`` is the
    strength.  Node i is a head of the edges
    ``head_edges[head_ptr[i]:head_ptr[i + 1]]``, edge ids ascending.
    """

    num_nodes: int
    edges: tuple[Hyperedge, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "num_nodes", int(self.num_nodes))
        object.__setattr__(self, "edges", tuple(self.edges))
        if self.num_nodes < 0:
            raise HypergraphError("num_nodes must be nonnegative")
        for e in self.edges:
            for v in (*e.tails, *e.heads):
                if not 0 <= v < self.num_nodes:
                    raise NodeOutOfRange(f"node {v} outside [0, {self.num_nodes})")
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
        for name, value in (
            ("member_ptr", member_ptr),
            ("members", node[order]),
            ("member_weight", weight[order]),
            ("member_is_head", is_head[order]),
            ("edge_sigma", np.array([e.sigma for e in self.edges])),
            ("head_ptr", head_ptr),
            ("head_edges", edge[is_head][head_order]),
        ):
            object.__setattr__(self, name, value)

    def entering(self, nodes: Iterable[int]) -> "EdgeSlice":
        """The CSR rows of the edges with a head in ``nodes``, edge ids
        ascending, indexed by the nodes in their order: one incidence slice
        serves every fact about the edges entering a subset.  A node out of
        range or given twice is refused."""
        nodes = np.fromiter(nodes, dtype=np.intp)
        outside = nodes[(nodes < 0) | (nodes >= self.num_nodes)]
        if outside.size:
            raise NodeOutOfRange(f"node {outside[0]} outside [0, {self.num_nodes})")
        if len(ids := nodes.tolist()) > len(set(ids)):
            raise HypergraphError(f"node {next(v for v in ids if ids.count(v) > 1)} given twice")
        position = np.full(self.num_nodes, -1, dtype=np.intp)
        position[nodes] = np.arange(len(nodes))
        _, heads = _rows(self.head_ptr, nodes)
        hit = np.zeros(len(self.edges), dtype=bool)
        hit[self.head_edges[heads]] = True
        edges = np.flatnonzero(hit)
        ptr, entries = _rows(self.member_ptr, edges)
        entry_arrays = (self.members, self.member_weight, self.member_is_head)
        return EdgeSlice(edges, ptr, *(a[entries] for a in entry_arrays), position)

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
        return DirectedHypergraph(doc["num_nodes"], tuple(Hyperedge(**d) for d in doc["edges"]))

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)


# -- dependency pattern and its root components ---------------------------------


def dependency_arcs(h: DirectedHypergraph) -> tuple[np.ndarray, np.ndarray]:
    """Arcs ``src[k] -> dst[k]`` of the dependency pattern, grouped by head
    ``dst`` ascending: j -> i iff j is a member, tail or other head, of an
    edge whose head is i, j != i, so the coupling term of node i reads x_j.
    These are the paper's signed-graph arcs before any weights are summed, so
    no cancellation or zero weight hides one; two edges may give one twice."""
    ptr, entries = _rows(h.member_ptr, h.head_edges)
    heads = np.repeat(np.arange(h.num_nodes), np.diff(h.head_ptr))
    src, dst = h.members[entries], np.repeat(heads, np.diff(ptr))
    return src[src != dst], dst[src != dst]


def _groups(nodes: np.ndarray, ids: list[int]) -> list[tuple[int, ...]]:
    """The ascending ``nodes`` grouped by their ``ids``, as ascending tuples
    in order of their smallest member."""
    groups: dict[int, list[int]] = {}
    for v, c in zip(nodes.tolist(), ids):
        groups.setdefault(c, []).append(v)
    return [tuple(members) for members in groups.values()]


def label_components(src, dst, nodes: Iterable[int], label: np.ndarray) -> list[tuple[int, ...]]:
    """Give each strongly connected component of the pattern induced by
    ``nodes`` a fresh id in ``label``, one entry per node, above every id it
    holds, and return the components as ascending node tuples in order of
    their smallest member.  Iterative Tarjan (SIAM J. Comput. 1, 1972) on the
    reverse pattern, which has the same components: node v's in-arcs come
    from ``pred[ptr[v]:ptr[v + 1]]``, in local ids and arc order."""
    nodes = np.fromiter(nodes, dtype=np.intp)
    outside = nodes[(nodes < 0) | (nodes >= len(label))]
    if outside.size:
        raise NodeOutOfRange(f"node {outside[0]} outside [0, {len(label)})")
    inside = np.zeros(len(label), dtype=bool)
    inside[nodes] = True
    nodes, local, keep = np.flatnonzero(inside), np.cumsum(inside) - 1, inside[src] & inside[dst]
    n, heads = len(nodes), local[dst[keep]]
    ptr, by_head = _csr(heads, np.arange(len(heads)), n)
    pred, ptr = local[src[keep]][by_head].tolist(), ptr.tolist()
    order, low, comp, stack, nxt = [-1] * n, [0] * n, [-1] * n, [], ptr[:-1]
    visits = count = 0
    for root in range(n):
        work = [root] if order[root] < 0 else []
        while work:
            v = work[-1]
            if order[v] < 0:
                order[v] = low[v] = visits
                visits += 1
                stack.append(v)
            if nxt[v] < ptr[v + 1]:
                w = pred[nxt[v]]
                nxt[v] += 1
                if order[w] < 0:
                    work.append(w)
                elif comp[w] < 0:  # w is on the stack
                    low[v] = min(low[v], order[w])
                continue
            # every arc of v is walked: v passes its low link up or closes a component
            work.pop()
            if work:
                low[work[-1]] = min(low[work[-1]], low[v])
            if low[v] == order[v]:
                while comp[v] < 0:
                    comp[stack.pop()] = count
                count += 1
    label[nodes] = label.max(initial=-1) + 1 + np.array(comp, dtype=np.intp)
    return _groups(nodes, comp)


def condense(src, dst, label: np.ndarray, on: np.ndarray) -> list[tuple[int, ...]]:
    """Root strongly connected components of the pattern induced by the node
    mask ``on``: those no arc of the induced pattern enters from another one,
    as ascending node tuples in order of their smallest member.  ``label``
    holds the induced pattern's components on ``on``, as ``label_components``
    gives them.  The roots of one call share no arc."""
    entered = np.zeros(label.max(initial=-1) + 1, dtype=bool)
    entered[label[dst][on[src] & on[dst] & (label[src] != label[dst])]] = True
    nodes = np.flatnonzero(on)
    root_nodes = nodes[~entered[label[nodes]]]
    return _groups(root_nodes, label[root_nodes].tolist())


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
    sigma: float = Hyperedge.sigma

    def __post_init__(self):
        for name in ("layer_sizes", "src_intra", "snk_intra", "src_inter", "snk_inter"):
            object.__setattr__(self, name, tuple(int(v) for v in getattr(self, name)))
        for name, kind in (("cardinality", int), ("seed", int), ("sigma", float)):
            object.__setattr__(self, name, kind(getattr(self, name)))
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

    @staticmethod
    def from_json_dict(doc: Mapping) -> "HierarchicalGenSpec":
        return HierarchicalGenSpec(**doc)


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

    def add_edge(tail_pool, head_pool, num_tails):
        # c members: num_tails tails and the rest heads, from one draw
        # within a layer, from each pool across two
        if tail_pool is head_pool:
            picks = _fisher_yates_take(rng, tail_pool, c)
            tails, heads = picks[:num_tails], picks[num_tails:]
        else:
            tails = _fisher_yates_take(rng, tail_pool, num_tails)
            heads = _fisher_yates_take(rng, head_pool, c - num_tails)
        edges.append(Hyperedge.uniform(tails, heads, spec.sigma))

    # (tail pool, head pool, source edges, sink edges): within each layer,
    # then across each pair of consecutive layers
    groups = [(layer, layer, spec.src_intra[i], spec.snk_intra[i])
              for i, layer in enumerate(layers)]
    groups += [(layers[i], layers[i + 1], spec.src_inter[i], spec.snk_inter[i])
               for i in range(len(layers) - 1)]
    for tail_pool, head_pool, sources, sinks in groups:
        for _ in range(sources):
            add_edge(tail_pool, head_pool, 1)
        for _ in range(sinks):
            add_edge(tail_pool, head_pool, c - 1)

    return DirectedHypergraph(spec.num_nodes, tuple(edges))
