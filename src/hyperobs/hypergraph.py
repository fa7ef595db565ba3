"""Directed hypergraphs, their pairwise dependency pattern, and its root components.

A directed hyperedge carries ordered, disjoint tail and head node lists with
finite per-tail weights ``alpha`` and per-head weights ``beta``, each summing
to one, and a finite positive coupling strength ``sigma``.  A hypergraph's
state is arrays alone: its edges as given, which ``to_json_dict`` writes,
and one sparse incidence built from them once.  ``from_arrays`` checks every
edge at once; ``Hyperedge`` is the one validator of an edge, which words
the first bad edge's refusal, and ``edges``, the ``Hyperedge`` tuple, is
built only when read.  ``entering`` slices out the rows of the edges that
enter a node subset, with the subset's one index.  ``dependency_arcs``
reads the pattern's arcs, member -> head, off the incidence.  A design
labels their strongly connected components (``label_components``) and
takes each pass's roots, the components no other unobserved one enters,
from ``condense``.  When exact nodes split roots of a
pass, only the rest of those roots is labelled again, at once: no unobserved
node outside a root reaches it, and the roots of a pass share no arc.

``_csr`` is the package's one CSR builder, of the member incidence, the head
index, ``assembly``'s edges per root and ``sim``'s gain-correction map, and
of every jagged-diagonal layout, which is the CSR of (place in row, row):
``JaggedMatrix``'s diagonals and ``assembly``'s argument terms and coupling
waves.  ``_rows`` selects rows of a CSR layout.
"""

from __future__ import annotations

import functools
import json
import math
import operator
from dataclasses import dataclass
from itertools import chain, compress
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


class DirectedHypergraph:
    """Hyperedges over nodes ``0 .. num_nodes-1``, held as arrays.

    Edge k as given is ``edge_nodes[edge_ptr[k]:edge_ptr[k + 1]]``, its
    ``edge_tails[k]`` tails then its heads, with their weights, alpha then
    beta, at the same places of ``edge_weights``, and strength
    ``edge_sigma[k]``: the order ``to_json_dict`` writes and the config hash
    reads.  The CSR incidence is built from them once: edge k's members are
    ``members[member_ptr[k]:member_ptr[k + 1]]``, node ids ascending;
    ``member_weight`` holds +alpha for a tail and -beta for a head and
    ``member_is_head`` marks the heads.  Node i is a head of the edges
    ``head_edges[head_ptr[i]:head_ptr[i + 1]]``, edge ids ascending.
    ``edges``, the ``Hyperedge`` tuple, is built when first read.  Two
    hypergraphs are equal when their nodes and edges as given are.
    """

    def __init__(self, num_nodes: int, edges: Iterable[Hyperedge] = ()):
        docs = [vars(e) for e in edges]
        # Hyperedges pass _build's edge checks, so it refuses a negative
        # num_nodes, given no edges then, and the first node out of range is
        # found here on the ints, which may be past what intp holds
        outside = [v for d in docs for v in (*d["tails"], *d["heads"]) if not 0 <= v < num_nodes]
        if outside and num_nodes >= 0:
            raise NodeOutOfRange(f"node {outside[0]} outside [0, {num_nodes})")
        self._build(num_nodes, *_edge_arrays(docs if num_nodes >= 0 else []))

    @classmethod
    def from_arrays(cls, num_nodes: int, ptr, nodes, weights, num_tails, sigma
                    ) -> "DirectedHypergraph":
        """The hypergraph of the edges laid out as ``edge_ptr``, ``edge_nodes``,
        ``edge_weights``, ``edge_tails`` and ``edge_sigma`` are, every edge
        checked at once; the first bad one raises what ``Hyperedge`` raises
        for it, then a negative ``num_nodes``, then the first node out of
        range."""
        h = cls.__new__(cls)
        h._build(num_nodes, ptr, nodes, weights, num_tails, sigma)
        return h

    def _build(self, num_nodes, ptr, nodes, weights, num_tails, sigma) -> None:
        self.num_nodes, self.edge_ptr = int(num_nodes), np.asarray(ptr, np.intp)
        self.edge_nodes = nodes = np.asarray(nodes, np.intp)
        self.edge_weights = w = np.asarray(weights, float)
        self.edge_sigma = sigma = np.asarray(sigma, float)
        self.edge_tails, E = np.asarray(num_tails, np.intp), len(sigma)
        edge = np.repeat(np.arange(E), np.diff(self.edge_ptr))
        is_head = np.arange(len(edge)) - self.edge_ptr[edge] >= self.edge_tails[edge]
        self.member_ptr, order = _csr(edge, nodes, E)
        # every edge that Hyperedge may refuse: an empty side, which sums to
        # 0, a node twice, a non-finite or negative weight, a sigma <= 0, or
        # a side whose sum is off 1 by more than the tolerance less 4.5e-16
        # per weight: bincount adds a side's weights in order, as Python's
        # sum does up to 3.11, and 3.12's compensated sum is within that of
        # it.  Built in order, the first bad edge raises
        side = 2 * edge + is_head
        off = np.abs(np.bincount(side, w, 2 * E) - 1.0) + 4.5e-16 * np.bincount(side, None, 2 * E)
        suspect = (off > WEIGHT_SUM_TOL).reshape(E, 2).any(axis=1)
        suspect |= ~(np.isfinite(sigma) & (sigma > 0.0))
        self.members, by = nodes[order], edge[order]
        suspect[by[1:][(self.members[1:] == self.members[:-1]) & (by[1:] == by[:-1])]] = True
        suspect[edge[~(np.isfinite(w) & (w >= 0.0))]] = True
        if suspect.any():
            for doc in compress(self.to_json_dict()["edges"], suspect):
                Hyperedge(**doc)
        if self.num_nodes < 0:
            raise HypergraphError("num_nodes must be nonnegative")
        if (outside := (nodes < 0) | (nodes >= self.num_nodes)).any():
            raise NodeOutOfRange(f"node {nodes[outside.argmax()]} outside [0, {self.num_nodes})")
        self.member_weight, self.member_is_head = np.where(is_head, -w, w)[order], is_head[order]
        self.head_ptr, head_order = _csr(nodes[is_head], edge[is_head], self.num_nodes)
        self.head_edges = edge[is_head][head_order]

    @property
    def num_edges(self) -> int:
        return len(self.edge_sigma)

    @functools.cached_property
    def edges(self) -> tuple[Hyperedge, ...]:
        return tuple(Hyperedge(**doc) for doc in self.to_json_dict()["edges"])

    def __eq__(self, other) -> bool:
        return isinstance(other, DirectedHypergraph) and self.to_json_dict() == other.to_json_dict()

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
        hit = np.zeros(self.num_edges, dtype=bool)
        hit[self.head_edges[heads]] = True
        edges = np.flatnonzero(hit)
        ptr, entries = _rows(self.member_ptr, edges)
        entry_arrays = (self.members, self.member_weight, self.member_is_head)
        return EdgeSlice(edges, ptr, *(a[entries] for a in entry_arrays), position)

    # -- serialization ---------------------------------------------------------

    def to_json_dict(self) -> dict:
        ptr, nt = self.edge_ptr.tolist(), self.edge_tails.tolist()
        nodes, w = self.edge_nodes.tolist(), self.edge_weights.tolist()
        return {"num_nodes": self.num_nodes, "edges": [
            {"tails": nodes[lo:lo + t], "heads": nodes[lo + t:hi], "alpha": w[lo:lo + t],
             "beta": w[lo + t:hi], "sigma": sigma}
            for lo, hi, t, sigma in zip(ptr, ptr[1:], nt, self.edge_sigma.tolist())]}

    @classmethod
    def from_json_dict(cls, doc: Mapping) -> "DirectedHypergraph":
        """The hypergraph of a ``to_json_dict`` document, read from its lists
        at once; where they do not line up, each edge is read as a
        ``Hyperedge``, which says what is wrong."""
        try:
            arrays = _edge_arrays(doc["edges"])
        except (KeyError, TypeError, ValueError, OverflowError):
            return cls(doc["num_nodes"], tuple(Hyperedge(**d) for d in doc["edges"]))
        return cls.from_arrays(doc["num_nodes"], *arrays)

    def to_json(self) -> str:
        """``to_json_dict``'s value, one edge per line: an edge holds numbers
        alone, so "}, {" parts two edges and nothing else."""
        edges = json.dumps(self.to_json_dict()["edges"])[1:-1].replace("}, {", "},\n{")
        return '{"num_nodes": %d, "edges": [%s]}' % (self.num_nodes, edges and f"\n{edges}\n")


def _edge_arrays(docs) -> tuple:
    """``from_arrays``' arguments but the node count, from the edges'
    ``to_json_dict`` documents; ValueError where these do not line up: a key
    unknown, or weights and nodes of unequal lengths."""
    if not set().union(*docs) <= {"tails", "heads", "alpha", "beta", "sigma"}:
        raise ValueError("an unknown edge key")
    tails, heads, alpha, beta = ([d[k] for d in docs] for k in ("tails", "heads", "alpha", "beta"))
    nt, nh = list(map(len, tails)), list(map(len, heads))
    if list(map(len, alpha)) != nt or list(map(len, beta)) != nh:
        raise ValueError("weight vector length must match tails/heads")
    ptr, flat = np.cumsum([0, *map(operator.add, nt, nh)], dtype=np.intp), chain.from_iterable
    return (ptr, np.fromiter(flat(flat(zip(tails, heads))), np.intp, ptr[-1]),
            np.fromiter(map(float, flat(flat(zip(alpha, beta)))), float, ptr[-1]), nt,
            [float(d.get("sigma", Hyperedge.sigma)) for d in docs])


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


def generate_hierarchical(spec: HierarchicalGenSpec) -> DirectedHypergraph:
    """Generate a layered hypergraph; deterministic given ``spec.seed``.

    Each edge draws its c members by partial Fisher-Yates shuffles of the
    node lists of its layers: within a layer, one shuffle of c draws gives
    the tails, then the heads; across two, one of the tail layer, then one
    of the head layer.  Every edge of a kind runs the same shuffles, in
    order: within each layer its source edges (1 tail, c-1 heads), then its
    sink edges (c-1 tails, 1 head), then the same across each pair of
    consecutive layers.  ``rng.integers`` draws the stream of every shuffle
    step at once; the steps are replayed for every edge together."""
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    c, sizes, ell = spec.cardinality, spec.layer_sizes, len(spec.layer_sizes)
    offsets = np.cumsum((0,) + sizes).tolist()
    # an intra edge draws c nodes of its layer; an inter edge fewer of each
    if small := [n for n, *counts in zip(sizes, spec.src_intra, spec.snk_intra)
                 if n < c and any(counts)]:
        raise LayerTooSmall(f"cannot sample {c} distinct nodes from {small[0]}")
    # each kind of edge in draw order: (tail layer, head layer, tails, count)
    pairs = [(i, i) for i in range(ell)] + [(i, i + 1) for i in range(ell - 1)]
    src, snk = spec.src_intra + spec.src_inter, spec.snk_intra + spec.snk_inter
    kinds = [(a, b, t, count) for (a, b), *counts in zip(pairs, src, snk)
             for t, count in zip((1, c - 1), counts)]
    # per kind: the offset, size and draws of the list shuffled first, of the
    # second, and the tails
    lists = [(offsets[a], sizes[a], c if a == b else t, offsets[b], sizes[b], t)
             for a, b, t, _ in kinds]
    off1, n1, k1, off2, n2, nt = np.repeat(
        np.array(lists, dtype=np.intp), [count for *_, count in kinds], axis=0).T
    E, col = len(nt), np.arange(c)
    # shuffle step j swaps place i = j, or j - k1 in the second list, with
    # i + r; the second list's places follow the first's
    second = col >= k1[:, None]
    i = np.where(second, col - k1[:, None], col)
    front = np.where(second, n1[:, None] + i, col)
    back = front + rng.integers(0, np.where(second, n2[:, None], n1[:, None]) - i).reshape(E, c)
    # the places a shuffle touches, each read and written at its first slot
    place = np.concatenate((front, back), axis=1)
    slot = (place[:, None, :] == back[:, :, None]).argmax(axis=2)
    rows = np.arange(E)
    for j in range(c):
        place[rows, j], place[rows, slot[:, j]] = place[rows, slot[:, j]], place[rows, j]
    picks = place[:, :c]
    nodes = np.where(picks < n1[:, None], off1[:, None] + picks, off2[:, None] + picks - n1[:, None])
    weights = np.where(col < nt[:, None], 1.0 / nt[:, None], 1.0 / (c - nt)[:, None])
    return DirectedHypergraph.from_arrays(spec.num_nodes, np.arange(E + 1) * c, nodes.ravel(),
                                          weights.ravel(), nt, np.full(E, spec.sigma))
