"""Assembly of the linearized observation-error dynamics on a node subset.

For a subset S the linearized error obeys  d/dt e_S = A_S(t) e_S + b_S(t),
where A_S collects field Jacobians, output-correction terms, and the
hyperdiffusive coupling Jacobians, and b_S collects the contributions of
tails outside S.  Every fact about the edges entering S is read from one
incidence slice, ``DirectedHypergraph.entering(S)``, whose ``position``
array places each node's block in A_S.

A design certifies the components of a labelling, disjoint subsets that no
edge enters together, several at a time: ``stack_roots`` gives roots of one
size one ``RootStack``, which assembles nothing until a check reads it.  A
check with gains, and gain synthesis, run on a stack that holds one subset
as its only root; a root's rows are the same bits alone as in a larger
stack.  One rule decides which samples a read of a stack assembles at once,
``RootStack.chunks()``: as many as ``CHUNK_BYTES`` holds of everything a
sample assembles, ``sample_bytes``, the rows of every root and three
n-vectors (argument, g' and coupling terms) per entering edge.  Every read
of A_S goes through those chunks, and ``top_eig_max`` reads the chunks its
caller hands it.
Each Theorem-2 decision takes the slack ``rounding_tol``: a node's floor
(``node_floors``, made once per design) refutes above -h + tol
(``refutes``), and so does the gain-free bound of a synthesis
(``gain_free_bound``), the top eigenvalue over every direction that no gain
reaches; a check passes at a worst value of at most -h - tol (``accepts``,
tol at max|A_S| plus the gains' max|B|).

This module also implements the checkable hypothesis of the Theorem-2
convergence result and the robustness bound, ``thm3_bound``.  One path turns
a stack's rows into Theorem-2 reports, ``check_roots``: one ``top_eig_max``
over the chunks of the roots it checks, the check behind every certificate.
The design's zero-gain checks call it on the roots a floor leaves standing,
and ``check_thm2`` calls it with the gains of a one-root stack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np
from numpy.linalg._umath_linalg import cholesky_lo

from . import dynamics
from .dynamics import DimensionMismatch, NetworkSystem
from .hypergraph import DirectedHypergraph, EdgeSlice, _csr, _rows


class SubsetNotHeadClosed(ValueError):
    pass


class MissingOutsideError(KeyError):
    pass


class EmptySampleSet(ValueError):
    pass


class NonpositiveMargin(ValueError):
    pass


# samples a max over samples evaluates by eigvalsh before its Cholesky screen
SEED_COUNT = 8


def a_matrix_batch(
    sys: NetworkSystem,
    roots: np.ndarray,
    pairs: tuple,
    X: np.ndarray,
    dg: np.ndarray,
) -> np.ndarray:
    """Zero-gain A_S of the R roots of M nodes, the rows of ``roots``, stacked
    over the (K, N, n) states ``X``: (R, K, Mn, Mn).  ``pairs`` places the
    coupling terms (``coupling_pairs``), and ``dg`` is the (edges, K, n)
    coupling derivative g' of the union's entering edges."""
    (R, M), n, K = roots.shape, sys.state_dim, X.shape[0]
    A = np.zeros((R, K, M, n, M, n))
    Jf = sys.field.jac_x(X[:, roots.ravel()], sys.field.nominal_params)
    block = np.arange(M)
    A[:, :, block, :, block, :] += Jf.reshape(K, R, M, n, n).transpose(2, 1, 0, 3, 4)
    edge, root, head, member, weight, waves, sigma = pairs
    terms = sigma * dg
    diag = np.arange(n)
    for lo, hi in zip(waves, waves[1:]):
        wave = weight[lo:hi] * terms[edge[lo:hi]]
        A[root[lo:hi], :, head[lo:hi], diag, member[lo:hi], diag] += wave.transpose(0, 2, 1)
    return A.reshape(R, K, M * n, M * n)


def coupling_jac_bound(dg: np.ndarray, edge_root: np.ndarray, R: int) -> np.ndarray:
    """Per root and sample of the (edges, K, n) coupling derivative ``dg``,
    whose edges enter the roots ``edge_root``, the max spectral norm of the
    coupling Jacobian diag(g') over the incoming edges: the largest |g'|, 0
    when no edge enters the root.  (R, K)."""
    starts, order = _csr(edge_root, np.arange(len(edge_root)), R)
    entered = np.flatnonzero(np.diff(starts))
    g = np.zeros((R, dg.shape[1]))
    g[entered] = np.maximum.reduceat(np.abs(dg[order]).max(axis=2), starts[entered])
    return g


def coupling_pairs(
    sys: NetworkSystem, sl: EdgeSlice, edge_root: np.ndarray, local: np.ndarray, M: int
) -> tuple:
    """The (head, member) pairs of every edge of the union slice ``sl`` of
    roots of M nodes inside its root, ``edge_root``; ``local`` is each
    entry's place in its edge's root, -1 outside it.  Row i of a head
    collects w_j * diag(d) from every member j, +alpha_j for a tail and
    -beta_j for a head (itself included): pair p adds ``weight[p] *
    sigma[edge[p]] * g'`` at block (head[p], member[p]) of root ``root[p]``.
    Wave k, the pairs ``waves[k]:waves[k + 1]``, holds the k-th pair, in
    edge order, of each block that has one, blocks ascending: the waves are
    row k of the ``_csr`` of (place in block, block).  A wave's pairs are
    distinct entries of A, so one add serves a wave, and every entry gets
    its terms in edge order.  Returns (edge, root, head, member, weight,
    waves, sigma)."""
    inside = np.flatnonzero(local >= 0)
    row = sl.rows[inside]
    heads = np.flatnonzero(sl.is_head[inside])
    # each inside head with every inside member of its edge: the pairs in edge order
    ptr, member = _rows(np.searchsorted(inside, sl.ptr), row[heads])
    head = np.repeat(heads, np.diff(ptr))
    edge, head, member = row[head], inside[head], inside[member]
    block = (edge_root[edge] * M + local[head]) * M + local[member]
    starts, order = _csr(block, np.arange(len(block)), int(block.max(initial=-1)) + 1)
    block = block[order]
    waves, by_wave = _csr(np.arange(len(block)) - starts[block], block,
                          int(np.diff(starts).max(initial=0)))
    edge, head, member = (a[order[by_wave]] for a in (edge, head, member))
    return (edge, edge_root[edge, None], local[head, None], local[member, None],
            sl.weights[member, None, None], waves.tolist(),
            sys.hypergraph.edge_sigma[sl.edges][:, None, None])


def sample_bytes(R: int, d: int, n: int, E: int) -> int:
    """The bytes one sample of a stack assembles: 8 (R d^2 + 3 n E), the d x
    d rows of its R roots and each of the E entering edges' argument, g' and
    coupling terms, three n-vectors."""
    return 8 * (R * d * d + 3 * n * E)


class RootStack:
    """The zero-gain A_S of R disjoint subsets of M nodes each, the rows of
    ``roots``, over the (K, N, n) samples ``X``, as a stream: ``rows(idx)``
    assembles the (R, k, Mn, Mn) rows of the samples ``idx`` when a check
    reads them.  ``entering`` is the incidence slice of the roots' union
    (see the module docstring), S's own for a one-root stack.  ``upstream``
    holds the tails of the entering edges outside their root, the union of
    the roots' own, and ``upstream_root`` the root each tail's edge enters;
    ``floors`` is ``node_floors`` of the samples.  ``chunks()`` is the one
    rule for which samples a read assembles at once, sized by everything a
    sample assembles.  Each assembly records the g, (R, K), and max|A_S|,
    ``a_max``, of its samples; reading either assembles the chunks not read
    yet.  A stack of one chunk keeps its first whole read, ``a``, None before
    it and for a larger stack."""

    def __init__(self, sys: NetworkSystem, roots: np.ndarray, sl: EdgeSlice,
                 edge_root: np.ndarray, local: np.ndarray, X: np.ndarray, floors: tuple):
        self.sys, self.roots, self.entering, self.X, self.floors = sys, roots, sl, X, floors
        (R, M), n, K = roots.shape, sys.state_dim, X.shape[0]
        self.num_samples, self.dim = K, M * n
        # each step adds the k-th term of every edge that has one, so each
        # argument adds its terms onto zero in entry order, the sums of
        # ``sys.edge_arguments`` bit for bit
        row = sl.rows
        starts, q = _csr(np.arange(len(row)) - sl.ptr[row], row,
                         int(np.diff(sl.ptr).max(initial=0)))
        rows, weights, members = row[q], sl.weights[q, None, None], sl.members[q]
        self._terms = [(rows[lo:hi], weights[lo:hi], members[lo:hi])
                       for lo, hi in zip(starts, starts[1:])]
        self._pairs = coupling_pairs(sys, sl, edge_root, local, M)
        self._edge_root = edge_root
        self.a, self._g, self._a_max = None, np.zeros((R, K)), np.full(R, -np.inf)
        self._read = np.zeros(K, dtype=bool)
        outside = ~sl.is_head & (local < 0)
        self.upstream, self.upstream_root = sl.members[outside], edge_root[sl.rows[outside]]

    @property
    def g(self) -> np.ndarray:
        return self._recorded()[0]

    @property
    def a_max(self) -> np.ndarray:
        return self._recorded()[1]

    def chunks(self) -> list[slice]:
        """Sample ranges whose assembly holds at most ``CHUNK_BYTES``, at
        least one sample each, by ``sample_bytes``."""
        step = max(1, dynamics.CHUNK_BYTES // sample_bytes(
            len(self.roots), self.dim, self.sys.state_dim, len(self.entering.edges)))
        return [slice(lo, lo + step) for lo in range(0, self.num_samples, step)]

    def rows(self, idx: slice) -> np.ndarray:
        """The (R, k, Mn, Mn) rows of the samples of the slice ``idx``, bit
        for bit those of the whole stack: a view of ``a`` when it is held,
        else assembled."""
        return self.a[:, idx] if self.a is not None else self._assemble(idx)

    def _recorded(self) -> tuple[np.ndarray, np.ndarray]:
        """g and ``a_max`` of every sample, assembling the chunks that no
        read has assembled yet."""
        for chunk in self.chunks():
            if not self._read[chunk].all():
                self._assemble(chunk)
        return self._g, self._a_max

    def _assemble(self, idx: slice) -> np.ndarray:
        """The rows of the samples ``idx``, recording their g and max|A_S|;
        a whole read of a one-chunk stack is kept as ``a``."""
        X = self.X[idx]
        args = np.zeros((len(self.entering.edges), X.shape[0], X.shape[2]))
        for rows, weights, members in self._terms:
            args[rows] += weights * X[:, members].transpose(1, 0, 2)
        dg = self.sys.coupling.deriv(args)
        A = a_matrix_batch(self.sys, self.roots, self._pairs, X, dg)
        self._g[:, idx] = coupling_jac_bound(dg, self._edge_root, len(self.roots))
        self._a_max = np.maximum(self._a_max, np.maximum(A.max(axis=(1, 2, 3)),
                                                         -A.min(axis=(1, 2, 3))))
        self._read[idx] = True
        if self.a is None and len(X) == self.num_samples and len(self.chunks()) == 1:
            self.a = A
        return A


def stack_roots(
    sys: NetworkSystem,
    roots: Sequence[Sequence[int]],
    samples,
    zero_error_nodes: frozenset[int] = frozenset(),
    floors: tuple[np.ndarray, np.ndarray] | None = None,
) -> RootStack:
    """The ``RootStack`` of ``roots``, disjoint node subsets of one size, over
    the (K, N, n) ``samples`` with their ``node_floors``, the design's
    ``floors`` or made here, from one slice of their union: every edge
    entering it enters one root, the root of its heads, where the roots are
    the components of one labelling.  Every root must be head-closed modulo
    ``zero_error_nodes``, the nodes whose estimation error is identically
    zero (exactly reconstructed measured nodes): a head of an entering edge
    outside its root must be one of them."""
    roots = [tuple(int(v) for v in S) for S in roots]
    R, M = len(roots), len(roots[0])
    if any(len(S) != M for S in roots):
        raise ValueError("roots of one stack must have one size")
    sl = sys.hypergraph.entering(v for S in roots for v in S)
    # an edge belongs to the root of its first head in the union; a member
    # in another root is outside this one, as it is to the root alone
    at = sl.position[sl.members]
    first = np.where(sl.is_head & (at >= 0), at, R * M)
    edge_root = (np.minimum.reduceat(first, sl.ptr[:-1]) if len(sl.edges) else first) // M
    entry_root = np.repeat(edge_root, np.diff(sl.ptr))
    local = np.where((at >= 0) & (at // M == entry_root), at - entry_root * M, -1)
    # head-closed: every head of an entering edge is in its root, or outside
    # the union with no error
    split = np.flatnonzero(sl.is_head & (local < 0))
    stray = [q for q in split.tolist() if at[q] >= 0 or int(sl.members[q]) not in zero_error_nodes]
    if stray:
        raise SubsetNotHeadClosed(
            f"subset {roots[entry_root[stray[0]]]} splits the heads of some hyperedge")
    X = np.asarray(samples, dtype=float)
    if X.ndim != 3 or X.shape[1:] != (sys.num_nodes, sys.state_dim):
        raise DimensionMismatch(
            f"samples of shape {X.shape}, expected (K, {sys.num_nodes}, {sys.state_dim})"
        )
    if X.shape[0] == 0:
        raise EmptySampleSet("need at least one sample")
    return RootStack(sys, np.array(roots, dtype=np.intp).reshape(R, M), sl, edge_root, local, X,
                     node_floors(sys, X) if floors is None else floors)


def node_floors(sys: NetworkSystem, samples) -> tuple[np.ndarray, np.ndarray]:
    """Each node's floor and bound over the (K, N, n) ``samples``: (N,), (N,).

    Node v's diagonal block D_v in any A_S is J_f(x_v) plus w sigma_e g'_e
    on the diagonal over the edges e that v heads, w its weight -beta, each
    entering S.  D_v is built with the adds of ``a_matrix_batch``, in its
    order, so bit for bit, and the floor is max_k lambda_max(sym D_v) by
    ``top_eig_max``.  Block row v of A_S holds D_v and those edges' terms
    at their other members, |w| <= 1, so the bound, max(max|D_v|, sum over
    the edges of sigma_e max|g'_e|) inflated by a relative 1e-12 for the
    rounding of the sums, is at least max|A_S| over the row; it is not
    finite where a sample of the row is not."""
    X = np.asarray(samples, dtype=float)
    h, (K, N, n) = sys.hypergraph, X.shape
    entry = np.flatnonzero(h.member_is_head)
    edge, node = np.repeat(np.arange(h.num_edges), np.diff(h.member_ptr))[entry], h.members[entry]
    # a slice of one row per (edge, head), its head the one member: the pairs
    # of root (v,) are (v, v), one per edge v heads, in edge order
    sl = EdgeSlice(edge, np.arange(len(entry) + 1), node, h.member_weight[entry],
                   np.ones(len(entry), dtype=bool), np.arange(N))
    row, head, _, _, weight, waves, _ = coupling_pairs(
        sys, sl, node, np.zeros(len(entry), dtype=np.intp), 1)
    adds = [(head[lo:hi, 0], edge[row[lo:hi]], weight[lo:hi]) for lo, hi in zip(waves, waves[1:])]
    sigma = h.edge_sigma[:, None, None]
    # W x of every edge, as ``sys.edge_arguments``, with work arrays that go with it
    W = dynamics.JaggedMatrix(h.member_weight, h.members, h.member_ptr)
    floor, mag, top = np.full(N, -np.inf), np.full(N, -np.inf), np.zeros(h.num_edges)
    # a chunk's blocks and member products, each twice, hold CHUNK_BYTES
    step = max(1, dynamics.CHUNK_BYTES // (16 * n * (N * n + len(h.members))))
    for lo in range(0, K, step):
        x = X[lo : lo + step].transpose(1, 0, 2)
        k, dg = x.shape[1], sys.coupling.deriv(W @ x)
        D = sys.field.jac_x(x, sys.field.nominal_params) + 0.0
        terms, diagonal = sigma * dg, D.reshape(N, k, n * n)[:, :, :: n + 1]
        for nodes, edges, weights in adds:
            diagonal[nodes] += weights * terms[edges]
        # short rows reduce far faster as columns
        for peak, a in ((mag, D.reshape(N, k * n * n)), (top, dg.reshape(len(dg), k * n))):
            a = np.ascontiguousarray(a.T)
            np.maximum(peak, np.maximum(a.max(axis=0), -a.min(axis=0)), out=peak)
        del dg, terms, a
        floor = np.maximum(floor, top_eig_max([D]))
    coupling = np.bincount(node, h.edge_sigma[edge] * top[edge], N)
    return floor, np.maximum(mag, coupling) * (1.0 + 1e-12)


def gain_free_bound(stack: RootStack, measured: Sequence[int]) -> float:
    """c = max_k lambda_max(U^T sym(A_k) U) on the one root of ``stack``
    with the nodes ``measured``, U an orthonormal basis of the directions no
    gain reaches: every direction of an unmeasured node, and null(Gamma) at
    a measured one, both in the basis of Gamma's right singular vectors;
    -inf where U is empty, and then no row is read.

    Every column block of B(L) is some L_ij Gamma at a measured node j, so
    B U = 0 and U^T sym(A_k - B) U = U^T sym(A_k) U: by Cauchy interlacing c
    is at most the Theorem-2 check's worst value with any gains, and at
    least each unmeasured node's floor, up to ``rounding_tol``
    (``refutes``).  By the elimination lemma (Boyd et al., "Linear Matrix
    Inequalities in System and Control Theory", 1994, sec. 2.6.2) it is
    also their infimum, which the gains L_jj = g Gamma^T approach as g
    grows.  ``top_eig_max`` reads the projected rows U^T A U of each
    ``RootStack.chunks()`` range; its max is exact, so the chunks change no
    bit.  With every node measured through an invertible Gamma, U is empty
    before any factorization of Gamma."""
    nodes, gamma = one_root(stack), stack.sys.output.matrix
    if stack.sys.output.invertible and set(nodes) <= set(measured):
        return -math.inf
    vt, rank = np.linalg.svd(gamma)[2], np.linalg.matrix_rank(gamma)
    keep = np.logical_or.outer([v not in measured for v in nodes], np.arange(len(vt)) >= rank)
    U = np.kron(np.eye(len(nodes)), vt.T)[:, keep.ravel()]
    return -math.inf if not U.size else float(
        top_eig_max(U.T @ stack.rows(chunk) @ U for chunk in stack.chunks())[0])


def rounding_tol(d: int, magnitude: float) -> float:
    """1e-10 (1 + d^2 magnitude): the slack for the rounding of ``eigvalsh``
    and of a Cholesky factorization on d x d matrices of entries at most
    ``magnitude``, d < 10^5; inf at an inf magnitude, where no test clears."""
    return 1e-10 * (1.0 + d * d * magnitude)


def refutes(floor, d: int, magnitude, h_req: float):
    """Whether a floor, the max over samples of lambda_max(U^T sym(A_k) U)
    for some orthonormal U that the gains leave alone (one node's diagonal
    block, or every direction no gain reaches, ``gain_free_bound``), proves
    the Theorem-2 check at margin ``h_req`` to fail on a d x d A_S of
    entries at most ``magnitude``: by Cauchy interlacing (Horn and Johnson,
    "Matrix Analysis", 2nd ed., Thm 4.3.28) the floor is at most the
    check's worst value, up to ``rounding_tol``."""
    with np.errstate(over="ignore"):
        return floor > rounding_tol(d, magnitude) - h_req


def accepts(worst, d: int, magnitude, h_req: float):
    """Whether a check's worst value on d x d matrices of entries at most
    ``magnitude`` proves the margin ``h_req`` through ``rounding_tol``."""
    with np.errstate(over="ignore"):
        return worst <= -h_req - rounding_tol(d, magnitude)


def gain_matrix(
    position: np.ndarray,
    keys: Sequence[tuple[int, int]],
    gains: np.ndarray,
    gamma: np.ndarray,
) -> np.ndarray:
    """The (Mn, Mn) correction matrix B of the M-node subset S with block
    (i, j) equal to gains[k] @ gamma for keys[k] = (i, j), and zero
    elsewhere: A_S with these gains is ``rows(idx) - B`` of a one-root
    ``RootStack`` at every sample.
    ``position`` is the index of S, ``EdgeSlice.position``; ``gains`` is the
    (len(keys), n, p) stack of gain blocks; keys are distinct.

    Elementwise, ``a - B`` is the subtraction of the per-block form
    A[block] -= L @ Gamma, and a - 0.0 is a bit for bit where that form has
    no block or skips a zero one (a finite Gamma times zero gains is 0.0).

    A gain whose row or column lies outside the subset is rejected: its term
    would couple S to an error outside it."""
    ids = np.array(keys, dtype=np.intp).reshape(len(keys), 2)
    # an id outside [0, N) is outside S too: position[-1] would wrap around
    local = position.take(ids, mode="clip")
    local[(ids < 0) | (ids >= len(position))] = -1
    if local.min(initial=0) < 0:
        stray = keys[int(np.flatnonzero(local.min(axis=1) < 0)[0])]
        raise ValueError(f"gain {stray} couples the subset to a node outside it")
    M, n = int(position.max(initial=-1)) + 1, gamma.shape[1]
    B = np.zeros((M, n, M, n))
    B[local[:, 0], :, local[:, 1], :] = gains @ gamma
    return B.reshape(M * n, M * n)


# -- certification ---------------------------------------------------------------


@dataclass(frozen=True)
class CertificationReport:
    """Outcome of a hypothesis check on one subset; the worst
    lambda_max(sym A_k) over the samples is -``hurwitz_margin``."""

    theorem_used: str  # "thm2" | "exact", or "none" when it failed
    hurwitz_margin: float
    sample_count: int  # samples checked
    g_bound: float | None = None  # largest coupling-Jacobian norm

    @property
    def passed(self) -> bool:
        return self.theorem_used != "none"


def symmetric_top_eig(mats: np.ndarray) -> np.ndarray:
    """Largest eigenvalue of the symmetric part, batched over the leading
    axes; +inf where the symmetric part has a non-finite entry, on which
    ``eigvalsh`` would return values that mean nothing, so no such matrix
    reaches it.  LAPACK's ``syevd`` returns a 1 x 1 matrix's entry as it is,
    so that case needs no ``eigvalsh`` call."""
    with np.errstate(over="ignore", invalid="ignore"):
        sym = mats + np.swapaxes(mats, -1, -2)
        sym *= 0.5
    if sym.shape[-1] == 1:
        top = sym[..., 0, 0]
        return np.where(np.isfinite(top), top, np.inf)
    finite = np.isfinite(sym).all(axis=(-2, -1))
    if finite.all():
        return np.linalg.eigvalsh(sym)[..., -1]
    top = np.full(finite.shape, np.inf)
    top[finite] = np.linalg.eigvalsh(sym[finite])[..., -1]
    return top


def top_eig_max(chunks: Iterable[np.ndarray]) -> np.ndarray:
    """max_k lambda_max(sym A_rk) for each root r of the (R, K, d, d) stack
    A whose samples come as the (R, k, d, d) row ``chunks``: (R,), bit for
    bit ``symmetric_top_eig(A).max(axis=1)``, so +inf for a root holding a
    sample whose A_S or symmetric part has a non-finite entry.  The caller
    decides the chunks (``RootStack.chunks()`` for a stack's rows), and
    each is pulled once the last is freed; none is pulled once every root
    has reached +inf.  The screen's work arrays are its own, ``CHUNK_BYTES``
    together.

    ``eigvalsh`` runs on ``SEED_COUNT`` evenly spaced samples of each root's
    first chunk, whose largest top eigenvalue starts ``best``, the largest
    value found so far.  The other samples with finite entries factor
    mu I - sym(A_k) = LL^T by one batched LAPACK Cholesky at mu = best - tol.
    A factorization that runs to completion proves lambda_max(sym A_k) <
    mu + 4 d^3 u max|mu I - sym A_k| (Higham, "Accuracy and Stability of
    Numerical Algorithms", 2nd ed., ch. 10), and tol, ``rounding_tol`` at
    the chunk's max|A| + |best|, covers that and the rounding of
    ``eigvalsh`` for d < 10^5: such a sample cannot beat ``best``.  Only the
    samples whose factorization fails, or that hold a non-finite entry,
    reach ``symmetric_top_eig``.  A failed factorization comes back as NaN
    rows, and one with an infinite pivot has an infinite diagonal entry:
    either sends its sample to ``eigvalsh``."""
    best = None
    for A in chunks:
        (R, k, d), diag = A.shape[:3], np.arange(A.shape[2])
        if d <= 2:
            # eigvalsh of a 1 x 1 or 2 x 2 matrix costs less than the screen
            top = symmetric_top_eig(A).max(axis=1)
            best = top if best is None else np.maximum(best, top)
        else:
            # the screen's three work arrays (the matrices, the transpose
            # numpy copies to add in place, the factors) hold CHUNK_BYTES
            part = max(1, dynamics.CHUNK_BYTES // (3 * 8 * d * d))
            todo = np.ones((R, k), dtype=bool)
            if best is None:
                count = min(SEED_COUNT, k)
                seeds = np.arange(count) * k // count
                best = symmetric_top_eig(A[:, seeds]).max(axis=1)
                todo[:, seeds] = False
            todo &= (best < np.inf)[:, None]
            with np.errstate(invalid="ignore", over="ignore"):
                # the rounding scale; a sample with a non-finite entry goes
                # to symmetric_top_eig, and so does every sample of a root
                # whose mu is not finite
                mag = np.maximum(A.max(axis=(2, 3)), -A.min(axis=(2, 3)))
                finite = np.isfinite(mag)
                scale = np.where(finite, mag, 0.0).max(axis=1) + np.abs(best)
                mu = best - rounding_tol(d, scale)
                screened = np.nonzero(todo & finite & np.isfinite(mu)[:, None])
                for at in range(0, len(screened[0]), part):
                    r, k = (ix[at : at + part] for ix in screened)
                    M = A[r, k]
                    M += M.transpose(0, 2, 1)
                    M *= -0.5
                    M[:, diag, diag] += mu[r, None]
                    pivots = np.diagonal(cholesky_lo(M), axis1=1, axis2=2)
                    todo[r, k] = ~np.isfinite(pivots).all(axis=1)
            left = np.nonzero(todo)
            for at in range(0, len(left[0]), part):
                r, k = (ix[at : at + part] for ix in left)
                np.maximum.at(best, r, symmetric_top_eig(A[r, k]))
        # freed before the next chunk is assembled
        del A
        if not (best < np.inf).any():
            break
    return best


def thm2_report(worst: float, g_bound: float, sample_count: int, h_req: float, d: int,
                mag: float) -> CertificationReport:
    """The Theorem-2 report on ``sample_count`` samples whose max of
    lambda_max(sym A_k), with the gains checked, is ``worst`` and whose
    largest coupling-Jacobian norm is ``g_bound``: it passes where
    ``accepts`` on d x d matrices of entries at most ``mag``, with a finite
    ``g_bound``."""
    if h_req <= 0:
        raise NonpositiveMargin("required margin must be positive")
    passed = accepts(worst, d, mag, h_req) and math.isfinite(g_bound)
    return CertificationReport(
        theorem_used="thm2" if passed else "none",
        hurwitz_margin=-worst,
        sample_count=sample_count,
        g_bound=g_bound,
    )


def one_root(stack: RootStack) -> tuple[int, ...]:
    """The node tuple of the one root of ``stack``; ValueError for a stack
    of several roots."""
    if len(stack.roots) != 1:
        raise ValueError(f"a stack of {len(stack.roots)} roots, expected one")
    return tuple(stack.roots[0].tolist())


def check_roots(stack: RootStack, h_req: float, roots=slice(None),
                B: np.ndarray | None = None) -> list[CertificationReport]:
    """The Theorem-2 report of each root of ``stack`` that ``roots`` picks
    (all by default; an index array), in its order: one ``top_eig_max`` over
    the ``RootStack.chunks()`` rows of those roots, each less the gains' B
    where given, then ``thm2_report`` at max|A_S| + max|B| with the root's
    g.  Every root of the stack is assembled, picked or not."""
    worst = top_eig_max(stack.rows(chunk)[roots] if B is None else stack.rows(chunk)[roots] - B
                        for chunk in stack.chunks())
    b_max = 0.0 if B is None else float(np.abs(B).max())
    return [thm2_report(w, g, stack.num_samples, h_req, stack.dim, a + b_max)
            for w, g, a in zip(worst.tolist(), stack.g[roots].max(axis=1).tolist(),
                               stack.a_max[roots].tolist())]


def check_thm2(
    stack: RootStack,
    h_req: float,
    gains: Mapping[tuple[int, int], np.ndarray] | None = None,
) -> CertificationReport:
    """Uniform Hurwitz margin of the symmetric part of A_S with the given
    gain blocks over the sample set of the one root of ``stack``, plus the
    finite boundedness check on the coupling Jacobian: ``check_roots`` with
    the gains' B."""
    one_root(stack)
    B = None
    if gains:
        keys = list(gains)
        blocks = np.array([gains[k] for k in keys], dtype=float)
        B = gain_matrix(stack.entering.position, keys, blocks, stack.sys.output.matrix)
    return check_roots(stack, h_req, B=B)[0]


# -- robustness bound --------------------------------------------------------------


@dataclass(frozen=True)
class RobustnessBound:
    """A subset's asymptotic error bound and the part of it that its tails
    outside the subset contribute, before the sqrt(2) / (2h) scaling."""

    value: float
    outside_term: float


def thm3_bound(
    hypergraph: DirectedHypergraph,
    subset_nodes: Sequence[int],
    upstream_bounds: Mapping[int, float],
    margin: float,
    g_bound: float,
    f_bound: float,
    l_bound: float,
    mu_bar: float,
    nu_bar: float,
) -> RobustnessBound:
    """Asymptotic error bound under parameter mismatch and output noise:

        B = (sqrt(2) * sum_i bbar_i + sqrt(2M) mu_bar * f + sqrt(2M) nu_bar * l) / (2h)

    with bbar_i = g * sum over incoming edges of sigma * sum of the bounds of
    tails outside the subset.
    """
    if margin <= 0:
        raise NonpositiveMargin("Hurwitz margin must be positive")
    for name, v in (("g", g_bound), ("f", f_bound), ("l", l_bound),
                    ("mu_bar", mu_bar), ("nu_bar", nu_bar)):
        if v < 0:
            raise ValueError(f"bound {name} must be nonnegative, got {v}")
    S = sorted(set(int(v) for v in subset_nodes))
    M = len(S)
    sl = hypergraph.entering(S)
    outside, rows = sl.outside_tails, sl.rows
    tails = sl.members[outside].tolist()
    missing = [t for t in tails if t not in upstream_bounds]
    if missing:
        raise MissingOutsideError(f"no upstream bound for tail {missing[0]}")
    # each entering edge's sum of the bounds of its tails outside S, added
    # onto zero in member order
    totals = np.zeros(len(sl.edges))
    np.add.at(totals, rows[outside], [float(upstream_bounds[t]) for t in tails])
    totals = totals.tolist()
    # one term per (head in S, edge) pair, heads ascending, then edges
    head_in = sl.is_head & (sl.position[sl.members] >= 0)
    heads, head_rows = sl.members[head_in], rows[head_in]
    outside_term = 0.0
    for r in head_rows[np.lexsort((head_rows, heads))].tolist():
        outside_term += g_bound * float(hypergraph.edge_sigma[sl.edges[r]]) * totals[r]
    value = (
        np.sqrt(2.0) * outside_term
        + np.sqrt(2.0 * M) * mu_bar * f_bound
        + np.sqrt(2.0 * M) * nu_bar * l_bound
    ) / (2.0 * margin)
    return RobustnessBound(float(value), outside_term)
