"""Assembly of the linearized observation-error dynamics on a node subset.

For a subset S the linearized error obeys  d/dt e_S = A_S(t) e_S + b_S(t),
where A_S collects field Jacobians, output-correction terms, and the
hyperdiffusive coupling Jacobians, and b_S collects the contributions of
tails outside S.  Every fact about the edges entering S, head-closedness,
the members inside S and the tails outside it, is read from one incidence
slice, ``DirectedHypergraph.entering(S)``, and its ``position`` array is the
one index of S, which places each node's block in A_S.  This module also
implements the checkable hypotheses of the two convergence theorems and the
robustness bound.  ``ErrorSystem.refuting_block`` is the one interlacing refutation,
which the designer's zero-gain check and gain synthesis both read: the
symmetric part of an n x n diagonal block of A_S is a principal submatrix of
sym(A_S), so by Cauchy interlacing its largest eigenvalue is at most that of
sym(A_S) (Horn and Johnson, "Matrix Analysis", 2nd ed., Thm 4.3.28).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

from .dynamics import DimensionMismatch, NetworkSystem
from .hypergraph import DirectedHypergraph


class SubsetNotHeadClosed(ValueError):
    pass


class MissingOutsideError(KeyError):
    pass


class EmptySampleSet(ValueError):
    pass


class SubsetTooLarge(ValueError):
    pass


class NonpositiveMargin(ValueError):
    pass


# largest error dimension nM the Theorem-1 check accepts: its H2 test takes
# the SVD of the (nM)^2 x (nM)^2 Kronecker sum at every sample
KRON_CAP = 40
# slack fraction of the Theorem-1 slow-variation bound, in (0, 1)
EPS_REQ = 0.5


class ErrorSystem:
    """The zero-gain A_S and the coupling-Jacobian bound of the subset S,
    the node tuple ``nodes``, evaluated once over a sample set of estimator
    states, the (K, N, n) array ``samples``.

    ``a`` is the (K, nM, nM) stack of A_S, one per sample, and ``g`` is (K,),
    the largest |g'| over the subset's incoming edges at each sample (0 when
    no edge enters S).  Every check of one certification attempt reads these
    two arrays; gains enter as ``a - B`` with B from ``gain_matrix``, on a
    new array, so ``a`` stays the zero-gain stack.

    ``zero_error_nodes`` are nodes whose estimation error is identically zero
    (exactly reconstructed measured nodes); hyperedge heads falling outside S
    are tolerated only when they belong to this set.

    ``entering`` is S's incidence slice, ``DirectedHypergraph.entering``,
    which refuses a node given twice: every fact about the edges entering S
    that a design step reads comes from it, and its ``position`` places node
    ``nodes[k]`` at block k of A_S.
    """

    def __init__(
        self,
        sys: NetworkSystem,
        nodes: Sequence[int],
        samples,
        zero_error_nodes: frozenset[int] = frozenset(),
    ):
        self.sys, self.nodes = sys, tuple(int(v) for v in nodes)
        self.entering = sl = sys.hypergraph.entering(self.nodes)
        # head-closed: every head of an entering edge is in S or has no error
        heads = sl.members[sl.is_head]
        if set(heads[sl.position[heads] < 0].tolist()).difference(zero_error_nodes):
            raise SubsetNotHeadClosed(f"subset {self.nodes} splits the heads of some hyperedge")
        X = np.asarray(samples, dtype=float)
        if X.ndim != 3 or X.shape[1:] != (sys.num_nodes, sys.state_dim):
            raise DimensionMismatch(
                f"samples of shape {X.shape}, expected (K, {sys.num_nodes}, {sys.state_dim})"
            )
        if X.shape[0] == 0:
            raise EmptySampleSet("need at least one sample")
        # g' at the entering edges' arguments, node-first (edges, K, n): read
        # by both.  Step k adds the k-th term of every edge that has one, so
        # each argument adds its terms onto zero in entry order, the sums of
        # ``sys.edge_arguments`` bit for bit
        args = np.zeros((len(sl.edges), X.shape[0], X.shape[2]))
        sizes = np.diff(sl.ptr)
        for k in range(int(sizes.max(initial=0))):
            rows = np.flatnonzero(sizes > k)
            q = sl.ptr[rows] + k
            args[rows] += sl.weights[q, None, None] * X[:, sl.members[q]].transpose(1, 0, 2)
        dg = sys.coupling.deriv(args)
        self.a = self.a_matrix_batch(X, dg)
        self.g = self.coupling_jac_bound(dg)

    @property
    def dim(self) -> int:
        return len(self.nodes) * self.sys.state_dim

    def a_matrix_batch(self, X: np.ndarray, dg: np.ndarray) -> np.ndarray:
        """Zero-gain A_S stacked over the (K, N, n) states ``X``, with ``dg``
        the (edges, K, n) coupling derivative g' on the incoming edges."""
        sys, sl = self.sys, self.entering
        n, M, K = sys.state_dim, len(self.nodes), X.shape[0]
        A = np.zeros((K, M, n, M, n))
        Jf = sys.field.jac_x(X[:, list(self.nodes)], sys.field.nominal_params)
        for i in range(M):
            A[:, i, :, i, :] += Jf[:, i]
        sigma, diag = sys.hypergraph.edge_sigma[sl.edges], np.arange(n)
        # the entries of members in S, by position; edge r's are [at[r], at[r + 1])
        local = sl.position[sl.members]
        inside = local >= 0
        at = np.searchsorted(np.flatnonzero(inside), sl.ptr).tolist()
        local, weights, is_head = local[inside], sl.weights[inside, None], sl.is_head[inside]
        for r, (lo, hi) in enumerate(zip(at, at[1:])):
            # row i of a head collects w_j * diag(d) from every member j:
            # +alpha_j for a tail, -beta_j for a head (itself included).  An
            # edge's (head, member) pairs are distinct entries of A, so one
            # add gives each its term of this edge, and edges add in order
            members = local[lo:hi]
            heads = members[is_head[lo:hi]]
            terms = weights[lo:hi] * (sigma[r] * dg[r])[:, None, None]
            A[:, heads[:, None, None], diag, members[:, None], diag] += terms
        return A.reshape(K, M * n, M * n)

    def block_floor(self, nodes: Sequence[int]) -> tuple[float, int | None]:
        """The largest lambda_max of the symmetric part over the samples and
        the n x n diagonal blocks of ``a`` at ``nodes`` of S, and the first
        node whose block reaches it; (-inf, None) for no nodes.

        The blocks are the entries ``a`` holds, so by interlacing the value is
        at most the worst value of ``check_thm2`` with zero gains, and with any
        gains when none touches these blocks, up to the rounding of the two
        ``eigvalsh`` calls (``floor_tol``)."""
        if not nodes:
            return -np.inf, None
        n = self.sys.state_dim
        idx = np.add.outer(self.entering.position[list(nodes)] * n, np.arange(n))
        tops = symmetric_top_eig(self.a[:, idx[:, :, None], idx[:, None, :]]).max(axis=0)
        k = int(np.argmax(tops))
        return float(tops[k]), int(nodes[k])

    @cached_property
    def floor_tol(self) -> float:
        """The rounding slack of ``block_floor`` against ``check_thm2``:
        ``rounding_tol`` at the error dimension and max|A_S|, which is taken
        with no temporary the size of ``a``; not finite when ``a`` is not."""
        return rounding_tol(self.dim, float(np.maximum(self.a.max(), -self.a.min())))

    def refuting_block(self, nodes: Sequence[int], h_req: float) -> tuple[float, int] | None:
        """(floor, node) when the diagonal blocks at ``nodes`` prove that the
        Theorem-2 check fails at margin ``h_req`` with any gains that leave
        these blocks alone: their ``block_floor`` exceeds -h_req by more than
        ``floor_tol``.  None otherwise, and always when ``a`` has a
        non-finite entry, which has no finite slack (no ``eigvalsh`` runs)."""
        if not math.isfinite(self.floor_tol):
            return None
        floor, node = self.block_floor(nodes)
        return (floor, node) if floor > self.floor_tol - h_req else None

    def coupling_jac_bound(self, dg: np.ndarray) -> np.ndarray:
        """Per sample of the (edges, K, n) coupling derivative ``dg``, the max
        spectral norm of the coupling Jacobian diag(g') over the incoming
        edges: the largest |g'|, 0 when no edge enters S."""
        return np.abs(dg).max(axis=(0, 2), initial=0.0)


def rounding_tol(d: int, magnitude: float) -> float:
    """1e-10 (1 + d^2 magnitude): the slack that covers the rounding of
    ``eigvalsh`` and of a Cholesky factorization on d x d matrices whose
    entries are at most ``magnitude`` in size, for d < 10^5."""
    return 1e-10 * (1.0 + d * d * magnitude)


def gain_matrix(
    position: np.ndarray,
    keys: Sequence[tuple[int, int]],
    gains: np.ndarray,
    gamma: np.ndarray,
) -> np.ndarray:
    """The (Mn, Mn) correction matrix B of the M-node subset S with block
    (i, j) equal to gains[k] @ gamma for keys[k] = (i, j), and zero
    elsewhere: A_S with these gains is ``err.a - B`` at every sample.
    ``position`` is the index of S, ``EdgeSlice.position``; ``gains`` is the
    (len(keys), n, p) stack of gain blocks; keys are distinct.

    Elementwise, ``a - B`` is the IEEE subtraction the per-block form
    A[block] -= L @ Gamma makes, and a - 0.0 is a, bit for bit: so where
    that form has no block or skips an all-zero one, ``a - B`` leaves the
    entry as it was too (for a finite Gamma, whose products with zero gains
    sum to 0.0).

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
    """Outcome of a hypothesis check on one subset; the worst symmetric or
    spectral value over the samples is -``hurwitz_margin``."""

    theorem_used: str  # "thm1" | "thm2" | "exact", or "none" when it failed
    hurwitz_margin: float
    sample_count: int  # samples checked
    h2_margin: float | None = None  # least Theorem-1 H2 slack; None: not evaluated
    g_bound: float | None = None  # largest coupling-Jacobian norm

    @property
    def passed(self) -> bool:
        return self.theorem_used != "none"


def symmetric_top_eig(mats: np.ndarray) -> np.ndarray:
    """Largest eigenvalue of the symmetric part, batched over the first axis."""
    sym = 0.5 * (mats + np.swapaxes(mats, -1, -2))
    return np.linalg.eigvalsh(sym)[..., -1]


def check_thm2(
    err: ErrorSystem,
    h_req: float,
    gains: Mapping[tuple[int, int], np.ndarray] | None = None,
) -> CertificationReport:
    """Uniform Hurwitz margin of the symmetric part of A_S with the given
    gain blocks over the sample set of ``err``, plus the finite boundedness
    check on the coupling Jacobian.  Gains act through ``err.a - B``, on a
    new array: ``err.a`` stays the zero-gain stack."""
    if h_req <= 0:
        raise NonpositiveMargin("required margin must be positive")
    A = err.a
    if gains:
        keys = list(gains)
        blocks = np.array([gains[k] for k in keys], dtype=float)
        A = A - gain_matrix(err.entering.position, keys, blocks, err.sys.output.matrix)
    worst = float(symmetric_top_eig(A).max())
    g_bound = float(err.g.max())
    passed = worst <= -h_req and np.isfinite(g_bound)
    return CertificationReport(
        theorem_used="thm2" if passed else "none",
        hurwitz_margin=-worst,
        sample_count=A.shape[0],
        g_bound=g_bound,
    )


def spectral_abscissa(mats: np.ndarray) -> np.ndarray:
    return np.linalg.eigvals(mats).real.max(axis=-1)


def kron_sum(a: np.ndarray) -> np.ndarray:
    eye = np.eye(a.shape[-1])
    return np.kron(a, eye) + np.kron(eye, a)


def check_thm1(
    err: ErrorSystem, dt: float, h_req: float, length: int, count: int
) -> CertificationReport:
    """Slowly-varying-systems check: spectral abscissa below -h_req at every
    sample, and the finite-difference estimate of dA/dt below the
    Kronecker-sum slow-variation bound with slack fraction ``EPS_REQ``.

    The rows of ``err.a`` are time-ordered trajectories of ``length`` samples
    each.  The first ``count`` of them are checked in turn, up to the first
    that fails; the report merges the checked ones worst-case, and its
    ``sample_count`` is ``length`` times the number checked.

    With Q = I in Theorem 1 the bound at sample k reads
    sigma_min(A_k (+) A_k)^2 / (2 sqrt(nM)) * (1 - EPS_REQ)."""
    if h_req <= 0:
        raise NonpositiveMargin("required margin must be positive")
    if length < 2:
        raise EmptySampleSet("need at least two time-ordered samples")
    dim = err.dim
    if dim > KRON_CAP:
        raise SubsetTooLarge(
            f"Kronecker-sum check needs nM <= {KRON_CAP}, got {dim}"
        )
    # Q = I: sigma_min(Q) = 1 and ||Q||_F = sqrt(nM)
    q_fro = float(np.sqrt(dim))

    worst, g_bound, h2_slack = [], [], []
    for t in range(count):
        A = err.a[t * length : (t + 1) * length]
        worst.append(float(spectral_abscissa(A).max()))
        g_bound.append(float(err.g[t * length : (t + 1) * length].max()))
        # H2 decides nothing once H1 has failed: skip its SVD loop and report
        # no H2 margin
        if not worst[-1] <= -h_req:
            h2_slack = None
            break
        slack = np.inf
        for k in range(length - 1):
            a_dot = (A[k + 1] - A[k]) / dt
            lhs = float(np.linalg.norm(a_dot, 2))
            sig = float(np.linalg.svd(kron_sum(A[k]), compute_uv=False)[-1])
            rhs = sig**2 / (2.0 * q_fro) * (1.0 - EPS_REQ)
            slack = min(slack, rhs - lhs)
        h2_slack.append(slack)
        if not (slack > 0 and np.isfinite(g_bound[-1])):
            break

    passed = h2_slack is not None and h2_slack[-1] > 0 and np.isfinite(g_bound[-1])
    return CertificationReport(
        theorem_used="thm1" if passed else "none",
        hurwitz_margin=-max(worst),
        sample_count=len(worst) * length,
        h2_margin=None if h2_slack is None else min(h2_slack),
        g_bound=max(g_bound),
    )


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
