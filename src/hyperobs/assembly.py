"""Assembly of the linearized observation-error dynamics on a node subset.

For a subset S the linearized error obeys  d/dt e_S = A_S(t) e_S + b_S(t),
where A_S collects field Jacobians, output-correction terms, and the
hyperdiffusive coupling Jacobians, and b_S collects the contributions of
tails outside S.  This module also implements the checkable hypotheses of
the two convergence theorems and the robustness bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

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


@dataclass(frozen=True)
class SubsetIndex:
    """Ordered node subset with positional lookup."""

    nodes: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "nodes", tuple(int(v) for v in self.nodes))
        if len(set(self.nodes)) != len(self.nodes):
            raise ValueError("subset contains duplicate nodes")
        object.__setattr__(self, "_pos", {v: k for k, v in enumerate(self.nodes)})

    @property
    def size(self) -> int:
        return len(self.nodes)

    def position(self, node: int) -> int:
        return self._pos[node]

    def __contains__(self, node: int) -> bool:
        return node in self._pos


def check_head_closed(
    h: DirectedHypergraph, nodes: Iterable[int], ignoring: Iterable[int] = ()
) -> bool:
    """True iff every hyperedge with a head in ``nodes`` has all heads inside
    ``nodes`` (nodes in ``ignoring`` are treated as acceptable outside heads)."""
    nodes = list(nodes)
    ok = set(nodes) | set(ignoring)
    for k in h.incoming_closure(nodes):
        members, _, is_head = h.members_of(k)
        if not ok.issuperset(members[is_head].tolist()):
            return False
    return True


class ErrorSystem:
    """The zero-gain A_S and the coupling-Jacobian bound, evaluated once over
    a sample set of estimator states.

    ``a`` is the (K, nM, nM) stack of A_S, one per sample, and ``g`` is (K,),
    the largest |g'| over the subset's incoming edges at each sample (0 when
    no edge enters S).  Every check of one certification attempt reads these
    two arrays; gain blocks enter through ``apply_gains`` on a copy of ``a``.

    ``zero_error_nodes`` are nodes whose estimation error is identically zero
    (exactly reconstructed measured nodes); hyperedge heads falling outside S
    are tolerated only when they belong to this set.
    """

    def __init__(
        self,
        sys: NetworkSystem,
        subset: SubsetIndex,
        samples,
        zero_error_nodes: frozenset[int] = frozenset(),
    ):
        S = subset.nodes
        if not check_head_closed(sys.hypergraph, S, zero_error_nodes):
            raise SubsetNotHeadClosed(f"subset {S} splits the heads of some hyperedge")
        self.sys, self.subset = sys, subset
        self._incoming = tuple(sys.hypergraph.incoming_closure(S))
        X = self._states(samples)
        if X.shape[0] == 0:
            raise EmptySampleSet("need at least one sample")
        self.a = self.a_matrix_batch(X)
        self.g = self.coupling_jac_bound(X)

    @property
    def dim(self) -> int:
        return self.subset.size * self.sys.state_dim

    def _states(self, x) -> np.ndarray:
        N, n = self.sys.num_nodes, self.sys.state_dim
        arr = np.asarray(x, dtype=float)
        if arr.size == N * n:
            return arr.reshape(1, N, n)
        if arr.ndim >= 2 and arr.shape[-1] == n and arr.shape[-2] == N:
            return arr.reshape(-1, N, n)
        if arr.ndim == 2 and arr.shape[-1] == N * n:
            return arr.reshape(-1, N, n)
        raise DimensionMismatch(f"cannot interpret state array of shape {arr.shape}")

    def a_matrix_batch(self, X: np.ndarray) -> np.ndarray:
        """Zero-gain A_S stacked over the (K, N, n) states ``X``."""
        sys, sub = self.sys, self.subset
        n, M, K = sys.state_dim, sub.size, X.shape[0]
        A = np.zeros((K, M, n, M, n))
        Jf = sys.field.jac_x(X[:, list(sub.nodes)], sys.field.nominal_params)
        for i in range(M):
            A[:, i, :, i, :] += Jf[:, i]
        h = sys.hypergraph
        if self._incoming:
            dg = sys.coupling.deriv(sys.edge_arguments(X, self._incoming))
            diag = np.arange(n)
            for ek, k in enumerate(self._incoming):
                d = h.edge_sigma[k] * dg[:, ek]
                members, weights, is_head = h.members_of(k)
                inside = [
                    (sub.position(v), w, head)
                    for v, w, head in zip(members.tolist(), weights.tolist(), is_head.tolist())
                    if v in sub
                ]
                # row i of a head collects w_j * diag(d) from every member j:
                # +alpha_j for a tail, -beta_j for a head (itself included)
                for i, _, head in inside:
                    if head:
                        for j, w, _ in inside:
                            A[:, i, diag, j, diag] += w * d
        return A.reshape(K, M * n, M * n)

    def coupling_jac_bound(self, X: np.ndarray) -> np.ndarray:
        """Per sample of the (K, N, n) states ``X``, the max spectral norm of
        the coupling Jacobian over the subset's incoming edges.  The Jacobian
        is diag(g'), whose spectral norm is the largest |g'|."""
        if not self._incoming:
            return np.zeros(X.shape[0])
        dg = self.sys.coupling.deriv(self.sys.edge_arguments(X, self._incoming))
        return np.abs(dg).reshape(X.shape[0], -1).max(axis=1)


def apply_gains(
    A: np.ndarray,
    subset: SubsetIndex,
    gains: Mapping[tuple[int, int], np.ndarray],
    gamma: np.ndarray,
) -> np.ndarray:
    """Subtract L @ Gamma from block (i, j) of every A_S in the (K, Mn, Mn)
    stack ``A``, in place, for each gain L = gains[(i, j)]; returns ``A``.

    A gain whose row or column lies outside the subset is rejected: its term
    would couple S to an error outside it."""
    n = gamma.shape[1]
    for (i, j), L in gains.items():
        if i not in subset or j not in subset:
            raise ValueError(f"gain ({i},{j}) couples subset {subset.nodes} to an outside node")
        if not np.any(L):
            continue
        pi, pj = subset.position(i) * n, subset.position(j) * n
        A[:, pi : pi + n, pj : pj + n] -= np.asarray(L, float) @ gamma
    return A


# -- certification ---------------------------------------------------------------


# report fields that hold floats; non-finite ones are written as strings
_REPORT_FLOATS = ("hurwitz_margin", "worst_value", "h2_margin", "g_bound")


@dataclass(frozen=True)
class CertificationReport:
    """Outcome of a hypothesis check on one subset."""

    theorem_used: str  # "thm1" | "thm2" | "exact" | "none"
    hurwitz_margin: float
    worst_value: float
    sample_count: int
    h2_margin: float | None = None
    g_bound: float | None = None
    trajectory_ids: tuple[int, ...] = ()

    @property
    def passed(self) -> bool:
        return self.theorem_used != "none"

    def to_json_dict(self) -> dict:
        # strict JSON has no Infinity or NaN: such floats are written as the
        # strings "inf", "-inf" and "nan", which float() reads back
        doc = {
            "theorem_used": self.theorem_used,
            "hurwitz_margin": self.hurwitz_margin,
            "worst_value": self.worst_value,
            "sample_count": self.sample_count,
            "h2_margin": self.h2_margin,
            "g_bound": self.g_bound,
            "trajectory_ids": list(self.trajectory_ids),
        }
        for key in _REPORT_FLOATS:
            if doc[key] is not None and not math.isfinite(doc[key]):
                doc[key] = str(float(doc[key]))
        return doc

    @staticmethod
    def from_json_dict(doc: Mapping) -> "CertificationReport":
        floats = {k: float(doc[k]) for k in _REPORT_FLOATS if doc.get(k) is not None}
        return CertificationReport(
            **{**doc, **floats, "trajectory_ids": tuple(doc.get("trajectory_ids", ()))}
        )


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
    check on the coupling Jacobian.  Gains act on a copy: ``err.a`` stays the
    zero-gain stack."""
    if h_req <= 0:
        raise NonpositiveMargin("required margin must be positive")
    A = apply_gains(err.a.copy(), err.subset, gains, err.sys.output.matrix) if gains else err.a
    worst = float(symmetric_top_eig(A).max())
    g_bound = float(err.g.max())
    passed = worst <= -h_req and np.isfinite(g_bound)
    return CertificationReport(
        theorem_used="thm2" if passed else "none",
        hurwitz_margin=-worst,
        worst_value=worst,
        sample_count=A.shape[0],
        g_bound=g_bound,
    )


def spectral_abscissa(mats: np.ndarray) -> np.ndarray:
    return np.linalg.eigvals(mats).real.max(axis=-1)


def kron_sum(a: np.ndarray) -> np.ndarray:
    eye = np.eye(a.shape[-1])
    return np.kron(a, eye) + np.kron(eye, a)


def check_thm1(
    err: ErrorSystem,
    dt: float,
    h_req: float,
    eps_req: float = 0.5,
    length: int | None = None,
    count: int = 1,
) -> CertificationReport:
    """Slowly-varying-systems check: spectral abscissa below -h_req at every
    sample, and the finite-difference estimate of dA/dt below the
    Kronecker-sum slow-variation bound with slack fraction ``eps_req``.

    The rows of ``err.a`` are time-ordered trajectories of ``length`` samples
    each (one trajectory of all rows when omitted).  The first ``count`` of
    them are checked in turn, up to the first that fails; the report merges
    the checked ones worst-case and lists their ids.

    With Q = I in Theorem 1 the bound at sample k reads
    sigma_min(A_k (+) A_k)^2 / (2 sqrt(nM)) * (1 - eps_req)."""
    if h_req <= 0:
        raise NonpositiveMargin("required margin must be positive")
    if not 0.0 < eps_req < 1.0:
        raise ValueError("eps_req must lie in (0, 1)")
    T = err.a.shape[0] if length is None else length
    if T < 2:
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
        A = err.a[t * T : (t + 1) * T]
        worst.append(float(spectral_abscissa(A).max()))
        g_bound.append(float(err.g[t * T : (t + 1) * T].max()))
        # H2 decides nothing once H1 has failed: skip its SVD loop and report
        # no H2 margin
        if not worst[-1] <= -h_req:
            h2_slack = None
            break
        slack = np.inf
        for k in range(T - 1):
            a_dot = (A[k + 1] - A[k]) / dt
            lhs = float(np.linalg.norm(a_dot, 2))
            sig = float(np.linalg.svd(kron_sum(A[k]), compute_uv=False)[-1])
            rhs = sig**2 / (2.0 * q_fro) * (1.0 - eps_req)
            slack = min(slack, rhs - lhs)
        h2_slack.append(slack)
        if not (slack > 0 and np.isfinite(g_bound[-1])):
            break

    passed = h2_slack is not None and h2_slack[-1] > 0 and np.isfinite(g_bound[-1])
    return CertificationReport(
        theorem_used="thm1" if passed else "none",
        hurwitz_margin=-max(worst),
        worst_value=max(worst),
        sample_count=len(worst) * T,
        h2_margin=None if h2_slack is None else min(h2_slack),
        g_bound=max(g_bound),
        trajectory_ids=tuple(range(len(worst))),
    )


# -- robustness bound --------------------------------------------------------------


@dataclass(frozen=True)
class RobustnessBound:
    value: float
    margin: float
    g_bound: float
    f_bound: float
    l_bound: float
    mu_bar: float
    nu_bar: float
    subset_size: int
    outside_term: float

    def to_json_dict(self) -> dict:
        return self.__dict__.copy()


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
    S = set(int(v) for v in subset_nodes)
    M = len(S)
    outside_term = 0.0
    for s in sorted(S):
        for k in hypergraph.incoming(s):
            members, _, is_head = hypergraph.members_of(k)
            tot = 0.0
            for t in members[~is_head].tolist():
                if t not in S:
                    if t not in upstream_bounds:
                        raise MissingOutsideError(f"no upstream bound for tail {t}")
                    tot += float(upstream_bounds[t])
            outside_term += g_bound * float(hypergraph.edge_sigma[k]) * tot
    value = (
        np.sqrt(2.0) * outside_term
        + np.sqrt(2.0 * M) * mu_bar * f_bound
        + np.sqrt(2.0 * M) * nu_bar * l_bound
    ) / (2.0 * margin)
    return RobustnessBound(
        float(value), margin, g_bound, f_bound, l_bound, mu_bar, nu_bar, M, outside_term
    )
