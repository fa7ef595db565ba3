"""Assembly of the linearized observation-error dynamics on a node subset.

For a subset S the linearized error obeys  d/dt e_S = A_S(t) e_S + b_S(t),
where A_S collects field Jacobians, output-correction terms, and the
hyperdiffusive coupling Jacobians, and b_S collects the contributions of
tails outside S.  This module also implements the checkable hypotheses of
the two convergence theorems and the robustness bound.
"""

from __future__ import annotations

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


class QNotSPD(ValueError):
    pass


class SubsetTooLarge(ValueError):
    pass


class NonpositiveMargin(ValueError):
    pass


KRON_CAP_DEFAULT = 40


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


def _gain_items(design) -> list[tuple[tuple[int, int], np.ndarray]]:
    if design is None:
        return []
    return [((int(i), int(j)), np.asarray(L, dtype=float)) for (i, j), L in design.gains.items()]


@dataclass(frozen=True)
class ErrorSystem:
    """Evaluators for A_S and b_S along estimator states.

    ``zero_error_nodes`` are nodes whose estimation error is identically zero
    (exactly reconstructed measured nodes); hyperedge heads falling outside S
    are tolerated only when they belong to this set.
    """

    sys: NetworkSystem
    design: object
    subset: SubsetIndex
    zero_error_nodes: frozenset[int] = frozenset()

    def __post_init__(self):
        h = self.sys.hypergraph
        S = self.subset.nodes
        if not check_head_closed(h, S, self.zero_error_nodes):
            raise SubsetNotHeadClosed(
                f"subset {S} splits the heads of some hyperedge"
            )
        for (i, j), _ in _gain_items(self.design):
            if i in self.subset and j not in self.subset and j not in self.zero_error_nodes:
                raise ValueError(
                    f"gain ({i},{j}) couples the subset to an external measured node"
                )
        object.__setattr__(self, "_incoming", tuple(h.incoming_closure(S)))

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

    def a_matrix_batch(self, states) -> np.ndarray:
        """A_S stacked over samples; ``states`` is (K, N, n) or flat variants."""
        X = self._states(states)
        sys, sub = self.sys, self.subset
        n, M, K = sys.state_dim, sub.size, X.shape[0]
        A = np.zeros((K, M, n, M, n))
        Jf = sys.field.jac_x(X[:, list(sub.nodes)], sys.field.nominal_params)
        for i in range(M):
            A[:, i, :, i, :] += Jf[:, i]
        measured = set(getattr(self.design, "measured", ())) if self.design else set()
        for (gi, gj), L in _gain_items(self.design):
            if gi in sub and gj in sub and gj in measured:
                Dh = sys.output.jac(X[:, gj])
                A[:, sub.position(gi), :, sub.position(gj), :] -= np.einsum(
                    "ab,kbc->kac", L, Dh
                )
        h = sys.hypergraph
        if self._incoming:
            Dg = sys.coupling.jac(sys.edge_arguments(X, self._incoming))
            for ek, k in enumerate(self._incoming):
                D = h.edge_sigma[k] * Dg[:, ek]
                members, weights, is_head = h.members_of(k)
                inside = [
                    (sub.position(v), w, head)
                    for v, w, head in zip(members.tolist(), weights.tolist(), is_head.tolist())
                    if v in sub
                ]
                # row i of a head collects w_j * D from every member j:
                # +alpha_j for a tail, -beta_j for a head (itself included)
                for i, _, head in inside:
                    if head:
                        for j, w, _ in inside:
                            A[:, i, :, j, :] += w * D
        return A.reshape(K, M * n, M * n)

    def a_matrix(self, state) -> np.ndarray:
        return self.a_matrix_batch(state)[0]

    def b_vector(self, state, outside_errors: Mapping[int, np.ndarray]) -> np.ndarray:
        """Exogenous term from tails outside S with the given error values."""
        X = self._states(state)[0]
        sys, sub = self.sys, self.subset
        n, M = sys.state_dim, sub.size
        required = set(sys.hypergraph.tails_of(sys.hypergraph.boundary(sub.nodes))) - set(
            sub.nodes
        )
        missing = [t for t in sorted(required) if t not in outside_errors]
        if missing:
            raise MissingOutsideError(f"no error value for outside tails {missing}")
        b = np.zeros((M, n))
        h = sys.hypergraph
        if self._incoming:
            Dg = sys.coupling.jac(sys.edge_arguments(X, self._incoming))
            for ek, k in enumerate(self._incoming):
                members, weights, is_head = h.members_of(k)
                acc = np.zeros(n)
                for t, w in zip(members[~is_head].tolist(), weights[~is_head].tolist()):
                    if t not in sub:
                        acc = acc + w * np.asarray(outside_errors[t], dtype=float)
                if not acc.any():
                    continue
                contribution = h.edge_sigma[k] * (Dg[ek] @ acc)
                for head in members[is_head].tolist():
                    if head in sub:
                        b[sub.position(head)] += contribution
        return b.reshape(-1)

    def coupling_jac_bound(self, states) -> float:
        """Max spectral norm of the coupling Jacobian over samples and
        incoming edges of the subset."""
        if not self._incoming:
            return 0.0
        X = self._states(states)
        Dg = self.sys.coupling.jac(self.sys.edge_arguments(X, self._incoming))
        return float(np.linalg.svd(Dg, compute_uv=False)[..., 0].max())


def assemble_A(
    sys: NetworkSystem,
    design,
    subset: SubsetIndex | Sequence[int],
    xhat,
    zero_error_nodes: Iterable[int] = (),
) -> np.ndarray:
    sub = subset if isinstance(subset, SubsetIndex) else SubsetIndex(tuple(subset))
    err = ErrorSystem(sys, design, sub, frozenset(zero_error_nodes))
    return err.a_matrix(xhat)


def assemble_b(
    sys: NetworkSystem,
    subset: SubsetIndex | Sequence[int],
    xhat,
    outside_errors: Mapping[int, np.ndarray],
    zero_error_nodes: Iterable[int] = (),
) -> np.ndarray:
    sub = subset if isinstance(subset, SubsetIndex) else SubsetIndex(tuple(subset))
    err = ErrorSystem(sys, None, sub, frozenset(zero_error_nodes))
    return err.b_vector(xhat, outside_errors)


# -- certification ---------------------------------------------------------------


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
        return {
            "theorem_used": self.theorem_used,
            "hurwitz_margin": self.hurwitz_margin,
            "worst_value": self.worst_value,
            "sample_count": self.sample_count,
            "h2_margin": self.h2_margin,
            "g_bound": self.g_bound,
            "trajectory_ids": list(self.trajectory_ids),
        }

    @staticmethod
    def from_json_dict(doc: Mapping) -> "CertificationReport":
        return CertificationReport(
            **{**doc, "trajectory_ids": tuple(doc.get("trajectory_ids", ()))}
        )


def symmetric_top_eig(mats: np.ndarray) -> np.ndarray:
    """Largest eigenvalue of the symmetric part, batched over the first axis."""
    sym = 0.5 * (mats + np.swapaxes(mats, -1, -2))
    return np.linalg.eigvalsh(sym)[..., -1]


def check_thm2(
    err: ErrorSystem,
    samples,
    h_req: float,
    trajectory_ids: Iterable[int] = (),
) -> CertificationReport:
    """Uniform Hurwitz margin of the symmetric part over the sample set,
    plus the finite boundedness check on the coupling Jacobian."""
    if h_req <= 0:
        raise NonpositiveMargin("required margin must be positive")
    X = err._states(samples)
    if X.shape[0] == 0:
        raise EmptySampleSet("need at least one sample")
    lam = symmetric_top_eig(err.a_matrix_batch(X))
    worst = float(lam.max())
    g_bound = err.coupling_jac_bound(X)
    passed = worst <= -h_req and np.isfinite(g_bound)
    return CertificationReport(
        theorem_used="thm2" if passed else "none",
        hurwitz_margin=-worst,
        worst_value=worst,
        sample_count=X.shape[0],
        g_bound=g_bound,
        trajectory_ids=tuple(trajectory_ids),
    )


def spectral_abscissa(mats: np.ndarray) -> np.ndarray:
    return np.linalg.eigvals(mats).real.max(axis=-1)


def kron_sum(a: np.ndarray) -> np.ndarray:
    eye = np.eye(a.shape[-1])
    return np.kron(a, eye) + np.kron(eye, a)


def check_thm1(
    err: ErrorSystem,
    trajectory,
    dt: float,
    h_req: float,
    eps_req: float = 0.5,
    Q: np.ndarray | None = None,
    kron_cap: int = KRON_CAP_DEFAULT,
    trajectory_ids: Iterable[int] = (),
) -> CertificationReport:
    """Slowly-varying-systems check: spectral abscissa below -h_req at every
    sample, and the finite-difference estimate of dA/dt below the
    Kronecker-sum slow-variation bound with slack fraction ``eps_req``."""
    if h_req <= 0:
        raise NonpositiveMargin("required margin must be positive")
    if not 0.0 < eps_req < 1.0:
        raise ValueError("eps_req must lie in (0, 1)")
    X = err._states(trajectory)
    if X.shape[0] < 2:
        raise EmptySampleSet("need at least two time-ordered samples")
    dim = err.dim
    if dim > kron_cap:
        raise SubsetTooLarge(
            f"Kronecker-sum check needs nM <= {kron_cap}, got {dim}"
        )
    if Q is None:
        Q = np.eye(dim)
    Q = np.asarray(Q, dtype=float)
    if Q.shape != (dim, dim) or not np.allclose(Q, Q.T, atol=1e-12):
        raise QNotSPD("Q must be symmetric with matching dimension")
    q_eigs = np.linalg.eigvalsh(0.5 * (Q + Q.T))
    if q_eigs[0] <= 0:
        raise QNotSPD("Q must be positive definite")
    sigma_min_q = float(np.linalg.svd(Q, compute_uv=False)[-1])
    q_fro = float(np.linalg.norm(Q, "fro"))

    A = err.a_matrix_batch(X)
    absc = spectral_abscissa(A)
    worst = float(absc.max())
    h1_ok = worst <= -h_req

    h2_slack = np.inf
    for k in range(A.shape[0] - 1):
        a_dot = (A[k + 1] - A[k]) / dt
        lhs = float(np.linalg.norm(a_dot, 2))
        sig = float(np.linalg.svd(kron_sum(A[k]), compute_uv=False)[-1])
        rhs = sigma_min_q * sig**2 / (2.0 * q_fro) * (1.0 - eps_req)
        h2_slack = min(h2_slack, rhs - lhs)
    h2_ok = h2_slack > 0

    g_bound = err.coupling_jac_bound(X)
    passed = h1_ok and h2_ok and np.isfinite(g_bound)
    return CertificationReport(
        theorem_used="thm1" if passed else "none",
        hurwitz_margin=-worst,
        worst_value=worst,
        sample_count=X.shape[0],
        h2_margin=float(h2_slack),
        g_bound=g_bound,
        trajectory_ids=tuple(trajectory_ids),
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
