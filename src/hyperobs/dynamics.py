"""Node vector fields, coupling protocols, output maps, and network right-hand sides.

All built-ins evaluate batched: state arguments broadcast over leading axes,
Jacobians gain two trailing axes.  Parameter vectors broadcast the same way,
which is how heterogeneous per-node parameters enter the network dynamics.
The hyperdiffusive coupling gathers node states through the hypergraph's
sparse incidence, for all edges or for a chosen few.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from .hypergraph import DirectedHypergraph


class DimensionMismatch(ValueError):
    pass


class MissingMeasurement(KeyError):
    pass


def fd_jacobian(fn: Callable[[np.ndarray], np.ndarray], x: np.ndarray) -> np.ndarray:
    """Central-difference Jacobian, step 1e-6 * max(1, |x_j|) per coordinate."""
    x = np.asarray(x, dtype=float)
    f0 = np.asarray(fn(x), dtype=float)
    jac = np.zeros(f0.shape + x.shape)
    for j in np.ndindex(x.shape):
        step = 1e-6 * max(1.0, abs(x[j]))
        xp, xm = x.copy(), x.copy()
        xp[j] += step
        xm[j] -= step
        jac[(...,) + j] = (np.asarray(fn(xp)) - np.asarray(fn(xm))) / (2.0 * step)
    return jac


@dataclass(frozen=True)
class VectorField:
    """Node dynamics f(x, mu) with analytic (or finite-difference) Jacobians."""

    state_dim: int
    param_dim: int
    func: Callable[[np.ndarray, np.ndarray], np.ndarray]
    jac_x_func: Callable[[np.ndarray, np.ndarray], np.ndarray]
    jac_mu_func: Callable[[np.ndarray, np.ndarray], np.ndarray]
    nominal_params: np.ndarray

    def __post_init__(self):
        object.__setattr__(
            self, "nominal_params", np.asarray(self.nominal_params, dtype=float)
        )

    def _mu(self, mu):
        return self.nominal_params if mu is None else np.asarray(mu, dtype=float)

    def eval(self, x, mu=None) -> np.ndarray:
        return self.func(np.asarray(x, dtype=float), self._mu(mu))

    def jac_x(self, x, mu=None) -> np.ndarray:
        return self.jac_x_func(np.asarray(x, dtype=float), self._mu(mu))

    def jac_mu(self, x, mu=None) -> np.ndarray:
        return self.jac_mu_func(np.asarray(x, dtype=float), self._mu(mu))


def vector_field_from_callable(
    func: Callable[[np.ndarray, np.ndarray], np.ndarray],
    state_dim: int,
    nominal_params,
    jac_x: Callable | None = None,
    jac_mu: Callable | None = None,
) -> VectorField:
    """Wrap a plain callable; missing Jacobians fall back to finite differences.

    The finite-difference fallback evaluates batched states point by point.
    """
    nominal = np.atleast_1d(np.asarray(nominal_params, dtype=float))

    def fd_jac_x(x, mu):
        if x.ndim == 1:
            return fd_jacobian(lambda z: func(z, mu), x)
        flat = x.reshape(-1, state_dim)
        return np.stack([fd_jacobian(lambda z: func(z, mu), p) for p in flat]).reshape(
            x.shape[:-1] + (state_dim, state_dim)
        )

    def fd_jac_mu(x, mu):
        if x.ndim == 1:
            return fd_jacobian(lambda m: func(x, m), mu)
        flat = x.reshape(-1, state_dim)
        return np.stack([fd_jacobian(lambda m: func(p, m), mu) for p in flat]).reshape(
            x.shape[:-1] + (state_dim, nominal.size)
        )

    return VectorField(
        state_dim, nominal.size, func, jac_x or fd_jac_x, jac_mu or fd_jac_mu, nominal
    )


def lorenz_field(mu1: float = 10.0, mu2: float = 28.0, mu3: float = 8.0 / 3.0) -> VectorField:
    """Three-dimensional Lorenz node dynamics."""

    def f(x, mu):
        m1, m2, m3 = mu[..., 0], mu[..., 1], mu[..., 2]
        x1, x2, x3 = x[..., 0], x[..., 1], x[..., 2]
        return np.stack(
            [m1 * (x2 - x1), x1 * (m2 - x3) - x2, x1 * x2 - m3 * x3], axis=-1
        )

    def jx(x, mu):
        m1, m2, m3 = mu[..., 0], mu[..., 1], mu[..., 2]
        x1, x2, x3 = x[..., 0], x[..., 1], x[..., 2]
        shape = np.broadcast_shapes(x1.shape, np.shape(m1))
        J = np.zeros(shape + (3, 3))
        J[..., 0, 0] = -m1
        J[..., 0, 1] = m1
        J[..., 1, 0] = m2 - x3
        J[..., 1, 1] = -1.0
        J[..., 1, 2] = -x1
        J[..., 2, 0] = x2
        J[..., 2, 1] = x1
        J[..., 2, 2] = -m3
        return J

    def jmu(x, mu):
        x1, x2, x3 = x[..., 0], x[..., 1], x[..., 2]
        shape = np.broadcast_shapes(x1.shape, mu[..., 0].shape)
        J = np.zeros(shape + (3, 3))
        J[..., 0, 0] = x2 - x1
        J[..., 1, 1] = x1
        J[..., 2, 2] = -x3
        return J

    return VectorField(3, 3, f, jx, jmu, np.array([mu1, mu2, mu3]))


def bistable_field(mu1: float = 1.0, mu2: float = 2.0) -> VectorField:
    """Scalar two-option dynamics -mu1*x + mu2*tanh(x)."""
    if mu1 <= 0 or mu2 <= 0:
        raise ValueError("bistable field expects positive parameters")

    def f(x, mu):
        return -mu[..., 0:1] * x + mu[..., 1:2] * np.tanh(x)

    def jx(x, mu):
        d = -mu[..., 0] + mu[..., 1] * (1.0 - np.tanh(x[..., 0]) ** 2)
        return d[..., None, None]

    def jmu(x, mu):
        cols = np.stack([-x[..., 0], np.tanh(x[..., 0])], axis=-1)
        return np.broadcast_to(cols[..., None, :], cols.shape[:-1] + (1, 2)).copy()

    return VectorField(1, 2, f, jx, jmu, np.array([mu1, mu2]))


@dataclass(frozen=True)
class CouplingFunction:
    """Coupling g with g(0)=0 and Jacobian; acts on hyperdiffusive arguments."""

    dim: int
    func: Callable[[np.ndarray], np.ndarray]
    jac_func: Callable[[np.ndarray], np.ndarray]

    def eval(self, z) -> np.ndarray:
        return self.func(np.asarray(z, dtype=float))

    def jac(self, z) -> np.ndarray:
        return self.jac_func(np.asarray(z, dtype=float))


def tanh_coupling(a: float, b: float, c: float, dim: int) -> CouplingFunction:
    """Componentwise a*z + b*((z+c)tanh(z+c) - (z-c)tanh(z-c))."""
    if dim < 1:
        raise ValueError("dim must be >= 1")

    def scalar(z):
        return a * z + b * ((z + c) * np.tanh(z + c) - (z - c) * np.tanh(z - c))

    def dscalar(z):
        def t(u):
            th = np.tanh(u)
            return th + u * (1.0 - th**2)

        return a + b * (t(z + c) - t(z - c))

    def g(z):
        return scalar(z)

    def jac(z):
        d = dscalar(z)
        J = np.zeros(z.shape + (dim,))
        idx = np.arange(dim)
        J[..., idx, idx] = d
        return J

    return CouplingFunction(dim, g, jac)


def linear_coupling(gain: float, dim: int) -> CouplingFunction:
    """Plain diffusive coupling gain * z."""

    def jac(z):
        J = np.zeros(z.shape + (dim,))
        idx = np.arange(dim)
        J[..., idx, idx] = gain
        return J

    return CouplingFunction(dim, lambda z: gain * np.asarray(z, float), jac)


@dataclass(frozen=True)
class OutputMap:
    """Measurement map h with Jacobian; ``inverse`` present when numerically safe."""

    state_dim: int
    output_dim: int
    func: Callable[[np.ndarray], np.ndarray]
    jac_func: Callable[[np.ndarray], np.ndarray]
    inverse: Callable[[np.ndarray], np.ndarray] | None = None
    matrix: np.ndarray | None = None

    def eval(self, x) -> np.ndarray:
        return self.func(np.asarray(x, dtype=float))

    def jac(self, x) -> np.ndarray:
        return self.jac_func(np.asarray(x, dtype=float))

    @property
    def invertible(self) -> bool:
        return self.inverse is not None


def linear_output(matrix) -> OutputMap:
    """Output y = Gamma @ x; invertible when square with condition number < 1e8."""
    gamma = np.asarray(matrix, dtype=float)
    if gamma.ndim != 2:
        raise DimensionMismatch("output matrix must be 2-D")
    p, n = gamma.shape
    if p > n:
        raise DimensionMismatch("output dimension cannot exceed state dimension")

    def h(x):
        return x @ gamma.T

    def jac(x):
        return np.broadcast_to(gamma, x.shape[:-1] + (p, n)).copy()

    inverse = None
    if p == n and np.linalg.cond(gamma) < 1e8:
        gamma_inv = np.linalg.inv(gamma)

        def inverse(y):
            return np.asarray(y, dtype=float) @ gamma_inv.T

    return OutputMap(n, p, h, jac, inverse, gamma)


def identity_output(n: int) -> OutputMap:
    return linear_output(np.eye(n))


# -- network ---------------------------------------------------------------------


@dataclass(frozen=True)
class NetworkSystem:
    """A hypergraph of identical nodes with hyperdiffusive coupling and outputs."""

    hypergraph: DirectedHypergraph
    field: VectorField
    coupling: CouplingFunction
    output: OutputMap
    per_node_params: np.ndarray = None  # (N, param_dim); defaults to nominal

    def __post_init__(self):
        N, n = self.hypergraph.num_nodes, self.field.state_dim
        if self.coupling.dim != n:
            raise DimensionMismatch("coupling dimension must match the node state")
        if self.output.state_dim != n:
            raise DimensionMismatch("output map dimension must match the node state")
        params = self.per_node_params
        if params is None:
            params = np.tile(self.field.nominal_params, (N, 1))
        params = np.asarray(params, dtype=float).reshape(N, self.field.param_dim)
        object.__setattr__(self, "per_node_params", params)
        # gather plans of the coupling kernels over all edges and all nodes
        h = self.hypergraph
        all_edges = np.arange(len(h.edges))
        edge_plan = _gather_plan(h.member_ptr, all_edges, h.members, h.member_weight)
        head_plan = _gather_plan(h.head_ptr, np.arange(N), h.head_edges, h.edge_sigma[h.head_edges])
        object.__setattr__(self, "_edge_plan", edge_plan)
        object.__setattr__(self, "_head_plan", head_plan)

    @property
    def num_nodes(self) -> int:
        return self.hypergraph.num_nodes

    @property
    def state_dim(self) -> int:
        return self.field.state_dim

    def with_params(self, per_node_params) -> "NetworkSystem":
        return NetworkSystem(
            self.hypergraph, self.field, self.coupling, self.output, per_node_params
        )

    def edge_arguments(self, states: np.ndarray, edges=None) -> np.ndarray:
        """Hyperdiffusive arguments of the given edges (all by default), in
        that order; ``states`` is (..., N, n).

        Members ascend within an edge, so each argument is summed in the node
        order of a dense incidence product."""
        h = self.hypergraph
        if edges is None:
            return _gather_sum(self._edge_plan, states, len(h.edges))
        edges = np.asarray(edges, dtype=np.intp)
        plan = _gather_plan(h.member_ptr, edges, h.members, h.member_weight)
        return _gather_sum(plan, states, len(edges))

    def coupling_term(self, states: np.ndarray) -> np.ndarray:
        """Per-node sum of sigma * g(argument) over incoming edges."""
        if not self.hypergraph.edges:
            return np.zeros_like(states)
        g = self.coupling.eval(self.edge_arguments(states))
        return _gather_sum(self._head_plan, g, self.num_nodes)


def _gather_plan(ptr: np.ndarray, rows: np.ndarray, source: np.ndarray, weight: np.ndarray):
    """Plan for summing ``weight * x[source]`` over the entries of each CSR
    row in ``rows``, one entry at a time in entry order.

    Rows are visited longest first, so the r-th entries of all rows that have
    one form a prefix; ``inverse`` (None when the order is unchanged) puts the
    sums back in the order of ``rows``.
    """
    start = ptr[rows]
    size = ptr[rows + 1] - start
    order = np.argsort(-size, kind="stable")
    start, size = start[order], size[order]
    ranks = []
    for r in range(size.max(initial=0)):
        entry = start[size > r] + r
        ranks.append((len(entry), source[entry], weight[entry, None]))
    inverse = None if (order == np.arange(len(order))).all() else np.argsort(order)
    return ranks, inverse


def _gather_sum(plan, x: np.ndarray, count: int) -> np.ndarray:
    """Apply a ``_gather_plan`` to ``x`` of shape (..., M, d): (..., count, d)."""
    ranks, inverse = plan
    out = np.zeros(x.shape[:-2] + (count, x.shape[-1]))
    for m, index, weight in ranks:
        out[..., :m, :] += weight * np.take(x, index, axis=-2)
    return out if inverse is None else np.take(out, inverse, axis=-2)


def _reshape_state(sys: NetworkSystem, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.size != sys.num_nodes * sys.state_dim:
        raise DimensionMismatch(
            f"state length {x.size} != N*n = {sys.num_nodes * sys.state_dim}"
        )
    return x.reshape(sys.num_nodes, sys.state_dim)


def network_rhs(sys: NetworkSystem, x: np.ndarray) -> np.ndarray:
    """Stacked plant dynamics: per-node field plus hyperdiffusive coupling."""
    X = _reshape_state(sys, x)
    out = sys.field.eval(X, sys.per_node_params) + sys.coupling_term(X)
    return out.reshape(-1)


def observer_rhs(sys: NetworkSystem, design, xhat: np.ndarray, y: Mapping[int, np.ndarray]) -> np.ndarray:
    """Prediction-correction observer dynamics.

    ``design`` provides ``measured`` (node set) and ``gains`` (mapping
    (i, j) -> n-by-p matrix).  ``y`` must contain a measurement for every
    measured node.  The observer always runs on nominal parameters.
    """
    X = _reshape_state(sys, xhat)
    out = sys.field.eval(X, sys.field.nominal_params) + sys.coupling_term(X)
    measured = sorted(design.measured)
    innovations = {}
    for j in measured:
        if j not in y:
            raise MissingMeasurement(f"no measurement provided for node {j}")
        innovations[j] = np.asarray(y[j], dtype=float) - sys.output.eval(X[j])
    for (i, j), L in design.gains.items():
        if j not in innovations:
            raise MissingMeasurement(f"gain ({i},{j}) refers to unmeasured node {j}")
        out[i] = out[i] + np.asarray(L) @ innovations[j]
    return out.reshape(-1)
