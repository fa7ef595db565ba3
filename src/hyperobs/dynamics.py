"""Node vector fields, coupling protocols, output maps, and the network system.

All built-ins evaluate batched: state arguments broadcast over leading axes,
and field Jacobians gain two trailing axes.  Parameter vectors broadcast the
same way, which is how heterogeneous per-node parameters enter the network
dynamics.  The coupling acts per coordinate, so its Jacobian is diagonal and
is stored as its diagonal g', shaped like the argument.  The output map is
linear and is its matrix Gamma, which is also its Jacobian.  The
hyperdiffusive coupling is two CSR products, H_sigma g(W x), on a node-first
state x of shape (N, ...), with W the E x N member incidence and H_sigma the
N x E head incidence scaled by sigma, both built once from the hypergraph's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.sparse import csr_array

from .hypergraph import DirectedHypergraph


class DimensionMismatch(ValueError):
    pass


@dataclass(frozen=True)
class VectorField:
    """Node dynamics f(x, mu) with its Jacobians in x and in mu."""

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


def lorenz_field(mu1: float = 10.0, mu2: float = 28.0, mu3: float = 8.0 / 3.0) -> VectorField:
    """Three-dimensional Lorenz node dynamics."""

    def f(x, mu):
        m1, m2, m3 = mu[..., 0], mu[..., 1], mu[..., 2]
        x1, x2, x3 = x[..., 0], x[..., 1], x[..., 2]
        out = np.empty(np.broadcast_shapes(x1.shape, np.shape(m1)) + (3,))
        out[..., 0] = m1 * (x2 - x1)
        out[..., 1] = x1 * (m2 - x3) - x2
        out[..., 2] = x1 * x2 - m3 * x3
        return out

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
    """Coupling g with g(0)=0, applied per coordinate of the hyperdiffusive
    arguments; ``deriv`` is g', with its argument's shape."""

    func: Callable[[np.ndarray], np.ndarray]
    deriv_func: Callable[[np.ndarray], np.ndarray]

    def eval(self, z) -> np.ndarray:
        return self.func(np.asarray(z, dtype=float))

    def deriv(self, z) -> np.ndarray:
        return self.deriv_func(np.asarray(z, dtype=float))


def tanh_coupling(a: float, b: float, c: float) -> CouplingFunction:
    """Componentwise a*z + b*((z+c)tanh(z+c) - (z-c)tanh(z-c))."""

    def g(z):
        # in place wherever the operands commute: the bits of the one-line form
        u = z + c
        t = np.tanh(u)
        t *= u
        u = z - c
        s = np.tanh(u)
        s *= u
        t -= s
        t *= b
        out = a * z
        out += t
        return out

    def dg(z):
        def t(u):
            th = np.tanh(u)
            return th + u * (1.0 - th**2)

        return a + b * (t(z + c) - t(z - c))

    return CouplingFunction(g, dg)


def linear_coupling(gain: float) -> CouplingFunction:
    """Plain diffusive coupling gain * z."""
    return CouplingFunction(lambda z: gain * z, lambda z: np.full(z.shape, float(gain)))


@dataclass(frozen=True)
class OutputMap:
    """Linear measurement y = Gamma x; ``inverse`` is Gamma^-1 when Gamma is
    square with condition number < 1e8, else None."""

    matrix: np.ndarray
    inverse: np.ndarray | None = None

    @property
    def state_dim(self) -> int:
        return self.matrix.shape[1]

    @property
    def output_dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def invertible(self) -> bool:
        return self.inverse is not None

    def eval(self, x) -> np.ndarray:
        return np.asarray(x, dtype=float) @ self.matrix.T


def linear_output(matrix) -> OutputMap:
    """Output y = Gamma @ x; invertible when square with condition number < 1e8."""
    gamma = np.asarray(matrix, dtype=float)
    if gamma.ndim != 2:
        raise DimensionMismatch("output matrix must be 2-D")
    p, n = gamma.shape
    if p > n:
        raise DimensionMismatch("output dimension cannot exceed state dimension")
    inverse = None
    if p == n and np.linalg.cond(gamma) < 1e8:
        inverse = np.linalg.inv(gamma)
    return OutputMap(gamma, inverse)


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
        if self.output.state_dim != n:
            raise DimensionMismatch("output map dimension must match the node state")
        params = self.per_node_params
        if params is None:
            params = np.tile(self.field.nominal_params, (N, 1))
        params = np.asarray(params, dtype=float).reshape(N, self.field.param_dim)
        object.__setattr__(self, "per_node_params", params)
        # W (+alpha for a tail, -beta for a head) and H_sigma
        h, E = self.hypergraph, len(self.hypergraph.edges)
        W = csr_array((h.member_weight, h.members, h.member_ptr), shape=(E, N))
        object.__setattr__(self, "_members", W)
        H = csr_array((h.edge_sigma[h.head_edges], h.head_edges, h.head_ptr), shape=(N, E))
        object.__setattr__(self, "_heads", H)

    @property
    def num_nodes(self) -> int:
        return self.hypergraph.num_nodes

    @property
    def state_dim(self) -> int:
        return self.field.state_dim

    def edge_arguments(self, states: np.ndarray, edges=None) -> np.ndarray:
        """Hyperdiffusive arguments W x of the given edges (all by default),
        in that order, for node-first ``states`` (N, ...): (edges, ...).
        Chosen edges read their rows of W, restricted to their members."""
        if edges is None:
            return _product(self._members, states)
        h = self.hypergraph
        edges = np.asarray(edges, dtype=np.intp)
        start, sizes = h.member_ptr[edges], np.diff(h.member_ptr)[edges]
        ptr = np.concatenate([[0], np.cumsum(sizes)])
        entries = np.repeat(start - ptr[:-1], sizes) + np.arange(ptr[-1])
        cols, local = np.unique(h.members[entries], return_inverse=True)
        rows = csr_array((h.member_weight[entries], local, ptr), shape=(len(edges), len(cols)))
        return _product(rows, states[cols])

    def coupling_term(self, states: np.ndarray) -> np.ndarray:
        """Per-node sum of sigma * g(argument) over incoming edges, H g(W x),
        on node-first ``states`` (N, ...)."""
        return _product(self._heads, self.coupling.eval(self.edge_arguments(states)))


def _product(matrix: csr_array, x: np.ndarray) -> np.ndarray:
    """``matrix`` times the node-first ``x`` (cols, ...): (rows, ...).  scipy's
    CSR kernel adds each row's entries onto zero in entry order, and members
    ascend within an edge and edges within a node."""
    out = matrix @ x.reshape(x.shape[0], math.prod(x.shape[1:]))
    return out.reshape((matrix.shape[0],) + x.shape[1:])
