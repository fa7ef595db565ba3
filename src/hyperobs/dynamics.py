"""Node vector fields, coupling protocols, output maps, and the network system.

All built-ins evaluate batched: state arguments broadcast over leading axes,
and field Jacobians gain two trailing axes.  Parameter vectors broadcast the
same way, which is how heterogeneous per-node parameters enter the network
dynamics.  The coupling acts per coordinate, so its Jacobian is diagonal and
is stored as its diagonal g', shaped like the argument.  The output map is
linear and is its matrix Gamma, which is also its Jacobian.  The
hyperdiffusive coupling is two sparse products, H_sigma g(W x), on a
node-first state x of shape (N, ...), with W the E x N member incidence and
H_sigma the N x E head incidence scaled by sigma, both built once from the
hypergraph's as ``JaggedMatrix``es: a few numpy calls per product, with the
sums of scipy's CSR kernel bit for bit.  The coupling applies g to W x where
W's product leaves it, in W's work array with the rows sorted, and H_sigma
numbers its columns in that order, so W's rows are never copied back into
edge order; ``edge_arguments`` returns them in edge order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .hypergraph import DirectedHypergraph, _csr


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
        out = np.empty(np.broadcast(x1, m1).shape + (3,))
        out[..., 0] = m1 * (x2 - x1)
        out[..., 1] = x1 * (m2 - x3) - x2
        out[..., 2] = x1 * x2 - m3 * x3
        return out

    def jx(x, mu):
        m1, m2, m3 = mu[..., 0], mu[..., 1], mu[..., 2]
        x1, x2, x3 = x[..., 0], x[..., 1], x[..., 2]
        shape = np.broadcast(x1, m1).shape
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
        shape = np.broadcast(x1, mu[..., 0]).shape
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
        h = self.hypergraph
        W = JaggedMatrix(h.member_weight, h.members, h.member_ptr)
        object.__setattr__(self, "_members", W)
        # edge e is row W._rank[e] of W's work array, where H_sigma reads it
        H = JaggedMatrix(h.edge_sigma[h.head_edges], W._rank[h.head_edges], h.head_ptr)
        object.__setattr__(self, "_heads", H)

    @property
    def num_nodes(self) -> int:
        return self.hypergraph.num_nodes

    @property
    def state_dim(self) -> int:
        return self.field.state_dim

    def edge_arguments(self, states: np.ndarray) -> np.ndarray:
        """Hyperdiffusive arguments W x of every edge for node-first
        ``states`` (N, ...): (E, ...)."""
        return self._members @ states

    def coupling_term(self, states: np.ndarray) -> np.ndarray:
        """Per-node sum of sigma * g(argument) over incoming edges, H g(W x),
        on node-first ``states`` (N, ...).  Members ascend within an edge and
        edges within a node, so every sum runs in ascending index order.  A
        column chunk at a time, g is applied to W's product in its work
        array, rows sorted, and H_sigma reads it there."""
        x = np.asarray(states, dtype=float)
        flat = x.reshape(x.shape[0], math.prod(x.shape[1:]))
        W, step = self._members, self._members._chunk
        # a right-hand side with no columns is one empty chunk
        parts = [self._heads @ self.coupling.eval(W._sorted_product(flat[:, c : c + step]))
                 for c in range(0, max(1, flat.shape[1]), step)]
        out = parts[0] if len(parts) == 1 else np.concatenate(parts, axis=1)
        return out.reshape(x.shape)


# the one byte budget of the package's chunked work: a ``JaggedMatrix``
# product keeps three work arrays of up to this many bytes each, and a wider
# right-hand side is multiplied a column chunk at a time; ``sim`` draws noise
# ahead and ``assembly`` stacks A_S and screens samples in chunks of it
CHUNK_BYTES = 1 << 20


class JaggedMatrix:
    """A sparse matrix in jagged-diagonal storage (Saad, "Iterative Methods
    for Sparse Linear Systems", 2nd ed., 2003, sec. 3.4), built from a CSR
    triple ``data``, ``indices``, ``indptr`` with ``indptr[0] == 0``.  The
    rows are sorted by decreasing length, stably, and the entries stored
    k-major: the first entry of every row, then the second of every row that
    has one, and so on, so the rows with a k-th entry are a prefix of the
    sorted rows.  Diagonal k is row k of the ``_csr`` of (place in row, row
    rank).  A product reuses the work arrays of the previous one when the
    column count is the same, so a matrix serves one thread.

    ``@`` copies the rows of the product out of the work array in the
    caller's order.  ``_sorted_product`` leaves them there, sorted:
    ``NetworkSystem.coupling_term`` reads W's product that way, through
    H_sigma, whose column indices are W's row ranks."""

    def __init__(self, data, indices, indptr):
        indptr = np.asarray(indptr, dtype=np.intp)
        lengths = np.diff(indptr)
        rows = len(lengths)
        order = np.argsort(-lengths, kind="stable")
        self._rank = np.empty(rows, dtype=np.intp)
        self._rank[order] = np.arange(rows)
        row = np.repeat(np.arange(rows), lengths)
        starts, slot = _csr(np.arange(len(row)) - indptr[row], self._rank[row],
                            int(lengths.max(initial=0)))
        self._data = np.asarray(data, dtype=float)[slot, None]
        self._indices = np.asarray(indices, dtype=np.intp)[slot]
        self._diagonals = list(zip(np.diff(starts).tolist(), starts.tolist(), starts[1:].tolist()))
        self._chunk = max(1, CHUNK_BYTES // (8 * max(1, len(row), rows)))
        self._cols = None  # the column count of the work arrays
        self.num_rows = rows

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        """This matrix times ``x`` (cols, ...): (rows, ...).  Each row's
        products are added onto zero in CSR entry order, one diagonal at a
        time, as scipy's CSR kernel adds them: the sums are its own bit for
        bit, signed zeros included.  The columns go through the work arrays
        a chunk at a time, and each chunk's rows are copied out of them into
        the result in the caller's order."""
        x = np.asarray(x, dtype=float)
        cols = math.prod(x.shape[1:])
        flat = x.reshape(x.shape[0], cols)
        out = np.empty((self.num_rows, cols))
        step = self._chunk
        for c in range(0, cols, step):
            part = self._sorted_product(flat[:, c : c + step])
            # positional (axis, out, mode): keywords cost about a microsecond
            part.take(self._rank, 0, out[:, c : c + step], "clip")
        return out.reshape((self.num_rows,) + x.shape[1:])

    def _sorted_product(self, x: np.ndarray) -> np.ndarray:
        """The product with the 2-D ``x`` in a work array, rows sorted."""
        cols = x.shape[1]
        if cols != self._cols:
            self._prod = np.empty((len(self._indices), cols))
            self._scale = np.repeat(self._data, cols, axis=1)
            self._out = np.empty((self.num_rows, cols))
            self._pairs = [(self._out[:c], self._prod[a:b]) for c, a, b in self._diagonals]
            self._cols = cols
        x.take(self._indices, 0, self._prod, "clip")  # (axis, out, mode)
        self._prod *= self._scale
        self._out.fill(0.0)
        for acc, terms in self._pairs:
            acc += terms
        return self._out
