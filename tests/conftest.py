import contextlib
import itertools
import math
import os
from dataclasses import dataclass
from typing import Callable, Mapping

import hypothesis
import numpy as np
import pytest
from hypothesis import strategies as st
from scipy.sparse import bsr_array, csc_array, csr_array
from scipy.sparse.csgraph import connected_components

from hyperobs import (
    DimensionMismatch,
    DirectedHypergraph,
    HierarchicalGenSpec,
    Hyperedge,
    NetworkSystem,
    ObserverDesign,
    SimConfig,
    VectorField,
    bistable_field,
    identity_output,
    linear_output,
    lorenz_field,
    settling_time,
    tanh_coupling,
)
from hyperobs import dynamics, sim
from hyperobs.assembly import CertificationReport, accepts, check_thm2, one_root, stack_roots
from hyperobs.designer import DesignOutcome, ProcessedSubset, select_node
from hyperobs.gain_design import POLYAK_OVERSHOOT, Infeasible, design_gain_thm2
from hyperobs.hypergraph import HypergraphError, LayerTooSmall, NodeOutOfRange

hypothesis.settings.register_profile("default", deadline=None, max_examples=50)
hypothesis.settings.load_profile("default")


# -- dense references the tests compare the package against --------------------


class MissingMeasurement(KeyError):
    pass


class SubsetIndex(tuple):
    """A subset's node tuple with the positional lookup the references read
    it by, a scan of the tuple."""

    @property
    def nodes(self) -> tuple[int, ...]:
        return tuple(self)

    @property
    def size(self) -> int:
        return len(self)

    def position(self, node: int) -> int:
        return self.index(node)


def bit_pattern(x: np.ndarray) -> bytes:
    """Raw bytes: tells -0.0 from 0.0 and one NaN from another."""
    return np.ascontiguousarray(x).tobytes()


def root_stack(sys, nodes, samples, zero_error_nodes=frozenset()):
    """The ``RootStack`` that holds the subset ``nodes`` as its one root."""
    return stack_roots(sys, [nodes], samples, frozenset(zero_error_nodes))


def root_rows(stack):
    """The (K, Mn, Mn) A_S of the one root of ``stack`` at every sample."""
    return stack.rows(slice(None))[0]


def sample_bytes(stack) -> int:
    """The bytes that one sample of ``stack`` assembles, which
    ``RootStack.chunks()`` sizes its chunks by: the rows of every root and
    three n-vectors (argument, g' and coupling terms) per entering edge."""
    edges = len(stack.entering.edges)
    return 8 * (len(stack.roots) * stack.dim**2 + 3 * stack.sys.state_dim * edges)


def hold_rows(stack, A):
    """Make ``stack`` hold the (R, K, d, d) rows ``A`` as its whole read,
    with their max|A_S| as ``a_max``, a zero coupling bound ``g``, as for
    roots no edge enters, and every sample marked read: a check then reads
    these rows at their own rounding tolerance, not at the tolerance of the
    states the stack was made from."""
    stack.a = A
    stack._a_max = np.abs(A).max(axis=(1, 2, 3))
    stack._g = np.zeros(A.shape[:2])
    stack._read[:] = True


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


@dataclass
class RunResult:
    times: np.ndarray
    per_node_error: np.ndarray  # (G+1, N)
    error_norm: np.ndarray  # (G+1,)
    settling_time: float | None
    flagged: bool


def integrate(
    sys: NetworkSystem,
    design: ObserverDesign,
    cfg: SimConfig,
    x0,
    xhat0,
    rng: np.random.Generator | None = None,
) -> RunResult:
    """Simulate one run from explicit initial conditions.

    The measurement noise is drawn from ``rng`` (default: seeded with
    ``cfg.seed``) once per grid point, as in ``monte_carlo``.
    """
    N, n = sys.num_nodes, sys.state_dim
    x0 = np.asarray(x0, dtype=float).reshape(1, N, n)
    xhat0 = np.asarray(xhat0, dtype=float).reshape(1, N, n)
    if rng is None:
        rng = np.random.default_rng(cfg.seed)
    steps = sim._cosimulate(sys, design, cfg, x0, xhat0, sys.per_node_params[None], [rng])
    errs, flags = zip(*steps)
    per_node = np.concatenate(errs)[:, 0]
    norm = np.linalg.norm(per_node, axis=-1)
    times = np.arange(cfg.num_steps + 1) * cfg.dt
    return RunResult(times, per_node, norm, settling_time(times, norm), bool(flags[-1][0]))


def reference_monte_carlo(sys: NetworkSystem, design: ObserverDesign, cfg: SimConfig,
                          n_runs: int):
    """``monte_carlo``'s (R, G+1) error norms and flagged runs, co-simulated
    one grid point at a time: every RK4 stage input and sum is formed out
    of place, the coupling and the innovations are taken per call, and the
    reconstruction, the per-node norms and the stacked norm at every grid
    point.  The draws are ``monte_carlo``'s."""
    N, n, R, G = sys.num_nodes, sys.state_dim, n_runs, cfg.num_steps
    rngs = [np.random.default_rng(s) for s in np.random.SeedSequence(cfg.seed).spawn(R)]
    x0, xhat0 = np.empty((R, N, n)), np.empty((R, N, n))
    per_params = np.tile(sys.per_node_params, (R, 1, 1))
    (lo, hi), w, spread = cfg.x0_box, cfg.observer_init_width, cfg.param_rel_spread
    for r, rng in enumerate(rngs):
        x0[r] = rng.uniform(lo, hi, (N, n))
        xhat0[r] = x0[r] * (1.0 + rng.uniform(-w, w, (N, n)))
        if spread > 0:
            per_params[r] = sys.per_node_params * (
                1.0 + rng.uniform(-spread, spread, per_params.shape[1:]))

    measured, op = sim._correction_operator(sys, design)
    exact = np.array(sorted(design.exact_nodes), dtype=np.intp)
    exact_cols = np.searchsorted(measured, exact)
    m, p = len(measured), sys.output.output_dim
    S = 1 if exact.size == N else 2
    op = op if S == 2 else None
    nominal = np.broadcast_to(sys.field.nominal_params, per_params.shape)
    y = np.ascontiguousarray(np.stack([x0, xhat0][:S]).transpose(2, 0, 1, 3))
    params = np.ascontiguousarray(np.stack([per_params, nominal][:S]).transpose(2, 0, 1, 3))
    alive, diverged = np.arange(R), np.zeros(R, dtype=bool)
    a = cfg.noise_amplitude
    noise = (sim._noise(rngs, a, m, p, G + 1) if a > 0 and m
             else itertools.repeat(np.zeros((R, m, p))))

    def rhs(ys):
        d = sys.field.eval(ys, params) + sys.coupling_term(ys)
        if op is not None:
            h = sys.output.eval(np.ascontiguousarray(ys[measured].transpose(2, 1, 0, 3)))
            innov = h[:, 0] + nu - h[:, 1]
            corr = op @ innov.reshape(len(innov), m * p).T
            d[:, 1] += corr.reshape(N, n, -1).transpose(0, 2, 1)
        return d

    def rk4(ys, dt):
        k1 = rhs(ys)
        k2 = rhs(ys + 0.5 * dt * k1)
        k3 = rhs(ys + 0.5 * dt * k2)
        k4 = rhs(ys + dt * k3)
        return ys + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)

    norms, diverged_at = np.empty((R, G + 1)), np.zeros(R, dtype=int)
    for k in range(G + 1):
        if k and alive.size:
            y = rk4(y, cfg.dt)
            ok = np.abs(y).max(axis=(0, 1, 3)) < sim.DIVERGENCE_THRESHOLD
            if not ok.all():
                diverged[alive[~ok]] = True
                y, params, alive = y[..., ok, :], params[..., ok, :], alive[ok]
        nu = next(noise)[alive]
        xhat = y[:, 1] if S == 2 else np.empty_like(y[:, 0])
        if exact.size:
            xe = np.ascontiguousarray(y[exact, 0].swapaxes(0, 1))
            xe = (sys.output.eval(xe) + nu.take(exact_cols, axis=1)) @ sys.output.inverse.T
            xhat[exact] = xe.swapaxes(0, 1)
        err = np.full((R, N), np.nan)
        err[alive] = sim._norms(y[:, 0] - xhat).T
        norms[:, k] = sim._norms(err)
        diverged_at[diverged & (diverged_at == 0)] = k
    return norms, [(int(r), int(diverged_at[r])) for r in np.flatnonzero(diverged_at)]


def reference_correction_operator(sys: NetworkSystem, design: ObserverDesign):
    """The (N n) x (m p) gain-correction map as scipy builds it: one n-by-p
    block per gain in a block-sparse array, converted to CSR; None without
    gains.  Its product adds each row's entries onto zero in entry order."""
    if not design.gains:
        return None
    measured = sorted(design.measured)
    n, p, N = sys.state_dim, sys.output.output_dim, sys.num_nodes
    pos = {j: k for k, j in enumerate(measured)}
    keys = sorted(design.gains)
    blocks_per_row = np.bincount([i for i, _ in keys], minlength=N)
    return bsr_array(
        (
            np.stack([design.gains[k] for k in keys]),
            [pos[j] for _, j in keys],
            np.concatenate([[0], np.cumsum(blocks_per_row)]),
        ),
        shape=(N * n, len(measured) * p),
    ).tocsr()


def apply_gains_by_block(A, subset, gains: Mapping, gamma: np.ndarray) -> np.ndarray:
    """Subtract L @ Gamma from block (i, j) of every A_S in the (K, Mn, Mn)
    stack ``A``, in place, for each gain L = gains[(i, j)], skipping all-zero
    blocks; returns ``A``.  A gain whose row or column lies outside the
    subset raises ValueError."""
    n = gamma.shape[1]
    for (i, j), L in gains.items():
        if i not in subset or j not in subset:
            raise ValueError(f"gain ({i},{j}) couples subset {subset.nodes} to an outside node")
        if not np.any(L):
            continue
        pi, pj = subset.position(i) * n, subset.position(j) * n
        A[:, pi : pi + n, pj : pj + n] -= np.asarray(L, float) @ gamma
    return A


def dense_gain_descent(stack, measured_in_subset, h_req: float, max_iters: int,
                       phis=None):
    """The Polyak-stepped subgradient descent of ``design_gain_thm2`` from
    L = 0 on the one-root ``stack``, on a dict of gain blocks: every
    iteration rebuilds A_S from ``root_rows`` with ``apply_gains_by_block``
    and runs ``eigvalsh`` on every sample.  Returns the nonzero gain blocks
    once ``accepts`` the max at max|A_S| + the largest |L @ Gamma|, or None;
    each iteration's max is appended to the list ``phis`` when given."""
    sub, n = SubsetIndex(one_root(stack)), stack.sys.state_dim
    gamma, a_max = stack.sys.output.matrix, stack.a_max[0]
    measured = sorted(set(int(v) for v in measured_in_subset) & set(sub.nodes))
    keys = [(i, j) for i in sub.nodes for j in measured]
    gains = {key: np.zeros((n, gamma.shape[0])) for key in keys}
    for _ in range(max_iters):
        A = apply_gains_by_block(root_rows(stack).copy(), sub, gains, gamma)
        sym = 0.5 * (A + np.swapaxes(A, 1, 2))
        lam = np.linalg.eigvalsh(sym)[:, -1]
        k = int(np.argmax(lam))
        phi = float(lam[k])
        if phis is not None:
            phis.append(phi)
        u = np.linalg.eigh(sym[k])[1][:, -1]
        block = {v: u[sub.position(v) * n : sub.position(v) * n + n] for v in sub.nodes}
        grads = {(i, j): -np.outer(block[i], gamma @ block[j]) for (i, j) in keys}
        b_max = max(float(np.abs(L @ gamma).max()) for L in gains.values())
        if accepts(phi, stack.dim, a_max + b_max, h_req):
            return {key: L for key, L in gains.items() if np.any(L)}
        gnorm2 = sum(float(np.sum(g * g)) for g in grads.values())
        if gnorm2 <= 1e-300:
            return None
        step = (phi + h_req * POLYAK_OVERSHOOT) / gnorm2
        for key in keys:
            gains[key] = gains[key] - step * grads[key]
    return None


def gain_array(prob, gains: Mapping) -> np.ndarray:
    """The gain blocks of ``gains`` as the (len(keys), n, p) array of
    ``prob``, zero where a key is absent."""
    zero = np.zeros((prob.n, prob.p))
    return np.array([gains.get(key, zero) for key in prob.keys], dtype=float)


def reference_certify_zero_gain(stack, options):
    """The zero-gain certification ``designer.certify_pass`` makes of the one
    root of ``stack``, with no refutation: the zero-gain Theorem-2 check
    always runs."""
    report = check_thm2(stack, options.margin)
    return report if report.passed else None


def reference_certify(sys, subset_nodes, measured, ensemble, options, zero_error_nodes=()):
    """One certification attempt of the design loop, every route on a fresh
    one-root stack: zero-gain Theorem 2, then gain synthesis on the measured
    nodes of the subset.  Returns (report, gains) of the first route that
    passes, or None."""
    nodes = sorted(set(int(v) for v in subset_nodes))
    measured_in = sorted(frozenset(int(v) for v in measured) & set(nodes))
    stack = root_stack(sys, nodes, ensemble.stacked(), frozenset(zero_error_nodes))
    rep0 = check_thm2(stack, options.margin)
    if rep0.passed:
        return rep0, {}
    if measured_in:
        try:
            gains = design_gain_thm2(stack, measured_in, options.margin)
            rep = check_thm2(stack, options.margin, gains)
            if rep.passed:
                return rep, gains
        except Infeasible:
            pass
    return None


def reference_design_observer(sys, ensemble, options) -> DesignOutcome:
    """The design loop with every route retried on every attempt: each root
    subset is passed to ``reference_certify`` again after each node it
    measures."""
    H = sys.hypergraph
    N = H.num_nodes
    deps = to_dependency_graph(H)
    shortcut = (
        sys.output.invertible
        if options.use_inverse_shortcut is None
        else options.use_inverse_shortcut
    )
    observed, measured, exact = set(), set(), set()
    gains = {}
    processed = []
    iteration = 0

    def outcome(status, failed=None):
        design = ObserverDesign(frozenset(measured), gains, frozenset(exact))
        return DesignOutcome(design, processed, status, failed)

    while len(observed) < N:
        iteration += 1
        for S in reference_condense(deps, sorted(set(range(N)) - observed)):
            added = []
            while True:
                res = reference_certify(sys, S, measured, ensemble, options, exact)
                if res is not None:
                    report, new_gains = res
                    gains = {**gains, **new_gains}
                    observed.update(S)
                    processed.append(ProcessedSubset(S, report, tuple(added), iteration))
                    break
                if set(S) <= measured:
                    none = CertificationReport("none", -math.inf, 0)
                    processed.append(ProcessedSubset(S, none, tuple(added), iteration))
                    return outcome("failed", S)
                j = select_node(H.entering(S), measured)
                measured.add(j)
                if shortcut:
                    exact.add(j)
                    observed.add(j)
                    exact_report = CertificationReport("exact", math.inf, 0)
                    processed.append(ProcessedSubset((j,), exact_report, (j,), iteration))
                    break
                added.append(j)
    return outcome("complete")


# -- csgraph references for the dependency pattern and its root components ------


def to_dependency_graph(h: DirectedHypergraph) -> csr_array:
    """The N x N dependency pattern as a sparse matrix: an arc j -> i (entry
    [j, i]) iff j is a member, tail or other head, of an edge whose head is
    i, j != i.  It is the product of the transposed member incidence and the
    head incidence, diagonal dropped."""
    N, E = h.num_nodes, len(h.edges)
    # column k of the member incidence lists edge k's members; column i of
    # the head incidence lists the edges node i heads
    members_t = csc_array((np.ones(len(h.members)), h.members, h.member_ptr), shape=(N, E))
    heads = csc_array((np.ones(len(h.head_edges)), h.head_edges, h.head_ptr), shape=(E, N))
    product = (members_t @ heads).tocoo()
    off_diagonal = product.row != product.col
    rows, cols = product.row[off_diagonal], product.col[off_diagonal]
    return csr_array((np.ones(len(rows), dtype=bool), (rows, cols)), shape=(N, N))


def reference_condense(pattern, on=None) -> list[tuple[int, ...]]:
    """Root strongly connected components of the subgraph of the square sparse
    ``pattern`` (nonzero [i, j] is an arc i -> j) induced by the nodes ``on``,
    with the components from ``scipy.sparse.csgraph.connected_components``;
    roots as ascending tuples in order of their smallest member."""
    N = pattern.shape[0]
    nodes = np.arange(N) if on is None else np.unique(np.fromiter(on, dtype=np.intp))
    outside = nodes[(nodes < 0) | (nodes >= N)]
    if outside.size:
        raise NodeOutOfRange(f"node {outside[0]} outside [0, {N})")
    inside = np.zeros(N, dtype=bool)
    inside[nodes] = True
    src, dst = pattern.nonzero()
    keep = inside[src] & inside[dst]
    src, dst = src[keep], dst[keep]
    adjacency = csr_array((np.ones(len(src)), (src, dst)), shape=(N, N))
    count, label = connected_components(adjacency, connection="strong")
    entered = np.zeros(count, dtype=bool)
    entered[label[dst][label[src] != label[dst]]] = True
    root_nodes = nodes[~entered[label[nodes]]]
    roots: dict[int, list[int]] = {}
    for v, c in zip(root_nodes.tolist(), label[root_nodes].tolist()):
        roots.setdefault(c, []).append(v)
    return [tuple(members) for members in roots.values()]


# -- per-edge scans the incidence slice and its consumers are checked against ------


def members_of(h, k):
    """Edge k's members ascending, their weights (+alpha for a tail, -beta
    for a head) and head flags, read from ``h.edges``."""
    e = h.edges[k]
    weight = dict(zip(e.tails, e.alpha)) | {q: -b for q, b in zip(e.heads, e.beta)}
    nodes = sorted(weight)
    return nodes, [weight[v] for v in nodes], [v in e.heads for v in nodes]


def incoming(h, i):
    """Edges having node i as a head, ascending."""
    return [k for k, e in enumerate(h.edges) if i in e.heads]


def outgoing(h, i):
    """Edges having node i as a tail, ascending."""
    return [k for k, e in enumerate(h.edges) if i in e.tails]


def incoming_closure(h, nodes):
    """Edges with at least one head inside ``nodes``, ascending."""
    S = set(nodes)
    return [k for k, e in enumerate(h.edges) if S & set(e.heads)]


def restrict(h, nodes):
    """Edges whose tails and heads all lie inside ``nodes``, ascending."""
    S = set(nodes)
    return [k for k, e in enumerate(h.edges) if set(e.tails) | set(e.heads) <= S]


def boundary(h, nodes):
    """Edges entering ``nodes`` that are not fully contained in it."""
    inside = set(restrict(h, nodes))
    return [k for k in incoming_closure(h, nodes) if k not in inside]


def tails_of(h, edges):
    """Union of the tail sets of the given edges, ascending."""
    return sorted({t for k in edges for t in h.edges[k].tails})


def degrees(h, i, within=None):
    """(in-degree, out-degree) of node i, optionally over an edge set only."""
    keep = set(range(len(h.edges)) if within is None else within)
    return sum(k in keep for k in incoming(h, i)), sum(k in keep for k in outgoing(h, i))


def head_closed(h, nodes, ignoring=()):
    """Every edge with a head in ``nodes`` has its heads in ``nodes`` or in
    ``ignoring``."""
    ok = set(nodes) | set(ignoring)
    return all(set(h.edges[k].heads) <= ok for k in incoming_closure(h, nodes))


def upstream_tails(h, nodes):
    """Tails outside ``nodes`` of the edges entering it."""
    return set(tails_of(h, boundary(h, nodes))) - set(nodes)


def reference_select_node(subset, h, already_measured):
    """The degree heuristic on per-node degree scans: largest out-degree over
    the subset-internal edges, then largest in-degree, then smallest id."""
    S = sorted(set(subset))
    within = restrict(h, S)
    candidates = [v for v in S if v not in set(already_measured)]
    degs = {v: degrees(h, v, within) for v in candidates}
    return max(candidates, key=lambda v: (degs[v][1], degs[v][0], -v))


def reference_a_matrix_batch(sys, subset, X, dg):
    """Zero-gain A_S over the (K, N, n) states ``X`` by a scan of the edges
    entering the subset, with ``dg`` the coupling derivative on those edges
    in ascending order: each edge adds its (head, member) terms in member
    order."""
    n, M, K = sys.state_dim, subset.size, X.shape[0]
    A = np.zeros((K, M, n, M, n))
    Jf = sys.field.jac_x(X[:, list(subset.nodes)], sys.field.nominal_params)
    for i in range(M):
        A[:, i, :, i, :] += Jf[:, i]
    diag = np.arange(n)
    for ek, k in enumerate(incoming_closure(sys.hypergraph, subset.nodes)):
        d = sys.hypergraph.edge_sigma[k] * dg[ek]
        inside = [
            (subset.position(v), w, head)
            for v, w, head in zip(*members_of(sys.hypergraph, k))
            if v in subset
        ]
        for i, _, head in inside:
            if head:
                for j, w, _ in inside:
                    A[:, i, diag, j, diag] += w * d
    return A.reshape(K, M * n, M * n)


def reference_outside_term(h, subset_nodes, upstream_bounds, g_bound):
    """Theorem 3's outside term by a scan per head: for every head s in S
    ascending and every edge entering s ascending, g * sigma * the sum of
    the bounds of the edge's tails outside S."""
    S = set(subset_nodes)
    outside_term = 0.0
    for s in sorted(S):
        for k in incoming(h, s):
            nodes, _, is_head = members_of(h, k)
            tot = 0.0
            for t, head in zip(nodes, is_head):
                if not head and t not in S:
                    tot += float(upstream_bounds[t])
            outside_term += g_bound * float(h.edge_sigma[k]) * tot
    return outside_term


# -- random systems and hypergraphs ----------------------------------------------


def planar_spiral_field(mu1=1.0, mu2=0.3):
    """2-D test field: damped rotation with a cubic term, analytic Jacobians."""

    def f(x, mu):
        a, b = mu[..., 0], mu[..., 1]
        x1, x2 = x[..., 0], x[..., 1]
        return np.stack(
            [-a * x1 + x2 + b * x1 * x2, -x1 - a * x2 - b * x2**3], axis=-1
        )

    def jx(x, mu):
        a, b = mu[..., 0], mu[..., 1]
        x1, x2 = x[..., 0], x[..., 1]
        shape = np.broadcast_shapes(x1.shape, np.shape(a))
        J = np.zeros(shape + (2, 2))
        J[..., 0, 0] = -a + b * x2
        J[..., 0, 1] = 1.0 + b * x1
        J[..., 1, 0] = -1.0
        J[..., 1, 1] = -a - 3.0 * b * x2**2
        return J

    return vector_field_from_callable(f, 2, np.array([mu1, mu2]), jac_x=jx)


def random_system(rng, h, field_kind=None, output_kind="identity"):
    """NetworkSystem over hypergraph ``h`` with a randomly chosen node field."""
    kind = field_kind or rng.choice(["lorenz", "bistable", "planar"])
    if kind == "lorenz":
        field = lorenz_field()
    elif kind == "bistable":
        field = bistable_field()
    else:
        field = planar_spiral_field()
    n = field.state_dim
    coupling = tanh_coupling(0.2, 0.05, 2.0)
    if output_kind == "identity" or n == 1:
        output = identity_output(n)
    else:
        output = linear_output(np.eye(n)[: n - 1])
    return NetworkSystem(h, field, coupling, output)


def random_hypergraph(
    rng, max_nodes=8, max_edges=6, min_nodes=2, sigma_range=(0.5, 2.0), zero_prob=0.0
):
    """Seeded random hypergraph with uniform or random convex weights; each
    random weight is zero with probability ``zero_prob``, keeping one nonzero
    weight per side."""
    N = int(rng.integers(min_nodes, max_nodes + 1))
    E = int(rng.integers(0, max_edges + 1))
    edges = []
    for _ in range(E):
        nt = int(rng.integers(1, min(3, N - 1) + 1))
        nh = int(rng.integers(1, min(3, N - nt) + 1))
        nodes = rng.choice(N, size=nt + nh, replace=False)
        tails, heads = nodes[:nt], nodes[nt:]
        sigma = float(rng.uniform(*sigma_range))
        if rng.random() < 0.5:
            edges.append(Hyperedge.uniform(tails, heads, sigma))
        else:
            a = rng.uniform(0.1, 1.0, nt)
            b = rng.uniform(0.1, 1.0, nh)
            if zero_prob:
                a, b = (_zero_some(rng, w, zero_prob) for w in (a, b))
            edges.append(
                Hyperedge(tuple(tails), tuple(heads), tuple(a / a.sum()), tuple(b / b.sum()), sigma)
            )
    return DirectedHypergraph(N, tuple(edges))


def reference_edges(num_nodes, edge_docs) -> tuple[Hyperedge, ...]:
    """The edges of a network document, one ``Hyperedge`` at a time, checked
    as the per-edge hypergraph did: every edge, then the node count, then
    every node's range, edge by edge, tails before heads."""
    edges = tuple(Hyperedge(**doc) for doc in edge_docs)
    if int(num_nodes) < 0:
        raise HypergraphError("num_nodes must be nonnegative")
    for e in edges:
        for v in (*e.tails, *e.heads):
            if not 0 <= v < int(num_nodes):
                raise NodeOutOfRange(f"node {v} outside [0, {int(num_nodes)})")
    return edges


def _fisher_yates_take(rng: np.random.Generator, pool, k: int) -> list[int]:
    # partial Fisher-Yates shuffle, one draw per step
    arr = list(pool)
    if k > len(arr):
        raise LayerTooSmall(f"cannot sample {k} distinct nodes from {len(arr)}")
    for idx in range(k):
        j = idx + int(rng.integers(0, len(arr) - idx))
        arr[idx], arr[j] = arr[j], arr[idx]
    return arr[:k]


def reference_generate_hierarchical(spec: HierarchicalGenSpec) -> DirectedHypergraph:
    """``generate_hierarchical`` one draw and one ``Hyperedge`` at a time."""
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    layers, c, edges = spec.layers(), spec.cardinality, []
    groups = [(layer, layer, spec.src_intra[i], spec.snk_intra[i])
              for i, layer in enumerate(layers)]
    groups += [(layers[i], layers[i + 1], spec.src_inter[i], spec.snk_inter[i])
               for i in range(len(layers) - 1)]
    for tail_pool, head_pool, sources, sinks in groups:
        for num_tails in [1] * sources + [c - 1] * sinks:
            if tail_pool is head_pool:
                picks = _fisher_yates_take(rng, tail_pool, c)
                tails, heads = picks[:num_tails], picks[num_tails:]
            else:
                tails = _fisher_yates_take(rng, tail_pool, num_tails)
                heads = _fisher_yates_take(rng, head_pool, c - num_tails)
            edges.append(Hyperedge.uniform(tails, heads, spec.sigma))
    return DirectedHypergraph(spec.num_nodes, tuple(edges))


@st.composite
def gen_specs(draw, max_layer=9):
    """Generator specs of 1 to 3 layers, cardinality 2 to 4, some layers of
    c - 1 nodes, which intra edges cannot sample."""
    c = draw(st.integers(2, 4))
    ell = draw(st.integers(1, 3))
    counts = st.lists(st.integers(0, 3), min_size=ell, max_size=ell)
    inter = st.lists(st.integers(0, 3), min_size=ell - 1, max_size=ell - 1)
    return HierarchicalGenSpec(
        tuple(draw(st.lists(st.integers(c - 1, max_layer), min_size=ell, max_size=ell))), c,
        tuple(draw(counts)), tuple(draw(counts)), tuple(draw(inter)), tuple(draw(inter)),
        seed=draw(st.integers(0, 2**64 - 1)), sigma=draw(st.floats(0.01, 100.0)),
    )


def _zero_some(rng, w, prob):
    w = np.where(rng.random(w.size) < prob, 0.0, w)
    if not w.any():
        w[rng.integers(w.size)] = 1.0
    return w


@st.composite
def hypergraphs(draw, max_nodes=8, max_edges=6):
    """Random hypergraphs, some of whose edges carry zero alpha or beta entries."""
    seed = draw(st.integers(0, 2**32 - 1))
    return random_hypergraph(np.random.default_rng(seed), max_nodes, max_edges, zero_prob=0.3)


def reachability_closure(num_nodes, arcs):
    """Boolean all-pairs reachability (Floyd-Warshall) over plain arcs."""
    R = np.eye(num_nodes, dtype=bool)
    for (i, j) in arcs:
        R[i, j] = True
    for k in range(num_nodes):
        R |= R[:, k][:, None] & R[k, :][None, :]
    return R


def brute_force_sccs(num_nodes, arcs, subset):
    """SCC partition of the induced subgraph via pairwise reachability."""
    subset = sorted(subset)
    idx = {v: k for k, v in enumerate(subset)}
    local = [(idx[i], idx[j]) for (i, j) in arcs if i in idx and j in idx]
    R = reachability_closure(len(subset), local)
    seen, comps = set(), []
    for a, v in enumerate(subset):
        if v in seen:
            continue
        comp = [subset[b] for b in range(len(subset)) if R[a, b] and R[b, a]]
        seen.update(comp)
        comps.append(tuple(sorted(comp)))
    return sorted(comps)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture(scope="session")
def chunk_budget():
    """``with chunk_budget(nbytes):`` runs its block with the byte budget
    ``dynamics.CHUNK_BYTES`` at ``nbytes``: every module reads that one name
    at call time.  A context, not a patch for the whole test, so hypothesis
    tests can set a budget per example."""

    @contextlib.contextmanager
    def budget(nbytes: int):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(dynamics, "CHUNK_BYTES", nbytes)
            yield

    return budget


@pytest.fixture
def usable_cpus(monkeypatch):
    """``usable_cpus(count)`` makes a design see ``count`` usable CPUs for the
    rest of the test: with one it synthesizes every root in process, with
    two it forks a pool wherever two roots synthesize."""

    def pin(count: int):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)),
                            raising=False)

    return pin
