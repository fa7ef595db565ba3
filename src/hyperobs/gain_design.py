"""Synthesis of static observer correction gains for a node subset.

Gains drive the largest eigenvalue of the symmetric part of A_S below a
required margin, by one Polyak-stepped subgradient descent from L = 0 over
every sample of the zero-gain A_S of the one root of a ``RootStack``, held
whole by ``GainProblem``: as a view of the stack's own rows when it holds
them, else assembled one ``RootStack.chunks()`` range at a time, so the
rows are whole, their assembly's temporaries are not.
The objective, max_k lambda_max(sym(A_k - B(L))), is a pointwise max of top
eigenvalues of matrices affine in the gains, so it is convex (Lewis and
Overton, "Eigenvalue optimization", Acta Numerica 1996): no restart could
escape a local minimum.  Its infimum over all gains is the gain-free bound c (``assembly.gain_free_bound``), the top eigenvalue
over every direction no gain reaches, so a margin h is attainable exactly
when c < -h.  The descent runs only where c itself passes ``accepts``, as
a plain Polyak loop at ``POLYAK_OVERSHOOT``: every ``Infeasible`` but the
iteration budget's is proven before its first step, a c inside the
rounding band around -h included.

Each iteration runs ``eigvalsh`` only on the samples a batched Cholesky
screen cannot rule out, so its max and first argmax are bit for bit those
over every sample.  The screen is left-looking; Higham's Theorem 10.3 holds
for any order of the inner products, so its bound is the right-looking
form's.  It reads every sample: on ``lorenz12-partial`` the median gap
phi - lambda_k is about 1.0 (1 % quantile 0.07), and one Polyak step moves
the top eigenvalues by up to lambda_max(-sym dB), about 5.0 at the median,
so a skip by Weyl's bound would still evaluate 1010 of 1020 samples on
average.

The gains are one array L (layout in ``GainProblem``), placed as the blocks
L @ Gamma of one matrix B; A_S(L) is ``a[idx] - B``, elementwise the
per-block form A[block] -= L @ Gamma.  The squared gradient norm adds the
per-block sums in key order, and Gamma u_j is one matvec per measured node,
so the iterates are the per-block form's bit for bit.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .assembly import (SEED_COUNT, RootStack, accepts, gain_free_bound, gain_matrix, one_root,
                       refutes, rounding_tol, symmetric_top_eig)

log = logging.getLogger("hyperobs.gain_design")

# Polyak target overshoot: each step aims at -POLYAK_OVERSHOOT * h_req
POLYAK_OVERSHOOT = 1.2
# iterations of one synthesis before it gives up with Infeasible
MAX_ITERS = 5000


class Infeasible(RuntimeError):
    pass


class NoMeasuredNodes(ValueError):
    pass


@dataclass
class ObserverDesign:
    """Measured node set with correction gains: a sparse map (i, j) -> n-by-p
    matrix, absent keys meaning zero.  ``exact_nodes`` are measured nodes
    reconstructed directly through an invertible output map."""

    measured: frozenset[int] = frozenset()
    gains: dict[tuple[int, int], np.ndarray] = field(default_factory=dict)
    exact_nodes: frozenset[int] = frozenset()

    def __post_init__(self):
        self.measured = frozenset(int(v) for v in self.measured)
        self.exact_nodes = frozenset(int(v) for v in self.exact_nodes)
        self.gains = {
            (int(i), int(j)): np.asarray(L, dtype=float) for (i, j), L in self.gains.items()
        }
        for (_, j) in self.gains:
            if j not in self.measured:
                raise ValueError(f"gain column {j} is not a measured node")
        if not self.exact_nodes <= self.measured:
            raise ValueError(f"exact nodes {sorted(self.exact_nodes - self.measured)} unmeasured")


class GainProblem:
    """Affine-in-gains evaluation of A_S over the sample set of the one root
    of ``stack``.  The gains are one (len(keys), n, p) array L, block k the
    n-by-p gain of keys[k] = (i, j): i runs over the subset's nodes in subset
    order and, for each i, j over ``measured``, the subset's measured nodes
    in increasing order.  ``subgradient`` gives the objective, the max
    over samples of the top symmetric eigenvalue, and its subgradient in the
    layout of L; it places L @ Gamma in B as ``assembly.gain_matrix`` does,
    on the layout that function made and checked at construction."""

    def __init__(self, stack: RootStack, measured: Sequence[int]):
        self.nodes, self.position = one_root(stack), stack.entering.position
        self.n = n = stack.sys.state_dim
        self.p = stack.sys.output.output_dim
        self.gamma = stack.sys.output.matrix
        self.keys = [(i, j) for i in self.nodes for j in measured]
        self._measured_at = self.position[list(measured)].tolist()
        # B of the numbers 1, 2, ... as L @ Gamma, Gamma = I: entry q of the
        # products goes where the q-th number went
        q = len(self.keys) * n * n
        num = gain_matrix(self.position, self.keys, np.arange(1.0, q + 1).reshape(-1, n, n),
                          np.eye(n))
        self._at = np.argsort(num, axis=None)[num.size - q :]
        # the whole root: the held rows of a stack of one chunk, else
        # assembled one RootStack.chunks() range at a time; sym(A_k^0) with
        # the samples on the last axis, for the Cholesky screen
        if stack.a is not None:
            self.a = a = stack.a[0]
        else:
            self.a = a = np.empty((stack.num_samples, stack.dim, stack.dim))
            for chunk in stack.chunks():
                a[chunk] = stack.rows(chunk)[0]
        self.s0 = np.add(a.transpose(1, 2, 0), a.transpose(2, 1, 0),
                         out=np.empty(a.shape[1:] + a.shape[:1]))
        self.s0 *= 0.5
        # the screen's work array, afterwards the rows that reach eigvalsh
        self._work = np.empty_like(self.s0)
        # the screen's rounding scale; non-finite samples fail it on their own
        mag = np.maximum(self.s0.max(axis=(0, 1)), -self.s0.min(axis=(0, 1)))
        self.s0_max = float(mag[np.isfinite(mag)].max(initial=0.0))
        # samples evaluated exactly before each screen: the top-ranked of the last call
        self.top = np.arange(min(SEED_COUNT, a.shape[0]))
        self.evaluated = 0  # samples through eigvalsh, over all calls
        self.b_max = 0.0  # max|B| at the last subgradient

    def rows(self, B: np.ndarray, idx, out=None) -> np.ndarray:
        """The rows ``idx`` of the A_S(L) stack, a - B, in ``out`` when
        given."""
        A = np.take(self.a, idx, axis=0, out=out, mode="clip")
        A -= B
        return A

    def screen(self, B: np.ndarray, best: float) -> np.ndarray:
        """Mask of the samples whose lambda_max(sym A_k(L)) may reach ``best``.
        The rest factor mu*I - sym(A_k(L)) = sym(B) - sym(A_k^0) + mu*I by
        Cholesky at mu = best - tol, which proves
        lambda_max < mu + 4 d^3 u max|S| (Higham, "Accuracy and Stability",
        ch. 10); tol covers that and the rounding of ``eigvalsh`` for
        d < 10^5.  Finite positive pivots need finite entries and a finite
        ``best``, so non-finite values always reach ``eigvalsh``."""
        d, M = self.s0.shape[1], self._work
        sb = 0.5 * (B + B.T)
        tol = rounding_tol(d, self.s0_max + float(np.abs(sb).max()))
        with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
            # left-looking on the lower triangle: column j, less its rows'
            # products with row j of the factor so far; pivots on the diagonal
            for j in range(d):
                col = np.subtract(sb[j:, j, None], self.s0[j:, j], out=M[j:, j])
                col[0] += best - tol
                if j:
                    col -= np.einsum("rck,ck->rk", M[j:, :j], M[j, :j])
                col[1:] /= np.sqrt(col[0])
            piv = M[np.arange(d), np.arange(d)]
            return ~((piv > 0) & (piv < np.inf)).all(axis=0)

    def worst_sample(self, B: np.ndarray) -> tuple[int, float]:
        """First argmax k and max over every sample of lambda_max(sym A_k(L)),
        bit for bit those of ``symmetric_top_eig(a - B)``."""
        lam = symmetric_top_eig(self.rows(B, self.top))
        keep = self.screen(B, float(lam.max()))
        keep[self.top] = False
        rest = np.flatnonzero(keep)
        # the screen is done with its work array, which holds every sample
        out = self._work.reshape(-1)[: rest.size * B.size].reshape(-1, *B.shape)
        idx = np.concatenate((self.top, rest))
        lam = np.concatenate((lam, symmetric_top_eig(self.rows(B, rest, out))))
        self.evaluated += len(idx)
        # the next seeds: every other sample lies below the evaluated ones
        self.top = idx[np.argsort(lam)[-SEED_COUNT:]]
        phi = lam.max()
        return int(idx[lam == phi].min()), float(phi)

    def subgradient(self, L: np.ndarray) -> tuple[float, np.ndarray]:
        """phi(L) and d phi / d L, in the layout of ``L``, at the first worst
        sample: block (i, j) is -u_i (Gamma u_j)^T for the top eigenvector u
        of sym(A_k(L)), u_i its slice at node i."""
        B = np.zeros(self.s0.shape[:2])
        B.reshape(-1)[self._at] = (L @ self.gamma).ravel()
        self.b_max = float(np.abs(B).max())
        k, phi = self.worst_sample(B)
        A = self.a[k] - B
        _, V = np.linalg.eigh(0.5 * (A + A.T))
        u = V[:, -1].reshape(len(self.nodes), self.n)
        # one matvec per measured node, as Gamma @ u_j
        gu = np.array([self.gamma @ u[at] for at in self._measured_at])
        grads = -(u[:, None, :, None] * gu[None, :, None, :])
        return phi, grads.reshape(len(self.keys), self.n, self.p)


def design_gain_thm2(
    stack: RootStack,
    measured_in_subset: Iterable[int],
    h_req: float,
) -> dict[tuple[int, int], np.ndarray]:
    """Find static gains that pass the Theorem-2 check at margin ``h_req``
    over the sample set of the one root of ``stack``, within ``MAX_ITERS``
    iterations; ValueError for a stack of several roots.

    ``Infeasible`` is proven before any Polyak step when the directions no
    gain reaches refute the margin, and when A_S is not finite at some
    sample, as no gain makes it so.  The unmeasured nodes' floors come
    first, at the largest floor bound over the root's nodes, at least
    max|A_S|, as ``designer.thm2_refuted`` takes them: they cost no read of
    the rows.  A non-finite sample makes that bound infinite, so the floors
    never refute such a root.  A call they leave standing reads max|A_S|,
    whose chunks give the finite check, and then the max c over every
    direction no gain reaches, ``assembly.gain_free_bound``, which refutes
    wherever c itself fails ``accepts`` at max|A_S|: c > -h -
    ``rounding_tol(d, max|A_S|)``, the rounding band around -h included,
    where gains may approach the margin but none passes it.

    Rounding does not flip that verdict.  Gains B leave U^T sym(A_k - B) U
    = U^T sym(A_k) U, U the directions no gain reaches, so a check's exact
    worst value is at least the exact c, and the check passes only at or
    below -h - ``rounding_tol(d, max|A_S| + max|B|)``, 1e-10 d^2 max|B|
    under c's threshold.  ``eigvalsh`` rounds c and the check's value by
    about d u magnitude each, u = 2^-53, so a check could pass where c
    refutes only with max|B| under about 1e-5 max|A_S| / d, a worst value
    equal to c to its last bits (a top eigenvector in the directions no
    gain reaches) and c within rounding of its threshold.

    Else one subgradient descent with Polyak steps from L = 0, on the rows
    that ``GainProblem`` holds, stops at the first max over all samples that
    ``assembly.accepts`` at max|A_S| + max|B|, as ``check_thm2`` does; when
    zero gains pass, the result is empty.  When the budget runs out, it
    names the iterations made and the gain-free bound, which left the
    margin open.
    """
    if h_req <= 0:
        raise ValueError("h_req must be positive")
    nodes = one_root(stack)
    measured = sorted(set(int(v) for v in measured_in_subset) & set(nodes))
    if not measured:
        raise NoMeasuredNodes(f"subset {nodes} has no measured nodes")
    # the floors refute at their bound on max|A_S|, before any read of the rows
    floor, a_max = stack.floors[0], stack.floors[1][list(nodes)].max()
    bound = floor[[v for v in nodes if v not in measured]].max(initial=-np.inf)
    refuted = refutes(bound, stack.dim, a_max, h_req)
    if not refuted:
        a_max = stack.a_max[0]
        if not np.isfinite(a_max):
            raise Infeasible(f"subset {nodes}: A_S is not finite at some sample, "
                             "no gains make it so")
        bound = gain_free_bound(stack, measured)
        refuted = not accepts(bound, stack.dim, a_max, h_req)
    if refuted:
        raise Infeasible(f"subset {nodes}: a direction no gain reaches holds {bound:.4g}, "
                         f"margin {h_req} is unattainable for any gains")
    prob = GainProblem(stack, measured)
    L = np.zeros((len(prob.keys), prob.n, prob.p))
    for it in range(MAX_ITERS):
        phi, grads = prob.subgradient(L)
        if accepts(phi, stack.dim, a_max + prob.b_max, h_req):
            log.debug(
                "thm2 design for %s done: %d iterations, %.1f of %d samples per iteration",
                prob.nodes, it + 1, prob.evaluated / (it + 1), stack.num_samples,
            )
            return {k: g for k, g in zip(prob.keys, L) if np.any(g)}
        # the per-block sums added one by one in key order: one np.sum over
        # all blocks would sum pairwise and round differently
        gnorm2 = sum(np.sum(grads * grads, axis=(1, 2)).tolist())
        if gnorm2 <= 1e-300:
            break
        L = L - (phi + h_req * POLYAK_OVERSHOOT) / gnorm2 * grads
    raise Infeasible(
        f"no feasible gain found for subset {nodes} at margin {h_req} after {it + 1} "
        f"iterations, though the gain-free bound {bound:.6g} leaves it open"
    )
