"""Synthesis of static observer correction gains for a node subset.

Gains drive the largest eigenvalue of the symmetric part of A_S below a
required margin, by one Polyak-stepped subgradient descent from L = 0 over
the zero-gain A_S stack of an ``ErrorSystem``.  The objective,
max_k lambda_max(sym(A_k - sum L_ij Gamma)), is a pointwise max of top
eigenvalues of matrices affine in the gains, so it is convex (Lewis and
Overton, "Eigenvalue optimization", Acta Numerica 1996): it has no local
minimum a restart from another point could escape.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Iterable, Mapping

import numpy as np

from .assembly import ErrorSystem, apply_gains, symmetric_top_eig

log = logging.getLogger("hyperobs.gain_design")

# Polyak target overshoot: each step aims at -POLYAK_OVERSHOOT * h_req
POLYAK_OVERSHOOT = 1.2
# samples the subgradient loop starts from; larger sets run an active-set loop
ACTIVE_CAP = 1024


class Infeasible(RuntimeError):
    pass


class NoMeasuredNodes(ValueError):
    pass


@dataclass
class GainSet:
    """Sparse map (i, j) -> n-by-p correction matrix; absent keys mean zero."""

    entries: dict[tuple[int, int], np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        self.entries = {
            (int(i), int(j)): np.asarray(L, dtype=float)
            for (i, j), L in self.entries.items()
        }

    def items(self):
        return self.entries.items()

    def __getitem__(self, key):
        return self.entries[key]

    def __len__(self):
        return len(self.entries)

    def merged(self, other: "GainSet") -> "GainSet":
        out = dict(self.entries)
        out.update(other.entries)
        return GainSet(out)

    def block_norm(self, nodes: Iterable[int] | None = None) -> float:
        """Spectral norm of the stacked gain matrix restricted to rows/columns
        in ``nodes`` (all nodes when omitted)."""
        keep = None if nodes is None else set(nodes)
        items = [
            ((i, j), L)
            for (i, j), L in sorted(self.entries.items())
            if keep is None or (i in keep and j in keep)
        ]
        if not items:
            return 0.0
        rows = sorted({i for (i, _), _ in items})
        cols = sorted({j for (_, j), _ in items})
        n, p = items[0][1].shape
        big = np.zeros((len(rows) * n, len(cols) * p))
        rpos = {v: k for k, v in enumerate(rows)}
        cpos = {v: k for k, v in enumerate(cols)}
        for (i, j), L in items:
            big[rpos[i] * n : rpos[i] * n + n, cpos[j] * p : cpos[j] * p + p] = L
        return float(np.linalg.norm(big, 2))

    def to_json_dict(self) -> dict:
        return {f"{i},{j}": L.tolist() for (i, j), L in sorted(self.entries.items())}

    @staticmethod
    def from_json_dict(doc: Mapping) -> "GainSet":
        entries = {}
        for key, mat in doc.items():
            i, j = key.split(",")
            entries[(int(i), int(j))] = np.asarray(mat, dtype=float)
        return GainSet(entries)


@dataclass
class ObserverDesign:
    """Measured node set with correction gains; ``exact_nodes`` are measured
    nodes reconstructed directly through an invertible output map."""

    measured: frozenset[int] = frozenset()
    gains: GainSet = field(default_factory=GainSet)
    exact_nodes: frozenset[int] = frozenset()

    def __post_init__(self):
        self.measured = frozenset(int(v) for v in self.measured)
        self.exact_nodes = frozenset(int(v) for v in self.exact_nodes)
        for (_, j) in self.gains.entries:
            if j not in self.measured:
                raise ValueError(f"gain column {j} is not a measured node")

    def to_json_dict(self) -> dict:
        return {
            "measured": sorted(self.measured),
            "exact_nodes": sorted(self.exact_nodes),
            "gains": self.gains.to_json_dict(),
        }

    @staticmethod
    def from_json_dict(doc: Mapping) -> "ObserverDesign":
        return ObserverDesign(
            frozenset(doc["measured"]),
            GainSet.from_json_dict(doc.get("gains", {})),
            frozenset(doc.get("exact_nodes", ())),
        )


class GainProblem:
    """Affine-in-gains evaluation of A_S over the sample set of an
    ``ErrorSystem``.

    Exposes the max-over-samples top symmetric eigenvalue (the design
    objective) and its subgradient pulled back to each gain block.
    """

    def __init__(self, err: ErrorSystem, measured_in_subset: Iterable[int]):
        self.err = err
        self.sub = err.subset
        self.n = err.sys.state_dim
        self.p = err.sys.output.output_dim
        self.gamma = err.sys.output.matrix
        self.measured = sorted(set(int(v) for v in measured_in_subset) & set(self.sub.nodes))
        self.keys = [(i, j) for i in self.sub.nodes for j in self.measured]

    def zero_gains(self) -> dict[tuple[int, int], np.ndarray]:
        return {k: np.zeros((self.n, self.p)) for k in self.keys}

    def a_with_gains(self, gains: Mapping[tuple[int, int], np.ndarray], idx=None) -> np.ndarray:
        """A_S with the gain blocks, on a copy of the zero-gain stack (the
        rows ``idx`` of it when given)."""
        a = self.err.a
        A = a.copy() if idx is None else np.take(a, idx, axis=0)
        return apply_gains(A, self.sub, gains, self.gamma)

    def subgradient(self, gains, idx=None) -> tuple[float, dict[tuple[int, int], np.ndarray]]:
        """phi(L) and d phi / d L_{ij} at the worst sample of the active set."""
        A = self.a_with_gains(gains, idx)
        lam = symmetric_top_eig(A)
        k = int(np.argmax(lam))
        sym = 0.5 * (A[k] + A[k].T)
        _, V = np.linalg.eigh(sym)
        u = V[:, -1]
        n = self.n
        grads = {}
        for (i, j) in self.keys:
            ui = u[self.sub.position(i) * n : self.sub.position(i) * n + n]
            uj = u[self.sub.position(j) * n : self.sub.position(j) * n + n]
            grads[(i, j)] = -np.outer(ui, self.gamma @ uj)
        return float(lam[k]), grads

    def unmeasured_floor(self) -> float:
        """Exact lower bound on the objective over all gains: correction terms
        never touch the diagonal blocks of unmeasured nodes, and eigenvalue
        interlacing bounds the full matrix by any principal block."""
        floor = -np.inf
        n = self.n
        for v in self.sub.nodes:
            if v in self.measured:
                continue
            pv = self.sub.position(v) * n
            block = self.err.a[:, pv : pv + n, pv : pv + n]
            floor = max(floor, float(symmetric_top_eig(block).max()))
        return floor


def _prune(gains: Mapping[tuple[int, int], np.ndarray]) -> GainSet:
    return GainSet({k: v for k, v in gains.items() if np.any(v)})


def _subgradient_descent(prob, gains, idx, h_req, max_iters):
    """Polyak-stepped subgradient loop on the active sample set; returns the
    iterate once it reaches -h_req there, or None."""
    overshoot = POLYAK_OVERSHOOT
    stall_window = max(100, max_iters // 10)
    best_phi, last_best_iter = np.inf, 0
    for it in range(max_iters):
        phi, grads = prob.subgradient(gains, idx)
        if phi < best_phi - 1e-12:
            best_phi, last_best_iter = phi, it
        if phi <= -h_req:
            return gains
        if it - last_best_iter > stall_window and overshoot > 1.01:
            # marginal instances: an out-of-reach Polyak target cycles, so
            # pull the target toward the requested margin
            overshoot = 1.0 + 0.5 * (overshoot - 1.0)
            last_best_iter = it
        gnorm2 = sum(float(np.sum(g * g)) for g in grads.values())
        if gnorm2 <= 1e-300:
            return None
        step = (phi + h_req * overshoot) / gnorm2
        for k in prob.keys:
            gains[k] = gains[k] - step * grads[k]
    return None


def design_gain_thm2(
    err: ErrorSystem,
    measured_in_subset: Iterable[int],
    h_req: float,
    max_iters: int = 5000,
) -> GainSet:
    """Find static gains with max-over-samples lambda_max(A_S^sym) <= -h_req
    over the sample set of ``err``.

    One subgradient descent with Polyak steps from L = 0; the objective is
    convex, so no restart from another starting point is tried.  When zero
    gains already certify, the first iteration returns them and the result is
    empty.  Large sample sets run through an active-set outer loop: solve on a
    strided subset, then fold in the worst violators until the full set
    certifies (the success test always runs on every sample; infeasibility on
    a subset implies infeasibility overall).
    """
    if h_req <= 0:
        raise ValueError("h_req must be positive")
    prob = GainProblem(err, measured_in_subset)
    if not prob.measured:
        raise NoMeasuredNodes(f"subset {prob.sub.nodes} has no measured nodes")
    floor = prob.unmeasured_floor()
    if floor > -h_req:
        raise Infeasible(
            f"subset {prob.sub.nodes}: unmeasured diagonal blocks reach "
            f"{floor:.4g}, margin {h_req} is unattainable for any gains"
        )
    K = err.a.shape[0]
    idx = list(range(0, K, max(1, K // ACTIVE_CAP)))
    gains = prob.zero_gains()
    for round_ in range(8):
        found = _subgradient_descent(prob, gains, idx, h_req, max_iters)
        if found is None:
            break
        lam = symmetric_top_eig(prob.a_with_gains(found))
        if float(lam.max()) <= -h_req:
            log.debug(
                "thm2 design for %s done (round %d, |active|=%d)",
                prob.sub.nodes, round_, len(idx),
            )
            return _prune(found)
        worst = np.argsort(lam)[-64:]
        idx = sorted(set(idx) | set(int(w) for w in worst))
        gains = found
    raise Infeasible(
        f"no feasible gain found for subset {prob.sub.nodes} at margin {h_req}"
    )
