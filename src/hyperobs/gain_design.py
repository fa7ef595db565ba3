"""Synthesis of static observer correction gains for a node subset.

The preferred route drives the largest eigenvalue of the symmetric part of
A_S below a required margin by Polyak-stepped subgradient descent (the
objective is a pointwise max of top eigenvalues of matrices affine in the
gains).  The fallback route places the spectrum of A_S at a target template
with a derivative-free search.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from .assembly import (
    EmptySampleSet,
    ErrorSystem,
    SubsetIndex,
    spectral_abscissa,
    symmetric_top_eig,
)
from .dynamics import NetworkSystem

log = logging.getLogger("hyperobs.gain_design")

RATE_FLOOR = 0.1


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

    def __contains__(self, key):
        return key in self.entries

    def __len__(self):
        return len(self.entries)

    def get(self, key, default=None):
        return self.entries.get(key, default)

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


def estimate_network_rate(jacobians) -> float:
    """Worst spectral abscissa of the node Jacobians, floored at 0.1."""
    J = np.asarray(jacobians, dtype=float)
    if J.size == 0:
        raise EmptySampleSet("need at least one Jacobian sample")
    J = J.reshape(-1, J.shape[-2], J.shape[-1])
    return max(RATE_FLOOR, float(spectral_abscissa(J).max()))


def default_spectrum_template(rate: float, dim: int, rho: float = 10.0) -> np.ndarray:
    """Real spectrum template with dominant eigenvalue -rho*rate."""
    base = rho * max(rate, RATE_FLOOR)
    return -base * (1.0 + np.arange(dim) / (2.0 * dim))


class GainProblem:
    """Affine-in-gains evaluation of A_S over a frozen sample set.

    Exposes the max-over-samples top symmetric eigenvalue (the design
    objective) and its subgradient pulled back to each gain block.
    """

    def __init__(
        self,
        sys: NetworkSystem,
        subset: SubsetIndex | Sequence[int],
        measured_in_subset: Iterable[int],
        samples,
        zero_error_nodes: Iterable[int] = (),
    ):
        self.sub = subset if isinstance(subset, SubsetIndex) else SubsetIndex(tuple(subset))
        self.sys = sys
        self.n = sys.state_dim
        self.p = sys.output.output_dim
        self.measured = sorted(set(int(v) for v in measured_in_subset) & set(self.sub.nodes))
        base_err = ErrorSystem(sys, None, self.sub, frozenset(zero_error_nodes))
        X = base_err._states(samples)
        if X.shape[0] == 0:
            raise EmptySampleSet("need at least one sample")
        self.num_samples = X.shape[0]
        self.a_base = base_err.a_matrix_batch(X)
        self.network_rate = estimate_network_rate(
            sys.field.jac_x(X[:, list(self.sub.nodes)], sys.field.nominal_params)
        )
        # output Jacobian stacks per measured node (constant for linear maps)
        self.dh: dict[int, np.ndarray] = {}
        for j in self.measured:
            Dh = sys.output.jac(X[:, j])
            if sys.output.matrix is not None:
                Dh = Dh[:1]
            self.dh[j] = Dh
        self.keys = [(i, j) for i in self.sub.nodes for j in self.measured]

    def zero_gains(self) -> dict[tuple[int, int], np.ndarray]:
        return {k: np.zeros((self.n, self.p)) for k in self.keys}

    def _dh_at(self, j: int, sample: int) -> np.ndarray:
        stack = self.dh[j]
        return stack[min(sample, stack.shape[0] - 1)]

    def a_with_gains(self, gains: Mapping[tuple[int, int], np.ndarray], idx=None) -> np.ndarray:
        A = self.a_base if idx is None else self.a_base[idx]
        A = A.copy()
        n = self.n
        for (i, j), L in gains.items():
            if not np.any(L):
                continue
            pi, pj = self.sub.position(i) * n, self.sub.position(j) * n
            dh = self.dh[j]
            if idx is not None and dh.shape[0] > 1:
                dh = dh[idx]
            term = np.einsum("ab,kbc->kac", np.asarray(L, float), dh)
            A[:, pi : pi + n, pj : pj + n] -= term
        return A

    def objective(self, gains, idx=None) -> tuple[float, int]:
        """(max top symmetric eigenvalue, absolute index of the worst sample)."""
        lam = symmetric_top_eig(self.a_with_gains(gains, idx))
        k = int(np.argmax(lam))
        return float(lam[k]), (k if idx is None else int(np.asarray(idx)[k]))

    def subgradient(self, gains, idx=None) -> tuple[float, dict[tuple[int, int], np.ndarray]]:
        """phi(L) and d phi / d L_{ij} at the worst sample of the active set."""
        A = self.a_with_gains(gains, idx)
        lam = symmetric_top_eig(A)
        k = int(np.argmax(lam))
        abs_k = k if idx is None else int(np.asarray(idx)[k])
        sym = 0.5 * (A[k] + A[k].T)
        _, V = np.linalg.eigh(sym)
        u = V[:, -1]
        n = self.n
        grads = {}
        for (i, j) in self.keys:
            ui = u[self.sub.position(i) * n : self.sub.position(i) * n + n]
            uj = u[self.sub.position(j) * n : self.sub.position(j) * n + n]
            grads[(i, j)] = -np.outer(ui, self._dh_at(j, abs_k) @ uj)
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
            block = self.a_base[:, pv : pv + n, pv : pv + n]
            floor = max(floor, float(symmetric_top_eig(block).max()))
        return floor

    def abscissa_objective(self, gains) -> np.ndarray:
        return spectral_abscissa(self.a_with_gains(gains))

    def mean_matrix(self, gains) -> np.ndarray:
        return self.a_with_gains(gains).mean(axis=0)


def _prune(gains: Mapping[tuple[int, int], np.ndarray]) -> GainSet:
    return GainSet({k: v for k, v in gains.items() if np.any(v)})


def _subgradient_descent(prob, gains, idx, h_req, max_iters, overshoot):
    """Polyak-stepped subgradient loop on the active sample set; returns the
    iterate once it reaches -h_req there, or None."""
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
    sys: NetworkSystem,
    subset: SubsetIndex | Sequence[int],
    measured_in_subset: Iterable[int],
    samples,
    h_req: float,
    zero_error_nodes: Iterable[int] = (),
    max_iters: int = 5000,
    restarts: int = 3,
    polyak_overshoot: float = 1.2,
    seed: int = 0,
    active_cap: int = 1024,
) -> GainSet:
    """Find static gains with max-over-samples lambda_max(A_S^sym) <= -h_req.

    Subgradient descent with Polyak steps from L = 0, random restarts scaled
    by the estimated network rate.  Large sample sets run through an active-set
    outer loop: solve on a strided subset, then fold in the worst violators
    until the full set certifies (the success test always runs on every
    sample; infeasibility on a subset implies infeasibility overall).
    """
    if h_req <= 0:
        raise ValueError("h_req must be positive")
    prob = GainProblem(sys, subset, measured_in_subset, samples, zero_error_nodes)
    phi0, _ = prob.objective({})
    if phi0 <= -h_req:
        return GainSet({})
    if not prob.measured:
        raise NoMeasuredNodes(
            f"subset {prob.sub.nodes} has no measured nodes and does not certify"
        )
    floor = prob.unmeasured_floor()
    if floor > -h_req:
        raise Infeasible(
            f"subset {prob.sub.nodes}: unmeasured diagonal blocks reach "
            f"{floor:.4g}, margin {h_req} is unattainable for any gains"
        )
    rng = np.random.Generator(np.random.PCG64(seed))
    K = prob.num_samples
    stride = max(1, K // active_cap)
    active = list(range(0, K, stride))

    for attempt in range(restarts + 1):
        if attempt == 0:
            gains = prob.zero_gains()
        else:
            gains = {
                k: prob.network_rate * rng.standard_normal((prob.n, prob.p))
                for k in prob.keys
            }
        idx = list(active)
        for round_ in range(8):
            found = _subgradient_descent(
                prob, gains, idx, h_req, max_iters, polyak_overshoot
            )
            if found is None:
                break
            lam = symmetric_top_eig(prob.a_with_gains(found))
            if float(lam.max()) <= -h_req:
                log.debug(
                    "thm2 design for %s done (attempt %d, round %d, |active|=%d)",
                    prob.sub.nodes, attempt, round_, len(idx),
                )
                return _prune(found)
            worst = np.argsort(lam)[-64:]
            idx = sorted(set(idx) | set(int(w) for w in worst))
            gains = found
    raise Infeasible(
        f"no feasible gain found for subset {prob.sub.nodes} at margin {h_req}"
    )


def design_gain_thm1(
    sys: NetworkSystem,
    subset: SubsetIndex | Sequence[int],
    measured_in_subset: Iterable[int],
    samples,
    lambda_star,
    zero_error_nodes: Iterable[int] = (),
    match_weight: float = 1.0,
    restarts: int = 3,
    max_fev_per_dim: int = 400,
    seed: int = 0,
) -> GainSet:
    """Place the spectrum of A_S near ``lambda_star`` with a derivative-free
    search; enforce the dominant-abscissa ceiling at every sample."""
    # imported here: this route is off by default, and the import is slow
    from scipy import optimize

    prob = GainProblem(sys, subset, measured_in_subset, samples, zero_error_nodes)
    lam_star = np.sort_complex(np.asarray(lambda_star, dtype=complex))
    if lam_star.size != prob.sub.size * prob.n:
        raise ValueError("spectrum template size must equal n*M")
    a_star = float(lam_star.real.max())
    if a_star >= 0:
        raise ValueError("spectrum template must be Hurwitz")

    absc0 = prob.abscissa_objective({})
    if float(absc0.max()) <= a_star:
        return GainSet({})
    if not prob.measured:
        raise NoMeasuredNodes(
            f"subset {prob.sub.nodes} has no measured nodes and does not certify"
        )

    keys = prob.keys
    blk = prob.n * prob.p
    dim = len(keys) * blk

    def unpack(theta):
        return {
            k: theta[a * blk : (a + 1) * blk].reshape(prob.n, prob.p)
            for a, k in enumerate(keys)
        }

    def cost(theta):
        gains = unpack(theta)
        absc = prob.abscissa_objective(gains)
        hard = float(np.maximum(absc - a_star, 0.0).max())
        eigs = np.sort_complex(np.linalg.eigvals(prob.mean_matrix(gains)))
        match = float(np.sum(np.abs(eigs - lam_star) ** 2))
        return hard + match_weight * match

    rng = np.random.Generator(np.random.PCG64(seed))
    rate = max(prob.network_rate, -a_star)
    best = None
    for attempt in range(restarts + 1):
        theta0 = np.zeros(dim) if attempt == 0 else rate * rng.standard_normal(dim)
        res = optimize.minimize(
            cost,
            theta0,
            method="Nelder-Mead",
            options={
                "maxfev": max_fev_per_dim * dim,
                "xatol": 1e-12,
                "fatol": 1e-14,
            },
        )
        if best is None or res.fun < best.fun:
            best = res
        gains = unpack(best.x)
        if float(prob.abscissa_objective(gains).max()) <= a_star + 1e-9:
            return _prune(gains)
    raise Infeasible(
        f"spectrum placement failed for subset {prob.sub.nodes} "
        f"(residual {best.fun:.4g})"
    )
