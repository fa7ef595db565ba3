"""Recursive observer design over the condensation of the dependency pattern.

The design loop peels root strongly connected components off the residual
dependency pattern (an arc from every member of a hyperedge to each of its
heads), certifies each one through the theorem checkers (synthesizing gains
when measurements are available), and otherwise grows the measured set with
the degree heuristic until the whole network is observable or a subset is
exhausted.  With an invertible output map, measured nodes are reconstructed
exactly and skip certification.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field, replace
from typing import Iterable, Mapping

import numpy as np

from .assembly import (
    CertificationReport,
    ErrorSystem,
    SubsetIndex,
    check_head_closed,
    check_thm1,
    check_thm2,
    thm3_bound,
    KRON_CAP,
    RobustnessBound,
)
from .dynamics import NetworkSystem
from .gain_design import (
    GainSet,
    Infeasible,
    ObserverDesign,
    design_gain_thm2,
)
from .hypergraph import DirectedHypergraph, condense, to_dependency_graph
from .sim import TrajectoryEnsemble

log = logging.getLogger("hyperobs.designer")


# trajectories of the ensemble the Theorem-1 check runs over
THM1_TRAJECTORIES = 10


class EmptyTrajectorySet(ValueError):
    pass


class AllMeasured(ValueError):
    pass


@dataclass(frozen=True)
class DesignOptions:
    """Observer-design settings.  ``seed`` is recorded in ``design.json`` but
    read by no design step: gain synthesis is one deterministic descent."""

    margin: float = 1.0
    use_inverse_shortcut: bool | None = None  # None: shortcut iff h invertible
    max_iters: int = 5000
    seed: int = 0


@dataclass
class ProcessedSubset:
    nodes: tuple[int, ...]
    report: CertificationReport
    added_measured: tuple[int, ...]
    iteration: int

    def to_json_dict(self) -> dict:
        return {
            "nodes": list(self.nodes),
            "report": self.report.to_json_dict(),
            "added_measured": list(self.added_measured),
            "iteration": self.iteration,
        }


@dataclass
class DesignOutcome:
    design: ObserverDesign
    processed: list[ProcessedSubset]
    status: str  # "complete" | "failed"
    failed_subset: tuple[int, ...] | None = None

    @property
    def measured(self) -> frozenset[int]:
        return self.design.measured

    @property
    def gains(self) -> GainSet:
        return self.design.gains

    @property
    def exact_nodes(self) -> frozenset[int]:
        return self.design.exact_nodes

    @property
    def complete(self) -> bool:
        return self.status == "complete"

    def to_json_dict(self) -> dict:
        return {
            "status": self.status,
            "failed_subset": None if self.failed_subset is None else list(self.failed_subset),
            "design": self.design.to_json_dict(),
            "processed_subsets": [p.to_json_dict() for p in self.processed],
        }

    @staticmethod
    def from_json_dict(doc: Mapping) -> "DesignOutcome":
        design = ObserverDesign.from_json_dict(doc["design"])
        processed = [
            ProcessedSubset(
                tuple(p["nodes"]),
                CertificationReport.from_json_dict(p["report"]),
                tuple(p["added_measured"]),
                p["iteration"],
            )
            for p in doc.get("processed_subsets", ())
        ]
        failed = doc.get("failed_subset")
        return DesignOutcome(
            design, processed, doc["status"], None if failed is None else tuple(failed)
        )


def select_node(
    subset: Iterable[int], h: DirectedHypergraph, already_measured: Iterable[int]
) -> int:
    """Degree heuristic: the unmeasured node of the subset with the largest
    out-degree over the subset-internal hyperedges; ties go to the largest
    in-degree, then to the smallest node id."""
    S = sorted(set(int(v) for v in subset))
    candidates = [v for v in S if v not in set(already_measured)]
    if not candidates:
        raise AllMeasured(f"all nodes of {S} are already measured")
    within = h.restrict(S)
    degs = {v: h.degrees(v, within) for v in candidates}
    best_out = max(degs[v][1] for v in candidates)
    ties = [v for v in candidates if degs[v][1] == best_out]
    if len(ties) == 1:
        return ties[0]
    best_in = max(degs[v][0] for v in ties)
    return min(v for v in ties if degs[v][0] == best_in)


def certify_or_fail(
    sys: NetworkSystem,
    subset_nodes: Iterable[int],
    measured: Iterable[int],
    ensemble: TrajectoryEnsemble,
    options: DesignOptions,
    zero_error_nodes: Iterable[int] = (),
) -> tuple[CertificationReport, GainSet] | None:
    """Certify one subset: zero-gain Theorem-2 check, then gain synthesis for
    Theorem 2, then the zero-gain Theorem-1 check over the first
    ``THM1_TRAJECTORIES`` trajectories when the subset's error dimension nM
    is at most ``KRON_CAP``.  A_S and the coupling bound are evaluated once,
    over the stacked ensemble, and every route reads that evaluation.
    Returns None when nothing passes."""
    sub = SubsetIndex(tuple(sorted(set(int(v) for v in subset_nodes))))
    measured_in = sorted(frozenset(int(v) for v in measured) & set(sub.nodes))
    samples = ensemble.stacked()
    if samples.shape[0] == 0:
        raise EmptyTrajectorySet("trajectory ensemble is empty")

    err = ErrorSystem(sys, sub, samples, frozenset(int(v) for v in zero_error_nodes))
    rep0 = check_thm2(err, options.margin)
    if rep0.passed:
        return rep0, GainSet({})

    if measured_in:
        try:
            gains = design_gain_thm2(err, measured_in, options.margin, options.max_iters)
            rep = check_thm2(err, options.margin, gains.entries)
            if rep.passed:
                return rep, gains
        except Infeasible:
            log.debug("thm2 synthesis infeasible on %s", sub.nodes)

    if err.dim <= KRON_CAP:
        rep1 = check_thm1(
            err, ensemble.dt_sample, options.margin,
            length=ensemble.states.shape[1],
            count=min(THM1_TRAJECTORIES, ensemble.count),
        )
        if rep1.passed:
            return rep1, GainSet({})
    return None


def _exact_report() -> CertificationReport:
    return CertificationReport("exact", math.inf, -math.inf, 0)


def design_observer(
    sys: NetworkSystem, ensemble: TrajectoryEnsemble, options: DesignOptions = DesignOptions()
) -> DesignOutcome:
    """Main design loop: peel root SCCs of the residual dependency pattern,
    certify or measure, until every node is observable or a subset fails."""
    if ensemble.count == 0 or ensemble.stacked().shape[0] == 0:
        raise EmptyTrajectorySet("need a nonempty trajectory ensemble")
    H = sys.hypergraph
    N = H.num_nodes
    deps = to_dependency_graph(H)
    shortcut = (
        sys.output.invertible
        if options.use_inverse_shortcut is None
        else options.use_inverse_shortcut
    )
    if shortcut and not sys.output.invertible:
        raise ValueError("inverse shortcut requested but the output map is not invertible")

    observed: set[int] = set()
    measured: set[int] = set()
    exact: set[int] = set()
    gains = GainSet({})
    processed: list[ProcessedSubset] = []
    iteration = 0

    def outcome(status: str, failed=None) -> DesignOutcome:
        design = ObserverDesign(frozenset(measured), gains, frozenset(exact))
        return DesignOutcome(design, processed, status, failed)

    while len(observed) < N:
        iteration += 1
        residual = sorted(set(range(N)) - observed)
        cond = condense(deps, residual)
        progress = len(observed)
        for root in cond.root_members():
            S = tuple(sorted(root))
            # structural guarantees behind hypothesis H3 and the b_S form
            boundary_tails = set(H.tails_of(H.boundary(S))) - set(S)
            if not boundary_tails <= observed:
                raise AssertionError(f"upstream tails {boundary_tails} of {S} unprocessed")
            if not check_head_closed(H, S, ignoring=exact):
                raise AssertionError(f"subset {S} is not head-closed modulo exact nodes")

            # certify S, or else measure select_node(S): with the shortcut the
            # node is reconstructed exactly and the pass moves on, otherwise
            # S is tried again with the larger measured set
            added: list[int] = []
            while True:
                res = certify_or_fail(
                    sys, S, measured, ensemble, options, zero_error_nodes=exact
                )
                if res is not None:
                    report, new_gains = res
                    gains = gains.merged(new_gains)
                    observed.update(S)
                    processed.append(ProcessedSubset(S, report, tuple(added), iteration))
                    log.info(
                        "iteration %d: certified %s via %s (measured %s)",
                        iteration, S, report.theorem_used, added,
                    )
                    break
                if set(S) <= measured:
                    log.warning("subset %s exhausted without certification", S)
                    processed.append(
                        ProcessedSubset(
                            S,
                            CertificationReport("none", -math.inf, math.inf, 0),
                            tuple(added),
                            iteration,
                        )
                    )
                    return outcome("failed", S)
                j = select_node(S, H, measured)
                measured.add(j)
                if shortcut:
                    # the rest of the SCC re-enters the residual graph next pass
                    exact.add(j)
                    observed.add(j)
                    processed.append(ProcessedSubset((j,), _exact_report(), (j,), iteration))
                    log.info("iteration %d: measuring node %d of %s (exact)", iteration, j, S)
                    break
                added.append(j)
                log.info("iteration %d: measuring node %d of %s", iteration, j, S)
        if len(observed) == progress:
            raise AssertionError("design loop made no progress")
    return outcome("complete")


def field_param_jacobian_bound(sys: NetworkSystem, samples) -> float:
    """Max spectral norm of the field's parameter Jacobian over the samples."""
    X = np.asarray(samples, dtype=float)
    return float(
        np.linalg.svd(
            sys.field.jac_mu(X.reshape(-1, sys.num_nodes, sys.state_dim),
                             sys.field.nominal_params),
            compute_uv=False,
        )[..., 0].max()
    )


def propagate_robustness_bounds(
    sys: NetworkSystem,
    outcome: DesignOutcome,
    samples,
    mu_bar: float,
    nu_bar: float,
    f_bound: float | None = None,
) -> tuple[float, list[RobustnessBound]]:
    """Per-subset asymptotic error bounds, propagated in processing order.

    Bounds of upstream tails feed the exogenous term of downstream subsets.
    Exactly reconstructed nodes are bounded by the inverted measurement noise.
    Returns the stacked network bound and the per-subset bounds.
    """
    if f_bound is None:
        f_bound = field_param_jacobian_bound(sys, samples)
    inv_gain = 0.0
    if sys.output.invertible:
        inv_gain = float(np.linalg.norm(sys.output.inverse, 2))
    node_bound: dict[int, float] = {}
    per_subset: list[RobustnessBound] = []
    total_sq = 0.0
    for entry in outcome.processed:
        if entry.report.theorem_used == "exact":
            value = inv_gain * nu_bar
            bound = RobustnessBound(
                value, math.inf, 0.0, f_bound,
                inv_gain, mu_bar, nu_bar, len(entry.nodes), 0.0,
            )
        else:
            l_bound = outcome.gains.block_norm(entry.nodes)
            bound = thm3_bound(
                sys.hypergraph,
                entry.nodes,
                node_bound,
                margin=entry.report.hurwitz_margin,
                g_bound=entry.report.g_bound or 0.0,
                f_bound=f_bound,
                l_bound=l_bound,
                mu_bar=mu_bar,
                nu_bar=nu_bar,
            )
        per_subset.append(bound)
        total_sq += bound.value**2
        for v in entry.nodes:
            node_bound[v] = bound.value
    return float(np.sqrt(total_sq)), per_subset
