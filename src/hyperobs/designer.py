"""Recursive observer design over the root components of the dependency pattern.

The pattern's strongly connected components are labelled once per design, and
each design pass takes from ``condense`` the roots, the components no other
unobserved one enters.  Each root S is certified on one ``ErrorSystem``, one
evaluation of A_S over the ensemble: first with zero gains, by the Theorem-2
check and then the Theorem-1 check, once per subset (``certify_or_fail``).
On a subset of two or more nodes, a diagonal block that refutes the margin
(``ErrorSystem.refuting_block``, which gain synthesis reads too) proves that
the Theorem-2 check would fail (``thm2_refuted``), so that check is skipped.
When both fail, each retry measures one more node of S, chosen by the degree
heuristic, and synthesizes Theorem-2 gains on the nodes of S measured so far,
until a synthesis passes or S is exhausted.  With an invertible output map, a
measured node j is instead reconstructed exactly and skips certification, and
S \\ {j} returns in the next pass, labelled again on its own: no unobserved
node outside the root S reaches it.  The edges entering S come from one
incidence slice, ``DirectedHypergraph.entering``: ``ErrorSystem`` keeps it and
the upstream-tail check reads it; the degree heuristic takes its own.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from .assembly import (
    CertificationReport,
    ErrorSystem,
    SubsetIndex,
    check_thm1,
    check_thm2,
    thm3_bound,
    KRON_CAP,
    RobustnessBound,
)
from .dynamics import NetworkSystem
from .gain_design import GainSet, Infeasible, ObserverDesign, design_gain_thm2
from .hypergraph import DirectedHypergraph, condense, dependency_arcs, label_components
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
    read by no design step: gain synthesis is one deterministic descent,
    whose iteration budget is ``gain_design.MAX_ITERS``."""

    margin: float = 1.0
    use_inverse_shortcut: bool | None = None  # None: shortcut iff h invertible
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
            for p in doc["processed_subsets"]
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
    measured = set(already_measured)
    candidates = [v for v in S if v not in measured]
    if not candidates:
        raise AllMeasured(f"all nodes of {S} are already measured")
    # the subset-internal edges are the entering ones with no member outside S
    sl = h.entering(S)
    rows = sl.rows
    internal = np.bincount(rows[~sl.inside[sl.members]], minlength=len(sl.edges)) == 0
    keep = internal[rows]
    d_in = np.bincount(sl.members[keep & sl.is_head], minlength=h.num_nodes)
    d_out = np.bincount(sl.members[keep & ~sl.is_head], minlength=h.num_nodes)
    return max(candidates, key=lambda v: (d_out[v], d_in[v], -v))


def thm2_refuted(err: ErrorSystem, h_req: float) -> bool:
    """Whether a diagonal block proves that the zero-gain Theorem-2 check of
    ``err`` fails at margin ``h_req`` (``ErrorSystem.refuting_block``).  The
    first node's block is tried alone, as on a failing subset it alone
    usually refutes, then the other nodes' in one call.  A one-node subset's
    block is A_S itself: it is never refuted."""
    nodes = err.subset.nodes
    if len(nodes) < 2:
        return False
    for part in (nodes[:1], nodes[1:]):
        if (refuted := err.refuting_block(part, h_req)) is not None:
            log.debug("thm2 refuted on %s: the block of node %d reaches %.6g",
                      nodes, refuted[1], refuted[0])
            return True
    return False


def certify_or_fail(
    err: ErrorSystem, ensemble: TrajectoryEnsemble, options: DesignOptions
) -> CertificationReport | None:
    """Certify one subset with zero gains: the Theorem-2 check unless
    ``thm2_refuted`` proves it fails, then, when that check fails or is
    refuted and the subset's error dimension nM is at most ``KRON_CAP``, the
    Theorem-1 check over the first ``THM1_TRAJECTORIES`` trajectories, all on
    the one evaluation of A_S in ``err``.  A refuted check's report is never
    returned, so skipping it changes no outcome.  Neither check reads the
    measured set, so ``design_observer`` runs this once per subset; each
    retry then measures one node and synthesizes gains.  Returns the passing
    report, or None."""
    if not thm2_refuted(err, options.margin):
        report = check_thm2(err, options.margin)
        if report.passed:
            return report
    if err.dim <= KRON_CAP:
        report = check_thm1(
            err, ensemble.dt_sample, options.margin,
            length=ensemble.states.shape[1],
            count=min(THM1_TRAJECTORIES, ensemble.count),
        )
        if report.passed:
            return report
    return None


def design_observer(
    sys: NetworkSystem, ensemble: TrajectoryEnsemble, options: DesignOptions = DesignOptions()
) -> DesignOutcome:
    """Main design loop: peel root SCCs of the residual dependency pattern,
    certify or measure, until every node is observable or a subset fails."""
    samples = ensemble.stacked()
    if samples.shape[0] == 0:
        raise EmptyTrajectorySet("need a nonempty trajectory ensemble")
    H = sys.hypergraph
    N = H.num_nodes
    src, dst = dependency_arcs(H)
    label = np.full(N, -1, dtype=np.intp)
    label_components(src, dst, range(N), label)
    shortcut = (
        sys.output.invertible
        if options.use_inverse_shortcut is None
        else options.use_inverse_shortcut
    )
    if shortcut and not sys.output.invertible:
        raise ValueError("inverse shortcut requested but the output map is not invertible")

    # the residual pattern is the one on the nodes not yet observed
    observed = np.zeros(N, dtype=bool)
    measured: set[int] = set()
    exact: set[int] = set()
    gains = GainSet({})
    processed: list[ProcessedSubset] = []
    iteration = 0

    def outcome(status: str, failed=None) -> DesignOutcome:
        design = ObserverDesign(frozenset(measured), gains, frozenset(exact))
        return DesignOutcome(design, processed, status, failed)

    while not observed.all():
        iteration += 1
        progress = np.count_nonzero(observed)
        for S in condense(src, dst, label, ~observed):
            # certify S with zero gains, or else measure select_node(S): with
            # the shortcut the node is reconstructed exactly and the pass moves
            # on, otherwise gains are synthesized on the nodes of S measured so
            # far, ``added``.  No root holds a measured node (a measured node's
            # subset was certified, or the node is exact and observed), so the
            # zero-gain checks, which read neither gains nor the measured set,
            # would decide every retry as they decide the first attempt: they
            # run once, and every retry reads the same err.  ErrorSystem checks
            # that S is head-closed modulo exact nodes
            err = ErrorSystem(sys, SubsetIndex(S), samples, frozenset(exact))
            # structural guarantee behind hypothesis H3 and the b_S form
            upstream = err.entering.members[err.entering.outside_tails]
            if not observed[upstream].all():
                raise AssertionError(f"upstream tails {set(upstream.tolist())} of {S} unprocessed")
            report, new_gains = certify_or_fail(err, ensemble, options), GainSet({})
            added: list[int] = []
            while report is None:
                if set(S) <= measured:
                    log.warning("subset %s exhausted without certification", S)
                    none = CertificationReport("none", -math.inf, 0)
                    processed.append(ProcessedSubset(S, none, tuple(added), iteration))
                    return outcome("failed", S)
                j = select_node(S, H, measured)
                measured.add(j)
                if shortcut:
                    # S \ {j} re-enters the residual pattern next pass, labelled on its own
                    exact.add(j)
                    observed[j] = True
                    label_components(src, dst, (v for v in S if v != j), label)
                    exact_report = CertificationReport("exact", math.inf, 0)
                    processed.append(ProcessedSubset((j,), exact_report, (j,), iteration))
                    log.info("iteration %d: measuring node %d of %s (exact)", iteration, j, S)
                    break
                added.append(j)
                log.info("iteration %d: measuring node %d of %s", iteration, j, S)
                try:
                    new_gains = design_gain_thm2(err, added, options.margin)
                except Infeasible as exc:
                    log.debug("thm2 synthesis infeasible on %s: %s", S, exc)
                    continue
                report = check_thm2(err, options.margin, new_gains.entries)
                if not report.passed:
                    report = None
            if report is not None:
                gains = gains.merged(new_gains)
                observed[list(S)] = True
                processed.append(ProcessedSubset(S, report, tuple(added), iteration))
                log.info(
                    "iteration %d: certified %s via %s (measured %s)",
                    iteration, S, report.theorem_used, added,
                )
        if np.count_nonzero(observed) == progress:
            raise AssertionError("design loop made no progress")
    return outcome("complete")


def field_param_jacobian_bound(sys: NetworkSystem, samples) -> float:
    """Max spectral norm of the field's parameter Jacobian over the samples;
    the spectral norm of a one-row Jacobian is its row's norm."""
    X = np.asarray(samples, dtype=float).reshape(-1, sys.num_nodes, sys.state_dim)
    J = sys.field.jac_mu(X, sys.field.nominal_params)
    if J.shape[-2] == 1:
        # sqrt is monotone: the largest norm is the root of the largest sum of
        # squares, and einsum forms the sums with no temporary as large as J
        row = J[..., 0, :]
        return float(np.sqrt(np.einsum("...i,...i->...", row, row).max()))
    return float(np.linalg.svd(J, compute_uv=False)[..., 0].max())


def propagate_robustness_bounds(
    sys: NetworkSystem,
    outcome: DesignOutcome,
    mu_bar: float,
    nu_bar: float,
    f_bound: float,
) -> tuple[float, list[RobustnessBound]]:
    """Per-subset asymptotic error bounds, propagated in processing order.

    Bounds of upstream tails feed the exogenous term of downstream subsets.
    Exactly reconstructed nodes are bounded by the inverted measurement noise.
    ``f_bound`` bounds the field's parameter Jacobian over the design
    samples, as ``field_param_jacobian_bound`` computes it.  Returns the
    stacked network bound, inf when its sum of squares overflows, and the
    per-subset bounds.
    """
    inv_gain = float(np.linalg.norm(sys.output.inverse, 2)) if sys.output.invertible else 0.0
    node_bound: dict[int, float] = {}
    per_subset: list[RobustnessBound] = []
    total_sq = 0.0
    for entry in outcome.processed:
        if entry.report.theorem_used == "exact":
            bound = RobustnessBound(inv_gain * nu_bar, 0.0)
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
        try:
            total_sq += bound.value**2
        except OverflowError:  # a float's ** raises where * gives inf
            total_sq = math.inf
        for v in entry.nodes:
            node_bound[v] = bound.value
    return float(np.sqrt(total_sq)), per_subset
