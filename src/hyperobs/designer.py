"""Recursive observer design over the root components of the dependency pattern.

Each design pass takes from ``condense`` the roots of the residual pattern,
the components no other unobserved one enters, and every component is
certified once, when a labelling makes it.  A component's zero-gain
verdict reads only its nodes, the edges entering it and the samples, so no
pass changes it.  So one ``certify_pass`` takes the components of each
labelling (``label_components``): the whole pattern's before pass 1, and,
at the end of a pass whose exact nodes split roots, every S \\ {j} left,
labelled at once: no unobserved node outside the root S reaches it, and
the roots of a pass share no arc.  Each pass reads its roots' reports and
upstream tails from what those calls returned.  No two components of a
labelling share an edge's heads, which share a component or are exact, so
each edge enters one of them, and a ``certify_pass`` stacks the A_S of its
components of one size (``assembly.stack_roots``), as many as
``dynamics.CHUNK_BYTES`` holds with the arrays of the edges entering them
(``assembly.sample_bytes``), and certifies each stack at once: a node's
diagonal block refutes the Theorem-2 check where it can (``thm2_refuted``,
on ``assembly.node_floors``, made once per design), and one
``assembly.check_roots`` runs it on the other roots.  The
refutation's slack is taken at the floors' bound on max|A_S|, at least the
exact one: a root it leaves standing gets the full check, which fails
wherever the exact slack refutes, so the bound changes no decision.  A
stack assembles nothing until a check reads it, a ``RootStack.chunks()``
range at a time, so no zero-gain check holds a whole root over the budget,
and a stack goes once its roots are certified.

A pass records its certified roots as they are and treats the others in
its order.  With an invertible output map (the shortcut), the node j of S
chosen by the degree heuristic is reconstructed exactly and skips
certification, and S \\ {j} returns as above.  Without it, no node is
labelled again, and a root's retries are a function of the root alone:
each measures one more node of S, chosen by the degree heuristic, and
synthesizes Theorem-2 gains on the nodes of S measured so far, on a stack
holding S alone, until a synthesis passes or S is exhausted.  Every such
root retries at once in ``_synthesize``: in a pool of ``fork`` workers,
one per CPU of the process's affinity up to one per root, the largest roots
first.  With one usable CPU, one root to retry or no ``fork``, a root
retries in process when its pass reaches it, and only a design that forks
imports ``multiprocessing``.  Each pass reads its roots' results in its
order: it checks their upstream tails and logs their retries there, so the
outputs and this module's log are the same on every path, and a design that
fails at a root stops the pool and records no later root's result.
``gain_design`` logs in the process that synthesizes.  So every subset is
certified by the Theorem-2 check, with or without gains, or is one exactly
measured node, and every passing Theorem-2 report clears
``assembly.accepts``.  The design logs one INFO line per pass and each
root's fate at DEBUG.

The design report, ``design.json``, is one JSON object, built by
``design_report`` and read back, checked, by ``read_design_report``; no other
code writes or checks it.  Node ids are JSON integers in [0, N), and a number
that is not finite is the string "inf", "-inf" or "nan" (``strict_float``):

    config_hash          string: ``config.design_relevant_hash`` of the run
    f_bound              finite number >= 0: ``field_param_jacobian_bound``
    outcome
      status             "complete", or "failed" with
      failed_subset      the failed subset's node ids; null when complete
      design
        measured         node ids, increasing
        exact_nodes      node ids, increasing: measured, reconstructed exactly
        gains            "i,j" (no sign, space or leading 0) -> n rows of p
                         numbers, node i's gain on measured node j's innovation
      processed_subsets  list, in processing order, of
        nodes            node ids of the subset
        report           a ``CertificationReport``:
          theorem_used   "thm2", "exact", or "none" when it failed
          hurwitz_margin number
          sample_count   integer >= 0
          g_bound        number or null
        added_measured   node ids of the subset measured while processing it
        iteration        integer >= 1: the design pass

``simulate`` and ``batch`` refuse, with exit 4, a report with another config
hash, a key missing or extra, or a value of another JSON type; with exact
nodes that are not measured, or any under an output map with no inverse;
with added_measured outside its subset, measured nodes other than the union
of the subsets' added_measured, or exact_nodes other than the nodes of the
"exact" subsets, one node each; with a gain that is not a finite n-by-p
matrix, or not on a "thm2" subset holding node i with j among its
added_measured; or a complete one whose subsets do not cover every node
once, or that labels a subset "none".  A failed report exits 2, and the
Theorem-3 bound refuses a subset listed before an upstream one or with a
nonpositive margin.
"""

from __future__ import annotations

import contextlib
import logging
import math
import os
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from .assembly import (
    CertificationReport,
    RootStack,
    check_roots,
    check_thm2,
    node_floors,
    refutes,
    sample_bytes,
    stack_roots,
    thm3_bound,
    RobustnessBound,
)
from . import dynamics
from .dynamics import NetworkSystem
from .gain_design import Infeasible, ObserverDesign, design_gain_thm2
from .hypergraph import EdgeSlice, condense, dependency_arcs, label_components
from .sim import TrajectoryEnsemble

log = logging.getLogger("hyperobs.designer")


class EmptyTrajectorySet(ValueError):
    pass


class AllMeasured(ValueError):
    pass


@dataclass(frozen=True)
class DesignOptions:
    """Observer-design settings.  No design step draws a random number: gain
    synthesis is one deterministic descent, whose iteration budget is
    ``gain_design.MAX_ITERS``."""

    margin: float = 1.0
    use_inverse_shortcut: bool | None = None  # None: shortcut iff h invertible


@dataclass
class ProcessedSubset:
    nodes: tuple[int, ...]
    report: CertificationReport
    added_measured: tuple[int, ...]
    iteration: int


@dataclass
class DesignOutcome:
    design: ObserverDesign
    processed: list[ProcessedSubset]
    status: str  # "complete" | "failed"
    failed_subset: tuple[int, ...] | None = None

    @property
    def complete(self) -> bool:
        return self.status == "complete"

    def to_json_dict(self) -> dict:
        """The ``outcome`` object of the design report, every key written."""
        return {
            "status": self.status,
            "failed_subset": None if self.failed_subset is None else list(self.failed_subset),
            "design": {
                "measured": sorted(self.design.measured),
                "exact_nodes": sorted(self.design.exact_nodes),
                "gains": {f"{i},{j}": L.tolist() for (i, j), L in sorted(self.design.gains.items())},
            },
            "processed_subsets": [
                {
                    "nodes": list(p.nodes),
                    "report": {
                        "theorem_used": p.report.theorem_used,
                        "hurwitz_margin": strict_float(p.report.hurwitz_margin),
                        "sample_count": p.report.sample_count,
                        "g_bound": strict_float(p.report.g_bound),
                    },
                    "added_measured": list(p.added_measured),
                    "iteration": p.iteration,
                }
                for p in self.processed
            ],
        }


def strict_float(x: float | None) -> float | str | None:
    """``x`` for strict JSON: the string "inf", "-inf" or "nan" when it is
    not finite, which ``read_design_report`` reads back."""
    return x if x is None or math.isfinite(x) else str(float(x))


def design_report(outcome: DesignOutcome, config_hash: str, f_bound: float) -> dict:
    """The design report of ``outcome`` (layout in the module docstring)."""
    return {
        "config_hash": config_hash,
        "f_bound": strict_float(f_bound),
        "outcome": outcome.to_json_dict(),
    }


def _fields(doc, keys: str, where: str) -> list:
    """The values of the space-separated ``keys`` of the JSON object ``doc``,
    which must hold these keys and no other."""
    if type(doc) is not dict or doc.keys() != set(keys.split()):
        raise ValueError(f"{where} is not an object with exactly the keys {keys}")
    return [doc[k] for k in keys.split()]


def _ids(ids, N: int, where: str) -> list[int]:
    # the dataclasses would read 0.5 and true as node 0 and node 1
    if type(ids) is not list or not all(type(v) is int and 0 <= v < N for v in ids):
        raise ValueError(f"{where} {ids!r} is not a list of JSON integers in [0, {N})")
    return ids


def _float(v, where: str) -> float:
    # float() would also read true, "8.5" and " inf"
    if type(v) not in (int, float) and v not in ("inf", "-inf", "nan"):
        raise ValueError(f"{where} {v!r} is not a JSON number, 'inf', '-inf' or 'nan'")
    return float(v)


def _gain(key: str, rows, shape: tuple[int, int]) -> tuple[tuple[int, int], np.ndarray]:
    i, j = (int(v) for v in key.split(","))
    # int() reads "00", " 0" and "+0" as 0: only the key the writer writes
    # names a gain, so no two keys name one
    if min(i, j) < 0 or key != f"{i},{j}":
        raise ValueError(f"gain key {key!r} is not 'i,j' for node ids i and j")
    # numpy would read the string "-5.0" and the boolean true as numbers
    numbers = type(rows) is list and all(type(row) is list for row in rows)
    if not numbers or not all(type(v) in (int, float) for row in rows for v in row):
        raise ValueError(f"gain {key} is not a list of rows of JSON numbers")
    L = np.array(rows, dtype=float)
    if L.shape != shape or not np.isfinite(L).all():
        raise ValueError(f"gain {key} is not a finite matrix of shape {shape}")
    return (i, j), L


def read_design_report(doc, sys: NetworkSystem, config_hash: str) -> tuple[DesignOutcome, float]:
    """The outcome and ``f_bound`` of the design report ``doc``, checked
    against the run that simulates it, its config hash and its system, as
    the module docstring lists; ValueError names the first fault."""
    if type(doc) is not dict or doc.get("config_hash") != config_hash:
        raise ValueError("the report does not match this config (hash check failed)")
    _, f_bound, out = _fields(doc, "config_hash f_bound outcome", "the report")
    if type(f_bound) not in (int, float) or not 0.0 <= f_bound < math.inf:
        raise ValueError(f"f_bound {f_bound!r} is not a finite nonnegative JSON number")
    status, failed, design, processed = _fields(
        out, "status failed_subset design processed_subsets", "outcome")
    if (status, failed is None) not in (("complete", True), ("failed", False)):
        raise ValueError(f"status {status!r} does not go with failed_subset {failed!r}")
    N = sys.num_nodes
    measured, exact, gains = _fields(design, "measured exact_nodes gains", "design")
    if type(gains) is not dict:
        raise ValueError(f"gains {gains!r} is not a JSON object")
    shape = (sys.state_dim, sys.output.output_dim)
    design = ObserverDesign(_ids(measured, N, "measured"),
                            dict(_gain(key, rows, shape) for key, rows in gains.items()),
                            _ids(exact, N, "exact_nodes"))
    if design.exact_nodes and not sys.output.invertible:
        raise ValueError("exact nodes are reconstructed through an inverse the output map lacks")
    if type(processed) is not list:
        raise ValueError(f"processed_subsets {processed!r} is not a list")
    subsets = []
    for k, entry in enumerate(processed):
        at = f"processed_subsets[{k}]"
        nodes, report, added, iteration = _fields(
            entry, "nodes report added_measured iteration", at)
        nodes, added = _ids(nodes, N, f"{at}.nodes"), _ids(added, N, f"{at}.added_measured")
        if not set(added) <= set(nodes):
            raise ValueError(f"{at}: added_measured {added} are not nodes of it")
        if type(iteration) is not int or iteration < 1:
            raise ValueError(f"{at}: iteration {iteration!r} is not a JSON integer >= 1")
        theorem, margin, count, g = _fields(
            report, "theorem_used hurwitz_margin sample_count g_bound", f"{at}.report")
        if theorem not in ("thm2", "exact", "none"):
            raise ValueError(f"{at}: theorem_used {theorem!r} is not a known label")
        if type(count) is not int or count < 0:
            raise ValueError(f"{at}: sample_count {count!r} is not a JSON integer >= 0")
        report = CertificationReport(theorem, _float(margin, "hurwitz_margin"), count,
                                     None if g is None else _float(g, "g_bound"))
        subsets.append(ProcessedSubset(tuple(nodes), report, tuple(added), iteration))
    if failed is not None:
        failed = tuple(_ids(failed, N, "failed_subset"))
    # a report states each measured node, and each exact one, twice; the
    # bound of an "exact" subset is one node's inverted noise
    if design.measured != {v for p in subsets for v in p.added_measured}:
        raise ValueError("measured is not the union of the subsets' added_measured")
    exact_subsets = [p.nodes for p in subsets if p.report.theorem_used == "exact"]
    if any(len(nodes) != 1 for nodes in exact_subsets) or design.exact_nodes != {
            nodes[0] for nodes in exact_subsets}:
        raise ValueError("exact_nodes are not the nodes of the 'exact' subsets, one node each")
    outcome = DesignOutcome(design, subsets, status, failed)
    if outcome.complete and sorted(v for p in subsets for v in p.nodes) != list(range(N)):
        raise ValueError(f"the processed subsets do not cover the nodes 0..{N - 1} once each")
    if outcome.complete and "none" in {p.report.theorem_used for p in subsets}:
        raise ValueError("a complete design labels a subset 'none': only a failed one does")
    # a gain acts only where the Theorem-2 certificate of its subset counts it
    sound = {(i, j) for p in subsets if p.report.theorem_used == "thm2"
             for i in p.nodes for j in p.added_measured}
    if unsound := sorted(design.gains.keys() - sound):
        raise ValueError(f"gain {unsound[0]} is not on a 'thm2' subset holding its node "
                         "with its measured node among the subset's added_measured")
    return outcome, float(f_bound)


def select_node(entering: EdgeSlice, already_measured: Iterable[int]) -> int:
    """Degree heuristic on the subset S of the slice ``entering``, S's
    ``DirectedHypergraph.entering``: the unmeasured node of S with the
    largest out-degree over the subset-internal hyperedges; ties go to the
    largest in-degree, then to the smallest node id."""
    sl = entering
    S = np.flatnonzero(sl.position >= 0).tolist()
    measured = set(already_measured)
    candidates = [v for v in S if v not in measured]
    if not candidates:
        raise AllMeasured(f"all nodes of {S} are already measured")
    # the subset-internal edges are the entering ones with no member outside S
    rows = sl.rows
    internal = np.bincount(rows[sl.position[sl.members] < 0], minlength=len(sl.edges)) == 0
    keep = internal[rows]
    d_in = np.bincount(sl.members[keep & sl.is_head], minlength=len(sl.position))
    d_out = np.bincount(sl.members[keep & ~sl.is_head], minlength=len(sl.position))
    return max(candidates, key=lambda v: (d_out[v], d_in[v], -v))


def thm2_refuted(stack: RootStack, h_req: float) -> np.ndarray:
    """Which roots of ``stack`` a node's diagonal-block floor proves to fail
    the zero-gain Theorem-2 check (``assembly.refutes``, at the bound of the
    root's ``floors``)."""
    floor, bound = stack.floors
    tops = floor[stack.roots]
    refuted = refutes(tops.max(axis=1), stack.dim, bound[stack.roots].max(axis=1), h_req)
    for r in np.flatnonzero(refuted).tolist():
        k = int(tops[r].argmax())
        log.debug("thm2 refuted on %s: the block of node %d reaches %.6g",
                  tuple(stack.roots[r].tolist()), int(stack.roots[r, k]), tops[r, k])
    return refuted


def certify_pass(
    sys: NetworkSystem,
    roots: list[tuple[int, ...]],
    samples: np.ndarray,
    options: DesignOptions,
    exact: set[int],
    floors: tuple[np.ndarray, np.ndarray],
) -> list[tuple[CertificationReport | None, np.ndarray]]:
    """For each of ``roots``, disjoint components of one labelling, in order,
    its passing zero-gain Theorem-2 report, else None, and its upstream
    tails, the tails outside it of the edges entering it.  Roots of one size
    are stacked over the (K, N, n) ``samples``, with the design's ``floors``,
    as many as ``CHUNK_BYTES`` holds of their K samples' ``sample_bytes``,
    and at least one.  Its nodes' head degrees bound a root's entering
    edges, and roots of one size and one bound share their stacks.  A stack
    is then read in the sample ranges that ``RootStack.chunks()`` sizes by
    the same count, so no read assembles more than ``CHUNK_BYTES``, however
    many edges enter a root.  ``check_roots`` runs the check on the roots
    ``thm2_refuted`` leaves: a refuted check would fail, so skipping it
    changes no outcome, and a stack whose every root is refuted assembles no
    sample."""
    K, n, degree = samples.shape[0], sys.state_dim, np.diff(sys.hypergraph.head_ptr)
    sizes: dict[tuple[int, int], list[int]] = {}
    for k, S in enumerate(roots):
        sizes.setdefault((len(S), int(degree[list(S)].sum())), []).append(k)
    checked: list = [None] * len(roots)
    for (M, E), group in sizes.items():
        step = max(1, dynamics.CHUNK_BYTES // (K * sample_bytes(1, M * n, n, E)))
        for lo in range(0, len(group), step):
            chunk = group[lo : lo + step]
            stack = stack_roots(sys, [roots[k] for k in chunk], samples, frozenset(exact), floors)
            reports: list[CertificationReport | None] = [None] * len(chunk)
            left = np.flatnonzero(~thm2_refuted(stack, options.margin))
            if left.size:
                pick = slice(None) if len(left) == len(chunk) else left
                for r, report in zip(left.tolist(), check_roots(stack, options.margin, pick)):
                    reports[r] = report if report.passed else None
            for r, (k, report) in enumerate(zip(chunk, reports)):
                checked[k] = report, stack.upstream[stack.upstream_root == r]
    return checked


# the design a forked synthesis worker serves: its pool's initializer fills it
_job: list = []


def _synthesize(S: tuple[int, ...], job: tuple = ()) -> tuple:
    """The retries of the root S that its zero-gain check left uncertified,
    for the design ``job``, (sys, samples, floors, margin), or the one a
    pool worker serves.  Each measures one more node of S, chosen by
    ``select_node``, and synthesizes Theorem-2 gains on the nodes measured so
    far, on S's own one-root stack, made here, until a check with them passes
    or S is exhausted.  The zero-gain check reads neither gains nor the
    measured set, so it would decide every retry as it decided S's one
    certification: it is not run again.  Returns the passing report or
    None, its gains, the measured nodes in order and the ``Infeasible``
    message of each node whose synthesis raised it."""
    sys, samples, floors, h = job or _job
    stack = stack_roots(sys, [S], samples, frozenset(), floors)
    added, infeasible = [], {}
    while len(added) < len(S):
        added.append(select_node(stack.entering, added))
        try:
            gains = design_gain_thm2(stack, added, h)
        except Infeasible as exc:
            infeasible[added[-1]] = str(exc)
            continue
        report = check_thm2(stack, h, gains)
        if report.passed:
            return report, gains, added, infeasible
    return None, {}, added, infeasible


@contextlib.contextmanager
def _syntheses(job: tuple, roots: list[tuple[int, ...]]):
    """A function from each of ``roots`` to its ``_synthesize`` result for
    the design ``job``.  The usable CPUs are the process's affinity, one
    where the platform has no affinity call.  With one usable CPU, one root
    or no ``fork``, it synthesizes a root in process when it is asked.  Else
    a pool of workers, one per usable CPU up to one per root, starts every
    root at once, the largest first, and the function waits for the one
    asked.  On exit the roots not yet handed to a worker are cancelled, and
    the pool waits for those handed out, at most one more than its workers,
    and stops: a worker killed while it sends a result would leave a queue
    lock held, on which ``multiprocessing.Pool.terminate`` can hang.  The
    workers are forked: they inherit the design's system and arrays, which
    are not pickled (a vector field may be a closure), and they start in
    milliseconds, where a spawned worker imports numpy and the package
    again."""
    workers = min(len(roots), len(getattr(os, "sched_getaffinity", lambda pid: {pid})(0)))
    if workers < 2 or not hasattr(os, "fork"):
        yield lambda S: _synthesize(S, job)
        return
    # here: a design that forks no worker does not pay their import
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    fork = multiprocessing.get_context("fork")
    pool = ProcessPoolExecutor(workers, fork, _job.extend, (job,))
    try:
        pending = {S: pool.submit(_synthesize, S) for S in sorted(roots, key=len, reverse=True)}
        yield lambda S: pending[S].result()
    finally:
        pool.shutdown(cancel_futures=True)


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
    shortcut = (
        sys.output.invertible
        if options.use_inverse_shortcut is None
        else options.use_inverse_shortcut
    )
    if shortcut and not sys.output.invertible:
        raise ValueError("inverse shortcut requested but the output map is not invertible")
    floors = node_floors(sys, samples)

    # the residual pattern is the one on the nodes not yet observed
    observed = np.zeros(N, dtype=bool)
    measured: set[int] = set()
    exact: set[int] = set()
    gains: dict[tuple[int, int], np.ndarray] = {}
    processed: list[ProcessedSubset] = []
    iteration = 0

    def outcome(status: str, failed=None) -> DesignOutcome:
        design = ObserverDesign(frozenset(measured), gains, frozenset(exact))
        return DesignOutcome(design, processed, status, failed)

    def certify(nodes: Iterable[int]) -> dict[tuple[int, ...], tuple]:
        """The ``certify_pass`` result of each component that labelling
        ``nodes`` makes."""
        components = label_components(src, dst, nodes, label)
        return dict(zip(components, certify_pass(sys, components, samples, options, exact, floors)))

    # every component is certified once, when a labelling makes it
    checked = certify(range(N))
    uncertified = [] if shortcut else [S for S, (report, _) in checked.items() if report is None]
    with _syntheses((sys, samples, floors, options.margin), uncertified) as synthesized:
        while not observed.all():
            iteration += 1
            progress, first, split = np.count_nonzero(observed), len(processed), []
            roots = condense(src, dst, label, ~observed)
            for S in roots:
                report, upstream = checked.pop(S)
                # structural guarantee behind hypothesis H3 and the b_S form
                if not observed[upstream].all():
                    raise AssertionError(f"upstream tails {set(upstream.tolist())} of {S} "
                                         "unprocessed")
                if report is None and shortcut:
                    # an uncertified root measures select_node(S), reconstructed
                    # exactly; S \ {j} re-enters the residual pattern
                    j = select_node(H.entering(S), measured)
                    measured.add(j)
                    exact.add(j)
                    observed[j] = True
                    split += [v for v in S if v != j]
                    exact_report = CertificationReport("exact", math.inf, 0)
                    processed.append(ProcessedSubset((j,), exact_report, (j,), iteration))
                    log.debug("iteration %d: measuring node %d of %s (exact)", iteration, j, S)
                    continue
                # the retries' log, in pass order whichever process ran them
                report, new_gains, added, infeasible = (
                    (report, {}, [], {}) if report is not None else synthesized(S))
                measured.update(added)
                for j in added:
                    log.debug("iteration %d: measuring node %d of %s", iteration, j, S)
                    if j in infeasible:
                        log.debug("thm2 synthesis infeasible on %s: %s", S, infeasible[j])
                if report is None:
                    log.warning("subset %s exhausted without certification", S)
                    none = CertificationReport("none", -math.inf, 0)
                    processed.append(ProcessedSubset(S, none, tuple(added), iteration))
                    return outcome("failed", S)
                gains = {**gains, **new_gains}
                observed[list(S)] = True
                processed.append(ProcessedSubset(S, report, tuple(added), iteration))
                log.debug("iteration %d: certified %s via %s (measured %s)",
                          iteration, S, report.theorem_used, added)
            if np.count_nonzero(observed) == progress:
                raise AssertionError("design loop made no progress")
            if split:
                # exact holds every j: the parts are head-closed modulo it
                checked.update(certify(split))
            entries = processed[first:]
            log.info("iteration %d: %d roots, %d certified, %d nodes measured", iteration,
                     len(roots), sum(p.report.theorem_used != "exact" for p in entries),
                     sum(len(p.added_measured) for p in entries))
    return outcome("complete")


def field_param_jacobian_bound(sys: NetworkSystem, samples) -> float:
    """Max spectral norm of the field's parameter Jacobian over the samples,
    taken ``CHUNK_BYTES`` of Jacobians at a time; a max is exact, so the
    chunks change no bit.  The spectral norm of a one-row Jacobian is its
    row's norm, and that of a diagonal one (Lorenz) its largest |entry|: a
    chunk of finite Jacobians with zeros off their diagonals takes no SVD.
    That max is the SVD's bit for bit where LAPACK does not scale the
    matrix, a largest |entry| between about 1e-138 and 1e138; outside, the
    SVD may round the last bit, and the max is exact."""
    X = np.asarray(samples, dtype=float).reshape(-1, sys.num_nodes, sys.state_dim)
    per_sample = 8 * sys.num_nodes * sys.state_dim * sys.field.param_dim
    step = max(1, dynamics.CHUNK_BYTES // per_sample)
    tops = []
    for lo in range(0, len(X), step):
        J = sys.field.jac_mu(X[lo : lo + step], sys.field.nominal_params)
        if J.shape[-2] == 1:
            # sqrt is monotone: the largest norm is the root of the largest
            # sum of squares, and einsum forms the sums with no temporary as
            # large as J
            row = J[..., 0, :]
            tops.append(np.einsum("...i,...i->...", row, row).max())
        else:
            diagonal = np.abs(np.diagonal(J, 0, -2, -1))
            if np.isfinite(diagonal).all() and np.count_nonzero(J) == np.count_nonzero(diagonal):
                tops.append(diagonal.max())
            else:
                tops.append(np.linalg.svd(J, compute_uv=False)[..., 0].max())
    top = np.max(tops)
    return float(np.sqrt(top) if J.shape[-2] == 1 else top)


def block_norm(gains: Mapping[tuple[int, int], np.ndarray], nodes: Iterable[int]) -> float:
    """Spectral norm of the stacked gain matrix restricted to rows/columns
    in ``nodes``."""
    keep = set(nodes)
    keys = [(i, j) for i, j in sorted(gains) if i in keep and j in keep]
    if not keys:
        return 0.0
    rows, cols = sorted({i for i, _ in keys}), sorted({j for _, j in keys})
    n, p = gains[keys[0]].shape
    big = np.zeros((len(rows), n, len(cols), p))
    for i, j in keys:
        big[rows.index(i), :, cols.index(j)] = gains[i, j]
    return float(np.linalg.norm(big.reshape(len(rows) * n, len(cols) * p), 2))


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
            l_bound = block_norm(outcome.design.gains, entry.nodes)
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
        total_sq += bound.value * bound.value  # overflows to inf, where ** raises
        for v in entry.nodes:
            node_bound[v] = bound.value
    return float(np.sqrt(total_sq)), per_subset
