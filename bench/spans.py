"""In-memory span tracing of hyperobs layer boundaries, installed from outside.

Nothing under ``src/`` knows about tracing: ``install`` swaps the public
functions and methods listed in ``TARGETS`` for wrappers that record a span
(id, parent id, name, start, end) plus optional counts.  Functions that other
modules import by name are replaced in every ``hyperobs`` module that holds
the original object, so ``hyperobs.designer.check_thm1`` and
``hyperobs.assembly.check_thm1`` both record.  Spans stay in memory until
``Tracer.dump`` writes them once, when the traced process ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict


def _passed(report) -> dict:
    return {"passed": int(bool(report.passed))}


def _ok(_result) -> dict:
    return {"ok": 1}


def _not_none(result) -> dict:
    return {"ok": int(result is not None)}


def _samples(result) -> dict:
    return {"samples": int(result.shape[0])}


def _sim_steps(result) -> dict:
    # EnsembleStats.times has one entry per recorded step, the initial one too
    return {"steps": int(len(result.times)) - 1}


# (span name, module, qualified attribute, outcome counter or None).  A
# dotted attribute is a method patched on its class.  The six edge queries
# share one span name: each is an O(E) scan over the hyperedge list today.
TARGETS = (
    ("config.load_config", "config", "load_config", None),
    ("config.build_system", "config", "build_system", None),
    ("hypergraph.generate_hierarchical", "hypergraph", "generate_hierarchical", None),
    ("hypergraph.to_dependency_graph", "hypergraph", "to_dependency_graph", None),
    ("hypergraph.condense", "hypergraph", "condense", None),
    ("hypergraph.edge_scan", "hypergraph", "DirectedHypergraph.incoming", None),
    ("hypergraph.edge_scan", "hypergraph", "DirectedHypergraph.incoming_closure", None),
    ("hypergraph.edge_scan", "hypergraph", "DirectedHypergraph.restrict", None),
    ("hypergraph.edge_scan", "hypergraph", "DirectedHypergraph.boundary", None),
    ("hypergraph.edge_scan", "hypergraph", "DirectedHypergraph.tails_of", None),
    ("hypergraph.edge_scan", "hypergraph", "DirectedHypergraph.degrees", None),
    ("dynamics.edge_arguments", "dynamics", "NetworkSystem.edge_arguments", None),
    ("dynamics.coupling_term", "dynamics", "NetworkSystem.coupling_term", None),
    ("assembly.a_matrix_batch", "assembly", "ErrorSystem.a_matrix_batch", _samples),
    ("assembly.symmetric_top_eig", "assembly", "symmetric_top_eig", None),
    ("assembly.check_thm2", "assembly", "check_thm2", _passed),
    ("assembly.check_thm1", "assembly", "check_thm1", _passed),
    ("assembly.kron_sum", "assembly", "kron_sum", None),
    ("assembly.coupling_jac_bound", "assembly", "ErrorSystem.coupling_jac_bound", None),
    ("assembly.check_head_closed", "assembly", "check_head_closed", None),
    ("gain_design.design_gain_thm2", "gain_design", "design_gain_thm2", _ok),
    ("gain_design.subgradient", "gain_design", "GainProblem.subgradient", None),
    ("gain_design.problem_init", "gain_design", "GainProblem.__init__", None),
    ("designer.design_observer", "designer", "design_observer", None),
    ("designer.certify_or_fail", "designer", "certify_or_fail", _not_none),
    ("designer.select_node", "designer", "select_node", None),
    ("designer.field_param_jacobian_bound", "designer", "field_param_jacobian_bound", None),
    ("designer.propagate_robustness_bounds", "designer", "propagate_robustness_bounds", None),
    ("sim.make_ensemble", "sim", "make_ensemble", None),
    ("sim.simulate_network", "sim", "simulate_network", None),
    ("sim.monte_carlo", "sim", "monte_carlo", _sim_steps),
)

SPAN_NAMES = tuple(dict.fromkeys(name for name, *_ in TARGETS))

# counts an outcome counter adds to a span, as "<span>.<count>"
COUNT_NAMES = (
    "assembly.a_matrix_batch.samples",
    "assembly.check_thm2.passed",
    "assembly.check_thm1.passed",
    "gain_design.design_gain_thm2.ok",
    "designer.certify_or_fail.ok",
    "sim.monte_carlo.steps",
)


class Tracer:
    """Records nested spans; each span is [id, parent id, name, start, end, counts]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn, outcome=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [len(spans), stack[-1] if stack else None, name, clock(), None, None]
            spans.append(span)
            stack.append(span[0])
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = clock()
                stack.pop()
            if outcome is not None:
                span[5] = outcome(result)
            return result

        return traced

    def dump(self, path, missing) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "missing": missing}, fh)


def install(tracer: Tracer) -> list[str]:
    """Wrap every target that exists; returns the targets that do not, so a
    later refactor that removes one shows up as missing instead of failing."""
    missing = []
    modules = [m for name, m in sorted(sys.modules.items()) if name.startswith("hyperobs")]
    for name, module_name, attr, outcome in TARGETS:
        module = importlib.import_module(f"hyperobs.{module_name}")
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name, None)
            if cls is None or meth not in vars(cls):
                missing.append(f"{module_name}.{attr}")
                continue
            setattr(cls, meth, tracer.wrap(name, vars(cls)[meth], outcome))
            continue
        original = getattr(module, attr, None)
        if original is None:
            missing.append(f"{module_name}.{attr}")
            continue
        wrapped = tracer.wrap(name, original, outcome)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)
    return missing


def summarize(spans) -> dict:
    """Per span name: calls, inclusive seconds, self seconds and counts.

    Inclusive time counts a span only when no ancestor has the same name, so
    nested edge scans (``boundary`` calls ``restrict``) are not counted twice.
    Self time is a span's duration minus the durations of its direct children.
    """
    by_id = {s[0]: s for s in spans}
    own = self_times(spans)
    out: dict[str, dict] = defaultdict(lambda: defaultdict(float))
    for sid, parent, name, t0, t1, counts in spans:
        agg = out[name]
        agg["calls"] += 1
        agg["self_s"] += own[sid]
        while parent is not None and by_id[parent][2] != name:
            parent = by_id[parent][1]
        if parent is None:
            agg["s"] += t1 - t0
        for key, value in (counts or {}).items():
            agg[key] += value
    return out


def self_times(spans) -> dict[int, float]:
    """Each span's duration minus the durations of its direct children."""
    own = {s[0]: s[4] - s[3] for s in spans}
    for s in spans:
        if s[1] is not None:
            own[s[1]] -= s[4] - s[3]
    return own


def span_module(name: str) -> str:
    return name.split(".", 1)[0]


def within(spans, names) -> set[int]:
    """Ids of spans named in ``names`` and of every span below one of them."""
    inside: set[int] = set()
    for s in spans:  # parents precede children, so one forward pass suffices
        if s[2] in names or s[1] in inside:
            inside.add(s[0])
    return inside
