"""generate -> design -> simulate through the CLI, against recorded outputs.

Each directory under ``data/`` holds an experiment config, with the
generator spec of its network and the ``network.json`` that the per-edge
generator wrote from it unless the network is inline, and the
``design.json``, ``summary.json`` and ``batch_1.csv`` that the pipeline wrote
for them.  ``e2e-exact`` runs the inverse shortcut on bistable nodes, mixing
exactly reconstructed nodes with zero-gain Theorem-2 subsets; ``e2e-partial``
measures two of three Lorenz coordinates, so every subset synthesizes gains.
``e2e-select`` runs bistable nodes with no shortcut: it measures 5 of 16
nodes, three subsets certify with gains on fewer nodes than they hold, and
the root (1, 2, 3, 4, 6, 7) retries synthesis after a first call that the
gain-free bound proves ``Infeasible`` before any descent step.
Every case has a generator spec, so the CI's installed-package step runs
each.  Decisions (measured nodes, theorems, statuses, counts) must match
exactly, floats to a relative 1e-12.
"""

import json
import math
import shutil
import warnings
from pathlib import Path

import pytest

from hyperobs import Hyperedge, Infeasible, assembly, designer
from hyperobs.assembly import gain_free_bound, one_root, refutes
from hyperobs.cli import main
from hyperobs.config import (
    build_system,
    design_relevant_hash,
    load_config,
    read_json,
    resolve_hypergraph,
)
from hyperobs.designer import design_report, read_design_report

DATA = Path(__file__).parent / "data"
RTOL = 1e-12


def assert_matches(got, expect, where="$"):
    """Equal structure and non-float leaves, floats to a relative ``RTOL``."""
    if isinstance(expect, float) or isinstance(got, float):
        assert isinstance(got, (int, float)) and isinstance(expect, (int, float)), where
        assert math.isclose(got, expect, rel_tol=RTOL, abs_tol=0.0), (where, got, expect)
    elif isinstance(expect, dict):
        assert isinstance(got, dict) and list(got) == list(expect), where
        for key in expect:
            assert_matches(got[key], expect[key], f"{where}.{key}")
    elif isinstance(expect, list):
        assert isinstance(got, list) and len(got) == len(expect), where
        for k, (g, e) in enumerate(zip(got, expect)):
            assert_matches(g, e, f"{where}[{k}]")
    else:
        assert got == expect, (where, got, expect)


def read_csv(path):
    header, *rows = path.read_text().splitlines()
    return header, [[float(v) for v in row.split(",")] for row in rows]


def recorded_run(case, tmp_path):
    """The config path, the system and the config hash of the recorded
    ``case``, its network generated in ``tmp_path`` when it has a spec."""
    recorded = DATA / case
    shutil.copy(recorded / "config.json", tmp_path / "config.json")
    if (recorded / "spec.json").exists():
        assert main(["generate", "--spec", str(recorded / "spec.json"),
                     "--out", str(tmp_path / "network.json")]) == 0
    doc = load_config(tmp_path / "config.json")
    hypergraph = resolve_hypergraph(doc, tmp_path)
    return tmp_path / "config.json", build_system(doc, hypergraph), design_relevant_hash(
        doc, hypergraph)


def run_and_compare(case, tmp_path):
    """generate (when the case has a spec), design and simulate the recorded
    ``case`` in ``tmp_path`` and compare the outputs with the recorded ones."""
    recorded = DATA / case
    config, out = str(recorded_run(case, tmp_path)[0]), tmp_path / "out"
    assert main(["design", "--config", config, "--out-dir", str(out)]) == 0
    assert main(["simulate", "--config", config, "--design", str(out / "design.json"),
                 "--out-dir", str(out)]) == 0
    for name in ("design.json", "summary.json"):
        got = json.loads((out / name).read_text())
        assert_matches(got, json.loads((recorded / name).read_text()), name)
    got_header, got_rows = read_csv(out / "batch_1.csv")
    expect_header, expect_rows = read_csv(recorded / "batch_1.csv")
    assert got_header == expect_header
    assert_matches(got_rows, expect_rows, "batch_1.csv")


CASES = sorted(path.name for path in DATA.iterdir())


@pytest.mark.parametrize("case", CASES)
def test_pipeline_reproduces_recorded_outputs(case, tmp_path):
    run_and_compare(case, tmp_path)


@pytest.mark.parametrize("case", CASES)
def test_generate_writes_the_recorded_network(case, tmp_path):
    # the network that generate wrote one draw and one Hyperedge at a time,
    # as a JSON value: the file now holds one edge per line
    out = tmp_path / "network.json"
    assert main(["generate", "--spec", str(DATA / case / "spec.json"), "--out", str(out)]) == 0
    assert read_json(out) == read_json(DATA / case / "network.json")
    assert len(out.read_text().splitlines()) == len(read_json(out)["edges"]) + 2


def test_pipeline_builds_no_hyperedge(tmp_path, monkeypatch):
    # generate, design and simulate hold a valid network as arrays alone
    built, real = [], Hyperedge.__post_init__
    monkeypatch.setattr(Hyperedge, "__post_init__", lambda edge: built.append(edge) or real(edge))
    run_and_compare("e2e-exact", tmp_path)
    assert built == []


@pytest.mark.parametrize("case", CASES)
def test_recorded_design_round_trips(case, tmp_path):
    # every field of a report is read back and written again unchanged
    report = json.loads((DATA / case / "design.json").read_text())
    _, system, config_hash = recorded_run(case, tmp_path)
    outcome, f_bound = read_design_report(report, system, config_hash)
    assert design_report(outcome, config_hash, f_bound) == report


@pytest.mark.parametrize("case", CASES)
def test_every_infeasible_synthesis_is_proven(case, tmp_path, usable_cpus, monkeypatch):
    # every design_gain_thm2 call, run in process, returns gains or proves
    # Infeasible: none ends on the iteration budget.  On e2e-select the root
    # (1, 2, 3, 4, 6, 7) with node 2 measured is refuted by the gain-free
    # bound, which the floors of its unmeasured nodes leave open
    usable_cpus(1)
    failed, real = {}, designer.design_gain_thm2

    def synthesize(stack, measured, h_req):
        try:
            return real(stack, measured, h_req)
        except Infeasible as exc:
            nodes = one_root(stack)
            floor = stack.floors[0][[v for v in nodes if v not in measured]].max(initial=-math.inf)
            failed[nodes, tuple(measured)] = (str(exc), gain_free_bound(stack, measured),
                                              refutes(floor, stack.dim, stack.a_max[0], h_req))
            raise

    monkeypatch.setattr(designer, "design_gain_thm2", synthesize)
    config = str(recorded_run(case, tmp_path)[0])
    assert main(["design", "--config", config, "--out-dir", str(tmp_path / "out")]) == 0
    assert all(message.startswith(f"subset {nodes}: ")
               for (nodes, _), (message, _, _) in failed.items())
    if case == "e2e-select":
        ((nodes, measured), (message, c, by_floors)), = failed.items()
        assert (nodes, measured, by_floors) == ((1, 2, 3, 4, 6, 7), (2,), False)
        assert c == pytest.approx(-0.1551, abs=1e-4) and c >= -0.25
        assert message == (f"subset {nodes}: a direction no gain reaches holds {c:.4g}, "
                           "margin 0.25 is unattainable for any gains")


@pytest.mark.parametrize("case", ["e2e-partial", "e2e-select"])
def test_pool_and_in_process_designs_are_byte_identical(case, tmp_path, usable_cpus):
    # one usable CPU synthesizes every root in process, two fork a pool
    config, written = str(recorded_run(case, tmp_path)[0]), []
    for cpus in (1, 2):
        usable_cpus(cpus)
        out = tmp_path / f"out-{cpus}"
        assert main(["design", "--config", config, "--out-dir", str(out)]) == 0
        written.append((out / "design.json").read_bytes())
    assert written[0] == written[1]


def _gain_across_subsets(key):
    """An e2e-partial edit adding gain ``key``: nodes 0 and 3 are measured
    while certifying two different Theorem-2 subsets, so neither certificate
    accounts for a gain coupling them, which would move the simulated error
    while the robustness bound stays put."""
    def edit(report):
        gains = report["outcome"]["design"]["gains"]
        gains[key] = gains["0,0"]
    return edit


def _exact_node_0(report):
    """An e2e-partial edit making node 0 of the first subset, [0, 1, 2], a
    one-node "exact" subset and dropping the gains on it: only the output
    map, whose 2-by-3 Gamma has no inverse, refuses the report."""
    outcome = report["outcome"]
    design, first = outcome["design"], outcome["processed_subsets"][0]
    design["exact_nodes"] = [0]
    design["gains"] = {k: v for k, v in design["gains"].items() if "0" not in k.split(",")}
    first.update(nodes=[1, 2], added_measured=[1, 2])
    outcome["processed_subsets"].insert(0, {
        "nodes": [0], "added_measured": [0], "iteration": 1,
        "report": {"theorem_used": "exact", "hurwitz_margin": "inf", "sample_count": 0,
                   "g_bound": None},
    })


def _measure_node_2(exact, added=False):
    """An e2e-exact edit listing node 2, of the "thm2" subset [2, 3], as
    measured, and as exact with ``exact``; with ``added``, that subset
    states it measured too."""
    def edit(report):
        design = report["outcome"]["design"]
        design["measured"] = sorted(design["measured"] + [2])
        if exact:
            design["exact_nodes"] = sorted(design["exact_nodes"] + [2])
        if added:
            subset, = (p for p in report["outcome"]["processed_subsets"] if p["nodes"] == [2, 3])
            subset["added_measured"] = [2]
    return edit


def _with_h2_margin(report):
    """The report in the layout that the removed Theorem-1 route wrote:
    every subset's report holds a null ``h2_margin``."""
    for p in report["outcome"]["processed_subsets"]:
        p["report"] = {**p["report"], "h2_margin": None}


# (recorded case, edit) pairs that simulate must refuse, exit 4
MALFORMED_RECORDED_REPORTS = {
    "gain_across_subsets_0,3": ("e2e-partial", _gain_across_subsets("0,3")),
    "gain_across_subsets_3,0": ("e2e-partial", _gain_across_subsets("3,0")),
    "exact_node_without_inverse": ("e2e-partial", _exact_node_0),
    # a report states each measured node, and each exact one, twice
    "measured_node_no_subset_added": ("e2e-exact", _measure_node_2(exact=False)),
    "exact_node_of_a_thm2_subset": ("e2e-exact", _measure_node_2(exact=True)),
    "exact_node_added_by_a_thm2_subset": ("e2e-exact", _measure_node_2(exact=True, added=True)),
    "old_layout_with_h2_margin": ("e2e-exact", _with_h2_margin),
}


@pytest.mark.parametrize("name", sorted(MALFORMED_RECORDED_REPORTS))
def test_malformed_recorded_report_exits_4(name, tmp_path, caplog):
    case, edit = MALFORMED_RECORDED_REPORTS[name]
    config, _, _ = recorded_run(case, tmp_path)
    report = json.loads((DATA / case / "design.json").read_text())
    edit(report)
    (tmp_path / "design.json").write_text(json.dumps(report))
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(config), "--design", str(tmp_path / "design.json"),
                 "--out-dir", str(out)]) == 4
    assert f"malformed design report {tmp_path / 'design.json'}" in caplog.text
    assert not (out / "summary.json").exists()


@pytest.mark.parametrize("noise", [1e154, 1e200])
def test_overflowing_robustness_bound_is_written_inf(noise, tmp_path):
    # every subset's bound is finite, the sum of their squares is not
    recorded = DATA / "e2e-exact"
    shutil.copy(recorded / "spec.json", tmp_path / "spec.json")
    doc = json.loads((recorded / "config.json").read_text())
    doc["sim"]["noise"] = noise
    (tmp_path / "config.json").write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main(["generate", "--spec", str(tmp_path / "spec.json"),
                 "--out", str(tmp_path / "network.json")]) == 0
    # the error norms' sums of squares overflow at this noise too, but the
    # errors are finite floats: their norms are scaled, with no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = main(["simulate", "--config", str(tmp_path / "config.json"),
                     "--design", str(recorded / "design.json"), "--out-dir", str(out)])
    assert code == 3
    # strict JSON: read_json refuses the Infinity literal
    (batch,) = read_json(out / "summary.json")["batches"]
    assert batch["robustness_bound"] == "inf"
    assert noise / 10 < batch["max_error"] < math.inf


def test_refuted_subsets_skip_the_full_stack_check(tmp_path, monkeypatch):
    # every multi-node root of e2e-exact that fails zero-gain Theorem 2 is
    # refuted by a diagonal block and never reaches the check over its whole
    # A_S, the other multi-node roots pass it, and the outputs are still the
    # recorded ones; so is the one-node root (0,), whose one block is its
    # whole A_S
    refuted, checked, kernel_rows = [], [], []
    real_refuted, real_check = designer.thm2_refuted, designer.check_roots
    real_kernel = assembly.top_eig_max

    def count_refuted(stack, h_req):
        out = real_refuted(stack, h_req)
        refuted.extend(tuple(S) for S, hit in zip(stack.roots.tolist(), out) if hit)
        return out

    def kernel(chunks):
        worst = real_kernel(chunks)
        kernel_rows.append(len(worst))
        return worst

    def check(stack, h_req, roots=slice(None), B=None):
        # the kernel calls of the zero-gain checks, not of the node floors
        with monkeypatch.context() as mp:
            mp.setattr(assembly, "top_eig_max", kernel)
            reports = real_check(stack, h_req, roots, B)
        checked.extend((tuple(S), report.theorem_used == "thm2")
                       for S, report in zip(stack.roots[roots].tolist(), reports))
        return reports

    monkeypatch.setattr(designer, "thm2_refuted", count_refuted)
    monkeypatch.setattr(designer, "check_roots", check)
    run_and_compare("e2e-exact", tmp_path)
    assert len(refuted) == 6 and [nodes for nodes in refuted if len(nodes) == 1] == [(0,)]
    assert sum(kernel_rows) == len(checked)
    assert not set(refuted) & {nodes for nodes, _ in checked}
    assert all(passed for nodes, passed in checked if len(nodes) > 1)
