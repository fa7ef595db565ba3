import dataclasses
import functools
import importlib.util
import json
import math
import operator
import os
import re
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import hyperobs
from hyperobs import DesignOptions, SimConfig, TrajectoryEnsembleSpec, gain_design
from hyperobs.cli import main
from hyperobs.config import (
    _COUPLINGS,
    _FIELDS,
    _SIM_FIELDS,
    CONFIG_SCHEMA,
    ConfigError,
    build_design_options,
    build_ensemble_spec,
    build_sim_config,
    build_system,
    load_config,
    resolve_hypergraph,
    validate_config,
)
from hyperobs.designer import design_report, read_design_report
from test_end_to_end import assert_matches, read_csv


def cohead_config(**sim_overrides):
    """Inline 3-node system: chaotic source feeding a co-head pair."""
    sim = {
        "dt": 1e-3, "horizon": 0.5, "runs": 4, "seed": 3,
        "x0_box": [-3, 3], "observer_init_width": 0.2,
    }
    sim.update(sim_overrides)
    return {
        "name": "cohead-test",
        "hypergraph": {
            "inline": {
                "num_nodes": 3,
                "edges": [
                    {"tails": [0], "heads": [1, 2], "alpha": [1.0],
                     "beta": [0.5, 0.5], "sigma": 80.0},
                    {"tails": [0], "heads": [2], "alpha": [1.0],
                     "beta": [1.0], "sigma": 80.0},
                ],
            }
        },
        "dynamics": {
            "field": {"name": "lorenz", "params": [10.0, 28.0, 8.0 / 3.0]},
            "coupling": {"name": "tanh", "params": [0.2, 0.05, 2.0]},
            "output": {"identity": True},
        },
        "design": {
            "margin": 2.0,
            "trajectories": {"count": 6, "horizon": 0.4, "dt": 1e-3,
                             "subsample": 10, "box": [-3, 3], "seed": 5},
        },
        "sim": sim,
    }


class TestConfigValidation:
    def test_valid_config_passes(self):
        validate_config(cohead_config())

    def test_unknown_key_rejected(self):
        doc = cohead_config()
        doc["surprise"] = 1
        with pytest.raises(ConfigError):
            validate_config(doc)
        doc = cohead_config()
        doc["sim"]["warp"] = True
        with pytest.raises(ConfigError):
            validate_config(doc)

    def test_missing_required_section_rejected(self):
        doc = cohead_config()
        del doc["design"]
        with pytest.raises(ConfigError):
            validate_config(doc)

    def test_schema_is_published(self):
        assert CONFIG_SCHEMA["properties"]["batch"]["properties"]["variable"]["enum"]

    def test_schema_is_well_formed(self):
        jsonschema.Draft202012Validator.check_schema(CONFIG_SCHEMA)

    def test_build_system_round_trip(self):
        doc = cohead_config()
        h = resolve_hypergraph(doc, Path("."))
        sys_ = build_system(doc, h)
        assert sys_.num_nodes == 3 and sys_.state_dim == 3
        assert sys_.output.invertible

    def test_matrix_output(self):
        doc = cohead_config()
        doc["dynamics"]["output"] = {"matrix": [[0, 1, 0], [0, 0, 1]]}
        sys_ = build_system(doc, resolve_hypergraph(doc, Path(".")))
        assert sys_.output.output_dim == 2 and not sys_.output.invertible

    def test_sim_overrides(self):
        cfg = build_sim_config(cohead_config(), seed=99, noise=0.5)
        assert cfg.seed == 99 and cfg.noise_amplitude == 0.5

    def test_unset_keys_take_dataclass_defaults(self):
        doc = cohead_config()
        doc["design"] = {
            "margin": 2.0,
            "trajectories": {"count": 6, "horizon": 0.4, "dt": 1e-3},
        }
        doc["sim"] = {"dt": 1e-3, "horizon": 0.5, "runs": 4}
        validate_config(doc)
        assert build_design_options(doc) == DesignOptions(margin=2.0)
        assert build_ensemble_spec(doc) == TrajectoryEnsembleSpec(6, 0.4, 1e-3)
        assert build_sim_config(doc) == SimConfig(dt=1e-3, horizon=0.5)

    def test_bad_param_counts(self):
        doc = cohead_config()
        doc["dynamics"]["field"]["params"] = [1.0]
        with pytest.raises(ConfigError):
            build_system(doc, resolve_hypergraph(doc, Path(".")))


# the values are the defaults these keys had, so only the key can be at fault
REMOVED_DESIGN_KEYS = {
    "rho": 10.0, "eps_req": 0.5, "kron_cap": 40,
    "thm1_fallback": True, "thm1_placement": False, "restarts": 3, "max_iters": 5000,
}


def _field_names(cls) -> set[str]:
    return {f.name for f in dataclasses.fields(cls)}


class TestSchemaMatchesDataclasses:
    def test_design_keys_are_design_options_fields(self):
        # design.seed is accepted and dropped: no design step reads it
        keys = set(CONFIG_SCHEMA["properties"]["design"]["properties"])
        assert keys - {"trajectories", "seed"} == _field_names(DesignOptions)

    def test_trajectory_keys_are_ensemble_spec_fields(self):
        design = CONFIG_SCHEMA["properties"]["design"]["properties"]
        assert set(design["trajectories"]["properties"]) == _field_names(TrajectoryEnsembleSpec)

    def test_sim_keys_are_mapped_or_read_by_the_cli(self):
        keys = set(CONFIG_SCHEMA["properties"]["sim"]["properties"])
        assert keys == set(_SIM_FIELDS) | {"runs", "downsample_rows"}

    @pytest.mark.parametrize("key", sorted(REMOVED_DESIGN_KEYS))
    def test_removed_design_key_rejected(self, key, tmp_path):
        doc = cohead_config()
        doc["design"][key] = REMOVED_DESIGN_KEYS[key]
        with pytest.raises(ConfigError):
            validate_config(doc)
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(doc))
        assert main(["design", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 4
        assert not (tmp_path / "design.json").exists()


def _load_bench_module(name):
    path = Path(__file__).resolve().parents[1] / "bench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"bench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


BENCH_WORKLOADS = _load_bench_module("workloads").WORKLOADS


@pytest.mark.parametrize("name", sorted(BENCH_WORKLOADS))
def test_bench_workload_config_builds(name):
    # a schema cut must not break the benchmark's configs unnoticed
    _, doc = BENCH_WORKLOADS[name](1)
    validate_config(doc)
    assert isinstance(build_design_options(doc), DesignOptions)
    assert isinstance(build_ensemble_spec(doc), TrajectoryEnsembleSpec)
    assert isinstance(build_sim_config(doc), SimConfig)


# traced names deleted on purpose: every fact about the edges entering a
# subset now comes from one slice, ``DirectedHypergraph.entering``, and the
# dependency pattern is the arc arrays of ``dependency_arcs``.  The benchmark
# reports them as missing targets until its next change retargets the spans
DELETED_SPAN_TARGETS = {
    ("hypergraph", "DirectedHypergraph.incoming"),
    ("hypergraph", "DirectedHypergraph.incoming_closure"),
    ("hypergraph", "DirectedHypergraph.restrict"),
    ("hypergraph", "DirectedHypergraph.boundary"),
    ("hypergraph", "DirectedHypergraph.tails_of"),
    ("hypergraph", "DirectedHypergraph.degrees"),
    ("assembly", "check_head_closed"),
    ("hypergraph", "to_dependency_graph"),
    # no caller in the package: ``certify_pass`` on a stack of one root
    ("designer", "certify_or_fail"),
    # the Theorem-1 route certified nothing on the bench workloads: every
    # certificate is a Theorem-2 one or an exact measurement
    ("assembly", "check_thm1"),
    ("assembly", "kron_sum"),
    # plain assembly functions now: ``ErrorSystem`` is gone, and every check
    # and synthesis runs on a ``RootStack``
    ("assembly", "ErrorSystem.a_matrix_batch"),
    ("assembly", "ErrorSystem.coupling_jac_bound"),
}


@pytest.mark.parametrize(
    "name, module_name, attr",
    [target[:3] for target in _load_bench_module("spans").TARGETS],
)
def test_bench_span_target_exists(name, module_name, attr):
    # a refactor that drops a traced name must fail here, not only show up
    # as a missing target in a traced benchmark run; a name deleted on
    # purpose must be listed above, and must stay deleted
    deleted = (module_name, attr) in DELETED_SPAN_TARGETS
    owner = importlib.import_module(f"hyperobs.{module_name}")
    if "." in attr:
        # a deleted class holds no attribute
        cls_name, attr = attr.split(".")
        cls = vars(owner).get(cls_name)
        assert (cls is not None and attr in vars(cls)) != deleted, name
    else:
        assert callable(getattr(owner, attr, None)) != deleted, name


# each is JSON that the generator schema rejects: (spec from a valid one,
# extra command-line arguments)
MALFORMED_GENERATOR_SPECS = {
    "layer_sizes_not_a_list": (lambda doc: {**doc, "layer_sizes": 5}, []),
    "seed_null": (lambda doc: {**doc, "seed": None}, []),
    "top_level_array": (lambda doc: [doc], []),
    "top_level_array_with_seed": (lambda doc: [doc], ["--seed", "8"]),
}


class TestGenerateCommand:
    def spec_doc(self):
        return {
            "layer_sizes": [5, 5], "cardinality": 3,
            "src_intra": [1, 1], "snk_intra": [1, 1],
            "src_inter": [1], "snk_inter": [1], "seed": 7, "sigma": 2.0,
        }

    def test_generate_writes_deterministic_file(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(self.spec_doc()))
        out1, out2 = tmp_path / "h1.json", tmp_path / "h2.json"
        assert main(["generate", "--spec", str(spec), "--out", str(out1)]) == 0
        assert main(["generate", "--spec", str(spec), "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        doc = json.loads(out1.read_text())
        assert doc["num_nodes"] == 10 and len(doc["edges"]) == 6

    def test_generate_seed_override_changes_output(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(self.spec_doc()))
        out1, out2 = tmp_path / "h1.json", tmp_path / "h2.json"
        main(["generate", "--spec", str(spec), "--out", str(out1)])
        main(["generate", "--spec", str(spec), "--out", str(out2), "--seed", "8"])
        assert out1.read_bytes() != out2.read_bytes()

    def test_generate_bad_spec_exits_4(self, tmp_path):
        spec = tmp_path / "spec.json"
        doc = self.spec_doc()
        doc["layer_sizes"] = [1, 1]
        spec.write_text(json.dumps(doc))
        assert main(["generate", "--spec", str(spec), "--out", str(tmp_path / "x.json")]) == 4

    @pytest.mark.parametrize("case", sorted(MALFORMED_GENERATOR_SPECS))
    def test_generate_malformed_spec_exits_4(self, case, tmp_path):
        malformed, extra = MALFORMED_GENERATOR_SPECS[case]
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(malformed(self.spec_doc())))
        out = tmp_path / "x.json"
        assert main(["generate", "--spec", str(spec), "--out", str(out), *extra]) == 4
        assert not out.exists()

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_generate_non_finite_spec_exits_4(self, value, tmp_path):
        # json writes and reads NaN and Infinity; sigma's schema bound lets both through
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({**self.spec_doc(), "sigma": value}))
        out = tmp_path / "x.json"
        assert main(["generate", "--spec", str(spec), "--out", str(out)]) == 4
        assert not out.exists()

    def test_generate_seed_from_command_line_only(self, tmp_path):
        spec = tmp_path / "spec.json"
        doc = self.spec_doc()
        del doc["seed"]
        spec.write_text(json.dumps(doc))
        out = tmp_path / "x.json"
        assert main(["generate", "--spec", str(spec), "--out", str(out)]) == 4
        assert not out.exists()
        assert main(["generate", "--spec", str(spec), "--out", str(out), "--seed", "7"]) == 0
        assert json.loads(out.read_text())["num_nodes"] == 10


def _edges(doc):
    return doc["hypergraph"]["inline"]["edges"]


# each passes the schema but not the types the config builds
SCHEMA_VALID_BAD_CONFIGS = {
    "output_more_rows_than_columns": lambda doc: doc["dynamics"].update(
        output={"matrix": [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]]}),
    "output_ragged": lambda doc: doc["dynamics"].update(
        output={"matrix": [[1, 0, 0], [0, 1]]}),
    "alpha_sums_to_0.9": lambda doc: _edges(doc)[0].update(
        tails=[0, 1], heads=[2], alpha=[0.5, 0.4], beta=[1.0]),
    "head_out_of_range": lambda doc: _edges(doc)[1].update(heads=[3]),
    "tail_is_a_head": lambda doc: _edges(doc)[1].update(tails=[2]),
    "bistable_negative_param": lambda doc: doc["dynamics"].update(
        field={"name": "bistable", "params": [-1, 2]}, output={"identity": True}),
    "shortcut_with_non_invertible_output": lambda doc: (
        doc["design"].update(use_inverse_shortcut=True),
        doc["dynamics"].update(output={"matrix": [[0, 1, 0], [0, 0, 1]]})),
}

def _network(**edge):
    """A one-edge network document; ``edge`` adds keys, None drops one."""
    base = {"tails": [0], "heads": [1], "alpha": [1.0], "beta": [1.0], **edge}
    return {"num_nodes": 3, "edges": [{k: v for k, v in base.items() if v is not None}]}


# each is a network the hypergraph schema refuses, in a file a config names or
# inline: (document, JSON path of the fault in it, message)
BAD_HYPERGRAPH_FILES = {
    "no_edges": ({"num_nodes": 3}, "", "'edges' is a required property"),
    "edge_without_weights": (
        _network(alpha=None, beta=None), ".edges[0]", "'alpha' is a required property"),
    "unknown_edge_key": (_network(typo_weight=7), ".edges[0]",
                         "Additional properties are not allowed ('typo_weight' was unexpected)"),
    "string_node_id": (_network(tails=["0"]), ".edges[0].tails[0]", "'0' is not of type 'integer'"),
    "float_node_id": (_network(heads=[1.0]), ".edges[0].heads[0]", "1.0 is not of type 'integer'"),
    "fractional_num_nodes": (
        {**_network(), "num_nodes": 3.5}, ".num_nodes", "3.5 is not of type 'integer'"),
    "missing_alpha": (_network(alpha=None), ".edges[0]", "'alpha' is a required property"),
}


def _design(report):
    return report["outcome"]["design"]


def _with_gain_block(block, key="2,2", added=True):
    """A report edit measuring node 2 and adding the gain ``block`` under
    ``key``; with ``added``, node 2 is measured while certifying its subset,
    the last, by Theorem 2, so that gain "2,2" of a finite 3-by-3 block is
    sound (``test_sound_gain_edit_is_simulated``)."""
    def edit(report):
        _design(report)["measured"].append(2)
        _design(report)["gains"][key] = block
        if added:
            report["outcome"]["processed_subsets"][-1]["added_measured"] = [2]
    return edit


def _with_gain(entry, key="2,2", added=True):
    """``_with_gain_block`` of a block whose first entry is ``entry``."""
    return _with_gain_block([[entry, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]], key, added)


def _with_report(k, **fields):
    """A report edit setting ``fields`` in the report of processed subset k."""
    return lambda report: report["outcome"]["processed_subsets"][k]["report"].update(fields)


# each edits a design report that simulate and batch must refuse, exit 4
MALFORMED_DESIGN_REPORTS = {
    "missing_outcome": lambda report: report.pop("outcome"),
    "unparsable_report_float": lambda report: report["outcome"]["processed_subsets"][0][
        "report"].update(hurwitz_margin="abc"),
    "gain_block_wrong_shape": _with_gain_block([[1.0]]),
    "exact_node_not_measured": lambda report: _design(report).update(exact_nodes=[0, 1, 2]),
    "measured_id_out_of_range": lambda report: _design(report).update(measured=[0, 1, 3]),
    "missing_f_bound": lambda report: report.pop("f_bound"),
    "nonpositive_margin": lambda report: [
        p["report"].update(hurwitz_margin=-1.0)
        for p in report["outcome"]["processed_subsets"] if p["report"]["theorem_used"] == "thm2"],
    "downstream_subset_first": lambda report: report["outcome"]["processed_subsets"].reverse(),
    # the dataclasses would read these as nodes 0, 0, 1, 2 and 0
    "measured_id_fraction": lambda report: _design(report).update(measured=[0.5, 1]),
    "measured_id_boolean": lambda report: _design(report).update(measured=[False, 1]),
    "exact_node_id_float": lambda report: _design(report).update(exact_nodes=[0, 1.0]),
    "subset_node_id_float": lambda report: report["outcome"]["processed_subsets"][-1].update(
        nodes=[2.0]),
    "added_measured_id_float": lambda report: report["outcome"]["processed_subsets"][0].update(
        added_measured=[0.0]),
    # a complete design's subsets cover every node once
    "last_subset_dropped": lambda report: report["outcome"]["processed_subsets"].pop(),
    "subset_listed_twice": lambda report: report["outcome"]["processed_subsets"].append(
        report["outcome"]["processed_subsets"][-1]),
    # to_json_dict writes every one of these keys
    "missing_gains": lambda report: _design(report).pop("gains"),
    "missing_exact_nodes": lambda report: _design(report).pop("exact_nodes"),
    "missing_processed_subsets": lambda report: report["outcome"].pop("processed_subsets"),
    # a report states each fact once: the worst value is -hurwitz_margin
    "report_carries_worst_value": lambda report: [
        p["report"].update(worst_value=-float(p["report"]["hurwitz_margin"]))
        for p in report["outcome"]["processed_subsets"]],
    # json writes and reads NaN and Infinity; JSON has no such literal
    "gain_nan_literal": _with_gain(math.nan),
    "gain_infinity_literal": _with_gain(math.inf),
    "gain_entry_string": _with_gain("-5.0"),
    "gain_entry_inf_string": _with_gain("inf"),
    "gain_entry_boolean": _with_gain(True),
    # json writes and reads it as an int, which numpy cannot make a float
    "gain_entry_401_digit_integer": _with_gain(10**400),
    # int() reads each as gain (2, 2), and a later key would silently win
    "gain_key_leading_zero": _with_gain(1.0, "02,2"),
    "gain_key_leading_space": _with_gain(1.0, " 2,2"),
    "gain_key_plus_sign": _with_gain(1.0, "+2,2"),
    "gain_key_inner_space": _with_gain(1.0, "2, 2"),
    # a gain acts only within a Theorem-2 subset, from a node measured while
    # certifying it: no certificate accounts for any other
    "gain_row_in_exact_subset": _with_gain(1.0, "0,2"),
    "gain_column_in_exact_subset": _with_gain(1.0, "2,0"),
    "gain_on_zero_gain_certificate": _with_gain(1.0, added=False),
    "added_measured_outside_subset": lambda report: report["outcome"]["processed_subsets"][
        -1].update(added_measured=[0]),
    "added_measured_unmeasured": lambda report: report["outcome"]["processed_subsets"][
        -1].update(added_measured=[2]),
    # a report states each measured node twice: no subset measured node 2
    "measured_node_no_subset_added": lambda report: _design(report).update(measured=[0, 1, 2]),
    # the JSON types the writer writes: dict([]) would read [] as no gains,
    # and float() reads "50.5" and true
    "gains_list": lambda report: _design(report).update(gains=[]),
    "gains_null": lambda report: _design(report).update(gains=None),
    "f_bound_string": lambda report: report.update(f_bound=str(report["f_bound"])),
    "f_bound_boolean": lambda report: report.update(f_bound=True),
    "iteration_string": lambda report: report["outcome"]["processed_subsets"][0].update(
        iteration="x"),
    "unknown_status": lambda report: report["outcome"].update(status="weird"),
    "complete_with_failed_subset": lambda report: report["outcome"].update(failed_subset=[2]),
    # the writer writes every key and no other
    "missing_failed_subset": lambda report: report["outcome"].pop("failed_subset"),
    "outcome_extra_key": lambda report: report["outcome"].update(note="hand-edited"),
    # a complete design labels a subset "exact" when it is one node of
    # exact_nodes, and any other subset "thm2"
    "thm2_subset_labelled_exact": _with_report(-1, theorem_used="exact"),
    "exact_subsets_merged": lambda report: report["outcome"]["processed_subsets"][0].update(
        nodes=[0, 1], added_measured=[0, 1]) or report["outcome"]["processed_subsets"].pop(1),
    "exact_subset_labelled_thm2": _with_report(0, theorem_used="thm2"),
    "unknown_label": _with_report(-1, theorem_used="thm9"),
    "none_label_in_complete_design": _with_report(-1, theorem_used="none"),
    # a report holds the JSON types to_json_dict writes: the dataclass takes
    # any count, and float() reads true and "0.3"
    "sample_count_fraction": _with_report(-1, sample_count=0.5),
    "sample_count_negative": _with_report(-1, sample_count=-1),
    "hurwitz_margin_boolean": _with_report(-1, hurwitz_margin=True),
    "g_bound_numeric_string": _with_report(-1, g_bound="0.3"),
    # reports of the removed Theorem-1 route: its H2 slack key, and its label
    "report_holds_h2_margin": _with_report(-1, h2_margin=None),
    "thm1_subset": _with_report(-1, theorem_used="thm1"),
    # the design.seed that no design step read
    "report_holds_seed": lambda report: report.update(seed=0),
}

# the refusal each names, where a test pins it
REFUSAL_MESSAGES = {
    "report_holds_h2_margin": "processed_subsets[2].report is not an object with exactly the "
                              "keys theorem_used hurwitz_margin sample_count g_bound",
    "thm1_subset": "processed_subsets[2]: theorem_used 'thm1' is not a known label",
    "report_holds_seed": "the report is not an object with exactly the keys "
                         "config_hash f_bound outcome",
}


# integer keys given as integral floats, which Draft 2020-12 calls integers:
# each reached range() or a seed as a float
INTEGRAL_FLOAT_VALUES = {
    "sim.runs": 3.0, "sim.seed": 13.0, "design.trajectories.count": 4.0,
    "design.trajectories.subsample": 5.0, "design.trajectories.seed": 11.0,
}


# settings whose uniform draw has no finite width, numpy's "high - low" of
# [-w, w) for a width w: each is refused with exit 4
UNDRAWABLE_INTERVALS = [
    ("design.trajectories.box", [3.0, -3.0]),
    ("design.trajectories.box", [-1e308, 1e308]),
    ("sim.x0_box", [3.0, -3.0]),
    ("sim.x0_box", [-1e308, 1e308]),
    ("sim.observer_init_width", 1e308),
    ("sim.param_spread", 1e308),
    ("sim.noise", 1e308),
]


def cohead_system():
    doc = cohead_config()
    return build_system(doc, resolve_hypergraph(doc, Path(".")))


@pytest.fixture(scope="module")
def designed(tmp_path_factory):
    """Config + completed design report shared by the simulate/batch tests."""
    root = tmp_path_factory.mktemp("cli")
    cfg_path = root / "config.json"
    cfg_path.write_text(json.dumps(cohead_config(), indent=2))
    code = main(["design", "--config", str(cfg_path), "--out-dir", str(root)])
    assert code == 0
    return cfg_path, root / "design.json"


class TestDesignCommand:
    def test_design_report_contents(self, designed):
        _, report_path = designed
        report = json.loads(report_path.read_text())
        assert report["outcome"]["status"] == "complete"
        measured = report["outcome"]["design"]["measured"]
        assert measured == [0, 1]
        assert report["config_hash"]
        assert report["f_bound"] > 0

    def test_design_failure_exits_2(self, tmp_path, caplog, monkeypatch):
        doc = cohead_config()
        # x3-only output cannot certify chaotic singletons
        doc["dynamics"]["output"] = {"matrix": [[0.0, 0.0, 1.0]]}
        monkeypatch.setattr(gain_design, "MAX_ITERS", 50)
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(doc))
        assert main(["design", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 2
        report = json.loads((tmp_path / "design.json").read_text())
        assert report["outcome"]["status"] == "failed"
        assert report["outcome"]["failed_subset"] is not None
        # the failed subset's report has margin -inf; simulating still says "design failed"
        for command in ("simulate", "batch"):
            out = tmp_path / command
            assert main([command, "--config", str(cfg), "--design",
                         str(tmp_path / "design.json"), "--out-dir", str(out)]) == 2
            assert not (out / "summary.json").exists()
        assert "refusing to simulate" in caplog.text
        assert "malformed design report" not in caplog.text

    def test_bad_config_exits_4(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text("{\"nope\": 1}")
        assert main(["design", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 4

    def test_generator_config_exits_4_naming_the_key(self, tmp_path, caplog):
        # a run reads its network from a file or inline; ``generate`` writes the file
        doc = cohead_config()
        doc["hypergraph"] = {"generator": TestGenerateCommand().spec_doc()}
        with pytest.raises(ConfigError, match="'generator' was unexpected"):
            validate_config(doc)
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(doc))
        assert main(["design", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 4
        assert "'generator' was unexpected" in caplog.text
        assert not (tmp_path / "design.json").exists()

    def test_design_has_no_seed_flag(self, designed, tmp_path, capsys):
        # design.seed is recorded, never read: the flag that replaced it is gone
        cfg, _ = designed
        with pytest.raises(SystemExit) as refused:
            main(["design", "--config", str(cfg), "--out-dir", str(tmp_path), "--seed", "5"])
        assert refused.value.code == 2
        assert "unrecognized arguments: --seed 5" in capsys.readouterr().err
        assert not (tmp_path / "design.json").exists()

    def test_design_json_is_strict_and_lossless(self, designed):
        _, report_path = designed

        def reject(token):
            raise ValueError(f"non-standard JSON constant {token}")

        report = json.loads(report_path.read_text(), parse_constant=reject)
        exact = [p["report"] for p in report["outcome"]["processed_subsets"]
                 if p["report"]["theorem_used"] == "exact"]
        assert exact and all(r["hurwitz_margin"] == "inf" for r in exact)
        outcome, f_bound = read_design_report(report, cohead_system(), report["config_hash"])
        assert all(p.report.hurwitz_margin == math.inf for p in outcome.processed
                   if p.report.theorem_used == "exact")
        assert design_report(outcome, report["config_hash"], f_bound) == report

    @pytest.mark.parametrize("case", sorted(SCHEMA_VALID_BAD_CONFIGS))
    def test_schema_valid_bad_config_exits_4(self, case, tmp_path):
        doc = cohead_config()
        SCHEMA_VALID_BAD_CONFIGS[case](doc)
        validate_config(doc)
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(doc))
        assert main(["design", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 4
        assert not (tmp_path / "design.json").exists()

    @pytest.mark.parametrize("kind, name, count, message", [
        ("field", "lorenz", 3, "lorenz field takes 3 parameters"),
        ("field", "bistable", 2, "bistable field takes 2 parameters"),
        ("coupling", "tanh", 3, "tanh coupling takes 3 parameters"),
        ("coupling", "linear", 1, "linear coupling takes 1 parameter"),
    ])
    def test_one_parameter_too_many_exits_4(self, kind, name, count, message, tmp_path, caplog):
        doc = cohead_config()
        doc["dynamics"][kind] = {"name": name, "params": [1.0] * (count + 1)}
        validate_config(doc)
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(doc))
        assert main(["design", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 4
        assert message in caplog.text
        assert not (tmp_path / "design.json").exists()

    def test_model_enums_are_the_tables(self):
        dynamics = CONFIG_SCHEMA["properties"]["dynamics"]["properties"]
        assert dynamics["field"]["properties"]["name"]["enum"] == list(_FIELDS)
        assert dynamics["coupling"]["properties"]["name"]["enum"] == list(_COUPLINGS)
        assert sorted(_FIELDS) == ["bistable", "lorenz"]
        assert sorted(_COUPLINGS) == ["linear", "tanh"]

    @pytest.mark.parametrize("case", sorted(BAD_HYPERGRAPH_FILES))
    def test_bad_hypergraph_file_exits_4(self, case, tmp_path):
        # a file and an inline network are refused for one fault, with one message
        network, where, message = BAD_HYPERGRAPH_FILES[case]
        (tmp_path / "network.json").write_text(json.dumps(network))
        for form, root in (("file", "$"), ("inline", "$.hypergraph.inline")):
            doc = cohead_config()
            doc["hypergraph"] = {form: "network.json" if form == "file" else network}
            cfg = tmp_path / f"{form}.json"
            cfg.write_text(json.dumps(doc))
            with pytest.raises(ConfigError) as refused:
                resolve_hypergraph(load_config(cfg), tmp_path)
            assert str(refused.value).endswith(f"{root}{where}: {message}"), form
            out = tmp_path / form
            assert main(["design", "--config", str(cfg), "--out-dir", str(out)]) == 4
            assert not (out / "design.json").exists()

    def test_non_finite_hypergraph_file_exits_4(self, tmp_path):
        # json reads the NaN literal; read_json refuses it before the schema runs
        edge = {"tails": [0], "heads": [1, 2], "alpha": [1.0], "beta": [0.5, 0.5],
                "sigma": math.nan}
        (tmp_path / "network.json").write_text(json.dumps({"num_nodes": 3, "edges": [edge]}))
        doc = cohead_config()
        doc["hypergraph"] = {"file": "network.json"}
        with pytest.raises(ConfigError, match="NaN is not a JSON number"):
            resolve_hypergraph(doc, tmp_path)
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert main(["design", "--config", str(cfg), "--out-dir", str(out)]) == 4
        assert not (out / "design.json").exists()

    @pytest.mark.parametrize("form", ["inline", "file"])
    def test_network_without_nodes_exits_4(self, form, tmp_path):
        network = {"num_nodes": 0, "edges": []}
        doc = cohead_config()
        if form == "file":
            (tmp_path / "network.json").write_text(json.dumps(network))
            doc["hypergraph"] = {"file": "network.json"}
        else:
            doc["hypergraph"] = {"inline": network}
        validate_config(doc)
        with pytest.raises(ConfigError, match="no nodes"):
            resolve_hypergraph(doc, tmp_path)
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert main(["design", "--config", str(cfg), "--out-dir", str(out)]) == 4
        assert not (out / "design.json").exists()

    def test_node_id_past_intp_exits_4(self, tmp_path, caplog):
        # the schema admits any integer id >= 0; the network refuses 2**63
        # as out of range before an intp array would overflow on it
        edge = {"tails": [2**63], "heads": [0], "alpha": [1.0], "beta": [1.0]}
        (tmp_path / "network.json").write_text(json.dumps({"num_nodes": 3, "edges": [edge]}))
        doc = cohead_config()
        doc["hypergraph"] = {"file": "network.json"}
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert main(["design", "--config", str(cfg), "--out-dir", str(out)]) == 4
        assert f"node {2**63} outside [0, 3)" in caplog.text
        assert not (out / "design.json").exists()

    def test_negative_design_seed_exits_4(self, tmp_path, caplog):
        # numpy draws from no negative seed: a configuration error, not a
        # traceback
        doc = cohead_config()
        doc["design"]["trajectories"]["seed"] = -1
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(doc))
        assert main(["design", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 4
        assert "$.design.trajectories.seed: -1 breaks minimum 0" in caplog.text
        assert not (tmp_path / "design.json").exists()

    def test_one_sample_trajectories_exit_4(self, tmp_path):
        doc = cohead_config()
        # round(0.0004 / 1e-3) = 0 steps, fewer than subsample: one sample each
        doc["design"]["trajectories"].update(horizon=0.0004, dt=1e-3)
        validate_config(doc)
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(doc))
        assert main(["design", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 4
        assert not (tmp_path / "design.json").exists()


    def test_diverging_design_ensemble_exits_4_with_one_line(self, tmp_path, caplog):
        # a linear coupling of 1e5 throws the Lorenz design trajectories out
        # of the box within a step: one error line naming the trajectory and
        # the time, no warning and no design report
        doc = cohead_config()
        doc["dynamics"]["coupling"] = {"name": "linear", "params": [1e5]}
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(doc))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["design", "--config", str(cfg), "--out-dir", str(tmp_path)])
        assert code == 4
        errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
        assert len(errors) == 1 and re.fullmatch(r"trajectory \d+ leaves .* at t = .*", errors[0])
        assert not (tmp_path / "design.json").exists()


class TestSimulateAndBatch:
    def test_simulate_outputs(self, designed, tmp_path):
        cfg, design = designed
        out = tmp_path / "sim"
        assert main(["simulate", "--config", str(cfg), "--design", str(design),
                     "--out-dir", str(out)]) == 0
        csv = (out / "batch_1.csv").read_text().splitlines()
        assert csv[0] == "t,median,p25,p75"
        assert len(csv) > 10
        summary = json.loads((out / "summary.json").read_text())
        assert summary["batches"][0]["n_flagged"] == 0
        assert len(summary["batches"][0]["settling_times"]) == 4

    def test_simulate_deterministic(self, designed, tmp_path):
        cfg, design = designed
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            main(["simulate", "--config", str(cfg), "--design", str(design),
                  "--out-dir", str(out)])
        assert (a / "batch_1.csv").read_bytes() == (b / "batch_1.csv").read_bytes()
        assert (a / "summary.json").read_bytes() == (b / "summary.json").read_bytes()

    def test_batch_k1_equals_simulate_byte_for_byte(self, designed, tmp_path):
        cfg_path, design = designed
        doc = json.loads(cfg_path.read_text())
        doc["batch"] = {"variable": "noise", "values": [0.0]}
        cfg2 = tmp_path / "k1.json"
        cfg2.write_text(json.dumps(doc, indent=2))
        sim_dir, batch_dir = tmp_path / "s", tmp_path / "bt"
        assert main(["simulate", "--config", str(cfg2), "--design", str(design),
                     "--out-dir", str(sim_dir)]) == 0
        assert main(["batch", "--config", str(cfg2), "--design", str(design),
                     "--out-dir", str(batch_dir)]) == 0
        assert (sim_dir / "batch_1.csv").read_bytes() == (batch_dir / "batch_1.csv").read_bytes()
        assert (sim_dir / "summary.json").read_bytes() == (batch_dir / "summary.json").read_bytes()

    def test_batch_sweep_and_bound_monotonicity(self, designed, tmp_path):
        cfg_path, design = designed
        doc = json.loads(cfg_path.read_text())
        doc["batch"] = {"variable": "noise", "values": [0.1, 0.2, 0.4]}
        cfg2 = tmp_path / "sweep.json"
        cfg2.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert main(["batch", "--config", str(cfg2), "--design", str(design),
                     "--out-dir", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert [b["csv"] for b in summary["batches"]] == [
            "batch_1.csv", "batch_2.csv", "batch_3.csv"]
        bounds = [b["robustness_bound"] for b in summary["batches"]]
        assert bounds[0] <= bounds[1] <= bounds[2]
        for name in ("batch_1.csv", "batch_2.csv", "batch_3.csv"):
            assert (out / name).exists()

    def test_batch_index_selects_one(self, designed, tmp_path):
        cfg_path, design = designed
        doc = json.loads(cfg_path.read_text())
        doc["batch"] = {"variable": "noise", "values": [0.1, 0.2]}
        cfg2 = tmp_path / "sel.json"
        cfg2.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert main(["batch", "--config", str(cfg2), "--design", str(design),
                     "--out-dir", str(out), "--batch-index", "2"]) == 0
        assert not (out / "batch_1.csv").exists()
        assert (out / "batch_2.csv").exists()

    def test_hash_mismatch_exits_4(self, designed, tmp_path):
        cfg_path, design = designed
        doc = json.loads(cfg_path.read_text())
        doc["design"]["margin"] = 2.5
        cfg2 = tmp_path / "drift.json"
        cfg2.write_text(json.dumps(doc))
        assert main(["simulate", "--config", str(cfg2), "--design", str(design),
                     "--out-dir", str(tmp_path / "o")]) == 4

    def test_sound_gain_edit_is_simulated(self, designed, tmp_path, caplog):
        # the malformed gain cases each break one thing of this edit
        cfg, design = designed
        report = json.loads(design.read_text())
        _with_gain(0.5)(report)
        edited = tmp_path / "design.json"
        edited.write_text(json.dumps(report))
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--design", str(edited),
                     "--out-dir", str(out)]) == 0
        outcome, _ = read_design_report(report, cohead_system(), report["config_hash"])
        assert outcome.design.gains.keys() == {(2, 2)}
        assert "malformed design report" not in caplog.text

    @pytest.mark.parametrize("command", ["simulate", "batch"])
    @pytest.mark.parametrize("case", sorted(MALFORMED_DESIGN_REPORTS))
    def test_malformed_design_report_exits_4(self, designed, tmp_path, case, command, caplog):
        cfg, design = designed
        report = json.loads(design.read_text())
        MALFORMED_DESIGN_REPORTS[case](report)
        bad = tmp_path / "design.json"
        bad.write_text(json.dumps(report))
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--design", str(bad),
                     "--out-dir", str(out)]) == 4
        assert "malformed design report" in caplog.text
        assert REFUSAL_MESSAGES.get(case, "") in caplog.text
        assert not (out / "summary.json").exists()

    def test_sub_step_horizon_exits_4(self, designed, tmp_path):
        cfg_path, design = designed
        doc = json.loads(cfg_path.read_text())
        # schema-valid, but round(0.0004 / 1e-3) = 0 steps
        doc["sim"].update(horizon=0.0004, dt=1e-3)
        validate_config(doc)
        cfg2 = tmp_path / "short.json"
        cfg2.write_text(json.dumps(doc))
        out = tmp_path / "o5"
        assert main(["simulate", "--config", str(cfg2), "--design", str(design),
                     "--out-dir", str(out)]) == 4
        assert not (out / "summary.json").exists()

    @pytest.mark.parametrize("key", sorted(INTEGRAL_FLOAT_VALUES))
    def test_integral_float_at_integer_key_exits_4(self, designed, key, tmp_path):
        cfg_path, design = designed
        doc = json.loads(cfg_path.read_text())
        *sections, leaf = key.split(".")
        functools.reduce(operator.getitem, sections, doc)[leaf] = INTEGRAL_FLOAT_VALUES[key]
        with pytest.raises(ConfigError, match=re.escape(f"$.{key}: ")):
            validate_config(doc)
        cfg2 = tmp_path / "float.json"
        cfg2.write_text(json.dumps(doc))
        out = tmp_path / "o7"
        assert main(["design", "--config", str(cfg2), "--out-dir", str(out)]) == 4
        assert main(["simulate", "--config", str(cfg2), "--design", str(design),
                     "--out-dir", str(out)]) == 4
        assert not out.exists()

    # a base seed of -1 is refused too, though batch 1 would draw from seed 0
    @pytest.mark.parametrize("seed", [-1, -2])
    @pytest.mark.parametrize("command", ["simulate", "batch"])
    def test_negative_sim_seed_exits_4(self, designed, seed, command, tmp_path, caplog):
        cfg_path, design = designed
        doc = json.loads(cfg_path.read_text())
        doc["sim"]["seed"] = seed
        cfg2 = tmp_path / "seed.json"
        cfg2.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg2), "--design", str(design),
                     "--out-dir", str(out)]) == 4
        assert f"$.sim.seed: {seed} breaks minimum 0" in caplog.text
        assert not out.exists()

    # not argparse's exit 2, which here says that the design failed
    @pytest.mark.parametrize("seed", [-1, -3])
    @pytest.mark.parametrize("command", ["simulate", "batch"])
    def test_negative_seed_flag_exits_4(self, designed, seed, command, tmp_path, caplog):
        cfg, design = designed
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--design", str(design),
                     "--out-dir", str(out), "--seed", str(seed)]) == 4
        assert f"invalid --seed {seed}" in caplog.text
        assert not out.exists()

    @pytest.mark.parametrize("section", ["design", "sim"])
    def test_non_finite_horizon_exits_4(self, designed, section, tmp_path):
        cfg_path, design = designed
        doc = json.loads(cfg_path.read_text())
        (doc["design"]["trajectories"] if section == "design" else doc["sim"])["horizon"] = math.inf
        # the schema's exclusiveMinimum lets Infinity through
        validate_config(doc)
        cfg2 = tmp_path / "inf.json"
        cfg2.write_text(json.dumps(doc))
        with pytest.raises(ConfigError, match="Infinity is not a JSON number"):
            load_config(cfg2)
        out = tmp_path / "o6"
        assert main(["design", "--config", str(cfg2), "--out-dir", str(out)]) == 4
        assert main(["simulate", "--config", str(cfg2), "--design", str(design),
                     "--out-dir", str(out)]) == 4
        assert not out.exists()

    @pytest.mark.parametrize("key, value", UNDRAWABLE_INTERVALS)
    def test_undrawable_interval_exits_4(self, designed, key, value, tmp_path, caplog):
        cfg_path, design = designed
        doc = json.loads(cfg_path.read_text())
        *sections, leaf = key.split(".")
        functools.reduce(operator.getitem, sections, doc)[leaf] = value
        validate_config(doc)
        cfg2 = tmp_path / "wide.json"
        cfg2.write_text(json.dumps(doc))
        out = tmp_path / "o9"
        if sections[0] == "design":
            assert main(["design", "--config", str(cfg2), "--out-dir", str(out)]) == 4
        else:
            assert main(["simulate", "--config", str(cfg2), "--design", str(design),
                         "--out-dir", str(out)]) == 4
        assert "not an interval of finite width" in caplog.text
        assert not out.exists()

    @pytest.mark.parametrize("section", ["design", "sim"])
    def test_horizon_too_large_for_a_float_exits_4(self, designed, section, tmp_path):
        cfg_path, design = designed
        doc = json.loads(cfg_path.read_text())
        (doc["design"]["trajectories"] if section == "design" else doc["sim"])["horizon"] = 12345.5
        # json reads the literal 1e999 as inf, which the schema lets through
        cfg2 = tmp_path / "huge.json"
        cfg2.write_text(json.dumps(doc).replace("12345.5", "1e999"))
        with pytest.raises(ConfigError, match="1e999 does not fit in a float"):
            load_config(cfg2)
        out = tmp_path / "o8"
        assert main(["design", "--config", str(cfg2), "--out-dir", str(out)]) == 4
        assert main(["simulate", "--config", str(cfg2), "--design", str(design),
                     "--out-dir", str(out)]) == 4
        assert not out.exists()

    def test_divergent_runs_exit_3(self, designed, tmp_path):
        cfg_path, design = designed
        doc = json.loads(cfg_path.read_text())
        doc["sim"]["x0_box"] = [-1e6, 1e6]
        doc["sim"]["horizon"] = 0.05
        cfg2 = tmp_path / "blow.json"
        cfg2.write_text(json.dumps(doc))
        out = tmp_path / "o3"
        assert main(["simulate", "--config", str(cfg2), "--design", str(design),
                     "--out-dir", str(out)]) == 3
        summary = json.loads((out / "summary.json").read_text())
        batch = summary["batches"][0]
        assert batch["n_flagged"] > 0
        assert len(batch["flagged_runs"]) == batch["n_flagged"]
        steps = round(doc["sim"]["horizon"] / doc["sim"]["dt"])
        assert all(1 <= step <= steps for _, step in batch["flagged_runs"])

    def test_seed_flag_moves_only_the_monte_carlo_draws(self, designed, tmp_path):
        # on a network read from a file, which a hash check compares by
        # content with the inline one the report was designed on
        cfg_path, design = designed
        doc = json.loads(cfg_path.read_text())
        (tmp_path / "network.json").write_text(json.dumps(doc["hypergraph"]["inline"]))
        doc["hypergraph"] = {"file": "network.json"}
        cfg = tmp_path / "file.json"
        cfg.write_text(json.dumps(doc))
        runs = {}
        for seed in ([], ["--seed", "5"]):
            out = tmp_path / f"seed{len(seed)}"
            assert main(["simulate", "--config", str(cfg), "--design", str(design),
                         "--out-dir", str(out), *seed]) == 0
            runs[len(seed)] = (json.loads((out / "summary.json").read_text()),
                               (out / "batch_1.csv").read_bytes())
        (base, base_csv), (moved, moved_csv) = runs[0], runs[2]
        assert (base["seed"], moved["seed"]) == (doc["sim"]["seed"], 5)
        assert base["config_hash"] == moved["config_hash"]
        draws = ("n_flagged", "flagged_runs", "max_error", "settling_times")
        (b,), (m,) = base["batches"], moved["batches"]
        assert {k: v for k, v in b.items() if k not in draws} == {
            k: v for k, v in m.items() if k not in draws}
        assert b["max_error"] != m["max_error"] and base_csv != moved_csv

    @pytest.mark.parametrize("rows", [2, 3, 50])
    def test_downsampled_csv_ends_at_the_horizon(self, designed, tmp_path, rows):
        # 501 grid points: strides of 251 and 167 from t = 0 would miss t = 0.5
        cfg_path, design = designed
        doc = json.loads(cfg_path.read_text())
        doc["sim"]["downsample_rows"] = rows
        cfg2 = tmp_path / "rows.json"
        cfg2.write_text(json.dumps(doc))
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(cfg2), "--design", str(design),
                     "--out-dir", str(out)]) == 0
        _, got = read_csv(out / "batch_1.csv")
        times = [row[0] for row in got]
        assert len(times) <= rows and times[0] == 0.0
        assert times[-1] == pytest.approx(doc["sim"]["horizon"], rel=1e-12)

def test_design_and_simulate_run_without_scipy(tmp_path):
    # with scipy and jsonschema unimportable: a Monte-Carlo run with gains and
    # an exact node, and generate, design and simulate on the recorded
    # e2e-exact case, whose inverse shortcut splits roots and so relabels
    # their rest.  Each exits 0 and the design is the recorded one; the CLI
    # loads nothing of jsonschema's
    recorded = Path(__file__).parent / "data" / "e2e-exact"
    for name in ("spec.json", "config.json"):
        shutil.copy(recorded / name, tmp_path / name)
    config, out = str(tmp_path / "config.json"), str(tmp_path / "out")
    code = f"""
import json, sys
sys.modules["scipy"] = sys.modules["jsonschema"] = None
import numpy as np
from hyperobs import ObserverDesign, SimConfig, monte_carlo
from hyperobs.cli import main
loaded = {{name.partition(".")[0] for name, module in sys.modules.items() if module is not None}}
assert not loaded & {{"jsonschema", "referencing", "attrs", "rpds"}}, sorted(loaded)
from hyperobs.config import build_system, resolve_hypergraph
doc = json.loads({json.dumps(json.dumps(cohead_config()))})
sys_ = build_system(doc, resolve_hypergraph(doc, "."))
design = ObserverDesign(frozenset({{0, 2}}), {{(1, 0): np.eye(3), (1, 2): np.eye(3)}},
                        frozenset({{0}}))
stats = monte_carlo(sys_, design, SimConfig(horizon=0.01, noise_amplitude=0.01), 3)
assert np.isfinite(stats.error_norms).all()
codes = [
    main(["generate", "--spec", {str(tmp_path / "spec.json")!r},
          "--out", {str(tmp_path / "network.json")!r}]),
    main(["design", "--config", {config!r}, "--out-dir", {out!r}]),
    main(["simulate", "--config", {config!r}, "--design", {out + "/design.json"!r},
          "--out-dir", {out!r}]),
]
print(json.dumps(codes))
"""
    src = Path(hyperobs.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout.splitlines()[-1]) == [0, 0, 0]
    got = json.loads((tmp_path / "out" / "design.json").read_text())
    assert_matches(got, json.loads((recorded / "design.json").read_text()), "design.json")
