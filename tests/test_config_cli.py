import dataclasses
import importlib.util
import json
import math
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from hyperobs import DesignOptions, DesignOutcome, SimConfig, TrajectoryEnsembleSpec
from hyperobs.cli import main
from hyperobs.config import (
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
    "thm1_fallback": True, "thm1_placement": False, "restarts": 3,
}


def _field_names(cls) -> set[str]:
    return {f.name for f in dataclasses.fields(cls)}


class TestSchemaMatchesDataclasses:
    def test_design_keys_are_design_options_fields(self):
        keys = set(CONFIG_SCHEMA["properties"]["design"]["properties"])
        assert keys - {"trajectories"} == _field_names(DesignOptions)

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


@pytest.mark.parametrize(
    "name, module_name, attr",
    [target[:3] for target in _load_bench_module("spans").TARGETS],
)
def test_bench_span_target_exists(name, module_name, attr):
    # a refactor that drops a traced name must fail here, not only show up
    # as a missing target in a traced benchmark run
    owner = importlib.import_module(f"hyperobs.{module_name}")
    if "." in attr:
        cls_name, attr = attr.split(".")
        owner = vars(owner)[cls_name]
        assert attr in vars(owner), name
    else:
        assert callable(getattr(owner, attr, None)), name


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

# each passes the config schema, but the file it names does not hold a
# hypergraph document: (file content, what the error names)
BAD_HYPERGRAPH_FILES = {
    "no_edges": ({"num_nodes": 3}, "'edges'"),
    "edge_without_weights": (
        {"num_nodes": 3, "edges": [{"tails": [0], "heads": [1]}]}, "'alpha'"),
}


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

    def test_design_failure_exits_2(self, tmp_path):
        doc = cohead_config()
        # x3-only output cannot certify chaotic singletons
        doc["dynamics"]["output"] = {"matrix": [[0.0, 0.0, 1.0]]}
        doc["design"]["max_iters"] = 50
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(doc))
        assert main(["design", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 2
        report = json.loads((tmp_path / "design.json").read_text())
        assert report["outcome"]["status"] == "failed"
        assert report["outcome"]["failed_subset"] is not None

    def test_bad_config_exits_4(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text("{\"nope\": 1}")
        assert main(["design", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 4

    def test_design_json_is_strict_and_lossless(self, designed):
        _, report_path = designed

        def reject(token):
            raise ValueError(f"non-standard JSON constant {token}")

        report = json.loads(report_path.read_text(), parse_constant=reject)
        doc = report["outcome"]
        exact = [p["report"] for p in doc["processed_subsets"]
                 if p["report"]["theorem_used"] == "exact"]
        assert exact and all(r["hurwitz_margin"] == "inf" for r in exact)
        outcome = DesignOutcome.from_json_dict(doc)
        assert all(p.report.worst_value == -math.inf for p in outcome.processed
                   if p.report.theorem_used == "exact")
        assert outcome.to_json_dict() == doc
        back = DesignOutcome.from_json_dict(json.loads(json.dumps(outcome.to_json_dict())))
        assert back.processed == outcome.processed

    @pytest.mark.parametrize("case", sorted(SCHEMA_VALID_BAD_CONFIGS))
    def test_schema_valid_bad_config_exits_4(self, case, tmp_path):
        doc = cohead_config()
        SCHEMA_VALID_BAD_CONFIGS[case](doc)
        validate_config(doc)
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(doc))
        assert main(["design", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 4
        assert not (tmp_path / "design.json").exists()

    @pytest.mark.parametrize("case", sorted(BAD_HYPERGRAPH_FILES))
    def test_bad_hypergraph_file_exits_4(self, case, tmp_path):
        content, missing = BAD_HYPERGRAPH_FILES[case]
        (tmp_path / "network.json").write_text(json.dumps(content))
        doc = cohead_config()
        doc["hypergraph"] = {"file": "network.json"}
        validate_config(doc)
        with pytest.raises(ConfigError, match=f"{missing} is a required property"):
            resolve_hypergraph(doc, tmp_path)
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert main(["design", "--config", str(cfg), "--out-dir", str(out)]) == 4
        assert not (out / "design.json").exists()

    def test_one_sample_trajectories_exit_4(self, tmp_path):
        doc = cohead_config()
        # round(0.0004 / 1e-3) = 0 steps, fewer than subsample: one sample each
        doc["design"]["trajectories"].update(horizon=0.0004, dt=1e-3)
        validate_config(doc)
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(doc))
        assert main(["design", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 4
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

    def test_downsample_row_cap(self, designed, tmp_path):
        cfg_path, design = designed
        doc = json.loads(cfg_path.read_text())
        doc["sim"]["downsample_rows"] = 50
        cfg2 = tmp_path / "rows.json"
        cfg2.write_text(json.dumps(doc))
        out = tmp_path / "o4"
        main(["simulate", "--config", str(cfg2), "--design", str(design),
              "--out-dir", str(out)])
        rows = (out / "batch_1.csv").read_text().splitlines()
        assert len(rows) - 1 <= 50
