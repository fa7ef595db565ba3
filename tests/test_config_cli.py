import json
from pathlib import Path

import numpy as np
import pytest

from hyperobs import DesignOptions, SimConfig, TrajectoryEnsembleSpec
from hyperobs.cli import main
from hyperobs.config import (
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
        cfg = build_sim_config(cohead_config(), seed=99, noise_amplitude=0.5)
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
        doc["design"]["restarts"] = 0
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
        assert summary["batches"][0]["n_flagged"] > 0

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
