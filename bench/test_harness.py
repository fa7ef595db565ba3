"""Fast self-test of the benchmark harness on the 3-node co-head system.

    python3 -m pytest -q bench/test_harness.py

The system is small enough that a pass is mostly interpreter start-up, so it
is a test of the harness, not a workload: every named metric must be emitted,
the gate must pass on an unchanged run and trip on a perturbed reference.
"""

import copy
import json
from pathlib import Path

import pytest

import run

BENCHMARK = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())


def cohead_config():
    """Inline 3-node system: chaotic source feeding a co-head pair (as in
    tests/test_config_cli.py)."""
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
        "sim": {
            "dt": 1e-3, "horizon": 0.5, "runs": 4, "seed": 3,
            "x0_box": [-3, 3], "observer_init_width": 0.2,
        },
    }


def cohead(seed):
    # the set-up stage still generates a network; the config ignores it
    gen = {"layer_sizes": [3], "cardinality": 2, "src_intra": [1], "snk_intra": [1],
           "src_inter": [], "snk_inter": [], "seed": seed}
    return gen, cohead_config()


@pytest.fixture
def harness(tmp_path, monkeypatch):
    monkeypatch.setitem(run.WORKLOADS, "cohead", cohead)
    monkeypatch.setattr(run, "WORK", tmp_path / "work")
    monkeypatch.setattr(run, "REFERENCE", tmp_path / "reference.json")
    monkeypatch.setattr(run, "SETUP_REPEATS", 2)
    return tmp_path


def test_benchmark_file_names_every_metric():
    assert [m["name"] for m in BENCHMARK["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in BENCHMARK["per_layer"]] == list(run.per_layer_units())
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)


def test_untraced_run_emits_end_to_end_metrics_and_gate_trips(harness):
    result = run.measure("cohead", 0, seconds=0, trace=False)
    assert result["correct"], result["problems"]
    assert result["reference"] == "invariants only"
    assert result["attempted"] == 1 + 4 and result["failed"] == 0
    assert list(result["metrics"]) == list(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert set(result["facts"]) >= {"nproc", "cpu_model", "python", "numpy", "scipy",
                                    "blas", "blas_threads", "git_commit", "src_lines"}

    run.write_reference("cohead", 0, result["outputs"])
    again = run.measure("cohead", 0, seconds=0, trace=False)
    assert again["reference"] == "seed" and again["correct"], again["problems"]

    outputs = again["outputs"]
    reference = run.load_reference("cohead", 0)
    assert run.gate(outputs, reference, 3)[1:] == (0, [])

    flipped = copy.deepcopy(reference)
    nodes, theorem = flipped["design"]["subsets"][0]
    flipped["design"]["subsets"][0] = [nodes, "thm1" if theorem != "thm1" else "thm2"]
    _, failed, problems = run.gate(outputs, flipped, 3)
    assert failed == 1 and problems

    drifted = copy.deepcopy(reference)
    drifted["mc"]["max_error"] *= 1.0 + 10 * run.MC_RTOL
    _, failed, problems = run.gate(outputs, drifted, 3)
    assert failed == 0 and problems


def test_traced_run_emits_every_per_layer_metric(harness):
    result = run.measure("cohead", 0, seconds=0, trace=True)
    assert result["correct"], result["problems"]
    assert result["passes"] == 2
    assert list(result["metrics"]) == list(run.per_layer_units())
    assert result["missing_targets"] == []
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["designer.design_observer.calls"] == 1
    assert metrics["sim.monte_carlo.steps"] == 500
    assert metrics["trace.overhead.design"] > 0
