"""Benchmark workloads: a generator spec and an experiment config per name.

Why each workload exists is written down in README.md next to this file.
The configs set only the options every release of the config schema has
had; they leave ``use_inverse_shortcut``, ``thm1_fallback``,
``thm1_placement`` and ``kron_cap`` at their defaults on purpose, so the
benchmark keeps running when those options are removed.
"""

from __future__ import annotations

LORENZ = {"name": "lorenz", "params": [10.0, 28.0, 8.0 / 3.0]}
TANH = {"name": "tanh", "params": [0.2, 0.05, 2.0]}

# The network is part of a workload's identity: its root-SCC sizes set how
# much Theorem-1, gain-synthesis and scan work the design does, and they change
# several-fold from one generator seed to the next.  The benchmark seed moves
# everything else: the design ensemble, the solver restarts and the
# Monte-Carlo draws.  Generator seed 1 is the ROADMAP's profiled network.
NETWORK_SEED = 1
_STREAMS = {"ensemble": 1000, "solver": 2000, "sim": 3000}


def stream_seed(seed: int, stream: str) -> int:
    return int(seed) + _STREAMS[stream]


def _generator(layers, src_intra, snk_intra, src_inter, snk_inter):
    return {
        "layer_sizes": list(layers),
        "cardinality": 3,
        "src_intra": list(src_intra),
        "snk_intra": list(snk_intra),
        "src_inter": list(src_inter),
        "snk_inter": list(snk_inter),
        "seed": NETWORK_SEED,
    }


def _config(name, field, output, margin, ensemble_count, mc_runs, mc_horizon, seed):
    return {
        "name": name,
        "hypergraph": {"file": "network.json"},
        "dynamics": {"field": field, "coupling": TANH, "output": output},
        "design": {
            "margin": margin,
            "seed": stream_seed(seed, "solver"),
            # horizon 0.25 at dt 1e-3, every 5th step: 51 samples per trajectory
            "trajectories": {
                "count": ensemble_count, "horizon": 0.25, "dt": 1e-3,
                "subsample": 5, "box": [-3.0, 3.0],
                "seed": stream_seed(seed, "ensemble"),
            },
        },
        "sim": {
            "dt": 1e-3, "horizon": mc_horizon, "runs": mc_runs,
            "seed": stream_seed(seed, "sim"),
            "x0_box": [-3.0, 3.0], "observer_init_width": 0.2, "noise": 0.01,
        },
    }


def lorenz24_exact(seed: int):
    gen = _generator([8, 8, 8], [4, 4, 4], [4, 4, 4], [3, 3], [3, 3])
    cfg = _config("lorenz24-exact", LORENZ, {"identity": True}, 2.0, 20, 20, 1.0, seed)
    return gen, cfg


def lorenz12_partial(seed: int):
    gen = _generator([4, 4, 4], [1, 1, 1], [1, 1, 1], [2, 2], [2, 2])
    output = {"matrix": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]}
    cfg = _config("lorenz12-partial", LORENZ, output, 2.0, 20, 20, 2.0, seed)
    return gen, cfg


def bistable1000(seed: int):
    gen = _generator([100] * 10, [25] * 10, [25] * 10, [12] * 9, [12] * 9)
    field = {"name": "bistable", "params": [1.0, 0.5]}
    cfg = _config("bistable1000", field, {"identity": True}, 0.25, 2, 4, 0.25, seed)
    return gen, cfg


WORKLOADS = {
    "lorenz24-exact": lorenz24_exact,
    "lorenz12-partial": lorenz12_partial,
    "bistable1000": bistable1000,
}

# Spans that some workload never calls.  The traced run reports their time as
# a share of the design process, where all of them run, instead of seconds, so
# that a bypassed layer reads as a zero share and not as a constant time.
BYPASSED_SPANS = (
    "assembly.check_thm1", "assembly.kron_sum", "gain_design.design_gain_thm2",
    "gain_design.subgradient", "gain_design.problem_init", "designer.select_node",
)

# Span names of the layer each workload exists to exercise (see README.md).
# The traced run reports the share of design time spent in them and below.
DOMINANT = {
    "lorenz24-exact": ("assembly.check_thm1",),
    "lorenz12-partial": ("gain_design.subgradient",),
    "bistable1000": (
        "dynamics.edge_arguments", "dynamics.coupling_term",
        "hypergraph.to_dependency_graph", "hypergraph.condense", "hypergraph.edge_scan",
    ),
}
