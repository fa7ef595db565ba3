"""Command-line entry points: generate, design, simulate, batch.

``generate`` writes the network file, ``network.json`` in the configs, as
one JSON object with one edge per line.

Exit codes: 0 success, 2 design failed, 3 divergence flags present,
4 configuration error, a design ensemble that diverges among them.  Every
command is deterministic given its inputs: ``generate`` its spec,
``design`` the config and the network it names, and ``simulate`` and
``batch`` those, the design report and the Monte-Carlo seed, ``sim.seed``
unless ``--seed`` replaces it.  Summaries embed the design-relevant config
hash for provenance.

The simulation summary, ``summary.json``, is one JSON object that
``simulate`` and ``batch`` write, with a non-finite number written as the
string "inf", "-inf" or "nan":

    config_hash          string: the hash the design report was checked against
    seed                 integer: the Monte-Carlo seed; batch k runs at seed + k
    n_runs               integer: the runs of each batch
    batches              list, one per batch run, of
      index              integer >= 1: the batch's place in ``batch.values``, 1
                         for the base settings
      variable, value    the ``sim`` setting the batch sets and its value; null
                         for the base settings
      csv                the batch's error-norm percentiles, ``batch_<index>.csv``
      n_runs             integer
      n_flagged          integer: the runs flagged as diverged
      flagged_runs       [run, grid step] of each, the step where it diverged
      max_error          number: the largest stacked error norm of any run over
                         the horizon, transient included
      settling_times     per run, a time or null: ``sim.settling_time``, the
                         earliest grid time after which the run's error norm
                         stays below 5 % of its initial value.  Measurement
                         noise sets a floor under the error; where the floor
                         is above 5 % of the initial error the rule reads null
                         though the run has converged
      robustness_bound   number: the stacked Theorem-3 bound of the design
                         (``designer.propagate_robustness_bounds``)
"""

from __future__ import annotations

import argparse
import functools
import json
import logging
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import config as cfgmod
from .config import ConfigError
from .designer import (
    design_observer,
    design_report,
    field_param_jacobian_bound,
    propagate_robustness_bounds,
    read_design_report,
    strict_float,
)
from .hypergraph import HierarchicalGenSpec, generate_hierarchical
from .sim import EnsembleDiverged, make_ensemble, monte_carlo

log = logging.getLogger("hyperobs.cli")

EXIT_OK = 0
EXIT_DESIGN_FAILED = 2
EXIT_DIVERGENCE = 3
EXIT_CONFIG = 4


def _write_batch_csv(path: Path, times, median, p25, p75, max_rows: int) -> None:
    """At most ``max_rows`` rows, from t = 0 every ``stride`` grid points,
    and always the last one; "nan" for either sign of NaN."""
    last = len(times) - 1
    stride = max(1, math.ceil(last / (max_rows - 1)))
    lines = ["t,median,p25,p75"]
    for k in [*range(0, last, stride), last]:
        lines.append(",".join(format(float(col[k]), ".17g") for col in (times, median, p25, p75)))
    path.write_text("\n".join(lines) + "\n")


def cmd_generate(args) -> int:
    try:
        doc = cfgmod.read_json(args.spec)
        if args.seed is not None and isinstance(doc, dict):
            doc["seed"] = args.seed
        # validated after the override, so a spec may leave the seed to --seed
        spec = HierarchicalGenSpec(**cfgmod.validate_generator_spec(doc))
        hypergraph = generate_hierarchical(spec)
    except (OSError, ValueError) as exc:
        log.error("generate failed: %s", exc)
        return EXIT_CONFIG
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(hypergraph.to_json() + "\n")
    log.info("wrote %s (%d nodes, %d edges)", out, hypergraph.num_nodes, hypergraph.num_edges)
    return EXIT_OK


def _load_experiment(args):
    doc = cfgmod.load_config(args.config)
    base_dir = Path(args.config).resolve().parent
    hypergraph = cfgmod.resolve_hypergraph(doc, base_dir)
    sys_ = cfgmod.build_system(doc, hypergraph)
    return doc, hypergraph, sys_


def cmd_design(args) -> int:
    try:
        doc, hypergraph, sys_ = _load_experiment(args)
        spec = cfgmod.build_ensemble_spec(doc)
        options = cfgmod.build_design_options(doc)
        if options.use_inverse_shortcut and not sys_.output.invertible:
            raise ConfigError(
                "invalid config: design.use_inverse_shortcut needs an invertible output map"
            )
        ensemble = make_ensemble(sys_, spec)
    except (ConfigError, EnsembleDiverged) as exc:
        log.error("%s", exc)
        return EXIT_CONFIG
    outcome = design_observer(sys_, ensemble, options)
    report = design_report(outcome, cfgmod.design_relevant_hash(doc, hypergraph),
                           field_param_jacobian_bound(sys_, ensemble.stacked()))
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "design.json"
    path.write_text(json.dumps(report, indent=2) + "\n")
    if not outcome.complete:
        log.error("design failed on subset %s (report at %s)", outcome.failed_subset, path)
        return EXIT_DESIGN_FAILED
    log.info(
        "design complete: %d measured of %d nodes (report at %s)",
        len(outcome.design.measured), hypergraph.num_nodes, path,
    )
    return EXIT_OK


def _batch_list(doc: dict, simulate_only_first: bool) -> list[tuple[int, str | None, float | None]]:
    """(index, variable, value) triples; base sim settings when variable is None."""
    batch = doc.get("batch")
    if batch is None:
        return [(1, None, None)]
    triples = [(k + 1, batch["variable"], v) for k, v in enumerate(batch["values"])]
    return triples[:1] if simulate_only_first else triples


def _run_batches(args, simulate_only_first: bool) -> int:
    try:
        doc, hypergraph, sys_ = _load_experiment(args)
        report_doc = cfgmod.read_json(args.design)
    except (ConfigError, OSError) as exc:
        log.error("%s", exc)
        return EXIT_CONFIG
    except ValueError as exc:  # not JSON, or a NaN or Infinity literal in it
        log.error("malformed design report %s: %s", args.design, exc)
        return EXIT_CONFIG
    batches = _batch_list(doc, simulate_only_first)
    if args.batch_index is not None:
        batches = [b for b in batches if b[0] == args.batch_index]
        if not batches:
            log.error("batch index %d not in config", args.batch_index)
            return EXIT_CONFIG
    # every batch's settings and bound are checked before any batch runs
    try:
        if args.seed is not None and args.seed < 0:
            raise ConfigError(f"invalid --seed {args.seed}: a seed is a nonnegative integer")
        base_seed = cfgmod.build_sim_config(doc).seed if args.seed is None else args.seed
        configs = [
            cfgmod.build_sim_config(
                doc, seed=base_seed + index, **({} if variable is None else {variable: value})
            )
            for index, variable, value in batches
        ]
    except ConfigError as exc:
        log.error("%s", exc)
        return EXIT_CONFIG
    expect_hash = cfgmod.design_relevant_hash(doc, hypergraph)
    param_norm = float(np.linalg.norm(sys_.field.nominal_params))
    noise_gain = math.sqrt(sys_.output.output_dim)
    try:
        outcome, f_bound = read_design_report(report_doc, sys_, expect_hash)
        if not outcome.complete:
            log.error("design report is not complete; refusing to simulate")
            return EXIT_DESIGN_FAILED
        # the Theorem-3 bounds propagate only with positive margins, upstream subsets first
        bounds = [propagate_robustness_bounds(sys_, outcome, cfg.param_rel_spread * param_norm,
                                              cfg.noise_amplitude * noise_gain, f_bound)[0]
                  for cfg in configs]
    except (KeyError, TypeError, ValueError) as exc:
        log.error("malformed design report %s: %s: %s", args.design, type(exc).__name__, exc)
        return EXIT_CONFIG
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    max_rows = doc["sim"].get("downsample_rows", 2000)
    n_runs = doc["sim"]["runs"]

    summary_batches = []
    any_flags = False
    for (index, variable, value), cfg, bound in zip(batches, configs, bounds):
        stats = monte_carlo(sys_, outcome.design, cfg, n_runs)
        csv_name = f"batch_{index}.csv"
        _write_batch_csv(out_dir / csv_name, stats.times, stats.median,
                         stats.p25, stats.p75, max_rows)
        any_flags = any_flags or stats.n_flagged > 0
        summary_batches.append(
            {
                "index": index,
                "variable": variable,
                "value": value,
                "csv": csv_name,
                "n_runs": n_runs,
                "n_flagged": stats.n_flagged,
                "flagged_runs": [list(run) for run in stats.flagged_runs],
                "max_error": strict_float(stats.max_error),
                "settling_times": stats.settling_times,
                "robustness_bound": strict_float(bound),
            }
        )
        log.info(
            "batch %d (%s=%s): flagged=%d max_error=%.4g",
            index, variable, value, stats.n_flagged, stats.max_error,
        )

    summary = {
        "config_hash": expect_hash,
        "seed": base_seed,
        "n_runs": n_runs,
        "batches": summary_batches,
    }
    (out_dir / "summary.json").write_text(json.dumps(summary, indent=2) + "\n")
    return EXIT_DIVERGENCE if any_flags else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hyperobs",
        description="Observer design and validation for hypergraph-coupled networks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate a hierarchical hypergraph")
    gen.add_argument("--spec", required=True, help="generator spec JSON file")
    gen.add_argument("--out", required=True, help="output hypergraph JSON file")
    gen.add_argument("--seed", type=int, default=None, help="replaces the spec's seed")
    gen.set_defaults(func=cmd_generate)

    des = sub.add_parser("design", help="run the observer design algorithm")
    des.add_argument("--config", required=True)
    des.add_argument("--out-dir", default=".")
    des.set_defaults(func=cmd_design)

    for name, only_first, help_text in (
        ("simulate", True, "Monte-Carlo validation of a design"),
        ("batch", False, "batch sweep over a config variable"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True)
        p.add_argument("--design", required=True, help="design report JSON")
        p.add_argument("--out-dir", default=".")
        p.add_argument("--seed", type=int, default=None,
                       help="Monte-Carlo base seed in place of sim.seed; "
                            "batch k draws from seed + k")
        p.add_argument("--batch-index", type=int, default=None)
        p.set_defaults(func=functools.partial(_run_batches, simulate_only_first=only_first))
    return parser


def main(argv=None) -> int:
    level = os.environ.get("HYPEROBS_LOG", "INFO").upper()
    logging.basicConfig(
        level=getattr(logging, level, logging.INFO),
        format="%(levelname)s %(name)s: %(message)s",
    )
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
