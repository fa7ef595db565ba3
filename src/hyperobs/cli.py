"""Command-line entry points: generate, design, simulate, batch.

Exit codes: 0 success, 2 design failed, 3 divergence flags present,
4 configuration error.  All commands are deterministic given the config file
and the seed; summaries embed the design-relevant config hash for provenance.
"""

from __future__ import annotations

import argparse
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
    DesignOutcome,
    design_observer,
    field_param_jacobian_bound,
    propagate_robustness_bounds,
)
from .hypergraph import HierarchicalGenSpec, generate_hierarchical
from .sim import make_ensemble, monte_carlo

log = logging.getLogger("hyperobs.cli")

EXIT_OK = 0
EXIT_DESIGN_FAILED = 2
EXIT_DIVERGENCE = 3
EXIT_CONFIG = 4


def _fmt(x: float) -> str:
    if isinstance(x, float) and math.isnan(x):
        return "nan"
    return format(float(x), ".17g")


def _write_batch_csv(path: Path, times, median, p25, p75, max_rows: int) -> None:
    stride = max(1, math.ceil(len(times) / max_rows))
    lines = ["t,median,p25,p75"]
    for k in range(0, len(times), stride):
        lines.append(
            ",".join((_fmt(times[k]), _fmt(median[k]), _fmt(p25[k]), _fmt(p75[k])))
        )
    path.write_text("\n".join(lines) + "\n")


def cmd_generate(args) -> int:
    try:
        doc = json.loads(Path(args.spec).read_text())
        if args.seed is not None:
            doc["seed"] = args.seed
        spec = HierarchicalGenSpec.from_json_dict(doc)
        hypergraph = generate_hierarchical(spec)
    except (OSError, json.JSONDecodeError, KeyError, ValueError) as exc:
        log.error("generate failed: %s", exc)
        return EXIT_CONFIG
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(hypergraph.to_json() + "\n")
    log.info("wrote %s (%d nodes, %d edges)", out, hypergraph.num_nodes, len(hypergraph.edges))
    return EXIT_OK


def _load_experiment(args):
    doc = cfgmod.load_config(args.config)
    base_dir = Path(args.config).resolve().parent
    hypergraph = cfgmod.resolve_hypergraph(doc, base_dir, getattr(args, "seed", None))
    sys_ = cfgmod.build_system(doc, hypergraph)
    return doc, hypergraph, sys_


def cmd_design(args) -> int:
    try:
        doc, hypergraph, sys_ = _load_experiment(args)
        spec = cfgmod.build_ensemble_spec(doc)
        options = cfgmod.build_design_options(doc, args.seed)
        if options.use_inverse_shortcut and not sys_.output.invertible:
            raise ConfigError(
                "invalid config: design.use_inverse_shortcut needs an invertible output map"
            )
    except ConfigError as exc:
        log.error("%s", exc)
        return EXIT_CONFIG
    ensemble = make_ensemble(sys_, spec)
    outcome = design_observer(sys_, ensemble, options)
    report = {
        "config_hash": cfgmod.design_relevant_hash(doc, hypergraph),
        "seed": options.seed,
        "f_bound": field_param_jacobian_bound(sys_, ensemble.stacked()),
        "outcome": outcome.to_json_dict(),
    }
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "design.json"
    path.write_text(json.dumps(report, indent=2) + "\n")
    if not outcome.complete:
        log.error("design failed on subset %s (report at %s)", outcome.failed_subset, path)
        return EXIT_DESIGN_FAILED
    log.info(
        "design complete: %d measured of %d nodes (report at %s)",
        len(outcome.measured), hypergraph.num_nodes, path,
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
        report_doc = json.loads(Path(args.design).read_text())
    except (ConfigError, OSError, json.JSONDecodeError) as exc:
        log.error("%s", exc)
        return EXIT_CONFIG
    expect_hash = cfgmod.design_relevant_hash(doc, hypergraph)
    if report_doc.get("config_hash") != expect_hash:
        log.error("design report does not match this config (hash check failed)")
        return EXIT_CONFIG
    outcome = DesignOutcome.from_json_dict(report_doc["outcome"])
    if not outcome.complete:
        log.error("design report is not complete; refusing to simulate")
        return EXIT_DESIGN_FAILED
    f_bound = float(report_doc.get("f_bound", 0.0))

    batches = _batch_list(doc, simulate_only_first)
    if args.batch_index is not None:
        batches = [b for b in batches if b[0] == args.batch_index]
        if not batches:
            log.error("batch index %d not in config", args.batch_index)
            return EXIT_CONFIG
    base_seed = doc["sim"].get("seed", 0) if args.seed is None else args.seed
    # every batch's settings are checked before any batch runs
    try:
        configs = [
            cfgmod.build_sim_config(
                doc, seed=base_seed + index, **({} if variable is None else {variable: value})
            )
            for index, variable, value in batches
        ]
    except ConfigError as exc:
        log.error("%s", exc)
        return EXIT_CONFIG
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    max_rows = doc["sim"].get("downsample_rows", 2000)
    n_runs = doc["sim"]["runs"]

    summary_batches = []
    any_flags = False
    for (index, variable, value), cfg in zip(batches, configs):
        stats = monte_carlo(sys_, outcome.design, cfg, n_runs)
        csv_name = f"batch_{index}.csv"
        _write_batch_csv(out_dir / csv_name, stats.times, stats.median,
                         stats.p25, stats.p75, max_rows)
        mu_bar = cfg.param_rel_spread * float(
            np.linalg.norm(sys_.field.nominal_params)
        )
        nu_bar = cfg.noise_amplitude * math.sqrt(sys_.output.output_dim)
        bound, _ = propagate_robustness_bounds(
            sys_, outcome, None, mu_bar, nu_bar, f_bound=f_bound
        )
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
                "max_error": stats.max_error,
                "settling_times": stats.settling_times,
                "robustness_bound": bound,
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


def cmd_simulate(args) -> int:
    return _run_batches(args, simulate_only_first=True)


def cmd_batch(args) -> int:
    return _run_batches(args, simulate_only_first=False)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hyperobs",
        description="Observer design and validation for hypergraph-coupled networks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate a hierarchical hypergraph")
    gen.add_argument("--spec", required=True, help="generator spec JSON file")
    gen.add_argument("--out", required=True, help="output hypergraph JSON file")
    gen.add_argument("--seed", type=int, default=None)
    gen.set_defaults(func=cmd_generate)

    des = sub.add_parser("design", help="run the observer design algorithm")
    des.add_argument("--config", required=True)
    des.add_argument("--out-dir", default=".")
    des.add_argument("--seed", type=int, default=None)
    des.set_defaults(func=cmd_design)

    for name, fn, help_text in (
        ("simulate", cmd_simulate, "Monte-Carlo validation of a design"),
        ("batch", cmd_batch, "batch sweep over a config variable"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True)
        p.add_argument("--design", required=True, help="design report JSON")
        p.add_argument("--out-dir", default=".")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--batch-index", type=int, default=None)
        p.set_defaults(func=fn)
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
