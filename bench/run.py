"""Pipeline benchmark: generate -> design -> simulate through the hyperobs CLI.

    python3 bench/run.py --workload lorenz24-exact --seed 1 --seconds 10 --trace 0

One client, closed loop: each pass runs the design and simulate CLI commands
one after another, one process per command, and the next pass starts when the
last one ends.  Passes repeat until ``--seconds`` have elapsed (at least one
pass); the set-up stage runs ``SETUP_REPEATS`` times first.  Timings are
medians over the repeats, in reference seconds (see ``run_child``).  Every
pass is checked against ``reference.json`` (see ``gate``).

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs one untraced
pass and then one pass whose processes record spans at every layer boundary
(``spans.py``), and reports the per-layer metrics.  The last line of stdout is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``; the lines
before it print every metric with its unit, the gate result and the machine
facts.  The full result, facts included, is also written to
``.bench_work/results/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
REFERENCE = BENCH / "reference.json"

sys.path.insert(0, str(BENCH))
import spans as spanlib  # noqa: E402
from workloads import BYPASSED_SPANS, DOMINANT, WORKLOADS  # noqa: E402

DEFAULT_SEED = 1
SETUP_REPEATS = 3
CHILD_TIMEOUT_S = 170.0
# The program runs on one CPU with single-threaded BLAS, a single-threaded
# baseline; the other CPU runs the speed probe (below).
BLAS_THREADS = 1
# Host speed drifts by +-25 % over tens of seconds on shared 2-CPU machines,
# for identical work.  While each stage runs, a probe of fixed work in the
# pipeline's own mix (batched small eigenproblems, small matmuls and einsums,
# interpreter work; all in cache, so it does not slow the program) is timed
# every PROBE_INTERVAL_S in CPU time on the idle CPU.  The stage's wall time
# is scaled by the mean of PROBE_REFERENCE_S / probe time, which integrates
# the host's relative speed over the stage: reference seconds, at the speed
# where the probe takes PROBE_REFERENCE_S.  Raw wall times stay in the result.
PROBE_INTERVAL_S = 0.25
PROBE_REFERENCE_S = 1.5e-3
_rng = np.random.default_rng(0)
_PROBE_SYM = _rng.standard_normal((32, 9, 9))
_PROBE_SYM = _PROBE_SYM + _PROBE_SYM.transpose(0, 2, 1)
_PROBE_SQUARE = _rng.standard_normal((48, 48))
_PROBE_MIX = _rng.standard_normal((20, 12))
_PROBE_STATES = _rng.standard_normal((8, 12, 3))
del _rng
# Monte-Carlo error statistics may differ from the reference by this relative
# amount.  Same-seed runs of one build are bit-identical, and so are both
# statistics on all three workloads when the coupling einsums are replaced by
# matmul.  The tolerance admits last-bit differences from other reorderings
# of floating-point sums (a BLAS kernel picked per CPU) that RK4 steps can
# amplify, while a change to the simulated dynamics or to the noise draws
# moves these statistics far more.
MC_RTOL = 1e-6

END_TO_END = {
    "setup_s": "s",
    "design_s": "s",
    "simulate_s": "s",
    "design_peak_rss_mb": "MB",
    "simulate_peak_rss_mb": "MB",
}
LAYERS = ("config", "hypergraph", "dynamics", "assembly", "gain_design", "designer", "sim")


def per_layer_units() -> dict[str, str]:
    units = {}
    for name in spanlib.SPAN_NAMES:
        units[f"{name}.calls"] = "count"
        if name in BYPASSED_SPANS:
            units[f"{name}.share"] = "ratio"
            units[f"{name}.self_share"] = "ratio"
        else:
            units[f"{name}.s"] = "s"
            units[f"{name}.self_s"] = "s"
    for name in spanlib.COUNT_NAMES:
        units[name] = "count"
    units["sim.monte_carlo.s_per_step"] = "s"
    for name in ("design_json_bytes", "summary_json_bytes", "csv_bytes"):
        units[f"cli.{name}"] = "B"
    for layer in LAYERS:
        units[f"design.self_share.{layer}"] = "ratio"
    units["dominant.share"] = "ratio"
    units["dominant.largest"] = "bool"
    units["trace.design_s"] = "s"
    units["trace.simulate_s"] = "s"
    units["trace.overhead.design"] = "ratio"
    units["trace.overhead.simulate"] = "ratio"
    return units


# -- processes --------------------------------------------------------------------


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["HYPEROBS_LOG"] = "WARNING"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def probe_cpu_s() -> float:
    """CPU seconds this thread spends on a fixed piece of work."""
    t0 = time.thread_time()
    for _ in range(2):
        np.linalg.eigvalsh(_PROBE_SYM)
    for _ in range(4):
        _PROBE_SQUARE @ _PROBE_SQUARE
    for _ in range(20):
        np.einsum("en,knd->ked", _PROBE_MIX, _PROBE_STATES)
    acc: dict[int, int] = {}
    for i in range(2000):
        acc[i % 97] = acc.get(i % 97, 0) + i
    return time.thread_time() - t0


@dataclass
class Stage:
    wall_s: float
    peak_rss_mb: float
    exit_code: int
    probe_s: float  # harmonic mean of the probe CPU times while the process ran

    @property
    def scale(self) -> float:
        """Factor from this stage's wall seconds to reference seconds."""
        return PROBE_REFERENCE_S / self.probe_s


def run_child(argv, cwd: Path, log: Path) -> Stage:
    """Run one process to completion while sampling host speed.

    CPU time, not wall time, of the probe tracks the host: a probe that only
    waits for a CPU the program uses does not read as a slower host.
    """
    probes: list[float] = []
    done = threading.Event()

    def sample():
        probes.append(probe_cpu_s())
        while not done.wait(PROBE_INTERVAL_S):
            probes.append(probe_cpu_s())

    with open(log, "w") as fh:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=child_env(), stdout=fh, stderr=subprocess.STDOUT)
        sampler = threading.Thread(target=sample)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        sampler.start()
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
            done.set()
            wall = time.perf_counter() - t0
            sampler.join()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Stage(wall, usage.ru_maxrss / 1024.0, proc.returncode,
                 statistics.harmonic_mean(probes))


def stage_cmd(traced: bool, spans_path: Path, argv: list[str]) -> list[str]:
    if traced:
        return [sys.executable, str(BENCH / "child.py"), "cli", "--trace", str(spans_path), "--", *argv]
    return [sys.executable, "-m", "hyperobs.cli", *argv]


class StageFailed(RuntimeError):
    pass


def setup_stage(workdir: Path, traced: bool) -> tuple[float, float]:
    """(reference seconds, raw seconds) of one set-up in a fresh process."""
    argv = [sys.executable, str(BENCH / "child.py"), "setup", "--spec", "gen.json",
            "--out", "network.json", "--config", "config.json", "--result", "setup.json"]
    if traced:
        argv += ["--trace", "spans_setup.json"]
    stage = run_child(argv, workdir, workdir / "setup.log")
    if stage.exit_code != 0:
        raise StageFailed(f"setup exited {stage.exit_code}; see {workdir / 'setup.log'}")
    result = json.loads((workdir / "setup.json").read_text())
    if not Path(result["hyperobs"]).resolve().is_relative_to(SRC.resolve()):
        raise StageFailed(f"imported hyperobs from {result['hyperobs']}, not from {SRC}")
    return result["setup_s"] * stage.scale, result["setup_s"]


def prepare(workdir: Path, gen: dict, cfg: dict) -> None:
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    (workdir / "gen.json").write_text(json.dumps(gen, indent=1) + "\n")
    (workdir / "config.json").write_text(json.dumps(cfg, indent=1) + "\n")


def run_pass(workdir: Path, traced: bool) -> dict:
    """design then simulate; the network file from the set-up stage must exist."""
    out = {}
    for stage, argv in (
        ("design", ["design", "--config", "config.json", "--out-dir", "out"]),
        ("simulate", ["simulate", "--config", "config.json", "--design", "out/design.json",
                      "--out-dir", "out"]),
    ):
        cmd = stage_cmd(traced, workdir / f"spans_{stage}.json", argv)
        result = run_child(cmd, workdir, workdir / f"{stage}.log")
        # exit 2 (design incomplete) and 3 (diverged runs) still leave outputs
        # for the gate to count as failed operations
        if result.exit_code not in (0, 2, 3):
            raise StageFailed(f"{stage} exited {result.exit_code}; "
                              f"see {workdir / (stage + '.log')}")
        out[f"{stage}_s"] = result.wall_s * result.scale
        out[f"{stage}_wall_s"] = result.wall_s
        out[f"{stage}_probe_s"] = result.probe_s
        out[f"{stage}_peak_rss_mb"] = result.peak_rss_mb
    out["outputs"] = read_outputs(workdir / "out")
    return out


# -- outputs and the correctness gate ------------------------------------------------


def read_outputs(out_dir: Path) -> dict:
    design_doc = json.loads((out_dir / "design.json").read_text())
    outcome = design_doc["outcome"]
    summary = json.loads((out_dir / "summary.json").read_text())
    batch = summary["batches"][0]
    rows = (out_dir / batch["csv"]).read_text().split()
    final_median = float(rows[-1].split(",")[1])
    return {
        "design": {
            "status": outcome["status"],
            "measured": sorted(outcome["design"]["measured"]),
            "exact": sorted(outcome["design"]["exact_nodes"]),
            "subsets": [[p["nodes"], p["report"]["theorem_used"]]
                        for p in outcome["processed_subsets"]],
        },
        "mc": {
            "n_runs": batch["n_runs"],
            "n_flagged": batch["n_flagged"],
            "max_error": batch["max_error"],
            "final_median_error": final_median,
        },
        "bytes": {
            "design_json_bytes": (out_dir / "design.json").stat().st_size,
            "summary_json_bytes": (out_dir / "summary.json").stat().st_size,
            "csv_bytes": (out_dir / batch["csv"]).stat().st_size,
        },
    }


def check_invariants(design: dict, num_nodes: int) -> list[str]:
    """Properties every complete design has, whatever the seed."""
    problems = []
    if design["status"] != "complete":
        problems.append(f"design status {design['status']}")
    covered = sorted(v for nodes, _ in design["subsets"] for v in nodes)
    if covered != list(range(num_nodes)):
        problems.append("processed subsets do not partition the nodes")
    if not set(design["exact"]) <= set(design["measured"]):
        problems.append("exact nodes outside the measured set")
    for nodes, theorem in design["subsets"]:
        if theorem == "exact" and (len(nodes) != 1 or nodes[0] not in design["exact"]):
            problems.append(f"subset {nodes} marked exact")
        elif theorem not in ("exact", "thm1", "thm2"):
            problems.append(f"subset {nodes} certified by {theorem!r}")
    return problems


def gate(outputs: dict, reference: dict | None, num_nodes: int) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) for one pass.

    One design operation plus one operation per Monte-Carlo run.  The design
    fails when it is incomplete, breaks an invariant, or (with a reference
    for this seed) differs from the reference decisions; a Monte-Carlo run
    fails when it is flagged as diverged.  Problems also list Monte-Carlo
    statistics that miss the reference, which fail the run as a whole.
    """
    design, mc = outputs["design"], outputs["mc"]
    problems = check_invariants(design, num_nodes)
    if reference is not None:
        for key in ("status", "measured", "exact", "subsets"):
            if design[key] != reference["design"][key]:
                problems.append(f"design {key} differs from the reference")
    design_failed = bool(problems)
    ref_mc = None if reference is None else reference["mc"]
    if ref_mc is not None:
        if mc["n_runs"] != ref_mc["n_runs"] or mc["n_flagged"] != ref_mc["n_flagged"]:
            problems.append(f"Monte-Carlo runs/flags {mc['n_runs']}/{mc['n_flagged']} "
                            f"!= reference {ref_mc['n_runs']}/{ref_mc['n_flagged']}")
        for key in ("max_error", "final_median_error"):
            if not math.isclose(mc[key], ref_mc[key], rel_tol=MC_RTOL):
                problems.append(f"{key} {mc[key]!r} != reference {ref_mc[key]!r}")
    elif not math.isfinite(mc["max_error"]):
        problems.append("max_error is not finite")
    attempted = 1 + mc["n_runs"]
    return attempted, int(design_failed) + mc["n_flagged"], problems


def load_reference(workload: str, seed: int, path: Path | None = None) -> dict | None:
    path = path or REFERENCE
    if not path.is_file():
        return None
    return json.loads(path.read_text()).get(workload, {}).get(str(seed))


def write_reference(workload: str, seed: int, outputs: dict, path: Path | None = None) -> None:
    path = path or REFERENCE
    doc = json.loads(path.read_text()) if path.is_file() else {}
    entry = {"design": outputs["design"], "mc": outputs["mc"]}
    doc.setdefault(workload, {})[str(seed)] = entry
    # one line per seed keeps the file small and its diffs readable
    blocks = []
    for name in sorted(doc):
        seeds = sorted(doc[name], key=int)
        lines = ",\n".join(f'  "{k}": {json.dumps(doc[name][k], sort_keys=True)}' for k in seeds)
        blocks.append(f'"{name}": {{\n{lines}\n}}')
    path.write_text("{\n" + ",\n".join(blocks) + "\n}\n")


# -- per-layer metrics ----------------------------------------------------------------


def layer_metrics(workdir: Path, workload: str, traced: dict, untraced: dict) -> tuple[dict, list]:
    metrics = {name: 0.0 for name in per_layer_units()}
    all_spans, summaries, missing = {}, {}, set()
    for stage in ("setup", "design", "simulate"):
        doc = json.loads((workdir / f"spans_{stage}.json").read_text())
        all_spans[stage] = doc["spans"]
        summaries[stage] = spanlib.summarize(doc["spans"])
        missing.update(doc["missing"])
    for summary in summaries.values():
        for name, agg in summary.items():
            for key, value in agg.items():
                full = f"{name}.{key}"
                if full in metrics:
                    metrics[full] += value
    steps = metrics["sim.monte_carlo.steps"]
    if steps:
        metrics["sim.monte_carlo.s_per_step"] = metrics["sim.monte_carlo.s"] / steps

    # shares of the traced design process's raw wall time; the workload's
    # dominant spans and everything they call are weighed against the self
    # time of each other layer outside them
    design_spans = all_spans["design"]
    design_wall = traced["design_wall_s"]
    own = spanlib.self_times(design_spans)
    group = spanlib.within(design_spans, DOMINANT.get(workload, ()))
    self_by_layer = {layer: 0.0 for layer in LAYERS}
    other = dict(self_by_layer)
    group_s = 0.0
    for sid, parent, name, t0, t1, _ in design_spans:
        self_by_layer[spanlib.span_module(name)] += own[sid]
        if sid not in group:
            other[spanlib.span_module(name)] += own[sid]
        elif parent not in group:
            group_s += t1 - t0
    for layer, value in self_by_layer.items():
        metrics[f"design.self_share.{layer}"] = value / design_wall
    for name in BYPASSED_SPANS:
        agg = summaries["design"].get(name, {})
        metrics[f"{name}.share"] = agg.get("s", 0.0) / design_wall
        metrics[f"{name}.self_share"] = agg.get("self_s", 0.0) / design_wall
    metrics["dominant.share"] = group_s / design_wall
    metrics["dominant.largest"] = float(bool(group) and group_s > max(other.values()))

    for key, value in traced["outputs"]["bytes"].items():
        metrics[f"cli.{key}"] = value
    metrics["trace.design_s"] = traced["design_s"]
    metrics["trace.simulate_s"] = traced["simulate_s"]
    metrics["trace.overhead.design"] = traced["design_s"] / untraced["design_s"]
    metrics["trace.overhead.simulate"] = traced["simulate_s"] / untraced["simulate_s"]
    return metrics, sorted(missing)


# -- machine and build facts --------------------------------------------------------------


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    """HEAD of the repository rooted at ROOT; "unknown" in an exported tree."""
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown"
    return lines[1]


def facts() -> dict:
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src_lines = sum(len(p.read_text().splitlines()) for p in (SRC / "hyperobs").glob("*.py"))
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "git_commit": _git_commit(),
        "src_lines": src_lines,
    }


# -- entry point --------------------------------------------------------------------------


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    gen, cfg = WORKLOADS[workload](seed)
    num_nodes = sum(gen["layer_sizes"])
    reference = load_reference(workload, seed)
    workdir = WORK / f"{workload}-s{seed}"
    prepare(workdir, gen, cfg)

    setups = [setup_stage(workdir, traced=False) for _ in range(SETUP_REPEATS)]
    per_pass = list(END_TO_END)[1:]
    passes = []
    start = time.perf_counter()
    while not passes or (not trace and time.perf_counter() - start < seconds):
        passes.append(run_pass(workdir, traced=False))
    if trace:
        setup_stage(workdir, traced=True)
        passes.append(run_pass(workdir, traced=True))

    attempted = failed = 0
    problems: list[str] = []
    for p in passes:
        a, f, probs = gate(p["outputs"], reference, num_nodes)
        attempted, failed = attempted + a, failed + f
        problems += probs
    if any(p["outputs"] != passes[0]["outputs"] for p in passes[1:]):
        problems.append("passes of one seed produced different outputs")

    result = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "passes": len(passes),
        "reference": "seed" if reference is not None else "invariants only",
        "problems": problems,
        "facts": facts(),
        "outputs": passes[0]["outputs"],
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
    }
    if trace:
        metrics, missing = layer_metrics(workdir, workload, passes[-1], passes[0])
        result["missing_targets"] = missing
        units = per_layer_units()
    else:
        metrics = {"setup_s": statistics.median(s for s, _ in setups)}
        metrics.update({k: statistics.median(p[k] for p in passes) for k in per_pass})
        raw = ("design_wall_s", "design_probe_s", "simulate_wall_s", "simulate_probe_s")
        result["samples"] = {
            "setup_s": [s for s, _ in setups],
            "setup_raw_s": [r for _, r in setups],
            **{k: [p[k] for p in passes] for k in per_pass + list(raw)},
        }
        units = END_TO_END
    result["metrics"] = {k: {"value": metrics[k], "unit": units[k]} for k in units}
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="hyperobs pipeline benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="store this run's outputs as the reference for its seed")
    args = parser.parse_args(argv)

    if not (SRC / "hyperobs" / "cli.py").is_file():
        print(f"error: no hyperobs sources at {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except (StageFailed, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.write_reference:
        write_reference(args.workload, args.seed, result["outputs"])

    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-s{args.seed}-t{args.trace}.json"
    (results_dir / name).write_text(json.dumps(result, indent=1) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  passes {result['passes']}  "
          f"reference: {result['reference']}")
    print("facts " + json.dumps(result["facts"]))
    for key, entry in result["metrics"].items():
        print(f"  {key:<44} {entry['value']:>14.6g} {entry['unit']}")
    verdict = "PASS" if result["correct"] else "FAIL"
    print(f"gate {verdict}: {result['attempted']} attempted, {result['failed']} failed")
    for problem in result["problems"]:
        print(f"  - {problem}")
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
