"""Fixed-step co-simulation of the network and its observer.

Classical RK4 on the stacked (x, xhat) system.  Measurement noise is drawn
once per step, per output channel of every measured node, and held constant
through the four stages.  The plant runs on per-node parameters, the observer
on nominal ones.  Measured nodes listed in ``design.exact_nodes`` are
reconstructed directly through the inverse output map at every grid point.

Runs in a Monte-Carlo ensemble are seeded independently from a master seed
and evaluated in vectorized batches.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .dynamics import DimensionMismatch, NetworkSystem
from .gain_design import ObserverDesign


@dataclass(frozen=True)
class SimConfig:
    dt: float = 1e-3
    horizon: float = 2.0
    seed: int = 0
    noise_amplitude: float = 0.0
    param_rel_spread: float = 0.0
    x0_box: tuple[float, float] = (-3.0, 3.0)
    observer_init_width: float = 0.2
    divergence_threshold: float = 1e8

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.horizon < self.dt:
            raise ValueError("horizon must cover at least one step")

    @property
    def num_steps(self) -> int:
        return int(round(self.horizon / self.dt))


@dataclass
class RunResult:
    times: np.ndarray
    per_node_error: np.ndarray  # (G+1, N)
    error_norm: np.ndarray  # (G+1,)
    settling_time: float | None
    flagged: bool


@dataclass
class EnsembleStats:
    times: np.ndarray
    median: np.ndarray
    p25: np.ndarray
    p75: np.ndarray
    settling_times: list
    error_norms: np.ndarray  # (R, G+1)
    n_flagged: int

    @property
    def max_error(self) -> float:
        return float(np.nanmax(self.error_norms))


def settling_time(times, norms, fraction: float = 0.05) -> float | None:
    """Earliest grid time after which the norm stays below fraction * norm[0].

    Returns 0.0 when the initial error is zero, None when the bound is never
    maintained through the end of the horizon.  Non-finite samples (diverged
    runs) count as exceedances.
    """
    times = np.asarray(times, dtype=float)
    norms = np.asarray(norms, dtype=float)
    if times.size == 0:
        raise ValueError("empty series")
    e0 = norms[0]
    if e0 == 0.0:
        return 0.0
    clean = np.where(np.isfinite(norms), norms, np.inf)
    exceeds = clean > fraction * e0
    if not exceeds.any():
        return float(times[0])
    last = int(np.nonzero(exceeds)[0][-1])
    if last + 1 >= times.size:
        return None
    return float(times[last + 1])


def _correction_operator(sys: NetworkSystem, design: ObserverDesign):
    """Dense map from stacked innovations of measured nodes to state space."""
    measured = sorted(design.measured)
    n, p, N = sys.state_dim, sys.output.output_dim, sys.num_nodes
    op = np.zeros((N * n, len(measured) * p))
    pos = {j: k for k, j in enumerate(measured)}
    for (i, j), L in design.gains.items():
        op[i * n : (i + 1) * n, pos[j] * p : (pos[j] + 1) * p] += np.asarray(L)
    return measured, op


def _draw_noise(rng, cfg: SimConfig, n_draws: int, m: int, p: int) -> np.ndarray:
    if cfg.noise_amplitude > 0 and m > 0:
        return rng.uniform(-cfg.noise_amplitude, cfg.noise_amplitude, (n_draws, m, p))
    return np.zeros((n_draws, m, p))


def _simulate_batch(
    sys: NetworkSystem,
    design: ObserverDesign,
    cfg: SimConfig,
    x0: np.ndarray,  # (R, N, n)
    xhat0: np.ndarray,  # (R, N, n)
    per_params: np.ndarray,  # (R, N, param_dim)
    noise: np.ndarray,  # (R, G+1, m, p)
):
    N, n = sys.num_nodes, sys.state_dim
    R = x0.shape[0]
    G = cfg.num_steps
    dt = cfg.dt
    measured, op = _correction_operator(sys, design)
    exact = sorted(design.exact_nodes)
    if exact and not sys.output.invertible:
        raise ValueError("exact reconstruction requires an invertible output map")
    exact_cols = [measured.index(j) for j in exact]
    nominal = sys.field.nominal_params

    x = np.array(x0, dtype=float)
    xh = np.array(xhat0, dtype=float)
    active = np.ones(R, dtype=bool)
    per_node = np.full((R, G + 1, N), np.nan)
    times = np.arange(G + 1) * dt

    def rhs(xs, xhs, nu):
        dx = sys.field.eval(xs, per_params) + sys.coupling_term(xs)
        dxh = sys.field.eval(xhs, nominal) + sys.coupling_term(xhs)
        if measured:
            innov = (
                sys.output.eval(xs[:, measured])
                + nu
                - sys.output.eval(xhs[:, measured])
            )
            corr = innov.reshape(R, -1) @ op.T
            dxh = dxh + corr.reshape(R, N, n)
        return dx, dxh

    def substitute(nu):
        if exact:
            y = sys.output.eval(x[:, exact]) + nu[:, exact_cols]
            xh[:, exact] = sys.output.inverse(y)

    def record(k):
        e = x - xh
        per_node[active, k] = np.linalg.norm(e[active], axis=-1)

    def check_divergence():
        nonlocal active
        bad = ~(
            np.isfinite(x).all(axis=(1, 2))
            & np.isfinite(xh).all(axis=(1, 2))
            & (np.abs(x).max(axis=(1, 2)) < cfg.divergence_threshold)
            & (np.abs(xh).max(axis=(1, 2)) < cfg.divergence_threshold)
        )
        newly = bad & active
        if newly.any():
            x[newly] = 0.0
            xh[newly] = 0.0
            active = active & ~bad

    substitute(noise[:, 0])
    record(0)
    for k in range(G):
        nu = noise[:, k]
        k1x, k1h = rhs(x, xh, nu)
        k2x, k2h = rhs(x + 0.5 * dt * k1x, xh + 0.5 * dt * k1h, nu)
        k3x, k3h = rhs(x + 0.5 * dt * k2x, xh + 0.5 * dt * k2h, nu)
        k4x, k4h = rhs(x + dt * k3x, xh + dt * k3h, nu)
        step_x = (dt / 6.0) * (k1x + 2 * k2x + 2 * k3x + k4x)
        step_h = (dt / 6.0) * (k1h + 2 * k2h + 2 * k3h + k4h)
        x[active] += step_x[active]
        xh[active] += step_h[active]
        check_divergence()
        substitute(noise[:, k + 1])
        record(k + 1)

    error_norm = np.sqrt(np.sum(per_node**2, axis=-1))
    flags = ~active
    return times, per_node, error_norm, flags


def integrate(
    sys: NetworkSystem,
    design: ObserverDesign,
    cfg: SimConfig,
    x0,
    xhat0,
    rng: np.random.Generator | None = None,
) -> RunResult:
    """Simulate one run from explicit initial conditions."""
    N, n = sys.num_nodes, sys.state_dim
    x0 = np.asarray(x0, dtype=float).reshape(1, N, n)
    xhat0 = np.asarray(xhat0, dtype=float).reshape(1, N, n)
    if rng is None:
        rng = np.random.default_rng(cfg.seed)
    m = len(design.measured)
    noise = _draw_noise(rng, cfg, cfg.num_steps + 1, m, sys.output.output_dim)[None]
    params = sys.per_node_params[None]
    times, per_node, norm, flags = _simulate_batch(
        sys, design, cfg, x0, xhat0, params, noise
    )
    return RunResult(
        times,
        per_node[0],
        norm[0],
        settling_time(times, norm[0]),
        bool(flags[0]),
    )


def monte_carlo(
    sys: NetworkSystem,
    design: ObserverDesign,
    cfg: SimConfig,
    n_runs: int,
    jobs: int = 1,
) -> EnsembleStats:
    """Independent runs with per-run derived seeds, reduced pointwise.

    Per run, in order: x(0) uniform in the initial box, xhat(0) from the
    relative-width perturbation of x(0), per-node parameter draws (when a
    spread is configured), then the per-step measurement noise.
    """
    if n_runs < 1:
        raise ValueError("n_runs must be >= 1")
    N, n = sys.num_nodes, sys.state_dim
    m = len(design.measured)
    p = sys.output.output_dim
    G = cfg.num_steps
    seeds = np.random.SeedSequence(cfg.seed).spawn(n_runs)

    x0 = np.empty((n_runs, N, n))
    xh0 = np.empty((n_runs, N, n))
    params = np.empty((n_runs,) + sys.per_node_params.shape)
    noise = np.empty((n_runs, G + 1, m, p))
    for r, s in enumerate(seeds):
        rng = np.random.default_rng(s)
        lo, hi = cfg.x0_box
        x0[r] = rng.uniform(lo, hi, (N, n))
        w = cfg.observer_init_width
        xh0[r] = x0[r] * (1.0 + rng.uniform(-w, w, (N, n)))
        if cfg.param_rel_spread > 0:
            spread = rng.uniform(
                -cfg.param_rel_spread, cfg.param_rel_spread, sys.per_node_params.shape
            )
            params[r] = sys.per_node_params * (1.0 + spread)
        else:
            params[r] = sys.per_node_params
        noise[r] = _draw_noise(rng, cfg, G + 1, m, p)

    chunk = max(1, int(np.ceil(n_runs / max(1, jobs))))
    norms = np.empty((n_runs, G + 1))
    flags = np.zeros(n_runs, dtype=bool)
    times = None
    for start in range(0, n_runs, chunk):
        sl = slice(start, min(start + chunk, n_runs))
        times, _, norm_c, flag_c = _simulate_batch(
            sys, design, cfg, x0[sl], xh0[sl], params[sl], noise[sl]
        )
        norms[sl] = norm_c
        flags[sl] = flag_c

    settle = [settling_time(times, norms[r]) for r in range(n_runs)]
    # steps at which every run has diverged have no percentiles: NaN
    stats = np.full((3, G + 1), np.nan)
    seen = ~np.isnan(norms).all(axis=0)
    stats[:, seen] = np.nanpercentile(norms[:, seen], [50, 25, 75], axis=0)
    med, p25, p75 = stats
    return EnsembleStats(times, med, p25, p75, settle, norms, int(flags.sum()))


# -- trajectory ensembles for observer design ---------------------------------------


@dataclass(frozen=True)
class TrajectoryEnsembleSpec:
    count: int = 100
    horizon: float = 2.0
    dt: float = 1e-3
    subsample: int = 5
    box: tuple[float, float] = (-3.0, 3.0)
    seed: int = 0
    burn_in: float = 0.0

    def __post_init__(self):
        if self.count < 1 or self.dt <= 0 or self.subsample < 1:
            raise ValueError("invalid ensemble spec")


@dataclass
class TrajectoryEnsemble:
    """Representative estimator trajectories sampled on a uniform grid."""

    states: np.ndarray  # (count, T, N, n)
    dt_sample: float

    def stacked(self) -> np.ndarray:
        c, T, N, n = self.states.shape
        return self.states.reshape(c * T, N, n)

    @property
    def count(self) -> int:
        return self.states.shape[0]


def simulate_network(sys: NetworkSystem, x0: np.ndarray, dt: float, steps: int) -> np.ndarray:
    """Plant-only RK4; ``x0`` is (R, N, n), returns (R, steps+1, N, n)."""
    x0 = np.asarray(x0, dtype=float)
    if x0.ndim != 3:
        raise DimensionMismatch("x0 must be (runs, N, n)")
    params = sys.per_node_params

    def f(xs):
        return sys.field.eval(xs, params) + sys.coupling_term(xs)

    out = np.empty((x0.shape[0], steps + 1) + x0.shape[1:])
    x = x0.copy()
    out[:, 0] = x
    for k in range(steps):
        k1 = f(x)
        k2 = f(x + 0.5 * dt * k1)
        k3 = f(x + 0.5 * dt * k2)
        k4 = f(x + dt * k3)
        x = x + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        out[:, k + 1] = x
    return out


def make_ensemble(sys: NetworkSystem, spec: TrajectoryEnsembleSpec) -> TrajectoryEnsemble:
    """Simulate ``count`` network trajectories from the initial-condition box."""
    rng = np.random.default_rng(spec.seed)
    lo, hi = spec.box
    x0 = rng.uniform(lo, hi, (spec.count, sys.num_nodes, sys.state_dim))
    if spec.burn_in > 0:
        burn_steps = int(round(spec.burn_in / spec.dt))
        x0 = simulate_network(sys, x0, spec.dt, burn_steps)[:, -1]
    steps = int(round(spec.horizon / spec.dt))
    states = simulate_network(sys, x0, spec.dt, steps)
    return TrajectoryEnsemble(states[:, :: spec.subsample], spec.dt * spec.subsample)
