"""Fixed-step co-simulation of the network and its observer.

One classical RK4 step, ``_rk4_step``, integrates the plant alone
(``simulate_network``) and the plant and its observer together.  The
co-simulation stacks them as one state of shape (R, 2, N, n), so one field
and one coupling evaluation per stage serve both systems: the plant runs on
per-run parameters, the observer on nominal ones.  Measurement noise is drawn
once per grid point from each run's own generator, per output channel of
every measured node, and held constant through the four stages of the next
step.  Measured nodes listed in ``design.exact_nodes`` are reconstructed
directly through the inverse output map at every grid point.

The co-simulation yields the per-node error norms grid point by grid point;
``monte_carlo`` keeps only the stacked error norm of each run, (R, G+1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.sparse import bsr_array

from .dynamics import DimensionMismatch, NetworkSystem
from .gain_design import ObserverDesign

# a run whose state leaves this box (or turns non-finite) is flagged as diverged
DIVERGENCE_THRESHOLD = 1e8


@dataclass(frozen=True)
class SimConfig:
    dt: float = 1e-3
    horizon: float = 2.0
    seed: int = 0
    noise_amplitude: float = 0.0
    param_rel_spread: float = 0.0
    x0_box: tuple[float, float] = (-3.0, 3.0)
    observer_init_width: float = 0.2

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.horizon < self.dt:
            raise ValueError("horizon must cover at least one step")

    @property
    def num_steps(self) -> int:
        return int(round(self.horizon / self.dt))


@dataclass
class EnsembleStats:
    times: np.ndarray
    median: np.ndarray
    p25: np.ndarray
    p75: np.ndarray
    settling_times: list
    error_norms: np.ndarray  # (R, G+1)
    flagged_runs: list[tuple[int, int]]  # (run, grid step at which it diverged)

    @property
    def n_flagged(self) -> int:
        return len(self.flagged_runs)

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
    """Sparse (N n) x (m p) map from the stacked innovations of the m measured
    nodes to state space, one n-by-p block per gain; None without gains."""
    measured = sorted(design.measured)
    if not design.gains:
        return measured, None
    n, p, N = sys.state_dim, sys.output.output_dim, sys.num_nodes
    pos = {j: k for k, j in enumerate(measured)}
    keys = sorted(design.gains.entries)
    blocks_per_row = np.bincount([i for i, _ in keys], minlength=N)
    op = bsr_array(
        (
            np.stack([design.gains[k] for k in keys]),
            [pos[j] for _, j in keys],
            np.concatenate([[0], np.cumsum(blocks_per_row)]),
        ),
        shape=(N * n, len(measured) * p),
    )
    return measured, op.tocsr()


def _rk4_step(f, y: np.ndarray, dt: float) -> np.ndarray:
    """One classical RK4 step of y' = f(y); returns the new state."""
    k1 = f(y)
    k2 = f(y + 0.5 * dt * k1)
    k3 = f(y + 0.5 * dt * k2)
    k4 = f(y + dt * k3)
    return y + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)


def _cosimulate(
    sys: NetworkSystem,
    design: ObserverDesign,
    cfg: SimConfig,
    x0: np.ndarray,  # (R, N, n)
    xhat0: np.ndarray,  # (R, N, n)
    per_params: np.ndarray,  # (R, N, param_dim)
    rngs: Sequence[np.random.Generator],  # one per run, for its noise
):
    """Co-simulate R runs of plant and observer.

    Yields, at each of the G+1 grid points, the per-node error norms (R, N),
    NaN for diverged runs, and the diverged flags (R,).
    """
    N, n = sys.num_nodes, sys.state_dim
    R = x0.shape[0]
    measured, op = _correction_operator(sys, design)
    exact = sorted(design.exact_nodes)
    if exact and not sys.output.invertible:
        raise ValueError("exact reconstruction requires an invertible output map")
    exact_cols = [measured.index(j) for j in exact]

    # index 0 along axis 1 is the plant, 1 the observer
    y = np.stack([x0, xhat0], axis=1)
    params = np.stack(
        [per_params, np.broadcast_to(sys.field.nominal_params, per_params.shape)], axis=1
    )
    active = np.ones(R, dtype=bool)
    a = cfg.noise_amplitude
    noise_shape = (len(measured), sys.output.output_dim)
    silent = np.zeros((R,) + noise_shape)

    def draw_noise():
        if a > 0 and measured:
            return np.stack([rng.uniform(-a, a, noise_shape) for rng in rngs])
        return silent

    def rhs(ys, nu):
        d = sys.field.eval(ys, params) + sys.coupling_term(ys)
        if op is not None:
            h = sys.output.eval(ys[:, :, measured])
            innov = h[:, 0] + nu - h[:, 1]
            d[:, 1] += (op @ innov.reshape(R, -1).T).T.reshape(R, N, n)
        return d

    nu = draw_noise()
    for k in range(cfg.num_steps + 1):
        if k:
            stepped = _rk4_step(lambda ys: rhs(ys, nu), y, cfg.dt)
            y[active] = stepped[active]
            bad = ~(
                np.isfinite(y).all(axis=(1, 2, 3))
                & (np.abs(y).max(axis=(1, 2, 3)) < DIVERGENCE_THRESHOLD)
            )
            y[bad & active] = 0.0
            active &= ~bad
            nu = draw_noise()
        if exact:
            meas = sys.output.eval(y[:, 0, exact]) + nu[:, exact_cols]
            y[:, 1, exact] = meas @ sys.output.inverse.T
        err = np.linalg.norm(y[:, 0] - y[:, 1], axis=-1)
        err[~active] = np.nan
        yield err, ~active


def monte_carlo(
    sys: NetworkSystem,
    design: ObserverDesign,
    cfg: SimConfig,
    n_runs: int,
) -> EnsembleStats:
    """Independent runs with per-run derived seeds, reduced pointwise.

    Each run owns a generator spawned from the master seed.  It draws, in
    order: x(0) uniform in the initial box, xhat(0) from the relative-width
    perturbation of x(0), per-node parameter draws (when a spread is
    configured), then the measurement noise, once per grid point while the
    runs are co-simulated.  All runs step together, and only the (R, G+1)
    error norms are kept, so memory does not grow with N times G.
    """
    if n_runs < 1:
        raise ValueError("n_runs must be >= 1")
    N, n = sys.num_nodes, sys.state_dim
    G = cfg.num_steps
    rngs = [np.random.default_rng(s) for s in np.random.SeedSequence(cfg.seed).spawn(n_runs)]

    x0 = np.empty((n_runs, N, n))
    xh0 = np.empty((n_runs, N, n))
    params = np.empty((n_runs,) + sys.per_node_params.shape)
    for r, rng in enumerate(rngs):
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

    norms = np.empty((n_runs, G + 1))
    # no run is flagged at grid point 0, so 0 means "never diverged"
    diverged_at = np.zeros(n_runs, dtype=int)
    for k, (err, flags) in enumerate(_cosimulate(sys, design, cfg, x0, xh0, params, rngs)):
        norms[:, k] = np.linalg.norm(err, axis=-1)
        diverged_at[flags & (diverged_at == 0)] = k
    flagged = [(int(r), int(diverged_at[r])) for r in np.flatnonzero(diverged_at)]

    times = np.arange(G + 1) * cfg.dt
    settle = [settling_time(times, norms[r]) for r in range(n_runs)]
    # steps at which every run has diverged have no percentiles: NaN
    stats = np.full((3, G + 1), np.nan)
    seen = ~np.isnan(norms).all(axis=0)
    stats[:, seen] = np.nanpercentile(norms[:, seen], [50, 25, 75], axis=0)
    med, p25, p75 = stats
    return EnsembleStats(times, med, p25, p75, settle, norms, flagged)


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
        # the Theorem-1 check differentiates A_S along each trajectory, so
        # every trajectory needs at least two samples
        if self.num_steps < self.subsample:
            raise ValueError(
                f"trajectory horizon {self.horizon} at dt {self.dt} has "
                f"{self.num_steps} steps, fewer than subsample={self.subsample}: "
                "each trajectory would hold a single sample"
            )

    @property
    def num_steps(self) -> int:
        return int(round(self.horizon / self.dt))


@dataclass
class TrajectoryEnsemble:
    """Representative estimator trajectories sampled on a uniform grid."""

    states: np.ndarray  # (count, T, N, n), C-contiguous
    dt_sample: float

    def stacked(self) -> np.ndarray:
        """The (count * T, N, n) samples, trajectory by trajectory; a view
        when ``states`` is contiguous."""
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
    out[:, 0] = x0
    for k in range(steps):
        out[:, k + 1] = _rk4_step(f, out[:, k], dt)
    return out


def make_ensemble(sys: NetworkSystem, spec: TrajectoryEnsembleSpec) -> TrajectoryEnsemble:
    """Simulate ``count`` network trajectories from the initial-condition box."""
    rng = np.random.default_rng(spec.seed)
    lo, hi = spec.box
    x0 = rng.uniform(lo, hi, (spec.count, sys.num_nodes, sys.state_dim))
    if spec.burn_in > 0:
        burn_steps = int(round(spec.burn_in / spec.dt))
        x0 = simulate_network(sys, x0, spec.dt, burn_steps)[:, -1]
    states = simulate_network(sys, x0, spec.dt, spec.num_steps)
    # a contiguous copy lets the full-resolution array go and makes
    # ``stacked`` a view
    return TrajectoryEnsemble(
        np.ascontiguousarray(states[:, :: spec.subsample]), spec.dt * spec.subsample
    )
