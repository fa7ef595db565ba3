"""Fixed-step co-simulation of the network and its observer.

One classical RK4 step, ``_rk4_step``, integrates the plant alone
(``simulate_network``) and the plant and its observer together, on a
node-first state that the coupling's two sparse products read as it is.  The
co-simulation stacks them as one state (N, S, A, n) over the A runs not yet
diverged, so one field and one coupling evaluation per stage serve both: the
plant runs on per-run parameters, the observer on nominal ones, and the gain
correction is a third product on the same ``JaggedMatrix`` kernel.  Each run's
generator draws its measurement noise for every output channel of every
measured node, a chunk of grid points at a time; the noise of a grid point is
held through the four stages of the next step.  Measured nodes listed in
``design.exact_nodes`` are reconstructed directly through the inverse output
map at every grid point, x̂ = Γ⁻¹(Γx + ν).  When that covers every node the
observer has no dynamics, and S = 1 steps the plant alone; otherwise S = 2.
Either way ``monte_carlo`` draws xhat(0) and the noise of every output
channel of every measured node at every grid point, so each run's generator
yields the same numbers whatever S is.

A step forms its stage inputs and its sum in place.  The observation work,
the reconstructions and the error norms, runs once per block of grid points
rather than at each: the co-simulation yields the per-node error norms block
by block, and ``monte_carlo`` keeps only the stacked error norm of each run,
(R, G+1).  Every result is bit for bit that of the same arithmetic taken out
of place, one grid point at a time.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import dynamics
from .dynamics import DimensionMismatch, JaggedMatrix, NetworkSystem
from .gain_design import ObserverDesign
from .hypergraph import _csr

# a run whose state leaves this box (or turns non-finite) is flagged as
# diverged; a design trajectory that does raises EnsembleDiverged
DIVERGENCE_THRESHOLD = 1e8


class EnsembleDiverged(ArithmeticError):
    pass


def _check_interval(name: str, lo: float, hi: float) -> None:
    """ValueError unless lo <= hi and hi - lo is finite, as numpy's uniform
    draw in [lo, hi) needs: a width w is drawn in [-w, w)."""
    if not (lo <= hi and math.isfinite(hi - lo)):
        raise ValueError(f"{name} draws in [{lo}, {hi}], not an interval of finite width")


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
        _check_interval("x0_box", *self.x0_box)
        for name in ("observer_init_width", "noise_amplitude", "param_rel_spread"):
            _check_interval(name, -getattr(self, name), getattr(self, name))

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
    runs) count as exceedances.  With measurement noise the error decays to
    a floor the noise sets (at an exactly reconstructed node, the inverted
    noise itself): where it is above fraction * norm[0], a converged run
    reads None, which then says that the error did not stay below 5 % of
    where it started, not that the observer failed to converge.
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
    nodes to state space, one n-by-p block per gain; None without gains.
    Entry (r, c) of gain (i, j) is at row i n + r, column pos[j] p + c, and
    ``_csr`` orders a row by column: key order, the block-sparse CSR order."""
    measured = sorted(design.measured)
    if not design.gains:
        return measured, None
    n, p, N = sys.state_dim, sys.output.output_dim, sys.num_nodes
    pos = {j: k for k, j in enumerate(measured)}
    keys = sorted(design.gains)
    node = np.array([i for i, _ in keys], dtype=np.intp)
    block_col = np.array([pos[j] for _, j in keys], dtype=np.intp)
    b, r, c = np.indices((len(keys), n, p)).reshape(3, -1)
    cols = block_col[b] * p + c
    indptr, order = _csr(node[b] * n + r, cols, N * n)
    data = np.stack([design.gains[k] for k in keys]).ravel()
    return measured, JaggedMatrix(data[order], cols[order], indptr)


def _norms(x: np.ndarray) -> np.ndarray:
    """Euclidean norms over the last axis, the sums and square roots of
    ``np.linalg.norm`` bit for bit wherever its sum of squares stays finite.
    A row of finite entries whose sum overflows is scaled by its largest
    magnitude first, so an error that a float holds reads as a finite norm,
    not as inf."""
    with np.errstate(over="ignore"):
        out = np.sqrt(np.add.reduce(x * x, axis=-1))
    over = np.isinf(out)
    if over.any():
        over &= np.isfinite(x).all(axis=-1)
        rows = x[over]
        scale = np.abs(rows).max(axis=-1, keepdims=True)
        out[over] = scale[..., 0] * np.linalg.norm(rows / scale, axis=-1)
    return out


def _rk4_step(f, y: np.ndarray, dt: float) -> np.ndarray:
    """One classical RK4 step of y' = f(y); returns the new state.  ``f``
    returns a new array, which the step then reuses: the stage inputs and
    the combination y + dt/6 (((k1 + 2 k2) + 2 k3) + k4) are formed in
    place, the operations and bits of the out-of-place formulas."""
    k1 = f(y)
    t = k1 * (0.5 * dt)
    t += y
    k2 = f(t)
    np.multiply(k2, 0.5 * dt, out=t)
    t += y
    k3 = f(t)
    np.multiply(k3, dt, out=t)
    t += y
    k4 = f(t)
    k2 *= 2
    k1 += k2
    k3 *= 2
    k1 += k3
    k1 += k4
    k1 *= dt / 6.0
    k1 += y
    return k1


def _noise(rngs: Sequence[np.random.Generator], amplitude: float, m: int, p: int, count: int):
    """Uniform noise in [-amplitude, amplitude) at each of ``count`` grid
    points, (R, m, p) for R generators.  Each generator draws one (C, m, p)
    block per chunk of C grid points, the numbers that C draws of shape
    (m, p) give; a chunk holds at most ``CHUNK_BYTES`` for all runs."""
    R = len(rngs)
    chunk = max(1, dynamics.CHUNK_BYTES // (8 * m * R * p))
    for start in range(0, count, chunk):
        c = min(chunk, count - start)
        block = np.empty((c, R, m, p))
        for r, rng in enumerate(rngs):
            block[:, r] = rng.uniform(-amplitude, amplitude, (c, m, p))
        yield from block


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

    Yields, for each block of consecutive grid points, the per-node error
    norms (B, R, N), NaN for diverged runs, and the diverged flags (R,),
    which hold through the block: a run that diverges at grid point k is
    flagged from the block that starts at k.  The state is node-first
    (N, S, A, n) over the A runs still alive, slot 0 the plant and slot 1
    the observer.  When every node is in ``design.exact_nodes``, S = 1: the
    reconstruction replaces the observer at every grid point, so only the
    plant is stepped, and ``xhat0`` and any gains go unread.

    The observation work runs once per block: a block buffers, for each of
    its grid points, the plant minus the observer (S = 2) or the plant and
    its noise (S = 1), and takes the reconstructions and the per-node norms
    of them all at once.  A block ends early where a run diverges, before
    the run is dropped from the state.  With S = 2 the exact nodes'
    reconstruction is the observer's state, so it is taken at every grid
    point.
    """
    R, N, n = x0.shape
    measured, op = _correction_operator(sys, design)
    exact = np.array(sorted(design.exact_nodes), dtype=np.intp)
    if exact.size and not sys.output.invertible:
        raise ValueError("exact reconstruction requires an invertible output map")
    exact_cols = np.searchsorted(measured, exact)
    m, p = len(measured), sys.output.output_dim
    S = 1 if exact.size == N else 2
    op = op if S == 2 else None
    nominal = np.broadcast_to(sys.field.nominal_params, per_params.shape)
    y = np.ascontiguousarray(np.stack([x0, xhat0][:S]).transpose(2, 0, 1, 3))
    params = np.ascontiguousarray(np.stack([per_params, nominal][:S]).transpose(2, 0, 1, 3))
    alive, diverged = np.arange(R), np.zeros(R, dtype=bool)
    a, G = cfg.noise_amplitude, cfg.num_steps
    noise = _noise(rngs, a, m, p, G + 1) if a > 0 and m else itertools.repeat(np.zeros((R, m, p)))
    # the fixed inputs of the right-hand side and the reconstruction
    measured = np.array(measured, dtype=np.intp)
    gamma_t = sys.output.matrix.T
    inverse_t = sys.output.inverse.T if exact.size else None

    # outputs are taken on run-first copies: the BLAS calls of a stacked
    # matmul, and so a run's bits, do not depend on the number of runs
    def rhs(ys):
        # a new array, which the step reuses, whatever the field returns
        d = sys.field.eval(ys, params) + sys.coupling_term(ys)
        if op is not None:
            h = np.ascontiguousarray(ys.take(measured, 0).transpose(2, 1, 0, 3)) @ gamma_t
            innov = h[:, 0] + nu
            innov -= h[:, 1]
            # the innovations of each run as one column of length m p
            corr = op @ innov.reshape(len(innov), m * p).T
            # added in the (N, n, A) order of corr, twice as fast as in d's
            observer = d[:, 1].transpose(0, 2, 1)
            observer += corr.reshape(N, n, -1)
        return d

    def reconstruct(x, nus):
        """Gamma^-1 (Gamma x + nu) at the exact nodes, for their node-first
        plant states x (..., e, A, n) and the noise (..., A, m, p)."""
        xe = np.ascontiguousarray(x.swapaxes(-3, -2)) @ gamma_t
        xe += nus.take(exact_cols, axis=-2)
        return (xe @ inverse_t).swapaxes(-3, -2)

    def flush(b):
        """The error norms and flags of the b buffered grid points."""
        diff = buffered[:b]
        if S == 1:
            diff = diff - reconstruct(diff, noises[:b])
        err = np.full((b, R, N), np.nan)
        err[:, alive] = _norms(diff).transpose(0, 2, 1)
        return err, diverged.copy()

    # grid points per block: the buffers hold at most a sixteenth of
    # CHUNK_BYTES and are made anew only when runs are dropped.  Blocks of
    # a few grid points already take most of the per-call cost off the
    # observation; larger blocks, or buffers made per block, raised the
    # peak RSS of a simulate process by up to 5 MB
    block = max(1, dynamics.CHUNK_BYTES // (16 * 8 * R * (N * n + (m * p if S == 1 else 0))))

    def buffers():
        """The plant minus the observer, or with S = 1 the plant and its
        noise, at the grid points of a block, for the runs alive."""
        size = min(block, G + 1)
        return (np.empty((size, N, alive.size, n)),
                np.empty((size, alive.size, m, p)) if S == 1 else None)

    buffered, noises = buffers()
    first = 0  # the block's first grid point
    for k in range(G + 1):
        if k and alive.size:
            y = _rk4_step(rhs, y, cfg.dt)
            # a max with a NaN is NaN, which compares False; the max of a
            # run, over axes (0, 1, 3) of the state, only when the max of
            # all runs fails, and several times faster as two reductions
            # than as one
            if not np.abs(y).max() < DIVERGENCE_THRESHOLD:
                ok = np.abs(y).max(axis=(0, 1)).max(axis=-1) < DIVERGENCE_THRESHOLD
                if k > first:
                    yield flush(k - first)
                    first = k
                diverged[alive[~ok]] = True
                y, params, alive = y[..., ok, :], params[..., ok, :], alive[ok]
                buffered, noises = buffers()
        i = k - first
        # the noise of grid point k, held through the next step
        nu = next(noise)[alive]
        if S == 2:
            if exact.size:
                # the observer's exact nodes are Gamma^-1 (Gamma x + nu)
                y[exact, 1] = reconstruct(y[exact, 0], nu)
            np.subtract(y[:, 0], y[:, 1], out=buffered[i])
        else:
            buffered[i] = y[:, 0]
            noises[i] = nu
        if i == len(buffered) - 1 or k == G:
            yield flush(i + 1)
            first = k + 1


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
    configured), then the measurement noise, grid point by grid point while
    the runs are co-simulated.  xhat(0) is drawn even when every node is
    reconstructed exactly and it goes unread, so the noise does not depend
    on the design.  All runs step together, and only the (R, G+1)
    error norms are kept, so memory does not grow with N times G.
    """
    if n_runs < 1:
        raise ValueError("n_runs must be >= 1")
    N, n = sys.num_nodes, sys.state_dim
    G = cfg.num_steps
    rngs = [np.random.default_rng(s) for s in np.random.SeedSequence(cfg.seed).spawn(n_runs)]

    x0 = np.empty((n_runs, N, n))
    xh0 = np.empty((n_runs, N, n))
    params = np.tile(sys.per_node_params, (n_runs, 1, 1))
    (lo, hi), w, s = cfg.x0_box, cfg.observer_init_width, cfg.param_rel_spread
    for r, rng in enumerate(rngs):
        x0[r] = rng.uniform(lo, hi, (N, n))
        xh0[r] = x0[r] * (1.0 + rng.uniform(-w, w, (N, n)))
        if s > 0:
            params[r] = sys.per_node_params * (1.0 + rng.uniform(-s, s, params.shape[1:]))

    norms = np.empty((n_runs, G + 1))
    # no run is flagged at grid point 0, so 0 means "never diverged"
    diverged_at = np.zeros(n_runs, dtype=int)
    k = 0
    for err, flags in _cosimulate(sys, design, cfg, x0, xh0, params, rngs):
        norms[:, k : k + len(err)] = _norms(err).T
        diverged_at[flags & (diverged_at == 0)] = k
        k += len(err)
    flagged = [(int(r), int(diverged_at[r])) for r in np.flatnonzero(diverged_at)]

    times = np.arange(G + 1) * cfg.dt
    settle = [settling_time(times, norms[r]) for r in range(n_runs)]
    # steps at which every run has diverged have no percentiles: NaN
    stats = np.full((3, G + 1), np.nan)
    seen = ~np.isnan(norms).all(axis=0)
    # with no NaN to skip, one vectorised quantile serves every column
    quantile = np.nanpercentile if flagged else np.percentile
    stats[:, seen] = quantile(norms[:, seen], [50, 25, 75], axis=0)
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
        _check_interval("box", *self.box)
        # a one-sample trajectory holds only its initial state, a random draw
        # from the box that the network's flow has not moved: every
        # trajectory needs two samples
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

    def stacked(self) -> np.ndarray:
        """The (count * T, N, n) samples, trajectory by trajectory; a view
        when ``states`` is contiguous."""
        c, T, N, n = self.states.shape
        return self.states.reshape(c * T, N, n)


def simulate_network(
    sys: NetworkSystem, x0: np.ndarray, dt: float, steps: int, stride: int = 1
) -> np.ndarray:
    """Plant-only RK4 on the node-first state (N, R, n); ``x0`` is (R, N, n).
    Returns every ``stride``-th state from the initial one on,
    (R, steps // stride + 1, N, n), a C-contiguous array.

    ``EnsembleDiverged`` names the first trajectory, and the time after
    ``x0``, at which a state leaves the ``DIVERGENCE_THRESHOLD`` box or turns
    non-finite: each step is checked, so the states stay far from overflow,
    a stage that overflows anyway leaves a non-finite state, and no
    trajectory's numbers depend on the check."""
    x0 = np.asarray(x0, dtype=float)
    if x0.ndim != 3:
        raise DimensionMismatch("x0 must be (runs, N, n)")
    params = sys.per_node_params[:, None]

    def f(xs):
        return sys.field.eval(xs, params) + sys.coupling_term(xs)

    out = np.empty((x0.shape[0], steps // stride + 1) + x0.shape[1:])
    out[:, 0] = x0
    x = np.ascontiguousarray(x0.transpose(1, 0, 2))
    for k in range(1, steps + 1):
        with np.errstate(over="ignore", invalid="ignore"):
            x = _rk4_step(f, x, dt)
        # a NaN compares False
        if not np.abs(x).max(initial=0.0) < DIVERGENCE_THRESHOLD:
            run = int(np.flatnonzero(~(np.abs(x).max(axis=(0, 2)) < DIVERGENCE_THRESHOLD))[0])
            raise EnsembleDiverged(
                f"trajectory {run} leaves the box |x| < {DIVERGENCE_THRESHOLD:g} at "
                f"t = {k * dt:.6g} after its initial state")
        if k % stride == 0:
            out[:, k // stride] = x.transpose(1, 0, 2)
    return out


def make_ensemble(sys: NetworkSystem, spec: TrajectoryEnsembleSpec) -> TrajectoryEnsemble:
    """Simulate ``count`` network trajectories from the initial-condition
    box, keeping every ``subsample``-th state; a burn-in keeps only its last
    state.  ``stacked`` is then a view."""
    rng = np.random.default_rng(spec.seed)
    lo, hi = spec.box
    x0 = rng.uniform(lo, hi, (spec.count, sys.num_nodes, sys.state_dim))
    if spec.burn_in > 0:
        burn_steps = int(round(spec.burn_in / spec.dt))
        x0 = simulate_network(sys, x0, spec.dt, burn_steps, max(burn_steps, 1))[:, -1]
    states = simulate_network(sys, x0, spec.dt, spec.num_steps, spec.subsample)
    return TrajectoryEnsemble(states)
