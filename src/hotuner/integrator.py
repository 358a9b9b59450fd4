"""Fixed-step explicit Euler simulation of the tuner family.

One step is: apply the online recording rule (for buffer-driven kinds that
record their data), emit an output row if due, evaluate the field with the
current buffer, update the state. Recording therefore takes effect from the
very step at which a sample is kept.

Nothing on that list but the field depends on the state, so a SignalGrid
computes the rest once per scenario: phi(t_k), y*(t_k) and |phi(t_k)|^2 on the
whole time grid, and the recording schedule, which reads only t, phi and the
last kept sample. _run runs each kind's Euler loop (dynamics._compile_loop)
on those inputs and views the rows it returns as the Trajectory's theta and
vartheta. Every grid value equals
its per-step counterpart bit for bit, so the outputs do not depend on whether
a grid was shared.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .databuffer import DataBuffer, record_steps
from .dynamics import BUFFER_KINDS, Gains, SystemKind, TunerState, _compile_loop, _data_for
from .signals import RegressorSignal, row_dots

__all__ = [
    "NumericalDivergence",
    "SignalGrid",
    "SimConfig",
    "Trajectory",
    "simulate",
    "simulate_with_buffer",
]

# Rows rendered per block by Trajectory.to_csv, which bounds its scratch memory.
_CSV_BLOCK_ROWS = 4096


class NumericalDivergence(RuntimeError):
    """Raised when the integration state stops being finite."""


@dataclass(frozen=True)
class SimConfig:
    """Time grid and output decimation for one simulation."""

    t_end: float
    t_start: float = 0.0
    step_h: float = 1e-3
    record_every: int = 1
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("step_h", "t_start", "t_end"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite (got {getattr(self, name)!r})")
        if self.step_h <= 0.0:
            raise ValueError("step_h must be positive")
        if self.t_end < self.t_start:
            raise ValueError("t_end must not precede t_start")
        if self.record_every < 1:
            raise ValueError("record_every must be a positive integer")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative (got {self.seed})")
        steps = (self.t_end - self.t_start) / self.step_h
        if not steps <= np.iinfo(np.intp).max:
            raise ValueError(
                f"horizon t_end - t_start = {self.t_end - self.t_start!r} at step_h = "
                f"{self.step_h!r} needs {steps!r} steps, more than can be run"
            )
        if abs(steps - round(steps)) > 1e-9 * max(1.0, steps):
            raise ValueError(
                f"horizon t_end - t_start = {self.t_end - self.t_start!r} is not a whole "
                f"number of steps of step_h = {self.step_h!r} ({steps!r} steps)"
            )

    @property
    def num_steps(self) -> int:
        return int(round((self.t_end - self.t_start) / self.step_h))


@dataclass
class Trajectory:
    """Decimated simulation output.

    Row k holds time t[k], the two state vectors, the parameter error norm
    |theta - theta*|, the companion gap |vartheta - theta|, and the number of
    recorded samples at that time. Rows are taken every record_every steps,
    and the last row is the final state even where fewer steps lead to it.
    """

    t: np.ndarray
    theta: np.ndarray
    vartheta: np.ndarray
    err_norm: np.ndarray
    p_norm: np.ndarray
    n_samples: np.ndarray

    @property
    def n_rows(self) -> int:
        return self.t.shape[0]

    def to_csv(self) -> str:
        """Render rows as CSV; floats use shortest round-trip formatting."""
        n = self.theta.shape[1]
        header = (
            ["t"]
            + [f"theta_{i + 1}" for i in range(n)]
            + [f"vartheta_{i + 1}" for i in range(n)]
            + ["err_norm", "p_norm", "n_samples"]
        )
        columns = [
            self.t, *self.theta.T, *self.vartheta.T, self.err_norm, self.p_norm
        ]
        columns = [np.asarray(c, dtype=float) for c in columns]
        columns.append(np.asarray(self.n_samples).astype(int))
        lines = [",".join(header)]
        # repr of a Python float or int is the cell text; tolist() makes them
        # without boxing each cell through float() or int().
        for start in range(0, self.n_rows, _CSV_BLOCK_ROWS):
            block = [c[start:start + _CSV_BLOCK_ROWS].tolist() for c in columns]
            lines.extend(",".join(map(repr, row)) for row in zip(*block))
        return "\n".join(lines) + "\n"


class SignalGrid:
    """Everything a run of one signal on one time grid needs but the state.

    Rows k = 0..num_steps hold t_k = t_start + k h, phi(t_k), y*(t_k) and
    |phi(t_k)|^2, about n + 3 floats per step; each value equals the per-step
    computation bit for bit. The Euler loop reads phi, y* and N_t from one
    (num_steps + 1, n + 2) array, rows(mu). Recording schedules and input
    rows are built on first use and cached per (capacity, epsilon) and per
    mu, so every system of a scenario shares them.
    """

    def __init__(self, signal: RegressorSignal, sim: SimConfig) -> None:
        self.signal = signal
        self.t_start = sim.t_start
        self.step_h = sim.step_h
        self.num_steps = sim.num_steps
        self.t = sim.t_start + np.arange(self.num_steps + 1) * sim.step_h
        self.phi, self.y_star = signal.eval_grid(self.t)
        self.phi_sq = row_dots(self.phi, self.phi)
        self._rows: dict[float, np.ndarray] = {}
        self._schedules: dict[tuple[int, float], tuple[list[int], DataBuffer]] = {}

    def matches(self, signal: RegressorSignal, sim: SimConfig) -> bool:
        return (
            signal is self.signal
            and sim.t_start == self.t_start
            and sim.step_h == self.step_h
            and sim.num_steps == self.num_steps
        )

    def rows(self, mu: float) -> np.ndarray:
        """The Euler loop's inputs: row k is phi(t_k), y*(t_k), 1 + mu |phi(t_k)|^2."""
        if mu not in self._rows:
            self._rows[mu] = np.column_stack((self.phi, self.y_star, 1.0 + mu * self.phi_sq))
        return self._rows[mu]

    def schedule(self, capacity: int, epsilon: float) -> tuple[list[int], DataBuffer]:
        """Steps at which online recording keeps a sample, and the final buffer.

        The rule runs at steps 0..num_steps-1 until the buffer freezes; a
        sample kept at step k is in the buffer from step k on.
        """
        key = (capacity, epsilon)
        if key not in self._schedules:
            steps = record_steps(self.phi[:self.num_steps], capacity, epsilon)
            buffer = DataBuffer.from_samples(self.phi[steps], self.y_star[steps],
                                             times=self.t[steps])
            self._schedules[key] = (steps, buffer)
        return self._schedules[key]


def _divergence(kind: SystemKind, grid: SignalGrid, k: int) -> NumericalDivergence:
    """The error for a state of kind that stops being finite in step k of grid."""
    return NumericalDivergence(
        f"non-finite state for '{kind.value}' at "
        f"t={grid.t.item(k) + grid.step_h:.6g} (after step {k + 1})"
    )


def _distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """|a[k] - b[k]| for every row k (b may be one vector).

    A row whose sum of squares overflows though its difference is finite is
    taken again with math.hypot, which scales instead of overflowing.
    """
    with np.errstate(over="ignore"):
        gaps = a - b
        norms = np.sqrt(row_dots(gaps, gaps))
    again = np.flatnonzero(np.isinf(norms) & np.isfinite(gaps).all(axis=1))
    norms[again] = [math.hypot(*gap) for gap in gaps[again].tolist()]
    return norms


def _run(
    kind: SystemKind,
    gains: Gains,
    sim: SimConfig,
    grid: SignalGrid,
    init: TunerState,
    buffer: DataBuffer,
    keeps: list[int],
) -> Trajectory:
    """Run one system on buffer, whose last len(keeps) samples are kept at steps keeps.

    Row r is the state at step r record_every, and the last row the final state.
    The fast pass checks nothing per step. A non-finite state stays non-finite
    under Euler updates, so a pass that ends on a finite state never left it.
    One that left it stops at the end of that block of input rows and is
    repeated with the check after every step, so a diverging run raises with
    the step that a per-step check names. Numpy's floating-point warnings are
    off in both passes, since an overflow that leaves the state finite is no
    fault of the run.
    """
    n = grid.signal.dimension
    if init.theta.shape != (n,):
        raise ValueError("initial state dimension does not match the signal")
    if not (np.isfinite(init.theta).all() and np.isfinite(init.vartheta).all()):
        raise ValueError("initial state must be finite")
    advance = _compile_loop(kind, gains, n)
    # Samples the kind reads from the start; a kind without a data term reads none.
    first_count = len(buffer) - len(keeps) if kind in BUFFER_KINDS else 0
    inputs = (grid.step_h, grid.num_steps, grid.rows(gains.mu), sim.record_every, keeps,
              lambda kept: _data_for(kind, buffer, gains, first_count + kept),
              [*init.theta.tolist(), *init.vartheta.tolist()])
    with np.errstate(all="ignore"):
        rows, final = advance(*inputs, None)
        if not all(map(math.isfinite, final)):
            advance(*inputs, lambda k: _divergence(kind, grid, k))
    theta, vartheta = np.hsplit(np.frombuffer(rows).reshape(-1, 2 * n), 2)
    # Capped at the step count, record_every names the same rows and fits an int64.
    stride = min(sim.record_every, grid.num_steps)
    row_steps = np.minimum(np.arange(theta.shape[0]) * stride, grid.num_steps)
    return Trajectory(
        t=grid.t[row_steps],
        theta=theta,
        vartheta=vartheta,
        err_norm=_distances(theta, grid.signal.theta_star),
        p_norm=_distances(vartheta, theta),
        n_samples=first_count + np.searchsorted(keeps, row_steps, side="right"),
    )


def simulate(
    kind: SystemKind,
    signal: RegressorSignal,
    gains: Gains,
    sim: SimConfig,
    init: TunerState,
    epsilon: float | None = None,
    N_bar: int | None = None,
    grid: SignalGrid | None = None,
) -> tuple[Trajectory, DataBuffer]:
    """Simulate one system; return its trajectory and the data it recorded.

    Buffer-driven kinds record samples online with the threshold epsilon and
    the sample budget N_bar; to run them on fixed pre-recorded data use
    simulate_with_buffer instead. Other kinds ignore both and return an empty
    buffer. Pass the SignalGrid of (signal, sim) to share it between systems;
    by default one is built.
    """
    if kind in BUFFER_KINDS and (epsilon is None or N_bar is None):
        raise ValueError(
            f"'{kind.value}' records its data online and needs both epsilon and "
            "N_bar; to run it on fixed pre-recorded data use simulate_with_buffer"
        )
    if grid is None:
        grid = SignalGrid(signal, sim)
    elif not grid.matches(signal, sim):
        raise ValueError("grid was built for another signal or time grid")
    if kind in BUFFER_KINDS:
        keeps, buffer = grid.schedule(N_bar, epsilon)
    else:
        keeps, buffer = [], DataBuffer.empty()
    return _run(kind, gains, sim, grid, init, buffer, keeps), buffer


def simulate_with_buffer(
    kind: SystemKind,
    signal: RegressorSignal,
    gains: Gains,
    sim: SimConfig,
    init: TunerState,
    buffer: DataBuffer,
) -> Trajectory:
    """Simulate with a fixed pre-recorded buffer (no online recording)."""
    if kind in BUFFER_KINDS and len(buffer) == 0:
        raise ValueError(f"'{kind.value}' needs a nonempty buffer")
    if len(buffer) and buffer.dimension != signal.dimension:
        raise ValueError(f"buffer dimension {buffer.dimension} does not match the "
                         f"signal dimension {signal.dimension}")
    return _run(kind, gains, sim, SignalGrid(signal, sim), init, buffer, [])
