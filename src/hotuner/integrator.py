"""Fixed-step explicit Euler simulation of the tuner family.

One step is: apply the online recording rule (for buffer-driven kinds that
record their data), emit an output row if due, evaluate the field with the
current buffer, update the state. Recording therefore takes effect from the
very step at which a sample is kept.

Nothing on that list but the field depends on the state, so a SignalGrid
computes the rest once per scenario: phi(t_k), y*(t_k) and |phi(t_k)|^2 on the
whole time grid, and the recording schedule, which reads only t, phi and the
last kept sample. The Euler loop then evaluates the kind's field, compiled
once per system by dynamics.compile_field, on precomputed inputs. Every grid
value equals its per-step counterpart bit for bit, so the outputs do not
depend on whether a grid was shared.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .databuffer import DataBuffer, record_steps
from .dynamics import (
    BUFFER_KINDS,
    KINDS,
    Gains,
    SystemKind,
    TunerState,
    _data_for,
    compile_field,
)
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
    recorded samples at that time.
    """

    kind: SystemKind
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
    computation bit for bit. The Euler loop reads y* and N_t from lists of
    Python floats, which it indexes faster than arrays. Recording schedules
    and N_t lists are built on first use and cached per (capacity, epsilon)
    and per mu, so every system of a scenario shares them.
    """

    def __init__(self, signal: RegressorSignal, sim: SimConfig) -> None:
        self.signal = signal
        self.t_start = sim.t_start
        self.step_h = sim.step_h
        self.num_steps = sim.num_steps
        self.t = sim.t_start + np.arange(self.num_steps + 1) * sim.step_h
        self.phi, self.y_star = signal.eval_grid(self.t)
        self.phi_sq = row_dots(self.phi, self.phi)
        self.y_star_list = self.y_star.tolist()
        self._nt_lists: dict[float, list[float]] = {}
        self._schedules: dict[tuple[int, float], tuple[list[int], DataBuffer]] = {}

    def matches(self, signal: RegressorSignal, sim: SimConfig) -> bool:
        return (
            signal is self.signal
            and sim.t_start == self.t_start
            and sim.step_h == self.step_h
            and sim.num_steps == self.num_steps
        )

    def nt_list(self, mu: float) -> list[float]:
        """N_t = 1 + mu |phi(t_k)|^2 at every grid row, as Python floats."""
        if mu not in self._nt_lists:
            self._nt_lists[mu] = (1.0 + mu * self.phi_sq).tolist()
        return self._nt_lists[mu]

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


class _Euler:
    """The Euler loop of one system on a SignalGrid, writing output rows."""

    def __init__(
        self,
        kind: SystemKind,
        gains: Gains,
        sim: SimConfig,
        grid: SignalGrid,
        buffer: DataBuffer,
        keeps: list[int],
    ) -> None:
        """keeps are the steps that add the last len(keeps) samples of buffer;
        the samples before them are held from the start."""
        self.kind = kind
        self.n = grid.phi.shape[1]
        self.field = compile_field(kind, gains, self.n)
        self.high_order = KINDS[kind].high_order
        self.grid = grid
        self.every = sim.record_every
        self.keeps = keeps
        self.first_count = len(buffer) - len(keeps)
        # data(count) is what the field reads from the first count samples.
        self.data = partial(_data_for, kind, buffer, gains)
        self.nt = grid.nt_list(gains.mu)
        n_rows = grid.num_steps // self.every + 1
        self.theta = np.empty((n_rows, self.n))
        self.vartheta = np.empty_like(self.theta)
        self.row = 0

    def advance(self, row: int, checked: bool) -> np.ndarray:
        """Run from the state stored at row to the end; return the final state.

        theta and vartheta are the two halves of one state x, and their
        derivatives the two halves of one dx, which the field writes in place;
        a step is dx *= h, x += dx, the operations of x + h dx. A baseline
        kind steps the theta halves only, so its vartheta stays untouched.
        With checked set, the state is tested after every step and the first
        non-finite one raises NumericalDivergence.
        """
        field, grid, every, keeps, n = self.field, self.grid, self.every, self.keeps, self.n
        h = grid.step_h
        num_steps = grid.num_steps
        phis, y_star, nt = grid.phi, grid.y_star_list, self.nt
        x = np.concatenate((self.theta[row], self.vartheta[row]))
        dx = np.empty_like(x)
        theta, vartheta, dtheta, dvartheta = x[:n], x[n:], dx[:n], dx[n:]
        state, step = (x, dx) if self.high_order else (theta, dtheta)
        h_vec = np.full(state.shape, h)
        add, multiply, isfinite = np.add, np.multiply, np.isfinite
        k0 = row * every
        kept = int(np.searchsorted(keeps, k0))
        data = self.data(self.first_count + kept)
        next_keep = keeps[kept] if kept < len(keeps) else -1
        for row in range(row, self.theta.shape[0]):
            self.row = row
            self.theta[row] = theta
            self.vartheta[row] = vartheta
            for k in range(k0, min(k0 + every, num_steps)):
                if k == next_keep:
                    kept += 1
                    data = self.data(self.first_count + kept)
                    next_keep = keeps[kept] if kept < len(keeps) else -1
                field(theta, vartheta, phis[k], y_star[k], nt[k], data, dtheta, dvartheta)
                multiply(step, h_vec, step)
                add(state, step, state)
                if checked and not isfinite(x).all():
                    raise NumericalDivergence(
                        f"non-finite state for '{self.kind.value}' at "
                        f"t={grid.t.item(k) + h:.6g} (after step {k + 1})"
                    )
            k0 += every
        return x

    def run(self, init: TunerState) -> None:
        """Fill every row; a diverging run raises as a step-by-step check would.

        The fast pass checks nothing per step. A non-finite state stays
        non-finite under Euler updates, so it shows in a later row or the
        final state, and the pass stops early on any floating-point overflow
        or invalid operation. Either way the run is repeated with the check
        after every step from the last row known to be finite, which also
        reproduces the warnings numpy gives for the steps it repeats.
        """
        self.theta[0] = init.theta
        self.vartheta[0] = init.vartheta
        try:
            with np.errstate(over="raise", invalid="raise", divide="raise"):
                final = self.advance(0, checked=False)
        except FloatingPointError:
            final = None
        stored = slice(0, self.row + 1)
        finite = np.isfinite(self.theta[stored]).all(axis=1)
        finite &= np.isfinite(self.vartheta[stored]).all(axis=1)
        if finite.all() and final is not None and np.isfinite(final).all():
            return
        resume = self.row if finite.all() else max(int(np.argmin(finite)) - 1, 0)
        self.advance(resume, checked=True)


def _run(
    kind: SystemKind,
    gains: Gains,
    sim: SimConfig,
    grid: SignalGrid,
    init: TunerState,
    buffer: DataBuffer,
    keeps: list[int],
) -> Trajectory:
    """Run one system on buffer, whose last len(keeps) samples are kept at steps keeps."""
    if init.theta.shape != (grid.signal.dimension,):
        raise ValueError("initial state dimension does not match the signal")
    euler = _Euler(kind, gains, sim, grid, buffer, keeps)
    euler.run(init)
    row_steps = np.arange(euler.theta.shape[0]) * sim.record_every
    theta_err = euler.theta - grid.signal.theta_star
    gap = euler.vartheta - euler.theta
    return Trajectory(
        kind=kind,
        t=grid.t[row_steps],
        theta=euler.theta,
        vartheta=euler.vartheta,
        err_norm=np.sqrt(row_dots(theta_err, theta_err)),
        p_norm=np.sqrt(row_dots(gap, gap)),
        n_samples=euler.first_count + np.searchsorted(keeps, row_steps, side="right"),
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
    return _run(kind, gains, sim, SignalGrid(signal, sim), init, buffer, [])
