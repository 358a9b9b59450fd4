"""Fixed-step explicit Euler simulation of the tuner family.

One step is: apply the online recording rule (for buffer-driven kinds that
record their data), emit an output row if due, evaluate the field with the
current buffer, update the state. Recording therefore takes effect from the
very step at which a sample is kept.

Nothing on that list but the field depends on the state, so a SignalGrid
holds the time grid t_k of a run and evaluates from it what the loop reads:
the recording schedule, which reads only t, phi and the last kept sample,
and phi(t_k), y*(t_k) and N_t, a block of rows at a time as the loop asks
for them, so memory does not grow with the horizon beyond t and the output
rows. _run steps all the kinds of a run in one Euler loop
(dynamics._compile_loop) on one set of those rows, and splits the rows it
returns into each kind's Trajectory. Every evaluated value equals its
per-step counterpart bit for bit, and no kind's values depend on another's,
so the outputs do not depend on the block boundaries or on which kinds ran
together.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass

import numpy as np

from .databuffer import DataBuffer, record_steps
from .dynamics import (
    BUFFER_KINDS,
    Gains,
    SystemKind,
    TunerState,
    _compile_loop,
    _data_for,
    _stack_order,
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

# Rows rendered per block by Trajectory.csv_blocks, which bounds its scratch memory.
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
        return "".join(self.csv_blocks())

    def csv_blocks(self) -> Iterator[str]:
        """The text of to_csv in pieces: the header line, then the lines of
        _CSV_BLOCK_ROWS rows at a time, so a writer holds one block at once."""
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
        yield ",".join(header) + "\n"
        # repr of a Python float or int is the cell text; tolist() makes them
        # without boxing each cell through float() or int().
        for start in range(0, self.n_rows, _CSV_BLOCK_ROWS):
            block = [c[start:start + _CSV_BLOCK_ROWS].tolist() for c in columns]
            yield "\n".join(",".join(map(repr, row)) for row in zip(*block)) + "\n"


class SignalGrid:
    """The time grid of a run of one signal, and the inputs the Euler loop reads from it.

    t holds t_k = t_start + k h for k = 0..num_steps. Everything else the
    loop reads is evaluated from t when asked for: phi(t_k), y*(t_k) and N_t
    on the rows of each block the loop reaches (rows), and the recording
    schedule on the rows its rule tests (schedule). Each value equals the
    per-step computation bit for bit, and the grid keeps none of them.
    """

    def __init__(self, signal: RegressorSignal, sim: SimConfig) -> None:
        self.signal = signal
        self.step_h = sim.step_h
        self.num_steps = sim.num_steps
        # In place, so that only t itself is ever held: k h + t_start, as
        # t_start + k h rounds.
        self.t = np.arange(self.num_steps + 1, dtype=float)
        self.t *= sim.step_h
        self.t += sim.t_start

    def rows(self, mu: float) -> Callable[[int, int], np.ndarray]:
        """The Euler loop's inputs: rows(mu)(lo, hi) evaluates, in row k - lo for
        each step k of lo..hi-1, phi(t_k), y*(t_k) and 1 + mu |phi(t_k)|^2."""
        def block(lo: int, hi: int) -> np.ndarray:
            phi, y_star = self.signal.eval_grid(self.t[lo:hi])
            return np.column_stack((phi, y_star, 1.0 + mu * row_dots(phi, phi)))
        return block

    def schedule(self, capacity: int, epsilon: float) -> tuple[list[int], DataBuffer]:
        """Steps at which online recording keeps a sample, and the final buffer.

        The rule runs at steps 0..num_steps-1 until the buffer freezes; a
        sample kept at step k is in the buffer from step k on. phi is
        evaluated only on the rows the rule tests.
        """
        steps = record_steps(lambda lo, hi: self.signal.phi_grid(self.t[lo:hi]),
                             self.num_steps, capacity, epsilon)
        times = self.t[steps]
        return steps, DataBuffer.from_samples(*self.signal.eval_grid(times), times=times)


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
    kinds: tuple[SystemKind, ...],
    grid: SignalGrid,
    gains: Gains,
    record_every: int,
    init: TunerState,
    buffer: DataBuffer,
    keeps: list[int],
) -> Iterator[Trajectory]:
    """Run the systems kinds in one pass over grid from init; return an iterator of their trajectories.

    The kinds with a data term read buffer, whose last len(keeps) samples are
    kept at steps keeps. Row r is the state at step r record_every, and the
    last row the final state. The pass (dynamics._compile_loop) steps every
    kind on one set of input rows and checks nothing per step. A non-finite
    state stays non-finite under Euler updates, and no kind's values depend
    on another's, so a kind that ends on a finite state never left it. The
    iterator gives the kinds' trajectories in the order of kinds; at a kind
    that ends on a state that is not finite, it repeats that kind's run alone
    with the check after every step, which raises NumericalDivergence with
    the step that a per-step check names. Numpy's floating-point warnings are
    off in both passes, since an overflow that leaves the state finite is no
    fault of the run.
    """
    n = grid.signal.dimension
    if init.theta.shape != (n,):
        raise ValueError("initial state dimension does not match the signal")
    if not (np.isfinite(init.theta).all() and np.isfinite(init.vartheta).all()):
        raise ValueError("initial state must be finite")
    # Samples the kinds with a data term read from the start.
    first_count = len(buffer) - len(keeps)
    start = [*init.theta.tolist(), *init.vartheta.tolist()]

    def advance(kinds: tuple[SystemKind, ...], diverged) -> tuple:
        readers = [kind for kind in kinds if kind in BUFFER_KINDS]
        return _compile_loop(kinds, gains, n)(
            grid.step_h, grid.num_steps, grid.rows(gains.mu), record_every, keeps,
            lambda kept: [_data_for(kind, buffer, gains, first_count + kept) for kind in readers],
            start * len(kinds), diverged)

    order = _stack_order(kinds)
    with np.errstate(all="ignore"):
        rows, final = advance(order, None)
    states = np.frombuffer(rows).reshape(-1, len(order), 2 * n)
    # Each kind's rows as the (R, 2n) array of a one-kind pass, theta then
    # vartheta; the pass's own rows are dropped on return.
    halves = {kind: np.hsplit(states[:, j].copy(), 2) for j, kind in enumerate(order)}
    # Capped at the step count, record_every names the same rows and fits an int64.
    stride = min(record_every, grid.num_steps)
    row_steps = np.minimum(np.arange(states.shape[0]) * stride, grid.num_steps)

    def trajectory(kind: SystemKind) -> Trajectory:
        j = order.index(kind)
        if not all(map(math.isfinite, final[2 * n * j:2 * n * (j + 1)])):
            with np.errstate(all="ignore"):
                advance((kind,), lambda k: _divergence(kind, grid, k))
        theta, vartheta = halves[kind]
        count, kept = (first_count, keeps) if kind in BUFFER_KINDS else (0, [])
        return Trajectory(
            t=grid.t[row_steps],
            theta=theta,
            vartheta=vartheta,
            err_norm=_distances(theta, grid.signal.theta_star),
            p_norm=_distances(vartheta, theta),
            n_samples=count + np.searchsorted(kept, row_steps, side="right"),
        )
    return map(trajectory, kinds)


def _simulate_kinds(
    kinds: Iterable[SystemKind],
    grid: SignalGrid,
    gains: Gains,
    record_every: int,
    init: TunerState,
    epsilon: float | None = None,
    N_bar: int | None = None,
) -> Iterator[tuple[Trajectory, DataBuffer]]:
    """simulate of several systems at once, in one pass over grid (see _run).

    Returns an iterator of each kind's (trajectory, buffer), in the order of
    kinds, which raises NumericalDivergence at the first kind whose run
    leaves the finite.
    """
    kinds = tuple(kinds)
    recording = [kind for kind in kinds if kind in BUFFER_KINDS]
    if recording and (epsilon is None or N_bar is None):
        raise ValueError(
            f"'{recording[0].value}' records its data online and needs both epsilon and "
            "N_bar; to run it on fixed pre-recorded data use simulate_with_buffer"
        )
    keeps, buffer = grid.schedule(N_bar, epsilon) if recording else ([], DataBuffer.empty())
    empty = DataBuffer.empty()
    return zip(_run(kinds, grid, gains, record_every, init, buffer, keeps),
               (buffer if kind in BUFFER_KINDS else empty for kind in kinds))


def simulate(
    kind: SystemKind,
    signal: RegressorSignal,
    gains: Gains,
    sim: SimConfig,
    init: TunerState,
    epsilon: float | None = None,
    N_bar: int | None = None,
) -> tuple[Trajectory, DataBuffer]:
    """Simulate one system; return its trajectory and the data it recorded.

    Buffer-driven kinds record samples online with the threshold epsilon and
    the sample budget N_bar; to run them on fixed pre-recorded data use
    simulate_with_buffer instead. Other kinds ignore both and return an empty
    buffer.
    """
    return next(_simulate_kinds((kind,), SignalGrid(signal, sim), gains, sim.record_every,
                                init, epsilon, N_bar))


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
    return next(_run((kind,), SignalGrid(signal, sim), gains, sim.record_every, init,
                     buffer, []))
