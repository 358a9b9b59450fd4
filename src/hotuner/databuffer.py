"""Recorded-sample store for concurrent learning.

Holds regressor/output pairs captured at discrete times, decides online when a
new pair is informative enough to keep, and exposes the two aggregates the
learning laws need: the normalized data-sum matrix P_mu and the data-driven
correction term B. Buffers are immutable values; recording returns a new
buffer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .signals import row_dots

__all__ = [
    "DataAggregates",
    "DataBuffer",
    "RichnessReport",
    "b_term",
    "buffer_csv",
    "data_aggregates",
    "data_term",
    "maybe_record",
    "p_matrix",
    "record_steps",
    "richness",
]

# Relative singular-value cutoff for the numerical rank of the sample matrix.
RANK_TOLERANCE = 1e-10
# Below this the current regressor is treated as zero and never recorded.
ZERO_REGRESSOR_NORM = 1e-12
# Rows that record_steps tests per vectorized pass.
_RECORD_CHUNK = 256

# (phi_mat, y_vec, weights) of recorded samples, as data_aggregates returns them.
DataAggregates = tuple[np.ndarray, np.ndarray, np.ndarray]


@dataclass(frozen=True, eq=False)
class DataBuffer:
    """Recorded samples as read-only arrays, with a capacity and a record threshold.

    Row k of t (N,), phi (N, n) and y_star (N,) is the k-th recorded pair
    (t_k, phi_k, y*_k); times increase strictly. The buffer freezes once it
    holds capacity samples; DataBuffer.empty has phi of shape (0, 0). The
    regressors are also kept as contiguous columns (n, N), the layout that
    data_term's rounding depends on.
    """

    t: np.ndarray
    phi: np.ndarray
    y_star: np.ndarray
    capacity: int
    epsilon: float

    def __post_init__(self) -> None:
        if self.capacity < 1:
            raise ValueError("capacity must be a positive integer")
        if self.epsilon <= 0.0:
            raise ValueError("epsilon must be positive")
        t = np.array(self.t, dtype=float)
        phi = np.array(self.phi, dtype=float)
        y_star = np.array(self.y_star, dtype=float)
        if t.ndim != 1 or phi.ndim != 2 or phi.shape[0] != t.shape[0] or y_star.shape != t.shape:
            raise ValueError("need t (N,), phi (N, n) and y_star (N,) of one length N")
        count = t.shape[0]
        if count > self.capacity:
            raise ValueError("more samples than capacity")
        if count and not 1 <= phi.shape[1] <= self.capacity:
            raise ValueError("regressor dimension must be at least 1 and at most capacity")
        if np.any(t[1:] <= t[:-1]):
            raise ValueError("sample times must be strictly increasing")
        for name, values in (("t", t), ("phi", phi), ("y_star", y_star)):
            values.setflags(write=False)
            object.__setattr__(self, name, values)
        object.__setattr__(self, "_phi_mat", np.ascontiguousarray(phi.T) if count else None)

    @staticmethod
    def empty(capacity: int, epsilon: float) -> "DataBuffer":
        return DataBuffer(np.empty(0), np.empty((0, 0)), np.empty(0), capacity, epsilon)

    @staticmethod
    def from_samples(phis, y_stars, times=None, capacity: int | None = None,
                     epsilon: float = 1.0) -> "DataBuffer":
        """A buffer of stacked regressors (rows) and outputs.

        Times default to 0, 1, ..., and capacity to max(N, n).
        """
        phis = np.asarray(phis, dtype=float)
        if phis.ndim != 2:
            raise ValueError("phis must be (N, n) with matching y_stars")
        count, n = phis.shape
        if times is None:
            times = np.arange(count, dtype=float)
        if capacity is None:
            capacity = max(count, n)
        return DataBuffer(times, phis, y_stars, capacity, epsilon)

    def __len__(self) -> int:
        return self.t.shape[0]

    @property
    def frozen(self) -> bool:
        return len(self) == self.capacity

    @property
    def dimension(self) -> int:
        if not len(self):
            raise ValueError("empty buffer has no dimension")
        return self.phi.shape[1]


@dataclass(frozen=True)
class RichnessReport:
    """Rank and definiteness summary of a buffer's recorded data."""

    N: int
    rank_D: int
    min_eig_P: float
    delta_mu: float
    sufficient: bool


def maybe_record(buffer: DataBuffer, t: float, phi_t, y_star_t: float) -> tuple[DataBuffer, bool]:
    """Apply the online recording rule at time t; returns (buffer, recorded).

    A frozen buffer is returned unchanged. An empty buffer records
    unconditionally. Otherwise the pair is kept when the regressor has moved
    far enough from the last kept one:

        |phi(t) - phi(t_last)|^2 / |phi(t)| >= epsilon,

    skipping near-zero regressors, for which the criterion is undefined.
    """
    if buffer.frozen:
        return buffer, False
    phi_t = np.asarray(phi_t, dtype=float)
    if len(buffer):
        last_t, last_phi = buffer.t[-1], buffer.phi[-1]
        if t <= last_t:
            raise ValueError(f"time must increase between recordings (got {t} after {last_t})")
        if phi_t.shape != last_phi.shape:
            raise ValueError("regressor dimension changed between recordings")
        norm = float(np.linalg.norm(phi_t))
        if norm < ZERO_REGRESSOR_NORM:
            return buffer, False
        gap = float(np.sum((phi_t - last_phi) ** 2))
        if gap / norm < buffer.epsilon:
            return buffer, False
    phis = np.vstack((buffer.phi, phi_t)) if len(buffer) else phi_t[None]
    grown = DataBuffer(np.append(buffer.t, t), phis, np.append(buffer.y_star, y_star_t),
                       buffer.capacity, buffer.epsilon)
    return grown, True


def record_steps(phis, capacity: int, epsilon: float) -> list[int]:
    """Rows of phis that maybe_record keeps when fed them in order.

    Row k stands for the regressor at the k-th of increasing times, starting
    from an empty buffer of the given capacity and epsilon; recording stops
    when the buffer freezes. The result equals replaying maybe_record row by
    row: each row's norm is the square root of its dot product, as in
    np.linalg.norm, and its squared gap is summed along the row, as np.sum
    sums a 1-d vector. From each kept row, the following rows are tested in
    chunks for the first one far enough from it.
    """
    phis = np.asarray(phis, dtype=float)
    count = phis.shape[0]
    steps = [0] if count else []
    start = 1
    while len(steps) < capacity and start < count:
        rows = phis[start:start + _RECORD_CHUNK]
        norm = np.sqrt(row_dots(rows, rows))
        gap = ((rows - phis[steps[-1]]) ** 2).sum(axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            hits = np.flatnonzero((norm >= ZERO_REGRESSOR_NORM) & (gap / norm >= epsilon))
        if hits.shape[0]:
            steps.append(start + int(hits[0]))
            start = steps[-1] + 1
        else:
            start += rows.shape[0]
    return steps


def p_matrix(buffer: DataBuffer, mu: float) -> np.ndarray:
    """Normalized data-sum matrix sum_k phi_k phi_k' / (1 + mu |phi_k|^2)."""
    if len(buffer) == 0:
        raise ValueError("p_matrix needs a nonempty buffer")
    if mu < 0.0:
        raise ValueError("mu must be nonnegative")
    phi_mat, _, weights = data_aggregates(buffer, mu)
    p = (phi_mat * weights) @ phi_mat.T
    return 0.5 * (p + p.T)


def b_term(buffer: DataBuffer, theta, mu: float) -> np.ndarray:
    """Data-driven correction sum_k phi_k (phi_k' theta - y*_k) / (1 + mu |phi_k|^2)."""
    if len(buffer) == 0:
        raise ValueError("b_term needs a nonempty buffer")
    if mu < 0.0:
        raise ValueError("mu must be nonnegative")
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (buffer.dimension,):
        raise ValueError("theta dimension does not match the buffer")
    return data_term(data_aggregates(buffer, mu), theta)


def data_aggregates(buffer: DataBuffer, mu: float, count: int | None = None) -> DataAggregates:
    """Arrays (phi_mat, y_vec, weights) that the data term of the first count samples reads.

    Column k of phi_mat is phi_k and weights[k] = 1 / (1 + mu |phi_k|^2). A
    prefix is copied into the contiguous layout that a buffer holding only
    those samples has, so data_term rounds exactly as it would on that buffer.
    """
    phi_mat = buffer._phi_mat
    if count is not None and count != len(buffer):
        phi_mat = np.ascontiguousarray(phi_mat[:, :count])
    weights = 1.0 / (1.0 + mu * (phi_mat**2).sum(axis=0))
    return phi_mat, buffer.y_star[:phi_mat.shape[1]], weights


def data_term(aggregates: DataAggregates, theta: np.ndarray) -> np.ndarray:
    """sum_k phi_k (phi_k' theta - y*_k) weights[k] from data_aggregates output.

    ndarray.dot makes the same matrix-vector calls as `@`, bit for bit, with
    less overhead per call. The residual is subtracted and weighted in place,
    the same roundings as weights * (phi_mat' theta - y_vec) without two
    temporaries.
    """
    phi_mat, y_vec, weights = aggregates
    residual = phi_mat.T.dot(theta)
    np.subtract(residual, y_vec, residual)
    np.multiply(residual, weights, residual)
    return phi_mat.dot(residual)


def richness(buffer: DataBuffer, mu: float) -> RichnessReport:
    """Rank of the stacked sample matrix and definiteness of P_mu.

    The recorded data pins down every parameter direction exactly when the
    sample matrix has full row rank, equivalently when P_mu is positive
    definite; delta_mu is its smallest eigenvalue clamped at zero.
    """
    if len(buffer) == 0:
        raise ValueError("richness needs a nonempty buffer")
    singular = np.linalg.svd(buffer._phi_mat, compute_uv=False)
    if singular[0] <= 0.0:
        rank = 0
    else:
        rank = int(np.sum(singular > RANK_TOLERANCE * singular[0]))
    min_eig = float(np.linalg.eigvalsh(p_matrix(buffer, mu))[0])
    return RichnessReport(
        N=len(buffer),
        rank_D=rank,
        min_eig_P=min_eig,
        delta_mu=max(min_eig, 0.0),
        sufficient=rank == buffer.dimension,
    )


def buffer_csv(buffer: DataBuffer) -> str:
    """Render the samples as CSV with columns k, t_k, phi_k_1.., y_star_k."""
    n = buffer.dimension if len(buffer) else 0
    header = ["k", "t_k"] + [f"phi_k_{i + 1}" for i in range(n)] + ["y_star_k"]
    lines = [",".join(header)]
    # repr of a Python float is the cell text, as in Trajectory.to_csv.
    rows = zip(buffer.t.tolist(), buffer.phi.tolist(), buffer.y_star.tolist())
    for k, (t_k, phi_k, y_star_k) in enumerate(rows, start=1):
        lines.append(",".join(map(repr, [k, t_k, *phi_k, y_star_k])))
    return "\n".join(lines) + "\n"
