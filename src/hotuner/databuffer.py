"""Recorded-sample store for concurrent learning.

Holds regressor/output pairs captured at discrete times, decides which pairs
of a regressor sequence are informative enough to keep, and exposes the two
aggregates the learning laws need: the normalized data-sum matrix P_mu and the
data-driven correction term B. Buffers are immutable values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .signals import row_dots

__all__ = [
    "DataAggregates",
    "DataBuffer",
    "RichnessReport",
    "buffer_csv",
    "data_aggregates",
    "data_term",
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
    """Recorded samples as read-only arrays.

    Row k of t (N,), phi (N, n) and y_star (N,) is the k-th recorded pair
    (t_k, phi_k, y*_k); times increase strictly. DataBuffer.empty has phi of
    shape (0, 0). The regressors are also kept as contiguous columns (n, N),
    the layout that data_term's rounding depends on. The recording policy
    (sample budget and threshold) belongs to record_steps, not to the buffer.
    """

    t: np.ndarray
    phi: np.ndarray
    y_star: np.ndarray

    def __post_init__(self) -> None:
        t = np.array(self.t, dtype=float)
        phi = np.array(self.phi, dtype=float)
        y_star = np.array(self.y_star, dtype=float)
        if t.ndim != 1 or phi.ndim != 2 or phi.shape[0] != t.shape[0] or y_star.shape != t.shape:
            raise ValueError("need t (N,), phi (N, n) and y_star (N,) of one length N")
        count = t.shape[0]
        if count and phi.shape[1] < 1:
            raise ValueError("regressor dimension must be at least 1")
        if np.any(t[1:] <= t[:-1]):
            raise ValueError("sample times must be strictly increasing")
        for name, values in (("t", t), ("phi", phi), ("y_star", y_star)):
            values.setflags(write=False)
            object.__setattr__(self, name, values)
        object.__setattr__(self, "_phi_mat", np.ascontiguousarray(phi.T) if count else None)

    @staticmethod
    def empty() -> "DataBuffer":
        return DataBuffer(np.empty(0), np.empty((0, 0)), np.empty(0))

    @staticmethod
    def from_samples(phis, y_stars, times=None) -> "DataBuffer":
        """A buffer of stacked regressors (rows) and outputs; times default to 0, 1, ...."""
        phis = np.asarray(phis, dtype=float)
        if phis.ndim != 2:
            raise ValueError("phis must be (N, n) with matching y_stars")
        if times is None:
            times = np.arange(phis.shape[0], dtype=float)
        return DataBuffer(times, phis, y_stars)

    def __len__(self) -> int:
        return self.t.shape[0]

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


def record_steps(phis, capacity: int, epsilon: float) -> list[int]:
    """Rows of phis that the online recording rule keeps when fed them in order.

    Row k stands for the regressor at the k-th of increasing times, starting
    from an empty buffer; recording stops (the buffer freezes) once capacity
    rows are kept. capacity must be at least the regressor dimension n, below
    which the data can never pin down theta, and epsilon must be positive.
    The first row is kept unconditionally; after it a row is kept when it
    has moved far enough from the last kept one,

        |phi - phi_last|^2 / |phi| >= epsilon,

    skipping near-zero rows, for which the criterion is undefined. Each row's
    norm is the square root of its dot product, as np.linalg.norm computes
    it, and its squared gap is summed along the row, as np.sum sums a 1-d
    vector, so the rows are those the rule keeps when applied one sample at a
    time. From each kept row, the following rows are tested in chunks for the
    first one far enough from it.
    """
    phis = np.asarray(phis, dtype=float)
    count, n = phis.shape
    if not capacity >= max(n, 1):
        raise ValueError(
            f"capacity must be at least 1 and at least the regressor dimension {n} "
            f"(got {capacity!r})"
        )
    if not epsilon > 0.0:
        raise ValueError(f"epsilon must be positive (got {epsilon!r})")
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


def data_term(aggregates: DataAggregates, theta: np.ndarray, rows: bool = False) -> np.ndarray:
    """sum_k phi_k (phi_k' theta - y*_k) weights[k] from data_aggregates output.

    ndarray.dot makes the same matrix-vector calls as `@`, bit for bit, with
    less overhead per call. The residual is subtracted and weighted in place,
    the same roundings as weights * (phi_mat' theta - y_vec) without two
    temporaries. With rows set, theta is (B, n) and row b of the (B, n) result
    equals the term at theta[b] bit for bit: both products become stacked
    matmuls, one matrix-vector call per row with the matrices of the 1-d form,
    and the residual formula is shared.
    """
    phi_mat, y_vec, weights = aggregates
    if rows:
        residual = np.matmul(phi_mat.T[None], theta[:, :, None])[:, :, 0]
    else:
        residual = phi_mat.T.dot(theta)
    np.subtract(residual, y_vec, residual)
    np.multiply(residual, weights, residual)
    if rows:
        return np.matmul(phi_mat[None], residual[:, :, None])[:, :, 0]
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
