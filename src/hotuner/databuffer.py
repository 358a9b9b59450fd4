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

__all__ = [
    "DataAggregates",
    "DataBuffer",
    "DataSample",
    "RichnessReport",
    "b_term",
    "buffer_csv",
    "data_aggregates",
    "data_term",
    "maybe_record",
    "p_matrix",
    "richness",
]

# Relative singular-value cutoff for the numerical rank of the sample matrix.
RANK_TOLERANCE = 1e-10
# Below this the current regressor is treated as zero and never recorded.
ZERO_REGRESSOR_NORM = 1e-12

# (phi_mat, y_vec, weights) of recorded samples, as data_aggregates returns them.
DataAggregates = tuple[np.ndarray, np.ndarray, np.ndarray]


@dataclass(frozen=True)
class DataSample:
    """One recorded pair: time, regressor vector, measured output."""

    t_k: float
    phi_k: np.ndarray
    y_star_k: float

    def __post_init__(self) -> None:
        phi = np.asarray(self.phi_k, dtype=float).copy()
        if phi.ndim != 1 or phi.shape[0] < 1:
            raise ValueError("phi_k must be a nonempty 1-d vector")
        phi.setflags(write=False)
        object.__setattr__(self, "phi_k", phi)
        object.__setattr__(self, "t_k", float(self.t_k))
        object.__setattr__(self, "y_star_k", float(self.y_star_k))


@dataclass(frozen=True)
class DataBuffer:
    """Immutable collection of samples with a fixed capacity and record threshold.

    The buffer freezes permanently once capacity samples are held. Stacked
    sample arrays are cached at construction, so the per-step aggregates cost
    a few small matrix products.
    """

    samples: tuple[DataSample, ...]
    capacity: int
    epsilon: float

    def __post_init__(self) -> None:
        if self.capacity < 1:
            raise ValueError("capacity must be a positive integer")
        if self.epsilon <= 0.0:
            raise ValueError("epsilon must be positive")
        object.__setattr__(self, "samples", tuple(self.samples))
        if len(self.samples) > self.capacity:
            raise ValueError("more samples than capacity")
        if self.samples:
            n = self.samples[0].phi_k.shape[0]
            if any(s.phi_k.shape[0] != n for s in self.samples):
                raise ValueError("all samples must share one regressor dimension")
            ts = [s.t_k for s in self.samples]
            if any(b <= a for a, b in zip(ts, ts[1:])):
                raise ValueError("sample times must be strictly increasing")
            if self.capacity < n:
                raise ValueError("capacity must be at least the regressor dimension")
            phi_mat = np.column_stack([s.phi_k for s in self.samples])
            y_vec = np.array([s.y_star_k for s in self.samples])
            phi_sq = (phi_mat**2).sum(axis=0)
        else:
            phi_mat = None
            y_vec = None
            phi_sq = None
        object.__setattr__(self, "_phi_mat", phi_mat)
        object.__setattr__(self, "_y_vec", y_vec)
        object.__setattr__(self, "_phi_sq", phi_sq)

    @staticmethod
    def empty(capacity: int, epsilon: float) -> "DataBuffer":
        return DataBuffer(samples=(), capacity=capacity, epsilon=epsilon)

    @staticmethod
    def from_samples(phis, y_stars, times=None, capacity: int | None = None,
                     epsilon: float = 1.0) -> "DataBuffer":
        """Prefill a buffer from stacked regressors (rows) and outputs."""
        phis = np.asarray(phis, dtype=float)
        y_stars = np.asarray(y_stars, dtype=float)
        if phis.ndim != 2 or phis.shape[0] != y_stars.shape[0]:
            raise ValueError("phis must be (N, n) with matching y_stars")
        count, n = phis.shape
        if times is None:
            times = np.arange(count, dtype=float)
        samples = tuple(
            DataSample(t_k=float(t), phi_k=phi, y_star_k=float(y))
            for t, phi, y in zip(times, phis, y_stars)
        )
        if capacity is None:
            capacity = max(count, n)
        return DataBuffer(samples=samples, capacity=capacity, epsilon=epsilon)

    def __len__(self) -> int:
        return len(self.samples)

    @property
    def frozen(self) -> bool:
        return len(self.samples) == self.capacity

    @property
    def dimension(self) -> int:
        if not self.samples:
            raise ValueError("empty buffer has no dimension")
        return self.samples[0].phi_k.shape[0]

    @property
    def last(self) -> DataSample:
        if not self.samples:
            raise ValueError("empty buffer has no last sample")
        return self.samples[-1]

    def _append(self, t: float, phi_t: np.ndarray, y_star_t: float) -> "DataBuffer":
        sample = DataSample(t_k=t, phi_k=phi_t, y_star_k=y_star_t)
        return DataBuffer(self.samples + (sample,), self.capacity, self.epsilon)


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
    if not buffer.samples:
        return buffer._append(t, phi_t, y_star_t), True
    last = buffer.last
    if t <= last.t_k:
        raise ValueError(f"time must increase between recordings (got {t} after {last.t_k})")
    if phi_t.shape != last.phi_k.shape:
        raise ValueError("regressor dimension changed between recordings")
    norm = float(np.linalg.norm(phi_t))
    if norm < ZERO_REGRESSOR_NORM:
        return buffer, False
    gap = float(np.sum((phi_t - last.phi_k) ** 2))
    if gap / norm >= buffer.epsilon:
        return buffer._append(t, phi_t, y_star_t), True
    return buffer, False


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
    if count is None or count == len(buffer):
        phi_mat, y_vec, phi_sq = buffer._phi_mat, buffer._y_vec, buffer._phi_sq
    else:
        phi_mat = np.ascontiguousarray(buffer._phi_mat[:, :count])
        y_vec = buffer._y_vec[:count]
        phi_sq = (phi_mat**2).sum(axis=0)
    return phi_mat, y_vec, 1.0 / (1.0 + mu * phi_sq)


def data_term(aggregates: DataAggregates, theta: np.ndarray) -> np.ndarray:
    """sum_k phi_k (phi_k' theta - y*_k) weights[k] from data_aggregates output."""
    phi_mat, y_vec, weights = aggregates
    return phi_mat @ (weights * (phi_mat.T @ theta - y_vec))


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
    for k, sample in enumerate(buffer.samples, start=1):
        cells = [str(k), repr(sample.t_k)]
        cells += [repr(float(v)) for v in sample.phi_k]
        cells.append(repr(sample.y_star_k))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"
