"""Regressor signals and persistent-excitation diagnostics.

A regressor is a known vector-valued function of time phi(t), paired with the
scalar output y*(t) = phi(t)' theta* produced by a fixed ground-truth
parameter vector theta*. Excitation over a window [t, t + T] is measured by
the Gram matrix of phi on that window; a uniform positive lower bound on its
smallest eigenvalue is what identification arguments need, and check_pe
estimates that bound numerically on a finite horizon.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

__all__ = [
    "PEReport",
    "RegressorSignal",
    "check_pe",
    "pe_gram",
]

# Step of the dense time grid over which check_pe takes M_hat.
M_HAT_GRID_STEP = 1e-3
# Window Gram eigenvalues below this are treated as numerically zero.
PE_TOLERANCE = 1e-10
# Window starts per block of check_pe's scan; bounds its scratch memory.
_GRAM_BLOCK = 4096
# Windows whose smallest Gram eigenvalue is within this relative distance of
# the least one tie with it; rounding spreads equal Grams by up to 4e-15
# relative (fig1's Grams over a scan of 32 pi).
_WORST_TIE = 1e-12
# Below this magnitude a float's square is finite.
_SQUARE_LIMIT = math.sqrt(sys.float_info.max)


def row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise dot products a[k] @ b[k] (b may be a single vector).

    Each row goes through the same dot kernel as a 1-d `@`, so grid values are
    bit-equal to per-row ones; a matrix-vector product or an elementwise sum
    may round differently.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return np.matmul(a[:, None, :], b[..., :, None])[:, 0, 0]


def _as_vector(values, n: int, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.shape != (n,):
        raise ValueError(f"{name} must be a length-{n} vector, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} must be finite")
    arr = arr.copy()
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class RegressorSignal:
    """Sinusoid-mix regressor with its ground-truth linear output.

    Component i of phi(t) is offsets[i] + amplitudes[i] * sin(frequencies[i] * t
    + phases[i]); constants are the zero-amplitude special case. The output is
    y*(t) = phi(t)' theta* exactly, by construction.
    """

    offsets: np.ndarray
    amplitudes: np.ndarray
    frequencies: np.ndarray
    phases: np.ndarray
    theta_star: np.ndarray

    def __post_init__(self) -> None:
        n = np.asarray(self.offsets, dtype=float).shape
        if len(n) != 1 or n[0] < 1:
            raise ValueError("offsets must be a nonempty 1-d vector")
        n = n[0]
        for name in ("offsets", "amplitudes", "frequencies", "phases", "theta_star"):
            object.__setattr__(self, name, _as_vector(getattr(self, name), n, name))
        # N_t, the step warning and the decrease bounds square the bound on |phi|;
        # hypot does not overflow on the way to it.
        bound = math.hypot(*(abs(o) + abs(a) for o, a in
                             zip(self.offsets.tolist(), self.amplitudes.tolist())))
        if not bound < _SQUARE_LIMIT:
            raise ValueError(f"offsets and amplitudes bound |phi| by M = {bound:.4g}, "
                             "whose square overflows")

    @property
    def dimension(self) -> int:
        return self.offsets.shape[0]

    def phi_grid(self, ts: np.ndarray) -> np.ndarray:
        """Regressor rows phi(ts[k]) for a vector of times."""
        ts = np.asarray(ts, dtype=float)
        return self.offsets + self.amplitudes * np.sin(
            np.outer(ts, self.frequencies) + self.phases
        )

    def eval_grid(self, ts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """phi_grid(ts) and y*(ts[k]) = phi(ts[k])' theta*, each row a 1-d `@` (see row_dots)."""
        phi = self.phi_grid(ts)
        return phi, row_dots(phi, self.theta_star)

    def norm_bound(self) -> float:
        """Certified upper bound on sup_t |phi(t)| from the component ranges."""
        return float(np.sqrt(np.sum((np.abs(self.offsets) + np.abs(self.amplitudes)) ** 2)))


def _moments(signal: RegressorSignal, cos_int: Callable, sin_int: Callable) -> np.ndarray:
    """Moment matrix integral w(tau) u(tau) u(tau)' dtau of u(tau) = (1, cos(w tau), sin(w tau)).

    cos_int(nu) and sin_int(nu) are the weight's integrals against cos(nu tau)
    and sin(nu tau). With frequencies f = (0, w), the constant is cos(0 tau),
    and each product of two entries of u is a half-sum of these integrals at
    f_i - f_j and f_i + f_j, so every entry is exact.
    """
    f = np.concatenate(([0.0], signal.frequencies))
    differences, sums = np.subtract.outer(f, f), np.add.outer(f, f)
    cos_cos = 0.5 * (cos_int(differences) + cos_int(sums))
    sin_sin = 0.5 * (cos_int(differences) - cos_int(sums))
    cos_sin = 0.5 * (sin_int(sums) - sin_int(differences))[:, 1:]
    return np.block([[cos_cos, cos_sin], [cos_sin.T, sin_sin[1:, 1:]]])


def _window_moments(signal: RegressorSignal, T: float) -> np.ndarray:
    """_moments of the unit weight on [0, T]."""
    if not 0.0 < T < _SQUARE_LIMIT:
        raise ValueError(f"window length T must be positive with a finite square, got {T!r}")
    return _moments(
        signal,
        lambda nu: T * np.sinc(nu * T / np.pi),
        lambda nu: 0.5 * nu * T**2 * np.sinc(nu * T / (2.0 * np.pi)) ** 2,
    )


def _window_grams(signal: RegressorSignal, starts: np.ndarray, moments: np.ndarray) -> np.ndarray:
    """Grams integral w(tau) phi(t + tau) phi(t + tau)' dtau for each start t, shape (K, n, n).

    A sinusoid mix shifted by tau is phi(t + tau) = L(t) u(tau), with
    L(t) = [o | diag(a sin(w t + p)) | diag(a cos(w t + p))]. So every Gram is
    L(t) M L(t)' for the one moment matrix M of the weight w (see _moments).
    Results are symmetrized.
    """
    starts = np.asarray(starts, dtype=float)
    n = signal.dimension
    angles = np.outer(starts, signal.frequencies) + signal.phases
    diagonal = np.arange(n)
    lift = np.zeros((starts.shape[0], n, 2 * n + 1))
    lift[:, :, 0] = signal.offsets
    lift[:, diagonal, 1 + diagonal] = signal.amplitudes * np.sin(angles)
    lift[:, diagonal, 1 + n + diagonal] = signal.amplitudes * np.cos(angles)
    grams = lift @ moments @ lift.transpose(0, 2, 1)
    return 0.5 * (grams + grams.transpose(0, 2, 1))


def pe_gram(signal: RegressorSignal, t: float, T: float) -> np.ndarray:
    """Windowed excitation Gram matrix integral_t^{t+T} phi(s) phi(s)' ds.

    Exact up to rounding: the integral is taken in closed form through the
    window's moment matrix (see _window_grams). Result is symmetric. A window
    whose Gram or whose length squared overflows is refused with a ValueError.
    """
    return _pe_grams(signal, np.array([t]), T)[0]


def _pe_grams(signal: RegressorSignal, starts: np.ndarray, T: float) -> np.ndarray:
    """_window_grams of the windows of length T at starts; Grams that overflow are refused."""
    with np.errstate(over="ignore", invalid="ignore"):
        grams = _window_grams(signal, starts, _window_moments(signal, T))
    if not np.isfinite(grams).all():
        raise ValueError(f"the window Grams overflow with window_T = {T!r} and "
                         f"|phi| <= M = {signal.norm_bound():.4g}")
    return grams


@dataclass(frozen=True)
class PEReport:
    """Numerical persistent-excitation scan summary."""

    window_T: float
    delta_hat: float
    M_hat: float
    scan_horizon: float
    quadrature_step: float  # step of the M_hat grid, named as the _pe.csv column
    windows: int
    worst_window_start: float

    def satisfied(self) -> bool:
        """True when every scanned window Gram was positive definite beyond PE_TOLERANCE."""
        return self.delta_hat > PE_TOLERANCE

    def summary(self) -> str:
        state = "satisfied" if self.satisfied() else "NOT satisfied"
        return (
            f"PE {state}: delta_hat={self.delta_hat:.6g}, M_hat={self.M_hat:.6g} "
            f"(window T={self.window_T:g}, horizon {self.scan_horizon:g}, "
            f"{self.windows} windows, worst at t={self.worst_window_start:g})"
        )


def check_pe(
    signal: RegressorSignal,
    T: float,
    scan_horizon: float,
    scan_step: float | None = None,
) -> PEReport:
    """Scan window starts on [0, scan_horizon - T] and report the excitation level.

    delta_hat is the smallest windowed-Gram eigenvalue seen over the scan,
    clamped at zero, and worst_window_start is the earliest start of a window
    that attains it within the relative tie _WORST_TIE (windows of whole
    periods have equal Grams, which rounding tells apart); M_hat is the
    largest |phi| over the dense evaluation grid of step M_HAT_GRID_STEP.
    scan_step defaults to T / 8. A scan with more windows or grid points than
    fit in memory, or whose window Grams overflow, is refused with a ValueError.

    The window Grams are exact and come from one moment matrix (see
    _window_grams), in blocks of _GRAM_BLOCK starts, so each window costs O(n^3).
    """
    if not 0.0 < T < np.inf:
        raise ValueError(f"window length T must be positive and finite, got {T!r}")
    if scan_horizon < T:
        raise ValueError("scan_horizon must be at least the window length T")
    if scan_step is None:
        scan_step = T / 8.0
    if not scan_step > 0.0:
        raise ValueError("scan_step must be positive")
    windows, points = (scan_horizon - T) / scan_step + 1.0, scan_horizon / M_HAT_GRID_STEP + 1.0
    if max(windows, points) <= np.iinfo(np.intp).max:
        try:
            return _scan(signal, T, scan_horizon, scan_step)
        except MemoryError:
            pass
    raise ValueError(
        f"scan_horizon = {scan_horizon!r} with window_T = {T!r} and scan_step = {scan_step!r} "
        f"needs {windows:.4g} windows and {points:.4g} M_hat grid points, more than fit "
        "in memory"
    )


def _scan(signal: RegressorSignal, T: float, scan_horizon: float, scan_step: float) -> PEReport:
    """The scan of check_pe, whose arguments it has checked."""
    count = int(np.floor((scan_horizon - T) / scan_step + 1e-12))
    starts = scan_step * np.arange(count + 1)
    blocks = (starts[i:i + _GRAM_BLOCK] for i in range(0, starts.shape[0], _GRAM_BLOCK))
    smallest = np.concatenate([
        np.linalg.eigvalsh(_pe_grams(signal, block, T))[:, 0] for block in blocks
    ])
    least = float(smallest.min())
    worst = int(np.argmax(smallest <= least + _WORST_TIE * abs(least)))
    grid = M_HAT_GRID_STEP * np.arange(int(np.floor(scan_horizon / M_HAT_GRID_STEP)) + 1)
    phi = signal.phi_grid(grid)
    m_hat = float(np.sqrt((phi**2).sum(axis=1).max()))
    return PEReport(
        window_T=float(T),
        delta_hat=max(least, 0.0),
        M_hat=m_hat,
        scan_horizon=float(scan_horizon),
        quadrature_step=M_HAT_GRID_STEP,
        windows=int(starts.shape[0]),
        worst_window_start=float(starts[worst]),
    )
