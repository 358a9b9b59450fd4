"""Regressor signals and persistent-excitation diagnostics.

A regressor is a known vector-valued function of time phi(t), paired with the
scalar output y*(t) = phi(t)' theta* produced by a fixed ground-truth
parameter vector theta*. Excitation over a window [t, t + T] is measured by
the Gram matrix of phi on that window; a uniform positive lower bound on its
smallest eigenvalue is what identification arguments need, and check_pe
estimates that bound numerically on a finite horizon.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "DEFAULT_QUADRATURE_STEP",
    "PE_TOLERANCE",
    "PEReport",
    "RegressorSignal",
    "check_pe",
    "make_constant",
    "make_sinusoid_mix",
    "pe_gram",
    "row_dots",
]

DEFAULT_QUADRATURE_STEP = 1e-3
# Window Gram eigenvalues below this are treated as numerically zero.
PE_TOLERANCE = 1e-10

_DESCRIPTOR_KEYS = (
    "dimension",
    "offsets",
    "amplitudes",
    "frequencies",
    "phases",
    "theta_star",
)


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

    @property
    def dimension(self) -> int:
        return self.offsets.shape[0]

    def phi(self, t: float) -> np.ndarray:
        """Regressor vector at time t."""
        return self.offsets + self.amplitudes * np.sin(self.frequencies * t + self.phases)

    def eval(self, t: float) -> tuple[np.ndarray, float]:
        """Return (phi(t), y*(t))."""
        phi = self.phi(t)
        return phi, float(phi @ self.theta_star)

    def phi_grid(self, ts: np.ndarray) -> np.ndarray:
        """Regressor rows phi(ts[k]) for a vector of times."""
        ts = np.asarray(ts, dtype=float)
        return self.offsets + self.amplitudes * np.sin(
            np.outer(ts, self.frequencies) + self.phases
        )

    def eval_grid(self, ts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized evaluation; row k equals eval(ts[k]) bit for bit."""
        phi = self.phi_grid(ts)
        return phi, row_dots(phi, self.theta_star)

    def norm_bound(self) -> float:
        """Certified upper bound on sup_t |phi(t)| from the component ranges."""
        return float(np.sqrt(np.sum((np.abs(self.offsets) + np.abs(self.amplitudes)) ** 2)))

    def shifted(self, tau: float) -> "RegressorSignal":
        """Signal t -> phi(t + tau), which stays inside the sinusoid-mix family."""
        return RegressorSignal(
            offsets=self.offsets,
            amplitudes=self.amplitudes,
            frequencies=self.frequencies,
            phases=self.phases + self.frequencies * tau,
            theta_star=self.theta_star,
        )

    def to_descriptor(self) -> dict:
        return {
            "dimension": self.dimension,
            "offsets": self.offsets.tolist(),
            "amplitudes": self.amplitudes.tolist(),
            "frequencies": self.frequencies.tolist(),
            "phases": self.phases.tolist(),
            "theta_star": self.theta_star.tolist(),
        }

    @staticmethod
    def from_descriptor(descriptor: dict) -> "RegressorSignal":
        unknown = set(descriptor) - set(_DESCRIPTOR_KEYS)
        if unknown:
            raise ValueError(f"unknown signal descriptor key '{sorted(unknown)[0]}'")
        missing = set(_DESCRIPTOR_KEYS) - set(descriptor)
        if missing:
            raise ValueError(f"missing signal descriptor key '{sorted(missing)[0]}'")
        n = descriptor["dimension"]
        if not isinstance(n, int) or n < 1:
            raise ValueError("signal dimension must be a positive integer")
        return make_sinusoid_mix(
            n,
            descriptor["offsets"],
            descriptor["amplitudes"],
            descriptor["frequencies"],
            descriptor["phases"],
            descriptor["theta_star"],
        )


def make_sinusoid_mix(n, offsets, amplitudes, frequencies, phases, theta_star) -> RegressorSignal:
    """Build an n-dimensional sinusoid-mix regressor; all vectors must have length n."""
    if n < 1:
        raise ValueError("dimension must be at least 1")
    signal = RegressorSignal(
        offsets=_as_vector(offsets, n, "offsets"),
        amplitudes=_as_vector(amplitudes, n, "amplitudes"),
        frequencies=_as_vector(frequencies, n, "frequencies"),
        phases=_as_vector(phases, n, "phases"),
        theta_star=_as_vector(theta_star, n, "theta_star"),
    )
    return signal


def make_constant(values, theta_star) -> RegressorSignal:
    """Constant regressor phi(t) = values."""
    values = np.asarray(values, dtype=float)
    n = values.shape[0]
    zeros = np.zeros(n)
    return make_sinusoid_mix(n, values, zeros, zeros, zeros, theta_star)


def pe_gram(
    signal: RegressorSignal,
    t: float,
    T: float,
    quadrature_step: float = DEFAULT_QUADRATURE_STEP,
) -> np.ndarray:
    """Windowed excitation Gram matrix integral_t^{t+T} phi(s) phi(s)' ds.

    Composite trapezoid rule; the step is snapped to divide T exactly so the
    endpoints always carry half weight. Result is symmetrized.
    """
    if T <= 0.0:
        raise ValueError("window length T must be positive")
    if quadrature_step <= 0.0 or quadrature_step > T:
        raise ValueError("quadrature_step must lie in (0, T]")
    m = max(1, int(round(T / quadrature_step)))
    step = T / m
    nodes = t + step * np.arange(m + 1)
    phi = signal.phi_grid(nodes)
    weights = np.full(m + 1, step)
    weights[0] = weights[-1] = 0.5 * step
    gram = (phi * weights[:, None]).T @ phi
    return 0.5 * (gram + gram.T)


@dataclass(frozen=True)
class PEReport:
    """Numerical persistent-excitation scan summary."""

    window_T: float
    delta_hat: float
    M_hat: float
    scan_horizon: float
    quadrature_step: float

    def satisfied(self, tolerance: float = PE_TOLERANCE) -> bool:
        """True when every scanned window Gram was positive definite beyond tolerance."""
        return self.delta_hat > tolerance

    def summary(self) -> str:
        state = "satisfied" if self.satisfied() else "NOT satisfied"
        return (
            f"PE {state}: delta_hat={self.delta_hat:.6g}, M_hat={self.M_hat:.6g} "
            f"(window T={self.window_T:g}, horizon {self.scan_horizon:g})"
        )


def check_pe(
    signal: RegressorSignal,
    T: float,
    scan_horizon: float,
    scan_step: float | None = None,
    quadrature_step: float = DEFAULT_QUADRATURE_STEP,
) -> PEReport:
    """Scan window starts on [0, scan_horizon - T] and report the excitation level.

    delta_hat is the smallest windowed-Gram eigenvalue seen over the scan,
    clamped at zero; M_hat is the largest |phi| over the dense evaluation grid.
    scan_step defaults to T / 8.
    """
    if scan_horizon < T:
        raise ValueError("scan_horizon must be at least the window length T")
    if scan_step is None:
        scan_step = T / 8.0
    if scan_step <= 0.0:
        raise ValueError("scan_step must be positive")
    count = int(np.floor((scan_horizon - T) / scan_step + 1e-12))
    starts = scan_step * np.arange(count + 1)
    delta = np.inf
    for start in starts:
        gram = pe_gram(signal, float(start), T, quadrature_step)
        delta = min(delta, float(np.linalg.eigvalsh(gram)[0]))
    grid = quadrature_step * np.arange(int(np.floor(scan_horizon / quadrature_step)) + 1)
    phi = signal.phi_grid(grid)
    m_hat = float(np.sqrt((phi**2).sum(axis=1).max()))
    return PEReport(
        window_T=float(T),
        delta_hat=max(delta, 0.0),
        M_hat=m_hat,
        scan_horizon=float(scan_horizon),
        quadrature_step=float(quadrature_step),
    )
