"""Reference rules that the package computes another way, kept as test oracles.

maybe_record is the online recording rule applied one step at a time; the
package runs it over a whole grid at once (databuffer.record_steps). grad_L is
the loss gradient written out on its own; the package's fields compute it
inline (dynamics.compile_field).
"""

import numpy as np

from hotuner.databuffer import ZERO_REGRESSOR_NORM, DataBuffer


def maybe_record(buffer: DataBuffer, t: float, phi_t, y_star_t: float, capacity: int,
                 epsilon: float) -> tuple[DataBuffer, bool]:
    """Apply the online recording rule at time t; returns (buffer, recorded).

    A buffer holding capacity samples is frozen and returned unchanged. An
    empty buffer records unconditionally. Otherwise the pair is kept when the
    regressor has moved far enough from the last kept one:

        |phi(t) - phi(t_last)|^2 / |phi(t)| >= epsilon,

    skipping near-zero regressors, for which the criterion is undefined.
    """
    if len(buffer) >= capacity:
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
        if gap / norm < epsilon:
            return buffer, False
    phis = np.vstack((buffer.phi, phi_t)) if len(buffer) else phi_t[None]
    grown = DataBuffer(np.append(buffer.t, t), phis, np.append(buffer.y_star, y_star_t))
    return grown, True


def grad_L(phi_t, y_star_t: float, theta) -> np.ndarray:
    """Gradient of the instantaneous squared prediction error, phi (phi' theta - y*)."""
    phi_t = np.asarray(phi_t, dtype=float)
    theta = np.asarray(theta, dtype=float)
    return phi_t * (float(phi_t @ theta) - y_star_t)
