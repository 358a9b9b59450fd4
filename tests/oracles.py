"""Reference rules that the package computes another way, kept as test oracles.

maybe_record is the online recording rule applied one step at a time; the
package runs it over a whole grid at once (databuffer.record_steps). grad_L is
the loss gradient written out on its own; the package's fields compute it
inline (dynamics.compile_field). reference_field is each kind's field written
as numpy operations on whole vectors, for one point or a batch of rows; the
package emits straight-line code for the same operations
(dynamics._field_lines) in its batched field and its Euler loop
(dynamics._compile_loop). reference_rows is an Euler loop that calls it once
per step.

The one-point forms of the package's batched primitives live here too, for
the tests that check a field or a certificate at a single state: rhs is
reference_field at one point, with normalization giving its N_t, so a test
that compares the package's field with rhs compares it with code it does not
share; decrease_margin is certificates._decrease_sides on one row; phi_at and
eval_at are RegressorSignal.phi_grid and eval_grid at one time. make_constant
is the zero-amplitude sinusoid mix.

The fixtures that several test files share are here once: mix3 (the bundled
scenarios' regressor), CERTIFIED_GAINS, consistent_buffer and
rank_by_elimination.
"""

import numpy as np

from hotuner.certificates import _decrease_sides
from hotuner.databuffer import ZERO_REGRESSOR_NORM, DataBuffer, data_term
from hotuner.dynamics import KINDS, Gains, SystemKind, TunerState, _data_for
from hotuner.signals import RegressorSignal, row_dots


def normalization(phi_t, mu: float) -> float:
    """Normalization signal N_t = 1 + mu |phi(t)|^2."""
    phi_t = np.asarray(phi_t, dtype=float)
    return 1.0 + mu * float(phi_t @ phi_t)


def phi_at(signal: RegressorSignal, t: float) -> np.ndarray:
    """Regressor vector phi(t)."""
    return signal.offsets + signal.amplitudes * np.sin(signal.frequencies * t + signal.phases)


def eval_at(signal: RegressorSignal, t: float) -> tuple[np.ndarray, float]:
    """(phi(t), y*(t))."""
    phi = phi_at(signal, t)
    return phi, float(phi @ signal.theta_star)


def make_constant(values, theta_star) -> RegressorSignal:
    """Constant regressor phi(t) = values."""
    values = np.asarray(values, dtype=float)
    zeros = np.zeros(values.shape[0])
    return RegressorSignal(values, zeros, zeros, zeros, theta_star)


# The equality case of beta >= 2 gamma / mu.
CERTIFIED_GAINS = Gains(beta=1.0, gamma=0.1, mu=0.2)


def mix3() -> RegressorSignal:
    """The bundled scenarios' regressor: a constant first component plus a sine/cosine
    pair in quadrature."""
    return RegressorSignal(
        [1, 1, 1], [0, 3, 3], [0, 1, 1], [0, 0, np.pi / 2], [2.0, -1.0, 0.5]
    )


def consistent_buffer(sig: RegressorSignal, times) -> DataBuffer:
    """Samples of sig at times whose outputs are consistent with theta*."""
    phis = [phi_at(sig, float(t)) for t in times]
    ys = [float(p @ sig.theta_star) for p in phis]
    return DataBuffer.from_samples(phis, ys, times=list(times))


def rank_by_elimination(mat, tol=1e-10) -> int:
    """Row-reduction rank with partial pivoting; independent of any SVD."""
    work = np.array(mat, dtype=float)
    rank = 0
    for col in range(work.shape[1]):
        if rank == work.shape[0]:
            break
        pivot = rank + int(np.argmax(np.abs(work[rank:, col])))
        if abs(work[pivot, col]) <= tol:
            continue
        work[[rank, pivot]] = work[[pivot, rank]]
        work[rank] = work[rank] / work[rank, col]
        for row in range(work.shape[0]):
            if row != rank:
                work[row] = work[row] - work[row, col] * work[rank]
        rank += 1
    return rank


def rhs(kind: SystemKind, state: TunerState, t: float, signal: RegressorSignal,
        buffer: DataBuffer | None, gains: Gains) -> tuple[np.ndarray, np.ndarray]:
    """Derivative (dtheta/dt, dvartheta/dt) of the kind at state and time t.

    reference_field at one point, into fresh (n,) arrays; a baseline kind's
    dvartheta is zero.
    """
    phi, y_star = eval_at(signal, t)
    n = state.theta.shape[0]
    dtheta, dvartheta = np.empty(n), np.zeros(n)
    reference_field(kind, gains, n)(
        state.theta, state.vartheta, phi, y_star, normalization(phi, gains.mu),
        _data_for(kind, buffer, gains), dtheta, dvartheta,
    )
    return dtheta, dvartheta


def decrease_margin(kind: SystemKind, x, t: float, signal: RegressorSignal, gains: Gains,
                    buffer: DataBuffer | None = None) -> tuple[float, float]:
    """(lhs, rhs) of the decrease inequality <grad V, f> <= bound at x, t.

    x is the (2n,) error state (theta_tilde, p) = (theta - theta*,
    vartheta - theta). The bounds assume that the buffer of a buffer-driven
    kind holds samples consistent with theta*. The normalized
    concurrent-learning kind bounds |phi| by signal.norm_bound().
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (2 * signal.dimension,):
        raise ValueError(f"x must be the ({2 * signal.dimension},) error state (theta_tilde, p)")
    phi, y_star = eval_at(signal, t)
    lhs, rhs = _decrease_sides(
        kind, x[None], phi[None], np.array([y_star]),
        np.array([normalization(phi, gains.mu)]), signal, gains, buffer,
        signal.norm_bound(),
    )
    return float(lhs[0]), float(rhs[0])


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


def reference_field(kind: SystemKind, gains: Gains, n: int, batched: bool = False):
    """The field of one kind with one gain set and dimension n, resolved once for many calls.

    The closure takes the state, phi and y* at time t, N_t at phi, the buffer
    aggregates weighted for this kind (see _data_for), or None for an empty
    buffer, and the two output vectors, which must not overlap the inputs.
    It works in place, through its own scratch for the loss gradient and the
    gap theta - vartheta, and holds the constant gains as n-vectors. Each
    operation is the IEEE operation of the allocating formula on the same
    operands (multiplication commutes exactly, and an in-place ufunc rounds as
    an allocating one), so the bits do not depend on where results are
    written. An absent term is skipped rather than added as zero, and a
    soft-reset pull that is off (or has beta_r = 0) is not added either, which
    keeps the sign of every zero component. The 1-d ndarray.dot calls use the
    same dot kernel as a 1-d `@`.

    With batched set the closure evaluates B states at once: theta, vartheta
    and the outputs are (B, n), phi is (B, n) or one (n,) row shared by all
    states, and y* and N_t are (B, 1) columns or scalars. Row b of the output
    equals the unbatched closure at row b, bit for bit. The operations are the
    same; only the dot products differ, being stacked 1-d dots (see
    signals.row_dots) or, in one dimension, products, and the soft-reset pull
    is added through a boolean row mask. Its scratch is allocated per call,
    since B may change.
    """
    spec = KINDS[kind]
    grad_power, data_power = spec.grad, spec.data
    gain_nt, theta_nt = spec.gain_nt, spec.theta_nt
    high_order = spec.high_order
    pulls = spec.reset and gains.beta_r > 0.0
    gamma = gains.gamma
    neg_gain = np.full(n, -1.0 if spec.unit_gain else -gamma)
    neg_beta = -gains.beta
    neg_beta_vec = np.full(n, neg_beta)
    neg_pull = np.full(n, -(2.0 * gains.beta_r))
    scratch = np.empty(n), np.empty(n)
    if batched:
        def dot(a, b):  # a[k] . b[k] as a (B, 1) column; a may be one (n,) row
            # A 1-d dot of length 1 is one multiplication, which keeps the sign
            # of a zero; a stacked one adds it to +0.
            return a * b if n == 1 else row_dots(b, a)[:, None]
    else:
        dot = np.ndarray.dot
    add, divide, empty_like, multiply, subtract = (
        np.add, np.divide, np.empty_like, np.multiply, np.subtract)
    missing_data = f"system '{kind.value}' requires a nonempty data buffer"

    def field(theta, vartheta, phi, y_star, nt, data, dtheta, dvartheta):
        grad, gap = (empty_like(theta), empty_like(theta)) if batched else scratch
        # The drive is built in the output it ends in; grad keeps the loss
        # gradient undivided for the reset indicator.
        drive = dvartheta if high_order else dtheta
        source = None
        if grad_power is not None:
            multiply(phi, dot(phi, theta) - y_star, grad)
            source = grad
            if grad_power < 0:
                divide(grad, nt, drive)
                source = drive
        if data_power is not None:
            if data is None:
                raise ValueError(missing_data)
            correction = data_term(data, theta, batched)
            if data_power > 0:
                multiply(correction, nt, correction)
            if source is None:
                source = correction
            else:
                add(source, correction, drive)
                source = drive
        if gain_nt:
            multiply(source, -(gamma / nt), drive)
        else:
            multiply(source, neg_gain, drive)
        if not high_order:
            return
        subtract(theta, vartheta, gap)
        if theta_nt:
            multiply(gap, neg_beta * nt, dtheta)
        else:
            multiply(gap, neg_beta_vec, dtheta)
        if pulls:
            # The pull switches on when vartheta - theta leads uphill along the
            # loss gradient; at the switching surface (indicator 0) it is off.
            # gap'grad is exactly -(vartheta - theta)'grad: rounding to nearest
            # is symmetric in sign, so the test below is the same comparison.
            indicator = dot(gap, grad)
            if not theta_nt:
                indicator /= nt
            if batched or indicator < 0.0:
                multiply(gap, neg_pull, gap)
                if theta_nt:
                    multiply(gap, nt, gap)
                if batched:
                    # Rows whose pull is off keep dtheta as written.
                    add(dtheta, gap, dtheta, where=indicator < 0.0)
                else:
                    add(dtheta, gap, dtheta)

    return field


def reference_rows(kind: SystemKind, gains: Gains, grid, record_every: int, init,
                   buffer: DataBuffer, keeps: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """theta and vartheta rows of the Euler loop on grid (an integrator.SignalGrid).

    Row r is the state at step r record_every, and the last row the final state.
    keeps are the steps that add the last len(keeps) samples of buffer, the
    samples before them being held from the start. A step is dx *= h, x += dx
    on x = (theta, vartheta); a baseline kind steps theta only.
    """
    n = grid.phi.shape[1]
    field = reference_field(kind, gains, n)
    high_order = KINDS[kind].high_order
    x = np.concatenate((init.theta, init.vartheta))
    dx = np.empty_like(x)
    theta, vartheta, dtheta, dvartheta = x[:n], x[n:], dx[:n], dx[n:]
    state, step = (x, dx) if high_order else (theta, dtheta)
    nt = (1.0 + gains.mu * grid.phi_sq).tolist()
    y_star = grid.y_star.tolist()
    first = len(buffer) - len(keeps)
    thetas, varthetas = [], []
    for k in range(grid.num_steps + 1):
        if k % record_every == 0 or k == grid.num_steps:
            thetas.append(theta.copy())
            varthetas.append(vartheta.copy())
        if k == grid.num_steps:
            break
        data = _data_for(kind, buffer, gains, first + int(np.searchsorted(keeps, k, "right")))
        field(theta, vartheta, grid.phi[k], y_star[k], nt[k], data, dtheta, dvartheta)
        np.multiply(step, grid.step_h, step)
        np.add(state, step, state)
    return np.array(thetas), np.array(varthetas)
