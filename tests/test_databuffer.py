"""Recording rule, data aggregates, and the rank/definiteness equivalence."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hotuner import (
    DataBuffer,
    buffer_csv,
    p_matrix,
    record_steps,
    richness,
)
from hotuner.databuffer import _RECORD_CHUNK, data_aggregates, data_term
from oracles import maybe_record


def rank_by_elimination(mat, tol=1e-10):
    """Row-reduction rank with partial pivoting; independent of the svd path."""
    a = np.array(mat, dtype=float)
    rows, cols = a.shape
    rank = 0
    for col in range(cols):
        if rank == rows:
            break
        pivot = rank + int(np.argmax(np.abs(a[rank:, col])))
        if abs(a[pivot, col]) <= tol:
            continue
        a[[rank, pivot]] = a[[pivot, rank]]
        a[rank] = a[rank] / a[rank, col]
        for r in range(rows):
            if r != rank:
                a[r] = a[r] - a[r, col] * a[rank]
        rank += 1
    return rank


def test_sample_validation():
    phis = np.array([[1, 2], [3, 4]])
    buf = DataBuffer.from_samples(phis, [3, 5], times=[1, 2])
    assert buf.t.tolist() == [1.0, 2.0] and buf.y_star.tolist() == [3.0, 5.0]
    assert buf.phi.dtype == float and buf.phi.shape == (2, 2)
    # The buffer holds its own read-only copies.
    phis[0, 0] = 9
    assert buf.phi[0, 0] == 1.0
    for values in (buf.t, buf.phi, buf.y_star):
        with pytest.raises(ValueError, match="read-only"):
            values[0] = 0.0
    with pytest.raises(ValueError, match="one length"):
        DataBuffer([0.0, 1.0], [[1.0], [2.0]], [0.0])
    with pytest.raises(ValueError, match="one length"):
        DataBuffer([0.0], [[1.0], [2.0]], [0.0])
    with pytest.raises(ValueError, match="one length"):
        DataBuffer([0.0], [1.0], [0.0])
    with pytest.raises(ValueError, match="strictly increasing"):
        DataBuffer([1.0, 0.5], [[1.0], [2.0]], [0.0, 0.0])
    with pytest.raises(ValueError, match="at least 1"):
        DataBuffer([0.0], np.empty((1, 0)), [0.0])


def test_buffer_validation():
    with pytest.raises(ValueError, match="strictly increasing"):
        DataBuffer.from_samples([[1.0], [2.0]], [0.0, 0.0], times=[1.0, 1.0])


@pytest.mark.parametrize("capacity,epsilon,message", [
    (0, 1.0, "capacity"),
    (-1, 1.0, "capacity"),
    # a capacity below the regressor dimension can never become sufficient
    (1, 1.0, "capacity must be at least 1 and at least the regressor dimension 2"),
    (3, 0.0, "epsilon"),
    (3, -1.0, "epsilon"),
    (3, math.nan, "epsilon must be positive"),
    (math.nan, 1.0, "capacity"),
], ids=["capacity_0", "capacity_negative", "capacity_below_dimension", "epsilon_0",
        "epsilon_negative", "epsilon_nan", "capacity_nan"])
def test_record_steps_refuses_a_bad_policy(capacity, epsilon, message):
    """Each of these used to return a schedule: capacity 0 kept row 0, epsilon 0
    or below kept every row, and a NaN epsilon kept only row 0."""
    phis = [[1.0, 0.0], [0.0, 2.0], [3.0, 0.0]]
    with pytest.raises(ValueError, match=message):
        record_steps(phis, capacity, epsilon)


def test_from_samples_defaults():
    buf = DataBuffer.from_samples([[1.0, 0.0], [0.0, 1.0]], [1.0, 2.0])
    assert len(buf) == 2
    assert buf.dimension == 2
    assert buf.t[-1] == 1.0


def test_empty_buffer_accessors():
    buf = DataBuffer.empty()
    assert len(buf) == 0
    with pytest.raises(ValueError):
        buf.dimension
    assert buf.t.shape == (0,) and buf.phi.shape == (0, 0) and buf.y_star.shape == (0,)
    assert buffer_csv(buf) == "k,t_k,y_star_k\n"
    with pytest.raises(ValueError):
        p_matrix(buf, 0.0)
    with pytest.raises(ValueError):
        richness(buf, 0.0)


def test_maybe_record_walkthrough():
    """Step the recording rule through record/skip/zero/freeze by hand."""
    policy = 3, 1.0  # capacity, epsilon
    buf = DataBuffer.empty()

    buf, kept = maybe_record(buf, 0.0, [1.0, 0.0], 1.0, *policy)
    assert kept and len(buf) == 1  # first sample is unconditional

    buf, kept = maybe_record(buf, 1.0, [1.0, 0.0], 1.0, *policy)
    assert not kept  # zero movement

    # |[-1, 2]|^2 / |[0, 2]| = 5 / 2 = 2.5 >= 1
    buf, kept = maybe_record(buf, 2.0, [0.0, 2.0], 0.5, *policy)
    assert kept and len(buf) == 2

    buf, kept = maybe_record(buf, 3.0, [0.0, 0.0], 0.0, *policy)
    assert not kept  # near-zero regressor is skipped

    # |[0, 0.4]|^2 / 2.4 = 0.0667 < 1
    buf, kept = maybe_record(buf, 3.5, [0.0, 2.4], 0.5, *policy)
    assert not kept

    buf, kept = maybe_record(buf, 4.0, [3.0, 0.0], 2.0, *policy)
    assert kept and len(buf) == 3  # full: the buffer freezes
    assert buf.t.tolist() == [0.0, 2.0, 4.0]
    assert buf.phi.tolist() == [[1.0, 0.0], [0.0, 2.0], [3.0, 0.0]]
    assert buf.y_star.tolist() == [1.0, 0.5, 2.0]

    frozen_again, kept = maybe_record(buf, 5.0, [9.0, 9.0], 0.0, *policy)
    assert not kept
    assert frozen_again is buf  # idempotent once frozen


def test_maybe_record_time_and_shape_errors():
    buf, _ = maybe_record(DataBuffer.empty(), 1.0, [1.0, 0.0], 0.0, 3, 1.0)
    with pytest.raises(ValueError, match="time must increase"):
        maybe_record(buf, 1.0, [5.0, 0.0], 0.0, 3, 1.0)
    with pytest.raises(ValueError, match="dimension"):
        maybe_record(buf, 2.0, [5.0, 0.0, 1.0], 0.0, 3, 1.0)


@st.composite
def recording_cases(draw):
    """Rows of a random walk that may rest for hundreds of rows, with zero,
    near-zero and repeated rows mixed in, a capacity that freezes early or
    never, and an epsilon."""
    n = draw(st.integers(1, 10))
    count = draw(st.integers(0, 1500))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    moves = rng.random(count) < draw(st.sampled_from([0.002, 0.01, 0.1, 1.0]))
    steps = rng.normal(scale=draw(st.floats(0.01, 2.0)), size=(count, n))
    phis = np.cumsum(steps * moves[:, None], axis=0)
    mark = rng.integers(0, 10, count)
    phis[mark == 0] = 0.0
    phis[mark == 1] *= 1e-14  # below ZERO_REGRESSOR_NORM
    repeat = np.flatnonzero(mark[1:] == 2) + 1
    phis[repeat] = phis[repeat - 1]
    freezes = draw(st.booleans())
    capacity = n + draw(st.integers(0, 6)) if freezes else count + n
    return phis, capacity, draw(st.floats(1e-3, 5.0))


# The rule keeps rows 0, 257 (the first row of record_steps' second chunk),
# 557 (right after a zero row) and 1457, so keeps lie 257 to 900 rows apart;
# capacity 3 freezes before row 1457.
RESTING = np.repeat([[1.0, 0.0], [3.0, 0.0], [0.0, 0.0], [0.0, 5.0], [4.0, 4.0]],
                    [1 + _RECORD_CHUNK, 299, 1, 900, 10], axis=0)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(recording_cases())
@example((RESTING, 3, 1.0))
@example((RESTING, 10, 1.0))
@example((np.array([[1.0, 0.0], [2.0, 0.0]]), 2, 0.5))  # |1|^2 / 2 == epsilon: kept
def test_record_steps_replays_maybe_record(case):
    """The vectorized schedule keeps exactly the rows the one-step rule keeps."""
    phis, capacity, epsilon = case
    buffer = DataBuffer.empty()
    kept_rows = []
    for k, phi in enumerate(phis):
        if len(buffer) == capacity:
            break
        buffer, kept = maybe_record(buffer, float(k), phi, k + 0.5, capacity, epsilon)
        if kept:
            kept_rows.append(k)
    steps = record_steps(phis, capacity, epsilon)
    assert steps == kept_rows
    rebuilt = DataBuffer.from_samples(phis[steps], np.array(steps) + 0.5, times=steps)
    assert buffer_csv(rebuilt) == buffer_csv(buffer)


def test_p_matrix_hand_values():
    basis = DataBuffer.from_samples([[1.0, 0.0], [0.0, 1.0]], [0.0, 0.0])
    assert np.allclose(p_matrix(basis, 0.0), np.eye(2), atol=1e-15)
    assert np.allclose(p_matrix(basis, 1.0), 0.5 * np.eye(2), atol=1e-15)
    single = DataBuffer.from_samples([[1.0, 2.0]], [0.0])
    assert np.allclose(p_matrix(single, 0.0), [[1.0, 2.0], [2.0, 4.0]], atol=1e-15)
    # |phi|^2 = 5, so mu = 0.25 weights the sample by 4/9
    assert np.allclose(
        p_matrix(single, 0.25), np.array([[1.0, 2.0], [2.0, 4.0]]) * 4.0 / 9.0, atol=1e-15
    )
    with pytest.raises(ValueError, match="mu"):
        p_matrix(single, -0.1)


def b_term(buffer, theta, mu):
    """The data-driven correction B as the field computes it."""
    return data_term(data_aggregates(buffer, mu), np.asarray(theta, dtype=float))


def test_b_term_hand_values():
    buf = DataBuffer.from_samples([[1.0, 0.0], [0.0, 2.0]], [2.0, 2.0])
    theta = np.array([3.0, 1.0])
    # residuals are 1 and 0
    assert np.allclose(b_term(buf, theta, 0.0), [1.0, 0.0], atol=1e-15)
    theta = np.array([3.0, 3.0])
    # residuals 1 and 4, damped by 1/(1 + mu) and 1/(1 + 4 mu) respectively
    assert np.allclose(b_term(buf, theta, 1.0), [0.5, 1.6], atol=1e-15)


def test_b_term_is_p_matrix_times_error():
    """With consistent outputs the correction factors through P_mu exactly."""
    rng = np.random.default_rng(3)
    for _ in range(200):
        n = int(rng.integers(1, 5))
        count = int(rng.integers(1, 7))
        phis = rng.uniform(-1, 1, (count, n))
        theta_star = rng.uniform(-2, 2, n)
        buf = DataBuffer.from_samples(phis, phis @ theta_star)
        theta = rng.uniform(-3, 3, n)
        mu = float(rng.uniform(0, 2))
        lhs = b_term(buf, theta, mu)
        rhs = p_matrix(buf, mu) @ (theta - theta_star)
        assert np.abs(lhs - rhs).max() < 1e-10


def test_p_matrix_mu_monotone():
    # raising mu only shrinks the weights, so quadratic forms shrink too
    rng = np.random.default_rng(5)
    phis = rng.uniform(-1, 1, (5, 3))
    buf = DataBuffer.from_samples(phis, np.zeros(5))
    v = rng.uniform(-1, 1, 3)
    values = [float(v @ p_matrix(buf, mu) @ v) for mu in (0.0, 0.1, 0.5, 2.0)]
    assert all(a >= b - 1e-15 for a, b in zip(values, values[1:]))


def test_richness_reports():
    deficient = DataBuffer.from_samples([[1.0, 2.0]], [0.0])
    report = richness(deficient, 0.2)
    assert report.N == 1
    assert report.rank_D == 1
    assert not report.sufficient
    assert report.delta_mu <= 1e-12

    full = DataBuffer.from_samples([[1.0, 0.0], [1.0, 1.0]], [0.0, 0.0])
    report = richness(full, 0.2)
    assert report.rank_D == 2
    assert report.sufficient
    assert report.min_eig_P > 1e-10
    assert report.delta_mu == report.min_eig_P


def test_rank_eigenvalue_equivalence_fuzz():
    """Full row rank of the stacked samples matches definiteness of P_mu."""
    rng = np.random.default_rng(17)
    for _ in range(200):
        count = int(rng.integers(1, 7))
        phis = rng.uniform(-1, 1, (count, 3))
        buf = DataBuffer.from_samples(phis, np.zeros(count))
        oracle = rank_by_elimination(phis)
        for mu in (0.0, 0.2, 1.0):
            report = richness(buf, mu)
            assert report.rank_D == oracle
            assert (report.min_eig_P > 1e-10) == (oracle == 3)
            assert report.sufficient == (oracle == 3)


def test_buffer_csv_round_trip():
    buf = DataBuffer.from_samples(
        [[1.0, 0.5], [0.25, -2.0]], [0.125, 3.5], times=[0.1, 0.9]
    )
    text = buffer_csv(buf)
    lines = text.strip().split("\n")
    assert lines[0] == "k,t_k,phi_k_1,phi_k_2,y_star_k"
    assert len(lines) == 3
    cells = lines[2].split(",")
    assert int(cells[0]) == 2
    assert float(cells[1]) == 0.9
    assert float(cells[2]) == 0.25
    assert float(cells[4]) == 3.5
