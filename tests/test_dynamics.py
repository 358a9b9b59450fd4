"""Right-hand sides: hand values per kind, switching logic, structural relations."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hotuner import (
    BASELINE_KINDS,
    BUFFER_KINDS,
    HIGH_ORDER_KINDS,
    KINDS,
    POINTWISE_KINDS,
    RATE_CONDITION_KINDS,
    SOFT_RESET_KINDS,
    DataBuffer,
    Gains,
    RegressorSignal,
    SystemKind,
    TunerState,
    compile_field,
)
from hotuner.databuffer import data_aggregates, data_term
from hotuner.dynamics import _data_for
from hotuner.signals import row_dots
from oracles import eval_at, grad_L, make_constant, normalization, phi_at, reference_field, rhs

PI = np.pi


def scalar_setup():
    """One-dimensional case small enough to evaluate every kind by hand."""
    signal = make_constant([2.0], [1.0])  # phi = 2, y* = 2
    buffer = DataBuffer.from_samples([[1.0]], [1.0])  # consistent with theta* = 1
    gains = Gains(beta=2.0, gamma=0.5, mu=0.25, beta_r=3.0)
    return signal, buffer, gains


def indicator(kind, state, t, signal, gains):
    """Reset trigger (vartheta - theta)' grad L, over N_t for the normalized kind."""
    phi, y_star = eval_at(signal, t)
    value = float((state.vartheta - state.theta) @ grad_L(phi, y_star, state.theta))
    if kind is SystemKind.HT_NORMALIZED_CL_SOFTRESET:
        value /= normalization(phi, gains.mu)
    return value


def test_kind_partitions():
    assert len(SystemKind) == 11
    assert BASELINE_KINDS | HIGH_ORDER_KINDS == frozenset(SystemKind)
    assert not BASELINE_KINDS & HIGH_ORDER_KINDS
    assert SOFT_RESET_KINDS <= BUFFER_KINDS
    assert SystemKind.HT_B in BUFFER_KINDS
    assert SystemKind.HT_B not in RATE_CONDITION_KINDS
    assert POINTWISE_KINDS == HIGH_ORDER_KINDS - SOFT_RESET_KINDS
    assert set(KINDS) == set(SystemKind)
    assert SystemKind("ht_cl") is SystemKind.HT_CL


def test_gains_validation():
    with pytest.raises(ValueError):
        Gains(beta=0.0, gamma=1.0, mu=0.0)
    with pytest.raises(ValueError):
        Gains(beta=1.0, gamma=0.0, mu=0.0)
    with pytest.raises(ValueError):
        Gains(beta=1.0, gamma=1.0, mu=-0.1)
    with pytest.raises(ValueError):
        Gains(beta=1.0, gamma=1.0, mu=0.0, beta_r=-1.0)
    assert Gains(beta=1.0, gamma=0.1, mu=0.2).rate_condition_ok  # equality case
    assert not Gains(beta=1.0, gamma=0.3, mu=0.2).rate_condition_ok
    assert not Gains(beta=1.0, gamma=0.1, mu=0.0).rate_condition_ok


@pytest.mark.parametrize("field", ["beta", "gamma", "mu", "beta_r"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_gains_refuse_non_finite_values(field, value):
    """NaN passes every sign check, and inf passes beta > 0: both used to construct."""
    values = {"beta": 1.0, "gamma": 0.1, "mu": 0.2, "beta_r": 4.0, field: value}
    with pytest.raises(ValueError, match=f"^{field} must be finite \\(got {value!r}\\)$"):
        Gains(**values)


def test_tuner_state():
    theta0 = np.array([1.0, 2.0])
    state = TunerState.from_theta0(theta0)
    theta0[0] = 9.0
    assert state.theta[0] == 1.0
    assert np.array_equal(state.theta, state.vartheta)
    with pytest.raises(ValueError):
        TunerState(theta=np.zeros(2), vartheta=np.zeros(3))
    with pytest.raises(ValueError):
        TunerState(theta=np.zeros((2, 2)), vartheta=np.zeros((2, 2)))


def test_normalization_and_grad():
    assert normalization([1.0, 2.0], 0.5) == 3.5
    assert normalization([1.0, 2.0], 0.0) == 1.0
    assert np.array_equal(grad_L([1.0, 2.0], 1.0, [1.0, 1.0]), [2.0, 4.0])


def test_grad_scales_linearly_in_error():
    rng = np.random.default_rng(2)
    for _ in range(50):
        phi = rng.uniform(-2, 2, 3)
        theta_star = rng.uniform(-1, 1, 3)
        y = float(phi @ theta_star)
        v = rng.uniform(-1, 1, 3)
        c = float(rng.uniform(-3, 3))
        a = grad_L(phi, y, theta_star + c * v)
        b = grad_L(phi, y, theta_star + v)
        assert np.allclose(a, c * b, atol=1e-12)


def test_hand_values_every_kind():
    signal, buffer, gains = scalar_setup()
    state = TunerState(theta=np.array([2.0]), vartheta=np.array([1.5]))
    # at theta = 2: e_y = 2, grad = 4, N_t = 2, B(theta, 0) = 1, B(theta, mu) = 0.8
    expected = {
        SystemKind.BASIC: (-4.0, 0.0),
        SystemKind.BASIC_CL: (-2.5, 0.0),
        SystemKind.BASIC_NORMALIZED: (-1.0, 0.0),
        SystemKind.BASIC_NORMALIZED_CL: (-1.4, 0.0),
        SystemKind.HT: (-2.0, -2.0),
        SystemKind.HT_NORMALIZED: (-1.0, -1.0),
        SystemKind.HT_CL: (-2.0, -2.8),
        SystemKind.HT_NORMALIZED_CL: (-1.0, -1.4),
        SystemKind.HT_B: (-1.0, -0.4),
    }
    for kind, (dt, dv) in expected.items():
        got_t, got_v = rhs(kind, state, 0.0, signal, buffer, gains)
        assert abs(got_t[0] - dt) < 1e-12, kind
        assert abs(got_v[0] - dv) < 1e-12, kind


def test_softreset_inactive_matches_base():
    """Nonpositive indicator: the switched pull vanishes and the base field returns."""
    signal, buffer, gains = scalar_setup()
    state = TunerState(theta=np.array([2.0]), vartheta=np.array([1.5]))
    assert indicator(SystemKind.HT_CL_SOFTRESET, state, 0.0, signal, gains) == -2.0
    assert indicator(SystemKind.HT_NORMALIZED_CL_SOFTRESET, state, 0.0, signal, gains) == -1.0
    for soft, base in (
        (SystemKind.HT_CL_SOFTRESET, SystemKind.HT_CL),
        (SystemKind.HT_NORMALIZED_CL_SOFTRESET, SystemKind.HT_NORMALIZED_CL),
    ):
        got = rhs(soft, state, 0.0, signal, buffer, gains)
        want = rhs(base, state, 0.0, signal, buffer, gains)
        assert np.array_equal(got[0], want[0])
        assert np.array_equal(got[1], want[1])


def test_softreset_active_hand_values():
    signal, buffer, gains = scalar_setup()
    state = TunerState(theta=np.array([2.0]), vartheta=np.array([3.0]))
    assert indicator(SystemKind.HT_CL_SOFTRESET, state, 0.0, signal, gains) == 4.0
    got_t, got_v = rhs(SystemKind.HT_CL_SOFTRESET, state, 0.0, signal, buffer, gains)
    # base theta row 4 plus pull 2 * beta_r * (vartheta - theta) * N_t = 12
    assert abs(got_t[0] - 16.0) < 1e-12
    assert abs(got_v[0] + 2.8) < 1e-12
    got_t, got_v = rhs(
        SystemKind.HT_NORMALIZED_CL_SOFTRESET, state, 0.0, signal, buffer, gains
    )
    assert abs(got_t[0] - 8.0) < 1e-12
    assert abs(got_v[0] + 1.4) < 1e-12


def test_softreset_active_raises_theta_gain():
    """When the pull is on, the theta row behaves as if beta were beta + 2 beta_r."""
    sig = RegressorSignal([1, 0], [1, 2], [1, 3], [0, 1], [0.5, -0.5])
    buffer = DataBuffer.from_samples(
        [phi_at(sig, 0.0), phi_at(sig, 1.0)], [eval_at(sig, 0.0)[1], eval_at(sig, 1.0)[1]]
    )
    gains = Gains(beta=1.5, gamma=0.2, mu=0.3, beta_r=2.0)
    boosted = Gains(beta=1.5 + 2.0 * 2.0, gamma=0.2, mu=0.3, beta_r=0.0)
    rng = np.random.default_rng(4)
    checked = 0
    for _ in range(200):
        state = TunerState(theta=rng.uniform(-3, 3, 2), vartheta=rng.uniform(-3, 3, 2))
        t = float(rng.uniform(0, 10))
        if indicator(SystemKind.HT_CL_SOFTRESET, state, t, sig, gains) <= 0.0:
            continue
        checked += 1
        got = rhs(SystemKind.HT_CL_SOFTRESET, state, t, sig, buffer, gains)
        want_theta = rhs(SystemKind.HT_CL, state, t, sig, buffer, boosted)[0]
        want_vartheta = rhs(SystemKind.HT_CL, state, t, sig, buffer, gains)[1]
        assert np.allclose(got[0], want_theta, atol=1e-12)
        assert np.allclose(got[1], want_vartheta, atol=1e-12)
    assert checked > 20


def test_dispatch_and_guards():
    """Each soft-reset row of the kind table is its base row plus the reset."""
    signal, buffer, gains = scalar_setup()
    no_pull = Gains(beta=gains.beta, gamma=gains.gamma, mu=gains.mu, beta_r=0.0)
    state = TunerState(theta=np.array([2.0]), vartheta=np.array([3.0]))  # pull on
    for soft, base in (
        (SystemKind.HT_CL_SOFTRESET, SystemKind.HT_CL),
        (SystemKind.HT_NORMALIZED_CL_SOFTRESET, SystemKind.HT_NORMALIZED_CL),
    ):
        assert KINDS[soft].reset and not KINDS[base].reset
        assert {**vars(KINDS[soft]), "reset": False} == vars(KINDS[base])
        got = rhs(soft, state, 0.3, signal, buffer, no_pull)
        want = rhs(base, state, 0.3, signal, buffer, no_pull)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


def test_buffer_kinds_require_data():
    signal, _, gains = scalar_setup()
    state = TunerState.from_theta0([0.0])
    empty = DataBuffer.empty()
    for kind in (SystemKind.BASIC_CL, SystemKind.HT_CL, SystemKind.HT_B):
        with pytest.raises(ValueError, match="nonempty data buffer"):
            rhs(kind, state, 0.0, signal, None, gains)
        with pytest.raises(ValueError, match="nonempty data buffer"):
            rhs(kind, state, 0.0, signal, empty, gains)
    # non-buffer kinds never touch it
    out = rhs(SystemKind.HT, state, 0.0, signal, None, gains)
    assert out[0].shape == (1,)


def test_compile_field_refuses_dimension_zero():
    with pytest.raises(ValueError, match=r"dimension must be at least 1 \(got 0\)"):
        compile_field(SystemKind.HT, Gains(beta=1.0, gamma=0.1, mu=0.2), 0)


def test_normalized_pairs_differ_by_n_t():
    sig = RegressorSignal([1, 1, 1], [0, 3, 3], [0, 1, 1], [0, 0, PI / 2],
                          [2.0, -1.0, 0.5])
    gains = Gains(beta=1.0, gamma=0.1, mu=0.2)
    rng = np.random.default_rng(9)
    for _ in range(50):
        state = TunerState(theta=rng.uniform(-4, 4, 3), vartheta=rng.uniform(-4, 4, 3))
        t = float(rng.uniform(0, 10))
        nt = normalization(phi_at(sig, t), gains.mu)
        ht = rhs(SystemKind.HT, state, t, sig, None, gains)
        htn = rhs(SystemKind.HT_NORMALIZED, state, t, sig, None, gains)
        assert np.allclose(ht[0], nt * htn[0], atol=1e-10)
        assert np.allclose(htn[1], ht[1] / nt, atol=1e-10)


def test_cl_correction_is_additive():
    """ht_cl differs from ht only by the recorded-data drive on the companion row."""
    sig = RegressorSignal([1, 1, 1], [0, 3, 3], [0, 1, 1], [0, 0, PI / 2],
                          [2.0, -1.0, 0.5])
    phis = [phi_at(sig, t) for t in (0.0, 1.0, 2.2)]
    buffer = DataBuffer.from_samples(phis, [float(p @ sig.theta_star) for p in phis])
    gains = Gains(beta=1.0, gamma=0.1, mu=0.2)
    rng = np.random.default_rng(13)
    for _ in range(50):
        state = TunerState(theta=rng.uniform(-4, 4, 3), vartheta=rng.uniform(-4, 4, 3))
        t = float(rng.uniform(0, 10))
        plain = rhs(SystemKind.HT, state, t, sig, None, gains)
        with_cl = rhs(SystemKind.HT_CL, state, t, sig, buffer, gains)
        nt = normalization(phi_at(sig, t), gains.mu)
        correction = data_term(data_aggregates(buffer, gains.mu), state.theta)
        assert np.array_equal(plain[0], with_cl[0])
        assert np.allclose(with_cl[1] - plain[1], -gains.gamma * nt * correction,
                           atol=1e-10)


@st.composite
def equilibrium_cases(draw):
    """A sinusoid-mix signal, gains, a time and 1-6 samples consistent with theta*."""
    n = draw(st.integers(1, 5))

    def vec(lo, hi):
        return np.array(draw(st.lists(st.floats(lo, hi), min_size=n, max_size=n)))

    signal = RegressorSignal(vec(-2, 2), vec(0, 3), vec(0, 5), vec(0, 2 * PI),
                             vec(-3, 3))
    gains = Gains(beta=draw(st.floats(0.1, 5.0)), gamma=draw(st.floats(0.01, 2.0)),
                  mu=draw(st.floats(0.0, 2.0)), beta_r=draw(st.floats(0.0, 5.0)))
    times = np.cumsum(draw(st.lists(st.floats(0.05, 3.0), min_size=1, max_size=6)))
    phis, y_stars = signal.eval_grid(times)
    buffer = DataBuffer.from_samples(phis, y_stars, times=times)
    return signal, gains, buffer, draw(st.floats(0.0, 20.0))


@settings(derandomize=True, deadline=None, max_examples=200)
@given(equilibrium_cases())
def test_compiled_field_vanishes_at_equilibrium(case):
    """theta = vartheta = theta* is an equilibrium of every kind.

    Without data the zero is exact. The data term's matrix-vector products
    round differently from the per-sample dots that made y*_k, so there the
    field is zero up to 1e-12 of the size of its terms.
    """
    signal, gains, buffer, t = case
    phi, y_star = eval_at(signal, t)
    nt = normalization(phi, gains.mu)
    star = signal.theta_star
    n = star.shape[0]
    for kind in SystemKind:
        spec = KINDS[kind]
        data = None
        if kind in BUFFER_KINDS:
            data = data_aggregates(buffer, gains.mu if spec.data_mu else 0.0)
        d_theta, d_vartheta = np.full(n, np.nan), np.full(n, np.nan)
        compile_field(kind, gains, n)(star[None], star[None].copy(), phi, y_star, nt, data,
                                      d_theta[None], d_vartheta[None])
        # A baseline kind has no dvartheta: it leaves that output unwritten.
        if np.isnan(d_vartheta).all():
            d_vartheta = None
        assert (d_vartheta is None) == (kind in BASELINE_KINDS)
        derivative = np.concatenate((d_theta, [] if d_vartheta is None else d_vartheta))
        if data is None:
            assert not derivative.any(), kind
        else:
            phi_mat, _, weights = data
            terms = (weights * (phi_mat**2).sum(axis=0)).sum() * np.abs(star).sum()
            scale = max(1.0, gains.gamma) * nt * terms
            assert np.abs(derivative).max() <= 1e-12 * scale, kind


@st.composite
def field_cases(draw):
    """A sinusoid-mix signal, gains, a time, a state and an optional buffer of 1-6 samples."""
    n = draw(st.integers(1, 5))

    def vec(lo, hi):
        return np.array(draw(st.lists(st.floats(lo, hi), min_size=n, max_size=n)))

    signal = RegressorSignal(vec(-2, 2), vec(0, 3), vec(0, 5), vec(0, 2 * PI),
                             vec(-3, 3))
    gains = Gains(beta=draw(st.floats(0.1, 5.0)), gamma=draw(st.floats(0.01, 2.0)),
                  mu=draw(st.floats(0.0, 2.0)),
                  beta_r=draw(st.one_of(st.just(0.0), st.floats(0.0, 5.0))))
    buffer = None
    if draw(st.booleans()):
        times = np.cumsum(draw(st.lists(st.floats(0.05, 3.0), min_size=1, max_size=6)))
        phis, _ = signal.eval_grid(times)
        y_stars = np.array(draw(st.lists(st.floats(-5, 5), min_size=len(times),
                                         max_size=len(times))))
        buffer = DataBuffer.from_samples(phis, y_stars, times=times)
    state = TunerState(vec(-5, 5), vec(-5, 5))
    return signal, gains, buffer, state, draw(st.floats(0.0, 20.0))


def bits(*arrays):
    return [np.asarray(a).tobytes() for a in arrays]


@settings(derandomize=True, deadline=None, max_examples=150)
@given(field_cases())
def test_compiled_field_writes_rhs_bits_in_place(case):
    """The closure on a one-row batch writes what rhs returns, bit for bit, and only
    into its outputs.

    It leaves theta, vartheta, phi and the data aggregates as they were, and
    a baseline kind leaves dvartheta unwritten. A second call into other
    outputs leaves the first outputs alone and writes what a freshly compiled
    field writes, so no scratch carries over between calls. rhs returns fresh
    arrays on every call.
    """
    signal, gains, buffer, state, t = case
    n = state.theta.shape[0]
    phi, y_star = eval_at(signal, t)
    nt = normalization(phi, gains.mu)
    theta, vartheta = state.theta[None], state.vartheta[None]
    swapped = (vartheta, theta, phi, y_star, nt)
    for kind in SystemKind:
        field = compile_field(kind, gains, n)
        data = _data_for(kind, buffer, gains)
        out = np.full((1, n), np.nan), np.full((1, n), np.nan)
        if kind in BUFFER_KINDS and data is None:
            with pytest.raises(ValueError, match="nonempty data buffer"):
                rhs(kind, state, t, signal, buffer, gains)
            with pytest.raises(ValueError, match="nonempty data buffer"):
                field(theta, vartheta, phi, y_star, nt, data, *out)
            continue
        inputs = (theta, vartheta, phi) + (() if data is None else data)
        before = bits(*inputs)
        field(theta, vartheta, phi, y_star, nt, data, *out)
        assert bits(*inputs) == before, kind
        want = rhs(kind, state, t, signal, buffer, gains)
        assert bits(out[0][0]) == bits(want[0]), kind
        if kind in BASELINE_KINDS:
            assert np.isnan(out[1]).all() and not want[1].any(), kind
        else:
            assert bits(out[1][0]) == bits(want[1]), kind

        first = bits(*out)
        other = np.full((1, n), np.nan), np.full((1, n), np.nan)
        field(*swapped, data, *other)
        assert bits(*out) == first, kind
        fresh = np.full((1, n), np.nan), np.full((1, n), np.nan)
        compile_field(kind, gains, n)(*swapped, data, *fresh)
        assert bits(*other) == bits(*fresh), kind

        again = rhs(kind, state, t, signal, buffer, gains)
        assert bits(*again) == bits(*want), kind
        arrays = [*want, *again, theta, vartheta, phi]
        for i, a in enumerate(arrays):
            for b in arrays[i + 1:]:
                assert not np.shares_memory(a, b), kind


@st.composite
def batch_cases(draw):
    """Gains, a signal, an optional buffer of up to 200 samples and B states around the switch.

    phi is one shared row (with scalar y* and N_t) or one row per state (with
    (B, 1) columns). Every other state is put on the side of the soft-reset
    switch where the pull is on (vartheta - theta along the loss gradient),
    the rest on the other side, with one state on the switching surface.
    """
    n = draw(st.integers(1, 5))
    rows = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    signal = RegressorSignal(rng.uniform(-2, 2, n), rng.uniform(0, 3, n),
                             rng.uniform(0, 5, n), rng.uniform(0, 2 * PI, n),
                             rng.uniform(-3, 3, n))
    gains = Gains(beta=draw(st.floats(0.1, 5.0)), gamma=draw(st.floats(0.01, 2.0)),
                  mu=draw(st.floats(0.0, 2.0)),
                  beta_r=draw(st.one_of(st.just(0.0), st.floats(0.01, 5.0))))
    buffer = None
    count = draw(st.one_of(st.just(0), st.integers(1, 200)))
    if count:
        times = np.cumsum(rng.uniform(0.05, 1.0, count))
        phis, _ = signal.eval_grid(times)
        buffer = DataBuffer.from_samples(phis, rng.uniform(-5, 5, count), times=times)
    shared = draw(st.booleans())
    times = np.full(rows, rng.uniform(0, 20)) if shared else rng.uniform(0, 20, rows)
    phi, y_star = signal.eval_grid(times)
    theta = rng.uniform(-5, 5, (rows, n))
    grad = phi * (row_dots(phi, theta) - y_star)[:, None]
    side = np.where(np.arange(rows) % 2 == 0, 1.0, -1.0) * rng.uniform(0.1, 2.0, rows)
    vartheta = theta + side[:, None] * grad + rng.uniform(-1e-3, 1e-3, (rows, n))
    vartheta[-1] = theta[-1]
    nt = 1.0 + gains.mu * row_dots(phi, phi)
    if shared:
        return signal, gains, buffer, theta, vartheta, phi[0], y_star[0], nt[0]
    return signal, gains, buffer, theta, vartheta, phi, y_star[:, None], nt[:, None]


@settings(derandomize=True, deadline=None, max_examples=150)
@given(batch_cases())
def test_batched_field_rows_equal_the_scalar_closure(case):
    """Row b of the batched closure is the scalar reference closure at row b, bit for bit.

    Both leave their inputs as they were, and a baseline kind leaves
    dvartheta unwritten in both.
    """
    signal, gains, buffer, theta, vartheta, phi, y_star, nt = case
    rows, n = theta.shape
    shared = phi.ndim == 1
    for kind in SystemKind:
        data = _data_for(kind, buffer, gains)
        batched = compile_field(kind, gains, n)
        scalar = reference_field(kind, gains, n)
        out = np.full((rows, n), np.nan), np.full((rows, n), np.nan)
        if kind in BUFFER_KINDS and data is None:
            with pytest.raises(ValueError, match="nonempty data buffer"):
                batched(theta, vartheta, phi, y_star, nt, data, *out)
            continue
        inputs = (theta, vartheta, phi, y_star, nt) + (() if data is None else data)
        before = bits(*inputs)
        batched(theta, vartheta, phi, y_star, nt, data, *out)
        assert bits(*inputs) == before, kind
        for b in range(rows):
            want = np.full(n, np.nan), np.full(n, np.nan)
            row = (phi, float(y_star), float(nt)) if shared else (
                phi[b], float(y_star[b, 0]), float(nt[b, 0]))
            scalar(theta[b], vartheta[b], *row, data, *want)
            assert bits(out[0][b], out[1][b]) == bits(*want), (kind, b)
        assert bits(*inputs) == before, kind
