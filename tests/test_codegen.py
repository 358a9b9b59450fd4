"""The generated fields and Euler loops against the numpy closure they replace.

oracles.reference_field is each kind's field as numpy operations on whole
vectors. The package emits straight-line Python for the same operations
(dynamics._field_lines) in two generated forms, the Euler loop
(dynamics._compile_loop, which reads one row of phi, y* and N_t per step)
and the batched field (compile_field); both must reproduce the reference bit
for bit, signs of zeros included, on every kind, dimension, output
decimation and buffer mode. A loop of several kinds, which stacks their
numpy calls, must give each kind the bytes of its one-kind loop.
"""

import ast
import builtins
import itertools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hotuner import (
    BASELINE_KINDS,
    BUFFER_KINDS,
    SOFT_RESET_KINDS,
    DataBuffer,
    Gains,
    RegressorSignal,
    SignalGrid,
    SimConfig,
    SystemKind,
    TunerState,
    buffer_csv,
    compile_field,
    simulate,
    simulate_with_buffer,
)
from hotuner.cli import bundled_scenario_path, load_scenario
from hotuner.dynamics import (
    _GENERATED_NAMES,
    _OWN_NAMES,
    _ROW_BLOCK,
    KINDS,
    _data_for,
    _field_lines,
    _field_maker,
    _loop_maker,
    _stack_order,
)
from hotuner.integrator import _run, _simulate_kinds
from oracles import reference_field, reference_rows

PI = np.pi
# (epsilon, N_bar) of online recording, or None for a prefilled buffer; the
# buffer modes of test_kernel.py.
BUFFER_MODES = {"freezing": (1.0, 6), "growing": (0.05, 1000), "prefilled": None}


def bits(*arrays):
    return [np.asarray(a, dtype=float).tobytes() for a in arrays]


def draw_gains(draw):
    return Gains(beta=draw(st.floats(0.1, 5.0)), gamma=draw(st.floats(0.01, 2.0)),
                 mu=draw(st.floats(0.0, 2.0)),
                 beta_r=draw(st.one_of(st.just(0.0), st.floats(0.01, 5.0))))


def draw_signal(n, rng):
    return RegressorSignal(rng.uniform(-2, 2, n), rng.uniform(0, 3, n),
                           rng.uniform(0, 5, n), rng.uniform(0, 2 * PI, n),
                           rng.uniform(-3, 3, n))


@st.composite
def loop_cases(draw):
    """A seed for the signals and initial states, gains and the distance of
    vartheta_0 from theta_0."""
    return (draw(st.integers(0, 2**32 - 1)), draw_gains(draw),
            draw(st.sampled_from([0.0, 1e-3, 1.0])))


@pytest.mark.parametrize("mode", list(BUFFER_MODES))
@pytest.mark.parametrize("kind", list(SystemKind), ids=lambda k: k.value)
@settings(derandomize=True, deadline=None, max_examples=3)
@given(loop_cases())
def test_generated_loop_rows_equal_the_reference_stepper(kind, mode, case):
    """Every row, at every dimension 1-4 and record_every 1, 7 and 100, for no
    step, for 256 and for 300 steps, and at n = 3 and record_every 7 for
    _ROW_BLOCK + 44 steps, which cross into a second block of input rows."""
    seed, gains, spread = case
    rng = np.random.default_rng(seed)
    for n, every, steps in [*itertools.product([1, 2, 3, 4], [1, 7, 100], [0, 256, 300]),
                            (3, 7, _ROW_BLOCK + 44)]:
        signal = draw_signal(n, rng)
        sim = SimConfig(t_end=steps * 1e-3, record_every=every)
        theta0 = rng.uniform(-5, 5, n)
        init = TunerState(theta0, theta0 + spread * rng.normal(size=n))
        grid = SignalGrid(signal, sim)
        policy = BUFFER_MODES[mode]
        if policy is None:
            times = [0.01, 0.2, 0.45, 0.9, 1.3][:n + 1]
            phis, y_stars = signal.eval_grid(np.array(times))
            buffer = DataBuffer.from_samples(phis, y_stars, times=times)
            trajectory = simulate_with_buffer(kind, signal, gains, sim, init, buffer)
            keeps = []
        else:
            epsilon, n_bar = policy
            trajectory, buffer = simulate(kind, signal, gains, sim, init,
                                          epsilon=epsilon, N_bar=max(n_bar, n))
            keeps = grid.schedule(max(n_bar, n), epsilon)[0] if kind in BUFFER_KINDS else []
        theta, vartheta = reference_rows(kind, gains, grid, every, init, buffer, keeps)
        assert bits(trajectory.theta, trajectory.vartheta) == bits(theta, vartheta), \
            (n, every, steps)


@pytest.mark.parametrize("every", [1, 2])
@pytest.mark.parametrize("kind", sorted(SOFT_RESET_KINDS), ids=lambda k: k.value)
def test_a_pass_stopped_by_a_numpy_overflow_replays_to_the_reference_rows(kind, every):
    """On fig1 from theta0 = (1e160, 0, 0) the soft-reset indicator overflows inside
    numpy while the state stays finite. The fast pass runs on through it with
    numpy's warnings off and ends finite, so its rows stand, bit for bit, without
    a divergence or a warning."""
    scenario = load_scenario(bundled_scenario_path("fig1"))
    sim = SimConfig(t_end=0.005, step_h=scenario.sim.step_h, record_every=every)
    init = TunerState.from_theta0([1e160, 0.0, 0.0])
    grid = SignalGrid(scenario.signal, sim)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        trajectory, buffer = simulate(kind, scenario.signal, scenario.gains, sim, init,
                                      epsilon=scenario.cl_epsilon, N_bar=scenario.cl_N_bar)
    keeps = grid.schedule(scenario.cl_N_bar, scenario.cl_epsilon)[0]
    inputs = (kind, scenario.gains, grid, every, init, buffer, keeps)
    with pytest.raises(FloatingPointError), np.errstate(over="raise"):
        reference_rows(*inputs)
    with np.errstate(all="ignore"):
        theta, vartheta = reference_rows(*inputs)
    assert np.isfinite(theta).all() and np.isfinite(vartheta).all()
    assert bits(trajectory.theta, trajectory.vartheta) == bits(theta, vartheta)
    assert [str(w.message) for w in caught] == []


@st.composite
def point_cases(draw):
    """A state, phi, y*, N_t and optional data, with exact zeros and equal components
    mixed in so that signed zeros and the soft-reset switching surface occur."""
    n = draw(st.sampled_from([1, 2, 3, 4, 6]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = draw(st.integers(1, 9))

    def values(shape, scale):
        out = rng.uniform(-scale, scale, shape)
        special = rng.integers(0, 4, shape)
        out[special == 0] = 0.0
        out[special == 1] = -0.0
        return out

    theta = values((rows, n), 5.0)
    vartheta = np.where(rng.integers(0, 3, (rows, n)) == 0, theta, values((rows, n), 5.0))
    phi = values((rows, n), 3.0)
    y_star = values(rows, 4.0)
    gains = draw_gains(draw)
    nt = 1.0 + gains.mu * np.einsum("ri,ri->r", phi, phi)
    buffer = None
    count = draw(st.integers(0, 12))
    if count:
        buffer = DataBuffer.from_samples(values((count, n), 3.0), values(count, 4.0),
                                         times=np.arange(count, dtype=float))
    return gains, buffer, theta, vartheta, phi, y_star, nt


@settings(derandomize=True, deadline=None, max_examples=150)
@given(point_cases())
def test_generated_fields_equal_the_reference_closure(case):
    """The field on each row as a one-row batch writes the bits of the reference's
    single point, and on all rows (with one phi per row and with one shared phi)
    those of the batched reference."""
    gains, buffer, theta, vartheta, phi, y_star, nt = case
    rows, n = theta.shape
    for kind in SystemKind:
        data = _data_for(kind, buffer, gains)
        batched, point = compile_field(kind, gains, n), reference_field(kind, gains, n)
        if kind in BUFFER_KINDS and data is None:
            with pytest.raises(ValueError, match="nonempty data buffer"):
                batched(theta[:1], vartheta[:1], phi[0], y_star[0], nt[0], data,
                        np.empty((1, n)), np.empty((1, n)))
            with pytest.raises(ValueError, match="nonempty data buffer"):
                point(theta[0], vartheta[0], phi[0], y_star[0], nt[0], data,
                      np.empty(n), np.empty(n))
            continue
        for b in range(rows):
            got, want = np.full((2, 1, n), np.nan), np.full((2, n), np.nan)
            inputs = (phi[b], float(y_star[b]), float(nt[b]), data)
            batched(theta[b:b + 1], vartheta[b:b + 1], *inputs, *got)
            point(theta[b], vartheta[b], *inputs, *want)
            assert bits(got) == bits(want), (kind, b)
        reference = reference_field(kind, gains, n, batched=True)
        for shared in (False, True):
            args = ((phi[0], float(y_star[0]), float(nt[0])) if shared
                    else (phi, y_star[:, None], nt[:, None]))
            got, want = np.full((2, rows, n), np.nan), np.full((2, rows, n), np.nan)
            batched(theta, vartheta, *args, data, *got)
            reference(theta, vartheta, *args, data, *want)
            assert bits(got) == bits(want), (kind, shared)
            # A baseline kind leaves dvartheta unwritten in both.
            assert np.isnan(got[1]).all() == (kind in BASELINE_KINDS)


def test_generated_source_is_the_same_for_any_gains(monkeypatch):
    """No gain value is written into generated code: it reaches the code as an
    argument, so two gain sets compile the same source text."""
    signal = RegressorSignal([1, 1], [0, 3], [0, 1], [0, 1.0], [2.0, -1.0])
    sim = SimConfig(t_end=0.05)
    init = TunerState.from_theta0([0.5, -1.0])
    real_compile = builtins.compile

    def sources(gains):
        seen = []

        def recording_compile(source, filename, *args, **kwargs):
            if filename.startswith("<hotuner"):
                seen.append((filename, source))
            return real_compile(source, filename, *args, **kwargs)

        _field_maker.cache_clear()
        _loop_maker.cache_clear()
        with monkeypatch.context() as patch:
            patch.setattr(builtins, "compile", recording_compile)
            for kind in SystemKind:
                simulate(kind, signal, gains, sim, init, epsilon=0.5, N_bar=4)
                compile_field(kind, gains, 2)
        return seen

    first = sources(Gains(beta=1.0, gamma=0.1, mu=0.2, beta_r=4.0))
    second = sources(Gains(beta=3.5, gamma=0.7, mu=0.0, beta_r=0.0))
    assert len(first) == 2 * len(SystemKind)
    assert first == second


@st.composite
def pass_cases(draw):
    """Kinds in any order, a dimension, an output decimation and a buffer mode."""
    kinds = draw(st.lists(st.sampled_from(list(SystemKind)), min_size=1, unique=True))
    return (kinds, draw(st.sampled_from([1, 2, 3])), draw(st.sampled_from([1, 7, 100])),
            draw(st.sampled_from(list(BUFFER_MODES))), draw(loop_cases()))


@settings(derandomize=True, deadline=None, max_examples=60)
@given(pass_cases())
def test_one_pass_gives_every_kind_the_bytes_of_its_own_run(case):
    """One pass over several kinds, whatever their order, number and mix of data
    terms and loss gradients, writes each kind's CSV and buffer as its one-kind
    run does, on 300 steps, and at n = 3 and record_every 7 on _ROW_BLOCK + 44
    steps, which cross into a second block of input rows."""
    kinds, n, every, mode, (seed, gains, spread) = case
    rng = np.random.default_rng(seed)
    signal = draw_signal(n, rng)
    steps = _ROW_BLOCK + 44 if (n, every) == (3, 7) else 300
    sim = SimConfig(t_end=steps * 1e-3, record_every=every)
    theta0 = rng.uniform(-5, 5, n)
    init = TunerState(theta0, theta0 + spread * rng.normal(size=n))
    policy = BUFFER_MODES[mode]
    if policy is None:
        times = [0.01, 0.2, 0.45, 0.9, 1.3][:n + 1]
        buffer = DataBuffer.from_samples(*signal.eval_grid(np.array(times)), times=times)
        together = [(trajectory, buffer) for trajectory in
                    _run(tuple(kinds), SignalGrid(signal, sim), gains, every, init, buffer, [])]
        alone = [(simulate_with_buffer(kind, signal, gains, sim, init, buffer), buffer)
                 for kind in kinds]
    else:
        epsilon, n_bar = policy
        together = list(_simulate_kinds(tuple(kinds), SignalGrid(signal, sim), gains, every,
                                        init, epsilon, max(n_bar, n)))
        alone = [simulate(kind, signal, gains, sim, init, epsilon=epsilon,
                          N_bar=max(n_bar, n)) for kind in kinds]
    for kind, (got, got_buffer), (want, want_buffer) in zip(kinds, together, alone):
        same = got.to_csv() == want.to_csv()  # not in the assert: a text diff is slow
        assert same, kind
        assert buffer_csv(got_buffer) == buffer_csv(want_buffer), kind


def loop_names(kinds, n):
    """The global names that the generated Euler loop of kinds refers to."""
    make = _loop_maker(_stack_order(kinds), n)
    (advance,) = [code for code in make.__code__.co_consts if hasattr(code, "co_names")]
    return advance.co_names


def test_only_a_loop_of_several_kinds_stacks_numpy_calls():
    """A one-kind loop makes the 1-d calls of its field, so a kind run alone is no
    slower for the stacks; fig1's five kinds in three dimensions stack both
    their phi . theta dots and their data terms."""
    for kind, n in itertools.product(SystemKind, [1, 2, 3, 4]):
        assert "_matmul" not in loop_names((kind,), n), (kind, n)
    fig1 = load_scenario(bundled_scenario_path("fig1"))
    assert "_matmul" in loop_names(fig1.systems, 3)
    assert "_matmul" not in loop_names(fig1.systems, 1)
    # Two dots and no data term stay 1-d calls.
    assert "_matmul" not in loop_names((SystemKind.HT, SystemKind.BASIC), 3)


def test_a_loop_suffixes_every_name_of_a_field_but_the_shared_ones():
    """In a loop of several kinds, each kind's field writes the names that
    _OWN_NAMES matches with the kind's index as a suffix. Every other name of
    the point form must be one that the loop shares between kinds: a helper of
    _GENERATED_NAMES, phi's components, y*, N_t, the scratch arrays or a
    builtin. A local that the pattern misses would be read and written by
    every kind of the loop."""
    for kind, n, stacked_dot, stacked_data in itertools.product(
            SystemKind, [1, 2, 3, 4], [False, True], [False, True]):
        lines = _field_lines(KINDS[kind], n, False, stacked_dot, stacked_data)
        shared = {*_GENERATED_NAMES, *(f"p{i}" for i in range(n)), "y", "nt",
                  "_ph", "_m", "_lo", "_hi", *dir(builtins)}
        names = {node.id for node in ast.walk(ast.parse("\n".join(lines)))
                 if isinstance(node, ast.Name)}
        stray = sorted(name for name in names
                       if name not in shared and not _OWN_NAMES.fullmatch(name))
        assert not stray, (kind, n, stacked_dot, stacked_data)
