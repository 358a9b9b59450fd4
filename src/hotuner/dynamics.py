"""Right-hand sides of the tuner family.

State is the pair x = (theta, vartheta) of the parameter estimate and its
auxiliary companion. Baseline gradient systems evolve theta only and carry
vartheta as a constant. High-order systems couple the two through the
normalization signal N_t = 1 + mu |phi(t)|^2; concurrent-learning variants add
the recorded-data correction B from the buffer; soft-reset variants add a
state-dependent pull of theta toward vartheta that switches on when the two
disagree about the descent direction.

Each kind's field is emitted from its row of KINDS (_field_lines) in two
generated forms: compile_field on a batch of states, and _compile_loop, the
Euler loop with the field in its body.
"""

from __future__ import annotations

import functools
import math
import operator
import re
from array import array
from collections.abc import Callable
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .databuffer import DataAggregates, DataBuffer, data_aggregates
from .signals import row_dots

__all__ = [
    "BASELINE_KINDS",
    "BUFFER_KINDS",
    "Gains",
    "HIGH_ORDER_KINDS",
    "KINDS",
    "POINTWISE_KINDS",
    "RATE_CONDITION_KINDS",
    "SOFT_RESET_KINDS",
    "SystemKind",
    "TunerState",
    "compile_field",
]


class SystemKind(str, Enum):
    """Vocabulary of tuner right-hand sides."""

    BASIC = "basic"
    BASIC_CL = "basic_cl"
    BASIC_NORMALIZED = "basic_normalized"
    BASIC_NORMALIZED_CL = "basic_normalized_cl"
    HT = "ht"
    HT_NORMALIZED = "ht_normalized"
    HT_CL = "ht_cl"
    HT_NORMALIZED_CL = "ht_normalized_cl"
    HT_B = "ht_b"
    HT_CL_SOFTRESET = "ht_cl_softreset"
    HT_NORMALIZED_CL_SOFTRESET = "ht_normalized_cl_softreset"


@dataclass(frozen=True)
class KindSpec:
    """How one kind assembles its field from the shared terms (see compile_field).

    The drive is -gain (grad + data) with the loss gradient grad and the
    recorded-data correction data, each scaled by N_t to the power given here
    (None: the term is absent). The gain is gamma, gamma / N_t with gain_nt,
    or 1 with unit_gain. Baseline kinds apply the drive to theta and keep
    vartheta constant. High-order kinds apply it to vartheta and pull theta
    toward vartheta at rate beta, times N_t with theta_nt. data_mu False
    weighs every recorded sample 1 instead of 1 / (1 + mu |phi_k|^2). reset
    adds the soft-reset pull on theta to the row of its base kind.
    """

    high_order: bool
    grad: int | None
    data: int | None
    theta_nt: bool = False
    gain_nt: bool = False
    unit_gain: bool = False
    data_mu: bool = True
    reset: bool = False


KINDS: dict[SystemKind, KindSpec] = {
    SystemKind.BASIC: KindSpec(False, grad=0, data=None, unit_gain=True),
    SystemKind.BASIC_CL: KindSpec(False, grad=0, data=0, data_mu=False),
    SystemKind.BASIC_NORMALIZED: KindSpec(False, grad=0, data=None, gain_nt=True),
    SystemKind.BASIC_NORMALIZED_CL: KindSpec(False, grad=-1, data=0),
    SystemKind.HT: KindSpec(True, grad=0, data=None, theta_nt=True),
    SystemKind.HT_NORMALIZED: KindSpec(True, grad=0, data=None, gain_nt=True),
    SystemKind.HT_CL: KindSpec(True, grad=0, data=1, theta_nt=True),
    SystemKind.HT_NORMALIZED_CL: KindSpec(True, grad=-1, data=0),
    SystemKind.HT_B: KindSpec(True, grad=None, data=0),
    SystemKind.HT_CL_SOFTRESET: KindSpec(True, grad=0, data=1, theta_nt=True, reset=True),
    SystemKind.HT_NORMALIZED_CL_SOFTRESET: KindSpec(True, grad=-1, data=0, reset=True),
}


def _kinds_where(test) -> frozenset[SystemKind]:
    return frozenset(kind for kind, spec in KINDS.items() if test(spec))


BASELINE_KINDS = _kinds_where(lambda s: not s.high_order)
HIGH_ORDER_KINDS = _kinds_where(lambda s: s.high_order)
SOFT_RESET_KINDS = _kinds_where(lambda s: s.reset)
# Kinds whose right-hand side reads the data buffer.
BUFFER_KINDS = _kinds_where(lambda s: s.data is not None)
# Kinds whose decrease certificates assume beta >= 2 gamma / mu.
RATE_CONDITION_KINDS = _kinds_where(lambda s: s.high_order and s.grad is not None)
# Kinds with a pointwise decrease bound on their energy.
POINTWISE_KINDS = _kinds_where(lambda s: s.high_order and not s.reset)


@dataclass(frozen=True)
class Gains:
    """Gain set (beta, gamma, mu, beta_r) shared by the whole family.

    rate_condition_ok records whether beta >= 2 gamma / mu holds; the decrease
    certificates of the high-order kinds are only proven under that condition,
    but simulation is permitted either way.
    """

    beta: float
    gamma: float
    mu: float
    beta_r: float = 0.0

    def __post_init__(self) -> None:
        for name in ("beta", "gamma", "mu", "beta_r"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite (got {getattr(self, name)!r})")
        if self.beta <= 0.0:
            raise ValueError("beta must be positive")
        if self.gamma <= 0.0:
            raise ValueError("gamma must be positive")
        if self.mu < 0.0:
            raise ValueError("mu must be nonnegative")
        if self.beta_r < 0.0:
            raise ValueError("beta_r must be nonnegative")

    @property
    def rate_condition_ok(self) -> bool:
        return self.mu > 0.0 and self.beta >= 2.0 * self.gamma / self.mu


@dataclass
class TunerState:
    """Estimate theta and companion vartheta, same dimension."""

    theta: np.ndarray
    vartheta: np.ndarray

    def __post_init__(self) -> None:
        self.theta = np.asarray(self.theta, dtype=float)
        self.vartheta = np.asarray(self.vartheta, dtype=float)
        if self.theta.shape != self.vartheta.shape or self.theta.ndim != 1:
            raise ValueError("theta and vartheta must be 1-d vectors of equal length")

    @staticmethod
    def from_theta0(theta0) -> "TunerState":
        """Standard initialization: vartheta starts equal to theta."""
        theta0 = np.asarray(theta0, dtype=float)
        return TunerState(theta=theta0.copy(), vartheta=theta0.copy())


def _data_for(
    kind: SystemKind, buffer: DataBuffer | None, gains: Gains, count: int | None = None
) -> DataAggregates | None:
    """Aggregates of the buffer's first count samples (default: all) as the kind reads them.

    The data-term weights are 1 / (1 + mu |phi_k|^2), with mu = 0 for a kind
    whose spec has data_mu False. None if the kind reads no data or there is
    none to read.
    """
    spec = KINDS[kind]
    if spec.data is None or buffer is None or len(buffer) == 0 or count == 0:
        return None
    return data_aggregates(buffer, gains.mu if spec.data_mu else 0.0, count)


# The arguments of every generated make(...), which _field_arguments supplies.
_ARGUMENTS = ("gamma", "neg_gain", "neg_beta", "neg_pull", "pulls", "missing")


def _field_arguments(kind: SystemKind, gains: Gains) -> dict:
    """The values a generated field of kind takes as arguments (see _field_lines)."""
    spec = KINDS[kind]
    return {
        "gamma": gains.gamma,
        "neg_gain": -1.0 if spec.unit_gain else -gains.gamma,
        "neg_beta": -gains.beta,
        "neg_pull": -(2.0 * gains.beta_r),
        "pulls": spec.reset and gains.beta_r > 0.0,
        "missing": f"system '{kind.value}' requires a nonempty data buffer",
    }


def _names(prefix: str, n: int) -> str:
    """The components prefix0, ..., prefix{n-1} as a tuple target or display."""
    return ", ".join(f"{prefix}{i}" for i in range(n)) + ("," if n == 1 else "")


def _field_lines(spec: KindSpec, n: int, rows: bool, stacked_dot: bool = False,
                 stacked_data: bool = False) -> list[str]:
    """The field of one kind as straight-line Python on its n components.

    Component i of a vector x is the local x{i}: theta t, vartheta v, phi p,
    the loss gradient g, the data term c, the gap q = theta - vartheta, the
    drive's partial sums a and the outputs dt and dv; y is y*, nt is N_t and
    the gains are the arguments of _field_arguments. Each arithmetic operation
    is one IEEE operation, on the same operands, of the vector formula it
    unrolls (multiplication commutes exactly), so the bits match a computation
    on whole vectors. The drive is -gain (grad + data), built in the output it
    ends in; g keeps the loss gradient undivided for the reset indicator. An
    absent term is skipped rather than added as zero, and a soft-reset pull
    that is off (or has beta_r = 0, pulls false) is not added either, which
    keeps the sign of every zero component. The data term phi_mat (weights *
    (phi_mat' theta - y_vec)) reads data as _pm, _yv, _w; its residual _r is
    subtracted and weighted in place, with the formula's roundings.

    Three things differ between the two forms. The point form (rows false),
    in which the Euler loop is written, works on Python floats; its dot
    products and the data term's products go through numpy, whose rounding
    they must reproduce. phi . theta is a 1-d ndarray.dot of the loop's
    scratch arrays _ph, which holds phi, and _th, the kind's row of the
    loop's theta stack; the data term's products are ndarray.dot calls on
    _th, the matrix-vector calls of `@` with less overhead; the reset
    indicator packs its two vectors into the contiguous halves _lo and _hi
    of a 2n scratch array (through the memoryview _m). With stacked_dot or
    stacked_data the loop has already computed phi . theta into r, or the
    data term into c, for several kinds at once (see _loop_maker), and those
    lines are left out. The rows form, in which compile_field is written,
    works on (B,) columns of a batch: phi . theta is signals.row_dots of the
    (B, n) inputs, every other dot stacks its vectors into (B, n) arrays
    first, the data term's products are stacked matmuls, each row the point
    form's call, and the soft-reset pull is added through a row mask. In one
    dimension a dot is a product in both forms: ndarray.dot of length 1 is
    one multiplication, which keeps the sign of a zero, where row_dots and
    matmul add it to +0. So is the data term of one sample in the rows form.
    """
    def each(template: str) -> list[str]:
        return [template.format(i=i) for i in range(n)]

    # The three points where the forms differ: dots, the data term, the switch.
    def dot(name: str, a: str, b: str) -> list[str]:
        if n == 1:
            return [f"{name} = {a}0 * {b}0"]
        if rows:
            if (a, b) == ("p", "t"):
                return [f"{name} = _row_dots(theta, phi)"]
            return [f"{name} = _row_dots(_stack(({_names(b, n)}), 1), "
                    f"_stack(({_names(a, n)}), 1))"]
        if (a, b) == ("p", "t"):
            return [] if stacked_dot else [f"{name} = float(_dot(_ph, _th))"]
        return [*(f"_m[{offset + i}] = {x}{i}" for offset, x in ((0, a), (n, b))
                  for i in range(n)), f"{name} = float(_dot(_lo, _hi))"]

    if rows:
        residual = ("_r = (theta * _pm[0] if _pm.size == 1 else "
                    "_matmul(_pm.T[None], theta[:, :, None])[:, :, 0])")
        term = (f"{_names('c', n)} = (_r * _pm[0] if _pm.size == 1 else "
                "_matmul(_pm[None], _r[:, :, None])[:, :, 0]).T")

        def switch(pull: str) -> list[str]:
            # Rows whose indicator is not negative keep the value they had.
            return ["_on = ind < 0.0", *each(f"dt{{i}} = _where(_on, dt{{i}} + {pull}, dt{{i}})")]
    else:
        residual = "_r = _pm.T.dot(_th)"
        term = f"{_names('c', n)} = _pm.dot(_r).tolist()"

        def switch(pull: str) -> list[str]:
            return ["if ind < 0.0:", *each(f"    dt{{i}} = dt{{i}} + {pull}")]

    lines: list[str] = []
    source = None
    if spec.grad is not None:
        lines += [*dot("r", "p", "t"), "r = r - y", *each("g{i} = p{i} * r")]
        source = "g"
        if spec.grad < 0:
            lines += each("a{i} = g{i} / nt")
            source = "a"
    if spec.data is not None:
        if not stacked_data:
            lines += ["if data is None:", "    raise ValueError(missing)", "_pm, _yv, _w = data",
                      residual, "_sub(_r, _yv, _r)", "_mul(_r, _w, _r)", term]
        if spec.data > 0:
            lines += each("c{i} = c{i} * nt")
        if source is not None:
            lines += each(f"a{{i}} = {source}{{i}} + c{{i}}")
        source = "c" if source is None else "a"
    drive = "dv" if spec.high_order else "dt"
    if spec.gain_nt:
        lines += ["ng = -(gamma / nt)", *each(f"{drive}{{i}} = {source}{{i}} * ng")]
    else:
        lines += each(f"{drive}{{i}} = {source}{{i}} * neg_gain")
    if not spec.high_order:
        return lines
    lines += each("q{i} = t{i} - v{i}")
    if spec.theta_nt:
        lines += ["nb = neg_beta * nt", *each("dt{i} = q{i} * nb")]
    else:
        lines += each("dt{i} = q{i} * neg_beta")
    if spec.reset:
        # The pull switches on when vartheta - theta leads uphill along the
        # loss gradient; at the switching surface (indicator 0) it is off.
        # q'g is exactly -(vartheta - theta)'g: rounding to nearest is
        # symmetric in sign, so the test is the same comparison.
        body = dot("ind", "q", "g")
        if not spec.theta_nt:
            body.append("ind = ind / nt")
        body += switch("q{i} * neg_pull * nt" if spec.theta_nt else "q{i} * neg_pull")
        lines += ["if pulls:", *("    " + line for line in body)]
    return lines


def _stacked_data(aggregates: list[DataAggregates | None]) -> tuple | None:
    """The data of several kinds as the operands of one stacked data term, or None if there is none.

    The kinds read the same samples, phi_mat (n, N) and y_vec, each with its
    own weights. Returned are phi_mat and its transpose as one-matrix stacks,
    y_vec as a column, the (K, N, 1) stack of the weights, the (K, N, 1)
    residual and the (K, n, 1) term, with the term's flat view: the operands
    of the rows form's data term (_field_lines), row k for kind k.
    """
    if aggregates[0] is None:
        return None
    phi_mat, y_vec, _ = aggregates[0]
    term = np.empty((len(aggregates), phi_mat.shape[0], 1))
    return (phi_mat[None], phi_mat.T[None], y_vec[:, None],
            np.stack([w for _, _, w in aggregates])[:, :, None],
            np.empty((len(aggregates), phi_mat.shape[1], 1)), term, term.reshape(-1))


# What generated code may refer to besides its arguments.
_GENERATED_NAMES = {
    "_array": array,
    "_dot": np.ndarray.dot,
    "_empty": np.empty,
    "_isfinite": math.isfinite,
    "_matmul": np.matmul,
    "_mul": np.multiply,
    "_ravel": np.ravel,
    "_row_dots": row_dots,
    "_stack": np.stack,
    "_stacked_data": _stacked_data,
    "_sub": np.subtract,
    "_where": np.where,
}
# Input rows that the Euler loop asks for, and holds as Python floats, at a
# time. Each block is one evaluation of phi, y* and N_t; at 256 rows numpy's
# cost per call was about 40 % of the evaluation's.
_ROW_BLOCK = 1024
# The fewest kinds whose phi . theta dots, and whose data terms, a loop
# stacks into one numpy call each per step; below, each kind makes its own
# 1-d calls (see _loop_maker). Measured on fig1 at t_end 15: a stack of two
# dots is slower than two 1-d dots, one of three is faster, and a stack of
# two data terms is faster than two.
_DOT_STACK = 3
_DATA_STACK = 2
# The names of a field's own values in its point form (_field_lines): in a
# loop of several kinds, each kind's take its index as a suffix.
_OWN_NAMES = re.compile(r"\b(?:(?:dt|dv|t|v|g|c|q|a)\d+|r|ng|nb|ind|data|_th|_pm|_yv|_w|_r|"
                        + "|".join(_ARGUMENTS) + r")\b")


def _generate(body: list[str], label: str, arguments=_ARGUMENTS) -> Callable:
    """Compile make(*arguments), whose body is the lines body, and return make.

    Only structure and the dimension n are written into body; every value of
    a scenario reaches the generated code as an argument of make (see
    _field_arguments).
    """
    source = "\n".join([f"def make({', '.join(arguments)}):", *body]) + "\n"
    namespace = dict(_GENERATED_NAMES)
    exec(compile(source, f"<hotuner {label}>", "exec"), namespace)
    return namespace["make"]


@functools.cache
def _field_maker(kind: SystemKind, n: int) -> Callable:
    spec = KINDS[kind]
    lines = [
        "    def field(theta, vartheta, phi, y, nt, data, dtheta, dvartheta):",
        f"        {_names('t', n)} = theta.T",
    ]
    if spec.high_order:
        lines.append(f"        {_names('v', n)} = vartheta.T")
    lines += [f"        {_names('p', n)} = phi.T", "        y, nt = _ravel(y), _ravel(nt)"]
    lines += ["        " + line for line in _field_lines(spec, n, True)]
    outputs = [("dtheta", "dt")] + ([("dvartheta", "dv")] if spec.high_order else [])
    lines += [f"        _stack(({_names(prefix, n)}), 1, out={array})"
              for array, prefix in outputs]
    lines += ["", "    return field"]
    return _generate(lines, f"field {kind.value} n={n}")


def compile_field(kind: SystemKind, gains: Gains, n: int) -> Callable:
    """The field of one kind with one gain set and dimension n, resolved once for many calls.

    The closure evaluates B states at once. It takes theta and vartheta as
    (B, n) arrays, phi as (B, n) or one (n,) row shared by all states, y* and
    N_t (at least 1) as (B, 1) columns or scalars, the buffer aggregates
    weighted for this kind (see _data_for), or None for an empty buffer, and
    the two (B, n) output arrays. It reads its inputs before it writes its
    outputs, and a baseline kind, whose vartheta stays constant, leaves
    dvartheta untouched. One point is a one-row batch.

    Its code is generated from the kind's row (see _field_lines) once per
    (kind, n); the gains are arguments of that code. Row b of the
    output is bit for bit the Euler loop's field at row b: the operations are
    the same, on (B,) columns; only the dot products differ, being stacked
    1-d dots (see signals.row_dots) or, in one dimension, products, and the
    soft-reset pull is added through a row mask.
    """
    n = operator.index(n)
    if n < 1:
        raise ValueError(f"dimension must be at least 1 (got {n})")
    return _field_maker(kind, n)(**_field_arguments(kind, gains))


def _stack_order(kinds) -> tuple[SystemKind, ...]:
    """kinds in the order of a loop's stacks: those with a data term but no
    loss gradient, then those with both, then those without a data term, each
    group in the order given. So the kinds with a data term come first and
    those with a loss gradient last, each group contiguous."""
    return tuple(sorted(kinds, key=lambda kind: (KINDS[kind].data is None,
                                                 KINDS[kind].grad is not None)))


@functools.cache
def _loop_maker(kinds: tuple[SystemKind, ...], n: int) -> Callable:
    if kinds != _stack_order(kinds):
        raise ValueError("the kinds of a loop must be in _stack_order")
    specs = [KINDS[kind] for kind in kinds]
    readers = [j for j, spec in enumerate(specs) if spec.data is not None]
    dotted = [j for j, spec in enumerate(specs) if spec.grad is not None]
    stack_dot = n > 1 and len(dotted) >= _DOT_STACK
    stack_data = n > 1 and len(readers) >= _DATA_STACK

    def own(lines: list[str], j: int) -> list[str]:
        return [_OWN_NAMES.sub(lambda name: f"{name.group()}_{j}", line) for line in lines]

    def joined(names: list[str]) -> str:
        return ", ".join(names) + ("," if len(names) == 1 else "")

    state = [f"{x}{i}" for x in "tv" for i in range(n)]
    components = ", ".join(name for j in range(len(kinds)) for name in own(state, j))
    finite = [" and ".join(f"_isfinite({name})" for name in own(state, j))
              for j in range(len(kinds))]
    lines = [
        "    def advance(h, num_steps, inputs, every, keeps, data_at, start, diverged):",
        f"        _s, _ph, _thf = _empty({2 * n}), _empty({n}), _empty({len(kinds) * n})",
        "        _m, _mp, _mt = memoryview(_s), memoryview(_ph), memoryview(_thf)",
        f"        _lo, _hi = _s[:{n}], _s[{n}:]",
        f"        {joined([f'_th_{j}' for j in range(len(kinds))])} = "
        f"_thf.reshape({len(kinds)}, {n})",
        f"        {components} = start",
        "        rows, next_row = _array('d'), 0",
    ]
    if stack_dot:
        lines += [f"        _rd = _empty(({len(dotted)}, 1, 1))",
                  f"        _rdv, _phc = _rd.reshape({len(dotted)}), _ph[:, None]",
                  f"        _thg = _thf.reshape({len(kinds)}, {n})[{dotted[0]}:, None, :]"]
    if stack_data:
        lines.append(f"        _thd = _thf.reshape({len(kinds)}, {n})[:{len(readers)}, :, None]")
    # The data that the fields read at step k: the samples kept at steps up to k.
    if stack_data:
        load = ["_sd = _stacked_data(data_at(kept))",
                "if _sd is not None:",
                "    _spm, _spmt, _syv, _sw, _sr, _sc, _scv = _sd"]
    else:
        load = [f"{joined([f'data_{j}' for j in readers])} = data_at(kept)"]
    load.append("next_keep = keeps[kept] if kept < len(keeps) else -1")
    if readers:
        lines += ["        kept = 0", *("        " + line for line in load)]
    lines += [f"        for base in range(0, num_steps, {_ROW_BLOCK}):",
              f"            block = inputs(base, min(base + {_ROW_BLOCK}, num_steps)).tolist()",
              f"            for k, ({', '.join([*(f'p{i}' for i in range(n)), 'y', 'nt'])}) "
              "in enumerate(block, base):",
              "                if k == next_row:",
              f"                    rows.fromlist([{components}])",
              "                    next_row += every"]
    if readers:
        lines += ["                if k == next_keep:",
                  "                    kept += 1",
                  *("                    " + line for line in load)]
    # Each dot and data term reads phi from _ph and a kind's theta from its row
    # of the stack _thf; in one dimension the dots are products.
    body = [f"_mp[{i}] = p{i}" for i in range(n)] if n > 1 and dotted else []
    body += [f"_mt[{j * n + i}] = t{i}_{j}" for j in range(len(kinds))
             if j in readers or (n > 1 and j in dotted) for i in range(n)]
    if stack_dot:
        body += ["_matmul(_thg, _phc, out=_rd)",
                 f"{joined([f'r_{j}' for j in dotted])} = _rdv.tolist()"]
    if stack_data:
        body += ["if _sd is None:", f"    raise ValueError(missing_{readers[0]})",
                 "_matmul(_spmt, _thd, out=_sr)", "_sub(_sr, _syv, _sr)", "_mul(_sr, _sw, _sr)",
                 "_matmul(_spm, _sr, out=_sc)",
                 f"{joined([f'c{i}_{j}' for j in readers for i in range(n)])} = _scv.tolist()"]
    for j, spec in enumerate(specs):
        body += own(_field_lines(spec, n, False, stack_dot, stack_data), j)
        body += own([f"{x}{i} = {x}{i} + d{x}{i} * h"
                     for x in "tv"[:1 + spec.high_order] for i in range(n)], j)
    lines += ["                " + line for line in body]
    lines += [f"                if diverged and not ({' and '.join(finite)}):",
              "                    raise diverged(k)",
              f"            if not ({' or '.join(f'({test})' for test in finite)}):",
              "                break",
              f"        final = [{components}]",
              "        rows.fromlist(final)",
              "        return rows, final",
              "",
              "    return advance"]
    arguments = [name for j in range(len(kinds)) for name in own(list(_ARGUMENTS), j)]
    label = "+".join(kind.value for kind in kinds)
    return _generate(lines, f"euler loop {label} n={n}", arguments)


def _compile_loop(kinds: tuple[SystemKind, ...], gains: Gains, n: int) -> Callable:
    """The Euler loop of kinds, in _stack_order, on one gain set and dimension n (see compile_field).

    advance(h, num_steps, inputs, every, keeps, data_at, start, diverged)
    takes num_steps steps of size h of every kind at once, in one pass, from
    start, the 2n floats of theta and vartheta of each kind in turn. It
    returns (rows, final): an array('d') that holds the states of all kinds
    at every step r every and after the last step, 2n floats per kind, and
    the final states. inputs(lo, hi) evaluates the rows of steps lo..hi-1,
    row k - lo holding phi, y*, N_t at step k (see integrator.SignalGrid.rows);
    the loop asks for each block of _ROW_BLOCK rows once, as it reaches it,
    and walks it as Python floats, so no input outlives its block. From each
    step of keeps on, the fields read data_at(samples kept so far), the
    aggregates of each kind with a data term, in order; they read the same
    samples. Unless diverged is None, a state not finite after step k
    raises diverged(k); either way a block that ends with no kind's state
    finite, which stays so, ends the pass.

    Each kind's field (_field_lines, point form) is in the loop body, on
    Python-float locals suffixed with the kind's index; a step is
    x{i} = x{i} + dx{i} * h, the operations of x + h dx, and a baseline kind
    steps theta only. The numpy calls that each kind would repeat run once
    per step for all of them: phi is written into one scratch array and each
    kind's theta into its row of one stack, and from _DOT_STACK kinds on
    their phi . theta dots are one stacked matmul (signals.row_dots), from
    _DATA_STACK kinds on their data terms are the rows form's stacked calls.
    Each row of a stacked call rounds as the 1-d call it replaces, and rows
    do not mix, so every kind's values are those of its one-kind loop, also
    where another kind's state is not finite. Below those counts, and in
    one dimension, a kind makes its own calls; a one-kind loop stacks none.
    """
    arguments = {f"{name}_{j}": value for j, kind in enumerate(kinds)
                 for name, value in _field_arguments(kind, gains).items()}
    return _loop_maker(tuple(kinds), n)(**arguments)
