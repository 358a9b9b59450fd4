"""High-order tuners for linear parameter identification.

Simulation of the gradient-baseline and high-order tuner family with optional
concurrent learning from recorded data, together with numerical checks of the
stability certificates that back them.
"""

from .certificates import (
    CertificateReport,
    ErrorCoords,
    check_decrease_along,
    check_decrease_pointwise,
    decrease_margin,
    error_field,
    estimate_decay_rate,
    lyapunov_along,
    matrosov_check,
    v0,
    v_b,
    v_cl,
)
from .databuffer import (
    DataBuffer,
    DataSample,
    RichnessReport,
    b_term,
    buffer_csv,
    maybe_record,
    p_matrix,
    richness,
)
from .dynamics import (
    BASELINE_KINDS,
    BUFFER_KINDS,
    HIGH_ORDER_KINDS,
    RATE_CONDITION_KINDS,
    SOFT_RESET_KINDS,
    Gains,
    SystemKind,
    TunerState,
    field,
    field_softreset,
    grad_L,
    normalization,
    reset_indicator,
    rhs,
)
from .integrator import (
    NumericalDivergence,
    SignalGrid,
    SimConfig,
    Trajectory,
    simulate,
    simulate_with_buffer,
)
from .signals import (
    PEReport,
    RegressorSignal,
    check_pe,
    make_constant,
    make_sinusoid_mix,
    pe_gram,
)

__version__ = "0.1.0"

__all__ = [
    "BASELINE_KINDS",
    "BUFFER_KINDS",
    "CertificateReport",
    "DataBuffer",
    "DataSample",
    "ErrorCoords",
    "Gains",
    "HIGH_ORDER_KINDS",
    "NumericalDivergence",
    "PEReport",
    "RATE_CONDITION_KINDS",
    "RegressorSignal",
    "RichnessReport",
    "SOFT_RESET_KINDS",
    "SignalGrid",
    "SimConfig",
    "SystemKind",
    "Trajectory",
    "TunerState",
    "b_term",
    "buffer_csv",
    "check_decrease_along",
    "check_decrease_pointwise",
    "check_pe",
    "decrease_margin",
    "error_field",
    "estimate_decay_rate",
    "field",
    "field_softreset",
    "grad_L",
    "lyapunov_along",
    "make_constant",
    "make_sinusoid_mix",
    "matrosov_check",
    "maybe_record",
    "normalization",
    "p_matrix",
    "pe_gram",
    "reset_indicator",
    "rhs",
    "richness",
    "simulate",
    "simulate_with_buffer",
    "v0",
    "v_b",
    "v_cl",
]
