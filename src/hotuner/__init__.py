"""High-order tuners for linear parameter identification.

Simulation of the gradient-baseline and high-order tuner family with optional
concurrent learning from recorded data, together with numerical checks of the
stability certificates that back them.
"""

from .certificates import (
    CertificateReport,
    check_decrease_along,
    check_decrease_pointwise,
    decrease_margin,
    energy_matrix,
    estimate_decay_rate,
    lyapunov_along,
    matrosov_check,
)
from .databuffer import (
    DataBuffer,
    RichnessReport,
    buffer_csv,
    p_matrix,
    record_steps,
    richness,
)
from .dynamics import (
    BASELINE_KINDS,
    BUFFER_KINDS,
    HIGH_ORDER_KINDS,
    KINDS,
    POINTWISE_KINDS,
    RATE_CONDITION_KINDS,
    SOFT_RESET_KINDS,
    Gains,
    SystemKind,
    TunerState,
    compile_field,
    normalization,
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
    "Gains",
    "HIGH_ORDER_KINDS",
    "KINDS",
    "NumericalDivergence",
    "PEReport",
    "POINTWISE_KINDS",
    "RATE_CONDITION_KINDS",
    "RegressorSignal",
    "RichnessReport",
    "SOFT_RESET_KINDS",
    "SignalGrid",
    "SimConfig",
    "SystemKind",
    "Trajectory",
    "TunerState",
    "buffer_csv",
    "check_decrease_along",
    "check_decrease_pointwise",
    "check_pe",
    "compile_field",
    "decrease_margin",
    "energy_matrix",
    "estimate_decay_rate",
    "lyapunov_along",
    "make_constant",
    "make_sinusoid_mix",
    "matrosov_check",
    "normalization",
    "p_matrix",
    "pe_gram",
    "record_steps",
    "rhs",
    "richness",
    "simulate",
    "simulate_with_buffer",
]
