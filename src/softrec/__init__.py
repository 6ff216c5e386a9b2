"""Reverse-reconciliation softening toolkit.

Simulates discrete-modulation reconciliation over AWGN channels where the
receiver discloses a softened metric that is provably independent of his
symbol decisions. Provides the softening transforms, leakage audits,
soft-metric (LAPPR) construction, mutual-information evaluation, and a
syndrome-aware LDPC belief-propagation decoder, plus an experiment harness
and CLI around them.
"""

from softrec.constellation import (
    Constellation,
    DecisionRegions,
    bit_partitions,
    decide,
    demap,
    gray_bitmap,
    map_decision_regions,
    pam,
)
from softrec.channel import (
    ChannelModel,
    QuantileWarning,
    output_cdf,
    output_density,
    output_quantile,
    transmit,
)
from softrec.softening import (
    MonotonicityConfig,
    SofteningTransform,
    build_transform,
    enumerate_configs,
    soften,
    transform_jacobian,
    unsoften,
)
from softrec.metrics import (
    LAPPR_CLAMP,
    joint_conditional_density,
    lappr,
    lappr_batch,
    posterior_decisions,
)
from softrec.infotheory import (
    MiResult,
    leakage,
    mi_bound_check,
    mi_direct,
    mi_hard,
    mi_rrs,
    transition_matrix,
)
from softrec.ldpc import (
    DecodeOutcome,
    LdpcCode,
    decode,
    load_code,
    parse_alist,
    syndrome,
    tanner_check,
    to_alist,
)
from softrec.harness import (
    ExperimentSpec,
    ber_sweep,
    hard_rr_lapprs,
    mi_sweep,
    noise_variance_for_snr_db,
    run_protocol,
)

__version__ = "0.1.0"

__all__ = [
    "Constellation",
    "DecisionRegions",
    "bit_partitions",
    "decide",
    "demap",
    "gray_bitmap",
    "map_decision_regions",
    "pam",
    "ChannelModel",
    "QuantileWarning",
    "output_cdf",
    "output_density",
    "output_quantile",
    "transmit",
    "MonotonicityConfig",
    "SofteningTransform",
    "build_transform",
    "enumerate_configs",
    "soften",
    "transform_jacobian",
    "unsoften",
    "LAPPR_CLAMP",
    "joint_conditional_density",
    "lappr",
    "lappr_batch",
    "posterior_decisions",
    "MiResult",
    "leakage",
    "mi_bound_check",
    "mi_direct",
    "mi_hard",
    "mi_rrs",
    "transition_matrix",
    "DecodeOutcome",
    "LdpcCode",
    "decode",
    "load_code",
    "parse_alist",
    "syndrome",
    "tanner_check",
    "to_alist",
    "ExperimentSpec",
    "ber_sweep",
    "hard_rr_lapprs",
    "mi_sweep",
    "noise_variance_for_snr_db",
    "run_protocol",
    "__version__",
]
