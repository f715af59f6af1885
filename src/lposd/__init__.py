"""Decoding toolkit for CSS codes built around a syndrome linear program.

The pipeline family: solve an LP relaxation of minimum-weight decoding,
then either round it bit by bit or repair it with ordered-statistics
search; a min-sum message-passing front end provides the baseline.  The
``patterns`` module constructs error patterns that the bare relaxation
provably cannot correct, together with exact fractional certificates.
"""

from .errors import (
    CheckWeightTooLarge,
    CycleNotFound,
    EnumerationTooLarge,
    Infeasible,
    InvalidParameter,
    IterationLimit,
    LposdError,
    PreconditionViolated,
    SamplingExhausted,
    SingularSubmatrix,
)
from .gf2 import (
    BinaryMatrix,
    in_rowspace,
    kernel_basis,
    matrix_from_text,
    matrix_to_text,
    rank,
    read_matrix,
    row_reduce,
    write_matrix,
)
from .codes import (
    CodeParameters,
    CssCode,
    HgpLayout,
    TannerGraph,
    ZCycle,
    bivariate_bicycle_code,
    classical_distance,
    find_short_z_cycle,
    hgp_layout,
    hypergraph_product,
    load_code,
    named_bb_code,
    repetition_parity_check,
    rotated_surface_code,
    sample_random_hgp,
    save_code,
)
from .lp import (
    DEFAULT_SOLVER,
    DualSolution,
    LpModel,
    LpSolution,
    MAX_CHECK_WEIGHT,
    as_dual_solution,
    build_dual_lp,
    build_error_lp,
    build_syndrome_lp,
    dump_lp,
    is_integral,
    parity_subsets,
    reflect_to_error_solution,
    reflect_to_syndrome_solution,
    round_independent,
    solve_lp,
)
from .osd import DEFAULT_LAM, OsdConfig, QubitOrdering, order_qubits, osd_postprocess
from .bp import DEFAULT_CHANNEL_P, BpConfig, BpResult, min_sum_bp
from .patterns import (
    Certificate,
    CertificateReport,
    ErrorPattern,
    PoisonReport,
    ReducedCheck,
    build_cycle_pattern,
    build_overlap_pattern,
    check_poison,
    hgp_cycle,
    is_reduced,
    read_patterns,
    search_patterns,
    stabilizers_within,
    verify_certificate,
    verify_hgp_cycle,
    write_patterns,
)
from .sim import (
    DECODER_NAMES,
    DecodeResult,
    DecoderSpec,
    EnsembleResult,
    PointResult,
    SimConfig,
    SweepRow,
    bp_osd_decode,
    decode_syndrome,
    exhaustive_sweep,
    is_success,
    lp_osd_decode,
    lp_round_decode,
    run_ensemble,
    run_point,
    sample_error,
    wilson_interval,
)

__version__ = "0.1.0"
