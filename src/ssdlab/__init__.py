"""Diagonal state-space models, semiseparable kernels, and masked-attention duals."""

from .errors import (
    DegenerateGridError,
    InconsistentTransitionError,
    NotRepresentableError,
    NotScalarIdentityError,
    PreconditionError,
    RankExceedsWidthError,
    ReconstructionError,
    ShapeMismatchError,
    SizeExceededError,
    SsdError,
    UnstableScalingError,
    ZeroGainError,
)
from .ss_matrix import (
    DEFAULT_EPS,
    LowerTriangularMatrix,
    MaskVector,
    diagonal_block_partition,
    new_columns,
    one_ss,
    semiseparable_rank,
)
from .ssm import (
    DiagonalSsm,
    forward_materialized,
    forward_recurrence,
    forward_ssd,
    materialize_kernel,
    random_instance,
    scale_rows,
    scan,
)
from .duality import (
    MaskedAttentionFactors,
    attention_like_decomposition,
    construct_one_ss_dual,
    count_block_new_columns,
    full_rank_one_ss_dual,
    scalar_identity_dual,
)
from .sss_extract import (
    GeneralSssRepresentation,
    extract_sss,
    materialize_sss,
    random_representation,
    rank_factor_step,
    solve_transition,
)
from .limits import (
    CounterexampleReport,
    non_dualizable_matrix,
    softmax_counterexample,
    verify_non_dualizable,
)
from .bench import (
    FlopReport,
    count_flops,
    scaling_experiment,
)

__version__ = "0.1.0"
