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
    diagonal_block_partition,
    new_columns,
    semiseparable_rank,
)
from .ssm import (
    DiagonalSsm,
    forward_linear,
    forward_materialized,
    forward_recurrence,
    forward_ssd,
    materialize_kernel,
    random_instance,
    scan,
)
from .duality import (
    MaskedAttentionFactors,
    attention_like_decomposition,
    construct_one_ss_dual,
    count_block_new_columns,
    full_rank_one_ss_dual,
    one_ss,
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
