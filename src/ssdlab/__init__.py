"""Diagonal state-space models, semiseparable kernels, and masked-attention duals.

Each exported name loads its module on first use (PEP 562), so a command loads only what it runs.
"""

from importlib import import_module

__version__ = "0.1.0"

#: Module -> the names ``ssdlab`` exports from it.
_EXPORTS = {
    "errors": (
        "DegenerateGridError", "InconsistentTransitionError", "NotRepresentableError",
        "NotScalarIdentityError", "PreconditionError", "RankExceedsWidthError",
        "ReconstructionError", "ShapeMismatchError", "SizeExceededError", "SsdError",
        "UnstableScalingError", "ZeroGainError",
    ),
    "ss_matrix": (
        "DEFAULT_EPS", "LowerTriangularMatrix", "diagonal_block_partition", "new_columns",
        "semiseparable_rank",
    ),
    "ssm": (
        "DiagonalSsm", "forward_linear", "forward_materialized", "forward_recurrence",
        "forward_ssd", "materialize_kernel", "random_instance", "scan",
    ),
    "duality": (
        "MaskedAttentionFactors", "attention_like_decomposition", "construct_one_ss_dual",
        "count_block_new_columns", "full_rank_one_ss_dual", "one_ss", "scalar_identity_dual",
    ),
    "sss_extract": (
        "GeneralSssRepresentation", "extract_sss", "materialize_sss", "random_representation",
        "rank_factor_step", "solve_transition",
    ),
    "limits": (
        "CounterexampleReport", "non_dualizable_matrix", "softmax_counterexample",
        "verify_non_dualizable",
    ),
    "bench": ("FlopReport", "count_flops", "scaling_experiment"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = [*_MODULE_OF, *_EXPORTS]


def __getattr__(name: str):
    """An exported name, read from its module at each lookup, or a module, imported."""
    if name in _EXPORTS:
        return import_module(f"{__name__}.{name}")
    if name in _MODULE_OF:
        return getattr(import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
