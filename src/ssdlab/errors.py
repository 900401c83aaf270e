"""Exception types shared across the package."""

from __future__ import annotations


class SsdError(Exception):
    """Base class for all library-specific failures."""


class ShapeMismatchError(SsdError, ValueError):
    """Inputs whose dimensions do not line up."""


class SizeExceededError(SsdError, ValueError):
    """A brute-force helper was asked for more than it can enumerate."""


class PreconditionError(SsdError):
    """An input outside what a construction or extraction accepts; the CLI exits 3."""


class NotScalarIdentityError(PreconditionError):
    """Some step's diagonal gains differ across state modes."""


class ZeroGainError(PreconditionError):
    """A gain that must be invertible is exactly zero."""


class UnstableScalingError(PreconditionError):
    """Ratio products or coefficients leave the finite range, or an error budget passes its gate."""


class NotRepresentableError(SsdError):
    """No masked-attention factorization exists at the requested width."""


class RankExceedsWidthError(PreconditionError):
    """A lower-left block has rank above the requested representation width."""


class InconsistentTransitionError(PreconditionError):
    """No single transition matrix links two consecutive factorizations."""


class ReconstructionError(SsdError):
    """A constructed factorization failed its re-materialization check."""


class DegenerateGridError(SsdError, ValueError):
    """A scaling grid has too few points to fit an exponent."""
