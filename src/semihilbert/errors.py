"""Exception and warning types shared across the package."""


class SemiHilbertError(Exception):
    """Base class for all errors raised by this package."""


class NotHermitian(SemiHilbertError):
    """Weight matrix is asymmetric beyond tolerance."""


class NotPositive(SemiHilbertError):
    """Weight matrix has an eigenvalue below the negative tolerance."""


class ZeroOperator(SemiHilbertError):
    """Weight matrix is numerically zero; a nonzero weight is required."""


class DimensionMismatch(SemiHilbertError):
    """Vector or matrix dimensions are incompatible with the context."""


class NotFinite(SemiHilbertError):
    """Input matrix has NaN or infinite entries."""


class NotInBA(SemiHilbertError):
    """Operator does not admit a weighted adjoint (range condition fails)."""


class BlockNotInBA(NotInBA):
    """A block of an operator matrix fails the adjoint membership test."""

    def __init__(self, i: int, j: int, message: str = ""):
        self.index = (i, j)
        super().__init__(message or f"block ({i}, {j}) does not admit a weighted adjoint")


class NotABounded(SemiHilbertError):
    """Operator is unbounded with respect to the weighted seminorm."""


class GelfandDivergence(SemiHilbertError):
    """Power-sequence cross-check fell below the computed spectral radius."""


class RaggedBlocks(SemiHilbertError):
    """Block grid entries do not share a single square shape."""


class BadIndex(SemiHilbertError):
    """Block permutation index outside the valid range."""


class ConstructionFailed(SemiHilbertError):
    """Randomized construction failed its verification after all retries."""


class ABoundednessWarning(UserWarning):
    """Emitted when a seminorm query returns the +inf sentinel."""
