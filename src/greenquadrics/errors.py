"""Exception types shared across the package.

`DomainError` covers mathematically invalid inputs (the CLI maps these to
exit code 2); `LiteralParseError` covers malformed text input and
`RenderLimitError` an exact result too large to print (both exit code 1).
"""


class DomainError(ValueError):
    """Input outside an operation's mathematical domain."""


class SingularMatrixError(DomainError):
    """A group inverse was requested for a singular matrix."""


class NotRankOneError(DomainError):
    """Operation defined only for rank-1 matrices."""


class NotRankOneIdempotentError(DomainError):
    """Operation defined only for rank-1 idempotents."""


class DependentBasisError(DomainError):
    """Two matrices expected to span a plane are linearly dependent."""


class DegeneratePairingError(DomainError):
    """Column/row pairing is orthogonal: the H-class holds no idempotent."""


class NotOnHyperplaneError(DomainError):
    """Point does not lie on the stated trace hyperplane."""


class ZeroCoefficientError(DomainError):
    """Hyperplane operations require a nonzero coefficient matrix."""


class NotAQuadricError(DomainError):
    """The polynomial is identically zero and defines no quadric."""


class UnknownKindError(DomainError):
    """Unrecognized surface kind."""


class LiteralParseError(ValueError):
    """Malformed matrix/rational literal; `position` is a 0-based index."""

    def __init__(self, message, position=None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class RenderLimitError(ValueError):
    """An exact value is too large for the requested text or float form."""
