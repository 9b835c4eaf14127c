"""Exception types shared across the package.

Structural problems (wrong dimensions, missing metadata, bad arguments)
and semantic failures (a matrix that is not Hermitian where one is
required, a map that is not completely positive) get distinct classes so
callers can react without parsing messages.
"""


class CpcatError(Exception):
    """Base class for every error raised by this package."""


class DimensionMismatch(CpcatError):
    """Composition or comparison of morphisms whose dimensions disagree."""


class ShapeMismatch(CpcatError):
    """An entry array whose shape does not match the declared objects."""


class InvalidArgument(CpcatError):
    """A parameter outside its documented range (zero trials, bad dims)."""


class MissingFactorSplit(CpcatError):
    """An operation needed a two-factor codomain split that was not given."""


class NotCompact(CpcatError):
    """A compact-structure operation invoked on a non-compact instance."""


class NotHermitian(CpcatError):
    """A matrix required to be Hermitian deviates beyond tolerance."""


class NotCompletelyPositive(CpcatError):
    """A Choi matrix with an eigenvalue below the negative tolerance."""


class DomainNotUnit(CpcatError):
    """A state-level check applied to a morphism whose domain is not I."""


class PositionedError(CpcatError):
    """An error tied to a line/column in DSL source text."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col


class DslSyntaxError(PositionedError):
    """Malformed DSL source."""


class DslTypeError(PositionedError):
    """A well-formed term whose morphisms do not fit together."""


class UnknownIdentifier(PositionedError):
    """A name used before any binding introduced it."""
