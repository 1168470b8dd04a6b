"""Exception types shared across the package."""


class RegionDeblurError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(RegionDeblurError):
    """An input violates a documented precondition or invariant."""


class DimensionError(ValidationError):
    """Shapes, sizes, or index ranges are incompatible."""


class DegenerateDenominatorError(ValidationError):
    """A ratio metric was asked to divide by zero."""


class DegenerateInputError(RegionDeblurError):
    """The input carries no usable signal (for example all-zero gradients)."""


class ParseError(RegionDeblurError):
    """A file could not be decoded; carries the message without the offset
    (`reason`) and the byte offset where decoding failed."""

    def __init__(self, message: str, offset: int | None = None):
        self.reason = message
        self.offset = offset
        if offset is not None:
            message = f"{message} (at byte offset {offset})"
        super().__init__(message)


class ModelFormatError(RegionDeblurError):
    """A model container is corrupt, truncated, or of an unsupported version."""
