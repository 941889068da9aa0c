"""Exception types shared across the package."""


class MonopannError(Exception):
    """Base class for all errors raised by this package."""


class InvertedConfigurationError(MonopannError):
    """Deformation gradient with non-positive determinant."""


class InvalidStretchError(MonopannError):
    """Stretch value outside (0, inf)."""


class ShapeMismatchError(MonopannError):
    """Array dimensions incompatible with the model or operation."""


class ConstraintViolationError(MonopannError):
    """A model carries a value its constraints forbid: a negative
    sign-constrained weight, or a weight or bias that is not finite."""


class NotIsochoricError(MonopannError):
    """Deformation gradient does not satisfy det F = 1 within tolerance."""


class EmptyDatasetError(MonopannError):
    """Operation requires at least one sample."""


class EmptyGridError(MonopannError):
    """Scan grid contains no points."""
