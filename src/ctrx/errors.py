"""Exception types shared across the package."""


class ValidationError(ValueError):
    """Raised when an argument violates a documented precondition."""


class DimensionError(ValidationError):
    """Raised on shape or size mismatches between operands."""


class CertificateError(RuntimeError):
    """Raised when a computed contraction certificate is not < 1.

    By construction this should be impossible; seeing it means a bug in the
    layer arithmetic, not bad input.
    """


class DivergenceError(RuntimeError):
    """Raised when an iterative solver produces non-finite iterates.

    The partial trace is attached as ``.trace``.
    """

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace


class CorruptWeightsError(RuntimeError):
    """Raised when a weights file fails CRC, magic, or shape validation."""


class TrainingFailureError(RuntimeError):
    """Raised when the training loss diverges."""
