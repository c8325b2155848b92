"""Exception types shared across the package."""


class ValidationError(ValueError):
    """An input violates a structural invariant (matrix, curve, or config)."""


class NotPtolemyError(ValidationError):
    """A metric fails a Ptolemy requirement.

    Carries the offending point tuple in ``witness`` and the size of the
    violation in ``residual`` when they are known.
    """

    def __init__(self, message, witness=None, residual=None):
        super().__init__(message)
        self.witness = witness
        self.residual = residual
