"""Semantic exceptions shared across the package."""


class ValidationError(ValueError):
    """A parameter or precondition violation (bad inputs, not bad math)."""


class UnsupportedMethodError(ValidationError):
    """A method/process combination the theory does not cover."""


class ApproximationWarning(UserWarning):
    """A closed-form approximation used where it is known to be inaccurate."""


class ToleranceError(RuntimeError):
    """A numerical routine could not reach its requested tolerance.

    Carries the tolerance that was actually achieved so callers can decide
    whether the value is still usable.
    """

    def __init__(self, message: str, achieved: float | None = None):
        super().__init__(message)
        self.achieved = achieved
