"""Error types shared across the package."""


class ShapeError(ValueError):
    """Operand shapes are incompatible. The message names both shapes."""


class ConfigError(ValueError):
    """A configuration value is invalid or unknown."""


class StateError(RuntimeError):
    """An operation was called in the wrong order (e.g. backward before forward)."""


class ValidationError(ValueError):
    """Inputs that should agree with each other do not."""


class TrainingDiverged(RuntimeError):
    """Training produced a non-finite loss and was aborted."""

    def __init__(self, iteration, message=None):
        self.iteration = iteration
        super().__init__(message or f"non-finite loss at iteration {iteration}")

    def __reduce__(self):
        # The default pickles only ``args`` (the message) and would rebuild the
        # exception with the message as its iteration; sweep workers send
        # this exception back to the parent process.
        return type(self), (self.iteration, str(self))
