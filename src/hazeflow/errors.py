"""Exception types shared across the package."""


class HazeflowError(Exception):
    """Base class for all errors raised by hazeflow."""


class ShapeError(HazeflowError):
    """Tensor shapes are inconsistent with an operation's contract."""


class GraphError(HazeflowError):
    """Backward pass requested outside any recorded computation, or through
    a graph an earlier backward pass already released."""


class LatticeRangeError(HazeflowError):
    """Color component outside the [0, C_max] range expected by the LUT."""


class DivergenceError(HazeflowError):
    """Non-finite values appeared during integration or training.

    Carries the index of the offending step.
    """

    def __init__(self, message: str, step: int):
        super().__init__(message)
        self.step = step


class ConfigError(HazeflowError, ValueError):
    """A configuration value outside its valid range."""


class DataError(HazeflowError):
    """Unreadable, unsupported, or inconsistent external data."""
