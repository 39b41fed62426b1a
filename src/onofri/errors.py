"""Exception types shared across the toolkit."""


class ToolkitError(Exception):
    """Base class for all toolkit-specific failures."""


class GridConfigError(ToolkitError):
    """Grid too coarse: aliasing at the band limit, or too few cells on a domain."""


class InvalidFieldError(ToolkitError, ValueError):
    """Field values are non-finite or have the wrong shape."""


class GaugeError(ToolkitError):
    """An operation required the gauge normalisation of exp-mass one."""


class DivergentMassError(ToolkitError):
    """A planar mass integral does not converge (slope at or below 2l+2)."""


class NonConvergenceError(ToolkitError):
    """An iterative solve stalled; carries the best iterate found so far."""

    def __init__(self, message, best=None, residual=None):
        super().__init__(message)
        self.best = best
        self.residual = residual
