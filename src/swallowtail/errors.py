"""Exception types shared across the package."""


class SwallowtailError(Exception):
    """Base class for all errors raised by this package."""


class ToleranceNotReached(SwallowtailError):
    """Adaptive quadrature ran out of subdivisions before meeting the target.

    Carries the best available result in ``partial`` so callers that can
    tolerate a degraded answer (e.g. grid scans) may still use it.
    """

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial


class DomainError(SwallowtailError):
    """Input outside the mathematical domain of the operation."""


class DegenerateScaling(DomainError):
    """The large-parameter rescaling is undefined (z = 0)."""


class PathStalled(SwallowtailError):
    """Steepest-descent tracing could not continue (nearby saddle collision).

    ``saddle_index`` and ``direction`` name the traced branch, and ``point``
    is where the trace stopped: its last accepted point, the saddle itself
    if no step was accepted, or None if tracing never started.
    """

    def __init__(self, message, *, saddle_index=None, direction=None, point=None):
        super().__init__(message)
        self.saddle_index = saddle_index
        self.direction = direction
        self.point = point


class RegimeError(SwallowtailError):
    """Operation invoked outside the saddle regime it is defined for."""


class NoConvergence(SwallowtailError):
    """Iterative refinement failed to converge within the iteration budget."""


class SeedOutOfRange(DomainError):
    """Refinement seed lies outside the configured feasible range."""
