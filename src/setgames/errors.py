"""Exception types shared across the library."""


class SetGameError(Exception):
    """Base class for all library-specific failures."""


class CapacityError(SetGameError):
    """A size guard was exceeded (ground set, strategy space, or LP shape)."""


class InvalidInputError(SetGameError):
    """Malformed numeric input, e.g. NaN or infinite utility values."""


class InvalidStrategyError(SetGameError):
    """A pure strategy violates its cardinality cap or the ground set."""


class InvalidVertexError(SetGameError):
    """A vector claimed to be a polytope vertex fails the 0/1 coordinate check."""


class NotInHullError(SetGameError):
    """Point is not a convex combination of the given vertices.

    ``certificate`` is a pair ``(normal, offset)`` such that
    ``normal @ v + offset <= 0`` for every vertex while
    ``normal @ x + offset > 0`` for the rejected point.
    """

    def __init__(self, message, certificate=None):
        super().__init__(message)
        self.certificate = certificate


class SolverFailureError(SetGameError):
    """Numerical failure in an LP solve after anti-cycling recovery."""

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


class FormatError(SetGameError):
    """A game, report, or graph file failed validation."""
