"""Exception types shared across the package."""


class GraphConfError(Exception):
    """Base class for all package errors."""


class DuplicateVertexError(GraphConfError):
    pass


class LoopEdgeError(GraphConfError):
    pass


class DanglingEndpointError(GraphConfError):
    pass


class DuplicateEdgeError(GraphConfError):
    pass


class UnknownEdgeError(GraphConfError):
    pass


class BadParamsError(GraphConfError):
    pass


class InvalidMorphismError(GraphConfError):
    pass


class NotASubgraphError(GraphConfError):
    pass


class NotAComplexError(GraphConfError):
    pass


class AmbientMismatchError(GraphConfError):
    pass


class NotACographError(GraphConfError):
    pass


class InvalidCotreeError(GraphConfError):
    pass


class InvariantError(GraphConfError):
    """An internal invariant does not hold: a bug, not bad input."""
