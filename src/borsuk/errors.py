"""Domain exceptions shared across the toolkit."""


class BorsukError(Exception):
    """Base class for every domain error raised by this package."""


class DimensionMismatch(BorsukError):
    """Operands live in different ambient dimensions."""


class NotSymmetric(BorsukError):
    """A vertex set is not closed under negation."""


class DegenerateBody(BorsukError):
    """The body is lower-dimensional or the origin is not interior."""


class IndexOutOfRange(BorsukError):
    """A partition refers to point indices that do not exist."""


class GridTooCoarse(BorsukError):
    """The candidate grid cannot cover all witness points."""


class PointUncovered(BorsukError):
    """A point of the set lies outside every covering translate."""


class GenerationFailed(BorsukError):
    """Random instance generation exhausted its retry budget."""


class UnknownSuite(BorsukError):
    """No verification suite with the requested name exists."""


class DomainError(BorsukError):
    """A bound formula was evaluated outside its real domain."""


class DimensionUnsupported(BorsukError):
    """The operation is only implemented for a specific dimension."""


class InvalidInput(BorsukError, ValueError):
    """Input is malformed or out of range: bad JSON, a missing field, an
    unparsable rational, duplicate points, an option outside its domain.

    Also a ``ValueError``, so callers that catch that keep working.
    """
