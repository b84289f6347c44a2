"""Exception hierarchy shared by all goodmat modules."""


class GoodmatError(Exception):
    """Base class for all package-specific errors."""


class InvalidInputError(GoodmatError, ValueError):
    """A caller violated a documented precondition."""


class ParseError(InvalidInputError):
    """Malformed textual input."""


class InternalError(GoodmatError):
    """An invariant that should be unreachable was violated (upstream bug)."""


class ConstructionError(GoodmatError):
    """A matrix construction failed its exact verification (soundness bug)."""
