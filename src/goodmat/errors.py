"""Exception hierarchy shared by all goodmat modules."""

from __future__ import annotations


class GoodmatError(Exception):
    """Base class for all package-specific errors."""


class InvalidInputError(GoodmatError, ValueError):
    """A caller violated a documented precondition."""


class ParseError(InvalidInputError):
    """Malformed textual input; carries the offending position when known."""

    def __init__(self, message: str, position: int | None = None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class InternalError(GoodmatError):
    """An invariant that should be unreachable was violated (upstream bug)."""


class InfeasibleInstanceError(GoodmatError):
    """A CNF instance is unsatisfiable by construction; no search is needed."""


class ConstructionError(GoodmatError):
    """A matrix construction failed its exact verification (soundness bug)."""
