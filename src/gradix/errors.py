"""Shared exception hierarchy.

Exit-code mapping used by the CLI: usage problems exit 1, scope refusals
(subclasses of ScopeError) exit 2, theorem-contradiction events exit 3.
"""

from __future__ import annotations


class GradixError(Exception):
    """Base class for all library errors."""


class FieldMismatch(GradixError):
    pass


class RingMismatch(GradixError):
    pass


class ParseError(GradixError):
    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)


class ScopeError(GradixError):
    """A computation was refused because the input is outside certified scope."""


class CharacteristicForbidden(ScopeError):
    def __init__(self, p: int):
        self.characteristic = p
        super().__init__(f"coefficient characteristic {p} is forbidden for this computation")


class NotZeroDimensional(ScopeError):
    pass


class NotGraded(ScopeError):
    pass


class NotPositivelyGraded(ScopeError):
    pass


class NotIrrelevantPrimary(ScopeError):
    pass


class NotStarArtinian(ScopeError):
    pass


class RadicalNotMaximal(ScopeError):
    pass


class MissingBound(ScopeError):
    pass


class CapExceeded(ScopeError):
    """A phase did more steps of work than its budget allows."""

    def __init__(self, phase: str, cap: int):
        self.phase = phase
        self.cap = cap
        super().__init__(f"{phase} passed its cap of {cap} steps")


class ContainmentFailure(GradixError):
    pass


class NoNonzerodivisorFound(GradixError):
    pass


class ConsistencyFailure(GradixError):
    """Two independent algorithms for the same value disagreed."""


class TheoremContradiction(GradixError):
    """A computation contradicted a proved statement.

    Never swallowed: carries a machine-readable payload so reports can
    surface exactly which instance misbehaved.
    """

    def __init__(self, statement: str, payload: dict):
        self.statement = statement
        self.payload = payload
        super().__init__(f"theorem contradiction [{statement}]: {payload}")
