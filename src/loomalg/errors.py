"""Error types shared across the package.

Every error carries a short stable ``code`` so the CLI can report failures
uniformly without string matching on messages.
"""

from __future__ import annotations


class LoomError(Exception):
    """Base class for all package errors."""

    code = "error"

    def __init__(self, message: str, *, code: str | None = None):
        super().__init__(message)
        if code is not None:
            self.code = code


class FieldMismatch(LoomError):
    code = "field-mismatch"


class RootOrderUnavailable(LoomError):
    """A root of unity of the requested order does not exist in the session field."""

    code = "root-order-unavailable"


class DimensionMismatch(LoomError):
    code = "dimension-mismatch"


class NotAnAutomorphism(LoomError):
    code = "not-an-automorphism"


class InvalidGrading(LoomError):
    code = "invalid-grading"


class HypothesisNotMet(LoomError):
    """An operation's structural precondition failed (e.g. base not central simple)."""

    code = "hypothesis-not-met"


class NotLie(LoomError):
    """A Lie-algebra precondition (anticommutativity + Jacobi) failed."""

    code = "not-lie"


class NotSimple(LoomError):
    """A simplicity precondition failed."""

    code = "not-simple"


class NotSplit(LoomError):
    """A split certificate was demanded and could not be produced."""

    code = "not-split"


class Undecided(LoomError):
    """The bounded search underlying a decision procedure was exhausted."""

    code = "undecided"


class InvariantViolated(LoomError):
    """An exact computation broke an invariant that its mathematics
    guarantees (say, no coordinates for a vector a span must hold).
    This signals a library defect, never a property of the input."""

    code = "invariant-violated"
