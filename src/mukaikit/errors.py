"""Exception hierarchy shared across the package.

Two error families matter to callers: malformed inputs (wrong shapes,
mismatched lattices, unparseable config) and violated mathematical
hypotheses (a polarization sitting on a wall, a rank-0 vector where a
positive rank is required). A third, broken internal invariants, is a
defect of this package rather than of the input. The CLI maps the three
to distinct exit codes.
"""


class MukaikitError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(MukaikitError):
    """Structurally invalid input: shapes, types, or config fields."""


class LatticeMismatchError(ValidationError):
    """Operands live in different lattices."""


class HypothesisViolation(MukaikitError):
    """A mathematical precondition of the requested operation fails."""


class InternalError(MukaikitError):
    """An invariant that holds for every valid input was found broken."""


class IntegralityWarning(UserWarning):
    """A class expected to be integral has a fractional component."""
