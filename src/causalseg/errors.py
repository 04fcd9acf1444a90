"""Exception types raised by the library.

Every contract violation raises a structured error from this module rather
than a bare ValueError, so callers can map failures to exit codes without
string matching.
"""


class CausalSegError(Exception):
    """Base class for all library errors."""


class ShapeError(CausalSegError):
    """Operand shapes violate an operation's contract."""

    def __init__(self, op: str, *shapes, detail: str = ""):
        self.op = op
        self.shapes = tuple(tuple(s) for s in shapes)
        msg = f"{op}: incompatible shapes {' vs '.join(str(s) for s in self.shapes)}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


class DomainError(CausalSegError):
    """An input value lies outside the operator's mathematical domain."""


class DegenerateInputError(CausalSegError):
    """Too few elements for a well-defined result (e.g. variance over one value)."""


class TapeError(CausalSegError):
    """Misuse of a gradient tape (e.g. second backward pass)."""


class SimplexError(CausalSegError):
    """A sample-weight vector violates the scaled-simplex constraint."""


class NonFiniteError(CausalSegError):
    """A NaN or infinity appeared where the contract requires finite values."""

    def __init__(self, msg: str, index=None):
        self.index = index
        if index is not None:
            msg = f"{msg} (index {index})"
        super().__init__(msg)


class ConfigError(CausalSegError):
    """Invalid or inconsistent configuration."""
