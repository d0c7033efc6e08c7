"""Exception types shared across the package.

Validation errors signal bad inputs (games, vectors, files, flags) and map
to exit code 1 in the CLI; oracle errors signal a misbehaving black-box
value oracle and map to exit code 2.
"""


class SolverError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(SolverError, ValueError):
    """Invalid input to a solver operation."""


class DuplicateCoalition(ValidationError):
    pass


class NonzeroEmptySet(ValidationError):
    pass


class PlayerOutOfRange(ValidationError):
    pass


class PlayerCountMismatch(ValidationError):
    pass


class EmptySupportCoalition(ValidationError):
    pass


class LengthMismatch(ValidationError):
    pass


class NegativePayoff(ValidationError):
    pass


class TooManyPlayers(ValidationError):
    pass


class NotIndivisible(ValidationError):
    """Grand-coalition value is not a nonnegative integer."""


class EmptyFeasibleSet(ValidationError):
    """No integer quota vector lies in the core (cannot happen for convex integer games)."""


class InvalidRange(ValidationError):
    pass


class DegenerateTotal(ValidationError):
    """All shifted attributions are zero; nothing to scale."""


class AlphaOutOfRange(ValidationError):
    pass


class NegativeDividend(ValidationError):
    pass


class NonIntegerResidue(ValidationError):
    """Dividend residue multiplicities must be whole numbers."""


class NoBallots(ValidationError):
    pass


class AllZeroVotes(ValidationError):
    pass


class ParseError(ValidationError):
    """Malformed input file; message carries source and line number."""

    def __init__(self, source: str, line: int, message: str):
        super().__init__(f"{source}:{line}: {message}")
        self.source = source
        self.line = line


class OracleFailure(SolverError):
    """A black-box value oracle failed; message carries the offending query."""


class SpawnFailure(OracleFailure):
    pass


class ProtocolViolation(OracleFailure):
    pass


class ChildExited(OracleFailure):
    pass
