"""Exception types shared across the package."""


class PmatError(Exception):
    """Base class for all errors raised by this package."""


class ShapeError(PmatError):
    """Dimension or modulus mismatch between operands."""


class ParseError(PmatError):
    """Malformed pmat text; carries a line number when available."""

    def __init__(self, message, line=None):
        if line is not None:
            message = "line %d: %s" % (line, message)
        super().__init__(message)
        self.line = line


class PreconditionError(PmatError):
    """A documented precondition of an operation was violated."""


class SingularMatrixError(PreconditionError):
    """A matrix required to be nonsingular (or column reduced) is not."""


class InternalInvariantError(PmatError):
    """An internal consistency check failed; indicates a bug, not bad input."""
