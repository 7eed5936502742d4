"""Exception types shared across the workbench.

Everything raised on purpose derives from FractermError so callers (and the
CLI) can distinguish domain errors from bugs.
"""


class FractermError(Exception):
    """Base class for all domain errors."""


class ParseError(FractermError):
    """Malformed term text. Carries the offending position when known."""

    def __init__(self, message, position=None):
        self.position = position
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)


class NotAFracterm(FractermError):
    """A numerator/denominator was requested from a term whose root is not a division."""


class OpenTerm(FractermError):
    """Evaluation or rewriting was attempted on a term containing variables."""


class ShapeMismatch(FractermError):
    """Two instances from different shapes were combined."""


class LabelMismatch(FractermError):
    """A conversion was requested between shapes of different labels."""


class UnsupportedShape(FractermError):
    """Unknown shape id, or a recognized label with no finite presentation here."""


class UnsupportedOperation(FractermError):
    """An operation a shape does not support, or an argument that is no term, number or instance."""


class NegativeIntoNat(FractermError):
    """A negative integer cannot be encoded into a shape for naturals."""


class CapacityError(FractermError):
    """An input past a budget: a set-nat cap or JSON budget (``shapes.SET_NAT_*``),
    ``shapes.NORMALITY_BOUND``, ``rewrite.FLATTEN_DEPTH``, ``cli.SCRIPT_BYTES``,
    or Python's int/str digit limit."""


class DivisionByZero(FractermError):
    """Division by zero under the partial policy."""


class NotSimple(FractermError):
    """An operation restricted to simple fracterms received something else."""


class StrategyInapplicable(FractermError):
    """The chosen addition strategy does not apply to the given operands."""


class ScriptError(FractermError):
    """Malformed assertion script. Carries the offending line when known."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class DanglingReference(ScriptError):
    """A script claim refers to an assertion index that does not exist."""


class LevelConflict(FractermError):
    """An occurrence received two incompatible forced levels."""
