"""Exception hierarchy shared by all divaut modules."""


class DivautError(Exception):
    """Base class for semantic errors raised by this package."""


class SemiringMismatch(DivautError):
    pass


class AlphabetMismatch(DivautError):
    pass


class UnknownSymbol(DivautError):
    pass


class EmptyWordAccepted(DivautError):
    """Normalization requires the input to reject the empty word."""


class WrongClass(DivautError):
    """An operation received an automaton outside its structural class."""


class NotNormalized(WrongClass):
    pass


class NotLoopback(WrongClass):
    pass


class ImproperStar(DivautError):
    """star / omega / zeta / conjoin need operands with zero empty-word
    coefficient; anything else makes the defining sums ill-founded."""


class UnsupportedExactDecision(DivautError):
    """Activation must be decided over a semiring that cancels but is not a
    field, where no exact rule applies (every built-in semiring has one).
    An explicit ``horizon:K`` policy still answers, approximately."""


class DivautParseError(DivautError):
    """Input text rejected, with position information for diagnostics."""

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"line {line}, column {column}: {message}"
        super().__init__(message)
