"""Exception types shared across the package."""


class QbernError(Exception):
    """Base class for all qbern errors."""


class ContextMismatch(QbernError):
    """Operands belong to different arithmetic contexts."""


class DivisionByZero(QbernError, ZeroDivisionError):
    """Division by an (exactly or certifiably) zero value."""


class PrecisionExhausted(QbernError):
    """A computation would leave no certified digits in the result."""


class RequestedPrecisionNotCertified(QbernError):
    """A comparison was requested beyond the certified precision of an operand."""


class NonIntegerExponentInSymbolicMode(QbernError, TypeError):
    """The symbolic backend only supports integer exponents of q."""


class PoleAtOne(QbernError, ZeroDivisionError):
    """Evaluation at q = 1 hit a pole of the reduced denominator."""


class DomainError(QbernError, ValueError):
    """Arguments fall outside the stated hypotheses of an operation."""


class BudgetExceeded(QbernError):
    """A computation would exceed the term budget, or (as MaxLevelExceeded)
    a Riemann run ended short of its target."""


class MaxLevelExceeded(BudgetExceeded):
    """The adaptive integrator ended its run short of the target: at its
    level cap, or at a level whose sum keeps no digit.

    Carries the best result achieved so far in ``result`` so callers can
    still inspect the value and its certificate.
    """

    def __init__(self, message, result=None):
        super().__init__(message)
        self.result = result
