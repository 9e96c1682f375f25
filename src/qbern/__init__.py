"""Exact arithmetic for Carlitz q-Bernoulli numbers, q-Bernstein polynomials
and the p-adic q-integral on Z_p, with symbolic and p-adic identity
verification."""

from .bernstein import BernsteinSpec, bernstein_eval
from .carlitz import CarlitzTable, classical_bernoulli, eval_at_one, table_for
from .errors import (
    BudgetExceeded,
    ContextMismatch,
    DivisionByZero,
    DomainError,
    MaxLevelExceeded,
    NonIntegerExponentInSymbolicMode,
    PoleAtOne,
    PrecisionExhausted,
    QbernError,
    RequestedPrecisionNotCertified,
)
from .identities import (
    IdentityReport,
    SuiteConfig,
    Verdict,
    run_suite,
    suite_exit_status,
)
from .integral import (
    BernsteinProduct,
    BracketPower,
    ReflectedPower,
    RiemannResult,
    bernstein_power_product_integral,
    closed_bracket_power,
    closed_one_minus_x_power,
    closed_reflected_power,
    integrate,
    riemann_sum,
)
from .padic import PadicContext, PadicNumber
from .qfield import (
    QContext,
    RationalFunction,
    Scalar,
    invert_q,
    q_bracket,
    q_pow,
    scalars_equal,
)

__version__ = "0.1.0"
