"""Exact arithmetic for Carlitz q-Bernoulli numbers, q-Bernstein polynomials
and the p-adic q-integral on Z_p, with symbolic and p-adic identity
verification.

Each public name is loaded from its submodule on first access (PEP 562), so
``import qbern`` alone loads no submodule."""

# submodule -> the public names it defines
_PUBLIC = {
    "bernstein": ("BernsteinSpec", "bernstein_eval"),
    "carlitz": ("CarlitzTable", "classical_bernoulli", "eval_at_one", "table_for"),
    "config": ("SuiteConfig",),
    "errors": ("BudgetExceeded", "ContextMismatch", "DivisionByZero", "DomainError",
               "MaxLevelExceeded", "NonIntegerExponentInSymbolicMode", "PoleAtOne",
               "PrecisionExhausted", "QbernError", "RequestedPrecisionNotCertified"),
    "identities": ("IdentityReport", "Verdict", "run_suite", "suite_exit_status"),
    "integral": ("BernsteinProduct", "BracketPower", "ReflectedPower", "RiemannResult",
                 "bernstein_power_product_integral", "closed_bracket_power",
                 "closed_one_minus_x_power", "closed_reflected_power", "integrate",
                 "riemann_sum"),
    "padic": ("PadicContext", "PadicNumber"),
    "qfield": ("QContext", "RationalFunction", "Scalar", "invert_q", "q_bracket", "q_pow",
               "scalars_equal"),
}
_HOME = {name: module for module, names in _PUBLIC.items() for name in names}
__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    """A public name, from its submodule; any other name is no attribute, so
    ``from qbern import cli`` imports the submodule ``cli``."""
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(__import__(f"{__name__}.{_HOME[name]}", fromlist=[name]), name)
    globals()[name] = value
    return value


def __dir__() -> list:
    return sorted({*globals(), *__all__})
