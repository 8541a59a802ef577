"""Trade routing and execution toolkit for CFMM networks with hooks."""

__version__ = "0.1.0"

from .cfmm import (
    GEOMETRIC_MEAN,
    PRODUCT,
    SUM,
    LimitOrder,
    Market,
    ModifiedExchangeCurve,
    compose_with_order,
    forward_exchange,
    marginal_rate,
    modified_forward_exchange,
    solve_breakpoint,
    trading_function,
)

__all__ = [
    "GEOMETRIC_MEAN",
    "PRODUCT",
    "SUM",
    "LimitOrder",
    "Market",
    "ModifiedExchangeCurve",
    "compose_with_order",
    "forward_exchange",
    "marginal_rate",
    "modified_forward_exchange",
    "solve_breakpoint",
    "trading_function",
    "__version__",
]
