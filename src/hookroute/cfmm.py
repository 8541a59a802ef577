"""Market primitives: trading functions, forward exchange, and limit orders.

A market is a constant function market maker described by its trading
function kind (constant product, weighted geometric mean, or constant sum),
its reserves, and a fee. A constant-product pool is the geometric-mean pool
with unit weights (`Market.exponents`), so the two share one code path. A
limit order is a (price, volume) pair whose feasible trades form a
trapezoid. The two compose into a single piecewise output curve with a
linear segment at the limit price.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

PRODUCT = "product"
GEOMETRIC_MEAN = "geometric_mean"
SUM = "sum"

_KINDS = (PRODUCT, GEOMETRIC_MEAN, SUM)

# The memory budget of any one solve, simulation, sweep or grid. Each family
# estimates the bytes its own arrays need; `check_budget` refuses one that
# would pass this budget, before anything is allocated.
MAX_SOLVE_BYTES = 10**9


class FieldError(ValueError):
    """A refused input, named in `field` by its config key path or
    command-line option, `""` when it has none. The CLI exits 2 on any
    `ValueError` and prints its `field`."""

    def __init__(self, message, field=""):
        super().__init__(message)
        self.field = field


class NoFeasibleRouteError(Exception):
    """No directed path connects the input asset to the output asset."""


def check_finite(**values):
    """Refuse NaN and infinities from a library caller; `serialize` refuses a
    config's first, naming its key."""
    for name, value in values.items():
        if value is not None and not np.isfinite(value).all():
            raise ValueError(f"{name} must be finite")


def check_budget(need, what, fewer):
    """Refuse `what` when its estimated `need` in bytes passes
    MAX_SOLVE_BYTES; the ValueError suggests using fewer of `fewer`."""
    if need > MAX_SOLVE_BYTES:
        raise ValueError(
            f"{what} would need about {need / 1e6:.0f} MB, over the "
            f"{MAX_SOLVE_BYTES / 1e6:.0f} MB budget; use fewer {fewer}"
        )


@dataclass(frozen=True)
class Market:
    """A CFMM pool: trading-function kind, reserves, and fee in (0, 1]."""

    kind: str
    reserves: tuple[float, ...]
    fee: float = 1.0
    weights: tuple[float, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "reserves", tuple(float(r) for r in self.reserves))
        check_finite(reserves=self.reserves)
        if self.kind not in _KINDS:
            raise ValueError(f"unknown market kind {self.kind!r}")
        if self.kind in (PRODUCT, SUM) and len(self.reserves) != 2:
            raise ValueError(f"{self.kind} market needs exactly 2 reserves")
        if len(self.reserves) < 2:
            raise ValueError("a market needs at least 2 reserves")
        if self.kind == GEOMETRIC_MEAN:
            if self.weights is None:
                raise ValueError("geometric_mean market needs weights")
            object.__setattr__(self, "weights", tuple(float(w) for w in self.weights))
            check_finite(weights=self.weights)
            if len(self.weights) != len(self.reserves):
                raise ValueError("weights and reserves length mismatch")
            if any(w <= 0 for w in self.weights):
                raise ValueError("weights must be strictly positive")
        elif self.weights is not None:
            raise ValueError(f"{self.kind} market takes no weights")
        if any(r <= 0 for r in self.reserves):
            raise ValueError("reserves must be strictly positive")
        if not 0.0 < self.fee <= 1.0:
            raise ValueError("fee must lie in (0, 1]")
        if self.kind == SUM and max(self.reserves) / self.fee == math.inf:
            # Routing trades a constant-sum pool as two limit orders, whose
            # full fills tender reserve / fee.
            raise ValueError("a constant-sum pool's reserve / fee must be finite")

    @property
    def n_assets(self) -> int:
        return len(self.reserves)

    @property
    def exponents(self) -> tuple[float, ...]:
        """Exponents w of a log-invariant pool, whose invariant is sum(w log R).

        A constant-product pool is the unit-weight geometric-mean pool, so its
        exponents are all 1. Constant-sum pools do not use them.
        """
        return self.weights or (1.0,) * self.n_assets


@dataclass(frozen=True)
class LimitOrder:
    """Standing offer to pay `price` output per input, up to `volume` output."""

    price: float
    volume: float
    input_asset: int
    output_asset: int

    def __post_init__(self):
        check_finite(price=self.price, volume=self.volume)
        if self.price <= 0:
            raise ValueError("limit price must be positive")
        if self.volume < 0:
            raise ValueError("volume must be nonnegative")
        if self.input_asset == self.output_asset:
            raise ValueError("input and output asset must differ")
        if self.volume / self.price == math.inf:
            raise ValueError("a full fill tenders volume / price, which must be finite")


def trading_function(market: Market, reserves) -> float:
    """Evaluate the market's trading function at a reserve vector."""
    if len(reserves) != market.n_assets:
        raise ValueError("reserve vector length mismatch")
    if any(r < 0 for r in reserves):
        raise ValueError("reserves must be nonnegative")
    if market.kind == SUM:
        return reserves[0] + reserves[1]
    return math.prod(r**w for r, w in zip(reserves, market.exponents))


def forward_exchange(market: Market, input_index: int, output_index: int, amount_in: float) -> float:
    """Output received for tendering `amount_in`, holding the invariant fixed.

    The fee is charged on the input side: only fee * amount_in enters the
    reserves. Constant-sum output is capped at the output reserve.
    """
    if amount_in < 0:
        raise ValueError("amount_in must be nonnegative")
    _check_pair(market, input_index, output_index)
    if amount_in == 0:
        return 0.0
    return float(forward_exchange_batch(market, input_index, output_index, amount_in))


def forward_exchange_batch(market: Market, input_index: int, output_index: int, amounts):
    """`forward_exchange` over an array of input amounts, without validation.

    For a log-invariant pool (product or geometric mean) only the input and
    output reserves move, so the invariant solves in closed form:
    out = -r_out * expm1(-(w_in / w_out) * log1p(fee * amount / r_in)).
    """
    amounts = np.asarray(amounts, dtype=float)
    fee = market.fee
    r_in = market.reserves[input_index]
    r_out = market.reserves[output_index]
    if market.kind == SUM:
        return np.minimum(fee * amounts, r_out)
    w = market.exponents
    ratio = w[input_index] / w[output_index]
    return -r_out * np.expm1(-ratio * np.log1p(fee * amounts / r_in))


def marginal_rate(market: Market, input_index: int, output_index: int, amount_in: float) -> float:
    """Instantaneous exchange rate dG/d(amount) at trade size `amount_in`."""
    if amount_in < 0:
        raise ValueError("amount_in must be nonnegative")
    _check_pair(market, input_index, output_index)
    fee = market.fee
    r_in = market.reserves[input_index]
    r_out = market.reserves[output_index]
    if market.kind == SUM:
        if fee * amount_in > r_out:
            raise ValueError("trade exceeds constant-sum output reserve")
        return fee
    # Log-invariant pool: x_out = r_out * (r_in / x_in)^ratio, taken directly
    # because r_out minus the output cancels when little of r_out is left.
    w = market.exponents
    ratio = w[input_index] / w[output_index]
    x_out = r_out * math.exp(-ratio * math.log1p(fee * amount_in / r_in))
    return fee * ratio * x_out / (r_in + fee * amount_in)


def _check_pair(market: Market, input_index: int, output_index: int):
    n = market.n_assets
    if not (0 <= input_index < n and 0 <= output_index < n):
        raise ValueError("asset index out of range")
    if input_index == output_index:
        raise ValueError("input and output index must differ")


@dataclass(frozen=True)
class ModifiedExchangeCurve:
    """A market's output curve spliced with one limit order.

    `delta1` is the input size at which the pool's marginal rate first drops
    to the order price, `delta2 = delta1 + volume / price` the size at which
    the order is used up. Between them the curve is linear with slope equal
    to the order price.
    """

    market: Market
    order: LimitOrder
    delta1: float
    delta2: float
    input_index: int = 0
    output_index: int = 1


def solve_breakpoint(market: Market, order: LimitOrder, input_index: int = 0, output_index: int = 1):
    """Locate the activation and exhaustion input sizes for the order.

    Returns (delta1, delta2), both in closed form. If the pool's spot rate
    (its marginal rate at zero size) is at or below the order price, the
    order is consumed first and delta1 = 0. A constant-sum pool whose rate
    stays above the price activates the order at its capacity point,
    r_out / fee, past which its rate is zero. On a log-invariant pool the
    rate after tendering delta is spot * (r_in / (r_in + fee delta))^(1 + w_in
    / w_out), so it falls to the price at
    delta1 = r_in * expm1(log(spot / price) / (1 + w_in / w_out)) / fee.
    delta1 is infinite only when spot / price, or delta1 itself, overflows.
    """
    price = order.price
    spot = marginal_rate(market, input_index, output_index, 0.0)
    if spot <= price:
        delta1 = 0.0
    elif market.kind == SUM:
        delta1 = market.reserves[output_index] / market.fee
    else:
        w = market.exponents
        growth = math.expm1(math.log(spot / price) / (1.0 + w[input_index] / w[output_index]))
        delta1 = market.reserves[input_index] * growth / market.fee
    return delta1, delta1 + order.volume / price


def compose_with_order(market: Market, order: LimitOrder, input_index: int = 0, output_index: int = 1) -> ModifiedExchangeCurve:
    """Build the spliced curve for a market plus one limit order."""
    delta1, delta2 = solve_breakpoint(market, order, input_index, output_index)
    return ModifiedExchangeCurve(market, order, delta1, delta2, input_index, output_index)


def modified_forward_exchange(curve: ModifiedExchangeCurve, amount_in: float) -> float:
    """Output of the market-plus-order composition for a given input size."""
    if amount_in < 0:
        raise ValueError("amount_in must be nonnegative")
    d1, d2 = curve.delta1, curve.delta2
    base = lambda x: forward_exchange(curve.market, curve.input_index, curve.output_index, x)
    if amount_in <= d1:
        return base(amount_in)
    price = curve.order.price
    if amount_in < d2:
        return base(d1) + price * (amount_in - d1)
    return base(amount_in - (d2 - d1)) + price * (d2 - d1)
