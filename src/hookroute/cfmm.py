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


def check_finite(**values):
    """Refuse NaN and infinities, which JSON configs can carry (`NaN`, `Infinity`)."""
    for name, value in values.items():
        if value is not None and not np.isfinite(value).all():
            raise ValueError(f"{name} must be finite")


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


@dataclass(frozen=True)
class Trade2:
    """A two-asset trade: z1 tendered, z2 received."""

    z1: float
    z2: float

    def __post_init__(self):
        if self.z1 < 0 or self.z2 < 0:
            raise ValueError("trade legs must be nonnegative")


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


def limit_order_contains(order: LimitOrder, trade: Trade2) -> bool:
    """Feasibility of a trade against the order's trapezoidal trading set."""
    return order.price * trade.z1 - trade.z2 >= 0 and trade.z2 <= order.volume


def best_order_output(orders, amount_in: float) -> float:
    """Max combined output for `amount_in` split across orders (greedy by price)."""
    remaining = amount_in
    total = 0.0
    for order in sorted(orders, key=lambda o: -o.price):
        if remaining <= 0:
            break
        take = min(remaining, order.volume / order.price) if order.price > 0 else 0.0
        total += order.price * take
        remaining -= take
    return total


def minkowski_contains(orders, trade: Trade2, tol: float = 1e-9) -> bool:
    """Membership in the Minkowski sum of the orders' trading sets.

    A point decomposes across orders iff its output is at most the best
    achievable output for its input, which the greedy price-ordered fill
    attains exactly (the per-order output curves are concave and separable).
    """
    pairs = {(o.input_asset, o.output_asset) for o in orders}
    if len(pairs) > 1:
        raise ValueError("orders must share one asset pair")
    return trade.z2 <= best_order_output(orders, trade.z1) + tol


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


@dataclass(frozen=True)
class LiquidityStep:
    """Rectangular liquidity block of fixed area `volume` around `center`."""

    center: float
    halfwidth: float
    volume: float

    def __post_init__(self):
        if self.center <= 0:
            raise ValueError("center price must be positive")
        if self.halfwidth <= 0:
            raise ValueError("halfwidth must be positive")
        if self.volume < 0:
            raise ValueError("volume must be nonnegative")

    @property
    def height(self) -> float:
        # Area is exactly volume: height * (2 * halfwidth).
        return self.volume / (2.0 * self.halfwidth)

    def density(self, price: float) -> float:
        if abs(price - self.center) <= self.halfwidth:
            return self.height
        return 0.0


def liquidity_step_sequence(price: float, volume: float, halfwidths) -> list[LiquidityStep]:
    """Steps of shrinking width and constant area around a limit price."""
    if any(h <= 0 for h in halfwidths):
        raise ValueError("halfwidths must be positive")
    return [LiquidityStep(price, h, volume) for h in halfwidths]
