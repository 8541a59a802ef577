"""Built-in routing scenarios used by the CLI and the test battery."""

from __future__ import annotations

from .cfmm import GEOMETRIC_MEAN, PRODUCT, SUM, LimitOrder, Market
from .routing import Liquidate, RoutingProblem

# Two-link network: one constant-product pool and one standing order on the
# same pair. Constants are configuration defaults, chosen so the order
# activates strictly inside the swept input range.
PIGOU_RESERVES = (10.0, 10.0)
PIGOU_ORDER_PRICE = 0.5
PIGOU_ORDER_VOLUME = 2.0


def pigou_problem(budget: float) -> RoutingProblem:
    """Two assets, one constant-product pool and one limit order."""
    return RoutingProblem(
        n_assets=2,
        markets=[(Market(PRODUCT, PIGOU_RESERVES, 1.0), (0, 1))],
        orders=[LimitOrder(PIGOU_ORDER_PRICE, PIGOU_ORDER_VOLUME, 0, 1)],
        utility=Liquidate(0, 1, budget),
    )


def table1_problem(budget: float) -> RoutingProblem:
    """Three assets, five pools, and two standing orders from asset 0 to 2.

    Pool kinds, fees, and reserves follow the shipped benchmark network; the
    orders quote 0.5 and 0.2 output per input with volumes 40 and 20.
    """
    markets = [
        (Market(GEOMETRIC_MEAN, (3.0, 0.2, 1.0), 0.98, weights=(3.0, 2.0, 1.0)), (0, 1, 2)),
        (Market(PRODUCT, (10.0, 1.0), 0.99), (0, 1)),
        (Market(PRODUCT, (1.0, 10.0), 0.96), (1, 2)),
        (Market(PRODUCT, (20.0, 50.0), 0.97), (0, 2)),
        (Market(SUM, (10.0, 10.0), 0.99), (1, 2)),
    ]
    return RoutingProblem(
        n_assets=3,
        markets=markets,
        orders=[LimitOrder(0.5, 40.0, 0, 2), LimitOrder(0.2, 20.0, 0, 2)],
        utility=Liquidate(0, 2, budget),
    )


SCENARIOS = {
    "pigou": pigou_problem,
    "table1": table1_problem,
}
