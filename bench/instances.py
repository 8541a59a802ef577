"""Seeded routing networks for the routing-scale workload.

The workload is a family of networks, one per entry of SHAPES, cycled in
order. Everything about a network comes from a fixed family seed: which
assets each pool and order joins, the pool kinds and sizes, reserves, fees,
geometric weights, order quotes and volumes, and the budget. The workload
seed relabels the assets and shuffles the order of the pools and of the
orders, so every seed poses the same problems under different labels.
Drawing the amounts from the workload seed instead, even within 10%, moved
many solves between stages of the solver's escalation ladder (2-5x in
time), and the median solve time of a run then swung by more than any
allowed bound. Relabeling still exercises the solver's dependence on
labels: network 9 certifies under some labelings and stops at max_iter
under others.

Every network is connected by construction: a random spanning tree of
constant-product pools joins all assets before any other pool is added, so
the liquidation always has a route. Large geometric-mean pools (whose best
response enumerates 3^n roles) sit in networks with one or two orders and
no constant-sum pool; the kinked networks, with constant-sum pools and
several orders, carry small geometric pools. Reserves follow reference
prices with small noise, so each network holds some arbitrage.
"""

from __future__ import annotations

import numpy as np

from hookroute.cfmm import GEOMETRIC_MEAN, PRODUCT, SUM, LimitOrder, Market
from hookroute.routing import Liquidate, RoutingProblem

FAMILY_SEED = 20250204

# Network shapes, cycled in order: (assets, pools, geometric pool sizes,
# constant-sum pools, limit orders).
SHAPES = (
    (6, 10, (3,), 1, 2),
    (7, 12, (6,), 0, 1),
    (8, 14, (4,), 1, 3),
    (8, 12, (8,), 0, 1),
    (10, 18, (5,), 2, 2),
    (7, 11, (7,), 0, 1),
    (9, 16, (3,), 2, 4),
    (6, 12, (6,), 0, 2),
    (9, 15, (4, 3), 1, 2),
    (10, 20, (3,), 3, 3),
    (7, 13, (5,), 1, 1),
    (8, 16, (3, 6), 0, 2),
)


def _log_uniform(rng, lo, hi):
    return float(np.exp(rng.uniform(np.log(lo), np.log(hi))))


def _pair_pool(rng, kind, a, b, price):
    value = _log_uniform(rng, 50.0, 5000.0)
    noise = np.exp(rng.normal(0.0, 0.05, 2))
    fee = float(rng.uniform(0.97, 0.999))
    if kind == SUM:
        level = value / np.sqrt(price[a] * price[b])
        reserves = (level * noise[0], level * noise[1])
    else:
        reserves = (value / price[a] * noise[0], value / price[b] * noise[1])
    return Market(kind, tuple(float(r) for r in reserves), fee), (int(a), int(b))


def _geometric_pool(rng, k, n_assets, price):
    assets = rng.choice(n_assets, size=k, replace=False)
    weights = rng.uniform(1.0, 3.0, k)
    value = _log_uniform(rng, 100.0, 5000.0)
    noise = np.exp(rng.normal(0.0, 0.05, k))
    reserves = weights / weights.sum() * value / price[assets] * noise
    market = Market(
        GEOMETRIC_MEAN,
        tuple(float(r) for r in reserves),
        float(rng.uniform(0.97, 0.999)),
        weights=tuple(float(w) for w in weights),
    )
    return market, tuple(int(a) for a in assets)


def _closest_pair(rng, n_assets, log_price):
    best = None
    for _ in range(4):
        a, b = rng.choice(n_assets, size=2, replace=False)
        gap = abs(log_price[a] - log_price[b])
        if best is None or gap < best[0]:
            best = (gap, a, b)
    return best[1], best[2]


def _family_network(index):
    n, n_pools, geometric_sizes, n_sum, n_orders = SHAPES[index % len(SHAPES)]
    rng = np.random.default_rng([FAMILY_SEED, index])
    log_price = rng.normal(0.0, 1.0, n)
    price = np.exp(log_price)
    markets = []
    order = rng.permutation(n)
    for k in range(1, n):
        markets.append(_pair_pool(rng, PRODUCT, order[k], order[rng.integers(k)], price))
    for size in geometric_sizes:
        markets.append(_geometric_pool(rng, size, n, price))
    for _ in range(n_sum):
        a, b = _closest_pair(rng, n, log_price)
        markets.append(_pair_pool(rng, SUM, a, b, price))
    while len(markets) < n_pools:
        a, b = rng.choice(n, size=2, replace=False)
        markets.append(_pair_pool(rng, PRODUCT, a, b, price))

    orders = []
    for _ in range(n_orders):
        a, b = rng.choice(n, size=2, replace=False)
        quote = price[a] / price[b] * rng.uniform(0.9, 1.02)
        volume = _log_uniform(rng, 5.0, 200.0) / price[b]
        orders.append(LimitOrder(float(quote), volume, int(a), int(b)))

    source, target = (int(x) for x in rng.choice(n, size=2, replace=False))
    budget = _log_uniform(rng, 10.0, 500.0) / price[source]
    return RoutingProblem(n, markets, orders, Liquidate(source, target, budget))


def scale_instance(seed: int, index: int) -> RoutingProblem:
    """Network `index` of the family, relabeled and reordered by `seed`."""
    base = _family_network(index)
    rng = np.random.default_rng([seed, index])
    label = rng.permutation(base.n_assets)
    markets = [(m, tuple(int(label[a]) for a in assets)) for m, assets in base.markets]
    orders = [
        LimitOrder(o.price, o.volume, int(label[o.input_asset]), int(label[o.output_asset]))
        for o in base.orders
    ]
    util = base.utility
    return RoutingProblem(
        base.n_assets,
        [markets[i] for i in rng.permutation(len(markets))],
        [orders[i] for i in rng.permutation(len(orders))],
        Liquidate(int(label[util.input_asset]), int(label[util.output_asset]), util.budget),
    )


def descriptors(problem: RoutingProblem) -> dict:
    """Shape of one instance: assets, pools by kind, largest geometric pool, orders."""
    kinds = [m.kind for m, _ in problem.markets]
    geometric = [m.n_assets for m, _ in problem.markets if m.kind == GEOMETRIC_MEAN]
    return {
        "assets": problem.n_assets,
        "product": kinds.count(PRODUCT),
        "sum": kinds.count(SUM),
        "geometric": kinds.count(GEOMETRIC_MEAN),
        "largest_geometric": max(geometric, default=0),
        "orders": len(problem.orders),
    }
