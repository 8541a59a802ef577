"""Optimal trade routing across CFMMs and limit orders.

The routing problem maximizes the output of a liquidation over the joint
feasible set of every market and standing order. It is one convex program:
each log-invariant pool's (product or geometric mean) tendered and received
amounts under its invariant, each order's fill in its box, and a
nonnegative balance of every asset. A constant-sum pool is exactly two
limit orders, one per direction, each paying the fee in the other asset per
unit tendered up to that asset's reserve (`_sum_orders`), so the program
has one pool kind. One primal-dual interior-point method (Mehrotra
predictor-corrector) in numpy solves it at a list of budgets at once: each
budget is a lane, the program is built once, and each Newton step is one
stacked solve over the lanes. `solve_curve` runs a budget grid this way and
`solve_routing` is the batch of one; no lane's arithmetic reads another's,
so the two agree bit for bit.

Every lane is certified by the exact dual: at strictly positive asset
prices, the budget's worth plus each pool's and order's best response
bounds the output of any feasible route. An order fills fully or not at
all. Every log-invariant pool (a product pool is the unit-weight
geometric-mean pool) has one best response: it sorts its assets by price
times reserve over exponent, and its KKT conditions make the tendered
assets a prefix and the received ones a suffix of that order, so only
O(n^2) splits are checked. The lanes due for a certificate are rounded and
bounded together, over the program's index arrays like the Newton step,
each by its own arithmetic. No scipy module is used.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import cfmm
from .cfmm import (
    SUM,
    FieldError,
    LimitOrder,
    Market,
    NoFeasibleRouteError,
    check_budget,
    trading_function,
)

STATUS_OPTIMAL = "optimal"
STATUS_MAX_ITER = "max_iter"

# A solve is `optimal` when its dual bound exceeds its output by at most
# TOL * max(1e-7 * scale, |bound|), scale being the output asset's largest
# reserve or order volume: a relative gap, in whatever unit the output is
# counted.
TOL = 1e-7
MAX_ITER = 200


@dataclass(frozen=True)
class Liquidate:
    """Spend up to `budget` of `input_asset` to maximize `output_asset` received."""

    input_asset: int
    output_asset: int
    budget: float

    def __post_init__(self):
        if not math.isfinite(self.budget) or self.budget < 0:
            raise ValueError("budget must be finite and nonnegative")
        if self.input_asset == self.output_asset:
            raise ValueError("input and output asset must differ")


@dataclass
class RoutingProblem:
    n_assets: int
    markets: list[tuple[Market, tuple[int, ...]]]
    orders: list[LimitOrder]
    utility: Liquidate

    def __post_init__(self):
        self.markets = [(m, tuple(a)) for m, a in self.markets]
        for k, (market, assets) in enumerate(self.markets):
            field = f"markets[{k}].assets"
            if len(assets) != market.n_assets:
                raise FieldError("asset map length must match market size", field)
            if any(not 0 <= a < self.n_assets for a in assets):
                raise FieldError("asset map entry out of range", field)
            if len(set(assets)) != len(assets):
                raise FieldError("asset map entries must be distinct", field)
        legs = [("order", f"orders[{k}]", order) for k, order in enumerate(self.orders)]
        for kind, path, leg in legs + [("utility", "utility.liquidate", self.utility)]:
            for key, a in (("input", leg.input_asset), ("output", leg.output_asset)):
                if not 0 <= a < self.n_assets:
                    raise FieldError(f"{kind} asset out of range", f"{path}.{key}")

    @property
    def trade_assets(self) -> list[tuple[int, ...]]:
        """The global assets of each of a solution's `market_trades`: each
        market's, then each order's (input, output)."""
        return [assets for _, assets in self.markets] + [(o.input_asset, o.output_asset) for o in self.orders]


@dataclass
class RoutingSolution:
    psi: np.ndarray
    # (tendered, received) over `RoutingProblem.trade_assets`: one pair per
    # market, then one per order.
    market_trades: list[tuple[np.ndarray, np.ndarray]]
    utility_value: float
    status: str
    dual_prices: np.ndarray
    gap: float
    iterations: int
    budget: float  # the budget solved at, which `solve_curve` takes from its grid


def _sum_orders(market, assets):
    """A constant-sum pool as its two limit orders, from a to b and from b to a.

    Each pays `fee` of the other asset per unit tendered, up to that
    asset's reserve. After netting, the two allow the pool's trades.
    """
    (a, b), fee = assets, market.fee
    return LimitOrder(fee, market.reserves[1], a, b), LimitOrder(fee, market.reserves[0], b, a)


def _trading_sets(problem):
    """The problem's log-invariant pools, and its orders followed by the two
    orders of each constant-sum pool, in market order."""
    pools, orders = [], list(problem.orders)
    for market, assets in problem.markets:
        if market.kind == SUM:
            orders.extend(_sum_orders(market, assets))
        else:
            pools.append((market, assets))
    return pools, orders


def check_solve_size(problem: RoutingProblem):
    """Refuse a problem whose Newton matrices would exceed `cfmm.MAX_SOLVE_BYTES`
    even for one budget, and return the bytes one budget needs.

    Each budget of a solve is a lane (`_interior_point`), and each lane's
    Newton step is one n x n matrix over the n assets (`_newton_solver`),
    8 bytes an entry, summed by a bincount over the matrix's terms: one per
    leg, one per ordered pair of legs in a pool, four per order and one per
    asset. A lane holds two such matrices (the sum and the copy LAPACK
    factors), four arrays over the terms and 48 vectors over the augmented
    system's rows (two per leg, one per order, pool and asset). Certifying
    holds, per lane, an assets x assets loss matrix while it cuts (`_cuts`)
    and twelve arrays over the best response's splits, (k + 1)(k + 2) / 2
    for a pool of k legs (`_best_responses`). A chunk of lanes holds
    MAX_SOLVE_BYTES over the returned count.
    """
    pools, orders = _trading_sets(problem)
    n, sizes = problem.n_assets, [market.n_assets for market, _ in pools]
    legs, terms = sum(sizes), sum(k * (k + 1) for k in sizes) + 4 * len(orders) + n
    rows = 2 * legs + len(orders) + len(pools) + n
    splits = sum((k + 1) * (k + 2) // 2 for k in sizes)
    need = 8 * (3 * n * n + 4 * terms + 48 * rows + 12 * splits)
    check_budget(need, f"the routing solve's {n}-row Newton matrices", "assets, pools or orders")
    return need


def solution_bytes(problem: RoutingProblem):
    """An upper bound on the bytes one `RoutingSolution` of `problem` holds,
    which a curve holds once per budget: 16 per asset (psi and the dual
    prices) and per leg of each trade (tendered and received), 512 per
    trade, a market's or an order's (a tuple of two trade arrays, each with
    a 112-byte header; about 280 traced) and 1700 for the rest (about 520
    traced). Traced: 0.8 KB on the pigou network without its order, 2.8 KB
    on table1, 636 KB on a 200-asset, 2000-pool network."""
    trade_assets = problem.trade_assets
    legs = sum(len(assets) for assets in trade_assets)
    return 1700 + 16 * (problem.n_assets + legs) + 512 * len(trade_assets)


# ---------------------------------------------------------------------------
# Best responses: maximize nu . (received - tendered) over a trading set.
# ---------------------------------------------------------------------------


def _best_responses(prog, nu):
    """Every log-invariant pool's exact best response at each lane's prices
    nu (lanes, n): its value per (lane, pool), and what each leg tenders
    and receives, d and r per (lane, leg).

    The weights w are the pools' exponents, all 1 for a product pool.
    Stationarity fixes each traded reserve to c * w_i / nu_i (scaled by the
    fee on the tendered side) for a scalar c pinned by the invariant. With
    rho_i = nu_i * R_i / w_i, asset i is tendered iff rho_i <= fee * c,
    received iff rho_i >= c and held otherwise, so in rho order the tendered
    assets form a prefix and the received assets a suffix. Each of the
    O(n^2) (prefix, suffix) splits fixes c in closed form from running sums.
    A split whose trades point the right way (tendered reserves grow,
    received ones shrink) is a feasible trade, and the optimal split is one
    of them, so the best of these is the best response. The pools of one
    size are answered together: each split of each lane and pool is an
    entry of one array, and the first best split is kept.
    """
    lanes, inf = len(nu), np.inf
    value = np.zeros((lanes, prog.n_pools))
    d, r = np.zeros((lanes, prog.n_legs)), np.zeros((lanes, prog.n_legs))
    for members, legs, k, m in prog.groups:
        w, res, fee = prog.weight[legs], prog.reserve[legs], prog.fee[legs[:, :1]]
        price = nu[:, prog.asset[legs]]
        worth = price * res
        rho = worth / w
        # Each pool's legs in rho order, as flat indices into w and into the
        # (lane, pool, leg) arrays.
        order = np.argsort(rho, axis=-1, kind="stable")
        in_pool = order + np.arange(0, legs.size, legs.shape[1])[:, None]
        in_lane = in_pool + np.arange(0, lanes * legs.size, legs.size)[:, None, None]
        log_rho, log_fee, pad = np.log(rho.take(in_lane)), np.log(fee), np.ones((*rho.shape[:2], 1))
        # Running sums over the rho order of w, w * log(rho) and nu * R, 0 first.
        w_sorted = w.take(in_pool)
        sums = np.stack([w_sorted, w_sorted * log_rho, worth.take(in_lane)])
        cum_w, cum_wl, cum_v = np.cumsum(np.concatenate([0.0 * sums[..., :1], sums], -1), -1)
        # Tender the first k assets in rho order and receive those from m on.
        w_traded = cum_w[..., k] + cum_w[..., -1:] - cum_w[..., m]
        log_c = (cum_wl[..., k] + cum_wl[..., -1:] - cum_wl[..., m] - cum_w[..., k] * log_fee) / w_traded
        # log rho of the last tendered and the first received asset, -inf and
        # inf where there is none.
        edges = np.concatenate([-inf * pad, log_rho, inf * pad], -1)
        ok = ~(edges[..., k] > log_fee + log_c + 1e-9) & ~(edges[..., m + 1] < log_c - 1e-9)
        c = np.exp(log_c)
        split = cum_v[..., k] / fee + cum_v[..., -1:] - cum_v[..., m] - c * w_traded
        split[~ok] = -inf
        best = split.argmax(-1)[..., None]
        at = best + np.arange(0, split.size, len(k)).reshape(best.shape)
        top, c = split.take(at), c.take(at)
        trade, rank = top > 0.0, np.argsort(order, -1)
        value[:, members] = np.where(trade, top, 0.0)[..., 0]
        d[:, legs] = np.where(trade & (rank < k[best]), np.maximum((c * fee * w / price - res) / fee, 0.0), 0.0)
        r[:, legs] = np.where(trade & (rank >= m[best]), np.maximum(res - c * w / price, 0.0), 0.0)
    return value, d, r


def _positive(nu):
    """Prices as a float array; any that is not strictly positive is refused."""
    nu = np.asarray(nu, dtype=float)
    if np.any(nu <= 0):
        raise ValueError("dual prices must be strictly positive")
    return nu


def arbitrage_subproblem(market: Market, assets, nu: np.ndarray):
    """Best response of one market to global prices.

    Returns ((tendered, received), value) in the market's local indexing.
    A log-invariant pool answers as the one lane and one pool of
    `_best_responses`. A constant-sum market answers as its two orders
    (`_sum_orders`), so at exact indifference both directions fill; the
    value is unaffected.
    """
    nu = _positive(nu)
    if market.kind == SUM:
        ((d_ab, r_ab), v_ab), ((d_ba, r_ba), v_ba) = (limit_order_subproblem(o, nu) for o in _sum_orders(market, assets))
        return (d_ab + d_ba[::-1], r_ab + r_ba[::-1]), v_ab + v_ba
    prog = _Program(RoutingProblem(len(nu), [(market, assets)], [], Liquidate(assets[0], assets[1], 0.0)))
    value, d, r = _best_responses(prog, nu[None])
    return (d[0], r[0]), float(value[0, 0])


def limit_order_subproblem(order: LimitOrder, nu: np.ndarray):
    """Best response of one order: fill fully iff the fill is not a loss.

    Returns ((tendered, received), value) over the order's (input, output)
    assets, as `arbitrage_subproblem` does over a market's. Ties (price
    exactly at indifference) fill fully for determinism; the objective value
    is unaffected there.
    """
    nu = _positive(nu)
    margin = nu[order.output_asset] * order.price - nu[order.input_asset]
    if margin >= 0 and order.volume > 0:
        return _order_trade(order, order.volume), margin * order.volume / order.price
    return _order_trade(order, 0.0), 0.0


def _order_trade(order, fill):
    """An order's (tendered, received) over its (input, output) at `fill` output."""
    return np.array([fill / order.price, 0.0]), np.array([0.0, fill])


# ---------------------------------------------------------------------------
# Dual function: at strictly positive prices nu with nu[output] = 1, the
# budget's worth plus every pool's and order's best-response value bounds
# the output of any feasible route. It certifies every solve.
# ---------------------------------------------------------------------------


def _dual_value(prog, nu, budget):
    """Per lane, the dual bound at prices nu (lanes, n) and the lane's budget:
    the budget's worth, each pool's and then each order's best-response
    value, summed in that order by `_lane_sums`."""
    margin = nu[:, prog.order_out] * prog.price - nu[:, prog.order_in]
    orders = np.maximum(margin, 0.0) * prog.volume / prog.price
    terms = np.concatenate([(budget * nu[:, prog.input])[:, None], _best_responses(prog, nu)[0], orders], axis=1)
    return _lane_sums(np.zeros(terms.shape[1], dtype=int), terms, 1)[:, 0]


def _check_route_exists(prog):
    """Refuse a program whose output asset no chain of pools and orders
    reaches from its input asset. Each round, a pool that touches a reached
    asset reaches all of its assets and an order reaches its output from a
    reached input; `n_assets` rounds reach every asset that can be."""
    reach = np.zeros(prog.n_assets, dtype=bool)
    reach[prog.input] = True
    for _ in range(prog.n_assets):
        touched = np.bincount(prog.pool, reach[prog.asset], prog.n_pools) > 0
        reach[prog.asset[touched[prog.pool]]] = True
        reach[prog.order_out[reach[prog.order_in]]] = True
    if not reach[prog.out]:
        raise NoFeasibleRouteError(f"no feasible route from asset {prog.input} to asset {prog.out}")


# ---------------------------------------------------------------------------
# The convex primal, in scaled variables x = (d, r, y, s):
#   d, r  each pool leg's tendered and received amount over its reserve;
#   y     each order's fill over its volume; the orders are the problem's
#         own and then two per constant-sum pool (`_trading_sets`), and a
#         zero-volume order's column of A is zero, so its fill decouples;
#   s     each asset's slack (psi + h) over the asset's scale.
# Maximize s[output] subject to
#   A x = b                       psi + h - s = 0, one row per asset;
#   f(x) <= 0                     one row per product or geometric pool:
#                                 -sum w log(q), with q = 1 + fee d - r and
#                                 w the exponents over their sum;
#   x >= 0, y <= 1.
# ---------------------------------------------------------------------------


class _Lanes(NamedTuple):
    """The parts of a `_Program` that depend on the budget, one row per budget:
    the budget, each asset's scale, the balance offsets h and b = -h / scale,
    and the values of the asset rows A's entries (`_Program.a_row`)."""

    budget: np.ndarray
    scale: np.ndarray
    h: np.ndarray
    b: np.ndarray
    a: np.ndarray

    def take(self, keep):
        return _Lanes(*(a[keep] for a in self))


class _Program:
    """The scaled convex primal of one problem at any budget: its utility's
    assets, index maps over its legs, pools and orders (which the Newton
    step, the rounding and the dual all read), the budget-free part of each
    asset's scale and where each entry of the reduced Newton matrix lands.
    `lanes` adds the parts that depend on the budget."""

    def __init__(self, problem):
        self.n_assets = n = problem.n_assets
        util = problem.utility
        self.input, self.out = util.input_asset, util.output_asset
        pools, orders = _trading_sets(problem)
        pool, asset, reserve, fee, weight, pair = [], [], [], [], [], []
        for p, (market, assets) in enumerate(pools):
            pair.extend(itertools.product(range(len(pool), len(pool) + len(assets)), repeat=2))
            for a, res, w in zip(assets, market.reserves, market.exponents):
                pool.append(p)
                asset.append(a)
                reserve.append(res)
                fee.append(market.fee)
                weight.append(w)
        self.pool = np.array(pool, dtype=int)
        self.asset = np.array(asset, dtype=int)
        self.reserve = np.array(reserve)
        self.fee = np.array(fee)
        self.weight = np.array(weight)
        self.coef = self.weight / np.bincount(self.pool, self.weight)[self.pool]
        # The pools of each size k, their legs (pools, k), which are
        # consecutive, and the splits of `_best_responses`: tender the first
        # i legs in rho order and receive those from j on, for i <= j but
        # i = 0, j = k (all held).
        sizes = np.bincount(self.pool, minlength=len(pools))
        first_leg = np.cumsum(sizes) - sizes
        self.groups = []
        # The distinct sizes, without `np.unique`, which imports numpy.ma.
        for k in np.flatnonzero(np.bincount(sizes)):
            i, j = np.delete(np.triu_indices(k + 1), k, axis=1)
            self.groups.append((np.flatnonzero(sizes == k), first_leg[sizes == k, None] + np.arange(k), i, j))
        self.order_in = np.array([o.input_asset for o in orders], dtype=int)
        self.order_out = np.array([o.output_asset for o in orders], dtype=int)
        self.volume = np.array([o.volume for o in orders])
        self.price = np.array([o.price for o in orders])

        # Each asset's scale before the budget; `lanes` lifts the input
        # asset's to the budget and sets any still zero to 1.
        scale = np.zeros(n)
        np.maximum.at(scale, self.asset, self.reserve)
        np.maximum.at(scale, self.order_out, self.volume)
        np.maximum.at(scale, self.order_in, self.volume / self.price)
        self.scale = scale

        n_legs, n_orders = len(pool), len(orders)
        self.n_legs, self.n_pools = n_legs, len(pools)
        self.nx = nx = 2 * n_legs + n_orders + n
        self.slack = 2 * n_legs + n_orders
        self.fills = slice(2 * n_legs, self.slack)
        self.c = np.zeros(nx)
        self.c[self.slack + self.out] = -1.0

        # A's entries, at most two per column: each leg's tendered and
        # received amount, each fill's output and input asset, each slack.
        legs, fills, assets = np.arange(n_legs), np.arange(nx)[self.fills], np.arange(n)
        self.a_row = np.concatenate([self.asset, self.asset, self.order_out, self.order_in, assets])
        self.a_col = np.concatenate([legs, n_legs + legs, fills, fills, self.slack + assets])

        # Where the terms of the reduced Newton matrix A G A' land in a
        # lane's n x n (`_newton_solver`): each leg's own term, each ordered
        # pair of legs of one pool, and each ordered pair of entries in one
        # fill's or slack's column of A.
        self.pair = first, second = np.array(pair, dtype=int).reshape(-1, 2).T
        self.pair_index = self.asset[first] * n + self.asset[second]
        e_out = 2 * n_legs + np.arange(n_orders)
        e_in, e_slack = e_out + n_orders, 2 * n_legs + 2 * n_orders + assets
        self.entry_pair = e1, e2 = (
            np.concatenate([e_out, e_out, e_in, e_in, e_slack]),
            np.concatenate([e_out, e_in, e_out, e_in, e_slack]),
        )
        self.s_index = np.concatenate(
            [self.asset * (n + 1), self.pair_index, self.a_row[e1] * n + self.a_row[e2]]
        )

    def lanes(self, budgets):
        """The parts that depend on the budget (`_Lanes`), one row per entry
        of the float array `budgets`."""
        lanes, n = len(budgets), self.n_assets
        scale = np.tile(self.scale, (lanes, 1))
        scale[:, self.input] = np.maximum(scale[:, self.input], budgets)
        scale[scale == 0.0] = 1.0
        h = np.zeros((lanes, n))
        h[:, self.input] = budgets
        leg, made = self.reserve / scale[:, self.asset], self.volume / scale[:, self.order_out]
        spent = self.volume / self.price / scale[:, self.order_in]
        a = np.concatenate([-leg, leg, made, -spent, np.full((lanes, n), -1.0)], axis=1)
        return _Lanes(budgets, scale, h, -h / scale, a)

    def start(self):
        # Small trades, half-filled orders, unit slacks: interior to every
        # bound, and close enough to no trade that each reserve stays positive.
        x = np.full(self.nx, 0.5)
        x[: 2 * self.n_legs] = 0.01
        x[self.slack :] = 1.0
        return x

    def reserves(self, d, r):
        """Post-trade reserves over the reserve; the log invariants need them positive."""
        return 1.0 + self.fee * d - r

    def pools(self, x):
        """Per lane (row of x), leg reserves q (`reserves`), pool rows f and
        the legs' Jacobian factors."""
        q = self.reserves(x[:, : self.n_legs], x[:, self.n_legs : 2 * self.n_legs])
        return q, -_lane_sums(self.pool, self.coef * np.log(q), self.n_pools), self.coef / q

    def amul(self, lanes, x):
        """Per lane, A x."""
        return _lane_sums(self.a_row, lanes.a * x[:, self.a_col], self.n_assets)

    def atmul(self, lanes, v):
        """Per lane, A' v."""
        return _lane_sums(self.a_col, lanes.a * v[:, self.a_row], self.nx)

    def trades(self, x, h):
        """Per lane (row of x), exactly feasible trades near x, in the
        problem's units, for balance offsets h.

        Clips x to its bounds and nets each leg (tendering and receiving one
        asset in one pool leaves the same reserve with less spent). Then, in
        turns, scales each pool's received legs down until its invariant
        holds with a margin, and cuts the spending of every asset spent
        beyond its budget. Every lane takes every turn: a balanced lane's
        cut is zero and its scale exactly 1, so its bits stay as they are.
        Returns each leg's tendered and received amount, each order's fill
        and psi; no trade at all in a lane that eight rounds leave with an
        asset overspent.
        """
        n_legs, fee, n = self.n_legs, self.fee, self.n_assets
        d = np.maximum(x[:, :n_legs], 0.0)
        r = np.maximum(x[:, n_legs : 2 * n_legs], 0.0)
        d, r = np.maximum(d - r / fee, 0.0), np.maximum(r - fee * d, 0.0)
        y = np.clip(x[:, self.fills], 0.0, 1.0)
        for _ in range(8):
            r *= self._invariant_scale(d, r)[:, self.pool]
            d_abs, r_abs, fill = d * self.reserve, r * self.reserve, y * self.volume
            spent = _lane_sums(self.asset, d_abs, n) + _lane_sums(self.order_in, fill / self.price, n)
            made = _lane_sums(self.asset, r_abs, n) + _lane_sums(self.order_out, fill, n)
            left = made + h - spent
            balanced = left.min(axis=1) >= 0.0
            if balanced.all():
                break
            cut = np.zeros((len(x), n))
            for i in np.flatnonzero(~balanced):
                cut[i] = self._cuts(*(a[i] for a in (d, r, fill, spent, made, left)))
            d *= 1.0 - cut[:, self.asset]
            y *= 1.0 - cut[:, self.order_in]
        return [np.where(balanced[:, None], a, 0.0) for a in (d_abs, r_abs, fill, made - spent)]

    def _cuts(self, d, r, fill, spent, made, left):
        """One lane's fractions of each asset's spending to cut so that none
        is overspent.

        Cutting what a pool tenders makes it give back less of everything it
        pays out, so cuts spread along the trades, loops included. To first
        order the loss at asset b per unit fraction cut at asset a is
        M[b, a], a term per ordered pair of legs in a pool and one per
        order; the cuts c solve (spent - M) c = need on the assets that end
        up short, where need brings each to a margin of 1e-13 of its flow.
        """
        n, pool, fee, (first, second) = self.n_assets, self.pool, self.fee, self.pair
        q = self.reserves(d, r)
        w = self.coef
        tender = w * fee * d / q
        pay = w * r / q
        total_pay = np.bincount(pool, pay, self.n_pools)
        share = self.reserve * r / np.where(total_pay > 0.0, total_pay, 1.0)[pool]
        index = np.concatenate([self.pair_index, self.order_out * n + self.order_in])
        loss = np.bincount(index, np.concatenate([share[first] * tender[second], fill]), n * n).reshape(n, n)

        margin = 1e-13 * (spent + made)
        need = margin - left
        short = need > 0.0
        cut = np.zeros(n)
        for _ in range(n):
            idx = np.flatnonzero(short)
            system = np.diag(spent[idx]) - loss[np.ix_(idx, idx)]
            try:
                cut[idx] = np.linalg.solve(system, np.maximum(need[idx], 0.0))
            except np.linalg.LinAlgError:
                cut[idx] = np.maximum(need[idx], 0.0) / spent[idx]
            cut = np.clip(cut, 0.0, 1.0)
            after = left + spent * cut - loss @ cut
            more = (after < margin) & ~short & (spent > 0.0)
            if not more.any():
                break
            short |= more
        return cut

    def _invariant_scale(self, d, r):
        """Per lane and pool, the largest t <= 1 such that receiving t * r
        keeps its invariant.

        Newton steps on the log invariant, which is concave and falling in t,
        so they approach its root from above; they aim at 2e-14 and stop at
        1e-14, which keeps rounding on the feasible side.
        """
        pool, n_pools, w = self.pool, self.n_pools, self.coef
        t = np.ones((len(d), n_pools))
        for _ in range(60):
            q = self.reserves(d, t[:, pool] * r)
            phi = _lane_sums(pool, w * np.log(q), n_pools)
            slope = _lane_sums(pool, w * r / q, n_pools)
            low = (phi < 1e-14) & (slope > 1e-300)
            if not low.any():
                break
            t[low] = np.maximum(t[low] + (phi[low] - 2e-14) / slope[low], 0.0)
        return t

    def prices(self, z_slack, scale):
        """Per lane, asset prices from the slack multipliers and scale, output asset at 1."""
        nu = z_slack / scale
        nu[:, self.out] += 1.0 / scale[:, self.out]
        return nu / nu[:, self.out, None]


def _max_step(value, change):
    """Per row, the largest step in [0, 1] that keeps value + step * change >= 0, for value > 0."""
    worst = (change / value).min(axis=1, initial=0.0)
    return -1.0 / np.minimum(worst, -1.0)


def _dot(a, b):
    """Per row, a[i] @ b[i]."""
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def _lane_sums(index, values, size):
    """Per row of `values`, its entries summed into `size` bins by `index`.
    One bincount adds every row, each offset by its row so that it adds its
    entries in the order a bincount of that row alone would."""
    lanes = len(values)
    flat = (np.arange(lanes)[:, None] * size + index).ravel()
    return np.bincount(flat, values.ravel(), lanes * size).reshape(lanes, size)


def _stacked_solve(matrices, rhs):
    """Per row, the solution of matrices[i] s = rhs[i]: one LAPACK solve
    each, so every row gets the bits its own solve would."""
    return np.linalg.solve(matrices, rhs[:, :, None])[:, :, 0]


def _newton_solve(matrices, rhs):
    """`_stacked_solve`, with a NaN row for each singular matrix: the stack is
    solved again row by row when any of them is."""
    try:
        return _stacked_solve(matrices, rhs)
    except np.linalg.LinAlgError:
        sol = np.full_like(rhs, np.nan)
        for i in range(len(rhs)):
            try:
                sol[i] = _stacked_solve(matrices[i : i + 1], rhs[i : i + 1])[0]
            except np.linalg.LinAlgError:
                pass
        return sol


def _newton_solver(prog, lanes, ratio, q, jac, lam, u):
    """Per lane, the Newton system of `_interior_point` at one iterate, as a
    function solve(top, m, e) -> (dx, dl, dnu) of its right-hand side:

        [H + D   Df'    A'] [dx ]   [top]
        [Df      -u/lam 0 ] [dl ] = [m  ]
        [A       0      0 ] [dnu]   [e  ]

    D is the barrier diagonal `ratio` (the fills' two bounds added) and H
    the pools' Hessian. H + D is diagonal but for each leg's 2 x 2 block on
    (d, r), and each pool adds one row g of Df on its legs, so the block M =
    [H + D, Df'; Df, -u/lam] inverts pool by pool in closed form (`back`).
    Eliminating (dx, dl) onto the asset rows leaves S dnu = A back(top, m) - e
    with S = A G A', G the x block of M^-1 (Boyd & Vandenberghe, Convex
    Optimization, App. C.4): n x n, symmetric positive definite, a term per
    leg, a rank-one term per pool over its assets and a term per fill and
    slack. One stacked solve of S gives dnu, a singular S NaN, and
    back(top - A' dnu, m) gives (dx, dl).

    Each leg's block [[rd + f^2 hess, -f hess], [-f hess, rr + hess]] has
    determinant delta = rd rr + hess (f^2 rr + rd), a sum of positive terms,
    so its inverse [[cr + ch, f ch], [f ch, cd + f^2 ch]] (cr, cd, ch = rr,
    rd, hess over delta) loses nothing to cancellation as the fee nears 1.
    """
    n, n_legs, n_pools, nx, pool, fee = prog.n_assets, prog.n_legs, prog.n_pools, prog.nx, prog.pool, prog.fee
    hess = lam[:, pool] * prog.coef / (q * q)
    rd, rr = ratio[:, :n_legs], ratio[:, n_legs : 2 * n_legs]
    delta = rd * rr + hess * (fee * fee * rr + rd)
    cr, cd, ch = rr / delta, rd / delta, hess / delta
    # With g = jac (-f, 1) on a pool's legs and B their blocks of H + D:
    # sigma = u / lam + g' B^-1 g per pool, and w = A B^-1 g at each leg.
    sigma = u / lam + _lane_sums(pool, jac * jac * (fee * fee * cr + cd), n_pools)
    # The fills' and slacks' diagonal, each fill's two bounds added.
    rest = ratio[:, 2 * n_legs : nx].copy()
    rest[:, : ratio.shape[1] - nx] += ratio[:, nx:]
    ad, ar = lanes.a[:, :n_legs], lanes.a[:, n_legs : 2 * n_legs]
    w = jac * (cd * ar - fee * cr * ad)
    (first, second), (e1, e2) = prog.pair, prog.entry_pair
    legs = ad * ad * cr + ar * ar * cd + ch * (ad + fee * ar) ** 2
    pairs = -w[:, first] * w[:, second] / sigma[:, pool[first]]
    columns = lanes.a[:, e1] * lanes.a[:, e2] / rest[:, prog.a_col[e1] - 2 * n_legs]
    s = _lane_sums(prog.s_index, np.concatenate([legs, pairs, columns], axis=1), n * n).reshape(-1, n, n)

    def back(t, m):
        td, tr = t[:, :n_legs], t[:, n_legs : 2 * n_legs]
        dl = (_lane_sums(pool, jac * (cd * tr - fee * cr * td), n_pools) - m) / sigma
        jdl = jac * dl[:, pool]
        both = ch * (td + fee * tr)
        dx = [cr * td + both + fee * cr * jdl, cd * tr + fee * both - cd * jdl, t[:, 2 * n_legs :] / rest]
        return np.concatenate(dx, axis=1), dl

    def solve(top, m, e):
        dnu = _newton_solve(s, prog.amul(lanes, back(top, m)[0]) - e)
        return (*back(top - prog.atmul(lanes, dnu), m), dnu)

    return solve


def _interior_point(prog, budgets):
    """Mehrotra predictor-corrector on the scaled convex primal, at each budget.

    The pairs of primal slacks p and multipliers z are the bounds of x
    (x >= 0, and 1 - y >= 0 on the fills) and the pool rows (u >= 0
    with f(x) + u = 0, multiplier lam). The asset rows A x = b may start
    violated, so no strictly feasible start is needed. Each Newton step
    solves the augmented system [H + D, Df', A'; Df, -u/lam, 0; A, 0, 0]
    by block elimination onto the asset rows (`_newton_solver`): one n x n
    matrix per lane, n the number of assets.

    Every budget is a lane: a row of each state array, stepped together
    with the others, and each predictor and corrector is one stacked solve
    over the lanes. No arithmetic mixes lanes, so each lane's result is bit
    for bit that of the batch of it alone. A lane is due once its
    estimated gap is well inside TOL, once it has taken MAX_ITER steps, or
    when its last step did not move (not positive, or NaN from a singular
    Newton matrix): such a lane keeps its point and its step count. Each
    pass rounds every due lane to exactly feasible trades
    (`_Program.trades`) and bounds it by `_dual_value` at its slack
    multipliers, in one call, and then drops the lanes that leave: those
    certified, those whose estimate is 1e-6 or below, those at MAX_ITER
    steps and those that did not move. Returns, per budget, its last
    rounded trades with their prices and gap, whether they are certified,
    and its step count.
    """
    nx, n_legs, n_pools, slack, out = prog.nx, prog.n_legs, prog.n_pools, prog.slack, prog.out
    fills, fee, pool = prog.fills, prog.fee, prog.pool
    nb = nx + fills.stop - fills.start
    lanes = prog.lanes(np.asarray(budgets, dtype=float))
    ids = np.arange(len(budgets))
    p = np.ones((len(ids), nb + n_pools))
    z = np.ones_like(p)
    p[:, :nx] = prog.start()
    p[:, nx:nb] = 1.0 - p[:, fills]  # kept apart: 1 - y rounds to 0 near the cap
    nu = np.zeros((len(ids), prog.n_assets))
    steps = np.zeros(len(ids), dtype=int)
    stalled = np.zeros(len(ids), dtype=bool)
    results = [None] * len(ids)

    while len(ids):
        x, u, lam = p[:, :nx], p[:, nb:], z[:, nb:]
        q, f, jac = prog.pools(x)
        r_p = prog.amul(lanes, x) - lanes.b
        r_f = f + u

        # Complementarity plus the multiplier-weighted row violations
        # estimates the gap in units of the output's scale. Certify once the
        # estimate is well inside TOL; give up once it is far below, where
        # steps no longer change the trades.
        worth = z[:, slack:nx].copy()
        worth[:, out] += 1.0
        pz = _dot(p, z)
        estimate = pz + _dot(lam, np.abs(r_f)) + _dot(worth, np.abs(r_p))
        estimate /= 0.1 * TOL * np.maximum(1.0 / lanes.scale[:, out], x[:, slack + out])
        capped = steps >= MAX_ITER
        settled = (estimate <= 1.0) | capped
        # A lane that did not move has the point, estimate and count of the
        # last pass, so if it is settled it was rounded and bounded there
        # and is not again. Each lane keeps its latest bound as its result.
        due = np.flatnonzero(settled != stalled)
        leave = stalled | capped
        if len(due):
            # A fill whose bound's multiplier exceeds its slack is put on
            # that bound.
            point = p[due, :nx]
            on_bound = point[:, fills]
            on_bound[z[due, fills] > point[:, fills]] = 0.0
            on_bound[z[due, nx:nb] > p[due, nx:nb]] = 1.0
            d, r, y, psi = prog.trades(point, lanes.h[due])
            prices = prog.prices(z[due, slack:nx], lanes.scale[due])
            bound = _dual_value(prog, prices, lanes.budget[due])
            gap = bound - psi[:, out]
            passed = gap <= TOL * np.maximum(1e-7 * lanes.scale[due, out], np.abs(bound))
            for j, lane in enumerate(due):
                results[ids[lane]] = (d[j], r[j], y[j], psi[j], prices[j], gap[j]), passed[j], int(steps[lane])
            leave[due] |= passed | (estimate[due] <= 1e-6)
        if leave.any():
            keep = ~leave
            p, z, nu, ids, steps, pz, q, jac, r_p, r_f = (a[keep] for a in (p, z, nu, ids, steps, pz, q, jac, r_p, r_f))
            lanes = lanes.take(keep)
            if not len(ids):
                break
            x, u, lam = p[:, :nx], p[:, nb:], z[:, nb:]

        lam_legs = lam[:, pool]
        grad = prog.c - z[:, :nx] + prog.atmul(lanes, nu)
        grad[:, fills] += z[:, nx:nb]
        grad[:, :n_legs] -= fee * jac * lam_legs
        grad[:, n_legs : 2 * n_legs] += jac * lam_legs
        solve = _newton_solver(prog, lanes, z[:, :nb] / p[:, :nb], q, jac, lam, u)

        def newton(r_c):
            part = r_c[:, :nb] / p[:, :nb]
            top = part[:, :nx] - grad
            top[:, fills] -= part[:, nx:]
            dx, dl, dnu = solve(top, -r_f - r_c[:, nb:] / lam, -r_p)
            dp = np.empty_like(p)
            dp[:, :nx] = dx
            dp[:, nx:nb] = -dx[:, fills]
            dp[:, nb:] = (r_c[:, nb:] - u * dl) / lam
            dz = (r_c - z * dp) / p
            dq = fee * dx[:, :n_legs] - dx[:, n_legs : 2 * n_legs]
            a_p = np.minimum(_max_step(p, dp), _max_step(0.9 * q, dq))
            return dp, dz, dnu, a_p, _max_step(z, dz)

        dp, dz, _, a_p, a_d = newton(-p * z)
        mu = pz / p.shape[1]
        mu_aff = _dot(p + a_p[:, None] * dp, z + a_d[:, None] * dz) / p.shape[1]
        # Scalar powers: numpy's array power is less exactly rounded than libm's.
        target = np.array([(a / m) ** 3 * m for a, m in zip(mu_aff, mu)])
        dp, dz, dnu, a_p, a_d = newton(target[:, None] - p * z - dp * dz)

        stalled = ~((a_p > 0.0) & (a_d > 0.0))  # NaN included
        for state, rate, change in ((p, a_p, dp), (z, a_d, dz), (nu, a_d, dnu)):
            change *= (0.99 * rate)[:, None]
            change[stalled] = 0.0
            state += change
        steps += ~stalled
    return results


def _solution(problem, budget, result):
    """One lane's `_interior_point` result, at `budget`, as the problem's RoutingSolution."""
    (d, r, y, psi, prices, gap), passed, iterations = result
    market_trades = []
    leg, pair = 0, len(problem.orders)
    for market, _ in problem.markets:
        if market.kind == SUM:
            fills = y[pair : pair + 2]
            market_trades.append((fills / market.fee, fills[::-1].copy()))
            pair += 2
        else:
            stop = leg + market.n_assets
            market_trades.append((d[leg:stop], r[leg:stop]))
            leg = stop
    market_trades += [_order_trade(order, fill) for order, fill in zip(problem.orders, y.tolist())]
    return RoutingSolution(
        psi=psi,
        market_trades=market_trades,
        utility_value=float(psi[problem.utility.output_asset]),
        status=STATUS_OPTIMAL if passed else STATUS_MAX_ITER,
        dual_prices=prices,
        gap=gap,
        iterations=iterations,
        budget=float(budget),
    )


def solve_routing(problem: RoutingProblem) -> RoutingSolution:
    """Solve the routing problem to a relative primal-dual gap of `TOL`.

    The curve of one budget, the problem's own (`solve_curve`): one
    primal-dual interior-point solve of the convex primal, of at most
    MAX_ITER Newton steps (`_interior_point`). A solve is `optimal` only
    when the exact dual bound at the solve's prices (`dual_prices`, output
    asset at 1) exceeds the output of the returned, exactly feasible trades
    by at most TOL * max(1e-7 * scale, |bound|), where scale is the output
    asset's largest reserve or order volume, so the test does not depend on
    the output's unit; `gap` is the bound minus that output.
    Otherwise the status is `max_iter`, and the trades are still feasible.
    A constant-sum pool's trades are its two orders' fills (f_ab, f_ba):
    tendered (f_ab, f_ba) / fee and received (f_ba, f_ab). Raises
    ValueError, before allocating anything per asset, for a problem
    `check_solve_size` refuses.
    """
    return solve_curve(problem, [problem.utility.budget])[0]


def solve_curve(problem: RoutingProblem, s_grid) -> list[RoutingSolution]:
    """Solve across a budget grid, one solution per budget, in grid order;
    the problem's own budget is not read.

    `Liquidate` refuses a negative or non-finite budget. Every budget, 0
    included, is a lane of one batched interior-point solve over one
    program, whose route `_check_route_exists` checks first, run in
    consecutive chunks of as many lanes as fit the MAX_SOLVE_BYTES budget
    (`check_solve_size`). No lane's arithmetic, certificate included, reads
    another's, so each solution is bit for bit what `solve_routing` returns
    at its budget, whatever the grid's order.
    """
    grid = list(s_grid)
    util = problem.utility
    for s in grid:
        Liquidate(util.input_asset, util.output_asset, s)  # refuses a non-finite budget
    lane_bytes = check_solve_size(problem)
    prog = _Program(problem)
    _check_route_exists(prog)
    chunk = cfmm.MAX_SOLVE_BYTES // lane_bytes
    solutions = []
    for start in range(0, len(grid), chunk):
        budgets = grid[start : start + chunk]
        solutions.extend(_solution(problem, s, result) for s, result in zip(budgets, _interior_point(prog, budgets)))
    return solutions


def _relative(x, scale):
    """x / scale, reading 0 / 0 as 0 and x / 0 as the infinity of x's sign."""
    return np.divide(x, scale, out=np.where(x == 0, 0.0, np.copysign(np.inf, x)), where=scale > 0)


def solution_residuals(problem: RoutingProblem, solution: RoutingSolution) -> dict:
    """Feasibility diagnostics: reconstruction, trading-set, and budget slack,
    the last at the budget the solution was solved at, not the problem's.

    Two relative forms sit next to the absolute ones: the reconstruction of
    each asset's net flow over the flow through it (tendered plus received,
    summed over the markets and orders), at its worst asset, and the budget
    slack over the budget. Over a zero flow or a zero budget (`_relative`),
    no error or slack reads 0 and any other the infinity of its sign.
    """
    psi, flow = np.zeros((2, problem.n_assets))
    for assets, (d, r) in zip(problem.trade_assets, solution.market_trades):
        np.add.at(psi, list(assets), r - d)
        np.add.at(flow, list(assets), r + d)
    worst_market = 0.0
    for (market, _), (d, r) in zip(problem.markets, solution.market_trades):
        before = trading_function(market, market.reserves)
        after = trading_function(market, np.clip(np.asarray(market.reserves) + market.fee * d - r, 0.0, None))
        worst_market = max(worst_market, (before - after) / max(1.0, abs(before)))
    worst_order = 0.0
    for order, (d, r) in zip(problem.orders, solution.market_trades[len(problem.markets) :]):
        # Each order pays at most `price` per unit tendered, up to `volume`.
        worst_order = max(worst_order, r[1] - order.price * d[0], r[1] - order.volume, -d.min(), -r.min())
    error = np.abs(psi - solution.psi)
    h_init = solution.budget * (np.arange(problem.n_assets) == problem.utility.input_asset)
    budget = float(np.min(solution.psi + h_init))
    return {
        "reconstruction": float(error.max(initial=0.0)),
        "relative_reconstruction": float(_relative(error, flow).max(initial=0.0)),
        "market_residual": float(worst_market),
        "order_slack": float(worst_order),
        "budget_slack": budget,
        "relative_budget_slack": float(_relative(budget, solution.budget)),
    }
