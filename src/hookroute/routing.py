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

Every lane is certified alone by the exact dual: at strictly positive asset
prices, the budget's worth plus each pool's and order's best response
bounds the output of any feasible route. An order fills fully or not at
all. Every log-invariant pool (a product pool is the unit-weight
geometric-mean pool) has one best response: it sorts its assets by price
times reserve over exponent, and its KKT conditions make the tendered
assets a prefix and the received ones a suffix of that order, so only
O(n^2) splits are checked. No scipy module is used.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .cfmm import (
    SUM,
    LimitOrder,
    Market,
    Trade2,
    forward_exchange_batch,
    trading_function,
)
from .liquidation import MAX_SOLVE_BYTES

STATUS_OPTIMAL = "optimal"
STATUS_MAX_ITER = "max_iter"

# A solve is `optimal` when its dual bound exceeds its output by at most
# TOL * max(1, |bound|).
TOL = 1e-7
MAX_ITER = 200


class NoFeasibleRouteError(Exception):
    """No directed path connects the input asset to the output asset."""


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
        for market, assets in self.markets:
            if len(assets) != market.n_assets:
                raise ValueError("asset map length must match market size")
            if any(not 0 <= a < self.n_assets for a in assets):
                raise ValueError("asset map entry out of range")
            if len(set(assets)) != len(assets):
                raise ValueError("asset map entries must be distinct")
        for order in self.orders:
            for a in (order.input_asset, order.output_asset):
                if not 0 <= a < self.n_assets:
                    raise ValueError("order asset out of range")
        for a in (self.utility.input_asset, self.utility.output_asset):
            if not 0 <= a < self.n_assets:
                raise ValueError("utility asset out of range")


@dataclass
class RoutingSolution:
    psi: np.ndarray
    market_trades: list[tuple[np.ndarray, np.ndarray]]
    order_trades: list[Trade2]
    utility_value: float
    status: str
    dual_prices: np.ndarray
    gap: float
    iterations: int


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
    """Refuse a problem whose Newton matrices would exceed MAX_SOLVE_BYTES
    even for one budget, and return the bytes one budget needs.

    Each budget of a solve is a lane (`_interior_point`), and each lane's
    Newton step is one n x n matrix over the n assets (`_newton_solver`),
    8 bytes an entry, summed by a bincount over the matrix's terms: one per
    leg, one per ordered pair of legs in a pool, four per order and one per
    asset. A lane holds two such matrices (the sum and the copy LAPACK
    factors), four arrays over the terms and 48 vectors over the augmented
    system's rows (two per leg, one per order, pool and asset). Certifying
    a lane also holds a dense assets x pools array each for what every pool
    pays out and takes in, and an assets x assets loss matrix (`_cuts`);
    all lanes could round at once, so each is counted per lane. A chunk of
    lanes holds MAX_SOLVE_BYTES over the returned count.
    """
    pools, orders = _trading_sets(problem)
    n, sizes = problem.n_assets, [market.n_assets for market, _ in pools]
    legs, terms = sum(sizes), sum(k * (k + 1) for k in sizes) + 4 * len(orders) + n
    rows = 2 * legs + len(orders) + len(pools) + n
    need = 8 * (3 * n * n + 4 * terms + 48 * rows + 2 * n * len(pools))
    if need > MAX_SOLVE_BYTES:
        raise ValueError(
            f"the routing solve would need about {need / 1e6:.0f} MB for its "
            f"{n}-row Newton matrices, over the {MAX_SOLVE_BYTES / 1e6:.0f} MB "
            "budget; use fewer assets, pools or orders"
        )
    return need


# ---------------------------------------------------------------------------
# Best-response subproblems: maximize nu . (received - tendered) over a
# trading set. Each returns (tendered, received, value).
# ---------------------------------------------------------------------------


def _geometric_subproblem(market, nu):
    """Exact best response for a log-invariant pool: geometric mean or product.

    The weights w are `market.exponents`, all 1 for a product pool.
    Stationarity fixes each traded reserve to c * w_i / nu_i (scaled by the
    fee on the tendered side) for a scalar c pinned by the invariant. With
    rho_i = nu_i * R_i / w_i, asset i is tendered iff rho_i <= fee * c,
    received iff rho_i >= c and held otherwise, so in rho order the tendered
    assets form a prefix and the received assets a suffix. Each of the
    O(n^2) (prefix, suffix) splits fixes c in closed form from running sums.
    A split whose trades point the right way (tendered reserves grow,
    received ones shrink) is a feasible trade, and the optimal split is one
    of them, so the best of these is the best response.
    """
    w = market.exponents
    reserves = market.reserves
    fee = market.fee
    n = len(reserves)
    nu = nu.tolist()
    rho = [p * r / wi for p, r, wi in zip(nu, reserves, w)]
    order = sorted(range(n), key=rho.__getitem__)
    log_rho = [math.log(rho[i]) for i in order]
    log_fee = math.log(fee)

    # Running sums over the rho order of w, w * log(rho) and nu * R.
    cum_w, cum_wl, cum_v = [0.0], [0.0], [0.0]
    for k, i in enumerate(order):
        cum_w.append(cum_w[-1] + w[i])
        cum_wl.append(cum_wl[-1] + w[i] * log_rho[k])
        cum_v.append(cum_v[-1] + nu[i] * reserves[i])

    tol = 1e-9
    best = None
    best_value = -math.inf
    # Tender the first k assets in rho order and receive those from m on.
    for k in range(n + 1):
        for m in range(k, n + 1):
            if k == 0 and m == n:
                continue  # everything held
            w_traded = cum_w[k] + cum_w[n] - cum_w[m]
            log_c = (cum_wl[k] + cum_wl[n] - cum_wl[m] - cum_w[k] * log_fee) / w_traded
            if k > 0 and log_rho[k - 1] > log_fee + log_c + tol:
                continue
            if m < n and log_rho[m] < log_c - tol:
                continue
            c = math.exp(log_c)
            value = cum_v[k] / fee + cum_v[n] - cum_v[m] - c * w_traded
            if value > best_value:
                best, best_value = (k, m, c), value
    if best is None or best_value <= 0.0:
        return np.zeros(n), np.zeros(n), 0.0
    k, m, c = best
    d, r = np.zeros(n), np.zeros(n)
    for i in order[:k]:
        d[i] = max((c * fee * w[i] / nu[i] - reserves[i]) / fee, 0.0)
    for i in order[m:]:
        r[i] = max(reserves[i] - c * w[i] / nu[i], 0.0)
    return d, r, best_value


def _positive(nu):
    """Prices as a float array; any that is not strictly positive is refused."""
    nu = np.asarray(nu, dtype=float)
    if np.any(nu <= 0):
        raise ValueError("dual prices must be strictly positive")
    return nu


def arbitrage_subproblem(market: Market, assets, nu: np.ndarray):
    """Best response of one market to global prices.

    Returns ((tendered, received), value) in the market's local indexing.
    A constant-sum market answers as its two orders (`_sum_orders`), so at
    exact indifference both directions fill; the value is unaffected.
    """
    nu = _positive(nu)
    if market.kind == SUM:
        (ab, v_ab), (ba, v_ba) = (limit_order_subproblem(o, nu) for o in _sum_orders(market, assets))
        return (np.array([ab.z1, ba.z1]), np.array([ba.z2, ab.z2])), v_ab + v_ba
    d, r, val = _geometric_subproblem(market, nu[list(assets)])
    return (d, r), val


def limit_order_subproblem(order: LimitOrder, nu: np.ndarray):
    """Best response of one order: fill fully iff the fill is not a loss.

    Ties (price exactly at indifference) fill fully for determinism; the
    objective value is unaffected there.
    """
    nu = _positive(nu)
    margin = nu[order.output_asset] * order.price - nu[order.input_asset]
    if margin >= 0 and order.volume > 0:
        z1 = order.volume / order.price
        return Trade2(z1, order.volume), margin * order.volume / order.price
    return Trade2(0.0, 0.0), 0.0


# ---------------------------------------------------------------------------
# Dual function: at strictly positive prices nu with nu[output] = 1, the
# budget's worth plus every pool's and order's best-response value bounds
# the output of any feasible route. It certifies every solve.
# ---------------------------------------------------------------------------


def _dual_value(prog, nu, budget):
    pools, orders = prog.trading_sets
    value = budget * nu[prog.input]
    for market, assets in pools:
        value += _geometric_subproblem(market, nu[list(assets)])[2]
    for order in orders:
        margin = nu[order.output_asset] * order.price - nu[order.input_asset]
        value += max(margin, 0.0) * order.volume / order.price
    return value


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
    assets and trading sets (which `_dual_value` reads), index maps, the
    budget-free part of each asset's scale and where each entry of the
    reduced Newton matrix lands. `lanes` adds the parts that depend on the
    budget."""

    def __init__(self, problem):
        self.n_assets = n = problem.n_assets
        util = problem.utility
        self.input, self.out = util.input_asset, util.output_asset
        self.trading_sets = pools, orders = _trading_sets(problem)
        pool, asset, reserve, fee, coef, pair = [], [], [], [], [], []
        for p, (market, assets) in enumerate(pools):
            pair.extend(itertools.product(range(len(pool), len(pool) + len(assets)), repeat=2))
            weights = market.exponents
            total_w = sum(weights)
            for a, res, w in zip(assets, market.reserves, weights):
                pool.append(p)
                asset.append(a)
                reserve.append(res)
                fee.append(market.fee)
                coef.append(w / total_w)
        self.pool = np.array(pool, dtype=int)
        self.asset = np.array(asset, dtype=int)
        self.reserve = np.array(reserve)
        self.fee = np.array(fee)
        self.coef = np.array(coef)
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
        e_out = 2 * n_legs + np.arange(n_orders)
        e_in, e_slack = e_out + n_orders, 2 * n_legs + 2 * n_orders + assets
        self.entry_pair = e1, e2 = (
            np.concatenate([e_out, e_out, e_in, e_in, e_slack]),
            np.concatenate([e_out, e_in, e_out, e_in, e_slack]),
        )
        self.s_index = np.concatenate(
            [self.asset * (n + 1), self.asset[first] * n + self.asset[second], self.a_row[e1] * n + self.a_row[e2]]
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
        """Exactly feasible trades near x, in the problem's units, for balance offsets h.

        Clips x to its bounds and nets each leg (tendering and receiving one
        asset in one pool leaves the same reserve with less spent). Then, in
        turns, scales each pool's received legs down until its invariant
        holds with a margin, and cuts the spending of every asset spent
        beyond its budget. Returns each leg's tendered and received amount,
        each order's fill and psi; no trade at all if eight rounds
        leave an asset overspent.
        """
        n_legs, fee, n = self.n_legs, self.fee, self.n_assets
        d = np.maximum(x[:n_legs], 0.0)
        r = np.maximum(x[n_legs : 2 * n_legs], 0.0)
        d, r = np.maximum(d - r / fee, 0.0), np.maximum(r - fee * d, 0.0)
        y = np.clip(x[self.fills], 0.0, 1.0)
        for _ in range(8):
            r *= self._invariant_scale(d, r)[self.pool]
            d_abs, r_abs, fill = d * self.reserve, r * self.reserve, y * self.volume
            spent = np.bincount(self.asset, d_abs, n) + np.bincount(self.order_in, fill / self.price, n)
            made = np.bincount(self.asset, r_abs, n) + np.bincount(self.order_out, fill, n)
            left = made + h - spent
            if left.min() >= 0.0:
                return d_abs, r_abs, fill, made - spent
            cut = self._cuts(d, r, fill, spent, made, left)
            d *= 1.0 - cut[self.asset]
            y *= 1.0 - cut[self.order_in]
        return np.zeros(n_legs), np.zeros(n_legs), np.zeros(len(y)), np.zeros(n)

    def _cuts(self, d, r, fill, spent, made, left):
        """Fractions of each asset's spending to cut so that none is overspent.

        Cutting what a pool tenders makes it give back less of everything it
        pays out, so cuts spread along the trades, loops included. To first
        order the loss at asset b per unit fraction cut at asset a is
        M[b, a]; the cuts c solve (spent - M) c = need on the assets that
        end up short, where need brings each to a margin of 1e-13 of its
        flow.
        """
        n, pool, fee = self.n_assets, self.pool, self.fee
        q = self.reserves(d, r)
        w = self.coef
        tender = w * fee * d / q
        pay = w * r / q
        total_pay = np.bincount(pool, pay, self.n_pools)
        share = np.zeros((n, self.n_pools))
        share[self.asset, pool] = self.reserve * r / np.where(total_pay > 0.0, total_pay, 1.0)[pool]
        source = np.zeros((self.n_pools, n))
        source[pool, self.asset] = tender
        loss = share @ source
        np.add.at(loss, (self.order_out, self.order_in), fill)

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
        """Per pool, the largest t <= 1 such that receiving t * r keeps its invariant.

        Newton steps on the log invariant, which is concave and falling in t,
        so they approach its root from above; they aim at 2e-14 and stop at
        1e-14, which keeps rounding on the feasible side.
        """
        pool, n_pools, w = self.pool, self.n_pools, self.coef
        t = np.ones(n_pools)
        for _ in range(60):
            q = self.reserves(d, t[pool] * r)
            phi = np.bincount(pool, w * np.log(q), n_pools)
            slope = np.bincount(pool, w * r / q, n_pools)
            low = (phi < 1e-14) & (slope > 1e-300)
            if not low.any():
                break
            t[low] = np.maximum(t[low] + (phi[low] - 2e-14) / slope[low], 0.0)
        return t

    def prices(self, z_slack, scale):
        """Asset prices from one lane's slack multipliers and scale, output asset at 1."""
        nu = z_slack / scale
        nu[self.out] += 1.0 / scale[self.out]
        return nu / nu[self.out]


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


def _interior_point(prog, budgets, max_iter):
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
    for bit that of the batch of it alone. Once a lane's estimated gap is
    well inside TOL, each iterate is rounded to exactly feasible trades and
    certified by `_dual_value` at the slack multipliers. A lane leaves the
    batch once it is certified, its estimate falls to 1e-6 or below, it
    reaches `max_iter` steps, or its step is not positive (a singular Newton
    matrix gives a NaN step). Returns, per budget, the last rounded trades
    with their prices and gap, whether they are certified, and the
    iteration count.
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
    results = [None] * len(ids)

    def certify(i):
        # A fill whose bound's multiplier exceeds its slack is put on that
        # bound.
        x = p[i, :nx]
        point = x.copy()
        point[fills][z[i, fills] > x[fills]] = 0.0
        point[fills][z[i, nx:nb] > p[i, nx:nb]] = 1.0
        d, r, y, psi = prog.trades(point, lanes.h[i])
        prices = prog.prices(z[i, slack:nx], lanes.scale[i])
        bound = _dual_value(prog, prices, lanes.budget[i])
        gap = bound - float(psi[out])
        return (d, r, y, psi, prices, gap), gap <= TOL * max(1.0, abs(bound))

    iterations = 0
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
        done = np.zeros(len(ids), dtype=bool)
        for i in np.flatnonzero((estimate <= 1.0) | (iterations >= max_iter)):
            result, passed = certify(i)
            if passed or estimate[i] <= 1e-6 or iterations >= max_iter:
                results[ids[i]] = result, passed, iterations
                done[i] = True
        if done.any():
            keep = ~done
            p, z, nu, ids, pz, q, jac, r_p, r_f = (a[keep] for a in (p, z, nu, ids, pz, q, jac, r_p, r_f))
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

        moves = (a_p > 0.0) & (a_d > 0.0)  # also catches NaN
        if not moves.all():
            for i in np.flatnonzero(~moves):
                results[ids[i]] = (*certify(i), iterations)
            p, z, nu, ids, dp, dz, dnu, a_p, a_d = (a[moves] for a in (p, z, nu, ids, dp, dz, dnu, a_p, a_d))
            lanes = lanes.take(moves)
        p += (0.99 * a_p)[:, None] * dp
        z += (0.99 * a_d)[:, None] * dz
        nu += (0.99 * a_d)[:, None] * dnu
        iterations += 1
    return results


def _solution(problem, result):
    """One lane's `_interior_point` result as the problem's RoutingSolution."""
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
    order_trades = [Trade2(fill / order.price, fill) for order, fill in zip(problem.orders, y.tolist())]
    return RoutingSolution(
        psi=psi,
        market_trades=market_trades,
        order_trades=order_trades,
        utility_value=float(psi[problem.utility.output_asset]),
        status=STATUS_OPTIMAL if passed else STATUS_MAX_ITER,
        dual_prices=prices,
        gap=gap,
        iterations=iterations,
    )


def _solve_budgets(problem, budgets, max_iter):
    """Solutions at a list of nonnegative budgets; the problem's own budget
    is not read. Every budget, 0 included, is a lane of one program, whose
    route `_check_route_exists` checks first, in consecutive chunks of as
    many lanes as fit MAX_SOLVE_BYTES."""
    lane_bytes = check_solve_size(problem)
    prog = _Program(problem)
    _check_route_exists(prog)
    chunk = MAX_SOLVE_BYTES // lane_bytes
    solutions = []
    for start in range(0, len(budgets), chunk):
        results = _interior_point(prog, budgets[start : start + chunk], max_iter)
        solutions.extend(_solution(problem, result) for result in results)
    return solutions


def solve_routing(problem: RoutingProblem, max_iter: int = MAX_ITER) -> RoutingSolution:
    """Solve the routing problem to a relative primal-dual gap of `TOL`.

    One primal-dual interior-point solve of the convex primal, of at most
    `max_iter` Newton steps: the batch of one lane (`_interior_point`). A
    solve is `optimal` only when the exact dual bound at the solve's prices
    (`dual_prices`, output asset at 1) exceeds the output of the returned,
    exactly feasible trades by at most TOL * max(1, |bound|); `gap` is the
    bound minus that output. Otherwise the status is `max_iter`, and the
    trades are still feasible. A constant-sum pool's trades are its two
    orders' fills (f_ab, f_ba): tendered (f_ab, f_ba) / fee and received
    (f_ba, f_ab). Raises ValueError, before allocating anything per asset,
    for a problem `check_solve_size` refuses.
    """
    return _solve_budgets(problem, [problem.utility.budget], max_iter)[0]


def solve_curve(problem: RoutingProblem, s_grid) -> list[RoutingSolution]:
    """Solve across a budget grid, one solution per budget, in grid order.

    `Liquidate` refuses a negative or non-finite budget. Every budget, 0
    included, is a lane of one batched interior-point solve over one
    program, run in consecutive chunks of as many lanes as fit the
    MAX_SOLVE_BYTES budget (`check_solve_size`). Each lane is certified
    alone, so its solution is bit for bit what `solve_routing` returns at
    its budget, whatever the grid's order.
    """
    grid = list(s_grid)
    util = problem.utility
    for s in grid:
        Liquidate(util.input_asset, util.output_asset, s)  # refuses a non-finite budget
    return _solve_budgets(problem, grid, MAX_ITER)


def brute_force_route(problem: RoutingProblem, grid_resolution: int) -> float:
    """Grid-search oracle for small single-hop instances: the best output found.

    Every leg must trade the utility pair directly; the budget is split
    across legs on a simplex grid and each leg is valued by its own output
    curve, and the best split's total output is returned (0.0 with no
    legs). Only meant as an independent check at oracle scale.
    """
    if len(problem.markets) > 2 or len(problem.orders) > 2:
        raise ValueError("oracle limited to at most 2 markets and 2 orders")
    util = problem.utility
    legs = []
    for market, assets in problem.markets:
        try:
            i, o = assets.index(util.input_asset), assets.index(util.output_asset)
        except ValueError:
            raise ValueError("oracle requires every market to trade the utility pair")
        legs.append(("market", market, i, o))
    for order in problem.orders:
        if (order.input_asset, order.output_asset) != (util.input_asset, util.output_asset):
            raise ValueError("oracle requires every order to trade the utility pair")
        legs.append(("order", order))

    n_legs = len(legs)
    if n_legs == 0:
        return 0.0
    if grid_resolution ** max(n_legs - 1, 1) > 10**7:
        raise ValueError("grid too large for the brute-force oracle")

    def leg_value(leg, amounts):
        if leg[0] == "market":
            _, market, i, o = leg
            return forward_exchange_batch(market, i, o, amounts)
        order = leg[1]
        return np.minimum(order.price * amounts, order.volume)

    s = util.budget
    if n_legs == 1:
        totals = leg_value(legs[0], np.array([s]))
    else:
        axes = [np.linspace(0.0, s, grid_resolution) for _ in range(n_legs - 1)]
        mesh = np.meshgrid(*axes, indexing="ij")
        alloc_head = np.stack([m.ravel() for m in mesh], axis=1)
        last = s - alloc_head.sum(axis=1)
        keep = last >= -1e-12
        alloc = np.column_stack([alloc_head[keep], np.clip(last[keep], 0.0, None)])
        totals = np.zeros(alloc.shape[0])
        for col, leg in enumerate(legs):
            totals += leg_value(leg, alloc[:, col])
    return float(totals.max())


def solution_residuals(problem: RoutingProblem, solution: RoutingSolution) -> dict:
    """Feasibility diagnostics: reconstruction, trading-set, and budget slack."""
    psi = np.zeros(problem.n_assets)
    worst_market = 0.0
    for (market, assets), (d, r) in zip(problem.markets, solution.market_trades):
        np.add.at(psi, list(assets), r - d)
        before = trading_function(market, market.reserves)
        after_reserves = np.asarray(market.reserves) + market.fee * d - r
        after = trading_function(market, np.clip(after_reserves, 0.0, None))
        worst_market = max(worst_market, (before - after) / max(1.0, abs(before)))
    worst_order = 0.0
    for order, trade in zip(problem.orders, solution.order_trades):
        psi[order.output_asset] += trade.z2
        psi[order.input_asset] -= trade.z1
        worst_order = max(
            worst_order,
            -(order.price * trade.z1 - trade.z2),
            trade.z2 - order.volume,
            -trade.z1,
            -trade.z2,
        )
    recon = float(np.max(np.abs(psi - solution.psi))) if problem.n_assets else 0.0
    h_init = np.zeros(problem.n_assets)
    h_init[problem.utility.input_asset] = problem.utility.budget
    budget = float(np.min(solution.psi + h_init))
    return {
        "reconstruction": recon,
        "market_residual": float(worst_market),
        "order_slack": float(worst_order),
        "budget_slack": budget,
    }
