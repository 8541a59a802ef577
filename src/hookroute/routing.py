"""Optimal trade routing across CFMMs and limit orders.

The routing problem maximizes the output of a liquidation over the joint
feasible set of every market and standing order. It is solved by dual
decomposition: a price vector over the global assets is adjusted so that the
per-market best responses clear the user's budget. Product and sum markets
answer in closed form; a weighted geometric-mean pool sorts its assets by
price times reserve over weight, and its KKT conditions make the tendered
assets a prefix and the received ones a suffix of that order, so only O(n^2)
splits are checked. The resulting dual value is a certified upper bound, and
the primal is recovered from the best responses plus a small completion LP,
solved by a dense bounded-variable simplex, that settles the piecewise-linear
legs (orders, constant-sum pools) and scales each best response down.
Only the local solves (L-BFGS-B, SLSQP, Nelder-Mead) use scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cfmm import (
    PRODUCT,
    SUM,
    LimitOrder,
    Market,
    Trade2,
    forward_exchange,
    forward_exchange_batch,
    trading_function,
)

STATUS_OPTIMAL = "optimal"
STATUS_MAX_ITER = "max_iter"


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


@dataclass(frozen=True)
class DualPrices:
    """Strictly positive per-asset prices used by the decomposition."""

    values: tuple[float, ...]

    def __post_init__(self):
        if any(v <= 0 for v in self.values):
            raise ValueError("dual prices must be strictly positive")


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
    dual_prices: np.ndarray | None = None
    gap: float = 0.0
    iterations: int = 0


# ---------------------------------------------------------------------------
# Best-response subproblems: maximize nu . (received - tendered) over a
# trading set. Each returns (tendered, received, value).
# ---------------------------------------------------------------------------


def _product_subproblem(market, nu):
    fee = market.fee
    best = (np.zeros(2), np.zeros(2), 0.0)
    for i, o in ((0, 1), (1, 0)):
        r_in, r_out = market.reserves[i], market.reserves[o]
        root = math.sqrt(nu[o] * fee * r_in * r_out / nu[i])
        if root <= r_in:
            continue
        d = (root - r_in) / fee
        r = r_out * fee * d / (r_in + fee * d)
        val = nu[o] * r - nu[i] * d
        if val > best[2]:
            tendered, received = np.zeros(2), np.zeros(2)
            tendered[i], received[o] = d, r
            best = (tendered, received, val)
    return best


def _sum_directions(market, nu):
    # Bang-bang legs: per unit of output received, 1/fee units are tendered.
    fee = market.fee
    out = []
    for i, o in ((0, 1), (1, 0)):
        margin = nu[o] - nu[i] / fee
        out.append(((i, o), market.reserves[o], margin))
    return out


def _sum_subproblem(market, nu):
    tendered, received = np.zeros(2), np.zeros(2)
    value = 0.0
    for (i, o), cap, margin in _sum_directions(market, nu):
        if margin >= 0 and margin * cap >= value:
            tendered, received = np.zeros(2), np.zeros(2)
            tendered[i], received[o] = cap / market.fee, cap
            value = margin * cap
    return tendered, received, value


def _geometric_subproblem(market, nu):
    """Exact best response for a weighted geometric-mean pool.

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
    w = market.weights
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


def arbitrage_subproblem(market: Market, assets, nu: DualPrices | np.ndarray):
    """Best response of one market to global prices.

    Returns ((tendered, received), value) in the market's local indexing.
    """
    nu_all = np.asarray(nu.values if isinstance(nu, DualPrices) else nu, dtype=float)
    if np.any(nu_all <= 0):
        raise ValueError("dual prices must be strictly positive")
    nu_local = nu_all[list(assets)]
    if market.kind == PRODUCT:
        d, r, val = _product_subproblem(market, nu_local)
    elif market.kind == SUM:
        d, r, val = _sum_subproblem(market, nu_local)
    else:
        d, r, val = _geometric_subproblem(market, nu_local)
    return (d, r), val


def limit_order_subproblem(order: LimitOrder, nu: DualPrices | np.ndarray):
    """Best response of one order: fill fully iff the fill is not a loss.

    Ties (price exactly at indifference) fill fully for determinism; the
    objective value is unaffected there.
    """
    nu_all = np.asarray(nu.values if isinstance(nu, DualPrices) else nu, dtype=float)
    if np.any(nu_all <= 0):
        raise ValueError("dual prices must be strictly positive")
    margin = nu_all[order.output_asset] * order.price - nu_all[order.input_asset]
    if margin >= 0 and order.volume > 0:
        z1 = order.volume / order.price
        return Trade2(z1, order.volume), margin * order.volume / order.price
    return Trade2(0.0, 0.0), 0.0


# ---------------------------------------------------------------------------
# Dual function. The order and constant-sum legs are hinge-shaped in the
# prices; an optional softplus smoothing keeps the outer quasi-Newton loop
# away from their kinks until the final stages.
# ---------------------------------------------------------------------------


def _softplus(t, mu):
    if mu <= 0:
        return max(t, 0.0), 1.0 if t >= 0 else 0.0
    u = t / mu
    if u > 40:
        return t, 1.0
    if u < -40:
        return 0.0, 0.0
    return mu * math.log1p(math.exp(u)), 1.0 / (1.0 + math.exp(-u))


def _dual_value_grad(problem, nu, mu):
    util = problem.utility
    value = util.budget * nu[util.input_asset]
    grad = np.zeros(problem.n_assets)
    grad[util.input_asset] += util.budget
    for market, assets in problem.markets:
        idx = list(assets)
        nu_local = nu[idx]
        if market.kind == SUM:
            for (i, o), cap, margin in _sum_directions(market, nu_local):
                sp, frac = _softplus(margin, mu)
                value += cap * sp
                grad[assets[o]] += cap * frac
                grad[assets[i]] -= cap * frac / market.fee
        else:
            if market.kind == PRODUCT:
                d, r, val = _product_subproblem(market, nu_local)
            else:
                d, r, val = _geometric_subproblem(market, nu_local)
            value += val
            np.add.at(grad, idx, r - d)
    for order in problem.orders:
        margin = nu[order.output_asset] * order.price - nu[order.input_asset]
        sp, frac = _softplus(margin, mu)
        scale = order.volume / order.price
        value += scale * sp
        grad[order.output_asset] += order.volume * frac
        grad[order.input_asset] -= scale * frac
    return value, grad


def _check_route_exists(problem):
    adj = [set() for _ in range(problem.n_assets)]
    for _, assets in problem.markets:
        for a in assets:
            adj[a].update(b for b in assets if b != a)
    for order in problem.orders:
        adj[order.input_asset].add(order.output_asset)
    start, goal = problem.utility.input_asset, problem.utility.output_asset
    seen, frontier = {start}, [start]
    while frontier:
        node = frontier.pop()
        if node == goal:
            return
        for nxt in adj[node]:
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    raise NoFeasibleRouteError(
        f"no feasible route from asset {start} to asset {goal}"
    )


# ---------------------------------------------------------------------------
# Primal recovery: freeze the smooth best responses, then let a small LP
# choose the hinge legs (order fills, constant-sum fills) and per-market
# scale-downs so the budget constraint holds exactly. The LP has one row per
# asset and a right-hand side >= 0, so a dense bounded simplex started from
# the all-slack basis at x = 0 solves it.
# ---------------------------------------------------------------------------


def _bounded_simplex(cost, a_ub, b_ub, upper, max_steps=None):
    """Maximize cost @ x subject to a_ub @ x <= b_ub and 0 <= x <= upper.

    Dense bounded-variable primal simplex for b_ub >= 0, where x = 0 is
    feasible: the slacks are the starting basis, every nonbasic variable sits
    at one of its bounds, and an entering variable whose own range is shorter
    than every ratio flips to its other bound without a pivot. Bland's rule
    (the lowest eligible index enters, the lowest basic index leaves among
    tied ratios) rules out cycling. Every iterate is feasible, so after
    `max_steps` steps (default 50 per variable, slacks included) the current
    vertex is returned; the caller's gap certificate, not this routine,
    decides whether it is optimal.
    """
    m, n = a_ub.shape
    width = n + m
    tab = np.zeros((m + 1, width))  # rows: B^-1 [A I]; last row: reduced costs
    tab[:m, :n] = a_ub
    tab[:m, n:] = np.eye(m)
    tab[m, :n] = cost
    upper_all = np.concatenate([upper, np.full(m, np.inf)])
    basis = list(range(n, width))
    is_basic = np.zeros(width, dtype=bool)
    is_basic[n:] = True
    at_upper = np.zeros(width, dtype=bool)
    x_basic = np.array(b_ub, dtype=float)
    dual_tol = 1e-11 * max(1.0, float(np.abs(cost).max(initial=0.0)))
    pivot_tol = 1e-11 * max(1.0, float(np.abs(a_ub).max(initial=0.0)))

    for _ in range(50 * width if max_steps is None else max_steps):
        reduced = tab[m]
        eligible = np.flatnonzero(
            ~is_basic & np.where(at_upper, reduced < -dual_tol, reduced > dual_tol)
        )
        if not eligible.size:
            break
        j = int(eligible[0])
        step_sign = -1.0 if at_upper[j] else 1.0
        # Basic values move by -t * step_sign * alpha as the entering one moves by t.
        rate = step_sign * tab[:m, j]
        ratios = np.full(m, np.inf)
        falling = rate > pivot_tol
        ratios[falling] = np.maximum(x_basic[falling], 0.0) / rate[falling]
        basic_upper = upper_all[basis]
        rising = (rate < -pivot_tol) & np.isfinite(basic_upper)
        ratios[rising] = np.maximum(basic_upper[rising] - x_basic[rising], 0.0) / -rate[rising]
        t = float(ratios.min(initial=np.inf))
        if upper_all[j] <= t and j < n:
            x_basic -= upper_all[j] * rate
            at_upper[j] = not at_upper[j]
            continue
        if not math.isfinite(t):
            break  # unbounded ray: impossible when every structural bound is finite
        tied = np.flatnonzero(ratios <= t)
        row = int(min(tied, key=basis.__getitem__))
        leaving = basis[row]
        x_basic -= t * rate
        x_basic[row] = upper_all[j] - t if at_upper[j] else t
        at_upper[leaving] = rate[row] < 0
        is_basic[leaving], is_basic[j] = False, True
        at_upper[j] = False
        basis[row] = j
        tab[row] /= tab[row, j]
        pivot_row = tab[row]
        others = np.arange(m + 1) != row
        tab[others] -= np.outer(tab[others, j], pivot_row)

    # Re-solve the basic values from the final basis rather than keep the
    # values updated over every step, so rounding does not accumulate.
    x = np.where(at_upper, upper_all, 0.0)
    x[basis] = 0.0
    full = np.hstack([a_ub, np.eye(m)])
    x[basis] = np.linalg.solve(full[:, basis], b_ub - full @ x)
    return np.clip(x[:n], 0.0, upper)


def _recover_primal(problem, nu, fixed_trades=None):
    n = problem.n_assets
    util = problem.utility
    columns = []
    upper = []
    kinds = []  # ("market", i, d, r) | ("sum", i, in, out, cap) | ("order", j)

    for i, (market, assets) in enumerate(problem.markets):
        nu_local = nu[list(assets)]
        if market.kind == SUM and fixed_trades is None:
            for (a, b), cap, _ in _sum_directions(market, nu_local):
                col = np.zeros(n)
                col[assets[b]] += 1.0
                col[assets[a]] -= 1.0 / market.fee
                columns.append(col)
                upper.append(cap)
                kinds.append(("sum", i, a, b, cap))
        else:
            if fixed_trades is not None:
                d, r = fixed_trades[i]
            elif market.kind == PRODUCT:
                d, r, _ = _product_subproblem(market, nu_local)
            else:
                d, r, _ = _geometric_subproblem(market, nu_local)
            col = np.zeros(n)
            np.add.at(col, list(assets), r - d)
            columns.append(col)
            upper.append(1.0)
            kinds.append(("market", i, d, r))
    for j, order in enumerate(problem.orders):
        col = np.zeros(n)
        col[order.output_asset] += 1.0
        col[order.input_asset] -= 1.0 / order.price
        columns.append(col)
        upper.append(order.volume)
        kinds.append(("order", j))

    h_init = np.zeros(n)
    h_init[util.input_asset] = util.budget

    market_trades = [
        (np.zeros(m.n_assets), np.zeros(m.n_assets)) for m, _ in problem.markets
    ]
    order_trades = [Trade2(0.0, 0.0) for _ in problem.orders]
    if columns:
        c_mat = np.column_stack(columns)
        x = _bounded_simplex(c_mat[util.output_asset], -c_mat, h_init, np.array(upper))
        for xk, kind in zip(x, kinds):
            if kind[0] == "market":
                _, i, d, r = kind
                tendered, received = market_trades[i]
                tendered += xk * d
                received += xk * r
            elif kind[0] == "sum":
                _, i, a, b, _ = kind
                tendered, received = market_trades[i]
                fee = problem.markets[i][0].fee
                tendered[a] += xk / fee
                received[b] += xk
            else:
                _, j = kind
                order = problem.orders[j]
                prev = order_trades[j]
                order_trades[j] = Trade2(prev.z1 + xk / order.price, prev.z2 + xk)

    psi = np.zeros(n)
    for (market, assets), (d, r) in zip(problem.markets, market_trades):
        np.add.at(psi, list(assets), r - d)
    for order, trade in zip(problem.orders, order_trades):
        psi[order.output_asset] += trade.z2
        psi[order.input_asset] -= trade.z1
    return psi, market_trades, order_trades, float(psi[util.output_asset])


def _polish_primal(problem, start_trades, start_fills):
    """Local primal refinement when the LP completion is not tight.

    The completion LP can only scale a market's best response, which fails at
    degenerate optima where a price-neutral loop needs the trade tilted
    slightly off the best response. This solves the true primal locally
    (sequential quadratic programming over all market legs and order fills,
    warm-started at the LP point), restores each market invariant exactly,
    and returns the polished per-market trades.
    """
    from scipy.optimize import minimize

    n = problem.n_assets
    util = problem.utility
    slices = []
    x0 = []
    offset = 0
    for (market, _), (d, r) in zip(problem.markets, start_trades):
        k = market.n_assets
        slices.append((offset, k))
        x0.extend(d)
        x0.extend(r)
        offset += 2 * k
    order_offset = offset
    x0.extend(t.z2 for t in start_fills)
    x0 = np.asarray(x0)
    total = len(x0)

    # Net-trade matrix: psi = coef @ x.
    coef = np.zeros((n, total))
    for (market, assets), (off, k) in zip(problem.markets, slices):
        for j, asset in enumerate(assets):
            coef[asset, off + j] -= 1.0
            coef[asset, off + k + j] += 1.0
    bounds = [(0.0, None)] * order_offset
    for j, order in enumerate(problem.orders):
        coef[order.output_asset, order_offset + j] += 1.0
        coef[order.input_asset, order_offset + j] -= 1.0 / order.price
        bounds.append((0.0, order.volume))
    h_init = np.zeros(n)
    h_init[util.input_asset] = util.budget

    def invariant(x):
        vals = np.empty(len(problem.markets))
        for i, ((market, _), (off, k)) in enumerate(zip(problem.markets, slices)):
            d, r = x[off : off + k], x[off + k : off + 2 * k]
            post = np.asarray(market.reserves) + market.fee * d - r
            if market.kind == SUM:
                vals[i] = market.fee * d.sum() - r.sum()
            else:
                w = np.ones(2) if market.kind == PRODUCT else np.asarray(market.weights)
                logs = np.log(np.maximum(post, 1e-300))
                vals[i] = w @ logs - w @ np.log(market.reserves)
        return vals

    def invariant_jac(x):
        jac = np.zeros((len(problem.markets), total))
        for i, ((market, _), (off, k)) in enumerate(zip(problem.markets, slices)):
            d, r = x[off : off + k], x[off + k : off + 2 * k]
            if market.kind == SUM:
                jac[i, off : off + k] = market.fee
                jac[i, off + k : off + 2 * k] = -1.0
                continue
            post = np.maximum(np.asarray(market.reserves) + market.fee * d - r, 1e-300)
            w = np.ones(2) if market.kind == PRODUCT else np.asarray(market.weights)
            jac[i, off : off + k] = market.fee * w / post
            jac[i, off + k : off + 2 * k] = -w / post
        return jac

    out_row = coef[util.output_asset]
    res = minimize(
        lambda x: -out_row @ x,
        x0,
        jac=lambda x: -out_row,
        method="SLSQP",
        bounds=bounds,
        constraints=[
            {"type": "ineq", "fun": invariant, "jac": invariant_jac},
            {"type": "ineq", "fun": lambda x: coef @ x + h_init, "jac": lambda x: coef},
        ],
        options={"maxiter": 150, "ftol": 1e-12},
    )
    # SLSQP may wander on hard instances; never hand back a worse point.
    if out_row @ res.x <= out_row @ x0:
        return None
    x = np.clip(res.x, 0.0, None)

    trades = []
    for (market, _), (off, k) in zip(problem.markets, slices):
        d, r = x[off : off + k].copy(), x[off + k : off + 2 * k].copy()
        before = trading_function(market, market.reserves)
        post = np.asarray(market.reserves) + market.fee * d - r

        def feasible(scale):
            adjusted = np.asarray(market.reserves) + market.fee * d - scale * r
            return adjusted.min() > 0 and trading_function(market, adjusted) >= before

        if not (post.min() > 0 and trading_function(market, np.clip(post, 0, None)) >= before):
            lo, hi = 0.0, 1.0
            for _ in range(80):
                mid = 0.5 * (lo + hi)
                if feasible(mid):
                    lo = mid
                else:
                    hi = mid
            r *= lo
        trades.append((d, r))
    return trades


def _zero_solution(problem, nu=None, status=STATUS_OPTIMAL):
    return RoutingSolution(
        psi=np.zeros(problem.n_assets),
        market_trades=[(np.zeros(m.n_assets), np.zeros(m.n_assets)) for m, _ in problem.markets],
        order_trades=[Trade2(0.0, 0.0) for _ in problem.orders],
        utility_value=0.0,
        status=status,
        dual_prices=nu,
        gap=0.0,
    )


_MU_SCHEDULE = (1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8, 0.0)
_MU_WARM = (1e-6, 1e-8, 0.0)


def solve_routing(
    problem: RoutingProblem,
    tol: float = 1e-7,
    max_iter: int = 5000,
    initial_prices: np.ndarray | None = None,
) -> RoutingSolution:
    """Solve the routing problem to a relative primal-dual gap of `tol`.

    The dual prices are minimized in log space (keeping them strictly
    positive) with a quasi-Newton loop over a decreasing smoothing schedule;
    the gradient at each price vector is the net-trade mismatch of the best
    responses. Warm starts via `initial_prices` shorten the schedule. If the
    gap certificate is missed, escalates: local primal polish, Polyak
    subgradient steps on the exact dual targeting the best recovered primal,
    then price-space restarts. Returns a max_iter status only when every
    stage fails to certify; the returned trades are feasible regardless.
    """
    from scipy.optimize import minimize

    util = problem.utility
    if util.budget == 0:
        return _zero_solution(problem)
    _check_route_exists(problem)

    n = problem.n_assets
    numeraire = util.output_asset
    free = np.array([a for a in range(n) if a != numeraire])

    if initial_prices is not None:
        nu0 = np.asarray(initial_prices, dtype=float)
        u = np.log(nu0[free] / nu0[numeraire])
        schedule = _MU_WARM
    else:
        u = np.zeros(len(free))
        schedule = _MU_SCHEDULE

    def objective(u_vec, mu):
        nu = np.ones(n)
        nu[free] = np.exp(np.clip(u_vec, -60, 60))
        value, grad = _dual_value_grad(problem, nu, mu)
        return value, grad[free] * nu[free]

    def prices(u_vec):
        nu = np.ones(n)
        nu[free] = np.exp(np.clip(u_vec, -60, 60))
        return nu

    total_iters = 0
    fallback = None

    def recover(u_vec, passed_status):
        nu = prices(u_vec)
        psi, m_trades, o_trades, value = _recover_primal(problem, nu)
        dual_value, _ = _dual_value_grad(problem, nu, 0.0)
        gap = dual_value - value
        if gap > tol * max(1.0, abs(dual_value)):
            # Scale-only completion was not tight; refine the primal locally
            # and re-complete with the refined trades fixed.
            polished = _polish_primal(problem, m_trades, o_trades)
            if polished is not None:
                psi2, m2, o2, value2 = _recover_primal(problem, nu, fixed_trades=polished)
                if value2 > value:
                    psi, m_trades, o_trades, value = psi2, m2, o2, value2
                    gap = dual_value - value
        solution = RoutingSolution(
            psi=psi,
            market_trades=m_trades,
            order_trades=o_trades,
            utility_value=value,
            status=passed_status,
            dual_prices=nu,
            gap=gap,
            iterations=total_iters,
        )
        return solution, gap <= tol * max(1.0, abs(dual_value))

    def attempt(u_vec):
        nonlocal fallback
        solution, passed = recover(u_vec, STATUS_OPTIMAL)
        if passed:
            return solution
        solution.status = STATUS_MAX_ITER
        if fallback is None or solution.utility_value > fallback.utility_value:
            fallback = solution
        return None

    for mu in schedule:
        remaining = max_iter - total_iters
        if remaining <= 0:
            break
        res = minimize(
            objective,
            u,
            args=(mu,),
            jac=True,
            method="L-BFGS-B",
            options={"maxiter": min(300, remaining), "ftol": 1e-16, "gtol": 1e-12},
        )
        u = res.x
        total_iters += max(res.nit, 1)
        solution = attempt(u)
        if solution is not None:
            return solution

    # The smoothed quasi-Newton loop can stall: the dual is convex in the
    # prices but not in their logs, and the hinge legs add kinks. Escalate in
    # price space directly. First, Polyak subgradient steps toward the best
    # recovered primal value (a valid target by strong duality), alternating
    # with recovery so the target and the bound tighten each other.
    def exact_in_prices(nu_free):
        nu = np.ones(n)
        nu[free] = np.maximum(nu_free, 1e-12)
        value, grad = _dual_value_grad(problem, nu, 0.0)
        return value, grad[free]

    best_nu_free, best_h = np.exp(np.clip(u, -60, 60)), objective(u, 0.0)[0]
    for _ in range(5):
        if fallback is None or max_iter - total_iters <= 0:
            break
        target = fallback.utility_value
        starts = [best_nu_free]
        if fallback.dual_prices is not None:
            starts.append(np.maximum(fallback.dual_prices[free], 1e-12))
        improved = False
        for x0 in starts:
            x = x0.copy()
            for _ in range(min(300, max(max_iter - total_iters, 0))):
                value, grad = exact_in_prices(x)
                total_iters += 1
                if value < best_h:
                    best_nu_free, best_h = x.copy(), value
                    improved = True
                step = value - target
                if step <= 0.5 * tol * max(1.0, abs(value)):
                    break
                norm = grad @ grad
                if norm <= 1e-30:
                    break
                x = np.maximum(x - step / norm * grad, 1e-12)
        solution = attempt(np.log(best_nu_free))
        if solution is not None:
            return solution
        if not improved and fallback.utility_value <= target:
            break

    restarts = np.random.default_rng(0)
    for attempt_idx in range(8):
        remaining = max_iter - total_iters
        if remaining <= 0:
            break
        start = best_nu_free if attempt_idx == 0 else np.exp(restarts.normal(0.0, 2.0, len(free)))
        res = minimize(
            exact_in_prices,
            start,
            jac=True,
            method="L-BFGS-B",
            bounds=[(1e-10, None)] * len(free),
            options={"maxiter": min(500, remaining), "ftol": 1e-16, "gtol": 1e-14},
        )
        total_iters += max(res.nit, 1)
        res = minimize(
            lambda v: exact_in_prices(v)[0],
            res.x,
            method="Nelder-Mead",
            options={
                "maxiter": min(400 * max(1, len(free)), 1200, max(max_iter - total_iters, 1)),
                "xatol": 1e-14,
                "fatol": 1e-16,
            },
        )
        total_iters += max(res.nit, 1)
        if res.fun < best_h:
            best_nu_free, best_h = np.maximum(res.x, 1e-12), res.fun
            solution = attempt(np.log(best_nu_free))
            if solution is not None:
                return solution
    if fallback is None:  # exhausted before any stage ran (tiny max_iter)
        solution, passed = recover(u, STATUS_OPTIMAL)
        if not passed:
            solution.status = STATUS_MAX_ITER
        fallback = solution
    fallback.iterations = total_iters
    return fallback


def solve_curve(problem: RoutingProblem, s_grid, tol: float = 1e-7) -> list[RoutingSolution]:
    """Solve across a budget grid, warm-starting each point from the last."""
    grid = list(s_grid)
    if any(s < 0 for s in grid):
        raise ValueError("budgets must be nonnegative")
    if any(b < a for a, b in zip(grid, grid[1:])):
        raise ValueError("budget grid must be nondecreasing")
    solutions = []
    warm = None
    for s in grid:
        sub = RoutingProblem(
            problem.n_assets,
            problem.markets,
            problem.orders,
            Liquidate(problem.utility.input_asset, problem.utility.output_asset, s),
        )
        sol = solve_routing(sub, tol=tol, initial_prices=warm)
        if sol.status != STATUS_OPTIMAL and warm is not None:
            sol = solve_routing(sub, tol=tol)  # retry cold with the full schedule
        solutions.append(sol)
        if sol.dual_prices is not None:
            warm = sol.dual_prices
    return solutions


def brute_force_route(problem: RoutingProblem, grid_resolution: int) -> RoutingSolution:
    """Grid-search oracle for small single-hop instances.

    Every leg must trade the utility pair directly; the budget is split
    across legs on a simplex grid and each leg is valued by its own output
    curve. Only meant as an independent check at oracle scale.
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
        return _zero_solution(problem)
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
        alloc = np.array([[s]])
        totals = leg_value(legs[0], alloc[:, 0])
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
    best_idx = int(np.argmax(totals))
    best_alloc = alloc[best_idx]
    value = float(totals[best_idx])

    psi = np.zeros(problem.n_assets)
    market_trades = []
    order_trades = []
    m_i = 0
    for col, leg in enumerate(legs):
        amt = float(best_alloc[col])
        if leg[0] == "market":
            _, market, i, o = leg
            out = forward_exchange(market, i, o, amt)
            d, r = np.zeros(market.n_assets), np.zeros(market.n_assets)
            d[i], r[o] = amt, out
            market_trades.append((d, r))
            assets = problem.markets[m_i][1]
            psi[assets[i]] -= amt
            psi[assets[o]] += out
            m_i += 1
        else:
            order = leg[1]
            z2 = min(order.price * amt, order.volume)
            z1 = z2 / order.price
            order_trades.append(Trade2(z1, z2))
            psi[order.input_asset] -= z1
            psi[order.output_asset] += z2
    return RoutingSolution(
        psi=psi,
        market_trades=market_trades,
        order_trades=order_trades,
        utility_value=value,
        status=STATUS_OPTIMAL,
        dual_prices=None,
    )


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
