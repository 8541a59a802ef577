"""Output checks, one per operation, with the acceptance battery's tolerances.

Each check reads what the operation wrote and returns None when the output
is right, or a one-line description of what is wrong. Checks run after the
operation's timer has stopped and outside any traced span.
"""

from __future__ import annotations

import math
import os

TABLE1_MARKETS = 5  # order market ids start after the five table1 pools
TABLE1_OUTPUT_ASSET = 2


def read_csv(path):
    """Header and rows of a hookroute CSV, skipping its `#` comment lines."""
    with open(path) as handle:
        lines = [line.rstrip("\n") for line in handle if not line.startswith("#")]
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def check_pigou(out_dir):
    from hookroute.cfmm import LimitOrder, Market, PRODUCT, compose_with_order, modified_forward_exchange
    from hookroute.scenarios import PIGOU_ORDER_PRICE, PIGOU_ORDER_VOLUME, PIGOU_RESERVES

    curve = compose_with_order(
        Market(PRODUCT, PIGOU_RESERVES, 1.0),
        LimitOrder(PIGOU_ORDER_PRICE, PIGOU_ORDER_VOLUME, 0, 1),
    )
    _, rows = read_csv(os.path.join(out_dir, "pigou_output.csv"))
    worst = max(abs(float(u) - modified_forward_exchange(curve, float(s))) for s, u, _ in rows)
    if not worst <= 1e-5:
        return f"|u - composed curve| = {worst:.2e} > 1e-5"
    return None


def check_table1(out_dir):
    _, outputs = read_csv(os.path.join(out_dir, "route_output.csv"))
    for s, with_orders, without in outputs:
        if float(with_orders) < float(without) - 1e-6:
            return f"orders lower the output at s={s}"
    _, trades = read_csv(os.path.join(out_dir, "route_trades.csv"))
    top = max(float(row[0]) for row in trades)
    supplied = sum(
        float(amount)
        for s, market, asset, amount in trades
        if float(s) == top and int(market) >= TABLE1_MARKETS and int(asset) == TABLE1_OUTPUT_ASSET
    )
    if not abs(supplied - 60.0) <= 1e-3:
        return f"orders supply {supplied!r} at s={top!r}, expected 60 within 1e-3"
    return None


def check_hook_trades(filename, total_trade):
    def check(out_dir):
        header, rows = read_csv(os.path.join(out_dir, filename))
        column = header.index("delta_star")
        for row in rows:
            trade = float(row[column])
            if math.isnan(trade) and row[-1] == "false":
                continue  # unreachable frontier target, flagged by the command
            if not 0.0 <= trade <= total_trade:
                return f"delta_star {trade!r} outside [0, {total_trade!r}]"
        return None

    return check


def check_liquidation_values(out_dir):
    _, rows = read_csv(os.path.join(out_dir, "liquidation_solution.csv"))
    first = [row for row in rows if row[0] == "0"]
    top = max(float(row[1]) for row in first)
    row = [(float(z), float(v)) for _, inv, z, v, _ in first if float(inv) == top]
    values = [v for _, v in sorted(row)]
    tol = 1e-9 * max(1.0, max(abs(v) for v in values))
    if any(b - a > tol for a, b in zip(values, values[1:])):
        return "value at t=0 increases in the mispricing"
    return None


def check_inventory_paths(inventory):
    def check(out_dir):
        _, rows = read_csv(os.path.join(out_dir, "inventory_paths.csv"))
        tol = 1e-9 * inventory
        last = {}
        for path, t, held in rows:
            held = float(held)
            if t == "0" and held != inventory:
                return f"path {path} starts at {held!r}, not {inventory!r}"
            if held < -tol or held > last.get(path, inventory) + tol:
                return f"path {path} inventory {held!r} at t={t} grows or goes negative"
            last[path] = held
        return None

    return check


def check_twamm(out_dir):
    _, rows = read_csv(os.path.join(out_dir, "twamm_comparison.csv"))
    by_sigma = {float(s): (float(m), float(e)) for s, m, e in rows}
    mean0, stderr0 = by_sigma[0.0]
    if not mean0 <= 2 * stderr0:
        return f"excess {mean0!r} > 2 stderr ({stderr0!r}) at zero volatility"
    mean_top, _ = by_sigma[max(by_sigma)]
    if not mean_top > 0.0:
        return f"excess {mean_top!r} not positive at the top volatility"
    return None


def check_routing(problem, solution):
    """Status and feasibility of one routing-scale solve.

    Returns (failure, wrong): `failure` describes why the solve counts as
    failed, `wrong` is true when the returned trades break feasibility, a
    wrong output rather than a declared non-convergence.
    """
    from hookroute.routing import STATUS_OPTIMAL, solution_residuals

    res = solution_residuals(problem, solution)
    broken = [
        name
        for name, bad in (
            ("reconstruction", res["reconstruction"] > 1e-8),
            ("market_residual", res["market_residual"] > 1e-8),
            ("order_slack", res["order_slack"] > 1e-8),
            ("budget_slack", res["budget_slack"] < -1e-8),
        )
        if bad
    ]
    if broken:
        return f"residuals beyond 1e-8: {', '.join(broken)}", True
    if solution.status != STATUS_OPTIMAL:
        status = f"status {solution.status} after {solution.iterations} iterations"
        return f"{status}, gap {solution.gap:.2e}", False
    return None, False
