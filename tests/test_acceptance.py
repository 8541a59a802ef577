"""Acceptance battery: one test per shipped claim, each printing a verdict.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
pass lines. Tolerances are fixed here, not configurable.
"""

import dataclasses
import json
import time

import numpy as np
import pytest

from hookroute.cfmm import (
    LimitOrder,
    Market,
    PRODUCT,
    compose_with_order,
    modified_forward_exchange,
)
from hookroute.cli import main
from hookroute.liquidation import (
    MdpConfig,
    MispricingParams,
    PoolParams,
    compare_vs_twamm,
    draw_noise,
    jump,
    simulate_policy,
    value_iteration,
)
from hookroute.noncomposable import (
    HookScenario,
    LINEAR,
    QUADRATIC,
    SUPERLINEAR,
    VarianceSpec,
    combined_return,
    cpmm_output,
    efficient_frontier,
    fill_variance,
    hook_output,
    solve_mean_variance,
)
from hookroute.routing import solve_curve, solve_routing
from hookroute.scenarios import (
    PIGOU_ORDER_PRICE,
    PIGOU_ORDER_VOLUME,
    PIGOU_RESERVES,
    pigou_problem,
    table1_problem,
)
from test_routing import brute_force_route, random_instance


def report(n, text):
    print(f"\n[criterion {n:2d}] PASS: {text}")


def test_criterion_1_pigou_equivalence():
    curve = compose_with_order(
        Market(PRODUCT, PIGOU_RESERVES, 1.0),
        LimitOrder(PIGOU_ORDER_PRICE, PIGOU_ORDER_VOLUME, 0, 1),
    )
    grid = np.linspace(0.0, 20.0, 100)
    start = time.perf_counter()
    solutions = solve_curve(pigou_problem(0.0), grid)
    elapsed = time.perf_counter() - start
    worst = max(
        abs(sol.utility_value - modified_forward_exchange(curve, s))
        for s, sol in zip(grid, solutions)
    )
    assert worst <= 1e-5
    assert elapsed < 5.0
    report(1, f"|u - composed curve| <= {worst:.2e} on 100 points in {elapsed:.2f}s")


def test_criterion_2_table1_consumption():
    grid = np.linspace(0.0, 500.0, 100)
    start = time.perf_counter()
    problem = table1_problem(0.0)
    with_orders = solve_curve(problem, grid)
    elapsed = time.perf_counter() - start
    without = solve_curve(dataclasses.replace(problem, orders=[]), grid)
    # Each order's trade follows the markets' and receives its fill second.
    order_total = sum(r[1] for _, r in with_orders[-1].market_trades[len(problem.markets) :])
    assert order_total == pytest.approx(60.0, abs=1e-3)
    for a, b in zip(with_orders, without):
        assert a.utility_value >= b.utility_value - 1e-6
    assert elapsed < 30.0
    report(
        2,
        f"orders supply 60.0 within {abs(order_total - 60):.1e} at s=500; "
        f"100 solves in {elapsed:.2f}s",
    )


def test_criterion_3_routing_oracle():
    rng = np.random.default_rng(20240501)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(50):
        problem = random_instance(rng)
        reference = brute_force_route(problem, 10**4)
        solved = solve_routing(problem)
        rel = abs(solved.utility_value - reference) / max(abs(reference), 1e-9)
        worst = max(worst, rel)
        assert rel <= 1e-3
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report(3, f"50 instances, worst relative objective error {worst:.2e} in {elapsed:.1f}s")


def test_criterion_4_curve_properties():
    checked = 0
    for factory, top in ((pigou_problem, 16.0), (table1_problem, 500.0)):
        grid = np.linspace(0.0, top, 40)
        u_with = [s.utility_value for s in solve_curve(factory(0.0), grid)]
        u_without = [s.utility_value for s in solve_curve(dataclasses.replace(factory(0.0), orders=[]), grid)]
        for series in (u_with, u_without):
            assert all(b >= a - 1e-6 for a, b in zip(series, series[1:]))
            assert all(
                series[i] >= 0.5 * (series[i - 1] + series[i + 1]) - 1e-6
                for i in range(1, len(series) - 1)
            )
        assert all(a >= b - 1e-6 for a, b in zip(u_with, u_without))
        checked += 1
    # An extra order on top of the benchmark network still never hurts.
    base = table1_problem(0.0)
    extra = table1_problem(0.0)
    extra.orders = list(extra.orders) + [LimitOrder(0.3, 10.0, 0, 2)]
    grid = np.linspace(0.0, 400.0, 9)
    for a, b in zip(solve_curve(extra, grid), solve_curve(base, grid)):
        assert a.utility_value >= b.utility_value - 1e-6
    report(4, "u(s) nondecreasing, midpoint-concave; orders never hurt (2 networks)")


def test_criterion_5_jump_equivalence():
    rng = np.random.default_rng(7)
    price = np.exp(rng.uniform(np.log(1e-3), np.log(1e5), 10**4))
    liquidity = np.exp(rng.uniform(np.log(1.0), np.log(1e8), 10**4))
    trade = rng.uniform(0.0, 1e4, 10**4)
    reserve_in = liquidity / np.sqrt(price)
    via_reserves = np.log((liquidity / (reserve_in + trade)) ** 2 / (liquidity / reserve_in) ** 2)
    worst = np.abs(jump(trade, price, liquidity) - via_reserves).max()
    assert worst <= 1e-12
    report(5, f"impact formula matches reserve update, worst |diff| = {worst:.1e}")


def test_criterion_6_mdp_shape():
    pool = PoolParams(1e4, 5000 * 1e4, 0.003, 0.003)
    params = MispricingParams(0.0, 8.0, 1.0)
    cfg = MdpConfig(
        horizon=200, inventory=1000.0, gas=2.0, inventory_cost=0.1, discount=0.01
    )
    start = time.perf_counter()
    policy = value_iteration(cfg, pool, params)
    elapsed = time.perf_counter() - start
    v_row = policy.values[0, -1, :]
    tol = 1e-9 * max(1.0, float(np.abs(v_row).max()))
    assert np.all(np.diff(v_row) <= tol)
    p_row = policy.action_index[0, -1, :].astype(int)
    assert np.all(p_row[1:] <= p_row[:-1] + 1)
    assert elapsed < 120.0
    report(
        6,
        f"value nonincreasing in mispricing, policy monotone within one step "
        f"({elapsed:.0f}s for the 200-block program)",
    )


def test_criterion_7_inventory_cost_lever():
    pool = PoolParams(1e5, 5000 * 1e5, 0.003, 0.003)
    params = MispricingParams(0.0, 8.0, 1.0)
    shares = {}
    for cost in (10.0, 0.0):
        cfg = MdpConfig(
            horizon=200, inventory=1000.0, gas=2.0, inventory_cost=cost, discount=0.01
        )
        policy = value_iteration(cfg, pool, params)
        sim = simulate_policy(policy, cfg, pool, params, draw_noise(200, cfg.horizon, 7))
        shares[cost] = float(sim.inventory[:, 10].mean()) / cfg.inventory
    assert shares[10.0] <= 0.5
    assert shares[0.0] >= 0.9
    report(
        7,
        f"after 10 blocks: {shares[10.0]:.1%} left under strong carry cost, "
        f"{shares[0.0]:.1%} under none",
    )


def test_criterion_8_twamm_comparison():
    pool = PoolParams(1e5, 5000 * 1e5, 0.003, 0.003)
    params = MispricingParams(0.0, 0.0, 1.0)
    cfg = MdpConfig(
        horizon=100, inventory=100.0, gas=2.0, inventory_cost=0.1, discount=0.01
    )
    start = time.perf_counter()
    results = compare_vs_twamm(
        [0.0, 1.0, 2.0, 4.0, 8.0], cfg, pool, params, draw_noise(500, cfg.horizon, 11), z0=-0.003
    )
    elapsed = time.perf_counter() - start
    sigma0, mean0, stderr0 = results[0]
    assert sigma0 == 0.0
    assert mean0 <= 0.0 + 2 * stderr0
    sigma_top, mean_top, _ = results[-1]
    assert mean_top > 0.0
    assert elapsed < 600.0
    report(
        8,
        f"excess {mean0:.0f} at zero volatility, +{mean_top:.0f} at the top of the "
        f"sweep ({elapsed:.0f}s, 500 common-noise paths)",
    )


def test_criterion_9_mean_variance_sweeps():
    start = time.perf_counter()
    base = dict(
        total_trade=100.0,
        cpmm_reserves=(100.0, 100.0),
        hook_reserves=(100.0, 100.0),
        risk_aversion=1.0,
    )
    # Scale-free split under constant fill risk.
    for curvature in np.linspace(0.0, 1.0, 8):
        trades = {
            solve_mean_variance(
                HookScenario(
                    curvature=float(curvature),
                    variance=VarianceSpec("constant", scale),
                    **base,
                )
            )[0]
            for scale in (0.0, 1e-3, 1.0, 1e6)
        }
        assert max(trades) - min(trades) <= 1e-9
    # Split shrinks as fill risk grows, for every growing form.
    for form, exponent in ((LINEAR, None), (SUPERLINEAR, 1.5), (QUADRATIC, None)):
        trades = [
            solve_mean_variance(
                HookScenario(curvature=0.5, variance=VarianceSpec(form, float(b), exponent), **base)
            )[0]
            for b in np.logspace(-3, 3, 20)
        ]
        assert all(b <= a + 1e-6 for a, b in zip(trades, trades[1:]))
    # Dense-grid oracle agreement.
    rng = np.random.default_rng(3)
    for _ in range(5):
        form, exponent = [(LINEAR, None), (SUPERLINEAR, 1.5), (QUADRATIC, None)][rng.integers(3)]
        scenario = HookScenario(
            total_trade=float(rng.uniform(20, 150)),
            cpmm_reserves=tuple(rng.uniform(50, 200, 2)),
            hook_reserves=tuple(rng.uniform(50, 200, 2)),
            curvature=float(rng.uniform(0, 1)),
            variance=VarianceSpec(form, float(rng.uniform(0.05, 2.0)), exponent),
            risk_aversion=float(rng.uniform(0.1, 2.0)),
        )
        xs = np.linspace(0.0, scenario.total_trade, 10**6)
        objective = (
            cpmm_output(scenario.total_trade - xs, *scenario.cpmm_reserves)
            + hook_output(xs, *scenario.hook_reserves, scenario.curvature)
            - scenario.risk_aversion * fill_variance(xs, scenario.variance)
        )
        i = int(np.argmax(objective))
        lo, hi = xs[max(i - 1, 0)], xs[min(i + 1, len(xs) - 1)]
        xs2 = np.linspace(lo, hi, 10**5)
        objective2 = (
            cpmm_output(scenario.total_trade - xs2, *scenario.cpmm_reserves)
            + hook_output(xs2, *scenario.hook_reserves, scenario.curvature)
            - scenario.risk_aversion * fill_variance(xs2, scenario.variance)
        )
        reference = float(xs2[np.argmax(objective2)])
        solved, _ = solve_mean_variance(scenario)
        assert abs(solved - reference) <= 1e-5
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report(9, f"scale invariance, risk monotonicity, oracle agreement ({elapsed:.1f}s)")


def test_criterion_10_frontier():
    start = time.perf_counter()
    base = dict(
        total_trade=100.0,
        cpmm_reserves=(100.0, 100.0),
        hook_reserves=(100.0, 100.0),
        curvature=0.1,
        risk_aversion=1.0,
    )
    linear = HookScenario(variance=VarianceSpec(LINEAR, 1.0), **base)
    quadratic = HookScenario(variance=VarianceSpec(QUADRATIC, 1.0), **base)
    taus = np.linspace(0.0, combined_return(linear, 60.0), 60)
    trades_lin, var_lin, ok_lin = efficient_frontier(linear, taus)
    _, var_quad, _ = efficient_frontier(quadratic, taus)
    feasible = var_lin[ok_lin]
    assert all(b >= a - 1e-9 for a, b in zip(feasible, feasible[1:]))
    for x, v_lin, ok, v_quad in zip(trades_lin, var_lin, ok_lin, var_quad):
        if ok and x >= 1.0:
            assert v_quad >= v_lin - 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    report(10, f"risk nondecreasing in target; fast-growing risk dominates ({elapsed:.1f}s)")


def test_criterion_11_cli_determinism(tmp_path):
    liq_config = {
        "mdp": {
            "horizon": 15,
            "inventory": 100.0,
            "gas": 2.0,
            "inventory_cost": 0.1,
            "discount": 0.01,
            "n_inventory": 21,
            "n_mispricing": 21,
            "n_actions": 7,
            "quad_order": 5,
        },
        "pool": {
            "reserve_in": 1e5,
            "reserve_out": 5e8,
            "fee_bound_upper": 0.003,
            "fee_bound_lower": 0.003,
        },
        "mispricing": {"drift": 0.0, "volatility": 2.0, "dt": 1.0},
        "z0": -0.003,
    }
    hook_config = {
        "total_trade": 100.0,
        "cpmm_reserves": [100.0, 100.0],
        "hook_reserves": [100.0, 100.0],
        "curvature": 0.1,
        "variance": {"form": "linear", "scale": 1.0},
        "risk_aversion": 1.0,
        "sweeps": {"curvature_values": [0.0, 0.5, 1.0], "scale_values": [0.1, 1.0, 10.0]},
    }
    liq = tmp_path / "liq.json"
    liq.write_text(json.dumps(liq_config))
    hook = tmp_path / "hook.json"
    hook.write_text(json.dumps(hook_config))
    commands = [
        (["pigou", "--grid", "0:10:11"], ["pigou_output.csv"]),
        (
            ["route", "--problem", "table1", "--s", "0:500:6"],
            ["route_output.csv", "route_trades.csv"],
        ),
        (["liquidate-solve", "--config", str(liq)], ["liquidation_solution.csv"]),
        (
            ["liquidate-simulate", "--config", str(liq), "--paths", "5", "--seed", "42"],
            ["inventory_paths.csv"],
        ),
        (
            ["compare-twamm", "--config", str(liq), "--grid", "0:4:3", "--paths", "10", "--seed", "42"],
            ["twamm_comparison.csv"],
        ),
        (["hook-mean-variance", "--config", str(hook)], ["mean_variance.csv"]),
        (["hook-frontier", "--config", str(hook), "--grid", "0:60:7"], ["frontier.csv"]),
    ]
    for argv, filenames in commands:
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        for filename in filenames:
            assert (a / filename).read_bytes() == (b / filename).read_bytes(), filename
    report(11, f"{len(commands)} commands rerun byte-identical")
