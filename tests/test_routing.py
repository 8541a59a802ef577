import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog, minimize

from hookroute.cfmm import (
    GEOMETRIC_MEAN,
    PRODUCT,
    SUM,
    LimitOrder,
    Market,
    Trade2,
    compose_with_order,
    forward_exchange,
    modified_forward_exchange,
    trading_function,
)
from hookroute import routing
from hookroute.routing import (
    DualPrices,
    Liquidate,
    NoFeasibleRouteError,
    RoutingProblem,
    arbitrage_subproblem,
    brute_force_route,
    limit_order_subproblem,
    solve_curve,
    solve_routing,
    solution_residuals,
)
from hookroute.scenarios import pigou_problem, table1_problem


def pair_problem(legs, budget):
    markets = [(m, (0, 1)) for m in legs if isinstance(m, Market)]
    orders = [o for o in legs if isinstance(o, LimitOrder)]
    return RoutingProblem(2, markets, orders, Liquidate(0, 1, budget))


class TestArbitrageSubproblem:
    def test_no_trade_inside_fee_band(self):
        m = Market(PRODUCT, (10, 10), 0.95)
        (d, r), val = arbitrage_subproblem(m, (0, 1), np.array([1.0, 1.0]))
        assert val == 0.0 and not d.any() and not r.any()

    def test_product_closed_form(self):
        m = Market(PRODUCT, (10, 10), 1.0)
        (d, r), val = arbitrage_subproblem(m, (0, 1), np.array([1.0, 4.0]))
        assert d[0] == pytest.approx(10.0, abs=1e-12)
        assert r[1] == pytest.approx(5.0, abs=1e-12)
        assert val == pytest.approx(10.0, abs=1e-10)

    def test_sum_bang_bang(self):
        m = Market(SUM, (10, 10), 0.99)
        (d, r), val = arbitrage_subproblem(m, (0, 1), np.array([1.0, 1.2]))
        assert r[1] == 10.0 and d[0] == pytest.approx(10 / 0.99)
        (d, r), val = arbitrage_subproblem(m, (0, 1), np.array([1.0, 1.0]))
        assert val == 0.0

    def test_rejects_nonpositive_prices(self):
        m = Market(PRODUCT, (10, 10), 1.0)
        with pytest.raises(ValueError):
            arbitrage_subproblem(m, (0, 1), np.array([1.0, 0.0]))
        with pytest.raises(ValueError):
            DualPrices((1.0, -2.0))

    def test_geometric_joint_trade(self):
        # Receiving one asset against two tendered beats any pairwise trade.
        m = Market(GEOMETRIC_MEAN, (1, 1, 1), 1.0, weights=(1, 1, 1))
        (d, r), val = arbitrage_subproblem(m, (0, 1, 2), np.array([3.0, 1.0, 1.0]))
        c = 3 ** (1 / 3)
        assert val == pytest.approx(5 - 3 * c, abs=1e-10)
        assert r[0] == pytest.approx(1 - c / 3, abs=1e-10)
        assert d[1] == pytest.approx(c - 1, abs=1e-10)
        assert d[2] == pytest.approx(c - 1, abs=1e-10)

    @pytest.mark.parametrize("seed", range(8))
    def test_geometric_matches_nlp_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n = 3
        reserves = tuple(rng.uniform(0.5, 20, n))
        weights = tuple(rng.uniform(0.5, 3, n))
        fee = rng.uniform(0.9, 1.0)
        nu = rng.uniform(0.2, 5.0, n)
        market = Market(GEOMETRIC_MEAN, reserves, fee, weights=weights)
        (d, r), val = arbitrage_subproblem(market, (0, 1, 2), nu)

        after = np.array(reserves) + fee * d - r
        assert after.min() >= -1e-12 * max(reserves)
        after = np.clip(after, 0.0, None)
        assert trading_function(market, after) >= trading_function(market, reserves) * (1 - 1e-11)

        phi0 = trading_function(market, reserves)
        w = np.asarray(weights)

        def phi(vec):
            # Clipped evaluation; SLSQP line searches may probe negatives.
            return float(np.prod(np.clip(vec, 1e-12, None) ** w))

        def neg_obj(x):
            dd, rr = x[:n], x[n:]
            return -(nu @ (rr - dd))

        cons = {
            "type": "ineq",
            "fun": lambda x: phi(np.array(reserves) + fee * x[:n] - x[n:]) - phi0,
        }
        best = 0.0
        for trial in range(4):
            x0 = rng.uniform(0, 0.3, 2 * n)
            res = minimize(
                neg_obj,
                x0,
                method="SLSQP",
                bounds=[(0, None)] * (2 * n),
                constraints=[cons],
                options={"maxiter": 300, "ftol": 1e-12},
            )
            if res.success:
                best = max(best, -res.fun)
        assert val >= best - 1e-6 * max(1.0, best)


def reference_geometric_subproblem(market, nu):
    """Full enumeration of the 3^n - 1 tender/receive/hold role assignments.

    Each row fixes c from the invariant; the best row whose trade directions
    and hold conditions check out (within 1e-9) is the best response.
    """
    w = np.asarray(market.weights)
    reserves = np.asarray(market.reserves)
    fee = market.fee
    n = len(reserves)
    log_r = np.log(reserves)
    log_phi0 = float(w @ log_r)
    # Roles per asset: 0 hold, 1 tender, 2 receive; skip the all-hold row.
    roles = np.array([r for r in itertools.product((0, 1, 2), repeat=n) if any(r)], dtype=np.int8)

    log_a = np.where(
        roles == 1,
        np.log(fee * w / nu)[None, :],
        np.where(roles == 2, np.log(w / nu)[None, :], 0.0),
    )
    traded = roles > 0
    w_traded = np.where(traded, w[None, :], 0.0)
    wt = w_traded.sum(axis=1)
    log_c = (log_phi0 - (w_traded * log_a).sum(axis=1) - ((~traded) * w * log_r).sum(axis=1)) / wt
    log_x = np.where(traded, log_c[:, None] + log_a, log_r[None, :])
    x = np.exp(log_x)

    tol = 1e-9
    ok = np.ones(len(roles), dtype=bool)
    ok &= np.where(roles == 1, x >= reserves * (1 - tol), True).all(axis=1)
    ok &= np.where(roles == 2, x <= reserves * (1 + tol), True).all(axis=1)
    # Hold conditions: fee * w_i * c / R_i <= nu_i <= w_i * c / R_i.
    log_nu = np.log(nu)
    lo = np.log(fee * w) + log_c[:, None] - log_r[None, :]
    hi = np.log(w) + log_c[:, None] - log_r[None, :]
    ok &= np.where(roles == 0, (lo <= log_nu[None, :] + tol) & (log_nu[None, :] <= hi + tol), True).all(axis=1)
    if not ok.any():
        return np.zeros(n), np.zeros(n), 0.0

    d = np.where(roles == 1, (x - reserves) / fee, 0.0)
    r = np.where(roles == 2, reserves - x, 0.0)
    vals = (r - d) @ nu
    vals = np.where(ok, vals, -np.inf)
    best = int(np.argmax(vals))
    if vals[best] <= 0.0:
        return np.zeros(n), np.zeros(n), 0.0
    return np.clip(d[best], 0.0, None), np.clip(r[best], 0.0, None), float(vals[best])


@st.composite
def geometric_pools(draw):
    """Pools of 2-7 assets with prices; copied assets give exact ties in rho."""
    base = draw(st.integers(1, 7))
    positive = lambda lo, hi: st.floats(lo, hi, allow_nan=False, allow_infinity=False)
    assets = [
        (draw(positive(0.05, 500.0)), draw(positive(0.3, 5.0)), draw(positive(0.05, 20.0)))
        for _ in range(base)
    ]
    copies = draw(st.lists(st.integers(0, base - 1), min_size=max(0, 2 - base), max_size=7 - base))
    assets += [assets[i] for i in copies]
    order = draw(st.permutations(range(len(assets))))
    reserves, weights, nu = zip(*(assets[i] for i in order))
    fee = draw(st.one_of(st.just(1.0), positive(0.8, 1.0)))
    return Market(GEOMETRIC_MEAN, reserves, fee, weights=weights), np.array(nu)


class TestGeometricSortedSplit:
    @given(geometric_pools())
    @settings(max_examples=300, deadline=None)
    def test_matches_full_enumeration(self, pool):
        market, nu = pool
        d, r, value = routing._geometric_subproblem(market, nu)
        ref_d, ref_r, ref_value = reference_geometric_subproblem(market, nu)
        # nu . R, the pool's worth at the prices, bounds the best-response value.
        scale = float(nu @ np.asarray(market.reserves))
        assert abs(value - ref_value) <= 1e-12 * scale
        size = max(market.reserves)
        assert np.abs(d - ref_d).max() <= 1e-9 * size
        assert np.abs(r - ref_r).max() <= 1e-9 * size

    @pytest.mark.parametrize("n", [12, 20])
    def test_large_pool_certifies(self, n):
        # The full enumeration would need 3^n - 1 role rows (3.5e9 at n = 20).
        rng = np.random.default_rng(n)
        market = Market(
            GEOMETRIC_MEAN,
            tuple(rng.uniform(5.0, 50.0, n)),
            0.997,
            weights=tuple(rng.uniform(0.5, 2.0, n)),
        )
        problem = RoutingProblem(n, [(market, tuple(range(n)))], [], Liquidate(0, n - 1, 10.0))
        sol = solve_routing(problem)
        assert sol.status == "optimal"
        assert sol.gap <= 1e-7 * max(1.0, sol.utility_value)
        res = solution_residuals(problem, sol)
        assert res["reconstruction"] <= 1e-8
        assert res["market_residual"] <= 1e-8
        assert res["order_slack"] <= 1e-8
        assert res["budget_slack"] >= -1e-8
        # Only the output asset is worth anything, so the best route is one swap.
        assert sol.utility_value == pytest.approx(forward_exchange(market, 0, n - 1, 10.0), rel=1e-7)


def random_lp(rng, case):
    """A boxed LP max c @ x, -C x <= h, 0 <= x <= u with h >= 0, shaped by `case`."""
    m, n = int(rng.integers(1, 8)), int(rng.integers(1, 10))
    c_mat = rng.normal(0.0, 1.0, (m, n)) * (rng.random((m, n)) < 0.7)
    h = np.abs(rng.normal(0.0, 1.0, m))
    upper = rng.uniform(0.0, 3.0, n)
    if case == "duplicate_columns" and n > 1:
        c_mat[:, 1:] = c_mat[:, rng.integers(0, n, n - 1)]
    elif case == "zero_columns":
        c_mat[:, rng.random(n) < 0.4] = 0.0
    elif case == "zero_rhs":
        h[:] = 0.0
    elif case == "tied_ratios":
        c_mat, h, upper = np.round(2 * c_mat), np.round(2 * h), np.round(upper) + 1.0
    elif case == "bound_flips":
        upper *= 0.01
    cost = c_mat[0] if rng.random() < 0.5 else rng.normal(0.0, 1.0, n)
    return cost, c_mat, h, upper


def assert_simplex_matches_linprog(cost, c_mat, h, upper):
    x = routing._bounded_simplex(cost, -c_mat, h, upper)
    ref = linprog(
        -cost, A_ub=-c_mat, b_ub=h, bounds=list(zip(np.zeros(len(upper)), upper)), method="highs"
    )
    assert ref.success
    assert cost @ x == pytest.approx(-ref.fun, rel=1e-9, abs=1e-9)
    assert np.all(x >= 0.0) and np.all(x <= upper)
    scale = max(1.0, float(np.max(h)), float(np.max(np.abs(c_mat) @ upper)))
    assert np.all(-c_mat @ x <= h + 1e-12 * scale)
    return x


class TestBoundedSimplex:
    @pytest.mark.parametrize(
        "case", ["random", "duplicate_columns", "zero_columns", "zero_rhs", "tied_ratios", "bound_flips"]
    )
    def test_matches_linprog(self, case):
        rng = np.random.default_rng(sum(map(ord, case)))
        for _ in range(150):
            assert_simplex_matches_linprog(*random_lp(rng, case))

    def test_step_cap_returns_a_feasible_vertex(self):
        rng = np.random.default_rng(7)
        cost, c_mat, h, upper = random_lp(rng, "random")
        values = []
        for steps in range(12):
            x = routing._bounded_simplex(cost, -c_mat, h, upper, max_steps=steps)
            assert np.all(x >= 0.0) and np.all(x <= upper)
            assert np.all(-c_mat @ x <= h + 1e-12)
            values.append(cost @ x)
        assert values[0] == 0.0
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_bland_rule_does_not_cycle(self):
        # Beale's example: the largest-coefficient rule cycles here forever.
        cost = np.array([0.75, -20.0, 0.5, -6.0])
        c_mat = -np.array([[0.25, -8.0, -1.0, 9.0], [0.5, -12.0, -0.5, 3.0], [0.0, 0.0, 1.0, 0.0]])
        x = assert_simplex_matches_linprog(cost, c_mat, np.array([0.0, 0.0, 1.0]), np.full(4, 1e3))
        assert cost @ x == pytest.approx(1.25, abs=1e-12)

    def test_paper_sweep_completion_lps(self, monkeypatch):
        # Every completion LP of the pigou and table1 sweeps, replayed through linprog.
        captured = []
        simplex = routing._bounded_simplex

        def recording(cost, a_ub, b_ub, upper):
            captured.append((cost.copy(), -a_ub, b_ub.copy(), upper.copy()))
            return simplex(cost, a_ub, b_ub, upper)

        monkeypatch.setattr(routing, "_bounded_simplex", recording)
        table1 = table1_problem(0.0)
        no_orders = RoutingProblem(table1.n_assets, table1.markets, [], table1.utility)
        pigou_grid, table1_grid = np.linspace(0.0, 20.0, 100), np.linspace(0.0, 500.0, 100)
        sweeps = [
            (pigou_problem(0.0), pigou_grid),
            (pigou_problem(0.0, with_order=False), pigou_grid),
            (table1, table1_grid),
            (no_orders, table1_grid),
        ]
        for problem, grid in sweeps:
            assert all(s.status == "optimal" for s in solve_curve(problem, grid))
        monkeypatch.undo()
        assert len(captured) > 400
        for lp in captured:
            assert_simplex_matches_linprog(*lp)


class TestLimitOrderSubproblem:
    def test_losing_fill_declined(self):
        order = LimitOrder(0.5, 2.0, 0, 1)
        trade, val = limit_order_subproblem(order, np.array([1.0, 1.0]))
        assert (trade.z1, trade.z2, val) == (0.0, 0.0, 0.0)

    def test_profitable_fill(self):
        order = LimitOrder(0.5, 2.0, 0, 1)
        trade, val = limit_order_subproblem(order, np.array([1.0, 3.0]))
        assert (trade.z1, trade.z2) == (4.0, 2.0)
        assert val == pytest.approx(3 * 2 - 4)

    def test_indifference_fills_fully(self):
        order = LimitOrder(0.5, 2.0, 0, 1)
        trade, val = limit_order_subproblem(order, np.array([1.0, 2.0]))
        assert (trade.z1, trade.z2) == (4.0, 2.0)
        assert val == pytest.approx(0.0, abs=1e-12)

    def test_grid_oracle_consistency(self):
        # One-order routing should match the subproblem's fill decision.
        order = LimitOrder(0.5, 2.0, 0, 1)
        problem = pair_problem([order], 10.0)
        sol = solve_routing(problem)
        assert sol.utility_value == pytest.approx(2.0, abs=1e-9)
        assert sol.order_trades[0].z2 == pytest.approx(2.0, abs=1e-9)


class TestSolveRouting:
    def test_zero_budget(self):
        sol = solve_routing(pigou_problem(0.0))
        assert sol.utility_value == 0.0
        assert sol.status == "optimal"
        assert not sol.psi.any()

    def test_pigou_matches_modified_curve(self):
        market = Market(PRODUCT, (10.0, 10.0), 1.0)
        order = LimitOrder(0.5, 2.0, 0, 1)
        curve = compose_with_order(market, order)
        for budget in np.linspace(0.25, 18.0, 25):
            sol = solve_routing(pigou_problem(float(budget)))
            assert sol.utility_value == pytest.approx(
                modified_forward_exchange(curve, budget), abs=1e-5
            )

    def test_table1_consumes_orders(self):
        sol = solve_routing(table1_problem(500.0))
        assert sol.status == "optimal"
        assert sum(t.z2 for t in sol.order_trades) == pytest.approx(60.0, abs=1e-3)

    def test_solution_invariants(self):
        for problem in (pigou_problem(7.0), table1_problem(120.0)):
            sol = solve_routing(problem)
            res = solution_residuals(problem, sol)
            assert res["reconstruction"] <= 1e-8
            assert res["market_residual"] <= 1e-8
            assert res["order_slack"] <= 1e-8
            assert res["budget_slack"] >= -1e-8

    def test_disconnected_network(self):
        problem = RoutingProblem(
            3,
            [(Market(PRODUCT, (10, 10), 1.0), (0, 1))],
            [],
            Liquidate(0, 2, 5.0),
        )
        with pytest.raises(NoFeasibleRouteError):
            solve_routing(problem)

    def test_four_asset_weighted_pool(self):
        market = Market(
            GEOMETRIC_MEAN, (4.0, 3.0, 2.0, 1.0), 0.98, weights=(1.0, 2.0, 1.0, 1.0)
        )
        problem = RoutingProblem(
            4,
            [(market, (0, 1, 2, 3))],
            [LimitOrder(0.2, 1.0, 0, 3)],
            Liquidate(0, 3, 10.0),
        )
        sol = solve_routing(problem)
        assert sol.status == "optimal"
        res = solution_residuals(problem, sol)
        assert res["market_residual"] <= 1e-8
        assert res["budget_slack"] >= -1e-8

    def test_split_order_equivalence(self):
        whole = pair_problem(
            [Market(PRODUCT, (10, 10), 1.0), LimitOrder(0.5, 2.0, 0, 1)], 9.0
        )
        halves = pair_problem(
            [
                Market(PRODUCT, (10, 10), 1.0),
                LimitOrder(0.5, 1.0, 0, 1),
                LimitOrder(0.5, 1.0, 0, 1),
            ],
            9.0,
        )
        u1 = solve_routing(whole).utility_value
        u2 = solve_routing(halves).utility_value
        assert u1 == pytest.approx(u2, abs=1e-6)


class TestOutputCurve:
    def test_single_zero_point(self):
        grid = [0.0]
        solutions = solve_curve(pigou_problem(0.0), grid)
        assert [(s, sol.utility_value) for s, sol in zip(grid, solutions)] == [(0.0, 0.0)]

    def test_orders_never_hurt(self):
        grid = np.linspace(0.0, 16.0, 21)
        with_orders = solve_curve(pigou_problem(0.0), grid)
        without = solve_curve(pigou_problem(0.0, with_order=False), grid)
        for sol_w, sol_o in zip(with_orders, without):
            assert sol_w.utility_value >= sol_o.utility_value - 1e-6

    def test_monotone_and_concave(self):
        grid = np.linspace(0.0, 16.0, 33)
        u = [sol.utility_value for sol in solve_curve(pigou_problem(0.0), grid)]
        assert all(b >= a - 1e-6 for a, b in zip(u, u[1:]))
        assert all(u[i] >= 0.5 * (u[i - 1] + u[i + 1]) - 1e-6 for i in range(1, len(u) - 1))

    def test_kinks_where_order_activates(self):
        # The curve is smooth except where the order activates and runs out;
        # there its curvature jumps, so the largest third differences and the
        # dual-price crossing both land at the breakpoints.
        market = Market(PRODUCT, (10.0, 10.0), 1.0)
        order = LimitOrder(0.5, 2.0, 0, 1)
        curve = compose_with_order(market, order)
        grid = np.linspace(0.0, 16.0, 65)
        step = grid[1] - grid[0]
        sols = solve_curve(pigou_problem(0.0), grid)
        u = np.array([s.utility_value for s in sols])
        third = np.abs(np.diff(u, 3))
        spikes = grid[1 + np.argsort(third)[-4:]]
        assert any(abs(s - curve.delta1) <= 2 * step for s in spikes)
        assert any(abs(s - curve.delta2) <= 2 * step for s in spikes)
        crossing = next(
            s for s, sol in zip(grid[1:], sols[1:]) if sol.dual_prices[0] <= order.price + 1e-6
        )
        assert abs(crossing - curve.delta1) <= 2 * step


class TestBruteForce:
    def test_single_market_equals_forward_exchange(self):
        m = Market(PRODUCT, (10, 10), 0.98)
        sol = brute_force_route(pair_problem([m], 7.0), 100)
        assert sol.utility_value == pytest.approx(forward_exchange(m, 0, 1, 7.0), rel=1e-12)

    def test_order_only_piecewise_fill(self):
        order = LimitOrder(0.4, 3.0, 0, 1)
        assert brute_force_route(pair_problem([order], 2.0), 50).utility_value == pytest.approx(0.8)
        assert brute_force_route(pair_problem([order], 50.0), 50).utility_value == pytest.approx(3.0)

    def test_pigou_agreement(self):
        problem = pigou_problem(9.0)
        bf = brute_force_route(problem, 10**4)
        sv = solve_routing(problem)
        assert sv.utility_value == pytest.approx(bf.utility_value, rel=1e-3)

    def test_refuses_large_instances(self):
        legs = [Market(PRODUCT, (10, 10), 1.0)] * 3
        with pytest.raises(ValueError):
            brute_force_route(pair_problem(legs, 5.0), 100)


def random_leg(rng, ref_price):
    kind = rng.choice(["product", "sum", "geometric", "order"])
    if kind == "order":
        # Orders quote at or below the reference so they cannot seed a loop.
        return LimitOrder(
            float(ref_price * rng.uniform(0.3, 1.0)), float(rng.uniform(1.0, 15.0)), 0, 1
        )
    fee = float(rng.uniform(0.9, 1.0))
    r0 = float(rng.uniform(4.0, 40.0))
    r1 = r0 * ref_price * float(rng.uniform(0.9, 1.1))
    if kind == "product":
        return Market(PRODUCT, (r0, r1), fee)
    if kind == "sum":
        return Market(SUM, (r0, r1), fee)
    return Market(
        GEOMETRIC_MEAN, (r0, r1), fee, weights=tuple(rng.uniform(0.5, 3.0, 2))
    )


def _spot(leg, i, o):
    if isinstance(leg, LimitOrder):
        return leg.price if i == 0 else 0.0
    if leg.kind == PRODUCT:
        return leg.fee * leg.reserves[o] / leg.reserves[i]
    if leg.kind == SUM:
        return leg.fee
    w = leg.weights
    return leg.fee * (w[i] / leg.reserves[i]) * (leg.reserves[o] / w[o])


def random_instance(rng):
    """Two legs on one pair with no cross-leg arbitrage loop.

    The brute-force oracle only enumerates one-way splits, so instances must
    not reward routing output back through a leg's reverse direction.
    """
    while True:
        ref_price = float(np.exp(rng.uniform(np.log(0.3), np.log(3.0))))
        legs = [random_leg(rng, ref_price), random_leg(rng, ref_price)]
        forward = max(_spot(leg, 0, 1) for leg in legs)
        reverse = max(_spot(leg, 1, 0) for leg in legs)
        if forward * reverse <= 0.999:
            return pair_problem(legs, float(rng.uniform(1.0, 30.0)))


class TestRandomInstancesAgainstOracle:
    @pytest.mark.parametrize("seed", range(12))
    def test_two_leg_agreement(self, seed):
        rng = np.random.default_rng(1000 + seed)
        problem = random_instance(rng)
        bf = brute_force_route(problem, 4000)
        sv = solve_routing(problem)
        assert sv.utility_value == pytest.approx(bf.utility_value, rel=1e-3, abs=1e-9)
        res = solution_residuals(problem, sv)
        assert res["budget_slack"] >= -1e-8
        assert res["market_residual"] <= 1e-8


def adversarial_instance(seed):
    """Multi-asset networks with crossed prices, order loops, and near-ties."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 6))
    markets = []
    for _ in range(int(rng.integers(1, 5))):
        kind = rng.choice(["product", "sum", "geomean"])
        if kind == "geomean" and n >= 3:
            k = int(rng.integers(2, min(n, 4) + 1))
            assets = tuple(rng.choice(n, size=k, replace=False).tolist())
            market = Market(
                GEOMETRIC_MEAN,
                tuple(rng.uniform(0.05, 500, k)),
                float(rng.uniform(0.8, 1.0)),
                weights=tuple(rng.uniform(0.3, 5, k)),
            )
        else:
            assets = tuple(rng.choice(n, size=2, replace=False).tolist())
            market = Market(
                PRODUCT if kind != "sum" else SUM,
                tuple(rng.uniform(0.05, 500, 2)),
                float(rng.uniform(0.8, 1.0)),
            )
        markets.append((market, assets))
    orders = []
    for _ in range(int(rng.integers(0, 5))):
        a, b = rng.choice(n, size=2, replace=False)
        orders.append(
            LimitOrder(float(rng.uniform(0.02, 10.0)), float(rng.uniform(0, 100)), int(a), int(b))
        )
    a, b = rng.choice(n, size=2, replace=False)
    return RoutingProblem(
        n, markets, orders, Liquidate(int(a), int(b), float(rng.uniform(0, 1000)))
    )


class TestAdversarialCertification:
    # 3022 and 3042 hit price-neutral production loops that scale-only
    # recovery cannot close; 7138 ties three hinge legs at once.
    HARD_SEEDS = (3022, 3042, 7138)

    @pytest.mark.parametrize("seed", list(HARD_SEEDS) + list(range(4000, 4020)))
    def test_certified_on_hostile_networks(self, seed):
        problem = adversarial_instance(seed)
        try:
            sol = solve_routing(problem)
        except NoFeasibleRouteError:
            return
        assert sol.status == "optimal"
        res = solution_residuals(problem, sol)
        assert res["reconstruction"] <= 1e-8
        assert res["market_residual"] <= 1e-8
        assert res["order_slack"] <= 1e-8
        assert res["budget_slack"] >= -1e-8
