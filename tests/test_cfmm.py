import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from hookroute.cfmm import (
    GEOMETRIC_MEAN,
    PRODUCT,
    SUM,
    LimitOrder,
    Market,
    compose_with_order,
    forward_exchange,
    marginal_rate,
    modified_forward_exchange,
    solve_breakpoint,
    trading_function,
)


def cpmm(r0, r1, fee=1.0):
    return Market(PRODUCT, (r0, r1), fee)


class TestTradingFunction:
    def test_product(self):
        assert trading_function(cpmm(10, 10), (10, 10)) == 100.0

    def test_sum(self):
        assert trading_function(Market(SUM, (10, 10), 0.99), (10, 10)) == 20.0

    def test_geometric_mean(self):
        m = Market(GEOMETRIC_MEAN, (3, 0.2, 1), 0.98, weights=(3, 2, 1))
        assert trading_function(m, (3, 0.2, 1)) == pytest.approx(1.08, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            trading_function(cpmm(10, 10), (1, 2, 3))

    def test_bad_market(self):
        with pytest.raises(ValueError):
            Market(PRODUCT, (10, 0))
        with pytest.raises(ValueError):
            Market(PRODUCT, (10, 10), fee=0.0)
        with pytest.raises(ValueError):
            Market(GEOMETRIC_MEAN, (1, 1), weights=(1, -1))
        with pytest.raises(ValueError):
            Market("parabola", (1, 1))

    def test_bad_order(self):
        with pytest.raises(ValueError):
            LimitOrder(0.0, 2.0, 0, 1)
        with pytest.raises(ValueError):
            LimitOrder(0.5, -1.0, 0, 1)
        with pytest.raises(ValueError):
            LimitOrder(0.5, 2.0, 1, 1)


class TestNonFiniteRefused:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_market(self, bad):
        with pytest.raises(ValueError, match="finite"):
            Market(PRODUCT, (10.0, bad))
        with pytest.raises(ValueError, match="finite"):
            Market(GEOMETRIC_MEAN, (1.0, 2.0, 3.0), weights=(1.0, bad, 1.0))
        with pytest.raises(ValueError):
            Market(PRODUCT, (10.0, 10.0), bad)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_limit_order(self, bad):
        with pytest.raises(ValueError, match="finite"):
            LimitOrder(bad, 1.0, 0, 1)
        with pytest.raises(ValueError, match="finite"):
            LimitOrder(0.5, bad, 0, 1)

    @pytest.mark.parametrize("price, volume", [(0.5, 1e308), (5e-324, 4.0)])
    def test_limit_order_whose_full_fill_overflows(self, price, volume):
        # A full fill tenders volume / price.
        with pytest.raises(ValueError, match="volume / price"):
            LimitOrder(price, volume, 0, 1)

    @pytest.mark.parametrize("reserves, fee", [((1.0, 1e308), 0.5), ((10.0, 10.0), 5e-324)])
    def test_sum_market_whose_orders_overflow(self, reserves, fee):
        # Routing trades a constant-sum pool as two orders at price `fee`.
        with pytest.raises(ValueError, match="reserve / fee"):
            Market(SUM, reserves, fee)
        assert Market(PRODUCT, reserves, fee).fee == fee

    def test_zero_volume_stays_legal(self):
        assert LimitOrder(0.5, 0.0, 0, 1).volume == 0.0


class TestForwardExchange:
    def test_product_half_pool(self):
        assert forward_exchange(cpmm(10, 10), 0, 1, 10) == pytest.approx(5.0, abs=1e-12)

    def test_zero_trade(self):
        for m in (cpmm(10, 10), Market(SUM, (10, 10)), Market(GEOMETRIC_MEAN, (3, 0.2, 1), weights=(3, 2, 1))):
            assert forward_exchange(m, 0, 1, 0.0) == 0.0

    def test_product_with_fee_invariant(self):
        m = cpmm(10, 1, fee=0.99)
        out = forward_exchange(m, 0, 1, 1.0)
        assert out == pytest.approx(0.99 / 10.99, abs=1e-12)
        before = trading_function(m, m.reserves)
        after = trading_function(m, (10 + 0.99 * 1.0, 1 - out))
        assert abs(after - before) <= 1e-12 * before

    def test_sum_cap(self):
        m = Market(SUM, (10, 10), 0.99)
        assert forward_exchange(m, 0, 1, 5) == pytest.approx(4.95)
        assert forward_exchange(m, 0, 1, 1e6) == 10.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            forward_exchange(cpmm(10, 10), 0, 1, -1.0)

    def test_geometric_matches_product_closed_form(self):
        # w = (1, 1) geometric mean is a constant product market: both give
        # the product pool's output r_out * fee * a / (r_in + fee * a).
        g = Market(GEOMETRIC_MEAN, (10, 4), 0.97, weights=(1, 1))
        p = cpmm(10, 4, fee=0.97)
        for amt in (0.1, 1.0, 7.5, 42.0):
            expected = 4 * 0.97 * amt / (10 + 0.97 * amt)
            assert forward_exchange(g, 0, 1, amt) == pytest.approx(expected, rel=1e-12)
            assert forward_exchange(p, 0, 1, amt) == pytest.approx(expected, rel=1e-12)

    @given(
        amt=st.floats(0.01, 50),
        fee=st.floats(0.9, 1.0),
        r0=st.floats(0.5, 40),
        r1=st.floats(0.5, 40),
    )
    @settings(max_examples=60, deadline=None)
    def test_geometric_invariant_residual(self, amt, fee, r0, r1):
        m = Market(GEOMETRIC_MEAN, (r0, r1, 1.3), fee, weights=(3, 2, 1))
        out = forward_exchange(m, 0, 1, amt)
        before = trading_function(m, m.reserves)
        after = trading_function(m, (r0 + fee * amt, r1 - out, 1.3))
        assert abs(after - before) <= 1e-9 * before

    @given(a=st.floats(0.0, 30), b=st.floats(0.0, 30))
    @settings(max_examples=60, deadline=None)
    def test_concave_nondecreasing(self, a, b):
        markets = [
            (Market(GEOMETRIC_MEAN, (5, 2, 7), 0.95, weights=(2, 1, 1)), 2),
            (cpmm(7, 3, fee=0.97), 1),
            (Market(SUM, (10, 10), 0.99), 1),
        ]
        lo, hi = min(a, b), max(a, b)
        for m, out in markets:
            g_lo = forward_exchange(m, 0, out, lo)
            g_hi = forward_exchange(m, 0, out, hi)
            g_mid = forward_exchange(m, 0, out, 0.5 * (lo + hi))
            assert g_hi >= g_lo - 1e-12
            assert g_mid >= 0.5 * (g_lo + g_hi) - 1e-10


class TestMarginalRate:
    def test_spot_price(self):
        assert marginal_rate(cpmm(10, 40), 0, 1, 0.0) == pytest.approx(4.0)

    def test_product_at_depth(self):
        assert marginal_rate(cpmm(10, 10), 0, 1, 10) == pytest.approx(0.25, abs=1e-12)

    def test_sum_domain_error(self):
        m = Market(SUM, (10, 10), 0.99)
        assert marginal_rate(m, 0, 1, 5.0) == 0.99
        with pytest.raises(ValueError):
            marginal_rate(m, 0, 1, 100.0)

    @pytest.mark.parametrize(
        "market",
        [
            cpmm(10, 10),
            cpmm(7, 3, fee=0.97),
            Market(GEOMETRIC_MEAN, (3, 0.2, 1), 0.98, weights=(3, 2, 1)),
        ],
    )
    def test_integral_of_rate_recovers_output(self, market):
        # Quadrature oracle: integrating the marginal rate gives the output.
        total, _ = quad(lambda t: marginal_rate(market, 0, 1, t), 0.0, 5.0, limit=200)
        assert total == pytest.approx(forward_exchange(market, 0, 1, 5.0), abs=1e-8)


def reference_breakpoint(market, order, input_index=0, output_index=1):
    """The breakpoints by search: double an upper bracket, then bisect.

    Finds where the marginal rate first drops to the order price, to
    1e-10 * max(1, bracket); past a constant-sum pool's capacity the rate
    counts as zero. Gives up with (inf, inf) once the bracket passes 1e18.
    """

    def rate(x):
        try:
            return marginal_rate(market, input_index, output_index, x)
        except ValueError:
            return 0.0

    price = order.price
    if rate(0.0) <= price:
        delta1 = 0.0
    else:
        hi = 1.0
        while rate(hi) > price:
            hi *= 2.0
            if hi > 1e18:
                return math.inf, math.inf
        lo = 0.0
        while hi - lo > 1e-10 * max(1.0, hi):
            mid = 0.5 * (lo + hi)
            if rate(mid) > price:
                lo = mid
            else:
                hi = mid
        delta1 = 0.5 * (lo + hi)
    return delta1, delta1 + order.volume / price


@st.composite
def priced_pairs(draw):
    """A product, constant-sum or 2-4 asset geometric pool, an ordered asset
    pair in it and an order price in [e^-8, e^8]."""
    kind = draw(st.sampled_from([PRODUCT, SUM, GEOMETRIC_MEAN]))
    n = draw(st.integers(2, 4)) if kind == GEOMETRIC_MEAN else 2
    reserves = draw(st.lists(st.floats(0.05, 500.0), min_size=n, max_size=n))
    weights = draw(st.lists(st.floats(0.3, 5.0), min_size=n, max_size=n)) if kind == GEOMETRIC_MEAN else None
    fee = draw(st.one_of(st.just(1.0), st.floats(0.8, 1.0, exclude_min=True)))
    i, o = draw(st.permutations(range(n)))[:2]
    price = math.exp(draw(st.floats(-8.0, 8.0)))
    return Market(kind, reserves, fee, weights), LimitOrder(price, 3.0, i, o), i, o


class TestBreakpoints:
    @given(priced_pairs())
    @settings(max_examples=400, deadline=None)
    def test_closed_form_matches_search(self, case):
        market, order, i, o = case
        d1, d2 = solve_breakpoint(market, order, i, o)
        ref1, _ = reference_breakpoint(market, order, i, o)
        # The search stops within 1e-10 * max(1, bracket) of the root.
        assert abs(d1 - ref1) <= 1e-9 * max(1.0, ref1)
        assert d2 == d1 + order.volume / order.price
        if d1 > 0 and market.kind != SUM:
            assert marginal_rate(market, i, o, d1) == pytest.approx(order.price, rel=1e-12)

    def test_finite_where_the_search_gave_up(self):
        # The search's bracket stopped at 1e18; the closed form has no cap.
        # Here the rate 1e30 / (1 + d)^2 falls to the price 1e-10 at d = 1e20 - 1.
        market = cpmm(1.0, 1e30)
        order = LimitOrder(1e-10, 1.0, 0, 1)
        assert reference_breakpoint(market, order) == (math.inf, math.inf)
        d1, _ = solve_breakpoint(market, order)
        assert d1 == pytest.approx(1e20, rel=1e-12)
        assert marginal_rate(market, 0, 1, d1) == pytest.approx(1e-10, rel=1e-12)

    def test_unit_pool(self):
        d1, d2 = solve_breakpoint(cpmm(1, 1), LimitOrder(0.5, 2.0, 0, 1))
        assert d1 == pytest.approx(math.sqrt(2) - 1, abs=1e-9)
        assert d2 == pytest.approx(d1 + 4.0, abs=1e-9)

    def test_price_above_spot_activates_immediately(self):
        d1, _ = solve_breakpoint(cpmm(10, 10), LimitOrder(2.0, 1.0, 0, 1))
        assert d1 == 0.0

    def test_empty_order(self):
        d1, d2 = solve_breakpoint(cpmm(1, 1), LimitOrder(0.5, 0.0, 0, 1))
        assert d2 == d1

    def test_constant_sum_activates_at_capacity(self):
        m = Market(SUM, (10, 10), 0.99)
        d1, _ = solve_breakpoint(m, LimitOrder(0.5, 2.0, 0, 1))
        assert d1 == pytest.approx(10 / 0.99, rel=1e-8)


class TestModifiedCurve:
    def setup_method(self):
        self.curve = compose_with_order(cpmm(1, 1), LimitOrder(0.5, 2.0, 0, 1))

    def test_zero(self):
        assert modified_forward_exchange(self.curve, 0.0) == 0.0

    def test_exhaustion_point_captures_volume(self):
        c = self.curve
        g1 = forward_exchange(c.market, 0, 1, c.delta1)
        assert modified_forward_exchange(c, c.delta2) == pytest.approx(g1 + 2.0, abs=1e-9)

    def test_continuity_at_breakpoints(self):
        c = self.curve
        eps = 1e-10
        for point in (c.delta1, c.delta2):
            left = modified_forward_exchange(c, point - eps)
            right = modified_forward_exchange(c, point + eps)
            assert abs(left - right) < 1e-9

    def test_derivative_equals_price_at_breakpoints(self):
        c = self.curve
        h = 1e-6
        for point in (c.delta1, c.delta2):
            d = (
                modified_forward_exchange(c, point + h)
                - modified_forward_exchange(c, point - h)
            ) / (2 * h)
            assert d == pytest.approx(0.5, abs=1e-6)

    def test_derivative_nonincreasing(self):
        c = self.curve
        grid = [i * 0.01 for i in range(1, 800)]
        h = 1e-7
        rates = [
            (modified_forward_exchange(c, x + h) - modified_forward_exchange(c, x - h)) / (2 * h)
            for x in grid
        ]
        for a, b in zip(rates, rates[1:]):
            assert b <= a + 1e-6

    def test_order_better_than_pool_used_first(self):
        curve = compose_with_order(cpmm(10, 10), LimitOrder(2.0, 4.0, 0, 1))
        assert curve.delta1 == 0.0
        assert modified_forward_exchange(curve, 1.0) == pytest.approx(2.0)
        # Past exhaustion the pool curve resumes from zero.
        assert modified_forward_exchange(curve, curve.delta2 + 1.0) == pytest.approx(
            4.0 + forward_exchange(curve.market, 0, 1, 1.0)
        )


class TestRefusals:
    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: Market(PRODUCT, (1.0, 2.0, 3.0)), "exactly 2 reserves"),
            (lambda: Market(SUM, (1.0, 2.0, 3.0)), "exactly 2 reserves"),
            (lambda: Market(GEOMETRIC_MEAN, (1.0, 2.0, 3.0)), "needs weights"),
            (lambda: Market(GEOMETRIC_MEAN, (1.0, 2.0, 3.0), weights=(1.0, 1.0)), "length mismatch"),
            (lambda: Market(PRODUCT, (1.0, 2.0), weights=(1.0, 1.0)), "takes no weights"),
            (lambda: trading_function(cpmm(10, 10), (10.0, -1.0)), "nonnegative"),
            (lambda: marginal_rate(cpmm(10, 10), 0, 1, -1.0), "nonnegative"),
            (
                lambda: modified_forward_exchange(compose_with_order(cpmm(10, 10), LimitOrder(0.5, 2.0, 0, 1)), -1.0),
                "nonnegative",
            ),
            (lambda: forward_exchange(cpmm(10, 10), 0, 2, 1.0), "out of range"),
            (lambda: forward_exchange(cpmm(10, 10), -1, 1, 1.0), "out of range"),
            (lambda: forward_exchange(cpmm(10, 10), 1, 1, 1.0), "must differ"),
        ],
    )
    def test_refused(self, call, message):
        with pytest.raises(ValueError, match=message):
            call()
