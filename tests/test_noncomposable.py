import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hookroute.cfmm import FieldError
from hookroute.noncomposable import (
    CONSTANT,
    LINEAR,
    QUADRATIC,
    SUPERLINEAR,
    HookScenario,
    VarianceSpec,
    combined_return,
    cpmm_output,
    _golden_max,
    efficient_frontier,
    fill_variance,
    hook_output,
    mean_variance_sweep,
    solve_mean_variance,
)

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_INV_PHI2 = (3.0 - math.sqrt(5.0)) / 2.0


def scenario(form="linear", scale=1.0, exponent=None, curvature=0.5, lam=1.0):
    return HookScenario(
        total_trade=100.0,
        cpmm_reserves=(100.0, 100.0),
        hook_reserves=(100.0, 100.0),
        curvature=curvature,
        variance=VarianceSpec(form, scale, exponent),
        risk_aversion=lam,
    )


def grid_argmax(fn, lo, hi, points=10**6):
    """Two-stage dense grid oracle, refined around the coarse winner."""
    xs = np.linspace(lo, hi, points)
    vals = fn(xs)
    i = int(np.argmax(vals))
    a = xs[max(i - 1, 0)]
    b = xs[min(i + 1, points - 1)]
    xs2 = np.linspace(a, b, points // 10)
    vals2 = fn(xs2)
    return float(xs2[np.argmax(vals2)])


def reference_golden_max(fn, lo, hi, tol):
    """The scalar golden-section search the array search replaced."""
    a, b = lo, hi
    c = a + _INV_PHI2 * (b - a)
    d = a + _INV_PHI * (b - a)
    fc, fd = fn(c), fn(d)
    while b - a > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = a + _INV_PHI2 * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = fn(d)
    x = 0.5 * (a + b)
    candidates = [(fn(lo), lo), (fn(hi), hi), (fn(x), x)]
    return max(candidates)[::-1]


def reference_mean_variance(s):
    """Scalar risk-penalized split: one `reference_golden_max` per scenario."""
    lam = s.risk_aversion
    if s.variance.form == CONSTANT:
        fn = lambda x: combined_return(s, x)
        offset = -lam * s.variance.scale
    else:
        fn = lambda x: combined_return(s, x) - lam * fill_variance(x, s.variance)
        offset = 0.0
    x, fx = reference_golden_max(fn, 0.0, s.total_trade, 1e-9)
    return x, fx + offset


def assert_matches_reference(trade, objective, ref_trade, ref_objective):
    # numpy's power and libm's pow differ in the last ulp for a few inputs,
    # and a flat top pins the maximizer only to about sqrt(machine epsilon).
    assert abs(trade - ref_trade) <= 1e-5
    assert abs(objective - ref_objective) <= 1e-12 * max(1.0, abs(ref_objective))


class TestCurves:
    def test_cpmm_zero(self):
        assert cpmm_output(0.0, 100.0, 100.0) == 0.0

    def test_cpmm_half(self):
        assert cpmm_output(100.0, 100.0, 100.0) == pytest.approx(50.0)

    def test_cpmm_asymptote(self):
        assert cpmm_output(1e12, 100.0, 100.0) == pytest.approx(100.0, rel=1e-6)

    def test_hook_zero(self):
        assert hook_output(0.0, 100.0, 100.0, 0.7) == 0.0

    def test_hook_linear_at_zero_curvature(self):
        for x in (0.5, 2.0, 37.0):
            assert hook_output(x, 100.0, 50.0, 0.0) == pytest.approx(x * (2 - 0.5))

    def test_hook_quadratic_case(self):
        assert hook_output(0.5, 1.0, 1.0, 1.0) == pytest.approx(0.75)


class TestVariance:
    def test_linear_zero(self):
        assert fill_variance(0.0, VarianceSpec(LINEAR, 2.0)) == 0.0

    def test_constant_nonzero_at_zero(self):
        assert fill_variance(0.0, VarianceSpec(CONSTANT, 3.0)) == 3.0

    def test_superlinear(self):
        assert fill_variance(4.0, VarianceSpec(SUPERLINEAR, 1.0, 1.5)) == pytest.approx(8.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            VarianceSpec(SUPERLINEAR, 1.0, 2.5)
        with pytest.raises(ValueError):
            VarianceSpec(LINEAR, 1.0, 1.5)
        with pytest.raises(ValueError):
            VarianceSpec("cubic", 1.0)
        with pytest.raises(ValueError):
            fill_variance(-1.0, VarianceSpec(LINEAR, 1.0))

    @pytest.mark.parametrize("scale, exponent", [(math.nan, None), (math.inf, None), (1.0, math.nan)])
    def test_nonfinite_refused(self, scale, exponent):
        form = LINEAR if exponent is None else SUPERLINEAR
        with pytest.raises(ValueError, match="must be finite"):
            VarianceSpec(form, scale, exponent)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("total_trade", math.inf),
            ("total_trade", math.nan),
            ("cpmm_reserves", (100.0, math.inf)),
            ("hook_reserves", (math.nan, 100.0)),
            ("risk_aversion", math.nan),
            ("risk_aversion", math.inf),
        ],
    )
    def test_scenario_nonfinite_refused(self, field, value):
        fields = dict(scenario().__dict__, **{field: value})
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            HookScenario(**fields)


class TestMeanVariance:
    def test_constant_variance_scale_invariant(self):
        base, _ = solve_mean_variance(scenario(CONSTANT, 0.0))
        huge, _ = solve_mean_variance(scenario(CONSTANT, 1e6))
        assert base == huge  # bitwise: the search never sees the offset

    def test_zero_risk_aversion_is_pure_output(self):
        s = scenario(QUADRATIC, 5.0, lam=0.0)
        x, val = solve_mean_variance(s)
        ref = grid_argmax(lambda xs: np.vectorize(lambda t: combined_return(s, t))(xs), 0, 100.0, 10**5)
        assert x == pytest.approx(ref, abs=1e-3)
        assert val == pytest.approx(combined_return(s, x), abs=1e-9)

    def test_huge_quadratic_variance_kills_hook_trade(self):
        x, _ = solve_mean_variance(scenario(QUADRATIC, 1e9))
        assert x <= 1e-6

    @pytest.mark.parametrize("form,exponent", [(LINEAR, None), (SUPERLINEAR, 1.5), (QUADRATIC, None)])
    def test_matches_grid_oracle(self, form, exponent):
        rng = np.random.default_rng(5)
        for _ in range(4):
            s = HookScenario(
                total_trade=float(rng.uniform(10, 200)),
                cpmm_reserves=tuple(rng.uniform(50, 300, 2)),
                hook_reserves=tuple(rng.uniform(50, 300, 2)),
                curvature=float(rng.uniform(0, 1)),
                variance=VarianceSpec(form, float(rng.uniform(0.01, 3.0)), exponent),
                risk_aversion=float(rng.uniform(0.0, 2.0)),
            )
            obj = lambda xs: (
                cpmm_output(s.total_trade - xs, *s.cpmm_reserves)
                + hook_output(xs, *s.hook_reserves, s.curvature)
                - s.risk_aversion * fill_variance(xs, s.variance)
            )
            ref = grid_argmax(obj, 0.0, s.total_trade)
            x, _ = solve_mean_variance(s)
            assert x == pytest.approx(ref, abs=1e-5)

    @pytest.mark.parametrize("form,exponent", [(LINEAR, None), (SUPERLINEAR, 1.5), (QUADRATIC, None)])
    def test_hook_trade_shrinks_with_variance_scale(self, form, exponent):
        trades = [
            solve_mean_variance(scenario(form, b, exponent))[0]
            for b in np.logspace(-3, 3, 19)
        ]
        assert all(b <= a + 1e-6 for a, b in zip(trades, trades[1:]))

    @given(
        x=st.floats(0, 100),
        y=st.floats(0, 100),
        curvature=st.floats(0, 1),
        lam=st.floats(0, 3),
    )
    @settings(max_examples=80, deadline=None)
    def test_objective_concavity(self, x, y, curvature, lam):
        for form, exponent in ((CONSTANT, None), (LINEAR, None), (SUPERLINEAR, 1.5), (QUADRATIC, None)):
            s = scenario(form, 0.7, exponent, curvature=curvature, lam=lam)
            f = lambda t: combined_return(s, t) - lam * fill_variance(t, s.variance)
            mid = 0.5 * (x + y)
            assert f(mid) >= 0.5 * (f(x) + f(y)) - 1e-10


class TestArraySearch:
    def test_lanes_match_scalar_search_bitwise(self):
        # Without a power in the objective the array search performs the
        # scalar search's arithmetic, lane by lane, with per-lane brackets
        # that freeze at different iterations.
        peaks = np.array([0.0, 0.3, 2.5, 7.0, -1.0, 4.0])
        lo = np.array([0.0, 0.0, -3.0, 1.0, 0.0, 4.0])
        hi = np.array([1.0, 10.0, 3.0, 7.0, 5.0, 4.0])
        fn = lambda x: -(x - peaks) * (x - peaks)
        x, fx = _golden_max(fn, lo, hi, 1e-9)
        for i in range(len(peaks)):
            peak = peaks[i]
            ref = reference_golden_max(lambda t: -(t - peak) * (t - peak), lo[i], hi[i], 1e-9)
            assert (x[i], fx[i]) == ref

    def test_ties_go_to_the_larger_point(self):
        x, fx = _golden_max(lambda x: np.zeros_like(x), [0.0], [2.0], 1e-9)
        assert (x[0], fx[0]) == reference_golden_max(lambda t: 0.0, 0.0, 2.0, 1e-9) == (2.0, 0.0)

    def test_cli_default_grid_matches_scalar_search(self):
        base = scenario(LINEAR, 1.0, curvature=0.1)
        curvatures = np.linspace(0.0, 1.0, 50)
        scales = np.logspace(-3, 3, 25)
        forms = (CONSTANT, LINEAR, SUPERLINEAR, QUADRATIC)
        trades, objectives = mean_variance_sweep(base, forms, curvatures, scales)
        assert trades.shape == objectives.shape == (4, 50, 25)
        for k, form in enumerate(forms):
            exponent = 1.5 if form == SUPERLINEAR else None
            for i, curvature in enumerate(curvatures):
                for j, scale in enumerate(scales):
                    s = HookScenario(
                        base.total_trade,
                        base.cpmm_reserves,
                        base.hook_reserves,
                        float(curvature),
                        VarianceSpec(form, float(scale), exponent),
                        base.risk_aversion,
                    )
                    assert_matches_reference(
                        trades[k, i, j], objectives[k, i, j], *reference_mean_variance(s)
                    )
        # A constant variance never reaches the search.
        assert (trades[0] == trades[0, :, :1]).all()

    @given(
        total=st.floats(10, 200),
        reserves=st.tuples(*[st.floats(50, 300)] * 4),
        lam=st.floats(0, 2),
        curvature=st.floats(0, 1),
        form=st.sampled_from(
            [(CONSTANT, None), (LINEAR, None), (SUPERLINEAR, 1.3), (QUADRATIC, None)]
        ),
        scale=st.floats(0, 3),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_scalar_search(self, total, reserves, lam, curvature, form, scale):
        s = HookScenario(
            total_trade=total,
            cpmm_reserves=reserves[:2],
            hook_reserves=reserves[2:],
            curvature=curvature,
            variance=VarianceSpec(form[0], scale, form[1]),
            risk_aversion=lam,
        )
        assert_matches_reference(*solve_mean_variance(s), *reference_mean_variance(s))

    @pytest.mark.parametrize(
        "forms,curvatures,scales",
        [
            (["cubic"], [0.5], [1.0]),
            ([LINEAR], [1.5], [1.0]),
            ([LINEAR], [math.nan], [1.0]),
            ([LINEAR], [0.5], [-1.0]),
        ],
    )
    def test_sweep_validation(self, forms, curvatures, scales):
        with pytest.raises(ValueError):
            mean_variance_sweep(scenario(), forms, curvatures, scales)


def reference_frontier(s, taus):
    """The per-target scalar bisection the array bisection replaced:
    (trades, variances, feasible) lists."""
    ret = lambda x: combined_return(s, x)
    peak_x, peak = (float(v[0]) for v in _golden_max(ret, 0.0, [s.total_trade], 1e-12))
    trades, variances, feasible = [], [], []
    for tau in taus:
        tau = float(tau)
        if ret(0.0) >= tau:
            x, ok = 0.0, True
        elif tau > peak:
            x, ok = math.nan, False
        else:
            lo, hi = 0.0, peak_x
            while hi - lo > 1e-9:
                mid = 0.5 * (lo + hi)
                if ret(mid) >= tau:
                    hi = mid
                else:
                    lo = mid
            x, ok = hi, True
        trades.append(x)
        variances.append(fill_variance(x, s.variance) if ok else math.nan)
        feasible.append(ok)
    return trades, variances, feasible


VARIANCE_FORMS = [(CONSTANT, None), (LINEAR, None), (SUPERLINEAR, 1.3), (QUADRATIC, None)]


def frontier_targets(s, fractions):
    """Targets at `fractions` of the way from the pool-alone return to the
    best return on a coarse grid: below 0 the pool alone reaches them, above
    1 most are unreachable."""
    base = combined_return(s, 0.0)
    top = float(np.max(combined_return(s, np.linspace(0.0, s.total_trade, 1001))))
    return base + np.asarray(fractions, dtype=float) * (top - base)


class TestFrontier:
    def test_target_reachable_without_hook(self):
        s = scenario(LINEAR, 1.0)
        pool_only = combined_return(s, 0.0)
        trades, variances, feasible = efficient_frontier(s, [pool_only - 1.0])
        assert (trades[0], variances[0], feasible[0]) == (0.0, 0.0, True)

    def test_unreachable_target_flagged(self):
        s = scenario(LINEAR, 1.0)
        trades, variances, feasible = efficient_frontier(s, [1e9])
        assert not feasible[0]
        assert math.isnan(trades[0]) and math.isnan(variances[0])

    def test_variance_nondecreasing_in_target(self):
        s = scenario(QUADRATIC, 1.0, curvature=0.1)
        taus = np.linspace(0.0, combined_return(s, 50.0), 40)
        _, variances, feasible = efficient_frontier(s, taus)
        feasible = variances[feasible]
        assert all(b >= a - 1e-9 for a, b in zip(feasible, feasible[1:]))

    def test_quadratic_riskier_than_linear_at_matched_return(self):
        lin = scenario(LINEAR, 1.0, curvature=0.1)
        quad = scenario(QUADRATIC, 1.0, curvature=0.1)
        taus = np.linspace(combined_return(lin, 0.0) + 1.0, combined_return(lin, 40.0), 25)
        for x_lin, v_lin, ok_lin, x_quad, v_quad, ok_quad in zip(
            *efficient_frontier(lin, taus), *efficient_frontier(quad, taus)
        ):
            assert ok_lin and ok_quad
            assert x_lin == pytest.approx(x_quad, abs=1e-6)
            if x_lin >= 1.0:
                assert v_quad >= v_lin - 1e-9

    def test_return_met_at_solution(self):
        s = scenario(SUPERLINEAR, 0.5, 1.3, curvature=0.3)
        taus = np.linspace(10.0, combined_return(s, 60.0), 15)
        trades, _, feasible = efficient_frontier(s, taus)
        for tau, x, ok in zip(taus, trades, feasible):
            if ok and x > 0:
                assert combined_return(s, x) >= tau - 1e-6
                # Minimality: a hair less trade misses the target.
                assert combined_return(s, x - 1e-6) <= tau + 1e-3

    @given(
        total=st.floats(10, 200),
        reserves=st.tuples(*[st.floats(50, 300)] * 4),
        curvature=st.floats(0, 1),
        form=st.sampled_from(VARIANCE_FORMS),
        scale=st.floats(0, 3),
        fractions=st.lists(st.floats(-0.5, 1.5), min_size=1, max_size=20),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_scalar_bisection(self, total, reserves, curvature, form, scale, fractions):
        s = HookScenario(
            total_trade=total,
            cpmm_reserves=reserves[:2],
            hook_reserves=reserves[2:],
            curvature=curvature,
            variance=VarianceSpec(form[0], scale, form[1]),
            risk_aversion=1.0,
        )
        taus = frontier_targets(s, fractions)
        trades, variances, feasible = efficient_frontier(s, taus)
        ref_trades, _, ref_feasible = reference_frontier(s, taus)
        assert feasible.tolist() == ref_feasible
        # numpy's power and libm's pow may differ in the last ulp, which can
        # send one bisection step the other way; both brackets still close
        # on the same crossing to within their width.
        np.testing.assert_allclose(trades, ref_trades, rtol=0.0, atol=1e-9)
        assert (variances[feasible] == fill_variance(trades[feasible], s.variance)).all()
        assert np.isnan(trades[~feasible]).all() and np.isnan(variances[~feasible]).all()

    @pytest.mark.parametrize("form, exponent", VARIANCE_FORMS)
    def test_each_row_is_its_one_target_call(self, form, exponent):
        s = scenario(form, 0.7, exponent, curvature=0.2)
        taus = frontier_targets(s, np.linspace(-0.3, 1.3, 101))
        rows = zip(*efficient_frontier(s, taus))
        for tau, (x, v, ok) in zip(taus, rows):
            [(x1, v1, ok1)] = zip(*efficient_frontier(s, [tau]))
            assert (x.tobytes(), v.tobytes(), ok) == (x1.tobytes(), v1.tobytes(), ok1)


def hook(**kw):
    base = dict(
        total_trade=100.0,
        cpmm_reserves=(100.0, 100.0),
        hook_reserves=(100.0, 100.0),
        curvature=0.5,
        variance=VarianceSpec(LINEAR, 1.0),
        risk_aversion=1.0,
    )
    base.update(kw)
    return HookScenario(**base)


class TestRefusals:
    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: hook(total_trade=0.0), "total trade"),
            (lambda: hook(cpmm_reserves=(100.0, 0.0)), "reserves must be positive"),
            (lambda: hook(hook_reserves=(-1.0, 100.0)), "reserves must be positive"),
            (lambda: hook(curvature=-0.1), "curvature"),
            (lambda: hook(curvature=1.1), "curvature"),
            (lambda: hook(risk_aversion=-1.0), "risk aversion"),
            (lambda: VarianceSpec(LINEAR, -1.0), "scale must be nonnegative"),
            (lambda: efficient_frontier(scenario(), [1.0, math.nan]), "finite"),
            (lambda: efficient_frontier(scenario(), [math.inf]), "finite"),
        ],
    )
    def test_refused(self, call, message):
        with pytest.raises(ValueError, match=message):
            call()

    @pytest.mark.parametrize(
        "call, field",
        [
            (lambda: hook(total_trade=1e308), "total_trade"),
            (lambda: hook(total_trade=1e155, curvature=1.0), "total_trade"),
            (lambda: hook(risk_aversion=1e308), "risk_aversion"),
            (lambda: hook(variance=VarianceSpec(QUADRATIC, 1e305)), "variance"),
            # The scenario's own objective is finite; the sweep's is not.
            (lambda: mean_variance_sweep(hook(total_trade=1e155), [LINEAR], [1.0], [1.0]), "total_trade"),
            (lambda: mean_variance_sweep(hook(), [LINEAR], [0.5], [1e308]), "sweeps"),
            (lambda: mean_variance_sweep(hook(risk_aversion=1e300), [QUADRATIC], [0.5], [1e10]), "risk_aversion"),
        ],
    )
    def test_overflowing_objective_refused(self, call, field):
        with pytest.raises(FieldError, match="overflows") as refusal:
            call()
        assert refusal.value.field == field

    def test_objective_at_the_largest_finite_corner_solves(self):
        # A trade of 1e154 at curvature 1 keeps the concession, 1e308, finite.
        s = hook(total_trade=1e154, curvature=1.0, hook_reserves=(1.0, 1.0), variance=VarianceSpec(CONSTANT, 1.0))
        assert np.isfinite(solve_mean_variance(s)).all()
        assert np.isfinite(efficient_frontier(s, [0.0, 100.0])[0]).all()
