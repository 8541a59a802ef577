"""Mean-variance split between a composable pool and a fill-risk hook.

A trade of total size D is split between a constant-product pool with
deterministic execution and a sovereign hook pool that quotes better output
through a curvature parameter but fills with variance that grows in the
trade size. Both the risk-penalized split and the efficient frontier
(minimum variance for a target combined return) reduce to one-dimensional
searches because every objective involved is concave or monotone on [0, D].
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cfmm import FieldError, check_budget, check_finite

CONSTANT = "constant"
LINEAR = "linear"
SUPERLINEAR = "superlinear"
QUADRATIC = "quadratic"
FORMS = (CONSTANT, LINEAR, SUPERLINEAR, QUADRATIC)

# Bytes charged per (form, curvature, scale) point of a sweep. The traced
# peak of a `hook-mean-variance` run, config lists included, is about 175
# bytes a point for one form over a square grid and 222 for one form over
# one curvature and many scales; more forms share the search's arrays.
# `hook-frontier` charges each target the same: its one array bisection
# traces about 60 bytes a target at 2·10⁵ targets (94 at 2000).
SWEEP_POINT_BYTES = 256

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_INV_PHI2 = (3.0 - math.sqrt(5.0)) / 2.0


@dataclass(frozen=True)
class VarianceSpec:
    """Fill variance as a function of the hook trade size."""

    form: str
    scale: float
    exponent: float | None = None  # only for the superlinear form

    def __post_init__(self):
        check_finite(scale=self.scale, exponent=self.exponent)
        if self.form not in FORMS:
            raise ValueError(f"variance form must be one of {FORMS}")
        if self.scale < 0:
            raise ValueError("variance scale must be nonnegative")
        if self.form == SUPERLINEAR:
            if self.exponent is None or not 1.0 < self.exponent < 2.0:
                raise ValueError("superlinear exponent must lie in (1, 2)")
        elif self.exponent is not None:
            raise ValueError(f"{self.form} variance takes no exponent")


@dataclass(frozen=True)
class HookScenario:
    total_trade: float
    cpmm_reserves: tuple[float, float]
    hook_reserves: tuple[float, float]
    curvature: float  # hook output-curve exponent offset, in [0, 1]
    variance: VarianceSpec
    risk_aversion: float

    def __post_init__(self):
        check_finite(
            total_trade=self.total_trade,
            cpmm_reserves=self.cpmm_reserves,
            hook_reserves=self.hook_reserves,
            curvature=self.curvature,
            risk_aversion=self.risk_aversion,
        )
        if self.total_trade <= 0:
            raise FieldError("total trade must be positive", "total_trade")
        for name in ("cpmm_reserves", "hook_reserves"):
            r_in, r_out = getattr(self, name)
            # The pool's output is computed from their product, the hook's
            # from their ratio.
            if not (r_in > 0 and r_out > 0 and 0 < r_in * r_out < math.inf and 0 < r_out / r_in < math.inf):
                raise FieldError(
                    f"reserves must be positive, with a finite, positive product and ratio; got {(r_in, r_out)}", name
                )
        if not 0.0 <= self.curvature <= 1.0:
            raise FieldError("curvature must lie in [0, 1]", "curvature")
        if self.risk_aversion < 0:
            raise FieldError("risk aversion must be nonnegative", "risk_aversion")
        check_objective(self, (self.variance.form,), (self.curvature,), (self.variance.scale,), "variance")


def cpmm_output(trade_size, reserve_in, reserve_out):
    """Deterministic constant-product output for the composable leg."""
    return reserve_out - reserve_in * reserve_out / (reserve_in + trade_size)


def hook_output(trade_size, reserve_in, reserve_out, curvature):
    """Hook output curve: twice the size minus a power-law concession.

    Linear at zero curvature (a constant quote), second-order pool-like at
    curvature one.
    """
    return 2.0 * trade_size - (reserve_out / reserve_in) * trade_size ** (1.0 + curvature)


def _variance(trade_size, form, scale, exponent):
    if form == CONSTANT:
        return scale
    if form == LINEAR:
        return scale * trade_size
    if form == QUADRATIC:
        return scale * trade_size**2
    return scale * trade_size**exponent


def fill_variance(trade_size, spec: VarianceSpec):
    """Execution variance of the hook fill for a given trade size."""
    if np.any(np.asarray(trade_size) < 0):
        raise ValueError("trade size must be nonnegative")
    return _variance(trade_size, spec.form, spec.scale, spec.exponent)


def combined_return(scenario: HookScenario, hook_trade):
    """Total expected output when `hook_trade` goes through the hook."""
    r_in, r_out = scenario.cpmm_reserves
    h_in, h_out = scenario.hook_reserves
    return cpmm_output(scenario.total_trade - hook_trade, r_in, r_out) + hook_output(
        hook_trade, h_in, h_out, scenario.curvature
    )


def _golden_max(fn, lo, hi, tol):
    """Golden-section maxima of a concave function, one bracket per lane.

    `fn` maps an array holding one point per lane to their values. Every lane
    narrows its own bracket from [lo, hi] and freezes once it is at most
    `tol` wide, or once its two interior points are no longer strictly inside
    it, as where floats lie more than `tol` apart. A concave maximum may sit
    exactly on an end of the original range, so each lane returns the
    largest (value, point) pair among lo, hi and its bracket midpoint.
    Returns (points, values) arrays.
    """
    lo, hi = np.broadcast_arrays(np.asarray(lo, dtype=float), np.asarray(hi, dtype=float))
    a, b = lo, hi
    c = a + _INV_PHI2 * (b - a)
    d = a + _INV_PHI * (b - a)
    fc, fd = fn(c), fn(d)
    narrowing = lambda: (b - a > tol) & (a < c) & (d < b)  # each step moves a up or b down
    active = narrowing()
    while active.any():
        keep_c = fc >= fd
        left = active & keep_c  # the maximum lies in [a, d]
        right = active & ~keep_c  # the maximum lies in [c, b]
        a, b = np.where(right, c, a), np.where(left, d, b)
        c, d = np.where(right, d, c), np.where(left, c, d)
        fc, fd = np.where(right, fd, fc), np.where(left, fc, fd)
        probe = np.where(left, a + _INV_PHI2 * (b - a), a + _INV_PHI * (b - a))
        f_probe = fn(probe)
        c, fc = np.where(left, probe, c), np.where(left, f_probe, fc)
        d, fd = np.where(right, probe, d), np.where(right, f_probe, fd)
        active = narrowing()
    best_x, best_f = lo, fn(lo)
    for x in (hi, 0.5 * (a + b)):
        fx = fn(x)
        better = (fx > best_f) | ((fx == best_f) & (x > best_x))
        best_x, best_f = np.where(better, x, best_x), np.where(better, fx, best_f)
    return best_x, best_f


def check_sweep(forms, curvatures, scales):
    """Raise ValueError unless the sweep's points fit `cfmm.MAX_SOLVE_BYTES` at
    SWEEP_POINT_BYTES each, every form is known, every curvature lies in
    [0, 1] and every variance scale is nonnegative."""
    points = len(forms) * len(curvatures) * len(scales)
    check_budget(points * SWEEP_POINT_BYTES, f"the sweep's {points} points", "forms, curvatures or scales")
    unknown = [form for form in forms if form not in FORMS]
    if unknown:
        raise ValueError(f"variance forms must be among {FORMS}, got {unknown}")
    curvatures = np.asarray(curvatures, dtype=float)
    if not np.all((curvatures >= 0.0) & (curvatures <= 1.0)):
        raise ValueError("curvature must lie in [0, 1]")
    if not np.all(np.asarray(scales, dtype=float) >= 0.0):
        raise ValueError("variance scale must be nonnegative")


def check_objective(scenario, forms, curvatures, scales, field):
    """Raise a `FieldError` unless the mean-variance objective of `scenario`
    stays finite at every hook trade in [0, total_trade], every curvature of
    `curvatures` and every form of `forms` at every scale of `scales`.

    Every term peaks in magnitude at an extreme corner: the pool's output
    lies below its out reserve, and the sum in its denominator below both
    reserves plus the trade; the hook's output is twice the trade less
    ratio x trade^(1 + curvature), which peaks at the full trade and the
    least or the greatest curvature; the variance peaks at the full trade
    and the greatest scale. So the sum of the return's terms bounds every
    return a search computes (else `total_trade`), the variance at that
    corner every variance (else `field`), and that sum plus risk_aversion
    times that variance every objective (else `risk_aversion`).
    """
    total = np.float64(scenario.total_trade)
    r_in, r_out = scenario.cpmm_reserves
    h_in, h_out = scenario.hook_reserves
    exponent = scenario.variance.exponent if scenario.variance.exponent is not None else 1.5
    with np.errstate(all="ignore"):
        curvature_ends = np.array([min(curvatures, default=0.0), max(curvatures, default=0.0)])
        bound = r_in + r_out + 2.0 * total + ((h_out / h_in) * total ** (1.0 + curvature_ends)).max()
        variances = [_variance(total, form, max(scales, default=0.0), exponent) for form in forms]
        variance = np.max(variances, initial=0.0)
        objective = bound + scenario.risk_aversion * variance
    if not np.isfinite(bound):
        raise FieldError(f"total_trade {scenario.total_trade!r}: the combined return overflows", "total_trade")
    if not np.isfinite(variance):
        raise FieldError(f"{field}: the fill variance overflows at the full trade", field)
    if not np.isfinite(objective):
        raise FieldError(f"risk_aversion {scenario.risk_aversion!r}: the risk penalty overflows", "risk_aversion")


def mean_variance_sweep(scenario: HookScenario, forms, curvatures, scales):
    """Risk-penalized optimal hook trades over a grid of variance forms,
    curvatures and variance scales.

    Each (form, curvature, scale) point replaces the scenario's own
    curvature and variance; the superlinear form takes the scenario's
    exponent when it has one and 1.5 otherwise. Every point maximizes
    combined return minus risk_aversion times the fill variance over [0, D]
    by golden-section search (the objective is concave for every shipped
    variance form), one array search per form over all its points. A
    constant variance only shifts the objective, so it is dropped during the
    search and restored in the reported value, making the optimizer exactly
    independent of its scale.

    Returns (hook trades, objective values), each of shape
    (len(forms), len(curvatures), len(scales)).
    """
    check_sweep(forms, curvatures, scales)
    check_objective(scenario, forms, curvatures, scales, "sweeps")
    curvatures = np.asarray(curvatures, dtype=float)
    scales = np.asarray(scales, dtype=float)
    exponent = scenario.variance.exponent if scenario.variance.exponent is not None else 1.5
    total = scenario.total_trade
    r_in, r_out = scenario.cpmm_reserves
    h_in, h_out = scenario.hook_reserves
    lam = scenario.risk_aversion
    curvature, scale = (grid.ravel() for grid in np.meshgrid(curvatures, scales, indexing="ij"))
    shape = (len(forms), len(curvatures), len(scales))
    trades, objectives = np.empty(shape), np.empty(shape)
    for k, form in enumerate(forms):

        def objective(x):
            value = cpmm_output(total - x, r_in, r_out) + hook_output(x, h_in, h_out, curvature)
            if form == CONSTANT:
                return value
            return value - lam * _variance(x, form, scale, exponent)

        x, fx = _golden_max(objective, 0.0, np.full(curvature.shape, total), 1e-9)
        if form == CONSTANT:
            fx = fx - lam * scale
        trades[k] = x.reshape(shape[1:])
        objectives[k] = fx.reshape(shape[1:])
    return trades, objectives


def solve_mean_variance(scenario: HookScenario):
    """Risk-penalized optimal hook trade for one scenario.

    The one-point case of `mean_variance_sweep`. Returns (hook trade,
    objective value).
    """
    spec = scenario.variance
    trades, objectives = mean_variance_sweep(
        scenario, (spec.form,), (scenario.curvature,), (spec.scale,)
    )
    return float(trades[0, 0, 0]), float(objectives[0, 0, 0])


def efficient_frontier(scenario: HookScenario, tau_grid):
    """Minimum fill variance achieving each target combined return.

    The variance is nondecreasing in the hook trade and the return is
    concave, so the minimizer is the smallest trade on the return's
    superlevel set: zero when the pool alone reaches the target, otherwise
    the lower crossing on [0, peak]. All targets are solved in one array
    bisection: each keeps its own bracket, moves its upper end to the
    midpoint wherever the return there meets the target, and freezes once
    the bracket is at most 1e-9 wide or its midpoint rounds to one of its
    ends. Unreachable targets are returned flagged rather than raised so
    sweeps stay rectangular.

    Returns (hook trades, variances, feasible) arrays, one entry per target;
    an unreachable target has NaN trade and variance.
    """
    taus = np.asarray(tau_grid, dtype=float)
    if not np.isfinite(taus).all():
        raise ValueError("target returns must be finite")
    ret = lambda x: combined_return(scenario, x)
    peak_x, peak = _golden_max(ret, 0.0, [scenario.total_trade], 1e-12)
    feasible = taus <= peak
    lo = np.zeros(taus.shape)
    hi = np.where(feasible & (ret(0.0) < taus), peak_x, 0.0)
    active = hi - lo > 1e-9
    while active.any():
        mid = 0.5 * (lo + hi)
        active &= (lo < mid) & (mid < hi)
        met = ret(mid) >= taus
        hi, lo = np.where(active & met, mid, hi), np.where(active & ~met, mid, lo)
        active &= hi - lo > 1e-9
    variances = np.where(feasible, fill_variance(hi, scenario.variance), math.nan)
    return np.where(feasible, hi, math.nan), variances, feasible
