"""JSON schemas for markets, orders, routing problems, and run configs."""

from __future__ import annotations

import json
import math

import numpy as np

from .cfmm import LimitOrder, Market
from .liquidation import MdpConfig, MispricingParams, PoolParams
from .noncomposable import FORMS, HookScenario, VarianceSpec, check_sweep
from .routing import Liquidate, RoutingProblem


class ConfigError(Exception):
    """A config file failed to parse or validate; `field` names the culprit."""

    def __init__(self, message, field=""):
        super().__init__(message)
        self.field = field


_sentinel = object()


def _get(record, key, path, expected=None, default=_sentinel):
    field = f"{path}.{key}" if path else key
    if key not in record:
        if default is not _sentinel:
            return default
        raise ConfigError(f"missing required field {field!r}", field)
    value = record[key]
    if expected is not None and not isinstance(value, expected):
        names = expected if isinstance(expected, tuple) else (expected,)
        raise ConfigError(
            f"field {field!r} must be {'/'.join(t.__name__ for t in names)}", field
        )
    return value


def _number(record, key, path, default=_sentinel):
    value = _get(record, key, path, (int, float), default)
    if isinstance(value, bool):
        field = f"{path}.{key}" if path else key
        raise ConfigError(f"field {field!r} must be a number", field)
    return float(value) if value is not None else None


def _wrap(fn, field):
    try:
        return fn()
    except ValueError as exc:
        raise ConfigError(str(exc), field) from exc


def market_to_dict(market: Market) -> dict:
    record = {"kind": market.kind, "reserves": list(market.reserves), "fee": market.fee}
    if market.weights is not None:
        record["weights"] = list(market.weights)
    return record


def market_from_dict(record, path="market") -> Market:
    kind = _get(record, "kind", path, str)
    reserves = _get(record, "reserves", path, list)
    fee = _number(record, "fee", path, default=1.0)
    weights = _get(record, "weights", path, list, default=None)
    return _wrap(
        lambda: Market(kind, tuple(reserves), fee, tuple(weights) if weights else None),
        path,
    )


def order_to_dict(order: LimitOrder) -> dict:
    return {
        "price": order.price,
        "volume": order.volume,
        "input": order.input_asset,
        "output": order.output_asset,
    }


def order_from_dict(record, path="order") -> LimitOrder:
    return _wrap(
        lambda: LimitOrder(
            _number(record, "price", path),
            _number(record, "volume", path),
            _get(record, "input", path, int),
            _get(record, "output", path, int),
        ),
        path,
    )


def problem_to_dict(problem: RoutingProblem) -> dict:
    return {
        "n_assets": problem.n_assets,
        "markets": [
            dict(market_to_dict(m), assets=list(assets)) for m, assets in problem.markets
        ],
        "orders": [order_to_dict(o) for o in problem.orders],
        "utility": {
            "liquidate": {
                "input": problem.utility.input_asset,
                "output": problem.utility.output_asset,
                "budget": problem.utility.budget,
            }
        },
    }


def problem_from_dict(record) -> RoutingProblem:
    n_assets = _get(record, "n_assets", "", int)
    markets = []
    for i, m in enumerate(_get(record, "markets", "", list, default=[])):
        path = f"markets[{i}]"
        market = market_from_dict(m, path)
        assets = _get(m, "assets", path, list)
        markets.append((market, tuple(assets)))
    orders = [
        order_from_dict(o, f"orders[{i}]")
        for i, o in enumerate(_get(record, "orders", "", list, default=[]))
    ]
    utility = _get(record, "utility", "", dict)
    liq = _get(utility, "liquidate", "utility", dict)
    util = _wrap(
        lambda: Liquidate(
            _get(liq, "input", "utility.liquidate", int),
            _get(liq, "output", "utility.liquidate", int),
            _number(liq, "budget", "utility.liquidate"),
        ),
        "utility.liquidate",
    )
    return _wrap(lambda: RoutingProblem(n_assets, markets, orders, util), "")


def liquidation_config_from_dict(record):
    """Returns (MdpConfig, PoolParams, MispricingParams, z0)."""
    mdp = _get(record, "mdp", "", dict)
    pool = _get(record, "pool", "", dict)
    mis = _get(record, "mispricing", "", dict)
    z_bounds = _get(mdp, "z_bounds", "mdp", list, default=None)
    cfg = _wrap(
        lambda: MdpConfig(
            horizon=_get(mdp, "horizon", "mdp", int),
            inventory=_number(mdp, "inventory", "mdp"),
            gas=_number(mdp, "gas", "mdp"),
            inventory_cost=_number(mdp, "inventory_cost", "mdp"),
            discount=_number(mdp, "discount", "mdp"),
            n_inventory=_get(mdp, "n_inventory", "mdp", int, default=101),
            n_mispricing=_get(mdp, "n_mispricing", "mdp", int, default=101),
            n_actions=_get(mdp, "n_actions", "mdp", int, default=51),
            quad_order=_get(mdp, "quad_order", "mdp", int, default=9),
            dynamics=_get(mdp, "dynamics", "mdp", str, default="multiplicative"),
            z_bounds=tuple(z_bounds) if z_bounds else None,
        ),
        "mdp",
    )
    pool_params = _wrap(
        lambda: PoolParams(
            reserve_in=_number(pool, "reserve_in", "pool"),
            reserve_out=_number(pool, "reserve_out", "pool"),
            fee_bound_upper=_number(pool, "fee_bound_upper", "pool"),
            fee_bound_lower=_number(pool, "fee_bound_lower", "pool"),
            external_price=_number(pool, "external_price", "pool", default=None),
        ),
        "pool",
    )
    mis_params = _wrap(
        lambda: MispricingParams(
            drift=_number(mis, "drift", "mispricing"),
            volatility=_number(mis, "volatility", "mispricing"),
            dt=_number(mis, "dt", "mispricing"),
        ),
        "mispricing",
    )
    z0 = _number(record, "z0", "", default=0.0)
    return cfg, pool_params, mis_params, z0


def _finite_number(record, key, path, default=_sentinel):
    value = _number(record, key, path, default)
    if value is not None and not math.isfinite(value):
        field = f"{path}.{key}" if path else key
        raise ConfigError(f"field {field!r} must be finite", field)
    return value


def _reserve_pair(record, key):
    pair = _get(record, key, "", list)
    if len(pair) != 2 or not all(map(_is_number, pair)):
        raise ConfigError(f"field {key!r} must hold two finite numbers", key)
    return tuple(pair)


def variance_from_dict(record, path="variance") -> VarianceSpec:
    form = _get(record, "form", path, str)
    exponent = _finite_number(record, "exponent", path, default=None)
    scale = _finite_number(record, "scale", path)
    return _wrap(lambda: VarianceSpec(form, scale, exponent), path)


def hook_scenario_from_dict(record) -> HookScenario:
    """A hook scenario; every number must be finite, and a bad one is named."""
    total_trade = _finite_number(record, "total_trade", "")
    cpmm = _reserve_pair(record, "cpmm_reserves")
    hook = _reserve_pair(record, "hook_reserves")
    curvature = _finite_number(record, "curvature", "")
    variance = variance_from_dict(_get(record, "variance", "", dict))
    risk_aversion = _finite_number(record, "risk_aversion", "")
    return _wrap(
        lambda: HookScenario(total_trade, cpmm, hook, curvature, variance, risk_aversion),
        "",
    )


def _is_number(value):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an integer past the float range
        return False


_SWEEP_DEFAULTS = {
    "forms": (list(FORMS), lambda v: isinstance(v, str), "variance form names"),
    "curvature_values": (np.linspace(0.0, 1.0, 50).tolist(), _is_number, "finite numbers"),
    "scale_values": (np.logspace(-3, 3, 25).tolist(), _is_number, "finite numbers"),
}


def hook_sweeps_from_dict(record):
    """The `sweeps` block of a hook config as (forms, curvatures, scales).

    An absent key takes its default: every variance form, 50 curvatures on
    [0, 1] and 25 log-spaced scales on [1e-3, 1e3]. A present key must hold
    a nonempty list of valid values; anything else, unknown keys included,
    is refused here, before any search runs.
    """
    sweeps = _get(record, "sweeps", "", dict, default={})
    unknown = sorted(set(sweeps) - set(_SWEEP_DEFAULTS))
    if unknown:
        raise ConfigError(
            f"unknown sweeps keys {unknown}, expected some of {list(_SWEEP_DEFAULTS)}", "sweeps"
        )
    values = []
    for key, (default, valid, kind) in _SWEEP_DEFAULTS.items():
        value = sweeps.get(key, default)
        if not isinstance(value, list) or not value or not all(map(valid, value)):
            raise ConfigError(f"sweeps.{key} must be a nonempty list of {kind}", "sweeps")
        values.append(value)
    _wrap(lambda: check_sweep(*values), "sweeps")
    return tuple(values)


def hook_targets_from_dict(record):
    """The `targets` list of a hook config: the frontier's return targets.

    It must be a nonempty list of finite numbers (booleans are refused);
    anything else is refused here, before any search runs.
    """
    targets = _get(record, "targets", "", list)
    if not targets or not all(map(_is_number, targets)):
        raise ConfigError("field 'targets' must be a nonempty list of finite numbers", "targets")
    return [float(t) for t in targets]


def load_json(path):
    try:
        with open(path) as handle:
            return json.load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}", "") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"malformed JSON in {path}: {exc.msg}", f"line {exc.lineno} column {exc.colno}"
        ) from exc
