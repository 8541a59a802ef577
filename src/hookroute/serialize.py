"""JSON schemas for markets, orders, routing problems, and run configs.

Each record kind declares its keys once, in a spec: a dict from each JSON
key to a `_Key` naming the dataclass attribute it fills (the key itself
unless given), the reader of its value, and its default. A key is
`_REQUIRED`, has a default, or is `_OMIT`ted so that the dataclass default
applies. One reader, `_record`, reads every record through its spec: it
refuses a non-object, any key outside the spec and a missing required key,
and returns the values by attribute; `_build` passes them to the
constructor. `problem_to_dict` writes records through the same specs.

Every number is read as a finite float, and every list of numbers as a
tuple of finite floats, except a sweep's value lists, which keep their JSON
numbers. Every refusal is a `cfmm.FieldError` whose `field` names the path
of the key at fault, such as `mdp.gas`, `markets[0].reserves` or
`mdp.z_bounds`: a wrong type, a non-finite number, a bad list, an unknown
key and a missing key alike. A value that is not a JSON object names its
own path (`""` for the file itself). A `ValueError` that a record's
constructor or check raises names the record's path joined to the error's
own `field`: a nested record's range checks name the record (`pool`,
`markets[0]`), the top level's constructor and the liquidation and hook
configs' corner checks the key at fault.
"""

from __future__ import annotations

import json
import math
from typing import TYPE_CHECKING, Callable, NamedTuple

import numpy as np

from .cfmm import FieldError, LimitOrder, Market

if TYPE_CHECKING:
    from .routing import RoutingProblem


_REQUIRED = object()
_OMIT = object()


class _Key(NamedTuple):
    read: Callable  # (value, path, key) -> value
    default: object = _REQUIRED
    attr: str | None = None  # the attribute it fills, if not the key


def _join(path, key):
    return f"{path}.{key}" if path and key else path or key


def _object(record, path):
    if not isinstance(record, dict):
        raise FieldError(f"{path or 'the top level'} must be a JSON object", path)
    return record


def _record(record, path, spec):
    """The values of `record`, a JSON object at `path`, by attribute."""
    unknown = sorted(set(_object(record, path)) - set(spec))
    if unknown:
        raise FieldError(
            f"unknown keys {unknown} in {path or 'the top level'}, which takes {list(spec)}",
            _join(path, unknown[0]),
        )
    values = {}
    for key, entry in spec.items():
        if key in record:
            values[entry.attr or key] = entry.read(record[key], path, key)
        elif entry.default is _REQUIRED:
            raise FieldError(f"missing required field {_join(path, key)!r}", _join(path, key))
        elif entry.default is not _OMIT:
            values[entry.attr or key] = entry.default
    return values


def _wrap(fn, path):
    """fn(), a ValueError refused naming `path` joined to its own `field`."""
    try:
        return fn()
    except ValueError as exc:
        raise FieldError(str(exc), _join(path, getattr(exc, "field", ""))) from exc


def _build(cls, record, path, spec):
    values = _record(record, path, spec)
    return _wrap(lambda: cls(**values), path)


def _to_dict(obj, spec):
    """The record of `obj` by `spec`: tuples as lists, None values left out."""
    record = {}
    for key, entry in spec.items():
        value = getattr(obj, entry.attr or key)
        if value is not None:
            record[key] = list(value) if isinstance(value, tuple) else value
    return record


def _is_number(value):
    """Whether `value` is a JSON number that is a finite float, a big integer
    included."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an integer past the float range
        return False


def _is_index(value):
    return isinstance(value, int) and not isinstance(value, bool)


def _scalar(valid, kind, convert=None):
    """A reader of one value; a bad one names `path.key`."""

    def read(value, path, key):
        if not valid(value):
            raise FieldError(f"field {_join(path, key)!r} must be {kind}", _join(path, key))
        return convert(value) if convert else value

    return read


def _list_of(valid, kind, size_ok=lambda n: True, convert=tuple):
    """A reader of a list whose every entry passes `valid`."""
    listed = lambda value: isinstance(value, list) and size_ok(len(value)) and all(map(valid, value))
    return _scalar(listed, f"a list of {kind}", convert)


def _floats(values):
    return tuple(map(float, values))


def _each(read_one):
    """A reader of a list of records, entry i read by `read_one` as `key[i]`."""

    def read(value, path, key):
        if not isinstance(value, list):
            raise FieldError(f"field {_join(path, key)!r} must be a list", _join(path, key))
        return [read_one(entry, path, f"{key}[{i}]") for i, entry in enumerate(value)]

    return read


def _nested(cls, spec):
    """A reader of a record at `path.key`, built into `cls`."""
    return lambda value, path, key: _build(cls, value, _join(path, key), spec)


_FINITE = _scalar(_is_number, "a finite number", float)
_INTEGER = _scalar(_is_index, "an integer")
_STRING = _scalar(lambda v: isinstance(v, str), "a string")
_FINITE_LIST = _list_of(_is_number, "finite numbers", convert=_floats)
_PAIR = _list_of(_is_number, "two finite numbers", lambda n: n == 2, _floats)

_MARKET = {
    "kind": _Key(_STRING),
    "reserves": _Key(_FINITE_LIST),
    "fee": _Key(_FINITE, 1.0),
    "weights": _Key(_FINITE_LIST, None),
}
_ORDER = {
    "price": _Key(_FINITE),
    "volume": _Key(_FINITE),
    "input": _Key(_INTEGER, attr="input_asset"),
    "output": _Key(_INTEGER, attr="output_asset"),
}
_LIQUIDATE = {
    "input": _Key(_INTEGER, attr="input_asset"),
    "output": _Key(_INTEGER, attr="output_asset"),
    "budget": _Key(_FINITE),
}
# A problem's market also maps its assets to the problem's.
_PROBLEM_MARKET = dict(_MARKET, assets=_Key(_list_of(_is_index, "integers")))

_MDP = {
    "horizon": _Key(_INTEGER),
    "inventory": _Key(_FINITE),
    "gas": _Key(_FINITE),
    "inventory_cost": _Key(_FINITE),
    "discount": _Key(_FINITE),
    "n_inventory": _Key(_INTEGER, _OMIT),
    "n_mispricing": _Key(_INTEGER, _OMIT),
    "n_actions": _Key(_INTEGER, _OMIT),
    "quad_order": _Key(_INTEGER, _OMIT),
    "dynamics": _Key(_STRING, _OMIT),
}
_POOL = {
    "reserve_in": _Key(_FINITE),
    "reserve_out": _Key(_FINITE),
    "fee_bound_upper": _Key(_FINITE),
    "fee_bound_lower": _Key(_FINITE),
}
_MISPRICING = {"drift": _Key(_FINITE), "volatility": _Key(_FINITE), "dt": _Key(_FINITE)}

_VARIANCE = {"form": _Key(_STRING), "scale": _Key(_FINITE), "exponent": _Key(_FINITE, None)}
_FORM_NAMES = _list_of(lambda v: isinstance(v, str), "one or more variance form names", bool, list)
_SWEEP_VALUES = _list_of(_is_number, "one or more finite numbers", bool, list)

# The specs of a routing problem, a liquidation config and a hook config
# name their family's classes, so each is built in its loader, which alone
# imports that family.


def problem_to_dict(problem: RoutingProblem) -> dict:
    return {
        "n_assets": problem.n_assets,
        "markets": [
            dict(_to_dict(m, _MARKET), assets=list(assets)) for m, assets in problem.markets
        ],
        "orders": [_to_dict(o, _ORDER) for o in problem.orders],
        "utility": {"liquidate": _to_dict(problem.utility, _LIQUIDATE)},
    }


def problem_from_dict(record) -> RoutingProblem:
    """The routing problem of `record`; its utility record holds one
    `liquidate` record."""
    from .routing import Liquidate, RoutingProblem, check_solve_size

    utility = {"liquidate": _Key(_nested(Liquidate, _LIQUIDATE))}
    spec = {
        "n_assets": _Key(_INTEGER),
        "markets": _Key(
            _each(_nested(lambda assets, **market: (Market(**market), assets), _PROBLEM_MARKET)), []
        ),
        "orders": _Key(_each(_nested(LimitOrder, _ORDER)), []),
        "utility": _Key(_nested(lambda liquidate: liquidate, utility)),
    }
    problem = _build(RoutingProblem, record, "", spec)
    _wrap(lambda: check_solve_size(problem), "n_assets")
    return problem


def liquidation_config_from_dict(record):
    """Returns (MdpConfig, PoolParams, MispricingParams, z0).

    An `mdp` key left out takes the `MdpConfig` default. A config whose next
    mispricing would not be finite (`check_transition`) names `mispricing`,
    and one whose rewards or path totals could overflow names `mdp`.
    """
    from .liquidation import MdpConfig, MispricingParams, PoolParams, check_transition

    spec = {
        "mdp": _Key(_nested(MdpConfig, _MDP)),
        "pool": _Key(_nested(PoolParams, _POOL)),
        "mispricing": _Key(_nested(MispricingParams, _MISPRICING)),
        "z0": _Key(_FINITE, 0.0),
    }
    values = _record(record, "", spec)
    cfg, pool, params = values["mdp"], values["pool"], values["mispricing"]
    _wrap(lambda: check_transition(cfg, pool, params), "")
    return cfg, pool, params, values["z0"]


def hook_config_from_dict(record):
    """Returns (HookScenario, (forms, curvatures, scales)).

    An absent `sweeps` key takes every variance form, 50 curvatures on
    [0, 1] and 25 log-spaced scales on [1e-3, 1e3]. A present one must hold
    a nonempty list under each key it has, and a sweep that `check_sweep`
    refuses, too many points included, names `sweeps`. An objective that
    `check_objective` finds overflowing names its key: the scenario's in
    `HookScenario`, the sweep's here.
    """
    from .noncomposable import FORMS, HookScenario, VarianceSpec, check_objective, check_sweep

    sweeps_spec = {
        "forms": _Key(_FORM_NAMES, list(FORMS)),
        "curvature_values": _Key(_SWEEP_VALUES, np.linspace(0.0, 1.0, 50).tolist()),
        "scale_values": _Key(_SWEEP_VALUES, np.logspace(-3, 3, 25).tolist()),
    }

    def sweeps(value, path, key):
        """A `sweeps` record as (forms, curvatures, scales)."""
        values = _record(value, key, sweeps_spec)
        sweep = values["forms"], values["curvature_values"], values["scale_values"]
        _wrap(lambda: check_sweep(*sweep), key)
        return sweep

    spec = {
        "total_trade": _Key(_FINITE),
        "cpmm_reserves": _Key(_PAIR),
        "hook_reserves": _Key(_PAIR),
        "curvature": _Key(_FINITE),
        "variance": _Key(_nested(VarianceSpec, _VARIANCE)),
        "risk_aversion": _Key(_FINITE),
        "sweeps": _Key(sweeps, _OMIT),
    }
    values = _record(record, "", spec)
    sweep = values.pop("sweeps", tuple(entry.default for entry in sweeps_spec.values()))
    scenario = _wrap(lambda: HookScenario(**values), "")
    check_objective(scenario, *sweep, "sweeps")
    return scenario, sweep


def load_json(path, option="config"):
    """The JSON record at `path`, which the command-line `option` names; an
    unreadable or non-UTF-8 file is refused naming the option, malformed
    JSON naming its line and column."""
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, UnicodeDecodeError) as exc:
        raise FieldError(f"cannot read {option} {path}: {exc}", option) from exc
    except json.JSONDecodeError as exc:
        raise FieldError(
            f"malformed JSON in {path}: {exc.msg}", f"line {exc.lineno} column {exc.colno}"
        ) from exc
