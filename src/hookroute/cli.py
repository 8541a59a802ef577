"""Batch command-line front end: run a scenario, emit CSV data and a manifest.

Every command resolves its config, runs the owning module, and returns its
manifest record and its tables; `main` writes them with `write_run`, each
table atomically, then the manifest. Reruns with identical config and seed,
at the same BLAS thread count, produce byte-identical CSV bodies.

A command imports its problem family (`routing` with `scenarios`,
`liquidation` or `noncomposable`) inside its own body and calls each solver
through the module that owns it, so a process loads, and without a bytecode
cache compiles, only the family it runs.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import hashlib
import importlib
import itertools
import json
import math
import os
import sys
import tempfile

import numpy as np

from . import __version__
from .cfmm import FieldError, NoFeasibleRouteError, check_budget
from .serialize import (
    hook_config_from_dict,
    liquidation_config_from_dict,
    load_json,
    problem_from_dict,
    problem_to_dict,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_INFEASIBLE = 4


class SolverFailure(Exception):
    pass


# The module that owns each solver that the benchmark's tracer
# (bench/spans.py) reads and rebinds on this module. The commands never read
# these names here: they call each solver through its owner.
_SOLVER_OWNERS = {
    "solve_curve": "routing",
    "value_iteration": "liquidation",
    "simulate_policy": "liquidation",
    "compare_vs_twamm": "liquidation",
    "solve_mean_variance": "noncomposable",
    "efficient_frontier": "noncomposable",
}


def __getattr__(name):
    """A solver of `_SOLVER_OWNERS`, read from its owner, imported on first use."""
    if name not in _SOLVER_OWNERS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_SOLVER_OWNERS[name]}", __package__), name)


def _grid_bounds(text, point_bytes=8, what=None):
    """(start, stop, count) of the inclusive start:stop:count sweep `text`,
    checked without allocating anything. A grid whose points, at
    `point_bytes` each (its float and what a command holds per point), would
    pass the memory budget is refused. When `what` names a nonnegative
    quantity, the start, the grid's least value, must not be negative."""
    parts = text.split(":")
    if len(parts) != 3:
        raise FieldError(f"grid {text!r} must look like start:stop:count", "grid")
    try:
        start, stop = float(parts[0]), float(parts[1])
        count = int(parts[2])
    except ValueError as exc:
        raise FieldError(f"grid {text!r}: {exc}", "grid") from exc
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise FieldError(f"grid {text!r}: start and stop must be finite", "grid")
    if count < 1:
        raise FieldError("grid count must be at least 1", "grid")
    try:
        check_budget(count * point_bytes, f"the grid's {count} points", "grid points")
    except ValueError as exc:
        raise FieldError(f"grid {text!r}: {exc}", "grid") from exc
    if stop < start:
        raise FieldError("grid stop must not precede start", "grid")
    if what is not None and start < 0:
        raise FieldError(f"grid {text!r}: {what} must be nonnegative", "grid")
    return start, stop, count


def parse_grid(text, point_bytes=8, what=None):
    """The sweep `text` as an array, once `_grid_bounds` has checked it."""
    return np.linspace(*_grid_bounds(text, point_bytes, what))


def _bool_text(value):
    return "true" if value else "false"


# A table cell's text by its exact type: a float as its repr, an int in
# decimal, a bool as true or false, a string as itself.
_CELL_TEXT = {float: repr, int: str, bool: _bool_text, str: str}


def _fmt(value):
    """A table cell's text: by `_CELL_TEXT` for its exact type, a numpy
    scalar as the Python scalar it holds, anything else as its str."""
    text = _CELL_TEXT.get(type(value))
    if text is not None:
        return text(value)
    if isinstance(value, np.generic):
        return _fmt(value.item())
    return str(value)


def csv_rows(rows):
    """CSV text lines of `rows`, one cell per value, read lazily. Python
    scalars (`ndarray.tolist()`) format faster than numpy scalars."""
    for row in rows:
        yield ",".join(map(_fmt, row)) + "\n"


def write_run(args, record, tables):
    """Write the run of `args.command` into `args.out`: each table as
    `<name>.csv`, and a manifest listing them.

    A table is (name, columns, body), its body CSV text: any iterable of
    strings, each ending in a newline, a generator included (`csv_rows`
    formats tuples). It is read once and streamed to disk below a
    `# manifest: <hash>` line, a `# seed: <n>` line when the command takes
    `--seed`, and the header. The hash covers the command, its config
    `record` and its seed. Every file is written to a temporary file in
    `args.out` first, and only once all are written are they moved into
    place, the manifest last; a failure before then removes them all, so
    `args.out` gains none of the run's files.
    """
    seed = getattr(args, "seed", None)
    canonical = json.dumps(
        {"command": args.command, "config": record, "seed": seed},
        sort_keys=True,
        separators=(",", ":"),
    )
    config_hash = hashlib.sha256(canonical.encode()).hexdigest()
    comments = f"# manifest: {config_hash}\n" + ("" if seed is None else f"# seed: {seed}\n")
    files = [
        (f"{name}.csv", itertools.chain([comments, ",".join(columns) + "\n"], body))
        for name, columns, body in tables
    ]
    manifest = {
        "command": args.command,
        "config_hash": config_hash,
        "seed": seed,
        "version": __version__,
        "outputs": [name for name, _ in files],
    }
    manifest_name = f"{args.command.replace('-', '_')}_manifest.json"
    files.append((manifest_name, [json.dumps(manifest, sort_keys=True, indent=1) + "\n"]))
    os.makedirs(args.out, exist_ok=True)
    temporary = []
    try:
        for _, chunks in files:
            fd, tmp = tempfile.mkstemp(dir=args.out, prefix=".tmp-", text=True)
            temporary.append(tmp)
            with os.fdopen(fd, "w") as handle:
                handle.writelines(chunks)
        for tmp, (name, _) in zip(temporary, files):
            os.replace(tmp, os.path.join(args.out, name))
    except BaseException:
        for tmp in temporary:
            if os.path.exists(tmp):
                os.unlink(tmp)
        raise


def _solve_curve_strict(problem, grid):
    """`routing.solve_curve`, the CLI's one call into the routing solver,
    whose uncertified solves become a `SolverFailure`."""
    from . import routing

    solutions = routing.solve_curve(problem, grid)
    bad = [s for s in solutions if s.status != routing.STATUS_OPTIMAL]
    if bad:
        raise SolverFailure(
            f"{len(bad)} of {len(solutions)} routing solves missed the gap tolerance"
        )
    return solutions


def _order_curves(problem, text):
    """Solve `problem` over the budget grid `text` with its orders and
    without them; return the grid, the with-orders solutions and the CSV
    rows (s, u with, u without). Each budget is charged its float and a
    solution of each curve, so a grid that would not fit is refused before
    it is allocated."""
    from .routing import solution_bytes

    stripped = dataclasses.replace(problem, orders=[])
    grid = parse_grid(text, 8 + solution_bytes(problem) + solution_bytes(stripped), "budget")
    with_orders = _solve_curve_strict(problem, grid)
    without_orders = _solve_curve_strict(stripped, grid)
    rows = (
        (s, a.utility_value, b.utility_value)
        for s, a, b in zip(grid.tolist(), with_orders, without_orders)
    )
    return grid, with_orders, csv_rows(rows)


def cmd_pigou(args):
    from .scenarios import pigou_problem

    _, _, rows = _order_curves(pigou_problem(0.0), args.grid)
    # The order is always included; the record keeps the hash of runs that
    # chose it with --with-order.
    record = {"grid": args.grid, "with_order": True}
    return record, [("pigou_output", ("s", "u", "u_no_order"), rows)]


def _load_problem(spec_text):
    from .scenarios import SCENARIOS

    if os.path.exists(spec_text):
        return problem_from_dict(load_json(spec_text, "problem"))
    if spec_text in SCENARIOS:
        return SCENARIOS[spec_text](0.0)
    raise FieldError(
        f"problem {spec_text!r} is neither a file nor a built-in scenario", "problem"
    )


def cmd_route(args):
    if args.s is None:
        raise FieldError("route needs --s", "grid")
    # A bad --s, one whose floats alone would not fit included, is named
    # before the problem is read.
    _grid_bounds(args.s, what="budget")
    problem = _load_problem(args.problem)
    grid, with_orders, rows = _order_curves(problem, args.s)

    def trade_rows():
        trade_assets = problem.trade_assets
        for s, sol in zip(grid.tolist(), with_orders):
            for market_id, (assets, (tendered, received)) in enumerate(zip(trade_assets, sol.market_trades)):
                for asset, amount in zip(assets, (received - tendered).tolist()):
                    yield s, market_id, asset, amount

    record = {"problem": problem_to_dict(problem), "grid": args.s}
    return record, [
        ("route_output", ("s", "u_with_orders", "u_without_orders"), rows),
        ("route_trades", ("s", "market_id", "asset_id", "amount"), csv_rows(trade_rows())),
    ]


def _dump_times(text, horizon):
    """The blocks that --dump-times names: 'all' or comma-separated indices."""
    if text == "all":
        return range(horizon)
    try:
        times = [int(t) for t in text.split(",")]
    except ValueError as exc:
        raise FieldError(f"dump times {text!r}: {exc}", "dump-times") from exc
    if any(not 0 <= t < horizon for t in times):
        raise FieldError("dump time outside the horizon", "dump-times")
    return times


def policy_dump(policy, times):
    """The `liquidation_solution` body of the blocks `times`, one string per
    time, its rows `t,I,z,value,action` in (inventory, mispricing) order.

    Every cell but t is a float, written as its repr. The rows of the block
    last formatted are kept without their leading "t,", and the next block
    re-formats only the rows whose value bits or action differ from them.
    Values compare as bits: `0.0 == -0.0`, but their reprs differ. Blocks
    0 .. horizon - backups, which repeat one block (see
    `liquidation.value_iteration`), then re-format nothing.
    """
    values = policy.values.reshape(len(policy.values), -1)
    bits = values.view(np.uint64)
    actions = policy.action_index.reshape(len(values), -1)
    fractions = policy.action_fractions.tolist()
    mispricings = policy.mispricing_grid.tolist()
    cells = []
    for inv in policy.inventory_grid.tolist():
        action_text = [repr(frac * inv) for frac in fractions]
        cells += [(f"{inv!r},{z!r},", action_text) for z in mispricings]
    lines = [None] * len(cells)
    last = None
    for t in times:
        if last is None:
            changed = np.arange(len(cells))
        else:
            changed = np.flatnonzero((bits[t] != bits[last]) | (actions[t] != actions[last]))
        for k, value, index in zip(changed.tolist(), values[t, changed].tolist(), actions[t, changed].tolist()):
            prefix, action_text = cells[k]
            lines[k] = f"{prefix}{value!r},{action_text[index]}"
        last = t
        yield f"{t}," + f"\n{t},".join(lines) + "\n"


def cmd_liquidate_solve(args):
    from . import liquidation

    record = load_json(args.config)
    cfg, pool, params, _ = liquidation_config_from_dict(record)
    times = _dump_times(args.dump_times, cfg.horizon)
    body = policy_dump(liquidation.value_iteration(cfg, pool, params), times)
    return record, [("liquidation_solution", ("t", "I", "z", "value", "action"), body)]


def cmd_liquidate_simulate(args):
    from . import liquidation

    record = load_json(args.config)
    cfg, pool, params, z0 = liquidation_config_from_dict(record)
    noise = liquidation.draw_noise(args.paths, cfg.horizon, args.seed)
    # A run whose draws would overflow the next mispricing is refused before
    # the solve; `simulate_policy` checks them again for library callers.
    liquidation.check_transition(cfg, pool, params, noise)
    policy = liquidation.value_iteration(cfg, pool, params)
    sim = liquidation.simulate_policy(policy, cfg, pool, params, noise, z0)
    rows = ((p, t, inventory) for p, path in enumerate(sim.inventory.tolist()) for t, inventory in enumerate(path))
    return record, [("inventory_paths", ("path", "t", "inventory"), csv_rows(rows))]


def cmd_compare_twamm(args):
    from . import liquidation

    record = load_json(args.config)
    cfg, pool, params, z0 = liquidation_config_from_dict(record)
    noise = liquidation.draw_noise(args.paths, cfg.horizon, args.seed)
    sigma_grid = parse_grid(args.grid, what="volatility")
    # The reader checked the config's own volatility; a swept one whose next
    # mispricing overflows is refused here, before any solve, naming --grid.
    for sigma in sigma_grid.tolist():
        try:
            liquidation.check_transition(cfg, pool, dataclasses.replace(params, volatility=sigma))
        except ValueError as exc:
            raise FieldError(f"--grid volatility {sigma!r}: {exc}", "grid") from exc
    results = liquidation.compare_vs_twamm(sigma_grid, cfg, pool, params, noise, z0)
    return record, [("twamm_comparison", ("sigma", "mean_excess", "stderr"), csv_rows(results))]


def cmd_hook_mean_variance(args):
    from . import noncomposable

    record = load_json(args.config)
    scenario, (forms, curvatures, scales) = hook_config_from_dict(record)
    trades, objectives = noncomposable.mean_variance_sweep(scenario, forms, curvatures, scales)
    rows = (
        (curvature, scale, form, trade, objective)
        for (form, curvature, scale), trade, objective in zip(
            itertools.product(forms, curvatures, scales), trades.ravel().tolist(), objectives.ravel().tolist()
        )
    )
    columns = ("alpha", "beta", "variance_form", "delta_star", "objective")
    return record, [("mean_variance", columns, csv_rows(rows))]


def cmd_hook_frontier(args):
    from . import noncomposable

    record = load_json(args.config)
    scenario, _ = hook_config_from_dict(record)
    grid = parse_grid(args.grid, noncomposable.SWEEP_POINT_BYTES)
    rows = zip(grid.tolist(), *(column.tolist() for column in noncomposable.efficient_frontier(scenario, grid)))
    return record, [("frontier", ("tau", "delta_star", "variance_star", "feasible"), csv_rows(rows))]


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="hookroute",
        description="Batch experiments: trade routing, timed liquidation, fill-risk splits.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seeded=False):
        p.add_argument("--out", default=".", help="output directory")
        if seeded:
            p.add_argument("--seed", type=int, default=0)
            p.add_argument("--paths", type=int, default=100)

    p = sub.add_parser("pigou", help="two-link network output curve")
    p.add_argument("--grid", required=True, help="input sweep start:stop:count")
    p.add_argument("--with-order", action="store_true", help="accepted; the order is always included")
    common(p)
    p.set_defaults(fn=cmd_pigou)

    p = sub.add_parser("route", help="solve a routing problem over a budget sweep")
    p.add_argument("--problem", required=True, help="problem JSON or built-in name")
    p.add_argument("--s", help="budget sweep start:stop:count")
    common(p)
    p.set_defaults(fn=cmd_route)

    p = sub.add_parser("liquidate-solve", help="solve the liquidation program")
    p.add_argument("--config", required=True)
    p.add_argument(
        "--dump-times",
        default="0",
        help="comma-separated block indices to dump, or 'all'",
    )
    common(p)
    p.set_defaults(fn=cmd_liquidate_solve)

    p = sub.add_parser("liquidate-simulate", help="simulate the solved policy")
    p.add_argument("--config", required=True)
    common(p, seeded=True)
    p.set_defaults(fn=cmd_liquidate_simulate)

    p = sub.add_parser("compare-twamm", help="optimal schedule vs uniform split")
    p.add_argument("--config", required=True)
    p.add_argument("--grid", required=True, help="volatility sweep start:stop:count")
    common(p, seeded=True)
    p.set_defaults(fn=cmd_compare_twamm)

    p = sub.add_parser("hook-mean-variance", help="risk-penalized split sweeps")
    p.add_argument("--config", required=True)
    common(p)
    p.set_defaults(fn=cmd_hook_mean_variance)

    p = sub.add_parser("hook-frontier", help="minimum variance per target return")
    p.add_argument("--config", required=True)
    p.add_argument("--grid", required=True, help="target sweep start:stop:count")
    common(p)
    p.set_defaults(fn=cmd_hook_frontier)

    return parser


def _grid_values_joined(argv):
    """argv with each grid option joined to a value that starts with one "-"
    (`--grid -5:70:3` as `--grid=-5:70:3`), which argparse would read as an
    option."""
    joined = []
    for arg in argv:
        if joined and joined[-1] in ("--s", "--grid") and arg.startswith("-") and not arg.startswith("--"):
            joined[-1] += "=" + arg
        else:
            joined.append(arg)
    return joined


def _fail(code, kind, detail, field=""):
    print(json.dumps({"error": kind, "detail": detail, "field": field}, sort_keys=True))
    return code


def main(argv=None) -> int:
    args = _build_parser().parse_args(_grid_values_joined(sys.argv[1:] if argv is None else argv))
    # `write_run` makes --out with `os.makedirs`, which needs a nonempty path
    # whose nearest existing ancestor is a directory: refuse any other before
    # the command runs.
    base = args.out
    while base and not os.path.exists(base):
        base = os.path.dirname(base)
    if not (args.out and os.path.isdir(base or ".")):
        return _fail(EXIT_CONFIG, "config_parse", f"--out {args.out!r} cannot be made a directory", "out")
    try:
        record, tables = args.fn(args)
    except ValueError as exc:
        return _fail(EXIT_CONFIG, "config_parse", str(exc), getattr(exc, "field", ""))
    except SolverFailure as exc:
        return _fail(EXIT_SOLVER, "solver_nonconvergence", str(exc))
    except NoFeasibleRouteError as exc:
        return _fail(EXIT_INFEASIBLE, "infeasible", str(exc))
    try:
        write_run(args, record, tables)
    except OSError as exc:
        return _fail(EXIT_CONFIG, "config_parse", f"cannot write to --out {args.out}: {exc}", "out")
    return EXIT_OK


def run() -> int:
    """The process entry of `hookroute` and `python -m hookroute`: `main` on
    the process's arguments, then `gc.freeze()`, so that the interpreter's
    final collections skip every object still alive (10-20 ms of exit on the
    paper configs). `main` itself never freezes: called in process, its
    callers' cyclic garbage stays collectable."""
    code = main()
    gc.freeze()
    return code
