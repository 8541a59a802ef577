"""Batch command-line front end: run a scenario, emit CSV data and a manifest.

Every command resolves its config, runs the owning module, and writes its
outputs atomically together with a manifest JSON. Reruns with identical
config and seed produce byte-identical CSV bodies.
"""

from __future__ import annotations

import argparse
import collections
import hashlib
import itertools
import json
import math
import os
import sys
import tempfile

import numpy as np

from . import __version__
from .liquidation import check_paths, compare_vs_twamm, simulate_policy, value_iteration
# `solve_mean_variance` is unused here, but the benchmark's tracer
# (bench/spans.py) rebinds it in this module.
from .noncomposable import efficient_frontier, mean_variance_sweep, solve_mean_variance
from .routing import NoFeasibleRouteError, RoutingProblem, STATUS_OPTIMAL, solve_curve
from .scenarios import SCENARIOS, pigou_problem
from .serialize import (
    ConfigError,
    hook_scenario_from_dict,
    hook_sweeps_from_dict,
    hook_targets_from_dict,
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


def parse_grid(text):
    """Inclusive start:stop:count sweep syntax."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError(f"grid {text!r} must look like start:stop:count", "grid")
    try:
        start, stop = float(parts[0]), float(parts[1])
        count = int(parts[2])
    except ValueError as exc:
        raise ConfigError(f"grid {text!r}: {exc}", "grid") from exc
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise ConfigError(f"grid {text!r}: start and stop must be finite", "grid")
    if count < 1:
        raise ConfigError("grid count must be at least 1", "grid")
    if stop < start:
        raise ConfigError("grid stop must not precede start", "grid")
    return np.linspace(start, stop, count)


def _fmt(value):
    # Floats first: they fill most cells of the large tables.
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


def csv_rows(rows):
    """CSV text lines of `rows`, one cell per value, read lazily."""
    for row in rows:
        yield ",".join(map(_fmt, row)) + "\n"


def _atomic_write(path, chunks):
    """Write the strings of `chunks` to a temporary file, then move it to `path`."""
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w") as handle:
            handle.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


class RunWriter:
    """Collects output tables for one command and writes them plus a manifest.

    A table's body is CSV text: any iterable of strings, each ending in a
    newline, a generator included (`csv_rows` formats tuples). `write` reads
    it once and streams it to disk below the comment and header lines.
    """

    def __init__(self, command, out_dir, config_record, seed=None):
        self.command = command
        self.out_dir = out_dir
        self.seed = seed
        canonical = json.dumps(
            {"command": command, "config": config_record, "seed": seed},
            sort_keys=True,
            separators=(",", ":"),
        )
        self.config_hash = hashlib.sha256(canonical.encode()).hexdigest()
        self.tables = []  # (name, columns, text)

    def add_table(self, name, columns, text):
        self.tables.append((name, list(columns), text))

    def _csv_lines(self, columns, text):
        yield f"# manifest: {self.config_hash}\n"
        if self.seed is not None:
            yield f"# seed: {self.seed}\n"
        yield ",".join(columns) + "\n"
        yield from text

    def write(self):
        os.makedirs(self.out_dir, exist_ok=True)
        outputs = []
        for name, columns, text in self.tables:
            filename = f"{name}.csv"
            _atomic_write(os.path.join(self.out_dir, filename), self._csv_lines(columns, text))
            outputs.append(filename)
        manifest = {
            "command": self.command,
            "config_hash": self.config_hash,
            "seed": self.seed,
            "version": __version__,
            "outputs": outputs,
        }
        _atomic_write(
            os.path.join(self.out_dir, f"{self.command.replace('-', '_')}_manifest.json"),
            [json.dumps(manifest, sort_keys=True, indent=1) + "\n"],
        )
        return outputs


def _solve_curve_strict(problem, grid):
    solutions = solve_curve(problem, grid)
    bad = [s for s in solutions if s.status != STATUS_OPTIMAL]
    if bad:
        raise SolverFailure(
            f"{len(bad)} of {len(solutions)} routing solves missed the gap tolerance"
        )
    return solutions


def cmd_pigou(args):
    grid = parse_grid(args.grid)
    record = {"grid": args.grid, "with_order": args.with_order}
    writer = RunWriter("pigou", args.out, record)
    if args.with_order:
        sols = _solve_curve_strict(pigou_problem(0.0), grid)
        plain = _solve_curve_strict(pigou_problem(0.0, with_order=False), grid)
        rows = [
            (s, sol.utility_value, base.utility_value)
            for s, sol, base in zip(grid, sols, plain)
        ]
        writer.add_table("pigou_output", ("s", "u", "u_no_order"), csv_rows(rows))
    else:
        sols = _solve_curve_strict(pigou_problem(0.0, with_order=False), grid)
        rows = [(s, sol.utility_value) for s, sol in zip(grid, sols)]
        writer.add_table("pigou_output", ("s", "u"), csv_rows(rows))
    writer.write()
    return EXIT_OK


def _load_problem(spec_text):
    if os.path.exists(spec_text):
        return problem_from_dict(load_json(spec_text))
    if spec_text in SCENARIOS:
        return SCENARIOS[spec_text](0.0)
    raise ConfigError(
        f"problem {spec_text!r} is neither a file nor a built-in scenario", "problem"
    )


def cmd_route(args):
    if args.s is None:
        raise ConfigError("route needs --s", "grid")
    grid = parse_grid(args.s)
    problem = _load_problem(args.problem)
    record = {"problem": problem_to_dict(problem), "grid": args.s}
    writer = RunWriter("route", args.out, record)

    with_orders = _solve_curve_strict(problem, grid)
    stripped = RoutingProblem(problem.n_assets, problem.markets, [], problem.utility)
    without_orders = _solve_curve_strict(stripped, grid)
    writer.add_table(
        "route_output",
        ("s", "u_with_orders", "u_without_orders"),
        csv_rows(
            [
                (s, a.utility_value, b.utility_value)
                for s, a, b in zip(grid, with_orders, without_orders)
            ]
        ),
    )

    trade_rows = []
    for s, sol in zip(grid, with_orders):
        for market_id, ((_, assets), (tendered, received)) in enumerate(
            zip(problem.markets, sol.market_trades)
        ):
            for local, asset in enumerate(assets):
                trade_rows.append((s, market_id, asset, received[local] - tendered[local]))
        for j, (order, trade) in enumerate(zip(problem.orders, sol.order_trades)):
            market_id = len(problem.markets) + j
            trade_rows.append((s, market_id, order.input_asset, -trade.z1))
            trade_rows.append((s, market_id, order.output_asset, trade.z2))
    writer.add_table("route_trades", ("s", "market_id", "asset_id", "amount"), csv_rows(trade_rows))
    writer.write()
    return EXIT_OK


def _dump_times(text, horizon):
    """The blocks that --dump-times names: 'all' or comma-separated indices."""
    if text == "all":
        return range(horizon)
    try:
        times = [int(t) for t in text.split(",")]
    except ValueError as exc:
        raise ConfigError(f"dump times {text!r}: {exc}", "dump-times") from exc
    if any(not 0 <= t < horizon for t in times):
        raise ConfigError("dump time outside the horizon", "dump-times")
    return times


def _check_paths(args, cfg):
    """Refuse --paths before any solve: too few, or too many for memory."""
    try:
        check_paths(args.paths, cfg.horizon)
    except ValueError as exc:
        raise ConfigError(f"--paths: {exc}", "paths") from exc


def cmd_liquidate_solve(args):
    record = load_json(args.config)
    cfg, pool, params, _ = liquidation_config_from_dict(record)
    times = _dump_times(args.dump_times, cfg.horizon)
    writer = RunWriter("liquidate-solve", args.out, record)
    vf, policy = value_iteration(cfg, pool, params)
    # Every cell but t is a float, which `_fmt` writes as its repr.
    fractions = policy.action_fractions.tolist()
    inventory = vf.inventory_grid.tolist()
    prefixes = [[f"{inv!r},{z!r}," for z in vf.mispricing_grid.tolist()] for inv in inventory]
    action_text = [[repr(frac * inv) for frac in fractions] for inv in inventory]
    # Blocks 0 .. stationary repeat block `stationary`, where the DP stopped.
    stationary = cfg.horizon - vf.backups
    blocks = [max(t, stationary) for t in times]
    repeated = {b for b, n in collections.Counter(blocks).items() if n > 1}
    cache = {}

    def block_text(b):
        """Block b's rows without their leading "t,", joined by newlines."""
        lines = []
        for pre_row, act_row, value_row, idx_row in zip(
            prefixes, action_text, vf.values[b].tolist(), policy.action_index[b].tolist()
        ):
            lines += [f"{pre}{value!r},{act_row[idx]}" for pre, value, idx in zip(pre_row, value_row, idx_row)]
        return "\n".join(lines)

    def chunks():
        # Each distinct block is formatted once; only blocks dumped more than
        # once stay cached. A row is "t," plus the block's row text.
        for t, b in zip(times, blocks):
            text = cache[b] if b in cache else block_text(b)
            if b in repeated:
                cache[b] = text
            yield f"{t}," + text.replace("\n", f"\n{t},") + "\n"

    writer.add_table("liquidation_solution", ("t", "I", "z", "value", "action"), chunks())
    writer.write()
    return EXIT_OK


def cmd_liquidate_simulate(args):
    record = load_json(args.config)
    cfg, pool, params, z0 = liquidation_config_from_dict(record)
    _check_paths(args, cfg)
    writer = RunWriter("liquidate-simulate", args.out, record, seed=args.seed)
    _, policy = value_iteration(cfg, pool, params)
    sim = simulate_policy(policy, cfg, pool, params, args.paths, args.seed, z0)
    rows = (
        (p, t, sim.inventory[p, t])
        for p in range(args.paths)
        for t in range(cfg.horizon + 1)
    )
    writer.add_table("inventory_paths", ("path", "t", "inventory"), csv_rows(rows))
    writer.write()
    return EXIT_OK


def cmd_compare_twamm(args):
    record = load_json(args.config)
    cfg, pool, params, z0 = liquidation_config_from_dict(record)
    _check_paths(args, cfg)
    sigma_grid = parse_grid(args.grid)
    writer = RunWriter("compare-twamm", args.out, record, seed=args.seed)
    results = compare_vs_twamm(sigma_grid, cfg, pool, params, args.paths, args.seed, z0)
    writer.add_table("twamm_comparison", ("sigma", "mean_excess", "stderr"), csv_rows(results))
    writer.write()
    return EXIT_OK


def cmd_hook_mean_variance(args):
    record = load_json(args.config)
    scenario = hook_scenario_from_dict(record)
    forms, curvatures, scales = hook_sweeps_from_dict(record)
    writer = RunWriter("hook-mean-variance", args.out, record)
    trades, objectives = mean_variance_sweep(scenario, forms, curvatures, scales)
    points = itertools.product(forms, curvatures, scales)
    rows = [
        (curvature, scale, form, trade, objective)
        for (form, curvature, scale), trade, objective in zip(
            points, trades.ravel().tolist(), objectives.ravel().tolist()
        )
    ]
    writer.add_table(
        "mean_variance",
        ("alpha", "beta", "variance_form", "delta_star", "objective"),
        csv_rows(rows),
    )
    writer.write()
    return EXIT_OK


def cmd_hook_frontier(args):
    record = load_json(args.config)
    scenario = hook_scenario_from_dict(record)
    if args.grid:
        taus = parse_grid(args.grid)
    elif "targets" in record:
        taus = hook_targets_from_dict(record)
    else:
        raise ConfigError("hook-frontier needs --grid or a 'targets' list", "targets")
    writer = RunWriter("hook-frontier", args.out, record)
    points = efficient_frontier(scenario, taus)
    writer.add_table(
        "frontier",
        ("tau", "delta_star", "variance_star", "feasible"),
        csv_rows([(p.target_return, p.hook_trade, p.variance, p.feasible) for p in points]),
    )
    writer.write()
    return EXIT_OK


_GNUPLOT_TEMPLATES = {
    ("s", "u", "u_no_order"): (
        'plot DATA using 1:2 with lines title "with order", '
        'DATA using 1:3 with lines title "without order"'
    ),
    ("s", "u"): 'plot DATA using 1:2 with lines title "output"',
    ("s", "u_with_orders", "u_without_orders"): (
        'plot DATA using 1:2 with lines title "with orders", '
        'DATA using 1:3 with lines title "without orders"'
    ),
    ("s", "market_id", "asset_id", "amount"): (
        'plot DATA using 1:4 with points title "per-market trades"'
    ),
    ("path", "t", "inventory"): 'plot DATA using 2:3 with points title "inventory"',
    ("sigma", "mean_excess", "stderr"): (
        'plot DATA using 1:2:3 with yerrorlines title "excess over uniform split"'
    ),
    ("alpha", "beta", "variance_form", "delta_star", "objective"): (
        'plot DATA using 1:4 with points title "hook trade"'
    ),
    ("tau", "delta_star", "variance_star", "feasible"): (
        'plot DATA using 1:3 with lines title "minimum variance"'
    ),
    ("t", "I", "z", "value", "action"): 'splot DATA using 2:3:4 with points title "value"',
}


def cmd_emit_gnuplot(args):
    path = args.csv
    if not os.path.exists(path):
        raise ConfigError(f"no such CSV: {path}", "csv")
    header = None
    with open(path) as handle:
        for line in handle:
            if not line.startswith("#"):
                header = tuple(line.strip().split(","))
                break
    template = _GNUPLOT_TEMPLATES.get(header)
    if template is None:
        print(f"warning: unrecognized CSV schema {header}, no script written", file=sys.stderr)
        return EXIT_OK
    script = "\n".join(
        [
            "set datafile separator ','",
            f'DATA = "{os.path.abspath(path)}"',
            f"set xlabel '{header[0]}'",
            template,
            "pause -1",
        ]
    )
    out = os.path.splitext(path)[0] + ".gp"
    _atomic_write(out, [script + "\n"])
    print(out)
    return EXIT_OK


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
    flag = p.add_mutually_exclusive_group()
    flag.add_argument("--with-order", dest="with_order", action="store_true", default=True)
    flag.add_argument("--no-order", dest="with_order", action="store_false")
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
    p.add_argument("--grid", help="target sweep start:stop:count")
    common(p)
    p.set_defaults(fn=cmd_hook_frontier)

    p = sub.add_parser("emit-gnuplot", help="write a plotting stub for a CSV")
    p.add_argument("csv")
    p.set_defaults(fn=cmd_emit_gnuplot)

    return parser


def _fail(code, kind, detail, field=""):
    print(json.dumps({"error": kind, "detail": detail, "field": field}, sort_keys=True))
    return code


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        return _fail(EXIT_CONFIG, "config_parse", str(exc), exc.field)
    except ValueError as exc:
        return _fail(EXIT_CONFIG, "config_parse", str(exc))
    except SolverFailure as exc:
        return _fail(EXIT_SOLVER, "solver_nonconvergence", str(exc))
    except NoFeasibleRouteError as exc:
        return _fail(EXIT_INFEASIBLE, "infeasible", str(exc))


if __name__ == "__main__":
    sys.exit(main())
