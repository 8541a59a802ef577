import argparse
import contextlib
import errno
import functools
import hashlib
import importlib.util
import io
import json
import math
import operator
import os
import pathlib
import re
import subprocess
import sys
import tempfile
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hookroute
from hookroute import liquidation, noncomposable, routing
from hookroute.cfmm import (
    GEOMETRIC_MEAN,
    MAX_SOLVE_BYTES,
    PRODUCT,
    SUM,
    FieldError,
    LimitOrder,
    Market,
    NoFeasibleRouteError,
)
from hookroute.cli import _build_parser, _fmt, csv_rows, main, parse_grid, policy_dump, write_run
from hookroute.liquidation import MdpConfig, Policy, check_paths, value_iteration
from hookroute.noncomposable import SWEEP_POINT_BYTES
from hookroute.routing import Liquidate, RoutingProblem
from hookroute.scenarios import SCENARIOS, table1_problem
from hookroute.serialize import (
    hook_config_from_dict,
    liquidation_config_from_dict,
    problem_from_dict,
    problem_to_dict,
)
from test_liquidation import overflowing_draw
from test_routing import rescale_asset, scale_network, without_sum_pools

# The module that owns each solver a command calls. The commands call every
# solver through its owner, so a test replaces a solver there.
SOLVER_OWNERS = {
    "solve_curve": routing,
    "value_iteration": liquidation,
    "simulate_policy": liquidation,
    "compare_vs_twamm": liquidation,
    "mean_variance_sweep": noncomposable,
    "efficient_frontier": noncomposable,
}


def patch_solvers(monkeypatch, fn, *names):
    """Replace each solver of `names`, in the module that owns it, with `fn`."""
    for name in names:
        monkeypatch.setattr(SOLVER_OWNERS[name], name, fn)


def never(*args, **kwargs):
    raise AssertionError("a solver ran")


@pytest.fixture
def refused(tmp_path, capsys, monkeypatch):
    """`refused(argv)` runs `main(argv)` with every solver failing the test if
    called, from then on, checks that it exits 2 with one `config_parse`
    JSON line, and returns that line. An argv without `--out` gets one,
    which must stay empty."""
    out = tmp_path / "refused"

    def run(argv):
        patch_solvers(monkeypatch, never, *SOLVER_OWNERS)
        own_out = "--out" not in argv
        assert main([*argv, "--out", str(out)] if own_out else argv) == 2
        [line] = capsys.readouterr().out.splitlines()
        err = json.loads(line)
        assert err["error"] == "config_parse"
        if own_out:
            assert listed(out) == []
        return err

    return run


LIQ_CONFIG = {
    "mdp": {
        "horizon": 12,
        "inventory": 100.0,
        "gas": 2.0,
        "inventory_cost": 0.1,
        "discount": 0.01,
        "n_inventory": 15,
        "n_mispricing": 15,
        "n_actions": 6,
        "quad_order": 4,
        "dynamics": "multiplicative",
    },
    "pool": {
        "reserve_in": 1e5,
        "reserve_out": 5e8,
        "fee_bound_upper": 0.003,
        "fee_bound_lower": 0.003,
    },
    "mispricing": {"drift": 0.0, "volatility": 1.0, "dt": 1.0},
    "z0": -0.003,
}

# The liquidation config that CI's console-script step writes: a 3-block
# horizon on an 11 x 11 grid with 3 quadrature nodes.
SMALL_LIQ_CONFIG = {
    "mdp": {
        "horizon": 3,
        "inventory": 100.0,
        "gas": 2.0,
        "inventory_cost": 0.1,
        "discount": 0.01,
        "n_inventory": 11,
        "n_mispricing": 11,
        "n_actions": 5,
        "quad_order": 3,
    },
    "pool": LIQ_CONFIG["pool"],
    "mispricing": LIQ_CONFIG["mispricing"],
}

HOOK_CONFIG = {
    "total_trade": 50.0,
    "cpmm_reserves": [100.0, 100.0],
    "hook_reserves": [100.0, 100.0],
    "curvature": 0.2,
    "variance": {"form": "superlinear", "scale": 0.5, "exponent": 1.5},
    "risk_aversion": 1.0,
    "sweeps": {
        "forms": ["constant", "linear", "superlinear", "quadratic"],
        "curvature_values": [0.0, 1.0],
        "scale_values": [0.5, 5.0],
    },
}


def write_json(path, record):
    path.write_text(json.dumps(record))
    return str(path)


def traced_peak(fn, *args):
    """fn(*args), and the peak bytes that tracemalloc traced while it ran."""
    tracemalloc.start()
    try:
        return fn(*args), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def read_rows(path):
    lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
    header = lines[0].split(",")
    return header, [line.split(",") for line in lines[1:]]


def reference_rows(policy, times):
    """The policy dump as it was formatted before blocks were cached: `_fmt` per cell."""
    fractions = policy.action_fractions.tolist()
    for t in times:
        for i, inv in enumerate(policy.inventory_grid.tolist()):
            for j, z in enumerate(policy.mispricing_grid.tolist()):
                value = float(policy.values[t, i, j])
                action = fractions[policy.action_index[t, i, j]] * inv
                yield ",".join(map(_fmt, (t, inv, z, value, action))) + "\n"


def one_market_record(market):
    """A two-asset problem record holding `market`, a market record, alone."""
    return {
        "n_assets": 2,
        "markets": [dict(market, assets=[0, 1])],
        "orders": [],
        "utility": {"liquidate": {"input": 0, "output": 1, "budget": 1}},
    }


def market_record(market):
    """`market`'s record as `problem_to_dict` writes it, in a two-asset problem."""
    return problem_to_dict(RoutingProblem(2, [(market, (0, 1))], [], Liquidate(0, 1, 1.0)))["markets"][0]


class TestSerialize:
    def test_market_round_trip(self):
        markets = [
            Market(PRODUCT, (10, 1), 0.99),
            Market(SUM, (10, 10), 0.99),
            Market(GEOMETRIC_MEAN, (3, 0.2, 1), 0.98, weights=(3, 2, 1)),
        ]
        for market in markets:
            assets = tuple(range(market.n_assets))
            problem = RoutingProblem(3, [(market, assets)], [], Liquidate(0, 1, 1.0))
            assert problem_from_dict(problem_to_dict(problem)).markets == [(market, assets)]

    def test_order_round_trip(self):
        order = LimitOrder(0.5, 40.0, 0, 2)
        problem = RoutingProblem(3, [(Market(PRODUCT, (10, 1), 0.99), (0, 1))], [order], Liquidate(0, 2, 1.0))
        assert problem_from_dict(problem_to_dict(problem)).orders == [order]

    def test_problem_round_trip(self):
        problem = RoutingProblem(
            3,
            [(Market(PRODUCT, (10, 1), 0.99), (0, 1))],
            [LimitOrder(0.5, 40.0, 0, 2)],
            Liquidate(0, 2, 100.0),
        )
        rebuilt = problem_from_dict(problem_to_dict(problem))
        assert problem_to_dict(rebuilt) == problem_to_dict(problem)

    def test_field_names_in_errors(self):
        with pytest.raises(FieldError) as err:
            problem_from_dict(one_market_record({"kind": "product"}))
        assert err.value.field == "markets[0].reserves"
        with pytest.raises(FieldError) as err:
            problem_from_dict(one_market_record({"kind": "product", "reserves": [1, -1]}))
        assert err.value.field == "markets[0]"

    @pytest.mark.parametrize(
        "problem",
        [SCENARIOS[name](1.0) for name in sorted(SCENARIOS)]
        + [
            RoutingProblem(
                4,
                [
                    (Market(GEOMETRIC_MEAN, (3, 0.2, 1), 0.98, weights=(3, 2, 1)), (3, 0, 2)),
                    (Market(SUM, (10, 10), 0.99), (1, 2)),
                ],
                [LimitOrder(0.5, 40.0, 3, 1)],
                Liquidate(3, 1, 7.5),
            )
        ],
        ids=sorted(SCENARIOS) + ["weighted"],
    )
    def test_round_trip_through_the_specs(self, problem):
        record = problem_to_dict(problem)
        assert problem_to_dict(problem_from_dict(record)) == record

    def test_out_of_range_values_refused(self):
        with pytest.raises(FieldError) as err:
            problem_from_dict(one_market_record({"kind": "product", "reserves": [1, 1], "fee": 10**400}))
        assert err.value.field == "markets[0].fee"
        with pytest.raises(FieldError) as err:
            problem_from_dict(one_market_record({"kind": "geometric_mean", "reserves": [], "weights": []}))
        assert err.value.field == "markets[0]"

    def test_weights_left_out_when_absent(self):
        # A route manifest hashes this record, so an absent key must stay absent.
        assert market_record(Market(PRODUCT, (10, 1), 0.99)) == {
            "kind": "product", "reserves": [10.0, 1.0], "fee": 0.99, "assets": [0, 1]
        }
        assert market_record(Market(GEOMETRIC_MEAN, (3, 1), weights=(2, 1)))["weights"] == [2.0, 1.0]


class TestGridSyntax:
    def test_inclusive_endpoints(self):
        grid = parse_grid("0:10:5")
        assert grid[0] == 0.0 and grid[-1] == 10.0 and len(grid) == 5

    def test_bad_grids(self):
        for text in ("0:10", "a:b:c", "0:10:0", "5:1:3", f"0:10:{MAX_SOLVE_BYTES // 8 + 1}"):
            with pytest.raises(FieldError):
                parse_grid(text)


class TestCommands:
    def test_pigou_exit_zero_and_schema(self, tmp_path):
        out = tmp_path / "run"
        assert main(["pigou", "--grid", "0:8:9", "--out", str(out)]) == 0
        header, rows = read_rows(out / "pigou_output.csv")
        assert header == ["s", "u", "u_no_order"]
        assert len(rows) == 9
        manifest = json.loads((out / "pigou_manifest.json").read_text())
        assert manifest["outputs"] == ["pigou_output.csv"]
        first = (out / "pigou_output.csv").read_text().splitlines()[0]
        assert first == f"# manifest: {manifest['config_hash']}"

    def test_route_builtin_and_trades(self, tmp_path):
        out = tmp_path / "run"
        assert main(["route", "--problem", "table1", "--s", "0:500:5", "--out", str(out)]) == 0
        header, rows = read_rows(out / "route_output.csv")
        assert header == ["s", "u_with_orders", "u_without_orders"]
        assert all(float(a) >= float(b) - 1e-6 for _, a, b in rows)
        header, trades = read_rows(out / "route_trades.csv")
        assert header == ["s", "market_id", "asset_id", "amount"]

    def test_route_problem_file(self, tmp_path):
        problem = RoutingProblem(
            2,
            [(Market(PRODUCT, (10, 10), 1.0), (0, 1))],
            [LimitOrder(0.5, 2.0, 0, 1)],
            Liquidate(0, 1, 0.0),
        )
        path = write_json(tmp_path / "problem.json", problem_to_dict(problem))
        assert main(["route", "--problem", path, "--s", "0:5:4", "--out", str(tmp_path / "o")]) == 0

    def test_route_trades_sum_to_psi(self, tmp_path):
        # Every market and order is one `market_id`, orders after the pools:
        # the rows of one budget sum, per asset, to the solution's net trade.
        out = tmp_path / "o"
        assert main(["route", "--problem", "table1", "--s", "0:500:6", "--out", str(out)]) == 0
        problem = SCENARIOS["table1"](0.0)
        budgets = [0.0, 100.0, 500.0]
        psi = {s: sol.psi for s, sol in zip(budgets, routing.solve_curve(problem, budgets))}
        sums = {s: np.zeros(problem.n_assets) for s in budgets}
        ids = set()
        for s, market_id, asset, amount in read_rows(out / "route_trades.csv")[1]:
            if float(s) in sums:
                sums[float(s)][int(asset)] += float(amount)
                ids.add(int(market_id))
        assert ids == set(range(len(problem.markets) + len(problem.orders)))
        u = {float(s): float(u_with) for s, u_with, _ in read_rows(out / "route_output.csv")[1]}
        for s in budgets:
            np.testing.assert_allclose(sums[s], psi[s], rtol=0.0, atol=1e-9)
            assert sums[s][problem.utility.output_asset] == pytest.approx(u[s], rel=0.0, abs=1e-9)

    def test_route_problem_file_at_scale(self, tmp_path):
        # 200 assets and 2000 pools: each budget's Newton step is one 200 x 200 matrix.
        path = write_json(tmp_path / "net.json", problem_to_dict(scale_network(0, 200, 2000)))
        out = tmp_path / "o"
        assert main(["route", "--problem", path, "--s", "0:100:5", "--out", str(out)]) == 0
        header, rows = read_rows(out / "route_output.csv")
        assert header == ["s", "u_with_orders", "u_without_orders"]
        assert [float(row[0]) for row in rows] == [0.0, 25.0, 50.0, 75.0, 100.0]
        assert all(float(u) > 0.0 for row in rows for u in row[1:])
        assert read_rows(out / "route_trades.csv")[1]

    def test_liquidate_solve_dump(self, tmp_path):
        cfg = write_json(tmp_path / "liq.json", LIQ_CONFIG)
        out = tmp_path / "run"
        assert main(["liquidate-solve", "--config", cfg, "--out", str(out)]) == 0
        header, rows = read_rows(out / "liquidation_solution.csv")
        assert header == ["t", "I", "z", "value", "action"]
        assert len(rows) == 15 * 15  # t=0 slice by default

    def test_liquidate_simulate_seed_recorded(self, tmp_path):
        cfg = write_json(tmp_path / "liq.json", LIQ_CONFIG)
        out = tmp_path / "run"
        assert (
            main(
                ["liquidate-simulate", "--config", cfg, "--paths", "3", "--seed", "9", "--out", str(out)]
            )
            == 0
        )
        text = (out / "inventory_paths.csv").read_text().splitlines()
        assert text[1] == "# seed: 9"
        header, rows = read_rows(out / "inventory_paths.csv")
        assert len(rows) == 3 * (LIQ_CONFIG["mdp"]["horizon"] + 1)

    def test_compare_twamm(self, tmp_path):
        cfg = write_json(tmp_path / "liq.json", LIQ_CONFIG)
        out = tmp_path / "run"
        code = main(
            [
                "compare-twamm", "--config", cfg, "--grid", "0:2:2",
                "--paths", "6", "--seed", "3", "--out", str(out),
            ]
        )
        assert code == 0
        header, rows = read_rows(out / "twamm_comparison.csv")
        assert header == ["sigma", "mean_excess", "stderr"]
        assert len(rows) == 2

    @pytest.mark.parametrize("command, options", [("liquidate-simulate", []), ("compare-twamm", ["--grid", "0:2:2"])])
    def test_noise_drawn_once(self, tmp_path, monkeypatch, command, options):
        # The draws are checked before the solve and simulated on: one matrix a run.
        draws = []
        original = liquidation.draw_noise
        monkeypatch.setattr(liquidation, "draw_noise", lambda *args: draws.append(args) or original(*args))
        cfg = write_json(tmp_path / "liq.json", LIQ_CONFIG)
        argv = [command, "--config", cfg, *options, "--paths", "3", "--seed", "5", "--out", str(tmp_path / "run")]
        assert main(argv) == 0
        assert draws == [(3, LIQ_CONFIG["mdp"]["horizon"], 5)]

    def test_hook_commands(self, tmp_path):
        cfg = write_json(tmp_path / "hook.json", HOOK_CONFIG)
        out = tmp_path / "mv"
        assert main(["hook-mean-variance", "--config", cfg, "--out", str(out)]) == 0
        header, rows = read_rows(out / "mean_variance.csv")
        assert header == ["alpha", "beta", "variance_form", "delta_star", "objective"]
        assert len(rows) == 4 * 2 * 2  # forms x curvatures x scales

        out = tmp_path / "fr"
        assert main(["hook-frontier", "--config", cfg, "--grid", "0:40:5", "--out", str(out)]) == 0
        header, rows = read_rows(out / "frontier.csv")
        assert header == ["tau", "delta_star", "variance_star", "feasible"]

    def test_dump_all_times(self, tmp_path):
        cfg = write_json(tmp_path / "liq.json", LIQ_CONFIG)
        out = tmp_path / "run"
        assert main(["liquidate-solve", "--config", cfg, "--dump-times", "all", "--out", str(out)]) == 0
        _, rows = read_rows(out / "liquidation_solution.csv")
        assert len(rows) == LIQ_CONFIG["mdp"]["horizon"] * 15 * 15

    @pytest.mark.parametrize("dump_times", [None, "all", "3,0,3"])
    def test_dump_bytes_match_reference_rows(self, tmp_path, dump_times):
        cfg, pool, params, _ = liquidation_config_from_dict(LIQ_CONFIG)
        policy = value_iteration(cfg, pool, params)
        assert policy.backups < cfg.horizon  # blocks 0 .. horizon - backups repeat
        argv = ["liquidate-solve", "--config", write_json(tmp_path / "liq.json", LIQ_CONFIG)]
        if dump_times is None:
            times = [0]
        else:
            argv += ["--dump-times", dump_times]
            times = range(cfg.horizon) if dump_times == "all" else [3, 0, 3]
        out = tmp_path / "run"
        assert main(argv + ["--out", str(out)]) == 0
        body = (out / "liquidation_solution.csv").read_text().split("\n", 2)[2]  # manifest, header
        assert body == "".join(reference_rows(policy, times))

    @pytest.mark.parametrize("dump_times", ["all", "5,0,5,3,4"])
    def test_partly_changing_blocks_dump_reference_rows(self, tmp_path, dump_times):
        # Additive dynamics at discount 0.99 never reach the fixed point in
        # eight blocks, and each block changes some cells but not all.
        record = {
            **LIQ_CONFIG,
            "mdp": {**LIQ_CONFIG["mdp"], "horizon": 8, "dynamics": "additive", "discount": 0.99},
            "mispricing": {**LIQ_CONFIG["mispricing"], "volatility": 0.002},
        }
        cfg, pool, params, _ = liquidation_config_from_dict(record)
        policy = value_iteration(cfg, pool, params)
        bits = policy.values.reshape(cfg.horizon, -1).view(np.uint64)
        actions = policy.action_index.reshape(cfg.horizon, -1)
        changed = ((bits[1:] != bits[:-1]) | (actions[1:] != actions[:-1])).sum(axis=1)
        assert policy.backups == cfg.horizon
        assert all(0 < n < bits.shape[1] for n in changed)
        out = tmp_path / "run"
        argv = ["liquidate-solve", "--config", write_json(tmp_path / "liq.json", record), "--dump-times", dump_times]
        assert main(argv + ["--out", str(out)]) == 0
        times = range(cfg.horizon) if dump_times == "all" else [5, 0, 5, 3, 4]
        body = (out / "liquidation_solution.csv").read_text().split("\n", 2)[2]  # manifest, header
        assert body == "".join(reference_rows(policy, times))

    @pytest.mark.parametrize("times", [[0, 1, 2, 3], [3, 1, 1, 0, 2]])
    def test_dump_reformats_sign_and_action_changes(self, times):
        # Block 1 flips a value from 0.0 to -0.0, which compare equal as
        # floats; block 3 changes an action and keeps every value.
        inventory, mispricing = np.array([0.0, 50.0]), np.array([-0.003, 0.0, 0.003])
        values = np.array([[[1.5, 0.0, -2.0], [3.0, 4.0, 5.0]]] * 4)
        values[1, 0, 1] = -0.0
        actions = np.zeros(values.shape, dtype=np.int16)
        actions[3, 1, 2] = 1
        fractions = np.array([0.0, 0.5])
        policy = Policy(
            values, actions, fractions, inventory, mispricing, backups=4, operator_entries=0, eliminated_pairs=0
        )
        body = "".join(policy_dump(policy, times))
        assert body == "".join(reference_rows(policy, times))
        assert body.count("-0.0,") == times.count(1)


# One parsable command line per subcommand (the files need not exist).
VALID_ARGVS = [
    ["pigou", "--grid", "0:1:2"],
    ["route", "--problem", "table1", "--s", "0:1:2"],
    ["liquidate-solve", "--config", "c.json"],
    ["liquidate-simulate", "--config", "c.json"],
    ["compare-twamm", "--config", "c.json", "--grid", "0:1:2"],
    ["hook-mean-variance", "--config", "c.json"],
    ["hook-frontier", "--config", "c.json", "--grid", "0:1:2"],
]


ROUTE_PROBLEM = {
    "n_assets": 3,
    "markets": [
        {"kind": "product", "reserves": [10.0, 10.0], "fee": 0.99, "assets": [0, 1]},
        {"kind": "geometric_mean", "reserves": [3.0, 1.0, 2.0], "weights": [1.0, 2.0, 1.0], "assets": [0, 1, 2]},
    ],
    "orders": [{"price": 0.5, "volume": 4.0, "input": 0, "output": 2}],
    "utility": {"liquidate": {"input": 0, "output": 2, "budget": 1.0}},
}


def contract_runs(tmp_path):
    """Each command's options on a small config, and its tables in write order."""
    liq = write_json(tmp_path / "liq.json", LIQ_CONFIG)
    hook = write_json(tmp_path / "hook.json", HOOK_CONFIG)
    return {
        "pigou": (["--grid", "0:2:3"], ["pigou_output"]),
        "route": (["--problem", "table1", "--s", "0:100:3"], ["route_output", "route_trades"]),
        "liquidate-solve": (["--config", liq], ["liquidation_solution"]),
        "liquidate-simulate": (["--config", liq, "--paths", "2"], ["inventory_paths"]),
        "compare-twamm": (["--config", liq, "--grid", "0:1:2", "--paths", "2"], ["twamm_comparison"]),
        "hook-mean-variance": (["--config", hook], ["mean_variance"]),
        "hook-frontier": (["--config", hook, "--grid", "0:40:3"], ["frontier"]),
    }


def listed(directory):
    return sorted(os.listdir(directory)) if directory.exists() else []


class TestRunContract:
    """What a run leaves in --out: its CSVs and a manifest naming them, or nothing."""

    @pytest.mark.parametrize("command", [argv[0] for argv in VALID_ARGVS])
    def test_manifest_lists_the_csvs_in_table_order(self, tmp_path, command):
        runs = contract_runs(tmp_path)
        [subparsers] = [a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
        assert set(runs) == set(subparsers.choices)
        options, tables = runs[command]
        out = tmp_path / "run"
        assert main([command, *options, "--out", str(out)]) == 0
        manifest_name = f"{command.replace('-', '_')}_manifest.json"
        manifest = json.loads((out / manifest_name).read_text())
        assert manifest["command"] == command
        assert manifest["outputs"] == [f"{table}.csv" for table in tables]
        assert listed(out) == sorted(manifest["outputs"] + [manifest_name])
        for name in manifest["outputs"]:
            first = (out / name).read_text().split("\n", 1)[0]
            assert first == f"# manifest: {manifest['config_hash']}"

    @pytest.mark.parametrize(
        "command, code",
        [(argv[0], 2) for argv in VALID_ARGVS] + [("pigou", 3), ("route", 3), ("route", 4)],
    )
    def test_failed_run_writes_nothing(self, tmp_path, capsys, monkeypatch, command, code):
        options, _ = contract_runs(tmp_path)[command]
        if code == 2:
            bad = write_json(tmp_path / "bad.json", 5)
            options = [bad if o.endswith(".json") else o for o in options]
            options = [o.replace(":3", ":0") if command in ("pigou", "route") else o for o in options]
        elif code == 3:
            original = routing.solve_curve

            def stalled(problem, grid):
                solutions = original(problem, grid)
                for sol in solutions:
                    sol.status = "max_iter"
                return solutions

            patch_solvers(monkeypatch, stalled, "solve_curve")
        else:
            no_route = dict(ROUTE_PROBLEM, n_assets=4, utility={"liquidate": {"input": 0, "output": 3, "budget": 1.0}})
            options = ["--problem", write_json(tmp_path / "p.json", no_route), "--s", "0:1:3"]
        out = tmp_path / "run"
        assert main([command, *options, "--out", str(out)]) == code
        assert json.loads(capsys.readouterr().out)["error"]
        assert listed(out) == []

    @pytest.mark.parametrize("failing", [1, 2, 3])
    def test_failed_write_leaves_nothing(self, tmp_path, capsys, monkeypatch, failing):
        # The disk fills while route writes its first table, its second or
        # its manifest: the files already written must not be left either.
        real_fdopen, opened = os.fdopen, []

        def full(chunks):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        def fdopen(fd, *args, **kwargs):
            handle = real_fdopen(fd, *args, **kwargs)
            opened.append(handle)
            if len(opened) == failing:
                handle.writelines = full
            return handle

        monkeypatch.setattr(os, "fdopen", fdopen)
        options, _ = contract_runs(tmp_path)["route"]
        out = tmp_path / "run"
        assert main(["route", *options, "--out", str(out)]) == 2
        [line] = capsys.readouterr().out.splitlines()
        err = json.loads(line)
        assert (err["error"], err["field"]) == ("config_parse", "out")
        assert len(opened) == failing
        assert listed(out) == []

    @pytest.mark.parametrize("command", [argv[0] for argv in VALID_ARGVS])
    def test_bare_value_error_is_exit_2(self, tmp_path, capsys, monkeypatch, command):
        # Every ValueError a command raises exits 2 by one clause of `main`,
        # naming the `field` of a `FieldError` and none for a bare one.
        for error, field in ((ValueError("bare"), ""), (FieldError("bare", "mdp"), "mdp")):

            def raising(*args, **kwargs):
                raise error

            patch_solvers(monkeypatch, raising, *SOLVER_OWNERS)
            options, _ = contract_runs(tmp_path)[command]
            out = tmp_path / "run"
            assert main([command, *options, "--out", str(out)]) == 2
            [line] = capsys.readouterr().out.splitlines()
            assert json.loads(line) == {"error": "config_parse", "detail": "bare", "field": field}
            assert listed(out) == []

    @pytest.mark.parametrize("command", ["pigou", "route"])
    def test_no_feasible_route_is_exit_4(self, tmp_path, capsys, monkeypatch, command):
        def no_route(problem, grid):
            raise NoFeasibleRouteError("no route")

        patch_solvers(monkeypatch, no_route, "solve_curve")
        options, _ = contract_runs(tmp_path)[command]
        out = tmp_path / "run"
        assert main([command, *options, "--out", str(out)]) == 4
        [line] = capsys.readouterr().out.splitlines()
        assert json.loads(line) == {"error": "infeasible", "detail": "no route", "field": ""}
        assert listed(out) == []

    @pytest.mark.parametrize("command", [argv[0] for argv in VALID_ARGVS])
    def test_out_at_an_existing_file_is_exit_2(self, tmp_path, refused, command):
        # Refused before the command runs: no solver may be called.
        options, _ = contract_runs(tmp_path)[command]
        taken = tmp_path / "taken"
        taken.write_text("kept\n")
        before = listed(tmp_path)
        assert refused([command, *options, "--out", str(taken)])["field"] == "out"
        assert taken.read_text() == "kept\n"
        assert listed(tmp_path) == before

    @pytest.mark.parametrize(
        "out, code, solves",
        [("taken/sub", 2, 0), ("taken/sub/deeper", 2, 0), ("", 2, 0), ("new/sub", 0, 2)],
    )
    def test_out_checked_at_its_nearest_existing_ancestor(self, tmp_path, capsys, monkeypatch, out, code, solves):
        # `os.makedirs` can make neither the empty path nor one beneath a
        # file: such an --out is refused before pigou's first solve, while
        # a relative path whose ancestors do not exist yet is made.
        calls = []
        original = routing.solve_curve

        def counted(problem, grid):
            calls.append(len(grid))
            return original(problem, grid)

        patch_solvers(monkeypatch, counted, "solve_curve")
        monkeypatch.chdir(tmp_path)
        (tmp_path / "taken").write_text("kept\n")
        assert main(["pigou", "--grid", "0:1:3", "--out", out]) == code
        assert len(calls) == solves
        if code == 2:
            err = json.loads(capsys.readouterr().out)
            assert (err["error"], err["field"]) == ("config_parse", "out")
            assert listed(tmp_path) == ["taken"]
        else:
            assert listed(tmp_path / out) == ["pigou_manifest.json", "pigou_output.csv"]


class TestErrorContracts:
    def test_malformed_json_is_exit_2(self, tmp_path, refused):
        bad = tmp_path / "bad.json"
        bad.write_text('{"mdp": nope}')
        assert refused(["liquidate-solve", "--config", str(bad)])["field"] == "line 1 column 9"

    def test_missing_field_named(self, tmp_path, refused):
        cfg = {k: v for k, v in LIQ_CONFIG.items() if k != "pool"}
        err = refused(["liquidate-solve", "--config", write_json(tmp_path / "liq.json", cfg)])
        assert err["field"] == "pool"
        assert "missing" in err["detail"]

    def test_infeasible_is_exit_4(self, tmp_path, capsys):
        record = {
            "n_assets": 3,
            "markets": [],
            "orders": [{"price": 0.5, "volume": 1.0, "input": 0, "output": 1}],
            "utility": {"liquidate": {"input": 0, "output": 2, "budget": 1.0}},
        }
        path = write_json(tmp_path / "p.json", record)
        assert main(["route", "--problem", path, "--s", "1:2:2", "--out", str(tmp_path)]) == 4
        assert json.loads(capsys.readouterr().out)["error"] == "infeasible"

    def test_infeasible_zero_budget_is_exit_4(self, tmp_path, capsys):
        # A zero budget is solved like any other, so a network with no route
        # is refused at it too.
        record = dict(ROUTE_PROBLEM, n_assets=4, utility={"liquidate": {"input": 0, "output": 3, "budget": 1.0}})
        path = write_json(tmp_path / "p.json", record)
        assert main(["route", "--problem", path, "--s", "0:0:1", "--out", str(tmp_path)]) == 4
        assert json.loads(capsys.readouterr().out)["error"] == "infeasible"

    def test_oversized_grid_refused_before_solving(self, tmp_path, refused):
        record = json.loads(json.dumps(LIQ_CONFIG))
        record["mdp"]["n_mispricing"] = 10**9
        err = refused(["liquidate-solve", "--config", write_json(tmp_path / "liq.json", record)])
        assert err["field"] == "mdp"
        assert "budget" in err["detail"]

    @pytest.mark.parametrize(
        "command, path, value, field",
        [
            ("route", ("n_assets",), True, "n_assets"),
            ("route", ("orders", 0, "input"), False, "orders[0].input"),
            ("route", ("orders", 0, "output"), True, "orders[0].output"),
            ("route", ("utility", "liquidate", "input"), False, "utility.liquidate.input"),
            ("route", ("utility", "liquidate", "output"), True, "utility.liquidate.output"),
        ]
        + [
            ("liquidate-solve", ("mdp", key), True, f"mdp.{key}")
            for key in ("horizon", "n_inventory", "n_mispricing", "n_actions", "quad_order")
        ],
    )
    def test_boolean_integers_refused_before_solving(self, tmp_path, refused, command, path, value, field):
        base = ROUTE_PROBLEM if command == "route" else LIQ_CONFIG
        config = write_json(tmp_path / "config.json", with_fault(base, path, value))
        argv = [command, "--problem" if command == "route" else "--config", config]
        err = refused(argv + (["--s", "0:1:2"] if command == "route" else []))
        assert err["field"] == field
        assert "integer" in err["detail"]

    @pytest.mark.parametrize("key, value", [("z_bounds", [-0.1, 0.1]), ("n_mispricng", 51)])
    def test_unknown_mdp_keys_refused_before_solving(self, tmp_path, refused, key, value):
        config = write_json(tmp_path / "liq.json", with_fault(LIQ_CONFIG, ("mdp", key), value))
        err = refused(["liquidate-solve", "--config", config])
        assert err["field"] == f"mdp.{key}"
        assert repr(key) in err["detail"]

    def test_mdp_defaults_come_from_the_dataclass(self):
        required = {"horizon": 12, "inventory": 100.0, "gas": 2.0, "inventory_cost": 0.1, "discount": 0.01}
        cfg, _, _, _ = liquidation_config_from_dict(dict(LIQ_CONFIG, mdp=required))
        assert cfg == MdpConfig(**required)
        cfg, _, _, _ = liquidation_config_from_dict(LIQ_CONFIG)
        assert cfg == MdpConfig(**LIQ_CONFIG["mdp"])

    @pytest.mark.parametrize("command", ["liquidate-simulate", "compare-twamm"])
    def test_oversized_paths_refused_before_solving(self, tmp_path, refused, command):
        # Three float arrays of paths x (horizon + 1) just pass the budget.
        paths = MAX_SOLVE_BYTES // (3 * 8 * (LIQ_CONFIG["mdp"]["horizon"] + 1)) + 1
        config = write_json(tmp_path / "liq.json", LIQ_CONFIG)
        argv = [command, "--config", config, "--paths", str(paths)]
        err = refused(argv + (["--grid", "0:1:2"] if command == "compare-twamm" else []))
        assert err["field"] == "paths"
        assert "budget" in err["detail"]
        check_paths(paths - 1, LIQ_CONFIG["mdp"]["horizon"])

    def test_unknown_scenario_exit_2(self, refused):
        assert refused(["route", "--problem", "tableX", "--s", "0:1:2"])["field"] == "problem"

    @pytest.mark.parametrize(
        "argv, removed",
        [(argv, ["--format", "csv"]) for argv in VALID_ARGVS]
        + [
            ([], ["emit-gnuplot", "x.csv"]),
            (["route", "--problem", "table1"], ["--grid", "0:1:2"]),
            (["pigou", "--grid", "0:1:2"], ["--no-order"]),
        ],
        ids=lambda v: " ".join(v),
    )
    def test_removed_options_refused_by_parser(self, argv, removed):
        if argv:
            _build_parser().parse_args(argv)
        with pytest.raises(SystemExit) as exc:
            _build_parser().parse_args(argv + removed)
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "case, field",
        [
            ("frontier_targets_key", "targets"),
            ("missing_config", "config"),
            ("config_is_a_directory", "config"),
            ("problem_is_a_directory", "problem"),
            ("config_not_utf8", "config"),
            ("problem_not_utf8", "problem"),
            ("markets_not_a_list", "markets"),
            ("huge_n_assets", "n_assets"),
            ("negative_budget", "grid"),
            ("negative_budget_spaced", "grid"),
            ("negative_pigou_budget", "grid"),
            ("negative_pigou_budget_spaced", "grid"),
            ("huge_route_grid", "grid"),
            ("huge_frontier_grid", "grid"),
            ("huge_pigou_grid", "grid"),
            ("frontier_grid_over_target_charge", "grid"),
            ("malformed_grid_before_missing_problem", "grid"),
            ("huge_grid_before_missing_problem", "grid"),
        ],
    )
    def test_refusal_is_exit_2(self, tmp_path, refused, case, field):
        hook = write_json(tmp_path / "hook.json", HOOK_CONFIG)
        targets = write_json(tmp_path / "targets.json", dict(HOOK_CONFIG, targets=[10.0]))
        problem = write_json(tmp_path / "problem.json", dict(ROUTE_PROBLEM, markets=5))
        wide = write_json(tmp_path / "wide.json", dict(ROUTE_PROBLEM, n_assets=10**9))
        missing = str(tmp_path / "missing.json")
        not_utf8 = tmp_path / "not_utf8.json"
        not_utf8.write_bytes(b"\xff\xfe{}")
        argv = {
            "frontier_targets_key": ["hook-frontier", "--config", targets, "--grid", "0:70:3"],
            "missing_config": ["liquidate-solve", "--config", str(tmp_path / "missing.json")],
            "config_is_a_directory": ["hook-mean-variance", "--config", str(tmp_path)],
            "problem_is_a_directory": ["route", "--problem", str(tmp_path), "--s", "0:1:2"],
            "config_not_utf8": ["hook-frontier", "--config", str(not_utf8), "--grid", "0:1:2"],
            "problem_not_utf8": ["route", "--problem", str(not_utf8), "--s", "0:1:2"],
            "markets_not_a_list": ["route", "--problem", problem, "--s", "0:1:2"],
            "huge_n_assets": ["route", "--problem", wide, "--s", "0:1:3"],
            "negative_budget": ["route", "--problem", "table1", "--s=-1:1:3"],
            "negative_budget_spaced": ["route", "--problem", "table1", "--s", "-1:1:3"],
            "negative_pigou_budget": ["pigou", "--grid=-1:1:3"],
            "negative_pigou_budget_spaced": ["pigou", "--grid", "-1:1:3"],
            # Grids whose float array alone would pass MAX_SOLVE_BYTES.
            "huge_route_grid": ["route", "--problem", "table1", "--s", "0:1:100000000000"],
            "huge_frontier_grid": ["hook-frontier", "--config", hook, "--grid", "0:70:100000000000"],
            "huge_pigou_grid": ["pigou", "--grid", "0:1:100000000000"],
            # Just past the budget at SWEEP_POINT_BYTES a target.
            "frontier_grid_over_target_charge": ["hook-frontier", "--config", hook, "--grid", "0:70:4000000"],
            # --s is checked before the problem is read.
            "malformed_grid_before_missing_problem": ["route", "--problem", missing, "--s", "0:1"],
            "huge_grid_before_missing_problem": ["route", "--problem", missing, "--s", "0:1:100000000000"],
        }[case]
        assert refused(argv)["field"] == field

    @pytest.mark.parametrize(
        "command, problem, grid",
        [
            ("pigou", None, "0:20:200000"),
            ("pigou", None, "0:1:10000000"),
            ("route", "table1", "0:500:200000"),
            ("route", "table1", "0:1:10000000"),
            ("route", "200/2000", "0:100:5000"),
        ],
    )
    def test_grid_whose_solutions_would_not_fit_refused_before_solving(
        self, tmp_path, refused, command, problem, grid
    ):
        argv = [command]
        loaded = 0
        if command == "pigou":
            argv += ["--grid", grid]
        else:
            if problem == "200/2000":
                problem = write_json(tmp_path / "net.json", problem_to_dict(scale_network(0, 200, 2000)))
                # What reading the file holds, which the refusal may hold too.
                text = (tmp_path / "net.json").read_text()
                _, loaded = traced_peak(lambda: problem_from_dict(json.loads(text)))
            argv += ["--problem", problem, "--s", grid]
        err, peak = traced_peak(refused, argv)
        assert err["field"] == "grid"
        assert "budget" in err["detail"]
        # The grid is refused before it is allocated (8 B a budget).
        assert peak < loaded + 1e6

    @pytest.mark.parametrize(
        "case, field",
        [
            ("mdp", "mdp"),
            ("simulate_paths", "paths"),
            ("compare_paths", "paths"),
            ("sweeps", "sweeps"),
            ("n_assets", "n_assets"),
            ("pigou_grid", "grid"),
            ("route_grid", "grid"),
            ("frontier_grid", "grid"),
            ("volatility_grid", "grid"),
        ],
    )
    def test_budget_has_one_owner(self, tmp_path, refused, monkeypatch, case, field):
        # With the budget lowered in `cfmm` alone, each budgeted input is
        # refused with its usual field; every other input fits the 1 MB.
        from hookroute import cfmm

        monkeypatch.setattr(cfmm, "MAX_SOLVE_BYTES", 10**6)
        liq = write_json(tmp_path / "liq.json", LIQ_CONFIG)
        hook = write_json(tmp_path / "hook.json", HOOK_CONFIG)
        big_mdp = json.loads(json.dumps(LIQ_CONFIG))
        big_mdp["mdp"]["n_mispricing"] = 45  # about 1.3 MB
        sweeps = {"forms": ["linear"], "curvature_values": [0.5] * 100, "scale_values": [1.0] * 100}
        sweep = write_json(tmp_path / "sweep.json", dict(HOOK_CONFIG, sweeps=sweeps))
        wide = write_json(tmp_path / "wide.json", dict(ROUTE_PROBLEM, n_assets=300))
        argv = {
            "mdp": ["liquidate-solve", "--config", write_json(tmp_path / "big.json", big_mdp)],
            "simulate_paths": ["liquidate-simulate", "--config", liq, "--paths", "10000"],
            "compare_paths": ["compare-twamm", "--config", liq, "--grid", "0:1:2", "--paths", "10000"],
            "sweeps": ["hook-mean-variance", "--config", sweep],
            "n_assets": ["route", "--problem", wide, "--s", "0:1:2"],
            "pigou_grid": ["pigou", "--grid", "0:1:1000"],
            "route_grid": ["route", "--problem", "table1", "--s", "0:1:1000"],
            "frontier_grid": ["hook-frontier", "--config", hook, "--grid", "0:70:5000"],
            "volatility_grid": ["compare-twamm", "--config", liq, "--grid", "0:1:200000"],
        }[case]
        err = refused(argv)
        assert err["field"] == field
        assert "budget" in err["detail"]

    def test_frontier_grid_may_start_below_zero(self, tmp_path):
        hook = write_json(tmp_path / "hook.json", HOOK_CONFIG)
        assert main(["hook-frontier", "--config", hook, "--grid", "-5:70:3", "--out", str(tmp_path)]) == 0
        _, rows = read_rows(tmp_path / "frontier.csv")
        assert [row[0] for row in rows] == ["-5.0", "32.5", "70.0"]
        assert rows[0] == ["-5.0", "0.0", "0.0", "true"]

    def test_route_without_budget_sweep_is_exit_2(self, refused):
        assert refused(["route", "--problem", "table1"])["field"] == "grid"

    def test_nonconvergence_is_exit_3(self, tmp_path, capsys, monkeypatch):
        original = routing.solve_curve

        def stalled(problem, grid):
            solutions = original(problem, grid)
            for sol in solutions:
                sol.status = "max_iter"
            return solutions

        patch_solvers(monkeypatch, stalled, "solve_curve")
        assert main(["pigou", "--grid", "0:2:3", "--out", str(tmp_path)]) == 3
        assert json.loads(capsys.readouterr().out)["error"] == "solver_nonconvergence"

    def test_tiny_unit_output_is_exit_3(self, tmp_path, capsys):
        # table1 without its sum pool, its output asset counted in units of
        # 1e12: u / f is 1.44, 101.06 and 112.08 at these budgets, and a
        # certificate floored at one unit once passed 0, 60 and 60.
        problem = rescale_asset(without_sum_pools(table1_problem(0.0)), 2, 1e-12)
        path = write_json(tmp_path / "tiny.json", problem_to_dict(problem))
        out = tmp_path / "run"
        assert main(["route", "--problem", path, "--s", "0:500:3", "--out", str(out)]) == 3
        err = json.loads(capsys.readouterr().out)
        assert err["error"] == "solver_nonconvergence"
        assert listed(out) == []

    @pytest.mark.parametrize(
        "command, record, field",
        [
            (command, 5, "")
            for command in ("route", "liquidate-solve", "hook-mean-variance", "hook-frontier")
        ]
        + [
            ("route", {**ROUTE_PROBLEM, "markets": [5]}, "markets[0]"),
            ("route", {**ROUTE_PROBLEM, "orders": ["x"]}, "orders[0]"),
            pytest.param(
                "route",
                {**ROUTE_PROBLEM, "markets": [dict(ROUTE_PROBLEM["markets"][0], assets=[0, "b"])]},
                "markets[0].assets",
                id="route-record6-markets[0]",
            ),
            pytest.param(
                "route",
                {**ROUTE_PROBLEM, "markets": [dict(ROUTE_PROBLEM["markets"][0], assets=[0, True])]},
                "markets[0].assets",
                id="route-record7-markets[0]",
            ),
            pytest.param(
                "route",
                {**ROUTE_PROBLEM, "markets": [dict(ROUTE_PROBLEM["markets"][0], reserves=[None, 1.0])]},
                "markets[0].reserves",
                id="route-record8-markets[0]",
            ),
            pytest.param(
                "route",
                {**ROUTE_PROBLEM, "markets": [dict(ROUTE_PROBLEM["markets"][1], weights=[[1], 1, 1])]},
                "markets[0].weights",
                id="route-record9-markets[0]",
            ),
            ("liquidate-solve", "mdp pool mispricing", ""),
            ("liquidate-simulate", ["mdp"], ""),
            ("compare-twamm", {**LIQ_CONFIG, "mdp": "horizon"}, "mdp"),
            ("hook-mean-variance", {**HOOK_CONFIG, "variance": ["form"]}, "variance"),
        ],
    )
    def test_non_object_entries_are_exit_2(self, tmp_path, refused, command, record, field):
        path = write_json(tmp_path / "config.json", record)
        argv = [command, "--problem" if command == "route" else "--config", path]
        argv += {"route": ["--s", "0:1:2"], "compare-twamm": ["--grid", "0:1:2"], "hook-frontier": ["--grid", "0:1:2"]}.get(
            command, []
        )
        assert refused(argv)["field"] == field

    @pytest.mark.parametrize(
        "argv, field",
        [
            (["liquidate-solve", "--dump-times", "x"], "dump-times"),
            (["liquidate-solve", "--dump-times", "0,12"], "dump-times"),
            (["liquidate-simulate", "--paths", "0"], "paths"),
            (["compare-twamm", "--grid", "0:1:2", "--paths", "-3"], "paths"),
            (["compare-twamm", "--grid=-1:1:3"], "grid"),
            (["compare-twamm", "--grid", "-1:1:3"], "grid"),
            (["compare-twamm", "--grid", "0:8:100000000000"], "grid"),
            (["liquidate-simulate", "--seed", "-1"], "seed"),
            (["compare-twamm", "--grid", "0:1:2", "--seed", "-1"], "seed"),
        ],
    )
    def test_bad_options_named_before_solving(self, tmp_path, refused, argv, field):
        config = write_json(tmp_path / "liq.json", LIQ_CONFIG)
        assert refused(argv + ["--config", config])["field"] == field


class TestUnknownKeys:
    """Every record kind refuses a key it does not declare, before any solve or
    search, and names it by its own path."""

    # (command, steps to the record, the unknown key, the record's name in
    # the test id)
    CASES = [
        ("route", (), "extra", "extra"),
        ("route", ("markets", 0), "fees", "markets[0]"),
        ("route", ("orders", 0), "prise", "orders[0]"),
        ("route", ("utility",), "maximize", "utility"),
        ("route", ("utility", "liquidate"), "budjet", "utility.liquidate"),
        ("liquidate-solve", (), "zo", "zo"),
        ("liquidate-solve", ("mdp",), "z_bounds", "mdp"),
        ("liquidate-solve", ("pool",), "external_prise", "pool"),
        # The pool's price is reserve_out / reserve_in; the key that once set it is gone.
        ("liquidate-solve", ("pool",), "external_price", "pool"),
        ("liquidate-solve", ("mispricing",), "volatilty", "mispricing"),
        ("hook-mean-variance", (), "sweep", "sweep"),
        ("hook-mean-variance", ("variance",), "exponnent", "variance"),
        ("hook-mean-variance", ("sweeps",), "curvatures", "sweeps"),
    ]

    @pytest.mark.parametrize(
        "command, path, key",
        [case[:3] for case in CASES],
        ids=[f"{command}-{'.'.join(map(str, path))}-{key}-{name}" for command, path, key, name in CASES],
    )
    def test_unknown_key_refused_before_solving(self, tmp_path, refused, command, path, key):
        base = {"route": ROUTE_PROBLEM, "liquidate-solve": LIQ_CONFIG}.get(command, HOOK_CONFIG)
        config = write_json(tmp_path / "config.json", with_fault(base, (*path, key), 1.0))
        argv = [command, "--problem" if command == "route" else "--config", config]
        err = refused(argv + (["--s", "1:1:1"] if command == "route" else []))
        assert err["field"] == key_path((*path, key))
        assert repr(key) in err["detail"]

    def test_hook_frontier_refuses_a_misspelt_key(self, tmp_path, refused):
        path = write_json(tmp_path / "hook.json", dict(HOOK_CONFIG, target=[10.0]))
        err = refused(["hook-frontier", "--config", path, "--grid", "0:70:3"])
        assert err["field"] == "target"
        assert "'target'" in err["detail"]


# Keys that a record may leave out.
OPTIONAL_KEYS = {
    "markets", "orders", "fee", "weights", "z0", "dynamics", "n_inventory", "n_mispricing",
    "n_actions", "quad_order", "exponent", "sweeps", "forms", "curvature_values", "scale_values",
}
# By the type of a leaf's value: the word its refusal uses, the values of
# another JSON type, and the numbers that are no finite float.
LEAF_FAULTS = {
    int: ("integer", [True, 1.0, "1", None, [], {}, math.nan, math.inf]),
    float: ("finite number", [True, "1", None, [], {}, math.nan, math.inf, -math.inf, 10**400]),
    str: ("string", [1, True, None, [], {}]),
}
DROP = object()


def key_path(steps):
    """`steps`, JSON keys and list indices, as a refusal names them: `markets[0].reserves`."""
    return "".join(f"[{step}]" if isinstance(step, int) else f".{step}" for step in steps).lstrip(".")


def config_faults(node, steps=()):
    """Each single fault of the JSON `node` at `steps` that reading a config
    refuses, as (steps, value, field, word): the value at `steps` becomes
    `value`, or is dropped for DROP, and the refusal names `field` and says
    `word`.

    A leaf takes every value of another JSON type and every non-finite
    number, and so does an entry of a list of leaves, which names the list.
    A list or a record is replaced by each value of another JSON type; a
    record also gains an unknown key and loses each required key in turn.
    """
    field = key_path(steps)
    if isinstance(node, dict):
        for value in (5, "x", None, [], True):
            yield steps, value, field, "JSON object"
        yield steps + ("extra",), 1.0, key_path(steps + ("extra",)), "'extra'"
        for key, value in node.items():
            if key not in OPTIONAL_KEYS:
                yield steps + (key,), DROP, key_path(steps + (key,)), "missing"
            yield from config_faults(value, steps + (key,))
    elif isinstance(node, list):
        for value in (5, "x", None, {}, True):
            yield steps, value, field, "list"
        for i, entry in enumerate(node):
            if isinstance(entry, dict):
                yield from config_faults(entry, steps + (i,))
            else:
                yield from ((steps + (i,), value, field, "list") for value in LEAF_FAULTS[type(entry)][1])
    else:
        word, values = LEAF_FAULTS[type(node)]
        yield from ((steps, value, field, word) for value in values)


def with_fault(record, steps, value):
    """A copy of `record` with the value at `steps` set to `value`, or dropped for DROP."""
    if not steps:
        return value
    record = json.loads(json.dumps(record))
    *parents, last = steps
    target = functools.reduce(operator.getitem, parents, record)
    if value is DROP:
        del target[last]
    else:
        target[last] = value
    return record


class TestConfigRefusals:
    """Reading a config refuses every fault by the path of the key at fault, before any solve or search."""

    # Each command that reads a config: its base config and its other options.
    RUNS = {
        "route": (ROUTE_PROBLEM, ["--s", "0:1:2"]),
        "liquidate-solve": (LIQ_CONFIG, []),
        "liquidate-simulate": (LIQ_CONFIG, []),
        "compare-twamm": (LIQ_CONFIG, ["--grid", "0:1:2"]),
        "hook-mean-variance": (HOOK_CONFIG, []),
        "hook-frontier": (HOOK_CONFIG, ["--grid", "0:40:5"]),
    }

    @pytest.mark.parametrize("command", RUNS)
    def test_every_fault_names_its_key(self, tmp_path, refused, command):
        base, options = self.RUNS[command]
        config = tmp_path / "config.json"
        argv = [command, "--problem" if command == "route" else "--config", str(config), *options]
        faults = list(config_faults(base))
        for steps, value, field, word in faults:
            write_json(config, with_fault(base, steps, value))
            err = refused(argv)
            fault = (key_path(steps), value, err)
            assert err["field"] == field, fault
            assert word in err["detail"] and field.rpartition(".")[2] in err["detail"], fault
        assert len(faults) > 150  # 193 to 285 on these configs

    TABLE1 = problem_to_dict(SCENARIOS["table1"](1.0))

    @pytest.mark.parametrize(
        "command, base, steps, value, field",
        [
            ("hook-mean-variance", HOOK_CONFIG, ("total_trade",), 0, "total_trade"),
            ("hook-mean-variance", HOOK_CONFIG, ("curvature",), -1, "curvature"),
            ("hook-mean-variance", HOOK_CONFIG, ("hook_reserves", 0), 0, "hook_reserves"),
            ("hook-frontier", HOOK_CONFIG, ("cpmm_reserves", 1), -1e308, "cpmm_reserves"),
            ("hook-frontier", HOOK_CONFIG, ("risk_aversion",), -1e308, "risk_aversion"),
            # Finite reserves whose product or ratio is not: these runs once
            # wrote non-finite cells or warned.
            ("hook-mean-variance", HOOK_CONFIG, ("cpmm_reserves", 0), 1e308, "cpmm_reserves"),
            ("hook-frontier", HOOK_CONFIG, ("cpmm_reserves", 0), 1e308, "cpmm_reserves"),
            ("hook-mean-variance", HOOK_CONFIG, ("cpmm_reserves", 1), 1e308, "cpmm_reserves"),
            ("hook-frontier", HOOK_CONFIG, ("cpmm_reserves", 1), 1e308, "cpmm_reserves"),
            ("hook-mean-variance", HOOK_CONFIG, ("hook_reserves", 0), 5e-324, "hook_reserves"),
            ("hook-frontier", HOOK_CONFIG, ("hook_reserves", 0), 5e-324, "hook_reserves"),
            ("hook-mean-variance", HOOK_CONFIG, ("hook_reserves", 1), 1e308, "hook_reserves"),
            # Finite values whose objective is not: these runs once warned.
            ("hook-mean-variance", HOOK_CONFIG, ("total_trade",), 1e308, "total_trade"),
            ("hook-frontier", HOOK_CONFIG, ("total_trade",), 1e308, "total_trade"),
            ("hook-mean-variance", HOOK_CONFIG, ("risk_aversion",), 1e308, "risk_aversion"),
            ("hook-mean-variance", HOOK_CONFIG, ("sweeps", "scale_values", 0), 1e308, "sweeps"),
            ("hook-mean-variance", HOOK_CONFIG, ("sweeps", "scale_values", 1), 1e308, "sweeps"),
            ("route", TABLE1, ("markets", 1, "assets"), [0, 7], "markets[1].assets"),
            ("route", TABLE1, ("markets", 1, "assets"), [0, 0], "markets[1].assets"),
            ("route", TABLE1, ("orders", 1, "output"), 3, "orders[1].output"),
            ("route", TABLE1, ("utility", "liquidate", "input"), -1, "utility.liquidate.input"),
        ],
    )
    def test_top_level_range_check_names_its_key(self, tmp_path, refused, command, base, steps, value, field):
        config = write_json(tmp_path / "config.json", with_fault(base, steps, value))
        options = {"route": ["--s", "0:1:2"], "hook-frontier": ["--grid", "0:40:5"]}.get(command, [])
        argv = [command, "--problem" if command == "route" else "--config", config, *options]
        assert refused(argv)["field"] == field


def float_leaves(node, steps=()):
    """The steps to every float leaf of the JSON `node`."""
    if isinstance(node, float):
        yield steps
    elif isinstance(node, (dict, list)):
        for key, value in node.items() if isinstance(node, dict) else enumerate(node):
            yield from float_leaves(value, steps + (key,))


def check_run(code, printed, out, base, case):
    """Check a `main` run on a config made from `base`, which returned `code`,
    printed `printed` and wrote to `out`: an exit 2 prints one line naming
    an option or a key of `base`, and an exit 0 writes finite numbers only,
    but for the trade and variance of a frontier row flagged infeasible,
    which are NaN."""
    if code == 2:
        [line] = printed.splitlines()
        field = json.loads(line)["field"]
        assert re.split(r"[.\[]", field)[0] in (*base, "paths", "grid"), (case, field)
    if code != 0:
        return
    for table in out.glob("*.csv"):
        header, rows = read_rows(table)
        for row in rows:
            cells = dict(zip(header, row))
            if cells.get("feasible") == "false":
                del cells["delta_star"], cells["variance_star"]
            numbers = [cell for cell in cells.values() if cell not in (*noncomposable.FORMS, "true", "false")]
            assert all(math.isfinite(float(cell)) for cell in numbers), (case, table.name, row)


class TestExtremeValues:
    """Every float leaf of the liquidation and hook configs at 1e308, -1e308
    or 5e-324 is solved with finite numbers only, or refused naming a key or
    an option; the suite's warnings are errors, so an overflow fails too."""

    LIQUIDATION_RUNS = [
        ["liquidate-solve", "--dump-times", "all"],
        ["liquidate-simulate", "--paths", "3"],
        ["compare-twamm", "--grid", "0:1:2", "--paths", "3"],
    ]
    HOOK_RUNS = [["hook-mean-variance"], ["hook-frontier", "--grid", "0:40:5"]]

    def walk(self, tmp_path, capsys, base, runs):
        """Run each of `runs` on `base` with each float leaf at each
        extreme in turn; return the number of runs."""
        config = tmp_path / "config.json"
        cases = 0
        for steps in float_leaves(base):
            for value in (1e308, -1e308, 5e-324):
                write_json(config, with_fault(base, steps, value))
                for command, *options in runs:
                    case = (key_path(steps), value, command)
                    out = tmp_path / f"run{cases}"
                    cases += 1
                    code = main([command, "--config", str(config), *options, "--out", str(out)])
                    assert code in (0, 2), case
                    check_run(code, capsys.readouterr().out, out, base, case)
        return cases

    def test_liquidation_config_walk(self, tmp_path, capsys):
        assert self.walk(tmp_path, capsys, LIQ_CONFIG, self.LIQUIDATION_RUNS) == 12 * 3 * 3

    def test_hook_config_walk(self, tmp_path, capsys):
        # total_trade, risk_aversion and sweeps.scale_values at 1e308 once
        # overflowed the objective.
        assert self.walk(tmp_path, capsys, HOOK_CONFIG, self.HOOK_RUNS) == 13 * 3 * 2


def json_leaves(node, steps=()):
    """The steps to every leaf of the JSON `node`, and to every key of its
    records, as (leaf steps, key steps)."""
    leaves, keys = [], []
    if isinstance(node, (dict, list)):
        for key, value in node.items() if isinstance(node, dict) else enumerate(node):
            if isinstance(key, str):
                keys.append(steps + (key,))
            more_leaves, more_keys = json_leaves(value, steps + (key,))
            leaves += more_leaves
            keys += more_keys
    else:
        leaves.append(steps)
    return leaves, keys


FUZZ_VALUES = [0, -1, 1e308, -1e308, 5e-324, -0.0, 2**70, "x", None, True, [], {}]


@st.composite
def mutated(draw, base):
    """`base` with 1-3 leaves set to a value of FUZZ_VALUES, or keys dropped."""
    leaves, keys = json_leaves(base)
    fault = st.one_of(
        st.tuples(st.sampled_from(leaves), st.sampled_from(FUZZ_VALUES)),
        st.tuples(st.sampled_from(keys), st.just(DROP)),
    )
    record = base
    for steps, value in draw(st.lists(fault, min_size=1, max_size=3)):
        try:
            record = with_fault(record, steps, value)
        except KeyError:  # under a key that an earlier fault dropped
            pass
    return record


class TestConfigFuzz:
    """A config with 1-3 leaves set to a hostile value, or keys dropped, is
    solved with finite numbers only, refused naming an option or a key, or
    ends in exit 3 or 4, and no warning is raised."""

    # CI's small liquidation config, with every optional key present.
    LIQUIDATION = dict(SMALL_LIQ_CONFIG, mdp=dict(SMALL_LIQ_CONFIG["mdp"], dynamics="multiplicative"), z0=-0.003)

    def run(self, base, record, argv):
        with tempfile.TemporaryDirectory() as directory, warnings.catch_warnings():
            warnings.simplefilter("error")
            config = write_json(pathlib.Path(directory) / "config.json", record)
            out = pathlib.Path(directory) / "run"
            printed = io.StringIO()
            with contextlib.redirect_stdout(printed):
                code = main([argv[0], "--config", config, *argv[1:], "--out", str(out)])
            case = (record, argv)
            assert code in (0, 2, 3, 4), case
            check_run(code, printed.getvalue(), out, base, case)

    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(mutated(LIQUIDATION), st.sampled_from(TestExtremeValues.LIQUIDATION_RUNS))
    def test_liquidation_config_reader(self, record, argv):
        self.run(self.LIQUIDATION, record, argv)

    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(mutated(HOOK_CONFIG), st.sampled_from(TestExtremeValues.HOOK_RUNS))
    def test_hook_config_reader(self, record, argv):
        self.run(HOOK_CONFIG, record, argv)


class TestNonFiniteInputs:
    """Non-finite grids, and configs whose derived quantities overflow, are
    refused with the field named before any solve; a search ends on any
    finite scenario."""

    @pytest.mark.parametrize(
        "command, grid",
        [
            ("pigou", "nan:1:3"),
            ("route", "0:inf:3"),
            ("hook-frontier", "0:1e400:3"),
            ("compare-twamm", "0:inf:2"),
        ],
    )
    def test_nonfinite_grid_refused_before_solving(self, tmp_path, refused, command, grid):
        argv = [command]
        if command == "route":
            argv += ["--problem", "table1", "--s", grid]
        else:
            argv += ["--grid", grid]
        if command in ("hook-frontier", "compare-twamm"):
            record = HOOK_CONFIG if command == "hook-frontier" else LIQ_CONFIG
            argv += ["--config", write_json(tmp_path / "config.json", record)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert refused(argv)["field"] == "grid"

    @pytest.mark.parametrize(
        "path, value, field",
        [
            pytest.param(("markets", 0, "reserves", 1), math.nan, "markets[0].reserves", id="path0-nan-markets[0]"),
            pytest.param(("markets", 0, "reserves", 0), math.inf, "markets[0].reserves", id="path1-inf-markets[0]"),
            pytest.param(("markets", 1, "weights", 2), math.nan, "markets[1].weights", id="path2-nan-markets[1]"),
            pytest.param(("markets", 1, "reserves", 2), -math.inf, "markets[1].reserves", id="path3--inf-markets[1]"),
            pytest.param(("orders", 0, "volume"), math.inf, "orders[0].volume", id="path4-inf-orders[0]"),
            pytest.param(("orders", 0, "price"), math.nan, "orders[0].price", id="path5-nan-orders[0]"),
            pytest.param(("n_assets",), 10**9, "n_assets", id="path6-1000000000-n_assets"),
            # Finite, but a full fill would tender volume / price = inf.
            pytest.param(("orders", 0, "volume"), 1e308, "orders[0]", id="volume-1e308-orders[0]"),
            pytest.param(("orders", 0, "price"), 5e-324, "orders[0]", id="price-5e-324-orders[0]"),
            # A constant-sum pool routes as two orders that tender reserve /
            # fee in full; the market is named, not the solve size they reach.
            pytest.param(
                ("markets",),
                [*ROUTE_PROBLEM["markets"], {"kind": "sum", "reserves": [1e308, 1.0], "fee": 0.5, "assets": [1, 2]}],
                "markets[2]",
                id="sum-reserve-1e308-markets[2]",
            ),
            pytest.param(
                ("markets",),
                [*ROUTE_PROBLEM["markets"], {"kind": "sum", "reserves": [10.0, 10.0], "fee": 5e-324, "assets": [1, 2]}],
                "markets[2]",
                id="sum-fee-5e-324-markets[2]",
            ),
        ],
    )
    def test_route_problem_refused_before_solving(self, tmp_path, refused, path, value, field):
        problem = write_json(tmp_path / "problem.json", with_fault(ROUTE_PROBLEM, path, value))
        assert refused(["route", "--problem", problem, "--s", "0:1:3"])["field"] == field

    def test_zero_volume_order_routes(self, tmp_path):
        record = json.loads(json.dumps(ROUTE_PROBLEM))
        record["orders"][0]["volume"] = 0.0
        problem = write_json(tmp_path / "problem.json", record)
        assert main(["route", "--problem", problem, "--s", "0:1:3", "--out", str(tmp_path)]) == 0

    # (section, key, value): each names the key at fault by its path.
    NONFINITE_LIQUIDATION = [
        ("mispricing", "drift", math.nan),
        ("mispricing", "volatility", math.inf),
        ("mispricing", "dt", math.nan),
        ("mdp", "gas", math.inf),
        ("mdp", "inventory", math.nan),
        ("mdp", "inventory_cost", math.inf),
        ("pool", "reserve_in", math.inf),
        ("pool", "fee_bound_lower", math.nan),
        (None, "z0", math.nan),
        (None, "z0", -math.inf),
    ]

    @pytest.mark.parametrize(
        "section, key, value",
        NONFINITE_LIQUIDATION,
        ids=[f"{section}-{key}-{value}-{section or key}" for section, key, value in NONFINITE_LIQUIDATION],
    )
    @pytest.mark.parametrize("command", ["liquidate-solve", "liquidate-simulate", "compare-twamm"])
    def test_liquidation_config_refused_before_solving(self, tmp_path, refused, command, section, key, value):
        steps = (section, key) if section else (key,)
        config = write_json(tmp_path / "liq.json", with_fault(LIQ_CONFIG, steps, value))
        argv = [command, "--config", config] + (["--grid", "0:1:2"] if command == "compare-twamm" else [])
        err = refused(argv)
        assert err["field"] == key_path(steps)
        assert "finite number" in err["detail"]

    @pytest.mark.parametrize(
        "section, key, value, field",
        [
            ("mispricing", "drift", 710, "mispricing"),
            ("mispricing", "volatility", 1e308, "mispricing"),
            ("pool", "reserve_out", 1e308, "pool"),
            ("pool", "fee_bound_upper", 1e9, "pool"),
            ("pool", "reserve_in", 5e-324, "pool"),
            ("pool", "fee_bound_lower", 710, "pool"),
        ],
    )
    def test_overflowing_liquidation_config_refused(self, tmp_path, monkeypatch, section, key, value, field):
        # In a process of its own, with warnings as errors: each of these once
        # crashed the solve, ended in a traceback or wrote non-finite values.
        battery = load_by_path(monkeypatch, "reproduce", os.path.join(REPO, "scripts", "reproduce.py"))
        record = json.loads(json.dumps(battery.LIQUIDATION_CONFIG))
        record[section][key] = value
        config = write_json(tmp_path / "liq.json", record)
        result = python_run(tmp_path, "-W", "error", "-m", "hookroute", "liquidate-solve", "--config", config, "--out", "run")
        assert (result.returncode, result.stderr) == (2, ""), result.stderr[-2000:]
        [line] = result.stdout.splitlines()
        assert (json.loads(line)["error"], json.loads(line)["field"]) == ("config_parse", field)
        assert listed(tmp_path / "run") == []

    def test_swept_volatility_refused_before_any_solve(self, tmp_path, capsys, monkeypatch):
        # The config's own volatility passed when it was read; the sweep's
        # 1e200 overflows the next mispricing and names --grid.
        solves = []
        original = liquidation.value_iteration
        patch_solvers(monkeypatch, lambda *args: solves.append(args) or original(*args), "value_iteration")
        config = write_json(tmp_path / "liq.json", LIQ_CONFIG)
        out = tmp_path / "run"
        argv = ["compare-twamm", "--config", config, "--grid", "0:1e200:2", "--paths", "3", "--out", str(out)]
        assert main(argv) == 2
        err = json.loads(capsys.readouterr().out)
        assert (err["error"], err["field"]) == ("config_parse", "grid")
        assert "1e+200" in err["detail"]
        assert solves == []
        assert listed(out) == []

    @pytest.mark.parametrize(
        "config, drift, volatility, paths, seed",
        [
            ("tests", 705.0, 2.0, 200, 1),
            ("ci", 707.5, 1.0, 5000, 0),
            ("ci", 707.5, 1.0, 5000, 1),
            ("ci", 707.5, 1.0, 5000, 2),
        ],
    )
    def test_simulated_draws_cannot_overflow_the_mispricing(self, tmp_path, refused, config, drift, volatility, paths, seed):
        # The solve's outer quadrature nodes keep the next mispricing finite,
        # so it runs; the simulator's draws lie past them and once overflowed
        # it, ending in an IndexError in `Policy.sale`. The draws are checked
        # before the solve, so no solver runs.
        base = LIQ_CONFIG if config == "tests" else SMALL_LIQ_CONFIG
        params = liquidation.MispricingParams(drift, volatility, base["mispricing"]["dt"])
        assert liquidation.draw_noise(paths, base["mdp"]["horizon"], seed).max() > overflowing_draw(params)
        record = dict(base, mispricing=dict(base["mispricing"], drift=drift, volatility=volatility), z0=0.0)
        path = write_json(tmp_path / "liq.json", record)
        assert main(["liquidate-solve", "--config", path, "--out", str(tmp_path / "solved")]) == 0
        argv = ["liquidate-simulate", "--config", path, "--paths", str(paths), "--seed", str(seed)]
        assert refused(argv)["field"] == "mispricing"

    @pytest.mark.parametrize(
        "change, argv",
        [
            ({"total_trade": 1e7}, ["hook-mean-variance"]),
            ({"total_trade": 1e9, "hook_reserves": [1e12, 1]}, ["hook-frontier", "--grid", "1e9:1.9e9:5"]),
        ],
    )
    def test_search_ends_where_floats_are_sparse(self, tmp_path, change, argv):
        # Near 1e7 floats lie 1.9e-9 apart, so no bracket there narrows to
        # 1e-9; each search once ran without end.
        config = write_json(tmp_path / "hook.json", dict(HOOK_CONFIG, **change))
        command = ["-W", "error", "-m", "hookroute", *argv, "--config", config, "--out", "run"]
        result = python_run(tmp_path, *command, timeout=60)
        assert (result.returncode, result.stderr) == (0, "")
        _, rows = read_rows(tmp_path / "run" / ("frontier.csv" if argv[0] == "hook-frontier" else "mean_variance.csv"))
        numbers = [float(cell) for row in rows for cell in row if cell not in (*noncomposable.FORMS, "true", "false")]
        assert rows and all(math.isfinite(x) for x in numbers)

    def test_big_integer_reserves_read_as_floats(self, tmp_path, monkeypatch, refused):
        battery = load_by_path(monkeypatch, "reproduce", os.path.join(REPO, "scripts", "reproduce.py"))
        bodies = []
        for reserves in ([100, 2**70], [100, 1.1805916207174113e21]):
            config = write_json(tmp_path / "hook.json", dict(battery.HOOK_CONFIG, cpmm_reserves=reserves))
            out = tmp_path / str(len(bodies))
            assert main(["hook-mean-variance", "--config", config, "--out", str(out)]) == 0
            bodies.append((out / "mean_variance.csv").read_text().split("\n", 1)[1])  # past the manifest line
        assert bodies[0] == bodies[1]
        config = write_json(tmp_path / "huge.json", dict(battery.HOOK_CONFIG, cpmm_reserves=[100, 10**400]))
        assert refused(["hook-mean-variance", "--config", config])["field"] == "cpmm_reserves"


class TestHookSweeps:
    # Each bad `sweeps` value and the field its refusal names.
    BAD_SWEEPS = [
        ([1, 2], "sweeps"),
        ({"forms": []}, "sweeps.forms"),
        ({"forms": ["linear", "cubic"]}, "sweeps"),
        ({"forms": [3]}, "sweeps.forms"),
        ({"curvature_values": [0.0, 1.5]}, "sweeps"),
        ({"curvature_values": ["0.5"]}, "sweeps.curvature_values"),
        ({"curvature_values": [True]}, "sweeps.curvature_values"),
        ({"scale_values": [1.0, -0.5]}, "sweeps"),
        ({"scale_values": []}, "sweeps.scale_values"),
        ({"scale_values": 1.0}, "sweeps.scale_values"),
        ({"scale_values": [math.inf]}, "sweeps.scale_values"),
        ({"curvatures": [0.5]}, "sweeps.curvatures"),
        (5, "sweeps"),
        # 4 forms x 1000 x 1000 points at SWEEP_POINT_BYTES pass MAX_SOLVE_BYTES.
        ({"curvature_values": [0.5] * 1000, "scale_values": [1.0] * 1000}, "sweeps"),
    ]

    @pytest.mark.parametrize(
        "sweeps, field",
        BAD_SWEEPS,
        # pytest's own ids for the `sweeps` values alone.
        ids=[str(sweeps) if isinstance(sweeps, int) else f"sweeps{i}" for i, (sweeps, _) in enumerate(BAD_SWEEPS)],
    )
    @pytest.mark.parametrize("command", ["hook-mean-variance", "hook-frontier"])
    def test_bad_sweeps_refused_before_searching(self, tmp_path, refused, command, sweeps, field):
        path = write_json(tmp_path / "hook.json", dict(HOOK_CONFIG, sweeps=sweeps))
        argv = [command, "--config", path] + (["--grid", "0:40:5"] if command == "hook-frontier" else [])
        assert refused(argv)["field"] == field

    @pytest.mark.parametrize(
        "command, shape",
        [
            ("hook-mean-variance", (1, 200, 200)),
            ("hook-mean-variance", (1, 1, 40000)),
            ("hook-mean-variance", (4, 100, 100)),
            ("hook-frontier", (5000,)),
        ],
        ids=["1-200-200", "1-1-40000", "4-100-100", "frontier-5000"],
    )
    def test_traced_peak_within_sweep_charge(self, tmp_path, command, shape):
        # A run's traced peak, config lists and rows included, stays within
        # SWEEP_POINT_BYTES per (form, curvature, scale) point of a sweep,
        # or per target of a frontier.
        if command == "hook-frontier":
            record, grid = HOOK_CONFIG, ["--grid", f"0:70:{shape[0]}"]
        else:
            forms, curvatures, scales = shape
            sweeps = {
                "forms": ["linear", "quadratic", "superlinear", "constant"][:forms],
                "curvature_values": np.linspace(0.0, 1.0, curvatures).tolist(),
                "scale_values": np.logspace(-3, 3, scales).tolist(),
            }
            record, grid = dict(HOOK_CONFIG, sweeps=sweeps), []
        argv = [command, "--config", write_json(tmp_path / "hook.json", record)] + grid
        assert main(argv + ["--out", str(tmp_path / "warm")]) == 0
        code, peak = traced_peak(main, argv + ["--out", str(tmp_path / "run")])
        assert code == 0
        assert peak <= math.prod(shape) * SWEEP_POINT_BYTES

    @pytest.mark.parametrize(
        "change, field",
        [
            ({"total_trade": math.inf}, "total_trade"),
            ({"total_trade": math.nan}, "total_trade"),
            ({"curvature": math.nan}, "curvature"),
            ({"risk_aversion": math.nan}, "risk_aversion"),
            ({"cpmm_reserves": [math.inf, 100.0]}, "cpmm_reserves"),
            ({"hook_reserves": [100.0, "1"]}, "hook_reserves"),
            ({"variance": {"form": "linear", "scale": math.nan}}, "variance.scale"),
            ({"variance": {"form": "linear", "scale": math.inf}}, "variance.scale"),
            ({"variance": {"form": "superlinear", "scale": 1.0, "exponent": math.nan}}, "variance.exponent"),
        ],
    )
    @pytest.mark.parametrize("command", ["hook-mean-variance", "hook-frontier"])
    def test_nonfinite_scenario_refused_before_searching(self, tmp_path, refused, command, change, field):
        path = write_json(tmp_path / "hook.json", dict(HOOK_CONFIG, **change))
        argv = [command, "--config", path] + (["--grid", "0:40:5"] if command == "hook-frontier" else [])
        assert refused(argv)["field"] == field

    @pytest.mark.parametrize("targets", [[10, 20.5], 5, [], ["a", 3], [True, 3.0], [1.0, math.inf], [math.nan]])
    def test_targets_key_refused_before_searching(self, tmp_path, refused, targets):
        # The frontier's targets come from --grid alone; a `targets` key is unknown.
        path = write_json(tmp_path / "hook.json", dict(HOOK_CONFIG, targets=targets))
        err = refused(["hook-frontier", "--config", path, "--grid", "0:70:3"])
        assert err["field"] == "targets"
        assert "unknown keys ['targets']" in err["detail"]

    def test_frontier_needs_grid(self, tmp_path):
        path = write_json(tmp_path / "hook.json", HOOK_CONFIG)
        with pytest.raises(SystemExit) as exc:
            main(["hook-frontier", "--config", path, "--out", str(tmp_path)])
        assert exc.value.code == 2

    def test_defaults_and_row_order(self, tmp_path):
        record = {k: v for k, v in HOOK_CONFIG.items() if k != "sweeps"}
        record["sweeps"] = {"forms": ["linear", "constant"], "curvature_values": [0, 0.5]}
        path = write_json(tmp_path / "hook.json", record)
        assert main(["hook-mean-variance", "--config", path, "--out", str(tmp_path)]) == 0
        _, rows = read_rows(tmp_path / "mean_variance.csv")
        scales = [repr(float(b)) for b in np.logspace(-3, 3, 25)]
        expected = [
            [alpha, beta, form]
            for form in ("linear", "constant")
            for alpha in ("0", "0.5")
            for beta in scales
        ]
        assert [row[:3] for row in rows] == expected


def python_run(tmp_path, *args, timeout=None):
    """A Python process on `args`, importing this checkout's hookroute, in `tmp_path`."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(hookroute.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, *args], env=env, cwd=tmp_path, capture_output=True, text=True, timeout=timeout)


class TestImportPath:
    """scipy and concurrent.futures are imported only inside the solvers that
    call them, each command loads only its own problem family, numpy's f2py,
    testing and ma stay unloaded until first used, and `main` in process
    leaves the garbage collector unfrozen."""

    # The probe lists each loaded module that is, or lies in, one of `watch`.
    PROBE = (
        "import gc, json, sys\n"
        "from hookroute.cli import main\n"
        "watch = json.loads(sys.argv[2])\n"
        "loaded = lambda: sorted(m for m in sys.modules if any(m == w or m.startswith(w + '.') for w in watch))\n"
        "report = {'import': loaded(), 'runs': []}\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    report['runs'].append((main(argv), loaded()))\n"
        "report['frozen'] = gc.get_freeze_count()\n"
        "print(json.dumps(report))\n"
    )
    FAMILIES = ("hookroute.routing", "hookroute.scenarios", "hookroute.liquidation", "hookroute.noncomposable")
    # numpy.ma is what `np.unique` would import.
    WATCH = ("scipy", "concurrent", "numpy.ma", *FAMILIES)
    # A module of each of numpy's f2py, testing and ma that only running the
    # package loads; scipy.sparse's import names the packages but runs none.
    UNUSED_NUMPY = ("numpy.f2py.crackfortran", "numpy.testing._private.utils", "numpy.ma.core")

    def probe(self, tmp_path, *argvs, watch=WATCH):
        result = python_run(tmp_path, "-c", self.PROBE, json.dumps(argvs), json.dumps(watch))
        assert result.returncode == 0, result.stderr
        report = json.loads(result.stdout.splitlines()[-1])
        assert report.pop("frozen") == 0
        return report

    def test_cli_import_and_hook_commands_load_no_scipy(self, tmp_path):
        cfg = write_json(tmp_path / "hook.json", HOOK_CONFIG)
        report = self.probe(
            tmp_path,
            ["hook-mean-variance", "--config", cfg, "--out", "mv"],
            ["hook-frontier", "--config", cfg, "--grid", "0:40:5", "--out", "fr"],
        )
        assert report["import"] == []
        assert report["runs"] == [[0, ["hookroute.noncomposable"]]] * 2

    def test_routing_commands_load_no_scipy(self, tmp_path):
        problem = write_json(tmp_path / "problem.json", ROUTE_PROBLEM)
        report = self.probe(
            tmp_path,
            ["pigou", "--grid", "0:8:5", "--out", "pigou"],
            ["route", "--problem", "table1", "--s", "0:500:3", "--out", "table1"],
            ["route", "--problem", problem, "--s", "0:2:3", "--out", "file"],
        )
        assert report["runs"] == [[0, ["hookroute.routing", "hookroute.scenarios"]]] * 3

    def test_liquidation_loads_no_optimizer(self, tmp_path):
        cfg = write_json(tmp_path / "liq.json", LIQ_CONFIG)
        report = self.probe(tmp_path, ["liquidate-solve", "--config", cfg, "--out", "solve"])
        [(code, loaded)] = report["runs"]
        assert code == 0
        # Besides scipy's own infrastructure (private modules, version data),
        # the one subpackage loaded is scipy.sparse; the solve's workers load
        # concurrent.futures.
        assert "concurrent.futures" in loaded
        public = {
            m.split(".")[1] for m in loaded if m.startswith("scipy.") and not m.split(".")[1].startswith("_")
        }
        assert public == {"sparse", "version"} or public == {"sparse"}

    def test_liquidation_commands_load_liquidation_alone(self, tmp_path):
        cfg = write_json(tmp_path / "liq.json", LIQ_CONFIG)
        report = self.probe(
            tmp_path,
            ["liquidate-solve", "--config", cfg, "--out", "solve"],
            ["liquidate-simulate", "--config", cfg, "--paths", "3", "--out", "simulate"],
            ["compare-twamm", "--config", cfg, "--grid", "0:1:2", "--paths", "3", "--out", "twamm"],
            watch=(*self.FAMILIES, *self.UNUSED_NUMPY),
        )
        assert report["runs"] == [[0, ["hookroute.liquidation"]]] * 3

    def test_numpy_module_imported_before_a_solve_is_kept(self, tmp_path):
        cfg = write_json(tmp_path / "liq.json", LIQ_CONFIG)
        script = (
            "import sys, numpy.testing\n"
            "from hookroute.cli import main\n"
            "before = sys.modules['numpy.testing']\n"
            "assert main(['liquidate-solve', '--config', sys.argv[1], '--out', 'solve']) == 0\n"
            "assert sys.modules['numpy.testing'] is before and numpy.testing is before\n"
        )
        result = python_run(tmp_path, "-c", script, cfg)
        assert result.returncode == 0, result.stderr

    def test_lazy_numpy_modules_load_on_first_use(self, tmp_path):
        # Four threads make their first solve at once, under frequent thread
        # switches; each of the three modules is then registered once, is the
        # one numpy holds, and runs when first used.
        script = (
            "import sys, threading\n"
            "import numpy as np\n"
            "from hookroute.liquidation import MdpConfig, MispricingParams, PoolParams, value_iteration\n"
            "cfg = MdpConfig(horizon=2, inventory=10.0, gas=0.1, inventory_cost=0.01, discount=1.0,\n"
            "                n_inventory=5, n_mispricing=5, n_actions=3, quad_order=3)\n"
            "pool, params = PoolParams(1e5, 5e8, 0.003, 0.003), MispricingParams(0.0, 1.0, 1.0)\n"
            "start = threading.Barrier(4)\n"
            "solves = []\n"
            "def solve():\n"
            "    start.wait()\n"
            "    solves.append(value_iteration(cfg, pool, params).values.tobytes())\n"
            "sys.setswitchinterval(1e-6)\n"
            "threads = [threading.Thread(target=solve) for _ in range(4)]\n"
            "for thread in threads:\n"
            "    thread.start()\n"
            "for thread in threads:\n"
            "    thread.join(60)\n"
            "assert not any(thread.is_alive() for thread in threads)\n"
            "assert len(solves) == 4 and len(set(solves)) == 1\n"
            "for name in ('f2py', 'testing', 'ma'):\n"
            "    assert sys.modules['numpy.' + name] is getattr(np, name)\n"
            "assert 'numpy.ma.core' not in sys.modules\n"
            "assert np.ma.masked_array([1, 2], mask=[0, 1]).sum() == 1\n"
            "np.testing.assert_array_equal(np.arange(3), [0, 1, 2])\n"
            "try:\n"
            "    np.testing.assert_array_equal([1], [2])\n"
            "except AssertionError:\n"
            "    pass\n"
            "else:\n"
            "    raise SystemExit('assert_array_equal passed unequal arrays')\n"
            "from numpy.f2py import crackfortran\n"
            "assert sys.modules['numpy.f2py.crackfortran'] is crackfortran\n"
        )
        result = python_run(tmp_path, "-c", script)
        assert result.returncode == 0, result.stderr

    def test_traced_solvers_resolve_on_cli(self):
        # The benchmark's tracer (bench/spans.py) reads and rebinds these
        # names on hookroute.cli; each resolves to its owner's function.
        import hookroute.cli as cli_mod

        traced = {
            routing: ("solve_curve",),
            liquidation: ("value_iteration", "simulate_policy", "compare_vs_twamm"),
            noncomposable: ("solve_mean_variance", "efficient_frontier"),
        }
        for owner, names in traced.items():
            for name in names:
                assert getattr(cli_mod, name) is getattr(owner, name)
        with pytest.raises(AttributeError):
            getattr(cli_mod, "no_such_solver")


class TestProcessEntry:
    """`python -m hookroute` runs `main` in its own process, with the same
    files, exit codes and stdout lines as `main` called in process."""

    def test_liquidate_solve_writes_the_in_process_bytes(self, tmp_path):
        cfg = write_json(tmp_path / "liq.json", LIQ_CONFIG)
        argv = ["liquidate-solve", "--config", cfg, "--dump-times", "all"]
        result = python_run(tmp_path, "-m", "hookroute", *argv, "--out", "process")
        assert (result.returncode, result.stdout, result.stderr) == (0, "", "")
        assert main([*argv, "--out", str(tmp_path / "in_process")]) == 0
        for name in ("liquidation_solution.csv", "liquidate_solve_manifest.json"):
            assert (tmp_path / "process" / name).read_bytes() == (tmp_path / "in_process" / name).read_bytes()

    def test_unknown_problem_is_exit_2(self, tmp_path):
        result = python_run(tmp_path, "-m", "hookroute", "route", "--problem", "nosuch", "--s", "0:1:2")
        assert result.returncode == 2
        [line] = result.stdout.splitlines()
        assert json.loads(line)["field"] == "problem"

    def test_infeasible_is_exit_4(self, tmp_path):
        record = dict(ROUTE_PROBLEM, n_assets=4, utility={"liquidate": {"input": 0, "output": 3, "budget": 1.0}})
        path = write_json(tmp_path / "p.json", record)
        result = python_run(tmp_path, "-m", "hookroute", "route", "--problem", path, "--s", "0:1:2")
        assert result.returncode == 4
        [line] = result.stdout.splitlines()
        assert json.loads(line)["error"] == "infeasible"


class TestDeterminism:
    def test_seeded_commands_byte_identical(self, tmp_path):
        cfg = write_json(tmp_path / "liq.json", LIQ_CONFIG)
        hook = write_json(tmp_path / "hook.json", HOOK_CONFIG)
        runs = [
            (["pigou", "--grid", "0:6:7"], "pigou_output.csv"),
            (["route", "--problem", "table1", "--s", "0:120:4"], "route_output.csv"),
            (["route", "--problem", "table1", "--s", "0:120:4"], "route_trades.csv"),
            (
                ["liquidate-simulate", "--config", cfg, "--paths", "4", "--seed", "5"],
                "inventory_paths.csv",
            ),
            (
                ["compare-twamm", "--config", cfg, "--grid", "0:2:2", "--paths", "5", "--seed", "5"],
                "twamm_comparison.csv",
            ),
            (["hook-mean-variance", "--config", hook], "mean_variance.csv"),
            (["hook-frontier", "--config", hook, "--grid", "0:30:4"], "frontier.csv"),
        ]
        for argv, filename in runs:
            a, b = tmp_path / "a", tmp_path / "b"
            assert main(argv + ["--out", str(a)]) == 0
            assert main(argv + ["--out", str(b)]) == 0
            assert (a / filename).read_bytes() == (b / filename).read_bytes(), filename

    def test_numpy_and_python_cells_write_alike(self):
        python_row = (0.1, -0.0, float("nan"), 1e300, 0.5, 3, True, False, "n")
        numpy_row = (
            np.float64(0.1), np.float64(-0.0), np.float64("nan"), np.float64(1e300), np.float32(0.5),
            np.int64(3), np.bool_(True), np.bool_(False), np.str_("n"),
        )
        expected = "0.1,-0.0,nan,1e+300,0.5,3,true,false,n\n"
        assert list(csv_rows([python_row, numpy_row])) == [expected, expected]
        assert ",".join(map(_fmt, numpy_row)) + "\n" == expected

    def test_csv_layout(self, tmp_path):
        args = argparse.Namespace(command="demo", out=str(tmp_path), seed=3)
        rows = ((i, i / 4, i > 0, "n") for i in range(2))
        write_run(args, {"a": 1}, [("t", ("i", "x", "flag", "name"), csv_rows(rows))])
        config_hash = hashlib.sha256(b'{"command":"demo","config":{"a":1},"seed":3}').hexdigest()
        assert (tmp_path / "t.csv").read_text() == (
            f"# manifest: {config_hash}\n# seed: 3\n"
            "i,x,flag,name\n0,0.0,false,n\n1,0.25,true,n\n"
        )
        assert json.loads((tmp_path / "demo_manifest.json").read_text()) == {
            "command": "demo", "config_hash": config_hash, "seed": 3,
            "version": hookroute.__version__, "outputs": ["t.csv"],
        }

    def test_manifest_hash_stable(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        main(["pigou", "--grid", "0:2:3", "--out", str(a)])
        main(["pigou", "--grid", "0:2:3", "--out", str(b)])
        ma = json.loads((a / "pigou_manifest.json").read_text())
        mb = json.loads((b / "pigou_manifest.json").read_text())
        assert ma == mb


REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_by_path(monkeypatch, name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


def without_horizon(record):
    return dict(record, mdp={k: v for k, v in record["mdp"].items() if k != "horizon"})


class TestReproduceScript:
    """scripts/reproduce.py, checked without running a solve."""

    def test_steps_parse_and_configs_load(self, tmp_path, monkeypatch):
        reproduce = load_by_path(monkeypatch, "reproduce", os.path.join(REPO, "scripts", "reproduce.py"))
        monkeypatch.syspath_prepend(os.path.join(REPO, "bench"))
        workloads = load_by_path(monkeypatch, "workloads", os.path.join(REPO, "bench", "workloads.py"))
        out = str(tmp_path)
        reproduce.write_configs(out)
        steps = reproduce.steps(out)
        carry = [os.path.join("liquidation", f"carry_{c}") for c in ("0", "0.1", "1", "10")]
        assert [run_dir for run_dir, _ in steps] == [
            "pigou", "table1", *(d for d in carry for _ in range(2)), "twamm", "hooks", "hooks"
        ]
        for run_dir, argv in steps:
            _build_parser().parse_args([*argv, "--out", os.path.join(out, run_dir)])

        written = {}
        for root, _, files in os.walk(out):
            for name in files:
                with open(os.path.join(root, name)) as handle:
                    written[os.path.join(os.path.relpath(root, out), name)] = json.load(handle)
        read = {argv[argv.index("--config") + 1] for _, argv in steps if "--config" in argv}
        assert read == {os.path.join(out, path) for path in written}

        hook = written.pop(os.path.join("hooks", "config.json"))
        hook_config_from_dict(hook)
        assert hook == workloads.HOOK_CONFIG
        for record in written.values():
            liquidation_config_from_dict(record)
        for run_dir, bench in [(carry[1], workloads.LIQUIDATION_CONFIG), ("twamm", workloads.TWAMM_CONFIG)]:
            assert without_horizon(written[os.path.join(run_dir, "config.json")]) == without_horizon(bench)


    def test_every_command_is_a_step(self, tmp_path, monkeypatch):
        """The CLI's subcommands are exactly the commands the battery runs."""
        reproduce = load_by_path(monkeypatch, "reproduce", os.path.join(REPO, "scripts", "reproduce.py"))
        [subparsers] = [a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
        assert set(subparsers.choices) == {argv[0] for _, argv in reproduce.steps(str(tmp_path))}


class TestReadme:
    def test_json_examples_load(self):
        """Every JSON block of README.md loads: route problem, liquidation and hook config."""
        loaders = {
            "n_assets": (problem_from_dict,),
            "mdp": (liquidation_config_from_dict,),
            "total_trade": (hook_config_from_dict,),
        }
        with open(os.path.join(REPO, "README.md")) as handle:
            blocks = re.findall(r"```json\n(.*?)```", handle.read(), re.S)
        kinds = []
        for block in blocks:
            record = json.loads(block)
            [kind] = [key for key in loaders if key in record]
            for load in loaders[kind]:
                load(record)
            kinds.append(kind)
        assert sorted(kinds) == sorted(loaders)

    def test_python_sketch_runs(self):
        """The README's library sketch runs, with its imports from the package root."""
        with open(os.path.join(REPO, "README.md")) as handle:
            [block] = re.findall(r"```python\n(.*?)```", handle.read(), re.S)
        namespace = {}
        exec(compile(block, "README.md", "exec"), namespace)
        assert namespace["sol"].status == "optimal"
        assert namespace["curve"].order.price == 0.5
