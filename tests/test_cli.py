import importlib.util
import json
import math
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

import hookroute
from hookroute.cfmm import GEOMETRIC_MEAN, PRODUCT, SUM, LimitOrder, Market
from hookroute.cli import RunWriter, _build_parser, _fmt, csv_rows, main, parse_grid
from hookroute.liquidation import MAX_SOLVE_BYTES, MdpConfig, check_paths, value_iteration
from hookroute.routing import Liquidate, RoutingProblem
from hookroute.serialize import (
    ConfigError,
    hook_scenario_from_dict,
    hook_sweeps_from_dict,
    liquidation_config_from_dict,
    market_from_dict,
    market_to_dict,
    order_from_dict,
    order_to_dict,
    problem_from_dict,
    problem_to_dict,
)

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

HOOK_CONFIG = {
    "total_trade": 50.0,
    "cpmm_reserves": [100.0, 100.0],
    "hook_reserves": [100.0, 100.0],
    "curvature": 0.2,
    "variance": {"form": "quadratic", "scale": 0.5},
    "risk_aversion": 1.0,
    "sweeps": {"curvature_values": [0.0, 1.0], "scale_values": [0.5, 5.0]},
}


def write_json(path, record):
    path.write_text(json.dumps(record))
    return str(path)


def read_rows(path):
    lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
    header = lines[0].split(",")
    return header, [line.split(",") for line in lines[1:]]


def reference_rows(vf, policy, times):
    """The policy dump as it was formatted before blocks were cached: `_fmt` per cell."""
    fractions = policy.action_fractions.tolist()
    for t in times:
        for i, inv in enumerate(vf.inventory_grid.tolist()):
            for j, z in enumerate(vf.mispricing_grid.tolist()):
                value = float(vf.values[t, i, j])
                action = fractions[policy.action_index[t, i, j]] * inv
                yield ",".join(map(_fmt, (t, inv, z, value, action))) + "\n"


class TestSerialize:
    def test_market_round_trip(self):
        markets = [
            Market(PRODUCT, (10, 1), 0.99),
            Market(SUM, (10, 10), 0.99),
            Market(GEOMETRIC_MEAN, (3, 0.2, 1), 0.98, weights=(3, 2, 1)),
        ]
        for market in markets:
            assert market_from_dict(market_to_dict(market)) == market

    def test_order_round_trip(self):
        order = LimitOrder(0.5, 40.0, 0, 2)
        assert order_from_dict(order_to_dict(order)) == order

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
        with pytest.raises(ConfigError) as err:
            market_from_dict({"kind": "product"})
        assert err.value.field == "market.reserves"
        with pytest.raises(ConfigError) as err:
            problem_from_dict(
                {
                    "n_assets": 2,
                    "markets": [{"kind": "product", "reserves": [1, -1], "assets": [0, 1]}],
                    "orders": [],
                    "utility": {"liquidate": {"input": 0, "output": 1, "budget": 1}},
                }
            )
        assert err.value.field == "markets[0]"


class TestGridSyntax:
    def test_inclusive_endpoints(self):
        grid = parse_grid("0:10:5")
        assert grid[0] == 0.0 and grid[-1] == 10.0 and len(grid) == 5

    def test_bad_grids(self):
        for text in ("0:10", "a:b:c", "0:10:0", "5:1:3"):
            with pytest.raises(ConfigError):
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

    def test_gnuplot_stub(self, tmp_path, capsys):
        out = tmp_path / "run"
        main(["pigou", "--grid", "0:4:3", "--out", str(out)])
        csv_path = str(out / "pigou_output.csv")
        assert main(["emit-gnuplot", csv_path]) == 0
        assert os.path.exists(str(out / "pigou_output.gp"))

    def test_gnuplot_unknown_schema_warns(self, tmp_path, capsys):
        weird = tmp_path / "weird.csv"
        weird.write_text("a,b,c\n1,2,3\n")
        assert main(["emit-gnuplot", str(weird)]) == 0
        assert "unrecognized" in capsys.readouterr().err
        assert not os.path.exists(str(tmp_path / "weird.gp"))

    def test_gnuplot_recognizes_every_emitted_schema(self, tmp_path):
        liq = write_json(tmp_path / "liq.json", LIQ_CONFIG)
        hook = write_json(tmp_path / "hook.json", HOOK_CONFIG)
        out = tmp_path / "all"
        main(["route", "--problem", "table1", "--s", "0:100:3", "--out", str(out)])
        main(["liquidate-solve", "--config", liq, "--out", str(out)])
        main(["liquidate-simulate", "--config", liq, "--paths", "2", "--seed", "1", "--out", str(out)])
        main(["compare-twamm", "--config", liq, "--grid", "0:1:2", "--paths", "2", "--seed", "1", "--out", str(out)])
        main(["hook-mean-variance", "--config", hook, "--out", str(out)])
        main(["hook-frontier", "--config", hook, "--grid", "0:30:3", "--out", str(out)])
        for name in os.listdir(out):
            if name.endswith(".csv"):
                assert main(["emit-gnuplot", str(out / name)]) == 0
                assert os.path.exists(str(out / name)[:-4] + ".gp"), name

    def test_dump_all_times(self, tmp_path):
        cfg = write_json(tmp_path / "liq.json", LIQ_CONFIG)
        out = tmp_path / "run"
        assert main(["liquidate-solve", "--config", cfg, "--dump-times", "all", "--out", str(out)]) == 0
        _, rows = read_rows(out / "liquidation_solution.csv")
        assert len(rows) == LIQ_CONFIG["mdp"]["horizon"] * 15 * 15

    @pytest.mark.parametrize("dump_times", [None, "all", "3,0,3"])
    def test_dump_bytes_match_reference_rows(self, tmp_path, dump_times):
        cfg, pool, params, _ = liquidation_config_from_dict(LIQ_CONFIG)
        vf, policy = value_iteration(cfg, pool, params)
        assert vf.backups < cfg.horizon  # blocks 0 .. horizon - backups repeat
        argv = ["liquidate-solve", "--config", write_json(tmp_path / "liq.json", LIQ_CONFIG)]
        if dump_times is None:
            times = [0]
        else:
            argv += ["--dump-times", dump_times]
            times = range(cfg.horizon) if dump_times == "all" else [3, 0, 3]
        out = tmp_path / "run"
        assert main(argv + ["--out", str(out)]) == 0
        body = (out / "liquidation_solution.csv").read_text().split("\n", 2)[2]  # manifest, header
        assert body == "".join(reference_rows(vf, policy, times))


# One parsable command line per subcommand (the files need not exist).
VALID_ARGVS = [
    ["pigou", "--grid", "0:1:2"],
    ["route", "--problem", "table1", "--s", "0:1:2"],
    ["liquidate-solve", "--config", "c.json"],
    ["liquidate-simulate", "--config", "c.json"],
    ["compare-twamm", "--config", "c.json", "--grid", "0:1:2"],
    ["hook-mean-variance", "--config", "c.json"],
    ["hook-frontier", "--config", "c.json"],
    ["emit-gnuplot", "x.csv"],
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


class TestErrorContracts:
    def test_malformed_json_is_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"mdp": nope}')
        assert main(["liquidate-solve", "--config", str(bad), "--out", str(tmp_path)]) == 2
        err = json.loads(capsys.readouterr().out)
        assert err["error"] == "config_parse"
        assert err["field"]

    def test_missing_field_named(self, tmp_path, capsys):
        cfg = {k: v for k, v in LIQ_CONFIG.items() if k != "pool"}
        path = write_json(tmp_path / "liq.json", cfg)
        assert main(["liquidate-solve", "--config", path, "--out", str(tmp_path)]) == 2
        err = json.loads(capsys.readouterr().out)
        assert err["field"] == "pool"

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

    def test_oversized_grid_refused_before_solving(self, tmp_path, capsys, monkeypatch):
        import hookroute.cli as cli_mod

        def never(*args):
            raise AssertionError("the solver ran")

        monkeypatch.setattr(cli_mod, "value_iteration", never)
        record = json.loads(json.dumps(LIQ_CONFIG))
        record["mdp"]["n_mispricing"] = 10**9
        path = write_json(tmp_path / "liq.json", record)
        assert main(["liquidate-solve", "--config", path, "--out", str(tmp_path)]) == 2
        err = json.loads(capsys.readouterr().out)
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
    def test_boolean_integers_refused_before_solving(
        self, tmp_path, capsys, monkeypatch, command, path, value, field
    ):
        import hookroute.cli as cli_mod

        def never(*args, **kwargs):
            raise AssertionError("a solve ran")

        for name in ("solve_curve", "value_iteration"):
            monkeypatch.setattr(cli_mod, name, never)
        record = json.loads(json.dumps(ROUTE_PROBLEM if command == "route" else LIQ_CONFIG))
        target = record
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        config = write_json(tmp_path / "config.json", record)
        argv = [command, "--problem" if command == "route" else "--config", config, "--out", str(tmp_path)]
        argv += ["--s", "0:1:2"] if command == "route" else []
        assert main(argv) == 2
        err = json.loads(capsys.readouterr().out)
        assert err["error"] == "config_parse"
        assert err["field"] == field
        assert "integer" in err["detail"]

    @pytest.mark.parametrize("key, value", [("z_bounds", [-0.1, 0.1]), ("n_mispricng", 51)])
    def test_unknown_mdp_keys_refused_before_solving(self, tmp_path, capsys, monkeypatch, key, value):
        import hookroute.cli as cli_mod

        def never(*args, **kwargs):
            raise AssertionError("the solver ran")

        monkeypatch.setattr(cli_mod, "value_iteration", never)
        record = json.loads(json.dumps(LIQ_CONFIG))
        record["mdp"][key] = value
        path = write_json(tmp_path / "liq.json", record)
        assert main(["liquidate-solve", "--config", path, "--out", str(tmp_path)]) == 2
        err = json.loads(capsys.readouterr().out)
        assert err["field"] == "mdp"
        assert key in err["detail"]

    def test_mdp_defaults_come_from_the_dataclass(self):
        required = {"horizon": 12, "inventory": 100.0, "gas": 2.0, "inventory_cost": 0.1, "discount": 0.01}
        cfg, _, _, _ = liquidation_config_from_dict(dict(LIQ_CONFIG, mdp=required))
        assert cfg == MdpConfig(**required)
        cfg, _, _, _ = liquidation_config_from_dict(LIQ_CONFIG)
        assert cfg == MdpConfig(**LIQ_CONFIG["mdp"])

    @pytest.mark.parametrize("command", ["liquidate-simulate", "compare-twamm"])
    def test_oversized_paths_refused_before_solving(self, tmp_path, capsys, monkeypatch, command):
        import hookroute.cli as cli_mod

        def never(*args, **kwargs):
            raise AssertionError("a solve ran")

        for name in ("value_iteration", "simulate_policy", "compare_vs_twamm"):
            monkeypatch.setattr(cli_mod, name, never)
        # Three float arrays of paths x (horizon + 1) just pass the budget.
        paths = MAX_SOLVE_BYTES // (3 * 8 * (LIQ_CONFIG["mdp"]["horizon"] + 1)) + 1
        config = write_json(tmp_path / "liq.json", LIQ_CONFIG)
        argv = [command, "--config", config, "--paths", str(paths), "--out", str(tmp_path)]
        argv += ["--grid", "0:1:2"] if command == "compare-twamm" else []
        assert main(argv) == 2
        err = json.loads(capsys.readouterr().out)
        assert err["error"] == "config_parse"
        assert err["field"] == "paths"
        assert "budget" in err["detail"]
        check_paths(paths - 1, LIQ_CONFIG["mdp"]["horizon"])

    def test_unknown_scenario_exit_2(self, tmp_path, capsys):
        assert main(["route", "--problem", "tableX", "--s", "0:1:2", "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize(
        "argv, removed",
        [(argv, ["--format", "csv"]) for argv in VALID_ARGVS]
        + [
            (["emit-gnuplot", "x.csv"], ["--out", "x"]),
            (["route", "--problem", "table1"], ["--grid", "0:1:2"]),
        ],
        ids=lambda v: " ".join(v),
    )
    def test_removed_options_refused_by_parser(self, argv, removed):
        _build_parser().parse_args(argv)
        with pytest.raises(SystemExit) as exc:
            _build_parser().parse_args(argv + removed)
        assert exc.value.code == 2

    def test_route_without_budget_sweep_is_exit_2(self, tmp_path, capsys):
        assert main(["route", "--problem", "table1", "--out", str(tmp_path)]) == 2
        err = json.loads(capsys.readouterr().out)
        assert err["error"] == "config_parse"
        assert err["field"]

    def test_nonconvergence_is_exit_3(self, tmp_path, capsys, monkeypatch):
        import hookroute.cli as cli_mod

        original = cli_mod.solve_curve

        def stalled(problem, grid):
            solutions = original(problem, grid)
            for sol in solutions:
                sol.status = "max_iter"
            return solutions

        monkeypatch.setattr(cli_mod, "solve_curve", stalled)
        assert main(["pigou", "--grid", "0:2:3", "--out", str(tmp_path)]) == 3
        assert json.loads(capsys.readouterr().out)["error"] == "solver_nonconvergence"

    @pytest.mark.parametrize(
        "command, record, field",
        [
            (command, 5, "")
            for command in ("route", "liquidate-solve", "hook-mean-variance", "hook-frontier")
        ]
        + [
            ("route", {**ROUTE_PROBLEM, "markets": [5]}, "markets[0]"),
            ("route", {**ROUTE_PROBLEM, "orders": ["x"]}, "orders[0]"),
            ("route", {**ROUTE_PROBLEM, "markets": [dict(ROUTE_PROBLEM["markets"][0], assets=[0, "b"])]}, "markets[0]"),
            ("route", {**ROUTE_PROBLEM, "markets": [dict(ROUTE_PROBLEM["markets"][0], assets=[0, True])]}, "markets[0]"),
            ("route", {**ROUTE_PROBLEM, "markets": [dict(ROUTE_PROBLEM["markets"][0], reserves=[None, 1.0])]}, "markets[0]"),
            ("route", {**ROUTE_PROBLEM, "markets": [dict(ROUTE_PROBLEM["markets"][1], weights=[[1], 1, 1])]}, "markets[0]"),
            ("liquidate-solve", "mdp pool mispricing", ""),
            ("liquidate-simulate", ["mdp"], ""),
            ("compare-twamm", {**LIQ_CONFIG, "mdp": "horizon"}, "mdp"),
            ("hook-mean-variance", {**HOOK_CONFIG, "variance": ["form"]}, "variance"),
        ],
    )
    def test_non_object_entries_are_exit_2(self, tmp_path, capsys, monkeypatch, command, record, field):
        import hookroute.cli as cli_mod

        def never(*args, **kwargs):
            raise AssertionError("a solve ran")

        for name in ("solve_curve", "value_iteration", "mean_variance_sweep", "efficient_frontier"):
            monkeypatch.setattr(cli_mod, name, never)
        path = write_json(tmp_path / "config.json", record)
        argv = [command, "--problem" if command == "route" else "--config", path, "--out", str(tmp_path)]
        argv += {"route": ["--s", "0:1:2"], "compare-twamm": ["--grid", "0:1:2"]}.get(command, [])
        assert main(argv) == 2
        err = json.loads(capsys.readouterr().out)
        assert err["error"] == "config_parse"
        assert err["field"] == field

    @pytest.mark.parametrize(
        "argv, field",
        [
            (["liquidate-solve", "--dump-times", "x"], "dump-times"),
            (["liquidate-solve", "--dump-times", "0,12"], "dump-times"),
            (["liquidate-simulate", "--paths", "0"], "paths"),
            (["compare-twamm", "--grid", "0:1:2", "--paths", "-3"], "paths"),
        ],
    )
    def test_bad_options_named_before_solving(self, tmp_path, capsys, monkeypatch, argv, field):
        import hookroute.cli as cli_mod

        def never(*args, **kwargs):
            raise AssertionError("a solve ran")

        for name in ("value_iteration", "simulate_policy", "compare_vs_twamm"):
            monkeypatch.setattr(cli_mod, name, never)
        config = write_json(tmp_path / "liq.json", LIQ_CONFIG)
        assert main(argv + ["--config", config, "--out", str(tmp_path)]) == 2
        err = json.loads(capsys.readouterr().out)
        assert err["error"] == "config_parse"
        assert err["field"] == field


class TestNonFiniteInputs:
    """NaN, infinities and oversized problems are refused, with the field named, before any solve."""

    @pytest.mark.parametrize(
        "path, value, field",
        [
            (("markets", 0, "reserves", 1), math.nan, "markets[0]"),
            (("markets", 0, "reserves", 0), math.inf, "markets[0]"),
            (("markets", 1, "weights", 2), math.nan, "markets[1]"),
            (("markets", 1, "reserves", 2), -math.inf, "markets[1]"),
            (("orders", 0, "volume"), math.inf, "orders[0]"),
            (("orders", 0, "price"), math.nan, "orders[0]"),
            (("n_assets",), 10**9, "n_assets"),
        ],
    )
    def test_route_problem_refused_before_solving(self, tmp_path, capsys, monkeypatch, path, value, field):
        import hookroute.cli as cli_mod

        def never(*args, **kwargs):
            raise AssertionError("a solve ran")

        monkeypatch.setattr(cli_mod, "solve_curve", never)
        record = json.loads(json.dumps(ROUTE_PROBLEM))
        target = record
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        problem = write_json(tmp_path / "problem.json", record)
        assert main(["route", "--problem", problem, "--s", "0:1:3", "--out", str(tmp_path)]) == 2
        err = json.loads(capsys.readouterr().out)
        assert err["error"] == "config_parse"
        assert err["field"] == field

    @pytest.mark.parametrize(
        "command, grid",
        [
            ("pigou", "nan:1:3"),
            ("route", "0:inf:3"),
            ("hook-frontier", "0:1e400:3"),
            ("compare-twamm", "0:inf:2"),
        ],
    )
    def test_nonfinite_grid_refused_before_solving(self, tmp_path, capsys, monkeypatch, command, grid):
        import hookroute.cli as cli_mod

        def never(*args, **kwargs):
            raise AssertionError("a solve ran")

        for name in ("solve_curve", "compare_vs_twamm", "efficient_frontier"):
            monkeypatch.setattr(cli_mod, name, never)
        argv = [command, "--out", str(tmp_path)]
        if command == "route":
            argv += ["--problem", "table1", "--s", grid]
        else:
            argv += ["--grid", grid]
        if command in ("hook-frontier", "compare-twamm"):
            record = HOOK_CONFIG if command == "hook-frontier" else LIQ_CONFIG
            argv += ["--config", write_json(tmp_path / "config.json", record)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == 2
        err = json.loads(capsys.readouterr().out)
        assert err["error"] == "config_parse"
        assert err["field"] == "grid"

    def test_zero_volume_order_routes(self, tmp_path):
        record = json.loads(json.dumps(ROUTE_PROBLEM))
        record["orders"][0]["volume"] = 0.0
        problem = write_json(tmp_path / "problem.json", record)
        assert main(["route", "--problem", problem, "--s", "0:1:3", "--out", str(tmp_path)]) == 0

    @pytest.mark.parametrize(
        "section, key, value, field",
        [
            ("mispricing", "drift", math.nan, "mispricing"),
            ("mispricing", "volatility", math.inf, "mispricing"),
            ("mispricing", "dt", math.nan, "mispricing"),
            ("mdp", "gas", math.inf, "mdp"),
            ("mdp", "inventory", math.nan, "mdp"),
            ("mdp", "inventory_cost", math.inf, "mdp"),
            ("pool", "reserve_in", math.inf, "pool"),
            ("pool", "fee_bound_lower", math.nan, "pool"),
            ("pool", "external_price", math.inf, "pool"),
            (None, "z0", math.nan, "z0"),
            (None, "z0", -math.inf, "z0"),
        ],
    )
    @pytest.mark.parametrize("command", ["liquidate-solve", "liquidate-simulate", "compare-twamm"])
    def test_liquidation_config_refused_before_solving(
        self, tmp_path, capsys, monkeypatch, command, section, key, value, field
    ):
        import hookroute.cli as cli_mod

        def never(*args, **kwargs):
            raise AssertionError("a solve ran")

        for name in ("value_iteration", "simulate_policy", "compare_vs_twamm"):
            monkeypatch.setattr(cli_mod, name, never)
        record = json.loads(json.dumps(LIQ_CONFIG))
        (record[section] if section else record)[key] = value
        config = write_json(tmp_path / "liq.json", record)
        argv = [command, "--config", config, "--out", str(tmp_path)]
        if command == "compare-twamm":
            argv += ["--grid", "0:1:2"]
        assert main(argv) == 2
        err = json.loads(capsys.readouterr().out)
        assert err["error"] == "config_parse"
        assert err["field"] == field


class TestHookSweeps:
    @pytest.mark.parametrize(
        "sweeps",
        [
            [1, 2],
            {"forms": []},
            {"forms": ["linear", "cubic"]},
            {"forms": [3]},
            {"curvature_values": [0.0, 1.5]},
            {"curvature_values": ["0.5"]},
            {"curvature_values": [True]},
            {"scale_values": [1.0, -0.5]},
            {"scale_values": []},
            {"scale_values": 1.0},
            {"scale_values": [math.inf]},
            {"curvatures": [0.5]},
        ],
    )
    def test_bad_sweeps_refused_before_searching(self, tmp_path, capsys, monkeypatch, sweeps):
        import hookroute.cli as cli_mod

        def never(*args):
            raise AssertionError("the search ran")

        monkeypatch.setattr(cli_mod, "mean_variance_sweep", never)
        path = write_json(tmp_path / "hook.json", dict(HOOK_CONFIG, sweeps=sweeps))
        assert main(["hook-mean-variance", "--config", path, "--out", str(tmp_path)]) == 2
        err = json.loads(capsys.readouterr().out)
        assert err["error"] == "config_parse"
        assert err["field"] == "sweeps"

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
    def test_nonfinite_scenario_refused_before_searching(
        self, tmp_path, capsys, monkeypatch, command, change, field
    ):
        import hookroute.cli as cli_mod

        def never(*args):
            raise AssertionError("the search ran")

        monkeypatch.setattr(cli_mod, "mean_variance_sweep", never)
        monkeypatch.setattr(cli_mod, "efficient_frontier", never)
        path = write_json(tmp_path / "hook.json", dict(HOOK_CONFIG, **change))
        argv = [command, "--config", path, "--out", str(tmp_path)]
        if command == "hook-frontier":
            argv += ["--grid", "0:40:5"]
        assert main(argv) == 2
        err = json.loads(capsys.readouterr().out)
        assert err["error"] == "config_parse"
        assert err["field"] == field

    @pytest.mark.parametrize("targets", [5, [], ["a", 3], [True, 3.0], [1.0, math.inf], [math.nan]])
    def test_bad_targets_refused_before_searching(self, tmp_path, capsys, monkeypatch, targets):
        import hookroute.cli as cli_mod

        def never(*args):
            raise AssertionError("the search ran")

        monkeypatch.setattr(cli_mod, "efficient_frontier", never)
        path = write_json(tmp_path / "hook.json", dict(HOOK_CONFIG, targets=targets))
        assert main(["hook-frontier", "--config", path, "--out", str(tmp_path)]) == 2
        err = json.loads(capsys.readouterr().out)
        assert err["error"] == "config_parse"
        assert err["field"] == "targets"

    def test_targets_list_sets_the_frontier(self, tmp_path):
        path = write_json(tmp_path / "hook.json", dict(HOOK_CONFIG, targets=[10, 20.5]))
        assert main(["hook-frontier", "--config", path, "--out", str(tmp_path)]) == 0
        _, rows = read_rows(tmp_path / "frontier.csv")
        assert [row[0] for row in rows] == ["10.0", "20.5"]

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


class TestImportPath:
    """scipy is imported only inside the solvers that call it."""

    PROBE = (
        "import json, sys\n"
        "from hookroute.cli import main\n"
        "loaded = lambda: sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "report = {'import': loaded(), 'runs': []}\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    report['runs'].append((main(argv), loaded()))\n"
        "print(json.dumps(report))\n"
    )

    def probe(self, tmp_path, *argvs):
        src = os.path.dirname(os.path.dirname(os.path.abspath(hookroute.__file__)))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        result = subprocess.run(
            [sys.executable, "-c", self.PROBE, json.dumps(argvs)],
            env=env,
            cwd=tmp_path,
            capture_output=True,
            text=True,
            check=True,
        )
        return json.loads(result.stdout.splitlines()[-1])

    def test_cli_import_and_hook_commands_load_no_scipy(self, tmp_path):
        cfg = write_json(tmp_path / "hook.json", HOOK_CONFIG)
        report = self.probe(
            tmp_path,
            ["hook-mean-variance", "--config", cfg, "--out", "mv"],
            ["hook-frontier", "--config", cfg, "--grid", "0:40:5", "--out", "fr"],
        )
        assert report["import"] == []
        assert report["runs"] == [[0, []], [0, []]]

    def test_routing_commands_load_no_scipy(self, tmp_path):
        problem = write_json(tmp_path / "problem.json", ROUTE_PROBLEM)
        report = self.probe(
            tmp_path,
            ["pigou", "--grid", "0:8:5", "--out", "pigou"],
            ["route", "--problem", "table1", "--s", "0:500:3", "--out", "table1"],
            ["route", "--problem", problem, "--s", "0:2:3", "--out", "file"],
        )
        assert report["runs"] == [[0, []], [0, []], [0, []]]

    def test_liquidation_loads_no_optimizer(self, tmp_path):
        cfg = write_json(tmp_path / "liq.json", LIQ_CONFIG)
        report = self.probe(tmp_path, ["liquidate-solve", "--config", cfg, "--out", "solve"])
        [(code, loaded)] = report["runs"]
        assert code == 0
        # Besides scipy's own infrastructure (private modules, version data),
        # the one subpackage loaded is scipy.sparse.
        public = {m.split(".")[1] for m in loaded if "." in m and not m.split(".")[1].startswith("_")}
        assert public == {"sparse", "version"} or public == {"sparse"}


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

    def test_csv_layout(self, tmp_path):
        writer = RunWriter("demo", str(tmp_path), {"a": 1}, seed=3)
        rows = ((i, i / 4, i > 0, "n") for i in range(2))
        writer.add_table("t", ("i", "x", "flag", "name"), csv_rows(rows))
        writer.write()
        assert (tmp_path / "t.csv").read_text() == (
            f"# manifest: {writer.config_hash}\n# seed: 3\n"
            "i,x,flag,name\n0,0.0,false,n\n1,0.25,true,n\n"
        )

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
        hook_scenario_from_dict(hook)
        assert hook == workloads.HOOK_CONFIG
        for record in written.values():
            liquidation_config_from_dict(record)
        for run_dir, bench in [(carry[1], workloads.LIQUIDATION_CONFIG), ("twamm", workloads.TWAMM_CONFIG)]:
            assert without_horizon(written[os.path.join(run_dir, "config.json")]) == without_horizon(bench)


class TestReadme:
    def test_json_examples_load(self):
        """Every JSON block of README.md loads: route problem, liquidation and hook config."""
        loaders = {
            "n_assets": (problem_from_dict,),
            "mdp": (liquidation_config_from_dict,),
            "total_trade": (hook_scenario_from_dict, hook_sweeps_from_dict),
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
