import json
import math
import os

import numpy as np
import pytest

from hookroute.cfmm import GEOMETRIC_MEAN, PRODUCT, SUM, LimitOrder, Market
from hookroute.cli import RunWriter, main, parse_grid
from hookroute.routing import Liquidate, RoutingProblem
from hookroute.serialize import (
    ConfigError,
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
        assert main(["route", "--problem", path, "--grid", "0:5:4", "--out", str(tmp_path / "o")]) == 0

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

    def test_json_format(self, tmp_path):
        out = tmp_path / "run"
        assert main(["pigou", "--grid", "0:4:3", "--format", "json", "--out", str(out)]) == 0
        record = json.loads((out / "pigou_output.json").read_text())
        assert record["columns"] == ["s", "u", "u_no_order"]
        assert len(record["rows"]) == 3

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

    def test_paths_must_be_positive(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "liq.json", LIQ_CONFIG)
        code = main(
            ["liquidate-simulate", "--config", cfg, "--paths", "0", "--seed", "1", "--out", str(tmp_path)]
        )
        assert code == 2


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

    def test_unknown_scenario_exit_2(self, tmp_path, capsys):
        assert main(["route", "--problem", "tableX", "--s", "0:1:2", "--out", str(tmp_path)]) == 2

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
        writer.add_table("t", ("i", "x", "flag", "name"), rows)
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
