#!/usr/bin/env python3
"""Reproduce the paper's data battery through the hookroute CLI.

    python scripts/reproduce.py --out results

writes one run directory per experiment under --out: pigou/, table1/,
liquidation/carry_<c>/ for each carry cost c, twamm/ and hooks/. A run that
takes a config finds it as config.json in its own directory.
"""

import argparse
import json
import os
import sys

from hookroute.cli import main

HOOK_CONFIG = {
    "total_trade": 100.0,
    "cpmm_reserves": [100.0, 100.0],
    "hook_reserves": [100.0, 100.0],
    "curvature": 0.1,
    "variance": {"form": "linear", "scale": 1.0},
    "risk_aversion": 1.0,
}

LIQUIDATION_CONFIG = {
    "mdp": {
        "horizon": 200,
        "inventory": 1000.0,
        "gas": 2.0,
        "inventory_cost": 0.1,
        "discount": 0.01,
    },
    "pool": {
        "reserve_in": 1e5,
        "reserve_out": 5000 * 1e5,
        "fee_bound_upper": 0.003,
        "fee_bound_lower": 0.003,
    },
    "mispricing": {"drift": 0.0, "volatility": 8.0, "dt": 1.0},
    "z0": 0.0,
}

TWAMM_CONFIG = {
    "mdp": {
        "horizon": 100,
        "inventory": 100.0,
        "gas": 2.0,
        "inventory_cost": 0.1,
        "discount": 0.01,
    },
    "pool": {
        "reserve_in": 1e5,
        "reserve_out": 5000 * 1e5,
        "fee_bound_upper": 0.003,
        "fee_bound_lower": 0.003,
    },
    "mispricing": {"drift": 0.0, "volatility": 0.0, "dt": 1.0},
    "z0": -0.003,
}

CARRY_COSTS = (0.0, 0.1, 1.0, 10.0)


def _carry_dir(cost):
    return os.path.join("liquidation", f"carry_{cost:g}")


def steps(out):
    """The (run directory, CLI argv) of every command, in run order.

    Each argv still lacks its `--out`, which is `out` joined with the run
    directory.
    """

    def config(run_dir):
        return os.path.join(out, run_dir, "config.json")

    runs = [
        ("pigou", ["pigou", "--grid", "0:20:200"]),
        ("table1", ["route", "--problem", "table1", "--s", "0:500:200"]),
    ]
    for cost in CARRY_COSTS:
        run_dir = _carry_dir(cost)
        liquidation = ["--config", config(run_dir)]
        runs += [
            (run_dir, ["liquidate-solve", *liquidation]),
            (run_dir, ["liquidate-simulate", *liquidation, "--paths", "200", "--seed", "7"]),
        ]
    twamm = ["--config", config("twamm"), "--grid", "0:8:9", "--paths", "500", "--seed", "11"]
    return runs + [
        ("twamm", ["compare-twamm", *twamm]),
        ("hooks", ["hook-mean-variance", "--config", config("hooks")]),
        ("hooks", ["hook-frontier", "--config", config("hooks"), "--grid", "0:70:141"]),
    ]


def write_configs(out):
    """Write each run's config.json under `out`."""
    records = {"twamm": TWAMM_CONFIG, "hooks": HOOK_CONFIG}
    for cost in CARRY_COSTS:
        mdp = dict(LIQUIDATION_CONFIG["mdp"], inventory_cost=cost)
        records[_carry_dir(cost)] = dict(LIQUIDATION_CONFIG, mdp=mdp)
    for run_dir, record in records.items():
        os.makedirs(os.path.join(out, run_dir), exist_ok=True)
        with open(os.path.join(out, run_dir, "config.json"), "w") as handle:
            json.dump(record, handle, indent=1)


def run():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="results")
    args = parser.parse_args()
    write_configs(args.out)
    for run_dir, argv in steps(args.out):
        code = main([*argv, "--out", os.path.join(args.out, run_dir)])
        if code:
            return code
    return 0


if __name__ == "__main__":
    sys.exit(run())
