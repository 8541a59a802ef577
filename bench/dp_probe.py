"""Split a liquidation solve into operator build and per-block backup cost.

Usage: python3 bench/dp_probe.py CONFIG_JSON

In one fresh process: a full-horizon solve (cold), a 1-block solve, and a
full-horizon solve again (warm). Prints one JSON object with
build_s = T(1), backup_ms_per_block = (T_warm - T(1)) / (H - 1) and
first_call_extra_s = T_cold - T_warm.
"""

import dataclasses
import json
import sys
import time

from hookroute.liquidation import value_iteration
from hookroute.serialize import liquidation_config_from_dict, load_json


def _timed_solve(cfg, pool, params):
    start = time.perf_counter()
    value_iteration(cfg, pool, params)
    return time.perf_counter() - start


def main():
    cfg, pool, params, _ = liquidation_config_from_dict(load_json(sys.argv[1]))
    cold = _timed_solve(cfg, pool, params)
    one = _timed_solve(dataclasses.replace(cfg, horizon=1), pool, params)
    warm = _timed_solve(cfg, pool, params)
    print(
        json.dumps(
            {
                "horizon": cfg.horizon,
                "build_s": one,
                "backup_ms_per_block": 1e3 * (warm - one) / max(cfg.horizon - 1, 1),
                "first_call_extra_s": cold - warm,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
