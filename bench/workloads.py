"""The benchmark's three workloads and the closed loop that drives them.

One benchmark process runs one client: it sends one operation, waits for it to
return, checks its output, and only then sends the next. An operation is one
`python -m hookroute` process (paper-sweeps, paper-liquidation) or one cold
`solve_routing` call in the benchmark process (routing-scale).

Each workload repeats passes over a fixed list of operations: the paper
commands, or the routing-scale network family. A paper workload starts an
operation only while its last untraced wall time still fits in the run
length, so a run ends within `--seconds` and every command is timed about
equally often; the metrics are per-command medians over the whole run. The
routing-scale family runs whole passes only, starting another while the time
used plus half a pass stays within the run length, so the mix of networks is
the same from run to run. A traced run makes one untraced and one traced pass
of the paper commands, or solves each network twice, untraced then traced, in
one pass.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

import checks
from spans import Tracer, best_response_replay, summarize

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 150.0

# The paper configs, copied from scripts/. The two liquidation configs keep
# the paper's 101 x 101 grid, 51 actions and 9 quadrature nodes but run a
# shorter horizon (20 of 200 and 10 of 100 blocks) so that every command
# fits a run several times; the per-block work is the paper's.
HOOK_CONFIG = {
    "total_trade": 100.0,
    "cpmm_reserves": [100.0, 100.0],
    "hook_reserves": [100.0, 100.0],
    "curvature": 0.1,
    "variance": {"form": "linear", "scale": 1.0},
    "risk_aversion": 1.0,
}
_POOL = {
    "reserve_in": 1e5,
    "reserve_out": 5000 * 1e5,
    "fee_bound_upper": 0.003,
    "fee_bound_lower": 0.003,
}
LIQUIDATION_CONFIG = {
    "mdp": {"horizon": 20, "inventory": 1000.0, "gas": 2.0, "inventory_cost": 0.1, "discount": 0.01},
    "pool": _POOL,
    "mispricing": {"drift": 0.0, "volatility": 8.0, "dt": 1.0},
    "z0": 0.0,
}
TWAMM_CONFIG = {
    "mdp": {"horizon": 10, "inventory": 100.0, "gas": 2.0, "inventory_cost": 0.1, "discount": 0.01},
    "pool": _POOL,
    "mispricing": {"drift": 0.0, "volatility": 0.0, "dt": 1.0},
    "z0": -0.003,
}
SIM_PATHS = 200
TWAMM_PATHS = 500

COMMANDS = (
    "pigou",
    "route",
    "hook-mean-variance",
    "hook-frontier",
    "liquidate-solve",
    "liquidate-simulate",
    "compare-twamm",
)


@dataclass
class Context:
    root: str
    work: str
    seed: int
    seconds: float
    trace: bool
    env: dict


@dataclass(frozen=True)
class CliOp:
    command: str
    metric: str
    argv: tuple
    check: object


@dataclass
class Run:
    """What one run measured: the operations, their failures and the metrics."""

    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    failures: list = field(default_factory=list)
    timings: list = field(default_factory=list)  # (operation, wall seconds)
    digests: dict = field(default_factory=dict)
    spans: list = field(default_factory=list)  # traced run: one export per traced process
    metrics: dict = field(default_factory=dict)  # final-line metrics
    report: dict = field(default_factory=dict)  # everything else, printed by name

    def metric(self, name, value, unit):
        self.metrics[name] = {"value": float(value), "unit": unit}

    def record(self, key, seconds, failure, wrong, digest, **detail):
        """Count one operation; a repeat of `key` must reproduce its digest."""
        self.attempted += 1
        self.timings.append((key, seconds))
        if digest is not None and self.digests.setdefault(key, digest) != digest and failure is None:
            failure, wrong = "output differs from an earlier run of the same operation", True
        if failure is not None:
            self.failed += 1
            self.wrong += int(wrong)
            self.failures.append(dict(detail, operation=key, reason=failure))


def _median(values):
    return statistics.median(values) if values else 0.0


def _startup_s(ctx):
    """Interpreter start plus `import hookroute` in a fresh process."""
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", "import hookroute.cli"], env=ctx.env, cwd=ctx.root, check=True
    )
    return time.perf_counter() - start


def _wait(proc):
    """Wait for a child with a kill timer; return (exit code, peak RSS in MB)."""
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0


def _csv_digest(out_dir):
    digest = hashlib.sha256()
    for name in sorted(os.listdir(out_dir)):
        if name.endswith(".csv"):
            digest.update(name.encode() + b"\0")
            with open(os.path.join(out_dir, name), "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()


def _bytes_written(out_dir):
    return sum(os.path.getsize(os.path.join(out_dir, name)) for name in os.listdir(out_dir))


def _tail(values):
    """Highest whole percentile with at least ten samples beyond it."""
    n = len(values)
    if n <= 10:
        return None
    pct = int(100 * (n - 10) / n)
    ordered = sorted(values)
    value = ordered[max(0, -(-pct * n // 100) - 1)]
    return {"value": value, "unit": "s", "percentile": pct, "samples": n}


# ---------------------------------------------------------------------------
# Paper workloads: one `python -m hookroute` process per command.
# ---------------------------------------------------------------------------


def _write_json(path, record):
    with open(path, "w") as handle:
        json.dump(record, handle, indent=1)


def paper_sweeps_ops(ctx):
    config = os.path.join(ctx.work, "hook_config.json")
    _write_json(config, HOOK_CONFIG)
    total = HOOK_CONFIG["total_trade"]
    return [
        CliOp("pigou", "pigou_s", ("pigou", "--grid", "0:20:100", "--with-order"), checks.check_pigou),
        CliOp(
            "route",
            "route_table1_s",
            ("route", "--problem", "table1", "--s", "0:500:100"),
            checks.check_table1,
        ),
        CliOp(
            "hook-mean-variance",
            "hook_mean_variance_s",
            ("hook-mean-variance", "--config", config),
            checks.check_hook_trades("mean_variance.csv", total),
        ),
        CliOp(
            "hook-frontier",
            "hook_frontier_s",
            ("hook-frontier", "--config", config, "--grid", "0:70:141"),
            checks.check_hook_trades("frontier.csv", total),
        ),
    ]


LIQUIDATION_CONFIG_FILE = "liquidation_config.json"


def paper_liquidation_ops(ctx):
    policy = os.path.join(ctx.work, LIQUIDATION_CONFIG_FILE)
    twamm = os.path.join(ctx.work, "twamm_config.json")
    _write_json(policy, LIQUIDATION_CONFIG)
    _write_json(twamm, TWAMM_CONFIG)
    seed = str(ctx.seed)
    return [
        CliOp(
            "liquidate-solve",
            "liquidate_solve_s",
            ("liquidate-solve", "--config", policy, "--dump-times", "all"),
            checks.check_liquidation_values,
        ),
        CliOp(
            "liquidate-simulate",
            "liquidate_simulate_s",
            ("liquidate-simulate", "--config", policy, "--paths", str(SIM_PATHS), "--seed", seed),
            checks.check_inventory_paths(LIQUIDATION_CONFIG["mdp"]["inventory"]),
        ),
        CliOp(
            "compare-twamm",
            "compare_twamm_s",
            (
                "compare-twamm", "--config", twamm, "--grid", "0:8:2",
                "--paths", str(TWAMM_PATHS), "--seed", seed,
            ),
            checks.check_twamm,
        ),
    ]


def _run_cli_op(ctx, op, spans_path=None, op_id=0):
    out_dir = os.path.join(ctx.work, "out")
    shutil.rmtree(out_dir, ignore_errors=True)
    argv = [*op.argv, "--out", out_dir]
    if spans_path is None:
        cmd = [sys.executable, "-m", "hookroute", *argv]
    else:
        cmd = [sys.executable, os.path.join(BENCH_DIR, "traced_cli.py"), spans_path, str(op_id), *argv]
    with open(os.path.join(ctx.work, "commands.log"), "ab") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT, env=ctx.env, cwd=ctx.root)
        code, rss_mb = _wait(proc)
        wall = time.perf_counter() - start
    return wall, code, rss_mb, out_dir


def _paper_setup(ctx, make_ops):
    """One set-up: write the workload's inputs, then start a fresh interpreter."""
    start = time.perf_counter()
    ops = make_ops(ctx)
    return ops, time.perf_counter() - start + _startup_s(ctx)


def run_paper(ctx, make_ops):
    """Closed loop over passes of the paper commands.

    Set-up is timed before the first pass and again after every complete
    pass, so its median, like the commands' medians, spans the whole run.
    """
    run = Run()
    ops, first_setup = _paper_setup(ctx, make_ops)
    setup = [first_setup]

    passes = []  # (traced, wall)
    per_command = {op.command: [] for op in ops}
    peak_rss = 0.0
    exports, replay, written = [], {}, {}
    required = 2 if ctx.trace else 1
    last_wall = {}
    start_loop = time.perf_counter()
    while True:
        traced = ctx.trace and len(passes) == 1
        pass_wall = 0.0
        for op_id, op in enumerate(ops):
            if len(passes) >= required and (
                time.perf_counter() - start_loop + last_wall[op.command] > ctx.seconds
            ):
                break
            spans_path = os.path.join(ctx.work, "spans.json") if traced else None
            wall, code, rss_mb, out_dir = _run_cli_op(ctx, op, spans_path, op_id)
            pass_wall += wall
            peak_rss = max(peak_rss, rss_mb)
            if not traced:
                per_command[op.command].append(wall)
                last_wall[op.command] = wall
            failure, digest = None, None
            if code != 0:
                failure = f"exit code {code}"
            else:
                try:
                    failure = op.check(out_dir)
                except (OSError, ValueError, IndexError, KeyError) as exc:
                    failure = f"output unreadable: {exc!r}"
                digest = _csv_digest(out_dir)
                written[op.command] = _bytes_written(out_dir)
            run.record(op.command, wall, failure, failure is not None, digest)
            if traced and os.path.exists(spans_path):
                with open(spans_path) as handle:
                    record = json.load(handle)
                os.unlink(spans_path)
                exports.append(record)
                for label, values in record["replay"].items():
                    replay.setdefault(label, []).extend(values)
            shutil.rmtree(out_dir, ignore_errors=True)
        else:
            passes.append((traced, pass_wall))
            setup.append(_paper_setup(ctx, make_ops)[1])
            continue
        break

    plain = [wall for was_traced, wall in passes if not was_traced]
    run.report["passes"] = len(plain)
    for op in ops:
        run.report[op.metric] = {"value": _median(per_command[op.command]), "unit": "s"}
    run.report["peak_rss_mb"] = {"value": peak_rss, "unit": "MB"}
    if not ctx.trace:
        run.metric("op_s_p50", sum(run.report[op.metric]["value"] for op in ops), "s")
        run.metric("peak_rss_mb", peak_rss, "MB")
        run.metric("setup_s", _median(setup), "s")
        return run

    traced_wall = next(wall for was_traced, wall in passes if was_traced)
    probe = {}
    if any(op.command == "liquidate-solve" for op in ops):
        probe = _dp_probe(ctx, os.path.join(ctx.work, LIQUIDATION_CONFIG_FILE))
    run.spans = exports
    run.metrics.update(_per_layer(exports, replay, traced_wall - _median(plain), written, probe))
    return run


def _per_layer(exports, replay, overhead_s, written=None, probe=None):
    """Every per-layer metric; the ones this workload did not exercise read 0."""
    written, probe = written or {}, probe or {}
    layers = summarize(exports, replay, COMMANDS)
    for command in COMMANDS:
        layers[f"cli.bytes_written.{command}"] = {"value": float(written.get(command, 0)), "unit": "B"}
    for name, unit in (("build_s", "s"), ("backup_ms_per_block", "ms"), ("first_call_extra_s", "s")):
        layers[f"liquidation.{name}"] = {"value": float(probe.get(name, 0.0)), "unit": unit}
    layers["trace_overhead_s"] = {"value": overhead_s, "unit": "s"}
    return layers


def _dp_probe(ctx, config_path):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "dp_probe.py"), config_path],
        env=ctx.env,
        cwd=ctx.root,
        capture_output=True,
        text=True,
        check=True,
        timeout=CHILD_TIMEOUT_S,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# routing-scale: cold solves in the benchmark process.
# ---------------------------------------------------------------------------


def _solution_digest(index, solution):
    body = f"{index},{solution.status},{solution.utility_value!r},{solution.iterations},{solution.gap!r}\n"
    return hashlib.sha256(body.encode()).hexdigest()


def run_routing_scale(ctx):
    from hookroute import routing
    from instances import SHAPES, descriptors, scale_instance

    run = Run()
    setup = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        instances = [scale_instance(ctx.seed, i) for i in range(len(SHAPES))]
        setup.append(time.perf_counter() - start + _startup_s(ctx))

    walls, traced_walls, pass_walls, certified = [], [], [], 0
    tracer = Tracer() if ctx.trace else None
    shapes = []
    start_loop = time.perf_counter()
    while True:
        for index, problem in enumerate(instances):
            key, shape = f"instance-{index}", descriptors(problem)
            shapes.append(shape)
            start = time.perf_counter()
            try:
                solution = routing.solve_routing(problem)
            except Exception as exc:  # a raising solve is a failed operation
                walls.append(time.perf_counter() - start)
                run.record(key, walls[-1], f"raised {exc!r}", True, None, **shape)
                continue
            walls.append(time.perf_counter() - start)
            failure, wrong = checks.check_routing(problem, solution)
            digest = _solution_digest(index, solution)
            if tracer is not None:
                tracer.op_id = index
                tracer.install()
                try:
                    start = time.perf_counter()
                    traced = routing.solve_routing(problem)
                    traced_walls.append(time.perf_counter() - start)
                finally:
                    tracer.uninstall()
                if failure is None and _solution_digest(index, traced) != digest:
                    failure, wrong = "traced solve returned a different result", True
            certified += solution.status == routing.STATUS_OPTIMAL
            run.record(key, walls[-1], failure, wrong, digest, **shape)
        pass_walls.append(sum(walls[-len(instances):]))
        if ctx.trace or time.perf_counter() - start_loop + 0.5 * _median(pass_walls) >= ctx.seconds:
            break

    run.report["scale_solve_s_p50"] = {"value": _median(walls), "unit": "s"}
    run.report["scale_solve_s_tail"] = _tail(walls)
    run.report["scale_solves_per_s"] = {"value": certified / sum(walls), "unit": "1/s"}
    run.report["passes"] = len(pass_walls)
    run.report["solves"] = len(shapes)
    run.report["share_with_sum_pools"] = sum(s["sum"] > 0 for s in shapes) / len(shapes)
    run.report["share_with_geometric_6_plus"] = (
        sum(s["largest_geometric"] >= 6 for s in shapes) / len(shapes)
    )
    peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    run.report["peak_rss_mb"] = {"value": peak_rss, "unit": "MB"}
    if not ctx.trace:
        run.metric("op_s_p50", _median(walls), "s")
        run.metric("peak_rss_mb", peak_rss, "MB")
        run.metric("setup_s", _median(setup), "s")
        return run

    overhead = _median([t - u for t, u in zip(traced_walls, walls)])
    replay = best_response_replay(tracer.priced_markets)
    run.spans = [tracer.export()]
    run.metrics.update(_per_layer(run.spans, replay, overhead))
    return run


WORKLOADS = {
    "paper-sweeps": lambda ctx: run_paper(ctx, paper_sweeps_ops),
    "routing-scale": run_routing_scale,
    "paper-liquidation": lambda ctx: run_paper(ctx, paper_liquidation_ops),
}
