"""In-memory spans for the traced run, and the rebinding that records them.

`install` replaces the public functions of each hookroute layer, in every
module namespace that calls them, with wrappers that record a span per call
(name, start, end, parent, operation id). `uninstall` puts the originals
back. Nothing under `src/` is edited: the rebinding happens at runtime and
only in a traced run. Spans stay in memory until the run ends.

`summarize` turns the spans of a run into per-layer metrics: counts, busy
time, self time (a span minus the time its direct children cover) and the
routing outcome counters taken from the public `RoutingSolution` fields.
"""

from __future__ import annotations

import functools
import statistics
import time

LAYERS = ("cli", "routing", "cfmm", "liquidation", "noncomposable")
GEOMETRIC_LABELS = tuple(f"geometric_n{k}" for k in range(3, 9))
BEST_RESPONSE_LABELS = ("product", "sum") + GEOMETRIC_LABELS


class Tracer:
    """Span store for one process. Spans are lists [name, start, end, parent, op]."""

    def __init__(self, op_id=0):
        self.op_id = op_id
        self.spans = []
        self.stack = []
        self.counts = {}
        self.solves = []  # (span index, warm start, status, iterations, gap)
        self.sims = []  # (span index, paths * blocks)
        self.priced_markets = {}  # (market, assets) -> last solved dual prices
        self._saved = []

    def span(self, name, fn, on_return=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            record = [name, time.perf_counter(), 0.0, self.stack[-1] if self.stack else -1, self.op_id]
            self.spans.append(record)
            self.stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                self.stack.pop()
            if on_return is not None:
                on_return(index, args, kwargs, result)
            return result

        return traced

    def counter(self, name, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.counts[name] = self.counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        return counted

    def _trace(self, name, owner, attr, callers=(), on_return=None, count_only=False):
        """Rebind `owner.attr`, and the same name in each caller module."""
        original = getattr(owner, attr)
        wrapper = self.counter(name, original) if count_only else self.span(name, original, on_return)
        for module in (owner, *callers):
            self._saved.append((module, attr, getattr(module, attr)))
            setattr(module, attr, wrapper)

    def install(self):
        """Rebind each layer's public entry points to span-recording wrappers."""
        from hookroute import cli, liquidation, noncomposable, routing

        def on_solve(index, args, kwargs, solution):
            problem = args[0] if args else kwargs["problem"]
            warm = kwargs.get("initial_prices", args[3] if len(args) > 3 else None) is not None
            self.solves.append(
                (index, warm, solution.status, int(solution.iterations), float(solution.gap))
            )
            if solution.dual_prices is not None:
                for market, assets in problem.markets:
                    self.priced_markets[(market, assets)] = solution.dual_prices

        def on_simulate(index, args, kwargs, result):
            self.sims.append((index, result.inventory.shape[0] * (result.inventory.shape[1] - 1)))

        self._trace("routing.solve_routing", routing, "solve_routing", on_return=on_solve)
        self._trace("routing.solve_curve", routing, "solve_curve", [cli])
        self._trace("cfmm.trading_function", routing, "trading_function")
        self._trace("liquidation.value_iteration", liquidation, "value_iteration", [cli])
        self._trace("liquidation.simulate_policy", liquidation, "simulate_policy", [cli], on_simulate)
        self._trace("liquidation.compare_vs_twamm", liquidation, "compare_vs_twamm", [cli])
        self._trace("noncomposable.solve_mean_variance", noncomposable, "solve_mean_variance", [cli])
        self._trace("noncomposable.efficient_frontier", noncomposable, "efficient_frontier", [cli])
        self._trace("noncomposable.combined_return", noncomposable, "combined_return", count_only=True)

    def uninstall(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def export(self):
        return {
            "spans": self.spans,
            "counts": self.counts,
            "solves": self.solves,
            "sims": self.sims,
        }


def best_response_replay(priced_markets, budget_s=0.004, max_calls=200):
    """Time the public `arbitrage_subproblem` on each market at its solved prices.

    Returns {label: [mean microseconds per call, one entry per market]}.
    """
    from hookroute.cfmm import GEOMETRIC_MEAN, PRODUCT
    from hookroute.routing import arbitrage_subproblem

    timings = {}
    for (market, assets), prices in priced_markets.items():
        if market.kind == GEOMETRIC_MEAN:
            label = f"geometric_n{market.n_assets}"
        else:
            label = "product" if market.kind == PRODUCT else "sum"
        calls = 0
        start = time.perf_counter()
        elapsed = 0.0
        while calls < max_calls and (calls == 0 or elapsed < budget_s):
            arbitrage_subproblem(market, assets, prices)
            calls += 1
            elapsed = time.perf_counter() - start
        timings.setdefault(label, []).append(1e6 * elapsed / calls)
    return timings


def _self_times(spans):
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    return [(end - start) - child for (_, start, end, _, _), child in zip(spans, child_time)]


def summarize(exports, replay, command_names):
    """Per-layer metrics from the exported spans of every traced operation.

    `exports` holds one `Tracer.export()` per process; span indices are local
    to each export. Metrics that a workload does not exercise read 0.
    """
    layer_self = dict.fromkeys(LAYERS, 0.0)
    durations = {}
    command_self = dict.fromkeys(command_names, 0.0)
    solves = []
    retries = 0
    sim_blocks = 0
    counts = {}
    twamm_self = 0.0
    for export in exports:
        spans = export["spans"]
        selfs = _self_times(spans)
        for (name, start, end, parent, _), own in zip(spans, selfs):
            layer_self[name.split(".", 1)[0]] += own
            durations.setdefault(name, []).append(end - start)
            if name.startswith("cli."):
                command_self[name[4:]] += own
            elif name == "liquidation.compare_vs_twamm":
                twamm_self += own
        for name, value in export["counts"].items():
            counts[name] = counts.get(name, 0) + value
        last = {}
        for index, warm, status, iterations, gap in export["solves"]:
            parent = spans[index][3]
            previous = last.get(parent)
            if previous is not None and previous[0] and previous[1] != "optimal" and not warm:
                retries += 1
            last[parent] = (warm, status)
            solves.append((status, iterations, gap))
        sim_blocks += sum(blocks for _, blocks in export["sims"])
    busy = {name: sum(values) for name, values in durations.items()}

    calls = len(solves)
    iterations = [it for _, it, _ in solves]
    sim_s = busy.get("liquidation.simulate_policy", 0.0)
    mean_variance = durations.get("noncomposable.solve_mean_variance", [])
    metrics = {}

    def put(name, value, unit):
        metrics[name] = {"value": float(value), "unit": unit}

    for command in sorted(command_self):
        put(f"cli.self_s.{command}", command_self[command], "s")
    for layer in LAYERS:
        put(f"{layer}.self_s", layer_self[layer], "s")
    put("routing.solve_routing.calls", calls, "count")
    put("routing.solve_routing.s", busy.get("routing.solve_routing", 0.0), "s")
    put("routing.iterations_total", sum(iterations), "count")
    put("routing.iterations_p50", statistics.median(iterations) if iterations else 0, "count")
    put("routing.max_iter_count", sum(1 for status, _, _ in solves if status == "max_iter"), "count")
    put(
        "routing.certified_frac",
        sum(1 for status, _, _ in solves if status == "optimal") / calls if calls else 0.0,
        "frac",
    )
    put("routing.cold_retries", retries, "count")
    put("routing.gap_max", max((gap for _, _, gap in solves), default=0.0), "1")
    for label in BEST_RESPONSE_LABELS:
        values = replay.get(label, [])
        put(f"routing.best_response_us.{label}", statistics.median(values) if values else 0.0, "us")
    put("cfmm.trading_function.calls", len(durations.get("cfmm.trading_function", [])), "count")
    put("cfmm.trading_function.s", busy.get("cfmm.trading_function", 0.0), "s")
    put(
        "liquidation.value_iteration.calls",
        len(durations.get("liquidation.value_iteration", [])),
        "count",
    )
    put("liquidation.value_iteration.s", busy.get("liquidation.value_iteration", 0.0), "s")
    put("liquidation.simulate_policy.s", sim_s, "s")
    put("liquidation.sim_path_blocks_per_s", sim_blocks / sim_s if sim_s > 0 else 0.0, "1/s")
    put("liquidation.compare_vs_twamm.self_s", twamm_self, "s")
    put("noncomposable.solve_mean_variance.calls", len(mean_variance), "count")
    put(
        "noncomposable.solve_mean_variance.us_p50",
        1e6 * statistics.median(mean_variance) if mean_variance else 0.0,
        "us",
    )
    put("noncomposable.combined_return.calls", counts.get("noncomposable.combined_return", 0), "count")
    put("noncomposable.efficient_frontier.s", busy.get("noncomposable.efficient_frontier", 0.0), "s")
    return metrics
