#!/usr/bin/env python3
"""hookroute benchmark: one workload, one seed, one run.

Usage, from the repository root:

    python3 bench/run.py --workload paper-sweeps --seed 1 --seconds 55 --trace 0

Workloads: paper-sweeps, routing-scale, paper-liquidation (see README.md).
`--trace 0` measures the end-to-end metrics with nothing rebound; `--trace 1`
rebinds each layer's public functions to span-recording wrappers and reports
the per-layer metrics and the tracing overhead instead.

Prints one `name value unit` line per metric and report entry, then, as the
last line, one JSON object with the keys correct, attempted, failed and
metrics. The full record of the run, with every operation's output digest
and every failure, is written under .bench_run/results/ in the repository
root; a traced run also writes its spans there when it ends.
"""

import os

# Thread caps must be in place before numpy is imported here or in a child.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

WORK_DIR = ".bench_run"


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment():
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def code_fingerprint(*directories):
    """Hash of the Python sources that decide a run's outputs."""
    digest = hashlib.sha256()
    for directory in directories:
        for name in sorted(os.listdir(directory)):
            if name.endswith(".py"):
                with open(os.path.join(directory, name), "rb") as handle:
                    digest.update(name.encode() + b"\0" + handle.read())
    return digest.hexdigest()


def compare_digests(work, fingerprint, workload, seed, digests):
    """Store this run's output digests; report whether earlier runs agree.

    Runs of the same code (program and benchmark), workload and seed must
    produce the same CSV bodies. Returns "first run" when nothing was stored yet, else whether
    every operation both runs performed produced the same digest.
    """
    path = os.path.join(work, "digests.json")
    try:
        with open(path) as handle:
            store = json.load(handle)
    except (OSError, ValueError):
        store = {}
    known = store.setdefault(fingerprint, {}).setdefault(workload, {}).setdefault(str(seed), {})
    shared = [key for key in digests if key in known]
    verdict = "first run" if not shared else all(known[k] == digests[k] for k in shared)
    for key, value in digests.items():
        known.setdefault(key, value)
    with open(path, "w") as handle:
        json.dump(store, handle)
    return verdict


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "hookroute", "__init__.py")):
        print("bench: no src/hookroute here; run from the repository root", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        print("bench: --seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    from workloads import WORKLOADS, Context

    if args.workload not in WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    work = os.path.join(root, WORK_DIR)
    os.makedirs(work, exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    ctx = Context(root, work, args.seed, args.seconds, bool(args.trace), env)

    started = time.time()
    run = WORKLOADS[args.workload](ctx)
    bench = os.path.dirname(os.path.abspath(__file__))
    fingerprint = code_fingerprint(os.path.join(src, "hookroute"), bench)
    verdict = compare_digests(work, fingerprint, args.workload, args.seed, run.digests)

    report = dict(run.report)
    report["fail_frac"] = {"value": run.failed / run.attempted, "unit": "frac"}
    report["digests_agree"] = verdict
    for name, entry in sorted({**report, **run.metrics}.items()):
        if isinstance(entry, dict) and "value" in entry:
            extra = " ".join(f"{k}={v}" for k, v in entry.items() if k not in ("value", "unit"))
            print(f"{name} {entry['value']!r} {entry['unit']} {extra}".rstrip())
        else:
            print(f"{name} {entry!r}")
    for failure in run.failures:
        print("failure " + json.dumps(failure, sort_keys=True))

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "started": started,
        "code": fingerprint,
        "environment": environment(),
        "attempted": run.attempted,
        "failed": run.failed,
        "failures": run.failures,
        "timings": run.timings,
        "digests": run.digests,
        "report": report,
        "metrics": run.metrics,
    }
    results = os.path.join(work, "results")
    os.makedirs(results, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{int(started)}.json"
    with open(os.path.join(results, name), "w") as handle:
        json.dump(record, handle, indent=1)
    if run.spans:
        with open(os.path.join(results, name.replace(".json", "-spans.json")), "w") as handle:
            json.dump(run.spans, handle)

    print(
        json.dumps(
            {
                "correct": run.wrong == 0,
                "attempted": run.attempted,
                "failed": run.failed,
                "metrics": run.metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
