"""Run one hookroute CLI command with tracing on, then write its spans.

Usage: python3 bench/traced_cli.py SPANS_JSON OP_ID COMMAND [ARGS...]

The layer functions are rebound before the command starts and restored when
it returns. The command itself is recorded as the span `cli.<command>`.
After it returns, the public best response is replayed on every market the
command routed, at its solved prices, outside any span.
"""

import json
import sys

from spans import Tracer, best_response_replay


def main():
    spans_path, op_id, argv = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
    from hookroute import cli

    tracer = Tracer(op_id)
    tracer.install()
    try:
        code = tracer.span(f"cli.{argv[0]}", cli.main)(argv)
    finally:
        tracer.uninstall()
    record = tracer.export()
    record["replay"] = best_response_replay(tracer.priced_markets)
    with open(spans_path, "w") as handle:
        json.dump(record, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
