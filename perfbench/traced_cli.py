"""Run one ``sperner`` command line under the tracer.

    python3 perfbench/traced_cli.py TRACE_JSON OP_ID -- <sperner arguments>

The command's standard output and exit code are those of the plain CLI;
the trace snapshot (aggregates, whole cold spans, counters) is written
to TRACE_JSON.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from tracer import Tracer, install


def main(argv: list[str]) -> int:
    trace_path, op_id, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: traced_cli.py TRACE_JSON OP_ID -- ARGS...")
    trace_path = Path(trace_path)
    tracer = Tracer(op_id)
    install(tracer, trace_path.parent)
    import sperner.cli

    with tracer.span("op"):
        code = sperner.cli.main(cli_args)
    sys.stdout.flush()
    tracer.merge_workers()
    trace_path.write_text(json.dumps(tracer.snapshot()))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
