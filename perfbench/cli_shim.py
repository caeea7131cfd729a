"""The ``rectcrys`` command with layer tracing.

Installs the tracer's wrappers, then calls ``rectcrys.cli.main`` with the
command-line arguments, exactly as the console script would.  When the
request ends, however it ends, its spans and memo counts are written as JSON
to the file named by PERFBENCH_SPAN_FILE.

    PERFBENCH_SPAN_FILE=out.json python3 perfbench/cli_shim.py kpoly compute ...
"""

from __future__ import annotations

import json
import os
import sys

import tracer as tr


def main() -> int:
    modules = tr.layer_modules()
    memos = tr.find_memos(modules)
    tracer = tr.Tracer()
    tracer.install(modules)
    outcome = "exception"
    try:
        code = modules["cli"].main(sys.argv[1:])
        outcome = code
        return code
    except SystemExit as exc:
        outcome = exc.code
        raise
    finally:
        record = {
            "exit": outcome,
            **tracer.to_json(),
            "memos": tr.memo_stats(memos),
        }
        with open(os.environ["PERFBENCH_SPAN_FILE"], "w") as fh:
            json.dump(record, fh)


if __name__ == "__main__":
    sys.exit(main())
