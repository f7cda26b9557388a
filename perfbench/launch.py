"""Run one grassbott CLI command with the tracer installed.

usage: python perfbench/launch.py SUMMARY.json OP_ID CLI-ARGS...

Used by traced runs only; untraced runs call ``python -m grassbott``.
The summary file gets the tracer's per-layer totals plus the time spent
importing ``grassbott.cli``.  The exit code is the command's.
"""

import json
import sys
import time

from tracer import Tracer


def main() -> int:
    out, op, argv = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
    start = time.perf_counter()
    import grassbott.cli

    import_s = time.perf_counter() - start
    tracer = Tracer()
    tracer.op = op
    tracer.install()
    try:
        return grassbott.cli.main(argv)
    except SystemExit as err:  # argparse usage errors
        return err.code if isinstance(err.code, int) else 2
    finally:
        sys.stdout.flush()
        summary = tracer.summary()
        summary["import_s"] = import_s
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(summary, fh)


if __name__ == "__main__":
    sys.exit(main())
