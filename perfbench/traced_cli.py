"""Runs ``hurzeta.cli.main`` as ``python -m hurzeta`` would, with timing spans.

Usage: python3 perfbench/traced_cli.py SUMMARY_PATH KEEP_SPANS CLI_ARGS...

Writes the per-layer totals (and, when KEEP_SPANS is 1, every span) to
SUMMARY_PATH when the command ends, then exits with the command's code.
"""

import json
import sys
import time

import spans


def main():
    path, keep = sys.argv[1], sys.argv[2] == "1"
    t0 = time.perf_counter()
    import hurzeta.cli
    import_s = time.perf_counter() - t0

    tracer = spans.Tracer()
    tracer.keep_spans = keep
    spans.install(tracer, sys.modules)
    try:
        code = hurzeta.cli.main(sys.argv[3:])
    finally:
        sys.stdout.flush()
        with open(path, "w") as fh:
            json.dump({"import_s": import_s, "totals": tracer.totals(),
                       "spans": tracer.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
