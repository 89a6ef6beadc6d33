"""Run one gq command under the span tracer; the traced `cli` workload's process.

    python perfbench/gq_traced.py SUMMARY.json ARG...

Prints what `gq ARG...` prints and exits with its code.  The tracer's
summary, the kept spans and the in-process `cli.run` time go to
SUMMARY.json.
"""

import json
import sys
import time

from greenquadrics import cli
from tracer import Tracer


def main() -> int:
    summary_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    t0 = time.perf_counter()
    code, text = cli.run(argv)
    run_ms = (time.perf_counter() - t0) * 1e3
    tracer.uninstall()
    print(text, file=sys.stdout if code == 0 else sys.stderr)
    summary = tracer.summary()
    summary.update(run_ms=run_ms, spans=tracer.spans())
    with open(summary_path, "w") as fh:
        json.dump(summary, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
