"""Set-up probe: one fresh interpreter importing ncsos.cli, then one job twice.

Usage: python3 bench/probe.py SRC_DIR ARGV_JSON

Prints one JSON line: the CLOCK_MONOTONIC reading right after
``import ncsos.cli`` (the parent subtracts its spawn time) and the wall
clock of the job's first and repeated run.
"""

import sys
import time

sys.path.insert(0, sys.argv[1])
import ncsos.cli  # noqa: E402

ready = time.monotonic()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402


def timed(argv):
    out = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        code = ncsos.cli.main(argv)
    return time.perf_counter() - t0, code


if __name__ == "__main__":
    argv = json.loads(sys.argv[2])
    first, code1 = timed(argv)
    repeat, code2 = timed(argv)
    print(json.dumps({"ready": ready, "first": first, "repeat": repeat,
                      "codes": [code1, code2]}))
