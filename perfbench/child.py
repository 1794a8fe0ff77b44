"""Run one bifilter CLI command in a fresh process and time it.

Usage: child.py RESULT_JSON [CLI ARGS...]

Writes to RESULT_JSON the CLOCK_MONOTONIC reading taken right after
``bifilter.cli`` is imported (the parent subtracts its spawn time to get
set-up time), the wall time of ``bifilter.cli.main`` and its exit code.
With no CLI arguments the child only imports and reports, which is a
set-up probe.
"""

import json
import sys
import time


def main() -> int:
    result_path, argv = sys.argv[1], sys.argv[2:]
    import bifilter.cli as cli

    ready = time.monotonic()
    out = {"ready": ready, "module": cli.__file__}
    if argv:
        t0 = time.perf_counter()
        out["rc"] = cli.main(argv)
        out["main_s"] = time.perf_counter() - t0
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
