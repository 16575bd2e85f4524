"""Run one orthoapart CLI command in this fresh process and record timings.

usage: python3 bench/child.py RECORD.json MODE -- CLI_ARGS...

MODE is "plain" (no tracing), "spans" or "scalars" (see tracer.py).  The
record holds the CLOCK_MONOTONIC time at which `orthoapart.cli` was
imported and ready, the wall time of `main()`, its exit code, the
process's max RSS and, when traced, the tracer's dump.  CLOCK_MONOTONIC is
system-wide, so the parent can subtract its own spawn time from `ready`.
Exits with the CLI's exit code.  The package is found through PYTHONPATH.
"""

import json
import resource
import sys
import time


def clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def main() -> int:
    record_path, mode, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: child.py RECORD.json MODE -- CLI_ARGS...")
    from orthoapart import cli

    tracer = None
    if mode != "plain":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install(mode)
    ready = clock()
    t0 = clock()
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse rejects bad arguments this way
        code = exc.code if isinstance(exc.code, int) else 2
    op_s = clock() - t0
    sys.stdout.flush()
    record = {
        "ready": ready,
        "op_s": op_s,
        "exit": code,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        record["trace"] = tracer.dump()
        mask = getattr(sys.modules["orthoapart.apartments"], "_pair_mask", None)
        if mode == "spans" and hasattr(mask, "cache_info"):
            record["trace"]["pair_mask"] = list(mask.cache_info()[:2])
    with open(record_path, "w") as fh:
        json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
