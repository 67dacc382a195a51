"""Run one ipsmc CLI stage in a fresh process and report its cost.

    python3 perfbench/stage.py SRC PHASE TRACE_FILE -- <ipsmc argv>

Imports ipsmc from SRC, then times ``ipsmc.cli.main(argv)``; interpreter
start-up and imports are not timed. With TRACE_FILE other than ``-`` the
call runs under a Tracer rooted at ``cli.<command>`` in PHASE and the spans
are written to TRACE_FILE. Prints one JSON line: exit code, wall seconds,
user and system CPU seconds of the call, and the process's peak RSS in KiB.
"""

from __future__ import annotations

import json
import resource
import sys
import time

sys.dont_write_bytecode = True


def main():
    sep = sys.argv.index("--")
    src, phase, trace_file = sys.argv[1:sep]
    argv = sys.argv[sep + 1:]
    sys.path.insert(0, src)
    from ipsmc import cli

    tracer = None
    if trace_file != "-":
        from tracing import Tracer

        tracer = Tracer()
    r0 = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    if tracer is None:
        code = cli.main(argv)
    else:
        with tracer, tracer.root(f"cli.{argv[0]}", phase):
            code = cli.main(argv)
    wall = time.perf_counter() - t0
    r1 = resource.getrusage(resource.RUSAGE_SELF)
    if tracer is not None:
        tracer.dump(trace_file)
    print(json.dumps({"code": code, "wall": wall,
                      "utime": r1.ru_utime - r0.ru_utime,
                      "stime": r1.ru_stime - r0.ru_stime,
                      "maxrss_kib": r1.ru_maxrss}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
