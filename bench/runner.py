"""Run one twopartite CLI command in this fresh interpreter and report its cost.

Usage: python3 bench/runner.py --src SRC --out FILE [--trace FILE] [--probe] -- ARGV...

The command's payload goes to ``--out`` through ``twopartite.cli.run``,
its diagnostics to stderr, and the process exits with the command's exit
code, as the ``twopartite`` script does.  The last stdout line is a JSON
report: monotonic clock readings around ``cli.run`` (comparable with the
parent's readings on Linux), peak RSS and the payload size.  Linux only.  With
``--trace`` the layer boundaries are wrapped and the recorded spans are
written to that file after the command ends.  ``--probe`` stops right
before ``cli.run``; the benchmark times its set-up with it.
"""

import argparse
import json
import os
import sys
import time
from pathlib import Path


def peak_rss_kb() -> int:
    """This process's own peak RSS.  ``getrusage`` is not used: on Linux its
    ``ru_maxrss`` carries the parent's peak over through fork and exec."""
    with open("/proc/self/status", encoding="ascii") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM line in /proc/self/status")


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--src", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace")
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("argv", nargs=argparse.REMAINDER)
    opts = parser.parse_args()
    argv = opts.argv[1:] if opts.argv[:1] == ["--"] else opts.argv

    sys.path.insert(0, opts.src)
    from twopartite import cli

    run, tracer, missing = cli.run, None, []
    if opts.trace:
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        from layers import ROOT_SPAN, Tracer
        tracer = Tracer()
        missing = tracer.install()
        run = tracer.wrap(ROOT_SPAN, cli.run)

    t_start = time.monotonic()
    if opts.probe:
        print(json.dumps({"t_start": t_start}))
        return 0
    with open(opts.out, "w", encoding="utf-8") as out:
        code = run(argv, stdout=out, stderr=sys.stderr)
    t_end = time.monotonic()

    stdout_bytes = os.path.getsize(opts.out)
    if tracer is not None:
        tracer.spans[0][4] = {"stdout_bytes": stdout_bytes}
        with open(opts.trace, "w", encoding="utf-8") as f:
            json.dump({"missing": missing, "spans": tracer.spans}, f)
    print(json.dumps({"t_start": t_start, "t_end": t_end, "stdout_bytes": stdout_bytes,
                      "rss_kb": peak_rss_kb()}))
    return code


if __name__ == "__main__":
    sys.exit(main())
