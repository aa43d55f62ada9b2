"""Run one hermhull CLI command in this fresh interpreter.

    python3 perfbench/child.py --q Q [--setup-only] [--trace-out F.npz] -- ARGV...

Set-up ends when ``gf.quadratic_field(q)`` first returns, after the
imports; the parent times it from just before it started this process.
Then ``cli.run(ARGV)`` runs with stdout captured, and the captured output
is written to stdout once the clock has stopped.  The last line on stderr
is a JSON record of the timings, prefixed with ``perfbench-meta``.
With ``--trace-out`` the layer tracer is installed after set-up and its
spans are written to the given file.
"""

import argparse
import io
import json
import resource
import sys
import time
from pathlib import Path

META_PREFIX = "perfbench-meta "
ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--q", type=int, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace-out")
    ap.add_argument("command", nargs=argparse.REMAINDER)
    args = ap.parse_args(argv)
    command = args.command[1:] if args.command[:1] == ["--"] else args.command

    sys.path.insert(0, str(ROOT / "src"))
    from hermhull import cli, gf
    gf.quadratic_field(args.q)
    meta = {"ready": time.perf_counter()}
    rc = 0
    if not args.setup_only:
        tracer = None
        if args.trace_out:
            from tracer import Tracer
            tracer = Tracer()
            tracer.install()
        captured = io.StringIO()
        real_stdout, sys.stdout = sys.stdout, captured
        t0 = time.perf_counter()
        try:
            rc = cli.run(command)
        finally:
            t1 = time.perf_counter()
            sys.stdout = real_stdout
        meta["wall_s"] = t1 - t0
        if tracer is not None:
            tracer.uninstall()
            meta["counts"] = tracer.dump(args.trace_out)
        sys.stdout.write(captured.getvalue())
        sys.stdout.flush()
    meta["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    sys.stderr.write(META_PREFIX + json.dumps(meta) + "\n")
    return rc


if __name__ == "__main__":
    sys.exit(main())
