"""Child interpreters that the benchmark starts.

    child.py setup --workload NAME --seed N   import framevol, build the inputs, print their digest
    child.py import                           print the seconds ``import framevol.cli`` took
    child.py cli [--trace-out PATH] -- ARGS   run ``framevol ARGS``, as ``python3 -m framevol ARGS``
                                              does; with --trace-out, traced, the counters
                                              written to PATH

The cli mode prints, as the last line of its stderr, ``peak_rss_mb <MB>``:
the child's own peak resident memory, which the parent cannot measure.
"""

from __future__ import annotations

import argparse
import json
import sys
from time import perf_counter

import checkout


def main() -> int:
    parser = argparse.ArgumentParser(prog="child.py")
    sub = parser.add_subparsers(dest="mode", required=True)
    setup = sub.add_parser("setup")
    setup.add_argument("--workload", required=True)
    setup.add_argument("--seed", type=int, required=True)
    sub.add_parser("import")
    cli = sub.add_parser("cli")
    cli.add_argument("--trace-out")
    cli.add_argument("args", nargs=argparse.REMAINDER)
    opts = parser.parse_args()

    checkout.cap_threads()
    if opts.mode == "import":
        start = perf_counter()
        checkout.import_framevol()
        import framevol.cli  # noqa: F401

        print(repr(perf_counter() - start))
        return 0

    fv = checkout.import_framevol()
    if opts.mode == "setup":
        import workloads

        workload = workloads.WORKLOADS[opts.workload]
        print(workload.digest(workload.build(fv, opts.seed)))
        return 0

    import framevol.cli

    args = opts.args[1:] if opts.args[:1] == ["--"] else opts.args
    try:
        if opts.trace_out is None:
            return framevol.cli.main(args)
        import layers

        tracer = layers.Tracer()
        with tracer:
            code = framevol.cli.main(args)
        with open(opts.trace_out, "w", encoding="utf-8") as handle:
            json.dump(tracer.stats, handle)
        return code
    finally:
        sys.stdout.flush()
        print(f"peak_rss_mb {checkout.peak_rss_mb()!r}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
