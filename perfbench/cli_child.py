"""Run one ``miopt`` command under the span recorder and write its spans.

Usage: python3 perfbench/cli_child.py SPANS_JSON <miopt arguments...>

The traced ``cli`` workload starts this in place of ``python3 -m
miopt.cli``; ``miopt`` must be importable (the benchmark puts the
checkout's ``src`` on PYTHONPATH).  The exit code is miopt's.
"""

import sys

from tracing import Recorder, instrument


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    rec = Recorder()
    span = rec.begin("cli.import")
    import miopt.cli
    rec.end(span)
    instrument(rec)
    span = rec.begin("cli.main")
    try:
        return miopt.cli.main(argv)
    finally:
        rec.end(span)
        rec.dump(out)


if __name__ == "__main__":
    sys.exit(main())
