"""Run one ``sixbeam`` command under the tracer in a fresh interpreter.

    python3 perfbench/child.py SPANS_JSON ARGV...

Writes the spans and captured warnings to SPANS_JSON and exits with the
command's exit code.  Used by the traced run of the ``cli-cold`` workload.
"""

import sys
import warnings

from tracer import Tracer

import sixbeam.cli


def main() -> int:
    path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    tracer.op = 0
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("always")
            warnings.showwarning = tracer.on_warning
            tracer.active = True
            return sixbeam.cli.main(argv)
    finally:
        tracer.active = False
        tracer.dump(path)


if __name__ == "__main__":
    sys.exit(main())
