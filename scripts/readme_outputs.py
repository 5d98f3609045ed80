#!/usr/bin/env python3
"""Run the README's five example commands and fingerprint their data files.

Usage:  PYTHONPATH=src python scripts/readme_outputs.py OUTDIR

Each command runs with ``--out OUTDIR/<stem>``; the script then prints one
``sha256  file`` line per data file (``*.table``, ``*.solution``,
``*.coefficients``, ``*.report``, ``*.trajectory``), sorted by file name.
Summaries are skipped because their ``timings_ms`` block varies between
runs.  The determinism contract makes the printed lines identical across
runs, so two checkouts produce the same data files exactly when

    diff <(PYTHONPATH=a/src python scripts/readme_outputs.py /tmp/a) \\
         <(PYTHONPATH=b/src python scripts/readme_outputs.py /tmp/b)

prints nothing.  The exit status is nonzero if any command fails.
"""

import hashlib
import sys
from pathlib import Path

from sixbeam.cli import main as sixbeam_main

#: (output stem, argv) for the README's example commands.
COMMANDS = (
    ("eigenvalues", ["eigenvalues", "--m-max", "6"]),
    ("m2", ["solve", "--model", "II", "--M", "100"]),
    ("custom", ["solve", "--a6", "1", "--a0", "100", "--forcing", "2:1,4:-2",
                "--M", "40"]),
    ("check", ["verify", "--max-index", "20"]),
    ("evolve", ["evolve", "--M", "60", "--forcing", "model-II", "--theta", "1",
                "--dt", "1e-4", "--steps", "200"]),
)

_DATA_KINDS = ("table", "solution", "coefficients", "report", "trajectory")


def main(argv: list) -> int:
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 1
    outdir = Path(argv[0])
    outdir.mkdir(parents=True, exist_ok=True)
    status = 0
    for stem, args in COMMANDS:
        code = sixbeam_main(args + ["--out", str(outdir / stem)])
        if code != 0:
            print(f"{' '.join(args)}: exit {code}", file=sys.stderr)
            status = 1
    for path in sorted(outdir.iterdir()):
        if len(path.suffixes) >= 2 and path.suffixes[-2][1:] in _DATA_KINDS:
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            print(f"{digest}  {path.name}")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
