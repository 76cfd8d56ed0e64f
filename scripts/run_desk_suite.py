#!/usr/bin/env python3
"""Run the full desk-scale experiment battery and print where the report landed.

Thin wrapper over `vaughanlab suite`.  Desk scale takes about 0.75 s single
threaded on a 2-vCPU Xeon VM, timed in-process around the suite call (median
of 12 fresh processes, 0.69-1.00 s), plus the interpreter's start-up.  Its
bands are wide, so they take the single-threaded lag route; --threads only
spreads narrow bands, which take the per-modulus route, over threads.
--scale quick gives a smoke run.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from vaughanlab.cli import main as cli_main


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="runs/desk", help="output directory (default runs/desk)")
    parser.add_argument("--threads", type=int, default=1)
    parser.add_argument("--scale", choices=["desk", "quick"], default="desk")
    return parser.parse_args()


def main() -> int:
    args = parse_args()
    rc = cli_main(
        [
            "suite",
            "--scale",
            args.scale,
            "--out",
            args.out,
            "--threads",
            str(args.threads),
        ]
    )
    if rc == 0:
        report = Path(args.out) / "report.txt"
        print(f"\nreport written to {report}", file=sys.stderr)
    return rc


if __name__ == "__main__":
    raise SystemExit(main())
