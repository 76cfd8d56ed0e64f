#!/usr/bin/env python3
"""Print one sha256 per benchmark workload over every output its worker produces.

    PYTHONPATH=src python3 scripts/output_digest.py                  # seeds 0-3, full size
    PYTHONPATH=src python3 scripts/output_digest.py --scale tiny --seeds 0
    PYTHONPATH=src python3 scripts/output_digest.py --workloads tables  # one workload

For each workload given (all three by default, printed in perfbench's
order), and each seed in the order given, it runs one untraced
pass of perfbench/worker.py's setup and solve and takes every output the
worker reports: the band sums and predictions, the class rows and
table_outputs (the sha256 of the integer tables, the sums and sampled values
of the float tables, and the constants).  They are hashed as canonical JSON
with every float written by float.hex(), so two checkouts print the same
line for a workload exactly when every output of every seed is equal bit
for bit.  The vaughanlab it runs is the one on PYTHONPATH; perfbench's
workloads and worker are read from this checkout and are not modified.  To
check a bit-identity claim, run it once per checkout and diff the prints:

    PYTHONPATH=../parent/src python3 scripts/output_digest.py > parent.txt
    PYTHONPATH=src python3 scripts/output_digest.py > change.txt
    diff parent.txt change.txt
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import worker  # noqa: E402
from workloads import SCALES, WORKLOADS, make_params  # noqa: E402


def canonical(value):
    """value with every float replaced by its float.hex() string, for an exact JSON form."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return {k: canonical(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [canonical(v) for v in value]
    return value


def workload_outputs(workload: str, seed: int, scale: str) -> dict:
    """Every output of one untraced worker pass: its scalars, class rows and table outputs."""
    p = make_params(workload, seed, scale)
    tr = worker.Tracer(enabled=False)
    tables, cfg, cs = worker.setup(p, tr)
    outputs, classes = worker.solve(p, tables, cfg, cs, tr)
    outputs.update(worker.table_outputs(p, tables, cfg, cs))
    return {"seed": seed, "outputs": outputs, "classes": classes}


def digest(workload: str, seeds: list[int], scale: str) -> str:
    runs = [canonical(workload_outputs(workload, seed, scale)) for seed in seeds]
    return hashlib.sha256(json.dumps(runs, sort_keys=True).encode()).hexdigest()


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--scale", choices=SCALES, default="full")
    ap.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2, 3])
    ap.add_argument("--workloads", nargs="+", choices=WORKLOADS, default=list(WORKLOADS))
    args = ap.parse_args()
    print(f"vaughanlab {worker.vaughanlab.__file__}", file=sys.stderr)
    for workload in WORKLOADS:
        if workload in args.workloads:
            print(workload, digest(workload, args.seeds, args.scale))


if __name__ == "__main__":
    main()
