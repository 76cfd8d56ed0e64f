#!/usr/bin/env python3
"""Compare the two progression second-moment predictions against brute force.

For each class n = N (mod v) this prints the relative deviation, scaled by
x log x / v, of the empirical sum of (Lambda(n) - F_R(n))^2 from

  * the uncoupled closed form (theorem3_prediction), which replaces the
    per-class mean of F_R(n)^2 by (log R + c2)/v plus the coprime spike,
  * the coupled closed form (theorem3_coupled_prediction), which keeps the
    expansion pairs (a*b, a1*b) with a, a1 | v through a CRT sum, and
  * the refined prediction, which computes that mean exactly by the same
    CRT sum with the exact, table-backed G_v(y) in place of its main terms.

The uncoupled form drifts at main order once v > 1 because the pairs coupled
through v survive averaging over the class; the other two columns show the
remaining error is noise scale.
"""

from __future__ import annotations

import argparse
import math

from vaughanlab import (
    FRConfig,
    build_sieve,
    build_tables,
    constant_set,
    delta_sq_progression,
    theorem3_coupled_prediction,
    theorem3_prediction,
    theorem3_refined_prediction,
)


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--x", type=int, default=10**6)
    parser.add_argument("--R", type=float, default=50.0)
    parser.add_argument(
        "--v", default="1,2,3,5,6,7,10", help="comma-separated progression moduli"
    )
    return parser.parse_args()


def class_cases(v: int) -> list[int]:
    """The classes N mod v of the table as distinct residues in 1..v: N = 1, the
    least other N coprime to v when there is one, and N = v, the class of 0."""
    return sorted({1, v, next((k for k in range(2, v) if math.gcd(k, v) == 1), 1)})


def main() -> None:
    args = parse_args()
    moduli = [int(s) for s in args.v.split(",") if s.strip()]
    cfg = FRConfig(R=args.R, tables=build_tables(build_sieve(args.x)))
    cs = constant_set()
    print(f"x = {args.x}, R = {args.R}")
    print(
        f"{'v':>3} {'N':>3} {'empirical':>16} {'uncoupled dev':>16} {'coupled dev':>16} "
        f"{'exact-mean dev':>16}"
    )
    for v in moduli:
        for n_shift in class_cases(v):
            emp = delta_sq_progression(args.x, v, n_shift, cfg)
            closed = theorem3_prediction(args.x, v, n_shift, args.R, cs)
            coupled = theorem3_coupled_prediction(args.x, v, n_shift, args.R, cs)
            refined = theorem3_refined_prediction(args.x, v, n_shift, cfg, cs)
            scale = args.x * math.log(args.x) / v
            print(
                f"{v:>3} {n_shift:>3} {emp:>16.1f} "
                f"{abs(emp - closed.total) / scale:>16.4f} "
                f"{abs(emp - coupled.total) / scale:>16.4f} "
                f"{abs(emp - refined.total) / scale:>16.4f}"
            )


if __name__ == "__main__":
    main()
