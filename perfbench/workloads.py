"""Workload parameters for the vaughanlab benchmark, derived from a seed.

Every workload runs the whole experiment battery that the CLI suite runs:
set-up (sieve, dense tables, F_R weights and table, constants), a banded
variance part (ALL, COPRIME and SHIFT_COPRIME sums plus the classical BDH
variance) and a progression part (per-class second moments with the closed
and refined theorem-3 predictions).  The sizes pick which layer dominates:

- band: the desk-suite band x = 10^5, Q = 10^4, (x/R, Q]; the banded bucket
  kernel takes almost all of the time;
- tables: x = 10^7; building the dense tables takes most of the time, the
  band is two moduli wide, so the banded kernel is a small share;
- progression: x = 10^6, R = 100 = x^(1/3), every class N mod v for every
  squarefree v <= 60; strided per-class sums and the exact class mean
  dominate, the band is two moduli wide.

The seed picks one of VARIANTS input variants (x moved by under 2 percent,
the theorem-4 shift N), so each seed maps to inputs that have a stored
reference and the dominant layer never changes.  Seed 0 gives the base sizes.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

WORKLOADS = ("band", "tables", "progression")
SCALES = ("full", "tiny")
VARIANTS = 4

# Moduli v of the theorem-3 table in the CLI, its README and its scripts.
CLI_V_LIST = (1, 2, 3, 5, 6, 7, 10)


@dataclass(frozen=True)
class Params:
    """Inputs of one workload run.

    x: table limit and summation length; r: truncation level R.
    q, q_low: the band Q_low < d <= Q of the three variance_sum calls;
    n_shift: the theorem-4 shift N; bdh_q: bdh_variance runs over d <= bdh_q.
    classes: the (v, N) progression classes, in the order they are run.
    """

    workload: str
    scale: str
    variant: int
    x: int
    r: float
    q: int
    q_low: float
    n_shift: int
    bdh_q: int
    classes: tuple[tuple[int, int], ...]

    def to_json(self) -> dict:
        out = asdict(self)
        out["classes"] = [list(c) for c in self.classes]
        return out


def _squarefree(n: int) -> bool:
    return all(n % (p * p) for p in range(2, math.isqrt(n) + 1))


def all_classes(v_max: int) -> tuple[tuple[int, int], ...]:
    """Every class N = 1..v for every squarefree v <= v_max."""
    return tuple((v, n) for v in range(1, v_max + 1) if _squarefree(v) for n in range(1, v + 1))


def make_params(workload: str, seed: int, scale: str = "full") -> Params:
    """Inputs for one run; the same (workload, seed, scale) gives the same inputs."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    if scale not in SCALES:
        raise ValueError(f"unknown scale {scale!r}; choose from {', '.join(SCALES)}")
    k = seed % VARIANTS
    tiny = scale == "tiny"
    n_shift = 2 + k
    if workload == "band":
        x = (2_000 + 10 * k) if tiny else (100_000 + 500 * k)
        r = 10.0 if tiny else 30.0
        q = 400 if tiny else 10_000
        return Params(workload, scale, k, x, r, q, x / r, n_shift, q, tuple((v, 1) for v in CLI_V_LIST))
    if workload == "tables":
        x = (20_000 + 100 * k) if tiny else (10_000_000 + 50_000 * k)
        r = 10.0 if tiny else 50.0
        classes = tuple((v, 1) for v in CLI_V_LIST)
    else:
        x = (5_000 + 50 * k) if tiny else (1_000_000 + 5_000 * k)
        r = 10.0 if tiny else 100.0
        classes = all_classes(6 if tiny else 60)
    # A two-modulus band at the top of Q = sqrt(x), so the banded kernel runs
    # on the workload's own tables without dominating it.
    q = math.isqrt(x)
    return Params(workload, scale, k, x, r, q, float(q - 2), n_shift, 2, classes)


def _phi_upto(n: int) -> np.ndarray:
    phi = np.arange(n + 1, dtype=np.int64)
    for p in range(2, n + 1):
        if phi[p] == p:
            phi[p::p] -= phi[p::p] // p
    return phi


def work_counts(p: Params) -> dict[str, int]:
    """Work done by one pass, computed from the inputs alone.

    variance.moduli and variance.classes are summed over the four banded calls
    (ALL, COPRIME, SHIFT_COPRIME, BDH).  ALL sums d classes per modulus; the
    other three sum phi(d), since b -> N - b permutes the residues mod d.
    """
    phi = _phi_upto(max(p.q, p.bdh_q))
    band = np.arange(math.floor(p.q_low) + 1, p.q + 1)
    bdh = np.arange(1, p.bdh_q + 1)
    return {
        "arith.n": p.x,
        "frmodel.squarefree_r": sum(1 for r in range(1, math.floor(p.r) + 1) if _squarefree(r)),
        "variance.moduli": 3 * len(band) + len(bdh),
        "variance.classes": int(band.sum() + 2 * phi[band].sum() + phi[bdh].sum()),
        "variance.progression_classes": len(p.classes),
    }
