"""Generate the stored reference outputs of the benchmark and cross-check them.

    python3 perfbench/make_reference.py [band tables progression]

For every input variant of each named workload this runs one untraced worker
pass on the current sources, cross-checks its outputs against the slow
oracles below, and writes perfbench/reference/<workload>.json.  It refuses to
write a file if any cross-check fails.

Oracles, all independent of the routes the benchmark times:
- trial division for spf, mu, phi and Lambda at the sampled n;
- the naive F_R table (one Ramanujan sum per r, fr_table_naive) against the
  fast table everywhere, against fr_value_naive at the sampled n, and, squared
  against Lambda, for the per-class second moment of every class;
- per-class theta_progression / rho sums on sampled moduli of each band mode,
  against a one-modulus variance_sum, and on d <= 30 against bdh_variance;
- the pair sweep fr_square_progression_mean, whose class means average over
  all N mod v to the v = 1 mean; and the refined prediction, which must lie
  within REFINED_TOL * x log x / v of the measured second moment.
"""

from __future__ import annotations

import json
import math
import re
import sys

import numpy as np
from run import BENCH, ROOT, flatten, git_revision, run_worker
from workloads import VARIANTS, WORKLOADS, Params, make_params

sys.path.insert(0, str(ROOT / "src"))
from vaughanlab import (  # noqa: E402
    FRConfig,
    Mode,
    RestrictionMode,
    bdh_variance,
    build_sieve,
    build_tables,
    constant_set,
    fr_square_progression_mean,
    fr_table_naive,
    fr_value_naive,
    rho,
    theta_progression,
    variance_sum,
)

ORACLE_TOL = 1e-9
# The refined prediction is exact in its main terms; criterion 6 of the test
# suite measures its worst deviation at 0.0023 of x log x / v (x = 10^6, R = 50).
REFINED_TOL = 0.02
EULER_GAMMA = 0.5772156649015329


def _close(a: float, b: float, tol: float = ORACLE_TOL) -> bool:
    return abs(a - b) <= tol * max(abs(a), abs(b), 1.0)


def _trial_division(n: int) -> tuple[int, int, int, float]:
    """(spf, mu, phi, Lambda) of n >= 2 by trial division."""
    m, spf, mu, phi, primes = n, 0, 1, n, []
    f = 2
    while f * f <= m:
        if m % f == 0:
            spf = spf or f
            primes.append(f)
            e = 0
            while m % f == 0:
                m //= f
                e += 1
            mu = 0 if e > 1 else -mu
        f += 1
    if m > 1:
        spf = spf or m
        primes.append(m)
        mu = -mu
    for p in primes:
        phi = phi // p * (p - 1)
    lam = math.log(primes[0]) if len(primes) == 1 else 0.0
    return spf, mu, phi, lam


def _band_oracle(p: Params, d: int, cfg: FRConfig, mode: str) -> float:
    if mode == "all":
        residues = range(d)
    elif mode == "coprime":
        residues = [b for b in range(d) if math.gcd(b, d) == 1]
    else:
        residues = [b for b in range(d) if math.gcd(p.n_shift - b, d) == 1]
    return math.fsum(
        (theta_progression(p.x, d, b, cfg.tables) - rho(p.x, d, b, cfg)) ** 2 for b in residues
    )


def cross_check(p: Params, out: dict, classes: list) -> list[str]:
    """Compare one pass's outputs with the slow oracles; return the disagreements."""
    bad: list[str] = []

    def expect(ok: bool, what: str) -> None:
        if not ok:
            bad.append(what)

    tables = build_tables(build_sieve(p.x))
    cfg = FRConfig(R=p.r, tables=tables)
    fast = cfg.table()
    naive = fr_table_naive(p.x, cfg)
    # Index 0 is outside the model's domain; the fast table stores 0 there.
    expect(float(np.max(np.abs(fast[1:] - naive[1:]))) <= ORACLE_TOL, "F_R table vs fr_table_naive")

    sampled = sorted({int(k[len("arith.lam["):-1]) for k in out if k.startswith("arith.lam[")})
    for n in sampled:
        if n < 2:
            continue
        spf, mu, phi, lam = _trial_division(n)
        expect(int(tables.sieve.spf[n]) == spf, f"spf[{n}]")
        expect(int(tables.mu[n]) == mu, f"mu[{n}]")
        expect(int(tables.phi[n]) == phi, f"phi[{n}]")
        expect(_close(out[f"arith.lam[{n}]"], lam, 1e-14), f"lam[{n}]")
        expect(_close(out[f"arith.fr[{n}]"], fr_value_naive(n, cfg)), f"F_R({n}) vs fr_value_naive")

    cs = constant_set()
    expect(_close(out["constants.gamma"], EULER_GAMMA, 1e-15), "gamma")
    expect(out["constants.c1"] == 2.0 * out["constants.c0"] - 1.0, "c1 = 2 c0 - 1")
    expect(out["constants.c2"] == out["constants.c0"] - 1.0, "c2 = c0 - 1")

    modes = {
        "all": RestrictionMode(Mode.ALL),
        "coprime": RestrictionMode(Mode.COPRIME),
        "shift_coprime": RestrictionMode(Mode.SHIFT_COPRIME, p.n_shift),
    }
    lo = math.floor(p.q_low) + 1
    for name, mode in modes.items():
        for d in sorted({lo, (lo + p.q) // 2, p.q}):
            one = variance_sum(p.x, d, cfg, mode, q_low=d - 1, threads=1, constants=cs).empirical
            expect(_close(one, _band_oracle(p, d, cfg, name)), f"{name} band at d={d}")
    q_bdh = min(p.bdh_q, 30)
    oracle = math.fsum(
        (theta_progression(p.x, d, b, tables) - p.x / int(tables.phi[d])) ** 2
        for d in range(1, q_bdh + 1)
        for b in range(d)
        if math.gcd(b, d) == 1
    )
    expect(_close(bdh_variance(p.x, q_bdh, tables, threads=1).empirical, oracle), f"bdh to d={q_bdh}")
    if q_bdh == p.bdh_q:
        expect(_close(out["band.bdh.empirical"], oracle), "stored bdh")

    for v, n, emp, _closed, refined in classes:
        start = n % v or v
        dv = tables.lam[start : p.x + 1 : v] - naive[start : p.x + 1 : v]
        expect(_close(emp, math.fsum(dv * dv)), f"delta_sq v={v} N={n} vs naive F_R")
        scale = p.x * math.log(p.x) / v
        expect(abs(emp - refined) <= REFINED_TOL * scale, f"refined prediction v={v} N={n}")

    m1 = fr_square_progression_mean(1, 1, cfg)
    for v in (6, 10):
        mean = math.fsum(fr_square_progression_mean(v, n, cfg) for n in range(1, v + 1)) / v
        expect(_close(mean, m1), f"pair sweep: class means mod {v} average to the v=1 mean")
    return bad


def generate(workload: str) -> dict:
    variants = {}
    for k in range(VARIANTS):
        p = make_params(workload, k)
        rec = run_worker(p, k, trace=0)
        bad = cross_check(p, rec["outputs"], rec["classes"])
        if bad:
            raise SystemExit(f"{workload} variant {k}: oracle disagreement: {'; '.join(bad)}")
        n_checked = len(flatten(rec["outputs"], rec["classes"]))
        print(f"{workload} variant {k}: {n_checked} outputs agree with the oracles", file=sys.stderr)
        variants[str(k)] = {"params": p.to_json(), "outputs": rec["outputs"], "classes": rec["classes"]}
    return {
        "workload": workload,
        "generated_by": "perfbench/make_reference.py",
        "git_revision": git_revision(),
        "variants": variants,
    }


def main() -> None:
    names = sys.argv[1:] or list(WORKLOADS)
    for name in names:
        if name not in WORKLOADS:
            raise SystemExit(f"unknown workload {name!r}")
    (BENCH / "reference").mkdir(exist_ok=True)
    for name in names:
        ref = generate(name)
        path = BENCH / "reference" / f"{name}.json"
        # One innermost list (a class row) per line keeps the file short and diffable.
        text = re.sub(r"\[\s+([^\[\]{}]*?)\s+\]", lambda m: "[" + " ".join(m.group(1).split()) + "]",
                      json.dumps(ref, indent=1))
        path.write_text(text + "\n")
        print(f"wrote {path}", file=sys.stderr)


if __name__ == "__main__":
    main()
