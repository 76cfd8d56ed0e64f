"""Acceptance gate: ten numbered criteria, one verdict line each.

Each test prints `criterion N: PASS/FAIL - detail` before asserting, so the
full scoreboard is visible in the run log.  Criterion 6 asserts the theorem-3
closed form that keeps the expansion pairs coupled through the modulus
(theorem3_coupled_prediction).  It prints beside it the older closed form,
which drops those pairs and drifts at main order for v > 1, and the
exact-mean variant, which shows that the empirical side is sound.
"""

import math
import random
import time

import numpy as np

from vaughanlab import (
    FRConfig,
    Mode,
    ProductKind,
    RestrictionMode,
    Weight,
    accumulate_modulus,
    delta_sq_progression,
    fr_table_naive,
    mu2_over_phi_sum,
    ramanujan_sum,
    ramanujan_sum_oracle,
    restricted_product,
    rho,
    t_of_n,
    theorem3_coupled_prediction,
    theorem3_prediction,
    theorem3_refined_prediction,
    theta_progression,
    variance_sum,
    verify_mobius_cr_range,
    zeta2_inv,
)
from vaughanlab.arith import is_squarefree
from vaughanlab.cli import main as cli_main
from vaughanlab.cli import report as cli_report
from vaughanlab.constants import constant_set, euler_gamma_bessel, euler_gamma_harmonic


def _verdict(num: int, ok: bool, detail: str) -> str:
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    return line


def test_criterion_01_exact_identity_suite(tables_small):
    t0 = time.perf_counter()
    count = verify_mobius_cr_range(1000, tables_small.sieve)
    dt = time.perf_counter() - t0
    expect = sum(v + 1 for v in range(1, 1001) if is_squarefree(v, tables_small.sieve))
    ok = count == expect and dt < 10.0
    line = _verdict(1, ok, f"{count} (v, N) pairs exact in {dt:.2f}s (budget 10s)")
    assert ok, line


def test_criterion_02_ramanujan_oracle_equivalence(tables_small, tables_1e4):
    sieve = tables_small.sieve
    worst = 0.0
    for r in range(1, 201):
        for n in range(0, 2 * r + 1):
            worst = max(worst, abs(ramanujan_sum_oracle(r, n) - ramanujan_sum(r, n, sieve)))
    # products r1 * r2 reach 3600, so use the larger sieve here
    big = tables_1e4.sieve
    rng = random.Random(97)
    mult_ok = 0
    while mult_ok < 100:
        r1 = rng.randint(1, 60)
        r2 = rng.randint(1, 60)
        if math.gcd(r1, r2) != 1:
            continue
        n = rng.randint(0, 200)
        assert ramanujan_sum(r1 * r2, n, big) == ramanujan_sum(r1, n, big) * ramanujan_sum(
            r2, n, big
        )
        mult_ok += 1
    ok = worst <= 1e-8
    line = _verdict(
        2, ok, f"max |exp-sum - divisor| = {worst:.2e} (tol 1e-8); {mult_ok} coprime products exact"
    )
    assert ok, line


def test_criterion_03_dual_route_model(tables_1e5):
    t0 = time.perf_counter()
    worst = 0.0
    x = 100_000
    for R in (1.0, 2.0, 10.0, 50.0, 200.0):
        cfg = FRConfig(R=R, tables=tables_1e5)
        naive = fr_table_naive(x, cfg)
        fast = cfg.table()[: x + 1]
        denom = np.maximum(1.0, np.abs(naive[1:]))
        worst = max(worst, float(np.max(np.abs(fast[1:] - naive[1:]) / denom)))
    dt = time.perf_counter() - t0
    ok = worst <= 1e-9 and dt < 60.0
    line = _verdict(3, ok, f"max rel diff {worst:.2e} over n <= 1e5, 5 truncations, {dt:.1f}s")
    assert ok, line


def test_criterion_04_partial_sum_asymptotic(tables_1e6, cs):
    rows = []
    ok = True
    for R in (10.0**2, 10.0**3, 10.0**4, 10.0**5, 10.0**6):
        err = abs(mu2_over_phi_sum(R, tables_1e6) - (math.log(R) + cs.c2))
        bound = 3.0 / math.sqrt(R)
        ok = ok and err <= bound
        rows.append(f"R=1e{int(math.log10(R))}: err {err:.1e} <= {bound:.1e}")
    line = _verdict(4, ok, "; ".join(rows))
    assert ok, line


def test_criterion_05_constants(cs):
    g1, g2 = euler_gamma_harmonic(), euler_gamma_bessel()
    checks = {
        "zeta2_inv": abs(zeta2_inv() - 0.6079271) <= 1e-6,
        "P_PM1(1)": abs(restricted_product(ProductKind.P_PM1, 1).value - 0.3739558) <= 1e-6,
        "P_SQ(2)": abs(restricted_product(ProductKind.P_SQ, 2).value - 0.6601618) <= 1e-6,
        "gamma dual paths": abs(g1 - g2) <= 1e-12,
        "c0 = 1 + c2": cs.c0 == 1.0 + cs.c2,
    }
    # stability to 1e-6 under cutoff 1e6 -> 1e7 for the four tabulated
    # quantities (c1 and c2 are linear in c0 and inherit its behaviour)
    low = constant_set(10**6)
    checks["c0 cutoff-stable"] = abs(low.c0 - cs.c0) <= 1e-6
    for kind, n in ((ProductKind.P_PM1, 1), (ProductKind.P_SQ, 2), (ProductKind.P_ZETA, 1)):
        a = restricted_product(kind, n, 10**6).value
        b = restricted_product(kind, n, 10**7).value
        checks[f"{kind.name}({n}) cutoff-stable"] = abs(a - b) <= 1e-6
    ok = all(checks.values())
    bad = [k for k, v in checks.items() if not v]
    print(
        f"  note: c0 evaluates to {cs.c0:.12f}; the tabulated reference 2.350372 "
        "disagrees by 1.8e-2, fails the partial-sum asymptotic of criterion 4 and the "
        "Mertens-constant cross-check, so the dual-path derived value is asserted here"
    )
    line = _verdict(
        5, ok, "all dual-path/stability checks hold" if ok else f"failed: {bad}"
    )
    assert ok, line


def _class_cases(v: int) -> list[int]:
    """N = 1, the least other N coprime to v when there is one, and N = v, as distinct residues mod v."""
    return sorted({1, v, next((k for k in range(2, v) if math.gcd(k, v) == 1), 1)})


def test_criterion_06_progression_second_moment(cfg50_1e6, cs):
    t0 = time.perf_counter()
    x = 1_000_000
    worst = 0.0
    worst_uncoupled = 0.0
    worst_refined = 0.0
    print("  v   N   dev(uncoupled)   dev(coupled)   dev(exact-mean)")
    for v in (1, 2, 3, 5, 6, 7, 10):
        for N in _class_cases(v):
            emp = delta_sq_progression(x, v, N, cfg50_1e6)
            uncoupled = theorem3_prediction(x, v, N, 50.0, cs)
            pred = theorem3_coupled_prediction(x, v, N, 50.0, cs)
            refined = theorem3_refined_prediction(x, v, N, cfg50_1e6, cs)
            scale = x * math.log(x) / v
            dev_u = abs(emp - uncoupled.total) / scale
            dev = abs(emp - pred.total) / scale
            dev_r = abs(emp - refined.total) / scale
            worst = max(worst, dev)
            worst_uncoupled = max(worst_uncoupled, dev_u)
            worst_refined = max(worst_refined, dev_r)
            print(f"  {v:2d} {N:3d}      {dev_u:8.4f}       {dev:8.4f}        {dev_r:8.4f}")
    dt = time.perf_counter() - t0
    ok = worst <= 0.10 and dt < 120.0
    print(
        "  note: the uncoupled closed form (theorem3_prediction) keeps only expansion pairs "
        "with trivial coupling to the modulus; pairs (a*b, a1*b) with a, a1 | v contribute "
        f"at main order, so it drifts by up to {worst_uncoupled:.4f}.  The exact-mean "
        f"variant deviates by at most {worst_refined:.4f}, so the empirical side is sound."
    )
    line = _verdict(
        6,
        ok,
        f"worst |emp - pred| / (x log x / v) = {worst:.4f} (tol 0.10) in {dt:.0f}s; "
        f"uncoupled form worst {worst_uncoupled:.4f}; exact-mean variant worst "
        f"{worst_refined:.4f}",
    )
    assert ok, line


def test_criterion_07_banded_variance(tables_1e5, cs):
    t0 = time.perf_counter()
    x, q, r = 100_000, 10_000, 30.0
    q_low = x / r
    cfg = FRConfig(R=r, tables=tables_1e5)
    run_all = variance_sum(x, q, cfg, RestrictionMode(Mode.ALL), q_low=q_low, constants=cs)
    ratio = run_all.empirical / run_all.predicted_total
    run_cop = variance_sum(x, q, cfg, RestrictionMode(Mode.COPRIME), q_low=q_low)
    gap = (run_all.empirical - run_cop.empirical) / run_all.empirical
    dt = time.perf_counter() - t0
    ok = 0.85 <= ratio <= 1.15 and run_cop.empirical < run_all.empirical and gap > 0.01 and dt < 600
    line = _verdict(
        7,
        ok,
        f"empirical/predicted = {ratio:.4f} in [0.85, 1.15]; coprime sits {gap:.2%} below all "
        f"(needs > 1%); {dt:.0f}s",
    )
    assert ok, line


def test_criterion_08_truncation_exponent_table(tmp_path, capsys):
    t1, t2, t6 = t_of_n(1), t_of_n(2), t_of_n(6)
    vals_ok = (
        abs(t2.value - 1.1872) <= 1e-3
        and abs(t6.value - 1.3226) <= 1e-3
        and abs(t1.value - 0.3743) <= 1e-3
    )
    code = cli_main(["constants", "--out", str(tmp_path)])
    capsys.readouterr()
    text = cli_report([str(tmp_path / "manifest.json")])
    flagged = "t(1)" in text and "below 1" in text
    ok = vals_ok and code == 0 and flagged and not t1.meets_lower_bound
    line = _verdict(
        8,
        ok,
        f"t(1)={t1.value:.4f} t(2)={t2.value:.4f} t(6)={t6.value:.4f}; "
        "report flags t(1) below the claimed lower bound 1 (documented, not a failure)",
    )
    assert ok, line


def test_criterion_09_thread_determinism(tables_1e5, cs, tmp_path, capsys):
    x, q, r, q_low = 100_000, 2_000, 30.0, 1_000.0
    cfg = FRConfig(R=r, tables=tables_1e5)
    emps = [
        variance_sum(x, q, cfg, RestrictionMode(Mode.ALL), q_low=q_low, threads=t).empirical
        for t in (1, 4, 8)
    ]
    bits_ok = emps[0] == emps[1] == emps[2]
    csv_texts = []
    for t in (1, 4, 8):
        out = tmp_path / f"t{t}"
        code = cli_main(
            ["vaughan", "--x", str(x), "--Q", str(q), "--R", "30", "--q-low", "1000",
             "--threads", str(t), "--out", str(out)]
        )
        assert code == 0
        capsys.readouterr()
        lines = (out / "results.csv").read_text().splitlines()
        header = lines[0].split(",")
        keep = [i for i, c in enumerate(header) if c != "wall_time_ms"]
        csv_texts.append([",".join(row.split(",")[i] for i in keep) for row in lines])
    csv_ok = csv_texts[0] == csv_texts[1] == csv_texts[2]
    ok = bits_ok and csv_ok
    line = _verdict(
        9,
        ok,
        f"empirical bit-identical at 1/4/8 threads ({emps[0]!r}); "
        "CSV bytes identical outside wall_time_ms",
    )
    assert ok, line


def test_criterion_10_invariant_battery(cfg50_1e6, tables_1e6, tables_1e5, cs):
    x6 = 1_000_000
    details = []
    # partition identity per modulus at full scale
    part_ok = True
    full = theta_progression(x6, 1, 0, tables_1e6) - rho(x6, 1, 0, cfg50_1e6)
    for d in (1, 7, 360, 1000):
        acc = accumulate_modulus(d, x6, cfg50_1e6)
        lhs = float((acc.theta_buckets - acc.rho_buckets).sum())
        part_ok = part_ok and abs(lhs - full) <= 1e-6 * max(1.0, abs(full))
    details.append(f"partition identity ok={part_ok}")
    # mode nesting per modulus
    cfg5 = FRConfig(R=30.0, tables=tables_1e5)
    nest_ok = True
    for d in range(1, 41):
        a = variance_sum(100_000, d, cfg5, RestrictionMode(Mode.ALL), q_low=d - 1).empirical
        c = variance_sum(100_000, d, cfg5, RestrictionMode(Mode.COPRIME), q_low=d - 1).empirical
        nest_ok = nest_ok and a >= c - 1e-9
    details.append(f"mode nesting ok={nest_ok}")
    # monotone in Q
    e100 = variance_sum(100_000, 100, cfg5, RestrictionMode(Mode.ALL)).empirical
    e200 = variance_sum(100_000, 200, cfg5, RestrictionMode(Mode.ALL)).empirical
    e300 = variance_sum(100_000, 300, cfg5, RestrictionMode(Mode.ALL)).empirical
    mono_ok = e300 >= e200 >= e100
    details.append(f"monotone in Q ok={mono_ok}")
    # weight choice at x = 1e6 (banded to keep the run short)
    th = variance_sum(x6, 1_000, cfg50_1e6, RestrictionMode(Mode.ALL), q_low=900).empirical
    ps = variance_sum(
        x6, 1_000, cfg50_1e6, RestrictionMode(Mode.ALL), weight=Weight.PSI, q_low=900
    ).empirical
    wdiff = abs(th - ps) / th
    weight_ok = wdiff <= 0.05
    details.append(f"psi-vs-theta rel diff {wdiff:.4f} <= 0.05")
    # v = 1 reduction: progression residual sum against the collapsed form
    emp = delta_sq_progression(x6, 1, 0, cfg50_1e6)
    collapsed = x6 * (math.log(x6 / 50.0) - cs.c0)
    red_ok = abs(emp - collapsed) / collapsed <= 0.10
    pred_total = theorem3_prediction(x6, 1, 0, 50.0, cs).total
    red_ok = red_ok and abs(pred_total - collapsed) <= 1e-12 * abs(collapsed)
    details.append(f"v=1 collapse dev {abs(emp - collapsed) / collapsed:.4f} <= 0.10")
    ok = part_ok and nest_ok and mono_ok and weight_ok and red_ok
    line = _verdict(10, ok, "; ".join(details))
    assert ok, line
