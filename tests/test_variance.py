"""Variance accumulation and main-term prediction tests."""

import bisect
import copy
import dataclasses
import functools
import gc
import math
import sys
import tracemalloc
import unittest.mock
import weakref
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings
from pytest import approx, raises

from vaughanlab import (
    FRConfig,
    Mode,
    ProductKind,
    RestrictionMode,
    Weight,
    accumulate_modulus,
    bdh_variance,
    build_sieve,
    build_tables,
    delta_sq_progression,
    factorize,
    mu2_over_phi_sum,
    restricted_product,
    rho,
    t_of_n,
    theorem3_coupled_prediction,
    theorem3_prediction,
    theorem3_refined_prediction,
    theorem4_prediction,
    theorem5_prediction,
    theta_progression,
    variance_sum,
    vaughan_prediction,
)
from vaughanlab import frmodel, variance
from vaughanlab.arith import _weight
from vaughanlab.frmodel import _coprime_mu2_over_phi, delta_indicator, fr_square_progression_mean
from vaughanlab.variance import (
    _LAG_MODULI_PER_LOG2_X,
    _bucket_band_sum,
    _bucket_sums,
    _check_theorem3_args,
    _coprime_first_moments,
    _coprime_mu2_over_phi_main_terms,
    _crt_class_mean,
    _lag_band_sum,
    _lag_route,
    _lag_weights,
    _row_weights,
    _smooth_size,
    _theorem3_budget,
)


def _array_band_sum(moduli, x, arr, restriction, tables, threads=1):
    """The bucket route over the array arr: the row sums of every modulus."""
    return _bucket_band_sum(moduli, x, functools.partial(_bucket_sums, arr, x), restriction, tables, threads)


@pytest.fixture(scope="module")
def cfg10_small(tables_small):
    return FRConfig(R=10.0, tables=tables_small)


@pytest.fixture(scope="module")
def cfg20_1e4(tables_1e4):
    return FRConfig(R=20.0, tables=tables_1e4)


def test_accumulate_single_modulus_collapse(cfg10_small, tables_small):
    acc = accumulate_modulus(1, 2_000, cfg10_small)
    assert acc.d == 1
    assert acc.theta_buckets.shape == (1,)
    assert acc.theta_buckets[0] == approx(theta_progression(2_000, 1, 0, tables_small), rel=1e-12)
    assert acc.rho_buckets[0] == approx(rho(2_000, 1, 0, cfg10_small), rel=1e-12)


@settings(deadline=None, max_examples=60)
@given(st.integers(1, 40), st.integers(10, 2_000))
def test_partition_identity_per_modulus(cfg10_small, d, x):
    acc = accumulate_modulus(d, x, cfg10_small)
    lhs = float((acc.theta_buckets - acc.rho_buckets).sum())
    rhs = theta_progression(x, 1, 0, cfg10_small.tables) - rho(x, 1, 0, cfg10_small)
    assert lhs == approx(rhs, rel=1e-6, abs=1e-6)


def test_spec_single_modulus_example(tables_small):
    cfg = FRConfig(R=1.0, tables=tables_small)
    run = variance_sum(100, 1, cfg, RestrictionMode(Mode.ALL))
    want = (theta_progression(100, 1, 0, tables_small) - 100.0) ** 2
    assert run.empirical == approx(want, rel=1e-12)


def test_two_modulus_coprime_example(tables_small):
    cfg = FRConfig(R=2.0, tables=tables_small)
    run = variance_sum(100, 2, cfg, RestrictionMode(Mode.COPRIME))
    d1 = (theta_progression(100, 1, 0, tables_small) - rho(100, 1, 0, cfg)) ** 2
    d2 = (theta_progression(100, 2, 1, tables_small) - rho(100, 2, 1, cfg)) ** 2
    assert run.empirical == approx(d1 + d2, rel=1e-12)


def test_mode_nesting_per_modulus(cfg10_small):
    # the coprime sum drops nonnegative terms, modulus by modulus
    for d in range(1, 25):
        all_run = variance_sum(2_000, d, cfg10_small, RestrictionMode(Mode.ALL), q_low=d - 1)
        cop_run = variance_sum(2_000, d, cfg10_small, RestrictionMode(Mode.COPRIME), q_low=d - 1)
        assert all_run.empirical >= cop_run.empirical - 1e-9


@settings(deadline=None, max_examples=40)
@given(st.integers(2, 50), st.integers(1, 49))
def test_monotone_in_q(cfg10_small, q2, q1):
    if q1 >= q2:
        return
    lo = variance_sum(2_000, q1, cfg10_small, RestrictionMode(Mode.ALL))
    hi = variance_sum(2_000, q2, cfg10_small, RestrictionMode(Mode.ALL))
    assert hi.empirical >= lo.empirical - 1e-9


def test_shift_reindexing_with_flat_approximant(cfg10_small):
    # with a residue-independent approximant the shifted-coprime sum is a
    # reindexing of the coprime sum, so the two fsum values agree bitwise
    x = 2_000
    for d in (4, 6, 9, 12):
        acc = accumulate_modulus(d, x, cfg10_small)
        a = x / float(cfg10_small.tables.phi[d])
        for n_shift in (1, 2, 3):
            lhs = math.fsum(
                (float(acc.theta_buckets[b]) - a) ** 2
                for b in range(d)
                if math.gcd(n_shift - b, d) == 1
            )
            rhs = math.fsum(
                (float(acc.theta_buckets[(n_shift - c) % d]) - a) ** 2
                for c in range(d)
                if math.gcd(c, d) == 1
            )
            assert lhs == rhs


def test_thread_count_does_not_change_bits(cfg10_small):
    runs = [
        variance_sum(2_000, 60, cfg10_small, RestrictionMode(Mode.ALL), threads=t)
        for t in (1, 2, 4)
    ]
    assert runs[0].empirical == runs[1].empirical == runs[2].empirical


# Bands (Q_low, Q] at x = 2000: Q_low = 0 takes in d = 1; a non-integer
# Q_low; Q = x with every d > x/2; a band straddling x/2.
LAG_ORACLE_BANDS = ((0.0, 300), (333.3, 700), (1_000.0, 2_000), (850.5, 1_400))
# SHIFT_COPRIME with N = 6 and 7 below most d and N = 2310 above every d;
# 6 and 2310 = 2*3*5*7*11 are 0 mod p for many p | d.
LAG_ORACLE_MODES = (
    RestrictionMode(Mode.ALL),
    RestrictionMode(Mode.COPRIME),
    RestrictionMode(Mode.SHIFT_COPRIME, 6),
    RestrictionMode(Mode.SHIFT_COPRIME, 7),
    RestrictionMode(Mode.SHIFT_COPRIME, 2_310),
    RestrictionMode(Mode.BDH),
)
VARIANCE_SUM_MODES = [r for r in LAG_ORACLE_MODES if r.mode is not Mode.BDH]


@pytest.mark.parametrize("weight", list(Weight))
@pytest.mark.parametrize("restriction", LAG_ORACLE_MODES, ids=lambda r: f"{r.mode.value}-{r.N}")
def test_lag_route_matches_bucket_route(cfg10_small, restriction, weight):
    x = 2_000
    w = _weight(cfg10_small.tables, x, weight is Weight.THETA)
    arr = w if restriction.mode is Mode.BDH else w[: x + 1] - cfg10_small.table()[: x + 1]
    for q_low, q in LAG_ORACLE_BANDS:
        moduli = range(math.floor(q_low) + 1, q + 1)
        want = _array_band_sum(moduli, x, arr, restriction, cfg10_small.tables)
        got = _lag_band_sum(moduli, x, arr, restriction, cfg10_small.tables)[0]
        assert type(got) is float
        assert got == approx(want, rel=1e-12), (q_low, q)


def _autocorrelation(a):
    """A(j) = sum_n a[n] a[n + j] for 0 <= j < len(a), directly up to 384 entries, else by FFT."""
    n = len(a)
    if n <= 384:
        return np.correlate(a, a, "full")[n - 1 :]
    size = 1 << (2 * n - 2).bit_length()
    spec = np.fft.rfft(a, size)
    return np.fft.irfft(spec.real * spec.real + spec.imag * spec.imag, size)[:n]


def _lag_band_all(a, lo, hi):
    """sum_{lo < f <= hi} sum_{b mod f} S_b(f)^2 of one array, one divisor slice per f."""
    n = len(a)
    acf = _autocorrelation(a)
    counts = np.zeros(n)
    for f in range(lo + 1, min(hi, n - 1) + 1):
        counts[f::f] += 1.0
    lags = float(np.sum(counts[1:] * acf[1:]))
    return math.fsum(((hi - lo) * math.fsum(a * a), 2.0 * lags))


def _per_e_lag_band_sum(moduli, x, arr, restriction, tables):
    """_lag_band_sum with one _lag_band_all call per squarefree e (the oracle)."""
    lo, hi = moduli.start - 1, moduli.stop - 1
    a = arr[: x + 1]
    if restriction.shift is None:
        return _lag_band_all(a, lo, hi)
    parts = [
        int(tables.mu[e]) * _lag_band_all(a[restriction.shift % e :: e], lo // e, hi // e)
        for e in range(1, hi + 1)
        if tables.mu[e] and hi // e > lo // e
    ]
    band = math.fsum(parts)
    if restriction.mode is not Mode.BDH:
        return band
    approx_ = x / tables.phi[lo + 1 : hi + 1].astype(np.float64)
    first = _coprime_first_moments_loop(a, hi, tables.sieve.primes())[lo + 1 :]
    return math.fsum((band, math.fsum(approx_ * (x - 2.0 * first))))


def _coprime_first_moments_loop(w, q, primes):
    """F(d) = sum of w over n coprime to d, d <= q: a power loop and a slice per prime p <= q (the oracle)."""
    x = len(w) - 1
    first = np.full(q + 1, math.fsum(w))
    for p in primes[: np.searchsorted(primes, q, side="right")].tolist():
        powers = []
        pk = p
        while pk <= x:
            powers.append(w[pk])
            pk *= p
        first[p::p] -= math.fsum(powers)
    return first


@pytest.mark.parametrize("block_elements", [None, 256])
@pytest.mark.parametrize("restriction", LAG_ORACLE_MODES, ids=lambda r: f"{r.mode.value}-{r.N}")
def test_batched_lag_kernel_matches_per_e_route(cfg10_small, restriction, block_elements, monkeypatch):
    # at x = 2000 every group fits one block of the default budget; a budget
    # of 256 splits the small sizes into several blocks and makes every row
    # of size >= 256 a block alone.  A batch's rows fill at most half its
    # FFT size, so _lag_weights counts at most _BLOCK_ELEMENTS // 2 cells.
    if block_elements:
        monkeypatch.setattr(variance, "_BLOCK_ELEMENTS", block_elements)
    cells = []
    counter = variance._lag_weights

    def recording(n, f_lo, f_hi, width):
        cells.append(len(n) * width)
        return counter(n, f_lo, f_hi, width)

    monkeypatch.setattr(variance, "_lag_weights", recording)
    x = 2_000
    tables = cfg10_small.tables
    w = tables.theta
    arr = w if restriction.mode is Mode.BDH else w[: x + 1] - cfg10_small.table()[: x + 1]
    # Rows a[s :: e] of the squarefree e <= x have lengths n_e ~ x/e.  The
    # batch groups them by FFT size 1 << (2 n_e - 1).bit_length(): e = 1 is a
    # group of one row, and the group of e = 5, 6, 7 (size 1024) has rows of
    # three lengths, so each is zeroed past its own end.
    e = np.flatnonzero(tables.mu[1 : x + 1]) + 1
    n = (x - restriction.N % e) // e + 1
    size = [1 << (2 * int(k) - 1).bit_length() for k in n]
    assert len(set(size)) >= 3 and size.count(size[0]) == 1
    assert len({int(k) for k, s in zip(n, size) if s == 1024}) == 3
    # (850.5, 1_400] has squarefree e with floor(lo/e) = floor(hi/e), which add nothing
    assert tables.mu[701] and 850 // 701 == 1_400 // 701
    for q_low, q in LAG_ORACLE_BANDS + ((0.0, x),):
        moduli = range(math.floor(q_low) + 1, q + 1)
        want = _per_e_lag_band_sum(moduli, x, arr, restriction, tables)
        got = _lag_band_sum(moduli, x, arr, restriction, tables)[0]
        assert got == approx(want, rel=1e-12), (q_low, q)
    assert max(cells, default=0) <= variance._BLOCK_ELEMENTS // 2
    assert bool(cells) == (restriction.mode in (Mode.COPRIME, Mode.SHIFT_COPRIME))


# Bands at x = 2000 for the BDH rows: from lo = 0 and from lo > 0, with Q
# below, near and at x; (7, 31) and (20, 120) are narrow bands with lo > 0
# in which a prime row has lags m with c(m) >= 2.
BDH_ROW_BANDS = ((0, 300), (0, 2_000), (7, 31), (20, 120), (333, 700), (850, 1_400), (1_000, 2_000))


def _bdh_row_weight(weight, tables, x):
    """The weight's array over [0, x], or for "noise" a random weight on the prime powers up to x."""
    if weight != "noise":
        return _weight(tables, x, weight is Weight.THETA)
    return np.where(tables.lam[: x + 1] != 0, np.random.default_rng(19).standard_normal(x + 1), 0.0)


def _max_prime_row_weight(x, lo, hi, primes):
    """max c(m) = #{lo//p < f <= hi//p : f | m} over the lags m = p^j - p^i, 0 <= i < j, of the rows p^2 <= x."""
    best = 0
    for p in primes[primes * primes <= x].tolist():
        idx = [p**k for k in range(int(math.log(x, p)) + 1) if p ** (k + 1) <= x]
        for m in (b - a for i, a in enumerate(idx) for b in idx[i + 1 :]):
            best = max(best, sum(m % f == 0 for f in range(lo // p + 1, hi // p + 1)))
    return best


@pytest.mark.parametrize("weight", [*Weight, "noise"])
def test_bdh_rows_match_per_e_route(cfg10_small, weight, monkeypatch):
    # BDH's array is carried by the prime powers: only e = 1 takes the
    # kernel, for every weight, and each prime row p is an exact sum over
    # the pairs of its entries a[p^k] at p^(k - 1), weighted by c(m)
    x = 2_000
    tables = cfg10_small.tables
    arr = _bdh_row_weight(weight, tables, x)
    steps = []
    kernel = variance._lag_rows

    def recording(a, start, step, *rest):
        steps.extend(step.tolist())
        return kernel(a, start, step, *rest)

    monkeypatch.setattr(variance, "_lag_rows", recording)
    for lo, hi in BDH_ROW_BANDS:
        steps.clear()
        moduli = range(lo + 1, hi + 1)
        want = _per_e_lag_band_sum(moduli, x, arr, RestrictionMode(Mode.BDH), tables)
        got = _lag_band_sum(moduli, x, arr, RestrictionMode(Mode.BDH), tables)[0]
        assert got == approx(want, rel=1e-12), (lo, hi)
        assert steps == [1], (lo, hi)
    primes = tables.sieve.primes()
    assert all(_max_prime_row_weight(x, lo, hi, primes) >= 2 for lo, hi in ((7, 31), (20, 120)))


def _lone_row_calls(monkeypatch):
    """Wrap variance._lag_rows; return the list of the (start, e, f_lo, f_hi) of each row it transforms alone."""
    calls = []
    kernel = variance._lag_rows

    def recording(a, start, step, n, f_lo, f_hi, size):
        if len(n) == 1:
            calls.append((int(start[0]), int(step[0]), int(f_lo[0]), int(f_hi[0])))
        return kernel(a, start, step, n, f_lo, f_hi, size)

    monkeypatch.setattr(variance, "_lag_rows", recording)
    return calls


def _lag_bands(cfg, modes, weight, bands=LAG_ORACLE_BANDS, x=2_000):
    """{(mode, N, Q_low, Q): empirical.hex()} of variance_sum on cfg, the modes in the order given."""
    return {
        (r.mode, r.N, q_low, q): variance_sum(x, q, cfg, r, weight=weight, q_low=q_low).empirical.hex()
        for r in modes
        for q_low, q in bands
    }


def _fresh_lag_bands(tables, modes, weight, bands=LAG_ORACLE_BANDS):
    """_lag_bands with a fresh config for every band."""
    out = {}
    for r in modes:
        for band in bands:
            out.update(_lag_bands(FRConfig(R=10.0, tables=tables), [r], weight, [band]))
    return out


@pytest.mark.parametrize("block_elements", [None, 256])
@pytest.mark.parametrize("weight", list(Weight))
def test_lone_rows_are_held_bit_for_bit_in_any_order(tables_small, weight, block_elements, monkeypatch):
    # every mode on one config, forward and then reversed, and reversed on a
    # second one, gives the bits of each band on a fresh config, and no lone
    # row a config holds is transformed again.  A budget of 256 makes every
    # row of FFT size >= 256 a block alone, so the SHIFT bands at N = 6 share
    # COPRIME's lone rows e | 6 as well as e = 1
    if block_elements:
        monkeypatch.setattr(variance, "_BLOCK_ELEMENTS", block_elements)
    fresh = _fresh_lag_bands(tables_small, VARIANCE_SUM_MODES, weight)
    calls = _lone_row_calls(monkeypatch)
    cfg = FRConfig(R=10.0, tables=tables_small)
    assert _lag_bands(cfg, VARIANCE_SUM_MODES, weight) == fresh
    built = list(calls)
    assert len(built) == len(set(built))
    assert sorted(cfg._sums._arrays) == sorted((2_000, weight, *row) for row in built)
    shared = [(0, 1, math.floor(q_low), q) for q_low, q in LAG_ORACLE_BANDS]  # ALL's rows: e = 1 of every band
    assert set(shared) <= set(built)
    if block_elements:
        assert {(0, 2, 0, 150), (0, 3, 0, 100), (0, 6, 0, 50)} <= set(built)
    calls.clear()
    assert _lag_bands(cfg, VARIANCE_SUM_MODES[::-1], weight) == fresh
    assert calls == []
    assert _lag_bands(FRConfig(R=10.0, tables=tables_small), VARIANCE_SUM_MODES[::-1], weight) == fresh
    assert sorted(calls) == sorted(built)
    # a shorter residual keys its own rows
    x = 1_999
    want = variance_sum(x, 300, FRConfig(R=10.0, tables=tables_small), RestrictionMode(Mode.ALL), weight=weight)
    got = variance_sum(x, 300, cfg, RestrictionMode(Mode.ALL), weight=weight)
    assert got.empirical.hex() == want.empirical.hex()
    assert (x, weight, 0, 1, 0, 300) in cfg._sums._arrays


@pytest.mark.parametrize("weight", list(Weight))
def test_all_part_is_the_all_band(tables_small, weight, monkeypatch):
    # a lag-route band's all_part is its e = 1 part, the ALL band of the same
    # residual bit for bit, whether or not ALL ran first on the config
    x = 2_000
    cfg = FRConfig(R=10.0, tables=tables_small)
    for q_low, q in LAG_ORACLE_BANDS:
        runs = [variance_sum(x, q, cfg, r, weight=weight, q_low=q_low) for r in VARIANCE_SUM_MODES]
        assert runs[0].mode is Mode.ALL and runs[0].all_part == runs[0].empirical
        assert {run.all_part.hex() for run in runs} == {runs[0].empirical.hex()}, (q_low, q)
        for r in VARIANCE_SUM_MODES[1:]:
            run = variance_sum(x, q, FRConfig(R=10.0, tables=tables_small), r, weight=weight, q_low=q_low)
            assert run.all_part.hex() == runs[0].empirical.hex(), (r, q_low, q)
    # a bucket-route band and bdh_variance report none and add no lone row:
    # the bucket route keeps only the class sums of its moduli, which every
    # mode selects from; BDH has no config, so it transforms its e = 1 row
    # on every call
    calls = _lone_row_calls(monkeypatch)
    cfg = FRConfig(R=10.0, tables=tables_small)
    for r in VARIANCE_SUM_MODES:
        assert variance_sum(x, 100, cfg, r, weight=weight, q_low=90.0).all_part is None
    for q in (50, 300, 300):
        assert bdh_variance(x, q, tables_small, weight=weight).all_part is None
    assert not _lag_route(10, x) and not _lag_route(50, x) and _lag_route(300, x)
    assert sorted(cfg._sums._arrays) == [(x, weight, d) for d in range(91, 101)]
    assert calls == [(0, 1, 0, 300)] * 2


@pytest.mark.parametrize("weight", list(Weight))
def test_all_and_excluded_parts_sum_to_the_band(tables_small, weight):
    # a lag-route restricted band splits into its ALL part and the fsum of
    # its rows e > 1, the classes it drops; the float sum of the two parts
    # is the exactly rounded band within one rounding of each part's, and
    # a band of all classes, a bucket-route band and BDH have no excluded part
    x = 2_000
    cfg = FRConfig(R=10.0, tables=tables_small)
    for q_low, q in LAG_ORACLE_BANDS:
        for r in VARIANCE_SUM_MODES:
            run = variance_sum(x, q, cfg, r, weight=weight, q_low=q_low)
            if r.mode is Mode.ALL:
                assert run.excluded_part is None
                continue
            gap = abs(run.all_part + run.excluded_part - run.empirical)
            assert gap <= 2 * math.ulp(run.empirical) + math.ulp(run.excluded_part), (r, q_low, q)
            assert run.excluded_part < 0.0 < run.all_part  # the dropped classes lower the band
    for r in VARIANCE_SUM_MODES:
        assert variance_sum(x, 100, cfg, r, weight=weight, q_low=90.0).excluded_part is None
    for q in (50, 300):
        assert bdh_variance(x, q, tables_small, weight=weight).excluded_part is None


def test_coprime_first_moments_match_loop_bitwise(tables_1e4):
    # theta, psi and random values on the prime powers; q at a square, past
    # sqrt(x) and at x, so primes between sqrt(q) and sqrt(x) carry powers
    x = 10_000
    pp = tables_1e4.lam[: x + 1] != 0
    noise = np.where(pp, np.random.default_rng(7).standard_normal(x + 1) * 1e3, 0.0)
    primes = tables_1e4.sieve.primes()
    for w in (_weight(tables_1e4, x, True), tables_1e4.lam[: x + 1], noise):
        for q in (1, 2, 3, 4, 49, 120, 2_500, 2_501, 9_999, x):
            got = _coprime_first_moments(w, q, tables_1e4)
            assert got.tobytes() == _coprime_first_moments_loop(w, q, primes).tobytes(), q


def test_row_weights_match_divisor_count():
    # f_lo = 0; f_lo at and past sqrt(n); f_hi at, past and far past n - 1;
    # n <= 3; empty bands
    rows = [(1, 0, 1), (1, 0, 5), (2, 0, 1), (2, 0, 2), (3, 0, 2), (3, 1, 9), (3, 2, 3),
            (100, 0, 30), (100, 0, 99), (100, 0, 1_000), (100, 9, 60), (100, 10, 99),
            (100, 50, 200), (100, 98, 99), (100, 99, 150), (101, 9, 10), (10_007, 0, 700),
            (10_007, 100, 10_006), (10_007, 3_000, 9_000), (10_007, 5_003, 5_004)]
    for n, f_lo, f_hi in rows:
        want = np.zeros(n)
        for f in range(f_lo + 1, f_hi + 1):
            want[f:n:f] += 1.0
        assert np.array_equal(_row_weights(n, f_lo, f_hi), want), (n, f_lo, f_hi)


def test_smooth_size_is_least_5_smooth():
    def smooth(k):
        for p in (2, 3, 5):
            while k % p == 0:
                k //= p
        return k == 1

    for m in range(1, 5_001):
        assert _smooth_size(m) == next(k for k in range(m, 2 * m + 1) if smooth(k)), m
    assert _smooth_size(200_001) == 202_500  # the e = 1 row at x = 10^5


def test_lag_weights_match_divisor_count():
    # f_lo = 0, f_hi at and past n - 1 (the kernel meets f_hi = n, e.g.
    # x = 1920, N = 7, e = 5), and two rows of 10^5 with about 5 * 10^5
    # multiples, all in one count
    rows = [(1, 0, 1), (2, 0, 2), (383, 0, 383), (384, 0, 384), (384, 100, 900),
            (385, 7, 200), (700, 0, 50), (700, 349, 350), (700, 650, 1_000),
            (100_000, 0, 30), (100_000, 3_000, 9_000)]
    n, f_lo, f_hi = (np.array(col) for col in zip(*rows))
    width = int(n.max())
    got = _lag_weights(n, f_lo, f_hi, width)
    want = np.zeros((len(rows), width))
    for r, (n_r, lo, hi) in enumerate(rows):
        for f in range(lo + 1, hi + 1):
            want[r, f:n_r:f] += 1.0
    assert np.array_equal(got, want)


@pytest.mark.parametrize("x", [1, 2, 7, 128, 999, 4_096, 99_999, 100_000])
def test_bucket_sums_match_zero_padded_layout(x):
    arr = np.random.default_rng(x).standard_normal(100_008) * np.log(np.arange(2, 100_010))
    for d in sorted({1, 2, 3, 5, 8, 17, 128, 129, 1_000, max(1, x // 2), x, x + 1, x + 7}):
        rows = x // d + 1
        buf = np.zeros(rows * d)
        buf[: x + 1] = arr[: x + 1]
        assert _bucket_sums(arr, x, d).tobytes() == buf.reshape(rows, d).sum(axis=0).tobytes(), d


def _row_sums(arr, x, d):
    """numpy's row sum of arr[0..x] in rows of length d, the short last row added after the full ones."""
    full = (x + 1) // d
    sums = arr[: full * d].reshape(full, d).sum(axis=0)
    tail = arr[full * d : x + 1]
    sums[: len(tail)] += tail
    return sums


# Terms that make the adds round, cancel and meet signed zeros.
FOLD_TERMS = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0**53, -(2.0**53), 1e-300, -1e-300]),
    st.floats(-1e12, 1e12, allow_nan=False),
)


@settings(deadline=None, max_examples=300)
@given(st.integers(2, 16), st.data())
def test_column_fold_equals_row_sum_bit_for_bit(d, data):
    # every modulus, d <= 6 included, takes numpy's row sum of all d
    # classes, which folds each column left to right from 0.0: x < d (a
    # column of at most one term, or none), short tails and signed zeros
    # included
    x = data.draw(st.integers(0, 8 * d + 5), label="x")
    arr = np.array(data.draw(st.lists(FOLD_TERMS, min_size=x + 1, max_size=x + 1), label="terms"))
    assert _bucket_sums(arr, x, d).tobytes() == _row_sums(arr, x, d).tobytes()


# Shifts of the striking test: 0, then N < d, N >= d and the largest N.
STRIKE_SHIFTS = st.one_of(st.just(0), st.integers(1, 2_000), st.integers(2_001, 10**12), st.just(2**63 - 1))


@settings(deadline=None, max_examples=300)
@given(st.integers(1, 2_000), STRIKE_SHIFTS, st.booleans())
def test_struck_classes_equal_gcd_mask(tables_small, d, shift, below_d):
    # striking b = shift (mod p) for each prime p | d keeps the classes
    # gcd(shift - b, d) = 1, the ones the np.gcd mask kept, in the same order
    if below_d and shift:
        shift %= d
    got = variance._kept_classes(d, shift, tables_small.sieve)
    want = np.gcd((shift - np.arange(d, dtype=np.int64)) % d, d) == 1
    assert got.dtype == bool and np.array_equal(got, want)
    assert np.count_nonzero(got) == tables_small.phi[d]


@pytest.mark.parametrize("mode", [Mode.ALL, Mode.COPRIME, Mode.SHIFT_COPRIME, Mode.BDH])
def test_class_rule_against_brute_force(cfg10_small, mode):
    # both routes read the kept classes from RestrictionMode.shift, so the
    # lag-vs-bucket oracle cannot see a wrong shift; here each rule is spelt out
    x, n_shift = 2_000, 6
    keep = {
        Mode.ALL: lambda b, d: True,
        Mode.COPRIME: lambda b, d: math.gcd(b, d) == 1,
        Mode.SHIFT_COPRIME: lambda b, d: math.gcd(n_shift - b, d) == 1,
        Mode.BDH: lambda b, d: math.gcd(b, d) == 1,
    }[mode]
    phi = cfg10_small.tables.phi
    for q_low, q in ((20, 40), (0, 200)):  # bucket route, then lag route
        assert _lag_route(q - q_low, x) == (q_low == 0)
        parts = []
        for d in range(q_low + 1, q + 1):
            acc = accumulate_modulus(d, x, cfg10_small)
            for b in range(d):
                if keep(b, d):
                    model = x / float(phi[d]) if mode is Mode.BDH else float(acc.rho_buckets[b])
                    parts.append((float(acc.theta_buckets[b]) - model) ** 2)
        if mode is Mode.BDH:
            if q_low:
                continue
            got = bdh_variance(x, q, cfg10_small.tables).empirical
        else:
            got = variance_sum(x, q, cfg10_small, RestrictionMode(mode, n_shift), q_low=q_low).empirical
        assert got == approx(math.fsum(parts), rel=1e-9)


def test_variance_sum_continuous_across_route_crossover(cfg20_1e4):
    x, q = 10_000, 2_000
    width = math.floor(_LAG_MODULI_PER_LOG2_X * math.log2(x))  # widest bucket band
    assert not _lag_route(width, x) and _lag_route(width + 1, x)
    tables = cfg20_1e4.tables
    diff = tables.theta[: x + 1] - cfg20_1e4.table()[: x + 1]
    for restriction in VARIANCE_SUM_MODES:
        below = variance_sum(x, q, cfg20_1e4, restriction, q_low=q - width).empirical
        above = variance_sum(x, q, cfg20_1e4, restriction, q_low=q - width - 1).empirical
        narrow, wide = range(q - width + 1, q + 1), range(q - width, q + 1)
        assert below == _array_band_sum(narrow, x, diff, restriction, tables)
        assert above == _lag_band_sum(wide, x, diff, restriction, tables)[0]
        extra = _array_band_sum(range(q - width, q - width + 1), x, diff, restriction, tables)
        assert above == approx(below + extra, rel=1e-12)


def test_empirical_is_a_python_float_on_both_routes(cfg20_1e4):
    x = 10_000
    for q_low, q, lag in ((45.0, 50, False), (0.0, 1_000, True)):
        assert _lag_route(q - math.floor(q_low), x) is lag
        for restriction in VARIANCE_SUM_MODES:
            run = variance_sum(x, q, cfg20_1e4, restriction, q_low=q_low)
            assert type(run.empirical) is float
        assert type(bdh_variance(x, q, cfg20_1e4.tables).empirical) is float


def test_frozen_unit_scale_values(cfg20_1e4):
    assert variance_sum(10_000, 50, cfg20_1e4, RestrictionMode(Mode.ALL)).empirical == approx(
        4111881.3296700926, rel=1e-12
    )
    assert variance_sum(10_000, 50, cfg20_1e4, RestrictionMode(Mode.COPRIME)).empirical == approx(
        502352.3727879456, rel=1e-12
    )
    assert variance_sum(
        10_000, 50, cfg20_1e4, RestrictionMode(Mode.SHIFT_COPRIME, 1)
    ).empirical == approx(2292926.7374011213, rel=1e-12)
    assert variance_sum(
        10_000, 50, cfg20_1e4, RestrictionMode(Mode.ALL), weight=Weight.PSI
    ).empirical == approx(4016314.3033162565, rel=1e-12)


def test_weight_choice_changes_little(cfg20_1e4):
    th = variance_sum(10_000, 50, cfg20_1e4, RestrictionMode(Mode.ALL)).empirical
    ps = variance_sum(10_000, 50, cfg20_1e4, RestrictionMode(Mode.ALL), weight=Weight.PSI).empirical
    assert abs(th - ps) / th <= 0.05


def test_validation_errors(cfg10_small):
    with raises(ValueError):
        variance_sum(100, 200, cfg10_small, RestrictionMode(Mode.ALL))  # Q > x
    with raises(ValueError):
        variance_sum(2_000, 50, cfg10_small, RestrictionMode(Mode.ALL), q_low=50)
    with raises(ValueError):
        variance_sum(2_000, 50, cfg10_small, RestrictionMode(Mode.BDH))
    with raises(ValueError):
        RestrictionMode(Mode.SHIFT_COPRIME, 0)
    with raises(ValueError):
        bdh_variance(100, 200, cfg10_small.tables)
    for threads in (-3, -1, 1.0, math.nan):  # the CLI rejects --threads -3 alike
        with raises(ValueError, match="threads"):
            variance_sum(2_000, 50, cfg10_small, RestrictionMode(Mode.ALL), threads=threads)
        with raises(ValueError, match="threads"):
            bdh_variance(2_000, 50, cfg10_small.tables, threads=threads)


def test_prediction_attached_by_mode(cfg20_1e4, cs):
    run = variance_sum(10_000, 50, cfg20_1e4, RestrictionMode(Mode.ALL), constants=cs)
    pred = vaughan_prediction(10_000, 50, 20.0, cs)
    assert run.predicted_total == approx(pred.total, rel=1e-15)
    assert set(run.predicted_terms) == {"log_term", "const_term"}
    assert run.relative_deviation == approx(
        (run.empirical - pred.total) / pred.total, rel=1e-12
    )
    assert run.relative_deviation_main is not None
    assert "O-terms" in run.error_budget
    run5 = variance_sum(10_000, 50, cfg20_1e4, RestrictionMode(Mode.COPRIME), constants=cs)
    assert run5.predicted_total == approx(theorem5_prediction(10_000, 50, 20.0, cs).total, rel=1e-15)
    run4 = variance_sum(10_000, 50, cfg20_1e4, RestrictionMode(Mode.SHIFT_COPRIME, 3), constants=cs)
    assert run4.predicted_total == approx(theorem4_prediction(10_000, 50, 3, 20.0, cs).total, rel=1e-15)


def test_delta_sq_progression_frozen(tables_1e4):
    cfg = FRConfig(R=10.0, tables=tables_1e4)
    assert delta_sq_progression(10_000, 3, 1, cfg) == approx(21390.336397466985, rel=1e-12)
    with raises(ValueError):
        delta_sq_progression(10_000, 4, 1, cfg)  # modulus must be squarefree


def test_progression_prediction_frozen(cs):
    assert theorem3_prediction(10**6, 2, 1, 50.0, cs).total == approx(5948602.786226392, rel=1e-12)
    assert theorem3_prediction(10**4, 3, 1, 10.0, cs).total == approx(19317.253401717666, rel=1e-12)
    pred = theorem3_prediction(10**4, 3, 1, 10.0, cs)
    assert set(pred.terms) == {"delta_main", "r_term", "phi2_term", "neg_term"}
    assert pred.total == approx(math.fsum(pred.terms.values()), rel=1e-15)


def test_progression_prediction_v1_collapse(cs):
    # c1 - c2 == c0 exactly, so the v = 1 total collapses to x(log(x/R) - c0)
    assert cs.c1 - cs.c2 == cs.c0
    for x, R in ((10**4, 10.0), (10**6, 50.0)):
        got = theorem3_prediction(x, 1, 0, R, cs).total
        want = x * (math.log(x / R) - cs.c0)
        assert got == approx(want, rel=1e-12)


def test_progression_prediction_noncoprime_branch(cs):
    pred = theorem3_prediction(10**4, 3, 3, 10.0, cs)
    assert pred.terms["delta_main"] == 0.0
    assert pred.terms["phi2_term"] == 0.0
    want = (10**4 / 3) * (math.log(10.0) + cs.c2) - 10**4 / 2
    assert pred.total == approx(want, rel=1e-12)


def test_progression_prediction_validation(cs):
    with raises(ValueError):
        theorem3_prediction(1, 1, 0, 10.0, cs)
    with raises(ValueError):
        theorem3_prediction(100, 0, 0, 10.0, cs)
    with raises(ValueError):
        theorem3_prediction(100, 1, 0, 0.5, cs)


def test_restriction_mode_rejects_n_beyond_int64():
    assert RestrictionMode(Mode.SHIFT_COPRIME, 2**63 - 1).shift == 2**63 - 1
    for mode in Mode:
        with raises(ValueError, match="2\\^63"):
            RestrictionMode(mode, 2**63)


def test_theorem3_forms_reject_non_squarefree_v(cfg20_1e4, cs):
    # each form sums over the squarefree divisors of v, so a square factor is
    # an error, as in delta_sq_progression
    for v in (4, 12, 18):
        with raises(ValueError, match="squarefree"):
            theorem3_prediction(10**6, v, 1, 50.0, cs)
        with raises(ValueError, match="squarefree"):
            theorem3_coupled_prediction(10**6, v, 1, 50.0, cs)
        with raises(ValueError, match="squarefree"):
            theorem3_refined_prediction(10_000, v, 1, cfg20_1e4, cs)


def test_theorem3_forms_reject_v_beyond_x_before_factoring(cfg20_1e4, cs):
    # v = 2^61 - 1 is prime: trial division up to sqrt(v) would run for
    # minutes, so the bound v <= x must reject it first
    v = 2**61 - 1
    for call in (theorem3_prediction, theorem3_coupled_prediction):
        with raises(ValueError, match="v <= x"):
            call(10**6, v, 1, 50.0, cs)
    with raises(ValueError, match="v <= x"):
        theorem3_refined_prediction(10_000, v, 1, cfg20_1e4, cs)
    with raises(ValueError, match="v <= x"):
        theorem3_prediction(10**6, 10**6 + 1, 1, 50.0, cs)
    assert math.isfinite(theorem3_prediction(30, 30, 1, 2.0, cs).total)  # v = x is allowed


def test_refined_progression_prediction(cfg20_1e4, cs, tables_1e4):
    pred = theorem3_refined_prediction(10_000, 6, 1, cfg20_1e4, cs)
    assert set(pred.terms) == {"lambda_sq_term", "cross_term", "mean_sq_term"}
    assert pred.total == approx(17672.072230251288, rel=1e-12)
    # at v = 1 the exact class mean is the squarefree partial sum
    x = 10_000
    mu2 = mu2_over_phi_sum(20.0, tables_1e4)
    v1 = theorem3_refined_prediction(x, 1, 0, cfg20_1e4, cs)
    assert v1.total == approx(x * (math.log(x) - 1.0 - mu2), rel=1e-12)
    # and stays close to the closed form, whose constant carries the
    # asymptotic value of that partial sum; the gap is exactly
    # x * (mu2_over_phi_sum(R) - (log R + c2)), bounded by 3x/sqrt(R)
    closed = theorem3_prediction(x, 1, 0, 20.0, cs).total
    assert abs(v1.total - closed) <= 3.0 * x / math.sqrt(20.0)


def _primes(v):
    """The primes of v, ascending, by the sieve-backed factorize."""
    return [p for p, _ in factorize(v, build_sieve(max(v, 2)))]


def _coprime_partial_sums(v, tables, ymax):
    """Exact G_v(k) = sum_{b <= k, (b, v) = 1} mu(b)^2/phi(b) for k = 1..ymax."""
    b = np.arange(1, ymax + 1)
    keep = (tables.mu[b] != 0) & (np.gcd(b, v) == 1)
    return np.cumsum(np.where(keep, 1.0 / tables.phi[b].astype(np.float64), 0.0))


def test_coupled_g_asymptotic_within_partial_sum_bound(tables_1e5, cs):
    # G_v(y) against its main terms with criterion 4's bound 3/sqrt(y) over
    # every real 1 <= y <= 1e5: G_v is constant on [k, k + 1), so checking
    # y = k and the left limit y -> k + 1 covers each interval
    ymax = 100_000
    k = np.arange(1, ymax + 1, dtype=np.float64)
    for v in (1, 2, 3, 5, 6, 7, 10, 30, 210):
        exact = _coprime_partial_sums(v, tables_1e5, ymax)
        # the main terms are affine in log y with slope phi(v)/v
        base = _coprime_mu2_over_phi_main_terms(_primes(v), cs.c2)(1.0)
        slope = _coprime_mu2_over_phi_main_terms(_primes(v), cs.c2)(math.e) - base
        assert slope == approx(tables_1e5.phi[v] / v, rel=1e-12)
        for y in (2.5, 300.0, 4e4):
            assert _coprime_mu2_over_phi_main_terms(_primes(v), cs.c2)(y) == approx(
                base + slope * math.log(y), rel=1e-12
            )
        at_k = np.abs(exact - (base + slope * np.log(k))) * np.sqrt(k)
        left = np.abs(exact[:-1] - (base + slope * np.log(k[1:]))) * np.sqrt(k[1:])
        assert at_k.max() <= 3.0, (v, at_k.max())
        assert left.max() <= 3.0, (v, left.max())


def test_coupled_crt_sum_matches_pair_sweep(tables_small):
    # with the exact G_v, the CRT collapse reproduces the pair sweep class by
    # class, the divisors and pairs taken from the record of the product of
    # v's primes; v = 4 and 12 check that the split also holds for
    # non-squarefree v, and 210 (256 pairs) and 2310 (1,024 pairs) that it
    # holds past v = 30 (64 pairs)
    R = 50.0
    cfg = FRConfig(R=R, tables=tables_small)
    for v in (1, 2, 3, 5, 6, 7, 10, 30, 4, 12, 210, 2310):
        primes, _, _, _, divs, pairs = variance._theorem3_modulus(10**6, math.prod(_primes(v)), R)
        assert len(pairs) == 4 ** len(primes)
        exact = _coprime_partial_sums(v, tables_small, int(R))
        classes = (0, 1, 2, 3, 5, 7, 11, 77, 1155) if v == 2310 else range(1, v + 1)
        for N in classes:
            got = _crt_class_mean(primes, divs, pairs, N, R, lambda y: exact[int(y) - 1])
            assert got == approx(fr_square_progression_mean(v, N, cfg), rel=1e-12), (v, N)
    assert _coprime_partial_sums(1, tables_small, 50)[-1] == approx(
        mu2_over_phi_sum(50.0, tables_small), rel=1e-12
    )


def test_coprime_g_matches_partial_sums(tables_small):
    # the table-backed G_v at every integer y <= 500 and at the left limit
    # y -> k from below, where G_v is still G_v(k - 1)
    ymax = 500
    for v in (1, 6, 30, 210):
        exact = np.concatenate(([0.0], _coprime_partial_sums(v, tables_small, ymax)))
        for k in range(1, ymax + 1):
            assert _coprime_mu2_over_phi(float(k), v, tables_small) == approx(exact[k], rel=1e-12), (v, k)
            below = math.nextafter(float(k), 0.0)
            assert _coprime_mu2_over_phi(below, v, tables_small) == approx(exact[k - 1], rel=1e-12), (v, k)


def test_crt_class_mean_calls_g_once_per_divisor():
    for v, R, want in ((1, 50.0, 1), (6, 50.0, 4), (30, 100.0, 8), (210, 100.0, 14)):
        calls = []
        primes, _, _, _, divs, pairs = variance._theorem3_modulus(10**6, v, R)
        _crt_class_mean(primes, divs, pairs, 1, R, lambda y: calls.append(y) or 1.0)
        # one call per divisor a <= R of v; for v = 210 that leaves out 105 and 210
        assert len(calls) == len(set(calls)) == want, (v, calls)


@pytest.mark.parametrize("R", [20.0, 50.0])
def test_refined_mean_matches_pair_sweep(tables_small, cs, R):
    # the refined prediction's class mean (CRT route) against the independent
    # pair sweep, for every class of each v; the refined prediction takes
    # squarefree v only, and test_coupled_crt_sum_matches_pair_sweep holds the
    # CRT split to the pair sweep at the non-squarefree 4 and 12
    x = 10**6
    cfg = FRConfig(R=R, tables=tables_small)
    for v in (1, 2, 3, 5, 6, 7, 10, 30):
        for N in range(1, v + 1):
            got = theorem3_refined_prediction(x, v, N, cfg, cs).terms["mean_sq_term"]
            want = (x / v) * fr_square_progression_mean(v, N, cfg)
            assert got == approx(want, rel=1e-12), (v, N)


@pytest.mark.parametrize("R", [7.5, 20.0, 30.0, 50.0])
def test_refined_prediction_bits_match_coprime_g(tables_small, cs, R):
    # the one squarefree pass per call against the exact home of G_v: the
    # cross sum and G_v read through mu2_over_phi_sum and _coprime_mu2_over_phi
    # give every term and the total bit for bit; at R = 30 the prefix ends on
    # a kept b = R / a (30 for v = 1, 15 for v = 2), which G_v includes
    x = 10**6
    cfg = FRConfig(R=R, tables=tables_small)
    for v in (1, 2, 3, 6, 7, 30, 210):
        primes, phi_v, _, _, divs, pairs = variance._theorem3_modulus(x, v, R)
        for N in range(v + 2):
            got = theorem3_refined_prediction(x, v, N, cfg, cs)
            mean = _crt_class_mean(primes, divs, pairs, N, R, lambda y, v=v: _coprime_mu2_over_phi(y, v, tables_small))
            want = variance._crt_mean_prediction(
                x, v, phi_v, N, mu2_over_phi_sum(R, tables_small), mean, got.error_budget
            )
            assert got.total.hex() == want.total.hex(), (v, N)
            assert {k: t.hex() for k, t in got.terms.items()} == {k: t.hex() for k, t in want.terms.items()}


def _crt_class_mean_loop(primes, N, R, g):
    """The per-class CRT class mean the theorem-3 forms had before their v-only work was cached."""
    wts = [(1, 1.0)]
    for p in primes:
        w_p = -1.0 if N % p == 0 else 1.0 / (p - 1)
        wts += [(a * p, w_a * w_p) for a, w_a in wts]
    g_at = {a: g(R / a) for a, _ in wts if R / a >= 1.0}
    parts = []
    for a, w_a in wts:
        for a1, w_a1 in wts:
            top = max(a, a1)
            if top in g_at:
                parts.append(w_a * w_a1 * g_at[top])
    return math.fsum(parts)


def _theorem3_loop(form, x, v, N, cfg, cs):
    """(total, terms, budget) of one theorem-3 form by the per-class code it had before its
    v-only work was cached, kept as the oracle of the cached forms: every call factors v,
    formats the budget and gathers the squarefree b <= R anew."""
    R = cfg.R
    primes = _check_theorem3_args(x, v, R)
    ind = delta_indicator(N, v)
    phi_v = math.prod(p - 1 for p in primes)
    if form == "closed":
        lx, lr = math.log(x), math.log(R)
        terms = {
            "delta_main": ind * (x / phi_v) * (lx - 2.0 * lr - cs.c1),
            "r_term": (x / v) * (lr + cs.c2),
            "phi2_term": ind * x * v / (phi_v * phi_v),
            "neg_term": -x / phi_v,
        }
        return math.fsum(terms.values()), terms, _theorem3_budget(x, v, phi_v, 2 ** len(primes), R, True)
    if form == "coupled":
        cross_sum, g = math.log(R) + cs.c2, _coprime_mu2_over_phi_main_terms(primes, cs.c2)
        budget = _theorem3_budget(x, v, phi_v, 2 ** len(primes), R, True)
    else:
        b = np.flatnonzero(cfg.tables.mu[1 : cfg.r_int + 1]) + 1
        inv_phi = 1.0 / cfg.tables.phi[b]
        coprime = np.gcd(b, v) == 1
        kept_b, kept = b[coprime].tolist(), inv_phi[coprime].tolist()
        cross_sum = math.fsum(inv_phi)
        g = lambda y: math.fsum(kept[: bisect.bisect_right(kept_b, y)])  # noqa: E731
        budget = _theorem3_budget(x, v, phi_v, 2 ** len(primes), R, False)
    terms = {
        "lambda_sq_term": ind * (x / phi_v) * (math.log(x) - 1.0),
        "cross_term": -2.0 * ind * (x / phi_v) * cross_sum,
        "mean_sq_term": (x / v) * _crt_class_mean_loop(primes, N, R, g),
    }
    return math.fsum(terms.values()), terms, budget


def _squarefree_up_to(v_max):
    return [v for v in range(1, v_max + 1) if all(v % (p * p) for p in range(2, math.isqrt(v) + 1))]


def _cached_form(form, x, v, N, cfg, cs):
    if form == "refined":
        return theorem3_refined_prediction(x, v, N, cfg, cs)
    call = theorem3_prediction if form == "closed" else theorem3_coupled_prediction
    return call(x, v, N, cfg.R, cs)


@pytest.mark.parametrize("x, R, v_max", [(10**6, 100.0, 60), (10**5, 7.5, 60), (10**4, 20.0, 30)])
def test_cached_theorem3_forms_match_per_class_loop_bitwise(tables_small, cs, x, R, v_max):
    # every class N = 0..v of every squarefree v <= v_max, the moduli in
    # ascending order as a class loop meets them, each form against its
    # per-class oracle by .hex() of the total and of every term, and the budget
    cfg = FRConfig(R=R, tables=tables_small)
    for v in _squarefree_up_to(v_max):
        for N in range(v + 1):
            for form in ("closed", "coupled", "refined"):
                got = _cached_form(form, x, v, N, cfg, cs)
                total, terms, budget = _theorem3_loop(form, x, v, N, cfg, cs)
                assert got.total.hex() == total.hex(), (form, v, N)
                assert {k: t.hex() for k, t in got.terms.items()} == {k: t.hex() for k, t in terms.items()}
                assert got.error_budget == budget, (form, v, N)


def test_theorem3_forms_do_v_only_work_once_per_v(monkeypatch, tables_small, cs):
    # across a loop over every class of every squarefree v <= 30, each v is
    # factored once, and the refined form evaluates the exact G_v (which masks
    # b <= y by gcd(b, v)) once per divisor a <= R of v through its config's
    # lookup; G_1(R) for its cross sum is the value at v = 1, a = 1, so it is
    # evaluated once per config
    variance._theorem3_modulus.cache_clear()
    factored, g_calls = Counter(), Counter()
    check, exact_g = variance._check_theorem3_args, frmodel._coprime_mu2_over_phi

    def check_spy(x, v, R):
        factored[v] += 1
        return check(x, v, R)

    def g_spy(y, v, tables):
        g_calls[v, y] += 1
        return exact_g(y, v, tables)

    x, R = 10**5, 20.0
    monkeypatch.setattr(variance, "_check_theorem3_args", check_spy)
    monkeypatch.setattr(frmodel, "_coprime_mu2_over_phi", g_spy)
    cfg = FRConfig(R=R, tables=tables_small)  # its lookup wraps the spy
    g_calls.clear()  # the weights g_R(d) the config built
    moduli = _squarefree_up_to(30)
    for v in moduli:
        for N in range(1, v + 1):
            for form in ("closed", "coupled", "refined"):
                _cached_form(form, x, v, N, cfg, cs)
    assert factored == Counter(moduli)
    assert g_calls == Counter({(v, R / a): 1 for v in moduli for a in range(1, v + 1) if v % a == 0 and a <= R})


def test_refined_g_cache_is_bounded_and_keyed_by_tables_and_r(monkeypatch, tables_small, tables_1e4, cs):
    # with room for 4 values the config's lookup keeps the 4 asked for last,
    # and a value dropped from it is recomputed to the same bits
    monkeypatch.setattr(frmodel, "_G_CACHE", 4)
    cfg = FRConfig(R=50.0, tables=tables_small)
    moduli = _squarefree_up_to(30)
    first = [theorem3_refined_prediction(10**6, v, 1, cfg, cs).total for v in moduli]
    info = cfg._coprime_g.cache_info()
    assert (info.maxsize, info.currsize) == (4, 4)
    # v = 30 asked last for G_30(50/a) at a = 5, 10, 15, 30
    for a in (5, 10, 15, 30):
        cfg._coprime_g(50.0 / a, 30)
    assert cfg._coprime_g.cache_info()[:2] == (info.hits + 4, info.misses)
    again = [theorem3_refined_prediction(10**6, v, 1, cfg, cs).total for v in moduli]
    assert [t.hex() for t in again] == [t.hex() for t in first]
    assert cfg._coprime_g.cache_info().misses > info.misses
    # a config with another R, or other tables, starts with none of the values
    # and leaves this config's lookup alone
    info = cfg._coprime_g.cache_info()
    totals = []
    for other in (
        dataclasses.replace(cfg, R=20.0),
        FRConfig(R=20.0, tables=tables_1e4),
        dataclasses.replace(cfg, tables=tables_1e4),
    ):
        assert other._coprime_g.cache_info().currsize == 0
        totals.append(theorem3_refined_prediction(10**6, 30, 1, other, cs).total.hex())
        assert other._coprime_g.cache_info().hits == 0
    assert cfg._coprime_g.cache_info() == info
    assert totals[0] == totals[1]
    assert totals[2] == first[-1].hex()


def test_refined_g_cache_keeps_no_tables_alive(cs):
    # the config's G_v lookup refers to the tables and its cache of sums to
    # its arrays, neither to the config, so no cycle holds them: with the
    # collector off, dropping the config and the tables frees them all at once
    tables = build_tables(build_sieve(1000))
    cfg = FRConfig(R=20.0, tables=tables)
    want = theorem3_refined_prediction(10**4, 6, 1, cfg, cs).total
    delta_sq_progression(1000, 6, 1, cfg)  # builds the column sums, a chunk of the residual at a time
    sums = list(cfg._sums._arrays.values())
    assert len(sums) == 1  # the column sums of v = 6's row length, from which its classes are read
    refs = [weakref.ref(a) for a in (tables, cfg, cfg.table(), *sums)]
    del sums
    gc.disable()
    try:
        del cfg, tables
        assert [ref() for ref in refs] == [None] * len(refs)
    finally:
        gc.enable()
    got = theorem3_refined_prediction(10**4, 6, 1, FRConfig(R=20.0, tables=build_tables(build_sieve(1000))), cs).total
    assert got.hex() == want.hex()


def test_lone_rows_keep_no_tables_alive():
    # the lone rows of lag-route bands are 1-element read-only arrays in the
    # config's _sums, keyed (x, weight, start, e, f_lo, f_hi), that refer to
    # nothing else: with the collector off, dropping the config and the
    # tables frees them all at once
    tables = build_tables(build_sieve(1000))
    cfg = FRConfig(R=20.0, tables=tables)
    assert _lag_route(1000, 1000)
    want = _lag_bands(cfg, VARIANCE_SUM_MODES, Weight.THETA, [(0.0, 1000)], x=1000)
    rows = list(cfg._sums._arrays.items())
    assert rows and all(key[:2] == (1000, Weight.THETA) and len(key) == 6 for key, _ in rows)
    assert all(a.shape == (1,) and not a.flags.writeable for _, a in rows)
    refs = [weakref.ref(a) for a in (tables, cfg, cfg.table(), *(a for _, a in rows))]
    del rows
    gc.disable()
    try:
        del cfg, tables
        assert [ref() for ref in refs] == [None] * len(refs)
    finally:
        gc.enable()
    cfg = FRConfig(R=20.0, tables=build_tables(build_sieve(1000)))
    assert _lag_bands(cfg, VARIANCE_SUM_MODES, Weight.THETA, [(0.0, 1000)], x=1000) == want


@pytest.mark.parametrize("weight", list(Weight))
def test_lone_rows_are_safe_across_threads(tables_small, weight, monkeypatch):
    # two threads run ALL, COPRIME and SHIFT (N = 6) twice each on one config
    # on which nothing has been built, with most rows alone, so they race on
    # the table and on every shared row; each band has its fresh-config bits
    monkeypatch.setattr(variance, "_BLOCK_ELEMENTS", 256)
    modes = VARIANCE_SUM_MODES[:3]
    want = _fresh_lag_bands(tables_small, modes, weight)
    cfg = FRConfig(R=10.0, tables=tables_small)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=2) as pool:
            got = list(pool.map(lambda r: _lag_bands(cfg, [r], weight), modes * 2, timeout=120))
    finally:
        sys.setswitchinterval(interval)
    for r, bands in zip(modes * 2, got):
        assert bands == {key: h for key, h in want.items() if key[:2] == (r.mode, r.N)}, r


def test_evicted_lone_rows_are_rebuilt_to_the_same_bits(tables_small, monkeypatch):
    # with room for 3 values, the lone rows of a COPRIME band evict the
    # e = 1 row an ALL band left; ALL then transforms it again, to the same
    # bits
    monkeypatch.setattr(variance, "_BLOCK_ELEMENTS", 256)
    all_, coprime = RestrictionMode(Mode.ALL), RestrictionMode(Mode.COPRIME)
    runs = [(all_, (0.0, 300)), (coprime, (333.3, 700)), (all_, (0.0, 300))]
    want = [_lag_bands(FRConfig(R=10.0, tables=tables_small), [r], Weight.THETA, [band]) for r, band in runs]
    monkeypatch.setattr(frmodel, "_SUM_CACHE", 3)
    calls = _lone_row_calls(monkeypatch)
    cfg = FRConfig(R=10.0, tables=tables_small)
    counts = []
    for (r, band), bands in zip(runs, want):
        assert _lag_bands(cfg, [r], Weight.THETA, [band]) == bands
        assert len(cfg._sums._arrays) <= 3
        counts.append(calls.count((0, 1, 0, 300)))
    assert counts == [1, 1, 2]
    assert len(calls) > 5


def test_refined_g_cache_is_safe_across_threads(monkeypatch, tables_small, cs):
    # four threads share one config on which nothing has been built yet, with
    # room for 2 G_v values and 100 summed values, so they evict each other's
    # all the time; each runs the class sums and the refined form over every
    # class of every squarefree v <= 30, and every result matches a
    # single-thread run with nothing evicted
    moduli = _squarefree_up_to(30)
    x = tables_small.limit

    def sweep(cfg, shift=0):
        got = {}
        for v in moduli[shift:] + moduli[:shift]:
            for N in range(v):
                pred = theorem3_refined_prediction(x, v, N, cfg, cs)
                terms = [t.hex() for t in pred.terms.values()]
                got[v, N] = delta_sq_progression(x, v, N, cfg).hex(), pred.total.hex(), terms
        return got

    want = sweep(FRConfig(R=30.0, tables=tables_small))
    monkeypatch.setattr(frmodel, "_G_CACHE", 2)
    monkeypatch.setattr(frmodel, "_SUM_CACHE", 100)
    cfg = FRConfig(R=30.0, tables=tables_small)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, so races on the builds show
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            results = list(pool.map(functools.partial(sweep, cfg), range(4), timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert results == [want] * 4
    assert cfg._coprime_g.cache_info().currsize <= 2
    held = [a.size for a in cfg._sums._arrays.values()]
    assert sum(held) <= 100 or len(held) == 1, held


def test_theorem3_caches_keep_no_exception(cfg20_1e4, cs):
    # a valid call for v = 6 fills every cache; each bad argument with the
    # same v must still raise, on every call
    for call in (theorem3_prediction, theorem3_coupled_prediction):
        assert math.isfinite(call(10_000, 6, 1, 20.0, cs).total)
        for _ in range(2):
            # x below 2, R NaN or below 1, N < 0, and v > x
            for args in (
                (1, 6, 1, 20.0),
                (10_000, 6, 1, math.nan),
                (10_000, 6, 1, 0.5),
                (10_000, 6, -1, 20.0),
                (5, 6, 1, 20.0),
            ):
                with raises(ValueError):
                    call(*args, cs)
            with raises(TypeError):
                call(10_000, 6.0, 1, 20.0, cs)  # a float v is not factored, cached int or not
    assert math.isfinite(theorem3_refined_prediction(10_000, 6, 1, cfg20_1e4, cs).total)
    bad = copy.copy(cfg20_1e4)
    object.__setattr__(bad, "R", math.nan)  # past the frozen config's own check
    for _ in range(2):
        with raises(ValueError, match="finite"):
            theorem3_refined_prediction(10_000, 6, 1, bad, cs)
        with raises(ValueError):
            theorem3_refined_prediction(10_000, 6, -1, cfg20_1e4, cs)
        with raises(ValueError, match="squarefree"):
            theorem3_refined_prediction(10_000, 12, 1, cfg20_1e4, cs)
        with raises(TypeError):
            theorem3_refined_prediction(10_000, 6.0, 1, cfg20_1e4, cs)


def test_delta_sq_progression_matches_fsum(tables_1e5):
    x = 100_000
    cfg = FRConfig(R=50.0, tables=tables_1e5)
    for v in (1, 2, 30, 59):
        for N in sorted({0, 1, v - 1}):
            start = N % v or v
            dv = tables_1e5.lam[start : x + 1 : v] - cfg.table()[start : x + 1 : v]
            want = math.fsum(dv * dv)
            assert delta_sq_progression(x, v, N, cfg) == approx(want, rel=1e-13), (v, N)


def _reference_column_sums(a, m):
    """Column sums of the whole array a in rows of length m: each block of 64 full rows, and the
    leftover full rows as one more, summed naively, the blocks pairwise, the short last row last."""
    full = len(a) // m
    whole = full // 64
    cut = whole * 64 * m
    blocks = [a[:cut].reshape(whole, 64, m).sum(axis=1)]
    if cut < full * m:
        blocks.append(a[cut : full * m].reshape(-1, m).sum(axis=0, keepdims=True))
    sums = np.ascontiguousarray(np.concatenate(blocks).T).sum(axis=1)
    tail = a[full * m :]
    sums[: len(tail)] += tail
    return sums


# The 12 row lengths of the squarefree v <= 60, each with x + 1 at the edges
# of its blocks of 64 rows (one row, one block, one past it, a block and a
# leftover, and the tail of a short row), up to 10^5.
_ROW_LENGTHS = (102, 114, 138, 174, 186, 222, 246, 258, 282, 318, 354, 30030)
_ROW_EDGE_X = tuple(
    sorted({(m, n - 1) for m in _ROW_LENGTHS for n in (m, m + 1, 64 * m - 1, 64 * m, 64 * m + 1, 129 * m + 5, 10**5 + 1)
            if m <= n <= 10**5 + 1})
)


@pytest.mark.parametrize("square_elements", [None, 3 * 64 * 102 + 5, 500], ids=["default", "3blocks", "rows"])
@pytest.mark.parametrize("held", [True, False, None], ids=["theta", "psi", "none"])
def test_column_sums_from_the_held_residual_match_a_square(tables_1e5, held, square_elements, monkeypatch):
    # the column sums, which square Lambda less the F_R table a chunk at a
    # time, are those of the psi residual's square the test builds, bit for
    # bit, whether the config holds the class sums of a theta band, of a psi
    # band or nothing; a budget of 3 blocks of m = 102 batches 3 blocks per
    # chunk, and one of 500 floats sums every row length in groups of rows
    # (m = 30030 a row at a time, in a buffer of one row)
    if square_elements:
        monkeypatch.setattr(variance, "_SQUARE_ELEMENTS", square_elements)
    cfg = FRConfig(R=30.0, tables=tables_1e5)
    sq = tables_1e5.lam - cfg.table()
    np.multiply(sq, sq, out=sq)
    builds = _residual_builds(monkeypatch)
    for m, x in _ROW_EDGE_X:
        if held is not None:
            weight = Weight.THETA if held else Weight.PSI
            variance_sum(x, 2, cfg, RestrictionMode(Mode.ALL), weight=weight, q_low=1.0, threads=1)
            assert cfg._sums.held((x, weight, 2)) is not None
        builds.clear()
        got = variance._column_sums(x, m, cfg)
        assert got.tobytes() == _reference_column_sums(sq[: x + 1], m).tobytes(), (m, x)
        assert not builds  # no residual is derived: the chunks are Lambda less the table


def test_class_sums_after_a_band_hold_no_square(cfg10_2e20):
    # after a band at 2^20 the class sums square its residual in one reused
    # buffer: under a fifth of the 8 bytes per n that a square would take
    x = 2**20
    cfg = FRConfig(R=10.0, tables=cfg10_2e20.tables)
    variance_sum(x, 100, cfg, RestrictionMode(Mode.COPRIME), q_low=90.0, threads=1)
    for v in (1, 7, 59):
        tracemalloc.start()
        try:
            delta_sq_progression(x, v, 1, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * (x + 1) / 5, (v, peak)


def _blocked_roundings(x: int, v: int) -> int:
    # delta_sq_progression sums a class in this order: each column of the
    # rows of length m = _row_length(x, v) adds at most 64 full rows naively
    # (63 roundings); numpy's pairwise sum adds the k block sums (at most
    # ceil(log2 k) + 26: its unrolled base case of up to 128 terms takes 15
    # accumulator adds, 3 to join the 8 accumulators and 7 for the rest, and
    # a reduce adds its first element apart); the short last row adds 1; the
    # strided pairwise sum over the m/v columns of the class adds at most
    # ceil(log2(m/v)) + 26.  n roundings of nonnegative terms with sum S miss
    # it by at most gamma_n S = n u S / (1 - n u), below (n + 1) u S here.
    m = variance._row_length(x, v)
    k = -(-((x + 1) // m) // 64)  # blocks of 64 full rows, the leftover rows one more
    return 63 + math.ceil(math.log2(k)) + 26 + 1 + math.ceil(math.log2(m // v)) + 26 + 1


def _pairwise_roundings(n: int) -> int:
    # numpy's pairwise sum of n terms, as in _blocked_roundings
    return math.ceil(math.log2(max(n, 1))) + 26 + 1


def test_row_lengths_serve_squarefree_v_up_to_60_in_12_passes():
    moduli = _squarefree_up_to(60)
    rows = {v: variance._row_length(10**6, v) for v in moduli}
    assert all(m % v == 0 for v, m in rows.items())
    assert sorted(set(rows.values())) == [102, 114, 138, 174, 186, 222, 246, 258, 282, 318, 354, 30030]
    # a row longer than x + 1 gives way to m = v
    assert variance._row_length(30029, 1) == 30030 and variance._row_length(30028, 1) == 1
    assert variance._row_length(1000, 323) == 323 and variance._row_length(1937, 323) == 1938


# (x, v) pairs: the two row lengths 102 (v = 17, 34, 51) and 354 (v = 59)
# at x + 1 = 64 m and 64 m +- 1; moduli whose rule m = 30030 exceeds x + 1
# (x = 20000 and 1000); classes of at most 64 terms, the last ones at
# x = 64 v - 1 (v = 1001 and 323), and moduli past x (x = 200)
_EDGE_X = (6526, 6527, 6528, 22654, 22655, 22656, 20_000, 64_063, 64_064, 20_671, 20_672, 1000, 200)


def test_delta_sq_progression_matches_strided_sum_and_fsum(tables_1e5):
    # the blocked column sums agree with the strided pairwise sum of the class
    # they replaced, and with math.fsum, within the bounds of the two
    # summation orders (_blocked_roundings, _pairwise_roundings)
    cfg = FRConfig(R=50.0, tables=tables_1e5)
    table = cfg.table()
    table_before = table.copy()
    u = 2.0**-53
    for x in (tables_1e5.limit, 98_765, *_EDGE_X):
        for v in (1, 2, 6, 17, 30, 34, 51, 59, 210, 323, 1001):
            for N in sorted({0, 1, v - 1, v, v + 1}):
                got = delta_sq_progression(x, v, N, cfg)
                start = N % v or v
                dv = tables_1e5.lam[start : x + 1 : v] - table[start : x + 1 : v]
                np.multiply(dv, dv, out=dv)
                strided, exact = float(np.sum(dv)), math.fsum(dv)
                if x < variance._BLOCK_ROWS * v:  # at most 64 terms: their strided sum itself
                    assert len(dv) <= variance._BLOCK_ROWS, (x, v, N)
                    assert got == strided, (x, v, N)
                    # n terms in any order meet at most n - 1 roundings each
                    assert abs(got - exact) <= len(dv) * u * exact, (x, v, N)
                    continue
                blocked = _blocked_roundings(x, v)
                assert abs(got - exact) <= (blocked + 1) * u * exact, (x, v, N)
                assert abs(got - strided) <= (blocked + _pairwise_roundings(len(dv)) + 2) * u * exact, (x, v, N)
    # the class sums hold their column sums, read-only, under (x, m), and no square
    assert all(len(key) == 2 and not a.flags.writeable for key, a in cfg._sums._arrays.items())
    assert cfg.table() is table
    assert np.array_equal(table, table_before)
    # a class of at most 64 terms is summed where it lies and kept nowhere
    fresh = FRConfig(R=50.0, tables=tables_1e5)
    delta_sq_progression(tables_1e5.limit, 2003, 1, fresh)
    assert not fresh._sums._arrays


# (x, v, N) classes of at most 64 terms (x < 64 v, v squarefree): the last
# ones at x = 64 v - 1, one term, one past x (empty), and every N mod v
_SHORT_CLASSES = (
    (10**5, 1563, 1), (10**5, 1563, 0), (64_063, 1001, 1000), (64_063, 1001, 1001), (10**5, 2003, 7),
    (10**5, 99_991, 5), (10**5, 99_991, 0), (10**5, 99_998, 3), (5, 6, 0), (6, 6, 0), (1000, 997, 998),
)


def test_short_class_squares_its_own_residuals(tables_1e5):
    # a class of at most 64 terms equals, bit for bit, the strided sum of
    # the whole residual square, and neither builds that square nor caches
    cfg = FRConfig(R=50.0, tables=tables_1e5)
    sq = tables_1e5.lam - cfg.table()
    np.multiply(sq, sq, out=sq)
    for x, v, N in _SHORT_CLASSES:
        assert x < variance._BLOCK_ROWS * v and tables_1e5.mu[v] != 0, (x, v)
        start = N % v or v
        want = float(sq[start : x + 1 : v].sum())
        assert delta_sq_progression(x, v, N, cfg).hex() == want.hex(), (x, v, N)
    assert not cfg._sums._arrays


def test_short_class_holds_only_its_terms(tables_1e5):
    # with the F_R table built, as every theorem3 run builds it, a class of
    # at most 64 terms allocates its x/v residuals and a few objects, not
    # the 8 bytes per n of the residual square
    cfg = FRConfig(R=50.0, tables=tables_1e5)
    cfg.table()
    for x, v, N in _SHORT_CLASSES:
        tracemalloc.start()
        try:
            delta_sq_progression(x, v, N, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 8 * (x // v + 1) + 4096, (x, v, N, peak)


def test_short_class_builds_no_fr_table(tables_1e5):
    # on a fresh config a class of at most 64 terms reads F_R at its own
    # points: no table is built, and the sum is the table route's bit for bit
    cfg, table_cfg = FRConfig(R=50.0, tables=tables_1e5), FRConfig(R=50.0, tables=tables_1e5)
    table = table_cfg.table()
    for x, v, N in _SHORT_CLASSES:
        start = N % v or v
        diff = tables_1e5.lam[start : x + 1 : v] - table[start : x + 1 : v]
        want = float((diff * diff).sum())
        assert delta_sq_progression(x, v, N, cfg).hex() == want.hex(), (x, v, N)
        assert np.array_equal(frmodel._fr_at(np.arange(start, x + 1, v), cfg), table[start : x + 1 : v])
    assert cfg._table is None


def test_theorem3_record_holds_the_divisors_and_their_max_pairs():
    # one record per (x, v, R): the divisors of the squarefree v, each prime
    # p appending a*p for every divisor a listed before it, and the tau(v)^2
    # ordered pairs (i, j, k), row by row, with a_k = max(a_i, a_j)
    for v, want in ((1, [1]), (6, [1, 2, 3, 6]), (30, [1, 2, 3, 6, 5, 10, 15, 30])):
        record = variance._theorem3_modulus(10**6, v, 50.0)
        assert record is variance._theorem3_modulus(10**6, v, 50.0)
        divs, pairs = record[4], record[5]
        assert list(divs) == want, v
        ij = [(i, j) for i in range(len(divs)) for j in range(len(divs))]
        assert [(i, j) for i, j, _ in pairs] == ij, v
        assert all(divs[k] == max(divs[i], divs[j]) for i, j, k in pairs), v
    assert len(variance._theorem3_modulus(10**6, 2 * 3 * 5 * 7 * 11, 40.0)[5]) == 2 ** (2 * 5)


def test_delta_sq_progression_reads_each_row_length_once(tables_1e5, monkeypatch):
    # every class of the squarefree v <= 60 costs 12 blocked passes over
    # Lambda and the F_R table, one per row length, kept on the config under
    # (x, m) and nothing else, and each class is read from its row length's
    # sums; no residual array is derived
    calls = Counter()
    column_sums = variance._column_sums
    monkeypatch.setattr(variance, "_column_sums", lambda x, m, cfg: calls.update([m]) or column_sums(x, m, cfg))
    cfg = FRConfig(R=30.0, tables=tables_1e5)
    builds = _residual_builds(monkeypatch)
    moduli = _squarefree_up_to(60)
    for _ in range(2):
        for v in moduli:
            for N in range(1, v + 1):
                delta_sq_progression(98_765, v, N, cfg)
    rows = {variance._row_length(98_765, v) for v in moduli}
    assert calls == Counter({m: 1 for m in rows})
    assert len(calls) == 12
    assert sorted(cfg._sums._arrays) == sorted((98_765, m) for m in rows)
    assert builds == []


def test_delta_sq_progression_cache_is_bounded(tables_1e5, monkeypatch):
    # with room for 400 values the config keeps the sums used last, at most
    # 400 values in all or one larger entry alone, and a dropped sum is
    # built again to the same bits
    moduli = _squarefree_up_to(60)
    want = {(v, N): delta_sq_progression(10**5, v, N, FRConfig(R=30.0, tables=tables_1e5)).hex()
            for v in moduli for N in range(v)}
    monkeypatch.setattr(frmodel, "_SUM_CACHE", 400)
    cfg = FRConfig(R=30.0, tables=tables_1e5)
    for _ in range(2):
        for v in moduli:
            for N in range(v):
                assert delta_sq_progression(10**5, v, N, cfg).hex() == want[v, N], (v, N)
                held = [a.size for a in cfg._sums._arrays.values()]
                assert sum(held) <= 400 or len(held) == 1, held
    # v = 59 was asked for last, so its row length's sums are kept
    assert next(reversed(cfg._sums._arrays)) == (10**5, variance._row_length(10**5, 59)) == (10**5, 354)


def test_long_classes_read_strided_equal_contiguous_fold(tables_1e5):
    # a class of more than 64 terms, read as the strided sum of its m/v
    # column sums, equals bit for bit the fold of those sums into v class
    # sums along a contiguous axis, the order the config kept before; the
    # sums come from the test's own square.  At x = 19,999 every v whose
    # primes are at most 13 falls back to m = v; from 30,029 on those take
    # m = 30030, and the rest m = lcm(v, 6), which is 6p for v <= 60
    cfg = FRConfig(R=50.0, tables=tables_1e5)
    sq = tables_1e5.lam - cfg.table()
    np.multiply(sq, sq, out=sq)
    moduli = _squarefree_up_to(60) + [323, 1001]
    for x in (19_999, 30_029, 98_765):
        for v in moduli:
            if x < variance._BLOCK_ROWS * v:
                continue
            m = variance._row_length(x, v)
            if 30030 % v == 0:
                assert m == (v if x < 30029 else 30030), (x, v)
            else:
                assert m == math.lcm(v, 6), (x, v)  # 6p for the v = p, 2p, 3p <= 60
            rows = _reference_column_sums(sq[: x + 1], m)
            fold = np.ascontiguousarray(rows.reshape(-1, v).T).sum(axis=1)
            for N in range(v):
                assert delta_sq_progression(x, v, N, cfg).hex() == float(fold[N % v]).hex(), (x, v, N)


def test_coupled_prediction_v1_collapse(cs):
    for x, R in ((10**4, 10.0), (10**6, 50.0)):
        want = x * (math.log(x / R) - cs.c0)
        for N in (0, 1):
            pred = theorem3_coupled_prediction(x, 1, N, R, cs)
            assert pred.total == approx(want, rel=1e-12)
            assert pred.total == approx(theorem3_prediction(x, 1, N, R, cs).total, rel=1e-12)


def test_coupled_prediction_terms(cs):
    x, R = 10**6, 50.0
    pred = theorem3_coupled_prediction(x, 6, 1, R, cs)
    assert set(pred.terms) == {"lambda_sq_term", "cross_term", "mean_sq_term"}
    assert pred.total == approx(math.fsum(pred.terms.values()), rel=1e-15)
    assert pred.terms["lambda_sq_term"] == approx((x / 2) * (math.log(x) - 1.0), rel=1e-15)
    assert pred.terms["cross_term"] == approx(-x * (math.log(R) + cs.c2), rel=1e-15)
    assert "O-terms" in pred.error_budget
    # classes that share a prime with v carry no prime terms
    off = theorem3_coupled_prediction(x, 6, 3, R, cs)
    assert off.terms["lambda_sq_term"] == 0.0
    assert off.terms["cross_term"] == 0.0


def test_coupled_prediction_validation(cs):
    for call in (theorem3_prediction, theorem3_coupled_prediction):
        with raises(ValueError):
            call(1, 1, 0, 10.0, cs)
        with raises(ValueError):
            call(100, 0, 0, 10.0, cs)
        with raises(ValueError):
            call(100, 1, 0, 0.5, cs)
        with raises(ValueError):
            call(100, 2, -1, 10.0, cs)


@pytest.mark.parametrize("R", [math.inf, -math.inf, math.nan])
def test_theorem3_forms_reject_non_finite_r(cfg20_1e4, cs, R):
    # the closed forms check R by frmodel._check_r with no table limit; the
    # refined form reads R from its config, which rejects it on construction
    for call in (theorem3_prediction, theorem3_coupled_prediction):
        with raises(ValueError, match="finite"):
            call(1_000, 2, 1, R, cs)
    with raises(ValueError, match="finite"):
        FRConfig(R=R, tables=cfg20_1e4.tables)
    bad = copy.copy(cfg20_1e4)
    object.__setattr__(bad, "R", R)  # past the frozen config's own check
    with raises(ValueError, match="finite"):
        theorem3_refined_prediction(1_000, 2, 1, bad, cs)


def test_all_residue_prediction_shape(cs):
    pred = vaughan_prediction(10_000, 100, 10.0, cs)
    assert pred.total == approx(4575173.103251694, rel=1e-12)
    assert pred.terms["log_term"] == approx(6907755.278982136, rel=1e-12)
    assert pred.terms["const_term"] == approx(-2332582.175730442, rel=1e-12)
    # linear in Q, and banded runs depend only on Q - Q_low
    assert vaughan_prediction(10_000, 200, 10.0, cs).total == 2.0 * pred.total
    assert vaughan_prediction(10_000, 100, 10.0, cs, q_low=40.0).total == vaughan_prediction(
        10_000, 60, 10.0, cs
    ).total
    # sign flips where log(x/R) crosses c0
    x = 10_000
    r_hi = x / math.exp(cs.c0 - 0.1)
    r_lo = x / math.exp(cs.c0 + 0.1)
    assert vaughan_prediction(x, 10, r_hi, cs).total < 0
    assert vaughan_prediction(x, 10, r_lo, cs).total > 0


def test_reduced_residue_prediction(cs):
    pred = theorem5_prediction(10_000, 100, 10.0, cs)
    assert pred.total == approx(3775966.734096647, rel=1e-12)
    pz = restricted_product(ProductKind.P_ZETA, 1).value
    pm1 = restricted_product(ProductKind.P_PM1, 1).value
    # the log R coefficient is -(2 - zeta2_inv) per unit Qx
    lr_coef = (
        theorem5_prediction(10_000, 100, math.e * 10.0, cs).terms["log_term"]
        - pred.terms["log_term"]
    ) / 1e6
    assert lr_coef == approx(-(2.0 - pz), rel=1e-9)
    # structural identity: the shifted form's two terms with both restricted
    # products (P_PM1(N), P_SQ(N)) at 1, in the same order of operations
    qe, x, pm1_n, psq_n = 100.0, 10_000, 1.0, 1.0
    t_exp = 2.0 - pz / pm1_n
    want = {
        "log_term": qe * x * pm1_n * (math.log(x) - t_exp * math.log(10.0)),
        "const_term": qe * x * (-pm1_n * cs.c1 + psq_n + pz * cs.c2 - pm1),
    }
    assert pred.terms == want


def test_shifted_prediction_terms(cs):
    x, q, R = 10_000, 100, 10.0
    assert theorem4_prediction(x, q, 2, R, cs).total == approx(3199164.0167193767, rel=1e-12)
    assert theorem4_prediction(x, q, 1, R, cs).total == approx(2187481.5482867286, rel=1e-12)
    pred = theorem4_prediction(x, q, 2, R, cs)
    pm1 = restricted_product(ProductKind.P_PM1, 2).value
    pz = restricted_product(ProductKind.P_ZETA, 1).value
    t2 = t_of_n(2).value
    # two algebraic forms of the log block
    a = q * x * pm1 * (math.log(x) - t2 * math.log(R))
    b = q * x * (pm1 * math.log(x) - (2.0 * pm1 - pz) * math.log(R))
    assert pred.terms["log_term"] == approx(a, rel=1e-9)
    assert pred.terms["log_term"] == approx(b, rel=1e-9)
    # odd N kills the square product inside the constant block
    podd = theorem4_prediction(x, q, 3, R, cs)
    pm1_3 = restricted_product(ProductKind.P_PM1, 3).value
    pm1_1 = restricted_product(ProductKind.P_PM1, 1).value
    want_const = q * x * (-pm1_3 * cs.c1 + 0.0 + pz * cs.c2 - pm1_1)
    assert podd.terms["const_term"] == approx(want_const, rel=1e-12)
    with raises(ValueError):
        theorem4_prediction(x, q, 0, R, cs)


def test_classical_variance_shape(tables_small, tables_1e4):
    one = bdh_variance(100, 1, tables_small)
    want = (theta_progression(100, 1, 0, tables_small) - 100.0) ** 2
    assert one.empirical == approx(want, rel=1e-12)
    assert one.predicted_total == 0.0  # log 1 leading term vanishes
    assert one.relative_deviation is None and one.relative_deviation_main is None
    run = bdh_variance(10_000, 1_000, tables_1e4)
    assert run.empirical == approx(29174642.193569023, rel=1e-12)
    leading = 1_000 * 10_000 * math.log(1_000)
    assert run.predicted_terms["leading"] == approx(leading, rel=1e-15)
    fitted = run.predicted_terms["fitted_C"]
    assert run.empirical == approx(leading + fitted * 1_000 * 10_000, rel=1e-12)
    assert run.relative_deviation is not None


def test_error_budget_strings_pinned(cfg20_1e4, tables_small, cs):
    band = "O-terms at these parameters: Q*x/sqrt(R) = {}; x^2*(log x)^2/R = {}"
    assert vaughan_prediction(10**5, 10**4, 30.0, cs).error_budget == band.format("1.826e+08", "4.418e+10")
    assert theorem5_prediction(10**4, 2000, 10.0, cs).error_budget == band.format("6.325e+06", "8.483e+08")
    assert theorem4_prediction(10**4, 2000, 3, 10.0, cs).error_budget == (
        band.format("6.325e+06", "8.483e+08") + "; product truncation (relative) <= 4.0e-07"
    )
    closed = (
        "O-terms at these parameters: x*tau(v)/(v*sqrt(R)) = 9.428e+04; "
        "x/(phi(v)*sqrt(R)) = 7.071e+04; R^2*log(R) = 9.780e+03; tau(v)*R = 2.000e+02; "
        "x*exp(-c*sqrt(log x)) with ineffective c"
    )
    assert theorem3_prediction(10**6, 6, 5, 50.0, cs).error_budget == closed
    assert theorem3_coupled_prediction(10**6, 6, 5, 50.0, cs).error_budget == closed
    assert theorem3_refined_prediction(10_000, 6, 5, cfg20_1e4, cs).error_budget == (
        "O-terms at these parameters: x*tau(v)/(v*sqrt(R)) = 1.491e+03; "
        "R^2*log(R) = 1.198e+03; tau(v)*R = 8.000e+01; "
        "x*exp(-c*sqrt(log x)) with ineffective c"
    )
    assert bdh_variance(2_000, 100, tables_small).error_budget == (
        "secondary constant intentionally unmodeled; fitted_C reported"
    )


def test_run_metadata(cfg20_1e4):
    run = variance_sum(10_000, 50, cfg20_1e4, RestrictionMode(Mode.ALL))
    assert run.x == 10_000 and run.q == 50 and run.r == 20.0
    assert run.mode is Mode.ALL and run.weight is Weight.THETA
    assert run.wall_time_ms >= 0.0
    assert run.modulus_range == (0.0, 50)


# x at the prime powers 2^20 and 3^12, where the last entry is one the theta
# weight zeroes, and one below each.
STORED_THETA_X = (2**20, 2**20 - 1, 3**12, 3**12 - 1)
# Classes holding prime powers: 4, 8, 16, ... in 0 mod 4, 9, 27, ... in 0 mod
# 9, and 8, 64, 169, ... in 1 mod 7.
STORED_THETA_CLASSES = ((4, 0), (9, 0), (7, 1))
# A COPRIME band of ten moduli goes to the bucket route and an ALL band of 400
# to the lag route; BDH over d <= 100 to the bucket route, over d <= 150 to
# the lag route.
STORED_THETA_BANDS = ((90.0, 100, RestrictionMode(Mode.COPRIME)), (0.0, 400, RestrictionMode(Mode.ALL)))
STORED_THETA_BDH_Q = (100, 150)


@pytest.fixture(scope="module")
def cfg10_2e20():
    cfg = FRConfig(R=10.0, tables=build_tables(build_sieve(2**20)))
    cfg.table()
    return cfg


def _routed_band(moduli, x, diff, restriction, tables):
    """The band by the route _lag_route picks for its width, one thread on the bucket route."""
    if _lag_route(len(moduli), x):
        return _lag_band_sum(moduli, x, diff, restriction, tables)[0]
    return _array_band_sum(moduli, x, diff, restriction, tables)


def _stored_theta(tables):
    """theta as the tables once stored it: Lambda at the primes (spf(n) = n), 0 elsewhere."""
    n = np.arange(tables.limit + 1)
    return np.where(tables.sieve.spf == n, tables.lam, 0.0)


@pytest.mark.parametrize("x", STORED_THETA_X)
def test_theta_consumers_match_stored_theta_bits(cfg10_2e20, x):
    tables = cfg10_2e20.tables
    theta = _stored_theta(tables)
    assert tables.theta.tobytes() == theta.tobytes()
    weights = {Weight.THETA: theta, Weight.PSI: tables.lam}
    for q_low, q, restriction in STORED_THETA_BANDS:
        moduli = range(math.floor(q_low) + 1, q + 1)
        for weight, w in weights.items():
            diff = w[: x + 1] - cfg10_2e20.table()[: x + 1]
            want = _routed_band(moduli, x, diff, restriction, tables)
            got = variance_sum(x, q, cfg10_2e20, restriction, weight=weight, q_low=q_low, threads=1).empirical
            assert got.hex() == want.hex(), (weight, q_low, q)
    for q in STORED_THETA_BDH_Q:
        want = _routed_band(range(1, q + 1), x, theta, RestrictionMode(Mode.BDH), tables)
        assert bdh_variance(x, q, tables, threads=1).empirical.hex() == want.hex(), q
    routes = [_lag_route(q - math.floor(q_low), x) for q_low, q, _ in STORED_THETA_BANDS]
    assert routes + [_lag_route(q, x) for q in STORED_THETA_BDH_Q] == [False, True] * 2
    for d, b in STORED_THETA_CLASSES:
        got = accumulate_modulus(d, x, cfg10_2e20).theta_buckets
        assert got.tobytes() == _bucket_sums(theta, x, d).tobytes(), d
        assert theta_progression(x, d, b, tables).hex() == float(theta[: x + 1][b::d].sum()).hex(), (d, b)


def test_bands_and_a_long_class_hold_no_residual(cfg10_2e20):
    # with the F_R table built, the ALL, COPRIME and SHIFT_COPRIME bucket
    # bands of each weight and a theorem-3 class of 2^20 / 7 terms allocate
    # under 1 byte per n in all, where the residual took 8: the bands stream
    # it a chunk at a time and the class squares Lambda less the table in a
    # chunk-sized buffer
    x = 2**20
    cfg = FRConfig(R=10.0, tables=cfg10_2e20.tables)
    cfg.table()
    assert not _lag_route(10, x)
    tracemalloc.start()
    try:
        for weight in Weight:
            for restriction in VARIANCE_SUM_MODES[:3]:
                variance_sum(x, 100, cfg, restriction, weight=weight, q_low=90.0, threads=1)
        delta_sq_progression(x, 7, 1, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < x + 1, peak


# x at the edges of the chunks of _BLOCK_ELEMENTS = 2^16 entries: a run of
# 2^16 entries is one leaf of _pairwise and one more is split.
CHUNK_EDGE_X = (2**16 - 2, 2**16 - 1, 2**16, 2**17 - 1, 2**17, 2**17 + 1, 3 * 2**16 - 1, 3 * 2**16 + 5)


@pytest.mark.parametrize("x", STORED_THETA_X + CHUNK_EDGE_X)
def test_theta_chunks_match_a_theta_copy(cfg10_2e20, x):
    # the raw sums give the sums of a copy of theta bit for bit on every
    # bucket path, both weights: d = 1 (numpy's pairwise tree over chunks of
    # Lambda), and d >= 2 summed over the primes (and prime powers) in place
    # of the row sums, at all classes and at the reduced ones; and
    # bdh_variance on the bucket route, both weights, the band over that
    # copy (or Lambda)
    tables = cfg10_2e20.tables
    theta = tables.theta
    for d in (1, 2, 3, 4, 5, 6, 7, 30, 97):
        for kept in (slice(None), variance._kept_classes(d, 0, tables.sieve)):
            for w in (theta, tables.lam):
                want = _bucket_sums(w, x, d)[kept]
                got = variance._raw_sums(tables, x, d, w is theta)[kept]
                assert got.tobytes() == want.tobytes(), (d, kept)
    for weight, w in ((Weight.THETA, theta), (Weight.PSI, tables.lam)):
        for q in (1, 2, 7, 100):
            assert not _lag_route(q, x)
            want = _array_band_sum(range(1, q + 1), x, w, RestrictionMode(Mode.BDH), tables)
            assert bdh_variance(x, q, tables, threads=1, weight=weight).empirical.hex() == want.hex(), (weight, q)


@pytest.mark.parametrize("block", [128, 200, 1_000])
def test_theta_chunks_match_a_theta_copy_in_small_chunks(cfg10_2e20, block):
    # chunks and blocks of primes of a few hundred entries: many leaves of
    # the pairwise tree, and many blocks of primes, each carrying the sums
    # of the ones before it
    tables = cfg10_2e20.tables
    theta = tables.theta
    with unittest.mock.patch.object(variance, "_BLOCK_ELEMENTS", block):
        for x in (3**12, 3**12 - 1, 2**17 + 1):
            for d in (1, 2, 3, 4, 5, 30, 97):
                for w in (theta, tables.lam):
                    got = variance._raw_sums(tables, x, d, w is theta)
                    assert got.tobytes() == _bucket_sums(w, x, d).tobytes(), (x, d)


@settings(deadline=None, max_examples=200)
@given(st.data())
def test_raw_sums_over_the_primes_match_a_stored_copy(tables_1e4, data):
    # the column sums over the primes (and, for psi, the prime powers merged
    # among them), in blocks of 1, 3 or 7 primes or the default, equal the
    # row sums of a stored theta or psi copy bit for bit: d from 2
    # to about 5,000, x < d, and x at a prime power or anywhere
    tables = tables_1e4
    d = data.draw(st.integers(2, 5_000), label="d")
    powers = tables.prime_powers.tolist()
    x = data.draw(
        st.one_of(st.integers(0, d - 1), st.sampled_from(powers), st.integers(0, tables.limit)), label="x"
    )
    block = data.draw(st.sampled_from([1, 3, 7, variance._BLOCK_ELEMENTS]), label="block")
    theta = data.draw(st.booleans(), label="theta")
    stored = _stored_theta(tables) if theta else tables.lam.copy()
    with unittest.mock.patch.object(variance, "_BLOCK_ELEMENTS", block):
        got = variance._raw_sums(tables, x, d, theta)
    assert got.tobytes() == _bucket_sums(stored, x, d).tobytes()


@settings(deadline=None, max_examples=120)
@given(st.data())
def test_streamed_sums_match_a_stored_residual(tables_1e5, data):
    # one streamed pass gives every modulus the column sums of all its
    # classes that _bucket_sums gives over a stored copy of the residual,
    # in .tobytes(): sets of 1 to 40 moduli from 1 to past the chunk, so
    # rows split at the chunk edges; x + 1 below d, a multiple of d, at the
    # edges of the default chunks, or anywhere; both weights; chunks of the
    # default size or a small one (numpy's pairwise tree, whose leaves give
    # d = 1, then keeps each at most 128 entries, and at least 64 once
    # x + 1 > 128).  A band streamed by two workers, each a share of its
    # moduli, is one worker's bit for bit.
    tables = tables_1e5
    chunk = data.draw(st.sampled_from([7, 64, variance._BLOCK_ELEMENTS]), label="chunk")
    span = max(chunk, 128)
    moduli = data.draw(
        st.lists(st.one_of(st.integers(1, 8), st.integers(1, 400), st.integers(1, 3 * span)), min_size=1, max_size=40),
        label="moduli",
    )
    d = moduli[0]
    x = data.draw(
        st.one_of(
            st.integers(0, tables.limit),
            st.integers(0, max(0, d - 2)),
            st.integers(1, tables.limit // d + 1).map(lambda k: min(k * d - 1, tables.limit)),
            st.sampled_from([e for e in CHUNK_EDGE_X if e <= tables.limit]),
        ),
        label="x",
    )
    weight = data.draw(st.sampled_from(list(Weight)), label="weight")
    theta = weight is Weight.THETA
    table = FRConfig(R=20.0, tables=tables).table()
    stored = _weight(tables, x, theta, model=table)
    band = sorted(set(moduli))
    with unittest.mock.patch.object(variance, "_BLOCK_ELEMENTS", chunk):
        got = variance._stream_sums(tables, x, theta, table, moduli)
        assert [s.tobytes() for s in got] == [_bucket_sums(stored, x, d).tobytes() for d in moduli]
        runs = []
        for threads in (1, 2):
            cfg = FRConfig(R=20.0, tables=tables)
            total = variance._fr_band_sum(band, x, weight, RestrictionMode(Mode.ALL), cfg, threads)
            runs.append((total.hex(), [cfg._sums.held((x, weight, d)) for d in band]))
    assert runs[0][0] == runs[1][0]
    assert [[None if a is None else a.tobytes() for a in arrs] for _, arrs in runs] == [
        [_bucket_sums(stored, x, d).tobytes() if sum(band) <= frmodel._SUM_CACHE else None for d in band]
    ] * 2


def test_a_band_that_fits_alone_keeps_the_column_sums(tables_1e5, monkeypatch):
    # with room for 35,000 values, the 30,030 theorem-3 column sums held
    # first leave no room for an ALL band whose moduli add up to 9,955: it
    # holds none of its class sums, so the column sums survive; a later band
    # of moduli that fit beside them holds its sums.  Both bands are fresh
    # configs' bit for bit
    x, all_classes = 99_991, RestrictionMode(Mode.ALL)
    bands = ((990.0, 1000), (2.0, 12))
    want = [variance_sum(x, q, FRConfig(R=20.0, tables=tables_1e5), all_classes, q_low=q_low, threads=1).empirical
            for q_low, q in bands]
    monkeypatch.setattr(frmodel, "_SUM_CACHE", 35_000)
    cfg = FRConfig(R=20.0, tables=tables_1e5)
    delta_sq_progression(x, 30, 1, cfg)
    key = (x, 30_030)
    assert list(cfg._sums._arrays) == [key] and sum(range(991, 1001)) == 9_955
    got = [variance_sum(x, q, cfg, all_classes, q_low=q_low, threads=1).empirical for q_low, q in bands]
    assert list(cfg._sums._arrays) == [key, *((x, Weight.THETA, d) for d in range(3, 13))]
    assert [g.hex() for g in got] == [w.hex() for w in want]


@pytest.mark.parametrize("threads", [1, 2])
def test_restricted_bands_select_the_class_sums_all_built(tables_1e5, threads, monkeypatch):
    # on one config COPRIME and SHIFT_COPRIME after ALL build no row sum at
    # any d, d <= 6 included: they select their classes from the sums ALL
    # left; in any order each row sum is built once, and every band is a
    # fresh config's bit for bit
    x = 99_991
    modes = VARIANCE_SUM_MODES[:3]
    bands = ((90.0, 100), (0.0, 12))
    assert not any(_lag_route(q - math.floor(q_low), x) for q_low, q in bands)

    def hexes(cfg, order):
        return {(r, band): variance_sum(x, band[1], cfg, r, q_low=band[0], threads=threads).empirical.hex()
                for band in bands for r in order}

    want = {key: h for r in modes for key, h in hexes(FRConfig(R=20.0, tables=tables_1e5), [r]).items()}
    row_sums = []
    stream_sums = variance._stream_sums

    def spy(tables, x, theta, table, moduli):
        row_sums.extend(moduli)
        return stream_sums(tables, x, theta, table, moduli)

    monkeypatch.setattr(variance, "_stream_sums", spy)
    for order in (modes, modes[::-1]):
        cfg = FRConfig(R=20.0, tables=tables_1e5)
        got = hexes(cfg, order[:1])
        first = sorted(row_sums)
        row_sums.clear()
        got.update(hexes(cfg, order[1:]))
        assert got == want, order
        if order[0].mode is Mode.ALL:
            assert first == [*range(1, 13), *range(91, 101)] and not row_sums
        assert sorted(first + row_sums) == sorted(set(first + row_sums)), order
        row_sums.clear()


def test_a_band_too_wide_to_hold_keeps_the_column_sums(tables_1e5, monkeypatch):
    # with room for 35,000 values, a bucket-route band whose moduli add up
    # to more holds none of its class sums: the theorem-3 column sums the
    # config keeps survive an ALL band and a COPRIME band after it, and the
    # COPRIME band, which sums every modulus again, is a fresh config's bit
    # for bit
    x, v, (q_low, q) = 99_991, 30, (4_000.0, 4_010)
    room, coprime = 35_000, RestrictionMode(Mode.COPRIME)
    moduli = range(math.floor(q_low) + 1, q + 1)
    assert not _lag_route(len(moduli), x) and sum(moduli) > room
    want = variance_sum(x, q, FRConfig(R=20.0, tables=tables_1e5), coprime, q_low=q_low, threads=1).empirical
    monkeypatch.setattr(frmodel, "_SUM_CACHE", room)
    cfg = FRConfig(R=20.0, tables=tables_1e5)
    delta_sq_progression(x, v, 1, cfg)
    key = (x, variance._row_length(x, v))
    assert key == (x, 30_030) and list(cfg._sums._arrays) == [key]
    variance_sum(x, q, cfg, RestrictionMode(Mode.ALL), q_low=q_low, threads=1)
    got = variance_sum(x, q, cfg, coprime, q_low=q_low, threads=1).empirical
    assert list(cfg._sums._arrays) == [key]
    assert got.hex() == want.hex()


def test_bucket_route_bdh_reads_theta_in_chunks(cfg10_2e20):
    # the bucket route sums theta at d = 1 a chunk at a time from Lambda,
    # and both weights at d >= 2 over blocks of primes (an index and a
    # weight buffer of one block, and psi's merged block): at most three
    # chunks of _BLOCK_ELEMENTS floats are live at once, under a fifth of a
    # copy of theta (8 bytes per n) at 2^20, whatever x
    tables = cfg10_2e20.tables
    x = tables.limit
    bound = 3 * 8 * variance._BLOCK_ELEMENTS + 65536
    assert not _lag_route(100, x) and bound < 8 * (x + 1) / 5
    for weight in Weight:
        tracemalloc.start()
        try:
            bdh_variance(x, 100, tables, threads=1, weight=weight)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound, (weight, peak)


def _residual_builds(monkeypatch):
    """(theta, lo, hi) of each run [lo, hi] of the residual derived from a model, in order."""
    builds = []
    weight = variance._weight

    def spy(tables, x, theta, b=0, d=1, model=None):
        if model is not None and d == 1:
            builds.append((theta, b, x))
        return weight(tables, x, theta, b, d, model)

    monkeypatch.setattr(variance, "_weight", spy)
    return builds


def _passes_over(builds):
    """(theta, x) of each pass in builds: runs from 0 that follow on each other up to x."""
    passes = []
    for theta, lo, hi in builds:
        if lo == 0:
            passes.append([theta, hi])
        else:
            assert passes and passes[-1] == [theta, lo - 1], (theta, lo, hi)
            passes[-1][1] = hi
    return [tuple(p) for p in passes]


@pytest.mark.parametrize("band", [(90.0, 100), (0.0, 400)], ids=["bucket", "lag"])
def test_bands_on_one_config_build_one_residual(cfg10_2e20, band, monkeypatch):
    # each band derives its residual at most once and holds none: a
    # lag-route band derives it over [0, x] for itself, a bucket-route ALL
    # band streams it once in chunks of at most _BLOCK_ELEMENTS entries, and
    # the bucket-route restricted bands after it, and every band of the
    # second theta round, read the class sums it left; the bands are those
    # of fresh configs bit for bit
    q_low, q = band
    x = 100_000
    lag = _lag_route(q - math.floor(q_low), x)
    assert lag == (q == 400)
    steps = [(w, r) for w in (Weight.THETA, Weight.THETA, Weight.PSI) for r in VARIANCE_SUM_MODES[:3]]

    def band_hex(cfg, weight, r):
        return variance_sum(x, q, cfg, r, weight=weight, q_low=q_low, threads=1).empirical.hex()

    want = [band_hex(FRConfig(R=10.0, tables=cfg10_2e20.tables), w, r) for w, r in steps]
    cfg = FRConfig(R=10.0, tables=cfg10_2e20.tables)
    builds = _residual_builds(monkeypatch)
    assert [band_hex(cfg, w, r) for w, r in steps] == want
    if lag:
        assert builds == [(w is Weight.THETA, 0, x) for w, _ in steps]
    else:
        assert _passes_over(builds) == [(True, x), (False, x)]
        assert max(hi + 1 - lo for _, lo, hi in builds) <= variance._BLOCK_ELEMENTS
    assert [f.name for f in dataclasses.fields(cfg) if isinstance(getattr(cfg, f.name), np.ndarray)] == [
        "_coef", "_table"
    ]


def test_each_band_derives_the_residual_to_its_own_x(cfg10_2e20, monkeypatch):
    # a bucket-route band streams the residual over [0, x] of its own x and
    # no further, once per x on a config (the class sums are kept per x), each
    # band equal to a fresh config's bit for bit
    xs = (50_000, 20_000, 100_000, 100_000, 99_999)
    coprime = RestrictionMode(Mode.COPRIME)

    def band_hex(cfg, x):
        return variance_sum(x, 100, cfg, coprime, q_low=90.0, threads=1).empirical.hex()

    want = [band_hex(FRConfig(R=10.0, tables=cfg10_2e20.tables), x) for x in xs]
    cfg = FRConfig(R=10.0, tables=cfg10_2e20.tables)
    builds = _residual_builds(monkeypatch)
    assert [band_hex(cfg, x) for x in xs] == want
    assert _passes_over(builds) == [(True, 50_000), (True, 20_000), (True, 100_000), (True, 99_999)]


def test_bands_and_class_sums_interleaved_match_fresh_configs(tables_1e5, monkeypatch):
    # band, class sums, band, class sums on one config: every value is that
    # of fresh configs bit for bit; each band streams its residual once and
    # the class sums derive none, whatever weight the band before them took
    band, coprime = (900.0, 960), RestrictionMode(Mode.COPRIME)
    steps = ((Weight.THETA, 99_991), (Weight.PSI, 99_997))

    def values(cfg, weight, x):
        out = [variance_sum(x, band[1], cfg, coprime, weight=weight, q_low=band[0], threads=1).empirical.hex()]
        return out + [delta_sq_progression(x, v, 1, cfg).hex() for v in (6, 7)]

    want = [values(FRConfig(R=50.0, tables=tables_1e5), w, x) for w, x in steps]
    cfg = FRConfig(R=50.0, tables=tables_1e5)
    builds = _residual_builds(monkeypatch)
    assert [values(cfg, w, x) for w, x in steps] == want
    assert _passes_over(builds) == [(True, 99_991), (False, 99_997)]