"""Model tests: Ramanujan sums, both F_R routes, exact identities, class means."""

import copy
import dataclasses
import math
import pickle
import tracemalloc
from fractions import Fraction

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings
from pytest import approx, raises

from vaughanlab import (
    FRConfig,
    TableRangeError,
    delta_indicator,
    delta_sq_progression,
    delta_value,
    fr_square_progression_mean,
    fr_table_naive,
    fr_value,
    fr_value_naive,
    mobius_cr_identity,
    mu2_over_phi_sum,
    ramanujan_sum,
    ramanujan_sum_oracle,
    rho,
    rho_star,
    build_sieve,
    build_tables,
    verify_mobius_cr_range,
)
from vaughanlab import arith, frmodel
from vaughanlab.arith import is_squarefree
from vaughanlab.variance import Mode, RestrictionMode, Weight, variance_sum


@pytest.fixture(scope="module")
def cfg50_small(tables_small):
    return FRConfig(R=50.0, tables=tables_small)


@pytest.fixture(scope="module")
def cfg50_1e4(tables_1e4):
    return FRConfig(R=50.0, tables=tables_1e4)


def test_ramanujan_spot_values(tables_small):
    sieve = tables_small.sieve
    for n in range(0, 20):
        assert ramanujan_sum(1, n, sieve) == 1
        assert ramanujan_sum(2, n, sieve) == (1 if n % 2 == 0 else -1)
    for r in (1, 2, 6, 30, 210):
        assert ramanujan_sum(r, 0, sieve) == int(tables_small.phi[r])
    for p in (2, 3, 5, 97):
        assert ramanujan_sum(p, p * 3, sieve) == p - 1
        assert ramanujan_sum(p, 1, sieve) == -1
    assert ramanujan_sum(12, 7, sieve) == 0
    assert ramanujan_sum(4, 2, sieve) == -2


def test_ramanujan_validation(tables_small):
    sieve = tables_small.sieve
    with raises(ValueError):
        ramanujan_sum(0, 1, sieve)
    with raises(ValueError):
        ramanujan_sum(3, -1, sieve)
    with raises(TableRangeError):
        ramanujan_sum(10**7, 1, sieve)
    with raises(ValueError):
        ramanujan_sum_oracle(0, 1)


@settings(deadline=None)
@given(st.integers(1, 60), st.integers(0, 120))
def test_ramanujan_matches_exponential_oracle(tables_small, r, n):
    exact = ramanujan_sum(r, n, tables_small.sieve)
    direct = ramanujan_sum_oracle(r, n)
    assert abs(direct - exact) <= 1e-8


@settings(deadline=None)
@given(st.integers(1, 60), st.integers(1, 60), st.integers(0, 100))
def test_ramanujan_multiplicative(tables_small, r1, r2, n):
    sieve = tables_small.sieve
    if math.gcd(r1, r2) != 1 or r1 * r2 > sieve.limit:
        return
    assert ramanujan_sum(r1 * r2, n, sieve) == ramanujan_sum(r1, n, sieve) * ramanujan_sum(
        r2, n, sieve
    )


def test_model_is_one_below_truncation_two(tables_small):
    for R in (1.0, 1.5, 1.999):
        cfg = FRConfig(R=R, tables=tables_small)
        for n in (1, 2, 17, 1999):
            assert fr_value(n, cfg) == 1.0
        assert np.all(cfg.table()[1:] == 1.0)
        assert cfg.table()[0] == 0.0


def test_truncation_two_alternates(tables_small):
    cfg = FRConfig(R=2.0, tables=tables_small)
    for n in range(1, 40):
        expect = 0.0 if n % 2 == 0 else 2.0
        assert fr_value(n, cfg) == approx(expect, abs=1e-12)


def test_truncation_uses_floor(tables_small):
    lo = FRConfig(R=10.0, tables=tables_small)
    hi = FRConfig(R=10.9, tables=tables_small)
    for n in (1, 6, 97, 1024):
        assert fr_value(n, lo) == fr_value(n, hi)


def test_value_at_one_is_squarefree_partial_sum(tables_small):
    for R in (1.0, 10.0, 50.0, 199.5):
        cfg = FRConfig(R=R, tables=tables_small)
        want = mu2_over_phi_sum(R, tables_small)
        assert fr_value(1, cfg) == approx(want, rel=1e-12)
        # any prime beyond the truncation sees only the d = 1 coefficient
        assert fr_value(211, cfg) == fr_value(1, cfg)


@settings(deadline=None)
@given(st.integers(1, 10_000), st.sampled_from([10.0, 50.0]))
def test_fast_route_matches_naive_route(tables_1e4, n, R):
    cfg = FRConfig(R=R, tables=tables_1e4)
    a = fr_value(n, cfg)
    b = fr_value_naive(n, cfg)
    assert a == approx(b, rel=1e-9, abs=1e-9)


def test_dense_tables_match_and_index_zero_contract(tables_small):
    for R in (1.0, 2.0, 10.0, 50.0):
        cfg = FRConfig(R=R, tables=tables_small)
        naive = fr_table_naive(2_000, cfg)
        fast = cfg.table()[:2_001]
        assert float(np.max(np.abs(naive[1:] - fast[1:]))) <= 1e-10
        mertens = int(tables_small.mu[1 : int(R) + 1].sum())
        assert fast[0] == 0.0
        assert naive[0] == approx(float(mertens), abs=1e-9)


def _strided_fr_table(cfg):
    """The one-pass-per-divisor body FRConfig.table had before it ran by segments, kept as its oracle."""
    t = np.zeros(cfg.tables.limit + 1, dtype=np.float64)
    for d in range(1, cfg.r_int + 1):
        c = cfg._coef[d]
        if c != 0.0:
            t[d::d] += c
    return t


def _assert_fr_table_matches_strided(limit):
    # At R = 13 and 16 every d divides 30030 and the tile alone builds the
    # table; at 17 the strided tail starts.
    tables = build_tables(build_sieve(limit))
    for R in (2.0, 10.0, 13.0, 16.0, 17.0, 50.0):
        if R > limit:
            continue
        cfg = FRConfig(R=R, tables=tables)
        got, want = cfg.table(), _strided_fr_table(cfg)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), (limit, R)


# Every limit up to 64, 960 and 961, powers of two and three, 10^5, the prime
# 100003, either side of the segment length 2^18, 2^20 + 1 and two past three
# full segments; either side of the tile period 30030 and one past two periods.
FR_TABLE_LIMITS = sorted(
    set(range(2, 65))
    | {960, 961, 1024, 2**16, 3**10, 10**5, 100_003}
    | {2**18 - 1, 2**18, 2**18 + 1, 2**20 + 1, 3 * 2**18 + 2}
    | {30_029, 30_030, 30_031, 2 * 30_030 + 1}
)


@pytest.mark.parametrize("limit", FR_TABLE_LIMITS)
def test_segmented_fr_table_matches_strided_bytes(limit):
    _assert_fr_table_matches_strided(limit)


def test_segmented_fr_table_matches_strided_in_tiny_segments(monkeypatch):
    # Segments of 7 are shorter than most divisors d <= 50, so many get no
    # multiple in a segment and the rest start mid-segment.
    monkeypatch.setattr(frmodel, "_SEGMENT", 7)
    for limit in range(2, 301):
        _assert_fr_table_matches_strided(limit)


@pytest.mark.parametrize("period", [6, 30])
def test_tiled_fr_table_matches_strided_with_a_tiny_period(monkeypatch, period):
    # A period of 6 tiles the d in {1, 2, 3} and of 30 those in {1, 2, 3, 5, 6}.
    # With 6, d = 6 divides the period but follows 5, which does not, so it
    # stays in the strided tail and every entry keeps its ascending order.
    monkeypatch.setattr(frmodel, "_PRIMORIAL", period)
    for limit in range(2, 301):
        _assert_fr_table_matches_strided(limit)


def test_fr_table_holds_8_bytes_per_n_plus_a_period_and_a_segment(tables_1e6):
    # The tile is made in place of the zeroed table, not beside it: the table
    # keeps 8 bytes per n and the tiled copy at most one period more; the
    # set-up peaks within one segment of that.
    limit = tables_1e6.limit
    cfg = FRConfig(R=50.0, tables=tables_1e6)
    tracemalloc.start()
    try:
        cfg.table()
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert kept <= 8 * (limit + 1 + arith._PRIMORIAL)
    assert peak <= 8 * (limit + 1 + arith._PRIMORIAL + arith._SEGMENT)


def test_mu2_over_phi_values(tables_small):
    assert mu2_over_phi_sum(10.0, tables_small) == approx(float(Fraction(11, 3)), rel=1e-15)
    assert mu2_over_phi_sum(100.0, tables_small) == approx(5.910544146635514, rel=1e-13)
    assert mu2_over_phi_sum(1000.0, tables_small) == approx(8.240045664918327, rel=1e-13)
    with raises(ValueError):
        mu2_over_phi_sum(0.5, tables_small)
    with raises(TableRangeError):
        mu2_over_phi_sum(10**7, tables_small)


def test_delta_value_is_lambda_minus_model(cfg50_small, tables_small):
    for n in (1, 2, 8, 97, 210):
        want = float(tables_small.lam[n]) - fr_value(n, cfg50_small)
        assert delta_value(n, cfg50_small) == approx(want, abs=1e-12)
    # both check n through divisors before reading any table
    limit = tables_small.limit
    for call in (fr_value, delta_value):
        assert call(limit, cfg50_small) == call(limit, cfg50_small)
        for n in (0, -1):
            with raises(ValueError, match=">= 1"):
                call(n, cfg50_small)
        with raises(TableRangeError, match="exceeds"):
            call(limit + 1, cfg50_small)


def test_rho_partition_and_frozen(cfg50_small, cfg50_1e4):
    full = rho(2_000, 1, 0, cfg50_small)
    assert full == approx(float(cfg50_small.table()[1:2_001].sum()), rel=1e-12)
    for d in (2, 3, 7):
        parts = sum(rho(2_000, d, b, cfg50_small) for b in range(d))
        assert parts == approx(full, rel=1e-9)
    assert rho(2_000, 6, 6, cfg50_small) == rho(2_000, 6, 0, cfg50_small)
    assert rho(10_000, 6, 1, cfg50_1e4) == approx(5003.431832298136, rel=1e-12)


def test_rho_star_frozen_and_validation(cfg50_1e4):
    assert rho_star(10_000, 6, 1, cfg50_1e4) == approx(2.431832298139604, rel=1e-6)
    with raises(ValueError):
        rho_star(10_000, 4, 1, cfg50_1e4)  # modulus must be squarefree


def test_delta_indicator_branches():
    assert delta_indicator(0, 1) == 1
    assert delta_indicator(0, 2) == 0
    assert delta_indicator(1, 1) == 1
    assert delta_indicator(5, 6) == 1
    assert delta_indicator(3, 6) == 0
    with raises(ValueError):
        delta_indicator(-1, 2)
    with raises(ValueError):
        delta_indicator(1, 0)


def test_mobius_cr_identity_exact(tables_small):
    sieve = tables_small.sieve
    lhs, rhs = mobius_cr_identity(6, 1, sieve)
    assert lhs == rhs == Fraction(3)
    lhs, rhs = mobius_cr_identity(6, 3, sieve)
    assert lhs == rhs == Fraction(0)
    lhs, rhs = mobius_cr_identity(1, 0, sieve)
    assert lhs == rhs == Fraction(1)
    lhs, rhs = mobius_cr_identity(30, 0, sieve)
    assert lhs == rhs == Fraction(0)
    with raises(ValueError):
        mobius_cr_identity(4, 1, sieve)


@settings(deadline=None)
@given(st.integers(1, 200), st.integers(0, 200))
def test_mobius_cr_identity_random(tables_small, v, N):
    if not is_squarefree(v, tables_small.sieve) or N > v:
        return
    lhs, rhs = mobius_cr_identity(v, N, tables_small.sieve)
    assert lhs == rhs


def test_verify_range_counts_all_pairs(tables_small):
    sieve = tables_small.sieve
    count = verify_mobius_cr_range(200, sieve)
    expect = sum(v + 1 for v in range(1, 201) if is_squarefree(v, sieve))
    assert count == expect == 12201


def test_progression_mean_reduces_at_modulus_one(cfg50_small, tables_small):
    got = fr_square_progression_mean(1, 0, cfg50_small)
    assert got == approx(mu2_over_phi_sum(50.0, tables_small), rel=1e-12)


def test_progression_mean_class_average_is_global_mean(cfg50_small, tables_small):
    whole = fr_square_progression_mean(1, 0, cfg50_small)
    for v in (2, 3, 6):
        classes = [fr_square_progression_mean(v, N, cfg50_small) for N in range(1, v + 1)]
        assert sum(classes) / v == approx(whole, rel=1e-12)


def test_progression_mean_frozen_values(cfg50_small):
    assert fr_square_progression_mean(2, 1, cfg50_small) == approx(10.188081121776774, rel=1e-12)
    assert fr_square_progression_mean(2, 2, cfg50_small) == approx(0.30070738440303657, rel=1e-12)
    assert fr_square_progression_mean(6, 1, cfg50_small) == approx(14.758914455110107, rel=1e-12)
    assert fr_square_progression_mean(6, 6, cfg50_small) == approx(0.39237405106970324, rel=1e-12)
    with raises(ValueError):
        fr_square_progression_mean(0, 1, cfg50_small)
    with raises(ValueError):
        fr_square_progression_mean(2, -1, cfg50_small)


def test_progression_mean_matches_dense_average(tables_1e4):
    # exact period average equals the empirical average of the dense table
    # over full periods of the class
    cfg = FRConfig(R=10.0, tables=tables_1e4)
    t = cfg.table()
    v = 6
    period = math.lcm(*range(1, 11), v)  # all pair periods divide this
    for N in (1, 2, 3, 6):
        ns = np.arange(N, period + 1, v)
        ns = ns[ns >= 1]
        emp = float((t[ns] ** 2).mean())
        assert fr_square_progression_mean(v, N, cfg) == approx(emp, rel=1e-9)


def test_config_validation(tables_small):
    with raises(ValueError):
        FRConfig(R=0.5, tables=tables_small)
    with raises(TableRangeError):
        FRConfig(R=1e7, tables=tables_small)
    for R in (math.inf, -math.inf, math.nan):  # checked before R is floored, which overflows at inf
        with raises(ValueError, match="finite"):
            FRConfig(R=R, tables=tables_small)
        with raises(ValueError, match="finite"):
            mu2_over_phi_sum(R, tables_small)


def test_config_is_frozen_and_replace_rebuilds(tables_small):
    cfg50 = FRConfig(R=50, tables=tables_small)
    assert type(cfg50.R) is float
    with raises(dataclasses.FrozenInstanceError):
        cfg50.R = 20.0
    cfg50.table()  # built for R = 50; a replacement at another R builds its own
    cfg20 = dataclasses.replace(cfg50, R=20.0)
    fresh = FRConfig(R=20.0, tables=tables_small)
    assert fr_value(30, cfg20) == fr_value(30, fresh) == approx(1.301388888888889, rel=1e-15)
    assert cfg20.table()[30] == fresh.table()[30] == fr_value(30, fresh)
    assert cfg20.table().tobytes() == fresh.table().tobytes()
    assert cfg50.table()[30] == fr_value(30, cfg50) != fr_value(30, fresh)


def test_configs_over_distinct_tables_compare_by_table_identity():
    # Two table sets with equal arrays are distinct objects: comparing them,
    # their sieves or configs built on them gives False and raises nothing.
    t, u = build_tables(build_sieve(100)), build_tables(build_sieve(100))
    assert (t == u) is False and (t.sieve == u.sieve) is False
    cfg = FRConfig(R=10, tables=t)
    assert (cfg == FRConfig(R=10, tables=u)) is False
    assert cfg == cfg and cfg == FRConfig(R=10, tables=t)


def test_config_arrays_are_read_only(tables_small):
    # a write to the F_R table would leave the cached class sums on the old
    # values while later bands read the new ones; every array refuses it,
    # the sums it keeps included: the class sums of a bucket-route band of
    # each weight, the theorem-3 column sums and the lone rows of a
    # lag-route band.  The config holds the sums of one x, so each is taken
    # while held, and an array it drops stays read-only
    cfg = FRConfig(R=10.0, tables=tables_small)
    for weight in Weight:
        variance_sum(2_000, 12, cfg, RestrictionMode(Mode.ALL), weight=weight, q_low=8.0, threads=1)
    held = list(cfg._sums._arrays.values())  # the moduli 9..12 per weight
    variance_sum(1_000, 500, cfg, RestrictionMode(Mode.ALL), threads=1)
    assert list(cfg._sums._arrays) == [(1_000, Weight.THETA, 0, 1, 0, 500)]  # the lone row e = 1
    held += cfg._sums._arrays.values()
    delta_sq_progression(2_000, 6, 1, cfg)
    assert list(cfg._sums._arrays) == [(2_000, 6)]  # one row length
    held += cfg._sums._arrays.values()
    assert len(held) == 2 * 4 + 1 + 1  # the moduli 9..12 per weight, one row length, the lone row e = 1
    for arr in (cfg._coef, cfg.table(), *held):
        before = arr.copy()
        assert not arr.flags.writeable
        with raises(ValueError):
            arr[7] = 123.0
        assert arr.tobytes() == before.tobytes()


def test_config_copies_and_pickles_rebuild_from_r_and_tables(cfg50_small):
    cfg50_small.table()
    delta_sq_progression(1000, 6, 1, cfg50_small)  # fills its cache of sums
    copies = (copy.copy(cfg50_small), copy.deepcopy(cfg50_small), pickle.loads(pickle.dumps(cfg50_small)))
    for other in (*copies, dataclasses.replace(cfg50_small)):
        assert other.R == 50.0 and other._table is None
        assert other._coprime_g is not cfg50_small._coprime_g
        assert other._sums is not cfg50_small._sums and not other._sums._arrays
        assert other.table().tobytes() == cfg50_small.table().tobytes()


@settings(deadline=None, max_examples=300)
@given(st.integers(0, 12), st.lists(st.tuples(st.integers(0, 2), st.integers(0, 3), st.integers(0, 6)), max_size=60))
def test_array_cache_matches_a_reference_model(max_values, steps):
    # each get of ((x, k), size) keeps what a one-x model keeps: a key at
    # another x drops every entry first, and a new entry is held where it
    # fits beside the held ones, max_values elements in all, and nothing
    # else is dropped; a hit hands back the array stored first and builds
    # nothing, and a miss builds the array again
    cache = frmodel._ArrayCache(max_values)
    model = {}  # key -> size, in the order stored
    for x, k, size in steps:
        key, built = (x, k), []
        arr = cache.get(key, lambda: built.append(key) or np.zeros(size))
        if key in model:
            assert not built and arr.size == model[key]
        else:
            assert built and arr.size == size
            if model and next(iter(model))[0] != x:
                model.clear()
            if sum(model.values()) + size <= max_values:
                model[key] = size
        assert list(cache._arrays) == list(model), (max_values, steps)
        assert [a.size for a in cache._arrays.values()] == list(model.values())
        assert cache._size == sum(model.values()) <= max_values
        assert not arr.flags.writeable
