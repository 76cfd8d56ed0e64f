"""Sieve, table, and progression-sum tests."""

import copy
import dataclasses
import inspect
import math
import pickle
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from types import SimpleNamespace

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings
from pytest import approx, raises

from vaughanlab import (
    FactorSieve,
    TableRangeError,
    build_sieve,
    build_tables,
    divisors,
    factorize,
    is_squarefree,
    psi_progression,
    theta_progression,
)
from vaughanlab import arith
from vaughanlab.arith import _weight, mu_of, phi_of, prime_array
from vaughanlab.constants import constant_set
from vaughanlab.constants import prime_array as constants_prime_array


def brute_divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def test_build_sieve_rejects_tiny_limit():
    with raises(ValueError):
        build_sieve(1)


def test_build_sieve_takes_integer_limits_only():
    # A float limit names itself in the error instead of failing inside numpy;
    # numpy's integers are integers.
    for bad in (1e5, 1000.0, np.float64(1000), "1000", None):
        with raises(ValueError, match="integer"):
            build_sieve(bad)
    got, want = build_sieve(np.int64(1000)), build_sieve(1000)
    assert got.spf.tobytes() == want.spf.tobytes() and got.primes().tobytes() == want.primes().tobytes()


def test_spf_is_smallest_prime_factor(tables_small):
    sieve = tables_small.sieve
    for n in range(2, 300):
        p = int(sieve.spf[n])
        assert n % p == 0
        assert all(n % q != 0 for q in range(2, p))
    assert sieve.spf[0] == 0 and sieve.spf[1] == 0


def test_primes_and_is_prime(tables_small):
    sieve = tables_small.sieve
    ps = set(int(p) for p in sieve.primes())
    for n in range(2, 300):
        assert sieve.is_prime(n) == (n in ps)
        assert (n in ps) == all(n % q != 0 for q in range(2, n))
    with raises(TableRangeError):
        sieve.is_prime(10**9)


def _mask_primes(sieve):
    """The arange/mask expression FactorSieve.primes used before it read prime_array, kept as its oracle."""
    ns = np.arange(sieve.limit + 1, dtype=np.int64)
    return ns[(ns >= 2) & (sieve.spf == ns)]


def test_sieve_primes_match_mask_expression():
    for n in [*range(2, 2001), 10**6 + 3, *SEGMENT_EDGES]:
        sieve = build_sieve(n)
        got, want = sieve.primes(), _mask_primes(sieve)
        assert got.dtype == want.dtype == np.int64, n
        assert np.array_equal(got, want), n


@pytest.mark.parametrize("limit", [10**5, 10**6])
def test_sieve_keeps_its_primes(limit):
    sieve = build_sieve(limit)
    primes = sieve.primes()
    assert sieve.primes() is primes
    assert not primes.flags.writeable
    want = prime_array(limit)
    assert primes.dtype == want.dtype and primes.tobytes() == want.tobytes()


def test_prime_arrays_are_read_only():
    assert constants_prime_array is prime_array
    for arr in (prime_array(1000), build_sieve(997).primes(), build_sieve(1000).primes()):
        assert not arr.flags.writeable
        with raises(ValueError):
            arr[0] = 3


def _table_arrays(tables):
    return (tables.sieve.spf, tables.sieve.primes(), tables.lam, tables.mu, tables.phi, tables.prime_powers)


@pytest.mark.parametrize("limit", [2, 3, 4, 100, 2_000, 10**5 + 3])
def test_hand_built_sieve_takes_the_primes_its_spf_implies(limit):
    # a sieve built from a bare spf table finds its primes (spf[n] == n,
    # n >= 2) and builds the same tables as build_sieve's
    built = build_sieve(limit)
    spf = built.spf.copy()
    sieve = FactorSieve(limit, spf)
    primes = sieve.primes()
    assert sieve.primes() is primes and not primes.flags.writeable
    assert primes.dtype == built.primes().dtype and primes.tobytes() == built.primes().tobytes()
    assert not sieve.spf.flags.writeable and sieve.spf.tobytes() == built.spf.tobytes()
    got, want = build_tables(sieve), build_tables(built)
    for a, b in zip(_table_arrays(got), _table_arrays(want)):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), limit


def test_table_arrays_are_read_only(tables_small):
    # every array a sieve and a table set hand out refuses writes, and no
    # field of either can be replaced (a config built on the tables would
    # keep sums of arrays they no longer hold), copies and pickles included,
    # which rebuild the same arrays
    t = tables_small
    for tables in (t, copy.copy(t), copy.deepcopy(t), pickle.loads(pickle.dumps(t))):
        for obj in (tables, tables.sieve):
            for f in dataclasses.fields(obj):
                with raises(dataclasses.FrozenInstanceError):
                    setattr(obj, f.name, getattr(obj, f.name))
        for arr, want in zip(_table_arrays(tables), _table_arrays(t)):
            assert not arr.flags.writeable
            assert arr.dtype == want.dtype and arr.tobytes() == want.tobytes()
            with raises(ValueError):
                arr[1] = arr[0]
    assert t.theta.flags.writeable  # a fresh array on every access


@pytest.mark.parametrize("with_model", [False, True])
def test_weight_matches_stored_theta_and_psi_in_every_class(tables_small, with_model):
    # _weight at n = b, b + d, ... <= x, for every b in [0, d], equals the
    # same entries of the stored theta table and of Lambda, less the model,
    # bit for bit; the model carries both signed zeros, also at prime powers
    t = tables_small
    n = np.arange(t.limit + 1)
    stored = {True: np.where(t.sieve.spf == n, t.lam, 0.0), False: np.asarray(t.lam)}
    model = None
    if with_model:
        model = np.random.default_rng(11).standard_normal(t.limit + 1)
        model[::5], model[::7] = 0.0, -0.0
    for x in (t.limit, 1369, 1368, 1024, 1023, 30, 0):
        for d in (*range(1, 14), 37, 1024, t.limit):
            for b in range(d + 1):
                for theta in (True, False):
                    got = _weight(t, x, theta, b, d, model)
                    want = stored[theta][b : x + 1 : d]
                    if model is not None:
                        want = want - model[b : x + 1 : d]
                    assert got.dtype == np.float64 and got.tobytes() == want.tobytes(), (x, d, b, theta)
    # Lambda alone is a read-only view of the table; the rest are fresh arrays
    assert np.shares_memory(_weight(t, 100, False, 1, 3), t.lam) and not _weight(t, 100, False).flags.writeable
    assert not np.shares_memory(_weight(t, 100, True), t.lam)
    assert not np.shares_memory(_weight(t, 100, False, model=n.astype(float)), t.lam)


@settings(deadline=None)
@given(st.integers(1, 2_000))
def test_factorize_reconstructs(tables_small, n):
    fac = factorize(n, tables_small.sieve)
    prod = 1
    for p, e in fac:
        assert tables_small.sieve.is_prime(p)
        assert e >= 1
        prod *= p**e
    assert prod == n
    assert [p for p, _ in fac] == sorted(p for p, _ in fac)


@settings(deadline=None)
@given(st.integers(1, 2_000))
def test_divisors_match_brute_force(tables_small, n):
    assert divisors(n, tables_small.sieve) == brute_divisors(n)


@settings(deadline=None)
@given(st.integers(1, 2_000))
def test_scalar_functions_match_tables(tables_small, n):
    sieve = tables_small.sieve
    assert mu_of(n, sieve) == int(tables_small.mu[n])
    assert phi_of(n, sieve) == int(tables_small.phi[n])
    assert is_squarefree(n, sieve) == (tables_small.mu[n] != 0)


def test_table_spot_values(tables_small):
    t = tables_small
    assert [int(t.mu[n]) for n in (1, 2, 4, 6, 30)] == [1, -1, 0, 1, -1]
    assert [int(t.phi[n]) for n in (1, 2, 12, 97)] == [1, 1, 4, 96]
    assert t.lam[1] == 0.0
    assert t.lam[2] == approx(math.log(2), rel=1e-15)
    assert t.lam[8] == approx(math.log(2), rel=1e-15)
    assert t.lam[9] == approx(math.log(3), rel=1e-15)
    assert t.lam[12] == 0.0
    assert t.theta[2] == approx(math.log(2), rel=1e-15)
    assert t.theta[4] == 0.0 and t.theta[9] == 0.0


@settings(deadline=None)
@given(st.integers(1, 60), st.integers(1, 60))
def test_phi_multiplicative_on_coprime_pairs(tables_small, a, b):
    if math.gcd(a, b) != 1 or a * b > tables_small.limit:
        return
    t = tables_small
    assert int(t.phi[a * b]) == int(t.phi[a]) * int(t.phi[b])
    assert int(t.mu[a * b]) == int(t.mu[a]) * int(t.mu[b])


def test_divisor_sum_identities(tables_small):
    sieve = tables_small.sieve
    for n in range(1, 400):
        ds = divisors(n, sieve)
        assert sum(mu_of(d, sieve) for d in ds) == (1 if n == 1 else 0)
        assert sum(phi_of(d, sieve) for d in ds) == n


def test_progression_frozen_values(tables_1e4):
    assert theta_progression(100, 1, 0, tables_1e4) == approx(83.72839039906393, rel=1e-12)
    assert psi_progression(100, 1, 0, tables_1e4) == approx(94.0453112293574, rel=1e-12)
    assert theta_progression(10, 2, 1, tables_1e4) == approx(4.653960350157523, rel=1e-12)
    assert theta_progression(10_000, 7, 3, tables_1e4) == approx(1677.368091973628, rel=1e-12)
    assert psi_progression(10_000, 7, 3, tables_1e4) == approx(1680.0761421747304, rel=1e-12)


def test_progression_small_closed_forms(tables_small):
    # theta(10, 2, 1) = log 3 + log 5 + log 7 (odd primes up to 10)
    assert theta_progression(10, 2, 1, tables_small) == approx(
        math.log(3) + math.log(5) + math.log(7), rel=1e-14
    )
    # the b = 0 class holds only p = d itself
    assert theta_progression(100, 7, 0, tables_small) == approx(math.log(7), rel=1e-14)
    assert theta_progression(100, 4, 0, tables_small) == 0.0


@settings(deadline=None)
@given(st.integers(1, 50), st.integers(1, 2_000))
def test_progression_partition_over_residues(tables_small, d, x):
    total = sum(theta_progression(x, d, b, tables_small) for b in range(d))
    assert total == approx(theta_progression(x, 1, 0, tables_small), rel=1e-9, abs=1e-9)


@settings(deadline=None)
@given(st.integers(1, 50), st.integers(0, 50), st.integers(1, 2_000))
def test_psi_dominates_theta_per_class(tables_small, d, b, x):
    if b > d:
        return
    assert psi_progression(x, d, b, tables_small) >= theta_progression(x, d, b, tables_small) - 1e-12


def test_residue_normalization_and_errors(tables_small):
    assert theta_progression(100, 6, 6, tables_small) == theta_progression(100, 6, 0, tables_small)
    with raises(ValueError):
        theta_progression(100, 6, 7, tables_small)
    with raises(ValueError):
        theta_progression(100, 0, 0, tables_small)
    with raises(ValueError):
        theta_progression(100, 6, -1, tables_small)
    with raises(TableRangeError):
        theta_progression(10**7, 6, 1, tables_small)


# Every limit up to 64 (48, 49 = 7^2 and 50 among them), 960 and 961 = 31^2
# on either side of a prime square, powers of two and three, 10^5, and the
# prime 100003.
TABLE_LIMITS = sorted(set(range(2, 65)) | {960, 961, 1024, 2**16, 3**10, 10**5, 100_003})

# The limits on either side of the segment length 2^18, on either side of
# 521^2 = 271,441 (the first sieving prime whose square lies past the first
# segment, where 509^2 lies inside it), 2^20 + 1 (a short last segment that
# 17 * 61681 reaches while earlier primes miss it) and two past three full
# segments.
SEGMENT_EDGES = [2**18 - 1, 2**18, 2**18 + 1, 271_440, 271_441, 271_442, 2**20 + 1, 3 * 2**18 + 2]
SEGMENT_LIMITS = [*TABLE_LIMITS, *SEGMENT_EDGES]


@pytest.fixture(scope="module")
def factorization_oracle():
    """mu, phi, Lambda and the prime-log weight of every n <= max(TABLE_LIMITS), from factorize."""
    top = max(TABLE_LIMITS)
    sieve = build_sieve(top)
    mu = np.zeros(top + 1, dtype=np.int64)
    phi = np.zeros(top + 1, dtype=np.int64)
    lam = np.zeros(top + 1)
    theta = np.zeros(top + 1)
    for n in range(1, top + 1):
        mu[n] = mu_of(n, sieve)
        phi[n] = phi_of(n, sieve)
        fac = factorize(n, sieve)
        if len(fac) == 1:
            p, e = fac[0]
            lam[n] = math.log(p)
            if e == 1:
                theta[n] = math.log(n)
    return mu, phi, lam, theta


@pytest.mark.parametrize("limit", TABLE_LIMITS)
def test_build_tables_matches_factorization(factorization_oracle, limit):
    t = build_tables(build_sieve(limit))
    # The benchmark hashes the table bytes, so the dtypes are part of the contract.
    assert (t.lam.dtype, t.mu.dtype, t.phi.dtype, t.theta.dtype) == (
        np.float64,
        np.int8,
        np.int64,
        np.float64,
    )
    mu, phi, lam, theta = (a[: limit + 1] for a in factorization_oracle)
    np.testing.assert_array_equal(t.mu, mu)
    np.testing.assert_array_equal(t.phi, phi)
    for got, want in ((t.lam, lam), (t.theta, theta)):
        # The support is exact; a value may differ from math.log by the one
        # ulp numpy's vectorised log is allowed.
        np.testing.assert_array_equal(got != 0, want != 0)
        np.testing.assert_array_max_ulp(got, want, maxulp=1)


def _strike_tables(sieve):
    """The strike-loop and cofactor body build_tables had before the spf recurrence, kept as its oracle."""
    limit = sieve.limit
    primes = sieve.primes()

    theta = np.zeros(limit + 1, dtype=np.float64)
    theta[primes] = np.log(primes.astype(np.float64))
    lam = theta.copy()

    mu = np.ones(limit + 1, dtype=np.int8)
    mu[0] = 0
    phi = np.arange(limit + 1, dtype=np.int64)
    rem = np.arange(limit + 1, dtype=np.int32)
    rem[0] = 1
    for p in primes[primes <= math.isqrt(limit)].tolist():
        mu[p::p] *= -1
        mu[p * p :: p * p] = 0
        seg = phi[p::p]
        seg //= p
        seg *= p - 1
        lp = math.log(p)
        pk = p
        while pk <= limit:
            rem[pk::pk] //= p
            if pk > p:
                lam[pk] = lp
            pk *= p

    # rem[n] > 1 is the one prime factor q of n above sqrt(limit).  In-place
    # masked ufuncs: about two thirds of n have such a q, so gathered copies
    # would cost several x-sized temporaries.
    big = rem > 1
    np.negative(mu, out=mu, where=big)
    np.floor_divide(phi, rem, out=phi, where=big)
    rem -= 1
    np.multiply(phi, rem, out=phi, where=big)
    del rem, big

    return SimpleNamespace(lam=lam, mu=mu, phi=phi, theta=theta)


def _assert_tables_match_strike_loop(limit):
    sieve = build_sieve(limit)
    got, want = build_tables(sieve), _strike_tables(sieve)
    for name in ("lam", "mu", "phi", "theta"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (limit, name)


# The segment edges, where the recurrence's blocks stop doubling and follow the
# sieve's segments, and the limits on either side of 2^20 and one past three
# full blocks of 2^20.
@pytest.mark.parametrize("limit", [*SEGMENT_LIMITS, 2**20 - 1, 2**20, 3 * 2**20 + 7])
def test_recurrence_tables_match_strike_loop_bytes(limit):
    _assert_tables_match_strike_loop(limit)


def test_recurrence_tables_match_strike_loop_in_tiny_blocks(monkeypatch):
    # Segments of 3 cut nearly every block below 2 lo, and run the sieve in
    # 3-entry segments as well.
    monkeypatch.setattr(arith, "_SEGMENT", 3)
    for limit in range(2, 301):
        _assert_tables_match_strike_loop(limit)


def _plain_sieve(limit):
    """The one-pass-per-prime body build_sieve had before it ran by segments, kept as its oracle."""
    spf = np.zeros(limit + 1, dtype=np.int32)
    for p in range(2, math.isqrt(limit) + 1):
        if spf[p] == 0:
            seg = spf[p * p :: p]
            seg[seg == 0] = p
    # Untouched entries >= 2 have no prime factor <= sqrt(limit): they are prime.
    rest = np.flatnonzero(spf[2:] == 0) + 2
    spf[rest] = rest
    return spf


def _assert_sieve_matches_plain_sieve(limit):
    got, want = build_sieve(limit).spf, _plain_sieve(limit)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), limit


@pytest.mark.parametrize("limit", SEGMENT_LIMITS)
def test_segmented_sieve_matches_plain_sieve_bytes(limit):
    _assert_sieve_matches_plain_sieve(limit)


def test_segmented_sieve_matches_plain_sieve_in_tiny_segments(monkeypatch):
    # Segments of 7 leave most sieving primes without a multiple in a segment.
    monkeypatch.setattr(arith, "_SEGMENT", 7)
    for limit in range(2, 301):
        _assert_sieve_matches_plain_sieve(limit)


def _assert_sieve_and_primes_match_plain_sieve(limit):
    sieve, want = build_sieve(limit), _plain_sieve(limit)
    assert sieve.spf.tobytes() == want.tobytes(), limit
    assert np.array_equal(sieve.primes(), np.flatnonzero(want[2:] == np.arange(2, limit + 1)) + 2), limit


@pytest.mark.parametrize("k", [2, 3, 5])
def test_descending_strikes_match_plain_sieve_around_segment_multiples(k):
    # The sieving primes strike every segment in descending order with
    # plain stores; a limit one below, at or one past a multiple of the
    # segment length leaves a last segment that is full, holds one entry
    # less, or holds a single entry.
    for limit in (k * arith._SEGMENT - 1, k * arith._SEGMENT, k * arith._SEGMENT + 1):
        _assert_sieve_and_primes_match_plain_sieve(limit)


def test_descending_strikes_match_plain_sieve_in_short_segments(monkeypatch):
    # Segments of 16 give the limits below 2,500 up to 155 later segments,
    # each struck by the primes whose squares lie below its end.
    monkeypatch.setattr(arith, "_SEGMENT", 16)
    for m in range(2, 156):
        for limit in (16 * m - 1, 16 * m, 16 * m + 1):
            _assert_sieve_and_primes_match_plain_sieve(limit)


def test_build_sieve_and_constants_share_one_prime_list(reset_primes, monkeypatch):
    # The sieve keeps a view of prime_array's held list, and every cutoff at
    # or below the sieve's limit is a prefix of the same array.
    sieve = build_sieve(10**5)
    for m in (2, 1000, 99_991, 10**5):
        assert np.shares_memory(sieve.primes(), prime_array(m)), m

    def no_enumeration(cutoff):
        pytest.fail(f"_odd_segments({cutoff}) ran for a cutoff the held list covers")

    monkeypatch.setattr(arith, "_odd_segments", no_enumeration)
    constant_set(10**5)
    build_tables(build_sieve(10**5))
    build_sieve(5000)
    assert prime_array(10**5).tobytes() == sieve.primes().tobytes()


def test_a_short_sieve_does_not_keep_a_longer_held_list_alive(reset_primes):
    # The constants hold the primes to 10^6 (78,498); a sieve to 10^4 keeps a
    # copy of its 1,229, so the 10^6 list goes once a longer one is held.
    constant_set(10**6)
    sieve = build_sieve(10**4)
    prime_array(2 * 10**6)
    primes = sieve.primes()
    assert primes.base is None and primes.nbytes == 1229 * 8 and not primes.flags.writeable
    assert primes.tobytes() == prime_array(10**4).tobytes() == _mask_primes(sieve).tobytes()
    # Up to twice its length, the held list is shared: 9,592 primes to 10^5
    # against 5,133 to 5 * 10^4, but 4,203 to 4 * 10^4 get a copy.
    reset_primes()
    held = prime_array(10**5)
    assert np.shares_memory(build_sieve(5 * 10**4).primes(), held)
    assert not np.shares_memory(build_sieve(4 * 10**4).primes(), held)


def test_float_quotient_of_a_multiple_below_2_31_is_exact():
    # build_tables takes m = n // spf(n) as the float64 quotient n / p, with
    # p an int32; here for the three largest multiples n < 2^31 of each prime
    # below 100 and of some large primes, 2^31 - 1 itself included.
    primes = [p for p in range(2, 100) if all(p % q for q in range(2, p))]
    pairs = [
        (p * k, p)
        for p in [*primes, 46_337, 65_521, 1_000_003, 2**31 - 1]
        for k in range((2**31 - 1) // p, 0, -1)[:3]
    ]
    m = np.array([n for n, _ in pairs], dtype=np.float64)
    m /= np.array([p for _, p in pairs], dtype=np.int32)
    assert m.astype(np.intp).tolist() == [n // p for n, p in pairs]
    assert max(pairs) == (2**31 - 1, 2**31 - 1)


def test_held_prime_list_never_shrinks(reset_primes):
    long = prime_array(10**5)
    assert arith._held[0] == 10**5
    short = prime_array(1000)
    assert arith._held[0] == 10**5 and np.shares_memory(long, short)
    assert short.tobytes() == long[: len(short)].tobytes() and short[-1] == 997
    # A float cutoff is refused even when an equal int is held.
    for bad in (1000.0, np.float64(1000), 1e5):
        with raises(ValueError, match="integer"):
            prime_array(bad)
    assert arith._held[0] == 10**5


def test_racing_threads_keep_the_longest_prime_list(reset_primes):
    # Threads may enumerate the same list twice, but the held list only grows.
    cutoffs = [1000 * k for k in range(1, 41)] * 2
    want = _mask_primes(build_sieve(40_000))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            reset_primes()
            with ThreadPoolExecutor(max_workers=8) as ex:
                got = list(ex.map(prime_array, cutoffs))
            assert arith._held[0] == 40_000
            for cutoff, primes in zip(cutoffs, got):
                assert primes.tobytes() == want[: np.searchsorted(want, cutoff, side="right")].tobytes(), cutoff
    finally:
        sys.setswitchinterval(interval)


def _race_short_against_long(pause_short):
    """Run prime_array(1000) in one thread, held up by pause_short(long_done),
    and prime_array(10^5) in another once the short one is held up; return both."""
    paused, long_done = threading.Event(), threading.Event()

    def short():
        return pause_short(paused, long_done)

    with ThreadPoolExecutor(max_workers=2) as ex:
        got_short = ex.submit(short)
        assert paused.wait(10)
        got_long = ex.submit(prime_array, 10**5).result()
        long_done.set()
        got_short = got_short.result()
    assert arith._held[0] == 10**5  # before build_sieve below asks for 10^5 again
    want = _mask_primes(build_sieve(10**5))
    assert got_long.tobytes() == want.tobytes()
    assert got_short.tobytes() == want[:168].tobytes() and got_short[-1] == 997


def test_a_shorter_list_enumerated_last_is_not_held(reset_primes, monkeypatch):
    # The thread at 1,000 enumerates first but swaps last: the thread at 10^5
    # swaps in its longer list while the shorter one is still sieving.
    odd_segments = arith._odd_segments

    def pause_short(paused, long_done):
        def slow_at_1000(cutoff):
            if cutoff == 1000:
                paused.set()
                assert long_done.wait(10)
            return odd_segments(cutoff)

        monkeypatch.setattr(arith, "_odd_segments", slow_at_1000)
        return prime_array(1000)

    _race_short_against_long(pause_short)


def test_the_held_list_check_and_swap_are_one_step(reset_primes):
    # The thread at 1,000 stops between its check of the held cutoff and its
    # swap.  The lock keeps the thread at 10^5 from swapping in between, so
    # after half a second the short list is swapped in and then the long one;
    # without the lock the long one would land first and the short one last.
    lines, first = inspect.getsourcelines(arith.prime_array)
    swap = first + next(i for i, line in enumerate(lines) if "_held = (" in line)
    code = arith.prime_array.__code__

    def pause_short(paused, long_done):
        def at_swap(frame, event, arg):
            if event == "line" and frame.f_lineno == swap and frame.f_locals["cutoff"] == 1000:
                paused.set()
                long_done.wait(0.5)
            return at_swap

        sys.settrace(lambda frame, event, arg: at_swap if frame.f_code is code else None)
        try:
            return prime_array(1000)
        finally:
            sys.settrace(None)

    _race_short_against_long(pause_short)


def test_build_sieve_strikes_with_prime_array_and_never_itself(reset_primes, monkeypatch):
    # Every prime list comes from prime_array: build_sieve strikes with and
    # keeps prime_array(limit), with no sieve at sqrt(limit).
    build = arith.build_sieve
    calls = []

    def no_call(*args):
        pytest.fail(f"build_sieve called another sieve with {args}")

    def recorded(cutoff):
        calls.append(cutoff)
        return prime_array(cutoff)

    monkeypatch.setattr(arith, "build_sieve", no_call)
    monkeypatch.setattr(arith, "prime_array", recorded)
    for limit in (2, 3, 4, 24, 25, 1000, 10**5):
        reset_primes()
        calls.clear()
        sieve = build(limit)
        assert sieve.primes().tobytes() == _mask_primes(sieve).tobytes(), limit
        assert calls[0] == limit, (limit, calls)


def test_theta_is_lambda_off_the_prime_powers(tables_small):
    t = tables_small
    n = np.arange(t.limit + 1)
    stored = np.where(t.sieve.spf == n, t.lam, 0.0)
    assert t.theta.tobytes() == stored.tobytes()
    assert t.theta is not t.theta
    factors = [factorize(n, t.sieve) for n in range(2, t.limit + 1)]
    powers = [p**e for ((p, e),) in (f for f in factors if len(f) == 1) if e > 1]
    assert t.prime_powers.dtype == np.int64 and t.prime_powers.tolist() == sorted(powers)
    # x at the prime powers 1024, 729 and 1369 = 37^2 and one below each
    for x in (1024, 1023, 729, 728, 1369, 1368):
        for d in range(1, 13):
            for b in range(d):
                want = float(stored[: x + 1][b::d].sum())
                assert theta_progression(x, d, b, t).hex() == want.hex(), (x, d, b)


def test_build_tables_keeps_17_bytes_per_n():
    # spf and the primes belong to the sieve, built before tracing; the tables
    # keep Lambda (8), mu (1) and phi (8) bytes per n, and the recurrence's
    # block temporaries set the peak.
    limit = 2**20
    sieve = build_sieve(limit)
    tracemalloc.start()
    try:
        tables = build_tables(sieve)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert kept / (limit + 1) <= 17.01
    assert peak / (limit + 1) < 26
    assert tables.limit == limit
