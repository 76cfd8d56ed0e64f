"""Constant evaluation tests: dual-path agreement, frozen values, stability."""

import math
import tracemalloc
from unittest import mock

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import example, given, settings
from pytest import approx, raises

from vaughanlab import (
    ProductKind,
    constant_set,
    euler_gamma,
    logp_sum,
    restricted_product,
    t_of_n,
    zeta2_inv,
)
from vaughanlab import arith, constants
from vaughanlab.arith import build_sieve, factorize
from vaughanlab.constants import (
    _primes_of_n,
    euler_gamma_bessel,
    euler_gamma_harmonic,
    prime_array,
)
from vaughanlab.variance import _check_theorem3_args

# 20-digit reference, rounded to the nearest double.
GAMMA_REF = 0.5772156649015328606


def test_gamma_dual_paths_agree():
    g1 = euler_gamma_harmonic()
    g2 = euler_gamma_bessel()
    assert abs(g1 - g2) <= 1e-12
    assert abs(g1 - GAMMA_REF) <= 2e-15
    assert abs(g2 - GAMMA_REF) <= 1e-15


def test_gamma_frozen():
    g = euler_gamma()
    assert g == 0.5772156649015332
    assert abs(g - GAMMA_REF) <= 1e-15
    assert euler_gamma() is not None and euler_gamma() == g  # cached, stable


def test_logp_sum_frozen_and_tail_consistent():
    v5, t5 = logp_sum(10**5)
    v6, t6 = logp_sum(10**6)
    v7, t7 = logp_sum(10**7)
    assert v5 == approx(0.7553566278090919, rel=1e-12)
    assert v6 == approx(0.7553656108009827, rel=1e-12)
    assert v7 == approx(0.7553665108289092, rel=1e-12)
    assert t5 > t6 > t7 > 0
    # the claimed tail bound really covers the observed increments
    assert abs(v6 - v5) <= t5
    assert abs(v7 - v6) <= t6


def test_constant_set_frozen_values(cs):
    assert cs.gamma == 0.5772156649015332
    assert cs.logp_sum == approx(0.7553665108289092, rel=1e-12)
    assert cs.c0 == approx(2.332582175730442, rel=1e-13)
    assert cs.c1 == approx(3.6651643514608843, rel=1e-13)
    assert cs.c2 == approx(1.3325821757304421, rel=1e-13)
    assert cs.prime_cutoff == 10**7


def test_constant_set_exact_linear_relations(cs):
    # c1 = 2c0 - 1 and c2 = c0 - 1 are exact in floating point by range
    # analysis (c0 in [2, 4)), so c1 - c2 == c0 bitwise.
    assert cs.c1 == 2.0 * cs.c0 - 1.0
    assert cs.c2 == cs.c0 - 1.0
    assert cs.c1 - cs.c2 == cs.c0


def test_constant_set_cutoff_stability():
    # The drift between cutoffs is bounded by the coarser tail bound; c1
    # doubles the c0 drift, so allow 2x.
    a = constant_set(10**6)
    b = constant_set(10**7)
    for name in ("c0", "c1", "c2"):
        assert abs(getattr(a, name) - getattr(b, name)) <= 2.0 * a.tail_bound
    assert a.gamma == b.gamma


def test_zeta2_inv_matches_truncated_product():
    z = zeta2_inv()
    assert z == approx(6.0 / math.pi**2, rel=1e-15)
    assert z == approx(0.6079271018540267, rel=1e-13)
    p = restricted_product(ProductKind.P_ZETA, 1)
    assert p.value == approx(z, abs=1e-6)
    assert abs(p.value - z) <= p.value * p.tail_bound + 1e-12


def test_restricted_product_frozen_values():
    assert restricted_product(ProductKind.P_PM1, 1).value == approx(0.3739558158105394, rel=1e-12)
    assert restricted_product(ProductKind.P_PM1, 2).value == approx(0.7479116316210788, rel=1e-12)
    assert restricted_product(ProductKind.P_SQ, 2).value == approx(0.6601618197153586, rel=1e-12)
    assert restricted_product(ProductKind.P_SQ, 6).value == approx(0.8802157596203332, rel=1e-12)
    assert restricted_product(ProductKind.P_ZETA, 2).value == approx(0.8105694738886609, rel=1e-12)


def test_restricted_product_odd_square_factor_vanishes():
    # the p = 2 factor of the (1 - 1/(p-1)^2) product is zero
    for n in (1, 3, 5, 15):
        assert restricted_product(ProductKind.P_SQ, n).value == 0.0


def test_restriction_divides_out_exactly():
    # omitting p | N is implemented as an exact division of the unrestricted
    # product, so the quotient identity holds bitwise
    base = restricted_product(ProductKind.P_PM1, 1).value
    assert restricted_product(ProductKind.P_PM1, 2).value == base / (1.0 - 1.0 / (2 * 1))
    assert restricted_product(ProductKind.P_PM1, 3).value == base / (1.0 - 1.0 / (3 * 2))
    six = base / (1.0 - 1.0 / (2 * 1)) / (1.0 - 1.0 / (3 * 2))
    assert restricted_product(ProductKind.P_PM1, 6).value == six
    # only distinct primes of N matter
    assert restricted_product(ProductKind.P_PM1, 12).value == restricted_product(
        ProductKind.P_PM1, 6
    ).value


def test_restricted_product_validation():
    with raises(ValueError):
        restricted_product(ProductKind.P_PM1, 0)


def test_prime_cutoff_is_capped_before_any_sieve(monkeypatch):
    def no_sieve(cutoff):
        pytest.fail(f"prime_array({cutoff}) ran before the cutoff was checked")

    monkeypatch.setattr(constants, "prime_array", no_sieve)
    for cutoff in (9, 2**31, 10**11):
        with raises(ValueError, match="2\\^31"):
            logp_sum(cutoff)
        with raises(ValueError, match="2\\^31"):
            constant_set(cutoff)
        for kind in ProductKind:
            with raises(ValueError, match="2\\^31"):
                restricted_product(kind, 2, cutoff)
        with raises(ValueError, match="2\\^31"):
            t_of_n(2, cutoff)


def test_prime_cutoff_is_an_integer():
    # A float cutoff names itself in the error instead of failing inside
    # numpy; numpy's integers are integers.
    prime_array(1000)  # an equal int held must not answer a float
    for bad in (1e6, 1000.0, np.float64(1000)):
        with raises(ValueError, match="integer"):
            prime_array(bad)
        with raises(ValueError, match="integer"):
            logp_sum(bad)
        with raises(ValueError, match="integer"):
            constant_set(bad)
        for kind in ProductKind:
            with raises(ValueError, match="integer"):
                restricted_product(kind, 2, bad)
    assert logp_sum(np.int64(1000)) == logp_sum(1000)
    assert restricted_product(ProductKind.P_PM1, 2, np.int64(1000)).value == restricted_product(
        ProductKind.P_PM1, 2, 1000
    ).value


def test_t_of_n_frozen_and_flags():
    t1 = t_of_n(1)
    t2 = t_of_n(2)
    t6 = t_of_n(6)
    assert t1.value == approx(0.37433440071336865, rel=1e-10)
    assert t2.value == approx(1.1871672003566842, rel=1e-10)
    assert t6.value == approx(1.3226393336305704, rel=1e-10)
    assert not t1.meets_lower_bound
    assert t2.meets_lower_bound and t6.meets_lower_bound
    # definition check against the products it is built from
    pz = restricted_product(ProductKind.P_ZETA, 1).value
    pm = restricted_product(ProductKind.P_PM1, 2).value
    assert t2.value == approx(2.0 - pz / pm, rel=1e-14)
    assert t2.truncation_error < 1e-5


def test_c2_matches_gamma_plus_logp(cs):
    # c2 = gamma + sum_p log p / (p(p-1)); c0 = 1 + c2; c1 = 1 + 2 c2
    assert cs.c2 == approx(cs.gamma + cs.logp_sum, rel=1e-14)
    assert cs.c0 == approx(1.0 + cs.gamma + cs.logp_sum, rel=1e-14)
    assert cs.c1 == approx(1.0 + 2.0 * (cs.gamma + cs.logp_sum), rel=1e-14)


def test_v_and_n_factor_helpers_match_sieve():
    # the theorem-3 check of v and the N check of restricted_product factor
    # without tables; the sieve-backed factorize is the oracle
    sieve = build_sieve(20_000)
    factors = {n: factorize(n, sieve) for n in range(1, 20_001)}
    for n, fac in factors.items():
        primes = [p for p, _ in fac]
        if all(e == 1 for _, e in fac):
            assert _check_theorem3_args(20_000, n, 1.0) == primes, n
        else:
            with raises(ValueError, match="squarefree"):
                _check_theorem3_args(20_000, n, 1.0)
        assert _primes_of_n(n, 20_000) == primes, n
    # one cutoff per loop: prime_array keeps one cutoff
    for n, fac in factors.items():
        if fac and fac[-1][0] > 100:
            with raises(ValueError, match="prime cutoff 100"):
                _primes_of_n(n, 100)
        else:
            assert _primes_of_n(n, 100) == [p for p, _ in fac], n


def test_n_check_at_large_n():
    # N = 2^63 - 1 = 7^2 73 127 337 92737 649657 is the largest N the int64 kernels take
    assert _primes_of_n(2**63 - 1, 10**6) == [7, 73, 127, 337, 92737, 649657]
    assert _primes_of_n(2**40, 10**6) == [2]
    assert _primes_of_n(3**30, 10**6) == [3]
    assert _primes_of_n(9699690, 10**6) == [2, 3, 5, 7, 11, 13, 17, 19]
    for n in (2**61 - 1, 10**14 + 31, 649657 * 1_000_003):
        with raises(ValueError, match="prime factor above"):
            _primes_of_n(n, 10**6)
    for n in (0, -5, 2**63, 10**20):
        with raises(ValueError, match="2\\^63"):
            _primes_of_n(n, 10**6)
        with raises(ValueError):
            restricted_product(ProductKind.P_PM1, n, 10**6)


def _bit_sieve_primes(cutoff):
    """The full-range Eratosthenes bit sieve that prime_array replaced, kept as its oracle."""
    comp = np.zeros(cutoff + 1, dtype=bool)
    comp[:2] = True
    for p in range(2, math.isqrt(cutoff) + 1):
        if not comp[p]:
            comp[p * p :: p] = True
    return np.nonzero(~comp)[0].astype(np.int64)


def _assert_prime_array_matches_bit_sieve(cutoff):
    got = prime_array(cutoff)
    want = _bit_sieve_primes(cutoff)
    assert got.dtype == want.dtype == np.int64, cutoff
    assert np.array_equal(got, want), cutoff


def test_prime_array_matches_bit_sieve(reset_primes, monkeypatch):
    # Nothing is held before each cutoff, so each one enumerates.
    seg = arith._ODD_SEGMENT
    for cutoff in [
        *range(2, 2001),
        # the wheel's period edges: slot 15015 k is the number 30030 k + 1
        *(30030 * k + d for k in (1, 2, 3) for d in (-2, -1, 0, 1, 2)),
        # thresholds p^2 where a sieving prime starts to strike
        *(p * p + d for p in (17, 19, 23, 1009, 1013) for d in (-1, 0, 1)),
        # p^4, where p starts to strike the enumerator's sieve at sqrt(cutoff)
        *(p**4 + d for p in (17, 19) for d in (-1, 0, 1)),
        # segment edges: slot j _ODD_SEGMENT is the number 2 j _ODD_SEGMENT + 1
        *(2 * j * seg + d for j in (1, 2, 3) for d in (-2, -1, 0, 1, 2)),
        10**6 + 3,
    ]:
        reset_primes()
        _assert_prime_array_matches_bit_sieve(cutoff)
    # Segments of 16 slots put up to 62 segment edges below 2,000.
    monkeypatch.setattr(arith, "_ODD_SEGMENT", 16)
    for cutoff in range(2, 2001):
        reset_primes()
        _assert_prime_array_matches_bit_sieve(cutoff)


def _assert_enumerator_matches_bit_sieve(n, reset_primes):
    reset_primes()  # nothing held: n and every level below it enumerate
    got, want = prime_array(n), _bit_sieve_primes(n)
    assert got.dtype == want.dtype == np.int64, n
    assert got.tobytes() == want.tobytes(), n
    return got


def test_prime_enumerator_matches_bit_sieve(reset_primes, monkeypatch):
    # n < 2 is refused; from 17^2 on the enumerator takes its sieving primes
    # from itself at sqrt(n), and from 17^4 on at sqrt(sqrt(n)) too.
    deep = [17**4 - 1, 17**4, 17**4 + 1, 19**4]
    for n in (-1, 0, 1):
        with raises(ValueError, match="integer >= 2"):
            prime_array(n)
    for n in [*range(2, 3001), *deep]:
        _assert_enumerator_matches_bit_sieve(n, reset_primes)
    got = _assert_enumerator_matches_bit_sieve(3000, reset_primes)
    assert not got.flags.writeable and np.shares_memory(got, prime_array(3000))  # held, read-only
    # Segments of 7 slots put up to 214 segment edges below 3,000, and cut
    # every level of the recursion.
    monkeypatch.setattr(arith, "_ODD_SEGMENT", 7)
    for n in [*range(2, 3001), *deep]:
        _assert_enumerator_matches_bit_sieve(n, reset_primes)


def test_prime_count_bound_covers_every_cutoff():
    # prime_array sizes its list by the bound before it enumerates: every
    # cutoff to 10^5, the wheel, square, fourth-power and segment edges of
    # test_prime_array_matches_bit_sieve, and 10^7, with under 1% to spare there
    primes = _bit_sieve_primes(10**7)
    seg = arith._ODD_SEGMENT
    edges = [
        *(30030 * k + d for k in (1, 2, 3) for d in (-2, -1, 0, 1, 2)),
        *(p * p + d for p in (17, 19, 23, 1009, 1013) for d in (-1, 0, 1)),
        *(p**4 + d for p in (17, 19) for d in (-1, 0, 1)),
        *(2 * j * seg + d for j in (1, 2, 3) for d in (-2, -1, 0, 1, 2)),
        10**6 + 3,
        10**7,
    ]
    for cutoff in [*range(2, 10**5 + 1), *edges]:
        count = int(np.searchsorted(primes, cutoff, side="right"))
        assert arith._prime_count_bound(cutoff) >= count, cutoff
    assert arith._prime_count_bound(10**7) < 1.01 * len(primes) == 1.01 * 664_579


def _traced_peak(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_cold_prime_array_holds_its_list_and_two_segments(reset_primes):
    # One reused bool segment (1 MB) and a quarter segment's indices at a
    # time go into the one int64 list, cut in place to its 664,579 primes:
    # the list plus two segments' bytes bound the peak, where the whole odd
    # sieve (5 MB of bools at 10^7) and its indices sat beside the list.
    prime_array(10**5)  # numpy's first calls, out of the trace
    reset_primes()
    peak = _traced_peak(lambda: prime_array(10**7))
    assert peak <= 8 * 664_579 + 2 * arith._ODD_SEGMENT, peak
    held = arith._held[1]
    assert held.base is None and held.nbytes == 8 * 664_579 and not held.flags.writeable


def test_cold_constant_set_holds_its_list_two_sum_blocks_and_a_segment(reset_primes):
    # logp_sum forms and sums its terms a block of _SUM_BLOCK primes at a
    # time: with the enumerator's segment that bounds the peak over the held
    # list, where two float copies of all the primes (5.3 MB each) did.
    constant_set(10**5)  # numpy's first calls and euler_gamma, out of the trace
    reset_primes()
    peak = _traced_peak(lambda: constant_set(10**7))
    assert peak <= 8 * 664_579 + 2 * 8 * constants._SUM_BLOCK + arith._ODD_SEGMENT, peak


# tracemalloc peak of the cold logp_sum(10**6) below at the parent of the
# change that brought in _exact_sum and the wheel sieve: the cached primes,
# their float copy and the terms (3 x 627,984 bytes) and 849 bytes of objects.
_PARENT_LOGP_PEAK = 1_884_801


def test_cold_logp_sum_holds_no_more_than_its_three_prime_arrays(reset_primes):
    # The sieve's bools and its index array stay below the three float-sized
    # arrays of the sum, and _exact_sum's levels reuse the sum's two buffers.
    # Its block views and numpy's max, min and sum hold about 1.1 KB of
    # objects while they run, where math.fsum held 0.25 KB, hence the 2 KB
    # over the parent's peak; an array of the primes would add 628 KB.
    logp_sum(10**5)  # numpy's first calls, out of the trace
    reset_primes()
    tracemalloc.start()
    try:
        logp_sum(10**6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= _PARENT_LOGP_PEAK + 2048, peak


_FINITE = st.floats(allow_nan=False, allow_infinity=False)  # signed zeros and subnormals included
_TERMS = st.one_of(
    _FINITE,
    st.floats(min_value=-2.0**-1020, max_value=2.0**-1020),  # subnormals and the least normals
    st.floats(min_value=1e299, max_value=1e300),
    st.floats(min_value=-1e300, max_value=-1e299),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1.0, -1.0, 2.0**-1022]),
)


@st.composite
def _float_arrays(draw, extra=st.lists(_TERMS, max_size=4)):
    """Arrays of 0 to about 10^4 terms: a drawn list tiled, perhaps with the negation of
    every term beside it (heavy cancellation), plus a few more terms, in a drawn order."""
    t = np.tile(np.array(draw(st.lists(_TERMS, max_size=48)), dtype=np.float64), draw(st.integers(0, 200)))
    if draw(st.booleans()):
        t = np.concatenate([t, -t])
    t = np.concatenate([t, np.array(draw(extra), dtype=np.float64)])
    return np.random.default_rng(draw(st.integers(0, 2**32 - 1))).permutation(t)


def _outcome(total):
    """The hex of a sum, or its exception: math.fsum raises on overflow and on inf - inf."""
    try:
        return total().hex()
    except (OverflowError, ValueError) as err:
        return repr(err)


_RNG = np.random.default_rng(2008)
_WIDE = _RNG.standard_normal(5000) * 10.0 ** _RNG.integers(-300, 300, 5000)


def _split(t, cuts):
    """t cut into arrays at the drawn cuts (taken mod t.size + 1, so some arrays may be empty)."""
    return np.split(t, sorted(c % (t.size + 1) for c in cuts))


def _exact_sum_of(*arrays):
    """_exact_sum of the stream of arrays, each given as a fresh copy at every call of the stream."""
    return constants._exact_sum(lambda: (a.copy() for a in arrays))


_CUTS = st.lists(st.integers(0, 2 * 10**4), max_size=6)


@settings(deadline=None)
@given(_float_arrays(), _CUTS)
@example(_RNG.permutation(np.concatenate([_WIDE, -_WIDE, [1.0, 5e-324]])), [1, 5000, 5000])  # every exponent, cancelled
@example(_RNG.standard_normal(10**4) * 1e300, [9999])
@example(_RNG.uniform(-(2.0**-1022), 2.0**-1022, 10**4), [])  # subnormals
# 2^13 terms of one sign just below 2: the level sum nears 2^(k - 1), so a grid 8 times finer rounds it
@example(np.random.default_rng(3).uniform(2 - 2.0**-10, 2, 2**13), [4096])
def test_exact_sum_is_fsum_bit_for_bit(t, cuts):
    want = _outcome(lambda: math.fsum(t))
    assert _outcome(lambda: _exact_sum_of(t)) == want
    # the same terms as a stream of several arrays of drawn lengths, and
    # blocks of 1, 3 and 64 terms, each summed in levels of its own
    parts = _split(t, cuts)
    assert _outcome(lambda: _exact_sum_of(*parts)) == want
    for block in (1, 3, 64):
        with mock.patch.object(constants, "_SUM_BLOCK", block):
            assert _outcome(lambda: _exact_sum_of(t)) == want, block
            assert _outcome(lambda: _exact_sum_of(*parts)) == want, block


@settings(deadline=None)
@given(_float_arrays(extra=st.lists(st.sampled_from([math.inf, -math.inf, math.nan]), min_size=1, max_size=3)), _CUTS)
def test_exact_sum_leaves_non_finite_terms_to_fsum(t, cuts):
    # a non-finite term sends the whole stream to math.fsum: the same value
    # or exception, and a single array is left untouched, since its terms
    # are checked before any level overwrites them
    want = _outcome(lambda: math.fsum(t))
    got = t.copy()
    with mock.patch.object(constants, "_SUM_BLOCK", 3):
        assert _outcome(lambda: constants._exact_sum(lambda: (got,))) == want
        assert _outcome(lambda: _exact_sum_of(*_split(t, cuts))) == want
    assert got.tobytes() == t.tobytes()


def test_exact_sum_edge_cases():
    for terms in (
        [],
        [-0.0],
        [-0.0, -0.0],
        [0.0, -0.0],
        [1.0, -1.0, -0.0],
        [5e-324, -5e-324, 5e-324],
        [1e308, -1e308, 1.0],  # a sigma past 2^1021: math.fsum
        [1e308, 1e308],  # overflow, raised by math.fsum
        [math.inf, -math.inf],
        [math.nan, 1.0],
        [1.0, 1e100, 1.0, -1e100],
        [0.1] * 10,
    ):
        t = np.array(terms, dtype=np.float64)
        want = _outcome(lambda: math.fsum(t))
        for block in (1, constants._SUM_BLOCK):
            with mock.patch.object(constants, "_SUM_BLOCK", block):
                assert _outcome(lambda: _exact_sum_of(t)) == want, terms
                # one array per term, and the terms behind an empty array
                assert _outcome(lambda: _exact_sum_of(*t.reshape(-1, 1))) == want, terms
                assert _outcome(lambda: _exact_sum_of(t[:0], t)) == want, terms
    # the bound counts every term seen so far: 2^12 terms of 2^1006 pass it
    # alone and twice over (levels: one call of the stream), but a third
    # array of them takes the stream to math.fsum (a second call)
    big = np.full(2**12, 2.0**1006)
    for arrays, want, calls in (((big,), 2.0**1018, 1), ((big, big), 2.0**1019, 1), ((big, big, -big), 2.0**1018, 2)):
        made = []

        def stream():
            made.append(1)
            return (a.copy() for a in arrays)

        assert constants._exact_sum(stream) == math.fsum(np.concatenate(arrays)) == want
        assert len(made) == calls, len(arrays)


def test_constants_bitwise_against_direct_formulas():
    # logp_sum and restricted_product build their factors in place and drop
    # the primes dividing N by index; the direct array formulas over the bit
    # sieve's primes, with N's primes masked out, must agree to the last bit
    for cutoff in (10**5, 10**6):
        p = _bit_sieve_primes(cutoff).astype(np.float64)
        want = math.fsum(np.log(p) / (p * (p - 1.0)))
        assert logp_sum(cutoff)[0].hex() == want.hex(), cutoff
    p = _bit_sieve_primes(10**7).astype(np.float64)
    factors = {
        ProductKind.P_PM1: lambda q: 1.0 - 1.0 / (q * (q - 1.0)),
        ProductKind.P_SQ: lambda q: 1.0 - 1.0 / ((q - 1.0) * (q - 1.0)),
        ProductKind.P_ZETA: lambda q: 1.0 - 1.0 / (q * q),
    }
    pm1_base = float(np.multiply.reduce(factors[ProductKind.P_PM1](p)))
    sieve = build_sieve(2310)
    for kind, factor in factors.items():
        for n in (1, 2, 3, 4, 6, 12, 30, 2310):
            pf = [q for q, _ in factorize(n, sieve)]
            if kind is ProductKind.P_PM1:
                want = pm1_base
                for q in pf:
                    want /= 1.0 - 1.0 / (q * (q - 1.0))
            else:
                kept = p[~np.isin(p, np.array(pf, dtype=np.float64))]
                want = float(np.multiply.reduce(factor(kept)))
            assert restricted_product(kind, n).value.hex() == want.hex(), (kind, n)


def test_euler_products_in_blocks_are_the_whole_array_product():
    # the factors formed and multiplied a block at a time, each block's
    # reduce starting from the product before it, give the one sequential
    # reduce over every factor bit for bit: the default block at a cutoff
    # whose 78,498 primes span two blocks, and blocks of 1, 3 and 7 primes
    # at a cutoff of 1,229 primes
    sieve = build_sieve(2310)
    for cut, blocks in ((10**6, (constants._SUM_BLOCK,)), (10**4, (1, 3, 7))):
        p = arith.prime_array(cut)
        for kind in ProductKind:
            for n in (1, 2, 3, 4, 5, 6, 30, 2310):
                pf = [q for q, _ in factorize(n, sieve)] if n > 1 else []
                kept = np.delete(p, np.searchsorted(p, pf)).astype(np.float64)
                want = float(np.multiply.reduce(constants._factor_values(kind, kept)))
                for block in blocks:
                    with mock.patch.object(constants, "_SUM_BLOCK", block):
                        got = constants._euler_product(kind, cut, pf)
                    assert got.hex() == want.hex(), (kind, n, cut, block)
    for kind in (ProductKind.P_SQ, ProductKind.P_ZETA):  # P_PM1 at N > 1 divides out of the N = 1 product
        assert restricted_product(kind, 30, 10**6).value.hex() == constants._euler_product(kind, 10**6, [2, 3, 5]).hex()


def test_euler_product_holds_no_array_per_prime():
    # the factors of one block at a time, two block-sized float arrays at
    # most: under a quarter of one float copy of the 664,579 primes to
    # 10^7 (8 bytes per prime), two of which the whole-array product held
    cut = 10**7
    n_primes = len(arith.prime_array(cut))
    bound = 2 * 8 * constants._SUM_BLOCK + 16384
    assert bound < 8 * n_primes / 4
    for kind in ProductKind:
        tracemalloc.start()
        try:
            constants._euler_product(kind, cut, [2, 3])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound, (kind, peak)
