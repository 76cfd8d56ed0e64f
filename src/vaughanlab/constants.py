"""Euler-product constants entering the variance main terms.

Everything here is computed, not transcribed: gamma is evaluated by two
independent algorithms and cross-checked, prime sums and products are taken
over enumerated primes up to an explicit cutoff, and every truncated quantity
carries a rigorous tail bound obtained by majorizing the prime sum with the
corresponding sum over all integers.

The primes come from arith.prime_array, the package's one prime enumerator
and store (an odd-only sieve struck one 1 MB segment at a time, each
segment tiled from a struck period of the primes up to 13).  It holds one
read-only int64 list, the longest asked for, and hands out prefix views of
it, so after build_sieve(x) with x >= cutoff the constants enumerate no
primes.  Each prime sum or product forms its terms as float64 on blocks of
_SUM_BLOCK primes, so beside the list a call holds a few 512 KB blocks
and no float copy of all the primes.  logp_sum adds its terms by
_exact_sum, which takes them as a stream of blocks and whose value is
math.fsum's bit for bit.  Traced, a cold constant_set(10**7) peaks
1.7 MiB above the 5.07 MiB list, at the enumerator's segment.
euler_gamma is computed once per process, and restricted_product keeps its
128 most recent results (functools.lru_cache, typed, so a float cutoff
equal to a cached integer one still reaches _check_cutoff).

Main entries:
- euler_gamma(): Euler's constant to full double precision
- logp_sum(cutoff): sum_p log p / (p (p - 1)) with tail bound 2 log(cutoff)/cutoff
- constant_set(cutoff): the linked constants c0 = 1 + gamma + logp_sum,
  c1 = 2 c0 - 1, c2 = c0 - 1, plus 6/pi^2
- restricted_product(kind, N, cutoff): prod_{p <= cutoff, p not| N} of
  (1 - 1/(p(p-1))), (1 - 1/(p-1)^2), or (1 - 1/p^2), with the primes of N
  found among the same primes (_primes_of_n)
- t_of_n(N): truncation exponent 2 - P_ZETA / P_PM1(N), with a flag recording
  whether the computed value reaches 1
"""

from __future__ import annotations

import enum
import functools
import itertools
import math
import numbers
from collections.abc import Callable, Iterable
from dataclasses import dataclass

import numpy as np

from .arith import prime_array

__all__ = [
    "euler_gamma",
    "euler_gamma_harmonic",
    "euler_gamma_bessel",
    "logp_sum",
    "ConstantSet",
    "constant_set",
    "zeta2_inv",
    "ProductKind",
    "RestrictedProduct",
    "restricted_product",
    "TruncationExponent",
    "t_of_n",
    "prime_array",
]


# The prime cutoff of constant_set, restricted_product, t_of_n and the CLI's --cutoff when none is given.
_DEFAULT_CUTOFF = 10**7


def _check_cutoff(prime_cutoff: int) -> None:
    """The prime cutoff: an integer, numpy's included, at least 10, where the tail bounds hold, and below 2^31.

    The cap, the sieve limit's, bounds the int64 list that prime_array holds
    for the life of the process: about 840 MB near 2^31.
    """
    if not isinstance(prime_cutoff, numbers.Integral) or not 10 <= prime_cutoff < 2**31:
        raise ValueError(f"prime cutoff must be an integer with 10 <= cutoff < 2^31, got {prime_cutoff!r}")


# Terms per block of _exact_sum: a block of the terms and of its work buffer
# (512 KB each) stay in L2 through all of the block's levels.  logp_sum and
# the Euler products form their terms on blocks of as many primes.
_SUM_BLOCK = 2**16


def _exact_sum(blocks: Callable[[], Iterable[np.ndarray]]) -> float:
    """math.fsum of every term of blocks(), bit for bit, by error-free extraction.

    blocks() gives the terms as a stream of 1-d float64 arrays, each of
    which is overwritten, so no array of all the terms need exist.  Each
    array is summed in levels, _SUM_BLOCK terms at a time (_add_levels),
    and the level sums of every block are kept for one final math.fsum.
    Each level sum is exact, so the levels add up to the sum of the terms
    exactly and math.fsum of them is the correctly rounded total, as
    math.fsum of the terms is, whatever the blocking.  Before an array is
    touched, its terms are counted and its max |t| taken: a non-finite
    term, or 2 n max|t| past 2^1021 over the n terms seen so far, stops
    the levels, and so does a stream of zeros alone (signed zeros).  Then
    blocks() is called once more and math.fsum takes its terms themselves,
    so signed zeros, infinities, nan and overflow come out as they always
    do; a stream of fresh arrays, or a single array (untouched at that
    point), gives the same terms again.  Below that bound no sum of terms
    or of level sums nears overflow.
    """
    levels = []
    top, count = 0.0, 0
    for t in blocks():
        t_top = max(float(t.max()), -float(t.min())) if t.size else 0.0  # nan or inf for a non-finite term
        top, count = max(top, t_top), count + t.size
        if not t_top < math.inf or (top and math.frexp(top)[1] + (2 * count - 1).bit_length() > 1021):
            break
        _add_levels(t, levels)
    else:
        if top:
            return math.fsum(levels)
    return math.fsum(itertools.chain.from_iterable(blocks()))


def _add_levels(t: np.ndarray, levels: list[float]) -> None:
    """Append the level sums of the finite terms t to levels, _SUM_BLOCK terms at a time; overwrites t.

    A level takes sigma = 1.5 * 2^k with 2^k >= 2 n max|t| over a block's
    n terms.  q = (t + sigma) - sigma rounds each term to the grid of
    ulp(sigma) = 2^(k - 52) exactly (t + sigma lies in [2^k, 2^(k + 1)],
    and Sterbenz makes the subtraction exact), and t - q is the rounding
    error of t + sigma, so exact too.  Every partial sum of the q is a
    multiple of 2^(k - 52) below 2^(k + 1) in magnitude, so numpy's sum of
    them is exact in any order.  t keeps the remainders, at most
    2^(k - 53) each, for the next level; k is held at -1022 or above, where
    the grid 2^-1074 takes every remainder, so the levels end once the
    remainders are all zero.  The q of a block go in one work buffer of at
    most _SUM_BLOCK floats, freed on return.

    Rump, Ogita and Oishi, "Accurate floating-point summation, part I",
    SIAM J. Sci. Comput. 31 (2008).
    """
    work = np.empty(min(t.size, _SUM_BLOCK))
    for lo in range(0, t.size, _SUM_BLOCK):
        block = t[lo : lo + _SUM_BLOCK]
        q = work[: block.size]
        while top := max(float(block.max()), -float(block.min())):
            k = max(math.frexp(top)[1] + (2 * block.size - 1).bit_length(), -1022)
            sigma = math.ldexp(1.5, k)
            np.add(block, sigma, out=q)
            q -= sigma
            block -= q
            levels.append(float(q.sum()))


def euler_gamma_harmonic(terms: int = 10_000) -> float:
    """Euler's constant from the harmonic sum with Euler-Maclaurin correction.

    gamma = H_K - log K - 1/(2K) + 1/(12 K^2) - 1/(120 K^4) + O(K^-6); the
    truncation error at K = 10^4 is below 1e-26.
    """
    if terms < 10:
        raise ValueError(f"terms must be >= 10, got {terms}")
    k = float(terms)
    h = math.fsum(1.0 / i for i in range(1, terms + 1))
    return h - math.log(k) - 1.0 / (2 * k) + 1.0 / (12 * k * k) - 1.0 / (120 * k**4)


def euler_gamma_bessel(n: int = 12) -> float:
    """Euler's constant by the Bessel-ratio scheme.

    With A = sum_k (n^k/k!)^2 H_k and B = sum_k (n^k/k!)^2, the ratio A/B
    approaches log n + gamma with error O(e^{-4n}); n = 12 leaves ~1e-21.
    """
    if n < 4:
        raise ValueError(f"n must be >= 4, got {n}")
    a_terms = [0.0]
    b_terms = [1.0]
    t = 1.0
    h = 0.0
    for k in range(1, 6 * n):
        h += 1.0 / k
        t *= (n / k) ** 2
        a_terms.append(t * h)
        b_terms.append(t)
    return math.fsum(a_terms) / math.fsum(b_terms) - math.log(n)


@functools.cache
def euler_gamma() -> float:
    """Euler's constant, computed by two independent methods and cross-checked."""
    g1 = euler_gamma_harmonic()
    g2 = euler_gamma_bessel()
    if abs(g1 - g2) > 1e-12:
        raise ArithmeticError(f"gamma methods disagree: {g1!r} vs {g2!r}")
    # Bessel-ratio path carries less cancellation; keep it as the value.
    return g2


def _logp_terms(primes: np.ndarray) -> np.ndarray:
    """log p / (p (p - 1)) at the int64 primes, as a fresh float64 array."""
    p = primes.astype(np.float64)
    d = p - 1.0
    d *= p
    return np.divide(np.log(p, out=p), d, out=p)


def logp_sum(prime_cutoff: int) -> tuple[float, float]:
    """Partial sum sum_{p <= cutoff} log p / (p (p - 1)) and its tail bound.

    The tail over p > cutoff is majorized by the same sum over all integers
    n > cutoff, which is below 2 log(cutoff)/cutoff for cutoff >= 10.
    The terms are formed and summed (_exact_sum) a block of _SUM_BLOCK
    primes at a time, so no float copy of all the primes is made.
    """
    _check_cutoff(prime_cutoff)
    p = prime_array(prime_cutoff)
    value = _exact_sum(lambda: (_logp_terms(p[lo : lo + _SUM_BLOCK]) for lo in range(0, len(p), _SUM_BLOCK)))
    tail = 2.0 * math.log(prime_cutoff) / prime_cutoff
    return value, tail


def zeta2_inv() -> float:
    """1/zeta(2) = 6/pi^2."""
    return 6.0 / (math.pi * math.pi)


@dataclass(frozen=True)
class ConstantSet:
    """Linked constants for the variance main terms.

    c0 = 1 + gamma + logp_sum is the base; c1 and c2 are derived from c0 so
    that c1 = 2*c0 - 1 and c2 = c0 - 1 hold bit-exactly as computed.
    """

    gamma: float
    logp_sum: float
    c0: float
    c1: float
    c2: float
    zeta2_inv: float
    prime_cutoff: int
    tail_bound: float


def constant_set(prime_cutoff: int = _DEFAULT_CUTOFF) -> ConstantSet:
    g = euler_gamma()
    s, tail = logp_sum(prime_cutoff)
    c0 = 1.0 + g + s
    return ConstantSet(
        gamma=g,
        logp_sum=s,
        c0=c0,
        c1=2.0 * c0 - 1.0,
        c2=c0 - 1.0,
        zeta2_inv=zeta2_inv(),
        prime_cutoff=prime_cutoff,
        tail_bound=tail,
    )


class ProductKind(enum.Enum):
    P_PM1 = "pm1"    # 1 - 1/(p(p-1))
    P_SQ = "sq"      # 1 - 1/(p-1)^2
    P_ZETA = "zeta"  # 1 - 1/p^2


@dataclass(frozen=True)
class RestrictedProduct:
    """Truncated Euler product over primes p <= prime_cutoff with p not| N.

    tail_bound bounds the relative truncation deficit: the untruncated product
    lies in [value * (1 - tail_bound), value].
    """

    kind: ProductKind
    N: int
    value: float
    prime_cutoff: int
    tail_bound: float


def _factor_values(kind: ProductKind, p: np.ndarray) -> np.ndarray:
    """The Euler factors of kind at the float primes p; overwrites p."""
    if kind is ProductKind.P_PM1:
        d = p - 1.0
        d *= p  # p (p - 1)
    else:
        if kind is ProductKind.P_SQ:
            p -= 1.0
        d = np.multiply(p, p, out=p)  # (p - 1)^2 or p^2
    np.divide(1.0, d, out=d)
    return np.subtract(1.0, d, out=d)


def _euler_product(kind: ProductKind, prime_cutoff: int, omit: list[int]) -> float:
    """The product of kind's Euler factors over the primes <= prime_cutoff not in omit (all of them
    primes <= prime_cutoff), multiplied in ascending order.

    The factors are formed on blocks of at most _SUM_BLOCK primes, which
    stop short of each omitted prime, and each block's np.multiply.reduce
    starts from the product of the blocks before it: the same sequential
    products as one reduce over every factor, with no array of 8 bytes per
    prime.
    """
    p = prime_array(prime_cutoff)
    cuts = np.searchsorted(p, omit).tolist()
    value = 1.0
    for start, stop in zip([0] + [c + 1 for c in cuts], cuts + [len(p)]):
        for lo in range(start, stop, _SUM_BLOCK):
            block = p[lo : min(lo + _SUM_BLOCK, stop)].astype(np.float64)
            value = float(np.multiply.reduce(_factor_values(kind, block), initial=value))
    return value


def _primes_of_n(N: int, prime_cutoff: int) -> list[int]:
    """The primes of N, ascending, taken from prime_array(prime_cutoff).

    N must lie in [1, 2^63), the int64 range of the band kernels, and have no
    prime factor above prime_cutoff, itself checked by _check_cutoff.  The
    primes <= min(N, prime_cutoff) that divide N are found by one array
    remainder; N has no other prime exactly when it divides the 63rd power
    of their product, since no exponent of an N < 2^63 reaches 63 (the
    cofactor left by stripping them is 1).
    """
    if not 1 <= N < 2**63:
        raise ValueError(f"N must satisfy 1 <= N < 2^63, got {N}")
    _check_cutoff(prime_cutoff)
    p = prime_array(prime_cutoff)
    p = p[: np.searchsorted(p, min(N, prime_cutoff), side="right")]
    pf = p[N % p == 0].tolist()
    if pow(math.prod(pf), 63, N):
        raise ValueError(f"N = {N} has a prime factor above the prime cutoff {prime_cutoff}")
    return pf


@functools.lru_cache(typed=True)
def restricted_product(kind: ProductKind, N: int, prime_cutoff: int = _DEFAULT_CUTOFF) -> RestrictedProduct:
    """Evaluate the truncated Euler product, omitting primes dividing N.

    N = 1 is the unrestricted product.  For P_PM1 the restricted value is the
    cached unrestricted one divided by the omitted factors, so removing a
    prime and dividing by its factor agree bit-exactly.  P_SQ keeps the direct
    product form because its p = 2 factor is exactly 0 (any even cutoff
    product with odd N vanishes identically); it and P_ZETA skip the primes
    of N by index.  Each product is formed in blocks (_euler_product).
    """
    pf = _primes_of_n(N, prime_cutoff)
    if kind is ProductKind.P_PM1:
        if pf:
            value = restricted_product(kind, 1, prime_cutoff).value
            for q in pf:
                value /= 1.0 - 1.0 / (q * (q - 1.0))
        else:
            value = _euler_product(kind, prime_cutoff, [])
        tail = 2.0 / prime_cutoff  # sum_{n > P} 1/(n(n-1)) = 1/P, doubled for -log(1-a) <= 2a
    else:
        value = _euler_product(kind, prime_cutoff, pf)
        if kind is ProductKind.P_SQ:
            tail = 2.0 / (prime_cutoff - 1)  # sum_{n > P} 1/(n-1)^2 <= 1/(P-1), doubled
        else:
            tail = 2.0 / prime_cutoff  # sum_{n > P} 1/n^2 <= 1/P, doubled
    return RestrictedProduct(kind=kind, N=N, value=value, prime_cutoff=prime_cutoff, tail_bound=tail)


@dataclass(frozen=True)
class TruncationExponent:
    """Exponent t(N) = 2 - P_ZETA / P_PM1(N) governing the log R coefficient.

    meets_lower_bound records whether the computed value reaches 1; for odd N
    it does not, and the flag preserves that observation instead of asserting
    it away.
    """

    N: int
    value: float
    truncation_error: float
    meets_lower_bound: bool
    prime_cutoff: int


def t_of_n(N: int, prime_cutoff: int = _DEFAULT_CUTOFF) -> TruncationExponent:
    pm1 = restricted_product(ProductKind.P_PM1, N, prime_cutoff)
    pz = restricted_product(ProductKind.P_ZETA, 1, prime_cutoff)
    ratio = pz.value / pm1.value
    err = ratio * (pz.tail_bound + pm1.tail_bound)
    value = 2.0 - ratio
    return TruncationExponent(
        N=N,
        value=value,
        truncation_error=err,
        meets_lower_bound=value >= 1.0,
        prime_cutoff=prime_cutoff,
    )
