"""Sieve-backed arithmetic tables.

Provides:
- prime_array: the one prime enumerator and the one store of primes, an
  odd-only wheel sieve struck one cache-sized segment at a time by its own
  primes <= sqrt(cutoff) (_odd_segments), each segment's primes written
  straight into the one int64 list; it holds the longest list enumerated
  so far and answers any shorter cutoff with a prefix of it, so the sieve,
  the tables and the constants of a process share one array.  Beside the
  list, enumerating holds one 1 MB segment and a quarter segment's indices:
  traced, a cold prime_array(10**7) peaks 1.7 MiB above its 5.07 MiB list
- FactorSieve / build_sieve: smallest-prime-factor table over [2, limit],
  struck in cache-sized segments by the primes <= sqrt(limit) in descending
  order, each odd prime at its odd multiples only and 2 last at the even
  entries, keeping prime_array(limit) as its primes (a copy of them where the
  held list is more than twice as long)
- ArithTables / build_tables: von Mangoldt, Mobius and totient arrays from the
  sieve's spf table and primes; mu and phi built in ascending blocks of n by
  one recurrence from n / spf(n), an exact float64 quotient, on the sieve's
  segment grid, Lambda stored with the sorted prime powers p^k, k >= 2, where
  it is log p
- _weight: every weight built on Lambda, over one residue class: Lambda or
  theta (Lambda with the prime powers set to 0; theta is not stored), less a
  model table when one is given.  ArithTables.theta, the progression sums,
  the band residuals and the theorem-3 residual square all come from it,
  and the bucket sums of theta, the streamed band residual and the
  theorem-3 column sums (into one reused buffer) read it a chunk at a time
- theta_progression / psi_progression: log-weighted prime (power) sums in a
  residue class, theta(x, d, b) = sum of log p over primes p <= x, p = b (mod d)
- factorize / divisors / is_squarefree: exact divisor work backed by the sieve

Sieves and tables are frozen and hand out read-only arrays; readers may share
them freely across threads.
"""

from __future__ import annotations

import bisect
import math
import numbers
import threading
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "TableRangeError",
    "FactorSieve",
    "ArithTables",
    "build_sieve",
    "build_tables",
    "prime_array",
    "theta_progression",
    "psi_progression",
    "factorize",
    "divisors",
    "is_squarefree",
    "phi_of",
    "mu_of",
]


class TableRangeError(ValueError):
    """An argument exceeds the range covered by a precomputed table."""


@dataclass(eq=False, frozen=True)
class FactorSieve:
    """Smallest-prime-factor table over [2, limit].

    spf[n] is the smallest prime dividing n, so spf[n] == n exactly when n is
    prime.  Entries 0 and 1 hold the sentinel 0.  The sieve keeps its primes,
    which primes() returns: build_sieve hands over prime_array(limit), the
    array it struck with (a view of the list prime_array holds, or a copy
    of that prefix where the list is more than twice as long), and a sieve
    built from a bare spf table takes the n >= 2 with spf[n] == n, 8 bytes
    per prime of its own.  The sieve is frozen and makes both arrays
    read-only.  Sieves compare by identity, not by their arrays; a copy or a
    pickle rebuilds one from its arrays.
    """

    limit: int
    spf: np.ndarray
    _primes: np.ndarray | None = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self._primes is None:
            object.__setattr__(self, "_primes", np.flatnonzero(self.spf[2:] == np.arange(2, self.limit + 1)) + 2)
        for a in (self.spf, self._primes):
            a.setflags(write=False)

    def __reduce__(self):
        return FactorSieve, (self.limit, self.spf, self._primes)

    def primes(self) -> np.ndarray:
        """All primes <= limit, ascending, as a read-only int64 array (one array per sieve)."""
        return self._primes

    def is_prime(self, n: int) -> bool:
        self._check(n)
        return n >= 2 and int(self.spf[n]) == n

    def _check(self, n: int) -> None:
        if n < 0:
            raise ValueError(f"n must be nonnegative, got {n}")
        if n > self.limit:
            raise TableRangeError(f"n = {n} exceeds sieve limit {self.limit}")


# The primorial 2*3*5*7*11*13 = 30030: divisibility by the primes <= 13, and so
# by every squarefree d <= 15 (17 is the first squarefree d that does not
# divide it), repeats with this period.  The odd slots i (the odd numbers
# 2i + 1) repeat their divisibility by the odd wheel primes with period 15015,
# so one struck period tiles the whole odd sieve; one period of the F_R table's
# head tiles that table (frmodel), and variance's column sums use it as a row
# length.
_WHEEL_PRIMES = (3, 5, 7, 11, 13)
_PRIMORIAL = 2 * math.prod(_WHEEL_PRIMES)
_WHEEL = _PRIMORIAL // 2


def _odd_segments(cutoff: int) -> Iterator[tuple[int, np.ndarray]]:
    """The odd-only sieve of prime_array, one struck segment at a time.

    Yields (lo, odd) for lo = 0, _ODD_SEGMENT, ... below (cutoff + 1) // 2:
    entry i of odd is set when 2 (lo + i) + 1 <= cutoff is 1 or prime.  Each
    segment of _ODD_SEGMENT slots (1 MB, so it stays in L2) starts as the
    copies, from slot lo on, of one period of _WHEEL slots (or of the whole
    sieve, if shorter) with the odd multiples of 3, 5, 7, 11 and 13 struck,
    with the wheel primes themselves set again.  The sieving primes from 17
    to sqrt(cutoff) are prime_array(isqrt(cutoff))'s, so below 17^2 the
    enumerator does not recurse; each segment is struck by those whose
    squares lie below its end, each from max(p^2, its first odd multiple in
    the segment).  Every segment is struck in one reused buffer, so a
    reader is done with a segment before it asks for the next.
    """
    size = (cutoff + 1) // 2
    wheel = np.ones(min(size, _WHEEL), dtype=bool)
    for p in _WHEEL_PRIMES:
        wheel[p // 2 :: p] = False
    root = math.isqrt(cutoff)
    # The first six primes are 2 and the wheel's; below 17^2 none is left to strike.
    sieving = prime_array(root)[len(_WHEEL_PRIMES) + 1 :].tolist() if root >= 17 else []
    buffer = np.empty(min(size, _ODD_SEGMENT), dtype=bool)
    for lo in range(0, size, _ODD_SEGMENT):
        hi = min(lo + _ODD_SEGMENT, size)
        odd = buffer[: hi - lo]
        row = np.roll(wheel, -(lo % wheel.size))  # the wheel from slot lo on
        for s in range(0, len(odd), len(row)):
            odd[s : s + len(row)] = row[: len(odd) - s]
        odd[[p // 2 - lo for p in _WHEEL_PRIMES if lo <= p // 2 < hi]] = True
        for p in sieving:
            first = p * p // 2
            if first >= hi:
                break
            if first < lo:
                first += -(-(lo - first) // p) * p
            odd[first - lo :: p] = False
        yield lo, odd


def _prime_count_bound(cutoff: int) -> int:
    """An upper bound on the number of primes <= cutoff, for cutoff >= 2.

    Dusart: pi(x) <= x / ln x * (1 + 1.2762 / ln x) for x > 1, one more
    for rounding; 669,546 against the 664,579 primes to 10^7.  P. Dusart,
    "The kth prime is greater than k(ln k + ln ln k - 1) for k >= 2",
    Math. Comp. 68 (1999) 411-415.
    """
    log = math.log(cutoff)
    return int(cutoff / log * (1.0 + 1.2762 / log)) + 1


# The held list: (cutoff, the read-only primes <= cutoff), replaced only by a
# longer one.  The lock makes that check and the swap one step; enumeration
# runs outside it, so two threads may enumerate the same list.
_held = (1, np.empty(0, dtype=np.int64))
_held_lock = threading.Lock()


def prime_array(cutoff: int) -> np.ndarray:
    """All primes <= cutoff as a read-only ascending int64 array: the package's one prime enumerator and store.

    A cutoff past the held list's enumerates the odd sieve one segment at a
    time (_odd_segments; entry i for the odd number 2i + 1, where entry 0,
    the number 1, is never struck and its slot in the result becomes the
    prime 2).  Each segment's set entries, a quarter segment (_SEGMENT
    slots) at a time, are written as numbers straight into one int64 array
    sized by _prime_count_bound, which is then cut to the pi(cutoff) primes
    in place: no array the size of the sieve is built.  The result is held
    in place of the shorter list.  Every answer is a prefix view of the list
    it enumerated or of the one held when it was called, never of a later
    swap, so build_sieve(x) and the constants at a cutoff <= x share one
    array.  The held list is never released: it goes with the process.  An
    int cutoff held does not answer an equal float: the check comes first.
    """
    global _held
    if not isinstance(cutoff, numbers.Integral) or cutoff < 2:
        raise ValueError(f"cutoff must be an integer >= 2, got {cutoff!r}")
    held_cutoff, primes = _held
    if cutoff > held_cutoff:
        primes = np.empty(_prime_count_bound(cutoff), dtype=np.int64)
        n = 0
        for lo, odd in _odd_segments(cutoff):
            for s in range(0, len(odd), _SEGMENT):
                i = np.flatnonzero(odd[s : s + _SEGMENT])
                i *= 2
                i += 2 * (lo + s) + 1
                primes[n : n + len(i)] = i
                n += len(i)
        primes[0] = 2
        # No view of primes exists yet, so the shrink may move it: it ends with its own base.
        primes.resize(n, refcheck=False)
        primes.setflags(write=False)
        with _held_lock:
            if cutoff > _held[0]:
                _held = (int(cutoff), primes)
    return primes[: np.searchsorted(primes, cutoff, side="right")]


def _check_limit(limit: int) -> None:
    """The range of the sieve and the tables: an integer, numpy's included, with 2 <= limit < 2^31 (int32 spf)."""
    if not isinstance(limit, numbers.Integral) or not 2 <= limit < 2**31:
        raise ValueError(f"x must be an integer with 2 <= x < 2^31 (the int32 sieve), got {limit!r}")


# Length of one segment of the sieve and of the F_R table, and the largest block
# of the build_tables recurrence: an int32 segment is 1 MB and stays in L2 while
# every sieving prime (or divisor) strikes it, where one strided pass per prime
# over the whole table runs from main memory; a block's int64 gather
# temporaries are 2 MB each.
_SEGMENT = 2**18
# Slots of one segment of prime_array's bool sieve (_odd_segments): the same 1 MB.
_ODD_SEGMENT = 4 * _SEGMENT


def build_sieve(limit: int) -> FactorSieve:
    """Build the smallest-prime-factor table for [2, limit].

    The primes <= limit are prime_array(limit), a prefix of the held list
    that the constants read too; where that list is more than twice as
    long, the sieve keeps a copy of its prefix instead, so a short sieve
    does not keep a long list alive once prime_array holds a longer one.
    Every segment [lo, lo + _SEGMENT), from lo = 0, is struck by the primes
    <= sqrt(limit) with p^2 < hi in descending order, with plain stores and
    no mask: each odd prime p at its odd multiples only (stride 2p), from
    the first odd multiple >= max(p^2, lo), and last 2 at every even entry
    from max(4, lo).  The smallest prime p dividing a composite n has
    p^2 <= n, so p strikes n (2 every even n, an odd p every odd n it
    divides) and writes it last: an entry ends as in one pass per prime
    over the whole table.  No strike reaches a prime, so spf[p] = p is
    stored for every prime at the end, and the array of the primes is
    handed to the sieve as its primes.

    Args:
        limit: inclusive upper bound, in [2, 2^31) (_check_limit).

    Returns:
        FactorSieve with spf filled for every n in [2, limit] and its primes kept.
    """
    _check_limit(limit)
    primes = prime_array(limit)
    # A prefix view keeps the whole list it was sliced from (its base) alive.
    if primes.base.size > 2 * primes.size:
        primes = primes.copy()
    sieving = primes[: np.searchsorted(primes, math.isqrt(limit), side="right")].tolist()
    squares = [p * p for p in sieving]
    spf = np.zeros(limit + 1, dtype=np.int32)
    for lo in range(0, limit + 1, _SEGMENT):
        hi = min(lo + _SEGMENT, limit + 1)
        # Only the primes with p^2 < hi have a multiple from their square on in [lo, hi).
        striking = sieving[: bisect.bisect_left(squares, hi)]
        for p in reversed(striking[1:]):
            spf[max(p * p, (-(-lo // p) | 1) * p) : hi : 2 * p] = p
        if striking:
            spf[max(4, lo + lo % 2) : hi : 2] = 2
    spf[primes] = primes
    return FactorSieve(limit=limit, spf=spf, _primes=primes)


@dataclass(eq=False, frozen=True)
class ArithTables:
    """Dense arithmetic-function tables over [0, limit].

    Attributes:
        limit: inclusive upper bound shared by all arrays.
        lam: von Mangoldt Lambda(n) as float64 (log p at prime powers, else 0).
        mu: Mobius mu(n) as int8.
        phi: Euler totient phi(n) as int64.
        prime_powers: the p^k <= limit with k >= 2, ascending, as int64; the
            only n where Lambda and theta differ.
        sieve: the FactorSieve the tables were built from.

    The table set is frozen and makes its arrays read-only, so neither a
    field nor an entry can change under a config built on it.  theta, log n
    at primes and 0 elsewhere (the weight of the theta sums), is not stored:
    the property derives it from lam (_weight), allocating limit + 1 float64s
    on every access, while the bucket sums of theta (variance's _pairwise)
    ask _weight for it a chunk at a time and hold no copy.
    Table sets compare by identity, not by their arrays, so configs built on
    them (FRConfig) compare without raising; a copy or a pickle rebuilds one
    from its arrays.
    """

    limit: int
    lam: np.ndarray
    mu: np.ndarray
    phi: np.ndarray
    prime_powers: np.ndarray
    sieve: FactorSieve

    def __post_init__(self) -> None:
        for a in (self.lam, self.mu, self.phi, self.prime_powers):
            a.setflags(write=False)

    def __reduce__(self):
        return ArithTables, (self.limit, self.lam, self.mu, self.phi, self.prime_powers, self.sieve)

    @property
    def theta(self) -> np.ndarray:
        """A fresh copy of lam with the prime powers p^k, k >= 2, set to 0."""
        return _weight(self, self.limit, True)


def build_tables(sieve: FactorSieve) -> ArithTables:
    """Build Lambda, mu and phi from a factor sieve.

    mu and phi come from one recurrence on the smallest prime factor.  For
    n >= 2 let p = spf[n], m = n // p and again = (spf[m] == p), which holds
    exactly when p^2 | n:

        phi[n] = phi[m] * (p - 1 + again)
        mu[n] = 0 if again else -mu[m] = mu[m] * (again - 1)

    m <= n / 2, so n runs in ascending blocks [lo, min(2 lo, lo + _SEGMENT)),
    each a vectorised gather from blocks already built, with in-place int32
    (p - 1 + again) and int8 (again - 1) factors.  m is the float64
    quotient n / p, not an int64 floor division: n < 2^31 and p are exact
    doubles, p divides n, so the true quotient m is an integer below 2^53,
    a double itself, and the correctly rounded division returns it exactly.

    The primes are the sieve's own, sieve.primes().  Lambda holds log p at
    each prime p and one store of that float at each p^k <= limit with
    k >= 2 (p <= sqrt(limit)), so every power of p carries the same float;
    those p^k are kept, sorted, as the tables' prime_powers (555 at 10^7),
    from which theta is derived.
    """
    limit = sieve.limit
    spf = sieve.spf
    primes = sieve.primes()

    lam = np.zeros(limit + 1, dtype=np.float64)
    lam[primes] = np.log(primes.astype(np.float64))
    powers = []
    for p in primes[: np.searchsorted(primes, math.isqrt(limit), side="right")].tolist():
        pk = p * p
        while pk <= limit:
            lam[pk] = lam[p]
            powers.append(pk)
            pk *= p
    prime_powers = np.sort(np.array(powers, dtype=np.int64))
    mu = np.zeros(limit + 1, dtype=np.int8)
    phi = np.zeros(limit + 1, dtype=np.int64)
    mu[1] = phi[1] = 1

    lo = 2
    while lo <= limit:
        hi = min(2 * lo, lo + _SEGMENT, limit + 1)
        p = spf[lo:hi]
        m = np.arange(lo, hi, dtype=np.float64)
        m /= p
        m = m.astype(np.intp)
        again = spf[m] == p
        factor = p - 1
        factor += again
        # The gathers read m < lo only, so they may write into [lo, hi) of the same array.
        np.take(phi, m, out=phi[lo:hi], mode="clip")
        phi[lo:hi] *= factor
        sign = again.view(np.int8)
        sign -= 1
        np.take(mu, m, out=mu[lo:hi], mode="clip")
        mu[lo:hi] *= sign
        lo = hi

    return ArithTables(limit=limit, lam=lam, mu=mu, phi=phi, prime_powers=prime_powers, sieve=sieve)


def _norm_residue(b: int, d: int) -> int:
    if d < 1:
        raise ValueError(f"modulus must be >= 1, got {d}")
    if not 0 <= b <= d:
        raise ValueError(f"residue must lie in [0, {d}], got {b}")
    return 0 if b == d else b


def _check_integer(name: str, value: int) -> None:
    """A bound that slices or counts: an integer, numpy's included, never a float of integral value.

    A plain int is let through before the numbers.Integral test, which
    costs about 0.4 us for one (a theorem-3 class checks three).
    """
    if type(value) is not int and not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")


def _check_x(x: int, tables: ArithTables) -> None:
    _check_integer("x", x)
    if x < 0:
        raise ValueError(f"x must be nonnegative, got {x}")
    if x > tables.limit:
        raise TableRangeError(f"x = {x} exceeds table limit {tables.limit}")


def _weight(
    tables: ArithTables, x: int, theta: bool, b: int = 0, d: int = 1, model: np.ndarray | None = None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Lambda(n), less model[n] when a model is given, at n = b, b + d, ... <= x.

    Only Lambda is stored.  With theta the prime powers p^k, k >= 2, of the
    class hold 0.0 (0.0 - model[p^k] with a model), so the result equals the
    same entries of a stored theta table (less the model) bit for bit,
    signed zeros included.  Lambda alone (theta false, no model) is a
    read-only view of tables.lam; anything else is a fresh array of the
    class's entries, or, with a model and out given, the first entries of
    out, written in place and returned.  The caller checks x, b and d.
    """
    w = tables.lam[b : x + 1 : d]
    if model is not None:
        w = np.subtract(w, model[b : x + 1 : d], out=None if out is None else out[: len(w)])
    elif theta:
        w = w.copy()
    if theta:
        pp = tables.prime_powers
        pp = pp[(pp >= b) & (pp <= x) & ((pp - b) % d == 0)]
        w[(pp - b) // d] = 0.0 if model is None else np.subtract(0.0, model[pp])
    return w


def theta_progression(x: int, d: int, b: int, tables: ArithTables) -> float:
    """Sum of log p over primes p <= x with p = b (mod d).

    The residue b may be given in [0, d]; b = d is reduced to 0.  The
    class's x/d entries of Lambda are copied with their prime powers set to
    0 (_weight), so the sum equals the sum over the same entries of a
    theta table bit for bit.
    """
    b = _norm_residue(b, d)
    _check_x(x, tables)
    return float(_weight(tables, x, True, b, d).sum())


def psi_progression(x: int, d: int, b: int, tables: ArithTables) -> float:
    """Sum of Lambda(n) over n <= x with n = b (mod d)."""
    b = _norm_residue(b, d)
    _check_x(x, tables)
    return float(_weight(tables, x, False, b, d).sum())


def factorize(n: int, sieve: FactorSieve) -> list[tuple[int, int]]:
    """Prime factorization of n as [(p, exponent)] with p ascending."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    sieve._check(n)
    out: list[tuple[int, int]] = []
    while n > 1:
        p = int(sieve.spf[n])
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        out.append((p, e))
    return out


def divisors(n: int, sieve: FactorSieve) -> list[int]:
    """All positive divisors of n, ascending."""
    divs = [1]
    for p, e in factorize(n, sieve):
        pk = 1
        new = []
        for _ in range(e):
            pk *= p
            new.extend(d * pk for d in divs)
        divs.extend(new)
    return sorted(divs)


def is_squarefree(n: int, sieve: FactorSieve) -> bool:
    return all(e == 1 for _, e in factorize(n, sieve))


def mu_of(n: int, sieve: FactorSieve) -> int:
    """Mobius function computed from the factorization (no dense table needed)."""
    fac = factorize(n, sieve)
    if any(e > 1 for _, e in fac):
        return 0
    return -1 if len(fac) % 2 else 1


def phi_of(n: int, sieve: FactorSieve) -> int:
    """Euler totient computed from the factorization."""
    out = 1
    for p, e in factorize(n, sieve):
        out *= (p - 1) * p ** (e - 1)
    return out
