"""Truncated Ramanujan-expansion approximation to the von Mangoldt function.

The model value is

    F_R(n) = sum_{r <= R} (mu(r)/phi(r)) * C_r(n),

where C_r(n) is the Ramanujan sum over residues coprime to r.  The r = 1 term
is C_1(n)/phi(1) = 1, so F_R(n) = 1 identically for R < 2.

Two evaluation routes are kept deliberately distinct:

- the fast route rearranges the double sum into divisor form,
      F_R(n) = sum_{d | n, d <= R} d*mu(d)/phi(d) * g_R(d),
      g_R(d) = sum_{h <= R/d, gcd(h, d) = 1} mu(h)^2/phi(h),
  with the g_R(d) weights precomputed once per configuration;
- the naive route evaluates the literal sum over r with one Ramanujan sum per
  term and serves as the independent cross-check.

Also here: progression sums rho(x, d, b) of F_R, the residual
delta(n) = Lambda(n) - F_R(n), the diagnostic oscillating sum rho_star, the
exact Mobius/Ramanujan divisor identity, the squarefree partial sum
sum_{r <= R} mu(r)^2/phi(r) and its restriction G_v(y) to r coprime to v, and
the pair sweep for the exact per-class mean of F_R(n)^2.
"""

from __future__ import annotations

import cmath
import functools
import math
import threading
from collections import OrderedDict
from collections.abc import Callable, Hashable
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .arith import (
    ArithTables,
    FactorSieve,
    TableRangeError,
    _PRIMORIAL,
    _SEGMENT,
    _check_integer,
    _check_x,
    _norm_residue,
    divisors,
    is_squarefree,
    mu_of,
    phi_of,
)

__all__ = [
    "FRConfig",
    "ramanujan_sum",
    "ramanujan_sum_oracle",
    "fr_value",
    "fr_value_naive",
    "fr_table_naive",
    "delta_value",
    "rho",
    "rho_star",
    "mobius_cr_identity",
    "verify_mobius_cr_range",
    "mu2_over_phi_sum",
    "fr_square_progression_mean",
    "delta_indicator",
]


def ramanujan_sum(r: int, n: int, sieve: FactorSieve) -> int:
    """Ramanujan sum C_r(n) = sum_{d | gcd(n, r)} d * mu(r/d), exactly.

    gcd(0, r) = r, so C_r(0) = phi(r).
    """
    if r < 1:
        raise ValueError(f"r must be >= 1, got {r}")
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if r > sieve.limit:
        raise TableRangeError(f"r = {r} exceeds sieve limit {sieve.limit}")
    g = math.gcd(n, r)
    total = 0
    for d in divisors(g, sieve):
        total += d * mu_of(r // d, sieve)
    return total


def ramanujan_sum_oracle(r: int, n: int) -> complex:
    """Definitional exponential sum sum_{b <= r, gcd(b, r) = 1} e(b n / r)."""
    if r < 1:
        raise ValueError(f"r must be >= 1, got {r}")
    total = 0j
    for b in range(1, r + 1):
        if math.gcd(b, r) == 1:
            total += cmath.exp(2j * cmath.pi * ((b * n) % r) / r)
    return total


def _check_r(R: float, limit: int | None = None) -> None:
    """A truncation level: R finite and >= 1, and floor(R) <= limit when it reads tables to limit."""
    if not 1 <= R < math.inf:
        raise ValueError(f"R must be finite and >= 1, got {R}")
    if limit is not None and math.floor(R) > limit:
        raise TableRangeError(f"floor(R) = {math.floor(R)} exceeds table limit {limit}")


# G_v(y) values, keyed by (y, v), that each config's lookup keeps.  The refined
# theorem-3 form asks for up to tau(v) of them per modulus v, plus G_1(R), so this
# holds the values of about 128 moduli of up to three primes, as many moduli as
# variance keeps for the theorem-3 forms' other per-modulus work.
_G_CACHE = 1024

# Float64 values (8 MB) that each config's cache of sums keeps: the column
# sums of the residual square per row length m, from which
# variance.delta_sq_progression reads each class, the class sums of each
# bucket-route modulus d, and one value per lone lag-route row.  The 12 row
# lengths of the squarefree v <= 60 need 30030 + 6 (17 + 19 + ... + 59) =
# 32,424 of them; a band at 10^7 holds a few hundred rows, or d values per
# bucket-route modulus, and a bucket-route band holds its sums only where
# they fit beside the values held.
_SUM_CACHE = 2**20


class _ArrayCache:
    """A bounded, thread-safe map of keys to read-only arrays; the least recently used go first.

    It keeps at most max_values array elements in all, or its newest entry
    alone where that one is larger; a running count of the elements held
    makes each eviction one step.  It refers to its arrays and nothing
    else.  Builders run outside the lock, so threads racing on one key may
    each build the array; the first one stored is the one every caller gets.
    """

    def __init__(self, max_values: int) -> None:
        self.max_values = max_values
        self._lock = threading.Lock()
        self._arrays: OrderedDict[Hashable, np.ndarray] = OrderedDict()
        self._size = 0  # the elements of the arrays held

    def held(self, key: Hashable) -> np.ndarray | None:
        """The array held under key, now the most recently used, or None."""
        with self._lock:
            arr = self._arrays.get(key)
            if arr is not None:
                self._arrays.move_to_end(key)
            return arr

    def fits(self, n: int) -> bool:
        """Whether n more elements fit beside the ones held, so that holding them evicts nothing."""
        with self._lock:
            return self._size + n <= self.max_values

    def get(self, key: Hashable, build: Callable[[], np.ndarray]) -> np.ndarray:
        arr = self.held(key)
        if arr is not None:
            return arr
        arr = build()
        arr.setflags(write=False)
        with self._lock:
            held = self._arrays.get(key)
            if held is None:
                self._arrays[key] = arr
                self._size += arr.size
            else:
                arr = held
                self._arrays.move_to_end(key)
            while len(self._arrays) > 1 and self._size > self.max_values:
                self._size -= self._arrays.popitem(last=False)[1].size
        return arr


@dataclass(frozen=True)
class FRConfig:
    """Precomputed state for one truncation level R over one table set.

    Frozen: R (normalised to float) and tables are fixed at construction, so
    everything derived from them stays valid; dataclasses.replace builds a
    fresh config with fresh arrays, and a copy or a pickle rebuilds one from
    R and the tables.  It keeps:

    - the divisor-form weights coef[d] = d*mu(d)/phi(d) * g_R(d), built at
      construction, 8 bytes per d <= R;
    - the dense value table over [0, tables.limit], built on first use by
      table(), 8 bytes per n: 80 MB at a limit of 10^7, 800 MB at 10^8;
    - _sums, an _ArrayCache of at most _SUM_CACHE values: the blocked column
      sums of the residual square per (x, row length m), from which
      variance.delta_sq_progression reads each class N mod v as the sum of
      the m/v columns N mod v, N mod v + v, ...; the sums of all d classes
      of a bucket-route modulus d per (x, weight, d),
      from which every band on the config selects the classes it keeps (a
      band holds the sums it builds only where they all fit beside the
      values held, so it evicts nothing);
      and the unsigned part of each lone row of a lag-route band
      (variance._lag_band_rows), one 1-element array per
      (x, weight, start, e, f_lo, f_hi), which later bands on the config
      read instead of transforming the row again;
    - _coprime_g(y, v), an lru cache of the last _G_CACHE values of
      G_v(y) = _coprime_mu2_over_phi(y, v, tables).

    It holds no other array of 8 bytes per n.  The bucket-route bands and
    the theorem-3 column sums derive the residual Lambda(n) - F_R(n) from
    Lambda and the table a chunk at a time, as they read it front to back;
    a lag-route band, whose transform takes the whole row, derives it over
    [0, x] for itself and drops it.

    Every array it hands out (the weights, the table, the sums and the row
    parts) is read-only.  Both caches refer to arrays or to the tables,
    never to the config, so dropping the config frees its arrays at once.

    Thread safety: concurrent calls may share a config.  Both caches are
    thread-safe, and if two threads race on an unbuilt table or sum each
    may build one; the two are identical, and either is kept.  An array
    handed out stays valid after the config drops it.
    """

    R: float
    tables: ArithTables
    _coef: np.ndarray = field(init=False, repr=False, compare=False)
    _table: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)
    _coprime_g: Callable[[float, int], float] = field(init=False, repr=False, compare=False)
    _sums: _ArrayCache = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        _check_r(self.R, self.tables.limit)
        object.__setattr__(self, "R", float(self.R))
        object.__setattr__(self, "_coef", self._build_coef())
        object.__setattr__(self, "_sums", _ArrayCache(_SUM_CACHE))
        g = functools.partial(_coprime_mu2_over_phi, tables=self.tables)
        object.__setattr__(self, "_coprime_g", functools.lru_cache(maxsize=_G_CACHE)(g))

    def __reduce__(self):
        return FRConfig, (self.R, self.tables)

    @property
    def r_int(self) -> int:
        return int(math.floor(self.R))

    def _build_coef(self) -> np.ndarray:
        mu = self.tables.mu
        phi = self.tables.phi
        coef = np.zeros(self.r_int + 1, dtype=np.float64)
        for d in range(1, self.r_int + 1):
            if mu[d] == 0:
                continue
            g = _coprime_mu2_over_phi(self.R / d, d, self.tables)
            coef[d] = d * int(mu[d]) / float(phi[d]) * g
        coef.setflags(write=False)
        return coef

    def table(self) -> np.ndarray:
        """Read-only dense F_R values over [0, tables.limit]; index 0 is 0.

        Entry n is the sum of coef[d] over d | n, added from 0.0 in ascending
        d, over the squarefree d <= R with coef[d] != 0.  The head of those
        d, the ascending prefix of the ones dividing _PRIMORIAL (every d up
        to 15; 17 is the first that does not divide 30030), gives each n the
        partial sum of entry n mod _PRIMORIAL, so one period of it, built by
        the same adds in the same order, is tiled over the table, and entry
        0, which no add reaches, is set to 0.0.  The rest of the d are added
        over ascending segments [lo, lo + _SEGMENT), in ascending order
        within each, from the first multiple >= max(lo, d).  So every entry
        gets the same additions in the same order as in one pass per d over
        the whole table.  At R = 50 the tile takes 11 of the 31 d, 80% of
        the adds.
        """
        if self._table is None:
            limit = self.tables.limit
            terms = [(d, self._coef[d]) for d in np.flatnonzero(self._coef).tolist()]
            k = 0
            while k < len(terms) and _PRIMORIAL % terms[k][0] == 0:
                k += 1
            head = np.zeros(min(_PRIMORIAL, limit + 1), dtype=np.float64)
            for d, c in terms[:k]:
                head[::d] += c
            t = np.resize(head, limit + 1)  # repeated copies of the head period
            t[0] = 0.0
            for lo in range(0, limit + 1, _SEGMENT):
                hi = min(lo + _SEGMENT, limit + 1)
                for d, c in terms[k:]:
                    t[-(-max(lo, d) // d) * d : hi : d] += c
            t.setflags(write=False)
            object.__setattr__(self, "_table", t)
        return self._table


def fr_value(n: int, cfg: FRConfig) -> float:
    """F_R(n) by the divisor-form fast route; divisors checks 1 <= n <= limit."""
    s = 0.0
    for d in divisors(n, cfg.tables.sieve):
        if d > cfg.r_int:
            break
        c = cfg._coef[d]
        if c != 0.0:
            s += c
    return float(s)


def fr_value_naive(n: int, cfg: FRConfig) -> float:
    """F_R(n) by the literal sum over r, one Ramanujan sum per term."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    mu = cfg.tables.mu
    phi = cfg.tables.phi
    sieve = cfg.tables.sieve
    s = 0.0
    for r in range(1, cfg.r_int + 1):
        if mu[r] == 0:
            continue
        s += int(mu[r]) / float(phi[r]) * ramanujan_sum(r, n, sieve)
    return s


def fr_table_naive(x: int, cfg: FRConfig) -> np.ndarray:
    """Dense F_R values over [0, x] by the naive route.

    For each r the Ramanujan sum is evaluated on one period 0..r-1 via the
    divisor formula and tiled, so entry n receives exactly the ordered term
    sequence of fr_value_naive(n).
    """
    _check_x(x, cfg.tables)
    mu = cfg.tables.mu
    phi = cfg.tables.phi
    sieve = cfg.tables.sieve
    t = np.zeros(x + 1, dtype=np.float64)
    for r in range(1, cfg.r_int + 1):
        if mu[r] == 0:
            continue
        row = np.array([ramanujan_sum(r, j, sieve) for j in range(r)], dtype=np.float64)
        tiled = np.tile(row, x // r + 1)[: x + 1]
        t += (int(mu[r]) / float(phi[r])) * tiled
    return t


def delta_value(n: int, cfg: FRConfig) -> float:
    """Residual Lambda(n) - F_R(n); fr_value checks n."""
    fr = fr_value(n, cfg)
    return float(cfg.tables.lam[n]) - fr


def rho(x: int, d: int, b: int, cfg: FRConfig) -> float:
    """Model progression sum rho(x, d, b) = sum_{n <= x, n = b (mod d)} F_R(n)."""
    b = _norm_residue(b, d)
    _check_x(x, cfg.tables)
    t = cfg.table()
    return float(t[: x + 1][b::d].sum())


def _check_class(v: int, N: int, limit: int) -> None:
    """The class n = N (mod v) over tables to limit: integers with 1 <= v <= limit and N >= 0."""
    _check_integer("v", v)
    _check_integer("N", N)
    if not 1 <= v <= limit:
        raise ValueError(f"v must satisfy 1 <= v <= {limit}, got {v}")
    if N < 0:
        raise ValueError(f"N must be >= 0, got {N}")


def _class_start(x: int, v: int, N: int, tables: ArithTables) -> int:
    """The least n >= 1 with n = N (mod v), once x <= limit, the class and a squarefree v are checked."""
    _check_x(x, tables)
    _check_class(v, N, tables.limit)
    if tables.mu[v] == 0:
        raise ValueError(f"v must be squarefree, got {v}")
    return N % v or v


def rho_star(x: int, v: int, N: int, cfg: FRConfig) -> float:
    """Oscillating remainder sum over moduli r1 <= R that do not divide v.

    Computes sum_{r1 <= R, r1 not| v} (mu(r1)/phi(r1)) *
    sum_{b1 <= r1, gcd(b1, r1) = 1} sum_{n <= x, n = N (mod v)} e(-b1 n / r1)
    as a literal double sum and returns its real part; the imaginary part must
    vanish to within 1e-6 absolute or an ArithmeticError is raised.
    """
    ns = np.arange(_class_start(x, v, N, cfg.tables), x + 1, v, dtype=np.int64)
    mu = cfg.tables.mu
    phi = cfg.tables.phi
    total = 0j
    for r1 in range(2, cfg.r_int + 1):
        if v % r1 == 0 or mu[r1] == 0:
            continue
        w = int(mu[r1]) / float(phi[r1])
        res = (ns % r1).astype(np.float64)
        for b1 in range(1, r1 + 1):
            if math.gcd(b1, r1) == 1:
                total += w * np.exp((-2j * np.pi * b1 / r1) * res).sum()
    if abs(total.imag) > 1e-6:
        raise ArithmeticError(f"imaginary part {total.imag} exceeds 1e-6")
    return float(total.real)


def delta_indicator(N: int, v: int) -> int:
    """1 when the class N mod v can contain primes >= v: gcd(N, v) = 1 with gcd(0, v) = v."""
    if N < 0:
        raise ValueError(f"N must be >= 0, got {N}")
    if v < 1:
        raise ValueError(f"v must be >= 1, got {v}")
    return 1 if math.gcd(N, v) == 1 else 0


def _cr_by_gcd(v: int, sieve: FactorSieve) -> list[tuple[int, int, int, dict[int, int]]]:
    """Per divisor r | v: (r, mu(r), phi(v)//phi(r), {g | r: C_r at gcd g})."""
    phi_v = phi_of(v, sieve)
    out = []
    for r in divisors(v, sieve):
        cr = {g: ramanujan_sum(r, g, sieve) for g in divisors(r, sieve)}
        out.append((r, mu_of(r, sieve), phi_v // phi_of(r, sieve), cr))
    return out


def mobius_cr_identity(v: int, N: int, sieve: FactorSieve) -> tuple[Fraction, Fraction]:
    """Exact identity sum_{r | v} mu(r) C_r(N) / phi(r) = (v/phi(v)) * delta(N, v).

    Both sides are computed independently in exact rational arithmetic, the
    left from Ramanujan sums and the right from the closed form; the pair is
    returned after asserting equality.
    """
    if v < 1:
        raise ValueError(f"v must be >= 1, got {v}")
    if not is_squarefree(v, sieve):
        raise ValueError(f"v must be squarefree, got {v}")
    if N < 0:
        raise ValueError(f"N must be >= 0, got {N}")
    phi_v = phi_of(v, sieve)
    num = sum(mu_r * cr[math.gcd(N, r)] * w_r for r, mu_r, w_r, cr in _cr_by_gcd(v, sieve))
    lhs = Fraction(num, phi_v)
    rhs = Fraction(v * delta_indicator(N, v), phi_v)
    if lhs != rhs:
        raise ArithmeticError(f"identity failed at v={v}, N={N}: {lhs} != {rhs}")
    return lhs, rhs


def verify_mobius_cr_range(vmax: int, sieve: FactorSieve) -> int:
    """Check the divisor identity for every squarefree v <= vmax, 0 <= N <= v.

    Uses the shared per-divisor Ramanujan-sum tables with a common denominator
    phi(v), so the comparison stays in integer arithmetic.  Returns the number
    of (v, N) pairs checked; raises ArithmeticError on the first failure.
    """
    checked = 0
    for v in range(1, vmax + 1):
        if not is_squarefree(v, sieve):
            continue
        data = _cr_by_gcd(v, sieve)
        for N in range(v + 1):
            num = sum(mu_r * cr[math.gcd(N, r)] * w_r for r, mu_r, w_r, cr in data)
            if num != v * delta_indicator(N, v):
                raise ArithmeticError(f"identity failed at v={v}, N={N}")
            checked += 1
    return checked


def mu2_over_phi_sum(R: float, tables: ArithTables) -> float:
    """Compensated partial sum sum_{r <= R} mu(r)^2 / phi(r).

    Grows like log R + gamma + sum_p log p / (p(p-1)) with an O(R^{-1/2}) tail.
    """
    _check_r(R, tables.limit)
    return _coprime_mu2_over_phi(R, 1, tables)


def _coprime_mu2_over_phi(y: float, v: int, tables: ArithTables) -> float:
    """G_v(y) = sum_{b <= y, gcd(b, v) = 1} mu(b)^2 / phi(b), compensated; 0 for y < 1.

    The one exact home of G_v: the F_R weights g_R(d) = G_d(R/d), the
    squarefree partial sum G_1(R) and, through FRConfig._coprime_g, the CRT
    class mean of theorem3_refined_prediction read it.
    """
    b = np.nonzero(tables.mu[1 : int(math.floor(y)) + 1])[0] + 1
    return math.fsum(1.0 / tables.phi[b[np.gcd(b, v) == 1]])


def fr_square_progression_mean(v: int, N: int, cfg: FRConfig) -> float:
    """Exact asymptotic mean of F_R(n)^2 on the class n = N (mod v), scaled so
    sum_{n <= x, n = N (mod v)} F_R(n)^2 ~ (x/v) * (returned value).

    A pair of expansion moduli (r, r1) has a nonzero average on the class only
    when r = g*s and r1 = g*s1 with s, s1 divisors of v (g the gcd); every
    other pair oscillates to zero over a full period.  Surviving pairs are
    averaged exactly, in integer arithmetic, over one period of C_r * C_r1
    restricted to the class.  For v = 1 only the diagonal r = r1 survives and
    the value reduces to mu2_over_phi_sum(R).
    """
    if v < 1:
        raise ValueError(f"v must be >= 1, got {v}")
    if N < 0:
        raise ValueError(f"N must be >= 0, got {N}")
    mu = cfg.tables.mu
    phi = cfg.tables.phi
    sieve = cfg.tables.sieve
    n0 = N % v
    sf = [r for r in range(1, cfg.r_int + 1) if mu[r] != 0]
    weights = {r: int(mu[r]) / float(phi[r]) for r in sf}
    # C_r(n) over one period n = 0..r-1, for each squarefree r <= R
    cr = {r: np.array([ramanujan_sum(r, n, sieve) for n in range(r)], dtype=np.int64) for r in sf}
    parts: list[float] = []
    for r in sf:
        for r1 in sf:
            g = math.gcd(r, r1)
            if v % (r // g) or v % (r1 // g):
                continue
            period = math.lcm(r, r1, v) // v
            ns = n0 + v * np.arange(period, dtype=np.int64)
            total = int((cr[r][ns % r] * cr[r1][ns % r1]).sum())
            parts.append(weights[r] * weights[r1] * (total / period))
    return math.fsum(parts)
