"""Second-moment experiments for primes in restricted residue classes.

The central quantity is the banded variance

    V = sum_{Q_low < d <= Q} sum_{b in S(d)} (W(x, d, b) - A(x, d, b))^2,

where W is the theta (primes) or psi (prime powers) progression sum, A is the
model progression sum rho(x, d, b) built from F_R (or x/phi(d) in the
classical BDH mode), and S(d) is one of: all residues, the reduced residues,
or the shifted-coprime classes gcd(N - b, d) = 1.  The restricted modes are one
rule, gcd(shift - b, d) = 1 with shift 0 for the reduced residues and BDH and
N for the shifted classes (RestrictionMode.shift), so neither kernel branches
on the mode beyond BDH's x/phi(d).

Main-term predictions follow the per-modulus densities, so a banded run is
predicted by (Q - Q_low) times the per-modulus density; Q_low = 0 recovers the
headline forms Q x log(x/R) - c0 Q x and their restricted analogues.

Two routes compute a band.  The bucket route streams the residual once, a
chunk at a time, into the running column sums of all d classes of every
modulus of the band, numpy's row sum bit for bit, and can split the moduli
over threads.  Each modulus selects the classes it keeps, found by striking
b = shift (mod p) for each prime p | d.  Every class a restricted mode keeps
is a class ALL sums, so the F_R config keeps the sums of all d classes of
each modulus (in _sums): COPRIME and SHIFT_COPRIME select their classes from
the sums ALL built, or build them there for the next band.  BDH's raw weight
lives on the primes (and, for psi, the prime powers), so its classes d >= 2
are summed over those alone (_raw_sums), in the order of the row sum of a
stored copy.  The lag route opens each
modulus as sum_b S_b(d)^2 = A(0) + 2 sum_{k >= 1} A(k d), with A the
autocorrelation of the residual, so the whole band costs one FFT; the
restricted modes add, by Moebius inversion, the autocorrelations of the rows
a[shift mod e :: e] of every squarefree e <= Q, batched by FFT size so that a
block of rows shares one transform.  A row alone in its block is one float
fixed by the residual and the row, so the F_R config keeps it (in _sums):
ALL's one row, e = 1, is also the first row of every restricted band on the
same band, and a later band on the config reads every lone row it shares
instead of transforming it again.  BDH's raw weight lives on the prime
powers, so its ladder transforms only e = 1: the composite rows are zero, and
a prime row holds only the powers of p, so its band is an exact sum over
pairs of them.  The band width alone picks the route (_lag_route); the bucket
route stays as the oracle the tests compare the lag route against.  Nothing
x-sized is kept: the bucket route (_stream_sums) and the theorem-3 column
sums (_column_sums) derive the residual, or its square, a chunk at a time
where they read it front to back; BDH's raw theta reaches the bucket route
at d = 1 a chunk at a time from Lambda (_pairwise), in the order of the sums
of a copy; the lag route, whose transform takes the whole row, derives the
residual (or copies theta) for the band alone.

Determinism: on the bucket route each modulus contributes a float computed by
a fixed sequence of array operations, worker threads never share
accumulators, and the final reduction is an exactly rounded fsum.  The lag
route is single threaded: a fixed sequence of array operations, numpy
pairwise sums along each row and one fsum over the rows.  Either way results
are bit-identical for any thread count.  The lag weights c(j) and BDH's
first moments are exact integer counts and exactly rounded sums, so only the
transforms and BDH's prime-row terms round; a row alone in its block takes
the least 5-smooth FFT size, a batch of rows a power of two.
"""

from __future__ import annotations

import enum
import functools
import math
import numbers
import os
import time
from collections.abc import Callable, Iterator, Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .arith import ArithTables, FactorSieve, _PRIMORIAL, _check_x, _weight, divisors, factorize
from .constants import _SUM_BLOCK, ConstantSet, ProductKind, _exact_sum, restricted_product
from .frmodel import FRConfig, _check_r, _class_start, _fr_at, delta_indicator

__all__ = [
    "Mode",
    "Weight",
    "RestrictionMode",
    "Prediction",
    "VarianceRun",
    "ProgressionAccumulator",
    "delta_sq_progression",
    "theorem3_prediction",
    "theorem3_refined_prediction",
    "theorem3_coupled_prediction",
    "accumulate_modulus",
    "variance_sum",
    "vaughan_prediction",
    "theorem5_prediction",
    "theorem4_prediction",
    "bdh_variance",
]


class Mode(enum.Enum):
    ALL = "all"
    COPRIME = "coprime"
    SHIFT_COPRIME = "shift_coprime"
    BDH = "bdh"


class Weight(enum.Enum):
    THETA = "theta"
    PSI = "psi"


@dataclass(frozen=True)
class RestrictionMode:
    mode: Mode
    N: int = 0

    def __post_init__(self) -> None:
        if self.mode is Mode.SHIFT_COPRIME and self.N < 1:
            raise ValueError("SHIFT_COPRIME requires N >= 1")
        if self.N >= 2**63:
            raise ValueError(f"N must be below 2^63, the int64 range of the band kernels, got {self.N}")

    @property
    def shift(self) -> int | None:
        """The classes b mod d kept are those with gcd(shift - b, d) = 1; None keeps all."""
        if self.mode is Mode.ALL:
            return None
        return self.N if self.mode is Mode.SHIFT_COPRIME else 0


@dataclass(frozen=True)
class Prediction:
    """Named main-term breakdown, its total, and a printed error budget."""

    terms: dict[str, float]
    total: float
    error_budget: str


@dataclass
class VarianceRun:
    """One completed variance experiment with its prediction attached."""

    x: int
    q: int
    q_low: float
    r: float
    mode: Mode
    n_shift: int
    weight: Weight
    empirical: float
    predicted_total: float | None = None
    predicted_terms: dict[str, float] = field(default_factory=dict)
    relative_deviation: float | None = None
    relative_deviation_main: float | None = None
    error_budget: str = ""
    wall_time_ms: float = 0.0
    # The signed e = 1 part of a lag-route band, the ALL band of the same
    # residual bit for bit; None on the bucket route and for BDH.
    all_part: float | None = None
    # The math.fsum of the signed parts e > 1 of a lag-route restricted band,
    # the classes the restriction drops; None for ALL, BDH and the bucket route.
    excluded_part: float | None = None

    @property
    def modulus_range(self) -> tuple[float, int]:
        return (self.q_low, self.q)


@dataclass
class ProgressionAccumulator:
    """Per-residue bucket sums for one modulus: weights and model values."""

    d: int
    theta_buckets: np.ndarray
    rho_buckets: np.ndarray


def _pairwise(leaf: Callable[[int, int], float], lo: int, n: int) -> float:
    """numpy's pairwise sum of the n entries of an array from lo, given leaf(lo, n), the np.sum of
    the run of n entries from lo, for chunks of at most _BLOCK_ELEMENTS entries, so no caller
    needs the whole array.  leaf is called on consecutive chunks in ascending order.

    numpy sums a contiguous run of n > 128 entries as the pairwise sums of
    its first n2 = n/2 rounded down to a multiple of 8 entries and of the
    rest, and the split depends on n alone, so each chunk taken here is a
    subtree of the tree np.sum builds over all of them.  np.sum of a chunk
    adds its subtree to the identity 0.0, which changes only the sign of a
    zero that every later add to a nonzero sum, or numpy's own 0.0 + sum at
    the root, erases: the result is the np.sum of the whole run bit for bit.
    """
    if n <= max(_BLOCK_ELEMENTS, 128):  # numpy splits no run of at most 128 entries
        return leaf(lo, n)
    n2 = n // 2 - n // 2 % 8
    return _pairwise(leaf, lo, n2) + _pairwise(leaf, lo + n2, n - n2)


def _bucket_sums(w: np.ndarray, x: int, d: int) -> np.ndarray:
    """Column sums of w[0..x] laid out in rows of length d (residue buckets), one per class.

    The row sum takes the full rows as a view of w and adds the short last
    row after them, the order in which the zero-padded layout sums, so no
    x-sized buffer is built per modulus.  numpy adds each column of the
    rows left to right from 0.0.
    """
    full = (x + 1) // d
    sums = w[: full * d].reshape(full, d).sum(axis=0)
    tail = w[full * d : x + 1]
    sums[: len(tail)] += tail
    return sums


def _add_rows(sums: np.ndarray, chunk: np.ndarray, lo: int) -> None:
    """Add the entries lo, lo + 1, ... in chunk to the running column sums of rows of length
    d = len(sums) >= 2, each column in row order, as numpy's row sum adds them; chunk is left as
    it was.

    The rest of the row that lo splits is added first, then the whole rows
    by one row sum whose first row carries the running sums (saved and put
    back, since the chunk is shared), then the start of the row that the
    chunk's end splits.
    """
    d, n = len(sums), len(chunk)
    col = lo % d
    head = min(-lo % d, n)
    sums[col : col + head] += chunk[:head]
    full = (n - head) // d
    if full:
        rows = chunk[head : head + full * d].reshape(full, d)
        first = rows[0].copy()
        rows[0] += sums
        np.sum(rows, axis=0, out=sums)
        rows[0] = first
    done = head + full * d
    sums[: n - done] += chunk[done:]


def _stream_sums(
    tables: ArithTables, x: int, theta: bool, table: np.ndarray, moduli: Sequence[int]
) -> list[np.ndarray]:
    """_bucket_sums of the residual of the weight (theta or psi) less table over [0, x] at all d
    classes of each modulus d, bit for bit, from one pass that derives the residual a chunk at a
    time (_weight) and keeps nothing x-sized.

    The chunks are the leaves of numpy's pairwise tree over [0, x]
    (_pairwise), at most _BLOCK_ELEMENTS entries each, so d = 1, numpy's
    pairwise sum, adds their np.sums up that tree; every d >= 2 adds each
    chunk to its running column sums (_add_rows).
    """
    sums = [np.zeros(d) for d in moduli]
    rows = [s for s in sums if len(s) > 1]
    whole = len(rows) < len(sums)

    def leaf(lo: int, n: int) -> float:
        chunk = _weight(tables, lo + n - 1, theta, lo, model=table)
        for s in rows:
            _add_rows(s, chunk, lo)
        return float(np.sum(chunk)) if whole else 0.0

    total = _pairwise(leaf, 0, x + 1)
    for s in sums:
        if len(s) == 1:
            s[0] = total
    return sums


def _support(tables: ArithTables, x: int, theta: bool) -> tuple[np.ndarray, np.ndarray]:
    """Where the raw weight lives over [0, x]: the primes p <= x and, for psi, the prime powers
    p^k <= x, k >= 2 (none for theta), as two ascending views of the tables' arrays."""
    primes, powers = tables.sieve.primes(), tables.prime_powers
    n_powers = 0 if theta else np.searchsorted(powers, x, side="right")
    return primes[: np.searchsorted(primes, x, side="right")], powers[:n_powers]


def _raw_sums(tables: ArithTables, x: int, d: int, theta: bool) -> np.ndarray:
    """_bucket_sums of the raw weight (theta, or psi = Lambda) over [0, x] at all d classes,
    bit for bit, read from where the weight lives.

    d = 1 is numpy's pairwise sum: theta's over chunks of Lambda
    (_pairwise, no x-sized copy), Lambda's over the stored array.  For
    d >= 2, numpy's row sum adds each column left to right from 0.0; the
    weight is >= 0, and adding +0.0 to a nonnegative total is exact, so
    skipping the zeros changes no bit.  So np.bincount, which adds in input
    order from 0.0, sums the classes p mod d over the support (_support) in
    ascending order, the prime powers merged among the primes.  The support
    goes in blocks of _BLOCK_ELEMENTS primes, and each block's bincount is
    headed by the d running sums, so no array of 8 bytes per prime is built.
    """
    if d == 1:
        if not theta:
            return _bucket_sums(tables.lam, x, 1)

        def leaf(lo: int, n: int) -> float:
            return float(np.sum(_weight(tables, lo + n - 1, True, lo)))

        return np.array([_pairwise(leaf, 0, x + 1)])
    primes, powers = _support(tables, x, theta)
    width = d + min(len(primes), _BLOCK_ELEMENTS) + len(powers)
    idx, weights = np.empty(width, dtype=np.int64), np.empty(width)
    idx[:d] = np.arange(d)
    weights[:d] = 0.0
    done = 0  # the prime powers merged so far
    for lo in range(0, len(primes), _BLOCK_ELEMENTS):
        block = primes[lo : lo + _BLOCK_ELEMENTS]
        last = lo + _BLOCK_ELEMENTS >= len(primes)
        upto = len(powers) if last else int(np.searchsorted(powers, block[-1]))
        n = d + len(block) + upto - done
        pos = idx[d:n]
        pos[: len(block)] = block
        if upto > done:
            pos[len(block) :] = powers[done:upto]
            pos.sort(kind="stable")  # timsort merges the two ascending runs
        done = upto
        np.take(tables.lam, pos, out=weights[d:n], mode="clip")  # clip: an unbuffered take
        np.remainder(pos, d, out=pos)
        weights[:d] = np.bincount(idx[:n], weights=weights[:n], minlength=d)
    return weights[:d].copy()


def _kept_classes(d: int, shift: int, sieve: FactorSieve) -> np.ndarray:
    """The classes b mod d with gcd(shift - b, d) = 1, as a bool mask: each prime p | d strikes b = shift (mod p)."""
    kept = np.ones(d, dtype=bool)
    for p, _ in factorize(d, sieve):
        kept[shift % p :: p] = False
    return kept


def accumulate_modulus(d: int, x: int, cfg: FRConfig, weight: Weight = Weight.THETA) -> ProgressionAccumulator:
    """Bucket the weight and the model table by residue class mod d."""
    if d < 1:
        raise ValueError(f"modulus must be >= 1, got {d}")
    _check_x(x, cfg.tables)
    theta_buckets = _raw_sums(cfg.tables, x, d, weight is Weight.THETA)
    return ProgressionAccumulator(d=d, theta_buckets=theta_buckets, rho_buckets=_bucket_sums(cfg.table(), x, d))


def _class_part(d: int, vals: np.ndarray, x: int, restriction: RestrictionMode, tables: ArithTables) -> float:
    """Modulus d's part of a bucket-route band from the column sums vals of all d classes: the
    sum of the squares of the classes the restriction keeps (_kept_classes), less x/phi(d) for
    BDH, whose sums are of the raw weight."""
    if restriction.shift is not None:
        vals = vals[_kept_classes(d, restriction.shift, tables.sieve)]
    if restriction.mode is Mode.BDH:
        vals = vals - x / float(tables.phi[d])
    return float((vals * vals).sum())


def _bucket_band_sum(
    moduli: range,
    x: int,
    sums: Callable[[int], np.ndarray],
    restriction: RestrictionMode,
    tables: ArithTables,
    threads: int,
) -> float:
    """The band one modulus at a time, over threads >= 1 workers (_thread_count): an O(x) bucket
    pass per d, sums(d), which gives the column sums of all d classes (_class_part)."""

    def contribution(d: int) -> float:
        return _class_part(d, sums(d), x, restriction, tables)

    if threads <= 1 or len(moduli) < 2:
        contribs = [contribution(d) for d in moduli]
    else:
        with ThreadPoolExecutor(max_workers=threads) as ex:
            contribs = list(ex.map(contribution, moduli))
    # fsum is exactly rounded, so the reduction order cannot matter; contribs
    # are nevertheless kept in ascending-d order.
    return math.fsum(contribs)


def _passes(moduli: list[int], budget: int) -> Iterator[list[int]]:
    """The moduli in consecutive groups whose d add up to at most budget, or a larger d alone."""
    group: list[int] = []
    for d in moduli:
        if group and sum(group) + d > budget:
            yield group
            group = []
        group.append(d)
    if group:
        yield group


def _fr_band_sum(
    moduli: range, x: int, weight: Weight, restriction: RestrictionMode, cfg: FRConfig, threads: int
) -> float:
    """The bucket-route band of the residual of the weight less cfg's F_R model.

    cfg's _sums keeps the column sums of all d classes of a modulus under
    (x, weight, d), so the band reads the ones it finds and streams the
    residual for the rest (_stream_sums) in passes whose running sums add up
    to at most x + 1 values, the size of the residual; with threads >= 2
    each worker streams the pass for its own share of the moduli.  The new
    sums are held only where they all fit beside what _sums holds, so a band
    evicts nothing another caller left there; once _sums is full, a later
    band streams its moduli again.
    """
    theta, tables = weight is Weight.THETA, cfg.tables
    parts, missing = [], []
    for d in moduli:
        vals = cfg._sums.held((x, weight, d))
        if vals is None:
            missing.append(d)
        else:
            parts.append(_class_part(d, vals, x, restriction, tables))
    hold = cfg._sums.fits(sum(missing))
    stream = functools.partial(_stream_sums, tables, x, theta, cfg.table())
    for group in _passes(missing, x + 1):
        workers = min(threads, len(group))
        if workers > 1:
            with ThreadPoolExecutor(max_workers=workers) as ex:
                shares = list(ex.map(stream, [group[i::workers] for i in range(workers)]))
            built = [shares[i % workers][i // workers] for i in range(len(group))]
        else:
            built = stream(group)
        for d, vals in zip(group, built):
            if hold:
                vals = cfg._sums.get((x, weight, d), lambda vals=vals: vals)
            parts.append(_class_part(d, vals, x, restriction, tables))
    return math.fsum(parts)


# Element budget of one batched block of the lag kernel (rows times FFT size).
# A block's temporaries are a few arrays of 8 or 16 bytes per element, about
# 2 MB here, less than the one-row transform of the whole residual needs at
# x = 10^5.  Its rows fill at most half the FFT size, so _lag_weights counts
# at most _BLOCK_ELEMENTS // 2 cells, about ln(width) multiples per cell.
# The same size bounds _raw_sums' blocks of primes and the chunks of theta
# and of the residual that _pairwise's leaves take (_raw_sums, _stream_sums),
# so none of them builds an array of 8 bytes per prime or per n.
_BLOCK_ELEMENTS = 1 << 16

# Bands wider than this many moduli per log2(x) take the lag route.  Measured
# crossovers on one Xeon core, bands (x/10 - M, x/10], R = 30, with the
# struck masks: ALL at M ~ 90, 248 and 176 for x = 10^4, 10^5 and 10^6,
# COPRIME and SHIFT_COPRIME (N = 2) at M ~ 163-171, 432 and 464,
# i.e. M / log2(x) between 6.8 and 26.0.  The bucket route costs about M
# times a per-modulus pass and the lag route about a fixed amount, so at 7 a
# band just past it costs the lag route at most about 2.1 times the bucket
# route in ALL mode and 3.7 times in the others.  With np.gcd masks COPRIME
# crossed at 1.6-2.9; 7 was chosen then and kept, so no band changes route.
_LAG_MODULI_PER_LOG2_X = 7.0


def _lag_weights(n: np.ndarray, f_lo: np.ndarray, f_hi: np.ndarray, width: int) -> np.ndarray:
    """c[r, j] = #{f_lo[r] < f <= f_hi[r] : f | j} for 1 <= j < n[r], else 0; needs f_lo < n.

    Each (row, f) pair with f_lo < f <= min(f_hi, n - 1) adds 1 at its
    m = (n - 1) // f >= 1 multiples f k.  The pairs lay them out as running
    sums of f, restarted at each pair's first multiple, and one np.bincount
    counts them: a batched block holds at most _BLOCK_ELEMENTS // 2 cells.
    """
    n_f = np.minimum(f_hi, n - 1) - f_lo
    row = np.repeat(np.arange(len(n)), n_f)
    f = np.arange(len(row)) - np.repeat(np.cumsum(n_f) - n_f, n_f) + f_lo[row] + 1
    mult = (n[row] - 1) // f
    first = row * width + f
    steps = np.repeat(f, mult)
    steps[np.cumsum(mult) - mult] = first - np.concatenate(([0], first + f * (mult - 1)))[:-1]
    return np.bincount(np.cumsum(steps), minlength=len(n) * width).reshape(len(n), width)


def _row_weights(n: int, f_lo: int, f_hi: int) -> np.ndarray:
    """c[j] = #{f_lo < f <= f_hi : f | j} for 1 <= j < n, c[0] = 0, by the hyperbola split.

    With s = isqrt(n - 1), each f <= s adds 1 on its slice of multiples; a
    larger f has cofactor k = j / f <= (n - 1) // (s + 1), so each such k
    adds 1 on the slice k f over f_lo, s < f <= min(f_hi, (n - 1) // k).
    About 2 sqrt(n) strided adds; the counts equal _lag_weights'.
    """
    c = np.zeros(n)
    m = n - 1
    s = math.isqrt(m)
    for f in range(f_lo + 1, min(f_hi, s) + 1):
        c[f::f] += 1.0
    f0 = max(f_lo, s) + 1
    for k in range(1, m // f0 + 1):
        f1 = min(f_hi, m // k)
        if f1 >= f0:
            c[k * f0 : k * f1 + 1 : k] += 1.0
    return c


def _smooth_size(m: int) -> int:
    """The least 5-smooth integer >= m >= 1, an FFT length of radix-2, 3 and 5 passes only."""
    best = 1 << (m - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            best = min(best, p35 << (-(-m // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def _autocorrelations(block: np.ndarray, size: int) -> np.ndarray:
    """A[r, j] = sum_i block[r, i] block[r, i + j] for j < block.shape[1].

    One rfft/irfft of length size >= 2 block.shape[1] - 1 along axis 1, so no
    lag wraps around.  The spectrum is freed before the inverse transform,
    which lowers the peak memory of the longest rows.
    """
    spec = np.fft.rfft(block, size, axis=1)
    power = spec.real * spec.real + spec.imag * spec.imag
    del spec
    return np.fft.irfft(power, size, axis=1)[:, : block.shape[1]]


def _lag_rows(
    a: np.ndarray,
    start: np.ndarray,
    step: np.ndarray,
    n: np.ndarray,
    f_lo: np.ndarray,
    f_hi: np.ndarray,
    size: int,
) -> np.ndarray:
    """(f_hi - f_lo) A(0) + 2 sum_{j >= 1} c(j) A(j) for each row a[start :: step] of length n.

    A(0) is the pairwise sum of the row's squares; the other lags come from
    one batched FFT of length size, weighted in place.  A row alone takes its
    weights from _row_weights, a batch from _lag_weights.
    """
    if len(n) == 1:
        block = a[int(start[0]) :: int(step[0])][None, :]
        weights = _row_weights(int(n[0]), int(f_lo[0]), int(f_hi[0]))
    else:
        width = int(n.max())
        i = np.arange(width)
        block = a[np.minimum(start[:, None] + step[:, None] * i, len(a) - 1)]
        block *= i < n[:, None]  # zero each row past its own length
        weights = _lag_weights(n, f_lo, f_hi, width)
    zero_lag = np.sum(block * block, axis=1)
    acf = _autocorrelations(block, size)
    acf *= weights
    return (f_hi - f_lo) * zero_lag + 2.0 * np.sum(acf, axis=1)


# A lone row's key (start, e, f_lo, f_hi) and its builder, to its unsigned part as a 1-element array.
_LoneRows = Callable[[tuple[int, int, int, int], Callable[[], np.ndarray]], np.ndarray]


def _lag_band_rows(
    a: np.ndarray, lo: int, hi: int, shift: int | None, mu: np.ndarray, lone: _LoneRows | None = None
) -> list[np.ndarray]:
    """mu(e) times the all-class band floor(lo/e) < f <= floor(hi/e) of each row a[shift mod e :: e].

    shift None takes the row e = 1 alone (every class); any other shift the
    squarefree e <= hi, the terms of a Moebius ladder:
    [gcd(shift - b, d) = 1] = sum_{e | shift - b, e | d} mu(e), and with
    d = e f the classes b = shift (mod e) of d are the classes of f on the
    row.  The classes of f pair every m with every m' = m (mod f), so a
    row's band is (f_hi - f_lo) A(0) + 2 sum_{j >= 1} c(j) A(j), with A its
    autocorrelation and c(j) = #{f_lo < f <= f_hi : f | j}.  Rows with
    f_lo = f_hi add nothing and are dropped.  The rows are batched by FFT
    size 2^k into blocks of at most _BLOCK_ELEMENTS, one rfft/irfft per
    block; a row alone in its block takes the least 5-smooth size instead.
    Every row of FFT size >= _BLOCK_ELEMENTS is alone, and so is e = 1,
    the longest row, which is the last block.  A lone row's part is one
    float fixed by a and its key (start, e, f_lo, f_hi), so lone, when
    given, may hand out a part it holds (an F_R config keeps them per x and
    weight in _sums) instead of transforming the row again; a batched row is
    always computed.  Returns one array of signed parts per block, in row
    order.
    """
    x = len(a) - 1
    e = np.array([1]) if shift is None else np.flatnonzero(mu[1 : hi + 1]) + 1
    e = e[hi // e > lo // e]
    f_lo, f_hi = lo // e, hi // e
    start = (shift or 0) % e
    n = (x - start) // e + 1
    bits = np.frexp(2 * n - 1)[1]  # (2 n - 1).bit_length(): FFT size 1 << bits >= 2 n, at least 2
    parts = []
    for k in range(int(bits.max()) + 1):
        group = np.flatnonzero(bits == k)
        per_block = max(1, _BLOCK_ELEMENTS >> k)
        for b in range(0, len(group), per_block):
            r = group[b : b + per_block]
            if len(r) > 1:
                part = _lag_rows(a, start[r], e[r], n[r], f_lo[r], f_hi[r], 1 << k)
            else:
                size = _smooth_size(2 * int(n[r[0]]) - 1)
                build = functools.partial(_lag_rows, a, start[r], e[r], n[r], f_lo[r], f_hi[r], size)
                row = tuple(int(v[r[0]]) for v in (start, e, f_lo, f_hi))
                part = build() if lone is None else lone(row, build)
            parts.append(mu[e[r]] * part)
    return parts


def _coprime_first_moments(w: np.ndarray, q: int, tables: ArithTables) -> np.ndarray:
    """F(d) = sum of w[n] over n coprime to d, at index d <= q, for w carried by prime powers.

    The n that meet d are the powers of the primes p | d, so
    F(d) = sum w - sum_{p | d} sum_k w[p^k], with the p | d read from the
    tables' primes.  sum w is the exactly rounded sum of w at the primes
    and the prime powers p^k <= x, k >= 2, the only n where w can be
    nonzero, gathered _SUM_BLOCK of them at a time (_exact_sum), so no
    x-sized mask and no array of 8 bytes per prime is built.  A prime
    above sqrt(x) has no higher power, and d <= q has at most one prime
    factor above sqrt(q): the p <= sqrt(q) subtract one slice each, then
    each cofactor k gathers the d = k p with p above sqrt(q), so every d
    subtracts its primes in ascending order.
    """
    x = len(w) - 1
    primes, powers = _support(tables, x, False)
    cuts = [n[lo : lo + _SUM_BLOCK] for n in (primes, powers) for lo in range(0, len(n), _SUM_BLOCK)]
    first = np.full(q + 1, _exact_sum(lambda: (w[n] for n in cuts)))
    p = primes[: np.searchsorted(primes, q, side="right")]
    sub = w[p]
    for i, pi in enumerate(p[: np.searchsorted(p, math.isqrt(x), side="right")].tolist()):
        powers = []
        pk = pi
        while pk <= x:
            powers.append(w[pk])
            pk *= pi
        sub[i] = math.fsum(powers)
    small = int(np.searchsorted(p, math.isqrt(q), side="right"))
    for pi, s in zip(p[:small].tolist(), sub[:small]):
        first[pi::pi] -= s
    big, big_sub = p[small:], sub[small:]
    for k in range(1, q // (math.isqrt(q) + 1) + 1):
        m = np.searchsorted(big, q // k, side="right")
        first[k * big[:m]] -= big_sub[:m]
    return first


def _lag_band_bdh(a: np.ndarray, lo: int, hi: int, tables: ArithTables) -> float:
    """The BDH band of the raw weight a, carried by the prime powers, on the lag route.

    On the coprime ladder the row a[0 :: e] is zero for a composite
    squarefree e, so only e = 1 takes the kernel.  A prime p's row holds
    a[p^k] at index p^(k - 1), k = 1 .. K, and adds
    mu(p) sum_{i, j} c(|p^(i - 1) - p^(j - 1)|) a[p^i] a[p^j], where
    c(m) = #{lo//p < f <= hi//p : f | m} and c(0) = hi//p - lo//p, summed
    exactly term by term.  A prime above sqrt(x) has K = 1, and all of them
    take one vectorised step; each p <= sqrt(x) walks its powers and sums
    the pairs of its nonzero entries (for theta, a[p] alone), with c(m)
    read off divisors(m).  The phi(d) reduced classes then give
    sum (S_b - x/phi(d))^2 = coprime second moment - 2 (x/phi(d)) F(d) + x^2/phi(d).
    """
    x = len(a) - 1
    primes = tables.sieve.primes()
    p = primes[: np.searchsorted(primes, hi, side="right")]
    small = int(np.searchsorted(p, math.isqrt(x), side="right"))
    big = p[small:]
    parts = _lag_band_rows(a, lo, hi, None, tables.mu)
    parts.append(tables.mu[big] * (hi // big - lo // big) * (a[big] * a[big]))
    terms = []
    for pi in p[:small].tolist():
        f_lo, f_hi = lo // pi, hi // pi
        pk = [pi]
        while pk[-1] * pi <= x:
            pk.append(pk[-1] * pi)
        row = [(q // pi, a[q]) for q in pk if a[q]]  # (index p^(k - 1), a[p^k]), ascending
        for j, (n, v) in enumerate(row):
            for m, u in row[: j + 1]:
                c = f_hi - f_lo if m == n else sum(f_lo < f <= f_hi for f in divisors(n - m, tables.sieve))
                terms.append(-(1 + (m < n)) * c * (u * v))  # mu(p) = -1; m < n stands for both orders
    parts.append(np.array(terms))
    band = math.fsum(np.concatenate(parts))
    first = _coprime_first_moments(a, hi, tables)[lo + 1 :]
    terms = x / tables.phi[lo + 1 : hi + 1].astype(np.float64)  # x / phi(d)
    terms *= x - 2.0 * first
    return math.fsum((band, _exact_sum(lambda: (terms,))))


def _lag_band_sum(
    moduli: range,
    x: int,
    diff: np.ndarray,
    restriction: RestrictionMode,
    tables: ArithTables,
    lone: _LoneRows | None = None,
) -> tuple[float, float | None, float | None]:
    """The band by the batched lag kernel, its signed e = 1 part and the fsum of its parts
    e > 1; single threaded.

    The e = 1 part, alone in the last block, is the ALL band of diff bit for
    bit; a band of all classes has no part e > 1 (None), and BDH reports
    neither part.  lone goes to _lag_band_rows.
    """
    lo, hi = moduli.start - 1, moduli.stop - 1
    a = diff[: x + 1]
    if restriction.mode is Mode.BDH:  # a holds the raw weight
        return _lag_band_bdh(a, lo, hi, tables), None, None
    parts = _lag_band_rows(a, lo, hi, restriction.shift, tables.mu, lone)
    excluded = None if restriction.shift is None else math.fsum(np.concatenate(parts[:-1]))
    return math.fsum(np.concatenate(parts)), float(parts[-1][0]), excluded


def _lag_route(n_moduli: int, x: int) -> bool:
    """Whether the band of n_moduli moduli at length x goes to the lag kernel.

    The bucket route costs about n_moduli * x, the lag route about x log x.
    """
    return n_moduli > _LAG_MODULI_PER_LOG2_X * math.log2(x)


def _check_band(x: int, q: int, q_low: float = 0.0) -> None:
    """The band Q_low < d <= Q: 1 <= Q <= x and 0 <= Q_low < Q."""
    if not 1 <= q <= x:
        raise ValueError(f"Q must satisfy 1 <= Q <= x, got Q = {q}, x = {x}")
    if not 0 <= q_low < q:
        raise ValueError(f"Q_low must satisfy 0 <= Q_low < Q, got Q_low = {q_low}, Q = {q}")


def _thread_count(threads: int) -> int:
    """The worker threads of a bucket-route band: threads, an integer >= 0, with 0 meaning one per core."""
    if not isinstance(threads, numbers.Integral) or threads < 0:
        raise ValueError(f"threads must be an integer >= 0, got {threads!r}")
    return threads or os.cpu_count() or 1


def _band_run(
    x: int,
    q: int,
    q_low: float,
    restriction: RestrictionMode,
    weight: Weight,
    threads: int,
    tables: ArithTables,
    cfg: FRConfig | None = None,
) -> VarianceRun:
    """The band Q_low < d <= Q of the weight less cfg's F_R model, or of the raw weight with no cfg (BDH).

    Every bound is checked before the residual is read; the band width
    picks the route (_lag_route), and the timer covers the residual and the
    band.  On the bucket route a band on cfg streams the residual a chunk
    at a time and reads or holds the class sums of each modulus in cfg's
    _sums (_fr_band_sum), so the restricted bands select their classes from
    the sums ALL built; BDH sums its raw weight over the primes
    (_raw_sums).  The lag route, whose transform takes the whole row,
    derives the residual (or BDH's raw weight) over [0, x] for the band
    alone, and cfg's _sums keeps each lone row's part under the key (x,
    weight, start, e, f_lo, f_hi), so a later band on cfg reads it: ALL's
    one row is row e = 1 of every restricted band on the same band.
    """
    _check_x(x, tables)
    _check_band(x, q, q_low)
    threads = _thread_count(threads)
    theta = weight is Weight.THETA
    moduli = range(int(math.floor(q_low)) + 1, q + 1)
    lag = _lag_route(len(moduli), x)
    t0 = time.perf_counter()
    all_part = excluded_part = None
    if lag:
        diff = _weight(tables, x, theta, model=None if cfg is None else cfg.table())
        lone = None if cfg is None else lambda row, build: cfg._sums.get((x, weight, *row), build)
        empirical, all_part, excluded_part = _lag_band_sum(moduli, x, diff, restriction, tables, lone)
    elif cfg is None:
        sums = functools.partial(_raw_sums, tables, x, theta=theta)
        empirical = _bucket_band_sum(moduli, x, sums, restriction, tables, threads)
    else:
        empirical = _fr_band_sum(moduli, x, weight, restriction, cfg, threads)
    return VarianceRun(
        x=x,
        q=q,
        q_low=q_low,
        r=0.0 if cfg is None else cfg.R,
        mode=restriction.mode,
        n_shift=restriction.N,
        weight=weight,
        empirical=empirical,
        all_part=all_part,
        excluded_part=excluded_part,
        wall_time_ms=(time.perf_counter() - t0) * 1e3,
    )


def variance_sum(
    x: int,
    q: int,
    cfg: FRConfig,
    restriction: RestrictionMode,
    weight: Weight = Weight.THETA,
    q_low: float = 0.0,
    threads: int = 0,
    constants: ConstantSet | None = None,
) -> VarianceRun:
    """Banded variance over moduli Q_low < d <= Q against the F_R model.

    With constants supplied, the main-term prediction of the restriction's
    shift (None: all classes) is attached, scaled to the band by (Q - Q_low).
    """
    if restriction.mode is Mode.BDH:
        raise ValueError("BDH mode is served by bdh_variance")
    run = _band_run(x, q, q_low, restriction, weight, threads, cfg.tables, cfg)
    if constants is not None:
        if restriction.shift is None:
            pred = vaughan_prediction(x, q, cfg.R, constants, q_low=q_low)
        else:
            pred = _restricted_prediction(x, q, restriction.shift, cfg.R, constants, q_low)
        _attach_prediction(run, pred)
    return run


def _attach_prediction(run: VarianceRun, pred: Prediction) -> None:
    run.predicted_total = pred.total
    run.predicted_terms = dict(pred.terms)
    run.error_budget = pred.error_budget
    if pred.total != 0.0:
        run.relative_deviation = (run.empirical - pred.total) / pred.total
    main = pred.terms.get("log_term", pred.terms.get("leading"))
    if main:
        run.relative_deviation_main = (run.empirical - main) / main


# Rows per block of the residual square's column sums: each column adds at
# most this many rows naively before the block sums are added pairwise.  A
# class of at most this many terms is summed where it lies instead.
_BLOCK_ROWS = 64

# Floats of the one buffer that the column sums square the residual into, a
# chunk of whole blocks of rows at a time (512 KB, within an L2 cache; at
# x = 10^6 the 12 passes of the squarefree v <= 60 took 0.022 s against
# 0.024 s at 2^17 and 0.025 s at 2^15), or of one row where a row is longer.
_SQUARE_ELEMENTS = 1 << 16


def _row_length(x: int, v: int) -> int:
    """The row length m, a multiple of the squarefree v <= x, whose column sums serve v.

    m = _PRIMORIAL (30030) when v | 30030, else lcm(v, 6), so that one pass
    serves the squarefree v <= 60 in 12 row lengths: 30030 and 6p for
    17 <= p <= 59.
    An m past x + 1 gives way to m = v.
    """
    m = _PRIMORIAL if _PRIMORIAL % v == 0 else math.lcm(v, 6)
    return m if m <= x + 1 else v


def _column_sums(x: int, m: int, cfg: FRConfig) -> np.ndarray:
    """Column sums of the residual square (Lambda(n) - F_R(n))^2 over [0, x] laid out in rows of
    length m <= x + 1, summed in blocks of rows.

    Each block of _BLOCK_ROWS full rows, and the leftover full rows as one
    more block, is summed naively; the k block sums of each column are then
    added by numpy's pairwise sum along a contiguous axis, and the short last
    row after them.  A term so meets at most 63 roundings in its block,
    ceil(log2 k) + 26 in numpy's pairwise sum (its unrolled base case takes
    up to 25, and a reduce adds its first element apart) and one for the
    last row.  Every pass reads the residual contiguously, where one strided
    pass per column costs a cache line per element once 8 m bytes span a
    line.

    Neither the residual nor its square is built whole: each chunk of
    Lambda less the F_R table is taken and squared in one reused buffer of
    _SQUARE_ELEMENTS floats.  A chunk holds as many whole blocks as fit,
    each summed as numpy sums the whole square's (a (k, 64, m) reduction
    over its rows); a block wider than the buffer is summed in groups of
    rows, each group's first row carrying the running sums of the rows
    before it, the adds numpy's row sum makes.
    """
    table, lam = cfg.table(), cfg.tables.lam

    def square(lo: int, hi: int, out: np.ndarray) -> np.ndarray:
        """The residual square over [lo, hi) in out[: hi - lo]."""
        out = np.subtract(lam[lo:hi], table[lo:hi], out=out[: hi - lo])
        return np.multiply(out, out, out=out)

    full = (x + 1) // m
    whole = full // _BLOCK_ROWS
    blocks = np.empty((whole + (whole * _BLOCK_ROWS < full), m))
    buf = np.empty(max(_SQUARE_ELEMENTS, m))
    span = _BLOCK_ROWS * m
    per = _SQUARE_ELEMENTS // span  # whole blocks per chunk
    if per:
        for b in range(0, whole, per):
            e = min(b + per, whole)
            np.sum(square(b * span, e * span, buf).reshape(e - b, _BLOCK_ROWS, m), axis=1, out=blocks[b:e])
        if whole < len(blocks):
            np.sum(square(whole * span, full * m, buf).reshape(-1, m), axis=0, out=blocks[whole])
    else:
        group = max(1, _SQUARE_ELEMENTS // m)  # rows per chunk
        for b in range(len(blocks)):
            first, stop = b * _BLOCK_ROWS, min((b + 1) * _BLOCK_ROWS, full)
            for lo in range(first, stop, group):
                rows = square(lo * m, min(lo + group, stop) * m, buf).reshape(-1, m)
                if lo > first:
                    rows[0] += blocks[b]
                np.sum(rows, axis=0, out=blocks[b])
    buf = rows = None  # the buffer goes before the pairwise pass over the blocks
    sums = np.ascontiguousarray(blocks.T).sum(axis=1)
    tail = square(full * m, x + 1, np.empty(x + 1 - full * m))
    sums[: len(tail)] += tail
    return sums


def delta_sq_progression(x: int, v: int, N: int, cfg: FRConfig) -> float:
    """Sum of (Lambda(n) - F_R(n))^2 over n <= x, n = N (mod v).

    A class of at most _BLOCK_ROWS terms (x < _BLOCK_ROWS v) takes its x/v
    residuals from Lambda (_weight) and the config's F_R table, or, while
    that is unbuilt, F_R at its own points (_fr_at, the table's entries bit
    for bit); it squares them and returns their np.sum: it builds neither
    the F_R table nor any residual and adds no cache entry, and in any
    order each of its n <= 64 terms meets at most n - 1 roundings.  Any
    other class reads the column sums of the row length
    m = _row_length(x, v), a multiple of v, from the blocked pass over the
    residual square, a chunk at a time (_column_sums), and returns the
    pairwise np.sum of its m/v columns N mod v, N mod v + v, ...:
    the config keeps the m sums per (x, m), so all moduli that share a row
    length cost one blocked pass, and a term meets at most
    64 + log2(k) + log2(m/v) + 54 roundings, k the blocks of rows
    (_column_sums and the strided sum).  The summation order is fixed, so
    the result is deterministic, and, the terms being nonnegative, it is
    within that many units of 2^-53 of their sum of the math.fsum of the
    same squares.  Either way a square is the square of the psi residual's
    entry.
    """
    start = _class_start(x, v, N, cfg.tables)
    if x < _BLOCK_ROWS * v:
        if cfg._table is None:
            diff = _fr_at(np.arange(start, x + 1, v), cfg)
            np.subtract(_weight(cfg.tables, x, False, start, v), diff, out=diff)
        else:
            diff = _weight(cfg.tables, x, False, start, v, cfg._table)
        return float(np.multiply(diff, diff, out=diff).sum())
    m = _row_length(x, v)
    rows = cfg._sums.get((x, m), lambda: _column_sums(x, m, cfg))
    return float(rows[N % v :: v].sum())


def _check_theorem3_args(x: int, v: int, R: float) -> list[int]:
    """Check the theorem-3 arguments; return the primes of the squarefree v, ascending.

    v is bounded by x before it is factored once, by trial division, and a
    square factor is an error: every theorem-3 form sums over the squarefree
    divisors of v.  R goes through _check_r with no table limit, since the
    closed forms read none.
    """
    if x < 2:
        raise ValueError(f"x must be >= 2, got {x}")
    if not 1 <= v <= x:
        raise ValueError(f"v must satisfy 1 <= v <= x, got v = {v}, x = {x}")
    _check_r(R)
    primes, m = [], v
    for p in range(2, math.isqrt(v) + 1):
        if m % p == 0:
            m //= p
            if m % p == 0:
                raise ValueError(f"v must be squarefree, got {v}")
            primes.append(p)
    return primes + [m] if m > 1 else primes


# Moduli whose theorem-3 records (_theorem3_modulus, one per (x, v, R)) are
# kept: the forms' work that does not depend on the class N.  The refined
# form's G_v values are kept by its FRConfig (frmodel._G_CACHE).
_MODULUS_CACHE = 128


@functools.lru_cache(maxsize=_MODULUS_CACHE, typed=True)
def _theorem3_modulus(
    x: int, v: int, R: float
) -> tuple[tuple[int, ...], int, str, str, tuple[int, ...], tuple[tuple[int, int, int], ...]]:
    """The theorem-3 forms' record of v: (primes, phi(v), budget, budget without the
    phi(v) term, divisors, pairs).

    The arguments are checked and v factored by _check_theorem3_args, and
    phi(v), the budgets, the divisors and their pairs derived from the
    primes, once per (x, v, R) rather than once per class.  Each prime p
    appends a*p for every divisor a listed so far, the order in which
    _crt_class_mean multiplies up the weights w_a; tau(v) is the number of
    divisors.  For each ordered pair of divisors, row by row as
    _crt_class_mean takes its products, the pairs hold the triple (i, j, k)
    with a_k = max(a_i, a_j).  lru_cache keeps no exception, so a bad
    argument raises on every call; typed keys keep a float v from reaching a
    cached int one.
    """
    primes = tuple(_check_theorem3_args(x, v, R))
    phi_v = math.prod(p - 1 for p in primes)
    divs = [1]
    for p in primes:
        divs += [a * p for a in divs]
    at = {a: k for k, a in enumerate(divs)}
    pairs = tuple((i, j, at[max(a, a1)]) for i, a in enumerate(divs) for j, a1 in enumerate(divs))
    budgets = [_theorem3_budget(x, v, phi_v, len(divs), R, phi_term) for phi_term in (True, False)]
    return primes, phi_v, *budgets, tuple(divs), pairs


def theorem3_prediction(x: int, v: int, N: int, R: float, constants: ConstantSet) -> Prediction:
    """Closed form for the progression-restricted second moment, coupled pairs dropped.

    delta(N, v) * (x/phi(v)) (log x - 2 log R - c1) + (x/v)(log R + c2)
    + delta(N, v) * x v / phi(v)^2 - x/phi(v), for squarefree v.

    This form keeps only the expansion pairs (r, r1) whose coupling through v
    is trivial.  For v > 1 the pairs r = a*b, r1 = a1*b with a, a1 | v also
    survive averaging over the class and contribute at order x log R / v, so
    at x = 10^6, R = 50 the total is off the brute-force moment by up to 0.25
    of x log x / v.  It is kept frozen for comparison (the CLI theorem3
    command reports it as predicted_total); theorem3_coupled_prediction is the
    closed form that keeps the coupled pairs (predicted_coupled).  The checks,
    phi(v) and the budget come from _theorem3_modulus, once per (x, v, R).
    """
    _, phi_v, budget, *_ = _theorem3_modulus(x, v, R)
    ind = delta_indicator(N, v)
    lx, lr = math.log(x), math.log(R)
    terms = {
        "delta_main": ind * (x / phi_v) * (lx - 2.0 * lr - constants.c1),
        "r_term": (x / v) * (lr + constants.c2),
        "phi2_term": ind * x * v / (phi_v * phi_v),
        "neg_term": -x / phi_v,
    }
    return Prediction(terms=terms, total=math.fsum(terms.values()), error_budget=budget)


def _theorem3_budget(x: int, v: int, phi_v: int, tau_v: int, R: float, phi_term: bool) -> str:
    """The theorem-3 O-terms at these parameters for the squarefree v with phi(v) = phi_v and
    tau(v) = tau_v; phi_term False leaves out x/(phi(v)*sqrt(R)), which
    theorem3_refined_prediction's budget does not carry."""
    terms = [f"x*tau(v)/(v*sqrt(R)) = {x * tau_v / (v * math.sqrt(R)):.3e}"]
    if phi_term:
        terms.append(f"x/(phi(v)*sqrt(R)) = {x / (phi_v * math.sqrt(R)):.3e}")
    terms += [
        f"R^2*log(R) = {R * R * math.log(R):.3e}",
        f"tau(v)*R = {tau_v * R:.3e}",
        "x*exp(-c*sqrt(log x)) with ineffective c",
    ]
    return "O-terms at these parameters: " + "; ".join(terms)


def theorem3_refined_prediction(
    x: int, v: int, N: int, cfg: FRConfig, constants: ConstantSet
) -> Prediction:
    """Diagnostic variant of theorem3_prediction with the exact model mean square.

    The closed form in theorem3_prediction replaces the mean of F_R(n)^2 on the
    class n = N (mod v) by (log R + c2)/v + delta(N, v) * v/phi(v)^2, which keeps
    only expansion pairs (r, r1) whose coupling through v is trivial.  For v > 1
    the coupled pairs (r = g*s, r1 = g*s1 with s, s1 | v) contribute at the same
    order, so here that mean is computed exactly and only the cross and
    squared-Lambda terms keep their closed forms.  The mean is the CRT class
    mean M (_crt_class_mean) with the exact, table-backed G_v(R/a) for the
    divisors a | v, and G_1(R) for the cross sum, read from the config's
    bounded lookup cfg._coprime_g, which computes each value once while it
    is kept; so a class pays only for its weights and the tau(v)^2
    products.  The pair sweep fr_square_progression_mean computes the same
    mean independently and is the oracle the tests hold it to.  The closed
    form that keeps the coupled pairs, with no tables, is
    theorem3_coupled_prediction.
    """
    primes, phi_v, _, budget, divs, pairs = _theorem3_modulus(x, v, cfg.R)
    g = cfg._coprime_g
    cross_sum = g(cfg.R, 1)  # asked for before the G_v(R/a), so those are the lookup's newest
    mean = _crt_class_mean(primes, divs, pairs, N, cfg.R, lambda y: g(y, v))
    return _crt_mean_prediction(x, v, phi_v, N, cross_sum, mean, budget)


def _crt_mean_prediction(x: int, v: int, phi_v: int, N: int, cross_sum: float, mean: float, budget: str) -> Prediction:
    """The three theorem-3 terms around the CRT class mean M = mean (_crt_class_mean) of the
    squarefree v with phi(v) = phi_v; cross_sum stands for sum_{r <= R} mu(r)^2/phi(r) in the
    cross term."""
    ind = delta_indicator(N, v)
    terms = {
        "lambda_sq_term": ind * (x / phi_v) * (math.log(x) - 1.0),
        "cross_term": -2.0 * ind * (x / phi_v) * cross_sum,
        "mean_sq_term": (x / v) * mean,
    }
    return Prediction(terms=terms, total=math.fsum(terms.values()), error_budget=budget)


def _crt_class_mean(
    primes: Sequence[int], divs: Sequence[int], pairs: Sequence[tuple[int, int, int]],
    N: int, R: float, g: Callable[[float], float]
) -> float:
    """Class mean of F_R(n)^2 on n = N (mod v) by the CRT split of each modulus, v given by its
    primes, its divisors and their pairs (_theorem3_modulus).

    Writing r = a*b with a = gcd(r, v) and b coprime to v gives
    C_r(n) = C_a(N) C_b(n) on the class, and C_b, C_b1 average to
    [b = b1] phi(b) there, so the pair sweep of fr_square_progression_mean
    collapses to

        sum_{a, a1 | v} w_a w_a1 G_v(R / max(a, a1)),
        w_a = mu(a) C_a(N) / phi(a),

    over squarefree a, a1, with G_v(y) = sum_{b <= y, (b, v) = 1}
    mu(b)^2/phi(b) supplied as g(y) and taken as 0 for y < 1.  g is called
    once per divisor a <= R, i.e. up to tau(v) times for squarefree v; the
    theorem-3 forms pass a lookup of values computed once per v.  The
    divisors and the index of max(a, a1) for each pair are v's record, made
    once per v, so a call builds only the weights and the tau(v)^2 products.
    F_R sums over squarefree moduli only, so the class mean for v is the one
    for the product of its primes.
    """
    g_at = [g(R / a) if R / a >= 1.0 else None for a in divs]
    # w_a is multiplicative in a: its factor at p is -1 when p | N
    # (C_p(N) = p - 1) and 1/(p - 1) otherwise (C_p(N) = -1)
    w = [1.0]
    for p in primes:
        w_p = -1.0 if N % p == 0 else 1.0 / (p - 1)
        w += [w_a * w_p for w_a in w]
    return math.fsum([w[i] * w[j] * g_at[k] for i, j, k in pairs if g_at[k] is not None])


def _coprime_mu2_over_phi_main_terms(primes: Sequence[int], c2: float) -> Callable[[float], float]:
    """y -> (phi(v)/v)(log y + c2 + sum_{p | v} log p / p), the main terms of G_v(y), v given by its primes."""
    density = math.prod((p - 1) / p for p in primes)
    log_sum = math.fsum(math.log(p) / p for p in primes)
    return lambda y: density * (math.log(y) + c2 + log_sum)


def theorem3_coupled_prediction(
    x: int, v: int, N: int, R: float, constants: ConstantSet
) -> Prediction:
    """Closed form for the progression-restricted second moment with the coupled pairs kept.

    delta(N, v) (x/phi(v)) (log x - 1) - 2 delta(N, v) (x/phi(v)) (log R + c2)
    + (x/v) M, where M is the CRT class mean of F_R(n)^2 (_crt_class_mean)
    with G_v(y) replaced by (phi(v)/v)(log y + c2 + sum_{p | v} log p / p).
    Costs O(tau(v)^2) and needs no tables.  At v = 1 it collapses to
    x (log(x/R) - c0), like theorem3_prediction.  The checks, phi(v), the
    divisors, their pairs and the budget come from _theorem3_modulus, once
    per (x, v, R).
    """
    primes, phi_v, budget, _, divs, pairs = _theorem3_modulus(x, v, R)
    c2 = constants.c2
    mean = _crt_class_mean(primes, divs, pairs, N, R, _coprime_mu2_over_phi_main_terms(primes, c2))
    return _crt_mean_prediction(x, v, phi_v, N, math.log(R) + c2, mean, budget)


def _band_budget(x: int, q: int, R: float) -> str:
    return (
        "O-terms at these parameters: "
        f"Q*x/sqrt(R) = {q * x / math.sqrt(R):.3e}; "
        f"x^2*(log x)^2/R = {x * x * math.log(x) ** 2 / R:.3e}"
    )


def vaughan_prediction(
    x: int, q: int, R: float, constants: ConstantSet, q_low: float = 0.0
) -> Prediction:
    """All-residue main terms: (Q - Q_low) x log(x/R) - c0 (Q - Q_low) x."""
    qe = float(q) - float(q_low)
    terms = {
        "log_term": qe * x * math.log(x / R),
        "const_term": -constants.c0 * qe * x,
    }
    return Prediction(terms=terms, total=math.fsum(terms.values()), error_budget=_band_budget(x, q, R))


def _restricted_prediction(
    x: int, q: int, shift: int, R: float, constants: ConstantSet, q_low: float
) -> Prediction:
    """Main terms on the classes gcd(shift - b, d) = 1: theorem5 at shift 0, theorem4 at N.

    P_PM1 and P_SQ run over the primes p not| shift; every prime divides 0, so
    at shift 0 both are empty (1.0) and carry no truncation error.
    """
    cut = constants.prime_cutoff
    pzeta = restricted_product(ProductKind.P_ZETA, 1, cut).value
    pm1_1 = restricted_product(ProductKind.P_PM1, 1, cut).value
    budget = _band_budget(x, q, R)
    if shift == 0:
        pm1_n = psq_n = 1.0
    else:
        pm1_n = restricted_product(ProductKind.P_PM1, shift, cut).value
        psq_n = restricted_product(ProductKind.P_SQ, shift, cut).value
        budget += f"; product truncation (relative) <= {4.0 / cut:.1e}"
    qe = float(q) - float(q_low)
    t_exp = 2.0 - pzeta / pm1_n
    terms = {
        "log_term": qe * x * pm1_n * (math.log(x) - t_exp * math.log(R)),
        "const_term": qe * x * (-pm1_n * constants.c1 + psq_n + pzeta * constants.c2 - pm1_1),
    }
    return Prediction(terms=terms, total=math.fsum(terms.values()), error_budget=budget)


def theorem5_prediction(
    x: int, q: int, R: float, constants: ConstantSet, q_low: float = 0.0
) -> Prediction:
    """Reduced-residue main terms: the shifted form with both restricted products at 1."""
    return _restricted_prediction(x, q, 0, R, constants, q_low)


def theorem4_prediction(
    x: int, q: int, N: int, R: float, constants: ConstantSet, q_low: float = 0.0
) -> Prediction:
    """Shifted-coprime main terms for classes with gcd(N - b, d) = 1.

    The log R coefficient is -P_PM1(N) * t(N) = -(2 P_PM1(N) - P_ZETA) and the
    constant block is -P_PM1(N) c1 + P_SQ(N) + P_ZETA c2 - P_PM1(1).
    """
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    return _restricted_prediction(x, q, N, R, constants, q_low)


def bdh_variance(
    x: int, q: int, tables: ArithTables, threads: int = 0, weight: Weight = Weight.THETA
) -> VarianceRun:
    """Classical variance against x/phi(d) on reduced classes, d <= Q.

    The leading term is Q x log Q; the secondary constant is out of scope, so
    the fitted C = (empirical - Q x log Q)/(Q x) is reported as a diagnostic.
    """
    run = _band_run(x, q, 0.0, RestrictionMode(Mode.BDH), weight, threads, tables)
    leading = q * x * math.log(q) if q > 1 else 0.0
    pred = Prediction(
        terms={"leading": leading, "fitted_C": (run.empirical - leading) / (q * x)},
        total=leading,
        error_budget="secondary constant intentionally unmodeled; fitted_C reported",
    )
    _attach_prediction(run, pred)
    return run
