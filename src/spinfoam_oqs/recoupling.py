"""Exact Wigner 6j symbols over half-integer spins, with memoization.

Spins are stored as doubled integers (``twice_j``) so that admissibility
checks and the Racah sum are exact.  The single-sum Racah formula is
evaluated with arbitrary-precision rationals; the square root of the
triangle-coefficient product is split into an exact rational part and a
squarefree integer using a shared prime-factorized factorial table.  The
float returned is therefore correct to a couple of ulp, and repeated
evaluations are bit-identical.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

import numpy as np

DEFAULT_TWO_J_MAX = 40


class SpinCapacityError(ValueError):
    """Requested spins exceed the capacity of the shared factorial table."""


@dataclass(frozen=True, order=True)
class Spin:
    """Half-integer spin stored losslessly as 2j."""

    twice_j: int

    def __post_init__(self) -> None:
        if not isinstance(self.twice_j, int):
            raise TypeError(f"twice_j must be an int, got {self.twice_j!r}")
        if self.twice_j < 0:
            raise ValueError(f"twice_j must be non-negative, got {self.twice_j}")

    @property
    def j(self) -> Fraction:
        return Fraction(self.twice_j, 2)

    def __float__(self) -> float:
        return self.twice_j / 2.0

    def __str__(self) -> str:
        if self.twice_j % 2 == 0:
            return str(self.twice_j // 2)
        return f"{self.twice_j}/2"

    @staticmethod
    def range(lo: "Spin | float | int | str", hi: "Spin | float | int | str") -> "tuple[Spin, ...]":
        """All spins from lo to hi inclusive in steps of 1/2."""
        a, b = as_spin(lo), as_spin(hi)
        return tuple(Spin(t) for t in range(a.twice_j, b.twice_j + 1))


def as_spin(value) -> Spin:
    """Coerce ints (not bools), exact half-integer floats, fractions and '3/2' strings."""
    if isinstance(value, Spin):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Spin(2 * value)
    if isinstance(value, str):
        if "/" in value:
            num, den = value.split("/")
            frac = Fraction(int(num), int(den))
        else:
            frac = Fraction(value)
        value = frac
    if isinstance(value, Fraction):
        doubled = value * 2
        if doubled.denominator != 1:
            raise ValueError(f"{value} is not a half-integer")
        return Spin(int(doubled))
    if isinstance(value, float):
        doubled = value * 2
        if doubled != int(doubled):
            raise ValueError(f"{value} is not an exact half-integer")
        return Spin(int(doubled))
    raise TypeError(f"cannot interpret {value!r} as a spin")


def triangle_ok(a, b, c) -> bool:
    """Triangle rule: |a-b| <= c <= a+b with integer total spin."""
    ta, tb, tc = as_spin(a).twice_j, as_spin(b).twice_j, as_spin(c).twice_j
    if (ta + tb + tc) % 2 != 0:
        return False
    return abs(ta - tb) <= tc <= ta + tb


def _sieve(n: int) -> list[int]:
    flags = bytearray([1]) * (n + 1)
    flags[:2] = b"\x00\x00"
    for p in range(2, int(n**0.5) + 1):
        if flags[p]:
            flags[p * p :: p] = bytearray(len(flags[p * p :: p]))
    return [p for p in range(n + 1) if flags[p]]


class FactorialTable:
    """Shared table of factorials, plain and as prime-exponent vectors.

    Sized so that every factorial reached by the Racah sum for spins with
    2j <= two_j_max is covered; larger spins raise SpinCapacityError.
    """

    def __init__(self, two_j_max: int = DEFAULT_TWO_J_MAX):
        if two_j_max < 1:
            raise ValueError("two_j_max must be >= 1")
        self.two_j_max = two_j_max
        # Largest factorial argument: t+1 with t <= j1+j2+j4+j5 <= 2*two_j_max.
        self.n_max = 2 * two_j_max + 2
        self.primes = _sieve(self.n_max)
        index = {p: i for i, p in enumerate(self.primes)}
        nprimes = len(self.primes)
        exps = [[0] * nprimes]
        for n in range(1, self.n_max + 1):
            row = exps[-1].copy()
            m = n
            for p in self.primes:
                if p * p > m:
                    break
                while m % p == 0:
                    row[index[p]] += 1
                    m //= p
            if m > 1:
                row[index[m]] += 1
            exps.append(row)
        self._exponents = exps
        facts = [1]
        for n in range(1, self.n_max + 1):
            facts.append(facts[-1] * n)
        self._factorials = facts

    def factorial(self, n: int) -> int:
        return self._factorials[n]

    def exponents(self, n: int) -> list[int]:
        return self._exponents[n]


_table_lock = threading.Lock()
_table = FactorialTable()

_cache: dict[tuple[int, ...], float] = {}  # canonical key -> value
# First level in front of the canonical key: argument 2j tuple -> value.
# Emptied when full; every value is still in ``_cache``.
_raw_cache: dict[tuple[int, ...], float] = {}
_RAW_CACHE_MAX = 1 << 16
_cache_lock = threading.Lock()


def configure(two_j_max: int = DEFAULT_TWO_J_MAX) -> None:
    """Resize the shared factorial table (keeps previously cached values)."""
    global _table
    with _table_lock:
        _table = FactorialTable(two_j_max)


def cache_info() -> dict:
    return {"entries": len(_cache), "two_j_max": _table.two_j_max}


def clear_cache() -> None:
    with _cache_lock:
        _cache.clear()
        _raw_cache.clear()


def canonical_six_j_key(spins: Iterable[Spin]) -> tuple[int, ...]:
    """Lexicographically smallest of the 24 classically equivalent orderings.

    The symmetries are the column permutations and the upper/lower flips
    of two columns at once.  For a fixed flip the smallest ordering sorts
    the columns by (upper, lower), so the key is the smallest of four.
    """
    t = tuple(s.twice_j for s in spins)
    a, b, c = (t[0], t[3]), (t[1], t[4]), (t[2], t[5])
    best = None
    for cols in (
        (a, b, c),
        (a[::-1], b[::-1], c),
        (a[::-1], b, c[::-1]),
        (a, b[::-1], c[::-1]),
    ):
        x, y, z = sorted(cols)
        key = (x[0], y[0], z[0], x[1], y[1], z[1])
        if best is None or key < best:
            best = key
    return best


_TRIADS = ((0, 1, 2), (0, 4, 5), (3, 1, 5), (3, 4, 2))
_OPPOSITE_PAIRS = ((0, 3), (1, 4), (2, 5))


def _admissible(tjs: tuple[int, ...]) -> bool:
    for a, b, c in _TRIADS:
        ta, tb, tc = tjs[a], tjs[b], tjs[c]
        if (ta + tb + tc) % 2 != 0 or not (abs(ta - tb) <= tc <= ta + tb):
            return False
    return True


def _racah_value(tjs: tuple[int, ...], table: FactorialTable) -> float:
    """Exact Racah single sum; returns sign(S*Q) * sqrt((S*Q)^2 * F)."""
    fact = table.factorial

    triad_sums = [(tjs[a] + tjs[b] + tjs[c]) // 2 for a, b, c in _TRIADS]
    quad_sums = [
        (tjs[0] + tjs[1] + tjs[3] + tjs[4]) // 2,
        (tjs[1] + tjs[2] + tjs[4] + tjs[5]) // 2,
        (tjs[2] + tjs[0] + tjs[5] + tjs[3]) // 2,
    ]
    t_min = max(triad_sums)
    t_max = min(quad_sums)
    total = Fraction(0)
    for t in range(t_min, t_max + 1):
        denom = 1
        for s in triad_sums:
            denom *= fact(t - s)
        for u in quad_sums:
            denom *= fact(u - t)
        term = Fraction(fact(t + 1), denom)
        total += -term if t % 2 else term
    if total == 0:
        return 0.0

    # Product of the four triangle coefficients as prime exponents.
    nprimes = len(table.primes)
    exp_sum = [0] * nprimes
    for a, b, c in _TRIADS:
        ta, tb, tc = tjs[a], tjs[b], tjs[c]
        for arg in ((ta + tb - tc) // 2, (ta - tb + tc) // 2, (-ta + tb + tc) // 2):
            row = table.exponents(arg)
            for i in range(nprimes):
                exp_sum[i] += row[i]
        row = table.exponents((ta + tb + tc) // 2 + 1)
        for i in range(nprimes):
            exp_sum[i] -= row[i]

    rational = Fraction(1)
    squarefree = 1
    for p, e in zip(table.primes, exp_sum):
        if e == 0:
            continue
        q, r = divmod(e, 2)  # r in {0, 1} also for negative e
        if q > 0:
            rational *= p**q
        elif q < 0:
            rational /= p**(-q)
        if r:
            squarefree *= p

    exact_part = total * rational
    return float(exact_part) * math.sqrt(squarefree)


def wigner6j(j1, j2, j3, j4, j5, j6) -> float:
    """Wigner 6j symbol {j1 j2 j3; j4 j5 j6}.

    Non-admissible inputs are legal and return 0 (amplitude sums iterate
    over raw spin grids and rely on silent vanishing).  Values are cached
    under the canonical symmetry-reduced key, behind a first-level cache
    keyed on the arguments as given.
    """
    spins = [as_spin(j) for j in (j1, j2, j3, j4, j5, j6)]
    raw = tuple([s.twice_j for s in spins])
    table = _table
    if max(raw) > table.two_j_max:
        too_big = [s for s in spins if s.twice_j > table.two_j_max]
        raise SpinCapacityError(
            f"spins {[str(s) for s in too_big]} exceed 2j_max={table.two_j_max}; "
            "raise the limit with recoupling.configure(two_j_max=...)"
        )
    hit = _raw_cache.get(raw)
    if hit is not None:
        return hit
    key = canonical_six_j_key(spins)
    value = _cache.get(key)
    if value is None:
        value = _racah_value(key, table) if _admissible(key) else 0.0
    with _cache_lock:
        _cache[key] = value
        if len(_raw_cache) >= _RAW_CACHE_MAX:
            _raw_cache.clear()
        _raw_cache[raw] = value
    return value


def wigner6j_batch(rows) -> np.ndarray:
    """Wigner 6j symbols for each row of an (N, 6) array of 2j values.

    Each row is looked up in the first-level cache keyed on the arguments
    as given; only a miss goes through ``wigner6j``, so every value is the
    one the scalar call returns.
    """
    rows = np.asarray(rows, dtype=np.int64).reshape(-1, 6)
    keys = list(map(tuple, rows.tolist()))
    if keys and int(rows.max()) > _table.two_j_max:
        wigner6j(*map(Spin, keys[int(rows.max(axis=1).argmax())]))  # raises
    get = _raw_cache.get
    values = [get(key) for key in keys]
    for i, value in enumerate(values):
        if value is None:
            values[i] = wigner6j(*map(Spin, keys[i]))
    return np.array(values, dtype=float)
