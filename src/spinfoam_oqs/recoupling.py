"""Exact Wigner 6j symbols over half-integer spins, with memoization.

Spins are stored as doubled integers (``twice_j``) so that admissibility
checks and the Racah sum are exact.  The single-sum Racah formula is
evaluated with arbitrary-precision rationals; the square root of the
triangle-coefficient product is split into an exact rational part and a
squarefree integer using a shared prime-factorized factorial table.  The
float returned is therefore correct to a couple of ulp, and repeated
evaluations are bit-identical.  Each symbol is stored once, under the
smallest of its 24 equivalent orderings packed into one int64; keys are
computed for a whole batch in NumPy, and ``wigner6j`` is a batch of one.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from fractions import Fraction

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
        num, _, den = value.partition("/")
        try:
            value = Fraction(int(num), int(den)) if den else Fraction(value)
        except ZeroDivisionError:
            raise ValueError(f"{value!r} has a zero denominator") from None
    if isinstance(value, Fraction):
        doubled = value * 2
        if doubled.denominator != 1:
            raise ValueError(f"{value} is not a half-integer")
        return Spin(int(doubled))
    if isinstance(value, float):
        doubled = value * 2
        if not math.isfinite(doubled) or doubled != int(doubled):
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

# A canonical key packs six 2j values of _KEY_BITS bits each into one
# int64, upper row first, so that integer order is tuple order.
_KEY_BITS = 10
_KEY_MASK = (1 << _KEY_BITS) - 1
_KEY_SHIFTS = _KEY_BITS * np.arange(5, -1, -1)
# Per column, whether each of the four classically equivalent flips
# exchanges its upper and lower entry.
_FLIPS = np.array([[0, 1, 1, 0], [0, 1, 0, 1], [0, 0, 1, 1]], dtype=bool)[:, :, None]

_cache: dict[int, float] = {}  # packed canonical key -> value
_cache_lock = threading.Lock()


def configure(two_j_max: int = DEFAULT_TWO_J_MAX) -> None:
    """Resize the shared factorial table (keeps previously cached values)."""
    global _table
    if two_j_max > _KEY_MASK:
        raise ValueError(f"two_j_max={two_j_max} exceeds {_KEY_MASK}, the largest 2j a key holds")
    with _table_lock:
        _table = FactorialTable(two_j_max)


def cache_info() -> dict:
    return {"entries": len(_cache), "two_j_max": _table.two_j_max}


def clear_cache() -> None:
    with _cache_lock:
        _cache.clear()


def _canonical_keys(rows: np.ndarray) -> np.ndarray:
    """Packed canonical key of each row of an (N, 6) int64 array of 2j values.

    The key is the smallest of the 24 classically equivalent orderings:
    column permutations times upper/lower flips of two columns.  Per flip,
    sorting the columns packed as ``upper << 3 * _KEY_BITS | lower`` gives
    the smallest, and sorted columns x <= y <= z pack into the key as
    ``x << 2 * _KEY_BITS | y << _KEY_BITS | z``; the least of four is kept.
    """
    wide = 3 * _KEY_BITS
    a, b, c = (np.where(flip, low << wide | up, up << wide | low)
               for up, low, flip in zip(rows[:, :3].T, rows[:, 3:].T, _FLIPS))
    lo = np.minimum(np.minimum(a, b), c)
    hi = np.maximum(np.maximum(a, b), c)
    mid = a + b + c - lo - hi
    return (lo << 2 * _KEY_BITS | mid << _KEY_BITS | hi).min(axis=0)


_TRIADS = ((0, 1, 2), (0, 4, 5), (3, 1, 5), (3, 4, 2))


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
    """Wigner 6j symbol {j1 j2 j3; j4 j5 j6}: ``wigner6j_batch`` of one row.

    Non-admissible inputs are legal and return 0 (amplitude sums iterate
    over raw spin grids and rely on silent vanishing).
    """
    return float(wigner6j_batch([[as_spin(j).twice_j for j in (j1, j2, j3, j4, j5, j6)]])[0])


def wigner6j_batch(rows) -> np.ndarray:
    """Wigner 6j symbols for each row of an (N, 6) array of 2j values.

    Rows are reduced to their packed canonical keys; each distinct key is
    looked up once, and only a key not yet stored goes through the exact
    Racah sum.  Raises ValueError on a negative 2j and SpinCapacityError
    on one above the factorial table's ``two_j_max``.
    """
    rows = np.asarray(rows, dtype=np.int64).reshape(-1, 6)
    table = _table
    if rows.min(initial=0) < 0:
        raise ValueError(f"twice_j must be non-negative, got {rows.min()}")
    if rows.max(initial=0) > table.two_j_max:
        row = rows[rows.max(axis=1).argmax()].tolist()
        too_big = [str(Spin(t)) for t in row if t > table.two_j_max]
        raise SpinCapacityError(
            f"spins {too_big} exceed 2j_max={table.two_j_max}; "
            "raise the limit with recoupling.configure(two_j_max=...)"
        )
    keys, inverse = np.unique(_canonical_keys(rows), return_inverse=True)
    values = list(map(_cache.get, keys.tolist()))
    missing = [i for i, value in enumerate(values) if value is None]
    spins = (keys[missing, None] >> _KEY_SHIFTS & _KEY_MASK).tolist()
    for i, tjs in zip(missing, spins):
        values[i] = _racah_value(tjs, table) if _admissible(tjs) else 0.0
    with _cache_lock:
        _cache.update((keys.item(i), values[i]) for i in missing)
    return np.array(values)[inverse]
