"""Exact Wigner 6j symbols over half-integer spins, with memoization.

Spins are stored as doubled integers (``twice_j``) so that admissibility
checks and the Racah sum are exact.  The single-sum Racah formula is
evaluated with arbitrary-precision rationals; the square root of the
triangle-coefficient product is split into an exact rational part and a
squarefree integer from the prime exponents of each factorial, found
once per argument by Legendre's formula (Johansson & Forssen, SIAM J.
Sci. Comput. 38 (2016) A376).  The float returned is therefore correct
to a couple of ulp, and repeated evaluations are bit-identical.  Each
symbol is stored once, under the smallest of its 24 equivalent orderings
packed into one int64, which holds 2j <= 1023, the only spin limit; keys
are computed for a whole batch in NumPy, and ``wigner6j`` is a batch of
one.
"""

from __future__ import annotations

import functools
import math
import threading
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

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
        return spin_text(self.twice_j)


def spin_text(twice_j: int) -> str:
    """The spin of 2j value ``twice_j`` as text: "2" or "5/2"."""
    return str(twice_j // 2) if twice_j % 2 == 0 else f"{twice_j}/2"


def as_spin(value) -> Spin:
    """Coerce ints (not bools), exact half-integer floats, fractions and '3/2' strings.

    The one spin parser: a public function given a spin reads its 2j as
    ``as_spin(value).twice_j`` and passes 2j ints on.  A bare int is j.
    """
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


def _triangle(ta: int, tb: int, tc: int) -> bool:
    """The triangle rule on 2j values: |a-b| <= c <= a+b with integer total spin."""
    return (ta + tb + tc) % 2 == 0 and abs(ta - tb) <= tc <= ta + tb


def triangle_ok(a, b, c) -> bool:
    """The triangle rule on three spins."""
    return _triangle(as_spin(a).twice_j, as_spin(b).twice_j, as_spin(c).twice_j)


@functools.cache
def _factorial_exponents(n: int) -> tuple[tuple[int, int], ...]:
    """(p, exponent of p in n!) for each prime p <= n, by Legendre's formula.

    The memo stays small: the key's limit 2j <= 1023 keeps n <= 1535.
    """
    pairs = []
    for p in range(2, n + 1):
        if all(p % q for q in range(2, math.isqrt(p) + 1)):
            e, power = 0, p
            while power <= n:
                e += n // power
                power *= p
            pairs.append((p, e))
    return tuple(pairs)


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


def cache_info() -> dict:
    return {"entries": len(_cache)}


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
    return all(_triangle(tjs[a], tjs[b], tjs[c]) for a, b, c in _TRIADS)


def _racah_value(tjs: tuple[int, ...]) -> float:
    """Exact Racah single sum; returns sign(S*Q) * sqrt((S*Q)^2 * F)."""
    fact = math.factorial

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
    exponents: dict[int, int] = {}
    for a, b, c in _TRIADS:
        ta, tb, tc = tjs[a], tjs[b], tjs[c]
        for arg in ((ta + tb - tc) // 2, (ta - tb + tc) // 2, (-ta + tb + tc) // 2):
            for p, e in _factorial_exponents(arg):
                exponents[p] = exponents.get(p, 0) + e
        for p, e in _factorial_exponents((ta + tb + tc) // 2 + 1):
            exponents[p] = exponents.get(p, 0) - e

    rational = Fraction(1)
    squarefree = 1
    for p, e in exponents.items():
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
    Racah sum.  Raises ValueError on a negative 2j, and on one above 1023,
    the largest a packed key holds, naming the spin; such a row is never
    packed.
    """
    rows = np.asarray(rows, dtype=np.int64).reshape(-1, 6)
    if rows.min(initial=0) < 0:
        raise ValueError(f"twice_j must be non-negative, got {rows.min()}")
    if rows.max(initial=0) > _KEY_MASK:
        row = rows[rows.max(axis=1).argmax()].tolist()
        too_big = [spin_text(t) for t in row if t > _KEY_MASK]
        raise ValueError(f"spins {too_big} exceed 2j = {_KEY_MASK}, the largest a 6j key holds")
    keys, inverse = np.unique(_canonical_keys(rows), return_inverse=True)
    values = list(map(_cache.get, keys.tolist()))
    missing = [i for i, value in enumerate(values) if value is None]
    spins = (keys[missing, None] >> _KEY_SHIFTS & _KEY_MASK).tolist()
    for i, tjs in zip(missing, spins):
        values[i] = _racah_value(tjs) if _admissible(tjs) else 0.0
    with _cache_lock:
        _cache.update((keys.item(i), values[i]) for i in missing)
    return np.array(values)[inverse]
