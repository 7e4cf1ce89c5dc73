"""Recoupling kernel tests against an independent exact oracle."""

import itertools
import math
import random
import threading
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinfoam_oqs.recoupling import (
    Spin,
    SixJKey,
    SpinCapacityError,
    as_spin,
    canonical_six_j_key,
    clear_cache,
    triangle_ok,
    wigner6j,
    wigner6j_batch,
)


# --- independent oracle: direct Racah sum with exact rationals -------------

def _fac(n: int) -> int:
    return math.factorial(n)


def _delta_sq(a: Fraction, b: Fraction, c: Fraction) -> Fraction:
    return Fraction(
        _fac(int(a + b - c)) * _fac(int(a - b + c)) * _fac(int(-a + b + c)),
        _fac(int(a + b + c) + 1),
    )


def oracle_6j(*js) -> float:
    """Straightforward Racah formula with Fraction arithmetic throughout."""
    j1, j2, j3, j4, j5, j6 = [Fraction(as_spin(j).twice_j, 2) for j in js]
    triads = [(j1, j2, j3), (j1, j5, j6), (j4, j2, j6), (j4, j5, j3)]
    for a, b, c in triads:
        if (a + b + c).denominator != 1:
            return 0.0
        if not (abs(a - b) <= c <= a + b):
            return 0.0
    t_min = int(max(a + b + c for a, b, c in triads))
    quads = [j1 + j2 + j4 + j5, j2 + j3 + j5 + j6, j3 + j1 + j6 + j4]
    t_max = int(min(quads))
    total = Fraction(0)
    for t in range(t_min, t_max + 1):
        denom = 1
        for a, b, c in triads:
            denom *= _fac(t - int(a + b + c))
        for q in quads:
            denom *= _fac(int(q) - t)
        total += Fraction((-1) ** t * _fac(t + 1), denom)
    dsq = Fraction(1)
    for a, b, c in triads:
        dsq *= _delta_sq(a, b, c)
    return float(total) * math.sqrt(float(dsq))


def random_admissible_six(rng, tjmax=8):
    """Doubled spins of a random fully admissible 6j argument set."""
    while True:
        ta, tb = rng.randint(0, tjmax), rng.randint(0, tjmax)
        tc_lo, tc_hi = abs(ta - tb), min(ta + tb, tjmax)
        tc = rng.choice(range(tc_lo, tc_hi + 1, 2))
        td = rng.randint(0, tjmax)
        te_lo = abs(td - tc)
        te_hi = min(td + tc, tjmax)
        if te_lo > te_hi:
            continue
        te = rng.choice(range(te_lo, te_hi + 1, 2))
        tf_lo = max(abs(ta - te), abs(td - tb))
        tf_hi = min(ta + te, td + tb, tjmax)
        if tf_lo > tf_hi or (ta + te - tf_lo) % 2:
            continue
        tf = rng.choice(range(tf_lo, tf_hi + 1, 2))
        return ta, tb, tc, td, te, tf


# --- basic types ------------------------------------------------------------

def test_spin_stores_doubled_integer():
    s = as_spin("3/2")
    assert s.twice_j == 3
    assert s.j == Fraction(3, 2)
    assert str(s) == "3/2"
    assert as_spin(1.5) == s
    with pytest.raises(ValueError):
        as_spin(0.3)
    with pytest.raises(ValueError):
        Spin(-1)


def test_triangle_rule():
    assert triangle_ok("1/2", "1/2", 1)
    assert not triangle_ok("1/2", "1/2", "1/2")  # half-integer total
    assert not triangle_ok(1, 1, 3)


@given(st.lists(st.integers(min_value=0, max_value=12), min_size=6, max_size=6))
@settings(max_examples=200, deadline=None)
def test_canonicalization_idempotent(tjs):
    spins = [Spin(t) for t in tjs]
    key = canonical_six_j_key(spins)
    assert canonical_six_j_key([Spin(t) for t in key]) == key


def reference_six_j_key(spins):
    """Smallest of the 24 orderings, by enumerating every one of them:
    the column permutations times the upper/lower flips of two columns."""
    t = tuple(s.twice_j for s in spins)
    cols = ((t[0], t[3]), (t[1], t[4]), (t[2], t[5]))
    flips = ((), (0, 1), (0, 2), (1, 2))
    return min(
        (a[0], b[0], c[0], a[1], b[1], c[1])
        for flip in flips
        for a, b, c in itertools.permutations(
            [col[::-1] if i in flip else col for i, col in enumerate(cols)]
        )
    )


def test_canonical_key_matches_enumeration_exhaustively():
    spins = [Spin(t) for t in range(7)]
    for combo in itertools.product(spins, repeat=6):
        assert canonical_six_j_key(combo) == reference_six_j_key(combo)


def test_all_24_symmetries_share_a_key():
    rng = random.Random(4)
    for _ in range(50):
        tjs = random_admissible_six(rng)
        base = canonical_six_j_key([Spin(t) for t in tjs])
        cols = [(tjs[0], tjs[3]), (tjs[1], tjs[4]), (tjs[2], tjs[5])]
        count = 0
        for perm in itertools.permutations(range(3)):
            for flip in ((), (0, 1), (0, 2), (1, 2)):
                arranged = [
                    (cols[p][1], cols[p][0]) if i in flip else cols[p]
                    for i, p in enumerate(perm)
                ]
                variant = (
                    arranged[0][0], arranged[1][0], arranged[2][0],
                    arranged[0][1], arranged[1][1], arranged[2][1],
                )
                assert canonical_six_j_key([Spin(t) for t in variant]) == base
                count += 1
        assert count == 24


# --- values -----------------------------------------------------------------

def test_zero_argument_closed_form():
    # {a b c; 0 c b} = (-1)^(a+b+c) / sqrt((2b+1)(2c+1))
    value = wigner6j(1, 1, 1, 0, 1, 1)
    assert value == pytest.approx(-1.0 / 3.0, abs=1e-15)
    assert value == pytest.approx(oracle_6j(1, 1, 1, 0, 1, 1), abs=1e-15)


def test_unit_tetrahedron_value():
    # frozen from the oracle: {1 1 1; 1 1 1} = 1/6
    assert oracle_6j(1, 1, 1, 1, 1, 1) == pytest.approx(1.0 / 6.0, abs=1e-15)
    assert wigner6j(1, 1, 1, 1, 1, 1) == pytest.approx(1.0 / 6.0, abs=1e-15)


def test_triangle_violation_returns_zero():
    assert wigner6j(1, 1, 3, 1, 1, 1) == 0.0
    assert wigner6j("1/2", "1/2", "1/2", 1, 1, 1) == 0.0


def test_oracle_agreement_random():
    rng = random.Random(123)
    for _ in range(300):
        tjs = random_admissible_six(rng)
        spins = [Spin(t) for t in tjs]
        assert wigner6j(*spins) == pytest.approx(oracle_6j(*spins), abs=1e-13)


def test_symmetry_zero_ulp():
    rng = random.Random(5)
    for _ in range(100):
        tjs = random_admissible_six(rng)
        base = wigner6j(*[Spin(t) for t in tjs])
        swapped_cols = (tjs[1], tjs[0], tjs[2], tjs[4], tjs[3], tjs[5])
        flipped = (tjs[3], tjs[4], tjs[2], tjs[0], tjs[1], tjs[5])
        assert wigner6j(*[Spin(t) for t in swapped_cols]) == base
        assert wigner6j(*[Spin(t) for t in flipped]) == base


def _pick_shared(rng, t1, t2, t3, t4, tjmax):
    lo = max(abs(t1 - t2), abs(t3 - t4))
    hi = min(t1 + t2, t3 + t4, tjmax)
    if (t1 + t2) % 2 != (t3 + t4) % 2 or lo > hi:
        return None
    start = lo if (lo + t1 + t2) % 2 == 0 else lo + 1
    if start > hi:
        return None
    return rng.choice(range(start, hi + 1, 2))


def test_orthogonality():
    rng = random.Random(11)
    checked = 0
    while checked < 200:
        ta, tb = rng.randint(0, 12), rng.randint(0, 12)
        tc, td = rng.randint(0, 12), rng.randint(0, 12)
        if (tc + td) % 2 != (ta + tb) % 2:
            continue
        tp = _pick_shared(rng, ta, td, tc, tb, 12)
        tq = _pick_shared(rng, ta, td, tc, tb, 12)
        if tp is None or tq is None:
            continue
        total = 0.0
        for tx in range(abs(ta - tb), ta + tb + 1, 2):
            w1 = wigner6j(*[Spin(t) for t in (ta, tb, tx, tc, td, tp)])
            w2 = wigner6j(*[Spin(t) for t in (ta, tb, tx, tc, td, tq)])
            total += (tx + 1) * (tp + 1) * w1 * w2
        expected = 1.0 if tp == tq else 0.0
        assert abs(total - expected) < 1e-10
        checked += 1


def test_pentagon_identity():
    rng = random.Random(17)
    checked = 0
    while checked < 100:
        ta, tb = rng.randint(0, 8), rng.randint(0, 8)
        tc, td = rng.randint(0, 8), rng.randint(0, 8)
        te, tf = rng.randint(0, 8), rng.randint(0, 8)
        if not ((ta + tb) % 2 == (tc + td) % 2 == (te + tf) % 2):
            continue
        tp = _pick_shared(rng, ta, td, tc, tb, 8)
        tq = _pick_shared(rng, tc, tf, te, td, 8)
        tr = _pick_shared(rng, te, ta, tb, tf, 8)
        if None in (tp, tq, tr):
            continue
        phase_sum = ta + tb + tc + td + te + tf + tp + tq + tr
        lhs = 0.0
        for tx in range(0, 34):
            if (ta + tb + tx) % 2:
                continue
            w1 = wigner6j(*[Spin(t) for t in (ta, tb, tx, tc, td, tp)])
            if w1 == 0.0:
                continue
            w2 = wigner6j(*[Spin(t) for t in (tc, td, tx, te, tf, tq)])
            if w2 == 0.0:
                continue
            w3 = wigner6j(*[Spin(t) for t in (te, tf, tx, tb, ta, tr)])
            if w3 == 0.0:
                continue
            sign = -1.0 if ((phase_sum + tx) // 2) % 2 else 1.0
            lhs += sign * (tx + 1) * w1 * w2 * w3
        rhs = wigner6j(*[Spin(t) for t in (tp, tq, tr, te, ta, td)]) * wigner6j(
            *[Spin(t) for t in (tp, tq, tr, tf, tb, tc)]
        )
        assert abs(lhs - rhs) < 1e-10
        checked += 1


# --- cache and capacity -----------------------------------------------------

def test_cache_transparency():
    clear_cache()
    args = ("3/2", 1, "5/2", 2, "3/2", 1)
    first = wigner6j(*args)
    second = wigner6j(*args)
    assert first == second  # bit-identical


def test_capacity_error_names_spins():
    with pytest.raises(SpinCapacityError) as err:
        wigner6j(Spin(41), 1, 1, 1, 1, 1)
    assert "41/2" in str(err.value)


def test_batch_matches_scalar_bit_for_bit():
    rng = random.Random(3)
    admissible = [random_admissible_six(rng) for _ in range(48)]
    # Rows breaking a triangle rule or the parity of a triad are legal and
    # come out zero, as the scalar call gives them.
    broken = [(2, 2, 8, 2, 2, 2), (1, 1, 1, 1, 1, 1), (0, 0, 2, 0, 0, 0), (8, 0, 2, 4, 4, 4)]
    rows = admissible + broken + admissible[:8]
    clear_cache()
    for row in rows[::3]:  # a third of the rows hit the cache, the rest miss
        wigner6j(*map(Spin, row))
    batch = wigner6j_batch(rows)
    clear_cache()
    scalar = [wigner6j(*map(Spin, row)) for row in rows]
    assert batch.dtype == float and batch.shape == (len(rows),)
    assert batch.tobytes() == np.array(scalar).tobytes()
    assert not batch[len(admissible):len(admissible) + len(broken)].any()
    assert wigner6j_batch(np.zeros((0, 6), dtype=int)).shape == (0,)


def test_batch_capacity_error_names_spins():
    with pytest.raises(SpinCapacityError) as err:
        wigner6j_batch([(2, 2, 2, 2, 2, 2), (41, 1, 1, 1, 1, 1)])
    assert "41/2" in str(err.value)


def test_concurrent_insert_safety():
    clear_cache()
    rng = random.Random(9)
    batch = [tuple(Spin(t) for t in random_admissible_six(rng)) for _ in range(32)]
    results = {}

    def worker(idx):
        results[idx] = [wigner6j(*args) for args in batch]

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(6)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    baseline = results[0]
    assert all(results[i] == baseline for i in results)


def test_six_j_key_from_spins():
    key = SixJKey.from_spins([Spin(2), Spin(2), Spin(2), Spin(0), Spin(2), Spin(2)])
    assert key.twice_js == canonical_six_j_key(
        [Spin(0), Spin(2), Spin(2), Spin(2), Spin(2), Spin(2)]
    )


def test_configure_raises_capacity_then_accepts():
    from spinfoam_oqs import recoupling

    try:
        recoupling.configure(two_j_max=44)
        value = wigner6j(Spin(42), Spin(42), Spin(42), Spin(42), Spin(42), Spin(42))
        assert value == pytest.approx(oracle_6j(*[Spin(42)] * 6), abs=1e-13)
    finally:
        recoupling.configure()
    with pytest.raises(SpinCapacityError):
        wigner6j(Spin(42), Spin(42), Spin(42), Spin(42), Spin(42), Spin(42))


def test_spin_range():
    spins = Spin.range("1/2", 2)
    assert [s.twice_j for s in spins] == [1, 2, 3, 4]
