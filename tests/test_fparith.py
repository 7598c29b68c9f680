import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from weylkit.fparith import binom_array, binom_mod, binom_table, check_prime, is_prime, multinom_mod, p_powers

PRIMES = (2, 3, 5, 7)


def test_examples():
    assert binom_mod(4, 4, 5) == 1
    assert binom_mod(7, 2, 3) == 0  # C(7,2) = 21
    assert binom_mod(5, 2, 3) == 1  # C(5,2) = 10
    assert multinom_mod(3, [3], 2) == 1
    assert multinom_mod(4, [2, 1, 1], 3) == 0  # 12 = 0 mod 3
    assert multinom_mod(2, [1, 1], 2) == 0


def test_p_powers_edges():
    assert p_powers(2, 0) == ()
    assert p_powers(3, 1) == (1,)
    assert p_powers(3, 26) == (1, 3, 9)
    assert p_powers(3, 27) == (1, 3, 9, 27)
    # every power of 2 held by int64
    assert p_powers(2, 2**63 - 1) == tuple(2**j for j in range(63))
    for p in PRIMES:
        powers = {p**j for j in range(8)}
        for most in range(200):
            assert p_powers(p, most) == tuple(q for q in range(1, most + 1) if q in powers), (p, most)


def test_binomial_zero_above_diagonal():
    assert binom_mod(3, 5, 7) == 0
    assert binom_mod(0, 1, 2) == 0


def test_lucas_against_big_integer_oracle():
    for p in PRIMES:
        for a in range(61):
            for b in range(a + 1):
                assert binom_mod(a, b, p) == math.comb(a, b) % p, (a, b, p)
                assert binom_table(p)[a, b] == math.comb(a, b) % p, (a, b, p)


def test_binom_array_reads_binom_mod_at_each_pair(monkeypatch):
    # unshifted pairs are gathered through a table over their range, shifted
    # ones (past p^d) numbered by a sort on their int64 key; a shift on half
    # the rows spreads a's range past that key, so the row sort numbers
    # them; every output keeps the input's shape
    sorts, lexsort = [], np.lexsort
    monkeypatch.setattr(np, "lexsort", lambda keys: sorts.append(len(keys)) or lexsort(keys))
    rng = np.random.default_rng(7)
    half = np.arange(40)[:, None] % 2
    for p in PRIMES:
        a = rng.integers(0, 20, size=(40, 5))
        b = rng.integers(0, 20, size=(40, 5))
        for shift in (0, p**20, 2**62, half * 2**62):
            out = binom_array(a + shift, b, p)
            assert out.shape == a.shape and out.dtype == np.int64
            assert out.tolist() == [[binom_mod(x, y, p) for x, y in zip(*row)] for row in zip((a + shift).tolist(), b.tolist())]
        assert binom_array(np.zeros((0, 3), dtype=np.uint8), np.zeros((0, 3), dtype=np.uint8), p).shape == (0, 3)
    assert sorts == [2] * len(PRIMES)


def test_shift_congruence_binomial():
    # p^d > b forces C(a + p^d, b) = C(a, b) mod p
    for p in PRIMES:
        d = 1
        while p**d <= 27:
            q = p**d
            for a in range(31):
                for b in range(min(q, a + 2)):
                    assert binom_mod(a + q, b, p) == binom_mod(a, b, p), (a, b, p, d)
            d += 1


def test_shift_congruence_multinomial():
    # p^d > a - a_1 forces equality after shifting a and a_1 together
    import itertools

    for p in (2, 3, 5):
        for a in range(1, 21):
            for a1 in range(a + 1):
                rest = a - a1
                for split in itertools.combinations(range(1, rest + 1), 0 if rest == 0 else 1):
                    parts = [a1] + ([rest] if rest else [])
                    d = 1
                    while p**d <= rest:
                        d += 1
                    shifted = [a1 + p**d] + parts[1:]
                    assert multinom_mod(a + p**d, shifted, p) == multinom_mod(a, parts, p)


def test_multinomial_argument_check():
    with pytest.raises(ValueError):
        multinom_mod(4, [2, 1], 3)
    with pytest.raises(ValueError):
        check_prime(6)  # not prime
    with pytest.raises(ValueError):
        multinom_mod(-1, [0, -1], 3)  # C(-1, 0) as a multinomial


def test_is_prime_small():
    assert [n for n in range(2, 20) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]


@given(
    p=st.sampled_from(PRIMES),
    a=st.integers(0, 1000),
    b=st.integers(0, 1000),
    c=st.integers(0, 1000),
)
def test_field_axioms(p, a, b, c):
    # the engine's scalars are plain ints reduced into [0, p)
    x, y, z = a % p, b % p, c % p
    assert ((x + y) % p + z) % p == (x + (y + z) % p) % p
    assert (x * y % p) * z % p == x * (y * z % p) % p
    assert x * ((y + z) % p) % p == (x * y + x * z) % p
    assert (x + 0) % p == x
    assert x * 1 % p == x
    assert (x + (-x) % p) % p == 0
    if x:
        assert x * pow(x, -1, p) % p == 1


@given(p=st.sampled_from(PRIMES), a=st.integers(0, 300), b=st.integers(0, 300))
def test_pascal_recurrence(p, a, b):
    assert binom_mod(a + 1, b + 1, p) == (binom_mod(a, b, p) + binom_mod(a, b + 1, p)) % p


def test_multinomial_matches_factorial_oracle():
    for p in PRIMES:
        for parts in [(1, 1, 1), (2, 2), (3, 1, 2), (0, 4), (2, 1, 1, 1)]:
            a = sum(parts)
            exact = math.factorial(a)
            for x in parts:
                exact //= math.factorial(x)
            assert multinom_mod(a, parts, p) == exact % p
