"""Prime moduli and binomial coefficients mod p.

Binomial coefficients are computed digit by digit in base p (Lucas'
congruence), and multinomials as telescoping products of binomials, so no
intermediate value ever leaves machine-word range.  This is what keeps
shifted instances (arguments of size a + p^d) exact without big integers.
"""

from __future__ import annotations

from functools import lru_cache

MAX_PRIME = 1 << 16


@lru_cache(maxsize=None)
def is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def check_prime(p: int) -> int:
    if not isinstance(p, int) or not is_prime(p):
        raise ValueError(f"modulus must be prime, got {p!r}")
    if p > MAX_PRIME:
        raise ValueError(f"modulus {p} exceeds the supported bound {MAX_PRIME}")
    return p


def _digit_binom_mod(a: int, b: int, p: int) -> int:
    # a, b < p, so every factor stays below p^2 < 2^32.
    if b > a:
        return 0
    b = min(b, a - b)
    num, den = 1, 1
    for i in range(1, b + 1):
        num = num * ((a - b + i) % p) % p
        den = den * (i % p) % p
    return num * pow(den, -1, p) % p if b else 1


def binom_mod(a: int, b: int, p: int) -> int:
    """C(a, b) mod p via base-p digits; 0 when b > a or b < 0."""
    if b < 0 or b > a:
        return 0
    result = 1
    while a or b:
        ai, bi = a % p, b % p
        if bi > ai:
            return 0
        result = result * _digit_binom_mod(ai, bi, p) % p
        a //= p
        b //= p
    return result


class BinomTable(dict):
    """C(a, b) mod p for one prime p, keyed by (a, b) and filled on first use.

    It has no fixed size, so a shifted instance, whose entries reach
    r + p^d, adds only the entries it reads instead of a table quadratic
    in p^d.
    """

    def __init__(self, p: int):
        super().__init__()
        self.p = p

    def __missing__(self, key: tuple[int, int]) -> int:
        value = self[key] = binom_mod(key[0], key[1], self.p)
        return value


@lru_cache(maxsize=None)
def binom_table(p: int) -> BinomTable:
    """The binomial table mod p shared by every caller."""
    return BinomTable(p)


def multinom_mod(a: int, parts, p: int) -> int:
    """a! / (a_1! ... a_s!) mod p as a telescoping product of binomials."""
    parts = list(parts)
    if any(x < 0 for x in parts) or a < 0:
        raise ValueError("multinomial arguments must be nonnegative")
    if sum(parts) != a:
        raise ValueError(f"parts {parts} do not sum to {a}")
    result, rem = 1, a
    for part in parts:
        result = result * binom_mod(rem, part, p) % p
        if result == 0:
            return 0
        rem -= part
    return result
