"""Prime moduli and binomial coefficients mod p.

Binomial coefficients are computed digit by digit in base p (Lucas'
congruence), and multinomials as telescoping products of binomials, so no
intermediate value ever leaves machine-word range.  This is what keeps
shifted instances (arguments of size a + p^d) exact without big integers.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .shapes import number_rows

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


def p_powers(p: int, most: int) -> tuple[int, ...]:
    """The powers 1, p, p^2, ... of a prime p up to ``most``: by Lucas, every
    divided power E^(t) over F_p is a unit times a product of the E^(p^j)."""
    powers = []
    while (q := p ** len(powers)) <= most:
        powers.append(q)
    return tuple(powers)


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


def binom_array(a, b, p: int) -> np.ndarray:
    """C(a, b) mod p elementwise over two integer arrays of one shape, as
    int64, for nonnegative entries.  Only the distinct (a, b) pairs are read
    from ``binom_table(p)``.

    The pairs are numbered a * (max b + 1) + b.  While that range is within
    four times the input's size (plus 64) they are gathered through a table
    over it, written only where a pair occurs; past it, as when a shifted
    entry reaches p^d, ``shapes.number_rows`` numbers them by a sort, so no
    table is quadratic in p^d.  Both are needed (measured on a 2-core VM,
    12 to 50,000 pairs): the table is 2.5 to 5 times faster while the range
    is within 16 times the size, and slower from 64 times on at 5,000 pairs
    and up.  One hom-oracle pass of the bench (1,342 box-relation calls,
    median 192 pairs) spends 36 ms here through the table against 143 ms
    through the sort alone.
    """
    a, b = np.asarray(a), np.asarray(b)
    table = binom_table(p)
    width = int(b.max(initial=0)) + 1
    span = (int(a.max(initial=0)) + 1) * width
    if span > 4 * a.size + 64:
        pairs = np.stack((a.ravel(), b.ravel())).T
        distinct, ids = number_rows(pairs)
        values = np.array([table[x, y] for x, y in pairs[distinct].tolist()], dtype=np.int64)
        return values[ids].reshape(a.shape)
    key = np.multiply(a, width, dtype=np.int64)
    key += b
    values = np.zeros(span, dtype=np.int64)
    seen = np.zeros(span, dtype=bool)
    seen[key] = True
    distinct = np.flatnonzero(seen)
    values[distinct] = [table[divmod(k, width)] for k in distinct.tolist()]
    return values[key]


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
