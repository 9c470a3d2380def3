"""Exact coefficient fields: prime fields GF(p) and the rationals.

Field elements are plain Python values (ints reduced mod p, or
fractions.Fraction), combined with Python's operators.  A Field object
names the field and gives its zero, its one, its elements and `of`, the
one reduction: `of(n)` brings an int, or an integer combination of field
elements, back into the field.  How a matrix stores its entries, and how
it eliminates and multiplies them, is decided in ppmod.linalg alone.
"""

from __future__ import annotations

from fractions import Fraction


# Miller-Rabin on the prime bases up to 37 decides primality exactly for
# every p below 2^64; a larger p is refused.
PRIME_LIMIT = 2 ** 64


def _is_prime(p: int) -> bool:
    if p >= PRIME_LIMIT:
        raise ValueError(f"{p} is at least 2^64, the limit of the primality "
                         "test for a field's characteristic")
    if p < 2 or p % 2 == 0:
        return p == 2
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, p)  # 0 when a == p, a base that proves nothing
        if x not in (0, 1) and all(pow(x, 2 ** r, p) != p - 1
                                   for r in range(s)):
            return False
    return True


class Field:
    """What GF(p) and QQ share: zero(), one(), elements() (finite fields
    only) and of(n), the field element n stands for: an int, or an integer
    combination of field elements, reduced mod p over GF(p)."""

    p: int | None


class PrimeField(Field):
    def __init__(self, p: int):
        if not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p

    def zero(self):
        return 0

    def one(self):
        return 1

    def of(self, n):
        return n % self.p

    def elements(self):
        return range(self.p)

    def __repr__(self):
        return f"GF({self.p})"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("GF", self.p))


class RationalField(Field):
    p = None

    def zero(self):
        return Fraction(0)

    def one(self):
        return Fraction(1)

    def of(self, n):
        return n if type(n) is Fraction else Fraction(n)

    def elements(self):
        raise TypeError("rationals are not enumerable")

    def __repr__(self):
        return "QQ"

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("QQ")


_GF_CACHE: dict[int, PrimeField] = {}


def GF(p: int) -> PrimeField:
    if p not in _GF_CACHE:
        _GF_CACHE[p] = PrimeField(p)
    return _GF_CACHE[p]


QQ = RationalField()


def field_from_spec(spec: str) -> Field:
    """Parse a field spec: a prime p, or 'rational'."""
    s = spec.strip().lower()
    if s in ("q", "qq", "rational", "rationals"):
        return QQ
    if not (s.isascii() and s.isdigit() and _is_prime(int(s))):
        raise ValueError(f"--field needs a prime p or 'rational', "
                         f"not {spec!r}")
    return GF(int(s))
