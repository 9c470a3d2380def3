"""Exact coefficient fields: prime fields GF(p) and the rationals.

Field elements are plain Python values (ints reduced mod p, or
fractions.Fraction); a Field object bundles the element arithmetic that
algebra and module code use.  How a matrix stores its entries, and how it
eliminates and multiplies them, is decided in ppmod.linalg alone.
"""

from __future__ import annotations

from fractions import Fraction


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


class Field:
    """Common interface; use GF(p) or QQ."""

    p: int | None

    def zero(self):
        raise NotImplementedError

    def one(self):
        raise NotImplementedError

    def of(self, n: int):
        """Image of the integer n in the field."""
        raise NotImplementedError

    def elements(self):
        """Iterate all field elements (finite fields only)."""
        raise NotImplementedError


class PrimeField(Field):
    def __init__(self, p: int):
        if not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p

    def zero(self):
        return 0

    def one(self):
        return 1

    def of(self, n: int):
        return n % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

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

    def of(self, n: int):
        return Fraction(n)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

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


def field_from_spec(spec: str | int) -> Field:
    """Parse a field spec: a prime p, or 'rational'."""
    if isinstance(spec, int):
        return GF(spec)
    s = spec.strip().lower()
    if s in ("q", "qq", "rational", "rationals"):
        return QQ
    return GF(int(s))
