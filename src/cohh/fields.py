"""Ground fields for exact computation: Q and prime fields F_p.

Scalars over F_p are plain ints in [0, p).  A scalar over Q is a plain
int while it is integral and a fractions.Fraction only when it is not,
so integer matrices with unit pivots never leave int arithmetic; a
Fraction appears only when a non-unit pivot divides.  Mixed int and
Fraction arithmetic is exact, and int == Fraction compares and hashes
by value, so the two forms are interchangeable.
"""

from dataclasses import dataclass
from fractions import Fraction


# Miller-Rabin with these bases is exact for every n < 3.18 * 10**23
# (Sorenson and Webster, Math. Comp. 2017), so for every n < 2**64.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
MAX_CHARACTERISTIC = 2**64


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; exact for n < MAX_CHARACTERISTIC."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class FieldSpec:
    """A ground field: characteristic 0 means Q, a prime p means F_p."""

    characteristic: int = 0
    one = 1
    zero = 0

    def __post_init__(self):
        p = self.characteristic
        if p >= MAX_CHARACTERISTIC:
            raise ValueError(f"characteristic must be below 2**64, got {p}")
        if p != 0 and not _is_prime(p):
            raise ValueError(f"characteristic must be 0 or prime, got {p}")

    @property
    def is_prime_field(self) -> bool:
        return self.characteristic != 0

    def coerce(self, x):
        """Bring an int or Fraction into canonical scalar form.

        Anything else (float, str, Decimal, bool, ...) raises TypeError
        rather than being rounded or truncated.
        """
        p = self.characteristic
        if type(x) is int:
            return x % p if p else x
        if type(x) is not Fraction:
            raise TypeError(f"a scalar over {self} must be an int or a "
                            f"Fraction, not {type(x).__name__}")
        if p:
            if x.denominator % p == 0:
                raise ZeroDivisionError(f"denominator divisible by {p}")
            return (x.numerator * pow(x.denominator, -1, p)) % p
        return x.numerator if x.denominator == 1 else x

    def mul(self, a, b):
        p = self.characteristic
        return (a * b) % p if p else a * b

    def neg(self, a):
        p = self.characteristic
        return (-a) % p if p else -a

    def inv(self, a):
        p = self.characteristic
        if p:
            return pow(a, -1, p)
        if a == 1 or a == -1:
            return a
        return self.coerce(1 / Fraction(a))

    def canonical(self, terms: dict) -> dict:
        """A formal sum accumulated with plain + and *, reduced once: each
        scalar taken mod p over F_p, and zeros dropped, in key order."""
        p = self.characteristic
        if p:
            return {k: r for k, v in terms.items() if (r := v % p)}
        return {k: v for k, v in terms.items() if v}

    def __str__(self):
        p = self.characteristic
        return f"F_{p}" if p else "Q"


QQ = FieldSpec(0)


def GF(p: int) -> FieldSpec:
    return FieldSpec(p)
