"""Ground fields for exact computation: Q and prime fields F_p.

Scalars over F_p are plain ints in [0, p).  Scalars over Q are
fractions.Fraction (ints are accepted and coerced on the way in).
"""

from dataclasses import dataclass
from fractions import Fraction


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


@dataclass(frozen=True)
class FieldSpec:
    """A ground field: characteristic 0 means Q, a prime p means F_p."""

    characteristic: int = 0

    def __post_init__(self):
        p = self.characteristic
        if p != 0 and not _is_prime(p):
            raise ValueError(f"characteristic must be 0 or prime, got {p}")

    @property
    def is_prime_field(self) -> bool:
        return self.characteristic != 0

    def coerce(self, x):
        """Bring an int or Fraction into canonical scalar form."""
        p = self.characteristic
        if p:
            if isinstance(x, Fraction):
                if x.denominator % p == 0:
                    raise ZeroDivisionError(f"denominator divisible by {p}")
                return (x.numerator * pow(x.denominator, -1, p)) % p
            return int(x) % p
        if isinstance(x, Fraction):
            return x
        return Fraction(x)

    def add(self, a, b):
        p = self.characteristic
        return (a + b) % p if p else a + b

    def sub(self, a, b):
        p = self.characteristic
        return (a - b) % p if p else a - b

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
        return Fraction(1) / a

    def is_zero(self, a) -> bool:
        return a == 0

    @property
    def one(self):
        return 1 if self.characteristic else Fraction(1)

    @property
    def zero(self):
        return 0 if self.characteristic else Fraction(0)

    def __str__(self):
        p = self.characteristic
        return f"F_{p}" if p else "Q"


QQ = FieldSpec(0)


def GF(p: int) -> FieldSpec:
    return FieldSpec(p)
