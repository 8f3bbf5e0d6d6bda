"""Genus characters on binary quadratic forms.

chi_{D0}(Q) for a fundamental discriminant D0 dividing disc(Q): zero when
gcd(a, b, c, D0) > 1, otherwise the Kronecker symbol (D0 | r) at any value
r = Q(u, v) coprime to D0.  By Gauss's genus theory it is the product of the
characters of the prime-discriminant factors p* of D0 (p* = +-p = 1 mod 4 for
odd p, and -4, 8 or -8 for p = 2), and each factor can be read off at its own
represented value: (p* | a) at a = Q(1, 0) when p does not divide a, else
(p* | c) at c = Q(0, 1) (Gross-Kohnen-Zagier, Math. Ann. 278, 1987, I.2).

If p divides both a and c, then p divides b^2 = disc + 4ac (for p = 2, D0 is
even, so disc = 0 mod 4 and b is even too), so p | gcd(a, b, c, D0).  That is
exactly where chi_{D0} is zero, and there (p* | c) = 0; elsewhere every factor
is read at a value prime to p, so the product needs no separate gcd test.
"""

from functools import lru_cache
from math import prod

from .arith import factorize, is_fundamental_discriminant, kronecker
from .errors import PreconditionError
from .quadforms import Form, discriminant


@lru_cache
def prime_discriminants(d0: int) -> tuple:
    """((p, |p*|, table), ...) over the primes p dividing the fundamental
    discriminant D0, with D0 the product of the p*.  table[r] is (p* | r) for
    r in range(|p*|); as p* is a fundamental discriminant, (p* | a) is a
    character mod |p*| on all integers a, negatives included, so
    (p* | a) = table[a % |p*|]."""
    if not is_fundamental_discriminant(d0):
        raise PreconditionError(f"D0 must be a fundamental discriminant, got {d0}")
    odd = tuple((p, p if p % 4 == 1 else -p) for p in factorize(abs(d0)) if p != 2)
    two = d0 // prod(star for _, star in odd)
    pairs = odd if two == 1 else ((2, two),) + odd
    return tuple((p, abs(star), tuple(kronecker(star, r) for r in range(abs(star))))
                 for p, star in pairs)


def genus_character(d0: int, form: Form) -> int:
    """chi_{D0}(Q) as the product over the prime discriminants p* of D0 of
    (p* | a), or (p* | c) when p divides a."""
    factors = prime_discriminants(d0)
    a, _, c = form
    disc = discriminant(form)
    if disc % d0:
        raise PreconditionError(f"D0={d0} does not divide disc={disc}")
    if (disc // d0) % 4 not in (0, 1):
        raise PreconditionError(f"disc/D0 = {disc // d0} is not a discriminant")
    value = 1
    for p, modulus, table in factors:
        value *= table[(a if a % p else c) % modulus]
    return value
