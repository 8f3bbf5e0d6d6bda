"""Integral binary quadratic forms and the finite enumeration behind the
central-value criterion.

A form Q = [a, b, c] stands for a*x^2 + b*x*y + c*y^2 with integer
coefficients.  For a rational point x = p/q in lowest terms (q >= 1) the sums
of interest run over forms of fixed positive discriminant Delta whose leading
coefficient is a negative multiple of the level N and whose homogenized value
Q(p, q) is positive.  Finiteness comes from the identity

    Delta*q^2 - (b*q + 2*a*p)^2 = 4*(-a)*Q(p, q),

which pins |b*q + 2*a*p| below q*sqrt(Delta) and makes (-a)*Q(p, q) a
bounded positive integer, so both factors range over divisor pairs.
character_sum adds up a genus character over these forms from the divisor
pairs themselves, building no form, and in closed form at x = 0.
"""

import math
from fractions import Fraction
from typing import NamedTuple

from .arith import divisors, factorize, is_square
from .errors import PreconditionError


class Form(NamedTuple):
    a: int
    b: int
    c: int


def as_point(x) -> Fraction:
    """Coerce int / Fraction / 'p/q' string to a normalized rational point."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError):
            pass
    raise PreconditionError(f"cannot interpret {x!r} as a rational point")


def discriminant(form: Form) -> int:
    a, b, c = form
    return b * b - 4 * a * c


def _check_args(level: int, delta: int, x) -> Fraction:
    if level < 1:
        raise PreconditionError(f"level must be >= 1, got {level}")
    if delta <= 0 or delta % 4 not in (0, 1):
        raise PreconditionError(f"Delta must be a positive discriminant, got {delta}")
    if is_square(delta):
        raise PreconditionError(f"Delta must be nonsquare, got {delta} = {math.isqrt(delta)}^2")
    return as_point(x)


def _classes(level: int, cap: int):
    """(t, m) for each t >= 0 with t*t < cap and 4*level | cap - t*t, where
    m = (cap - t*t) / (4*level).  Since t mod 2*level fixes t^2 mod
    4*level, only the residue classes r mod 2*level with
    r^2 = cap (mod 4*level) are visited."""
    tmax = math.isqrt(cap - 1)
    period = 2 * level
    modulus = 2 * period
    target = cap % modulus
    for r in range(period):
        if r * r % modulus == target:
            for t in range(r, tmax + 1, period):
                yield t, (cap - t * t) // modulus


def character(factors: tuple, a: int, c: int) -> int:
    """The genus character of a form [a, b, c]: over the prime-discriminant
    factors (p, |p*|, table) of D0, as in genus.prime_discriminants, the
    product of (p* | a) = table[a % |p*|], or of (p* | c) when p divides a
    (see genus)."""
    return math.prod(table[(a if a % p else c) % modulus] for p, modulus, table in factors)


def _pairs(level: int, delta: int, p: int, q: int):
    """(u, s, c) for each form [-level*u, b, c] of enumerate_forms at x = p/q.

    For each admissible t = b*q + 2*a*p (see _classes) the identity gives
    level*m = (-a) * Q(p, q), so a = -level*u and Q(p, q) = v for a divisor
    pair (u, v = m/u) of m.  Expanding Q(p, q) = v with b*q = s - 2*a*p gives
    c = (v - level*p^2*u - p*s) / q^2, so the pair and the sign s = +-t give
    a form exactly when v - level*p^2*u = p*s (mod q^2).  Then b is
    (s + 2*level*u*p) / q, integral because b^2 = delta + 4*a*c is, and
    Q(p, q) = v > 0, so no value test follows; t and -t share m, so one
    divisor list serves both.
    """
    square, step = q * q, level * p * p
    for t, m in _classes(level, delta * square):
        up, down = p * t % square, -p * t % square
        for u in divisors(m):
            base = m // u - step * u
            rest = base % square
            if rest == up:
                yield u, t, (base - p * t) // square
            if rest == down and t:
                yield u, -t, (base + p * t) // square


def enumerate_forms(level: int, delta: int, x) -> tuple:
    """Each form [a, b, c] of discriminant delta with level | a, a < 0 and
    Q(p, q) > 0, as a tuple of Form sorted ascending by (a, b, c), so equal
    sets compare equal (see _pairs)."""
    x = _check_args(level, delta, x)
    p, q = x.numerator, x.denominator
    twice = 2 * level * p
    return tuple(sorted(Form(-level * u, (s + twice * u) // q, c)
                        for u, s, c in _pairs(level, delta, p, q)))


def character_sum(level: int, delta: int, x, factors: tuple) -> tuple:
    """(value, count): the sum of character(factors, a, c) over the forms
    [a, b, c] of enumerate_forms(level, delta, x), and their number, with no
    form built.  At x = p/q it reads the forms of _pairs through _reads; at
    x = 0 see _sum_at_zero.
    """
    x = _check_args(level, delta, x)
    p, q = x.numerator, x.denominator
    if p == 0:
        return _sum_at_zero(level, delta, factors)
    reads = _reads(level, factors)
    span = len(reads)
    value = count = 0
    for u, _, c in _pairs(level, delta, p, q):
        chi, c_reads = reads[u % span]
        for modulus, table in c_reads:
            chi *= table[c % modulus]
        value += chi
        count += 1
    return value, count


def _reads(level: int, factors: tuple) -> list:
    """Per residue of u mod |D0|, character(factors, a, c) at a = -level*u
    split in two: the product of the factors read from a, and the
    (|p*|, table) of the factors read from c."""
    span = math.prod(modulus for _, modulus, _ in factors)
    reads = []
    for r in range(span):
        a = -level * r
        chi, c_reads = 1, []
        for prime, modulus, table in factors:
            if a % prime:
                chi *= table[a % modulus]
            else:
                c_reads.append((modulus, table))
        reads.append((chi, tuple(c_reads)))
    return reads


def _sum_at_zero(level: int, delta: int, factors: tuple) -> tuple:
    """character_sum at x = 0, from factorize(m) alone.

    At x = 0 every divisor pair (u, m/u) of m(t) gives the form [-level*u,
    +-t, m/u].  Split m = m0 * (its D0-part, over the primes of D0) and
    u = u0 * u1 to match.  As u0 is prime to D0, (p* | m0/u0) =
    (p* | m0)(p* | u0), so the pair's character is
    chi_D0(u0) * character(factors, -level*u1, m // u1).  The sum of chi_D0
    over the divisors u0 of m0 is the product over l^e || m0 of e + 1 when
    chi_D0(l) = 1, else [e even].  A u1 holding some but not all of a prime
    of D0 puts it in both a and c, where character reads 0.
    """
    span = math.prod(modulus for _, modulus, _ in factors)
    chi_d0 = [character(factors, r, r) for r in range(span)]
    value = count = 0
    for t, m in _classes(level, delta):
        weight = 2 if t else 1
        exps = factorize(m)
        tau = twisted = 1
        for ell, e in exps.items():
            tau *= e + 1
            chi = chi_d0[ell % span]  # 0 exactly at the primes of D0
            if chi == 1:
                twisted *= e + 1
            elif chi == -1 and e % 2:
                twisted = 0
        count += weight * tau
        if twisted:
            parts = [1]
            for prime, _, _ in factors:
                parts = [u * prime ** k for u in parts for k in range(exps.get(prime, 0) + 1)]
            value += weight * twisted * sum(character(factors, -level * u1, m // u1)
                                            for u1 in parts)
    return value, count
