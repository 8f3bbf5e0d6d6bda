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
"""

import math
from fractions import Fraction
from typing import NamedTuple

from .arith import divisors, is_square
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


def iter_forms(level: int, delta: int, x):
    """Yield each form [a, b, c] of discriminant delta with level | a, a < 0
    and Q(p, q) > 0 once, as a plain (a, b, c) tuple, in no particular order.

    For each admissible t = b*q + 2*a*p the quantity
    n = (delta*q^2 - t^2) / 4 factors as (-a) * Q(p, q), and level | a forces
    4*level | delta*q^2 - t^2; every -a is then level*d for a divisor d of
    n/level, and b, c are determined by t and the discriminant.  Once c is
    integral the identity gives Q(p, q) = n / (-a) > 0, so no value test
    follows.  Since t mod 2*level fixes t^2 mod 4*level, only the residue
    classes r mod 2*level with r^2 = delta*q^2 (mod 4*level) are visited, and
    t and -t share n, so one divisor list serves both.
    """
    x = _check_args(level, delta, x)
    p, q = x.numerator, x.denominator
    cap = delta * q * q
    tmax = math.isqrt(cap - 1)
    period = 2 * level
    modulus = 2 * period
    target = cap % modulus
    for r in range(period):
        if r * r % modulus != target:
            continue
        for t in range(r, tmax + 1, period):
            signed = (t, -t) if t else (t,)
            for d in divisors((cap - t * t) // modulus):
                big_a = level * d
                shift = 2 * big_a * p
                four_a = -4 * big_a
                for s in signed:
                    num = s + shift
                    if num % q:
                        continue
                    b = num // q
                    cnum = b * b - delta
                    if cnum % four_a:
                        continue
                    yield -big_a, b, cnum // four_a


def enumerate_forms(level: int, delta: int, x) -> tuple:
    """All forms of iter_forms(level, delta, x) as a tuple of Form sorted
    ascending by (a, b, c), so equal sets compare equal."""
    return tuple(sorted(map(Form._make, iter_forms(level, delta, x))))
