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
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise PreconditionError(f"cannot interpret {x!r} as a rational point")


def discriminant(form: Form) -> int:
    a, b, c = form
    return b * b - 4 * a * c


def homogeneous_value(form: Form, p: int, q: int) -> int:
    """Integer value of the homogenized form at (p, q)."""
    a, b, c = form
    return a * p * p + b * p * q + c * q * q


def _check_args(level: int, delta: int, x) -> Fraction:
    if level < 1:
        raise PreconditionError(f"level must be >= 1, got {level}")
    if delta <= 0 or delta % 4 not in (0, 1):
        raise PreconditionError(f"Delta must be a positive discriminant, got {delta}")
    if is_square(delta):
        raise PreconditionError(f"Delta must be nonsquare, got {delta} = {math.isqrt(delta)}^2")
    return as_point(x)


def enumerate_forms(level: int, delta: int, x) -> tuple:
    """All forms [a, b, c] of discriminant delta with level | a, a < 0 and
    Q(p, q) > 0, via the divisor-pair identity above, as a tuple sorted
    ascending by (a, b, c), so equal sets compare equal.

    For each admissible t = b*q + 2*a*p the quantity
    n = (delta*q^2 - t^2) / 4 factors as (-a) * Q(p, q), and level | a forces
    level | n; every -a is then level*d for a divisor d of n/level, and b, c
    are determined by t and the discriminant.  Once c is integral the
    identity gives Q(p, q) = n / (-a) > 0, so no value test follows.
    """
    x = _check_args(level, delta, x)
    p, q = x.numerator, x.denominator
    cap = delta * q * q
    tmax = math.isqrt(cap - 1)
    found = []
    for t in range(-tmax, tmax + 1):
        rem = cap - t * t
        if rem % 4:
            continue
        n = rem // 4
        if n % level:
            continue
        for d in divisors(n // level):
            big_a = level * d
            num = t + 2 * big_a * p
            if num % q:
                continue
            b = num // q
            a = -big_a
            cnum = b * b - delta
            if cnum % (4 * a):
                continue
            found.append(Form(a, b, cnum // (4 * a)))
    found.sort()
    return tuple(found)


def enumerate_forms_bruteforce(level: int, delta: int, x, slack: int = 1) -> tuple:
    """Reference enumeration by direct scan over a covering coefficient box.

    The box |a| <= slack*delta*q^2, |b*q + 2*a*p| <= slack*q*isqrt(delta) + q
    strictly contains the region the identity allows (slack = 1 already
    suffices; larger slack widens the box to test that claim).  Intended only
    for cross-checking enumerate_forms.
    """
    if slack < 1:
        raise PreconditionError(f"slack must be >= 1, got {slack}")
    x = _check_args(level, delta, x)
    p, q = x.numerator, x.denominator
    acap = slack * delta * q * q
    tcap = slack * q * math.isqrt(delta) + q
    found = []
    for big_a in range(level, acap + 1, level):
        a = -big_a
        shift = 2 * a * p
        blo = -((tcap + shift) // q)
        bhi = (tcap - shift) // q
        four_a = 4 * a
        for b in range(blo, bhi + 1):
            cnum = b * b - delta
            if cnum % four_a:
                continue
            c = cnum // four_a
            if a * p * p + b * p * q + c * q * q > 0:
                found.append(Form(a, b, c))
    found.sort()
    return tuple(found)
