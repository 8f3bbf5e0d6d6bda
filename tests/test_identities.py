"""Exact ternary-form identities for the difference of the two registry sums.

At eight levels, F(x1) - F(x2) is a fixed combination of r_Q(n), the number
of integer solutions of Q(x, y, z) = n for a diagonal ternary form Q, with
n = |D|.  At level 32 this is Tunnell's theorem (Invent. Math. 72, 1983);
at 21 and 27 the two forms have equal determinant.  At 14, 15, 20, 24 and
36 the difference is a multiple of r_3 = r_{x^2+y^2+z^2}, a class number,
so there the sums do not follow L(E_D, 1).  These tests record what the code
computes; they change no verdict.
"""

from fractions import Fraction
from math import gcd, isqrt

import pytest

from lcrit.arith import is_fundamental_discriminant
from lcrit.criterion import LEVELS, compare, table_condition
from lcrit.reference import CUBES_ROWS, MAINCOR_ROWS, PRIMES_ROWS


def r(n, *coefficients):
    """Solutions of a*x^2 + b*y^2 + c*z^2 = n: loop over y and z, the two
    variables with the largest coefficients, and solve for x."""
    a, b, c = sorted(coefficients)
    total = 0
    for z in range(isqrt(n // c) + 1):
        rest_z = n - c * z * z
        for y in range(isqrt(rest_z // b) + 1):
            rest, odd = divmod(rest_z - b * y * y, a)
            if odd:
                continue
            x = isqrt(rest)
            if x * x == rest:
                total += (2 if x else 1) * (2 if y else 1) * (2 if z else 1)
    return total


def r3(n):
    return r(n, 1, 1, 1)


# level -> F(x1) - F(x2) as a function of n = |D|
IDENTITIES = {
    32: lambda n: Fraction(2 * r(n, 1, 2, 32) - r(n, 1, 2, 8), 4),
    27: lambda n: Fraction(r(n, 1, 12, 27) - r(n, 1, 3, 108), 2),
    21: lambda n: Fraction(r(n, 3, 7, 84) - 2 * r(n, 3, 21, 28)),
    14: lambda n: Fraction(r3(n), 12),
    20: lambda n: Fraction(r3(n), 6),
    36: lambda n: Fraction(r3(n), 6),
    24: lambda n: Fraction(-r3(n), 4),
    15: lambda n: Fraction(r(n, 1, 3, 3), 8) - Fraction(r3(n), 24),
}

# rows below |D| = 4000 at each level
ROW_COUNTS = {32: 404, 27: 305, 21: 133, 14: 352, 20: 166, 36: 152, 24: 152, 15: 128}


def _rows(level):
    """Odd fundamental D < 0, prime to the level, meeting its table
    condition; D = D0 is left out, since D*D0 is then a square."""
    return [d for d in range(-3, -4000, -4)
            if is_fundamental_discriminant(d) and gcd(-d, level) == 1
            and table_condition(level, d) and d != LEVELS[level].d0]


@pytest.mark.parametrize("level", sorted(IDENTITIES))
def test_sum_difference_is_a_ternary_count(level):
    rows = _rows(level)
    assert len(rows) == ROW_COUNTS[level]
    mismatches = []
    for d in rows:
        v = compare(level, d)
        got, want = v.f_x1 - v.f_x2, IDENTITIES[level](-d)
        if got != want:
            mismatches.append((d, got, want))
    assert mismatches == []


@pytest.mark.slow
def test_frozen_table_rows_obey_the_identities():
    # the frozen values, |D| < 10^7; on the two even cubes rows the
    # level-27 difference is exactly the negative of the odd-row formula
    rows = ([(32, d, f1, f2) for d, f1, f2, _ in MAINCOR_ROWS]
            + [(32, -p, f1, f2) for p, f1, f2 in PRIMES_ROWS]
            + [(27, d, f1, f2) for d, f1, f2, _ in CUBES_ROWS])
    checked = 0
    for level, d, f1, f2 in rows:
        if -d >= 10 ** 7:
            continue
        sign = -1 if d % 2 == 0 else 1
        assert f1 - f2 == sign * IDENTITIES[level](-d), (level, d)
        checked += 1
    assert checked == 42
