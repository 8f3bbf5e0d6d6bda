"""Binary quadratic form type and the divisor-pair enumerator that realizes
the finite sums S_{N,Delta}(x), checked against a brute-force box search."""

import math
import random
from fractions import Fraction

import pytest

from lcrit.errors import PreconditionError
from lcrit.genus import genus_character
from lcrit.quadforms import Form, as_point, discriminant, enumerate_forms

LEVELS = (11, 14, 15, 17, 19, 20, 21, 24, 27, 32, 36, 49)


def homogeneous_value(form, p, q):
    """Reference: integer value of the homogenized form at (p, q)."""
    a, b, c = form
    return a * p * p + b * p * q + c * q * q


def enumerate_forms_bruteforce(level, delta, x, slack=1):
    """Reference enumeration by direct scan over a covering coefficient box.

    The box |a| <= slack*delta*q^2, |b*q + 2*a*p| <= slack*q*isqrt(delta) + q
    strictly contains the region the identity allows (slack = 1 already
    suffices; larger slack widens the box to test that claim).
    """
    if slack < 1:
        raise PreconditionError(f"slack must be >= 1, got {slack}")
    x = as_point(x)
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


def test_discriminant_worked_values():
    assert discriminant(Form(-32, 17, -2)) == 33
    assert discriminant(Form(1, 0, 0)) == 0
    assert discriminant(Form(0, 1, 0)) == 1


def test_homogeneous_value_worked_values():
    assert homogeneous_value(Form(-32, 17, -2), 1, 3) == 1
    assert homogeneous_value(Form(5, -7, 9), 0, 1) == 9
    assert homogeneous_value(Form(-32, 17, -2), 1, 1) == -17


def test_as_point_coercions():
    assert as_point(0) == Fraction(0, 1)
    assert as_point("1/3") == Fraction(1, 3)
    assert as_point(Fraction(2, 6)) == Fraction(1, 3)
    with pytest.raises(PreconditionError):
        as_point(0.5)
    for bad in ("1/0", "abc"):
        with pytest.raises(PreconditionError, match=repr(bad)):
            as_point(bad)


def test_enumerate_worked_examples():
    assert enumerate_forms(32, 33, Fraction(1, 3)) == (Form(-32, 17, -2),)
    assert len(enumerate_forms(32, 33, 0)) == 0
    assert len(enumerate_forms(32, 12, 0)) == 0


def test_bruteforce_worked_examples():
    assert enumerate_forms_bruteforce(32, 33, Fraction(1, 3), slack=2) == (Form(-32, 17, -2),)
    assert len(enumerate_forms_bruteforce(32, 33, 0, slack=2)) == 0
    got = enumerate_forms_bruteforce(27, 28, Fraction(1, 2), slack=2)
    assert len(got) >= 2
    assert sum(genus_character(-4, form) for form in got) == 2


def test_rejects_bad_delta():
    for bad in (7, 14, -4, 0):
        with pytest.raises(PreconditionError):
            enumerate_forms(11, bad, 0)
    # perfect squares excluded by the nonsquare hypothesis
    for sq in (4, 9, 16, 36, 144):
        with pytest.raises(PreconditionError):
            enumerate_forms(11, sq, 0)
    with pytest.raises(PreconditionError):
        enumerate_forms(0, 33, 0)
    with pytest.raises(PreconditionError):
        enumerate_forms_bruteforce(32, 33, 0, slack=0)


def _random_case(rng):
    level = rng.choice(LEVELS)
    x = rng.choice((Fraction(0), Fraction(1, 2), Fraction(1, 3), Fraction(1, 7)))
    while True:
        delta = rng.randint(3, 4000)
        root = math.isqrt(delta)
        if delta % 4 in (0, 1) and root * root != delta:
            return level, delta, x


def test_enumerators_agree_on_random_cases():
    rng = random.Random(31101)
    for _ in range(100):
        level, delta, x = _random_case(rng)
        fast = enumerate_forms(level, delta, x)
        slow = enumerate_forms_bruteforce(level, delta, x, slack=1)
        assert fast == slow, (level, delta, x)


def test_enumerators_agree_off_the_registry_points():
    # points no registry row uses: negative, q > 1 with p > 1, integral
    rng = random.Random(31104)
    points = tuple(map(Fraction, ("-1/3", "2/7", "5/2", "1", "-2")))
    t_zero_forms = 0
    for level in LEVELS:
        # 4*level | delta makes the t = 0 class admissible at every point
        pinned = 4 * level * (2 if math.isqrt(level) ** 2 == level else 1)
        for x in points:
            while True:
                delta = rng.randint(3, 2000)
                if delta % 4 in (0, 1) and math.isqrt(delta) ** 2 != delta:
                    break
            for d in (delta, pinned):
                fast = enumerate_forms(level, d, x)
                assert fast == enumerate_forms_bruteforce(level, d, x), (level, d, x)
                t_zero_forms += sum(b * x.denominator + 2 * a * x.numerator == 0
                                    for a, b, _ in fast)
    assert t_zero_forms > 0


def test_membership_and_identity_per_form():
    rng = random.Random(31102)
    for _ in range(60):
        level, delta, x = _random_case(rng)
        p, q = x.numerator, x.denominator
        for form in enumerate_forms(level, delta, x):
            a, b, c = form
            m = homogeneous_value(form, p, q)
            assert a < 0 and a % level == 0
            assert m > 0
            assert discriminant(form) == delta
            # the bounding identity that makes the enumeration finite
            assert delta * q * q == (b * q + 2 * a * p) ** 2 + 4 * (-a) * m


def test_determinism_and_ordering():
    first = enumerate_forms(11, 3 * 11 * 4, Fraction(1, 2))
    second = enumerate_forms(11, 3 * 11 * 4, Fraction(1, 2))
    assert first == second
    assert isinstance(first, tuple)
    assert list(first) == sorted(first)
    assert all(isinstance(f, Form) for f in first)


def test_bruteforce_slack_stability():
    # widening the box must never add forms: the slack=1 box is complete
    rng = random.Random(31103)
    for _ in range(12):
        level, delta, x = _random_case(rng)
        base = enumerate_forms_bruteforce(level, delta, x, slack=1)
        wide = enumerate_forms_bruteforce(level, delta, x, slack=2)
        assert base == wide, (level, delta, x)
