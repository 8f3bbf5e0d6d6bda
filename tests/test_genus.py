"""Genus character evaluation: representative independence, SL2 invariance,
the sign flip under negation, and agreement of the closed-form rule with a
coordinate-box search for a represented value coprime to D0."""

import random
from math import gcd

import pytest

from lcrit.arith import factorize, is_fundamental_discriminant, is_square, kronecker
from lcrit.criterion import LEVELS
from lcrit.errors import PreconditionError
from lcrit.genus import genus_character
from lcrit.quadforms import Form, discriminant, enumerate_forms

FUNDAMENTALS = (-3, -4, -7, -11, -19)


def test_worked_values():
    assert genus_character(-3, Form(-32, 17, -2)) == 1
    # gcd(a, b, c, D0) = 3 kills the character
    assert genus_character(-3, Form(-3, 3, 3)) == 0
    assert genus_character(-4, Form(-27, 2, 1)) == 1


def test_preconditions():
    with pytest.raises(PreconditionError):
        genus_character(-6, Form(1, 0, 1))
    with pytest.raises(PreconditionError):
        genus_character(9, Form(1, 0, 1))
    # -3 does not divide disc([1,0,1]) = -4
    with pytest.raises(PreconditionError):
        genus_character(-3, Form(1, 0, 1))
    # disc/D0 must itself be a discriminant: -8/-4 = 2 and 4/-4 = -1 are not
    with pytest.raises(PreconditionError):
        genus_character(-4, Form(1, 0, 2))
    with pytest.raises(PreconditionError):
        genus_character(-4, Form(1, 2, 0))


def _random_form(rng, d0, span=40, disc_cap=5000):
    """Rejection-sample a form whose discriminant is d0 times a discriminant,
    with gcd(a, b, c, d0) = 1 so the character is a genuine +-1."""
    while True:
        form = Form(rng.randint(-span, span), rng.randint(-span, span),
                    rng.randint(-span, span))
        disc = discriminant(form)
        if disc == 0 or abs(disc) > disc_cap or disc % d0:
            continue
        if (disc // d0) % 4 not in (0, 1):
            continue
        if gcd(gcd(form.a, form.b), gcd(form.c, d0)) > 1:
            continue
        return form


def test_representative_independence():
    # every coprime represented value in a whole box gives the same symbol
    rng = random.Random(40300)
    for _ in range(500):
        d0 = rng.choice(FUNDAMENTALS)
        form = _random_form(rng, d0)
        expected = genus_character(d0, form)
        assert expected in (-1, 1)
        seen = set()
        for u in range(-4, 5):
            for v in range(-4, 5):
                r = form.a * u * u + form.b * u * v + form.c * v * v
                if gcd(r, d0) == 1:
                    seen.add(kronecker(d0, r))
        assert seen == {expected}, (d0, form)


def _random_unimodular(rng, steps=8):
    # random word in the generators [[1,±1],[0,1]] and [[0,-1],[1,0]]
    m = (1, 0, 0, 1)
    for _ in range(steps):
        if rng.random() < 0.5:
            k = rng.choice((-1, 1))
            m = (m[0], m[1] + k * m[0], m[2], m[3] + k * m[2])
        else:
            m = (m[1], -m[0], m[3], -m[2])
    return m


def _transform(form, m):
    """Coefficients of Q((x,y) * gamma) for gamma = [[p, q], [r, s]]."""
    a, b, c = form
    p, q, r, s = m
    return Form(a * p * p + b * p * r + c * r * r,
                2 * a * p * q + b * (p * s + q * r) + 2 * c * r * s,
                a * q * q + b * q * s + c * s * s)


def test_sl2_invariance():
    rng = random.Random(40301)
    for _ in range(50):
        d0 = rng.choice(FUNDAMENTALS)
        form = _random_form(rng, d0)
        expected = genus_character(d0, form)
        for _ in range(20):
            m = _random_unimodular(rng)
            assert m[0] * m[3] - m[1] * m[2] == 1
            moved = _transform(form, m)
            assert discriminant(moved) == discriminant(form)
            assert genus_character(d0, moved) == expected, (d0, form, m)


def test_negation_flips_sign():
    # for D0 < 0 the character is odd: chi(-Q) = -chi(Q)
    rng = random.Random(40302)
    for _ in range(200):
        d0 = rng.choice(FUNDAMENTALS)
        form = _random_form(rng, d0)
        neg = Form(-form.a, -form.b, -form.c)
        assert genus_character(d0, neg) == -genus_character(d0, form)


def test_character_zero_iff_common_factor():
    rng = random.Random(40304)
    checked = 0
    while checked < 300:
        d0 = rng.choice(FUNDAMENTALS)
        form = Form(rng.randint(-30, 30), rng.randint(-30, 30),
                    rng.randint(-30, 30))
        disc = discriminant(form)
        if disc == 0 or disc % d0 or (disc // d0) % 4 not in (0, 1):
            continue
        value = genus_character(d0, form)
        common = gcd(gcd(form.a, form.b), gcd(form.c, d0))
        assert (value == 0) == (common > 1), (d0, form)
        checked += 1


def _box_character(d0, form):
    """Reference chi_{D0}(Q): zero when gcd(a, b, c, D0) > 1, otherwise
    (D0 | r) at the first represented value r = Q(u, v) coprime to D0 found
    in growing coordinate boxes max(|u|, |v|) = 1, 2, ..."""
    a, b, c = form
    if gcd(gcd(a, b), gcd(c, d0)) > 1:
        return 0
    for box in range(1, abs(d0) + 3):
        for u in range(-box, box + 1):
            for v in range(-box, box + 1):
                if max(abs(u), abs(v)) != box:
                    continue
                r = a * u * u + b * u * v + c * v * v
                if gcd(r, d0) == 1:
                    return kronecker(d0, r)
    raise AssertionError(f"no represented value coprime to {d0} found for {form}")


def _forms_over(rng, d0, span):
    """A random form whose discriminant is d0 times a nonzero discriminant:
    a and b at random, c among the values in range that make it so (that
    depends on c mod |d0| only, so a span of |d0| reaches every class)."""
    while True:
        a, b = rng.randint(-span, span), rng.randint(-span, span)
        cs = [c for c in range(-span, span + 1)
              if (disc := b * b - 4 * a * c) and disc % d0 == 0 and (disc // d0) % 4 in (0, 1)]
        if cs:
            return Form(a, b, rng.choice(cs))


def test_closed_form_matches_box_search_random():
    # every fundamental D0 with |D0| < 200, of both signs, prime or composite
    rng = random.Random(40305)
    d0s = [d for d in range(-199, 200) if is_fundamental_discriminant(d)]
    assert len(d0s) == 122 and -3 in d0s and 5 in d0s and -120 in d0s
    zeros = 0
    for d0 in d0s:
        for _ in range(60):
            form = _forms_over(rng, d0, max(abs(d0), 20))
            value = genus_character(d0, form)
            assert value == _box_character(d0, form), (d0, form)
            zeros += value == 0
        # scaling by a prime p | D0 keeps disc/D0 a discriminant and kills chi
        for p in factorize(abs(d0)):
            scaled = Form(p * form.a, p * form.b, p * form.c)
            assert genus_character(d0, scaled) == _box_character(d0, scaled) == 0
    assert zeros > 100


def _enumerated_forms_agree(bound):
    # every form of every S_{N, D*D0}(x) that f_sum accepts, at x1 and x2
    checked = 0
    for level, row in LEVELS.items():
        for d in range(-3, -bound, -1):
            delta = d * row.d0
            if d % 4 not in (0, 1) or delta <= 0 or is_square(delta):
                continue
            for x in (row.x1, row.x2):
                for form in enumerate_forms(level, delta, x):
                    assert genus_character(row.d0, form) == _box_character(row.d0, form), \
                        (level, d, x, form)
                    checked += 1
    return checked


def test_closed_form_matches_box_search_enumerated():
    assert _enumerated_forms_agree(400) == 26581


@pytest.mark.slow
def test_closed_form_matches_box_search_enumerated_large():
    assert _enumerated_forms_agree(1500) == 265415
