"""Acceptance gate: the eight headline checks, one per test, each printing a
single pass/fail line with its runtime.

Runtime budgets follow the published workloads: everything here runs in the
default suite except the largest table rows (|D| from 8e5 up to 4.05e7),
which sit behind the opt-in `slow` marker.
"""

import math
import random
import time
from fractions import Fraction
from math import gcd

import numpy as np
import pytest

from lcrit.arith import is_fundamental_discriminant, is_prime, is_square, kronecker
from lcrit.criterion import (
    LEVELS,
    Congruence,
    Cubes,
    Vanishing,
    congruent_verdict,
    cubes_verdict,
    f_sum,
    is_good,
    level_data,
    parity_test,
    table_condition,
    vanishing_verdict,
)
from lcrit.genus import genus_character
from lcrit.oracle import (
    CurveModel,
    OracleVerdict,
    estimate_l_value,
    eta_coefficients,
    extend_multiplicatively,
)
from lcrit.newformdata import load_newform_data
from lcrit.quadforms import Form, discriminant, enumerate_forms
from lcrit.reference import CUBES_ROWS, MAINCOR_ROWS, PRIMES_ROWS
from test_genus import _box_character
from test_quadforms import enumerate_forms_bruteforce, homogeneous_value


def _criterion(num, description, budget, body):
    """Run one acceptance check and emit exactly one pass/fail line."""
    t0 = time.monotonic()
    try:
        body()
        elapsed = time.monotonic() - t0
        if budget is not None:
            assert elapsed < budget, f"took {elapsed:.1f}s, budget {budget}s"
    except BaseException:
        print(f"criterion {num}: FAIL - {description}")
        raise
    print(f"criterion {num}: PASS ({elapsed:.2f}s) - {description}")


def _check_rows(level, rows):
    data = level_data(level)
    for d, f1, f2, *_ in rows:
        e1 = f_sum(level, data.d0, d, data.x1)
        e2 = f_sum(level, data.d0, d, data.x2)
        assert (e1.value, e2.value) == (f1, f2), (level, d, e1.value, e2.value)


def test_criterion_1_congruent_table_small():
    def body():
        rows = [r for r in MAINCOR_ROWS if abs(r[0]) <= 4219]
        assert len(rows) == 7
        _check_rows(32, rows)
        for d, _, _, tag in rows:
            v = congruent_verdict(-d)
            expected = (Congruence.CONGRUENT_ASSUMING_BSD if tag == "congruent"
                        else Congruence.PROVEN_NON_CONGRUENT)
            assert v.outcome is expected, d
    _criterion(1, "congruent-number table rows through |D| = 4219, exact", 30, body)


def test_criterion_2_congruent_table_extended():
    def body():
        rows = [r for r in MAINCOR_ROWS if abs(r[0]) in (80011, 80155)]
        assert [(r[1], r[2]) for r in rows] == [(28, 40), (24, 32)]
        _check_rows(32, rows)
    _criterion(2, "congruent-number table rows at |D| = 8e4, exact", 600, body)


@pytest.mark.slow
def test_criterion_2_slow_rows():
    def body():
        rows = [r for r in MAINCOR_ROWS if abs(r[0]) > 10 ** 5]
        assert len(rows) == 5
        _check_rows(32, rows)
        for d, _, _, tag in rows:
            v = congruent_verdict(-d)
            expected = (Congruence.CONGRUENT_ASSUMING_BSD if tag == "congruent"
                        else Congruence.PROVEN_NON_CONGRUENT)
            assert v.outcome is expected, d
    _criterion("2-slow", "congruent-number table rows at |D| = 8e5..8e6, exact",
               None, body)


def test_criterion_3_primes_table():
    def body():
        rows = [r for r in PRIMES_ROWS if r[0] <= 5939]
        assert len(rows) == 6
        for p, f0, f13 in rows:
            e0 = f_sum(32, -3, -p, 0)
            e13 = f_sum(32, -3, -p, Fraction(1, 3))
            assert (e0.value, e13.value) == (f0, f13), p
            assert e0.value % 2 == 0, p
            assert e13.value % 2 == 1, p
            assert parity_test(p).proven_noncongruent, p
    _criterion(3, "prime-discriminant table through p = 5939; parity pattern", 60, body)


@pytest.mark.slow
def test_criterion_3_slow_rows():
    def body():
        rows = [r for r in PRIMES_ROWS if r[0] > 5939]
        assert len(rows) == 8
        for p, f0, f13 in rows:
            e0 = f_sum(32, -3, -p, 0)
            e13 = f_sum(32, -3, -p, Fraction(1, 3))
            assert (e0.value, e13.value) == (f0, f13), p
            assert e0.value % 2 == 0 and e13.value % 2 == 1, p
            assert parity_test(p).proven_noncongruent, p
    _criterion("3-slow", "prime-discriminant table rows p = 7.5e4..4.05e7", None, body)


def test_criterion_4_cubes_table():
    def body():
        rows = [r for r in CUBES_ROWS if abs(r[0]) <= 3115]
        assert len(rows) == 7
        _check_rows(27, rows)
        for d, _, _, tag in rows:
            v = cubes_verdict(-d)
            expected = (Cubes.INFINITE_ASSUMING_BSD if tag == "infinite"
                        else Cubes.FINITE_PROVEN)
            assert v.outcome is expected, d
    _criterion(4, "two-cubes table rows through |D| = 3115, exact", 120, body)


@pytest.mark.slow
def test_criterion_4_slow_rows():
    def body():
        rows = [r for r in CUBES_ROWS if abs(r[0]) > 3115]
        assert len(rows) == 9
        _check_rows(27, rows)
        for d, _, _, tag in rows:
            v = cubes_verdict(-d)
            expected = (Cubes.INFINITE_ASSUMING_BSD if tag == "infinite"
                        else Cubes.FINITE_PROVEN)
            assert v.outcome is expected, d
    _criterion("4-slow", "two-cubes table rows at |D| = 3e4..3e6, exact", None, body)


def test_criterion_5_registry_lists():
    def body():
        for level in LEVELS:
            row = level_data(level)
            for m in row.noninvariant_m:
                d = -m
                if d % 4 not in (0, 1) or is_square(m * -row.d0):
                    continue
                e1 = f_sum(level, row.d0, d, row.x1)
                e2 = f_sum(level, row.d0, d, row.x2)
                assert e1.value != e2.value, (level, m)
            for m in row.underlined_m:
                # the underline column follows the printed row condition; at a
                # few levels that is strictly wider than the section-rules
                # predicate, so goodness is checked one-sidedly below
                d = -m
                if not is_fundamental_discriminant(d) or gcd(m, level) > 1:
                    continue
                if not table_condition(level, d):
                    continue
                v = vanishing_verdict(level, d)
                assert v.outcome is Vanishing.L_NONZERO, (level, m)
                if d % 2 and is_good(level, d):
                    assert table_condition(level, d), (level, m)
    _criterion(5, "registry lists break invariance; underlined entries nonzero",
               300, body)


def test_criterion_6_enumeration_equivalence():
    def body():
        rng = random.Random(60100)
        points = (Fraction(0), Fraction(1, 2), Fraction(1, 3), Fraction(1, 7))
        for _ in range(500):
            level = rng.choice(tuple(LEVELS))
            x = rng.choice(points)
            while True:
                delta = rng.randint(3, 4000)
                if delta % 4 in (0, 1) and not is_square(delta):
                    break
            fast = enumerate_forms(level, delta, x)
            slow = enumerate_forms_bruteforce(level, delta, x, slack=1)
            assert fast == slow, (level, delta, x)
            p, q = x.numerator, x.denominator
            for form in fast:
                a, b, c = form
                value = homogeneous_value(form, p, q)
                assert value > 0 and a < 0 and a % level == 0
                assert discriminant(form) == delta
                assert delta * q * q == (b * q + 2 * a * p) ** 2 + 4 * (-a) * value
    _criterion(6, "500 random cases: divisor-pair vs brute-force enumeration",
               None, body)


def test_criterion_7_genus_character_suites():
    def body():
        rng = random.Random(60200)
        for _ in range(500):
            d0 = rng.choice((-3, -4, -7, -11, -19))
            while True:
                form = Form(rng.randint(-40, 40), rng.randint(-40, 40),
                            rng.randint(-40, 40))
                disc = discriminant(form)
                if (disc != 0 and abs(disc) <= 5000 and disc % d0 == 0
                        and (disc // d0) % 4 in (0, 1)
                        and gcd(gcd(form.a, form.b), gcd(form.c, d0)) == 1):
                    break
            expected = genus_character(d0, form)
            assert expected in (-1, 1)
            # representative independence over a whole coordinate box
            values = set()
            for u in range(-3, 4):
                for v in range(-3, 4):
                    r = form.a * u * u + form.b * u * v + form.c * v * v
                    if gcd(r, d0) == 1:
                        values.add(kronecker(d0, r))
            assert values == {expected}, (d0, form)
            # invariance under 20 random unimodular substitutions
            for _ in range(20):
                m = (1, 0, 0, 1)
                for _ in range(8):
                    if rng.random() < 0.5:
                        k = rng.choice((-1, 1))
                        m = (m[0], m[1] + k * m[0], m[2], m[3] + k * m[2])
                    else:
                        m = (m[1], -m[0], m[3], -m[2])
                a, b, c = form
                p, q, r, s = m
                moved = Form(a * p * p + b * p * r + c * r * r,
                             2 * a * p * q + b * (p * s + q * r) + 2 * c * r * s,
                             a * q * q + b * q * s + c * s * s)
                assert genus_character(d0, moved) == expected, (d0, form, m)
            # the closed form agrees with the coordinate-box search
            assert _box_character(d0, form) == expected, (d0, form)
    _criterion(7, "genus character well-definedness, SL2 invariance, box-search reference",
               None, body)


def test_criterion_8_oracle_concordance():
    def body():
        cases = set()
        for d, _, _, _ in MAINCOR_ROWS:
            cases.add((32, d))
        for p, _, _ in PRIMES_ROWS:
            cases.add((32, -p))
        for d, _, _, _ in CUBES_ROWS:
            cases.add((27, d))
        cases = sorted((lvl, d) for lvl, d in cases
                       if abs(d) <= 5000 and is_fundamental_discriminant(d))
        assert len(cases) == 15
        zeros = set()
        for level, d in cases:
            criterion_says = vanishing_verdict(level, d).outcome
            oracle_says = estimate_l_value(level, d).verdict
            assert oracle_says is not OracleVerdict.INDETERMINATE, (level, d)
            expected = (OracleVerdict.ZERO if criterion_says is Vanishing.L_VANISHES
                        else OracleVerdict.NONZERO)
            assert oracle_says is expected, (level, d)
            if oracle_says is OracleVerdict.ZERO:
                zeros.add((level, d))
        assert zeros == {(32, -219), (32, -371), (27, -31), (27, -283), (27, -3115)}
        # independent coefficient routes agree at the two verdict levels
        for level in (27, 32):
            curve = CurveModel.from_source(load_newform_data()[level])
            ap = {}
            for p in range(2, 201):
                if not is_prime(p):
                    continue
                count = 1
                for x in range(p):
                    rhs = (x ** 3 + curve.a2 * x * x + curve.a4 * x + curve.a6) % p
                    for y in range(p):
                        if (y * y + curve.a1 * x * y + curve.a3 * y) % p == rhs:
                            count += 1
                ap[p] = p + 1 - count
            assert np.array_equal(extend_multiplicatively(ap, level, 200).a,
                                  eta_coefficients(level, 200).a), level
    _criterion(8, "oracle verdicts match the criterion on all table rows, |D| <= 5000",
               300, body)
