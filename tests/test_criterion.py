"""Level registry, exact F sums, goodness predicates, and the derived
verdicts (vanishing, congruent numbers, parity, sums of two cubes)."""

import math
import random
from fractions import Fraction
from math import gcd

import pytest

from lcrit.arith import factorize, is_fundamental_discriminant, is_square, kronecker
from lcrit.criterion import (
    LEVELS,
    Congruence,
    Cubes,
    Vanishing,
    compare,
    congruent_verdict,
    cubes_verdict,
    f_sum,
    is_good,
    level_data,
    parity_test,
    table_condition,
    vanishing_verdict,
)
from lcrit.errors import PreconditionError
from lcrit.genus import genus_character
from lcrit.quadforms import enumerate_forms
from test_quadforms import enumerate_forms_bruteforce

# one registry row per dimension-one level: (D0, x1, x2, brief list of
# non-invariant m, underlined subset)
EXPECTED_ROWS = {
    11: (-3, 0, Fraction(1, 3),
         (4, 11, 12, 15, 16, 20, 23, 27, 31, 44, 48), {15, 23, 31}),
    14: (-3, 0, Fraction(1, 2),
         (19, 20, 24, 27, 35, 40, 52, 56, 59, 68), {19, 59}),
    15: (-4, 0, Fraction(1, 3),
         (15, 16, 19, 24, 31, 39, 40, 51, 55, 60), {19, 31, 39, 51}),
    17: (-7, 0, Fraction(1, 2),
         (3, 11, 20, 23, 24, 28, 31, 40, 48, 51, 63), {3, 11, 23, 31}),
    19: (-4, 0, Fraction(1, 2),
         (7, 11, 19, 20, 24, 28, 35, 36, 39, 43, 44), {7, 11, 20, 24, 35, 39}),
    20: (-3, 0, Fraction(1, 2),
         (27, 35, 43, 67, 83, 107, 115, 123), {43, 67, 83, 107, 123}),
    21: (-19, 0, Fraction(1, 2),
         (3, 7, 24, 27, 28, 31, 40, 48, 52, 63), {3, 24, 31, 40, 52}),
    24: (-11, Fraction(1, 2), Fraction(1, 3),
         (3, 27, 35, 51, 59, 75, 83, 99, 107, 123), {3, 35, 51, 59, 83, 107, 123}),
    27: (-4, 0, Fraction(1, 2),
         (7, 19, 28, 36, 40, 43, 52, 55, 64, 67, 76), {7, 19, 40, 43, 52, 55, 67}),
    32: (-3, 0, Fraction(1, 3),
         (11, 12, 19, 35, 43, 48, 51, 59, 67, 75, 83), {11, 19, 35, 43, 51, 59, 67, 83}),
    36: (-11, 0, Fraction(1, 2),
         (27, 35, 59, 83, 99, 107, 131, 155, 171), {35, 59, 83, 107, 131, 155}),
    49: (-3, 0, Fraction(1, 7),
         (19, 20, 27, 31, 40, 47, 48, 55, 59, 68, 75), {19, 20, 31, 40, 47, 55, 59, 68}),
}

# each row's printed condition, which table_condition evaluates
EXPECTED_CONDITIONS = {
    11: "(-11/|D|) = 1",
    14: "(-56/|D|) = 1",
    15: "(5/|D|) = 1 and (-3/|D|) != -1",
    17: "(-68/|D|) = 1",
    19: "(-19/|D|) = 1",
    20: "|D| = 3 (mod 8) and (-20/|D|) = 1",
    21: "(-7/|D|) = -1 and (-3/|D|) = 1",
    24: "|D| = 3 (mod 8) and (-24/|D|) = 1",
    27: "(-3/|D|) = 1",
    32: "|D| = 3 (mod 8)",
    36: "|D| = 3 (mod 8) and (-3/|D|) = -1",
    49: "(-7/|D|) = -1",
}


def test_registry_rows_pinned():
    assert set(LEVELS) == set(EXPECTED_ROWS)
    for level, (d0, x1, x2, listed, underlined) in EXPECTED_ROWS.items():
        row = level_data(level)
        assert row.level == level
        assert row.d0 == d0
        assert (row.x1, row.x2) == (x1, x2)
        assert row.condition == EXPECTED_CONDITIONS[level]
        assert row.noninvariant_m == listed
        assert row.underlined_m == underlined
        assert underlined <= set(listed)
        assert is_fundamental_discriminant(d0) and d0 < 0
        assert row.x1 != row.x2


def test_level_data_worked_examples():
    assert level_data(32).d0 == -3
    assert (level_data(32).x1, level_data(32).x2) == (0, Fraction(1, 3))
    assert level_data(27).d0 == -4
    assert (level_data(27).x1, level_data(27).x2) == (0, Fraction(1, 2))
    assert (level_data(24).x1, level_data(24).x2) == (Fraction(1, 2), Fraction(1, 3))
    assert (level_data(49).x1, level_data(49).x2) == (0, Fraction(1, 7))
    with pytest.raises(PreconditionError):
        level_data(13)


def test_f_sum_worked_examples():
    assert f_sum(32, -3, -11, Fraction(1, 3)).value == 1
    assert f_sum(32, -3, -11, 0).value == 0
    assert f_sum(32, -3, -219, 0).value == 2
    assert f_sum(32, -3, -219, Fraction(1, 3)).value == 2
    assert f_sum(27, -4, -7, Fraction(1, 2)).value == 2
    assert f_sum(32, -3, -371, 0).value == 4


def test_s_count_worked_examples():
    # the unweighted cardinality of S_{N, D*D0}(x)
    assert f_sum(32, -3, -11, Fraction(1, 3)).count == 1
    assert f_sum(32, -3, -11, 0).count == 0
    assert f_sum(32, -3, -571, Fraction(1, 3)).count % 2 == 1


def test_s_count_agrees_with_bruteforce():
    got = f_sum(32, -3, -571, Fraction(1, 3)).count
    assert got == len(enumerate_forms_bruteforce(32, 3 * 571, Fraction(1, 3)))


def test_f_sum_preconditions():
    with pytest.raises(PreconditionError):
        f_sum(32, -3, 11, 0)  # D*D0 < 0
    with pytest.raises(PreconditionError):
        f_sum(32, -3, -10, 0)  # -10 = 2 (mod 4) is not a discriminant
    with pytest.raises(PreconditionError):
        f_sum(32, -3, -27, 0)  # 81 is a perfect square
    with pytest.raises(PreconditionError):
        f_sum(32, -6, -11, 0)  # -6 not fundamental


def test_empty_sum_is_zero():
    ev = f_sum(32, -3, -11, 0)
    assert ev.count == 0
    assert ev.value == 0
    assert len(enumerate_forms(32, 33, 0)) == 0


def test_fevaluation_invariants():
    for level, (d0, x1, x2, listed, _) in EXPECTED_ROWS.items():
        for m in listed:
            if is_square(m * -d0):
                continue
            for x in (x1, x2):
                ev = f_sum(level, d0, -m, x)
                assert abs(ev.value) <= ev.count
                assert ev.count == len(enumerate_forms(level, -m * d0, x))


def _character_sum_by_forms(level, d0, d, x):
    forms = enumerate_forms(level, d * d0, x)
    return sum(genus_character(d0, q) for q in forms), len(forms)


def test_f_sum_matches_the_sorted_enumeration():
    # f_sum builds no form; the sorted enumeration is the reference
    # (240 rows: 10 D per level and registry point)
    rng = random.Random(31105)
    for level, row in sorted(LEVELS.items()):
        for x in (row.x1, row.x2):
            for _ in range(10):
                while True:
                    d = -rng.randint(3, 20000)
                    if d % 4 in (0, 1) and not is_square(d * row.d0):
                        break
                ev = f_sum(level, row.d0, d, x)
                assert (ev.value, ev.count) == _character_sum_by_forms(level, row.d0, d, x), \
                    (level, d, x)


def test_f_sum_matches_the_enumeration_off_the_registry():
    # every fundamental D0 with |D0| < 300, three seeded (N, D, x) each:
    # levels 1-80, x = p/q with |p| <= 12 and q <= 9, x = 0 in a quarter
    rng = random.Random(31106)
    seen = {"multi-prime": 0, "even": 0, "gcd(N, D0) > 1": 0, "x = 0": 0}
    for d0 in (d for d in range(-299, 300) if is_fundamental_discriminant(d)):
        for _ in range(3):
            level = rng.randint(1, 80)
            while True:
                d = rng.randint(3, 400) * (1 if d0 > 0 else -1)
                if d % 4 in (0, 1) and not is_square(d * d0):
                    break
            x = Fraction(0) if rng.random() < 0.25 else \
                Fraction(rng.randint(-12, 12), rng.randint(1, 9))
            ev = f_sum(level, d0, d, x)
            assert (ev.value, ev.count) == _character_sum_by_forms(level, d0, d, x), \
                (level, d0, d, x)
            seen["multi-prime"] += len(factorize(abs(d0))) > 1
            seen["even"] += d0 % 2 == 0
            seen["gcd(N, D0) > 1"] += gcd(level, d0) > 1
            seen["x = 0"] += x == 0
    assert min(seen.values()) >= 20, seen


def test_f_sum_at_zero_where_d0_primes_divide_m_to_higher_powers():
    # at x = 0 every divisor pair of m(t) = (Delta - t^2) / 4N is a form,
    # and a prime p of D0 with p^2 | m(t) leaves only the divisors holding
    # all or none of p; these rows have such a t, and each way a prime p of
    # D0 can meet N and m(t) comes up in at least 10 of them
    rng = random.Random(31107)
    rows = 0
    seen = {"p | N, p | m": 0, "p | N, p !| m": 0, "p !| N, p^2 | m": 0}
    d0s = (-3, -4, -8, 5, 8, 12, -15, -20, -24, 21, 40, -84, 105, -195)
    while rows < 60:
        d0, level = rng.choice(d0s), rng.randint(1, 80)
        d = rng.randint(3, 3000) * (1 if d0 > 0 else -1)
        delta = d * d0
        if d % 4 not in (0, 1) or is_square(delta):
            continue
        moduli = [4 * level * p * p for p in factorize(abs(d0))]
        if not any((delta - t * t) % k == 0 for k in moduli
                   for t in range(math.isqrt(delta - 1) + 1)):
            continue
        ev = f_sum(level, d0, d, 0)
        assert (ev.value, ev.count) == _character_sum_by_forms(level, d0, d, 0), \
            (level, d0, d)
        rows += 1
        ms = [(delta - t * t) // (4 * level) for t in range(math.isqrt(delta - 1) + 1)
              if (delta - t * t) % (4 * level) == 0]
        pairs = [(p, m) for p in factorize(abs(d0)) for m in ms]
        seen["p | N, p | m"] += any(level % p == 0 and m % p == 0 for p, m in pairs)
        seen["p | N, p !| m"] += any(level % p == 0 and m % p for p, m in pairs)
        seen["p !| N, p^2 | m"] += any(level % p and m % (p * p) == 0 for p, m in pairs)
    assert min(seen.values()) >= 10, seen


def test_is_good_worked_examples():
    assert is_good(32, -11)
    assert not is_good(32, -7)
    assert is_good(11, -15)
    assert is_good(27, -7)
    # even fundamental discriminants fall outside the odd-D rules
    assert not is_good(27, -4)
    with pytest.raises(PreconditionError):
        is_good(32, -9)
    with pytest.raises(PreconditionError):
        is_good(32, 11)


def test_table_condition_worked_examples():
    assert table_condition(32, -11)
    assert table_condition(27, -7)
    assert table_condition(20, -43)
    assert not table_condition(32, -7)
    with pytest.raises(PreconditionError):
        table_condition(32, -9)
    with pytest.raises(PreconditionError):
        table_condition(13, -11)


def test_vanishing_verdict_worked_examples():
    v = vanishing_verdict(32, -219)
    assert v.outcome is Vanishing.L_VANISHES
    assert (v.f_x1, v.f_x2) == (2, 2)

    v = vanishing_verdict(32, -4219)
    assert v.outcome is Vanishing.L_NONZERO
    assert (v.f_x1, v.f_x2) == (6, 9)

    v = vanishing_verdict(27, -283)
    assert v.outcome is Vanishing.L_VANISHES
    assert (v.f_x1, v.f_x2) == (2, 2)


def test_vanishing_verdict_outcome_definition():
    for d in (-11, -19, -35, -219, -331, -371):
        v = vanishing_verdict(32, d)
        assert (v.outcome is Vanishing.L_VANISHES) == (v.f_x1 == v.f_x2)


def test_vanishing_verdict_preconditions():
    with pytest.raises(PreconditionError):
        vanishing_verdict(32, -7)  # fails the level condition
    with pytest.raises(PreconditionError):
        vanishing_verdict(32, -27)  # not fundamental
    with pytest.raises(PreconditionError):
        vanishing_verdict(32, -3)  # |D*D0| = 9 is a perfect square


def test_compare_is_the_bare_f_pair():
    # -16 is not fundamental, so vanishing_verdict rejects it; compare
    # evaluates both sums anyway, and 16 is on the level-11 list
    with pytest.raises(PreconditionError):
        vanishing_verdict(11, -16)
    v = compare(11, -16)
    assert (v.f_x1, v.f_x2) == (f_sum(11, -3, -16, 0).value,
                                f_sum(11, -3, -16, Fraction(1, 3)).value)
    assert v.outcome is Vanishing.L_NONZERO
    assert v.note == ""  # no gate ran, so no domain note
    # on every D vanishing_verdict accepts, it is compare behind its gates
    for level in (15, 19, 27, 32):
        row = level_data(level)
        for d in _fundamental_negatives(400):
            if not table_condition(level, d) or is_square(d * row.d0):
                continue
            v, w = compare(level, d), vanishing_verdict(level, d)
            assert (v.f_x1, v.f_x2) == (f_sum(level, row.d0, d, row.x1).value,
                                        f_sum(level, row.d0, d, row.x2).value)
            assert v.outcome == w.outcome, (level, d)
            assert v.note == "", (level, d)


def test_vanishing_verdict_notes():
    # even fundamental discriminant accepted by the literal table row
    v = vanishing_verdict(19, -20)
    assert "even" in v.note
    # table row at level 15 admits 3 | |D| though the goodness rules do not
    v = vanishing_verdict(15, -39)
    assert "gcd" in v.note
    assert vanishing_verdict(32, -11).note == ""


def test_congruent_worked_examples():
    assert congruent_verdict(219).outcome is Congruence.CONGRUENT_ASSUMING_BSD
    assert congruent_verdict(11).outcome is Congruence.PROVEN_NON_CONGRUENT
    with pytest.raises(PreconditionError):
        congruent_verdict(10)
    with pytest.raises(PreconditionError):
        congruent_verdict(27)  # -27 not fundamental
    with pytest.raises(PreconditionError):
        congruent_verdict(3)  # 3*3 = 9 is a perfect square


def test_congruent_outcome_tracks_basis():
    for n in (11, 19, 35, 219, 331, 371):
        v = congruent_verdict(n)
        proven = v.basis.outcome is Vanishing.L_NONZERO
        assert (v.outcome is Congruence.PROVEN_NON_CONGRUENT) == proven


def test_derived_verdicts_are_vanishing_verdicts():
    # n is checked only by vanishing_verdict at D = -n: same rejections, same basis
    for derived, level in ((congruent_verdict, 32), (cubes_verdict, 27)):
        for n in range(-5, 3000):
            try:
                expected = vanishing_verdict(level, -n)
            except PreconditionError:
                with pytest.raises(PreconditionError):
                    derived(n)
                continue
            v = derived(n)
            assert (v.n, v.basis) == (n, expected), (level, n)


def test_parity_worked_examples():
    r = parity_test(571)
    assert r.count % 2 == 1
    assert r.proven_noncongruent
    assert parity_test(11).count == 1
    with pytest.raises(PreconditionError):
        parity_test(5)  # wrong residue class
    with pytest.raises(PreconditionError):
        parity_test(33)  # not prime
    with pytest.raises(PreconditionError):
        parity_test(3)  # 3p = 9 is a perfect square


def test_cubes_worked_examples():
    v = cubes_verdict(31)
    assert v.outcome is Cubes.INFINITE_ASSUMING_BSD
    assert (v.basis.f_x1, v.basis.f_x2) == (2, 2)

    v = cubes_verdict(7)
    assert v.outcome is Cubes.FINITE_PROVEN
    assert (v.basis.f_x1, v.basis.f_x2) == (0, 2)

    v = cubes_verdict(115)
    assert v.outcome is Cubes.FINITE_PROVEN
    assert (v.basis.f_x1, v.basis.f_x2) == (0, 4)

    with pytest.raises(PreconditionError):
        cubes_verdict(5)  # 5 = 2 (mod 3)
    with pytest.raises(PreconditionError):
        cubes_verdict(10)  # -10 not fundamental
    with pytest.raises(PreconditionError):
        cubes_verdict(4)  # 4n = 16 is a perfect square


def _fundamental_negatives(bound):
    return [-m for m in range(3, bound + 1) if is_fundamental_discriminant(-m)]


def test_parity_congruence_mod_2():
    # the weighted sum and the raw count agree mod 2 for the level-32 pair
    for d in _fundamental_negatives(2000):
        if d % 3 == 0:
            continue
        for x in (0, Fraction(1, 3)):
            ev = f_sum(32, -3, d, x)
            assert ev.value % 2 == ev.count % 2, (d, x)


def test_f_at_zero_is_even():
    # forms [a,b,c] and [a,-b,c] pair up at x = 0; b = 0 cannot occur here
    for d in _fundamental_negatives(5000):
        if (-d) % 8 != 3 or is_square(-3 * d):
            continue
        assert f_sum(32, -3, d, 0).value % 2 == 0, d


# the three levels where the registry row provably differs from the
# odd-discriminant goodness rules, with the exact divergence predicate
_DIVERGENCE = {
    14: lambda m: kronecker(-56, m) == 1 and m % 8 != 3,
    15: lambda m: m % 3 == 0 and kronecker(5, m) == 1,
    24: lambda m: m % 8 == 3 and kronecker(-24, m) == 1 and kronecker(-3, m) == -1,
}


def test_registry_consistency():
    for level in LEVELS:
        diverges = _DIVERGENCE.get(level, lambda m: False)
        for d in _fundamental_negatives(3000):
            if d % 2 == 0:
                continue
            good = is_good(level, d)
            table = table_condition(level, d)
            if good:
                # goodness always implies the printed row condition
                assert table, (level, d)
            assert (table and not good) == diverges(-d), (level, d)


# (is_good count, table_condition count) over the odd fundamental D with
# |D| < 4000 at the levels where the two differ; at level 24, |D| = 3 (mod 8)
# makes (-2/|D|) = 1, so rule (1) asks (3/|D|) = 1 and rule (4) asks
# (-3/|D|) = -(3/|D|) = 1, and no D meets both
_GOOD_AND_TABLE_COUNTS = {14: (174, 353), 15: (128, 215), 24: (0, 153)}


def _odd_fundamental_negatives():
    return [d for d in _fundamental_negatives(3999) if d % 2]


def test_is_good_within_table_condition():
    ds = _odd_fundamental_negatives()
    for level in LEVELS:
        good = {d for d in ds if is_good(level, d)}
        table = {d for d in ds if table_condition(level, d)}
        assert good <= table, level
        if level in _GOOD_AND_TABLE_COUNTS:
            assert (len(good), len(table)) == _GOOD_AND_TABLE_COUNTS[level], level
        else:
            assert good == table, level


@pytest.mark.xfail(strict=True, reason="is_good(24, d) is False for every odd D: "
                   "rules (1) and (4) contradict when |D| = 3 (mod 8)")
def test_is_good_admits_some_d_at_every_level():
    ds = _odd_fundamental_negatives()
    for level in LEVELS:
        assert any(is_good(level, d) for d in ds), level


def test_listed_values_break_invariance():
    for level, (d0, x1, x2, listed, _) in EXPECTED_ROWS.items():
        for m in listed:
            assert (-m) % 4 in (0, 1), (level, m)
            if is_square(m * -d0):
                continue
            assert f_sum(level, d0, -m, x1).value != f_sum(level, d0, -m, x2).value, \
                (level, m)
