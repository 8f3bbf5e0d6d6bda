"""The vanishing criterion: exact genus-character sums over enumerated forms,
per-level registry data, goodness predicates, and verdicts.

For a level N in the registry with auxiliary discriminant D0 and evaluation
points x1, x2, the central value L(E_D, 1) of the twist by a good fundamental
D < 0 vanishes iff the two finite sums

    F(x) = sum over Q in S_{N, D*D0}(x) of chi_{D0}(Q)

agree at x1 and x2.  Everything here is exact integer arithmetic.
"""

import re
from dataclasses import dataclass, replace
from enum import Enum
from fractions import Fraction
from math import gcd

from .arith import factorize, is_fundamental_discriminant, is_prime, is_square, kronecker
from .errors import PreconditionError
# genus_character is not called here: the benchmark's trace rebinds
# criterion.genus_character, so the name stays importable from this module
from .genus import genus_character, prime_discriminants
from .quadforms import character_sum, enumerate_forms

@dataclass(frozen=True)
class LevelData:
    """Registry row for one dimension-one level.

    condition is printed and evaluated (table_condition); noninvariant_m
    lists |D| values known to give unequal sums at x1, x2 (regression
    fixtures); underlined_m marks the subset that are good fundamental
    discriminants, hence carry a nonvanishing conclusion.
    """

    level: int
    d0: int
    x1: Fraction
    x2: Fraction
    condition: str
    noninvariant_m: tuple
    underlined_m: frozenset


_CLAUSE = re.compile(r"\((-?\d+)/\|D\|\) (!?=) (-1|0|1)|\|D\| = (\d+) \(mod (\d+)\)")


def _parse_condition(text: str) -> tuple:
    """Clauses `(k/|D|) = s`, `(k/|D|) != s`, `|D| = r (mod n)` joined by ` and `,
    each as (k, n, target, equal): kronecker(k, |D|), or |D| % n when k is
    None, must equal target exactly when equal is true."""
    clauses = []
    for part in text.split(" and "):
        hit = _CLAUSE.fullmatch(part)
        if hit is None:
            raise ValueError(f"malformed condition clause {part!r} in {text!r}")
        k, op, s, r, n = hit.groups()
        clauses.append((int(k), None, int(s), op == "=") if k else (None, int(n), int(r), True))
    return tuple(clauses)


def _row(level, d0, x1, x2, condition, listed, underlined):
    return LevelData(level, d0, Fraction(x1), Fraction(x2), condition,
                     tuple(listed), frozenset(underlined))


LEVELS = {
    11: _row(11, -3, 0, "1/3", "(-11/|D|) = 1",
             (4, 11, 12, 15, 16, 20, 23, 27, 31, 44, 48), (15, 23, 31)),
    14: _row(14, -3, 0, "1/2", "(-56/|D|) = 1",
             (19, 20, 24, 27, 35, 40, 52, 56, 59, 68), (19, 59)),
    15: _row(15, -4, 0, "1/3", "(5/|D|) = 1 and (-3/|D|) != -1",
             (15, 16, 19, 24, 31, 39, 40, 51, 55, 60), (19, 31, 39, 51)),
    17: _row(17, -7, 0, "1/2", "(-68/|D|) = 1",
             (3, 11, 20, 23, 24, 28, 31, 40, 48, 51, 63), (3, 11, 23, 31)),
    19: _row(19, -4, 0, "1/2", "(-19/|D|) = 1",
             (7, 11, 19, 20, 24, 28, 35, 36, 39, 43, 44), (7, 11, 20, 24, 35, 39)),
    20: _row(20, -3, 0, "1/2", "|D| = 3 (mod 8) and (-20/|D|) = 1",
             (27, 35, 43, 67, 83, 107, 115, 123), (43, 67, 83, 107, 123)),
    21: _row(21, -19, 0, "1/2", "(-7/|D|) = -1 and (-3/|D|) = 1",
             (3, 7, 24, 27, 28, 31, 40, 48, 52, 63), (3, 24, 31, 40, 52)),
    24: _row(24, -11, "1/2", "1/3", "|D| = 3 (mod 8) and (-24/|D|) = 1",
             (3, 27, 35, 51, 59, 75, 83, 99, 107, 123), (3, 35, 51, 59, 83, 107, 123)),
    27: _row(27, -4, 0, "1/2", "(-3/|D|) = 1",
             (7, 19, 28, 36, 40, 43, 52, 55, 64, 67, 76), (7, 19, 40, 43, 52, 55, 67)),
    32: _row(32, -3, 0, "1/3", "|D| = 3 (mod 8)",
             (11, 12, 19, 35, 43, 48, 51, 59, 67, 75, 83), (11, 19, 35, 43, 51, 59, 67, 83)),
    36: _row(36, -11, 0, "1/2", "|D| = 3 (mod 8) and (-3/|D|) = -1",
             (27, 35, 59, 83, 99, 107, 131, 155, 171), (35, 59, 83, 107, 131, 155)),
    49: _row(49, -3, 0, "1/7", "(-7/|D|) = -1",
             (19, 20, 27, 31, 40, 47, 48, 55, 59, 68, 75), (19, 20, 31, 40, 47, 55, 59, 68)),
}

# each row's printed condition, parsed once; _meets_clauses evaluates it
_CLAUSES = {level: _parse_condition(row.condition) for level, row in LEVELS.items()}


def level_data(level: int) -> LevelData:
    try:
        return LEVELS[level]
    except KeyError:
        raise PreconditionError(
            f"level {level} is not a dimension-one level {tuple(LEVELS)}")


@dataclass(frozen=True)
class FEvaluation:
    """One exact sum F(x): integer value and the size of the underlying set."""

    value: int
    count: int


def f_sum(level: int, d0: int, d: int, x) -> FEvaluation:
    """Character-weighted count over forms of discriminant d*d0 with
    level | a < 0 and positive value at x."""
    if not is_fundamental_discriminant(d0):
        raise PreconditionError(f"D0 must be a fundamental discriminant, got {d0}")
    if d == 0 or d * d0 < 0:
        raise PreconditionError(f"D*D0 must be positive, got D={d}, D0={d0}")
    if d % 4 not in (0, 1):
        raise PreconditionError(f"D must be a discriminant (0 or 1 mod 4), got {d}")
    delta = d * d0
    if is_square(delta):
        raise PreconditionError(f"|D*D0| = {delta} is a perfect square")
    return FEvaluation(*character_sum(level, delta, x, prime_discriminants(d0)))


def is_good(level: int, d: int) -> bool:
    """Goodness rules for odd fundamental D < 0 at level N:
    (1) N nonsquare: (-4N/|D|) = 1; (2) 2 | N: |D| = 3 (mod 8);
    (3) p = 7 (mod 8), p | N: (-p/|D|) = -1;
    (4) p = 3 (mod 8), p^r || N: (-p/|D|) = (-1)^(r+1).
    Even fundamental D are outside the rules' domain and return False.
    """
    if level < 1:
        raise PreconditionError(f"level must be >= 1, got {level}")
    if not is_fundamental_discriminant(d) or d >= 0:
        raise PreconditionError(f"D must be a negative fundamental discriminant, got {d}")
    if d % 2 == 0:
        return False
    m = -d
    if not is_square(level) and kronecker(-4 * level, m) != 1:
        return False
    if level % 2 == 0 and m % 8 != 3:
        return False
    for p, r in factorize(level).items():
        if p % 8 == 7 and kronecker(-p, m) != -1:
            return False
        if p % 8 == 3 and kronecker(-p, m) != (-1) ** (r + 1):
            return False
    return True


def _meets_clauses(level: int, m: int) -> bool:
    """The registry row's condition clauses, evaluated literally on m = |D|."""
    for k, n, target, equal in _CLAUSES[level]:
        got = kronecker(k, m) if n is None else m % n
        if (got == target) != equal:
            return False
    return True


def table_condition(level: int, d: int) -> bool:
    """The registry row's printed good-discriminant condition, evaluated
    literally on |D|."""
    row = level_data(level)
    if not is_fundamental_discriminant(d) or d >= 0:
        raise PreconditionError(f"D must be a negative fundamental discriminant, got {d}")
    return _meets_clauses(row.level, -d)


def table_condition_filter(level: int, ds) -> list:
    """The D of ds, in order, that are negative fundamental discriminants
    meeting the level's table condition.  The clauses come first, so only
    the D that meet them are factorized, once each."""
    row = level_data(level)
    return [d for d in ds
            if d < 0 and _meets_clauses(row.level, -d) and is_fundamental_discriminant(d)]


class Vanishing(Enum):
    L_VANISHES = "vanishes"
    L_NONZERO = "nonzero"


@dataclass(frozen=True)
class VanishingVerdict:
    level: int
    d: int
    outcome: Vanishing
    f_x1: int
    f_x2: int
    count_x1: int
    count_x2: int
    note: str = ""


def compare(level: int, d: int) -> VanishingVerdict:
    """Evaluate F at the registry row's x1 and x2 and compare.  Only f_sum
    checks D, which need not be fundamental or good, and the note stays
    empty: the domain gates and their note belong to vanishing_verdict."""
    row = level_data(level)
    e1 = f_sum(level, row.d0, d, row.x1)
    e2 = f_sum(level, row.d0, d, row.x2)
    outcome = Vanishing.L_VANISHES if e1.value == e2.value else Vanishing.L_NONZERO
    return VanishingVerdict(level, d, outcome, e1.value, e2.value, e1.count, e2.count)


def vanishing_verdict(level: int, d: int) -> VanishingVerdict:
    """Decide L(E_D, 1) = 0 by comparing the two registry sums.  D must be a
    negative fundamental discriminant (table_condition checks it) meeting
    the table condition, with |D*D0| not a square (f_sum checks it)."""
    row = level_data(level)
    if not table_condition(level, d):
        raise PreconditionError(
            f"level {level} requires {row.condition}; D = {d} violates it")
    note = ""
    if d % 2 == 0:
        note = ("even discriminant: accepted via the level table condition; "
                "the odd-discriminant goodness rules do not cover it")
    elif gcd(-d, level) > 1:
        note = f"gcd(|D|, N) = {gcd(-d, level)} > 1: criterion applied outside the coprime case"
    return replace(compare(level, d), note=note)


class Congruence(Enum):
    PROVEN_NON_CONGRUENT = "not congruent (unconditional)"
    CONGRUENT_ASSUMING_BSD = "congruent assuming BSD"


class Cubes(Enum):
    FINITE_PROVEN = "finitely many rational points (unconditional)"
    INFINITE_ASSUMING_BSD = "infinitely many rational points assuming BSD"


@dataclass(frozen=True)
class DerivedVerdict:
    """A verdict about n read off the vanishing verdict at D = -n."""

    n: int
    outcome: Enum
    basis: VanishingVerdict


def _derived(level: int, n: int, if_nonzero: Enum, if_vanishes: Enum) -> DerivedVerdict:
    basis = vanishing_verdict(level, -n)
    nonzero = basis.outcome is Vanishing.L_NONZERO
    return DerivedVerdict(n, if_nonzero if nonzero else if_vanishes, basis)


def congruent_verdict(n: int) -> DerivedVerdict:
    """Congruent-number decision for n = 3 (mod 8) via the level-32 twist;
    vanishing_verdict(32, -n) checks n against the level's condition."""
    return _derived(32, n, Congruence.PROVEN_NON_CONGRUENT,
                    Congruence.CONGRUENT_ASSUMING_BSD)


def cubes_verdict(n: int) -> DerivedVerdict:
    """Finiteness of rational points on x^3 + n*y^2 = 432 (twists of the
    Fermat cubic) for n = 1 (mod 3) via the level-27 twist;
    vanishing_verdict(27, -n) checks n against the level's condition."""
    return _derived(27, n, Cubes.FINITE_PROVEN, Cubes.INFINITE_ASSUMING_BSD)


@dataclass(frozen=True)
class ParityResult:
    p: int
    count: int
    proven_noncongruent: bool


def parity_test(p: int) -> ParityResult:
    """Count S_{32, -3p}(1/3) for prime p = 3 (mod 8); odd count proves
    nonvanishing (sufficient condition only)."""
    if p < 1 or not is_prime(p):
        raise PreconditionError(f"p must be prime, got {p}")
    if p % 8 != 3:
        raise PreconditionError(f"p = 3 (mod 8) required, got {p} = {p % 8} (mod 8)")
    count = f_sum(32, -3, -p, Fraction(1, 3)).count
    return ParityResult(p, count, count % 2 == 1)
