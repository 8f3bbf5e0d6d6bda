"""The exact modular-symbol oracle: the eigen-functional phi (relations,
Hecke eigenvalues, dimension of the space it is cut from), L_alg(D) against
the criterion and against the numeric series of lcrit.series, the root
number at the square levels, and the rows where the registered criterion and
L_alg disagree."""

from fractions import Fraction
from math import gcd

import numpy as np
import pytest

from lcrit import oracle
from lcrit.arith import is_fundamental_discriminant, is_prime, is_square, kronecker
from lcrit.criterion import LEVELS, compare, table_condition_filter
from lcrit.errors import PreconditionError
from lcrit.newformdata import load_newform_data
from lcrit.oracle import OracleVerdict, estimate_l_value
from lcrit.series import CurveModel, curve_ap, estimate_l_values

# dimension of the minus functionals: the newform alone, or with Eisenstein
# functionals at the levels whose cusps * moves
MINUS_DIMENSION = {11: 1, 14: 1, 15: 1, 17: 1, 19: 1, 20: 1, 21: 1, 24: 1,
                   27: 3, 32: 3, 36: 4, 49: 4}

# L_alg(D) = c_N * (F(x1) - F(x2))^2 on every table row prime to N, at the
# six levels where the registered rows are L-value criteria
CONCORDANCE = {11: Fraction(2), 17: Fraction(1, 2), 19: Fraction(1, 2),
               21: Fraction(1, 4), 27: Fraction(3, 2), 32: Fraction(4)}

# table rows prime to N with |D| < 600: (rows, "vanishes" with L_alg != 0,
# "nonzero" with L_alg = 0).  At 14, 15, 20, 24, 36 and 49, x1 and x2 are
# inequivalent cusps and F(x1) - F(x2) keeps an Eisenstein part, so the
# registered criterion is not an L-value criterion there.
DISAGREEMENTS = {11: (83, 0, 0), 14: (52, 24, 2), 15: (26, 0, 4), 17: (53, 0, 0),
                 19: (84, 0, 0), 20: (23, 0, 4), 21: (29, 0, 0), 24: (22, 0, 3),
                 27: (68, 0, 0), 32: (59, 0, 0), 36: (22, 0, 22), 49: (79, 0, 70)}

# L_alg at one oracle-workload D per level
L_ALG = {(11, -8391): 8, (15, -8644): 0, (19, -4219): 18, (27, -8440): 600,
         (32, -8059): 676, (17, -303): 8, (49, -244): 0}


def _rows(level, bound):
    """The table rows prime to N with |D| < bound, as scan --good-only keeps them."""
    d0 = LEVELS[level].d0
    return [d for d in table_condition_filter(level, range(-3, -bound, -1))
            if gcd(d, level) == 1 and not is_square(d * d0)]


def test_phi_kills_the_relations():
    for level in LEVELS:
        n = level
        cls, reps = oracle._projective_line(n)
        # |P^1(Z/N)| = N * prod over p | N of (1 + 1/p)
        assert len(reps) == round(n * np.prod([1 + 1 / p for p in range(2, n + 1)
                                               if is_prime(p) and n % p == 0]))
        assert len(oracle._minus_functionals(n, cls, reps)) == MINUS_DIMENSION[level]
        phi = oracle._functional(level)
        assert gcd(*phi) == 1

        def at(c, d):
            return phi[c % n * n + d % n]
        for c, d in reps:
            assert at(c, d) + at(d, -c) == 0, (level, c, d)
            assert at(c, d) + at(-c, d) == 0, (level, c, d)
            assert at(c, d) + at(d, -c - d) + at(-c - d, c) == 0, (level, c, d)


def test_hecke_eigenvalues_are_curve_ap():
    # phi o T_l = a_l * phi on every Manin symbol, for every prime l < 200
    # prime to N, with a_l from the series' point count
    heilbronn = {ell: np.array(oracle._heilbronn(ell)).T
                 for ell in range(2, 200) if is_prime(ell)}
    for level in LEVELS:
        n = level
        _, reps = oracle._projective_line(n)
        c, d = np.array(reps).T
        phi = np.array(oracle._functional(level))
        curve = CurveModel.from_source(load_newform_data()[level])
        for ell, (a, b, cc, dd) in heilbronn.items():
            if n % ell == 0:
                continue
            # (c:d)[[a, b], [cc, dd]] = (ca + d*cc : cb + d*dd), one row per symbol
            images = ((np.outer(c, a) + np.outer(d, cc)) % n * n
                      + (np.outer(c, b) + np.outer(d, dd)) % n)
            hecke = phi[images].sum(axis=1)
            assert (hecke == curve_ap(curve, ell) * phi[c * n + d]).all(), (level, ell)


def _concordance(bound):
    for level, c in CONCORDANCE.items():
        rows = _rows(level, bound)
        assert rows, level
        for d in rows:
            v = compare(level, d)
            est = estimate_l_value(level, d)
            assert est.l_alg >= 0, (level, d)
            assert est.l_alg == c * (v.f_x1 - v.f_x2) ** 2, (level, d)
            assert est.verdict is (OracleVerdict.ZERO if v.f_x1 == v.f_x2
                                   else OracleVerdict.NONZERO), (level, d)


def test_l_alg_concords_with_the_criterion():
    _concordance(600)


@pytest.mark.slow
def test_l_alg_concords_with_the_criterion_to_3000():
    _concordance(3000)


def test_l_alg_is_zero_where_the_series_decides_zero():
    # the two oracles are independent: exact symbols against a numeric series
    # built from eta quotients or point counts
    for level in CONCORDANCE:
        rows = _rows(level, 600)
        for d, numeric in zip(rows, estimate_l_values(level, rows)):
            assert numeric.verdict is not OracleVerdict.INDETERMINATE, (level, d)
            l_alg = estimate_l_value(level, d).l_alg
            assert (numeric.verdict is OracleVerdict.ZERO) == (l_alg == 0), (level, d)


def test_odd_sign_twists_vanish_at_the_square_levels():
    # w(E_D) = chi_D(-N) = chi_D(-1) = -1 for every D < 0 prime to N when N is
    # a square, and L_alg is then 0 by itself
    for level in (36, 49):
        ds = [d for d in range(-3, -600, -1)
              if is_fundamental_discriminant(d) and gcd(d, level) == 1]
        assert len(ds) > 90
        for d in ds:
            assert kronecker(d, -level) == -1, (level, d)
            est = estimate_l_value(level, d)
            assert (est.root_number, est.l_alg, est.verdict) == (-1, 0, OracleVerdict.ZERO)


def test_l_alg_is_nonnegative_on_every_twist():
    # the sign of phi is fixed per level, and L(E_D, 1) >= 0, so every sum is
    # >= 0, at gcd(D, N) > 1 too
    for level in LEVELS:
        for d in range(-3, -400, -1):
            if is_fundamental_discriminant(d):
                assert estimate_l_value(level, d).l_alg >= 0, (level, d)


def test_known_disagreements_are_pinned():
    got = {}
    for level in LEVELS:
        rows = _rows(level, 600)
        vanishes_with_l = nonzero_without_l = 0
        for d in rows:
            v = compare(level, d)
            l_alg = estimate_l_value(level, d).l_alg
            vanishes_with_l += v.f_x1 == v.f_x2 and l_alg != 0
            nonzero_without_l += v.f_x1 != v.f_x2 and l_alg == 0
        got[level] = (len(rows), vanishes_with_l, nonzero_without_l)
    assert got == DISAGREEMENTS


def test_workload_values_pinned():
    for (level, d), l_alg in L_ALG.items():
        est = estimate_l_value(level, d)
        assert est.l_alg == l_alg, (level, d)
        assert isinstance(est.value, float) and est.value == l_alg


def test_non_coprime_d_is_indeterminate():
    # gcd(|D|, N) > 1 is outside the formula: reported, never raised
    for level, d in ((15, -8616), (15, -39), (27, -3), (32, -4), (49, -7)):
        est = estimate_l_value(level, d)
        assert est.verdict is OracleVerdict.INDETERMINATE, (level, d)
        assert est.root_number is None
        assert f"gcd(|D|, N) = {gcd(d, level)} > 1" in est.caveats[0]
        assert isinstance(est.value, float)


def test_preconditions():
    with pytest.raises(PreconditionError, match="level 13"):
        estimate_l_value(13, -11)
    for d in (-9, 0, 5, -1):
        with pytest.raises(PreconditionError, match=f"got {d}"):
            estimate_l_value(32, d)


def test_series_names_resolve_lazily():
    # the five series names the benchmark's tracer rebinds on lcrit.oracle
    # resolve to lcrit.series; any other missing name is an AttributeError
    from lcrit import series
    for name in oracle._SERIES_NAMES:
        assert getattr(oracle, name) is getattr(series, name)
    with pytest.raises(AttributeError):
        oracle.default_terms
