"""The numeric series of lcrit.series, the exact oracle's independent
check: newform coefficient generation (eta quotients, point counts, Hecke
extension) and the truncated central-value estimate with rigorous tails."""

import hashlib
import math
import random
from math import gcd

import numpy as np
import pytest

from lcrit import series
from lcrit.arith import factorize, is_fundamental_discriminant, is_prime, kronecker
from lcrit.criterion import LEVELS
from lcrit.errors import PreconditionError
from lcrit.newformdata import load_newform_data
from lcrit.series import (
    T_NONZERO,
    T_ZERO,
    TERM_CAP,
    CoefficientSeries,
    CurveModel,
    OracleVerdict,
    curve_ap,
    default_terms,
    estimate_l_value,
    estimate_l_values,
    eta_coefficients,
    extend_multiplicatively,
    newform_coefficients,
    twisted_l_value,
)

ETA_LEVELS = (11, 14, 15, 20, 24, 27, 32, 36)
CURVE_ONLY_LEVELS = (17, 19, 21, 49)


def test_registered_sources_cover_all_levels():
    sources = load_newform_data()
    assert set(sources) == set(LEVELS)
    for level in ETA_LEVELS:
        assert sources[level].eta
        assert sum(d * e for d, e in sources[level].eta) == 24
        assert all(e > 0 for _, e in sources[level].eta), level
    for level in CURVE_ONLY_LEVELS:
        assert not sources[level].eta


def test_registered_models_have_level_support():
    # the model's discriminant must be divisible by exactly the primes of N
    for level in LEVELS:
        src = load_newform_data()[level]
        assert src.weierstrass, level
        disc = CurveModel.from_source(src).disc
        assert disc != 0
        assert set(factorize(abs(disc))) == set(factorize(level)), level


def test_eta_worked_values():
    assert eta_coefficients(32, 1).a[1] == 1
    assert eta_coefficients(32, 5).a[5] == -2
    four = eta_coefficients(32, 4)
    assert four.a[2] == four.a[3] == four.a[4] == 0
    assert eta_coefficients(32, 25).a[25] == -1


def test_eta_errors():
    with pytest.raises(PreconditionError):
        eta_coefficients(17, 10)  # no eta quotient registered
    with pytest.raises(PreconditionError):
        eta_coefficients(32, 0)
    with pytest.raises(PreconditionError):
        eta_coefficients(32, TERM_CAP + 1)


def test_newform_coefficients_need_a_term(monkeypatch):
    # rejected before either route runs: no a_p or eta term is computed at
    # 17 (point counts) or 32 (eta quotient)
    def refuse(*args):
        raise AssertionError(f"computed {args}")
    monkeypatch.setattr(series, "curve_ap", refuse)
    monkeypatch.setattr(series, "eta_coefficients", refuse)
    for level in (32, 17):
        for m in (0, -5, TERM_CAP + 1):
            with pytest.raises(PreconditionError):
                newform_coefficients(level, m)


def test_curve_ap_worked_values():
    curve = CurveModel(0, 0, 0, -1, 0)  # y^2 = x^3 - x
    assert curve_ap(curve, 5) == -2
    assert curve_ap(curve, 3) == 0
    assert curve_ap(curve, 2) == 0  # bad prime: a_2 of 32a, as the eta route gives
    with pytest.raises(PreconditionError):
        curve_ap(curve, 9)  # not prime


def _brute_count(curve, p):
    """Projective count over F_p by raw double loop (test-local reference)."""
    count = 1
    for x in range(p):
        rhs = (x ** 3 + curve.a2 * x * x + curve.a4 * x + curve.a6) % p
        for y in range(p):
            if (y * y + curve.a1 * x * y + curve.a3 * y) % p == rhs:
                count += 1
    return count


def test_curve_ap_against_brute_count():
    rng = random.Random(50900)
    for level in LEVELS:
        curve = CurveModel.from_source(load_newform_data()[level])
        bad = tuple(factorize(abs(curve.disc)))
        assert bad, level
        # good and bad primes alike: curve_ap has one rule for every prime
        for p in (3, 5, 7, 11, 13, 37, 101) + bad:
            assert curve_ap(curve, p) == p + 1 - _brute_count(curve, p), (level, p)
    # and on a few random odd primes for the vectorized path
    curve = CurveModel(1, -1, 1, -1, -14)
    for _ in range(5):
        p = rng.choice((149, 211, 307, 401, 503))
        assert curve_ap(curve, p) == p + 1 - _brute_count(curve, p)


def _horner_ap(curve, p):
    """a_p for odd p by the earlier kernel's formula, reduced after every
    Horner step (test-local reference)."""
    x = np.arange(p, dtype=np.int64)
    f = (((4 * x + curve.b2) % p * x + 2 * curve.b4) % p * x + curve.b6) % p
    return p - int(np.bincount(x * x % p, minlength=p)[f].sum())


def test_curve_ap_across_the_reduction_guard():
    # 5p^3 passes 2^63 above p = 2^20, where the cubic needs a second reduction
    for level in (17, 49):
        curve = CurveModel.from_source(load_newform_data()[level])
        for p in (1_048_573, 1_048_583, 2_000_003):
            assert is_prime(p)
            assert curve_ap(curve, p) == _horner_ap(curve, p), (level, p)


def test_extend_worked_values():
    ap = {2: 0, 3: 0, 5: -2, 7: 0, 11: 0, 13: 6, 17: 2, 19: 0, 23: 0}
    coeffs = extend_multiplicatively(ap, 32, 25)
    assert coeffs.a[1] == 1
    assert coeffs.a[25] == (-2) ** 2 - 5 * 1
    assert coeffs.a[10] == 0
    with pytest.raises(PreconditionError):
        extend_multiplicatively({2: 0}, 32, 10)  # no a_3 supplied


def test_hecke_recursion_and_multiplicativity():
    rng = random.Random(50901)
    for level in (11, 17, 32, 49):
        coeffs = newform_coefficients(level, 3000)
        a = coeffs.a
        for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 47, 53):
            if p * p <= 3000:
                if level % p == 0:
                    assert a[p * p] == a[p] ** 2, (level, p)
                else:
                    assert a[p * p] == a[p] ** 2 - p, (level, p)
        for _ in range(300):
            m = rng.randint(2, 54)
            n = rng.randint(2, 54)
            if gcd(m, n) == 1 and m * n <= 3000:
                assert a[m * n] == a[m] * a[n], (level, m, n)


def test_hasse_bound():
    for level in LEVELS:
        coeffs = newform_coefficients(level, 10 ** 4)
        for p in range(2, 10 ** 4 + 1):
            if is_prime(p) and level % p:
                assert coeffs.a[p] ** 2 <= 4 * p, (level, p)


def test_eta_agrees_with_point_counts():
    # two fully independent coefficient routes must give the same expansion
    for level in ETA_LEVELS:
        src = load_newform_data()[level]
        curve = CurveModel.from_source(src)
        ap = {}
        for p in range(2, 201):
            if is_prime(p):
                ap[p] = p + 1 - _brute_count(curve, p)
        from_curve = extend_multiplicatively(ap, level, 200)
        from_eta = eta_coefficients(level, 200)
        assert np.array_equal(from_curve.a, from_eta.a), level


def test_eta_agrees_with_curve_route_at_scale():
    # the point-count kernel against the eta expansion on every prime <= 5000
    for level in ETA_LEVELS:
        curve = CurveModel.from_source(load_newform_data()[level])
        ap = {p: curve_ap(curve, p) for p in range(2, 5001) if is_prime(p)}
        from_curve = extend_multiplicatively(ap, level, 5000)
        assert np.array_equal(from_curve.a, eta_coefficients(level, 5000).a), level


def test_series_normalization_enforced():
    # a series that is not normalized is a program fault, not bad input:
    # a ValueError that main reports as internal (exit 1), not exit 2
    for a in ([0, 2, 1], [0]):
        with pytest.raises(ValueError) as exc:
            CoefficientSeries(32, np.array(a, dtype=np.int64))
        assert not isinstance(exc.value, PreconditionError)


def test_twisted_worked_verdicts():
    assert estimate_l_value(32, -219).verdict is OracleVerdict.ZERO
    assert estimate_l_value(32, -11).verdict is OracleVerdict.NONZERO
    assert estimate_l_value(27, -31).verdict is OracleVerdict.ZERO


def test_default_terms():
    assert default_terms(32, -11) == math.ceil(6 * math.sqrt(32 * 11 * 11))
    assert default_terms(32, -10 ** 6) == TERM_CAP


def test_verdict_band_definition():
    coeffs = newform_coefficients(32, default_terms(32, -571))
    for d in (-11, -19, -35, -219, -571):
        est = twisted_l_value(d, coeffs)
        if est.verdict is OracleVerdict.ZERO:
            assert abs(est.value) + est.tail_bound < T_ZERO
        elif est.verdict is OracleVerdict.NONZERO:
            assert abs(est.value) - est.tail_bound > T_NONZERO
        else:
            assert abs(est.value) + est.tail_bound >= T_ZERO
            assert abs(est.value) - est.tail_bound <= T_NONZERO


def test_short_truncation_is_indeterminate():
    est = twisted_l_value(-571, newform_coefficients(32, 5))
    assert est.verdict is OracleVerdict.INDETERMINATE
    assert est.terms_used == 5


def test_monotone_refinement():
    # once the tail is controlled a verdict cannot flip under more terms
    for level, d in ((32, -11), (32, -219), (27, -31)):
        full = default_terms(level, d)
        coeffs = newform_coefficients(level, 2 * full)
        decided = []
        for m in (full // 4, full // 2, full, 2 * full):
            est = twisted_l_value(d, CoefficientSeries(level, coeffs.a[:m + 1]))
            assert est.terms_used == m
            if est.verdict is not OracleVerdict.INDETERMINATE:
                decided.append(est.verdict)
        assert decided, (level, d)
        assert len(set(decided)) == 1, (level, d)


def test_twisted_preconditions():
    coeffs = newform_coefficients(32, 100)
    with pytest.raises(PreconditionError):
        twisted_l_value(-9, coeffs)  # not fundamental
    with pytest.raises(PreconditionError):
        twisted_l_value(11, coeffs)  # positive
    assert twisted_l_value(-11, coeffs).terms_used == 100  # the whole series
    # D = 0 has a one-term truncation, so a batch reaches the D check
    for ds in ([0], [-3, 0]):
        with pytest.raises(PreconditionError, match="got 0"):
            list(estimate_l_values(32, ds))


def _count_builds(monkeypatch, build=series.newform_coefficients):
    """Record the m of every newform_coefficients call the oracle makes,
    then pass it on to `build`."""
    built = []

    def counted(level, m):
        built.append(m)
        return build(level, m)
    monkeypatch.setattr(series, "newform_coefficients", counted)
    return built


def test_batch_equals_per_d(monkeypatch):
    # one series built for the largest truncation and sliced per D gives
    # exactly the per-D estimates, float value included: each equals the
    # batch of one and the sum over a series built to that D's truncation
    ds = [-131, -7, -84, -40, -3, -111, -23]  # not in |D| order
    assert all(is_fundamental_discriminant(d) for d in ds)
    for level in (17, 19, 21, 49, 11, 32):
        alone = [twisted_l_value(d, newform_coefficients(level, default_terms(level, d)))
                 for d in ds]
        assert [estimate_l_value(level, d) for d in ds] == alone, level
        built = _count_builds(monkeypatch)
        batch = list(estimate_l_values(level, ds))
        monkeypatch.undo()
        assert batch == alone, level
        assert built == [max(default_terms(level, d) for d in ds)], level


def test_batch_cap_and_empty_batch_build_nothing(monkeypatch):
    # a batch whose truncation passes the cap asks for TERM_CAP terms, no
    # more; an empty batch asks for none
    def refuse(*args):
        raise AssertionError(f"computed {args}")
    built = _count_builds(monkeypatch, refuse)
    d = -300003
    assert is_fundamental_discriminant(d) and 6 * math.sqrt(32) * abs(d) > TERM_CAP
    with pytest.raises(AssertionError):
        list(estimate_l_values(32, [-3, d]))
    assert built == [TERM_CAP]
    built.clear()
    assert list(estimate_l_values(17, [])) == []
    assert built == []


def test_caveats():
    est = estimate_l_value(32, -11)
    assert any("sign" in c for c in est.caveats)
    est = twisted_l_value(-39, newform_coefficients(15, 500))
    assert any("gcd" in c for c in est.caveats)
    est = twisted_l_value(-4, newform_coefficients(27, 500))
    assert any("even D" in c for c in est.caveats)


# sha256 of the int64 bytes of a[0..m], recorded from the commit before the
# q^g eta expansion, the one-reduction point count and the prime-filled
# Hecke and chi kernels: every kernel rewrite must leave these bytes alone
NEWFORM_12000_DIGESTS = {
    11: "6417b665554d841f4b88c676b5f8e8ba817a46335f16c6fdfbaf08c0c56df1bb",
    14: "cb643891f54d700ae79809e0cb6f9c5029b9f25795fb454fa1c5fe6660442ed1",
    15: "1b99539e68f2c7fddd0f33784555d32f52d94e84fbee55a88a9b2f0dfda994de",
    17: "ac790636f2a6b1d8859405e2c1a982c1da87291bd23873ffe40e7fe91cec3e12",
    19: "00bfca1cc2cd4b9632e5ea4a1389d44a72b937c57b4f87893c7052227d239cb2",
    20: "642adab2d870c477dd1d305e20aba0e204d9fb15576e57090a67a22d78abd14b",
    21: "e6878dedf11ff0795e016f10ec3e0b56d89d625b5e27713f0a0b22b93efa3138",
    24: "1cb192db3969f90edb2371ceda5155cd7246ffa413187131628122b37a6f0f5a",
    27: "a9027f62e1b8d5c80fff2c95c14d8d15eb8217f6bedf7500017431275e927ae4",
    32: "506d69da0b0acc1f22fb0e6bcc8c42cf3550ae5eb1e46acd5c4a08a77bb947bf",
    36: "8ec104edb5de7cf7d270a4b2047d89b7c328ab9f26d011ff0697f4570076380e",
    49: "e9dd97ae4725c8553b1d5709f2236a719ce3d14995c2c49027648e1b4fb07b3c",
}
ETA_300000_DIGESTS = {
    11: "58bbf81dd9f75a19ebff38138e4d09137ff2e1cf1de29df258e23cb365d07551",
    14: "2348eb6de0d8397f198cb25150da04d686d6488677574a9e346a01392ad52d74",
    15: "6f59094dc79e438103d7ad7ac6be41cc8c51d1d5184d115029be291329c5f71d",
    20: "5c3b29b7fc88cd12ccff480dd9deee3e1219e1b56f415b8b19a35789a20ae407",
    24: "e6ddb536f078ff394c69c1b60d807d5d574e6e1893aae505fcf7322601e8c081",
    27: "bd31d42c89b2fd6b62500d593f7031dd60ee17e04b68520dae703155e003129f",
    32: "9a5fb73089165d0102913fe354dea3b69b46726820c928e3744b877da3b147a1",
    36: "341620f2fd9b92a3f0cad906c69a2e1f23e0fceeef230bf28f5d9b5163f49374",
}


def test_coefficient_digests():
    for level, digest in NEWFORM_12000_DIGESTS.items():
        a = newform_coefficients(level, 12_000).a
        assert hashlib.sha256(a.tobytes()).hexdigest() == digest, level
    for level, digest in ETA_300000_DIGESTS.items():
        a = eta_coefficients(level, 300_000).a
        assert hashlib.sha256(a.tobytes()).hexdigest() == digest, level


def test_chi_vector_is_kronecker():
    # every m class: inside one period, at its edges (the period cut at m + 1)
    # and over several periods
    for d in range(-3, -600, -1):
        if not is_fundamental_discriminant(d):
            continue
        for m in {1, abs(d) - 1, abs(d), abs(d) + 1, 3 * abs(d)}:
            chi = series._chi_vector(d, m)
            assert chi.tolist() == [kronecker(d, n) for n in range(1, m + 1)], (d, m)


# float.hex of twisted_l_value(d, newform_coefficients(level, default_terms(level, d))).value
# for one oracle-workload D per level, each one np.sum over the whole term
# array: the sum's counterpart of the coefficient digests.  The
# level-15 value is a vanishing twist, whose value is rounding noise.
L_VALUE_HEX = {
    (11, -8391): "0x1.04ec818649538p-3",
    (15, -8644): "-0x1.1b4d77e200000p-51",
    (27, -8440): "0x1.aa54ca1fb482dp+1",
    (32, -8059): "0x1.3be9e19cc76e6p+2",
    (17, -303): "0x1.430c7349085eep-1",
    (49, -244): "0x1.6ba664bf0379dp+1",
}


def test_l_value_bits_pinned():
    for (level, d), value in L_VALUE_HEX.items():
        est = twisted_l_value(d, newform_coefficients(level, default_terms(level, d)))
        assert est.value.hex() == value, (level, d)
