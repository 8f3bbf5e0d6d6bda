"""Truncated-L-series estimate of the twisted central value, with numpy.

The CLI's oracle is the exact modular-symbol sum of lcrit.oracle; this
series is kept only as the tests' independent numeric check of it.

Builds the level's weight-2 newform coefficients (eta-quotient expansion
where one exists, else point counts on the registered Weierstrass model
extended by Hecke multiplicativity) and estimates the twisted central value
by the rapidly convergent sum

    2 * sum_{n <= M} a_n * chi_D(n) / n * exp(-2*pi*n / sqrt(C)),

with C = N*D^2, assuming even functional-equation sign.  The tail is bounded
rigorously via |a_n| <= 1.75*n, so verdicts are Zero / Nonzero only when the
truncation cannot change the answer, and Indeterminate otherwise.

Each D is summed to `default_terms(level, d)`; there is no other setting.
`estimate_l_values(level, ds)` builds the series once, for the largest
truncation any D of the batch needs, and sums a prefix of it per D; a_n does
not depend on how far the series is built, so every estimate equals the one
`estimate_l_value(level, d)`, the batch of one, gives.
"""

import math
from dataclasses import dataclass
from math import gcd

import numpy as np

from .arith import is_fundamental_discriminant, is_prime, kronecker
from .errors import PreconditionError
from .newformdata import NewformSource, load_newform_data
from .oracle import OracleVerdict

# the most newform coefficients the oracle builds or sums
TERM_CAP = 10 ** 7

# |value| + tail below T_ZERO decides Zero; |value| - tail above T_NONZERO
# decides Nonzero; anything between is Indeterminate
T_ZERO = 1e-3
T_NONZERO = 1e-2


@dataclass(frozen=True, eq=False)
class CoefficientSeries:
    """Newform coefficients a_1..a_M; a[n] indexes a_n (a[0] unused)."""

    level: int
    a: np.ndarray

    def __post_init__(self):
        if len(self.a) < 2 or self.a[1] != 1:
            raise ValueError(f"level {self.level} expansion is not normalized (a_1 != 1)")

    def __len__(self):
        return len(self.a) - 1


def _pentagonal(d: int, limit: int):
    """Exponents (ascending) and signs of prod (1 - q^(d*n)) up to degree limit."""
    exps, signs = [0], [1]
    k = 1
    while d * k * (3 * k - 1) // 2 <= limit:
        for j in (k * (3 * k - 1) // 2, k * (3 * k + 1) // 2):
            if d * j <= limit:
                exps.append(d * j)
                signs.append(-1 if k % 2 else 1)
        k += 1
    return np.array(exps, dtype=np.int64), np.array(signs, dtype=np.int64)


# terms per in-place block of an eta factor pass: below about 2^13 the
# per-block Python loop slows the build down, above it the build time is flat
_ETA_BLOCK = 1 << 15


def _check_length(m: int):
    """A series has 1..TERM_CAP coefficients; checked before any is built."""
    if m < 1:
        raise PreconditionError(f"need m >= 1, got {m}")
    if m > TERM_CAP:
        raise PreconditionError(f"m = {m} exceeds the term cap {TERM_CAP}")


def eta_coefficients(level: int, m: int) -> CoefficientSeries:
    """Expand the registered eta quotient for the level through q^m and
    return a_1..a_m.  With shift s = sum(d*e)/24 and g the gcd of the d, the
    quotient is q^s times a series in Q = q^g, expanded to degree (m - s)//g
    and written to a[s::g]: at g = 1 straight into a[s:], else into a compact
    series of (m - s)//g + 1 terms scattered at the end, since passes over a
    strided view run slower.  Of its unit factors prod (1 - Q^(n*d/g)), four
    at weight 2, the two smallest d multiply as sparse pentagonal series and
    each further one in place, top block first: block [lo, hi) of the product
    reads the series only below hi, where nothing is overwritten yet, so a
    pass holds one block-sized accumulator besides the series."""
    _check_length(m)
    src = load_newform_data().get(level)
    if src is None or not src.eta:
        raise PreconditionError(f"no eta-quotient expansion registered for level {level}")
    shift = sum(d * e for d, e in src.eta) // 24
    g = math.gcd(*(d for d, _ in src.eta))
    deg = (m - shift) // g
    first, second, *rest = sorted(d // g for d, e in src.eta for _ in range(e))
    a = np.zeros(m + 1, dtype=np.int64)
    arr = a[shift:] if g == 1 else np.zeros(deg + 1, dtype=np.int64)
    exps, signs = _pentagonal(second, deg)
    for x, s in zip(*_pentagonal(first, deg)):
        n = np.searchsorted(exps, deg - x, side="right")
        arr[x + exps[:n]] += s * signs[:n]
    acc = np.empty(min(_ETA_BLOCK, deg + 1), dtype=np.int64)
    for d in rest:
        # (exponent, sign) past the constant term, which is the copy below
        factor = [(int(x), int(s)) for x, s in zip(*_pentagonal(d, deg))][1:]
        for lo in range(deg // _ETA_BLOCK * _ETA_BLOCK, -1, -_ETA_BLOCK):
            hi = min(lo + _ETA_BLOCK, deg + 1)
            out = acc[:hi - lo]
            out[:] = arr[lo:hi]
            for x, s in factor:
                if x >= hi:
                    break
                start = max(lo, x)
                if s == 1:
                    out[start - lo:] += arr[start - x:hi - x]
                else:
                    out[start - lo:] -= arr[start - x:hi - x]
            arr[lo:hi] = out
    if g > 1:
        a[shift::g] = arr
    return CoefficientSeries(level, a)


@dataclass(frozen=True)
class CurveModel:
    """Long Weierstrass model y^2 + a1*xy + a3*y = x^3 + a2*x^2 + a4*x + a6."""

    a1: int
    a2: int
    a3: int
    a4: int
    a6: int

    @property
    def b2(self):
        return self.a1 * self.a1 + 4 * self.a2

    @property
    def b4(self):
        return 2 * self.a4 + self.a1 * self.a3

    @property
    def b6(self):
        return self.a3 * self.a3 + 4 * self.a6

    @property
    def b8(self):
        return (self.a1 * self.a1 * self.a6 + 4 * self.a2 * self.a6
                - self.a1 * self.a3 * self.a4 + self.a2 * self.a3 * self.a3
                - self.a4 * self.a4)

    @property
    def disc(self):
        b2, b4, b6, b8 = self.b2, self.b4, self.b6, self.b8
        return -b2 * b2 * b8 - 8 * b4 ** 3 - 27 * b6 * b6 + 9 * b2 * b4 * b6

    @classmethod
    def from_source(cls, src: NewformSource) -> "CurveModel":
        if not src.weierstrass:
            raise PreconditionError(f"no Weierstrass model registered for level {src.level}")
        return cls(*src.weierstrass)


def _count_all_points(curve: CurveModel, p: int) -> int:
    """Projective point count over F_p by direct scan, singular points
    included (curve_ap uses it at p = 2 only)."""
    count = 1  # point at infinity
    for x in range(p):
        rhs = (x * x * x + curve.a2 * x * x + curve.a4 * x + curve.a6) % p
        for y in range(p):
            if (y * y + curve.a1 * x * y + curve.a3 * y - rhs) % p == 0:
                count += 1
    return count


def curve_ap(curve: CurveModel, p: int) -> int:
    """The newform's a_p = p + 1 - #E(F_p) at any prime p, good or bad, where
    #E(F_p) counts the model's projective points, a singular one included.
    At a bad prime the smooth locus has p - 1, p + 1 or p points for split,
    nonsplit or additive reduction, and the singular point adds one.

    Odd p: completing the square, (x, y) -> (x, 2y + a1*x + a3), is a
    bijection from the affine points onto those of Y^2 = 4x^3 + b2*x^2 +
    2*b4*x + b6 whatever the reduction; v != 0 has 2*bincount(y^2)[v] square
    roots over y = 1..(p-1)/2, and 0 has one.  The cubic is reduced once at
    the end (5p^3 < 2^63 while p <= 2^20, and once more midway above that).
    p = 2 is counted directly."""
    if p < 2 or not is_prime(p):
        raise PreconditionError(f"p must be prime, got {p}")
    if p == 2:
        return p + 1 - _count_all_points(curve, p)
    x = np.arange(p, dtype=np.int64)
    f = (4 * x + curve.b2 % p) * x + 2 * curve.b4 % p
    if p > 1 << 20:
        f -= f // p * p
    f = f * x + curve.b6 % p
    f -= f // p * p  # f % p: numpy divides by a scalar divisor fast, remainders slowly
    y = x[1:(p + 1) // 2] ** 2
    y -= y // p * p
    roots = 2 * np.bincount(y, minlength=p)
    roots[0] = 1
    return p - int(roots[f].sum())


def _prime_sieve(m: int) -> np.ndarray:
    mask = np.ones(m + 1, dtype=bool)
    mask[:2] = False
    for p in range(2, math.isqrt(m) + 1):
        if mask[p]:
            mask[p * p::p] = False
    return np.flatnonzero(mask)


def extend_multiplicatively(ap_values: dict, level: int, m: int) -> CoefficientSeries:
    """Fill a_1..a_m from prime coefficients: a_{p^(k+1)} = a_p*a_{p^k} -
    p*a_{p^(k-1)} away from the level, a_{p^k} = a_p^k at primes dividing it,
    multiplicative across coprime indices."""
    _check_length(m)
    a = np.ones(m + 1, dtype=np.int64)
    a[0] = 0
    for p in _prime_sieve(m):
        p = int(p)
        if p not in ap_values:
            raise PreconditionError(f"missing a_p for prime {p} <= {m}")
        ap = ap_values[p]
        if p * p > m:
            a[p::p] *= ap
            continue
        # factor[j] = a_{p^v} with v the p-adic valuation of j*p
        factor = np.full(m // p + 1, ap, dtype=np.int64)
        prev, cur, pk = 1, ap, p
        while pk * p <= m:
            prev, cur = cur, ap * cur - (0 if level % p == 0 else p * prev)
            factor[::pk] = cur
            pk *= p
        a[::p] *= factor
    return CoefficientSeries(level, a)


def newform_coefficients(level: int, m: int) -> CoefficientSeries:
    """a_1..a_m for the level's newform, via eta quotient when registered,
    else curve_ap on the Weierstrass model at every prime <= m."""
    _check_length(m)
    src = load_newform_data().get(level)
    if src is None:
        raise PreconditionError(f"no coefficient source registered for level {level}")
    if src.eta:
        return eta_coefficients(level, m)
    curve = CurveModel.from_source(src)
    ap = {int(p): curve_ap(curve, int(p)) for p in _prime_sieve(m)}
    return extend_multiplicatively(ap, level, m)


@dataclass(frozen=True)
class SeriesEstimate:
    d: int
    value: float
    terms_used: int
    tail_bound: float
    verdict: OracleVerdict
    caveats: tuple = ()


def default_terms(level: int, d: int) -> int:
    """ceil(6*sqrt(N*D^2)) truncation length, at least 1 and capped; past the
    cap the tail bound grows until the verdict degrades to Indeterminate on
    its own."""
    c = level * d * d
    return min(max(1, math.ceil(6 * math.sqrt(c))), TERM_CAP)


def _chi_vector(d: int, m: int) -> np.ndarray:
    """kronecker(d, n) for n = 1..m as int8, read off one period (chi_d has period
    |d| for fundamental d), of which only residues up to m are computed.
    chi_d is completely multiplicative, so the period is filled from its
    primes q: chi(q) = 0 zeroes the multiples of q, and chi(q) = -1 negates
    the multiples of each power of q."""
    period = np.ones(min(abs(d), m + 1), dtype=np.int8)
    period[0] = 0
    for q in _prime_sieve(len(period) - 1):
        q = int(q)
        c = kronecker(d, q)
        if c == 0:
            period[::q] = 0
        elif c == -1:
            qk = q
            while qk < len(period):
                period[::qk] *= -1
                qk *= q
    # chi(1), chi(2), ... from period[1:] and then period[0], repeated
    return np.resize(np.roll(period, -1), m)


# terms the series sum builds at a time
_SUM_LEAF = 1 << 12


def _pairwise_sum(terms, lo: int, hi: int) -> float:
    """float(np.sum(terms(lo, hi))) bit for bit, where terms(i, j) returns
    the contiguous float64 terms i..j-1, building at most _SUM_LEAF of them
    at a time.  It reproduces numpy's order: numpy sums a contiguous float64
    array pairwise (Higham, SIAM J. Sci. Comput. 14, 1993), and above 128
    terms splits n at n//2 rounded down to a multiple of 8 and adds the two
    halves' sums.  This recurses on that same split and hands each leaf to
    np.sum, so every addition is numpy's own, in numpy's order."""
    n = hi - lo
    if n <= _SUM_LEAF:
        return float(np.sum(terms(lo, hi)))
    half = n // 2 - n // 2 % 8
    return _pairwise_sum(terms, lo, lo + half) + _pairwise_sum(terms, lo + half, hi)


# sup over n >= 1 of sigma_0(n)/sqrt(n) is attained at n = 12 (6/sqrt(12) ~ 1.733),
# so |a_n| <= sigma_0(n)*sqrt(n) <= 1.75*n for every n of a weight-2 newform
_COEFF_SLOPE = 1.75


def twisted_l_value(d: int, coeffs: CoefficientSeries) -> SeriesEstimate:
    """Estimate L(E_d, 1) for the series' newform from all of its coefficients
    with a rigorous truncation bound; decide Zero / Nonzero only outside the
    uncertainty band [T_ZERO, T_NONZERO].
    """
    if not is_fundamental_discriminant(d) or d >= 0:
        raise PreconditionError(f"D must be a negative fundamental discriminant, got {d}")
    level = coeffs.level
    m = len(coeffs)
    c = level * d * d
    decay = 2 * math.pi / math.sqrt(c)
    a = coeffs.a
    chi = _chi_vector(d, m)

    def terms(lo, hi):
        # a_n * chi(n) * exp(-decay*n) / n for n = lo+1..hi
        n = np.arange(lo + 1, hi + 1, dtype=np.float64)
        return a[lo + 1:hi + 1] * chi[lo:hi] * (np.exp(-decay * n) / n)

    value = 2.0 * _pairwise_sum(terms, 0, m)
    r = math.exp(-decay)
    tail = 2.0 * _COEFF_SLOPE * r ** (m + 1) / (1.0 - r)
    if abs(value) + tail < T_ZERO:
        verdict = OracleVerdict.ZERO
    elif abs(value) - tail > T_NONZERO:
        verdict = OracleVerdict.NONZERO
    else:
        verdict = OracleVerdict.INDETERMINATE
    caveats = ["functional-equation sign assumed +1 (even twist family)"]
    if gcd(abs(d), level) > 1:
        caveats.append(f"gcd(|D|, N) = {gcd(abs(d), level)} > 1: "
                       "conductor N*D^2 is approximate")
    if d % 2 == 0:
        caveats.append("even D: conductor N*D^2 used as decay scale only")
    return SeriesEstimate(d, value, m, tail, verdict, tuple(caveats))


def estimate_l_values(level: int, ds):
    """Estimates of L(E_d, 1) for each d of the list ds, in order, each from
    its first default_terms(level, d) coefficients.  The first estimate
    builds the level's series once, for the largest truncation, and each D
    sums a prefix of it (a view, not a copy); an empty ds builds nothing."""
    ms = [default_terms(level, d) for d in ds]
    if not ms:
        return
    coeffs = newform_coefficients(level, max(ms))
    for d, m in zip(ds, ms):
        yield twisted_l_value(d, CoefficientSeries(level, coeffs.a[:m + 1]))


def estimate_l_value(level: int, d: int) -> SeriesEstimate:
    """Estimate L(E_d, 1) for the level's packaged newform from its first
    default_terms(level, d) coefficients; the batch of one."""
    return next(estimate_l_values(level, [d]))
