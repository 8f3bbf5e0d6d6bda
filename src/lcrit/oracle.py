"""Exact cross-check of the vanishing criterion by modular symbols.

For the level's newform f and a negative fundamental discriminant D, the
algebraic central value

    L_alg(D) = sum over a mod |D| of chi_D(a) * phi({inf, a/|D|})

is an integer, and L(f, chi_D, 1)*sqrt(|D|) is one fixed nonzero multiple
of it at each level, for every D (Mazur, Tate and Teitelbaum, Invent. Math.
84, 1986, section 8; Cremona, Algorithms for Modular Elliptic Curves,
ch. 2).  L(E_D, 1) is L(f, chi_D, 1) times finite nonzero Euler factors at
the primes of gcd(D, N) (none when gcd(D, N) = 1).  So L(E_D, 1) = 0 exactly
when L_alg(D) = 0: no series, truncation or threshold is involved, and a
twist of odd sign gives 0 by itself.

phi is f's eigen-functional on the minus quotient of the weight-2 modular
symbols for Gamma0(N), written on the Manin symbols (c:d) of P^1(Z/N):
(c:d) is g{0, inf} for any g = [[a, b], [c, d]] in SL2(Z).  It kills
x + xS, x + x*tau + x*tau^2 and x + x*, with S: (c:d) -> (d:-c),
tau: (c:d) -> (d:-c-d) and *: (c:d) -> (-c:d), and phi o T_p = a_p*phi,
where T_p acts through Merel's Heilbronn matrices.  It is built once per
level, scaled to coprime integers with the sign that makes every L_alg >= 0.
Standard library only.
"""

from enum import Enum
from functools import cache
from math import gcd, isqrt, lcm
from typing import NamedTuple

from .arith import is_fundamental_discriminant, is_prime, kronecker
from .errors import PreconditionError
from .newformdata import load_newform_data


class OracleVerdict(Enum):
    ZERO = "zero"
    NONZERO = "nonzero"
    INDETERMINATE = "indeterminate"  # lcrit.series only: the exact oracle decides every D


class LValueEstimate(NamedTuple):
    """The oracle's answer for one D: the exact L_alg(D), the root number
    w(E_D) = chi_D(-N) (None when gcd(D, N) > 1) and the verdict."""

    l_alg: int
    root_number: int | None
    verdict: OracleVerdict

    @property
    def value(self) -> float:
        """L_alg as a float, the oracle value a scan row prints."""
        return float(self.l_alg)


def _projective_line(n: int):
    """The classes of P^1(Z/n): a flat table, entry c*n + d the class of
    (c:d) (-1 where gcd(c, d, n) > 1), and one representative per class."""
    units = [u for u in range(1, n) if gcd(u, n) == 1]
    cls = [-1] * (n * n)
    reps = []
    for c in range(n):
        for d in range(n):
            if cls[c * n + d] < 0 and gcd(c, d, n) == 1:
                for u in units:
                    cls[u * c % n * n + u * d % n] = len(reps)
                reps.append((c, d))
    return cls, reps


def _kernel(rows, width: int) -> list:
    """A basis of the integer vectors v with sum(r[j]*v[j]) = 0 for every
    integer row r, by Gauss-Jordan elimination over the integers."""
    pivots = []  # (column, row), each pivot column zero in every other row
    for row in rows:
        for col, p in pivots:
            if row[col]:
                row = [p[col] * x - row[col] * y for x, y in zip(row, p)]
        col = next((j for j, x in enumerate(row) if x), None)
        if col is None:
            continue
        g = gcd(*row)
        row = [x // g for x in row]
        for i, (c, p) in enumerate(pivots):
            if p[col]:
                p = [row[col] * x - p[col] * y for x, y in zip(p, row)]
                g = gcd(*p)
                pivots[i] = (c, [x // g for x in p])
        pivots.append((col, row))
    pivot_cols = {c for c, _ in pivots}
    scale = lcm(*(p[c] for c, p in pivots)) if pivots else 1
    basis = []
    for free in range(width):
        if free in pivot_cols:
            continue
        v = [0] * width
        v[free] = scale
        for c, p in pivots:
            v[c] = -p[free] * scale // p[c]
        g = gcd(*v)
        basis.append([x // g for x in v])
    return basis


def _heilbronn(p: int) -> list:
    """Merel's matrices (a, b, c, d): a > b >= 0, d > c >= 0, ad - bc = p.
    Since bc <= (a - 1)(d - 1), a + d <= p + 1."""
    mats = []
    for a in range(1, p + 1):
        for d in range(1, p + 2 - a):
            bc = a * d - p
            if bc == 0:
                mats += [(a, 0, c, d) for c in range(d)]
                mats += [(a, b, 0, d) for b in range(1, a)]
            elif bc > 0:
                mats += [(a, b, bc // b, d) for b in range(1, a)
                         if bc % b == 0 and bc // b < d]
    return mats


def _hecke_prime(level: int) -> int:
    """The least prime p >= 7 not dividing the level."""
    p = 7
    while not is_prime(p) or level % p == 0:
        p += 1
    return p


def _point_count_ap(weierstrass: tuple, p: int) -> int:
    """a_p = p + 1 - #E(F_p) for an odd prime p of good reduction: completing
    the square maps the affine points onto those of Y^2 = 4x^3 + b2*x^2 +
    2*b4*x + b6, and Y^2 = v has roots[v] solutions."""
    a1, a2, a3, a4, a6 = weierstrass
    b2, b4, b6 = a1 * a1 + 4 * a2, 2 * a4 + a1 * a3, a3 * a3 + 4 * a6
    roots = [0] * p
    for y in range(p):
        roots[y * y % p] += 1
    return p - sum(roots[((4 * x + b2) * x * x + 2 * b4 * x + b6) % p] for x in range(p))


def _minus_functionals(n: int, cls: list, reps: list) -> list:
    """A basis of the functionals on P^1(Z/n) that kill x + xS, x + x* and
    x + x*tau + x*tau^2, each a list of integer values per class: the kernel
    of one row per symbol x and relation, duplicate rows dropped."""
    rows = set()
    for c, d in reps:
        for terms in (((c, d), (d, -c)), ((c, d), (-c, d)),
                      ((c, d), (d, -c - d), (-c - d, c))):
            row = [0] * len(reps)
            for x, y in terms:
                row[cls[x % n * n + y % n]] += 1
            rows.add(tuple(row))
    return _kernel(rows, len(reps))


@cache
def _eigen_functional(level: int) -> tuple:
    """phi for the level's newform as a flat table, entry c*N + d the value
    at (c:d) (0 where gcd(c, d, N) > 1), scaled to coprime integers with
    the sign of the first nonzero L_alg(D) over D = -3, -4, -7, ... made
    positive.  Raises RuntimeError unless ker(phi o T_p - a_p*phi) on the
    minus functionals is one-dimensional.  Built once per level and
    process."""
    n = level
    cls, reps = _projective_line(n)
    basis = _minus_functionals(n, cls, reps)
    p = _hecke_prime(level)
    ap = _point_count_ap(load_newform_data()[level].weierstrass, p)
    heilbronn = _heilbronn(p)
    # column x of (psi o T_p - a_p*psi) for each basis functional psi
    columns = []
    for i, (c, d) in enumerate(reps):
        images = [cls[(c * a + d * cc) % n * n + (c * b + d * dd) % n]
                  for a, b, cc, dd in heilbronn]
        columns.append([sum(psi[j] for j in images) - ap * psi[i] for psi in basis])
    kernel = _kernel(columns, len(basis))
    if len(kernel) != 1:
        raise RuntimeError(f"level {level}: the a_{p} = {ap} eigenspace has "
                           f"dimension {len(kernel)}, not 1")
    values = [sum(x * psi[i] for x, psi in zip(kernel[0], basis)) for i in range(len(reps))]
    g = gcd(*values)
    phi = tuple(0 if k < 0 else values[k] // g for k in cls)
    for d in range(-3, -1000, -1):
        if is_fundamental_discriminant(d):
            l_alg = _twisted_sum(phi, n, d)
            if l_alg:
                return phi if l_alg > 0 else tuple(-x for x in phi)
    return phi


def _chi(d: int, h: int) -> list:
    """kronecker(d, a) for a = 0..h, filled from its values at primes: chi_d
    is completely multiplicative, so chi(a) = chi(q)*chi(a/q) for the
    least prime q of a."""
    chi = [0] * (h + 1)
    if h >= 1:
        chi[1] = 1
    least = list(range(h + 1))  # least prime factor, by sieve
    for q in range(2, isqrt(h) + 1):
        if least[q] == q:
            for k in range(q * q, h + 1, q):
                if least[k] == k:
                    least[k] = q
    for a in range(2, h + 1):
        q = least[a]
        chi[a] = kronecker(d, a) if q == a else chi[q] * chi[a // q]
    return chi


def _twisted_sum(phi: tuple, n: int, d: int) -> int:
    """sum over a mod |D| of chi_D(a)*phi({inf, a/|D|}) for D < 0.  By
    Manin's trick {inf, a/m} is the sum over the convergents p_k/q_k of a/m
    of the Manin symbols (q_k : (-1)^(k-1)*q_(k-1)), with q_(-1) = 0 and
    q_0 = 1, so it runs the Euclidean algorithm on (m, a) with each q_k
    kept mod N; the k = 0 symbol (1:0) is fixed by *, so phi kills it.  The
    terms for a and m - a are equal, since chi_D(-a) = -chi_D(a) and phi is
    odd under *, so only a < m/2 is summed."""
    m = -d
    chi = _chi(d, m // 2)
    total = 0
    for a in range(1, (m + 1) // 2):
        if chi[a]:
            x, y = m, a
            qp, q, sg = 0, 1, -1
            symbols = 0
            while y:
                t = x // y
                x, y = y, x - t * y
                qp, q = q, (t * q + qp) % n
                sg = -sg
                symbols += phi[q * n + sg * qp % n]
            total += chi[a] * symbols
    return 2 * total


def estimate_l_value(level: int, d: int) -> LValueEstimate:
    """L_alg(D) for the level's newform, decided exactly for every D: Zero
    when it is 0, Nonzero otherwise.  Birch's twist formula gives
    L(f, chi_D, 1) from the sum for any primitive chi_D.  L(E_D, s) differs
    from L(f, chi_D, s) only in the Euler factors at p | gcd(D, N), where the
    twisted series has none and E_D's (1/(1 - a_p/p + 1/p), 1/(1 - a_p/p) or
    1) are finite and nonzero at s = 1 (Mazur, Tate and Teitelbaum, Invent.
    Math. 84, 1986, section 8).  The root number chi_D(-N) is w(E_D) when
    gcd(D, N) = 1, and None otherwise."""
    if level not in load_newform_data():
        raise PreconditionError(f"no newform registered for level {level}")
    if d >= 0 or not is_fundamental_discriminant(d):
        raise PreconditionError(f"D must be a negative fundamental discriminant, got {d}")
    l_alg = _twisted_sum(_eigen_functional(level), level, d)
    verdict = OracleVerdict.ZERO if l_alg == 0 else OracleVerdict.NONZERO
    return LValueEstimate(l_alg, kronecker(d, -level) or None, verdict)


# The coefficient-series oracle lives in lcrit.series, which needs numpy.
# bench/layers.py still rebinds these five names on lcrit.oracle, so they
# resolve here on first use; the benchmark change that re-points its tracer
# at lcrit.series removes this shim.
_SERIES_NAMES = ("eta_coefficients", "newform_coefficients", "curve_ap",
                 "extend_multiplicatively", "twisted_l_value")


def __getattr__(name):
    if name in _SERIES_NAMES:
        from . import series
        return getattr(series, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
