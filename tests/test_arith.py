"""Exact-integer arithmetic: Kronecker symbol conventions, discriminant
classification, primality, factorization, and divisor lists."""

import math
import random

from lcrit.arith import (
    divisors,
    factorize,
    is_fundamental_discriminant,
    is_prime,
    is_square,
    is_squarefree,
    kronecker,
)


def test_kronecker_worked_values():
    assert kronecker(7, 1) == 1
    assert kronecker(-3, 5) == -1
    assert kronecker(-11, 15) == 1
    assert kronecker(2, 0) == 0


def test_kronecker_zero_modulus():
    # (a/0) = 1 exactly for a unit
    assert kronecker(1, 0) == 1
    assert kronecker(-1, 0) == 1
    for a in (-9, -2, 0, 2, 3, 10):
        assert kronecker(a, 0) == 0


def test_kronecker_negative_one_modulus():
    assert kronecker(5, -1) == 1
    assert kronecker(0, -1) == 1
    assert kronecker(-5, -1) == -1
    assert kronecker(-1, -1) == -1


def test_kronecker_two_modulus():
    # (a/2): 0 for even a, +1 for a = +-1 mod 8, -1 for a = +-3 mod 8
    for a in range(-24, 25):
        expect = 0 if a % 2 == 0 else (1 if a % 8 in (1, 7) else -1)
        assert kronecker(a, 2) == expect


def test_kronecker_matches_legendre_on_odd_primes():
    for p in (3, 5, 7, 11, 13, 17, 19, 23):
        squares = {(x * x) % p for x in range(1, p)}
        for a in range(-2 * p, 2 * p):
            if a % p == 0:
                assert kronecker(a, p) == 0
            else:
                assert kronecker(a, p) == (1 if a % p in squares else -1)


def test_kronecker_multiplicative_in_modulus():
    rng = random.Random(20817)
    for _ in range(2000):
        a = rng.randint(-10 ** 4, 10 ** 4)
        m = rng.randint(-10 ** 4, 10 ** 4)
        n = rng.randint(-10 ** 4, 10 ** 4)
        assert kronecker(a, m * n) == kronecker(a, m) * kronecker(a, n)


def test_kronecker_multiplicative_in_argument():
    rng = random.Random(20818)
    for _ in range(2000):
        a = rng.randint(-10 ** 3, 10 ** 3)
        b = rng.randint(-10 ** 3, 10 ** 3)
        n = rng.randint(1, 10 ** 4)
        assert kronecker(a * b, n) == kronecker(a, n) * kronecker(b, n)


def test_kronecker_quadratic_reciprocity():
    rng = random.Random(20819)
    checked = 0
    while checked < 1000:
        m = rng.randrange(1, 10 ** 3, 2)
        n = rng.randrange(1, 10 ** 3, 2)
        if math.gcd(m, n) != 1:
            continue
        sign = -1 if (m % 4 == 3 and n % 4 == 3) else 1
        assert kronecker(m, n) * kronecker(n, m) == sign
        checked += 1


def test_kronecker_periodic_in_n_for_fundamental_a():
    # chi_d(n) = (d/n) has period |d| for a fundamental discriminant d
    rng = random.Random(20820)
    for d in (-3, -4, -7, -8, -11, 5, 8, 12, -20):
        assert is_fundamental_discriminant(d)
        for _ in range(200):
            n = rng.randint(1, 10 ** 6)
            assert kronecker(d, n) == kronecker(d, n % abs(d) + abs(d))


def test_is_fundamental_worked_values():
    assert is_fundamental_discriminant(-3)
    assert is_fundamental_discriminant(-11)
    assert is_fundamental_discriminant(12)
    assert not is_fundamental_discriminant(9)
    assert is_fundamental_discriminant(-4)


def _squarefree_naive(n):
    n = abs(n)
    if n == 0:
        return False
    k = 2
    while k * k <= n:
        if n % (k * k) == 0:
            return False
        k += 1
    return True


def test_is_fundamental_against_definition():
    for d in range(-10 ** 4, 10 ** 4 + 1):
        if d == 0 or d == 1:
            expect = False
        elif d % 4 == 1:
            expect = _squarefree_naive(d)
        elif d % 4 == 0:
            q = d // 4
            expect = q % 4 in (2, 3) and _squarefree_naive(q)
        else:
            expect = False
        assert is_fundamental_discriminant(d) == expect, d


def _squarefree_by_factors(n):
    # independent reference: divide out each k from 2 up, failing on a repeat
    k = 2
    while k * k <= n:
        if n % k == 0:
            n //= k
            if n % k == 0:
                return False
        k += 1
    return True


def test_is_squarefree_matches_naive():
    for n in range(1, 3000):
        assert is_squarefree(n) == _squarefree_naive(n), n
    rng = random.Random(20826)
    cases = [99991 ** 2, 2 * 30011 ** 2, 1013 ** 3, 30011 * 30013]
    cases += [rng.randint(1, 10 ** 10) for _ in range(300)]
    for n in cases:
        assert is_squarefree(n) == _squarefree_by_factors(n), n
    assert [is_squarefree(n) for n in cases[:4]] == [False, False, False, True]


def test_is_prime_worked_values():
    assert is_prime(571)
    assert not is_prime(1)
    assert is_prime(40500059)


def test_is_prime_strong_pseudoprimes():
    # the least strong pseudoprimes to 2, 3, 5 (below the four-base bound),
    # to 2, 3, 5, 7 (the bound itself) and to 2 through 11 (above it)
    for n in (25_326_001, 3_215_031_751, 2_152_302_898_747):
        assert all(_mr_probable_prime(n, b) for b in (2, 3, 5)), n
        assert not is_prime(n), n


def test_is_prime_small_range():
    sieve = [True] * 10 ** 4
    sieve[0] = sieve[1] = False
    for p in range(2, 100):
        if sieve[p]:
            for k in range(p * p, 10 ** 4, p):
                sieve[k] = False
    for n in range(1, 10 ** 4):
        assert is_prime(n) == sieve[n], n


def _mr_probable_prime(n, base):
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    x = pow(base, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def test_is_prime_large_inputs():
    # exercise the deterministic witness path on ~2^60-sized inputs against
    # an independent randomized Miller-Rabin
    rng = random.Random(20822)
    for _ in range(50):
        n = rng.randint(2 ** 59, 2 ** 60) | 1
        independent = all(_mr_probable_prime(n, rng.randint(2, n - 2))
                          for _ in range(30))
        assert is_prime(n) == independent, n


def test_divisors_worked_values():
    assert divisors(1) == [1]
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert divisors(128) == [1, 2, 4, 8, 16, 32, 64, 128]


def test_divisors_sorted_and_complete():
    rng = random.Random(20823)
    for _ in range(300):
        n = rng.randint(1, 10 ** 5)
        ds = divisors(n)
        assert ds == sorted(ds)
        assert ds == [k for k in range(1, n + 1) if n % k == 0]


def _pair_divisors(n):
    # independent reference: trial pairs k, n // k for k up to sqrt(n)
    small, large = [], []
    for k in range(1, math.isqrt(n) + 1):
        if n % k == 0:
            small.append(k)
            if k != n // k:
                large.append(n // k)
    return small + large[::-1]


def test_divisors_large_n():
    # the enumeration asks for divisors of n up to about 1e7 and beyond
    rng = random.Random(20825)
    cases = [2 ** 33, 3 ** 20, 1009 ** 2, 1013 ** 3, 30011 * 30013, 99991 ** 2, 720720, 1]
    cases += [rng.randint(1, 10 ** 10) for _ in range(300)]
    for n in cases:
        assert divisors(n) == _pair_divisors(n), n


def test_factorize_reconstructs():
    rng = random.Random(20824)
    for _ in range(300):
        n = rng.randint(2, 10 ** 9)
        prod = 1
        for p, e in factorize(n).items():
            assert is_prime(p)
            prod *= p ** e
        assert prod == n


def test_is_square():
    squares = {k * k for k in range(200)}
    for n in range(-50, 200 * 200):
        assert is_square(n) == (n in squares)
