"""Elementary number-theoretic helpers: Kronecker symbol, primality,
factorization, and divisors built from the factorization."""

import math


def kronecker(a: int, n: int) -> int:
    """Kronecker symbol (a|n), extended to all integer pairs.

    Conventions: (a|0) = 1 iff |a| = 1 else 0; (a|-1) = -1 iff a < 0;
    (a|2) = 0 for even a, else +1 for a = +-1 mod 8 and -1 for a = +-3 mod 8.
    Completely multiplicative in n, reduces to Jacobi for odd positive n.
    """
    if n == 0:
        return 1 if a in (1, -1) else 0
    result = 1
    if n < 0:
        n = -n
        if a < 0:
            result = -result
    if n % 2 == 0:
        if a % 2 == 0:
            return 0
        while n % 2 == 0:
            n //= 2
            if a % 8 in (3, 5):
                result = -result
    # n is now odd and positive: standard Jacobi loop via reciprocity
    a %= n
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def is_squarefree(n: int) -> bool:
    if n < 1:
        raise ValueError("is_squarefree expects n >= 1")
    return all(e == 1 for e in factorize(n).values())


def is_fundamental_discriminant(d: int) -> bool:
    """True iff d is a fundamental discriminant.

    Either d = 1 mod 4 and squarefree, or d = 0 mod 4 with d/4 squarefree
    and d/4 = 2 or 3 mod 4. The trivial discriminant 1 is excluded.
    """
    if d in (0, 1):
        return False
    if d % 4 == 1:
        return is_squarefree(abs(d))
    if d % 4 == 0:
        q = d // 4
        return q % 4 in (2, 3) and is_squarefree(abs(q))
    return False


_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for all n < 3.3e24; below
    3 215 031 751, the least strong pseudoprime to 2, 3, 5 and 7, those four
    bases alone are exact."""
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES[:4] if n < 3_215_031_751 else _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def divisors(n: int) -> list:
    """All positive divisors of n >= 1, ascending, multiplied out from
    factorize(n) one prime power at a time."""
    if n < 1:
        raise ValueError("divisors expects n >= 1")
    out = [1]
    for p, e in factorize(n).items():
        out += [d * p ** k for k in range(1, e + 1) for d in out]
    out.sort()
    return out


def factorize(n: int) -> dict:
    """Prime factorization of n >= 1 as {p: exponent} by trial division over
    2, 3 and the 6k +- 1 wheel, up to the square root of what is left."""
    if n < 1:
        raise ValueError("factorize expects n >= 1")
    out = {}
    for p in (2, 3):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    f = 5
    while f * f <= n:
        for p in (f, f + 2):
            while n % p == 0:
                out[p] = out.get(p, 0) + 1
                n //= p
        f += 6
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def is_square(n: int) -> bool:
    if n < 0:
        return False
    r = math.isqrt(n)
    return r * r == n
