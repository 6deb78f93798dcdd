"""Integer helpers: primality, factorization, divisors, phi, mu, and the
two group algorithms shared by field levels, polynomials modulo f and
semilinear group elements: power (square-and-multiply) and
order_from_multiple (an element's order from a known multiple of it).

Everything here is deterministic.  Miller-Rabin uses a fixed base set that
is exact for inputs below 3.3 * 10**24, far above anything this package
handles; Pollard rho uses a fixed sequence of polynomial offsets.
"""

from __future__ import annotations

import math

from .errors import DomainError, NotPrime

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_rho(n: int) -> int:
    # Brent's cycle variant; offsets c = 1, 2, ... keep it deterministic.
    if n % 2 == 0:
        return 2
    for c in range(1, 100):
        y, r, q = 2, 1, 1
        g, ys, x = 1, 0, 0
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += 128
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g
    raise ArithmeticError(f"pollard rho failed on {n}")


def factorize(n: int) -> dict[int, int]:
    """Prime factorization as {prime: exponent}; n must be >= 1."""
    if n < 1:
        raise DomainError(f"factorize needs a positive integer, got {n}")
    out: dict[int, int] = {}
    for p in _SMALL_PRIMES:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        d = _pollard_rho(m)
        stack.append(d)
        stack.append(m // d)
    return dict(sorted(out.items()))


def divisors(n: int) -> list[int]:
    """All positive divisors of n, ascending."""
    ds = [1]
    for p, k in factorize(n).items():
        ds = [d * p**i for d in ds for i in range(k + 1)]
    return sorted(ds)


def euler_phi(n: int) -> int:
    out = n
    for p in factorize(n):
        out = out // p * (p - 1)
    return out


def moebius_mu(n: int) -> int:
    mu = 1
    for _, k in factorize(n).items():
        if k > 1:
            return 0
        mu = -mu
    return mu


def prime_power_split(q: int) -> tuple[int, int]:
    """Write q = p**e with p prime; raises NotPrime otherwise."""
    if q < 2:
        raise NotPrime(f"{q} is not a prime power")
    fac = factorize(q)
    if len(fac) != 1:
        raise NotPrime(f"{q} is not a prime power")
    [(p, e)] = fac.items()
    return p, e


def power(x, e: int, mul, one):
    """x**e by square-and-multiply under the product mul, with one the
    identity, for an int e >= 0 (DomainError otherwise).  Squarings are
    mul(x, x) with the same object twice, so mul can spot them."""
    if not isinstance(e, int) or e < 0:
        raise DomainError(f"exponent must be an int >= 0, got {e!r}")
    result = one
    while e:
        if e & 1:
            result = mul(result, x)
        e >>= 1
        if e:
            x = mul(x, x)
    return result


def order_from_multiple(m: int, trivial_at) -> int:
    """The least k with trivial_at(k), given trivial_at(m) for an m >= 1 and
    that such k are the multiples of the least one, as the k with x**k = 1
    are: each prime factor r comes off m while trivial_at(m // r) holds."""
    for r in factorize(m):
        while m % r == 0 and trivial_at(m // r):
            m //= r
    return m
