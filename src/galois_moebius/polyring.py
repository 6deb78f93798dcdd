"""Dense univariate polynomial arithmetic over a field level.

Coefficient vectors are Python lists/tuples of element codes (see gftower
for the integer encoding), constant term first, no trailing zeros.  The
zero polynomial is the empty vector.  All routines take the level as an
argument or read it off a Poly; nothing here depends on which storey of a
tower the level is, so the same code factors over F_2, F_81 or an
on-demand splitting field.

Factorization is squarefree decomposition, then distinct-degree splitting,
then equal-degree splitting (trace maps in characteristic 2, the
(Q**d - 1)/2 power map otherwise).  The equal-degree stage draws from a
local random.Random seeded by the caller, so runs are reproducible and
concurrent calls never share state.
"""

from __future__ import annotations

import itertools
import random

from .errors import (
    DivisionByZero,
    DomainError,
    InternalInvariantError,
    LevelMismatch,
    ZeroConstantTerm,
)
from .numtheory import divisors, moebius_mu


def _trim(c: list) -> list:
    while c and not c[-1]:
        c.pop()
    return c


def _monic(level, f):
    if f and f[-1] != 1:
        inv = level.inv(f[-1])
        mul = level.mul
        f = [mul(inv, a) for a in f]
    return f


def _add(level, f, g):
    add = level.add
    if len(f) < len(g):
        f, g = g, f
    out = list(f)
    for i, a in enumerate(g):
        out[i] = add(out[i], a)
    return _trim(out)


def _sub(level, f, g):
    sub = level.sub
    n = max(len(f), len(g))
    out = [sub(f[i] if i < len(f) else 0, g[i] if i < len(g) else 0) for i in range(n)]
    return _trim(out)


def _divmod(level, f, g):
    g = _trim(list(g))
    if not g:
        raise DivisionByZero("polynomial division by zero")
    f = _trim(list(f))
    df, dg = len(f) - 1, len(g) - 1
    if df < dg:
        return [], f
    inv_lc = level.inv(g[-1])
    mul, sub = level.mul, level.sub
    r = list(f)
    q = [0] * (df - dg + 1)
    for i in range(df, dg - 1, -1):
        c = r[i]
        if c:
            c = mul(c, inv_lc)
            q[i - dg] = c
            for j in range(dg + 1):
                r[i - dg + j] = sub(r[i - dg + j], mul(c, g[j]))
    return _trim(q), _trim(r)


def _exact_div(level, f, g):
    q, r = _divmod(level, f, g)
    if r:
        raise DomainError("division was expected to be exact")
    return q


def _gcd(level, f, g):
    a, b = _trim(list(f)), _trim(list(g))
    while b:
        if len(b) == 1:
            return [1]
        bm = _monic(level, b)
        a, b = bm, level.poly_rem_monic(a, bm)
    return _monic(level, a)


def _powmod(level, f, e, m):
    m = _monic(level, _trim(list(m)))
    if len(m) < 2:
        raise DomainError("powmod needs a modulus of degree >= 1")
    if e < 0:
        raise DomainError("powmod exponent must be nonnegative")
    base = level.poly_rem_monic(list(f), m)
    result = [1]
    while e:
        if e & 1:
            result = level.poly_rem_monic(level.poly_mul(result, base), m)
        e >>= 1
        if e:
            base = level.poly_rem_monic(level.poly_mul(base, base), m)
    return result


def _derivative(level, f):
    mul = level.mul
    p = level.p
    return _trim([mul(f[i], (i % p)) for i in range(1, len(f))])


def _eval(level, f, a):
    add, mul = level.add, level.mul
    acc = 0
    for c in reversed(f):
        acc = add(mul(acc, a), c)
    return acc


def _pth_root(level, f):
    p = level.p
    e = level.size // p
    pw = level.pow
    return [pw(f[i], e) for i in range(0, len(f), p)]


def _frobenius_round(level, h, f):
    """One step of the x**(Q**i) ladder modulo f: from h = x**(Q**i) mod f
    to h**Q mod f, returned with gcd(h**Q - x, f), the product of the
    distinct irreducible factors of f whose degree divides i + 1."""
    h = _powmod(level, h, level.size, f)
    hx = h + [0] * (2 - len(h))
    hx[1] = level.sub(hx[1], 1)
    return h, _gcd(level, _trim(hx), f)


def _irreducible(level, f) -> bool:
    f = _monic(level, _trim(list(f)))
    k = len(f) - 1
    if k <= 0:
        return False
    if k == 1:
        return True
    if not f[0]:
        return False
    Q = level.size
    if Q <= 256:
        for a in range(Q):
            if not _eval(level, f, a):
                return False
    h = [0, 1]
    for _ in range(k // 2):
        h, g = _frobenius_round(level, h, f)
        if len(g) > 1:
            return False
    return True


def _squarefree_decomposition(level, f):
    """f monic, degree >= 1; returns [(g, mult)] with g monic squarefree,
    pairwise coprime, and product(g**mult) == f."""
    out = []
    n = 1
    p = level.p
    f = list(f)
    while len(f) > 1:
        fp = _derivative(level, f)
        if fp:
            g = _gcd(level, f, fp)
            h = _exact_div(level, f, g)
            i = 1
            while len(h) > 1 or h[0] != 1:
                gg = _gcd(level, g, h)
                hh = _exact_div(level, h, gg)
                if len(hh) > 1:
                    out.append((hh, i * n))
                g = _exact_div(level, g, gg)
                h = gg
                i += 1
            if len(g) == 1:
                break
            f = g
        f = _pth_root(level, f)
        n *= p
    return out


def _ddf(level, f, max_degree=None):
    """Distinct-degree split of a monic squarefree f.

    Returns [(d, product of the irreducible factors of degree d)].  With
    max_degree set, factors of larger degree are silently dropped.
    """
    out = []
    rem = list(f)
    h = [0, 1]
    i = 1
    while len(rem) - 1 >= 2 * i and (max_degree is None or i <= max_degree):
        h, g = _frobenius_round(level, h, rem)
        if len(g) > 1:
            out.append((i, g))
            rem = _exact_div(level, rem, g)
            if len(rem) > 1:
                h = level.poly_rem_monic(h, rem)
            else:
                break
        i += 1
    d_rem = len(rem) - 1
    if d_rem > 0 and (max_degree is None or d_rem <= max_degree):
        out.append((d_rem, rem))
    return out


def _edf(level, f, d, rng):
    """Equal-degree split: f monic squarefree, every factor of degree d."""
    Q = level.size
    work = [list(f)]
    out = []
    while work:
        g = work.pop()
        dg = len(g) - 1
        if dg == d:
            out.append(g)
            continue
        while True:
            r = _trim([rng.randrange(Q) for _ in range(dg)])
            if len(r) < 2:
                continue
            if level.p == 2:
                m = (Q.bit_length() - 1) * d
                s = level.poly_rem_monic(list(r), g)
                t = list(s)
                for _ in range(m - 1):
                    t = level.poly_rem_monic(level.poly_mul(t, t), g)
                    s = _add(level, s, t)
            else:
                s = _sub(level, _powmod(level, r, (Q**d - 1) // 2, g), [1])
            split = _gcd(level, s, g)
            if 0 < len(split) - 1 < dg:
                work.append(split)
                work.append(_exact_div(level, g, split))
                break
    return out


def _factor(level, f, seed=0):
    """Full factorization of a nonzero f.

    Returns (lc, [(coeffs, multiplicity)]) with monic irreducible parts
    sorted by degree then lexicographic key.
    """
    f = _trim(list(f))
    if not f:
        raise DomainError("cannot factor the zero polynomial")
    lc = f[-1]
    f = _monic(level, f)
    rng = random.Random(seed)
    parts = []
    if len(f) > 1:
        for g, mult in _squarefree_decomposition(level, f):
            for d, prod in _ddf(level, g):
                for irr in _edf(level, prod, d, rng):
                    parts.append((tuple(irr), mult))
    parts.sort(key=lambda t: (len(t[0]), _coeffs_lex_key(level, t[0])))
    return lc, parts


def _coeffs_lex_key(level, coeffs):
    key = level.lex_key
    return tuple(key(c) for c in coeffs)


def _roots(level, f):
    """All roots of f in the level, sorted by lexicographic key."""
    f = _trim(list(f))
    if not f:
        raise DomainError("the zero polynomial has every root")
    found = []
    if level.size <= 4096:
        for a in range(level.size):
            if not _eval(level, f, a):
                found.append(a)
    else:
        # strip to the part that splits in this field, then split off roots
        _, lin = _frobenius_round(level, [0, 1], f)
        if len(lin) > 1:
            rng = random.Random(0xC0FFEE)
            for part in _edf(level, lin, 1, rng):
                found.append(level.neg(part[0]))
    found.sort(key=level.lex_key)
    return found


class Poly:
    """Immutable dense polynomial bound to a field level."""

    __slots__ = ("level", "coeffs")

    def __init__(self, level, coeffs):
        object.__setattr__(self, "level", level)
        cs = []
        for c in coeffs:
            if isinstance(c, int):
                cs.append(c)
            else:
                if c.level is not level:
                    raise LevelMismatch("coefficient from a different level")
                cs.append(c.val)
        if cs and (min(cs) < 0 or max(cs) >= level.size):
            raise DomainError(f"element codes {cs} out of range for {level!r}")
        object.__setattr__(self, "coeffs", tuple(_trim(cs)))

    def __setattr__(self, *_):
        raise AttributeError("Poly is immutable")

    @classmethod
    def zero(cls, level):
        return cls(level, ())

    @classmethod
    def one(cls, level):
        return cls(level, (1,))

    @classmethod
    def x(cls, level):
        return cls(level, (0, 1))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def monic(self) -> "Poly":
        return Poly(self.level, _monic(self.level, list(self.coeffs)))

    def _peer(self, other):
        if not isinstance(other, Poly):
            raise TypeError("expected a Poly")
        if other.level is not self.level:
            raise LevelMismatch("polynomials from different levels")
        return other

    def __add__(self, other):
        other = self._peer(other)
        return Poly(self.level, _add(self.level, list(self.coeffs), list(other.coeffs)))

    def __sub__(self, other):
        other = self._peer(other)
        return Poly(self.level, _sub(self.level, list(self.coeffs), list(other.coeffs)))

    def __neg__(self):
        neg = self.level.neg
        return Poly(self.level, [neg(c) for c in self.coeffs])

    def __mul__(self, other):
        other = self._peer(other)
        if not self.coeffs or not other.coeffs:
            return Poly.zero(self.level)
        return Poly(self.level, self.level.poly_mul(list(self.coeffs), list(other.coeffs)))

    def scale(self, c: int) -> "Poly":
        mul = self.level.mul
        return Poly(self.level, [mul(c, a) for a in self.coeffs])

    def __divmod__(self, other):
        other = self._peer(other)
        q, r = _divmod(self.level, list(self.coeffs), list(other.coeffs))
        return Poly(self.level, q), Poly(self.level, r)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __pow__(self, e: int):
        if e < 0:
            raise DomainError("negative polynomial power")
        out = Poly.one(self.level)
        base = self
        while e:
            if e & 1:
                out = out * base
            e >>= 1
            if e:
                base = base * base
        return out

    def __call__(self, a):
        val = a if isinstance(a, int) else a.val
        return _eval(self.level, self.coeffs, val)

    def __eq__(self, other):
        return (
            isinstance(other, Poly)
            and other.level is self.level
            and other.coeffs == self.coeffs
        )

    def __hash__(self):
        return hash((id(self.level), self.coeffs))

    def lex_key(self):
        return (len(self.coeffs), _coeffs_lex_key(self.level, self.coeffs))

    def __lt__(self, other):
        other = self._peer(other)
        return self.lex_key() < other.lex_key()

    def __repr__(self):
        from .textio import format_poly

        return f"Poly<{format_poly(self.level, self.coeffs)}>"


def gcd(f: Poly, g: Poly) -> Poly:
    """Monic greatest common divisor."""
    f._peer(g)
    return Poly(f.level, _gcd(f.level, list(f.coeffs), list(g.coeffs)))


def powmod(f: Poly, e: int, m: Poly) -> Poly:
    """f**e reduced modulo m."""
    f._peer(m)
    return Poly(f.level, _powmod(f.level, list(f.coeffs), e, list(m.coeffs)))


def derivative(f: Poly) -> Poly:
    return Poly(f.level, _derivative(f.level, list(f.coeffs)))


def is_irreducible(f: Poly) -> bool:
    return _irreducible(f.level, list(f.coeffs))


def factor(f: Poly, seed: int = 0) -> tuple[int, list[tuple[Poly, int]]]:
    """Factor f into (leading coefficient, [(monic irreducible, mult)]).

    The list is sorted by degree then lexicographic coefficient key, so the
    output is independent of the seed; the seed only steers the internal
    equal-degree splitting walk.
    """
    lc, parts = _factor(f.level, list(f.coeffs), seed)
    return lc, [(Poly(f.level, cs), m) for cs, m in parts]


def roots(f: Poly) -> list[int]:
    """Element codes of all roots of f in its own level, lex order."""
    return _roots(f.level, list(f.coeffs))


def squarefree_part_is_all(f: Poly) -> bool:
    """True when f is squarefree (gcd with its derivative is constant)."""
    return len(_gcd(f.level, list(f.coeffs), _derivative(f.level, list(f.coeffs)))) == 1


def count_irreducibles(field_size: int, k: int) -> int:
    """Number of monic irreducible polynomials of degree k over a field of
    the given size, by the divisor sum with the Moebius function."""
    if k < 1:
        raise DomainError("degree must be positive")
    total = sum(moebius_mu(d) * field_size ** (k // d) for d in divisors(k))
    if total % k:
        raise InternalInvariantError("irreducible count was not an integer")
    return total // k


def _irreducible_scan(level, k: int, coeffs):
    """Yield the monic irreducibles of degree k whose lower coefficients
    all come from coeffs, as coefficient lists with the leading 1.  With
    coeffs in lexicographic order the output is in lexicographic order."""
    for tail in itertools.product(coeffs, repeat=k):
        if k >= 2 and not tail[0]:
            continue
        cand = [*tail, 1]
        if _irreducible(level, cand):
            yield cand


def monic_irreducibles(level, k: int) -> tuple[tuple[int, ...], ...]:
    """Cached tuple of coefficient vectors (constant first, with the
    leading 1) of all monic irreducibles of degree k, in lexicographic
    coefficient order."""
    cache = level._irr_cache
    got = cache.get(k)
    if got is None:
        got = tuple(map(tuple, _irreducible_scan(level, k, level.elements_lex())))
        cache[k] = got
    return got


def iter_monic_irreducibles(level, k: int):
    """Yield every monic irreducible of degree k as a Poly, lex order."""
    for cs in monic_irreducibles(level, k):
        yield Poly(level, cs)


def frobenius_poly(f: Poly, i: int) -> Poly:
    """Apply the tower Frobenius coefficientwise: each c becomes c**(q**i)."""
    frob = getattr(f.level, "frob", None)
    if frob is None:
        raise DomainError("this level has no tower Frobenius attached")
    return Poly(f.level, [frob(c, i) for c in f.coeffs])


def reciprocal(f: Poly) -> Poly:
    """Monic reciprocal: x**deg(f) * f(1/x) scaled by f(0)**-1."""
    if not f.coeffs or not f.coeffs[0]:
        raise ZeroConstantTerm("reciprocal needs a nonzero constant term")
    inv0 = f.level.inv(f.coeffs[0])
    mul = f.level.mul
    return Poly(f.level, [mul(inv0, c) for c in reversed(f.coeffs)])


def min_subfield_degree(f: Poly) -> int:
    """Least t dividing the tower degree with all coefficients fixed by the
    t-th Frobenius power, i.e. f defined over the subfield of that index."""
    n = getattr(f.level, "gal_degree", None)
    if n is None:
        raise DomainError("this level has no tower Frobenius attached")
    for t in divisors(n):
        if frobenius_poly(f, t) == f:
            return t
    raise AssertionError("unreachable: t = n always fixes f")
