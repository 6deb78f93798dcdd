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

Products modulo a modulus of more than _PACK_CUTOVER coefficients run
packed; _mulmod makes that choice for the powering ladder of _powmod
(the Frobenius rounds of _ddf, _irreducible and _roots, and the odd-p
power map of _edf) and for the characteristic-2 trace loop of _edf.
Packed, each polynomial becomes one int, CPython's bigint multiply does
the product (Kronecker substitution), and a Barrett remainder with a
precomputed inverse of the reversed modulus reduces it.
The level's packing tables are built on the first such product, and
levels whose tables would exceed _TABLE_CAP entries keep schoolbook.
Everything else stays schoolbook, on the level's own poly_mul and
poly_rem_monic: short moduli (a census never gets near the cut-over, and
there a packed product costs more than it saves), gcds (Euclid's
quotients are short) and exact divisions.
"""

from __future__ import annotations

import itertools
import math
import random
import struct
import sys
from array import array

from .errors import (
    DegreeMismatch,
    DivisionByZero,
    DomainError,
    InternalInvariantError,
    LevelMismatch,
    ZeroConstantTerm,
)
from .numtheory import divisors, moebius_mu, prime_power_split


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


# --- packed products modulo a long modulus --------------------------------

# moduli with more coefficients than this multiply and reduce packed
_PACK_CUTOVER = 32
# most entries of a level's packing table; larger levels keep schoolbook
_TABLE_CAP = 4096

_UINT = {struct.calcsize(c): c for c in "BHIQ"}
_PARITY_DIGIT = bytes(48 + (v & 1) for v in range(256))
_DIGIT = b"0123456789abcdefghijklmnopqrstuvwxyz".ljust(256, b"\0")


class _Packing:
    """Kronecker layout of one level's element codes.

    A level whose storeys over F_p have degrees d_1, d_2, ... (bottom
    first) writes an element as a polynomial in the storey generators
    with exponents a_i < d_i, and its code's base-p digits are those
    coefficients.  Packed, each coefficient of a polynomial over the level
    owns a block of r = prod(2 d_i - 1) slots, one per exponent vector with
    a_i <= 2 d_i - 2, so a product of two elements lands unreduced in one
    block and the bigint product of two packed polynomials is the packed
    product.  A slot is wb bytes wide, wide enough that no slot sum
    carries.  Unpacking takes each slot mod p and maps a block's digits to
    a code through one table of p**r entries.
    """

    def __init__(self, level, degs):
        p = self.p = level.p
        wide = [2 * d - 1 for d in degs]
        r = self.r = math.prod(wide)
        # slot of each base-p digit position of a code
        self.slots = [_mixed(_digits_of(t, degs), wide) for t in range(math.prod(degs))]
        images = []
        for s in range(r):
            a = _digits_of(s, wide)
            b = [min(x, d - 1) for x, d in zip(a, degs)]
            c = [x - y for x, y in zip(a, b)]
            images.append(level.mul(p ** _mixed(b, degs), p ** _mixed(c, degs)))
        # a code's own digits fill only the slots below `used`
        self.used = max(self.slots) + 1
        self.table = _block_table(level, images)
        self._packers = {}

    def packer(self, wb):
        """The function packing a coefficient list with wb-byte slots."""
        pack = self._packers.get(wb)
        if pack is None:
            gap = bytes((self.r - self.used) * wb)
            get = self._slot_bytes(wb).__getitem__

            def pack(f):
                return int.from_bytes(gap.join(map(get, f)), "little")

            self._packers[wb] = pack
        return pack

    def _slot_bytes(self, wb):
        """The bytes of the slots below `used` of every code."""
        p, slots = self.p, self.slots
        out = []
        for x in range(p ** len(slots)):
            block = bytearray(self.used * wb)
            t = 0
            while x:
                x, dig = divmod(x, p)
                if dig:
                    o = slots[t] * wb
                    block[o:o + wb] = dig.to_bytes(wb, "little")
                t += 1
            out.append(bytes(block))
        return out

    def unpack(self, P, count, wb):
        """The first count coefficients of the packed polynomial P."""
        p, r = self.p, self.r
        raw = P.to_bytes(count * r * wb, "little")
        if p == 2:
            digits = raw[::wb].translate(_PARITY_DIGIT)
        else:
            digits = bytes(map(p.__rmod__, memoryview(raw).cast(_UINT[wb]))).translate(_DIGIT)
        T = self.table
        return [T[int(digits[i:i + r], p)] for i in range(0, count * r, r)]


def _digits_of(x, radix):
    out = []
    for b in radix:
        x, d = divmod(x, b)
        out.append(d)
    return out


def _mixed(digits, radix):
    x = 0
    for d, b in zip(reversed(digits), reversed(radix)):
        x = x * b + d
    return x


def _block_table(level, images):
    """Code of every digit string over the given slot images, indexed by
    the string read as a base-p numeral, first slot most significant."""
    add, mul = level.add, level.mul
    table = [0]
    for img in images:
        mults = [mul(d, img) for d in range(level.p)]
        table = [add(t, v) for t in table for v in mults]
    return array("H", table)


def _packing(level):
    """The level's _Packing, built on first use; None when the level keeps
    schoolbook: its table would exceed _TABLE_CAP entries, or p is odd and
    above base 36 or the host big-endian."""
    pk = level._packing
    if pk is None:
        degs = []
        lv = level
        while lv.base is not None:
            degs.append(lv.deg)
            lv = lv.base
        degs.reverse()
        p = level.p
        fits = p ** math.prod(2 * d - 1 for d in degs) <= _TABLE_CAP
        if p > 2:
            fits = fits and p <= 36 and sys.byteorder == "little"
        pk = level._packing = _Packing(level, degs) if fits else False
    return pk or None


class _Barrett:
    """Products modulo one monic m of degree n on the packed layout.

    The remainder is Barrett's: with mu = rev(m)**-1 mod x**n, computed
    once by Newton iteration, the quotient of a product f of length n + k
    is rev(rev(f) * mu mod x**k), and f mod m = (f + q * (-m)) mod x**n,
    all on packed ints.
    """

    def __init__(self, level, pk, m, wb):
        self.key = tuple(m)
        self.pk, self.wb = pk, wb
        self.n = n = len(m) - 1
        self._pack = pk.packer(wb)
        self.low_bits = n * pk.r * wb * 8
        self.low = (1 << self.low_bits) - 1
        neg = level.neg
        self.neg_m = self._pack([neg(c) for c in m[:n]])
        self.mu = self._pack(self._series_inverse(level, m[::-1], n))

    def _low(self, P, k):
        """The first k coefficients of the packed P."""
        return self.pk.unpack(P & ((1 << k * self.pk.r * self.wb * 8) - 1), k, self.wb)

    def _series_inverse(self, level, a, n):
        """b with a * b = 1 mod x**n, for a[0] = 1: b <- b * (2 - a * b)."""
        neg = level.neg
        b, prec = [1], 1
        while prec < n:
            prec = min(2 * prec, n)
            e = self._low(self._pack(a[:prec]) * self._pack(b), prec)
            e = [1] + [neg(c) for c in e[1:]]
            b = self._low(self._pack(b) * self._pack(e), prec)
        return b

    def mulmod(self, a, b):
        """a * b mod m for a, b reduced (at most n coefficients)."""
        if not a or not b:
            return []
        A = self._pack(a)
        return self.reduce(A * A if a is b else A * self._pack(b), len(a) + len(b) - 1)

    def reduce(self, P, lp):
        """The remainder mod m of the packed P of lp <= 2n coefficients,
        none of whose slot sums exceeds n D (p - 1)**2."""
        pk, wb, n = self.pk, self.wb, self.n
        if lp <= n:
            return _trim(pk.unpack(P, lp, wb))
        k = lp - n
        top = pk.unpack(P >> self.low_bits, k, wb)
        top.reverse()
        q = self._low(self._pack(top) * self.mu, k)
        q.reverse()
        R = (P & self.low) + ((self._pack(q) * self.neg_m) & self.low)
        return _trim(pk.unpack(R, n, wb))


def _barrett(level, m):
    """The _Barrett context of the monic m, or None when the level keeps
    schoolbook.  The level keeps the context of its last modulus, which
    serves every product of a powering ladder or an EDF attempt."""
    ctx = level._barrett
    if ctx is not None and ctx.key == tuple(m):
        return ctx
    pk = _packing(level)
    if pk is None:
        return None
    # the largest slot sum is that of f + q * (-m): 2 n D (p - 1)**2
    bound = 2 * (len(m) - 1) * len(pk.slots) * (level.p - 1) ** 2
    wb = next((w for w in sorted(_UINT) if 256**w > bound), None)
    if wb is None:
        return None
    ctx = level._barrett = _Barrett(level, pk, m, wb)
    return ctx


def _mulmod(level, m):
    """The product of two polynomials reduced modulo the monic m: packed
    when m has more than _PACK_CUTOVER coefficients and the level packs,
    schoolbook otherwise."""
    ctx = _barrett(level, m) if len(m) > _PACK_CUTOVER else None
    if ctx is not None:
        return ctx.mulmod
    mul, rem = level.poly_mul, level.poly_rem_monic
    return lambda a, b: rem(mul(a, b), m)


def _powmod(level, f, e, m):
    m = _monic(level, _trim(list(m)))
    if len(m) < 2:
        raise DomainError("powmod needs a modulus of degree >= 1")
    if e < 0:
        raise DomainError("powmod exponent must be nonnegative")
    base = level.poly_rem_monic(list(f), m)
    mulmod = _mulmod(level, m)
    result = [1]
    while e:
        if e & 1:
            result = mulmod(result, base)
        e >>= 1
        if e:
            base = mulmod(base, base)
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


_EDF_MAX_DRAWS = 200


def _edf(level, f, d, rng):
    """Equal-degree split: f monic squarefree, every factor of degree d.

    A draw splits a valid g with probability at least about 1/2, so
    _EDF_MAX_DRAWS draws in a row that do not split, like a degree that d
    does not divide, mean f was not of equal degree d.
    """
    Q = level.size
    work = [list(f)]
    out = []
    while work:
        g = work.pop()
        dg = len(g) - 1
        if dg % d:
            raise InternalInvariantError(
                f"EDF input of degree {dg} is not a product of degree-{d} factors"
            )
        if dg == d:
            out.append(g)
            continue
        if level.p == 2:
            mulmod = _mulmod(level, g)
        for _ in range(_EDF_MAX_DRAWS):
            r = _trim([rng.randrange(Q) for _ in range(dg)])
            if len(r) < 2:
                continue
            if level.p == 2:
                m = (Q.bit_length() - 1) * d
                s = level.poly_rem_monic(list(r), g)
                t = list(s)
                for _ in range(m - 1):
                    t = mulmod(t, t)
                    s = _add(level, s, t)
            else:
                s = _sub(level, _powmod(level, r, (Q**d - 1) // 2, g), [1])
            split = _gcd(level, s, g)
            if 0 < len(split) - 1 < dg:
                work.append(split)
                work.append(_exact_div(level, g, split))
                break
        else:
            raise InternalInvariantError(
                f"EDF found no split of a degree-{dg} part in {_EDF_MAX_DRAWS} draws; "
                f"its factors are not all of degree {d}"
            )
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
    if len(f) > 1:
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
    the given size, by the divisor sum with the Moebius function.  The
    size must be a prime power (NotPrime otherwise)."""
    prime_power_split(field_size)
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


def _sieve(level, k: int):
    """The monic irreducibles of degree k as tail tuples (c_0, ...,
    c_(k-1)), in lexicographic order, by crossing out every product f * g
    of a monic irreducible f of degree d <= k/2 and a monic g of degree
    k - d.

    A tail owns one flag, at the index whose base-Q digits are the
    elements_lex ranks of c_0, ..., c_(k-1), c_0 most significant, so the
    flags run in the order of itertools.product over elements_lex.  For
    k > 1 the tails with c_0 = 0 (multiples of x) are out from the start.
    For each f the products are walked by g's lower coefficients but the
    last: those fix c_0, ..., c_(m-2) (m = k - d) and the base of
    c_(m-1), ..., c_(k-1), and g's last coefficient a then adds a * f_t to
    c_(m-1+t), one column of flag offsets per (t, base) built on first use.
    """
    Q = level.size
    lex = level.elements_lex()
    rank = [0] * Q
    for r, a in enumerate(lex):
        rank[a] = r
    alive = bytearray(b"\1") * Q**k
    if k > 1:
        alive[: Q ** (k - 1)] = bytes(Q ** (k - 1))
    mul, add = level.mul, level.add
    for d in range(1, k // 2 + 1):
        m = k - d
        head = [Q ** (k - 1 - i) for i in range(m - 1)]
        for f in monic_irreducibles(level, d):
            if not f[0]:
                continue  # x, whose multiples are out already
            scaled = [[mul(a, ft) for a in range(Q)] for ft in f]
            columns = {}

            def column(t, v):
                col = columns.get((t, v))
                if col is None:
                    w = Q ** (d - t)
                    col = columns[t, v] = [rank[add(v, s)] * w for s in scaled[t]]
                return col

            for g in itertools.product(range(Q), repeat=m - 1):
                c = [0] * m + list(f[:d])
                for j, gj in enumerate(g):
                    for t in range(d + 1):
                        c[j + t] = add(c[j + t], scaled[t][gj])
                base = sum(rank[c[i]] * head[i] for i in range(m - 1))
                cols = [column(t, c[m - 1 + t]) for t in range(d + 1)]
                for off in map(sum, zip(*cols)):
                    alive[base + off] = 0
    return itertools.compress(itertools.product(lex, repeat=k), alive)


def monic_irreducibles(level, k: int) -> tuple[tuple[int, ...], ...]:
    """Cached tuple of coefficient vectors (constant first, with the
    leading 1) of all monic irreducibles of degree k, in lexicographic
    coefficient order, listed by _sieve.  The sieve holds Q**k one-byte
    flags while it runs."""
    if k < 1:
        raise DegreeMismatch("irreducible degree must be >= 1")
    cache = level._irr_cache
    got = cache.get(k)
    if got is None:
        got = tuple((*tail, 1) for tail in _sieve(level, k))
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
