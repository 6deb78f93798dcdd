"""Dense univariate polynomial arithmetic over a field level.

Coefficient vectors are Python lists/tuples of element codes (see gftower
for the integer encoding), constant term first, no trailing zeros.  The
zero polynomial is the empty vector.  All routines take the level as an
argument or read it off a Poly; nothing here depends on which storey of a
tower the level is, so the same code factors over F_2, F_81 or an
on-demand splitting field.

Factorization is squarefree decomposition, then distinct-degree splitting,
then equal-degree splitting with one trace per random draw.  The draws
come from a local random.Random with a fixed seed, so runs are
reproducible and concurrent calls never share state; they change only
the running time, never the factors.

Irreducibility is Ben-Or's test with gcds only at the rungs i in
(k/4, k/2] of the ladder x**(Q**i) mod f, after a root scan on levels of
at most 256 elements (byte-packed in characteristic 2, Horner with an
early exit for odd p).

Products modulo more than _PACK_CUTOVER coefficients run packed (_mulmod):
one bigint product of Kronecker-packed ints and a Barrett remainder with a
precomputed inverse of the reversed modulus.  Levels whose packing tables
would exceed _TABLE_CAP entries keep schoolbook, and so do short moduli,
where packing costs more than it saves.  Gcds, exact divisions and the
Q-power map by spreads (_frobenius_map) run on the level's own long
division loop; every Frobenius ladder takes that map unless the modulus
is packed (_qpow).
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
from .numtheory import divisors, factorize, moebius_mu, power, prime_power_split


def _trim(c: list) -> list:
    while c and not c[-1]:
        c.pop()
    return c


def _monic(level, f):
    if f and f[-1] != 1:
        inv = level.inv(f[-1])
        # through the multiplication row when the kernels have built it
        row = level._mul_rows and level._mul_rows[inv]
        if row:
            return list(map(row.__getitem__, f))
        mul = level.mul
        f = [mul(inv, a) for a in f]
    return f


def _add(level, f, g):
    if len(f) < len(g):
        f, g = g, f
    return _trim([*map(level.add, f, g), *f[len(g):]])


def _sub(level, f, g):
    return _add(level, f, [level.neg(c) for c in g])


def _divmod(level, f, g):
    g = _trim(list(g))
    if not g:
        raise DivisionByZero("polynomial division by zero")
    q, r = level.poly_divmod_monic(f, _monic(level, g))
    if g[-1] != 1:
        q = level.poly_mul(q, [level.inv(g[-1])])
    return q, r


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
    return power(level.poly_rem_monic(list(f), m), e, _mulmod(level, m), [1])


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


def _minus_x(level, h):
    hx = h + [0] * (2 - len(h))
    hx[1] = level.sub(hx[1], 1)
    return _trim(hx)


def _frobenius_map(level, m):
    """h -> h**Q mod the monic m without multiplying: for Q = p**f, f
    rounds of h -> sum(h_i**p * x**(i*p)), a spread by p and a remainder,
    each about p * deg(m) long whatever Q is, and cheap for a sparse m."""
    p, rounds, rem = level.p, level.flat_deg, level.poly_rem_monic
    pth = level._pth
    if pth is None:
        exp, o = level._exp, level.size - 1
        pth = level._pth = (
            [0, *[exp[x * p % o] for x in level._log[1:]]].__getitem__
            if exp
            else lambda c: level.pow(c, p)
        )

    def qpow(h):
        for _ in range(rounds):
            if not h:
                break
            spread = [0] * ((len(h) - 1) * p + 1)
            spread[::p] = map(pth, h)
            h = rem(spread, m)
        return h

    return qpow


def _qpow(level, m):
    """The map h -> h**Q modulo the monic m, Q the level's size: packed
    square-and-multiply when _mulmod would pack m, _frobenius_map's spreads
    otherwise.  The spreads need no product and take about half the time
    of schoolbook powering, but more than the packed kernel's on long
    moduli."""
    ctx = _barrett(level, m) if len(m) > _PACK_CUTOVER else None
    if ctx is None:
        return _frobenius_map(level, m)
    rem, Q = level.poly_rem_monic, level.size
    return lambda h: power(rem(h, m), Q, ctx.mulmod, [1])


def _degree_part(level, m, k, qpow):
    """The product of the distinct irreducible factors of degree k of the
    monic m, from the ladder x**(Q**i) mod m (qpow: h -> h**Q mod m):
    gcd(x**(Q**k) - x, m) with gcd(x**(Q**(k/r)) - x, .) divided out for
    each prime r | k."""
    primes = factorize(k)
    rungs = {}
    h = level.poly_rem_monic([0, 1], m)
    for i in range(1, k + 1):
        h = qpow(h)
        if i < k and k % i == 0 and k // i in primes:
            rungs[i] = h
    part = _gcd(level, _minus_x(level, h), m)
    for h in rungs.values():
        if len(part) == 1:
            break
        part = _exact_div(level, part, _gcd(level, _minus_x(level, h), part))
    return part


def _has_root(level, f) -> bool:
    """Whether f has a root in the level, of at most 256 elements.  In
    characteristic 2, f is evaluated at every element at once: the codes'
    i-th powers are one byte string per i, c_i * a**i for every a is its
    translate through c_i's multiplication row, and their XOR, read as
    ints, holds f(a) in byte a.  Odd p evaluates by Horner through a's
    multiplication row and stops at the first root."""
    Q = level.size
    if level.p > 2:
        add, rows, cs = level.add, level._mul_rows, f[::-1]
        for a in range(Q):
            row = rows[a] or level._build_mul_row(a)
            acc = 0
            for c in cs:
                acc = add(row[acc], c)
            if not acc:
                return True
        return False
    if level._scan is None:
        level._scan = ([bytes([1] * Q)], [None] * Q)
    powers, byte_rows = level._scan
    while len(powers) < len(f):
        powers.append(bytes(map(level.mul, powers[-1], range(Q))))
    acc = 0
    for c, pw in zip(f, powers):
        if c:
            if c != 1:
                row = byte_rows[c]
                if row is None:
                    row = bytes(level._mul_rows[c] or level._build_mul_row(c))
                    row = byte_rows[c] = row.ljust(256, b"\0")
                pw = pw.translate(row)
            acc ^= int.from_bytes(pw, "little")
    return 0 in acc.to_bytes(Q, "little")


def _irreducible(level, f) -> bool:
    """Ben-Or's test: f of degree k is irreducible exactly when it has no
    irreducible factor of degree d <= k/2.  Every such d divides some i in
    (k//4, k//2], so the ladder x**(Q**i) mod f, i <= k//2, takes
    gcd(x**(Q**i) - x, f) only at those rungs.  On levels of at most 256
    elements a root scan (_has_root) runs first, and turns away the many
    candidates with a linear factor before any ladder is built."""
    f = _monic(level, _trim(list(f)))
    k = len(f) - 1
    if k <= 0:
        return False
    if k == 1:
        return True
    if not f[0]:
        return False
    if level.size <= 256 and _has_root(level, f):
        return False
    h, qpow = [0, 1], _qpow(level, f)
    for i in range(1, k // 2 + 1):
        h = qpow(h)
        if i > k // 4 and len(_gcd(level, _minus_x(level, h), f)) > 1:
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


def _ddf(level, f):
    """Distinct-degree split of a monic squarefree f: returns
    [(d, product of the irreducible factors of degree d)]."""
    out = []
    rem = list(f)
    h, qpow = [0, 1], _qpow(level, rem)
    i = 1
    while len(rem) - 1 >= 2 * i:
        h = qpow(h)
        g = _gcd(level, _minus_x(level, h), rem)
        if len(g) > 1:
            out.append((i, g))
            rem = _exact_div(level, rem, g)
            if len(rem) > 1:
                h, qpow = level.poly_rem_monic(h, rem), _qpow(level, rem)
            else:
                break
        i += 1
    if len(rem) > 1:
        out.append((len(rem) - 1, rem))
    return out


_EDF_MAX_DRAWS = 200


def _edf(level, f, d, rng, qpow=None):
    """Equal-degree split: f monic squarefree, every factor of degree d.

    Each draw takes one trace T = sum(r**(Q**i), i < d) through qpow, the
    map h -> h**Q modulo a multiple of f (by default _qpow mod f).  T is
    in F_Q modulo each factor, so every pending w splits by t = T mod w,
    once per shift c: gcd(Tr(c*t), w) with Tr the trace to F_2 in
    characteristic 2, gcd((t + c)**((Q-1)/2) - 1, w) for odd p (one shift
    when d = 1, where T = r).  A draw separates two factors with
    probability about 1/2 or more, so _EDF_MAX_DRAWS draws that leave a
    part of degree above d mean f was not of equal degree d.
    """
    Q = level.size
    f = list(f)
    if qpow is None:
        qpow = _qpow(level, f)
    rem, e = level.poly_rem_monic, Q.bit_length() - 1
    shifts = [c for c in (1, 2, 4) if c < Q] if level.p == 2 else [0, 1, 2]
    if d == 1:
        del shifts[1:]
    out, pending, draws = [], [f], 0
    while True:
        for w in pending:
            if (len(w) - 1) % d:
                raise InternalInvariantError(
                    f"EDF input of degree {len(w) - 1} is not a product of degree-{d} factors"
                )
        out += [w for w in pending if len(w) - 1 == d]
        pending = [w for w in pending if len(w) - 1 > d]
        if not pending:
            return out
        if draws == _EDF_MAX_DRAWS:
            raise InternalInvariantError(
                f"EDF found no split of a degree-{len(pending[0]) - 1} part in "
                f"{_EDF_MAX_DRAWS} draws; its factors are not all of degree {d}"
            )
        draws += 1
        # r uniform modulo the product of the pending factors, not constant
        T = h = _trim([rng.randrange(Q) for _ in range(sum(len(w) - 1 for w in pending))])
        if len(T) < 2:
            continue
        for _ in range(d - 1):
            h = qpow(h)
            T = _add(level, T, h)
        T = rem(T, f)
        work = [(w, T) for w in pending]
        for c in shifts:
            done = []
            for w, t in work:
                if len(w) - 1 > d:
                    if len(t) >= len(w):
                        t = rem(t, w)
                    if level.p > 2:
                        s = _powmod(level, _add(level, t, [c]), (Q - 1) // 2, w)
                        s = _sub(level, s, [1])
                    else:
                        sq = _mulmod(level, w)
                        y = s = [level.mul(c, a) for a in t] if c > 1 else t
                        for _ in range(e - 1):
                            y = sq(y, y)
                            s = _add(level, s, y)
                    g = _gcd(level, s, w)
                    if 1 < len(g) < len(w):
                        done += [(g, t), (_exact_div(level, w, g), t)]
                        continue
                done.append((w, t))
            work = done
        pending = [w for w, _ in work]


def _factor(level, f):
    """Full factorization of a nonzero f.

    Returns (lc, [(coeffs, multiplicity)]) with monic irreducible parts
    sorted by degree then lexicographic key, whatever the EDF draws.
    """
    f = _trim(list(f))
    if not f:
        raise DomainError("cannot factor the zero polynomial")
    lc = f[-1]
    f = _monic(level, f)
    rng = random.Random(0)
    parts = []
    if len(f) > 1:
        for g, mult in _squarefree_decomposition(level, f):
            for d, prod in _ddf(level, g):
                for irr in _edf(level, prod, d, rng):
                    parts.append((tuple(irr), mult))
    parts.sort(key=lambda t: (len(t[0]), _coeffs_lex_key(level, t[0])))
    return lc, parts


def _coeffs_lex_key(level, coeffs):
    """The coefficients' Level.lex_key read as one base-Q numeral, constant
    term most significant: equal lengths compare like the key tuples."""
    Q, out = level.size, 0
    for key in map(level.lex_key, coeffs):
        out = out * Q + key
    return out


def _roots(level, f):
    """All roots of f in the level, sorted by lexicographic key."""
    f = _trim(list(f))
    if not f:
        raise DomainError("the zero polynomial has every root")
    found = []
    if len(f) > 1:
        # strip to the part that splits in this field, then split off roots
        f = _monic(level, f)
        lin = _degree_part(level, f, 1, _qpow(level, f))
        if len(lin) > 1:
            # one root (the monic lin is x - root) needs no random split
            parts = [lin] if len(lin) == 2 else _edf(level, lin, 1, random.Random(0xC0FFEE))
            found += [level.neg(part[0]) for part in parts]
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
        return power(self, e, Poly.__mul__, Poly.one(self.level))

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


def factor(f: Poly) -> tuple[int, list[tuple[Poly, int]]]:
    """Factor f into (leading coefficient, [(monic irreducible, mult)]).

    The list is sorted by degree then lexicographic coefficient key; the
    equal-degree split's random draws change only the running time.
    """
    lc, parts = _factor(f.level, list(f.coeffs))
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
    if not isinstance(k, int) or k < 1:
        raise DomainError(f"degree must be an int >= 1, got {k!r}")
    total = sum(moebius_mu(d) * field_size ** (k // d) for d in divisors(k))
    if total % k:
        raise InternalInvariantError("irreducible count was not an integer")
    return total // k


def _irreducible_scan(level, k: int, coeffs):
    """Yield the monic irreducibles of degree k whose lower coefficients
    all come from coeffs, as coefficient lists with the leading 1.  With
    coeffs in lexicographic order the output is in lexicographic order.
    One Ben-Or test per candidate; it serves gftower.first_irreducible,
    which stops at the first hit, and the tests, as the sieve's oracle."""
    for tail in itertools.product(coeffs, repeat=k):
        if k >= 2 and not tail[0]:
            continue
        cand = [*tail, 1]
        if _irreducible(level, cand):
            yield cand


def _sieve(level, k: int, coeffs):
    """The monic irreducibles of degree k over the subfield whose codes
    are coeffs, in elements_lex order, as tail tuples (c_0, ..., c_(k-1))
    in lexicographic order, by crossing out every product f * g of a monic
    irreducible f of degree d <= k/2 (listed by the same sieve) and a
    monic g of degree k - d, both over the subfield.

    A tail owns one flag, at the index whose base-Q digits (Q = len(coeffs))
    are the ranks in coeffs of c_0, ..., c_(k-1), c_0 most significant, so
    the flags run in the order of itertools.product over coeffs.  For
    k > 1 the tails with c_0 = 0 (multiples of x) are out from the start.
    For each f the products are walked by g's lower coefficients but the
    last: those fix c_0, ..., c_(m-2) (m = k - d) and the base of
    c_(m-1), ..., c_(k-1), and g's last coefficient a then adds a * f_t to
    c_(m-1+t), one column of flag offsets per (t, base) built on first use.
    """
    Q = len(coeffs)
    rank = {a: r for r, a in enumerate(coeffs)}
    alive = bytearray(b"\1") * Q**k
    if k > 1:
        alive[: Q ** (k - 1)] = bytes(Q ** (k - 1))
    mul, add = level.mul, level.add
    for d in range(1, k // 2 + 1):
        m = k - d
        head = [Q ** (k - 1 - i) for i in range(m - 1)]
        for tail in _sieve(level, d, coeffs):
            if not tail[0]:
                continue  # x, whose multiples are out already
            scaled = [[mul(a, ft) for a in coeffs] for ft in (*tail, 1)]
            columns = {}

            def column(t, v):
                col = columns.get((t, v))
                if col is None:
                    w = Q ** (d - t)
                    col = columns[t, v] = [rank[add(v, s)] * w for s in scaled[t]]
                return col

            for g in itertools.product(range(Q), repeat=m - 1):
                c = [0] * m + list(tail)
                for j, gj in enumerate(g):
                    for t in range(d + 1):
                        c[j + t] = add(c[j + t], scaled[t][gj])
                base = sum(rank[c[i]] * head[i] for i in range(m - 1))
                cols = [column(t, c[m - 1 + t]) for t in range(d + 1)]
                for off in map(sum, zip(*cols)):
                    alive[base + off] = 0
    return itertools.compress(itertools.product(coeffs, repeat=k), alive)


def monic_irreducibles(level, k: int) -> tuple[tuple[int, ...], ...]:
    """Cached tuple of coefficient vectors (constant first, with the
    leading 1) of all monic irreducibles of degree k, in lexicographic
    coefficient order, listed by _sieve.  The sieve holds Q**k one-byte
    flags while it runs."""
    if not isinstance(k, int) or k < 1:
        raise DegreeMismatch(f"irreducible degree must be an int >= 1, got {k!r}")
    cache = level._irr_cache
    got = cache.get(k)
    if got is None:
        got = tuple((*tail, 1) for tail in _sieve(level, k, level.elements_lex()))
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
