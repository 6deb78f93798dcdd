"""Two-storey finite field towers F_p <= F_q <= F_(q**n), q = p**e.

Element representation.  Every field element is a plain int, the positional
encoding of its coefficient vector: an element of an extension level with
coefficients (c_0, ..., c_(d-1)) over a base of size B is the integer
sum(c_i * B**i).  Because every level size is a power of p, the same int is
also the base-p positional encoding of the flattened coordinate vector over
F_p.  Consequences used throughout:

* 0 and 1 encode the additive and multiplicative identities at every level;
* a base-level element embeds into any extension as the same int;
* in characteristic 2, addition at every level is integer xor.

Every level, the prime field included, runs one set-up on its generic
product (a * b mod p, or over the level below modulo the level's modulus):
discrete exp/log tables (for mul, inv, pow) when it has at most 2**16
elements, and lazy per-row multiplication and addition tables for the
polynomial inner loops when it has at most 2048.  In characteristic 2 the
exp table takes the generic product only on the flat basis and steps by
byte tables of the F_2-linear map a -> a * gen.  Larger levels power the
generic product by square-and-multiply.

The tower Frobenius x -> x**(q**i) is the top level's power map, so on a
top with exp/log tables it is one table lookup; it needs no tables of its
own.

Moduli default to the lexicographically smallest monic irreducible of the
right degree, where coefficient vectors are compared constant term first
and elements are compared by their flattened base-p digit vectors; each is
searched once per (level, degree).  Towers and levels are interned, so
equal parameters give identical objects and shared caches.
"""

from __future__ import annotations

from itertools import compress
from operator import xor

from . import polyring
from .errors import (
    DegreeMismatch,
    DivisionByZero,
    DomainError,
    LevelMismatch,
    NotFound,
    NotPrime,
    ReducibleModulus,
)
from .numtheory import divisors, factorize, is_prime, order_from_multiple, power

_LOG_CAP = 1 << 16
_ROW_CAP = 2048


class Level:
    """One storey of a tower; see the module docstring for the encoding."""

    def __init__(self):
        self.p = 0
        self.size = 0
        self.deg = 1
        # degree over the prime field, the number of base-p digits of a code
        self.flat_deg = 1
        self.base = None
        self.modulus = None
        # set by FieldTower on its own levels
        self.frob = None
        self.gal_degree = None
        self.tower = None
        self._irr_cache = {}
        self._elements_lex = None
        self._mul_rows = None
        self._add_rows = None
        self._exp = None
        self._log = None
        # packed-product tables and the last long modulus' Barrett
        # context, built by polyring on the first long operand
        self._packing = None
        self._barrett = None
        # c -> c**p, built by polyring._frobenius_map
        self._pth = None
        # the codes' powers and byte multiplication rows of polyring._has_root
        self._scan = None
        # format_element of every code on a row level, built by textio
        self._tokens = None
        # the multiplicative generator, kept by _generator
        self._gen = None

    # --- encoding ---------------------------------------------------

    def decode(self, a: int) -> list[int]:
        raise NotImplementedError

    def encode(self, vec) -> int:
        raise NotImplementedError

    def lex_key(self, a: int) -> int:
        """Sort key of the code a: its flat_deg base-p digits read as one
        numeral, constant digit first, so keys compare like the flattened
        coordinate vectors."""
        p = self.p
        key = 0
        for _ in range(self.flat_deg):
            a, d = divmod(a, p)
            key = key * p + d
        return key

    def elements_lex(self) -> tuple[int, ...]:
        if self._elements_lex is None:
            self._elements_lex = tuple(sorted(range(self.size), key=self.lex_key))
        return self._elements_lex

    # --- scalar arithmetic installed by subclasses --------------------

    def _install_scalar_ops(self):
        p = self.p
        size = self.size

        if p == 2:
            self.add = xor
            self.sub = self.add
            self.neg = lambda a: a
        else:
            def _neg(a, _p=p):
                out = 0
                mult = 1
                while a:
                    d = a % _p
                    if d:
                        out += (_p - d) * mult
                    a //= _p
                    mult *= _p
                return out

            self.neg = _neg
            if size <= _ROW_CAP:
                # row levels negate by table lookup
                self.neg = list(map(_neg, range(size))).__getitem__
                self._add_rows = [None] * size

                def _add(a, b, _rows=self._add_rows, _build=self._build_add_row):
                    row = _rows[a]
                    if row is None:
                        row = _build(a)
                    return row[b]

                self.add = _add
            else:
                self.add = self._addd
            self.sub = lambda a, b: self.add(a, self.neg(b))

        if self._exp is not None:
            exp, log = self._exp, self._log
            order = size - 1

            def _mul(a, b, _exp=exp, _log=log):
                if a and b:
                    return _exp[_log[a] + _log[b]]
                return 0

            def _inv(a, _exp=exp, _log=log, _o=order):
                if not a:
                    raise DivisionByZero("inverse of zero")
                return _exp[_o - _log[a]]

            def _pow(a, k, _exp=exp, _log=log, _o=order):
                if not a:
                    if k > 0:
                        return 0
                    if k == 0:
                        return 1
                    raise DivisionByZero("negative power of zero")
                return _exp[_log[a] * k % _o]

            self.mul, self.inv, self.pow = _mul, _inv, _pow
        else:
            self.mul = self._mul_generic
            self.inv = self._inv_generic
            self.pow = self._pow_generic

        if self.size <= _ROW_CAP:
            self._mul_rows = [None] * self.size

    def _build_mul_row(self, a):
        mul = self.mul
        row = [mul(a, b) for b in range(self.size)]
        self._mul_rows[a] = row
        return row

    def _addd(self, a, b):
        """Digitwise sum of two codes over F_p, for odd p."""
        p = self.p
        out = 0
        mult = 1
        while a or b:
            out += ((a % p) + (b % p)) % p * mult
            a //= p
            b //= p
            mult *= p
        return out

    def _build_add_row(self, a):
        addd = self._addd
        row = [addd(a, b) for b in range(self.size)]
        self._add_rows[a] = row
        return row

    def _inv_generic(self, a):
        if not a:
            raise DivisionByZero("inverse of zero")
        return self._pow_generic(a, self.size - 2)

    def _pow_generic(self, a, k):
        if k < 0:
            a, k = self._inv_generic(a), -k
        return power(a, k, self._mul_generic, 1)

    def _mul_generic(self, a, b):
        raise NotImplementedError

    def _generator(self):
        """The least code that generates the multiplicative group.  A proper
        extension skips the base field's codes, which never generate; a low
        code is a short polynomial, so the exp table's products are cheap.
        Searched once and kept on the level."""
        if self._gen is None:
            order = self.size - 1
            prime_parts = [order // r for r in factorize(order)] if order > 1 else []
            for cand in range(self.base.size if self.deg > 1 else 1, self.size):
                if all(self._pow_generic(cand, m) != 1 for m in prime_parts):
                    self._gen = cand
                    break
            else:
                raise NotFound("no multiplicative generator found")
        return self._gen

    def _build_exp_log(self):
        size = self.size
        if size > _LOG_CAP:
            return
        order = size - 1
        gen = self._generator()
        exp = [1] * (2 * order)
        acc = 1
        if self.p == 2:
            # a -> a * gen is F_2-linear: one table per byte of the code
            images = [self._mul_generic(1 << t, gen) for t in range(self.flat_deg)]
            low, high = [0], [0]
            for t, img in enumerate(images):
                table = low if t < 8 else high
                table += [x ^ img for x in table]
            for i in range(1, order):
                acc = exp[i] = low[acc & 255] ^ high[acc >> 8]
        else:
            for i in range(1, order):
                acc = exp[i] = self._mul_generic(acc, gen)
        for i in range(order, 2 * order):
            exp[i] = exp[i - order]
        log = [0] * size
        for i in range(order):
            log[exp[i]] = i
        self._exp, self._log = exp, log

    # --- polynomial inner loops ---------------------------------------

    def _install_poly_ops(self):
        # each kind has its own product and one in-place long division of r
        # by a monic m of degree dm, given as its pairs (j, m[j] != 0), j < dm:
        # step i reads r[i] and writes only below it, so the remainder is
        # left in r[:dm] and the quotient in r[dm:]
        if self._mul_rows is not None and self.p == 2:
            rows = self._mul_rows
            build = self._build_mul_row

            def poly_mul(f, g, _rows=rows, _build=build):
                res = [0] * (len(f) + len(g) - 1)
                for i, a in enumerate(f):
                    if a:
                        row = _rows[a]
                        if row is None:
                            row = _build(a)
                        for j, b in enumerate(g):
                            if b:
                                res[i + j] ^= row[b]
                return res

            def divide(r, dm, pairs, _rows=rows, _build=build):
                for i in range(len(r) - 1, dm - 1, -1):
                    c = r[i]
                    if c:
                        row = _rows[c]
                        if row is None:
                            row = _build(c)
                        off = i - dm
                        for j, b in pairs:
                            r[off + j] ^= row[b]

        elif self._mul_rows is not None and self._add_rows is not None:
            mrows, arows = self._mul_rows, self._add_rows
            mbuild, abuild = self._build_mul_row, self._build_add_row
            neg = self.neg

            def poly_mul(f, g):
                res = [0] * (len(f) + len(g) - 1)
                for i, a in enumerate(f):
                    if a:
                        mrow = mrows[a]
                        if mrow is None:
                            mrow = mbuild(a)
                        for j, b in enumerate(g):
                            if b:
                                t = mrow[b]
                                cur = res[i + j]
                                if cur:
                                    arow = arows[cur]
                                    if arow is None:
                                        arow = abuild(cur)
                                    res[i + j] = arow[t]
                                else:
                                    res[i + j] = t
                return res

            def divide(r, dm, pairs):
                for i in range(len(r) - 1, dm - 1, -1):
                    c = r[i]
                    if c:
                        nc = neg(c)
                        mrow = mrows[nc]
                        if mrow is None:
                            mrow = mbuild(nc)
                        off = i - dm
                        for j, b in pairs:
                            t = mrow[b]
                            cur = r[off + j]
                            if cur:
                                arow = arows[cur]
                                if arow is None:
                                    arow = abuild(cur)
                                r[off + j] = arow[t]
                            else:
                                r[off + j] = t

        else:
            add, mul = self.add, self.mul
            sub = self.sub

            def poly_mul(f, g):
                res = [0] * (len(f) + len(g) - 1)
                for i, a in enumerate(f):
                    if a:
                        for j, b in enumerate(g):
                            if b:
                                res[i + j] = add(res[i + j], mul(a, b))
                return res

            def divide(r, dm, pairs):
                for i in range(len(r) - 1, dm - 1, -1):
                    c = r[i]
                    if c:
                        off = i - dm
                        for j, b in pairs:
                            r[off + j] = sub(r[off + j], mul(c, b))

        # the last modulus with its nonzero terms, as one tuple: a powering
        # ladder or a Frobenius map divides by one modulus many times
        last = [None]

        def terms(m, dm):
            got = last[0]
            if got is None or m != got[0]:
                got = last[0] = (list(m), [*compress(enumerate(m), m[:dm])])
            return got[1]

        def poly_divmod_monic(f, m):
            dm = len(m) - 1
            r = polyring._trim(list(f))
            if len(r) <= dm:
                return [], r
            divide(r, dm, terms(m, dm))
            q = r[dm:]
            del r[dm:]
            return q, polyring._trim(r)

        def poly_rem_monic(f, m):
            # the hot path of gcds and short moduli: trims inline
            dm = len(m) - 1
            r = list(f)
            while r and not r[-1]:
                r.pop()
            if len(r) > dm:
                divide(r, dm, terms(m, dm))
                del r[dm:]
                while r and not r[-1]:
                    r.pop()
            return r

        self.poly_mul = poly_mul
        self.poly_rem_monic = poly_rem_monic
        self.poly_divmod_monic = poly_divmod_monic

    def __repr__(self):
        return f"<Level GF({self.size})>"


class PrimeLevel(Level):
    def __init__(self, p):
        super().__init__()
        if not is_prime(p):
            raise NotPrime(f"{p} is not prime")
        self.p = p
        self.size = p
        self._build_exp_log()
        self._install_scalar_ops()
        self._install_poly_ops()

    def _mul_generic(self, a, b):
        return a * b % self.p

    def decode(self, a):
        return [a]

    def encode(self, vec):
        vec = list(vec)
        return vec[0] if vec else 0


class ExtLevel(Level):
    def __init__(self, base: Level, modulus):
        super().__init__()
        modulus = tuple(modulus)
        if len(modulus) < 2 or modulus[-1] != 1:
            raise ReducibleModulus("modulus must be monic of degree >= 1")
        if not polyring._irreducible(base, list(modulus)):
            raise ReducibleModulus("modulus is not irreducible over its base")
        self.p = base.p
        self.base = base
        self.modulus = modulus
        self.deg = len(modulus) - 1
        self.flat_deg = base.flat_deg * self.deg
        self.size = base.size**self.deg
        self._build_exp_log()
        self._install_scalar_ops()
        self._install_poly_ops()

    def decode(self, a):
        B = self.base.size
        out = []
        for _ in range(self.deg):
            out.append(a % B)
            a //= B
        return out

    def encode(self, vec):
        B = self.base.size
        out = 0
        mult = 1
        for c in vec:
            out += c * mult
            mult *= B
        return out

    def _mul_generic(self, a, b):
        if not a or not b:
            return 0
        base = self.base
        va = polyring._trim(self.decode(a))
        vb = polyring._trim(self.decode(b))
        prod = base.poly_mul(va, vb)
        if len(prod) - 1 >= self.deg:
            prod = base.poly_rem_monic(prod, list(self.modulus))
        return self.encode(prod)

    def __repr__(self):
        return f"<Level GF({self.size}) over GF({self.base.size})>"


_PRIME_LEVELS: dict[int, PrimeLevel] = {}
_EXT_LEVELS: dict[tuple[int, tuple], ExtLevel] = {}


def prime_level(p: int) -> PrimeLevel:
    lvl = _PRIME_LEVELS.get(p)
    if lvl is None:
        lvl = PrimeLevel(p)
        _PRIME_LEVELS[p] = lvl
    return lvl


def ext_level(base: Level, modulus) -> ExtLevel:
    key = (id(base), tuple(modulus))
    lvl = _EXT_LEVELS.get(key)
    if lvl is None:
        lvl = ExtLevel(base, modulus)
        _EXT_LEVELS[key] = lvl
    return lvl


def quadratic_extension(level: Level) -> ExtLevel:
    """Degree 2 extension of an arbitrary level, cached on the level: the
    splitting field of every irreducible quadratic over it."""
    ext = getattr(level, "_quad_ext", None)
    if ext is None:
        ext = ext_level(level, first_irreducible(level, 2))
        level._quad_ext = ext
    return ext


_FIRST_IRREDUCIBLE: dict[tuple[Level, int], tuple[int, ...]] = {}


def first_irreducible(level: Level, k: int) -> tuple[int, ...]:
    """Lexicographically smallest monic irreducible of degree k, kept per
    (level, degree): it is every default modulus of build_tower."""
    if not isinstance(k, int) or k < 1:
        raise DegreeMismatch(f"modulus degree must be an int >= 1, got {k!r}")
    got = _FIRST_IRREDUCIBLE.get((level, k))
    if got is None:
        got = next(polyring._irreducible_scan(level, k, level.elements_lex()), None)
        if got is None:
            raise NotFound("no irreducible of the requested degree")
        got = _FIRST_IRREDUCIBLE[level, k] = tuple(got)
    return got


def _q_linear(level, q: int, images, a: int) -> int:
    """Image of the code a under the F_q-linear map into level that sends
    the digit position q**i to images[i]."""
    add, mul = level.add, level.mul
    out = 0
    i = 0
    while a:
        c = a % q
        if c:
            out = add(out, mul(c, images[i]))
        a //= q
        i += 1
    return out


class FieldElement:
    """An element code bound to its level; thin wrapper for the public API."""

    __slots__ = ("level", "val")

    def __init__(self, level: Level, val: int):
        if not 0 <= val < level.size:
            raise DomainError(f"element code {val} out of range for {level!r}")
        object.__setattr__(self, "level", level)
        object.__setattr__(self, "val", val)

    def __setattr__(self, *_):
        raise AttributeError("FieldElement is immutable")

    def _peer(self, other):
        if isinstance(other, int):
            other = FieldElement(self.level, other)
        if not isinstance(other, FieldElement):
            raise TypeError("expected a FieldElement")
        if other.level is not self.level:
            raise LevelMismatch("elements from different levels")
        return other

    def __add__(self, other):
        other = self._peer(other)
        return FieldElement(self.level, self.level.add(self.val, other.val))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._peer(other)
        return FieldElement(self.level, self.level.sub(self.val, other.val))

    def __neg__(self):
        return FieldElement(self.level, self.level.neg(self.val))

    def __mul__(self, other):
        other = self._peer(other)
        return FieldElement(self.level, self.level.mul(self.val, other.val))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._peer(other)
        return FieldElement(self.level, self.level.mul(self.val, self.level.inv(other.val)))

    def __pow__(self, k: int):
        if not isinstance(k, int):
            raise DomainError(f"exponent must be an int, got {k!r}")
        return FieldElement(self.level, self.level.pow(self.val, k))

    def inv(self) -> "FieldElement":
        return FieldElement(self.level, self.level.inv(self.val))

    def frobenius(self, i: int = 1) -> "FieldElement":
        if self.level.frob is None:
            raise DomainError("this level has no tower Frobenius attached")
        return FieldElement(self.level, self.level.frob(self.val, i))

    def subfield_degree(self) -> int:
        n = self.level.gal_degree
        if n is None:
            raise DomainError("this level has no tower Frobenius attached")
        for t in divisors(n):
            if self.level.frob(self.val, t) == self.val:
                return t
        raise AssertionError("unreachable")

    @property
    def coeffs(self) -> tuple:
        """Coefficient vector over the level below, low degree first."""
        base = self.level.base
        if base is None:
            return (self.val,)
        return tuple(FieldElement(base, c) for c in self.level.decode(self.val))

    def __bool__(self):
        return bool(self.val)

    def __eq__(self, other):
        return (
            isinstance(other, FieldElement)
            and other.level is self.level
            and other.val == self.val
        )

    def __hash__(self):
        return hash((id(self.level), self.val))

    def __repr__(self):
        from .textio import format_element

        return f"FieldElement<{format_element(self.level, self.val)}>"


class TowerEmbedding:
    """Field embedding of one tower's top into a compatible bigger one.

    Maps the source top generator to a fixed root of the source modulus in
    the destination top (the lexicographically smallest one), and base
    field elements to themselves.
    """

    __slots__ = ("src", "dst", "root", "_gen_powers")

    def __init__(self, src: "FieldTower", dst: "FieldTower", root: int):
        self.src = src
        self.dst = dst
        self.root = root
        pw = [1]
        for _ in range(src.n - 1):
            pw.append(dst.top.mul(pw[-1], root))
        self._gen_powers = pw

    def embed(self, a: int) -> int:
        return _q_linear(self.dst.top, self.src.q, self._gen_powers, a)


class FieldTower:
    """F_p <= F_q <= F_(q**n) with explicit moduli; the Frobenius is the
    top level's power map."""

    def __init__(self, p, e, n, g, h):
        self.p, self.e, self.n = p, e, n
        self.q = p**e
        self.size = self.q**n
        self.bottom = prime_level(p)
        self.g = tuple(g)
        self.mid = ext_level(self.bottom, self.g)
        self.h = tuple(h)
        self.top = ext_level(self.mid, self.h)
        if self.top.tower is None:
            self.top.tower = self
            self.top.frob = self._frob_code
            self.top.gal_degree = n
        if self.mid.frob is None:
            self.mid.frob = lambda a, i: a
            self.mid.gal_degree = 1
        if self.bottom.frob is None:
            self.bottom.frob = lambda a, i: a
            self.bottom.gal_degree = 1
        self._embeddings: dict[int, TowerEmbedding] = {}

    def _frob_code(self, a: int, i: int) -> int:
        i %= self.n
        if i == 0 or a < self.q:
            return a
        return self.top.pow(a, self.q**i)

    def frobenius(self, a, i: int = 1):
        """i-th Frobenius power x -> x**(q**i) on the top level."""
        if isinstance(a, FieldElement):
            if a.level is not self.top:
                raise LevelMismatch("frobenius acts on top level elements")
            return FieldElement(self.top, self._frob_code(a.val, i))
        return self._frob_code(a, i)

    def subfield_degree(self, a) -> int:
        """Least t | n with a fixed by the t-th Frobenius power."""
        if not isinstance(a, FieldElement):
            a = FieldElement(self.top, a)
        return a.subfield_degree()

    def _own(self, level: Level) -> Level:
        """The level, when it is the top, middle or bottom of this tower."""
        if not any(level is own for own in (self.top, self.mid, self.bottom)):
            raise LevelMismatch(f"{level!r} is no level of {self!r}")
        return level

    def _level(self, level: str | Level) -> Level:
        if not isinstance(level, str):
            return self._own(level)
        if level not in ("top", "mid", "bottom"):
            raise DomainError(f"unknown level name {level!r}; use top, mid or bottom")
        return getattr(self, level)

    def element(self, value, level: str | Level = "top") -> FieldElement:
        """Build a FieldElement from an int code, text, or nested digit lists."""
        level = self._level(level)
        if isinstance(value, FieldElement):
            if value.level is not level:
                raise LevelMismatch("element from a different level")
            return value
        if isinstance(value, int):
            return FieldElement(level, value)
        from .textio import coerce_element, parse_element

        if isinstance(value, str):
            return FieldElement(level, parse_element(level, value))
        return FieldElement(level, coerce_element(level, value))

    def poly(self, coeffs, level: str | Level = "top") -> polyring.Poly:
        level = self._level(level)
        if isinstance(coeffs, str):
            from .textio import parse_poly

            return polyring.Poly(level, parse_poly(level, coeffs))
        return polyring.Poly(level, coeffs)

    def extension_embedding(self, k: int) -> TowerEmbedding:
        """Embedding of this tower's top into the degree n*k tower top,
        built on demand and cached.  Splitting field for degree-k polys."""
        if not isinstance(k, int) or k < 1:
            raise DomainError(f"extension index must be an int >= 1, got {k!r}")
        emb = self._embeddings.get(k)
        if emb is None:
            aux = build_tower(self.p, self.e, self.n * k, g=self.g)
            rts = polyring._roots(aux.top, list(self.h))
            if not rts:
                raise NotFound("source modulus has no root in the extension")
            emb = TowerEmbedding(self, aux, rts[0])
            self._embeddings[k] = emb
        return emb

    def describe(self) -> dict:
        from .textio import format_poly

        return {
            "p": self.p,
            "e": self.e,
            "n": self.n,
            "q": self.q,
            "mid_modulus": format_poly(self.bottom, self.g),
            "top_modulus": format_poly(self.mid, self.h),
        }

    def __repr__(self):
        return f"FieldTower(p={self.p}, e={self.e}, n={self.n})"


_TOWERS: dict[tuple, FieldTower] = {}


def build_tower(p: int, e: int, n: int, g=None, h=None) -> FieldTower:
    """Construct (or fetch from the intern cache) the tower F_p <= F_(p**e)
    <= F_(p**(e*n)).  Moduli g (degree e over F_p) and h (degree n over
    F_q) default to the lexicographically smallest irreducible choices."""
    if not all(isinstance(v, int) for v in (p, e, n)):
        raise DomainError(f"p, e and n must be ints, got {(p, e, n)!r}")
    if e < 1 or n < 1:
        raise DomainError("extension degrees must be >= 1")
    bottom = prime_level(p)
    if g is None:
        g = first_irreducible(bottom, e)
    else:
        g = tuple(c if isinstance(c, int) else c.val for c in g)
        if len(g) != e + 1:
            raise DegreeMismatch(f"g must have degree {e}")
    mid = ext_level(bottom, g)
    if h is None:
        h = first_irreducible(mid, n)
    else:
        h = tuple(c if isinstance(c, int) else c.val for c in h)
        if len(h) != n + 1:
            raise DegreeMismatch(f"h must have degree {n}")
    key = (p, e, n, g, h)
    tower = _TOWERS.get(key)
    if tower is None:
        tower = FieldTower(p, e, n, g, h)
        _TOWERS[key] = tower
    return tower


def frobenius(a: FieldElement, i: int = 1) -> FieldElement:
    return a.frobenius(i)


def subfield_degree(a: FieldElement) -> int:
    return a.subfield_degree()


def multiplicative_order(level: Level, x: int, divisor_of: int | None = None) -> int:
    """Order of x in the multiplicative group; divisor_of, when given, must
    be a known multiple of the order (checked)."""
    if not isinstance(x, int) or not 0 <= x < level.size:
        raise DomainError(f"element code {x!r} out of range for {level!r}")
    if not x:
        raise DivisionByZero("zero has no multiplicative order")
    o = divisor_of if divisor_of is not None else level.size - 1
    if not isinstance(o, int):
        raise DomainError(f"divisor_of must be an int, got {o!r}")
    if level.pow(x, o) != 1:
        raise DomainError("claimed exponent does not annihilate x")
    return order_from_multiple(o, lambda k: level.pow(x, k) == 1)
