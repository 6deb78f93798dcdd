"""The projective semilinear group of 2x2 matrices over the tower top,
together with its twisted action on monic polynomials.

A group element pairs an invertible matrix [[a,b],[c,d]] (entries in
F_(q**n), taken up to a scalar) with a Frobenius power sigma_i: x -> x**(q**i).
It acts on a monic polynomial f of degree k by first applying sigma_i to
the coefficients and then substituting the fractional linear map:

    image(x) = monic part of  sum_j  c_j * (a*x + b)**j * (c*x + d)**(k - j)

where the c_j are the sigma_i images of the coefficients of f.  Composition
follows the action ((g * h) acts as g after h), which forces the law
[A, i] * [B, j] = [sigma_i(B) * A, i + j]; powers, inverses, and orders
all live here too.

Frobenius indices are stored in 1..n with n meaning the identity map.
"""

from __future__ import annotations

import itertools
from math import gcd

from . import polyring
from .errors import (
    DegreeTooLarge,
    DegreeTooSmall,
    DomainError,
    InternalInvariantError,
    LevelMismatch,
    SingularMatrix,
    ZeroDenominator,
)
from .gftower import FieldElement, FieldTower, TowerEmbedding
from .numtheory import order_from_multiple, power
from .polyring import Poly, frobenius_poly


def _entry_code(tower: FieldTower, x) -> int:
    if isinstance(x, FieldElement):
        if x.level is not tower.top:
            raise LevelMismatch("matrix entries must live on the tower top")
        return x.val
    if isinstance(x, int):
        if not 0 <= x < tower.top.size:
            raise DomainError(f"entry code {x} out of range")
        return x
    from .textio import parse_element

    return parse_element(tower.top, str(x))


class Mat2:
    """Invertible 2x2 matrix over the tower top, stored row major."""

    __slots__ = ("tower", "a", "b", "c", "d", "_det")

    def __init__(self, tower: FieldTower, a, b, c, d):
        self.tower = tower
        self.a = _entry_code(tower, a)
        self.b = _entry_code(tower, b)
        self.c = _entry_code(tower, c)
        self.d = _entry_code(tower, d)
        top = tower.top
        self._det = top.sub(top.mul(self.a, self.d), top.mul(self.b, self.c))
        if not self._det:
            raise SingularMatrix("matrix determinant is zero")

    @classmethod
    def identity(cls, tower: FieldTower) -> "Mat2":
        return cls(tower, 1, 0, 0, 1)

    @classmethod
    def parse(cls, tower: FieldTower, text: str) -> "Mat2":
        from .textio import parse_matrix

        return cls(tower, *parse_matrix(tower.top, text))

    @property
    def entries(self) -> tuple[int, int, int, int]:
        return (self.a, self.b, self.c, self.d)

    def det(self) -> int:
        return self._det

    def trace(self) -> int:
        return self.tower.top.add(self.a, self.d)

    def mul(self, other: "Mat2") -> "Mat2":
        if other.tower is not self.tower:
            raise LevelMismatch("matrices over different towers")
        top = self.tower.top
        A, M = self, other
        return Mat2(
            self.tower,
            top.add(top.mul(A.a, M.a), top.mul(A.b, M.c)),
            top.add(top.mul(A.a, M.b), top.mul(A.b, M.d)),
            top.add(top.mul(A.c, M.a), top.mul(A.d, M.c)),
            top.add(top.mul(A.c, M.b), top.mul(A.d, M.d)),
        )

    __matmul__ = mul

    def inv(self) -> "Mat2":
        top = self.tower.top
        di = top.inv(self._det)
        return Mat2(
            self.tower,
            top.mul(di, self.d),
            top.mul(di, top.neg(self.b)),
            top.mul(di, top.neg(self.c)),
            top.mul(di, self.a),
        )

    def frobenius(self, i: int) -> "Mat2":
        if i % self.tower.n == 0:
            return self
        fr = self.tower._frob_code
        return Mat2(self.tower, fr(self.a, i), fr(self.b, i), fr(self.c, i), fr(self.d, i))

    def scaled(self, s: int) -> "Mat2":
        top = self.tower.top
        return Mat2(
            self.tower, top.mul(s, self.a), top.mul(s, self.b), top.mul(s, self.c), top.mul(s, self.d)
        )

    def normalized(self) -> "Mat2":
        """Projective representative: first nonzero entry scaled to 1."""
        top = self.tower.top
        lead = next(x for x in self.entries if x)
        if lead == 1:
            return self
        return self.scaled(top.inv(lead))

    def is_scalar(self) -> bool:
        return self.b == 0 and self.c == 0 and self.a == self.d

    def is_involution(self) -> bool:
        """Projective order exactly 2."""
        return not self.is_scalar() and self.mul(self).is_scalar()

    def proj_eq(self, other: "Mat2") -> bool:
        return self.normalized().entries == other.normalized().entries

    def __eq__(self, other):
        return (
            isinstance(other, Mat2)
            and other.tower is self.tower
            and other.entries == self.entries
        )

    def __hash__(self):
        return hash((id(self.tower), self.entries))

    def to_text(self) -> str:
        from .textio import format_matrix

        return format_matrix(self.tower.top, self.entries)

    def __repr__(self):
        return f"Mat2<{self.to_text()}>"


class Semilinear:
    """A matrix paired with a Frobenius power, up to scalars."""

    __slots__ = ("mat", "frob")

    def __init__(self, mat: Mat2, frob: int | None = None):
        n = mat.tower.n
        if frob is None:
            frob = n
        if not isinstance(frob, int):
            raise DomainError(f"Frobenius index must be an int, got {frob!r}")
        frob %= n
        object.__setattr__(self, "mat", mat)
        object.__setattr__(self, "frob", frob if frob else n)

    def __setattr__(self, *_):
        raise AttributeError("Semilinear is immutable")

    @property
    def tower(self) -> FieldTower:
        return self.mat.tower

    @classmethod
    def identity(cls, tower: FieldTower) -> "Semilinear":
        return cls(Mat2.identity(tower), tower.n)

    def compose(self, other: "Semilinear") -> "Semilinear":
        """Group law matching the action: (g * h) acts as g after h.

        With the substitution action used here that forces the twisted
        product sigma_i(B) * A, Frobenius falling on the left factor."""
        if other.tower is not self.tower:
            raise LevelMismatch("group elements over different towers")
        return Semilinear(
            other.mat.frobenius(self.frob).mul(self.mat), self.frob + other.frob
        )

    __mul__ = compose

    def inverse(self) -> "Semilinear":
        n = self.tower.n
        j = (n - self.frob) % n
        return Semilinear(self.mat.inv().frobenius(j), j)

    def __pow__(self, k: int) -> "Semilinear":
        if isinstance(k, int) and k < 0:
            return self.inverse() ** -k
        return power(self, k, Semilinear.compose, Semilinear.identity(self.tower))

    def act(self, f: Poly) -> Poly:
        return semilinear_act(self, f)

    def is_projective_identity(self) -> bool:
        return self.frob == self.tower.n and self.mat.is_scalar()

    def proj_eq(self, other: "Semilinear") -> bool:
        return self.frob == other.frob and self.mat.proj_eq(other.mat)

    def order(self) -> int:
        return semilinear_order(self)

    def __eq__(self, other):
        return (
            isinstance(other, Semilinear)
            and other.tower is self.tower
            and other.frob == self.frob
            and other.mat == self.mat
        )

    def __hash__(self):
        return hash((self.mat, self.frob))

    def __repr__(self):
        return f"Semilinear<{self.mat.to_text()} | frob={self.frob}>"


def _linear_powers(level, mat: Mat2, k: int):
    """The powers (a*x + b)**j and (c*x + d)**j for j = 0..k, two lists."""
    a, b, c, d = mat.entries
    num = polyring._trim([b, a])
    den = polyring._trim([d, c])
    npow, dpow = [[1]], [[1]]
    for _ in range(k):
        npow.append(level.poly_mul(npow[-1], num))
        dpow.append(level.poly_mul(dpow[-1], den))
    return npow, dpow


def moebius_act(mat: Mat2, f: Poly, strict: bool = True) -> Poly | None:
    """Fractional linear substitution, monic result.

    Works on any level of the matrix's tower whose codes hold the entries,
    so a matrix with subfield entries also acts on polynomials over that
    subfield.  When a root of f maps to infinity the image degree
    collapses; strict mode raises, otherwise None comes back."""
    if not isinstance(f, Poly):
        raise DomainError(f"expected a Poly, got {type(f).__name__}")
    level = mat.tower._own(f.level)
    a, b, c, d = mat.entries
    if any(x >= level.size for x in (a, b, c, d)):
        raise DomainError("matrix entries do not lie in the coefficient field")
    k = f.degree
    if k < 1:
        raise DegreeTooSmall("the action needs degree >= 1")
    npow, dpow = _linear_powers(level, mat, k)
    acc = [0] * (k + 1)
    mul, add = level.mul, level.add
    for j, cj in enumerate(f.coeffs):
        if cj:
            term = level.poly_mul(npow[j], dpow[k - j])
            for idx, t in enumerate(term):
                if t:
                    acc[idx] = add(acc[idx], mul(cj, t))
    acc = polyring._trim(acc)
    if len(acc) - 1 != k:
        if strict:
            raise DomainError("the image degenerates: a root maps to infinity")
        return None
    return Poly(level, polyring._monic(level, acc))


def semilinear_act(g: Semilinear, f: Poly) -> Poly:
    return moebius_act(g.mat, frobenius_poly(f, g.frob))


def _check_counts(**values) -> None:
    for name, v in values.items():
        if not isinstance(v, int) or v < 0:
            raise DomainError(f"{name} must be an int >= 0, got {v!r}")


def twisted_product(mat: Mat2, count: int, step: int = 1) -> Mat2:
    """sigma_((count-1)*step)(mat) * ... * sigma_step(mat) * mat, computed
    as [mat, sigma_step]**count, whose matrix part it is.  Matrix products
    are exact, so the entries equal the descending product's own, not just
    up to a scalar.  The step may be negative but must be an int."""
    _check_counts(count=count)
    if not isinstance(step, int):
        raise DomainError(f"step must be an int, got {step!r}")
    return (Semilinear(mat, step) ** count).mat


def proj_order(mat: Mat2) -> int:
    """Order of the matrix class in the projective group PGL(2, Q).

    By Dickson's classification a non-scalar class is unipotent, of order
    p, or semisimple with eigenvalues in F_Q, of order dividing Q - 1, or
    conjugate in F_(Q**2), of order dividing Q + 1.  Every k whose power
    of the matrix is scalar is a multiple of the order, so the first such
    k among p, Q - 1, Q + 1 is one, and prime factors come off it while
    the power stays scalar."""
    if mat.is_scalar():
        return 1
    g = Semilinear(mat)

    def scalar_at(k):
        return (g**k).mat.is_scalar()

    Q = mat.tower.top.size
    order = next((k for k in (mat.tower.p, Q - 1, Q + 1) if scalar_at(k)), None)
    if order is None:
        raise InternalInvariantError("no power of p, Q - 1, Q + 1 is scalar")
    return order_from_multiple(order, scalar_at)


def proj_order_bruteforce(mat: Mat2) -> int:
    power = mat
    k = 1
    bound = mat.tower.top.size + 2
    while not power.is_scalar():
        power = power.mul(mat)
        k += 1
        if k > bound:
            raise InternalInvariantError("projective order exceeds its bound")
    return k


def semilinear_order(g: Semilinear) -> int:
    """Order of [A, sigma_i] in the projective semilinear group.

    Any power with trivial Frobenius part is a multiple of m = n/gcd(i,n),
    so the order is m times the projective order of the matrix part of
    g**m (a Frobenius-twisted product of conjugates of A)."""
    n = g.tower.n
    t = gcd(g.frob, n)
    m = n // t
    return m * proj_order((g**m).mat)


def semilinear_order_bruteforce(g: Semilinear) -> int:
    power = g
    k = 1
    bound = g.tower.n * (g.tower.top.size + 2)
    while not power.is_projective_identity():
        power = power.compose(g)
        k += 1
        if k > bound:
            raise InternalInvariantError("group element order exceeds its bound")
    return k


def reduce_frobenius_index(g: Semilinear) -> Semilinear:
    """Replace g by a power with Frobenius index gcd(i, n).

    The exponent is the least P = (i/t)**-1 mod n/t coprime to the order
    of g, so the power generates the same cyclic group and fixes exactly
    the same polynomials, but carries the smallest Frobenius index
    available.  Such a P exists by the Chinese remainder theorem: the
    residue is prime to n/t, and a prime r of the order that does not
    divide n/t rules out one in every r consecutive candidates."""
    n = g.tower.n
    i = g.frob
    t = gcd(i, n)
    if t == i:
        return g
    m = n // t
    order = semilinear_order(g)
    P = pow(i // t, -1, m)
    while gcd(P, order) != 1:
        P += m
    reduced = g**P
    if reduced.frob != t:
        raise InternalInvariantError("index reduction missed its target")
    return reduced


def fixing_polynomial(mat: Mat2, m: int, step: int = 1, cap: int | None = None) -> Poly:
    """c*x**(E+1) - a*x**E + d*x - b with E = q**(step*m).

    Roots of this polynomial are exactly the points alpha with
    mat . alpha**(q**(step*m)) = alpha under the fractional linear action,
    which is what ties its irreducible factors to invariant polynomials."""
    _check_counts(m=m, step=step)
    if cap is not None and not isinstance(cap, int):
        raise DomainError(f"cap must be an int or None, got {cap!r}")
    tower = mat.tower
    E = tower.q ** (step * m)
    if cap is not None and E + 1 > cap:
        raise DegreeTooLarge(
            f"fixing polynomial degree {E + 1} exceeds the cap {cap}"
        )
    top = tower.top
    out = [0] * (E + 2)
    # with E = 1 (m = 0 or step = 0) the x**E and x terms share a slot
    for idx, val in ((E + 1, mat.c), (E, top.neg(mat.a)), (1, mat.d), (0, top.neg(mat.b))):
        out[idx] = top.add(out[idx], val)
    return Poly(top, out)


def fixing_polynomial_twisted(
    mat: Mat2, i: int, m: int, step: int = 1, cap: int | None = None
) -> Poly:
    """Twisted variant: the roots are the alpha whose image beta under
    sigma_(step*i) satisfies B . beta**(q**(step*(m-i))) = beta, where B is
    the matrix part of [mat, sigma_step]**i."""
    _check_counts(i=i, m=m, step=step)
    if i > m:
        raise DomainError("need 0 <= i <= m")
    n = mat.tower.n
    B = twisted_product(mat, i, step=step)
    F = fixing_polynomial(B, m - i, step=step, cap=cap)
    return frobenius_poly(F, (n - step * i) % n)


def act_on_root(g: Semilinear, alpha, embedding: TowerEmbedding):
    """Where the action sends a root: if alpha is a root of f inside the
    splitting field reached through the embedding, the result is a root of
    g.act(f).  Substituting x -> (a*x+b)/(c*x+d) pulls roots back through
    the inverse matrix, after the Frobenius part has moved them."""
    if embedding.src is not g.tower:
        raise LevelMismatch("embedding does not start at the element's tower")
    dst = embedding.dst
    top = dst.top
    wrap = False
    if isinstance(alpha, FieldElement):
        if alpha.level is not top:
            raise LevelMismatch("root must live in the embedding target")
        alpha = alpha.val
        wrap = True
    a, b, c, d = (embedding.embed(x) for x in g.mat.inv().entries)
    beta = dst._frob_code(alpha, g.frob)
    num = top.add(top.mul(a, beta), b)
    den = top.add(top.mul(c, beta), d)
    if not den:
        raise ZeroDenominator("root maps to infinity")
    out = top.mul(num, top.inv(den))
    return FieldElement(top, out) if wrap else out


def all_proj_classes(tower: FieldTower):
    """One representative per projective class, Q**3 - Q of them:
    first nonzero entry normalized to 1, ordered by entry codes."""
    top = tower.top
    Q = top.size
    for b, c in itertools.product(range(Q), repeat=2):
        bc = top.mul(b, c)
        for d in range(Q):
            if d != bc:
                yield Mat2(tower, 1, b, c, d)
    for c in range(1, Q):
        for d in range(Q):
            yield Mat2(tower, 0, 1, c, d)


def random_mat2(tower: FieldTower, rng) -> Mat2:
    Q = tower.top.size
    while True:
        entries = [rng.randrange(Q) for _ in range(4)]
        try:
            return Mat2(tower, *entries)
        except SingularMatrix:
            continue


def random_semilinear(tower: FieldTower, rng) -> Semilinear:
    return Semilinear(random_mat2(tower, rng), rng.randrange(1, tower.n + 1))
