"""Polynomials fixed by the twisted projective action.

* census: every fixed monic irreducible of a degree, from the
  fixed-point equations: the substitution table of the element maps
  sigma(f) to a multiple L*f.  By Galois descent (Hilbert 90) every L of
  one norm gives the same fixed lines, so that is one F_Q eigenspace per
  norm value; the solutions are tested for irreducibility and every hit
  is re-verified through the action itself.  Free of the enumeration's
  degree theory, so it doubles as the ground truth the fast route is
  tested against.
* enumerate_invariants: the production path, without scanning.  A
  scalar matrix with sigma_i (a pure Frobenius) fixes exactly the
  degree-k irreducibles over the fixed field F_(q**t) of sigma_i,
  t = gcd(i, n), when gcd(k, n/t) = 1, and none otherwise; census and
  enumeration both take that set from _pure_frobenius_fixed, one sieve
  over the fixed field's codes.  An element whose twisted product is
  projectively trivial (D = 1) is conjugate to a pure Frobenius by
  Hilbert 90, so its fixed set is that sieve's image under one Moebius
  map, the one through three of the element's own fixed points on the
  projective line (_conjugator).  For D > 1 a handful of four-term
  "fixing polynomials" of degree about q**s + 1 have the fixed
  polynomials of degree k = D*s as their degree-k irreducible factors,
  split off by a Frobenius ladder with no DDF and an EDF with one trace
  per draw.
* counting formulas and listings for the two classical families:
  conjugate self-reciprocal polynomials over F_(q**2), the fixed set of
  the D = 1 element [[0,1],[1,0]] sigma, listed by the same conjugation,
  and plain self-reciprocal polynomials over F_q, the images
  x**m * g(x + 1/x) of the irreducibles g of half the degree that Meyn's
  criterion keeps, with no irreducibility test.
* structural cross-checks: lift_check ties invariance over the top field
  to a norm polynomial living over the middle field, and
  involution_ratio_check verifies the 2:1 count relation between the
  twisted and classical fixed sets of an involution.

Degrees d with s = d/D in {1, 2} fall outside the enumeration's theory;
those raise DegreeTooSmall and are served by the census instead.
"""

from __future__ import annotations

import functools
import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from . import polyring
from .errors import (
    BudgetExceeded,
    DegreeHypothesisViolated,
    DegreeTooLarge,
    DegreeTooSmall,
    DomainError,
    EvenDegree,
    EvenParameter,
    InternalInvariantError,
    NotFound,
    NotInvolution,
)
from .gftower import FieldTower, Level
from .numtheory import divisors, euler_phi, prime_power_split
from .pgammal import (
    Mat2,
    Semilinear,
    _acting_level,
    _apply_table,
    _fixes,
    _substitution_columns,
    fixing_polynomial_twisted,
    moebius_act,
    proj_order,
    reduce_frobenius_index,
    twisted_product,
)
from .polyring import Poly, frobenius_poly, is_irreducible, reciprocal

DEFAULT_ENUM_CAP = 1 << 14
DEFAULT_CENSUS_BUDGET = 1 << 24

__all__ = [
    "DEFAULT_ENUM_CAP",
    "DEFAULT_CENSUS_BUDGET",
    "is_invariant",
    "admissible_shifts",
    "EnumerationPlan",
    "plan_enumeration",
    "enumerate_invariants",
    "CensusEntry",
    "CensusReport",
    "census",
    "scrim_count",
    "scrim_count_divisor_sum",
    "srim_count",
    "conjugate_reciprocal",
    "is_scrim",
    "is_srim",
    "scrim_polynomials",
    "construct_scrim",
    "srim_polynomials",
    "LiftCheckResult",
    "lift_check",
    "RatioCheckResult",
    "involution_ratio_check",
    "TrendPoint",
    "asymptotic_report",
]


def _as_semilinear(g) -> Semilinear:
    if isinstance(g, Semilinear):
        return g
    if isinstance(g, Mat2):
        return Semilinear(g, g.tower.n)
    raise DomainError(f"expected a matrix or group element, got {type(g).__name__}")


def is_invariant(g, f: Poly) -> bool:
    """Whether the group element fixes the monic polynomial f.

    A matrix alone is read as the plain fractional linear action.  An
    image whose degree collapses (a root going to infinity) counts as not
    fixed.  The test is pgammal._fixes, the one the census and the
    listings re-verify with: one product with the action's substitution
    table, the table moebius_act applies."""
    g = _as_semilinear(g)
    if not isinstance(f, Poly) or not f.is_monic:
        raise DomainError("invariance is defined for monic polynomials")
    return _fixes(g, _acting_level(g.mat, f), f.degree)(f.coeffs)


def admissible_shifts(s: int, span: int, factor_order: int) -> tuple[int, ...]:
    """The shift residues r whose twisted fixing polynomial can carry
    degree factor_order*s invariants: span*r = 1 (mod s) with the
    cofactor (span*r - 1)/s coprime to factor_order."""
    if not isinstance(s, int):
        raise DomainError(f"degree scale must be an int, got {s!r}")
    D = factor_order
    return tuple(
        r
        for r in range(1, D * s + 1)
        if (span * r - 1) % s == 0 and gcd((span * r - 1) // s, D) == 1
    )


@dataclass(frozen=True)
class EnumerationPlan:
    """The degree arithmetic behind one enumeration run."""

    degree: int
    frob_index: int  # reduced Frobenius index t = gcd(i, n)
    span: int  # n // t, the length of the Frobenius orbit driving the twist
    base_power: int  # q**t, exponent base of the fixing polynomials
    factor_order: int  # projective order D of the full twisted product
    s: int  # degree // D
    shifts: tuple[int, ...]
    twists: tuple[int, ...]  # twist count j matched to each shift
    feasible: bool
    reason: str
    reduced: Semilinear
    pure_frobenius: bool  # reduced matrix is projectively the identity


def _twisted_order(g: Semilinear):
    """(reduced, span, D): g's power with the least Frobenius index t
    (reduce_frobenius_index), the orbit length span = n/t, and the
    projective order D of the reduced element's twisted product over one
    orbit."""
    reduced = reduce_frobenius_index(g)
    span = g.tower.n // reduced.frob
    return reduced, span, proj_order((reduced**span).mat)


def plan_enumeration(g, degree: int, cap: int | None = DEFAULT_ENUM_CAP) -> EnumerationPlan:
    g = _as_semilinear(g)
    if not isinstance(degree, int):
        raise DomainError(f"degree must be an int, got {degree!r}")
    if cap is not None and not isinstance(cap, int):
        raise DomainError(f"cap must be an int or None, got {cap!r}")
    if degree <= 2:
        raise DegreeTooSmall(
            "enumeration covers degrees > 2 only; use the census for 1 and 2"
        )
    reduced, span, D = _twisted_order(g)
    t = reduced.frob
    base_power = g.tower.q**t
    # plan(s, shifts, twists, feasible, reason)
    plan = functools.partial(
        EnumerationPlan, degree, t, span, base_power, D,
        reduced=reduced, pure_frobenius=reduced.mat.is_scalar(),
    )

    if degree % D:
        return plan(0, (), (), False, f"degree is not a multiple of {D}")
    s = degree // D
    if s <= 2:
        raise DegreeTooSmall(
            f"degree/{D} = {s} <= 2 falls outside the enumeration; use the census"
        )
    if gcd(s, span) != 1:
        return plan(s, (), (), False, f"degree/{D} = {s} shares a factor with {span}")
    if cap is not None:
        # D = 1 costs the sieve's one flag per candidate over the index-t
        # subfield; D > 1 a fixing polynomial of degree base_power**s + 1
        work = base_power**s if D == 1 else base_power**s + 1
        if work > cap:
            raise DegreeTooLarge(
                f"enumeration size {work} exceeds the cap {cap}; "
                "raise the cap to proceed"
            )
    shifts = admissible_shifts(s, span, D)
    twists = []
    for r in shifts:
        m = (span * r - 1) // s
        j = pow(m, -1, D * span) if m else 0
        twists.append(j if j else D * span)
    return plan(s, shifts, tuple(twists), True, "")


def _pure_frobenius_fixed(level, frob: int, k: int, move=None) -> tuple[Poly, ...]:
    """The monic irreducibles of degree k over the level fixed by a scalar
    matrix with sigma_frob, in lexicographic order.  On a level of Galois
    degree n, sigma_frob fixes F_(q**t), t = gcd(frob, n), so the fixed f
    are those with coefficients there; an irreducible of degree k over
    F_(q**t) stays irreducible over the level exactly when
    gcd(k, n/t) = 1, so the set is empty or the sieve's listing over the
    fixed field's codes: the base level's for t = 1, the cached listing
    of the level itself for t = n.  With a matrix move, the set's Moebius
    image under it instead, made monic and sorted: one substitution table,
    one product per member as the sieve lists it, and no irreducibility
    test (an image of an irreducible of degree >= 2 is irreducible)."""
    n = level.gal_degree
    t = gcd(frob, n)
    if gcd(k, n // t) > 1:
        return ()
    if t == n:
        listing = polyring.monic_irreducibles(level, k)
    else:
        subfield = level.base.elements_lex() if t == 1 else [
            a for a in level.elements_lex() if level.frob(a, t) == a
        ]
        listing = ((*tail, 1) for tail in polyring._sieve(level, k, subfield))
    if move is None:
        return tuple(Poly(level, cs) for cs in listing)
    T = _substitution_columns(level, move, k)
    out = [Poly(level, polyring._monic(level, _apply_table(level, T, cs))) for cs in listing]
    return tuple(sorted(out, key=Poly.lex_key))


def _conjugator(g: Semilinear) -> Mat2:
    """An H with sigma_t(H)**-1 * A * H scalar: [H, id] conjugates
    g = [A, sigma_t], t | n, to the pure Frobenius sigma_t when A's twisted
    product over n/t > 1 steps is scalar (D = 1).  Such a g fixes the
    Q0 + 1 >= 3 images of P^1(F_Q0), Q0 = q**t: the roots of its fixed
    x - alpha (_fixed_points), and infinity when A's c entry is 0.  H
    sends 0, infinity, 1 to three of them, so the conjugate's matrix
    fixes 0, infinity and 1 and is scalar."""
    top = g.tower.top
    sub, mul = top.sub, top.mul
    roots = [top.neg(cs[0]) for cs in _fixed_points(top, g, 1)]
    if not g.mat.c:
        alpha, gamma = roots[:2]  # x -> (gamma - alpha) * x + alpha
        return Mat2(g.tower, sub(gamma, alpha), alpha, 0, 1)
    alpha, beta, gamma = roots[:3]
    return Mat2(
        g.tower,
        mul(beta, sub(gamma, alpha)),
        mul(alpha, sub(beta, gamma)),
        sub(gamma, alpha),
        sub(beta, gamma),
    )


def _factored_fixed(g: Semilinear, plan: EnumerationPlan):
    """Fix(g) from the degree-k irreducible factors of the plan's twisted
    fixing polynomials that the action fixes, each tested by one product
    with the action's table (pgammal._fixes).  The degree-k part and the
    EDF's traces come from the Q-power map modulo the four-term F_j, a
    spread and a sparse remainder per round (polyring._frobenius_map).
    The plan has checked the fixing polynomials' degree against its cap;
    the EDF's draws change only the running time."""
    level, degree, t, s = g.tower.top, plan.degree, plan.frob_index, plan.s
    rng = random.Random(0)
    factors = set()
    for j in plan.twists:
        target = fixing_polynomial_twisted(plan.reduced.mat, j, j + s, step=t)
        coeffs = list(target.monic().coeffs)
        qpow = polyring._frobenius_map(level, coeffs)
        part = polyring._degree_part(level, coeffs, degree, qpow)
        if len(part) > 1:
            factors.update(map(tuple, polyring._edf(level, part, degree, rng, qpow)))
    if not factors:
        return ()
    fixed = _fixes(g, level, degree)
    return tuple(sorted((Poly(level, cs) for cs in factors if fixed(cs)), key=Poly.lex_key))


def enumerate_invariants(
    g, degree: int, cap: int | None = DEFAULT_ENUM_CAP
) -> tuple[Poly, ...]:
    """All monic irreducible polynomials of the given degree (> 2, with
    degree/D > 2) fixed by g, in lexicographic order, without scanning: a
    pure Frobenius sigma_t from _pure_frobenius_fixed, any other D = 1
    element by conjugation to one through three of its fixed points on
    the projective line (each result re-verified through the action),
    D > 1 by factoring twisted fixing polynomials, whose random splits
    change only the running time."""
    g = _as_semilinear(g)
    plan = plan_enumeration(g, degree, cap=cap)
    if not plan.feasible:
        return ()
    if plan.factor_order > 1:
        return _factored_fixed(g, plan)
    # D = 1: a pure Frobenius sigma_t, or conjugate to one by [H, id]
    move = None if plan.pure_frobenius else _conjugator(plan.reduced).inv()
    top = g.tower.top
    found = _pure_frobenius_fixed(top, plan.frob_index, degree, move)
    if move is not None and found:
        fixed = _fixes(g, top, degree)
        if not all(fixed(f.coeffs) for f in found):
            raise InternalInvariantError("a conjugated fixed polynomial failed re-verification")
    return found


# --- census ----------------------------------------------------------


@dataclass(frozen=True)
class CensusEntry:
    degree: int
    count: int
    polynomials: tuple[Poly, ...]


@dataclass(frozen=True)
class CensusReport:
    element: str
    field_size: int
    budget: int
    entries: tuple[CensusEntry, ...]

    def counts(self) -> dict[int, int]:
        return {entry.degree: entry.count for entry in self.entries}

    def to_dict(self) -> dict:
        from .textio import format_poly

        return {
            "element": self.element,
            "field_size": self.field_size,
            "budget": self.budget,
            "entries": [
                {
                    "degree": entry.degree,
                    "count": entry.count,
                    "polynomials": [
                        format_poly(f.level, f.coeffs) for f in entry.polynomials
                    ],
                }
                for entry in self.entries
            ],
        }


def _solve(field, rows):
    """A basis of the null space of the rows over a field level, by
    Gauss-Jordan elimination in place."""
    mul, sub = field.mul, field.sub
    n = len(rows[0])
    pivots = []
    for col in range(n):
        r = len(pivots)
        at = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if at is None:
            continue
        inv = field.inv(rows[at][col])
        piv = [mul(inv, x) for x in rows[at]]
        rows[at] = rows[r]
        rows[r] = piv
        for i, row in enumerate(rows):
            c = row[col]
            if c and i != r:
                rows[i] = [sub(x, mul(c, y)) for x, y in zip(row, piv)]
        pivots.append(col)
    basis = []
    for free in sorted(set(range(n)) - set(pivots)):
        v = [0] * n
        v[free] = 1
        for row, col in zip(rows, pivots):
            v[col] = field.neg(row[free])
        basis.append(v)
    return basis


def _descend(level, R, step, basis, gen, m):
    """An F_Q0-basis of the vectors fixed by Phi(v) = R * sigma_step(v),
    where Phi**m = 1 on the span of basis and sigma_step has order m and
    fixed field F_Q0.  By Hilbert 90 such a basis is an F_Q-basis of the
    span, and the traces sum(Phi**j(gen**i * e), j < m), i < m, span the
    fixed vectors over F_Q0 (gen generates F_Q*), so the first
    F_Q-independent traces form one."""
    add, mul = level.add, level.mul
    fixed, seeds = [], itertools.product(basis, range(m))
    while len(fixed) < len(basis):
        e, i = next(seeds)
        u = t = [mul(level.pow(gen, i), x) for x in e]
        for _ in range(1, m):
            s = [level.frob(x, step) for x in u]
            u = _apply_table(level, R, s)
            t = list(map(add, t, u))
        if not _solve(level, [list(row) for row in zip(*fixed, t)]):
            fixed.append(t)
    return fixed


def _fixed_points(level, g: Semilinear, k: int):
    """Every monic polynomial of degree k over the level fixed by g,
    reducible ones included, as coefficient tuples with the leading 1.

    With T from _substitution_columns, f is fixed exactly when the image
    T * sigma(f) is L * f for some L != 0 (L = 0: a root goes to
    infinity).  Let sigma have order m on the level (n / gcd(g.frob, n)
    on a level of Galois degree n) and fixed field F_Q0.  Applied m times
    the equation gives P * f = N * f, N the norm of L (the product of the
    sigma**j(L), j < m, in F_Q0) and P the table of the twisted product
    B = sigma**(m-1)(A) * ... * sigma(A) * A, whose eigenvalues are the
    mu1**j * mu2**(k - j), mu1 and mu2 those of B: at most k + 1 norms,
    each one F_Q eigenspace E = ker(P - N).  By Hilbert 90 each L of norm
    N is L0 * sigma(c) / c for one L0, so the fixed f of norm N are the
    c * w, w in the vectors W of E fixed by L0**-1 * T * sigma (_descend;
    W = E when m = 1): one f per F_Q0-line of W with a nonzero x**k
    coordinate.  Scalar matrices are accepted too, though the census
    takes their fixed sets from _pure_frobenius_fixed."""
    mul, add, sub, frob, idx = level.mul, level.add, level.sub, level.frob, g.frob
    n = level.gal_degree
    m = n // gcd(idx, n)
    T = _substitution_columns(level, g.mat, k)
    B = twisted_product(g.mat, m, idx)
    P = list(zip(*_substitution_columns(level, B, k)))  # by rows
    a, b, c, d = B.entries
    det = sub(mul(a, d), mul(b, c))
    mu = polyring._roots(level, [det, level.neg(add(a, d)), 1])
    if mu:
        eigen = {mul(level.pow(mu[0], j), level.pow(mu[-1], k - j)) for j in range(k + 1)}
    else:
        # conjugate eigenvalues in F_(Q**2): a product in F_Q equals its
        # conjugate, so it squares to det**k
        eigen = set(polyring._roots(level, [level.neg(level.pow(det, k)), 0, 1]))
    if m == 1:
        scalars = range(level.size)
    else:
        # scalars[i + 1] = eta**i, the norm of gen**i, runs over F_Q0*
        Q0 = g.tower.q ** gcd(idx, n)
        gen = level._generator()
        eta = level.pow(gen, (level.size - 1) // (Q0 - 1))
        scalars = [0, *itertools.accumulate([eta] * (Q0 - 2), mul, initial=1)]
    found = []
    for N in eigen:
        rows = [[sub(x, N) if i == j else x for j, x in enumerate(row)] for i, row in enumerate(P)]
        W = _solve(level, rows) if frob(N, idx) == N else []  # a norm lies in F_Q0
        if not any(w[k] for w in W):
            continue
        if m > 1:
            scale = level.pow(gen, 1 - scalars.index(N))
            W = _descend(level, [[mul(scale, x) for x in col] for col in T], idx, W, gen, m)
        # each F_Q0-line once, from its first nonzero coordinate over W:
        # w plus every combination of the later basis vectors, each
        # combination extending one of its prefix
        for i, w in enumerate(W):
            lines = [w]
            for u in W[i + 1 :]:
                multiples = [[mul(c, y) for y in u] for c in scalars]
                lines = [list(map(add, v, cu)) for v in lines for cu in multiples]
            found += [tuple(polyring._monic(level, v)) for v in lines if v[k]]
    return found


def census(
    g,
    degrees,
    budget: int = DEFAULT_CENSUS_BUDGET,
    level: Level | None = None,
) -> CensusReport:
    """Every fixed monic irreducible of each of the whole degrees.

    Each degree k solves the fixed-point equations of the element on the
    coefficients, one F_Q eigenspace per norm value (see _fixed_points),
    and keeps the irreducible solutions, in lexicographic order, by
    Ben-Or (polyring._irreducible: a root scan on levels of at most 256
    elements, then gcds only at the ladder's rungs in (k/4, k/2]); a
    scalar matrix, a pure Frobenius, takes its fixed set from
    _pure_frobenius_fixed instead, one sieve over its fixed field.  The
    level is the top of the element's tower unless given, and must be
    one of that tower's three levels.  The budget bounds the number of
    monic candidates (field size to the power of the degree) per
    requested degree, and so the sieve's one-byte flag per candidate.
    Before the report is returned, every entry is re-verified: its level,
    monic, degree, Ben-Or again, and invariance by one product with the
    action's own substitution table (pgammal._fixes, the table
    moebius_act applies), built once per degree that has entries."""
    g = _as_semilinear(g)
    level = g.tower.top if level is None else g.tower._own(level)
    if not isinstance(budget, int):
        raise DomainError(f"budget must be an int, got {budget!r}")
    if isinstance(degrees, str) or not hasattr(degrees, "__iter__"):
        raise DomainError(f"census degrees must be a list of ints, got {degrees!r}")
    degrees = list(degrees)
    if not all(isinstance(k, int) and k >= 1 for k in degrees):
        raise DomainError(f"census degrees must be ints >= 1, got {degrees!r}")
    for k in degrees:
        if level.size**k > budget:
            raise BudgetExceeded(
                f"degree {k} needs {level.size}**{k} candidates, over the budget {budget}"
            )
    if any(x >= level.size for x in g.mat.entries):
        raise DomainError("matrix entries do not lie in the coefficient field")
    entries = []
    for k in degrees:
        if g.mat.is_scalar():
            polys = _pure_frobenius_fixed(level, g.frob, k)
        else:
            fixed = _fixed_points(level, g, k)
            irreducible = [Poly(level, cs) for cs in fixed if polyring._irreducible(level, cs)]
            polys = tuple(sorted(irreducible, key=Poly.lex_key))
        entries.append(CensusEntry(k, len(polys), polys))
    element = f"{g.mat.to_text()} | frob={g.frob}"
    report = CensusReport(element, level.size, budget, tuple(entries))
    for entry in report.entries:
        fixed = _fixes(g, level, entry.degree) if entry.polynomials else None
        for f in entry.polynomials:
            if (
                f.level is not level
                or not f.is_monic
                or f.degree != entry.degree
                or not is_irreducible(f)
                or not fixed(f.coeffs)
            ):
                raise InternalInvariantError("census entry failed re-verification")
        if entry.count != len(entry.polynomials):
            raise InternalInvariantError("census count drifted from its list")
    return report


# --- conjugate self-reciprocal and self-reciprocal families -----------


def _check_odd_degree(n: int):
    if not isinstance(n, int) or n < 0:
        raise DomainError(f"degree must be an int >= 0, got {n!r}")
    if n % 2 == 0:
        raise EvenDegree(f"degree {n} is even; this family needs odd degrees")
    if n < 3:
        raise DegreeTooSmall("degree 1 is excluded from this family")


def scrim_count(q: int, n: int) -> int:
    """Number of conjugate self-reciprocal monic irreducibles of odd
    degree n >= 3 over F_(q**2), by the Moebius inversion formula."""
    prime_power_split(q)
    _check_odd_degree(n)
    return polyring.count_irreducibles(q, n)


def scrim_count_divisor_sum(q: int, n: int) -> int:
    """Same count through the subgroup route: sum of euler_phi over the
    divisors of q**n + 1 that divide no earlier q**k + 1."""
    prime_power_split(q)
    _check_odd_degree(n)
    total = 0
    for d in divisors(q**n + 1):
        if all((q**k + 1) % d for k in range(n)):
            total += euler_phi(d)
    if total % n:
        raise InternalInvariantError("count formula did not divide evenly")
    return total // n


def srim_count(q: int, m: int) -> int:
    """Number of self-reciprocal monic irreducibles of degree 2m over F_q,
    for odd m >= 3.  Exactly half the conjugate self-reciprocal count of
    degree m over F_(q**2)."""
    prime_power_split(q)
    if not isinstance(m, int):
        raise DomainError(f"half-degree must be an int, got {m!r}")
    if m % 2 == 0:
        raise EvenParameter(f"half-degree {m} is even; the formula needs odd m")
    if m < 3:
        raise DegreeTooSmall("half-degree 1 is excluded from this family")
    count = polyring.count_irreducibles(q, m)
    if count % 2:
        raise InternalInvariantError("count formula did not divide evenly")
    return count // 2


def conjugate_reciprocal(f: Poly) -> Poly:
    """Reverse the coefficients (normalized monic) and conjugate them with
    the order two Frobenius; defined over the top of a quadratic tower."""
    if f.level.gal_degree != 2:
        raise DomainError("conjugate reciprocal needs a quadratic extension level")
    return frobenius_poly(reciprocal(f), 1)


def is_scrim(f: Poly) -> bool:
    return f.is_monic and conjugate_reciprocal(f) == f and is_irreducible(f)


def is_srim(f: Poly) -> bool:
    if not f.is_monic or f.degree < 1 or not f(0):
        return False
    return reciprocal(f) == f and is_irreducible(f)


def _check_scrim_args(tower: FieldTower, degree: int):
    if tower.n != 2:
        raise DomainError("this family lives over the top of a quadratic tower")
    _check_odd_degree(degree)


def _scrim_irreducibles(tower: FieldTower, degree: int):
    """Yield the irreducibles among the monic candidates satisfying the
    coefficient symmetry c_(k-i) = c_0 * c_i**q with c_0**(q+1) = 1, in
    lexicographic order; the symmetry makes them the whole family."""
    _check_scrim_args(tower, degree)
    top = tower.top
    q = tower.q
    m = (degree - 1) // 2
    units = [c0 for c0 in top.elements_lex() if c0 and top.pow(c0, q + 1) == 1]
    mul, pw = top.mul, top.pow
    for c0 in units:
        for frees in itertools.product(top.elements_lex(), repeat=m):
            tail = [mul(c0, pw(frees[i], q)) for i in range(m - 1, -1, -1)]
            coeffs = [c0, *frees, *tail, 1]
            if polyring._irreducible(top, coeffs):
                yield Poly(top, coeffs)


def scrim_polynomials(tower: FieldTower, degree: int) -> tuple[Poly, ...]:
    """All conjugate self-reciprocal monic irreducibles of the given odd
    degree over the tower top F_(q**2), in lexicographic order: the fixed
    set of [[0,1],[1,0]] sigma (D = 1), moved from the pure Frobenius
    sigma's by _conjugator, without an enumeration plan or its cap.  An
    odd degree stays irreducible over F_(q**2), so nothing is tested."""
    _check_scrim_args(tower, degree)
    swap = Semilinear(Mat2(tower, 0, 1, 1, 0), 1)
    return _pure_frobenius_fixed(tower.top, 1, degree, _conjugator(swap).inv())


def construct_scrim(tower: FieldTower, degree: int) -> tuple[Poly, Poly]:
    """The lexicographically smallest member of the family together with
    its coefficientwise conjugate.  The two are distinct (odd degree), are
    each other's sigma_1 images, and multiply to a self-reciprocal
    irreducible of doubled degree over the middle field.  Found by the
    lexicographic scan, which stops at the first hit."""
    for f in _scrim_irreducibles(tower, degree):
        return f, frobenius_poly(f, 1)
    raise NotFound("no conjugate self-reciprocal irreducible of this degree")


def srim_polynomials(level: Level, degree: int) -> tuple[Poly, ...]:
    """All self-reciprocal monic irreducibles of the given even degree
    2m over the level F_Q, in lexicographic order.

    An irreducible of degree > 1 that is self-reciprocal is palindromic
    with constant term 1, and every such f is x**m * g(x + 1/x) for
    exactly one monic g of degree m; a factorization of g gives one of
    f.  So f comes from a monic irreducible g, listed by sieve, and
    Meyn's criterion (AAECC 1, 1990) decides it from g alone, with nothing
    tested: for odd p, f is irreducible when g(2) * g(-2) is a non-square,
    the norm of beta**2 - 4 for a root beta of g; for p = 2, when g_0 != 0
    and the absolute trace of g_1 / g_0, that of 1/beta, is 1."""
    if not isinstance(degree, int):
        raise DomainError(f"degree must be an int, got {degree!r}")
    if degree < 2 or degree % 2:
        raise EvenDegree("self-reciprocal irreducibles of degree > 1 have even degree")
    m = degree // 2
    Q = level.size
    add, mul, pw = level.add, level.mul, level.pow
    if level.p == 2:
        e = Q.bit_length() - 1

        def keep(g):
            if not g[0]:
                return False
            t = y = mul(g[1], level.inv(g[0]))
            for _ in range(e - 1):
                y = mul(y, y)
                t = add(t, y)
            return t == 1

    else:
        two, minus_two = 2, level.neg(2)

        def keep(g):
            v = mul(polyring._eval(level, g, two), polyring._eval(level, g, minus_two))
            return v != 0 and pw(v, (Q - 1) // 2) != 1

    # row j: x**(m - j) * (x**2 + 1)**j, whose coefficients lie in F_p
    rows, power = [], [1]
    for j in range(m + 1):
        rows.append([0] * (m - j) + power + [0] * (m - j))
        power = level.poly_mul(power, [1, 0, 1])
    out = []
    for tail in polyring._sieve(level, m, level.elements_lex()):
        g = (*tail, 1)
        if keep(g):
            out.append(Poly(level, _apply_table(level, rows, g)))
    return tuple(sorted(out, key=Poly.lex_key))


# --- structural cross-checks ------------------------------------------


@dataclass(frozen=True)
class LiftCheckResult:
    """Three equivalent readings of invariance for a middle field matrix,
    evaluated independently, plus the verdict for one chosen index.

    The second reading strengthens the first: it additionally pins the
    minimal coefficient field of f to F_(q**d0).  Invariance forces that
    pin, so the two stand or fall together; the subfield condition alone
    says nothing (any f with no proper coefficient subfield passes it).
    """

    matrix_order: int  # projective order d of the matrix
    overlap: int  # d0 = gcd(d, n)
    s: int  # degree scale, deg f = (d/d0) * s
    subfield_degree: int  # smallest t with all coefficients in F_(q**t)
    invariant_exists: bool  # fixed by [A, sigma_i] for some i coprime to n
    invariant_in_exact_subfield: bool  # invariant_exists and subfield_degree == d0
    norm_descends: bool  # the d0-fold norm of f is an A-fixed irreducible over F_q
    given_frob_invariant: bool | None
    norm_poly: Poly | None

    @property
    def consistent(self) -> bool:
        return (
            self.invariant_exists
            == self.invariant_in_exact_subfield
            == self.norm_descends
        )


def _check_mid_matrix(tower: FieldTower, mat: Mat2):
    if mat.tower is not tower:
        raise DomainError("matrix belongs to a different tower")
    if any(x >= tower.q for x in mat.entries):
        raise DomainError("matrix entries must lie in the middle field")


def lift_check(
    tower: FieldTower, mat: Mat2, f: Poly, frob_index: int | None = None
) -> LiftCheckResult:
    """Evaluate the three-way invariance equivalence for a matrix with
    entries in the middle field F_q acting on a top irreducible f."""
    _check_mid_matrix(tower, mat)
    q, n = tower.q, tower.n
    if f.level is not tower.top or not f.is_monic or not is_irreducible(f):
        raise DomainError("f must be a monic irreducible over the tower top")
    d = proj_order(mat)
    d0 = gcd(d, n)
    k = f.degree
    if (k * d0) % d:
        raise DegreeHypothesisViolated(
            f"degree {k} is not a multiple of {d}/{d0}"
        )
    s = k * d0 // d
    if s <= 2:
        raise DegreeTooSmall(f"degree scale s = {s} <= 2 is outside this check")
    if gcd(s, n) != 1:
        raise DegreeHypothesisViolated(f"degree scale {s} shares a factor with {n}")

    invariant_exists = any(
        is_invariant(Semilinear(mat, i), f)
        for i in range(1, n + 1)
        if gcd(i, n) == 1
    )
    subfield_degree = polyring.min_subfield_degree(f)
    invariant_in_exact_subfield = invariant_exists and subfield_degree == d0

    norm = Poly.one(tower.top)
    for j in range(d0):
        norm = norm * frobenius_poly(f, j)
    norm_poly = None
    if all(c < q for c in norm.coeffs):
        mid_norm = Poly(tower.mid, norm.coeffs)
        if is_irreducible(mid_norm) and mid_norm.degree == d * s:
            image = moebius_act(mat, mid_norm, strict=False)
            if image == mid_norm:
                norm_poly = mid_norm
    norm_descends = norm_poly is not None

    given = None
    if frob_index is not None:
        given = is_invariant(Semilinear(mat, frob_index), f)

    return LiftCheckResult(
        d,
        d0,
        s,
        subfield_degree,
        invariant_exists,
        invariant_in_exact_subfield,
        norm_descends,
        given,
        norm_poly,
    )


@dataclass(frozen=True)
class RatioCheckResult:
    half_degree: int
    twisted_count: int  # degree m, one Frobenius twist, over F_(q**2)
    classical_count: int  # degree 2m, no twist, over F_q
    ratio_holds: bool  # twisted == 2 * classical


def involution_ratio_check(
    tower: FieldTower,
    mat: Mat2,
    half_degree: int,
    budget: int = DEFAULT_CENSUS_BUDGET,
) -> RatioCheckResult:
    """For an involution with entries in F_q inside a quadratic tower,
    census both fixed families and test the 2:1 count relation."""
    if tower.n != 2:
        raise DomainError("the ratio check needs a quadratic tower")
    _check_mid_matrix(tower, mat)
    if not mat.is_involution():
        raise NotInvolution("the matrix must have projective order 2")
    m = half_degree
    if not isinstance(m, int):
        raise DomainError(f"half-degree must be an int, got {m!r}")
    if m % 2 == 0:
        raise EvenParameter(f"half-degree {m} is even; the relation needs odd m")
    if m < 3:
        raise DegreeTooSmall("half-degree 1 is excluded from the relation")
    twisted = census(Semilinear(mat, 1), [m], budget=budget, level=tower.top)
    classical = census(Semilinear(mat, 2), [2 * m], budget=budget, level=tower.mid)
    tc = twisted.entries[0].count
    cc = classical.entries[0].count
    return RatioCheckResult(m, tc, cc, tc == 2 * cc)


# --- asymptotics -------------------------------------------------------


@dataclass(frozen=True)
class TrendPoint:
    s: int
    degree: int
    count: int
    predicted: float  # euler_phi(D) * q**s / (D * s)
    ratio: float  # count / predicted, exact when dyadic
    ratio_exact: Fraction


def asymptotic_report(
    g, s_values, cap: int | None = DEFAULT_ENUM_CAP
) -> tuple[TrendPoint, ...]:
    """Exact invariant counts against the leading-term prediction
    euler_phi(D) * q**s / (D * s), one point per degree scale s."""
    g = _as_semilinear(g)
    if isinstance(s_values, str) or not hasattr(s_values, "__iter__"):
        raise DomainError(f"degree scales must be a list of ints, got {s_values!r}")
    D = _twisted_order(g)[2]
    points = []
    for s in s_values:
        if not isinstance(s, int):
            raise DomainError(f"degree scales must be ints, got {s!r}")
        degree = D * s
        plan = plan_enumeration(g, degree, cap=cap)
        if not plan.feasible:
            raise DomainError(f"scale s={s} is infeasible here: {plan.reason}")
        count = len(enumerate_invariants(g, degree, cap=cap))
        R = plan.base_power
        phi = euler_phi(D)
        predicted = phi * R**plan.s / (D * plan.s)
        exact = Fraction(count * D * plan.s, phi * R**plan.s)
        points.append(TrendPoint(plan.s, degree, count, predicted, float(exact), exact))
    return tuple(points)
