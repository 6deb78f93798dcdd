"""Polynomials fixed by the twisted projective action, four ways.

* census: scan every monic irreducible of a degree and keep the fixed
  ones.  The irreducibles come from a sieve over all Q**k monic
  candidates (one byte each, bounded by the census budget), and each is
  tested against one substitution table per element and degree, then
  every hit is re-verified through the action itself.  Exponential in
  the degree but assumption free, so it doubles as the ground truth the
  fast route is tested against.
* enumerate_invariants: the production path.  The degree arithmetic of a
  group element singles out a handful of sparse "fixing polynomials" of
  degree about q**s + 1 whose degree-k irreducible factors are exactly the
  fixed polynomials of degree k = D*s, so factoring those recovers the
  invariant set without scanning.
* counting formulas for the two classical families: conjugate
  self-reciprocal polynomials over F_(q**2) (fixed by the inverting matrix
  [[0,1],[1,0]] with one Frobenius twist) and plain self-reciprocal
  polynomials over F_q.
* structural cross-checks: lift_check ties invariance over the top field
  to a norm polynomial living over the middle field, and
  involution_ratio_check verifies the 2:1 count relation between the
  twisted and classical fixed sets of an involution.

Degrees d with s = d/D in {1, 2} fall outside the enumeration's theory;
those raise DegreeTooSmall and are served by the census instead.
"""

from __future__ import annotations

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
from .numtheory import divisors, euler_phi, moebius_mu, prime_power_split
from .pgammal import (
    Mat2,
    Semilinear,
    fixing_polynomial_twisted,
    moebius_act,
    proj_order,
    reduce_frobenius_index,
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
    "divisors",
    "euler_phi",
    "moebius_mu",
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
    fixed."""
    if not f.is_monic:
        raise DomainError("invariance is defined for monic polynomials")
    g = _as_semilinear(g)
    image = moebius_act(g.mat, frobenius_poly(f, g.frob), strict=False)
    return image is not None and image == f


def admissible_shifts(s: int, span: int, factor_order: int) -> tuple[int, ...]:
    """The shift residues r whose twisted fixing polynomial can carry
    degree factor_order*s invariants: span*r = 1 (mod s) with the
    cofactor (span*r - 1)/s coprime to factor_order."""
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


def plan_enumeration(g, degree: int, cap: int | None = DEFAULT_ENUM_CAP) -> EnumerationPlan:
    g = _as_semilinear(g)
    tower = g.tower
    n = tower.n
    if degree <= 2:
        raise DegreeTooSmall(
            "enumeration covers degrees > 2 only; use the census for 1 and 2"
        )
    reduced = reduce_frobenius_index(g)
    t = reduced.frob
    span = n // t
    D = proj_order((reduced**span).mat)
    base_power = tower.q**t
    pure = reduced.mat.proj_eq(Mat2.identity(tower))

    def plan(s, shifts, twists, feasible, reason):
        return EnumerationPlan(
            degree,
            t,
            span,
            base_power,
            D,
            s,
            shifts,
            twists,
            feasible,
            reason,
            reduced,
            pure,
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
        # for a pure Frobenius element the cost driver is the scan over
        # index-t subfield coefficients, not a fixing polynomial
        work = base_power**s if pure else base_power**s + 1
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


def enumerate_invariants(
    g, degree: int, cap: int | None = DEFAULT_ENUM_CAP, seed: int = 0
) -> tuple[Poly, ...]:
    """All monic irreducible polynomials of the given degree (> 2, with
    degree/D > 2) fixed by g, found by factoring twisted fixing
    polynomials rather than scanning."""
    g = _as_semilinear(g)
    plan = plan_enumeration(g, degree, cap=cap)
    if not plan.feasible:
        return ()
    level = g.tower.top
    t, s = plan.frob_index, plan.s
    if plan.pure_frobenius:
        # the element generates the same group as sigma_t alone, so the
        # fixed polynomials are exactly the irreducibles with coefficients
        # in the index-t subfield (scanned in lex order); no fixing
        # polynomial is needed
        subfield = [a for a in level.elements_lex() if level.frob(a, t) == a]
        return tuple(
            Poly(level, cs) for cs in polyring._irreducible_scan(level, degree, subfield)
        )
    rng = random.Random(seed)
    found: dict[tuple[int, ...], Poly] = {}
    for j in plan.twists:
        target = fixing_polynomial_twisted(plan.reduced.mat, j, j + s, step=t, cap=cap)
        coeffs = list(target.monic().coeffs)
        for d, part in polyring._ddf(level, coeffs, max_degree=degree):
            if d != degree:
                continue
            for fac in polyring._edf(level, part, d, rng):
                key = tuple(fac)
                if key not in found:
                    cand = Poly(level, fac)
                    if is_invariant(g, cand):
                        found[key] = cand
    return tuple(sorted(found.values(), key=Poly.lex_key))


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


def _substitution_rows(level, mat: Mat2, k: int):
    """Row i lists the pairs (j, t), t != 0, where t is the x**i
    coefficient of (a*x + b)**j * (c*x + d)**(k - j), so that the action's
    image of a degree-k polynomial with coefficients c_j has x**i
    coefficient sum(t * c_j)."""
    a, b, c, d = mat.entries
    num = polyring._trim([b, a])
    den = polyring._trim([d, c])
    npow, dpow = [[1]], [[1]]
    for _ in range(k):
        npow.append(level.poly_mul(npow[-1], num))
        dpow.append(level.poly_mul(dpow[-1], den))
    rows = [[] for _ in range(k + 1)]
    for j in range(k + 1):
        for i, t in enumerate(level.poly_mul(npow[j], dpow[k - j])):
            if t:
                rows[i].append((j, t))
    return rows


def _fixed_by_table(level, mat: Mat2, frob, k: int, listing):
    """The coefficient vectors of the listing (monic, degree k) fixed by
    the matrix after the coefficient map frob (a list indexed by code).
    The image of f is fixed exactly when its x**k coefficient L is nonzero
    (L = 0: a root goes to infinity) and its x**i coefficient is L * f_i
    for every i < k; a candidate is dropped at its first mismatch."""
    rows = _substitution_rows(level, mat, k)
    top, lower = rows[k], rows[:k]
    mul, add = level.mul, level.add

    def coeff(row, fc):
        acc = 0
        for j, t in row:
            acc = add(acc, mul(t, fc[j]))
        return acc

    for cs in listing:
        fc = [frob[c] for c in cs]
        lead = coeff(top, fc)
        if lead and all(coeff(row, fc) == mul(lead, ci) for row, ci in zip(lower, cs)):
            yield cs


def census(
    g,
    degrees,
    budget: int = DEFAULT_CENSUS_BUDGET,
    level: Level | None = None,
) -> CensusReport:
    """Exhaustive fixed-polynomial scan over whole degrees.

    Each degree k lists the monic irreducibles by sieve
    (polyring.monic_irreducibles) and tests them against one table of the
    coefficients of (a*x + b)**j * (c*x + d)**(k - j), built once for the
    element and the degree, instead of substituting into each candidate.
    The budget bounds the number of monic candidates (field size to the
    power of the degree) per requested degree, and with it the sieve's
    one-byte flag per candidate.  The report re-verifies its own entries
    through is_invariant, the action's own route, before it is
    returned."""
    g = _as_semilinear(g)
    if level is None:
        level = g.tower.top
    degrees = [int(k) for k in degrees]
    if any(k < 1 for k in degrees):
        raise DomainError("census degrees must be >= 1")
    for k in degrees:
        if level.size**k > budget:
            raise BudgetExceeded(
                f"degree {k} needs {level.size}**{k} candidates, over the budget {budget}"
            )
    if level.frob is None:
        raise DomainError("this level has no tower Frobenius attached")
    if any(x >= level.size for x in g.mat.entries):
        raise DomainError("matrix entries do not lie in the coefficient field")
    frob = [level.frob(a, g.frob) for a in range(level.size)]
    entries = []
    for k in degrees:
        fixed = _fixed_by_table(level, g.mat, frob, k, polyring.monic_irreducibles(level, k))
        polys = tuple(Poly(level, cs) for cs in fixed)
        entries.append(CensusEntry(k, len(polys), polys))
    element = f"{g.mat.to_text()} | frob={g.frob}"
    report = CensusReport(element, level.size, budget, tuple(entries))
    for entry in report.entries:
        for f in entry.polynomials:
            if (
                f.level is not level
                or not f.is_monic
                or f.degree != entry.degree
                or not is_irreducible(f)
                or not is_invariant(g, f)
            ):
                raise InternalInvariantError("census entry failed re-verification")
        if entry.count != len(entry.polynomials):
            raise InternalInvariantError("census count drifted from its list")
    return report


# --- conjugate self-reciprocal and self-reciprocal families -----------


def _check_odd_degree(n: int):
    if n < 0:
        raise DomainError("degree must be positive")
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


def _scrim_irreducibles(tower: FieldTower, degree: int):
    """Yield the irreducibles among the monic candidates satisfying the
    coefficient symmetry c_(k-i) = c_0 * c_i**q with c_0**(q+1) = 1, in
    lexicographic order; the symmetry makes them the whole family."""
    if tower.n != 2:
        raise DomainError("this family lives over the top of a quadratic tower")
    _check_odd_degree(degree)
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
    degree over the tower top F_(q**2), in lexicographic order."""
    return tuple(_scrim_irreducibles(tower, degree))


def construct_scrim(tower: FieldTower, degree: int) -> tuple[Poly, Poly]:
    """The lexicographically smallest member of the family together with
    its coefficientwise conjugate.  The two are distinct (odd degree), are
    each other's sigma_1 images, and multiply to a self-reciprocal
    irreducible of doubled degree over the middle field."""
    for f in _scrim_irreducibles(tower, degree):
        return f, frobenius_poly(f, 1)
    raise NotFound("no conjugate self-reciprocal irreducible of this degree")


def srim_polynomials(level: Level, degree: int) -> tuple[Poly, ...]:
    """All self-reciprocal monic irreducibles of the given even degree
    over the level, in lexicographic order.  Palindromic coefficients and
    constant term 1 are forced for irreducibles, so only those candidates
    are scanned."""
    if degree < 2 or degree % 2:
        raise EvenDegree("self-reciprocal irreducibles of degree > 1 have even degree")
    m = degree // 2
    out = []
    for frees in itertools.product(level.elements_lex(), repeat=m):
        coeffs = [1, *frees, *reversed(frees[:-1]), 1]
        if polyring._irreducible(level, list(coeffs)):
            out.append(Poly(level, coeffs))
    return tuple(out)


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
    g, s_values, cap: int | None = DEFAULT_ENUM_CAP, seed: int = 0
) -> tuple[TrendPoint, ...]:
    """Exact invariant counts against the leading-term prediction
    euler_phi(D) * q**s / (D * s), one point per degree scale s."""
    g = _as_semilinear(g)
    reduced = reduce_frobenius_index(g)
    span = g.tower.n // reduced.frob
    D = proj_order((reduced**span).mat)
    points = []
    for s in s_values:
        degree = D * int(s)
        plan = plan_enumeration(g, degree, cap=cap)
        if not plan.feasible:
            raise DomainError(f"scale s={s} is infeasible here: {plan.reason}")
        count = len(enumerate_invariants(g, degree, cap=cap, seed=seed))
        R = plan.base_power
        phi = euler_phi(D)
        predicted = phi * R**plan.s / (D * plan.s)
        exact = Fraction(count * D * plan.s, phi * R**plan.s)
        points.append(TrendPoint(plan.s, degree, count, predicted, float(exact), exact))
    return tuple(points)
