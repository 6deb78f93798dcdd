import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

import galois_moebius as gm
from galois_moebius import invariants
from galois_moebius.errors import (
    BudgetExceeded,
    DegreeTooSmall,
    DomainError,
    EvenDegree,
    EvenParameter,
    NotInvolution,
    SingularMatrix,
)
from galois_moebius.invariants import (
    admissible_shifts,
    asymptotic_report,
    census,
    construct_scrim,
    conjugate_reciprocal,
    enumerate_invariants,
    involution_ratio_check,
    is_invariant,
    is_scrim,
    is_srim,
    lift_check,
    plan_enumeration,
    scrim_count,
    scrim_count_divisor_sum,
    scrim_polynomials,
    srim_count,
    srim_polynomials,
)
from galois_moebius.pgammal import Mat2, Semilinear, random_semilinear
from galois_moebius.polyring import (
    Poly,
    frobenius_poly,
    is_irreducible,
    iter_monic_irreducibles,
    min_subfield_degree,
    monic_irreducibles,
    reciprocal,
)


def test_is_invariant_basics(t212):
    A = Mat2(t212, 1, 1, 0, 1)
    f = Poly(t212.top, [1, 1, 0, 1])
    assert not is_invariant(A, f)                 # translation swaps the pair
    g = Poly(t212.top, [1, 1, 1])
    assert is_invariant(Mat2.identity(t212), g)
    with pytest.raises(DomainError):
        is_invariant(A, Poly(t212.top, [1, 1, 0, 2]))


def test_is_invariant_accepts_both_kinds(t212):
    f = Poly(t212.top, [1, 1, 0, 1])
    assert is_invariant(Mat2.identity(t212), f)
    assert is_invariant(Semilinear.identity(t212), f)
    # sigma alone fixes exactly the subfield polynomials
    sig = Semilinear(Mat2.identity(t212), 1)
    assert is_invariant(sig, f)
    assert not is_invariant(sig, Poly(t212.top, [2, 1]))


def test_admissible_shifts_tables():
    assert admissible_shifts(3, 2, 2) == (2, 5)
    assert admissible_shifts(3, 1, 2) == (4,)
    assert admissible_shifts(5, 2, 1) == (3,)
    assert admissible_shifts(3, 2, 1) == (2,)
    assert admissible_shifts(4, 3, 2) == (7,)


def test_plan_enumeration_small_degree(t212):
    g = Semilinear(Mat2.identity(t212), 1)
    with pytest.raises(DegreeTooSmall):
        plan_enumeration(g, 2)


def test_plan_enumeration_shapes(t212):
    g = Semilinear(Mat2.identity(t212), 1)
    plan5 = plan_enumeration(g, 5)
    assert plan5.feasible and plan5.factor_order == 1 and plan5.s == 5
    assert plan5.shifts == (3,) and plan5.twists == (1,)
    plan6 = plan_enumeration(g, 6)
    assert not plan6.feasible  # s = 6 shares a factor with the orbit span 2
    # order 3 matrix, classical action, degree not a multiple of 3
    h = Semilinear(Mat2(t212, 0, 1, 1, 1), 2)
    plan4 = plan_enumeration(h, 4)
    assert not plan4.feasible


def test_enumerate_identity_twist(t212):
    # [I, sigma]: invariants of degree s are the prime-field irreducibles
    g = Semilinear(Mat2.identity(t212), 1)
    got = enumerate_invariants(g, 3)
    assert [f.coeffs for f in got] == [(1, 1, 0, 1), (1, 0, 1, 1)] or [
        f.coeffs for f in got
    ] == [(1, 0, 1, 1), (1, 1, 0, 1)]
    assert len(enumerate_invariants(g, 5)) == 6


def test_enumerate_matches_census_spot(t212):
    cases = [
        (Semilinear(Mat2(t212, 3, 1, 0, 3), 2), 6),   # order 2, classical
        (Semilinear(Mat2(t212, 3, 0, 2, 2), 1), 6),   # order 2, twisted
        (Semilinear(Mat2(t212, 0, 1, 1, 0), 1), 3),   # involution, twisted
    ]
    for g, k in cases:
        fast = enumerate_invariants(g, k)
        slow = census(g, [k]).entries[0].polynomials
        assert list(fast) == sorted(slow)
        for f in fast:
            assert is_invariant(g, f)


def test_enumerate_pure_frobenius_proper_subfield(t214):
    # [I, sigma_2] over F_16 with 1 < t < n: irreducibles over F_4
    g = Semilinear(Mat2.identity(t214), 2)
    fast = enumerate_invariants(g, 3)
    assert len(fast) == 20
    assert list(fast) == sorted(census(g, [3]).entries[0].polynomials)


def test_enumerate_infeasible_is_empty(t212):
    g = Semilinear(Mat2.identity(t212), 1)
    assert enumerate_invariants(g, 6) == ()


def test_census_structure(t212):
    g = Semilinear(Mat2(t212, 0, 1, 1, 0), 1)
    report = census(g, [3, 4])
    assert report.counts() == {3: report.entries[0].count, 4: report.entries[1].count}
    d = report.to_dict()
    assert d["field_size"] == 4
    assert {e["degree"] for e in d["entries"]} == {3, 4}
    polys = report.entries[0].polynomials
    assert all(p.degree == 3 and p.is_monic for p in polys)


def test_census_budget(t212):
    g = Semilinear(Mat2.identity(t212), 1)
    with pytest.raises(BudgetExceeded):
        census(g, [9], budget=4**8)


def test_census_rejects_entries_outside_the_level(t212):
    g = Semilinear(Mat2(t212, 2, 1, 1, 0), 2)
    with pytest.raises(DomainError):
        census(g, [2], level=t212.mid)


TABLE_TOWERS = ((2, 1, 2), (2, 1, 3), (3, 1, 2), (5, 1, 2), (2, 2, 2))


@st.composite
def table_cases(draw):
    """An element, a level (the top, or the middle field with a matrix
    over it) and monic polynomials of one degree, reducible ones
    included: every one of them when there are at most 400, else a random
    sample.  Matrix shapes with zero entries are drawn on purpose, and
    with c != 0 some candidates get the root -d/c, whose image goes to
    infinity."""
    tower = gm.build_tower(*draw(st.sampled_from(TABLE_TOWERS)))
    level = draw(st.sampled_from((tower.top, tower.mid)))
    Q = level.size
    a, b, c, d = (draw(st.integers(1, Q - 1)) for _ in range(4))
    shape = draw(st.sampled_from(("any", "c=0", "b=0", "swap")))
    if shape == "c=0":
        c = 0
    elif shape == "b=0":
        b = 0
    elif shape == "swap":
        a, b, c, d = 0, 1, 1, 0
    try:
        mat = Mat2(tower, a, b, c, d)
    except SingularMatrix:
        assume(False)
    k = draw(st.integers(1, 5))
    if Q**k <= 400:
        listing = [(*tail, 1) for tail in itertools.product(range(Q), repeat=k)]
    else:
        tails = st.lists(st.integers(0, Q - 1), min_size=k, max_size=k)
        listing = [(*tail, 1) for tail in draw(st.lists(tails, min_size=1, max_size=40))]
        if c:
            # x + d/c has the root -d/c
            pole = [level.mul(d, level.inv(c)), 1]
            for h in draw(st.lists(tails.map(lambda t: t[1:]), max_size=10)):
                listing.append(tuple(level.poly_mul(pole, [*h, 1])))
    return level, mat, k, listing


@settings(max_examples=60, deadline=None)
@given(table_cases())
def test_census_table_filter_matches_is_invariant(case):
    level, mat, k, listing = case
    for i in range(1, mat.tower.n + 1):
        frob = [level.frob(x, i) for x in range(level.size)]
        got = list(invariants._fixed_by_table(level, mat, frob, k, listing))
        g = Semilinear(mat, i)
        want = [cs for cs in listing if is_invariant(g, Poly(level, cs))]
        assert got == want, i


def test_scrim_counts_agree():
    for q, n in ((2, 3), (2, 5), (2, 7), (3, 3), (3, 5), (4, 3), (5, 3)):
        assert scrim_count(q, n) == scrim_count_divisor_sum(q, n)
    assert scrim_count(2, 3) == 2
    assert scrim_count(2, 5) == 6
    assert scrim_count(3, 3) == 8


def test_scrim_count_guards():
    with pytest.raises(EvenDegree):
        scrim_count(2, 4)
    with pytest.raises(DegreeTooSmall):
        scrim_count(2, 1)


def test_srim_count_values():
    assert srim_count(2, 3) == 1
    assert 2 * srim_count(3, 3) == scrim_count(3, 3)
    with pytest.raises(EvenParameter):
        srim_count(2, 4)


def test_scrim_scan_matches_bruteforce(t212):
    fam = scrim_polynomials(t212, 3)
    assert len(fam) == scrim_count(2, 3)
    brute = [f for f in iter_monic_irreducibles(t212.top, 3) if is_scrim(f)]
    assert sorted(fam) == sorted(brute)
    for f in fam:
        assert conjugate_reciprocal(f) == f


def test_scrim_are_invariant_under_inverse_frobenius(t212):
    # the defining symmetry: fixed by [[0,1],[1,0]] paired with conjugation
    g = Semilinear(Mat2(t212, 0, 1, 1, 0), 1)
    for f in scrim_polynomials(t212, 3):
        assert is_invariant(g, f)


def test_construct_scrim_is_lex_min_conjugate_pair(t212):
    fam = scrim_polynomials(t212, 5)
    first, conj = construct_scrim(t212, 5)
    assert first == fam[0]
    assert conj == frobenius_poly(first, 1) and conj in fam and conj != first
    assert len(fam) == scrim_count(2, 5)


def test_construct_scrim_pair_lifts_to_reciprocal_sextic(t212):
    first, conj = construct_scrim(t212, 3)
    product = first * conj
    assert all(c < 2 for c in product.coeffs)
    lift = Poly(t212.mid, product.coeffs)
    assert lift == Poly(t212.mid, [1, 0, 0, 1, 0, 0, 1])
    assert reciprocal(lift) == lift and is_irreducible(lift)


def test_srim_scan(t212):
    f2 = t212.mid
    fam = srim_polynomials(f2, 6)
    assert len(fam) == srim_count(2, 3)
    assert fam[0].coeffs == (1, 0, 0, 1, 0, 0, 1)  # x**6 + x**3 + 1
    for f in fam:
        assert is_srim(f)
    assert not is_srim(Poly(f2, [1, 1, 0, 1]))
    with pytest.raises(EvenDegree):
        srim_polynomials(f2, 5)


def test_lift_check_consistency(t222):
    A = Mat2(t222, 0, 1, 1, 0)
    fams = census(Semilinear(A, 1), [3]).entries[0].polynomials
    assert fams
    for f in fams:
        res = lift_check(t222, A, f, frob_index=1)
        assert res.invariant_exists
        assert res.given_frob_invariant
        assert res.consistent


def test_lift_check_all_false_for_descended_poly(t212):
    # f with all coefficients already in F_2 while d0 = 2: nothing lifts
    A = Mat2(t212, 0, 1, 1, 0)
    f = Poly(t212.top, [1, 1, 0, 1])
    res = lift_check(t212, A, f, frob_index=1)
    assert res.overlap == 2 and res.subfield_degree == 1
    assert not res.invariant_exists
    assert not res.invariant_in_exact_subfield
    assert not res.norm_descends
    assert res.consistent


def test_lift_check_false_verdicts_on_generic_poly(t222):
    # min_subfield_degree == d0 alone proves nothing when d0 == n; the
    # second verdict must still come out false for a non-invariant f
    A = Mat2(t222, 0, 1, 1, 0)
    g = Semilinear(A, 1)
    for coeffs in monic_irreducibles(t222.top, 3):
        f = Poly(t222.top, coeffs)
        if min_subfield_degree(f) != 2 or is_invariant(g, f):
            continue
        res = lift_check(t222, A, f)
        assert not res.invariant_exists
        assert not res.invariant_in_exact_subfield
        assert res.consistent
        break
    else:
        pytest.fail("no generic degree-3 polynomial found")


def test_lift_check_rejects_top_entries(t222):
    A = Mat2(t222, 4, 1, 1, 0)   # 4 encodes an element outside F_4
    f = Poly(t222.top, [2, 1, 0, 1])
    with pytest.raises(DomainError):
        lift_check(t222, A, f)


def test_involution_ratio(t212):
    A = Mat2(t212, 0, 1, 1, 0)
    res = involution_ratio_check(t212, A, 3)
    assert res.ratio_holds
    assert res.twisted_count == 2 * res.classical_count
    with pytest.raises(NotInvolution):
        involution_ratio_check(t212, Mat2.identity(t212), 3)


def test_asymptotic_report(t212):
    g = Semilinear(Mat2.identity(t212), 1)
    pts = asymptotic_report(g, (3, 5))
    assert [p.count for p in pts] == [2, 6]
    assert pts[0].ratio_exact == Fraction(3, 4)
    assert pts[1].ratio_exact == Fraction(15, 16)
    assert pts[0].predicted == pytest.approx(8 / 3)
    with pytest.raises(DomainError):
        asymptotic_report(g, (4,))  # gcd(s, span) = 2 is infeasible


def test_random_elements_respect_census(t312):
    rng = random.Random(99)
    for _ in range(4):
        g = random_semilinear(t312, rng)
        try:
            plan = plan_enumeration(g, 4)
        except DegreeTooSmall:
            continue
        want = census(g, [4]).entries[0].polynomials
        if plan.feasible:
            assert list(enumerate_invariants(g, 4)) == sorted(want)
        else:
            assert want == ()
