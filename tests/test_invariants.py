import itertools
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, given, settings, strategies as st

import galois_moebius as gm
from galois_moebius import invariants, polyring
from galois_moebius.errors import (
    BudgetExceeded,
    DegreeTooLarge,
    DegreeTooSmall,
    DomainError,
    EvenDegree,
    EvenParameter,
    InternalInvariantError,
    LevelMismatch,
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
from galois_moebius.pgammal import (
    Mat2,
    Semilinear,
    fixing_polynomial_twisted,
    random_semilinear,
    reduce_frobenius_index,
    twisted_product,
)
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


def test_census_rejects_a_level_of_another_tower(t212, t312):
    # an F_4 element used to be censused over F_9, its entries read as F_9 codes
    g = Semilinear(Mat2(t212, 0, 1, 1, 0), 1)
    with pytest.raises(LevelMismatch):
        census(g, [1], level=t312.top)


def test_census_rejects_a_level_name(t212):
    # the name of a level is no level: "top" used to leak an AttributeError
    g = Semilinear(Mat2(t212, 0, 1, 1, 0), 1)
    with pytest.raises(LevelMismatch):
        census(g, [1], level="top")


def test_is_invariant_rejects_a_coefficient_list(t212):
    # a bare list used to leak an AttributeError
    with pytest.raises(DomainError):
        is_invariant(Mat2(t212, 0, 1, 1, 0), [1, 1])


SOLVER_TOWERS = ((2, 1, 2), (2, 1, 3), (3, 1, 2), (5, 1, 2), (2, 2, 2), (2, 1, 4))


@st.composite
def solver_cases(draw):
    """An element matrix, a level (the top, or the middle field with a
    matrix over it), a degree and monic polynomials of that degree,
    reducible ones included: every one of them when there are at most 400
    (complete), else a random sample.  Matrix shapes with zero entries and
    scalar matrices (the trivial action, or a Frobenius power alone) are
    drawn on purpose, and with c != 0 some sampled candidates get the
    root -d/c, whose image goes to infinity."""
    tower = gm.build_tower(*draw(st.sampled_from(SOLVER_TOWERS)))
    level = draw(st.sampled_from((tower.top, tower.mid)))
    Q = level.size
    a, b, c, d = (draw(st.integers(1, Q - 1)) for _ in range(4))
    shape = draw(st.sampled_from(("any", "c=0", "b=0", "swap", "scalar")))
    if shape == "c=0":
        c = 0
    elif shape == "b=0":
        b = 0
    elif shape == "swap":
        a, b, c, d = 0, 1, 1, 0
    elif shape == "scalar":
        b, c, d = 0, 0, a
    try:
        mat = Mat2(tower, a, b, c, d)
    except SingularMatrix:
        assume(False)
    k = draw(st.integers(1, 5))
    complete = Q**k <= 400
    if complete:
        listing = [(*tail, 1) for tail in itertools.product(range(Q), repeat=k)]
    else:
        tails = st.lists(st.integers(0, Q - 1), min_size=k, max_size=k)
        listing = [(*tail, 1) for tail in draw(st.lists(tails, min_size=1, max_size=40))]
        if c:
            # x + d/c has the root -d/c
            pole = [level.mul(d, level.inv(c)), 1]
            for h in draw(st.lists(tails.map(lambda t: t[1:]), max_size=10)):
                listing.append(tuple(level.poly_mul(pole, [*h, 1])))
    return level, mat, k, listing, complete


@settings(max_examples=60, deadline=None)
@given(solver_cases())
def test_census_solver_matches_is_invariant(case):
    level, mat, k, listing, complete = case
    for i in range(1, mat.tower.n + 1):
        g = Semilinear(mat, i)
        want = {cs for cs in listing if is_invariant(g, Poly(level, cs))}
        trivial = mat.is_scalar() and all(level.frob(x, i) == x for x in range(level.size))
        if not complete and trivial:
            continue  # every one of the Q**k monic polynomials is fixed
        got = invariants._fixed_points(level, g, k)
        assert len(set(got)) == len(got), i
        if complete:
            assert set(got) == want, i
            irreducible = sorted(
                (Poly(level, cs) for cs in want if is_irreducible(Poly(level, cs))),
                key=Poly.lex_key,
            )
            assert list(census(g, [k], level=level).entries[0].polynomials) == irreducible, i
        else:
            assert want <= set(got), i
            assert all(is_invariant(g, Poly(level, cs)) for cs in got), i


# F_4, F_8, F_9, F_16 = (2,2,2) and (2,1,4), F_25, F_27, F_64 = (2,1,6)
D1_TOWERS = (
    (2, 1, 2), (2, 1, 3), (3, 1, 2), (2, 2, 2), (2, 1, 4), (5, 1, 2), (3, 1, 3), (2, 1, 6)
)


@st.composite
def d1_elements(draw):
    """A non-scalar element whose twisted product is projectively trivial
    (D = 1), drawn as a conjugate h**-1 [c*I, sigma_i] h of a pure
    Frobenius, i < n; by Hilbert 90 every D = 1 element is one."""
    tower = gm.build_tower(*draw(st.sampled_from(D1_TOWERS)))
    Q = tower.top.size
    c = draw(st.integers(1, Q - 1))
    i = draw(st.integers(1, tower.n - 1))
    try:
        h = Semilinear(Mat2(tower, *(draw(st.integers(0, Q - 1)) for _ in range(4))))
    except SingularMatrix:
        assume(False)
    g = h.inverse() * Semilinear(Mat2(tower, c, 0, 0, c), i) * h
    assume(not g.mat.is_scalar())
    return g


@settings(max_examples=40, deadline=None)
@given(d1_elements())
def test_d1_enumeration_matches_factoring_and_census(g):
    # the conjugation route against the factoring it replaced (fixing
    # polynomials of degree at most 2**9 + 1: at 2**10 + 1 one
    # _factored_fixed takes 0.4-0.7 s) and against the census where
    # Q**k <= 2**16
    tower = g.tower
    reduced = reduce_frobenius_index(g)
    for k in range(3, 8):
        plan = plan_enumeration(g, k, cap=None)
        assert plan.factor_order == 1 and not plan.pure_frobenius
        if not plan.feasible or plan.base_power**k > 1 << 9:
            continue
        got = enumerate_invariants(g, k)
        assert got == invariants._factored_fixed(g, plan), k
        if tower.top.size**k <= 1 << 16:
            assert got == census(g, [k]).entries[0].polynomials, k
    h = Semilinear(invariants._conjugator(reduced))
    conj = h * reduced * h.inverse()
    assert conj.frob == reduced.frob == gcd(g.frob, tower.n)
    assert conj.mat.is_scalar()


@st.composite
def factored_points(draw):
    """An element with D > 1 and a degree 3..12 whose plan is feasible,
    with fixing polynomials of degree at most 2**9 + 1: the first such
    (element, degree) among random draws on the D1_TOWERS towers."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    while True:
        tower = gm.build_tower(*rng.choice(D1_TOWERS))
        Q = tower.top.size
        try:
            mat = Mat2(tower, *(rng.randrange(Q) for _ in range(4)))
        except SingularMatrix:
            continue
        g = Semilinear(mat, rng.randrange(1, tower.n + 1))
        for k in rng.sample(range(3, 13), 10):
            try:
                plan = plan_enumeration(g, k, cap=None)
            except DegreeTooSmall:
                continue
            if plan.feasible and plan.factor_order > 1 and plan.base_power**plan.s <= 1 << 9:
                return g, plan


@settings(max_examples=12, deadline=None)
@given(factored_points())
def test_factored_enumeration_matches_full_factoring_and_census(point):
    # the ladder route (degree-k part by gcds, one trace per EDF draw)
    # against polyring.factor of each fixing polynomial: squarefree
    # decomposition, a full DDF and the EDF's packed powering
    g, plan = point
    k = plan.degree
    want = set()
    for j in plan.twists:
        F = fixing_polynomial_twisted(plan.reduced.mat, j, j + plan.s, step=plan.frob_index)
        _, parts = polyring.factor(F)
        want |= {f for f, _ in parts if f.degree == k and is_invariant(g, f)}
    got = enumerate_invariants(g, k, cap=None)
    assert got == tuple(sorted(want, key=Poly.lex_key))
    if g.tower.top.size**k <= 1 << 16:
        assert got == census(g, [k]).entries[0].polynomials


def test_factored_enumeration_runs_no_ddf(monkeypatch, t212):
    def refuse(*args, **kwargs):
        raise AssertionError("a fixing polynomial went through the DDF")

    monkeypatch.setattr(polyring, "_ddf", refuse)
    # the D = 5 element of the benchmark's F4-D5 slots at degree 15
    g = Semilinear(Mat2(t212, 2, 3, 2, 0), 2)
    plan = plan_enumeration(g, 15)
    assert plan.factor_order == 5 and not plan.pure_frobenius
    got = enumerate_invariants(g, 15)
    assert len(got) == 16
    assert all(f.degree == 15 and is_irreducible(f) and is_invariant(g, f) for f in got)


def test_factored_listing_drops_a_factor_the_action_moves(monkeypatch, t212):
    # the filter after the EDF is a real test: an irreducible of the right
    # degree that g moves, slipped in among the split factors, is dropped
    g = Semilinear(Mat2(t212, 2, 3, 2, 0), 2)
    want = enumerate_invariants(g, 15)
    rng = random.Random(3)
    while True:
        intruder = Poly(t212.top, [rng.randrange(4) for _ in range(15)] + [1])
        if is_irreducible(intruder) and not is_invariant(g, intruder):
            break
    edf, calls = polyring._edf, []

    def edf_and_intruder(*args):
        calls.append(args)
        return edf(*args) + [list(intruder.coeffs)]

    monkeypatch.setattr(polyring, "_edf", edf_and_intruder)
    assert enumerate_invariants(g, 15) == want
    assert calls


def test_census_reverification_refuses_an_unfixed_irreducible(monkeypatch, t212):
    # the census re-verifies the solver's output: an irreducible that g
    # moves, slipped in among the fixed points, makes it raise
    g = Semilinear(Mat2(t212, 0, 1, 1, 0), 1)
    top = t212.top
    intruder = next(
        cs for cs in monic_irreducibles(top, 3) if not is_invariant(g, Poly(top, cs))
    )
    solve = invariants._fixed_points
    monkeypatch.setattr(
        invariants, "_fixed_points", lambda level, g, k: solve(level, g, k) + [intruder]
    )
    with pytest.raises(InternalInvariantError, match="re-verification"):
        census(g, [3])


def test_d1_enumeration_factors_nothing(monkeypatch, t212, t214):
    def refuse(*args, **kwargs):
        raise AssertionError("a D = 1 element went through a fixing polynomial")

    monkeypatch.setattr(polyring, "_ddf", refuse)
    monkeypatch.setattr(invariants, "fixing_polynomial_twisted", refuse)
    swap = enumerate_invariants(Semilinear(Mat2(t212, 0, 1, 1, 0), 1), 13)
    assert len(swap) == 630
    assert swap == scrim_polynomials(t212, 13)
    # a conjugate of [I, sigma_2] over F_16 fixes the images of the
    # degree-7 irreducibles over F_4 (a fixing polynomial of degree 4**7 + 1)
    h = Semilinear(Mat2(t214, 1, 2, 3, 4))
    g = h.inverse() * Semilinear(Mat2.identity(t214), 2) * h
    assert not g.mat.is_scalar()
    assert len(enumerate_invariants(g, 7, cap=None)) == polyring.count_irreducibles(4, 7)


def test_d1_conjugate_costs_what_its_pure_frobenius_costs(t214):
    # both sieve the 4**7 candidates over F_4, which the default cap allows
    h = Semilinear(Mat2(t214, 1, 2, 3, 4))
    g = h.inverse() * Semilinear(Mat2.identity(t214), 2) * h
    assert not g.mat.is_scalar()
    assert len(enumerate_invariants(g, 7)) == 2340
    with pytest.raises(DegreeTooLarge):
        enumerate_invariants(g, 7, cap=4**7 - 1)


def test_d1_listing_draws_nothing_at_random(monkeypatch, t212, t214):
    def refuse(*args, **kwargs):
        raise AssertionError("a D = 1 listing drew a random number")

    monkeypatch.setattr(invariants.random, "Random", refuse)
    h = Semilinear(Mat2(t214, 1, 2, 3, 4))
    g = h.inverse() * Semilinear(Mat2(t214, 5, 0, 0, 5), 1) * h
    got = enumerate_invariants(g, 5)
    assert len(got) == polyring.count_irreducibles(2, 5)
    assert all(is_invariant(g, f) for f in got)
    assert len(scrim_polynomials(t212, 5)) == scrim_count(2, 5)


@pytest.mark.parametrize(
    "spec", [(2, 1, 2), (2, 1, 3), (3, 1, 2), (2, 2, 2), (2, 1, 4)], ids=str
)
def test_conjugator_moves_every_d1_class_to_a_pure_frobenius(spec):
    # every non-scalar class with a proper index t | n whose twisted
    # product is scalar, with infinity fixed (c = 0) and not
    tower = gm.build_tower(*spec)
    n = tower.n
    seen = {True: 0, False: 0}
    for mat in gm.all_proj_classes(tower):
        for t in range(1, n):
            g = Semilinear(mat, t)
            if n % t or mat.is_scalar() or not twisted_product(mat, n // t, t).is_scalar():
                continue
            h = Semilinear(invariants._conjugator(g))
            conj = h * g * h.inverse()
            assert conj.frob == t and conj.mat.is_scalar(), (mat, t)
            seen[mat.c == 0] += 1
    assert seen[True] and seen[False]


def test_census_of_a_nontrivial_element_lists_nothing(monkeypatch, t212):
    def refuse(level, k):
        raise AssertionError("the census listed the irreducibles")

    monkeypatch.setattr(polyring, "monic_irreducibles", refuse)
    for g in (
        Semilinear(Mat2(t212, 0, 1, 1, 0), 1),
        Semilinear(Mat2(t212, 0, 1, 1, 0), 2),
        Semilinear(Mat2(t212, 1, 1, 0, 1), 1),
        Semilinear(Mat2.identity(t212), 1),
        Semilinear(Mat2(t212, 2, 0, 0, 2), 1),
    ):
        census(g, [1, 2, 3, 4, 5])
    # the trivial action is the one census that reads the cached listing;
    # the scalar matrices above with sigma sieve only their fixed field F_2
    with pytest.raises(AssertionError):
        census(Semilinear.identity(t212), [3])


def test_census_of_a_pure_frobenius_solves_nothing(monkeypatch):
    # [I, sigma] over F_4096 fixes the F_2 irreducibles of degree coprime
    # to 12: the sieve over F_2 lists x and x + 1, and degree 2 is empty,
    # with no elimination over any level
    def refuse(field, rows):
        raise AssertionError("the census solved fixed-point equations")

    tower = gm.build_tower(2, 1, 12)
    monkeypatch.setattr(invariants, "_solve", refuse)
    report = census(Semilinear(Mat2.identity(tower), 1), [1, 2])
    assert [f.coeffs for f in report.entries[0].polynomials] == [(0, 1), (1, 1)]
    assert report.entries[1].polynomials == ()


def test_pure_frobenius_enumeration_leaves_the_top_unsorted(monkeypatch):
    # [I, sigma] over F_(2**17) at degree 3 sieves F_2's two codes, not the
    # 2**17 codes of the top
    tower = gm.build_tower(2, 1, 17)
    top = tower.top
    monkeypatch.setattr(top, "_elements_lex", None)
    got = enumerate_invariants(Semilinear(Mat2.identity(tower), 1), 3)
    assert [f.coeffs for f in got] == [(1, 0, 1, 1), (1, 1, 0, 1)]
    assert top._elements_lex is None


def test_trivial_action_enumeration_reads_the_cached_listing(monkeypatch, t212):
    g = Semilinear(Mat2.identity(t212), t212.n)
    first = enumerate_invariants(g, 5)

    def refuse(*args):
        raise AssertionError("the trivial action sieved again")

    monkeypatch.setattr(polyring, "_sieve", refuse)
    assert enumerate_invariants(g, 5) == first
    assert len(first) == polyring.count_irreducibles(4, 5)


@pytest.mark.parametrize("params", SOLVER_TOWERS)
def test_census_of_scalar_matrices_matches_the_solver(params):
    # the sieve route against the independent solver: every Frobenius
    # index, t = 2 on (2, 1, 4) included, on the top and the middle field
    tower = gm.build_tower(*params)
    for level in (tower.top, tower.mid):
        for a in sorted({1, level.size - 1}):
            for i in range(1, tower.n + 1):
                g = Semilinear(Mat2(tower, a, 0, 0, a), i)
                for k in range(1, 5):
                    if level.size**k > 4096:
                        break
                    fixed = invariants._fixed_points(level, g, k)
                    want = [Poly(level, cs) for cs in fixed if polyring._irreducible(level, cs)]
                    got = census(g, [k], level=level).entries[0].polynomials
                    assert list(got) == sorted(want, key=Poly.lex_key), (level, a, i, k)


def test_census_checks_only_the_eigenvalues_when_sigma_is_trivial(monkeypatch):
    # over F_65536 with frob = n, sigma is the identity on the level; the
    # F_Q check looks at the eigenvalues of the element's 2x2 matrix alone,
    # not at all 65535 scalars
    tower = gm.build_tower(2, 8, 2)
    level = tower.top
    rng = random.Random(5)
    while True:
        a, b, c, d = (rng.randrange(1, level.size) for _ in range(4))
        if level.mul(a, d) == level.mul(b, c):
            continue
        # the degree-1 fixed points x - r: the roots of c*x**2 + (d - a)*x - b
        fixed = polyring._roots(level, [level.neg(b), level.sub(d, a), c])
        if len(fixed) == 2:
            break
    solves = []
    solve = invariants._solve

    def counted(field, rows):
        if field is level:
            solves.append(rows)
        return solve(field, rows)

    monkeypatch.setattr(invariants, "_solve", counted)
    got = census(Semilinear(Mat2(tower, a, b, c, d), tower.n), [1]).entries[0].polynomials
    assert len(solves) <= 2
    want = sorted((Poly(level, [level.neg(r), 1]) for r in fixed), key=Poly.lex_key)
    assert list(got) == want


def _bound_calls(monkeypatch, level, name, bound=20_000):
    # fail fast once the census makes more calls than a walk over F_Q* would
    # leave room for
    op = getattr(level, name)
    calls = [0]

    def counted(*args):
        calls[0] += 1
        if calls[0] > bound:
            raise AssertionError(f"more than {bound} calls of level.{name}")
        return op(*args)

    monkeypatch.setattr(level, name, counted)


def test_census_over_f65536_with_sigma_of_order_2_walks_no_scalars(monkeypatch):
    # frob = 1 has order 2 on F_65536: each norm value is one eigenspace,
    # not a walk over the 65535 scalars of the level
    tower = gm.build_tower(2, 8, 2)
    level = tower.top
    mul, add, frob = level.mul, level.add, level.frob
    elements = [Semilinear(Mat2(tower, *e), 1) for e in ((1, 2, 3, 4), (5, 7, 11, 13))]
    brute = []
    for g in elements:
        # x + r goes to x + (sigma(r)*d + b) / (sigma(r)*c + a)
        a, b, c, d = g.mat.entries
        brute.append(
            [
                Poly(level, [r, 1])
                for r in level.elements_lex()
                if add(mul(frob(r, 1), c), a)
                and mul(r, add(mul(frob(r, 1), c), a)) == add(mul(frob(r, 1), d), b)
            ]
        )
    assert any(brute)
    _bound_calls(monkeypatch, level, "frob")
    for g, want in zip(elements, brute):
        report = census(g, [1, 2, 3], budget=level.size**3)
        assert list(report.entries[0].polynomials) == want


def test_census_on_a_2_24_level_walks_no_scalars(monkeypatch):
    # F_(2**24) over F_4096: frob = 1 has order 2, frob = 2 is trivial.  A
    # degree-1 fixed x - r has r fixed by the twisted product B, one of the
    # roots of c*x**2 + (d - a)*x - b for B = [[a, b], [c, d]]
    tower = gm.build_tower(2, 12, 2)
    level = tower.top
    mat = Mat2(tower, 5, 7, 11, 13)
    wants = {}
    for frob in (1, 2):
        g = Semilinear(mat, frob)
        a, b, c, d = twisted_product(mat, 2 // frob, frob).entries
        roots = polyring._roots(level, [level.neg(b), level.sub(d, a), c])
        assert roots and c  # B is no scalar, and fixes some points
        lin = [Poly(level, [level.neg(r), 1]) for r in roots]
        wants[frob] = sorted((f for f in lin if is_invariant(g, f)), key=Poly.lex_key)
    _bound_calls(monkeypatch, level, "mul")
    _bound_calls(monkeypatch, level, "frob")
    for frob, want in wants.items():
        got = census(Semilinear(mat, frob), [1]).entries[0].polynomials
        assert list(got) == want, frob


@pytest.mark.parametrize("params, k", [((2, 1, 3), 5), ((3, 1, 2), 4)])
def test_census_matches_a_filter_over_every_irreducible(params, k):
    tower = gm.build_tower(*params)
    rng = random.Random(sum(params) * k)
    for _ in range(3):
        g = random_semilinear(tower, rng)
        want = [f for f in iter_monic_irreducibles(tower.top, k) if is_invariant(g, f)]
        assert list(census(g, [k]).entries[0].polynomials) == want


def test_scrim_counts_agree():
    for q, n in ((2, 3), (2, 5), (2, 7), (3, 3), (3, 5), (4, 3), (5, 3)):
        assert scrim_count(q, n) == scrim_count_divisor_sum(q, n)
    assert scrim_count(2, 3) == 2
    assert scrim_count(2, 5) == 6
    assert scrim_count(3, 3) == 8
    assert scrim_count_divisor_sum(2, 61) == scrim_count(2, 61) == 37800705069076950


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


# quadratic towers with default and non-default moduli, q = 2 .. 9
QUADRATIC_TOWERS = [
    ((2, 1, 2), {}),
    ((3, 1, 2), {}),
    ((3, 1, 2), {"h": (2, 1, 1)}),
    ((2, 2, 2), {"g": (1, 1, 1)}),
    ((2, 2, 2), {"h": (2, 1, 1)}),
    ((5, 1, 2), {}),
    ((7, 1, 2), {}),
    ((2, 3, 2), {}),
    ((2, 3, 2), {"g": (1, 1, 0, 1)}),
    ((3, 2, 2), {}),
    ((3, 2, 2), {"g": (2, 1, 1)}),
]


def _tower_id(spec):
    args, kw = spec
    return "-".join(map(str, args)) + "".join(f"-{k}{''.join(map(str, v))}" for k, v in kw.items())


@pytest.mark.parametrize("spec", QUADRATIC_TOWERS, ids=_tower_id)
def test_cayley_conjugates_the_swap_to_the_pure_frobenius(spec):
    # the conjugator found for the swap plays the part of a Cayley matrix
    tower = gm.build_tower(*spec[0], **spec[1])
    swap = Semilinear(Mat2(tower, 0, 1, 1, 0), 1)
    h = Semilinear(invariants._conjugator(swap), 2)
    conj = h * swap * h.inverse()
    assert conj.frob == 1
    assert conj.mat.proj_eq(Mat2.identity(tower))


@pytest.mark.parametrize(
    "spec, degree",
    [(spec, 3) for spec in QUADRATIC_TOWERS]
    + [(spec, 5) for spec in QUADRATIC_TOWERS if spec[1] or spec[0][:2] in ((2, 1), (5, 1), (7, 1))],
    ids=lambda v: _tower_id(v) if isinstance(v, tuple) else f"k{v}",
)
def test_scrim_listing_matches_the_symmetric_scan(spec, degree):
    tower = gm.build_tower(*spec[0], **spec[1])
    fam = scrim_polynomials(tower, degree)
    if tower.q <= 5:
        assert fam == tuple(invariants._scrim_irreducibles(tower, degree))
        return
    # the scan takes seconds here: check the count, the strict order, the
    # symmetry of every member and the irreducibility of a sample
    assert len(fam) == scrim_count(tower.q, degree)
    keys = [f.lex_key() for f in fam]
    assert all(a < b for a, b in zip(keys, keys[1:]))
    assert all(f.is_monic and conjugate_reciprocal(f) == f for f in fam)
    assert all(is_irreducible(f) for f in random.Random(5).sample(fam, 60))
    assert construct_scrim(tower, degree)[0] == fam[0]


def test_scrim_listing_at_benchmark_scale(t312):
    fam = scrim_polynomials(t312, 9)
    assert len(fam) == scrim_count(3, 9) == 2184
    keys = [f.lex_key() for f in fam]
    assert all(a < b for a, b in zip(keys, keys[1:]))
    assert all(is_scrim(f) for f in fam)


def _palindromic_scan(level, degree):
    m = degree // 2
    out = []
    for frees in itertools.product(level.elements_lex(), repeat=m):
        coeffs = [1, *frees, *reversed(frees[:-1]), 1]
        if polyring._irreducible(level, coeffs):
            out.append(Poly(level, coeffs))
    return tuple(out)


SRIM_CASES = [
    (((2, 1, 2), {}), "mid", (2, 4, 6, 8, 10, 12)),
    (((2, 1, 2), {}), "top", (2, 4, 6)),
    (((3, 1, 2), {}), "mid", (2, 4, 6, 8)),
    (((3, 1, 2), {"h": (2, 1, 1)}), "top", (2, 4)),
    (((2, 2, 2), {"g": (1, 1, 1)}), "mid", (2, 4, 6)),
    (((5, 1, 2), {}), "mid", (2, 4, 6)),
    (((2, 3, 2), {"g": (1, 1, 0, 1)}), "mid", (2, 4)),
    (((7, 1, 2), {}), "mid", (2, 4, 6, 8)),
    (((7, 1, 2), {}), "top", (2, 4)),
    (((3, 2, 2), {}), "mid", (2, 4, 6, 8)),
    (((2, 1, 4), {}), "top", (2, 4, 6)),
]


@pytest.mark.parametrize(
    "spec, level_name, degrees",
    SRIM_CASES,
    ids=[f"{_tower_id(spec)}-{name}" for spec, name, _ in SRIM_CASES],
)
def test_srim_listing_matches_the_palindromic_scan(spec, level_name, degrees):
    level = getattr(gm.build_tower(*spec[0], **spec[1]), level_name)
    for k in degrees:
        assert srim_polynomials(level, k) == _palindromic_scan(level, k)


def test_srim_listing_runs_no_ben_or(monkeypatch):
    # Meyn's criterion decides every candidate x**m * g(x + 1/x) from g
    f25, f16 = gm.build_tower(5, 1, 2).top, gm.build_tower(2, 1, 4).top
    f5, f4 = gm.build_tower(5, 1, 2).mid, gm.build_tower(2, 2, 2).mid
    # the oracles for an even half-degree, taken before the patch
    scans = {level: _palindromic_scan(level, 4) for level in (f25, f16)}

    def refuse(*args):
        raise AssertionError("a self-reciprocal candidate was tested for irreducibility")

    monkeypatch.setattr(polyring, "_irreducible", refuse)
    for level, scan in scans.items():
        assert srim_polynomials(level, 4) == scan
    for level, k in ((f25, 6), (f16, 6), (f5, 10), (f4, 10)):
        listing = srim_polynomials(level, k)
        assert len(listing) == srim_count(level.size, k // 2)
        assert all(f.coeffs == f.coeffs[::-1] for f in listing)
        assert list(listing) == sorted(listing, key=Poly.lex_key)


@pytest.mark.parametrize(
    "spec",
    [
        ((2, 1, 2), {}),
        ((3, 1, 2), {"h": (2, 1, 1)}),
        ((2, 2, 2), {"g": (1, 1, 1)}),
        ((2, 2, 2), {"h": (2, 1, 1)}),
        ((2, 1, 3), {}),
        ((2, 1, 4), {}),
    ],
    ids=_tower_id,
)
def test_pure_frobenius_enumeration_matches_the_subfield_scan(monkeypatch, spec):
    tower = gm.build_tower(*spec[0], **spec[1])
    top = tower.top
    scan = polyring._irreducible_scan

    def refuse(*args):
        raise AssertionError("a subfield was scanned candidate by candidate")

    # every index t, 1 < t < n included, goes through the subfield sieve
    monkeypatch.setattr(polyring, "_irreducible_scan", refuse)
    scalar = top.elements_lex()[-1]  # projectively the identity
    checked = 0
    for t in gm.divisors(tower.n):
        subfield = [a for a in top.elements_lex() if top.frob(a, t) == a]
        for k in (3, 4, 5):
            if gcd(k, tower.n // t) != 1 or len(subfield) ** k > 5000:
                continue
            want = tuple(Poly(top, cs) for cs in scan(top, k, subfield))
            g = Semilinear(Mat2(tower, scalar, 0, 0, scalar), t)
            assert enumerate_invariants(g, k) == want
            checked += 1
    assert checked


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
