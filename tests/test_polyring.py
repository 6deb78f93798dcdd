import math
import random

import pytest
from hypothesis import given, settings, strategies as st

import galois_moebius as gm
from galois_moebius import polyring
from galois_moebius.errors import (
    DegreeMismatch,
    DivisionByZero,
    DomainError,
    InternalInvariantError,
    NotPrime,
    ZeroConstantTerm,
)
from galois_moebius.gftower import prime_level
from galois_moebius.polyring import (
    Poly,
    count_irreducibles,
    derivative,
    factor,
    frobenius_poly,
    gcd,
    is_irreducible,
    iter_monic_irreducibles,
    min_subfield_degree,
    monic_irreducibles,
    powmod,
    reciprocal,
    roots,
    squarefree_part_is_all,
)


@pytest.fixture(scope="module")
def f9():
    return gm.build_tower(3, 1, 2).top


def P(level, *coeffs):
    return Poly(level, list(coeffs))


def test_constructor_rejects_out_of_range_codes(t212):
    for coeffs in ([5, 1], [-1, 1], [1, 5, 1]):
        with pytest.raises(DomainError):
            Poly(t212.top, coeffs)


def test_constructor_trims(f9):
    assert P(f9, 1, 2, 0, 0).coeffs == (1, 2)
    assert P(f9, 0).coeffs == ()
    assert Poly.zero(f9).degree == -1
    assert Poly.one(f9).degree == 0
    assert Poly.x(f9).degree == 1


def test_arithmetic_identities(f9):
    rng = random.Random(7)
    for _ in range(40):
        f = P(f9, *[rng.randrange(9) for _ in range(rng.randint(1, 6))])
        g = P(f9, *[rng.randrange(9) for _ in range(rng.randint(1, 6))])
        h = P(f9, *[rng.randrange(9) for _ in range(rng.randint(1, 6))])
        assert (f + g) - g == f
        assert f * g == g * f
        assert f * (g + h) == f * g + f * h
        if g.degree >= 0:
            q, r = divmod(f, g)
            assert q * g + r == f
            assert r.degree < g.degree or r.degree == -1


def test_division_by_zero(f9):
    with pytest.raises(DivisionByZero):
        divmod(P(f9, 1, 1), Poly.zero(f9))


def test_known_factorizations():
    f2 = gm.build_tower(2, 1, 2).mid
    assert is_irreducible(P(f2, 1, 1, 0, 0, 1))       # x**4 + x + 1
    assert not is_irreducible(P(f2, 1, 0, 1))          # (x+1)**2
    lc, parts = factor(P(f2, 1, 0, 1))
    assert lc == 1
    assert parts == [(P(f2, 1, 1), 2)]
    # x**4 + x**3 + x**2 + x + 1 is the 5th cyclotomic poly, irreducible mod 2
    assert is_irreducible(P(f2, 1, 1, 1, 1, 1))


def test_factor_multiplies_back(f9):
    rng = random.Random(3)
    for _ in range(25):
        coeffs = [rng.randrange(9) for _ in range(rng.randint(2, 7))]
        f = P(f9, *coeffs)
        if f.degree < 1:
            continue
        lc, parts = factor(f)
        prod = Poly.one(f9).scale(lc)
        for g, m in parts:
            assert g.is_monic and is_irreducible(g)
            prod = prod * g**m
        assert prod == f


def test_roots_and_eval(f9):
    # x**2 + 2 = (x - 1)(x - 2) over the prime subfield of F_9
    f = P(f9, 2, 0, 1)
    rs = roots(f)
    assert rs == sorted(rs, key=f9.lex_key)
    for r in rs:
        assert f(r) == 0
    g = P(f9, 0, 1) * P(f9, f9.neg(4), 1)
    assert set(roots(g)) == {0, 4}


def test_gcd_and_powmod(f9):
    f = P(f9, 1, 1) * P(f9, 2, 1)
    g = P(f9, 1, 1) * P(f9, 3, 1)
    assert gcd(f, g) == P(f9, 1, 1)
    m = P(f9, 1, 0, 1)
    got = powmod(P(f9, 0, 1), 9**2, m)
    assert got == P(f9, 0, 1) % m


def test_poly_power_matches_repeated_product(f9):
    rng = random.Random(5)
    for _ in range(6):
        f = Poly(f9, [rng.randrange(9) for _ in range(rng.randrange(0, 4))])
        m = Poly(f9, [rng.randrange(9) for _ in range(3)] + [1])
        acc = Poly.one(f9)
        for e in range(10):
            assert f**e == acc
            assert powmod(f, e, m) == acc % m
            acc = acc * f


def test_derivative_rules(f9):
    f = P(f9, 4, 3, 0, 1)
    g = P(f9, 1, 2)
    assert derivative(f * g) == derivative(f) * g + f * derivative(g)


def test_squarefree_detection(f9):
    assert squarefree_part_is_all(P(f9, 1, 1))
    assert not squarefree_part_is_all(P(f9, 1, 2, 1))  # (x+1)**2


def test_count_irreducibles_formula():
    assert count_irreducibles(2, 1) == 2
    assert count_irreducibles(2, 2) == 1
    assert count_irreducibles(2, 3) == 2
    assert count_irreducibles(2, 4) == 3
    assert count_irreducibles(2, 5) == 6
    assert count_irreducibles(4, 3) == 20
    assert count_irreducibles(9, 3) == 240


def test_count_irreducibles_fraction_is_internal_error(monkeypatch):
    # with every mu(d) forced to 1, the degree-3 sum over F_2 is 8 + 2 = 10,
    # which 3 does not divide
    monkeypatch.setattr(polyring, "moebius_mu", lambda d: 1)
    with pytest.raises(InternalInvariantError):
        count_irreducibles(2, 3)


@pytest.mark.parametrize("size", [1, 6, 12, 0])
def test_count_irreducibles_needs_a_prime_power(size):
    with pytest.raises(NotPrime):
        count_irreducibles(size, 3)


@pytest.mark.parametrize("k", [0, -1])
def test_monic_irreducibles_rejects_nonpositive_degree(t212, k):
    with pytest.raises(DegreeMismatch):
        monic_irreducibles(t212.top, k)
    assert k not in t212.top._irr_cache


def test_edf_rejects_mixed_degree_input(t212):
    # x * (x**3 + x + 1) over F_4: one linear factor and one cubic
    level = t212.top
    f = [0, 1, 1, 0, 1]
    with pytest.raises(InternalInvariantError, match="not all of degree 1"):
        polyring._edf(level, f, 1, random.Random(0))
    # a degree that d does not divide is refused before any draw
    with pytest.raises(InternalInvariantError, match="not a product"):
        polyring._edf(level, f, 3, random.Random(0))


def test_monic_irreducibles_census(f9):
    for k in (1, 2, 3):
        got = monic_irreducibles(f9, k)
        assert len(got) == count_irreducibles(9, k)
        assert len(set(got)) == len(got)
        for cs in got:
            assert cs[-1] == 1 and is_irreducible(Poly(f9, cs))
    assert monic_irreducibles(f9, 2) is monic_irreducibles(f9, 2)


SIEVE_LEVELS = {
    "F2": lambda: prime_level(2),
    "F3": lambda: prime_level(3),
    "F4": lambda: gm.build_tower(2, 1, 2).top,
    "F5": lambda: prime_level(5),
    "F8": lambda: gm.build_tower(2, 1, 3).top,
    "F9": lambda: gm.build_tower(3, 1, 2).top,
    "F25": lambda: gm.build_tower(5, 1, 2).top,
    "F16-2.1.4": lambda: gm.build_tower(2, 1, 4).top,
    "F16-2.2.2": lambda: gm.build_tower(2, 2, 2).top,
    "F8-x3+x2+1": lambda: gm.build_tower(2, 1, 3, h=(1, 0, 1, 1)).top,
    "F64": lambda: gm.build_tower(2, 1, 6).top,
}


@pytest.mark.parametrize("name", list(SIEVE_LEVELS))
def test_monic_irreducibles_sieve_matches_scan(name):
    level = SIEVE_LEVELS[name]()
    k = 1
    while level.size**k <= 4096:
        got = monic_irreducibles(level, k)
        want = tuple(map(tuple, polyring._irreducible_scan(level, k, level.elements_lex())))
        assert got == want, (name, k)
        assert len(got) == count_irreducibles(level.size, k)
        k += 1
    # every proper subfield F_(p**j), j | flat_deg, as codes in lex order.
    # The sieve lists the irreducibles over the subfield, the scan those
    # over the level: the same set when k is coprime to the index w/j
    p, w = level.p, level.flat_deg
    for j in gm.divisors(w)[:-1]:
        subfield = [a for a in level.elements_lex() if level.pow(a, p**j) == a]
        assert len(subfield) == p**j
        k = 1
        while len(subfield) ** k <= 4096:
            got = [[*tail, 1] for tail in polyring._sieve(level, k, subfield)]
            want = list(polyring._irreducible_scan(level, k, subfield))
            if math.gcd(k, w // j) == 1:
                assert got == want, (name, j, k)
            else:
                assert all(f in got for f in want), (name, j, k)
            assert len(got) == count_irreducibles(p**j, k)
            k += 1


LEX_LEVELS = [prime_level(5), gm.build_tower(2, 1, 3).top, gm.build_tower(3, 1, 2).top]


@settings(max_examples=50, deadline=None)
@given(
    level=st.sampled_from(LEX_LEVELS),
    draws=st.lists(st.lists(st.integers(0, 1 << 16), min_size=1, max_size=4), max_size=12),
)
def test_poly_lex_key_orders_like_the_coefficient_key_tuple(level, draws):
    polys = [Poly(level, [c % level.size for c in cs]) for cs in draws]

    def tuple_key(f):
        return (len(f.coeffs), tuple(level.lex_key(c) for c in f.coeffs))

    assert sorted(polys, key=Poly.lex_key) == sorted(polys, key=tuple_key)


def test_iter_monic_irreducibles_lex(f9):
    polys = list(iter_monic_irreducibles(f9, 2))
    keys = [tuple(f9.lex_key(c) for c in p.coeffs[:-1]) for p in polys]
    assert keys == sorted(keys)


def test_frobenius_poly_fixes_subfield(t212):
    top = t212.top
    f = Poly(top, [1, 1, 1])
    assert frobenius_poly(f, 1) == f
    g = Poly(top, [2, 1])
    assert frobenius_poly(g, 1) == Poly(top, [3, 1])
    assert frobenius_poly(g, 2) == g
    assert min_subfield_degree(f) == 1
    assert min_subfield_degree(g) == 2


def test_reciprocal(f9):
    f = P(f9, 2, 0, 1)
    r = reciprocal(f)
    assert r.is_monic and r.degree == 2
    assert reciprocal(r) == f.monic()
    with pytest.raises(ZeroConstantTerm):
        reciprocal(P(f9, 0, 1))


def test_poly_ordering_and_hash(f9):
    a = P(f9, 1, 1)
    b = P(f9, 1, 1)
    assert a == b and hash(a) == hash(b)
    assert sorted([P(f9, 0, 0, 1), P(f9, 1, 1)]) == [P(f9, 1, 1), P(f9, 0, 0, 1)]


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 8), min_size=1, max_size=6),
       st.lists(st.integers(0, 8), min_size=1, max_size=6))
def test_mul_degree_property(cf, cg):
    f9 = gm.build_tower(3, 1, 2).top
    f, g = Poly(f9, cf), Poly(f9, cg)
    h = f * g
    if f.degree >= 0 and g.degree >= 0:
        assert h.degree == f.degree + g.degree
    else:
        assert h.degree == -1


def _roots_by_scan(level, f):
    """Every code a with f(a) = 0 by Horner evaluation, in lex order."""
    found = []
    for a in range(level.size):
        acc = 0
        for c in reversed(f):
            acc = level.add(level.mul(acc, a), c)
        if not acc:
            found.append(a)
    return sorted(found, key=level.lex_key)


@pytest.mark.parametrize(
    "params", [(2, 1, 2), (3, 1, 2), (5, 1, 2), (2, 1, 12)], ids=["F4", "F9", "F25", "F4096"]
)
def test_roots_match_evaluation_scan(params):
    level = gm.build_tower(*params).top
    rng = random.Random(43)
    for trial in range(12):
        f = [rng.randrange(level.size) for _ in range(rng.randrange(1, 6))] + [1]
        # odd trials multiply in up to three random linear factors
        for _ in range(rng.randrange(4) if trial % 2 else 0):
            f = level.poly_mul(f, [level.neg(rng.randrange(level.size)), 1])
        f = level.poly_mul(f, [rng.randrange(1, level.size)])
        assert polyring._roots(level, f) == _roots_by_scan(level, f), f


@pytest.mark.parametrize(
    "level",
    [
        gm.build_tower(2, 1, 2).top,
        gm.build_tower(2, 1, 12).top,
        gm.quadratic_extension(gm.build_tower(2, 6, 2).top),
    ],
    ids=["F4", "F4096", "F4096^2"],
)
def test_roots_of_a_nonzero_constant(level):
    for c in (1, level.size - 1):
        assert roots(Poly(level, [c])) == []


# F_2, F_3, F_4, F_5, F_9 and F_16
FACTOR_LEVELS = [
    lambda: gm.build_tower(2, 1, 2).bottom,
    lambda: gm.build_tower(3, 1, 2).bottom,
    lambda: gm.build_tower(2, 1, 2).top,
    lambda: gm.build_tower(5, 1, 2).bottom,
    lambda: gm.build_tower(3, 1, 2).top,
    lambda: gm.build_tower(2, 1, 4).top,
]


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_factor_recovers_multiplicities_past_the_characteristic(data):
    # multiplicities p, p + 1, 2p and p**2 make the squarefree
    # decomposition take p-th roots
    level = data.draw(st.sampled_from(FACTOR_LEVELS), label="level")()
    p = level.p
    pool = [cs for k in (1, 2, 3) if level.size**k <= 64 for cs in monic_irreducibles(level, k)]
    picks = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3, unique=True))
    mults = (1, 2, p, p + 1, 2 * p, p * p)
    want = [(Poly(level, cs), data.draw(st.sampled_from(mults), label="multiplicity")) for cs in picks]
    f = Poly.one(level)
    for g, e in want:
        f = f * g**e
    lc, parts = factor(f)
    assert lc == 1
    assert parts == sorted(want, key=lambda t: (t[0].degree, t[0].lex_key()))
