import random

import pytest

import galois_moebius as gm
from galois_moebius.errors import (
    DivisionByZero,
    DomainError,
    LevelMismatch,
    ReducibleModulus,
)
from galois_moebius.gftower import (
    FieldElement,
    ext_level,
    first_irreducible,
    multiplicative_order,
    prime_level,
    quadratic_extension,
)


def test_default_moduli(t212, t312, t222):
    # lexicographically least irreducible choices
    assert t212.h == (1, 1, 1)       # v**2 + v + 1 over F_2
    assert t312.h == (1, 0, 1)       # v**2 + 1 over F_3
    assert t222.g == (1, 1, 1)
    assert t222.h == (2, 2, 1)       # x**2 + u*x + u over F_4, u = code 2


def test_tower_interning():
    assert gm.build_tower(2, 1, 2) is gm.build_tower(2, 1, 2)
    assert gm.build_tower(3, 1, 2) is not gm.build_tower(3, 1, 2, h=(2, 1, 1))


def test_lex_element_order(t212):
    # 0 < u < 1 < u+1 once flattened digits are compared high-first
    assert t212.top.elements_lex() == (0, 2, 1, 3)


def test_f4_arithmetic(t212):
    top = t212.top
    v = 2
    assert top.mul(v, v) == 3            # v**2 = v + 1
    assert top.pow(v, 3) == 1
    assert top.add(v, 3) == 1
    assert top.inv(v) == 3
    assert t212.frobenius(v) == 3


def test_char2_addition_is_xor(t214):
    top = t214.top
    for a in range(16):
        for b in range(16):
            assert top.add(a, b) == a ^ b


def test_f9_addition_is_digitwise(t312):
    top = t312.top
    # 5 encodes 2 + v; doubling gives 1 + 2v which encodes as 7
    assert top.add(5, 5) == 7
    assert top.neg(5) == top.mul(5, 2) % top.size or True
    assert top.add(5, top.neg(5)) == 0


def test_subfield_shares_codes(t222):
    mid, top = t222.mid, t222.top
    for a in range(4):
        for b in range(4):
            assert top.add(a, b) == mid.add(a, b)
            assert top.mul(a, b) == mid.mul(a, b)


def test_multiplicative_orders(t212, t214):
    assert multiplicative_order(t212.top, 2) == 3
    assert multiplicative_order(t214.top, 2, divisor_of=15) == 15
    with pytest.raises(DomainError):
        multiplicative_order(t212.top, 0)


def test_frobenius_fixed_field(t214):
    top = t214.top
    assert t214.subfield_degree(0) == 1
    assert t214.subfield_degree(1) == 1
    assert t214.subfield_degree(2) == 4
    # the cube roots of unity and 0, 1 make up the copy of F_4
    w = top.pow(2, 5)
    assert t214.subfield_degree(w) == 2
    count = sum(1 for a in range(16) if t214.subfield_degree(a) <= 2)
    assert count == 4


def test_frobenius_is_field_automorphism(t312):
    top = t312.top
    for a in range(9):
        for b in range(9):
            fa, fb = t312.frobenius(a), t312.frobenius(b)
            assert t312.frobenius(top.add(a, b)) == top.add(fa, fb)
            assert t312.frobenius(top.mul(a, b)) == top.mul(fa, fb)
    # q-th power map
    assert all(t312.frobenius(a) == top.pow(a, 3) for a in range(9))


def test_field_element_wrapper(t212):
    x = t212.element(2)
    y = t212.element(3)
    assert (x + y).val == 1
    assert (x * y).val == 1
    assert (x / y).val == t212.top.mul(2, t212.top.inv(3))
    assert (x**3).val == 1
    assert x.inv().val == 3
    assert x.frobenius().val == 3
    assert x.subfield_degree() == 2
    assert bool(x) and not bool(t212.element(0))
    with pytest.raises(AttributeError):
        x.val = 1


def test_level_mismatch(t212, t312):
    x = t212.element(2)
    z = t312.element(2)
    with pytest.raises(LevelMismatch):
        _ = x + z


def test_element_coeffs(t222):
    x = t222.element(9)  # digits (1, 2) over F_4
    c0, c1 = x.coeffs
    assert (c0.val, c1.val) == (1, 2)


def test_reducible_modulus_rejected():
    with pytest.raises(ReducibleModulus):
        gm.build_tower(2, 1, 2, h=(1, 0, 1))  # v**2 + 1 = (v+1)**2 over F_2


def test_first_irreducible_is_lex_min(t212):
    lvl = t212.top
    found = first_irreducible(lvl, 2)
    from galois_moebius import polyring

    best = None
    for f in polyring.monic_irreducibles(lvl, 2):
        key = tuple(lvl.lex_key(c) for c in f[:-1])
        if best is None or key < best[0]:
            best = (key, tuple(f))
    assert tuple(found) == best[1]


def test_quadratic_extension(t212):
    ext = quadratic_extension(t212.top)
    assert ext.size == 16
    assert quadratic_extension(t212.top) is ext
    for a in range(4):
        for b in range(4):
            assert ext.mul(a, b) == t212.top.mul(a, b)


def test_extension_embedding(t212):
    emb = t212.extension_embedding(3)
    big = emb.dst.top
    assert emb.dst.n == 6
    # ring homomorphism fixing 0 and 1
    assert emb.embed(0) == 0 and emb.embed(1) == 1
    for a in range(4):
        for b in range(4):
            assert emb.embed(t212.top.mul(a, b)) == big.mul(emb.embed(a), emb.embed(b))
            assert emb.embed(t212.top.add(a, b)) == big.add(emb.embed(a), emb.embed(b))
    assert len({emb.embed(a) for a in range(4)}) == 4


def test_describe(t222):
    d = t222.describe()
    assert d["q"] == 4 and d["n"] == 2
    assert d["top_modulus"] == "[0,1],[0,1],[1,0]"


def test_element_codes_validated(t212):
    with pytest.raises(DomainError):
        FieldElement(t212.top, 4)
    with pytest.raises(DomainError):
        t212.element(-1)


def test_prime_level_ops():
    f7 = prime_level(7)
    assert f7.add(5, 4) == 2
    assert f7.mul(5, 3) == 1
    assert f7.inv(3) == 5
    assert f7.pow(3, -1) == 5
    assert f7.neg(2) == 5
    with pytest.raises(DomainError):
        f7.inv(0)


def _trim(c):
    while c and not c[-1]:
        c.pop()
    return c


def _check_prime_level(level, p, pairs, exponents, rng):
    """Every scalar op on the given pairs and exponents, and short
    polynomial products and remainders, against plain ints mod p."""
    for a, b in pairs:
        assert level.add(a, b) == (a + b) % p
        assert level.sub(a, b) == (a - b) % p
        assert level.mul(a, b) == a * b % p
    for a in {a for pair in pairs for a in pair}:
        assert level.neg(a) == -a % p
        if a:
            assert level.inv(a) == pow(a, -1, p)
        for k in exponents:
            if a or k >= 0:
                assert level.pow(a, k) == pow(a, k, p)
            else:
                with pytest.raises(DivisionByZero):
                    level.pow(a, k)
    with pytest.raises(DivisionByZero):
        level.inv(0)
    for _ in range(30):
        f = [rng.randrange(p) for _ in range(rng.randrange(1, 9))]
        g = [rng.randrange(p) for _ in range(rng.randrange(1, 9))]
        prod = [0] * (len(f) + len(g) - 1)
        for i, a in enumerate(f):
            for j, b in enumerate(g):
                prod[i + j] = (prod[i + j] + a * b) % p
        assert level.poly_mul(f, g) == prod
        m = [rng.randrange(p) for _ in range(rng.randrange(1, 5))] + [1]
        dm = len(m) - 1
        r = list(prod)
        for i in range(len(r) - 1, dm - 1, -1):
            c = r[i]
            for j in range(dm + 1):
                r[i - dm + j] = (r[i - dm + j] - c * m[j]) % p
        assert level.poly_rem_monic(prod, m) == _trim(r[:dm])


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
def test_small_prime_level_matches_modular_ints(p):
    level = prime_level(p)
    # the shared set-up: exp/log tables and row kernels, as on any small level
    assert level._exp is not None and level._mul_rows is not None
    pairs = [(a, b) for a in range(p) for b in range(p)]
    _check_prime_level(level, p, pairs, range(-2 * p, 2 * p), random.Random(p))


def test_large_prime_level_matches_modular_ints():
    p = 65537
    level = prime_level(p)
    # above the exp/log and row caps: the generic product and power ladder
    assert level._exp is None and level._mul_rows is None
    rng = random.Random(p)
    pairs = [(rng.randrange(p), rng.randrange(p)) for _ in range(100)] + [(0, 1), (p - 1, p - 1)]
    exponents = [0, 1, 2, p - 2, p - 1, p, -1, -2, -(p - 2), rng.randrange(p**2), -rng.randrange(p**2)]
    _check_prime_level(level, p, pairs, exponents, rng)


def test_ext_level_requires_irreducible():
    f2 = prime_level(2)
    with pytest.raises(ReducibleModulus):
        ext_level(f2, (1, 0, 1))


def test_unknown_level_name_rejected(t212):
    with pytest.raises(DomainError):
        t212.element(1, "bogus")
    with pytest.raises(DomainError):
        t212.poly([1, 1], "bogus")
    assert t212.element(1, "mid").level is t212.mid
    assert t212.poly([1, 1], "bottom").level is t212.bottom


def test_level_of_another_tower_rejected(t212, t312):
    # an F_9 level used to be taken as is, so an F_4 tower built F_9 values
    with pytest.raises(LevelMismatch):
        t212.element(1, t312.top)
    with pytest.raises(LevelMismatch):
        t212.poly([1, 1], t312.top)


def test_multiplicative_order_rejects_zero_multiple(t212):
    with pytest.raises(DomainError):
        multiplicative_order(t212.top, 2, divisor_of=0)


@pytest.mark.parametrize("multiple", [3.0, "3"])
def test_multiplicative_order_rejects_non_int_multiple(t212, multiple):
    with pytest.raises(DomainError):
        multiplicative_order(t212.top, 2, divisor_of=multiple)


def _frob_reference(tower, a, i):
    """x -> x**(q**i) as the F_q-linear map on the digits of a whose basis
    images come from iterating the first Frobenius on the basis."""
    top, q, n = tower.top, tower.q, tower.n

    def linear(images, x):
        out = 0
        for img in images:
            x, c = divmod(x, q)
            out = top.add(out, top.mul(c, img))
        return out

    row = [q**j for j in range(n)]
    first = [top.pow(v, q) for v in row]
    for _ in range(i % n):
        row = [linear(first, v) for v in row]
    return linear(row, a)


@pytest.mark.parametrize(
    "params", [(2, 1, 4), (3, 1, 4), (2, 2, 3), (2, 1, 12)], ids=["F16", "F81", "F64/F4", "F4096"]
)
def test_frob_code_matches_q_linear_reference(params):
    tower = gm.build_tower(*params)
    codes = range(tower.size)
    if tower.size > 256:
        codes = random.Random(41).sample(codes, 200)
    for i in range(-1, tower.n + 1):
        for a in codes:
            assert tower._frob_code(a, i) == _frob_reference(tower, a, i), (a, i)


def _tuple_key(level, a):
    """Flattened base-p digits of a, constant digit first, level by level."""
    if level.base is None:
        return (a,)
    out = ()
    for c in level.decode(a):
        out += _tuple_key(level.base, c)
    return out


@pytest.mark.parametrize(
    "level",
    [
        gm.build_tower(2, 1, 2).top,
        gm.build_tower(3, 1, 2).top,
        gm.build_tower(2, 2, 2).top,
        gm.build_tower(3, 2, 2).top,
        quadratic_extension(gm.build_tower(2, 2, 2).top),
    ],
    ids=["F4", "F9", "F16/F4", "F81/F9", "F256/F16"],
)
def test_lex_key_orders_like_the_digit_tuple(level):
    codes = range(level.size)
    keys = [level.lex_key(a) for a in codes]
    assert len(set(keys)) == level.size
    assert sorted(codes, key=level.lex_key) == sorted(codes, key=lambda a: _tuple_key(level, a))
