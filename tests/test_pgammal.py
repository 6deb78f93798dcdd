import random

import pytest

import galois_moebius as gm
from galois_moebius.errors import (
    DegreeTooLarge,
    DomainError,
    SingularMatrix,
    ZeroDenominator,
)
from galois_moebius.pgammal import (
    Mat2,
    Semilinear,
    act_on_root,
    all_proj_classes,
    fixing_polynomial,
    fixing_polynomial_twisted,
    moebius_act,
    proj_order,
    proj_order_bruteforce,
    random_mat2,
    random_semilinear,
    reduce_frobenius_index,
    semilinear_act,
    semilinear_order,
    semilinear_order_bruteforce,
    twisted_product,
)
from galois_moebius.polyring import Poly, frobenius_poly, is_irreducible
from galois_moebius import polyring


def test_mat2_basics(t212):
    A = Mat2(t212, 1, 2, 3, 2)
    assert A.entries == (1, 2, 3, 2)
    assert A.det() == t212.top.sub(2, t212.top.mul(2, 3))
    assert A.trace() == 3
    with pytest.raises(SingularMatrix):
        Mat2(t212, 1, 1, 1, 1)
    with pytest.raises(SingularMatrix):
        Mat2(t212, 1, 2, 3, 1)  # 2 * 3 = 1 in F_4


def test_mat2_mul_inv(t212):
    rng = random.Random(1)
    I = Mat2.identity(t212)
    for _ in range(20):
        A = random_mat2(t212, rng)
        B = random_mat2(t212, rng)
        C = random_mat2(t212, rng)
        assert A.mul(A.inv()) == I
        assert A.mul(B).mul(C) == A.mul(B.mul(C))
        assert (A @ B).entries == A.mul(B).entries


def test_mat2_trivial_frobenius_is_self(t214):
    m = random_mat2(t214, random.Random(5))
    n = t214.n
    assert m.frobenius(n) is m
    assert m.frobenius(2 * n) is m
    assert m.frobenius(1) == Mat2(t214, *(t214.frobenius(x, 1) for x in m.entries))


def test_mat2_parse_entries(t212):
    A = Mat2.parse(t212, "[0,1];[1,0];[0,0];[1,1]")
    assert A.entries == (2, 1, 0, 3)
    B = Mat2(t212, "[0,1]", 1, 0, "[1,1]")
    assert B.entries == (2, 1, 0, 3)


def test_projective_helpers(t212):
    A = Mat2(t212, 2, 0, 0, 2)
    assert A.is_scalar()
    assert A.proj_eq(Mat2.identity(t212))
    B = Mat2(t212, 0, 1, 1, 0)
    assert B.is_involution()
    assert not Mat2.identity(t212).is_involution()
    assert B.normalized().entries[0] == 0 and B.normalized().entries[1] == 1
    assert B.scaled(3).proj_eq(B)


def test_all_proj_classes(t212):
    classes = list(all_proj_classes(t212))
    assert len(classes) == 4**3 - 4
    for i, A in enumerate(classes):
        assert A.normalized() == A
    seen = {A.entries for A in classes}
    assert len(seen) == len(classes)


def test_moebius_act_translation():
    t = gm.build_tower(2, 1, 2)
    f2_cubic = t.poly([1, 1, 0, 1])  # x**3 + x + 1 over the prime field codes
    A = Mat2(t, 1, 1, 0, 1)          # x -> x + 1
    img = moebius_act(A, f2_cubic)
    assert img == t.poly([1, 0, 1, 1])  # x**3 + x**2 + 1
    assert moebius_act(A, img) == f2_cubic


def test_moebius_act_scaling_invariance(t312):
    rng = random.Random(5)
    f = Poly(t312.top, [2, 0, 0, 1])
    for _ in range(10):
        A = random_mat2(t312, rng)
        s = rng.randrange(1, 9)
        assert moebius_act(A, f, strict=False) == moebius_act(A.scaled(s), f, strict=False)


def test_moebius_act_composition(t212):
    rng = random.Random(9)
    for _ in range(15):
        A = random_mat2(t212, rng)
        B = random_mat2(t212, rng)
        coeffs = [rng.randrange(4) for _ in range(4)] + [1]
        f = Poly(t212.top, coeffs)
        mid = moebius_act(A, f, strict=False)
        if mid is None:
            continue
        lhs = moebius_act(B, mid, strict=False)
        rhs = moebius_act(A.mul(B), f, strict=False)
        if lhs is None or rhs is None:
            continue
        assert lhs == rhs


def test_moebius_act_degree_collapse(t212):
    # a = 3, c = 1 sends the root 3 of f to infinity
    A = Mat2(t212, 3, 1, 1, 0)
    f = Poly(t212.top, [3, 1])
    with pytest.raises(DomainError):
        moebius_act(A, f)
    assert moebius_act(A, f, strict=False) is None


def test_semilinear_group_axioms(t214):
    rng = random.Random(11)
    e = Semilinear.identity(t214)
    for _ in range(20):
        g = random_semilinear(t214, rng)
        h = random_semilinear(t214, rng)
        k = random_semilinear(t214, rng)
        assert (g * h) * k == g * (h * k)
        assert (g * e).proj_eq(g) and (e * g).proj_eq(g)
        assert (g * g.inverse()).is_projective_identity()
        assert (g.inverse() * g).is_projective_identity()


def test_action_is_left_action(t214):
    rng = random.Random(13)
    for _ in range(12):
        g = random_semilinear(t214, rng)
        h = random_semilinear(t214, rng)
        while True:
            coeffs = [rng.randrange(16) for _ in range(3)] + [1]
            f = Poly(t214.top, coeffs)
            try:
                if h.act(f) is not None:
                    break
            except DomainError:
                continue
        try:
            lhs = (g * h).act(f)
        except DomainError:
            continue
        assert lhs == g.act(h.act(f))


def test_power_matches_twisted_product(t214):
    rng = random.Random(17)
    for _ in range(10):
        A = random_mat2(t214, rng)
        step = rng.randrange(1, 5)
        g = Semilinear(A, step)
        for count in range(5):
            assert (g**count).mat.proj_eq(twisted_product(A, count, step=step))


def test_proj_order_cases(t212):
    assert proj_order(Mat2.identity(t212)) == 1
    assert proj_order(Mat2(t212, 0, 1, 1, 0)) == 2
    assert proj_order(Mat2(t212, 1, 1, 0, 1)) == 2
    assert proj_order(Mat2(t212, 0, 1, 1, 1)) == 3
    assert proj_order(Mat2(t212, 2, 0, 0, 1)) == 3


def test_proj_order_matches_bruteforce(t312, t214):
    rng = random.Random(23)
    for tower in (t312, t214):
        for _ in range(25):
            A = random_mat2(tower, rng)
            assert proj_order(A) == proj_order_bruteforce(A)


def test_semilinear_order_matches_bruteforce(t212, t214):
    rng = random.Random(29)
    for tower in (t212, t214):
        for _ in range(20):
            g = random_semilinear(tower, rng)
            assert semilinear_order(g) == semilinear_order_bruteforce(g)
            assert (g ** g.order()).is_projective_identity()


def test_reduce_frobenius_index(t214):
    rng = random.Random(31)
    for _ in range(15):
        g = random_semilinear(t214, rng)
        red = reduce_frobenius_index(g)
        from math import gcd

        assert red.frob == gcd(g.frob, t214.n)
        # powers of g: same group, same fixed polynomials
        for coeffs in ([1, 1, 0, 1], [2, 0, 1, 1], [3, 1, 1, 0, 1]):
            f = Poly(t214.top, coeffs)
            try:
                same = (g.act(f) == f) == (red.act(f) == f)
            except DomainError:
                continue
            if g.act(f) == f:
                assert red.act(f) == f


def test_fixing_polynomial_roots(t212):
    # roots alpha obey mat . alpha**(q**m) = alpha in the splitting field
    rng = random.Random(37)
    emb = t212.extension_embedding(3)
    big = emb.dst.top
    for _ in range(6):
        A = random_mat2(t212, rng)
        F = fixing_polynomial(A, 2)  # degree 17 over F_4, splits by degree 6
        coeffs = [emb.embed(c) for c in F.coeffs]
        a, b, c, d = (emb.embed(x) for x in A.entries)
        for alpha in polyring._roots(emb.dst.top, coeffs):
            beta = big.pow(alpha, 2**2)
            num = big.add(big.mul(a, beta), b)
            den = big.add(big.mul(c, beta), d)
            if not den:
                continue
            assert big.mul(num, big.inv(den)) == alpha


def test_fixing_polynomial_cap(t212):
    A = Mat2(t212, 0, 1, 1, 0)
    with pytest.raises(DegreeTooLarge):
        fixing_polynomial(A, 20, cap=1 << 14)
    assert fixing_polynomial(A, 1).degree == 2 + 1


def test_fixing_polynomial_twisted_relation(t212):
    # target roots: sigma^(step*i)(alpha) = beta satisfies B . beta**E = beta
    A = Mat2(t212, 3, 0, 2, 2)
    g = Semilinear(A, 1)
    tw = fixing_polynomial_twisted(A, 1, 4, step=1)
    B = twisted_product(A, 1, step=1)
    F = fixing_polynomial(B, 3, step=1)
    assert tw == frobenius_poly(F, 1)


def test_act_on_root_tracks_action(t212):
    rng = random.Random(41)
    emb = t212.extension_embedding(3)
    big = emb.dst.top
    for _ in range(8):
        g = random_semilinear(t212, rng)
        while True:
            coeffs = [rng.randrange(4) for _ in range(3)] + [1]
            f = Poly(t212.top, coeffs)
            if is_irreducible(f):
                break
        try:
            img = g.act(f)
        except DomainError:
            continue
        fe = [emb.embed(c) for c in f.coeffs]
        ge = [emb.embed(c) for c in img.coeffs]
        for alpha in polyring._roots(big, fe):
            try:
                beta = act_on_root(g, alpha, emb)
            except ZeroDenominator:
                continue
            val = 0
            for c in reversed(ge):
                val = big.add(big.mul(val, beta), c)
            assert val == 0


def test_semilinear_act_equals_parts(t212):
    g = Semilinear(Mat2(t212, 0, 1, 1, 0), 1)
    f = Poly(t212.top, [2, 1, 1])
    assert semilinear_act(g, f) == moebius_act(g.mat, frobenius_poly(f, 1))


@pytest.mark.parametrize(
    "params, classes",
    [((2, 1, 2), 60), ((2, 1, 3), 504), ((3, 1, 2), 720), ((2, 1, 4), 4080)],
    ids=["F4", "F8", "F9", "F16"],
)
def test_proj_order_matches_bruteforce_on_every_class(params, classes):
    mats = list(all_proj_classes(gm.build_tower(*params)))
    assert len(mats) == classes
    for A in mats:
        assert proj_order(A) == proj_order_bruteforce(A), A


@pytest.mark.parametrize("params", [(5, 1, 2), (3, 1, 4), (2, 1, 12)], ids=["F25", "F81", "F4096"])
def test_proj_order_matches_bruteforce_on_larger_fields(params):
    tower = gm.build_tower(*params)
    rng = random.Random(31)
    mats = [Mat2(tower, 1, 1, 0, 1)] + [random_mat2(tower, rng) for _ in range(12)]
    for A in mats:
        assert proj_order(A) == proj_order_bruteforce(A), A
