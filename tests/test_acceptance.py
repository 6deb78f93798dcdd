"""Acceptance battery: one test per advertised guarantee.

Run with `pytest tests/test_acceptance.py -v` to get a one-line verdict
per criterion; each test also prints a `criterion NN: PASS` line with the
measured size and, where a budget applies, the elapsed time.
"""

import hashlib
import random
import subprocess
import sys
import time
from fractions import Fraction
from functools import lru_cache

import pytest

from galois_moebius.errors import DegreeTooSmall
from galois_moebius.gftower import build_tower
from galois_moebius.invariants import (
    asymptotic_report,
    census,
    enumerate_invariants,
    involution_ratio_check,
    is_invariant,
    plan_enumeration,
    scrim_count,
    scrim_count_divisor_sum,
)
from galois_moebius.pgammal import (
    Mat2,
    Semilinear,
    act_on_root,
    all_proj_classes,
    fixing_polynomial_twisted,
    moebius_act,
    proj_order,
    random_mat2,
    random_semilinear,
    reduce_frobenius_index,
)
from galois_moebius.polyring import (
    Poly,
    derivative,
    factor,
    frobenius_poly,
    gcd as poly_gcd,
    is_irreducible,
    iter_monic_irreducibles,
    reciprocal,
    roots,
)


def _report(num: int, detail: str) -> None:
    print(f"criterion {num:02d}: PASS ({detail})")


def _random_irreducible(level, degree: int, rng: random.Random) -> Poly:
    size = level.size
    while True:
        coeffs = [rng.randrange(size) for _ in range(degree)] + [1]
        if coeffs[0] and is_irreducible(Poly(level, coeffs)):
            return Poly(level, coeffs)


@lru_cache(maxsize=None)
def _f4_class_data():
    """Census of every projective class over F_4 at degrees 3..6,
    shared by the class-exhaustive criteria."""
    tower = build_tower(2, 1, 2)
    rows = []
    for A in all_proj_classes(tower):
        g = Semilinear(A, 1)
        report = census(g, [3, 4, 5, 6])
        by_degree = {entry.degree: entry.polynomials for entry in report.entries}
        rows.append((A, g, by_degree))
    return tower, tuple(rows)


def test_criterion_01_action_axioms():
    started = time.monotonic()
    triples = 0
    for p in (2, 3):
        tower = build_tower(p, 1, 2)
        rng = random.Random(101)
        e = Semilinear.identity(tower)
        for _ in range(500):
            g = random_semilinear(tower, rng)
            h = random_semilinear(tower, rng)
            f = _random_irreducible(tower.top, rng.choice((2, 3, 4)), rng)
            triples += 1
            # identity element acts trivially and composes neutrally
            assert e.act(f) == f
            assert g * e == g and e * g == g
            # action respects composition
            assert (g * h).act(f) == g.act(h.act(f))
            # image stays monic irreducible of the same degree
            image = g.act(f)
            assert image.degree == f.degree and image.is_monic
            assert is_irreducible(image)
            # plain matrix actions multiply the same way
            A, B = g.mat, h.mat
            assert moebius_act(B, moebius_act(A, f)) == moebius_act(A.mul(B), f)
    elapsed = time.monotonic() - started
    assert triples == 1000
    assert elapsed < 30.0
    _report(1, f"{triples} triples over GF(4) and GF(9), {elapsed:.1f}s")


def test_criterion_02_root_condition_and_target_factors():
    started = time.monotonic()
    tower, rows = _f4_class_data()
    assert len(rows) == 4**3 - 4  # one representative per projective class
    root_checked = factor_checked = 0
    for A, g, by_degree in rows:
        for k in (3, 4, 5):
            fixed = by_degree[k]
            if fixed:
                emb = tower.extension_embedding(k)
                big = emb.dst.top
                for f in fixed:
                    lifted = Poly(big, [emb.embed(c) for c in f.coeffs])
                    rset = set(roots(lifted))
                    assert len(rset) == k
                    # the element must permute the root set of its invariants
                    for alpha in rset:
                        assert act_on_root(g, alpha, emb) in rset
                    root_checked += 1
            try:
                plan = plan_enumeration(g, k)
            except DegreeTooSmall:
                continue
            if not plan.feasible:
                continue
            for j in plan.twists:
                target = fixing_polynomial_twisted(
                    plan.reduced.mat, j, j + plan.s, step=plan.frob_index
                )
                for piece, _mult in factor(target)[1]:
                    if piece.degree == k:
                        assert is_invariant(g, piece)
                        factor_checked += 1
    elapsed = time.monotonic() - started
    assert root_checked and factor_checked
    assert elapsed < 300.0
    _report(
        2,
        f"{len(rows)} classes, {root_checked} root orbits, "
        f"{factor_checked} target factors, {elapsed:.1f}s",
    )


def test_criterion_03_enumeration_equals_census():
    _, rows = _f4_class_data()
    compared = skipped = 0
    for _A, g, by_degree in rows:
        for k in (3, 5):
            try:
                fast = enumerate_invariants(g, k)
            except DegreeTooSmall:
                skipped += 1  # degree scale 1 sits below the enumeration
                continue
            assert set(fast) == set(by_degree[k])
            compared += 1

    t9 = build_tower(3, 1, 2)
    rng = random.Random(103)
    sampled = 0
    while sampled < 50:
        g = Semilinear(random_mat2(t9, rng), 1)
        try:
            fast = enumerate_invariants(g, 3)
        except DegreeTooSmall:
            continue
        scan = census(g, [3]).entries[0].polynomials
        assert set(fast) == set(scan)
        sampled += 1
    assert compared >= 60
    _report(3, f"{compared} class/degree pairs over GF(4) ({skipped} below "
               f"reach), 50 sampled matrices over GF(9)")


def test_criterion_04_scrim_counts():
    towers = {
        2: build_tower(2, 1, 2),
        3: build_tower(3, 1, 2),
        4: build_tower(2, 2, 2),
        5: build_tower(5, 1, 2),
    }
    scanned = 0
    for q in (2, 3, 4, 5):
        for n in (3, 5):
            want = scrim_count(q, n)
            assert want == scrim_count_divisor_sum(q, n)
            if q ** (2 * n) <= 1 << 20:
                top = towers[q].top
                brute = sum(
                    1
                    for f in iter_monic_irreducibles(top, n)
                    if reciprocal(f) == frobenius_poly(f, 1)
                )
                assert brute == want
                scanned += 1
    assert scrim_count(2, 3) == 2
    assert scrim_count(2, 5) == 6
    _report(4, f"8 (q, n) pairs, {scanned} brute-force scans")


def test_criterion_05_reciprocal_count_doubling():
    for q in (2, 3):
        tower = build_tower(q, 1, 2)
        for n in (3, 5):
            conj = sum(
                1
                for f in iter_monic_irreducibles(tower.top, n)
                if reciprocal(f) == frobenius_poly(f, 1)
            )
            plain = sum(
                1
                for f in iter_monic_irreducibles(tower.mid, 2 * n)
                if reciprocal(f) == f
            )
            assert conj == 2 * plain
    _report(5, "a(n) = 2*b(n) at q in {2,3}, n in {3,5}, both sides scanned")


def test_criterion_06_involution_ratio():
    for q in (2, 3):
        tower = build_tower(q, 1, 2)
        B = Mat2(tower, 0, 1, 1, 0)
        for m in (3, 5):
            res = involution_ratio_check(tower, B, m)
            assert res.ratio_holds
            assert res.twisted_count == 2 * res.classical_count
    _report(6, "2:1 ratio at q in {2,3}, m in {3,5}")


def test_criterion_07_degree_shape_law():
    tower, rows = _f4_class_data()
    confirmed = 0
    for A, g, by_degree in rows:
        reduced = reduce_frobenius_index(g)
        span = tower.n // reduced.frob
        D = proj_order((reduced**span).mat)
        for k in (3, 4, 5, 6):
            # invariant degrees factor as D*s with s odd; anything else
            # must census to zero
            if k % D or (k // D) % 2 == 0:
                assert not by_degree[k], (A.to_text(), k)
                confirmed += 1
    assert confirmed
    _report(7, f"{confirmed} off-shape (class, degree) cells all empty")


def test_criterion_08_fixing_polynomials_separable():
    checked = 0
    for p in (2, 3):
        tower = build_tower(p, 1, 2)
        rng = random.Random(108)
        for _ in range(250):
            A = random_mat2(tower, rng)
            m = rng.randrange(1, 5)
            i = rng.randrange(0, m + 1)
            F = fixing_polynomial_twisted(A, i, m + i)
            g = poly_gcd(F, derivative(F))
            assert g.degree == 0
            checked += 1
    assert checked == 500
    _report(8, "500 random fixing polynomials over GF(4) and GF(9) squarefree")


def test_criterion_09_asymptotic_trend():
    started = time.monotonic()
    tower = build_tower(2, 1, 2)
    g = Semilinear(Mat2(tower, 0, 1, 1, 0), 1)
    points = asymptotic_report(g, (3, 5, 7, 9))
    assert [pt.count for pt in points] == [2, 6, 18, 56]
    ratios = [pt.ratio_exact for pt in points]
    assert ratios == [
        Fraction(3, 4),
        Fraction(15, 16),
        Fraction(63, 64),
        Fraction(63, 64),
    ]
    assert all(a <= b for a, b in zip(ratios, ratios[1:]))
    elapsed = time.monotonic() - started
    assert elapsed < 60.0
    _report(9, f"counts {[pt.count for pt in points]}, {elapsed:.1f}s")


def test_criterion_10_index_reduction_preserves_invariants():
    started = time.monotonic()
    tower = build_tower(2, 1, 4)
    rng = random.Random(110)
    for _ in range(10):
        g = Semilinear(random_mat2(tower, rng), 2)
        reduced = reduce_frobenius_index(g)
        assert reduced.frob == 2
        direct = census(g, [3]).entries[0].polynomials
        via_reduced = census(reduced, [3]).entries[0].polynomials
        assert set(direct) == set(via_reduced)
    elapsed = time.monotonic() - started
    assert elapsed < 300.0
    _report(10, f"10 sampled matrices over GF(16), {elapsed:.1f}s")


# SHA-256 of `verify --suite all --seed 0 --output json`; a change that
# alters any reported figure or the report's layout must update it
VERIFY_ALL_SHA256 = "7d7ff1950ba4973bd259f69e425a51073c9fff84ed19625bdfd3239003962b07"


def test_criterion_11_verify_output_deterministic():
    cmd = [
        sys.executable,
        "-m",
        "galois_moebius.cli",
        "verify",
        "--suite",
        "all",
        "--seed",
        "0",
        "--output",
        "json",
    ]
    first = subprocess.run(cmd, capture_output=True, timeout=600)
    second = subprocess.run(cmd, capture_output=True, timeout=600)
    assert first.returncode == 0, first.stderr.decode()
    assert second.returncode == 0, second.stderr.decode()
    assert first.stdout
    assert first.stdout == second.stdout
    assert hashlib.sha256(first.stdout).hexdigest() == VERIFY_ALL_SHA256
    _report(11, f"two runs, {len(first.stdout)} identical bytes, pinned digest")
