"""The polynomial kernels against a schoolbook oracle.

Each level installs its own poly_mul and one long division loop (row
tables in characteristic 2, row tables plus addition rows for odd p, plain
scalar calls above the row cap); the shared poly_rem_monic and
poly_divmod_monic wrap that loop, handing it the modulus' nonzero terms
only, and polyring's exact divisions and Poly.__divmod__ run on
poly_divmod_monic.  Products modulo a long modulus go through polyring's
packed kernel instead (Kronecker multiply, Barrett remainder).  The
Q-power map modulo a sparse fixing polynomial (polyring._frobenius_map)
is checked against the packed powering, and so is the map every
Frobenius ladder takes (polyring._qpow) on either side of the packing
cut-over.
The oracle below uses only the level's scalar add, mul and sub, so it is
independent of which kernel a level carries.
"""

import itertools
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

import galois_moebius as gm
from galois_moebius import gftower, polyring
from galois_moebius.polyring import Poly, factor, monic_irreducibles, powmod
from galois_moebius.textio import format_element, format_poly

LEVELS = {
    "F4": (lambda: gm.build_tower(2, 1, 2).top, "char2-rows"),
    "F16": (lambda: gm.build_tower(2, 1, 4).top, "char2-rows"),
    "F3": (lambda: gm.build_tower(3, 1, 2).bottom, "odd-rows"),
    "F9": (lambda: gm.build_tower(3, 1, 2).top, "odd-rows"),
    "F25": (lambda: gm.build_tower(5, 1, 2).top, "odd-rows"),
    "F4096": (lambda: gm.build_tower(2, 6, 2).top, "generic"),
}


def _kind(level):
    if level._mul_rows is None:
        return "generic"
    return "char2-rows" if level.p == 2 else "odd-rows"


def _trim(c):
    while c and not c[-1]:
        c.pop()
    return c


def school_mul(level, f, g):
    res = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            res[i + j] = level.add(res[i + j], level.mul(a, b))
    return res


def school_rem_monic(level, f, m):
    dm = len(m) - 1
    r = _trim(list(f))
    for i in range(len(r) - 1, dm - 1, -1):
        c = r[i]
        for j in range(dm + 1):
            r[i - dm + j] = level.sub(r[i - dm + j], level.mul(c, m[j]))
    return _trim(r[:dm])


def _coeffs(level, min_size=1, max_size=40):
    return st.lists(st.integers(0, level.size - 1), min_size=min_size, max_size=max_size)


@pytest.fixture(scope="module", params=sorted(LEVELS))
def level(request):
    build, kind = LEVELS[request.param]
    lvl = build()
    assert _kind(lvl) == kind
    return lvl


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_poly_mul_matches_schoolbook(level, data):
    f = data.draw(_coeffs(level), label="f")
    g = data.draw(_coeffs(level), label="g")
    assert level.poly_mul(list(f), list(g)) == school_mul(level, f, g)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_poly_rem_monic_matches_schoolbook(level, data):
    body = data.draw(_coeffs(level, 0, 39), label="modulus body")
    m = [*body, 1]
    f = data.draw(_coeffs(level), label="dividend")
    pad = data.draw(st.integers(0, 3), label="zero padding")
    f = [*f, *([0] * pad)]
    assert level.poly_rem_monic(list(f), m) == school_rem_monic(level, f, m)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_poly_divmod_monic_matches_schoolbook(level, data):
    body = data.draw(_coeffs(level, 0, 39), label="modulus body")
    m = [*body, 1]
    f = data.draw(_coeffs(level, 0, 60), label="dividend")
    pad = data.draw(st.integers(0, 3), label="zero padding")
    f = [*f, *([0] * pad)]
    q, r = level.poly_divmod_monic(list(f), m)
    assert r == school_rem_monic(level, f, m)
    assert len(r) < len(m) and q == _trim(list(q))
    prod = school_mul(level, q, m) if q else []
    total = [level.add(a, b) for a, b in itertools.zip_longest(prod, r, fillvalue=0)]
    assert _trim(total) == _trim(list(f))


@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_poly_divmod_with_a_non_monic_divisor(level, data):
    lead = data.draw(st.integers(2, level.size - 1), label="leading coefficient")
    g = Poly(level, [*data.draw(_coeffs(level, 0, 12), label="divisor body"), lead])
    f = Poly(level, data.draw(_coeffs(level, 0, 40), label="dividend"))
    q, r = divmod(f, g)
    assert q * g + r == f
    assert r.degree < g.degree
    assert (f // g, f % g) == (q, r)


def test_division_by_a_modulus_changed_in_place(level):
    # the kernel keeps the last modulus' nonzero terms for its next call;
    # the same list with other coefficients must not reuse them
    rng = random.Random(level.size)
    m = [rng.randrange(1, level.size) for _ in range(6)] + [1]
    f = [rng.randrange(level.size) for _ in range(20)]
    for j in (0, 3, 5):
        assert level.poly_rem_monic(list(f), m) == school_rem_monic(level, f, m)
        m[j] = 0
        assert level.poly_divmod_monic(list(f), m)[1] == school_rem_monic(level, f, m)


@pytest.mark.parametrize("tower", [(3, 1, 2), (5, 1, 2), (3, 1, 6), (7, 1, 3)])
def test_row_level_negation_table(tower):
    # odd-p row levels negate by table; every code must cancel its image
    level = gm.build_tower(*tower).top
    assert level._add_rows is not None
    assert all(level.add(a, level.neg(a)) == 0 for a in range(level.size))


def school_rem_sparse(level, f, m):
    """school_rem_monic, skipping the modulus' zero terms (c * 0 = 0)."""
    dm = len(m) - 1
    r = _trim(list(f))
    for i in range(len(r) - 1, dm - 1, -1):
        c = r[i]
        for j in range(dm + 1):
            if m[j]:
                r[i - dm + j] = level.sub(r[i - dm + j], level.mul(c, m[j]))
    return _trim(r[:dm])


@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_division_by_a_sparse_modulus_matches_schoolbook(level, data):
    # a fixing polynomial's shape: x**dm plus two or three lower terms,
    # by default at x**(dm-1), x and 1, and a dividend of p * dm
    # coefficients, as in one round of the Frobenius map
    dm = data.draw(st.integers(64, 600), label="modulus degree")
    spots = data.draw(
        st.one_of(st.just([dm - 1, 1, 0]), st.sets(st.integers(0, dm - 1), min_size=2, max_size=3)),
        label="term positions",
    )
    m = [0] * dm + [1]
    for j in spots:
        m[j] = data.draw(st.integers(1, level.size - 1), label=f"coefficient {j}")
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1), label="dividend seed"))
    f = [rng.randrange(level.size) for _ in range(level.p * dm)]
    want = school_rem_sparse(level, f, m)
    assert level.poly_rem_monic(list(f), m) == want
    q, r = level.poly_divmod_monic(list(f), m)
    assert r == want
    prod = level.poly_mul(q, m)
    total = [level.add(a, b) for a, b in itertools.zip_longest(prod, r, fillvalue=0)]
    assert _trim(total) == _trim(list(f))


# (tower, E): Frobenius maps modulo x**(E+1) + a*x**E + d*x + b, one with
# Q = 4096 far above E, where a spread by Q would hold 2**15 coefficients
FROBENIUS_POINTS = [((2, 1, 2), 64), ((2, 2, 2), 64), ((3, 1, 2), 81), ((5, 1, 2), 125),
                    ((2, 1, 3), 200), ((2, 1, 12), 8)]


@pytest.mark.parametrize("tower, E", FROBENIUS_POINTS)
def test_frobenius_map_matches_powmod(tower, E):
    level = gm.build_tower(*tower).top
    Q = level.size
    rng = random.Random(E)
    for _ in range(3):
        F = [0] * (E + 2)
        F[E + 1] = 1
        for j in (E, 1, 0):
            F[j] = rng.randrange(1, Q)
        qpow = polyring._frobenius_map(level, F)
        h = [rng.randrange(Q) for _ in range(E + 1)]
        for _ in range(2):
            want = polyring._powmod(level, h, Q, F)
            h = qpow(h)
            assert h == want


@pytest.mark.parametrize("length", [polyring._PACK_CUTOVER, polyring._PACK_CUTOVER + 2])
def test_qpow_matches_powmod(level, length):
    # below the cut-over, and on levels that do not pack, the spreads;
    # above it on a packing level, packed powering
    rng = random.Random(length * level.size)
    Q = level.size
    for _ in range(3):
        m = [rng.randrange(Q) for _ in range(length - 1)] + [1]
        qpow = polyring._qpow(level, m)
        h = [rng.randrange(Q) for _ in range(length - 1)]
        for _ in range(2):
            want = polyring._powmod(level, h, Q, m)
            h = qpow(h)
            assert h == want


def test_roots_of_a_non_monic_polynomial(level):
    # _roots makes f monic before the ladder; the scan evaluates f itself
    rng = random.Random(level.size + 1)
    Q = level.size
    for _ in range(3):
        f = Poly(level, [rng.randrange(Q) for _ in range(4)] + [rng.randrange(2, Q)])
        for a in rng.sample(range(Q), 3):
            f = f * Poly(level, [level.neg(a), 1])
        want = sorted((a for a in range(Q) if not f(a)), key=level.lex_key)
        assert f.coeffs[-1] != 1
        assert polyring.roots(f) == want


def test_element_token_table(level):
    # a row level formats a polynomial through one table of every code's
    # token; a larger level formats each coefficient
    codes = list(range(level.size))
    want = [format_element(level, a) for a in codes]
    assert format_poly(level, codes) == ",".join(want)
    assert level._tokens == (want if level.size <= gftower._ROW_CAP else None)


# --- the packed kernel --------------------------------------------------

# one storey over F_p (F_4, F_8, F_64, F_25, F_81) and two (F_16 =
# (2,2,2)); F_64 and F_81 have the largest tables under the cap
PACKED_LEVELS = {
    "F4": lambda: gm.build_tower(2, 1, 2).top,
    "F8": lambda: gm.build_tower(2, 1, 3).top,
    "F64": lambda: gm.build_tower(2, 1, 6).top,
    "F25": lambda: gm.build_tower(5, 1, 2).top,
    "F81": lambda: gm.build_tower(3, 1, 4).top,
    "F16-nested": lambda: gm.build_tower(2, 2, 2).top,
}


@pytest.fixture(scope="module", params=sorted(PACKED_LEVELS))
def packed_level(request):
    lvl = PACKED_LEVELS[request.param]()
    assert polyring._packing(lvl) is not None
    return lvl


def _context(level, data, max_degree=300):
    n = data.draw(st.integers(1, max_degree), label="modulus degree")
    m = [*data.draw(_coeffs(level, n, n), label="modulus body"), 1]
    ctx = polyring._barrett(level, m)
    assert ctx is not None
    return ctx, m


def _exact(level, data, most, label):
    """At most `most` coefficients with their length drawn uniformly, then
    zero padding within the same length."""
    k = data.draw(st.integers(0, most), label=f"{label} length")
    pad = data.draw(st.integers(0, min(3, k)), label=f"{label} zero padding")
    return [*data.draw(_coeffs(level, k - pad, k - pad), label=label), *([0] * pad)]


@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_packed_mulmod_matches_schoolbook(packed_level, data):
    level = packed_level
    ctx, m = _context(level, data)
    n = len(m) - 1
    # operands of at most n coefficients, zero padding included, so both
    # the plain packed product (short operands) and the remainder run
    f = _exact(level, data, n, "f")
    g = f if data.draw(st.booleans(), label="square") else _exact(level, data, n, "g")
    want = school_rem_monic(level, school_mul(level, f, g), m) if f and g else []
    assert ctx.mulmod(f, g) == want


@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_barrett_remainder_matches_schoolbook(packed_level, data):
    level = packed_level
    ctx, m = _context(level, data)
    n = len(m) - 1
    f = _exact(level, data, 2 * n, "dividend")
    assert ctx.reduce(ctx._pack(f), len(f)) == school_rem_monic(level, f, m)


def _squarefree_product(level, rng):
    """Distinct monic irreducibles of small degree multiplied up to a
    degree past the packed cut-over."""
    pool = [cs for k in (1, 2, 3) if level.size**k <= 1024 for cs in monic_irreducibles(level, k)]
    rng.shuffle(pool)
    f = [1]
    for cs in pool:
        f = level.poly_mul(f, list(cs))
        if len(f) > polyring._PACK_CUTOVER + 1:
            return f
    raise AssertionError("pool too small")


@settings(max_examples=6, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_packed_route_matches_schoolbook_route(packed_level, seed):
    level = packed_level
    rng = random.Random(seed)
    f = Poly(level, _squarefree_product(level, rng))
    h = Poly(level, [rng.randrange(level.size) for _ in range(f.degree)])
    e = rng.randrange(2, 10**6)
    packed = (powmod(h, e, f), factor(f))
    assert polyring._barrett(level, list(f.coeffs)) is not None
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(polyring, "_PACK_CUTOVER", 10**9)
        school = (powmod(h, e, f), factor(f))
    assert packed == school
    lc, parts = packed[1]
    assert lc == 1 and all(mult == 1 for _, mult in parts)
    prod = Poly.one(level)
    for part, _ in parts:
        prod = prod * part
    assert prod == f


def test_packing_tables_are_lazy():
    # a fresh interpreter: levels are interned, so this process holds the
    # tables that earlier tests built
    code = (
        "import galois_moebius as gm\n"
        "from galois_moebius import gftower\n"
        "t = gm.build_tower(2, 1, 2)\n"
        "gm.census(gm.Semilinear(gm.Mat2(t, 0, 1, 1, 0), 1), [3, 4])\n"
        "levels = [*gftower._PRIME_LEVELS.values(), *gftower._EXT_LEVELS.values()]\n"
        "built = [lv for lv in levels if lv._packing is not None or lv._barrett is not None]\n"
        "print(len(levels), len(built))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    n_levels, n_packed = map(int, out.stdout.split())
    assert n_levels >= 3 and n_packed == 0


# blocks of 23, 3 * 11 and 3 * 3 slots: 2**23, 2**33 and 3**9 > cap
@pytest.mark.parametrize("tower", [(2, 1, 12), (2, 2, 6), (3, 2, 2)])
def test_level_over_table_cap_factors(tower):
    level = gm.build_tower(*tower).top
    assert polyring._packing(level) is None
    rng = random.Random(7)
    roots = rng.sample(range(level.size), polyring._PACK_CUTOVER + 2)
    linear = [Poly(level, [level.neg(a), 1]) for a in roots]
    f = Poly.one(level)
    for g in linear:
        f = f * g
    lc, parts = factor(f)
    assert lc == 1
    assert parts == [(g, 1) for g in sorted(linear)]
