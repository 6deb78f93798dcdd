"""The per-level polynomial kernels against a schoolbook oracle.

Each level installs its own poly_mul and poly_rem_monic (row tables in
characteristic 2, row tables plus addition rows for odd p, plain scalar
calls above the row cap).  The oracle below uses only the level's scalar
add, mul and sub, so it is independent of which kernel a level carries.
"""

import pytest
from hypothesis import given, settings, strategies as st

import galois_moebius as gm

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
