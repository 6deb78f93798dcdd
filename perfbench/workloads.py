"""The three workloads: fixed op sequences whose inputs come from a seed.

Each builder runs the workload's set-up (building every tower it uses and
drawing its inputs) and returns the ops in order.  An op is a zero-argument
callable that is timed, plus a check that runs after the whole timed phase,
so checking never warms a cache that a later op would find.

Matrices are drawn with the benchmark's own ``random.Random(seed)``;
singular draws are rejected through ``SingularMatrix``.  Every general
element is the conjugate h g0 h^-1 of a fixed representative g0, so the
seed moves the inputs but not the shape of the work: the projective order
D, the fixing-polynomial degrees E and the fixed counts are the same for
every seed.  ``census`` and ``enumerate_invariants`` are called without
``threads``, ``cap`` or ``budget``.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from math import gcd
from typing import Any, Callable

import checks
from galois_moebius import (
    Mat2,
    Poly,
    Semilinear,
    SingularMatrix,
    build_tower,
    census,
    cli,
    enumerate_invariants,
    is_irreducible,
)
from galois_moebius.textio import format_poly, parse_poly
from galois_moebius.verify import SUITES


@dataclass
class Op:
    name: str
    run: Callable[[], Any]
    # check(result, results of earlier ops by name) -> problems
    check: Callable[[Any, dict], list]


def random_mat(tower, rng) -> Mat2:
    Q = tower.top.size
    while True:
        try:
            return Mat2(tower, *(rng.randrange(Q) for _ in range(4)))
        except SingularMatrix:
            continue


def random_element(tower, rng) -> Semilinear:
    return Semilinear(random_mat(tower, rng), rng.randrange(1, tower.n + 1))


def conjugate(h: Semilinear, g: Semilinear) -> Semilinear:
    return h * g * h.inverse()


def general_conjugate(tower, rng, g: Semilinear) -> tuple[Semilinear, Semilinear]:
    """A random h such that h g h^-1 is not a pure Frobenius power and has
    as few zero matrix entries as twenty draws of h can give.  A scalar
    matrix would send the enumeration to its listing branch (every element
    of order-1 twisted norm is conjugate to sigma), and a zero entry
    shortens the action's substitution; either would make the cost of an op
    depend on the seed.  Some classes over F_4 have a zero in every
    conjugate, hence the fewest rather than none."""
    best = None
    tries = 0
    while best is None or (best[0] and tries < 20):
        tries += 1
        h = random_element(tower, rng)
        g1 = conjugate(h, g)
        if g1.mat.is_scalar():
            continue
        zeros = g1.mat.entries.count(0)
        if best is None or zeros < best[0]:
            best = (zeros, h, g1)
    return best[1], best[2]


def spread_in_time(ops: list[Op]) -> list[Op]:
    """The ops in a stride order (stride near 0.38 n, coprime to n), so the
    members of each cost group are spread over the whole round.  The
    machine's speed drifts within seconds; a group run back to back would
    put the median or the tail at the mercy of one moment."""
    n = len(ops)
    stride = max(1, round(0.382 * n))
    while gcd(stride, n) != 1:
        stride += 1
    return [ops[i * stride % n] for i in range(n)]


def _pair(ops, name, g0, rng, k, run, expected, fixed_of):
    """Two ops: g0 and a general conjugate h g0 h^-1, the second checked
    against the first through the direct action of h."""
    h, g1 = general_conjugate(g0.tower, rng, g0)

    def check_first(res, done):
        return checks.check_fixed_set(g0, k, fixed_of(res), expected)

    def check_second(res, done):
        problems = checks.check_fixed_set(g1, k, fixed_of(res), expected)
        first = done.get(f"{name}/g")
        if first is not None:
            problems += checks.check_conjugate(h, fixed_of(first), fixed_of(res))
        return problems

    ops.append(Op(f"{name}/g", lambda: run(g0, k), check_first))
    ops.append(Op(f"{name}/hgh", lambda: run(g1, k), check_second))


# --- enum-fixpoly --------------------------------------------------------

# (label, tower (p, e, n), representative entries, Frobenius power, degree,
#  known count).  D, s and E as planned at the time of writing are in the
# README table; entries are codes on the default-modulus towers.  The op
# costs fall in groups: thirteen ops under 0.2 s, ten conjugates of one
# D = 5 element at about 0.2 s, nine between 0.4 and 0.8 s, four over.
# The median op falls among the ten alike ops, so neither a seed's luck in
# the EDF splits of one op nor two cost classes meeting at the median
# moves it far; the 75th percentile falls in the middle of the third group.
IDENTITY = (1, 0, 0, 1)
ENUM_SLOTS = (
    ("F9-frob-k3", (3, 1, 2), IDENTITY, 1, 3, "subfield"),
    ("F16b-frob-k3", (2, 2, 2), IDENTITY, 1, 3, "subfield"),
    ("F9-D4-E27", (3, 1, 2), (7, 4, 8, 1), 1, 12, None),
    ("F4096-D1-E32", (2, 1, 12), (3325, 1197, 3567, 2064), 1, 5, None),
    ("F16a-D1-E64", (2, 1, 4), (4, 15, 15, 11), 2, 3, None),
    ("F25-D1-E125", (5, 1, 2), (24, 18, 12, 6), 1, 3, None),
    ("F4-D5-E64-a", (2, 1, 2), (2, 3, 2, 0), 2, 15, None),
    ("F4-D5-E64-b", (2, 1, 2), (2, 3, 2, 0), 2, 15, None),
    ("F4-D5-E64-c", (2, 1, 2), (2, 3, 2, 0), 2, 15, None),
    ("F4-D5-E64-d", (2, 1, 2), (2, 3, 2, 0), 2, 15, None),
    ("F4-D5-E64-e", (2, 1, 2), (2, 3, 2, 0), 2, 15, None),
    ("F4-frob-k7", (2, 1, 2), IDENTITY, 1, 7, "subfield"),
    ("F4-D3-E128", (2, 1, 2), (3, 1, 2, 2), 1, 21, None),
    ("F8-D1-E256", (2, 1, 3), (4, 5, 6, 5), 1, 8, None),
    ("F16b-D5-E64", (2, 2, 2), (6, 4, 9, 3), 1, 15, None),
    ("F25-D2-E125", (5, 1, 2), (0, 9, 21, 5), 1, 6, None),
    ("F9-scrim-E243", (3, 1, 2), (0, 1, 1, 0), 1, 5, "scrim"),
    ("F4-scrim-E512", (2, 1, 2), (0, 1, 1, 0), 1, 9, "scrim"),
)
ENUM_QUICK = (
    ("F4-D3-E64", (2, 1, 2), (1, 0, 0, 3), 2, 9, None),
    ("F4-frob-k5", (2, 1, 2), IDENTITY, 1, 5, "subfield"),
    ("F9-scrim-E27", (3, 1, 2), (0, 1, 1, 0), 1, 3, "scrim"),
    ("F4096-D1-E32", (2, 1, 12), (3325, 1197, 3567, 2064), 1, 5, None),
)


def _expected(kind, tower, frob, k):
    if kind == "scrim":
        return checks.scrim_count(tower.q, k)
    if kind == "subfield":
        return checks.subfield_count(tower.q, gcd(frob, tower.n), tower.n, k)
    return None


def build_enum(seed: int, quick: bool = False) -> list[Op]:
    rng = random.Random(seed)
    ops: list[Op] = []
    for label, (p, e, n), entries, frob, k, kind in ENUM_QUICK if quick else ENUM_SLOTS:
        tower = build_tower(p, e, n)
        rep = Semilinear(Mat2(tower, *entries), frob)
        expected = _expected(kind, tower, frob, k)
        # a pure Frobenius element is measured as itself, since any
        # conjugate of it leaves the pure-Frobenius branch
        g0 = rep if entries == IDENTITY else general_conjugate(tower, rng, rep)[1]
        _pair(ops, label, g0, rng, k, enumerate_invariants, expected, lambda r: r)
    return spread_in_time(ops)


# --- census-scan ---------------------------------------------------------

# (label, tower (p, e, n), top modulus h, degree, conjugate pairs); the
# middle modulus is the default one.  Warm ops cost about 0.4 s on GF(8)
# and 0.7-0.9 s on GF(9) and GF(16).  With six GF(8) ops below the 28
# others and the six cold ops above them, the median op falls in the
# middle of the GF(9)/GF(16) group, where the ops around it cost alike,
# and the 75th percentile inside the same group.
CENSUS_LEVELS = (
    ("GF9-x2+1", (3, 1, 2), (1, 0, 1), 5, 4),
    ("GF9-x2+x+2", (3, 1, 2), (2, 1, 1), 5, 4),
    ("GF8-x3+x+1", (2, 1, 3), (1, 1, 0, 1), 5, 2),
    ("GF8-x3+x2+1", (2, 1, 3), (1, 0, 1, 1), 5, 1),
    ("GF16-2.2.2", (2, 2, 2), (2, 1, 1), 4, 3),
    ("GF16-2.1.4", (2, 1, 4), (1, 0, 0, 1, 1), 4, 3),
)
CENSUS_QUICK = (
    ("GF9-x2+1", (3, 1, 2), (1, 0, 1), 3, 3),
    ("GF8-x3+x+1", (2, 1, 3), (1, 1, 0, 1), 3, 4),
    ("GF16-2.1.4", (2, 1, 4), (1, 0, 0, 1, 1), 2, 2),
)


def _census_reps(tower):
    """Structural representatives: the swap x -> 1/x with one Frobenius
    twist, plain, with a shear [[1,1],[0,1]] twisted once, and the swap
    twisted twice."""
    swap = Mat2(tower, 0, 1, 1, 0)
    return (
        ("swap-frob1", Semilinear(swap, 1)),
        ("swap-plain", Semilinear(swap, tower.n)),
        ("shear-frob1", Semilinear(Mat2(tower, 1, 1, 0, 1), 1)),
        ("swap-frob2", Semilinear(swap, 2)),
    )


def _census_fixed(report):
    return report.entries[0].polynomials


def build_census(seed: int, quick: bool = False) -> list[Op]:
    rng = random.Random(seed)
    cold: list[Op] = []
    ops: list[Op] = []
    for label, (p, e, n), h, k, pairs in CENSUS_QUICK if quick else CENSUS_LEVELS:
        tower = build_tower(p, e, n, h=h)
        frob = Semilinear(Mat2.identity(tower), 1)
        want = checks.subfield_count(tower.q, 1, n, k)

        def check_frob(res, done, tower=tower, frob=frob, k=k, want=want):
            return checks.check_listing_count(tower.top, k) + checks.check_fixed_set(
                frob, k, _census_fixed(res), want
            )

        # the first op on a level pays the cold irreducible listing
        cold.append(Op(f"{label}/frob1", lambda frob=frob, k=k: census(frob, [k]), check_frob))
        for rep_label, rep in _census_reps(tower)[:pairs]:
            expected = None
            if rep_label == "swap-frob1" and n == 2 and k % 2:
                expected = checks.scrim_count(tower.q, k)
            _pair(
                ops,
                f"{label}/{rep_label}",
                general_conjugate(tower, rng, rep)[1],
                rng,
                k,
                lambda g, k: census(g, [k]),
                expected,
                _census_fixed,
            )
    return cold + spread_in_time(ops)


# --- cli-families ----------------------------------------------------------

# The op costs fall in four groups: thirteen ops under 0.15 s, thirteen
# around 0.2 s (the act batches), ten around 0.7 s and four of 1 s and more.
# The median op and the 75th percentile then sit inside a group instead
# of on the edge between two, where a small drift would move them a long
# way.  Forty ops make one round a whole run.
# (p, e, scrim degree over F_(q**2), srim degree over F_q)
CLI_FAMILIES = ((2, 1, 13, 18), (3, 1, 9, 10), (2, 2, 7, 10), (5, 1, 5, 10))
CLI_FAMILIES_QUICK = ((2, 1, 5, 6), (3, 1, 3, 6))
# (label, tower (p, e, n), method, degree)
CLI_INVARIANTS = (
    ("F4-auto-k7", (2, 1, 2), "auto", 7),
    ("F4-census-k5", (2, 1, 2), "census", 5),
    ("F9-auto-k5", (3, 1, 2), "auto", 5),
    ("F9-auto-k5-b", (3, 1, 2), "auto", 5),
    ("F9-auto-k5-c", (3, 1, 2), "auto", 5),
    ("F9-auto-k5-d", (3, 1, 2), "auto", 5),
)
CLI_INVARIANTS_QUICK = (("F4-auto-k5", (2, 1, 2), "auto", 5), ("F4-census-k3", (2, 1, 2), "census", 3))
CLI_SUITES_QUICK = ("axioms",)
# (label, tower (p, e, n)); each batch is ACT_PAIRS round trips of a
# degree-ACT_DEGREE polynomial, two calls each
CLI_ACT = tuple((f"{label}-{i}", tower) for i in (1, 2, 3) for label, tower in
                (("F4", (2, 1, 2)), ("F9", (3, 1, 2)), ("F16", (2, 2, 2)), ("F25", (5, 1, 2))))
ACT_PAIRS = 50
ACT_DEGREE = 4
CLI_TOWERS = ((2, 1, 2), (3, 1, 2), (2, 2, 2), (5, 1, 2), (2, 1, 4))


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def _polys_from_lines(level, lines):
    return [Poly(level, parse_poly(level, line)) for line in lines]


def _text_result(res, level, skip):
    """rc, then the polynomials printed after `skip` header lines."""
    rc, out, err = res
    if rc != 0:
        return None, [f"exit code {rc}: {err.strip()}"]
    lines = out.splitlines()[skip:]
    return _polys_from_lines(level, lines), []


def _random_irreducible(level, rng, degree):
    while True:
        f = Poly(level, [rng.randrange(level.size) for _ in range(degree)] + [1])
        if is_irreducible(f):
            return f


def build_cli(seed: int, quick: bool = False) -> list[Op]:
    rng = random.Random(seed)
    for args in CLI_TOWERS:
        build_tower(*args)
    ops: list[Op] = []
    for p, e, ks, kr in CLI_FAMILIES_QUICK if quick else CLI_FAMILIES:
        tower = build_tower(p, e, 2)
        base = ["scrim", "--p", str(p), "--e", str(e)]
        list_name = f"scrim-list-q{tower.q}-k{ks}"

        def check_list(res, done, tower=tower, ks=ks):
            polys, problems = _text_result(res, tower.top, 1)
            if polys is None:
                return problems
            head = res[1].splitlines()[0]
            if head != f"count: {len(polys)}":
                problems.append(f"header {head!r} does not match {len(polys)} lines")
            return problems + checks.check_scrim_list(tower, ks, polys)

        def check_first(res, done, tower=tower, ks=ks, list_name=list_name):
            polys, problems = _text_result(res, tower.top, 0)
            if polys is None:
                return problems
            listing = done.get(list_name)
            first = None
            if listing is not None and listing[0] == 0:
                first = _polys_from_lines(tower.top, listing[1].splitlines()[1:])
            return problems + checks.check_scrim_pair(tower, ks, polys, first)

        def check_srim(res, done, tower=tower, kr=kr):
            polys, problems = _text_result(res, tower.mid, 1)
            if polys is None:
                return problems
            return problems + checks.check_srim_list(tower.mid, kr, polys)

        scrim_args = base + ["--degree", str(ks)]
        ops.append(Op(list_name, lambda a=scrim_args: run_cli(a + ["--mode", "list"]), check_list))
        ops.append(Op(f"scrim-first-q{tower.q}-k{ks}", lambda a=scrim_args: run_cli(a + ["--mode", "first"]), check_first))
        srim_args = base + ["--degree", str(kr), "--kind", "srim", "--mode", "list"]
        ops.append(Op(f"srim-list-q{tower.q}-k{kr}", lambda a=srim_args: run_cli(a), check_srim))

    for label, (p, e, n), method, k in CLI_INVARIANTS_QUICK if quick else CLI_INVARIANTS:
        tower = build_tower(p, e, n)
        swap = Semilinear(Mat2(tower, 0, 1, 1, 0), 1)
        g0 = general_conjugate(tower, rng, swap)[1]
        expected = checks.scrim_count(tower.q, k)

        def run(g, k, p=p, e=e, n=n, method=method):
            argv = ["invariants", "--p", str(p), "--e", str(e), "--n", str(n)]
            argv += ["--matrix", g.mat.to_text(), "--frob", str(g.frob), "--degree", str(k)]
            return run_cli(argv + ["--method", method, "--output", "json"])

        def fixed_of(res, level=tower.top):
            rc, out, err = res
            if rc != 0:
                raise RuntimeError(f"exit code {rc}: {err.strip()}")
            doc = json.loads(out)
            if doc["result"]["count"] != len(doc["result"]["polynomials"]):
                raise RuntimeError("JSON count does not match its list")
            return _polys_from_lines(level, doc["result"]["polynomials"])

        _pair(ops, f"invariants-{label}", g0, rng, k, run, expected, fixed_of)

    for suite in CLI_SUITES_QUICK if quick else SUITES:

        def check_verify(res, done):
            rc, out, err = res
            if rc != 0:
                return [f"exit code {rc}: {err.strip()}"]
            result = json.loads(out)["result"]
            bad = [c["name"] for c in result["checks"] if not c["ok"]]
            if result["failed"] or bad or not result["passed"]:
                return [f"verify reports failures: {bad}"]
            return []

        argv = ["verify", "--suite", suite, "--seed", str(seed), "--output", "json"]
        ops.append(Op(f"verify-{suite}", lambda a=argv: run_cli(a), check_verify))

    for label, (p, e, n) in CLI_ACT[:1] if quick else CLI_ACT:
        tower = build_tower(p, e, n)
        top = tower.top
        swap = Mat2(tower, 0, 1, 1, 0)
        h = random_mat(tower, rng)
        involution = h.mul(swap).mul(h.inv())
        base = ["act", "--p", str(p), "--e", str(e), "--n", str(n), "--matrix", involution.to_text()]
        pairs = 5 if quick else ACT_PAIRS
        inputs = [format_poly(top, _random_irreducible(top, rng, ACT_DEGREE).coeffs) for _ in range(pairs)]

        def run_batch(base=base, inputs=inputs):
            out = []
            for token in inputs:
                rc1, once, err1 = run_cli(base + ["--poly", token])
                rc2, twice, err2 = run_cli(base + ["--poly", once.strip()])
                out.append((token, twice.strip() if rc1 == rc2 == 0 else f"exit {rc1}/{rc2}"))
            return out

        ops.append(Op(f"act-batch-{label}", run_batch, lambda res, done: checks.check_involution_pairs(res)))
    return spread_in_time(ops)


BUILDERS = {"enum-fixpoly": build_enum, "census-scan": build_census, "cli-families": build_cli}
