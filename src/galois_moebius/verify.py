"""Built-in consistency suites.

Four batteries, each deterministic for a given seed:

* axioms: group laws, action compatibility, order formulas against brute
  force, Frobenius index reduction.
* equivalence: the three-way invariance equivalence (lift_check) and the
  2:1 involution count relation.
* census: the fast enumeration against exhaustive scans, including the
  degrees the shape arithmetic rules out (their censuses must be empty).
* formulas: the two counting formulas against each other and against
  literal scans of both special families.

Every check reports pass/fail with a short deterministic detail string;
nothing here depends on wall clock or iteration order of hashes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import gcd

from . import invariants, polyring
from .errors import DegreeTooLarge, DegreeTooSmall, DomainError, SingularMatrix
from .gftower import build_tower
from .invariants import (
    census,
    construct_scrim,
    enumerate_invariants,
    involution_ratio_check,
    is_invariant,
    is_scrim,
    lift_check,
    plan_enumeration,
    scrim_count,
    scrim_count_divisor_sum,
    scrim_polynomials,
    srim_count,
    srim_polynomials,
)
from .pgammal import (
    Mat2,
    Semilinear,
    moebius_act,
    proj_order,
    proj_order_bruteforce,
    random_mat2,
    random_semilinear,
    reduce_frobenius_index,
    semilinear_order,
    semilinear_order_bruteforce,
)
from .polyring import Poly

SUITES = ("axioms", "equivalence", "census", "formulas")


@dataclass(frozen=True)
class CheckResult:
    suite: str
    name: str
    ok: bool
    details: str


def _random_irreducible(level, degree: int, rng: random.Random) -> Poly:
    size = level.size
    while True:
        coeffs = [rng.randrange(size) for _ in range(degree)] + [1]
        if coeffs[0] and polyring._irreducible(level, list(coeffs)):
            return Poly(level, coeffs)


def _suite_axioms(seed: int) -> list[CheckResult]:
    rng = random.Random(seed)
    results = []
    for p, e, n in ((2, 1, 2), (3, 1, 2), (2, 1, 4)):
        tower = build_tower(p, e, n)
        label = f"GF({tower.q}**{n})"
        assoc = ident = compat = orders = reductions = morders = mcompat = 0
        trials = 8
        for _ in range(trials):
            g = random_semilinear(tower, rng)
            h = random_semilinear(tower, rng)
            k = random_semilinear(tower, rng)
            f = _random_irreducible(tower.top, rng.choice((3, 4)), rng)
            if (g * h) * k == g * (h * k):
                assoc += 1
            e_ = Semilinear.identity(tower)
            if (
                g * e_ == g
                and e_ * g == g
                and (g * g.inverse()).is_projective_identity()
            ):
                ident += 1
            if (g * h).act(f) == g.act(h.act(f)):
                compat += 1
            if semilinear_order(g) == semilinear_order_bruteforce(g):
                orders += 1
            r = reduce_frobenius_index(g)
            if r.frob == gcd(g.frob, n) and all(
                is_invariant(g, u) == is_invariant(r, u)
                for u in (f, _random_irreducible(tower.top, 3, rng))
            ):
                reductions += 1
            A = random_mat2(tower, rng)
            B = random_mat2(tower, rng)
            if proj_order(A) == proj_order_bruteforce(A):
                morders += 1
            if moebius_act(B, moebius_act(A, f)) == moebius_act(A.mul(B), f):
                mcompat += 1
        for name, got in (
            ("associativity", assoc),
            ("identity-and-inverse", ident),
            ("action-compatibility", compat),
            ("order-vs-bruteforce", orders),
            ("index-reduction", reductions),
            ("matrix-order-vs-bruteforce", morders),
            ("matrix-action-composition", mcompat),
        ):
            results.append(
                CheckResult(
                    "axioms", f"{name}[{label}]", got == trials, f"{got}/{trials}"
                )
            )
    return results


def _suite_equivalence(seed: int) -> list[CheckResult]:
    rng = random.Random(seed)
    results = []
    tower = build_tower(2, 2, 2)
    q, n = tower.q, tower.n
    consistent = applicable = 0
    attempts = 0
    while applicable < 6 and attempts < 200:
        attempts += 1
        entries = [rng.randrange(q) for _ in range(4)]
        try:
            mat = Mat2(tower, *entries)
        except SingularMatrix:
            continue
        d = proj_order(mat)
        d0 = gcd(d, n)
        s = rng.choice((3, 5))
        if gcd(s, n) != 1:
            continue
        k = (d // d0) * s
        if k > 15:
            continue
        f = _random_irreducible(tower.top, k, rng)
        res = lift_check(tower, mat, f, frob_index=1)
        applicable += 1
        if res.consistent:
            consistent += 1
    results.append(
        CheckResult(
            "equivalence",
            "lift-three-ways[random]",
            applicable >= 6 and consistent == applicable,
            f"{consistent}/{applicable} consistent",
        )
    )

    # the same equivalence on known invariants, which must come out all true
    g = Semilinear(Mat2(tower, 0, 1, 1, 0), 1)
    fixed = enumerate_invariants(g, 3)
    allpos = bool(fixed)
    for f in fixed:
        res = lift_check(tower, g.mat, f, frob_index=1)
        if not (
            res.consistent
            and res.invariant_exists
            and res.invariant_in_exact_subfield
            and res.norm_descends
        ):
            allpos = False
    results.append(
        CheckResult(
            "equivalence",
            "lift-three-ways[fixed-set]",
            allpos,
            f"{len(fixed)} fixed polynomials, all three verdicts positive",
        )
    )

    ratio_cases = (
        (2, 1, (0, 1, 1, 0), 3),
        (2, 1, (0, 1, 1, 0), 5),
        (2, 1, (1, 1, 0, 1), 3),
        (2, 1, (1, 1, 0, 1), 5),
        (3, 1, (0, 1, 1, 0), 3),
    )
    for p, e, entries, m in ratio_cases:
        tw = build_tower(p, e, 2)
        mat = Mat2(tw, *entries)
        r = involution_ratio_check(tw, mat, m)
        results.append(
            CheckResult(
                "equivalence",
                f"involution-ratio[q={tw.q},m={m},{mat.to_text()}]",
                r.ratio_holds,
                f"twisted {r.twisted_count} vs classical {r.classical_count}",
            )
        )
    return results


def _suite_census(seed: int) -> list[CheckResult]:
    rng = random.Random(seed)
    results = []
    # degree 5 at q=3 is left to the test battery: the census of the
    # trivial action lists and re-verifies all 11808 irreducibles there,
    # which costs more than the rest of the suite together
    cases = [(2, 1, 2, (3, 4, 5, 6)), (3, 1, 2, (3, 4))]
    for p, e, n, degrees in cases:
        tower = build_tower(p, e, n)
        elements = [
            Semilinear(Mat2(tower, 0, 1, 1, 0), 1),
            Semilinear(Mat2.identity(tower), 1),
            Semilinear(Mat2.identity(tower), n),
        ]
        for _ in range(7):
            elements.append(random_semilinear(tower, rng))
        agree = skipped = 0
        total = 0
        for g in elements:
            for k in degrees:
                try:
                    plan = plan_enumeration(g, k)
                except (DegreeTooSmall, DegreeTooLarge):
                    skipped += 1
                    continue
                total += 1
                scan = census(g, [k]).entries[0].polynomials
                if plan.feasible:
                    # both come sorted by Poly.lex_key
                    fast = enumerate_invariants(g, k)
                    if fast == scan:
                        agree += 1
                else:
                    # the shape arithmetic promises emptiness; hold it to that
                    if not scan:
                        agree += 1
        results.append(
            CheckResult(
                "census",
                f"enumeration-vs-scan[GF({tower.q}**{n})]",
                total > 0 and agree == total,
                f"{agree}/{total} degrees agree, {skipped} below the theory's reach",
            )
        )
    return results


def _suite_formulas(seed: int) -> list[CheckResult]:
    del seed  # the formula battery is fully deterministic
    results = []
    pairs = ((2, 3), (2, 5), (2, 7), (3, 3), (3, 5), (4, 3), (4, 5), (5, 3))
    both = all(scrim_count(q, n) == scrim_count_divisor_sum(q, n) for q, n in pairs)
    results.append(
        CheckResult(
            "formulas",
            "conjugate-self-reciprocal-count-two-ways",
            both,
            f"{len(pairs)} (q, degree) pairs",
        )
    )
    halves = all(
        scrim_count(q, m) == 2 * srim_count(q, m) for q, m in pairs
    )
    results.append(
        CheckResult(
            "formulas", "twisted-to-classical-halving", halves, f"{len(pairs)} pairs"
        )
    )

    # every listed member is re-tested one by one (is_scrim, is_invariant,
    # the census), so the degrees stay small; the larger degrees are
    # covered by the count formulas in `pairs` above
    scan_cases = ((2, 1, (3, 5, 7)), (3, 1, (3,)), (2, 2, (3,)))
    for p, e, degrees in scan_cases:
        tower = build_tower(p, e, 2)
        q = tower.q
        ok = True
        details = []
        for k in degrees:
            fam = scrim_polynomials(tower, k)
            want = scrim_count(q, k)
            g = Semilinear(Mat2(tower, 0, 1, 1, 0), 1)
            scan = census(g, [k]).entries[0].polynomials
            pair = construct_scrim(tower, k)
            # the listing and the census both come sorted by Poly.lex_key
            ok = (
                ok
                and len(fam) == want
                and all(is_scrim(f) and is_invariant(g, f) for f in fam)
                and fam == scan
                and pair[0] == fam[0]
                and pair[1] in fam
                and pair[0] != pair[1]
            )
            details.append(f"deg {k}: {len(fam)}")
        results.append(
            CheckResult(
                "formulas",
                f"conjugate-family-scan[q={q}]",
                ok,
                "; ".join(details),
            )
        )

    srim_cases = ((2, 1, (3, 5)), (3, 1, (3,)), (2, 2, (3,)))
    for p, e, halves_ in srim_cases:
        tower = build_tower(p, e, 2)
        q = tower.q
        ok = True
        details = []
        for m in halves_:
            fam = srim_polynomials(tower.mid, 2 * m)
            want = srim_count(q, m)
            ok = ok and len(fam) == want and all(invariants.is_srim(f) for f in fam)
            details.append(f"deg {2 * m}: {len(fam)}")
        results.append(
            CheckResult(
                "formulas",
                f"self-reciprocal-family-scan[q={q}]",
                ok,
                "; ".join(details),
            )
        )
    return results


def run_suite(name: str, seed: int = 0) -> list[CheckResult]:
    if name == "axioms":
        return _suite_axioms(seed)
    if name == "equivalence":
        return _suite_equivalence(seed)
    if name == "census":
        return _suite_census(seed)
    if name == "formulas":
        return _suite_formulas(seed)
    if name == "all":
        return run_all(seed)
    raise DomainError(f"unknown suite {name!r}; pick from {SUITES + ('all',)}")


def run_all(seed: int = 0) -> list[CheckResult]:
    out = []
    for name in SUITES:
        out.extend(run_suite(name, seed))
    return out
