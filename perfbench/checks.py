"""Output checks that do not reuse the route under measurement.

Counts come from the Gauss and Moebius formulas computed here, not from
the package's own counting functions.  Fixed sets are checked polynomial by
polynomial with the Rabin test (``is_irreducible``) and the direct action
(``is_invariant``), never with the DDF/EDF factoring route, and every
general element is checked against a conjugate: the images h.f of the
polynomials fixed by g must be exactly the polynomials fixed by h g h^-1.

Every checker returns a list of problems; an empty list means the output
passed.
"""

from __future__ import annotations

from math import gcd

from galois_moebius import Mat2, Semilinear, is_invariant, is_irreducible
from galois_moebius import frobenius_poly, monic_irreducibles, semilinear_act


def moebius(n: int) -> int:
    """The Moebius function by trial division."""
    out = 1
    d = 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            out = -out
        d += 1
    return -out if n > 1 else out


def irreducible_count(field_size: int, k: int) -> int:
    """Monic irreducibles of degree k over a field of the given size:
    (1/k) * sum over d | k of mu(d) * size**(k/d)."""
    total = sum(moebius(d) * field_size ** (k // d) for d in range(1, k + 1) if k % d == 0)
    if total % k:
        raise ArithmeticError(f"Gauss count for size {field_size}, degree {k} is not whole")
    return total // k


def scrim_count(q: int, k: int) -> int:
    """Conjugate self-reciprocal irreducibles of odd degree k over F_(q**2),
    the polynomials fixed by [[0,1],[1,0]] with one Frobenius twist."""
    if k % 2 == 0:
        raise ValueError("the conjugate self-reciprocal count needs an odd degree")
    return irreducible_count(q, k)


def srim_count(q: int, m: int) -> int:
    """Self-reciprocal irreducibles of degree 2m over F_q, m odd."""
    if m % 2 == 0:
        raise ValueError("the self-reciprocal count here needs an odd half-degree")
    return irreducible_count(q, m) // 2


def subfield_count(q: int, t: int, n: int, k: int) -> int:
    """Degree-k irreducibles over F_(q**n) whose coefficients lie in
    F_(q**t), the polynomials fixed by the pure Frobenius sigma_t.  Such a
    polynomial is an irreducible over F_(q**t) that stays irreducible over
    F_(q**n), which happens exactly when gcd(k, n/t) = 1."""
    return irreducible_count(q**t, k) if gcd(k, n // t) == 1 else 0


def check_fixed_set(g: Semilinear, k: int, polys, expected: int | None = None) -> list[str]:
    """Every polynomial is monic, of degree k, irreducible by the Rabin
    test and fixed by g; none repeats; the count matches when known."""
    problems = []
    top = g.tower.top
    seen = set()
    for f in polys:
        tag = f"{f.coeffs}"
        if f.level is not top:
            problems.append(f"{tag} lives on another level")
            continue
        if not f.is_monic or f.degree != k:
            problems.append(f"{tag} is not monic of degree {k}")
            continue
        if f.coeffs in seen:
            problems.append(f"{tag} is listed twice")
        seen.add(f.coeffs)
        if not is_irreducible(f):
            problems.append(f"{tag} fails the Rabin irreducibility test")
        if not is_invariant(g, f):
            problems.append(f"{tag} is not fixed by the element")
    if expected is not None and len(polys) != expected:
        problems.append(f"found {len(polys)} fixed polynomials, the formula gives {expected}")
    return problems


def check_conjugate(h: Semilinear, fixed_by_g, fixed_by_conjugate) -> list[str]:
    """{h.f : f fixed by g} must equal the set fixed by h g h^-1."""
    images = {semilinear_act(h, f).coeffs for f in fixed_by_g}
    got = {f.coeffs for f in fixed_by_conjugate}
    if images == got and len(fixed_by_g) == len(fixed_by_conjugate):
        return []
    return [
        f"conjugate fixed set differs: {len(images - got)} images missing, "
        f"{len(got - images)} unexpected, sizes {len(fixed_by_g)} vs {len(fixed_by_conjugate)}"
    ]


def check_listing_count(level, k: int) -> list[str]:
    got = len(monic_irreducibles(level, k))
    want = irreducible_count(level.size, k)
    return [] if got == want else [f"listing has {got} degree-{k} irreducibles, Gauss gives {want}"]


def check_scrim_list(tower, k: int, polys) -> list[str]:
    """A conjugate self-reciprocal listing: fixed by [[0,1],[1,0]] with one
    twist, in strictly increasing lexicographic order, full count."""
    g = Semilinear(Mat2(tower, 0, 1, 1, 0), 1)
    problems = check_fixed_set(g, k, polys, scrim_count(tower.q, k))
    keys = [f.lex_key() for f in polys]
    if any(a >= b for a, b in zip(keys, keys[1:])):
        problems.append("listing is not in strictly increasing order")
    return problems


def check_scrim_pair(tower, k: int, pair, listing) -> list[str]:
    """construct_scrim's pair: the smallest member and its conjugate."""
    if len(pair) != 2:
        return [f"expected two polynomials, got {len(pair)}"]
    f, fbar = pair
    g = Semilinear(Mat2(tower, 0, 1, 1, 0), 1)
    problems = check_fixed_set(g, k, [f, fbar])
    if fbar != frobenius_poly(f, 1) or f == fbar:
        problems.append("second polynomial is not the distinct Frobenius conjugate of the first")
    if listing is not None and (not listing or listing[0] != f):
        problems.append("first polynomial is not the smallest member of the listing")
    return problems


def check_srim_list(level, degree: int, polys) -> list[str]:
    """Self-reciprocal irreducibles over F_q: irreducible, palindromic (for
    a monic f with f(0) = 1 the same as fixed by x -> 1/x), full count,
    strictly increasing."""
    problems = []
    for f in polys:
        cs = f.coeffs
        if f.level is not level or f.degree != degree or cs[-1] != 1:
            problems.append(f"{cs} is not monic of degree {degree} on the level")
            continue
        if cs != cs[::-1]:
            problems.append(f"{cs} is not palindromic")
        if not is_irreducible(f):
            problems.append(f"{cs} fails the Rabin irreducibility test")
    want = srim_count(level.size, degree // 2)
    if len(polys) != want:
        problems.append(f"found {len(polys)} self-reciprocal irreducibles, the formula gives {want}")
    keys = [f.lex_key() for f in polys]
    if any(a >= b for a, b in zip(keys, keys[1:])):
        problems.append("listing is not in strictly increasing order")
    return problems


def check_involution_pairs(pairs) -> list[str]:
    """act applied twice with an involution must return its input."""
    bad = [src for src, back in pairs if src != back]
    return [f"{len(bad)} of {len(pairs)} round trips changed the polynomial"] if bad else []
