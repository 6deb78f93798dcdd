"""Fast enumeration of fixed polynomials, checked against the census.

The census solves the fixed-point equations on the coefficients, one
F_Q eigenspace per norm value, and keeps the irreducible solutions; it
needs no theory of which degrees can host invariants.  The enumeration
goes the other way: degree arithmetic decides which degrees can host
invariants at all, and the eligible ones are read off the factors of
sparse fixing polynomials.
"""

from galois_moebius import (
    Mat2,
    Semilinear,
    build_tower,
    census,
    enumerate_invariants,
    plan_enumeration,
)
from galois_moebius.errors import DegreeTooSmall


def main():
    tower = build_tower(2, 1, 2)
    g = Semilinear(Mat2(tower, 0, 1, 1, 0), 1)
    print("element: antidiagonal matrix with one Frobenius twist over F_4")

    for degree in (3, 4, 5, 6):
        try:
            plan = plan_enumeration(g, degree)
        except DegreeTooSmall as exc:
            print(f"degree {degree}: {exc}")
            continue
        scan = census(g, [degree]).entries[0].polynomials
        if not plan.feasible:
            print(f"degree {degree}: ruled out ({plan.reason}); "
                  f"census agrees with {len(scan)} hits")
            continue
        fast = enumerate_invariants(g, degree)
        match = "match" if set(fast) == set(scan) else "MISMATCH"
        print(f"degree {degree}: enumeration {len(fast)}, census {len(scan)} "
              f"-> {match}")
        if degree == 3:
            for f in fast:
                print(f"   {f!r}")

    t9 = build_tower(3, 1, 2)
    h = Semilinear(Mat2(t9, 1, 0, 1, 2), 1)
    plan = plan_enumeration(h, 3)
    fast = enumerate_invariants(h, 3)
    scan = census(h, [3]).entries[0].polynomials
    print("\nover F_9, a lower-triangular matrix with frob 1 at degree 3:")
    print(f"  twisted product order D = {plan.factor_order}, "
          f"shifts {plan.shifts}, twists {plan.twists}")
    print(f"  enumeration {len(fast)}, census {len(scan)}, "
          f"equal: {set(fast) == set(scan)}")


if __name__ == "__main__":
    main()
