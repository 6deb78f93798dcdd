"""Degree, exponent, count, Frobenius, cap, budget, tower-parameter and
element-code arguments: an int gives a result or a typed error, anything
else a typed error, never a bare TypeError or a silently truncated
value."""

import pytest
from hypothesis import given, settings, strategies as st

import galois_moebius as gm
from galois_moebius.errors import DomainError, GaloisMoebiusError
from galois_moebius.gftower import first_irreducible, multiplicative_order
from galois_moebius.invariants import (
    admissible_shifts,
    asymptotic_report,
    census,
    construct_scrim,
    enumerate_invariants,
    involution_ratio_check,
    plan_enumeration,
    scrim_count,
    scrim_count_divisor_sum,
    scrim_polynomials,
    srim_count,
    srim_polynomials,
)
from galois_moebius.pgammal import (
    Mat2,
    Semilinear,
    fixing_polynomial,
    fixing_polynomial_twisted,
    twisted_product,
)
from galois_moebius.polyring import Poly, count_irreducibles, monic_irreducibles, powmod

TOWER = gm.build_tower(2, 1, 2)
A = Mat2(TOWER, 0, 1, 1, 1)
F = Poly(TOWER.top, [1, 1])
M = Poly(TOWER.top, [1, 1, 1])
SWAP = Semilinear(Mat2(TOWER, 0, 1, 1, 0), 1)
INVOLUTION = Mat2(TOWER, 0, 1, 1, 0)

# entry point -> (call with the drawn value, whether None is a valid value)
CALLS = {
    "fixing_polynomial m": (lambda v: fixing_polynomial(A, v), False),
    "fixing_polynomial step": (lambda v: fixing_polynomial(A, 2, step=v), False),
    "fixing_polynomial_twisted i": (lambda v: fixing_polynomial_twisted(A, v, 2), False),
    "fixing_polynomial_twisted m": (lambda v: fixing_polynomial_twisted(A, 1, v), False),
    "fixing_polynomial_twisted step": (
        lambda v: fixing_polynomial_twisted(A, 1, 2, step=v),
        False,
    ),
    "twisted_product count": (lambda v: twisted_product(A, v), False),
    "twisted_product step": (lambda v: twisted_product(A, 3, step=v), False),
    "FieldElement power": (lambda v: TOWER.element(2) ** v, False),
    "Semilinear frob": (lambda v: Semilinear(A, v), True),
    "Semilinear power": (lambda v: Semilinear(A, 1) ** v, False),
    "Poly power": (lambda v: F**v, False),
    "powmod": (lambda v: powmod(F, v, M), False),
    "monic_irreducibles": (lambda v: monic_irreducibles(TOWER.top, v), False),
    "first_irreducible": (lambda v: first_irreducible(TOWER.top, v), False),
    "census": (lambda v: census(Semilinear(A, 1), [v]), False),
    "enumerate_invariants": (lambda v: enumerate_invariants(SWAP, v), False),
    "plan_enumeration": (lambda v: plan_enumeration(Semilinear(A, 1), v), False),
    "asymptotic_report": (lambda v: asymptotic_report(Semilinear(A, 1), [v]), False),
    "admissible_shifts": (lambda v: admissible_shifts(v, 2, 1), False),
    "scrim_polynomials": (lambda v: scrim_polynomials(TOWER, v), False),
    "construct_scrim": (lambda v: construct_scrim(TOWER, v), False),
    "srim_polynomials": (lambda v: srim_polynomials(TOWER.mid, v), False),
    "scrim_count": (lambda v: scrim_count(2, v), False),
    "scrim_count_divisor_sum": (lambda v: scrim_count_divisor_sum(2, v), False),
    "srim_count": (lambda v: srim_count(2, v), False),
    "count_irreducibles": (lambda v: count_irreducibles(2, v), False),
    # caps and budgets: an int, or None where no limit is allowed
    "plan_enumeration cap": (lambda v: plan_enumeration(SWAP, 3, cap=v), True),
    "enumerate_invariants cap": (lambda v: enumerate_invariants(SWAP, 3, cap=v), True),
    "asymptotic_report cap": (lambda v: asymptotic_report(Semilinear(A, 1), [3], cap=v), True),
    "fixing_polynomial cap": (lambda v: fixing_polynomial(A, 2, cap=v), True),
    "census budget": (lambda v: census(Semilinear(A, 1), [1], budget=v), False),
    "involution_ratio_check budget": (
        lambda v: involution_ratio_check(TOWER, INVOLUTION, 3, budget=v),
        False,
    ),
    "involution_ratio_check half_degree": (
        lambda v: involution_ratio_check(TOWER, INVOLUTION, v),
        False,
    ),
    "census degree list": (lambda v: census(Semilinear(A, 1), v), False),
    "asymptotic_report scale list": (lambda v: asymptotic_report(SWAP, v), False),
    "extension_embedding": (lambda v: TOWER.extension_embedding(v), False),
    "build_tower p": (lambda v: gm.build_tower(v, 1, 2), False),
    "build_tower e": (lambda v: gm.build_tower(2, v, 2), False),
    "build_tower n": (lambda v: gm.build_tower(2, 1, v), False),
    "multiplicative_order": (lambda v: multiplicative_order(TOWER.top, v), False),
}

VALUES = st.one_of(st.integers(-3, 3), st.floats(), st.text(max_size=2), st.none())


@pytest.mark.parametrize("name", sorted(CALLS))
@settings(max_examples=25, deadline=None)
@given(value=VALUES)
def test_arguments_give_results_or_typed_errors(name, value):
    call, none_ok = CALLS[name]
    try:
        call(value)
    except GaloisMoebiusError:
        return
    assert isinstance(value, int) or (value is None and none_ok), (
        f"{name} accepted {value!r}"
    )


@pytest.mark.parametrize("name", [n for n in sorted(CALLS) if n.endswith((" cap", " budget"))])
def test_float_caps_and_budgets_are_rejected(name):
    # a float large enough to pass the size check used to be taken as is
    with pytest.raises(DomainError):
        CALLS[name][0](1e9)


@pytest.mark.parametrize("scales", [3, None])
def test_asymptotic_report_rejects_scales_that_are_not_a_list(scales):
    # "'int' object is not iterable" used to leak as a bare TypeError
    with pytest.raises(DomainError):
        asymptotic_report(SWAP, scales)


@pytest.mark.parametrize("code", [-1, 4, 2**70])
def test_multiplicative_order_rejects_codes_out_of_range(code):
    # -1 used to give the order of 3 and 4 an IndexError on F_4
    with pytest.raises(DomainError):
        multiplicative_order(TOWER.top, code)
