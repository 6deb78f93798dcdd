"""Twisted projective actions on polynomials over two-storey field towers.

Build a tower F_p <= F_q <= F_(q**n), act on monic irreducible polynomials
with matrix plus Frobenius pairs, and compute, enumerate, count, and
verify the polynomials each group element fixes, including the conjugate
self-reciprocal and self-reciprocal families as special cases.
"""

from .errors import (
    BudgetExceeded,
    CapacityError,
    DegreeHypothesisViolated,
    DegreeMismatch,
    DegreeTooLarge,
    DegreeTooSmall,
    DivisionByZero,
    DomainError,
    EvenDegree,
    EvenParameter,
    GaloisMoebiusError,
    InternalInvariantError,
    LevelMismatch,
    NotFound,
    NotInvolution,
    NotPrime,
    ParseError,
    ReducibleModulus,
    SingularMatrix,
    ZeroConstantTerm,
    ZeroDenominator,
)
from .gftower import (
    FieldElement,
    FieldTower,
    TowerEmbedding,
    build_tower,
    first_irreducible,
    frobenius,
    multiplicative_order,
    quadratic_extension,
    subfield_degree,
)
from .invariants import (
    DEFAULT_CENSUS_BUDGET,
    DEFAULT_ENUM_CAP,
    CensusEntry,
    CensusReport,
    EnumerationPlan,
    LiftCheckResult,
    RatioCheckResult,
    TrendPoint,
    admissible_shifts,
    asymptotic_report,
    census,
    conjugate_reciprocal,
    construct_scrim,
    enumerate_invariants,
    involution_ratio_check,
    is_invariant,
    is_scrim,
    is_srim,
    lift_check,
    plan_enumeration,
    scrim_count,
    scrim_count_divisor_sum,
    scrim_polynomials,
    srim_count,
    srim_polynomials,
)
from .numtheory import divisors, euler_phi, factorize, is_prime, moebius_mu
from .pgammal import (
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
from .polyring import (
    Poly,
    count_irreducibles,
    derivative,
    factor,
    frobenius_poly,
    gcd,
    is_irreducible,
    iter_monic_irreducibles,
    min_subfield_degree,
    monic_irreducibles,
    powmod,
    reciprocal,
    roots,
)
from .verify import CheckResult, SUITES, run_all, run_suite

__version__ = "0.1.0"
