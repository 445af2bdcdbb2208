"""Exact cyclotomic analysis of irreducible characters on principal
one-parameter subgroups, root-of-unity zero enumeration for bivariate
Laurent polynomials, and a positivity toolkit for symmetric Laurent
polynomials on the unit circle."""

from .errors import (
    CycloCharError,
    DegenerateDegree,
    ExponentTooLarge,
    HypothesisViolated,
    InconsistentClassData,
    InexactDivision,
    InvalidRank,
    IsTrivial,
    NonCyclotomicRemainder,
    NonIntegralDimension,
    NotASquare,
    NotAnSCharacter,
    NotClassifiable,
    NotSymmetric,
    ParseError,
    PositiveDimensional,
    ProductNotLarger,
    UnknownVariable,
    ZeroPolynomial,
    ZeroWeight,
)
from .laurent import (
    BiLaurentPoly,
    CycloElement,
    CycloFactorization,
    LaurentPoly,
    cos_minimal_poly,
    cyclo_factor,
    cyclotomic,
    divides_cyclotomic,
    euler_phi,
    eval_at_roots,
    resultant,
)
from .parsing import parse, parse_bivariate, parse_univariate
from .rootsys import (
    CartanType,
    DominantWeight,
    RootSystem,
    adjoint_weight,
    build,
    cartan_matrix,
    epsilon_trivial,
    pairing,
    positive_root_vectors,
    weight_pairings,
    weyl_dim,
)
from .principal import (
    PrincipalCharacter,
    binomial_quotient,
    explicit_zero_order,
    prime_power_zero,
    principal_character,
    sl2_character,
    t_orders,
    tensor_identity_check,
    zero_orders,
)
from .cyclopoints import (
    CycloPoint,
    CycloSolveReport,
    bivariate_gcd,
    g2_adjoint_poly,
    seven_variants,
    solve,
    variant_cyclo_orders,
)
from .scharacter import (
    FiniteClassFunction,
    PositivityReport,
    SCheckReport,
    SymmetricLaurent,
    TorusRejection,
    classify_a0_2,
    cyclo_sign,
    finite_s_check,
    g_minus,
    g_plus,
    is_positive_on_circle,
    load_class_data,
    partial_sums,
    su2_decompose,
    su2_mean,
    torus_reject,
)

__version__ = "0.1.0"
