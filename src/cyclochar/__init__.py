"""Exact cyclotomic analysis of irreducible characters on principal
one-parameter subgroups, root-of-unity zero enumeration for bivariate
Laurent polynomials, and a positivity toolkit for symmetric Laurent
polynomials on the unit circle.

The public names below are resolved on first use (PEP 562): importing the
package loads no submodule, and `cyclochar.X` is looked up in X's home
module on every access, so it always sees that module's current binding.
"""

import importlib

# Submodule -> the public names it exports here.
_EXPORTS = {
    "errors": (
        "CycloCharError", "ExponentTooLarge", "HypothesisViolated",
        "InconsistentClassData", "InexactDivision", "InvalidRank", "IsTrivial",
        "NonCyclotomicRemainder", "NonIntegralDimension", "NotASquare",
        "NotAnSCharacter", "NotClassifiable", "NotSymmetric", "ParseError",
        "PositiveDimensional", "ProductNotLarger", "UnknownVariable",
        "ZeroPolynomial", "ZeroWeight",
    ),
    "laurent": (
        "BiLaurentPoly", "CycloElement", "CycloFactorization", "LaurentPoly",
        "cos_minimal_poly", "cyclo_factor", "cyclotomic", "divides_cyclotomic",
        "euler_phi", "eval_at_roots", "resultant", "sl2_character",
    ),
    "parsing": ("parse", "parse_bivariate", "parse_univariate"),
    "rootsys": (
        "CartanType", "DominantWeight", "RootSystem", "adjoint_weight", "build",
        "cartan_matrix", "epsilon_trivial", "pairing", "positive_root_vectors",
        "weight_pairings", "weyl_dim",
    ),
    "principal": (
        "PrincipalCharacter", "binomial_quotient", "explicit_zero_order",
        "prime_power_zero", "principal_character", "t_orders",
        "tensor_identity_check", "zero_orders",
    ),
    "cyclopoints": (
        "CycloPoint", "CycloSolveReport", "ExponentLattice", "bivariate_gcd",
        "exponent_lattice", "g2_adjoint_poly", "seven_variants", "solve",
        "variant_cyclo_orders",
    ),
    "scharacter": (
        "FiniteClassFunction", "PositivityReport", "SCheckReport",
        "SymmetricLaurent", "TorusRejection", "classify_a0_2", "cyclo_sign",
        "finite_s_check", "g_minus", "g_plus", "is_positive_on_circle",
        "load_class_data", "partial_sums", "su2_decompose", "su2_mean",
        "torus_reject",
    ),
    "realroots": (),
    "cli": (),
    "_dense": (),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)
__version__ = "0.1.0"


def __getattr__(name):
    # The result is deliberately not stored in globals(): a cached function
    # would hide later rebindings (monkeypatches, timing wrappers) of its home.
    if name in _HOME:
        return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__) | set(_EXPORTS))
