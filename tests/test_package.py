"""The package namespace resolves its public names lazily, from the live
attribute of each name's home module."""

import os
import pathlib
import subprocess
import sys

import pytest

import cyclochar

PUBLIC = {
    "BiLaurentPoly", "CartanType", "CycloCharError", "CycloElement", "CycloFactorization",
    "CycloPoint", "CycloSolveReport", "DominantWeight",
    "ExponentLattice", "ExponentTooLarge", "FiniteClassFunction", "HypothesisViolated",
    "InconsistentClassData", "InexactDivision", "InvalidRank", "IsTrivial", "LaurentPoly",
    "NonCyclotomicRemainder", "NonIntegralDimension", "NotASquare", "NotAnSCharacter",
    "NotClassifiable", "NotSymmetric", "ParseError", "PositiveDimensional",
    "PositivityReport", "PrincipalCharacter", "ProductNotLarger", "RootSystem",
    "SCheckReport", "SymmetricLaurent", "TorusRejection", "UnknownVariable",
    "ZeroPolynomial", "ZeroWeight", "adjoint_weight", "binomial_quotient",
    "bivariate_gcd", "build", "cartan_matrix", "classify_a0_2", "cos_minimal_poly",
    "cyclo_factor", "cyclo_sign", "cyclotomic", "divides_cyclotomic", "epsilon_trivial",
    "euler_phi", "eval_at_roots", "explicit_zero_order", "exponent_lattice", "finite_s_check",
    "g2_adjoint_poly", "g_minus", "g_plus", "is_positive_on_circle", "load_class_data",
    "pairing", "parse", "parse_bivariate", "parse_univariate", "partial_sums",
    "positive_root_vectors", "prime_power_zero", "principal_character", "resultant",
    "seven_variants", "sl2_character", "solve", "su2_decompose", "su2_mean", "t_orders",
    "tensor_identity_check", "torus_reject", "variant_cyclo_orders", "weight_pairings",
    "weyl_dim", "zero_orders",
}


def test_all_lists_the_public_names():
    assert len(PUBLIC) == 78
    assert set(cyclochar.__all__) == PUBLIC
    assert cyclochar.__version__ == "0.1.0"


def test_each_name_is_its_home_module_attribute():
    for name in PUBLIC:
        obj = getattr(cyclochar, name)
        assert obj is getattr(sys.modules[obj.__module__], name), name
        assert name not in vars(cyclochar), name


def test_a_rebinding_in_the_home_module_shows_through(monkeypatch):
    original = cyclochar.laurent.cyclo_factor

    def fake(f):
        return None

    monkeypatch.setattr(cyclochar.laurent, "cyclo_factor", fake)
    assert cyclochar.cyclo_factor is fake
    monkeypatch.undo()
    assert cyclochar.cyclo_factor is original
    assert "cyclo_factor" not in vars(cyclochar)


def test_star_import_binds_every_name():
    namespace = {}
    exec("from cyclochar import *", namespace)
    assert PUBLIC <= set(namespace)
    assert namespace["solve"] is cyclochar.cyclopoints.solve


def test_sl2_character_keeps_its_principal_name():
    assert cyclochar.principal.sl2_character is cyclochar.laurent.sl2_character


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        cyclochar.no_such_name
    assert not hasattr(cyclochar, "realroot")


def test_submodule_resolves_after_a_bare_import():
    src = pathlib.Path(cyclochar.__file__).resolve().parent.parent
    code = ("import sys, cyclochar\n"
            "assert not any(m.startswith('cyclochar.') for m in sys.modules)\n"
            "print(cyclochar.laurent.__name__, cyclochar.LaurentPoly.__name__)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(src)), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "cyclochar.laurent LaurentPoly\n"


def _load_tracing():
    """perfbench/tracing.py as a module, read from the checkout, unchanged."""
    import importlib.util

    path = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_benchmark_targets_exist_and_their_hooks_read_live_results():
    # The benchmark's tracer wraps these functions by name and its counter
    # hooks read attributes of their results; a rename here breaks traced runs.
    import collections
    import importlib

    from cyclochar.cyclopoints import g2_adjoint_poly
    from cyclochar.laurent import LaurentPoly
    from cyclochar.parsing import parse_bivariate

    tracing = _load_tracing()
    h, g = parse_bivariate("x + y - 2"), parse_bivariate("x - y")
    samples = {
        ("principal", "binomial_quotient"): ([4], [2]),
        ("laurent", "cyclo_factor"): (LaurentPoly({4: 1, 0: 1}),),
        ("laurent", "resultant"): (h, g, "y"),
        ("laurent", "eval_at_roots"): (g2_adjoint_poly(), 7, 1, 3),
        ("realroots", "nonneg_on_interval"): ([1, 0, 1], -1, 1),
        ("cyclopoints", "solve"): (h,),
    }
    hooked = set()
    for mod_name, fn_name, hook in tracing.TARGETS:
        fn = getattr(importlib.import_module(f"cyclochar.{mod_name}"), fn_name)
        assert callable(fn), (mod_name, fn_name)
        if hook is not None:
            args = samples[(mod_name, fn_name)]
            hook(collections.defaultdict(int), args, fn(*args))
            hooked.add((mod_name, fn_name))
    assert hooked == set(samples)
    cf = cyclochar.cyclo_factor(LaurentPoly({4: 1, 0: 1}))
    assert cf.factors == ((8, 1),) and cf.remainder == 1
    assert cyclochar.eval_at_roots(g2_adjoint_poly(), 7, 1, 3).residue == (0,) * 6
    assert cyclochar.solve(g).positive_dimensional
    assert cyclochar.binomial_quotient([4], [2]).coeffs == {0: 1, 2: 1}
