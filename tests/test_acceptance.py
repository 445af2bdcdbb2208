"""Acceptance suite: one test per criterion, each printing a PASS line with
its measured runtime where a budget applies.  Run with -s to see the lines.
"""

import random
import time

import pytest

from cyclochar.cyclopoints import g2_adjoint_poly, solve
from cyclochar.laurent import (
    CycloElement,
    LaurentPoly,
    cyclo_factor,
    cyclotomic,
    divides_cyclotomic,
)
from cyclochar.principal import (
    explicit_zero_order,
    prime_power_zero,
    principal_character,
    sl2_character,
    t_orders,
    tensor_identity_check,
    zero_orders,
)
from cyclochar.rootsys import CartanType, DominantWeight, adjoint_weight, build, weyl_dim
from cyclochar.scharacter import (
    FiniteClassFunction,
    SymmetricLaurent,
    classify_a0_2,
    finite_s_check,
    g_minus,
    g_plus,
    is_positive_on_circle,
    partial_sums,
    su2_decompose,
)

from groups import psl2_classes

ALL_TYPES = (
    [f"A{n}" for n in range(1, 9)]
    + [f"B{n}" for n in range(2, 9)]
    + [f"C{n}" for n in range(2, 9)]
    + [f"D{n}" for n in range(4, 9)]
    + ["E6", "E7", "E8", "F4", "G2"]
)

WEIGHTS_PER_TYPE = 50


def _ok(num: int, message: str):
    print(f"[criterion {num}] PASS: {message}")


@pytest.fixture(scope="module")
def corpus():
    """50 random dominant weights (coordinates in 0..3) per simple type of
    rank <= 8, with their principal characters; built once, reused by the
    property suites."""
    rng = random.Random(20260809)
    data = {}
    start = time.perf_counter()
    for name in ALL_TYPES:
        system = build(CartanType.parse(name))
        entries = []
        for _ in range(WEIGHTS_PER_TYPE):
            lam = DominantWeight(tuple(rng.randint(0, 3) for _ in range(system.rank)))
            entries.append((lam, principal_character(system, lam)))
        data[name] = (system, entries)
    return data, time.perf_counter() - start


def test_criterion_1_g2_adjoint_principal_character():
    start = time.perf_counter()
    system = build(CartanType.parse("G2"))
    pc = principal_character(system, adjoint_weight(system))
    expected = LaurentPoly({
        5: 1, 4: 1, 3: 1, 2: 1, 1: 2, 0: 2, -1: 2, -2: 1, -3: 1, -4: 1, -5: 1
    })
    assert pc.poly_u == expected
    assert pc.poly_u == (cyclotomic(7) * cyclotomic(8)).shift(-5)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _ok(1, f"G2 adjoint equals u^-5 Phi_7 Phi_8, 11 exact coefficients ({elapsed:.3f}s)")


def test_criterion_2_restriction_factorizations():
    start = time.perf_counter()
    h = g2_adjoint_poly()
    cf3 = cyclo_factor(h.restrict(1, 3))
    assert cf3.shift == 0
    assert cf3.factors == ((7, 1), (8, 1), (15, 1))
    assert cf3.remainder == 1

    cf11 = cyclo_factor(h.restrict(1, 11))
    assert dict(cf11.factors) == {8: 1, 42: 1}
    degree_34_remainder = LaurentPoly({
        34: 1, 33: -1, 32: 1, 30: -1, 29: 1, 28: -1, 27: 1, 24: 1, 21: 1,
        18: 1, 17: -1, 16: 1, 13: 1, 10: 1, 7: 1, 6: -1, 5: 1, 4: -1,
        2: 1, 1: -1, 0: 1,
    })
    assert cf11.remainder == degree_34_remainder
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _ok(2, f"H(x,x^3) = Phi_7 Phi_8 Phi_15; H(x,x^11) = Phi_8 Phi_42 F, "
           f"F frozen coefficient-for-coefficient ({elapsed:.3f}s)")


def test_criterion_3_seven_variant_table():
    start = time.perf_counter()
    report = solve(g2_adjoint_poly())
    assert report.element_orders() == (7, 8, 15, 42)
    expected_columns = {
        1: ({2, 4}, {8}),
        2: ({8}, {2, 4}),
        3: ({8}, {8}),
        4: ({3, 7, 15}, {5, 7}),
        5: ({7}, {2, 42}),
        6: ({42}, {3}),
        7: ({42}, {2, 42}),
    }
    for i, xs, ys in report.variant_columns:
        assert (set(xs), set(ys)) == expected_columns[i], f"variant {i}"
    assert report.positive_dimensional == ()
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _ok(3, f"element orders exactly {{7, 8, 15, 42}} and all seven "
           f"resultant columns match the reference table ({elapsed:.2f}s)")


def test_criterion_4_weyl_dimension_spot_values():
    g2 = build(CartanType.parse("G2"))
    assert weyl_dim(g2, adjoint_weight(g2)) == 14
    a1 = build(CartanType.parse("A1"))
    for n in range(1, 21):
        assert weyl_dim(a1, DominantWeight((n - 1,))) == n
    _ok(4, "weyl_dim(G2, adjoint) = 14 and weyl_dim(A1, n-1) = n for n <= 20")


def test_criterion_5_tensor_identity_suite(corpus):
    data, build_seconds = corpus
    start = time.perf_counter()
    checked = 0
    for name in ALL_TYPES:
        system, entries = data[name]
        for lam, pc in entries:
            assert tensor_identity_check(system, lam, pc), f"{name} {lam}"
            checked += 1
    elapsed = time.perf_counter() - start + build_seconds
    assert checked == len(ALL_TYPES) * WEIGHTS_PER_TYPE
    assert elapsed < 60.0
    _ok(5, f"tensor identity exact for {checked} (type, weight) pairs "
           f"across {len(ALL_TYPES)} types ({elapsed:.1f}s incl. character builds)")


def test_criterion_6_unit_remainder_suite(corpus):
    data, _ = corpus
    checked = 0
    for name in ALL_TYPES:
        _, entries = data[name]
        for lam, pc in entries:
            if lam.is_zero():
                continue
            # factor the dense polynomial independently of the exponent-count
            # formula in zero_orders, then hold the formula to the factoring
            cf = cyclo_factor(pc.natural_poly())
            assert cf.remainder.is_unit_constant(), f"{name} {lam}: {cf.remainder}"
            assert cf.factors, f"{name} {lam}: no cyclotomic factors"
            assert list(cf.factors) == zero_orders(pc), f"{name} {lam}"
            checked += 1
    assert checked > 1500
    _ok(6, f"cyclotomic factorization has unit remainder for all {checked} "
           f"nonzero-weight characters")


def test_criterion_7_guaranteed_zero_orders(corpus):
    data, _ = corpus
    checked = 0
    for name in ALL_TYPES:
        system, entries = data[name]
        for lam, pc in entries:
            if lam.is_zero():
                continue
            m = explicit_zero_order(system, lam, pc)
            assert divides_cyclotomic(pc.poly_t, m), f"{name} {lam}: Phi_{m}"
            numer = list(pc.numerator_exponents)
            denom = list(pc.denominator_exponents)
            ell, e = prime_power_zero(numer, denom)
            shift = sum(numer) - sum(denom)
            quotient = pc.poly_t.shift(shift).compress(2)
            assert divides_cyclotomic(quotient, ell ** e), \
                f"{name} {lam}: Phi_{ell}^{e}"
            checked += 1
    _ok(7, f"Phi_m and the prime-power Phi divide exactly, {checked} characters")


def test_criterion_8_positivity_suite():
    rng = random.Random(5081)

    def random_symmetric():
        half = {e: rng.randint(-4, 4) for e in range(0, rng.randint(1, 6))}
        coeffs = {}
        for e, c in half.items():
            coeffs[e] = c
            coeffs[-e] = c
        return SymmetricLaurent(coeffs)

    def direct_sums(f, m):
        def value_at(j, modulus):
            vec = [0] * modulus
            for e, c in f.poly.coeffs.items():
                vec[(e * j) % modulus] += c
            return CycloElement(modulus, vec)
        plus = CycloElement.from_int(m, 0)
        for j in range(m):
            plus = plus + value_at(j, m)
        minus = CycloElement.from_int(2 * m, 0)
        for j in range(1, 2 * m, 2):
            minus = minus + value_at(j, 2 * m)
        return plus.rational_value(), minus.rational_value()

    formula_checked = 0
    while formula_checked < 200:
        f = random_symmetric()
        m = rng.randint(1, 8)
        top = f.poly.max_exp if not f.poly.is_zero() else 0
        if any(f.a(n) for n in range(2 * m, top + 1, m)):
            continue
        assert partial_sums(f, m) == direct_sums(f, m)
        formula_checked += 1

    bound_checked = 0
    while bound_checked < 200:
        h = LaurentPoly({e: rng.randint(-3, 3) for e in range(0, 4)})
        if h.is_zero():
            continue
        f = SymmetricLaurent(h * h.mirror())
        if f.poly.is_constant():
            continue
        m = f.poly.max_exp
        assert 2 * abs(f.a(m)) <= f.a(0)
        bound_checked += 1

    for m in range(1, 51):
        assert classify_a0_2(SymmetricLaurent(g_plus(m))) == (m, "+")
        assert classify_a0_2(SymmetricLaurent(g_minus(m))) == (m, "-")
    for n in range(1, 51):
        g = sl2_character(n)
        assert su2_decompose(SymmetricLaurent(g * g)) == n
    _ok(8, "partial-sum identity on 200 instances, positivity bound on 200, "
           "classification and square-decomposition round-trips to 50")


def test_criterion_9_psl27_class_data():
    classes = psl2_classes(7)
    assert classes == [(1, 1), (2, 21), (3, 56), (4, 42), (7, 24), (7, 24)]
    value_by_order = {1: 9, 2: 1, 3: 0, 4: 1, 7: 2}
    cf = FiniteClassFunction.from_rational(
        [size for _, size in classes],
        [value_by_order[order] for order, _ in classes],
    )
    assert cf.group_order == 168
    report = finite_s_check(cf)
    assert report.is_positive and report.mean_is_one
    assert not report.is_trivial
    assert report.zero_classes, "a nontrivial S-character must vanish somewhere"
    assert {classes[i][0] for i in report.zero_classes} == {3}
    _ok(9, "PSL2(F7) data (sizes by brute-force enumeration) passes both "
           "axioms and vanishes on the order-3 class")
