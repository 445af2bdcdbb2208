import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclochar.errors import (
    InexactDivision,
    NonCyclotomicRemainder,
    ProductNotLarger,
    ZeroWeight,
)
from cyclochar.laurent import LaurentPoly, cyclo_factor, cyclotomic, divides_cyclotomic
from cyclochar.principal import (
    binomial_quotient,
    explicit_zero_order,
    prime_power_zero,
    principal_character,
    sl2_character,
    t_orders,
    tensor_identity_check,
    zero_orders,
)
from cyclochar.rootsys import CartanType, DominantWeight, adjoint_weight, build, weyl_dim

ALL_TYPES = (
    [f"A{n}" for n in range(1, 9)]
    + [f"B{n}" for n in range(2, 9)]
    + [f"C{n}" for n in range(2, 9)]
    + [f"D{n}" for n in range(4, 9)]
    + ["E6", "E7", "E8", "F4", "G2"]
)


def rs(name):
    return build(CartanType.parse(name))


class TestPrincipalCharacter:
    def test_g2_adjoint_eleven_terms(self):
        pc = principal_character(rs("G2"), adjoint_weight(rs("G2")))
        assert pc.epsilon_trivial
        assert pc.poly_u == LaurentPoly({
            5: 1, 4: 1, 3: 1, 2: 1, 1: 2, 0: 2, -1: 2, -2: 1, -3: 1, -4: 1, -5: 1
        })
        assert pc.poly_u == (cyclotomic(7) * cyclotomic(8)).shift(-5)
        assert pc.dimension() == 14

    def test_a1_series_is_sl2_character(self):
        system = rs("A1")
        for n in range(1, 12):
            pc = principal_character(system, DominantWeight((n - 1,)))
            assert pc.poly_t == sl2_character(n)

    def test_trivial_weight(self):
        for name in ("A1", "B3", "G2"):
            system = rs(name)
            pc = principal_character(system, DominantWeight((0,) * system.rank))
            assert pc.poly_t == 1

    def test_exponent_lists_g2(self):
        pc = principal_character(rs("G2"), adjoint_weight(rs("G2")))
        assert sorted(pc.numerator_exponents) == [1, 2, 3, 5, 7, 8]
        assert sorted(pc.denominator_exponents) == [1, 1, 2, 3, 4, 5]

    def test_value_at_one_is_dimension(self):
        system = rs("C3")
        lam = DominantWeight((1, 0, 2))
        pc = principal_character(system, lam)
        assert pc.poly_t.coefficient_sum() == weyl_dim(system, lam)

    def test_even_exponents_when_epsilon_trivial(self):
        system = rs("F4")
        pc = principal_character(system, DominantWeight((1, 0, 0, 1)))
        assert pc.epsilon_trivial
        assert all(e % 2 == 0 for e in pc.poly_t.coeffs)
        assert pc.poly_u is not None
        assert pc.poly_u.stretch(2) == pc.poly_t


class TestBinomialQuotient:
    def test_simple(self):
        # (t^6-1)(t^4-1)/((t^3-1)(t^2-1)) = (t^3+1)(t^2+1)
        q = binomial_quotient([6, 4], [3, 2])
        assert q == LaurentPoly({5: 1, 3: 1, 2: 1, 0: 1})
        assert divides_cyclotomic(q, 2)

    def test_not_polynomial(self):
        with pytest.raises(InexactDivision):
            binomial_quotient([3], [2])

    def test_cancelled_exponents_keep_inexact_quotients(self):
        with pytest.raises(InexactDivision):
            binomial_quotient([6], [4])
        with pytest.raises(InexactDivision):
            binomial_quotient([2, 6], [2, 4])

    def test_cancellation_leaves_quotient_unchanged(self):
        assert binomial_quotient([3, 6, 4], [3, 2]) == binomial_quotient([6, 4], [2])
        assert binomial_quotient([5, 5], [5, 5]) == LaurentPoly.one()

    @given(st.lists(st.integers(1, 9), min_size=1, max_size=4))
    @settings(max_examples=40, deadline=None)
    def test_multiply_back(self, exponents):
        q = binomial_quotient(exponents + [2 * e for e in exponents], exponents)
        check = q
        for e in exponents:
            check = check * LaurentPoly({e: 1, 0: -1})
        full = LaurentPoly.one()
        for e in exponents + [2 * e for e in exponents]:
            full = full * LaurentPoly({e: 1, 0: -1})
        assert check == full


class TestZeroOrders:
    def test_g2_adjoint(self):
        pc = principal_character(rs("G2"), adjoint_weight(rs("G2")))
        orders = zero_orders(pc)
        assert orders == [(7, 1), (8, 1)]
        assert t_orders(pc, orders) == [14, 16]

    def test_a1_two_dimensional(self):
        pc = principal_character(rs("A1"), DominantWeight((1,)))
        assert zero_orders(pc) == [(4, 1)]
        assert t_orders(pc) == [4]

    def test_a2_standard(self):
        pc = principal_character(rs("A2"), DominantWeight((1, 0)))
        assert pc.poly_t == LaurentPoly({2: 1, 0: 1, -2: 1})
        assert zero_orders(pc) == [(3, 1)]  # orders of u = t^2
        assert t_orders(pc) == [6]

    def test_zero_weight_rejected(self):
        pc = principal_character(rs("A1"), DominantWeight((0,)))
        with pytest.raises(ZeroWeight):
            zero_orders(pc)

    def test_negative_count_rejected(self):
        # (u^3 - 1)/(u^2 - 1) is no polynomial: Phi_2 would have multiplicity -1
        pc = principal_character(rs("A2"), DominantWeight((1, 0)))
        bad = pc._replace(numerator_exponents=(1, 1, 3), denominator_exponents=(1, 1, 2))
        with pytest.raises(NonCyclotomicRemainder):
            zero_orders(bad)

    def test_agrees_with_cyclo_factor_on_random_characters(self):
        # the count formula against factoring the dense polynomial, in u
        # where epsilon is trivial and in t where it is not
        rng = random.Random(2024)
        checked = nontrivial_epsilon = 0
        for name in ALL_TYPES:
            system = rs(name)
            hi = 3 if system.rank <= 5 else 2
            for _ in range(7):
                lam = DominantWeight(tuple(rng.randint(0, hi) for _ in range(system.rank)))
                if lam.is_zero():
                    continue
                pc = principal_character(system, lam)
                cf = cyclo_factor(pc.natural_poly())
                assert cf.remainder.is_unit_constant()
                assert list(cf.factors) == zero_orders(pc), (name, lam)
                checked += 1
                nontrivial_epsilon += not pc.epsilon_trivial
        for n in range(1, 16, 2):  # A1, odd weights: even-dimensional, in t
            pc = principal_character(rs("A1"), DominantWeight((n,)))
            assert list(cyclo_factor(pc.natural_poly()).factors) == zero_orders(pc)
            checked += 1
            nontrivial_epsilon += 1
        assert checked >= 200 and nontrivial_epsilon >= 50


class TestExplicitZeroOrder:
    def test_a1(self):
        assert explicit_zero_order(rs("A1"), DominantWeight((1,))) == 4
        pc = principal_character(rs("A1"), DominantWeight((1,)))
        assert divides_cyclotomic(pc.poly_t, 4)

    def test_a2_standard(self):
        assert explicit_zero_order(rs("A2"), DominantWeight((1, 0))) == 6

    def test_g2_adjoint(self):
        system = rs("G2")
        m = explicit_zero_order(system, adjoint_weight(system))
        assert m == 16
        pc = principal_character(system, adjoint_weight(system))
        assert divides_cyclotomic(pc.poly_t, m)

    def test_zero_weight(self):
        with pytest.raises(ZeroWeight):
            explicit_zero_order(rs("G2"), DominantWeight((0, 0)))


class TestPrimePowerZero:
    def test_smallest_case(self):
        assert prime_power_zero([2], [1]) == (2, 1)

    def test_six_four_over_three_two(self):
        assert prime_power_zero([6, 4], [3, 2]) == (2, 1)
        q = binomial_quotient([6, 4], [3, 2])
        assert divides_cyclotomic(q, 2)

    def test_g2_adjoint_lists(self):
        pc = principal_character(rs("G2"), adjoint_weight(rs("G2")))
        ell, m = prime_power_zero(list(pc.numerator_exponents),
                                  list(pc.denominator_exponents))
        assert ell ** m in (7, 8)

    def test_product_not_larger(self):
        with pytest.raises(ProductNotLarger):
            prime_power_zero([2, 3], [6])
        with pytest.raises(ProductNotLarger):
            prime_power_zero([5], [5])

    def test_odd_prime(self):
        # 9/3: only ell = 3 qualifies, at level m = 2
        assert prime_power_zero([9], [3]) == (3, 2)

    @given(st.lists(st.integers(1, 30), min_size=1, max_size=5),
           st.lists(st.integers(1, 30), min_size=0, max_size=4))
    @settings(max_examples=80, deadline=None)
    def test_guarantee_on_valuations(self, numer, denom):
        pn = pd = 1
        for a in numer:
            pn *= a
        for b in denom:
            pd *= b
        if pn <= pd:
            with pytest.raises(ProductNotLarger):
                prime_power_zero(numer, denom)
            return
        ell, m = prime_power_zero(numer, denom)
        q = ell ** m
        assert sum(1 for a in numer if a % q == 0) > sum(1 for b in denom if b % q == 0)


class TestTensorIdentity:
    def test_a1(self):
        assert tensor_identity_check(rs("A1"), DominantWeight((1,)))

    def test_g2_adjoint_direct_product_oracle(self):
        system = rs("G2")
        lam = adjoint_weight(system)
        pc = principal_character(system, lam)
        lhs = pc.poly_t
        for n in pc.denominator_exponents:
            lhs = lhs * sl2_character(n)
        rhs = LaurentPoly.one()
        for n in pc.numerator_exponents:
            rhs = rhs * sl2_character(n)
        assert lhs == rhs
        assert tensor_identity_check(system, lam, pc)

    def test_b2_random_weights(self):
        rng = random.Random(7)
        system = rs("B2")
        for _ in range(10):
            lam = DominantWeight((rng.randint(0, 3), rng.randint(0, 3)))
            assert tensor_identity_check(system, lam)

    def test_bumped_coefficient_fails(self):
        for name, lam in (("A1", (2,)), ("G2", (1, 1)), ("B3", (0, 1, 2)), ("E6", (1,) * 6)):
            system = rs(name)
            pc = principal_character(system, DominantWeight(lam))
            assert tensor_identity_check(system, pc.weight, pc)
            for e in (min(pc.poly_t.coeffs), 0, max(pc.poly_t.coeffs)):
                bumped = pc._replace(poly_t=pc.poly_t + LaurentPoly.term(1, e))
                assert not tensor_identity_check(system, pc.weight, bumped), (name, e)

    def test_unit_remainder_small_sample(self):
        rng = random.Random(11)
        for name in ("A3", "C2", "D4", "G2"):
            system = rs(name)
            for _ in range(5):
                lam = DominantWeight(tuple(rng.randint(0, 3) for _ in range(system.rank)))
                if lam.is_zero():
                    continue
                pc = principal_character(system, lam)
                cf = cyclo_factor(pc.natural_poly())
                assert cf.remainder.is_unit_constant()
