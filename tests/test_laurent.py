import functools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclochar import _dense
from cyclochar.laurent import (
    BiLaurentPoly,
    CycloElement,
    LaurentPoly,
    _cyclotomic_at,
    _packing_bits,
    _unpack,
    cos_basis,
    cos_expand,
    cos_minimal_poly,
    cyclo_factor,
    cyclo_index_limit,
    cyclotomic,
    divides_cyclotomic,
    euler_phi,
    eval_at_roots,
    phi_table,
    resultant,
)
from cyclochar.errors import InexactDivision, ZeroPolynomial
from cyclochar.principal import principal_character
from cyclochar.rootsys import DominantWeight, adjoint_weight, build
from test_rootsys import types_up_to_rank

T = LaurentPoly.variable()

H = BiLaurentPoly({
    (6, 4): 1,
    (6, 3): 1, (5, 3): 1, (4, 3): 1, (3, 3): 1,
    (4, 2): 1, (3, 2): 2, (2, 2): 1,
    (3, 1): 1, (2, 1): 1, (1, 1): 1,
    (0, 1): 1,
    (0, 0): 1,
})


def laurent_polys(max_exp=6, max_coeff=9, nonzero=False):
    strat = st.dictionaries(
        st.integers(-max_exp, max_exp),
        st.integers(-max_coeff, max_coeff),
        max_size=7,
    ).map(LaurentPoly)
    if nonzero:
        strat = strat.filter(lambda p: not p.is_zero())
    return strat


class TestArithmetic:
    def test_binomial_square(self):
        f = T + T ** -1
        assert f * f == LaurentPoly({2: 1, 0: 2, -2: 1})

    def test_mul_by_zero(self):
        f = LaurentPoly({3: 2, -1: 5})
        assert f * LaurentPoly.zero() == LaurentPoly.zero()
        assert (f * 0).is_zero()

    def test_shifted_cyclotomic_product(self):
        # coefficient list of u^-5 Phi_7(u) Phi_8(u)
        p = (cyclotomic(7) * cyclotomic(8)).shift(-5)
        assert p == LaurentPoly({
            5: 1, 4: 1, 3: 1, 2: 1, 1: 2, 0: 2, -1: 2, -2: 1, -3: 1, -4: 1, -5: 1
        })

    def test_sub_and_neg(self):
        f = LaurentPoly({1: 2, 0: -3})
        assert f - f == 0
        assert -f + f == 0
        assert 1 - LaurentPoly.one() == 0

    def test_pow(self):
        assert (T + 1) ** 3 == LaurentPoly({3: 1, 2: 3, 1: 3, 0: 1})
        assert T ** -4 == LaurentPoly({-4: 1})
        assert (T + 1) ** 0 == 1

    def test_mirror_stretch_compress(self):
        f = LaurentPoly({2: 3, -1: 4})
        assert f.mirror() == LaurentPoly({-2: 3, 1: 4})
        assert f.stretch(3) == LaurentPoly({6: 3, -3: 4})
        assert f.stretch(2).compress(2) == f
        with pytest.raises(ValueError):
            f.compress(2)

    def test_divexact(self):
        num = cyclotomic(7) * cyclotomic(8) * LaurentPoly({-3: 5})
        assert num.divexact(cyclotomic(8)) == cyclotomic(7) * LaurentPoly({-3: 5})
        with pytest.raises(InexactDivision):
            (T + 2).divexact(T + 1)

    @given(laurent_polys(), laurent_polys(), laurent_polys())
    def test_ring_axioms(self, f, g, h):
        assert f * (g + h) == f * g + f * h
        assert f * g == g * f
        assert (f * g) * h == f * (g * h)

    @given(laurent_polys(nonzero=True), laurent_polys(nonzero=True))
    def test_divexact_roundtrip(self, f, g):
        assert (f * g).divexact(g) == f


class TestCyclotomic:
    def test_small_values(self):
        assert cyclotomic(1) == T - 1
        assert cyclotomic(2) == T + 1
        assert cyclotomic(8) == LaurentPoly({4: 1, 0: 1})
        assert cyclotomic(15) == LaurentPoly(
            {8: 1, 7: -1, 5: 1, 4: -1, 3: 1, 1: -1, 0: 1}
        )
        assert cyclotomic(42) == LaurentPoly(
            {12: 1, 11: 1, 9: -1, 8: -1, 6: 1, 4: -1, 3: -1, 1: 1, 0: 1}
        )

    def test_degree_is_phi(self):
        for d in range(1, 60):
            assert cyclotomic(d).max_exp == euler_phi(d)

    def test_product_over_divisors(self):
        for n in (6, 12, 20):
            prod = LaurentPoly.one()
            for d in range(1, n + 1):
                if n % d == 0:
                    prod = prod * cyclotomic(d)
            assert prod == LaurentPoly({n: 1, 0: -1})

    def test_phi_table_matches_trial(self):
        table = phi_table(500)
        for n in range(1, 501):
            assert table[n] == euler_phi(n)

    def test_index_limit_covers_all(self):
        # every d with phi(d) <= D must satisfy d <= limit
        table = phi_table(3000)
        for bound in (1, 4, 10, 50):
            limit = cyclo_index_limit(bound)
            for d in range(limit + 1, 3001):
                assert table[d] > bound


class TestCycloFactor:
    def test_phi8(self):
        cf = cyclo_factor(LaurentPoly({4: 1, 0: 1}))
        assert cf.shift == 0
        assert cf.factors == ((8, 1),)
        assert cf.remainder == 1

    def test_pure_monomial(self):
        cf = cyclo_factor(LaurentPoly({3: 1}))
        assert (cf.shift, cf.factors, cf.remainder) == (3, (), LaurentPoly.one())

    def test_restriction_y_eq_x3(self):
        cf = cyclo_factor(H.restrict(1, 3))
        assert cf.factors == ((7, 1), (8, 1), (15, 1))
        assert cf.remainder == 1

    def test_zero_rejected(self):
        with pytest.raises(ZeroPolynomial):
            cyclo_factor(LaurentPoly.zero())

    def test_multiplicities(self):
        f = cyclotomic(4) ** 3 * cyclotomic(1) * LaurentPoly({-2: 7})
        cf = cyclo_factor(f)
        assert cf.shift == -2
        assert cf.factors == ((1, 1), (4, 3))
        assert cf.remainder == LaurentPoly({0: 7})
        assert cf.reassemble() == f

    def test_content_and_sign_stay_in_remainder(self):
        f = LaurentPoly({1: -2, 0: 2})  # -2(t - 1)
        cf = cyclo_factor(f)
        assert cf.factors == ((1, 1),)
        assert cf.remainder == LaurentPoly({0: -2})

    @given(
        st.lists(st.sampled_from([1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 15]),
                 min_size=0, max_size=4),
        st.integers(-5, 5),
        laurent_polys(max_exp=3, nonzero=True),
    )
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_random_products(self, indices, shift, noise):
        # scrub the noise factor of its own cyclotomic content first
        base = cyclo_factor(noise)
        remainder = base.remainder
        expected: dict[int, int] = {}
        prod = remainder.shift(shift)
        for d in indices:
            prod = prod * cyclotomic(d)
            expected[d] = expected.get(d, 0) + 1
        cf = cyclo_factor(prod)
        assert cf.shift == shift
        assert dict(cf.factors) == expected
        assert cf.remainder == remainder
        assert cf.reassemble() == prod

    @given(laurent_polys(nonzero=True))
    @settings(max_examples=60, deadline=None)
    def test_remainder_purity(self, f):
        cf = cyclo_factor(f)
        rem = cf.remainder
        assert rem.min_exp == 0
        deg = rem.max_exp
        for d in range(1, cyclo_index_limit(deg) + 1):
            if euler_phi(d) <= deg:
                assert not rem.divisible_by(cyclotomic(d))
        assert cf.reassemble() == f

    def test_divides_cyclotomic_matches_division(self):
        f = cyclotomic(12) * cyclotomic(5) * (T + 2)
        for d in (1, 2, 3, 4, 5, 6, 12, 60):
            assert divides_cyclotomic(f, d) == f.divisible_by(cyclotomic(d))


def cyclo_factor_reference(f):
    """(shift, factors, remainder) by schoolbook division: for each d in
    ascending order, divide by cyclotomic(d) while divisible_by holds."""
    shift, p = f.dense()
    rem = LaurentPoly.from_dense(0, p)
    factors = []
    for d in range(1, cyclo_index_limit(rem.max_exp) + 1):
        phi = cyclotomic(d)
        mult = 0
        while phi.max_exp <= rem.max_exp and rem.divisible_by(phi):
            rem = rem.divexact(phi)
            mult += 1
        if mult:
            factors.append((d, mult))
    return shift, tuple(factors), rem


class TestCycloFactorReference:
    def test_seeded_products_of_cyclotomics_and_noise(self):
        rng = random.Random(17)
        for _ in range(400):
            f = LaurentPoly({e: rng.randint(-3, 3) for e in range(rng.randint(0, 4) + 1)})
            if f.is_zero():
                f = LaurentPoly.one()
            for _ in range(rng.randint(0, 5)):
                f = f * cyclotomic(rng.randint(1, 30))
            f = f.shift(rng.randint(-4, 4))
            cf = cyclo_factor(f)
            assert (cf.shift, cf.factors, cf.remainder) == cyclo_factor_reference(f), f

    def test_binomial_product_certifies_exactness(self):
        assert _dense.binomial_product([1], [6, 1], [3, 2]) == [1, -1, 1]  # Phi_6
        with pytest.raises(InexactDivision):
            _dense.binomial_product([1, 1], [], [2])

    def test_principal_polynomials_of_every_type_up_to_rank_8(self):
        rng = random.Random(8)
        types = types_up_to_rank(8)
        assert len(types) == 32
        for ctype in types:
            rs = build(ctype)
            first = DominantWeight((1,) + (0,) * (ctype.rank - 1))
            seeded = DominantWeight(tuple(rng.randint(0, 1) for _ in range(ctype.rank)))
            for weight in (adjoint_weight(rs), first, seeded):
                f = principal_character(rs, weight).natural_poly()
                cf = cyclo_factor(f)
                assert (cf.shift, cf.factors, cf.remainder) == cyclo_factor_reference(f), (ctype, weight)
                assert cf.remainder == 1


class TestBivariate:
    def test_substitutions(self):
        h1 = H.substitute(y_sign=-1)
        for (i, j), c in H.coeffs.items():
            assert h1.coefficient(i, j) == (-c if j % 2 else c)
        h4 = H.substitute(x_pow=2, y_pow=2)
        assert h4.coeffs == {(2 * i, 2 * j): c for (i, j), c in H.coeffs.items()}
        assert H.substitute() == H

    def test_substitution_is_homomorphism(self):
        f = BiLaurentPoly({(1, 0): 1, (0, 2): -3, (-1, 1): 2})
        g = BiLaurentPoly({(0, 1): 1, (2, -1): 5})
        for kwargs in ({"x_sign": -1}, {"y_sign": -1, "y_pow": 2}, {"x_pow": 2, "y_pow": 2}):
            assert (f * g).substitute(**kwargs) == f.substitute(**kwargs) * g.substitute(**kwargs)

    def test_restrict(self):
        assert H.restrict(1, 3) == LaurentPoly({
            18: 1, 15: 1, 14: 1, 13: 1, 12: 1, 10: 1, 9: 2, 8: 1,
            6: 1, 5: 1, 4: 1, 3: 1, 0: 1,
        })
        assert H.restrict(0, 0) == LaurentPoly({0: 14})

    def test_restriction_y_eq_x11(self):
        r = H.restrict(1, 11)
        assert r == LaurentPoly({
            50: 1, 39: 1, 38: 1, 37: 1, 36: 1, 26: 1, 25: 2, 24: 1,
            14: 1, 13: 1, 12: 1, 11: 1, 0: 1,
        })

    def test_monomial_split(self):
        h = BiLaurentPoly({(-1, 2): 3, (0, 3): -1})
        i0, j0, part = h.monomial_split()
        assert (i0, j0) == (-1, 2)
        assert part == BiLaurentPoly({(0, 0): 3, (1, 1): -1})


class TestResultant:
    def test_linear_elimination(self):
        f = BiLaurentPoly({(1, 0): 1, (0, 1): -1})       # x - y
        g = BiLaurentPoly({(2, 0): 1, (0, 1): -1})       # x^2 - y
        assert resultant(f, g, "x") == LaurentPoly({2: 1, 1: -1})  # y^2 - y

    def test_res_h_h4_cyclotomic_factors(self):
        h4 = H.substitute(x_pow=2, y_pow=2)
        res = resultant(H, h4, "x")  # eliminate x: polynomial in y
        assert set(cyclo_factor(res).indices()) == {5, 7}

    def test_res_h_h1_cyclotomic_factors(self):
        h1 = H.substitute(y_sign=-1)
        res = resultant(H, h1, "y")  # eliminate y: polynomial in x
        assert set(cyclo_factor(res).indices()) == {2, 4}

    def test_operand_free_of_the_eliminated_variable(self):
        # the Sylvester matrix of a0(x) and g of y-degree 3 is a0 times the
        # 3 x 3 identity, so Res_y = a0^3
        a0 = BiLaurentPoly({(2, 0): 2, (0, 0): -1, (1, 0): 3})  # 2x^2 + 3x - 1
        g = BiLaurentPoly({(0, 3): 1, (1, 1): -2, (0, 0): 5})  # y^3 - 2xy + 5
        a0_cubed = LaurentPoly({2: 2, 0: -1, 1: 3}) ** 3
        assert resultant(a0, g, "y") == a0_cubed
        assert resultant(a0, g, "y") == resultant_reference(a0, g, "y")
        # Res(g, a0) = (-1)^(3*0) Res(a0, g)
        assert resultant(g, a0, "y") == a0_cubed == resultant_reference(g, a0, "y")

    def test_both_operands_free_of_the_eliminated_variable(self):
        # the empty Sylvester matrix has determinant 1
        f = BiLaurentPoly({(1, 0): 1, (0, 0): -1})  # x - 1
        g = BiLaurentPoly({(3, 0): 4, (0, 0): 7})   # 4x^3 + 7
        assert resultant(f, g, "y") == LaurentPoly({0: 1})
        assert resultant(f, g, "y") == resultant_reference(f, g, "y")
        # eliminating x instead leaves y-constants: Res_x = 4 + 7
        assert resultant(f, g, "x") == LaurentPoly({0: 11}) == resultant_reference(f, g, "x")

    def test_shared_root_vanishing(self):
        # Res_x(x - y, x^2 - y) vanishes exactly where the curves share an
        # x-root: at y = 1 (x = 1) and y = 0 (x = 0)
        f = BiLaurentPoly({(1, 0): 1, (0, 1): -1})
        g = BiLaurentPoly({(2, 0): 1, (0, 1): -1})
        res = resultant(f, g, "x")
        assert res.coefficient_sum() == 0
        assert res.coefficient(0) == 0
        assert res.coefficient(2) != 0


def bareiss_reference(m: list[list[list[int]]], swaps: list) -> list[int]:
    """Fraction-free Bareiss determinant of a matrix of dense Z[x] entries,
    the entries kept as polynomials; appends one item to swaps per row swap.
    The empty matrix has determinant 1."""
    n = len(m)
    if not n:
        return [1]
    sign = 1
    prev = [1]
    for k in range(n - 1):
        if not m[k][k]:
            for r in range(k + 1, n):
                if m[r][k]:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    swaps.append(k)
                    break
            else:
                return []
        pivot = m[k][k]
        for i in range(k + 1, n):
            left = m[i][k]
            row_i = m[i]
            row_k = m[k]
            for j in range(k + 1, n):
                num = _dense.sub(_dense.mul(pivot, row_i[j]), _dense.mul(left, row_k[j]))
                row_i[j] = _dense.divexact(num, prev) if num else []
            row_i[k] = []
        prev = pivot
    det = m[n - 1][n - 1]
    return [-c for c in det] if sign < 0 else list(det)


def resultant_reference(h, g, eliminate, swaps=None) -> LaurentPoly:
    """The Sylvester determinant with polynomial entries, by bareiss_reference."""
    a = h.monomial_split()[2].coefficient_lists(eliminate)
    b = g.monomial_split()[2].coefficient_lists(eliminate)
    da, db = len(a) - 1, len(b) - 1
    n = da + db
    rows = []
    for r in range(db):
        row = [[] for _ in range(n)]
        for i, c in enumerate(a):
            row[r + da - i] = list(c)
        rows.append(row)
    for r in range(da):
        row = [[] for _ in range(n)]
        for i, c in enumerate(b):
            row[r + db - i] = list(c)
        rows.append(row)
    return LaurentPoly.from_dense(0, bareiss_reference(rows, [] if swaps is None else swaps))


def random_bivariate(rng, signs=(-1, 1), terms=(2, 6), degree=4, coeff=9) -> BiLaurentPoly:
    out = {}
    for _ in range(rng.randint(*terms)):
        out[(rng.randint(0, degree), rng.randint(0, degree))] = rng.randint(1, coeff) * rng.choice(signs)
    return BiLaurentPoly(out)


def packing_bits(h, g, eliminate) -> int:
    return _packing_bits(h.monomial_split()[2].coefficient_lists(eliminate),
                         g.monomial_split()[2].coefficient_lists(eliminate))


class TestPackedResultant:
    """resultant() packs the Sylvester entries at x = 2^K and runs Bareiss on
    integers; the reference keeps polynomial entries throughout."""

    @staticmethod
    def pairs(seed: int, count: int, **kw):
        rng = random.Random(seed)
        for _ in range(count):
            h, g = random_bivariate(rng, **kw), random_bivariate(rng, **kw)
            for eliminate in "xy":
                if h.degree_in(eliminate) and g.degree_in(eliminate):
                    yield h, g, eliminate

    def test_matches_polynomial_bareiss(self):
        checked = 0
        for h, g, eliminate in self.pairs(14, 150):
            assert resultant(h, g, eliminate) == resultant_reference(h, g, eliminate), \
                (str(h), str(g), eliminate)
            checked += 1
        assert checked > 200

    def test_zero_pivots_force_row_swaps(self):
        # h = x g + c with c free of x: the first b-row of the Sylvester
        # matrix repeats the a-row up to its last entry, so elimination
        # leaves zero pivots, and the reference swaps rows there
        rng = random.Random(15)
        swapped = 0
        for _ in range(60):
            g = random_bivariate(rng, terms=(2, 4), degree=3)
            for eliminate, shift in (("x", (1, 0)), ("y", (0, 1))):
                c = BiLaurentPoly({(shift[1] * e, shift[0] * e): rng.choice((-2, -1, 1, 2))
                                   for e in rng.sample(range(4), 2)})
                h = BiLaurentPoly.term(1, *shift) * g + c
                if not g.monomial_split()[2].degree_in(eliminate):
                    continue
                swaps = []
                ref = resultant_reference(h, g, eliminate, swaps)
                swapped += bool(swaps)
                assert resultant(h, g, eliminate) == ref, (str(h), str(g), eliminate)
        assert swapped >= 100

    def test_identically_vanishing(self):
        rng = random.Random(16)
        for _ in range(40):
            f = random_bivariate(rng, terms=(2, 3), degree=2)
            h = f * random_bivariate(rng, terms=(1, 3), degree=2)
            g = f * random_bivariate(rng, terms=(1, 3), degree=2)
            for eliminate in "xy":
                if not f.monomial_split()[2].degree_in(eliminate):
                    continue
                assert resultant(h, g, eliminate).is_zero()
                assert resultant_reference(h, g, eliminate).is_zero()

    def test_balanced_digits_near_half(self):
        for k in (2, 3, 8, 61, 64, 200):
            top = (1 << (k - 1)) - 1
            for digits in ([top], [-top], [-top, top, -top], [1, -top, 0, top],
                           [-1, 0, 0, -top], [top, -1], [0, 0, -1]):
                value = sum(c << (k * i) for i, c in enumerate(digits))
                assert _unpack(value, k) == _dense.trim(list(digits))
        assert _unpack(0, 5) == []

    def test_negative_coefficients_near_bound(self):
        # the digit extraction must carry a borrow through coefficients just
        # inside -2^(K-1)
        near = 0
        for h, g, eliminate in self.pairs(17, 600):
            res = resultant(h, g, eliminate)
            half = 1 << (packing_bits(h, g, eliminate) - 1)
            if any(c <= -half // 2 for c in res.coeffs.values()):
                near += 1
                assert res == resultant_reference(h, g, eliminate), (str(h), str(g), eliminate)
        assert near >= 10

    def test_bound_on_same_sign_inputs(self):
        # with every coefficient positive the values on |x| = 1 peak at x = 1
        # and the Hadamard bound is nearly reached: within a factor 2 at times
        tight = 0
        for h, g, eliminate in self.pairs(18, 600, signs=(1,)):
            res = resultant_reference(h, g, eliminate)
            half = 1 << (packing_bits(h, g, eliminate) - 1)
            assert all(abs(c) < half for c in res.coeffs.values())
            tight += any(abs(c) >= half // 2 for c in res.coeffs.values())
            assert resultant(h, g, eliminate) == res
        assert tight >= 10


class TestCycloElement:
    def test_h_vanishes_at_order_7(self):
        assert eval_at_roots(H, 7, 1, 3).is_zero()

    def test_value_at_one(self):
        v = eval_at_roots(H, 1, 1, 1)
        assert v.rational_value() == 14

    def test_coefficient_sum_via_modulus_one(self):
        h = BiLaurentPoly({(2, -1): 3, (0, 0): -5})
        assert eval_at_roots(h, 1, 0, 0).rational_value() == -2

    def test_ring_ops(self):
        a = CycloElement(5, [0, 1])        # z
        b = a.conjugate()                  # z^4
        s = a + b                          # z + z^4 = 2cos(72) as an algebraic number
        assert s.is_real() and not s.is_rational()
        assert (a * b).rational_value() == 1
        four = a * a * a * a * a
        assert four.rational_value() == 1  # z^5 = 1

    def test_zero_test_is_exact(self):
        # 1 + z + z^2 + z^3 + z^4 = 0 in Z[z]/Phi_5
        v = CycloElement(5, [1, 1, 1, 1, 1])
        assert v.is_zero()

    def test_galois_stability_of_zeros(self):
        # integer coefficients: (a, b) a zero iff (ja, jb) is, for j coprime
        for j in (1, 2, 3, 4, 5, 6):
            assert eval_at_roots(H, 7, j, (3 * j) % 7).is_zero()
        for j in (1, 5, 11, 13, 41):
            assert eval_at_roots(H, 42, j, (11 * j) % 42).is_zero()
        assert not eval_at_roots(H, 7, 1, 2).is_zero()
        for j in (2, 3, 4, 5, 6):
            assert not eval_at_roots(H, 7, j, (2 * j) % 7).is_zero()


class TestCosMinimalPoly:
    def test_small_orders(self):
        assert cos_minimal_poly(1) == (-2, 1)
        assert cos_minimal_poly(2) == (2, 1)
        assert cos_minimal_poly(3) == (1, 1)       # s = -1
        assert cos_minimal_poly(4) == (0, 1)       # s = 0
        assert cos_minimal_poly(5) == (-1, 1, 1)   # s^2 + s - 1
        assert cos_minimal_poly(6) == (-1, 1)      # s = 1
        assert cos_minimal_poly(7) == (-1, -2, 1, 1)

    def test_degree(self):
        for n in range(3, 40):
            assert len(cos_minimal_poly(n)) - 1 == euler_phi(n) // 2

    def test_root_numerically(self):
        import math
        for n in (5, 7, 9, 12, 15):
            coeffs = cos_minimal_poly(n)
            s = 2 * math.cos(2 * math.pi / n)
            value = sum(c * s ** i for i, c in enumerate(coeffs))
            assert abs(value) < 1e-9


@functools.lru_cache(maxsize=None)
def _ref_cyclotomic(d):
    """Phi_d by the recursion the Moebius product replaced: exact division
    of t**d - 1 by Phi_e for every proper divisor e."""
    p = [-1] + [0] * (d - 1) + [1]
    for e in range(1, d):
        if d % e == 0:
            p = _dense.divexact(p, list(_ref_cyclotomic(e)))
    return tuple(p)


class TestMobiusCyclotomic:
    def test_matches_divisor_recursion(self):
        for d in range(1, 301):
            assert cyclotomic(d).dense() == (0, list(_ref_cyclotomic(d))), d

    def test_integer_points(self):
        for d in range(1, 200):
            for s in (2, 3, 5):
                assert _cyclotomic_at(d, s) == _dense.evaluate(_ref_cyclotomic(d), s)

    def test_large_index_is_one_build(self):
        cyclotomic.cache_clear()
        phi = cyclotomic(10002)
        assert cyclotomic.cache_info().misses == 1
        assert phi.min_exp == 0 and phi.max_exp == euler_phi(10002)
        assert phi.coefficient(euler_phi(10002)) == 1


class TestCosExpand:
    def test_minimal_poly_matches_old_loop(self):
        for n in range(3, 81):
            a = _ref_cyclotomic(n)
            k = (len(a) - 1) // 2
            out = [0] * (k + 1)
            out[0] = a[k]
            for j in range(1, k + 1):
                for i, c in enumerate(cos_basis(j)):
                    out[i] += a[k + j] * c
            assert cos_minimal_poly(n) == tuple(out), n

    def test_linear_and_trimmed(self):
        assert cos_expand([]) == []
        assert cos_expand([0, 0]) == []
        assert cos_expand([2, 0, 1]) == [0, 0, 1]  # 2 + z^2 + z^-2 = s^2
        assert cos_expand([3, 0, 0, 0, 0, 1]) == [3] + list(cos_basis(5)[1:])
        a, b = [1, -2, 0, 3], [4, 1, 1]
        total = [x + y for x, y in zip(a, b + [0])]
        assert cos_expand(total) == _dense.sub(cos_expand(a), [-c for c in cos_expand(b)])
        assert cos_expand([5 * c for c in a]) == [5 * c for c in cos_expand(a)]
