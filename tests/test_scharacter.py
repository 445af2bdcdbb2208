import math
import pathlib
import random
from decimal import ROUND_FLOOR, Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclochar import _dense, realroots, scharacter
from cyclochar.errors import (
    HypothesisViolated,
    InconsistentClassData,
    IsTrivial,
    NotAnSCharacter,
    NotASquare,
    NotClassifiable,
    NotSymmetric,
)
from cyclochar.laurent import CycloElement, LaurentPoly, cos_basis, cos_expand, cos_minimal_poly
from cyclochar.parsing import parse_univariate
from cyclochar.principal import sl2_character
from cyclochar.scharacter import (
    FiniteClassFunction,
    _fixed_value,
    SymmetricLaurent,
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

from groups import a5_classes, psl2_classes


def sym(text: str) -> SymmetricLaurent:
    return SymmetricLaurent(parse_univariate(text))


def symmetric_polys(max_exp=6, max_coeff=6):
    def build(entries):
        coeffs = {}
        for e, c in entries.items():
            coeffs[e] = c
            coeffs[-e] = c
        return SymmetricLaurent(coeffs)

    return st.dictionaries(
        st.integers(0, max_exp), st.integers(-max_coeff, max_coeff), max_size=5
    ).map(build)


def positive_polys(max_exp=4, max_coeff=4):
    """h * mirror(h) is nonnegative on the circle, symmetric, integral."""
    def build(entries):
        h = LaurentPoly(entries)
        return SymmetricLaurent(h * h.mirror())

    return st.dictionaries(
        st.integers(0, max_exp), st.integers(-max_coeff, max_coeff),
        min_size=1, max_size=4,
    ).map(build).filter(lambda f: not f.poly.is_zero())


class TestSymmetricLaurent:
    def test_rejects_asymmetric(self):
        with pytest.raises(NotSymmetric):
            SymmetricLaurent({1: 1})
        with pytest.raises(NotSymmetric):
            sym("t^-1 + 2 + t + t^2")

    def test_cos_coefficients(self):
        # t + 2 + 1/t -> 2 + 2c
        assert sym("t^-1 + 2 + t").cos_coefficients() == [2, 2]
        # t^2 + 1/t^2 -> 2T_2 = 4c^2 - 2
        assert sym("t^2 + t^-2").cos_coefficients() == [-2, 0, 4]


class TestCosCoefficients:
    def test_matches_old_chebyshev_loop(self):
        rng = random.Random(31)
        for _ in range(200):
            top = rng.randint(0, 12)
            half = {n: rng.randint(-5, 5) for n in range(top + 1)}
            f = SymmetricLaurent({e: c for n, c in half.items() for e in (n, -n)})
            if f.poly.is_zero():
                continue
            m = max(f.poly.max_exp, 0)
            out = [0] * (m + 1)
            out[0] = f.a(0)
            for n in range(1, m + 1):
                for i, q in enumerate(cos_basis(n)):
                    out[i] += f.a(n) * q << i
            while out and out[-1] == 0:
                out.pop()
            assert f.cos_coefficients() == out


class TestPositivity:
    def test_examples(self):
        assert is_positive_on_circle(sym("t + 2 + t^-1")).is_positive
        assert not is_positive_on_circle(sym("t + t^-1")).is_positive
        assert is_positive_on_circle(sym("t^2 + 2 + t^-2")).is_positive

    def test_witness_certifies(self):
        rep = is_positive_on_circle(sym("t + t^-1"))
        a, b = rep.negative_interval
        assert -1 <= a < b <= 1

    @given(positive_polys())
    @settings(max_examples=60, deadline=None)
    def test_norm_squares_are_positive(self, f):
        assert is_positive_on_circle(f).is_positive

    @given(symmetric_polys())
    @settings(max_examples=60, deadline=None)
    def test_agrees_with_dense_sampling(self, f):
        import math
        rep = is_positive_on_circle(f)
        samples = 700
        min_val = min(
            sum(c * math.cos(e * (math.pi * k / samples))
                for e, c in f.poly.coeffs.items())
            for k in range(samples + 1)
        )
        if rep.is_positive:
            assert min_val > -1e-7
        else:
            # a certified negative value exists; sampling cannot contradict a
            # strictly positive minimum
            a, b = rep.negative_interval
            assert min_val < 1e-7


class TestPartialSums:
    def test_examples(self):
        assert partial_sums(sym("t^-1 + 2 + t"), 1) == (4, 0)
        assert partial_sums(sym("t^2 + 2 + t^-2"), 2) == (8, 0)
        assert partial_sums(sym("2"), 5) == (10, 10)

    def test_hypothesis_violated(self):
        with pytest.raises(HypothesisViolated):
            partial_sums(sym("t^4 + t^2 + 1 + t^-2 + t^-4"), 2)

    @staticmethod
    def direct_sums(f: SymmetricLaurent, m: int) -> tuple[int, int]:
        """Independent oracle: exact summation over the 2m-th roots of unity
        inside the cyclotomic ring, roots with t**m = 1 vs t**m = -1."""
        def value_at(j: int, modulus: int) -> CycloElement:
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

    @given(st.dictionaries(st.integers(0, 5), st.integers(-4, 4), max_size=4),
           st.integers(1, 6))
    @settings(max_examples=80, deadline=None)
    def test_formula_equals_direct_summation(self, half, m):
        coeffs = {}
        for e, c in half.items():
            coeffs[e] = c
            coeffs[-e] = c
        f = SymmetricLaurent(coeffs)
        try:
            s_plus, s_minus = partial_sums(f, m)
        except HypothesisViolated:
            return
        assert (s_plus, s_minus) == self.direct_sums(f, m)


class TestPositiveBound:
    @given(positive_polys())
    @settings(max_examples=60, deadline=None)
    def test_top_coefficient_bound(self, f):
        # for positive f with a_n = 0 beyond the top index m: 2|a_m| <= a_0
        if f.poly.is_constant():
            return
        m = f.poly.max_exp
        assert 2 * abs(f.a(m)) <= f.a(0)

    def test_equality_cases_divide(self):
        # when 2 a_m = +-a_0 (with the support hypothesis), division by
        # t^-m + 2 + t^m resp. -t^-m + 2 - t^m is exact
        rng = random.Random(3)
        for _ in range(20):
            h = LaurentPoly({e: rng.randint(-3, 3) for e in range(0, 3)})
            if h.is_zero():
                continue
            base = h * h.mirror()  # positive with constant term > 0
            deg = base.max_exp
            m = deg + 1  # support of the product stays below 2m
            for factor, sign in ((g_plus(m), 1), (g_minus(m), -1)):
                f = SymmetricLaurent(base * factor)
                assert is_positive_on_circle(f).is_positive
                assert 2 * f.a(m) == sign * f.a(0)
                assert f.poly.divexact(factor) == base


class TestClassify:
    def test_plus(self):
        assert classify_a0_2(sym("t^-3 + 2 + t^3")) == (3, "+")

    def test_minus(self):
        assert classify_a0_2(sym("-t^-2 + 2 - t^2")) == (2, "-")

    def test_not_symmetric(self):
        with pytest.raises(NotClassifiable):
            classify_a0_2(parse_univariate("t^-1 + 2 + t + t^2"))

    def test_wrong_constant(self):
        with pytest.raises(NotClassifiable):
            classify_a0_2(sym("t^-1 + 3 + t"))

    def test_not_positive(self):
        # a_0 = 2 and symmetric, but 2 + 2cos(3 theta) - 2cos(theta) dips
        # below zero near theta = pi/3
        with pytest.raises(NotClassifiable):
            classify_a0_2(sym("t^-3 + 2 + t^3 - t - t^-1"))

    def test_roundtrip_up_to_50(self):
        for m in range(1, 51):
            assert classify_a0_2(SymmetricLaurent(g_plus(m))) == (m, "+")
            assert classify_a0_2(SymmetricLaurent(g_minus(m))) == (m, "-")


class TestSU2:
    def test_mean_examples(self):
        assert su2_mean(sym("1")) == 1
        assert su2_mean(sym("t^2 + 2 + t^-2")) == 1
        assert su2_mean(sym("t + t^-1")) == 0

    def test_decompose_trivial(self):
        assert su2_decompose(sym("1")) == 1

    def test_decompose_square_of_two_dim(self):
        assert su2_decompose(sym("t^2 + 2 + t^-2")) == 2

    def test_rejects_bad_mean(self):
        with pytest.raises(NotAnSCharacter):
            su2_decompose(sym("t^2 + 1 + t^-2"))

    def test_rejects_negative(self):
        # mean 1 but takes negative values
        with pytest.raises(NotAnSCharacter):
            su2_decompose(sym("t^3 + 1 + t^-3"))

    def test_roundtrip_up_to_50(self):
        # every integral symmetric polynomial passing both exact gates is the
        # square of some g_n, so the decomposition is total on genuine inputs
        for n in range(1, 51):
            g = sl2_character(n)
            assert su2_decompose(SymmetricLaurent(g * g)) == n

    @staticmethod
    def decompose_positivity_first(f: SymmetricLaurent) -> int:
        """Reference: the decision order that runs the positivity check
        before the exact square test."""
        if su2_mean(f) != 1:
            raise NotAnSCharacter(f"mean is {su2_mean(f)}, not 1")
        if not is_positive_on_circle(f):
            raise NotAnSCharacter("not positive on the unit circle")
        big = f.poly * g_minus(2)
        m = big.max_exp
        if big != g_minus(m) or m % 2:
            raise NotASquare("f * (-t^-2 + 2 - t^2) is not of the form -t^-2n + 2 - t^2n")
        n = m // 2
        g = sl2_character(n)
        if f.poly != g * g:
            raise NotASquare(f"verification f = g_{n}^2 failed")
        return n

    @staticmethod
    def outcome(decompose, f):
        try:
            return "ok", decompose(f)
        except (NotAnSCharacter, NotASquare) as exc:
            return type(exc).__name__, str(exc)

    def test_outcomes_match_positivity_first_order(self):
        squares = [sl2_character(n) * sl2_character(n) for n in range(1, 13)]
        corpus = [SymmetricLaurent(sq) for sq in squares]
        rng = random.Random(44)
        for sq in squares:
            pairs = range(1, sq.max_exp + 3)
            for e in rng.sample(pairs, min(3, len(pairs))):
                for d in (1, -1):
                    corpus.append(SymmetricLaurent(sq + LaurentPoly({e: d, -e: d})))
        for _ in range(300):
            a0 = rng.randint(1, 6)
            coeffs = {0: a0, 2: a0 - 1, -2: a0 - 1}
            for e in rng.sample([1, 3, 4, 5, 6, 7, 8], rng.randint(0, 4)):
                coeffs[e] = coeffs[-e] = rng.randint(-3, 3)
            corpus.append(SymmetricLaurent(coeffs))
        outcomes = []
        for f in corpus:
            got = self.outcome(su2_decompose, f)
            assert got == self.outcome(self.decompose_positivity_first, f), str(f)
            outcomes.append(got[0])
        # both the return path and the positivity rejection are exercised
        assert outcomes.count("ok") > len(squares)
        assert outcomes.count("NotAnSCharacter") > 300

    def test_squares_decided_positive_by_sturm(self):
        # su2_decompose accepts squares without the positivity decision, so
        # the high-degree Sturm path is checked here directly
        for n in (10, 25, 50):
            g = sl2_character(n)
            assert is_positive_on_circle(g * g)


class TestTorusReject:
    def test_basic_rank_two(self):
        rej = torus_reject({(0, 0): 1, (1, 0): 1, (-1, 0): 1})
        assert rej.restriction.a(0) == 1
        a, b = rej.negative_interval
        assert a < b or (a == b) is False

    def test_trivial(self):
        with pytest.raises(IsTrivial):
            torus_reject({(0, 0): 1})

    def test_asymmetric(self):
        with pytest.raises(NotSymmetric):
            torus_reject({(0,): 1, (1,): 1})

    def test_separating_direction_avoids_collisions(self):
        support = {(0, 0): 1, (2, -1): 3, (-2, 1): 3, (1, 1): -2, (-1, -1): -2}
        rej = torus_reject(support)
        assert len(rej.restriction.poly.coeffs) == len(support)

    def test_exponent_zero_only_at_origin(self):
        rej = torus_reject({(0, 0, 0): 1, (1, -2, 1): 2, (-1, 2, -1): 2})
        assert rej.restriction.a(0) == 1


class TestCycloSign:
    def test_rational_fast_path(self):
        assert cyclo_sign(CycloElement.from_int(1, 5)) == 1
        assert cyclo_sign(CycloElement.from_int(1, -5)) == -1
        assert cyclo_sign(CycloElement.from_int(7, 0)) == 0

    def test_golden_values(self):
        z = parse_univariate
        plus = CycloElement.from_laurent(z("2 + t + t^4"), 5)    # (3+sqrt5)/2
        minus = CycloElement.from_laurent(z("2 + t^2 + t^3"), 5)  # (3-sqrt5)/2
        neg = CycloElement.from_laurent(z("t^2 + t^3"), 5)        # 2cos(144) < 0
        assert cyclo_sign(plus) == 1
        assert cyclo_sign(minus) == 1
        assert cyclo_sign(neg) == -1

    def test_nonreal_rejected(self):
        v = CycloElement.from_laurent(parse_univariate("t"), 5)
        with pytest.raises(ValueError):
            cyclo_sign(v)

    def test_agrees_with_float(self):
        import cmath
        rng = random.Random(5)
        for modulus in (5, 7, 8, 9, 12):
            for _ in range(8):
                coeffs = {e: rng.randint(-4, 4) for e in range(modulus)}
                poly = LaurentPoly(coeffs)
                v = CycloElement.from_laurent(poly, modulus)
                v = v + v.conjugate()  # force real
                if v.is_zero():
                    continue
                z = cmath.exp(2j * cmath.pi / modulus)
                approx = sum(
                    c * (z ** e) for e, c in poly.coeffs.items()
                )
                approx = 2 * approx.real
                if abs(approx) > 1e-6:
                    assert cyclo_sign(v) == (1 if approx > 0 else -1)


def decimal_cos(x: Decimal) -> Decimal:
    """cos x by its Taylor series in the current decimal context."""
    total, term, k = Decimal(1), Decimal(1), 0
    while True:
        k += 2
        term = -term * x * x / (k * (k - 1))
        if total + term == total:
            return total
        total += term


def decimal_pi() -> Decimal:
    """pi from 6 arcsin(1/2), a series the library does not use."""
    total, term, k = Decimal(3), Decimal(3), 0
    while True:
        k += 1
        term = term * (2 * k - 1) ** 2 / (4 * 2 * k * (2 * k + 1))
        if total + term == total:
            return total
        total += term


def cos_convergents(k: int, modulus: int, count: int) -> list[tuple[int, int]]:
    """Continued-fraction convergents p/q of 2cos(2 pi k/N), from 80 digits;
    a rational 2cos(2 pi k/N) ends the list at its own value."""
    with localcontext() as ctx:
        ctx.prec = 80
        x = 2 * decimal_cos(2 * decimal_pi() * k / modulus)
        out, (h0, h1), (k0, k1) = [], (0, 1), (1, 0)
        for _ in range(count):
            a = int(x.to_integral_value(rounding=ROUND_FLOOR))
            h0, h1, k0, k1 = h1, a * h1 + h0, k1, a * k1 + k0
            out.append((h1, k1))
            if abs(x - a) < Decimal(10) ** -60:  # 2cos(2 pi k/N) is rational
                break
            x = 1 / (x - a)
    return out


class TestCycloSignBracket:
    """cyclo_sign against the Sturm-Tarski reference: the sign of 2v, an
    integer polynomial in s, at s = 2cos(2 pi/N), the one root of its
    minimal polynomial in (2 - 40/N^2, 2)."""

    MODULI = range(3, 61)

    @staticmethod
    def bracket(modulus: int) -> tuple[tuple[int, ...], Fraction, Fraction]:
        """(psi, lo, hi): the minimal polynomial psi of s = 2cos(2 pi/N) and
        (lo, hi) = (2 - 40/N^2, 2), holding s and no other root.  At
        x = 2 pi/N, 2cos x >= 2 - x^2 and 4 pi^2 < 40 give s > lo; each other
        root, 2cos(2 pi k/N) with 2 <= k <= N/2, is at most 2 - y^2 + y^4/12
        at y = 4 pi/N, below lo once N^2 > 17.6.  For N in {2, 3, 4, 6} psi
        has one root and lo, 2 are not roots."""
        return cos_minimal_poly(modulus), 2 - Fraction(40, modulus * modulus), Fraction(2)

    @classmethod
    def reference_signs(cls, modulus: int, values: list[CycloElement]) -> list[int]:
        psi, lo, hi = cls.bracket(modulus)
        signs = []
        for v in values:
            c = v.residue
            two_v = cos_expand([2 * c[0], *c[1:]])  # 2v = 2c_0 + sum_j c_j q_j(s)
            signs.append(realroots.sign_at_unique_root(two_v, psi, lo, hi))
        return signs

    @staticmethod
    def real_values(modulus: int, rng: random.Random) -> list[CycloElement]:
        """Seeded real values at one modulus: |P(z)|^2 - c, z^k + z^-k - c,
        near-zero q(z^k + z^-k) - p for convergents p/q of 2cos(2 pi k/N),
        and exact zeros written as nonzero polynomials."""
        def at(coeffs):
            return CycloElement.from_laurent(LaurentPoly(coeffs), modulus)

        values = []
        for _ in range(2):
            v = at({e: rng.randint(-2, 2) for e in range(rng.randint(1, 4))})
            values.append(v * v.conjugate() - CycloElement.from_int(modulus, rng.randint(0, 4)))
        k = rng.randint(1, modulus - 1)
        values.append(at({k: 1, -k: 1, 0: -rng.randint(-2, 2)}))
        for p, q in cos_convergents(k, modulus, 30)[2::5]:
            values.append(at({k: q, -k: q, 0: -p}))
        d = min(d for d in range(2, modulus + 1) if modulus % d == 0)
        values.append(at({k + i * (modulus // d): 1 for i in range(d)}))  # z^k (1 + ... + w^(d-1))
        return [v for v in values if v.is_zero() or not v.is_rational()]

    def test_matches_fresh_isolation(self):
        rng = random.Random(7)
        values = {n: self.real_values(n, rng) for n in self.MODULI}
        assert sum(map(len, values.values())) > 400
        seen = set()
        for n in self.MODULI:
            signs = [cyclo_sign(v) for v in values[n]]
            assert signs == self.reference_signs(n, values[n]), n
            seen.update(signs)
        assert seen == {-1, 0, 1}

    def test_fixed_point_cosines_within_bound(self):
        # each Re z^j against cos(2 pi j/N) recomputed in decimal at 3p bits
        rng = random.Random(11)
        for modulus in [*range(3, 41), 97, 199, 2048]:
            width = len(CycloElement.from_int(modulus, 0).residue)
            js = range(width) if width <= 40 else sorted(rng.sample(range(width), 12))
            for bits in (64, 256):
                scale = 1 << bits
                with localcontext() as ctx:
                    ctx.prec = 3 * bits * 30103 // 100000 + 10
                    pi = decimal_pi()
                    for j in js:
                        unit = [int(i == j) for i in range(width)]
                        a, e = _fixed_value(unit, modulus, scale)
                        exact = scale * decimal_cos(2 * pi * j / modulus)
                        assert abs(a - exact) <= e, (modulus, bits, j)
                        assert e < scale >> (bits // 2), (modulus, bits, j)

    def test_no_root_isolation(self, monkeypatch):
        calls = []
        for name, fn in vars(realroots).items():
            if callable(fn) and getattr(fn, "__module__", None) == realroots.__name__:
                monkeypatch.setattr(realroots, name,
                                    lambda *a, _name=name, **k: calls.append(_name))
        rng = random.Random(13)
        for modulus in (13, 60, 199):
            values = [v for v in self.real_values(modulus, rng) if not v.is_zero()]
            assert {cyclo_sign(v) for v in values} == {-1, 1}
        values = []
        for i in range(20):
            k = 1 + i % 6
            values.append(CycloElement.from_laurent(LaurentPoly({k: 1, -k: 1, 0: i % 3}), 13))
        report = finite_s_check(FiniteClassFunction((1,) * 20, tuple(values)))
        assert report.negative_classes and not calls

    @staticmethod
    def int_sturm_count(p: list[int], lo: Fraction, hi: Fraction) -> int:
        """Distinct roots of p in (lo, hi] from a Sturm chain kept in Z[x].

        Each division step scales by |lc| > 0 and each remainder is divided
        by its positive content, so every member is a positive multiple of
        the Fraction one and every sign agrees with realroots' chain; q(a/b)
        is read as b^deg q(a/b).  realroots' Fraction chains take about 8 s
        for all N up to 240 on a 2-vCPU host, these about 0.5 s.
        """
        chain = [list(p), realroots.derivative(p)]
        while len(chain[-1]) > 1:
            r, b = list(chain[-2]), chain[-1]
            while len(r) >= len(b):
                lead, shift = r[-1] * (1 if b[-1] > 0 else -1), len(r) - len(b)
                r = [c * abs(b[-1]) for c in r]
                for j, c in enumerate(b):
                    r[shift + j] -= lead * c
                _dense.trim(r)
            if not r:
                break
            g = _dense.content(r)
            chain.append([-c // g for c in r])

        def variations(x: Fraction) -> int:
            signs = []
            for q in chain:
                v, den = 0, 1
                for c in reversed(q):
                    v, den = v * x.numerator + c * den, den * x.denominator
                if v:
                    signs.append(v > 0)
            return sum(a != b for a, b in zip(signs, signs[1:]))

        return variations(lo) - variations(hi)

    def test_int_sturm_count_matches_realroots(self):
        for n in range(2, 41):
            psi, lo, hi = self.bracket(n)
            chain = realroots.sturm_chain(psi)
            for a, b in ((-2, 2), (lo, hi), (0, lo), (-1, Fraction(1, 2))):
                want = realroots.count_roots(chain, Fraction(a), Fraction(b))
                assert self.int_sturm_count(list(psi), Fraction(a), Fraction(b)) == want

    def test_bracket_holds_only_the_largest_root(self):
        for n in range(2, self.MODULI[-1] + 1):
            psi, lo, hi = self.bracket(n)
            assert realroots.evaluate(psi, lo) != 0 and realroots.evaluate(psi, hi) != 0
            assert self.int_sturm_count(list(psi), lo, hi) == 1, n
            assert lo < 2 * math.cos(2 * math.pi / n), n
            if n >= 4:  # 4 pi/N <= pi: 2cos(4 pi/N) bounds every other root
                assert 2 * math.cos(4 * math.pi / n) < lo, n


class TestFiniteSCheck:
    def test_psl27_sizes_from_brute_force(self):
        classes = psl2_classes(7)
        assert classes == [(1, 1), (2, 21), (3, 56), (4, 42), (7, 24), (7, 24)]

    def test_psl27_s_character(self):
        classes = psl2_classes(7)
        # 1 + (degree-8 character): value 1+8 at 1, 1+0, 1-1, 1+0, 1+1, 1+1
        value_by_order = {1: 9, 2: 1, 3: 0, 4: 1, 7: 2}
        sizes = [size for _, size in classes]
        values = [value_by_order[order] for order, _ in classes]
        cf = FiniteClassFunction.from_rational(sizes, values)
        report = finite_s_check(cf)
        assert report.is_s_character
        assert not report.is_trivial
        # the zero sits on the order-3 class
        zero_orders = {classes[i][0] for i in report.zero_classes}
        assert zero_orders == {3}

    def test_a5_permutation_character(self):
        classes = a5_classes()
        assert [(o, s) for o, s, _ in classes] == [
            (1, 1), (2, 15), (3, 20), (5, 12), (5, 12)
        ]
        cf = FiniteClassFunction.from_rational(
            [s for _, s, _ in classes], [fix for _, _, fix in classes]
        )
        report = finite_s_check(cf)
        assert report.is_s_character
        zero_orders = {classes[i][0] for i in report.zero_classes}
        assert zero_orders == {5}

    def test_a5_norm_square_with_irrational_values(self):
        # |chi_3|^2 for a 3-dimensional irreducible: values
        # 9, 1, 0, (3+sqrt5)/2, (3-sqrt5)/2 over classes 1A 2A 3A 5A 5B
        cf = load_class_data("""root t 5
            1  9
            15 1
            20 0
            12 2 + t + t^4
            12 2 + t^2 + t^3
        """)
        report = finite_s_check(cf)
        assert report.is_s_character
        assert report.zero_classes == (2,)
        assert report.nonreal_classes == ()

    def test_trivial_group(self):
        cf = FiniteClassFunction.from_rational([1], [1])
        report = finite_s_check(cf)
        assert report.is_s_character
        assert report.is_trivial
        assert report.zero_classes == ()

    def test_fails_positivity(self):
        cf = FiniteClassFunction.from_rational([1, 1], [2, -1])
        report = finite_s_check(cf)
        assert not report.is_positive
        assert report.negative_classes == (1,)
        assert not report.is_s_character

    def test_nonreal_value(self):
        cf = FiniteClassFunction(
            (1, 1), (CycloElement.from_int(5, 1), CycloElement(5, [0, 1]))
        )
        report = finite_s_check(cf)
        assert report.nonreal_classes == (1,)
        assert not report.is_positive

    def test_axioms_without_zero_is_inconsistent(self):
        # 1 + (z + z^4) and 1 - (z + z^4) are positive, average to 1, are
        # not both 1, and never vanish: no virtual character does that
        data = load_class_data("""root t 5
            1 1 + t + t^4
            1 1 - t - t^4
        """)
        with pytest.raises(InconsistentClassData):
            finite_s_check(data)
        # the same weights with a genuine zero pass
        report = finite_s_check(FiniteClassFunction.from_rational([1, 1], [2, 0]))
        assert report.is_s_character

    def test_realness_tested_once_per_value(self, monkeypatch):
        # each conjugate is one reduction mod Phi_N; the sign of a real
        # class must not test realness a second time
        values = tuple(CycloElement.from_laurent(LaurentPoly({k: 1, -k: 1, 0: k % 3 - 1}), 13)
                       for k in range(1, 7)) + (CycloElement(13, [0, 1]),)
        conjugate = CycloElement.conjugate
        calls = []
        monkeypatch.setattr(CycloElement, "conjugate",
                            lambda v: calls.append(v) or conjugate(v))
        report = finite_s_check(FiniteClassFunction((1,) * len(values), values))
        assert report.negative_classes and report.nonreal_classes == (6,)
        assert calls == list(values)

    def test_every_sign_through_cyclo_sign(self, monkeypatch):
        # the class-data signs have one home, the public cyclo_sign, so a
        # wrapper on the module name sees each real value exactly once
        signs = []
        sign = scharacter.cyclo_sign

        def counted(v):
            signs.append(sign(v))
            return signs[-1]

        monkeypatch.setattr(scharacter, "cyclo_sign", counted)
        psl27 = (pathlib.Path(__file__).parent / "data" / "psl27.txt").read_text()
        report = finite_s_check(load_class_data(psl27))
        assert signs == [1, 1, 0, 1, 1, 1] and report.zero_classes == (2,)
        signs.clear()
        report = finite_s_check(load_class_data("root t 7\n1 3\n1 t + t^-1\n1 t\n1 -1\n"))
        assert signs == [1, 1, -1]
        assert report.nonreal_classes == (2,) and report.negative_classes == (3,)

    def test_malformed_data(self):
        with pytest.raises(InconsistentClassData):
            FiniteClassFunction((1, -1), (CycloElement.from_int(1, 1),) * 2)
        with pytest.raises(InconsistentClassData):
            FiniteClassFunction((1,), (CycloElement.from_int(1, 1),) * 2)
        with pytest.raises(InconsistentClassData):
            FiniteClassFunction(
                (1, 1), (CycloElement.from_int(2, 1), CycloElement.from_int(3, 1))
            )


class TestLoadClassData:
    def test_comments_and_directive(self):
        cf = load_class_data("# header\nroot t 4\n1 1\n1 t^2\n2 0 - t^0*0\n")
        assert cf.group_order == 4
        assert cf.values[1].rational_value() == -1

    def test_no_directive_means_rational(self):
        cf = load_class_data("1 5\n2 -1\n")
        assert cf.modulus == 1
        assert [v.rational_value() for v in cf.values] == [5, -1]

    def test_malformed(self):
        with pytest.raises(InconsistentClassData):
            load_class_data("root t\n1 1\n")
        with pytest.raises(InconsistentClassData):
            load_class_data("oops\n")
        with pytest.raises(InconsistentClassData):
            load_class_data("x 1\n")
