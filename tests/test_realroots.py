import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclochar import _dense, realroots
from cyclochar.laurent import CycloElement, LaurentPoly, cos_basis, cos_expand, cos_minimal_poly
from cyclochar.scharacter import cyclo_sign

F = Fraction


def poly(*ints):
    return [F(c) for c in ints]


class TestIsolation:
    def test_two_roots(self):
        # (c - 1/2)(c + 1/2) = c^2 - 1/4
        p = poly(-1, 0, 4)
        intervals = realroots.isolate_roots(p, F(-1), F(1))
        assert len(intervals) == 2
        (a1, b1), (a2, b2) = intervals
        assert a1 < F(-1, 2) < b1 < a2 < F(1, 2) < b2

    def test_multiplicity_collapses(self):
        # (c - 1/3)^2 has one distinct root
        p = poly(1, -6, 9)
        intervals = realroots.isolate_roots(p, F(-1), F(1))
        assert len(intervals) == 1

    def test_intervals_interior_and_separated(self):
        # roots at -1/2, 0, 1/2; endpoints at the roots must be refused,
        # and intervals never touch lo, hi or each other
        p = poly(0, -1, 0, 4)
        intervals = realroots.isolate_roots(p, F(-1), F(1))
        assert len(intervals) == 3
        prev = F(-1)
        for a, b in intervals:
            assert prev < a < b < F(1)
            prev = b

    def test_endpoint_root_rejected(self):
        with pytest.raises(ValueError):
            realroots.isolate_roots(poly(-1, 1), F(1), F(2))

    @given(st.lists(st.integers(-6, 6), min_size=2, max_size=5, unique=True))
    @settings(max_examples=50, deadline=None)
    def test_constructed_roots_are_found(self, roots):
        doubled = [F(r, 7) for r in roots]
        p = [F(1)]
        for r in doubled:
            p = [F(0)] + p
            for i in range(len(p) - 1):
                p[i] -= r * p[i + 1]
        intervals = realroots.isolate_roots(p, F(-2), F(2))
        inside = [r for r in doubled if F(-2) < r < F(2)]
        assert len(intervals) == len(inside)
        for r in sorted(inside):
            assert any(a < r < b for a, b in intervals)


class TestNonneg:
    def test_square_touching_zero(self):
        ok, witness = realroots.nonneg_on_interval(poly(0, 0, 1), F(-1), F(1))
        assert ok and witness is None

    def test_strictly_positive(self):
        ok, _ = realroots.nonneg_on_interval(poly(2, 0, -1), F(-1), F(1))
        assert ok

    def test_negative_with_witness(self):
        p = poly(0, 1, 1)  # c(1 + c) < 0 on (-1, 0)
        ok, (a, b) = realroots.nonneg_on_interval(p, F(-1), F(1))
        assert not ok and a < b
        assert realroots.evaluate(p, a) < 0 and realroots.evaluate(p, b) < 0
        chain = realroots.sturm_chain(realroots.squarefree(p))
        assert realroots.count_roots(chain, a, b) == 0

    def test_negative_at_endpoint(self):
        p = poly(1, 2)  # 1 + 2c < 0 at c = -1
        ok, (a, b) = realroots.nonneg_on_interval(p, F(-1), F(1))
        assert not ok
        assert realroots.evaluate(p, a) < 0 and realroots.evaluate(p, b) < 0

    def test_zero_poly(self):
        assert realroots.nonneg_on_interval([], F(-1), F(1)) == (True, None)

    def test_nonzero_constants(self):
        assert realroots.nonneg_on_interval([-3], -1, 1) == (False, (-1, 1))
        assert realroots.nonneg_on_interval([5], -1, 1) == (True, None)

    def test_even_dip_below(self):
        # (c^2 - 1/4)^2 - 1/16 dips negative around +-1/2
        base = poly(-1, 0, 4)
        p = [F(0)] * 5
        for i, a in enumerate(base):
            for j, b in enumerate(base):
                p[i + j] += a * b
        p[0] -= 1
        ok, (a, b) = realroots.nonneg_on_interval(p, F(-1), F(1))
        assert not ok
        assert realroots.evaluate(p, (a + b) / 2) < 0


class TestSignAtRoot:
    def test_golden_ratio_field(self):
        # xi = 2cos(2pi/5), minimal polynomial s^2 + s - 1
        psi = cos_minimal_poly(5)
        intervals = realroots.isolate_roots(psi, F(-2), F(2))
        lo, hi = intervals[-1]
        # xi ~ 0.618: s^2 evaluates positive, s - 1 negative, 2s - 1 positive
        assert realroots.sign_at_unique_root(poly(0, 0, 1), psi, lo, hi) == 1
        assert realroots.sign_at_unique_root(poly(-1, 1), psi, lo, hi) == -1
        assert realroots.sign_at_unique_root(poly(-1, 2), psi, lo, hi) == 1

    def test_rational_isolating_poly(self):
        # unique root of s + 1 at -1
        psi = poly(1, 1)
        assert realroots.sign_at_unique_root(poly(1, 2), psi, F(-2), F(0)) == -1

    def test_agrees_with_float(self):
        for n in (7, 9, 11, 13):
            psi = cos_minimal_poly(n)
            lo, hi = realroots.isolate_roots(psi, F(-2), F(2))[-1]
            xi = 2 * math.cos(2 * math.pi / n)
            for target in (poly(-1, 1, 1), poly(2, -3), poly(0, 0, 0, 1)):
                want = sum(float(c) * xi ** i for i, c in enumerate(target))
                got = realroots.sign_at_unique_root(target, psi, lo, hi)
                assert got == (1 if want > 0 else -1)


class TestChebyshev:
    """The cosine basis q_n(s) = z**n + z**-n in s = z + 1/z, which also
    gives the Chebyshev polynomials through 2 T_n(c) = q_n(2c)."""

    def test_values(self):
        assert cos_basis(0) == (2,)
        assert cos_basis(1) == (0, 1)
        assert cos_basis(2) == (-2, 0, 1)
        assert cos_basis(5) == (0, 5, 0, -5, 0, 1)
        two_t5 = tuple(q << i for i, q in enumerate(cos_basis(5)))
        assert two_t5 == (0, 10, 0, -40, 0, 32)

    def test_cos_identity(self):
        for n in range(8):
            coeffs = cos_basis(n)
            for k in range(5):
                theta = 0.3 + 0.7 * k
                lhs = 2 * math.cos(n * theta)
                rhs = sum(c * (2 * math.cos(theta)) ** i for i, c in enumerate(coeffs))
                assert abs(lhs - rhs) < 1e-9


class TestGcdFold:
    """squarefree and sturm_chain run on the Z[x] gcd of _dense; the Q[x]
    Euclid they replaced is kept inline here as the reference."""

    @staticmethod
    def ref_divmod(a, b):
        r = list(a)
        _dense.trim(r)
        q = [F(0)] * max(len(r) - len(b) + 1, 0)
        lead = b[-1]
        while r and len(r) >= len(b):
            c = r[-1] / lead
            k = len(r) - len(b)
            q[k] = c
            for i, d in enumerate(b):
                r[k + i] -= c * d
            _dense.trim(r)
        return _dense.trim(q), r

    @classmethod
    def ref_gcd(cls, a, b):
        a, b = _dense.trim(list(a)), _dense.trim(list(b))
        while b:
            _, r = cls.ref_divmod(a, b)
            a, b = b, r
        if a:
            lead = a[-1]
            a = [c / lead for c in a]
        return a

    @classmethod
    def ref_squarefree(cls, p):
        if len(p) <= 1:
            return list(p)
        g = cls.ref_gcd(p, realroots.derivative(p))
        if len(g) == 1:
            return list(p)
        q, _ = cls.ref_divmod(p, g)
        return q

    @classmethod
    def ref_sturm_chain(cls, p):
        chain = [_dense.trim(list(p)), realroots.derivative(p)]
        while chain[-1]:
            _, r = cls.ref_divmod(chain[-2], chain[-1])
            chain.append([-c for c in r])
        chain.pop()
        return chain

    @staticmethod
    def ref_variations(chain, x):
        signs = []
        for p in chain:
            v = sum(c * x ** i for i, c in enumerate(p))
            if v:
                signs.append(1 if v > 0 else -1)
        return sum(1 for a, b in zip(signs, signs[1:]) if a != b)

    @staticmethod
    def factor(rng, fractions):
        """A seeded linear or quadratic factor, int or Fraction coefficients."""
        deg = rng.choice((1, 2))
        coeffs = [rng.randint(-4, 4) for _ in range(deg)] + [rng.choice((-3, -2, -1, 1, 2, 3))]
        if fractions:
            coeffs = [F(c, rng.randint(1, 5)) for c in coeffs]
        return coeffs

    @classmethod
    def corpus(cls, seed=11, size=150):
        rng = random.Random(seed)
        out = [[F(3)], [F(-2, 7)], [5], [-1]]
        for _ in range(size):
            fractions = rng.random() < 0.5
            p = [F(rng.choice((-3, -1, 1, 2)), rng.randint(1, 4))] if fractions else [rng.choice((-2, 1, 3))]
            for _ in range(rng.randint(1, 3)):
                f = cls.factor(rng, fractions)
                for _ in range(rng.randint(1, 3)):
                    p = _dense.mul(p, f)
            out.append(p)
        return out

    def test_squarefree_is_positive_int_multiple_of_reference(self):
        for p in self.corpus():
            got = realroots.squarefree(p)
            want = self.ref_squarefree([F(c) for c in p])
            assert all(type(c) is int for c in got)
            assert len(got) == len(want) > 0
            ratio = F(got[-1]) / want[-1]
            assert ratio > 0
            assert [ratio * c for c in want] == got

    def test_chain_variations_match_reference(self):
        rng = random.Random(12)
        for p in self.corpus():
            chain = realroots.sturm_chain(realroots.squarefree(p))
            ref = self.ref_sturm_chain(self.ref_squarefree([F(c) for c in p]))
            assert len(chain) == len(ref)
            for _ in range(6):
                x = F(rng.randint(-40, 40), rng.randint(1, 9))
                assert realroots._variations(chain, x) == self.ref_variations(ref, x)

    def test_int_gcd_keeps_common_factor(self):
        rng = random.Random(13)
        for _ in range(150):
            f, g, h = ([rng.choice((-2, 1, 3))] for _ in range(3))
            for poly in (f, g, h):
                for _ in range(rng.randint(0, 3)):
                    poly[:] = _dense.mul(poly, self.factor(rng, False))
            common = _dense.gcd(_dense.mul(f, g), _dense.mul(f, h))
            cf = _dense.content(f)
            assert _dense.divides([c // cf for c in f], common)
            assert common[-1] > 0


class TestTarskiSign:
    """sign_at_unique_root is one Tarski query.  The bisection it replaced,
    which narrowed the isolating interval until the Sturm chain of the
    value's squarefree part showed no root and the value had one sign at
    both ends, is kept inline here as the reference, on the Q[x] Euclid of
    TestGcdFold.  The reference runs on f mod psi, which has the same value
    at the root and a degree below deg psi, so it stays fast at N = 80."""

    @staticmethod
    def ref_eval(p, x):
        return sum(c * x ** i for i, c in enumerate(p))

    @classmethod
    def ref_nonroot_between(cls, q, a, b):
        k = 2
        while True:
            m = a + (b - a) / k
            if cls.ref_eval(q, m) != 0:
                return m
            k += 1

    @classmethod
    def ref_sign(cls, f, q, lo, hi):
        q = [F(c) for c in q]
        _, f = TestGcdFold.ref_divmod([F(c) for c in f], q)
        if len(f) <= 1:
            v = f[0] if f else 0
            return (v > 0) - (v < 0)
        chain = TestGcdFold.ref_sturm_chain(TestGcdFold.ref_squarefree(f))
        s_lo = cls.ref_eval(q, lo)
        while True:
            va, vb = cls.ref_eval(f, lo), cls.ref_eval(f, hi)
            if va * vb > 0 and (TestGcdFold.ref_variations(chain, lo)
                                == TestGcdFold.ref_variations(chain, hi)):
                return 1 if va > 0 else -1
            m = cls.ref_nonroot_between(q, lo, hi)
            if cls.ref_eval(q, m) * s_lo > 0:
                lo = m
            else:
                hi = m

    @staticmethod
    def seeded_values(modulus, rng):
        """|P(z)|^2 - c and z^k + z^-k - c at z = exp(2 pi i/N), non-rational."""
        values = []
        for _ in range(2):
            p = LaurentPoly({e: rng.randint(-2, 2) for e in range(rng.randint(1, 4))})
            v = CycloElement.from_laurent(p, modulus)
            values.append(v * v.conjugate() - CycloElement.from_int(modulus, rng.randint(0, 4)))
        for _ in range(2):
            k = rng.randint(1, modulus - 1)
            c = rng.randint(-2, 2)
            values.append(CycloElement.from_laurent(LaurentPoly({k: 1, -k: 1, 0: -c}), modulus))
        return [v for v in values if not v.is_rational()]

    def test_matches_bisection_reference(self):
        rng = random.Random(23)
        checked, seen = 0, set()
        for n in range(3, 81):
            # 2cos(2 pi/N) is the one root of psi in (2 - 40/N^2, 2); the proof
            # is in test_scharacter's TestCycloSignBracket.bracket
            psi, lo, hi = cos_minimal_poly(n), 2 - F(40, n * n), F(2)
            for v in self.seeded_values(n, rng):
                c = v.residue
                # 2v as an int polynomial in s = 2cos(2 pi/N)
                ints = cos_expand([2 * c[0], *c[1:]])
                # a positive Fraction multiple plus a Fraction multiple of psi:
                # the same value at the root up to the positive factor
                scale = F(rng.randint(1, 9), rng.randint(1, 9))
                shift = [F(rng.randint(-3, 3), rng.randint(1, 5)) for _ in range(rng.randint(1, 3))]
                fracs = _dense.sub([scale * a for a in ints], [-c for c in _dense.mul(shift, psi)])
                want = self.ref_sign(ints, psi, lo, hi)
                assert want in (-1, 1)
                assert realroots.sign_at_unique_root(ints, psi, lo, hi) == want, (n, c)
                assert realroots.sign_at_unique_root(fracs, psi, lo, hi) == want, (n, c)
                checked += 1
                seen.add(want)
        assert checked >= 200 and seen == {-1, 1}

    def test_every_isolating_interval_against_floats(self):
        rng = random.Random(29)
        targets = [poly(-1, 1, 1), poly(2, -3), poly(0, 0, 0, 1), [3], [-2]]
        targets += [[rng.randint(-5, 5) for _ in range(rng.randint(2, 7))] for _ in range(6)]
        checked = 0
        for n in range(3, 41):
            psi = cos_minimal_poly(n)
            intervals = realroots.isolate_roots(psi, F(-2), F(2))
            roots = sorted(2 * math.cos(2 * math.pi * j / n)
                           for j in range(1, (n + 1) // 2) if math.gcd(j, n) == 1)
            assert len(intervals) == len(roots) == len(psi) - 1
            for (lo, hi), xi in zip(intervals, roots):
                assert lo < xi < hi
                for f in targets:
                    want = sum(float(c) * xi ** i for i, c in enumerate(f))
                    if abs(want) > 1e-6:
                        got = realroots.sign_at_unique_root(f, psi, lo, hi)
                        assert got == (1 if want > 0 else -1), (n, f, xi)
                        checked += 1
        assert checked > 2500

    def test_zero_at_the_root_gives_zero(self):
        rng = random.Random(31)
        for n in (3, 5, 12, 17, 30):
            psi = cos_minimal_poly(n)
            for lo, hi in realroots.isolate_roots(psi, F(-2), F(2)):
                assert realroots.sign_at_unique_root([], psi, lo, hi) == 0
                assert realroots.sign_at_unique_root(list(psi), psi, lo, hi) == 0
                g = [F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(3)] + [F(1)]
                assert realroots.sign_at_unique_root(_dense.mul(g, psi), psi, lo, hi) == 0
        # (s - 1)(s + 1) vanishes at the one root 1 of s - 1 in (0, 2)
        assert realroots.sign_at_unique_root(poly(-1, 0, 1), poly(-1, 1), F(0), F(2)) == 0


class TestCosSignOracle:
    """cyclo_sign against a sign decided with no real-root code: for
    0 <= r = k mod N < N, cos(2 pi k/N) > 0 exactly when 4r < N or 4r > 3N,
    and it is 0 exactly when 4r is N or 3N."""

    @staticmethod
    def cos_sign(k, n):
        r = 4 * (k % n)
        if r < n or r > 3 * n:
            return 1
        return 0 if r in (n, 3 * n) else -1

    def test_every_k_up_to_100(self):
        seen = set()
        for n in range(3, 101):
            signs = {}  # k and N - k give the same value; decide it once
            for k in range(n):
                v = (CycloElement.from_laurent(LaurentPoly({k: 1}), n)
                     + CycloElement.from_laurent(LaurentPoly({-k: 1}), n))
                if v not in signs:
                    signs[v] = cyclo_sign(v)
                want = self.cos_sign(k, n)
                assert signs[v] == want, (k, n)
                seen.add(want)
        assert seen == {-1, 0, 1}
