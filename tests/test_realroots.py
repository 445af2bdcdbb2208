import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclochar import realroots
from cyclochar.laurent import cos_basis, cos_minimal_poly

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
        psi = realroots.from_ints(cos_minimal_poly(5))
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
            psi = realroots.from_ints(cos_minimal_poly(n))
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
