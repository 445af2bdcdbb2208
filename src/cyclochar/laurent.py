"""Exact Laurent-polynomial arithmetic over the integers.

Univariate and bivariate sparse Laurent polynomials, cyclotomic polynomials
and cyclotomic-factor extraction, Sylvester resultants by one fraction-free
integer elimination at x = 2^K (Kronecker substitution), and exact
evaluation at roots of unity inside Z[z]/(Phi_N(z)).
Coefficients are Python ints throughout, so nothing here can overflow.
"""

from __future__ import annotations

import functools
import math
import operator
from typing import NamedTuple

from . import _dense
from .errors import InexactDivision, ZeroPolynomial


class _SparsePoly:
    """A sparse integer polynomial: a map exponent -> coefficient with zero
    coefficients never kept, so equality and hashing are structural.

    Subclasses fix the exponent type (an int, or an (x, y) pair) through
    term(), _add_exp and to_str().  Instances are immutable; all operations
    return fresh objects.
    """

    __slots__ = ("_c",)

    def __init__(self, coeffs: dict | None = None):
        self._c = {e: v for e, v in coeffs.items() if v} if coeffs else {}

    @classmethod
    def _of(cls, c: dict):
        """Wrap a dict already free of zero coefficients, skipping the scan."""
        obj = object.__new__(cls)
        obj._c = c
        return obj

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def one(cls):
        return cls.term(1)

    @property
    def coeffs(self) -> dict:
        return dict(self._c)

    def is_zero(self) -> bool:
        return not self._c

    def coefficient_sum(self) -> int:
        """The value at 1."""
        return sum(self._c.values())

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = self.term(other)
        if isinstance(other, type(self)):
            return self._c == other._c
        return NotImplemented

    def __hash__(self):
        return hash(frozenset(self._c.items()))

    def __bool__(self) -> bool:
        return bool(self._c)

    def __neg__(self):
        return self._of({e: -c for e, c in self._c.items()})

    def __add__(self, other):
        if isinstance(other, int):
            other = self.term(other)
        out = dict(self._c)
        for e, c in other._c.items():
            v = out.get(e, 0) + c
            if v:
                out[e] = v
            else:
                del out[e]
        return self._of(out)

    __radd__ = __add__

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other: int):
        return -self + other

    def __mul__(self, other):
        if isinstance(other, int):
            return self._of({e: c * other for e, c in self._c.items()} if other else {})
        out = {}
        a, b = self._c, other._c
        if len(b) < len(a):
            a, b = b, a
        add = self._add_exp
        for ea, ca in a.items():
            for eb, cb in b.items():
                e = add(ea, eb)
                out[e] = out.get(e, 0) + ca * cb
        return type(self)(out)

    __rmul__ = __mul__

    @staticmethod
    def _join(terms) -> str:
        """'a - b + c' from (coefficient, unsigned body) pairs, "0" if none."""
        text = "".join(f" {'-' if c < 0 else '+'} {body}" for c, body in terms)
        if not text:
            return "0"
        return text[3:] if text[1] == "+" else "-" + text[3:]

    def __str__(self) -> str:
        return self.to_str()

    def __repr__(self) -> str:
        return f"{type(self).__name__}('{self}')"


class LaurentPoly(_SparsePoly):
    """A Laurent polynomial in one variable with integer coefficients,
    keyed by int exponents."""

    __slots__ = ()
    _add_exp = operator.add

    @staticmethod
    def term(coeff: int, exp: int = 0) -> LaurentPoly:
        return LaurentPoly._of({exp: coeff} if coeff else {})

    @staticmethod
    def variable() -> LaurentPoly:
        return LaurentPoly({1: 1})

    @staticmethod
    def from_dense(val: int, coeffs: list[int]) -> LaurentPoly:
        return LaurentPoly({val + i: c for i, c in enumerate(coeffs)})

    def coefficient(self, exp: int) -> int:
        return self._c.get(exp, 0)

    def support(self) -> list[int]:
        return sorted(self._c)

    def is_constant(self) -> bool:
        return not self._c or self._c.keys() == {0}

    def is_unit_constant(self) -> bool:
        return self._c.get(0) in (1, -1) and len(self._c) == 1

    def is_monomial(self) -> bool:
        return len(self._c) == 1

    @property
    def min_exp(self) -> int:
        if not self._c:
            raise ZeroPolynomial("zero polynomial has no valuation")
        return min(self._c)

    @property
    def max_exp(self) -> int:
        if not self._c:
            raise ZeroPolynomial("zero polynomial has no degree")
        return max(self._c)

    def dense(self) -> tuple[int, list[int]]:
        """(valuation, coefficient list from the valuation up); ((0, []) for 0)."""
        if not self._c:
            return 0, []
        lo = self.min_exp
        out = [0] * (self.max_exp - lo + 1)
        for e, c in self._c.items():
            out[e - lo] = c
        return lo, out

    def __pow__(self, n: int) -> LaurentPoly:
        if n < 0:
            if self.is_monomial():
                (e, c), = self._c.items()
                if c in (1, -1):
                    return LaurentPoly({e * n: c if n % 2 else 1})
            raise ValueError("negative powers only for unit monomials")
        out = LaurentPoly.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out

    def shift(self, k: int) -> LaurentPoly:
        """Multiply by t**k."""
        return LaurentPoly({e + k: c for e, c in self._c.items()})

    def mirror(self) -> LaurentPoly:
        """Substitute t -> 1/t."""
        return LaurentPoly({-e: c for e, c in self._c.items()})

    def stretch(self, k: int) -> LaurentPoly:
        """Substitute t -> t**k for k >= 1."""
        if k < 1:
            raise ValueError("stretch factor must be >= 1")
        return LaurentPoly({e * k: c for e, c in self._c.items()})

    def compress(self, k: int) -> LaurentPoly:
        """Inverse of stretch: requires every exponent divisible by k."""
        out = {}
        for e, c in self._c.items():
            if e % k:
                raise ValueError(f"exponent {e} not divisible by {k}")
            out[e // k] = c
        return LaurentPoly(out)

    def divexact(self, other: LaurentPoly) -> LaurentPoly:
        """Exact quotient self/other; raises InexactDivision otherwise."""
        if other.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        if self.is_zero():
            return LaurentPoly.zero()
        va, a = self.dense()
        vb, b = other.dense()
        q = _dense.divexact(a, b)
        return LaurentPoly.from_dense(va - vb, q)

    def divisible_by(self, other: LaurentPoly) -> bool:
        if other.is_zero():
            return self.is_zero()
        if self.is_zero():
            return True
        _, a = self.dense()
        _, b = other.dense()
        return _dense.divides(b, a)

    def to_str(self, var: str = "t") -> str:
        def body(e, mag):
            if e == 0:
                return str(mag)
            v = var if e == 1 else f"{var}^{e}"
            return v if mag == 1 else f"{mag}*{v}"
        return self._join((c, body(e, abs(c))) for e, c in sorted(self._c.items(), reverse=True))


def sl2_character(n: int) -> LaurentPoly:
    """g_n = (t**n - t**-n)/(t - 1/t), the n-dimensional SL2 character."""
    if n < 1:
        raise ValueError("dimension must be >= 1")
    return LaurentPoly({n - 1 - 2 * j: 1 for j in range(n)})


# ---------------------------------------------------------------------------
# Euler phi and cyclotomic polynomials
# ---------------------------------------------------------------------------


def prime_factors(n: int) -> list[int]:
    """The distinct primes dividing n >= 1, ascending, by trial division."""
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1 if p == 2 else 2
    if n > 1:
        out.append(n)
    return out


def euler_phi(n: int) -> int:
    """Euler's totient from the distinct prime factors of n."""
    if n < 1:
        raise ValueError("phi is defined for positive integers")
    out = n
    for p in prime_factors(n):
        out -= out // p
    return out


_PHI_TABLE: list[int] = [0, 1]


def phi_table(limit: int) -> list[int]:
    """Sieve of phi values up to limit (cached, grows monotonically)."""
    global _PHI_TABLE
    if limit < len(_PHI_TABLE):
        return _PHI_TABLE
    t = list(range(limit + 1))
    for p in range(2, limit + 1):
        if t[p] == p:  # prime
            for m in range(p, limit + 1, p):
                t[m] -= t[m] // p
    _PHI_TABLE = t
    return t


def cyclo_index_limit(max_degree: int) -> int:
    """A bound B such that phi(d) <= max_degree implies d <= B.

    Uses phi(d) >= sqrt(d/2) for small budgets and the Rosser-Schoenfeld
    lower bound phi(d) > d / (e^gamma ln ln d + 3/ln ln d) for large ones.
    """
    d = max_degree
    if d < 1:
        return 0
    hard = 2 * d * d + 1
    cand = max(8 * d, 16)
    while cand < hard:
        ll = math.log(math.log(cand))
        if cand / (1.7810724179901979 * ll + 3.0 / ll) > d:
            return cand
        cand *= 2
    return hard


def _mobius_binomials(d: int) -> tuple[list[int], list[int]]:
    """The divisors e of d with mu(d/e) = +1 and those with mu(d/e) = -1,
    so that Phi_d = prod(t**e - 1 over the first) / prod(t**e - 1 over the
    second)."""
    plus, minus = [d], []
    for p in prime_factors(d):
        plus, minus = plus + [e // p for e in minus], minus + [e // p for e in plus]
    return plus, minus


@functools.lru_cache(maxsize=None)
def cyclotomic(d: int) -> LaurentPoly:
    """The d-th cyclotomic polynomial Phi_d, monic of degree phi(d).

    Computed from the Moebius product over binomials t**e - 1 by one
    _dense.binomial_product: every multiplication first, then the exact
    divisions, each a linear pass.
    """
    if d < 1:
        raise ValueError("cyclotomic index must be >= 1")
    return LaurentPoly.from_dense(0, _dense.binomial_product([1], *_mobius_binomials(d)))


def divides_cyclotomic(f: LaurentPoly, d: int) -> bool:
    """True when Phi_d divides f, via folding modulo t**d - 1.

    Phi_d | f iff Phi_d | (f mod (t**d - 1)), and the fold costs one pass
    over the support however large f is.
    """
    if f.is_zero():
        return True
    return _phi_divides(f.dense()[1], d)


def _phi_divides(p: list[int], d: int) -> bool:
    """True when Phi_d divides the dense polynomial p, tested on the fold."""
    _, phi_d = cyclotomic(d).dense()
    return _dense.divides(phi_d, _dense.trim(_dense.fold(p, d)))


# ---------------------------------------------------------------------------
# Cyclotomic factor extraction
# ---------------------------------------------------------------------------


class CycloFactorization(NamedTuple):
    """t**shift times a product of cyclotomic polynomials times a remainder
    with nonzero constant term and no cyclotomic factor left."""

    shift: int
    factors: tuple[tuple[int, int], ...]  # (index d, multiplicity), d ascending
    remainder: LaurentPoly

    def indices(self) -> tuple[int, ...]:
        return tuple(d for d, _ in self.factors)

    def reassemble(self) -> LaurentPoly:
        out = LaurentPoly.term(1, self.shift)
        for d, mult in self.factors:
            out = out * cyclotomic(d) ** mult
        return out * self.remainder


@functools.lru_cache(maxsize=None)
def _cyclotomic_at(d: int, s: int) -> int:
    """Phi_d(s) for an integer point s >= 2, via prod (s**e - 1)**mu(d/e)."""
    plus, minus = _mobius_binomials(d)
    return math.prod(s ** e - 1 for e in plus) // math.prod(s ** e - 1 for e in minus)


def _cyclo_candidates(p: list[int]) -> list[int]:
    """Ascending indices d with phi(d) <= deg p whose Phi_d(s) divides p(s)
    at two integer points s where p(s) != 0 (p[0] != 0).  Every d with Phi_d
    dividing p is listed; a listed d need not divide."""
    deg = len(p) - 1
    limit = cyclo_index_limit(deg)
    phis = phi_table(limit)
    points = []
    for s in (2, 3, 5, 7, 11):
        v = _dense.evaluate(p, s)
        if v:
            points.append((s, abs(v)))
        if len(points) == 2:
            break
    out = []
    for d in range(1, limit + 1):
        if phis[d] > deg:
            continue
        for s, v in points:
            w = _cyclotomic_at(d, s)
            if w > 1 and v % w:
                break
        else:
            out.append(d)
    return out


def cyclo_factor(f: LaurentPoly) -> CycloFactorization:
    """Extract the monomial shift and every cyclotomic factor of f.

    The candidates d of _cyclo_candidates run in ascending order, and Phi_d
    is divided off by its own Moebius binomials,
    p / Phi_d = p * prod(t**e - 1 : mu(d/e) = -1) / prod(t**e - 1 : mu(d/e) = +1),
    in one _dense.binomial_product, repeated until a division is inexact; the
    number of successful divisions is the multiplicity of Phi_d.

    Why the division test is exact.  Write M = prod(t**e - 1 : mu = -1) and
    B_1 ... B_k for the binomials with mu = +1, so Phi_d * M = B_1 ... B_k.
    The kernel forms p * M and divides it by B_1, ..., B_k in turn.  If
    Phi_d divides p, p = q * Phi_d, then p * M = q * B_1 ... B_k, and the
    partial quotient after B_1 ... B_j is q * B_(j+1) ... B_k, a polynomial,
    so every step is exact and the result is q.  If every step is exact, the
    result R satisfies p * M = R * B_1 ... B_k = R * Phi_d * M, and M != 0
    in the domain Z[t], so p = R * Phi_d.
    """
    if f.is_zero():
        raise ZeroPolynomial("cannot factor the zero polynomial")
    shift, p = f.dense()
    factors = []
    for d in _cyclo_candidates(p):
        plus, minus = _mobius_binomials(d)
        mult = 0
        while True:
            try:
                p = _dense.binomial_product(p, minus, plus)
            except InexactDivision:
                break
            mult += 1
        if mult:
            factors.append((d, mult))
    return CycloFactorization(
        shift=shift,
        factors=tuple(factors),
        remainder=LaurentPoly.from_dense(0, p),
    )


# ---------------------------------------------------------------------------
# Bivariate Laurent polynomials
# ---------------------------------------------------------------------------


class BiLaurentPoly(_SparsePoly):
    """A Laurent polynomial in two variables x, y over the integers, keyed
    by (x-exponent, y-exponent) pairs.  Substitution maps are ring
    homomorphisms."""

    __slots__ = ()

    @staticmethod
    def _add_exp(a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
        return a[0] + b[0], a[1] + b[1]

    @staticmethod
    def term(coeff: int, xe: int = 0, ye: int = 0) -> BiLaurentPoly:
        return BiLaurentPoly._of({(xe, ye): coeff} if coeff else {})

    def coefficient(self, xe: int, ye: int) -> int:
        return self._c.get((xe, ye), 0)

    def substitute(self, x_sign: int = 1, x_pow: int = 1,
                   y_sign: int = 1, y_pow: int = 1) -> BiLaurentPoly:
        """Apply x -> x_sign * x**x_pow and y -> y_sign * y**y_pow."""
        if x_sign not in (1, -1) or y_sign not in (1, -1):
            raise ValueError("signs must be +1 or -1")
        if x_pow < 1 or y_pow < 1:
            raise ValueError("substitution powers must be >= 1")
        out: dict[tuple[int, int], int] = {}
        for (i, j), c in self._c.items():
            if (x_sign < 0 and i % 2) != (y_sign < 0 and j % 2):
                c = -c
            out[(i * x_pow, j * y_pow)] = c
        return BiLaurentPoly(out)

    def restrict(self, a: int, b: int) -> LaurentPoly:
        """Substitute x -> t**a, y -> t**b."""
        out: dict[int, int] = {}
        for (i, j), c in self._c.items():
            e = a * i + b * j
            out[e] = out.get(e, 0) + c
        return LaurentPoly(out)

    def monomial_split(self) -> tuple[int, int, BiLaurentPoly]:
        """(i0, j0, h0) with self = x**i0 * y**j0 * h0 and h0 having
        minimal x- and y-exponent zero."""
        if not self._c:
            raise ZeroPolynomial("zero polynomial has no monomial split")
        i0 = min(e[0] for e in self._c)
        j0 = min(e[1] for e in self._c)
        return i0, j0, BiLaurentPoly({(i - i0, j - j0): c for (i, j), c in self._c.items()})

    def degree_in(self, var: str) -> int:
        """Degree span in 'x' or 'y' (max exponent minus min exponent)."""
        if not self._c:
            raise ZeroPolynomial("zero polynomial has no degree")
        k = 0 if var == "x" else 1
        exps = [e[k] for e in self._c]
        return max(exps) - min(exps)

    def coefficient_lists(self, eliminate: str) -> list[list[int]]:
        """Dense coefficient lists in the kept variable, indexed by the
        exponent of the eliminated variable.  Exponents must be nonnegative
        (call monomial_split first)."""
        if not self._c:
            return []
        k = 0 if eliminate == "x" else 1
        other = 1 - k
        de = max(e[k] for e in self._c)
        dk = max(e[other] for e in self._c)
        out = [[0] * (dk + 1) for _ in range(de + 1)]
        for e, c in self._c.items():
            out[e[k]][e[other]] = c
        for row in out:
            _dense.trim(row)
        return out

    def to_str(self, x: str = "x", y: str = "y") -> str:
        def body(i, j, mag):
            atoms = []
            if mag != 1 or (i == 0 and j == 0):
                atoms.append(str(mag))
            if j != 0:
                atoms.append(y if j == 1 else f"{y}^{j}")
            if i != 0:
                atoms.append(x if i == 1 else f"{x}^{i}")
            return "*".join(atoms)
        terms = sorted(self._c.items(), key=lambda t: (-t[0][1], -t[0][0]))
        return self._join((c, body(i, j, abs(c))) for (i, j), c in terms)


# ---------------------------------------------------------------------------
# Resultants
# ---------------------------------------------------------------------------


def _unpack(v: int, k: int) -> list[int]:
    """The dense polynomial with balanced digits |r_i| < 2**(k-1) whose
    value at 2**k is v; unique when such a polynomial exists."""
    half, mask = 1 << (k - 1), (1 << k) - 1
    out = []
    while v:
        d = v & mask
        if d >= half:
            d -= mask + 1
        out.append(d)
        v = (v - d) >> k
    return out


def _packing_bits(a: list[list[int]], b: list[list[int]]) -> int:
    """The digit width K of resultant(): the least K with
    4**(K-1) >= 2**bitlen((sum ||a_i||_1^2)**db * (sum ||b_j||_1^2)**da)."""
    da, db = len(a) - 1, len(b) - 1
    na = sum(sum(map(abs, c)) ** 2 for c in a)
    nb = sum(sum(map(abs, c)) ** 2 for c in b)
    return ((na ** db * nb ** da).bit_length() + 1) // 2 + 1


def _bareiss(m: list[list[int]]) -> int:
    """Fraction-free Bareiss determinant of an integer matrix (in place);
    a zero pivot is replaced by the first nonzero entry below it.  The
    determinant is the last pivot, signed by the swaps; the empty matrix
    has determinant 1."""
    n = len(m)
    sign = 1
    prev = 1
    for k in range(n):
        if not m[k][k]:
            for r in range(k + 1, n):
                if m[r][k]:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return 0
        row_k = m[k]
        pivot = row_k[k]
        tail_k = row_k[k + 1:]
        for i in range(k + 1, n):
            row_i = m[i]
            left = row_i[k]
            row_i[k + 1:] = [(pivot * x - left * y) // prev
                             for x, y in zip(row_i[k + 1:], tail_k)]
        prev = pivot
    return sign * prev


def resultant(h: BiLaurentPoly, g: BiLaurentPoly, eliminate: str) -> LaurentPoly:
    """Resultant of h and g with respect to the eliminated variable.

    Monomial prefactors in both variables are stripped first (they only
    contribute x = 0 / y = 0, never roots of unity).  What remains are
    polynomials sum_i a_i(x) y^i and sum_j b_j(x) y^j of degrees da, db in
    the eliminated variable (written y here, with x the kept one), whose
    Sylvester matrix S(x) has db rows of a's and da rows of b's.

    Degree 0.  An operand free of y still has its Sylvester matrix: for
    da = 0 it is a0 times the db x db identity, so R = a0**db, and when both
    degrees are 0 the matrix is empty and R = 1.  The bound below covers
    these too: with da = 0 it reads ||a0||_1**db, which bounds |a0(x)|**db
    on the unit circle, and an empty product is 1.

    Kronecker substitution.  Each entry a_i, b_j is packed once into its
    integer value at x = 2**K, the integer matrix S(2**K) is
    reduced by fraction-free Bareiss elimination (_bareiss), and the one
    determinant is unpacked in balanced base 2**K (_unpack).

    Why the determinant is R(2**K).  Evaluation at 2**K is a ring map
    Z[x] -> Z, so det S(2**K) = R(2**K) for the resultant R = det S(x);
    every Bareiss quotient is a minor of the integer matrix S(2**K), so
    each division is exact in Z.

    Why the digits are the coefficients.  For |x| = 1 each entry is at most
    its l1 norm, so row r of S(x) has Euclidean norm at most
    sqrt(sum_i ||a_i||_1^2) or sqrt(sum_j ||b_j||_1^2), and Hadamard's
    inequality gives |R(x)| <= (sum_i ||a_i||_1^2)^(db/2)
    (sum_j ||b_j||_1^2)^(da/2) on the unit circle.  Each coefficient is an
    average of R over the circle, r_k = (1/2pi) int R(e^it) e^(-ikt) dt, so
    |r_k| <= max_{|x|=1} |R(x)|.  K is chosen with 2**(K-1) above that
    bound (_packing_bits), so every |r_k| < 2**(K-1), and an integer has at
    most one expansion sum_k r_k 2**(Kk) with all |r_k| < 2**(K-1): two
    would differ in a lowest digit by less than 2**K, yet by a nonzero
    multiple of 2**K.  In particular R(2**K) = 0 only when R is zero.
    """
    if eliminate not in ("x", "y"):
        raise ValueError("eliminate must be 'x' or 'y'")
    if h.is_zero() or g.is_zero():
        raise ZeroPolynomial("resultant of the zero polynomial")
    _, _, h0 = h.monomial_split()
    _, _, g0 = g.monomial_split()
    a = h0.coefficient_lists(eliminate)
    b = g0.coefficient_lists(eliminate)
    da, db = len(a) - 1, len(b) - 1
    k = _packing_bits(a, b)
    pa = [_dense.evaluate(c, 1 << k) for c in a]
    pb = [_dense.evaluate(c, 1 << k) for c in b]
    n = da + db
    rows: list[list[int]] = []
    for r in range(db):
        row = [0] * n
        for i, c in enumerate(pa):
            row[r + da - i] = c
        rows.append(row)
    for r in range(da):
        row = [0] * n
        for i, c in enumerate(pb):
            row[r + db - i] = c
        rows.append(row)
    return LaurentPoly.from_dense(0, _unpack(_bareiss(rows), k))


# ---------------------------------------------------------------------------
# Exact arithmetic in Z[z]/(Phi_N)
# ---------------------------------------------------------------------------


class CycloElement:
    """An element of Z[z]/(Phi_N(z)), the ring of integers of the N-th
    cyclotomic field, with z standing for exp(2*pi*i/N).

    The residue is fully reduced, so the zero test is exact: the element is
    zero iff the residue is the zero tuple.
    """

    __slots__ = ("modulus", "residue")

    def __init__(self, modulus: int, coeffs=()):  # coeffs: iterable of int
        if modulus < 1:
            raise ValueError("modulus must be >= 1")
        object.__setattr__(self, "modulus", modulus)
        p = list(coeffs)
        deg = euler_phi(modulus)
        if len(p) >= deg + 1:
            _, phi_n = cyclotomic(modulus).dense()
            _, p = _dense.divmod_exact(p, phi_n)
        p = p + [0] * (deg - len(p))
        object.__setattr__(self, "residue", tuple(p[:deg]))

    def __setattr__(self, *args):
        raise AttributeError("CycloElement is immutable")

    @staticmethod
    def from_int(modulus: int, value: int) -> CycloElement:
        return CycloElement(modulus, [value])

    @staticmethod
    def from_laurent(poly: LaurentPoly, modulus: int) -> CycloElement:
        """Evaluate a Laurent polynomial at z (exponents folded mod N)."""
        vec = [0] * modulus
        for e, c in poly.coeffs.items():
            vec[e % modulus] += c
        return CycloElement(modulus, vec)

    def is_zero(self) -> bool:
        return not any(self.residue)

    def is_rational(self) -> bool:
        return not any(self.residue[1:])

    def rational_value(self) -> int:
        if not self.is_rational():
            raise ValueError("element is not rational")
        return self.residue[0]

    def _check(self, other: CycloElement):
        if self.modulus != other.modulus:
            raise ValueError("mixed cyclotomic moduli")

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            return self.is_rational() and self.residue[0] == other
        if isinstance(other, CycloElement):
            return self.modulus == other.modulus and self.residue == other.residue
        return NotImplemented

    def __hash__(self):
        return hash((self.modulus, self.residue))

    def __add__(self, other: CycloElement) -> CycloElement:
        self._check(other)
        return CycloElement(self.modulus,
                            [a + b for a, b in zip(self.residue, other.residue)])

    def __sub__(self, other: CycloElement) -> CycloElement:
        self._check(other)
        return CycloElement(self.modulus,
                            [a - b for a, b in zip(self.residue, other.residue)])

    def __neg__(self) -> CycloElement:
        return CycloElement(self.modulus, [-a for a in self.residue])

    def scale(self, k: int) -> CycloElement:
        return CycloElement(self.modulus, [k * a for a in self.residue])

    def __mul__(self, other: CycloElement) -> CycloElement:
        self._check(other)
        prod = _dense.mul(list(self.residue), list(other.residue))
        return CycloElement(self.modulus, prod)

    def conjugate(self) -> CycloElement:
        """The image under z -> 1/z (complex conjugation)."""
        n = self.modulus
        vec = [0] * n
        for j, c in enumerate(self.residue):
            if c:
                vec[(n - j) % n] += c
        return CycloElement(n, vec)

    def is_real(self) -> bool:
        return self == self.conjugate()

    def __repr__(self):
        return f"CycloElement(N={self.modulus}, {list(self.residue)})"


def eval_at_roots(h: BiLaurentPoly, modulus: int, a: int, b: int) -> CycloElement:
    """Exact value of h at x = z**a, y = z**b inside Z[z]/(Phi_N)."""
    vec = [0] * modulus
    for (i, j), c in h.coeffs.items():
        vec[(a * i + b * j) % modulus] += c
    return CycloElement(modulus, vec)


_COS_BASIS: list[tuple[int, ...]] = [(2,), (0, 1)]


def cos_basis(j: int) -> tuple[int, ...]:
    """Coefficients of q_j(s) = z**j + z**-j as a polynomial in s = z + 1/z.

    q_j(2 cos theta) = 2 cos(j theta), so 2 T_j(c) = q_j(2c) for the
    Chebyshev polynomial T_j.  Built iteratively by q_{j+1} = s q_j - q_{j-1}
    and memoised.
    """
    basis = _COS_BASIS
    while len(basis) <= j:
        prev, cur = basis[-2], basis[-1]
        basis.append(tuple(a - b for a, b in zip((0,) + cur, prev + (0, 0))))
    return basis[j]


def cos_expand(a) -> list[int]:
    """Coefficients in s = z + 1/z of a[0] + sum_{j >= 1} a[j] q_j(s), trimmed.

    The map is linear, so a positive multiple of a expands to the same
    multiple of the result, which has the same sign at every s.
    """
    out = [0] * len(a)
    if a:
        out[0] = a[0]
    for j in range(1, len(a)):
        c = a[j]
        if c:
            for i, q in enumerate(cos_basis(j)):
                out[i] += c * q
    return _dense.trim(out)


def cos_minimal_poly(n: int) -> tuple[int, ...]:
    """Dense coefficients of the minimal polynomial of 2*cos(2*pi/n).

    For n >= 3 it is the cos_expand of the upper half of the palindromic
    Phi_n; monic of degree phi(n)/2.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if n == 1:
        return (-2, 1)
    if n == 2:
        return (2, 1)
    _, a = cyclotomic(n).dense()
    return tuple(cos_expand(a[(len(a) - 1) // 2:]))
