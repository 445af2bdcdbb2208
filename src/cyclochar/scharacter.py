"""Symmetric Laurent polynomials positive on the unit circle, and the
S-character axioms (pointwise real >= 0, inner product 1 with the trivial
character) checked on exact class data.

The positivity decision converts f(e^{i theta}) = a0 + sum 2 a_n cos(n theta)
to a polynomial in c = cos(theta) through the Chebyshev basis and isolates
its real roots on [-1, 1].  The sign of a real class value in Z[z]/(Phi_N)
is read from an integer fixed-point approximation with a proven error
bound, refined until the bound separates it from zero; the value is a
nonzero algebraic integer, so a computable precision always suffices.
Nothing is ever decided by floating point.
"""

from __future__ import annotations

import collections
from fractions import Fraction
from typing import NamedTuple

from . import _dense, realroots
from .errors import (
    ExponentTooLarge,
    HypothesisViolated,
    InconsistentClassData,
    IsTrivial,
    NotAnSCharacter,
    NotASquare,
    NotClassifiable,
    NotSymmetric,
)
from .laurent import CycloElement, LaurentPoly, cos_expand, sl2_character
from .parsing import ALLOWED_VARIABLES, MAX_COEFF_DIGITS, parse_univariate

# Largest N in a `root <var> <N>` class-data directive.  Each real value is
# reduced mod Phi_N twice (once built, once conjugated by the realness test),
# in time about (N - phi(N)) phi(N) and worst at N with many odd prime
# factors; its sign costs little.  A 6-value file of near-zero values takes
# about 0.6 s at N = 1785, 0.7 s at 1995 and 0.1 s at 2048 as a whole
# command (2 vCPUs).
MAX_ROOT_ORDER = 2048


class SymmetricLaurent:
    """A Laurent polynomial with integer coefficients and a_n = a_{-n}.

    The symmetry is exactly the condition that all values on the unit
    circle are real.
    """

    __slots__ = ("poly",)

    def __init__(self, poly: LaurentPoly | dict[int, int]):
        if isinstance(poly, dict):
            poly = LaurentPoly(poly)
        for e, c in poly.coeffs.items():
            if poly.coefficient(-e) != c:
                raise NotSymmetric(f"coefficient mismatch at exponents {e}, {-e}")
        object.__setattr__(self, "poly", poly)

    def __setattr__(self, *args):
        raise AttributeError("SymmetricLaurent is immutable")

    def a(self, n: int) -> int:
        return self.poly.coefficient(n)

    def __eq__(self, other):
        if isinstance(other, SymmetricLaurent):
            return self.poly == other.poly
        return NotImplemented

    def __hash__(self):
        return hash(self.poly)

    def __str__(self):
        return str(self.poly)

    def __repr__(self):
        return f"SymmetricLaurent('{self.poly}')"

    def cos_coefficients(self) -> list[int]:
        """Integer coefficients of p(c) with f(e^{i theta}) = p(cos theta)."""
        if self.poly.is_zero():
            return []
        top = max(self.poly.max_exp, 0)
        s_coeffs = cos_expand([self.a(n) for n in range(top + 1)])
        # s = 2 cos theta, so the coefficient of s**i scales by 2**i
        return [c << i for i, c in enumerate(s_coeffs)]


def _coerce(f: SymmetricLaurent | LaurentPoly | dict) -> SymmetricLaurent:
    if isinstance(f, SymmetricLaurent):
        return f
    return SymmetricLaurent(f)


class PositivityReport(NamedTuple):
    """Outcome of the circle-positivity decision; when negative, the witness
    is a rational interval in c = cos(theta) on which the value is < 0."""

    is_positive: bool
    negative_interval: tuple[Fraction, Fraction] | None

    def __bool__(self) -> bool:
        return self.is_positive


def is_positive_on_circle(f: SymmetricLaurent | LaurentPoly) -> PositivityReport:
    """Exact decision whether f >= 0 everywhere on the unit circle."""
    f = _coerce(f)
    ok, witness = realroots.nonneg_on_interval(f.cos_coefficients(), Fraction(-1), Fraction(1))
    return PositivityReport(ok, witness)


def partial_sums(f: SymmetricLaurent | LaurentPoly, m: int) -> tuple[int, int]:
    """(S+, S-) = (m(a0 + 2 a_m), m(a0 - 2 a_m)), the sums of f over the
    2m-th roots of unity split by the sign of t**m.

    Requires a_n = 0 for every n > m divisible by m, the support condition
    that kills all other terms of the root-of-unity sums.
    """
    f = _coerce(f)
    if m < 1:
        raise ValueError("m must be >= 1")
    if not f.poly.is_zero():
        for n in range(2 * m, f.poly.max_exp + 1, m):
            if f.a(n):
                raise HypothesisViolated(f"a_{n} = {f.a(n)} is nonzero with {m} | {n}")
    a0, am = f.a(0), f.a(m)
    return m * (a0 + 2 * am), m * (a0 - 2 * am)


def g_plus(m: int) -> LaurentPoly:
    """t**-m + 2 + t**m."""
    return LaurentPoly({-m: 1, 0: 2, m: 1})


def g_minus(m: int) -> LaurentPoly:
    """-t**-m + 2 - t**m."""
    return LaurentPoly({-m: -1, 0: 2, m: -1})


def classify_a0_2(f: SymmetricLaurent | LaurentPoly) -> tuple[int, str]:
    """Identify a positive non-constant integer f with a0 = 2 as
    t**-m + 2 + t**m (sign '+') or -t**-m + 2 - t**m (sign '-').

    Any hypothesis failure raises NotClassifiable.
    """
    try:
        f = _coerce(f)
    except NotSymmetric as exc:
        raise NotClassifiable(f"not symmetric: {exc}") from exc
    if f.poly.is_constant():
        raise NotClassifiable("constant polynomial")
    if f.a(0) != 2:
        raise NotClassifiable(f"constant coefficient is {f.a(0)}, not 2")
    if not is_positive_on_circle(f):
        raise NotClassifiable("not positive on the unit circle")
    m = f.poly.max_exp
    if f.poly == g_plus(m):
        return m, "+"
    if f.poly == g_minus(m):
        return m, "-"
    raise NotClassifiable("matches neither t^-m + 2 + t^m nor -t^-m + 2 - t^m")


def su2_mean(f: SymmetricLaurent | LaurentPoly) -> int:
    """The inner product with the trivial character over SU2: by the Weyl
    integration formula this is half the constant coefficient of
    f * (-t**-2 + 2 - t**2), i.e. a0 - a2."""
    f = _coerce(f)
    return f.a(0) - f.a(2)


def su2_decompose(f: SymmetricLaurent | LaurentPoly) -> int:
    """Write a candidate S-character restriction as g_n**2 and return n.

    Requires positivity on the circle and mean 1 (else NotAnSCharacter);
    f * (-t**-2 + 2 - t**2) must then be -t**-2n + 2 - t**2n for some n
    (else NotASquare), and f = g_n**2 is verified by exact squaring.

    The exact identity is tried before the positivity decision: g_n is
    symmetric with integer coefficients, so it is real on the circle and
    g_n**2 >= 0 there, which makes the Sturm check redundant once f = g_n**2
    holds.  Errors keep their precedence: a wrong mean, then a failed
    positivity check (NotAnSCharacter), then the form test and then the
    verification (NotASquare).
    """
    f = _coerce(f)
    if su2_mean(f) != 1:
        raise NotAnSCharacter(f"mean is {su2_mean(f)}, not 1")
    big = f.poly * g_minus(2)
    m = big.max_exp
    is_form = big == g_minus(m) and not m % 2
    n = m // 2
    if is_form:
        g = sl2_character(n)
        if f.poly == g * g:
            return n
    if not is_positive_on_circle(f):
        raise NotAnSCharacter("not positive on the unit circle")
    if not is_form:
        raise NotASquare("f * (-t^-2 + 2 - t^2) is not of the form -t^-2n + 2 - t^2n")
    raise NotASquare(f"verification f = g_{n}^2 failed")


class TorusRejection(NamedTuple):
    """Certificate that a torus class function with constant term 1 is not
    an S-character: a separating one-parameter direction and a negativity
    witness for the restricted circle polynomial."""

    direction: tuple[int, ...]
    restriction: SymmetricLaurent
    negative_interval: tuple[Fraction, Fraction]


def torus_reject(f: dict[tuple[int, ...], int]) -> TorusRejection:
    """Reject a nontrivial symmetric torus class function with n_0 = 1.

    The direction y = (1, M, M**2, ...) with M exceeding twice the largest
    support difference keeps all support exponents distinct, so the
    restriction has constant term 1; a positive non-constant integer
    polynomial on the circle needs constant term >= 2, so the positivity
    check must fail and its witness certifies the rejection.
    """
    clean = {tuple(int(x) for x in e): int(c) for e, c in f.items() if c}
    if not clean:
        raise ValueError("empty class function")
    arity = len(next(iter(clean)))
    if any(len(e) != arity for e in clean):
        raise ValueError("inconsistent exponent arity")
    zero = (0,) * arity
    if clean.get(zero) != 1:
        raise ValueError("constant term must be 1")
    for e, c in clean.items():
        neg = tuple(-x for x in e)
        if clean.get(neg) != c:
            raise NotSymmetric(f"coefficient mismatch at {e} and {neg}")
    if clean == {zero: 1}:
        raise IsTrivial("the trivial character needs no rejection")
    spreads = [
        max(e[i] for e in clean) - min(e[i] for e in clean) for i in range(arity)
    ]
    m = 1 + 2 * max(spreads)
    direction = tuple(m ** i for i in range(arity))
    restricted: dict[int, int] = {}
    for e, c in clean.items():
        k = sum(x * y for x, y in zip(e, direction))
        if k in restricted:
            raise AssertionError("separating direction failed to separate")
        restricted[k] = c
    f_y = SymmetricLaurent(restricted)
    report = is_positive_on_circle(f_y)
    if report.is_positive:
        raise AssertionError("positive restriction with constant term 1 is impossible")
    return TorusRejection(direction, f_y, report.negative_interval)


# ---------------------------------------------------------------------------
# S-characters of finite groups from class data
# ---------------------------------------------------------------------------


def _arctan_inv(x: int, scale: int) -> tuple[int, int]:
    """(a, e) with |a - scale * arctan(1/x)| <= e, for integers x >= 2.

    The k-th term of arctan(1/x) = sum_k (-1)^k / ((2k + 1) x^(2k + 1)) is
    taken as floor(floor(scale / x^(2k + 1)) / (2k + 1)); nested floors of
    positive integers compose, so it is scale times the true term rounded
    down, within 1 of it.  The loop stops at the first k with
    x^(2k + 1) > scale, where the omitted tail alternates with decreasing
    terms and is at most its first term, below 1.  So k terms and the tail
    are off by less than k + 1 in total.
    """
    total, power, k = 0, scale // x, 0
    while power:
        term = power // (2 * k + 1)
        total += -term if k & 1 else term
        power //= x * x
        k += 1
    return total, k + 1


def _fixed_root(modulus: int, scale: int) -> tuple[int, int, int]:
    """(c, s, e) with |c + i s - scale * exp(2 pi i/N)| <= e, for N >= 3.

    - pi.  Machin's formula pi = 16 arctan(1/5) - 4 arctan(1/239) gives P
      with |P - scale pi| <= e_pi = 16 e_5 + 4 e_239 (_arctan_inv).
    - The angle.  t = floor(2P/N) is within 2 e_pi/N + 1 of scale * 2 pi/N.
      Since |exp(ia) - exp(ib)| <= |a - b| for real a, b, taking exp at the
      rational point x = t/scale instead of 2 pi/N costs at most that much.
    - exp(ix) by its Taylor series.  The m-th term u_m = floor(u_{m-1} t /
      (scale m)), u_0 = scale, is within d_m of scale x^m/m!, where d_0 = 0
      and d_m = ceil(d_{m-1} x/m) + 1: the previous error scales by x/m and
      the floor adds less than 1.  The terms go to c and s by m mod 4.  The
      loop stops once u_m = 0 and x/(m + 1) <= 1/2: then the true m-th term
      is at most d_m and each later one at most half the one before, so the
      omitted tail is at most d_m.  The modulus of the complex error is at
      most the sum of the term errors plus the tail.
    """
    a5, e5 = _arctan_inv(5, scale)
    a239, e239 = _arctan_inv(239, scale)
    pi, e_pi = 16 * a5 - 4 * a239, 16 * e5 + 4 * e239
    t = 2 * pi // modulus
    err = -(-2 * e_pi // modulus) + 1
    c, s, term, d, m = scale, 0, scale, 0, 0
    while True:
        m += 1
        step = scale * m
        term = term * t // step
        d = -(-d * t // step) + 1
        err += d
        if m & 1:
            s += -term if m & 2 else term
        else:
            c += -term if m & 2 else term
        if not term and 2 * t <= step + scale:
            return c, s, err + d


def _fixed_value(residue: list[int], modulus: int, scale: int) -> tuple[int, int]:
    """(a, e) with |a - scale * v| <= e for a real v = sum_j residue[j] z^j.

    v is real, so it equals its real part, sum_j c_j Re z^j.  W_j, the
    fixed-point z^j, is W_{j-1} Z/scale with each coordinate rounded down,
    W_0 = scale exact and Z = (c, s) from _fixed_root with error e_z.  As
    W_{j-1} Z/scale - scale z^j = ((W_{j-1} - scale z^(j-1)) Z
    + scale z^(j-1) (Z - scale z))/scale and |Z| <= scale + e_z, its modulus
    is at most e_{j-1} (1 + e_z/scale) + e_z; the two floors add less than
    2, so e_j = e_{j-1} + ceil(e_{j-1} e_z/scale) + e_z + 2 bounds
    |W_j - scale z^j|.  It grows linearly in j while j e_z is small against
    scale.  Then e = sum_j |c_j| e_j bounds the error of a = sum_j c_j Re W_j.
    """
    c, s, ez = _fixed_root(modulus, scale)
    re, im, ej = scale, 0, 0
    a, e = residue[0] * scale, 0
    for cj in residue[1:]:
        re, im = (re * c - im * s) // scale, (re * s + im * c) // scale
        ej += -(-ej * ez // scale) + ez + 2
        if cj:
            a += cj * re
            e += abs(cj) * ej
    return a, e


def cyclo_sign(v: CycloElement) -> int:
    """Sign (-1, 0, +1) of a real cyclotomic value under z = exp(2 pi i/N);
    a non-real value raises ValueError.

    Zero and rational values are read off the residue.  Otherwise the value
    is approximated in integer fixed point at 2^p (_fixed_value): an integer
    A and a bound E with |A - 2^p v| <= E.  If |A| > E, A has the sign of v;
    if not, p doubles.

    Why it ends.  N >= 3 here, and v = sum_j c_j z^j lies in the real
    subfield Q(z + 1/z), of degree d = phi(N)/2.  Its conjugates over Q are
    sum_j c_j z^(aj) for the d classes a in (Z/N)^x / {1, -1}, so each is at
    most B = sum_j |c_j| in absolute value.  v is a nonzero algebraic
    integer, so the product of its d conjugates is a nonzero integer and
    |v| >= B^-(d - 1).  Once 2^p > 2 E B^(d - 1), |A| >= 2^p |v| - E > E and
    the loop stops.  E grows only linearly in p (it is about B N p: the
    series of _arctan_inv and _fixed_root have O(p) terms, each off by a
    bounded amount), so that p is reached.  Failing to stop past it would
    contradict the bound, and raises an internal error.  No float and no
    root isolation is used.
    """
    if not v.is_real():
        raise ValueError("sign of a non-real value")
    if v.is_zero():
        return 0
    if v.is_rational():
        r = v.rational_value()
        return 1 if r > 0 else -1
    c = _dense.trim(list(v.residue))
    bound_bits = (len(v.residue) // 2 - 1) * sum(map(abs, c)).bit_length()
    p = 64
    while True:
        a, e = _fixed_value(c, v.modulus, 1 << p)
        if abs(a) > e:
            return 1 if a > 0 else -1
        if p >= (2 * e).bit_length() + bound_bits:
            raise AssertionError(f"no sign at {p} bits although |v| > 2^-{bound_bits}")
        p *= 2


class FiniteClassFunction(collections.namedtuple("FiniteClassFunction", "class_sizes values")):
    """Conjugacy-class sizes and exact class-function values over a common
    cyclotomic modulus, validated on construction; the group order is the
    size total."""

    __slots__ = ()

    def __new__(cls, class_sizes: tuple[int, ...], values: tuple[CycloElement, ...]):
        if len(class_sizes) != len(values):
            raise InconsistentClassData("sizes and values differ in length")
        if not class_sizes:
            raise InconsistentClassData("no classes")
        if any(s < 1 for s in class_sizes):
            raise InconsistentClassData("class sizes must be positive")
        moduli = {v.modulus for v in values}
        if len(moduli) != 1:
            raise InconsistentClassData(f"mixed cyclotomic moduli {sorted(moduli)}")
        return super().__new__(cls, class_sizes, values)

    @staticmethod
    def from_rational(sizes, values) -> FiniteClassFunction:
        return FiniteClassFunction(
            tuple(sizes), tuple(CycloElement.from_int(1, v) for v in values)
        )

    @property
    def group_order(self) -> int:
        return sum(self.class_sizes)

    @property
    def modulus(self) -> int:
        return self.values[0].modulus


class SCheckReport(NamedTuple):
    is_positive: bool
    mean_is_one: bool
    zero_classes: tuple[int, ...]
    nonreal_classes: tuple[int, ...]
    negative_classes: tuple[int, ...]
    is_trivial: bool

    @property
    def is_s_character(self) -> bool:
        return self.is_positive and self.mean_is_one


def finite_s_check(cf: FiniteClassFunction) -> SCheckReport:
    """Check the two S-character axioms on exact class data and list the
    zero classes.

    Data passing both axioms with f != 1 but exhibiting no zero class
    cannot come from a virtual character, so that combination raises
    InconsistentClassData rather than being reported.
    """
    nonreal = []
    negative = []
    zeros = []
    for i, v in enumerate(cf.values):
        try:
            s = cyclo_sign(v)
        except ValueError:
            nonreal.append(i)
            continue
        if s == 0:
            zeros.append(i)
        elif s < 0:
            negative.append(i)
    total = CycloElement.from_int(cf.modulus, 0)
    for size, v in zip(cf.class_sizes, cf.values):
        total = total + v.scale(size)
    mean_is_one = total == CycloElement.from_int(cf.modulus, cf.group_order)
    is_positive = not nonreal and not negative
    is_trivial = all(v == CycloElement.from_int(cf.modulus, 1) for v in cf.values)
    if is_positive and mean_is_one and not is_trivial and not zeros:
        raise InconsistentClassData(
            "both S-character axioms hold for a nontrivial class function "
            "with no zero class; such values cannot come from a virtual character"
        )
    return SCheckReport(
        is_positive=is_positive,
        mean_is_one=mean_is_one,
        zero_classes=tuple(zeros),
        nonreal_classes=tuple(nonreal),
        negative_classes=tuple(negative),
        is_trivial=is_trivial,
    )


def load_class_data(text: str) -> FiniteClassFunction:
    """Parse the two-column class-data format.

    An optional directive line `root <var> <N>` declares the variable (one
    of t, u, x, y) used in value expressions to stand for a primitive N-th
    root of unity; each remaining nonempty line is `<size> <value
    expression>`.  Without a directive, values are evaluated with modulus 1
    (any variable collapses to 1).  Lines starting with '#' are comments.
    A root order above MAX_ROOT_ORDER raises ExponentTooLarge before any
    value is built; a size total of more than MAX_COEFF_DIGITS digits, the
    group order, raises InconsistentClassData.
    """
    var = "t"
    modulus = 1
    sizes: list[int] = []
    values: list[CycloElement] = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split(None, 1)
        if parts[0] == "root":
            fields = line.split()
            if len(fields) != 3 or values:
                raise InconsistentClassData(f"malformed root directive: {raw!r}")
            var = fields[1]
            if var not in ALLOWED_VARIABLES:
                raise InconsistentClassData(
                    f"root variable must be one of {', '.join(ALLOWED_VARIABLES)}: {raw!r}")
            try:
                modulus = int(fields[2])
            except ValueError:
                modulus = 0
            if modulus < 1:
                raise InconsistentClassData(f"root order must be an integer >= 1: {raw!r}")
            if modulus > MAX_ROOT_ORDER:
                raise ExponentTooLarge(
                    f"root order {modulus} exceeds the class-data limit N <= {MAX_ROOT_ORDER}")
            continue
        if len(parts) != 2:
            raise InconsistentClassData(f"expected '<size> <expression>': {raw!r}")
        try:
            size = int(parts[0])
        except ValueError as exc:
            raise InconsistentClassData(f"bad class size in {raw!r}") from exc
        poly = parse_univariate(parts[1], var)
        sizes.append(size)
        values.append(CycloElement.from_laurent(poly, modulus))
    if sum(sizes) >= 10 ** MAX_COEFF_DIGITS:
        raise InconsistentClassData(f"the class sizes total more than {MAX_COEFF_DIGITS} digits")
    return FiniteClassFunction(tuple(sizes), tuple(values))
