"""Characters restricted to the principal one-parameter subgroup.

The restriction of the irreducible character with highest weight lambda to
the one-parameter subgroup t -> f(t), f = 2 rho^vee, is

    t**(-<lambda, 2 rho^vee>) * prod (t**(2n'_i) - 1) / (t**(2n_i) - 1)

with n'_i = <lambda + rho, a_i^vee> and n_i = <rho, a_i^vee> over the
positive coroots.  Since t**k - 1 is the product of Phi_d(t) over d | k, the
multiplicity of Phi_d is #{i : d | 2n'_i} - #{i : d | 2n_i}, or with the
undoubled exponents in u = t**2: the zero orders, and the divisibility
behind the explicit zero, are read off the two exponent lists by divisor
counting, with no factoring.

The dense passes (the quotient and the tensor identity) first cancel the
exponents common to both lists as multisets, which is exact because a common
nonzero factor cancels in Z[t, 1/t].  The quotient is then one linear pass
per binomial: the numerator product is divided exactly by each denominator
binomial in turn, and each division's vanishing remainder is the certificate
that the quotient is a polynomial.
"""

from __future__ import annotations

import collections
import math
from typing import NamedTuple

from . import _dense
from .errors import (
    InexactDivision,
    NonCyclotomicRemainder,
    ProductNotLarger,
    ZeroWeight,
)
from .laurent import LaurentPoly, prime_factors, sl2_character  # noqa: F401  (re-exported)
from .rootsys import DominantWeight, RootSystem, epsilon_trivial, weight_pairings, weyl_dim


class PrincipalCharacter(NamedTuple):
    """An irreducible character evaluated on the principal torus.

    poly_u is the same polynomial in u = t**2 when the central element
    f(-1) is trivial (only even powers of t occur then); otherwise None.
    """

    type: object  # CartanType
    weight: DominantWeight
    numerator_exponents: tuple[int, ...]
    denominator_exponents: tuple[int, ...]
    poly_t: LaurentPoly
    epsilon_trivial: bool
    poly_u: LaurentPoly | None

    def dimension(self) -> int:
        return self.poly_t.coefficient_sum()

    @property
    def order_variable(self) -> str:
        return "u" if self.epsilon_trivial else "t"

    def natural_poly(self) -> LaurentPoly:
        return self.poly_u if self.epsilon_trivial else self.poly_t


def _cancel_common(numer, denom) -> tuple[list[int], list[int]]:
    """The two exponent lists with their common multiset part removed."""
    num, den = collections.Counter(numer), collections.Counter(denom)
    common = num & den
    return list((num - common).elements()), list((den - common).elements())


def _divisors(n: int) -> list[int]:
    """The positive divisors of n >= 1, unordered, by trial division."""
    out = []
    for d in range(1, math.isqrt(n) + 1):
        if n % d == 0:
            out.append(d)
            if d * d != n:
                out.append(n // d)
    return out


def _multiplicity(numer, denom, d: int) -> int:
    """#{a : d | a} - #{b : d | b}: the multiplicity of Phi_d in
    prod(t**a - 1) / prod(t**b - 1)."""
    return sum(1 for a in numer if a % d == 0) - sum(1 for b in denom if b % d == 0)


def _cyclotomic_counts(numer, denom) -> collections.Counter:
    """Multiplicity of Phi_d in prod(t**a - 1) / prod(t**b - 1) for every d
    dividing an exponent, #{a : d | a} - #{b : d | b}, since t**k - 1 is the
    product of Phi_d over d | k.  Exponents common to both lists cancel
    first; a negative count means the quotient is not a polynomial."""
    numer, denom = _cancel_common(numer, denom)
    counts = collections.Counter()
    for a in numer:
        counts.update(_divisors(a))
    for b in denom:
        counts.subtract(_divisors(b))
    return counts


def binomial_quotient(numer: list[int], denom: list[int]) -> LaurentPoly:
    """Exact polynomial prod(t**a - 1) / prod(t**b - 1).

    Exponents common to both lists cancel first.  The numerator product is
    then divided by each denominator binomial in turn; the quotient is a
    polynomial iff no division leaves a remainder, so those remainder tests
    certify it, and InexactDivision is raised otherwise.
    """
    if any(a < 1 for a in numer) or any(b < 1 for b in denom):
        raise ValueError("exponents must be positive")
    if sum(numer) < sum(denom):
        raise InexactDivision("denominator degree exceeds numerator degree")
    return LaurentPoly.from_dense(0, _dense.binomial_product([1], *_cancel_common(numer, denom)))


def principal_character(rs: RootSystem, weight: DominantWeight) -> PrincipalCharacter:
    """Exact value of chi_lambda on the principal one-parameter subgroup."""
    nprime = tuple(weight_pairings(rs, weight))
    nden = tuple(rs.rho_pairings)
    if any(a < b for a, b in zip(nprime, nden)):
        raise InexactDivision("numerator exponent below denominator exponent")
    if not weight.is_zero() and all(a == b for a, b in zip(nprime, nden)):
        raise InexactDivision("nonzero weight with no strict exponent increase")
    shift = sum(nprime) - sum(nden)
    quot = binomial_quotient([2 * a for a in nprime], [2 * b for b in nden])
    poly_t = quot.shift(-shift)
    if poly_t.coefficient_sum() != weyl_dim(rs, weight):
        raise InexactDivision(f"{rs.type}: character value at 1 differs from the Weyl dimension")
    eps = epsilon_trivial(rs)
    poly_u = None
    if eps:
        poly_u = poly_t.compress(2)
    return PrincipalCharacter(
        type=rs.type,
        weight=weight,
        numerator_exponents=nprime,
        denominator_exponents=nden,
        poly_t=poly_t,
        epsilon_trivial=eps,
        poly_u=poly_u,
    )


def _g_chain(coeffs: list[int], offset: int, factors: list[int]) -> tuple[list[int], int]:
    """Multiply a dense polynomial by prod g_n over factors, in linear passes:
    g_n = t**(1-n) (t**2n - 1)/(t**2 - 1)."""
    for n in factors:
        coeffs = _dense.mul_binomial(coeffs, 2 * n)
        coeffs = _dense.divexact_binomial(coeffs, 2)
        offset += 1 - n
    return coeffs, offset


def tensor_identity_check(rs: RootSystem, weight: DominantWeight,
                          pc: PrincipalCharacter | None = None) -> bool:
    """True iff poly_t * prod g_{n_i} equals prod g_{n'_i} exactly.

    This is the character identity between the pullback representation
    tensored with the rho-factor and the (lambda+rho)-factor, checked as an
    equality of Laurent polynomials.  The g_n common to both sides cancel
    first; each is nonzero, so the reduced identity holds exactly when the
    full one does.
    """
    if pc is None:
        pc = principal_character(rs, weight)
    numer, denom = _cancel_common(pc.numerator_exponents, pc.denominator_exponents)
    val, coeffs = pc.poly_t.dense()
    lhs, off_l = _g_chain(coeffs, val, denom)
    rhs, off_r = _g_chain([1], 0, numer)
    return off_l == off_r and lhs == rhs


def explicit_zero_order(rs: RootSystem, weight: DominantWeight,
                        pc: PrincipalCharacter | None = None) -> int:
    """The order m = <2 lambda + 2 rho, beta^vee> at which the character is
    guaranteed to vanish, beta^vee the highest coroot; that Phi_m divides
    poly_t, #{i : m | 2n'_i} > #{i : m | 2n_i}, is asserted before
    returning.  m is even, so m | 2n exactly when m/2 | n."""
    if weight.is_zero():
        raise ZeroWeight("the trivial character never vanishes")
    nprime = weight_pairings(rs, weight) if pc is None else pc.numerator_exponents
    m = 2 * nprime[rs.highest_coroot_index]
    if _multiplicity(nprime, rs.rho_pairings, m // 2) <= 0:
        raise NonCyclotomicRemainder(f"Phi_{m} does not divide the character")
    return m


def _valuation(n: int, p: int) -> int:
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def prime_power_zero(numer: list[int], denom: list[int]) -> tuple[int, int]:
    """A prime power ell**m with Phi_{ell**m} dividing
    prod(t**n'_i - 1)/prod(t**n_i - 1), given prod n'_i > prod n_i.

    ell is the smallest prime whose total valuation rises from denominator
    to numerator, m the smallest level where strictly more numerator
    exponents than denominator exponents are divisible by ell**m.
    """
    if any(a < 1 for a in numer) or any(b < 1 for b in denom):
        raise ValueError("exponents must be positive integers")
    prod_n, prod_d = math.prod(numer), math.prod(denom)
    if prod_n <= prod_d:
        raise ProductNotLarger(f"{prod_n} <= {prod_d}")
    primes = set()
    for a in numer:
        primes.update(prime_factors(a))
    for ell in sorted(primes):
        if sum(_valuation(a, ell) for a in numer) > sum(_valuation(b, ell) for b in denom):
            m = 1
            while _multiplicity(numer, denom, ell ** m) <= 0:
                m += 1
            return ell, m
    raise AssertionError("valuation argument guarantees a qualifying prime")


def zero_orders(pc: PrincipalCharacter) -> list[tuple[int, int]]:
    """Cyclotomic factorization of the character in its natural variable,
    as (d, multiplicity of Phi_d) with d ascending.

    The indices are the orders of the group elements at which the character
    vanishes: orders of u = t**2 when the principal map kills -1, orders of
    t itself otherwise.  The multiplicity of Phi_d is #{a : d | a} -
    #{b : d | b}, a and b running over the numerator and denominator
    exponents in the natural variable (n'_i and n_i in u, 2n'_i and 2n_i in
    t), after the exponents common to both lists cancel; no polynomial is
    factored.  A negative count means the character is not a product of
    cyclotomics, which theory forbids.
    """
    if pc.weight.is_zero():
        raise ZeroWeight("the trivial character has no zeros")
    scale = 1 if pc.epsilon_trivial else 2
    counts = _cyclotomic_counts([scale * a for a in pc.numerator_exponents],
                                [scale * b for b in pc.denominator_exponents])
    if any(m < 0 for m in counts.values()):
        raise NonCyclotomicRemainder(
            f"negative cyclotomic multiplicity for {pc.type}, weight {pc.weight}"
        )
    return sorted((d, m) for d, m in counts.items() if m)


def t_orders(pc: PrincipalCharacter, orders: list[tuple[int, int]] | None = None) -> list[int]:
    """Orders of the torus parameter t at the character's zeros: twice the
    u-order when the kernel is {1, -1}, the natural order otherwise."""
    if orders is None:
        orders = zero_orders(pc)
    if pc.epsilon_trivial:
        return [2 * d for d, _ in orders]
    return [d for d, _ in orders]
