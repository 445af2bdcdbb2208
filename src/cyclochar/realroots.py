"""Exact real-root isolation and sign analysis over the rationals.

Dense polynomials with int or Fraction coefficients: squarefree parts are
integer lists from the Z[x] kernels of _dense, and signed remainder chains
run over Q.  Sturm chains count roots for bisection, which keeps non-root
rational endpoints throughout; one Tarski query reads the sign of a
polynomial at an isolated root.  Every sign decision is exact.
"""

from __future__ import annotations

import math
from fractions import Fraction

from . import _dense


evaluate = _dense.evaluate


def derivative(p: list) -> list:
    return _dense.trim([i * c for i, c in enumerate(p)][1:])


def _rem(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    """Remainder of a by b over Q, the one Q[x] division here.

    Both lists must hold Fractions: with ints, c = r[-1] / lead would be a
    float.
    """
    r = list(a)
    lead = b[-1]
    while len(r) >= len(b):
        c = r[-1] / lead
        k = len(r) - len(b)
        for i, d in enumerate(b):
            r[k + i] -= c * d
        _dense.trim(r)
    return r


def squarefree(p: list) -> list[int]:
    """The squarefree part of p (int or Fraction coefficients) as an int list.

    Denominators are cleared by their positive lcm, and the result is that
    integer polynomial divided exactly by its Z[x] gcd with its derivative,
    whose leading coefficient is positive; it is therefore a positive
    rational multiple of p / (monic gcd(p, p')), with the same roots and
    the same sign at every point.
    """
    den = 1
    for c in p:
        den = math.lcm(den, c.denominator)
    ints = _dense.trim([c.numerator * (den // c.denominator) for c in p])
    if len(ints) <= 1:
        return ints
    return _dense.divexact(ints, _dense.gcd(ints, derivative(ints)))


def _signed_remainders(a: list, b: list) -> list[list[Fraction]]:
    """The signed remainder chain a, b, -rem(a, b), ... as Fraction lists,
    up to its last nonzero member."""
    chain = [[Fraction(c) for c in _dense.trim(list(p))] for p in (a, b)]
    while chain[-1]:
        chain.append([-c for c in _rem(chain[-2], chain[-1])])
    chain.pop()
    return chain


def sturm_chain(p: list) -> list[list[Fraction]]:
    """The Sturm chain p, p', -rem(p, p'), ... as Fraction lists.

    Remainders are linear in the scale of their inputs, so the chain of a
    positive multiple of p is the same multiple of p's chain: it gives the
    same sign variations at every point.
    """
    return _signed_remainders(p, derivative(p))


def _variations(chain: list[list[Fraction]], x: Fraction) -> int:
    signs = []
    for p in chain:
        v = evaluate(p, x)
        if v:
            signs.append(1 if v > 0 else -1)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def count_roots(chain: list[list[Fraction]], lo: Fraction, hi: Fraction) -> int:
    """The variation drop of a signed remainder chain from lo to hi: for a
    Sturm chain, the distinct real roots of its head in (lo, hi]."""
    return _variations(chain, lo) - _variations(chain, hi)


def _nonroot_between(q: list, a: Fraction, b: Fraction) -> Fraction:
    """A rational point strictly inside (a, b) that is not a root of q."""
    k = 2
    while True:
        m = a + (b - a) / k
        if evaluate(q, m) != 0:
            return m
        k += 1


def isolate_roots(p: list, lo: Fraction, hi: Fraction) -> list[tuple[Fraction, Fraction]]:
    """Pairwise separated intervals with non-root rational endpoints, each
    containing exactly one root of p, jointly all roots in (lo, hi), and
    none touching lo, hi or each other.

    Requires p(lo) != 0 and p(hi) != 0; p need not be squarefree.
    """
    q = squarefree(p)
    if len(q) <= 1:
        return []
    if evaluate(q, lo) == 0 or evaluate(q, hi) == 0:
        raise ValueError("isolation endpoints must not be roots")
    chain = sturm_chain(q)
    out: list[tuple[Fraction, Fraction]] = []
    stack = [(lo, hi, count_roots(chain, lo, hi))]
    while stack:
        a, b, k = stack.pop()
        if k == 0:
            continue
        if k == 1:
            out.append((a, b))
            continue
        m = _nonroot_between(q, a, b)
        ka = count_roots(chain, a, m)
        stack.append((a, m, ka))
        stack.append((m, b, k - ka))
    out.sort()
    separated = []
    floor = lo
    for i, (a, b) in enumerate(out):
        ceil = out[i + 1][0] if i + 1 < len(out) else hi
        while a <= floor:
            w = _nonroot_between(q, a, b)
            if count_roots(chain, a, w) == 0:
                a = w
            else:
                b = w
        while b >= ceil:
            w = _nonroot_between(q, a, b)
            if count_roots(chain, a, w) == 1:
                b = w
            else:
                a = w
        separated.append((a, b))
        floor = b
    return separated


def nonneg_on_interval(p, lo, hi) -> tuple[bool, tuple[Fraction, Fraction] | None]:
    """Decide p >= 0 on [lo, hi] exactly.

    Returns (True, None) or (False, (a, b)) where p < 0 throughout [a, b].
    The sign of p is constant on the root-free gaps between isolating
    intervals and matches the nearer endpoint inside them, so evaluating p
    at the interval ends and at every isolating endpoint decides the claim.
    """
    p = _dense.trim(list(p))
    lo, hi = Fraction(lo), Fraction(hi)
    if lo >= hi:
        raise ValueError("need lo < hi")
    q = squarefree(p)
    for end in (lo, hi):
        # q is squarefree, so a root at an end is simple; dividing by the
        # primitive d*x - n is exact over Z by Gauss's lemma
        if evaluate(q, end) == 0:
            q = _dense.divexact(q, [-end.numerator, end.denominator])
    intervals = isolate_roots(q, lo, hi)
    # bounds[0] = lo, then isolating endpoints in order, bounds[-1] = hi;
    # even indices open a root-free gap, odd indices close one.
    bounds = [lo] + [x for pair in intervals for x in pair] + [hi]
    for idx, e in enumerate(bounds):
        if evaluate(p, e) >= 0:
            continue
        if idx % 2 == 1:
            a, b = bounds[idx - 1], e
        else:
            a, b = e, bounds[idx + 1]
        # only lo/hi can be roots of p among gap points; shrink off them
        if evaluate(p, a) == 0:
            a = (a + e) / 2
        if evaluate(p, b) == 0:
            b = (e + b) / 2
        return False, (a, b)
    return True, None


def sign_at_unique_root(f, q: list, lo: Fraction, hi: Fraction) -> int:
    """Sign of f at the single root xi of q inside (lo, hi); 0 when f(xi) = 0,
    as when q divides f.

    One Tarski query (Sturm-Tarski; Basu-Pollack-Roy, Algorithms in Real
    Algebraic Geometry, ch. 2): the variation drop of the signed remainder
    chain of q and q' f from lo to hi is the sum of sign f(x) over the
    distinct roots x of q in (lo, hi), here xi alone.  Requires q(lo) != 0
    and q(hi) != 0.
    """
    return count_roots(_signed_remainders(q, _dense.mul(derivative(q), f)), lo, hi)
