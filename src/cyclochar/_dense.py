"""Dense integer-polynomial kernels.

A polynomial is a list of int coefficients, index = exponent, no sign or
sparsity tricks.  These loops back every exact-arithmetic path in the
package, so they stay free of object wrappers; the itertools.accumulate
recurrences keep the binomial multiply/divide passes at C speed, which is
what makes the rank-8 sweeps affordable.  Horner evaluation, the Z[x] gcd
and exact division live here only; the one Q[x] remainder the package
needs is the Sturm step in realroots.
"""

from __future__ import annotations

import itertools
import math
import operator

from .errors import InexactDivision


def trim(p: list) -> list:
    """Drop trailing zero coefficients (in place) and return the list; works
    for Fraction coefficients too."""
    while p and p[-1] == 0:
        p.pop()
    return p


def sub(a: list[int], b: list[int]) -> list[int]:
    out = list(a) + [0] * (len(b) - len(a))
    for i, c in enumerate(b):
        out[i] -= c
    return trim(out)


def mul(a: list[int], b: list[int]) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    if len(b) < len(a):
        a, b = b, a
    for i, c in enumerate(a):
        if c:
            for j, d in enumerate(b):
                out[i + j] += c * d
    return trim(out)


def mul_binomial(p: list[int], ell: int) -> list[int]:
    """p * (t**ell - 1), two slice passes."""
    if not p:
        return []
    out = [-c for c in p] + [0] * ell
    out[ell:] = list(map(operator.add, out[ell:], p))
    return trim(out)


def divexact_binomial(p: list[int], ell: int) -> list[int]:
    """p / (t**ell - 1), raising InexactDivision unless the division is exact.

    From p = q*(t**ell - 1): q[j] = q[j-ell] - p[j], one running sum per
    residue class mod ell; the top ell running sums must vanish.
    """
    if not p:
        return []
    if len(p) <= ell:
        raise InexactDivision(f"degree {len(p) - 1} polynomial not divisible by t^{ell} - 1")
    q = [0] * len(p)
    for r in range(ell):
        cls = p[r::ell]
        q[r::ell] = itertools.accumulate((-c for c in cls), operator.add)
    for j in range(len(p) - ell, len(p)):
        if q[j] != 0:
            raise InexactDivision(f"division by t^{ell} - 1 leaves a remainder")
    del q[len(p) - ell:]
    return trim(q)


def binomial_product(p: list[int], numer, denom) -> list[int]:
    """p * prod(t**a - 1 for a in numer) / prod(t**b - 1 for b in denom).

    Every multiplication comes first, then the exact divisions in turn, each
    one linear pass; a division that leaves a remainder raises
    InexactDivision, so a returned list is the exact quotient.
    """
    for a in numer:
        p = mul_binomial(p, a)
    for b in denom:
        p = divexact_binomial(p, b)
    return p


def divmod_exact(a: list[int], b: list[int]) -> tuple[list[int], list[int]]:
    """Quotient and remainder of a by b over the integers.

    Requires every leading-coefficient division along the way to be exact,
    which holds whenever b divides a over Z (the only use this package has);
    raises InexactDivision otherwise.
    """
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    r = list(a)
    trim(r)
    db = len(b) - 1
    lead = b[-1]
    q = [0] * max(len(r) - db, 0)
    while len(r) - 1 >= db and r:
        c, rem = divmod(r[-1], lead)
        if rem:
            raise InexactDivision(f"leading coefficient {r[-1]} not divisible by {lead}")
        k = len(r) - 1 - db
        q[k] = c
        for i, d in enumerate(b):
            r[k + i] -= c * d
        trim(r)
    return trim(q), r


def divexact(a: list[int], b: list[int]) -> list[int]:
    q, r = divmod_exact(a, b)
    if r:
        raise InexactDivision("polynomial division leaves a remainder")
    return q


def divides(b: list[int], a: list[int]) -> bool:
    """True when b divides a over the integers."""
    if not a:
        return True
    if not b:
        return False
    try:
        _, r = divmod_exact(a, b)
    except InexactDivision:
        return False
    return not r


def evaluate(p: list, s):
    """p(s) by Horner's rule, for int or Fraction coefficients and points."""
    v = 0
    for c in reversed(p):
        v = v * s + c
    return v


def fold(p: list[int], d: int) -> list[int]:
    """p mod (t**d - 1): wrap exponents into [0, d)."""
    out = [0] * d
    for j, c in enumerate(p):
        if c:
            out[j % d] += c
    return out


def content(p: list[int]) -> int:
    g = 0
    for c in p:
        g = math.gcd(g, c)
    return g


def gcd(a: list[int], b: list[int]) -> list[int]:
    """Gcd in Z[x] (primitive PRS), normalized to positive leading coefficient."""
    a, b = list(a), list(b)
    if not a:
        out = b
    elif not b:
        out = a
    else:
        ca, cb = content(a), content(b)
        a = [c // ca for c in a]
        b = [c // cb for c in b]
        while b:
            r = prem(a, b)
            cr = content(r)
            a, b = b, ([c // cr for c in r] if cr else [])
        out = [c * math.gcd(ca, cb) // content(a) for c in a]
    if out and out[-1] < 0:
        out = [-c for c in out]
    return out


def prem(a: list[int], b: list[int]) -> list[int]:
    """Pseudo-remainder of a by b over Z."""
    r = list(a)
    lb = b[-1]
    db = len(b) - 1
    trim(r)
    while r and len(r) - 1 >= db:
        lead = r[-1]
        shift = len(r) - 1 - db
        r = [c * lb for c in r]
        for j, bc in enumerate(b):
            r[shift + j] -= lead * bc
        trim(r)
    return r
