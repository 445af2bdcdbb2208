"""Exact real-root isolation and sign analysis over the rationals.

Dense polynomials with Fraction coefficients, Sturm chains, bisection with
non-root rational endpoints throughout, so every sign decision is exact.
"""

from __future__ import annotations

from fractions import Fraction

from . import _dense


def from_ints(p) -> list[Fraction]:
    return _dense.trim([Fraction(c) for c in p])


def evaluate(p: list[Fraction], x: Fraction) -> Fraction:
    v = Fraction(0)
    for c in reversed(p):
        v = v * x + c
    return v


def derivative(p: list[Fraction]) -> list[Fraction]:
    return _dense.trim([i * c for i, c in enumerate(p)][1:])


def _divmod(a: list[Fraction], b: list[Fraction]) -> tuple[list[Fraction], list[Fraction]]:
    r = list(a)
    _dense.trim(r)
    q = [Fraction(0)] * max(len(r) - len(b) + 1, 0)
    lead = b[-1]
    while r and len(r) >= len(b):
        c = r[-1] / lead
        k = len(r) - len(b)
        q[k] = c
        for i, d in enumerate(b):
            r[k + i] -= c * d
        _dense.trim(r)
    return _dense.trim(q), r


def gcd(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    a, b = _dense.trim(list(a)), _dense.trim(list(b))
    while b:
        _, r = _divmod(a, b)
        a, b = b, r
    if a:
        lead = a[-1]
        a = [c / lead for c in a]
    return a


def squarefree(p: list[Fraction]) -> list[Fraction]:
    if len(p) <= 1:
        return list(p)
    g = gcd(p, derivative(p))
    if len(g) == 1:
        return list(p)
    q, _ = _divmod(p, g)
    return q


def sturm_chain(p: list[Fraction]) -> list[list[Fraction]]:
    chain = [_dense.trim(list(p)), derivative(p)]
    while chain[-1]:
        _, r = _divmod(chain[-2], chain[-1])
        chain.append([-c for c in r])
    chain.pop()
    return chain


def _variations(chain: list[list[Fraction]], x: Fraction) -> int:
    signs = []
    for p in chain:
        v = evaluate(p, x)
        if v:
            signs.append(1 if v > 0 else -1)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def count_roots(chain: list[list[Fraction]], lo: Fraction, hi: Fraction) -> int:
    """Distinct real roots in (lo, hi] of the squarefree chain head."""
    return _variations(chain, lo) - _variations(chain, hi)


def _nonroot_between(q: list[Fraction], a: Fraction, b: Fraction) -> Fraction:
    """A rational point strictly inside (a, b) that is not a root of q."""
    k = 2
    while True:
        m = a + (b - a) / k
        if evaluate(q, m) != 0:
            return m
        k += 1


def isolate_roots(p: list[Fraction], lo: Fraction, hi: Fraction) -> list[tuple[Fraction, Fraction]]:
    """Pairwise separated intervals with non-root rational endpoints, each
    containing exactly one root of p, jointly all roots in (lo, hi), and
    none touching lo, hi or each other.

    Requires p(lo) != 0 and p(hi) != 0; p need not be squarefree.
    """
    q = squarefree(_dense.trim([Fraction(c) for c in p]))
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
    p = _dense.trim([Fraction(c) for c in p])
    lo, hi = Fraction(lo), Fraction(hi)
    if lo >= hi:
        raise ValueError("need lo < hi")
    if not p:
        return True, None
    if len(p) == 1:
        return (True, None) if p[0] >= 0 else (False, (lo, hi))
    q = squarefree(p)
    for end in (lo, hi):
        while len(q) > 1 and evaluate(q, end) == 0:
            q, _ = _divmod(q, [-end, Fraction(1)])
    intervals = isolate_roots(q, lo, hi) if len(q) > 1 else []
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


def sign_at_unique_root(f, q: list[Fraction], lo: Fraction, hi: Fraction) -> int:
    """Sign of f at the single root xi of q inside (lo, hi), given f(xi) != 0.

    q must be squarefree with exactly one root there (so it changes sign);
    the interval is narrowed until f is root-free and of constant sign on it.
    """
    f = _dense.trim([Fraction(c) for c in f])
    if len(f) <= 1:
        v = f[0] if f else Fraction(0)
        return (v > 0) - (v < 0)
    f_chain = sturm_chain(squarefree(f))
    s_lo = evaluate(q, lo)
    while True:
        va, vb = evaluate(f, lo), evaluate(f, hi)
        if va * vb > 0 and count_roots(f_chain, lo, hi) == 0:
            return 1 if va > 0 else -1
        m = _nonroot_between(q, lo, hi)
        if evaluate(q, m) * s_lo > 0:
            lo = m
        else:
            hi = m
