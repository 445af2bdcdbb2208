"""Reference mathematics for checking answers, written without any part of
the `cyclochar` package.

Root systems come from Weyl-group reflection orbits (the package uses root
strings), cyclotomic values from a table of t**k mod Phi_N (the package
divides dense vectors), and circle values from the Chebyshev recurrence
evaluated at a rational point (the package isolates roots with Sturm
chains).  Everything is exact: integers and Fractions.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

# ---------------------------------------------------------------------------
# Root systems
# ---------------------------------------------------------------------------

TYPES = (
    [f"A{n}" for n in range(1, 9)]
    + [f"B{n}" for n in range(2, 9)]
    + [f"C{n}" for n in range(2, 9)]
    + [f"D{n}" for n in range(4, 9)]
    + ["E6", "E7", "E8", "F4", "G2"]
)


def cartan(name: str) -> list[list[int]]:
    """Bourbaki-numbered Cartan matrix, c[i][j] = <alpha_i^vee, alpha_j>."""
    fam, n = name[0], int(name[1:])
    c = [[2 * (i == j) for j in range(n)] for i in range(n)]

    def edge(i, j):
        c[i][j] = c[j][i] = -1

    if fam in "ABC":
        for i in range(n - 1):
            edge(i, i + 1)
        if fam == "B":  # alpha_n = e_n short
            c[n - 1][n - 2] = -2
        if fam == "C":  # alpha_n = 2 e_n long
            c[n - 2][n - 1] = -2
    elif fam == "D":
        for i in range(n - 2):
            edge(i, i + 1)
        edge(n - 3, n - 1)
    elif fam == "E":  # 1-3-4-5-..., with 2 hanging off 4
        for i, j in [(0, 2), (2, 3), (1, 3)] + [(k, k + 1) for k in range(3, n - 1)]:
            edge(i, j)
    elif fam == "F":  # alpha_1, alpha_2 long; alpha_3, alpha_4 short
        edge(0, 1)
        edge(1, 2)
        edge(2, 3)
        c[2][1] = -2
    elif fam == "G":  # alpha_1 short, alpha_2 long
        c[0][1], c[1][0] = -3, -1
    else:
        raise ValueError(f"unknown type {name}")
    return c


def positive_roots(c: list[list[int]]) -> list[tuple[int, ...]]:
    """Positive roots in the simple-root basis: the orbit of the simple roots
    under the simple reflections s_i(b) = b - <alpha_i^vee, b> alpha_i."""
    n = len(c)
    simple = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    seen = set(simple)
    todo = list(simple)
    while todo:
        b = todo.pop()
        for i in range(n):
            r = list(b)
            r[i] -= sum(c[i][j] * b[j] for j in range(n))
            r = tuple(r)
            if r not in seen:
                seen.add(r)
                todo.append(r)
    return sorted(r for r in seen if all(x >= 0 for x in r))


class RootData:
    """Positive coroots of one simple type, in the simple-coroot basis, so
    that <lambda, a^vee> is the dot product with the fundamental-weight
    coordinates of lambda."""

    def __init__(self, name: str):
        c = cartan(name)
        dual = [list(row) for row in zip(*c)]
        self.name = name
        self.rank = len(c)
        self.coroots = positive_roots(dual)
        self.rho = [sum(a) for a in self.coroots]
        self.highest = max(self.coroots, key=sum)
        self.epsilon_trivial = all(
            sum(a[i] for a in self.coroots) % 2 == 0 for i in range(self.rank)
        )

    def shifted(self, weight) -> list[int]:
        """<lambda + rho, a^vee> over the positive coroots."""
        return [sum((w + 1) * x for w, x in zip(weight, a)) for a in self.coroots]

    def dim(self, weight) -> int:
        num = math.prod(self.shifted(weight))
        den = math.prod(self.rho)
        if num % den:
            raise ArithmeticError(f"{self.name}: Weyl quotient not integral")
        return num // den


@functools.lru_cache(maxsize=None)
def root_data(name: str) -> RootData:
    return RootData(name)


def cyclotomic_multiplicities(numer, denom, scale: int) -> dict[int, int]:
    """Multiplicity of each Phi_d in prod(t**(scale*a) - 1) / prod(t**(scale*b) - 1):
    #{a : d | scale*a} - #{b : d | scale*b}."""
    mult: dict[int, int] = {}
    for sign, exps in ((1, numer), (-1, denom)):
        for e in exps:
            e *= scale
            for d in range(1, math.isqrt(e) + 1):
                if e % d == 0:
                    for dd in {d, e // d}:
                        mult[dd] = mult.get(dd, 0) + sign
    return mult


def _is_prime(n: int) -> bool:
    return n >= 2 and all(n % p for p in range(2, math.isqrt(n) + 1))


def prime_power_zero(numer, denom) -> tuple[int, int]:
    """Smallest prime ell whose total valuation rises from denom to numer,
    with the smallest m at which more numerator than denominator exponents
    are divisible by ell**m."""

    def val(n, p):
        v = 0
        while n % p == 0:
            n //= p
            v += 1
        return v

    for ell in range(2, max(numer) + 1):
        if not _is_prime(ell):
            continue
        if sum(val(a, ell) for a in numer) > sum(val(b, ell) for b in denom):
            m = 1
            while True:
                q = ell ** m
                if sum(a % q == 0 for a in numer) > sum(b % q == 0 for b in denom):
                    return ell, m
                m += 1
    raise ArithmeticError("no prime valuation rises")


# ---------------------------------------------------------------------------
# Exact values in Z[z]/(Phi_N)
# ---------------------------------------------------------------------------

_CYCLO: dict[int, list[int]] = {}
_POWERS: dict[int, list[list[int]]] = {}


def cyclotomic(n: int) -> list[int]:
    """Coefficients (constant first) of Phi_n, by the Moebius product of the
    binomials t**(n/d) - 1 over squarefree divisors d."""
    if n in _CYCLO:
        return _CYCLO[n]
    primes = [p for p in range(2, n + 1) if n % p == 0 and _is_prime(p)]
    num, den = [1], [1]
    for mask in range(1 << len(primes)):
        d = math.prod(p for i, p in enumerate(primes) if mask >> i & 1)
        binom = [-1] + [0] * (n // d - 1) + [1]
        if bin(mask).count("1") % 2 == 0:
            num = _poly_mul(num, binom)
        else:
            den = _poly_mul(den, binom)
    q, r = _poly_divmod(num, den)
    if any(r):
        raise ArithmeticError(f"Phi_{n} construction left a remainder")
    _CYCLO[n] = q
    return q


def _poly_mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _poly_divmod(a: list[int], b: list[int]) -> tuple[list[int], list[int]]:
    """Division by a monic b (constant first)."""
    a = list(a)
    db = len(b) - 1
    q = [0] * max(len(a) - db, 1)
    for k in range(len(a) - 1, db - 1, -1):
        c = a[k]
        if c:
            q[k - db] = c
            for j in range(db + 1):
                a[k - db + j] -= c * b[j]
    return q, a[:db]


def powers_mod_cyclotomic(n: int) -> list[list[int]]:
    """Residues of t**k mod Phi_n for k = 0..n-1, as length-phi(n) vectors."""
    if n in _POWERS:
        return _POWERS[n]
    phi = cyclotomic(n)
    deg = len(phi) - 1
    table = []
    cur = [1] + [0] * (deg - 1)
    for _ in range(n):
        table.append(list(cur))
        top = cur[-1]
        cur = [0] + cur[:-1]
        if top:
            cur = [x - top * p for x, p in zip(cur, phi)]
    _POWERS[n] = table
    return table


def residue(terms, n: int) -> list[int]:
    """Residue of sum c * z**e over (e, c) in terms, z a primitive n-th root."""
    table = powers_mod_cyclotomic(n)
    out = [0] * len(table[0])
    for e, c in terms:
        for i, x in enumerate(table[e % n]):
            out[i] += c * x
    return out


def vanishes_at(terms2: dict, n: int, a: int, b: int) -> bool:
    """True iff the sum of c x**i y**j over terms2 = {(i, j): c} vanishes at x = z**a, y = z**b, z = exp(2 pi i/n)."""
    return not any(residue([(a * i + b * j, c) for (i, j), c in terms2.items()], n))


def orbit_rep(n: int, a: int, b: int) -> tuple[int, int]:
    """Lexicographically least (j a mod n, j b mod n) over units j."""
    return min(((j * a) % n, (j * b) % n) for j in range(1, n + 1) if math.gcd(j, n) == 1)


def torsion_zeros(terms2: dict, bound: int) -> set[tuple[int, int, int]]:
    """Every Galois orbit (n, a, b) of torsion zeros of element order n <= bound,
    found by evaluating one point per orbit."""
    out = set()
    for n in range(1, bound + 1):
        units = [j for j in range(1, n + 1) if math.gcd(j, n) == 1]
        seen = set()
        for a in range(n):
            for b in range(n):
                if (a, b) in seen or math.gcd(math.gcd(a, b), n) != 1:
                    continue
                orbit = {((j * a) % n, (j * b) % n) for j in units}
                seen |= orbit
                if vanishes_at(terms2, n, a, b):
                    rep = min(orbit)
                    out.add((n, rep[0], rep[1]))
    return out


def order_of(e: int, n: int) -> int:
    return n // math.gcd(e, n)


# ---------------------------------------------------------------------------
# Values on the unit circle
# ---------------------------------------------------------------------------


def circle_value(coeffs: dict[int, int], c: Fraction) -> Fraction:
    """f(e^{i theta}) = a0 + sum 2 a_n T_n(c) at c = cos(theta), for a
    symmetric Laurent polynomial given by its exponent -> coefficient map."""
    top = max((e for e in coeffs), default=0)
    total = Fraction(coeffs.get(0, 0))
    t_prev, t_cur = Fraction(1), Fraction(c)
    for n in range(1, top + 1):
        total += 2 * coeffs.get(n, 0) * t_cur
        t_prev, t_cur = t_cur, 2 * c * t_cur - t_prev
    return total
