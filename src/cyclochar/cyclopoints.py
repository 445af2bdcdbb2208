"""Root-of-unity zeros of bivariate Laurent polynomials.

The seven-substitution method: every torsion zero (x, y) of H is a common
zero of H and one of the sign/square substitutions H_1..H_7, so eliminating
each variable in turn and keeping the cyclotomic factors of the resultants
yields a finite candidate list, which exact evaluation then confirms.
The eliminations run on the squarefree part of H, which has the same zeros
and smaller resultants.
Candidates are enumerated per Galois orbit: the zero set is stable under
(x, y) -> (x^j, y^j) for j coprime to the common order, so one exact
evaluation decides the whole orbit.

Before that, H is reduced to its exponent lattice (Beukers-Smyth, step 1):
when the exponent differences span a proper sublattice with basis rows
(a, b), (c, d), H is a monomial times G(x^a y^b, x^c y^d), G is solved
instead and its zeros are lifted by taking roots.  When they span a line, H is a monomial times p(x^a y^b),
and H has torsion zeros only if p has a cyclotomic factor.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

from . import _dense
from .errors import ExponentTooLarge, PositiveDimensional, ZeroPolynomial
from .laurent import BiLaurentPoly, cyclo_factor, eval_at_roots, resultant

# The degree of the polynomial that is eliminated (H, or G after lattice
# reduction) in each variable: it sets the Sylvester matrix size.
MAX_TORUS_DEGREE = 12
# The lattice index g*h: the number of lifted points above each zero of G.
MAX_LATTICE_INDEX = 10_000


@functools.lru_cache(maxsize=1)
def g2_adjoint_poly() -> BiLaurentPoly:
    """The cleared-denominator adjoint character of type G2 on its torus,
    x^3 y^2 (2 + f(x, y) + f(1/x, 1/y)) with f the sum of x^a y^b over the
    six positive roots a alpha_1 + b alpha_2: thirteen terms."""
    terms = {(3, 2): 2}
    for a, b in ((1, 0), (0, 1), (1, 1), (2, 1), (3, 1), (3, 2)):
        terms[3 + a, 2 + b] = terms[3 - a, 2 - b] = 1
    return BiLaurentPoly(terms)


def seven_variants(h: BiLaurentPoly) -> list[BiLaurentPoly]:
    """H(x,-y), H(-x,y), H(-x,-y), H(x^2,y^2), H(x^2,-y^2), H(-x^2,y^2),
    H(-x^2,-y^2), in this order."""
    return [
        h.substitute(y_sign=-1),
        h.substitute(x_sign=-1),
        h.substitute(x_sign=-1, y_sign=-1),
        h.substitute(x_pow=2, y_pow=2),
        h.substitute(x_pow=2, y_sign=-1, y_pow=2),
        h.substitute(x_sign=-1, x_pow=2, y_pow=2),
        h.substitute(x_sign=-1, x_pow=2, y_sign=-1, y_pow=2),
    ]


# ---------------------------------------------------------------------------
# Bivariate gcd (content and primitive part over the rationals, cleared to
# integers): the positive-dimensional guard.
# ---------------------------------------------------------------------------


def _rows_content(rows: list[list[int]]) -> list[int]:
    g: list[int] = []
    for row in rows:
        if row:
            g = _dense.gcd(g, row)
        if g == [1]:
            break
    return g


def _rows_pp(rows: list[list[int]], content: list[int]) -> list[list[int]]:
    if content == [1]:
        return [list(r) for r in rows]
    return [(_dense.divexact(r, content) if r else []) for r in rows]


def _trim_rows(rows: list[list[int]]) -> list[list[int]]:
    while rows and not rows[-1]:
        rows.pop()
    return rows


def _prem_rows(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    """Pseudo-remainder in y of polynomials with Z[x] coefficients."""
    r = [list(c) for c in a]
    lb = b[-1]
    db = len(b) - 1
    _trim_rows(r)
    while r and len(r) - 1 >= db:
        lead = r[-1]
        shift = len(r) - 1 - db
        r = [_dense.mul(lb, c) for c in r]
        for j, bc in enumerate(b):
            r[shift + j] = _dense.sub(r[shift + j], _dense.mul(lead, bc))
        _trim_rows(r)
    return r


def _gcd_rows(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    """Gcd in Z[x][y] of two nonzero polynomials given as rows, up to sign.

    Content and primitive part are taken in the y-direction with Z[x]
    coefficients; the primitive remainder sequence runs in y.
    """
    cont_a = _rows_content(a)
    cont_b = _rows_content(b)
    a = _rows_pp(a, cont_a)
    b = _rows_pp(b, cont_b)
    if len(a) < len(b):
        a, b = b, a
    while b:
        r = _prem_rows(a, b)
        cr = _rows_content(r)
        a, b = b, _rows_pp(r, cr)
    if len(a) == 1:
        a = [[1]]  # a y-free primitive part has trivial gcd contribution in y
    cont = _dense.gcd(cont_a, cont_b)
    return [_dense.mul(cont, c) if c else [] for c in a]


def _from_rows(rows: list[list[int]]) -> BiLaurentPoly:
    """The polynomial sum_j rows[j](x) y^j."""
    return BiLaurentPoly({(i, j): c for j, row in enumerate(rows) for i, c in enumerate(row)})


def bivariate_gcd(h: BiLaurentPoly, g: BiLaurentPoly) -> BiLaurentPoly:
    """Gcd of the monomial-stripped parts of h and g in Z[x, y], normalised
    to a positive coefficient at the greatest (y, x) exponent."""
    if h.is_zero() or g.is_zero():
        raise ZeroPolynomial("gcd with the zero polynomial")
    _, _, h0 = h.monomial_split()
    _, _, g0 = g.monomial_split()
    out = _from_rows(_gcd_rows(_trim_rows(h0.coefficient_lists("y")),
                               _trim_rows(g0.coefficient_lists("y"))))
    lead = max(out.coeffs, key=lambda e: (e[1], e[0]))
    return -out if out.coefficient(*lead) < 0 else out


def _rows_divexact(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    """Exact quotient in y of polynomials with Z[x] coefficients, b trimmed."""
    r = [list(c) for c in a]
    q: list[list[int]] = [[] for _ in range(len(a) - len(b) + 1)]
    for k in reversed(range(len(q))):
        q[k] = c = _dense.divexact(r[k + len(b) - 1], b[-1])
        for j, bc in enumerate(b):
            r[k + j] = _dense.sub(r[k + j], _dense.mul(c, bc))
    return q


def _squarefree_part(h: BiLaurentPoly) -> BiLaurentPoly:
    """The product of the distinct irreducible factors of h, up to sign and
    with the monomial prefactor stripped: h's zeros on the torus, each once.

    h = c(x) p(x, y) with c the content in the y-direction and p primitive.
    The squarefree part of c is c / gcd(c, dc/dx).  Every irreducible factor
    f of p involves y, so f does not divide df/dy, and f^e exactly dividing
    p leaves f^(e-1) exactly dividing gcd(p, dp/dy): the squarefree part of
    p is p / gcd(p, dp/dy), a division exact in Z[x, y] because the gcd is
    primitive (Gauss's lemma).
    """
    _, _, h0 = h.monomial_split()
    rows = _trim_rows(h0.coefficient_lists("y"))
    content = _rows_content(rows)
    rows = _rows_pp(rows, content)
    dx = [i * c for i, c in enumerate(content)][1:]
    content = _dense.divexact(content, _dense.gcd(content, dx))
    if len(rows) > 1:
        dy = [[j * c for c in row] for j, row in enumerate(rows)][1:]
        rows = _rows_divexact(rows, _gcd_rows(rows, dy))
    return _from_rows([_dense.mul(content, row) for row in rows])


def _is_constant(p: BiLaurentPoly) -> bool:
    return p.is_zero() or set(p.coeffs) == {(0, 0)}


def variant_cyclo_orders(h: BiLaurentPoly, hi: BiLaurentPoly, var: str) -> set[int]:
    """Cyclotomic indices d with Phi_d dividing the resultant that keeps var.

    var = 'x' eliminates y and constrains the possible orders of x, and
    symmetrically for 'y'.  Raises PositiveDimensional when h and hi share a
    curve component (non-constant gcd), whose torsion points this method
    cannot enumerate.
    """
    if var not in ("x", "y"):
        raise ValueError("var must be 'x' or 'y'")
    if _shares_component(h, hi):
        raise PositiveDimensional("inputs share a curve component")
    return _resultant_orders(h, hi, var)


def _resultant_orders(h: BiLaurentPoly, hi: BiLaurentPoly, var: str) -> set[int]:
    """variant_cyclo_orders for inputs already known to share no component."""
    res = resultant(h, hi, eliminate="y" if var == "x" else "x")
    if res.is_zero():
        raise PositiveDimensional("resultant vanished identically")
    return set(cyclo_factor(res).indices())


def _shares_component(h: BiLaurentPoly, hi: BiLaurentPoly) -> bool:
    return not _is_constant(bivariate_gcd(h, hi))


class CycloPoint(NamedTuple):
    """A Galois-orbit representative (x, y) = (z_N^a, z_N^b) of a torsion
    zero; N = lcm(order_x, order_y) is the order of the torus element."""

    modulus: int
    a: int
    b: int
    order_x: int
    order_y: int

    @property
    def element_order(self) -> int:
        return self.modulus

    def label(self) -> str:
        def coord(e, order):
            if order == 1:
                return "1"
            if e == 1:
                return f"z{self.modulus}"
            return f"z{self.modulus}^{e}"
        return f"({coord(self.a, self.order_x)}, {coord(self.b, self.order_y)})"


class ExponentLattice(NamedTuple):
    """H = x^i * y^j * G(u, v), with u = x^r y^s for the first basis row
    (r, s) and v likewise for the second.

    At rank 2 the rows are a basis of the lattice spanned by the exponent
    differences of H: the unit rows when that lattice is all of Z^2, and
    otherwise the basis in which G has the least degrees (the Hermite rows
    (g, c), (0, h), 0 <= c < h, on a tie).  At rank 1 the one row is the generator, first nonzero
    entry positive, and G is free of v; a monomial has no rows.  monomial
    is (i, j) and reduced is G, with minimal exponents zero.
    """

    basis: tuple[tuple[int, int], ...]
    monomial: tuple[int, int]
    reduced: BiLaurentPoly

    @property
    def index(self) -> int | None:
        """The number of points above each point of G; None below rank 2."""
        if len(self.basis) < 2:
            return None
        (r1, s1), (r2, s2) = self.basis
        return abs(r1 * s2 - r2 * s1)


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(d, s, t) with s*a + t*b = d = gcd(a, b) >= 0."""
    s0, s1, t0, t1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    return (a, s0, t0) if a >= 0 else (-a, -s0, -t0)


def _hermite(exps: list[tuple[int, int]]) -> tuple[int, int, int]:
    """(g, c, w): Hermite rows (g, c), (0, w) of the lattice spanned by the
    differences exps[k] - exps[0]; a zero g or w marks a rank below 2."""
    (i0, j0), g, c, w = exps[0], 0, 0, 0
    for i, j in exps[1:]:
        p, q = i - i0, j - j0
        if p:
            d, s, t = _xgcd(g, p)
            g, c, w = d, s * c + t * q, math.gcd(w, (g * q - p * c) // d)
        else:
            w = math.gcd(w, q)
        if w:
            c %= w
    return g, c, w


def _reduced_basis(exps, g: int, c: int, w: int) -> list[tuple[int, int]]:
    """A basis of the lattice with Hermite rows (g, c), (0, w) in which the
    coordinates of exps have the least spans.

    The coordinate maps of a basis are a basis of the dual lattice, here
    scaled by g*w to the integer functionals (w, 0) and (-c, g).  Their
    spans over exps form a norm, and Gauss reduction under any norm reaches
    the two successive minima in dimension two.  Ties keep the Hermite rows.
    """
    def span(f):
        values = [f[0] * i + f[1] * j for i, j in exps]
        return max(values) - min(values)

    def first(lo, hi, pred):
        while lo < hi:
            mid = (lo + hi) // 2
            lo, hi = (lo, mid) if pred(mid) else (mid + 1, hi)
        return lo

    short, long = (w, 0), (-c, g)
    if span(long) < span(short):
        short, long = long, short
    while True:
        # the span of long - mu*short is convex in mu, and no |mu| above
        # bound can beat mu = 0; take the minimiser nearest 0
        def at(mu):
            return span((long[0] - mu * short[0], long[1] - mu * short[1]))
        bound = 2 * span(long) // span(short) + 1
        left = first(-bound, bound, lambda mu: at(mu + 1) >= at(mu))
        right = first(-bound, bound, lambda mu: at(mu + 1) > at(mu))
        mu = min(max(0, left), right)
        long = (long[0] - mu * short[0], long[1] - mu * short[1])
        if span(long) >= span(short):
            break
        short, long = long, short
    # the rows dual to the functionals (short, long), first entries positive
    det = short[0] * long[1] - short[1] * long[0]
    rows = [(long[1] * g * w // det, -long[0] * g * w // det),
            (-short[1] * g * w // det, short[0] * g * w // det)]
    return [row if row[0] > 0 or (row[0] == 0 and row[1] > 0) else (-row[0], -row[1])
            for row in rows]


def exponent_lattice(h: BiLaurentPoly) -> ExponentLattice:
    """The lattice of exponent differences of h and the reduced polynomial G."""
    if h.is_zero():
        raise ZeroPolynomial("zero polynomial has no exponent lattice")
    terms = h.coeffs
    exps = sorted(terms)
    g, c, w = _hermite(exps)
    (i0, j0) = base = exps[0]
    if g and w:
        rows = [(g, c), (0, w)] if g * w == 1 else _reduced_basis(exps, g, c, w)
        (r1, s1), (r2, s2) = rows
        det = r1 * s2 - r2 * s1
        coords = {(((i - i0) * s2 - (j - j0) * r2) // det, ((j - j0) * r1 - (i - i0) * s1) // det): v
                  for (i, j), v in terms.items()}
    elif g or w:
        rows = [(g, c) if g else (0, w)]
        k = 0 if g else 1
        coords = {((e[k] - base[k]) // rows[0][k], 0): v for e, v in terms.items()}
    else:
        rows, coords = [], {(0, 0): v for v in terms.values()}
    s1, s2, reduced = BiLaurentPoly(coords).monomial_split()
    for s, (r, q) in zip((s1, s2), rows):
        i0, j0 = i0 + s * r, j0 + s * q
    return ExponentLattice(tuple(rows), (i0, j0), reduced)


class CycloSolveReport(NamedTuple):
    """Verified torsion zeros of a bivariate Laurent polynomial.

    points holds canonical orbit representatives (lexicographically minimal
    (modulus, a, b) in each orbit); variant_attribution[k] lists which of
    the seven substitutions produced points[k]; positive_dimensional lists
    substitution indices sharing a curve component with the input, whose
    torsion points are detected but not enumerated.

    lattice is set when the input was reduced: for a proper sublattice of
    rank 2, reduced_report is G's own report, and variant_columns,
    positive_dimensional and the attributions are G's; for rank <= 1 with no
    cyclotomic factor the seven substitutions are not run at all.
    """

    points: tuple[CycloPoint, ...]
    orbit_sizes: tuple[int, ...]
    variant_attribution: tuple[tuple[int, ...], ...]
    positive_dimensional: tuple[int, ...]
    variant_columns: tuple[tuple[int, tuple[int, ...] | None, tuple[int, ...] | None], ...]
    lattice: ExponentLattice | None = None
    reduced_report: CycloSolveReport | None = None

    def element_orders(self) -> tuple[int, ...]:
        return tuple(sorted({p.element_order for p in self.points}))


def _units(modulus: int) -> list[int]:
    return [j for j in range(1, modulus + 1) if math.gcd(j, modulus) == 1]


def _order_elements(modulus: int, order: int) -> list[int]:
    step = modulus // order
    return sorted(step * u % modulus for u in range(1, order + 1) if math.gcd(u, order) == 1)


def _orbit_reps(modulus: int, dx: int, dy: int) -> list[tuple[tuple[int, int], int]]:
    """Representatives (lex-minimal) and sizes of the diagonal Galois orbits
    on pairs of exponents of exact orders (dx, dy) modulo modulus."""
    units = _units(modulus)
    seen: set[tuple[int, int]] = set()
    reps = []
    for a in _order_elements(modulus, dx):
        for b in _order_elements(modulus, dy):
            if (a, b) in seen:
                continue
            orbit = {((j * a) % modulus, (j * b) % modulus) for j in units}
            seen |= orbit
            reps.append((min(orbit), len(orbit)))
    return reps


def _check_degree(p: BiLaurentPoly, names: str) -> None:
    """Raise ExponentTooLarge when p, whose variables are called names,
    exceeds MAX_TORUS_DEGREE in one of them."""
    for var, name in zip("xy", names):
        d = p.degree_in(var)
        if d > MAX_TORUS_DEGREE:
            raise ExponentTooLarge(
                f"degree {d} in {name} exceeds the cyclopoints limit degree <= {MAX_TORUS_DEGREE}")


def _report(found: dict, pos_dim=(), columns=(), **extra) -> CycloSolveReport:
    order = sorted(found)
    return CycloSolveReport(
        points=tuple(order),
        orbit_sizes=tuple(found[p][0] for p in order),
        variant_attribution=tuple(tuple(sorted(found[p][1])) for p in order),
        positive_dimensional=tuple(pos_dim),
        variant_columns=tuple(columns),
        **extra,
    )


def _seven_substitutions(h: BiLaurentPoly) -> CycloSolveReport:
    h = _squarefree_part(h)
    found: dict[CycloPoint, tuple[int, set[int]]] = {}
    pos_dim: list[int] = []
    columns = []
    for i, hi in enumerate(seven_variants(h), start=1):
        if _shares_component(h, hi):
            pos_dim.append(i)
            columns.append((i, None, None))
            continue
        x_orders = tuple(sorted(_resultant_orders(h, hi, "x")))
        y_orders = tuple(sorted(_resultant_orders(h, hi, "y")))
        columns.append((i, x_orders, y_orders))
        for dx in x_orders:
            for dy in y_orders:
                modulus = math.lcm(dx, dy)
                for (a, b), size in _orbit_reps(modulus, dx, dy):
                    if not eval_at_roots(h, modulus, a, b).is_zero():
                        continue
                    point = CycloPoint(modulus, a, b, dx, dy)
                    if point in found:
                        found[point][1].add(i)
                    else:
                        found[point] = (size, {i})
    return _report(found, pos_dim, columns)


def _lift(rep: CycloSolveReport, lattice: ExponentLattice) -> dict:
    """Orbits of the zeros of H = monomial * G(u, v) above G's orbits.

    With Hermite rows (g, c), (0, h) of the lattice, W maps G's coordinates
    to the Hermite ones: a zero (z_M^a, z_M^b) of G gives the zero
    (z_M^A, z_M^B) of H's Hermite reduction, (A, B) = W (a, b).  Every orbit
    above it meets the g*h preimages of that point under
    (x, y) -> (x^g y^c, y^h): with N = M*g*h these are
    y = z_N^(g*(B + k*M)), x = z_N^(h*A - c*(B + k*M) + l*M*h) for
    0 <= k < h, 0 <= l < g.
    """
    (r1, s1), (r2, s2) = lattice.basis
    g, c, w = _hermite([(0, 0), (r1, s1), (r2, s2)])
    det = r1 * s2 - r2 * s1
    # W = (Hermite rows) * basis^-1
    w11, w12 = (g * s2 - c * r2) // det, (c * r1 - g * s1) // det
    w21, w22 = -w * r2 // det, w * r1 // det
    units: dict[int, list[int]] = {}
    found = {}
    for p, variants in zip(rep.points, rep.variant_attribution):
        m = p.modulus
        big = m * g * w
        pa, pb = (w11 * p.a + w12 * p.b) % m, (w21 * p.a + w22 * p.b) % m
        seen: set[tuple[int, int, int]] = set()
        for k in range(w):
            y = g * (pb + k * m)
            for l in range(g):
                x = (w * pa - c * (pb + k * m) + l * m * w) % big
                s = math.gcd(x, y, big)
                n, a, b = big // s, x // s, y // s
                if (n, a, b) in seen:
                    continue
                if n not in units:
                    units[n] = _units(n)
                orbit = {((j * a) % n, (j * b) % n) for j in units[n]}
                seen.update((n, e, f) for e, f in orbit)
                ra, rb = min(orbit)
                point = CycloPoint(n, ra, rb, n // math.gcd(ra, n), n // math.gcd(rb, n))
                found[point] = (len(orbit), variants)
    return found


def solve(h: BiLaurentPoly) -> CycloSolveReport:
    """Enumerate every root-of-unity zero of h, as verified Galois orbits.

    The exponent lattice of h is found first.  Rank <= 1: h is a monomial
    times p(x^a y^b), and with no cyclotomic factor in p there are no torsion
    zeros.  A proper rank-2 sublattice: the reduced G is solved and its
    orbits are lifted.  Otherwise, for each substitution i the cyclotomic
    factors of the two resultants bound the coordinate orders; all exponent
    pairs with those orders are enumerated up to the diagonal Galois action
    and kept iff the exact cyclotomic evaluation of h vanishes.  Orbits found
    by several substitutions are merged.  When a substitution shares a curve
    component with h it is reported in positive_dimensional and skipped; the
    completeness contract covers the remaining variants.

    Raises ExponentTooLarge before any elimination when the eliminated
    polynomial exceeds MAX_TORUS_DEGREE in a variable, or the lattice index
    exceeds MAX_LATTICE_INDEX.
    """
    if h.is_zero():
        raise ZeroPolynomial("cannot solve the zero polynomial")
    lattice = exponent_lattice(h)
    index = lattice.index
    if index is None:
        _check_degree(lattice.reduced, "t")
        if not cyclo_factor(lattice.reduced.restrict(1, 0)).factors:
            return _report({}, lattice=lattice)
    if (index or 1) == 1:
        _check_degree(h, "xy")
        return _seven_substitutions(h)
    if index > MAX_LATTICE_INDEX:
        raise ExponentTooLarge(
            f"lattice index {index} exceeds the cyclopoints limit index <= {MAX_LATTICE_INDEX}")
    _check_degree(lattice.reduced, "uv")
    rep = _seven_substitutions(lattice.reduced)
    return _report(_lift(rep, lattice), rep.positive_dimensional, rep.variant_columns,
                   lattice=lattice, reduced_report=rep)
