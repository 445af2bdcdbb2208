"""Root-of-unity zeros of bivariate Laurent polynomials.

The seven-substitution method: every torsion zero (x, y) of H is a common
zero of H and one of the sign/square substitutions H_1..H_7, so eliminating
each variable in turn and keeping the cyclotomic factors of the resultants
yields a finite candidate list, which exact evaluation then confirms.
Candidates are enumerated per Galois orbit: the zero set is stable under
(x, y) -> (x^j, y^j) for j coprime to the common order, so one exact
evaluation decides the whole orbit.
"""

from __future__ import annotations

import dataclasses
import functools
import math

from . import _dense
from .errors import PositiveDimensional, ZeroPolynomial
from .laurent import BiLaurentPoly, cyclo_factor, eval_at_roots, resultant


@functools.lru_cache(maxsize=1)
def g2_adjoint_poly() -> BiLaurentPoly:
    """The cleared-denominator adjoint character of type G2 on its torus.

    Thirteen terms, cross-validated against y^2 x^3 (2 + f(x,y) + f(1/x,1/y))
    with f built from the six positive roots.
    """
    h = BiLaurentPoly({
        (6, 4): 1,
        (6, 3): 1, (5, 3): 1, (4, 3): 1, (3, 3): 1,
        (4, 2): 1, (3, 2): 2, (2, 2): 1,
        (3, 1): 1, (2, 1): 1, (1, 1): 1,
        (0, 1): 1,
        (0, 0): 1,
    })
    f = BiLaurentPoly({(1, 0): 1, (0, 1): 1, (1, 1): 1, (2, 1): 1, (3, 1): 1, (3, 2): 1})
    f_inv = BiLaurentPoly({(-i, -j): c for (i, j), c in f.coeffs.items()})
    rebuilt = BiLaurentPoly.term(1, 3, 2) * (2 + f + f_inv)
    if rebuilt != h:
        raise AssertionError("adjoint polynomial failed its root-data cross-check")
    return h


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


def bivariate_gcd(h: BiLaurentPoly, g: BiLaurentPoly) -> BiLaurentPoly:
    """Gcd of the monomial-stripped parts of h and g in Z[x, y], up to sign.

    Content and primitive part are taken in the y-direction with Z[x]
    coefficients; the primitive remainder sequence runs in y.
    """
    if h.is_zero() or g.is_zero():
        raise ZeroPolynomial("gcd with the zero polynomial")
    _, _, h0 = h.monomial_split()
    _, _, g0 = g.monomial_split()
    a = _trim_rows(h0.coefficient_lists("y"))
    b = _trim_rows(g0.coefficient_lists("y"))
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
    rows = [_dense.mul(cont, c) if c else [] for c in a]
    out: dict[tuple[int, int], int] = {}
    for j, row in enumerate(rows):
        for i, c in enumerate(row):
            if c:
                out[(i, j)] = c
    lead = max(out, key=lambda e: (e[1], e[0]))
    if out[lead] < 0:
        out = {e: -c for e, c in out.items()}
    return BiLaurentPoly(out)


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
    res = resultant(h, hi, eliminate="y" if var == "x" else "x")
    if res.is_zero():
        raise PositiveDimensional("resultant vanished identically")
    return set(cyclo_factor(res).indices())


def _shares_component(h: BiLaurentPoly, hi: BiLaurentPoly) -> bool:
    return not _is_constant(bivariate_gcd(h, hi))


@dataclasses.dataclass(frozen=True, order=True)
class CycloPoint:
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


@dataclasses.dataclass(frozen=True)
class CycloSolveReport:
    """Verified torsion zeros of a bivariate Laurent polynomial.

    points holds canonical orbit representatives (lexicographically minimal
    (modulus, a, b) in each orbit); variant_attribution[k] lists which of
    the seven substitutions produced points[k]; positive_dimensional lists
    substitution indices sharing a curve component with the input, whose
    torsion points are detected but not enumerated.
    """

    points: tuple[CycloPoint, ...]
    orbit_sizes: tuple[int, ...]
    variant_attribution: tuple[tuple[int, ...], ...]
    positive_dimensional: tuple[int, ...]
    variant_columns: tuple[tuple[int, tuple[int, ...] | None, tuple[int, ...] | None], ...]

    def element_orders(self) -> tuple[int, ...]:
        return tuple(sorted({p.element_order for p in self.points}))


def _order_elements(modulus: int, order: int) -> list[int]:
    step = modulus // order
    return sorted(step * u % modulus for u in range(1, order + 1) if math.gcd(u, order) == 1)


def _orbit_reps(modulus: int, dx: int, dy: int) -> list[tuple[tuple[int, int], int]]:
    """Representatives (lex-minimal) and sizes of the diagonal Galois orbits
    on pairs of exponents of exact orders (dx, dy) modulo modulus."""
    units = [j for j in range(1, modulus + 1) if math.gcd(j, modulus) == 1]
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


def solve(h: BiLaurentPoly) -> CycloSolveReport:
    """Enumerate every root-of-unity zero of h, as verified Galois orbits.

    For each substitution i the cyclotomic factors of the two resultants
    bound the coordinate orders; all exponent pairs with those orders are
    enumerated up to the diagonal Galois action and kept iff the exact
    cyclotomic evaluation of h vanishes.  Orbits found by several
    substitutions are merged.  When a substitution shares a curve component
    with h it is reported in positive_dimensional and skipped; the
    completeness contract covers the remaining variants.
    """
    if h.is_zero():
        raise ZeroPolynomial("cannot solve the zero polynomial")
    found: dict[CycloPoint, tuple[int, set[int]]] = {}
    pos_dim: list[int] = []
    columns = []
    for i, hi in enumerate(seven_variants(h), start=1):
        if _shares_component(h, hi):
            pos_dim.append(i)
            columns.append((i, None, None))
            continue
        _, _, h0 = h.monomial_split()
        if h0.degree_in("y") == 0 or h0.degree_in("x") == 0:
            # both h and hi are free of one variable; a constant gcd then
            # means no common zeros at all for this variant
            columns.append((i, (), ()))
            continue
        x_orders = tuple(sorted(variant_cyclo_orders(h, hi, "x")))
        y_orders = tuple(sorted(variant_cyclo_orders(h, hi, "y")))
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
    order = sorted(found)
    return CycloSolveReport(
        points=tuple(order),
        orbit_sizes=tuple(found[p][0] for p in order),
        variant_attribution=tuple(tuple(sorted(found[p][1])) for p in order),
        positive_dimensional=tuple(pos_dim),
        variant_columns=tuple(columns),
    )
