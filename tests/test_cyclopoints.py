import functools
import math
import random
import time

import pytest

from cyclochar import cyclopoints
from cyclochar.cyclopoints import (
    MAX_LATTICE_INDEX,
    MAX_TORUS_DEGREE,
    CycloPoint,
    bivariate_gcd,
    exponent_lattice,
    g2_adjoint_poly,
    seven_variants,
    solve,
    variant_cyclo_orders,
)
from cyclochar.errors import ExponentTooLarge, PositiveDimensional, ZeroPolynomial
from cyclochar.laurent import BiLaurentPoly, cyclo_factor, eval_at_roots
from cyclochar.parsing import parse_bivariate

H = g2_adjoint_poly()

# reference variant table: i -> (x-order indices, y-order indices),
# cross-checked by exact evaluation of every candidate
EXPECTED_COLUMNS = {
    1: ({2, 4}, {8}),
    2: ({8}, {2, 4}),
    3: ({8}, {8}),
    4: ({3, 7, 15}, {5, 7}),
    5: ({7}, {2, 42}),
    6: ({42}, {3}),
    7: ({42}, {2, 42}),
}


@pytest.fixture(scope="module")
def g2_report():
    return solve(H)


class TestAdjointPoly:
    def test_coefficients(self):
        assert H.coefficient(3, 2) == 2
        assert H.coefficient(0, 0) == 1
        assert H.coefficient(0, 1) == 1
        assert H.coefficient(6, 4) == 1
        assert H.coefficient_sum() == 14
        assert len(H.coeffs) == 13

    def test_parse_matches(self):
        text = ("y^4*x^6 + y^3*(x^6+x^5+x^4+x^3) + y^2*(x^4+2*x^3+x^2)"
                " + y*(x^3+x^2+x) + y + 1")
        assert parse_bivariate(text) == H


class TestSevenVariants:
    def test_count_and_order(self):
        vs = seven_variants(H)
        assert len(vs) == 7
        assert vs[0] == H.substitute(y_sign=-1)
        assert vs[3] == H.substitute(x_pow=2, y_pow=2)
        assert vs[6] == H.substitute(x_sign=-1, x_pow=2, y_sign=-1, y_pow=2)

    def test_h4_y_degree_doubles(self):
        h4 = seven_variants(H)[3]
        assert max(j for _, j in h4.coeffs) == 8

    def test_constant_fixed(self):
        c = BiLaurentPoly({(0, 0): 5})
        assert seven_variants(c) == [c] * 7

    def test_h3_even_parity_coefficient(self):
        h3 = seven_variants(H)[2]
        assert h3.coefficient(6, 4) == H.coefficient(6, 4)
        assert h3.coefficient(6, 3) == -H.coefficient(6, 3)


class TestVariantOrders:
    @pytest.mark.parametrize("i", sorted(EXPECTED_COLUMNS))
    def test_reference_table(self, i):
        hi = seven_variants(H)[i - 1]
        x_expected, y_expected = EXPECTED_COLUMNS[i]
        assert variant_cyclo_orders(H, hi, "x") == x_expected
        assert variant_cyclo_orders(H, hi, "y") == y_expected

    def test_positive_dimensional_raises(self):
        f = parse_bivariate("x - y")
        with pytest.raises(PositiveDimensional):
            variant_cyclo_orders(f, seven_variants(f)[3], "x")


class TestBivariateGcd:
    def test_shared_line(self):
        g = bivariate_gcd(parse_bivariate("x - y"), parse_bivariate("x^2 - y^2"))
        assert g in (parse_bivariate("x - y"), parse_bivariate("y - x"))

    def test_coprime(self):
        g = bivariate_gcd(parse_bivariate("x - y"), parse_bivariate("x + y"))
        assert set(g.coeffs) == {(0, 0)}

    def test_self_gcd(self):
        assert bivariate_gcd(H, H) == H

    def test_content_only_component(self):
        f = parse_bivariate("(x - 1)*(y + 2)")
        g = parse_bivariate("(x - 1)*(y^2 + 3)")
        assert bivariate_gcd(f, g) == parse_bivariate("x - 1")

    def test_zero_rejected(self):
        with pytest.raises(ZeroPolynomial):
            bivariate_gcd(H, BiLaurentPoly.zero())

    def test_laurent_inputs_stripped(self):
        f = parse_bivariate("x^-1*y^-2*(x - y)")
        g = parse_bivariate("x^3*(x - y)*(x + y)")
        got = bivariate_gcd(f, g)
        assert got in (parse_bivariate("x - y"), parse_bivariate("y - x"))


class TestSolve:
    def test_element_orders(self, g2_report):
        assert g2_report.element_orders() == (7, 8, 15, 42)
        assert g2_report.positive_dimensional == ()

    def test_variant_columns_match_table(self, g2_report):
        for i, xs, ys in g2_report.variant_columns:
            assert set(xs) == EXPECTED_COLUMNS[i][0]
            assert set(ys) == EXPECTED_COLUMNS[i][1]

    def test_orbit_counts_per_order(self, g2_report):
        counts = {}
        for p in g2_report.points:
            counts[p.element_order] = counts.get(p.element_order, 0) + 1
        assert counts == {7: 2, 8: 6, 15: 3, 42: 3}

    def test_known_couples_appear(self, g2_report):
        reps = {(p.modulus, p.a, p.b) for p in g2_report.points}
        # known couples that are already canonical orbit representatives
        assert (7, 1, 1) in reps
        assert (7, 1, 3) in reps          # the couple behind H(x, x^3)
        assert (15, 1, 3) in reps
        assert (15, 1, 9) in reps
        assert (42, 1, 11) in reps        # the couple behind H(x, x^11)
        assert (42, 1, 28) in reps

    def test_every_point_reevaluates_to_zero(self, g2_report):
        for p in g2_report.points:
            assert eval_at_roots(H, p.modulus, p.a, p.b).is_zero()
            assert math.lcm(p.order_x, p.order_y) == p.modulus

    def test_galois_closure_exhaustive(self, g2_report):
        for p in g2_report.points:
            for j in range(1, p.modulus + 1):
                if math.gcd(j, p.modulus) == 1:
                    assert eval_at_roots(
                        H, p.modulus, (j * p.a) % p.modulus, (j * p.b) % p.modulus
                    ).is_zero()

    def test_orbit_sizes(self, g2_report):
        for p, size in zip(g2_report.points, g2_report.orbit_sizes):
            orbit = {
                ((j * p.a) % p.modulus, (j * p.b) % p.modulus)
                for j in range(1, p.modulus + 1)
                if math.gcd(j, p.modulus) == 1
            }
            assert len(orbit) == size
            assert min(orbit) == (p.a, p.b)

    def test_restriction_cross_check(self, g2_report):
        # zeros on the curve y = x^3 have x-order in {7, 8, 15}
        restriction_orders = set(cyclo_factor(H.restrict(1, 3)).indices())
        assert restriction_orders == {7, 8, 15}
        for p in g2_report.points:
            for j in range(1, p.modulus + 1):
                if math.gcd(j, p.modulus) == 1 and (3 * j * p.a - j * p.b) % p.modulus == 0:
                    assert p.order_x in restriction_orders
                    break

    def test_determinism(self, g2_report):
        again = solve(H)
        assert again == g2_report

    def test_single_trivial_point(self):
        rep = solve(parse_bivariate("x + y - 2"))
        assert [(p.modulus, p.a, p.b) for p in rep.points] == [(1, 0, 0)]
        assert rep.element_orders() == (1,)
        assert rep.orbit_sizes == (1,)

    def test_positive_dimensional_reported_not_fatal(self):
        rep = solve(parse_bivariate("x - y"))
        assert rep.points == ()
        assert set(rep.positive_dimensional) == {3, 4, 7}

    def test_zero_poly(self):
        with pytest.raises(ZeroPolynomial):
            solve(BiLaurentPoly.zero())

    @pytest.mark.parametrize("text, flagged", [
        ("x - 1", (1, 4, 5)),
        ("x^3 - 1", (1, 4, 5)),
        ("y^2 + 1", (1, 2, 3)),
    ])
    def test_one_variable_inputs(self, text, flagged):
        # a one-variable input runs the general path: a resultant that
        # eliminates the absent variable is a power of the other operand
        # (or 1), and the variants that share no component have no
        # cyclotomic factor in either resultant
        rep = solve(parse_bivariate(text))
        assert rep.points == () and rep.orbit_sizes == ()
        assert rep.positive_dimensional == flagged
        assert rep.variant_columns == tuple(
            (i, None, None) if i in flagged else (i, (), ()) for i in range(1, 8))

    def test_cyclopoint_ordering_is_canonical(self, g2_report):
        assert list(g2_report.points) == sorted(g2_report.points)

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 2: a factor that shares a "
                       "component with a variant hides the other factor's zeros")
    def test_product_keeps_the_zeros_of_each_factor(self):
        # x + y^2 - 1 alone has the orbit of (z12^2, z12^5); x^2 - y shares a
        # component with variants 1, 2, 4 and 6, and the product loses it
        alone = solve(parse_bivariate("x + y^2 - 1")).points
        assert [(p.modulus, p.a, p.b) for p in alone] == [(12, 2, 5)]
        product = solve(parse_bivariate("(x^2 - y)*(x + y^2 - 1)")).points
        assert set(alone) <= set(product)


def _rebuild(lat):
    """x^i y^j * G(x^r1 y^s1, x^r2 y^s2) from an ExponentLattice."""
    rows = list(lat.basis) + [(0, 0)] * (2 - len(lat.basis))
    out = {}
    for (k1, k2), c in lat.reduced.coeffs.items():
        e = (lat.monomial[0] + k1 * rows[0][0] + k2 * rows[1][0],
             lat.monomial[1] + k1 * rows[0][1] + k2 * rows[1][1])
        out[e] = out.get(e, 0) + c
    return BiLaurentPoly(out)


class TestExponentLattice:
    def test_full_lattice(self):
        lat = exponent_lattice(H)
        assert lat.index == 1 and lat.basis == ((1, 0), (0, 1)) and lat.reduced == H

    def test_hermite_rows_and_monomial(self):
        lat = exponent_lattice(parse_bivariate("x^2*y^2 + x^2 + y^2 + 1 + x*y"))
        assert lat.basis == ((1, 1), (0, 2)) and lat.index == 2
        assert lat.monomial == (0, -2)
        assert lat.reduced == parse_bivariate("y^2 + y*x^2 + y*x + y + x^2")

    @pytest.mark.parametrize("m", [[[2, 0], [0, 1]], [[1, 0], [0, 3]], [[6, 0], [5, 1]],
                                   [[2, 1], [1, 2]], [[1, 1], [-2, 1]], [[1000, 0], [0, 1]]])
    def test_stretches_of_g2_reduce_to_the_least_degrees(self, m):
        # G2(x^m00 y^m01, x^m10 y^m11); the basis of least degrees turns G2
        # (degrees 6 and 4) into a shear of degrees 4 and 4
        stretched = BiLaurentPoly({(i * m[0][0] + j * m[1][0], i * m[0][1] + j * m[1][1]): c
                                   for (i, j), c in H.coeffs.items()})
        lat = exponent_lattice(stretched)
        assert lat.index == abs(m[0][0] * m[1][1] - m[0][1] * m[1][0])
        assert (lat.reduced.degree_in("x"), lat.reduced.degree_in("y")) == (4, 4)
        assert _rebuild(lat) == stretched

    def test_ties_keep_the_hermite_rows(self):
        lat = exponent_lattice(parse_bivariate("x + y^2 - 1"))
        assert lat.basis == ((1, 0), (0, 2)) and lat.reduced == parse_bivariate("x + y - 1")

    def test_rank_one_and_monomial(self):
        lat = exponent_lattice(parse_bivariate("x^-2*y^4 - 3*x^2*y^-2"))
        assert lat.basis == ((4, -6),) and lat.index is None
        assert lat.reduced == parse_bivariate("-3*x + 1") and lat.monomial == (-2, 4)
        lat = exponent_lattice(parse_bivariate("5*x^3*y"))
        assert lat.basis == () and lat.monomial == (3, 1) and lat.reduced == 5


class TestReducedSolve:
    def test_one_gcd_per_substitution(self, monkeypatch):
        calls = []

        def counted(h, g):
            calls.append(1)
            return bivariate_gcd(h, g)

        monkeypatch.setattr(cyclopoints, "bivariate_gcd", counted)
        assert solve(H).element_orders() == (7, 8, 15, 42)
        assert len(calls) == 7

    def test_large_index_within_the_limit(self):
        stretched = BiLaurentPoly({(1000 * i, j): c for (i, j), c in H.coeffs.items()})
        rep = solve(stretched)
        assert rep.lattice.index == 1000 and rep.positive_dimensional == ()
        assert rep.reduced_report == solve(rep.lattice.reduced)
        assert sum(rep.orbit_sizes) == 1000 * sum(solve(H).orbit_sizes)
        for p in rep.points[::10]:
            assert eval_at_roots(stretched, p.modulus, p.a, p.b).is_zero()

    def test_index_limit(self):
        k = MAX_LATTICE_INDEX
        assert solve(parse_bivariate(f"x^{k} + y - 2")).lattice.index == k
        with pytest.raises(ExponentTooLarge, match=f"lattice index {k + 1} exceeds"):
            solve(parse_bivariate(f"x^{k + 1} + y - 2"))

    @pytest.mark.parametrize("text", [
        f"x^{MAX_TORUS_DEGREE + 1}*y + x + 1",          # index 1
        # G(x^2, y) with G of lattice width MAX_TORUS_DEGREE + 1 in every direction
        f"x^{2 * MAX_TORUS_DEGREE + 2} + y^{MAX_TORUS_DEGREE + 1} + x^2 + 1",
        f"x^{MAX_TORUS_DEGREE + 1} - y^{MAX_TORUS_DEGREE + 1}",   # a coset family
        f"x^{MAX_TORUS_DEGREE + 1} + x + 3",            # rank 1, p of degree + 1
    ])
    def test_degree_limit(self, text):
        with pytest.raises(ExponentTooLarge, match=f"limit degree <= {MAX_TORUS_DEGREE}"):
            solve(parse_bivariate(text))

    def test_positive_dimensional_only_for_torsion_cosets(self):
        assert solve(parse_bivariate("x^5*y + x^4*y^2 - 2*x*y^5")).positive_dimensional
        assert solve(parse_bivariate("x^3*y^2 + 2")).positive_dimensional == ()
        # p(t) = t - 2 in t = x^k y^k: no points, whatever k
        assert solve(parse_bivariate("x^1000*y^1000 - 2")).points == ()


def _outcome(rep):
    return (rep.points, rep.orbit_sizes, rep.variant_attribution, rep.positive_dimensional,
            rep.variant_columns, rep.lattice, rep.reduced_report)


class TestSquarefreePart:
    """The seven substitutions run on the squarefree part of their input."""

    def test_square_of_g2(self, g2_report):
        start = time.perf_counter()
        rep = solve(H * H)
        elapsed = time.perf_counter() - start
        assert _outcome(rep) == _outcome(g2_report)
        assert exponent_lattice(H * H).index == exponent_lattice(H).index == 1
        assert elapsed < 5, f"solve(H*H) took {elapsed:.2f} s"

    def test_parts(self):
        line = parse_bivariate("x + y - 2")
        cases = [
            (BiLaurentPoly.term(-2, 3, 1) * H * H, H),
            (parse_bivariate("(x - 1)*(x - 1)*(x + y - 2)"), parse_bivariate("(x - 1)*(x + y - 2)")),
            (line * line * line, line),
            (parse_bivariate("4*(x^2 - y)*(x^2 - y)*(x + y^2 - 1)"),
             parse_bivariate("(x^2 - y)*(x + y^2 - 1)")),
            (parse_bivariate("(x^2 + 1)*(x^2 + 1)*(y - x)*(y - x)*(y - x)"),
             parse_bivariate("(x^2 + 1)*(y - x)")),
        ]
        for h, part in cases:
            assert cyclopoints._squarefree_part(h) in (part, -part), str(h)

    def test_squared_y_free_factor(self):
        # the line x = 1 of zeros is flagged, as for the squarefree input
        rep = solve(parse_bivariate("(x - 1)*(x - 1)*(x + y - 2)"))
        assert _outcome(rep) == _outcome(solve(parse_bivariate("(x - 1)*(x + y - 2)")))
        assert rep.points == () and rep.positive_dimensional == (1, 4, 5)
        assert rep.variant_columns == (
            (1, None, None), (2, (1, 2), ()), (3, (1, 2), ()), (4, None, None),
            (5, None, None), (6, (1, 4), ()), (7, (1, 4), ()))

    def test_cube(self):
        rep = solve(parse_bivariate("(x + y - 2)*(x + y - 2)*(x + y - 2)"))
        assert _outcome(rep) == _outcome(solve(parse_bivariate("x + y - 2")))
        assert rep.points == (CycloPoint(1, 0, 0, 1, 1),) and rep.variant_attribution == ((4,),)
        assert rep.positive_dimensional == ()
        assert rep.variant_columns == (
            (1, (), ()), (2, (), ()), (3, (), ()), (4, (1,), (1,)),
            (5, (), ()), (6, (), ()), (7, (), ()))

    def test_limits_apply_to_the_input(self):
        # the square of an input at the degree limit is refused, not reduced
        at_limit = parse_bivariate(f"x^{MAX_TORUS_DEGREE // 2}*y + x + 1")
        solve(at_limit)
        with pytest.raises(ExponentTooLarge, match=f"limit degree <= {MAX_TORUS_DEGREE}"):
            solve(at_limit * at_limit * at_limit)


class TestCycloPointLabel:
    def test_labels(self):
        p = CycloPoint(8, 4, 1, 2, 8)
        assert p.label() == "(z8^4, z8)"
        assert CycloPoint(1, 0, 0, 1, 1).label() == "(1, 1)"


# ---------------------------------------------------------------------------
# Brute-force differential test.  The evaluator is independent of the
# package: Phi_n by exact division of t^n - 1, a value at (z^a, z^b) as the
# remainder of a length-n vector modulo Phi_n, and every Galois orbit of
# element order <= BRUTE_ORDER searched.
# ---------------------------------------------------------------------------

BRUTE_ORDER = 24


def _divmod_monic(a, b):
    """Quotient and remainder of a by a monic b, constant terms first."""
    a = list(a)
    shift = len(a) - len(b)
    q = [0] * max(shift + 1, 0)
    for k in range(shift, -1, -1):
        c = a[k + len(b) - 1]
        if c:
            q[k] = c
            for j, bj in enumerate(b):
                a[k + j] -= c * bj
    return q, a[:len(b) - 1]


@functools.lru_cache(maxsize=None)
def _phi(n):
    p = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            p, r = _divmod_monic(p, _phi(d))
            assert not any(r)
    return tuple(p)


def _vanishes(terms, n, a, b):
    vec = [0] * n
    for (i, j), c in terms.items():
        vec[(a * i + b * j) % n] += c
    return not any(_divmod_monic(vec, _phi(n))[1])


def _units_mod(n):
    return [j for j in range(1, n + 1) if math.gcd(j, n) == 1]


@functools.lru_cache(maxsize=None)
def _orbit_starts(n):
    """The least pair of every orbit of exact element order n (scanned in
    lexicographic order, the first pair met is the least of its orbit)."""
    seen, reps = set(), []
    for a in range(n):
        for b in range(n):
            if (a, b) not in seen and math.gcd(a, b, n) == 1:
                seen |= {(j * a % n, j * b % n) for j in _units_mod(n)}
                reps.append((a, b))
    return reps


def _brute_zeros(terms):
    return {(n, a, b) for n in range(1, BRUTE_ORDER + 1)
            for a, b in _orbit_starts(n) if _vanishes(terms, n, a, b)}


def _check_report(terms, rep):
    """Every point a zero with canonical orders and representative; an
    unflagged report complete up to BRUTE_ORDER.  Returns the point count."""
    reported = set()
    points = 0
    for p, size in zip(rep.points, rep.orbit_sizes):
        n = p.modulus
        assert _vanishes(terms, n, p.a, p.b), p
        assert math.gcd(p.a, p.b, n) == 1, p
        assert (p.order_x, p.order_y) == (n // math.gcd(p.a, n), n // math.gcd(p.b, n)), p
        orbit = {(j * p.a % n, j * p.b % n) for j in _units_mod(n)}
        assert min(orbit) == (p.a, p.b) and size == len(orbit), p
        reported.add((n, p.a, p.b))
        points += size
    assert len(reported) == len(rep.points)
    if not rep.positive_dimensional:
        assert _brute_zeros(terms) <= reported
    return points


def _random_terms(rng):
    terms = {}
    for _ in range(rng.randint(2, 6)):
        i = rng.randint(0, 6)
        terms[(i, rng.randint(0, 6 - i))] = rng.choice((-2, -1, 1, 2))
    return terms


def _random_sublattice(rng):
    """Rows of an integer matrix of determinant +-2 .. +-6: a Hermite form
    (g, c), (0, h) or its transpose, times a random unimodular matrix with
    entries in -1..1 half of the time."""
    g, h = rng.choice([(g, k // g) for k in range(2, 7) for g in range(1, k + 1) if k % g == 0])
    m = [[g, rng.randrange(h)], [0, h]] if rng.random() < 0.5 else [[g, 0], [rng.randrange(g), h]]
    if rng.random() < 0.5:
        s, t = rng.randrange(2), rng.choice((-1, 1))
        m[1 - s] = [m[1 - s][0] + t * m[s][0], m[1 - s][1] + t * m[s][1]]
    return m


def _stretch(terms, m):
    """terms(x^m00 y^m01, x^m10 y^m11)."""
    out = {}
    for (i, j), c in terms.items():
        e = (i * m[0][0] + j * m[1][0], i * m[0][1] + j * m[1][1])
        out[e] = out.get(e, 0) + c
    return out


def _solve_or_refused(terms):
    """solve(terms), or None where it refuses an input that is a torsion
    coset family (exponents on one line) of degree above the limit: such an
    input goes through the seven substitutions unreduced."""
    try:
        return solve(BiLaurentPoly(terms))
    except ExponentTooLarge:
        (i0, j0), (i1, j1), *rest = sorted(terms)
        assert all((i - i0) * (j1 - j0) == (j - j0) * (i1 - i0) for i, j in rest)
        assert max(_span(e[0] for e in terms), _span(e[1] for e in terms)) > MAX_TORUS_DEGREE
        return None


def _span(values):
    values = list(values)
    return max(values) - min(values)


CHUNKS, PER_CHUNK = 10, 30


@pytest.mark.parametrize("chunk", range(CHUNKS))
def test_differential_random_and_stretched(chunk):
    rng = random.Random(f"cyclopoints-differential:{chunk}")
    for _ in range(PER_CHUNK):
        terms = _random_terms(rng)
        rep = solve(BiLaurentPoly(terms))
        count = _check_report(terms, rep)
        m = _random_sublattice(rng)
        stretched = _stretch(terms, m)
        srep = _solve_or_refused(stretched)
        if srep is None:
            continue
        scount = _check_report(stretched, srep)
        if not rep.positive_dimensional and not srep.positive_dimensional:
            # each torsion point has |det m| preimages under the stretch
            assert scount == abs(m[0][0] * m[1][1] - m[0][1] * m[1][0]) * count, (terms, m)


G2_TERMS = H.coeffs
NAMED = {
    "G2(x^2, y)": _stretch(G2_TERMS, [[2, 0], [0, 1]]),
    "G2(x, y^3)": _stretch(G2_TERMS, [[1, 0], [0, 3]]),
    "G2(x^2, y^2)": _stretch(G2_TERMS, [[2, 0], [0, 2]]),
    "x + y^2 - 1": parse_bivariate("x + y^2 - 1").coeffs,
    "x^2*y^2 + x^2 + y^2 + 1 + x*y": parse_bivariate("x^2*y^2 + x^2 + y^2 + 1 + x*y").coeffs,
    "x - 2": parse_bivariate("x - 2").coeffs,
}


@pytest.mark.parametrize("name", sorted(NAMED))
def test_differential_named(name):
    terms = NAMED[name]
    rep = solve(BiLaurentPoly(terms))
    assert rep.positive_dimensional == ()
    count = _check_report(terms, rep)
    if name.startswith("G2"):
        index = rep.lattice.index
        assert count == index * sum(solve(H).orbit_sizes)


def test_missed_zero_of_order_12_is_found():
    rep = solve(parse_bivariate("x + y^2 - 1"))
    # (z6^-1, z12) = (z12^10, z12^1), whose orbit representative is (z12^2, z12^5)
    assert (12, 2, 5) in {(p.modulus, p.a, p.b) for p in rep.points}
    assert rep.lattice.basis == ((1, 0), (0, 2))
    assert rep.reduced_report.points == (CycloPoint(6, 1, 5, 6, 6),)


def test_no_cyclotomic_factor_means_no_points_and_no_flag():
    rep = solve(parse_bivariate("x - 2"))
    assert rep.points == () and rep.positive_dimensional == () and rep.variant_columns == ()
    assert rep.lattice.basis == ((1, 0),)
