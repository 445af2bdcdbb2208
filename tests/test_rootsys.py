import pytest

from cyclochar.errors import InvalidRank, NonIntegralDimension
from cyclochar.rootsys import (
    CartanType,
    DominantWeight,
    adjoint_weight,
    build,
    cartan_matrix,
    epsilon_trivial,
    pairing,
    positive_root_vectors,
    weight_pairings,
    weyl_dim,
)

ALL_TYPES = (
    [f"A{n}" for n in range(1, 9)]
    + [f"B{n}" for n in range(2, 9)]
    + [f"C{n}" for n in range(2, 9)]
    + [f"D{n}" for n in range(4, 9)]
    + ["E6", "E7", "E8", "F4", "G2"]
)

# (positive roots, Coxeter number) from the classical tables
CLASSICAL = {
    "A": lambda n: (n * (n + 1) // 2, n + 1),
    "B": lambda n: (n * n, 2 * n),
    "C": lambda n: (n * n, 2 * n),
    "D": lambda n: (n * (n - 1), 2 * n - 2),
    "E": lambda n: {6: (36, 12), 7: (63, 18), 8: (120, 30)}[n],
    "F": lambda n: (24, 12),
    "G": lambda n: (6, 6),
}


def string_closure_reference(cartan):
    """Positive roots by the string closure that simple reflections
    replaced: alpha + alpha_i is a root iff the string length down exceeds
    the pairing <alpha, alpha_i^vee>, generated by height."""
    n = len(cartan)
    roots = {tuple(1 if j == i else 0 for j in range(n)) for i in range(n)}
    frontier = list(roots)
    while frontier:
        new = []
        for root in frontier:
            for i in range(n):
                pairing = sum(c * cartan[i][j] for j, c in enumerate(root))
                down = 0
                probe = list(root)
                while True:
                    probe[i] -= 1
                    if probe[i] < 0 or tuple(probe) not in roots:
                        break
                    down += 1
                if down - pairing >= 1:
                    up = list(root)
                    up[i] += 1
                    cand = tuple(up)
                    if cand not in roots:
                        roots.add(cand)
                        new.append(cand)
        frontier = new
    return tuple(sorted(roots, key=lambda r: (sum(r), r)))


def types_up_to_rank(max_rank):
    out = []
    for family in "ABCDEFG":
        for rank in range(1, max_rank + 1):
            try:
                out.append(CartanType(family, rank))
            except InvalidRank:
                pass
    return out


def rs(name):
    return build(CartanType.parse(name))


class TestCartanType:
    def test_parse(self):
        assert CartanType.parse("G2") == CartanType("G", 2)
        assert CartanType.parse("e7") == CartanType("E", 7)
        assert str(CartanType.parse("A5")) == "A5"

    @pytest.mark.parametrize("bad", ["D3", "B1", "C1", "E9", "E5", "F5", "G3", "A0", "H4", "X2"])
    def test_invalid(self, bad):
        with pytest.raises(InvalidRank):
            CartanType.parse(bad)


class TestRootClosure:
    def test_g2_positive_roots_short_long_basis(self):
        # alpha short, beta long: alpha, beta, beta+alpha, beta+2alpha,
        # beta+3alpha, 2beta+3alpha
        roots = set(positive_root_vectors(cartan_matrix(CartanType("G", 2))))
        assert roots == {(1, 0), (0, 1), (1, 1), (2, 1), (3, 1), (3, 2)}

    def test_reflections_match_string_closure_up_to_rank_12(self):
        types = types_up_to_rank(12)
        assert len(types) == 48
        for ctype in types:
            cartan = cartan_matrix(ctype)
            dual = tuple(zip(*cartan))
            assert positive_root_vectors(cartan) == string_closure_reference(cartan), ctype
            assert positive_root_vectors(dual) == string_closure_reference(dual), ctype

    @pytest.mark.parametrize("name", ALL_TYPES)
    def test_counts(self, name):
        system = rs(name)
        expected, _ = CLASSICAL[name[0]](int(name[1:]))
        assert system.num_positive_roots == expected

    @pytest.mark.parametrize("name", ALL_TYPES)
    def test_simple_coroots_have_pairing_one(self, name):
        system = rs(name)
        simple = [i for i, c in enumerate(system.positive_coroots) if sum(c) == 1]
        assert len(simple) == system.rank
        for i in simple:
            assert system.rho_pairings[i] == 1

    @pytest.mark.parametrize("name", ALL_TYPES)
    def test_highest_coroot_dominates(self, name):
        system = rs(name)
        top = system.highest_coroot
        for coroot in system.positive_coroots:
            assert all(c <= t for c, t in zip(coroot, top))

    @pytest.mark.parametrize("name", ALL_TYPES)
    def test_max_height_is_coxeter_minus_one(self, name):
        system = rs(name)
        _, coxeter = CLASSICAL[name[0]](int(name[1:]))
        assert max(system.rho_pairings) == coxeter - 1


class TestPairing:
    def test_zero_weight(self):
        system = rs("F4")
        zero = DominantWeight((0, 0, 0, 0))
        for i in range(system.num_positive_roots):
            assert pairing(system, zero, i) == 0

    def test_fundamental_duality_a1(self):
        system = rs("A1")
        assert pairing(system, DominantWeight((1,)), 0) == 1

    def test_g2_adjoint_highest_coroot(self):
        system = rs("G2")
        adj = adjoint_weight(system)
        value = pairing(system, adj, system.highest_coroot_index)
        # lambda + rho against the highest coroot drives the dimension-14 check
        assert value + system.rho_pairings[system.highest_coroot_index] == 8
        assert weyl_dim(system, adj) == 14

    def test_out_of_range(self):
        system = rs("A2")
        with pytest.raises(IndexError):
            pairing(system, DominantWeight((1, 0)), 99)

    def test_weight_length_checked(self):
        with pytest.raises(ValueError):
            weight_pairings(rs("A2"), DominantWeight((1,)))


class TestWeylDim:
    def test_g2_adjoint(self):
        assert weyl_dim(rs("G2"), adjoint_weight(rs("G2"))) == 14

    def test_a1_series(self):
        system = rs("A1")
        for n in range(1, 21):
            assert weyl_dim(system, DominantWeight((n - 1,))) == n

    def test_a2_adjoint(self):
        assert weyl_dim(rs("A2"), DominantWeight((1, 1))) == 8

    @pytest.mark.parametrize("name", ALL_TYPES)
    def test_trivial_weight(self, name):
        system = rs(name)
        assert weyl_dim(system, DominantWeight((0,) * system.rank)) == 1

    @pytest.mark.parametrize("name", ALL_TYPES)
    def test_adjoint_dimension(self, name):
        system = rs(name)
        assert weyl_dim(system, adjoint_weight(system)) == system.rank + 2 * system.num_positive_roots

    def test_fundamental_dims_e6(self):
        # dimensions of the E6 fundamental representations (classical values)
        system = rs("E6")
        dims = sorted(
            weyl_dim(system, DominantWeight(tuple(int(i == k) for i in range(6))))
            for k in range(6)
        )
        assert dims == [27, 27, 78, 351, 351, 2925]


class TestEpsilon:
    def test_epsilon_by_center_parity(self):
        # types with odd-order center have integral half coroot sum
        assert epsilon_trivial(rs("G2"))
        assert epsilon_trivial(rs("F4"))
        assert epsilon_trivial(rs("E6"))
        assert epsilon_trivial(rs("E8"))
        assert epsilon_trivial(rs("A2"))
        assert epsilon_trivial(rs("A4"))
        assert not epsilon_trivial(rs("C2"))
        assert not epsilon_trivial(rs("C3"))
        assert not epsilon_trivial(rs("A1"))
        assert not epsilon_trivial(rs("A3"))
        assert not epsilon_trivial(rs("E7"))

    def test_b2_matches_c2(self):
        # isomorphic systems must agree
        assert epsilon_trivial(rs("B2")) == epsilon_trivial(rs("C2"))
