"""Root-system data for the simple Cartan types.

Positive coroots are generated by simple reflections from the simple coroots,
working entirely in the simple-coroot basis: every quantity downstream is a
pairing integer, so no Euclidean embedding is needed.  Numbering follows
the Bourbaki plates.
"""

from __future__ import annotations

import collections
import functools
import re
from typing import NamedTuple

from .errors import InvalidRank, NonIntegralDimension

_FAMILIES = "ABCDEFG"

# (min rank, max rank or None) per family; D3 is rejected in favour of A3,
# B1/C1 in favour of A1, so each isomorphism class appears once.
_RANK_RANGE = {
    "A": (1, None),
    "B": (2, None),
    "C": (2, None),
    "D": (4, None),
    "E": (6, 8),
    "F": (4, 4),
    "G": (2, 2),
}


# A typing.NamedTuple may not define __new__, so the records that validate
# their fields (here and scharacter.FiniteClassFunction) subclass
# collections.namedtuple instead.
class CartanType(collections.namedtuple("CartanType", "family rank")):
    """A simple type (family letter, rank), validated on construction; it
    orders and hashes as the tuple (family, rank)."""

    __slots__ = ()

    def __new__(cls, family: str, rank: int):
        if family not in _FAMILIES:
            raise InvalidRank(f"unknown family {family!r}")
        lo, hi = _RANK_RANGE[family]
        if rank < lo or (hi is not None and rank > hi):
            raise InvalidRank(f"rank {rank} out of range for family {family}")
        return super().__new__(cls, family, rank)

    @staticmethod
    def parse(text: str) -> CartanType:
        m = re.fullmatch(r"([A-Ga-g])\s*(\d+)", text.strip())
        if not m:
            raise InvalidRank(f"cannot parse Cartan type {text!r}")
        digits = m.group(2)
        if len(digits) > 9:  # int() refuses very long literals; no rank is that large
            raise InvalidRank(f"rank of {len(digits)} digits out of range")
        return CartanType(m.group(1).upper(), int(digits))

    def __str__(self) -> str:
        return f"{self.family}{self.rank}"


class DominantWeight(collections.namedtuple("DominantWeight", "coords")):
    """Coordinates in the fundamental-weight basis, all >= 0."""

    __slots__ = ()

    def __new__(cls, coords: tuple[int, ...]):
        if any(c < 0 for c in coords):
            raise ValueError("dominant weight needs nonnegative coordinates")
        return super().__new__(cls, tuple(int(c) for c in coords))

    def is_zero(self) -> bool:
        return not any(self.coords)

    def __str__(self) -> str:
        return ",".join(str(c) for c in self.coords)


def cartan_matrix(ctype: CartanType) -> tuple[tuple[int, ...], ...]:
    """Cartan matrix with entries a[i][j] = <alpha_j, alpha_i^vee>."""
    n = ctype.rank
    a = [[2 * (i == j) for j in range(n)] for i in range(n)]

    def link(i, j, down=-1, up=-1):
        # a[i][j] = <alpha_j, alpha_i^vee>
        a[i][j] = down
        a[j][i] = up

    fam = ctype.family
    if fam in "ABC":
        for i in range(n - 1):
            link(i, i + 1)
        if fam == "B":  # alpha_n short: <alpha_{n-1}, alpha_n^vee> = -2
            a[n - 1][n - 2] = -2
        elif fam == "C":  # alpha_n long
            a[n - 2][n - 1] = -2
    elif fam == "D":
        for i in range(n - 2):
            link(i, i + 1)
        link(n - 3, n - 1)
    elif fam == "E":
        chain = [0, 2, 3, 4, 5, 6, 7][: n - 1]
        for i, j in zip(chain, chain[1:]):
            link(i, j)
        link(1, 3)
    elif fam == "F":
        link(0, 1)
        link(1, 2)
        a[2][1] = -2  # alpha_1, alpha_2 long; alpha_3, alpha_4 short
        link(2, 3)
    elif fam == "G":
        a[0][1] = -3  # alpha_1 short, alpha_2 long
        a[1][0] = -1
    return tuple(tuple(row) for row in a)


def positive_root_vectors(cartan: tuple[tuple[int, ...], ...]) -> tuple[tuple[int, ...], ...]:
    """All positive roots in the simple-root basis, by simple reflections.

    s_i(beta) = beta - <beta, alpha_i^vee> alpha_i raises the height of a
    positive root beta exactly when the pairing is negative.  Every positive
    root beta other than a simple one has some i with a positive pairing,
    and s_i(beta) is then a positive root of lower height, so closing the
    simple roots under the height-raising reflections reaches every positive
    root.  Each pairing sums over the nonzero entries of the Cartan row only.
    """
    n = len(cartan)
    rows = [[(j, a) for j, a in enumerate(row) if a] for row in cartan]
    frontier = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    roots = set(frontier)
    while frontier:
        new = []
        for root in frontier:
            for i, row in enumerate(rows):
                pairing = sum(a * root[j] for j, a in row)
                if pairing < 0:
                    up = list(root)
                    up[i] -= pairing
                    cand = tuple(up)
                    if cand not in roots:
                        roots.add(cand)
                        new.append(cand)
        frontier = new
    return tuple(sorted(roots, key=lambda r: (sum(r), r)))


# Classical number of positive roots, used as a construction-time check.
def _expected_count(ctype: CartanType) -> int:
    n = ctype.rank
    counts = {
        "A": lambda: n * (n + 1) // 2,
        "B": lambda: n * n,
        "C": lambda: n * n,
        "D": lambda: n * (n - 1),
        "E": lambda: {6: 36, 7: 63, 8: 120}[n],
        "F": lambda: 24,
        "G": lambda: 6,
    }
    return counts[ctype.family]()


class RootSystem(NamedTuple):
    """Positive-coroot data for one simple type.

    positive_coroots lists each coroot's coordinates in the simple-coroot
    basis; rho_pairings[i] = <rho, coroot_i> is the coroot height.
    """

    type: CartanType
    cartan: tuple[tuple[int, ...], ...]
    positive_coroots: tuple[tuple[int, ...], ...]
    rho_pairings: tuple[int, ...]
    highest_coroot_index: int

    @property
    def rank(self) -> int:
        return self.type.rank

    @property
    def num_positive_roots(self) -> int:
        return len(self.positive_coroots)

    @property
    def highest_coroot(self) -> tuple[int, ...]:
        return self.positive_coroots[self.highest_coroot_index]

    def __str__(self) -> str:
        return f"RootSystem({self.type})"


@functools.lru_cache(maxsize=None)
def build(ctype: CartanType) -> RootSystem:
    """Construct the root system for a valid Cartan type.

    The coroots are the roots of the dual system, whose Cartan matrix is the
    transpose; heights double as the rho-pairings since <rho, alpha_i^vee> = 1
    on the simple coroots.
    """
    cartan = cartan_matrix(ctype)
    dual = tuple(tuple(row) for row in zip(*cartan))
    coroots = positive_root_vectors(dual)
    if len(coroots) != _expected_count(ctype):
        raise NonIntegralDimension(
            f"{ctype}: closure produced {len(coroots)} positive roots, "
            f"expected {_expected_count(ctype)}"
        )
    heights = tuple(sum(c) for c in coroots)
    highest = max(
        range(len(coroots)),
        key=lambda i: (heights[i], coroots[i]),
    )
    top = coroots[highest]
    if any(any(c > t for c, t in zip(coroot, top)) for coroot in coroots):
        raise NonIntegralDimension(f"{ctype}: no coefficientwise-highest coroot")
    return RootSystem(
        type=ctype,
        cartan=cartan,
        positive_coroots=coroots,
        rho_pairings=heights,
        highest_coroot_index=highest,
    )


def pairing(rs: RootSystem, weight: DominantWeight, coroot_index: int) -> int:
    """<lambda, alpha^vee> for the indexed positive coroot."""
    if not 0 <= coroot_index < len(rs.positive_coroots):
        raise IndexError(f"coroot index {coroot_index} out of range")
    coroot = rs.positive_coroots[coroot_index]
    return sum(l * c for l, c in zip(weight.coords, coroot))


def weight_pairings(rs: RootSystem, weight: DominantWeight) -> list[int]:
    """<lambda + rho, alpha^vee> over all positive coroots."""
    if len(weight.coords) != rs.rank:
        raise ValueError(f"weight has {len(weight.coords)} coordinates, rank is {rs.rank}")
    shifted = [l + 1 for l in weight.coords]
    return [sum(s * c for s, c in zip(shifted, coroot)) for coroot in rs.positive_coroots]


def weyl_dim(rs: RootSystem, weight: DominantWeight) -> int:
    """dim V_lambda = prod <lambda+rho, a^vee> / prod <rho, a^vee>, exactly."""
    num = 1
    for v in weight_pairings(rs, weight):
        num *= v
    den = 1
    for v in rs.rho_pairings:
        den *= v
    q, r = divmod(num, den)
    if r:
        raise NonIntegralDimension(f"{rs.type}: Weyl product {num}/{den} is not integral")
    return q


def epsilon_trivial(rs: RootSystem) -> bool:
    """True iff rho^vee = half the coroot sum lies in the coroot lattice."""
    return all(
        sum(coroot[i] for coroot in rs.positive_coroots) % 2 == 0
        for i in range(rs.rank)
    )


def adjoint_weight(rs: RootSystem) -> DominantWeight:
    """Highest weight of the adjoint representation, i.e. the highest root in
    fundamental-weight coordinates, validated by its Weyl dimension."""
    roots = positive_root_vectors(rs.cartan)
    top = max(roots, key=sum)
    if any(any(c > t for c, t in zip(root, top)) for root in roots):
        raise NonIntegralDimension(f"{rs.type}: no highest root")
    coords = tuple(
        sum(rs.cartan[i][j] * c for j, c in enumerate(top)) for i in range(rs.rank)
    )
    weight = DominantWeight(coords)
    expected = rs.rank + 2 * len(roots)
    if weyl_dim(rs, weight) != expected:
        raise NonIntegralDimension(
            f"{rs.type}: adjoint candidate has dimension {weyl_dim(rs, weight)}, "
            f"expected {expected}"
        )
    return weight
