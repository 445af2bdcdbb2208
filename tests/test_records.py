"""The record types behave as immutable value records: construction by
position and by keyword, defaults, frozen fields, equality with equal
hashes, field-order sorting, the Name(field=...) repr, and validation on
construction where a record checks its fields."""

from fractions import Fraction

import pytest

from cyclochar.cyclopoints import CycloPoint, CycloSolveReport, ExponentLattice
from cyclochar.errors import InconsistentClassData, InvalidRank
from cyclochar.laurent import BiLaurentPoly, CycloElement, CycloFactorization, LaurentPoly
from cyclochar.principal import PrincipalCharacter
from cyclochar.rootsys import CartanType, DominantWeight, RootSystem
from cyclochar.scharacter import (
    FiniteClassFunction,
    PositivityReport,
    SCheckReport,
    SymmetricLaurent,
    TorusRejection,
)

G2 = CartanType("G", 2)
POLY = LaurentPoly({-1: 1, 0: 1, 1: 1})

# Each record with its field names in declaration order and one value each.
RECORDS = [
    (CartanType, ("family", "rank"), ("G", 2)),
    (DominantWeight, ("coords",), ((1, 0),)),
    (RootSystem,
     ("type", "cartan", "positive_coroots", "rho_pairings", "highest_coroot_index"),
     (CartanType("A", 1), ((2,),), ((1,),), (1,), 0)),
    (CycloPoint, ("modulus", "a", "b", "order_x", "order_y"), (14, 2, 7, 7, 2)),
    (ExponentLattice, ("basis", "monomial", "reduced"),
     (((1, 1), (0, 2)), (0, 1), BiLaurentPoly({(0, 0): 1, (1, 0): -1}))),
    (CycloSolveReport,
     ("points", "orbit_sizes", "variant_attribution", "positive_dimensional",
      "variant_columns", "lattice", "reduced_report"),
     ((CycloPoint(1, 0, 0, 1, 1),), (1,), ((1,),), (), ((1, (1,), (1,)),), None, None)),
    (CycloFactorization, ("shift", "factors", "remainder"), (-1, ((3, 1),), LaurentPoly.one())),
    (PrincipalCharacter,
     ("type", "weight", "numerator_exponents", "denominator_exponents", "poly_t",
      "epsilon_trivial", "poly_u"),
     (CartanType("A", 1), DominantWeight((2,)), (3,), (1,), POLY, False, None)),
    (PositivityReport, ("is_positive", "negative_interval"), (False, (Fraction(-1), Fraction(0)))),
    (TorusRejection, ("direction", "restriction", "negative_interval"),
     ((1, 5), SymmetricLaurent(POLY), (Fraction(-1), Fraction(-1, 2)))),
    (FiniteClassFunction, ("class_sizes", "values"),
     ((1, 2), (CycloElement.from_int(3, 1), CycloElement.from_int(3, -1)))),
    (SCheckReport,
     ("is_positive", "mean_is_one", "zero_classes", "nonreal_classes", "negative_classes",
      "is_trivial"),
     (True, True, (2,), (), (), False)),
]

params = pytest.mark.parametrize("cls, names, values", RECORDS,
                                 ids=[r[0].__name__ for r in RECORDS])


@params
def test_construction_by_position_and_keyword(cls, names, values):
    by_position = cls(*values)
    by_keyword = cls(**dict(zip(names, values)))
    for record in (by_position, by_keyword):
        assert tuple(getattr(record, n) for n in names) == values
    assert by_position == by_keyword


@params
def test_fields_are_frozen(cls, names, values):
    record = cls(*values)
    for name, value in zip(names, values):
        with pytest.raises(AttributeError):
            setattr(record, name, value)
    assert tuple(getattr(record, n) for n in names) == values


@params
def test_equal_fields_give_equal_records_and_hashes(cls, names, values):
    a, b = cls(*values), cls(*values)
    assert a is not b
    assert a == b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


@params
def test_repr_names_every_field(cls, names, values):
    fields = ", ".join(f"{n}={v!r}" for n, v in zip(names, values))
    assert repr(cls(*values)) == f"{cls.__name__}({fields})"


def test_solve_report_defaults():
    report = CycloSolveReport((), (), (), (), ())
    assert report.lattice is None
    assert report.reduced_report is None
    assert report == CycloSolveReport((), (), (), (), (), None, None)


def test_positivity_report_truth_is_its_verdict():
    assert PositivityReport(True, None)
    assert not PositivityReport(False, (Fraction(-1), Fraction(0)))


@pytest.mark.parametrize("cls, unsorted, expected", [
    (CartanType,
     [("G", 2), ("A", 10), ("E", 6), ("A", 2), ("B", 2)],
     [("A", 2), ("A", 10), ("B", 2), ("E", 6), ("G", 2)]),
    (CycloPoint,
     [(8, 1, 3, 8, 8), (7, 2, 1, 7, 7), (8, 1, 2, 8, 4), (7, 1, 5, 7, 7), (8, 1, 2, 8, 1)],
     [(7, 1, 5, 7, 7), (7, 2, 1, 7, 7), (8, 1, 2, 8, 1), (8, 1, 2, 8, 4), (8, 1, 3, 8, 8)]),
], ids=["CartanType", "CycloPoint"])
def test_sorts_in_field_order(cls, unsorted, expected):
    records = sorted(cls(*v) for v in unsorted)
    assert records == [cls(*v) for v in expected]
    assert cls(*expected[0]) < cls(*expected[1]) <= cls(*expected[1]) < cls(*expected[-1])


def test_dominant_weight_normalises_its_coordinates():
    weight = DominantWeight([True, 2])
    assert weight.coords == (1, 2)
    assert type(weight.coords) is tuple
    assert all(type(c) is int for c in weight.coords)


@pytest.mark.parametrize("build, error", [
    (lambda: CartanType("Z", 3), InvalidRank),
    (lambda: CartanType("G", 3), InvalidRank),
    (lambda: CartanType("D", 3), InvalidRank),
    (lambda: DominantWeight((1, -1)), ValueError),
    (lambda: FiniteClassFunction((1, 2), (CycloElement.from_int(3, 1),)), InconsistentClassData),
    (lambda: FiniteClassFunction((), ()), InconsistentClassData),
    (lambda: FiniteClassFunction((0,), (CycloElement.from_int(3, 1),)), InconsistentClassData),
    (lambda: FiniteClassFunction((1, 1), (CycloElement.from_int(3, 1),
                                          CycloElement.from_int(4, 1))), InconsistentClassData),
], ids=["unknown family", "rank above range", "rank below range", "negative weight",
        "length mismatch", "no classes", "empty class", "mixed moduli"])
def test_validation_on_construction(build, error):
    with pytest.raises(error):
        build()
