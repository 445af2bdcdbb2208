import pytest
from hypothesis import given
from hypothesis import strategies as st

from cyclochar.cyclopoints import g2_adjoint_poly
from cyclochar.errors import ParseError, UnknownVariable
from cyclochar.laurent import BiLaurentPoly, LaurentPoly
from cyclochar.parsing import (
    MAX_COEFF_DIGITS,
    MAX_PAREN_DEPTH,
    parse,
    parse_bivariate,
    parse_univariate,
)

H_TEXT = ("y^4*x^6 + y^3*(x^6+x^5+x^4+x^3) + y^2*(x^4+2*x^3+x^2)"
          " + y*(x^3+x^2+x) + y + 1")


def test_parse_h_polynomial():
    assert parse_bivariate(H_TEXT) == g2_adjoint_poly()


def test_symmetric_univariate():
    f = parse_univariate("t^-1 + 2 + t")
    assert f == LaurentPoly({-1: 1, 0: 2, 1: 1})


def test_negative_exponents_and_signs():
    assert parse_univariate("-t^-2 + 2 - t^2") == LaurentPoly({-2: -1, 0: 2, 2: -1})
    assert parse_univariate("t^+3") == LaurentPoly({3: 1})


def test_parenthesized_products():
    f = parse_univariate("(t + 1)*(t - 1)")
    assert f == LaurentPoly({2: 1, 0: -1})


def test_whitespace_insignificant():
    assert parse_univariate(" t ^ -1+2 +t ") == parse_univariate("t^-1 + 2 + t")


def test_dangling_operator_position():
    with pytest.raises(ParseError) as info:
        parse_univariate("x +", "x")
    assert info.value.position == 3


def test_unknown_variable():
    with pytest.raises(UnknownVariable):
        parse_univariate("t + z")
    with pytest.raises(UnknownVariable) as info:
        parse("x + t", ("x", "y"))
    assert info.value.position == 4


def test_no_juxtaposition():
    with pytest.raises(ParseError):
        parse_univariate("2t")
    with pytest.raises(ParseError):
        parse_bivariate("x y")


def test_no_floats():
    with pytest.raises(ParseError):
        parse_univariate("1.5 + t")


def test_unbalanced_parens():
    with pytest.raises(ParseError):
        parse_univariate("(t + 1")
    with pytest.raises(ParseError):
        parse_univariate("t + 1)")


def test_paren_depth_limit():
    # the limit counts parentheses open at once, not parentheses in all
    deep = "(" * MAX_PAREN_DEPTH + "t + 1" + ")" * MAX_PAREN_DEPTH
    assert MAX_PAREN_DEPTH == 100
    assert parse_univariate(deep) == LaurentPoly({1: 1, 0: 1})
    assert parse_univariate(" * ".join([deep] * 3)) == LaurentPoly({3: 1, 2: 3, 1: 3, 0: 1})
    with pytest.raises(ParseError, match=r"nested deeper than 100 \(position 100\)"):
        parse_univariate("(" + deep + ")")
    # refused at the first parenthesis past the limit, far from the recursion limit
    with pytest.raises(ParseError, match=r"nested deeper than 100 \(position 100\)"):
        parse_bivariate("(" * 5000 + "x" + ")" * 5000)


def test_bad_exponent():
    with pytest.raises(ParseError):
        parse_univariate("t^")
    with pytest.raises(ParseError):
        parse_univariate("t^x")


def test_coefficient_digit_limit():
    # the longest printable coefficient parses; a product or a sum past it does not
    top = "9" * MAX_COEFF_DIGITS
    assert parse_bivariate(f"x - {top}").coefficient(0, 0) == -int(top)
    for text in (f"x - {top} - 1", f"x - {'9' * 2200}*{'9' * 2200}", f"{top} + 1"):
        with pytest.raises(ParseError, match=f"more than {MAX_COEFF_DIGITS} digits"):
            parse_bivariate(text)


def test_other_variables():
    assert parse("u^2 - 1", ("u",)) == LaurentPoly({2: 1, 0: -1})


@given(st.dictionaries(st.integers(-8, 8), st.integers(-99, 99), max_size=6))
def test_univariate_print_parse_roundtrip(coeffs):
    f = LaurentPoly(coeffs)
    assert parse_univariate(str(f)) == f


@given(st.dictionaries(
    st.tuples(st.integers(-5, 5), st.integers(-5, 5)),
    st.integers(-99, 99),
    max_size=6,
))
def test_bivariate_print_parse_roundtrip(coeffs):
    h = BiLaurentPoly(coeffs)
    assert parse_bivariate(str(h)) == h
