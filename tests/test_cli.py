import contextlib
import io
import json
import os
import pathlib
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cyclochar
from cyclochar import cli
from cyclochar.cli import (
    MAX_PRINCIPAL_SPAN,
    MAX_PRINCIPAL_WORK,
    MAX_RANK,
    MAX_SCHECK_EXPONENT,
    main,
)
from cyclochar.cyclopoints import MAX_LATTICE_INDEX, MAX_TORUS_DEGREE
from cyclochar.scharacter import MAX_ROOT_ORDER

DATA = pathlib.Path(__file__).parent / "data"
SRC = pathlib.Path(cyclochar.__file__).resolve().parent.parent


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestPrincipal:
    def test_g2_adjoint_text(self, capsys):
        code, out, err = run(capsys, "principal", "--type", "G2", "--weight", "adjoint")
        assert code == 0 and not err
        assert "dimension: 14" in out
        assert "u^5 + u^4 + u^3 + u^2 + 2*u + 2 + 2*u^-1" in out
        assert "Phi_7 Phi_8" in out
        assert "element orders with a zero: 7, 8" in out
        assert "= 16" in out

    def test_g2_adjoint_json(self, capsys):
        code, out, err = run(capsys, "--format", "json",
                             "principal", "--type", "G2", "--weight", "0,1")
        assert code == 0
        report = json.loads(out)
        assert report["dimension"] == 14
        assert report["element_orders"] == [7, 8]
        assert report["t_orders"] == [14, 16]
        assert report["explicit_zero_order"] == 16
        assert report["prime_power_zero"] == {"prime": 2, "exponent": 3, "order": 8}

    def test_a1_weight_one(self, capsys):
        code, out, _ = run(capsys, "principal", "--type", "A1", "--weight", "1")
        assert code == 0
        assert "t + t^-1" in out
        assert "= 4" in out

    def test_trivial_weight_has_no_zeros(self, capsys):
        code, out, err = run(capsys, "principal", "--type", "A1", "--weight", "0")
        assert code == 3
        assert "dimension: 1" in out
        assert "NoZeros" in err

    def test_bad_weight_length(self, capsys):
        code, _, err = run(capsys, "principal", "--type", "A2", "--weight", "1")
        assert code == 3 and "rank" in err

    def test_bad_type(self, capsys):
        code, _, err = run(capsys, "principal", "--type", "Q9", "--weight", "1")
        assert code == 3

    def test_negative_weight(self, capsys):
        code, out, err = run(capsys, "principal", "--type", "A2", "--weight=-1,0")
        assert code == 3 and not out
        assert err == ("error: CycloCharError: weight coordinate 1 is -1; "
                       "a dominant weight needs coordinates >= 0\n")
        assert "Traceback" not in err

    def test_span_limit(self, capsys):
        # E8 with all coordinates 100: span 2 * 101 * 1240 - 2 * 1240 = 248,000
        start = time.perf_counter()
        weight = ",".join(["100"] * 8)
        code, out, err = run(capsys, "principal", "--type", "E8", "--weight", weight)
        assert time.perf_counter() - start < 1.0
        assert code == 3 and not out
        assert err.startswith("error: ExponentTooLarge: degree span 248000")
        assert str(MAX_PRINCIPAL_SPAN) in err and err.count("\n") == 1

    def test_span_at_limit_passes_the_bound(self, capsys):
        # A1 with weight n has span 2n
        code, out, err = run(capsys, "principal", "--type", "A1", "--weight", "50000")
        assert code == 0 and not err and "dimension: 50001" in out
        code, out, err = run(capsys, "principal", "--type", "A1", "--weight", "50001")
        assert code == 3 and "ExponentTooLarge" in err

    def test_work_limit(self, capsys):
        # span 91,036 with 1,034 exponents left after cancelling: 8 s to answer
        coords = ["0"] * 64
        for i, c in {15: 3, 29: 1, 32: 1, 37: 2, 49: 1, 59: 3, 61: 3}.items():
            coords[i - 1] = str(c)
        start = time.perf_counter()
        code, out, err = run(capsys, "principal", "--type", "D64", "--weight", ",".join(coords))
        assert time.perf_counter() - start < 5.0
        assert code == 3 and not out
        assert err == ("error: ExponentTooLarge: degree span 91036 times 1034 uncancelled "
                       "exponents exceeds the principal limit span * exponents <= "
                       f"{MAX_PRINCIPAL_WORK}\n")

    def test_work_limit_passes_every_small_rank(self, capsys):
        # E8 with every coordinate 40: span 99,200 and all 240 exponents left,
        # the most work of any type of rank <= 8 within the span limit
        assert 99_200 * 240 <= MAX_PRINCIPAL_WORK
        code, out, err = run(capsys, "principal", "--type", "E8", "--weight", ",".join(["40"] * 8))
        assert code == 0 and not err and "element orders with a zero" in out
        code, out, err = run(capsys, "principal", "--type", "G2", "--weight", "adjoint")
        assert code == 0 and not err and "Phi_7 Phi_8" in out

    def test_rank_limit(self, capsys):
        start = time.perf_counter()
        code, out, err = run(capsys, "principal", "--type", f"A{MAX_RANK + 1}",
                             "--weight", "adjoint")
        assert time.perf_counter() - start < 1.0
        assert code == 3 and not out
        assert "InvalidRank" in err and str(MAX_RANK) in err and err.count("\n") == 1


class TestDim:
    def test_value(self, capsys):
        code, out, _ = run(capsys, "dim", "--type", "G2", "--weight", "adjoint")
        assert code == 0 and out.strip() == "14"

    def test_json(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "dim", "--type", "A2", "--weight", "1,1")
        assert json.loads(out)["dimension"] == 8

    def test_rank_limit(self, capsys):
        assert MAX_RANK == 64
        code, out, _ = run(capsys, "dim", "--type", "A64", "--weight", "adjoint")
        assert code == 0 and out.strip() == str(64 * 66)
        start = time.perf_counter()
        code, out, err = run(capsys, "dim", "--type", "A65", "--weight", "adjoint")
        assert time.perf_counter() - start < 1.0
        assert code == 3 and not out
        assert err == "error: InvalidRank: rank 65 exceeds the limit rank <= 64\n"

    def test_negative_weight(self, capsys):
        code, out, err = run(capsys, "dim", "--type", "B3", "--weight", "0,2,-3")
        assert code == 3 and not out
        assert err == ("error: CycloCharError: weight coordinate 3 is -3; "
                       "a dominant weight needs coordinates >= 0\n")
        assert "Traceback" not in err


class TestCyclopoints:
    def test_builtin_table(self, capsys):
        code, out, _ = run(capsys, "cyclopoints", "--builtin", "g2-adjoint")
        assert code == 0
        assert "element orders with a zero: 7, 8, 15, 42" in out
        assert "Phi_3 Phi_7 Phi_15" in out
        assert "(z42, z42^11)" in out

    def test_g2_table_alias(self, capsys):
        code1, out1, _ = run(capsys, "cyclopoints", "--builtin", "g2-adjoint")
        code2, out2, _ = run(capsys, "g2-table")
        assert (code1, out1) == (code2, out2)

    def test_expr_trivial_point(self, capsys):
        code, out, _ = run(capsys, "cyclopoints", "--expr", "x + y - 2")
        assert code == 0
        assert "(1, 1); 1" in out
        assert "element orders with a zero: 1" in out

    def test_positive_dimensional_warning(self, capsys):
        code, out, _ = run(capsys, "cyclopoints", "--expr", "x - y")
        assert code == 0
        assert "positive-dimensional" in out
        assert "warning" in out

    def test_square_prints_as_its_root(self, capsys):
        h = "x^6*y^4 + x^6*y^3 + x^5*y^3 + x^4*y^3 + x^3*y^3 + x^4*y^2 + 2*x^3*y^2" \
            " + x^2*y^2 + x^3*y + x^2*y + x*y + y + 1"
        out = {}
        for fmt in ("text", "json"):
            once = run(capsys, "--format", fmt, "cyclopoints", "--expr", h)
            twice = run(capsys, "--format", fmt, "cyclopoints", "--expr", f"({h})*({h})")
            assert once == twice and once[0] == 0
            out[fmt] = once[1]
        assert "element orders with a zero: 7, 8, 15, 42" in out["text"]
        assert "lattice" not in json.loads(out["json"])  # lattice index 1

    def test_json_round_trip(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "cyclopoints",
                           "--builtin", "g2-adjoint")
        report = json.loads(out)
        assert report["element_orders"] == [7, 8, 15, 42]
        assert json.loads(json.dumps(report, sort_keys=True)) == report

    def test_one_variable_json(self, capsys):
        code, out, err = run(capsys, "--format", "json", "cyclopoints", "--expr", "x - 1")
        flagged = (1, 4, 5)
        variants = [{"i": i, "positive_dimensional": i in flagged,
                     "x_factors": None if i in flagged else [],
                     "y_factors": None if i in flagged else []} for i in range(1, 8)]
        report = {"element_orders": [], "points": [], "positive_dimensional": list(flagged),
                  "variants": variants}
        assert (code, err) == (0, "")
        assert out == json.dumps(report, indent=2, sort_keys=True) + "\n"

    def test_parse_error_exit_code(self, capsys):
        code, _, err = run(capsys, "cyclopoints", "--expr", "x +")
        assert code == 2
        assert "position 3" in err

    def test_source_required(self, capsys):
        code, _, err = run(capsys, "cyclopoints")
        assert code == 3 and "exactly one" in err

    def test_file_source(self, capsys, tmp_path):
        path = tmp_path / "poly.txt"
        path.write_text("x + y - 2\n")
        code, out, _ = run(capsys, "cyclopoints", "--file", str(path))
        assert code == 0 and "(1, 1)" in out

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "cyclopoints", "--file", "/nonexistent/poly.txt")
        assert code == 1

    def test_reduced_input_states_substitution_and_g(self, capsys):
        code, out, err = run(capsys, "cyclopoints", "--expr", "x + y^2 - 1")
        assert code == 0 and not err
        lines = out.splitlines()
        assert lines[0] == ("H = G(x, y^2) with G(u, v) = v + u - 1"
                            " (exponent lattice of index 2)")
        assert lines[1].startswith(" i  R_i^cycl")
        assert " 7  Phi_6              Phi_6              (z6, z6^5); 6" in lines
        assert "zeros of H above those of G (orbit reps): (z12^2, z12^5)" in lines
        assert lines[-2:] == ["element orders with a zero: 12", "verified torsion-zero orbits: 1"]

    def test_reduced_input_json_lattice(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "cyclopoints", "--expr", "x + y^2 - 1")
        report = json.loads(out)
        lattice = report["lattice"]
        assert lattice["basis"] == [[1, 0], [0, 2]] and lattice["index"] == 2
        assert lattice["monomial"] == [0, 0] and lattice["reduced"] == "v + u - 1"
        assert [(p["modulus"], p["a"], p["b"]) for p in lattice["reduced_points"]] == [(6, 1, 5)]
        assert [(p["modulus"], p["a"], p["b"]) for p in report["points"]] == [(12, 2, 5)]
        assert report["positive_dimensional"] == [] and report["element_orders"] == [12]

    def test_full_lattice_json_has_no_lattice_key(self, capsys):
        _, out, _ = run(capsys, "--format", "json", "cyclopoints", "--expr", "x + y - 2")
        assert "lattice" not in json.loads(out)

    def test_no_cyclotomic_factor_is_not_flagged(self, capsys):
        code, out, _ = run(capsys, "cyclopoints", "--expr", "x - 2")
        assert code == 0
        assert out.splitlines() == [
            "H = p(x) with p(t) = t - 2, which has no cyclotomic factor", "",
            "no root-of-unity zeros found"]


# Prints the exit code and the seconds main() took, on the last line.
TIMED = """
import sys, time
import cyclochar.cli
start = time.perf_counter()
code = cyclochar.cli.main(sys.argv[1:])
print(code, time.perf_counter() - start)
"""


class TestCyclopointsLimits:
    """Oversized torus inputs exit 3 at once; a fresh interpreter with a
    timeout makes a missing check fail instead of hang."""

    @pytest.mark.parametrize("expr, message", [
        ("x^1000000 + y - 2",
         f"lattice index 1000000 exceeds the cyclopoints limit index <= {MAX_LATTICE_INDEX}"),
        ("x^1000000 + y^1000000 + 1",
         f"lattice index 1000000000000 exceeds the cyclopoints limit index <= {MAX_LATTICE_INDEX}"),
        ("x^1000000 - y^1000000",
         f"degree 1000000 in x exceeds the cyclopoints limit degree <= {MAX_TORUS_DEGREE}"),
    ])
    def test_exits_3_within_a_second(self, expr, message):
        proc = cold(TIMED, "cyclopoints", "--expr", expr)
        code, seconds = proc.stdout.split()
        assert code == "3" and float(seconds) < 1.0
        assert proc.stderr == f"error: ExponentTooLarge: {message}\n"


class TestScheck:
    def test_positive_with_witness(self, capsys):
        code, out, _ = run(capsys, "scheck", "positive", "--expr", "t + t^-1")
        assert code == 0
        assert "no" in out and "negative for cos(theta)" in out

    def test_negative_constant(self, capsys):
        assert run(capsys, "scheck", "positive", "--expr=-2") == (
            0, "positive on the unit circle: no\nnegative for cos(theta) in [-1, 1]\n", "")
        code, out, err = run(capsys, "--format", "json", "scheck", "positive", "--expr=-2")
        assert (code, err) == (0, "")
        assert json.loads(out) == {"negative_for_cos_theta_in": ["-1", "1"], "positive": False}

    def test_positive_yes(self, capsys):
        code, out, _ = run(capsys, "scheck", "positive", "--expr", "t + 2 + t^-1")
        assert code == 0 and "yes" in out

    def test_su2(self, capsys):
        code, out, _ = run(capsys, "scheck", "su2", "--expr", "t^2 + 2 + t^-2")
        assert code == 0 and "g_2^2" in out

    def test_su2_rejects(self, capsys):
        code, _, err = run(capsys, "scheck", "su2", "--expr", "t^2 + 1 + t^-2")
        assert code == 3 and "NotAnSCharacter" in err

    def test_classify(self, capsys):
        code, out, _ = run(capsys, "scheck", "classify", "--expr", "t^-3 + 2 + t^3")
        assert code == 0 and "m = 3" in out

    def test_classify_prints_exponent_one_as_t(self, capsys):
        assert run(capsys, "scheck", "classify", "--expr", "t + 2 + t^-1") == (
            0, "f = t^-1 + 2 + t  (m = 1, sign +)\n", "")
        assert run(capsys, "scheck", "classify", "--expr", "-t + 2 - t^-1") == (
            0, "f = -t^-1 + 2 - t  (m = 1, sign -)\n", "")
        assert run(capsys, "scheck", "classify", "--expr", "-t^3 + 2 - t^-3") == (
            0, "f = -t^-3 + 2 - t^3  (m = 3, sign -)\n", "")

    def test_finite_psl27(self, capsys):
        code, out, _ = run(capsys, "scheck", "finite", "--file", str(DATA / "psl27.txt"))
        assert code == 0
        assert "S-character: yes" in out
        assert "zero classes (0-based): 2" in out

    def test_finite_json(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "scheck", "finite",
                           "--file", str(DATA / "psl27.txt"))
        report = json.loads(out)
        assert report["is_s_character"] is True
        assert report["zero_classes"] == [2]
        assert report["group_order"] == 168

    def test_not_symmetric_is_domain_error(self, capsys):
        code, _, err = run(capsys, "scheck", "positive", "--expr", "t + 1")
        assert code == 3 and "NotSymmetric" in err

    def test_finite_non_integer_root_order(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("root t abc\n1 1\n")
        code, out, err = run(capsys, "scheck", "finite", "--file", str(path))
        assert code == 3 and not out
        assert err.startswith("error: InconsistentClassData: root order")
        assert err.count("\n") == 1

    def test_finite_unknown_root_variable(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("root z 5\n1 1\n")
        proc = cold("import sys; from cyclochar.cli import main; sys.exit(main())",
                    "scheck", "finite", "--file", str(path))
        assert proc.returncode == 3 and not proc.stdout
        assert proc.stderr == ("error: InconsistentClassData: root variable must be "
                               "one of t, u, x, y: 'root z 5'\n")
        assert "Traceback" not in proc.stderr

    def test_root_order_limit(self, capsys, tmp_path):
        # the decision at the limit runs in full
        path = tmp_path / "limit.txt"
        k = MAX_ROOT_ORDER // 4  # z^k + z^-k = i - i when 4 | N
        assert 4 * k == MAX_ROOT_ORDER
        path.write_text(f"root t {MAX_ROOT_ORDER}\n1 t + t^-1\n1 2 - t - t^-1\n1 t^{k} + t^-{k}\n")
        code, out, err = run(capsys, "scheck", "finite", "--file", str(path))
        assert code == 0 and not err
        assert "positive: yes" in out and "zero classes (0-based): 2" in out
        path.write_text(f"root t {MAX_ROOT_ORDER + 1}\n1 t + t^-1\n")
        code, out, err = run(capsys, "scheck", "finite", "--file", str(path))
        assert code == 3 and not out
        assert err == (f"error: ExponentTooLarge: root order {MAX_ROOT_ORDER + 1} "
                       f"exceeds the class-data limit N <= {MAX_ROOT_ORDER}\n")

    def test_huge_root_order_exits_3_within_a_second(self, tmp_path):
        # a missing check would build a residue of length N; the timeout turns
        # that into a failure instead of a hang
        path = tmp_path / "huge.txt"
        path.write_text("root t 100003\n1 t + t^-1\n")
        proc = cold(TIMED, "scheck", "finite", "--file", str(path), timeout=30)
        code, seconds = proc.stdout.split()
        assert code == "3" and float(seconds) < 1.0
        assert proc.stderr == ("error: ExponentTooLarge: root order 100003 exceeds "
                               f"the class-data limit N <= {MAX_ROOT_ORDER}\n")

    def test_exponent_limit(self, capsys):
        for mode in ("positive", "classify", "su2"):
            start = time.perf_counter()
            code, out, err = run(capsys, "scheck", mode, "--expr", "t^-100000 + 2 + t^100000")
            assert time.perf_counter() - start < 1.0
            assert code == 3 and not out
            assert "ExponentTooLarge" in err and str(MAX_SCHECK_EXPONENT) in err
            assert err.count("\n") == 1

    def test_exponent_at_limit_passes_the_bound(self, capsys):
        # mean a0 - a2 = 2 rejects before the (slow) positivity decision
        _, _, err = run(capsys, "scheck", "su2", "--expr", "t^-256 + 2 + t^256")
        assert "NotAnSCharacter" in err
        _, _, err = run(capsys, "scheck", "su2", "--expr", "t^-257 + 2 + t^257")
        assert "ExponentTooLarge" in err


def _expressions(variables, letters=("\u00e9", "\u00b2")):
    """Small expressions with |exponent| <= 12 in the given variables, plus
    text a file can hold but the grammar refuses: superscript digits and
    non-ASCII letters."""
    atoms = st.one_of(
        st.integers(0, 9).map(str),
        st.sampled_from(variables + letters),
        st.tuples(st.sampled_from(variables), st.integers(-12, 12),
                  st.sampled_from(("",) * 9 + letters[1:])).map(lambda a: f"{a[0]}^{a[1]}{a[2]}"),
    )
    return st.recursive(
        atoms,
        lambda inner: st.one_of(
            st.tuples(inner, st.sampled_from([" + ", " - ", "*"]), inner).map("".join),
            inner.map(lambda e: f"({e})"),
            inner.map(lambda e: f"-{e}"),
        ),
        max_leaves=6,
    )


# Symmetric Laurent polynomials in t, so that checks get past the symmetry
# test, and expressions in allowed and disallowed variables.
_SYMMETRIC = st.dictionaries(st.integers(0, 12), st.integers(-3, 3), max_size=4).map(
    lambda cs: " + ".join(f"({c})*t^{e} + ({c})*t^-{e}" for e, c in cs.items()) or "0")
_T_EXPRS = _expressions(("t",), ())
_EXPRS = st.one_of(_SYMMETRIC, _T_EXPRS, _expressions(("t", "u", "x", "y", "z")))
_BAD_ORDERS = st.sampled_from([str(MAX_ROOT_ORDER + 1), "100003", "0", "-3", "abc", "2.5"])
_BAD_SIZES = st.sampled_from(["0", "-2", "x", "1.5", "\u00b2"])
_DEFECTS = [None] * 6 + ["variable", "order", "size", "no size", "value", "no classes"]


@st.composite
def _class_files(draw):
    """Class-data files: a root directive in t or x with an order up to 60
    (or none), one to five lines of size and value, and at most one defect."""
    defect = draw(st.sampled_from(_DEFECTS))
    var = draw(st.sampled_from(["t", "x", "z" if defect == "variable" else "t"]))
    order = draw(_BAD_ORDERS if defect == "order" else st.integers(1, 60).map(str))
    lines = [f"root {var} {order}"] if draw(st.integers(0, 4)) else []
    for _ in range(0 if defect == "no classes" else draw(st.integers(1, 5))):
        value = draw(_EXPRS if defect == "value" else st.one_of(_SYMMETRIC, _T_EXPRS))
        size = draw(_BAD_SIZES if defect == "size" else st.integers(1, 60).map(str))
        lines.append(value if defect == "no size" else f"{size} {value.replace('t', var)}")
    return "\n".join(lines) + "\n"


class TestScheckFuzz:
    """Well-formed argv and readable files end with an answer (exit 0) or a
    documented one-line failure (2 parse, 3 domain); never 1 or 4."""

    @staticmethod
    def check(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 2, 3), (code, err.getvalue())
        if code:
            assert not out.getvalue()
            assert err.getvalue().count("\n") == 1 and err.getvalue().endswith("\n")
        else:
            assert out.getvalue() and not err.getvalue()

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(text=_class_files(), fmt=st.sampled_from(["text", "json"]))
    def test_finite(self, text, fmt, tmp_path_factory):
        path = tmp_path_factory.getbasetemp() / "fuzz_classes.txt"
        path.write_text(text, encoding="utf-8")
        self.check(["--format", fmt, "scheck", "finite", "--file", str(path)])

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(mode=st.sampled_from(["positive", "classify", "su2"]),
           expr=_EXPRS, fmt=st.sampled_from(["text", "json"]))
    def test_expressions(self, mode, expr, fmt):
        # --expr=... also carries values that start with '--'
        self.check(["--format", fmt, "scheck", mode, f"--expr={expr}"])

    @pytest.mark.parametrize("argv", [
        ["scheck", "positive", "--expr", "t^\u00b2"],
        ["scheck", "su2", "--expr", "\u00b2"],
        ["scheck", "positive", "--expr", "1" * 5000],
    ])
    def test_pinned_parse_errors(self, capsys, argv):
        # int() refuses superscript digits and literals past its digit limit
        code, out, err = run(capsys, *argv)
        assert code == 2 and not out
        assert err.startswith("parse error: ") and err.count("\n") == 1


# The 32 simple types of rank <= 8, then type strings the parser refuses or
# the families do not allow.
_SIMPLE_TYPES = ([f"A{n}" for n in range(1, 9)] + [f"B{n}" for n in range(2, 9)]
                 + [f"C{n}" for n in range(2, 9)] + [f"D{n}" for n in range(4, 9)]
                 + ["E6", "E7", "E8", "F4", "G2"])
_BAD_TYPES = st.one_of(
    st.tuples(st.sampled_from("ABCDEFGHabcdefgz"), st.integers(0, 12)).map(lambda a: f"{a[0]}{a[1]}"),
    st.sampled_from(["", " ", "A", "2", "A-1", "A 2", "A2.0", "A\u0663", "B\u00b2", "A" + "9" * 5000]),
    st.text(max_size=6),
)


@st.composite
def _weight_argv(draw, command):
    """A type and a weight: mostly a simple type of rank <= 8 with small
    coordinates, otherwise a bad type, a wrong length, a negative or huge
    coordinate, 'adjoint' or text."""
    good = draw(st.integers(0, 3))
    ctype = draw(st.sampled_from(_SIMPLE_TYPES) if good else _BAD_TYPES)
    rank = int(ctype[1:]) if good else draw(st.integers(0, 9))
    length = rank if draw(st.integers(0, 4)) else draw(st.integers(0, 9))
    coords = st.integers(0, 3) if draw(st.integers(0, 3)) else st.integers(-2, 10 ** 600)
    weight = draw(st.one_of(
        st.lists(coords, min_size=length, max_size=length).map(
            lambda cs: draw(st.sampled_from([",", " ", ", "])).join(map(str, cs))),
        st.sampled_from(["adjoint", "Adjoint ", "", ",", "1,,0", "x", "1.5", "\u00b2"]),
    ))
    return [command, "--type", ctype, "--weight", weight]


class TestWeightFuzz:
    """principal and dim on fuzzed types and weights: an answer, or a
    one-line failure with exit 2 or 3, each within the deadline."""

    @staticmethod
    def check(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 2, 3), (code, err.getvalue())
        if code:
            assert err.getvalue().count("\n") == 1 and err.getvalue().endswith("\n")
        else:
            assert out.getvalue() and not err.getvalue()

    @settings(max_examples=150, deadline=10_000, derandomize=True)
    @given(argv=_weight_argv("principal"), fmt=st.sampled_from(["text", "json"]))
    def test_principal(self, argv, fmt):
        self.check(["--format", fmt, *argv])

    @settings(max_examples=150, deadline=10_000, derandomize=True)
    @given(argv=_weight_argv("dim"), fmt=st.sampled_from(["text", "json"]))
    def test_dim(self, argv, fmt):
        self.check(["--format", fmt, *argv])

    def test_signed_values_join_their_flag(self, capsys):
        code, out, err = run(capsys, "scheck", "positive", "--expr", "-t^2+2-t^-2")
        assert code == 0 and out == "positive on the unit circle: yes\n" and not err
        code, out, err = run(capsys, "principal", "--type", "A2", "--weight", "-1,0")
        assert code == 3 and not out
        assert err == ("error: CycloCharError: weight coordinate 1 is -1; "
                       "a dominant weight needs coordinates >= 0\n")
        # a value starting with '--' is another option, as before
        assert run(capsys, "scheck", "positive", "--expr", "--format")[0] == 1

    def test_pinned_failures(self, capsys):
        code, out, err = run(capsys, "dim", "--type", "A" + "9" * 5000, "--weight", "1")
        assert (code, out, err) == (3, "", "error: InvalidRank: rank of 5000 digits out of range\n")
        big = ",".join(["1" + "0" * 40] * 8)  # a dimension of about 4800 digits
        code, out, err = run(capsys, "--format", "json", "dim", "--type", "E8", "--weight", big)
        assert (code, out) == (3, "")
        assert err == f"error: CycloCharError: the dimension has more than {cli.MAX_DIM_DIGITS} digits\n"


@st.composite
def _torus_expr(draw):
    """A bivariate Laurent polynomial of 1-6 terms with exponents in -2..2
    and coefficients +-1..+-3 as text, or a malformed or zero text."""
    if not draw(st.integers(0, 5)):
        return draw(st.sampled_from(["x^", "x*z", "0", "x - x"]))
    terms = draw(st.lists(st.tuples(st.sampled_from([-3, -2, -1, 1, 2, 3]),
                                    st.integers(-2, 2), st.integers(-2, 2)),
                          min_size=1, max_size=6))
    text = "".join(f"{'-' if c < 0 else '+'} {abs(c)}*x^{i}*y^{j} " for c, i, j in terms)
    return text.strip().removeprefix("+ ")


class TestTorusFuzz:
    """cyclopoints on fuzzed small Laurent polynomials: an answer, or a
    one-line failure with exit 2 or 3, each within the deadline."""

    @settings(max_examples=150, deadline=10_000, derandomize=True)
    @given(expr=_torus_expr(), fmt=st.sampled_from(["text", "json"]))
    def test_cyclopoints(self, expr, fmt):
        # --expr=... also carries values that start with '-'
        TestWeightFuzz.check(["--format", fmt, "cyclopoints", f"--expr={expr}"])


class TestUsage:
    def test_no_command(self, capsys):
        assert run(capsys, )[0] == 1

    def test_unknown_command(self, capsys):
        assert run(capsys, "frobnicate")[0] == 1

    def test_help_exits_zero(self, capsys):
        assert run(capsys, "--help")[0] == 0


class TestUnprintableInput:
    @pytest.mark.parametrize("argv", [["cyclopoints"], ["scheck", "finite"]])
    def test_file_that_is_not_utf8_exits_1(self, capsys, tmp_path, argv):
        path = tmp_path / "bad.txt"
        path.write_bytes(b"\xff")
        code, out, err = run(capsys, *argv, "--file", str(path))
        assert code == 1 and not out
        assert err == ("cannot read input: 'utf-8' codec can't decode byte 0xff in "
                       "position 0: invalid start byte\n")

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_coefficient_too_long_to_print_exits_2(self, capsys, fmt):
        a = "9" * 4000
        code, out, err = run(capsys, "--format", fmt, "cyclopoints", "--expr", f"x - {a}*{a}")
        assert code == 2 and not out
        assert err == "parse error: a coefficient has more than 4300 digits (position 0)\n"

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_class_size_total_too_long_to_print_exits_3(self, capsys, tmp_path, fmt):
        path = tmp_path / "sizes.txt"
        path.write_text(f"{'9' * 4300} 1\n{'9' * 4300} 1\n")
        code, out, err = run(capsys, "--format", fmt, "scheck", "finite", "--file", str(path))
        assert code == 3 and not out
        assert err == ("error: InconsistentClassData: the class sizes total more than "
                       "4300 digits\n")


class TestNestingDepth:
    """Parentheses nest to MAX_PAREN_DEPTH; one more is a one-line parse
    error (exit 2), not a RecursionError (exit 4)."""

    @staticmethod
    def nested(depth: int, inner: str) -> str:
        return "(" * depth + inner + ")" * depth

    def test_expr(self, capsys):
        code, out, err = run(capsys, "cyclopoints", "--expr", self.nested(100, "x + y - 2"))
        assert code == 0 and not err and "(1, 1); 1" in out
        assert run(capsys, "cyclopoints", "--expr", self.nested(101, "x + y - 2")) == (
            2, "", "parse error: parentheses nested deeper than 100 (position 100)\n")

    def test_class_data(self, capsys, tmp_path):
        path = tmp_path / "deep.txt"
        path.write_text(f"1 {self.nested(100, '1')}\n")
        code, out, err = run(capsys, "scheck", "finite", "--file", str(path))
        assert code == 0 and not err and "S-character: yes" in out
        path.write_text(f"1 {self.nested(101, '1')}\n")
        assert run(capsys, "scheck", "finite", "--file", str(path)) == (
            2, "", "parse error: parentheses nested deeper than 100 (position 100)\n")


class TestInternalError:
    def test_unexpected_exception_is_one_line_exit_4(self, capsys, monkeypatch):
        def boom(args):
            raise RuntimeError("boom")

        monkeypatch.setitem(cli._DISPATCH, "dim", boom)
        code, out, err = run(capsys, "dim", "--type", "A1", "--weight", "1")
        assert code == cli.INTERNAL_EXIT == 4 and not out
        assert err == "internal error: RuntimeError: boom\n"

    def test_keyboard_interrupt_is_not_caught(self, monkeypatch):
        def interrupted(args):
            raise KeyboardInterrupt

        monkeypatch.setitem(cli._DISPATCH, "dim", interrupted)
        with pytest.raises(KeyboardInterrupt):
            main(["dim", "--type", "A1", "--weight", "1"])


def cold(code, *argv, timeout=120):
    """Run `python -c code argv...` in a fresh interpreter on this checkout."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, "-c", code, *argv], env=env,
                          capture_output=True, text=True, timeout=timeout)


# Prints the exit code, then every loaded module, on the last line.
LOADED = """
import sys
import cyclochar.cli
code = cyclochar.cli.main(sys.argv[1:]) if sys.argv[1:] else 0
print(code, *sorted(sys.modules))
"""

# Imports each named cyclochar submodule, then prints every loaded module.
IMPORT_ALL = """
import importlib, sys
for name in sys.argv[1:]:
    importlib.import_module("cyclochar." + name)
print(*sorted(sys.modules))
"""

BASE = {"cyclochar", "cyclochar.cli", "cyclochar.errors"}

README_COMMANDS = [
    ("principal", "--type", "G2", "--weight", "adjoint"),
    ("g2-table",),
    ("cyclopoints", "--expr", "x + y - 2"),
    ("dim", "--type", "E8", "--weight", "1,0,0,0,0,0,0,0"),
    ("scheck", "positive", "--expr", "t + t^-1"),
    ("scheck", "classify", "--expr", "t^-3 + 2 + t^3"),
    ("scheck", "su2", "--expr", "t^2 + 2 + t^-2"),
    ("scheck", "finite", "--file", str(DATA / "psl27.txt")),
]

# dataclasses (which loads inspect and dis) generates and compiles each
# record class's methods when its module is imported, a cost every fresh
# interpreter pays; the records are NamedTuples instead.
CODEGEN_MODULES = {"dataclasses", "inspect"}


class TestColdStartLoading:
    """A subcommand loads only the modules it uses (counts, not timings)."""

    def loaded_modules(self, *argv):
        proc = cold(LOADED, *argv)
        assert proc.returncode == 0, proc.stderr
        code, *modules = proc.stdout.splitlines()[-1].split()
        assert code == "0"
        return set(modules)

    def loaded(self, *argv):
        return {m for m in self.loaded_modules(*argv) if m.split(".")[0] == "cyclochar"}

    @pytest.mark.parametrize("argv", README_COMMANDS,
                             ids=lambda argv: "-".join(a for a in argv[:2] if a[0] != "-"))
    def test_readme_commands_load_no_dataclasses(self, argv):
        assert self.loaded_modules(*argv) & CODEGEN_MODULES == set()

    def test_importing_every_module_loads_no_dataclasses(self):
        names = sorted(p.stem for p in (SRC / "cyclochar").glob("*.py") if p.stem != "__init__")
        assert len(names) == 10
        proc = cold(IMPORT_ALL, *names)
        assert proc.returncode == 0, proc.stderr
        modules = set(proc.stdout.split())
        assert {f"cyclochar.{name}" for name in names} <= modules
        assert modules & CODEGEN_MODULES == set()

    def test_importing_the_cli_loads_only_errors(self):
        assert self.loaded() == BASE

    def test_dim(self):
        got = self.loaded("dim", "--type", "E8", "--weight", "1,0,0,0,0,0,0,0")
        assert got == BASE | {"cyclochar.rootsys"}

    def test_cyclopoints(self):
        got = self.loaded("cyclopoints", "--expr", "x + y - 2")
        assert got == BASE | {"cyclochar._dense", "cyclochar.laurent",
                              "cyclochar.parsing", "cyclochar.cyclopoints"}

    def test_scheck(self):
        got = self.loaded("scheck", "su2", "--expr", "t^2 + 2 + t^-2")
        assert got == BASE | {"cyclochar._dense", "cyclochar.laurent", "cyclochar.parsing",
                              "cyclochar.realroots", "cyclochar.scharacter"}


class TestDeterminism:
    def test_byte_identical_output(self, capsys):
        _, out1, _ = run(capsys, "g2-table")
        _, out2, _ = run(capsys, "g2-table")
        assert out1 == out2

    def test_json_outputs_sorted_keys(self, capsys):
        _, out, _ = run(capsys, "--format", "json", "dim", "--type", "A1", "--weight", "3")
        assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"

    def test_json_round_trips_on_every_subcommand(self, capsys):
        golden = [
            ("principal", "--type", "G2", "--weight", "adjoint"),
            ("dim", "--type", "C3", "--weight", "1,0,2"),
            ("cyclopoints", "--expr", "x + y - 2"),
            ("g2-table",),
            ("scheck", "positive", "--expr", "t + t^-1"),
            ("scheck", "classify", "--expr", "t^-3 + 2 + t^3"),
            ("scheck", "su2", "--expr", "t^2 + 2 + t^-2"),
            ("scheck", "finite", "--file", str(DATA / "psl27.txt")),
        ]
        for argv in golden:
            code, out, _ = run(capsys, "--format", "json", *argv)
            assert code == 0, argv
            report = json.loads(out)
            assert json.loads(json.dumps(report, indent=2, sort_keys=True)) == report
            assert out == json.dumps(report, indent=2, sort_keys=True) + "\n"
