"""Command-line surface: principal characters, Weyl dimensions, torsion-zero
tables for bivariate polynomials, and S-character checks, with text or JSON
output.

Exit codes: 0 success, 1 usage, 2 parse error, 3 domain error, 4 internal
error.

Each command imports the library modules it uses when it runs, so a cold
start loads only what the chosen subcommand needs.
"""

from __future__ import annotations

import argparse
import sys

from .errors import CycloCharError, ExponentTooLarge, InvalidRank, ParseError

USAGE_EXIT, PARSE_EXIT, DOMAIN_EXIT, INTERNAL_EXIT = 1, 2, 3, 4

# Largest |exponent| accepted by scheck positive/classify/su2.  The exact
# positivity decision slows steeply with the degree: random positive
# symmetric inputs took 1.6-1.8 s at degree 64, 20-22 s at 96 and 132 s at
# 128 (2 vCPUs, Python 3.11), and one of degree 256 ran past 600 s.
MAX_SCHECK_EXPONENT = 256

# Largest rank accepted by principal and dim: building the root system slows
# with the rank (`dim --weight adjoint` takes 0.15 to 0.3 s at 64 on a 2-vCPU
# host, Python 3.11; one build takes 1.4 s at D150).
MAX_RANK = 64

# Largest t-degree span 2 * sum(n'_i - n_i) of a principal character: its
# dense polynomial is built and printed (about 1 s for a span of 74,400).
MAX_PRINCIPAL_SPAN = 100_000

# Largest span times the number of exponents left after the numerator and
# denominator lists cancel: each such exponent is one linear pass over a
# dense polynomial about the span long.  Whole commands on a 2-vCPU host
# (Python 3.11) took 1.0 s for E8 with every coordinate 30 (74,400 * 240 =
# 17.9M), 3.1 s for A64 at 39.7M and 8.0 s for D64 at 94.1M; near the limit,
# 1.5 s for E8 (99,200 * 240) and 2.3-2.8 s at rank 64, root system included.
# No type of rank <= 8 reaches it within MAX_PRINCIPAL_SPAN: it has at most
# 240 exponents.
MAX_PRINCIPAL_WORK = 25_000_000

# Most digits of a dimension that `dim` prints: Python refuses to convert a
# longer int to text, and the Weyl product reaches it from coordinates of
# about 40 digits at E8.
MAX_DIM_DIGITS = 4300


def _build(text: str):
    from .rootsys import CartanType, build

    ctype = CartanType.parse(text)
    if ctype.rank > MAX_RANK:
        raise InvalidRank(f"rank {ctype.rank} exceeds the limit rank <= {MAX_RANK}")
    return build(ctype)


def _parse_weight(rs, text: str):
    from .rootsys import DominantWeight, adjoint_weight

    if text.strip().lower() == "adjoint":
        return adjoint_weight(rs)
    try:
        coords = tuple(int(p) for p in text.replace(",", " ").split())
    except ValueError as exc:
        raise CycloCharError(f"cannot parse weight {text!r}") from exc
    if len(coords) != rs.rank:
        raise CycloCharError(
            f"weight has {len(coords)} coordinates, {rs.type} has rank {rs.rank}"
        )
    for i, c in enumerate(coords, 1):
        if c < 0:
            raise CycloCharError(
                f"weight coordinate {i} is {c}; a dominant weight needs coordinates >= 0"
            )
    return DominantWeight(coords)


def _phi_list(indices) -> str:
    return " ".join(f"Phi_{d}" for d in indices) if indices else "-"


def cmd_principal(args) -> tuple[int, dict, list[str]]:
    from .principal import (
        _cancel_common,
        explicit_zero_order,
        prime_power_zero,
        principal_character,
        t_orders,
        zero_orders,
    )
    from .rootsys import weight_pairings

    rs = _build(args.type)
    weight = _parse_weight(rs, args.weight)
    pairings = weight_pairings(rs, weight)
    span = 2 * (sum(pairings) - sum(rs.rho_pairings))
    if span > MAX_PRINCIPAL_SPAN:
        raise ExponentTooLarge(
            f"degree span {span} exceeds the principal limit span <= {MAX_PRINCIPAL_SPAN}")
    left = sum(map(len, _cancel_common(pairings, rs.rho_pairings)))
    if span * left > MAX_PRINCIPAL_WORK:
        raise ExponentTooLarge(
            f"degree span {span} times {left} uncancelled exponents exceeds the principal"
            f" limit span * exponents <= {MAX_PRINCIPAL_WORK}")
    pc = principal_character(rs, weight)
    report = {
        "type": str(rs.type),
        "weight": list(weight.coords),
        "dimension": pc.dimension(),
        "epsilon_trivial": pc.epsilon_trivial,
        "poly_t": str(pc.poly_t),
        "poly_u": pc.poly_u.to_str("u") if pc.poly_u is not None else None,
    }
    lines = [
        f"principal character: type {rs.type}, weight ({weight})",
        f"dimension: {pc.dimension()}",
        f"epsilon trivial: {'yes' if pc.epsilon_trivial else 'no'}"
        + (" (character depends on u = t^2 only)" if pc.epsilon_trivial else
           " (the principal map is injective; t-orders are element orders)"),
        f"chi(f(t)) = {pc.poly_t}",
    ]
    if pc.poly_u is not None:
        lines.append(f"in u = t^2: {pc.poly_u.to_str('u')}")
    if args.verbose:
        report["numerator_exponents"] = list(pc.numerator_exponents)
        report["denominator_exponents"] = list(pc.denominator_exponents)
        lines.append(f"exponents <lambda+rho, a^vee>: {list(pc.numerator_exponents)}")
        lines.append(f"exponents <rho, a^vee>: {list(pc.denominator_exponents)}")
    if weight.is_zero():
        report["error"] = "NoZeros: the trivial character (degree 1) has no zeros"
        lines.append("no zeros: the trivial character has degree 1")
        return DOMAIN_EXIT, report, lines
    orders = zero_orders(pc)
    var = pc.order_variable
    report["factorization"] = {
        "variable": var,
        "factors": [[d, m] for d, m in orders],
    }
    report["element_orders"] = [d for d, _ in orders]
    report["t_orders"] = t_orders(pc, orders)
    factor_str = " ".join(
        f"Phi_{d}" + (f"^{m}" if m > 1 else "") for d, m in orders
    )
    lines.append(f"cyclotomic factorization in {var}: {factor_str}")
    lines.append(
        "element orders with a zero: " + ", ".join(str(d) for d, _ in orders)
    )
    lines.append("t-orders of the zeros: " + ", ".join(str(d) for d in t_orders(pc, orders)))
    m = explicit_zero_order(rs, weight, pc)
    report["explicit_zero_order"] = m
    lines.append(f"guaranteed zero at t of order <2 lambda + 2 rho, beta^vee> = {m}")
    ell, mm = prime_power_zero(list(pc.numerator_exponents), list(pc.denominator_exponents))
    q = ell ** mm
    report["prime_power_zero"] = {"prime": ell, "exponent": mm, "order": q}
    if pc.epsilon_trivial:
        lines.append(f"prime-power zero: element of order {ell}^{mm} = {q}")
    else:
        lines.append(
            f"prime-power zero: u = t^2 of order {ell}^{mm} = {q} "
            f"(element order {q} or {2 * q})"
        )
    return 0, report, lines


def cmd_dim(args) -> tuple[int, dict, list[str]]:
    from .rootsys import weyl_dim

    rs = _build(args.type)
    weight = _parse_weight(rs, args.weight)
    d = weyl_dim(rs, weight)
    if d >= 10 ** MAX_DIM_DIGITS:
        raise CycloCharError(f"the dimension has more than {MAX_DIM_DIGITS} digits")
    return 0, {"type": str(rs.type), "weight": list(weight.coords), "dimension": d}, [str(d)]


def _load_bivariate(args):
    from .cyclopoints import g2_adjoint_poly
    from .parsing import parse_bivariate

    sources = [s for s in (args.expr, args.file, args.builtin) if s]
    if len(sources) != 1:
        raise CycloCharError("give exactly one of --expr, --file, --builtin")
    if args.builtin:
        if args.builtin != "g2-adjoint":
            raise CycloCharError(f"unknown builtin {args.builtin!r} (try g2-adjoint)")
        return g2_adjoint_poly()
    text = args.expr
    if args.file:
        with open(args.file, "r", encoding="utf-8") as fh:
            text = fh.read()
    return parse_bivariate(text)


def _point_dicts(rep) -> list[dict]:
    return [
        {**p._asdict(), "element_order": p.element_order, "orbit_size": size,
         "variants": list(vs)}
        for p, size, vs in zip(rep.points, rep.orbit_sizes, rep.variant_attribution)
    ]


def _lattice_report(lat) -> tuple[dict, str]:
    """The reduction H = x^i y^j * G(u, v) as JSON and as one header line."""
    from .laurent import BiLaurentPoly

    mono = BiLaurentPoly.term(1, *lat.monomial)
    prefix = "" if lat.monomial == (0, 0) else f"{mono} * "
    subs = [str(BiLaurentPoly.term(1, *row)) for row in lat.basis]
    if lat.index is not None:
        reduced = lat.reduced.to_str(x="u", y="v")
        line = (f"H = {prefix}G({subs[0]}, {subs[1]}) with G(u, v) = {reduced}"
                f" (exponent lattice of index {lat.index})")
    elif lat.basis:
        reduced = lat.reduced.restrict(1, 0).to_str("t")
        line = (f"H = {prefix}p({subs[0]}) with p(t) = {reduced},"
                " which has no cyclotomic factor")
    else:
        reduced = str(lat.reduced)
        line = "H is a monomial"
    info = {"basis": [list(row) for row in lat.basis], "index": lat.index,
            "monomial": list(lat.monomial), "reduced": reduced}
    return info, line


def _solve_report(rep) -> tuple[dict, list[str]]:
    report = {
        "variants": [
            {
                "i": i,
                "positive_dimensional": xs is None,
                "x_factors": list(xs) if xs is not None else None,
                "y_factors": list(ys) if ys is not None else None,
            }
            for i, xs, ys in rep.variant_columns
        ],
        "points": _point_dicts(rep),
        "positive_dimensional": list(rep.positive_dimensional),
        "element_orders": list(rep.element_orders()),
    }
    lines = []
    if rep.lattice is not None:
        report["lattice"], line = _lattice_report(rep.lattice)
        lines.append(line)
    table = rep.reduced_report or rep
    if table.variant_columns:
        header = f"{'i':>2}  {'R_i^cycl':<18} {'S_i^cycl':<18} couples (orbit reps); orders"
        lines += [header, "-" * len(header)]
    by_variant = {}
    for p, vs in zip(table.points, table.variant_attribution):
        for i in vs:
            by_variant.setdefault(i, []).append(p)
    for i, xs, ys in table.variant_columns:
        if xs is None:
            lines.append(f"{i:>2}  shares a curve component: positive-dimensional, not enumerated")
            continue
        pts = by_variant.get(i, [])
        couples = " ".join(p.label() for p in pts) or "-"
        orders = " ".join(str(p.element_order) for p in pts)
        lines.append(
            f"{i:>2}  {_phi_list(xs):<18} {_phi_list(ys):<18} {couples}"
            + (f"; {orders}" if orders else "")
        )
    lines.append("")
    if rep.reduced_report is not None:
        report["lattice"]["reduced_points"] = _point_dicts(rep.reduced_report)
        if rep.points:
            lines.append("zeros of H above those of G (orbit reps): "
                         + " ".join(p.label() for p in rep.points))
    if rep.points:
        lines.append(
            "element orders with a zero: "
            + ", ".join(str(d) for d in rep.element_orders())
        )
        lines.append(f"verified torsion-zero orbits: {len(rep.points)}")
    else:
        lines.append("no root-of-unity zeros found"
                     + (" outside the shared components" if rep.positive_dimensional else ""))
    if rep.positive_dimensional:
        lines.append(
            "warning: variants sharing a curve component: "
            + ", ".join(str(i) for i in rep.positive_dimensional)
        )
    return report, lines


def cmd_cyclopoints(args) -> tuple[int, dict, list[str]]:
    from .cyclopoints import solve

    h = _load_bivariate(args)
    report, lines = _solve_report(solve(h))
    return 0, report, lines


def cmd_scheck(args) -> tuple[int, dict, list[str]]:
    from .parsing import parse_univariate
    from .scharacter import (
        classify_a0_2,
        finite_s_check,
        is_positive_on_circle,
        load_class_data,
        su2_decompose,
        su2_mean,
    )

    if args.subcheck == "finite":
        if not args.file:
            raise CycloCharError("scheck finite needs --file")
        with open(args.file, "r", encoding="utf-8") as fh:
            cf = load_class_data(fh.read())
        rep = finite_s_check(cf)
        report = {**rep._asdict(), "group_order": cf.group_order,
                  "classes": len(cf.class_sizes), "is_s_character": rep.is_s_character}
        lines = [
            f"group order {cf.group_order}, {len(cf.class_sizes)} classes",
            f"positive: {'yes' if rep.is_positive else 'no'}",
            f"mean is one: {'yes' if rep.mean_is_one else 'no'}",
            f"S-character: {'yes' if rep.is_s_character else 'no'}",
            "zero classes (0-based): "
            + (", ".join(str(i) for i in rep.zero_classes) or "none"),
        ]
        return 0, report, lines
    if not args.expr:
        raise CycloCharError(f"scheck {args.subcheck} needs --expr")
    f = parse_univariate(args.expr)
    top = max(map(abs, f.support()), default=0)
    if top > MAX_SCHECK_EXPONENT:
        raise ExponentTooLarge(
            f"exponent {top} exceeds the scheck limit |exponent| <= {MAX_SCHECK_EXPONENT}")
    if args.subcheck == "positive":
        rep = is_positive_on_circle(f)
        report = {"positive": rep.is_positive}
        lines = [f"positive on the unit circle: {'yes' if rep.is_positive else 'no'}"]
        if rep.negative_interval:
            a, b = rep.negative_interval
            report["negative_for_cos_theta_in"] = [str(a), str(b)]
            lines.append(f"negative for cos(theta) in [{a}, {b}]")
        return 0, report, lines
    if args.subcheck == "classify":
        m, sign = classify_a0_2(f)
        report = {"m": m, "sign": sign}
        top = "t" if m == 1 else f"t^{m}"
        shape = f"t^-{m} + 2 + {top}" if sign == "+" else f"-t^-{m} + 2 - {top}"
        return 0, report, [f"f = {shape}  (m = {m}, sign {sign})"]
    if args.subcheck == "su2":
        n = su2_decompose(f)
        report = {"n": n, "mean": su2_mean(f)}
        return 0, report, [f"f = g_{n}^2, the square of the {n}-dimensional irreducible character"]
    raise CycloCharError(f"unknown scheck mode {args.subcheck!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cyclochar",
        description="Exact cyclotomic analysis of characters on principal "
                    "one-parameter subgroups, and root-of-unity zero solving.",
    )
    parser.add_argument("--format", choices=("text", "json"), default="text")
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("principal", help="character on the principal one-parameter subgroup")
    p.add_argument("--type", required=True, help="Cartan type, e.g. G2, A5, E7")
    p.add_argument("--weight", required=True,
                   help="comma-separated fundamental-weight coordinates, or 'adjoint'")

    p = sub.add_parser("dim", help="Weyl dimension of an irreducible representation")
    p.add_argument("--type", required=True)
    p.add_argument("--weight", required=True)

    p = sub.add_parser("cyclopoints", help="root-of-unity zeros of a bivariate polynomial")
    p.add_argument("--expr", help="polynomial in x, y")
    p.add_argument("--file", help="file containing the polynomial")
    p.add_argument("--builtin", help="named builtin polynomial (g2-adjoint)")

    p = sub.add_parser("g2-table", help="alias for cyclopoints --builtin g2-adjoint")
    p.set_defaults(expr=None, file=None, builtin="g2-adjoint")

    p = sub.add_parser("scheck", help="positivity and S-character checks")
    p.add_argument("subcheck", choices=("positive", "classify", "su2", "finite"))
    p.add_argument("--expr", help="symmetric Laurent polynomial in t")
    p.add_argument("--file", help="class-data file for 'finite'")
    return parser


# Options whose value may start with '-': a leading sign in an expression or
# weight would otherwise read as an option to argparse.
_VALUE_OPTIONS = ("--expr", "--file", "--weight")


def _join_signed_values(argv: list[str]) -> list[str]:
    """Write `--expr -t` as `--expr=-t`; a value starting with '--' is left
    alone, since it can only be another option."""
    out = []
    for arg in argv:
        if out and out[-1] in _VALUE_OPTIONS and arg.startswith("-") and not arg.startswith("--"):
            out[-1] = f"{out[-1]}={arg}"
        else:
            out.append(arg)
    return out


_DISPATCH = {
    "principal": cmd_principal,
    "dim": cmd_dim,
    "cyclopoints": cmd_cyclopoints,
    "g2-table": cmd_cyclopoints,
    "scheck": cmd_scheck,
}


def main(argv=None) -> int:
    parser = build_parser()
    argv = _join_signed_values(sys.argv[1:] if argv is None else list(argv))
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else USAGE_EXIT
    try:
        code, report, lines = _DISPATCH[args.command](args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return PARSE_EXIT
    except (OSError, UnicodeDecodeError) as exc:
        print(f"cannot read input: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except CycloCharError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return DOMAIN_EXIT
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return INTERNAL_EXIT
    if args.format == "json":
        import json

        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print("\n".join(lines))
    if code == DOMAIN_EXIT and "error" in report:
        print(f"error: {report['error']}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
