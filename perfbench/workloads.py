"""The four workloads: seeded inputs, one query function each, and the
oracle check of every answer.

Inputs come in blocks.  Block k of a workload is drawn from
random.Random(f"{workload}:{seed}:{k}") and holds at least 100 queries
(cli_cold: 8), so one seed always gives the same inputs.  `cycle` blocks
in a row hold every kind of input the workload has.  Draws are stratified (every root
system in every block, Latin-square weight coordinates, fixed quotas per
query kind and size band), which keeps the cost of a block nearly the
same from seed to seed while the inputs themselves differ.

The library is reached through module attributes looked up at call time
(`L.principal.zero_orders`), so the timing wrappers of a traced run see
every call.
"""

from __future__ import annotations

import functools
import json
import math
import os
import random
import subprocess
import sys
import types
from fractions import Fraction
from pathlib import Path

import oracle

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
L = types.SimpleNamespace()
MODULES = ("rootsys", "principal", "laurent", "cyclopoints", "realroots",
           "scharacter", "parsing", "errors", "cli")


def load_library() -> None:
    """Import cyclochar from the checkout's src/ and bind its modules on L."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import importlib
    for name in MODULES:
        setattr(L, name, importlib.import_module(f"cyclochar.{name}"))
    origin = Path(L.cli.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise ImportError(f"cyclochar was imported from {origin}, not from {SRC}")


class Verdict:
    """Outcome of one oracle check.  known_defect marks an incomplete answer
    on an input the program itself flags as not fully enumerated."""

    __slots__ = ("ok", "known_defect", "reason")

    def __init__(self, ok: bool, reason: str = "", known_defect: bool = False):
        self.ok, self.reason, self.known_defect = ok, reason, known_defect


OK = Verdict(True)


def fail(reason: str) -> Verdict:
    return Verdict(False, reason)


class Raised:
    """An exception a query raised, kept as the query's answer."""

    def __init__(self, exc: BaseException):
        self.type = type(exc).__name__
        self.message = str(exc)

    def __repr__(self):
        return f"Raised({self.type}: {self.message})"


def _rng(workload: str, seed: int, block: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{block}")


def _term(c: int, body: str, first: bool) -> str:
    sign = "-" if c < 0 else ("" if first else "+")
    mag = abs(c)
    text = body if mag == 1 and body else (f"{mag}*{body}" if body else str(mag))
    return f"{sign} {text}".strip() if not first else f"{sign}{text}"


def uni_text(coeffs: dict[int, int], var: str = "t") -> str:
    parts = []
    for e in sorted(coeffs, reverse=True):
        c = coeffs[e]
        if c:
            body = "" if e == 0 else (var if e == 1 else f"{var}^{e}")
            parts.append(_term(c, body, not parts))
    return " ".join(parts) or "0"


def bi_text(coeffs: dict[tuple[int, int], int]) -> str:
    parts = []
    for (i, j) in sorted(coeffs, key=lambda e: (-e[0] - e[1], -e[0])):
        c = coeffs[(i, j)]
        atoms = [v if k == 1 else f"{v}^{k}" for v, k in (("x", i), ("y", j)) if k]
        parts.append(_term(c, "*".join(atoms), not parts))
    return " ".join(parts) or "0"


# ---------------------------------------------------------------------------
# principal_survey
# ---------------------------------------------------------------------------


class PrincipalSurvey:
    """Random dominant weights, coordinates 0..3, four per simple type of
    rank <= 8.  Each coordinate column of a type's four weights is a random
    permutation of 0, 1, 2, 3, so the weights' total degree is fixed."""

    name = "principal_survey"
    cycle = 1
    per_type = 4

    def setup(self, first_block):
        return {n: L.rootsys.build(L.rootsys.CartanType.parse(n)) for n in oracle.TYPES}

    def block(self, seed: int, k: int) -> list:
        rng = _rng(self.name, seed, k)
        queries = []
        for name in oracle.TYPES:
            rank = int(name[1:])
            cols = [rng.sample(range(self.per_type), self.per_type) for _ in range(rank)]
            for q in range(self.per_type):
                queries.append((name, tuple(col[q] for col in cols)))
        rng.shuffle(queries)
        return queries

    def run(self, state, query):
        name, coords = query
        rs = state[name]
        lam = L.rootsys.DominantWeight(coords)
        pc = L.principal.principal_character(rs, lam)
        out = {"dim": pc.dimension(), "var": pc.order_variable,
               "tensor": L.principal.tensor_identity_check(rs, lam, pc)}
        if lam.is_zero():
            try:
                L.principal.zero_orders(pc)
            except L.errors.ZeroWeight:
                out["zero_weight_refused"] = True
            return out
        out["orders"] = [tuple(f) for f in L.principal.zero_orders(pc)]
        out["m"] = L.principal.explicit_zero_order(rs, lam, pc)
        out["ppz"] = tuple(L.principal.prime_power_zero(
            list(pc.numerator_exponents), list(pc.denominator_exponents)))
        return out

    def check(self, query, ans) -> Verdict:
        name, coords = query
        if isinstance(ans, Raised):
            return fail(f"raised {ans!r}")
        rd = oracle.root_data(name)
        if ans["dim"] != rd.dim(coords):
            return fail(f"dimension {ans['dim']} != {rd.dim(coords)}")
        if ans["tensor"] is not True:
            return fail("tensor identity failed")
        if ans["var"] != ("u" if rd.epsilon_trivial else "t"):
            return fail(f"order variable {ans['var']}")
        if not any(coords):
            return OK if ans.get("zero_weight_refused") else fail("zero weight not refused")
        numer, denom = rd.shifted(coords), rd.rho
        scale = 1 if rd.epsilon_trivial else 2
        mult = oracle.cyclotomic_multiplicities(numer, denom, scale)
        if any(v < 0 for v in mult.values()):
            return fail("exponent count formula gave a negative multiplicity")
        want = sorted((d, v) for d, v in mult.items() if v > 0)
        if ans["orders"] != want:
            return fail(f"zero orders {ans['orders'][:6]}... != {want[:6]}...")
        m = 2 * sum((w + 1) * a for w, a in zip(coords, rd.highest))
        if ans["m"] != m or oracle.cyclotomic_multiplicities(numer, denom, 2).get(m, 0) < 1:
            return fail(f"explicit zero order {ans['m']} != {m}")
        ell, e = oracle.prime_power_zero(numer, denom)
        if ans["ppz"] != (ell, e) or oracle.cyclotomic_multiplicities(numer, denom, 1)[ell ** e] < 1:
            return fail(f"prime-power zero {ans['ppz']} != {(ell, e)}")
        return OK


# ---------------------------------------------------------------------------
# torus_zeros
# ---------------------------------------------------------------------------

G2_ADJOINT = {
    (6, 4): 1, (6, 3): 1, (5, 3): 1, (4, 3): 1, (3, 3): 1, (4, 2): 1, (3, 2): 2,
    (2, 2): 1, (3, 1): 1, (2, 1): 1, (1, 1): 1, (0, 1): 1, (0, 0): 1,
}
FIXED_TORUS = (
    ("g2", G2_ADJOINT),
    ("g2_y3", {(i, 3 * j): c for (i, j), c in G2_ADJOINT.items()}),
    ("g2_x2", {(2 * i, j): c for (i, j), c in G2_ADJOINT.items()}),
)
BRUTE_FORCE_ORDER = 24


class TorusZeros:
    """The G2 adjoint polynomial, its stretches x -> x, y -> y^3 and
    x -> x^2, y -> y, and 197 random polynomials of total degree <= 6 with
    3..6 terms and coefficients +-1, +-2; inputs the solver flags are kept.

    Solve time of a small polynomial varies fivefold at a fixed degree, so
    the random polynomials are drawn once from a fixed stream and the seed
    picks, for each, one of its 8 images under x -> -x, y -> -y and
    h -> -h.  These move the zeros (z -> -z changes element orders) but
    keep the resultant sizes and the flagged variants, so a block costs
    nearly the same under every seed.  (x <-> y is left out: the solver's
    gcd works in y, and swapping changes its cost up to twofold.)

    Even blocks hold G2, G2(x, y^3) and the first 98 random polynomials,
    odd blocks G2(x^2, y) and the other 99: 100 queries of about the same
    cost each, so a run can end after either.
    """

    name = "torus_zeros"
    cycle = 2
    random_inputs = 197
    halves = ((slice(0, 2), slice(0, 98)), (slice(2, 3), slice(98, None)))

    def setup(self, first_block):
        for _, text, _ in first_block:
            L.parsing.parse_bivariate(text)

    def block(self, seed: int, k: int) -> list:
        rng = _rng(self.name, seed, k)
        fixed, base = self.halves[k % 2]
        queries = [(label, bi_text(terms), terms) for label, terms in FIXED_TORUS[fixed]]
        for terms in self.base_set[base]:
            terms = self._image(terms, rng)
            queries.append(("random", bi_text(terms), terms))
        rng.shuffle(queries)
        return queries

    @functools.cached_property
    def base_set(self) -> list[dict]:
        rng = random.Random(f"{self.name}:base")
        out = []
        for q in range(self.random_inputs):
            terms = {}
            while len(terms) < 3 + q % 4:
                i = rng.randint(0, 6)
                terms[(i, rng.randint(0, 6 - i))] = rng.choice((-2, -1, 1, 2))
            out.append(terms)
        return out

    @staticmethod
    def _image(terms: dict, rng) -> dict:
        sx, sy, sh = (rng.random() < 0.5 for _ in range(3))
        return {(i, j): c * (-1) ** (sx * i + sy * j + sh) for (i, j), c in terms.items()}

    def run(self, state, query):
        rep = L.cyclopoints.solve(L.parsing.parse_bivariate(query[1]))
        return {"points": [(p.modulus, p.a, p.b, p.order_x, p.order_y) for p in rep.points],
                "flagged": list(rep.positive_dimensional)}

    def check(self, query, ans) -> Verdict:
        _, text, terms = query
        if isinstance(ans, Raised):
            return fail(f"raised {ans!r}")
        reported = set()
        for n, a, b, ox, oy in ans["points"]:
            if not oracle.vanishes_at(terms, n, a, b):
                return fail(f"{text}: reported orbit ({n}, {a}, {b}) is not a zero")
            if (ox, oy) != (oracle.order_of(a, n), oracle.order_of(b, n)):
                return fail(f"{text}: wrong coordinate orders at ({n}, {a}, {b})")
            if oracle.orbit_rep(n, a, b) != (a, b):
                return fail(f"{text}: ({n}, {a}, {b}) is not the orbit representative")
            reported.add((n, a, b))
        missing = oracle.torsion_zeros(terms, BRUTE_FORCE_ORDER) - reported
        if missing:
            reason = f"{text}: missed zero orbits {sorted(missing)[:4]}"
            return Verdict(False, reason, known_defect=bool(ans["flagged"]))
        return OK


# ---------------------------------------------------------------------------
# circle_positivity
# ---------------------------------------------------------------------------


def _norm_square(h: list[int]) -> dict[int, int]:
    """Coefficients of h(t) h(1/t), which is >= 0 on the unit circle."""
    out: dict[int, int] = {}
    for i, a in enumerate(h):
        for j, b in enumerate(h):
            if a and b:
                out[i - j] = out.get(i - j, 0) + a * b
    return {e: c for e, c in out.items() if c}


def _small_poly(rng, degree: int) -> list[int]:
    h = [rng.choice((-2, -1, 0, 1, 2)) for _ in range(degree + 1)]
    h[0] = h[0] or 1
    h[-1] = h[-1] or 1
    return h


EXTRA_CLASSES = ("none", "negative", "nonreal")


class CirclePositivity:
    """Positivity decisions on text input: |h|^2 (positive), inputs pushed
    below zero (negative), t^-m + 2 +- t^m (classify), g_n^2 for n = 9|10,
    19|20, ..., 49|50 (su2), and cyclotomic class data for every modulus
    5..30 (finite).  Degrees, m, n and moduli follow fixed ladders and the
    seed draws the rest, because they set the cost of a query.  The 31
    class-data and su2 queries of a block take most of its time; the 376
    cheap ones keep them above p90, so both percentiles fall inside a dense
    band of costs, not in the gaps between a few costly queries."""

    name = "circle_positivity"
    cycle = 1
    quota = {"positive": 160, "negative": 120, "classify": 96}

    def setup(self, first_block):
        for kind, text, _ in first_block:
            if kind == "finite":
                L.scharacter.load_class_data(text)
            else:
                L.parsing.parse_univariate(text)

    def block(self, seed: int, k: int) -> list:
        rng = _rng(self.name, seed, k)
        out = []
        for q in range(self.quota["positive"]):
            f = _norm_square(_small_poly(rng, 2 + q % 9))
            out.append(("positive", uni_text(f), f))
        for q in range(self.quota["negative"]):
            if q % 2:
                m = 1 + q // 2 % 12
                am = rng.choice((-1, 1)) * rng.randint(1, 6)
                f = {0: rng.randint(1, 2 * abs(am) - 1), m: am, -m: am}
            else:
                h = _small_poly(rng, 2 + q // 2 % 9)
                f = _norm_square(h)
                f[0] = f.get(0, 0) - sum(h) ** 2 - rng.randint(1, 3)
                f = {e: c for e, c in f.items() if c}
            out.append(("negative", uni_text(f), f))
        for q in range(self.quota["classify"]):
            m, sign = 1 + q % 24, rng.choice("+-")
            s = 1 if sign == "+" else -1
            out.append(("classify", uni_text({-m: s, 0: 2, m: s}), (m, sign)))
        for band in range(1, 6):
            n = 10 * band - rng.randint(0, 1)
            g2 = {2 * k: n - abs(k) for k in range(-(n - 1), n)}
            out.append(("su2", uni_text(g2), n))
        offset = rng.randrange(3)
        for n in range(5, 31):
            text, expected = self._class_data(rng, n, EXTRA_CLASSES[(n + offset) % 3])
            out.append(("finite", text, expected))
        rng.shuffle(out)
        return out

    @staticmethod
    def _class_data(rng, n: int, extra: str):
        """Class data over Z[z]/(Phi_N) whose verdicts are known by
        construction: Galois-closed blocks of |P(z^k)|^2 (real, >= 0, zero
        iff P(z^k) = 0) summing to a rational, a class that brings the mean
        to one, and the `extra` class: none, a negative one (z^k + z^-k - 3)
        or a non-real one (z^k); a block gives each kind to a third of the
        moduli, in a seeded rotation.  The classes are those k with gcd(k, N) = 1 (P = 2 +- t or
        1 +- 2t) or gcd(k, N) = the least prime factor of a composite N
        (P = 1 +- t): the number of classes and the size of the values set
        the cost of the sign decisions, so they do not depend on the seed."""
        least_prime = [g for g in range(2, n) if n % g == 0][:1]
        classes = []  # (size, value text, residue, sign; None when non-real)
        for g in [1] + least_prime:
            p = rng.choice(((2, 1), (1, 2), (2, -1), (1, -2)) if g == 1 else ((1, 1), (1, -1)))
            size = rng.randint(1, 3)
            for k in range(1, n):
                if math.gcd(k, n) != g:
                    continue
                fac = uni_text({k * i: c for i, c in enumerate(p)})
                inv = uni_text({-k * i: c for i, c in enumerate(p)})
                value = oracle.residue(
                    [(k * (i - j), a * b) for i, a in enumerate(p) for j, b in enumerate(p)], n)
                zero = not any(oracle.residue([(k * i, c) for i, c in enumerate(p)], n))
                classes.append((size, f"({fac})*({inv})", value, 0 if zero else 1))

        def weighted_sum():
            width = len(oracle.residue([], n))
            return [sum(c[0] * c[2][i] for c in classes) for i in range(width)]

        trace = weighted_sum()
        if any(trace[1:]):
            raise ArithmeticError("Galois-closed classes must sum to a rational")
        order = sum(c[0] for c in classes)
        if trace[0] > order:
            classes.append((trace[0] - order, "0", oracle.residue([], n), 0))
        elif trace[0] < order:
            classes.append((order - trace[0], "2", oracle.residue([(0, 2)], n), 1))
        k = rng.randint(1, n - 1)
        if extra == "negative":
            value = oracle.residue([(k, 1), (-k, 1), (0, -3)], n)
            classes.append((1, f"t^{k} + t^-{k} - 3", value, -1))
        elif extra == "nonreal" and 2 * k % n:
            classes.append((1, f"t^{k}", oracle.residue([(k, 1)], n), None))
        rng.shuffle(classes)
        text = f"root t {n}\n" + "".join(f"{c[0]} {c[1]}\n" for c in classes)
        one = oracle.residue([(0, 1)], n)
        expected = {
            "zero": tuple(i for i, c in enumerate(classes) if c[3] == 0),
            "negative": tuple(i for i, c in enumerate(classes) if c[3] == -1),
            "nonreal": tuple(i for i, c in enumerate(classes) if c[3] is None),
            "mean_is_one": weighted_sum() == oracle.residue([(0, sum(c[0] for c in classes))], n),
            "trivial": all(c[2] == one for c in classes),
        }
        expected["positive"] = not expected["negative"] and not expected["nonreal"]
        return text, expected

    def run(self, state, query):
        kind, text, _ = query
        if kind == "finite":
            try:
                rep = L.scharacter.finite_s_check(L.scharacter.load_class_data(text))
            except L.errors.InconsistentClassData:
                return "inconsistent"
            return {"zero": rep.zero_classes, "negative": rep.negative_classes,
                    "nonreal": rep.nonreal_classes, "mean_is_one": rep.mean_is_one,
                    "trivial": rep.is_trivial, "positive": rep.is_positive}
        f = L.parsing.parse_univariate(text)
        if kind == "classify":
            return L.scharacter.classify_a0_2(f)
        if kind == "su2":
            return L.scharacter.su2_decompose(f)
        rep = L.scharacter.is_positive_on_circle(f)
        return rep.is_positive, rep.negative_interval

    def check(self, query, ans) -> Verdict:
        kind, text, expected = query
        if isinstance(ans, Raised):
            return fail(f"{kind} {text[:40]}: raised {ans!r}")
        if kind == "positive":
            return OK if ans == (True, None) else fail(f"{text[:40]}: not found positive")
        if kind == "negative":
            positive, witness = ans
            if positive or witness is None:
                return fail(f"{text[:40]}: negative input found positive")
            a, b = witness
            if not -1 <= a < b <= 1:
                return fail(f"{text[:40]}: witness {witness} outside [-1, 1]")
            for c in (a, (a + b) / 2, b):
                if oracle.circle_value(expected, Fraction(c)) >= 0:
                    return fail(f"{text[:40]}: value at cos = {c} is not negative")
            return OK
        if kind == "classify":
            return OK if tuple(ans) == expected else fail(f"{text}: classified as {ans}")
        if kind == "su2":
            return OK if ans == expected else fail(f"g_{expected}^2 decomposed as n = {ans}")
        axioms = (expected["positive"] and expected["mean_is_one"]
                  and not expected["trivial"] and not expected["zero"])
        if axioms:
            return OK if ans == "inconsistent" else fail("inconsistent class data accepted")
        return OK if ans == expected else fail(f"class data verdict {ans} != {expected}")


# ---------------------------------------------------------------------------
# cli_cold
# ---------------------------------------------------------------------------

ENTRY_POINT = "import sys; from cyclochar.cli import main; sys.exit(main())"
TRACE_MARK = "perfbench-trace "

# The README's example commands, with facts each output must state.
README_COMMANDS = (
    (("principal", "--type", "G2", "--weight", "adjoint"),
     ("in u = t^2: ", "Phi_7 Phi_8", "dimension: 14", "element orders with a zero: 7, 8")),
    (("g2-table",), ("element orders with a zero: 7, 8, 15, 42",)),
    (("cyclopoints", "--expr", "x + y - 2"), ("element orders with a zero: 1\n",)),
    (("dim", "--type", "E8", "--weight", "1,0,0,0,0,0,0,0"), ("3875\n",)),
    (("scheck", "positive", "--expr", "t + t^-1"),
     ("positive on the unit circle: no", "negative for cos(theta) in")),
    (("scheck", "classify", "--expr", "t^-3 + 2 + t^3"), ("(m = 3, sign +)",)),
    (("scheck", "su2", "--expr", "t^2 + 2 + t^-2"), ("f = g_2^2",)),
    (("scheck", "finite", "--file", "tests/data/psl27.txt"),
     ("group order 168, 6 classes", "S-character: yes", "zero classes (0-based): 2\n")),
)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("PYTHONSTARTUP", None)
    return env


class CliCold:
    """Each README example command in a fresh interpreter, one at a time,
    in a seeded order."""

    name = "cli_cold"
    cycle = 1
    traced = False  # set by the runner for a traced pass

    def setup(self, first_block):
        L.cli.build_parser()
        return child_env()

    def block(self, seed: int, k: int) -> list:
        cmds = list(README_COMMANDS)
        _rng(self.name, seed, k).shuffle(cmds)
        return cmds

    def run(self, state, query):
        argv, _ = query
        if self.traced:
            cmd = [sys.executable, str(ROOT / "perfbench" / "cli_child.py"), *argv]
        else:
            cmd = [sys.executable, "-c", ENTRY_POINT, *argv]
        proc = subprocess.run(cmd, cwd=ROOT, env=state, capture_output=True,
                              text=True, timeout=120)
        spans = None
        for line in proc.stderr.splitlines():
            if line.startswith(TRACE_MARK):
                spans = json.loads(line[len(TRACE_MARK):])
        return {"code": proc.returncode, "stdout": proc.stdout, "trace": spans}

    def check(self, query, ans) -> Verdict:
        argv, facts = query
        if isinstance(ans, Raised):
            return fail(f"{' '.join(argv)}: raised {ans!r}")
        if ans["code"] != 0:
            return fail(f"{' '.join(argv)}: exit code {ans['code']}")
        missing = [f for f in facts if f not in ans["stdout"]]
        return fail(f"{' '.join(argv)}: output lacks {missing}") if missing else OK


WORKLOADS = {w.name: w for w in (PrincipalSurvey(), TorusZeros(), CirclePositivity(), CliCold())}
