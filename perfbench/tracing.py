"""Spans and counters recorded from outside the program.

A Tracer replaces public functions of the `cyclochar` modules with timing
wrappers while it is installed.  A function is patched under every module
name that binds it (`cyclo_factor` lives in `laurent` and is imported into
`principal` and `cyclopoints`), so calls made through any of those names
are seen.  Spans stay in memory as (name, start, end, parent, query) and
self time is a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict


def _degree(p) -> int:
    exps = p.coeffs
    return max(exps) - min(exps) if exps else 0


def _max_coeff_bits(p) -> int:
    return max((abs(c).bit_length() for c in p.coeffs.values()), default=0)


def _count_cyclo_factor(acc, args, result):
    acc["in_degree"] += _degree(args[0])
    acc["factors"] += len(result.factors)
    acc["remainder_degree"] += _degree(result.remainder)


def _count_resultant(acc, args, result):
    acc["out_degree_max"] = max(acc["out_degree_max"], _degree(result))
    acc["coeff_bits_max"] = max(acc["coeff_bits_max"], _max_coeff_bits(result))


def _count_eval(acc, args, result):
    acc["hits"] += not any(result.residue)


def _count_nonneg(acc, args, result):
    coeffs = list(args[0])
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    acc["in_degree"] += max(len(coeffs) - 1, 0)


# (module, function, counter hook or None).  Every function in this list
# gets a span; the hook adds work counts from the arguments and result.
TARGETS = (
    ("rootsys", "build", None),
    ("rootsys", "weyl_dim", None),
    ("principal", "binomial_quotient",
     lambda acc, args, r: acc.__setitem__("out_terms", acc["out_terms"] + len(r.coeffs))),
    ("principal", "zero_orders", None),
    ("principal", "tensor_identity_check", None),
    ("principal", "prime_power_zero", None),
    ("laurent", "cyclo_factor", _count_cyclo_factor),
    ("laurent", "resultant", _count_resultant),
    ("laurent", "eval_at_roots", _count_eval),
    ("laurent", "divides_cyclotomic", None),
    ("cyclopoints", "solve",
     lambda acc, args, r: acc.__setitem__(
         "flagged_variants", acc["flagged_variants"] + len(r.positive_dimensional))),
    ("cyclopoints", "bivariate_gcd", None),
    ("realroots", "isolate_roots", None),
    ("realroots", "nonneg_on_interval", _count_nonneg),
    ("realroots", "sign_at_unique_root", None),
    ("scharacter", "is_positive_on_circle", None),
    ("scharacter", "su2_decompose", None),
    ("scharacter", "cyclo_sign", None),
    ("scharacter", "finite_s_check", None),
    ("parsing", "parse", None),
    ("cli", "main", None),
)

PACKAGE = "cyclochar"


class Tracer:
    """Collects spans and counters; install() patches, uninstall() restores."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, query]
        self.counters: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self.query = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, hook):
        spans, stack, counters = self.spans, self._stack, self.counters
        clock = time.perf_counter
        acc = counters[name]

        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self.query]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            acc["calls"] += 1
            if hook is not None:
                hook(acc, args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.perfbench_span = name
        return wrapper

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        for mod_name, fn_name, hook in TARGETS:
            home = sys.modules.get(f"{PACKAGE}.{mod_name}")
            if home is None:
                continue
            original = getattr(home, fn_name)
            wrapper = self._wrap(f"{mod_name}.{fn_name}", original, hook)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patches.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def self_times(self) -> dict[str, float]:
        """Total self time per span name, in seconds."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for (name, start, end, _, _), c in zip(self.spans, child):
            out[name] += end - start - c
        return dict(out)

    def export(self) -> dict:
        return {"spans": self.spans,
                "counters": {k: dict(v) for k, v in self.counters.items()}}

    def merge(self, exported: dict, query: int) -> None:
        """Add spans and counters recorded by another process (a CLI child)."""
        base = len(self.spans)
        for name, start, end, parent, _ in exported["spans"]:
            self.spans.append([name, start, end, parent + base if parent >= 0 else -1, query])
        for name, acc in exported["counters"].items():
            for key, value in acc.items():
                if key.endswith("_max"):
                    self.counters[name][key] = max(self.counters[name][key], value)
                else:
                    self.counters[name][key] += value


def leftover_wrappers() -> list[str]:
    """Names in `cyclochar` modules that are still bound to a wrapper."""
    out = []
    for n, m in list(sys.modules.items()):
        if m is None or not (n == PACKAGE or n.startswith(PACKAGE + ".")):
            continue
        for attr, value in vars(m).items():
            if getattr(value, "perfbench_span", None):
                out.append(f"{n}.{attr}")
    return out
