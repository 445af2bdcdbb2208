#!/usr/bin/env python3
"""Benchmark for the cyclochar library and CLI.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: principal_survey, torus_zeros, circle_positivity, cli_cold (see
workloads.py).  Every run is a closed loop: one client in this
single-threaded process sends the next query when the previous answer is
back; cli_cold starts one child interpreter per query, one at a time.

--trace 0 sends whole blocks of queries untraced for about --seconds and
reports the end-to-end metrics.
--trace 1 runs a fixed query set once to warm caches, once untraced and
once with timing wrappers around the public functions of each module, and
reports the per-layer metrics; the spans go to .perfbench/ in the checkout.
Every answer is checked by an oracle that shares no code with cyclochar.
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads as W  # noqa: E402

MIN_QUERIES = 100
SETUP_REPEATS = 9

END_TO_END = (
    ("setup_s", "s"),
    ("throughput_qps", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    ("rootsys.build.calls", "count"),
    ("rootsys.build.self_s", "s"),
    ("rootsys.weyl_dim.self_s", "s"),
    ("principal.binomial_quotient.self_s", "s"),
    ("principal.binomial_quotient.out_terms", "count"),
    ("principal.zero_orders.self_s", "s"),
    ("principal.tensor_identity_check.self_s", "s"),
    ("principal.prime_power_zero.self_s", "s"),
    ("laurent.cyclo_factor.calls", "count"),
    ("laurent.cyclo_factor.self_s", "s"),
    ("laurent.cyclo_factor.in_degree", "count"),
    ("laurent.cyclo_factor.factors", "count"),
    ("laurent.cyclo_factor.remainder_degree", "count"),
    ("laurent.resultant.calls", "count"),
    ("laurent.resultant.self_s", "s"),
    ("laurent.resultant.out_degree_max", "count"),
    ("laurent.resultant.coeff_bits_max", "bits"),
    ("laurent.eval_at_roots.calls", "count"),
    ("laurent.eval_at_roots.self_s", "s"),
    ("laurent.divides_cyclotomic.calls", "count"),
    ("laurent.divides_cyclotomic.self_s", "s"),
    ("cyclopoints.solve.self_s", "s"),
    ("cyclopoints.bivariate_gcd.calls", "count"),
    ("cyclopoints.bivariate_gcd.self_s", "s"),
    ("cyclopoints.orbit_hit_ratio", "ratio"),
    ("cyclopoints.flagged_variants", "count"),
    ("realroots.isolate_roots.calls", "count"),
    ("realroots.isolate_roots.self_s", "s"),
    ("realroots.nonneg_on_interval.self_s", "s"),
    ("realroots.nonneg_on_interval.in_degree", "count"),
    ("realroots.sign_at_unique_root.calls", "count"),
    ("realroots.sign_at_unique_root.self_s", "s"),
    ("scharacter.is_positive_on_circle.self_s", "s"),
    ("scharacter.su2_decompose.self_s", "s"),
    ("scharacter.cyclo_sign.calls", "count"),
    ("scharacter.cyclo_sign.self_s", "s"),
    ("scharacter.finite_s_check.self_s", "s"),
    ("parsing.parse.calls", "count"),
    ("parsing.parse.self_s", "s"),
    ("cli.import_s", "s"),
    ("cli.main.self_s", "s"),
    ("trace.overhead_ratio", "ratio"),
)

MAPPING = """\
layer metric -> end-to-end metric it should move, on which workload
  laurent.resultant.self_s, cyclopoints.bivariate_gcd.{calls,self_s}
      -> throughput_qps, latency_p90_ms on torus_zeros (21 gcd calls for 7
         variants at the seed); never called on principal_survey or
         circle_positivity, so no change there
  laurent.eval_at_roots.calls, cyclopoints.orbit_hit_ratio
      -> latency_p50_ms on torus_zeros (orbit enumeration rules small queries)
  laurent.cyclo_factor.self_s
      -> throughput_qps on principal_survey (high-degree, fully cyclotomic
         inputs) and on torus_zeros (large-coefficient resultants with a big
         non-cyclotomic remainder); a change that helps one shape can cost
         the other
  principal.{binomial_quotient,zero_orders,tensor_identity_check}.self_s
      -> throughput_qps, latency_p90_ms on principal_survey (rank-8 tail:
         E8, B8, C8); computing zero orders from exponent lists should
         mainly lower the time under principal.zero_orders, whose factoring
         is the child span laurent.cyclo_factor
  realroots.{isolate_roots,nonneg_on_interval}.self_s
      -> latency_p50_ms, latency_p90_ms on circle_positivity (positivity
         and classify queries, 92% of a block) and its throughput_qps
  scharacter.{cyclo_sign,finite_s_check,su2_decompose}.self_s
      -> throughput_qps on circle_positivity (class data and g_n^2: 8% of
         the queries, above p90, but 70% of the time)
  rootsys.build.self_s, cli.import_s, parsing.parse.self_s
      -> setup_s on every workload and latency_p50_ms on cli_cold; a cache
         or precomputed table that speeds up a warm workload pays here"""


def setup_probes(name: str, seed: int) -> tuple[float, float]:
    """Median (setup_s, import_s) over fresh interpreters, run one at a time."""
    setups, imports = [], []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(HERE / "probe.py"), name, str(seed)],
            cwd=W.ROOT, env=W.child_env(), capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        rec = json.loads(proc.stdout.strip().splitlines()[-1])
        setups.append(rec["setup_s"])
        imports.append(rec["import_s"])
    return statistics.median(setups), statistics.median(imports)


def ask(wl, state, query):
    """One query; returns (answer, seconds).  An unexpected exception is
    kept as the answer and fails the oracle check."""
    t0 = time.perf_counter()
    try:
        ans = wl.run(state, query)
    except Exception as exc:
        ans = W.Raised(exc)
    return ans, time.perf_counter() - t0


def run_pass(wl, state, queries):
    """Send the queries back to back; returns (latencies, answers, wall)."""
    latencies, answers = [], []
    start = time.perf_counter()
    for q in queries:
        ans, seconds = ask(wl, state, q)
        latencies.append(seconds)
        answers.append(ans)
    return latencies, answers, time.perf_counter() - start


def query_set(wl, seed: int, blocks: int) -> list:
    out, k = [], 0
    while k < blocks or len(out) < MIN_QUERIES:
        out.extend(wl.block(seed, k))
        k += 1
    return out


def timed_blocks(wl, state, seed: int, seconds: int, first_block):
    """Send whole blocks back to back until the run is nearest --seconds: a
    further block starts only if half a mean block still fits.  Whole blocks
    keep the query mix of every run the same; inputs are made between
    blocks, outside the timed passes.  Returns (queries, latencies,
    answers, wall), wall being the time spent in the passes."""
    queries, latencies, answers = [], [], []
    start, wall, k, block = time.perf_counter(), 0.0, 0, first_block
    while True:
        lat, ans, seconds_in_pass = run_pass(wl, state, block)
        queries.extend(block)
        latencies.extend(lat)
        answers.extend(ans)
        wall += seconds_in_pass
        k += 1
        elapsed = time.perf_counter() - start
        if len(queries) >= MIN_QUERIES and elapsed + elapsed / k / 2 > seconds:
            return queries, latencies, answers, wall
        block = wl.block(seed, k)


def judge(wl, queries, answers) -> dict:
    verdicts = [wl.check(q, a) for q, a in zip(queries, answers)]
    bad = [v for v in verdicts if not v.ok]
    return {
        "attempted": len(verdicts),
        "failed": len(bad),
        "known_defect": sum(v.known_defect for v in bad),
        "correct": all(v.known_defect for v in bad),
        "reasons": [v.reason for v in bad],
    }


def percentile(values, q: int) -> float:
    """Harrell-Davis estimate of the q-th percentile: the mean of the order
    statistics weighted by the Beta((n+1)p, (n+1)(1-p)) density over
    ((i-1)/n, i/n], by Simpson's rule.  Unlike a single order statistic it
    does not jump across the gaps between query kinds of different cost."""
    xs = sorted(values)
    n, p = len(xs), q / 100
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)

    def density(x):
        if not 0 < x < 1:
            return 0.0
        return math.exp(log_norm + (a - 1) * math.log(x) + (b - 1) * math.log1p(-x))

    steps = 8
    h = 1 / (n * steps)
    weights = []
    for i in range(n):
        ys = [density(i / n + k * h) for k in range(steps + 1)]
        weights.append(h / 3 * (ys[0] + ys[-1] + 4 * sum(ys[1:-1:2]) + 2 * sum(ys[2:-1:2])))
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def peak_rss_mb(name: str) -> float:
    who = resource.RUSAGE_CHILDREN if name == "cli_cold" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


def untraced(wl, seed: int, seconds: int, first_block):
    state = wl.setup(first_block)
    queries, lat, answers, wall = timed_blocks(wl, state, seed, seconds, first_block)
    verdict = judge(wl, queries, answers)
    metrics = {
        "throughput_qps": len(queries) / wall,
        "latency_p50_ms": 1000 * percentile(lat, 50),
        "latency_p90_ms": 1000 * percentile(lat, 90),
        "peak_rss_mb": peak_rss_mb(wl.name),
    }
    return verdict, metrics, len(queries), wall


def traced(wl, seed: int, first_block, out_path: Path):
    """Set-up under the tracer, a warm pass, then each query once untraced
    and once traced, back to back in alternating order, so that drift in
    machine speed cancels out of the overhead ratio."""
    tracer = tracing.Tracer()
    with tracer:
        state = wl.setup(first_block)
    queries = query_set(wl, seed, wl.cycle)
    if wl.name != "cli_cold":  # CLI children start cold anyway
        run_pass(wl, state, queries)
    plain = with_trace = 0.0
    answers = []
    for i, q in enumerate(queries):
        for use_trace in ((False, True) if i % 2 == 0 else (True, False)):
            if not use_trace:
                plain += ask(wl, state, q)[1]
                continue
            tracer.query, wl.traced = i, True
            try:
                with tracer:
                    ans, seconds = ask(wl, state, q)
            finally:
                wl.traced = False
            with_trace += seconds
            answers.append(ans)
    leftover = tracing.leftover_wrappers()
    if leftover:
        raise RuntimeError(f"timing wrappers left installed: {leftover}")
    for i, ans in enumerate(answers):
        if isinstance(ans, dict) and ans.get("trace"):
            tracer.merge(ans.pop("trace"), i)
    verdict = judge(wl, queries, answers)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(json.dumps(tracer.export()))
    return verdict, tracer, with_trace / plain - 1, len(queries)


def layer_metrics(tracer, import_s: float, overhead: float) -> dict:
    self_s = tracer.self_times()
    counts = tracer.counters
    out = {}
    for name, _ in PER_LAYER:
        span, _, counter = name.rpartition(".")
        if counter == "self_s":
            out[name] = self_s.get(span, 0.0)
        elif span in counts:
            out[name] = counts[span].get(counter, 0)
    evals = counts["laurent.eval_at_roots"]
    out["cyclopoints.orbit_hit_ratio"] = evals["hits"] / evals["calls"] if evals["calls"] else 0.0
    out["cyclopoints.flagged_variants"] = counts["cyclopoints.solve"]["flagged_variants"]
    out["cli.import_s"] = import_s
    out["trace.overhead_ratio"] = overhead
    for name, _ in PER_LAYER:
        out.setdefault(name, 0)
    return out


def emit(verdict: dict, metrics: dict, units: dict) -> None:
    print(json.dumps({
        "correct": verdict["correct"],
        "attempted": verdict["attempted"],
        "failed": verdict["failed"],
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(W.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be >= 1")

    wl = W.WORKLOADS[args.workload]
    try:
        setup_s, import_s = setup_probes(wl.name, args.seed)
        W.load_library()
    except (OSError, RuntimeError, ImportError, ValueError) as exc:
        print(f"perfbench: cannot set up {wl.name}: {exc}", file=sys.stderr)
        return 2
    first = wl.block(args.seed, 0)

    print(f"workload {wl.name}, seed {args.seed}, closed loop, 1 client, "
          f"Python {sys.version.split()[0]}")
    if args.trace:
        out_path = W.ROOT / ".perfbench" / f"trace-{wl.name}-seed{args.seed}.json"
        verdict, tracer, overhead, n = traced(wl, args.seed, first, out_path)
        metrics = layer_metrics(tracer, import_s, overhead)
        units = dict(PER_LAYER)
        print(f"traced pass: {n} queries, {len(tracer.spans)} spans written to {out_path}")
        for name, unit in PER_LAYER:
            print(f"  {name:<42} {metrics[name]:>14.6g} {unit}")
    else:
        verdict, metrics, n, wall = untraced(wl, args.seed, args.seconds, first)
        metrics["setup_s"] = setup_s
        units = dict(END_TO_END)
        print(f"{n} queries in {wall:.2f} s; setup_s is the median of {SETUP_REPEATS} "
              f"fresh interpreters; latency percentiles over {n} samples")
        for name, unit in END_TO_END:
            print(f"  {name:<16} {metrics[name]:>12.6g} {unit}")
        print(f"  {'error_rate':<16} {verdict['failed'] / n:>12.6g} "
              f"({verdict['failed']} of {n} failed)")
    if verdict["known_defect"]:
        print(f"  {verdict['known_defect']} failed answers miss zero orbits of inputs that "
              "the solver flags as sharing a curve component with a substitution, "
              "whose torsion points it does not enumerate")
    for reason in verdict["reasons"][:5]:
        print(f"  failed: {reason}")
    print(MAPPING)
    emit(verdict, metrics, units)
    return 0


if __name__ == "__main__":
    sys.exit(main())
