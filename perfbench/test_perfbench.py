"""Self-tests of the benchmark: the oracles reject corrupted answers, seeds
reproduce inputs, timing wrappers come off, and traced counts repeat.

Run from the root of a checkout:  python3 -m pytest -q perfbench
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads as W  # noqa: E402

W.load_library()
PS, TZ, CP, CC = (W.WORKLOADS[n] for n in
                  ("principal_survey", "torus_zeros", "circle_positivity", "cli_cold"))


def answer(wl, query, state=None):
    ans, _ = run.ask(wl, state, query)
    assert wl.check(query, ans).ok, wl.check(query, ans).reason
    return ans


# -- the oracle's own reference data ------------------------------------------

@pytest.mark.parametrize("name, weight, dim", [
    ("B3", (1, 0, 0), 7), ("B3", (0, 0, 1), 8), ("C3", (1, 0, 0), 6),
    ("G2", (1, 0), 7), ("G2", (0, 1), 14), ("F4", (0, 0, 0, 1), 26),
    ("F4", (1, 0, 0, 0), 52), ("E6", (1, 0, 0, 0, 0, 0), 27),
    ("E7", (0, 0, 0, 0, 0, 0, 1), 56), ("E8", (0, 0, 0, 0, 0, 0, 0, 1), 248),
    ("E8", (1, 0, 0, 0, 0, 0, 0, 0), 3875), ("D4", (1, 0, 0, 0), 8),
])
def test_reference_root_data_gives_known_dimensions(name, weight, dim):
    assert oracle.RootData(name).dim(weight) == dim


def test_reference_torsion_search_finds_the_order_12_zero():
    assert oracle.torsion_zeros({(1, 0): 1, (0, 2): 1, (0, 0): -1}, 24) == {(12, 2, 5)}


# -- each oracle rejects a corrupted answer -----------------------------------

def test_principal_oracle_rejects_corruption():
    state = PS.setup(None)
    query = ("G2", (1, 2))
    good = answer(PS, query, state)
    for field, bad in (("dim", good["dim"] + 1), ("tensor", False), ("m", good["m"] + 2),
                       ("ppz", (good["ppz"][0], good["ppz"][1] + 1))):
        assert not PS.check(query, {**good, field: bad}).ok, field
    wrong_mult = copy.deepcopy(good)
    d, mult = wrong_mult["orders"][0]
    wrong_mult["orders"][0] = (d, mult + 1)
    assert not PS.check(query, wrong_mult).ok
    assert not PS.check(query, {**good, "orders": good["orders"][1:]}).ok


def test_principal_oracle_expects_zero_weight_refusal():
    state = PS.setup(None)
    good = answer(PS, ("A2", (0, 0)), state)
    assert good["zero_weight_refused"]
    assert not PS.check(("A2", (0, 0)), {**good, "zero_weight_refused": False}).ok


def test_torus_oracle_rejects_dropped_or_false_orbit():
    query = ("g2", W.bi_text(W.G2_ADJOINT), W.G2_ADJOINT)
    good = answer(TZ, query)
    assert len(good["points"]) == 14
    assert not TZ.check(query, {**good, "points": good["points"][1:]}).ok
    bogus = good["points"] + [(5, 1, 2, 5, 5)]
    assert not TZ.check(query, {**good, "points": bogus}).ok


def test_torus_oracle_counts_flagged_incompleteness_as_failure():
    terms = {(1, 0): 1, (0, 2): 1, (0, 0): -1}
    query = ("random", W.bi_text(terms), terms)
    flagged = TZ.check(query, {"points": [], "flagged": [1]})
    unflagged = TZ.check(query, {"points": [], "flagged": []})
    assert not flagged.ok and flagged.known_defect
    assert not unflagged.ok and not unflagged.known_defect


def test_circle_oracle_rejects_flipped_verdicts():
    queries = CP.block(3, 0)
    pos = next(q for q in queries if q[0] == "positive")
    neg = next(q for q in queries if q[0] == "negative")
    cls = next(q for q in queries if q[0] == "classify")
    fin = next(q for q in queries if q[0] == "finite" and "root t 5\n" in q[1])
    assert not CP.check(pos, (False, (Fraction(-1), Fraction(0)))).ok
    assert not CP.check(neg, (True, None)).ok
    assert not CP.check(cls, (cls[2][0], "-" if cls[2][1] == "+" else "+")).ok
    assert not CP.check(("su2", "", 7), 8).ok
    good = answer(CP, fin)
    if good == "inconsistent":
        assert not CP.check(fin, {"positive": True}).ok
    else:
        assert not CP.check(fin, {**good, "positive": not good["positive"]}).ok
        assert not CP.check(fin, {**good, "zero": good["zero"] + (99,)}).ok


def test_circle_oracle_rejects_a_witness_where_f_is_not_negative():
    f = {0: 1, 3: 2, -3: 2}  # 1 + 4 cos(3 theta): negative only near cos(3 theta) = -1
    query = ("negative", W.uni_text(f), f)
    ans = answer(CP, query)
    assert not CP.check(query, (False, (Fraction(9, 10), Fraction(1)))).ok
    assert CP.check(query, ans).ok


def test_cli_oracle_rejects_missing_fact_or_bad_exit():
    argv, facts = W.README_COMMANDS[0]
    good = {"code": 0, "stdout": "\n".join(facts) + "\n"}
    assert CC.check((argv, facts), good).ok
    assert not CC.check((argv, facts), {**good, "stdout": good["stdout"].replace("Phi_8", "")}).ok
    assert not CC.check((argv, facts), {**good, "code": 3}).ok


# -- seeds ---------------------------------------------------------------------

@pytest.mark.parametrize("wl", [PS, TZ, CP, CC], ids=lambda w: w.name)
def test_same_seed_gives_same_queries(wl):
    assert wl.block(11, 0) == wl.block(11, 0)
    assert wl.block(11, 1) == wl.block(11, 1)
    assert wl.block(11, 0) != wl.block(12, 0)


def test_a_run_has_at_least_100_queries():
    for wl in (PS, TZ, CP, CC):
        assert len(run.query_set(wl, 5, 1)) >= run.MIN_QUERIES


def test_two_torus_blocks_hold_every_input_once():
    even, odd = TZ.block(4, 0), TZ.block(4, 1)
    assert len(even) == len(odd) == 100
    assert sorted(q[0] for q in even + odd if q[0] != "random") == ["g2", "g2_x2", "g2_y3"]
    assert sum(q[0] == "random" for q in even + odd) == len(TZ.base_set)


def test_a_timed_run_sends_whole_blocks_until_it_has_enough_queries():
    class Fake:
        def block(self, seed, k):
            return [(seed, k, i) for i in range(40)]

        def run(self, state, query):
            return query

    wl = Fake()
    queries, latencies, answers, _ = run.timed_blocks(wl, None, 3, 0, wl.block(3, 0))
    assert queries == answers == wl.block(3, 0) + wl.block(3, 1) + wl.block(3, 2)
    assert len(latencies) == 120


# -- tracing -------------------------------------------------------------------

def test_wrappers_cover_every_binding_and_are_removed():
    laurent = sys.modules["cyclochar.laurent"]
    original = laurent.cyclo_factor
    tracer = tracing.Tracer()
    with tracer:
        for mod in ("cyclochar", "cyclochar.laurent", "cyclochar.principal",
                    "cyclochar.cyclopoints"):
            assert sys.modules[mod].cyclo_factor.perfbench_span == "laurent.cyclo_factor"
        assert tracing.leftover_wrappers()
    assert tracing.leftover_wrappers() == []
    assert laurent.cyclo_factor is original
    assert sys.modules["cyclochar.principal"].cyclo_factor is original


COUNTERS = ("calls", "in_degree", "out_degree_max", "coeff_bits_max",
            "flagged_variants", "out_terms", "factors", "remainder_degree", "hits")


def traced_counts(wl, queries) -> dict:
    tracer = tracing.Tracer()
    with tracer:
        state = wl.setup(queries)
    wl.traced = True
    try:
        for i, q in enumerate(queries):
            tracer.query = i
            with tracer:
                ans, _ = run.ask(wl, state, q)
            if isinstance(ans, dict) and ans.get("trace"):
                tracer.merge(ans.pop("trace"), i)
            assert wl.check(q, ans).ok or wl.check(q, ans).known_defect
    finally:
        wl.traced = False
    assert tracing.leftover_wrappers() == []
    return {name: {k: v for k, v in acc.items() if k in COUNTERS}
            for name, acc in tracer.counters.items()}


@pytest.mark.parametrize("wl, pick", [
    (PS, lambda qs: [q for q in qs if q[0] in ("G2", "A3", "B4", "F4")]),
    (TZ, lambda qs: [q for q in qs if q[0] in ("random", "g2")][:15]),
    (CP, lambda qs: [q for q in qs if q[0] != "su2" and not q[1].startswith(
        ("root t 1", "root t 2", "root t 3"))][:30]),
    (CC, lambda qs: [q for q in qs if q[0][0] in ("principal", "scheck")][:2]),
], ids=lambda x: getattr(x, "name", ""))
def test_traced_counts_repeat_exactly(wl, pick):
    queries = pick(wl.block(7, 0))
    first = traced_counts(wl, queries)
    assert first == traced_counts(wl, queries)
    assert any(acc.get("calls") for acc in first.values())


def test_layers_a_workload_does_not_use_show_zero_calls():
    counts = traced_counts(PS, [q for q in PS.block(2, 0) if q[0] in ("G2", "B3")])
    assert counts.get("laurent.resultant", {}).get("calls", 0) == 0
    assert counts.get("realroots.isolate_roots", {}).get("calls", 0) == 0
    counts = traced_counts(TZ, [q for q in TZ.block(2, 0) if q[0] == "random"][:10])
    assert counts.get("realroots.isolate_roots", {}).get("calls", 0) == 0
    assert counts["laurent.resultant"]["calls"] > 0


def test_percentiles_follow_the_order_statistics():
    values = list(range(1, 102))
    assert run.percentile(values, 50) == pytest.approx(51, abs=1e-6)
    assert run.percentile(values, 90) == pytest.approx(91.4, abs=1e-3)
    assert run.percentile([5.0] * 120, 90) == pytest.approx(5.0)


def test_self_time_subtracts_child_spans():
    tracer = tracing.Tracer()
    tracer.spans.extend([["a", 0.0, 10.0, -1, 0], ["b", 1.0, 4.0, 0, 0],
                         ["c", 2.0, 3.0, 1, 0], ["b", 5.0, 6.0, 0, 0]])
    assert tracer.self_times() == {"a": 6.0, "b": 3.0, "c": 1.0}


# -- the benchmark's contract ---------------------------------------------------

def test_benchmark_json_matches_the_runner():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(W.WORKLOADS)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli_cold", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
