"""Self-tests of the benchmark: input determinism, oracles against the
program on tiny cases, and the self-time arithmetic of the tracer.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path
from random import Random

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import gen  # noqa: E402
import oracle as O  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from autalg import (  # noqa: E402
    FiniteSet,
    PureAutomatonFirst,
    SemigroupAutomatonFirst,
    SemigroupTable,
    check_first_axioms,
    element_compose,
    element_order_bounded,
    grigorchuk_elements,
    semigroupify,
)


def _files(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_same_seed_writes_identical_inputs(tmp_path, workload):
    first = gen.build(workload, 7, tmp_path / "a")
    again = gen.build(workload, 7, tmp_path / "b")
    other = gen.build(workload, 8, tmp_path / "c")
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert _files(tmp_path / "a") != _files(tmp_path / "c")
    assert [(op.name, op.argv, op.expect_exit) for op in first] == \
        [(op.name, op.argv, op.expect_exit) for op in again]
    assert {op.expect_exit for op in other} <= {0, 1, 2}


def test_closure_oracle_matches_semigroupify_on_a_tiny_automaton():
    rng = Random(3)
    nxt, out, (elements, names, letters, table) = gen._pure_first(rng, 3, 2, 2, 8, 30)
    built = semigroupify(PureAutomatonFirst(FiniteSet(3), FiniteSet(2), FiniteSet(2), nxt, out))
    assert built.gamma.order == len(elements)
    assert built.gamma.generators == tuple(letters)
    assert built.gamma.names == tuple(names)
    assert np.array_equal(np.array(built.gamma.product), table)
    mul = O.pair_mul(3)[0]
    assert all(elements[table[i][j]] == mul(elements[i], elements[j])
               for i in range(len(elements)) for j in range(len(elements)))


def test_first_law_oracle_agrees_with_the_program_after_a_flip():
    rng = Random(5)
    _, _, closure = gen._pure_first(rng, 3, 2, 2, 8, 30)
    obj = gen._semigroupified(3, 2, closure)
    prod, nxt, out = obj["semigroup"]["product"], obj["next"], obj["out"]

    def program_verdict():
        gamma = SemigroupTable(len(prod), prod.tolist())
        m = SemigroupAutomatonFirst(FiniteSet(3), gamma, FiniteSet(2), nxt.tolist(), out.tolist())
        return check_first_axioms(m)

    assert program_verdict().ok and O.first_laws_break(nxt, out, prod) is None
    gen._flip(rng, out, 2, lambda: O.first_laws_break(nxt, out, prod))
    report = program_verdict()
    assert not report.ok
    check = gen._violation_check(gen._first_laws(nxt, out, prod))
    assert check(report.describe(), None) is None
    assert check("fail: state law at (0, 0, 0): lhs = 1, rhs = 1", None) is not None


@pytest.mark.parametrize("word,order", [("ab", 16), ("ac", 8), ("ad", 4), ("aba", 2)])
def test_level_order_matches_known_and_computed_orders(word, order):
    chain = [(gen._GRIG, "abcde".index(c)) for c in word]
    assert O.level_order(chain, 2, 10) == order
    elements = grigorchuk_elements()
    e = elements[word[0]]
    for c in word[1:]:
        e = element_compose(e, elements[c])
    assert element_order_bounded(e).order == order


def test_covered_merges_overlaps_and_clips():
    assert tracing.covered([], 0, 10) == 0
    assert tracing.covered([(2, 4), (3, 6), (8, 12)], 0, 10) == 6
    assert tracing.covered([(0, 5), (1, 2)], 0, 10) == 5
    assert tracing.covered([(-5, 3)], 0, 10) == 3


def test_self_time_subtracts_direct_children_only():
    S = tracing.Span
    spans = [S("root", 0, 100, -1, "op"), S("child", 10, 40, 0, "op"),
             S("grandchild", 15, 35, 1, "op"), S("child", 50, 60, 0, "op")]
    assert tracing.self_times(spans) == {"root": 60, "child": 20, "grandchild": 20}


def test_tracer_records_nesting_errors_and_quantities():
    ticks = iter(range(0, 1000, 10))
    tracer = tracing.Tracer(clock=lambda: next(ticks))
    inner = tracer.wrap("schema.dumps", lambda obj: "x" * obj)
    outer = tracer.wrap("cli.main", lambda n: inner(n) + inner(n))
    failing = tracer.wrap("schema.load", lambda path: 1 / 0)
    tracer.op = "op-1"
    assert outer(3) == "xxxxxx"
    with pytest.raises(ZeroDivisionError):
        failing("missing.json")
    assert [(s.name, s.parent, s.op) for s in tracer.spans] == [
        ("cli.main", -1, "op-1"), ("schema.dumps", 0, "op-1"), ("schema.dumps", 0, "op-1"),
        ("schema.load", -1, "op-1")]
    layers = tracing.layer_metrics(tracer, passes=1)
    assert layers["schema.dumps.bytes"] == 6
    assert layers["schema.dumps.calls"] == 2
    assert layers["schema.load.errors"] == 1
    assert layers["cli.main.self_s"] == pytest.approx((50 - 0 - 10 - 10) / 1e9)


def test_benchmark_json_lists_what_the_code_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(gen.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == \
        tracing.LAYER_METRICS


def test_benchmark_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run([sys.executable, "bench/run.py", "--workload", "group", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
