"""Tests of the benchmark's own machinery.

Run from the root of the checkout:  python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import sys
import types
from pathlib import Path

import pytest

import run
import spans
import workloads

sys.path.insert(0, str(run.SRC))


@pytest.fixture()
def mods():
    return run.import_fresh()


def _toy_module():
    toy = types.ModuleType("toy")

    def inner(n):
        return sum(range(n))

    def outer(n):
        return toy.inner(n) + toy.inner(n)

    def items(n):
        for i in range(n):
            yield toy.inner(1000) + i

    class Box:
        @classmethod
        def make(cls, n):
            return cls(), n

    toy.inner, toy.outer, toy.items, toy.Box = inner, outer, items, Box
    return toy


def test_spans_nest_and_bindings_come_back():
    toy = _toy_module()
    originals = dict(toy.__dict__)
    make_raw = toy.Box.__dict__["make"]
    tracer = spans.Tracer()
    for attr in ("inner", "outer"):
        tracer.install(toy, attr, lambda fn, attr=attr: tracer.wrap(fn, f"toy.{attr}"))
    tracer.install(toy, "items", lambda fn: tracer.wrap_generator(fn, "toy.items", "toy.n"))
    tracer.install(toy.Box, "make", lambda fn: tracer.wrap(fn, "toy.make"))

    assert toy.outer(20000) == 2 * sum(range(20000))
    assert list(toy.items(3)) == [sum(range(1000)) + i for i in range(3)]
    box, n = toy.Box.make(4)
    assert isinstance(box, toy.Box) and n == 4

    assert tracer.stats[("toy.inner", "toy.outer")][0] == 2
    assert tracer.stats[("toy.inner", "toy.items")][0] == 3
    # creation, three items and the final StopIteration
    assert tracer.calls("toy.items") == 5
    assert tracer.counts["toy.n"] == 3
    assert tracer.calls("toy.make") == 1
    calls, total, self_s = tracer.stats[("toy.outer", None)]
    inner_total = tracer.stats[("toy.inner", "toy.outer")][1]
    assert calls == 1 and self_s == pytest.approx(total - inner_total)
    assert tracer.self_s("toy.items") > 0.0

    assert tracer.restore() == []
    assert {k: toy.__dict__[k] for k in originals} == originals
    assert toy.Box.__dict__["make"] is make_raw


@pytest.mark.parametrize("d,shots", [(2, 1), (3, 1), (2, 2)])
def test_strategy_count_matches_enumeration(mods, d, shots):
    for klass in mods.ae.AttackClass:
        tracer = spans.Tracer()
        code = types.SimpleNamespace(d=d, shots=shots)
        spans._count_strategies(tracer, {"code": code, "klass": klass}, None)
        covered = tracer.counts["attack_engine.strategies_covered"]
        assert covered == len(mods.ae.enumerate_attacks(d, klass, shots))


def _cheap_ops(m):
    """A fast cut of every workload that still crosses each boundary kind."""
    ops = [workloads.Op(f"cli-{k}", lambda k=k: workloads._run_cli(
        m, ("classify", "--family", "standard", "--d", "2", "--class", k,
            "--format", "json")), lambda r: ([], r))
           for k in workloads.CLASSES]
    ops += [op for op in workloads.maxset_operations(m, {})
            if op.name in ("find-pair-d3", "nonexistence-d2")]
    inputs = workloads.theory_inputs(5)
    inputs = {"tables": inputs["tables"][:40], "dags": inputs["dags"][:5]}
    ops += workloads.theory_operations(m, inputs)
    return ops


def _traced_counts(m):
    ops = _cheap_ops(m)
    tracer = spans.Tracer()
    spans.install_boundaries(tracer, m)
    try:
        results = run.run_pass(ops)[2]
    finally:
        assert tracer.restore() == []
    ledger = run.Ledger()
    ledger.record(ops, results, "traced")
    assert ledger.failed == 0, ledger.problems
    values = spans.layer_values(tracer, 0.0)
    return {name: values[name] for name, (unit, _) in spans.PER_LAYER.items()
            if unit == "count"}


def test_counts_repeat_exactly(mods):
    first = _traced_counts(mods)
    assert first == _traced_counts(run.import_fresh())
    # 4 standard-code classifications at d=2: 2*2 + 2*4 + 2*4*2 + 2*4*4
    assert first["attack_engine.strategies_covered"] == 4 + 8 + 16 + 32
    assert first["attack_engine.classify.calls"] == 4
    assert first["info_theory.check_han.calls"] == 40 + 8
    assert first["network_capacity.wiretap2_verify.subsets_checked"] == 3 + 6 + 10
    assert first["anti_latin.find_decodable_pair.examined"] > 4


def test_untraced_and_traced_outputs_agree(mods):
    ops = _cheap_ops(mods)
    ledger = run.Ledger()
    ledger.record(ops, run.run_pass(ops)[2], "untraced")
    tracer = spans.Tracer()
    spans.install_boundaries(tracer, mods)
    try:
        results = run.run_pass(ops)[2]
    finally:
        tracer.restore()
    ledger.record(ops, results, "traced")
    assert (ledger.attempted, ledger.failed) == (2 * len(ops), 0), ledger.problems


def test_failures_are_counted_not_raised():
    def boom():
        raise RuntimeError("boom")

    ops = [workloads.Op("ok", lambda: 1, lambda r: ([], r)),
           workloads.Op("raises", boom, lambda r: ([], r)),
           workloads.Op("wrong", lambda: 2, lambda r: (["wrong answer"], r))]
    ledger = run.Ledger()
    ledger.record(ops, run.run_pass(ops)[2], "pass 1")
    assert (ledger.attempted, ledger.failed) == (3, 2)


def test_seeded_inputs():
    for name, workload in workloads.WORKLOADS.items():
        assert workload.make_inputs(11) == workload.make_inputs(11), name
    assert workloads.theory_inputs(11) != workloads.theory_inputs(12)
    assert workloads.classify_inputs(11) != workloads.classify_inputs(12)


def test_benchmark_json_lists_what_the_runner_reports():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == \
        spans.PER_LAYER
