"""Benchmark runner for wiretaplab.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload classify --seed 1 --seconds 20 --trace 0

It imports wiretaplab from ``src/`` of the checkout, builds the seeded
inputs several times (``setup_s`` is their median), then repeats passes
over the workload's operations until the next pass would end after
``--seconds``, checking every output.  With ``--trace 0`` it reports the
end-to-end metrics; with ``--trace 1`` it adds one pass with boundary
spans installed and reports the per-layer metrics instead.  One process,
no threads.  Each metric is printed by name with its unit; the last line
of standard output is one JSON object.  A run record, and for traced
runs the aggregated spans, go to ``.bench_build/perfbench/``.  The exit
code is 1 when any check failed and 2 when the checkout has no
wiretaplab sources.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

from spans import PER_LAYER, Tracer, install_boundaries, layer_values
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_build" / "perfbench"
SETUP_REPEATS = 5
MODULES = {"ae": "attack_engine", "al": "anti_latin", "oc": "onehop_codes",
           "it": "info_theory", "nc": "network_capacity", "alg": "algebra",
           "cli": "cli"}
END_TO_END = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}


def import_fresh() -> SimpleNamespace:
    """Import wiretaplab from the checkout, discarding any earlier import."""
    for name in [n for n in sys.modules if n == "wiretaplab" or n.startswith("wiretaplab.")]:
        del sys.modules[name]
    return SimpleNamespace(**{key: importlib.import_module(f"wiretaplab.{mod}")
                              for key, mod in MODULES.items()})


def setup(workload, seed: int) -> tuple[SimpleNamespace, dict, list[float], list[str]]:
    """Import and make inputs SETUP_REPEATS times; every repeat must agree."""
    times, problems = [], []
    mods = inputs = None
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        mods = import_fresh()
        fresh = workload.make_inputs(seed)
        times.append(time.perf_counter() - start)
        if inputs is not None and fresh != inputs:
            problems.append("the same seed gave different inputs")
        inputs = fresh
    return mods, inputs, times, problems


class Raised(str):
    """Result slot of an operation that raised; holds the traceback."""


def run_pass(ops) -> tuple[float, float, list]:
    """Run every operation once; an exception fails that operation only."""
    results = []
    wall0, cpu0 = time.perf_counter(), time.process_time()
    for op in ops:
        try:
            results.append(op.run())
        except Exception:  # noqa: BLE001 - a raising operation counts as failed
            results.append(Raised(traceback.format_exc(limit=-3)))
    return time.perf_counter() - wall0, time.process_time() - cpu0, results


class Ledger:
    """Attempted and failed operations, and the summary each one must repeat."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.reference: list = []

    def fail(self, problem: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(problem)

    def record(self, ops, results, label: str) -> None:
        summaries = []
        for op, result in zip(ops, results):
            self.attempted += 1
            if isinstance(result, Raised):
                summaries.append(None)
                self.fail(f"{label} {op.name} raised: {result}")
                continue
            try:
                problems, summary = op.check(result)
            except Exception:  # noqa: BLE001 - a check that raises is a failure
                problems, summary = [traceback.format_exc(limit=-3)], None
            summaries.append(repr(summary))
            if problems:
                self.fail(f"{label} {op.name}: {'; '.join(problems)}")
        if not self.reference:
            self.reference = summaries
            return
        for op, want, got in zip(ops, self.reference, summaries):
            if got is not None and want is not None and got != want:
                self.fail(f"{label} {op.name}: output differs from the first pass")


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            name = ref[5:]
            path = ROOT / ".git" / name
            if path.is_file():
                return path.read_text().strip()
            for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + name):
                    return line.split()[0]
            return "unknown"
        return ref
    except OSError:
        return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "wiretaplab" / "__init__.py").is_file():
        print(f"error: no wiretaplab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]
    ledger = Ledger()

    mods, inputs, setup_times, setup_problems = setup(workload, args.seed)
    for problem in setup_problems:
        ledger.fail(problem)
    if not Path(mods.ae.__file__).resolve().is_relative_to(SRC):
        print(f"error: wiretaplab imported from {mods.ae.__file__}", file=sys.stderr)
        return 2
    ops = workload.operations(mods, inputs)

    passes = []
    started = time.perf_counter()
    while True:
        wall, cpu, results = run_pass(ops)
        passes.append({"wall_s": wall, "cpu_s": cpu})
        ledger.record(ops, results, f"pass {len(passes)}")
        used = time.perf_counter() - started
        if used + statistics.median(p["wall_s"] for p in passes) > args.seconds:
            break
    wall_s = statistics.median(p["wall_s"] for p in passes)
    cpu_s = statistics.median(p["cpu_s"] for p in passes)

    span_records = None
    if args.trace:
        tracer = Tracer()
        install_boundaries(tracer, mods)
        try:
            traced_wall, _, results = run_pass(ops)
        finally:
            unrestored = tracer.restore()
        ledger.attempted += 1
        if unrestored:
            ledger.fail(f"bindings not restored: {unrestored}")
        ledger.record(ops, results, "traced pass")
        values = layer_values(tracer, traced_wall - wall_s)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, (unit, _) in PER_LAYER.items()}
        span_records = tracer.records()
    else:
        values = {"setup_s": statistics.median(setup_times), "wall_s": wall_s,
                  "cpu_s": cpu_s,
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(), "git_sha": git_sha(),
        "nproc": os.cpu_count(), "setup_s": setup_times, "passes": passes,
        "attempted": ledger.attempted, "failed": ledger.failed,
        "fail_ratio": ledger.failed / ledger.attempted,
        "problems": ledger.problems, "metrics": metrics, "spans": span_records,
    }
    OUT.mkdir(parents=True, exist_ok=True)
    out_file = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=1) + "\n")

    for problem in ledger.problems:
        print(f"FAILED {problem}", file=sys.stderr)
    print(f"# {args.workload} seed={args.seed} python={record['python']} "
          f"git={record['git_sha'][:12]} nproc={record['nproc']} passes={len(passes)}")
    for i, p in enumerate(passes, 1):
        print(f"# pass {i}: wall {p['wall_s']:.4f} s, cpu {p['cpu_s']:.4f} s")
    for name, metric in metrics.items():
        print(f"{name} {metric['value']} {metric['unit']}")
    print(f"fail_ratio {record['fail_ratio']} ratio")
    print(json.dumps({"correct": ledger.failed == 0, "attempted": ledger.attempted,
                      "failed": ledger.failed, "metrics": metrics}))
    return 0 if ledger.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
