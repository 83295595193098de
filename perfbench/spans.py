"""Boundary spans for the traced benchmark run.

The traced run replaces module- and class-level bindings of wiretaplab
functions with timing wrappers, runs one pass, and puts the original
objects back.  Spans are aggregated in memory per (span, parent) pair as
call count, total time and self time; a pass makes hundreds of
thousands of boundary calls, so one record per call would cost more
than the work it describes.  Self time is a span's duration minus the
time its child spans cover.
"""

from __future__ import annotations

import inspect
import time
from math import comb
from typing import Callable, Iterator, Optional

Counter = Callable[["Tracer", dict, object], None]


class Tracer:
    """Span and counter store for one traced pass."""

    def __init__(self) -> None:
        # (span, parent) -> [calls, total_s, self_s]
        self.stats: dict[tuple[str, Optional[str]], list] = {}
        self.counts: dict[str, int] = {}
        # each frame is [span name, seconds covered by child spans]
        self._stack: list[list] = []
        self._installed: list[tuple[object, str, object]] = []

    # -- span bookkeeping -------------------------------------------------

    def _enter(self, name: str) -> list:
        frame = [name, 0.0]
        self._stack.append(frame)
        return frame

    def _leave(self, frame: list, elapsed: float) -> None:
        self._stack.pop()
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[1] += elapsed
        key = (frame[0], parent[0] if parent is not None else None)
        rec = self.stats.get(key)
        if rec is None:
            rec = self.stats[key] = [0, 0.0, 0.0]
        rec[0] += 1
        rec[1] += elapsed
        rec[2] += elapsed - frame[1]

    def add(self, counter: str, amount: int) -> None:
        self.counts[counter] = self.counts.get(counter, 0) + amount

    # -- wrappers ---------------------------------------------------------

    def wrap(self, fn: Callable, name, count: Optional[Counter] = None) -> Callable:
        """Time every call of fn.

        name is a string or a function of the call's arguments, bound to
        fn's parameter names; count(tracer, arguments, result) adds to
        the counters after the call returns.
        """
        perf = time.perf_counter
        named = callable(name)
        bind = inspect.signature(fn).bind if named or count else None

        def spanned(*args, **kwargs):
            arguments = bind(*args, **kwargs).arguments if bind else None
            frame = self._enter(name(arguments) if named else name)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._leave(frame, perf() - start)
            if count is not None:
                count(self, arguments, result)
            return result

        spanned.__wrapped__ = fn
        return spanned

    def wrap_generator(self, fn: Callable, name: str, item_counter: str) -> Callable:
        """Time the creation and every next() of a generator function.

        A plain wrapper returns as soon as the generator object exists,
        before any item is produced, so it would report no time at all.
        """
        perf = time.perf_counter

        def spanned(*args, **kwargs):
            frame = self._enter(name)
            start = perf()
            try:
                gen = fn(*args, **kwargs)
            finally:
                self._leave(frame, perf() - start)
            return self._drive(gen, name, item_counter)

        spanned.__wrapped__ = fn
        return spanned

    def _drive(self, gen: Iterator, name: str, item_counter: str) -> Iterator:
        perf = time.perf_counter
        while True:
            frame = self._enter(name)
            start = perf()
            try:
                item = next(gen)
            except StopIteration:
                return
            finally:
                self._leave(frame, perf() - start)
            self.add(item_counter, 1)
            yield item

    # -- installing and restoring bindings ---------------------------------

    def install(self, owner: object, attr: str, make: Callable[[Callable], Callable]) -> None:
        """Replace owner.attr with make(original); classmethods stay classmethods."""
        raw = owner.__dict__[attr]
        if isinstance(raw, classmethod):
            replacement = classmethod(make(raw.__func__))
        else:
            replacement = make(raw)
        self._installed.append((owner, attr, raw))
        setattr(owner, attr, replacement)

    def restore(self) -> list[str]:
        """Put every original binding back; returns those still not original."""
        restored = []
        while self._installed:
            owner, attr, raw = self._installed.pop()
            setattr(owner, attr, raw)
            restored.append((owner, attr, raw))
        return [f"{getattr(owner, '__name__', owner)}.{attr}"
                for owner, attr, raw in restored
                if owner.__dict__.get(attr) is not raw]

    # -- reading the aggregate ---------------------------------------------

    def calls(self, span: str, exclude_parent: Optional[str] = "") -> int:
        """Calls of span, leaving out those made from exclude_parent."""
        return sum(rec[0] for (name, parent), rec in self.stats.items()
                   if name == span and parent != exclude_parent)

    def total_s(self, span: str) -> float:
        """Inclusive time of the outermost calls of span."""
        return sum(rec[1] for (name, parent), rec in self.stats.items()
                   if name == span and parent != span)

    def self_s(self, span: str) -> float:
        return float(sum(rec[2] for (name, _), rec in self.stats.items() if name == span))

    def records(self) -> list[dict]:
        return [{"span": name, "parent": parent, "calls": rec[0],
                 "total_s": rec[1], "self_s": rec[2]}
                for (name, parent), rec in sorted(
                    self.stats.items(), key=lambda kv: (kv[0][0], kv[0][1] or ""))]


# ---------------------------------------------------------------------------
# the layer boundaries of wiretaplab

def _classify_span(a: dict) -> str:
    if not a["klass"].is_active:
        return "attack_engine.classify.passive"
    if a["code"].shots == 1:
        return "attack_engine.classify.single_shot_active"
    return "attack_engine.classify.two_shot_active"


def _count_strategies(tracer: Tracer, a: dict, verdict) -> None:
    # 2 first-layer taps x (d^d substitutions if active) x selectors, where
    # an adaptive selector maps each of the d^shots first-layer views
    code, klass = a["code"], a["klass"]
    mods = code.d ** code.d if klass.is_active else 1
    selectors = 2 ** (code.d ** code.shots) if klass.is_adaptive else 2
    tracer.add("attack_engine.strategies_covered", 2 * mods * selectors)


def _graph_span(a: dict) -> str:
    return f"anti_latin.compatibility_graph.{a['mode']}"


def _count_graph(tracer: Tracer, a: dict, adj: list[int]) -> None:
    catalog, d = a["catalog"], a["d"]
    n = len(catalog)
    if a["mode"] != "decodable":
        # a one-to-one partner needs every value exactly d times in both
        # squares, so only pairs of such balanced squares are decided
        n = sum(all(sq.flat().count(v) == d for v in range(d)) for sq in catalog)
    tracer.add("anti_latin.pairs_tested", n * (n - 1) // 2)
    tracer.add("anti_latin.graph_edges", sum(row.bit_count() for row in adj) // 2)


def _count_examined(tracer: Tracer, a: dict, result) -> None:
    tracer.add("anti_latin.find_decodable_pair.examined", result.examined)


def _count_subsets(tracer: Tracer, a: dict, report) -> None:
    code = a["code"]
    tracer.add("network_capacity.wiretap2_verify.subsets_checked",
               comb(code.k, code.r) if code.r else 1)


CONSTRUCTORS = ("anti_latin_code", "scalar_linear_code", "standard_nonlinear_code",
                "vector_linear_code")


def install_boundaries(tracer: Tracer, m) -> None:
    """Wrap every layer function the workloads reach, where callers look it up.

    A module-level function is wrapped in its own module, which also
    covers calls from inside that module.  A name one layer imported from
    another is wrapped in the importing module, so the span marks the
    crossing.  Methods and classmethods are wrapped on their class.
    """
    def span(name, count=None):
        return lambda fn: tracer.wrap(fn, name, count)

    ae, al, oc, it, nc, alg, cli = m.ae, m.al, m.oc, m.it, m.nc, m.alg, m.cli
    plan = [
        (cli, "main", span("cli.main")),
        (ae, "classify", span(_classify_span, _count_strategies)),
        (ae, "classification_table", span("attack_engine.classification_table")),
        (ae, "exhaustive_nonexistence_check",
         span("attack_engine.exhaustive_nonexistence_check")),
        (ae, "exhaustive_scalar_linear_check",
         span("attack_engine.exhaustive_scalar_linear_check")),
        (ae, "_project", span("info_theory.project")),
        (ae, "_entropy_of_weights", span("info_theory.entropy_of_weights")),
        (ae, "find_decodable_pair",
         span("anti_latin.find_decodable_pair", _count_examined)),
        (ae, "reference_decodable_pair", span("anti_latin.reference_decodable_pair")),
        (ae, "OneHopCode", span("onehop_codes.constructors")),
        (it.JointDistribution, "from_weights", span("info_theory.from_weights")),
        (it, "check_han_subsets", span("info_theory.check_han")),
        (it, "check_han_collection", span("info_theory.check_han")),
        (oc, "is_equivalent_to_standard",
         span("onehop_codes.is_equivalent_to_standard")),
        (oc, "is_decodable_pair", span("anti_latin.is_decodable_pair")),
        (oc, "xi_set", span("anti_latin.xi_set")),
        (al, "enumerate_anti_latin", span("anti_latin.enumerate_anti_latin")),
        (al, "compatibility_graph", span(_graph_span, _count_graph)),
        (al, "max_mutual_set", span("anti_latin.max_mutual_set")),
        (al, "find_decodable_pair",
         span("anti_latin.find_decodable_pair", _count_examined)),
        (al, "is_decodable_pair", span("anti_latin.is_decodable_pair")),
        (al, "is_one_to_one_pair", span("anti_latin.is_one_to_one_pair")),
        (nc, "wiretap2_verify",
         span("network_capacity.wiretap2_verify", _count_subsets)),
        (nc, "rwiretap_capacities", span("network_capacity.rwiretap_capacities")),
        (nc, "mincut1", span("network_capacity.mincut")),
        (nc, "mincut2", span("network_capacity.mincut")),
        (nc, "build_mds_generator", span("algebra.mds")),
        (alg.Matrix, "mat_vec", span("algebra.mat_vec")),
        (alg, "build_mds_generator", span("algebra.mds")),
        (alg, "verify_mds", span("algebra.mds")),
    ]
    plan += [(owner, name, span("onehop_codes.constructors"))
             for owner in (ae, cli) for name in CONSTRUCTORS]
    enumerate_span = "onehop_codes.enumerate_onehop_codes"
    plan += [(owner, "enumerate_onehop_codes",
              lambda fn: tracer.wrap_generator(fn, enumerate_span,
                                               enumerate_span + ".codes"))
             for owner in (oc, ae)]
    for owner, attr, make in plan:
        tracer.install(owner, attr, make)


# name -> (unit, better); BENCHMARK.json lists the same metrics
PER_LAYER = {
    "attack_engine.classify.single_shot_active.self_s": ("s", "lower"),
    "attack_engine.classify.two_shot_active.self_s": ("s", "lower"),
    "attack_engine.classify.passive.self_s": ("s", "lower"),
    "attack_engine.classify.calls": ("count", "lower"),
    "attack_engine.strategies_covered": ("count", "higher"),
    "attack_engine.strategies_per_s": ("1/s", "higher"),
    "attack_engine.classification_table.self_s": ("s", "lower"),
    "attack_engine.exhaustive_nonexistence_check.self_s": ("s", "lower"),
    "attack_engine.exhaustive_scalar_linear_check.self_s": ("s", "lower"),
    "info_theory.project.calls": ("count", "lower"),
    "info_theory.project.self_s": ("s", "lower"),
    "info_theory.entropy_of_weights.calls": ("count", "lower"),
    "info_theory.entropy_of_weights.self_s": ("s", "lower"),
    "info_theory.from_weights.self_s": ("s", "lower"),
    "info_theory.check_han.calls": ("count", "lower"),
    "info_theory.check_han.self_s": ("s", "lower"),
    "onehop_codes.enumerate_onehop_codes.self_s": ("s", "lower"),
    "onehop_codes.enumerate_onehop_codes.codes": ("count", "lower"),
    "onehop_codes.is_equivalent_to_standard.self_s": ("s", "lower"),
    "onehop_codes.constructors.self_s": ("s", "lower"),
    "anti_latin.compatibility_graph.decodable.self_s": ("s", "lower"),
    "anti_latin.compatibility_graph.one-to-one.self_s": ("s", "lower"),
    "anti_latin.max_mutual_set.self_s": ("s", "lower"),
    "anti_latin.enumerate_anti_latin.self_s": ("s", "lower"),
    "anti_latin.pairs_tested": ("count", "lower"),
    "anti_latin.graph_edges": ("count", "higher"),
    "anti_latin.edge_ratio": ("ratio", "higher"),
    "anti_latin.find_decodable_pair.self_s": ("s", "lower"),
    "anti_latin.find_decodable_pair.examined": ("count", "lower"),
    "network_capacity.wiretap2_verify.self_s": ("s", "lower"),
    "network_capacity.wiretap2_verify.subsets_checked": ("count", "lower"),
    "network_capacity.mincut.calls": ("count", "lower"),
    "network_capacity.mincut.self_s": ("s", "lower"),
    "algebra.mat_vec.calls": ("count", "lower"),
    "algebra.mat_vec.self_s": ("s", "lower"),
    "algebra.mds.self_s": ("s", "lower"),
    "cli.main.self_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}

_CLASSIFY_SPANS = tuple(f"attack_engine.classify.{kind}" for kind in
                        ("passive", "single_shot_active", "two_shot_active"))


def layer_values(tracer: Tracer, overhead_s: float) -> dict[str, float]:
    """Every PER_LAYER metric of one traced pass."""
    counts = tracer.counts
    values: dict[str, float] = {}
    for name in PER_LAYER:
        span, _, what = name.rpartition(".")
        if what == "self_s":
            values[name] = tracer.self_s(span)
        elif what == "calls":
            values[name] = tracer.calls(span, exclude_parent=span)
        else:
            values[name] = counts.get(name, 0)
    values["attack_engine.classify.calls"] = sum(tracer.calls(s) for s in _CLASSIFY_SPANS)
    classify_s = sum(tracer.total_s(s) for s in _CLASSIFY_SPANS)
    values["attack_engine.strategies_per_s"] = (
        values["attack_engine.strategies_covered"] / classify_s if classify_s else 0.0)
    pairs = values["anti_latin.pairs_tested"]
    values["anti_latin.edge_ratio"] = values["anti_latin.graph_edges"] / pairs if pairs else 0.0
    values["trace.overhead_s"] = overhead_s
    return values
