"""The benchmark's four workloads.

Each workload makes its inputs from the seed (``make_inputs``) and turns
them into a fixed list of operations (``operations``).  An operation
calls into wiretaplab and returns the raw result; its check runs after
the timed pass and returns the problems it found plus a summary whose
repr must be identical in every pass, traced or not.

Modules are reached through the namespace ``m`` at call time, never
bound at import, so the traced run sees the wrapped bindings.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from itertools import product
from math import comb
from typing import Callable, NamedTuple


class Op(NamedTuple):
    name: str
    run: Callable[[], object]
    check: Callable[[object], tuple[list[str], object]]


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# classify: the active path of attack_engine, driven through the CLI

TABLE_ARGV = ("classify", "--table", "--d", "2,3,4", "--expect-table1",
              "--format", "json")
# sha256 of the grid's JSON output at the commit that introduced the benchmark
TABLE_SHA256 = "ec0707262181af05f81e36f475bbfd0b9f7819269dbd91d8cd4de99e3ae73eab"

CLASSES = ("deterministic-passive", "adaptive-passive",
           "deterministic-active", "adaptive-active")
IMPERFECT, INSECURE, PERFECT = "imperfectly-secret", "insecure", "perfectly-secret"
# (family, d) -> level per class, in CLASSES order.  Anti-Latin codes are
# imperfectly secret; the standard code is insecure under every class but
# deterministic-passive; scalar-linear with relay randomness is perfect.
VERDICTS = {
    ("anti-latin", 5): (IMPERFECT,) * 4,
    ("standard", 5): (IMPERFECT, INSECURE, INSECURE, INSECURE),
    ("scalar-linear", 4): (PERFECT,) * 4,
}


def _run_cli(m, argv) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = m.cli.main(list(argv))
    return rc, buf.getvalue()


def _check_table(m):
    def check(result):
        rc, out = result
        problems = []
        if rc != 0:
            problems.append(f"classify --table exited {rc}")
        if _sha256(out) != TABLE_SHA256:
            problems.append("grid JSON differs from the recorded digest")
        rows = json.loads(out)["table"]["rows"]
        table = m.ae.ClassificationTable(tuple(
            m.ae.TableRow(r["family"], r["d"],
                          {c: m.ae.SecurityLevel(v) for c, v in r["cells"].items()})
            for r in rows))
        problems += m.ae.table_mismatches(table)
        return problems, out
    return check


def _check_verdict(family, d, klass, want):
    def check(result):
        rc, out = result
        if rc != 0:
            return [f"{family} d={d} {klass}: exit {rc}"], out
        got = json.loads(out)["verdict"]
        problems = []
        if got["class"] != klass:
            problems.append(f"{family} d={d}: class {got['class']} != {klass}")
        if got["level"] != want:
            problems.append(f"{family} d={d} {klass}: {got['level']} != {want}")
        return problems, out
    return check


def classify_inputs(seed: int) -> dict:
    return {"seed": seed}


def classify_operations(m, inputs: dict) -> list[Op]:
    ops = [Op("table", lambda: _run_cli(m, TABLE_ARGV), _check_table(m))]
    for (family, d), levels in VERDICTS.items():
        for klass, want in zip(CLASSES, levels):
            argv = ("classify", "--family", family, "--d", str(d), "--class", klass,
                    "--seed", str(inputs["seed"]), "--format", "json")
            ops.append(Op(f"{family}-d{d}-{klass}",
                          lambda argv=argv: _run_cli(m, argv),
                          _check_verdict(family, d, klass, want)))
    return ops


# ---------------------------------------------------------------------------
# sweep: thousands of tiny passive classifications and the d=2 enumeration

D2_CODES = 11232
D2_IMPERFECT = 128
# d -> (encoder x relay pairs examined, correct codes) of the affine sweep
AFFINE_SWEEP = {2: (2304, 1440), 3: (367416, 264384)}


def sweep_inputs(seed: int) -> dict:
    # exhaustive sweeps: the inputs are fixed by definition, not by the seed
    return {}


def _check_nonexistence(report):
    problems = []
    if report.total_codes != D2_CODES:
        problems.append(f"{report.total_codes} codes, expected {D2_CODES}")
    if not report.all_insecure:
        problems.append(f"non-insecure codes: {report.counterexamples[:5]}")
    if len(report.witnesses) != D2_CODES:
        problems.append(f"{len(report.witnesses)} witnesses, expected {D2_CODES}")
    witnesses = _sha256(repr([(name, w.to_json_dict())
                              for name, w in report.witnesses.items()]))
    counts = sorted((k.value, v) for k, v in report.level_counts.items())
    return problems, (report.total_codes, counts, witnesses)


def _passive_sweep(m):
    passive = m.ae.AttackClass.DETERMINISTIC_PASSIVE
    insecure = m.ae.SecurityLevel.INSECURE
    total = 0
    imperfect = []
    for code in m.oc.enumerate_onehop_codes(2):
        total += 1
        if m.ae.classify(code, passive).level is not insecure:
            imperfect.append(code)
    equivalent = [m.oc.is_equivalent_to_standard(code) for code in imperfect]
    return total, [code.name for code in imperfect], equivalent


def _check_passive_sweep(result):
    total, names, equivalent = result
    problems = []
    if total != D2_CODES:
        problems.append(f"{total} codes enumerated, expected {D2_CODES}")
    if len(names) != D2_IMPERFECT:
        problems.append(f"{len(names)} imperfect codes, expected {D2_IMPERFECT}")
    if not all(equivalent):
        problems.append("an imperfect code is not standard-equivalent")
    return problems, result


def _check_affine(d):
    def check(report):
        pairs, correct = AFFINE_SWEEP[d]
        problems = []
        if (report.pairs_examined, report.correct_codes) != (pairs, correct):
            problems.append(f"d={d}: {report.pairs_examined} pairs and "
                            f"{report.correct_codes} correct codes, expected "
                            f"{pairs} and {correct}")
        if not report.all_insecure or report.insecure != report.correct_codes:
            problems.append(f"d={d}: affine sweep found non-insecure codes")
        return problems, report
    return check


def sweep_operations(m, inputs: dict) -> list[Op]:
    adaptive_passive = m.ae.AttackClass.ADAPTIVE_PASSIVE
    ops = [Op("nonexistence-d2",
              lambda: m.ae.exhaustive_nonexistence_check(2, adaptive_passive),
              _check_nonexistence),
           Op("passive-sweep-d2", lambda: _passive_sweep(m), _check_passive_sweep)]
    for d in (2, 3):
        ops.append(Op(f"affine-sweep-d{d}",
                      lambda d=d: m.ae.exhaustive_scalar_linear_check(d),
                      _check_affine(d)))
    return ops


# ---------------------------------------------------------------------------
# maxset: anti-Latin catalogs, compatibility graphs and clique search

MAX_SET_D3 = {"one-to-one": 3, "decodable": 3}


def maxset_inputs(seed: int) -> dict:
    # exact searches over complete catalogs: nothing to draw from the seed
    return {}


def _squares_key(squares) -> list:
    return [sq.rows for sq in squares]


def _check_max_set(m, mode):
    predicate = {"one-to-one": m.al.is_one_to_one_pair,
                 "decodable": m.al.is_decodable_pair}[mode]

    def check(result):
        problems = []
        if not result.exact or result.size != MAX_SET_D3[mode]:
            problems.append(f"{mode}: size {result.size} (exact={result.exact}), "
                            f"expected {MAX_SET_D3[mode]}")
        if len(result.squares) != result.size:
            problems.append(f"{mode}: certificate has {len(result.squares)} squares")
        squares = result.squares
        for sq in squares:
            if not m.al.is_anti_latin(sq.rows):
                problems.append(f"{mode}: certificate square is not anti-Latin")
        for i in range(len(squares)):
            for j in range(i + 1, len(squares)):
                if not predicate(squares[i], squares[j]):
                    problems.append(f"{mode}: certificate pair {i},{j} fails")
        return problems, (result.size, _squares_key(squares))
    return check


def _check_pair_d3(m):
    def check(result):
        problems = []
        if not result.found or not m.al.is_decodable_pair(*result.pair):
            problems.append("d=3: no verified decodable pair")
        return problems, (result.examined, _squares_key(result.pair or ()))
    return check


def _check_pair_d2(result):
    problems = []
    if result.found or not result.proven_empty:
        problems.append("d=2: a decodable pair was reported or not proven absent")
    return problems, (result.found, result.proven_empty, result.examined)


def maxset_operations(m, inputs: dict) -> list[Op]:
    ops = [Op(f"max-set-{mode}",
              lambda mode=mode: m.al.max_mutual_set(3, mode, "exact"),
              _check_max_set(m, mode))
           for mode in ("one-to-one", "decodable")]
    ops.append(Op("find-pair-d3", lambda: m.al.find_decodable_pair(3), _check_pair_d3(m)))
    ops.append(Op("nonexistence-d2", lambda: m.al.find_decodable_pair(2), _check_pair_d2))
    return ops


# ---------------------------------------------------------------------------
# theory: exact distributions, Han inequalities, wiretap-II, MDS, min-cuts

HAN_TABLES = {3: 12000, 4: 8000}
WIRETAP2 = ((3, 1, 3), (4, 2, 5), (5, 2, 7))
MDS = (4, 2, 7)
RANDOM_DAGS = 300


def _weight_table(rng: random.Random, k: int) -> dict:
    # variables X, Y1..Yk over Z_2; a quarter of the cells get zero weight
    keys = list(product(range(2), repeat=k + 1))
    weights = {key: rng.randint(1, 32) for key in keys if rng.random() >= 0.25}
    if not weights:
        weights[keys[rng.randrange(len(keys))]] = 1
    return weights


def _random_dag(rng: random.Random) -> tuple[int, list[tuple[int, int]], int]:
    """Node count, edges i -> j with i < j, and the tap budget r."""
    n = rng.randint(4, 9)
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.45]
    for j in range(1, n):
        if not any(v == j for _, v in edges):
            edges.append((rng.randrange(j), j))
    return n, edges, rng.randint(0, 3)


def theory_inputs(seed: int) -> dict:
    rng = random.Random(seed)
    return {
        "tables": [(k, _weight_table(rng, k))
                   for k, count in HAN_TABLES.items() for _ in range(count)],
        "dags": [_random_dag(rng) for _ in range(RANDOM_DAGS)],
    }


def _han_op(m, i: int, k: int, weights: dict) -> Op:
    variables = (("X", 2),) + tuple((f"Y{j}", 2) for j in range(1, k + 1))
    groups = tuple(f"Y{j}" for j in range(1, k + 1))
    cyclic = [(j, (j + 1) % k) for j in range(k)]
    r = i % k + 1
    with_collection = i % 5 == 0

    def run():
        dist = m.it.JointDistribution.from_weights(variables, weights)
        subsets = m.it.check_han_subsets(dist, groups, "X", r)
        collection = (m.it.check_han_collection(dist, groups, "X", cyclic, 2)
                      if with_collection else None)
        return subsets, collection

    def check(result):
        subsets, collection = result
        problems = []
        if not subsets.holds:
            problems.append(f"table {i}: Han subsets fails at r={r}")
        if r == k and subsets.slack != 0.0:
            problems.append(f"table {i}: equality case has slack {subsets.slack!r}")
        if collection is not None and not collection.holds:
            problems.append(f"table {i}: Han collection fails")
        return problems, (subsets.slack, collection.slack if collection else None)

    return Op(f"han-k{k}-{i}", run, check)


def _wiretap2_op(m, k: int, r: int, q: int) -> Op:
    def check(report):
        problems = []
        if not (report.decode_ok and report.all_taps_zero
                and report.max_leakage_bits == 0.0):
            problems.append(f"wiretap-II ({k},{r},{q}) leaks or fails to decode")
        if report.subsets_checked != comb(k, r):
            problems.append(f"wiretap-II ({k},{r},{q}) checked "
                            f"{report.subsets_checked} subsets, expected {comb(k, r)}")
        return problems, report

    return Op(f"wiretap2-{k}-{r}-{q}",
              lambda: m.nc.wiretap2_verify(m.nc.WiretapIICode.build(k, r, q)), check)


def _mds_op(m) -> Op:
    def run():
        generator = m.alg.build_mds_generator(*MDS)
        return generator.entries, m.alg.verify_mds(generator)

    def check(result):
        return ([] if result[1] else ["MDS generator fails verification"]), result

    return Op("mds", run, check)


def _fig1_op(m) -> Op:
    def check(caps):
        got = (caps.mincut1, caps.mincut2, caps.c2, caps.c1_lower, caps.c1_upper)
        return ([] if got == (3, 2, 0, 0, 1) else [f"fig1 capacities {got}"]), got

    return Op("fig1", lambda: m.nc.rwiretap_capacities(m.nc.fig1_network(), 2), check)


def _dag_op(m, i: int, n: int, edges: list, r: int) -> Op:
    def run():
        names = [str(v) for v in range(n)]
        nodes = ((names[0], m.nc.NodeInfo("source", has_message=True)),) + tuple(
            (names[v], m.nc.NodeInfo("intermediate")) for v in range(1, n - 1)) + (
            (names[-1], m.nc.NodeInfo("terminal")),)
        net = m.nc.WiretapNetwork(nodes, tuple((names[u], names[v]) for u, v in edges))
        return m.nc.rwiretap_capacities(net, r)

    def check(caps):
        want = max(caps.mincut1 - r, 0)
        ok = caps.collapsed and caps.c1_lower == caps.c1_upper == want
        return ([] if ok else [f"dag {i}: capacities do not collapse: {caps}"]), caps

    return Op(f"dag-{i}", run, check)


def theory_operations(m, inputs: dict) -> list[Op]:
    ops = [_han_op(m, i, k, w) for i, (k, w) in enumerate(inputs["tables"])]
    ops += [_wiretap2_op(m, *krq) for krq in WIRETAP2]
    ops += [_mds_op(m), _fig1_op(m)]
    ops += [_dag_op(m, i, *dag) for i, dag in enumerate(inputs["dags"])]
    return ops


class Workload(NamedTuple):
    make_inputs: Callable[[int], dict]
    operations: Callable[[object, dict], list[Op]]


WORKLOADS = {
    "classify": Workload(classify_inputs, classify_operations),
    "sweep": Workload(sweep_inputs, sweep_operations),
    "maxset": Workload(maxset_inputs, maxset_operations),
    "theory": Workload(theory_inputs, theory_operations),
}
