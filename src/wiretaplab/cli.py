"""Command-line surface for the wiretap lab.

Subcommands: classify, antilatin {verify,xi,pair-check,find,maxset},
capacity, mincut, mds {build,verify}, wiretap2, han.  No environment
variables are read.  Exit codes: 0 success, 1 expectation failed,
2 usage error, 3 search budget exhausted.  All randomized searches take
an explicit seed (fixed default), so identical arguments produce byte-
identical JSON.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys
from functools import lru_cache
from typing import Optional, Sequence

from . import anti_latin as al
from . import attack_engine as ae
from . import network_capacity as nc
from .algebra import Matrix, build_mds_generator, verify_mds
from .errors import BudgetError
from .info_theory import (
    JointDistribution,
    check_han_collection,
    check_han_subsets,
    random_rational_distribution,
)
from .onehop_codes import (
    anti_latin_code,
    check_correctness,
    scalar_linear_code,
    standard_nonlinear_code,
    vector_linear_code,
)

SCHEMA = "wiretaplab/v1"
DEFAULT_SEED = al.DEFAULT_SEED

# shorthand: "active" is modification without re-selection, "adaptive"
# is re-selection without modification; the combined strongest class
# keeps its full name
_CLASS_ALIASES = {
    "passive": ae.AttackClass.DETERMINISTIC_PASSIVE,
    "active": ae.AttackClass.DETERMINISTIC_ACTIVE,
    "adaptive": ae.AttackClass.ADAPTIVE_PASSIVE,
}


def _parse_class(name: str) -> ae.AttackClass:
    if name in _CLASS_ALIASES:
        return _CLASS_ALIASES[name]
    return ae.AttackClass.from_name(name)


def _emit(args, payload: dict, text: str) -> None:
    """Print the schema-tagged JSON line of payload, or text as it is."""
    if args.format == "json":
        print(json.dumps({"schema": SCHEMA, **payload}, sort_keys=True))
    else:
        print(text, end="")


def _read_file(path: Optional[str], flag: str) -> str:
    if path is None:
        raise ValueError(f"{flag} FILE is required (or --selftest)")
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _load_square(path: Optional[str], flag: str) -> al.AntiLatinSquare:
    return al.AntiLatinSquare.from_text(_read_file(path, flag))


def _load_network(spec: str) -> nc.WiretapNetwork:
    try:
        with open(spec, "r", encoding="utf-8") as fh:
            return nc.WiretapNetwork.from_text(fh.read())
    except FileNotFoundError:
        if spec in nc.BUILTIN_NETWORKS:
            return nc.WiretapNetwork.from_text(nc.BUILTIN_NETWORKS[spec])
        raise


# --family name -> (shots, atoms as a power of d, builder(d, seed)).  A
# builder looks its constructor up in this module when it runs, so a
# wrapper put on that name here sees the call.
_FAMILIES = {
    "scalar-linear": (1, 3, lambda d, seed: scalar_linear_code(d)),
    "scalar-linear-norand":
        (1, 2, lambda d, seed: scalar_linear_code(d, relay_randomness=False)),
    "standard": (1, 2, lambda d, seed: standard_nonlinear_code(d)),
    "anti-latin": (1, 2, lambda d, seed: anti_latin_code(*ae.anti_latin_pair(d, seed))),
    "vector-linear": (2, 4, lambda d, seed: vector_linear_code(d)),
}


def _family_shape(family: str, d: int) -> tuple[int, int]:
    """(shots, atoms) of the family's code over Z_d, known before it is built."""
    shots, exponent, _ = _FAMILIES[family]
    return shots, d ** exponent


def _build_family_code(family: str, d: int, seed: int):
    return _FAMILIES[family][2](d, seed)


# ---------------------------------------------------------------------------
# classify

def cmd_classify(args) -> int:
    if args.table:
        for flag, value in (("--family", args.family), ("--class", args.klass)):
            if value is not None:
                raise ValueError(f"--table takes no {flag}")
        table = ae.classification_table([int(tok) for tok in args.d.split(",")])
        if args.format == "csv":
            print(table.to_csv(), end="")
        else:
            _emit(args, {"table": table.to_json_dict()}, table.to_text())
        mismatches = ae.table_mismatches(table) if args.expect_table1 else []
        for line in mismatches:
            print(f"MISMATCH {line}", file=sys.stderr)
        return 1 if mismatches else 0
    for flag, given in (("--format csv", args.format == "csv"),
                        ("--expect-table1", args.expect_table1)):
        if given:
            raise ValueError(f"{flag} needs --table")
    if not args.family or not args.klass:
        raise ValueError("classify needs --family and --class (or --table)")
    d = int(args.d)
    klass = _parse_class(args.klass)
    if d >= 2:  # smaller d is refused where the code is built
        ae.check_classify_budget(d, *_family_shape(args.family, d), klass)
    verdict = ae.classify(_build_family_code(args.family, d, args.seed), klass)
    payload = verdict.to_json_dict()
    _emit(args, {"verdict": payload},
          f"{verdict.code_id} vs {verdict.klass.value}: {verdict.level.value}\n"
          f"max leakage: {verdict.max_leakage_bits:.6f} bits\n"
          f"witness: {json.dumps(payload['witness'], sort_keys=True)}\n")
    return 0


def _selftest_classify():
    code = scalar_linear_code(2)
    yield "scalar transcript", code.transmit(1, (0,), 1) == ((0, 1), (1, 0), 1)
    std = standard_nonlinear_code(3)
    yield "standard zero-scramble", std.transmit(1, (0,))[1] == (0, 1)
    yield "built-ins correct", all(
        check_correctness(c) for c in (code, std, vector_linear_code(2)))


# ---------------------------------------------------------------------------
# antilatin

def cmd_antilatin_verify(args) -> int:
    rows = [[int(t) for t in line.split()]
            for line in _read_file(args.file, "--file").strip().splitlines()
            if line.strip()]
    result = al.is_anti_latin(rows)
    _emit(args, {"anti_latin": result},
          "anti-Latin\n" if result else "not anti-Latin\n")
    return 0


def _selftest_antilatin_verify():
    yield "constant matrix", al.is_anti_latin([[0, 0], [0, 0]])
    yield "latin square rejected", not al.is_anti_latin([[0, 1, 2], [1, 2, 0], [2, 0, 1]])


def cmd_antilatin_xi(args) -> int:
    a, b = _load_square(args.a, "--a"), _load_square(args.b, "--b")
    xs = al.xi_set(a, b, args.z, args.m)
    members = sorted(xs.members)
    _emit(args, {"z": xs.z, "m": xs.m, "members": members},
          f"Xi(z={xs.z}, m={xs.m}) = {{{', '.join(map(str, members))}}}\n")
    return 0


def _selftest_antilatin_xi():
    a = al.AntiLatinSquare.from_rows([[0, 0, 0], [0, 0, 0], [0, 0, 0]])
    b = al.reference_decodable_pair(3)[1]
    yield "diagonal xi set", (al.xi_set(a, b, 0, 0).members
                              == frozenset(b.entry(l, l) for l in range(3)))
    yield "empty xi set", al.xi_set(a, b, 1, 0).members == frozenset()


def cmd_antilatin_pair_check(args) -> int:
    a, b = _load_square(args.a, "--a"), _load_square(args.b, "--b")
    payload = {"one_to_one": al.is_one_to_one_pair(a, b),
               "decodable": al.is_decodable_pair(a, b)}
    _emit(args, payload, f"one-to-one: {payload['one_to_one']}\n"
                         f"decodable:  {payload['decodable']}\n")
    return 0


def _selftest_antilatin_pair_check():
    pair = al.reference_decodable_pair(3)
    yield "reference pair one-to-one", al.is_one_to_one_pair(*pair)
    yield "reference pair decodable", al.is_decodable_pair(*pair)


def cmd_antilatin_find(args) -> int:
    result = al.find_decodable_pair(args.d, seed=args.seed, budget=args.budget)
    if result.found:
        a, b = result.pair
        _emit(args, {"found": True, "method": result.method,
                     "examined": result.examined,
                     "a": [list(r) for r in a.rows],
                     "b": [list(r) for r in b.rows]},
              f"found ({result.method}, {result.examined} candidates)\n"
              f"{a.to_text()}--\n{b.to_text()}")
        return 0
    if result.proven_empty:
        _emit(args, {"found": False, "proven_empty": True,
                     "examined": result.examined},
              f"NotFound: no decodable pair exists for d={args.d} "
              f"(exhaustive over {result.examined} candidate pairs)\n")
        return 0
    raise BudgetError(f"no decodable pair found for d={args.d} "
                      f"after {result.examined} steps")


def _selftest_antilatin_find():
    r2 = al.find_decodable_pair(2)
    yield "d=2 proven not found", not r2.found and r2.proven_empty


def cmd_antilatin_maxset(args) -> int:
    result = al.max_mutual_set(args.d, args.mode, args.method,
                               seed=args.seed, budget=args.budget)
    kind = "maximum" if result.exact else "lower bound"
    _emit(args, {"d": args.d, "mode": result.mode, "method": result.method,
                 "exact": result.exact, "size": result.size,
                 "squares": [[list(r) for r in sq.rows] for sq in result.squares]},
          f"{result.mode} mutual set, {kind}: size {result.size}\n"
          + "".join(f"{sq.to_text()}--\n" for sq in result.squares))
    return 0


def _selftest_antilatin_maxset():
    r = al.max_mutual_set(2, "decodable", "exact")
    yield "d=2 singleton", r.size == 1 and r.exact


# ---------------------------------------------------------------------------
# capacity / mincut

def cmd_capacity(args) -> int:
    if args.layered:
        net = nc.LayeredUnicastNetwork.from_json_dict(json.loads(args.layered))
        caps = nc.unicast_capacities(net)
        _emit(args, caps.to_json_dict(),
              f"C1 = {caps.c1_bits:.6f} bits/use\nC2 = {caps.c2_bits:.6f} bits/use\n")
        return 0
    if not args.net:
        raise ValueError("capacity needs --layered JSON or --net FILE with --r")
    caps = nc.rwiretap_capacities(_load_network(args.net), args.r)
    collapsed = " (collapsed)" if caps.collapsed else ""
    note = "note: r exceeds a cut; capacities clamped at 0\n" if caps.clamped else ""
    _emit(args, caps.to_json_dict(),
          f"mincut1 = {caps.mincut1}, mincut2 = {caps.mincut2}\nC2 = {caps.c2}\n"
          f"C1 in [{caps.c1_lower}, {caps.c1_upper}]{collapsed}\n{note}")
    return 0


def _selftest_capacity():
    caps = nc.unicast_capacities(nc.LayeredUnicastNetwork((2,), (1,), 2))
    yield "single-layer formula", caps.c1_bits == 1.0 and caps.c2_bits == 1.0
    yield "r=0 gives mincut", nc.rwiretap_capacities(nc.one_hop_network(), 0).c2 == 2


def cmd_mincut(args) -> int:
    net = _load_network(args.net)
    m1, m2 = nc.mincut1(net), nc.mincut2(net)
    _emit(args, {"mincut1": m1, "mincut2": m2,
                 "pseudo_sources": list(net.pseudo_sources())},
          f"mincut1 = {m1}\nmincut2 = {m2}\n")
    return 0


def _selftest_mincut():
    net = nc.one_hop_network()
    yield "one-hop cuts", nc.mincut1(net) == 2 and nc.mincut2(net) == 2
    single = nc.WiretapNetwork.from_text(
        "node s source message\nnode t terminal\nedge s t\n")
    yield "single edge", nc.mincut1(single) == 1


# ---------------------------------------------------------------------------
# mds / wiretap2

def cmd_mds_build(args) -> int:
    matrix = build_mds_generator(args.k, args.r, args.q)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(matrix.to_text())
    _emit(args, {"k": args.k, "r": args.r, "q": args.q,
                 "rows": [list(matrix.row(i)) for i in range(matrix.rows)]},
          matrix.to_text())
    return 0


def _selftest_mds_build():
    yield "smallest generator", build_mds_generator(2, 1, 2).entries == (1, 1)


def cmd_mds_verify(args) -> int:
    result = verify_mds(Matrix.from_text(_read_file(args.file, "--file")))
    _emit(args, {"mds": result}, "MDS\n" if result else "not MDS\n")
    return 0 if result or not args.expect else 1


def _selftest_mds_verify():
    yield "identity MDS", verify_mds(Matrix.from_rows([[1, 0], [0, 1]], 3))
    yield "equal columns rejected", not verify_mds(Matrix.from_rows([[1, 1], [2, 2]], 5))


def cmd_wiretap2(args) -> int:
    report = nc.wiretap2_verify(nc.WiretapIICode.build(args.k, args.r, args.q))
    _emit(args, report.to_json_dict(),
          f"(k={report.k}, r={report.r}) over F_{report.q}: "
          f"decode {'ok' if report.decode_ok else 'FAILED'}, "
          f"{report.subsets_checked} tap subsets, "
          f"leakage {'all zero' if report.all_taps_zero else report.max_leakage_bits}\n")
    return 0 if report.decode_ok and report.all_taps_zero else 1


def _selftest_wiretap2():
    report = nc.wiretap2_verify(nc.WiretapIICode.build(2, 0, 2))
    yield "r=0 invertible map", report.decode_ok and report.all_taps_zero


# ---------------------------------------------------------------------------
# han

# Each sample projects at most all 2^(k+1) cells of its distribution
# once per r-subset.  Measured as the wall time of whole `han` runs over
# samples x C(k, r) x 2^(k+1) (2-vCPU VM, Python 3.11): about 0.45 us per
# cell at k = 8 and k = 12, and 1.2 us at k = 4, where drawing each
# sample costs more than its projections; so this cap is 30 to 80 s of
# work.  A sample whose slack is too close to 0 for its float sign takes
# the exact test of info_theory, a few logs per distinct weight (see
# _HAN_LOG_DIGITS there); at k = 3 and 4 only the r = k samples reach it,
# and their marginals all cancel, so it costs nothing there.
_HAN_CELL_CAP = 1 << 26


def cmd_han(args) -> int:
    if args.samples < 1:
        raise ValueError(f"--samples must be at least 1, got {args.samples}")
    if not 1 <= args.r <= args.k:
        raise ValueError(f"need 1 <= --r <= --k, got --r {args.r} and --k {args.k}")
    cells = args.samples * math.comb(args.k, args.r) * 2 ** (args.k + 1)
    if cells > _HAN_CELL_CAP:
        raise BudgetError(
            f"{args.samples} samples x C({args.k}, {args.r}) subsets x "
            f"2^{args.k + 1} cells = {cells} projected cells exceed the cap "
            f"of {_HAN_CELL_CAP}")
    rng = random.Random(args.seed)
    variables = [("X", 2)] + [(f"Y{i + 1}", 2) for i in range(args.k)]
    groups = [f"Y{i + 1}" for i in range(args.k)]
    violations = 0
    min_slack = None
    for _ in range(args.samples):
        dist = random_rational_distribution(rng, variables)
        res = check_han_subsets(dist, groups, "X", args.r)
        if not res.holds:
            violations += 1
        if min_slack is None or res.slack < min_slack:
            min_slack = res.slack
    _emit(args, {"k": args.k, "r": args.r, "samples": args.samples,
                 "seed": args.seed, "violations": violations,
                 "min_slack": min_slack},
          f"k={args.k} r={args.r}: {args.samples} seeded distributions, "
          f"{violations} violations, min slack {min_slack:.6g}\n")
    return 0 if violations == 0 else 1


def _selftest_han():
    dist = JointDistribution.uniform((("Y1", 2), ("Y2", 2)))
    res = check_han_collection(dist, ("Y1", "Y2"), (), [(0, 1)], 1)
    yield "single-collection equality", res.holds and res.slack == 0.0
    res = check_han_subsets(dist, ("Y1", "Y2"), (), 2)
    yield "r=k equality", res.holds and res.slack == 0.0


# ---------------------------------------------------------------------------
# parser

def _add_common(sub, func, selftests, *, fmt=("text", "json"), seed=False,
                budget=None):
    """Add the shared options; register the command and its selftests, a
    generator of (name, passed) checks that main prints one at a time."""
    sub.add_argument("--format", choices=fmt, default="text")
    sub.add_argument("--selftest", action="store_true",
                     help="run this command's built-in examples and exit")
    if seed:
        sub.add_argument("--seed", type=int, default=DEFAULT_SEED)
    if budget is not None:
        sub.add_argument("--budget", type=int, default=budget)
    sub.set_defaults(func=func, selftests=selftests)


# Built on the first call and shared after: parse_args leaves the parser
# as it was and returns a fresh namespace, and the defaults it sets are the
# cmd_* and _selftest_* functions themselves, which look up what they call
# when they run.  Building the tree costs about 2 ms (2-vCPU x86-64 VM,
# CPython 3.11), more than a small classify, so a process that calls main
# repeatedly builds it once.
@lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wiretaplab",
        description="verification lab for one-hop secure network coding")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("classify", help="classify a code family against an attack class")
    p.add_argument("--family", choices=list(_FAMILIES))
    p.add_argument("--d", default="2",
                   help="alphabet size (comma list with --table)")
    p.add_argument("--class", dest="klass",
                   help="deterministic-passive, adaptive-passive, deterministic-active, "
                        "adaptive-active, or shorthand passive/active/adaptive")
    p.add_argument("--table", action="store_true",
                   help="print the full classification grid for --d values")
    p.add_argument("--expect-table1", action="store_true",
                   help="exit 1 unless the grid matches the expected summary")
    _add_common(p, cmd_classify, _selftest_classify, fmt=("text", "json", "csv"),
                seed=True)

    anti = subs.add_parser("antilatin", help="anti-Latin square tools")
    anti_subs = anti.add_subparsers(dest="verb", required=True)

    p = anti_subs.add_parser("verify", help="check the anti-Latin property")
    p.add_argument("--file", help="square file: d lines of d integers")
    _add_common(p, cmd_antilatin_verify, _selftest_antilatin_verify)

    p = anti_subs.add_parser("xi", help="compute one Xi set")
    p.add_argument("--a")
    p.add_argument("--b")
    p.add_argument("--z", type=int, default=0)
    p.add_argument("--m", type=int, default=0)
    _add_common(p, cmd_antilatin_xi, _selftest_antilatin_xi)

    p = anti_subs.add_parser("pair-check", help="one-to-one and decodability checks")
    p.add_argument("--a")
    p.add_argument("--b")
    _add_common(p, cmd_antilatin_pair_check, _selftest_antilatin_pair_check)

    p = anti_subs.add_parser("find", help="search for a decodable pair")
    p.add_argument("--d", type=int, required=False, default=3)
    _add_common(p, cmd_antilatin_find, _selftest_antilatin_find, seed=True,
                budget=400_000)

    p = anti_subs.add_parser("maxset", help="mutually compatible square sets")
    p.add_argument("--d", type=int, default=3)
    p.add_argument("--mode", choices=["decodable", "one-to-one"], default="decodable")
    p.add_argument("--method", choices=["exact", "heuristic"], default="exact")
    _add_common(p, cmd_antilatin_maxset, _selftest_antilatin_maxset, seed=True,
                budget=60_000)

    p = subs.add_parser("capacity", help="r-wiretap or layered unicast capacities")
    p.add_argument("--layered", help='JSON like {"c":2,"k":[2,2],"r":[1,1],"q":2}')
    p.add_argument("--net", help="network file or builtin name (fig1, one-hop)")
    p.add_argument("--r", type=int, default=0)
    _add_common(p, cmd_capacity, _selftest_capacity)

    p = subs.add_parser("mincut", help="both mincuts of a wiretap network")
    p.add_argument("--net", required=False, default="fig1")
    _add_common(p, cmd_mincut, _selftest_mincut)

    mds = subs.add_parser("mds", help="MDS generator matrices")
    mds_subs = mds.add_subparsers(dest="verb", required=True)

    p = mds_subs.add_parser("build", help="build a systematic MDS generator")
    p.add_argument("--k", type=int, default=4)
    p.add_argument("--r", type=int, default=2)
    p.add_argument("--q", type=int, default=7)
    p.add_argument("--out", help="also write the matrix to this file")
    _add_common(p, cmd_mds_build, _selftest_mds_build)

    p = mds_subs.add_parser("verify", help="verify every square submatrix invertible")
    p.add_argument("--file", required=False)
    p.add_argument("--expect", action="store_true",
                   help="exit 1 when the matrix is not MDS")
    _add_common(p, cmd_mds_verify, _selftest_mds_verify)

    p = subs.add_parser("wiretap2", help="verify a (k, r) wiretap-II code")
    p.add_argument("--q", type=int, default=3)
    p.add_argument("--k", type=int, default=3)
    p.add_argument("--r", type=int, default=1)
    _add_common(p, cmd_wiretap2, _selftest_wiretap2)

    p = subs.add_parser("han", help="sweep the entropy subset inequality")
    p.add_argument("--k", type=int, default=3)
    p.add_argument("--r", type=int, default=2)
    p.add_argument("--samples", type=int, default=1000)
    _add_common(p, cmd_han, _selftest_han, seed=True)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if not args.selftest:
            return args.func(args)
        failed = False
        for name, passed in args.selftests():
            print(f"selftest {name}: {'ok' if passed else 'FAIL'}")
            failed |= not passed
        return 1 if failed else 0
    except BudgetError as exc:
        print(f"budget exhausted: {exc}", file=sys.stderr)
        return 3
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
