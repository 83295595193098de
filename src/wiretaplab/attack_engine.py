"""Wiretap attack enumeration, exact simulation, and code classification.

Eve taps one first-layer edge (e(1) or e(2)) and one second-layer edge
(e(3) or e(4)).  Four attack classes are modeled: the second edge may be
fixed (deterministic) or chosen from the first observation (adaptive),
and the tapped first-layer symbol may be forwarded unchanged (passive)
or replaced by a function of the observed value (active).  Layer-1
symbols are observable before layer-2 symbols; adaptivity only flows
forward.

Eve's view is the pair (true first observation, second observation); a
substituted value is her own choice and carries no information.  All
laws are exact: atoms are uniform over (message, scrambles, relay
randomness).

classify covers every strategy of a class with one optimiser over
per-observation slices.  The objective n*H(M | view, W) is a sum over
slices, and each slice term is log2 of a ratio of integers, so
strategies are ranked by exact integer cross-multiplication.

Every slice term is read off three columns over the atoms (M, the
tapped view and one second-layer column W) by _tap_terms, a memo of
bounded size.  A passive tap reads the code's own Y3 and Y4.  A map
changes the relay input of atoms that observed v only through the value
x it gives v, so the active slice (v, x) is the slice v under the
constant map x: one pass over the atoms under the d constant maps (d^2
per-shot pairs for two-shot codes) gives every slice, d*d slices
instead of d^d full laws.  A single-shot view picks its own substitute;
a two-shot view (vA, vB) sees the map at both vA and vB, so two-shot
active classes walk the d^d maps, each looking its views' terms up by
the substitute (mod[vA], mod[vB]).

enumerate_attacks and simulate_attack evaluate strategies one at a time,
literally; they are the reference the optimiser is tested against.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from itertools import product
from operator import getitem, itemgetter
from typing import Iterable, Iterator, Optional, Sequence

from .anti_latin import DEFAULT_SEED, find_decodable_pair, reference_decodable_pair
from .errors import BudgetError
from .info_theory import JointDistribution, _determines, _entropy_of_weights, _project
from .onehop_codes import (
    OneHopCode,
    anti_latin_code,
    enumerate_code_tables,
    enumerate_onehop_codes,  # kept in this namespace: perfbench wraps it here
    scalar_linear_code,
    standard_nonlinear_code,
    vector_linear_code,
)


class AttackClass(Enum):
    DETERMINISTIC_PASSIVE = "deterministic-passive"
    ADAPTIVE_PASSIVE = "adaptive-passive"
    DETERMINISTIC_ACTIVE = "deterministic-active"
    ADAPTIVE_ACTIVE = "adaptive-active"

    # read off the member's own value, not by looking members up: a passive
    # classify reads these six times
    @property
    def is_active(self) -> bool:
        return "-active" in self._value_

    @property
    def is_adaptive(self) -> bool:
        return "adaptive-" in self._value_

    @classmethod
    def from_name(cls, name: str) -> "AttackClass":
        for k in cls:
            if k.value == name:
                return k
        raise ValueError(f"unknown attack class {name!r}")


class SecurityLevel(Enum):
    PERFECT = "perfectly-secret"
    IMPERFECT = "imperfectly-secret"
    INSECURE = "insecure"


# worst-to-best for family summaries
_LEVEL_RANK = {SecurityLevel.INSECURE: 0, SecurityLevel.IMPERFECT: 1,
               SecurityLevel.PERFECT: 2}


def _identity(d: int) -> tuple[int, ...]:
    return tuple(range(d))


@dataclass(frozen=True)
class AttackStrategy:
    """One complete wiretap plan.

    modification maps the observed first-layer symbol to the value the
    relay receives (identity for passive attacks; applied in every shot
    for two-shot codes).  selector maps each possible first-layer view,
    in lexicographic order, to the tapped second-layer edge; a constant
    selector is a deterministic attack.
    """

    d: int
    shots: int
    klass: AttackClass
    first_edge: int
    modification: tuple[int, ...]
    selector: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.first_edge not in (1, 2):
            raise ValueError("first_edge must be 1 or 2")
        if len(self.modification) != self.d or \
                not all(0 <= v < self.d for v in self.modification):
            raise ValueError("modification must be a map on Z_d")
        if len(self.selector) != self.d ** self.shots or \
                not all(e in (3, 4) for e in self.selector):
            raise ValueError("selector must map every first-layer view to e(3)/e(4)")
        if not self.klass.is_active and self.modification != _identity(self.d):
            raise ValueError("passive attacks must carry the identity modification")
        if not self.klass.is_adaptive and len(set(self.selector)) != 1:
            raise ValueError("deterministic attacks must have a constant selector")

    @property
    def fixed_second_edge(self) -> Optional[int]:
        return self.selector[0] if len(set(self.selector)) == 1 else None

    def view_index(self, view: tuple[int, ...]) -> int:
        idx = 0
        for v in view:
            idx = idx * self.d + v
        return idx

    def second_edge_for(self, view: tuple[int, ...]) -> int:
        return self.selector[self.view_index(view)]

    def to_json_dict(self) -> dict:
        out = {
            "class": self.klass.value,
            "first_edge": self.first_edge,
            "modification": list(self.modification),
        }
        fixed = self.fixed_second_edge
        if fixed is not None and not self.klass.is_adaptive:
            out["second_edge"] = fixed
        else:
            out["selector"] = list(self.selector)
        return out


_ENUMERATION_CAP = 2_500_000
# largest alphabet whose d^d substitution maps are enumerated one by one
_ACTIVE_MAP_CAP_D = 6
# classify reads the relay once per atom, and an active class once per atom
# and per-shot substitute.  Passive reads cost the most: near the cap,
# standard_nonlinear_code(724) deterministic-passive (524176 reads) took 12 s
# after a 3.7 s build and vector_linear_code(26) adaptive-passive (456976)
# 11 s after 2.3 s, while standard_nonlinear_code(80) adaptive-active
# (512000) took 5.7 s; at 10^6 reads the passive classes took 24 to 39 s (one
# core of a 2-vCPU x86-64 VM, CPython 3.11).  So 2^19 reads is up to 16 s
# of build and classify on that core, about half a minute on one half as fast.
_CLASSIFY_READ_CAP = 1 << 19


def enumerate_attacks(d: int, klass: AttackClass,
                      shots: int = 1) -> list[AttackStrategy]:
    """Complete, duplicate-free strategy list in canonical order.

    Canonical order is first_edge, then modification map, then selector,
    each lexicographic; classify reports the first maximum-leakage
    strategy in this order.  Counts for single-shot codes: 4
    deterministic-passive, 2*2^d adaptive-passive, 4*d^d deterministic-
    active, and 2*d^d*2^d adaptive-active.  Two-shot selectors range over
    all d^2 first-layer views, so adaptive spaces grow to 2^(d^2)
    selectors.  The list exists for the literal reference evaluation
    (simulate_attack per strategy) that tests hold classify against;
    classify itself never materializes it.
    """
    if klass.is_active and d > _ACTIVE_MAP_CAP_D:
        raise BudgetError(f"active modification space d^d is out of budget "
                          f"for d > {_ACTIVE_MAP_CAP_D}")
    views = d ** shots
    mods = list(product(range(d), repeat=d)) if klass.is_active else [_identity(d)]
    total = 2 * len(mods) * (2 ** views if klass.is_adaptive else 2)
    if total > _ENUMERATION_CAP:
        raise BudgetError(
            f"{total} strategies exceed the enumeration budget; "
            "classification handles these spaces without materializing them")
    selectors = (list(product((3, 4), repeat=views)) if klass.is_adaptive
                 else [(3,) * views, (4,) * views])
    return [AttackStrategy(d, shots, klass, first_edge, mod, selector)
            for first_edge in (1, 2) for mod in mods for selector in selectors]


# ---------------------------------------------------------------------------
# exact simulation

def _base_law(code: OneHopCode, first_edge: int,
              modification: Sequence[int]) -> tuple[dict, int]:
    """Exact joint weights of (M, view..., Y3, Y4, decoded) under an attack.

    The view holds Eve's true observations on her first-layer edge, one
    per shot.  The relay consumes the modified symbol in every shot.
    """
    pos = first_edge - 1
    weights: dict[tuple, int] = {}
    count = 0
    for key in code.encoder_inputs():
        m, scrambles = key[0], key[1:]
        first = code.first_layer_symbols(m, scrambles)
        view = tuple(first[2 * shot + pos] for shot in range(code.shots))
        relay_in = list(first)
        for shot in range(code.shots):
            relay_in[2 * shot + pos] = modification[first[2 * shot + pos]]
        relay_in = tuple(relay_in)
        for lp in code.relay_random_values():
            y3, y4 = code.relay_output(relay_in, lp)
            atom = (m,) + view + (y3, y4, code.decoder[(y3, y4)])
            weights[atom] = weights.get(atom, 0) + 1
            count += 1
    return weights, count


def _view_variable_names(shots: int) -> tuple[str, ...]:
    return ("Z1",) if shots == 1 else ("Z1A", "Z1B")


def simulate_attack(code: OneHopCode, strategy: AttackStrategy) -> JointDistribution:
    """Exact joint law of (M, Eve's view, decoder output) for one strategy."""
    if strategy.d != code.d or strategy.shots != code.shots:
        raise ValueError("strategy shape does not match the code")
    base, total = _base_law(code, strategy.first_edge, strategy.modification)
    weights: dict[tuple, int] = {}
    s = code.shots
    for atom, w in base.items():
        m, view, y3, y4, mhat = atom[0], atom[1:1 + s], atom[1 + s], atom[2 + s], atom[3 + s]
        z2 = y3 if strategy.second_edge_for(view) == 3 else y4
        k = (m,) + view + (z2, mhat)
        weights[k] = weights.get(k, 0) + w
    d = code.d
    variables = [("M", d)] + [(n, d) for n in _view_variable_names(s)] + \
        [("Z2", d), ("MHAT", d)]
    return JointDistribution.from_weights(variables, weights)


# ---------------------------------------------------------------------------
# classification: one exact optimiser over per-observation slices

@dataclass(frozen=True)
class SecurityVerdict:
    """Outcome of classifying one code against one attack class."""

    code_id: str
    klass: AttackClass
    level: SecurityLevel
    max_leakage_bits: float
    witness: AttackStrategy

    def to_json_dict(self) -> dict:
        return {
            "code_id": self.code_id,
            "class": self.klass.value,
            "level": self.level.value,
            "max_leakage_bits": self.max_leakage_bits,
            "witness": self.witness.to_json_dict(),
        }


# An objective is a pair (num, den) of positive integers with
# log2(num / den) = n * H(M | ...) in bits, n the atom count of one
# attack.  Every strategy has the same n, so the smaller ratio leaks more.

def _less(a: tuple[int, int], b: tuple[int, int]) -> bool:
    return a[0] * b[1] < b[0] * a[1]


def _first_min(candidates: Iterable[tuple]) -> tuple:
    """First (objective, ...) candidate of least objective, in given order."""
    best = None
    for cand in candidates:
        if best is None or _less(cand[0], best[0]):
            best = cand
    return best


def _edge_choice(obj: tuple, edges: tuple[int, ...]) -> tuple:
    """Least of a slice's objectives over edges, and the first edge attaining it."""
    e = edges[-1] if _less(obj[edges[-1] - 3], obj[edges[0] - 3]) else edges[0]
    return obj[e - 3], e


def _level(objective: tuple[int, int], d: int, n: int) -> SecurityLevel:
    """Level of a least objective over n atoms that carry a uniform message.

    Ratio 1 means some view pins M.  n*H(M) = log2(d^n), so ratio d^n
    means no view tells anything about M.
    """
    if objective[0] == objective[1]:
        return SecurityLevel.INSECURE
    if objective[0] == objective[1] * d ** n:
        return SecurityLevel.PERFECT
    return SecurityLevel.IMPERFECT


# One entry per distinct (M, tap, W) column triple, passive or active.
# The d=2 sweeps meet a few hundred triples, the affine sweep 75 at d = 3
# and 605 at d = 5, a cold grid at d = 2, 3, 4 145, and that grid with
# perfbench's twelve verdicts at d = 4, 5 203, so a whole sweep fits; the
# bound keeps a long-running process from growing without end.
_TAP_MEMO_SIZE = 4096


@lru_cache(maxsize=_TAP_MEMO_SIZE)
def _tap_terms(messages: tuple[int, ...], tap: tuple[int, ...],
               w: tuple[int, ...]) -> tuple[tuple[tuple, ...], float]:
    """Every term a tap contributes through W, read off three atom columns.

    messages, tap and w give each equally likely atom's message, Eve's
    first-layer view (a two-shot view (vA, vB) coded as vA*d + vB) and
    the symbol W on her second-layer edge, in atom order.  Returns
    (views, mi).  views holds one (v, objective, n_v, h) per observed
    view v, in sorted order: the slice objective n_v*H(M | v, W) as the
    integer ratio (prod c_w^c_w, prod c_mw^c_mw), with c_w atoms showing
    (v, W = w) and c_mw of them carrying message m, the atoms n_v showing
    v, and h = H(M, W | v) - H(W | v) in floating point.  mi is
    I(M; view, W) in floating point.  Counts are kept in atom order, so
    every caller sums the same floats in the same order.
    """
    slices: dict[int, dict] = {}
    joint: dict[tuple[int, int, int], int] = {}
    for m, v, x in zip(messages, tap, w):
        pair = slices.setdefault(v, {})
        pair[m, x] = pair.get((m, x), 0) + 1
        joint[m, v, x] = joint.get((m, v, x), 0) + 1
    views = []
    for v in sorted(slices):
        pair = slices[v]
        n_v = sum(pair.values())
        by_w = _project(pair, (1,))
        num = den = 1
        for c in by_w.values():
            num *= c ** c
        for c in pair.values():
            den *= c ** c
        h = _entropy_of_weights(pair, n_v) - _entropy_of_weights(by_w, n_v)
        views.append((v, (num, den), n_v, h))
    n = len(messages)
    mi = _entropy_of_weights(_project(joint, (0,)), n) + \
        _entropy_of_weights(_project(joint, (1, 2)), n) - _entropy_of_weights(joint, n)
    return tuple(views), mi


def _objective(views: Iterable[tuple]) -> tuple[int, int]:
    """Objective of one fixed second-layer edge: the product of its view terms."""
    num = den = 1
    for _, obj, _, _ in views:
        num *= obj[0]
        den *= obj[1]
    return num, den


def _view_level(d: int, messages: tuple[int, ...], tap: tuple[int, ...],
                w: tuple[int, ...]) -> SecurityLevel:
    """Level of the deterministic-passive view (tap, W) over equally likely atoms."""
    return _level(_objective(_tap_terms(messages, tap, w)[0]), d, len(messages))


def _columns(code: OneHopCode,
             substitutes: Optional[Sequence[Sequence[Sequence[int]]]] = None
             ) -> tuple[tuple[int, ...], ...]:
    """(M, Y1, Y2, Y3, Y4) over the atoms, or (M, Y1, Y2) and (Y3, Y4) per substitute.

    Atoms run over encoder_inputs() x relay_random_values().  Column i of
    the first three is what Eve reads on e(i), a two-shot view (vA, vB)
    coded as vA*d + vB.  A substitute is one map per first-layer symbol
    (shot by shot, e(1) before e(2)) through which the relay reads that
    symbol; without substitutes the relay reads the symbols unchanged.
    """
    d = code.d
    relay_values = code.relay_random_values()
    atoms = []
    for key in code.encoder_inputs():
        m = key[0]
        first = code.first_layer_symbols(m, key[1:])
        if code.shots == 1:
            y1, y2 = first
        else:
            y1, y2 = first[0] * d + first[2], first[1] * d + first[3]
        if substitutes is None:
            relay_ins = (first,)
        else:
            relay_ins = [tuple(map(getitem, maps, first)) for maps in substitutes]
        for lp in relay_values:
            row = (m, y1, y2)
            for relay_in in relay_ins:
                row += code.relay_output(relay_in, lp)
            atoms.append(row)
    return tuple(zip(*atoms))


def _placed(code: OneHopCode, maps: dict[int, Sequence[int]]) -> tuple:
    """A substitute: maps[i] on first-layer symbol i, the identity elsewhere."""
    return tuple(maps.get(i, _identity(code.d)) for i in range(2 * code.shots))


def _passive_verdict(d: int, shots: int, klass: AttackClass,
                     columns: tuple[tuple[int, ...], ...]
                     ) -> tuple[SecurityLevel, AttackStrategy]:
    """(level, witness) of a passive class: its first optimum on the code's columns.

    Each tap edge reads the terms of W = Y3 and W = Y4.  A deterministic
    selector takes e(3) unless e(4) has the strictly smaller product; an
    adaptive one takes each view's smaller term, e(3) on ties and on
    views no atom reaches.  e(1) wins unless e(2) is strictly smaller.
    """
    messages, adaptive = columns[0], klass.is_adaptive
    best = None
    for first_edge in (1, 2):
        views3 = _tap_terms(messages, columns[first_edge], columns[3])[0]
        views4 = _tap_terms(messages, columns[first_edge], columns[4])[0]
        if adaptive:
            selector = [3] * d ** shots
            num = den = 1
            for (v, obj, _, _), (_, obj4, _, _) in zip(views3, views4):
                if _less(obj4, obj):
                    obj, selector[v] = obj4, 4
                num *= obj[0]
                den *= obj[1]
            cand = (num, den), tuple(selector)
        else:
            cand = _first_min([(_objective(views3), (3,) * d ** shots),
                               (_objective(views4), (4,) * d ** shots)])
        if best is None or _less(cand[0], best[0]):
            best = cand[0], first_edge, cand[1]
    objective, first_edge, selector = best
    witness = AttackStrategy(d, shots, klass, first_edge, _identity(d), selector)
    return _level(objective, d, len(messages)), witness


def _slice_columns(code: OneHopCode, first_edge: int) -> tuple:
    """(M, tap, slices) with one (xs, Y3, Y4) per per-shot substitute xs.

    The relay reads xs[i] on first_edge in shot i, so over the atoms with
    view v, Y3 and Y4 are those of the slice (v, xs).  Substitutes run in
    lexicographic order, so substitute number v is the coded view v itself.
    """
    d, pos = code.d, first_edge - 1
    subs = list(product(range(d), repeat=code.shots))
    columns = _columns(code, [_placed(code, {2 * i + pos: (x,) * d for i, x in enumerate(xs)})
                              for xs in subs])
    return columns[0], columns[first_edge], list(zip(subs, columns[3::2], columns[4::2]))


def _tap_optimum(code: OneHopCode, klass: AttackClass, first_edge: int) -> tuple:
    """(objective, mod, selector) of an active class's first optimum on one tap edge.

    The term of view v under substitute number n is read off the column
    terms of (tap, Y3) and (tap, Y4) of slice n.  Each edge set the
    selector may use gets its own first optimum: a single-shot view takes
    its least substitute, the smallest on ties; a map gives both shots of
    a two-shot view their values, so two-shot codes walk the maps in
    order.  A deterministic tie between the edges goes to (mod, edge)
    order.  A view no atom reaches keeps substitute 0 and the first edge.
    """
    d, shots = code.d, code.shots
    messages, tap, slices = _slice_columns(code, first_edge)
    terms = []
    for _, y3, y4 in slices:
        views3 = _tap_terms(messages, tap, y3)[0]
        terms.append([(t3[1], t4[1]) for t3, t4 in zip(views3, _tap_terms(messages, tap, y4)[0])])
    observed = [v for v, *_ in views3]
    cands = []
    for edges in ((3, 4),) if klass.is_adaptive else ((3,), (4,)):
        # least[i][n]: the least term over edges of observed view i under
        # substitute n, and the first edge attaining it
        least = [[_edge_choice(row[i], edges) for row in terms] for i in range(len(observed))]
        if shots == 1:
            mod, num, den = [0] * d, 1, 1
            for terms_v, v in zip(least, observed):
                obj, mod[v] = _first_min((t[0], x) for x, t in enumerate(terms_v))
                num *= obj[0]
                den *= obj[1]
            objective, mod = (num, den), tuple(mod)
        else:
            objective = None
            views = [([t[0] for t in terms_v], v // d, v % d)
                     for terms_v, v in zip(least, observed)]
            for m in product(range(d), repeat=d):
                num = den = 1
                for terms_v, a, b in views:
                    obj = terms_v[m[a] * d + m[b]]
                    num *= obj[0]
                    den *= obj[1]
                if objective is None or _less((num, den), objective):
                    objective, mod = (num, den), m
        selector = [edges[0]] * d ** shots
        for terms_v, v in zip(least, observed):
            selector[v] = terms_v[mod[v] if shots == 1 else mod[v // d] * d + mod[v % d]][1]
        cands.append((objective, mod, tuple(selector)))
    return _first_min(sorted(cands, key=itemgetter(1, 2)))


def _active_optimum(code: OneHopCode, klass: AttackClass) -> tuple:
    """(objective, first_edge, modification, selector) of an active class's first optimum."""
    best = None
    for first_edge in (1, 2):
        objective, mod, selector = _tap_optimum(code, klass, first_edge)
        if best is None or _less(objective, best[0]):
            best = objective, first_edge, mod, selector
    return best


def check_classify_budget(d: int, shots: int, atoms: int, klass: AttackClass) -> None:
    """BudgetError unless classify may walk a code of this shape.

    atoms counts encoder inputs times relay symbols.  Two-shot active
    classes walk the d^d maps, so stop past d = 6.
    """
    reads = atoms
    if klass.is_active:
        if shots == 2 and d > _ACTIVE_MAP_CAP_D:
            raise BudgetError(f"two-shot active classification enumerates d^d maps; "
                              f"out of budget for d > {_ACTIVE_MAP_CAP_D}")
        reads *= d ** shots
    if reads > _CLASSIFY_READ_CAP:
        raise BudgetError(f"classification reads the relay {reads} times; "
                          f"out of budget above {_CLASSIFY_READ_CAP}")


def classify(code: OneHopCode, klass: AttackClass) -> SecurityVerdict:
    """Exact verdict over every strategy of the class, without enumerating it.

    insecure: some strategy makes M a function of Eve's view.
    perfectly-secret: every strategy's view is independent of M.
    imperfectly-secret: everything else.  Both tests read the least
    objective n*H(M | view, W): it is 0 exactly when some view pins M,
    and n*H(M) exactly when no strategy leaks.

    Every class reads the objective off the column terms of (tap, W)
    pairs: passive classes off the code's own columns, active classes
    off those of each (view, substitute) slice.

    The witness is the first maximum-leakage strategy in canonical order
    (first_edge, then modification, then selector): within a slice the
    smallest substitute, then e(3); for deterministic classes (mod, edge)
    order within a tap edge; e(1) over e(2) on ties.  A view no atom
    reaches keeps substitute 0 (identity when passive) and, in an
    adaptive selector, e(3).
    max_leakage_bits is the witness's leakage in floating point, read
    off the column terms of its own attack: I(M; view, W) for a
    deterministic class, H(M) minus the per-view terms P(v) H(M | v, W)
    in view order for an adaptive one.

    check_classify_budget raises BudgetError first for codes out of budget.
    """
    d, s = code.d, code.shots
    check_classify_budget(d, s, len(code.encoder) * len(code.relay_random_values()), klass)
    if klass.is_active:
        objective, first_edge, mod, selector = _active_optimum(code, klass)
        columns = _columns(code, [_placed(code, {2 * i + first_edge - 1: mod
                                                  for i in range(s)})])
        level = _level(objective, d, len(columns[0]))
        witness = AttackStrategy(d, s, klass, first_edge, tuple(mod), tuple(selector))
    else:
        columns = _columns(code)
        level, witness = _passive_verdict(d, s, klass, columns)
    selector = witness.selector
    messages, tap, n = columns[0], columns[witness.first_edge], len(columns[0])
    if klass.is_adaptive:
        views3 = _tap_terms(messages, tap, columns[3])[0]
        views4 = _tap_terms(messages, tap, columns[4])[0]
        cond = 0.0
        for (v, _, n_v, h3), (_, _, _, h4) in zip(views3, views4):
            cond += (n_v / n) * (h3 if selector[v] == 3 else h4)
        leak = _entropy_of_weights(Counter(messages), n) - cond
    else:
        leak = _tap_terms(messages, tap, columns[selector[0]])[1]
    return SecurityVerdict(code.name, klass, level, max(leak, 0.0), witness)


# ---------------------------------------------------------------------------
# Table reproduction

TABLE_COLUMNS = ("deterministic-passive", "active", "adaptive")

_COLUMN_CLASS = {
    "deterministic-passive": AttackClass.DETERMINISTIC_PASSIVE,
    "active": AttackClass.DETERMINISTIC_ACTIVE,
    "adaptive": AttackClass.ADAPTIVE_ACTIVE,
}


@dataclass(frozen=True)
class TableRow:
    family: str
    d: int
    cells: dict[str, SecurityLevel]


@dataclass(frozen=True)
class ClassificationTable:
    rows: tuple[TableRow, ...]

    def to_json_dict(self) -> dict:
        return {"columns": list(TABLE_COLUMNS),
                "rows": [{"family": r.family, "d": r.d,
                          "cells": {c: r.cells[c].value for c in TABLE_COLUMNS}}
                         for r in self.rows]}

    def to_csv(self) -> str:
        lines = ["family,d," + ",".join(TABLE_COLUMNS)]
        for r in self.rows:
            lines.append(",".join(
                [r.family, str(r.d)] + [r.cells[c].value for c in TABLE_COLUMNS]))
        return "\n".join(lines) + "\n"

    def to_text(self) -> str:
        headers = ["code family", "d"] + list(TABLE_COLUMNS)
        body = [[r.family, str(r.d)] + [r.cells[c].value for c in TABLE_COLUMNS]
                for r in self.rows]
        widths = [max(len(row[i]) for row in [headers] + body)
                  for i in range(len(headers))]
        fmt = "  ".join(f"{{:<{w}}}" for w in widths)
        lines = [fmt.format(*headers), fmt.format(*["-" * w for w in widths])]
        lines += [fmt.format(*row) for row in body]
        return "\n".join(lines) + "\n"


def _affine_relay_code(d: int, params: tuple[int, ...]) -> OneHopCode:
    """Standard encoder plus the affine relay given by six coefficients.

    The message must be recoverable from (Y3, Y4); the decoder is read
    off the support, unreachable pairs decoding to 0.
    """
    p, q, s0, t, u, w0 = params
    encoder = {(m, l): ((l, (m + l) % d),) for m, l in product(range(d), repeat=2)}
    relay = {(y1, y2): ((p * y1 + q * y2 + s0) % d, (t * y1 + u * y2 + w0) % d)
             for y1, y2 in product(range(d), repeat=2)}
    support = {relay[out]: m for (m, _), (out,) in encoder.items()}
    decoder = {k: support.get(k, 0) for k in product(range(d), repeat=2)}
    return OneHopCode(d, 1, 1, False, encoder, relay, decoder,
                      name=f"scalar-affine-{'-'.join(map(str, params))}")


def _linear_maps(d: int) -> Iterator[tuple[tuple[int, ...], tuple[tuple[int, int], ...]]]:
    """Every linear map of Z_d^2: its coefficients (a, b, c, e) and its table.

    The table lists (a x + b y, c x + e y) over (x, y) in lexicographic
    order, so entry x*d + y is the image of (x, y).
    """
    points = list(product(range(d), repeat=2))
    for a, b, c, e in product(range(d), repeat=4):
        yield (a, b, c, e), tuple(((a * x + b * y) % d, (c * x + e * y) % d)
                                  for x, y in points)


def _pair_rank(d: int, messages: tuple[int, ...], encoder: Sequence[tuple[int, int]],
               relay: Sequence[tuple[int, int]]) -> Optional[int]:
    """None when M is lost, else the _LEVEL_RANK of the worst deterministic-passive view.

    encoder gives each atom its (y1, y2) and messages its message; relay
    gives each (y1, y2), in lexicographic order, its (y3, y4).  The
    views are (Y_i, Y_j), i in 1, 2 and j in 3, 4.
    """
    second = [relay[y1 * d + y2] for y1, y2 in encoder]
    if not _determines(messages, second):
        return None
    return min(_LEVEL_RANK[_view_level(d, messages, tap, w)]
               for tap in zip(*encoder) for w in zip(*second))


def _scalar_linear_row(d: int) -> dict[str, SecurityLevel]:
    """Family-best level per column over all correct affine-relay codes.

    A relay offset only renames the symbols on e(3) and e(4), so each
    linear relay behind the standard encoder stands for its d^2 affine
    ones.  Its deterministic-passive level comes from the column terms of
    its four views.  A code insecure there stays insecure under every
    superset class, so only the others are built as codes and classified
    under the larger classes.
    """
    atoms = list(product(range(d), repeat=2))
    messages = tuple(m for m, _ in atoms)
    encoder = [(l, (m + l) % d) for m, l in atoms]
    best = dict.fromkeys(TABLE_COLUMNS, _LEVEL_RANK[SecurityLevel.INSECURE])
    found_any = False
    for (p, q, t, u), relay in _linear_maps(d):
        rank = _pair_rank(d, messages, encoder, relay)
        if rank is None:
            continue
        found_any = True
        if rank == _LEVEL_RANK[SecurityLevel.INSECURE]:
            continue
        best["deterministic-passive"] = max(best["deterministic-passive"], rank)
        code = _affine_relay_code(d, (p, q, 0, t, u, 0))
        for column in ("active", "adaptive"):
            level = classify(code, _COLUMN_CLASS[column]).level
            best[column] = max(best[column], _LEVEL_RANK[level])
    if not found_any:
        raise RuntimeError("no correct affine relay exists; encoder sweep bug")
    levels = list(_LEVEL_RANK)
    return {column: levels[rank] for column, rank in best.items()}


def _code_row(code: OneHopCode) -> dict[str, SecurityLevel]:
    return {c: classify(code, _COLUMN_CLASS[c]).level for c in TABLE_COLUMNS}


def anti_latin_pair(d: int, seed: int = DEFAULT_SEED) -> tuple:
    """The decodable pair of anti-Latin squares the family code over Z_d uses.

    The stored reference pair for d = 3, 4, else the pair
    find_decodable_pair finds from seed.  ValueError when no pair exists
    (proven at d = 2), BudgetError when the search ends without one.
    """
    if d in (3, 4):
        return reference_decodable_pair(d)
    result = find_decodable_pair(d, seed=seed)
    if result.proven_empty:
        raise ValueError(f"no decodable anti-Latin pair exists for d={d} "
                         f"(exhaustive over {result.examined} candidate pairs)")
    if not result.found:
        raise BudgetError(f"no decodable anti-Latin pair found for d={d}")
    return result.pair


def classification_table(d_list: Sequence[int]) -> ClassificationTable:
    """Security level grid for the one-hop code families, per alphabet size.

    Rows are the single-shot no-relay-randomness setting: the scalar-
    linear family (exhausted over affine relay tables), the standard
    non-linear code at d=2, an anti-Latin code for d>2, and the two-shot
    vector-linear code.  Columns map to deterministic-passive,
    deterministic-active, and adaptive-active attacks.  Every d is
    checked before the first row: ValueError for d < 2, BudgetError for
    d > 6, where the two-shot map enumeration stops.
    """
    for d in d_list:
        if d < 2:
            raise ValueError(f"alphabet size d must be >= 2, got {d}")
        if d > _ACTIVE_MAP_CAP_D:
            raise BudgetError(f"two-shot active rows enumerate d^d maps; "
                              f"out of budget for d > {_ACTIVE_MAP_CAP_D}")
    rows = []
    for d in d_list:
        rows.append(TableRow("scalar-linear", d, _scalar_linear_row(d)))
        if d == 2:
            rows.append(TableRow("standard-nonlinear", d,
                                 _code_row(standard_nonlinear_code(2))))
        if d > 2:
            rows.append(TableRow("anti-latin", d, _code_row(anti_latin_code(*anti_latin_pair(d)))))
        rows.append(TableRow("vector-linear", d, _code_row(vector_linear_code(d))))
    return ClassificationTable(tuple(rows))


_I = SecurityLevel.INSECURE
_S = SecurityLevel.IMPERFECT
_P = SecurityLevel.PERFECT

# expected grid: scalar-linear insecure everywhere; standard non-linear
# imperfect only against deterministic-passive; anti-Latin imperfect
# everywhere; vector-linear perfect everywhere
TABLE1_EXPECTED = {
    "scalar-linear": (_I, _I, _I),
    "standard-nonlinear": (_S, _I, _I),
    "anti-latin": (_S, _S, _S),
    "vector-linear": (_P, _P, _P),
}


def table_mismatches(table: ClassificationTable) -> list[str]:
    """Cells that disagree with the expected summary grid."""
    out = []
    for row in table.rows:
        expected = TABLE1_EXPECTED[row.family]
        for column, want in zip(TABLE_COLUMNS, expected):
            got = row.cells[column]
            if got is not want:
                out.append(f"{row.family} d={row.d} {column}: "
                           f"expected {want.value}, got {got.value}")
    return out


# ---------------------------------------------------------------------------
# exhaustive sweeps

@dataclass(frozen=True)
class NonexistenceReport:
    """Outcome of sweeping every correct d=2 code against one attack class."""

    klass: AttackClass
    total_codes: int
    level_counts: dict[SecurityLevel, int]
    counterexamples: tuple[str, ...]          # names of non-insecure codes
    witnesses: dict[str, AttackStrategy]      # per-code insecurity witnesses

    @property
    def all_insecure(self) -> bool:
        return not self.counterexamples


def exhaustive_nonexistence_check(
        d: int = 2,
        klass: AttackClass = AttackClass.ADAPTIVE_PASSIVE) -> NonexistenceReport:
    """Classify every correct no-relay-randomness code over Z_2 under a passive class.

    The sweep walks the tables of enumerate_code_tables, the codes of
    enumerate_onehop_codes in their order and under their names, without
    building them.  A passive verdict reads only the atom columns (M, Y1,
    Y2, Y3, Y4), which the 11232 codes share: each distinct column tuple
    (3888 of them) is decided once, as classify decides it, and codes
    with equal columns share one witness.  An active verdict reads the
    relay table beyond those columns, so an active class raises
    ValueError; classify the codes of enumerate_onehop_codes for it.

    Against adaptive attacks the sweep is expected to find no code that
    avoids full message recovery; the report carries any counterexamples
    and a per-code insecurity witness.
    """
    if d != 2:
        raise ValueError("the exhaustive sweep is defined for d=2")
    if klass.is_active:
        raise ValueError(f"the exhaustive sweep covers the passive classes "
                         f"{AttackClass.DETERMINISTIC_PASSIVE.value} and "
                         f"{AttackClass.ADAPTIVE_PASSIVE.value}, not {klass.value}")
    counts = dict.fromkeys(SecurityLevel, 0)
    counterexamples = []
    witnesses = {}
    decided: dict[tuple, tuple[SecurityLevel, AttackStrategy]] = {}
    for name, _, _, columns in enumerate_code_tables(2):
        found = decided.get(columns)
        if found is None:
            found = decided[columns] = _passive_verdict(2, 1, klass, columns)
        level, witness = found
        counts[level] += 1
        if level is SecurityLevel.INSECURE:
            witnesses[name] = witness
        else:
            counterexamples.append(name)
    return NonexistenceReport(klass, sum(counts.values()), counts,
                              tuple(counterexamples), witnesses)


@dataclass(frozen=True)
class ScalarLinearSweepReport:
    d: int
    encoders_examined: int
    pairs_examined: int
    correct_codes: int
    insecure: int
    imperfect: int
    perfect: int

    @property
    def all_insecure(self) -> bool:
        return self.imperfect == 0 and self.perfect == 0


def exhaustive_scalar_linear_check(d: int) -> ScalarLinearSweepReport:
    """Sweep every affine encoder x affine relay pair under passive taps.

    A code is correct when M is recoverable from (Y3, Y4); it is counted
    insecure when one of the four deterministic-passive views determines
    M exactly, imperfect when some view still depends on M, and perfect
    otherwise.  Adding a constant to a wire only renames its symbols, so
    correctness and every level are those of the linear parts: an
    encoder offset renames Y1 and Y2 and moves into the relay's offset,
    which renames Y3 and Y4.  So the sweep walks the d^4 linear encoders
    that keep M in (Y1, Y2) against the d^4 linear relays, each pair by
    _pair_rank, and counts each pair d^4 times, once per encoder and
    relay offset.
    """
    if d > 5:
        raise BudgetError("the d^8 linear sweep is out of budget for d > 5")
    messages = tuple(m for m, _ in product(range(d), repeat=2))
    maps = [table for _, table in _linear_maps(d)]
    encoders = [table for table in maps if _determines(messages, table)]
    # correct linear pairs per _LEVEL_RANK: insecure, imperfect, perfect
    tally = [0, 0, 0]
    for encoder in encoders:
        for relay in maps:
            rank = _pair_rank(d, messages, encoder, relay)
            if rank is not None:
                tally[rank] += 1
    insecure, imperfect, perfect = (n * d ** 4 for n in tally)
    return ScalarLinearSweepReport(d, d ** 6, len(encoders) * d ** 8,
                                   insecure + imperfect + perfect,
                                   insecure, imperfect, perfect)


# ---------------------------------------------------------------------------
# linear codes neutralize active attacks (checked, not proved)

def _is_affine_table(table: dict, d: int, arity: int, out_arity: int) -> bool:
    """True iff the table of output tuples equals a matrix-plus-offset map over Z_d."""
    offset = table[(0,) * arity]
    columns = []
    for pos in range(arity):
        val = table[tuple(1 if i == pos else 0 for i in range(arity))]
        columns.append(tuple((val[o] - offset[o]) % d for o in range(out_arity)))
    for key, val in table.items():
        for o in range(out_arity):
            acc = offset[o]
            for pos in range(arity):
                acc += key[pos] * columns[pos][o]
            if acc % d != val[o]:
                return False
    return True


def code_is_affine(code: OneHopCode) -> bool:
    enc_flat = {k: tuple(v for pair in out for v in pair)
                for k, out in code.encoder.items()}
    if not _is_affine_table(enc_flat, code.d, 1 + code.scramble_count, 2 * code.shots):
        return False
    relay_arity = 2 * code.shots + (1 if code.relay_randomness else 0)
    return _is_affine_table(dict(code.relay), code.d, relay_arity, 2)


def linear_active_reduction_check(code: OneHopCode) -> bool:
    """Empirical check that active attacks add nothing against affine codes.

    For every tap pair and every admissible substitution of every view,
    Eve's active view must match the passive view on the same edges
    after a shift she can compute from her own first observation.  The
    slices are those classify optimises over; every (view, substitute)
    slice occurs under some map, so this covers all d^d maps.  Verified
    by exact comparison of each slice's (M, W) counts over all candidate
    shifts; non-affine codes are rejected.
    """
    if not code_is_affine(code):
        raise ValueError("code tables are not affine over Z_d")
    d = code.d
    for first_edge in (1, 2):
        messages, tap, slices = _slice_columns(code, first_edge)
        for col in (1, 2):
            # (view, M, W) counts per substitute; substitute number v is the
            # view v itself, so its slice v is the passive one
            counts = [Counter(zip(tap, messages, s[col])) for s in slices]
            for (xs, _, _), active in zip(slices, counts):
                for v in set(tap):
                    view = slices[v][0]
                    # a map gives a symbol seen twice one value
                    if view[0] == view[-1] and xs[0] != xs[-1]:
                        continue
                    if not any(all(counts[v][v, m, (w - delta) % d] == c
                                   for (u, m, w), c in active.items() if u == v)
                               for delta in range(d)):
                        return False
    return True


# ---------------------------------------------------------------------------
# extended two-shot mode: per-shot edge re-selection

def check_extended_two_shot_secrecy(code: OneHopCode) -> bool:
    """Perfect secrecy when Eve may re-select her first-layer edge per shot.

    Covers every adaptive-active strategy of the extended mode exactly by
    conditioning: the shot-2 edge choice, both substituted values, and
    the second-layer choice may each depend on everything Eve saw before,
    so it suffices that M stays independent of her view and W for every
    fixed pair of per-shot edges, every pair of substituted constants and
    each second-layer edge.  The view on e(i1) in shot 1 and e(i2) in
    shot 2 is read off the coded columns Y_i1 and Y_i2.
    """
    if code.shots != 2:
        raise ValueError("extended mode applies to two-shot codes")
    d = code.d
    constants = [((x1,) * d, (x2,) * d) for x1, x2 in product(range(d), repeat=2)]
    for i1, i2 in product((1, 2), repeat=2):
        columns = _columns(code, [_placed(code, {i1 - 1: f1, i2 + 1: f2})
                                  for f1, f2 in constants])
        messages = columns[0]
        view = tuple(a // d * d + b % d for a, b in zip(columns[i1], columns[i2]))
        if any(_view_level(d, messages, view, w) is not SecurityLevel.PERFECT
               for w in columns[3:]):
            return False
    return True
