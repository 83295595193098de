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
instead of d^d full laws.  Single-shot codes pick each slice's
substitute independently; a two-shot view (vA, vB) sees the map at both
vA and vB, so two-shot active classes enumerate maps, each looking up
the slice terms.

enumerate_attacks and simulate_attack evaluate strategies one at a time,
literally; they are the reference the optimiser is tested against.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from itertools import product
from operator import itemgetter
from typing import Iterable, Iterator, Optional, Sequence

from .anti_latin import find_decodable_pair, reference_decodable_pair
from .errors import BudgetError
from .info_theory import JointDistribution, _entropy_of_weights, _independent, _project
from .onehop_codes import (
    OneHopCode,
    _determines,
    anti_latin_code,
    enumerate_onehop_codes,
    scalar_linear_code,
    standard_nonlinear_code,
    vector_linear_code,
)


class AttackClass(Enum):
    DETERMINISTIC_PASSIVE = "deterministic-passive"
    ADAPTIVE_PASSIVE = "adaptive-passive"
    DETERMINISTIC_ACTIVE = "deterministic-active"
    ADAPTIVE_ACTIVE = "adaptive-active"

    @property
    def is_active(self) -> bool:
        return self in (AttackClass.DETERMINISTIC_ACTIVE, AttackClass.ADAPTIVE_ACTIVE)

    @property
    def is_adaptive(self) -> bool:
        return self in (AttackClass.ADAPTIVE_PASSIVE, AttackClass.ADAPTIVE_ACTIVE)

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


def _constant_selector(d: int, shots: int, edge: int) -> tuple[int, ...]:
    return (edge,) * (d ** shots)


def _modifications(d: int, active: bool) -> Iterator[tuple[int, ...]]:
    if active:
        yield from product(range(d), repeat=d)
    else:
        yield _identity(d)


_ENUMERATION_CAP = 2_500_000
# largest alphabet whose d^d substitution maps are enumerated one by one
_ACTIVE_MAP_CAP_D = 6


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
    mods = d ** d if klass.is_active else 1
    selectors = 2 ** views if klass.is_adaptive else 2
    total = 2 * mods * selectors
    if total > _ENUMERATION_CAP:
        raise BudgetError(
            f"{total} strategies exceed the enumeration budget; "
            "classification handles these spaces without materializing them")
    out = []
    for first_edge in (1, 2):
        for mod in _modifications(d, klass.is_active):
            if klass.is_adaptive:
                for sel in product((3, 4), repeat=views):
                    out.append(AttackStrategy(d, shots, klass, first_edge, mod, sel))
            else:
                for edge in (3, 4):
                    out.append(AttackStrategy(
                        d, shots, klass, first_edge, mod,
                        _constant_selector(d, shots, edge)))
    return out


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
# The d=2 sweeps meet a few hundred triples, the d=3 affine sweep 675, and
# the grid at d = 2, 3, 4 with perfbench's twelve verdicts at d = 4, 5
# 341, so a whole sweep fits; the bound keeps a long-running process from
# growing without end.
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


def _columns(code: OneHopCode, first_edge: int = 1,
             substitutes: Optional[Sequence[Sequence[Sequence[int]]]] = None
             ) -> tuple[tuple[int, ...], ...]:
    """(M, Y1, Y2, Y3, Y4) over the atoms, or (M, Y1, Y2) and (Y3, Y4) per substitute.

    Atoms run over encoder_inputs() x relay_random_values().  Column i of
    the first three is what Eve reads on e(i), a two-shot view (vA, vB)
    coded as vA*d + vB.  A substitute is one map per shot through which
    the relay reads the symbol on first_edge; without substitutes the
    relay reads the symbols unchanged.
    """
    d, pos = code.d, first_edge - 1
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
            relay_ins = []
            for maps in substitutes:
                relay_in = list(first)
                relay_in[pos::2] = [f[v] for f, v in zip(maps, first[pos::2])]
                relay_ins.append(tuple(relay_in))
        for lp in relay_values:
            row = (m, y1, y2)
            for relay_in in relay_ins:
                row += code.relay_output(relay_in, lp)
            atoms.append(row)
    return tuple(zip(*atoms))


def _passive_optimum(d: int, shots: int, klass: AttackClass,
                     columns: tuple[tuple[int, ...], ...]) -> tuple:
    """(objective, first_edge, selector) of a passive class's first optimum.

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
    return best


def _slice_columns(code: OneHopCode, first_edge: int) -> tuple:
    """(M, tap, slices) with one (xs, Y3, Y4, views) per per-shot substitute xs.

    The relay reads xs[i] on first_edge in shot i, so over the atoms with
    view v, Y3 and Y4 are those of the slice (v, xs).  views maps each
    coded view some map gives xs to the view (a map sends equal symbols
    to equal values).  Substitute number v is the coded view v itself.
    """
    subs = list(product(range(code.d), repeat=code.shots))
    columns = _columns(code, first_edge, [[(x,) * code.d for x in xs] for xs in subs])
    return columns[0], columns[first_edge], [
        (xs, y3, y4, {v: view for v, view in enumerate(subs)
                      if view[0] != view[-1] or xs[0] == xs[-1]})
        for xs, y3, y4 in zip(subs, columns[3::2], columns[4::2])]


def _slice_terms(code: OneHopCode, first_edge: int) -> dict:
    """Objectives with W = Y3 and W = Y4 of every slice (view, xs) some map reaches."""
    messages, tap, slices = _slice_columns(code, first_edge)
    objectives = {}
    for xs, y3, y4, views in slices:
        terms4 = _tap_terms(messages, tap, y4)[0]
        for (v, obj3, _, _), (_, obj4, _, _) in zip(_tap_terms(messages, tap, y3)[0], terms4):
            if v in views:
                objectives[views[v], xs] = obj3, obj4
    return objectives


def _tap_candidates(code: OneHopCode, klass: AttackClass,
                    objectives: dict) -> Iterator[tuple]:
    """Candidate strategies of one tap edge of an active class, in canonical order.

    objectives maps each slice (view, substituted) to its objectives
    with W = Y3 and W = Y4.  Yields (objective, mod, edges, edge_of),
    where edges is the set of second-layer edges the selector may use
    and edge_of maps each slice to its least objective over edges and
    the first edge attaining it.  One candidate is yielded per edge set
    (single-shot) or per map and edge set (two-shot), each the
    canonically first optimum of its group, so the first least objective
    yielded belongs to the tap edge's canonical witness.
    """
    d = code.d
    substitutes: dict[tuple, list] = {}
    for view, xs in sorted(objectives):
        substitutes.setdefault(view, []).append(xs)
    edge_sets = ((3, 4),) if klass.is_adaptive else ((3,), (4,))
    tables = [(edges, {key: _edge_choice(obj, edges) for key, obj in objectives.items()})
              for edges in edge_sets]
    if code.shots == 1:
        # each view picks its own substitute: least objective first, then
        # the smallest substitute
        group = []
        for edges, edge_of in tables:
            mod = [0] * d
            num = den = 1
            for view, options in substitutes.items():
                obj, (x,) = _first_min((edge_of[view, xs][0], xs) for xs in options)
                mod[view[0]] = x
                num *= obj[0]
                den *= obj[1]
            group.append(((num, den), tuple(mod), edges, edge_of))
        # a deterministic tie between the two edges goes to (mod, edge) order
        group.sort(key=lambda cand: cand[1:3])
        yield from group
        return
    # one map serves both shots, so two-shot slices are coupled: walk the
    # maps in order and look each slice term up
    for mod in _modifications(d, True):
        keys = [(view, tuple(mod[v] for v in view)) for view in substitutes]
        for edges, edge_of in tables:
            num = den = 1
            for key in keys:
                obj = edge_of[key][0]
                num *= obj[0]
                den *= obj[1]
            yield (num, den), mod, edges, edge_of


def _active_optimum(code: OneHopCode, klass: AttackClass) -> tuple:
    """(objective, first_edge, modification, selector) of an active class's first optimum."""
    best = None
    for first_edge in (1, 2):
        cand = _first_min(_tap_candidates(code, klass, _slice_terms(code, first_edge)))
        if best is None or _less(cand[0], best[0]):
            best = cand + (first_edge,)
    objective, mod, edges, edge_of, first_edge = best
    selector = []
    for view in product(range(code.d), repeat=code.shots):
        key = (view, tuple(mod[v] for v in view))
        # a view no atom reaches has no slice and keeps the first edge
        selector.append(edge_of[key][1] if key in edge_of else edges[0])
    return objective, first_edge, mod, selector


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

    Two-shot active classes enumerate the d^d maps and raise BudgetError
    for d > 6.
    """
    if klass.is_active and code.shots == 2 and code.d > _ACTIVE_MAP_CAP_D:
        raise BudgetError(f"two-shot active classification enumerates d^d maps; "
                          f"out of budget for d > {_ACTIVE_MAP_CAP_D}")
    d, s = code.d, code.shots
    if klass.is_active:
        objective, first_edge, mod, selector = _active_optimum(code, klass)
        columns = _columns(code, first_edge, [(mod,) * s])
    else:
        columns = _columns(code)
        objective, first_edge, selector = _passive_optimum(d, s, klass, columns)
        mod = _identity(d)
    witness = AttackStrategy(d, s, klass, first_edge, tuple(mod), tuple(selector))
    messages, tap, n = columns[0], columns[first_edge], len(columns[0])
    if klass.is_adaptive:
        views3 = _tap_terms(messages, tap, columns[3])[0]
        views4 = _tap_terms(messages, tap, columns[4])[0]
        cond = 0.0
        for (v, _, n_v, h3), (_, _, _, h4) in zip(views3, views4):
            cond += (n_v / n) * (h3 if selector[v] == 3 else h4)
        leak = _entropy_of_weights(Counter(messages), n) - cond
    else:
        leak = _tap_terms(messages, tap, columns[selector[0]])[1]
    return SecurityVerdict(code.name, klass, _level(objective, d, n), max(leak, 0.0), witness)


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


def _scalar_linear_row(d: int) -> dict[str, SecurityLevel]:
    """Family-best level per column over all correct affine-relay codes.

    Each affine relay behind the standard encoder gets its deterministic-
    passive level from the column terms of its four views.  A code
    insecure there stays insecure under every superset class, so only the
    others are built as codes and classified under the larger classes.
    """
    atoms = list(product(range(d), repeat=2))
    messages = tuple(m for m, _ in atoms)
    taps = (tuple(l for _, l in atoms), tuple((m + l) % d for m, l in atoms))
    best = {c: SecurityLevel.INSECURE for c in TABLE_COLUMNS}
    found_any = False
    for params in product(range(d), repeat=6):
        p, q, s0, t, u, w0 = params
        y3 = tuple((p * y1 + q * y2 + s0) % d for y1, y2 in zip(*taps))
        y4 = tuple((t * y1 + u * y2 + w0) % d for y1, y2 in zip(*taps))
        if not _determines(messages, zip(y3, y4)):
            continue
        found_any = True
        levels = {"deterministic-passive": min(
            (_view_level(d, messages, tap, w) for tap in taps for w in (y3, y4)),
            key=_LEVEL_RANK.get)}
        if levels["deterministic-passive"] is SecurityLevel.INSECURE:
            continue
        code = _affine_relay_code(d, params)
        for column in ("active", "adaptive"):
            levels[column] = classify(code, _COLUMN_CLASS[column]).level
        for column, level in levels.items():
            if _LEVEL_RANK[level] > _LEVEL_RANK[best[column]]:
                best[column] = level
    if not found_any:
        raise RuntimeError("no correct affine relay exists; encoder sweep bug")
    return best


def _code_row(code: OneHopCode) -> dict[str, SecurityLevel]:
    return {c: classify(code, _COLUMN_CLASS[c]).level for c in TABLE_COLUMNS}


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
            if d in (3, 4):
                pair = reference_decodable_pair(d)
            else:
                result = find_decodable_pair(d)
                if not result.found:
                    raise BudgetError(f"no decodable pair found for d={d}")
                pair = result.pair
            rows.append(TableRow("anti-latin", d, _code_row(anti_latin_code(*pair))))
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
    """Classify every correct no-relay-randomness code over Z_2.

    Against adaptive attacks the sweep is expected to find no code that
    avoids full message recovery; the report carries any counterexamples
    and a per-code insecurity witness.
    """
    if d != 2:
        raise ValueError("the exhaustive sweep is defined for d=2")
    counts = {level: 0 for level in SecurityLevel}
    counterexamples = []
    witnesses = {}
    total = 0
    for code in enumerate_onehop_codes(2):
        total += 1
        verdict = classify(code, klass)
        counts[verdict.level] += 1
        if verdict.level is SecurityLevel.INSECURE:
            witnesses[code.name] = verdict.witness
        else:
            counterexamples.append(code.name)
    return NonexistenceReport(klass, total, counts, tuple(counterexamples), witnesses)


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


class _Memo(dict):
    """A dict that fills a missing key with fn(key) on first lookup."""

    def __init__(self, fn) -> None:
        super().__init__()
        self.fn = fn

    def __missing__(self, key):
        value = self[key] = self.fn(key)
        return value


def _passive_pair_levels(d: int, encoders: Iterable[Sequence[tuple[int, int]]],
                         relays: Iterable[Iterable[tuple[int, int]]]) -> tuple[int, int, int]:
    """(insecure, imperfect, perfect) counts over every correct table pair.

    An encoder gives each atom (m, l) of Z_d^2, in lexicographic order,
    its (y1, y2); a relay gives each (y1, y2), in lexicographic order,
    its (y3, y4); each iterable is read once.  A pair is correct when M
    is recoverable from (Y3, Y4), and its level is the worst over the
    four deterministic-passive views (Y_i, Y_j), i in 1,2 and j in 3,4,
    each read off the objective of its column terms.

    Each predicate is memoised, in dicts local to the call, on exactly
    what it reads.  Correctness reads the composed (Y3, Y4) column over
    the atoms, each (y3, y4) coded as the small int y3*d + y4; a view
    reads its (first-layer column, second-layer column) pair, each column
    numbered on first sight.
    """
    messages = tuple(m for m, _ in product(range(d), repeat=2))
    coded_relays = [tuple(y3 * d + y4 for y3, y4 in rel) for rel in relays]
    column_ids: dict[tuple[int, ...], int] = {}
    columns: list[tuple[int, ...]] = []

    def column_id(column: tuple[int, ...]) -> int:
        if column not in column_ids:
            column_ids[column] = len(columns)
            columns.append(column)
        return column_ids[column]

    def second_layer_ids(y34: tuple[int, ...]) -> Optional[tuple[int, int]]:
        if not _determines(messages, y34):
            return None
        return column_id(tuple(c // d for c in y34)), column_id(tuple(c % d for c in y34))

    def view_rank(key: tuple[int, int]) -> int:
        return _LEVEL_RANK[_view_level(d, messages, columns[key[0]], columns[key[1]])]

    # composed (Y3, Y4) column -> None if M is lost, else its two column ids
    second_layer = _Memo(second_layer_ids)
    # (first-layer column id, second-layer column id) -> _LEVEL_RANK of the view
    rank = _Memo(view_rank)
    # correct pairs per _LEVEL_RANK: insecure, imperfect, perfect
    tally = [0, 0, 0]
    for enc in encoders:
        compose = itemgetter(*(y1 * d + y2 for y1, y2 in enc))
        i1 = column_id(tuple(y1 for y1, _ in enc))
        i2 = column_id(tuple(y2 for _, y2 in enc))
        for rel in coded_relays:
            outs = second_layer[compose(rel)]
            if outs is not None:
                i3, i4 = outs
                tally[min(rank[i1, i3], rank[i1, i4], rank[i2, i3], rank[i2, i4])] += 1
    return tuple(tally)


def exhaustive_scalar_linear_check(d: int) -> ScalarLinearSweepReport:
    """Sweep every affine encoder x affine relay pair under passive taps.

    A code is correct when M is recoverable from (Y3, Y4); it is counted
    insecure when one of the four deterministic-passive views determines
    M exactly, imperfect when some view still depends on M, and perfect
    otherwise.  Encoders that already lose M in (Y1, Y2) cannot be
    correct and are pruned up front.  The pairs are counted by
    _passive_pair_levels, which memoises correctness on the composed
    (Y3, Y4) column and each view's level on its (first-layer column,
    second-layer column) pair.  An affine map composed with an affine map
    is affine, so at d=3 the 367416 pairs share 729 composed columns and
    675 view column pairs.
    """
    if d > 3:
        raise BudgetError("the d^12 affine sweep is out of budget for d > 3")
    atoms = list(product(range(d), repeat=2))
    messages = [m for m, _ in atoms]
    encoders = []
    encoders_examined = 0
    for a, b, e, c, f, g in product(range(d), repeat=6):
        encoders_examined += 1
        table = tuple(((a * m + b * l + e) % d, (c * m + f * l + g) % d) for m, l in atoms)
        if _determines(messages, table):
            encoders.append(table)
    # generated, so only their compact coded form is ever held
    relays = ([((p * y1 + q * y2 + s0) % d, (t * y1 + u * y2 + w0) % d)
               for y1, y2 in atoms]
              for p, q, s0, t, u, w0 in product(range(d), repeat=6))
    insecure, imperfect, perfect = _passive_pair_levels(d, encoders, relays)
    return ScalarLinearSweepReport(d, encoders_examined, len(encoders) * d ** 6,
                                   insecure + imperfect + perfect,
                                   insecure, imperfect, perfect)


# ---------------------------------------------------------------------------
# linear codes neutralize active attacks (checked, not proved)

def _is_affine_table(table: dict, d: int, arity: int, out_arity: int) -> bool:
    """True iff the table equals a matrix-plus-offset map over Z_d."""
    zero = (0,) * arity
    offset = table[zero]
    offset = offset if isinstance(offset, tuple) else (offset,)
    columns = []
    for pos in range(arity):
        unit = tuple(1 if i == pos else 0 for i in range(arity))
        val = table[unit]
        val = val if isinstance(val, tuple) else (val,)
        columns.append(tuple((val[o] - offset[o]) % d for o in range(out_arity)))
    for key, val in table.items():
        val = val if isinstance(val, tuple) else (val,)
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
            for (_, _, _, views), active in zip(slices, counts):
                for v in views.keys() & set(tap):
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
    so it suffices that M stays exactly independent at every stage for
    every fixed choice and every substituted constant.
    """
    if code.shots != 2:
        raise ValueError("extended mode applies to two-shot codes")
    d = code.d
    atoms = []
    for key in code.encoder_inputs():
        m, scrambles = key[0], key[1:]
        atoms.append((m, code.first_layer_symbols(m, scrambles)))

    for i1 in (1, 2):
        p1 = i1 - 1
        if not _independent(Counter((m, first[p1]) for m, first in atoms),
                            len(atoms), (0,), (1,)):
            return False
        for i2 in (1, 2):
            p2 = 2 + i2 - 1
            for a in range(d):
                slice_a = [(m, first) for m, first in atoms if first[p1] == a]
                if not slice_a:
                    continue
                if not _independent(Counter((m, first[p2]) for m, first in slice_a),
                                    len(slice_a), (0,), (1,)):
                    return False
                for a2 in range(d):
                    slice_a2 = [(m, first) for m, first in slice_a
                                if first[p2] == a2]
                    if not slice_a2:
                        continue
                    for x1, x2 in product(range(d), repeat=2):
                        outs = []
                        for m, first in slice_a2:
                            relay_in = list(first)
                            relay_in[p1] = x1
                            relay_in[p2] = x2
                            for lp in code.relay_random_values():
                                y34 = code.relay_output(tuple(relay_in), lp)
                                outs.append((m, y34))
                        for col in (0, 1):
                            if not _independent(Counter((m, y34[col]) for m, y34 in outs),
                                                len(outs), (0,), (1,)):
                                return False
    return True
