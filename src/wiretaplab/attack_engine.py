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

classify covers every strategy of all four classes with one optimiser,
_tap_optimum, over per-observation slices of one tap edge.  The
objective n*H(M | view, W) is a sum over slices, and each slice term is
log2 of a ratio of integers, so strategies are ranked by exact integer
cross-multiplication.

Every slice term is read off three columns over the atoms (M, the
tapped view and one second-layer column W) by _tap_terms.  A passive
class has one slice, the code's own (Y3, Y4), under the identity.  A
map changes the relay input of atoms that observed v only through the
value x it gives v, so the active slice (v, x) is the slice v under the
constant map x.  _slice_columns reads every slice by index: the relay's
outputs, flattened in input order, are gathered once per constant map
(d^2 per-shot pairs for two-shot codes) at each atom's relay index, d*d
slices instead of d^d full laws.  A single-shot view picks its own
substitute; a two-shot view (vA, vB) sees the map at both vA and vB, so
two-shot active classes walk the d^d maps, each looking its views' terms
up by the substitute (mod[vA], mod[vB]).  The witness's own columns are
picked from the same slices.  Both the terms and each tap edge's
optimum are memos of bounded size.

enumerate_attacks and simulate_attack evaluate strategies one at a time,
literally; they are the reference the optimiser is tested against.
simulate_attack is one walk over the atoms that reads the code's tables
through no helper of classify.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from itertools import product
from operator import add, itemgetter
from typing import Iterable, Iterator, Optional, Sequence

from .anti_latin import DEFAULT_SEED, find_decodable_pair, reference_decodable_pair
from .errors import BudgetError
from .info_theory import JointDistribution, _determines, _entropy_of_weights, _project
from .onehop_codes import (
    OneHopCode,
    _standard_encoder,
    _support_decoder,
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

    def to_json_dict(self) -> dict:
        out = {
            "class": self.klass.value,
            "first_edge": self.first_edge,
            "modification": list(self.modification),
        }
        if not self.klass.is_adaptive:  # a constant selector
            out["second_edge"] = self.selector[0]
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
    views = d ** shots
    maps = d ** d if klass.is_active else 1
    total = 2 * maps * (2 ** views if klass.is_adaptive else 2)
    if total > _ENUMERATION_CAP:
        raise BudgetError(
            f"{total} strategies exceed the enumeration budget; "
            "classification handles these spaces without materializing them")
    mods = list(product(range(d), repeat=d)) if klass.is_active else [_identity(d)]
    selectors = (list(product((3, 4), repeat=views)) if klass.is_adaptive
                 else [(3,) * views, (4,) * views])
    return [AttackStrategy(d, shots, klass, first_edge, mod, selector)
            for first_edge in (1, 2) for mod in mods for selector in selectors]


# ---------------------------------------------------------------------------
# exact simulation

def simulate_attack(code: OneHopCode, strategy: AttackStrategy) -> JointDistribution:
    """Exact joint law of (M, Eve's view, Z2, decoder output) for one strategy.

    Walks every atom (encoder input, relay symbol) literally.  The view
    holds Eve's true observations on her first-layer edge, one per shot;
    the relay reads the modified symbol in every shot; the selector maps
    the view, read as a number in base d, to the second-layer edge whose
    symbol is Z2.
    """
    if strategy.d != code.d or strategy.shots != code.shots:
        raise ValueError("strategy shape does not match the code")
    d = code.d
    weights: dict[tuple, int] = {}
    for key in code.encoder_inputs():
        m = key[0]
        first = list(code.first_layer_symbols(m, key[1:]))
        # e(first_edge) carries every other symbol, shot by shot
        view = tuple(first[strategy.first_edge - 1::2])
        first[strategy.first_edge - 1::2] = [strategy.modification[v] for v in view]
        index = 0
        for v in view:
            index = index * d + v
        edge, relay_in = strategy.selector[index], tuple(first)
        for lp in code.relay_random_values():
            y34 = code.relay_output(relay_in, lp)
            atom = (m, *view, y34[edge - 3], code.decoder[y34])
            weights[atom] = weights.get(atom, 0) + 1
    views = ("Z1",) if code.shots == 1 else ("Z1A", "Z1B")
    variables = [("M", d), *((name, d) for name in views), ("Z2", d), ("MHAT", d)]
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


# The bound of both memos.  _tap_terms holds one entry per distinct
# (M, tap, W) column triple, passive or active: the d=2 sweeps meet a few
# hundred, the affine sweep 75 at d = 3 and 605 at d = 5, a cold grid at
# d = 2, 3, 4 145.  _tap_optimum holds one per distinct (class, M, tap,
# slices) of one tap edge: the d = 2 sweep meets 816 per passive class.
# One pass of perfbench's sweep holds 243 triples and 1632 optima, one of
# its classify 203 and 60, so a whole sweep fits; the bound keeps a
# long-running process from growing without end.
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


def _view_level(d: int, messages: tuple[int, ...], tap: tuple[int, ...],
                w: tuple[int, ...]) -> SecurityLevel:
    """Level of the deterministic-passive view (tap, W) over equally likely atoms."""
    num = den = 1
    for _, obj, _, _ in _tap_terms(messages, tap, w)[0]:
        num *= obj[0]
        den *= obj[1]
    return _level((num, den), d, len(messages))


def _columns(code: OneHopCode) -> tuple[tuple[int, ...], ...]:
    """(M, Y1, Y2, Y3, Y4) over the atoms, the relay reading its inputs unchanged.

    Atoms run over encoder_inputs() x relay_random_values().  Column i of
    the first three is what Eve reads on e(i), a two-shot view (vA, vB)
    coded as vA*d + vB.  This direct walk is the passive path; the relay
    under substitutes is read by _slice_columns alone.
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
        for lp in relay_values:
            atoms.append((m, y1, y2) + code.relay_output(first, lp))
    return tuple(zip(*atoms))


def _passive_taps(columns: tuple[tuple[int, ...], ...]) -> tuple:
    """(tap, slices) of e(1) and of e(2): a passive class's only slice is (Y3, Y4)."""
    slices = ((columns[3], columns[4]),)
    return (columns[1], slices), (columns[2], slices)


def _tap_symbols(shots: int, first_edge: int) -> range:
    """Positions, in the flat order of first_layer_symbols, that e(first_edge) carries."""
    return range(first_edge - 1, 2 * shots, 2)


def _slice_columns(code: OneHopCode, positions: Sequence[int]) -> tuple:
    """(M, tap, slices): one (Y3, Y4) per substitute xs of the tapped symbols.

    positions are the tapped first-layer symbols, in the flat order of
    first_layer_symbols (shot by shot, e(1) before e(2)); the tap is
    their values coded as one number in base d, first position first.
    The relay reads xs[j] at positions[j], so over the atoms with view
    v, Y3 and Y4 are those of the slice (v, xs).  Substitutes run in
    lexicographic order, so substitute number n holds the digits of n in
    base d, and number v is the coded view v itself.

    The relay table is total, so its outputs in lexicographic input
    order are two flat tuples, and an input's index is its digits in
    base d.  Column by column over the encoder inputs, each atom's index
    with the tapped symbols zeroed is found once; substitute xs adds one
    offset to every index, so each slice column is one gather of those
    indices from a flat tuple shifted by the offset.
    """
    d = code.d
    # the relay's own symbol, if any, is its last input digit
    lps = range(d) if code.relay_randomness else (0,)
    arity = 2 * code.shots + (1 if code.relay_randomness else 0)
    flat3, flat4 = zip(*itemgetter(*product(range(d), repeat=arity))(code.relay))
    keys = list(product(range(d), repeat=1 + code.scramble_count))
    # one column per first-layer symbol, over the encoder inputs in order
    symbols = list(zip(*[sum(out, ()) for out in itemgetter(*keys)(code.encoder)]))
    view = base = (0,) * len(keys)
    for p in positions:
        view = tuple(map(add, map(d.__mul__, view), symbols[p]))
    for p, column in enumerate(symbols):
        if p not in positions:
            base = tuple(map(add, base, map((d ** (arity - 1 - p)).__mul__, column)))
    messages = [key[0] for key in keys for _ in lps]
    tap = [v for v in view for _ in lps]
    # at least d atoms, so the gather returns a tuple
    gather = itemgetter(*[b + lp for b in base for lp in lps])
    slices = []
    for xs in product(range(d), repeat=len(positions)):
        offset = sum(x * d ** (arity - 1 - p) for x, p in zip(xs, positions))
        slices.append((gather(flat3[offset:]), gather(flat4[offset:])))
    return tuple(messages), tuple(tap), tuple(slices)


def _mapped_slice(d: int, shots: int, tap: tuple[int, ...], slices: tuple,
                  mod: Sequence[int]) -> tuple:
    """(Y3, Y4) over the atoms when the map mod substitutes every tapped symbol.

    slices are those of _slice_columns on one tap edge.  An atom with
    view v reads substitute number mod[v], or mod[vA]*d + mod[vB] for a
    two-shot view (vA, vB).
    """
    picks = mod if shots == 1 else [mod[v // d] * d + mod[v % d] for v in range(d * d)]
    return tuple(tuple(slices[picks[v]][c][a] for a, v in enumerate(tap)) for c in (0, 1))


@lru_cache(maxsize=_TAP_MEMO_SIZE)
def _tap_optimum(d: int, shots: int, klass: AttackClass, messages: tuple[int, ...],
                 tap: tuple[int, ...], slices: tuple) -> tuple:
    """(objective, mod, selector) of a class's first optimum on one tap edge.

    slices holds one (Y3, Y4) per substitute number: the code's own
    columns alone for a passive class, the per-shot constant substitutes
    of _slice_columns for an active one.  The term of view v in slice n
    is read off the column terms of (tap, Y3) and (tap, Y4) of slice n.
    Each edge set the selector may use gets its own first optimum: a
    passive view reads slice 0 under the identity; a single-shot active
    view takes its least substitute, the smallest on ties; a map gives
    both shots of a two-shot view their values, so two-shot active codes
    walk the maps in order.  A deterministic tie between the edges goes
    to (mod, edge) order.  A view no atom reaches keeps substitute 0 (the
    identity when passive) and the first edge.
    """
    terms = []
    for y3, y4 in slices:
        views3 = _tap_terms(messages, tap, y3)[0]
        terms.append([(t3[1], t4[1]) for t3, t4 in zip(views3, _tap_terms(messages, tap, y4)[0])])
    observed = [v for v, *_ in views3]
    cands = []
    for edges in ((3, 4),) if klass.is_adaptive else ((3,), (4,)):
        # least[i][n]: the least term over edges of observed view i in
        # slice n, and the first edge attaining it
        least = [[_edge_choice(row[i], edges) for row in terms] for i in range(len(observed))]
        if not klass.is_active:
            mod, picks = _identity(d), [0] * len(observed)
        elif shots == 1:
            mod = [0] * d
            for terms_v, v in zip(least, observed):
                mod[v] = _first_min((t[0], x) for x, t in enumerate(terms_v))[1]
            mod = tuple(mod)
            picks = [mod[v] for v in observed]
        else:
            best = None
            views = [([t[0] for t in terms_v], v // d, v % d)
                     for terms_v, v in zip(least, observed)]
            for m in product(range(d), repeat=d):
                num = den = 1
                for terms_v, a, b in views:
                    obj = terms_v[m[a] * d + m[b]]
                    num *= obj[0]
                    den *= obj[1]
                if best is None or _less((num, den), best):
                    best, mod = (num, den), m
            picks = [mod[v // d] * d + mod[v % d] for v in observed]
        num = den = 1
        selector = [edges[0]] * d ** shots
        for terms_v, v, n in zip(least, observed, picks):
            obj, selector[v] = terms_v[n]
            num *= obj[0]
            den *= obj[1]
        cands.append(((num, den), mod, tuple(selector)))
    return _first_min(sorted(cands, key=itemgetter(1, 2)))


def _optimum(d: int, shots: int, klass: AttackClass, messages: tuple[int, ...],
             taps: Iterable[tuple]) -> tuple[SecurityLevel, AttackStrategy]:
    """(level, witness) of a class's first optimum over the (tap, slices) of e(1), e(2).

    e(1) wins unless e(2) has the strictly smaller objective.
    """
    best = None
    for first_edge, (tap, slices) in enumerate(taps, 1):
        objective, mod, selector = _tap_optimum(d, shots, klass, messages, tap, slices)
        if best is None or _less(objective, best[0]):
            best = objective, first_edge, mod, selector
    objective, first_edge, mod, selector = best
    witness = AttackStrategy(d, shots, klass, first_edge, mod, selector)
    return _level(objective, d, len(messages)), witness


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

    Every class runs the one optimiser, per tap edge, on the column
    terms of (tap, W) pairs: passive classes on the code's own columns,
    active classes on those of each (view, substitute) slice.

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
        by_edge = [_slice_columns(code, _tap_symbols(s, first_edge)) for first_edge in (1, 2)]
        messages, taps = by_edge[0][0], [cols[1:] for cols in by_edge]
    else:
        columns = _columns(code)
        messages, taps = columns[0], _passive_taps(columns)
    level, witness = _optimum(d, s, klass, messages, taps)
    tap, slices = taps[witness.first_edge - 1]
    if klass.is_active:
        slices = (_mapped_slice(d, s, tap, slices, witness.modification),)
    selector, n = witness.selector, len(messages)
    if klass.is_adaptive:
        views3 = _tap_terms(messages, tap, slices[0][0])[0]
        views4 = _tap_terms(messages, tap, slices[0][1])[0]
        cond = 0.0
        for (v, _, n_v, h3), (_, _, _, h4) in zip(views3, views4):
            cond += (n_v / n) * (h3 if selector[v] == 3 else h4)
        leak = _entropy_of_weights(Counter(messages), n) - cond
    else:
        leak = _tap_terms(messages, tap, slices[0][selector[0] - 3])[1]
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
    encoder = _standard_encoder(d)
    relay = {(y1, y2): ((p * y1 + q * y2 + s0) % d, (t * y1 + u * y2 + w0) % d)
             for y1, y2 in product(range(d), repeat=2)}
    support = ((relay[out], m) for (m, _), (out,) in encoder.items())
    decoder = _support_decoder(support, product(range(d), repeat=2))
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


# a function of d alone, and the grid refuses d > 6 before its first row
@lru_cache(maxsize=5)
def _scalar_linear_row(d: int) -> dict[str, SecurityLevel]:
    """Family-best level per column over all correct affine-relay codes.

    A relay offset only renames the symbols on e(3) and e(4), so each
    linear relay behind the standard encoder stands for its d^2 affine
    ones.  Its deterministic-passive level comes from the column terms of
    its four views.  A code insecure there stays insecure under every
    superset class, so only the others are built as codes and classified
    under the larger classes.
    """
    standard = _standard_encoder(d)
    messages = tuple(m for m, _ in standard)
    encoder = [out for out, in standard.values()]
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


@lru_cache(maxsize=16)
def anti_latin_pair(d: int, seed: int = DEFAULT_SEED) -> tuple:
    """The decodable pair of anti-Latin squares the family code over Z_d uses.

    The stored reference pair for d = 3, 4, else the pair
    find_decodable_pair finds from seed.  ValueError when no pair exists
    (proven at d = 2), BudgetError when the search ends without one.
    The pair is a function of (d, seed) and its squares are frozen, so
    it is memoised: the d = 5 search costs about 3 ms (2-vCPU x86-64
    VM, CPython 3.11), and the grid and every `classify --family
    anti-latin` ask for the pair again.
    Exceptions are not memoised.
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
    checked before the first row: ValueError for d < 2, BudgetError
    where check_classify_budget refuses the two-shot vector-linear row.
    """
    for d in d_list:
        if d < 2:
            raise ValueError(f"alphabet size d must be >= 2, got {d}")
        check_classify_budget(d, 2, d ** 4, AttackClass.ADAPTIVE_ACTIVE)
    rows = []
    for d in d_list:
        # a copy, so that editing a returned row leaves the memo as it was
        rows.append(TableRow("scalar-linear", d, dict(_scalar_linear_row(d))))
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
    (3888 of them) is decided once, by the optimiser classify runs, and
    codes with equal columns share one witness.  The optimiser's memo
    holds one tap edge's (M, tap, Y3, Y4), so the 7776 tap-edge reads
    make 816 optima.  An active verdict reads the relay table beyond
    those columns, so an active class raises ValueError; classify the
    codes of enumerate_onehop_codes for it.

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
            found = decided[columns] = _optimum(2, 1, klass, columns[0], _passive_taps(columns))
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
    # substitute number n, in lexicographic order
    subs = list(product(range(d), repeat=code.shots))
    for first_edge in (1, 2):
        messages, tap, slices = _slice_columns(code, _tap_symbols(code.shots, first_edge))
        for col in (0, 1):
            # (view, M, W) counts per substitute; substitute number v is the
            # view v itself, so its slice v is the passive one
            counts = [Counter(zip(tap, messages, s[col])) for s in slices]
            for xs, active in zip(subs, counts):
                for v in set(tap):
                    view = subs[v]
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
    shot 2 is the tap of _slice_columns on the first-layer symbols
    i1 - 1 and i2 + 1, whose slices are the pairs of constants.
    """
    if code.shots != 2:
        raise ValueError("extended mode applies to two-shot codes")
    d = code.d
    for i1, i2 in product((1, 2), repeat=2):
        messages, view, slices = _slice_columns(code, (i1 - 1, i2 + 1))
        if any(_view_level(d, messages, view, w) is not SecurityLevel.PERFECT
               for pair in slices for w in pair):
            return False
    return True
