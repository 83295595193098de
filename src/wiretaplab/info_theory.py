"""Exact joint distributions over named finite variables.

A distribution is stored as positive integer weights over its support,
divided by their gcd, together with their total; a probability is a
weight over the total.  Entropies are evaluated in double precision from
those integers (base-2 logs), while every support-style question (is
this variable a function of that view, are these views independent) is
answered by exact integer comparisons, never by float thresholds.
Fractions appear only at the edges: the probability-table constructor,
the `table` view and the JSON form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from math import comb
from typing import Iterable, Mapping, NamedTuple, Sequence, Union

from .errors import BudgetError

Names = Union[str, Iterable[str]]


@dataclass(frozen=True, init=False)
class JointDistribution:
    """Immutable distribution over an ordered list of named variables.

    variables: tuple of (name, alphabet size); every support key is a
    tuple of integers inside the declared alphabets.  weights maps each
    support key to a positive int, the weights have gcd 1, and total is
    their sum.  JointDistribution(variables, table) takes exact
    probabilities summing to 1; from_weights takes integer weights.
    """

    variables: tuple[tuple[str, int], ...]
    weights: Mapping[tuple[int, ...], int]
    total: int

    def __init__(self, variables: Sequence[tuple[str, int]],
                 table: Mapping[tuple[int, ...], Fraction]) -> None:
        probs = {key: Fraction(p) for key, p in table.items()}
        if any(p < 0 for p in probs.values()):
            raise ValueError("negative probability")
        total = sum(probs.values(), Fraction(0))
        if total != 1:
            raise ValueError(f"probabilities sum to {total}, not 1")
        # over the lcm of the reduced denominators the weights have gcd 1
        denom = math.lcm(*(p.denominator for p in probs.values()))
        self._store(variables, {key: p.numerator * (denom // p.denominator)
                                for key, p in probs.items()})

    @classmethod
    def from_weights(cls,
                     variables: Sequence[tuple[str, int]],
                     weights: Mapping[tuple[int, ...], int]) -> "JointDistribution":
        """Build from nonnegative int weights; zeros dropped, gcd divided out."""
        dist = cls.__new__(cls)
        dist._store(variables, weights)
        return dist

    def _store(self, variables: Sequence[tuple[str, int]],
               weights: Mapping[tuple[int, ...], int]) -> None:
        variables = tuple(variables)
        names = [n for n, _ in variables]
        if len(set(names)) != len(names):
            raise ValueError("duplicate variable names")
        if any(size < 1 for _, size in variables):
            raise ValueError("alphabet sizes must be >= 1")
        cleaned: dict[tuple[int, ...], int] = {}
        for key, w in weights.items():
            key = tuple(key)
            if len(key) != len(variables):
                raise ValueError(f"key {key} has wrong arity")
            for v, (name, size) in zip(key, variables):
                if not 0 <= v < size:
                    raise ValueError(f"value {v} outside alphabet of {name}")
            if not isinstance(w, int):
                raise ValueError(f"weight {w!r} is not an int")
            if w < 0:
                raise ValueError(f"negative weight {w}")
            if w:
                cleaned[key] = w
        if not cleaned:
            raise ValueError("weights must have positive total")
        g = math.gcd(*cleaned.values())
        if g > 1:
            cleaned = {key: w // g for key, w in cleaned.items()}
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "weights", cleaned)
        object.__setattr__(self, "total", sum(cleaned.values()))

    @property
    def table(self) -> dict[tuple[int, ...], Fraction]:
        """The support as exact probabilities (a fresh dict)."""
        return {key: Fraction(w, self.total) for key, w in self.weights.items()}

    @classmethod
    def uniform(cls, variables: Sequence[tuple[str, int]]) -> "JointDistribution":
        keys = product(*(range(size) for _, size in variables))
        return cls.from_weights(variables, {k: 1 for k in keys})

    @classmethod
    def product_of(cls, a: "JointDistribution", b: "JointDistribution") -> "JointDistribution":
        """Independent product of two distributions on disjoint variables."""
        if {n for n, _ in a.variables} & {n for n, _ in b.variables}:
            raise ValueError("variable names overlap")
        weights = {ka + kb: wa * wb
                   for ka, wa in a.weights.items() for kb, wb in b.weights.items()}
        return cls.from_weights(a.variables + b.variables, weights)

    def names(self) -> tuple[str, ...]:
        return tuple(n for n, _ in self.variables)

    def to_json_dict(self) -> dict:
        rows = [[list(k), p.numerator, p.denominator]
                for k, p in sorted(self.table.items())]
        return {"variables": [[n, s] for n, s in self.variables], "rows": rows}

    @classmethod
    def from_json_dict(cls, data: dict) -> "JointDistribution":
        variables = tuple((str(n), int(s)) for n, s in data["variables"])
        table = {tuple(k): Fraction(num, den) for k, num, den in data["rows"]}
        return cls(variables, table)


def _positions(dist: JointDistribution, names: Names) -> tuple[int, ...]:
    """Indices of the requested names, in declared order."""
    if isinstance(names, str):
        wanted = {names}
    else:
        wanted = set(names)
    declared = dist.names()
    unknown = wanted - set(declared)
    if unknown:
        raise KeyError(f"unknown variable(s): {sorted(unknown)}")
    return tuple(i for i, n in enumerate(declared) if n in wanted)


def _project(weights: Mapping[tuple[int, ...], int],
             positions: Sequence[int]) -> dict[tuple[int, ...], int]:
    out: dict[tuple[int, ...], int] = {}
    for key, w in weights.items():
        sub = tuple(key[i] for i in positions)
        out[sub] = out.get(sub, 0) + w
    return out


def _entropy_of_weights(weights: Mapping[tuple[int, ...], int], total: int) -> float:
    # H = log2(total) - sum(w log2 w)/total; exact ints feed the logs
    acc = 0.0
    for w in weights.values():
        if w > 1:
            acc += w * math.log2(w)
    return math.log2(total) - acc / total


def marginal(dist: JointDistribution, names: Names) -> JointDistribution:
    """Exact marginal onto the given variables (declared order kept)."""
    pos = _positions(dist, names)
    if not pos:
        raise ValueError("marginal needs at least one variable")
    return JointDistribution.from_weights(tuple(dist.variables[i] for i in pos),
                                          _project(dist.weights, pos))


def entropy(dist: JointDistribution, names: Names) -> float:
    """Shannon entropy in bits of the marginal on the given variables."""
    pos = _positions(dist, names)
    if not pos:
        raise ValueError("entropy needs a nonempty variable set")
    return _entropy_of_weights(_project(dist.weights, pos), dist.total)


def conditional_entropy(dist: JointDistribution, target: Names, given: Names) -> float:
    """H(target | given) = H(target,given) - H(given); empty given allowed."""
    tpos = _positions(dist, target)
    gpos = _positions(dist, given)
    if not tpos:
        raise ValueError("conditional entropy needs a nonempty target")
    weights, total = dist.weights, dist.total
    joint = _entropy_of_weights(_project(weights, tuple(sorted(set(tpos + gpos)))), total)
    if not gpos:
        return joint
    return joint - _entropy_of_weights(_project(weights, gpos), total)


def mutual_information(dist: JointDistribution, a: Names, b: Names) -> float:
    """I(a;b) = H(a) + H(b) - H(a,b) in bits; a and b must be disjoint."""
    apos = _positions(dist, a)
    bpos = _positions(dist, b)
    if set(apos) & set(bpos):
        raise ValueError("variable sets overlap")
    if not apos or not bpos:
        raise ValueError("both variable sets must be nonempty")
    weights, total = dist.weights, dist.total
    ha = _entropy_of_weights(_project(weights, apos), total)
    hb = _entropy_of_weights(_project(weights, bpos), total)
    hab = _entropy_of_weights(_project(weights, tuple(sorted(apos + bpos))), total)
    return ha + hb - hab


def _independent(weights: Mapping[tuple[int, ...], int], total: int,
                 apos: Sequence[int], bpos: Sequence[int]) -> bool:
    """Exact test that weights over the variables apos + bpos factor.

    apos and bpos together must cover every key position, so each key is
    one (a, b) cell: w * total == w_a * w_b for every cell of the support
    (the cells off the support then have w_a * w_b == 0 as well).
    """
    wa = _project(weights, apos)
    wb = _project(weights, bpos)
    for key, w in weights.items():
        ka = tuple(key[i] for i in apos)
        kb = tuple(key[i] for i in bpos)
        if w * total != wa[ka] * wb[kb]:
            return False
    return True


def is_independent(dist: JointDistribution, a: Names, b: Names) -> bool:
    """Exact independence test: the (a, b) weights factor into the marginals."""
    apos = _positions(dist, a)
    bpos = _positions(dist, b)
    if set(apos) & set(bpos):
        raise ValueError("variable sets overlap")
    n = len(apos)
    return _independent(_project(dist.weights, apos + bpos), dist.total,
                        range(n), range(n, n + len(bpos)))


def is_function_of(dist: JointDistribution, target: Names, given: Names) -> bool:
    """True iff the target is determined by the given variables on the support.

    Equivalent to H(target | given) = 0, decided exactly: every positive-
    probability assignment of the given variables must pin a single target
    value.  With an empty given set this is a point-mass test.
    """
    tpos = _positions(dist, target)
    gpos = _positions(dist, given)
    if not tpos:
        raise ValueError("is_function_of needs a nonempty target")
    seen: dict[tuple[int, ...], tuple[int, ...]] = {}
    for key in dist.weights:
        tval = tuple(key[i] for i in tpos)
        if seen.setdefault(tuple(key[i] for i in gpos), tval) != tval:
            return False
    return True


class HanCheckResult(NamedTuple):
    holds: bool
    slack: float


# float guard for an inequality that is exact in rationals; equality cases
# reuse the identical projection and come out at literally 0.0
_HAN_TOLERANCE = 1e-9


def _group_positions(dist: JointDistribution,
                     y_groups: Sequence[Names]) -> list[tuple[int, ...]]:
    groups = []
    for g in y_groups:
        pos = _positions(dist, g)
        if not pos:
            raise ValueError("every Y group must be nonempty")
        groups.append(pos)
    return groups


def check_han_collection(dist: JointDistribution,
                         y_groups: Sequence[Names],
                         given: Names,
                         collection: Sequence[Iterable[int]],
                         h: int) -> HanCheckResult:
    """Check sum_S H(Y_S | X) >= h * H(Y_[k] | X) for a uniform-cover collection.

    y_groups lists the k variable groups (0-based indices in `collection`);
    `given` is the conditioning set X, possibly empty.  Every index in
    range(k) must appear in exactly h members of the collection.
    """
    k = len(y_groups)
    if h < 1:
        raise ValueError("h must be a positive count")
    subsets = [tuple(sorted(set(s))) for s in collection]
    counts = [0] * k
    for s in subsets:
        for i in s:
            if not 0 <= i < k:
                raise ValueError(f"index {i} outside range({k})")
            counts[i] += 1
    if any(c != h for c in counts):
        raise ValueError(
            f"every element must lie in exactly h={h} members, got counts {counts}")

    groups = _group_positions(dist, y_groups)
    gpos = _positions(dist, given)
    weights, total = dist.weights, dist.total
    h_given = _entropy_of_weights(_project(weights, gpos), total) if gpos else 0.0

    cache: dict[tuple[int, ...], float] = {}

    def cond_h(indices: Iterable[int]) -> float:
        pos = set(gpos)
        for i in indices:
            pos.update(groups[i])
        key = tuple(sorted(pos))
        if key not in cache:
            cache[key] = _entropy_of_weights(_project(weights, key), total)
        return cache[key] - h_given

    lhs = sum(cond_h(s) for s in subsets)
    rhs = h * cond_h(range(k))
    slack = lhs - rhs
    return HanCheckResult(slack >= -_HAN_TOLERANCE, slack)


def check_han_subsets(dist: JointDistribution,
                      y_groups: Sequence[Names],
                      given: Names,
                      r: int) -> HanCheckResult:
    """Check sum over r-subsets of H(Y_S|X) >= C(k-1, r-1) * H(Y_[k]|X).

    Delegates to check_han_collection with the full r-subset collection,
    where each element is covered exactly C(k-1, r-1) times.
    """
    k = len(y_groups)
    if not 1 <= r <= k:
        raise ValueError(f"need 1 <= r <= k, got r={r}, k={k}")
    collection = list(combinations(range(k), r))
    return check_han_collection(dist, y_groups, given, collection, comb(k - 1, r - 1))


# every cell of a random distribution is drawn, so its size is the budget
_RANDOM_CELL_CAP = 1 << 16


def random_rational_distribution(rng,
                                 variables: Sequence[tuple[str, int]],
                                 max_weight: int = 32,
                                 zero_share: float = 0.25) -> JointDistribution:
    """Seeded random distribution with exact rational probabilities.

    Raises BudgetError, before drawing anything, when the variables span
    more than _RANDOM_CELL_CAP cells.
    """
    cells = math.prod(size for _, size in variables)
    if cells > _RANDOM_CELL_CAP:
        raise BudgetError(
            f"{cells} cells exceed the cap of {_RANDOM_CELL_CAP} for a random distribution")
    keys = list(product(*(range(size) for _, size in variables)))
    weights = {}
    for key in keys:
        if rng.random() < zero_share:
            continue
        weights[key] = rng.randint(1, max_weight)
    if not weights:
        weights[keys[rng.randrange(len(keys))]] = 1
    return JointDistribution.from_weights(variables, weights)
