"""Exact joint distributions over named finite variables.

A distribution is stored as positive integer weights over its support,
divided by their gcd, together with their total; a probability is a
weight over the total.  Entropies are evaluated in double precision from
those integers (base-2 logs), while every support-style question (is
this variable a function of that view, are these views independent) is
answered by exact integer comparisons, never by float thresholds.  A Han
inequality is decided by the sign of its float slack only where a proved
rounding bound makes that sign right, and by an exact comparison of
integer products everywhere else.
Each distribution memoises the marginals it has built.
Fractions appear only at the edges: the probability-table constructor,
the `table` view and the JSON form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from collections import Counter
from decimal import Decimal, localcontext
from itertools import combinations, product
from math import comb
from operator import itemgetter
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence, Union

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
        total = sum(cleaned.values())
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "weights", cleaned)
        object.__setattr__(self, "total", total)
        # not dataclass fields, so ==, repr and the JSON form ignore them
        object.__setattr__(self, "_index", {n: i for i, n in enumerate(names)})
        object.__setattr__(self, "_marginals",
                           {tuple(range(len(variables))): cleaned, (): {(): total}})

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
    wanted = {names} if isinstance(names, str) else set(names)
    index = dist._index
    try:
        return tuple(sorted(map(index.__getitem__, wanted)))
    except KeyError:
        unknown = wanted - index.keys()
        raise KeyError(f"unknown variable(s): {sorted(unknown)}") from None


def _picker(positions: Sequence[int]) -> Callable[[tuple[int, ...]], tuple[int, ...]]:
    """Key -> its sub-key on positions; a slice keeps one position a 1-tuple."""
    if len(positions) == 1:
        return itemgetter(slice(positions[0], positions[0] + 1))
    return itemgetter(*positions) if positions else itemgetter(slice(0))


def _project(weights: Mapping[tuple[int, ...], int],
             positions: Sequence[int]) -> dict[tuple[int, ...], int]:
    """The weights summed onto positions, cells in order of first occurrence."""
    pick = _picker(positions)
    out: dict[tuple[int, ...], int] = {}
    get = out.get
    for key, w in weights.items():
        sub = pick(key)
        out[sub] = get(sub, 0) + w
    return out


def _marginal_weights(dist: JointDistribution,
                      positions: tuple[int, ...]) -> dict[tuple[int, ...], int]:
    """_project(dist.weights, positions), memoised on dist: do not modify it."""
    found = dist._marginals.get(positions)
    if found is None:
        found = dist._marginals[positions] = _project(dist.weights, positions)
    return found


def _entropy_of_weights(weights: Mapping[tuple[int, ...], int], total: int) -> float:
    # H = log2(total) - sum(w log2 w)/total; exact ints feed the logs.  Past
    # the float range (2^1024) a weight or total overflows, or the sum reads inf
    acc = 0.0
    try:
        for w in weights.values():
            if w > 1:
                acc += w * math.log2(w)
        h = math.log2(total) - acc / total
        if math.isfinite(h):
            return h
    except OverflowError:
        pass
    raise ValueError("entropy needs sum(w*log2(w)) below 2**1024, the float range")


def marginal(dist: JointDistribution, names: Names) -> JointDistribution:
    """Exact marginal onto the given variables (declared order kept)."""
    pos = _positions(dist, names)
    if not pos:
        raise ValueError("marginal needs at least one variable")
    return JointDistribution.from_weights(tuple(dist.variables[i] for i in pos),
                                          _marginal_weights(dist, pos))


def entropy(dist: JointDistribution, names: Names) -> float:
    """Shannon entropy in bits of the marginal on the given variables."""
    pos = _positions(dist, names)
    if not pos:
        raise ValueError("entropy needs a nonempty variable set")
    return _entropy_of_weights(_marginal_weights(dist, pos), dist.total)


def conditional_entropy(dist: JointDistribution, target: Names, given: Names) -> float:
    """H(target | given) = H(target,given) - H(given); empty given allowed."""
    tpos = _positions(dist, target)
    gpos = _positions(dist, given)
    if not tpos:
        raise ValueError("conditional entropy needs a nonempty target")
    total = dist.total
    joint = _entropy_of_weights(_marginal_weights(dist, tuple(sorted(set(tpos + gpos)))),
                                total)
    if not gpos:
        return joint
    return joint - _entropy_of_weights(_marginal_weights(dist, gpos), total)


def mutual_information(dist: JointDistribution, a: Names, b: Names) -> float:
    """I(a;b) = H(a) + H(b) - H(a,b) in bits; a and b must be disjoint."""
    apos = _positions(dist, a)
    bpos = _positions(dist, b)
    if set(apos) & set(bpos):
        raise ValueError("variable sets overlap")
    if not apos or not bpos:
        raise ValueError("both variable sets must be nonempty")
    total = dist.total
    ha = _entropy_of_weights(_marginal_weights(dist, apos), total)
    hb = _entropy_of_weights(_marginal_weights(dist, bpos), total)
    hab = _entropy_of_weights(_marginal_weights(dist, tuple(sorted(apos + bpos))), total)
    return ha + hb - hab


def _independent(weights: Mapping[tuple[int, ...], int], total: int,
                 apos: Sequence[int], bpos: Sequence[int]) -> bool:
    """Exact test that weights over the variables apos + bpos factor.

    apos and bpos together must cover every key position, so each key is
    one (a, b) cell: w * total == w_a * w_b for every cell of the support
    (the cells off the support then have w_a * w_b == 0 as well).
    """
    wa, pick_a = _project(weights, apos), _picker(apos)
    wb, pick_b = _project(weights, bpos), _picker(bpos)
    return all(w * total == wa[pick_a(key)] * wb[pick_b(key)]
               for key, w in weights.items())


def is_independent(dist: JointDistribution, a: Names, b: Names) -> bool:
    """Exact independence test: the (a, b) weights factor into the marginals."""
    apos = _positions(dist, a)
    bpos = _positions(dist, b)
    if set(apos) & set(bpos):
        raise ValueError("variable sets overlap")
    key = tuple(sorted(apos + bpos))
    return _independent(_marginal_weights(dist, key), dist.total,
                        [key.index(p) for p in apos], [key.index(p) for p in bpos])


def _determines(targets: Iterable, views: Iterable) -> bool:
    """True iff equal views always come with equal targets, listed atom by
    atom (or cell by cell): the target is then a function of the view."""
    owner: dict = {}
    for target, view in zip(targets, views):
        if owner.setdefault(view, target) != target:
            return False
    return True


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
    keys = dist.weights.keys()
    return _determines(map(_picker(tpos), keys), map(_picker(gpos), keys))


class HanCheckResult(NamedTuple):
    holds: bool
    slack: float


# The float slack decides `holds` only when |slack| > _HAN_FILTER and the
# call's rounding envelope, total.bit_length() * ((2c + 2h)(M + 12) + c^2)
# for c = |C| subsets and M support cells, is at most _HAN_ENVELOPE =
# 2^37 = _HAN_FILTER / 2^-53; everything else goes to the exact test.
# Why that suffices, with u = 2^-53, L = log2(total) and log2 within one
# ulp: one _entropy_of_weights over m cells is off by at most
# (m + 10) u L (each w log2 w to 5.5u relative, counting the rounding of
# w to a float; the sum of m terms to (m - 1)u of acc <= total L; then a
# division, log2(total) and a subtraction), and every marginal has
# m <= M.  The slack sums |C| differences H_S - H_X, each at most L, and
# subtracts h (H_Y - H_X), so its error is at most
# u L ((2c + 2h)(M + 10) + 4(c + h) + c^2), below u times the envelope.
# Every `han` sample lies inside it: _RANDOM_CELL_CAP = 2^16 gives
# k <= 15 and M <= 2^(k+1), _RANDOM_MAX_WEIGHT = 32 gives total <= 32 M,
# so total.bit_length() <= 22 and h <= c <= C(15, 7) < 2^13, and
# _HAN_CELL_CAP = 2^26 gives c 2^(k+1) <= 2^26, so the envelope is at most
# 22 (4 * 2^26 + 48 * 2^13 + 2^26) < 2^33.  In practice only exact ties
# reach the exact test.
_HAN_FILTER = 2.0 ** -16
_HAN_ENVELOPE = 1 << 37


# The exact test writes the quotient of its two sides as prod b^e over
# distinct weights b and takes the sign of sum e ln(b), computed at each
# precision of _HAN_LOG_DIGITS (decimal digits) in turn, once the sum
# clears its rounding bound.  Equal sides never clear it, so a sum still
# inside the bound at the first precision is checked for a tie on
# pairwise coprime bases, where a tie is every exponent cancelling; a sum
# still inside it at the last precision raises BudgetError.  The work grows
# with the number of distinct weights, not with their size: one ln takes
# 0.02 to 0.06 ms at 30 digits and 1.4 to 3.6 ms at 480 (one x86-64 core,
# CPython 3.11).
_HAN_LOG_DIGITS = (30, 120, 480)
# divided out before the gcd refinement, since most weights share them
_SMALL_PRIMES = tuple(p for p in range(2, 100) if all(p % q for q in range(2, p)))


def _log_sign(powers: Mapping[int, int], digits: int) -> int | None:
    """The sign of sum e ln(b) over powers {b: e}, or None if unresolved.

    ln, each product and each partial sum are correctly rounded, each to
    a relative 10^(1 - digits) / 2, and no partial sum exceeds size, so
    the computed sum is off by under (len + 2) / 2 units of
    size * 10^(1 - digits); a sum beyond len + 3 of them has the true sign.
    """
    with localcontext() as ctx:
        ctx.prec = digits
        terms = [e * Decimal(b).ln() for b, e in powers.items()]
        total = sum(terms, Decimal(0))
        size = sum(map(abs, terms), Decimal(0))
        if abs(total) > (len(terms) + 3) * size.scaleb(1 - digits):
            return 1 if total > 0 else -1
    return None


def _coprime_exponents(powers: Mapping[int, int]) -> dict[int, int]:
    """The same product prod b^e over pairwise coprime bases, no e = 0.

    Small primes are divided out first, then the rest is split by gcd
    refinement; the product of the bases kept so far lets a base coprime
    to all of them in at once.
    """
    coprime: dict[int, int] = {}
    rest: dict[int, int] = {}
    for b, e in powers.items():
        for p in _SMALL_PRIMES:
            while b % p == 0:
                b //= p
                coprime[p] = coprime.get(p, 0) + e
        rest[b] = rest.get(b, 0) + e
    work = list(rest.items())
    kept = math.prod(coprime)
    while work:
        b, e = work.pop()
        if b == 1 or not e:
            continue
        if math.gcd(b, kept) == 1:
            coprime[b] = e
            kept *= b
            continue
        c = next(c for c in coprime if math.gcd(b, c) > 1)
        g = math.gcd(b, c)
        f = coprime.pop(c)
        kept //= c
        # b^e c^f = g^(e + f) (b / g)^e (c / g)^f
        work += [(g, e + f), (b // g, e), (c // g, f)]
    return {b: e for b, e in coprime.items() if e}


def _weight_powers_ge(left: Iterable[tuple[Mapping[tuple[int, ...], int], int]],
                      right: Iterable[tuple[Mapping[tuple[int, ...], int], int]]) -> bool:
    """Exact prod over (weights, e) in left of P^e >= the same over right.

    P = prod over the cells of w^w, so n * H(A) = log2(n^n / P(A)) for
    the marginal on A.  Decided by the sign of the log of the quotient
    where it is resolved (see _HAN_LOG_DIGITS); a tie takes no power and
    no log beyond the first precision.
    """
    powers: dict[int, int] = {}
    for side, sign in ((left, 1), (right, -1)):
        for weights, e in side:
            for w in weights.values():
                if w > 1:
                    powers[w] = powers.get(w, 0) + sign * e * w
    if not powers:
        return True  # both sides are 1, as when every marginal cancels at r = k
    first, *finer = _HAN_LOG_DIGITS
    sign = _log_sign(powers, first)
    if sign is None:
        powers = _coprime_exponents(powers)
        if not powers:
            return True
        for digits in finer:
            sign = _log_sign(powers, digits)
            if sign is not None:
                break
        else:
            raise BudgetError(
                f"a Han near-tie over {len(powers)} coprime bases is not "
                f"decided at {_HAN_LOG_DIGITS[-1]} digits")
    return sign > 0


def _han_holds_exactly(dist: JointDistribution, x_key: tuple[int, ...],
                       y_key: tuple[int, ...], subset_keys: Sequence[tuple[int, ...]],
                       h: int) -> bool:
    """Sum_S H(Y_S | X) >= h H(Y | X), decided exactly.

    Multiplied by the total n it reads sum_S log2(P(X) / P(Y_S X)) >=
    h log2(P(X) / P(Y X)), that is P(X)^(|C| - h) P(Y X)^h >= prod_S
    P(Y_S X).  Marginals on the same positions cancel first, so r = k
    takes no log at all.
    """
    exponents = Counter({x_key: len(subset_keys) - h})
    exponents[y_key] += h
    exponents.subtract(subset_keys)
    left = [(_marginal_weights(dist, key), e) for key, e in exponents.items() if e > 0]
    right = [(_marginal_weights(dist, key), -e) for key, e in exponents.items() if e < 0]
    return _weight_powers_ge(left, right)


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

    def joint_key(indices: Iterable[int]) -> tuple[int, ...]:
        pos = set(gpos)
        for i in indices:
            pos.update(groups[i])
        return tuple(sorted(pos))

    subset_keys = [joint_key(s) for s in subsets]
    y_key = joint_key(range(k))
    needed = [*subset_keys, y_key]
    if gpos:
        needed.append(gpos)  # H(X), subtracted from every term
    total = dist.total
    entropies = {key: _entropy_of_weights(_marginal_weights(dist, key), total)
                 for key in dict.fromkeys(needed)}
    h_given = entropies[gpos] if gpos else 0.0
    lhs = sum(entropies[key] - h_given for key in subset_keys)
    rhs = h * (entropies[y_key] - h_given)
    slack = lhs - rhs
    c = len(subsets)
    envelope = total.bit_length() * ((2 * c + 2 * h) * (len(dist.weights) + 12) + c * c)
    if abs(slack) > _HAN_FILTER and envelope <= _HAN_ENVELOPE:
        holds = slack > 0
    else:
        holds = _han_holds_exactly(dist, gpos, y_key, subset_keys, h)
    return HanCheckResult(holds, slack)


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
# a drawn cell is zero with probability _RANDOM_ZERO_SHARE, else its weight
# is uniform on 1.._RANDOM_MAX_WEIGHT
_RANDOM_MAX_WEIGHT = 32
_RANDOM_ZERO_SHARE = 0.25


def random_rational_distribution(rng,
                                 variables: Sequence[tuple[str, int]]) -> JointDistribution:
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
        if rng.random() < _RANDOM_ZERO_SHARE:
            continue
        weights[key] = rng.randint(1, _RANDOM_MAX_WEIGHT)
    if not weights:
        weights[keys[rng.randrange(len(keys))]] = 1
    return JointDistribution.from_weights(variables, weights)
