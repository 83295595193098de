"""Anti-Latin squares: validation, decodability, pair search, mutual sets.

An anti-Latin square is a d x d table over Z_d in which every row and
every column contains a duplicated value.  A pair (A, B) of such squares
drives a relay code sending (a_{Y1,Y2}, b_{Y1,Y2}); the pair is usable
iff the second-layer value sets ("Xi sets") indexed by message value are
pairwise disjoint, which this module decides exactly.

The exact searches (d <= 3) decide pairs through one predicate, the
equality-pattern mask of `conflict_mask`: one bit per constrained cell
pair, set where the square repeats a value, so that two squares are
compatible iff their masks are disjoint.  They walk the catalog as
tuples of row numbers, read each mask off per-row tables and build
squares only for what they return.  The hill-climbs (d >= 4) score
anti-Latin violations and value-pair collisions instead.  The Xi-set
`is_decodable_pair` and the direct `is_one_to_one_pair` are kept as the
independent reference that certifies every result.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, product
from typing import Iterator, Optional, Sequence

from .errors import BudgetError

DEFAULT_SEED = 1729


def is_anti_latin(table: Sequence[Sequence[int]]) -> bool:
    """True iff every row and every column has a repeated entry.

    The table must be square with entries in Z_d; anything else raises.
    """
    d = len(table)
    if d == 0:
        raise ValueError("empty table")
    rows = [tuple(r) for r in table]
    if any(len(r) != d for r in rows):
        raise ValueError("table must be square")
    for r in rows:
        for v in r:
            if not isinstance(v, int) or not 0 <= v < d:
                raise ValueError(f"entry {v!r} outside Z_{d}")
    return _anti_latin_violations(rows, d) == 0


@dataclass(frozen=True)
class AntiLatinSquare:
    """A validated anti-Latin square."""

    d: int
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if len(self.rows) != self.d:
            raise ValueError("row count must equal d")
        if not is_anti_latin(self.rows):
            raise ValueError("table is not an anti-Latin square")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> "AntiLatinSquare":
        return cls(len(rows), tuple(tuple(r) for r in rows))

    def entry(self, i: int, j: int) -> int:
        return self.rows[i][j]

    def flat(self) -> tuple[int, ...]:
        return tuple(v for row in self.rows for v in row)

    def relabel(self, perm: Sequence[int]) -> "AntiLatinSquare":
        """Apply a value permutation of Z_d to every entry."""
        return AntiLatinSquare.from_rows(
            [[perm[v] for v in row] for row in self.rows])

    def to_text(self) -> str:
        return "\n".join(" ".join(str(v) for v in row) for row in self.rows) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "AntiLatinSquare":
        rows = [[int(t) for t in line.split()]
                for line in text.strip().splitlines() if line.strip()]
        return cls.from_rows(rows)


@dataclass(frozen=True)
class XiSet:
    """Possible second-edge values given a first-edge value z and message m."""

    z: int
    m: int
    members: frozenset[int]


def xi_set(a: AntiLatinSquare, b: AntiLatinSquare, z: int, m: int) -> XiSet:
    """Values b takes on the cells (l, l+m) where a equals z."""
    if a.d != b.d:
        raise ValueError("size mismatch")
    d = a.d
    if not (0 <= z < d and 0 <= m < d):
        raise ValueError(f"z and m must lie in range({d}), got z={z}, m={m}")
    members = frozenset(
        b.entry(l, (l + m) % d) for l in range(d) if a.entry(l, (l + m) % d) == z)
    return XiSet(z, m, members)


def is_decodable_pair(a: AntiLatinSquare, b: AntiLatinSquare) -> bool:
    """True iff the Xi sets for each z are pairwise disjoint across messages.

    This is the exact unique-decodability condition for the relay code
    built on (a, b).  The condition is symmetric in (a, b): it fails iff
    two cells on different broken diagonals carry the same (a, b) value
    pair.
    """
    if a.d != b.d:
        raise ValueError("size mismatch")
    d = a.d
    for z in range(d):
        sets = [xi_set(a, b, z, m).members for m in range(d)]
        for m1 in range(d):
            for m2 in range(m1 + 1, d):
                if sets[m1] & sets[m2]:
                    return False
    return True


def is_one_to_one_pair(a: AntiLatinSquare, b: AntiLatinSquare) -> bool:
    """True iff (i, j) -> (a_ij, b_ij) is injective over all d^2 cells."""
    if a.d != b.d:
        raise ValueError("size mismatch")
    d = a.d
    pairs = {(a.entry(i, j), b.entry(i, j))
             for i in range(d) for j in range(d)}
    return len(pairs) == d * d


# ---------------------------------------------------------------------------
# catalog enumeration and canonical representatives

@lru_cache(maxsize=None)
def _repeating_rows(d: int) -> tuple[tuple[int, ...], ...]:
    """Rows over Z_d that repeat a value, lexicographic; squares index them by number."""
    return tuple(row for row in product(range(d), repeat=d) if len(set(row)) < d)


def _catalog(d: int) -> Iterator[tuple[int, ...]]:
    """Row-number tuples of the d x d anti-Latin squares, lexicographic (d >= 1).

    The first d - 1 rows range over every tuple of repeating rows.  Each
    column the prefix does not yet repeat must take one of the prefix's
    values in the last row, so the allowed last rows are the AND over
    those columns of the OR of the masks "rows with value v in column j".
    """
    rows = _repeating_rows(d)
    with_value = [[0] * d for _ in range(d)]
    for r, row in enumerate(rows):
        for j, v in enumerate(row):
            with_value[j][v] |= 1 << r
    for prefix in product(range(len(rows)), repeat=d - 1):
        allowed = (1 << len(rows)) - 1
        for j, column in enumerate(zip(*(rows[r] for r in prefix))):
            if len(set(column)) == d - 1:
                reach = 0
                for v in column:
                    reach |= with_value[j][v]
                allowed &= reach
        while allowed:
            last = allowed & -allowed
            allowed ^= last
            yield prefix + (last.bit_length() - 1,)


def _square(numbers: Sequence[int]) -> AntiLatinSquare:
    """The validated square whose rows are the repeating rows of these numbers."""
    rows = _repeating_rows(len(numbers))
    return AntiLatinSquare(len(numbers), tuple(rows[r] for r in numbers))


def enumerate_anti_latin(d: int) -> list[AntiLatinSquare]:
    """All d x d anti-Latin squares in lexicographic order (d <= 3).

    The squares are those of the row-number walk `_catalog`, each
    built and validated.
    """
    if d > 3:
        raise BudgetError(f"full enumeration of {d}^{d * d} tables is out of reach")
    if d < 0:
        return []  # d * d > 0 cells over the empty range(d): no table
    if d == 0:
        raise ValueError("empty table")  # the one 0 x 0 table, as is_anti_latin says
    return [_square(numbers) for numbers in _catalog(d)]


# ---------------------------------------------------------------------------
# the pairwise predicate: equality-pattern conflict masks

@lru_cache(maxsize=None)
def _constrained_pairs(d: int, mode: str) -> tuple[tuple[int, int], ...]:
    """Cell pairs (c1 < c2, row-major) that the mode's pair condition covers."""
    cells = combinations(range(d * d), 2)
    if mode == "one-to-one":
        return tuple(cells)
    if mode == "decodable":
        diag = _diagonal_index(d)
        return tuple((c1, c2) for c1, c2 in cells if diag[c1] != diag[c2])
    raise ValueError(f"unknown mode {mode!r}")


def conflict_mask(square: AntiLatinSquare, mode: str) -> int:
    """One bit per constrained cell pair, set where the square repeats a value.

    Mode "one-to-one" constrains every cell pair, so the mask is the
    square's equality pattern; "decodable" constrains the pairs on
    different broken diagonals (j - i) % d.  A pair (a, b) repeats an
    (a, b) value pair on two constrained cells iff both squares repeat
    a value there, so the pair is compatible iff the masks are disjoint.
    The mask is never 0: every row repeats a value, and two cells of
    one row lie on different diagonals.
    """
    flat = square.flat()
    mask = 0
    for bit, (c1, c2) in enumerate(_constrained_pairs(square.d, mode)):
        if flat[c1] == flat[c2]:
            mask |= 1 << bit
    return mask


@lru_cache(maxsize=None)
def _row_tables(d: int, mode: str) -> tuple[tuple, tuple]:
    """Conflict-mask bits by row number: within[i][r] and (i, i', cross[r][r']).

    within[i][r] holds the bits of the constrained cell pairs inside row
    i when it is repeating row r; cross[r][r'] those with one cell in
    row i and one in row i' > i when they are rows r and r'.
    """
    rows = _repeating_rows(d)
    within = [[0] * len(rows) for _ in range(d)]
    cross = {pair: [[0] * len(rows) for _ in rows] for pair in combinations(range(d), 2)}
    for bit, (c1, c2) in enumerate(_constrained_pairs(d, mode)):
        (i, j), (i2, j2) = divmod(c1, d), divmod(c2, d)
        for r, row in enumerate(rows):
            if i == i2:
                within[i][r] |= (row[j] == row[j2]) << bit
                continue
            for r2, row2 in enumerate(rows):
                cross[i, i2][r][r2] |= (row[j] == row2[j2]) << bit
    return (tuple(map(tuple, within)),
            tuple((i, i2, tuple(map(tuple, t))) for (i, i2), t in cross.items()))


def _table_masks(catalog: Sequence[tuple[int, ...]], d: int, mode: str) -> list[int]:
    """`conflict_mask` of each row-number tuple: the OR of d + C(d, 2) lookups."""
    within, cross = _row_tables(d, mode)
    masks = []
    for numbers in catalog:
        mask = 0
        for table, r in zip(within, numbers):
            mask |= table[r]
        for i, i2, table in cross:
            mask |= table[numbers[i]][numbers[i2]]
        masks.append(mask)
    return masks


def _conflict_masks(squares: Sequence[AntiLatinSquare], d: int,
                    mode: str) -> list[int]:
    _constrained_pairs(d, mode)  # validates the mode name
    if any(sq.d != d for sq in squares):
        raise ValueError(f"every square must be {d} x {d}")
    return [conflict_mask(sq, mode) for sq in squares]


def _relabeling_representatives(catalog: Sequence[tuple[int, ...]],
                                 d: int) -> list[tuple[int, ...]]:
    """One row-number tuple per value-relabeling orbit, keeping catalog order.

    Both the anti-Latin property and pair decodability are invariant
    under independent value relabelings of each square, so existence
    searches may range over representatives only.  The orbit key is the
    one-to-one conflict mask: it is the square's equality pattern, which
    two squares share iff a value relabeling maps one onto the other.
    """
    first: dict[int, tuple[int, ...]] = {}
    for numbers, mask in zip(catalog, _table_masks(catalog, d, "one-to-one")):
        first.setdefault(mask, numbers)
    return list(first.values())


# ---------------------------------------------------------------------------
# pair search

@dataclass(frozen=True)
class PairSearchResult:
    found: bool
    pair: Optional[tuple[AntiLatinSquare, AntiLatinSquare]]
    proven_empty: bool
    method: str
    examined: int


def reference_decodable_pair(d: int) -> tuple[AntiLatinSquare, AntiLatinSquare]:
    """Known one-to-one (hence decodable) pairs for d = 3 and d = 4."""
    if d == 3:
        a = AntiLatinSquare.from_rows([[0, 1, 0], [1, 1, 2], [0, 2, 2]])
        b = AntiLatinSquare.from_rows([[0, 2, 2], [0, 1, 0], [1, 1, 2]])
        return a, b
    if d == 4:
        a = AntiLatinSquare.from_rows(
            [[0, 1, 3, 3], [0, 1, 2, 0], [1, 1, 2, 3], [0, 2, 2, 3]])
        b = AntiLatinSquare.from_rows(
            [[0, 0, 1, 0], [1, 1, 1, 2], [3, 2, 2, 2], [3, 0, 3, 3]])
        return a, b
    raise ValueError(f"no reference pair stored for d={d}")


def find_decodable_pair(d: int,
                        seed: int = DEFAULT_SEED,
                        budget: int = 400_000) -> PairSearchResult:
    """Search for a decodable pair of d x d anti-Latin squares.

    d=2: exhaustive over all 16 tables, returning a proven NotFound.
    d=3: exhaustive over value-relabeling representatives (complete by
         the relabeling invariance of decodability).
    d>=4: seeded randomized hill-climb; budget exhaustion is reported as
         found=False with proven_empty=False.
    The exhaustive cases walk row-number tuples and their table masks
    and return the first compatible pair in row-major order, `examined`
    counting the ordered pairs up to it; only that pair is built as
    squares.  A negative budget raises ValueError.
    """
    _check_search_args(d, budget)
    if d <= 3:
        catalog = list(_catalog(d))
        if d == 3:
            catalog = _relabeling_representatives(catalog, d)
        n = len(catalog)
        for i, partners in enumerate(_adjacency(_table_masks(catalog, d, "decodable"))):
            if partners:
                j = (partners & -partners).bit_length() - 1
                pair = (_square(catalog[i]), _square(catalog[j]))
                return PairSearchResult(True, pair, False, "exhaustive", i * n + j + 1)
        return PairSearchResult(False, None, True, "exhaustive", n * n)
    return _hill_climb_pair(d, seed, budget)


def _check_search_args(d: int, budget: int) -> None:
    if d < 2:
        raise ValueError("d must be >= 2")
    if budget < 0:
        raise ValueError(f"budget must be >= 0, got {budget}")


def _diagonal_index(d: int) -> tuple[int, ...]:
    return tuple((j - i) % d for i in range(d) for j in range(d))


def _anti_latin_violations(rows: list[list[int]], d: int) -> int:
    bad = 0
    for r in rows:
        if len(set(r)) == d:
            bad += 1
    for j in range(d):
        if len({rows[i][j] for i in range(d)}) == d:
            bad += 1
    return bad


def _collision_count(fa: Sequence[int], fb: Sequence[int],
                     diag: Sequence[int], d: int) -> int:
    diags_of_token: dict[int, set[int]] = {}
    for i in range(d * d):
        diags_of_token.setdefault(fa[i] * d + fb[i], set()).add(diag[i])
    return sum(len(s) - 1 for s in diags_of_token.values())


def _hill_climb_pair(d: int, seed: int, budget: int) -> PairSearchResult:
    rng = random.Random(seed)
    diag = _diagonal_index(d)

    def fresh() -> list[list[int]]:
        return [[rng.randrange(d) for _ in range(d)] for _ in range(d)]

    def score(a: list[list[int]], b: list[list[int]]) -> int:
        fa = [v for row in a for v in row]
        fb = [v for row in b for v in row]
        return (_anti_latin_violations(a, d) + _anti_latin_violations(b, d)
                + _collision_count(fa, fb, diag, d))

    steps = 0
    while steps < budget:
        a, b = fresh(), fresh()
        current = score(a, b)
        stall = 0
        while steps < budget and stall < 60 * d * d:
            steps += 1
            target = a if rng.random() < 0.5 else b
            i, j = rng.randrange(d), rng.randrange(d)
            old = target[i][j]
            target[i][j] = rng.randrange(d)
            candidate = score(a, b)
            if candidate <= current:
                stall = stall + 1 if candidate == current else 0
                current = candidate
                if current == 0:
                    pair = (AntiLatinSquare.from_rows(a), AntiLatinSquare.from_rows(b))
                    if is_decodable_pair(*pair):
                        return PairSearchResult(True, pair, False, "hill-climb", steps)
            else:
                target[i][j] = old
                stall += 1
    return PairSearchResult(False, None, False, "hill-climb", steps)


# ---------------------------------------------------------------------------
# mutual sets (the open quantities A(d) and B(d))

@dataclass(frozen=True)
class MaxSetResult:
    size: int
    squares: tuple[AntiLatinSquare, ...]
    mode: str
    method: str
    exact: bool


def _pair_predicate(mode: str):
    if mode == "decodable":
        return is_decodable_pair
    if mode == "one-to-one":
        return is_one_to_one_pair
    raise ValueError(f"unknown mode {mode!r}")


def _max_clique(adj: list[int], n: int) -> list[int]:
    """Exact maximum clique via branch and bound with greedy coloring.

    Deterministic given the vertex order; adjacency is bitmask-encoded.
    """
    best: list[int] = []

    def color_sort(p: int) -> tuple[list[int], list[int]]:
        order: list[int] = []
        bounds: list[int] = []
        color = 0
        rest = p
        while rest:
            color += 1
            avail = rest
            while avail:
                v = (avail & -avail).bit_length() - 1
                avail &= avail - 1
                avail &= ~adj[v]
                rest &= ~(1 << v)
                order.append(v)
                bounds.append(color)
        return order, bounds

    def expand(p: int, clique: list[int]) -> None:
        nonlocal best
        if p == 0:
            if len(clique) > len(best):
                best = clique.copy()
            return
        order, bounds = color_sort(p)
        for i in range(len(order) - 1, -1, -1):
            if len(clique) + bounds[i] <= len(best):
                return
            v = order[i]
            clique.append(v)
            expand(p & adj[v], clique)
            clique.pop()
            p &= ~(1 << v)

    expand((1 << n) - 1, [])
    return best


def compatibility_graph(catalog: Sequence[AntiLatinSquare],
                        d: int, mode: str) -> list[int]:
    """Bitmask adjacency over the catalog: i ~ j iff their conflict masks are disjoint."""
    return _adjacency(_conflict_masks(catalog, d, mode))


def _adjacency(masks: Sequence[int]) -> list[int]:
    """Bitmask adjacency over nonzero masks: i ~ j iff masks[i] & masks[j] == 0.

    The masks are transposed: the holders of a bit are the indices whose
    mask has it.  An index's partners are everyone outside the union of
    the holders of its own bits, which holds the index itself, since its
    mask is not 0.  Equal masks share that union, so it is taken once
    per distinct mask.
    """
    members: dict[int, int] = {}
    for i, mask in enumerate(masks):
        members[mask] = members.get(mask, 0) | 1 << i
    holders: dict[int, int] = {}
    for mask, group in members.items():
        while mask:
            bit = mask & -mask
            mask ^= bit
            holders[bit] = holders.get(bit, 0) | group
    everyone = (1 << len(masks)) - 1
    partners = {}
    for mask in members:
        clash, rest = 0, mask
        while rest:
            bit = rest & -rest
            rest ^= bit
            clash |= holders[bit]
        partners[mask] = everyone & ~clash
    return [partners[mask] for mask in masks]


def max_mutual_set(d: int,
                   mode: str = "decodable",
                   method: str = "exact",
                   seed: int = DEFAULT_SEED,
                   budget: int = 60_000) -> MaxSetResult:
    """Largest found set of pairwise-compatible anti-Latin squares.

    mode "decodable" targets A(d), "one-to-one" targets B(d); singleton
    sets satisfy the pairwise condition vacuously, so results are >= 1.
    The exact method (d <= 3 only) walks the catalog as row-number
    tuples, builds the compatibility graph from their table masks, and
    solves maximum clique to optimality; only the clique's squares are
    built.
    The heuristic method reports a certified lower bound.  Both certify
    the set with the reference pair predicate.  A negative budget raises
    ValueError, whatever the method.
    """
    _check_search_args(d, budget)
    predicate = _pair_predicate(mode)
    if method == "exact":
        if d > 3:
            raise BudgetError("exact mode is limited to d <= 3")
        catalog = list(_catalog(d))
        adj = _adjacency(_table_masks(catalog, d, mode))
        clique = _max_clique(adj, len(catalog))
        squares = tuple(_square(catalog[i]) for i in sorted(clique))
        _validate_certificate(squares, predicate)
        return MaxSetResult(len(squares), squares, mode, "exact", True)
    if method != "heuristic":
        raise ValueError(f"unknown method {method!r}")
    squares = _greedy_mutual_set(d, predicate, seed, budget)
    _validate_certificate(squares, predicate)
    return MaxSetResult(len(squares), squares, mode, "heuristic", False)


def _validate_certificate(squares: Sequence[AntiLatinSquare], predicate) -> None:
    for i in range(len(squares)):
        for j in range(i + 1, len(squares)):
            if not predicate(squares[i], squares[j]):
                raise AssertionError("certificate fails its own pairwise predicate")


def _greedy_mutual_set(d: int, predicate, seed: int,
                       budget: int) -> tuple[AntiLatinSquare, ...]:
    """Grow a compatible set by hill-climbing one new member at a time."""
    rng = random.Random(seed)
    diag = _diagonal_index(d)
    one_to_one = predicate is is_one_to_one_pair

    def member_score(rows: list[list[int]], members: list[AntiLatinSquare]) -> int:
        flat = [v for row in rows for v in row]
        s = _anti_latin_violations(rows, d)
        for m in members:
            fm = m.flat()
            if one_to_one:
                cells = d * d
                s += cells - len({(fm[c], flat[c]) for c in range(cells)})
            else:
                s += _collision_count(fm, flat, diag, d)
        return s

    best: list[AntiLatinSquare] = []
    steps = 0
    while steps < budget:
        members: list[AntiLatinSquare] = []
        # keep adding members until the budget runs out or we stall
        while steps < budget:
            rows = [[rng.randrange(d) for _ in range(d)] for _ in range(d)]
            current = member_score(rows, members)
            stall = 0
            grown = False
            while steps < budget and stall < 40 * d * d:
                steps += 1
                if current == 0:
                    members.append(AntiLatinSquare.from_rows(rows))
                    grown = True
                    break
                i, j = rng.randrange(d), rng.randrange(d)
                old = rows[i][j]
                rows[i][j] = rng.randrange(d)
                cand = member_score(rows, members)
                if cand <= current:
                    stall = stall + 1 if cand == current else 0
                    current = cand
                else:
                    rows[i][j] = old
                    stall += 1
            if not grown:
                break
        if len(members) > len(best):
            best = members
    if not best:
        raise BudgetError("heuristic search produced no certificate within budget")
    return tuple(best)
