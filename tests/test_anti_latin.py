import random
from itertools import combinations, product

import pytest

from wiretaplab.anti_latin import (
    AntiLatinSquare,
    MaxSetResult,
    _adjacency,
    _catalog,
    _max_clique,
    _relabeling_representatives,
    _square,
    _table_masks,
    compatibility_graph,
    conflict_mask,
    enumerate_anti_latin,
    find_decodable_pair,
    is_anti_latin,
    is_decodable_pair,
    is_one_to_one_pair,
    max_mutual_set,
    reference_decodable_pair,
    xi_set,
)
from wiretaplab.errors import BudgetError

REF3_A = [[0, 1, 0], [1, 1, 2], [0, 2, 2]]
REF3_B = [[0, 2, 2], [0, 1, 0], [1, 1, 2]]
REF4_A = [[0, 1, 3, 3], [0, 1, 2, 0], [1, 1, 2, 3], [0, 2, 2, 3]]
REF4_B = [[0, 0, 1, 0], [1, 1, 1, 2], [3, 2, 2, 2], [3, 0, 3, 3]]


class TestIsAntiLatin:
    def test_reference_squares_validate(self):
        for rows in (REF3_A, REF3_B, REF4_A, REF4_B):
            assert is_anti_latin(rows)

    def test_latin_square_fails(self):
        latin = [[0, 1, 2], [1, 2, 0], [2, 0, 1]]
        assert not is_anti_latin(latin)

    def test_constant_matrix_passes(self):
        for d in (2, 3, 4):
            assert is_anti_latin([[0] * d for _ in range(d)])

    def test_row_duplicate_only_fails(self):
        # rows have duplicates but the columns are all distinct
        rows = [[0, 0, 1], [1, 1, 2], [2, 2, 0]]
        assert not is_anti_latin(rows)

    def test_malformed_tables_raise(self):
        with pytest.raises(ValueError):
            is_anti_latin([[0, 1], [0]])
        with pytest.raises(ValueError):
            is_anti_latin([[0, 5], [0, 0]])
        with pytest.raises(ValueError):
            is_anti_latin([])

    def test_constructor_enforces_property(self):
        with pytest.raises(ValueError):
            AntiLatinSquare.from_rows([[0, 1, 2], [1, 2, 0], [2, 0, 1]])

    def test_text_round_trip(self):
        sq = AntiLatinSquare.from_rows(REF4_A)
        assert AntiLatinSquare.from_text(sq.to_text()) == sq


class TestXiSet:
    def test_constant_zero_a_selects_whole_diagonal(self):
        a = AntiLatinSquare.from_rows([[0, 0, 0], [0, 0, 0], [0, 0, 0]])
        b = AntiLatinSquare.from_rows(REF3_B)
        xs = xi_set(a, b, 0, 0)
        assert xs.members == frozenset(b.entry(l, l) for l in range(3))

    def test_unattained_value_gives_empty_set(self):
        a = AntiLatinSquare.from_rows([[0, 0, 0], [0, 0, 0], [0, 0, 0]])
        b = AntiLatinSquare.from_rows(REF3_B)
        assert xi_set(a, b, 2, 1).members == frozenset()

    def test_reference_pair_sets_disjoint_across_messages(self):
        a, b = reference_decodable_pair(3)
        for z in range(3):
            for m1, m2 in combinations(range(3), 2):
                s1 = xi_set(a, b, z, m1).members
                s2 = xi_set(a, b, z, m2).members
                assert not (s1 & s2)

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            xi_set(AntiLatinSquare.from_rows(REF3_A),
                   AntiLatinSquare.from_rows(REF4_A), 0, 0)

    @pytest.mark.parametrize("z, m", [(3, 0), (7, 0), (-1, 0), (0, 3), (0, -1)])
    def test_z_and_m_outside_zd_raise(self, z, m):
        a, b = reference_decodable_pair(3)
        with pytest.raises(ValueError):
            xi_set(a, b, z, m)


class TestPairPredicates:
    def test_reference_pairs_decodable(self):
        assert is_decodable_pair(*reference_decodable_pair(3))
        assert is_decodable_pair(*reference_decodable_pair(4))

    def test_reference_pairs_one_to_one(self):
        assert is_one_to_one_pair(*reference_decodable_pair(3))
        assert is_one_to_one_pair(*reference_decodable_pair(4))

    def test_constant_pair_not_decodable(self):
        zeros = AntiLatinSquare.from_rows([[0, 0], [0, 0]])
        ones = AntiLatinSquare.from_rows([[1, 1], [1, 1]])
        assert not is_decodable_pair(zeros, ones)
        assert not is_decodable_pair(zeros, zeros)

    def test_square_with_itself_never_one_to_one(self):
        for rows in (REF3_A, REF4_B):
            sq = AntiLatinSquare.from_rows(rows)
            assert not is_one_to_one_pair(sq, sq)

    def test_one_to_one_implies_decodable_on_samples(self):
        rng = random.Random(404)
        catalog = enumerate_anti_latin(3)
        for _ in range(4000):
            a = catalog[rng.randrange(len(catalog))]
            b = catalog[rng.randrange(len(catalog))]
            if is_one_to_one_pair(a, b):
                assert is_decodable_pair(a, b)

    def test_decodability_is_symmetric(self):
        rng = random.Random(405)
        catalog = enumerate_anti_latin(3)
        for _ in range(2000):
            a = catalog[rng.randrange(len(catalog))]
            b = catalog[rng.randrange(len(catalog))]
            assert is_decodable_pair(a, b) == is_decodable_pair(b, a)


def random_anti_latin(rng, d):
    while True:
        rows = [[rng.randrange(d) for _ in range(d)] for _ in range(d)]
        if is_anti_latin(rows):
            return AntiLatinSquare.from_rows(rows)


def sample_pairs(rng, d, count):
    """Random pairs, and relabeled compatible pairs with one cell redrawn or not.

    Uniform random pairs are almost never compatible, so most samples
    start from a known decodable pair and may or may not stay compatible.
    """
    base = reference_decodable_pair(d) if d in (3, 4) else find_decodable_pair(d).pair
    pairs = []
    while len(pairs) < count:
        if rng.random() < 0.25:
            pairs.append((random_anti_latin(rng, d), random_anti_latin(rng, d)))
            continue
        a, b = (sq.relabel(rng.sample(range(d), d)) for sq in base)
        rows = [list(r) for r in b.rows]
        if rng.random() < 0.5:
            rows[rng.randrange(d)][rng.randrange(d)] = rng.randrange(d)
        if is_anti_latin(rows):
            pairs.append((a, AntiLatinSquare.from_rows(rows)))
    return pairs


class TestConflictMask:
    @pytest.mark.parametrize("d", [3, 4, 5])
    def test_disjointness_matches_reference_predicates(self, d):
        rng = random.Random(3000 + d)
        outcomes = set()
        for a, b in sample_pairs(rng, d, 200):
            for mode, predicate in (("decodable", is_decodable_pair),
                                    ("one-to-one", is_one_to_one_pair)):
                disjoint = not conflict_mask(a, mode) & conflict_mask(b, mode)
                assert disjoint == predicate(a, b)
                assert disjoint == predicate(b, a)
                outcomes.add((mode, disjoint))
        assert ("decodable", True) in outcomes and ("decodable", False) in outcomes

    def test_constrained_pair_counts(self):
        sq = AntiLatinSquare.from_rows([[0] * 3 for _ in range(3)])
        assert conflict_mask(sq, "decodable") == (1 << 27) - 1
        assert conflict_mask(sq, "one-to-one") == (1 << 36) - 1

    def test_no_mask_is_zero(self, d3_catalog):
        for mode in ("decodable", "one-to-one"):
            for sq in d3_catalog:
                assert conflict_mask(sq, mode) != 0
        rng = random.Random(77)
        for d in (2, 4, 5):
            for _ in range(50):
                sq = random_anti_latin(rng, d)
                assert conflict_mask(sq, "decodable") != 0

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            conflict_mask(AntiLatinSquare.from_rows(REF3_A), "orthogonal")

    @pytest.mark.parametrize("mode, predicate", [
        ("decodable", is_decodable_pair), ("one-to-one", is_one_to_one_pair)])
    def test_graph_matches_reference_on_a_sample(
            self, d3_catalog, d3_decodable_adj, d3_one_to_one_adj, mode, predicate):
        # every pair inside the sample, which holds the one-to-one
        # reference pair; the frozen edge totals of TestOpenQuestionReport
        # cover the rest of the graph
        adj = d3_decodable_adj if mode == "decodable" else d3_one_to_one_adj
        sample = random.Random(1500).sample(range(len(d3_catalog)), 148)
        sample += [d3_catalog.index(sq) for sq in reference_decodable_pair(3)]
        edges = 0
        for i, j in combinations(sample, 2):
            expected = predicate(d3_catalog[i], d3_catalog[j])
            assert adj[i] >> j & 1 == adj[j] >> i & 1 == expected
            edges += expected
        assert edges > 0

    @pytest.mark.parametrize("mode", ["decodable", "one-to-one"])
    @pytest.mark.parametrize("d", [2, 3])
    def test_row_table_walk_matches_the_square_reference(self, d, mode, d3_catalog):
        # the row-number walk and its table masks against the built
        # squares, their per-square masks and their compatibility graph
        catalog = d3_catalog if d == 3 else enumerate_anti_latin(d)
        numbers = list(_catalog(d))
        masks = _table_masks(numbers, d, mode)
        assert masks == [conflict_mask(sq, mode) for sq in catalog]
        assert _adjacency(masks) == compatibility_graph(catalog, d, mode)

    def test_adjacency_is_pairwise_disjointness(self):
        # oracle: every ordered pair of a small mask list with repeats
        rng = random.Random(606)
        for _ in range(30):
            masks = [rng.randrange(1, 64) for _ in range(rng.randint(1, 25))]
            adj = _adjacency(masks)
            for i, j in product(range(len(masks)), repeat=2):
                assert adj[i] >> j & 1 == (not masks[i] & masks[j])

    def test_graph_has_no_self_loops(self, d3_decodable_adj, d3_one_to_one_adj):
        for adj in (d3_decodable_adj, d3_one_to_one_adj):
            assert all(not row >> i & 1 for i, row in enumerate(adj))

    def test_graph_rejects_size_mismatch(self):
        with pytest.raises(ValueError):
            compatibility_graph([AntiLatinSquare.from_rows(REF4_A)], 3, "decodable")


class TestEnumeration:
    def test_d2_catalog_is_the_two_constant_squares(self):
        # oracle: scan all 16 raw tables directly
        expected = []
        for flat in product(range(2), repeat=4):
            rows = [flat[:2], flat[2:]]
            dup_rows = all(r[0] == r[1] for r in rows)
            dup_cols = rows[0][0] == rows[1][0] and rows[0][1] == rows[1][1]
            if dup_rows and dup_cols:
                expected.append(tuple(map(tuple, rows)))
        assert expected == [((0, 0), (0, 0)), ((1, 1), (1, 1))]
        catalog = enumerate_anti_latin(2)
        assert [sq.rows for sq in catalog] == expected

    def test_d3_catalog_size_frozen(self):
        assert len(enumerate_anti_latin(3)) == 4413

    @pytest.mark.parametrize("d", [-2, -1, 0, 1, 2, 3])
    def test_catalog_is_the_filtered_walk_over_every_table(self, d, d3_catalog):
        # oracle: every d^(d*d) table in lexicographic order, kept when
        # is_anti_latin holds; the same squares in the same order, and the
        # same error for the empty d = 0 table
        def walk():
            return [tuple(flat[i * d:(i + 1) * d] for i in range(d))
                    for flat in product(range(d), repeat=d * d)
                    if is_anti_latin([flat[i * d:(i + 1) * d] for i in range(d)])]

        if d == 0:
            for enumerate_squares in (walk, lambda: enumerate_anti_latin(0)):
                with pytest.raises(ValueError, match="empty table"):
                    enumerate_squares()
            return
        catalog = d3_catalog if d == 3 else enumerate_anti_latin(d)
        assert [sq.rows for sq in catalog] == walk()

    def test_d4_rejected(self):
        with pytest.raises(BudgetError):
            enumerate_anti_latin(4)

    def test_relabeling_preserves_property(self):
        rng = random.Random(7)
        catalog = enumerate_anti_latin(3)
        perms = [(0, 1, 2), (1, 2, 0), (2, 1, 0), (0, 2, 1)]
        for _ in range(200):
            sq = catalog[rng.randrange(len(catalog))]
            perm = perms[rng.randrange(len(perms))]
            assert is_anti_latin(sq.relabel(perm).rows)

    def test_canonical_representatives_cover_catalog(self):
        catalog = list(_catalog(3))
        reps = _relabeling_representatives(catalog, 3)
        assert len(reps) == 736
        # every orbit has a representative: relabelings of reps cover all
        perms = [p for p in product(range(3), repeat=3) if len(set(p)) == 3]
        seen = set()
        for rep in reps:
            for perm in perms:
                seen.add(_square(rep).relabel(perm).rows)
        assert seen == {_square(numbers).rows for numbers in catalog}


class TestFindDecodablePair:
    def test_d2_proven_not_found(self):
        result = find_decodable_pair(2)
        assert not result.found
        assert result.proven_empty
        assert result.method == "exhaustive"
        assert result.examined == 4

    def test_d3_succeeds_exhaustively(self):
        result = find_decodable_pair(3)
        assert result.found and not result.proven_empty
        assert result.method == "exhaustive"
        assert is_decodable_pair(*result.pair)
        # frozen from the square-by-square pair loop: the first compatible
        # pair of representatives in row-major order
        assert [sq.rows for sq in result.pair] == [
            ((0, 0, 1), (0, 0, 1), (1, 1, 0)), ((0, 1, 0), (2, 0, 2), (2, 0, 0))]
        assert result.examined == 97637

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_negative_budget_rejected(self, d):
        with pytest.raises(ValueError, match="budget must be >= 0"):
            find_decodable_pair(d, budget=-1)

    @pytest.mark.parametrize("d", [4, 5])
    def test_hill_climb_finds_pairs(self, d):
        result = find_decodable_pair(d)
        assert result.found
        assert result.method == "hill-climb"
        a, b = result.pair
        assert is_anti_latin(a.rows) and is_anti_latin(b.rows)
        assert is_decodable_pair(a, b)

    def test_seed_determinism(self):
        r1 = find_decodable_pair(4, seed=99)
        r2 = find_decodable_pair(4, seed=99)
        assert r1.pair == r2.pair
        assert r1.examined == r2.examined

    def test_budget_exhaustion_reported_not_proven(self):
        result = find_decodable_pair(5, seed=1, budget=5)
        assert not result.found
        assert not result.proven_empty


def brute_force_clique(adj, n):
    best = 0
    for size in range(n, 0, -1):
        for combo in combinations(range(n), size):
            if all(adj[u] >> v & 1 for u, v in combinations(combo, 2)):
                return size
        if best:
            break
    return 0


class TestMaxClique:
    def test_against_brute_force_on_random_graphs(self):
        rng = random.Random(2718)
        for _ in range(40):
            n = rng.randint(4, 12)
            adj = [0] * n
            for u in range(n):
                for v in range(u + 1, n):
                    if rng.random() < 0.45:
                        adj[u] |= 1 << v
                        adj[v] |= 1 << u
            assert len(_max_clique(adj, n)) == brute_force_clique(adj, n)


class TestMaxMutualSet:
    def test_d2_both_modes_are_singletons(self):
        for mode in ("decodable", "one-to-one"):
            result = max_mutual_set(2, mode, "exact")
            assert result.size == 1
            assert result.exact

    def test_d3_exact_one_to_one(self):
        result = max_mutual_set(3, "one-to-one", "exact")
        assert result.exact
        assert result.size >= 1
        for a, b in combinations(result.squares, 2):
            assert is_one_to_one_pair(a, b)

    def test_d3_exact_decodable_at_least_one_to_one(self):
        decodable = max_mutual_set(3, "decodable", "exact")
        one_to_one = max_mutual_set(3, "one-to-one", "exact")
        assert decodable.size >= one_to_one.size
        for a, b in combinations(decodable.squares, 2):
            assert is_decodable_pair(a, b)

    def test_heuristic_lower_bound_d4(self):
        result = max_mutual_set(4, "decodable", "heuristic", seed=11, budget=30_000)
        assert not result.exact
        assert result.size >= 1
        for a, b in combinations(result.squares, 2):
            assert is_decodable_pair(a, b)

    @pytest.mark.parametrize("mode, certificate", [
        ("decodable", [((2, 1, 1), (2, 2, 1), (1, 2, 2)),
                       ((2, 1, 2), (1, 2, 1), (1, 1, 2)),
                       ((2, 2, 1), (1, 2, 2), (2, 1, 2))]),
        ("one-to-one", [((2, 1, 1), (2, 2, 0), (0, 1, 0)),
                        ((2, 1, 2), (0, 1, 1), (0, 0, 2)),
                        ((2, 2, 1), (1, 0, 1), (2, 0, 0))]),
    ])
    def test_d3_exact_certificates_frozen(self, mode, certificate):
        # frozen from the clique search over the square-built graph
        result = max_mutual_set(3, mode, "exact")
        assert [sq.rows for sq in result.squares] == certificate

    @pytest.mark.parametrize("d, method", [(3, "exact"), (4, "heuristic")])
    def test_negative_budget_rejected(self, d, method):
        with pytest.raises(ValueError, match="budget must be >= 0"):
            max_mutual_set(d, "decodable", method, budget=-5)

    def test_exact_rejected_above_d3(self):
        with pytest.raises(BudgetError):
            max_mutual_set(4, "decodable", "exact")

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            max_mutual_set(3, "orthogonal", "exact")

    @pytest.mark.parametrize("method", ["exact", "heuristic"])
    @pytest.mark.parametrize("d", [-1, 0, 1])
    def test_d_below_two_rejected(self, d, method):
        with pytest.raises(ValueError):
            max_mutual_set(d, "decodable", method)


class TestOpenQuestionReport:
    def test_decodability_strictly_weaker_than_one_to_one_at_d3(
            self, d3_catalog, d3_decodable_adj, d3_one_to_one_adj):
        n = len(d3_catalog)
        # one-to-one edges must be a subset of decodable edges
        for i in range(n):
            assert d3_one_to_one_adj[i] & ~d3_decodable_adj[i] == 0
        dec_edges = sum(bin(a).count("1") for a in d3_decodable_adj) // 2
        oto_edges = sum(bin(a).count("1") for a in d3_one_to_one_adj) // 2
        # frozen by the exhaustive pair sweep: decodable-but-not-one-to-one
        # pairs exist, so decodability is strictly weaker at d=3
        assert (dec_edges, oto_edges) == (52380, 432)
        assert dec_edges > oto_edges
