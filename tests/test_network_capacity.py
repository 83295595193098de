import math
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wiretaplab.algebra import Matrix
from wiretaplab.errors import BudgetError
from wiretaplab.info_theory import JointDistribution, mutual_information
from wiretaplab.network_capacity import (
    LayeredUnicastNetwork,
    NodeInfo,
    WiretapIICode,
    Wiretap2Report,
    WiretapNetwork,
    fig1_network,
    mincut1,
    mincut2,
    one_hop_network,
    rwiretap_capacities,
    unicast_capacities,
    wiretap2_decode,
    wiretap2_encode,
    wiretap2_verify,
)


def single_edge_network():
    return WiretapNetwork.from_text("node s source message\nnode t terminal\nedge s t\n")


def random_pseudo_free_dag(rng, n_nodes):
    names = [str(i) for i in range(n_nodes)]
    edges = []
    for i in range(n_nodes):
        for j in range(i + 1, n_nodes):
            if rng.random() < 0.45:
                edges.append((names[i], names[j]))
    for j in range(1, n_nodes):
        if not any(v == names[j] for _, v in edges):
            edges.append((names[rng.randrange(j)], names[j]))
    nodes = ([(names[0], NodeInfo("source", has_message=True))]
             + [(names[i], NodeInfo("intermediate")) for i in range(1, n_nodes - 1)]
             + [(names[-1], NodeInfo("terminal"))])
    return WiretapNetwork(tuple(nodes), tuple(edges))


@st.composite
def random_dag_networks(draw):
    """A network with random names, roles, flags and (multi-)edges along a random order."""
    # node ids are whitespace-free tokens without the comment mark
    names = draw(st.lists(st.text("abzST019_-.:é", min_size=1, max_size=4),
                          min_size=2, max_size=8, unique=True))
    n = len(names)
    source, terminal = draw(st.permutations(range(n)))[:2]
    nodes = []
    for i, name in enumerate(names):
        role = "source" if i == source else "terminal" if i == terminal else "intermediate"
        nodes.append((name, NodeInfo(role, draw(st.booleans()), draw(st.booleans()))))
    order = draw(st.permutations(names))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda p: p[0] < p[1])
    edges = tuple((order[i], order[j]) for i, j in draw(st.lists(pairs, max_size=12)))
    return WiretapNetwork(tuple(nodes), edges)


class TestNetworkParsing:
    def test_round_trip(self):
        net = fig1_network()
        assert WiretapNetwork.from_text(net.to_text()) == net

    @settings(derandomize=True, database=None, max_examples=100, deadline=None)
    @given(random_dag_networks())
    def test_round_trip_random_dags(self, net):
        assert WiretapNetwork.from_text(net.to_text()) == net

    @pytest.mark.parametrize("bad", ["a b", "a#b", "", "#", "a\tb", "a\nb", 7])
    def test_ids_the_text_form_cannot_carry_are_refused(self, bad):
        with pytest.raises(ValueError, match="node id"):
            WiretapNetwork(((bad, NodeInfo("source")), ("t", NodeInfo("terminal"))),
                           ((bad, "t"),))

    @settings(derandomize=True, database=None, max_examples=100, deadline=None)
    @given(st.lists(st.text(st.sampled_from(" #\t\n\x1c\u2028ab") | st.characters(
        blacklist_categories=("Cs",)), max_size=3), min_size=2, max_size=4, unique=True))
    def test_every_id_round_trips_or_is_refused(self, ids):
        roles = ["source", "terminal"] + ["intermediate"] * (len(ids) - 2)
        nodes = tuple((n, NodeInfo(role)) for n, role in zip(ids, roles))
        try:
            net = WiretapNetwork(nodes, ((ids[0], ids[1]),))
        except ValueError:
            return
        assert WiretapNetwork.from_text(net.to_text()) == net

    def test_bad_lines_rejected(self):
        with pytest.raises(ValueError):
            WiretapNetwork.from_text("vertex a source\n")
        with pytest.raises(ValueError):
            WiretapNetwork.from_text("node a source\nnode b terminal\nedge a\n")
        with pytest.raises(ValueError):
            WiretapNetwork.from_text("node a source glowing\nnode b terminal\n")

    def test_cycle_rejected(self):
        text = ("node s source\nnode a intermediate\nnode b intermediate\n"
                "node t terminal\nedge s a\nedge a b\nedge b a\nedge b t\n")
        with pytest.raises(ValueError):
            WiretapNetwork.from_text(text)

    def test_single_source_and_terminal_required(self):
        with pytest.raises(ValueError):
            WiretapNetwork.from_text("node a source\nnode b source\n")

    def test_pseudo_source_detection_is_structural(self):
        net = fig1_network()
        assert net.pseudo_sources() == ("5",)
        # annotating a message removes pseudo-source status
        text = net.to_text().replace("node 5 intermediate random",
                                     "node 5 intermediate message random")
        assert WiretapNetwork.from_text(text).pseudo_sources() == ()


class TestMincuts:
    def test_fig1_values(self):
        net = fig1_network()
        assert mincut1(net) == 3
        assert mincut2(net) == 2

    def test_single_edge(self):
        net = single_edge_network()
        assert mincut1(net) == 1
        assert mincut2(net) == 1

    def test_one_hop_topology(self):
        net = one_hop_network()
        assert mincut1(net) == 2
        assert mincut2(net) == 2

    def test_no_pseudo_source_makes_cuts_equal(self):
        rng = random.Random(314)
        for _ in range(25):
            net = random_pseudo_free_dag(rng, rng.randint(4, 8))
            assert mincut1(net) == mincut2(net)

    def test_disconnected_terminal_gives_zero(self):
        text = ("node s source\nnode a intermediate\nnode t terminal\n"
                "edge s a\n")
        net = WiretapNetwork.from_text(text)
        assert mincut1(net) == 0
        assert mincut2(net) == 0

    def test_removal_only_decreases(self):
        rng = random.Random(925)
        for _ in range(25):
            net = random_pseudo_free_dag(rng, rng.randint(4, 8))
            # plant a pseudo source feeding a random node
            nodes = net.nodes + (("p", NodeInfo("intermediate", has_random=True)),)
            target = net.nodes[rng.randrange(1, len(net.nodes))][0]
            planted = WiretapNetwork(nodes, net.edges + (("p", target),))
            assert mincut2(planted) <= mincut1(planted)


class TestRWiretap:
    def test_fig1_r2(self):
        caps = rwiretap_capacities(fig1_network(), 2)
        assert caps.c2 == 0
        assert (caps.c1_lower, caps.c1_upper) == (0, 1)
        assert not caps.collapsed

    def test_one_hop_r1_collapses(self):
        caps = rwiretap_capacities(one_hop_network(), 1)
        assert caps.collapsed
        assert caps.c1_lower == caps.c1_upper == caps.c2 == 1

    def test_r0_gives_mincut2(self):
        for net in (fig1_network(), one_hop_network(), single_edge_network()):
            caps = rwiretap_capacities(net, 0)
            assert caps.c2 == mincut2(net)

    def test_clamped_to_zero(self):
        caps = rwiretap_capacities(one_hop_network(), 5)
        assert caps.c2 == 0 and caps.c1_upper == 0
        assert caps.clamped

    def test_ordering_invariant(self):
        rng = random.Random(27)
        for _ in range(20):
            net = random_pseudo_free_dag(rng, rng.randint(4, 8))
            for r in range(0, 4):
                caps = rwiretap_capacities(net, r)
                assert caps.c2 <= caps.c1_lower <= caps.c1_upper

    def test_bounds_collapse_on_pseudo_free_dags(self):
        rng = random.Random(20240917)
        for _ in range(20):
            net = random_pseudo_free_dag(rng, rng.randint(4, 9))
            r = rng.randint(0, 3)
            caps = rwiretap_capacities(net, r)
            assert caps.collapsed
            assert caps.c1_lower == caps.c1_upper == max(mincut1(net) - r, 0)


class TestUnicastCapacities:
    def test_two_layer_example(self):
        net = LayeredUnicastNetwork((2, 2), (1, 1), 2)
        caps = unicast_capacities(net)
        assert caps.c1_bits == pytest.approx(1.0, abs=1e-12)
        assert caps.c2_bits == pytest.approx(0.5, abs=1e-12)
        assert caps.c2_factor == Fraction(1, 2)

    def test_no_taps_collapses_to_min_width(self):
        net = LayeredUnicastNetwork((3, 2, 4), (0, 0, 0), 5)
        caps = unicast_capacities(net)
        expected = math.log2(5) * 2
        assert caps.c1_bits == pytest.approx(expected, abs=1e-12)
        assert caps.c2_bits == pytest.approx(expected, abs=1e-12)

    def test_single_layer(self):
        net = LayeredUnicastNetwork((5,), (2,), 3)
        caps = unicast_capacities(net)
        expected = math.log2(3) * 3
        assert caps.c1_bits == pytest.approx(expected, abs=1e-12)
        assert caps.c2_bits == pytest.approx(expected, abs=1e-12)

    def test_c2_never_exceeds_c1(self):
        rng = random.Random(5150)
        for _ in range(200):
            c = rng.randint(1, 4)
            k = tuple(rng.randint(1, 5) for _ in range(c))
            r = tuple(rng.randint(0, ki - 1) for ki in k)
            caps = unicast_capacities(LayeredUnicastNetwork(k, r, 2))
            assert caps.c2_bits <= caps.c1_bits + 1e-12

    def test_invalid_budgets_rejected(self):
        with pytest.raises(ValueError):
            LayeredUnicastNetwork((2, 2), (1, 2), 2)
        with pytest.raises(ValueError):
            LayeredUnicastNetwork((2,), (1, 1), 2)

    def test_json_loader(self):
        net = LayeredUnicastNetwork.from_json_dict(
            {"c": 2, "k": [2, 2], "r": [1, 1], "q": 2})
        assert net == LayeredUnicastNetwork((2, 2), (1, 1), 2)
        with pytest.raises(ValueError):
            LayeredUnicastNetwork.from_json_dict({"c": 3, "k": [2], "r": [1], "q": 2})


def walked_report(code):
    """Oracle: every message and scramble vector, literally, per tap subset.

    Each subset's view counts must be the same for every message; if
    some are not, the leakage is the largest I(M; X_S) of the exact
    joint laws.
    """
    q, k, r = code.q, code.k, code.r
    decode_ok = True
    subsets = list(combinations(range(k), r))
    counts = {s: {} for s in subsets}
    messages = list(product(range(q), repeat=code.message_length))
    for message in messages:
        for scrambles in product(range(q), repeat=r):
            word = wiretap2_encode(code, message, scrambles)
            decode_ok &= wiretap2_decode(code, word) == message
            for s in subsets:
                slot = counts[s].setdefault(tuple(word[i] for i in s), {})
                slot[message] = slot.get(message, 0) + 1
    all_zero = all(len(per_message) == len(messages) and len(set(per_message.values())) == 1
                   for views in counts.values() for per_message in views.values())
    max_leak = 0.0
    mvars = [(f"M{i}", q) for i in range(code.message_length)]
    for s in subsets:
        if all_zero or not s:
            continue
        weights = {message + view: w for view, per_message in counts[s].items()
                   for message, w in per_message.items()}
        vvars = [(f"X{i}", q) for i in range(len(s))]
        dist = JointDistribution.from_weights(mvars + vvars, weights)
        max_leak = max(max_leak, mutual_information(
            dist, [n for n, _ in mvars], [n for n, _ in vvars]))
    return Wiretap2Report(k, r, q, decode_ok, len(subsets), max_leak, all_zero)


def random_generator_codes(rng, count):
    """Seeded codes with uniformly random r x k generators over F_q, q^k <= 243."""
    codes = []
    while len(codes) < count:
        q = rng.choice((2, 3, 5))
        k = rng.randint(2, {2: 7, 3: 5, 5: 3}[q])
        r = rng.randint(1, k - 1)
        entries = tuple(rng.randrange(q) for _ in range(r * k))
        codes.append(WiretapIICode(k, r, q, Matrix(r, k, q, entries)))
    return codes


class TestWiretapII:
    def test_q3_single_taps_leak_nothing(self):
        report = wiretap2_verify(WiretapIICode.build(3, 1, 3))
        assert report.decode_ok
        assert report.all_taps_zero
        assert report.subsets_checked == 3
        assert report.max_leakage_bits == 0.0

    def test_q5_double_taps_leak_nothing(self):
        report = wiretap2_verify(WiretapIICode.build(4, 2, 5))
        assert report.decode_ok
        assert report.all_taps_zero
        assert report.subsets_checked == 6

    def test_r0_is_plain_invertible_map(self):
        code = WiretapIICode.build(3, 0, 3)
        for message in product(range(3), repeat=3):
            word = wiretap2_encode(code, message, ())
            assert wiretap2_decode(code, word) == message
        report = wiretap2_verify(code)
        assert report.decode_ok and report.all_taps_zero

    def test_encode_decode_round_trip(self):
        code = WiretapIICode.build(5, 2, 7)
        rng = random.Random(8)
        for _ in range(200):
            message = tuple(rng.randrange(7) for _ in range(3))
            scrambles = tuple(rng.randrange(7) for _ in range(2))
            assert wiretap2_decode(code, wiretap2_encode(code, message, scrambles)) \
                == message

    def test_tapped_symbols_uniform_by_hand(self):
        # oracle: for each pair of tapped positions, every view value must
        # appear exactly q^(k-r) ... wait, q^r scrambles spread over q^r views
        code = WiretapIICode.build(4, 2, 5)
        for s in ((0, 1), (0, 3), (2, 3)):
            for message in (((0, 0)), ((1, 4))):
                seen = {}
                for scr in product(range(5), repeat=2):
                    word = wiretap2_encode(code, message, scr)
                    view = tuple(word[i] for i in s)
                    seen[view] = seen.get(view, 0) + 1
                assert len(seen) == 25
                assert set(seen.values()) == {1}

    def test_bad_parameters(self):
        with pytest.raises(ValueError):
            WiretapIICode.build(3, 3, 5)
        with pytest.raises(ValueError):
            WiretapIICode.build(4, 2, 4)
        with pytest.raises(ValueError):
            WiretapIICode.build(5, 1, 3)  # q < k

    def test_rank_path_matches_the_walk_on_mds_codes(self):
        cases = [(q, k, r) for q in (2, 3, 5, 7) for k in range(1, q + 1) for r in range(k)
                 if q ** k * math.comb(k, r) <= 1 << 12]
        assert len(cases) == 27
        for q, k, r in cases:
            code = WiretapIICode.build(k, r, q)
            report = wiretap2_verify(code)
            assert report.to_json_dict() == walked_report(code).to_json_dict(), (q, k, r)
            assert report.all_taps_zero and report.decode_ok

    def test_rank_path_matches_the_walk_on_random_generators(self):
        outcomes = Counter()
        for code in random_generator_codes(random.Random(20261018), 300):
            got, want = wiretap2_verify(code), walked_report(code)
            shape = (code.q, code.k, code.r, code.generator.entries)
            assert (got.decode_ok, got.all_taps_zero, got.subsets_checked) == \
                (want.decode_ok, want.all_taps_zero, want.subsets_checked), shape
            assert got.max_leakage_bits == pytest.approx(want.max_leakage_bits, abs=1e-9)
            outcomes[got.decode_ok, got.all_taps_zero] += 1
        # every outcome occurs, and at least 200 codes leak or fail to decode
        assert len(outcomes) == 4
        assert 300 - outcomes[True, True] >= 200

    def test_leakage_is_a_whole_number_of_symbols(self):
        # tapping the one scramble and the one message symbol of a code
        # whose generator never reaches the message position: a full symbol
        code = WiretapIICode(2, 1, 5, Matrix(1, 2, 5, (1, 0)))
        report = wiretap2_verify(code)
        assert report.decode_ok and not report.all_taps_zero
        assert report.max_leakage_bits == math.log2(5)

    @pytest.mark.parametrize("k, r, q", [(20, 10, 23), (93, 90, 97), (5000, 0, 5003)])
    def test_budget_is_checked_before_any_elimination(self, monkeypatch, k, r, q):
        # too many tap subsets, too large ones, and too long a decode check
        code = WiretapIICode.build(k, r, q)

        def refuse(*args):
            raise AssertionError("work started before the budget check")

        monkeypatch.setattr(Matrix, "rank", refuse)
        monkeypatch.setattr(Matrix, "mat_vec", refuse)
        with pytest.raises(BudgetError, match="tap subsets"):
            wiretap2_verify(code)


class TestWiretapIICodeValidation:
    def test_r_outside_0_to_k(self):
        with pytest.raises(ValueError, match="0 <= r < k"):
            WiretapIICode(3, 3, 5, Matrix(3, 3, 5, (0,) * 9))
        with pytest.raises(ValueError, match="0 <= r < k"):
            WiretapIICode(3, -1, 5, None)

    def test_composite_q(self):
        # rank over Z_4 is undefined, so this code must not verify
        with pytest.raises(ValueError, match="not prime"):
            WiretapIICode(3, 1, 4, Matrix(1, 3, 4, (1, 1, 1)))

    def test_generator_present_exactly_when_r_positive(self):
        with pytest.raises(ValueError, match="exactly when r > 0"):
            WiretapIICode(3, 1, 5, None)
        with pytest.raises(ValueError, match="exactly when r > 0"):
            WiretapIICode(3, 0, 5, Matrix(0, 3, 5, ()))

    def test_generator_of_the_wrong_shape_or_modulus(self):
        for generator in (Matrix(1, 3, 5, (1, 1, 1)),     # mod 5 in a q = 3 code
                          Matrix(1, 2, 3, (1, 1)),         # too few columns
                          Matrix(2, 3, 3, (1, 0, 1, 0, 1, 1)),  # too many rows
                          ((1, 1, 1),)):                   # not a Matrix
            with pytest.raises(ValueError, match="r x k"):
                WiretapIICode(3, 1, 3, generator)
