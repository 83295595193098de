import hashlib
import math
import random
import re
from itertools import product

import pytest

from wiretaplab.anti_latin import (
    AntiLatinSquare,
    find_decodable_pair,
    reference_decodable_pair,
)
from wiretaplab.attack_engine import AttackClass, classify
from wiretaplab.info_theory import JointDistribution, is_independent, mutual_information
from wiretaplab.onehop_codes import (
    OneHopCode,
    anti_latin_code,
    check_correctness,
    enumerate_code_tables,
    enumerate_onehop_codes,
    is_equivalent_to_standard,
    scalar_linear_code,
    standard_equivalence_certificate,
    standard_nonlinear_code,
    vector_linear_code,
)

# fixed by the d=2 exhaustive enumeration (256 x 256 encoder/relay pairs)
ENUM_CORRECT_COUNT_D2 = 11232
# sha256 of the enumerated code names joined by newlines, in order
ENUM_NAMES_SHA256_D2 = "169f87fa81c7ca0d2a5c2947eb24126fafe928c3c886602967fc01d2425e73ab"


def view_joint(code, view_symbols, d):
    """Joint law of (M, chosen wire symbols) built straight off the tables."""
    weights = {}
    for key in code.encoder_inputs():
        m, scrambles = key[0], key[1:]
        for lp in code.relay_random_values():
            first, y34, _ = code.transmit(m, scrambles, lp)
            symbols = {"Y1": first[0], "Y2": first[1], "Y3": y34[0], "Y4": y34[1]}
            if code.shots == 2:
                symbols["Y1p"], symbols["Y2p"] = first[2], first[3]
            k = (m,) + tuple(symbols[s] for s in view_symbols)
            weights[k] = weights.get(k, 0) + 1
    variables = [("M", d)] + [(s, d) for s in view_symbols]
    return JointDistribution.from_weights(variables, weights)


class TestScalarLinear:
    def test_single_transcript_d2(self):
        code = scalar_linear_code(2)
        first, y34, decoded = code.transmit(1, (0,), 1)
        assert first == (0, 1)
        assert y34 == (1, 0)
        assert decoded == 1

    def test_all_inputs_decode_d3(self):
        code = scalar_linear_code(3)
        for m, l, lp in product(range(3), repeat=3):
            assert code.transmit(m, (l,), lp)[2] == m

    def test_passive_views_leak_nothing(self):
        code = scalar_linear_code(3)
        for view in (("Y1", "Y3"), ("Y1", "Y4"), ("Y2", "Y3"), ("Y2", "Y4")):
            d = view_joint(code, view, 3)
            assert is_independent(d, "M", view)
            assert mutual_information(d, "M", view) == pytest.approx(0.0, abs=1e-12)


class TestStandardNonlinear:
    def test_d2_relay_formula(self):
        code = standard_nonlinear_code(2)
        for m, l in product(range(2), repeat=2):
            _, (y3, y4), _ = code.transmit(m, (l,))
            assert y3 == (l * m) % 2
            assert y4 == (l * m + m) % 2

    def test_zero_scramble_any_d(self):
        for d in (2, 3, 5, 7):
            code = standard_nonlinear_code(d)
            for m in range(d):
                _, (y3, y4), _ = code.transmit(m, (0,))
                assert (y3, y4) == (0, m)

    def test_all_inputs_decode_d5(self):
        code = standard_nonlinear_code(5)
        for m, l in product(range(5), repeat=2):
            assert code.transmit(m, (l,))[2] == m


class TestAntiLatinCode:
    def test_reference_pair_d3_builds(self):
        code = anti_latin_code(*reference_decodable_pair(3))
        assert check_correctness(code)

    def test_reference_pair_d4_builds(self):
        code = anti_latin_code(*reference_decodable_pair(4))
        assert check_correctness(code)

    def test_constant_pair_d2_rejected(self):
        zeros = AntiLatinSquare.from_rows([[0, 0], [0, 0]])
        ones = AntiLatinSquare.from_rows([[1, 1], [1, 1]])
        with pytest.raises(ValueError):
            anti_latin_code(zeros, ones)

    def test_decoder_inverts_xi_partition(self):
        for d in (3, 4):
            a, b = reference_decodable_pair(d)
            code = anti_latin_code(a, b)
            for l, m in product(range(d), repeat=2):
                y3 = a.entry(l, (l + m) % d)
                y4 = b.entry(l, (l + m) % d)
                assert code.decoder[(y3, y4)] == m


class TestVectorLinear:
    def test_all_inputs_decode_d3(self):
        code = vector_linear_code(3)
        for m, l1, l2, l3 in product(range(3), repeat=4):
            assert code.transmit(m, (l1, l2, l3))[2] == m

    def test_first_edge_view_independent_of_message(self):
        code = vector_linear_code(2)
        d = view_joint(code, ("Y1", "Y1p", "Y3"), 2)
        assert is_independent(d, "M", ("Y1", "Y1p", "Y3"))
        assert mutual_information(d, "M", ("Y1", "Y1p", "Y3")) == pytest.approx(
            0.0, abs=1e-12)

    def test_rate_is_half_log_d(self):
        for d in (2, 3, 4, 5):
            assert vector_linear_code(d).rate_bits == pytest.approx(
                0.5 * math.log2(d), abs=1e-12)


class TestCheckCorrectness:
    def test_built_in_codes(self):
        for d in (2, 3, 4, 5):
            assert check_correctness(scalar_linear_code(d))
            assert check_correctness(standard_nonlinear_code(d))
            assert check_correctness(vector_linear_code(d))
        for d in (3, 4):
            assert check_correctness(anti_latin_code(*reference_decodable_pair(d)))

    def test_built_in_codes_wider_range(self):
        for d in (6, 7):
            assert check_correctness(scalar_linear_code(d))
            assert check_correctness(standard_nonlinear_code(d))
            assert check_correctness(vector_linear_code(d))
        # anti-Latin pairs via the seeded search inside its supported range
        for d in (5, 6):
            result = find_decodable_pair(d)
            assert result.found
            assert check_correctness(anti_latin_code(*result.pair))

    def test_swapped_decoder_fails_d3(self):
        base = standard_nonlinear_code(3)
        swapped = OneHopCode(
            3, 1, 1, False, base.encoder, base.relay,
            {(y3, y4): (y3 - y4) % 3 for y3, y4 in product(range(3), repeat=2)},
            name="standard-swapped")
        assert not check_correctness(swapped)

    def test_identity_relay_code_is_correct(self):
        # Y1 = M on the wire: correct but obviously insecure
        encoder = {(m, l): ((m, l),) for m, l in product(range(2), repeat=2)}
        relay = {(y1, y2): (y1, y2) for y1, y2 in product(range(2), repeat=2)}
        decoder = {(y3, y4): y3 for y3, y4 in product(range(2), repeat=2)}
        code = OneHopCode(2, 1, 1, False, encoder, relay, decoder, name="identity")
        assert check_correctness(code)


@pytest.fixture(scope="module")
def codes():
    return list(enumerate_onehop_codes(2))


class TestEnumeration:

    def test_count_frozen(self, codes):
        assert len(codes) == ENUM_CORRECT_COUNT_D2
        assert len(codes) > 0

    def test_contains_standard_code(self, codes):
        std = standard_nonlinear_code(2)
        assert any(c == std for c in codes)

    def test_sample_is_correct(self, codes):
        for code in codes[::97]:
            assert check_correctness(code)

    def test_names_and_order_pinned(self, codes):
        names = "\n".join(code.name for code in codes)
        assert hashlib.sha256(names.encode()).hexdigest() == ENUM_NAMES_SHA256_D2

    def test_encoders_without_codes_have_no_correct_relay(self, codes):
        # brute force over all 256 relay tables of every encoder that
        # yields no code: each relay maps two messages to one (Y3, Y4)
        atoms = list(product(range(2), repeat=2))
        pairs = list(product(range(2), repeat=2))
        with_codes = {code.name.split("-r")[0] for code in codes}
        without = 0
        for ei, enc_out in enumerate(product(pairs, repeat=4)):
            if f"enum-e{ei:03d}" in with_codes:
                continue
            without += 1
            for rel_out in product(pairs, repeat=4):
                relay = dict(zip(pairs, rel_out))
                messages_at = {}
                for (m, _), y12 in zip(atoms, enc_out):
                    messages_at.setdefault(relay[y12], set()).add(m)
                assert any(len(ms) > 1 for ms in messages_at.values()), (ei, rel_out)
        # the encoders that give two messages one (Y1, Y2)
        assert without == 172

    def test_tables_are_those_of_the_codes(self, codes):
        tables = list(enumerate_code_tables(2))
        assert [name for name, *_ in tables] == [code.name for code in codes]
        # the distinct column tuples the nonexistence sweep decides
        assert len({columns for *_, columns in tables}) == 3888
        for (_, encoder, relay, columns), code in zip(tables, codes):
            assert encoder == code.encoder
            assert relay == code.relay
            rows = [(atom[0], *first, *y34) for atom in code.encoder_inputs()
                    for first, y34, _ in [code.transmit(atom[0], atom[1:])]]
            assert columns == tuple(zip(*rows))

    def test_d3_rejected(self):
        with pytest.raises(ValueError):
            next(enumerate_onehop_codes(3))
        with pytest.raises(ValueError):
            next(enumerate_code_tables(3))


class TestEquivalence:
    def test_standard_is_equivalent_to_itself(self):
        assert is_equivalent_to_standard(standard_nonlinear_code(2))

    def test_scalar_without_randomness_is_not(self):
        assert not is_equivalent_to_standard(scalar_linear_code(2, relay_randomness=False))

    def test_complemented_second_layer_is_equivalent(self):
        base = standard_nonlinear_code(2)
        relay = {k: ((v[0] + 1) % 2, (v[1] + 1) % 2) for k, v in base.relay.items()}
        support = {}
        for (m, l) in product(range(2), repeat=2):
            support[relay[base.encoder[(m, l)][0]]] = m
        decoder = {k: support.get(k, 0) for k in product(range(2), repeat=2)}
        code = OneHopCode(2, 1, 1, False, base.encoder, relay, decoder,
                          name="standard-complemented")
        assert check_correctness(code)
        cert = standard_equivalence_certificate(code)
        assert cert is not None
        # both second-layer symbols need the complement relabeling
        assert cert["flips"][2] == 1 and cert["flips"][3] == 1

    def test_certificate_reports_scramble_joint(self):
        cert = standard_equivalence_certificate(standard_nonlinear_code(2))
        assert cert is not None
        joint = cert["message_scramble_joint"]
        assert sum(joint.values()) == 1

    def test_requires_d2(self):
        with pytest.raises(ValueError):
            is_equivalent_to_standard(standard_nonlinear_code(3))


class TestSerialization:
    def test_json_round_trip_all_families(self):
        codes = [scalar_linear_code(3), standard_nonlinear_code(4),
                 vector_linear_code(2),
                 anti_latin_code(*reference_decodable_pair(3))]
        for code in codes:
            again = OneHopCode.from_json_dict(code.to_json_dict())
            assert again == code

    def test_partial_table_rejected(self):
        code = standard_nonlinear_code(2)
        bad_relay = dict(code.relay)
        del bad_relay[(0, 0)]
        with pytest.raises(ValueError):
            OneHopCode(2, 1, 1, False, code.encoder, bad_relay, code.decoder)


def code_args(code, **changes):
    """Constructor arguments of a code, with copied tables and the given changes."""
    args = {"d": code.d, "shots": code.shots, "scramble_count": code.scramble_count,
            "relay_randomness": code.relay_randomness, "encoder": dict(code.encoder),
            "relay": dict(code.relay), "decoder": dict(code.decoder)}
    args.update(changes)
    return args


def literal_validation(args):
    """Oracle: the table checks written out one entry at a time; the first
    failure's message, or None."""
    d, shots = args["d"], args["shots"]
    if d < 2:
        return "d must be >= 2"
    if shots not in (1, 2):
        return "shots must be 1 or 2"
    if set(args["encoder"]) != set(product(range(d), repeat=1 + args["scramble_count"])):
        return "encoder table is not total over (M, scrambles)"
    for out in args["encoder"].values():
        if len(out) != shots:
            return "encoder output must have one pair per shot"
        for pair in out:
            if len(pair) != 2 or not all(v in range(d) for v in pair):
                return "encoder outputs must be pairs over Z_d"
    arity = 2 * shots + (1 if args["relay_randomness"] else 0)
    if set(args["relay"]) != set(product(range(d), repeat=arity)):
        return "relay table is not total over its inputs"
    for out in args["relay"].values():
        if len(out) != 2 or not all(v in range(d) for v in out):
            return "relay outputs must be pairs over Z_d"
    if set(args["decoder"]) != set(product(range(d), repeat=2)):
        return "decoder table is not total over (Y3, Y4)"
    if not all(v in range(d) for v in args["decoder"].values()):
        return "decoder outputs must lie in Z_d"
    return None


def validation_message(args):
    try:
        OneHopCode(**args)
    except ValueError as exc:
        return str(exc)
    return None


def _with(table, key, value):
    table = dict(table)
    table[key] = value
    return table


def _without(table, key):
    table = dict(table)
    del table[key]
    return table


STANDARD = standard_nonlinear_code(2)

REJECTED = {
    "d must be >= 2": code_args(STANDARD, d=1),
    "shots must be 1 or 2": code_args(STANDARD, shots=3),
    "encoder table is not total over (M, scrambles)":
        code_args(STANDARD, encoder=_without(STANDARD.encoder, (0, 0))),
    "encoder output must have one pair per shot":
        code_args(STANDARD, encoder=_with(STANDARD.encoder, (0, 0), ((0, 0), (0, 0)))),
    "encoder outputs must be pairs over Z_d":
        code_args(STANDARD, encoder=_with(STANDARD.encoder, (0, 0), ((0, 2),))),
    "relay table is not total over its inputs":
        code_args(STANDARD, relay=_with(STANDARD.relay, (0, 0, 0), (0, 0))),
    "relay outputs must be pairs over Z_d":
        code_args(STANDARD, relay=_with(STANDARD.relay, (0, 0), (0, 0, 0))),
    "decoder table is not total over (Y3, Y4)":
        code_args(STANDARD, decoder=_without(STANDARD.decoder, (1, 1))),
    "decoder outputs must lie in Z_d":
        code_args(STANDARD, decoder=_with(STANDARD.decoder, (1, 1), -1)),
}


def mutations(rng, code):
    """Constructor arguments of code with one or two entries broken or
    re-typed: missing and extra keys, odd symbols (out of range, float,
    bool), pairs given as lists, short pairs, and extra pairs or symbols."""
    d = code.d
    odd_symbols = [d, -1, 0.5, 1.0, True, d - 1]
    args = code_args(code)
    for _ in range(rng.randint(1, 2)):
        name = rng.choice(("encoder", "relay", "decoder"))
        table = args[name]
        key = rng.choice(sorted(table))
        kind = rng.randrange(6)
        if kind == 0:
            del table[key]
        elif kind == 1:
            table[key + (0,)] = table[key]
        elif name == "decoder":
            table[key] = rng.choice(odd_symbols)
        else:
            # an encoder output holds one pair per shot, a relay output is one pair
            pairs = [list(pair) for pair in (table[key] if name == "encoder" else [table[key]])]
            if kind == 2:
                pairs[0][rng.randrange(2)] = rng.choice(odd_symbols)
            elif kind == 4:
                pairs[0].pop()
            elif kind == 5 and name == "encoder":
                pairs.append([0, 0])
            elif kind == 5:
                pairs[0].append(0)
            if kind != 3:
                pairs = [tuple(pair) for pair in pairs]
            table[key] = tuple(pairs) if name == "encoder" else pairs[0]
    return args


class TestValidation:
    @pytest.mark.parametrize("message", sorted(REJECTED))
    def test_each_check_rejects_its_table(self, message):
        assert literal_validation(REJECTED[message]) == message
        with pytest.raises(ValueError, match=re.escape(message)):
            OneHopCode(**REJECTED[message])

    @pytest.mark.parametrize("table, message", [
        ("encoder", "encoder outputs must be pairs over Z_d"),
        ("relay", "relay outputs must be pairs over Z_d"),
        ("decoder", "decoder outputs must lie in Z_d"),
    ])
    def test_half_symbols_are_refused(self, table, message):
        half = {"encoder": ((0, 0.5),), "relay": (0.5, 0), "decoder": 0.5}[table]
        key = next(iter(getattr(STANDARD, table)))
        args = code_args(STANDARD, **{table: _with(getattr(STANDARD, table), key, half)})
        assert literal_validation(args) == message
        with pytest.raises(ValueError, match=re.escape(message)):
            OneHopCode(**args)

    def test_list_pairs_are_accepted(self):
        # a direct caller may pass pairs as lists, as the checks always allowed
        encoder = {k: [list(pair) for pair in out] for k, out in STANDARD.encoder.items()}
        relay = {k: list(out) for k, out in STANDARD.relay.items()}
        code = OneHopCode(**code_args(STANDARD, encoder=encoder, relay=relay))
        assert code.first_layer_symbols(1, (1,)) == STANDARD.first_layer_symbols(1, (1,))
        # and such a code evaluates as its tuple form does
        assert check_correctness(code)
        for klass in AttackClass:
            verdict = classify(code, klass).to_json_dict()
            standard = classify(STANDARD, klass).to_json_dict()
            del verdict["code_id"], standard["code_id"]
            assert verdict == standard, klass

    def test_same_verdict_as_the_literal_checks(self):
        rng = random.Random(5)
        bases = [STANDARD, scalar_linear_code(3), vector_linear_code(2)]
        messages = set()
        for _ in range(600):
            args = mutations(rng, rng.choice(bases))
            message = literal_validation(args)
            assert validation_message(args) == message
            messages.add(message)
        assert messages == set(REJECTED) - {"d must be >= 2", "shots must be 1 or 2"} | {None}
