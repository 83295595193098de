import hashlib
import json
import math
import random
from collections import Counter
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wiretaplab import attack_engine
from wiretaplab.anti_latin import find_decodable_pair, reference_decodable_pair
from wiretaplab.attack_engine import (
    AttackClass,
    TABLE1_EXPECTED,
    TABLE_COLUMNS,
    AttackStrategy,
    ScalarLinearSweepReport,
    SecurityLevel,
    anti_latin_pair,
    check_classify_budget,
    check_extended_two_shot_secrecy,
    classification_table,
    classify,
    code_is_affine,
    enumerate_attacks,
    exhaustive_nonexistence_check,
    exhaustive_scalar_linear_check,
    linear_active_reduction_check,
    simulate_attack,
    table_mismatches,
)
from wiretaplab.attack_engine import (
    _affine_relay_code,
    _columns,
    _pair_rank,
    _scalar_linear_row,
    _slice_columns,
    _tap_terms,
    _view_level,
)
from wiretaplab.errors import BudgetError
from wiretaplab.info_theory import (
    _independent,
    is_function_of,
    is_independent,
    mutual_information,
)
from wiretaplab.onehop_codes import (
    OneHopCode,
    anti_latin_code,
    enumerate_onehop_codes,
    scalar_linear_code,
    standard_nonlinear_code,
    vector_linear_code,
)

DP = AttackClass.DETERMINISTIC_PASSIVE
AP = AttackClass.ADAPTIVE_PASSIVE
DA = AttackClass.DETERMINISTIC_ACTIVE
AA = AttackClass.ADAPTIVE_ACTIVE


def identity(d):
    return tuple(range(d))


def view_names(dist):
    return [n for n, _ in dist.variables if n.startswith("Z")]


def equivocation_ratio(dist, atoms):
    """2^(atoms * H(M | view)) as an integer ratio (num, den).

    With c_v of the atoms showing view v and c_mv of them carrying
    message m, atoms * H(M | view) = log2(prod c_v^c_v / prod c_mv^c_mv).
    """
    view = [i for i, (name, _) in enumerate(dist.variables) if name.startswith("Z")]
    joint, views = {}, {}
    for key, p in dist.table.items():
        c = p * atoms
        assert c.denominator == 1
        mv = (key[0],) + tuple(key[i] for i in view)
        joint[mv] = joint.get(mv, 0) + c.numerator
        views[mv[1:]] = views.get(mv[1:], 0) + c.numerator
    num = den = 1
    for c in views.values():
        num *= c ** c
    for c in joint.values():
        den *= c ** c
    return num, den


def brute_force_verdict(code, klass):
    """Independent oracle: literally evaluate every enumerable strategy.

    The witness is the first strategy of least equivocation H(M | view),
    that is of most leakage, compared exactly.
    """
    atoms = len(list(code.encoder_inputs())) * len(code.relay_random_values())
    best = None
    best_leak = None
    best_strategy = None
    any_recovery = False
    all_independent = True
    for strategy in enumerate_attacks(code.d, klass, code.shots):
        dist = simulate_attack(code, strategy)
        names = view_names(dist)
        if is_function_of(dist, "M", names):
            any_recovery = True
        if not is_independent(dist, "M", names):
            all_independent = False
        num, den = equivocation_ratio(dist, atoms)
        if best is None or num * best[1] < best[0] * den:
            best = (num, den)
            best_leak = mutual_information(dist, "M", names)
            best_strategy = strategy
    if any_recovery:
        level = SecurityLevel.INSECURE
    elif all_independent:
        level = SecurityLevel.PERFECT
    else:
        level = SecurityLevel.IMPERFECT
    return level, best_leak, best_strategy


def random_code(rng, d, shots, scramble_count, relay_randomness):
    """A seeded random code whose decoder recovers M from (Y3, Y4)."""
    words = list(product(range(d), repeat=2 * shots))
    owner, encoder = {}, {}
    for key in product(range(d), repeat=1 + scramble_count):
        # a first-layer word that carries one message cannot carry another
        word = rng.choice([w for w in words if owner.get(w, key[0]) == key[0]])
        owner[word] = key[0]
        encoder[key] = tuple(word[2 * i:2 * i + 2] for i in range(shots))
    outputs = list(product(range(d), repeat=2))
    decoder = {out: m % d for m, out in enumerate(rng.sample(outputs, len(outputs)))}
    relay = {}
    for key in product(range(d), repeat=2 * shots + relay_randomness):
        m = owner.get(key[:2 * shots])
        choices = [out for out in outputs if m is None or decoder[out] == m]
        relay[key] = rng.choice(choices)
    return OneHopCode(d, shots, scramble_count, bool(relay_randomness),
                      encoder, relay, decoder, name=f"random-d{d}-s{shots}")


def literal_columns(code):
    """(M, Y1, Y2, Y3, Y4) per atom straight off transmit, in atom order.

    A two-shot first-layer view (vA, vB) is coded as vA*d + vB.
    """
    cols = ([], [], [], [], [])
    for key in code.encoder_inputs():
        for lp in code.relay_random_values():
            first, (y3, y4), _ = code.transmit(key[0], key[1:], lp)
            y1 = y2 = 0
            for shot in range(code.shots):
                y1 = y1 * code.d + first[2 * shot]
                y2 = y2 * code.d + first[2 * shot + 1]
            for col, value in zip(cols, (key[0], y1, y2, y3, y4)):
                col.append(value)
    return tuple(tuple(col) for col in cols)


def slice_laws(code, first_edge):
    """Oracle: exact (M, Y3, Y4) weights of every (view, admissible substitute) slice.

    Yields ((view, substituted), weights) one slice at a time, the relay
    re-evaluated for every admissible substitute.  A map sends equal
    observations to equal values, so two shots that saw the same symbol
    get the same substitute.
    """
    pos = first_edge - 1
    relay_values = code.relay_random_values()
    atoms_of = {}
    for key in code.encoder_inputs():
        first = code.first_layer_symbols(key[0], key[1:])
        # Eve's tapped symbol in every shot
        atoms_of.setdefault(first[pos::2], []).append((key[0], first))
    for view, atoms in atoms_of.items():
        for xs in product(range(code.d), repeat=len(view)):
            if view[0] == view[-1] and xs[0] != xs[-1]:
                continue
            slice_w = {}
            for m, first in atoms:
                relay_in = list(first)
                relay_in[pos::2] = xs
                relay_in = tuple(relay_in)
                for lp in relay_values:
                    y3, y4 = code.relay_output(relay_in, lp)
                    slice_w[m, y3, y4] = slice_w.get((m, y3, y4), 0) + 1
            yield (view, xs), slice_w


def slice_objectives(slice_w):
    """Oracle: n*H(M | Y3) and n*H(M | Y4) of one slice of (M, Y3, Y4) weights.

    With c_w atoms showing W = w, c_mw of them carrying message m, the
    slice contributes log2(prod c_w^c_w / prod c_mw^c_mw).
    """
    out = []
    for col in (1, 2):
        by_w = {}
        for key, c in slice_w.items():
            counts = by_w.setdefault(key[col], {})
            counts[key[0]] = counts.get(key[0], 0) + c
        num = den = 1
        for counts in by_w.values():
            c_w = sum(counts.values())
            num *= c_w ** c_w
            for c in counts.values():
                den *= c ** c
        out.append((num, den))
    return tuple(out)


def slice_codes():
    """Seeded single-shot codes at d = 2, 3, 4 and two-shot codes at d = 2, 3,
    with and without relay randomness, and the d=2 vector-linear code."""
    rng = random.Random(4096)
    codes = [random_code(rng, d, 1, 1, i % 2) for d in (2, 3, 4) for i in range(4)]
    codes += [random_code(rng, d, 2, 1 + i % 3, i % 2) for d in (2, 3) for i in range(4)]
    codes.append(vector_linear_code(2))
    return codes


def slice_terms(code, first_edge):
    """Objectives with W = Y3 and W = Y4 of every slice (view, xs) some map
    reaches, read off the column form classify optimises over."""
    messages, tap, slices = _slice_columns(code, first_edge)
    objectives = {}
    for xs, y3, y4 in slices:
        terms4 = _tap_terms(messages, tap, y4)[0]
        for (v, obj3, _, _), (_, obj4, _, _) in zip(_tap_terms(messages, tap, y3)[0], terms4):
            view = slices[v][0]
            # a map gives a symbol seen twice one value
            if view[0] != view[-1] or xs[0] == xs[-1]:
                objectives[view, xs] = obj3, obj4
    return objectives


def assert_slice_terms_match_the_oracle(code):
    for first_edge in (1, 2):
        want = {key: slice_objectives(w) for key, w in slice_laws(code, first_edge)}
        assert slice_terms(code, first_edge) == want, (code.name, first_edge)


class TestEnumerateAttacks:
    @pytest.mark.parametrize("klass, active, adaptive", [
        (DP, False, False), (AP, False, True), (DA, True, False), (AA, True, True)])
    def test_class_flags(self, klass, active, adaptive):
        assert (klass.is_active, klass.is_adaptive) == (active, adaptive)

    def test_deterministic_passive_count(self):
        assert len(enumerate_attacks(2, DP)) == 4

    def test_adaptive_passive_count(self):
        assert len(enumerate_attacks(2, AP)) == 2 * 2 ** 2

    def test_adaptive_active_count_d3(self):
        strategies = enumerate_attacks(3, AA)
        assert len(strategies) == 2 * 27 * 8

    def test_deterministic_active_count(self):
        assert len(enumerate_attacks(3, DA)) == 4 * 27

    def test_duplicate_free(self):
        strategies = enumerate_attacks(2, AA)
        assert len(set(strategies)) == len(strategies)

    def test_two_shot_adaptive_selector_domain(self):
        strategies = enumerate_attacks(2, AP, shots=2)
        assert len(strategies) == 2 * 2 ** 4

    def test_budget_guards(self):
        with pytest.raises(BudgetError):
            enumerate_attacks(7, DA)
        with pytest.raises(BudgetError):
            enumerate_attacks(6, AA)

    def test_strategy_invariants(self):
        with pytest.raises(ValueError):
            AttackStrategy(2, 1, DP, 1, (1, 0), (3, 3))  # passive, non-identity
        with pytest.raises(ValueError):
            AttackStrategy(2, 1, DP, 1, (0, 1), (3, 4))  # deterministic, varying
        with pytest.raises(ValueError):
            AttackStrategy(2, 1, DP, 5, (0, 1), (3, 3))

    def test_json_forms(self):
        fixed = AttackStrategy(2, 1, DP, 1, (0, 1), (3, 3))
        assert fixed.to_json_dict()["second_edge"] == 3
        adaptive = AttackStrategy(2, 1, AP, 1, (0, 1), (4, 3))
        assert adaptive.to_json_dict()["selector"] == [4, 3]


class TestSimulateAttack:
    def test_standard_passive_half_bit(self):
        # the four deterministic-passive taps each leak exactly half a bit
        code = standard_nonlinear_code(2)
        for first_edge in (1, 2):
            for second in (3, 4):
                s = AttackStrategy(2, 1, DP, first_edge, identity(2),
                                   (second, second))
                dist = simulate_attack(code, s)
                leak = mutual_information(dist, "M", ("Z1", "Z2"))
                assert leak == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_substitute_one_read_e3_recovers(self, d):
        # replace the tapped symbol by 1 and read e(3): M = Y3 + 1 - Y1
        code = standard_nonlinear_code(d)
        s = AttackStrategy(d, 1, DA, 1, (1,) * d, (3,) * d)
        dist = simulate_attack(code, s)
        assert is_function_of(dist, "M", ("Z1", "Z2"))
        assert mutual_information(dist, "M", ("Z1", "Z2")) == pytest.approx(
            math.log2(d), abs=1e-12)
        for key in dist.table:
            m, z1, z2, _ = key
            assert m == (z2 + 1 - z1) % d

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_substitute_zero_read_e4_recovers(self, d):
        code = standard_nonlinear_code(d)
        s = AttackStrategy(d, 1, DA, 1, (0,) * d, (4,) * d)
        dist = simulate_attack(code, s)
        assert is_function_of(dist, "M", ("Z1", "Z2"))
        for key in dist.table:
            m, z1, z2, _ = key
            assert m == (z2 - z1) % d

    def test_decoder_output_recorded_not_required(self):
        # under the substitution attack the decoder may fail; the law
        # records what it outputs without any correctness demand
        code = standard_nonlinear_code(3)
        s = AttackStrategy(3, 1, DA, 1, (1, 1, 1), (3, 3, 3))
        dist = simulate_attack(code, s)
        assert any(key[0] != key[3] for key in dist.table)

    def test_shape_mismatch_rejected(self):
        s = AttackStrategy(3, 1, DP, 1, identity(3), (3, 3, 3))
        with pytest.raises(ValueError):
            simulate_attack(standard_nonlinear_code(2), s)


class TestClassify:
    def test_standard_d2_adaptive_passive_witness_is_route_by_y1(self):
        verdict = classify(standard_nonlinear_code(2), AP)
        assert verdict.level is SecurityLevel.INSECURE
        w = verdict.witness
        assert w.first_edge == 1
        # Y1 = 0 -> e(4), Y1 = 1 -> e(3)
        assert w.selector == (4, 3)
        assert verdict.max_leakage_bits == pytest.approx(1.0, abs=1e-12)

    def test_standard_d2_columns(self):
        code = standard_nonlinear_code(2)
        assert classify(code, DP).level is SecurityLevel.IMPERFECT
        assert classify(code, DA).level is SecurityLevel.INSECURE
        assert classify(code, AA).level is SecurityLevel.INSECURE

    def test_standard_d2_active_witness_recovers_fully(self):
        verdict = classify(standard_nonlinear_code(2), DA)
        w = verdict.witness
        assert verdict.max_leakage_bits == 1.0
        assert len(set(w.modification)) == 1  # constant substitution
        dist = simulate_attack(standard_nonlinear_code(2), w)
        assert is_function_of(dist, "M", ("Z1", "Z2"))

    @pytest.mark.parametrize("d", [2, 3])
    def test_vector_linear_perfect_under_adaptive_active(self, d):
        verdict = classify(vector_linear_code(d), AA)
        assert verdict.level is SecurityLevel.PERFECT
        assert verdict.max_leakage_bits == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("d", [2, 3])
    def test_scalar_linear_with_randomness_perfect(self, d):
        verdict = classify(scalar_linear_code(d), AA)
        assert verdict.level is SecurityLevel.PERFECT

    def test_anti_latin_d3_imperfect_all_classes(self):
        code = anti_latin_code(*reference_decodable_pair(3))
        for klass in (DP, AP, DA, AA):
            assert classify(code, klass).level is SecurityLevel.IMPERFECT

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_prime_d_standard_adaptive_witness_routes_by_invertibility(self, d):
        verdict = classify(standard_nonlinear_code(d), AP)
        assert verdict.level is SecurityLevel.INSECURE
        w = verdict.witness
        assert w.first_edge == 1
        assert w.selector[0] == 4
        assert all(edge == 3 for edge in w.selector[1:])

    def test_matches_brute_force_enumeration(self):
        # dual route: the slice optimiser must agree with literal
        # strategy-by-strategy evaluation wherever that is enumerable
        codes = [
            standard_nonlinear_code(2),
            standard_nonlinear_code(3),
            scalar_linear_code(2, relay_randomness=False),
            scalar_linear_code(2),
            anti_latin_code(*reference_decodable_pair(3)),
            vector_linear_code(2),
        ]
        codes += list(enumerate_onehop_codes(2))[::16]
        rng = random.Random(2311)
        codes += [random_code(rng, 3, 1, 1, i % 3 == 0) for i in range(30)]
        codes += [random_code(rng, 2, 2, 1 + i % 3, i % 4 == 0) for i in range(30)]
        cases = [(code, klass) for code in codes for klass in (DP, AP, DA, AA)]
        for code, klass in cases:
            level, leak, strategy = brute_force_verdict(code, klass)
            verdict = classify(code, klass)
            assert verdict.level is level, (code.name, klass)
            assert verdict.max_leakage_bits == pytest.approx(leak, abs=1e-9)
            assert verdict.witness == strategy, (code.name, klass)

    def test_two_shot_slices_are_admissible(self):
        # a map gives equal observations equal substitutes, so a view that
        # saw one symbol twice has d slices and any other view has d^2; the
        # column form holds exactly those slices, with the oracle's terms
        d = 3
        keys = list(slice_terms(vector_linear_code(d), 1))
        assert len(keys) == len(set(keys))
        assert sorted(keys) == sorted(
            (view, xs) for view in product(range(d), repeat=2)
            for xs in product(range(d), repeat=2)
            if view[0] != view[1] or xs[0] == xs[1])
        for code in [vector_linear_code(d)] + slice_codes():
            if code.shots == 2:
                assert_slice_terms_match_the_oracle(code)

    def test_passive_slices_are_the_identity_slices_of_the_active_path(self):
        # the passive path reads each view's objective off the code's own
        # columns; the oracle re-evaluates the relay per (view, substitute)
        # slice, and its (view, view) slices are the passive ones.  The
        # active path reads every slice off the columns of constant maps
        for code in slice_codes():
            columns = literal_columns(code)
            assert _columns(code) == columns, code.name
            messages = columns[0]
            for first_edge in (1, 2):
                want = {}
                for (view, xs), weights in slice_laws(code, first_edge):
                    if view == xs:
                        coded = view[0] if code.shots == 1 else view[0] * code.d + view[1]
                        want[coded] = (slice_objectives(weights), sum(weights.values()))
                views3 = _tap_terms(messages, columns[first_edge], columns[3])[0]
                views4 = _tap_terms(messages, columns[first_edge], columns[4])[0]
                got = {v: ((obj3, obj4), n_v)
                       for (v, obj3, n_v, _), (_, obj4, _, _) in zip(views3, views4)}
                assert got == want, (code.name, first_edge)
                assert [v for v, *_ in views3] == sorted(want)
            assert_slice_terms_match_the_oracle(code)

    def test_active_budget(self):
        # two-shot active classes enumerate d^d maps and stop at d > 6;
        # single-shot active classes are polynomial and meet only the read cap
        with pytest.raises(BudgetError):
            classify(vector_linear_code(7), DA)
        with pytest.raises(BudgetError):
            classify(vector_linear_code(7), AA)
        assert classify(vector_linear_code(7), AP).level is SecurityLevel.PERFECT
        assert classify(standard_nonlinear_code(7), AA).level is SecurityLevel.INSECURE

    def test_read_budget(self, monkeypatch):
        cap = attack_engine._CLASSIFY_READ_CAP
        check_classify_budget(2, 1, cap, DP)
        check_classify_budget(8, 1, cap // 8, DA)
        check_classify_budget(4, 2, cap // 16, AA)
        check_classify_budget(4, 2, cap, AP)
        check_classify_budget(60, 1, 60 ** 2, AA)
        for args in [(2, 1, cap + 1, DP), (8, 1, cap // 8 + 1, DA), (4, 2, cap // 16 + 1, AA)]:
            with pytest.raises(BudgetError, match="reads the relay"):
                check_classify_budget(*args)

        def no_columns(*args):
            raise AssertionError("a column walk started")

        # 27^3 atoms times 27 substitutes, refused before the first column walk
        monkeypatch.setattr(attack_engine, "_columns", no_columns)
        with pytest.raises(BudgetError, match="531441"):
            classify(scalar_linear_code(27), DA)

    def test_leakage_bounded_by_log_d(self):
        for d in (2, 3):
            code = standard_nonlinear_code(d)
            for klass in (DP, AP, DA, AA):
                verdict = classify(code, klass)
                assert verdict.max_leakage_bits <= math.log2(d) + 1e-12

    def test_full_leakage_iff_recovery(self):
        # with a uniform message, leakage tops out at log2(d) exactly on
        # the strategies that pin the message
        code = standard_nonlinear_code(3)
        for strategy in enumerate_attacks(3, DA):
            dist = simulate_attack(code, strategy)
            leak = mutual_information(dist, "M", ("Z1", "Z2"))
            if is_function_of(dist, "M", ("Z1", "Z2")):
                assert leak == pytest.approx(math.log2(3), abs=1e-12)
            else:
                assert leak < math.log2(3) - 1e-9

    def test_verdict_json(self):
        data = classify(standard_nonlinear_code(2), DP).to_json_dict()
        assert data["class"] == "deterministic-passive"
        assert data["level"] == "imperfectly-secret"
        assert set(data) == {"code_id", "class", "level", "max_leakage_bits", "witness"}


def view_level(messages, first, second):
    return _view_level(2, messages, first, second)


class TestViewStatus:
    # four equally likely atoms (m, l) over Z_2, in product order; each
    # level is read off the objective of the view's column terms
    M = (0, 0, 1, 1)
    L = (0, 1, 0, 1)
    ZERO = (0, 0, 0, 0)

    def test_view_that_pins_m_is_insecure(self):
        assert view_level(self.M, self.L, self.M) is SecurityLevel.INSECURE
        assert view_level(self.M, self.M, self.ZERO) is SecurityLevel.INSECURE
        # M = first + second
        plus = tuple((m + l) % 2 for m, l in zip(self.M, self.L))
        assert view_level(self.M, self.L, plus) is SecurityLevel.INSECURE

    def test_view_independent_of_m_is_perfect(self):
        assert view_level(self.M, self.L, self.L) is SecurityLevel.PERFECT
        assert view_level(self.M, self.L, self.ZERO) is SecurityLevel.PERFECT
        assert view_level(self.M, self.ZERO, self.ZERO) is SecurityLevel.PERFECT

    def test_view_that_leaks_part_of_m_is_imperfect(self):
        # the view (M * L) is 1 only when M = 1
        product_ml = tuple(m * l for m, l in zip(self.M, self.L))
        assert view_level(self.M, product_ml, self.ZERO) is SecurityLevel.IMPERFECT
        assert view_level(self.M, self.ZERO, product_ml) is SecurityLevel.IMPERFECT

    def test_both_view_columns_are_read(self):
        # the same second-layer column with different first-layer columns
        # gives each of the three outcomes
        second = tuple((m + l) % 2 for m, l in zip(self.M, self.L))
        assert view_level(self.M, self.L, second) is SecurityLevel.INSECURE
        assert view_level(self.M, self.ZERO, second) is SecurityLevel.PERFECT
        assert view_level(self.M, tuple(m * l for m, l in zip(self.M, self.L)),
                          second) is SecurityLevel.IMPERFECT


class TestTapTermsMemo:
    M = (0, 0, 1, 1)
    L = (0, 1, 0, 1)

    def test_terms_depend_on_the_second_layer_column(self):
        # one tap column read through two second-layer columns: a memo
        # keyed on the tap alone would hand the second call the first's terms
        plus = tuple((m + l) % 2 for m, l in zip(self.M, self.L))
        through_l = _tap_terms(self.M, self.L, self.L)
        through_plus = _tap_terms(self.M, self.L, plus)
        assert through_l != through_plus
        assert through_l == _tap_terms.__wrapped__(self.M, self.L, self.L)
        assert through_plus == _tap_terms.__wrapped__(self.M, self.L, plus)

    def test_verdicts_do_not_depend_on_the_memo(self, d2_codes):
        rng = random.Random(99)
        codes = d2_codes[::500] + [vector_linear_code(2)]
        codes += [random_code(rng, 3, 1, 1, i % 2) for i in range(4)]
        codes += [random_code(rng, 2, 2, 1, i % 2) for i in range(4)]
        classes = (DP, AP, DA, AA)
        warm = [classify(code, klass).to_json_dict() for code in codes for klass in classes]
        _tap_terms.cache_clear()
        cold = [classify(code, klass).to_json_dict() for code in codes for klass in classes]
        assert cold == warm

    def test_memo_is_bounded(self):
        assert _tap_terms.cache_info().maxsize is not None


def verdicts_sha256(codes, classes):
    return hashlib.sha256("\n".join(
        json.dumps(classify(code, klass).to_json_dict())
        for code in codes for klass in classes).encode()).hexdigest()


def active_codes_beyond_d2():
    """Seeded two-shot codes at d = 2, 3, 4 (renamed vector-linear codes, half
    with one relay entry changed, and random codes), vector_linear_code(5) and
    seeded single-shot codes at d = 3, 4, 5, with and without relay randomness."""
    rng = random.Random(1111)
    codes = [vector_linear_variant(rng, d, i % 2) for d in (2, 3, 4) for i in range(4)]
    codes += [random_code(rng, d, 2, 1 + i % 3, i % 2) for d in (2, 3) for i in range(6)]
    codes.append(vector_linear_code(5))
    codes += [random_code(rng, d, 1, 1, i % 2) for d in (3, 4, 5) for i in range(6)]
    return codes


class TestPinnedVerdicts:
    # sha256 of the verdict JSON lines, one per (code, class), code by code
    PASSIVE_SHA256 = "12659e3f55ad5d2e0694ccd1c636669c04135f199c36933ed64447e7d6943586"
    ACTIVE_SHA256 = "8573a562172e5877019ba0c832073888fc2d73ae6f20d75115961b737f5d9d2b"
    BEYOND_D2_ACTIVE_SHA256 = "0d2f8bfcb5b52f709d34f5d1bc725bf81d7d2cb8eea07b92a97c965c0de53d6c"

    def test_every_d2_code_under_passive_classes(self, d2_codes):
        assert verdicts_sha256(d2_codes, (DP, AP)) == self.PASSIVE_SHA256

    def test_sampled_d2_codes_under_active_classes(self, d2_codes):
        # pins the leakage of active witnesses, read off their own columns
        assert verdicts_sha256(d2_codes[::16], (DA, AA)) == self.ACTIVE_SHA256

    def test_seeded_codes_beyond_d2_under_active_classes(self):
        # two-shot witnesses come from the map walk, single-shot ones from
        # each view's own substitute; all three levels occur
        codes = active_codes_beyond_d2()
        assert verdicts_sha256(codes, (DA, AA)) == self.BEYOND_D2_ACTIVE_SHA256


class TestMonotonicity:
    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_leakage_grows_with_the_class(self, d):
        codes = [scalar_linear_code(d), standard_nonlinear_code(d),
                 vector_linear_code(d)]
        if d in (3, 4):
            codes.append(anti_latin_code(*reference_decodable_pair(d)))
        for code in codes:
            dp, ap, da, aa = (classify(code, klass).max_leakage_bits
                              for klass in (DP, AP, DA, AA))
            assert dp <= da + 1e-9 and da <= aa + 1e-9, code.name
            assert dp <= ap + 1e-9 and ap <= aa + 1e-9, code.name


# ---------------------------------------------------------------------------
# verdicts do not depend on the names of symbols

PROPERTY = settings(derandomize=True, database=None, max_examples=100, deadline=None)


def relabel(code, wires, message):
    """The single-shot code with the symbols of each wire and the message renamed.

    wires holds one permutation of Z_d per wire Y1..Y4; message renames M.
    Scrambles and the relay's own symbol keep their names.
    """
    f1, f2, f3, f4 = wires
    encoder = {(message[key[0]],) + key[1:]: ((f1[y1], f2[y2]),)
               for key, ((y1, y2),) in code.encoder.items()}
    relay = {(f1[key[0]], f2[key[1]]) + key[2:]: (f3[y3], f4[y4])
             for key, (y3, y4) in code.relay.items()}
    decoder = {(f3[y3], f4[y4]): message[m] for (y3, y4), m in code.decoder.items()}
    return OneHopCode(code.d, 1, code.scramble_count, code.relay_randomness,
                      encoder, relay, decoder, name=code.name + "-relabelled")


def renamings(d):
    return st.lists(st.permutations(range(d)), min_size=5, max_size=5)


def assert_same_verdicts(code, renamed):
    for klass in (DP, AP, DA, AA):
        verdict, again = classify(code, klass), classify(renamed, klass)
        assert again.level is verdict.level, (code.name, klass)
        assert again.max_leakage_bits == pytest.approx(
            verdict.max_leakage_bits, abs=1e-9), (code.name, klass)


@pytest.fixture(scope="module")
def d2_codes():
    return list(enumerate_onehop_codes(2))


class TestRelabelling:
    @PROPERTY
    @given(index=st.integers(0, 11231), maps=renamings(2))
    def test_enumerated_d2_codes(self, d2_codes, index, maps):
        code = d2_codes[index]
        assert_same_verdicts(code, relabel(code, maps[:4], maps[4]))

    @PROPERTY
    @given(st.integers(0, 2 ** 32), renamings(3))
    def test_seeded_d3_codes(self, seed, maps):
        code = random_code(random.Random(seed), 3, 1, 1, seed % 2)
        assert_same_verdicts(code, relabel(code, maps[:4], maps[4]))

    def test_relabelling_keeps_the_code_correct(self):
        code = standard_nonlinear_code(3)
        renamed = relabel(code, [(1, 2, 0), (2, 0, 1), (0, 2, 1), (1, 0, 2)], (2, 1, 0))
        for key in renamed.encoder_inputs():
            assert renamed.transmit(key[0], key[1:])[2] == key[0]


class TestCodeJsonRoundTrip:
    @PROPERTY
    @given(seed=st.integers(0, 2 ** 32), d=st.sampled_from((2, 3)),
           shots=st.sampled_from((1, 2)), relay_randomness=st.booleans())
    def test_round_trip_keeps_the_code_and_its_passive_verdicts(
            self, seed, d, shots, relay_randomness):
        code = random_code(random.Random(seed), d, shots, 1, relay_randomness)
        again = OneHopCode.from_json_dict(json.loads(json.dumps(code.to_json_dict())))
        assert again == code
        assert again.name == code.name
        for klass in (DP, AP):
            assert classify(again, klass).to_json_dict() == \
                classify(code, klass).to_json_dict()


@pytest.fixture(scope="module")
def table_23():
    return classification_table([2, 3])


class TestClassificationTable:

    def test_matches_expected_grid(self, table_23):
        assert table_mismatches(table_23) == []

    def test_standard_row(self, table_23):
        row = next(r for r in table_23.rows if r.family == "standard-nonlinear")
        assert row.d == 2
        assert row.cells["deterministic-passive"] is SecurityLevel.IMPERFECT
        assert row.cells["active"] is SecurityLevel.INSECURE
        assert row.cells["adaptive"] is SecurityLevel.INSECURE

    def test_anti_latin_row_d3(self, table_23):
        row = next(r for r in table_23.rows if r.family == "anti-latin")
        assert all(v is SecurityLevel.IMPERFECT for v in row.cells.values())

    def test_renderings(self, table_23):
        assert "scalar-linear" in table_23.to_text()
        csv = table_23.to_csv()
        assert csv.splitlines()[0] == "family,d,deterministic-passive,active,adaptive"
        data = table_23.to_json_dict()
        assert data["columns"] == ["deterministic-passive", "active", "adaptive"]


class TestAntiLatinPair:
    # the grid and `classify --family anti-latin` build their code on this pair

    def test_stored_pairs_for_d3_and_d4(self):
        for d in (3, 4):
            assert anti_latin_pair(d) == reference_decodable_pair(d)

    def test_search_beyond_d4(self):
        pair = anti_latin_pair(5)
        assert pair == find_decodable_pair(5).pair
        assert anti_latin_pair(5, seed=7) == find_decodable_pair(5, seed=7).pair

    def test_none_exists_at_d2(self):
        with pytest.raises(ValueError, match="no decodable anti-Latin pair exists for d=2"):
            anti_latin_pair(2)

    def test_search_without_result_is_a_budget_error(self, monkeypatch):
        monkeypatch.setattr(attack_engine, "find_decodable_pair",
                            lambda d, seed: find_decodable_pair(d, seed, budget=5))
        with pytest.raises(BudgetError, match="no decodable anti-Latin pair found for d=5"):
            anti_latin_pair(5)
        with pytest.raises(BudgetError, match="d=5"):
            classification_table([5])


def literal_pair_levels(d, encoders, relays):
    """Literal oracle: (insecure, imperfect, perfect) over correct table pairs.

    Tables are laid out as for _pair_rank.  Correctness and the
    four deterministic-passive views are re-derived from scratch for
    each pair, with no memo.
    """
    atoms = list(product(range(d), repeat=2))
    relay_index = {pair: i for i, pair in enumerate(product(range(d), repeat=2))}
    insecure = imperfect = perfect = 0
    for enc in encoders:
        for rel in relays:
            y34 = tuple(rel[relay_index[y12]] for y12 in enc)
            support = {}
            ok = True
            for (m, _), out in zip(atoms, y34):
                prior = support.setdefault(out, m)
                if prior != m:
                    ok = False
                    break
            if not ok:
                continue
            # deterministic-passive views: (Y_i, Y_j) for i in 1,2; j in 3,4
            recovered = False
            saw_dependence = False
            for i in (0, 1):
                for j in (0, 1):
                    seen = {}
                    functional = True
                    for (m, _), y12, out in zip(atoms, enc, y34):
                        key = (y12[i], out[j])
                        prior = seen.setdefault(key, m)
                        if prior != m:
                            functional = False
                    if functional:
                        recovered = True
                        break
                    counts = {}
                    for (m, _), y12, out in zip(atoms, enc, y34):
                        k = (m, y12[i], out[j])
                        counts[k] = counts.get(k, 0) + 1
                    view_counts = {}
                    m_counts = {}
                    for (m, v1, v2), w in counts.items():
                        view_counts[(v1, v2)] = view_counts.get((v1, v2), 0) + w
                        m_counts[m] = m_counts.get(m, 0) + w
                    for (m, v1, v2), w in counts.items():
                        if w * len(atoms) != m_counts[m] * view_counts[(v1, v2)]:
                            saw_dependence = True
                            break
                if recovered:
                    break
            if recovered:
                insecure += 1
            elif saw_dependence:
                imperfect += 1
            else:
                perfect += 1
    return insecure, imperfect, perfect


def brute_force_scalar_linear_sweep(d):
    """The affine sweep pair by pair: every encoder, every relay, no memo."""
    atoms = list(product(range(d), repeat=2))
    encoders = []
    encoders_examined = 0
    for a, b, e, c, f, g in product(range(d), repeat=6):
        encoders_examined += 1
        table = tuple(((a * m + b * l + e) % d, (c * m + f * l + g) % d)
                      for m, l in atoms)
        support = {}
        ok = True
        for (m, _), y12 in zip(atoms, table):
            prior = support.setdefault(y12, m)
            if prior != m:
                ok = False
                break
        if ok:
            encoders.append(table)
    relays = [tuple(((p * y1 + q * y2 + s0) % d, (t * y1 + u * y2 + w0) % d)
                    for y1, y2 in product(range(d), repeat=2))
              for p, q, s0, t, u, w0 in product(range(d), repeat=6)]
    insecure, imperfect, perfect = literal_pair_levels(d, encoders, relays)
    return ScalarLinearSweepReport(d, encoders_examined, len(encoders) * len(relays),
                                   insecure + imperfect + perfect,
                                   insecure, imperfect, perfect)


class TestScalarLinearSweep:
    def test_d2_every_correct_affine_code_is_insecure(self):
        report = exhaustive_scalar_linear_check(2)
        # counts fixed by the 2^6 x 2^6 affine enumeration
        assert report.correct_codes == 1440
        assert report.insecure == 1440
        assert report.all_insecure

    @pytest.mark.parametrize("d", [2, 3])
    def test_memoised_sweep_matches_literal_oracle(self, d):
        assert exhaustive_scalar_linear_check(d) == brute_force_scalar_linear_sweep(d)

    def test_memos_on_every_d2_table_pair(self):
        # affine pairs are all insecure, so they cannot tell a memo that
        # mixes up views apart; all 256 x 256 d=2 tables include the 128
        # correct codes a deterministic-passive tap cannot break (the
        # standard-equivalent ones) and the encoders that lose M
        tables = [list(t) for t in product(product(range(2), repeat=2), repeat=4)]
        messages = (0, 0, 1, 1)
        ranks = Counter(_pair_rank(2, messages, enc, rel) for enc in tables for rel in tables)
        levels = (ranks[0], ranks[1], ranks[2])
        assert levels == literal_pair_levels(2, tables, tables)
        assert levels == (11232 - 128, 128, 0)

    def test_d4_report(self):
        # 132 of the 256 linear encoders keep M and 18432 linear pairs are
        # correct; each stands for d^2 x d^2 offsets
        assert exhaustive_scalar_linear_check(4) == ScalarLinearSweepReport(
            4, 4096, 8650752, 4718592, 4718592, 0, 0)

    def test_budget_guard(self):
        with pytest.raises(BudgetError):
            exhaustive_scalar_linear_check(6)


def literal_nonexistence_report(codes, klass):
    """(total, level counts, counterexamples, witness JSON per name) code by code.

    The report exhaustive_nonexistence_check must give, built by
    classifying each enumerated code.
    """
    counts = dict.fromkeys(SecurityLevel, 0)
    counterexamples, witnesses = [], []
    for code in codes:
        verdict = classify(code, klass)
        counts[verdict.level] += 1
        if verdict.level is SecurityLevel.INSECURE:
            witnesses.append((code.name, verdict.witness.to_json_dict()))
        else:
            counterexamples.append(code.name)
    return len(codes), counts, tuple(counterexamples), witnesses


class TestNonexistenceSweep:
    @pytest.mark.parametrize("klass", [DP, AP])
    def test_matches_classify_on_every_enumerated_code(self, d2_codes, klass):
        report = exhaustive_nonexistence_check(2, klass)
        total, counts, counterexamples, witnesses = literal_nonexistence_report(d2_codes, klass)
        assert report.klass is klass
        assert report.total_codes == total
        assert report.level_counts == counts
        assert report.counterexamples == counterexamples
        assert [(name, w.to_json_dict()) for name, w in report.witnesses.items()] == witnesses

    def test_names_are_the_enumeration_names(self, d2_codes):
        names = [code.name for code in d2_codes]
        # every code is insecure under adaptive-passive taps, so every name
        # has a witness, in enumeration order
        assert list(exhaustive_nonexistence_check(2, AP).witnesses) == names
        assert hashlib.sha256("\n".join(names).encode()).hexdigest() == \
            "169f87fa81c7ca0d2a5c2947eb24126fafe928c3c886602967fc01d2425e73ab"
        report = exhaustive_nonexistence_check(2, DP)
        # zero-padded indices: enumeration order is name order
        assert sorted(report.counterexamples + tuple(report.witnesses)) == names
        assert len(report.counterexamples) == 128

    @pytest.mark.parametrize("klass", [DA, AA])
    def test_active_classes_refused(self, klass):
        with pytest.raises(ValueError, match="deterministic-passive and adaptive-passive"):
            exhaustive_nonexistence_check(2, klass)

    def test_d3_refused(self):
        with pytest.raises(ValueError, match="d=2"):
            exhaustive_nonexistence_check(3, AP)


class TestOffsetsRenameSymbols:
    """Adding a constant to a wire only renames its symbols, so an affine
    map classifies as its linear part; both affine walks rest on this.
    The examples are the first d = 6 survivor, imperfect in every class."""

    @PROPERTY
    @given(d=st.integers(2, 6), params=st.lists(st.integers(0, 5), min_size=6, max_size=6))
    @example(d=6, params=[2, 3, 4, 3, 2, 1])
    def test_relay_offsets_keep_every_verdict(self, d, params):
        p, q, s, t, u, w = (x % d for x in params)
        linear = _affine_relay_code(d, (p, q, 0, t, u, 0))
        affine = _affine_relay_code(d, (p, q, s, t, u, w))
        for klass in (DP, AP, DA, AA):
            want, got = classify(linear, klass).to_json_dict(), classify(affine, klass).to_json_dict()
            del want["code_id"], got["code_id"]
            assert got == want, klass

    @PROPERTY
    @given(d=st.integers(2, 6), params=st.lists(st.integers(0, 5), min_size=12, max_size=12))
    @example(d=6, params=[0, 1, 5, 1, 1, 2, 2, 3, 0, 3, 2, 0])
    def test_encoder_offsets_keep_the_pair_rank(self, d, params):
        a, b, e, c, f, g, p, q, s, t, u, w = (x % d for x in params)
        atoms = list(product(range(d), repeat=2))
        messages = tuple(m for m, _ in atoms)
        relay = [((p * y1 + q * y2 + s) % d, (t * y1 + u * y2 + w) % d) for y1, y2 in atoms]

        def rank(e0, g0):
            encoder = [((a * m + b * l + e0) % d, (c * m + f * l + g0) % d) for m, l in atoms]
            return _pair_rank(d, messages, encoder, relay)

        assert rank(e, g) == rank(0, 0)


class TestScalarLinearD6:
    """A found fact: at d = 6 the best affine relay behind the standard
    encoder is imperfect, not insecure, in every column.  TABLE1_EXPECTED
    keeps the paper's insecure scalar-linear row; it is not edited to match."""

    def test_row_is_imperfect_in_every_column(self):
        assert _scalar_linear_row(6) == dict.fromkeys(TABLE_COLUMNS, SecurityLevel.IMPERFECT)
        assert TABLE1_EXPECTED["scalar-linear"] == (SecurityLevel.INSECURE,) * 3

    def test_432_correct_affine_relays_survive_the_passive_tap(self):
        # literal loop: the relay must let (Y3, Y4) decode M from (L, M + L),
        # and no tap (Y_i, Y_j), i in 1, 2 and j in 3, 4, may pin M
        d = 6
        atoms = [(m, (l, (m + l) % d)) for m, l in product(range(d), repeat=2)]
        messages = [m for m, _ in atoms]

        def pins_m(seen):
            return len(set(seen)) == len(set(zip(messages, seen)))

        survivors = []
        for p, q, s0, t, u, w0 in product(range(d), repeat=6):
            rows = [(m, y12, ((p * y12[0] + q * y12[1] + s0) % d,
                              (t * y12[0] + u * y12[1] + w0) % d)) for m, y12 in atoms]
            if not pins_m([y34 for _, _, y34 in rows]):
                continue
            if not any(pins_m([(y12[i], y34[j]) for _, y12, y34 in rows])
                       for i in (0, 1) for j in (0, 1)):
                survivors.append((p, q, s0, t, u, w0))
        assert len(survivors) == 432
        assert survivors[0] == (2, 3, 0, 3, 2, 0)

    def test_row_classifies_exactly_the_linear_survivors(self, monkeypatch):
        d = 6
        atoms = list(product(range(d), repeat=2))
        messages = tuple(m for m, _ in atoms)
        encoder = [(l, (m + l) % d) for m, l in atoms]
        survivors = []
        for p, q, t, u in product(range(d), repeat=4):
            relay = [((p * y1 + q * y2) % d, (t * y1 + u * y2) % d) for y1, y2 in atoms]
            if _pair_rank(d, messages, encoder, relay) not in (None, 0):
                survivors.append(_affine_relay_code(d, (p, q, 0, t, u, 0)))
        assert len(survivors) == 12
        calls = []
        real = attack_engine.classify

        def spy(code, klass):
            calls.append((code, klass))
            return real(code, klass)

        monkeypatch.setattr(attack_engine, "classify", spy)
        _scalar_linear_row(d)
        assert calls == [(code, klass) for code in survivors for klass in (DA, AA)]

    def test_first_survivor_witnesses_recheck_by_simulation(self):
        # Y3 = 2 Y1 + 3 Y2 and Y4 = 3 Y1 + 2 Y2 mod 6: tapping e(1) and e(4)
        # shows 2M, that is M mod 3, and nothing pins M
        code = _affine_relay_code(6, (2, 3, 0, 3, 2, 0))
        for klass in (DP, DA, AA):
            verdict = classify(code, klass)
            assert verdict.level is SecurityLevel.IMPERFECT
            dist = simulate_attack(code, verdict.witness)
            names = view_names(dist)
            assert not is_function_of(dist, "M", names)
            assert not is_independent(dist, "M", names)
            assert mutual_information(dist, "M", names) == pytest.approx(
                verdict.max_leakage_bits, abs=1e-9)
            assert verdict.max_leakage_bits == pytest.approx(math.log2(3), abs=1e-9)


class TestLinearActiveReduction:
    @pytest.mark.parametrize("d", [2, 3])
    def test_scalar_linear_codes(self, d):
        assert linear_active_reduction_check(scalar_linear_code(d))

    @pytest.mark.parametrize("d", [2, 3])
    def test_vector_linear_codes(self, d):
        assert linear_active_reduction_check(vector_linear_code(d))

    def test_standard_code_rejected_nonaffine(self):
        assert not code_is_affine(standard_nonlinear_code(2))
        with pytest.raises(ValueError):
            linear_active_reduction_check(standard_nonlinear_code(2))

    def test_slice_test_matches_the_slice_law_oracle(self, monkeypatch):
        # the shift test itself, on codes of every kind: with the affinity
        # gate lifted it must agree with the same test on the oracle's
        # slice laws, and it must fail somewhere
        def oracle(code):
            for first_edge in (1, 2):
                slices = dict(slice_laws(code, first_edge))
                for (view, _), active_slice in slices.items():
                    passive_slice = slices[view, view]
                    for col in (1, 2):
                        active, passive = {}, {}
                        for law, out in ((active_slice, active), (passive_slice, passive)):
                            for key, c in law.items():
                                out[key[0], key[col]] = out.get((key[0], key[col]), 0) + c
                        if not any(all(passive.get((m, (w - delta) % code.d), 0) == c
                                       for (m, w), c in active.items())
                                   for delta in range(code.d)):
                            return False
            return True

        # a two-shot code whose relay leaves the passive form only on inputs
        # that substitute two different values for one symbol seen twice:
        # e(1) carries (s1, s2), e(2) carries (M, [s1 == s2]), and Y4 = M
        # where the e(1) inputs differ although e(2) says they were equal.
        # No map reaches those inputs, so the test passes
        d = 2
        encoder = {(m, s1, s2): ((s1, m), (s2, int(s1 == s2)))
                   for m, s1, s2 in product(range(d), repeat=3)}
        relay = {(a, c, b, e): (c, c if a != b and e == 1 else 0)
                 for a, c, b, e in product(range(d), repeat=4)}
        decoder = {(y3, y4): y3 for y3, y4 in product(range(d), repeat=2)}
        reached_by_no_map = OneHopCode(d, 2, 2, False, encoder, relay, decoder)

        monkeypatch.setattr(attack_engine, "code_is_affine", lambda code: True)
        codes = slice_codes() + [standard_nonlinear_code(d) for d in (2, 3)]
        codes += [scalar_linear_code(3), vector_linear_code(3), reached_by_no_map]
        results = [linear_active_reduction_check(code) for code in codes]
        assert results == [oracle(code) for code in codes]
        assert False in results and results[-1]

    def test_affinity_detector(self):
        assert code_is_affine(scalar_linear_code(3))
        assert code_is_affine(vector_linear_code(2))
        assert code_is_affine(scalar_linear_code(2, relay_randomness=False))


def enumerate_extended_strategies(d):
    """All per-shot re-selection plans for a two-shot code at alphabet d."""
    for i1 in (1, 2):
        for f1 in product(range(d), repeat=d):
            for i2_sel in product((1, 2), repeat=d):
                for f2 in product(range(d), repeat=d * d):
                    for c_sel in product((3, 4), repeat=d * d):
                        yield i1, f1, i2_sel, f2, c_sel


def extended_view_law(code, plan):
    i1, f1, i2_sel, f2, c_sel = plan
    d = code.d
    weights = {}
    for key in code.encoder_inputs():
        m, scrambles = key[0], key[1:]
        first = code.first_layer_symbols(m, scrambles)
        a1 = first[i1 - 1]
        i2 = i2_sel[a1]
        a2 = first[2 + i2 - 1]
        relay_in = list(first)
        relay_in[i1 - 1] = f1[a1]
        relay_in[2 + i2 - 1] = f2[a1 * d + a2]
        y3, y4 = code.relay_output(tuple(relay_in))
        w = y3 if c_sel[a1 * d + a2] == 3 else y4
        k = (m, a1, a2, w)
        weights[k] = weights.get(k, 0) + 1
    return weights


def literal_extended_secrecy(code):
    """Oracle: the staged extended-mode check, one slice and constant at a time.

    For each shot-1 edge i1: M must be independent of Y_i1; for each
    shot-2 edge i2, of Y'_i2 within every slice Y_i1 = a; and of each of
    Y3 and Y4 within every slice (a, a2) under every pair of substituted
    constants.
    """
    d = code.d
    atoms = [(key[0], code.first_layer_symbols(key[0], key[1:]))
             for key in code.encoder_inputs()]
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
                    slice_a2 = [(m, first) for m, first in slice_a if first[p2] == a2]
                    if not slice_a2:
                        continue
                    for x1, x2 in product(range(d), repeat=2):
                        outs = []
                        for m, first in slice_a2:
                            relay_in = list(first)
                            relay_in[p1] = x1
                            relay_in[p2] = x2
                            for lp in code.relay_random_values():
                                outs.append((m, code.relay_output(tuple(relay_in), lp)))
                        for col in (0, 1):
                            if not _independent(Counter((m, y34[col]) for m, y34 in outs),
                                                len(outs), (0,), (1,)):
                                return False
    return True


def vector_linear_variant(rng, d, relay_randomness):
    """The vector-linear code with every wire and M renamed, and half the
    time one relay entry overwritten.

    The relay adds its own symbol, if any, to Y3 (and so to Y4), which
    keeps M = Y4 - Y3 decodable.
    """
    def perm():
        return rng.sample(range(d), d)

    f, g3, g4, message = [perm() for _ in range(4)], perm(), perm(), perm()
    encoder = {(message[m], l1, l2, l3): ((f[0][l1], f[1][(m + l1) % d]),
                                          (f[2][l2], f[3][(l3 + l2) % d]))
               for m, l1, l2, l3 in product(range(d), repeat=4)}
    relay = {}
    for key in product(range(d), repeat=4 + relay_randomness):
        y1, y2, y1p, y2p = (f[i].index(v) for i, v in enumerate(key[:4]))
        y3 = (y2p - y1p + sum(key[4:])) % d
        relay[key] = (g3[y3], g4[(y2 - y1 + y3) % d])
    if rng.random() < 0.5:
        relay[rng.choice(sorted(relay))] = (rng.randrange(d), rng.randrange(d))
    decoder = {(g3[y3], g4[y4]): message[(y4 - y3) % d]
               for y3, y4 in product(range(d), repeat=2)}
    return OneHopCode(d, 2, 3, bool(relay_randomness), encoder, relay, decoder,
                      name=f"vector-linear-variant-d{d}")


class TestExtendedTwoShotMode:
    def test_vector_linear_d2_matches_literal_enumeration(self):
        # oracle: every one of the 8192 extended plans at d=2, evaluated
        # literally, must leave M exactly independent of the view
        code = vector_linear_code(2)
        assert check_extended_two_shot_secrecy(code)
        checked = 0
        for plan in enumerate_extended_strategies(2):
            weights = extended_view_law(code, plan)
            total = sum(weights.values())
            wm, wv = {}, {}
            for (m, *v), w in weights.items():
                wm[m] = wm.get(m, 0) + w
                wv[tuple(v)] = wv.get(tuple(v), 0) + w
            for (m, *v), w in weights.items():
                assert w * total == wm[m] * wv[tuple(v)], plan
            checked += 1
        assert checked == 2 * 4 * 4 * 16 * 16

    def test_vector_linear_d3(self):
        assert check_extended_two_shot_secrecy(vector_linear_code(3))

    def test_matches_the_staged_oracle(self):
        # random two-shot codes, which the extended mode breaks, and
        # renamed vector-linear codes, some with one relay entry changed,
        # at d = 2, 3 with and without relay randomness
        rng = random.Random(2026)
        codes = [random_code(rng, d, 2, 1 + i % 3, i % 2) for d in (2, 3) for i in range(20)]
        codes += [vector_linear_variant(rng, d, i % 2) for d in (2, 3) for i in range(30)]
        results = [check_extended_two_shot_secrecy(code) for code in codes]
        assert results == [literal_extended_secrecy(code) for code in codes]
        for d in (2, 3):
            for relay_randomness in (False, True):
                outcomes = {secure for code, secure in zip(codes, results)
                            if (code.d, code.relay_randomness) == (d, relay_randomness)}
                assert outcomes == {False, True}, (d, relay_randomness)

    def test_leaky_two_shot_code_fails(self):
        # drop the second-shot scramble: Y3 reveals nothing but Y4 = M + Y3'
        d = 2
        encoder = {}
        for m, l1, l2, l3 in product(range(d), repeat=4):
            encoder[(m, l1, l2, l3)] = ((l1, (m + l1) % d), (l2, l2))
        relay = {}
        for y1, y2, y1p, y2p in product(range(d), repeat=4):
            y3 = (y2p - y1p) % d
            relay[(y1, y2, y1p, y2p)] = (y3, (y2 - y1 + y3) % d)
        decoder = {(y3, y4): (y4 - y3) % d for y3, y4 in product(range(d), repeat=2)}
        leaky = OneHopCode(d, 2, 3, False, encoder, relay, decoder, name="leaky")
        assert not check_extended_two_shot_secrecy(leaky)

    def test_single_shot_rejected(self):
        with pytest.raises(ValueError):
            check_extended_two_shot_secrecy(standard_nonlinear_code(2))
