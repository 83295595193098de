"""One-hop relay codes stored as explicit tables.

The network is fixed: a source feeds a relay over edges e(1), e(2) and
the relay feeds the destination over e(3), e(4).  A code is an encoder
table (message and uniform scrambles to the first-layer pair, per shot),
a relay table (first-layer symbols, plus an optional uniform relay
symbol, to the second-layer pair), and a decoder table.  Keeping codes
as tables gives enumeration, equivalence checking, and attack
simulation one shared evaluation path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from fractions import Fraction
from itertools import chain, product
from operator import itemgetter
from typing import Iterable, Iterator, Optional

from .anti_latin import AntiLatinSquare, is_decodable_pair, xi_set
from .info_theory import _determines


EncoderTable = dict[tuple[int, ...], tuple[tuple[int, int], ...]]
RelayTable = dict[tuple[int, ...], tuple[int, int]]
DecoderTable = dict[tuple[int, int], int]


# Every code of a sweep reads its tables through the same few word sets.
@lru_cache(maxsize=16)
def _words(d: int, length: int) -> dict:
    """Every word of the given length over Z_d, the keys of a total table,
    each mapped to itself: a lookup returns the int word equal to a tuple."""
    return {w: w for w in product(range(d), repeat=length)}


@dataclass(frozen=True)
class OneHopCode:
    """A complete encoder/relay/decoder triple over Z_d.

    encoder: (m, *scrambles) -> ((y1, y2) per shot)
    relay:   first-layer symbols across shots, then the relay's own
             uniform symbol when relay_randomness is set -> (y3, y4)
    decoder: (y3, y4) -> message

    The relay table takes only first-layer symbols (and its own
    randomness) as input, so it cannot depend on the message or source
    scrambles except through (Y1, Y2).  Every output symbol is stored as
    an int, pairs as tuples; table keys are stored as given.
    """

    d: int
    shots: int
    scramble_count: int
    relay_randomness: bool
    encoder: EncoderTable
    relay: RelayTable
    decoder: DecoderTable
    name: str = field(compare=False, default="")

    def __post_init__(self) -> None:
        if self.d < 2:
            raise ValueError("d must be >= 2")
        if self.shots not in (1, 2):
            raise ValueError("shots must be 1 or 2")
        d = self.d
        # every output symbol is read through _words and stored as the int
        # word it equals (1.0 and True as 1; 0.5 finds none); keys as given
        pairs = _words(d, 2)
        if self.encoder.keys() != _words(d, 1 + self.scramble_count).keys():
            raise ValueError("encoder table is not total over (M, scrambles)")
        encoder = {}
        for key, out in self.encoder.items():
            out = encoder[key] = tuple(map(pairs.get, map(tuple, out)))
            if len(out) != self.shots:
                raise ValueError("encoder output must have one pair per shot")
            if None in out:
                raise ValueError("encoder outputs must be pairs over Z_d")
        relay_arity = 2 * self.shots + (1 if self.relay_randomness else 0)
        if self.relay.keys() != _words(d, relay_arity).keys():
            raise ValueError("relay table is not total over its inputs")
        relay = dict(zip(self.relay, map(pairs.get, map(tuple, self.relay.values()))))
        if None in relay.values():
            raise ValueError("relay outputs must be pairs over Z_d")
        if self.decoder.keys() != pairs.keys():
            raise ValueError("decoder table is not total over (Y3, Y4)")
        messages = list(map(_words(d, 1).get, zip(self.decoder.values())))  # 1-tuples
        if None in messages:
            raise ValueError("decoder outputs must lie in Z_d")
        object.__setattr__(self, "encoder", encoder)
        object.__setattr__(self, "relay", relay)
        object.__setattr__(self, "decoder", dict(zip(self.decoder, chain.from_iterable(messages))))

    @property
    def rate_bits(self) -> float:
        """Message bits per network use: log2(d) / shots."""
        return math.log2(self.d) / self.shots

    def encoder_inputs(self) -> Iterator[tuple[int, ...]]:
        return iter(product(range(self.d), repeat=1 + self.scramble_count))

    def relay_random_values(self) -> tuple[Optional[int], ...]:
        if self.relay_randomness:
            return tuple(range(self.d))
        return (None,)

    def first_layer_symbols(self, m: int, scrambles: tuple[int, ...]) -> tuple[int, ...]:
        """Flattened (y1, y2[, y1', y2']) for the given source inputs."""
        return sum(self.encoder[(m, *scrambles)], ())

    def relay_output(self, first_layer: tuple[int, ...],
                     relay_rand: Optional[int] = None) -> tuple[int, int]:
        key = first_layer if relay_rand is None else first_layer + (relay_rand,)
        return self.relay[key]

    def transmit(self, m: int, scrambles: tuple[int, ...],
                 relay_rand: Optional[int] = None) -> tuple[tuple[int, ...], tuple[int, int], int]:
        """Full evaluation: first-layer symbols, (Y3, Y4), decoded message."""
        first = self.first_layer_symbols(m, scrambles)
        y34 = self.relay_output(first, relay_rand)
        return first, y34, self.decoder[y34]

    def to_json_dict(self) -> dict:
        def table_rows(t):
            return [[list(k), list(v) if isinstance(v, tuple) else v]
                    for k, v in sorted(t.items())]

        return {
            "d": self.d,
            "shots": self.shots,
            "scramble_count": self.scramble_count,
            "relay_randomness": self.relay_randomness,
            "name": self.name,
            "encoder": [[list(k), [list(p) for p in v]]
                        for k, v in sorted(self.encoder.items())],
            "relay": table_rows(self.relay),
            "decoder": table_rows(self.decoder),
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "OneHopCode":
        encoder = {tuple(k): v for k, v in data["encoder"]}
        relay = {tuple(k): v for k, v in data["relay"]}
        decoder = {tuple(k): v for k, v in data["decoder"]}
        return cls(data["d"], data["shots"], data["scramble_count"],
                   data["relay_randomness"], encoder, relay, decoder,
                   name=data.get("name", ""))


def _standard_encoder(d: int) -> EncoderTable:
    """Y1 = L, Y2 = M + L over the inputs (m, l) in lexicographic order."""
    return {(m, l): ((l, (m + l) % d),) for m, l in product(range(d), repeat=2)}


def _difference_decoder(d: int) -> DecoderTable:
    """M = Y4 - Y3."""
    return {(y3, y4): (y4 - y3) % d for y3, y4 in product(range(d), repeat=2)}


def _support_decoder(support: Iterable[tuple[tuple[int, int], int]],
                     keys: Iterable[tuple[int, int]]) -> DecoderTable:
    """Each key decodes to the message the ((y3, y4), m) support pairs give it, else to 0."""
    decoder = dict.fromkeys(keys, 0)
    decoder.update(support)
    return decoder


def scalar_linear_code(d: int, relay_randomness: bool = True) -> OneHopCode:
    """Y1 = L, Y2 = M + L; relay Y3 = L', Y4 = Y2 - Y1 + L'; decode Y4 - Y3.

    With relay_randomness=False the relay symbol L' is dropped (fixed to
    zero), which is the degenerate member used in no-relay-randomness
    sweeps.
    """
    if relay_randomness:
        relay = {(y1, y2, lp): (lp, (y2 - y1 + lp) % d)
                 for y1, y2, lp in product(range(d), repeat=3)}
    else:
        relay = {(y1, y2): (0, (y2 - y1) % d)
                 for y1, y2 in product(range(d), repeat=2)}
    suffix = "" if relay_randomness else "-norand"
    return OneHopCode(d, 1, 1, relay_randomness, _standard_encoder(d), relay,
                      _difference_decoder(d), name=f"scalar-linear{suffix}-d{d}")


def standard_nonlinear_code(d: int) -> OneHopCode:
    """Y3 = Y1(Y2-Y1), Y4 = (Y1+1)(Y2-Y1); decode Y4 - Y3.

    Y4 - Y3 = (Y2 - Y1) = M for every d; at d = 2 this coincides with
    Y3 + Y4.
    """
    relay = {(y1, y2): ((y1 * (y2 - y1)) % d, ((y1 + 1) * (y2 - y1)) % d)
             for y1, y2 in product(range(d), repeat=2)}
    return OneHopCode(d, 1, 1, False, _standard_encoder(d), relay, _difference_decoder(d),
                      name=f"standard-nonlinear-d{d}")


def anti_latin_code(a: AntiLatinSquare, b: AntiLatinSquare) -> OneHopCode:
    """Relay Y3 = a[Y1][Y2], Y4 = b[Y1][Y2]; decoder inverts the Xi partition."""
    if a.d != b.d:
        raise ValueError("squares must have the same size")
    if not is_decodable_pair(a, b):
        raise ValueError("pair is not decodable; the relay code has no decoder")
    d = a.d
    relay = {(y1, y2): (a.entry(y1, y2), b.entry(y1, y2))
             for y1, y2 in product(range(d), repeat=2)}
    support = (((z, w), m) for z in range(d) for m in range(d)
               for w in xi_set(a, b, z, m).members)
    decoder = _support_decoder(support, product(range(d), repeat=2))
    return OneHopCode(d, 1, 1, False, _standard_encoder(d), relay, decoder,
                      name=f"anti-latin-d{d}")


def vector_linear_code(d: int) -> OneHopCode:
    """Two-shot code: shot 1 sends (L1, M+L1), shot 2 sends (L2, L3+L2).

    The relay emits Y3 = Y2' - Y1' and Y4 = Y2 - Y1 + Y2' - Y1' once;
    the second layer carries nothing at the second shot.  Decoding is
    Y4 - Y3 and the rate is log2(d) / 2.
    """
    encoder = {}
    for m, l1, l2, l3 in product(range(d), repeat=4):
        encoder[(m, l1, l2, l3)] = ((l1, (m + l1) % d), (l2, (l3 + l2) % d))
    relay = {}
    for y1, y2, y1p, y2p in product(range(d), repeat=4):
        y3 = (y2p - y1p) % d
        relay[(y1, y2, y1p, y2p)] = (y3, (y2 - y1 + y3) % d)
    return OneHopCode(d, 2, 3, False, encoder, relay, _difference_decoder(d),
                      name=f"vector-linear-d{d}")


def check_correctness(code: OneHopCode) -> bool:
    """Decoder recovers M for every message, scramble, and relay symbol.

    Correctness is only demanded with no attacker present.
    """
    for key in code.encoder_inputs():
        m, scrambles = key[0], key[1:]
        for lp in code.relay_random_values():
            if code.transmit(m, scrambles, lp)[2] != m:
                return False
    return True


def enumerate_code_tables(d: int = 2) -> Iterator[tuple[str, EncoderTable, RelayTable, tuple]]:
    """Every correct single-scramble, no-relay-randomness code over Z_2, as tables.

    Yields (name, encoder, relay, columns) without building a OneHopCode;
    enumerate_onehop_codes builds its codes from these.  columns is
    (M, Y1, Y2, Y3, Y4) over the encoder inputs (m, l) in lexicographic
    order.  The encoder and relay tables are shared by every code that
    uses them: do not modify them.

    Encoder and relay tables are numbered in lexicographic order (256
    each), and codes come out in (encoder, relay) order.  The relay sees
    only (Y1, Y2), so an encoder that gives two messages the same pair
    has no correct relay and is skipped (172 of the 256); each of the 84
    others is paired with all 256 relay tables.  A pair is correct when
    the message is a function of (Y3, Y4).  Spaces for d > 2 are out of
    reach and rejected.
    """
    if d != 2:
        raise ValueError("enumeration is only supported for d=2")
    atoms = list(product(range(2), repeat=2))     # (m, l)
    messages = tuple(m for m, _ in atoms)
    pairs = list(product(range(2), repeat=2))
    relays = [dict(zip(pairs, rel_out)) for rel_out in product(pairs, repeat=4)]
    for ei, first in enumerate(product(pairs, repeat=4)):
        if not _determines(messages, first):
            continue
        encoder = {atom: (out,) for atom, out in zip(atoms, first)}
        head = (messages, *zip(*first))
        relay_of = itemgetter(*first)
        for ri, relay in enumerate(relays):
            second = relay_of(relay)
            if _determines(messages, second):
                yield f"enum-e{ei:03d}-r{ri:03d}", encoder, relay, (*head, *zip(*second))


def enumerate_onehop_codes(d: int = 2) -> Iterator[OneHopCode]:
    """Every correct single-scramble, no-relay-randomness code over Z_2.

    The codes of enumerate_code_tables, in its order and under its
    names.  The decoder is read off the support, unreachable pairs
    decoding to 0.
    """
    for name, encoder, relay, (messages, _, _, y3, y4) in enumerate_code_tables(d):
        decoder = _support_decoder(zip(zip(y3, y4), messages), relay)
        yield OneHopCode(2, 1, 1, False, encoder, relay, decoder, name=name)


_FLIPS = ((0, 1), (1, 0))  # identity and complement on Z_2


def standard_equivalence_certificate(code: OneHopCode) -> Optional[dict]:
    """Relabeling taking the code onto the standard non-linear form, if any.

    Searches the 2^5 bijection tuples (f1..f4 on the wire symbols, f5 on
    the message).  The scramble of the standard form is read off as
    f1(Y1) and may end up correlated with the message; the certificate
    reports that induced joint law.
    """
    if code.d != 2 or code.shots != 1 or code.relay_randomness:
        raise ValueError("equivalence check is defined for single-shot d=2 "
                         "codes without relay randomness")
    atoms = list(product(range(2), repeat=code.scramble_count + 1))
    for bits in product(range(2), repeat=5):
        f1, f2, f3, f4, f5 = (_FLIPS[b] for b in bits)
        ml_counts: dict[tuple[int, int], int] = {}
        ok = True
        for key in atoms:
            m = key[0]
            (y1, y2), = code.encoder[key]
            y3, y4 = code.relay[(y1, y2)]
            lbar, mbar = f1[y1], f5[m]
            diff = (f2[y2] - lbar) % 2
            if f2[y2] != (mbar + lbar) % 2:
                ok = False
                break
            if f3[y3] != (lbar * diff) % 2 or f4[y4] != ((lbar + 1) * diff) % 2:
                ok = False
                break
            ml_counts[(mbar, lbar)] = ml_counts.get((mbar, lbar), 0) + 1
        if ok:
            total = len(atoms)
            return {
                "flips": bits,
                "message_scramble_joint": {
                    k: Fraction(v, total) for k, v in sorted(ml_counts.items())},
            }
    return None


def is_equivalent_to_standard(code: OneHopCode) -> bool:
    """True iff some symbol/message relabeling maps the code onto the
    standard non-linear code (the scramble may be correlated with M)."""
    return standard_equivalence_certificate(code) is not None
