"""Every text parser either parses or raises ValueError, whatever the text."""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from wiretaplab.algebra import Matrix
from wiretaplab.anti_latin import AntiLatinSquare
from wiretaplab.network_capacity import (
    FIG1_NETWORK_TEXT,
    ONE_HOP_NETWORK_TEXT,
    LayeredUnicastNetwork,
    WiretapNetwork,
)

FUZZ = settings(derandomize=True, database=None, max_examples=300, deadline=None)

# the words each grammar knows, numbers near its edges, and noise
WORDS = ["node", "edge", "source", "terminal", "intermediate", "message", "random",
         "#", "a", "b", "S", "T", "0", "1", "2", "3", "-1", "-7", "4096", "1e3",
         "0x10", "99999999999999999999", "½", "", "\t", "nan"]
SEPARATORS = [" ", "  ", "\n", "\r\n", "\t", " # ", "\n\n"]
NOISE = st.text(alphabet="0123456789+-.#_ \t\nabxeé½\x00", max_size=4)
TOKENS = st.one_of(st.sampled_from(WORDS), NOISE, st.integers(-50, 50).map(str))
SOUP = st.lists(st.tuples(TOKENS, st.sampled_from(SEPARATORS)), max_size=30).map(
    lambda pairs: "".join(token + sep for token, sep in pairs))
EDITS = st.lists(st.tuples(st.integers(0, 999), st.sampled_from(("replace", "drop", "insert")),
                           TOKENS), max_size=3)


def edited(text, edits):
    """The text with tokens (line breaks count as tokens) replaced, dropped or inserted."""
    tokens = text.replace("\n", " \n ").split(" ")
    for at, how, token in edits:
        i = at % len(tokens) if tokens else 0
        if how == "replace" and tokens:
            tokens[i] = token
        elif how == "drop" and tokens:
            del tokens[i]
        else:
            tokens.insert(i, token)
    return " ".join(tokens)


def texts(*valid):
    """Token soup, or one of the valid texts with up to three edits."""
    return st.one_of(SOUP, st.builds(edited, st.sampled_from(valid), EDITS))


def parses_or_value_error(parse, text):
    try:
        parse(text)
    except ValueError:
        pass


@FUZZ
@given(texts("2 3 5\n1 2 3\n4 0 1\n", "1 1 2\n1\n"))
def test_matrix_from_text(text):
    parses_or_value_error(Matrix.from_text, text)


@FUZZ
@given(texts("0 0 1\n0 2 2\n1 2 1\n", "0 0\n0 0\n"))
def test_anti_latin_square_from_text(text):
    parses_or_value_error(AntiLatinSquare.from_text, text)


@FUZZ
@given(texts(FIG1_NETWORK_TEXT, ONE_HOP_NETWORK_TEXT))
def test_wiretap_network_from_text(text):
    parses_or_value_error(WiretapNetwork.from_text, text)


# any JSON value, objects over the keys the layered form reads; scalars
# at the edges of int(): non-numbers, fractions, infinities, NaN, big ints
JSON_SCALARS = st.one_of(st.integers(-3, 5), st.sampled_from(
    [None, True, False, 2 ** 70, -2 ** 70, 0.5, 2.0, -1e300, float("inf"),
     float("-inf"), float("nan"), "", "2", " 3 ", "k", "½", "1e3", "0x10"]))
JSON_VALUES = st.recursive(JSON_SCALARS, lambda children: st.one_of(
    st.lists(children, max_size=4),
    st.dictionaries(st.sampled_from(["k", "r", "q", "c", "x"]), children, max_size=5)),
    max_leaves=8)


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(JSON_VALUES)
def test_layered_network_from_json_dict(value):
    # what json.loads can return: round-trip the value, infinities and NaN included;
    # whatever parses is the network the JSON spells, integer for integer
    data = json.loads(json.dumps(value))
    try:
        net = LayeredUnicastNetwork.from_json_dict(data)
    except ValueError:
        return
    assert [net.k, net.r, net.q] == [tuple(data["k"]), tuple(data["r"]), data["q"]]
    assert all(type(v) is int for v in [*net.k, *net.r, net.q])
