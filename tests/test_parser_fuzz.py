"""Every text parser either parses or raises ValueError, whatever the text;
every CLI argv ends in a documented exit code, whatever the options."""

import argparse
import contextlib
import io
import json
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wiretaplab import cli
from wiretaplab.algebra import Matrix
from wiretaplab.attack_engine import AttackClass
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


# ---------------------------------------------------------------------------
# cli.main over argv drawn from the parser itself

def _leaves(parser, path=()):
    """(subcommand path, option actions) of every leaf of the argparse tree."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _leaves(sub, path + (name,))
            return
    yield path, [action for action in parser._actions
                 if action.option_strings and not isinstance(action, argparse._HelpAction)]


LEAVES = list(_leaves(cli.build_parser()))
# small, negative, non-integer and huge values; huge ones must be refused
# before any work, with exit 2 or 3
SMALL = ["0", "1", "2", "3", "4", "7", "11"]
ODD = ["-1", "-7", "x", "", "0.5", "1e3", "0x10", "½", "2,3"]
HUGE = ["4096", "99999999999999999999"]
# valid values weigh more, so that runs get past the parser
INTS = SMALL * 3 + ODD + HUGE * 2
# file options read files of a temporary directory, or paths that fail;
# @name stands for such a path and is filled in by the test
FILES = ["@square", "@matrix", "@network", "@missing", "@dir", ""]
VALUES = {
    # d = 6 is in budget, but the grid and the two-shot active codes there
    # walk 6^6 maps and take seconds
    ("classify", "--d"): SMALL * 2 + ["5", "8", "2,3,4", "1,2", "2,7"] + ODD + HUGE * 2,
    ("classify", "--family"): list(cli._FAMILIES) + ["x"],
    ("classify", "--class"): [k.value for k in AttackClass] + ["passive", "active",
                                                                "adaptive", "x"],
    # the anti-Latin searches are bounded in steps, not in time, and a
    # hill-climb holds d^2 cells per square: `antilatin find --d 40` took
    # 69 s under its default budget, so d stays small here and every run
    # ends with a budget of at most 5000 steps, until the budget counts
    # cell reads
    ("antilatin", "find", "--d"): (SMALL[:-2] + ["5", "8"]) * 2 + ODD,
    ("antilatin", "maxset", "--d"): (SMALL[:-2] + ["5", "8"]) * 2 + ODD,
    ("capacity", "--layered"): ['{"c":2,"k":[2,2],"r":[1,1],"q":2}', "{}", "x", "[1]",
                                '{"c":1,"k":[99999999999999999999],"r":[1],"q":2}'],
    ("capacity", "--net"): FILES + ["fig1", "one-hop"],
    ("mincut", "--net"): FILES + ["fig1", "one-hop"],
    ("mds", "build", "--out"): ["@out", "@dir", ""],
}
BUDGETED = {("antilatin", "find"), ("antilatin", "maxset")}
BUDGETS = ["0", "1", "50", "5000"]
# what the parser or the command refuses at once
INVALID = {*ODD, "x", "", "@missing", "@dir", "{}", "[1]"}


def _values(path, action, valid):
    if action.choices:
        pool = list(action.choices) + ["x"]
    else:
        pool = VALUES.get(path + (action.option_strings[0],),
                          INTS if action.type is int else FILES)
    return [v for v in pool if not (valid and v in INVALID)]


@st.composite
def argvs(draw, path, actions):
    argv = list(path)
    # half the runs draw only values that may get past the checks
    valid = draw(st.booleans())
    # each option is given at odds of three in four, a flag at one in four,
    # in any order
    given = [a for a in actions if draw(st.integers(0, 3)) >= (3 if a.nargs == 0 else 1)]
    for action in draw(st.permutations(given)):
        argv.append(draw(st.sampled_from(action.option_strings)))
        # now and then the value is missing
        if action.nargs != 0 and (valid or draw(st.integers(0, 7)) < 7):
            argv.append(draw(st.sampled_from(_values(path, action, valid))))
    if path in BUDGETED:
        argv += ["--budget", draw(st.sampled_from(BUDGETS))]  # the last one counts
    return argv


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("argv")
    texts = {"square": "0 0 1\n0 2 2\n1 2 1\n", "matrix": "2 3 5\n1 2 3\n4 0 1\n",
             "network": FIG1_NETWORK_TEXT}
    for name, text in texts.items():
        (tmp / f"{name}.txt").write_text(text, encoding="utf-8")
    return {f"@{name}": str(tmp / f"{name}.txt")
            for name in [*texts, "missing", "out"]} | {"@dir": str(tmp)}


# 12 leaves x 12 examples: at most 150 calls, each leaf tried alike
@pytest.mark.parametrize("path, actions", LEAVES, ids=[" ".join(path) for path, _ in LEAVES])
@settings(derandomize=True, database=None, max_examples=12, deadline=None)
@given(data=st.data())
def test_cli_main_ends_in_a_documented_exit_code(files, path, actions, data):
    argv = [files.get(token, token) for token in data.draw(argvs(path, actions))]
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse: usage error or --help
            code = exc.code
    assert time.perf_counter() - start < 5, argv
    assert code in (0, 1, 2, 3), argv
    assert "Traceback" not in err.getvalue(), argv
