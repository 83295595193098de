"""The CLI's exit code and stdout on a fixed set of invocations.

`tests/golden/cli.json` holds, for each invocation, its argv, exit code
and stdout.  Any diff to that file is an output change: regenerate it
only on purpose, with

    PYTHONPATH=src python tests/test_cli_golden.py

and declare the diff with the change that makes it.  Every invocation
runs in a fresh directory that holds the input files below, so the
corpus names them by relative path.
"""

import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

from wiretaplab.cli import main

CORPUS = Path(__file__).resolve().parent / "golden" / "cli.json"

INPUTS = {
    # a decodable one-to-one anti-Latin pair over Z_3, and a Latin square
    "a.sq": "0 0 1\n0 0 1\n1 1 0\n",
    "b.sq": "0 1 0\n2 0 2\n2 0 0\n",
    "latin.sq": "0 1 2\n1 2 0\n2 0 1\n",
    # the (4, 2) MDS generator over F_7, and two equal columns over F_5
    "g.mat": "2 4 7\n1 0 3 2\n0 1 6 3\n",
    "bad.mat": "2 3 5\n1 1 0\n2 2 1\n",
    "single.net": "node s source message\nnode t terminal\nedge s t\n",
}

FAMILIES = ("scalar-linear", "scalar-linear-norand", "standard", "anti-latin",
            "vector-linear")
CLASSES = ("deterministic-passive", "adaptive-passive", "deterministic-active",
           "adaptive-active")
SELFTESTS = ("classify", "antilatin verify", "antilatin xi", "antilatin pair-check",
             "antilatin find", "antilatin maxset", "capacity", "mincut", "mds build",
             "mds verify", "wiretap2", "han")


def invocations():
    """Every argv of the corpus, in order."""
    both = []  # run in text and in JSON
    for family in FAMILIES:
        for d in (2, 3, 4):
            for klass in CLASSES:
                both.append(["classify", "--family", family, "--d", str(d),
                             "--class", klass])
    for alias in ("passive", "active", "adaptive"):
        both.append(["classify", "--family", "standard", "--d", "2", "--class", alias])
    for d in range(2, 6):
        both.append(["antilatin", "find", "--d", str(d)])
    for mode in ("decodable", "one-to-one"):
        for d in (2, 3):
            both.append(["antilatin", "maxset", "--d", str(d), "--mode", mode])
        both.append(["antilatin", "maxset", "--d", "4", "--mode", mode,
                     "--method", "heuristic", "--budget", "2000"])
    both += [
        ["antilatin", "verify", "--file", "a.sq"],
        ["antilatin", "verify", "--file", "latin.sq"],
        ["antilatin", "xi", "--a", "a.sq", "--b", "b.sq"],
        ["antilatin", "xi", "--a", "a.sq", "--b", "b.sq", "--z", "1", "--m", "2"],
        ["antilatin", "pair-check", "--a", "a.sq", "--b", "b.sq"],
        ["antilatin", "pair-check", "--a", "a.sq", "--b", "latin.sq"],
    ]
    for net in ("fig1", "one-hop", "single.net"):
        both.append(["mincut", "--net", net])
        for r in (0, 1, 2, 3):
            both.append(["capacity", "--net", net, "--r", str(r)])
    both += [
        ["capacity", "--layered", '{"c":2,"k":[2,2],"r":[1,1],"q":2}'],
        ["capacity", "--layered", '{"k":[3,2,4],"r":[1,1,2],"q":5}'],
        ["mds", "build"],
        ["mds", "build", "--k", "3", "--r", "1", "--q", "2", "--out", "out.mat"],
        ["mds", "verify", "--file", "g.mat"],
        ["mds", "verify", "--file", "bad.mat"],
        ["mds", "verify", "--file", "bad.mat", "--expect"],
        ["wiretap2"],
        ["wiretap2", "--q", "11", "--k", "6", "--r", "3"],
        ["wiretap2", "--q", "2", "--k", "3", "--r", "2"],
        ["han", "--samples", "200"],
        ["han", "--k", "4", "--r", "2", "--samples", "200", "--seed", "7"],
    ]
    argvs = []
    for argv in both:
        argvs += [argv, argv + ["--format", "json"]]
    for d in ("2", "3", "4", "2,3,4"):
        for fmt in ("text", "json", "csv"):
            argvs.append(["classify", "--table", "--d", d, "--format", fmt])
    argvs.append(["classify", "--table", "--d", "2,3,4", "--expect-table1"])
    argvs += [command.split() + ["--selftest"] for command in SELFTESTS]
    return argvs


def write_inputs(directory: Path) -> None:
    for name, text in INPUTS.items():
        (directory / name).write_text(text, encoding="utf-8")


def run(argv) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    return code, buf.getvalue()


def pytest_generate_tests(metafunc):
    if "entry" in metafunc.fixturenames:
        corpus = json.loads(CORPUS.read_text(encoding="utf-8"))
        metafunc.parametrize("entry", corpus, ids=[" ".join(e["argv"]) for e in corpus])


def test_output_matches_the_corpus(entry, tmp_path, monkeypatch):
    write_inputs(tmp_path)
    monkeypatch.chdir(tmp_path)
    assert run(entry["argv"]) == (entry["exit"], entry["stdout"])


def write_corpus() -> None:
    corpus = []
    cwd = os.getcwd()
    for argv in invocations():
        with tempfile.TemporaryDirectory() as work:
            write_inputs(Path(work))
            os.chdir(work)
            try:
                code, out = run(argv)
            finally:
                os.chdir(cwd)
        corpus.append({"argv": argv, "exit": code, "stdout": out})
    CORPUS.parent.mkdir(exist_ok=True)
    CORPUS.write_text(json.dumps(corpus, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(corpus)} invocations to {CORPUS}", file=sys.stderr)


if __name__ == "__main__":
    write_corpus()
