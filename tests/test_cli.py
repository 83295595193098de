import json
import shlex
import time
from pathlib import Path

import pytest

from wiretaplab import algebra, attack_engine, cli
from wiretaplab.anti_latin import reference_decodable_pair
from wiretaplab.cli import _build_family_code, _family_shape, main

from test_cli_golden import CORPUS, write_inputs
from test_cli_golden import run as run_quietly

FAMILIES = ("scalar-linear", "scalar-linear-norand", "standard", "anti-latin",
            "vector-linear")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestExampleCommands:
    def test_mincut_fig1(self, capsys):
        code, out, _ = run(capsys, "mincut", "--net", "fig1.net", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["mincut1"] == 3
        assert data["mincut2"] == 2

    def test_capacity_layered(self, capsys):
        code, out, _ = run(capsys, "capacity", "--layered",
                           '{"c":2,"k":[2,2],"r":[1,1],"q":2}', "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["C1"] == 1.0
        assert data["C2"] == 0.5

    def test_classify_standard_adaptive(self, capsys):
        code, out, _ = run(capsys, "classify", "--family", "standard", "--d", "2",
                           "--class", "adaptive", "--format", "json")
        assert code == 0
        verdict = json.loads(out)["verdict"]
        assert verdict["level"] == "insecure"
        # the route-by-observation attack: tap e(1), Y1=0 -> e(4), Y1=1 -> e(3)
        assert verdict["witness"]["first_edge"] == 1
        assert verdict["witness"]["selector"] == [4, 3]

    def test_classify_vector_linear_active(self, capsys):
        code, out, _ = run(capsys, "classify", "--family", "vector-linear",
                           "--d", "3", "--class", "active", "--format", "json")
        assert code == 0
        assert json.loads(out)["verdict"]["level"] == "perfectly-secret"

    def test_antilatin_find_d2_not_found(self, capsys):
        code, out, _ = run(capsys, "antilatin", "find", "--d", "2")
        assert code == 0
        assert "NotFound" in out
        assert "exhaustive" in out

    def test_wiretap2(self, capsys):
        code, out, _ = run(capsys, "wiretap2", "--q", "3", "--k", "3", "--r", "1",
                           "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["all_taps_zero"] and data["decode_ok"]

    def test_18_digit_prime_modulus_runs(self, capsys, tmp_path):
        # q is decided prime by Miller-Rabin, not by 5 * 10^8 trial divisions
        q = "1000000000000000003"
        path = tmp_path / "g.mat"
        for argv, want in ((("mds", "build", "--k", "4", "--r", "2", "--q", q, "--out",
                             str(path)), None),
                           (("mds", "verify", "--file", str(path)), "MDS\n"),
                           (("wiretap2", "--q", q, "--k", "4", "--r", "2"),
                            f"(k=4, r=2) over F_{q}: decode ok, 6 tap subsets, "
                            "leakage all zero\n")):
            start = time.perf_counter()
            code, out, _ = run(capsys, *argv)
            assert code == 0, argv
            if want is None:
                assert out.splitlines()[0] == f"2 4 {q}"
            else:
                assert out == want
            assert time.perf_counter() - start < 1.0

    def test_wiretap2_q11_k6_r3_runs(self, capsys):
        # 11^6 codewords, but only C(6, 3) = 20 rank pairs
        start = time.perf_counter()
        code, out, _ = run(capsys, "wiretap2", "--q", "11", "--k", "6", "--r", "3")
        assert code == 0
        assert out == "(k=6, r=3) over F_11: decode ok, 20 tap subsets, leakage all zero\n"
        assert time.perf_counter() - start < 1.0


# every command of README's CLI block, in order, without the program name
README_COMMANDS = [
    "classify --family standard --d 2 --class adaptive",
    "classify --table --d 2,3,4 --expect-table1",
    "antilatin find --d 3",
    "antilatin maxset --d 3 --mode decodable --method exact",
    "mincut --net fig1.net",
    """capacity --layered '{"c":2,"k":[2,2],"r":[1,1],"q":2}'""",
    "mds build --k 4 --r 2 --q 7",
    "wiretap2 --q 11 --k 6 --r 3",
    "han --k 4 --r 2 --samples 10000",
]


def readme_cli_block():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = text.split("## CLI\n\n```sh\n", 1)[1].split("```", 1)[0]
    return block.splitlines()


class TestReadmeCommands:
    def test_block_lists_the_tested_commands(self):
        assert readme_cli_block() == ["wiretaplab " + c for c in README_COMMANDS]

    @pytest.mark.parametrize("command", README_COMMANDS)
    def test_command_exits_0(self, capsys, command):
        code, _, err = run(capsys, *shlex.split(command))
        assert code == 0, err


class TestTable:
    def test_expect_table1_passes(self, capsys):
        code, out, _ = run(capsys, "classify", "--table", "--d", "2,3",
                           "--expect-table1")
        assert code == 0
        assert "vector-linear" in out

    def test_csv_format(self, capsys):
        code, out, _ = run(capsys, "classify", "--table", "--d", "2",
                           "--format", "csv")
        assert code == 0
        assert out.splitlines()[0] == "family,d,deterministic-passive,active,adaptive"

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "classify", "--table", "--d", "2",
                           "--format", "json")
        data = json.loads(out)
        assert data["schema"] == "wiretaplab/v1"
        families = [r["family"] for r in data["table"]["rows"]]
        assert families == ["scalar-linear", "standard-nonlinear", "vector-linear"]


class TestDeterminism:
    def test_identical_seed_identical_json(self, capsys):
        args = ("antilatin", "find", "--d", "4", "--seed", "77", "--format", "json")
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2

    def test_maxset_heuristic_deterministic(self, capsys):
        args = ("antilatin", "maxset", "--d", "4", "--method", "heuristic",
                "--mode", "decodable", "--seed", "5", "--budget", "8000",
                "--format", "json")
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2


class TestExitCodes:
    def test_usage_error_is_2(self, capsys):
        code, _, err = run(capsys, "capacity", "--layered", "{not json")
        assert code == 2
        assert "error" in err

    def test_missing_classify_args(self, capsys):
        code, _, _ = run(capsys, "classify", "--d", "2")
        assert code == 2

    def test_unknown_class_name(self, capsys):
        code, _, _ = run(capsys, "classify", "--family", "standard", "--d", "2",
                         "--class", "sneaky")
        assert code == 2

    def test_budget_exhaustion_is_3(self, capsys):
        code, _, err = run(capsys, "antilatin", "find", "--d", "5",
                           "--budget", "5")
        assert code == 3
        assert "budget" in err

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_antilatin_find_budget_reads_like_every_search(self, capsys, fmt):
        # the pair search reports its exhausted budget through BudgetError,
        # in the one form main prints for every search
        code, out, err = run(capsys, "antilatin", "find", "--d", "5",
                             "--budget", "5", "--format", fmt)
        assert code == 3
        assert out == ""
        assert err.startswith("budget exhausted: ")
        assert "d=5" in err and "after 5 steps" in err

    @pytest.mark.parametrize("argv", [
        ("antilatin", "find", "--d", "4"),
        ("antilatin", "maxset", "--d", "4", "--method", "heuristic"),
    ])
    def test_negative_budget_is_2_and_zero_budget_is_3(self, capsys, argv):
        code, _, err = run(capsys, *argv, "--budget", "-1")
        assert code == 2
        assert "budget must be >= 0" in err
        code, _, err = run(capsys, *argv, "--budget", "0")
        assert code == 3
        assert "budget exhausted" in err

    def test_two_shot_active_budget_is_3(self, capsys):
        code, _, err = run(capsys, "classify", "--family", "vector-linear",
                           "--d", "7", "--class", "adaptive-active")
        assert code == 3
        assert "budget" in err

    @pytest.mark.parametrize("family, d, klass", [
        ("scalar-linear", "60", "adaptive-active"),
        ("standard", "2000", "passive"),
    ])
    def test_classify_budget_is_3(self, capsys, monkeypatch, family, d, klass):
        # 60^3 atoms x 60 substitutes, and 2000^2 atoms: refused before the
        # code is built, so before the first column walk
        def no_columns(*args):
            raise AssertionError("a column walk started")

        monkeypatch.setattr(attack_engine, "_columns", no_columns)
        monkeypatch.setattr(attack_engine, "_slice_columns", no_columns)
        start = time.perf_counter()
        code, out, err = run(capsys, "classify", "--family", family, "--d", d,
                             "--class", klass)
        assert code == 3
        assert "budget" in err and "reads the relay" in err
        assert out == ""
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("family", FAMILIES)
    def test_family_shape_is_the_built_code_shape(self, family):
        code = _build_family_code(family, 3, 0)
        atoms = len(code.encoder) * len(code.relay_random_values())
        assert _family_shape(family, 3) == (code.shots, atoms)

    @pytest.mark.parametrize("argv", [
        ("antilatin", "verify"),
        ("antilatin", "xi"),
        ("antilatin", "pair-check"),
        ("mds", "verify"),
    ])
    def test_missing_file_is_2(self, capsys, argv):
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert "FILE is required" in err

    def test_han_cell_budget_is_3(self, capsys):
        # 2^65 cells: the cap is checked before any cell is drawn
        code, _, err = run(capsys, "han", "--k", "64", "--samples", "1")
        assert code == 3
        assert "budget" in err

    def test_han_time_budget_is_3(self, capsys):
        # 1000 x C(15, 7) x 2^16 projected cells: days of work, refused
        # before the first sample is drawn
        start = time.perf_counter()
        code, out, err = run(capsys, "han", "--k", "15", "--r", "7")
        assert code == 3
        assert "budget" in err and "projected cells" in err
        assert out == ""
        assert time.perf_counter() - start < 5.0

    def test_wiretap2_budget_is_3(self, capsys):
        # C(20, 10) tap subsets: about 40 s of eliminations, refused before
        # the first one
        start = time.perf_counter()
        code, out, err = run(capsys, "wiretap2", "--q", "23", "--k", "20", "--r", "10")
        assert code == 3
        assert "budget" in err and "tap subsets" in err
        assert out == ""
        assert time.perf_counter() - start < 5.0

    @pytest.mark.parametrize("command", [("mds", "build"), ("wiretap2",)])
    def test_generator_budget_is_3(self, capsys, monkeypatch, command):
        # a 10000 x 20000 generator: 2 * 10^8 entries, about two minutes and
        # many GB, refused before the first Cauchy entry is inverted
        def no_inverse(base, exp, mod):
            if exp == -1:
                raise AssertionError("a generator entry was built")
            return pow(base, exp, mod)

        monkeypatch.setattr(algebra, "pow", no_inverse, raising=False)
        start = time.perf_counter()
        code, out, err = run(capsys, *command, "--k", "20000", "--r", "10000",
                             "--q", "20011")
        assert code == 3
        assert "budget" in err and "entries" in err
        assert out == ""
        assert time.perf_counter() - start < 1.0

    def test_modulus_beyond_the_exact_primality_test_is_3(self, capsys, tmp_path):
        bound = "3317044064679887385961981"
        path = tmp_path / "huge.mat"
        path.write_text(f"1 2 {bound}\n1 1\n")
        for argv in (("mds", "build", "--q", bound), ("wiretap2", "--q", bound),
                     ("mds", "verify", "--file", str(path))):
            start = time.perf_counter()
            code, out, err = run(capsys, *argv)
            assert code == 3, argv
            assert "budget" in err and "primality" in err
            assert out == ""
            assert time.perf_counter() - start < 1.0

    def test_mds_verify_budget_is_3(self, capsys, tmp_path):
        # C(24, 12) column selections, refused before the first determinant
        path = tmp_path / "wide.mat"
        path.write_text("12 24 5\n" + "\n".join(["1 " * 24] * 12) + "\n")
        start = time.perf_counter()
        code, out, err = run(capsys, "mds", "verify", "--file", str(path))
        assert code == 3
        assert "budget" in err and "column selections" in err
        assert out == ""
        assert time.perf_counter() - start < 5.0

    @pytest.mark.parametrize("k, r", [(-2, 2), (3, 0), (3, 4)])
    def test_han_r_outside_one_to_k_is_2(self, capsys, k, r):
        code, _, err = run(capsys, "han", "--k", str(k), "--r", str(r))
        assert code == 2
        assert "1 <= --r <= --k" in err

    def test_han_without_samples_is_2(self, capsys):
        code, _, err = run(capsys, "han", "--samples", "0")
        assert code == 2
        assert "--samples" in err

    def test_proven_absent_family_is_2(self, capsys):
        # no decodable anti-Latin pair exists at d=2: a usage error with the
        # proof's size, not an exhausted budget
        code, _, err = run(capsys, "classify", "--family", "anti-latin",
                           "--d", "2", "--class", "passive")
        assert code == 2
        assert "no decodable anti-Latin pair exists for d=2" in err

    @pytest.mark.parametrize("argv", [
        ("antilatin", "maxset", "--d", "1"),
        ("antilatin", "maxset", "--d", "0"),
        ("antilatin", "maxset", "--d", "-1"),
        ("antilatin", "maxset", "--d", "0", "--method", "heuristic"),
        ("antilatin", "maxset", "--d", "1", "--method", "heuristic"),
    ])
    def test_maxset_d_below_two_is_2(self, capsys, argv):
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert "d must be >= 2" in err

    @pytest.mark.parametrize("d", ["0", "-1", "3,1"])
    def test_table_d_below_two_is_2(self, capsys, d):
        # refused before any row is classified, even after a valid d
        start = time.perf_counter()
        code, out, err = run(capsys, "classify", "--table", "--d", d)
        assert code == 2
        assert out == ""
        assert "d must be >= 2" in err
        assert time.perf_counter() - start < 5.0

    @pytest.mark.parametrize("d", ["7", "8", "2,7"])
    def test_table_d_past_the_map_cap_is_3(self, capsys, d):
        # the d^6 scalar-linear row would run for seconds before the
        # two-shot row hit the d^d map budget; the grid is refused first
        start = time.perf_counter()
        code, out, err = run(capsys, "classify", "--table", "--d", d)
        assert code == 3
        assert out == ""
        assert "budget" in err and "d > 6" in err
        assert time.perf_counter() - start < 5.0

    @pytest.mark.parametrize("argv, flag", [
        (("--family", "standard", "--d", "2", "--class", "active", "--format", "csv"),
         "--format csv"),
        (("--expect-table1",), "--expect-table1"),
        (("--table", "--family", "standard"), "--family"),
        (("--table", "--class", "passive"), "--class"),
    ])
    def test_flag_of_the_other_mode_is_2(self, capsys, argv, flag):
        # csv and the Table 1 check belong to --table; a family and a
        # class belong to the single verdict
        code, out, err = run(capsys, "classify", *argv)
        assert code == 2
        assert out == ""
        assert flag in err

    @pytest.mark.parametrize("layered", [
        "null", "[1]", '"k"', '{"k":2,"r":[1],"q":2}', '{"k":[[2]],"r":[1],"q":2}',
        '{"k":[2],"r":[1]}', '{"k":[2],"r":[1],"q":1e400}', '{"k":[2],"r":[1],"q":2,"c":null}',
        # int() would read these as other networks: two layers, and k=(2,), r=(1,), q=2
        '{"k":"22","r":"11","q":"3"}', '{"k":[2.7],"r":[1.9],"q":2.5}',
        '{"k":[true,2],"r":[0,1],"q":2}',
    ])
    def test_layered_json_of_the_wrong_shape_is_2(self, capsys, layered):
        code, out, err = run(capsys, "capacity", "--layered", layered)
        assert code == 2
        assert out == ""
        assert "layered network needs JSON like" in err

    @pytest.mark.parametrize("z, m", [("7", "0"), ("0", "-1")])
    def test_xi_outside_zd_is_2(self, capsys, tmp_path, z, m):
        a, b = reference_decodable_pair(3)
        pa, pb = tmp_path / "a.sq", tmp_path / "b.sq"
        pa.write_text(a.to_text())
        pb.write_text(b.to_text())
        code, out, err = run(capsys, "antilatin", "xi", "--a", str(pa),
                             "--b", str(pb), "--z", z, "--m", m)
        assert code == 2
        assert out == ""
        assert "range(3)" in err

    def test_argparse_rejects_unknown_command(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_mds_verify_expect_failure_is_1(self, capsys, tmp_path):
        path = tmp_path / "bad.mat"
        path.write_text("2 3 5\n1 1 0\n2 2 1\n")
        code, out, _ = run(capsys, "mds", "verify", "--file", str(path), "--expect")
        assert code == 1
        assert "not MDS" in out


class TestFileCommands:
    def test_mds_build_verify_round_trip(self, capsys, tmp_path):
        path = tmp_path / "gen.mat"
        code, _, _ = run(capsys, "mds", "build", "--k", "4", "--r", "2",
                         "--q", "7", "--out", str(path))
        assert code == 0
        code, out, _ = run(capsys, "mds", "verify", "--file", str(path),
                           "--format", "json")
        assert code == 0
        assert json.loads(out)["mds"] is True

    def test_antilatin_file_commands(self, capsys, tmp_path):
        a, b = reference_decodable_pair(3)
        pa, pb = tmp_path / "a.sq", tmp_path / "b.sq"
        pa.write_text(a.to_text())
        pb.write_text(b.to_text())
        code, out, _ = run(capsys, "antilatin", "verify", "--file", str(pa),
                           "--format", "json")
        assert code == 0 and json.loads(out)["anti_latin"] is True
        code, out, _ = run(capsys, "antilatin", "pair-check", "--a", str(pa),
                           "--b", str(pb), "--format", "json")
        data = json.loads(out)
        assert data["one_to_one"] and data["decodable"]
        code, out, _ = run(capsys, "antilatin", "xi", "--a", str(pa),
                           "--b", str(pb), "--z", "0", "--m", "0",
                           "--format", "json")
        assert code == 0
        expected = sorted({b.entry(l, l) for l in range(3) if a.entry(l, l) == 0})
        assert json.loads(out)["members"] == expected

    def test_builtin_network_names(self, capsys):
        code, out, _ = run(capsys, "mincut", "--net", "one-hop", "--format", "json")
        assert code == 0
        assert json.loads(out)["mincut1"] == 2

    def test_capacity_net_mode(self, capsys):
        code, out, _ = run(capsys, "capacity", "--net", "fig1", "--r", "2",
                           "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["C2"] == 0
        assert data["C1_bounds"] == [0, 1]


class TestSelftests:
    @pytest.mark.parametrize("argv", [
        ("classify", "--selftest"),
        ("antilatin", "verify", "--selftest"),
        ("antilatin", "xi", "--selftest"),
        ("antilatin", "pair-check", "--selftest"),
        ("antilatin", "find", "--selftest"),
        ("antilatin", "maxset", "--selftest"),
        ("capacity", "--selftest"),
        ("mincut", "--selftest"),
        ("mds", "build", "--selftest"),
        ("mds", "verify", "--selftest"),
        ("wiretap2", "--selftest"),
        ("han", "--selftest"),
    ])
    def test_selftests_pass(self, capsys, argv):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert "FAIL" not in out

    def test_failed_check_is_1_and_the_others_still_run(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "check_correctness", lambda code: False)
        code, out, _ = run(capsys, "classify", "--selftest")
        assert code == 1
        assert out == ("selftest scalar transcript: ok\n"
                       "selftest standard zero-scramble: ok\n"
                       "selftest built-ins correct: FAIL\n")


class TestParserCache:
    # main builds its parser once per process, so no call may leave state
    # in it that changes a later call

    def test_one_parser_per_process(self):
        assert cli.build_parser() is cli.build_parser()

    def test_golden_corpus_backwards_in_one_process(self, tmp_path, monkeypatch):
        # the corpus test runs the invocations in order; here each one
        # follows the invocations that come after it there
        corpus = json.loads(CORPUS.read_text(encoding="utf-8"))
        for i, entry in reversed(list(enumerate(corpus))):
            work = tmp_path / str(i)
            work.mkdir()
            write_inputs(work)
            monkeypatch.chdir(work)
            assert run_quietly(entry["argv"]) == (entry["exit"], entry["stdout"]), entry["argv"]

    def test_selftest_between_two_classify_calls(self, capsys):
        argv = ("classify", "--family", "anti-latin", "--d", "5", "--class",
                "adaptive-active", "--format", "json")
        first = run(capsys, *argv)
        assert run(capsys, "classify", "--selftest")[0] == 0
        assert run(capsys, *argv) == first


class TestHanCommand:
    def test_small_sweep_clean(self, capsys):
        code, out, _ = run(capsys, "han", "--k", "3", "--r", "2",
                           "--samples", "300", "--seed", "42", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["violations"] == 0
        assert data["min_slack"] >= -1e-9
