import json
import time

import pytest

from wiretaplab.anti_latin import reference_decodable_pair
from wiretaplab.cli import main


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

    def test_two_shot_active_budget_is_3(self, capsys):
        code, _, err = run(capsys, "classify", "--family", "vector-linear",
                           "--d", "7", "--class", "adaptive-active")
        assert code == 3
        assert "budget" in err

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
        # 11^6 codewords x C(6, 3) tap subsets: minutes of work, refused
        # before the first codeword
        start = time.perf_counter()
        code, out, err = run(capsys, "wiretap2", "--q", "11", "--k", "6", "--r", "3")
        assert code == 3
        assert "budget" in err and "tap subsets" in err
        assert out == ""
        assert time.perf_counter() - start < 5.0

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


class TestHanCommand:
    def test_small_sweep_clean(self, capsys):
        code, out, _ = run(capsys, "han", "--k", "3", "--r", "2",
                           "--samples", "300", "--seed", "42", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["violations"] == 0
        assert data["min_slack"] >= -1e-9
