import json
import os
import subprocess
import sys

import pytest

from rectcrys import cli, verify
from rectcrys.verify import VerifyReport


def run_cli(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out.strip()
    return code, out


def write_json(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


@pytest.fixture()
def golden_files(tmp_path, golden):
    element = {"rects": golden["rects"], "factors": golden["b"]}
    return {
        "element": write_json(tmp_path, "b.json", element),
        "pair": write_json(
            tmp_path,
            "pair.json",
            {"rects": golden["rects"], "p": golden["p"], "q": golden["q"]},
        ),
    }


class TestRoundTrips:
    def test_kostka_example(self, capsys):
        code, out = run_cli(
            capsys, ["kpoly", "kostka", "--lambda", "2,1", "--mu", "1,1,1", "--no-cache"]
        )
        assert code == 0
        assert json.loads(out) == {"coeffs": {"1": 1, "2": 1}}

    def test_affine_e0_golden(self, capsys, golden, golden_files):
        code, out = run_cli(
            capsys, ["--infile", golden_files["element"], "affine", "e0"]
        )
        assert code == 0
        assert json.loads(out)["factors"] == golden["e0_b"]

    def test_rsk_pair_and_inverse(self, capsys, golden, golden_files, tmp_path):
        code, out = run_cli(capsys, ["--infile", golden_files["element"], "rsk", "pair"])
        assert code == 0
        pair = json.loads(out)
        assert pair["p"] == golden["p"] and pair["q"] == golden["q"]
        code, out = run_cli(capsys, ["--infile", golden_files["pair"], "rsk", "inverse"])
        assert code == 0
        assert json.loads(out)["factors"] == golden["b"]

    def test_crystal_op(self, capsys, tmp_path):
        element = {
            "rects": [[1, 1], [1, 1]],
            "factors": [
                {"inner": [], "outer": [1], "rows": [[1]]},
                {"inner": [], "outer": [1], "rows": [[1]]},
            ],
        }
        path = write_json(tmp_path, "el.json", element)
        code, out = run_cli(
            capsys, ["--infile", path, "crystal", "f", "--color", "1"]
        )
        assert code == 0
        assert json.loads(out)["factors"][0]["rows"] == [[2]]
        code, out = run_cli(
            capsys, ["--infile", path, "crystal", "e", "--color", "1"]
        )
        assert code == 0
        assert json.loads(out) is None

    def test_rmatrix_swap(self, capsys, golden, golden_files):
        code, out = run_cli(
            capsys, ["--infile", golden_files["element"], "rmatrix", "swap", "--pos", "2"]
        )
        assert code == 0
        data = json.loads(out)
        assert data["rects"] == golden["tau2_rects"]
        assert data["factors"] == golden["tau2_b"]

    def test_energy_total(self, capsys, golden_files):
        code, out = run_cli(
            capsys, ["--infile", golden_files["element"], "energy", "total"]
        )
        assert code == 0
        data = json.loads(out)
        assert data["energy"] == 3
        assert [t[2] for t in data["terms"]] == [1, 2, 0]

    def test_demazure_char(self, capsys):
        code, out = run_cli(
            capsys, ["demazure", "char", "--n", "2", "--level", "1", "--mu", "1,1"]
        )
        assert code == 0
        data = json.loads(out)
        assert data["terms"] == [
            {"shape": [1, 1], "coeffs": {"0": 1}},
            {"shape": [2], "coeffs": {"1": 1}},
        ]

    def test_lrt_streaming(self, capsys):
        code, out = run_cli(
            capsys, ["rsk", "lrt", "--shape", "2,1", "--rects", "1x1,1x1,1x1"]
        )
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 2
        assert all(json.loads(line)["outer"] == [2, 1] for line in lines)

    def test_affine_trace(self, capsys, golden, golden_files):
        code, out = run_cli(
            capsys, ["--infile", golden_files["element"], "affine", "trace"]
        )
        assert code == 0
        data = json.loads(out)
        assert data["trace"]["removed_strip"] == golden["removed_strip"]
        assert data["trace"]["ejected"] == golden["ejected"]
        assert data["q"] == golden["q_pr"]

    def test_energy_local(self, capsys, golden_files):
        code, out = run_cli(
            capsys,
            ["--infile", golden_files["element"], "energy", "local", "--pos", "1"],
        )
        assert code == 0
        assert json.loads(out)["energy"] == 1

    def test_kpoly_character(self, capsys):
        code, out = run_cli(
            capsys, ["kpoly", "character", "--rects", "1x2,1x1,1x1", "--no-cache"]
        )
        assert code == 0
        terms = json.loads(out)["terms"]
        assert {tuple(t["shape"]): t["coeffs"] for t in terms} == {
            (2, 1, 1): {"0": 1},
            (2, 2): {"1": 1},
            (3, 1): {"1": 1, "2": 1},
            (4,): {"3": 1},
        }

    def test_tableau_ops(self, capsys, tmp_path):
        path = write_json(tmp_path, "w.json", {"word": [2, 1, 1]})
        code, out = run_cli(capsys, ["--infile", path, "tableau", "insert"])
        assert code == 0
        assert json.loads(out)["rows"] == [[1, 1], [2]]
        code, out = run_cli(capsys, ["tableau", "key", "--gamma", "0,3,3"])
        assert json.loads(out)["rows"] == [[2, 2, 2], [3, 3, 3]]


class TestCache:
    def args(self, tmp_path, extra=()):
        return [
            "kpoly",
            "compute",
            "--shape",
            "2,1",
            "--rects",
            "1x1,1x1,1x1",
            "--cache-dir",
            str(tmp_path),
            *extra,
        ]

    def test_cold_then_warm(self, capsys, tmp_path):
        code, cold = run_cli(capsys, self.args(tmp_path))
        assert code == 0
        assert (tmp_path / "kpoly.json").exists()
        code, warm = run_cli(capsys, self.args(tmp_path))
        assert warm == cold

    def test_disabled_identical(self, capsys, tmp_path):
        _, cached = run_cli(capsys, self.args(tmp_path))
        _, plain = run_cli(capsys, self.args(tmp_path, ("--no-cache",)))
        assert cached == plain

    def test_corrupt_entries_recomputed(self, capsys, tmp_path):
        _, first = run_cli(capsys, self.args(tmp_path))
        store = json.loads((tmp_path / "kpoly.json").read_text())
        for k in store["entries"]:
            store["entries"][k] = {"bogus": 1}
        (tmp_path / "kpoly.json").write_text(json.dumps(store))
        _, again = run_cli(capsys, self.args(tmp_path))
        assert again == first

    def test_schema_bump_invalidates(self, capsys, tmp_path):
        _, first = run_cli(capsys, self.args(tmp_path))
        store = json.loads((tmp_path / "kpoly.json").read_text())
        store["schema"] = -1
        store["entries"] = {k: {"coeffs": {"9": 9}} for k in store["entries"]}
        (tmp_path / "kpoly.json").write_text(json.dumps(store))
        _, again = run_cli(capsys, self.args(tmp_path))
        assert again == first  # stale-schema entries are never served


class TestVerifyCommand:
    def test_small_suite_passes(self, capsys):
        code, out = run_cli(
            capsys, ["verify", "charge-energy", "--n", "3", "--max-cells", "5"]
        )
        assert code == 0
        reports = json.loads(out)
        assert reports[0]["failures"] == []

    def test_main_theorem(self, capsys):
        code, out = run_cli(
            capsys,
            ["verify", "main-theorem", "--n", "2", "--level", "1", "--mu", "1,1"],
        )
        assert code == 0

    def test_failure_exit_code(self, capsys, monkeypatch):
        def fake(n, cells, jobs=1):
            return VerifyReport(
                suite="charge-energy",
                instances=1,
                failures=[{"instance": {}, "expected": 0, "actual": 1}],
            )

        monkeypatch.setitem(verify.SUITES, "charge-energy", fake)
        code, _ = run_cli(
            capsys, ["verify", "charge-energy", "--n", "2", "--max-cells", "2"]
        )
        assert code == 1

    def test_import_leaves_verify_out(self):
        # the suites load only when a verify command runs
        code = "import sys, rectcrys.cli; sys.exit('rectcrys.verify' in sys.modules)"
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0

    def test_missing_bounds_usage_error(self):
        with pytest.raises(SystemExit) as err:
            cli.main(["verify", "charge-energy", "--n", "3"])
        assert err.value.code == 2

    def test_bad_json_usage_error(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("not json")
        code = cli.main(["--infile", str(path), "rsk", "pair"])
        assert code == 2


class TestMalformedInput:
    """Malformed input ends with exit code 2 and a message, never a
    traceback or a silent answer."""

    def run_usage_error(self, capsys, argv):
        code = cli.main(argv)
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("usage error:")
        return err

    def test_json_array_rejected(self, capsys, tmp_path, golden):
        path = write_json(
            tmp_path, "arr.json", [{"rects": golden["rects"], "factors": golden["b"]}]
        )
        err = self.run_usage_error(capsys, ["--infile", path, "affine", "promote"])
        assert "expected a JSON object" in err

    @pytest.mark.parametrize("command", [["rmatrix", "swap"], ["energy", "local"]])
    @pytest.mark.parametrize("pos", [3, 4, 10])
    def test_pos_past_last_pair(self, capsys, golden_files, command, pos):
        # the golden element has three factors: pairs at positions 1 and 2
        argv = ["--infile", golden_files["element"], *command, "--pos", str(pos)]
        assert "--pos must be in 1..2" in self.run_usage_error(capsys, argv)

    @pytest.mark.parametrize("command", [["rmatrix", "swap"], ["energy", "local"]])
    @pytest.mark.parametrize("pos", [0, -1])
    def test_pos_not_positive(self, capsys, golden_files, command, pos):
        argv = ["--infile", golden_files["element"], *command, "--pos", str(pos)]
        assert "--pos must be in 1..2" in self.run_usage_error(capsys, argv)

    @pytest.mark.parametrize("op", ["e", "f", "r"])
    @pytest.mark.parametrize("color", [-1, 7, 9])
    def test_color_out_of_range(self, capsys, golden_files, golden_seq, op, color):
        # colors -1, n and n + 2 for the seven-letter golden element
        assert golden_seq.n == 7
        argv = ["--infile", golden_files["element"], "crystal", op, "--color", str(color)]
        assert "--color must be in 0..6" in self.run_usage_error(capsys, argv)

    def test_unknown_suite(self, capsys):
        argv = ["verify", "no-such-suite", "--n", "3", "--max-cells", "4"]
        err = self.run_usage_error(capsys, argv)
        assert "unknown suite 'no-such-suite'" in err
        for name in [*verify.SUITES, "all", "main-theorem"]:
            assert name in err

    @pytest.mark.parametrize("jobs", [0, -1])
    def test_jobs_not_positive(self, capsys, jobs):
        argv = ["verify", "charge-energy", "--n", "2", "--max-cells", "2"]
        with pytest.raises(SystemExit) as err:
            cli.main([*argv, "--jobs", str(jobs)])
        assert err.value.code == 2
        assert "--jobs must be at least 1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["demazure", "char", "--n", "0", "--level", "1", "--mu", ""],
            ["verify", "main-theorem", "--n", "0", "--level", "1"],
            ["demazure", "char", "--n", "1", "--level", "1", "--mu", "1"],
            ["verify", "main-theorem", "--n", "1", "--level", "1"],
        ],
    )
    def test_alphabet_too_small(self, capsys, argv):
        assert "--n must be at least 2" in self.run_usage_error(capsys, argv)

    @pytest.mark.parametrize("command", ["demazure char", "verify main-theorem"])
    def test_mu_not_partition_of_n(self, capsys, command):
        argv = [*command.split(), "--n", "3", "--level", "1", "--mu", "2,2"]
        assert "--mu must be a partition of 3" in self.run_usage_error(capsys, argv)

    @pytest.mark.parametrize("position", [-1, 3, 9])
    def test_position_out_of_range(self, capsys, position):
        argv = ["kpoly", "monotone", "--shape", "2,1", "--rects", "1x2,1x1"]
        argv += ["--k", "1", "--m", "1", "--position", str(position)]
        assert "position must be in 0..2" in self.run_usage_error(capsys, argv)
