import argparse
import json
import os
import subprocess
import sys

import pytest

from rectcrys import cli, verify
from rectcrys.cache import PolynomialCache
from rectcrys.laurent import LaurentPolynomial
from rectcrys.verify import VerifyReport


SRC_ENV = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
COMPUTE_MODULES = (
    "tableaux", "crystal", "rsk", "affine", "rmatrix", "energy", "kpoly", "demazure", "verify", "cache"
)
# Runs the CLI on its arguments (none: only imports it) in a fresh
# interpreter and prints the modules that loaded to stderr.
LOADS = """
import sys
before = set(sys.modules)
from rectcrys import cli
if len(sys.argv) > 1:
    assert cli.main(sys.argv[1:]) == 0
print(" ".join(sorted(set(sys.modules) - before)), file=sys.stderr)
"""
# One of three cache writers: load the cache, wait for the others to load
# it too, then put distinct keys one by one.
WRITER = """
import os, sys, time
from rectcrys.cache import PolynomialCache
from rectcrys.laurent import LaurentPolynomial
directory, sync, name, count = sys.argv[1], sys.argv[2], sys.argv[3], int(sys.argv[4])
cache = PolynomialCache(directory=directory)
open(os.path.join(sync, name), "w").close()
while len(os.listdir(sync)) < 3:
    time.sleep(0.001)
for k in range(count):
    cache.put(name + str(k), LaurentPolynomial({k: 1}))
"""


def loaded_by(*argv):
    proc = subprocess.run(
        [sys.executable, "-c", LOADS, *argv], env=SRC_ENV, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    return set(proc.stderr.split())


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


def parser_ops():
    """Every (subcommand, op) that build_parser accepts; the verify suite is
    free text, so verify appears once, with op None."""
    sub = next(
        a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    for command, parser in sub.choices.items():
        first = next(a for a in parser._actions if not a.option_strings)
        for op in first.choices or (None,):
            yield command, op


# (subcommand, op) -> (the input file it reads or None, its other arguments)
EVERY_OP = {
    ("tableau", "insert"): ("word", []),
    ("tableau", "antinormal"): ("word", []),
    ("tableau", "word"): ("tableau", []),
    ("tableau", "key"): (None, ["--gamma", "0,3,3"]),
    ("crystal", "e"): ("element", ["--color", "1"]),
    ("crystal", "f"): ("element", ["--color", "0"]),
    ("crystal", "r"): ("element", ["--color", "2"]),
    ("crystal", "op"): ("element", ["--op", "e", "--color", "0"]),
    ("rsk", "pair"): ("element", []),
    ("rsk", "inverse"): ("pair", []),
    ("rsk", "lrt"): (None, ["--shape", "2,1", "--rects", "1x1,1x1,1x1"]),
    ("affine", "promote"): ("element", []),
    ("affine", "promote-inverse"): ("element", []),
    ("affine", "e0"): ("element", []),
    ("affine", "f0"): ("element", []),
    ("affine", "chi"): ("lr_word", ["--rects", "1x1,1x1"]),
    ("affine", "trace"): ("element", []),
    ("rmatrix", "swap"): ("element", ["--pos", "1"]),
    ("rmatrix", "compose"): ("element", ["--perm", "3,1,2"]),
    ("energy", "total"): ("element", []),
    ("energy", "local"): ("element", ["--pos", "2"]),
    ("energy", "charge"): ("tableau", []),
    ("kpoly", "compute"): (None, ["--shape", "2,1", "--rects", "1x1,1x1,1x1"]),
    ("kpoly", "kostka"): (None, ["--lambda", "2,1", "--mu", "1,1,1"]),
    ("kpoly", "character"): (None, ["--rects", "1x2,1x1"]),
    ("kpoly", "monotone"): (None, ["--shape", "2,1", "--rects", "1x1,1x1,1x1", "--k", "1", "--m", "1"]),
    ("demazure", "char"): (None, ["--n", "2", "--level", "1", "--mu", "1,1"]),
    ("verify", None): (None, ["rsk", "--n", "2", "--max-cells", "2"]),
}


@pytest.mark.parametrize("command, op", list(parser_ops()))
def test_every_op_runs(capsys, golden_files, tmp_path, command, op):
    """Each op answers a valid request with exit 0 and JSON lines."""
    assert (command, op) in EVERY_OP, "give the new op an input in EVERY_OP"
    source, extra = EVERY_OP[command, op]
    files = dict(
        golden_files,
        word=write_json(tmp_path, "w.json", {"word": [2, 1, 1]}),
        tableau=write_json(tmp_path, "t.json", {"rows": [[1, 1], [2]]}),
        lr_word=write_json(tmp_path, "lr.json", {"word": [2, 1]}),
    )
    argv = [] if source is None else ["--infile", files[source]]
    argv += [command] + ([] if op is None else [op]) + extra
    if command == "kpoly":
        argv += ["--cache-dir", str(tmp_path / "cache")]
    code, out = run_cli(capsys, argv)
    assert code == 0
    assert out
    for line in out.splitlines():
        json.loads(line)


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

    def test_non_object_file_recomputed(self, capsys, tmp_path):
        _, first = run_cli(capsys, self.args(tmp_path))
        (tmp_path / "kpoly.json").write_text("[]")
        code, again = run_cli(capsys, self.args(tmp_path))
        assert code == 0 and again == first

    def test_schema_bump_invalidates(self, capsys, tmp_path):
        _, first = run_cli(capsys, self.args(tmp_path))
        store = json.loads((tmp_path / "kpoly.json").read_text())
        store["schema"] = -1
        store["entries"] = {k: {"coeffs": {"9": 9}} for k in store["entries"]}
        (tmp_path / "kpoly.json").write_text(json.dumps(store))
        _, again = run_cli(capsys, self.args(tmp_path))
        assert again == first  # stale-schema entries are never served

    def test_concurrent_writers_keep_every_entry(self, tmp_path):
        # Both writers load the (empty) file before either writes; a writer
        # that rewrote the file from its own entries would drop the other's.
        cache_dir, sync = tmp_path / "cache", tmp_path / "sync"
        sync.mkdir()
        names = ("a", "b", "c")  # more writers than the two cores CI has
        writers = [
            subprocess.Popen(
                [sys.executable, "-c", WRITER, str(cache_dir), str(sync), name, "25"],
                env=SRC_ENV,
            )
            for name in names
        ]
        assert [w.wait(timeout=120) for w in writers] == [0] * len(names)
        cache = PolynomialCache(directory=str(cache_dir))
        for name in names:
            for k in range(25):
                assert cache.get(f"{name}{k}") == LaurentPolynomial({k: 1}), (name, k)


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

    def test_import_leaves_verify_out(self, golden_files, tmp_path):
        # A request loads only the modules its subcommand uses: importing the
        # CLI loads no compute module (nor dataclasses), a single-element
        # request no Kostka, Demazure or cache code, a cache hit no
        # Kostka polynomial code at all.
        compute = {f"rectcrys.{m}" for m in COMPUTE_MODULES}
        loaded = loaded_by()
        assert not loaded & (compute | {"dataclasses"}), loaded
        for command in (["affine", "promote"], ["rsk", "pair"], ["rmatrix", "swap"], ["energy", "total"]):
            loaded = loaded_by("--infile", golden_files["element"], *command)
            assert not loaded & {"rectcrys.kpoly", "rectcrys.demazure", "rectcrys.cache"}, (command, loaded)
        request = ["kpoly", "compute", "--shape", "2,1", "--rects", "1x1,1x1,1x1", "--cache-dir", str(tmp_path)]
        assert cli.main(request) == 0
        loaded = loaded_by(*request)
        assert "rectcrys.cache" in loaded
        assert not loaded & {"rectcrys.kpoly", "rectcrys.energy", "rectcrys.rsk", "rectcrys.rmatrix"}, loaded

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
