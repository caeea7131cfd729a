import argparse
import json
import os
import resource
import subprocess
import sys
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rectcrys import cache, cli, energy, kpoly, verify
from rectcrys.cache import PolynomialCache
from rectcrys.crystal import RectSequence
from rectcrys.kpoly import k_polynomial, kostka_foulkes
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

    def test_wide_rectangles(self, capsys):
        # one-row rectangles wider than the recursion limit: each letter is
        # placed as one strip, not one call per cell
        for shape, rects, coeffs in (("1100", "1x1100", {"0": 1}), ("1400,800", "1x1100,1x1100", {"300": 1})):
            code, out = run_cli(capsys, ["kpoly", "compute", "--shape", shape, "--rects", rects, "--no-cache"])
            assert code == 0 and json.loads(out) == {"coeffs": coeffs}, out

    def test_one_shape_route_matches_k_polynomial(self, capsys, monkeypatch):
        # a one-shot request walks its shape alone, never the per-R map,
        # tableaux or energy pass that k_polynomial and kostka_foulkes read;
        # 3x1,1x3,1x3 has no real switch, so the pinned column walk runs
        rects = "1x3,2x2,1x2,2x1,1x1,1x2"
        seq = RectSequence([(1, 3), (2, 2), (1, 2), (2, 1), (1, 1), (1, 2)])
        requests = [
            (["compute", "--shape", shape, "--rects", rects], lambda lam=lam: k_polynomial(lam, seq))
            for shape, lam in (("6,4,2,1,1", (6, 4, 2, 1, 1)), ("7,4,2,1", (7, 4, 2, 1)), ("3,3,3,3,2", (3, 3, 3, 3, 2)))
        ] + [
            (["kostka", "--lambda", "4,2,1", "--mu", "3,2,1,1"], lambda: kostka_foulkes((4, 2, 1), (3, 2, 1, 1))),
            (["kostka", "--lambda", "5,3,1", "--mu", "3,2,2,2"], lambda: kostka_foulkes((5, 3, 1), (3, 2, 2, 2))),
            (
                ["compute", "--shape", "4,3,1,1", "--rects", "3x1,1x3,1x3"],
                lambda: k_polynomial((4, 3, 1, 1), RectSequence([(3, 1), (1, 3), (1, 3)])),
            ),
        ]
        energy._lrt_energies.cache_clear()
        for args, want in requests:
            with monkeypatch.context() as patched:
                for module, name in ((energy, "_lrt_energies"), (kpoly, "_k_counts")):
                    patched.setattr(module, name, None)
                code, out = run_cli(capsys, ["kpoly", *args, "--no-cache"])
            assert code == 0 and LaurentPolynomial.from_json(json.loads(out)) == want(), args
        assert energy._lrt_energies.cache_info().currsize == 0

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
        # a walk pinned to the shape: the per-R tableau memo is never filled
        energy._lrt_energies.cache_clear()
        code, out = run_cli(
            capsys, ["rsk", "lrt", "--shape", "2,1", "--rects", "1x1,1x1,1x1"]
        )
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 2
        assert all(json.loads(line)["outer"] == [2, 1] for line in lines)
        code, out = run_cli(capsys, ["rsk", "lrt", "--shape", "1500,1500", "--rects", "1x1500,1x1500"])
        assert code == 0 and [json.loads(line)["rows"] for line in out.splitlines()] == [[[1] * 1500, [2] * 1500]]
        assert energy._lrt_energies.cache_info().currsize == 0

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

    def entry(self, tmp_path):
        """The fixture request's entry file: n = 3, lambda = (2, 1), R = (1x1)^3."""
        return tmp_path / "kpoly-v2" / "3_2.1_1x1.1x1.1x1.json"

    def test_cold_then_warm(self, capsys, tmp_path):
        code, cold = run_cli(capsys, self.args(tmp_path))
        assert code == 0
        # the entry alone: no lock file and no temporary file left behind
        assert [p for p in tmp_path.rglob("*") if p.is_file()] == [self.entry(tmp_path)]
        code, warm = run_cli(capsys, self.args(tmp_path))
        assert warm == cold

    def test_disabled_identical(self, capsys, tmp_path):
        _, cached = run_cli(capsys, self.args(tmp_path))
        _, plain = run_cli(capsys, self.args(tmp_path, ("--no-cache",)))
        assert cached == plain

    def test_no_cache_loads_no_cache_module(self, tmp_path):
        # --no-cache neither reads nor writes the cache, so it never loads it
        directory = tmp_path / "absent"
        loaded = loaded_by(*self.args(directory, ("--no-cache",)))
        assert "rectcrys.kpoly" in loaded and "rectcrys.cache" not in loaded, loaded
        assert not directory.exists()

    def test_corrupt_entries_recomputed(self, capsys, tmp_path):
        _, first = run_cli(capsys, self.args(tmp_path))
        for path in (tmp_path / "kpoly-v2").iterdir():
            path.write_text(json.dumps({"bogus": 1}))
        _, again = run_cli(capsys, self.args(tmp_path))
        assert again == first

    @pytest.mark.parametrize("coeffs", [[1, 2], {"1": 1.5}, {"1": 0}], ids=["list", "float", "zero"])
    def test_malformed_entry_recomputed(self, capsys, tmp_path, coeffs):
        # a list, a fractional and a zero coefficient: each entry is reported
        # and the polynomial, q + q^2, recomputed and stored over it, never
        # served truncated
        run_cli(capsys, self.args(tmp_path))
        self.entry(tmp_path).write_text(json.dumps({"coeffs": coeffs}))
        code = cli.main(self.args(tmp_path))
        out, err = capsys.readouterr()
        assert code == 0 and json.loads(out) == {"coeffs": {"1": 1, "2": 1}}
        assert "corrupt cache entry" in err
        assert json.loads(self.entry(tmp_path).read_text()) == {"coeffs": {"1": 1, "2": 1}}

    def test_non_object_file_recomputed(self, capsys, tmp_path):
        _, first = run_cli(capsys, self.args(tmp_path))
        self.entry(tmp_path).write_text("[]")
        code, again = run_cli(capsys, self.args(tmp_path))
        assert code == 0 and again == first

    def test_schema_bump_invalidates(self, capsys, tmp_path, monkeypatch):
        _, first = run_cli(capsys, self.args(tmp_path))
        self.entry(tmp_path).write_text(json.dumps({"coeffs": {"9": 9}}))
        monkeypatch.setattr(cache, "SCHEMA_VERSION", cache.SCHEMA_VERSION + 1)
        _, again = run_cli(capsys, self.args(tmp_path))
        assert again == first  # stale-schema entries are never served
        assert (tmp_path / f"kpoly-v{cache.SCHEMA_VERSION}").is_dir()

    def test_legacy_file_ignored(self, capsys, tmp_path):
        # the single-file cache of schema 1, with a wrong entry for the
        # fixture request, is neither served nor reported nor touched
        legacy = tmp_path / "kpoly.json"
        key = json.dumps([3, [2, 1], [[1, 1], [1, 1], [1, 1]]], separators=(",", ":"))
        legacy.write_text(json.dumps({"schema": 1, "entries": {key: {"coeffs": {"9": 9}}}}))
        text = legacy.read_text()
        code = cli.main(self.args(tmp_path))
        out, err = capsys.readouterr()
        assert code == 0 and json.loads(out) == {"coeffs": {"1": 1, "2": 1}} and err == ""
        assert legacy.read_text() == text

    def test_put_leaves_other_entries_untouched(self, tmp_path):
        # a write touches its own entry alone: every file already in the
        # cache keeps its bytes and its (back-dated) mtime
        store = PolynomialCache(directory=str(tmp_path))
        for k in range(3):
            store.put(f"k{k}", LaurentPolynomial({k: 1}))
        files = [p for p in tmp_path.rglob("*") if p.is_file()]
        for path in files:
            os.utime(path, ns=(10**18, 10**18))
        before = {path: (path.read_bytes(), path.stat().st_mtime_ns) for path in files}
        store.put("k3", LaurentPolynomial({3: 1}))
        assert {path: (path.read_bytes(), path.stat().st_mtime_ns) for path in files} == before
        assert [store.get(f"k{k}") for k in range(4)] == [LaurentPolynomial({k: 1}) for k in range(4)]

    def test_unusable_entry_reported(self, capsys, tmp_path):
        # an entry that can be neither read nor replaced (here a directory)
        # is reported both times; the answer stands and the write's
        # temporary file is removed
        self.entry(tmp_path).mkdir(parents=True)
        code = cli.main(self.args(tmp_path))
        out, err = capsys.readouterr()
        assert code == 0 and json.loads(out) == {"coeffs": {"1": 1, "2": 1}}
        assert "cache unreadable" in err and "cache write failed" in err
        assert list((tmp_path / "kpoly-v2").iterdir()) == [self.entry(tmp_path)]

    def test_corrupt_entry_spares_other_keys(self, capsys, tmp_path):
        # a hit on one key neither reads, reports nor mends another's entry
        other = [*self.args(tmp_path)[:3], "3", *self.args(tmp_path)[4:]]
        run_cli(capsys, self.args(tmp_path))
        _, first = run_cli(capsys, other)
        self.entry(tmp_path).write_text("not json")
        code = cli.main(other)
        out, err = capsys.readouterr()
        assert code == 0 and out.strip() == first and err == ""
        assert self.entry(tmp_path).read_text() == "not json"

    def test_long_key_cached_under_its_digest(self, capsys, tmp_path):
        # seventy 1x1 rectangles give a key too long for a file name: the
        # entry is named by its digest and holds the key, and the second
        # request is a hit, with the same answer and nothing on stderr
        args = ["kpoly", "compute", "--shape", "70", "--rects", ",".join(["1x1"] * 70), "--cache-dir", str(tmp_path)]
        answers = []
        for _ in range(2):
            code = cli.main(args)
            out, err = capsys.readouterr()
            assert code == 0 and err == ""
            answers.append(out)
        assert answers[0] == answers[1] and json.loads(answers[0]) == {"coeffs": {"2415": 1}}
        key = cache.cache_key(70, (70,), [(1, 1)] * 70)
        (entry,) = (tmp_path / "kpoly-v2").iterdir()
        assert len(key) > cache.MAX_NAMED_KEY and len(entry.name) < 80
        assert json.loads(entry.read_text()) == {"key": key, "coeffs": {"2415": 1}}
        assert "rectcrys.kpoly" not in loaded_by(*args)

    def test_digest_entry_of_another_key_recomputed(self, capsys, tmp_path):
        # a digest-named entry is served only for the key it holds
        store = PolynomialCache(directory=str(tmp_path))
        key = "9_" + "1x1." * 60 + "1x1"
        store.put(key, LaurentPolynomial({1: 1}))
        assert store.get(key) == LaurentPolynomial({1: 1})
        (entry,) = (tmp_path / "kpoly-v2").iterdir()
        entry.write_text(json.dumps({"key": key + ".1x1", "coeffs": {"1": 1}}))
        assert store.get(key) is None
        assert "corrupt cache entry" in capsys.readouterr().err

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

    def test_reordered_rects_share_an_entry(self, capsys, tmp_path):
        # K_{lambda;R}(q) does not depend on the order of R: a second order
        # of one R is a hit, answered without the Kostka code
        first = ["kpoly", "compute", "--shape", "3,2,1", "--rects", "1x2,2x1,1x2", "--cache-dir", str(tmp_path)]
        second = [*first[:5], "2x1,1x2,1x2", *first[6:]]
        _, cold = run_cli(capsys, first)
        _, warm = run_cli(capsys, second)
        assert warm == cold and [p.name for p in (tmp_path / "kpoly-v2").iterdir()] == ["4_3.2.1_1x2.1x2.2x1.json"]
        assert "rectcrys.kpoly" not in loaded_by(*second)

    @pytest.mark.parametrize("xdg", ["", "relative"])
    def test_empty_or_relative_xdg_cache_home_ignored(self, capsys, tmp_path, monkeypatch, xdg):
        # the XDG Base Directory spec treats both as unset: the cache goes to
        # ~/.cache/rectcrys, never under the working directory
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        monkeypatch.delenv(cache.ENV_CACHE_DIR, raising=False)
        monkeypatch.setenv("HOME", str(tmp_path))
        monkeypatch.setenv("XDG_CACHE_HOME", xdg)
        assert cache.default_cache_dir() == str(tmp_path / ".cache" / "rectcrys")
        assert cli.main(self.args(tmp_path)[:6]) == 0
        capsys.readouterr()
        assert not list(work.iterdir())
        assert self.entry(tmp_path / ".cache" / "rectcrys").exists()


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

    def test_large_n_with_few_cells(self, capsys):
        # no alphabet past max_cells holds a sequence: --n 30 stops at n = 3
        reports = []
        for n in ("30", "3"):
            code, out = run_cli(capsys, ["verify", "crystal-axioms", "--n", n, "--max-cells", "3"])
            assert code == 0
            reports.append([{k: v for k, v in r.items() if k != "elapsed_ms"} for r in json.loads(out)])
        assert reports[0] == reports[1] and reports[0][0]["instances"]

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
        # Kostka polynomial code at all, and a computing request no
        # dataclasses.
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
        miss = ["kpoly", "compute", "--shape", "2,1", "--rects", "1x1,1x1,1x1", "--cache-dir", str(tmp_path / "miss")]
        demazure = ["demazure", "char", "--n", "3", "--level", "1", "--mu", "2,1"]
        for command, module in ((miss, "rectcrys.kpoly"), (demazure, "rectcrys.demazure")):
            loaded = loaded_by(*command)
            assert module in loaded and "dataclasses" not in loaded, (command, loaded)

    def test_missing_bounds_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            cli.main(["verify", "charge-energy", "--n", "3"])
        assert err.value.code == 2
        assert "--max-cells is required for exhaustive suites" in capsys.readouterr().err

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

    def test_reflection_at_color_zero(self, capsys, golden_files):
        # r has no affine color: a usage error, not a failed check (exit 1)
        argv = ["--infile", golden_files["element"], "crystal", "r", "--color", "0"]
        assert "reflection needs a classical color, --color in 1..6" in self.run_usage_error(capsys, argv)

    @pytest.mark.parametrize("op", ["insert", "antinormal"])
    @pytest.mark.parametrize("word", [[0, 1], [-3], [2, 1, 0]])
    def test_letter_below_one(self, op, word):
        code, err = _main_on_stdin(["tableau", op], json.dumps({"word": word}))
        assert code == 2 and err.startswith("usage error:") and "letters must be >= 1" in err

    def test_inner_longer_than_rows(self):
        text = json.dumps({"rows": [[1, 2]], "inner": [1, 1, 1]})
        code, err = _main_on_stdin(["tableau", "word"], text)
        assert code == 2 and err.startswith("usage error:") and "more rows" in err

    def test_crystal_op_alias_gone(self, capsys):
        # `crystal e|f|r` is the one spelling of an operator
        with pytest.raises(SystemExit) as err:
            cli.main(["crystal", "op", "--color", "1"])
        assert err.value.code == 2
        assert "invalid choice: 'op'" in capsys.readouterr().err

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

    @pytest.mark.parametrize("cells", [0, -1])
    def test_max_cells_not_positive(self, capsys, cells):
        with pytest.raises(SystemExit) as err:
            cli.main(["verify", "rsk", "--n", "3", "--max-cells", str(cells)])
        assert err.value.code == 2
        err = capsys.readouterr().err
        assert f"--max-cells must be at least 1, got {cells}" in err
        assert "required" not in err

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

    def test_monotone_shape_of_wrong_size(self, capsys):
        argv = ["kpoly", "monotone", "--shape", "5", "--rects", "1x2,1x1", "--k", "1", "--m", "1"]
        assert "|(5,)| != 3 cells of R" in self.run_usage_error(capsys, argv)

    def test_chi_of_the_empty_word(self):
        # the empty word is no R-LR word, like every other word of wrong content
        code, err = _main_on_stdin(["affine", "chi", "--rects", "1x2,1x1"], json.dumps({"word": []}))
        assert code == 1 and "chi requires an R-LR word" in err


# ---------------------------------------------------------------------------
# The JSON boundary, by generated input.

def _element_json(rects, picks):
    """The JSON of the element of B^rects whose factors are the given
    positions (mod the count) in enumerate_cst order."""
    from rectcrys.tableaux import enumerate_cst

    n = sum(eta for eta, _ in rects)
    factors = []
    for (eta, mu), pick in zip(rects, picks):
        tableaux = list(enumerate_cst((mu,) * eta, n))
        factors.append(tableaux[pick % len(tableaux)].to_json())
    return {"rects": [list(r) for r in rects], "factors": factors}


rect_lists = st.lists(
    st.tuples(st.integers(1, 2), st.integers(1, 3)), min_size=1, max_size=3
)
elements_json = st.builds(
    _element_json, rect_lists, st.lists(st.integers(0, 50), min_size=3, max_size=3)
)
words = st.lists(st.integers(1, 5), max_size=8)
small_dicts = st.dictionaries(st.text(max_size=2), st.integers(), max_size=2)
# JSON values of any type but the key's own
OTHER_TYPES = {
    list: st.one_of(
        st.none(), st.booleans(), st.integers(-3, 9), st.floats(allow_nan=False),
        st.text(max_size=3), small_dicts,
    ),
    int: st.one_of(
        st.none(), st.booleans(), st.floats(allow_nan=False), st.text(max_size=3),
        st.lists(st.integers(), max_size=2), small_dicts,
    ),
    dict: st.one_of(
        st.none(), st.booleans(), st.integers(-3, 9), st.text(max_size=3),
        st.lists(st.integers(), max_size=2),
    ),
}


def _paths(data, path=()):
    """Paths to every value below the top of a JSON document."""
    if isinstance(data, dict):
        items = data.items()
    else:
        items = enumerate(data) if isinstance(data, list) else ()
    for key_, value in items:
        yield path + (key_,)
        yield from _paths(value, path + (key_,))


def _replaced(data, path, value):
    data = json.loads(json.dumps(data))
    node = data
    for key_ in path[:-1]:
        node = node[key_]
    node[path[-1]] = value
    return data


def _main_on_stdin(argv, text):
    from contextlib import redirect_stderr, redirect_stdout
    from io import StringIO
    from unittest import mock

    out, err = StringIO(), StringIO()
    with mock.patch("sys.stdin", StringIO(text)), redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue()


ELEMENT_COMMANDS = [
    ["affine", "promote"], ["crystal", "f", "--color", "1"], ["rsk", "pair"], ["energy", "total"]
]


class TestJsonBoundary:
    """Tableaux and elements survive to_json -> from_json, and malformed
    stdin always ends with exit code 2 and a message, never a traceback."""

    @settings(max_examples=60, deadline=None)
    @given(words, st.booleans())
    def test_tableau_round_trip(self, word, skew):
        from rectcrys.tableaux import Tableau, antinormal, column_insert

        t = (antinormal if skew else column_insert)(word, n=5)
        back = Tableau.from_json(json.loads(json.dumps(t.to_json())), n=5)
        assert back == t and back.n == t.n

    @settings(max_examples=60, deadline=None)
    @given(elements_json)
    def test_element_round_trip(self, data):
        from rectcrys.crystal import CrystalElement

        b = CrystalElement.from_json(data)
        assert CrystalElement.from_json(json.loads(json.dumps(b.to_json()))) == b

    def assert_usage_error(self, argv, text):
        code, err = _main_on_stdin(argv, text)
        assert code == 2, (argv, text, err)
        assert err.startswith("usage error:") and "Traceback" not in err

    @settings(max_examples=60, deadline=None)
    @given(elements_json, st.sampled_from(ELEMENT_COMMANDS), st.data())
    def test_truncated_json(self, data, argv, draw):
        text = json.dumps(data)
        self.assert_usage_error(argv, text[: draw.draw(st.integers(0, len(text) - 1))])

    @settings(max_examples=150, deadline=None)
    @given(
        st.one_of(
            st.tuples(elements_json, st.sampled_from(ELEMENT_COMMANDS)),
            st.tuples(
                elements_json.map(lambda d: d["factors"][0]),
                st.sampled_from([["tableau", "word"], ["energy", "charge"]]),
            ),
            st.tuples(words.map(lambda w: {"word": w}), st.just(["tableau", "insert"])),
        ),
        st.data(),
    )
    def test_wrong_type(self, case, draw):
        data, argv = case
        path = draw.draw(st.sampled_from(list(_paths(data))))
        node = data
        for key_ in path:
            node = node[key_]
        value = draw.draw(OTHER_TYPES[type(node)])
        self.assert_usage_error(argv, json.dumps(_replaced(data, path, value)))

    def test_large_rectangle_rejected_before_its_alphabet(self):
        # 60 bytes claim a 2,000,000-row rectangle but give one row: the
        # shape check refuses it before the alphabet of 2,000,000 letters is
        # built, so the message is short and the peak memory hardly grows.
        # ru_maxrss cannot grow once an earlier test set a higher peak, so
        # the allocations are also traced.
        text = json.dumps({"rects": [[2000000, 1]], "factors": [{"rows": [[1]]}]})
        before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        tracemalloc.start()
        try:
            code, err = _main_on_stdin(["affine", "promote"], text)
            traced_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        growth_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before
        assert code == 2 and len(err) < 200, err[:200]
        assert "2000000x1" in err
        assert growth_kb < 5 * 1024 and traced_peak < 5 * 2**20

    def test_large_rectangle_on_the_command_line(self):
        # the same height as a --rects flag: RectSequence keeps per-rectangle
        # data only, so the size check refuses the request before anything
        # is built per letter
        argv = ["kpoly", "compute", "--rects", "2000000x1", "--shape", "1", "--no-cache"]
        before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        tracemalloc.start()
        try:
            code, err = _main_on_stdin(argv, "")
            traced_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        growth_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before
        assert code == 2 and len(err) < 200, err[:200]
        assert "2000000 cells of R" in err
        assert growth_kb < 5 * 1024 and traced_peak < 5 * 2**20

    @settings(max_examples=60, deadline=None)
    @given(elements_json, st.sampled_from(ELEMENT_COMMANDS), st.integers(1, 3), st.data())
    def test_letter_beyond_n(self, data, argv, excess, draw):
        n = sum(eta for eta, _ in data["rects"])
        j = draw.draw(st.integers(0, len(data["factors"]) - 1))
        data["factors"][j]["rows"][-1][-1] = n + excess
        self.assert_usage_error(argv, json.dumps(data))
