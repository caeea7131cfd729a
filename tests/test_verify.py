"""Instance scheduling and the per-instance failure cap of the verify suites."""

import concurrent.futures

import pytest

from rectcrys import verify
from rectcrys.crystal import RectSequence
from rectcrys.errors import NonLRError
from rectcrys.rsk import LRTableau, is_r_lr
from rectcrys.tableaux import Tableau


class TestWorkerCount:
    @pytest.mark.parametrize(
        "jobs, cpus, instances, want",
        [
            (1, 8, 100, 1),
            (4, 8, 100, 4),
            (16, 8, 100, 8),
            (16, 2, 100, 2),
            (16, 8, 3, 3),
            (4, 8, 1, 1),
            (4, 8, 0, 1),
            (4, None, 100, 1),
            (0, 8, 100, 1),
            (-1, 8, 100, 1),
        ],
    )
    def test_clamp(self, monkeypatch, jobs, cpus, instances, want):
        monkeypatch.setattr(verify.os, "cpu_count", lambda: cpus)
        assert verify.worker_count(jobs, instances) == want

    @pytest.mark.parametrize(
        "cpus, rects",
        [(1, [[(1, 1), (1, 1)], [(1, 2), (1, 1)]]), (8, [[(1, 2), (1, 1)]])],
    )
    def test_one_worker_runs_in_process(self, monkeypatch, cpus, rects):
        class NoPool:
            def __init__(self, *args, **kwargs):
                raise AssertionError("a process pool was started")

        monkeypatch.setattr(verify.os, "cpu_count", lambda: cpus)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", NoPool)
        seqs = [RectSequence(r) for r in rects]
        rep = verify._run_instances("axioms", [(seqs, verify._check_crystal_axioms)], jobs=4)
        assert rep.ok and rep.instances == len(seqs)


class TestMainTheoremPool:
    def test_jobs_spread_mus(self, monkeypatch):
        class InProcessPool:
            sizes = []

            def __init__(self, max_workers):
                self.sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(verify.os, "cpu_count", lambda: 8)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
        pooled = verify.verify_main_theorem(5, 2, jobs=2)
        assert InProcessPool.sizes == [2]
        serial = verify.verify_main_theorem(5, 2, jobs=1)
        assert InProcessPool.sizes == [2]
        assert pooled.instances == serial.instances == 7
        assert pooled.failures == serial.failures == []


def always(value):
    return lambda *args, **kwargs: value


class TestFailureCap:
    """Every per-instance check stops after MAX_FAILURES + 1 failures."""

    @pytest.mark.parametrize(
        "check, patches, rects",
        [
            (
                verify._check_charge,
                {"classical_charge": always(-1)},
                [(1, 1)] * 5,
            ),
            (
                verify._check_cocyclage,
                {"e0": always(None)},
                [(1, 1)] * 5,
            ),
            (
                verify._check_energy_drop,
                {"eps0": always(10**6), "energy_terms": always([])},
                [(1, 1)] * 4,
            ),
            (
                verify._check_crystal_axioms,
                {"pairing": always(99)},
                [(1, 1)] * 3,
            ),
        ],
    )
    def test_cap_holds(self, monkeypatch, check, patches, rects):
        for name, fake in patches.items():
            monkeypatch.setattr(verify, name, fake)
        seq = RectSequence(rects)
        uncapped = sum(1 for _ in check(seq))
        assert uncapped > verify.MAX_FAILURES + 1
        rep = verify._run_instances("capped", [([seq, seq], check)])
        assert len(rep.failures) == 2 * (verify.MAX_FAILURES + 1)


class TestWeightDrop:
    def test_perturbed_f_map_fails(self, monkeypatch):
        seq = RectSequence([(1, 2), (2, 1)])
        real = verify.factor_table
        table = verify.FactorTable(1, 2, seq.n)
        k = next(k for k, img in enumerate(table.f_map[1]) if img is not None)
        table.f_map[1][k] = k  # f_1 now leaves this factor unchanged
        monkeypatch.setattr(
            verify,
            "factor_table",
            lambda eta, mu, n: table if (eta, mu) == (1, 2) else real(eta, mu, n),
        )
        failures = list(verify._check_crystal_axioms(seq))
        drops = [f for f in failures if f["expected"] == "wt drop alpha_1"]
        assert drops
        fc = verify.FastCrystal(seq)
        for f in drops:
            # the reported drop is the whole-element content difference
            el = tuple(
                fc.tables[j].index[tuple(map(tuple, t["rows"]))]
                for j, t in enumerate(f["instance"]["element"])
            )
            fb = fc.apply(el, 1, "f")
            whole = [a - b for a, b in zip(fc.content(el), fc.content(fb))]
            assert f["actual"] == whole


class TestTauResultsChecked:
    @pytest.mark.parametrize(
        "check, rects",
        [
            ("_check_rmatrix_pairs", [(1, 1), (1, 1)]),
            ("_check_three_rectangles", [(1, 1), (1, 1), (1, 1)]),
        ],
    )
    def test_non_lr_switch_raises(self, monkeypatch, check, rects):
        bad_seq = RectSequence([(1, 1), (2, 1)])
        bad = Tableau(((1, 2, 3),), n=bad_seq.n)
        assert not is_r_lr(bad.word(), bad_seq)
        monkeypatch.setattr(
            verify, "tau_swap", lambda q, pos: LRTableau._raw(bad, bad_seq)
        )
        with pytest.raises(NonLRError):
            list(getattr(verify, check)(RectSequence(rects)))
