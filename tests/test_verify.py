"""Instance scheduling and the per-instance failure cap of the verify suites."""

import concurrent.futures

import pytest

from rectcrys import verify
from rectcrys.crystal import RectSequence


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
        rep = verify._run_instances("axioms", seqs, verify._check_crystal_axioms, jobs=4)
        assert rep.ok and rep.instances == len(seqs)


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
                {"eps0": always(10**6), "energy_level": always(0)},
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
        rep = verify._run_instances("capped", [seq, seq], check)
        assert len(rep.failures) == 2 * (verify.MAX_FAILURES + 1)
