"""Instance scheduling and the per-instance failure cap of the verify suites,
and the index tables the suites walk, tied to the library routes and shown
to fail when perturbed."""

import concurrent.futures
import time
from itertools import product

import pytest

from rectcrys import verify
from rectcrys.crystal import RectSequence
from rectcrys.energy import energy_terms, total_energy
from rectcrys.errors import NonLRError
from rectcrys.rmatrix import sigma_swap
from rectcrys.rsk import LRTableau, is_r_lr, rsk_pair
from rectcrys.tableaux import Tableau, enumerate_cst


class TestWorkerCount:
    @pytest.mark.parametrize(
        "jobs, cpus, instances, want",
        [
            (1, 8, 100, 1),
            (4, 8, 100, 4),
            (16, 8, 100, 8),
            (16, 2, 100, 2),
            (16, 8, 12, 3),
            (16, 8, 11, 2),
            (2, 8, 2, 1),
            (4, 8, 1, 1),
            (4, 8, 0, 1),
            (4, None, 100, 1),
            (0, 8, 100, 1),
            (-1, 8, 100, 1),
        ],
    )
    def test_clamp(self, monkeypatch, jobs, cpus, instances, want):
        # each instance here is a main-theorem instance, a quarter of a worker's share
        monkeypatch.setattr(verify.os, "cpu_count", lambda: cpus)
        work = instances * verify._work(verify._check_main_theorem, (4, 1, (1,) * 4))
        assert verify.worker_count(jobs, work) == want

    def test_work_is_crystal_size(self):
        for seq in verify.rect_sequences(3, 5):
            size = len(verify.FastCrystal(seq).elements)
            for check, cost in verify.US_PER_ELEMENT.items():
                assert verify._work(check, seq) == cost * size

    def test_rect_sequences_stop_at_max_cells(self):
        # a sequence over 1..n has at least n cells, so no n past max_cells
        # lists its 2^(n-1) compositions
        start = time.perf_counter()
        assert list(verify.rect_sequences(40, 6)) == list(verify.rect_sequences(6, 6))
        assert time.perf_counter() - start < 1

    def test_count_is_hook_content(self):
        for n, eta, mu in product(range(1, 6), range(1, 7), range(1, 4)):
            want = sum(1 for _ in enumerate_cst((mu,) * eta, n))
            assert verify._count_cst(eta, mu, n) == want

    def test_every_suite_check_has_a_cost(self):
        checks = {name for name in dir(verify) if name.startswith("_check_")}
        costed = {check.__name__ for check in verify.US_PER_ELEMENT}
        # the stuck component is one fixed instance, appended after the pool
        assert checks - costed == {"_check_main_theorem", "_check_stuck_component"}

    def test_pools_by_work(self, monkeypatch):
        monkeypatch.setattr(verify.os, "cpu_count", lambda: 8)

        def family_work(check, n, cells, family=verify.rect_sequences):
            return sum(verify._work(check, seq) for seq in family(n, cells))

        # the n <= 3, <= 5 cells family (1,021 elements) stays in process for every check
        for check in verify.US_PER_ELEMENT:
            assert verify.worker_count(2, family_work(check, 3, 5)) == 1
        # at n <= 4, <= 6 cells the RSK scan pools, the charge check does not
        assert verify.worker_count(2, family_work(verify._check_rsk, 4, 6)) == 2
        charge = family_work(verify._check_charge, 4, 6, verify._charge_sequences)
        assert verify.worker_count(2, charge) == 1

    def test_real_pool_matches_in_process(self, monkeypatch):
        # checks and instances cross into worker processes and reports come back
        started = []

        class CountedPool(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, max_workers):
                started.append(max_workers)
                super().__init__(max_workers=max_workers)

        monkeypatch.setattr(verify.os, "cpu_count", lambda: 2)
        monkeypatch.setattr(verify, "MIN_US_PER_WORKER", 1)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountedPool)
        seqs = list(verify.rect_sequences(2, 3))
        parts = [(seqs, verify._check_rsk), (seqs, verify._check_crystal_axioms)]
        pooled = verify._run_instances("pooled", parts, jobs=2)
        assert started == [2]
        serial = verify._run_instances("serial", parts, jobs=1)
        assert started == [2]
        assert pooled.instances == serial.instances == 2 * len(seqs)
        assert pooled.failures == serial.failures == []

    def test_pool_gets_largest_first(self, monkeypatch):
        received = []

        class CountingPool:
            def __init__(self, max_workers):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                received.extend(tasks)
                return [[] for _ in tasks]

        monkeypatch.setattr(verify.os, "cpu_count", lambda: 2)
        monkeypatch.setattr(verify, "MIN_US_PER_WORKER", 1)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
        seqs = list(verify.rect_sequences(3, 4))
        parts = [(seqs, verify._check_crystal_axioms), (seqs, verify._check_rsk)]
        rep = verify._run_instances("ordered", parts, jobs=2)
        tasks = [(check, seq) for seqs_, check in parts for seq in seqs_]
        work = [verify._work(*task) for task in received]
        assert rep.instances == len(received) == len(tasks)
        assert sorted(received, key=tasks.index) == tasks
        assert work == sorted(work, reverse=True) and work[0] > work[-1]
        # equal work keeps family order
        for a, b in zip(received, received[1:]):
            if verify._work(*a) == verify._work(*b):
                assert tasks.index(a) < tasks.index(b)

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
        small = verify.verify_main_theorem(2, 1, jobs=2)
        assert InProcessPool.sizes == []  # two instances stay in process
        pooled = verify.verify_main_theorem(6, 1, jobs=2)
        assert InProcessPool.sizes == [2]
        serial = verify.verify_main_theorem(6, 1, jobs=1)
        assert InProcessPool.sizes == [2]
        assert small.instances == 2 and pooled.instances == serial.instances == 11
        assert small.failures == pooled.failures == serial.failures == []


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
                {"FastCrystal.energy_terms": always([])},
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
            monkeypatch.setattr(f"rectcrys.verify.{name}", fake)
        seq = RectSequence(rects)
        uncapped = sum(1 for _ in check(seq))
        assert uncapped > verify.MAX_FAILURES + 1
        rep = verify._run_instances("capped", [([seq, seq], check)])
        assert len(rep.failures) == 2 * (verify.MAX_FAILURES + 1)


def patched_factor_table(monkeypatch, shape, n, perturb):
    """Serve a perturbed copy of the factor table of one shape over 1..n."""
    real = verify.factor_table
    table = verify.FactorTable(shape, n)
    perturb(table)
    monkeypatch.setattr(
        verify,
        "factor_table",
        lambda shape_, n_: table if (shape_, n_) == (shape, n) else real(shape_, n_),
    )


class TestWeightDrop:
    def test_perturbed_f_map_fails(self, monkeypatch):
        seq = RectSequence([(1, 2), (2, 1)])

        def perturb(table):
            k = next(k for k, img in enumerate(table.f_map[1]) if img is not None)
            table.f_map[1][k] = k  # f_1 now leaves this factor unchanged

        patched_factor_table(monkeypatch, (2,), seq.n, perturb)
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
            code = fc.code(el)
            fb = fc.color(1)[1][code]
            whole = [a - b for a, b in zip(fc.weights[code], fc.weights[fb])]
            assert f["actual"] == whole


class TestPerturbedFactorTable:
    SEQ = RectSequence([(1, 2), (2, 1)])

    def test_swapped_promote_entry_fails(self, monkeypatch):
        def perturb(table):
            table.promote[0], table.promote[1] = table.promote[1], table.promote[0]

        patched_factor_table(monkeypatch, (2,), self.SEQ.n, perturb)
        failures = list(verify._check_crystal_axioms(self.SEQ))
        assert failures
        assert all(f["expected"].startswith("pr f_") for f in failures)

    def test_perturbed_stats_entry_fails(self, monkeypatch):
        def perturb(table):
            phi_, eps_ = table.stats[1][0]
            table.stats[1][0] = (phi_ + 1, eps_)

        patched_factor_table(monkeypatch, (2,), self.SEQ.n, perturb)
        failures = list(verify._check_crystal_axioms(self.SEQ))
        assert any(f["expected"].startswith("<h_1, wt>") for f in failures)


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


class TestPairTables:
    def test_match_library_routes(self):
        for seq in verify.rect_sequences(3, 7):
            fc = verify.FastCrystal(seq)
            for el in fc.elements:
                b = fc.to_element(el)
                assert fc.energy_terms(el) == energy_terms(b)
                assert fc.energy(el) == total_energy(b)
                for pos in range(1, seq.m):
                    rects, img = verify._switch(seq.rects, el, pos, seq.n)
                    got = verify.FastCrystal(RectSequence(rects)).to_element(img)
                    assert got == sigma_swap(b, pos)


def patched_pair_table(monkeypatch, seq, perturb):
    """Serve a perturbed copy of the pair table of seq's two rectangles."""
    real = verify.pair_table
    table = verify.PairTable(*seq.rects, seq.n)
    perturb(table)
    monkeypatch.setattr(
        verify,
        "pair_table",
        lambda a, b, n: table if (a, b, n) == (*seq.rects, seq.n) else real(a, b, n),
    )


class TestPerturbedPairTable:
    SEQ = RectSequence([(1, 2), (1, 1)])

    def test_sigma_entry_fails_rmatrix_pairs(self, monkeypatch):
        def perturb(table):
            table.sigma[0][0] = table.sigma[0][1]

        patched_pair_table(monkeypatch, self.SEQ, perturb)
        assert list(verify._check_rmatrix_pairs(self.SEQ))

    @pytest.mark.parametrize("check", ["_check_energy_two_factor", "_check_energy_general"])
    def test_energy_entry_fails(self, monkeypatch, check):
        def perturb(table):
            table.energy[0][1] += 1

        patched_pair_table(monkeypatch, self.SEQ, perturb)
        assert list(getattr(verify, check)(self.SEQ))


class TestRoundTripByIndex:
    """The RSK round trip peels each node's labels back off its insertion
    state and reads the factor from its table's index; a peel that returns
    no valid factor must fail the suite, once."""

    SEQ = RectSequence([(1, 2), (1, 1)])

    def test_corrupted_rows_fail(self, monkeypatch):
        real = verify._peel_labels

        def corrupted(cols, labelled, top, bottom):
            done = False
            for k, row in real(cols, labelled, top, bottom):
                if not done and row[0] != row[-1]:
                    row, done = (row[-1],) + row[1:-1] + (row[0],), True
                yield k, row

        monkeypatch.setattr(verify, "_peel_labels", corrupted)
        failures = list(verify._check_rsk(self.SEQ))
        assert [f["expected"] for f in failures] == ["rsk_inverse . rsk_pair = id"]

    def test_failed_peel_fails(self, monkeypatch):
        def fails(cols, labelled, top, bottom):
            raise ValueError("reverse column insertion stuck at column 1")
            yield

        monkeypatch.setattr(verify, "_peel_labels", fails)
        failures = list(verify._check_rsk(self.SEQ))
        assert [f["expected"] for f in failures] == ["rsk_inverse . rsk_pair = id"]

    def test_intact_round_trip_passes(self):
        assert list(verify._check_rsk(self.SEQ)) == []


class TestRskWalk:
    """The walk inserts each factor once onto its prefix; its pairs are
    rsk_pair's, and a wrong inner state or table entry fails the suite."""

    SEQ = RectSequence([(1, 2), (1, 1), (1, 1)])

    def test_pairs_are_rsk_pair(self):
        count = 0
        for seq in verify.rect_sequences(3, 6):
            fc = verify.FastCrystal(seq)
            walk = verify.RskWalk(fc)
            assert walk.failed is None
            for code, el in enumerate(fc.elements):
                pair = rsk_pair(fc.to_element(el))
                table, k = walk.p_tables[walk.p[code]]
                assert table.tableaux[k] == pair.p
                assert walk.q_tableaux[walk.q[code]] == pair.q
                count += 1
        assert count == 2956

    @pytest.mark.parametrize(
        "first, call, state, corrupt, element",
        [
            # an inner node whose group peels back to a wrong factor
            (2, 2, [[1, 2], [1]], lambda cols: cols[0].__setitem__(-1, 3), (0, 1, 0)),
            # a leaf whose group peels back right but leaves more than its
            # parent's state
            (3, 3, [[1, 3], [1], [1]], lambda cols: cols.append([3]), (0, 0, 2)),
        ],
    )
    def test_wrong_state_fails(self, monkeypatch, first, call, state, corrupt, element):
        real = verify._record_onto
        calls = []

        def patched(cols, qrows, groups, first_):
            real(cols, qrows, groups, first_)
            if first_ == first:
                calls.append(groups)
                if len(calls) == call:
                    assert cols == state
                    corrupt(cols)

        monkeypatch.setattr(verify, "_record_onto", patched)
        fc = verify.FastCrystal(self.SEQ)
        trips = [
            f for f in verify._check_rsk(self.SEQ) if f["expected"] == "rsk_inverse . rsk_pair = id"
        ]
        assert len(calls) >= call
        assert [f["instance"] for f in trips] == [fc.instance_json(element)]

    @pytest.mark.parametrize(
        "name, expected", [("f_map", "equivariance f_1"), ("reflect", "equivariance r_1")]
    )
    def test_perturbed_p_table_entry_fails(self, monkeypatch, name, expected):
        # the shape (3, 1) is a p shape of SEQ and none of its factors' shapes
        def perturb(table):
            images = getattr(table, name)[1]
            k = next(k for k, img in enumerate(images) if img is not None)
            images[k] = (images[k] + 1) % len(table.tableaux)

        patched_factor_table(monkeypatch, (3, 1), self.SEQ.n, perturb)
        failures = list(verify._check_rsk(self.SEQ))
        assert failures
        assert {f["expected"] for f in failures} == {expected}


class TestPairPromotionHalves:
    """The RSK suite composes pair promotion from its two halves and computes
    the recording half once per (q, strip); a corrupted recording half must
    fail the suite."""

    SEQ = RectSequence([(1, 2), (1, 1)])

    def corrupt_one(self, monkeypatch, corrupt):
        """Serve the recording half with the first output that ``corrupt``
        changes corrupted; returns the keys it was called with."""
        real = verify._promote_recording
        calls, done = [], []

        def patched(q, strip, seq):
            calls.append((q.rows, strip))
            out = real(q, strip, seq)
            bad = None if done else corrupt(*out)
            if bad is None:
                return out
            done.append(bad)
            return bad

        monkeypatch.setattr(verify, "_promote_recording", patched)
        return calls, done

    def test_once_per_q_and_strip(self, monkeypatch):
        seq = RectSequence([(1, 2), (1, 1), (1, 1)])
        calls, _ = self.corrupt_one(monkeypatch, lambda *out: None)
        assert list(verify._check_rsk(seq)) == []
        size = len(verify.FastCrystal(seq).elements)
        assert len(set(calls)) == len(calls) < size

    def test_swapped_letter_fails(self, monkeypatch):
        def swap(q_new, qhat, v, added):
            rows = [list(row) for row in q_new.rows]
            if rows[0][0] == rows[-1][-1]:
                return None
            rows[0][0], rows[-1][-1] = rows[-1][-1], rows[0][0]
            return Tableau._raw(tuple(map(tuple, rows)), (), q_new.n), qhat, v, added

        _, done = self.corrupt_one(monkeypatch, swap)
        failures = list(verify._check_rsk(self.SEQ))
        assert done and failures
        assert {f["expected"] for f in failures} == {"pair promotion"}

    def test_wrong_added_cell_fails(self, monkeypatch):
        def move(q_new, qhat, v, added):
            if not added:
                return None
            r, c = added[-1]
            return q_new, qhat, v, added[:-1] + ((r + 1, 1),)

        _, done = self.corrupt_one(monkeypatch, move)
        failures = list(verify._check_rsk(self.SEQ))
        assert done and failures
        assert {f["expected"] for f in failures} == {"pair promotion"}
