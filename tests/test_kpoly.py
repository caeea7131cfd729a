import json
import os
import subprocess
import sys
from collections import Counter

import pytest

import rectcrys
from rectcrys import energy, kpoly, rmatrix, rsk, verify
from rectcrys.crystal import RectSequence
from rectcrys.demazure import crystal_side_character
from rectcrys.kpoly import (
    LaurentPolynomial,
    add_rows,
    character_weights,
    extend_map,
    graded_character,
    k_polynomial,
    kostka_foulkes,
    monotonicity_check,
)
from rectcrys.rsk import _lr_rows, lrt_tableaux
from rectcrys.tableaux import Tableau, conjugate, enumerate_cst, partitions_of

from conftest import load_fixture
from oracles import column_walk_mismatches, duality_mismatches, reorder_mismatches


class TestLaurentPolynomial:
    def test_negative_exponents(self):
        p = LaurentPolynomial({-1: 1, 1: 2, 0: 0})
        assert p.coeffs == {-1: 1, 1: 2} and repr(p) == "q^-1 + 2*q"

    def test_coefficientwise_order(self):
        small = LaurentPolynomial({1: 1})
        big = LaurentPolynomial({0: 1, 1: 2})
        assert small.leq_coefficientwise(big)
        assert not big.leq_coefficientwise(small)

    def test_json_roundtrip(self):
        p = LaurentPolynomial({0: 3, 5: -2})
        assert LaurentPolynomial.from_json(p.to_json()) == p

    @pytest.mark.parametrize(
        "coeffs",
        [{"1": True}, {"1": "2"}, {"x": 1}, {"01": 1}, {" 1": 1}, {"1.0": 1}, {1: 1}],
    )
    def test_from_json_rejects_malformed(self, coeffs):
        # the disk cache's own entries are covered in test_cli.py
        with pytest.raises(ValueError):
            LaurentPolynomial.from_json({"coeffs": coeffs})


class TestKPolynomial:
    def test_stacked_singleton(self):
        seq = RectSequence([(1, 3), (2, 2)])
        assert k_polynomial(seq.gamma(), seq) == LaurentPolynomial({0: 1})

    def test_kostka_standard(self):
        seq = RectSequence([(1, 1)] * 3)
        assert k_polynomial((2, 1), seq) == LaurentPolynomial({1: 1, 2: 1})

    def test_empty_lrt_gives_zero(self):
        seq = RectSequence([(1, 1), (1, 3)])
        assert k_polynomial((1, 1, 1, 1), seq) == LaurentPolynomial()

    def test_empty_result_is_one_shared_zero(self):
        # a shape outside R's map, of any R, gets one immutable polynomial,
        # equal to the checked constructor's zero
        zero = k_polynomial((1, 1, 1, 1), RectSequence([(1, 1), (1, 3)]))
        assert zero == LaurentPolynomial() and not zero.coeffs
        assert k_polynomial([1, 1, 1, 1, 1], RectSequence([(2, 2), (1, 1)])) is zero
        with pytest.raises(TypeError):
            zero.coeffs[0] = 1

    def test_reorder_invariance(self):
        # the walk on each order named, not the map both orders share
        for rects in ([(1, 2), (2, 1)], [(1, 1), (1, 2), (1, 1)], [(2, 1), (1, 2)]):
            seq = RectSequence(rects)
            assert energy._kostka_counts(seq) == energy._kostka_counts(seq.swapped(1))

    def test_value_at_one_counts_tableaux(self):
        seq = RectSequence([(1, 2), (2, 1), (1, 1)])
        for lam in partitions_of(seq.ncells, seq.n):
            assert sum(k_polynomial(lam, seq).coeffs.values()) == len(lrt_tableaux(lam, seq))

    def test_writing_a_result_raises_and_leaves_the_memo(self):
        # both hand out the map's own polynomials, so a write must raise
        for seq in (RectSequence([(1, 2)] * 4), RectSequence([(1, 3), (2, 1), (1, 2), (1, 1)])):
            lam = max(kpoly._k_counts(seq._multiset))
            want = LaurentPolynomial(dict(k_polynomial(lam, seq).coeffs))
            got = k_polynomial(lam, seq)
            assert got is k_polynomial(lam, seq) is graded_character(seq).terms[-1][1]
            with pytest.raises(TypeError):
                got.coeffs[99] = 7
            with pytest.raises(AttributeError):
                got.coeffs.clear()
            with pytest.raises(AttributeError):
                got.coeffs = {99: 7}
            assert k_polynomial(lam, seq) == want
            assert graded_character(seq).terms[-1][1] == want

    def test_one_shape_route_on_fixture(self):
        # the one-shot route walks one shape's tableaux with real switches;
        # each shape must give the committed per-R character's coefficients
        seq = RectSequence([(1, 3), (2, 2), (1, 2), (2, 1), (1, 1), (1, 2)])
        terms = load_fixture("character_1x3_2x2_1x2_2x1_1x1_1x2.json")["terms"]
        assert len(terms) == 105
        for term in terms:
            got = kpoly._one_shape_k_polynomial(term["shape"], seq)
            assert got == LaurentPolynomial.from_json(term), term["shape"]


class TestColumnWalk:
    """With no real switch (rectangles 2..m equal) the per-R map is filled by
    the column walk, which lists no tableau; the LR route is its oracle."""

    def test_matches_the_lr_route(self):
        # one rectangle included; CI runs the 173 R of rect_sequences(5, 9)
        assert column_walk_mismatches(4, 8) == (105, [])

    def test_k_counts_reads_the_walk(self, monkeypatch):
        def listed(seq):
            raise AssertionError("listed the tableaux of an R with no real switch")

        seq = RectSequence([(1, 3), (1, 2), (1, 2), (1, 2)])
        want = LaurentPolynomial(Counter(energy._lrt_energies(seq)[(5, 3, 1)].values()))
        monkeypatch.setattr(energy, "_lrt_energies", listed)
        kpoly._k_counts.cache_clear()
        assert k_polynomial((5, 3, 1), seq) == want

    def test_counts_fill_no_tableau_memo(self):
        # the Kostka map and the peel plans walk their tableaux unmemoized;
        # only tableau-level readers fill the per-R tableau memo
        rectcrys.clear_caches()
        for rects in ([(2, 2), (2, 2), (1, 2), (1, 2), (1, 2), (1, 2)], [(1, 3), (2, 2), (1, 2), (2, 1), (1, 1), (1, 2)]):
            seq = RectSequence(rects)
            lam = graded_character(seq).terms[0][0]
            assert kpoly._one_shape_k_polynomial(lam, seq) == k_polynomial(lam, seq)
        assert crystal_side_character(2, (2, 2, 1)).terms
        assert energy._lrt_energies.cache_info().currsize == 0

    def test_pinned_walks_match(self):
        # a one-shape walk places no strip that leaves its shape, and gives
        # the shape's tableaux, in order, or its counts, on R's own order
        # and on the walk order of R's multiset
        count = 0
        for seq in verify.rect_sequences(4, 8):
            whole = energy._kostka_counts(seq)
            for lam, group in _lr_rows(seq).items():
                assert lrt_tableaux(lam, seq) == tuple(Tableau._raw(rows, (), seq.n) for rows in group), (seq, lam)
                assert energy._kostka_counts(seq, lam) == {lam: whole[lam]}, (seq, lam)
                assert kpoly._one_shape_k_polynomial(lam, seq) == k_polynomial(lam, seq), (seq, lam)
                count += 1
        assert count == 1692


# graded_character over every R of rect_sequences(7, 10) in one process,
# printing VmRSS in kB after each quarter of the R
LEVEL_OFF = """
import json
from rectcrys.kpoly import graded_character
from rectcrys.verify import rect_sequences

def rss_kb():
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("VmRSS:"))

seqs = list(rect_sequences(7, 10))
ends = {len(seqs) * q // 4 for q in (1, 2, 3, 4)}
readings = []
for k, seq in enumerate(seqs, start=1):
    graded_character(seq)
    if k in ends:
        readings.append(rss_kb())
print(json.dumps([len(seqs), len({seq._multiset for seq in seqs}), readings]))
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmRSS from /proc/self/status")
def test_memory_levels_off():
    # more multisets than the Kostka map's bound of 256, so it evicts; the
    # map of polynomial objects and the bounded memos behind it must keep
    # the second half of the run within 2 MB
    src = os.path.dirname(os.path.dirname(rectcrys.__file__))
    out = subprocess.run(
        [sys.executable, "-c", LEVEL_OFF], env=dict(os.environ, PYTHONPATH=src),
        check=True, capture_output=True, text=True,
    ).stdout
    count, multisets, readings = json.loads(out)
    assert (count, multisets, len(readings)) == (3825, 428, 4)
    assert readings[3] - readings[1] <= 2048, readings


class TestTransposeDuality:
    def test_transposed_rectangles(self):
        # CI runs the 840 R of rect_sequences(5, 9)
        assert duality_mismatches(4, 8) == (272, [])


class TestMultisetMap:
    """One Kostka map per multiset of R, walked on one order of it."""

    def test_every_order_matches_the_map(self):
        # CI runs the 840 R, 179 multisets of rect_sequences(5, 9)
        assert reorder_mismatches(4, 8) == (272, 89, [])

    def test_one_entry_per_multiset(self):
        kpoly._k_counts.cache_clear()
        orders = [RectSequence(p) for p in ([(1, 2), (2, 1), (1, 2)], [(1, 2), (1, 2), (2, 1)], [(2, 1), (1, 2), (1, 2)])]
        first, *others = [graded_character(seq) for seq in orders]
        assert others == [first, first] and kpoly._k_counts.cache_info().currsize == 1

    def test_walk_order(self):
        # smaller groups of equal rectangles first, larger rectangles first
        # among groups of one size: so one rectangle first and the others
        # equal, an order with no real switch, whenever the multiset has one
        for rects, want in (
            ([(1, 2), (2, 1), (1, 2)], ((2, 1), (1, 2), (1, 2))),
            ([(1, 1), (3, 1)], ((3, 1), (1, 1))),
            ([(1, 2), (1, 1), (1, 2), (1, 1)], ((1, 2), (1, 2), (1, 1), (1, 1))),
        ):
            assert kpoly._walk_order(RectSequence(rects)._multiset).rects == want
        for seq in verify.rect_sequences(4, 8):
            if not energy._switches(seq):
                assert not energy._switches(kpoly._walk_order(seq._multiset)), seq


class TestKostkaFoulkes:
    def test_equal_partitions(self):
        assert kostka_foulkes((2, 1), (2, 1)) == LaurentPolynomial({0: 1})

    def test_standard_content(self):
        assert kostka_foulkes((2, 1), (1, 1, 1)) == LaurentPolynomial({1: 1, 2: 1})
        assert kostka_foulkes((2, 2), (1, 1, 1, 1)) == LaurentPolynomial({2: 1, 4: 1})

    def test_single_row(self):
        for n in (2, 3, 4):
            assert kostka_foulkes((n,), (1,) * n) == LaurentPolynomial(
                {n * (n - 1) // 2: 1}
            )

    def test_dominance_vanishing(self):
        assert kostka_foulkes((1, 1, 1), (3,)) == LaurentPolynomial()
        assert kostka_foulkes((1, 1, 1), (2, 1)) == LaurentPolynomial()

    def test_transposed_accessor(self):
        # the classical tilde-indexing transposes lambda
        assert kostka_foulkes(conjugate((2, 1)), (1, 1, 1)) == kostka_foulkes(
            (2, 1), (1, 1, 1)
        )
        assert kostka_foulkes(conjugate((3,)), (1, 1, 1)) == kostka_foulkes(
            (1, 1, 1), (1, 1, 1)
        )


class TestGradedCharacter:
    def test_single_rectangle(self):
        gc = graded_character(RectSequence([(2, 3)]))
        assert dict(gc.terms) == {(3, 3): LaurentPolynomial({0: 1})}

    def test_small_instance(self):
        gc = graded_character(RectSequence([(1, 2), (1, 1), (1, 1)]))
        assert dict(gc.terms) == {
            (2, 1, 1): LaurentPolynomial({0: 1}),
            (2, 2): LaurentPolynomial({1: 1}),
            (3, 1): LaurentPolynomial({1: 1, 2: 1}),
            (4,): LaurentPolynomial({3: 1}),
        }

    def test_stacked_coefficient_is_one(self):
        seq = RectSequence([(1, 3), (2, 1)])
        gc = graded_character(seq)
        assert dict(gc.terms)[(3, 1, 1)] == LaurentPolynomial({0: 1})

    def test_character_weights_symmetry(self):
        weights = character_weights((2, 1), 3)
        assert weights[(2, 1, 0)] == weights[(0, 1, 2)] == 1
        assert weights[(1, 1, 1)] == 2
        assert sum(weights.values()) == 8

    def test_character_weights_are_read_only(self):
        # memoized and shared by every caller, so a write must raise
        weights = character_weights((2, 1), 3)
        with pytest.raises(TypeError):
            weights[(9, 9, 9)] = 1
        assert (9, 9, 9) not in character_weights((2, 1), 3)

    def test_character_weights_match_tableau_contents(self):
        for n in range(1, 5):
            for size in range(9):
                for lam in partitions_of(size, size):
                    contents = Counter(t.content(n) for t in enumerate_cst(lam, n))
                    assert character_weights(lam, n) == dict(contents), (lam, n)

    def test_does_not_scan_the_crystal(self, monkeypatch):
        def scan(*args):
            raise AssertionError("graded_character built a crystal element")

        # every src module that holds these names at import time; the default
        # raising=True fails the test when one of them no longer does
        monkeypatch.setattr(energy, "total_energy", scan)
        monkeypatch.setattr(energy, "energy_terms", scan)
        monkeypatch.setattr(rmatrix, "sigma_swap", scan)
        for module in (rsk, verify):
            monkeypatch.setattr(module, "rsk_pair", scan)
        # a cached energy would skip the walk
        energy._lrt_energies.cache_clear()
        gc = graded_character(RectSequence([(1, 2), (1, 1), (1, 1)]))
        assert dict(gc.terms) == {
            (2, 1, 1): LaurentPolynomial({0: 1}),
            (2, 2): LaurentPolynomial({1: 1}),
            (3, 1): LaurentPolynomial({1: 1, 2: 1}),
            (4,): LaurentPolynomial({3: 1}),
        }
        # rectangles 2 and 3 differ, so the walk lifts and switches
        gc = graded_character(RectSequence([(1, 1), (2, 1), (1, 2)]))
        assert dict(gc.terms) == {
            (2, 1, 1, 1): LaurentPolynomial({0: 1}),
            (2, 2, 1): LaurentPolynomial({1: 1}),
            (3, 1, 1): LaurentPolynomial({1: 1, 2: 1}),
            (3, 2): LaurentPolynomial({2: 1}),
            (4, 1): LaurentPolynomial({3: 1}),
        }


class TestCharacterRoutesCheck:
    """verify_characters links the LR route to the crystal scan; a
    disagreement on either side must surface as a failure."""

    def test_perturbed_lr_route_fails(self, monkeypatch):
        def perturbed(seq):
            counts = energy._kostka_counts(seq)
            lam = max(counts)
            counts[lam][0] = counts[lam].get(0, 0) + 1
            return counts

        monkeypatch.setattr(verify, "_kostka_counts", perturbed)
        rep = verify.verify_characters(2, 3)
        assert not rep.ok
        assert len(rep.failures) == rep.instances
        assert all("highest-weight route" in f["actual"] for f in rep.failures)

    def test_perturbed_energy_off_highest_weights_fails(self, monkeypatch):
        # No highest weight element lacks the letter 1, so only the
        # weight-level comparison can see this change.
        real = verify.FastCrystal.energy

        def shifted(fc, el):
            return real(fc, el) + (1 if fc.weights[fc.code(el)][0] == 0 else 0)

        monkeypatch.setattr(verify.FastCrystal, "energy", shifted)
        rep = verify.verify_characters(2, 3)
        assert not rep.ok
        assert {f["actual"] for f in rep.failures} == {"weight generating functions differ"}

    def test_wrong_weights_fail(self, monkeypatch):
        def doubled(lam, n):
            return {wt: 2 * m for wt, m in character_weights(lam, n).items()}

        monkeypatch.setattr(verify, "character_weights", doubled)
        rep = verify.verify_characters(2, 3)
        assert not rep.ok
        assert {f["actual"] for f in rep.failures} == {"weight generating functions differ"}


class TestMonotonicity:
    def test_degenerate(self):
        seq = RectSequence([(1, 1), (1, 1)])
        assert monotonicity_check((2,), seq, 0, 0).holds

    def test_han_single_row(self):
        seq = RectSequence([(1, 2), (1, 1)])
        rep = monotonicity_check((2, 1), seq, 2, 1)
        assert rep.holds
        assert rep.base.leq_coefficientwise(rep.extended)

    def test_kostka_column_growth(self):
        seq = RectSequence([(1, 1)] * 3)
        rep = monotonicity_check((2, 1), seq, 1, 1)
        assert rep.holds
        assert rep.base == LaurentPolynomial({1: 1, 2: 1})
        plus = k_polynomial((2, 1, 1), RectSequence([(1, 1)] * 4))
        assert rep.extended == plus
        assert rep.base.leq_coefficientwise(plus)

    def test_energy_preserved_elementwise(self):
        seq = RectSequence([(1, 2), (2, 1)])
        rep = monotonicity_check((2, 1, 1), seq, 2, 2)
        assert rep.holds
        for entry in rep.injection:
            assert entry["energy"] >= 0

    def test_extend_map_shape(self):
        seq = RectSequence([(1, 1)] * 3)
        for t in lrt_tableaux((2, 1), seq):
            img = extend_map(t, 2, 2)
            assert img.outer == add_rows((2, 1), 2, 2)
