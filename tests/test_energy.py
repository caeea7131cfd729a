from itertools import permutations

import pytest

from rectcrys import energy, kpoly
from rectcrys.crystal import CrystalElement, RectSequence, f
from rectcrys.energy import (
    charge_word,
    classical_charge,
    energy_terms,
    local_H,
    restricted_d,
    tableau_energy,
    total_energy,
)
from rectcrys.rmatrix import tau_swap
from rectcrys.errors import InconsistentPairError
from rectcrys.kpoly import graded_character, k_polynomial
from rectcrys.laurent import LaurentPolynomial
from rectcrys.rsk import LRTableau, _lift, _lr_rows, is_r_lr, lrt_tableaux, rsk_pair
from rectcrys.tableaux import Tableau, column_insert, enumerate_cst, key, partition, partitions_of, record
from rectcrys.verify import rect_sequences

from conftest import lr_family
from oracles import (
    duality_mismatches,
    energy_terms_by_swaps,
    enumerate_crystal,
    lift_term_mismatches,
    reorder_mismatches,
    tau_chain_energy_terms,
)


def tau_chain_energy(q: LRTableau) -> int:
    return sum(v for _, _, v in tau_chain_energy_terms(q))


def ordering_mismatches() -> tuple[int, list[LRTableau]]:
    """Every LR tableau of every ordering of 1x1, 1x1, 1x2, 2x1, with the
    ones whose walked energy differs from the tau chain's.  The orderings
    put equal rectangles next to each other before and after a real
    switch."""
    count, bad = 0, []
    for rects in sorted(set(permutations([(1, 1), (1, 1), (1, 2), (2, 1)]))):
        seq = RectSequence(rects)
        for lam in partitions_of(seq.ncells, seq.n):
            for t in lrt_tableaux(lam, seq):
                q = LRTableau(t, seq)
                count += 1
                if tableau_energy(q) != tau_chain_energy(q):
                    bad.append(q)
    return count, bad


class TestDStat:
    def test_stacked_shape_is_zero(self):
        seq = RectSequence([(1, 3), (2, 2)])
        q = lrt_tableaux(seq.gamma(), seq)[0]
        assert restricted_d(LRTableau(q, seq), 1) == 0

    def test_golden_pair_shapes(self, golden_b, golden_seq):
        # local shapes of the three pairwise insertions in the worked example
        b1, b2, b3 = golden_b.factors
        assert column_insert(b2.word() + b1.word()).outer == (4, 3, 3, 2, 1)
        assert column_insert(b3.word() + b2.word()).outer == (4, 4, 3, 2, 2)


class TestLocalH:
    def test_stacked_keys_normalization(self):
        for r1, r2 in [((1, 2), (2, 1)), ((2, 2), (2, 3)), ((1, 1), (3, 2))]:
            seq = RectSequence([r1, r2])
            keys = CrystalElement(
                seq,
                [
                    Tableau([[i + 1] * seq.mu(1) for i in range(seq.eta(1))], n=seq.n),
                    Tableau([[i + 1] * seq.mu(2) for i in range(seq.eta(2))], n=seq.n),
                ],
            )
            assert local_H(keys) == min(r1[0], r2[0]) * min(r1[1], r2[1])

    def test_head_normalization(self):
        seq = RectSequence([(1, 3), (2, 2)])
        head = CrystalElement(seq, [seq.key_tableau(1), seq.key_tableau(2)])
        assert local_H(head) == 0


class TestTotalEnergy:
    def test_single_factor_zero(self):
        seq = RectSequence([(2, 3)])
        for b in enumerate_crystal(seq):
            assert total_energy(b) == 0

    def test_golden(self, golden_b):
        terms = energy_terms(golden_b)
        assert [v for _, _, v in terms] == [1, 2, 0]
        assert total_energy(golden_b) == 3

    def test_terms_match_whole_element_switches(self):
        # term by term against sigma_swap on whole elements and the
        # insertion of each two-factor word, on every element of every R
        # of rect_sequences(4, 5)
        count = 0
        for seq in rect_sequences(4, 5):
            for b in enumerate_crystal(seq):
                assert energy_terms(b) == energy_terms_by_swaps(b), b
                count += 1
        assert count == 5714

    def test_constant_on_components(self):
        seq = RectSequence([(1, 2), (1, 1), (1, 1)])
        for b in enumerate_crystal(seq):
            en = total_energy(b)
            for i in range(1, seq.n):
                fb = f(b, i)
                if fb is not None:
                    assert total_energy(fb) == en


class TestTableauEnergy:
    def test_golden(self, golden, golden_seq):
        q = LRTableau(Tableau.from_json(golden["q"], n=7), golden_seq)
        assert [v for _, _, v in tau_chain_energy_terms(q)] == [1, 2, 0]
        assert tableau_energy(q) == 3

    def test_stacked_zero(self):
        seq = RectSequence([(1, 3), (2, 2)])
        q = lrt_tableaux(seq.gamma(), seq)[0]
        assert tableau_energy(LRTableau(q, seq)) == 0

    def test_agrees_with_crystal_route(self):
        for rects in ([(1, 2), (2, 1)], [(1, 1), (1, 2), (1, 1)], [(2, 1), (1, 1), (1, 2)]):
            seq = RectSequence(rects)
            for b in enumerate_crystal(seq):
                q = LRTableau(rsk_pair(b).q, seq)
                assert tableau_energy(q) == total_energy(b)

    def test_lifted_walk_matches_tau_chain(self):
        count = 0
        for seq, t in lr_family(4, 7, 3):
            q = LRTableau(t, seq)
            assert tableau_energy(q) == tau_chain_energy(q)
            count += 1
        assert count == 1241

    def test_walk_matches_tau_chain_on_orderings(self):
        count, bad = ordering_mismatches()
        assert count == 216 and bad == []

    def test_lift_terms_match_tau_chain(self):
        # energy_terms of the lift against the tau chain, whose terms are
        # restricted_d of the switched recording tableaux
        assert lift_term_mismatches(4, 7) == (1371, [])

    def test_skipped_switch_fails_oracles(self, monkeypatch):
        # a walk that never switches the factor rows it moves must show up
        # against the tau chain, sigma_swap on whole elements, the
        # transpose duality and the map of each multiset.  The memos of
        # energies and Kostka counts are cleared on both sides of the patch,
        # so that neither earlier nor corrupted entries outlive it.
        def unswitched(rect1, rect2, rows1, rows2, n):
            return rows1, rows2

        def clear():
            energy._lrt_energies.cache_clear()
            kpoly._k_counts.cache_clear()

        monkeypatch.setattr(energy, "_sigma_pair", unswitched)
        clear()
        try:
            assert ordering_mismatches()[1]
            assert lift_term_mismatches(4, 7)[1]
            elements = enumerate_crystal(RectSequence([(1, 1), (1, 2), (2, 1)]))
            assert any(energy_terms(b) != energy_terms_by_swaps(b) for b in elements)
            count, bad = duality_mismatches(4, 8)
            assert (count, len(bad)) == (272, 156)
            assert reorder_mismatches(4, 8)[2]
        finally:
            clear()

    def test_prefix_states_are_key_tableaux(self):
        # the insertion state of rectangles 1..k of the lift is the key
        # tableau of the shape of q's labels up to hi_k
        for seq, t in lr_family(4, 7, 3):
            groups = [b.rows for b in _lift(t, seq).factors]
            for k in range(1, seq.m):
                hi = seq.subalphabet(k)[1]
                shape = partition(sum(1 for x in row if x <= hi) for row in t.rows)
                p, _ = record([row for rows in groups[:k] for row in rows], seq.n)
                assert p == key(shape, n=seq.n)

    def test_non_lr_tableau_rejected(self):
        # every column-strict tableau of content gamma(R), for every R of
        # rect_sequences(4, 6): the lift, and with it the energy, raises
        # exactly on the ones that are not R-LR
        count, bad = 0, 0
        for seq in rect_sequences(4, 6):
            for lam in partitions_of(seq.ncells, seq.n):
                for t in enumerate_cst(lam, seq.n):
                    if t.content(seq.n) != seq.gamma():
                        continue
                    count += 1
                    if is_r_lr(t.word(), seq):
                        _lift(t, seq)
                        tableau_energy(LRTableau._raw(t, seq))
                        continue
                    bad += 1
                    with pytest.raises(InconsistentPairError):
                        _lift(t, seq)
                    with pytest.raises(InconsistentPairError):
                        tableau_energy(LRTableau._raw(t, seq))
        assert (count, bad) == (948, 359)

    def test_reorder_invariance(self):
        seq = RectSequence([(1, 2), (2, 1), (1, 1)])
        for lam in partitions_of(seq.ncells, seq.n):
            for t in lrt_tableaux(lam, seq):
                q = LRTableau(t, seq)
                assert tableau_energy(tau_swap(q, 1)) == tableau_energy(q)


class TestEnergyPass:
    """The walk over given tableaux: each energy is its prefix's, from the
    same walk on R_1..R_{m-1} and the prefixes met, plus the terms (i, m)."""

    def test_matches_tableau_by_tableau(self):
        count = 0
        for seq in rect_sequences(4, 8):
            memo = energy._lrt_energies(seq)
            # the memo holds the walk's tableaux, shape by shape, in order
            assert {lam: list(group) for lam, group in memo.items()} == _lr_rows(seq), seq
            for group in memo.values():
                for rows, e in group.items():
                    assert e == tau_chain_energy(LRTableau._raw(Tableau._raw(rows, (), seq.n), seq)), (seq, rows)
                    count += 1
        assert count == 2977

    def test_one_shape_matches_the_pass(self):
        # a one-shot request walks one shape's tableaux, whose prefixes are
        # fewer than the pass over every shape meets
        count = 0
        for seq in rect_sequences(4, 8):
            for group in energy._lrt_energies(seq).values():
                assert energy._energies(seq, list(group)) == group, seq
                count += len(group)
        assert count == 2977

    def test_two_rectangles_need_no_insertion(self, monkeypatch):
        # the one term of two rectangles reads labels from 1, a normal
        # subtableau, so the column walk and the pass read its shape and
        # insert no word
        def insertion(word):
            raise AssertionError(f"inserted a word of {len(word)} letters")

        monkeypatch.setattr(energy, "insertion_shape", insertion)
        energy._lrt_energies.cache_clear()
        kpoly._k_counts.cache_clear()
        try:
            wide = RectSequence([(1, 1100), (1, 1100)])
            assert k_polynomial((1400, 800), wide) == LaurentPolynomial({300: 1})
            narrow = RectSequence([(1, 30), (1, 30)])
            gc = graded_character(narrow)
            assert dict(gc.terms) == {partition((60 - k, k)): LaurentPolynomial({30 - k: 1}) for k in range(31)}
            # k_polynomial and graded_character took the column walk; the
            # pass over tableaux must need no insertion either
            assert sorted(e for group in energy._lrt_energies(narrow).values() for e in group.values()) == list(range(31))
        finally:
            energy._lrt_energies.cache_clear()
            kpoly._k_counts.cache_clear()


class TestCharge:
    def test_key_is_zero(self):
        assert classical_charge(key((3, 2, 1))) == 0
        assert classical_charge(key((2, 2))) == 0

    def test_standard_shapes(self):
        seq3 = RectSequence([(1, 1)] * 3)
        charges = sorted(
            classical_charge(t) for t in lrt_tableaux((2, 1), seq3)
        )
        assert charges == [1, 2]
        seq4 = RectSequence([(1, 1)] * 4)
        assert sorted(classical_charge(t) for t in lrt_tableaux((2, 2), seq4)) == [2, 4]

    def test_single_row_maximal(self):
        for n in (2, 3, 4, 5):
            row = column_insert(tuple(range(1, n + 1)))
            assert classical_charge(row) == n * (n - 1) // 2

    def test_word_charge_values(self):
        assert charge_word((3, 4, 1, 2)) == 4
        assert charge_word((2, 4, 1, 3)) == 2
        assert charge_word((2, 1, 1)) == 0
        assert charge_word((1, 1, 2)) == 1

    def test_requires_partition_content(self):
        with pytest.raises(ValueError):
            charge_word((2, 2, 1))

    def test_matches_energy_on_kostka(self):
        for widths in [(2, 1, 1), (2, 2, 1), (3, 2), (1, 1, 1, 1), (2, 2, 2)]:
            seq = RectSequence([(1, w) for w in widths])
            for lam in partitions_of(sum(widths), len(widths)):
                for t in lrt_tableaux(lam, seq):
                    assert tableau_energy(LRTableau(t, seq)) == classical_charge(t)


class TestRestrictedD:
    def test_reduces_to_d_stat_for_pairs(self):
        # for two rectangles, d counts the cells of shape(q) strictly east
        # of column max(mu_1, mu_2)
        seq = RectSequence([(1, 2), (2, 1)])
        for lam in partitions_of(4, 3):
            for t in lrt_tableaux(lam, seq):
                east = sum(max(0, part - 2) for part in t.outer)
                assert restricted_d(LRTableau(t, seq), 1) == east
