from typing import Sequence

import pytest

from rectcrys.crystal import RectSequence
from rectcrys.errors import NonLRError
from rectcrys.rmatrix import _sigma_pair, _two_factor_tau, lex_reduced_word, sigma_compose, sigma_swap, tau_swap
from rectcrys.rsk import LRTableau, is_r_lr, lrt_tableaux, rsk_pair
from rectcrys.tableaux import (
    Tableau,
    column_insert,
    enumerate_cst,
    partitions_of,
    record,
    unrecord,
)
from rectcrys.verify import rect_sequences

from conftest import element_from
from oracles import enumerate_crystal, sigma_pair_by_insertion, slide_into, slide_out_of, two_rectangle_pairs


def all_lr_words(seq, length):
    """Every LR word of the given length, by brute force over contents."""
    from itertools import product

    for w in product(range(1, seq.n + 1), repeat=length):
        if is_r_lr(w, seq):
            yield w


def sigma_word(u: Sequence[int], seq: RectSequence) -> tuple[int, ...]:
    """The swapped-sequence LR word with the same standard recording tableau
    and the switched insertion tableau.  ``seq`` must have two rectangles."""
    if seq.m != 2:
        raise ValueError("sigma_word expects a two-rectangle sequence")
    u = tuple(u)
    if not is_r_lr(u, seq):
        raise NonLRError(f"word is not {seq.rects}-LR")
    p = column_insert(u, n=seq.n)
    p_new = _two_factor_tau(p.outer, (seq.rects[1], seq.rects[0]))
    groups = unrecord(p_new, standard_recording(u), len(u))
    return tuple(x for (x,) in reversed(groups))


def standard_recording(u: Sequence[int]) -> Tableau:
    """Recording tableau of a plain word: one letter per group, rightmost first."""
    return record([(x,) for x in reversed(u)])[1]


def cyclic_shift_permutation(i: int, j: int, m: int) -> tuple[int, ...]:
    """One-line form of the cycle r_{i+1} r_{i+2} ... r_{j-1} used by the
    energy sum: position j moves to position i+1."""
    w = list(range(1, m + 1))
    for p in range(j - 1, i, -1):
        w[p - 1], w[p] = w[p], w[p - 1]
    winv = [0] * m
    for idx, val in enumerate(w, start=1):
        winv[val - 1] = idx
    return tuple(winv)


def kostka_tau_rows(
    top: Sequence[int], bottom: Sequence[int]
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Jeu-de-taquin route for the switch of two one-row factors.

    ``top`` is the earlier tensor position (upper row of the two-row skew
    tableau), ``bottom`` the later one.  Slides reshape the tableau until the
    row lengths are exchanged and the rows are again column-disjoint; returns
    (new_top, new_bottom).
    """
    top, bottom = tuple(top), tuple(bottom)
    a, b = len(top), len(bottom)
    cells: dict[tuple[int, int], int] = {}
    for k, x in enumerate(bottom):
        cells[(2, k + 1)] = x
    for k, x in enumerate(top):
        cells[(1, b + k + 1)] = x

    def row(r: int) -> list[int]:
        return sorted(c for (rr, c) in cells if rr == r)

    # rectify: pull the top row all the way left
    while row(1)[0] > 1:
        slide_out_of(cells, (1, row(1)[0] - 1))
    # regrow the bottom row to the swapped length
    while len(row(2)) < a:
        slide_into(cells, (2, len(row(2)) + 1))
    # push the top row right until the rows are column-disjoint
    while row(1)[0] <= a:
        slide_into(cells, (1, row(1)[-1] + 1))
    return tuple(cells[(1, c)] for c in row(1)), tuple(
        cells[(2, c)] for c in row(2)
    )


class TestTau:
    def test_equal_rectangles_identity(self):
        seq = RectSequence([(1, 2), (1, 2)])
        for lam in partitions_of(4, 2):
            for t in lrt_tableaux(lam, seq):
                assert tau_swap(LRTableau(t, seq), 1).tableau == t

    def test_involution(self):
        seq = RectSequence([(1, 2), (2, 1)])
        for lam in partitions_of(4, 3):
            for t in lrt_tableaux(lam, seq):
                q = LRTableau(t, seq)
                back = tau_swap(tau_swap(q, 1), 1)
                assert back.tableau == t and back.seq == seq

    def test_shape_preserved(self):
        seq = RectSequence([(1, 3), (2, 1)])
        for lam in partitions_of(5, 3):
            for t in lrt_tableaux(lam, seq):
                assert tau_swap(LRTableau(t, seq), 1).tableau.outer == t.outer


class TestSigma:
    def test_equal_rectangles_identity(self):
        seq = RectSequence([(2, 2), (2, 2)])
        for b in enumerate_crystal(seq):
            assert sigma_swap(b, 1) == b
        # Every factor pair of two equal rectangles of rect_sequences(4, 8),
        # over that sequence's alphabet: the energy walk skips these switches.
        pairs = set()
        for seq in rect_sequences(4, 8):
            pairs.update((rect, seq.n) for rect in seq.rects if seq.rects.count(rect) > 1)
        count = 0
        for (eta, mu), n in sorted(pairs):
            rows = [t.rows for t in enumerate_cst((mu,) * eta, n)]
            for rows1 in rows:
                for rows2 in rows:
                    assert _sigma_pair((eta, mu), (eta, mu), rows1, rows2, n) == (rows1, rows2)
                    count += 1
        assert count == 1151

    def test_agrees_with_insertion(self):
        # One-sided insertion and the peel plan against inserting the whole
        # element, on every pair of two distinct rectangles at n <= 4.
        count = 0
        for args in two_rectangle_pairs(4, 8):
            assert _sigma_pair.__wrapped__(*args) == sigma_pair_by_insertion(*args), args
            count += 1
        assert count == 22670

    def test_golden(self, golden, golden_b):
        tb = sigma_swap(golden_b, 2)
        assert tb == element_from(golden, "tau2_rects", "tau2_b")

    def test_keeps_insertion_tableau(self):
        for rects in ([(1, 2), (2, 1)], [(2, 2), (1, 1)], [(1, 3), (1, 1)]):
            seq = RectSequence(rects)
            for b in enumerate_crystal(seq):
                assert rsk_pair(sigma_swap(b, 1)).p == rsk_pair(b).p

    def test_matches_tau_on_recording(self):
        seq = RectSequence([(1, 2), (1, 1), (1, 1)])
        for b in enumerate_crystal(seq):
            for pos in (1, 2):
                got = rsk_pair(sigma_swap(b, pos)).q
                want = tau_swap(LRTableau(rsk_pair(b).q, seq), pos).tableau
                assert got == want

    def test_kostka_jdt_shortcut(self):
        for rects in ([(1, 2), (1, 1), (1, 1)], [(1, 1), (1, 3)], [(1, 2), (1, 2), (1, 1)]):
            seq = RectSequence(rects)
            for b in enumerate_crystal(seq):
                for pos in range(1, seq.m):
                    sb = sigma_swap(b, pos)
                    top, bottom = kostka_tau_rows(
                        b.factors[pos - 1].rows[0], b.factors[pos].rows[0]
                    )
                    assert sb.factors[pos - 1].rows[0] == top
                    assert sb.factors[pos].rows[0] == bottom


class TestSigmaWord:
    def test_preserves_standard_recording(self):
        seq = RectSequence([(1, 2), (1, 1)])
        swapped = seq.swapped(1)
        for w in all_lr_words(seq, 3):
            v = sigma_word(w, seq)
            assert standard_recording(v) == standard_recording(w)
            assert is_r_lr(v, swapped)
            assert column_insert(v).outer == column_insert(w).outer

    def test_rejects_non_lr(self):
        seq = RectSequence([(1, 1), (1, 1)])
        with pytest.raises(NonLRError):
            sigma_word((1, 1), seq)

    def test_roundtrip(self):
        seq = RectSequence([(2, 1), (1, 2)])
        for w in all_lr_words(seq, 4):
            v = sigma_word(w, seq)
            assert sigma_word(v, seq.swapped(1)) == w


class TestCompose:
    def test_identity(self, golden_b):
        assert sigma_compose(golden_b, (1, 2, 3)) == golden_b

    def test_lex_reduced_words(self):
        assert lex_reduced_word((1, 2, 3)) == []
        assert lex_reduced_word((2, 1, 3)) == [1]
        assert lex_reduced_word((3, 2, 1)) == [1, 2, 1]
        assert lex_reduced_word((2, 3, 1)) == [1, 2]

    def test_yang_baxter(self):
        seq = RectSequence([(1, 2), (1, 1), (1, 1)])
        for b in enumerate_crystal(seq):
            lhs = sigma_swap(sigma_swap(sigma_swap(b, 1), 2), 1)
            rhs = sigma_swap(sigma_swap(sigma_swap(b, 2), 1), 2)
            assert lhs == rhs

    def test_cocycle(self):
        seq = RectSequence([(1, 2), (1, 1), (1, 1)])
        v, w = (2, 1, 3), (1, 3, 2)
        vw = tuple(v[w[i] - 1] for i in range(3))
        for b in enumerate_crystal(seq):
            step = sigma_compose(b, w)
            assert sigma_compose(step, v) == sigma_compose(b, vw)

    def test_cyclic_shift_matches_walk(self):
        seq = RectSequence([(1, 2), (1, 1), (1, 1)])
        w = cyclic_shift_permutation(1, 3, 3)
        for b in enumerate_crystal(seq):
            assert sigma_compose(b, w) == sigma_swap(b, 2)

    def test_target_sequence(self, golden_b):
        out = sigma_compose(golden_b, (3, 1, 2))
        assert out.seq == golden_b.seq.permuted((3, 1, 2))
