import pytest

from rectcrys.affine import (
    chi,
    cocyclage_witness,
    e0,
    f0,
    pair_promote,
    promote,
    promote_inverse,
    promote_inverse_tableau,
    promote_tableau,
)
from rectcrys.crystal import CrystalElement, RectSequence, young_w0
from rectcrys.errors import NonLRError, RowNError
from rectcrys.rsk import LRTableau, lrt_tableaux, rsk_pair
from rectcrys.tableaux import Tableau, column_insert, enumerate_cst, partitions_of, reverse_row_insert
from conftest import element_from
from oracles import (
    cell_promote,
    cell_promote_inverse,
    chi_inverse,
    content,
    enumerate_crystal,
    eps0,
    string_lengths,
)


class TestPromote:
    def test_full_height_rectangle_fixed(self):
        for n, width in [(2, 1), (3, 2), (4, 3)]:
            seq = RectSequence([(n, width)])
            elems = list(enumerate_crystal(seq))
            assert len(elems) == 1
            assert promote(elems[0]) == elems[0]

    def test_golden(self, golden, golden_b):
        assert promote(golden_b) == element_from(golden, "rects", "pr_b")

    def test_roundtrip(self):
        for rects in ([(1, 2), (2, 1)], [(2, 2), (1, 1)], [(1, 1), (1, 1), (1, 1)]):
            seq = RectSequence(rects)
            for b in enumerate_crystal(seq):
                assert promote_inverse(promote(b)) == b
                assert promote(promote_inverse(b)) == b

    def test_order_divides_n(self):
        for n in (2, 3, 4):
            for k in range(1, n + 1):
                for width in (1, 2, 3):
                    seq = RectSequence([(k, width)])
                    for b in enumerate_crystal(seq):
                        cur = b
                        for _ in range(n):
                            cur = promote(cur)
                        assert cur == b

    def test_content_rotates(self):
        seq = RectSequence([(2, 2), (1, 1)])
        for b in enumerate_crystal(seq):
            before = content(b)
            after = content(promote(b))
            assert after == (before[-1],) + before[:-1]

    def test_matches_cell_map_route(self):
        # every normal shape with at most 7 cells over at most 5 letters
        count = rectangles = 0
        for size in range(1, 8):
            for n in range(1, 6):
                for lam in partitions_of(size, n):
                    for t in enumerate_cst(lam, n):
                        count += 1
                        p = promote_tableau(t, n)
                        assert p == cell_promote(t, n)
                        if len(set(lam)) == 1:
                            rectangles += 1
                            inv = promote_inverse_tableau(t, n)
                            assert inv == cell_promote_inverse(t, n)
                            assert promote_inverse_tableau(p, n) == t
        assert (count, rectangles) == (10334, 1697)

    def test_shape_errors(self):
        skew = Tableau([[1], [2]], inner=[1], n=2)
        with pytest.raises(ValueError, match="normal shape"):
            promote_tableau(skew)
        for t in (skew, Tableau([[1, 1], [2]], n=2)):
            with pytest.raises(ValueError, match="rectangle"):
                promote_inverse_tableau(t)


class TestZeroOperators:
    def test_golden(self, golden, golden_b):
        assert e0(golden_b) == element_from(golden, "rects", "e0_b")

    def test_partial_inverse(self):
        seq = RectSequence([(1, 2), (1, 1)])
        for b in enumerate_crystal(seq):
            eb = e0(b)
            if eb is not None:
                assert f0(eb) == b
            fb = f0(b)
            if fb is not None:
                assert e0(fb) == b

    def test_zero_string_through_stacked_keys(self):
        # two equal rectangles: the stacked-key element has eps_0 = width
        for eta, mu in [(1, 1), (1, 2), (2, 1), (2, 2)]:
            seq = RectSequence([(eta, mu), (eta, mu)])
            b = CrystalElement(seq, [seq.key_tableau(1), seq.key_tableau(2)])
            count = 0
            cur = b
            while True:
                cur = e0(cur)
                if cur is None:
                    break
                count += 1
            assert count == eps0(b) == mu

    def test_pairing_color_zero(self):
        seq = RectSequence([(1, 2), (2, 1)])
        for b in enumerate_crystal(seq):
            counts = content(b)
            p, q = string_lengths(b, 0)
            assert p - q == counts[-1] - counts[0]


class TestPairPromote:
    def test_golden_trace(self, golden, golden_b, golden_seq):
        pair = rsk_pair(golden_b)
        newpair, trace = pair_promote(pair, golden_seq)
        assert [list(c) for c in trace.removed_strip] == golden["removed_strip"]
        assert list(trace.ejected) == golden["ejected"]
        assert trace.intermediate.to_json() == golden["intermediate"]
        assert list(young_w0(trace.ejected, golden_seq)) == golden["w0_ejected"]
        assert newpair.q.to_json() == golden["q_pr"]
        assert [list(c) for c in trace.added_strip] == golden["added_strip"]
        assert newpair.p.to_json() == golden["p_pr"]

    def test_agrees_with_element_route(self):
        for rects in ([(1, 2), (2, 1)], [(1, 1), (1, 1), (1, 1)], [(2, 2), (1, 2)]):
            seq = RectSequence(rects)
            for b in enumerate_crystal(seq):
                pair, _ = pair_promote(rsk_pair(b), seq)
                assert pair == rsk_pair(promote(b))

    def test_no_top_letters(self):
        # nothing to move: promotion only shifts entries
        seq = RectSequence([(1, 2), (2, 1)])
        b = CrystalElement(
            seq, [Tableau([[1, 1]], n=3), Tableau([[1], [2]], n=3)]
        )
        pair, trace = pair_promote(rsk_pair(b), seq)
        assert trace.removed_strip == () and trace.ejected == ()
        assert pair == rsk_pair(promote(b))


class TestChi:
    def test_kostka_is_cyclic_shift(self):
        seq = RectSequence([(1, 1), (1, 1), (1, 1)])
        word = (2, 1, 3)
        assert chi(word, seq) == (3, 2, 1)
        assert chi_inverse(chi(word, seq), seq) == word

    def test_requires_lr(self):
        seq = RectSequence([(1, 1), (1, 1)])
        with pytest.raises(NonLRError):
            chi((2, 2), seq)
        with pytest.raises(NonLRError):
            chi((), RectSequence([(1, 2), (1, 1)]))

    def test_golden_identity(self, golden, golden_seq):
        # the conjugated cyclage undoes the strip transfer on the word level
        qhat = Tableau.from_json(golden["intermediate"], n=7)
        v = tuple(golden["ejected"])
        lhs = chi_inverse(v + qhat.word(), golden_seq)
        rhs = young_w0(qhat, golden_seq).word() + tuple(
            young_w0(v, golden_seq)
        )
        assert lhs == rhs
        assert column_insert(lhs, n=7).to_json() == golden["q_pr"]

    def test_result_is_lr(self):
        from rectcrys.rsk import is_r_lr

        seq = RectSequence([(1, 2), (1, 1), (1, 1)])
        for lam in partitions_of(4, 3):
            for t in lrt_tableaux(lam, seq):
                shifted = chi(t.word(), seq)
                assert is_r_lr(shifted, seq)

    def test_moves_one_corner(self):
        # shape of the inserted cyclage differs by moving a single cell
        for rects in ([(1, 2), (1, 1), (1, 1)], [(1, 1), (1, 1), (1, 1)]):
            seq = RectSequence(rects)
            for lam in partitions_of(seq.ncells, seq.n):
                for t in lrt_tableaux(lam, seq):
                    corners = [
                        (r, lam[r - 1])
                        for r in range(1, len(lam) + 1)
                        if (r == len(lam) or lam[r] < lam[r - 1]) and r < seq.n
                    ]
                    for cell in corners:
                        u, x = reverse_row_insert(t, cell)
                        moved = column_insert(chi(u.word() + (x,), seq), n=seq.n)
                        before = set(Tableau.from_json(t.to_json()).cells())
                        after = set(moved.cells())
                        # the corner is re-inserted somewhere, possibly back
                        assert before - after <= {cell}
                        assert len(before - after) == len(after - before)


class TestCocyclage:
    def test_bottom_row_rejected(self):
        seq = RectSequence([(1, 1), (1, 1)])
        q = lrt_tableaux((1, 1), seq)[0]
        with pytest.raises(RowNError):
            cocyclage_witness(q, seq, (2, 1))

    def test_witness_records_q(self):
        seq = RectSequence([(1, 2), (1, 1), (1, 1)])
        for lam in partitions_of(4, 3):
            for t in lrt_tableaux(lam, seq):
                corners = [
                    (r, lam[r - 1])
                    for r in range(1, len(lam) + 1)
                    if (r == len(lam) or lam[r] < lam[r - 1]) and r < 3
                ]
                for cell in corners:
                    b = cocyclage_witness(t, seq, cell)
                    assert rsk_pair(b).q == t
                    eb = e0(b)
                    assert eb is not None
                    u, x = reverse_row_insert(t, cell)
                    assert rsk_pair(eb).q == column_insert(
                        chi(u.word() + (x,), seq), n=3
                    )

    def test_stuck_component(self):
        # three rectangles where e_0 reaches a component of equal energy
        from rectcrys.energy import tableau_energy

        seq = RectSequence([(1, 2), (1, 1), (1, 1)])
        src = Tableau([[1, 1], [2, 3]], n=3)
        dst = Tableau([[1, 1, 3], [2]], n=3)
        admitted = []
        for b in enumerate_crystal(seq):
            if rsk_pair(b).q != src:
                continue
            eb = e0(b)
            if eb is not None:
                admitted.append(eb)
                assert rsk_pair(eb).q == dst
        assert len(admitted) == 5
        assert tableau_energy(LRTableau(src, seq)) == tableau_energy(
            LRTableau(dst, seq)
        )
