import itertools
import pickle

import pytest

import rectcrys
from rectcrys import crystal
from rectcrys.crystal import (
    CrystalElement,
    RectSequence,
    e,
    f,
    pairing,
    reflection,
    signature,
    young_w0,
)
from rectcrys.tableaux import Tableau, column_insert
from rectcrys.verify import rect_sequences

from oracles import content, enumerate_crystal, eps, phi


def small_crystals(max_letters=3, max_cells=6):
    for rects in [
        [(1, 1), (1, 1)],
        [(1, 1), (1, 1), (1, 1)],
        [(1, 2), (2, 1)],
        [(2, 1), (1, 2)],
        [(2, 2), (1, 1)],
        [(1, 2), (1, 2), (1, 1)],
    ]:
        yield RectSequence(rects)


class TestRectSequence:
    def test_subalphabets(self, golden_seq):
        assert golden_seq.subalphabet(1) == (1, 2)
        assert golden_seq.subalphabet(2) == (3, 5)
        assert golden_seq.subalphabet(3) == (6, 7)
        assert golden_seq.gamma() == (2, 2, 3, 3, 3, 3, 3)

    def test_key_tableaux(self, golden_seq):
        assert golden_seq.key_tableau(3).rows == ((6, 6, 6), (7, 7, 7))

    def test_validation(self):
        with pytest.raises(ValueError):
            RectSequence([(0, 2)])
        with pytest.raises(ValueError):
            CrystalElement(RectSequence([(2, 2)]), [Tableau([[1, 1]])])

    def test_swapped_is_shared(self):
        for seq in rect_sequences(4, 6):
            for pos in range(1, seq.m):
                r = list(seq.rects)
                r[pos - 1], r[pos] = r[pos], r[pos - 1]
                assert seq.swapped(pos) == RectSequence(r)
                assert seq.swapped(pos) is seq.swapped(pos)


class TestInterning:
    RECTS = ((1, 2), (2, 1), (1, 1))

    def test_tuple_gives_the_same_object(self):
        assert RectSequence(self.RECTS) is RectSequence(tuple(self.RECTS))

    def test_other_arguments_give_an_equal_object(self):
        seq = RectSequence(self.RECTS)
        for arg in ([list(r) for r in self.RECTS], (r for r in self.RECTS), tuple(list(r) for r in self.RECTS)):
            other = RectSequence(arg)
            assert other == seq and hash(other) == hash(seq) and other.rects == self.RECTS

    @pytest.mark.parametrize(
        "rects",
        [((0, 2),), [(2, -1)], ((1, 2, 3),), [(1,)], (("x", 1),), [(1, 2), (1, "y")]],
        ids=["zero", "negative", "three", "one", "text-tuple", "text-list"],
    )
    def test_malformed_rejected(self, rects):
        with pytest.raises(ValueError):
            RectSequence(rects)

    def test_pickle_round_trip(self):
        seq = RectSequence(self.RECTS)
        back = pickle.loads(pickle.dumps(seq))
        assert back == seq and back.n == 4 and back.subalphabet(2) == (2, 3)

    def test_memo_stays_bounded(self):
        bound = crystal._interned.cache_info().maxsize
        first = RectSequence(((1, 1),))
        for k in range(2, bound + 12):
            RectSequence(((1, k),))
        assert crystal._interned.cache_info().currsize == bound
        # an evicted sequence is built again, equal, and keys what it keyed
        again = RectSequence([(1, 1)])
        assert again is not first and again == first and {first: 1}[again] == 1

    def test_clear_caches_empties_the_memo(self):
        RectSequence(self.RECTS)
        rectcrys.clear_caches()
        assert crystal._interned.cache_info().currsize == 0
        assert RectSequence(self.RECTS).rects == self.RECTS


def textbook_signature(word, i):
    """The signature rule as stated: write - for each i and + for each i+1,
    cancel adjacent "+ -" pairs until none is left; f acts on the rightmost
    surviving -, e on the leftmost surviving +."""
    m = len(word)
    signs = [(m - k, "-" if x == i else "+") for k, x in enumerate(word) if x in (i, i + 1)]
    k = 0
    while k + 1 < len(signs):
        if signs[k][1] == "+" and signs[k + 1][1] == "-":
            del signs[k : k + 2]
            k = 0
        else:
            k += 1
    minus = [pos for pos, s in signs if s == "-"]
    plus = [pos for pos, s in signs if s == "+"]
    f_pos = minus[-1] if minus else None
    e_pos = plus[0] if plus else None
    return len(minus), len(plus), f_pos, e_pos, tuple(signs)


class TestSignature:
    def test_matches_textbook_rule(self):
        for length in range(8):
            for word in itertools.product((1, 2, 3), repeat=length):
                for i in (1, 2):
                    s = crystal._signature(crystal._word_pairs(word, i))
                    got = (s.phi, s.eps, s.f_pos, s.e_pos, s.reduced)
                    assert got == textbook_signature(word, i), (word, i)

    def test_single_letter(self):
        s = crystal._signature(crystal._word_pairs((1,), 1))
        assert (s.phi, s.eps, s.f_pos, s.e_pos) == (1, 0, 1, None)

    def test_cancelling_pair(self):
        s = crystal._signature(crystal._word_pairs((2, 1), 1))
        assert (s.phi, s.eps, s.f_pos, s.e_pos) == (0, 0, None, None)

    def test_golden_promoted(self, golden, golden_seq):
        prb = CrystalElement(
            golden_seq,
            [Tableau.from_json(t, n=7) for t in golden["pr_b"]],
        )
        sig = signature(prb, 1)
        positions = [p for p, _ in sig.reduced]
        signs = "".join(s for _, s in sig.reduced)
        assert positions == golden["signature_e1_pr"]["positions"]
        assert signs == golden["signature_e1_pr"]["signs"]
        assert sig.e_pos == 2


class TestOperators:
    def test_defining_representation(self):
        seq = RectSequence([(1, 1), (1, 1)])
        box = lambda x: Tableau([[x]], n=2)
        b = CrystalElement(seq, [box(1), box(1)])
        fb = f(b, 1)
        # the rightmost surviving minus sits in tensor position 1
        assert [t.rows for t in fb.factors] == [((2,),), ((1,),)]
        assert e(fb, 1) == b

    def test_highest_weight_killed(self):
        # stacked keys are highest weight when the widths weakly decrease
        seq = RectSequence([(2, 3), (3, 2), (1, 1)])
        hw = CrystalElement(seq, [seq.key_tableau(j) for j in range(1, seq.m + 1)])
        for i in range(1, seq.n):
            assert e(hw, i) is None
        assert content(hw) == (3, 3, 2, 2, 2, 1)

    def test_weight_change(self):
        for seq in small_crystals():
            for b in enumerate_crystal(seq):
                for i in range(1, seq.n):
                    fb = f(b, i)
                    if fb is None:
                        continue
                    before, after = content(b), content(fb)
                    diff = [x - y for x, y in zip(before, after)]
                    assert diff[i - 1] == 1 and diff[i] == -1
                    assert sum(abs(d) for d in diff) == 2

    def test_string_length_pairing(self):
        for seq in small_crystals():
            for b in enumerate_crystal(seq):
                for i in range(1, seq.n):
                    assert pairing(i, content(b)) == phi(b, i) - eps(b, i)


class TestReflection:
    def test_fixed_when_balanced(self):
        seq = RectSequence([(1, 1), (1, 1)])
        box = lambda x: Tableau([[x]], n=2)
        b = CrystalElement(seq, [box(1), box(2)])
        sig = signature(b, 1)
        assert sig.phi == sig.eps
        assert reflection(b, 1) == b

    def test_single_box(self):
        seq = RectSequence([(2, 1)])
        b = CrystalElement(seq, [Tableau([[1], [2]], n=2)])
        assert reflection(b, 1) == b  # the full column is balanced

    def test_involution_exhaustive(self):
        seq = RectSequence([(1, 1), (1, 1), (1, 1)])
        for b in enumerate_crystal(seq):
            for i in (1, 2):
                assert reflection(reflection(b, i), i) == b

    def test_far_colors_commute(self):
        seq = RectSequence([(1, 1), (1, 1), (1, 1), (1, 1)])
        for b in itertools.islice(enumerate_crystal(seq), 64):
            lhs = reflection(reflection(b, 1), 3)
            rhs = reflection(reflection(b, 3), 1)
            assert lhs == rhs

    def test_braid_relation(self):
        for rects in ([(1, 1), (1, 1), (1, 1)], [(1, 2), (2, 1)], [(3, 2)]):
            seq = RectSequence(rects)
            for b in enumerate_crystal(seq):
                lhs = reflection(reflection(reflection(b, 1), 2), 1)
                rhs = reflection(reflection(reflection(b, 2), 1), 2)
                assert lhs == rhs


class TestYoungW0:
    def test_trivial_subgroups(self):
        seq = RectSequence([(1, 2), (1, 1), (1, 3)])
        word = (3, 1, 2, 2, 1, 3)
        assert young_w0(word, seq) == word

    def test_single_letters_reverse(self, golden_seq):
        assert young_w0((7,), golden_seq) == (6,)
        assert young_w0((3,), golden_seq) == (5,)
        assert young_w0((4,), golden_seq) == (4,)

    def test_golden_intermediate(self, golden, golden_seq):
        qhat = Tableau.from_json(golden["intermediate"], n=7)
        assert young_w0(qhat, golden_seq).to_json() == golden["w0_intermediate"]

    def test_involution_and_shape(self, golden_seq):
        t = Tableau.from_json(
            {"inner": [], "outer": [3, 2], "rows": [[1, 3, 6], [2, 7]]}, n=7
        )
        image = young_w0(t, golden_seq)
        assert image.outer == t.outer
        assert young_w0(image, golden_seq) == t
        assert column_insert(image.word()).outer == column_insert(t.word()).outer

    def test_content_reversal(self, golden_seq):
        word = (1, 1, 2, 3, 3, 6)
        image = young_w0(word, golden_seq)
        counts = lambda w, lo, hi: [w.count(x) for x in range(lo, hi + 1)]
        assert counts(image, 1, 2) == counts(word, 1, 2)[::-1]
        assert counts(image, 3, 5) == counts(word, 3, 5)[::-1]
        assert counts(image, 6, 7) == counts(word, 6, 7)[::-1]
