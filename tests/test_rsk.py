from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rectcrys.crystal import CrystalElement, RectSequence, signature
from rectcrys.errors import InconsistentPairError, NonLRError, ShapeMismatchError
from rectcrys.rsk import (
    TableauPair,
    _lr_rows,
    enumerate_lrt,
    is_r_lr,
    lrt_tableaux,
    peel_recording,
    rsk_inverse,
    rsk_pair,
)
from rectcrys.tableaux import (
    Tableau,
    column_insert,
    conjugate,
    enumerate_cst,
    key,
    partitions_of,
    record,
    unrecord,
)
from rectcrys.verify import rect_sequences

from oracles import content, enumerate_crystal


def hook_content(lam, n: int) -> int:
    """Column-strict tableaux of shape ``lam`` over 1..n, by the
    hook-content formula."""
    cols = conjugate(lam)
    num = den = 1
    for r, row in enumerate(lam):
        for c in range(row):
            num *= n + c - r
            den *= row - c + cols[c] - r - 1
    return num // den


def highest_weight_recording(b: CrystalElement) -> Tableau:
    """Recording tableau of an sl_n highest weight element by content transfer:
    its i-th row holds m copies of j exactly when row j of b holds m copies
    of i."""
    n = b.seq.n
    rows: list[list[int]] = [[] for _ in range(n)]
    for j, row in enumerate((row for t in b.factors for row in t.rows), start=1):
        for x in row:
            rows[x - 1].append(j)
    return Tableau([tuple(sorted(r)) for r in rows], (), n=n)


def old_is_r_lr(word, seq: RectSequence) -> bool:
    """The predicate of the old filter: every subalphabet restriction of the
    word column-inserts to the key tableau of its rectangle."""
    if any(x < 1 or x > seq.n for x in word):
        return False
    for j in range(1, seq.m + 1):
        lo, hi = seq.subalphabet(j)
        sub = tuple(x for x in word if lo <= x <= hi)
        if column_insert(sub, n=seq.n) != seq.key_tableau(j):
            return False
    return True


class TestPair:
    def test_single_factor_key(self):
        seq = RectSequence([(2, 3)])
        y = seq.key_tableau(1)
        pair = rsk_pair(CrystalElement(seq, [y]))
        assert pair.p == y
        assert pair.q == y  # recording of a key is the key itself

    def test_golden(self, golden, golden_b):
        pair = rsk_pair(golden_b)
        assert pair.p.to_json() == golden["p"]
        assert pair.q.to_json() == golden["q"]

    def test_highest_weight_content_transfer(self):
        for rects in ([(1, 2), (1, 1)], [(2, 2), (1, 1)], [(1, 1), (1, 1), (1, 1)]):
            seq = RectSequence(rects)
            for b in enumerate_crystal(seq):
                if any(signature(b, i).eps for i in range(1, seq.n)):
                    continue
                pair = rsk_pair(b)
                assert pair.q == highest_weight_recording(b)
                assert pair.p == key(content(b), n=seq.n)

    def test_shapes_match(self, golden_b):
        pair = rsk_pair(golden_b)
        assert pair.p.outer == pair.q.outer

    def test_pair_shape_mismatch_rejected(self):
        with pytest.raises(ShapeMismatchError):
            TableauPair(Tableau([[1, 1]]), Tableau([[1], [2]]))


class TestInverse:
    def test_roundtrip_exhaustive(self):
        for rects in ([(1, 2), (2, 1)], [(1, 1), (1, 1), (1, 1)], [(2, 2), (2, 1)]):
            seq = RectSequence(rects)
            for b in enumerate_crystal(seq):
                assert rsk_inverse(rsk_pair(b), seq) == b

    def test_stacked_keys_from_pair(self):
        # two rectangles with weakly decreasing widths: the gamma-shaped pair
        # recovers the stacked keys
        seq = RectSequence([(1, 3), (2, 2)])
        gamma = seq.gamma()
        q = lrt_tableaux(gamma, seq)[0]
        b = rsk_inverse(TableauPair(key(gamma, n=seq.n), q), seq)
        assert b.factors[0] == seq.key_tableau(1)
        assert b.factors[1] == seq.key_tableau(2)

    def test_non_lr_rejected(self):
        seq = RectSequence([(1, 1), (1, 1)])
        p = Tableau([[1, 1]], n=2)
        q = Tableau([[1, 1]], n=2)  # content (2, 0) is not gamma
        with pytest.raises(NonLRError):
            rsk_inverse(TableauPair(p, q), seq)

    def test_inconsistent_pair_rejected(self):
        # the peel ejects the rows (1,) and (1,), which do not stack into a
        # column-strict factor
        with pytest.raises(InconsistentPairError, match="factor 1: "):
            peel_recording(Tableau([[1, 1]]), Tableau([[1, 2]]), RectSequence([(2, 1)]))


class TestIsRLr:
    def test_single_key(self):
        seq = RectSequence([(2, 3)])
        assert is_r_lr(seq.key_tableau(1).word(), seq)

    def test_golden_recording(self, golden, golden_seq):
        q = Tableau.from_json(golden["q"], n=7)
        assert is_r_lr(q.word(), golden_seq)

    def test_content_mismatch(self):
        assert not is_r_lr((1, 1), RectSequence([(1, 1), (1, 1)]))

    def test_out_of_alphabet(self):
        assert not is_r_lr((3,), RectSequence([(1, 1), (1, 1)]))


class TestEnumerateLrt:
    def test_two_rectangles_stacked_shape(self):
        seq = RectSequence([(1, 3), (2, 2)])
        found = enumerate_lrt(seq.gamma(), seq)
        assert len(found) == 1

    def test_two_rectangles_at_most_one(self):
        for rects in ([(1, 2), (2, 1)], [(2, 2), (1, 1)], [(1, 3), (1, 2)]):
            seq = RectSequence(rects)
            for lam in partitions_of(seq.ncells, seq.n):
                assert len(enumerate_lrt(lam, seq)) <= 1
                swapped = seq.swapped(1)
                assert len(enumerate_lrt(lam, seq)) == len(
                    enumerate_lrt(lam, swapped)
                )

    def test_kostka_standard(self):
        seq = RectSequence([(1, 1), (1, 1), (1, 1)])
        found = enumerate_lrt((2, 1), seq)
        assert [t.tableau.rows for t in found] == [((1, 3), (2,)), ((1, 2), (3,))]

    def test_wrong_size_rejected(self):
        for enumerate_ in (enumerate_lrt, lrt_tableaux):
            with pytest.raises(ValueError):
                enumerate_((2, 2), RectSequence([(1, 1), (1, 1), (1, 1)]))

    def test_more_rows_than_letters_is_empty(self):
        assert lrt_tableaux((1, 1, 1), RectSequence([(1, 2), (1, 1)])) == ()

    def test_shapes_in_partitions_of_order(self):
        # the suites iterate the walk's shapes where they iterated partitions_of
        for seq in rect_sequences(4, 7):
            by_shape = _lr_rows(seq)
            assert all(by_shape.values())
            assert list(by_shape) == [lam for lam in partitions_of(seq.ncells, seq.n) if lam in by_shape]

    def test_deterministic_order(self):
        seq = RectSequence([(1, 1), (1, 1), (1, 1), (1, 1)])
        words = [t.tableau.word() for t in enumerate_lrt((2, 1, 1), seq)]
        assert words == sorted(words)


class TestGeneratedAgainstFilter:
    """The direct enumeration and the signature-rule predicate against the
    old route: column-strict tableaux of content gamma(R) filtered by
    ``old_is_r_lr``, on every (lambda, R) of rect_sequences(4, 8)."""

    def test_matches_filter(self):
        cst = {}
        pairs = 0
        for seq in rect_sequences(4, 8):
            n = seq.n
            for lam in partitions_of(seq.ncells, n):
                if (n, lam) not in cst:
                    cst[n, lam] = list(enumerate_cst(lam, n))
                filtered = []
                for t in cst[n, lam]:
                    word = t.word()
                    old = old_is_r_lr(word, seq)
                    assert is_r_lr(word, seq) == old, (word, seq)
                    if old and t.content(n) == seq.gamma():
                        filtered.append(t)
                filtered.sort(key=Tableau.word)
                assert [lr.tableau for lr in enumerate_lrt(lam, seq)] == filtered, (lam, seq)
                pairs += 1
        assert pairs == 2603


group_lists = st.lists(
    st.lists(st.integers(min_value=1, max_value=4), max_size=4).map(
        lambda g: tuple(sorted(g))
    ),
    max_size=5,
)


class TestStandardRecording:
    """record/unrecord, with single-letter groups giving standard recording."""

    @settings(max_examples=80, deadline=None)
    @given(group_lists)
    def test_roundtrip(self, groups):
        assert unrecord(*record(groups), len(groups)) == groups

    def test_is_standard(self):
        p, q = record([(x,) for x in reversed((2, 1, 2))])
        assert p == column_insert((2, 1, 2))
        assert sorted(x for row in q.rows for x in row) == [1, 2, 3]


class TestImageCount:
    def test_bijection_cardinality(self):
        for rects in ([(1, 2), (2, 1)], [(1, 1), (1, 2), (1, 1)]):
            seq = RectSequence(rects)
            total = sum(1 for _ in enumerate_crystal(seq))
            count = 0
            for lam in partitions_of(seq.ncells, seq.n):
                cst = len(list(enumerate_cst(lam, seq.n)))
                count += cst * len(lrt_tableaux(lam, seq))
            assert count == total

    def test_hook_content_count(self):
        # sum over the walk's shapes of |LRT(lam; R)| * dim_n(lam) is |B^R|;
        # both sides by the hook-content formula, no crystal scanned
        for seq in rect_sequences(5, 8):
            n = seq.n
            count = sum(len(ts) * hook_content(lam, n) for lam, ts in _lr_rows(seq).items())
            assert count == prod(hook_content((mu,) * eta, n) for eta, mu in seq.rects), seq
