import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rectcrys.tableaux import (
    Tableau,
    antinormal,
    column_insert,
    conjugate,
    enumerate_cst,
    insertion_shape,
    key,
    partition,
    partitions_of,
    peel_strip,
    record,
    reverse_column_insert,
    reverse_row_insert,
    unrecord,
)

from oracles import cell_map, slide_into, tableau_from_cells

words = st.lists(st.integers(min_value=1, max_value=4), min_size=0, max_size=7).map(tuple)


def knuth_class(word):
    """Closure of a word under elementary Knuth transpositions."""
    seen = {tuple(word)}
    frontier = [tuple(word)]
    while frontier:
        u = frontier.pop()
        for k in range(len(u) - 2):
            a, b, c = u[k : k + 3]
            swaps = []
            if a <= c < b:
                swaps.append((b, a, c))  # xzy <-> zxy
            if b <= c < a:
                swaps.append((b, a, c))
            if b < a <= c:
                swaps.append((a, c, b))  # yxz <-> yzx
            if c < a <= b:
                swaps.append((a, c, b))
            for triple in swaps:
                v = u[:k] + triple + u[k + 3 :]
                if v not in seen:
                    seen.add(v)
                    frontier.append(v)
    return seen


def antinormal_oracle(word, n=7):
    """Rotate-and-complement route to the antinormal tableau."""
    if not word:
        return Tableau(())
    comp = tuple(n + 1 - x for x in reversed(word))
    p = column_insert(comp)
    k, width = len(p.rows), p.outer[0]
    rows = [tuple(n + 1 - x for x in reversed(p.rows[k - 1 - i])) for i in range(k)]
    inner = [width - p.outer[k - 1 - i] for i in range(k)]
    return Tableau(rows, inner)


def word_staircase(word):
    """The word laid out anti-diagonally, one letter per row, bottom row first."""
    m = len(word)
    return {(m - i, i + 1): word[i] for i in range(m)}


def is_skew(cells):
    """Whether ``cells`` is some lambda/mu: every cell between two of its
    cells (weakly southeast of one, weakly northwest of the other) is in it."""
    return all(
        (r, c) in cells
        for (r1, c1), (r2, c2) in itertools.product(cells, repeat=2)
        if r1 <= r2 and c1 <= c2
        for r in range(r1, r2 + 1)
        for c in range(c1, c2 + 1)
    )


def is_antinormal(cells):
    """Exactly one southeast corner: a rotated partition diagram."""
    corners = [(r, c) for r, c in cells if (r + 1, c) not in cells and (r, c + 1) not in cells]
    return len(corners) == 1


def antinormal_targets(cells):
    """Valid inward-slide targets on the southeast side of the current shape."""
    occupied = set(cells)
    rmax = max(r for r, _ in occupied)
    cmax = max(c for _, c in occupied)
    out = []
    for r in range(1, rmax + 1):
        for c in range(1, cmax + 1):
            cand = (r, c)
            if cand in occupied:
                continue
            if (r + 1, c) in occupied or (r, c + 1) in occupied:
                continue
            if (r - 1, c) not in occupied and (r, c - 1) not in occupied:
                continue
            if is_skew(occupied | {cand}):
                out.append(cand)
    return out


class TestPartitions:
    def test_trimming_and_validation(self):
        assert partition((3, 2, 0, 0)) == (3, 2)
        assert partition(()) == ()
        with pytest.raises(ValueError):
            partition((1, 2))

    def test_conjugate(self):
        assert conjugate((4, 2, 1)) == (3, 2, 1, 1)
        assert conjugate(conjugate((5, 3, 3, 1))) == (5, 3, 3, 1)

    def test_partitions_of(self):
        assert list(partitions_of(4, 2)) == [(4,), (3, 1), (2, 2)]
        assert list(partitions_of(0, 3)) == [()]


class TestReadingWords:
    def test_single_row(self):
        assert Tableau([[1, 1, 2]]).word() == (1, 1, 2)

    def test_key_two_rows(self):
        assert Tableau([[1, 1], [2, 2]]).word() == (2, 2, 1, 1)

    def test_golden_insertion_tableau(self, golden):
        p = Tableau.from_json(golden["p"])
        assert p.word() == (7, 6, 5, 5, 4, 4, 4, 3, 3, 3, 3, 2, 2, 2, 2, 1, 1, 1, 1)


class TestColumnInsert:
    def test_single_letter(self):
        assert column_insert((1,)).rows == ((1,),)

    def test_fixes_reading_words(self):
        for outer in [(2, 1), (3, 2), (2, 2, 1)]:
            for t in enumerate_cst(outer, 4):
                assert column_insert(t.word()) == t

    def test_golden(self, golden, golden_b):
        word = [x for t in reversed(golden_b.factors) for x in t.word()]
        assert column_insert(word).to_json() == golden["p"]

    def test_empty(self):
        assert column_insert(()).rows == ()

    @settings(max_examples=60, deadline=None)
    @given(words)
    def test_knuth_equivalence_brute_force(self, w):
        t = column_insert(w)
        assert t.word() in knuth_class(w)

    @settings(max_examples=60, deadline=None)
    @given(words)
    def test_insertion_cells_are_reversible(self, w):
        t, q = record([(x,) for x in reversed(w)])
        cells = dict(zip(itertools.chain.from_iterable(q.rows), q.cells()))
        out = []
        for k in range(len(w), 0, -1):
            t, y = reverse_column_insert(t, cells[k])
            out.append(y)
        assert tuple(out) == w  # letters come back in left-to-right order


class TestRecord:
    def test_peel_errors(self):
        column = column_insert((2, 1))  # 1 above 2
        with pytest.raises(ValueError, match="not a removable corner"):
            peel_strip(column, [(1, 1)])
        with pytest.raises(ValueError, match="not weakly increasing"):
            peel_strip(column, [(2, 1), (1, 1)])
        with pytest.raises(ValueError, match="does not cover"):
            unrecord(column, Tableau([[], [1]], inner=[1]), 1)  # bottom cell only
        assert unrecord(column, Tableau([[1], [2]]), 2) == [(1,), (2,)]


class TestRowInsert:
    @settings(max_examples=40, deadline=None)
    @given(words)
    def test_roundtrip(self, w):
        # at every corner, the rest's word followed by the ejected letter
        # inserts back to t
        t = column_insert(w)
        rows = t.rows
        for r, row in enumerate(rows, start=1):
            if r == len(rows) or len(rows[r]) < len(row):
                u, x = reverse_row_insert(t, (r, len(row)))
                assert column_insert(u.word() + (x,)) == t

    @settings(max_examples=40, deadline=None)
    @given(words, st.integers(min_value=1, max_value=4))
    def test_appends_to_word(self, w, x):
        # appending x to the word adds one cell; reversing there returns x
        t, longer = column_insert(w), column_insert(w + (x,))
        (cell,) = set(longer.cells()) - set(t.cells())
        assert reverse_row_insert(longer, cell) == (t, x)


class TestAntinormal:
    def test_single_box(self):
        assert antinormal((1,)).rows == ((1,),)

    def test_rectangle_is_fixed(self):
        k = key((2, 2))
        assert antinormal(k.word()) == k

    def test_three_row_example(self):
        t = Tableau([[1, 3, 3], [2, 4, 4], [3, 5]])
        a = antinormal(t.word())
        assert a.outer == (3, 3, 3) and a.inner == (1,)
        assert a.rows == ((1, 3), (2, 3, 4), (3, 4, 5))

    @settings(max_examples=60, deadline=None)
    @given(words)
    def test_matches_complement_oracle(self, w):
        assert antinormal(w, n=7) == antinormal_oracle(w, n=7)

    @settings(max_examples=60, deadline=None)
    @given(words)
    def test_knuth_equivalent(self, w):
        assert column_insert(antinormal(w).word()) == column_insert(w)

    @settings(max_examples=30, deadline=None)
    @given(words, st.integers(min_value=0, max_value=2**30))
    def test_slide_order_independence(self, w, seed):
        if not w:
            return
        # inward jeu-de-taquin slides from the staircase, in a random order
        rng = random.Random(seed)
        cells = word_staircase(w)
        while not is_antinormal(cells):
            slide_into(cells, rng.choice(antinormal_targets(cells)))
        got = tableau_from_cells(cells)
        assert got == antinormal(w)


class TestKey:
    def test_examples(self):
        assert key((2, 2)).rows == ((1, 1), (2, 2))
        assert key((0, 3, 3)).rows == ((2, 2, 2), (3, 3, 3))
        assert key((2, 2, 2)).rows == ((1, 1), (2, 2), (3, 3))

    def test_content_and_shape(self):
        for gamma in [(1, 3, 2), (0, 2, 0, 2), (4,), ()]:
            t = key(gamma, n=max(4, len(gamma)))
            assert t.content(len(gamma) or 1)[: len(gamma)] == gamma
            assert t.outer == partition(sorted(gamma, reverse=True))

    def test_rejects_excess_letters(self):
        with pytest.raises(ValueError):
            key((1, 1, 1), n=2)


class TestSkewShape:
    def test_inner_longer_than_rows_rejected(self):
        # the inner shape must fit inside the outer one
        with pytest.raises(ValueError, match="more rows"):
            Tableau([[1, 2]], inner=(1, 1, 1))
        with pytest.raises(ValueError, match="more rows"):
            Tableau.from_json({"rows": [[1, 2]], "inner": [1, 1, 1]})
        assert Tableau([[1, 2], []], inner=(1, 1)).outer == (3,)


class TestShapeFromCells:
    # tableau_from_cells of the test oracles
    def test_roundtrip(self):
        skew = Tableau([[2, 3], [1, 4], [2]], inner=[2, 1])
        for t in [skew, *enumerate_cst((3, 1), 3)]:
            cells = cell_map(t)
            assert tableau_from_cells(cells) == t
            moved = {(r + 2, c + 3): v for (r, c), v in cells.items()}
            assert tableau_from_cells(moved) == t

    def test_rejects_non_skew(self):
        with pytest.raises(ValueError):
            tableau_from_cells({(1, 1): 1, (1, 3): 2})

    def test_insertion_shape_matches(self):
        for w in [(), (1,), (3, 1, 2, 2), (2, 2, 1, 1, 3)]:
            assert insertion_shape(w) == column_insert(w).outer
