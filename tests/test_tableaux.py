import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rectcrys.tableaux import (
    SkewShape,
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
    row_insert,
    shape_from_cells,
    slide_into,
    tableau_from_cells,
    tensor_shape,
    unrecord,
    _is_antinormal_cells,
)

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
    return Tableau(rows, inner).translate_normal()


def word_staircase(word):
    """The word laid out anti-diagonally, one letter per row, bottom row first."""
    m = len(word)
    return {(m - i, i + 1): word[i] for i in range(m)}


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
            try:
                shape_from_cells(occupied | {cand})
            except ValueError:
                continue
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


class TestTensorShape:
    def test_two_boxes(self):
        s = tensor_shape(SkewShape((1,)), SkewShape((1,)))
        assert (s.outer, s.inner) == ((2, 1), (1,))

    def test_two_rectangles(self):
        s = tensor_shape(SkewShape((2, 2)), SkewShape((3, 3)))
        assert (s.outer, s.inner) == ((5, 5, 2, 2), (2, 2))

    def test_seven_row_example(self, golden_seq):
        s = golden_seq.skew_shape()
        assert (s.outer, s.inner) == ((8, 8, 6, 6, 6, 3, 3), (6, 6, 3, 3, 3))

    def test_associative_up_to_translation(self):
        shapes = [SkewShape((2, 1)), SkewShape((3,)), SkewShape((1, 1))]
        a, b, c = shapes
        left = tensor_shape(tensor_shape(a, b), c)
        right = tensor_shape(a, tensor_shape(b, c))
        assert left == right


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
        assert column_insert(golden_b.word()).to_json() == golden["p"]

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
        cells = {v: cell for cell, v in q.cell_map().items()}
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
    @given(words, st.integers(min_value=1, max_value=4))
    def test_roundtrip(self, w, x):
        t = column_insert(w)
        t2, cell = row_insert(t, x)
        back, y = reverse_row_insert(t2, cell)
        assert (back, y) == (t, x)

    @settings(max_examples=40, deadline=None)
    @given(words, st.integers(min_value=1, max_value=4))
    def test_appends_to_word(self, w, x):
        t2, _ = row_insert(column_insert(w), x)
        assert t2 == column_insert(w + (x,))


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
        while not _is_antinormal_cells(cells):
            slide_into(cells, rng.choice(antinormal_targets(cells)))
        got = tableau_from_cells(cells).translate_normal()
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


class TestRestrict:
    def test_identity(self):
        t = Tableau([[1, 1, 2], [2, 3]])
        assert t.restrict(1, 3) == t

    def test_two_twos(self):
        r = Tableau([[1, 1], [2, 2]]).restrict(2, 2)
        assert (r.outer, r.inner, r.rows) == ((2, 2), (2,), ((), (2, 2)))

    def test_golden_strip(self, golden):
        p = Tableau.from_json(golden["p"])
        r = p.restrict(1, 6)
        assert set(p.cells()) - set(r.cells()) == {(7, 1)}

    def test_column_strictness_exhaustive(self):
        n = 3
        for outer in partitions_of(6, 3):
            inners = {()}
            for inner in itertools.chain.from_iterable(
                partitions_of(k, len(outer)) for k in range(1, sum(outer))
            ):
                if len(inner) <= len(outer) and all(
                    i <= o for i, o in zip(inner, outer)
                ):
                    inners.add(inner)
            for inner in inners:
                for t in _skew_fillings(outer, inner, n):
                    for lo in range(1, n + 1):
                        for hi in range(lo, n + 1):
                            t.restrict(lo, hi)._validate()


def _skew_fillings(outer, inner, n):
    shape = SkewShape(outer, inner)
    cells = sorted(shape.cells())
    if not cells:
        return
    assignment = {}

    def bt(k):
        if k == len(cells):
            yield tableau_from_cells(dict(assignment), n=n)
            return
        r, c = cells[k]
        lo = assignment.get((r, c - 1), 1)
        above = assignment.get((r - 1, c))
        if above is not None:
            lo = max(lo, above + 1)
        for x in range(lo, n + 1):
            assignment[(r, c)] = x
            yield from bt(k + 1)
            del assignment[(r, c)]

    yield from bt(0)


class TestShapeKinds:
    def test_normal_and_antinormal(self):
        assert SkewShape((3, 2)).is_normal()
        assert not SkewShape((3, 2)).is_antinormal()
        assert SkewShape((3, 3, 3), (1,)).is_antinormal()
        assert not SkewShape((3, 1), (1,)).is_normal()
        rect = SkewShape((2, 2))
        assert rect.is_normal() and rect.is_antinormal()


class TestShapeFromCells:
    def test_roundtrip(self):
        shape = SkewShape((4, 3, 1), (2, 1))
        assert shape_from_cells(shape.cells()) == shape

    def test_rejects_non_skew(self):
        with pytest.raises(ValueError):
            shape_from_cells({(1, 1), (1, 3)})

    def test_insertion_shape_matches(self):
        for w in [(), (1,), (3, 1, 2, 2), (2, 2, 1, 1, 3)]:
            assert insertion_shape(w) == column_insert(w).outer
