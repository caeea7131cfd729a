"""RSK decomposition of B^R and Littlewood-Richardson recording tableaux.

An element b maps to the pair (p, q): p is the column-insertion tableau of
the reading word of b, and q records the shape growth as the rows of b are
inserted bottom row group first.  The image consists of pairs whose recording
tableau is R-LR: it has content gamma(R) and its restriction to each
subalphabet A_j column-inserts to the key tableau of R_j, that is, its
reading word is highest weight for every color i with i and i+1 in one
subalphabet (a Levi color of R).
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import accumulate
from typing import Sequence

from .crystal import CrystalElement, RectSequence, _bracket, _word_pairs
from .errors import InconsistentPairError, NonLRError, ShapeMismatchError
from .tableaux import Tableau, _Frozen, partition, record, unrecord


class TableauPair(_Frozen):
    """Insertion tableau and recording tableau of equal shape."""

    __slots__ = _fields = ("p", "q")

    def __init__(self, p: Tableau, q: Tableau):
        if p.outer != q.outer or p.inner != q.inner:
            raise ShapeMismatchError(f"pair shapes differ: {p.outer} vs {q.outer}")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)


class LRTableau(_Frozen):
    """An R-LR tableau together with its rectangle sequence.  ``_raw`` is
    the route for tableaux that are R-LR by construction."""

    __slots__ = _fields = ("tableau", "seq")

    def __init__(self, tableau: Tableau, seq: RectSequence):
        if tableau.inner or not is_r_lr(tableau.word(), seq):
            raise NonLRError(f"tableau is not a normal-shape {seq.rects}-LR tableau")
        object.__setattr__(self, "tableau", tableau)
        object.__setattr__(self, "seq", seq)


def rsk_pair(b: CrystalElement) -> TableauPair:
    """The pair (p, q) of b; q has content gamma(R) and is R-LR.  The
    subalphabets are consecutive, so rows 1..n of b are its factors' rows."""
    return TableauPair(*record([row for t in b.factors for row in t.rows], b.seq.n))


def peel_recording(p: Tableau, q: Tableau, seq: RectSequence) -> list[Tableau]:
    """Factor tableaux of the element recorded by (p, q).

    Peels the cells of q labeled r (rightmost first) off p by reverse column
    insertions; the ejected letters must come out weakly increasing and
    rebuild the r-th row of the element, over the letters 1..n of ``seq``.
    """
    try:
        rows = unrecord(p, q, seq.n)
    except ValueError as exc:
        raise InconsistentPairError(str(exc)) from exc
    return _factors(rows, seq, seq.n)


def _factors(rows: Sequence[tuple[int, ...]], seq: RectSequence, bound: int) -> list[Tableau]:
    """Rows 1..n of an element cut into its factors, each checked to be a
    column-strict rectangle over 1..bound (rows weakly increasing are
    taken as given)."""
    factors = []
    for j, (eta, mu) in enumerate(seq.rects, start=1):
        lo, hi = seq.subalphabet(j)
        block = tuple(rows[lo - 1 : hi])
        if (
            any(len(row) != mu for row in block)
            or any(a >= b for up, down in zip(block, block[1:]) for a, b in zip(up, down))
            or not 1 <= block[0][0] <= block[-1][-1] <= bound
        ):
            raise InconsistentPairError(
                f"factor {j}: {block} is not a column-strict {eta}x{mu} rectangle over 1..{bound}"
            )
        factors.append(Tableau._raw(block, (), bound))
    return factors


def rsk_inverse(pair: TableauPair, seq: RectSequence) -> CrystalElement:
    """The unique b in B^R with rsk_pair(b) == pair."""
    p, q = pair.p, pair.q
    if q.content(seq.n) != seq.gamma():
        raise NonLRError(
            f"recording content {q.content(seq.n)} differs from {seq.gamma()}"
        )
    if not is_r_lr(q.word(), seq):
        raise NonLRError(f"recording tableau is not {seq.rects}-LR")
    return CrystalElement(seq, peel_recording(p, q, seq))


def _lift(q: Tableau, seq: RectSequence) -> CrystalElement:
    """The classical highest weight element whose recording tableau is q,
    read off q with no insertion (:func:`_read_off`).  Its insertion
    tableau, and that of each prefix of rectangles 1..i, is a key tableau:
    of q's shape, and of the shape of q's labels up to hi_i.  q is trusted
    to be column-strict; each factor is checked to be a column-strict
    rectangle, which, given content gamma(R), holds exactly when q is R-LR.
    """
    top = max((row[-1] for row in q.rows), default=0)
    if top > seq.n:
        raise InconsistentPairError(f"label {top} of q lies beyond 1..{seq.n}")
    return CrystalElement._raw(seq, tuple(_factors(_read_off(q.rows, seq.n), seq, seq.n)))


def _read_off(qrows: Sequence[Sequence[int]], n: int, lo: int = 1) -> list[tuple[int, ...]]:
    """Rows lo..n of the lift of the recording rows ``qrows`` (labels in
    1..n): row s lists, in order, the rows of q that hold the label s."""
    rows: list[list[int]] = [[] for _ in range(n - lo + 1)]
    for r, row in enumerate(qrows, start=1):
        for x in row[bisect_left(row, lo) :]:
            rows[x - lo].append(r)
    return [tuple(row) for row in rows]


def _unlift(rows: Sequence[Sequence[int]], n: int) -> Tableau:
    """Inverse of :func:`_lift`'s read-off: the recording tableau of the
    element with rows 1..n ``rows`` (highest weight, key insertion tableau)
    holds in row r the label s once for each r in row s of the element."""
    qrows: list[list[int]] = [[] for _ in range(n)]
    for s, row in enumerate(rows, start=1):
        for r in row:
            qrows[r - 1].append(s)
    return Tableau._raw(tuple(tuple(row) for row in qrows if row), (), n)


def _levi_colors(seq: RectSequence) -> list[int]:
    """The colors i with i and i+1 in the same subalphabet."""
    return [i for j in range(1, seq.m + 1) for i in range(*seq.subalphabet(j))]


def is_r_lr(u: Sequence[int], seq: RectSequence) -> bool:
    """True when ``u`` has content gamma(R) and is highest weight for every
    Levi color of R."""
    counts = [0] * (seq.n + 1)
    for x in u:
        if not 1 <= x <= seq.n:
            return False
        counts[x] += 1
    if tuple(counts[1:]) != seq.gamma():
        return False
    return all(_bracket(_word_pairs(u, i))[1] == 0 for i in _levi_colors(seq))


def enumerate_lrt(lam: Sequence[int], seq: RectSequence) -> list[LRTableau]:
    """All R-LR tableaux of shape ``lam``, in row-word lexicographic order."""
    return [LRTableau._raw(t, seq) for t in lrt_tableaux(lam, seq)]


def lrt_tableaux(lam: Sequence[int], seq: RectSequence) -> tuple[Tableau, ...]:
    """The R-LR tableaux of shape ``lam``, in row-word lexicographic order,
    by a strip walk that places no strip leaving ``lam``.  Not memoized: it
    lists no other shape of R."""
    lam = _lr_shape(lam, seq)
    return tuple(Tableau._raw(rows, (), seq.n) for rows in _lr_rows(seq, lam).get(lam, ()))


def _lr_shape(lam: Sequence[int], seq: RectSequence) -> tuple[int, ...]:
    lam = partition(lam)
    if sum(lam) != seq.ncells:
        raise ValueError(f"|{lam}| != {seq.ncells} cells of R")
    return lam


def _lr_rows(seq: RectSequence, outer: tuple[int, ...] | None = None) -> dict[tuple[int, ...], list[tuple]]:
    """The rows of every R-LR tableau, by shape: the shapes in reverse
    lexicographic order, as ``partitions_of`` lists them, and each shape's
    rows in row-word lexicographic order; shapes with none are absent.
    Given ``outer``, only the tableaux inside it.

    The letters x = 1..n go in one at a time, each as a horizontal strip of
    gamma_x cells (:func:`_strips`).  Prefixes of one shape share their
    continuations; before a Levi color, only those whose last strips agree."""
    levi = set(_levi_colors(seq))
    states: dict = {((), None): [()]}  # (shape, last strip or None) -> prefixes' rows
    for x, g in enumerate(seq.gamma(), start=1):
        grown: dict = {}
        for (shape, last), prefixes in states.items():
            shape += (0,)
            for strip in _strips(shape, g, last, outer):
                new = tuple(p + c for p, c in zip(shape, strip) if p + c)
                adds = [(x,) * c for c in strip[: len(new)]]
                grown.setdefault((new, strip if x in levi else None), []).extend(
                    tuple(map(tuple.__add__, rows + ((),), adds)) for rows in prefixes
                )
        states = grown
    # color n is never Levi, so each shape is one state; rows of one shape
    # have equal lengths, so bottom row first is word order
    return {
        shape: sorted(group, key=lambda rows: rows[::-1]) for (shape, _), group in sorted(states.items(), reverse=True)
    }


def _strips(
    shape: tuple[int, ...], g: int, last: tuple[int, ...] | None, outer: tuple[int, ...] | None = None
) -> list[tuple[int, ...]]:
    """Cells per row of the horizontal strips of g cells on ``shape`` (which
    ends in a zero part), chosen from the bottom row up.  Given the strip
    ``last`` of the letter x-1 of a Levi color x-1, rows 1..r take at most
    the cells ``last`` has in rows 1..r-1: the reading word lists the rows
    bottom first, so these suffixes decide if it is highest weight for x-1.
    Given a partition ``outer`` that contains ``shape``, only the strips
    that stay inside it: a row takes no cell past ``outer``, and leaves no
    more cells to the rows above it than they can still take."""
    bound = [0, *accumulate(last)] if last else [g] * len(shape)
    if outer is None:
        room = [g, *(shape[s - 1] - shape[s] for s in range(1, len(shape)))]
    else:
        outer = tuple(outer) + (0,) * len(shape)
        room = [outer[0] - shape[0], *(min(shape[s - 1], outer[s]) - shape[s] for s in range(1, len(shape)))]
    above = [*accumulate(room)]  # cells that rows 1..r can still take
    strips = [((), g)]  # (cells in the rows below, cells left for the rows above)
    for s in range(len(shape) - 1, 0, -1):
        strips = [
            ((c, *tail), left - c)
            for tail, left in strips
            for c in range(max(0, left - bound[s - 1], left - above[s - 1]), min(room[s], left) + 1)
        ]
    return [(left, *tail) for tail, left in strips if left <= room[0]]
