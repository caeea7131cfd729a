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

from functools import lru_cache
from typing import Sequence

from .crystal import CrystalElement, RectSequence, _bracket, _word_pairs
from .errors import InconsistentPairError, NonLRError, ShapeMismatchError
from .tableaux import Tableau, _Frozen, conjugate, partition, record, unrecord


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


def peel_recording(
    p: Tableau, q: Tableau, seq: RectSequence, alphabet: int | None = None
) -> list[Tableau]:
    """Factor tableaux of the element recorded by (p, q).

    Peels the cells of q labeled r (rightmost first) off p by reverse column
    insertions; the ejected letters must come out weakly increasing and
    rebuild the r-th row of the element.  ``alphabet`` bounds the letters of
    the factors (defaults to the recording alphabet size n of ``seq``).
    """
    try:
        rows = unrecord(p, q, seq.n)
    except ValueError as exc:
        raise InconsistentPairError(str(exc)) from exc
    return _factors(rows, seq, seq.n if alphabet is None else alphabet)


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
    read off q with no insertion: row s of its factor j lists, in order,
    the rows of q that hold the label lo_j + s - 1.  Its insertion tableau,
    and that of each prefix of rectangles 1..i, is a key tableau: of q's
    shape, and of the shape of q's labels up to hi_i.  q is trusted to be
    column-strict; each factor is checked to be a column-strict rectangle,
    which, given content gamma(R), holds exactly when q is R-LR.
    """
    rows: list[list[int]] = [[] for _ in range(seq.n)]
    for r, row in enumerate(q.rows, start=1):
        for x in row:
            if x > seq.n:
                raise InconsistentPairError(f"label {x} of q lies beyond 1..{seq.n}")
            rows[x - 1].append(r)
    return CrystalElement._raw(seq, tuple(_factors([tuple(row) for row in rows], seq, seq.n)))


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
    """All R-LR tableaux of shape ``lam``, in row-word lexicographic order.

    Cells are filled in row-major order.  A letter x goes in when it keeps
    the columns strict and the content within gamma(R), and, for a Levi
    color x-1, when the x placed so far, this one included, are no more
    than the x-1 in the rows above.  The reading word lists the rows bottom
    first, so these are the suffixes that decide whether it is highest
    weight for color x-1.
    """
    lam = partition(lam)
    if sum(lam) != seq.ncells:
        raise ValueError(f"|{lam}| != {seq.ncells} cells of R")
    n = seq.n
    gamma = (0, *seq.gamma())
    levi = {i + 1 for i in _levi_colors(seq)}
    placed = [0] * (n + 1)
    col_len = conjugate(lam)
    rows: list[list[int]] = [[] for _ in lam]
    out: list[LRTableau] = []

    def caps() -> list[int]:
        # how many of each letter the rows so far and the next row may hold
        return [min(g, placed[x - 1]) if x in levi else g for x, g in enumerate(gamma)]

    def fill(r: int, c: int, cap: list[int]) -> None:
        if c > lam[r - 1]:
            if r == len(lam):
                out.append(LRTableau._raw(Tableau._raw(tuple(map(tuple, rows)), (), n), seq))
                return
            r, c, cap = r + 1, 1, caps()
        lo = max(r, rows[r - 1][-1] if c > 1 else 1)
        if r > 1 and lam[r - 2] >= c:
            lo = max(lo, rows[r - 2][c - 1] + 1)
        for x in range(lo, n - (col_len[c - 1] - r) + 1):
            if placed[x] < cap[x]:
                placed[x] += 1
                rows[r - 1].append(x)
                fill(r, c + 1, cap)
                rows[r - 1].pop()
                placed[x] -= 1

    fill(1, 1, caps())
    out.sort(key=lambda lr: lr.tableau.word())
    return out


@lru_cache(maxsize=None)
def _lrt_cached(lam: tuple[int, ...], rects: tuple[tuple[int, int], ...]) -> tuple[Tableau, ...]:
    return tuple(lr.tableau for lr in enumerate_lrt(lam, RectSequence(rects)))


def lrt_tableaux(lam: Sequence[int], seq: RectSequence) -> tuple[Tableau, ...]:
    """Cached tuple of the R-LR tableaux of shape ``lam``."""
    return _lrt_cached(partition(lam), seq.rects)
