"""RSK decomposition of B^R and Littlewood-Richardson recording tableaux.

An element b maps to the pair (p, q): p is the column-insertion tableau of
the reading word of b, and q records the shape growth as the rows of b are
inserted bottom row group first.  The image consists of pairs whose recording
tableau is R-LR: its restriction to each subalphabet A_j column-inserts to
the key tableau of R_j.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

from .crystal import CrystalElement, RectSequence
from .errors import InconsistentPairError, NonLRError, ShapeMismatchError
from .tableaux import (
    Tableau,
    _Frozen,
    column_insert,
    enumerate_cst,
    key,
    partition,
    record,
    unrecord,
)


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
        if not is_r_lr(tableau.word(), seq):
            raise NonLRError(f"tableau is not {seq.rects}-LR")
        object.__setattr__(self, "tableau", tableau)
        object.__setattr__(self, "seq", seq)


def rsk_pair(b: CrystalElement) -> TableauPair:
    """The pair (p, q) of b; q has content gamma(R) and is R-LR."""
    n = b.seq.n
    return TableauPair(*record([b.row(r) for r in range(1, n + 1)], n))


def peel_recording(p: Tableau, q: Tableau, seq: RectSequence, alphabet: int | None = None) -> list[Tableau]:
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
    bound = seq.n if alphabet is None else alphabet
    factors = []
    for j in range(1, seq.m + 1):
        lo, hi = seq.subalphabet(j)
        try:
            factors.append(Tableau(rows[lo - 1 : hi], (), n=bound))
        except ValueError as exc:
            raise InconsistentPairError(f"factor {j}: {exc}") from exc
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
    return _lift(q, seq, p)


def _lift(q: Tableau, seq: RectSequence, p: Tableau | None = None) -> CrystalElement:
    """The element recorded by (p, q), with p the key tableau of q's shape
    unless given.  q is trusted to be R-LR; the peel still checks that the
    pair is consistent."""
    if p is None:
        p = key(q.outer, n=seq.n)
    return CrystalElement(seq, peel_recording(p, q, seq))


def is_r_lr(u: Sequence[int], seq: RectSequence) -> bool:
    """True when every subalphabet restriction inserts to its key tableau."""
    word = tuple(u)
    if any(x < 1 or x > seq.n for x in word):
        return False
    for j in range(1, seq.m + 1):
        lo, hi = seq.subalphabet(j)
        sub = tuple(x for x in word if lo <= x <= hi)
        if column_insert(sub, n=seq.n) != seq.key_tableau(j):
            return False
    return True


def enumerate_lrt(lam: Sequence[int], seq: RectSequence) -> list[LRTableau]:
    """All R-LR tableaux of shape ``lam``, in row-word lexicographic order."""
    lam = partition(lam)
    if sum(lam) != seq.ncells:
        raise ValueError(f"|{lam}| != {seq.ncells} cells of R")
    out = [
        LRTableau._raw(t, seq)
        for t in enumerate_cst(lam, seq.n, content=seq.gamma())
        if is_r_lr(t.word(), seq)
    ]
    out.sort(key=lambda lr: lr.tableau.word())
    return out


@lru_cache(maxsize=None)
def _lrt_cached(lam: tuple[int, ...], rects: tuple[tuple[int, int], ...]) -> tuple[Tableau, ...]:
    return tuple(lr.tableau for lr in enumerate_lrt(lam, RectSequence(rects)))


def lrt_tableaux(lam: Sequence[int], seq: RectSequence) -> tuple[Tableau, ...]:
    """Cached tuple of the R-LR tableaux of shape ``lam``."""
    return _lrt_cached(partition(lam), seq.rects)
