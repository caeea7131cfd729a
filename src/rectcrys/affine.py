"""Promotion, the affine operators e_0/f_0, cyclage, and cocyclage.

Promotion deletes the letters n, slides the rest southeast into the vacated
horizontal strip, refills the vacated cells with zeros, and adds one to every
entry.  On tensor products it acts factor by factor.  The affine raising
operator is the conjugate pr^-1 . e_1 . pr, and its effect on recording
tableaux is the cyclage operator on LR words.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

from .crystal import CrystalElement, RectSequence, e, f, young_w0
from .errors import InconsistentPairError, NonLRError, RowNError
from .rsk import TableauPair, is_r_lr, rsk_inverse
from .tableaux import (
    Tableau,
    _Frozen,
    column_insert,
    is_horizontal_strip,
    key,
    peel_strip,
    reverse_row_insert,
)


@lru_cache(maxsize=None)
def _promote_rows(rows: tuple, n: int) -> tuple:
    """Promotion of a normal-shape tableau given by its rows.

    The letters n leave holes.  Each hole, from left to right, slides
    inward: the north neighbour moves in when it is at least the west one,
    until neither is left.  The vacated cells take 0 (read as empty by the
    later slides), and then every entry goes up by one.
    """
    grid = [list(row) for row in rows]
    holes = sorted(
        ((r, c) for r, row in enumerate(grid) for c, x in enumerate(row) if x == n),
        key=lambda rc: rc[1],
    )
    for r, c in holes:
        while True:
            north = grid[r - 1][c] if r else 0
            west = grid[r][c - 1] if c else 0
            if not (north or west):
                break
            if north >= west:
                grid[r][c], r = north, r - 1
            else:
                grid[r][c], c = west, c - 1
        grid[r][c] = 0
    return tuple(tuple(x + 1 for x in row) for row in grid)


def _turned(rows: tuple, n: int) -> tuple:
    """The rows turned by 180 degrees, each letter x replaced by n + 1 - x."""
    return tuple([tuple([n + 1 - x for x in reversed(row)]) for row in reversed(rows)])


def promote_tableau(t: Tableau, n: int | None = None) -> Tableau:
    """Promotion of a normal-shape column-strict tableau over 1..n."""
    if t.inner:
        raise ValueError("promotion needs a normal shape")
    n = t.n if n is None else n
    return Tableau._raw(_promote_rows(t.rows, n), (), n)


def promote_inverse_tableau(t: Tableau, n: int | None = None) -> Tableau:
    """Inverse promotion of a rectangular tableau over 1..n.

    On a rectangle, turning by 180 degrees and complementing is evacuation,
    and evacuation conjugates promotion to its inverse.
    """
    if t.inner or len(set(map(len, t.rows))) > 1:
        raise ValueError("inverse promotion needs a rectangle")
    n = t.n if n is None else n
    return Tableau._raw(_turned(_promote_rows(_turned(t.rows, n), n), n), (), n)


def promote(b: CrystalElement) -> CrystalElement:
    """Promotion of b, factor by factor."""
    n = b.seq.n
    return CrystalElement._raw(b.seq, tuple(promote_tableau(t, n) for t in b.factors))


def promote_inverse(b: CrystalElement) -> CrystalElement:
    n = b.seq.n
    return CrystalElement._raw(
        b.seq, tuple(promote_inverse_tableau(t, n) for t in b.factors)
    )


def e0(b: CrystalElement) -> CrystalElement | None:
    """Affine raising operator pr^-1 . e_1 . pr; None when undefined."""
    mid = e(promote(b), 1)
    return None if mid is None else promote_inverse(mid)


def f0(b: CrystalElement) -> CrystalElement | None:
    """Affine lowering operator pr^-1 . f_1 . pr; None when undefined."""
    mid = f(promote(b), 1)
    return None if mid is None else promote_inverse(mid)


# ---------------------------------------------------------------------------
# Promotion on the tableau pair.

class PromotionTrace(_Frozen):
    """Intermediate data of one pair promotion.

    removed_strip: cells of the letters n in p (the strip H);
    ejected: the weakly increasing word pushed out of q at the strip;
    intermediate: q with the strip peeled off;
    added_strip: cells gained by the new recording tableau.
    """

    __slots__ = _fields = ("removed_strip", "ejected", "intermediate", "added_strip")

    def __init__(
        self,
        removed_strip: tuple[tuple[int, int], ...],
        ejected: tuple[int, ...],
        intermediate: Tableau,
        added_strip: tuple[tuple[int, int], ...],
    ):
        values = (removed_strip, ejected, intermediate, added_strip)
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def to_json(self) -> dict:
        return {
            "removed_strip": [list(c) for c in self.removed_strip],
            "ejected": list(self.ejected),
            "intermediate": self.intermediate.to_json(),
            "added_strip": [list(c) for c in self.added_strip],
        }


def pair_promote(pair: TableauPair, seq: RectSequence) -> tuple[TableauPair, PromotionTrace]:
    """Tableau pair of pr(b) computed from the pair of b alone.

    Steps: peel the n-strip H off p; reverse column insertions on q at H
    (rightmost cell first) eject a weakly increasing word v; the new recording
    tableau is the insertion tableau of the conjugated word of the peeled q
    followed by the conjugated v; the new insertion tableau is the promotion
    of p with its n-letters moved to the freshly added strip.
    """
    if pair.p.inner != ():
        raise InconsistentPairError("pair promotion needs normal shapes")
    strip = _n_strip(pair.p, seq.n)
    q_new, qhat, v, added = _promote_recording(pair.q, strip, seq)
    p_new = _promote_insertion(pair.p, added, seq.n)
    return TableauPair(p_new, q_new), PromotionTrace(strip, v, qhat, added)


def _n_strip(p: Tableau, n: int) -> tuple[tuple[int, int], ...]:
    """Cells of the letters n of p, which end their rows, left to right."""
    cells = [
        (r, c)
        for r, row in enumerate(p.rows, start=1)
        for c in range(len(row) - row.count(n) + 1, len(row) + 1)
    ]
    return tuple(sorted(cells, key=lambda rc: rc[1]))


def _promote_recording(
    q: Tableau, strip: tuple[tuple[int, int], ...], seq: RectSequence
) -> tuple[Tableau, Tableau, tuple[int, ...], tuple[tuple[int, int], ...]]:
    """The recording half of pair promotion, which reads only q and the
    strip of letters n in p: (new q, q with the strip peeled off, the
    ejected word, the cells the new q adds, left to right)."""
    if not is_horizontal_strip(strip):
        raise InconsistentPairError("letters n of p do not form a horizontal strip")
    try:
        qhat, v = peel_strip(q, strip)
    except ValueError as exc:
        raise InconsistentPairError(str(exc)) from exc
    q_new = column_insert(young_w0(qhat, seq).word() + young_w0(v, seq), n=seq.n)
    added = [
        (r + 1, c)
        for r in range(len(q_new.outer))
        for c in range(
            (qhat.outer[r] if r < len(qhat.outer) else 0) + 1, q_new.outer[r] + 1
        )
    ]
    added.sort(key=lambda rc: rc[1])
    if not is_horizontal_strip(added):
        raise InconsistentPairError("new recording cells do not form a strip")
    return q_new, qhat, v, tuple(added)


def _promote_insertion(p: Tableau, added: tuple[tuple[int, int], ...], n: int) -> Tableau:
    """The insertion half of pair promotion: the letters n of p move onto
    the added cells, then p is promoted."""
    rows = [list(row[: len(row) - row.count(n)]) for row in p.rows]
    for r, c in added:
        while len(rows) < r:
            rows.append([])
        if len(rows[r - 1]) + 1 != c:
            raise InconsistentPairError(f"added cell {(r, c)} is not a row end")
        rows[r - 1].append(n)
    while rows and not rows[-1]:
        rows.pop()
    return Tableau._raw(_promote_rows(tuple(map(tuple, rows)), n), (), n)


# ---------------------------------------------------------------------------
# Cyclage and cocyclage.

def chi(word: Sequence[int], seq: RectSequence) -> tuple[int, ...]:
    """Cyclage: the final letter moves to the front, conjugated inside its
    subalphabet; the rest of the word is conjugated as well.  Input and output
    are R-LR words."""
    word = tuple(word)
    if not is_r_lr(word, seq):
        raise NonLRError("chi requires an R-LR word")
    if not word:  # the empty R
        return ()
    x, u = word[-1], word[:-1]
    return young_w0((x,), seq) + young_w0(u, seq)


def cocyclage_witness(q: Tableau, seq: RectSequence, cell: tuple[int, int]) -> CrystalElement:
    """An element b with recording tableau q whose e_0 image records the
    cyclage of q at the given corner cell.

    The insertion tableau of b is the key tableau of the composition moving
    the corner's row length to the front.  The corner must not lie in the
    bottom row n.
    """
    t_row, _ = cell
    if t_row >= seq.n:
        raise RowNError(f"corner in row {t_row} of {seq.n} is excluded")
    lam = q.outer
    if not q.has_cell(*cell) or cell != (t_row, lam[t_row - 1]):
        raise ValueError(f"{cell} is not a corner of {lam}")
    reverse_row_insert(q, cell)  # validates corner removability
    wlam = (lam[t_row - 1],) + lam[: t_row - 1] + lam[t_row:]
    p = key(wlam, n=seq.n)
    return rsk_inverse(TableauPair(p, q), seq)
