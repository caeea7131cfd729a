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

from .crystal import (
    CrystalElement,
    RectSequence,
    e,
    eps,
    f,
    phi,
    signature,
    tableau_phi_eps,
    young_w0,
)
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
    slide_into,
    slide_out_of,
    tableau_from_cells,
)


@lru_cache(maxsize=None)
def _promote_rows(rows: tuple, inner: tuple, n: int) -> tuple[tuple, tuple]:
    t = Tableau._raw(rows, inner, n)
    cells = t.cell_map()
    strip = sorted((c for c, v in cells.items() if v == n), key=lambda rc: rc[1])
    if not is_horizontal_strip(strip):
        raise ValueError(f"letters {n} do not form a horizontal strip")
    for c in strip:
        del cells[c]
    vacated = [slide_into(cells, hole) for hole in strip]
    for c in vacated:
        cells[c] = 0
    bumped = {c: v + 1 for c, v in cells.items()}
    out = tableau_from_cells(bumped, n=n)
    return out.rows, out.inner


@lru_cache(maxsize=None)
def _promote_inverse_rows(rows: tuple, inner: tuple, n: int) -> tuple[tuple, tuple]:
    t = Tableau._raw(rows, inner, n)
    cells = {c: v - 1 for c, v in t.cell_map().items()}
    strip = sorted((c for c, v in cells.items() if v == 0), key=lambda rc: -rc[1])
    if not is_horizontal_strip(strip):
        raise ValueError("letters 1 do not form a horizontal strip")
    for c in strip:
        del cells[c]
    for hole in strip:
        cells[slide_out_of(cells, hole)] = n
    out = tableau_from_cells(cells, n=n)
    return out.rows, out.inner


def promote_tableau(t: Tableau, n: int | None = None) -> Tableau:
    """Promotion of a single column-strict tableau over 1..n."""
    n = t.n if n is None else n
    rows, inner = _promote_rows(t.rows, t.inner, n)
    return Tableau._raw(rows, inner, n)


def promote_inverse_tableau(t: Tableau, n: int | None = None) -> Tableau:
    """Inverse promotion: vacated cells are read off the letters 1."""
    n = t.n if n is None else n
    rows, inner = _promote_inverse_rows(t.rows, t.inner, n)
    return Tableau._raw(rows, inner, n)


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


def eps0(b: CrystalElement) -> int:
    return eps(promote(b), 1)


def phi0(b: CrystalElement) -> int:
    return phi(promote(b), 1)


def apply_op(b: CrystalElement, i: int, op: str) -> CrystalElement | None:
    """Uniform access to e_i/f_i for colors 0..n-1."""
    if op not in ("e", "f"):
        raise ValueError(f"op must be 'e' or 'f', got {op!r}")
    if i == 0:
        return e0(b) if op == "e" else f0(b)
    return e(b, i) if op == "e" else f(b, i)


def string_lengths(b: CrystalElement, i: int) -> tuple[int, int]:
    """(phi_i, eps_i) for any color 0..n-1."""
    if i == 0:
        sig = signature(promote(b), 1)
    else:
        sig = signature(b, i)
    return sig.phi, sig.eps


def tableau_eps0(t: Tableau, n: int) -> int:
    _, q = tableau_phi_eps(promote_tableau(t, n), 1)
    return q


def tableau_phi0(t: Tableau, n: int) -> int:
    p, _ = tableau_phi_eps(promote_tableau(t, n), 1)
    return p


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
    n = seq.n
    p, q = pair.p, pair.q
    if p.inner != ():
        raise InconsistentPairError("pair promotion needs normal shapes")
    strip: list[tuple[int, int]] = []
    kept_rows: list[list[int]] = []
    for r, row in enumerate(p.rows, start=1):
        cut = len(row)
        while cut and row[cut - 1] == n:
            cut -= 1
        strip.extend((r, c) for c in range(cut + 1, len(row) + 1))
        kept_rows.append(list(row[:cut]))
    if not is_horizontal_strip(strip):
        raise InconsistentPairError("letters n of p do not form a horizontal strip")
    strip.sort(key=lambda rc: rc[1])
    try:
        qhat, v = peel_strip(q, strip)
    except ValueError as exc:
        raise InconsistentPairError(str(exc)) from exc
    w0_qhat = young_w0(qhat, seq)
    w0_v = young_w0(v, seq)
    q_new = column_insert(w0_qhat.word() + tuple(w0_v), n=n)
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
    for r, c in added:
        while len(kept_rows) < r:
            kept_rows.append([])
        if len(kept_rows[r - 1]) + 1 != c:
            raise InconsistentPairError(f"added cell {(r, c)} is not a row end")
        kept_rows[r - 1].append(n)
    while kept_rows and not kept_rows[-1]:
        kept_rows.pop()
    p1 = Tableau._raw(tuple(tuple(row) for row in kept_rows), (), n)
    p_new = promote_tableau(p1, n)
    trace = PromotionTrace(
        removed_strip=tuple(strip),
        ejected=v,
        intermediate=qhat,
        added_strip=tuple(added),
    )
    return TableauPair(p_new, q_new), trace


# ---------------------------------------------------------------------------
# Cyclage and cocyclage.

def chi(word: Sequence[int], seq: RectSequence) -> tuple[int, ...]:
    """Cyclage: the final letter moves to the front, conjugated inside its
    subalphabet; the rest of the word is conjugated as well.  Input and output
    are R-LR words."""
    word = tuple(word)
    if not word:
        return ()
    if not is_r_lr(word, seq):
        raise NonLRError("chi requires an R-LR word")
    x, u = word[-1], word[:-1]
    return young_w0((x,), seq) + young_w0(u, seq)


def chi_inverse(word: Sequence[int], seq: RectSequence) -> tuple[int, ...]:
    """Inverse cyclage: the first letter moves to the end, conjugated."""
    word = tuple(word)
    if not word:
        return ()
    if not is_r_lr(word, seq):
        raise NonLRError("chi_inverse requires an R-LR word")
    y, w = word[0], word[1:]
    return young_w0(w, seq) + young_w0((y,), seq)


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
