"""Rectangle-switching bijections: tau on LR tableaux, sigma on crystals.

Exchanging two adjacent rectangles of R is multiplicity-free, so LR tableaux
of a fixed shape for the swapped sequence are unique when they exist.  The
crystal isomorphism sigma keeps the insertion tableau and applies tau to the
recording tableau; composites along reduced words give the isomorphisms
B^R -> B^{wR} for arbitrary permutations w.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

from .crystal import CrystalElement, RectSequence
from .errors import InconsistentPairError, NonLRError
from .rsk import LRTableau, _factors, _lift, _lr_rows, _unlift
from .tableaux import Tableau, _col_insert, _peel, _tableau_of_cols, conjugate


def tau_swap(q: LRTableau, pos: int) -> LRTableau:
    """The LR tableau for the sequence with R_pos, R_pos+1 exchanged that the
    switch isomorphism produces on recording tableaux.

    sigma keeps the insertion tableau, so the element is never inserted:
    q's rows are lifted to the highest weight element with key insertion
    tableau (``rsk._lift``), its factors at pos and pos+1 are switched by
    ``_sigma_pair``, and the new recording tableau is read back off the
    switched rows (``rsk._unlift``).  The result agrees with q outside the
    two subalphabets but is not characterized by that property alone once
    more than two rectangles are present.
    """
    seq = q.seq
    lifted = [t.rows for t in _lift(q.tableau, seq).factors]
    rect1, rect2 = seq.rects[pos - 1], seq.rects[pos]
    lifted[pos - 1 : pos + 1] = _sigma_pair(rect1, rect2, lifted[pos - 1], lifted[pos], seq.n)
    return LRTableau._raw(_unlift([row for factor in lifted for row in factor], seq.n), seq.swapped(pos))


def _two_factor_tau(shape: tuple[int, ...], rects: tuple[tuple[int, int], tuple[int, int]]) -> Tableau:
    """The unique LR tableau of a partition shape for two rectangles, by a walk pinned to it."""
    seq = RectSequence(rects)
    cands = _lr_rows(seq, shape).get(shape, [])
    if len(cands) != 1:
        raise NonLRError(f"LRT({shape}; {rects}) has {len(cands)} elements, not 1")
    return Tableau._raw(cands[0], (), seq.n)


@lru_cache(maxsize=1024)
def _peel_plan(col_lengths: tuple[int, ...], rect1: tuple[int, int], rect2: tuple[int, int]) -> tuple:
    """How sigma takes apart an insertion tableau with these column lengths:
    the cells of the unique (rect2, rect1)-LR tableau of its shape that carry
    rect1's labels, one group per label from the top label down."""
    groups: dict[int, list[tuple[int, int]]] = {}
    for r, row in enumerate(_two_factor_tau(conjugate(col_lengths), (rect2, rect1)).rows, start=1):
        for c, label in enumerate(row, start=1):
            groups.setdefault(label, []).append((r, c))
    top = rect2[0] + rect1[0]
    return tuple(tuple(groups[k]) for k in range(top, rect2[0], -1))


@lru_cache(maxsize=2048)
def _sigma_pair(
    rect1: tuple[int, int],
    rect2: tuple[int, int],
    rows1: tuple,
    rows2: tuple,
    alphabet: int,
) -> tuple[tuple, tuple]:
    """sigma on a two-factor element given by factor rows; returns new rows
    (position 1 gets a rect2-shaped factor, position 2 a rect1-shaped one).

    rows1, a column-strict rectangle, is its own insertion tableau, so only
    rows2's letters are column-inserted into its columns to give the
    element's p.  Peeling off p, rightmost first, the cells of each label
    of rect1 in :func:`_peel_plan` ejects the new rect1 factor's rows, last
    row first; the columns left hold the new rect2 factor.
    """
    cols = [list(col) for col in zip(*rows1)]
    for row in rows2:
        for x in reversed(row):
            _col_insert(cols, x)
    plan = _peel_plan(tuple(map(len, cols)), rect1, rect2)
    try:
        peeled = [_peel(cols, cells) for cells in plan]
    except ValueError as exc:
        raise InconsistentPairError(str(exc)) from exc
    rows = _tableau_of_cols(cols, alphabet).rows + tuple(peeled[::-1])
    new1, new2 = _factors(rows, RectSequence((rect2, rect1)), alphabet)
    return new1.rows, new2.rows


def sigma_swap(b: CrystalElement, pos: int) -> CrystalElement:
    """The crystal isomorphism exchanging tensor positions pos and pos+1."""
    seq = b.seq
    rect1, rect2 = seq.rects[pos - 1], seq.rects[pos]
    rows1, rows2 = _sigma_pair(
        rect1, rect2, b.factors[pos - 1].rows, b.factors[pos].rows, seq.n
    )
    factors = list(b.factors)
    factors[pos - 1] = Tableau._raw(rows1, (), seq.n)
    factors[pos] = Tableau._raw(rows2, (), seq.n)
    return CrystalElement._raw(seq.swapped(pos), tuple(factors))


def lex_reduced_word(w: Sequence[int]) -> list[int]:
    """Lexicographically smallest reduced word of a permutation (one-line)."""
    w = list(w)
    m = len(w)
    if sorted(w) != list(range(1, m + 1)):
        raise ValueError(f"not a permutation of 1..{m}: {w}")
    word = []
    pos = {v: i for i, v in enumerate(w)}
    while True:
        for i in range(1, m):
            if pos[i] > pos[i + 1]:
                word.append(i)
                pos[i], pos[i + 1] = pos[i + 1], pos[i]
                break
        else:
            return word


def sigma_compose(b: CrystalElement, w: Sequence[int]) -> CrystalElement:
    """The isomorphism B^R -> B^{wR}, composed from adjacent switches along
    the lexicographically smallest reduced word of w."""
    target = b.seq.permuted(w)
    cur = b
    for i in reversed(lex_reduced_word(w)):
        cur = sigma_swap(cur, i)
    if cur.seq != target:
        raise AssertionError(f"composite landed on {cur.seq}, expected {target}")
    return cur
