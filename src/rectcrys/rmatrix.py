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
from .errors import NonLRError
from .rsk import LRTableau, _lift, lrt_tableaux, peel_recording, rsk_pair
from .tableaux import Tableau, column_insert


@lru_cache(maxsize=None)
def _tau_swap_cached(
    rows: tuple, inner: tuple, rects: tuple[tuple[int, int], ...], pos: int
) -> Tableau:
    seq = RectSequence(rects)
    q = Tableau._raw(rows, inner, seq.n)
    return rsk_pair(sigma_swap(_lift(q, seq), pos)).q


def tau_swap(q: LRTableau, pos: int) -> LRTableau:
    """The LR tableau for the sequence with R_pos, R_pos+1 exchanged that the
    switch isomorphism produces on recording tableaux.

    Computed by lifting q to the crystal element with key insertion tableau,
    switching, and reading off the new recording tableau; the result agrees
    with q outside the two subalphabets but is not characterized by that
    property alone once more than two rectangles are present.
    """
    t = _tau_swap_cached(q.tableau.rows, q.tableau.inner, q.seq.rects, pos)
    return LRTableau._raw(t, q.seq.swapped(pos))


def _two_factor_tau(shape: tuple[int, ...], rects: tuple[tuple[int, int], tuple[int, int]]) -> Tableau:
    """The unique LR tableau of a partition shape for two rectangles."""
    cands = lrt_tableaux(shape, RectSequence(rects))
    if len(cands) != 1:
        raise NonLRError(f"LRT({shape}; {rects}) has {len(cands)} elements, not 1")
    return cands[0]


@lru_cache(maxsize=None)
def _sigma_pair(
    rect1: tuple[int, int],
    rect2: tuple[int, int],
    rows1: tuple,
    rows2: tuple,
    alphabet: int,
) -> tuple[tuple, tuple]:
    """sigma on a two-factor element given by factor rows; returns new rows
    (position 1 gets a rect2-shaped factor, position 2 a rect1-shaped one)."""
    t1 = Tableau._raw(rows1, (), alphabet)
    t2 = Tableau._raw(rows2, (), alphabet)
    word = t2.word() + t1.word()
    p = column_insert(word, n=alphabet)
    swapped = RectSequence((rect2, rect1))
    q_new = _two_factor_tau(p.outer, (rect2, rect1))
    new1, new2 = peel_recording(p, q_new, swapped, alphabet=alphabet)
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
