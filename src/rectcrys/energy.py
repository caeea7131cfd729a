"""Local energy, the total energy statistic, and generalized charge.

The local energy of a two-factor element counts the cells of the shape of its
insertion tableau that lie strictly east of the column max(mu_1, mu_2); it is
zero on the component of the stacked-key element and constant on classical
components.  Total energy sums local energies over all pairs, moving the
right factor next to the left one with rectangle switches.  On recording
tableaux the same statistic is the generalized charge; in the one-row case it
reduces to the classical word charge, implemented here independently as an
oracle.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import lru_cache
from typing import Sequence

from .crystal import CrystalElement, RectSequence
from .rsk import LRTableau, _lift
from .rmatrix import _sigma_pair, sigma_swap
from .tableaux import Tableau, _record_onto, conjugate, insertion_shape, partition


def _east_count(shape: Sequence[int], col: int) -> int:
    return sum(max(0, part - col) for part in shape)


def _local_d(b: CrystalElement, pos: int) -> int:
    """Local energy between tensor positions pos and pos+1 of b."""
    word = b.factors[pos].word() + b.factors[pos - 1].word()
    col = max(b.seq.mu(pos), b.seq.mu(pos + 1))
    return _east_count(insertion_shape(word), col)


def local_H(b: CrystalElement) -> int:
    """Energy of a two-factor element, normalized to vanish on the stacked
    highest weight component."""
    if b.seq.m != 2:
        raise ValueError("local_H expects exactly two factors")
    return _local_d(b, 1)


def energy_terms(b: CrystalElement) -> list[tuple[int, int, int]]:
    """Summands (i, j, value) of the total energy, for 1 <= i < j <= m.

    For each j the right factor walks leftward: the (i, j) term is the local
    energy at positions i, i+1 after switching positions j-1, ..., i+1.
    """
    out = []
    for j in range(2, b.seq.m + 1):
        cur = b
        for i in range(j - 1, 0, -1):
            out.append((i, j, _local_d(cur, i)))
            if i > 1:
                cur = sigma_swap(cur, i)
    return out


def total_energy(b: CrystalElement) -> int:
    """Sum of all pairwise local energies through rectangle switches."""
    return sum(v for _, _, v in energy_terms(b))


def _restricted_east(qrows: Sequence[Sequence[int]], lo: int, hi: int, col: int) -> int:
    """East count past ``col`` of the insertion shape of the reading word of
    the recording rows ``qrows`` restricted to the labels lo..hi."""
    word = tuple(x for row in reversed(qrows) for x in row if lo <= x <= hi)
    return _east_count(insertion_shape(word), col)


def restricted_d(q: LRTableau, pos: int) -> int:
    """d at adjacent positions pos, pos+1 of an LR tableau with any number of
    rectangles: the east-count of the insertion shape of the restriction to
    the two subalphabets."""
    lo, _ = q.seq.subalphabet(pos)
    _, hi = q.seq.subalphabet(pos + 1)
    return _restricted_east(q.tableau.rows, lo, hi, max(q.seq.mu(pos), q.seq.mu(pos + 1)))


def tableau_energy_terms(q: LRTableau) -> list[tuple[int, int, int]]:
    """Summands (i, j, value) of the tableau-side energy, ordered by j and
    then by decreasing i.

    The (i, j) term is restricted_d at positions i, i+1 of q after the
    switches tau at positions j-1, ..., i+1.  sigma keeps the insertion
    tableau and acts as tau on the recording tableau, so the switches are
    walked on the factor rows of the highest weight element that
    ``rsk._lift`` reads off q (it raises when q is not R-LR).  A switch of
    two equal rectangles is the identity and is skipped: until the first
    real switch the term is restricted_d of q.  Switches above i leave
    rectangles 1..i alone, whose insertion state is the key tableau of the
    shape of q's labels up to hi_i, and the term reads labels up to the end
    of position i+1 only: ``_switched_term`` records the moved factor onto
    that key tableau.
    """
    seq, qrows = q.seq, q.tableau.rows
    lifted = [t.rows for t in _lift(q.tableau, seq).factors]
    base = [restricted_d(q, i) for i in range(1, seq.m)]
    if len(set(seq.rects[1:])) <= 1:
        return [(i, j, base[i - 1]) for j in range(2, seq.m + 1) for i in range(j - 1, 0, -1)]
    # per position i <= m-2 (a term follows a real switch only there): the
    # shape of q's labels up to hi_i, and its labels in A_i row by row
    prefix = {}
    for i in range(1, seq.m - 1):
        lo, hi = seq.subalphabet(i)
        shape = tuple(k for k in (bisect_right(row, hi) for row in qrows) if k)
        prefix[i] = shape, tuple(tuple(x for x in row[:k] if x >= lo) for row, k in zip(qrows, shape))
    out = []
    for j in range(2, seq.m + 1):
        rows, rects, moved = list(lifted), list(seq.rects), False
        for i in range(j - 1, 0, -1):
            if moved:
                lo, hi = seq.subalphabet(i)
                col = max(rects[i - 1][1], rects[i][1])
                value = _switched_term(*prefix[i], rows[i], lo, hi, col)
            else:
                value = base[i - 1]
            out.append((i, j, value))
            if i > 1 and rects[i - 1] != rects[i]:
                rows[i - 1], rows[i] = _sigma_pair(rects[i - 1], rects[i], rows[i - 1], rows[i], seq.n)
                rects[i - 1], rects[i] = rects[i], rects[i - 1]
                moved = True
    return out


@lru_cache(maxsize=None)
def _switched_term(shape: tuple, kept: tuple, rows: tuple, lo: int, hi: int, col: int) -> int:
    """restricted_d at i, i+1 after a real switch: the factor rows ``rows``
    now at position i+1 are recorded, labels from hi+1, onto the key tableau
    of ``shape`` (the insertion state of rectangles 1..i) next to ``kept``,
    q's labels lo..hi row by row; the east count is then past ``col``."""
    cols = [list(range(1, h + 1)) for h in conjugate(shape)]
    labels = [list(row) for row in kept]
    _record_onto(cols, labels, rows, hi + 1)
    return _restricted_east(labels, lo, hi + len(rows), col)


@lru_cache(maxsize=None)
def _tableau_energy_cached(rows: tuple, seq: RectSequence) -> int:
    q = LRTableau._raw(Tableau._raw(rows, (), seq.n), seq)
    return sum(v for _, _, v in tableau_energy_terms(q))


def tableau_energy(q: LRTableau) -> int:
    """Generalized charge of an LR tableau: the energy of any element whose
    recording tableau is q."""
    return _tableau_energy_cached(q.tableau.rows, q.seq)


# ---------------------------------------------------------------------------
# Classical charge, as an independent oracle for the one-row case.

def _standard_charge(word: Sequence[int]) -> int:
    """Charge of a word containing each of 1..L exactly once.

    Letters are located scanning right to left, cyclically; the index of a
    letter increases by one exactly when the scan wraps around.
    """
    n = len(word)
    pos = {x: k for k, x in enumerate(word)}
    p = pos[1]
    total = 0
    index = 0
    for letter in range(2, n + 1):
        q = pos[letter]
        if q > p:  # scanning leftward wrapped past the start
            index += 1
        total += index
        p = q
    return total


def _extract_standard(slots: list) -> list[int]:
    """Positions of one standard subword: the rightmost 1, then each next
    letter found scanning leftward cyclically."""
    top = max(x for x in slots if x is not None)
    p = max(q for q, x in enumerate(slots) if x == 1)
    positions = [p]
    for letter in range(2, top + 1):
        for step in range(1, len(slots) + 1):
            q = (p - step) % len(slots)
            if slots[q] == letter:
                positions.append(q)
                p = q
                break
        else:
            raise ValueError(f"letter {letter} missing; content not a partition")
    return positions


def charge_word(word: Sequence[int]) -> int:
    """Lascoux-Schutzenberger charge of a word with partition content."""
    word = list(word)
    counts: dict[int, int] = {}
    for x in word:
        counts[x] = counts.get(x, 0) + 1
    content = [counts.get(i, 0) for i in range(1, max(word, default=0) + 1)]
    if partition(content) != tuple(content):
        raise ValueError(f"charge needs partition content, got {content}")
    slots: list[int | None] = list(word)
    total = 0
    while any(x is not None for x in slots):
        positions = sorted(_extract_standard(slots))
        sub = [slots[p] for p in positions]
        total += _standard_charge(sub)
        for p in positions:
            slots[p] = None
    return total


def classical_charge(t: Tableau) -> int:
    """Charge of a column-strict tableau whose content is a partition."""
    return charge_word(t.word())
