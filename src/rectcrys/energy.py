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

from functools import lru_cache
from typing import Sequence

from .crystal import CrystalElement, RectSequence
from .rsk import LRTableau, _lift, rsk_pair
from .rmatrix import sigma_swap
from .tableaux import Tableau, insertion_shape, partition


def _east_count(shape: Sequence[int], col: int) -> int:
    return sum(max(0, part - col) for part in shape)


def d_stat(q: LRTableau) -> int:
    """Cells of shape(q) strictly east of the max(mu_1, mu_2)-th column, for a
    two-rectangle LR tableau of partition shape."""
    if q.seq.m != 2:
        raise ValueError("d_stat expects exactly two rectangles")
    return _east_count(q.tableau.outer, max(q.seq.mu(1), q.seq.mu(2)))


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
    out.sort(key=lambda t: (t[1], -t[0]))
    return out


def total_energy(b: CrystalElement) -> int:
    """Sum of all pairwise local energies through rectangle switches."""
    return sum(v for _, _, v in energy_terms(b))


def restricted_d(q: LRTableau, pos: int) -> int:
    """d at adjacent positions pos, pos+1 of an LR tableau with any number of
    rectangles: the east-count of the insertion shape of the restriction to
    the two subalphabets."""
    lo, _ = q.seq.subalphabet(pos)
    _, hi = q.seq.subalphabet(pos + 1)
    word = tuple(x for x in q.tableau.word() if lo <= x <= hi)
    col = max(q.seq.mu(pos), q.seq.mu(pos + 1))
    return _east_count(insertion_shape(word), col)


def tableau_energy_terms(q: LRTableau) -> list[tuple[int, int, int]]:
    """Summands (i, j, value) of the tableau-side energy.

    The (i, j) term is restricted_d at positions i, i+1 of q after the
    switches tau at positions j-1, ..., i+1.  sigma keeps the insertion
    tableau and acts as tau on the recording tableau, so q is lifted once to
    the element with key insertion tableau, the switches are walked on that
    element, and each term reads the element's recording tableau.
    """
    seq = q.seq
    lifted = _lift(q.tableau, seq) if seq.m >= 3 else None
    out = []
    for j in range(2, seq.m + 1):
        cur, el = q, lifted
        for i in range(j - 1, 0, -1):
            out.append((i, j, restricted_d(cur, i)))
            if i > 1:
                el = sigma_swap(el, i)
                cur = LRTableau._raw(rsk_pair(el).q, el.seq)
    out.sort(key=lambda t: (t[1], -t[0]))
    return out


@lru_cache(maxsize=None)
def _tableau_energy_cached(rows: tuple, inner: tuple, rects: tuple) -> int:
    q = LRTableau._raw(Tableau._raw(rows, inner, None), RectSequence(rects))
    return sum(v for _, _, v in tableau_energy_terms(q))


def tableau_energy(q: LRTableau) -> int:
    """Generalized charge of an LR tableau: the energy of any element whose
    recording tableau is q."""
    return _tableau_energy_cached(q.tableau.rows, q.tableau.inner, q.seq.rects)


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
