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

from bisect import bisect_left, bisect_right
from collections import Counter
from functools import lru_cache
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, Sequence

from .crystal import CrystalElement, RectSequence
from .errors import InconsistentPairError
from .rsk import LRTableau, _levi_colors, _lr_rows, _read_off, _strips
from .rmatrix import _sigma_pair
from .tableaux import Tableau, insertion_shape, partition


def _east_count(shape: Sequence[int], col: int) -> int:
    return sum(max(0, part - col) for part in shape)


def _pair_d(rows_a: tuple, rows_b: tuple, col: int) -> int:
    """Local energy of the two-factor element with factor rows ``rows_a``
    then ``rows_b``: the east count past ``col`` of the insertion shape of
    its reading word, rows_b's rows then rows_a's, bottom row first."""
    return _east_count(insertion_shape(tuple(x for row in reversed(rows_a + rows_b) for x in row)), col)


def local_H(b: CrystalElement) -> int:
    """Energy of a two-factor element, normalized to vanish on the stacked
    highest weight component."""
    if b.seq.m != 2:
        raise ValueError("local_H expects exactly two factors")
    return _pair_d(b.factors[0].rows, b.factors[1].rows, max(b.seq.mu(1), b.seq.mu(2)))


def energy_terms(b: CrystalElement) -> list[tuple[int, int, int]]:
    """Summands (i, j, value) of the total energy, for 1 <= i < j <= m, in
    the order of :func:`_column_terms` on b's factor rows."""
    rows = [t.rows for t in b.factors]
    return [
        (i, j, v)
        for j in range(2, b.seq.m + 1)
        for i, v in zip(range(j - 1, 0, -1), _column_terms(b.seq, rows, j))
    ]


def total_energy(b: CrystalElement) -> int:
    """Sum of all pairwise local energies through rectangle switches."""
    return sum(v for _, _, v in energy_terms(b))


def _restricted_east(qrows: Sequence[Sequence[int]], lo: int, hi: int, col: int) -> int:
    """East count past ``col`` of the insertion shape of the reading word of
    the recording rows ``qrows`` restricted to the labels lo..hi.  From label
    1 the restriction is a normal subtableau, its own insertion tableau, so
    its shape is read off with no insertion."""
    if lo == 1:
        return _east_count([bisect_right(row, hi) for row in qrows], col)
    word = tuple(x for row in reversed(qrows) for x in row if lo <= x <= hi)
    return _east_count(insertion_shape(word), col)


def restricted_d(q: LRTableau, pos: int) -> int:
    """d at adjacent positions pos, pos+1 of an LR tableau with any number of
    rectangles: the east-count of the insertion shape of the restriction to
    the two subalphabets."""
    lo, _ = q.seq.subalphabet(pos)
    _, hi = q.seq.subalphabet(pos + 1)
    return _restricted_east(q.tableau.rows, lo, hi, max(q.seq.mu(pos), q.seq.mu(pos + 1)))


def _switches(seq: RectSequence) -> bool:
    """True when some switch of the energy walk exchanges two different
    rectangles; the walk never switches at position 1."""
    return len(set(seq.rects[1:])) > 1


def _column_terms(seq: RectSequence, rows: Sequence[tuple], j: int) -> Iterator[int]:
    """The terms (i, j) of the total energy of the element with factor rows
    ``rows``, for i = j-1 down to 1.

    The right factor walks leftward: the (i, j) term is the local energy at
    positions i, i+1 after the switches sigma at positions j-1, ..., i+1,
    each made on the two factor rows it moves.  A switch of two equal
    rectangles is the identity and is skipped.
    """
    rows, rects = list(rows[:j]), list(seq.rects[:j])
    for i in range(j - 1, 0, -1):
        yield _pair_d(rows[i - 1], rows[i], max(rects[i - 1][1], rects[i][1]))
        if i > 1 and rects[i - 1] != rects[i]:
            rows[i - 1], rows[i] = _sigma_pair(rects[i - 1], rects[i], rows[i - 1], rows[i], seq.n)
            rects[i - 1], rects[i] = rects[i], rects[i - 1]


def _energies(seq: RectSequence, tableaux: Iterable[tuple]) -> dict[tuple, int]:
    """The energies of the given R-LR tableaux of R (trusted), keyed by rows.

    The terms (i, j) with j < m read only the labels below lo_m: the prefix,
    an LR tableau of R_1..R_{m-1}, whose energy comes from this function on
    that sequence and the prefixes met.  So each energy is its prefix's plus
    the terms (i, m) of :func:`_column_terms` on the factor rows of its
    lift, the highest weight element whose recording tableau it is.  The
    tableaux are grouped by prefix: the lift of factors 1..m-1 is read once
    per prefix, and only the last factor's once per tableau.  With no real
    switch every term (i, j) is restricted_d at i, read off the recording
    rows with no lift, so the energy is the sum over i of m - i times it.
    """
    m = seq.m
    if not _switches(seq):
        weighted = [
            (m - i, seq.subalphabet(i)[0], seq.subalphabet(i + 1)[1], max(seq.mu(i), seq.mu(i + 1)))
            for i in range(1, m)
        ]
        return {
            rows: sum(w * _restricted_east(rows, lo, hi, col) for w, lo, hi, col in weighted)
            for rows in tableaux
        }
    bounds = [seq.subalphabet(j) for j in range(1, m)]
    lo_m = seq.subalphabet(m)[0]
    by_prefix: dict[tuple, list[tuple]] = {}
    for rows in tableaux:
        prefix = tuple(row[:k] for row in rows if (k := bisect_left(row, lo_m)))
        by_prefix.setdefault(prefix, []).append(rows)
    prefix_energy = _energies(RectSequence(seq.rects[:-1]), by_prefix)
    out = {}
    for prefix, group in by_prefix.items():
        lift = _read_off(prefix, lo_m - 1)
        lifted = [tuple(lift[lo - 1 : hi]) for lo, hi in bounds]
        energy = prefix_energy[prefix]
        for rows in group:
            out[rows] = energy + sum(_column_terms(seq, lifted + [tuple(_read_off(rows, seq.n, lo_m))], m))
    return out


@lru_cache(maxsize=2048)
def _lrt_energies(seq: RectSequence) -> Mapping[tuple, Mapping[tuple, int]]:
    """The energy of every R-LR tableau of R, by shape as :func:`_lr_rows`
    lists them, keyed by rows (read-only): the one per-R tableau memo."""
    by_shape = _lr_rows(seq)
    energies = _energies(seq, [rows for group in by_shape.values() for rows in group])
    return MappingProxyType({
        lam: MappingProxyType({rows: energies[rows] for rows in group}) for lam, group in by_shape.items()
    })


def _kostka_counts(seq: RectSequence, outer: tuple[int, ...] | None = None) -> dict[tuple, dict[int, int]]:
    """K_{lambda;R}(q) as {energy: count} per shape of R (inside ``outer`` if given):
    the column walk, or with a real switch the energy walk on unmemoized LR rows."""
    if not _switches(seq):
        return _column_walk(seq, outer)
    by_shape = _lr_rows(seq, outer)
    energies = _energies(seq, [rows for group in by_shape.values() for rows in group])
    return {lam: Counter(energies[rows] for rows in group) for lam, group in by_shape.items()}


def _column_walk(seq: RectSequence, outer: tuple[int, ...] | None = None) -> dict[tuple, dict[int, int]]:
    """{energy: count} over the R-LR tableaux of each shape of R, inside
    ``outer`` when given, for an R with no real switch: the strip walk of
    :func:`_lr_rows` with counts in place of tableaux.

    With no real switch the energy is the sum over i of m - i times d_i,
    restricted_d at i, which reads only q's labels lo_i..hi_{i+1}: the skew
    tableau fixed by the chain of shapes of q's labels up to lo_i - 1, ...,
    hi_{i+1}.  So a state is that chain, from the start of the last
    complete rectangle to the current letter, with the Levi strip of the
    walk, and holds {energy so far: count}.  When rectangle i+1 is
    complete, each state adds (m - i) d_i and drops rectangle i's shapes,
    and the states that became equal merge.
    """
    m = seq.m
    levi = set(_levi_colors(seq))
    ends = {seq.subalphabet(i + 1)[1]: i for i in range(1, m)}  # hi_{i+1} -> i
    states: dict = {(((),), None): {0: 1}}  # (chain of shapes, last strip or None) -> counts
    for x, g in enumerate(seq.gamma(), start=1):
        grown: dict = {}
        for (chain, last), counts in states.items():
            shape = chain[-1] + (0,)
            for strip in _strips(shape, g, last, outer):
                new = tuple(p + c for p, c in zip(shape, strip) if p + c)
                grown[chain + (new,), strip if x in levi else None] = counts
        i = ends.get(x)
        if i is not None:
            lo, eta, weight = seq.subalphabet(i)[0], seq.eta(i), m - i
            col = max(seq.mu(i), seq.mu(i + 1))
            merged: dict = {}
            for (chain, _), counts in grown.items():
                d = weight * _chain_east(chain, lo, col)
                _add_shifted(merged.setdefault((chain[eta:], None), {}), counts, d)
            grown = merged
        states = grown
    out: dict = {}
    for (chain, _), counts in states.items():
        _add_shifted(out.setdefault(chain[-1], {}), counts, 0)
    return out


def _add_shifted(acc: dict[int, int], counts: Mapping[int, int], shift: int) -> None:
    for e, c in counts.items():
        acc[e + shift] = acc.get(e + shift, 0) + c


def _chain_east(chain: Sequence[tuple], lo: int, col: int) -> int:
    """:func:`_restricted_east` past ``col`` of the labels lo..hi that the
    chain of shapes nu^(lo-1), ..., nu^(hi) places: row r holds the label
    x once per cell of nu^(x) past nu^(x-1) in that row."""
    if lo == 1:
        return _east_count(chain[-1], col)
    rows: list[list[int]] = [[] for _ in chain[-1]]
    for x, (prev, cur) in enumerate(zip(chain, chain[1:]), start=lo):
        for r, part in enumerate(cur):
            rows[r] += [x] * (part - (prev[r] if r < len(prev) else 0))
    return _restricted_east(rows, lo, lo + len(chain) - 2, col)


def tableau_energy(q: LRTableau) -> int:
    """Generalized charge of an LR tableau: the energy of any element whose
    recording tableau is q, read off the pass over every R-LR tableau of R."""
    try:
        return _lrt_energies(q.seq)[q.tableau.outer][q.tableau.rows]
    except KeyError:
        raise InconsistentPairError(f"{q.tableau.rows} is not a {q.seq.rects}-LR tableau") from None


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
