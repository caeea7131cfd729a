"""Reference routes that the package no longer uses, kept as test oracles.

Jeu-de-taquin slides on a dict from cells to letters, the way from such a
dict back to a Tableau, promotion and its inverse the cell-map way, the
crystal enumeration, the inverse cyclage, the content of an element, the
string lengths of elements at every color, 0 included, tau by insertion,
sigma on two factors by inserting the whole element, and the alcove walk
of the translation's reduced words in exact fractions, the LR route of
the Kostka counts that the column walk replaced, the transpose duality of graded
characters, the Kostka walk on every order of a multiset against its map,
the energy terms of an element by sigma_swap on whole elements, the
tau chain of tableau energy terms, and the straightening of a formal
character into irreducibles, term by term.
Cells are (row, col) pairs, 1-based, row 1 on top.
"""

from collections import Counter
from fractions import Fraction
from itertools import chain, combinations, product

from rectcrys.affine import promote
from rectcrys.crystal import CrystalElement, RectSequence, _row_word, signature, young_w0
from rectcrys.demazure import translation_vector
from rectcrys.energy import _column_walk, _kostka_counts, _lrt_energies, _switches, energy_terms, restricted_d
from rectcrys.errors import NonLRError
from rectcrys.kpoly import GradedCharacter, _k_counts
from rectcrys.laurent import LaurentPolynomial
from rectcrys.rmatrix import sigma_swap
from rectcrys.rsk import LRTableau, TableauPair, _factors, _lift, is_r_lr, rsk_inverse, rsk_pair
from rectcrys.tableaux import Tableau, column_insert, conjugate, enumerate_cst, key, partition, unrecord
from rectcrys.verify import rect_sequences


def cell_map(t):
    """The cells of ``t`` with their letters."""
    return dict(zip(t.cells(), chain.from_iterable(t.rows)))


def tableau_from_cells(cells, n=None):
    """The tableau filling ``cells``, moved up and left until its top row is
    row 1 and its leftmost cell lies in column 1.  Every row from the top
    one to the bottom one must be a nonempty run of cells."""
    if not cells:
        return Tableau((), n=n)
    top = min(r for r, _ in cells)
    left = min(c for _, c in cells)
    rows, inner = [], []
    for r in range(top, max(r for r, _ in cells) + 1):
        cols = sorted(c for rr, c in cells if rr == r)
        if not cols or cols[-1] - cols[0] + 1 != len(cols):
            raise ValueError(f"row {r} is empty or not contiguous: {cols}")
        rows.append([cells[(r, c)] for c in cols])
        inner.append(cols[0] - left)
    return Tableau(rows, inner, n=n)


def slide_into(cells, hole):
    """Inward slide: entries move into ``hole`` from the north or west until
    the hole reaches the northwest boundary.  Mutates ``cells`` and returns
    the vacated cell."""
    r, c = hole
    while True:
        north = cells.get((r - 1, c))
        west = cells.get((r, c - 1))
        if north is None and west is None:
            return (r, c)
        if west is None or (north is not None and north >= west):
            cells[(r, c)] = north
            del cells[(r - 1, c)]
            r -= 1
        else:
            cells[(r, c)] = west
            del cells[(r, c - 1)]
            c -= 1


def slide_out_of(cells, hole):
    """Outward slide, inverse to :func:`slide_into`: entries move into ``hole``
    from the south or east until the hole reaches the southeast boundary."""
    r, c = hole
    while True:
        south = cells.get((r + 1, c))
        east = cells.get((r, c + 1))
        if south is None and east is None:
            return (r, c)
        if south is None or (east is not None and east < south):
            cells[(r, c)] = east
            del cells[(r, c + 1)]
            c += 1
        else:
            cells[(r, c)] = south
            del cells[(r + 1, c)]
            r += 1


def cell_promote(t, n):
    """Promotion on the cell map: the letters n leave a horizontal strip,
    its cells slide inward left to right, the vacated cells take 0, and
    every entry goes up by one."""
    cells = cell_map(t)
    strip = sorted((c for c, v in cells.items() if v == n), key=lambda rc: rc[1])
    for c in strip:
        del cells[c]
    for c in [slide_into(cells, hole) for hole in strip]:
        cells[c] = 0
    return tableau_from_cells({c: v + 1 for c, v in cells.items()}, n=n)


def cell_promote_inverse(t, n):
    """Inverse promotion on the cell map: every entry goes down by one, the
    zeros leave a horizontal strip, its cells slide outward right to left,
    and each vacated cell takes n."""
    cells = {c: v - 1 for c, v in cell_map(t).items()}
    strip = sorted((c for c, v in cells.items() if v == 0), key=lambda rc: -rc[1])
    for c in strip:
        del cells[c]
    for hole in strip:
        cells[slide_out_of(cells, hole)] = n
    return tableau_from_cells(cells, n=n)


def enumerate_crystal(seq):
    """All elements of B^R, factors varying rightmost-first."""
    factor_sets = [
        list(enumerate_cst(seq.rect_shape(j), seq.n)) for j in range(1, seq.m + 1)
    ]
    for combo in product(*factor_sets):
        yield CrystalElement._raw(seq, combo)


def tau_by_insertion(q, pos):
    """tau at pos of an LR tableau by insertion: lift q, switch with sigma,
    and insert the whole switched element (the route tau_swap avoids)."""
    return rsk_pair(sigma_swap(_lift(q.tableau, q.seq), pos)).q


def sigma_pair_by_insertion(rect1, rect2, rows1, rows2, n):
    """sigma on a two-factor element by insertion: the whole element's word
    is column-inserted, and the (rect2, rect1)-LR tableau of its shape is
    peeled off it label by label (the route rmatrix._sigma_pair avoids)."""
    p = column_insert(_row_word(rows2) + _row_word(rows1), n=n)
    seq = RectSequence((rect2, rect1))
    (qrows,) = _lrt_energies(seq)[p.outer]
    new1, new2 = _factors(unrecord(p, Tableau._raw(qrows, (), seq.n), seq.n), seq, n)
    return new1.rows, new2.rows


def two_rectangle_pairs(max_n, max_cells):
    """Every factor pair (rect1, rect2, rows1, rows2, n) of two distinct
    rectangles with at most ``max_cells`` cells in all, over every alphabet
    n with eta1 + eta2 <= n <= max_n."""
    for n in range(2, max_n + 1):
        rects = [(eta, mu) for eta in range(1, n) for mu in range(1, max_cells) if eta * mu < max_cells]
        for (eta1, mu1), (eta2, mu2) in product(rects, repeat=2):
            if (eta1, mu1) == (eta2, mu2) or eta1 + eta2 > n or eta1 * mu1 + eta2 * mu2 > max_cells:
                continue
            factors1 = [t.rows for t in enumerate_cst((mu1,) * eta1, n)]
            factors2 = [t.rows for t in enumerate_cst((mu2,) * eta2, n)]
            for rows1, rows2 in product(factors1, factors2):
                yield (eta1, mu1), (eta2, mu2), rows1, rows2, n


def chi_inverse(word, seq):
    """Inverse cyclage: the first letter moves to the end, conjugated."""
    word = tuple(word)
    if not word:
        return ()
    if not is_r_lr(word, seq):
        raise NonLRError("chi_inverse requires an R-LR word")
    y, w = word[0], word[1:]
    return young_w0(w, seq) + young_w0((y,), seq)


def content(b):
    """The occurrence counts (m_1, ..., m_n) of each letter in b."""
    return tuple(map(sum, zip(*(t.content(b.seq.n) for t in b.factors))))


def phi(b, i):
    return signature(b, i).phi


def eps(b, i):
    return signature(b, i).eps


def phi0(b):
    return phi(promote(b), 1)


def eps0(b):
    return eps(promote(b), 1)


def string_lengths(b, i):
    """(phi_i, eps_i) for any color 0..n-1."""
    if i == 0:
        sig = signature(promote(b), 1)
    else:
        sig = signature(b, i)
    return sig.phi, sig.eps


def fraction_translate_point(mu, n):
    """A generic point of the fundamental alcove, ((n - k) / (n + 1))_k less
    its mean, moved by the translation attached to mu."""
    t = translation_vector(mu, n)
    base = [Fraction(n - k, n + 1) for k in range(1, n + 1)]
    mean = sum(base) / n
    return [x - mean + tx for x, tx in zip(base, t)]


def fraction_wall_walk(point):
    """Walk a generic point (in place) back to the fundamental alcove wall
    by wall, finite walls first, one letter per crossing."""
    n = len(point)
    word = []
    while True:
        desc = None
        for i in range(1, n):
            if point[i - 1] < point[i]:
                desc = i
                break
        if desc is None and point[0] - point[-1] > 1:
            desc = 0
        if desc is None:
            return word
        word.append(desc)
        if desc == 0:
            point[0], point[-1] = point[-1] + 1, point[0] - 1
        else:
            point[desc - 1], point[desc] = point[desc], point[desc - 1]


def column_walk_mismatches(max_n, max_cells):
    """The number of R in rect_sequences(max_n, max_cells) with no real
    switch, and those of them on which the column walk's counts differ from
    one Counter per shape over the energies of every R-LR tableau."""
    count, bad = 0, []
    for seq in rect_sequences(max_n, max_cells):
        if _switches(seq):
            continue
        count += 1
        lr_route = {lam: Counter(group.values()) for lam, group in _lrt_energies(seq).items()}
        if _column_walk(seq) != lr_route:
            bad.append(seq.rects)
    return count, bad


def duality_mismatches(max_n, max_cells):
    """The number of R in rect_sequences(max_n, max_cells), and those on
    which K_{lam;R}(q) = q^c(R) K_{lam^t;R^t}(1/q) fails, where R^t
    transposes every rectangle and c(R) is the sum over i < j of
    min(eta_i, eta_j) min(mu_i, mu_j).  R^t has another alphabet, other
    Levi blocks and other switches than R, so each side checks the other's
    energy walk, run on R and R^t as given, not through the map of their
    multisets; no-switch R and R^t both take the column walk.  Confirmed on
    these R by experiment, not from a source."""
    count, bad = 0, []
    for seq in rect_sequences(max_n, max_cells):
        c = sum(min(a, b) * min(u, v) for (a, u), (b, v) in combinations(seq.rects, 2))
        dual = RectSequence([(mu, eta) for eta, mu in seq.rects])
        want = {
            conjugate(lam): {c - e: k for e, k in counts.items()}
            for lam, counts in _kostka_counts(seq).items()
        }
        if _kostka_counts(dual) != want:
            bad.append(seq.rects)
        count += 1
    return count, bad


def reorder_mismatches(max_n, max_cells):
    """The number of R in rect_sequences(max_n, max_cells) and of their
    multisets, and the R on which the Kostka walk in R's own order differs
    from the map of R's multiset, which walks one order of it: the
    coefficient map of each shape's count against its polynomial's."""
    count, multisets, bad = 0, set(), []
    for seq in rect_sequences(max_n, max_cells):
        multisets.add(seq._multiset)
        walked = {lam: dict(c) for lam, c in _kostka_counts(seq).items()}
        if walked != {lam: dict(p.coeffs) for lam, p in _k_counts(seq._multiset).items()}:
            bad.append(seq.rects)
        count += 1
    return count, len(multisets), bad


def energy_terms_by_swaps(b):
    """The summands (i, j, value) of the total energy of b, switching whole
    elements with sigma_swap: the (i, j) term counts the cells east of
    column max(mu_i, mu_i+1) in the insertion shape of the two-factor word
    at positions i, i+1, after the switches at j-1, ..., i+1 (the route
    energy._column_terms avoids)."""
    out = []
    for j in range(2, b.seq.m + 1):
        cur = b
        for i in range(j - 1, 0, -1):
            shape = column_insert(cur.factors[i].word() + cur.factors[i - 1].word()).outer
            col = max(cur.seq.mu(i), cur.seq.mu(i + 1))
            out.append((i, j, sum(max(0, part - col) for part in shape)))
            if i > 1:
                cur = sigma_swap(cur, i)
    return out


def tau_chain_energy_terms(q):
    """The tau-chain tableau energy terms (i, j, value), in the order of
    energy.energy_terms: every switch lifts the current tableau again with
    the checked rsk_inverse, switches the element with sigma_swap and checks
    the switched tableau with the public LRTableau constructor; each term
    is restricted_d, read off the recording tableau."""
    out = []
    for j in range(2, q.seq.m + 1):
        cur = q
        for i in range(j - 1, 0, -1):
            out.append((i, j, restricted_d(cur, i)))
            if i > 1:
                pair = TableauPair(key(cur.tableau.outer, n=cur.seq.n), cur.tableau)
                b = sigma_swap(rsk_inverse(pair, cur.seq), i)
                cur = LRTableau(rsk_pair(b).q, b.seq)
    return out


def lift_term_mismatches(max_n, max_cells):
    """The number of LR tableaux q over rect_sequences(max_n, max_cells),
    and those on which energy_terms of q's lift differs term by term from
    the tau chain of q."""
    count, bad = 0, []
    for seq in rect_sequences(max_n, max_cells):
        for group in _lrt_energies(seq).values():
            for rows in group:
                q = LRTableau._raw(Tableau._raw(rows, (), seq.n), seq)
                if energy_terms(_lift(q.tableau, seq)) != tau_chain_energy_terms(q):
                    bad.append(q)
                count += 1
    return count, bad


def straighten_by_inversions(ch, level):
    """demazure._straighten written out term by term: each term (lam0,
    f_1, ..., f_{n-1}, delta) of ``ch`` is the weight lam with lam_k -
    lam_{k+1} = f_k and |lam| = level * n (lam0 is not read).  It vanishes
    when lam + rho, rho = (n-1, ..., 1, 0), repeats an entry; otherwise it
    is (-1)^inv times the character of the shape sort(lam + rho) - rho at
    q^(-delta), inv the pairs i < j with (lam + rho)_i < (lam + rho)_j, the
    ones the decreasing sort puts in order.  Every shape goes through
    partition and every polynomial through the checked LaurentPolynomial."""
    n = ch.n
    size = level * n
    rho = list(range(n - 1, -1, -1))
    acc = {}
    for w, c in ch.terms.items():
        fin, delta = w[1:n], w[n]
        if delta > 0:
            raise ValueError("positive delta coefficient in a Demazure character")
        tail = size - sum(i * f for i, f in enumerate(fin, start=1))
        if tail % n:
            raise ValueError(f"no partition of {size} with differences {fin}")
        lam = [tail // n]
        for f in reversed(fin):
            lam.insert(0, lam[0] + f)
        v = [a + r for a, r in zip(lam, rho)]
        if len(set(v)) < n:
            continue
        inv = sum(1 for i in range(n) for j in range(i + 1, n) if v[i] < v[j])
        shape = tuple(a - r for a, r in zip(sorted(v, reverse=True), rho))
        degrees = acc.setdefault(shape, {})
        degrees[-delta] = degrees.get(-delta, 0) + (-1) ** inv * c
    result = {}
    for shape, degrees in acc.items():
        poly = LaurentPolynomial(degrees)
        if not poly:
            continue
        if any(m < 0 for m in poly.coeffs.values()):
            raise ValueError(f"negative multiplicity at {shape}")
        result[partition(shape)] = poly
    return GradedCharacter.from_dict(result)
