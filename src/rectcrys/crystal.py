"""Classical crystal structure on tensor products of rectangular tableaux.

Elements of B^R are tuples b_m (x) ... (x) b_1 of column-strict rectangular
tableaux over the alphabet 1..n, with b_1 the rightmost tensor factor.  The
raising and lowering operators for colors 1..n-1 are computed by the
signature rule; the affine color 0 lives in :mod:`rectcrys.affine`.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Sequence

from .tableaux import Tableau, _Frozen, json_ints, key


class RectSequence(_Frozen):
    """A sequence R = (R_1, ..., R_m) of rectangles (eta_j rows, mu_j columns).

    The row counts sum to n, and the alphabet 1..n splits into consecutive
    subalphabets A_1, ..., A_m of sizes eta_1, ..., eta_m.
    """

    __slots__ = ("rects", "n", "_bounds", "_gamma", "_multiset")
    _fields = ("rects",)

    def __new__(cls, rects: Iterable[Sequence[int]]):
        # One shared instance per rectangle tuple: a tuple is looked up as
        # given, anything else normalized and checked first.
        if rects.__class__ is tuple:
            try:
                return _interned(rects)
            except TypeError:  # unhashable, a tuple of lists
                pass
        return _interned(_normalized(rects))

    # Written out, not the generic field walk: RectSequence keys many memos.
    def __eq__(self, other) -> bool:
        if other.__class__ is not RectSequence:
            return NotImplemented
        return self.rects == other.rects

    def __hash__(self) -> int:
        return hash((self.rects,))

    def __reduce__(self):
        return RectSequence, (self.rects,)

    @property
    def m(self) -> int:
        return len(self.rects)

    @property
    def ncells(self) -> int:
        return sum(e * m for e, m in self.rects)

    def eta(self, j: int) -> int:
        return self.rects[j - 1][0]

    def mu(self, j: int) -> int:
        return self.rects[j - 1][1]

    def subalphabet(self, j: int) -> tuple[int, int]:
        """Letters of A_j as an inclusive interval (lo, hi)."""
        return self._bounds[j - 1]

    def gamma(self) -> tuple[int, ...]:
        """Row lengths of the skew shape: R_1 through R_m juxtaposed."""
        if self._gamma is None:
            object.__setattr__(self, "_gamma", tuple(m for e, m in self.rects for _ in range(e)))
        return self._gamma

    def rect_shape(self, j: int) -> tuple[int, ...]:
        e, m = self.rects[j - 1]
        return (m,) * e

    def key_tableau(self, j: int) -> Tableau:
        """Y_j: the key tableau of R_j filled from its own subalphabet A_j."""
        eta, mu = self.rects[j - 1]
        return key((mu,) * eta, n=self.n, offset=self._bounds[j - 1][0] - 1)

    def swapped(self, pos: int) -> "RectSequence":
        """Rectangles at positions pos, pos+1 exchanged."""
        r = list(self.rects)
        r[pos - 1], r[pos] = r[pos], r[pos - 1]
        return RectSequence(tuple(r))

    def permuted(self, w: Sequence[int]) -> "RectSequence":
        """The sequence wR, holding R_{w^{-1}(j)} at position j."""
        if sorted(w) != list(range(1, self.m + 1)):
            raise ValueError(f"not a permutation of 1..{self.m}: {w}")
        winv = [0] * self.m
        for i, wi in enumerate(w, start=1):
            winv[wi - 1] = i
        return RectSequence(self.rects[winv[j] - 1] for j in range(self.m))

    def to_json(self) -> list[list[int]]:
        return [list(r) for r in self.rects]

    def __repr__(self) -> str:
        return f"RectSequence({list(self.rects)})"


def _normalized(rects: Iterable[Sequence[int]]) -> tuple[tuple[int, int], ...]:
    """The rectangles as a tuple of (rows, columns) int pairs, each positive."""
    out = []
    for e, m in rects:
        e, m = int(e), int(m)
        if e < 1 or m < 1:
            raise ValueError(f"rectangles need positive dimensions: {(e, m)}")
        out.append((e, m))
    return tuple(out)


@lru_cache(maxsize=2048)
def _interned(rects: tuple) -> RectSequence:
    """The one RectSequence of ``rects``, built on a miss: n and the
    subalphabet bounds here, gamma (one entry per letter) when first asked
    for, and the sorted multiset that keys the Kostka map.  Equality, hash
    and pickling stay by value, since an evicted instance may still be in
    use."""
    rects = _normalized(rects)
    seq = object.__new__(RectSequence)
    put = object.__setattr__
    bounds, n = [], 0
    for e, _ in rects:
        bounds.append((n + 1, n + e))
        n += e
    put(seq, "rects", rects)
    put(seq, "n", n)
    put(seq, "_bounds", tuple(bounds))
    put(seq, "_gamma", None)
    put(seq, "_multiset", tuple(sorted(rects)))
    return seq


class CrystalElement:
    """An element b = b_m (x) ... (x) b_1 of B^R; factors[0] is b_1."""

    __slots__ = ("seq", "factors")

    def __init__(self, seq: RectSequence, factors: Sequence[Tableau]):
        self.seq = seq
        self.factors = tuple(factors)
        if len(self.factors) != seq.m:
            raise ValueError(f"expected {seq.m} factors, got {len(self.factors)}")
        for j, t in enumerate(self.factors, start=1):
            if t.outer != seq.rect_shape(j) or t.inner != ():
                eta, mu = seq.rects[j - 1]
                raise ValueError(f"factor {j} has shape {t.outer}/{t.inner}, expected rectangle {eta}x{mu}")
            if any(x > seq.n for row in t.rows for x in row):
                raise ValueError(f"factor {j} uses letters beyond {seq.n}")

    @classmethod
    def _raw(cls, seq: RectSequence, factors: tuple) -> "CrystalElement":
        """Trusted constructor: ``factors`` is a tuple of tableaux already
        filling the rectangles of ``seq`` over its alphabet."""
        b = object.__new__(cls)
        b.seq = seq
        b.factors = factors
        return b

    def replace_factor(self, pos: int, t: Tableau) -> "CrystalElement":
        factors = list(self.factors)
        factors[pos - 1] = t
        return CrystalElement._raw(self.seq, tuple(factors))

    def to_json(self) -> dict:
        return {
            "rects": self.seq.to_json(),
            "factors": [t.to_json() for t in self.factors],
        }

    @classmethod
    def from_json(cls, data: dict) -> "CrystalElement":
        rects, factors = json_ints(data["rects"], "rects", 2), data["factors"]
        if not isinstance(factors, list) or len(factors) != len(rects):
            raise ValueError(f"factors must be a list of {len(rects)} tableaux")
        # shapes first: the checks below take memory for every row of each rectangle
        for j, (rect, f) in enumerate(zip(rects, factors), start=1):
            rows = f.get("rows") if isinstance(f, dict) else None
            if len(rect) != 2 or not isinstance(rows, list) or len(rows) != rect[0] or any(
                not isinstance(row, list) or len(row) != rect[1] for row in rows
            ):
                raise ValueError(f"factor {j} does not fill a {'x'.join(map(str, rect))} rectangle")
        seq = RectSequence(rects)
        return cls(seq, [Tableau.from_json(f, n=seq.n) for f in factors])

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, CrystalElement)
            and self.seq == other.seq
            and self.factors == other.factors
        )

    def __hash__(self) -> int:
        return hash((self.seq, self.factors))

    def __repr__(self) -> str:
        return " (x) ".join(repr(t).replace("\n", "/") for t in reversed(self.factors))


# ---------------------------------------------------------------------------
# Signature rule.

class Signature(_Frozen):
    """Reduced signature of an element at one color.

    ``phi``, ``eps``: the counts of surviving - and +; ``f_pos``, ``e_pos``:
    where f and e act (None when they do not).  ``reduced`` lists the
    surviving biletters as (position, sign) pairs with sign '-' or '+';
    positions are tensor positions, 1 for the rightmost factor.
    """

    __slots__ = _fields = ("phi", "eps", "f_pos", "e_pos", "reduced")

    def __init__(
        self,
        phi: int,
        eps: int,
        f_pos: int | None,
        e_pos: int | None,
        reduced: tuple[tuple[int, str], ...],
    ):
        for name, value in zip(self._fields, (phi, eps, f_pos, e_pos, reduced)):
            object.__setattr__(self, name, value)


def _bracket(pairs: Sequence[tuple[int, int]]) -> tuple[int, int, int | None, int | None]:
    """The signature rule on tensor factors listed left to right.

    Factor k contributes ``pairs[k] = (phi, eps)``, read as the signs
    -^phi +^eps, and each - cancels the nearest uncancelled + to its left.
    Returns (phi, eps, f_pos, e_pos) of the product: f acts on the factor
    of the rightmost surviving -, e on the factor of the leftmost surviving
    +.  Positions are tensor positions, 1 for the rightmost factor.
    """
    phi = eps = 0
    f_pos = None
    stack: list[tuple[int, int]] = []  # uncancelled + as (position, count)
    pos = len(pairs)
    for p, q in pairs:
        while p and stack:
            top, cnt = stack[-1]
            if cnt > p:
                stack[-1] = (top, cnt - p)
                eps -= p
                p = 0
            else:
                stack.pop()
                eps -= cnt
                p -= cnt
        if p:
            phi += p
            f_pos = pos
        if q:
            stack.append((pos, q))
            eps += q
        pos -= 1
    return phi, eps, f_pos, stack[0][0] if stack else None


def _signature(pairs: Sequence[tuple[int, int]]) -> Signature:
    """The Signature of ``pairs`` with its reduced word spelled out.

    Whether a - survives depends only on what stands to its left, and a +
    only on what stands to its right, so the survivors of factor k are the
    growth of phi over the prefixes and of eps over the suffixes at k.
    """
    m = len(pairs)
    left = [_bracket(pairs[:k])[0] for k in range(m + 1)]
    right = [_bracket(pairs[k:])[1] for k in range(m + 1)]
    reduced = tuple(
        [(m - k, "-") for k in range(m) for _ in range(left[k + 1] - left[k])]
        + [(m - k, "+") for k in range(m) for _ in range(right[k] - right[k + 1])]
    )
    return Signature(*_bracket(pairs), reduced)


def _word_pairs(word: Sequence[int], i: int) -> list[tuple[bool, bool]]:
    """One (phi, eps) pair per letter: i is a -, i+1 a +."""
    return [(x == i, x == i + 1) for x in word]


def _row_word(rows: tuple) -> list[int]:
    """Reading word of a tableau given by its rows: bottom row first."""
    word: list[int] = []
    for row in reversed(rows):
        word.extend(row)
    return word


def _rows_like(word: Sequence[int], rows: tuple) -> tuple:
    """``word`` cut back into rows of the lengths of ``rows``."""
    out, k = [], 0
    for row in reversed(rows):
        out.append(tuple(word[k : k + len(row)]))
        k += len(row)
    return tuple(reversed(out))


@lru_cache(maxsize=None)
def _tableau_stats(rows: tuple, i: int) -> tuple[int, int]:
    return _bracket(_word_pairs(_row_word(rows), i))[:2]


def tableau_phi_eps(t: Tableau, i: int) -> tuple[int, int]:
    return _tableau_stats(t.rows, i)


@lru_cache(maxsize=None)
def _tableau_apply(rows: tuple, i: int, op: str) -> tuple | None:
    """Apply e_i or f_i to a tableau given by its rows; None when undefined."""
    word = (word_f if op == "f" else word_e)(_row_word(rows), i)
    return None if word is None else _rows_like(word, rows)


def tableau_f(t: Tableau, i: int) -> Tableau | None:
    rows = _tableau_apply(t.rows, i, "f")
    if rows is None:
        return None
    return Tableau._raw(rows, t.inner, t.n)


def tableau_e(t: Tableau, i: int) -> Tableau | None:
    rows = _tableau_apply(t.rows, i, "e")
    if rows is None:
        return None
    return Tableau._raw(rows, t.inner, t.n)


def _element_pairs(b: CrystalElement, i: int) -> list[tuple[int, int]]:
    """One (phi, eps) pair per factor, b_m first."""
    return [_tableau_stats(t.rows, i) for t in reversed(b.factors)]


def signature(b: CrystalElement, i: int) -> Signature:
    """Reduced signature of a crystal element at color i in 1..n-1."""
    return _signature(_element_pairs(b, i))


def e(b: CrystalElement, i: int) -> CrystalElement | None:
    """Raising operator for a classical color i in 1..n-1; None when undefined."""
    e_pos = _bracket(_element_pairs(b, i))[3]
    if e_pos is None:
        return None
    return b.replace_factor(e_pos, tableau_e(b.factors[e_pos - 1], i))


def f(b: CrystalElement, i: int) -> CrystalElement | None:
    """Lowering operator for a classical color i in 1..n-1; None when undefined."""
    f_pos = _bracket(_element_pairs(b, i))[2]
    if f_pos is None:
        return None
    return b.replace_factor(f_pos, tableau_f(b.factors[f_pos - 1], i))


def reflection(b: CrystalElement, i: int) -> CrystalElement:
    """Crystal reflection r_i: f_i^p or e_i^(-p) with p = phi_i - eps_i."""
    phi_, eps_, _, _ = _bracket(_element_pairs(b, i))
    cur = b
    for _ in range(phi_ - eps_):
        cur = f(cur, i)
    for _ in range(eps_ - phi_):
        cur = e(cur, i)
    return cur


def word_f(w: Sequence[int], i: int) -> tuple[int, ...] | None:
    f_pos = _bracket(_word_pairs(w, i))[2]
    if f_pos is None:
        return None
    idx = len(w) - f_pos
    return tuple(w[:idx]) + (i + 1,) + tuple(w[idx + 1 :])


def word_e(w: Sequence[int], i: int) -> tuple[int, ...] | None:
    e_pos = _bracket(_word_pairs(w, i))[3]
    if e_pos is None:
        return None
    idx = len(w) - e_pos
    return tuple(w[:idx]) + (i,) + tuple(w[idx + 1 :])


def word_reflection(w: Sequence[int], i: int) -> tuple[int, ...]:
    phi_, eps_, _, _ = _bracket(_word_pairs(w, i))
    cur = tuple(w)
    for _ in range(phi_ - eps_):
        cur = word_f(cur, i)
    for _ in range(eps_ - phi_):
        cur = word_e(cur, i)
    return cur


@lru_cache(maxsize=None)
def _tableau_reflect_rows(rows: tuple, i: int) -> tuple:
    return _rows_like(word_reflection(_row_word(rows), i), rows)


def tableau_reflection(t: Tableau, i: int) -> Tableau:
    return Tableau._raw(_tableau_reflect_rows(t.rows, i), t.inner, t.n)


def _longest_element_word(colors: Sequence[int]) -> list[int]:
    """Lexicographically first reduced word of the longest element of the
    symmetric group generated by consecutive ``colors``."""
    out: list[int] = []
    for t in range(1, len(colors) + 1):
        out.extend(colors[s] for s in range(t - 1, -1, -1))
    return out


def young_w0(u, seq: RectSequence):
    """Action of the longest element of S_{A_1} x ... x S_{A_m}.

    Accepts a word (tuple of letters) or a Tableau and returns the same kind.
    Implemented as crystal reflections along a reduced word inside each
    subalphabet; reverses the content within every A_j.
    """
    is_word = not isinstance(u, Tableau)
    cur = tuple(u) if is_word else u
    for j in range(1, seq.m + 1):
        lo, hi = seq.subalphabet(j)
        colors = list(range(lo, hi))
        for c in _longest_element_word(colors):
            cur = word_reflection(cur, c) if is_word else tableau_reflection(cur, c)
    return cur


def pairing(i: int, content: Sequence[int]) -> int:
    """<h_i, wt> on classical weights: m_i - m_{i+1} with indices mod n."""
    n = len(content)
    if i == 0:
        return content[n - 1] - content[0]
    return content[i - 1] - content[i]
