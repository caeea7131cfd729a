"""Affine type A weight arithmetic and Demazure characters.

Weights live in the lattice spanned by the fundamental weights and the null
root delta.  Demazure operators act on finite formal sums of exponentials.
The Demazure character at the translation attached to a partition of n is
stable under the finite Weyl group, so the operators run only along the
shortest element of its coset, and the Weyl character formula expands the
result into irreducible characters of the finite subalgebra, with q keeping
track of the delta grading.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from functools import lru_cache
from itertools import accumulate, combinations, starmap
from math import comb
from operator import add, gt, sub

from .errors import NotPartitionOfNError
from .kpoly import GradedCharacter
from .laurent import LaurentPolynomial
from .tableaux import _Frozen, partition


def cartan_entry(n: int, i: int, j: int) -> int:
    """Cartan matrix of the affine cycle with n nodes (n >= 2)."""
    return _classical_roots(n)[i][j]


class AffineWeight(_Frozen):
    """An element lam0*L_0 + sum finite_i*L_i + delta_coeff*delta of the
    affine weight lattice, for fixed rank data n."""

    __slots__ = _fields = ("n", "lam0", "finite", "delta")

    def __init__(self, n: int, lam0: int, finite: tuple[int, ...], delta: int):
        if n < 2:
            raise ValueError("rank data needs n >= 2")
        if len(finite) != n - 1:
            raise ValueError(f"finite part must have length {n - 1}")
        for name, value in zip(self._fields, (n, lam0, finite, delta)):
            object.__setattr__(self, name, value)


def _term_key(n: int, w) -> tuple[int, ...]:
    """The key (lam0, *finite, delta) of an exponential, from an
    AffineWeight or from a key already."""
    key = (w.lam0, *w.finite, w.delta) if isinstance(w, AffineWeight) else tuple(w)
    if len(key) != n + 1:
        raise ValueError(f"weight {w} does not have rank data n = {n}")
    return key


@lru_cache(maxsize=None)
def _classical_roots(n: int) -> tuple[tuple[int, ...], ...]:
    """The classical parts (lam0, *finite) of alpha_0, ..., alpha_{n-1}:
    alpha_i = sum_j a_{ij} Lambda_j, plus delta when i = 0.  Row i of the
    Cartan matrix of the n-cycle: 2 at i, -1 at each neighbour of i (twice
    the one neighbour when n = 2)."""
    roots = []
    for i in range(n):
        row = [0] * n
        row[i] = 2
        row[i - 1] -= 1
        row[(i + 1) % n] -= 1
        roots.append(tuple(row))
    return tuple(roots)


# A FormalCharacter keeps the delta grading of each classical weight in one
# int, whose signed _BITS-bit digit e is the coefficient at delta = _hi - e.
# Sums of such ints are exact, and the digits read back exactly while every
# coefficient lies in [-_HALF, _HALF).
_BITS = 64
_HALF = 1 << (_BITS - 1)
_MASK = (1 << _BITS) - 1


def _digits(p: int):
    """(e, digit) for the nonzero signed digits of p, lowest first."""
    e = 0
    while p:
        d = ((p + _HALF) & _MASK) - _HALF
        if d:
            yield e, d
        p = (p - d) >> _BITS
        e += 1


class FormalCharacter:
    """Finite integer combination of exponentials of affine weights.

    Terms are keyed by plain tuples (lam0, finite_1, ..., finite_{n-1},
    delta), so that key[i] is the pairing <h_i, w> for every color i; the
    constructor also accepts AffineWeight keys.  No pairing depends on
    delta, so the terms are stored one entry per classical weight
    (lam0, *finite), its delta grading packed into one int (see _digits);
    ``terms`` decodes them.  Coefficients must lie in [-2**63, 2**63).
    """

    __slots__ = ("n", "_hi", "_packed")

    def __init__(self, n: int, terms: Mapping = ()):
        self.n = n
        items = terms.items() if isinstance(terms, Mapping) else terms
        terms = {_term_key(n, w): c for w, c in items if c != 0}
        hi = max((w[n] for w in terms), default=0)
        packed: dict[tuple[int, ...], int] = {}
        for w, c in terms.items():
            if not -_HALF <= c < _HALF:
                raise ValueError(f"coefficient {c} outside [-2**{_BITS - 1}, 2**{_BITS - 1})")
            cl = w[:n]
            packed[cl] = packed.get(cl, 0) + (c << _BITS * (hi - w[n]))
        self._hi = hi
        self._packed = packed

    @classmethod
    def _of(cls, n: int, hi: int, acc: dict[tuple[int, ...], int]) -> "FormalCharacter":
        """Trusted constructor from packed gradings; drops the zero ones."""
        ch = object.__new__(cls)
        ch.n = n
        ch._hi = hi
        ch._packed = {w: p for w, p in acc.items() if p}
        return ch

    @classmethod
    def exponential(cls, w: AffineWeight) -> "FormalCharacter":
        return cls(w.n, {w: 1})

    @property
    def terms(self) -> dict[tuple[int, ...], int]:
        """The {(lam0, *finite, delta): coefficient} view."""
        hi = self._hi
        return {
            (*w, hi - e): c for w, p in self._packed.items() for e, c in _digits(p)
        }

    def demazure_op(self, i: int) -> "FormalCharacter":
        """Geometric-series Demazure operator at color i.

        For <h_i, w> = k >= 0 the exponential spreads to w, w-alpha_i, ...,
        w-k*alpha_i; k = -1 kills the term; k <= -2 contributes the negated
        string w+alpha_i, ..., w+(-k-1)*alpha_i.  Each classical weight
        walks its string once, carrying its whole grading.  alpha_0 alone
        has a delta part, 1, so a step at color 0 moves the grading by one
        digit, up in delta by a right shift.  hi first rises by the longest
        such string, so that no right shift drops a digit.
        """
        alpha = _classical_roots(self.n)[i]
        shift = 0 if i else _BITS
        pad = max((-1 - w[0] for w in self._packed if w[0] <= -2), default=0) if shift else 0
        acc: dict[tuple[int, ...], int] = {}
        get = acc.get
        for w, p in self._packed.items():
            k = w[i]
            p <<= shift * pad
            if k >= 0:
                acc[w] = get(w, 0) + p
                for _ in range(k):
                    w = tuple(map(sub, w, alpha))
                    p <<= shift
                    acc[w] = get(w, 0) + p
            elif k <= -2:
                for _ in range(-k - 1):
                    w = tuple(map(add, w, alpha))
                    p >>= shift
                    acc[w] = get(w, 0) - p
        return FormalCharacter._of(self.n, self._hi + pad, acc)

    def __eq__(self, other) -> bool:
        if not (isinstance(other, FormalCharacter) and self.n == other.n):
            return False
        a, b = (self, other) if self._hi >= other._hi else (other, self)
        lift = _BITS * (a._hi - b._hi)
        return a._packed.keys() == b._packed.keys() and all(
            p == b._packed[w] << lift for w, p in a._packed.items()
        )

    def __repr__(self) -> str:
        return f"FormalCharacter({len(self.terms)} weights)"


# ---------------------------------------------------------------------------
# Reduced words from walks of a point through the alcoves of the level-one
# affine subspace, realized on vectors of sum zero: classical reflections
# swap adjacent coordinates and the extra reflection swaps the outer
# coordinates across a shifted wall.

def translation_vector(mu: Sequence[int], n: int) -> tuple[int, ...]:
    """Sum-zero vector of the antidominant weight attached to mu: the sorted
    increasing rearrangement of (transpose of mu) minus one."""
    mu = partition(mu)
    if sum(mu) != n:
        raise NotPartitionOfNError(f"{mu} is not a partition of {n}")
    # the transpose's parts increase as c falls from mu_1 to 1: the number
    # of parts of mu that are at least c, a running count of the parts equal
    # to c; n - mu_1 zero parts come first
    top = mu[0] if mu else 0
    return (-1,) * (n - top) + tuple(map((-1).__add__, accumulate(map(mu.count, range(top, 0, -1)))))


def translation_length(t: Sequence[int]) -> int:
    """Hyperplanes separating the fundamental alcove from its translate."""
    return sum(abs(t[i] - t[j]) for i in range(len(t)) for j in range(i + 1, len(t)))


def _translate_point(mu: Sequence[int], n: int) -> list[int]:
    """A generic point of the fundamental alcove moved by the translation
    attached to mu, in units of 1 / (n (n + 1)): the point
    ((n - k) / (n + 1))_k, less its mean, plus the translation."""
    if n < 2:
        raise ValueError(f"n must be at least 2, got {n}")
    t = translation_vector(mu, n)
    unit = n * (n + 1)
    return [n * (n - k) - n * (n - 1) // 2 + tx * unit for k, tx in enumerate(t, start=1)]


def _wall_walk(point: list[int]) -> list[int]:
    """Walk a generic point (in place, in the units of _translate_point) back
    to the fundamental alcove wall by wall, finite walls first.  Each crossing
    contributes one letter, and the letters, read left to right, spell a
    reduced word of the element that carries the fundamental alcove to the
    point's alcove."""
    n = len(point)
    unit = n * (n + 1)
    word: list[int] = []
    while True:
        desc = None
        for i in range(1, n):
            if point[i - 1] < point[i]:
                desc = i
                break
        if desc is None and point[0] - point[-1] > unit:
            desc = 0
        if desc is None:
            return word
        word.append(desc)
        if desc == 0:
            point[0], point[-1] = point[-1] + unit, point[0] - unit
        else:
            point[desc - 1], point[desc] = point[desc], point[desc - 1]


def translation_reduced_word(mu: Sequence[int], n: int) -> list[int]:
    """A reduced word for the translation by the antidominant weight of mu.

    The translate of a generic point of the fundamental alcove is walked back
    wall by wall, so the word length is the number of separating hyperplanes.
    """
    word = _wall_walk(_translate_point(mu, n))
    expected = translation_length(translation_vector(mu, n))
    if len(word) != expected:
        raise AssertionError(
            f"walk length {len(word)} != separating count {expected}"
        )
    return word


# ---------------------------------------------------------------------------
# Demazure characters and their classical decomposition.

def _straighten(ch: FormalCharacter, level: int) -> GradedCharacter:
    """Apply the Weyl character formula D_{w_0} of the finite subalgebra to
    each exponential of ``ch`` and collect the irreducible characters by
    q-degree.

    The finite part of a weight becomes the vector x = lam + rho with sum
    level * n + |rho|, rho = (n-1, ..., 1, 0).  The term vanishes when x has
    a repeated entry; otherwise it is sgn(sigma) times the character of the
    shape sort(x) - rho, sigma the permutation that sorts x decreasingly.
    Each classical weight is straightened once, with its whole packed
    grading; the gradings are summed per shape and decoded once per shape.
    """
    n, hi = ch.n, ch._hi
    above_zero = (1 << _BITS * hi) - 1 if hi > 0 else 0
    # With the partial sums P_k = lam0 + f_1 + ... + f_k of a weight
    # (lam0, f_1, ..., f_{n-1}), f_k = lam_k - lam_{k+1}, the vector x reads
    # x_{k+1} = c - y_k, where y_k = P_k + k and n c = |x| + sum(y), that is
    # c = t / n + n - 1 with t = level * n + sum(P).  So the weight is that
    # of a partition when n divides t; x repeats an entry when y does, as it
    # does when some f_k = -1; sorting y increasingly sorts x decreasingly;
    # and sgn(sigma) is the parity of y's inversions.
    steps = range(n)
    size = level * n
    rho_sum = n * (n - 1) // 2
    out: dict[tuple[int, ...], int] = {}
    get = out.get
    for w, p in ch._packed.items():
        if p & above_zero:
            raise ValueError("positive delta coefficient in a Demazure character")
        if -1 in w and w[0] != -1:  # some f_k = -1; lam0 = -1 takes the long way
            y = None
            t = size + sum(accumulate(w))
        else:
            y = list(map(add, accumulate(w), steps))
            t = size + sum(y) - rho_sum
        if t % n:
            raise ValueError(f"no partition of {size} with differences {w[1:]}")
        if y is None or len(set(y)) < n:
            continue
        if sum(starmap(gt, combinations(y, 2))) & 1:
            p = -p
        y.sort()
        x = tuple(map((t // n + n - 1).__sub__, y))
        out[x] = get(x, 0) + p
    rho = range(n - 1, -1, -1)
    terms = []
    for x, p in out.items():
        # digit e is the coefficient at delta = hi - e, that is at q^(e - hi)
        coeffs = {e - hi: m for e, m in _digits(p)}
        if not coeffs:
            continue
        lam = tuple(map(sub, x, rho))
        negative = [e for e, m in coeffs.items() if m < 0]
        if negative:
            raise ValueError(f"negative multiplicity at {lam}, degree {min(negative)}")
        if lam[-1] < 0:
            raise ValueError(f"negative part in {lam}")
        # lam decreases and ends at 0 or above: its zeros trail
        terms.append((lam[: n - lam.count(0)], LaurentPolynomial._trusted(coeffs)))
    # the shapes are distinct, so the sort never compares two polynomials
    return GradedCharacter(tuple(sorted(terms)))


def demazure_character(level: int, mu: Sequence[int], n: int) -> GradedCharacter:
    """Graded decomposition of the Demazure character at the translation of mu.

    The Demazure module is stable under the finite subalgebra, so its
    character is D_{w_0} D_v(e^{level * Lambda_0}), where v is the shortest
    element of the coset W_fin * t: the walk from the translate's point
    sorted into the dominant chamber.  The operators run along v's reduced
    word, and the Weyl character formula turns each resulting term into one
    irreducible character, with q read as the exponential of -delta.
    """
    if n < 2:
        raise ValueError(f"n must be at least 2, got {n}")
    if level < 1:
        raise ValueError("level must be >= 1")
    # Each operator step gives the character of a Demazure module inside the
    # final one, so no coefficient exceeds |B^R|, and a rectangle has at most
    # comb(n + level - 1, level) choices of each row.
    if comb(n + level - 1, level) ** n >= _HALF:
        raise ValueError(
            f"|B^R| at n = {n}, level {level} may reach 2**{_BITS - 1}, past a packed coefficient"
        )
    word = _wall_walk(sorted(_translate_point(mu, n), reverse=True))
    ch = FormalCharacter._of(n, 0, {(level,) + (0,) * (n - 1): 1})
    for i in reversed(word):
        ch = ch.demazure_op(i)
    return _straighten(ch, level)


def crystal_side_character(level: int, mu: Sequence[int]) -> GradedCharacter:
    """The tableau route of the same character: the graded character of the
    tensor product of the rectangles with mu_j rows and ``level`` columns."""
    from .crystal import RectSequence
    from .kpoly import graded_character

    mu = partition(mu)
    return graded_character(RectSequence([(part, level) for part in mu]))
