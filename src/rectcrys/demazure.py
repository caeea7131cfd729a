"""Affine type A weight arithmetic and Demazure characters.

Weights live in the lattice spanned by the fundamental weights and the null
root delta.  Demazure operators act on finite formal sums of exponentials;
applying them along a reduced word of the translation attached to a partition
of n yields the Demazure character, which is then expanded into irreducible
characters of the finite subalgebra with q keeping track of the delta
grading.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import add, sub
from typing import Mapping, Sequence

from .errors import NotPartitionOfNError
from .kpoly import GradedCharacter, character_weights
from .laurent import LaurentPolynomial
from .tableaux import conjugate, partition


def cartan_entry(n: int, i: int, j: int) -> int:
    """Cartan matrix of the affine cycle with n nodes (n >= 2)."""
    if i == j:
        return 2
    a = 0
    if (i + 1) % n == j:
        a -= 1
    if (i - 1) % n == j:
        a -= 1
    return a


@dataclass(frozen=True)
class AffineWeight:
    """An element lam0*L_0 + sum finite_i*L_i + delta_coeff*delta of the
    affine weight lattice, for fixed rank data n."""

    n: int
    lam0: int
    finite: tuple[int, ...]
    delta: int

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("rank data needs n >= 2")
        if len(self.finite) != self.n - 1:
            raise ValueError(f"finite part must have length {self.n - 1}")

    def coeff(self, i: int) -> int:
        """Coefficient of the i-th fundamental weight; equals <h_i, self>."""
        return self.lam0 if i == 0 else self.finite[i - 1]

    def level(self) -> int:
        return self.lam0 + sum(self.finite)

    def add(self, other: "AffineWeight", scale: int = 1) -> "AffineWeight":
        return AffineWeight(
            self.n,
            self.lam0 + scale * other.lam0,
            tuple(a + scale * b for a, b in zip(self.finite, other.finite)),
            self.delta + scale * other.delta,
        )

    def to_json(self) -> dict:
        return {"lam0": self.lam0, "finite": list(self.finite), "delta": self.delta}


def fundamental(n: int, i: int) -> AffineWeight:
    fin = [0] * (n - 1)
    if i:
        fin[i - 1] = 1
    return AffineWeight(n, 1 if i == 0 else 0, tuple(fin), 0)


@lru_cache(maxsize=None)
def simple_root(n: int, i: int) -> AffineWeight:
    """alpha_i = delta_{0i} delta + sum_j a_{ij} Lambda_j."""
    fin = tuple(cartan_entry(n, i, j) for j in range(1, n))
    return AffineWeight(n, cartan_entry(n, i, 0), fin, 1 if i == 0 else 0)


def simple_reflection_weight(w: AffineWeight, i: int) -> AffineWeight:
    """r_i(w) = w - <h_i, w> alpha_i."""
    return w.add(simple_root(w.n, i), -w.coeff(i))


def _term_key(n: int, w) -> tuple[int, ...]:
    """The key (lam0, *finite, delta) of an exponential, from an
    AffineWeight or from a key already."""
    key = (w.lam0, *w.finite, w.delta) if isinstance(w, AffineWeight) else tuple(w)
    if len(key) != n + 1:
        raise ValueError(f"weight {w} does not have rank data n = {n}")
    return key


@lru_cache(maxsize=None)
def _simple_root_keys(n: int) -> tuple[tuple[int, ...], ...]:
    """alpha_0, ..., alpha_{n-1} as term keys."""
    return tuple(_term_key(n, simple_root(n, i)) for i in range(n))


class FormalCharacter:
    """Finite integer combination of exponentials of affine weights.

    Terms are keyed by plain tuples (lam0, finite_1, ..., finite_{n-1},
    delta), so that key[i] is the pairing <h_i, w> for every color i; the
    constructor also accepts AffineWeight keys.
    """

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: Mapping = ()):
        self.n = n
        items = terms.items() if isinstance(terms, Mapping) else terms
        self.terms = {_term_key(n, w): c for w, c in items if c != 0}

    @classmethod
    def _of(cls, n: int, acc: dict[tuple[int, ...], int]) -> "FormalCharacter":
        """Trusted constructor from tuple keys; drops zero coefficients."""
        ch = object.__new__(cls)
        ch.n = n
        ch.terms = {w: c for w, c in acc.items() if c}
        return ch

    @classmethod
    def exponential(cls, w: AffineWeight) -> "FormalCharacter":
        return cls(w.n, {w: 1})

    def demazure_op(self, i: int) -> "FormalCharacter":
        """Geometric-series Demazure operator at color i.

        For <h_i, w> = k >= 0 the exponential spreads to w, w-alpha_i, ...,
        w-k*alpha_i; k = -1 kills the term; k <= -2 contributes the negated
        string w+alpha_i, ..., w+(-k-1)*alpha_i.
        """
        alpha = _simple_root_keys(self.n)[i]
        acc: dict[tuple[int, ...], int] = {}
        get = acc.get
        for w, c in self.terms.items():
            k = w[i]
            if k >= 0:
                acc[w] = get(w, 0) + c
                for _ in range(k):
                    w = tuple(map(sub, w, alpha))
                    acc[w] = get(w, 0) + c
            elif k <= -2:
                for _ in range(-k - 1):
                    w = tuple(map(add, w, alpha))
                    acc[w] = get(w, 0) - c
        return FormalCharacter._of(self.n, acc)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FormalCharacter)
            and self.n == other.n
            and self.terms == other.terms
        )

    def __len__(self) -> int:
        return sum(abs(c) for c in self.terms.values())

    def __repr__(self) -> str:
        return f"FormalCharacter({len(self.terms)} weights)"


# ---------------------------------------------------------------------------
# The affine Weyl group acting on the level-one affine subspace, realized on
# integer vectors of sum zero: classical reflections permute coordinates and
# the extra reflection swaps the outer coordinates across a shifted wall.

def _reflect_vector(v: tuple, i: int) -> tuple:
    v = list(v)
    if i == 0:
        v[0], v[-1] = v[-1] + 1, v[0] - 1
    else:
        v[i - 1], v[i] = v[i], v[i - 1]
    return tuple(v)


def translation_vector(mu: Sequence[int], n: int) -> tuple[int, ...]:
    """Sum-zero vector of the antidominant weight attached to mu: the sorted
    increasing rearrangement of (transpose of mu) minus one."""
    mu = partition(mu)
    if sum(mu) != n:
        raise NotPartitionOfNError(f"{mu} is not a partition of {n}")
    mt = list(conjugate(mu)) + [0] * (n - len(conjugate(mu)))
    return tuple(sorted(x - 1 for x in mt))


def translation_length(t: Sequence[int]) -> int:
    """Hyperplanes separating the fundamental alcove from its translate."""
    return sum(abs(t[i] - t[j]) for i in range(len(t)) for j in range(i + 1, len(t)))


def translation_reduced_word(mu: Sequence[int], n: int) -> list[int]:
    """A reduced word for the translation by the antidominant weight of mu.

    The translate of a generic point of the fundamental alcove is walked back
    wall by wall; each crossing contributes one letter, so the word length is
    the number of separating hyperplanes.
    """
    if n < 2:
        raise ValueError(f"n must be at least 2, got {n}")
    t = translation_vector(mu, n)
    base = [Fraction(n - k, n + 1) for k in range(1, n + 1)]
    mean = sum(base) / n
    point = [x - mean + tx for x, tx in zip(base, t)]
    word: list[int] = []
    while True:
        desc = None
        for i in range(1, n):
            if point[i - 1] < point[i]:
                desc = i
                break
        if desc is None and point[0] - point[-1] > 1:
            desc = 0
        if desc is None:
            break
        word.append(desc)
        if desc == 0:
            point[0], point[-1] = point[-1] + 1, point[0] - 1
        else:
            point[desc - 1], point[desc] = point[desc], point[desc - 1]
    expected = translation_length(t)
    if len(word) != expected:
        raise AssertionError(
            f"walk length {len(word)} != separating count {expected}"
        )
    return word


def apply_word_to_vector(word: Sequence[int], v: tuple) -> tuple:
    """Apply reflections right to left, matching the group element of the word."""
    for i in reversed(word):
        v = _reflect_vector(v, i)
    return v


# ---------------------------------------------------------------------------
# Demazure characters and their classical decomposition.

def _partition_from_finite(fin: tuple[int, ...], size: int, n: int) -> tuple[int, ...]:
    """The unique partition of ``size`` with at most n parts and the given
    consecutive differences."""
    tail = size - sum(i * c for i, c in enumerate(fin, start=1))
    if tail % n:
        raise ValueError(f"no partition of {size} with differences {fin}")
    last = tail // n
    lam = [last + sum(fin[i:]) for i in range(len(fin))] + [last]
    if last < 0:
        raise ValueError(f"no partition of {size} with differences {fin}")
    return partition(lam)


def _peel(weights: dict[tuple[int, ...], int], size: int, n: int, degree: int):
    """Irreducible characters with their multiplicities in one degree of a
    finite character, keyed by finite weights, largest shape first.

    A max-heap holds every dominant weight with a nonzero coefficient, each
    converted to its partition when it enters.  Removing the character of
    lam only touches weights dominated by lam, so the heap top is always the
    largest shape left; entries cancelled meanwhile are skipped.
    """
    from heapq import heappop, heappush

    remaining = {fin: c for fin, c in weights.items() if c}
    heap: list = []

    def push(fin: tuple[int, ...]) -> None:
        lam = _partition_from_finite(fin, size, n)
        heappush(heap, (tuple(-x for x in lam + (0,) * (n - len(lam))), fin, lam))

    for fin in remaining:
        if min(fin) >= 0:
            push(fin)
    while remaining:
        if not heap:
            raise ValueError(f"no dominant weight left in degree {degree}")
        _, fin, lam = heappop(heap)
        mult = remaining.get(fin)
        if mult is None:
            continue
        if mult < 0:
            raise ValueError(f"negative multiplicity at {lam}, degree {degree}")
        yield lam, mult
        for fin_wt, m, dominant in _finite_character(lam, n):
            before = remaining.get(fin_wt, 0)
            c = before - m * mult
            if c:
                remaining[fin_wt] = c
                if dominant and not before:
                    push(fin_wt)
            else:
                del remaining[fin_wt]


@lru_cache(maxsize=None)
def _finite_character(lam: tuple[int, ...], n: int) -> tuple[tuple, ...]:
    """The weights of character_weights(lam, n) as (consecutive differences,
    multiplicity, whether dominant)."""
    out = []
    for wt, m in character_weights(lam, n).items():
        fin = tuple(map(sub, wt[:-1], wt[1:]))
        out.append((fin, m, min(fin) >= 0))
    return tuple(out)


def demazure_character(level: int, mu: Sequence[int], n: int) -> GradedCharacter:
    """Graded decomposition of the Demazure character at the translation of mu.

    Applies the Demazure operators along the reduced word to the exponential
    of level * Lambda_0, reads q as the exponential of -delta, and peels
    irreducible characters of the finite subalgebra greedily from the
    dominant weights.  The Lambda_0 coefficient is left out of the peel: it
    is fixed by the finite part, since the operators keep the level.
    """
    if n < 2:
        raise ValueError(f"n must be at least 2, got {n}")
    if level < 1:
        raise ValueError("level must be >= 1")
    word = translation_reduced_word(mu, n)
    ch = FormalCharacter(n, {(level,) + (0,) * n: 1})
    for i in reversed(word):
        ch = ch.demazure_op(i)
    by_degree: dict[int, dict[tuple[int, ...], int]] = {}
    for w, c in ch.terms.items():
        if w[n] > 0:
            raise ValueError("positive delta coefficient in a Demazure character")
        weights = by_degree.setdefault(-w[n], {})
        fin = w[1:n]
        weights[fin] = weights.get(fin, 0) + c
    out: dict[tuple[int, ...], dict[int, int]] = {}
    for degree, weights in sorted(by_degree.items()):
        for lam, mult in _peel(weights, level * n, n, degree):
            out.setdefault(lam, {})[degree] = mult
    return GradedCharacter.from_dict(
        {lam: LaurentPolynomial(d) for lam, d in out.items()}
    )


def crystal_side_character(level: int, mu: Sequence[int]) -> GradedCharacter:
    """The tableau route of the same character: the graded character of the
    tensor product of the rectangles with mu_j rows and ``level`` columns."""
    from .crystal import RectSequence
    from .kpoly import graded_character

    mu = partition(mu)
    return graded_character(RectSequence([(part, level) for part in mu]))
