"""Generalized Kostka polynomials and graded characters.

K_{lambda;R}(q) is the generating polynomial of the generalized charge over
the R-LR tableaux of shape lambda.  The graded character of B^R expands the
weight-and-energy generating function of the crystal into irreducible
characters; it is computed from the LR tableaux alone, and the verification
suites check it against a scan of the crystal.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from itertools import product
from types import MappingProxyType
from typing import Mapping, Sequence

from .crystal import RectSequence
from .energy import _kostka_counts, _lrt_energies
from .laurent import LaurentPolynomial
from .rsk import _lr_shape
from .tableaux import Tableau, _Frozen, _Record, column_insert, key, partition


class GradedCharacter(_Frozen):
    """Map from partitions (at most n parts) to coefficient polynomials."""

    __slots__ = _fields = ("terms",)

    def __init__(self, terms: tuple[tuple[tuple[int, ...], LaurentPolynomial], ...]):
        object.__setattr__(self, "terms", terms)

    @classmethod
    def from_dict(cls, d: Mapping[tuple[int, ...], LaurentPolynomial]) -> "GradedCharacter":
        return cls(tuple(sorted((lam, p) for lam, p in d.items() if p)))

    def to_json(self) -> dict:
        return {
            "terms": [
                {"shape": list(lam), **poly.to_json()} for lam, poly in self.terms
            ]
        }

    def __repr__(self) -> str:
        body = ", ".join(f"{list(lam)}: {poly}" for lam, poly in self.terms)
        return f"GradedCharacter({body})"


# K_{lambda;R}(q) of every shape outside R's map, one immutable value shared
_ZERO = LaurentPolynomial._trusted({})


def k_polynomial(lam: Sequence[int], seq: RectSequence) -> LaurentPolynomial:
    """K_{lambda;R}(q): charge generating polynomial over LRT(lambda; R), read
    off the map of every shape's polynomial for the multiset of R."""
    by_shape = _k_counts(seq._multiset)
    # a key of the map is a partition of |R| as given: no check to repeat
    hit = by_shape.get(lam) if lam.__class__ is tuple else None
    if hit is None:
        hit = by_shape.get(_lr_shape(lam, seq))
    # the map's own polynomial, shared, not copied: it is immutable
    return _ZERO if hit is None else hit


@lru_cache(maxsize=256)
def _k_counts(multiset: tuple) -> Mapping[tuple[int, ...], LaurentPolynomial]:
    """K_{lambda;R}(q) of every shape with a nonzero one, read-only and in
    the order of the shapes, for every order R of ``multiset``: the
    R-matrix preserves energy, so one walk of :func:`_walk_order` serves
    them all."""
    counts = _kostka_counts(_walk_order(multiset))
    return MappingProxyType(
        {lam: LaurentPolynomial._trusted(counts[lam]) for lam in sorted(counts) if counts[lam]}
    )


def _walk_order(multiset: tuple) -> RectSequence:
    """The order of a multiset of rectangles that the Kostka walks take:
    equal rectangles grouped, smaller groups first, and among groups of
    one size the larger rectangles first.  So a multiset with an order that
    has no real switch (one rectangle first, all the others equal) gets
    that order and the column walk; on the others the rule was measured to
    walk faster than an order as given, on average (see README)."""
    count = Counter(multiset)
    return RectSequence(tuple(sorted(multiset, key=lambda r: (count[r], -r[0], -r[1]))))


def _one_shape_k_polynomial(lam: Sequence[int], seq: RectSequence) -> LaurentPolynomial:
    """k_polynomial by the walk of :func:`energy._kostka_counts` on the
    order of :func:`_walk_order`, pinned to the one shape a one-shot
    request asks for: far cheaper than the whole map."""
    lam = _lr_shape(lam, seq)
    return LaurentPolynomial._trusted(_kostka_counts(_walk_order(seq._multiset), lam).get(lam, {}))


def kostka_sequence(mu: Sequence[int]) -> RectSequence:
    """The sequence of one-row rectangles with the positive parts of mu."""
    mu = partition(mu)
    if not mu:
        raise ValueError("empty composition")
    return RectSequence([(1, part) for part in mu])


def kostka_foulkes(lam: Sequence[int], mu: Sequence[int]) -> LaurentPolynomial:
    """The charge generating polynomial over CST(lambda, mu), mu a partition.

    This is the cocharge-normalized Kostka-Foulkes polynomial; the classical
    tilde-indexing (lambda transposed, mu) is
    kostka_foulkes(conjugate(lambda), mu).
    """
    lam, mu = partition(lam), partition(mu)
    if sum(lam) != sum(mu):
        raise ValueError(f"|{lam}| != |{mu}|")
    return k_polynomial(lam, kostka_sequence(mu))


def graded_character(seq: RectSequence) -> GradedCharacter:
    """Expansion of the weight-and-energy generating function of B^R into
    irreducible characters, by the LR route: the coefficient of s_lambda is
    K_{lambda;R}(q).  ``verify.verify_characters`` cross-checks it against a
    scan of the crystal."""
    # the map holds the terms sorted and nonzero, as from_dict would
    return GradedCharacter(tuple(_k_counts(seq._multiset).items()))


@lru_cache(maxsize=None)
def character_weights(lam: tuple[int, ...], n: int) -> Mapping[tuple[int, ...], int]:
    """Weight multiplicities of the irreducible character of shape ``lam``,
    read-only: contents of the column-strict tableaux over 1..n.

    The letter n fills a horizontal strip lam/nu, and the rest is a
    column-strict tableau of shape nu over 1..n-1, so the contents are
    counted strip by strip without building any tableau.
    """
    lam = partition(lam)
    if len(lam) > n:
        return MappingProxyType({})
    if n == 0:
        return MappingProxyType({(): 1})
    padded = lam + (0,) * (n - len(lam))
    size = sum(lam)
    out: dict[tuple[int, ...], int] = {}
    for nu in product(*(range(padded[i + 1], padded[i] + 1) for i in range(n - 1))):
        strip = (size - sum(nu),)
        for wt, m in character_weights(partition(nu), n - 1).items():
            key_ = wt + strip
            out[key_] = out.get(key_, 0) + m
    return MappingProxyType(out)


# ---------------------------------------------------------------------------
# Monotonicity under adding a rectangle.

class MonotonicityReport(_Record):
    __slots__ = _fields = ("holds", "base", "extended", "injection", "failure")

    def __init__(
        self,
        holds: bool,
        base: LaurentPolynomial,
        extended: LaurentPolynomial,
        injection: list[dict],
        failure: str | None = None,
    ):
        self.holds = holds
        self.base = base
        self.extended = extended
        self.injection = injection
        self.failure = failure

    def to_json(self) -> dict:
        return {
            "holds": self.holds,
            "base": self.base.to_json(),
            "extended": self.extended.to_json(),
            "injection": self.injection,
            "failure": self.failure,
        }


def add_rows(lam: Sequence[int], k: int, m: int) -> tuple[int, ...]:
    """The partition with m extra rows of length k."""
    return partition(sorted(list(partition(lam)) + [k] * m, reverse=True))


def extend_map(q: Tableau, k: int, m: int) -> Tableau:
    """The insertion tableau of (q+m) followed by the key of the added
    rectangle: the energy-preserving injection into the extended LR set."""
    shifted = q.add_one(m)
    y0 = key((k,) * m, n=q.n + m)
    return column_insert(shifted.word() + y0.word(), n=q.n + m)


def monotonicity_check(
    lam: Sequence[int], seq: RectSequence, k: int, m: int, position: int = 0
) -> MonotonicityReport:
    """Verify K_{lam;R} <= K_{lam+(k^m); R+(k^m)} coefficientwise, witnessing
    it with the explicit injection on LR tableaux.

    The injection prepends the new rectangle; ``position`` moves it elsewhere
    in the extended sequence for the polynomial comparison (the polynomial
    does not depend on the ordering).
    """
    if not 0 <= position <= seq.m:
        raise ValueError(f"position must be in 0..{seq.m}, got {position}")
    lam = _lr_shape(lam, seq)
    # both polynomials count the tableaux and energies the injection reads
    sources = _lrt_energies(seq).get(lam, {})
    base = LaurentPolynomial._trusted(Counter(sources.values()))
    if k == 0 or m == 0:
        return MonotonicityReport(True, base, base, [])
    prepended = RectSequence(((m, k),) + seq.rects)
    rects_at = list(seq.rects)
    rects_at.insert(position, (m, k))
    extended_seq = RectSequence(rects_at)
    lam_ext = add_rows(lam, k, m)
    extended = LaurentPolynomial._trusted(Counter(_lrt_energies(extended_seq).get(lam_ext, {}).values()))
    images = _lrt_energies(prepended).get(lam_ext, {})
    injection = []
    seen: dict[tuple, tuple] = {}
    failure = None
    for rows, energy in sources.items():
        t = Tableau._raw(rows, (), seq.n)
        image = extend_map(t, k, m)
        entry = {"source": t.to_json(), "image": image.to_json(), "energy": energy}
        injection.append(entry)
        if image.outer != lam_ext:
            failure = f"image shape {image.outer} != {lam_ext}"
            break
        e_new = images.get(image.rows)
        if e_new is None:
            failure = "image not LR for the extended sequence"
            break
        if image.rows in seen:
            failure = f"injection collides: {seen[image.rows]} and {rows}"
            break
        seen[image.rows] = rows
        if e_new != energy:
            failure = f"energy changed: {energy} -> {e_new}"
            break
    holds = failure is None and base.leq_coefficientwise(extended)
    if failure is None and not holds:
        failure = "coefficientwise comparison fails"
    return MonotonicityReport(holds, base, extended, injection, failure)
