"""Generalized Kostka polynomials and graded characters.

K_{lambda;R}(q) is the generating polynomial of the generalized charge over
the R-LR tableaux of shape lambda.  The graded character of B^R expands the
weight-and-energy generating function of the crystal into irreducible
characters; it is computed from the LR tableaux alone, and the verification
suites check it against a scan of the crystal.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from typing import Mapping, Sequence

from .crystal import RectSequence
from .energy import tableau_energy
from .laurent import LaurentPolynomial
from .rsk import LRTableau, lrt_tableaux
from .tableaux import Tableau, column_insert, conjugate, key, partition, partitions_of


@dataclass(frozen=True)
class GradedCharacter:
    """Map from partitions (at most n parts) to coefficient polynomials."""

    terms: tuple[tuple[tuple[int, ...], LaurentPolynomial], ...]

    @classmethod
    def from_dict(cls, d: Mapping[tuple[int, ...], LaurentPolynomial]) -> "GradedCharacter":
        return cls(tuple(sorted((lam, p) for lam, p in d.items() if p)))

    def as_dict(self) -> dict[tuple[int, ...], LaurentPolynomial]:
        return dict(self.terms)

    def to_json(self) -> dict:
        return {
            "terms": [
                {"shape": list(lam), **poly.to_json()} for lam, poly in self.terms
            ]
        }

    def __repr__(self) -> str:
        body = ", ".join(f"{list(lam)}: {poly}" for lam, poly in self.terms)
        return f"GradedCharacter({body})"


def k_polynomial(lam: Sequence[int], seq: RectSequence) -> LaurentPolynomial:
    """K_{lambda;R}(q): charge generating polynomial over LRT(lambda; R)."""
    lam = partition(lam)
    if sum(lam) != seq.ncells:
        raise ValueError(f"|{lam}| != {seq.ncells} cells of R")
    acc: dict[int, int] = {}
    for t in lrt_tableaux(lam, seq):
        e = tableau_energy(LRTableau._raw(t, seq))
        acc[e] = acc.get(e, 0) + 1
    return LaurentPolynomial(acc)


def kostka_sequence(mu: Sequence[int]) -> RectSequence:
    """The sequence of one-row rectangles with the positive parts of mu."""
    mu = partition(mu)
    if not mu:
        raise ValueError("empty composition")
    return RectSequence([(1, part) for part in mu])


def kostka_foulkes(lam: Sequence[int], mu: Sequence[int]) -> LaurentPolynomial:
    """The charge generating polynomial over CST(lambda, mu), mu a partition.

    This is the cocharge-normalized Kostka-Foulkes polynomial; see
    :func:`transposed_kostka` for the renormalized classical indexing.
    """
    lam, mu = partition(lam), partition(mu)
    if sum(lam) != sum(mu):
        raise ValueError(f"|{lam}| != |{mu}|")
    seq = kostka_sequence(mu)
    if len(lam) > seq.n:
        return LaurentPolynomial.zero()
    return k_polynomial(lam, seq)


def transposed_kostka(lam: Sequence[int], mu: Sequence[int]) -> LaurentPolynomial:
    """The polynomial with classical tilde-indexing (lam transposed, mu):
    identical to kostka_foulkes(conjugate(lam), mu)."""
    return kostka_foulkes(conjugate(lam), mu)


def graded_character(seq: RectSequence) -> GradedCharacter:
    """Expansion of the weight-and-energy generating function of B^R into
    irreducible characters, by the LR route: the coefficient of s_lambda is
    K_{lambda;R}(q).  ``verify.verify_characters`` cross-checks it against a
    scan of the crystal."""
    return GradedCharacter.from_dict(
        {lam: k_polynomial(lam, seq) for lam in partitions_of(seq.ncells, seq.n)}
    )


@lru_cache(maxsize=None)
def character_weights(lam: tuple[int, ...], n: int) -> dict[tuple[int, ...], int]:
    """Weight multiplicities of the irreducible character of shape ``lam``:
    contents of the column-strict tableaux over 1..n.

    The letter n fills a horizontal strip lam/nu, and the rest is a
    column-strict tableau of shape nu over 1..n-1, so the contents are
    counted strip by strip without building any tableau.
    """
    lam = partition(lam)
    if len(lam) > n:
        return {}
    if n == 0:
        return {(): 1}
    padded = lam + (0,) * (n - len(lam))
    size = sum(lam)
    out: dict[tuple[int, ...], int] = {}
    for nu in product(*(range(padded[i + 1], padded[i] + 1) for i in range(n - 1))):
        strip = (size - sum(nu),)
        for wt, m in character_weights(partition(nu), n - 1).items():
            key_ = wt + strip
            out[key_] = out.get(key_, 0) + m
    return out


# ---------------------------------------------------------------------------
# Monotonicity under adding a rectangle.

@dataclass
class MonotonicityReport:
    holds: bool
    base: LaurentPolynomial
    extended: LaurentPolynomial
    injection: list[dict]
    failure: str | None = None

    def to_json(self) -> dict:
        return {
            "holds": self.holds,
            "base": self.base.to_json(),
            "extended": self.extended.to_json(),
            "injection": self.injection,
            "failure": self.failure,
        }


def dominant_insertion_position(seq: RectSequence, width: int) -> int:
    """First position where a rectangle of the given width keeps the widths
    weakly decreasing; requires the widths of ``seq`` to be weakly decreasing."""
    widths = [m for _, m in seq.rects]
    if any(widths[i] < widths[i + 1] for i in range(len(widths) - 1)):
        raise ValueError(f"sequence widths not weakly decreasing: {widths}")
    for pos in range(len(widths) + 1):
        cand = widths[:pos] + [width] + widths[pos:]
        if all(cand[i] >= cand[i + 1] for i in range(len(cand) - 1)):
            return pos
    raise AssertionError("unreachable")


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
    lam = partition(lam)
    base = k_polynomial(lam, seq)
    if k == 0 or m == 0:
        return MonotonicityReport(True, base, base, [])
    prepended = RectSequence(((m, k),) + seq.rects)
    rects_at = list(seq.rects)
    rects_at.insert(position, (m, k))
    extended_seq = RectSequence(rects_at)
    lam_ext = add_rows(lam, k, m)
    extended = k_polynomial(lam_ext, extended_seq)
    # at the default position this is the enumeration k_polynomial just made
    lr_images = set(lrt_tableaux(lam_ext, prepended))
    injection = []
    seen: dict[Tableau, tuple[int, ...]] = {}
    failure = None
    for t in lrt_tableaux(lam, seq):
        q = LRTableau._raw(t, seq)
        image = extend_map(t, k, m)
        entry = {
            "source": t.to_json(),
            "image": image.to_json(),
            "energy": tableau_energy(q),
        }
        injection.append(entry)
        if image.outer != lam_ext:
            failure = f"image shape {image.outer} != {lam_ext}"
            break
        if image not in lr_images:
            failure = "image not LR for the extended sequence"
            break
        if image in seen:
            failure = f"injection collides: {seen[image]} and {t.rows}"
            break
        seen[image] = t.rows
        e_new = tableau_energy(LRTableau._raw(image, prepended))
        if e_new != entry["energy"]:
            failure = f"energy changed: {entry['energy']} -> {e_new}"
            break
    holds = failure is None and base.leq_coefficientwise(extended)
    if failure is None and not holds:
        failure = "coefficientwise comparison fails"
    return MonotonicityReport(holds, base, extended, injection, failure)
