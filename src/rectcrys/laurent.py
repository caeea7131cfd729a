"""Integer Laurent polynomials in q: the coefficients of graded characters
and the values the Kostka polynomial cache stores.

It imports nothing from the compute modules, so reading a cached polynomial
loads no combinatorics.
"""

from __future__ import annotations

from typing import Iterable, Mapping


class LaurentPolynomial:
    """Integer Laurent polynomial in q, stored sparsely."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Mapping[int, int] | Iterable[tuple[int, int]] = ()):
        items = coeffs.items() if isinstance(coeffs, Mapping) else coeffs
        acc: dict[int, int] = {}
        for e, c in items:
            acc[int(e)] = acc.get(int(e), 0) + int(c)
        self.coeffs = {e: c for e, c in acc.items() if c != 0}

    @classmethod
    def zero(cls) -> "LaurentPolynomial":
        return cls()

    @classmethod
    def one(cls) -> "LaurentPolynomial":
        return cls({0: 1})

    def __add__(self, other: "LaurentPolynomial") -> "LaurentPolynomial":
        acc = dict(self.coeffs)
        for e, c in other.coeffs.items():
            acc[e] = acc.get(e, 0) + c
        return LaurentPolynomial(acc)

    def __sub__(self, other: "LaurentPolynomial") -> "LaurentPolynomial":
        acc = dict(self.coeffs)
        for e, c in other.coeffs.items():
            acc[e] = acc.get(e, 0) - c
        return LaurentPolynomial(acc)

    def __mul__(self, other) -> "LaurentPolynomial":
        if isinstance(other, int):
            return LaurentPolynomial({e: c * other for e, c in self.coeffs.items()})
        acc: dict[int, int] = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                acc[e1 + e2] = acc.get(e1 + e2, 0) + c1 * c2
        return LaurentPolynomial(acc)

    __rmul__ = __mul__

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        return isinstance(other, LaurentPolynomial) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(tuple(sorted(self.coeffs.items())))

    def __call__(self, q) -> int:
        return sum(c * q**e for e, c in self.coeffs.items())

    def leq_coefficientwise(self, other: "LaurentPolynomial") -> bool:
        """Every coefficient at most the matching coefficient of ``other``."""
        return all(c <= other.coeffs.get(e, 0) for e, c in self.coeffs.items())

    def is_polynomial(self) -> bool:
        return all(e >= 0 for e in self.coeffs)

    def to_json(self) -> dict:
        return {"coeffs": {str(e): c for e, c in sorted(self.coeffs.items())}}

    @classmethod
    def from_json(cls, data: dict) -> "LaurentPolynomial":
        return cls({int(e): int(c) for e, c in data["coeffs"].items()})

    def __repr__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for e, c in sorted(self.coeffs.items()):
            if e == 0:
                parts.append(str(c))
            else:
                head = "" if c == 1 else ("-" if c == -1 else str(c) + "*")
                parts.append(f"{head}q^{e}" if e != 1 else f"{head}q")
        return " + ".join(parts).replace("+ -", "- ")
