"""Integer Laurent polynomials in q: the coefficients of graded characters
and the values the Kostka polynomial cache stores.

It imports nothing from the compute modules, so reading a cached polynomial
loads no combinatorics.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from types import MappingProxyType


class LaurentPolynomial:
    """Integer Laurent polynomial in q, stored sparsely; an immutable value.

    ``coeffs`` is a read-only map of exponents to nonzero coefficients, so
    a polynomial can be shared, by the Kostka map among others, with no copy.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Mapping[int, int] | Iterable[tuple[int, int]] = ()):
        items = coeffs.items() if isinstance(coeffs, Mapping) else coeffs
        acc: dict[int, int] = {}
        for e, c in items:
            acc[int(e)] = acc.get(int(e), 0) + int(c)
        object.__setattr__(self, "coeffs", MappingProxyType({e: c for e, c in acc.items() if c != 0}))

    @classmethod
    def _trusted(cls, coeffs: Mapping[int, int]) -> "LaurentPolynomial":
        """A polynomial of ``coeffs``, trusted to map ints to nonzero ints (a
        walk's counts, a checked cache entry), copied once with no check."""
        poly = object.__new__(cls)
        object.__setattr__(poly, "coeffs", MappingProxyType(dict(coeffs)))
        return poly

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # by value: the read-only proxy itself does not pickle
        return self._trusted, (dict(self.coeffs),)

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        return isinstance(other, LaurentPolynomial) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(tuple(sorted(self.coeffs.items())))

    def leq_coefficientwise(self, other: "LaurentPolynomial") -> bool:
        """Every coefficient at most the matching coefficient of ``other``."""
        return all(c <= other.coeffs.get(e, 0) for e, c in self.coeffs.items())

    def to_json(self) -> dict:
        return {"coeffs": {str(e): c for e, c in sorted(self.coeffs.items())}}

    @classmethod
    def from_json(cls, data: dict) -> "LaurentPolynomial":
        """The inverse of :meth:`to_json`; ValueError unless the coefficients
        map integer strings, as ``to_json`` writes them, to nonzero ints."""
        coeffs = data["coeffs"]
        if not isinstance(coeffs, dict):
            raise ValueError(f"coeffs {coeffs!r:.40} is not a map")
        for e, c in coeffs.items():
            if not (isinstance(e, str) and str(int(e)) == e and type(c) is int and c):
                raise ValueError(f"term {e!r:.40}: {c!r:.40} is not an integer string mapped to a nonzero int")
        return cls._trusted({int(e): c for e, c in coeffs.items()})

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
