"""Partitions, column-strict tableaux, reading words, and insertion.

Conventions used throughout the package:

* cells are (row, col) pairs, 1-based, matrix orientation (row 1 on top);
* a partition is a weakly decreasing tuple of nonnegative ints with trailing
  zeros trimmed;
* rows of a tableau weakly increase left to right, columns strictly increase
  top to bottom;
* the reading word of a tableau lists its rows left to right, bottom row
  first;
* words are stored left to right in reading order.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from functools import lru_cache
from operator import itemgetter
from typing import Iterable, Iterator, Sequence


def partition(parts: Iterable[int]) -> tuple[int, ...]:
    """Canonicalize ``parts`` into a partition tuple (trailing zeros trimmed)."""
    p = tuple(map(int, parts))
    for a, b in zip(p, p[1:]):
        if a < b:
            raise ValueError(f"not weakly decreasing: {p}")
    if p and p[-1] < 0:
        raise ValueError(f"negative part in {p}")
    while p and p[-1] == 0:
        p = p[:-1]
    return p


def conjugate(p: Sequence[int]) -> tuple[int, ...]:
    """Transpose partition: column lengths of the diagram of ``p``."""
    p = partition(p)
    if not p:
        return ()
    return tuple(sum(1 for x in p if x >= c) for c in range(1, p[0] + 1))


def partitions_of(
    size: int, max_parts: int, max_part: int | None = None
) -> Iterator[tuple[int, ...]]:
    """Yield all partitions of ``size`` with at most ``max_parts`` parts."""
    if size == 0:
        yield ()
        return
    if max_parts == 0:
        return
    top = size if max_part is None else min(size, max_part)
    for first in range(top, 0, -1):
        for rest in partitions_of(size - first, max_parts - 1, first):
            yield (first,) + rest


def _pad(p: Sequence[int], length: int) -> tuple[int, ...]:
    return tuple(p) + (0,) * (length - len(p))


def json_ints(value, name: str, depth: int = 1):
    """``value``, read from JSON, checked to be a list of integers, or at
    ``depth`` 2 a list of such lists; a ValueError names ``name`` if not."""

    def ok(v, d: int) -> bool:
        return type(v) is int if d == 0 else isinstance(v, list) and all(ok(x, d - 1) for x in v)

    if not ok(value, depth):
        raise ValueError(f"{name} must be a list of {'lists of ' * (depth - 1)}integers")
    return value


class _Frozen:
    """Base of the immutable value types, a frozen dataclass by hand.

    A subclass lists its fields in ``_fields`` and its slots in
    ``__slots__``; its constructor checks its arguments and sets each field
    once with ``object.__setattr__``.  Equality (same class only), hash,
    ``repr`` and pickling go by the fields.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    @classmethod
    def _raw(cls, *values):
        """Trusted constructor: the fields as given, unchecked."""
        obj = object.__new__(cls)
        for name, value in zip(cls._fields, values):
            object.__setattr__(obj, name, value)
        return obj

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({body})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self._raw, self._values()


class _Record(_Frozen):
    """A mutable record: fields may be reassigned, and it is unhashable,
    like a dataclass that is not frozen."""

    __slots__ = ()
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None


class Tableau:
    """A column-strict filling of a skew shape with letters in 1..n."""

    __slots__ = ("outer", "inner", "rows", "n")

    def __init__(
        self,
        rows: Sequence[Sequence[int]],
        inner: Iterable[int] = (),
        n: int | None = None,
    ):
        rows_t = [tuple(int(x) for x in row) for row in rows]
        inner = partition(inner)
        if len(inner) > len(rows_t):
            raise ValueError(f"inner shape {inner} has more rows than the {len(rows_t)} given")
        inner_full = list(_pad(inner, len(rows_t)))
        while rows_t and not rows_t[-1]:
            rows_t.pop()
            inner_full.pop()
        outer = partition(
            inner_full[i] + len(rows_t[i]) for i in range(len(rows_t))
        )
        self.rows = tuple(rows_t)
        self.outer = outer
        self.inner = partition(inner_full)
        maxval = max((x for row in rows_t for x in row), default=0)
        self.n = maxval if n is None else int(n)
        self._validate()

    @classmethod
    def _raw(cls, rows: tuple, inner: tuple, n: int | None) -> "Tableau":
        """Trusted constructor: ``rows`` and ``inner`` are normalized tuples
        already satisfying the invariants."""
        t = object.__new__(cls)
        t.rows = rows
        t.inner = inner
        if inner:
            inner = inner + (0,) * (len(rows) - len(inner))
            t.outer = tuple(i + len(row) for i, row in zip(inner, rows))
        else:
            t.outer = tuple(map(len, rows))
        t.n = n if n is not None else max(
            (x for row in rows for x in row), default=0
        )
        return t

    def _validate(self) -> None:
        for r, row in enumerate(self.rows, start=1):
            if row and row[0] < 1:
                raise ValueError(f"letters must be >= 1: row {r} = {row}")
            if any(row[i] > row[i + 1] for i in range(len(row) - 1)):
                raise ValueError(f"row {r} not weakly increasing: {row}")
        if any(x > self.n for row in self.rows for x in row):
            raise ValueError(f"letter exceeds alphabet size {self.n}")
        for r in range(1, len(self.rows)):
            lo = max(self.inner_at(r), self.inner_at(r + 1))
            hi = min(self.outer[r - 1], self.outer[r])
            for c in range(lo + 1, hi + 1):
                if self.entry(r, c) >= self.entry(r + 1, c):
                    raise ValueError(
                        f"column {c} not strictly increasing at rows {r},{r + 1}"
                    )

    def inner_at(self, r: int) -> int:
        return self.inner[r - 1] if r - 1 < len(self.inner) else 0

    def entry(self, r: int, c: int) -> int:
        return self.rows[r - 1][c - 1 - self.inner_at(r)]

    def has_cell(self, r: int, c: int) -> bool:
        if not 1 <= r <= len(self.rows):
            return False
        return self.inner_at(r) < c <= self.inner_at(r) + len(self.rows[r - 1])

    def cells(self) -> Iterator[tuple[int, int]]:
        for r, row in enumerate(self.rows, start=1):
            base = self.inner_at(r)
            for c in range(1, len(row) + 1):
                yield (r, base + c)

    def content(self, n: int | None = None) -> tuple[int, ...]:
        """Occurrence counts (m_1, ..., m_n) of each letter."""
        size = self.n if n is None else n
        counts = [0] * size
        for row in self.rows:
            for x in row:
                counts[x - 1] += 1
        return tuple(counts)

    def word(self) -> tuple[int, ...]:
        """Row-reading word: rows left to right, bottom row first."""
        out: list[int] = []
        for row in reversed(self.rows):
            out.extend(row)
        return tuple(out)

    def add_one(self, p: int = 1) -> "Tableau":
        """Entrywise addition of ``p``."""
        return Tableau._raw(
            tuple(tuple(x + p for x in row) for row in self.rows),
            self.inner,
            self.n + p,
        )

    def to_json(self) -> dict:
        return {
            "inner": list(self.inner),
            "outer": list(self.outer),
            "rows": [list(row) for row in self.rows],
        }

    @classmethod
    def from_json(cls, data: dict, n: int | None = None) -> "Tableau":
        if not isinstance(data, dict):
            raise ValueError(f"a tableau must be a JSON object, got {type(data).__name__}")
        t = cls(json_ints(data["rows"], "rows", 2), json_ints(data.get("inner", []), "inner"), n=n)
        if partition(json_ints(data.get("outer", list(t.outer)), "outer")) != t.outer:
            raise ValueError("outer shape inconsistent with rows")
        return t

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Tableau)
            and self.outer == other.outer
            and self.inner == other.inner
            and self.rows == other.rows
        )

    def __hash__(self) -> int:
        return hash((self.outer, self.inner, self.rows))

    def __repr__(self) -> str:
        if not self.rows:
            return "Tableau([])"
        lines = []
        for r, row in enumerate(self.rows, start=1):
            pad = ". " * self.inner_at(r)
            lines.append(pad + " ".join(str(x) for x in row))
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Schensted insertion.  Insertion tableaux have normal shape and are handled
# as lists of columns, each strictly increasing top to bottom.

def _cols_of(t: Tableau) -> list[list[int]]:
    if t.inner != ():
        raise ValueError("insertion requires a normal-shape tableau")
    ncols = t.outer[0] if t.outer else 0
    cols: list[list[int]] = [[] for _ in range(ncols)]
    for row in t.rows:
        for j, x in enumerate(row):
            cols[j].append(x)
    return cols


def _tableau_of_cols(cols: Sequence[Sequence[int]], n: int | None = None) -> Tableau:
    nrows = len(cols[0]) if cols else 0
    rows = tuple(
        tuple(col[r] for col in cols if len(col) > r) for r in range(nrows)
    )
    return Tableau._raw(rows, (), n)


def _col_insert(cols: list[list[int]], x: int) -> tuple[int, int]:
    """Column-insert ``x``; returns the new cell.

    In each column the topmost entry >= x is displaced into the next column;
    if there is none the letter settles at the bottom of the column.
    """
    j = 0
    while True:
        if j == len(cols):
            cols.append([x])
            return (1, j + 1)
        col = cols[j]
        i = bisect_left(col, x)
        if i == len(col):
            col.append(x)
            return (len(col), j + 1)
        col[i], x = x, col[i]
        j += 1


def column_insert(word: Sequence[int], n: int | None = None) -> Tableau:
    """The unique normal-shape column-strict tableau Knuth-equivalent to ``word``.

    Letters are column-inserted starting from the right end of the word, so
    each insertion prepends a letter to the reading word.
    """
    cols: list[list[int]] = []
    for x in reversed(word):
        _col_insert(cols, x)
    return _tableau_of_cols(cols, n)


@lru_cache(maxsize=2048)
def insertion_shape(word: tuple[int, ...]) -> tuple[int, ...]:
    """Shape of the insertion tableau of ``word`` (a tuple: it keys the memo)."""
    return column_insert(word).outer


def record(
    groups: Sequence[Sequence[int]], n: int | None = None
) -> tuple[Tableau, Tableau]:
    """Column-insert each group's letters right to left, group after group.

    Returns the insertion tableau P (letters in 1..n) and the recording
    tableau Q, which labels each new cell with the 1-based index of its group.
    """
    cols: list[list[int]] = []
    qrows: list[list[int]] = []
    _record_onto(cols, qrows, groups, 1)
    return _tableau_of_cols(cols, n), Tableau._raw(tuple(map(tuple, qrows)), (), len(groups))


def _record_onto(
    cols: list[list[int]], qrows: list[list[int]], groups: Iterable[Sequence[int]], first: int
) -> None:
    """Go on recording from an insertion state: column-insert the groups into
    ``cols`` and label their new cells in the recording rows ``qrows`` from
    ``first`` upward."""
    for k, group in enumerate(groups, start=first):
        for x in reversed(group):
            # the new cell ends its row, so q grows by appending to that row
            r = _col_insert(cols, x)[0]
            if r > len(qrows):
                qrows.append([])
            qrows[r - 1].append(k)


def _peel(cols: list[list[int]], cells: Iterable[tuple[int, int]]) -> tuple[int, ...]:
    """Undo the column insertions that ended at ``cells``, rightmost first.

    Returns the ejected letters, which must come out weakly increasing.
    """
    out: list[int] = []
    for r, c in sorted(cells, key=itemgetter(1), reverse=True):
        if not (1 <= c <= len(cols)) or len(cols[c - 1]) != r or (
            c < len(cols) and len(cols[c]) >= r
        ):
            raise ValueError(f"cell {(r, c)} is not a removable corner")
        y = cols[c - 1].pop()
        if not cols[c - 1]:
            cols.pop()
        for j in range(c - 2, -1, -1):
            col = cols[j]
            i = bisect_right(col, y) - 1
            if i < 0:
                raise ValueError(f"reverse column insertion stuck at column {j + 1}")
            col[i], y = y, col[i]
        if out and out[-1] > y:
            raise ValueError(f"ejected letters not weakly increasing: {out + [y]}")
        out.append(y)
    return tuple(out)


def peel_strip(
    t: Tableau, cells: Iterable[tuple[int, int]]
) -> tuple[Tableau, tuple[int, ...]]:
    """Reverse the column insertions that ended at ``cells`` of ``t``,
    rightmost first; returns the rest of ``t`` and the ejected word."""
    cols = _cols_of(t)
    word = _peel(cols, cells)
    return _tableau_of_cols(cols, t.n), word


def reverse_column_insert(t: Tableau, cell: tuple[int, int]) -> tuple[Tableau, int]:
    """Reverse one column insertion at a corner ``cell`` of ``t``."""
    rest, (y,) = peel_strip(t, (cell,))
    return rest, y


def _peel_labels(
    cols: list[list[int]], labelled: Iterable[tuple[tuple[int, int], int]], top: int, bottom: int
) -> Iterator[tuple[int, tuple[int, ...]]]:
    """Label by label from ``top`` down to ``bottom``, peel off ``cols`` the
    cells that ``labelled``, (cell, label) pairs of a recording tableau,
    gives that label.  Yields (label, group): the peeled group, after which
    ``cols`` holds the insertion state of the groups below that label."""
    by_label: dict[int, list[tuple[int, int]]] = {}
    for cell, v in labelled:
        by_label.setdefault(v, []).append(cell)
    for k in range(top, bottom - 1, -1):
        yield k, _peel(cols, by_label.get(k, ()))


def unrecord(p: Tableau, q: Tableau, ngroups: int) -> list[tuple[int, ...]]:
    """Inverse of :func:`record`: the groups recorded by (p, q).  The cells
    of q with each label, from ``ngroups`` down to 1, are peeled off p; q
    must cover p exactly."""
    cols = _cols_of(p)
    labelled = zip(q.cells(), (v for row in q.rows for v in row))
    groups = [group for _, group in _peel_labels(cols, labelled, ngroups, 1)]
    if cols:
        raise ValueError("recording tableau does not cover p")
    return groups[::-1]


def reverse_row_insert(t: Tableau, cell: tuple[int, int]) -> tuple[Tableau, int]:
    """Reverse one row insertion at a corner ``cell``; returns the ejected letter."""
    r, c = cell
    if t.inner != ():
        raise ValueError("reverse row insertion requires a normal shape")
    rows = [list(row) for row in t.rows]
    if not (1 <= r <= len(rows)) or len(rows[r - 1]) != c or (
        r < len(rows) and len(rows[r]) >= c
    ):
        raise ValueError(f"cell {cell} is not a removable corner")
    y = rows[r - 1].pop()
    if not rows[r - 1]:
        rows.pop()
    for i in range(r - 2, -1, -1):
        row = rows[i]
        j = bisect_left(row, y) - 1
        if j < 0:
            raise ValueError(f"reverse row insertion stuck at row {i + 1}")
        row[j], y = y, row[j]
    return Tableau._raw(tuple(map(tuple, rows)), (), t.n), y


def antinormal(word: Sequence[int], n: int | None = None) -> Tableau:
    """The antinormal-shape tableau Knuth-equivalent to ``word``.

    Reversing a word and complementing its letters (x -> N+1-x) respects
    Knuth equivalence and turns a tableau's reading word into that of the
    tableau rotated by 180 degrees and complemented.  So the word is
    reversed and complemented, column-inserted, and the normal-shape result
    rotated and complemented back.  The result is translation-normalized.
    """
    if not word:
        return Tableau._raw((), (), n)
    top = max(word)
    p = column_insert([top + 1 - x for x in reversed(word)])
    rows = p.rows[::-1]
    return Tableau._raw(
        tuple(tuple(top + 1 - x for x in reversed(row)) for row in rows),
        partition(p.outer[0] - len(row) for row in rows),
        n,
    )


def is_horizontal_strip(cells: Iterable[tuple[int, int]]) -> bool:
    """At most one cell per column."""
    cols = [c for _, c in cells]
    return len(cols) == len(set(cols))


# ---------------------------------------------------------------------------
# Key tableaux.

def key(gamma: Sequence[int], n: int | None = None, offset: int = 0) -> Tableau:
    """The unique column-strict tableau with shape sort(gamma) and content gamma.

    Column j holds the letters {i : gamma_i >= j} in increasing order.
    ``offset`` shifts every letter, placing the tableau in a later subalphabet.
    """
    gamma = tuple(int(x) for x in gamma)
    if any(x < 0 for x in gamma):
        raise ValueError(f"content must be nonnegative: {gamma}")
    if n is not None and sum(1 for x in gamma if x > 0) > n:
        raise ValueError(f"content {gamma} uses more than {n} letters")
    width = max(gamma, default=0)
    cols = [
        [i + 1 + offset for i, g in enumerate(gamma) if g >= j]
        for j in range(1, width + 1)
    ]
    return _tableau_of_cols(cols, n)


# ---------------------------------------------------------------------------
# Enumeration.

def enumerate_cst(shape: Sequence[int], n: int) -> Iterator[Tableau]:
    """All column-strict tableaux of normal shape ``shape`` over 1..n.

    Cells are filled in row-major order; results come out in row-by-row
    lexicographic order.
    """
    outer = partition(shape)
    if not outer:
        yield Tableau._raw((), (), n)
        return
    if len(outer) > n:
        return
    col_len = conjugate(outer)
    rows: list[list[int]] = [[] for _ in outer]

    def fill(r: int, c: int) -> Iterator[Tableau]:
        if c > outer[r - 1]:
            r, c = r + 1, 1
        if r > len(outer):
            yield Tableau._raw(tuple(tuple(row) for row in rows), (), n)
            return
        lo = max(r, rows[r - 1][-1] if c > 1 else 1)
        if r > 1 and outer[r - 2] >= c:
            lo = max(lo, rows[r - 2][c - 1] + 1)
        hi = n - (col_len[c - 1] - r)
        for x in range(lo, hi + 1):
            rows[r - 1].append(x)
            yield from fill(r, c + 1)
            rows[r - 1].pop()

    yield from fill(1, 1)
