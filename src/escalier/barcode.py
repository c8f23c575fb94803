"""The Bar Code: an n-row diagram of nested bars encoding a finite term set.

Row i holds the i-bars left to right, each stored as the number of columns
(1-bars) it spans.  Row 1 is the finest partition (all ones), row n the
coarsest, and every i-bar lies under exactly one (i+1)-bar.  Two Bar Codes
are equal exactly when these length sequences coincide, so the encode/decode
roundtrips below are plain data equalities.

Decoding follows the canonical labelling: the j-th n-bar carries x_n^(j-1),
and within each block the bars above carry consecutive exponents 0, 1, 2, ...
of the next variable down.  The e-list of a 1-bar collects these block-relative
positions and equals the exponent vector of the decoded term.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Iterable
from functools import cached_property, lru_cache
from itertools import accumulate

from ._record import Record
from .monomials import Term, _is_closed, format_term, p_operator


@lru_cache(maxsize=1, typed=True)
def _unit_row(width: int) -> tuple[int, ...]:
    """Row 1 of every Bar Code of this width: width unit bars.

    The listings pass this one tuple as row 1 of each code they build, and
    ``BarCode`` skips the checks of that row when it is this very object.
    One width is kept, as a listing builds codes of one width; a code of
    another width only builds the row again."""
    return (1,) * width


class BarCode(Record):
    _fields = ("rows",)

    def __init__(self, rows: tuple[tuple[int, ...], ...]):
        self.__dict__["rows"] = rows
        if not rows:
            raise ValueError("a Bar Code needs at least one row")
        first = rows[0]
        # the cached unit row is a valid row 1 by construction; any other row
        # 1, even one equal to it, is checked in full.  An empty row is never
        # the cached one: (1,) * 0 is the empty tuple, a singleton.
        unit = type(first) is tuple and first and first is _unit_row(len(first))
        for row in rows[1:] if unit else rows:
            # exact types: a bool is not a bar length; an empty row fails here too
            if set(map(type, row)) != {int} or min(row) < 1:
                raise ValueError(f"bar lengths must be positive integers: {row}")
        width = len(first) if unit else sum(first)
        if any(sum(row) != width for row in rows[1:]):
            raise ValueError("all rows must cover the same number of columns")
        # the entries are positive, so they are all 1 exactly when there are width of them
        if len(first) != width:
            raise ValueError("row 1 must consist of unit bars")
        # row 1 starts a bar at every column, so nesting is checked from row 2 on
        for upper, lower in zip(rows[1:], rows[2:]):
            if not set(accumulate(upper, initial=0)).issuperset(accumulate(lower)):
                raise ValueError("each bar must lie under exactly one bar below")

    @property
    def n(self) -> int:
        return len(self.rows)

    @property
    def width(self) -> int:
        return len(self.rows[0])  # row 1 holds unit bars

    def mu(self, i: int) -> int:
        """Number of bars in row i."""
        return len(self._row(i))

    def _row(self, i: int) -> tuple[int, ...]:
        if not 1 <= i <= self.n:
            raise ValueError(f"row index {i} out of range 1..{self.n}")
        return self.rows[i - 1]

    @cached_property
    def _offsets(self) -> tuple[tuple[int, ...], ...]:
        """The start column of every bar, row by row, built on the first query
        and kept in the instance dict, outside the fields."""
        return tuple(tuple(accumulate(row[:-1], initial=0)) for row in self.rows)

    def _starts(self, i: int) -> tuple[int, ...]:
        self._row(i)  # range check
        return self._offsets[i - 1]

    def bar_of_column(self, i: int, col: int) -> int:
        """1-based index of the i-bar covering 0-based column col."""
        return bisect_right(self._starts(i), col)

    def span(self, i: int, j: int) -> tuple[int, int]:
        """Column range [start, end) of bar j in row i."""
        starts = self._starts(i)
        if not 1 <= j <= len(starts):
            raise ValueError(f"bar index {j} out of range 1..{len(starts)}")
        start = starts[j - 1]
        return start, start + self._row(i)[j - 1]

    def to_json(self) -> dict:
        return {"n": self.n, "width": self.width, "rows": [list(r) for r in self.rows]}

    @classmethod
    def from_json(cls, doc: dict) -> BarCode:
        rows = doc.get("rows") if isinstance(doc, dict) else None
        if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
            raise ValueError("expected a JSON object whose rows are lists of bar lengths")
        bc = cls(tuple(tuple(r) for r in rows))
        if "n" in doc and (type(doc["n"]) is not int or doc["n"] != bc.n):
            raise ValueError("declared row count does not match rows")
        if "width" in doc and (type(doc["width"]) is not int or doc["width"] != bc.width):
            raise ValueError("declared width does not match rows")
        return bc


def encode(terms: Iterable[Term]) -> BarCode:
    """Bar Code of a finite term set: row i groups equal truncations P_{x_i}."""
    ts = list(terms)
    if not ts:
        raise ValueError("cannot encode an empty term set")
    if len(set(ts)) != len(ts):
        raise ValueError("duplicate terms in input")
    n = ts[0].n
    if any(t.n != n for t in ts):
        raise ValueError("mixed arities in term set")
    ts.sort(key=Term.lex_key)
    rows = []
    for i in range(1, n + 1):
        truncated = [p_operator(t, i) for t in ts]
        lengths, run = [], 1
        for prev, cur in zip(truncated, truncated[1:]):
            if cur == prev:
                run += 1
            else:
                lengths.append(run)
                run = 1
        lengths.append(run)
        rows.append(tuple(lengths))
    return BarCode(tuple(rows))


def bar_list(B: BarCode) -> tuple[int, ...]:
    """(mu(1), ..., mu(n))."""
    return tuple(len(row) for row in B.rows)


def length(B: BarCode, i: int, j: int, l: int) -> int:
    """Number of l-bars lying over bar j of row i (requires l <= i)."""
    if not 1 <= l <= i:
        raise ValueError(f"need 1 <= l <= i, got l={l}, i={i}")
    start, end = B.span(i, j)
    starts = B._starts(l)
    return bisect_right(starts, end - 1) - bisect_right(starts, start - 1)


def e_list(B: BarCode, j: int) -> tuple[int, ...]:
    """Block-relative positions of the 1-bar j; the decoded exponent vector."""
    if not 1 <= j <= B.width:
        raise ValueError(f"1-bar index {j} out of range 1..{B.width}")
    col = j - 1
    n = B.n
    values = [0] * n
    values[n - 1] = B.bar_of_column(n, col) - 1
    for i in range(n - 1, 0, -1):
        bar_here = B.bar_of_column(i, col)
        block_start, _ = B.span(i + 1, B.bar_of_column(i + 1, col))
        first_in_block = B.bar_of_column(i, block_start)
        values[i - 1] = bar_here - first_in_block
    return tuple(values)


def decode(B: BarCode) -> tuple[Term, ...]:
    """The unique canonical term set of B, in Lex-ascending column order."""
    return tuple(Term(e_list(B, j)) for j in range(1, B.width + 1))


def is_admissible(B: BarCode) -> bool:
    """True iff every positive e-list coordinate can be decremented in place."""
    return _is_closed({e_list(B, j) for j in range(1, B.width + 1)})


def render(B: BarCode, fmt: str = "ascii", labels: bool = False) -> str:
    if fmt == "ascii":
        return _render_ascii(B, labels)
    if fmt == "svg":
        return _render_svg(B, labels)
    raise ValueError(f"unknown render format {fmt!r}")


def _render_ascii(B: BarCode, labels: bool) -> str:
    names = [format_term(t) for t in decode(B)]
    cell = max(3, max(len(s) for s in names)) if labels else 3
    lines = []
    if labels:
        lines.append(" ".join(s.ljust(cell) for s in names).rstrip())
    for row in B.rows:
        segments = ["_" * (cell * length + length - 1) for length in row]
        lines.append(" ".join(segments))
    return "\n".join(lines)


_CELL_W, _ROW_H, _PAD = 30, 24, 10


def _escape(text: str) -> str:
    """``&``, ``<`` and ``>`` as XML entities, like ``xml.sax.saxutils.escape``.

    Importing ``xml.sax.saxutils`` pulls in ``urllib`` and ``email``, which
    every CLI request would pay for through the package ``__init__``.
    """
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _render_svg(B: BarCode, labels: bool) -> str:
    width = B.width * _CELL_W + 2 * _PAD
    top = _ROW_H if labels else 0
    height = B.n * _ROW_H + top + _PAD
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">'
    ]
    if labels:
        for col, t in enumerate(decode(B)):
            x = _PAD + col * _CELL_W + _CELL_W // 2
            parts.append(
                f'<text x="{x}" y="{_ROW_H - 8}" font-size="10" '
                f'text-anchor="middle">{_escape(format_term(t))}</text>'
            )
    for i, row in enumerate(B.rows, start=1):
        y = top + i * _ROW_H - _ROW_H // 2
        col = 0
        for length in row:
            x1 = _PAD + col * _CELL_W + 3
            x2 = _PAD + (col + length) * _CELL_W - 3
            parts.append(
                f'<line x1="{x1}" y1="{y}" x2="{x2}" y2="{y}" '
                'stroke="black" stroke-width="2"/>'
            )
            col += length
    parts.append("</svg>")
    return "\n".join(parts)
