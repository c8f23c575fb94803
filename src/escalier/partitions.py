"""Integer partitions, plane partitions with strictness parameters, and their
higher-dimensional relatives.

Counting goes through one table of distinct-part counts Q(m,i), filled
bottom-up by additions; P(n,k) is read from it through the staircase shift.
Explicit enumeration is depth-first with remaining-norm pruning, which is
plenty at the sizes these censuses run at.  Plane partitions carry their
strictness parameters (c across rows, d down columns) and an optional shift,
with row i of a shifted array occupying columns i..shape[i-1].  Entries
outside the shape are simply absent, never stored as zeros.

Solid (and higher) partitions exist for the n >= 4 experiments only.  Their
validator follows the recursive reading of the definitions: a strict
m-partition decreases strictly along every axis and its length structure is
again a strict (m-1)-partition; a shifted m-partition decreases strictly along
the innermost axis, weakly along all others, with each layer offset one step
further down the diagonal.  For m >= 4 the shifted index ranges are an
interpretation, not settled ground.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Sequence

IntPartition = tuple[int, ...]


def count_P(n: int, k: int) -> int:
    """Number of partitions of n with largest part exactly k.

    By conjugation these are the partitions of n into exactly k parts; adding
    the staircase k-1, ..., 1, 0 to their parts makes the parts distinct.
    """
    if k == 0:
        return int(n == 0)
    return count_Q(n + k * (k - 1) // 2, k)


def count_Q(p: int, i: int) -> int:
    """Number of partitions of p into i distinct positive parts."""
    if p < 1 or i < 1:
        return 0
    column = _distinct_part_counts(p)
    return column[i] if i < len(column) else 0


@lru_cache(maxsize=256)
def _distinct_part_counts(p: int) -> tuple[int, ...]:
    """Q(p, i) for i = 0 up to the largest i with i(i+1)/2 <= p.

    Fills the table Q(m, i) = Q(m-i, i) + Q(m-i, i-1) (take 1 from every
    part; a part equal to 1 drops out) one row i at a time over m = 0..p,
    keeping only the column m = p.
    """
    row = [1] + [0] * p  # Q(m, 0)
    column = [row[p]]
    i = 1
    while i * (i + 1) // 2 <= p:
        nxt = [0] * (p + 1)
        for m in range(i * (i + 1) // 2, p + 1):
            nxt[m] = nxt[m - i] + row[m - i]
        row = nxt
        column.append(row[p])
        i += 1
    return tuple(column)


def minimal_sum(parts: Sequence[int]) -> int:
    """Least achievable total when part i heads a strict staircase of length parts[i]."""
    if any(a < 1 for a in parts):
        raise ValueError("minimal_sum needs positive entries")
    return sum(a * (a + 1) // 2 for a in parts)


def enumerate_distinct(p: int, k: int) -> list[IntPartition]:
    """All partitions of p into k distinct positive parts, descending lex order."""
    if p < 1 or k < 1:
        return []
    return strict_rows(k, None, p, p)


def strict_rows(
    length: int, bounds: Sequence[int] | None, least: int, most: int
) -> list[IntPartition]:
    """Strictly decreasing sequences of `length` >= 1 positive integers whose
    sum lies in least..most, with entry t at most bounds[t] unless bounds is
    None; descending lex order."""
    out: list[IntPartition] = []
    _extend_rows(out, (), length, bounds, least, most)
    return out


def _extend_rows(out, row, length, bounds, least, most) -> None:
    """Append to out every completion of row for strict_rows, with least and
    most already reduced by the entries placed.  Module-level, not a nested
    closure, so that a call leaves no reference cycle behind."""
    t = len(row)
    left = length - t - 1  # entries still to place after this one
    floor = left * (left + 1) // 2  # their least sum: left, ..., 1
    hi = most - floor
    if bounds is not None and bounds[t] < hi:
        hi = bounds[t]
    if row and row[-1] <= hi:
        hi = row[-1] - 1
    if left == 0:
        for v in range(hi, max(1, least) - 1, -1):
            out.append(row + (v,))
        return
    # the entries after v sum to at most left*v - floor
    lo = max(left + 1, -(-(least + floor) // (left + 1)))
    for v in range(hi, lo - 1, -1):
        _extend_rows(out, row + (v,), length, bounds, least - v, most - v)


@dataclass(frozen=True)
class PlanePartition:
    """A (c,d)-plane partition, optionally shifted, holding only in-shape cells.

    shape[i-1] is the last column of row i.  Unshifted rows start after
    inner[i-1]; shifted rows start at column i (inner must then be zero).
    """

    shape: tuple[int, ...]
    rows: tuple[tuple[int, ...], ...]
    c: int
    d: int
    shifted: bool = False
    inner: tuple[int, ...] = ()

    def __post_init__(self):
        r = len(self.shape)
        if r == 0 or len(self.rows) != r:
            raise ValueError("rows must match the shape, one per shape entry")
        if any(self.shape[i] < self.shape[i + 1] for i in range(r - 1)):
            raise ValueError("shape must be weakly decreasing")
        inner = self.inner or (0,) * r
        if len(inner) != r:
            raise ValueError("inner shape length must match the outer shape")
        object.__setattr__(self, "inner", inner)
        if self.shifted:
            if any(inner):
                raise ValueError("shifted partitions take no inner shape")
            if self.shape[r - 1] < r:
                raise ValueError(f"shifted shape needs shape[{r}] >= {r}")
        else:
            if any(inner[i] < inner[i + 1] for i in range(r - 1)):
                raise ValueError("inner shape must be weakly decreasing")
            if any(m > l for l, m in zip(self.shape, inner)):
                raise ValueError("inner shape must fit inside the outer shape")
        for i in range(1, r + 1):
            if len(self.rows[i - 1]) != self.row_end(i) - self.row_start(i) + 1:
                raise ValueError(f"row {i} has the wrong number of entries")

    def row_start(self, i: int) -> int:
        return i if self.shifted else self.inner[i - 1] + 1

    def row_end(self, i: int) -> int:
        return self.shape[i - 1]

    def entry(self, i: int, j: int) -> int | None:
        """Value at row i, column j, or None outside the shape."""
        if not 1 <= i <= len(self.shape):
            return None
        if not self.row_start(i) <= j <= self.row_end(i):
            return None
        return self.rows[i - 1][j - self.row_start(i)]

    def cells(self) -> Iterator[tuple[int, int, int]]:
        for i in range(1, len(self.shape) + 1):
            for j, v in enumerate(self.rows[i - 1], start=self.row_start(i)):
                yield i, j, v

    @property
    def norm(self) -> int:
        return sum(v for row in self.rows for v in row)

    def flat(self) -> tuple[int, ...]:
        return tuple(v for row in self.rows for v in row)

    def to_json(self) -> dict:
        doc = {
            "shape": list(self.shape),
            "shifted": self.shifted,
            "c": self.c,
            "d": self.d,
            "rows": [list(r) for r in self.rows],
        }
        if any(self.inner):
            doc["inner"] = list(self.inner)
        return doc

    @classmethod
    def from_json(cls, doc: dict) -> PlanePartition:
        return cls(
            shape=tuple(doc["shape"]),
            rows=tuple(tuple(r) for r in doc["rows"]),
            c=int(doc["c"]),
            d=int(doc["d"]),
            shifted=bool(doc.get("shifted", False)),
            inner=tuple(doc.get("inner", ())),
        )


def validate(pp: PlanePartition) -> bool:
    """Check the row (c) and column (d) inequalities over all in-shape cells."""
    r = len(pp.shape)
    for i in range(1, r + 1):
        row = pp.rows[i - 1]
        if any(a < b + pp.c for a, b in zip(row, row[1:])):
            return False
    for i in range(1, r):
        for j in range(pp.row_start(i + 1), pp.row_end(i + 1) + 1):
            above, below = pp.entry(i, j), pp.entry(i + 1, j)
            if above is not None and below is not None and above < below + pp.d:
                return False
    return True


def _row_span(shape: tuple[int, ...], inner: tuple[int, ...], shifted: bool, i: int):
    start = i if shifted else inner[i - 1] + 1
    return start, shape[i - 1]


def enumerate_plane_partitions(
    shape: Sequence[int],
    shifted: bool,
    c: int,
    d: int,
    first: Sequence[int] | None,
    last_min: Sequence[int],
    norm: int,
    inner: Sequence[int] | None = None,
) -> list[PlanePartition]:
    """Exhaustive list of (c,d)-plane partitions of the given shape and norm.

    Row i must end at a value >= last_min[i-1].  When `first` is given, the
    leading entry of row i is bounded by first[i-1]: an upper bound for
    unshifted arrays, an exact value for shifted ones (mirroring how the two
    norm generating functions constrain their first columns).  Results come
    out duplicate-free in descending lexicographic order of the flattened
    entries, and every one of them satisfies `validate`.
    """
    shape = tuple(shape)
    r = len(shape)
    inner_t = tuple(inner) if inner else (0,) * r
    last_min = tuple(last_min)
    if len(last_min) != r or (first is not None and len(first) != r):
        raise ValueError("bound vectors must have one entry per row")
    spans = {i: _row_span(shape, inner_t, shifted, i) for i in range(1, r + 1)}
    cells = [(i, j) for i in range(1, r + 1) for j in range(spans[i][0], spans[i][1] + 1)]

    def build(values: dict) -> PlanePartition:
        rows = tuple(
            tuple(values[(i, j)] for j in range(spans[i][0], spans[i][1] + 1))
            for i in range(1, r + 1)
        )
        return PlanePartition(shape, rows, c, d, shifted, () if shifted else inner_t)

    if not cells:
        return [build({})] if norm == 0 else []

    # static per-cell lower bounds: chain the last-part anchors up and left
    lo: dict[tuple[int, int], int] = {}
    for i in range(r, 0, -1):
        start, end = spans[i]
        for j in range(end, start - 1, -1):
            bound = last_min[i - 1] + c * (end - j)
            below = lo.get((i + 1, j))
            if below is not None:
                bound = max(bound, below + d)
            lo[(i, j)] = bound

    # static per-cell upper bounds once first-column bounds are available
    hi: dict[tuple[int, int], int] = {}
    if first is not None:
        for i in range(1, r + 1):
            start, end = spans[i]
            for j in range(start, end + 1):
                bound = first[i - 1] - c * (j - start)
                above = hi.get((i - 1, j))
                if above is not None:
                    bound = min(bound, above - d)
                hi[(i, j)] = bound

    suffix_lo = [0] * (len(cells) + 1)
    for idx in range(len(cells) - 1, -1, -1):
        suffix_lo[idx] = suffix_lo[idx + 1] + lo[cells[idx]]

    values: dict[tuple[int, int], int] = {}
    out: list[PlanePartition] = []

    def rec(idx: int, rem: int):
        if idx == len(cells):
            if rem == 0:
                out.append(build(values))
            return
        i, j = cells[idx]
        top = rem - suffix_lo[idx + 1]
        if j > spans[i][0]:
            top = min(top, values[(i, j - 1)] - c)
        if (i - 1, j) in values:
            top = min(top, values[(i - 1, j)] - d)
        bottom = lo[(i, j)]
        if first is not None:
            if shifted and j == spans[i][0]:
                # shifted generating functions pin the first part exactly
                if not bottom <= first[i - 1] <= top:
                    return
                top = bottom = first[i - 1]
            else:
                top = min(top, hi[(i, j)])
        for v in range(top, bottom - 1, -1):
            values[(i, j)] = v
            rec(idx + 1, rem - v)
        values.pop((i, j), None)

    rec(0, norm)
    return out


@dataclass(frozen=True)
class SolidPartition:
    """An m-dimensional partition as nested tuples, stacking axis outermost.

    For the strict kind every index starts at 1.  For the shifted kind a
    sub-array under outer index l starts at index l itself, recursively, so
    `layers[k]` describes paper layer l = k+1 with its rows on the diagonal.
    """

    kind: str  # "strict" | "shifted"
    layers: tuple
    dimension: int = 3

    def __post_init__(self):
        if self.kind not in ("strict", "shifted"):
            raise ValueError(f"unknown kind {self.kind!r}")
        if self.dimension < 3:
            raise ValueError("solid partitions start at dimension 3")

    @property
    def norm(self) -> int:
        offsets = self.kind == "shifted"
        return sum(v for _, v in _entries(self.layers, self.dimension, 1, offsets))

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "dimension": self.dimension,
            "layers": _listify(self.layers),
        }

    @classmethod
    def from_json(cls, doc: dict) -> SolidPartition:
        return cls(
            kind=doc["kind"],
            layers=_tuplify(doc["layers"]),
            dimension=int(doc.get("dimension", 3)),
        )


def _listify(x):
    return [_listify(v) for v in x] if isinstance(x, (tuple, list)) else x


def _tuplify(x):
    return tuple(_tuplify(v) for v in x) if isinstance(x, list) else x


def _entries(
    arr, dim: int, base: int, offsets: bool
) -> Iterator[tuple[tuple[int, ...], int]]:
    """(index tuple, value) pairs.  With `offsets` each sub-level starts at its
    enclosing index (the shifted diagonal); without, every level starts at 1."""
    if not isinstance(arr, (tuple, list)):
        raise ValueError("partition levels must be sequences")
    if dim == 1:
        for k, v in enumerate(arr):
            if not isinstance(v, int):
                raise ValueError("partition entries must be integers")
            yield (base + k,), v
        return
    for k, sub in enumerate(arr):
        for idx, v in _entries(sub, dim - 1, base + k if offsets else 1, offsets):
            yield (base + k,) + idx, v


def _length_structure(arr, dim: int):
    if dim == 2:
        return tuple(len(row) for row in arr)
    return tuple(_length_structure(sub, dim - 1) for sub in arr)


def _valid_nested(arr, dim: int, base: int, strict: bool) -> bool:
    """Strict along the innermost axis, strict (strict kind) or weak (shifted
    kind) along all outer axes, positive entries, length structure recursively
    valid.  `base` only matters for the shifted kind's diagonal offsets."""
    if not isinstance(arr, (tuple, list)) or len(arr) == 0:
        return False
    offsets = not strict
    sub_base = (lambda k: base + k) if offsets else (lambda k: 1)
    if dim == 1:
        if any(not isinstance(v, int) or v < 1 for v in arr):
            return False
        return all(a > b for a, b in zip(arr, arr[1:]))
    for k, sub in enumerate(arr):
        if not _valid_nested(sub, dim - 1, sub_base(k), strict):
            return False
    lengths = _length_structure(arr, dim)
    if dim == 2:
        if any(a <= b for a, b in zip(lengths, lengths[1:])):
            return False
    elif not _valid_nested(lengths, dim - 1, base, strict):
        return False
    for k in range(len(arr) - 1):
        upper = dict(_entries(arr[k], dim - 1, sub_base(k), offsets))
        for idx, v in _entries(arr[k + 1], dim - 1, sub_base(k + 1), offsets):
            u = upper.get(idx)
            if u is None or u < v or (strict and u == v):
                return False
    return True


def validate_solid(sp: SolidPartition) -> bool:
    """Validity per the strict / shifted recursive definitions."""
    return _valid_nested(sp.layers, sp.dimension, 1, strict=(sp.kind == "strict"))
