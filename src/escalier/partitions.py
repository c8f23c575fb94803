"""Integer partitions, plane partitions with strictness parameters, and their
higher-dimensional relatives.

Counting reads Q(p,i), the partitions of p into i distinct parts, as the
partitions of p - i(i+1)/2 into parts of size at most i (take off the
staircase, then conjugate), from one list of counts that each part size
updates by running sums over its residue classes; P(n,k) is read from Q
through the staircase shift.
Distinct-part, plane and solid partitions are enumerated by one cell filler,
a single loop over the cells: each cell carries static bounds and the earlier
cells that cap it, and the search prunes on the norm left, which is plenty at
the sizes these censuses run at.  Plane partitions carry their strictness
parameters (c across rows, d down columns) and an optional shift, with row i
of a shifted array occupying columns i..shape[i-1].  Entries outside the shape
are simply absent, never stored as zeros.

Solid (and higher) partitions exist for the n >= 4 experiments only.  A strict
m-partition decreases strictly along every axis and its length structure is
again a strict (m-1)-partition; a shifted m-partition decreases strictly along
the innermost axis, weakly along all others, with each layer offset one step
further down the diagonal.  The validator checks this on one flat map of
cells, so no nesting depth is a recursion depth.  For m >= 4 the shifted
index ranges are an interpretation, not settled ground.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from functools import lru_cache
from itertools import accumulate, islice

from ._record import Record

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
    """Number of partitions of p into i distinct positive parts.

    Read from the column of all Q(p, i) that ``_distinct_part_counts`` keeps
    per p, so the counts of one p share one pass."""
    if p < 1 or i < 1:
        return 0
    column = _distinct_part_counts(p)
    return column[i] if i < len(column) else 0


@lru_cache(maxsize=256)
def _distinct_part_counts(p: int) -> tuple[int, ...]:
    """Q(p, i) for i = 0 up to the largest i with i(i+1)/2 <= p.

    Taking the staircase i, ..., 1 off i distinct parts leaves a partition of
    n_i = p - i(i+1)/2 into at most i parts, and by conjugation into parts of
    size at most i.  So one list a[m] counts the partitions of m into parts
    of size at most i, stage i adding parts of size i: a[m] += a[m - i] for
    ascending m, which is a running sum along each residue class mod i, one
    ``accumulate`` per class.  Q(p, i) is then a[n_i].  The n_i fall as i
    grows and no later stage reads past n_i, so stage i updates a[0..n_i]
    only.
    """
    a = [1] + [0] * p
    column = [a[p]]  # Q(p, 0)
    i = 1
    while (n := p - i * (i + 1) // 2) >= 0:
        # a class with one entry in a[0..n] (r > n - i) is its own running sum
        for r in range(min(i, n - i + 1)):
            a[r:n + 1:i] = accumulate(a[r:n + 1:i])
        column.append(a[n])
        i += 1
    return tuple(column)


def minimal_sum(parts: Sequence[int]) -> int:
    """Least achievable total when part i heads a strict staircase of length parts[i]."""
    if any(a < 1 for a in parts):
        raise ValueError("minimal_sum needs positive entries")
    return sum(a * (a + 1) // 2 for a in parts)


def enumerate_distinct(p: int, k: int) -> list[IntPartition]:
    """All partitions of p into k distinct positive parts, descending lex order.

    One row of k cells for the cell filler: cell i is at least k - i and at
    most one less than the cell before it."""
    if p < 1 or k < 1:
        return []
    return _fillings([(k - i, None, ((i - 1, 1),) if i else ()) for i in range(k)], p)


class PlanePartition(Record):
    """A (c,d)-plane partition, optionally shifted, holding only in-shape cells.

    shape[i-1] is the last column of row i.  Unshifted rows start after
    inner[i-1]; shifted rows start at column i (inner must then be zero).
    """

    _fields = ("shape", "rows", "c", "d", "shifted", "inner")

    def __init__(
        self,
        shape: tuple[int, ...],
        rows: tuple[tuple[int, ...], ...],
        c: int,
        d: int,
        shifted: bool = False,
        inner: tuple[int, ...] = (),
    ):
        self.__dict__.update(shape=shape, rows=rows, c=c, d=d, shifted=shifted)
        r = len(shape)
        if r == 0 or len(rows) != r:
            raise ValueError("rows must match the shape, one per shape entry")
        self.__dict__["inner"] = _checked_inner(shape, inner, shifted)
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
        _json_object(doc, "shape", "rows", "c", "d")
        return cls(
            shape=_json_ints(doc["shape"], 1),
            rows=_json_ints(doc["rows"], 2),
            c=_json_ints(doc["c"], 0),
            d=_json_ints(doc["d"], 0),
            shifted=_json_bool(doc.get("shifted", False)),
            inner=_json_ints(doc.get("inner", ()), 1),
        )


def _json_object(doc, *keys: str) -> None:
    """ValueError unless doc is a JSON object holding every key."""
    if not isinstance(doc, dict) or any(k not in doc for k in keys):
        raise ValueError(f"expected a JSON object with the keys {', '.join(keys)}")


def _json_ints(value, depth: int):
    """value as tuples of integers nested depth deep; ValueError otherwise.
    A JSON boolean is not an integer here."""
    if depth == 0 and type(value) is int:
        return value
    if depth > 0 and isinstance(value, (list, tuple)):
        return tuple(_json_ints(v, depth - 1) for v in value)
    raise ValueError(f"expected {'lists of ' * depth}integers, got {value!r}")


def _json_bool(value) -> bool:
    """value if it is a JSON boolean; ValueError otherwise, so that the
    string "false" or the number 0 is not read as a flag."""
    if type(value) is bool:
        return value
    raise ValueError(f"expected a boolean, got {value!r}")


# JSON input nested deeper is refused: its readers recurse once per level,
# and a solid partition of dimension d nests d + 1 levels.
_MAX_JSON_DEPTH = 256
_TOO_DEEP = f"JSON input nested deeper than {_MAX_JSON_DEPTH} levels"


def _check_json_depth(doc) -> None:
    """ValueError if doc nests lists and objects more than _MAX_JSON_DEPTH
    levels deep.  Walks one level at a time, without recursion."""
    level, depth = [doc], 0
    while level := [x for x in level if isinstance(x, (list, dict))]:
        depth += 1
        if depth > _MAX_JSON_DEPTH:
            raise ValueError(_TOO_DEEP)
        level = [v for x in level for v in (x.values() if isinstance(x, dict) else x)]


def _checked_inner(shape: tuple[int, ...], inner: tuple[int, ...], shifted: bool) -> tuple[int, ...]:
    """The inner shape, all zeros when none is given, once the outer shape,
    the inner shape and the shifted condition hold; ValueError otherwise."""
    r = len(shape)
    if r == 0:
        raise ValueError("shape must have at least one row")
    if any(shape[i] < shape[i + 1] for i in range(r - 1)):
        raise ValueError("shape must be weakly decreasing")
    inner = inner or (0,) * r
    if len(inner) != r:
        raise ValueError("inner shape length must match the outer shape")
    if shifted:
        if any(inner):
            raise ValueError("shifted partitions take no inner shape")
        if shape[r - 1] < r:
            raise ValueError(f"shifted shape needs shape[{r}] >= {r}")
    else:
        if any(inner[i] < inner[i + 1] for i in range(r - 1)):
            raise ValueError("inner shape must be weakly decreasing")
        if any(m > l for l, m in zip(shape, inner)):
            raise ValueError("inner shape must fit inside the outer shape")
    return inner


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
    inner_t = _checked_inner(shape, tuple(inner) if inner else (), shifted)
    last_min = tuple(last_min)
    if len(last_min) != r or (first is not None and len(first) != r):
        raise ValueError("bound vectors must have one entry per row")
    starts = [i if shifted else inner_t[i - 1] + 1 for i in range(1, r + 1)]
    cells = [(i, j) for i in range(1, r + 1) for j in range(starts[i - 1], shape[i - 1] + 1)]
    index = {cell: idx for idx, cell in enumerate(cells)}

    # static per-cell lower bounds: chain the last-part anchors up and left
    lo: dict[tuple[int, int], int] = {}
    for i, j in reversed(cells):
        bound = last_min[i - 1] + c * (shape[i - 1] - j)
        below = lo.get((i + 1, j))
        if below is not None:
            bound = max(bound, below + d)
        lo[(i, j)] = bound

    # a first-part bound caps the row's first cell; the caps by the cell to
    # the left and the cell above carry it along the row and down the column
    records = []
    for i, j in cells:
        low, high = lo[(i, j)], None
        if first is not None and j == starts[i - 1]:
            high = first[i - 1]
            if shifted:
                # shifted generating functions pin the first part exactly
                low = max(low, high)
        above = tuple(
            (index[cell], gap)
            for cell, gap in (((i, j - 1), c), ((i - 1, j), d))
            if cell in index
        )
        records.append((low, high, above))

    lengths = [shape[i - 1] - starts[i - 1] + 1 for i in range(1, r + 1)]
    return [
        PlanePartition(shape, _rows(iter(flat), lengths), c, d, shifted, inner_t)
        for flat in _fillings(records, norm)
    ]


def _fillings(cells: list, norm: int) -> list[tuple[int, ...]]:
    """Every filling of the cells that sums to norm, as flat value tuples in
    descending lex order.

    cells[idx] is a record (low, high, above): the value of cell idx lies in
    low..high (high None: no static cap) and is at most values[k] - gap for
    each (k, gap) in above, where every k < idx.  One loop walks the cells
    forward and back: a cell reached from the one before starts at the
    largest value its caps allow, one reached from the one after tries the
    value below its last, and the last cell takes whatever is left of the
    norm.
    """
    suffix_low = [0] * (len(cells) + 1)
    for idx in range(len(cells) - 1, -1, -1):
        suffix_low[idx] = suffix_low[idx + 1] + cells[idx][0]
    if not cells:
        return [()] if norm == 0 else []
    out: list[tuple[int, ...]] = []
    values = [0] * len(cells)
    last = len(cells) - 1
    idx, rem, top = 0, norm, None  # rem: the norm left for cells idx onwards
    while idx >= 0:
        low, high, above = cells[idx]
        if top is None:  # a cell reached from the one before: cap its values
            top = rem - suffix_low[idx + 1]  # every later cell needs at least its low
            if high is not None and high < top:
                top = high
            for k, gap in above:
                if values[k] - gap < top:
                    top = values[k] - gap
            if idx == last:
                if low <= rem <= top:
                    values[idx] = rem
                    out.append(tuple(values))
                top = low - 1
        if top < low:  # no value left to try here: back to the cell before
            idx -= 1
            rem += values[idx]
            top = values[idx] - 1
        else:
            values[idx] = top
            idx += 1
            rem -= top
            top = None
    return out


def _rows(values: Iterator[int], lengths: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    """The next values, cut into consecutive rows of these lengths."""
    return tuple(tuple(islice(values, n)) for n in lengths)


class SolidPartition(Record):
    """An m-dimensional partition as nested tuples, stacking axis outermost.

    For the strict kind every index starts at 1.  For the shifted kind a
    sub-array under outer index l starts at index l itself, recursively, so
    `layers[k]` describes paper layer l = k+1 with its rows on the diagonal.
    """

    _fields = ("kind", "layers", "dimension")

    def __init__(self, kind: str, layers: tuple, dimension: int = 3):
        self.__dict__.update(kind=kind, layers=layers, dimension=dimension)
        if kind not in ("strict", "shifted"):
            raise ValueError(f"unknown kind {kind!r}")
        if dimension < 3:
            raise ValueError("solid partitions start at dimension 3")

    @property
    def norm(self) -> int:
        cells = _cells(self.layers, self.dimension, self.kind == "shifted")
        return sum(v for index, v in cells.items() if len(index) == self.dimension)

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "dimension": self.dimension,
            "layers": _listify(self.layers),
        }

    @classmethod
    def from_json(cls, doc: dict) -> SolidPartition:
        _check_json_depth(doc)
        _json_object(doc, "kind", "layers")
        return cls(
            kind=doc["kind"],
            layers=_tuplify(doc["layers"]),
            dimension=_json_ints(doc.get("dimension", 3), 0),
        )


def enumerate_solid_partitions(
    kind: str, shape: Sequence[Sequence[int]], norm: int
) -> list[SolidPartition]:
    """Every solid partition of the kind and norm with these layer shapes.

    shape[l][t] is the length of row t of layer l.  Strict solids start every
    row at the first column and decrease strictly along all three axes.
    Shifted solids put row t of layer l on the diagonal, at row and column
    l + t, and decrease strictly along rows but weakly down columns and
    through the layers.  Descending lex order of the flattened entries.
    """
    if kind not in ("strict", "shifted"):
        raise ValueError(f"unknown kind {kind!r}")
    shifted = kind == "shifted"
    index: dict[tuple[int, int, int], int] = {}  # cell (layer, row, column)
    for l, layer in enumerate(shape):
        for t, width in enumerate(layer):
            i = l + t if shifted else t
            start = i if shifted else 0
            for j in range(start, start + width):
                index[(l, i, j)] = len(index)
    down = 0 if shifted else 1  # the gap down columns and through layers
    records = [
        (1, None, tuple(
            (index[cell], gap)
            for cell, gap in (((l, i, j - 1), 1), ((l, i - 1, j), down), ((l - 1, i, j), down))
            if cell in index
        ))
        for l, i, j in index
    ]
    out = []
    for flat in _fillings(records, norm):
        values = iter(flat)
        out.append(SolidPartition(kind, tuple(_rows(values, layer) for layer in shape)))
    return out


def _listify(x):
    """x with each tuple or list level as a list, from the top down by an
    explicit stack: each sub-list is placed before it is filled."""
    if not isinstance(x, (tuple, list)):
        return x
    out: list = []
    stack = [(x, out)]
    while stack:
        source, target = stack.pop()
        for v in source:
            if isinstance(v, (tuple, list)):
                target.append([])
                stack.append((v, target[-1]))
            else:
                target.append(v)
    return out


def _tuplify(x):
    # recursion is safe here: from_json refuses documents nested deeper than
    # 256 levels before it runs
    return tuple(_tuplify(v) for v in x) if isinstance(x, list) else x


def _cells(layers, dim: int, shifted: bool) -> dict[tuple[int, ...], int]:
    """The nested array as one flat map: each entry under its index tuple, and
    each level above under its shorter index, with its length (() holds the
    number of layers).  Indices start at 1, or for the shifted kind at the
    enclosing index.  ValueError unless the levels are sequences down to
    depth dim, with integers there."""
    cells: dict[tuple[int, ...], int] = {}
    stack = [((), layers)]
    while stack:
        index, x = stack.pop()
        if len(index) == dim:
            if type(x) is not int:
                raise ValueError("partition entries must be integers")
        elif isinstance(x, (tuple, list)):
            start = index[-1] if shifted and index else 1
            # the last sub-level goes on the stack first: levels are read in order
            stack.extend((index + (start + k,), x[k]) for k in range(len(x) - 1, -1, -1))
            x = len(x)
        else:
            raise ValueError("partition levels must be sequences")
        cells[index] = x
    return cells


def validate_solid(sp: SolidPartition) -> bool:
    """Validity per the strict / shifted definitions, read on the flat map.

    Every entry and length is positive, and a cell past an axis's start needs
    the cell just before it with a larger value: strictly along the innermost
    axis, and along every axis for the strict kind.  The lengths form the
    length structure, which the same rules check level by level."""
    strict = sp.kind == "strict"
    try:
        cells = _cells(sp.layers, sp.dimension, not strict)
    except ValueError:
        return False
    for index, v in cells.items():
        if v < 1:
            return False
        last = len(index) - 1
        for a, i in enumerate(index):
            if i > (index[a - 1] if a and not strict else 1):
                # a missing cell reads 0, below every v here
                u = cells.get(index[:a] + (i - 1,) + index[a + 1:], 0)
                if u < v or (u == v and (strict or a == last)):
                    return False
    return True
