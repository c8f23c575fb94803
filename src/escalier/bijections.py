"""Constructive maps between partitions, Bar Codes, and monomial ideals, and
the explicit listings behind the censuses.

A strict plane partition of shape beta turns into a three-row Bar Code by
reading beta as the 2-bars-per-3-bar profile and each entry as a 1-length; the
shifted variant does the same with diagonal offsets.  Stable ideals come
straight off the strict partition, since its star set equals its minimal
generating set there.  In two variables the staircase construction is direct.
"""

from __future__ import annotations

from dataclasses import dataclass

from .barcode import BarCode, decode, length
from .counting import (
    STABLE,
    STRONGLY_STABLE,
    bar_lists_3vars,
    max_h_2vars,
)
from .monomials import MonomialIdeal, OrderIdeal, Term, minimal_generators
from .partitions import (
    IntPartition,
    PlanePartition,
    enumerate_distinct,
    enumerate_plane_partitions,
)


@dataclass(frozen=True)
class ListedIdeal:
    partition: IntPartition | PlanePartition
    barcode: BarCode
    ideal: MonomialIdeal


@dataclass(frozen=True)
class IdealListing:
    p: int
    n: int
    kind: str
    items: tuple[ListedIdeal, ...]

    def __len__(self) -> int:
        return len(self.items)

    def to_json(self) -> list:
        out = []
        for item in self.items:
            part = (
                list(item.partition)
                if isinstance(item.partition, tuple)
                else item.partition.to_json()
            )
            out.append(
                {
                    "partition": part,
                    "barcode": item.barcode.to_json(),
                    "generators": [list(t.exponents) for t in item.ideal.sorted()],
                }
            )
        return out


def _pp_rows_strict(pp: PlanePartition) -> tuple[tuple[int, ...], ...]:
    if pp.shifted or any(pp.inner):
        raise ValueError("expected an unshifted straight-shape partition")
    if any(v < 1 for row in pp.rows for v in row) or any(
        len(row) == 0 for row in pp.rows
    ):
        raise ValueError("entries must be positive in every row")
    for row in pp.rows:
        if any(a <= b for a, b in zip(row, row[1:])):
            raise ValueError("rows must decrease strictly")
    for up, down in zip(pp.rows, pp.rows[1:]):
        if len(down) >= len(up):
            raise ValueError("shape must decrease strictly")
        if any(u <= d for u, d in zip(up, down)):
            raise ValueError("columns must decrease strictly")
    return pp.rows


def barcode_from_strict_pp(pp: PlanePartition) -> BarCode:
    """Three-row Bar Code of a row- and column-strict positive partition."""
    rows = _pp_rows_strict(pp)
    two_bars = tuple(v for row in rows for v in row)
    three_bars = tuple(sum(row) for row in rows)
    width = sum(three_bars)
    return BarCode(((1,) * width, two_bars, three_bars))


def strict_pp_from_barcode(B: BarCode) -> PlanePartition:
    """Inverse of barcode_from_strict_pp; rejects codes of non-stable origin."""
    if B.n != 3:
        raise ValueError("the strict-partition correspondence needs 3 rows")
    shape = []
    rows = []
    cursor = 0
    for j3 in range(1, B.mu(3) + 1):
        count = length(B, 3, j3, 2)
        shape.append(count)
        rows.append(tuple(B.rows[1][cursor : cursor + count]))
        cursor += count
    pp = PlanePartition(tuple(shape), tuple(rows), c=1, d=1, shifted=False)
    _pp_rows_strict(pp)
    return pp


def ideal_from_strict_pp(pp: PlanePartition) -> MonomialIdeal:
    """Generators read straight off the partition: the pure x3 power, one mixed
    x2 corner per row, and one x1 corner per cell."""
    rows = _pp_rows_strict(pp)
    k = len(rows)
    gens = [Term((0, 0, k))]
    for i, row in enumerate(rows, start=1):
        gens.append(Term((0, len(row), i - 1)))
        for j, v in enumerate(row, start=1):
            gens.append(Term((v, j - 1, i - 1)))
    return MonomialIdeal.of(gens, 3)


def _pp_rows_shifted(pp: PlanePartition) -> tuple[tuple[int, ...], ...]:
    if not pp.shifted:
        raise ValueError("expected a shifted partition")
    if any(v < 1 for row in pp.rows for v in row) or any(
        len(row) == 0 for row in pp.rows
    ):
        raise ValueError("entries must be positive in every row")
    for row in pp.rows:
        if any(a <= b for a, b in zip(row, row[1:])):
            raise ValueError("rows must decrease strictly")
    for i in range(1, len(pp.shape)):
        for j in range(pp.row_start(i + 1), pp.row_end(i + 1) + 1):
            above, below = pp.entry(i, j), pp.entry(i + 1, j)
            if above is None or below is None or above < below:
                raise ValueError("columns must decrease weakly inside the shape")
    alphas = [len(row) for row in pp.rows]
    if any(a <= b for a, b in zip(alphas, alphas[1:])):
        raise ValueError("row lengths must decrease strictly")
    return pp.rows


def barcode_from_shifted_pp(pp: PlanePartition) -> BarCode:
    """Three-row Bar Code of a shifted row-strict, column-weak partition."""
    rows = _pp_rows_shifted(pp)
    two_bars = tuple(v for row in rows for v in row)
    three_bars = tuple(sum(row) for row in rows)
    width = sum(three_bars)
    return BarCode(((1,) * width, two_bars, three_bars))


def shifted_pp_from_barcode(B: BarCode) -> PlanePartition:
    """Inverse correspondence for strongly stable codes; shape[i] = i + alpha_i - 1."""
    if B.n != 3:
        raise ValueError("the shifted-partition correspondence needs 3 rows")
    shape = []
    rows = []
    cursor = 0
    for i in range(1, B.mu(3) + 1):
        alpha = length(B, 3, i, 2)
        shape.append(i + alpha - 1)
        rows.append(tuple(B.rows[1][cursor : cursor + alpha]))
        cursor += alpha
    pp = PlanePartition(tuple(shape), tuple(rows), c=1, d=0, shifted=True)
    _pp_rows_shifted(pp)
    return pp


def partition_2vars(B: BarCode) -> IntPartition:
    """The 1-lengths of the 2-bars; strictly decreasing for stable codes."""
    if B.n != 2:
        raise ValueError("expected a two-row Bar Code")
    parts = B.rows[1]
    if any(a <= b for a, b in zip(parts, parts[1:])):
        raise ValueError("code does not come from a stable ideal")
    return parts


def barcode_from_partition_2vars(parts: IntPartition) -> BarCode:
    if not parts or any(a <= b for a, b in zip(parts, parts[1:])) or parts[-1] < 1:
        raise ValueError("need a strictly decreasing positive partition")
    return BarCode(((1,) * sum(parts), tuple(parts)))


def ideal_from_partition_2vars(parts: IntPartition) -> MonomialIdeal:
    """The staircase ideal (x1^a1, x1^a2 x2, ..., x2^h).

    The parts are distinct, so x1 falls and x2 rises strictly along the
    staircase and no generator divides another: the set is already minimal.
    """
    h = len(parts)
    gens = {Term((parts[i], i)) for i in range(h)}
    gens.add(Term((0, h)))
    return MonomialIdeal(frozenset(gens), 2)


def _listing_2vars(p: int) -> list[ListedIdeal]:
    items = []
    for h in range(1, max_h_2vars(p) + 1):
        for parts in enumerate_distinct(p, h):
            items.append(
                ListedIdeal(
                    parts,
                    barcode_from_partition_2vars(parts),
                    ideal_from_partition_2vars(parts),
                )
            )
    return items


def _listing_3vars(p: int, kind: str) -> list[ListedIdeal]:
    items = []
    for (_, h, k) in bar_lists_3vars(p):
        for shape in enumerate_distinct(h, k):
            if kind == STABLE:
                pps = enumerate_plane_partitions(
                    shape, shifted=False, c=1, d=1, first=None,
                    last_min=(1,) * k, norm=p,
                )
                for pp in pps:
                    items.append(
                        ListedIdeal(pp, barcode_from_strict_pp(pp), ideal_from_strict_pp(pp))
                    )
            else:
                lam = tuple(i + 1 + shape[i] - 1 for i in range(k))
                pps = enumerate_plane_partitions(
                    lam, shifted=True, c=1, d=0, first=None,
                    last_min=(1,) * k, norm=p,
                )
                for pp in pps:
                    code = barcode_from_shifted_pp(pp)
                    escalier = OrderIdeal.of(decode(code), 3)
                    items.append(ListedIdeal(pp, code, minimal_generators(escalier)))
    return items


def list_ideals(p: int, n: int, kind: str) -> IdealListing:
    """Every stable / strongly stable ideal with Hilbert constant p, with the
    partition and Bar Code that produce it.  Deterministic census order."""
    if kind not in (STABLE, STRONGLY_STABLE):
        raise ValueError(f"unknown ideal class {kind!r}")
    if p < 1:
        raise ValueError("p must be positive")
    if n == 2:
        items = _listing_2vars(p)
    elif n == 3:
        items = _listing_3vars(p, kind)
    else:
        raise ValueError("listings are implemented for 2 and 3 variables")
    return IdealListing(p, n, kind, tuple(items))
