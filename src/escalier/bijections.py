"""Constructive maps between partitions, Bar Codes, and monomial ideals, and
the explicit listings behind the censuses.

A three-variable stable ideal is a row- and column-strict plane partition, and
a strongly stable one a shifted row-strict, column-weak one.  Both classes are
read off the rows the same way: each row is the run of 2-bars over one 3-bar,
each entry the 1-length of one 2-bar, and the minimal generators come straight
off the rows (one pure x3 power, one x2 corner per row, one x1 corner per
cell), since the star set equals the minimal generating set there.  In two
variables the staircase construction is direct.
"""

from __future__ import annotations

from collections.abc import Iterator
from functools import cached_property
from itertools import islice, repeat
from operator import gt

from ._record import Record
from .barcode import BarCode, _unit_row, length
from .counting import STRONGLY_STABLE, _check_kind, bar_lists_3vars, max_h_2vars
from .monomials import MonomialIdeal, Term, _term_of
from .partitions import (
    IntPartition,
    PlanePartition,
    enumerate_distinct,
    enumerate_plane_partitions,
    validate,
)


class ListedIdeal(Record):
    _fields = ("partition", "barcode", "ideal")

    def __init__(self, partition: IntPartition | PlanePartition, barcode: BarCode,
                 ideal: MonomialIdeal):
        self.__dict__.update(partition=partition, barcode=barcode, ideal=ideal)

    def to_json(self) -> dict:
        """The item's document; the tests hold the text that ``escalier list``
        writes without building it to ``json.dumps`` of this.  It sorts the
        generator set itself rather than read the construction order that the
        writer reads."""
        part = self.partition
        gens = sorted(self.ideal.generators, key=Term.lex_key)
        return {
            "partition": list(part) if isinstance(part, tuple) else part.to_json(),
            "barcode": self.barcode.to_json(),
            "generators": [list(t.exponents) for t in gens],
        }


class IdealListing(Record):
    """The ideals of one census, in census order.  Iterating builds them one
    at a time and holds none; ``items`` and ``len`` build and keep them all."""

    _fields = ("p", "n", "kind")

    def __init__(self, p: int, n: int, kind: str):
        self.__dict__.update(p=p, n=n, kind=kind)

    @cached_property
    def items(self) -> tuple[ListedIdeal, ...]:
        return tuple(iter(self))

    def __iter__(self) -> Iterator[ListedIdeal]:
        # Look for kept items when the stream starts, not when it is made:
        # list() and tuple() take iter() first and len() after it, and len()
        # keeps the items.
        # One Term per exponent vector per pass: the ideals share them.
        p, seen = self.p, {}
        if "items" in self.__dict__:
            yield from self.items
        elif self.n == 2:
            yield from (
                ListedIdeal(parts, barcode_from_partition_2vars(parts),
                            _staircase_ideal(parts, seen))
                for h in range(1, max_h_2vars(p) + 1) for parts in enumerate_distinct(p, h)
            )
        else:
            # the enumerated arrays are of the class already: their rows need no
            # _pp_rows check
            yield from (
                ListedIdeal(pp, _rows_barcode(pp.rows), _rows_ideal(pp.rows, seen))
                for _, h, k in bar_lists_3vars(p) for alpha in enumerate_distinct(h, k)
                for pp in _class_arrays(alpha, self.kind, p)
            )

    def __len__(self) -> int:
        return len(self.items)

    def to_json(self) -> list:
        return [item.to_json() for item in self]


def _pp_rows(pp: PlanePartition, shifted: bool) -> tuple[tuple[int, ...], ...]:
    """The rows of a three-variable array of the given class: unshifted row-
    and column-strict, or shifted row-strict and column-weak, with positive
    entries and strictly shorter rows going down; ValueError otherwise."""
    if pp.shifted != shifted or any(pp.inner):
        raise ValueError(f"expected a {'shifted' if shifted else 'straight unshifted'} partition")
    if any(not row or min(row) < 1 for row in pp.rows):
        raise ValueError("entries must be positive in every row")
    if any(len(up) <= len(down) for up, down in zip(pp.rows, pp.rows[1:])):
        raise ValueError("row lengths must decrease strictly")
    if not validate(PlanePartition(pp.shape, pp.rows, 1, 0 if shifted else 1, shifted, pp.inner)):
        columns = "weakly" if shifted else "strictly"
        raise ValueError(f"rows must decrease strictly, columns {columns}")
    return pp.rows


def _rows_barcode(rows: tuple[tuple[int, ...], ...]) -> BarCode:
    """Each entry is the 1-length of a 2-bar, each row the 2-bars over a 3-bar."""
    two_bars = tuple(v for row in rows for v in row)
    three_bars = tuple(sum(row) for row in rows)
    return BarCode((_unit_row(sum(three_bars)), two_bars, three_bars))


def _barcode_rows(B: BarCode) -> tuple[tuple[int, ...], ...]:
    """Inverse of _rows_barcode: the 2-bars over each 3-bar, by 1-length."""
    if B.n != 3:
        raise ValueError("the partition correspondences need 3 rows")
    two_bars = iter(B.rows[1])
    return tuple(tuple(islice(two_bars, length(B, 3, j, 2))) for j in range(1, B.mu(3) + 1))


def _rows_ideal(rows: tuple[tuple[int, ...], ...], seen: dict) -> MonomialIdeal:
    """Generators read straight off the rows: the pure x3 power, one mixed x2
    corner per row, and one x1 corner per cell, each vector's Term taken from
    ``seen`` (``monomials._term_of``).

    Rows and row lengths both decrease strictly, so no generator divides
    another and the set is already minimal.  In a shifted array the weak
    column rule gives rows[i-1][j+1] >= rows[i][j], so rows[i-1][j] > rows[i][j]
    and every x3-predecessor of a corner still lies in the escalier.

    Lex compares the x3 exponent first, then x2, then x1, so building row i's
    cells (v, j, i) for increasing j, then its corner (0, len(row), i), with
    the pure power (0, 0, len(rows)) last, gives the generators in Lex order:
    they go to the ideal as that tuple, with no sort and no hashing.
    """
    gens = []
    for i, row in enumerate(rows):
        gens += [_term_of((v, j, i), seen) for j, v in enumerate(row)]
        gens.append(_term_of((0, len(row), i), seen))
    gens.append(_term_of((0, 0, len(rows)), seen))
    return MonomialIdeal(tuple(gens), 3)


def barcode_from_strict_pp(pp: PlanePartition) -> BarCode:
    """Three-row Bar Code of a row- and column-strict positive partition."""
    return _rows_barcode(_pp_rows(pp, shifted=False))


def strict_pp_from_barcode(B: BarCode) -> PlanePartition:
    """Inverse of barcode_from_strict_pp; rejects codes of non-stable origin."""
    rows = _barcode_rows(B)
    pp = PlanePartition(tuple(map(len, rows)), rows, c=1, d=1, shifted=False)
    _pp_rows(pp, shifted=False)
    return pp


def ideal_from_strict_pp(pp: PlanePartition) -> MonomialIdeal:
    """The stable ideal whose escalier has the Bar Code of pp."""
    return _rows_ideal(_pp_rows(pp, shifted=False), {})


def barcode_from_shifted_pp(pp: PlanePartition) -> BarCode:
    """Three-row Bar Code of a shifted row-strict, column-weak partition."""
    return _rows_barcode(_pp_rows(pp, shifted=True))


def shifted_pp_from_barcode(B: BarCode) -> PlanePartition:
    """Inverse correspondence for strongly stable codes; shape[i] = i + alpha_i - 1."""
    rows = _barcode_rows(B)
    shape = tuple(i + len(row) for i, row in enumerate(rows))
    pp = PlanePartition(shape, rows, c=1, d=0, shifted=True)
    _pp_rows(pp, shifted=True)
    return pp


def partition_2vars(B: BarCode) -> IntPartition:
    """The 1-lengths of the 2-bars; strictly decreasing for stable codes."""
    if B.n != 2:
        raise ValueError("expected a two-row Bar Code")
    parts = B.rows[1]
    if not all(map(gt, parts, parts[1:])):
        raise ValueError("code does not come from a stable ideal")
    return parts


def barcode_from_partition_2vars(parts: IntPartition) -> BarCode:
    if not parts or not all(map(gt, parts, parts[1:])) or parts[-1] < 1:
        raise ValueError("need a strictly decreasing positive partition")
    return BarCode((_unit_row(sum(parts)), tuple(parts)))


def ideal_from_partition_2vars(parts: IntPartition) -> MonomialIdeal:
    """The staircase ideal (x1^a1, x1^a2 x2, ..., x2^h) of distinct parts."""
    return _staircase_ideal(parts, {})


def _staircase_ideal(parts: IntPartition, seen: dict) -> MonomialIdeal:
    """The staircase ideal (x1^a1, x1^a2 x2, ..., x2^h), each vector's Term
    taken from ``seen`` (``monomials._term_of``).

    The parts are distinct, so x1 falls and x2 rises strictly along the
    staircase and no generator divides another: the set is already minimal.
    Lex compares the x2 exponent first, and it rises along the staircase, so
    the construction order is Lex order and the generators go to the ideal as
    that tuple, with no sort and no hashing.
    """
    h = len(parts)
    return MonomialIdeal((*map(_term_of, zip(parts, range(h)), repeat(seen)),
                          _term_of((0, h), seen)), 2)


def _class_arrays(alpha: IntPartition, kind: str, norm: int) -> list[PlanePartition]:
    """The arrays of the class for the distinct-part shape alpha and this
    norm, with every last part at least 1: unshifted row- and column-strict
    for the stable class, shifted row-strict and column-weak otherwise."""
    shifted = kind == STRONGLY_STABLE
    # a shifted row i of length alpha_i ends in column i + alpha_i - 1
    shape = tuple(i + a for i, a in enumerate(alpha)) if shifted else alpha
    return enumerate_plane_partitions(
        shape, shifted=shifted, c=1, d=0 if shifted else 1, first=None,
        last_min=(1,) * len(alpha), norm=norm,
    )


def list_ideals(p: int, n: int, kind: str) -> IdealListing:
    """Every stable / strongly stable ideal with Hilbert constant p, with the
    partition and Bar Code that produce it; the arguments are checked here."""
    _check_kind(kind)
    if p < 1:
        raise ValueError("p must be positive")
    if n not in (2, 3):
        raise ValueError("listings are implemented for 2 and 3 variables")
    return IdealListing(p, n, kind)
