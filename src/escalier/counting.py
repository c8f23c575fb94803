"""Census pipelines: how many stable / strongly stable zero-dimensional ideals
have a prescribed constant affine Hilbert value p.

Two variables reduce to sums of distinct-part partition counts.  Three
variables run over bar lists (p, h, k), and the k = 1 column is again the
two-variable count.  For k > 1 each shape of h into k distinct parts
contributes a count of plane partitions of norm p.  The stable class reads it
as the x^p coefficient of a determinantal norm generating function, with a
first-part bound vector chosen so the bound never cuts into the norm-p slice.
The strongly stable class counts its shifted row-strict, column-weak arrays
directly with a row-transfer DP, filling one row at a time.  Counts are plain
Python integers, so there is no overflow anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import isqrt

from .partitions import (
    IntPartition,
    count_Q,
    enumerate_distinct,
    minimal_sum,
    strict_rows,
)
from .qpolys import gf_strict

STABLE = "stable"
STRONGLY_STABLE = "strongly_stable"


@dataclass(frozen=True)
class ShapeCount:
    shape: IntPartition
    count: int


@dataclass(frozen=True)
class CensusRow:
    bar_list: tuple[int, ...]
    shapes: tuple[ShapeCount, ...]
    subtotal: int


@dataclass(frozen=True)
class BarListCensus:
    p: int
    n: int
    kind: str
    rows: tuple[CensusRow, ...]

    @property
    def total(self) -> int:
        return sum(row.subtotal for row in self.rows)

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "vars": self.n,
            "class": self.kind.replace("_", "-"),
            "rows": [
                {
                    "bar_list": list(row.bar_list),
                    "shapes": [
                        {"shape": list(sc.shape), "count": sc.count}
                        for sc in row.shapes
                    ],
                    "subtotal": row.subtotal,
                }
                for row in self.rows
            ],
            "total": self.total,
        }


def _check_kind(kind: str):
    if kind not in (STABLE, STRONGLY_STABLE):
        raise ValueError(f"unknown ideal class {kind!r}")


def max_h_2vars(p: int) -> int:
    """Largest h with h(h+1)/2 <= p, i.e. floor((-1 + sqrt(1+8p)) / 2)."""
    if p < 1:
        raise ValueError("p must be positive")
    return (isqrt(1 + 8 * p) - 1) // 2


def count_2vars(p: int) -> int:
    """Stable (equivalently strongly stable) ideals in two variables."""
    return sum(count_Q(p, i) for i in range(1, max_h_2vars(p) + 1))


def census_2vars(p: int, kind: str = STABLE) -> BarListCensus:
    _check_kind(kind)
    rows = tuple(
        CensusRow((p, h), (ShapeCount((h,), count_Q(p, h)),), count_Q(p, h))
        for h in range(1, max_h_2vars(p) + 1)
    )
    return BarListCensus(p, 2, kind, rows)


def bar_lists_3vars(p: int) -> list[tuple[int, int, int]]:
    """All feasible bar lists (p, h, k), k ascending then h ascending.

    k is capped by the cube bound k^3 + 3k^2 + 2k <= 6p and h runs from the
    forced minimum k(k+1)/2 up to the last value whose distinct-part shapes
    still fit a norm-p staircase.
    """
    if p < 1:
        raise ValueError("p must be positive")
    out = []
    k = 1
    while k * (k + 1) * (k + 2) <= 6 * p:
        h = k * (k + 1) // 2
        while _is_bar_list(p, h, k):
            out.append((p, h, k))
            h += 1
        k += 1
    return out


def _is_bar_list(p: int, h: int, k: int) -> bool:
    """Whether some shape of h into k distinct parts has minimal_sum <= p.

    These are exactly the bar lists bar_lists_3vars(p) emits.  A shape's
    minimal_sum is at least h and at least the staircase's k(k+1)(k+2)/6, so
    h <= p and the cube bound follow.  Every shape but the staircase has a
    part that can drop by one with the parts still distinct, which lowers
    minimal_sum, so the feasible h of each k run from k(k+1)/2 without a gap.
    """
    return h <= p and any(minimal_sum(s) <= p for s in enumerate_distinct(h, k))


def a_vector_stable(beta: IntPartition, p: int) -> tuple[int, ...]:
    """First-part bounds for unshifted shapes: the largest top-left entry a
    norm-p partition of this shape can carry, then consecutive descents."""
    a1 = (
        p
        - beta[0] * (beta[0] - 1) // 2
        - sum(b * (b + 1) // 2 for b in beta[1:])
    )
    return tuple(a1 - i for i in range(len(beta)))


def count_stable_barlist(
    p: int, h: int, k: int, truncate: bool = True
) -> tuple[int, tuple[ShapeCount, ...]]:
    """Stable ideals with bar list (p, h, k), plus the per-shape split."""
    if not _is_bar_list(p, h, k):
        raise ValueError(f"({p}, {h}, {k}) is not a feasible bar list")
    if k == 1:
        q = count_Q(p, h)
        return q, (ShapeCount((h,), q),)
    shapes = []
    for beta in enumerate_distinct(h, k):
        a = a_vector_stable(beta, p)
        if a[-1] < 1:
            shapes.append(ShapeCount(beta, 0))
            continue
        poly = gf_strict(
            beta,
            (0,) * k,
            a,
            (1,) * k,
            c=1,
            d=1,
            truncate_at=p if truncate else None,
        )
        shapes.append(ShapeCount(beta, poly.coefficient(p)))
    return sum(sc.count for sc in shapes), tuple(shapes)


def count_stable_3vars(p: int, truncate: bool = True) -> BarListCensus:
    rows = []
    for (pp, h, k) in bar_lists_3vars(p):
        subtotal, shapes = count_stable_barlist(pp, h, k, truncate)
        rows.append(CensusRow((pp, h, k), shapes, subtotal))
    return BarListCensus(p, 3, STABLE, tuple(rows))


def a_vectors_strongly(lam: tuple[int, ...], p: int) -> list[tuple[int, ...]]:
    """All admissible exact first-part vectors for a shifted shape.

    The budget M = p - sum of staircase minima caps every entry; parts then
    strictly increase from a_r >= lam[r-1] - r + 1 up to a_1 <= M, so the
    vectors are the r-subsets of that window, listed with a_r varying slowest.
    Summing gf_shifted over them is the determinantal route to the strongly
    stable counts, which the tests keep as an oracle for the DP.
    """
    r = len(lam)
    staircases = [lam[0] - 1] + [lam[j] - j for j in range(1, r)]
    M = p - sum(c * (c + 1) // 2 for c in staircases)
    window = range(lam[r - 1] - r + 1, M + 1)
    return [tuple(reversed(c)) for c in combinations(window, r)]


def count_sstable_barlist(p: int, h: int, k: int) -> tuple[int, tuple[ShapeCount, ...]]:
    """Strongly stable ideals with bar list (p, h, k), per-shape split.

    The ideals of shape alpha are the shifted arrays of norm p whose row i
    holds alpha[i] positive entries, strictly decreasing, with each column
    weakly decreasing downwards.  Row i+1 starts one column to the right of
    row i, so the column condition bounds it entrywise by row i with its first
    entry dropped.  _shifted_arrays fills the rows top-down from that bound;
    its memo is shared by the shapes of this bar list and dropped on return.
    """
    if not _is_bar_list(p, h, k):
        raise ValueError(f"({p}, {h}, {k}) is not a feasible bar list")
    if k == 1:
        q = count_Q(p, h)
        return q, (ShapeCount((h,), q),)
    memo: dict = {}
    shapes = tuple(
        ShapeCount(alpha, _shifted_arrays(alpha, None, p, memo))
        for alpha in enumerate_distinct(h, k)
    )
    return sum(sc.count for sc in shapes), shapes


def _shifted_arrays(
    lengths: tuple[int, ...], bounds: tuple[int, ...] | None, norm: int, memo: dict
) -> int:
    """Arrays of the kind count_sstable_barlist counts, with these row
    lengths and norm, whose first row is at most bounds entrywise (None: no
    bound).  Each first row leaves at least the staircase minimum of the rows
    below it; the last row is counted at exact sum."""
    key = (lengths, bounds, norm)
    got = memo.get(key)
    if got is not None:
        return got
    rest = lengths[1:]
    if not rest:
        got = len(strict_rows(lengths[0], bounds, norm, norm))
    else:
        below = sum(m * (m + 1) // 2 for m in rest)
        got = 0
        for row in strict_rows(lengths[0], bounds, 0, norm - below):
            got += _shifted_arrays(rest, row[1:rest[0] + 1], norm - sum(row), memo)
    memo[key] = got
    return got


def count_sstable_3vars(p: int) -> BarListCensus:
    rows = []
    for (pp, h, k) in bar_lists_3vars(p):
        subtotal, shapes = count_sstable_barlist(pp, h, k)
        rows.append(CensusRow((pp, h, k), shapes, subtotal))
    return BarListCensus(p, 3, STRONGLY_STABLE, tuple(rows))


def closed_form_shape22(p: int) -> int:
    """Shifted row-strict shape-(2,2) partitions of norm p: floor(((p-1)^2+6)/12)."""
    if p < 1:
        raise ValueError("p must be positive")
    return ((p - 1) ** 2 + 6) // 12


def census(p: int, n: int, kind: str, truncate: bool = True) -> BarListCensus:
    """Dispatch by variable count; the two-variable classes coincide.

    truncate only reaches the stable class's generating functions."""
    _check_kind(kind)
    if n == 2:
        return census_2vars(p, kind)
    if n == 3:
        if kind == STABLE:
            return count_stable_3vars(p, truncate)
        return count_sstable_3vars(p)
    raise ValueError("censuses are implemented for 2 and 3 variables")
