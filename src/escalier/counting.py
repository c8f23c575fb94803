"""Census pipelines: how many stable / strongly stable zero-dimensional ideals
have a prescribed constant affine Hilbert value p.

Two variables reduce to sums of distinct-part partition counts.  Three
variables run over bar lists (p, h, k), and the k = 1 column is again the
two-variable count.  For k > 1 each shape of h into k distinct parts
contributes a count of plane partitions of norm p.  One loop over the bar
lists, with the feasibility check and the k = 1 column, serves both classes;
each class supplies only the count of one shape.  The stable class reads it
as the x^p coefficient of a determinantal norm generating function whose
first-part bounds, p - t in row t + 1, cut no array of norm p.  The strongly
stable class sums the determinantal generating functions of its shifted
row-strict, column-weak arrays over every first-part vector of a window that
runs on to p.  So each shape's determinant, or sum of them (by the minor
summation formula), is one sub-Pfaffian of one matrix per p and class, and
the census reads every shape from that matrix with one memo
(qpolys._strict_census, qpolys._shifted_census).  Both classes take their
Gaussian-binomial entries from one packed table per p (qpolys.gauss_table).
Counts are plain Python integers, so there is no overflow anywhere.
"""

from __future__ import annotations

from itertools import combinations
from math import isqrt

from ._record import Record
from .partitions import (
    IntPartition,
    count_Q,
    enumerate_distinct,
    minimal_sum,
)
from .qpolys import gf_shifted_sum_coefficient, gf_strict_coefficient

STABLE = "stable"
STRONGLY_STABLE = "strongly_stable"


class ShapeCount(Record):
    _fields = ("shape", "count")

    def __init__(self, shape: IntPartition, count: int):
        self.__dict__.update(shape=shape, count=count)


class CensusRow(Record):
    _fields = ("bar_list", "shapes", "subtotal")

    def __init__(self, bar_list: tuple[int, ...], shapes: tuple[ShapeCount, ...], subtotal: int):
        self.__dict__.update(bar_list=bar_list, shapes=shapes, subtotal=subtotal)


class BarListCensus(Record):
    _fields = ("p", "n", "kind", "rows")

    def __init__(self, p: int, n: int, kind: str, rows: tuple[CensusRow, ...]):
        self.__dict__.update(p=p, n=n, kind=kind, rows=rows)

    @property
    def total(self) -> int:
        return sum(row.subtotal for row in self.rows)

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "vars": self.n,
            "class": self.kind.replace("_", "-"),
            "rows": [_row_json(row) for row in self.rows],
            "total": self.total,
        }


def _row_json(row: CensusRow) -> dict:
    """A row of BarListCensus.to_json(), which the CLI writes one at a time."""
    return {
        "bar_list": list(row.bar_list),
        "shapes": [{"shape": list(sc.shape), "count": sc.count} for sc in row.shapes],
        "subtotal": row.subtotal,
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
    rows = []
    for h in range(1, max_h_2vars(p) + 1):
        q = count_Q(p, h)
        rows.append(CensusRow((p, h), (ShapeCount((h,), q),), q))
    return BarListCensus(p, 2, kind, tuple(rows))


def bar_lists_3vars(p: int) -> list[tuple[int, int, int]]:
    """All feasible bar lists (p, h, k), k ascending then h ascending: k runs
    while the staircase k, ..., 1 fits norm p (the cube bound
    k(k+1)(k+2) <= 6p), h from k(k+1)/2 while some shape still fits."""
    if p < 1:
        raise ValueError("p must be positive")
    out = []
    k = 1
    while _is_bar_list(p, k * (k + 1) // 2, k):
        h = k * (k + 1) // 2
        while _is_bar_list(p, h, k):
            out.append((p, h, k))
            h += 1
        k += 1
    return out


def _is_bar_list(p: int, h: int, k: int) -> bool:
    """Whether some shape of h into k distinct parts has minimal_sum <= p.

    Every such shape majorizes the one closest to the staircase, parts
    k - i + q plus one on the first r parts where h - k(k+1)/2 = qk + r, so by
    Karamata's inequality (a(a+1)/2 is convex) that shape has the least
    minimal_sum.  The shape for h - 1 is this one with a part lowered by one,
    so the feasible h of each k run from k(k+1)/2 without a gap.
    """
    extra = h - k * (k + 1) // 2
    if k < 1 or extra < 0:
        return False
    q, r = divmod(extra, k)
    return minimal_sum([k - i + q + (i < r) for i in range(k)]) <= p


def _barlist_counts(p: int, h: int, k: int, shape_count) -> tuple[int, tuple[ShapeCount, ...]]:
    """The total and per-shape split of a bar list, given the count of one
    shape of h into k distinct parts.  The k = 1 column is the two-variable
    count Q(p, h) for both classes."""
    if not _is_bar_list(p, h, k):
        raise ValueError(f"({p}, {h}, {k}) is not a feasible bar list")
    if k == 1:
        q = count_Q(p, h)
        return q, (ShapeCount((h,), q),)
    shapes = tuple(ShapeCount(beta, shape_count(beta)) for beta in enumerate_distinct(h, k))
    return sum(sc.count for sc in shapes), shapes


def _census_3vars(p: int, kind: str, count_barlist) -> BarListCensus:
    """One row per feasible bar list, from count_barlist(p, h, k).  The
    callers pass the module-level name as it is bound when they run."""
    rows = []
    for (pp, h, k) in bar_lists_3vars(p):
        subtotal, shapes = count_barlist(pp, h, k)
        rows.append(CensusRow((pp, h, k), shapes, subtotal))
    return BarListCensus(p, 3, kind, tuple(rows))


def a_vector_stable(beta: IntPartition, p: int) -> tuple[int, ...]:
    """First-part bounds for unshifted shapes: the largest top-left entry a
    norm-p partition of this shape can carry, then consecutive descents.
    The census no longer calls it: any larger bounds count the same arrays,
    and gf_strict_coefficient takes p - t in row t + 1 for every shape.  The
    tests' gf_strict routes read it."""
    a1 = (
        p
        - beta[0] * (beta[0] - 1) // 2
        - sum(b * (b + 1) // 2 for b in beta[1:])
    )
    return tuple(a1 - i for i in range(len(beta)))


def count_stable_barlist(p: int, h: int, k: int) -> tuple[int, tuple[ShapeCount, ...]]:
    """Stable ideals with bar list (p, h, k), plus the per-shape split."""
    return _barlist_counts(p, h, k, lambda beta: gf_strict_coefficient(beta, p))


def count_stable_3vars(p: int) -> BarListCensus:
    return _census_3vars(p, STABLE, count_stable_barlist)


def _first_part_window(lam: tuple[int, ...], p: int) -> range:
    """The values a first part of a norm-p array of shifted shape lam can
    take.  The budget M = p - sum of staircase minima caps a_1; the last row
    holds lam[r-1] - r + 1 strictly decreasing positive entries, so
    a_r >= lam[r-1] - r + 1."""
    r = len(lam)
    staircases = [lam[0] - 1] + [lam[j] - j for j in range(1, r)]
    M = p - sum(c * (c + 1) // 2 for c in staircases)
    return range(lam[r - 1] - r + 1, M + 1)


def a_vectors_strongly(lam: tuple[int, ...], p: int) -> list[tuple[int, ...]]:
    """All admissible exact first-part vectors for a shifted shape.

    The parts strictly increase from a_r up to a_1 within
    _first_part_window, so the vectors are the r-subsets of that
    window, listed with a_r varying slowest.  One gf_shifted per vector,
    summed, is the per-vector route to a strongly stable shape count; the
    census takes the same sum as a single Pfaffian
    (gf_shifted_sum_coefficient), and the tests keep this route as a check
    of that identity.  The census reads no window: its Pfaffian runs every
    first part on to p, which adds no array of norm p.
    """
    return [tuple(reversed(c)) for c in combinations(_first_part_window(lam, p), len(lam))]


def count_sstable_barlist(p: int, h: int, k: int) -> tuple[int, tuple[ShapeCount, ...]]:
    """Strongly stable ideals with bar list (p, h, k), plus the per-shape split.

    The ideals of shape alpha are the shifted arrays of norm p whose row i
    holds alpha[i] positive entries, strictly decreasing, with each column
    weakly decreasing downwards: the shifted (1, 0)-plane partitions of shape
    lam = (alpha[i] + i).  Each shape's count is the x^p coefficient of the
    sum of gf_shifted over every first-part vector of the shape's window,
    read as one digit of one Pfaffian (gf_shifted_sum_coefficient), a
    principal sub-Pfaffian of the census-wide matrix.
    """
    return _barlist_counts(p, h, k, lambda alpha: gf_shifted_sum_coefficient(
        [i + part for i, part in enumerate(alpha)], p))


def count_sstable_3vars(p: int) -> BarListCensus:
    return _census_3vars(p, STRONGLY_STABLE, count_sstable_barlist)


def closed_form_shape22(p: int) -> int:
    """Shifted row-strict shape-(2,2) partitions of norm p: floor(((p-1)^2+6)/12)."""
    if p < 1:
        raise ValueError("p must be positive")
    return ((p - 1) ** 2 + 6) // 12


def census(p: int, n: int, kind: str) -> BarListCensus:
    """Dispatch by variable count; the two-variable classes coincide."""
    _check_kind(kind)
    if n == 2:
        return census_2vars(p, kind)
    if n == 3:
        return count_stable_3vars(p) if kind == STABLE else count_sstable_3vars(p)
    raise ValueError("censuses are implemented for 2 and 3 variables")
