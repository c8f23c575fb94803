import gc
import math
from collections.abc import Sequence
from functools import cache

import pytest

from escalier import counting, qpolys
from escalier.counting import (
    STABLE,
    STRONGLY_STABLE,
    ShapeCount,
    _is_bar_list,
    a_vector_stable,
    a_vectors_strongly,
    bar_lists_3vars,
    census,
    census_2vars,
    closed_form_shape22,
    count_2vars,
    count_sstable_3vars,
    count_sstable_barlist,
    count_stable_3vars,
    count_stable_barlist,
    max_h_2vars,
)
from escalier.partitions import (
    IntPartition,
    enumerate_distinct,
    enumerate_plane_partitions,
    minimal_sum,
)
from escalier.qpolys import (
    _row_strict_count,
    _shifted_census,
    _strict_census,
    _strict_entries,
    _table_entry,
    gauss_table,
    gf_shifted,
    gf_strict,
)


@cache
def least_minimal_sum(h, k):
    return min(map(minimal_sum, enumerate_distinct(h, k)), default=math.inf)


def is_bar_list_by_shapes(p, h, k):
    """_is_bar_list's oracle: enumerate every shape of h into k distinct
    parts and ask whether one has minimal_sum <= p."""
    return h <= p and least_minimal_sum(h, k) <= p


def bar_lists_by_shapes(p):
    """bar_lists_3vars's oracle: k under the cube bound, h from k(k+1)/2
    while the enumeration predicate holds."""
    out = []
    k = 1
    while k * (k + 1) * (k + 2) <= 6 * p:
        h = k * (k + 1) // 2
        while is_bar_list_by_shapes(p, h, k):
            out.append((p, h, k))
            h += 1
        k += 1
    return out


def untruncated_shape_count(shape, p):
    """Stable count of one shape at norm p, read off the generating
    function computed without truncation."""
    k = len(shape)
    full = gf_strict(shape, (0,) * k, a_vector_stable(shape, p), (1,) * k, 1, 1)
    return full.coefficient(p)


def truncated_shape_count(shape, p):
    """Stable count of one shape at norm p, read off the generating function
    truncated after x^p: the route through gf_strict and det."""
    k = len(shape)
    a = a_vector_stable(shape, p)
    if a[-1] < 1:
        return 0
    return gf_strict(shape, (0,) * k, a, (1,) * k, 1, 1, truncate_at=p).coefficient(p)


def determinant_split(p, h, k):
    """Per-shape strongly stable counts by the determinantal route: one
    gf_shifted per admissible first-part vector, read at x^p."""
    shapes = []
    for alpha in enumerate_distinct(h, k):
        lam = tuple(i + alpha[i] for i in range(k))
        count = sum(
            gf_shifted(lam, a, (1,) * k, 1, 0, truncate_at=p).coefficient(p)
            for a in a_vectors_strongly(lam, p)
        )
        shapes.append(ShapeCount(alpha, count))
    return tuple(shapes)


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


def _arrays(lengths, bounds, norm, memo, shifted):
    """Row-transfer DP: the arrays of norm `norm` whose row i holds
    lengths[i] strictly decreasing positive entries, and whose first row is
    at most bounds entrywise (None: no bound).  Shifted, row i+1 starts one
    column to the right of row i and the columns weakly decrease, so row i
    with its first entry dropped bounds row i+1.  Unshifted, the rows are
    left-justified and the columns strictly decrease, so row i minus one, on
    its first lengths[i+1] cells, bounds row i+1; a row whose bound reaches 0
    leaves no room below it.  Each first row leaves at least the staircase
    minimum of the rows below it; the last row is counted at exact sum."""
    key = (lengths, bounds, norm, shifted)
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
            if shifted:
                under = row[1:rest[0] + 1]
            elif row[rest[0] - 1] > 1:
                under = tuple(v - 1 for v in row[:rest[0]])
            else:
                continue
            got += _arrays(rest, under, norm - sum(row), memo, shifted)
    memo[key] = got
    return got


def dp_split(p, h, k):
    """Per-shape strongly stable counts by the row-transfer DP, an oracle
    that shares no code with the Pfaffian route."""
    memo = {}
    return tuple(
        ShapeCount(alpha, _arrays(alpha, None, p, memo, True))
        for alpha in enumerate_distinct(h, k)
    )


class TestDistinctParts:
    def test_filler_matches_the_recursive_rows(self):
        # strict_rows, the recursive route the cell filler replaced, is
        # enumerate_distinct's oracle: list for list, in the same order
        for p in range(-1, 81):
            for k in range(-1, 14):
                expected = strict_rows(k, None, p, p) if k >= 1 else []
                assert enumerate_distinct(p, k) == expected, (p, k)


class TestTwoVars:
    def test_max_h(self):
        assert max_h_2vars(10) == 4
        assert max_h_2vars(1) == 1
        assert max_h_2vars(2) == 1
        assert max_h_2vars(3) == 2

    def test_count_ten(self):
        assert count_2vars(10) == 10
        row_counts = [r.subtotal for r in census_2vars(10).rows]
        assert row_counts == [1, 4, 4, 1]

    def test_count_hundred(self):
        assert count_2vars(100) == 444793

    def test_count_six(self):
        assert count_2vars(6) == 4

    def test_census_layout(self):
        c = census_2vars(6, STRONGLY_STABLE)
        assert [r.bar_list for r in c.rows] == [(6, 1), (6, 2), (6, 3)]
        assert c.total == 4


class TestBarLists:
    def test_p_ten(self):
        assert bar_lists_3vars(10) == [
            (10, 1, 1), (10, 2, 1), (10, 3, 1), (10, 4, 1),
            (10, 3, 2), (10, 4, 2), (10, 5, 2), (10, 6, 3),
        ]

    def test_p_one(self):
        assert bar_lists_3vars(1) == [(1, 1, 1)]

    def test_infeasible_heights_excluded(self):
        # at p=10, k=2 stops at h=5: both partitions of 6 have staircases over 10
        assert (10, 6, 2) not in bar_lists_3vars(10)
        assert minimal_sum([5, 1]) == 16 > 10
        assert minimal_sum([4, 2]) == 13 > 10

    def test_emitted_lists_are_feasible(self):
        for p in (1, 4, 9, 14, 23):
            for (_, h, k) in bar_lists_3vars(p):
                assert k * (k + 1) // 2 <= h
                assert any(minimal_sum(s) <= p for s in enumerate_distinct(h, k))
        # and every feasible (h, k) is emitted
        least = {
            (h, k): min(minimal_sum(s) for s in enumerate_distinct(h, k))
            for h in range(1, 61)
            for k in range(1, 11)
            if k * (k + 1) // 2 <= h
        }
        for p in range(1, 61):
            feasible = {(p, h, k) for (h, k), m in least.items() if m <= p}
            assert set(bar_lists_3vars(p)) == feasible


    def test_closed_form_matches_the_shapes(self):
        for p in range(1, 81):
            for k in range(13):
                for h in range(p + 6):
                    assert _is_bar_list(p, h, k) == is_bar_list_by_shapes(p, h, k), (p, h, k)

    def test_matches_the_enumeration_predicate(self):
        for p in range(1, 151):
            assert bar_lists_3vars(p) == bar_lists_by_shapes(p), p

    def test_shapes_enumerated_once_per_counted_bar_list(self, monkeypatch):
        # deciding the bar lists enumerates no shape; the census enumerates
        # the shapes of each bar list with k > 1 once, where it counts them
        calls = []
        def counted(h, k):
            calls.append((h, k))
            return enumerate_distinct(h, k)
        monkeypatch.setattr(counting, "enumerate_distinct", counted)
        bars = bar_lists_3vars(100)
        assert calls == []
        count_stable_3vars(100)
        assert calls == [(h, k) for _, h, k in bars if k > 1] and len(calls) == 76


class TestAVectors:
    def test_stable_bounds(self):
        assert a_vector_stable((2, 1), 10) == (8, 7)
        assert a_vector_stable((3, 2), 10) == (4, 3)
        assert a_vector_stable((3, 2, 1), 10) == (3, 2, 1)

    def test_strongly_windows(self):
        vecs = a_vectors_strongly((2, 2), 10)
        assert all(v[1] in range(1, 8) and v[0] in range(v[1] + 1, 9) for v in vecs)
        assert len(vecs) == sum(8 - a2 for a2 in range(1, 8))

    def test_strongly_unique(self):
        assert a_vectors_strongly((3, 3, 3), 10) == [(3, 2, 1)]

    def test_strongly_empty_when_budget_low(self):
        assert a_vectors_strongly((3, 3, 3), 7) == []


class TestStableCensus:
    def test_per_barlist(self):
        assert count_stable_barlist(10, 3, 2)[0] == 11
        assert count_stable_barlist(10, 4, 2)[0] == 6
        assert count_stable_barlist(10, 5, 2)[0] == 1
        assert count_stable_barlist(10, 6, 3)[0] == 1

    def test_k1_delegates_to_distinct_partitions(self):
        total, shapes = count_stable_barlist(10, 3, 1)
        assert total == 4 and shapes[0].shape == (3,)

    def test_infeasible_shape_contributes_zero(self):
        total, shapes = count_stable_barlist(10, 5, 2)
        by_shape = {s.shape: s.count for s in shapes}
        assert by_shape == {(4, 1): 0, (3, 2): 1}

    def test_rejects_unknown_barlist(self):
        for count in (count_stable_barlist, count_sstable_barlist):
            for (p, h, k) in ((10, 6, 2), (10, 11, 1), (10, 3, 0), (0, 1, 1)):
                with pytest.raises(ValueError):
                    count(p, h, k)

    def test_totals(self):
        c = count_stable_3vars(10)
        assert c.total == 29
        assert {r.bar_list: r.subtotal for r in c.rows} == {
            (10, 1, 1): 1, (10, 2, 1): 4, (10, 3, 1): 4, (10, 4, 1): 1,
            (10, 3, 2): 11, (10, 4, 2): 6, (10, 5, 2): 1, (10, 6, 3): 1,
        }
        assert count_stable_3vars(1).total == 1

    def test_truncation_toggle_agrees(self):
        # the census always truncates at x^p; its totals equal those read
        # off the untruncated generating functions
        for p in (6, 9, 11):
            c = count_stable_3vars(p)
            assert c.total == sum(
                row.subtotal if row.bar_list[2] < 2
                else sum(untruncated_shape_count(sc.shape, p) for sc in row.shapes)
                for row in c.rows
            )
            assert census(p, 3, STRONGLY_STABLE) == count_sstable_3vars(p)

    def test_truncated_breakdown_matches_untruncated(self):
        # the census truncates its determinants at x^p; the full generating
        # functions take other packing widths and lengths
        for p in range(1, 41):
            for row in census(p, 3, STABLE).rows:
                if row.bar_list[2] < 2:
                    continue
                for sc in row.shapes:
                    assert sc.count == untruncated_shape_count(sc.shape, p), (p, sc.shape)

    def test_matches_truncated_determinant(self):
        # every shape, against the IntPoly determinant route the packed
        # table replaced, where its width is widest
        for p in list(range(1, 41)) + [60, 80, 100]:
            for row in census(p, 3, STABLE).rows:
                if row.bar_list[2] < 2:
                    continue
                for sc in row.shapes:
                    assert sc.count == truncated_shape_count(sc.shape, p), (p, sc.shape)

    def test_matches_unshifted_row_transfer_dp(self):
        # every shape, against a route that builds no determinant and shares
        # no entry formula with the census; p <= 43 keeps it near two seconds
        memo = {}
        for p in range(1, 44):
            for row in census(p, 3, STABLE).rows:
                if row.bar_list[2] < 2:
                    continue
                for sc in row.shapes:
                    assert sc.count == _arrays(sc.shape, None, p, memo, False), (p, sc.shape)

    def test_closed_form_rows_match_the_strict_entries(self):
        # with first parts p - t, entry (s, t) of gf_strict's matrix is
        # x^(R_s + beta_s t) G(p - s, beta_s - s + t); the general builder
        # gives the same n, k and power on every census shape that fits p,
        # and the census matrix holds (beta_s t, G) on the label of row s
        shapes = 0
        for p in range(1, 61):
            width, table = gauss_table(p)
            _, labels, skew, _, _, _ = _strict_census(p)
            for (_, h, k) in bar_lists_3vars(p):
                if k < 2:
                    continue
                for beta in enumerate_distinct(h, k):
                    if minimal_sum(beta) > p:
                        continue
                    first = [p - t for t in range(k)]
                    rows = _strict_entries(beta, (0,) * k, first, (1,) * k, 1, 1)
                    for s, row in enumerate(rows):
                        base = beta[s] * (beta[s] + 1) // 2 - s * beta[s]
                        assert row == [
                            (base + beta[s] * t, p - s, beta[s] - s + t) for t in range(k)
                        ], (p, beta, s)
                        held = skew[labels[s, beta[s]]][len(labels):len(labels) + k]
                        entries = [_table_entry(table, p - s, beta[s] - s + t) for t in range(k)]
                        assert held == [(beta[s] * t, g) if g else 0
                                        for t, g in enumerate(entries)], (p, beta, s)
                    shapes += 1
        assert shapes == 2628

    def test_census_takes_no_bound_vector_and_no_determinant(self, monkeypatch):
        # every stable shape reads its count from the census-wide matrix
        def refuse(*args):
            raise AssertionError("called")
        monkeypatch.setattr(counting, "a_vector_stable", refuse)
        monkeypatch.setattr(qpolys, "_packed_minor", refuse)
        _strict_census.cache_clear()
        assert count_stable_3vars(40).total == census(40, 3, STABLE).total > 0

    def test_row_powers_leave_the_digit_at_or_below_x_p(self):
        # gf_strict_coefficient reads x^(p - sum of R_s) and refuses a shape
        # that does not strictly decrease, whose R_s can sum below zero;
        # every shape of every bar list at p = 300, hence at every p <= 300,
        # sums to at least 3
        sums = {
            beta: sum(part * (part + 1) // 2 - s * part for s, part in enumerate(beta))
            for (_, h, k) in bar_lists_3vars(300) if k > 1
            for beta in enumerate_distinct(h, k)
        }
        assert (len(sums), min(sums.values())) == (56508, 3)
        assert [beta for beta, total in sums.items() if total == 3] == [(2, 1)]

    def test_shape_counts_stay_below_the_plane_partition_count(self):
        # the bound the packed table's width is sized from: every shape's
        # arrays are row-strict plane partitions of 60
        bound = _row_strict_count(60)
        for kind in (STABLE, STRONGLY_STABLE):
            for row in census(60, 3, kind).rows:
                assert all(0 <= sc.count <= bound for sc in row.shapes), (kind, row.bar_list)


class TestStronglyStableCensus:
    def test_per_barlist(self):
        assert count_sstable_barlist(10, 3, 2)[0] == 7
        assert count_sstable_barlist(10, 4, 2)[0] == 5
        assert count_sstable_barlist(10, 5, 2)[0] == 1
        assert count_sstable_barlist(10, 6, 3)[0] == 1

    def test_totals(self):
        c = count_sstable_3vars(10)
        assert c.total == 24
        assert [r.subtotal for r in c.rows] == [1, 4, 4, 1, 7, 5, 1, 1]
        assert count_sstable_3vars(1).total == 1
        # the determinant route's totals, also in the benchmark's reference
        assert [count_sstable_3vars(p).total for p in (20, 30, 40)] == [425, 5127, 48545]

    def test_large_totals(self):
        # the row-transfer DP's totals; the DP itself needs seconds for them
        assert [count_sstable_3vars(p).total for p in (50, 60, 70)] == [
            388172, 2732870, 17391860]

    def test_matches_row_transfer_dp(self):
        # shape by shape on every bar list, well past the brute-force
        # oracle's p <= 12, against a route that builds no determinant
        for p in range(1, 31):
            for (_, h, k) in bar_lists_3vars(p):
                if k > 1:
                    assert count_sstable_barlist(p, h, k)[1] == dp_split(p, h, k), (p, h, k)

    @pytest.mark.parametrize("alpha, counts", [
        # k = 3: odd order, so the Pfaffian reads 0 without its border row,
        # and a flipped skew form A negates it
        ((3, 2, 1), {10: 1, 20: 49, 30: 445}),
        ((4, 3, 1), {20: 6, 30: 342}),
        # k = 2: a flipped A negates the count
        ((2, 1), {10: 7, 20: 30, 30: 70}),
        ((3, 1), {12: 11, 30: 286}),
        # k = 4: the most rows a shape has at p = 30
        ((4, 3, 2, 1), {20: 1, 30: 87}),
    ])
    def test_pinned_shape_counts(self, alpha, counts):
        # the pinned values are the row-transfer DP's
        for p, count in counts.items():
            _, shapes = count_sstable_barlist(p, sum(alpha), len(alpha))
            by_shape = {sc.shape: sc.count for sc in shapes}
            assert by_shape[alpha] == count == _arrays(alpha, None, p, {}, True), (alpha, p)

    def test_never_exceeds_stable(self):
        for p in range(1, 14):
            assert count_sstable_3vars(p).total <= count_stable_3vars(p).total

    def test_matches_determinant_route(self):
        # the Pfaffian equals the sum of the determinants it stands for,
        # one gf_shifted per first-part vector, on every bar list
        for p in range(1, 25):
            for (_, h, k) in bar_lists_3vars(p):
                if k > 1:
                    assert count_sstable_barlist(p, h, k)[1] == determinant_split(p, h, k)

    def test_leaves_no_reference_cycles(self):
        enabled = gc.isenabled()
        gc.disable()
        try:
            gc.collect()
            enumerate_distinct(30, 4)
            assert gc.collect() == 0
            count_sstable_3vars(30)
            assert gc.collect() == 0
        finally:
            if enabled:
                gc.enable()

    def test_shifted_partitions_unshift_into_strict_ones(self):
        # every shifted array counted for the strong class sits inside the
        # strict family counted for the plain class, bar list by bar list
        for p in range(2, 13):
            for (_, h, k) in bar_lists_3vars(p):
                if k == 1:
                    continue
                strict_flats = set()
                for beta in enumerate_distinct(h, k):
                    for pp in enumerate_plane_partitions(
                        beta, False, 1, 1, None, (1,) * k, p
                    ):
                        strict_flats.add(pp.rows)
                for alpha in enumerate_distinct(h, k):
                    lam = tuple(i + 1 + alpha[i] - 1 for i in range(k))
                    for pp in enumerate_plane_partitions(
                        lam, True, 1, 0, None, (1,) * k, p
                    ):
                        assert pp.rows in strict_flats


class TestCensusMemos:
    def test_each_sub_pfaffian_is_kept_short(self):
        # every memo entry is (q, v), the sub-Pfaffian over x^q, with v cut
        # to the top_of(T) + 1 - q digits its readers can reach; a negative
        # v stays negative, so it does not fill all of them
        for census_of, kind, total in ((_strict_census, STABLE, 9720037),
                                       (_shifted_census, STRONGLY_STABLE, 2732870)):
            census_of.cache_clear()
            assert census(60, 3, kind).total == total
            width, *_, memo, top_of = census_of(60)
            assert len(memo) > 100
            negative = 0
            for rowmask, (q, v) in memo.items():
                assert v == 0 or abs(v).bit_length() <= (top_of(rowmask) + 1 - q) * width, rowmask
                negative += v < 0
            assert negative, kind


class TestClosedForm:
    def test_ten(self):
        assert closed_form_shape22(10) == 7

    def test_matches_census(self):
        # bar list (p, 3, 2) holds the one shape (2, 1), i.e. shifted shape (2, 2)
        for p in range(4, 61):
            assert closed_form_shape22(p) == count_sstable_barlist(p, 3, 2)[0]

    def test_one(self):
        assert closed_form_shape22(1) == 0

    def test_matches_bruteforce(self):
        for p in range(1, 31):
            brute = len(
                enumerate_plane_partitions((2, 2), True, 1, 0, None, (1, 1), p)
            )
            assert closed_form_shape22(p) == brute


class TestDispatch:
    def test_census_2_and_3(self):
        assert census(10, 2, STABLE).total == 10
        assert census(10, 3, STRONGLY_STABLE).total == 24

    def test_rejects_other_arities_and_classes(self):
        with pytest.raises(ValueError):
            census(5, 4, STABLE)
        with pytest.raises(ValueError):
            census(5, 3, "borel")

    @pytest.mark.parametrize("p", [10, 20])
    @pytest.mark.parametrize("kind", [STABLE, STRONGLY_STABLE])
    def test_census_calls_the_barlist_counts_by_name(self, monkeypatch, p, kind):
        # the shared bar-list loop must look the per-class counts up when it
        # runs, so that a rebinding (as the benchmark's tracer does) sees
        # every bar list
        calls = {}
        for name in ("count_stable_barlist", "count_sstable_barlist"):
            def counted(*args, name=name, original=getattr(counting, name)):
                calls[name] = calls.get(name, 0) + 1
                return original(*args)
            monkeypatch.setattr(counting, name, counted)
        census(p, 3, kind)
        used = "count_stable_barlist" if kind == STABLE else "count_sstable_barlist"
        assert calls == {used: len(bar_lists_3vars(p))}

    def test_json_document(self):
        doc = census(10, 3, STABLE).to_json()
        assert doc["total"] == 29
        assert doc["class"] == "stable"
        assert doc["rows"][4]["bar_list"] == [10, 3, 2]
        assert doc["rows"][4]["subtotal"] == 11
