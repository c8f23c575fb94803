import gc

import pytest

from escalier.counting import (
    STABLE,
    STRONGLY_STABLE,
    ShapeCount,
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
from escalier.partitions import enumerate_plane_partitions, minimal_sum, enumerate_distinct
from escalier.qpolys import gf_shifted


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
        for p in (6, 9, 11):
            assert count_stable_3vars(p, truncate=True).total == count_stable_3vars(
                p, truncate=False
            ).total
            assert census(p, 3, STRONGLY_STABLE, truncate=False) == count_sstable_3vars(p)


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

    def test_never_exceeds_stable(self):
        for p in range(1, 14):
            assert count_sstable_3vars(p).total <= count_stable_3vars(p).total

    def test_matches_determinant_route(self):
        # the per-shape split equals the determinantal generating functions
        # on every bar list, well past the brute-force oracle's p <= 12
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

    def test_json_document(self):
        doc = census(10, 3, STABLE).to_json()
        assert doc["total"] == 29
        assert doc["class"] == "stable"
        assert doc["rows"][4]["bar_list"] == [10, 3, 2]
        assert doc["rows"][4]["subtotal"] == 11
