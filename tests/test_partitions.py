import gc
import json
import random
from functools import lru_cache
from itertools import combinations

import pytest

from escalier.partitions import (
    PlanePartition,
    _distinct_part_counts,
    SolidPartition,
    count_P,
    count_Q,
    enumerate_distinct,
    enumerate_plane_partitions,
    enumerate_solid_partitions,
    minimal_sum,
    validate,
    validate_solid,
)


def all_distinct_partitions(p):
    """Independent enumeration of distinct-part partitions of p, any length."""
    out = []

    def rec(rem, hi, acc):
        if rem == 0:
            out.append(tuple(acc))
            return
        for v in range(min(hi, rem), 0, -1):
            rec(rem - v, v - 1, acc + [v])

    rec(p, p, [])
    return out


def compositions(norm, parts, least):
    """Every tuple of `parts` integers >= least summing to norm, in descending
    lex order: the points of the box least..norm with that exact sum."""
    free = norm - least * parts
    if free < 0:
        return []
    out = []
    for bars in combinations(range(free + parts - 1), parts - 1):
        cuts = (-1,) + bars + (free + parts - 1,)
        out.append(tuple(b - a - 1 + least for a, b in zip(cuts, cuts[1:])))
    return sorted(out, reverse=True)


def brute_plane_partitions(shape, shifted, c, d, first, last_min, norm, inner=None):
    """The enumerator's contract as a filter: every non-negative filling of
    the shape with this norm that validates, ends row i at >= last_min[i-1]
    and meets the first-part bounds (exact values when shifted)."""
    r = len(shape)
    inner = inner or (0,) * r
    lengths = [shape[i] - (i + 1 if shifted else inner[i] + 1) + 1 for i in range(r)]
    out = []
    for flat in compositions(norm, sum(lengths), 0):
        values = iter(flat)
        rows = tuple(tuple(next(values) for _ in range(n)) for n in lengths)
        if any(row[-1] < m for row, m in zip(rows, last_min)):
            continue
        if first is not None and any(
            row[0] != a if shifted else row[0] > a for row, a in zip(rows, first)
        ):
            continue
        pp = PlanePartition(shape, rows, c, d, shifted, inner)
        if validate(pp):
            out.append(pp)
    return out


def rowwise_distinct_part_counts(p):
    """Q(p, i) for i = 0 up to the largest i with i(i+1)/2 <= p, by the
    route the strided accumulation replaced.

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


@lru_cache(maxsize=None)
def parts_count(n, k):
    """Partitions of n into exactly k parts: remove a part 1, or take 1
    from each of the k parts."""
    if n == k == 0:
        return 1
    if n < k or k < 1:
        return 0
    return parts_count(n - 1, k - 1) + parts_count(n - k, k)


class TestCounts:
    def test_Q_column_matches_the_rowwise_table(self):
        for p in range(0, 301):
            assert _distinct_part_counts(p) == rowwise_distinct_part_counts(p)

    def test_Q_past_the_column_is_zero(self):
        for p in range(1, 60):
            column = _distinct_part_counts(p)
            assert count_Q(p, len(column)) == 0
            assert all(count_Q(p, i) == column[i] for i in range(1, len(column)))

    def test_P_matches_the_parts_recurrence(self):
        # largest part exactly k, by conjugation exactly k parts
        for n in range(0, 61):
            for k in range(0, n + 2):
                assert count_P(n, k) == parts_count(n, k), (n, k)

    def test_P_base_cases(self):
        for n in range(0, 12):
            assert count_P(n, n) == 1
        assert count_P(4, 4) == 1
        assert count_P(9, 2) == 4
        assert count_P(3, 7) == 0
        assert count_P(5, 0) == 0

    def test_Q_values(self):
        assert count_Q(10, 3) == 4
        assert count_Q(10, 4) == 1
        for p in range(1, 30):
            assert count_Q(p, 1) == 1

    def test_Q_matches_enumeration(self):
        for p in range(1, 61):
            for k in range(1, 11):
                assert count_Q(p, k) == len(enumerate_distinct(p, k))

    def test_Q_sums_to_distinct_partition_count(self):
        for p in range(1, 41):
            total = sum(count_Q(p, k) for k in range(1, p + 1))
            assert total == len(all_distinct_partitions(p))


class TestEnumerateDistinct:
    def test_six_in_two(self):
        assert enumerate_distinct(6, 2) == [(5, 1), (4, 2)]

    def test_three_in_two(self):
        assert enumerate_distinct(3, 2) == [(2, 1)]

    def test_staircase_forced(self):
        assert enumerate_distinct(10, 4) == [(4, 3, 2, 1)]

    def test_descending_lex_order(self):
        got = enumerate_distinct(12, 3)
        assert got == sorted(got, reverse=True)
        assert all(a > b > c > 0 for a, b, c in got)

    def test_a_thousand_parts_past_the_recursion_limit(self):
        # each norm admits exactly one partition into 1000 distinct parts
        assert enumerate_distinct(500500, 1000) == [tuple(range(1000, 0, -1))]
        assert enumerate_distinct(500501, 1000) == [(1001, *range(999, 0, -1))]


class TestMinimalSum:
    def test_values(self):
        assert minimal_sum([5, 1]) == 16
        assert minimal_sum([4, 2, 1]) == 14
        assert minimal_sum([1]) == 1

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            minimal_sum([2, 0])


class TestValidate:
    def test_strict_example(self):
        pp = PlanePartition((3, 2), ((5, 4, 3), (4, 1)), c=1, d=1)
        assert validate(pp)

    def test_shifted_example(self):
        pp = PlanePartition((3, 3), ((5, 4, 3), (4, 1)), c=1, d=0, shifted=True)
        assert validate(pp)

    def test_equal_neighbours_fail_strictness(self):
        assert not validate(PlanePartition((2,), ((2, 2),), c=1, d=1))

    def test_ragged_rows_rejected(self):
        with pytest.raises(ValueError):
            PlanePartition((3, 2), ((5, 4, 3), (4,)), c=1, d=1)

    def test_shifted_needs_big_last_row(self):
        with pytest.raises(ValueError):
            PlanePartition((3, 1), ((1, 2, 3), (9,)), c=1, d=0, shifted=True)

    def test_json_roundtrip(self):
        pp = PlanePartition((3, 2), ((5, 4), (4, 1)), c=1, d=1, inner=(1, 0))
        doc = json.loads(json.dumps(pp.to_json()))
        assert PlanePartition.from_json(doc) == pp

    @pytest.mark.parametrize("flag", ["false", "true", 0, 1, None, [True]])
    def test_json_shifted_flag_must_be_boolean(self, flag):
        doc = {"shape": [3, 3], "shifted": flag, "rows": [[3, 2, 1], [2, 1]], "c": 1, "d": 0}
        with pytest.raises(ValueError):
            PlanePartition.from_json(doc)
        doc["shifted"] = True
        assert PlanePartition.from_json(doc).shifted is True


class TestEnumeratePlanePartitions:
    def test_strict_norm_eight(self):
        got = enumerate_plane_partitions((2, 1), False, 1, 1, (4, 3), (1, 1), 8)
        assert [pp.rows for pp in got] == [
            ((4, 3), (1,)), ((4, 2), (2,)), ((4, 1), (3,)),
        ]

    def test_shifted_norm_seventeen(self):
        got = enumerate_plane_partitions((3, 3, 3), True, 1, 0, (6, 3, 1), (1, 1, 1), 17)
        assert len(got) == 3
        assert ((6, 5, 1), (3, 1), (1,)) in [pp.rows for pp in got]

    def test_norm_below_minimum_is_empty(self):
        assert enumerate_plane_partitions((3, 2), False, 1, 1, (9, 8), (1, 1), 3) == []

    def test_outputs_validate_and_match_requests(self):
        for norm in range(1, 15):
            for pp in enumerate_plane_partitions((2, 2), True, 1, 0, None, (1, 1), norm):
                assert validate(pp)
                assert pp.norm == norm
                assert all(v >= 1 for v in pp.flat())

    def test_removing_bounds_grows_output(self):
        bounded = enumerate_plane_partitions((2, 1), False, 1, 1, (4, 3), (1, 1), 8)
        free = enumerate_plane_partitions((2, 1), False, 1, 1, None, (1, 1), 8)
        assert len(free) > len(bounded)
        shifted_bounded = enumerate_plane_partitions(
            (3, 3, 3), True, 1, 0, (6, 3, 1), (1, 1, 1), 17
        )
        shifted_free = enumerate_plane_partitions(
            (3, 3, 3), True, 1, 0, None, (1, 1, 1), 17
        )
        assert len(shifted_free) > len(shifted_bounded)

    def test_leaves_no_reference_cycles(self):
        enabled = gc.isenabled()
        gc.disable()
        try:
            gc.collect()
            enumerate_plane_partitions(
                (3, 2, 1), shifted=False, c=1, d=1, first=None,
                last_min=(1, 1, 1), norm=20,
            )
            assert gc.collect() == 0
        finally:
            if enabled:
                gc.enable()

    def test_descending_flat_order(self):
        got = enumerate_plane_partitions((3, 1), False, 1, 1, None, (1, 1), 12)
        flats = [pp.flat() for pp in got]
        assert flats == sorted(flats, reverse=True)
        assert len(set(flats)) == len(flats)

    def test_skew_shape(self):
        got = enumerate_plane_partitions(
            (3, 2), False, 1, 1, None, (1, 1), 6, inner=(1, 0)
        )
        for pp in got:
            assert len(pp.rows[0]) == 2 and len(pp.rows[1]) == 2
            assert validate(pp)

    def test_matches_brute_force_filter(self):
        cases = [
            ((1,), False, None), ((3,), False, None), ((2, 1), False, None),
            ((2, 2), False, None), ((3, 1), False, None), ((1, 1, 1), False, None),
            ((2,), True, None), ((2, 2), True, None), ((3, 2), True, None),
            ((3, 3), True, None), ((3, 2), False, (1, 0)), ((3, 3), False, (2, 1)),
        ]
        for shape, shifted, inner in cases:
            r = len(shape)
            firsts = (None, tuple(4 - i for i in range(r)), tuple(2 + i for i in range(r)))
            last_mins = ((0,) * r, (1,) * r, tuple(r - i for i in range(r)))
            for c in (0, 1, 2):
                for d in (0, 1):
                    for first in firsts:
                        for last_min in last_mins:
                            for norm in range(8):
                                args = (shape, shifted, c, d, first, last_min, norm, inner)
                                expected = brute_plane_partitions(*args)
                                assert enumerate_plane_partitions(*args) == expected, args

    def test_invalid_shapes_raise_at_every_norm(self):
        # an invalid shape used to raise only when some filling existed
        bad = [
            ((1, 1), True, None),
            ((2, 3), False, None),
            ((3, 3), False, (0, 1)),
            ((3, 2), True, (1, 0)),
            ((3, 2), False, (1,)),
            ((), False, None),
        ]
        for shape, shifted, inner in bad:
            for norm in (0, 1, 3, 5, 40):
                with pytest.raises(ValueError):
                    enumerate_plane_partitions(
                        shape, shifted, 1, 1, None, (1,) * len(shape), norm, inner
                    )

    def test_unshift_gives_strict(self):
        # drop the diagonal offsets of a shifted array: rows keep their values
        for norm in range(3, 14):
            for pp in enumerate_plane_partitions((3, 3), True, 1, 0, None, (1, 1), norm):
                rows = pp.rows
                shape = tuple(len(r) for r in rows)
                unshifted = PlanePartition(shape, rows, c=1, d=1)
                assert validate(unshifted)
                assert unshifted.norm == pp.norm


EX_STRICT_SOLID = SolidPartition(
    "strict",
    (((4, 3, 2, 1), (3, 1), (1,)), ((2, 1), (1,)), ((1,),)),
)
EX_SHIFTED_SOLID = SolidPartition(
    "shifted",
    (((3, 2, 1), (2, 1), (1,)), ((2, 1),)),
)


class TestSolidPartitions:
    def test_strict_paper_example(self):
        assert validate_solid(EX_STRICT_SOLID)
        assert EX_STRICT_SOLID.norm == 4 + 3 + 2 + 1 + 3 + 1 + 1 + 2 + 1 + 1 + 1

    def test_shifted_paper_example(self):
        assert validate_solid(EX_SHIFTED_SOLID)
        assert EX_SHIFTED_SOLID.norm == 3 + 2 + 1 + 2 + 1 + 1 + 2 + 1

    def test_equal_stacked_entries_fail_strict(self):
        sp = SolidPartition("strict", (((2,),), ((2,),)))
        assert not validate_solid(sp)

    def test_equal_stacked_entries_fine_shifted(self):
        sp = SolidPartition("shifted", (((2, 1),), ((1,),)))
        # layer 2 starts at row 2, but layer 1 has only one row: invalid shape
        assert not validate_solid(sp)
        ok = SolidPartition("shifted", (((2, 1), (1,)), ((1,),)))
        assert validate_solid(ok)

    def test_layer_shapes_must_shrink(self):
        sp = SolidPartition("strict", (((2,),), ((3, 1),)))
        assert not validate_solid(sp)

    def test_four_dimensional_strict(self):
        ok = SolidPartition(
            "strict",
            (
                (((4, 2), (2,)), ((1,),)),
                (((1,),),),
            ),
            dimension=4,
        )
        assert validate_solid(ok)
        bad = SolidPartition(
            "strict",
            (
                (((4, 2), (2,)), ((1,),)),
                (((1,),),),
                (((1,),),),
            ),
            dimension=4,
        )
        assert not validate_solid(bad)

    def test_kind_checked(self):
        with pytest.raises(ValueError):
            SolidPartition("other", ((1,),))

    @pytest.mark.parametrize("kind", ["strict", "shifted"])
    def test_high_dimensions_take_polynomial_time(self, kind):
        # each length structure must be checked once: checking each
        # sub-array's again inside its parent's doubles the time per dimension
        layers = (1,)
        for dimension in range(2, 201):
            layers = (layers,)
            if dimension >= 3 and dimension % 50 == 0:
                assert validate_solid(SolidPartition(kind, layers, dimension))
                assert not validate_solid(SolidPartition(kind, (layers, layers), dimension + 1))

    def test_json_roundtrip(self):
        doc = json.loads(json.dumps(EX_SHIFTED_SOLID.to_json()))
        assert SolidPartition.from_json(doc) == EX_SHIFTED_SOLID

    @pytest.mark.parametrize("kind", ["strict", "shifted"])
    def test_single_entry_past_the_recursion_limit(self, kind):
        layers = 1
        for _ in range(1201):
            layers = (layers,)
        solid = SolidPartition(kind, layers, 1201)
        assert validate_solid(solid)
        assert solid.norm == 1
        assert not validate_solid(SolidPartition(kind, (layers, layers), 1202))
        listed, depth = solid.to_json()["layers"], 0
        while type(listed) is list:
            assert len(listed) == 1
            listed, depth = listed[0], depth + 1
        assert (listed, depth) == (1, 1201)

    @pytest.mark.parametrize("kind", ["strict", "shifted"])
    def test_json_roundtrip_at_dimension_200(self, kind):
        layers = (2, 1)
        for _ in range(199):
            layers = (layers,)
        solid = SolidPartition(kind, layers, 200)
        assert validate_solid(solid)
        doc = json.loads(json.dumps(solid.to_json()))
        assert SolidPartition.from_json(doc) == solid

    def test_from_json_refuses_documents_nested_too_deep(self):
        layers = 1
        for _ in range(900):
            layers = [layers]
        doc = {"kind": "strict", "dimension": 900, "layers": layers}
        with pytest.raises(ValueError, match="^JSON input nested deeper than 256 levels$"):
            SolidPartition.from_json(doc)

    def test_norm_reads_every_entry(self):
        # the norm sums entries whatever the validity, and refuses what is
        # not an array of integers
        assert SolidPartition("strict", (((2, 2), ()), ((0,),))).norm == 4
        assert SolidPartition("shifted", ((), ((5,),))).norm == 5
        for layers in ((((1, True),),), ((1,),), ((((1,),),),)):
            with pytest.raises(ValueError):
                SolidPartition("strict", layers).norm

    def test_matches_recursive_reading(self):
        # 100000 seeded arrays near the valid ones, at dimensions 1 to 5
        rng = random.Random(20171)
        seen = {}
        for _ in range(100000):
            dimension, kind = rng.randint(1, 5), rng.choice(("strict", "shifted"))
            layers = random_solid_layers(rng, dimension, kind == "shifted")
            want = recursive_validate_solid(layers, dimension, kind == "strict")
            assert validate_solid(solid_record(kind, layers, dimension)) is want, (kind, layers)
            seen[dimension, kind, want] = seen.get((dimension, kind, want), 0) + 1
        # both answers come up often at every dimension and kind
        assert len(seen) == 20 and min(seen.values()) > 1000, seen


def solid_record(kind, layers, dimension):
    """A SolidPartition record, also below dimension 3, where the constructor
    refuses one but the definitions still read."""
    solid = SolidPartition.__new__(SolidPartition)
    solid.__dict__.update(kind=kind, layers=layers, dimension=dimension)
    return solid


@lru_cache(maxsize=None)
def solid_region(dimension, shifted, bound, weights):
    """The cells of a region that shrinks along every axis, as nested tuples
    of index tuples, and as one tuple from the last cell back.  For the strict
    kind the index sum weighted by a weakly decreasing vector stays below the
    bound; for the shifted kind every index stays at most the bound."""
    if shifted:
        inside = lambda index: index[-1] <= bound
    else:
        inside = lambda index: sum(w * (i - 1) for w, i in zip(weights, index)) < bound
    cells = []

    def level(index):
        i = index[-1] if shifted and index else 1
        items = []
        while inside(index + (i,)):
            items.append(index + (i,))
            i += 1
        if len(index) + 1 == dimension:
            cells.extend(items)
            return tuple(items)
        return tuple(level(sub) for sub in items)

    nested = level(())
    return nested, tuple(sorted(cells, reverse=True))


def random_solid_layers(rng, dimension, shifted):
    """A nested list of the dimension, drawn near the valid arrays: a valid
    array on a solid_region, half the time with one fault in it.

    Each entry exceeds the ones after it by the rule of the kind, plus 0 or 1.
    The faults: an entry one off, 0, negative or a bool; a level cut short,
    emptied or grown by one; a level replaced by an integer; the whole array
    one level too deep or too shallow.
    """
    weights = () if shifted else tuple(sorted((rng.randint(1, 2) for _ in range(dimension)), reverse=True))
    nested, cells = solid_region(dimension, shifted, rng.randint(1, 3), weights)
    value = {}
    extra = rng.getrandbits(len(cells))
    for index in cells:
        v = 1
        for a in range(dimension):
            after = value.get(index[:a] + (index[a] + 1,) + index[a + 1:])
            if after is not None:
                v = max(v, after + (1 if not shifted or a == dimension - 1 else 0))
        value[index] = v + (extra & 1)
        extra >>= 1

    def fill(x):
        return [value[i] if isinstance(i[0], int) else fill(i) for i in x]

    layers = fill(nested)
    if rng.random() < 0.5:
        return layers
    fault = rng.randrange(8)
    if fault == 6:
        return [layers]
    if fault == 7:
        return layers[0] if isinstance(layers[0], list) else 1
    x = layers
    while isinstance(x[0], list) and rng.random() < 0.7:
        x = rng.choice(x)
    if fault < 4:
        k = rng.randrange(len(x))
        if isinstance(x[k], int):
            x[k] = (x[k] + rng.choice((1, -1)), 0, -x[k], True)[fault]
        else:
            x[k] = rng.choice((1, True))
    elif fault == 4:
        del x[rng.randrange(len(x)):]
    else:
        x.append(x[-1] if isinstance(x[-1], int) else [1])
    return layers


# The recursive reading of the definitions, which the library's flat
# validator replaced; kept as its oracle.  It recurses once per nesting level.


def _entries(arr, dim, base, offsets):
    """(index tuple, value) pairs.  With `offsets` each sub-level starts at its
    enclosing index (the shifted diagonal); without, every level starts at 1."""
    if not isinstance(arr, (tuple, list)):
        raise ValueError("partition levels must be sequences")
    if dim == 1:
        for k, v in enumerate(arr):
            if type(v) is not int:
                raise ValueError("partition entries must be integers")
            yield (base + k,), v
        return
    for k, sub in enumerate(arr):
        for idx, v in _entries(sub, dim - 1, base + k if offsets else 1, offsets):
            yield (base + k,) + idx, v


def _length_structure(arr, dim):
    if dim == 2:
        return tuple(len(row) for row in arr)
    return tuple(_length_structure(sub, dim - 1) for sub in arr)


def recursive_validate_solid(arr, dim, strict):
    """Strict along the innermost axis, strict (strict kind) or weak (shifted
    kind) along all outer axes, positive entries, length structure recursively
    valid: the array's entries, then those of its length structure, and so on
    down to one dimension."""
    for d in range(dim, 0, -1):
        if not _valid_entries(arr, d, 1, strict):
            return False
        if d > 1:
            arr = _length_structure(arr, d)
    return True


def _valid_entries(arr, dim, base, strict):
    """Non-empty levels, positive integer entries, and the order along every
    axis.  `base` only matters for the shifted kind's diagonal offsets."""
    if not isinstance(arr, (tuple, list)) or len(arr) == 0:
        return False
    offsets = not strict
    sub_base = (lambda k: base + k) if offsets else (lambda k: 1)
    if dim == 1:
        if any(type(v) is not int or v < 1 for v in arr):
            return False
        return all(a > b for a, b in zip(arr, arr[1:]))
    for k, sub in enumerate(arr):
        if not _valid_entries(sub, dim - 1, sub_base(k), strict):
            return False
    for k in range(len(arr) - 1):
        upper = dict(_entries(arr[k], dim - 1, sub_base(k), offsets))
        for idx, v in _entries(arr[k + 1], dim - 1, sub_base(k + 1), offsets):
            u = upper.get(idx)
            if u is None or u < v or (strict and u == v):
                return False
    return True


def probe_layer_shapes(max_cells):
    """(kind, layer shapes) pairs as the conjecture probe draws them: the
    rows of its plane partitions of norm h <= max_cells."""
    out = []
    for h in range(1, max_cells + 1):
        for k in range(1, h + 1):
            for length in range(1, k + 1):
                for shape in enumerate_distinct(k, length):
                    ones = (1,) * length
                    for pp in enumerate_plane_partitions(shape, False, 1, 1, None, ones, h):
                        out.append(("strict", pp.rows))
                    lam = tuple(i + part for i, part in enumerate(shape))
                    for pp in enumerate_plane_partitions(lam, True, 1, 0, None, ones, h):
                        out.append(("shifted", pp.rows))
    return out


class TestEnumerateSolidPartitions:
    def test_matches_brute_force_filter(self):
        for kind, shape in probe_layer_shapes(7):
            cells = sum(sum(layer) for layer in shape)
            for norm in range(11):
                expected = []
                for flat in compositions(norm, cells, 1):
                    values = iter(flat)
                    layers = tuple(
                        tuple(tuple(next(values) for _ in range(n)) for n in layer)
                        for layer in shape
                    )
                    solid = SolidPartition(kind, layers)
                    if validate_solid(solid):
                        expected.append(solid)
                assert enumerate_solid_partitions(kind, shape, norm) == expected

    def test_kind_checked(self):
        with pytest.raises(ValueError):
            enumerate_solid_partitions("other", ((1,),), 1)
