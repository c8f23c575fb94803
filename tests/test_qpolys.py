import gc
import hashlib
import json
import math
import random
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from escalier.counting import a_vector_stable, a_vectors_strongly, bar_lists_3vars
from escalier.partitions import enumerate_distinct, enumerate_plane_partitions
from escalier.qpolys import (
    IntPoly,
    _digit,
    _first_part_window,
    _minor,
    _pack,
    _pfaffian,
    _plane_partition_count,
    _row_bases,
    _shifted_skew,
    _strict_entries,
    _table_entry,
    _unpack,
    det,
    gauss_binomial,
    gauss_table,
    gf_shifted,
    gf_shifted_sum_coefficient,
    gf_strict,
    gf_strict_coefficient,
)


def poly(*coeffs):
    return IntPoly(coeffs)


def add(*polys):
    """The coefficient-wise sum of untruncated polynomials: IntPoly is a
    result type and has no addition."""
    n = max((len(f.coeffs) for f in polys), default=0)
    return IntPoly([sum(f.coefficient(k) for f in polys) for k in range(n)])


def rand_poly(rng, max_deg=3, lo=-4, hi=4):
    return IntPoly([rng.randint(lo, hi) for _ in range(rng.randint(0, max_deg + 1))])


def det_by_permutations(matrix):
    r = len(matrix)
    acc = IntPoly.zero()
    for perm in permutations(range(r)):
        sign = 1
        seen = list(perm)
        for i in range(r):  # count inversions
            for j in range(i + 1, r):
                if seen[i] > seen[j]:
                    sign = -sign
        prod = IntPoly.const(sign)
        for i in range(r):
            prod = prod * matrix[i][perm[i]]
        acc = add(acc, prod)
    return acc


def full_minor(packed, colmask, cache, mask):
    """_minor's oracle: the cofactor expansion with every minor to the full
    precision of mask, on entries packed with their power shifted in."""
    if colmask == 0:
        return 1
    if colmask not in cache:
        r = len(packed)
        entries = packed[r - bin(colmask).count("1")]
        acc, sign = 0, 1
        for col in range(r):
            if colmask >> col & 1:
                if entries[col]:
                    acc += sign * entries[col] * full_minor(packed, colmask & ~(1 << col), cache, mask)
                sign = -sign
        cache[colmask] = acc & mask
    return cache[colmask]


def full_det(rows, top, width):
    """full_minor's determinant of the (e, g) rows that _minor takes."""
    mask = (1 << (top + 1) * width) - 1
    packed = [[(g << e * width) & mask if g else 0 for e, g in row] for row in rows]
    return full_minor(packed, (1 << len(rows)) - 1, {}, mask)


def least_power_sum(rows):
    """The least sum of powers e over the permutations of (e, g) rows whose
    entries are all nonzero, row by row; None if there is no such
    permutation."""
    best = {0: 0}
    for row in rows:
        reached = {}
        for used, total in best.items():
            for col, (e, g) in enumerate(row):
                if g and not used >> col & 1:
                    key = used | 1 << col
                    reached[key] = min(reached.get(key, total + e), total + e)
        best = reached
    return min(best.values(), default=None)


@st.composite
def poly_matrices(draw):
    """Square matrices of up to 4 rows: small and huge coefficients of both
    signs, zero entries, and now and then a row of zeros."""
    r = draw(st.integers(1, 4))
    coeff = st.one_of(st.integers(-4, 4), st.integers(-(2**70), 2**70))
    entry = st.lists(coeff, max_size=4).map(IntPoly)
    rows = [draw(st.lists(entry, min_size=r, max_size=r)) for _ in range(r)]
    if draw(st.integers(0, 4)) == 0:
        rows[draw(st.integers(0, r - 1))] = [IntPoly.zero()] * r
    return rows


def gauss_by_recurrence(n, k, cache={}):
    # q-Pascal: [n,k] = [n-1,k-1] + x^k [n-1,k]
    if k == 0:
        return IntPoly.const(1)
    if k < 0 or n < k:
        return IntPoly.zero()
    if (n, k) not in cache:
        cache[(n, k)] = add(gauss_by_recurrence(n - 1, k - 1),
                            gauss_by_recurrence(n - 1, k).shift(k))
    return cache[(n, k)]


class TestIntPoly:
    def test_basic_arithmetic(self):
        a, b = poly(1, 2), poly(0, 1, 1)
        assert (a * b).coeffs == (0, 1, 3, 2)
        assert (a * poly()).is_zero() and (a * b.truncated(1)).coeffs == (0, 1)

    def test_trailing_zeros_stripped(self):
        assert IntPoly((1, 0, 0)).coeffs == (1,)
        assert add(poly(0, 1), poly(0, -1)).is_zero()

    def test_exact_division(self):
        num = poly(1, 0, -1)  # 1 - x^2
        assert num.exact_div(poly(1, -1)).coeffs == (1, 1)
        with pytest.raises(ValueError):
            poly(1, 1, 1).exact_div(poly(1, -1))

    def test_shift(self):
        assert poly(1, 2).shift(2).coeffs == (0, 0, 1, 2)
        assert poly(0, 0, 5).shift(-2).coeffs == (5,)
        with pytest.raises(ValueError):
            poly(1, 2).shift(-1)

    def test_truncated_arithmetic_is_ring_homomorphic(self):
        rng = random.Random(211)
        for _ in range(200):
            a, b = rand_poly(rng, 6), rand_poly(rng, 6)
            T = rng.randint(0, 8)
            full = a * b
            capped = a.truncated(T) * b.truncated(T)
            assert capped.trunc == T and capped.degree <= T
            for k in range(T + 1):
                assert capped.coefficient(k) == full.coefficient(k)

    def test_json_and_str(self):
        p = poly(0, 1, 0, -2)
        assert p.to_json() == {"coeffs": ["0", "1", "0", "-2"]}
        assert str(p) == "x - 2*x^3"
        assert str(IntPoly.zero()) == "0"


class TestGaussBinomial:
    def test_paper_entries(self):
        m11 = gauss_binomial(5, 2)
        expect = poly(1, 0, 1) * poly(1, 1, 1, 1, 1)  # (x^2+1)(x^4+...+1)
        assert m11 == expect
        assert gauss_binomial(2, 2) == IntPoly.const(1)
        assert gauss_binomial(0, 2).is_zero()

    def test_total_conventions(self):
        assert gauss_binomial(-3, 0) == IntPoly.const(1)
        assert gauss_binomial(-1, 2).is_zero()
        assert gauss_binomial(3, -1).is_zero()

    def test_matches_recurrence(self):
        for n in range(0, 31):
            for k in range(0, n + 1):
                assert gauss_binomial(n, k) == gauss_by_recurrence(n, k)

    def test_evaluates_to_binomial_at_one(self):
        for n in range(0, 31):
            for k in range(0, n + 1):
                assert sum(gauss_binomial(n, k).coeffs) == math.comb(n, k)

    def test_truncation_matches(self):
        for n in range(0, 41):
            for k in range(0, n + 1):
                full = gauss_by_recurrence(n, k)
                for T in (0, 5, 17, k * (n - k)):
                    capped = gauss_binomial(n, k, trunc=T)
                    assert capped.trunc == T and capped.degree <= T
                    for d in range(T + 1):
                        assert capped.coefficient(d) == full.coefficient(d)


class TestGaussTable:
    @pytest.mark.parametrize("top", [0, 1, 2, 7, 30])
    def test_digits_match_gauss_binomial(self, top):
        width, rows = gauss_table(top)
        for n in range(top + 1):
            for k in range(n + 1):
                want = gauss_binomial(n, k, top)
                got = _unpack(_table_entry(rows, n, k), top + 1, width)
                assert got == [want.coefficient(d) for d in range(top + 1)], (n, k)

    def test_total_conventions(self):
        _, rows = gauss_table(7)
        assert _table_entry(rows, -3, 0) == 1
        assert _table_entry(rows, -1, 2) == _table_entry(rows, 3, -1) == 0
        assert _table_entry(rows, 2, 3) == 0

    def test_plane_partition_counts(self):
        # OEIS A000219, and the series prod 1/(1 - x^k)^k up to x^100
        assert [_plane_partition_count(n) for n in range(13)] == [
            1, 1, 3, 6, 13, 24, 48, 86, 160, 282, 500, 859, 1479]
        top = 100
        series = [1] + [0] * top
        for k in range(1, top + 1):
            for _ in range(k):  # times 1/(1 - x^k)
                for j in range(k, top + 1):
                    series[j] += series[j - k]
        assert _plane_partition_count(top) == series[top] == 59206066030052023
        assert [_plane_partition_count(n) for n in (20, 50, 99)] == [
            series[20], series[50], series[99]]

    def test_width_holds_the_plane_partition_count(self):
        for p in (0, 1, 10, 60, 100):
            width, _ = gauss_table(p)
            assert _plane_partition_count(p) < 1 << (width - 1) <= 2 * _plane_partition_count(p)


class TestDigit:
    def test_matches_unpack(self):
        rng = random.Random(307)
        for width in (2, 3, 8, 57):
            half = 1 << (width - 1)
            for _ in range(50):
                digits = [rng.randrange(-half, half) for _ in range(6)]
                value = _pack(digits, width) & ((1 << 6 * width) - 1)
                assert _unpack(value, 6, width) == digits
                for index in range(6):
                    assert _digit(value, index, width) == digits[index], (digits, index)

    def test_borrows_and_signs(self):
        width = 8
        mask = (1 << 3 * width) - 1
        # negative lower digits borrow from the digit read
        assert _digit(_pack([-1, -128, 5], width) & mask, 2, width) == 5
        assert _digit(_pack([-1, 0, 5], width) & mask, 1, width) == 0
        # index 0 reads the lowest digit, negative or not
        assert _digit(_pack([-128, 3], width) & mask, 0, width) == -128
        assert _digit(_pack([127, 3], width) & mask, 0, width) == 127
        # a negative digit read, above negative and positive lower digits
        assert _digit(_pack([-7, 1, -3], width) & mask, 2, width) == -3
        assert _digit(_pack([7, -1, -128], width) & mask, 2, width) == -128
        # every lower digit at its least: together below -2^(index*width - 1)
        assert _digit(_pack([-2, -2, -2, -2, 1], 2) & 1023, 4, 2) == 1


def pack_by_horner(coeffs, width):
    """_pack's oracle: one shift of the whole accumulator per coefficient."""
    acc = 0
    for c in reversed(coeffs):
        acc = (acc << width) + c
    return acc


def unpack_by_digits(value, count, width):
    """_unpack's oracle: one shift of the whole value per digit."""
    half = 1 << (width - 1)
    low = (1 << width) - 1
    out = []
    for _ in range(count):
        digit = value & low
        if digit >= half:
            digit -= low + 1
        out.append(digit)
        value = (value - digit) >> width
    return out


class TestPackUnpack:
    def test_match_the_loops(self):
        rng = random.Random(2311)
        for _ in range(80):
            width = rng.randint(2, 130)
            count = rng.choice((0, 1, 2, 3, rng.randint(0, 3000)))
            half = 1 << (width - 1)
            # digits in range, and coefficients that overflow their width
            digits = [rng.randrange(-half, half) for _ in range(count)]
            wide = [rng.randrange(-4 * half, 4 * half) for _ in range(count)]
            for coeffs in (digits, wide):
                assert _pack(coeffs, width) == pack_by_horner(coeffs, width), (width, count)
            value = pack_by_horner(digits, width)
            assert _unpack(value, count, width) == digits
            for read in (0, count // 2, count + 2):
                assert _unpack(value, read, width) == unpack_by_digits(value, read, width)
                assert _unpack(-value, read, width) == unpack_by_digits(-value, read, width)

    def test_long_list(self):
        rng = random.Random(50000)
        width = 3
        digits = [rng.randrange(-4, 4) for _ in range(50000)]
        value = _pack(digits, width)
        assert value == pack_by_horner(digits, width)
        assert _unpack(value, len(digits), width) == digits
        assert _unpack(value + 12345, 50000, width) == unpack_by_digits(value + 12345, 50000, width)

    def test_empty(self):
        assert _pack([], 5) == 0
        assert _unpack(123, 0, 5) == []


class TestGfStrictCoefficient:
    @pytest.mark.parametrize("shape,first", [
        ((2, 1), (4, 3)), ((2, 2), (5, 4)), ((3, 1), (6, 5)), ((3, 2, 1), (5, 4, 3)),
        ((4, 3, 2), (7, 6, 5)), ((5, 3, 2, 1), (9, 8, 7, 6)),
    ])
    def test_matches_the_truncated_generating_function(self, shape, first):
        r = len(shape)
        for p in range(max(first[t] + t for t in range(r)), 40):
            want = gf_strict(shape, (0,) * r, first, (1,) * r, 1, 1, truncate_at=p)
            assert gf_strict_coefficient(shape, first, p) == want.coefficient(p), (shape, p)

    def test_rejects_bounds_past_the_table(self):
        with pytest.raises(ValueError):
            gf_strict_coefficient((2, 1), (4, 3), 3)

    def test_rejects_too_few_first_parts(self):
        with pytest.raises(ValueError, match="share a length"):
            gf_strict_coefficient((2, 1), (4,), 5)

    def test_rejects_too_many_first_parts(self):
        with pytest.raises(ValueError):
            gf_strict_coefficient((2, 1), (4, 3, 9), 5)

    def test_rejects_row_powers_below_zero(self):
        # repeated parts: the R_s sum to -2, so x^12 would be read for p = 10
        with pytest.raises(ValueError, match=r"shape \(1, 1, 1, 1\)"):
            gf_strict_coefficient((1, 1, 1, 1), (4, 3, 2, 1), 10)


def rand_power_rows(rng, r, width, zero_share):
    """An r x r matrix of x^power g with powers from -4 to 12 and random
    packed g, some zero, factored like _row_bases: (rows of (e, g), the
    powers taken out)."""
    raw = [[(rng.randint(-4, 12), 0 if rng.random() < zero_share
             else rng.getrandbits(width * rng.randint(1, 14)))
            for _ in range(r)] for _ in range(r)]
    bases = [min((power for power, g in row if g), default=0) for row in raw]
    return [[(power - base, g) for power, g in row] for row, base in zip(raw, bases)], sum(bases)


class TestPrunedMinor:
    def test_matches_the_full_precision_expansion(self):
        rng = random.Random(257)
        seen = {"zero": 0, "past_top": 0, "bases_below_zero": 0, "beyond": 0, "nonzero": 0}
        for _ in range(1500):
            r = rng.randint(1, 6)
            width = rng.choice((3, 8, 21))
            rows, taken = rand_power_rows(rng, r, width, rng.choice((0.0, 0.2, 0.5)))
            top = rng.randint(0, 14) - taken  # reading x^T of the unfactored matrix
            if top < 0:
                continue
            got, want = _minor(rows, top, width), full_det(rows, top, width)
            assert _unpack(got, top + 1, width) == _unpack(want, top + 1, width), (rows, top)
            entries = [e for row in rows for e in row]
            seen["zero"] += any(g == 0 for _, g in entries)
            seen["past_top"] += any(g and e > top for e, g in entries)
            seen["bases_below_zero"] += taken < 0
            least = least_power_sum(rows)
            if least is None or least > top:
                seen["beyond"] += 1
                assert got == 0
            seen["nonzero"] += any(_unpack(want, top + 1, width))
        assert min(seen.values()) > 100, seen

    def test_a_matrix_whose_terms_all_lie_past_top(self):
        width = 8
        rows = [[(3, 1), (5, 1)], [(4, 1), (2, 1)]]  # the determinant is x^5 - x^9
        assert _minor(rows, 4, width) == 0 == full_det(rows, 4, width)
        assert _unpack(_minor(rows, 5, width), 6, width) == [0] * 5 + [1]
        assert _minor([[(0, 0), (0, 7)], [(0, 0), (0, 5)]], 3, width) == 0
        assert _minor([[(2, 1)]], 1, width) == 0

    def test_census_shapes_match_the_full_precision_route(self):
        # every stable shape with p <= 60 against its determinant taken with
        # every minor to the full precision, as the census took it before
        shapes, beyond = 0, 0
        for p in range(1, 61):
            width, table = gauss_table(p)
            for (_, h, k) in bar_lists_3vars(p):
                if k < 2:
                    continue
                for beta in enumerate_distinct(h, k):
                    a = a_vector_stable(beta, p)
                    if a[-1] < 1:
                        continue
                    entries = _strict_entries(beta, (0,) * k, a, (1,) * k, 1, 1)
                    bases = _row_bases(entries)
                    top = p - sum(bases)
                    rows = [[(power - base, _table_entry(table, n, kk))
                             if 0 <= power - base <= top else (0, 0) for power, n, kk in row]
                            for row, base in zip(entries, bases)]
                    assert top >= 0
                    want = _digit(full_det(rows, top, width), top, width)
                    assert gf_strict_coefficient(beta, a, p) == want, (p, beta)
                    least = least_power_sum(rows)
                    if least is None or least > top:  # _minor returns 0 at once
                        beyond += 1
                        assert want == 0, (p, beta)
                    shapes += 1
        assert (shapes, beyond) == (3062, 434)


class TestDet:
    def test_identity_and_1x1(self):
        eye = [[IntPoly.const(1 if i == j else 0) for j in range(3)] for i in range(3)]
        assert det(eye) == IntPoly.const(1)
        assert det([[poly(1, 2, 3)]]) == poly(1, 2, 3)

    def test_worked_three_by_three(self):
        m = [
            [gauss_binomial(5, 2), IntPoly.const(1), IntPoly.zero()],
            [gauss_binomial(5, 1), gauss_binomial(2, 1), IntPoly.zero()],
            [IntPoly.const(1), IntPoly.const(1), IntPoly.const(1)],
        ]
        assert det(m) == poly(0, 1, 2, 3, 3, 3, 2, 1)

    def test_against_permutation_sum(self):
        rng = random.Random(223)
        for _ in range(25):
            r = rng.randint(2, 4)
            m = [[rand_poly(rng, 2) for _ in range(r)] for _ in range(r)]
            assert det(m) == det_by_permutations(m)

    def test_row_swap_flips_sign(self):
        rng = random.Random(227)
        for _ in range(20):
            m = [[rand_poly(rng, 2) for _ in range(3)] for _ in range(3)]
            swapped = [m[1], m[0], m[2]]
            assert add(det(swapped), det(m)).is_zero()

    def test_seven_by_seven_matches_permutation_sum(self):
        rng = random.Random(229)
        m = [[rand_poly(rng, 1, -2, 2) for _ in range(7)] for _ in range(7)]
        assert det(m) == det_by_permutations(m)

    def test_truncated_entries(self):
        rng = random.Random(233)
        for _ in range(10):
            m = [[rand_poly(rng, 3) for _ in range(3)] for _ in range(3)]
            full = det(m)
            capped = det([[e.truncated(4) for e in row] for row in m])
            for k in range(5):
                assert capped.coefficient(k) == full.coefficient(k)

    def test_truncation_past_the_degree(self):
        rng = random.Random(241)
        for _ in range(10):
            m = [[rand_poly(rng, 3) for _ in range(3)] for _ in range(3)]
            capped = det([[e.truncated(10**8) for e in row] for row in m])
            assert capped == det(m) and capped.trunc == 10**8
        assert det([[poly(0, 1).truncated(10**8)]]).coeffs == (0, 1)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            det([[IntPoly.const(1), IntPoly.const(2)]])

    def test_sparse_and_truncated_against_permutation_sum(self):
        # zero entries often leave no permutation of nonzero entries
        rng = random.Random(263)
        singular = 0
        for _ in range(120):
            r = rng.randint(1, 6)
            m = [[rand_poly(rng, 3) if rng.random() < 0.45 else IntPoly.zero()
                  for _ in range(r)] for _ in range(r)]
            full = det_by_permutations(m)
            singular += full.is_zero()
            assert det(m) == full
            T = rng.randint(0, 6)
            capped = det([[e.truncated(T) for e in row] for row in m])
            assert capped.coeffs == full.truncated(T).coeffs and capped.trunc == T
        assert singular > 20

    @settings(deadline=None)
    @given(poly_matrices(), st.one_of(st.none(), st.integers(0, 8)))
    def test_matches_permutation_sum(self, m, T):
        full = det_by_permutations(m)
        if T is None:
            got = det(m)
            assert got == full and got.trunc is None
        else:
            got = det([[e.truncated(T) for e in row] for row in m])
            assert got.trunc == T and got.degree <= T
            for k in range(T + 1):
                assert got.coefficient(k) == full.coefficient(k)

    def test_coefficient_equal_to_the_width_bound(self):
        # each determinant has a coefficient equal to the product over rows
        # of the rows' summed coefficient norms, the bound the packing width
        # is sized from: one bit narrower, it would decode as a negative digit
        for k in (0, 1, 2, 7, 63, 64, 65, 200):
            assert det([[IntPoly.const(2**k)]]) == IntPoly.const(2**k)
            capped = det([[IntPoly((0, 2**k), trunc=1)]])
            assert capped == poly(0, 2**k) and capped.trunc == 1
        diagonal = [[IntPoly((0,) * i + (3 + i,)) if i == j else IntPoly.zero()
                     for j in range(4)] for i in range(4)]
        assert det(diagonal) == IntPoly((0,) * 6 + (3 * 4 * 5 * 6,))
        # the odd permutation and the negative entry cancel signs: +15x^3
        assert det([[IntPoly.zero(), poly(0, 3)], [poly(0, 0, -5), IntPoly.zero()]]) == (
            IntPoly((0, 0, 0, 15))
        )
        # several rows at the largest width, one of them untruncated
        big = [[IntPoly.const(2**64, trunc=2), IntPoly.zero()],
               [IntPoly.zero(), IntPoly((0, 0, 2**64 - 1))]]
        assert det(big).coefficient(2) == 2**64 * (2**64 - 1)

    def test_leaves_no_reference_cycles(self):
        rng = random.Random(239)
        m = [[rand_poly(rng, 3) for _ in range(5)] for _ in range(5)]
        enabled = gc.isenabled()
        gc.disable()
        try:
            gc.collect()
            det(m)
            assert gc.collect() == 0
            det([[e.truncated(4) for e in row] for row in m])
            assert gc.collect() == 0
        finally:
            if enabled:
                gc.enable()


def brute_counts(shape, shifted, c, d, first, last, top):
    counts = {}
    for p in range(top + 1):
        counts[p] = len(
            enumerate_plane_partitions(shape, shifted, c, d, first, last, p)
        )
    return counts


def assert_truncation_exact(gf, args, tops):
    """gf(*args, truncate_at=T) holds every coefficient of gf(*args) up to
    x^T, for each T in tops."""
    full = gf(*args)
    for top in tops:
        capped = gf(*args, truncate_at=top)
        assert capped.trunc == top and capped.coeffs == full.truncated(top).coeffs, (args, top)


def truncation_sweep(gf, draw, seed, count):
    """Checks assert_truncation_exact at T = 0, 3, 10, 25 and 10^8 (past
    every degree, where the work stops at the degree bound) on count seeded
    inputs from draw(rng) that gf accepts and whose generating function is
    a polynomial; returns how many were checked."""
    rng = random.Random(seed)
    checked = 0
    for _ in range(count):
        args = draw(rng)
        try:
            gf(*args)
        except ValueError:  # a bound chain fails, or negative norms occur
            continue
        assert_truncation_exact(gf, args, (0, 3, 10, 25, 10**8))
        checked += 1
    return checked


def weakly_decreasing(rng, r, lo, hi):
    return tuple(sorted((rng.randint(lo, hi) for _ in range(r)), reverse=True))


def draw_strict(rng):
    """A skew shape of up to 3 rows, c, d in {0, 1, 2} and b down to -2,
    with bound vectors built to meet both chains."""
    r = rng.randint(1, 3)
    lam = weakly_decreasing(rng, r, 1, 5)
    mu = tuple(min(m, l) for m, l in zip(weakly_decreasing(rng, r, 0, 4), lam))
    c, d = rng.randint(0, 2), rng.randint(0, 2)
    a, b = [rng.randint(0, 6)], [rng.randint(-2, 2)]
    for i in range(r - 1):
        a.append(a[-1] - c * (mu[i] - mu[i + 1]) + (1 - d) - rng.randint(0, 2))
        b.append(b[-1] + c * (lam[i] - lam[i + 1]) + (1 - d) - rng.randint(0, 2))
    return lam, mu, tuple(a), tuple(b), c, d


def draw_shifted(rng):
    """A shifted shape of up to 3 rows, c, d in {0, 1, 2} and b down to -2,
    with bound vectors built to meet both chains."""
    r = rng.randint(1, 3)
    lam = weakly_decreasing(rng, r, r, 7)
    c, d = rng.randint(0, 2), rng.randint(0, 2)
    a, b = [rng.randint(0, 12)], [rng.randint(-2, 2)]
    for i in range(r - 1):
        a.append(a[-1] - c - d - rng.randint(0, 2))
        b.append(b[-1] + c * (lam[i] - lam[i + 1]) + (1 - d) - rng.randint(0, 2))
    return lam, tuple(a), tuple(b), c, d


class TestGfStrict:
    def test_worked_example(self):
        got = gf_strict((2, 1), (0, 0), (4, 3), (1, 1), 1, 1)
        assert got.coeffs == (0, 0, 0, 0, 1, 1, 3, 3, 3, 2, 1)
        assert got.coefficient(8) == 3

    def test_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            gf_strict((2, 1), (0, 0), (3, 5), (1, 1), 1, 1)
        with pytest.raises(ValueError):
            gf_strict((2, 1), (0, 0), (4, 3), (1, 4), 1, 1)
        with pytest.raises(ValueError):
            gf_strict((), (), (), (), 1, 1)
        # both chains hold, but the one entry may be -2, an array of norm -2
        for top in (None, 3):
            with pytest.raises(ValueError, match=r"a=\(8,\), b=\(-2,\) give terms below x\^0"):
                gf_strict((1,), (0,), (8,), (-2,), 0, 0, truncate_at=top)

    @pytest.mark.parametrize(
        "shape,inner,first,last,c,d",
        [
            ((2, 1), (0, 0), (4, 3), (1, 1), 1, 1),
            ((2, 2), (0, 0), (5, 4), (1, 1), 1, 1),
            ((3, 1), (0, 0), (6, 5), (1, 1), 1, 1),
            ((3, 2, 1), (0, 0, 0), (5, 4, 3), (1, 1, 1), 1, 1),
            ((3, 2), (1, 0), (5, 4), (1, 1), 1, 1),
            ((2, 2), (0, 0), (4, 4), (1, 1), 1, 0),
            ((2, 1), (0, 0), (3, 3), (2, 2), 0, 1),
            ((4, 3, 2), (0, 0, 0), (7, 6, 5), (1, 1, 1), 1, 1),
        ],
    )
    def test_coefficients_count_partitions(self, shape, inner, first, last, c, d):
        gf = gf_strict(shape, inner, first, last, c, d)
        top = max(gf.degree, 0) + 2
        counts = brute_counts(shape, False, c, d, first, last, top)
        # brute force needs the inner shape threaded through separately
        if any(inner):
            counts = {
                p: len(
                    enumerate_plane_partitions(
                        shape, False, c, d, first, last, p, inner=inner
                    )
                )
                for p in range(top + 1)
            }
        for p in range(top + 1):
            assert gf.coefficient(p) == counts[p], (p, shape)

    def test_truncation_preserves_target_coefficient(self):
        assert_truncation_exact(
            gf_strict, ((3, 2, 1), (0, 0, 0), (5, 4, 3), (1, 1, 1), 1, 1), (5, 10, 14))
        # the rows' least powers sum below zero, so the determinant is taken
        # past x^T before that power is reapplied
        assert str(gf_strict((3, 3), (2, 2), (2, 2), (1, 1), 1, 1, truncate_at=4)) == "x^3"
        assert str(gf_strict((4, 4), (3, 3), (2, 1), (1, 1), 1, 1, truncate_at=3)) == "x^3"
        assert_truncation_exact(gf_strict, ((3, 3), (2, 2), (2, 2), (1, 1), 1, 1), range(8))
        assert_truncation_exact(gf_strict, ((4, 4), (3, 3), (2, 1), (1, 1), 1, 1), range(8))

    def test_truncation_sweep(self):
        assert truncation_sweep(gf_strict, draw_strict, 241, 1500) > 1000

    @pytest.mark.parametrize("gf,args,degree,digest", [
        # the benchmark's untruncated gf requests
        (gf_shifted, ((8,) * 7, (20, 17, 14, 11, 8, 5, 2), (1,) * 7, 1, 0), 385,
         "1174519d2238a0e1a1c0d49ee8aedd954a2aa27a7505572d2dbe273e2a39f561"),
        (gf_shifted, ((9,) * 8, (24, 21, 18, 15, 12, 9, 6, 3), (1,) * 8, 1, 0), 600,
         "75dd2bfec960c099b46bc3981276c7368b404bcbe8940a444a98c6171db56b8c"),
        (gf_strict, ((7, 6, 5, 4, 3, 2, 1), (0,) * 7, (20, 19, 18, 17, 16, 15, 14), (1,) * 7, 1, 1),
         448, "b23813732bc1337cd693f370285cb57a1589af14f194805d65dd48b1594a303e"),
        # the rows' least powers sum below zero: the answer is x^3
        (gf_strict, ((3, 3), (2, 2), (2, 2), (1, 1), 1, 1), 3,
         "c6202370d4cc2ddc01edfd3e37ade2bd18764d23ce0720ea8ccab1b00aca6828"),
        (gf_strict, ((4, 4), (3, 3), (2, 1), (1, 1), 1, 1), 3,
         "c6202370d4cc2ddc01edfd3e37ade2bd18764d23ce0720ea8ccab1b00aca6828"),
    ])
    def test_gf_answers_keep_their_coefficients(self, gf, args, degree, digest):
        # the coefficients' digest as the benchmark takes it, fixed before
        # minors were cut to their reachable digits
        full = gf(*args)
        text = json.dumps([str(c) for c in full.coeffs], separators=(",", ":"))
        assert (full.degree, hashlib.sha256(text.encode()).hexdigest()) == (degree, digest)
        for top in (0, 10, degree - 1, degree, degree + 1, 10**8):
            assert gf(*args, truncate_at=top).coeffs == full.truncated(top).coeffs, top


class TestGfShifted:
    def test_worked_example(self):
        got = gf_shifted((3, 3, 3), (6, 3, 1), (1, 1, 1), 1, 0)
        assert got.coeffs == (0,) * 15 + (1, 2, 3, 3, 3, 2, 1)
        assert got.coefficient(17) == 3

    def test_monomial_factor_matches_det(self):
        # same instance, wiring the determinant by hand: x^14 * det(M)
        entries = [
            [gauss_binomial(5, 2), gauss_binomial(2, 2), gauss_binomial(0, 2)],
            [gauss_binomial(5, 1), gauss_binomial(2, 1), gauss_binomial(0, 1)],
            [gauss_binomial(5, 0), gauss_binomial(2, 0), gauss_binomial(0, 0)],
        ]
        by_hand = det(entries).shift(14)
        assert gf_shifted((3, 3, 3), (6, 3, 1), (1, 1, 1), 1, 0) == by_hand

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            gf_shifted((3, 3, 3), (6, 6, 1), (1, 1, 1), 1, 0)
        with pytest.raises(ValueError):
            gf_shifted((2, 1), (4, 2), (1, 1), 1, 0)  # shape[r] < r
        for top in (None, 3):  # the one entry is -2
            with pytest.raises(ValueError, match=r"a=\(-2,\), b=\(-2,\) give terms below x\^0"):
                gf_shifted((1,), (-2,), (-2,), 0, 0, truncate_at=top)

    @pytest.mark.parametrize("args", [
        # row 2's one entry is exactly 7 but must be at least 8; the
        # determinant is a nonzero polynomial with every term at x^0 or above
        ((6, 2), (12, 7), (2, 8), 2, 2),
        # row 2's one entry is exactly -3 but must be at least -1; the
        # determinant has terms below x^0
        ((4, 2), (2, -3), (-2, -1), 1, 2),
        # row 1's five entries fall by at least 1 each from 3, to at most -1 < 1
        ((5,), (3,), (1,), 1, 0),
    ])
    def test_a_row_that_admits_no_entries_gives_zero(self, args):
        lam, first, last, c, d = args
        for top in (None, 0, 5, 40):
            got = gf_shifted(*args, truncate_at=top)
            assert got.coeffs == () and got.trunc == top
        assert not any(enumerate_plane_partitions(lam, True, c, d, first, last, p)
                       for p in range(-10, 41))

    @pytest.mark.parametrize(
        "shape,first,last,c,d",
        [
            ((3, 3, 3), (6, 3, 1), (1, 1, 1), 1, 0),
            ((2, 2), (5, 2), (1, 1), 1, 0),
            ((3, 2), (4, 1), (1, 1), 1, 0),
            ((3, 3), (4, 2), (1, 1), 1, 0),
            ((4, 2), (6, 3), (1, 1), 1, 1),
        ],
    )
    def test_coefficients_count_partitions(self, shape, first, last, c, d):
        gf = gf_shifted(shape, first, last, c, d)
        top = max(gf.degree, 0) + 2
        counts = brute_counts(shape, True, c, d, first, last, top)
        for p in range(top + 1):
            assert gf.coefficient(p) == counts[p], (p, shape)

    def test_truncation_preserves_target_coefficient(self):
        assert_truncation_exact(gf_shifted, ((3, 3, 3), (6, 3, 1), (1, 1, 1), 1, 0), (15, 17, 21))
        # negative last-part bounds make the collected power negative
        capped = gf_shifted((6, 6), (9, 7), (-2, -2), 0, 0, truncate_at=10)
        assert str(capped) == "x^7 + 2*x^8 + 5*x^9 + 9*x^10"
        assert_truncation_exact(gf_shifted, ((6, 6), (9, 7), (-2, -2), 0, 0), range(16))

    def test_truncation_sweep(self):
        assert truncation_sweep(gf_shifted, draw_shifted, 251, 1500) > 1000


def skew(upper, size):
    """The skew-symmetric matrix with these entries above the diagonal."""
    m = [[0] * size for _ in range(size)]
    for (i, j), v in upper.items():
        m[i][j], m[j][i] = v, -v
    return m


class TestPfaffian:
    MASK = (1 << 64) - 1

    def test_two_by_two(self):
        for a12 in (0, 1, 7, -3):
            assert _pfaffian(skew({(0, 1): a12}, 2), 0b11, {}, self.MASK) == a12 & self.MASK

    def test_four_by_four(self):
        for a12, a13, a14, a23, a24, a34 in ((2, 3, 5, 7, 11, 13), (1, 5, 0, 0, 5, 1),
                                             (-1, 4, -2, 3, 6, -5)):
            m = skew({(0, 1): a12, (0, 2): a13, (0, 3): a14,
                      (1, 2): a23, (1, 3): a24, (2, 3): a34}, 4)
            want = a12 * a34 - a13 * a24 + a14 * a23
            assert _pfaffian(m, 0b1111, {}, self.MASK) == want & self.MASK
            # a sub-Pfaffian on rows and columns 2 and 4 is their one entry
            assert _pfaffian(m, 0b1010, {}, self.MASK) == a24 & self.MASK
            # odd order: no perfect matching
            assert _pfaffian(m, 0b0111, {}, self.MASK) == 0

    def test_six_by_six_squares_to_det(self):
        # polynomial entries, packed as det packs them; Pf^2 = det
        width, top = 64, 9
        mask = (1 << (top + 1) * width) - 1
        for seed in range(5):
            rng = random.Random(seed)
            upper = {(i, j): rand_poly(rng, 3) for i in range(6) for j in range(i + 1, 6)}
            m = [[IntPoly.zero()] * 6 for _ in range(6)]
            for (i, j), e in upper.items():
                m[i][j], m[j][i] = e, e * IntPoly.const(-1)
            packed = [[_pack(e.coeffs, width) & mask for e in row] for row in m]
            pf = IntPoly(_unpack(_pfaffian(packed, 0b111111, {}, mask), top + 1, width))
            assert pf * pf == det(m), seed


def vector_sum(lam, p, truncate_at):
    """The x^p coefficient of gf_shifted, truncated at truncate_at, summed
    over every first-part vector of the census window."""
    r = len(lam)
    return sum(gf_shifted(lam, a, (1,) * r, 1, 0, truncate_at=truncate_at).coefficient(p)
               for a in a_vectors_strongly(lam, p))


class TestGfShiftedSum:
    # the Pfaffian on the census window of each shape, at every p up to 28
    @pytest.mark.parametrize("lam", [(1,), (3,), (2, 2), (3, 2), (4, 4), (3, 3, 3), (5, 4, 3),
                                     (4, 4, 4, 4), (6, 5, 5, 4)])
    def test_matches_the_vector_sum(self, lam):
        # even and odd order; the window is empty for the least p
        for p in range(29):
            assert gf_shifted_sum_coefficient(lam, p) == vector_sum(lam, p, p), (lam, p)

    @pytest.mark.parametrize("lam", [(3,), (2, 2), (4, 3), (3, 3, 3), (5, 4, 3)])
    def test_coefficients_count_arrays(self, lam):
        for p in range(21):
            brute = enumerate_plane_partitions(lam, True, 1, 0, None, (1,) * len(lam), p)
            assert gf_shifted_sum_coefficient(lam, p) == len(brute), (lam, p)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            gf_shifted_sum_coefficient((), 10)
        with pytest.raises(ValueError):
            gf_shifted_sum_coefficient((2, 1), 10)  # shape[r] < r
        with pytest.raises(ValueError):
            gf_shifted_sum_coefficient((2, 3), 10)

    @pytest.mark.parametrize("lam", [(1,), (4, 4), (3, 3, 3), (5, 4, 3), (6, 5, 5, 4)])
    def test_coefficient_is_the_polynomial_s(self, lam):
        # against the whole generating functions, not truncated at x^p
        for p in (0, 9, 20, 28):
            assert gf_shifted_sum_coefficient(lam, p) == vector_sum(lam, p, None), (lam, p)


def prefix_sum_skew(ms, low, high, p, top):
    """T A T^t by prefix sums, the construction the hockey-stick sums replace:
    with the columns w of the window in descending order and P_s(j) the sum
    of the first j entries of row s, entry (s, u) is
    sum_j T_uj (P_s(j) + P_s(j+1)) - R_s R_u, one product per column."""
    width, table = gauss_table(p)
    mask = (1 << (top + 1) * width) - 1
    rows = [
        [(_table_entry(table, w - 1, m) << w * width) & mask if w <= top else 0
         for w in range(high, low - 1, -1)]
        for m in ms
    ]
    doubled, totals = [], []
    for row in rows:
        prefix, twice = 0, []
        for entry in row:
            twice.append(prefix + prefix + entry)
            prefix += entry
        doubled.append(twice)
        totals.append(prefix)
    r = len(ms)
    size = r + r % 2
    skew = [[0] * size for _ in range(size)]
    for s in range(r):
        for u in range(s + 1, r):
            acc = sum(e * d for e, d in zip(rows[u], doubled[s]))
            skew[s][u] = (acc - totals[s] * totals[u]) & mask
        if size > r:
            skew[s][r] = totals[s] & mask
    return skew


def shifted_rows(lam):
    return [lam[s] - s - 1 for s in range(len(lam))]


class TestHockeyStickEntries:
    def test_match_prefix_sums_on_every_census_shape(self):
        # every strongly stable shape with k >= 2 rows, p <= 40, matrix by
        # matrix; the census reads every entry at its shape's own top
        shapes = 0
        for p in range(1, 41):
            for (_, h, k) in bar_lists_3vars(p):
                if k == 1:
                    continue
                for alpha in enumerate_distinct(h, k):
                    lam = tuple(i + part for i, part in enumerate(alpha))
                    ms = shifted_rows(lam)
                    top = p - sum(m * (m + 1) // 2 for m in ms)
                    if top < 0:
                        continue
                    window = _first_part_window(lam, p)
                    low, high = window.start, window.stop - 1
                    assert _shifted_skew(ms, high, p, top) == prefix_sum_skew(
                        ms, low, high, p, top), (p, alpha)
                    shapes += 1
        assert shapes == 970  # the shapes whose Pfaffian reaches x^p

    @pytest.mark.parametrize("lam", [(1,), (3,), (2, 2), (3, 2), (4, 4), (3, 3, 3), (5, 4, 3),
                                     (4, 4, 4, 4), (6, 5, 5, 4)])
    def test_match_prefix_sums_on_any_window(self, lam):
        # the window of any shape at any p, the only windows the census
        # builds: it starts at m_(r-1) + 1 and ends at or below x^top; the
        # least p leave it empty
        ms = shifted_rows(lam)
        for p in range(41):
            top = p - sum(m * (m + 1) // 2 for m in ms)
            if top < 0:
                continue
            window = _first_part_window(lam, p)
            low, high = window.start, window.stop - 1
            assert low == ms[-1] + 1 and high <= top
            assert _shifted_skew(ms, high, p, top) == prefix_sum_skew(
                ms, low, high, p, top), (lam, p)
