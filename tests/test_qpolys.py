import gc
import hashlib
import json
import math
import random
import re
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from escalier import qpolys
from escalier.counting import (
    STABLE,
    STRONGLY_STABLE,
    _first_part_window,
    a_vector_stable,
    a_vectors_strongly,
    bar_lists_3vars,
    census,
)
from escalier.partitions import enumerate_distinct, enumerate_plane_partitions, minimal_sum
from escalier.qpolys import (
    IntPoly,
    _digit,
    _digit_width,
    _gauss_rows,
    _pack,
    _packed_det,
    _packed_minor,
    _partner_masks,
    _pfaffian,
    _row_bases,
    _row_strict_count,
    _shifted_census,
    _strict_census,
    _strict_entries,
    _unpack,
    det,
    gauss_binomial,
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
    """_packed_minor's oracle: the cofactor expansion with every minor to the
    full precision of mask, on entries packed with their power shifted in."""
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
    """full_minor's determinant of the (e, g) rows that _packed_minor takes."""
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


def row_strict_plane_partitions(n):
    """Every plane partition of n whose rows strictly decrease, by brute
    force: rows of distinct positive parts, each row no longer than the one
    above it and each part at most the one above it."""
    def rows_under(above, most, row=()):
        if row:
            yield row
        if len(row) < len(above):
            high = min(above[len(row)], row[-1] - 1) if row else above[0]
            for part in range(1, min(high, most - sum(row)) + 1):
                yield from rows_under(above, most, row + (part,))

    def arrays(above, left):
        if left == 0:
            yield ()
            return
        for row in rows_under(above, left):
            for rest in arrays(row, left - sum(row)):
                yield (row,) + rest

    return list(arrays((n,) * n, n))


def census_caps(p):
    """The last Gaussian column each census reads at p: M + S for the
    stable one and M + 1 for the strongly stable one, M the largest label
    with M(M+1)/2 <= p and S the largest s with binomial(s + 3, 3) <= p."""
    labels = max(m for m in range(p + 1) if m * (m + 1) // 2 <= p)
    tallest = max((s for s in range(p + 1) if math.comb(s + 3, 3) <= p), default=0)
    return {STABLE: labels + tallest, STRONGLY_STABLE: labels + 1}


def packed_binomial(n, k, p, width):
    """G(n, k) mod x^(p+1) packed at width, from gauss_binomial: the tests'
    oracle for the entries the censuses stream."""
    return _pack(gauss_binomial(n, k, p).coeffs, width) & ((1 << (p + 1) * width) - 1)


class TestGaussTable:
    @pytest.mark.parametrize("top", [0, 1, 2, 7, 30])
    def test_digits_match_gauss_binomial(self, top):
        # every streamed row, one per n <= top, holds G(n, k) for every
        # k <= cap, 0 past n, whether the cap lies below n or past it
        width = _digit_width(_row_strict_count(top))
        for cap in (0, 1, 3, top + 2):
            rows = list(_gauss_rows(top, cap, width))
            assert len(rows) == top + 1
            for n, row in enumerate(rows):
                assert len(row) == cap + 1
                for k in range(cap + 1):
                    want = gauss_binomial(n, k, top)
                    assert row[k] == packed_binomial(n, k, top, width), (n, k)
                    got = _unpack(row[k], top + 1, width)
                    assert got == [want.coefficient(d) for d in range(top + 1)], (n, k)

    def test_total_conventions(self):
        # G(n, 0) = 1 and G(n, k) = 0 for k > n are in the rows, and the
        # stable census holds 0 for the columns b - s + t < 0, which a list
        # index would wrap
        for n, row in enumerate(_gauss_rows(7, 9, 6)):
            assert row[0] == 1 and row[n + 1:] == [0] * (9 - n)
        _strict_census.cache_clear()
        p = 40
        width, labels, skew, _, _, _ = _strict_census(p)
        negative = 0
        for (s, b), i in labels.items():
            for t in range(s + 1):
                held = skew[i][len(labels) + t]
                if b - s + t < 0:
                    assert held == 0, (s, b, t)
                    negative += 1
                else:
                    g = packed_binomial(p - s, b - s + t, p, width)
                    assert held == ((b * t, g) if g else 0), (s, b, t)
        assert negative > 0
        _strict_census.cache_clear()

    def test_row_strict_counts(self):
        # the brute-force enumeration, and the series of the product of
        # 1/(1 - x^i)^ceil(i/2) up to x^100
        want = [1, 1, 2, 4, 7, 12, 21, 34, 56, 90, 143, 223, 348, 532, 811, 1224, 1834]
        assert [_row_strict_count(n) for n in range(17)] == want
        arrays = [row_strict_plane_partitions(n) for n in range(17)]
        assert [len(set(found)) for found in arrays] == [len(found) for found in arrays] == want
        top = 100
        series = [1] + [0] * top
        for i in range(1, top + 1):
            for _ in range((i + 1) // 2):  # times 1/(1 - x^i)
                for j in range(i, top + 1):
                    series[j] += series[j - i]
        assert [_row_strict_count(n) for n in range(top + 1)] == series
        assert all(a <= b for a, b in zip(series, series[1:]))

    def test_width_holds_the_row_strict_count(self):
        # both censuses pack at one width; the stable one has no label at 0
        for p, bits in ((0, 2), (1, 2), (10, 9), (60, 32), (100, 47), (200, 76)):
            censuses = (_shifted_census,) if p == 0 else (_strict_census, _shifted_census)
            for census_of in censuses:
                census_of.cache_clear()
                width = census_of(p)[0]
                census_of.cache_clear()
                assert width == bits
                assert _row_strict_count(p) < 1 << (width - 1) <= 2 * _row_strict_count(p)

    def test_censuses_read_no_column_past_the_cap(self, monkeypatch):
        # the largest column each census reads of the streamed rows at every
        # p <= 60 and at p = 100 is the cap it asks for, M + S for the
        # stable census and M + 1 for the strongly stable one; neither calls
        # gauss_binomial
        caps, read = [], []

        def refuse(*args):
            raise AssertionError("called gauss_binomial")

        class Row(list):
            def __getitem__(self, k):
                read.append(k)
                return super().__getitem__(k)

        def rows(p, cap, width):
            caps.append(cap)
            for row in _gauss_rows(p, cap, width):
                yield Row(row)

        monkeypatch.setattr(qpolys, "_gauss_rows", rows)
        monkeypatch.setattr(qpolys, "gauss_binomial", refuse)
        for p in [*range(1, 61), 100]:
            for kind, census_of in ((STABLE, _strict_census), (STRONGLY_STABLE, _shifted_census)):
                census_of.cache_clear()
                caps.clear()
                read.clear()
                census(p, 3, kind)
                census_of.cache_clear()
                cap = census_caps(p)[kind]
                assert caps in ([], [cap]), (p, kind)
                assert 0 <= min(read, default=0) and max(read, default=0) <= cap, (p, kind)
                if p >= 12:
                    assert caps and max(read) == cap, (p, kind)


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
        ((2, 1), (4, 3)), ((4, 2), (7, 6)), ((3, 1), (6, 5)), ((3, 2, 1), (5, 4, 3)),
        ((4, 3, 2), (7, 6, 5)), ((5, 3, 2, 1), (9, 8, 7, 6)),
    ])
    def test_matches_the_truncated_generating_function(self, shape, first):
        # against gf_strict with first parts p - t, and with the fixed bounds
        # first wherever they are at least a_vector_stable's, so cut no array
        r = len(shape)
        fixed = []
        for p in range(40):
            want = gf_strict(shape, (0,) * r, [p - t for t in range(r)], (1,) * r, 1, 1,
                             truncate_at=p).coefficient(p)
            assert gf_strict_coefficient(shape, p) == want, (shape, p)
            if all(f >= a for f, a in zip(first, a_vector_stable(shape, p))):
                got = gf_strict(shape, (0,) * r, first, (1,) * r, 1, 1, truncate_at=p)
                assert got.coefficient(p) == want, (shape, p)
                fixed.append(want)
        assert max(fixed) >= 3

    def test_rejects_an_empty_shape(self):
        for p in (0, 5):
            with pytest.raises(ValueError, match="lam must have a positive length"):
                gf_strict_coefficient((), p)

    def test_rejects_a_part_below_one(self):
        for shape in ((0,), (2, 0), (3, 1, -1)):
            with pytest.raises(ValueError, match="must strictly decrease"):
                gf_strict_coefficient(shape, 10)

    def test_rejects_row_powers_below_zero(self):
        # repeated parts: the R_s sum to -2, so x^12 would be read for p = 10;
        # every strictly decreasing shape sums to at least 1
        with pytest.raises(ValueError, match=r"shape \(1, 1, 1, 1\)"):
            gf_strict_coefficient((1, 1, 1, 1), 10)

    def test_rejects_a_shape_that_is_not_decreasing(self):
        # gf_strict refuses (1, 2); read anyway, the determinant gives -1.  A
        # weakly decreasing shape has rows the precision rule assumes above
        # it with a larger part, so it is refused too
        with pytest.raises(ValueError):
            gf_strict((1, 2), (0, 0), (4, 3), (1, 1), 1, 1, truncate_at=6)
        for shape in ((1, 2), (2, 2), (5, 3, 3)):
            with pytest.raises(ValueError, match="must strictly decrease"):
                gf_strict_coefficient(shape, 30)

    def test_a_shape_past_p_counts_zero(self):
        # the least array of shape lam has norm minimal_sum(lam); below it no
        # label need be in the matrix, and the generating function agrees
        shapes = 0
        for h in range(1, 16):
            for k in range(1, 5):
                for lam in enumerate_distinct(h, k):
                    for p in range(max(0, minimal_sum(lam) - 3), minimal_sum(lam)):
                        want = gf_strict(lam, (0,) * k, [p - t for t in range(k)], (1,) * k, 1, 1,
                                         truncate_at=p).coefficient(p)
                        assert gf_strict_coefficient(lam, p) == 0 == want, (lam, p)
                    assert gf_strict_coefficient(lam, minimal_sum(lam)) == 1, lam
                    shapes += 1
        assert shapes == 135


def read_as(digit):
    """A stand-in for _pfaffian whose digit at the set's top is digit: what a
    count that overflowed the census width would read."""
    def pfaffian(skew, partners, rowmask, top, memo, top_of, width):
        return (digit << top * width) & (1 << (top + 1) * width) - 1
    return pfaffian


class TestDigitGuard:
    def test_stable_reader_refuses_a_negative_count(self, monkeypatch):
        # the guard reads the count after the sign (-1)^binomial(r, 2)
        for shape, sign in (((3,), 1), ((2, 1), -1), ((3, 2, 1), -1), ((4, 3, 2, 1), 1)):
            monkeypatch.setattr(qpolys, "_pfaffian", read_as(sign))
            assert gf_strict_coefficient(shape, 20) == 1
            monkeypatch.setattr(qpolys, "_pfaffian", read_as(-sign))
            with pytest.raises(ArithmeticError, match=rf"shape {re.escape(str(shape))} at p = 20"):
                gf_strict_coefficient(shape, 20)

    def test_strongly_stable_reader_refuses_a_negative_count(self, monkeypatch):
        for shape in ((3,), (4, 3), (5, 4, 3)):
            monkeypatch.setattr(qpolys, "_pfaffian", read_as(1))
            assert gf_shifted_sum_coefficient(shape, 20) == 1
            monkeypatch.setattr(qpolys, "_pfaffian", read_as(-1))
            with pytest.raises(ArithmeticError, match=rf"shape {re.escape(str(shape))} at p = 20"):
                gf_shifted_sum_coefficient(shape, 20)


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
            got, want = _packed_minor(rows, top, width), full_det(rows, top, width)
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

    def test_sparse_matrices_match_the_full_precision_expansion(self):
        # most entries zero, down to one per row, half the matrices with a
        # planted permutation of nonzero entries: each term's sign comes
        # from the rows the partner walk skips
        rng = random.Random(2929)
        seen = {"zero": 0, "nonzero": 0}
        for _ in range(800):
            r = rng.randint(1, 7)
            width = rng.choice((3, 8, 21))
            rows, taken = rand_power_rows(rng, r, width, rng.choice((0.6, 0.75, 0.9)))
            if rng.random() < 0.5:
                for row, col in zip(rows, rng.sample(range(r), r)):
                    row[col] = (rng.randint(0, 3), rng.getrandbits(width * rng.randint(1, 4)) | 1)
            top = rng.randint(0, 14) - taken
            if top < 0:
                continue
            got, want = _packed_minor(rows, top, width), full_det(rows, top, width)
            digits = _unpack(want, top + 1, width)
            assert _unpack(got, top + 1, width) == digits, (rows, top)
            seen["nonzero" if any(digits) else "zero"] += 1
        assert min(seen.values()) > 50, seen
        # a permutation matrix's determinant is the sign of the permutation
        # times its entries' product
        width, top = 16, 20
        for r in range(1, 6):
            for perm in permutations(range(r)):
                rows = [[(0, 0)] * r for _ in range(r)]
                for s, col in enumerate(perm):
                    rows[s][col] = (s % 3, s + 2)
                digits = [0] * (top + 1)
                sign = (-1) ** sum(a > b for a, b in combinations(perm, 2))
                digits[sum(s % 3 for s in range(r))] = sign * math.prod(range(2, r + 2))
                assert _unpack(full_det(rows, top, width), top + 1, width) == digits, perm
                assert _unpack(_packed_minor(rows, top, width), top + 1, width) == digits, perm

    def test_a_matrix_whose_terms_all_lie_past_top(self):
        width = 8
        rows = [[(3, 1), (5, 1)], [(4, 1), (2, 1)]]  # the determinant is x^5 - x^9
        assert _packed_minor(rows, 4, width) == 0 == full_det(rows, 4, width)
        assert _unpack(_packed_minor(rows, 5, width), 6, width) == [0] * 5 + [1]
        assert _packed_minor([[(0, 0), (0, 7)], [(0, 0), (0, 5)]], 3, width) == 0
        assert _packed_minor([[(2, 1)]], 1, width) == 0

    def test_census_shapes_match_the_full_precision_route(self):
        # every stable shape with p <= 60 against the per-shape route the
        # census took before: a_vector_stable's bounds, one determinant per
        # shape by _packed_minor, and that determinant with every minor to the
        # full precision
        shapes, beyond = 0, 0
        for p in range(1, 61):
            width = _digit_width(_row_strict_count(p))
            for (_, h, k) in bar_lists_3vars(p):
                if k < 2:
                    continue
                for beta in enumerate_distinct(h, k):
                    a = a_vector_stable(beta, p)
                    if a[-1] < 1:  # the old route's zero without a determinant
                        assert gf_strict_coefficient(beta, p) == 0, (p, beta)
                        continue
                    entries = _strict_entries(beta, (0,) * k, a, (1,) * k, 1, 1)
                    bases = _row_bases(entries)
                    top = p - sum(bases)
                    rows = [[(power - base, packed_binomial(n, kk, p, width))
                             if 0 <= power - base <= top else (0, 0) for power, n, kk in row]
                            for row, base in zip(entries, bases)]
                    assert top >= 0
                    want = _digit(full_det(rows, top, width), top, width)
                    assert _digit(_packed_minor(rows, top, width), top, width) == want, (p, beta)
                    assert gf_strict_coefficient(beta, p) == want, (p, beta)
                    least = least_power_sum(rows)
                    if least is None or least > top:  # _packed_minor returns 0 at once
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
        # each determinant has a coefficient equal to the permanent of its
        # entry norms, the bound the packing width is sized from (with one
        # nonzero entry per row, also the product of the rows' summed norms):
        # one bit narrower, it would decode as a negative digit
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


def cofactor_det(rows):
    """_packed_det's oracle: the whole determinant of the (e, poly) rows, by
    cofactor expansion along the rows on exact coefficient lists."""
    r = len(rows)
    cache = {0: [1]}

    def minor(colmask):
        if colmask not in cache:
            row = rows[r - bin(colmask).count("1")]
            acc, sign = [], 1
            for col in range(r):
                if colmask >> col & 1:
                    e, f = row[col]
                    sub = minor(colmask & ~(1 << col)) if f else []
                    acc += [0] * (e + len(f.coeffs) + len(sub) - 1 - len(acc))
                    for i, a in enumerate(f.coeffs):
                        for j, b in enumerate(sub):
                            acc[e + i + j] += sign * a * b
                    sign = -sign
            cache[colmask] = acc
        return cache[colmask]

    return minor((1 << r) - 1)


def entry_norms(rows, top):
    """Each entry's sum of |c| over the degrees that reach x^top, 0 past it."""
    return [[sum(map(abs, f.coeffs[: top + 1 - e])) if e <= top else 0 for e, f in row]
            for row in rows]


def permanent(norms):
    return sum(math.prod(row[col] for row, col in zip(norms, perm))
               for perm in permutations(range(len(norms))))


def packed_widths(monkeypatch):
    """The widths _packed_minor is called with, appended as it is called."""
    widths = []

    def recorded(rows, top, width):
        widths.append(width)
        return _packed_minor(rows, top, width)

    monkeypatch.setattr(qpolys, "_packed_minor", recorded)
    return widths


def rand_entry(rng, e_max=3):
    f = IntPoly([rng.choice((rng.randint(-9, 9), rng.randint(-(2**40), 2**40)))
                 for _ in range(rng.randint(1, 4))])
    return (rng.randint(0, e_max), f)


def width_cases(rng, r):
    """Seeded (e, poly) matrices of r rows: dense, sparse, structurally
    singular (zero permanent, no zero row) and one-permutation supports
    whose one term's coefficient is plus or minus the permanent."""
    zero = (0, IntPoly.zero())
    yield [[rand_entry(rng) for _ in range(r)] for _ in range(r)]
    yield [[rand_entry(rng) if rng.random() < 0.4 else zero for _ in range(r)] for _ in range(r)]
    if r >= 2:  # two rows share one column: Hall's condition fails
        rows = [[rand_entry(rng) for _ in range(r)] for _ in range(r)]
        col = rng.randrange(r)
        for i in rng.sample(range(r), 2):
            rows[i] = [rand_entry(rng) if j == col else zero for j in range(r)]
        yield rows
    # one permutation: after permuting the columns, nonzero only on and above
    # the diagonal, the diagonal single terms whose product is +-2^k or 2^k - 1
    perm = rng.sample(range(r), r)
    k = rng.choice((0, 1, 31, 63, 64))
    diagonal = [1] * r
    diagonal[0] = rng.choice((2**k, 2**k - 1 or 1)) * rng.choice((1, -1))
    rows = [[zero] * r for _ in range(r)]
    for i in range(r):
        rows[i][perm[i]] = (rng.randint(0, 3), IntPoly((0,) * rng.randint(0, 2) + (diagonal[i],)))
        for j in range(i + 1, r):
            rows[i][perm[j]] = rand_entry(rng)
    yield rows


def factored_case(rng, r):
    """Rows (0, A[i][j]) of A = L U, L lower and U upper triangular with
    nonnegative coefficients: the determinant is the product of their
    diagonals, with no negative coefficient, while A's dense terms cancel."""
    lower = [[rand_poly(rng, 2, 0, 3) if j < i else poly(rng.randint(1, 3), 1) if j == i
              else IntPoly.zero() for j in range(r)] for i in range(r)]
    upper = [[rand_poly(rng, 2, 0, 3) if j > i else poly(1, rng.randint(0, 2)) if j == i
              else IntPoly.zero() for j in range(r)] for i in range(r)]
    return [[(0, add(*(lower[i][k] * upper[k][j] for k in range(r)))) for j in range(r)]
            for i in range(r)]


def clipped_top(rows, top):
    """top clipped to the rows' degree bound, as _packed_det clips it."""
    reach = sum(max((e + f.degree for e, f in row if f), default=0) for row in rows)
    return reach if top is None else min(top, reach)


def leibniz_det(matrix):
    """The determinant of an integer matrix, term by term."""
    total = 0
    for perm in permutations(range(len(matrix))):
        inversions = sum(a > b for a, b in combinations(perm, 2))
        total += (-1) ** inversions * math.prod(row[col] for row, col in zip(matrix, perm))
    return total


class TestPackedDetWidth:
    # _packed_det packs at one bit more than the bit length of the permanent
    # of the entry norms, which bounds every coefficient up to x^top, or of
    # the count, the determinant of the entries' sums, where that is less
    # and not negative
    @pytest.mark.parametrize("r", range(1, 8))
    def test_width_is_the_permanent_of_the_entry_norms(self, monkeypatch, r):
        # without sums, as det passes it: det's matrices may have negative
        # coefficients, so they keep exactly the permanent's width
        widths = packed_widths(monkeypatch)
        rng = random.Random(1000 + r)
        kinds = {"zero": 0, "tight": 0}
        for _ in range(6 if r == 7 else 12):
            for rows in width_cases(rng, r):
                whole = cofactor_det(rows)
                for top in (None, 0, 2, 7):
                    got, count = _packed_det(rows, top)
                    assert count is None
                    assert IntPoly(got).coeffs == IntPoly(whole, top).coeffs, (rows, top)
                    norms = entry_norms(rows, clipped_top(rows, top))
                    per = permanent(norms)
                    old = math.prod(map(sum, norms)).bit_length() + 1
                    assert widths.pop() == per.bit_length() + 1 <= old
                    kinds["zero"] += per == 0
                    kinds["tight"] += per > 1 and max(map(abs, got)) == per
                    # det on the same matrix, each x^e folded into its entry
                    matrix = [[f.shift(e).truncated(top) for e, f in row] for row in rows]
                    assert det(matrix).coeffs == IntPoly(whole, top).coeffs
                    folded = [[(0, f) for f in row] for row in matrix]
                    assert widths.pop() == permanent(
                        entry_norms(folded, clipped_top(folded, top))).bit_length() + 1
        assert not widths
        assert kinds["tight"] > 0 and (r == 1 or kinds["zero"] > 0)

    @pytest.mark.parametrize("r", range(1, 6))
    def test_width_is_the_lesser_of_the_permanent_and_the_count(self, monkeypatch, r):
        # sums as the gf route passes them, each entry's value at x = 1; the
        # digits are exact whenever the whole determinant has no negative
        # coefficient, and a negative count falls back to the permanent
        widths = packed_widths(monkeypatch)
        rng = random.Random(1100 + r)
        kinds = {"narrower": 0, "negative": 0}
        for _ in range(12):
            for rows in [*width_cases(rng, r), factored_case(rng, r)]:
                if rng.random() < 0.5:  # nonnegative coefficients
                    rows = [[(e, IntPoly([abs(c) for c in f.coeffs])) for e, f in row]
                            for row in rows]
                whole = cofactor_det(rows)
                sums = [[sum(f.coeffs) for e, f in row] for row in rows]
                for top in (None, 0, 2, 7):
                    got, count = _packed_det(rows, top, sums)
                    assert count == leibniz_det(sums) == sum(whole)
                    per = permanent(entry_norms(rows, clipped_top(rows, top)))
                    bound = per if count < 0 else min(per, count)
                    assert widths.pop() == bound.bit_length() + 1
                    kinds["negative"] += count < 0
                    if min(whole, default=0) >= 0:
                        assert IntPoly(got).coeffs == IntPoly(whole, top).coeffs, (rows, top)
                        kinds["narrower"] += count < per
        assert not widths
        # one row cannot cancel: its count is never below its permanent
        assert r == 1 or kinds["narrower"] > 0 and kinds["negative"] > 0

    def test_a_coefficient_at_the_permanent_decodes_one_bit_above_it(self, monkeypatch):
        # a one-permutation support: the one term's coefficient is -2^64, the
        # permanent of the norms, while the row sums multiply to far more
        widths = packed_widths(monkeypatch)
        zero = (0, IntPoly.zero())
        rows = [[zero, (0, poly(-(2**64))), (0, poly(2**64, 2**64))],
                [zero, zero, (1, poly(0, 1))],
                [(0, poly(1)), (0, poly(5)), (0, poly(7))]]
        got, count = _packed_det(rows, None)
        assert (got, count) == ([0, 0, -(2**64), 0], None)
        assert IntPoly(got).coeffs == IntPoly(cofactor_det(rows)).coeffs
        assert widths == [66]

    def test_zero_permanent_packs_at_one_bit(self, monkeypatch):
        widths = packed_widths(monkeypatch)
        zero = (0, IntPoly.zero())
        # no zero row, but both nonzero entries of rows 0 and 1 share column 0
        rows = [[(0, poly(3, 1)), zero, zero], [(2, poly(-5)), zero, zero],
                [(0, poly(1)), (1, poly(2)), (0, poly(9))]]
        assert _packed_det(rows, None) == ([0] * 5, None)
        # every entry past x^top
        assert _packed_det([[(4, poly(1))]], 3) == ([0, 0, 0, 0], None)
        # a zero count packs at one bit too, whatever the permanent
        rows = [[(0, poly(1)), (0, poly(1))], [(0, poly(1)), (0, poly(1))]]
        assert _packed_det(rows, None, [[1, 1], [1, 1]]) == ([0], 0)
        assert widths == [1, 1, 1]

    def test_widths_on_the_benchmark_matrices(self, monkeypatch):
        # gf-exact's three requests: the permanents' bit lengths are 85, 59
        # and 79, the counts' 56, 42 and 62, so the widths are 57, 43 and 63
        # bits where the permanent gave 86, 60 and 80; the answers' largest
        # coefficients need 51, 36 and 56 bits
        seen = []

        def recorded(rows, top, sums=None):
            got, count = _packed_det(rows, top, sums)
            seen.append((permanent(entry_norms(rows, top)).bit_length(), count))
            return got, count

        monkeypatch.setattr(qpolys, "_packed_det", recorded)
        widths = packed_widths(monkeypatch)
        answers = [
            gf_shifted([9] * 8, [24, 21, 18, 15, 12, 9, 6, 3], [1] * 8, 1, 0),
            gf_shifted([8] * 7, [20, 17, 14, 11, 8, 5, 2], [1] * 7, 1, 0),
            gf_strict([7, 6, 5, 4, 3, 2, 1], [0] * 7, [20, 19, 18, 17, 16, 15, 14], [1] * 7, 1, 1),
        ]
        assert [count for _, count in seen] == [sum(f.coeffs) for f in answers]
        assert [(per, count.bit_length()) for per, count in seen] == [(85, 56), (59, 42), (79, 62)]
        assert widths == [57, 43, 63]
        assert [max(f.coeffs).bit_length() for f in answers] == [51, 36, 56]

    def test_a_single_array_packs_at_two_bits(self, monkeypatch):
        # one array of norm 27, (5 4 3 / 4 3 2 / 3 2 1): the count is 1, its
        # largest coefficient, so the width is 2 bits where the permanent
        # gives 9; one bit narrower, the coefficient reads -1 and the answer
        # is refused, whole or truncated
        widths = packed_widths(monkeypatch)
        args = ((3, 3, 3), (0, 0, 0), (5, 4, 3), (1, 1, 1), 1, 1)
        assert gf_strict(*args) == IntPoly((0,) * 27 + (1,))
        assert widths == [2]
        monkeypatch.setattr(qpolys, "_digit_width", lambda bound: bound.bit_length())
        for top in (None, 27, 30):
            with pytest.raises(ArithmeticError, match=r"^bounds a=\(5, 4, 3\), b=\(1, 1, 1\) read -1 "
                                                      r"arrays of norm 27: a digit overflowed"):
                gf_strict(*args, truncate_at=top)

    def test_whole_digits_must_sum_to_the_count(self, monkeypatch):
        # digits that are all nonnegative but one too large: a whole answer
        # is refused, while a truncated one cannot tell
        real = qpolys._packed_det

        def off_by_one(rows, top, sums=None):
            got, count = real(rows, top, sums)
            return [got[0] + 1, *got[1:]], count

        monkeypatch.setattr(qpolys, "_packed_det", off_by_one)
        args = ((2, 1), (0, 0), (4, 3), (1, 1), 1, 1)
        with pytest.raises(ArithmeticError, match=r"^bounds a=\(4, 3\), b=\(1, 1\) read 15 "
                                                  r"arrays, where the determinant at x = 1 counts 14"):
            gf_strict(*args)
        # the answer starts at x^4 and the least power factored out is 3
        assert gf_strict(*args, truncate_at=9).coeffs == (0, 0, 0, 1, 1, 1, 3, 3, 3, 2)


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


def binomial_sums(entries):
    """Each (power, n, k) entry's G(n, k) at x = 1, total like gauss_binomial."""
    return [[1 if k == 0 else math.comb(n, k) if 0 < k <= n else 0 for _, n, k in row]
            for row in entries]


def shifted_entries(lam, a, b, c, d):
    """gf_shifted's matrix, entry (s, t) as (0, n, k) for G(n, k): k = m_s =
    lam_s - s - 1 (0-based s) and n = (1 - c) m_s + (1 - c - d)(s - t) + a_t - b_s."""
    ms = [part - s - 1 for s, part in enumerate(lam)]
    return [[(0, (1 - c) * m + (1 - c - d) * (s - t) + a[t] - b[s], m) for t in range(len(lam))]
            for s, m in enumerate(ms)]


class TestCountPremise:
    # gf_strict and gf_shifted pack at the count of arrays, the determinant
    # of the entries' binomial sums, which bounds every coefficient only if
    # none is negative: on seeded draws that reach a determinant, each
    # answer counts its arrays at every norm up to a cap, has no negative
    # coefficient, and its coefficients sum to that determinant
    @pytest.mark.parametrize("gf, draw, draws, cap", [
        (gf_strict, draw_strict, 2000, 20),
        (gf_shifted, draw_shifted, 1500, 16),
    ])
    def test_answers_count_their_arrays(self, monkeypatch, gf, draw, draws, cap):
        counts = []
        real = qpolys._packed_det

        def recorded(rows, top, sums=None):
            got, count = real(rows, top, sums)
            counts.append(count)
            return got, count

        monkeypatch.setattr(qpolys, "_packed_det", recorded)
        rng = random.Random(263)
        checked = 0
        for _ in range(draws):
            args = draw(rng)
            counts.clear()
            try:
                answer = gf(*args)
            except ValueError:  # a bound chain fails, or negative norms occur
                continue
            if not counts:  # a shifted row that admits no entries: 0 unasked
                continue
            if gf is gf_strict:
                lam, mu, a, b, c, d = args
                entries = _strict_entries(lam, mu, a, b, c, d)
                arrays = [enumerate_plane_partitions(lam, False, c, d, a, b, p, inner=mu)
                          for p in range(cap + 1)]
            else:
                lam, a, b, c, d = args
                entries = shifted_entries(lam, a, b, c, d)
                arrays = [enumerate_plane_partitions(lam, True, c, d, a, b, p)
                          for p in range(cap + 1)]
            assert [answer.coefficient(p) for p in range(cap + 1)] == list(map(len, arrays)), args
            assert min(answer.coeffs, default=0) >= 0, args
            assert sum(answer.coeffs) == leibniz_det(binomial_sums(entries)) == counts[0], args
            checked += 1
        assert checked > draws // 2


def skew(upper, size):
    """The skew-symmetric matrix with these entries above the diagonal."""
    m = [[0] * size for _ in range(size)]
    for (i, j), v in upper.items():
        m[i][j], m[j][i] = v, -v
    return m


def as_pairs(m):
    """Plain packed entries as _pfaffian's (0, g) pairs, 0 for a zero."""
    return [[(0, g) if g else 0 for g in row] for row in m]


def pfaffian(skew, rowmask, memo, top_of, width):
    """_pfaffian with each row's partners read off skew and the set's own
    top_of."""
    return _pfaffian(skew, _partner_masks(skew), rowmask, top_of(rowmask), memo, top_of, width)


def every_partner_pfaffian(skew, rowmask, memo, top_of, width):
    """_pfaffian's oracle: the walk it replaced, which takes every other row
    of the set as a partner of its lowest row and flips the sign at each,
    zero entry or not.  Its memo keeps each set as _pfaffian's does."""
    low, value = kept_by_every_partner(skew, rowmask, memo, top_of, width)
    if value < 0:
        value += 1 << (top_of(rowmask) + 1 - low) * width
    return value << low * width


def kept_by_every_partner(skew, rowmask, memo, top_of, width):
    if rowmask == 0:
        return 0, 1
    got = memo.get(rowmask)
    if got is not None:
        return got
    top = top_of(rowmask)
    low = top + 1  # acc is the sum over x^low
    acc = 0
    if top >= 0:
        first = rowmask & -rowmask
        rest = rowmask ^ first
        entries = skew[first.bit_length() - 1]
        sign = 1
        left = rest
        while left:
            bit = left & -left
            left ^= bit
            entry = entries[bit.bit_length() - 1]
            if entry and entry[0] <= top:
                e, g = entry
                q, child = kept_by_every_partner(skew, rest ^ bit, memo, top_of, width)
                power = e + q
                if child and power <= top:
                    if power < low:
                        acc <<= (low - power) * width
                        low = power
                    term = qpolys._low_product(g, child, power - low, top - low, width)
                    acc = acc + term if sign > 0 else acc - term
            sign = -sign
    memo[rowmask] = kept = (low, qpolys._cut(acc, (top + 1 - low) * width)) if acc else (0, 0)
    return kept


class TestPfaffian:
    MASK = (1 << 64) - 1

    @staticmethod
    def pf(m, rowmask):
        # one 64-bit digit, every row at the same precision
        return pfaffian(as_pairs(m), rowmask, {}, lambda rows: 0, 64)

    def test_two_by_two(self):
        for a12 in (0, 1, 7, -3):
            assert self.pf(skew({(0, 1): a12}, 2), 0b11) == a12 & self.MASK

    def test_four_by_four(self):
        for a12, a13, a14, a23, a24, a34 in ((2, 3, 5, 7, 11, 13), (1, 5, 0, 0, 5, 1),
                                             (-1, 4, -2, 3, 6, -5)):
            m = skew({(0, 1): a12, (0, 2): a13, (0, 3): a14,
                      (1, 2): a23, (1, 3): a24, (2, 3): a34}, 4)
            want = a12 * a34 - a13 * a24 + a14 * a23
            assert self.pf(m, 0b1111) == want & self.MASK
            # a sub-Pfaffian on rows and columns 2 and 4 is their one entry
            assert self.pf(m, 0b1010) == a24 & self.MASK
            # odd order: no perfect matching
            assert self.pf(m, 0b0111) == 0

    def test_a_set_whose_top_lies_below_x0_is_zero(self):
        m = as_pairs(skew({(0, 1): 2, (0, 2): 3, (0, 3): 5, (1, 2): 7, (1, 3): 11, (2, 3): 13}, 4))
        for top in (-1, -2, -5):
            memo = {}
            assert pfaffian(m, 0b1111, memo, lambda rows: top, 64) == 0
            assert set(memo.values()) == {(0, 0)}

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
            packed = as_pairs([[_pack(e.coeffs, width) & mask for e in row] for row in m])
            pf = IntPoly(_unpack(pfaffian(packed, 0b111111, {}, lambda rows: top, width),
                                 top + 1, width))
            assert pf * pf == det(m), seed

    def test_rows_with_costs_keep_each_set_at_its_own_precision(self):
        # one memo over the sets of a 6 x 6 matrix, row i costing costs[i]:
        # every set's Pfaffian holds the digits up to x^(t - its costs), read
        # in any order, with each entry x^e g kept only as far as the costs
        # allow and g cut to the digits that survive x^e
        width, t = 64, 12
        costs = [3, 0, 2, 1, 4, 0]
        for seed in range(5):
            rng = random.Random(seed)
            full = [[IntPoly.zero()] * 6 for _ in range(6)]
            packed = [[0] * 6 for _ in range(6)]
            for i in range(6):
                for j in range(i + 1, 6):
                    e, g = rng.randint(0, 3), rand_poly(rng, 6)
                    entry = g.shift(e)
                    full[i][j], full[j][i] = entry, entry * IntPoly.const(-1)
                    keep = t - costs[i] - costs[j] - e
                    if g and keep >= 0:
                        packed[i][j] = (e, _pack(g.coeffs[:keep + 1], width))
            memo = {}
            sets = [s for s in range(1, 64) if bin(s).count("1") % 2 == 0]
            rng.shuffle(sets)
            def top_of(rows):
                return t - sum(costs[i] for i in range(6) if rows >> i & 1)
            for rows in sets:
                top = top_of(rows)
                got = pfaffian(packed, rows, memo, top_of, width)
                index = [i for i in range(6) if rows >> i & 1]
                sub = [[full[i][j] for j in index] for i in index]
                pf = pfaffian_by_expansion(sub)
                assert _unpack(got, top + 1, width) == [pf.coefficient(k) for k in range(top + 1)]
                assert pf * pf == det(sub)

    def test_matches_the_every_partner_walk(self):
        # seeded sparse skew matrices of 1 to 10 rows, some rows with no
        # nonzero partner and some entries past their sets' tops, rows
        # costing as the census rules do: every value and every memo entry
        # of the partner walk equals the every-partner walk's
        rng = random.Random(29)
        sizes = set()
        seen = {"no_partner": 0, "past_top": 0, "zero": 0, "nonzero": 0}
        for _ in range(300):
            size = rng.randint(1, 10)
            width = rng.choice((3, 8, 21))
            zero_share = rng.choice((0.2, 0.5, 0.8))
            skew = [[0] * size for _ in range(size)]
            for i in range(size):
                for j in range(i + 1, size):
                    if rng.random() >= zero_share:
                        skew[i][j] = (rng.randint(0, 6), rng.getrandbits(width * rng.randint(1, 6)) | 1)
            if rng.random() < 0.5:  # a row with no partner, and now and then its column too
                lone = rng.randrange(size)
                skew[lone] = [0] * size
                if rng.random() < 0.5:
                    for row in skew:
                        row[lone] = 0
            costs = [rng.randint(0, 3) for _ in range(size)]
            t = rng.randint(0, 12)

            def top_of(rows):
                return t - sum(costs[i] for i in range(size) if rows >> i & 1)

            partners = _partner_masks(skew)
            masks = list(range(1, 1 << size))
            rng.shuffle(masks)
            memo, oracle_memo = {}, {}
            for rowmask in masks[:40] + [(1 << size) - 1]:
                top = top_of(rowmask)
                got = _pfaffian(skew, partners, rowmask, top, memo, top_of, width)
                assert got == every_partner_pfaffian(skew, rowmask, oracle_memo, top_of, width)
                seen["nonzero" if got else "zero"] += 1
            assert memo == oracle_memo
            sizes.add(size)
            seen["no_partner"] += any(not m for m in partners[:-1])
            seen["past_top"] += any(row[j] and row[j][0] > top_of(1 << i | 1 << j)
                                    for i, row in enumerate(skew) for j in range(size))
        assert sizes == set(range(1, 11))
        assert min(seen.values()) > 50, seen

    def test_bipartite_matrix_gives_the_determinant(self):
        # the Pfaffian of [[0, D], [-D^t, 0]] is (-1)^binomial(r, 2) det D,
        # on (e, g) entries at one precision, against the full-precision
        # expansion of the determinant
        rng = random.Random(27)
        seen = {"zero": 0, "nonzero": 0}
        for _ in range(300):
            r = rng.randint(1, 6)
            width = rng.choice((3, 8, 21))
            rows, _ = rand_power_rows(rng, r, width, rng.choice((0.0, 0.2, 0.5)))
            top = rng.randint(0, 14)
            bipartite = [[0] * (2 * r) for _ in range(2 * r)]
            for i, row in enumerate(rows):
                bipartite[i][r:] = [(e, g) if g else 0 for e, g in row]
            got = pfaffian(bipartite, (1 << 2 * r) - 1, {}, lambda mask: top, width)
            want = (-1) ** (r * (r - 1) // 2) * full_det(rows, top, width)
            digits = _unpack(want, top + 1, width)
            assert _unpack(got, top + 1, width) == digits, (rows, top)
            seen["nonzero" if any(digits) else "zero"] += 1
        assert min(seen.values()) > 50, seen


def pfaffian_by_expansion(m):
    """The Pfaffian of a skew matrix of IntPoly entries, along the first row."""
    r = len(m)
    if r == 0:
        return IntPoly.const(1)
    acc = IntPoly.zero()
    for j in range(1, r):
        rest = [i for i in range(1, r) if i != j]
        term = m[0][j] * pfaffian_by_expansion([[m[a][b] for b in rest] for a in rest])
        acc = add(acc, term if j % 2 else term * IntPoly.const(-1))
    return acc


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
    width = _digit_width(_row_strict_count(p))
    mask = (1 << (top + 1) * width) - 1
    rows = [
        [(packed_binomial(w - 1, m, p, width) << w * width) & mask if w <= top else 0
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


def shape_pfaffian(skew, p, top):
    """The digit at x^top of the Pfaffian of one shape's own matrix, every
    sub-Pfaffian at that one precision: the per-shape route."""
    width = _digit_width(_row_strict_count(p))
    full = (1 << len(skew)) - 1
    return _digit(pfaffian(as_pairs(skew), full, {}, lambda rows: top, width), top, width)


def shifted_rows(lam):
    return [lam[s] - s - 1 for s in range(len(lam))]


def census_submatrix(ms, p, top):
    """The principal submatrix of _shifted_census(p)'s matrix on a shape's
    labels, with the border for odd r, reduced mod x^(top+1)."""
    width, skew, _, _, _ = _shifted_census(p)
    border = len(skew) - 1
    index = [border - 1 - m for m in ms] + [border] * (len(ms) % 2)
    mask = (1 << (top + 1) * width) - 1
    return [[(skew[i][j][1] << skew[i][j][0] * width) & mask if skew[i][j] else 0
             for j in index] for i in index]


def census_shapes(p):
    """Every strongly stable census shape with k >= 2 rows at p, as lam."""
    for (_, h, k) in bar_lists_3vars(p):
        if k > 1:
            for alpha in enumerate_distinct(h, k):
                yield tuple(i + part for i, part in enumerate(alpha))


class TestHockeyStickEntries:
    def test_match_prefix_sums_on_every_census_shape(self):
        # every strongly stable shape with k >= 2 rows, p <= 40, matrix by
        # matrix: the census matrix, cut to the shape's top, is the shape's
        # T A T^t over the first parts m_(r-1) + 1, ..., p
        shapes = 0
        for p in range(1, 41):
            for lam in census_shapes(p):
                ms = shifted_rows(lam)
                top = p - sum(m * (m + 1) // 2 for m in ms)
                if top < 0:
                    continue
                assert census_submatrix(ms, p, top) == prefix_sum_skew(
                    ms, ms[-1] + 1, p, p, top), (p, lam)
                shapes += 1
        assert shapes == 970  # the shapes whose Pfaffian reaches x^p

    @pytest.mark.parametrize("lam", [(1,), (3,), (2, 2), (3, 2), (4, 4), (3, 3, 3), (5, 4, 3),
                                     (4, 4, 4, 4), (6, 5, 5, 4)])
    def test_match_prefix_sums_on_any_window(self, lam):
        # at any p, every window that starts at m_(r-1) + 1 and ends between
        # the end of the shape's first-part window and p reads the same
        # count, and the one that ends at p is the census matrix's; the
        # least p leave the first-part window empty
        ms = shifted_rows(lam)
        for p in range(41):
            top = p - sum(m * (m + 1) // 2 for m in ms)
            if top < 0:
                continue
            window = _first_part_window(lam, p)
            low = ms[-1] + 1
            assert window.start == low and window.stop - 1 <= top
            counts = {shape_pfaffian(prefix_sum_skew(ms, low, high, p, top), p, top)
                      for high in range(window.stop - 1, p + 1)}
            assert counts == {gf_shifted_sum_coefficient(lam, p)}, (lam, p)
            assert census_submatrix(ms, p, top) == prefix_sum_skew(ms, low, p, p, top), (lam, p)

    def test_census_matches_the_per_shape_pfaffian(self):
        # every census shape with k >= 2 rows and p <= 60 against its own
        # Pfaffian over the first-part window, which ends at p less the
        # staircase minima: so running every window on to p changes no count
        shapes = 0
        for p in range(1, 61):
            for lam in census_shapes(p):
                ms = shifted_rows(lam)
                top = p - sum(m * (m + 1) // 2 for m in ms)
                want = 0
                if top >= 0:
                    window = _first_part_window(lam, p)
                    skew = prefix_sum_skew(ms, window.start, window.stop - 1, p, top)
                    want = shape_pfaffian(skew, p, top)
                assert gf_shifted_sum_coefficient(lam, p) == want, (p, lam)
                shapes += 1
        assert shapes == 3814

    def test_memo_does_not_depend_on_call_order(self):
        # the memo of one p filled backwards, then rebuilt after a call at
        # another p, against counts from a cleared cache
        p = 60
        shapes = list(census_shapes(p))
        _shifted_census.cache_clear()
        fresh = [gf_shifted_sum_coefficient(lam, p) for lam in shapes]
        _shifted_census.cache_clear()
        backward = [gf_shifted_sum_coefficient(lam, p) for lam in reversed(shapes)][::-1]
        assert gf_shifted_sum_coefficient((4, 4), 28) == vector_sum((4, 4), 28, 28)
        again = [gf_shifted_sum_coefficient(lam, p) for lam in shapes]
        assert backward == fresh == again and any(fresh)


def stable_census_shapes(p):
    """Every stable census shape with k >= 2 rows at p."""
    for (_, h, k) in bar_lists_3vars(p):
        if k > 1:
            yield from enumerate_distinct(h, k)


class TestStrictCensus:
    def test_labels_are_the_rows_of_the_shapes_that_fit(self):
        # the matrix holds a label (s, b) exactly when some strictly
        # decreasing shape whose least array fits p has b in row s
        for p in range(1, 41):
            _, rows, _, _, _, _ = _strict_census(p)
            want = {(s, part) for h in range(1, p + 1) for k in range(1, h + 1)
                    for lam in enumerate_distinct(h, k) if minimal_sum(lam) <= p
                    for s, part in enumerate(lam)}
            assert set(rows) == want, p
            assert list(rows.values()) == list(range(len(rows)))
            assert [s for s, _ in rows] == sorted(s for s, _ in rows)

    def test_tops_hold_every_digit_a_shape_reads(self):
        # walking each shape's expansion, set by set, the digit each set is
        # read to is at most its top_of; some sets' tops fall below their
        # parent's
        p = 60
        _, rows, skew, _, _, top_of = _strict_census(p)
        falls, reads = 0, 0
        for beta in stable_census_shapes(p):
            if minimal_sum(beta) > p:
                continue
            r = len(beta)
            root = sum(1 << rows[s, part] for s, part in enumerate(beta))
            root |= ((1 << r) - 1) << len(rows)
            level = {root: top_of(root)}  # set: the last digit any path reads
            while level:
                below = {}
                for rowmask, read in level.items():
                    assert read <= top_of(rowmask), (beta, rowmask)
                    low = rowmask & -rowmask
                    entries = skew[low.bit_length() - 1]
                    for j in range(len(rows), len(skew)):
                        if rowmask >> j & 1 and entries[j] and read >= entries[j][0]:
                            child = rowmask ^ low ^ 1 << j
                            if child:
                                below[child] = max(below.get(child, -1), read - entries[j][0])
                                falls += top_of(child) < top_of(rowmask)
                                reads += 1
                level = below
        assert falls > 0 and reads > 1000, (falls, reads)

    def test_memo_does_not_depend_on_call_order(self):
        # the memo of one p filled backwards, then rebuilt after a call at
        # another p, against counts from a cleared cache
        p = 60
        shapes = list(stable_census_shapes(p))
        _strict_census.cache_clear()
        fresh = [gf_strict_coefficient(beta, p) for beta in shapes]
        _strict_census.cache_clear()
        backward = [gf_strict_coefficient(beta, p) for beta in reversed(shapes)][::-1]
        assert gf_strict_coefficient((3, 1), 10) == 6
        again = [gf_strict_coefficient(beta, p) for beta in shapes]
        assert backward == fresh == again and any(fresh)



def strict_top_oracle(p):
    """_strict_census(p)'s precision rule in the form it was first written:
    the costs of every label zipped against the set's bits, and the list of
    the columns the rows above took."""
    _, rows, _, _, _, _ = _strict_census(p)
    labels = list(rows)
    costs = [b * (b + 1) // 2 - s * b for s, b in labels]

    def top_of(rowmask):
        labelmask = rowmask & (1 << len(labels)) - 1
        s0, b0 = labels[(labelmask & -labelmask).bit_length() - 1]
        r = s0 + labelmask.bit_count()
        taken = [c for c in range(r) if not rowmask >> len(labels) + c & 1]
        top = p - sum(cost for cost, bit in zip(costs, bin(labelmask)[:1:-1]) if bit == "1")
        return top - sum((b0 + s0 - u + 1) * (b0 + s0 - u) // 2 + (b0 + s0 - u) * (c - u)
                         for u, c in enumerate(taken))

    return top_of


def shifted_top_oracle(p):
    """_shifted_census(p)'s precision rule in the form it was first written."""
    labels = range((math.isqrt(8 * p + 1) - 1) // 2, -1, -1)
    costs = [m * (m + 1) // 2 for m in labels] + [0]
    return lambda rowmask: p - sum(cost for cost, bit in zip(costs, bin(rowmask)[:1:-1])
                                   if bit == "1")


def shape_sets(kind, p):
    """The row set each census shape with k >= 2 rows reads its count from
    at p, for the shapes that reach a digit: the root of its expansion."""
    if kind == STABLE:
        _, rows, _, _, _, _ = _strict_census(p)
        for beta in stable_census_shapes(p):
            if minimal_sum(beta) <= p:
                r = len(beta)
                yield sum(1 << rows[s, part] for s, part in enumerate(beta)) | ((1 << r) - 1) << len(rows)
        return
    _, skew, _, _, _ = _shifted_census(p)
    border = len(skew) - 1
    for lam in census_shapes(p):
        ms = shifted_rows(lam)
        if sum(m * (m + 1) // 2 for m in ms) <= p:
            yield sum(1 << border - 1 - m for m in ms) | (len(ms) % 2) << border


class TestCensusPrecisionRules:
    @pytest.mark.parametrize("kind, census_of, oracle_of, sets", [
        (STABLE, _strict_census, strict_top_oracle, 5204),
        (STRONGLY_STABLE, _shifted_census, shifted_top_oracle, 3816),
    ])
    def test_match_the_first_form_on_every_memo_entry(self, kind, census_of, oracle_of, sets):
        # after a full census at each p <= 60, every row set its memo holds,
        # and every shape's own set, which the stable memo drops, has the
        # top_of of the comprehension form
        held, roots = 0, 0
        for p in range(1, 61):
            census_of.cache_clear()
            census(p, 3, kind)
            *_, memo, top_of = census_of(p)
            oracle = oracle_of(p)
            for rowmask in memo:
                assert top_of(rowmask) == oracle(rowmask), (p, rowmask)
            for rowmask in shape_sets(kind, p):
                assert top_of(rowmask) == oracle(rowmask), (p, rowmask)
                roots += 1
            held += len(memo)
        assert (held, roots) == (sets, {STABLE: 2628, STRONGLY_STABLE: 3584}[kind])


class TestShapeSetsInTheMemo:
    def test_stable_memo_drops_every_set_with_a_label_of_row_0(self):
        # each shape's own set holds its label of row 0, and none stays in
        # the memo after a census, nor any other set with such a label
        for p in (10, 30, 60, 100):
            _strict_census.cache_clear()
            census(p, 3, STABLE)
            _, rows, _, _, memo, _ = _strict_census(p)
            row0 = sum(1 << i for (s, _), i in rows.items() if s == 0)
            roots = list(shape_sets(STABLE, p))
            assert roots and all(rowmask & row0 for rowmask in roots), p
            assert memo and not any(rowmask & row0 for rowmask in memo), p

    def test_strongly_stable_memo_keeps_every_shape_set(self):
        # some shape's set is a child of another's: the other set less its
        # lowest row and one of that row's partners
        for p in (10, 30, 60, 100):
            _shifted_census.cache_clear()
            census(p, 3, STRONGLY_STABLE)
            _, skew, _, memo, _ = _shifted_census(p)
            roots = set(shape_sets(STRONGLY_STABLE, p))
            assert roots <= set(memo), p
            children = {
                root for root in roots
                for i in range((root & -root).bit_length() - 1)
                for j in range(i + 1, len(skew))
                if skew[i][j] and not root >> j & 1 and root | 1 << i | 1 << j in roots
            }
            assert children, p
