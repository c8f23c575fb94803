import json
import random
import time
import xml.etree.ElementTree as ET
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from escalier import barcode
from escalier.barcode import (
    BarCode,
    _unit_row,
    bar_list,
    decode,
    e_list,
    encode,
    is_admissible,
    length,
    render,
)
from escalier.bijections import barcode_from_partition_2vars, list_ideals
from escalier.monomials import OrderIdeal, Term, is_order_ideal, parse_term, term
from escalier.starset import star_set_direct, star_set_from_barcode
from randgen import random_barcode, random_order_ideal

# the five-term set whose code returns in several places (rows (5,4,2) shape)
FIVE_TERMS = [parse_term(s, 3) for s in ("x1", "x1^2", "x2*x3", "x1*x2^2*x3", "x2^3*x3")]
FIVE_CODE = BarCode(((1, 1, 1, 1, 1), (2, 1, 1, 1), (2, 3)))


class TestEncode:
    def test_five_term_example(self):
        assert encode(FIVE_TERMS) == FIVE_CODE
        assert bar_list(FIVE_CODE) == (5, 4, 2)

    def test_singleton(self):
        code = encode([term(0, 0, 0)])
        assert code.rows == ((1,), (1,), (1,))
        assert bar_list(code) == (1, 1, 1)

    def test_different_sets_same_code(self):
        a = encode([term(0, 0), term(1, 0)])
        b = encode([term(1, 0), term(2, 0)])
        assert a == b

    def test_rejects_empty_and_duplicates(self):
        with pytest.raises(ValueError):
            encode([])
        with pytest.raises(ValueError):
            encode([term(1, 0), term(1, 0)])


class TestDecode:
    def test_inadmissible_code_canonical_set(self):
        got = {t.exponents for t in decode(FIVE_CODE)}
        assert got == {(0, 0, 0), (1, 0, 0), (0, 0, 1), (0, 1, 1), (0, 2, 1)}

    def test_single_column(self):
        code = BarCode(((1,), (1,), (1,), (1,)))
        assert decode(code) == (term(0, 0, 0, 0),)

    def test_roundtrip_four_points(self):
        N = [term(0, 0, 0), term(1, 0, 0), term(0, 1, 0), term(0, 0, 1)]
        assert set(decode(encode(N))) == set(N)

    def test_decode_is_lex_sorted(self):
        rng = random.Random(41)
        for _ in range(80):
            code = random_barcode(rng, rng.randint(1, 4), 10)
            cols = decode(code)
            assert list(cols) == sorted(cols)
            assert len(set(cols)) == code.width


class TestBarList:
    def test_intro_escalier(self):
        N = [parse_term(s, 3) for s in ("1", "x1", "x1^2", "x2", "x3", "x1*x3")]
        assert bar_list(encode(N)) == (6, 3, 2)

    def test_singleton_all_ones(self):
        assert bar_list(encode([term(0, 0, 0, 0, 0)])) == (1,) * 5


class TestLength:
    def test_five_code_lengths(self):
        assert length(FIVE_CODE, 2, 1, 1) == 2
        assert length(FIVE_CODE, 3, 2, 2) == 3
        assert length(FIVE_CODE, 3, 2, 1) == 3

    def test_self_length_is_one(self):
        rng = random.Random(43)
        for _ in range(30):
            code = random_barcode(rng, 3, 8)
            for i in range(1, 4):
                for j in range(1, code.mu(i) + 1):
                    assert length(code, i, j, i) == 1

    def test_bad_indices(self):
        with pytest.raises(ValueError):
            length(FIVE_CODE, 2, 1, 3)
        with pytest.raises(ValueError):
            length(FIVE_CODE, 3, 5, 1)


class TestEList:
    def test_four_points(self):
        code = encode([term(0, 0, 0), term(1, 0, 0), term(0, 1, 0), term(0, 0, 1)])
        assert [e_list(code, j) for j in range(1, 5)] == [
            (0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1),
        ]

    def test_first_column_is_zero(self):
        rng = random.Random(47)
        for _ in range(50):
            code = random_barcode(rng, rng.randint(1, 4), 9)
            assert e_list(code, 1) == (0,) * code.n

    def test_matches_decoded_exponents(self):
        rng = random.Random(53)
        for _ in range(60):
            code = random_barcode(rng, rng.randint(1, 4), 9)
            cols = decode(code)
            for j in range(1, code.width + 1):
                assert e_list(code, j) == cols[j - 1].exponents


class TestAdmissibility:
    def test_five_code_not_admissible(self):
        assert not is_admissible(FIVE_CODE)

    def test_encoded_order_ideals_admissible(self):
        rng = random.Random(59)
        for _ in range(50):
            N = random_order_ideal(rng, rng.randint(1, 4), 16)
            assert is_admissible(encode(N.terms))

    def test_criterion_matches_divisor_closure(self):
        rng = random.Random(61)
        for _ in range(300):
            code = random_barcode(rng, rng.randint(1, 4), 10)
            assert is_admissible(code) == is_order_ideal(decode(code))

    def test_admissible_weak_length_chains(self):
        # lengths over the top row bars never increase left to right
        rng = random.Random(67)
        seen = 0
        while seen < 60:
            code = random_barcode(rng, rng.randint(2, 4), 10)
            if not is_admissible(code):
                continue
            seen += 1
            n = code.n
            tops = [length(code, n, j, n - 1) for j in range(1, code.mu(n) + 1)]
            assert all(a >= b for a, b in zip(tops, tops[1:]))
            for i in range(1, n - 1):
                for j in range(1, code.mu(i + 2) + 1):
                    start, end = code.span(i + 2, j)
                    first = code.bar_of_column(i + 1, start)
                    last = code.bar_of_column(i + 1, end - 1)
                    ls = [length(code, i + 1, t, i) for t in range(first, last + 1)]
                    assert all(a >= b for a, b in zip(ls, ls[1:]))


class TestRoundtrips:
    def test_decode_encode_identity_on_codes(self):
        rng = random.Random(71)
        for _ in range(200):
            code = random_barcode(rng, rng.randint(1, 4), 10)
            assert encode(decode(code)) == code

    def test_encode_decode_identity_on_order_ideals(self):
        rng = random.Random(73)
        for _ in range(200):
            N = random_order_ideal(rng, rng.randint(1, 4), 16)
            assert set(decode(encode(N.terms))) == set(N.terms)


@st.composite
def order_ideals(draw):
    """Every divisor of a few random terms in up to four variables."""
    n = draw(st.integers(1, 4))
    tops = draw(st.lists(st.tuples(*[st.integers(0, 3)] * n), min_size=1, max_size=4))
    return {Term(e) for top in tops for e in product(*(range(a + 1) for a in top))}


class TestRoundtripProperty:
    @settings(deadline=None)
    @given(order_ideals())
    def test_decode_encode_gives_the_sorted_terms(self, terms):
        assert decode(encode(terms)) == tuple(sorted(terms, key=Term.lex_key))


class TestValidation:
    @pytest.mark.parametrize("rows, message", [
        ((), "a Bar Code needs at least one row"),
        (((1, 1), ()), "bar lengths must be positive integers: ()"),
        (((1, True),), "bar lengths must be positive integers: (1, True)"),
        (((1, 1), (1.0, 1)), "bar lengths must be positive integers: (1.0, 1)"),
        (((1, 1), (2, 0)), "bar lengths must be positive integers: (2, 0)"),
        (((1, 1, 1), (4, -1)), "bar lengths must be positive integers: (4, -1)"),
        (((1, 1, 1), (2,)), "all rows must cover the same number of columns"),
        (((1, 1), (1, 1), (3,)), "all rows must cover the same number of columns"),
        (((1, 2), (3,)), "row 1 must consist of unit bars"),
        (((1, 1, 1, 1), (1, 2, 1), (2, 2)), "each bar must lie under exactly one bar below"),
        (((1, 1, 1, 1), (1, 3), (2, 2), (4,)), "each bar must lie under exactly one bar below"),
    ])
    def test_constructor_rejections_keep_their_messages(self, rows, message):
        with pytest.raises(ValueError) as caught:
            BarCode(rows)
        assert str(caught.value) == message

    def test_row_sums_must_agree(self):
        with pytest.raises(ValueError):
            BarCode(((1, 1), (3,)))

    def test_refinement_must_nest(self):
        with pytest.raises(ValueError):
            BarCode(((1, 1, 1, 1), (2, 2), (3, 1)))

    def test_top_row_unit_bars(self):
        with pytest.raises(ValueError):
            BarCode(((2, 2), (4,)))

    def test_json_roundtrip(self):
        rng = random.Random(79)
        for _ in range(40):
            code = random_barcode(rng, rng.randint(1, 4), 8)
            doc = json.loads(json.dumps(code.to_json()))
            assert BarCode.from_json(doc) == code

    def test_json_width_mismatch(self):
        with pytest.raises(ValueError):
            BarCode.from_json({"n": 2, "width": 3, "rows": [[1, 1], [2]]})


class TestWideCode:
    def test_staircase_queries_in_time_linear_in_the_width(self):
        # the two-variable staircase with parts 100..1 has width 5050; a code
        # that rebuilt a row's offsets on every bar query took about 19 s here
        parts = tuple(range(100, 0, -1))
        code = barcode_from_partition_2vars(parts)
        staircase = tuple(term(a, j) for j, part in enumerate(parts) for a in range(part))
        start = time.perf_counter()
        decoded = decode(code)
        admissible = is_admissible(code)
        star = star_set_from_barcode(code)
        spent = time.perf_counter() - start
        assert decoded == staircase
        assert admissible
        assert star.terms == star_set_direct(OrderIdeal.of(staircase)).terms
        assert spent < 5.0

    def test_queries_leave_the_fields_alone(self):
        code = BarCode(FIVE_CODE.rows)
        assert length(code, 3, 2, 1) == 3
        assert code == FIVE_CODE and hash(code) == hash(FIVE_CODE)
        assert repr(code) == repr(FIVE_CODE)
        assert code.to_json() == FIVE_CODE.to_json()


class TestUnitRow:
    """The listings pass one cached row 1 per width, which the constructor
    does not check again; every other row 1 is checked in full."""

    def test_listings_share_the_cached_row(self):
        for n, kind, p in ((2, "stable", 12), (3, "stable", 9), (3, "strongly_stable", 9)):
            codes = [item.barcode for item in list_ideals(p, n, kind)]
            assert all(code.rows[0] is codes[0].rows[0] for code in codes)
            assert codes[0].rows[0] == (1,) * p

    @pytest.mark.parametrize("first", [(1, True, 1), (True, 1, 1), (1, 1, 1.0)])
    def test_an_equal_row_of_other_types_is_still_refused(self, first):
        # equal in value to the cached unit row, but not that object
        cached = _unit_row(3)
        assert first == cached and first is not cached
        with pytest.raises(ValueError) as caught:
            BarCode((first, (2, 1)))
        assert str(caught.value) == f"bar lengths must be positive integers: {first}"

    def test_an_empty_row_is_not_a_unit_row(self):
        # (1,) * 0 is the empty tuple, a singleton
        assert _unit_row(0) is ()
        with pytest.raises(ValueError, match="positive integers"):
            BarCode(((),))
        with pytest.raises(ValueError, match="positive integers"):
            BarCode(((), ()))

    @pytest.mark.parametrize("rest, message", [
        (((2, True),), "bar lengths must be positive integers: (2, True)"),
        (((2, 0, 1),), "bar lengths must be positive integers: (2, 0, 1)"),
        (((2, 2),), "all rows must cover the same number of columns"),
        (((1, 2), (3,), (4,)), "all rows must cover the same number of columns"),
        (((1, 2), (2, 1)), "each bar must lie under exactly one bar below"),
    ])
    def test_the_rows_under_the_cached_row_are_checked(self, rest, message):
        with pytest.raises(ValueError) as caught:
            BarCode((_unit_row(3), *rest))
        assert str(caught.value) == message

    def test_listed_codes_equal_codes_of_fresh_rows(self):
        for n, kind, p in ((2, "stable", 15), (3, "stable", 10), (3, "strongly_stable", 10)):
            for item in list_ideals(p, n, kind):
                listed = item.barcode
                fresh = BarCode(tuple(tuple(list(row)) for row in listed.rows))
                assert fresh.rows[0] is not listed.rows[0]
                assert listed == fresh and hash(listed) == hash(fresh)
                assert decode(listed) == decode(fresh)
                assert is_admissible(listed) == is_admissible(fresh)
                assert star_set_from_barcode(listed) == star_set_from_barcode(fresh)

    def test_a_code_of_another_width_between_listings(self):
        def rows(listing):
            return [item.barcode.rows for item in listing]

        first = rows(list_ideals(20, 2, "stable"))
        other = barcode_from_partition_2vars((4, 2, 1))
        assert other.rows[0] == (1,) * 7
        BarCode(((1,) * 5, (3, 2)))  # a fresh row 1 of a third width
        second = rows(list_ideals(20, 2, "stable"))
        assert first == second
        assert all(r[0] == (1,) * 20 for r in second)
        assert other == BarCode(((1,) * 7, (4, 2, 1)))


class TestRender:
    def test_singleton_ascii(self):
        out = render(encode([term(0, 0, 0)]))
        assert out.splitlines() == ["___", "___", "___"]

    def test_intro_example_ascii(self):
        N = [parse_term(s, 3) for s in ("1", "x1", "x1^2", "x2", "x3", "x1*x3")]
        out = render(encode(N), labels=True)
        assert out.splitlines() == [
            "1     x1    x1^2  x2    x3    x1*x3",
            "_____ _____ _____ _____ _____ _____",
            "_________________ _____ ___________",
            "_______________________ ___________",
        ]

    def test_svg_is_well_formed_xml(self):
        rng = random.Random(83)
        for _ in range(20):
            code = random_barcode(rng, rng.randint(1, 3), 8)
            root = ET.fromstring(render(code, "svg", labels=True))
            assert root.tag.endswith("svg")

    def test_svg_label_escaping_matches_saxutils(self, monkeypatch):
        from xml.sax.saxutils import escape

        label = "a&b<c>d&amp;"
        monkeypatch.setattr(barcode, "format_term", lambda t: label)
        svg = render(FIVE_CODE, "svg", labels=True)
        assert f'text-anchor="middle">{escape(label)}</text>' in svg
        texts = [el.text for el in ET.fromstring(svg).iter() if el.tag.endswith("text")]
        assert texts == [label] * FIVE_CODE.width

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            render(FIVE_CODE, "png")
