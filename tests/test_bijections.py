import json
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from escalier import bijections
from escalier.barcode import BarCode, bar_list, decode, encode, length
from escalier.bijections import (
    _rows_ideal,
    barcode_from_partition_2vars,
    barcode_from_shifted_pp,
    barcode_from_strict_pp,
    ideal_from_partition_2vars,
    ideal_from_strict_pp,
    list_ideals,
    partition_2vars,
    shifted_pp_from_barcode,
    strict_pp_from_barcode,
)
from escalier.cli import run
from escalier.counting import STABLE, STRONGLY_STABLE, census
from escalier.monomials import (
    MonomialIdeal,
    OrderIdeal,
    Term,
    escalier,
    is_stable,
    is_strongly_stable,
    minimal_generators,
    parse_term,
)
from escalier.partitions import PlanePartition, enumerate_distinct
from escalier.starset import star_set_direct
from randgen import random_order_ideal


def strict_pp(shape, rows):
    return PlanePartition(tuple(shape), tuple(tuple(r) for r in rows), c=1, d=1)


def shifted_pp(shape, rows):
    return PlanePartition(
        tuple(shape), tuple(tuple(r) for r in rows), c=1, d=0, shifted=True
    )


def gens(ideal):
    return {t.exponents for t in ideal.generators}


def texts(*ss, n=3):
    return {parse_term(s, n).exponents for s in ss}


class TestStrictCorrespondence:
    def test_marked_length(self):
        pp = strict_pp((4, 3, 1), [(4, 3, 2, 1), (3, 2, 1), (1,)])
        code = barcode_from_strict_pp(pp)
        assert length(code, 2, 6, 1) == 2  # the bold rho_{2,2}
        assert bar_list(code) == (17, 8, 3)

    def test_origin(self):
        code = barcode_from_strict_pp(strict_pp((1,), [(1,)]))
        assert [t.exponents for t in decode(code)] == [(0, 0, 0)]

    def test_intro_example(self):
        code = barcode_from_strict_pp(strict_pp((2, 1), [(3, 1), (2,)]))
        assert {t.exponents for t in decode(code)} == texts(
            "1", "x1", "x1^2", "x2", "x3", "x1*x3"
        )
        assert bar_list(code) == (6, 3, 2)

    def test_roundtrip_fixtures(self):
        for shape, rows in (
            ((4, 3, 1), [(4, 3, 2, 1), (3, 2, 1), (1,)]),
            ((1,), [(1,)]),
            ((2, 1), [(3, 1), (2,)]),
        ):
            pp = strict_pp(shape, rows)
            assert strict_pp_from_barcode(barcode_from_strict_pp(pp)) == pp

    def test_inverse_on_intro_ideal(self):
        N = OrderIdeal.of(
            [parse_term(s, 3) for s in ("1", "x1", "x1^2", "x2", "x3", "x1*x3")]
        )
        pp = strict_pp_from_barcode(encode(N.terms))
        assert pp.rows == ((3, 1), (2,))

    def test_random_stable_escaliers_give_strict_partitions(self):
        rng = random.Random(307)
        hits = 0
        while hits < 40:
            N = random_order_ideal(rng, 3, 12)
            I = minimal_generators(N)
            if not is_stable(I):
                continue
            hits += 1
            pp = strict_pp_from_barcode(encode(N.terms))
            flat = pp.flat()
            assert all(v >= 1 for v in flat) and pp.norm == len(N)

    def test_non_stable_source_rejected(self):
        N = OrderIdeal.of([parse_term(s, 3) for s in ("1", "x1", "x2", "x1*x2")])
        # escalier of a non-stable ideal: column condition fails
        with pytest.raises(ValueError):
            strict_pp_from_barcode(encode(N.terms))


class TestIdealFromStrict:
    def test_first_appendix_item(self):
        I = ideal_from_strict_pp(strict_pp((3, 1), [(6, 2, 1), (1,)]))
        assert gens(I) == texts(
            "x1^6", "x1^2*x2", "x1*x2^2", "x2^3", "x1*x3", "x2*x3", "x3^2"
        )

    def test_fifth_appendix_item(self):
        I = ideal_from_strict_pp(strict_pp((3, 1), [(4, 2, 1), (3,)]))
        assert gens(I) == texts(
            "x1^4", "x1^2*x2", "x1*x2^2", "x2^3", "x1^3*x3", "x2*x3", "x3^2"
        )

    def test_origin(self):
        I = ideal_from_strict_pp(strict_pp((1,), [(1,)]))
        assert gens(I) == texts("x1", "x2", "x3")

    def test_equals_star_set_of_decoded_escalier(self):
        rng = random.Random(311)
        hits = 0
        while hits < 30:
            N = random_order_ideal(rng, 3, 12)
            if not is_stable(minimal_generators(N)):
                continue
            hits += 1
            pp = strict_pp_from_barcode(encode(N.terms))
            assert gens(ideal_from_strict_pp(pp)) == {
                t.exponents for t in star_set_direct(N).terms
            }


class TestShiftedCorrespondence:
    def test_worked_example(self):
        pp = shifted_pp((2, 2), [(3, 2), (1,)])
        code = barcode_from_shifted_pp(pp)
        assert {t.exponents for t in decode(code)} == texts(
            "1", "x1", "x1^2", "x2", "x1*x2", "x3"
        )
        assert shifted_pp_from_barcode(code) == pp

    def test_origin(self):
        code = barcode_from_shifted_pp(shifted_pp((1,), [(1,)]))
        assert [t.exponents for t in decode(code)] == [(0, 0, 0)]

    def test_appendix_partitions(self):
        listing = list_ideals(10, 3, STRONGLY_STABLE)
        rows_42 = [
            item.partition.rows
            for item in listing.items
            if bar_list(item.barcode) == (10, 4, 2)
        ]
        assert sorted(rows_42) == sorted(
            [
                ((6, 2, 1), (1,)),
                ((5, 2, 1), (2,)),
                ((5, 3, 1), (1,)),
                ((4, 3, 2), (1,)),
                ((4, 3, 1), (2,)),
            ]
        )

    def test_random_strongly_stable_escaliers(self):
        rng = random.Random(313)
        hits = 0
        while hits < 30:
            N = random_order_ideal(rng, 3, 12)
            if not is_strongly_stable(minimal_generators(N)):
                continue
            hits += 1
            pp = shifted_pp_from_barcode(encode(N.terms))
            assert pp.shifted and pp.norm == len(N)

    def test_stable_but_not_strongly_rejected(self):
        from escalier.monomials import MonomialIdeal

        I1 = MonomialIdeal.of(
            [parse_term(s, 3) for s in
             ("x1^3", "x1*x2", "x2^2", "x1^2*x3", "x2*x3", "x3^2")]
        )
        N = escalier(I1)
        with pytest.raises(ValueError):
            shifted_pp_from_barcode(encode(N.terms))


class TestTwoVariableCorrespondence:
    def test_staircase_ideal(self):
        assert gens(ideal_from_partition_2vars((9, 1))) == texts(
            "x1^9", "x1*x2", "x2^2", n=2
        )

    def test_lex_segment(self):
        assert gens(ideal_from_partition_2vars((7,))) == texts("x1^7", "x2", n=2)

    def test_barlist_three_two(self):
        code = barcode_from_partition_2vars((2, 1))
        assert bar_list(code) == (3, 2)
        assert gens(ideal_from_partition_2vars((2, 1))) == texts(
            "x1^2", "x1*x2", "x2^2", n=2
        )

    def test_staircase_generators_are_minimal(self):
        for p in range(1, 31):
            for h in range(1, p + 1):
                for parts in enumerate_distinct(p, h):
                    staircase = [Term((a, i)) for i, a in enumerate(parts)]
                    staircase.append(Term((0, h)))
                    assert ideal_from_partition_2vars(parts) == MonomialIdeal.of(
                        staircase, 2
                    )

    def test_roundtrip(self):
        for parts in ((9, 1), (7,), (2, 1), (5, 3, 2)):
            assert partition_2vars(barcode_from_partition_2vars(parts)) == parts

    def test_code_route_matches_direct_route(self):
        for parts in ((6,), (4, 2), (5, 3, 1), (4, 3, 2, 1)):
            code = barcode_from_partition_2vars(parts)
            N = OrderIdeal.of(decode(code), 2)
            assert gens(minimal_generators(N)) == gens(ideal_from_partition_2vars(parts))

    def test_rejects_weak_partitions(self):
        with pytest.raises(ValueError):
            barcode_from_partition_2vars((3, 3))


class TestListings:
    def test_ten_two_variable_ideals(self):
        listing = list_ideals(10, 2, STRONGLY_STABLE)
        expect = [
            texts("x1^10", "x2", n=2),
            texts("x1^9", "x1*x2", "x2^2", n=2),
            texts("x1^8", "x1^2*x2", "x2^2", n=2),
            texts("x1^7", "x1^3*x2", "x2^2", n=2),
            texts("x1^7", "x1*x2^2", "x1^2*x2", "x2^3", n=2),
            texts("x1^6", "x1^4*x2", "x2^2", n=2),
            texts("x1^6", "x1*x2^2", "x1^3*x2", "x2^3", n=2),
            texts("x1^5", "x1*x2^2", "x1^4*x2", "x2^3", n=2),
            texts("x1^5", "x1^2*x2^2", "x1^3*x2", "x2^3", n=2),
            texts("x1^4", "x1*x2^3", "x1^2*x2^2", "x1^3*x2", "x2^4", n=2),
        ]
        got = [gens(item.ideal) for item in listing.items]
        assert len(got) == 10
        for want in expect:
            assert want in got

    def test_six_stable_appendix_ideals(self):
        listing = list_ideals(10, 3, STABLE)
        got = [
            gens(item.ideal)
            for item in listing.items
            if bar_list(item.barcode) == (10, 4, 2)
        ]
        expect = [
            texts("x1^6", "x1^2*x2", "x1*x2^2", "x2^3", "x1*x3", "x2*x3", "x3^2"),
            texts("x1^5", "x1^2*x2", "x1*x2^2", "x2^3", "x1^2*x3", "x2*x3", "x3^2"),
            texts("x1^5", "x1^3*x2", "x1*x2^2", "x2^3", "x1*x3", "x2*x3", "x3^2"),
            texts("x1^4", "x1^3*x2", "x1^2*x2^2", "x2^3", "x1*x3", "x2*x3", "x3^2"),
            texts("x1^4", "x1^2*x2", "x1*x2^2", "x2^3", "x1^3*x3", "x2*x3", "x3^2"),
            texts("x1^4", "x1^3*x2", "x1*x2^2", "x2^3", "x1^2*x3", "x2*x3", "x3^2"),
        ]
        assert len(got) == 6
        assert sorted(map(sorted, got)) == sorted(map(sorted, expect))

    def test_five_strongly_stable_appendix_ideals(self):
        listing = list_ideals(10, 3, STRONGLY_STABLE)
        got = [
            gens(item.ideal)
            for item in listing.items
            if bar_list(item.barcode) == (10, 4, 2)
        ]
        expect = [
            texts("x1^6", "x1^2*x2", "x1*x2^2", "x2^3", "x1*x3", "x2*x3", "x3^2"),
            texts("x1^5", "x1^2*x2", "x1*x2^2", "x2^3", "x1^2*x3", "x2*x3", "x3^2"),
            texts("x1^5", "x1^3*x2", "x1*x2^2", "x2^3", "x1*x3", "x2*x3", "x3^2"),
            texts("x1^4", "x1^3*x2", "x1^2*x2^2", "x2^3", "x1*x3", "x2*x3", "x3^2"),
            texts("x1^4", "x1^3*x2", "x1*x2^2", "x2^3", "x1^2*x3", "x2*x3", "x3^2"),
        ]
        assert len(got) == 5
        assert sorted(map(sorted, got)) == sorted(map(sorted, expect))

    def test_minimal_listing(self):
        listing = list_ideals(1, 3, STABLE)
        assert [gens(i.ideal) for i in listing.items] == [texts("x1", "x2", "x3")]

    def test_census_agreement_and_certification(self):
        for p in range(1, 11):
            for kind in (STABLE, STRONGLY_STABLE):
                listing = list_ideals(p, 3, kind)
                assert len(listing) == census(p, 3, kind).total
                seen = set()
                for item in listing.items:
                    I = item.ideal
                    check = is_stable if kind == STABLE else is_strongly_stable
                    assert check(I)
                    assert len(escalier(I)) == p
                    key = frozenset(I.generators)
                    assert key not in seen
                    seen.add(key)

    def test_partition_code_roundtrips_everywhere(self):
        for p in range(1, 11):
            for item in list_ideals(p, 3, STABLE).items:
                assert strict_pp_from_barcode(item.barcode) == item.partition
                assert barcode_from_strict_pp(item.partition) == item.barcode
            for item in list_ideals(p, 3, STRONGLY_STABLE).items:
                assert shifted_pp_from_barcode(item.barcode) == item.partition
                assert barcode_from_shifted_pp(item.partition) == item.barcode

    def test_stable_codes_have_strict_chains(self):
        for item in list_ideals(9, 3, STABLE).items:
            code = item.barcode
            tops = [length(code, 3, j, 2) for j in range(1, code.mu(3) + 1)]
            assert all(a > b for a, b in zip(tops, tops[1:]))
            for j in range(1, code.mu(3) + 1):
                start, end = code.span(3, j)
                first = code.bar_of_column(2, start)
                last = code.bar_of_column(2, end - 1)
                ls = [length(code, 2, t, 1) for t in range(first, last + 1)]
                assert all(a > b for a, b in zip(ls, ls[1:]))

    def test_rejects_bad_requests(self):
        # checked on the call, before any item is built
        with pytest.raises(ValueError):
            list_ideals(5, 4, STABLE)
        with pytest.raises(ValueError):
            list_ideals(0, 2, STABLE)
        with pytest.raises(ValueError):
            list_ideals(0, 3, STRONGLY_STABLE)
        with pytest.raises(ValueError):
            list_ideals(5, 2, "borel")

    def test_iterating_holds_no_items(self):
        for n in (2, 3):
            listing = list_ideals(12, n, STABLE)
            streamed = tuple(item for item in listing)
            assert "items" not in vars(listing)
            assert streamed == listing.items and tuple(listing) == listing.items
            assert len(listing) == len(streamed)

    @pytest.mark.parametrize("n, maker", [(2, "barcode_from_partition_2vars"),
                                          (3, "_rows_barcode")])
    def test_each_item_is_built_once(self, monkeypatch, n, maker):
        # list() and tuple() take iter() before len(), and len() keeps the items
        original = getattr(bijections, maker)
        built = []
        monkeypatch.setattr(bijections, maker, lambda *a: built.append(a) or original(*a))
        for whole in (list, tuple):
            built.clear()
            listing = list_ideals(12, n, STABLE)
            items = whole(listing)
            assert len(built) == len(items) == len(listing)
            assert tuple(items) == listing.items
            assert tuple(listing) == listing.items and len(built) == len(items)

    @pytest.mark.parametrize("n, kind, p", [(2, STABLE, 20), (2, STABLE, 50), (3, STABLE, 12),
                                            (3, STRONGLY_STABLE, 12)])
    def test_json_list_runs_every_constructor(self, monkeypatch, capsys, n, kind, p):
        # the CLI writes each item's JSON straight from its built objects: one
        # checked Bar Code and ideal per item, and one checked Term per distinct
        # exponent vector of the listing, shared by every ideal that has it;
        # none of them made past its constructor
        made = {BarCode: [], MonomialIdeal: [], Term: []}
        for cls, seen in made.items():
            def counted(self, *args, _init=cls.__init__, _seen=seen):
                _seen.append((self, args))
                _init(self, *args)
            monkeypatch.setattr(cls, "__init__", counted)
        argv = ["list", "--vars", str(n), "--hilbert", str(p),
                "--class", kind.replace("_", "-"), "--format", "json"]
        assert run(argv) == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc) == census(p, n, kind).total
        assert len(made[BarCode]) == len(made[MonomialIdeal]) == len(doc)
        terms = [t for t, _ in made[Term]]
        vectors = {tuple(e) for item in doc for e in item["generators"]}
        assert sorted(t.exponents for t in terms) == sorted(vectors)
        assert (n, p) != (2, 50) or len(terms) == 120
        listed = [g for _, (gens, _) in made[MonomialIdeal] for g in gens]
        assert len(listed) == sum(len(item["generators"]) for item in doc)
        assert {id(t) for t in terms}.issuperset(map(id, listed))

    def test_agrees_with_determinants_beyond_oracle_sizes(self):
        # the listing never touches a determinant, so this is an independent
        # route to the same numbers
        for p, kind, expect in (
            (14, STABLE, 104),
            (14, STRONGLY_STABLE, 80),
            (17, STABLE, 264),
            (17, STRONGLY_STABLE, 188),
        ):
            assert census(p, 3, kind).total == expect
            assert len(list_ideals(p, 3, kind)) == expect


def decode_route(code):
    """The ideal whose escalier is the decoded Bar Code, rebuilt from its border."""
    return minimal_generators(OrderIdeal.of(decode(code), code.n))


@st.composite
def three_variable_arrays(draw, shifted, max_cells=30):
    """A random strict (or shifted) array: positive entries, strictly shorter
    rows going down, rows strictly decreasing and columns strictly (weakly)
    decreasing.  Filled from the last cell back, each entry at least its bound."""
    lengths = sorted(
        draw(st.sets(st.integers(1, 9), min_size=1, max_size=5)), reverse=True
    )
    while sum(lengths) > max_cells:
        lengths.pop()
    start = [i if shifted else 0 for i in range(len(lengths))]
    value = {}
    for i in reversed(range(len(lengths))):
        for j in reversed(range(start[i], start[i] + lengths[i])):
            low = value.get((i, j + 1), 0) + 1
            if (i + 1, j) in value:
                low = max(low, value[(i + 1, j)] + (0 if shifted else 1))
            value[(i, j)] = low + draw(st.integers(0, 2))
    rows = tuple(
        tuple(value[(i, j)] for j in range(start[i], start[i] + lengths[i]))
        for i in range(len(lengths))
    )
    if shifted:
        shape = tuple(i + n for i, n in enumerate(lengths))
        return PlanePartition(shape, rows, c=1, d=0, shifted=True)
    return PlanePartition(tuple(lengths), rows, c=1, d=1)


class TestRowReading:
    @pytest.mark.parametrize("kind", [STABLE, STRONGLY_STABLE])
    def test_listing_matches_decode_route(self, kind):
        for p in range(1, 17):
            for item in list_ideals(p, 3, kind).items:
                assert item.ideal == decode_route(item.barcode)

    @settings(deadline=None)
    @given(st.booleans().flatmap(three_variable_arrays))
    def test_partition_barcode_ideal_roundtrip(self, pp):
        shifted = pp.shifted
        to_code, from_code = (
            (barcode_from_shifted_pp, shifted_pp_from_barcode) if shifted
            else (barcode_from_strict_pp, strict_pp_from_barcode)
        )
        code = to_code(pp)
        ideal = _rows_ideal(pp.rows, {})
        if not shifted:
            assert ideal_from_strict_pp(pp) == ideal
        assert ideal == decode_route(code)
        assert (is_strongly_stable if shifted else is_stable)(ideal)
        N = escalier(ideal)
        assert len(N) == pp.norm
        assert encode(N.terms) == code
        assert from_code(code) == pp


class TestLexConstruction:
    # Listed ideals keep their generators in construction order, and the
    # writer reads that as Lex order: check it against a sort of each
    # generator set, and the ideal against its frozenset-built twin and the
    # decode route.
    @pytest.mark.parametrize("n, kind, top", [(2, STABLE, 50), (3, STABLE, 20),
                                              (3, STRONGLY_STABLE, 20)])
    def test_every_listed_item(self, n, kind, top):
        for p in range(1, top + 1):
            for item in list_ideals(p, n, kind):
                ideal, part = item.ideal, item.partition
                cells = len(part) if n == 2 else sum(map(len, part.rows)) + len(part.rows)
                assert len(ideal) == cells + 1
                assert ideal.sorted() == sorted(ideal.generators, key=Term.lex_key)
                assert len(ideal) == len(ideal.generators)
                twin = MonomialIdeal(frozenset(ideal.generators), n)
                assert ideal == twin and twin == ideal and hash(ideal) == hash(twin)
                assert ideal == decode_route(item.barcode)

    def test_tuple_and_frozenset_ideals_agree(self):
        gens = (Term((2, 0)), Term((1, 1)), Term((0, 2)))
        listed, built = MonomialIdeal(gens, 2), MonomialIdeal(frozenset(gens), 2)
        assert hash(listed) == hash(built) and {listed, built} == {built}
        assert listed.sorted() == built.sorted() == list(gens)
        assert len(listed) == len(built) == 3
        assert repr(listed) == repr(built)


class TestValidator:
    # One case per rejection reason.  Shifted rows cannot fail the length
    # rule: row i ends in column shape[i] and starts in column i, so a weakly
    # decreasing shape already shortens every row by at least one cell.
    @pytest.mark.parametrize("pp, reason", [
        (shifted_pp((2, 2), [(3, 2), (1,)]), "expected a straight unshifted"),
        (PlanePartition((3, 2), ((3, 1), (1,)), c=1, d=1, inner=(1, 1)),
         "expected a straight unshifted"),
        (strict_pp((2, 0), [(2, 1), ()]), "positive"),
        (strict_pp((2, 1), [(2, 0), (1,)]), "positive"),
        (strict_pp((2, 2), [(4, 3), (2, 1)]), "row lengths"),
        (strict_pp((2, 1), [(3, 3), (1,)]), "rows must decrease strictly"),
        (strict_pp((2, 1), [(3, 1), (3,)]), "columns strictly"),
    ])
    def test_strict_rejections(self, pp, reason):
        with pytest.raises(ValueError, match=reason):
            barcode_from_strict_pp(pp)
        with pytest.raises(ValueError, match=reason):
            ideal_from_strict_pp(pp)

    @pytest.mark.parametrize("pp, reason", [
        (strict_pp((2, 1), [(3, 1), (2,)]), "expected a shifted"),
        (shifted_pp((2, 2), [(3, 0), (1,)]), "positive"),
        (shifted_pp((2, 2), [(2, 2), (1,)]), "rows must decrease strictly"),
        (shifted_pp((2, 2), [(3, 1), (2,)]), "columns weakly"),
    ])
    def test_shifted_rejections(self, pp, reason):
        with pytest.raises(ValueError, match=reason):
            barcode_from_shifted_pp(pp)

    def test_shifted_columns_may_repeat(self):
        pp = shifted_pp((2, 2), [(3, 2), (2,)])
        assert shifted_pp_from_barcode(barcode_from_shifted_pp(pp)) == pp
