import random

import pytest

from escalier import barcode
from escalier.barcode import encode
from escalier.monomials import (
    MonomialIdeal,
    OrderIdeal,
    border_set,
    escalier,
    is_stable,
    minimal_generators,
    parse_term,
    term,
)
from escalier.starset import (
    is_stable_via_starset,
    is_stably_complete,
    multiplicative_vars,
    pommaret_basis,
    star_set_direct,
    star_set_from_barcode,
)
from randgen import random_order_ideal


def oi(*texts, n):
    return OrderIdeal.of([parse_term(t, n) for t in texts])


FOUR_POINTS = oi("1", "x1", "x2", "x3", n=3)
NOT_STABLE_N = oi("1", "x1", "x2", "x3", "x4", "x1*x4", n=4)


class TestStarSet:
    def test_four_points(self):
        expect = [parse_term(s, 3) for s in
                  ("x1^2", "x1*x2", "x2^2", "x1*x3", "x2*x3", "x3^2")]
        assert list(star_set_direct(FOUR_POINTS).terms) == expect
        assert list(star_set_from_barcode(encode(FOUR_POINTS.terms)).terms) == expect

    def test_origin_two_vars(self):
        N = oi("1", n=2)
        assert set(star_set_direct(N).terms) == {term(1, 0), term(0, 1)}

    def test_star_set_can_exceed_generators(self):
        star = set(star_set_direct(NOT_STABLE_N).terms)
        gens = set(minimal_generators(NOT_STABLE_N).generators)
        assert parse_term("x1^2*x4", 4) in star
        assert gens < star

    def test_both_routes_agree(self):
        rng = random.Random(101)
        for _ in range(120):
            N = random_order_ideal(rng, rng.randint(1, 4), 25)
            assert (
                star_set_direct(N).terms
                == star_set_from_barcode(encode(N.terms)).terms
            )

    def test_sandwich(self):
        rng = random.Random(103)
        for _ in range(80):
            N = random_order_ideal(rng, rng.randint(1, 4), 20)
            gens = set(minimal_generators(N).generators)
            star = set(star_set_direct(N).terms)
            assert gens <= star <= set(border_set(N))

    def test_from_barcode_rejects_inadmissible(self):
        from escalier.barcode import BarCode

        bad = BarCode(((1, 1, 1, 1, 1), (2, 1, 1, 1), (2, 3)))
        with pytest.raises(ValueError, match="^Bar Code is not admissible$"):
            star_set_from_barcode(bad)

    def test_from_barcode_decodes_once(self, monkeypatch):
        # one e-list per 1-bar: admissibility is read off the decoded terms
        calls = []
        e_list = barcode.e_list

        def counted(B, j):
            calls.append(j)
            return e_list(B, j)

        monkeypatch.setattr(barcode, "e_list", counted)
        code = encode(NOT_STABLE_N.terms)
        star_set_from_barcode(code)
        assert sorted(calls) == list(range(1, code.width + 1))


class TestMultiplicativeVars:
    def test_singleton_everything_multiplicative(self):
        t = parse_term("x1*x3^2", 3)
        assert multiplicative_vars([t], t) == {1, 2, 3}

    def test_two_variables_blocked(self):
        M = [term(1, 0), term(0, 1)]
        assert multiplicative_vars(M, term(1, 0)) == {1}
        assert multiplicative_vars(M, term(0, 1)) == {1, 2}

    def test_star_sets_get_below_min_sets(self):
        rng = random.Random(107)
        for _ in range(50):
            N = random_order_ideal(rng, rng.randint(2, 4), 18)
            star = star_set_direct(N).terms
            for t in star:
                low = min(i for i, e in enumerate(t.exponents, start=1) if e)
                assert multiplicative_vars(star, t) == set(range(1, low + 1))

    def test_membership_required(self):
        with pytest.raises(ValueError):
            multiplicative_vars([term(1, 0)], term(0, 1))


class TestStablyComplete:
    def test_star_sets_are_stably_complete(self):
        rng = random.Random(109)
        for _ in range(60):
            N = random_order_ideal(rng, rng.randint(1, 4), 22)
            assert is_stably_complete(star_set_direct(N).terms)

    def test_single_variable_incomplete(self):
        assert not is_stably_complete([term(1, 0)])

    def test_both_variables_complete(self):
        assert is_stably_complete([term(1, 0), term(0, 1)])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            is_stably_complete([])


class TestPommaret:
    def test_alias_of_star_set(self):
        rng = random.Random(113)
        for _ in range(40):
            N = random_order_ideal(rng, rng.randint(1, 3), 15)
            assert pommaret_basis(N).terms == star_set_direct(N).terms


class TestStabilityViaStarSet:
    def test_stable_escalier(self):
        I1 = MonomialIdeal.of(
            [parse_term(s, 3) for s in
             ("x1^3", "x1*x2", "x2^2", "x1^2*x3", "x2*x3", "x3^2")]
        )
        assert is_stable_via_starset(escalier(I1))

    def test_not_stable_escalier(self):
        assert not is_stable_via_starset(NOT_STABLE_N)

    def test_origin(self):
        assert is_stable_via_starset(oi("1", n=3))

    def test_agrees_with_direct_definition(self):
        rng = random.Random(127)
        for _ in range(120):
            N = random_order_ideal(rng, rng.randint(1, 4), 16)
            assert is_stable_via_starset(N) == is_stable(minimal_generators(N))

    def test_full_barcodes_for_stable_ideals(self):
        # for stable escaliers the star set collapses onto the generators
        rng = random.Random(131)
        hits = 0
        while hits < 25:
            N = random_order_ideal(rng, rng.randint(2, 3), 14)
            I = minimal_generators(N)
            if not is_stable(I):
                continue
            hits += 1
            assert set(star_set_direct(N).terms) == set(I.generators)
