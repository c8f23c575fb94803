import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from escalier.monomials import (
    MonomialIdeal,
    OrderIdeal,
    Term,
    border_set,
    escalier,
    format_term,
    is_order_ideal,
    is_stable,
    is_strongly_stable,
    lex_compare,
    min_var,
    minimal_generators,
    p_operator,
    parse_term,
    term,
)
from randgen import random_order_ideal, random_term


def terms(*texts, n):
    return [parse_term(t, n) for t in texts]


def ideal(*texts, n):
    return MonomialIdeal.of(terms(*texts, n=n))


class TestLex:
    def test_single_variables(self):
        assert lex_compare(term(1, 0), term(0, 1)) == -1

    def test_paper_comparison(self):
        tau = parse_term("x1*x2^3*x3^4")
        sigma = parse_term("x2*x3^5", 3)
        assert lex_compare(tau, sigma) == -1
        assert lex_compare(sigma, tau) == 1

    def test_reflexive(self):
        tau = parse_term("x1*x2^3*x3^4")
        assert lex_compare(tau, tau) == 0

    def test_arity_mismatch(self):
        with pytest.raises(ValueError):
            lex_compare(term(1, 0), term(1, 0, 0))

    def test_divisibility_and_membership_check_arity(self):
        # comparing pairwise alone would stop at the shorter vector and accept
        I = MonomialIdeal.of([term(1, 0)])
        for a, b in ((term(1, 0), term(1, 0, 0)), (term(1, 0, 0), term(1, 0))):
            with pytest.raises(ValueError, match=r"arity mismatch: \d vs \d"):
                a.divides(b)
        for t in (term(1, 0, 0), term(2)):
            with pytest.raises(ValueError, match="arity mismatch"):
                t in I
        assert term(1, 0).divides(term(1, 2)) and not term(1, 3).divides(term(1, 2))
        assert term(1, 0) in I and term(0, 5) not in I

    def test_total_and_semigroup_order(self):
        rng = random.Random(7)
        for _ in range(300):
            n = rng.randint(1, 4)
            a, b, s = (random_term(rng, n, 5) for _ in range(3))
            ca, cb = lex_compare(a, b), lex_compare(b, a)
            assert ca == -cb
            if ca == 0:
                assert a == b
            if ca < 0:
                assert lex_compare(s.mul(a), s.mul(b)) < 0


class TestPOperator:
    def test_paper_values(self):
        tau = parse_term("x1*x2^3*x3^4")
        assert p_operator(tau, 2) == parse_term("x2^3*x3^4", 3)
        assert p_operator(tau, 1) == tau
        assert p_operator(p_operator(tau, 2), 3) == parse_term("x3^4", 3)

    def test_index_out_of_range(self):
        with pytest.raises(ValueError):
            p_operator(term(1, 0), 3)

    def test_composition_collapses(self):
        rng = random.Random(11)
        for _ in range(200):
            tau = random_term(rng, 4, 6)
            i, j = sorted(rng.sample(range(1, 5), 2))
            assert p_operator(p_operator(tau, i), j) == p_operator(tau, j)
            assert p_operator(p_operator(tau, j), i) == p_operator(tau, j)

    def test_monotone_in_lex(self):
        rng = random.Random(13)
        for _ in range(300):
            n = rng.randint(2, 4)
            a, b = random_term(rng, n, 6), random_term(rng, n, 6)
            if lex_compare(a, b) > 0:
                a, b = b, a
            for i in range(1, n + 1):
                assert lex_compare(p_operator(a, i), p_operator(b, i)) <= 0


class TestOrderIdeals:
    def test_small_true(self):
        assert is_order_ideal(terms("1", "x1", "x2", n=2))

    def test_missing_unit(self):
        assert not is_order_ideal(terms("x1", "x1^2", n=2))

    def test_barcode_counterexample_set(self):
        bad = terms("1", "x1", "x3", "x2*x3", "x2^2*x3", n=3)
        assert not is_order_ideal(bad)

    def test_empty_is_order_ideal(self):
        assert is_order_ideal([])

    def test_mixed_arity_rejected(self):
        with pytest.raises(ValueError):
            is_order_ideal([term(0, 0), term(0, 0, 0)])

    def test_constructor_validates(self):
        with pytest.raises(ValueError, match="not closed under division"):
            OrderIdeal.of(terms("x1", "x1^2", n=2))
        with pytest.raises(ValueError, match="not closed under division"):
            OrderIdeal(frozenset(terms("1", "x2^2", n=2)), 2)
        with pytest.raises(ValueError, match="mixed arities in term set"):
            OrderIdeal.of([term(0, 0), term(0, 0, 0)])
        with pytest.raises(ValueError, match="empty order ideal needs an explicit arity"):
            OrderIdeal.of([])
        # the arity is checked before closure, against the ambient arity
        for ts, n in ((terms("1", "x1", n=2), 3), ([term(0, 0), term(0, 0, 1)], 2),
                      ([term(0, 0, 1)], 2), ([term(0, 0), term(0, 0, 0)], 3)):
            with pytest.raises(ValueError, match="term arity differs from ambient arity"):
                OrderIdeal(frozenset(ts), n)
        assert len(OrderIdeal(frozenset(terms("1", "x1", "x2", n=2)), 2)) == 3
        assert len(OrderIdeal(frozenset(), 4)) == 0 == len(OrderIdeal.of([], 4))


def closed_by_predecessors(ts):
    """Reference for is_order_ideal, one Term.predecessor at a time."""
    return all(
        t.predecessor(i) in ts for t in ts for i in range(1, t.n + 1) if t.deg(i)
    )


@st.composite
def term_sets(draw):
    n = draw(st.integers(1, 4))
    vectors = st.tuples(*[st.integers(0, 3)] * n)
    return {Term(v) for v in draw(st.sets(vectors, max_size=12))}


@st.composite
def closed_term_sets(draw):
    """Every divisor of a few random terms: a nonempty order ideal."""
    n = draw(st.integers(1, 4))
    tops = draw(st.lists(st.tuples(*[st.integers(0, 3)] * n), min_size=1, max_size=4))
    return {Term(e) for top in tops for e in product(*(range(a + 1) for a in top))}


class TestOrderIdealProperty:
    @settings(deadline=None)
    @given(term_sets())
    def test_random_sets(self, ts):
        assert is_order_ideal(ts) == closed_by_predecessors(ts)

    @settings(deadline=None)
    @given(closed_term_sets(), st.data())
    def test_closed_sets_and_one_term_removed(self, closed, data):
        assert is_order_ideal(closed) and closed_by_predecessors(closed)
        gone = data.draw(st.sampled_from(sorted(closed, key=Term.lex_key)))
        rest = closed - {gone}
        assert is_order_ideal(rest) == closed_by_predecessors(rest)


class TestMinimalGenerators:
    def test_three_points(self):
        N = OrderIdeal.of(terms("1", "x1", "x2", n=2))
        G = minimal_generators(N)
        assert set(G.generators) == set(terms("x1^2", "x1*x2", "x2^2", n=2))

    def test_origin(self):
        N = OrderIdeal.of(terms("1", n=3))
        assert set(minimal_generators(N).generators) == set(terms("x1", "x2", "x3", n=3))

    def test_intro_escalier(self):
        N = OrderIdeal.of(terms("1", "x1", "x1^2", "x2", "x3", "x1*x3", n=3))
        G = minimal_generators(N)
        assert set(G.generators) == set(
            terms("x1^3", "x1*x2", "x2^2", "x1^2*x3", "x2*x3", "x3^2", n=3)
        )

    def test_complement_closure(self):
        rng = random.Random(17)
        for _ in range(60):
            N = random_order_ideal(rng, rng.randint(1, 3), 18)
            I = minimal_generators(N)
            assert escalier(I).terms == N.terms

    def test_border_contains_generators(self):
        rng = random.Random(19)
        for _ in range(40):
            N = random_order_ideal(rng, 3, 15)
            G = minimal_generators(N)
            assert set(G.generators) <= set(border_set(N))

    def test_escalier_needs_zero_dimensionality(self):
        with pytest.raises(ValueError):
            escalier(MonomialIdeal.of([term(1, 0)]))


class TestStability:
    def test_stable_example(self):
        I1 = ideal("x1^3", "x1*x2", "x2^2", "x1^2*x3", "x2*x3", "x3^2", n=3)
        assert is_stable(I1)
        assert not is_strongly_stable(I1)

    def test_not_stable_four_vars(self):
        I = ideal(
            "x1^2", "x1*x2", "x2^2", "x1*x3", "x2*x3", "x3^2",
            "x1^2*x4", "x2*x4", "x3*x4", "x4^2", n=4,
        )
        assert not is_stable(I)

    def test_maximal_ideal(self):
        for n in range(1, 5):
            gens = [term(*(1 if i == j else 0 for i in range(n))) for j in range(n)]
            assert is_stable(MonomialIdeal.of(gens))

    def test_strongly_stable_example(self):
        I2 = ideal("x1^2", "x1*x2", "x2^2", "x3", n=3)
        assert is_strongly_stable(I2)
        assert is_stable(I2)

    def test_strong_implies_stable(self):
        rng = random.Random(23)
        for _ in range(80):
            N = random_order_ideal(rng, rng.randint(2, 4), 14)
            I = minimal_generators(N)
            if is_strongly_stable(I):
                assert is_stable(I)

    def test_two_vars_equivalence(self):
        rng = random.Random(29)
        for _ in range(120):
            I = minimal_generators(random_order_ideal(rng, 2, 20))
            assert is_stable(I) == is_strongly_stable(I)

    def test_empty_generators_rejected(self):
        with pytest.raises(ValueError):
            is_stable(MonomialIdeal(frozenset(), 2))

    def test_redundant_generators_dropped(self):
        I = ideal("x1", "x1^2", "x1*x2", n=2)
        assert set(I.generators) == {term(1, 0)}


class TestMinVar:
    def test_values(self):
        assert min_var(parse_term("x2*x3", 3)) == 2
        assert min_var(parse_term("x1*x2^3*x3^4")) == 1
        assert min_var(parse_term("x3^2", 3)) == 3

    def test_unit_rejected(self):
        with pytest.raises(ValueError):
            min_var(term(0, 0))


class TestParsing:
    def test_roundtrip(self):
        rng = random.Random(31)
        for _ in range(100):
            t = random_term(rng, rng.randint(1, 4), 7)
            assert parse_term(format_term(t), t.n) == t

    def test_unit_forms(self):
        assert parse_term("1", 3) == term(0, 0, 0)
        assert format_term(term(0, 0)) == "1"

    def test_rejects_garbage(self):
        for bad in ("", "y2", "x0", "x1^-2", "x1**2"):
            with pytest.raises(ValueError):
                parse_term(bad, 3)

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            Term((1, -1))

    @pytest.mark.parametrize("exponents, message", [
        ((), "term needs at least one variable"),
        ((1, -1), "negative exponent in (1, -1)"),
        ((-3,), "negative exponent in (-3,)"),
    ])
    def test_constructor_rejections_keep_their_messages(self, exponents, message):
        with pytest.raises(ValueError) as caught:
            Term(exponents)
        assert str(caught.value) == message
