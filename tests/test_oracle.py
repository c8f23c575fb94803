import gc

import pytest

from escalier import oracle
from escalier.barcode import bar_list, encode, is_admissible, length
from escalier.counting import STABLE, STRONGLY_STABLE, bar_lists_3vars, census, count_2vars
from escalier.monomials import (
    OrderIdeal,
    Term,
    corner_terms,
    is_stable,
    is_strongly_stable,
    minimal_generators,
    term,
)
from escalier.oracle import (
    census_by_definition,
    conjecture_probe,
    count_by_definition,
    enumerate_order_ideals,
    oracle_cap,
)
from escalier.partitions import count_P, count_Q

# order ideal counts in 3 and 4 variables are the classical plane / solid
# partition numbers
PLANE_PARTITIONS = [1, 3, 6, 13, 24, 48, 86, 160, 282, 500, 859, 1479]
SOLID_PARTITIONS = [1, 4, 10, 26, 59, 140]


def n_partitions(p):
    return sum(count_P(p, k) for k in range(1, p + 1))


def reference_growth(N, top, n, p, out):
    """Canonical growth with the corner set rebuilt from scratch at every
    node, depth first: the reference for the enumeration order."""
    if len(N) == p:
        out.append(N)
        return
    for g in sorted(corner_terms(N, n), key=Term.lex_key):
        if g > top:
            reference_growth(N | {g}, g, n, p, out)


class TestEnumeration:
    def test_two_vars_size_three(self):
        got = {frozenset(t.exponents for t in N) for N in enumerate_order_ideals(2, 3)}
        assert got == {
            frozenset({(0, 0), (1, 0), (2, 0)}),
            frozenset({(0, 0), (1, 0), (0, 1)}),
            frozenset({(0, 0), (0, 1), (0, 2)}),
        }

    def test_one_var_unique(self):
        for p in (1, 4, 9, oracle_cap(1)):
            en = enumerate_order_ideals(1, p)
            assert len(en) == 1
            assert {t.exponents for t in en.items[0]} == {(e,) for e in range(p)}
            assert {t.exponents for t in en.generators[0].generators} == {(p,)}

    def test_two_vars_matches_partition_numbers(self):
        for p in range(1, 21):
            assert len(enumerate_order_ideals(2, p)) == n_partitions(p)

    def test_three_vars_matches_plane_partition_numbers(self):
        for p, expect in enumerate(PLANE_PARTITIONS, start=1):
            assert len(enumerate_order_ideals(3, p)) == expect

    def test_four_vars_matches_solid_partition_numbers(self):
        for p, expect in enumerate(SOLID_PARTITIONS, start=1):
            assert len(enumerate_order_ideals(4, p)) == expect

    def test_generators_are_the_minimal_generators(self):
        for n, max_p in ((1, 30), (2, 20), (3, 10), (4, 7)):
            for p in range(1, max_p + 1):
                en = enumerate_order_ideals(n, p)
                assert len(en.generators) == len(en.items)
                for N, gens in zip(en.items, en.generators):
                    assert gens == minimal_generators(N)

    def test_order_of_the_recursive_growth(self):
        unit = term(0, 0, 0)
        for p in range(1, 9):
            expected = []
            reference_growth(frozenset([unit]), unit, 3, p, expected)
            assert [N.terms for N in enumerate_order_ideals(3, p)] == expected

    def test_leaves_no_reference_cycles(self):
        enabled = gc.isenabled()
        gc.disable()
        try:
            gc.collect()
            enumerate_order_ideals(3, 8)
            assert gc.collect() == 0
            count_by_definition(3, 8, STABLE)
            assert gc.collect() == 0
            count_by_definition(3, 12, STRONGLY_STABLE)
            assert gc.collect() == 0
        finally:
            if enabled:
                gc.enable()

    def test_no_duplicates(self):
        items = enumerate_order_ideals(3, 8).items
        assert len({frozenset(N.terms) for N in items}) == len(items)

    def test_cap_enforced(self, monkeypatch):
        with pytest.raises(ValueError):
            enumerate_order_ideals(3, oracle_cap(3) + 1)
        # the environment overrides the default
        monkeypatch.setenv("ESCALIER_ORACLE_CAP_N3", "13")
        assert len(enumerate_order_ideals(3, 13)) == 2485

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("ESCALIER_ORACLE_CAP_N3", "5")
        assert oracle_cap(3) == 5
        with pytest.raises(ValueError):
            enumerate_order_ideals(3, 6)

    @pytest.mark.parametrize("value", ["abc", "0", "-5", ""])
    def test_bad_env_override(self, monkeypatch, value):
        monkeypatch.setenv("ESCALIER_ORACLE_CAP_N3", value)
        with pytest.raises(ValueError, match="ESCALIER_ORACLE_CAP_N3 must be a positive"):
            oracle_cap(3)


class TestClassGrowth:
    """The growth pruned to a class against the full growth filtered by the
    public stability tests."""

    @pytest.mark.parametrize("n, max_p", [(2, 20), (3, 12), (4, 8)])
    def test_matches_filtered_full_enumeration(self, monkeypatch, n, max_p):
        monkeypatch.setenv(f"ESCALIER_ORACLE_CAP_N{n}", str(max_p))
        for p in range(1, max_p + 1):
            full = enumerate_order_ideals(n, p)
            for kind, test in ((STABLE, is_stable), (STRONGLY_STABLE, is_strongly_stable)):
                pruned = enumerate_order_ideals(n, p, kind=kind)
                expected = [
                    (N, gens) for N, gens in zip(full.items, full.generators) if test(gens)
                ]
                assert list(zip(pruned.items, pruned.generators)) == expected, (p, kind)
                assert len(pruned) == len(expected)

    @pytest.mark.parametrize("kind", [STABLE, STRONGLY_STABLE])
    def test_three_vars_match_census_beyond_the_cap(self, monkeypatch, kind):
        monkeypatch.setenv("ESCALIER_ORACLE_CAP_N3", "25")
        for p in range(1, 26):
            assert count_by_definition(3, p, kind) == census(p, 3, kind).total, p

    def test_two_vars_match_count_2vars(self, monkeypatch):
        monkeypatch.setenv("ESCALIER_ORACLE_CAP_N2", "30")
        for p in range(1, 31):
            assert count_by_definition(2, p, STABLE) == count_2vars(p), p

    def test_unknown_class(self):
        with pytest.raises(ValueError):
            enumerate_order_ideals(2, 3, kind="borel")


class TestLazyItems:
    """The enumeration checks every escalier and builds the generators at
    once, and builds its order ideals only when ``items`` is read."""

    @pytest.mark.parametrize("n, p", [(2, 12), (3, 8)])
    @pytest.mark.parametrize("kind", [STABLE, STRONGLY_STABLE])
    def test_counts_build_no_order_ideal(self, monkeypatch, n, p, kind):
        built = []
        init = OrderIdeal.__init__
        monkeypatch.setattr(OrderIdeal, "__init__", lambda self, *a: built.append(a) or init(self, *a))
        assert count_by_definition(n, p, kind) == census(p, n, kind).total
        en = enumerate_order_ideals(n, p, kind)
        assert len(en) == len(en.generators) > 0
        assert "items" not in vars(en) and built == []
        assert len(en.items) == len(en) == len(built)

    @pytest.mark.parametrize("n, top", [(2, 10), (3, 8)])
    def test_items_match_eager_construction(self, n, top):
        for kind in (None, STABLE, STRONGLY_STABLE):
            for p in range(1, top + 1):
                oracle._kept_levels.clear()
                en = enumerate_order_ideals(n, p, kind)
                leaves = oracle._canonical_growth(n, p, None if kind is None else kind != STABLE)
                eager = tuple(OrderIdeal(frozenset(map(Term, terms)), n) for terms, _ in leaves)
                assert en.items == eager and en.items is en.items, (kind, p)
                assert list(en) == list(eager)

    @pytest.mark.parametrize("terms, message", [
        ({(0, 0), (0, 2)}, "closed"),  # (0, 1) missing
        ({(0, 0), (-1, 0)}, "closed"),  # no finite closed set has a negative exponent
        ({(0, 0), (0, 0, 0)}, "arity"),
    ])
    def test_unchecked_escalier_raises(self, monkeypatch, terms, message):
        leaf = (frozenset(terms), frozenset({(1, 0), (0, 1)}))
        monkeypatch.setattr(oracle, "_canonical_growth", lambda *a: [leaf])
        for call in (lambda: enumerate_order_ideals(2, 2),
                     lambda: count_by_definition(2, 2, STABLE)):
            with pytest.raises(ValueError, match=message):
                call()


class TestResumedGrowth:
    """Each growth goes on from the level the last one for its (n, class)
    reached; every call must still return what a fresh growth does."""

    # ascending p, a smaller p after a larger one, the other class, another n
    # and the unpruned enumeration, interleaved
    CALLS = [
        *((3, p, STABLE) for p in range(1, 10)),
        (3, 6, STABLE), (3, 9, STRONGLY_STABLE), (3, 10, STABLE), (3, 4, None),
        (2, 12, STABLE), (3, 11, STABLE), (3, 5, None), (3, 5, None), (2, 3, STABLE),
        (3, 10, STRONGLY_STABLE), (4, 6, STABLE), (3, 12, STABLE), (2, 14, STABLE),
        (3, 1, STABLE), (3, 7, None), (3, 12, STRONGLY_STABLE), (3, 2, STABLE),
    ]

    @staticmethod
    def fresh(n, p, kind):
        oracle._kept_levels.clear()
        return enumerate_order_ideals(n, p, kind)

    def test_interleaved_calls_match_fresh_growths(self):
        expected = {call: self.fresh(*call) for call in set(self.CALLS)}
        oracle._kept_levels.clear()
        for call in self.CALLS:
            en = enumerate_order_ideals(*call)
            assert en.items == expected[call].items, call
            assert en.generators == expected[call].generators, call
            n, p, kind = call
            assert oracle._kept_levels[n, None if kind is None else kind != STABLE][0] == p
        # one level per (n, class) that was grown
        assert len(oracle._kept_levels) == len({(n, kind) for n, _, kind in self.CALLS})

    def test_ascending_calls_grow_each_level_once(self, monkeypatch):
        grown = []
        original = oracle._grown_corners
        monkeypatch.setattr(oracle, "_grown_corners", lambda *a: grown.append(a) or original(*a))
        self.fresh(3, 12, STABLE)
        once = len(grown)
        grown.clear()
        oracle._kept_levels.clear()
        for p in range(1, 13):
            count_by_definition(3, p, STABLE)
        assert len(grown) == once
        grown.clear()
        count_by_definition(3, 11, STABLE)  # smaller: from the root again
        assert 0 < len(grown) < once


class TestDefinitionalCounts:
    def test_reference_values(self):
        assert count_by_definition(2, 10, STABLE) == 10
        assert count_by_definition(3, 10, STABLE) == 29
        assert count_by_definition(3, 10, STRONGLY_STABLE) == 24

    def test_two_vars_classes_coincide(self):
        for p in range(1, 21):
            assert count_by_definition(2, p, STABLE) == count_by_definition(
                2, p, STRONGLY_STABLE
            )

    def test_census_by_bar_list(self):
        per = census_by_definition(3, 10, STABLE)
        assert per[(10, 3, 2)] == 11 and per[(10, 4, 2)] == 6

    def test_unknown_class(self):
        with pytest.raises(ValueError):
            count_by_definition(2, 5, "borel")


class TestChains:
    def test_stable_codes_strict_admissible_codes_weak(self):
        for N in enumerate_order_ideals(3, 7):
            code = encode(N.terms)
            assert is_admissible(code)
            n = code.n
            tops = [length(code, n, j, n - 1) for j in range(1, code.mu(n) + 1)]
            assert all(a >= b for a, b in zip(tops, tops[1:]))
            if is_stable(minimal_generators(N)):
                assert all(a > b for a, b in zip(tops, tops[1:]))


class TestConjectureProbe:
    def test_trivial_p(self):
        for kind in (STABLE, STRONGLY_STABLE):
            report = conjecture_probe(1, kind)
            rows = {r.bar_list: (r.ideal_count, r.partition_count) for r in report.rows}
            assert rows == {(1, 1, 1, 1): (1, 1)}
        assert conjecture_probe(2, STABLE).all_agree

    def test_hook_bar_lists_match_Q(self):
        report = conjecture_probe(6, STABLE)
        by_bar = {row.bar_list: row for row in report.rows}
        for (p, h, k, l), row in by_bar.items():
            if k == 1 and l == 1:
                assert row.partition_count == count_Q(p, h)
                assert row.ideal_count == count_Q(p, h)

    def test_evidence_tables_agree_small(self):
        for p in range(1, 7):
            for kind in (STABLE, STRONGLY_STABLE):
                report = conjecture_probe(p, kind)
                ideal_total = count_by_definition(4, p, kind)
                assert sum(r.ideal_count for r in report.rows) == ideal_total
                assert report.all_agree, report.to_json()

    def test_partition_side_only_on_bar_lists(self, monkeypatch):
        # (p, h, k, l) is counted only when (h, k, l) is a three-variable
        # bar list; for any other triple no layer shape fits norm h
        seen = []
        original = oracle._partition_side_count
        def counted(bar, kind):
            seen.append(bar)
            return original(bar, kind)
        monkeypatch.setattr(oracle, "_partition_side_count", counted)
        for kind in (STABLE, STRONGLY_STABLE):
            seen.clear()
            conjecture_probe(7, kind)
            assert sorted(seen) == sorted(
                (7, h, k, l) for h in range(1, 8) for _, k, l in bar_lists_3vars(h))

    def test_json_document(self):
        doc = conjecture_probe(3, STRONGLY_STABLE).to_json()
        assert doc["vars"] == 4 and doc["class"] == "strongly-stable"
        assert all(set(r) == {"bar_list", "ideals", "partitions", "agree"}
                   for r in doc["rows"])

    def test_leaves_no_reference_cycles(self):
        enabled = gc.isenabled()
        gc.disable()
        try:
            gc.collect()
            for kind in (STABLE, STRONGLY_STABLE):
                conjecture_probe(5, kind)
                assert gc.collect() == 0, kind
        finally:
            if enabled:
                gc.enable()
