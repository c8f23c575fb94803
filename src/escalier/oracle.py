"""Brute-force ground truth: exhaustive order-ideal enumeration, definitional
stability counts, and the four-variable conjecture probe.

Order ideals of a given size are generated canonically: grow from {1} and only
ever add a corner Lex-greater than everything present.  Removing the
Lex-maximum of any order ideal in reverse shows each one is produced exactly
once, so no deduplication pass is needed (a reverse search in the sense of
Avis and Fukuda).  The corners of an order ideal N are the terms outside N all
of whose predecessors lie in N: the terms that keep N closed when added, and
the minimal generators of the ideal whose escalier N is.  Each node of the
growth carries its corner set, updated by a few terms per step, so the
enumeration hands every order ideal over together with its generators and the
stability tests need no border rebuilt.

The definitional counts grow only the class they count.  Removing the
Lex-maximum m of a (strongly) stable order ideal N leaves one: m divides no
other term of N, and every move tau*x_j/x_i with j > i raises the Lex key, so
the moves of m lie outside N, in the ideal already.  A child outside the class
therefore has no descendant inside it and is dropped as soon as it is grown.
Whether it belongs is a set lookup per stability move of each corner, since a
move lies in the ideal exactly when it is not one of the node's terms.  Each
survivor is still counted only after the public stability test accepts it.

The growth resumes from the deepest level it has grown since it last started
from {1}.  For each number of variables and class (or none) it keeps one
level: the nodes (terms, Lex-maximum, corners) its last call reached, and
their size.  A call for a size at or above that one grows on from there; a
smaller size starts again from {1}, and its level replaces the kept one.  So
`verify`, which asks for every size up to its maximum in turn, grows each
level once, and every call still returns what a fresh growth does.

The probe compares per-bar-list definitional counts against brute-force counts
of strict / shifted solid partitions, which `partitions` enumerates layer shape
by layer shape; the layer shapes are the three-variable arrays of the class,
as `bijections` lists them.  It records evidence about the n = 4
correspondence; it proves nothing and is deliberately not wired into any
acceptance gate.
"""

from __future__ import annotations

import os
from collections import Counter
from functools import cached_property

from ._record import Record
from .barcode import bar_list, encode
from .bijections import _class_arrays
from .counting import STABLE, _check_kind, bar_lists_3vars
from .monomials import (
    MonomialIdeal,
    OrderIdeal,
    Term,
    _check_order_ideal,
    _stability_moves,
    _term_of,
    is_stable,
    is_strongly_stable,
)
from .partitions import enumerate_distinct, enumerate_solid_partitions, validate_solid

DEFAULT_CAPS = {1: 2000, 2: 24, 3: 12, 4: 8}
_CAP_ENV_PREFIX = "ESCALIER_ORACLE_CAP_N"


def oracle_cap(n: int) -> int:
    """Enumeration cap for n variables; override via ESCALIER_ORACLE_CAP_N<n>."""
    name = f"{_CAP_ENV_PREFIX}{n}"
    env = os.environ.get(name)
    if env is None:
        return DEFAULT_CAPS.get(n, 6)
    try:
        if int(env) >= 1:
            return int(env)
    except ValueError:
        pass
    raise ValueError(f"{name} must be a positive integer, not {env!r}")


def check_size(n: int, p: int) -> None:
    """ValueError unless 1 <= p <= the enumeration cap for n >= 1 variables."""
    if n < 1 or p < 1:
        raise ValueError("need n >= 1 and p >= 1")
    limit = oracle_cap(n)
    if p > limit:
        raise ValueError(f"p={p} exceeds the n={n} enumeration cap {limit}")


class EscalierEnumeration(Record):
    """Order ideals of one size, each with the minimal generators of the
    ideal it is the escalier of: generators[i] belongs to items[i].

    ``enumerate_order_ideals`` checks the escaliers and builds the generators
    at once, but keeps the escaliers as sets of exponent vectors and builds
    ``items`` on first read; ``len`` reads the generators."""

    _fields = ("n", "p", "items", "generators")

    def __init__(
        self, n: int, p: int, items: tuple[OrderIdeal, ...], generators: tuple[MonomialIdeal, ...]
    ):
        self.__dict__.update(n=n, p=p, items=items, generators=generators)

    @cached_property
    def items(self) -> tuple[OrderIdeal, ...]:
        term_of: dict[tuple[int, ...], Term] = {}
        return tuple(OrderIdeal(_as_terms(terms, term_of), self.n) for terms in self._escaliers)

    def __len__(self) -> int:
        return len(self.generators)

    def __iter__(self):
        return iter(self.items)


def _lex(e: tuple[int, ...]) -> tuple[int, ...]:
    return e[::-1]  # the Lex key of the term with exponent vector e


def _grown_corners(
    corners: frozenset[tuple[int, ...]], terms: frozenset[tuple[int, ...]], g: tuple[int, ...]
) -> frozenset[tuple[int, ...]]:
    """Corners of terms = N + {g}, given the corners of N, g among them.

    g stops being a corner; the only terms that can become one are the x_i*g,
    and each does when all of its predecessors lie in terms.
    """
    grown = set(corners)
    grown.remove(g)
    for i in range(len(g)):
        c = g[:i] + (g[i] + 1,) + g[i + 1:]
        if all(
            c[:j] + (c[j] - 1,) + c[j + 1:] in terms
            for j in range(len(c))
            if j != i and c[j]
        ):
            grown.add(c)
    return frozenset(grown)


def _in_class(
    terms: frozenset[tuple[int, ...]], corners: frozenset[tuple[int, ...]], strongly: bool
) -> bool:
    """Whether the ideal with these corners as generators is (strongly)
    stable: every move of a corner lies in it, i.e. outside terms."""
    return not any(
        moved in terms for c in corners for moved in _stability_moves(c, strongly)
    )


# (depth, nodes) of the last level grown for each (n, strongly).  A level holds
# only frozensets and tuples of exponent vectors, and a resumed level is the one
# a fresh growth reaches, so no call's result depends on the calls before it.
_kept_levels: dict[tuple[int, bool | None], tuple[int, list]] = {}


def _canonical_growth(
    n: int, p: int, strongly: bool | None = None
) -> list[tuple[frozenset, frozenset]]:
    """(terms, corners) of every order ideal of size p as exponent vectors,
    or with strongly set only of those whose ideal is strongly stable (True)
    or stable (False).

    Level by level, each node (terms, Lex-maximum, corners) gets one child per
    corner Lex-greater than its maximum, in Lex order, so the last level comes
    out in the depth-first order of the growth tree and no recursion depth
    grows with p.  A child outside the class is dropped at once: it has no
    descendant inside it.  The growth starts from the level kept for
    (n, strongly) when that is no deeper than p, from the root otherwise, and
    keeps level p in its place.
    """
    key = (n, strongly)
    kept = _kept_levels.get(key)
    if kept is not None and kept[0] <= p:
        depth, level = kept
    else:
        unit = (0,) * n
        firsts = frozenset(unit[:i] + (1,) + unit[i + 1:] for i in range(n))
        depth, level = 1, [(frozenset([unit]), unit, firsts)]
    for _ in range(p - depth):
        nxt = []
        for terms, top, corners in level:
            floor = _lex(top)
            for g in sorted((c for c in corners if _lex(c) > floor), key=_lex):
                grown = terms | {g}
                grown_corners = _grown_corners(corners, grown, g)
                if strongly is None or _in_class(grown, grown_corners, strongly):
                    nxt.append((grown, g, grown_corners))
        level = nxt
    _kept_levels[key] = (p, level)
    return [(terms, corners) for terms, _, corners in level]


def _as_terms(vectors, term_of: dict) -> frozenset[Term]:
    """The Terms of some exponent vectors, one Term per vector across calls."""
    return frozenset([_term_of(e, term_of) for e in vectors])


def enumerate_order_ideals(n: int, p: int, kind: str | None = None) -> EscalierEnumeration:
    """Every order ideal of cardinality p in n variables, exactly once, with
    the minimal generators of the ideal it is the escalier of.

    With kind STABLE or STRONGLY_STABLE only the escaliers of ideals in that
    class are grown and listed; they come in the order of the full
    enumeration.
    """
    if kind is not None:
        _check_kind(kind)
    check_size(n, p)
    leaves = _canonical_growth(n, p, None if kind is None else kind != STABLE)
    for terms, _ in leaves:
        _check_order_ideal(terms, n)  # what OrderIdeal checks, before any is built
    term_of: dict[tuple[int, ...], Term] = {}
    generators = tuple(
        MonomialIdeal(_as_terms(corners, term_of), n) for _, corners in leaves
    )
    en = EscalierEnumeration.__new__(EscalierEnumeration)  # items: built on first read
    en.__dict__.update(n=n, p=p, generators=generators, _escaliers=tuple(t for t, _ in leaves))
    return en


def _stability_test(kind: str):
    _check_kind(kind)
    return is_stable if kind == STABLE else is_strongly_stable


def count_by_definition(n: int, p: int, kind: str) -> int:
    """Definitional census: the escaliers grown in the class, each counted
    once it passes the public stability test."""
    passes = _stability_test(kind)
    en = enumerate_order_ideals(n, p, kind)
    return sum(1 for gens in en.generators if passes(gens))


def census_by_definition(n: int, p: int, kind: str) -> Counter:
    """Counts keyed by the bar list of each surviving escalier's Bar Code."""
    passes = _stability_test(kind)
    en = enumerate_order_ideals(n, p, kind)
    per: Counter = Counter()
    for N, gens in zip(en.items, en.generators):
        if passes(gens):
            per[bar_list(encode(N.terms))] += 1
    return per


def _partition_side_count(bar: tuple[int, int, int, int], kind: str) -> int:
    p, h, k, l = bar
    solid_kind = "strict" if kind == STABLE else "shifted"
    total = 0
    for shape in enumerate_distinct(k, l):
        for pp in _class_arrays(shape, kind, h):
            for solid in enumerate_solid_partitions(solid_kind, pp.rows, p):
                if not validate_solid(solid):
                    raise AssertionError(f"enumerated invalid solid {solid}")
                total += 1
    return total


class ProbeRow(Record):
    _fields = ("bar_list", "ideal_count", "partition_count")

    def __init__(self, bar_list: tuple[int, ...], ideal_count: int, partition_count: int):
        self.__dict__.update(
            bar_list=bar_list, ideal_count=ideal_count, partition_count=partition_count
        )

    @property
    def agree(self) -> bool:
        return self.ideal_count == self.partition_count


class ConjectureReport(Record):
    _fields = ("p", "kind", "rows")

    def __init__(self, p: int, kind: str, rows: tuple[ProbeRow, ...]):
        self.__dict__.update(p=p, kind=kind, rows=rows)

    @property
    def all_agree(self) -> bool:
        return all(row.agree for row in self.rows)

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "vars": 4,
            "class": self.kind.replace("_", "-"),
            "rows": [
                {
                    "bar_list": list(r.bar_list),
                    "ideals": r.ideal_count,
                    "partitions": r.partition_count,
                    "agree": r.agree,
                }
                for r in self.rows
            ],
            "all_agree": self.all_agree,
        }


def conjecture_probe(p: int, kind: str) -> ConjectureReport:
    """Evidence table for the four-variable correspondence at one value of p.

    Each row compares the definitional ideal count for a bar list against the
    matching solid-partition count.  Disagreement is recorded, not raised: for
    n >= 4 the correspondence is conjectural and the array definitions leave
    the index ranges open to interpretation.
    """
    ideal_side = census_by_definition(4, p, kind)
    bars = set(ideal_side)
    partition_side = {}
    for h in range(1, p + 1):
        for _, k, l in bar_lists_3vars(h):
            bar = (p, h, k, l)
            count = _partition_side_count(bar, kind)
            if count:
                partition_side[bar] = count
    bars |= set(partition_side)
    rows = tuple(
        ProbeRow(bar, ideal_side.get(bar, 0), partition_side.get(bar, 0))
        for bar in sorted(bars, key=lambda b: (b[3], b[2], b[1]))
    )
    return ConjectureReport(p, kind, rows)
