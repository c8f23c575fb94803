"""Star sets, Janet multiplicative variables, and Pommaret bases.

The star set of an order ideal N collects the terms just outside N whose
quotient by their minimal variable falls back into N.  It can be read off the
Bar Code (one term per last bar of each row plus one per block boundary) or
computed directly from the defining condition; both routes are implemented and
must agree.  For a finite escalier the star set is the Pommaret basis.
"""

from __future__ import annotations

from collections.abc import Iterable

from ._record import Record
from .barcode import BarCode, decode, is_admissible
from .monomials import (
    OrderIdeal,
    Term,
    border_terms,
    min_var,
    minimal_generators,
    p_operator,
)


class StarSet(Record):
    _fields = ("terms", "source")

    def __init__(self, terms: tuple[Term, ...], source: OrderIdeal):
        self.__dict__.update(terms=terms, source=source)  # terms Lex-ascending

    def __iter__(self):
        return iter(self.terms)

    def __len__(self):
        return len(self.terms)


def star_set_from_barcode(B: BarCode) -> StarSet:
    """Star set read off the Bar Code rows (Definition rules a and b)."""
    if not is_admissible(B):
        raise ValueError("Bar Code is not admissible")
    columns = decode(B)
    n = B.n
    found = set()
    for i in range(1, n + 1):
        # rule a: the last i-bar contributes x_i * P_{x_i} of any term over it
        start, _ = B.span(i, B.mu(i))
        found.add(p_operator(columns[start], i).times_var(i))
        if i == n:
            continue
        # rule b: consecutive i-bars split across different (i+1)-bars
        for j in range(1, B.mu(i)):
            here, _ = B.span(i, j)
            nxt, _ = B.span(i, j + 1)
            if B.bar_of_column(i + 1, here) != B.bar_of_column(i + 1, nxt):
                found.add(p_operator(columns[here], i).times_var(i))
    terms = tuple(sorted(found, key=Term.lex_key))
    return StarSet(terms, OrderIdeal.of(columns, n))


def star_set_direct(N: OrderIdeal) -> StarSet:
    """Star set from the definition: x^g outside N with x^g/min(x^g) inside."""
    found = [s for s in border_terms(N.terms, N.n) if s.predecessor(min_var(s)) in N]
    return StarSet(tuple(sorted(found, key=Term.lex_key)), N)


def multiplicative_vars(M: Iterable[Term], t: Term) -> set[int]:
    """Janet-multiplicative variable indices for t with respect to M.

    x_j is multiplicative unless some term of M agrees with t above index j
    and beats it at j.
    """
    ms = set(M)
    if t not in ms:
        raise ValueError("term does not belong to the set")
    out = set()
    for j in range(1, t.n + 1):
        blocked = any(
            s.deg(j) > t.deg(j)
            and s.exponents[j:] == t.exponents[j:]
            for s in ms
        )
        if not blocked:
            out.add(j)
    return out


def _cone_contains(t: Term, generator: Term, mult: set[int]) -> bool:
    if not generator.divides(t):
        return False
    return all(
        t.deg(j) == generator.deg(j)
        for j in range(1, t.n + 1)
        if j not in mult
    )


def is_stably_complete(M: Iterable[Term]) -> bool:
    """Complete with multiplicative sets exactly {x_i : x_i <= min(tau)}."""
    ms = set(M)
    if not ms:
        raise ValueError("empty term set")
    n = next(iter(ms)).n
    mult = {t: multiplicative_vars(ms, t) for t in ms}
    for t in ms:
        expected = set(range(1, min_var(t) + 1)) if not t.is_unit() else set()
        if mult[t] != expected:
            return False
    for t in ms:
        for j in range(1, n + 1):
            if j in mult[t]:
                continue
            moved = t.times_var(j)
            if not any(_cone_contains(moved, s, mult[s]) for s in ms):
                return False
    return True


def pommaret_basis(N: OrderIdeal) -> StarSet:
    """The unique stably complete generating set of the ideal below N."""
    star = star_set_direct(N)
    if not is_stably_complete(star.terms):
        raise AssertionError("star set failed the stably-complete check")
    return star


def is_stable_via_starset(N: OrderIdeal) -> bool:
    """Stability test through F(J) = G(J)."""
    return set(star_set_direct(N).terms) == set(minimal_generators(N).generators)
