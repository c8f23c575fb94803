"""Terms, the Lex order, order ideals, minimal generators, and stability tests.

Variables are x_1 < x_2 < ... < x_n.  A term is identified with its exponent
vector, so x_1^2*x_3 in three variables is the tuple (2, 0, 1).  Variable
indices in the public API are 1-based throughout, matching the subscripts.

Everything here is immutable and pure; these predicates are the ground truth
the Bar Code and counting machinery is checked against.
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Iterator, Set
from functools import cached_property
from itertools import product
from operator import le

from ._record import Record

LESS, EQUAL, GREATER = -1, 0, 1

_ESCALIER_CAP = 10**6  # refuse to materialize absurdly large staircases
_EXPONENT_CAP = 10**6  # no meaningful input gets anywhere near this

_TERM_FACTOR = re.compile(r"^x(\d+)(?:\^(\d+))?$")


class Term(Record):
    """A monomial, stored as its exponent vector."""

    _fields = ("exponents",)

    def __init__(self, exponents: tuple[int, ...]):
        self.__dict__["exponents"] = exponents
        if not exponents:
            raise ValueError("term needs at least one variable")
        if min(exponents) < 0:
            raise ValueError(f"negative exponent in {exponents}")

    @property
    def n(self) -> int:
        return len(self.exponents)

    @property
    def degree(self) -> int:
        return sum(self.exponents)

    def deg(self, h: int) -> int:
        """Exponent of x_h, h 1-based."""
        return self.exponents[h - 1]

    def is_unit(self) -> bool:
        return not any(self.exponents)

    def lex_key(self) -> tuple[int, ...]:
        # Lex with x_1 < ... < x_n compares the highest-index differing
        # exponent, i.e. the reversed exponent vector lexicographically.
        return tuple(reversed(self.exponents))

    def mul(self, other: Term) -> Term:
        self._check_arity(other)
        return Term(tuple(a + b for a, b in zip(self.exponents, other.exponents)))

    def times_var(self, i: int) -> Term:
        e = list(self.exponents)
        e[i - 1] += 1
        return Term(tuple(e))

    def predecessor(self, i: int) -> Term:
        """The term tau/x_i; requires x_i | tau."""
        if self.exponents[i - 1] == 0:
            raise ValueError(f"x{i} does not divide {self}")
        e = list(self.exponents)
        e[i - 1] -= 1
        return Term(tuple(e))

    def divides(self, other: Term) -> bool:
        a, b = self.exponents, other.exponents
        if len(a) != len(b):  # map would stop at the shorter vector
            raise ValueError(f"arity mismatch: {len(a)} vs {len(b)}")
        return all(map(le, a, b))

    def _check_arity(self, other: Term):
        if self.n != other.n:
            raise ValueError(f"arity mismatch: {self.n} vs {other.n}")

    def __lt__(self, other: Term) -> bool:
        self._check_arity(other)
        return self.lex_key() < other.lex_key()

    def __le__(self, other: Term) -> bool:
        self._check_arity(other)
        return self.lex_key() <= other.lex_key()

    def __gt__(self, other: Term) -> bool:
        return not self <= other

    def __ge__(self, other: Term) -> bool:
        return not self < other

    def __str__(self) -> str:
        return format_term(self)

    def __repr__(self) -> str:
        return f"Term({self.exponents!r})"


def term(*exponents: int) -> Term:
    """Shorthand constructor: term(1, 0, 2) is x_1*x_3^2."""
    return Term(tuple(exponents))


def parse_term(text: str, n: int | None = None) -> Term:
    """Parse 'x1^a*x2^b*...' (unit exponents omitted) or '1' for the unit.

    The arity is inferred from the largest variable index unless given.
    """
    text = text.strip()
    if not text:
        raise ValueError("empty term")
    exps: dict[int, int] = {}
    if text != "1":
        for factor in text.split("*"):
            m = _TERM_FACTOR.match(factor.strip())
            if not m:
                raise ValueError(f"malformed term factor {factor!r}")
            idx = int(m.group(1))
            if idx < 1:
                raise ValueError(f"variable index must be >= 1 in {factor!r}")
            exps[idx] = exps.get(idx, 0) + int(m.group(2) or 1)
            if exps[idx] > _EXPONENT_CAP:
                raise ValueError(f"exponent of x{idx} exceeds the cap")
    arity = n if n is not None else max(exps, default=1)
    if exps and max(exps) > arity:
        raise ValueError(f"variable x{max(exps)} exceeds arity {arity}")
    return Term(tuple(exps.get(i, 0) for i in range(1, arity + 1)))


def format_term(t: Term) -> str:
    parts = []
    for i, e in enumerate(t.exponents, start=1):
        if e == 1:
            parts.append(f"x{i}")
        elif e > 1:
            parts.append(f"x{i}^{e}")
    return "*".join(parts) if parts else "1"


def lex_compare(t1: Term, t2: Term) -> int:
    """Lex order induced by x_1 < ... < x_n; returns -1, 0 or 1."""
    t1._check_arity(t2)
    k1, k2 = t1.lex_key(), t2.lex_key()
    if k1 < k2:
        return LESS
    if k1 > k2:
        return GREATER
    return EQUAL


def p_operator(t: Term, i: int) -> Term:
    """Truncation keeping only the exponents of x_i, ..., x_n."""
    if not 1 <= i <= t.n:
        raise ValueError(f"variable index {i} out of range 1..{t.n}")
    return Term((0,) * (i - 1) + t.exponents[i - 1:])


def min_var(t: Term) -> int:
    """Index of the smallest variable dividing t; undefined for the unit."""
    for i, e in enumerate(t.exponents, start=1):
        if e > 0:
            return i
    raise ValueError("the unit term has no minimal variable")


def _check_uniform(terms: Iterable[Term]) -> int | None:
    arity = None
    for t in terms:
        if arity is None:
            arity = t.n
        elif t.n != arity:
            raise ValueError("mixed arities in term set")
    return arity


def _term_of(e: tuple[int, ...], seen: dict) -> Term:
    """The Term of exponent vector e, one Term per vector across calls with
    the same dict ``seen``; Terms are immutable, so sharing one changes no
    equality, hash or order."""
    return seen.get(e) or seen.setdefault(e, Term(e))


def is_order_ideal(terms: Iterable[Term]) -> bool:
    """True iff the set is closed under taking predecessors (divisor-closed)."""
    ts = set(terms)
    _check_uniform(ts)
    return _is_closed({t.exponents for t in ts})


def _is_closed(vectors: Set[tuple[int, ...]]) -> bool:
    for v in vectors:
        for i, e in enumerate(v):
            if e and v[:i] + (e - 1,) + v[i + 1:] not in vectors:
                return False
    return True


def _check_order_ideal(vectors: Set[tuple[int, ...]], n: int) -> None:
    """ValueError unless the exponent vectors all have arity n and are closed
    under division, which also rules out negative exponents."""
    if not {n}.issuperset(map(len, vectors)):
        raise ValueError("term arity differs from ambient arity")
    if not _is_closed(vectors):
        raise ValueError("set is not closed under division")


class OrderIdeal(Record):
    """A finite divisor-closed set of terms (a Groebner escalier)."""

    _fields = ("terms", "n")

    def __init__(self, terms: frozenset[Term], n: int):
        self.__dict__.update(terms=terms, n=n)
        _check_order_ideal({t.exponents for t in terms}, n)

    @classmethod
    def of(cls, terms: Iterable[Term], n: int | None = None) -> OrderIdeal:
        ts = frozenset(terms)
        arity = _check_uniform(ts)
        if arity is None and n is None:
            raise ValueError("empty order ideal needs an explicit arity")
        return cls(ts, n if n is not None else arity)

    def __len__(self) -> int:
        return len(self.terms)

    def __contains__(self, t: Term) -> bool:
        return t in self.terms

    def __iter__(self) -> Iterator[Term]:
        return iter(self.terms)

    def sorted(self) -> list[Term]:
        return sorted(self.terms, key=Term.lex_key)


class MonomialIdeal(Record):
    """A monomial ideal, held by its minimal generating set.

    ``generators`` may also be a tuple, which must already be in Lex order
    (``Term.lex_key``) with no repeats; the listings build their generators in
    that order and hand them over this way.  The tuple is kept, ``len`` reads
    it and ``sorted()`` returns it without a key call.  The frozenset field
    that equality and hashing read is then built on first use and kept in the
    instance dict, so the ideal equals, and hashes as, the one built from that
    frozenset.  A frozenset-built ideal sorts on its first ``sorted()`` and
    keeps the tuple.
    """

    _fields = ("generators", "n")

    def __init__(self, generators: frozenset[Term] | tuple[Term, ...], n: int):
        self.__dict__.update(n=n)
        self.__dict__["_lex" if type(generators) is tuple else "generators"] = generators

    @cached_property
    def generators(self) -> frozenset[Term]:
        return frozenset(self._lex)

    @cached_property
    def _lex(self) -> tuple[Term, ...]:
        return tuple(sorted(self.generators, key=Term.lex_key))

    @classmethod
    def of(cls, terms: Iterable[Term], n: int | None = None) -> MonomialIdeal:
        """Build from any generating set; redundant generators are dropped."""
        ts = set(terms)
        arity = _check_uniform(ts)
        if arity is None and n is None:
            raise ValueError("empty monomial ideal needs an explicit arity")
        minimal = {t for t in ts if not any(s != t and s.divides(t) for s in ts)}
        return cls(frozenset(minimal), n if n is not None else arity)

    def __contains__(self, t: Term) -> bool:
        # membership in the semigroup ideal: divisible by some generator
        return any(g.divides(t) for g in self.generators)

    def __len__(self) -> int:
        d = self.__dict__
        return len(d["_lex"] if "_lex" in d else d["generators"])

    def sorted(self) -> list[Term]:
        return list(self._lex)


def border_terms(terms: Set[Term], n: int) -> set[Term]:
    """{x_i * tau : tau in terms, 1 <= i <= n} minus terms.

    Works on a raw set of n-variable terms, with no divisor-closure check.
    """
    return {
        s
        for t in terms
        for s in map(t.times_var, range(1, n + 1))
        if s not in terms
    }


def corner_terms(terms: Set[Term], n: int) -> set[Term]:
    """The border terms all of whose predecessors lie in terms.

    For a divisor-closed set these are the terms that keep it closed when
    added, and the minimal generators of the ideal it is the escalier of.
    """
    return {
        c
        for c in border_terms(terms, n)
        if all(c.predecessor(i) in terms for i in range(1, n + 1) if c.deg(i) > 0)
    }


def minimal_generators(N: OrderIdeal) -> MonomialIdeal:
    """The monomial basis of the ideal whose escalier is N.

    These are the terms outside N all of whose predecessors lie in N.
    """
    if not N.terms:
        return MonomialIdeal(frozenset([Term((0,) * N.n)]), N.n)
    return MonomialIdeal(frozenset(corner_terms(N.terms, N.n)), N.n)


def border_set(N: OrderIdeal) -> frozenset[Term]:
    """B(I) = {x_h * tau : tau in N} \\ N, or {1} for the empty escalier."""
    if not N.terms:
        return frozenset([Term((0,) * N.n)])
    return frozenset(border_terms(N.terms, N.n))


def escalier(I: MonomialIdeal) -> OrderIdeal:
    """The complement N(I), finite exactly when I is zero-dimensional."""
    bounds = []
    for i in range(1, I.n + 1):
        pure = [g.deg(i) for g in I.generators if g.degree == g.deg(i)]
        if not pure:
            raise ValueError(f"no pure power of x{i}: the escalier is infinite")
        bounds.append(min(pure))
    size = 1
    for b in bounds:
        size *= b
    if size > _ESCALIER_CAP:
        raise ValueError(f"escalier bounding box has {size} cells, above the cap")
    terms = {
        Term(e) for e in product(*(range(b) for b in bounds)) if Term(e) not in I
    }
    return OrderIdeal(frozenset(terms), I.n)


def _stability_moves(e: tuple[int, ...], strongly: bool) -> Iterator[tuple[int, ...]]:
    """Exponent vectors of the moves tau*x_j/x_i, x_j > x_i, asked of tau = x^e.

    A stable ideal needs them from x_i = min(tau) only, a strongly stable one
    from every x_i dividing tau.  The unit has none.
    """
    n = len(e)
    for i in range(n):
        if e[i]:
            down = e[:i] + (e[i] - 1,) + e[i + 1:]
            for j in range(i + 1, n):
                yield down[:j] + (down[j] + 1,) + down[j + 1:]
            if not strongly:
                return


def is_stable(I: MonomialIdeal) -> bool:
    """Ideal membership of x_j*tau/min(tau) for generators tau, x_j > min(tau)."""
    if not I.generators:
        raise ValueError("empty generator set")
    return all(
        Term(moved) in I
        for g in I.generators
        for moved in _stability_moves(g.exponents, False)
    )


def is_strongly_stable(I: MonomialIdeal) -> bool:
    """Ideal membership of tau*x_j/x_i for generators tau, x_i | tau, x_j > x_i."""
    if not I.generators:
        raise ValueError("empty generator set")
    return all(
        Term(moved) in I
        for g in I.generators
        for moved in _stability_moves(g.exponents, True)
    )
