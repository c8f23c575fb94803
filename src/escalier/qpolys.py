"""Exact integer-coefficient polynomials, Gaussian binomials, polynomial
determinants and Pfaffians, and the two determinantal norm generating
functions.

Polynomials are dense coefficient lists over Python integers (index = degree,
trailing zeros stripped).  A polynomial may carry a truncation degree T, in
which case all arithmetic happens modulo x^(T+1); the counting pipelines use
this to cap work at the one coefficient they consume, and truncated results
agree with full arithmetic up to degree T.

Gaussian binomials are built in place on one coefficient list by additions
alone, one factor (1-x^m)/(1-x^i) at a time: each partial product is itself a
Gaussian binomial, a polynomial of degree at most the final one, so the
power-series division by 1-x^i is exact on the kept coefficients.  The
censuses instead read theirs from gauss_table, one table per p of every
G(n, k) mod x^(p+1), built by q-Pascal and packed at one width for both
classes: one bit more than the bit length of the number of plane partitions
of p, which bounds every coefficient up to x^p of either class's generating
functions.  gf_strict_coefficient takes a stable shape's count as one digit
of one packed determinant on that table, and gf_shifted_sum_coefficient takes
a strongly stable shape's as one digit of one packed Pfaffian, whose entries
come from hockey-stick sums kept per p beside the table.

Every determinant takes one route.  Its entries are named (power, n, k),
meaning x^power G(n, k), where the power may be negative.  Each row's least
power over its nonzero entries (_row_bases) is factored out of it, and the
collected power t is reapplied at the end.  gf_strict and gf_shifted work
modulo x^(top+1), top the degree bound clipped to T - t, T their truncation
degree, and ask each Gaussian binomial only for the degree its place reaches;
_packed_det packs the entries into Python integers by x -> 2^B (Kronecker
substitution), so the memoised cofactor expansion (_minor) runs on plain
integers and CPython's Karatsuba does the products.  Each entry reaches _minor
as its packed value and its power apart, and _minor keeps of every minor only
the digits that can still reach x^top: the minor on a column set S is
multiplied by entries of the rows above it, which carry at least x^P(S)
together, so it is taken mod x^(top+1-P(S)), and its own terms carry at least
x^Q(S), which is factored out.  That is exact because P(S - c) <= P(S) + e for
every entry x^e g that multiplies the minor on S - c, so each minor holds
every digit its parent reads.  det is the same route with every power 0.  The
stable census writes gf_strict's matrix in closed form, every power >= 0, with
entries from gauss_table.  gf_shifted_sum_coefficient takes a whole sum of
shifted determinants, one per first-part vector, as a single Pfaffian (the
minor summation formula) on the same kind of packed integers.
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import lru_cache
from math import prod

_Entries = list[list[tuple[int, int, int]]]


class IntPoly:
    """Dense univariate polynomial over arbitrary-precision integers, the
    result type of gauss_binomial, det and the generating functions.
    __mul__ and exact_div have no caller here; bench/tracing.py wraps them."""

    __slots__ = ("coeffs", "trunc")

    def __init__(self, coeffs: Sequence[int] = (), trunc: int | None = None):
        cs = list(coeffs)
        if trunc is not None:
            if trunc < 0:
                raise ValueError("truncation degree must be non-negative")
            del cs[trunc + 1:]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)
        self.trunc = trunc

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls, trunc: int | None = None) -> IntPoly:
        return cls((), trunc)

    @classmethod
    def const(cls, v: int, trunc: int | None = None) -> IntPoly:
        return cls((v,), trunc)

    # -- basic structure -------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self.coeffs) - 1

    def coefficient(self, k: int) -> int:
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return 0

    def __eq__(self, other) -> bool:
        return isinstance(other, IntPoly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __bool__(self) -> bool:
        return not self.is_zero()

    @staticmethod
    def _join_trunc(a: int | None, b: int | None) -> int | None:
        if a is None:
            return b
        if b is None:
            return a
        return min(a, b)

    # -- arithmetic ------------------------------------------------------

    def __mul__(self, other: IntPoly) -> IntPoly:
        trunc = self._join_trunc(self.trunc, other.trunc)
        if self.is_zero() or other.is_zero():
            return IntPoly.zero(trunc)
        limit = len(self.coeffs) + len(other.coeffs) - 1
        if trunc is not None:
            limit = min(limit, trunc + 1)
        cs = [0] * limit
        for i, a in enumerate(self.coeffs):
            if a == 0 or i >= limit:
                continue
            for j, b in enumerate(other.coeffs):
                if i + j >= limit:
                    break
                cs[i + j] += a * b
        return IntPoly(cs, trunc)

    def shift(self, k: int) -> IntPoly:
        """Multiply by x^k; negative k divides and requires divisibility."""
        if k >= 0:
            return IntPoly((0,) * k + self.coeffs, self.trunc)
        if any(self.coeffs[:-k]):
            raise ValueError(f"polynomial is not divisible by x^{-k}")
        return IntPoly(self.coeffs[-k:], self.trunc)

    def truncated(self, trunc: int | None) -> IntPoly:
        return IntPoly(self.coeffs, trunc)

    def exact_div(self, other: IntPoly) -> IntPoly:
        """Exact quotient; raises if the division leaves a remainder.

        Untruncated operands use classical long division.  Truncated ones use
        power-series division from the constant term up, which needs the
        divisor to start with a unit, such as 1 - x^i.
        """
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        trunc = self._join_trunc(self.trunc, other.trunc)
        if trunc is None:
            rem = list(self.coeffs)
            dcs = other.coeffs
            dn = len(dcs) - 1
            lead = dcs[-1]
            qn = len(rem) - 1 - dn
            if qn < 0:
                if any(rem):
                    raise ValueError("inexact polynomial division")
                return IntPoly.zero()
            q = [0] * (qn + 1)
            for k in range(qn, -1, -1):
                head = rem[k + dn]
                if head % lead:
                    raise ValueError("inexact polynomial division")
                q[k] = head // lead
                if q[k]:
                    for j, dc in enumerate(dcs):
                        rem[k + j] -= q[k] * dc
            if any(rem):
                raise ValueError("inexact polynomial division")
            return IntPoly(q)
        unit = other.coefficient(0)
        if unit not in (1, -1):
            raise ValueError("truncated division needs a unit constant term")
        q = [0] * (trunc + 1)
        for k in range(trunc + 1):
            acc = self.coefficient(k)
            for j in range(1, min(k, other.degree) + 1):
                acc -= other.coefficient(j) * q[k - j]
            q[k] = acc * unit  # divide by +-1
        return IntPoly(q, trunc)

    # -- io ----------------------------------------------------------------

    def to_json(self) -> dict:
        return {"coeffs": [str(c) for c in self.coeffs]}

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if k == 0:
                parts.append(str(c))
            else:
                mono = "x" if k == 1 else f"x^{k}"
                if c == 1:
                    parts.append(mono)
                elif c == -1:
                    parts.append(f"-{mono}")
                else:
                    parts.append(f"{c}*{mono}")
        return " + ".join(parts).replace("+ -", "- ")

    def __repr__(self) -> str:
        return f"IntPoly({list(self.coeffs)!r})"


@lru_cache(maxsize=4096)
def gauss_binomial(n: int, k: int, trunc: int | None = None) -> IntPoly:
    """The Gaussian polynomial [n]! / ([k]! [n-k]!) in the variable x.

    Total by convention: 1 for k = 0 (any n), 0 whenever k < 0 or n < k.
    Cached for the repeated calls of one process, which the tests make; no CLI
    request reads an entry twice.  The cache stays since bench/tracing.py
    reads its cache_info.  IntPoly is immutable, so sharing results is safe.
    The censuses read their entries from gauss_table instead.
    """
    if k == 0:
        return IntPoly.const(1, trunc)
    if k < 0 or n < k:
        return IntPoly.zero(trunc)
    k = min(k, n - k)
    top = k * (n - k) if trunc is None else min(trunc, k * (n - k))
    c = [1] + [0] * top
    for i in range(1, k + 1):
        m = n - i + 1
        for j in range(top, m - 1, -1):  # times 1 - x^m
            c[j] -= c[j - m]
        for j in range(i, top + 1):  # divided by 1 - x^i
            c[j] += c[j - i]
    return IntPoly(c, trunc)


def _plane_partition_count(n: int) -> int:
    """The number of plane partitions of n, by MacMahon's recurrence
    n pp(n) = sum over k of sigma_2(k) pp(n - k), with sigma_2(k) the sum of
    the squares of the divisors of k."""
    sigma2 = [0] * (n + 1)
    for d in range(1, n + 1):
        for m in range(d, n + 1, d):
            sigma2[m] += d * d
    pp = [1]
    for m in range(1, n + 1):
        pp.append(sum(sigma2[k] * pp[m - k] for k in range(1, m + 1)) // m)
    return pp[n]


@lru_cache(maxsize=1)
def gauss_table(p: int) -> tuple[int, list[list[int]]]:
    """Every Gaussian binomial G(n, k) mod x^(p+1) with 0 <= k <= n/2 <= p/2,
    packed at x = 2^width, as (width, rows) with rows[n][k] = G(n, k).

    Built bottom-up by q-Pascal, G(n, k) = G(n-1, k-1) + x^k G(n-1, k), with
    G(n-1, k) = G(n-1, n-1-k): one shift, one add and one mask per entry.
    The width is one bit more than the bit length of the number of plane
    partitions of p.  It is exact for every packed determinant or Pfaffian
    the censuses take at p: each digit they read is a coefficient, at a norm
    n <= p, of a generating function of arrays with positive entries whose
    rows and columns decrease (a shifted array read left-justified), so each
    array is a distinct plane partition of n, and there are at most as many
    as plane partitions of p.
    """
    width = _plane_partition_count(p).bit_length() + 1
    mask = (1 << (p + 1) * width) - 1
    rows = [[1]]
    for n in range(1, p + 1):
        prev = rows[-1]
        rows.append([1] + [
            (prev[k - 1] + (prev[min(k, n - 1 - k)] << k * width)) & mask
            for k in range(1, n // 2 + 1)
        ])
    return width, rows


def _table_entry(rows: list[list[int]], n: int, k: int) -> int:
    """G(n, k) from gauss_table's rows, total like gauss_binomial."""
    if k == 0:
        return 1
    if k < 0 or n < k:
        return 0
    return rows[n][min(k, n - k)]


def det(matrix: Sequence[Sequence[IntPoly]]) -> IntPoly:
    """Exact determinant of a square polynomial matrix, modulo x^(T+1) with T
    the least truncation degree among the entries, which the result carries;
    whole if no entry is truncated."""
    r = len(matrix)
    if r == 0 or any(len(row) != r for row in matrix):
        raise ValueError("determinant needs a non-empty square matrix")
    truncs = [e.trunc for row in matrix for e in row if e.trunc is not None]
    trunc = min(truncs) if truncs else None
    return IntPoly(_packed_det([[(0, e) for e in row] for row in matrix], trunc), trunc)


def _packed_det(rows: list[list[tuple[int, IntPoly]]], top: int | None) -> list[int]:
    """The coefficients up to x^top of the determinant of the matrix of
    entries x^e poly, given as rows of (e, poly) with e >= 0 where poly is
    nonzero.  top (None: no cap) is clipped to the sum over rows of the
    row's largest entry degree, a bound on the degree.

    The ring map x -> 2^B takes Z[x]/(x^(top+1)) onto Z/2^((top+1)B), so
    each poly is packed once into an integer, unshifted, and _minor takes
    the determinant on those, with no division.  Each coefficient of the
    determinant is at most the permanent of the entries' norms (sums of |c|
    over degrees <= top), hence at most the product over rows of each row's
    summed norms.  B is one bit more than that product's bit length, so each
    coefficient is one digit of the result in balanced base 2^B: _minor's
    value is congruent to the determinant mod x^(top+1), which fixes those
    digits.
    """
    reach = sum(max((e + poly.degree for e, poly in row if poly), default=0) for row in rows)
    top = reach if top is None else min(top, reach)
    bound = prod(sum(sum(map(abs, poly.coeffs[: top + 1 - e])) for e, poly in row) for row in rows)
    width = bound.bit_length() + 1
    mask = (1 << (top + 1) * width) - 1
    packed = [
        [(e, _pack(poly.coeffs[: top + 1 - e], width) & mask) if poly and e <= top else (0, 0)
         for e, poly in row]
        for row in rows
    ]
    return _unpack(_minor(packed, top, width), top + 1, width)


def _pack(coeffs: Sequence[int], width: int) -> int:
    """The polynomial with these coefficients evaluated at x = 2^width:
    neighbours join pairwise, c + d x, and x squares each round, so each
    round costs time linear in the result's size."""
    values = list(coeffs)
    while len(values) > 1:
        if len(values) % 2:
            values.append(0)
        values = [low + (high << width) for low, high in zip(values[::2], values[1::2])]
        width *= 2
    return values[0] if values else 0


def _unpack(value: int, count: int, width: int) -> list[int]:
    """The first count digits of value in balanced base 2^width, lowest
    first: each digit is the residue of value mod 2^width in
    [-2^(width-1), 2^(width-1)), and value moves on to (value - digit) / 2^width.
    Adding 2^(width-1) to each digit, as _digit does, makes them all
    nonnegative, so they are the width-bit fields of one binary string, read
    below a leading 1 that keeps the string's length fixed."""
    half = 1 << (width - 1)
    size = count * width
    offset = int(format(half, "b") * count or "0", 2)
    bits = format(((value + offset) & ((1 << size) - 1)) | (1 << size), "b")
    return [int(bits[i - width:i], 2) - half for i in range(size + 1, 1, -width)]


def _digit(value: int, index: int, width: int) -> int:
    """Digit index of value in balanced base 2^width, as _unpack reads it.
    Adding 2^(width-1) to each digit below it makes those digits
    nonnegative, so they no longer borrow from it."""
    shift = index * width
    ones = ((1 << shift) - 1) // ((1 << width) - 1)  # sum of 2^(j*width), j < index
    digit = ((value + (ones << (width - 1))) >> shift) & ((1 << width) - 1)
    return digit - (1 << width) if digit >> (width - 1) else digit


def _minor(rows: list[list[tuple[int, int]]], top: int, width: int) -> int:
    """A value congruent mod x^(top+1) to the determinant of the matrix of
    entries x^e g, given as rows of (e, g) with g packed at width and e >= 0
    where g is nonzero (g = 0 is a zero entry), by cofactor expansion along
    the first row, memoised over the minors on the last |S| rows and a
    column set S.

    Each minor keeps only the digits that can still reach x^top.  From
    above: the minor on S is multiplied by entries of the rows above it,
    which take the other columns, so it carries at least x^P(S), with P(S)
    the least sum of their powers over the ways those rows can take those
    columns through nonzero entries.  One pass over the column masks in
    decreasing numeric order fills P, from P(all) = 0 by P(S - c) =
    min(P(S - c), P(S) + e) over the nonzero entries x^e g in row r - |S|:
    removing a column always gives a smaller mask, so every parent comes
    first.  The minor on S is then taken mod x^(top+1-P(S)), d digits, and a
    term with e >= d is left out.  From below: the terms of the minor on S
    carry at least x^Q(S), Q(S) the least of e + Q(S - c) over them, so it is
    kept as x^Q(S) times a value of d - Q(S) digits, and each term multiplies
    g and the kept value on S - c, both cut to the d - e - Q(S - c) digits
    that survive their shift.

    That is exact because P(S - c) <= P(S) + e: the minor on S - c holds
    d(S - c) >= d - e digits, every digit its parent reads.  If P(empty) >
    top, no term reaches x^top and the value is 0 without an expansion.
    Each minor is cut to its digits once its terms are summed, so cutting a
    term's factors, and a product before its shift, only saves time; a
    factor already that short is left as it is, since a cut copies it.
    """
    r = len(rows)
    full = (1 << r) - 1
    least = [top + 1] * (full + 1)  # P, with top + 1 standing for "beyond x^top"
    least[full] = 0
    for colmask in range(full, 0, -1):
        base = least[colmask]
        if base > top:
            continue
        row = rows[r - bin(colmask).count("1")]
        for col in range(r):
            bit = 1 << col
            if colmask & bit:
                e, g = row[col]
                if g and base + e < least[colmask ^ bit]:
                    least[colmask ^ bit] = base + e
    if least[0] > top:
        return 0
    minors = {0: (0, 1)}  # colmask: (Q, the minor / x^Q mod x^(top+1-P-Q))
    keeps: dict[int, int] = {}  # 2^bits - 1 for each bits, built once per call
    for colmask in range(1, full + 1):
        digits = top + 1 - least[colmask]
        if digits <= 0:
            continue
        row = rows[r - bin(colmask).count("1")]
        low = digits
        acc = 0
        sign = 1
        for col in range(r):
            bit = 1 << col
            if not colmask & bit:
                continue
            e, g = row[col]
            if g and e < digits:
                q, minor = minors[colmask ^ bit]
                power = e + q
                if power < digits:
                    span = (digits - power) * width
                    keep = keeps.get(span) or keeps.setdefault(span, (1 << span) - 1)
                    if minor.bit_length() > span:
                        minor &= keep
                    if g.bit_length() > span:
                        g &= keep
                    term = g * minor
                    if power:  # a shift by 0 would still copy
                        term = (term & keep) << power * width
                    acc = acc + term if sign > 0 else acc - term
                    if power < low:
                        low = power
            sign = -sign
        if low:  # every term is a multiple of x^low, so the shift divides exactly
            acc >>= low * width
        span = (digits - low) * width
        minors[colmask] = low, acc & (keeps.get(span) or keeps.setdefault(span, (1 << span) - 1))
    low, value = minors[full]
    return value << low * width


def _pfaffian(packed: list[list[int]], rowmask: int, cache: dict[int, int], mask: int) -> int:
    """Packed Pfaffian, reduced by mask, of the skew matrix packed restricted
    to the rows and columns in rowmask, expanded along its lowest row i:
    the sum over the other rows j in rowmask, the n-th of them with sign
    (-1)^(n-1), of packed[i][j] times the Pfaffian without i and j.  Only
    entries above the diagonal are read.  An odd rowmask gives 0.
    Module-level, not nested in its caller, so that no reference cycle keeps
    the cache alive."""
    if rowmask == 0:
        return 1
    got = cache.get(rowmask)
    if got is not None:
        return got
    low = rowmask & -rowmask
    rest = rowmask ^ low
    entries = packed[low.bit_length() - 1]
    acc = 0
    sign = 1
    left = rest
    while left:
        bit = left & -left
        left ^= bit
        entry = entries[bit.bit_length() - 1]
        if entry:
            term = entry * _pfaffian(packed, rest ^ bit, cache, mask)
            acc = acc + term if sign > 0 else acc - term
        sign = -sign
    acc &= mask
    cache[rowmask] = acc
    return acc


def _choose2(m: int) -> int:
    # binomial(m, 2) extended to all integers: m(m-1)/2
    return m * (m - 1) // 2


def _row_bases(rows: _Entries) -> list[int]:
    """Each row's least power over its nonzero entries (0 for a row of
    zeros): the power that the gf route factors out of that row.  Only zero
    entries can lie below it."""
    return [
        min((power for power, n, k in row if k == 0 or 0 < k <= n), default=0)
        for row in rows
    ]


def _laurent_det(
    rows: _Entries, trunc: int | None, bounds: tuple, extra_shift: int = 0
) -> IntPoly:
    """The determinant of rows, times x^extra_shift, up to x^trunc (None: all
    of it).  The rows' bases and the extra shift make up a power t that is
    reapplied at the end; the rest goes to _packed_det up to its degree
    bound, clipped to x^(trunc - t), each Gaussian binomial asked only for
    the degree its place reaches.  A term below x^0 raises ValueError naming
    the bound vectors bounds = (a, b): they admit arrays of negative norm."""
    bases = _row_bases(rows)
    total = sum(bases) + extra_shift
    top = sum(max((power - base + k * (n - k) for power, n, k in row if k == 0 or 0 < k <= n),
                  default=0) for row, base in zip(rows, bases))
    if trunc is not None:
        top = min(top, trunc - total)
        if top < 0:
            return IntPoly.zero(trunc)
    matrix = [
        [(power - base, gauss_binomial(n, k, top + base - power))
         if power - base <= top else (0, IntPoly.zero()) for power, n, k in row]
        for row, base in zip(rows, bases)
    ]
    poly = IntPoly(_packed_det(matrix, top))
    if total < 0 and any(poly.coeffs[:-total]):
        raise ValueError(
            f"bounds a={bounds[0]}, b={bounds[1]} give terms below x^0: they admit "
            "arrays of negative norm"
        )
    return poly.shift(total).truncated(trunc)


def _check_monotone(name: str, values: Sequence[int]):
    if any(a < b for a, b in zip(values, values[1:])):
        raise ValueError(f"{name} must be weakly decreasing: {values}")


def gf_strict(
    lam: Sequence[int],
    mu: Sequence[int],
    a: Sequence[int],
    b: Sequence[int],
    c: int,
    d: int,
    truncate_at: int | None = None,
) -> IntPoly:
    """Norm generating function for (c,d)-plane partitions of shape lam/mu
    whose first part in row i is at most a[i-1] and last part at least b[i-1].

    The coefficient of x^p counts the partitions of norm p.  The a/b bound
    vectors must satisfy the two admissibility chains; violations raise.
    """
    lam, mu, a, b = tuple(lam), tuple(mu), tuple(a), tuple(b)
    r = len(lam)
    if r == 0 or not len(mu) == len(a) == len(b) == r:
        raise ValueError("lam, mu, a, b must share a positive length")
    _check_monotone("outer shape", lam)
    _check_monotone("inner shape", mu)
    if any(l < m for l, m in zip(lam, mu)):
        raise ValueError("inner shape must sit inside the outer shape")
    for i in range(r - 1):
        if a[i] - c * (mu[i] - mu[i + 1]) + (1 - d) < a[i + 1]:
            raise ValueError(f"first-part bounds fail the chain at row {i + 1}")
        if b[i] + c * (lam[i] - lam[i + 1]) + (1 - d) < b[i + 1]:
            raise ValueError(f"last-part bounds fail the chain at row {i + 1}")
    return _laurent_det(_strict_entries(lam, mu, a, b, c, d), truncate_at, (a, b))


def _strict_entries(
    lam: Sequence[int], mu: Sequence[int], a: Sequence[int], b: Sequence[int], c: int, d: int
) -> _Entries:
    """gf_strict's matrix, entry (s, t) as (power, n, k) for x^power G(n, k):
    k = lam_s - s - mu_t + t,
    n = (1 - c)(lam_s - mu_t) - d(s - t) + a_t - b_s + c and
    power = b_s k + (1 - c - d)(binomial(mu_t + s - t, 2) - binomial(mu_t, 2))
    + c binomial(k, 2)."""
    rows = []
    for s in range(len(lam)):
        rows.append([])
        for t in range(len(lam)):
            k = lam[s] - s - mu[t] + t
            n = (1 - c) * (lam[s] - mu[t]) - d * (s - t) + a[t] - b[s] + c
            power = b[s] * k + c * _choose2(k)
            power += (1 - c - d) * (_choose2(mu[t] + s - t) - _choose2(mu[t]))
            rows[-1].append((power, n, k))
    return rows


def gf_strict_coefficient(lam: Sequence[int], a: Sequence[int], p: int) -> int:
    """The coefficient of x^p in gf_strict(lam, (0,)*r, a, (1,)*r, 1, 1, p):
    the row- and column-strict arrays of shape lam and norm p with positive
    entries whose first part in row i is at most a[i-1].

    With mu = 0, b = 1 and c = d = 1, entry (s, t) of gf_strict's matrix
    (0-based) is x^(R_s + lam_s t) G(a_t - s + t, lam_s - s + t), with
    R_s = binomial(lam_s + 1, 2) - s lam_s.  R_s comes out of row s, leaving
    powers lam_s t >= 0, and the count is the digit at x^top, top = p - sum
    of R_s, of the determinant on gauss_table(p).  That is exact if
    a_t + t <= p, as a_vector_stable gives, and top <= p, as every census
    shape gives: each term that reaches x^top reads entry coefficients of
    degree <= top <= p, and each digit up to x^top counts arrays of norm <= p.
    """
    if any(first + t > p for t, first in enumerate(a)):
        raise ValueError("first-part bounds reach past x^p")
    if len(a) != len(lam):
        raise ValueError("lam and a must share a length")
    top = p - sum(_choose2(part + 1) - s * part for s, part in enumerate(lam))
    if top > p:
        raise ValueError(f"shape {tuple(lam)}: its row powers sum to {p - top}, below zero")
    if top < 0:
        return 0
    width, table = gauss_table(p)
    rows = [[(part * t, _table_entry(table, first - s + t, part - s + t))
             for t, first in enumerate(a)] for s, part in enumerate(lam)]
    return _digit(_minor(rows, top, width), top, width)


def gf_shifted(
    lam: Sequence[int],
    a: Sequence[int],
    b: Sequence[int],
    c: int,
    d: int,
    truncate_at: int | None = None,
) -> IntPoly:
    """Norm generating function for shifted (c,d)-plane partitions of shape lam
    whose first part in row i equals a[i-1] and last part is at least b[i-1]."""
    lam, a, b = tuple(lam), tuple(a), tuple(b)
    r = len(lam)
    if r == 0 or not len(a) == len(b) == r:
        raise ValueError("lam, a, b must share a positive length")
    _check_monotone("shape", lam)
    if lam[r - 1] < r:
        raise ValueError(f"shifted shape needs lam[{r}] >= {r}")
    for i in range(r - 1):
        if a[i] - c - d < a[i + 1]:
            raise ValueError(f"first parts fail the chain at row {i + 1}")
        if b[i] + c * (lam[i] - lam[i + 1]) + (1 - d) < b[i + 1]:
            raise ValueError(f"last-part bounds fail the chain at row {i + 1}")
    # Row i + 1 falls by at least c per entry over its lam[i] - i entries.  If
    # its first part cannot reach the last-part bound, no array exists, and the
    # determinant is not the (zero) answer: it can be any polynomial.
    if any(a[i] - c * (lam[i] - i - 1) < b[i] for i in range(r)):
        return IntPoly.zero(truncate_at)
    power = sum(
        b[i] * (lam[i] - (i + 1)) + a[i] + c * _choose2(lam[i] - (i + 1))
        for i in range(r)
    )
    rows = []
    for s in range(r):
        m = lam[s] - s - 1
        rows.append([(0, m * (1 - c) + (1 - c - d) * (s - t) + a[t] - b[s], m) for t in range(r)])
    return _laurent_det(rows, truncate_at, (a, b), extra_shift=power)


def _first_part_window(lam: Sequence[int], p: int) -> range:
    """The values a first part of a norm-p array of shifted shape lam can
    take.  The budget M = p - sum of staircase minima caps a_1; the last row
    holds lam[r-1] - r + 1 strictly decreasing positive entries, so
    a_r >= lam[r-1] - r + 1."""
    r = len(lam)
    staircases = [lam[0] - 1] + [lam[j] - j for j in range(1, r)]
    M = p - sum(c * (c + 1) // 2 for c in staircases)
    return range(lam[r - 1] - r + 1, M + 1)


def gf_shifted_sum_coefficient(lam: Sequence[int], p: int) -> int:
    """The number of shifted row-strict, column-weak arrays of shape lam and
    norm p with positive entries: the x^p coefficient of the sum of
    gf_shifted(lam, a, (1,)*r, 1, 0) over every strictly decreasing a drawn
    from _first_part_window(lam, p), read as one digit of one Pfaffian.

    With c = 1, d = 0 and b = 1, gf_shifted is x^(C + sum a) det[G(a_t - 1, m_s)],
    where G is the Gaussian binomial, m_s = lam_s - s and C = sum of
    m_s + binomial(m_s, 2).  So the sum runs over all r x r minors of the
    r x W matrix T[s][w] = x^w G(w - 1, m_s), its columns w the window's W
    values in descending order, modulo x^(N+1) with N = p - C.  By the minor
    summation formula (Ishikawa and Wakayama, Linear Multilinear Algebra 39,
    1995; Stembridge, Adv. Math. 83, 1990) that sum is the Pfaffian of
    T A T^t, with A_ij = 1 above the diagonal and -1 below.  For odd r the
    matrix takes one more row and column, holding the row sums of T, which
    is T extended by a column (0, ..., 0, 1) and a row holding only that 1.
    _shifted_skew builds T A T^t from sums that a whole census shares.

    It runs on integers packed by x -> 2^B, reduced mod 2^((N+1)B), with the
    entries and the width B of gauss_table(p).  The width is exact: the
    coefficient of x^n counts arrays of norm n <= p, and each array, read
    left-justified, is a distinct plane partition of n.
    """
    lam = tuple(lam)
    r = len(lam)
    if r == 0:
        raise ValueError("lam must have a positive length")
    _check_monotone("shape", lam)
    if lam[r - 1] < r:
        raise ValueError(f"shifted shape needs lam[{r}] >= {r}")
    ms = [lam[s] - s - 1 for s in range(r)]
    top = p - sum(m + _choose2(m) for m in ms)
    if top < 0:
        return 0
    width, _ = gauss_table(p)
    skew = _shifted_skew(ms, _first_part_window(lam, p).stop - 1, p, top)
    mask = (1 << (top + 1) * width) - 1
    return _digit(_pfaffian(skew, (1 << len(skew)) - 1, {}, mask), top, width)


# _hockey_sum keeps one checkpoint per this many w.
_HOCKEY_STEP = 8


@lru_cache(maxsize=1)
def _hockey_points(p: int) -> dict[tuple[int, int], list[int]]:
    """The checkpoints of _hockey_sum on gauss_table(p), per row pair (a, b),
    filled as they are read: item i holds F_ab(b + i * _HOCKEY_STEP)
    mod x^(p + 1 - c(a) - c(b)), with c(m) = m(m+1)/2."""
    return {}


def _low_product(f: int, g: int, power: int, top: int, width: int) -> int:
    """x^power f g mod x^(top+1), for f and g packed at width: the product
    runs on the top + 1 - power digits that survive the shift."""
    digits = top + 1 - power
    if digits <= 0:
        return 0
    keep = (1 << digits * width) - 1
    return ((f & keep) * (g & keep) & keep) << power * width


def _hockey_sum(p: int, a: int, b: int, w: int, top: int) -> int:
    """A value congruent to F_ab(w) mod x^(top+1), packed as gauss_table(p),
    for a > b >= 0 and top <= p - c(a) - c(b):

        F_ab(w) = sum over v <= w of T_b(v) (C_a(v) + C_a(v-1)),

    with T_m(v) = x^v G(v-1, m) and C_m(w) = x^(m+1) G(w, m+1) the sum of
    T_m(v) over 1 <= v <= w (the q-hockey-stick: q-Pascal telescopes).
    T_b(v) vanishes for v <= b, and every term mod x^(top+1) for v + a + 1 > top.
    F depends only on (a, b, p), so a census shares it between its shapes:
    the sum is read from the nearest checkpoint below w and finished with
    at most _HOCKEY_STEP - 1 products."""
    width, table = gauss_table(p)

    def term(v: int, cut: int) -> int:
        pair = _table_entry(table, v, a + 1) + _table_entry(table, v - 1, a + 1)
        return _low_product(_table_entry(table, v - 1, b), pair, v + a + 1, cut, width)

    w = min(w, top - a - 1)
    if w <= b:
        return 0
    points = _hockey_points(p).setdefault((a, b), [0])
    index = (w - b) // _HOCKEY_STEP
    if index >= len(points):
        prec = p - (a * a + a + b * b + b) // 2
        mask = (1 << (prec + 1) * width) - 1
        acc = points[-1]
        for v in range(b + (len(points) - 1) * _HOCKEY_STEP + 1, b + index * _HOCKEY_STEP + 1):
            acc += term(v, prec)
            if (v - b) % _HOCKEY_STEP == 0:
                acc &= mask
                points.append(acc)
    acc = points[index]
    for v in range(b + index * _HOCKEY_STEP + 1, w + 1):
        acc += term(v, top)
    return acc


def _shifted_skew(ms: Sequence[int], high: int, p: int, top: int) -> list[list[int]]:
    """T A T^t of gf_shifted_sum_coefficient for rows m_s = ms[s] and the
    window [m_(r-1) + 1, high], packed as gauss_table(p) and reduced mod
    x^(top+1), top = p - sum of c(m_s) (only entries above the diagonal are
    filled).  With C_s(high) the row sums of T and F the census-wide sums of
    _hockey_sum, entry (s, u) is

        sum over w of T_u(w) (2 (C_s(high) - C_s(w)) + T_s(w)) - C_s(high) C_u(high)
            = C_s(high) C_u(high) - F_su(high),

    one product and one read of F, where summing over w takes one product
    per column.  Nothing lies below the window: C_s(m_(r-1)) = 0 and
    F_su(m_(r-1)) = 0, as m_(r-1) <= m_u < m_s.  Nothing lies past x^top
    either, as top - high = sum over s >= 1 of (m_s + 1).
    """
    width, table = gauss_table(p)
    mask = (1 << (top + 1) * width) - 1
    r = len(ms)
    size = r + r % 2
    skew = [[0] * size for _ in range(size)]
    at_high = [_table_entry(table, high, m + 1) for m in ms]  # C_s(high) / x^(m_s+1)
    for s in range(r):
        a = ms[s]
        for u in range(s + 1, r):
            b = ms[u]
            entry = _low_product(at_high[s], at_high[u], a + b + 2, top, width)
            skew[s][u] = (entry - _hockey_sum(p, a, b, high, top)) & mask
        if size > r:
            skew[s][r] = (at_high[s] << (a + 1) * width) & mask
    return skew
