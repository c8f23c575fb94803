"""Exact integer-coefficient polynomials, Gaussian binomials, polynomial
determinants and Pfaffians, and the two determinantal norm generating
functions.

Polynomials are dense coefficient lists over Python integers (index = degree,
trailing zeros stripped).  A polynomial may carry a truncation degree T, in
which case all arithmetic happens modulo x^(T+1), and truncated results agree
with full arithmetic up to degree T; a truncated gf answer is one.  The
censuses build no polynomial: each shape's count is one digit of a packed
sub-Pfaffian, kept only to the digits any shape reads.

Gaussian binomials are built in place on one coefficient list by additions
alone, one factor (1-x^m)/(1-x^i) at a time: each partial product is itself a
Gaussian binomial, a polynomial of degree at most the final one, so the
power-series division by 1-x^i is exact on the kept coefficients.  Each
census instead streams its own, G(n, k) mod x^(p+1) for the columns k it can
read, row by row by q-Pascal (_gauss_rows), and keeps only what it reads,
packed at one bit more than the bit length of the number of row-strict
plane partitions of p, which bounds every coefficient up to x^p of either
class's generating functions.

Every determinant takes one route.  Its entries are named (power, n, k),
meaning x^power G(n, k), where the power may be negative.  Each row's least
power over its nonzero entries (_row_bases) is factored out of it, and the
collected power t is reapplied at the end.  gf_strict and gf_shifted work
modulo x^(top+1), top the degree bound clipped to T - t, T their truncation
degree, and ask each Gaussian binomial only for the degree its place reaches;
_packed_det packs the entries into Python integers by x -> 2^B (Kronecker
substitution), so the expansion runs on plain integers and CPython's
Karatsuba does the products.  B is one bit more than the bit length of a
bound on every coefficient of the determinant mod x^(top+1).  One bound is
the permanent of the entry norms N, N[i][j] the sum of |c| over the
coefficients of entry (i, j) that can reach x^top: coefficient d <= top of
a term prod_i x^(e_i) g_i reads only g_i's coefficients up to top - e_i, so
it is at most prod_i N[i][sigma(i)], and summed over sigma at most
per(N).  A gf determinant (Lindstrom-Gessel-Viennot) counts arrays, so each
of its coefficients is at most the sum of them all, the count: the
determinant of the entries at x = 1, where G(n, k) is binomial(n, k).  The
permanent ignores the cancellation between the determinant's terms, and the
count does not.  gf_strict and gf_shifted pack at the lesser of the two,
and refuse an answer with a negative digit, or a whole one whose digits do
not sum to the count.  det is the same route with every power 0 and the
permanent alone, since its entries may have negative coefficients.

There is one expansion, the memoised Pfaffian _pfaffian, on entries x^e g
held as (e, g), with one bitmask per row of its partners above the diagonal
whose entry is nonzero, built with the matrix, so the expansion walks only
those.  Its memo keeps the sub-Pfaffian on a row set T as x^q times a value
cut to the digits up to x^top_of(T), q the least power among its terms, and
each caller's rule top_of bounds what it reads of T, walking only T's own
bits.  There are three rules.  A determinant D (_packed_minor) is
(-1)^binomial(r, 2) times the Pfaffian of [[0, D], [-D^t, 0]] (the minor
summation formula: Ishikawa and Wakayama; Stembridge); its set on the
column set S is multiplied by entries of the rows above it, which carry at
least x^P(S), so its top_of is top - P(S).  The stable census reads each
shape's determinant, and the strongly stable census each shape's sum of
shifted ones over its first-part vectors, as one digit of one sub-Pfaffian
of one matrix per p built from _gauss_rows (_strict_census,
_shifted_census), whose top_of is the most any shape reads of T, so one
memo serves every shape.  A stable shape's own set is read once and dropped
from the memo: it holds a label of row 0, which no child of any set holds.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterator, Sequence
from functools import lru_cache
from math import comb, isqrt

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
    The censuses stream their entries from _gauss_rows instead.
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


def _row_strict_count(n: int) -> int:
    """The number of row-strict plane partitions of n, whose generating
    function is the product over i of (1 - x^i)^(-ceil(i/2)) (Gordon; Bender
    and Knuth, J. Combin. Theory A 13, 1972), by the recurrence
    n a(n) = sum over k of sigma(k) a(n - k), sigma(k) the sum of d ceil(d/2)
    over the divisors d of k.  It is nondecreasing in n: adding 1 to the
    corner entry maps those of n - 1 one-to-one into those of n.

    Both censuses pack at its _digit_width at p.  That is exact for every
    packed determinant or Pfaffian they take at p: each digit a shape reads,
    the lower digits of its own set included, is a coefficient, at a norm
    n <= p, of a generating function of arrays with positive entries whose
    rows strictly decrease and whose columns decrease (a shifted array read
    left-justified), so each array is a distinct row-strict plane partition
    of n, and there are at most as many as row-strict plane partitions of p.
    The other sets' values are only ring elements: x -> 2^width maps
    Z[x]/x^(p+1) onto the integers mod 2^((p+1) width), so they stay
    congruent to the true sub-Pfaffians whatever their digits."""
    sigma = [0] * (n + 1)
    for d in range(1, n + 1):
        for m in range(d, n + 1, d):
            sigma[m] += d * ((d + 1) // 2)
    counts = [1]
    for m in range(1, n + 1):
        counts.append(sum(sigma[k] * counts[m - k] for k in range(1, m + 1)) // m)
    return counts[n]


def _gauss_rows(p: int, cap: int, width: int) -> Iterator[list[int]]:
    """For n = 0, 1, ..., p, the row [G(n, 0), ..., G(n, cap)] of Gaussian
    binomials mod x^(p+1), packed at x = 2^width, G(n, k) = 0 for k > n.
    Each row is built from the one before by q-Pascal,
    G(n, k) = G(n-1, k-1) + x^k G(n-1, k): one shift, one add and one mask
    per entry, and only the row before is kept.  A reader skips the
    columns k < 0, whose value is 0, as a list would wrap them; a column
    past the cap raises IndexError."""
    mask = (1 << (p + 1) * width) - 1
    row = [1] + [0] * cap
    yield row
    for _ in range(p):
        row = [1] + [(row[k - 1] + (row[k] << k * width)) & mask for k in range(1, cap + 1)]
        yield row


def det(matrix: Sequence[Sequence[IntPoly]]) -> IntPoly:
    """Exact determinant of a square polynomial matrix, modulo x^(T+1) with T
    the least truncation degree among the entries, which the result carries;
    whole if no entry is truncated."""
    r = len(matrix)
    if r == 0 or any(len(row) != r for row in matrix):
        raise ValueError("determinant needs a non-empty square matrix")
    truncs = [e.trunc for row in matrix for e in row if e.trunc is not None]
    trunc = min(truncs) if truncs else None
    coeffs, _ = _packed_det([[(0, e) for e in row] for row in matrix], trunc)
    return IntPoly(coeffs, trunc)


def _packed_det(
    rows: list[list[tuple[int, IntPoly]]], top: int | None, sums: list[list[int]] | None = None
) -> tuple[list[int], int | None]:
    """The coefficients up to x^top of the determinant of the matrix of
    entries x^e poly, given as rows of (e, poly) with e >= 0 where poly is
    nonzero, and the determinant of sums, each entry's whole poly at x = 1,
    or None without sums.  top (None: no cap) is clipped to the sum over
    rows of the row's largest entry degree, a bound on the degree.

    The ring map x -> 2^B takes Z[x]/(x^(top+1)) onto Z/2^((top+1)B), so
    each poly is packed once into an integer, unshifted, and _packed_minor
    takes the determinant on those, with no division.  Coefficient d <= top
    of a term prod_i x^(e_i) poly_i reads only poly_i's coefficients up to
    top - e_i, so it is at most prod_i N[i][sigma(i)] in absolute value, N
    the entry norms: the sum of |c| over those coefficients, 0 for a zero
    entry or e > top.  Summed over the permutations sigma, every
    coefficient of the determinant mod x^(top+1) is at most the permanent
    of N.  If no coefficient of the whole determinant is negative, as for a
    gf determinant, which counts arrays, each is also at most their sum, the
    count: the determinant of sums.  One pass over the column masks S fills
    both, per(S + j) += per(S) N[|S|][j] and count(S + j) +=
    (-1)^popcount(S >> j) count(S) sums[|S|][j]: row |S| takes column j
    after the rows above it took S, and makes one inversion with each
    column of S past j.  B is one bit more than the bit length of the
    lesser, or of the permanent without sums or for a negative count, which
    counts nothing, so each coefficient is one digit of the result in
    balanced base 2^B: _packed_minor's value is congruent to the
    determinant mod x^(top+1), which fixes those digits.  A zero bound
    gives B = 1 and 0.  That no coefficient is negative is the caller's to
    check.
    """
    r = len(rows)
    reach = sum(max((e + poly.degree for e, poly in row if poly), default=0) for row in rows)
    top = reach if top is None else min(top, reach)
    norms = [[sum(map(abs, poly.coeffs[: top + 1 - e])) if e <= top else 0 for e, poly in row]
             for row in rows]
    full = (1 << r) - 1
    per = [1] + [0] * full  # per[S]: the permanent of rows 0 .. |S| - 1 on the columns S
    counts = [1] + [0] * full  # counts[S]: the determinant of sums on the same minor
    weights = sums or [[0] * r] * r
    for colmask in range(full):
        value, count = per[colmask], counts[colmask]
        if value or count:
            row = colmask.bit_count()
            for col, (norm, weight) in enumerate(zip(norms[row], weights[row])):
                if not colmask >> col & 1:
                    per[colmask | 1 << col] += value * norm
                    sign = -1 if (colmask >> col).bit_count() & 1 else 1
                    counts[colmask | 1 << col] += sign * count * weight
    count = counts[full] if sums else None
    width = _digit_width(per[full] if count is None or count < 0 else min(per[full], count))
    mask = (1 << (top + 1) * width) - 1
    packed = [
        [(e, _pack(poly.coeffs[: top + 1 - e], width) & mask) if poly and e <= top else (0, 0)
         for e, poly in row]
        for row in rows
    ]
    return _unpack(_packed_minor(packed, top, width), top + 1, width), count


def _digit_width(bound: int) -> int:
    """One bit more than the bit length of bound: the width B of a packed
    digit, in balanced base 2^B, that holds every value of absolute value up
    to bound."""
    return bound.bit_length() + 1


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


def _packed_minor(rows: list[list[tuple[int, int]]], top: int, width: int) -> int:
    """A value congruent mod x^(top+1) to the determinant D of the matrix of
    entries x^e g, given as rows of (e, g) with g packed at width and e >= 0
    where g is nonzero (g = 0 is a zero entry): (-1)^binomial(r, 2) times
    the Pfaffian of [[0, D], [-D^t, 0]].  Each set _pfaffian reaches is the
    rows of D from r - |S| on and a column set S; the rows above took the
    other columns, so they carry at least x^P(S), P(S) the least sum of
    their powers through nonzero entries, and the set is kept mod
    x^(top+1-P(S)).  One pass over the column masks in decreasing numeric
    order fills P, from P(all) = 0 by P(S - c) = min(P(S - c), P(S) + e) over
    the nonzero entries x^e g in row r - |S|: removing a column always gives
    a smaller mask, so every parent comes first.  That is exact because
    P(S - c) <= P(S) + e: the set on S - c holds every digit its parent
    reads.  If P(empty) > top, no term reaches x^top and the value is 0."""
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
    skew = [[0] * r + [(e, g) if g else 0 for e, g in row] for row in rows]
    skew += [[] for _ in range(r)]  # the rows of -D^t: no partner above the diagonal
    value = _pfaffian(skew, _partner_masks(skew), (1 << 2 * r) - 1, top, {},
                      lambda rowmask: top - least[rowmask >> r], width)
    return -value if _choose2(r) % 2 else value


def _partner_masks(skew: list[list]) -> list[int]:
    """Each row's partners for _pfaffian: the bitmask of the columns j > i
    whose entry skew[i][j] is nonzero."""
    return [sum(1 << j for j in range(i + 1, len(row)) if row[j]) for i, row in enumerate(skew)]


def _pfaffian(
    skew: list[list], partners: list[int], rowmask: int, top: int, memo: dict[int, tuple],
    top_of, width: int
) -> int:
    """Packed Pfaffian, as a nonnegative residue mod x^(top+1) at x = 2^width,
    top = top_of(rowmask), which the caller passes, of the skew matrix skew
    restricted to the rows and columns in rowmask.  Entries are (e, g) for
    x^e g, g packed at width, or 0; partners[i] (_partner_masks) holds the
    columns j > i of row i whose entry is nonzero, and only those entries
    are read, so a row without partners may be empty.  memo keeps each
    sub-Pfaffian as _kept_pfaffian leaves it, at its own top_of, which runs
    once per set the memo lacks; each census's rule walks only that set's
    bits (_masked_sum).  It is exact if no caller reads a set past its
    top_of, though a child's top_of may lie below its parent's, and every
    entry holds the digits its row's sets read."""
    kept = memo.get(rowmask) if rowmask else (0, 1)
    if kept is None:
        kept = _kept_pfaffian(skew, partners, rowmask, top, memo, top_of, width)
    low, value = kept
    if value < 0:
        value += 1 << (top + 1 - low) * width
    return value << low * width


def _kept_pfaffian(
    skew: list[list], partners: list[int], rowmask: int, top: int, memo: dict[int, tuple],
    top_of, width: int
) -> tuple[int, int]:
    """The Pfaffian on a nonempty rowmask not yet in memo, stored there as
    memo keeps it: (q, v), congruent to x^q v mod x^(top+1), top =
    top_of(rowmask), v cut to top + 1 - q digits by _cut, so a negative v
    stays short; a zero one, such as that of an odd set or of one whose top
    is below 0, is (0, 0).  Expanded along its lowest row i: the sum over
    the other rows j in rowmask, the n-th of them with sign (-1)^(n-1), of
    skew[i][j] times the Pfaffian without i and j.  Only the partners of i
    in the set are walked, partners[i] & rowmask, and n - 1 is the number of
    rows of the set below j, skipped or not.  A child the memo lacks is
    expanded at its own top_of, asked of it then alone.  A term x^e g x^q'
    v' runs on the digits of g and v' that survive x^(e + q'), and q is the
    least such power.  Digits of a set up to d need only those of the child
    up to d - e, which its callers read too.  Module-level, so that no
    reference cycle keeps the memo alive."""
    low = top + 1  # acc is the sum over x^low
    acc = 0
    if top >= 0:
        first = rowmask & -rowmask
        rest = rowmask ^ first
        i = first.bit_length() - 1
        entries = skew[i]
        left = rest & partners[i]
        while left:
            bit = left & -left
            left ^= bit
            e, g = entries[bit.bit_length() - 1]
            if e > top:
                continue
            child = rest ^ bit
            got = memo.get(child) if child else (0, 1)
            if got is None:
                got = _kept_pfaffian(skew, partners, child, top_of(child), memo, top_of, width)
            q, v = got
            power = e + q
            if v and power <= top:
                if power < low:
                    acc <<= (low - power) * width
                    low = power
                term = _low_product(g, v, power - low, top - low, width)
                acc = acc - term if (rest & (bit - 1)).bit_count() & 1 else acc + term
    memo[rowmask] = kept = (low, _cut(acc, (top + 1 - low) * width)) if acc else (0, 0)
    return kept


def _low_product(f: int, g: int, power: int, top: int, width: int) -> int:
    """A value congruent to x^power f g mod x^(top+1), for f and g packed at
    width: the product runs on the top + 1 - power digits that survive the
    shift, each factor longer than those cut by _cut, so a negative one
    stays negative.  Most values are already short, so the lengths are
    checked here rather than by a call each."""
    span = (top + 1 - power) * width
    if span <= 0:
        return 0
    if f.bit_length() > span:
        f = _cut(f, span)
    if g.bit_length() > span:
        g = _cut(g, span)
    product = f * g
    if power:  # a shift by 0 would still copy
        if product.bit_length() > span:
            product = _cut(product, span)
        product <<= power * width
    return product


def _cut(value: int, bits: int) -> int:
    """value mod 2^bits, with value's sign, so a negative value does not fill
    all bits; a value already that short is left as is, as a cut copies."""
    if value.bit_length() <= bits:
        return value
    keep = (1 << bits) - 1
    return value & keep if value >= 0 else -(-value & keep)


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
    the degree its place reaches, with every entry's binomial sum G(n, k) at
    x = 1, so it packs at the count of arrays.  A count cannot be negative:
    a negative digit raises ArithmeticError, and so do the digits of a whole
    answer that do not sum to the count.  A term below x^0 raises ValueError
    naming the bound vectors bounds = (a, b): they admit arrays of negative
    norm."""
    bases = _row_bases(rows)
    total = sum(bases) + extra_shift
    bound = sum(max((power - base + k * (n - k) for power, n, k in row if k == 0 or 0 < k <= n),
                    default=0) for row, base in zip(rows, bases))
    top = bound if trunc is None else min(bound, trunc - total)
    if top < 0:
        return IntPoly.zero(trunc)
    matrix = [
        [(power - base, gauss_binomial(n, k, top + base - power))
         if power - base <= top else (0, IntPoly.zero()) for power, n, k in row]
        for row, base in zip(rows, bases)
    ]
    sums = [[1 if k == 0 else comb(n, k) if 0 < k <= n else 0 for _, n, k in row] for row in rows]
    coeffs, count = _packed_det(matrix, top, sums)
    named = f"bounds a={bounds[0]}, b={bounds[1]}"
    least = min(coeffs, default=0)
    if least < 0:
        raise ArithmeticError(f"{named} read {least} arrays of norm {coeffs.index(least) + total}: "
                              "a digit overflowed the packed width")
    if top == bound and sum(coeffs) != count:
        raise ArithmeticError(f"{named} read {sum(coeffs)} arrays, where the determinant at x = 1 "
                              f"counts {count}: a digit overflowed the packed width")
    poly = IntPoly(coeffs)
    if total < 0 and any(poly.coeffs[:-total]):
        raise ValueError(
            f"{named} give terms below x^0: they admit arrays of negative norm"
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


def gf_strict_coefficient(lam: Sequence[int], p: int) -> int:
    """The number of row- and column-strict arrays of shape lam, strictly
    decreasing, and norm p with positive entries: the x^p coefficient of
    gf_strict(lam, (0,)*r, (p - t)_t, (1,)*r, 1, 1, p), whose first-part
    bounds cut no such array.  Entry (s, t) of that matrix (0-based) is
    x^(R_s + lam_s t) G(p - s, lam_s - s + t), R_s = binomial(lam_s + 1, 2)
    - s lam_s, the sum of j - s over the cells (s, j) of row s.  With R_s
    out of row s, entry (s, t) depends on (s, lam_s) and t alone, so the
    count is the digit at x^top, top = p - sum of R_s, of a sub-Pfaffian of
    _strict_census(p).  The R_s sum to at least 1: cell (0, 1) weighs 1, and
    cell (s, j), j < s, pairs with cell (j - 1, s + 1), of weight s - j + 2.
    So each digit up to x^top counts arrays of norm below p.  A shape whose
    least array has norm past p gives 0; the others have rows in the matrix.
    The shape's own set is popped from the memo once its digit is read: no
    expansion reads it again (_strict_census), so that changes only cost.
    """
    lam = tuple(lam)
    r = len(lam)
    if r == 0:
        raise ValueError("lam must have a positive length")
    if lam[-1] < 1 or any(a <= b for a, b in zip(lam, lam[1:])):
        raise ValueError(f"shape {lam} must strictly decrease to a part of at least 1")
    if sum(_choose2(part + 1) for part in lam) > p:
        return 0
    width, rows, skew, partners, memo, top_of = _strict_census(p)
    rowmask = sum(1 << rows[s, part] for s, part in enumerate(lam)) | ((1 << r) - 1) << len(rows)
    top = top_of(rowmask)
    pf = _pfaffian(skew, partners, rowmask, top, memo, top_of, width)
    memo.pop(rowmask, None)
    return _guarded((-1) ** _choose2(r) * _digit(pf, top, width), lam, p)


@lru_cache(maxsize=1)
def _strict_census(p: int) -> tuple:
    """The matrix that holds every stable shape's determinant D at p, and
    the memo of its sub-Pfaffians, as (width, rows, skew, partners, memo,
    top_of), packed at the _digit_width of _row_strict_count(p).  Its rows
    are the labels (s, b), ordered by s, of the parts b that row s of a
    shape that fits p can hold, rows[s, b] the index of each, then one
    column t per row of the tallest such shape.  Entry (s, b; t) is
    x^(b t) G(p - s, b - s + t), read from the Gaussian rows p - s that
    _gauss_rows streams up to the last column any label reads, the last
    rows alone kept.  D is (-1)^binomial(r, 2) times the sub-Pfaffian of
    [[0, D], [-D^t, 0]] on the shape's labels and first r columns (Ishikawa
    and Wakayama; Stembridge).

    A set T, its first label (s0, b0), lacks the columns c_0 < ... < c_(s0-1)
    below s0 plus its label count, which the rows above it took.  Parts
    strictly decrease, so those rows hold b_u >= B - u, B = b0 + s0, and by
    the rearrangement inequality they carry at least x^(the sum over u < s0
    of binomial(B - u + 1, 2) - (B - u) u + (B - u) c_u), with their R.
    top_of(T) is p less that and the R of T's labels: no shape reads T past
    it.  Per first label it keeps p less the sum of the parts that do not
    depend on c_u, and the slopes B - u, so it walks only T's own labels and
    its first s0 absent columns.

    Rows are ordered by s, so an expansion removes a set's label of row 0
    first and no child holds one: the memo keeps only the sets without one,
    as gf_strict_coefficient pops each shape's own set once it is read.
    """
    width = _digit_width(_row_strict_count(p))
    bound = isqrt(2 * p)  # no part, and no row index, reaches past it
    labels = [(s, b) for s in range(bound) for b in range(1, bound + 1)
              if sum(_choose2(part + 1) for part in range(b, b + s + 1)) <= p]
    rows = {label: i for i, label in enumerate(labels)}
    columns = labels[-1][0] + 1
    cap = max(b - s for s, b in labels) + columns - 1
    kept = deque(_gauss_rows(p, cap, width), maxlen=columns)  # the rows p - s, s < columns
    skew = [[0] * (len(labels) + columns) for _ in range(len(labels) + columns)]
    for i, (s, b) in enumerate(labels):
        row = kept[-1 - s]
        for t in range(max(s - b, 0), columns):  # G(n, k) = 0 for k < 0
            g = row[b - s + t]
            skew[i][len(labels) + t] = (b * t, g) if g else 0
    costs = [_choose2(b + 1) - s * b for s, b in labels]
    slopes = [range(b0 + s0, b0, -1) for s0, b0 in labels]  # B - u for u < s0
    fixed = [p - sum(_choose2(b + 1) - b * u for u, b in enumerate(steps)) for steps in slopes]
    labelbits = (1 << len(labels)) - 1

    def top_of(rowmask: int) -> int:
        first = (rowmask & -rowmask).bit_length() - 1
        top = fixed[first] - _masked_sum(costs, rowmask & labelbits)
        absent = ~rowmask >> len(labels)  # c_0, c_1, ... as its lowest bits
        for slope in slopes[first]:
            bit = absent & -absent
            absent ^= bit
            top -= slope * (bit.bit_length() - 1)
        return top

    return width, rows, skew, _partner_masks(skew), {}, top_of


def _masked_sum(values: list[int], mask: int) -> int:
    """The sum of values[i] over the bits i of mask, walking only those."""
    total = 0
    while mask:
        bit = mask & -mask
        mask ^= bit
        total += values[bit.bit_length() - 1]
    return total


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


def gf_shifted_sum_coefficient(lam: Sequence[int], p: int) -> int:
    """The number of shifted row-strict, column-weak arrays of shape lam and
    norm p with positive entries: the x^p coefficient of the sum of
    gf_shifted(lam, a, (1,)*r, 1, 0) over every strictly decreasing a with
    parts in [lam_r - r + 1, p], read as one digit of one Pfaffian.  A vector
    past the shape's window of first parts (counting.a_vectors_strongly)
    has no array of norm p, so it adds 0.

    With c = 1, d = 0 and b = 1, gf_shifted is x^(C + sum a) det[G(a_t - 1, m_s)],
    where G is the Gaussian binomial, m_s = lam_s - s and C = sum of
    m_s + binomial(m_s, 2).  So the sum runs over all r x r minors of the
    r x W matrix T[s][w] = x^w G(w - 1, m_s), its columns w = p, ..., m_r + 1
    in descending order, modulo x^(N+1) with N = p - C.  By the minor
    summation formula (Ishikawa and Wakayama, Linear Multilinear Algebra 39,
    1995; Stembridge, Adv. Math. 83, 1990) that sum is the Pfaffian of
    T A T^t, with A_ij = 1 above the diagonal and -1 below.  For odd r the
    matrix takes one more row and column, holding the row sums of T, which
    is T extended by a column (0, ..., 0, 1) and a row holding only that 1.
    Entry (s, u) of T A T^t depends only on m_s, m_u and p, and the border
    entry only on m_s, so the matrix is the principal submatrix of
    _shifted_census(p) on the rows of the labels m_s, plus the border row
    for odd r, and the census's memo serves every shape.

    It runs on integers packed by x -> 2^B, reduced mod 2^((N+1)B), with the
    entries and the width B of _shifted_census(p).  The width is exact: the
    coefficient of x^n counts arrays of norm n <= p, and each array, read
    left-justified, is a distinct row-strict plane partition of n.
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
    width, skew, partners, memo, top_of = _shifted_census(p)
    border = len(skew) - 1  # label m sits in row border - 1 - m
    rowmask = sum(1 << border - 1 - m for m in ms) | (r % 2) << border
    pf = _pfaffian(skew, partners, rowmask, top, memo, top_of, width)
    return _guarded(_digit(pf, top, width), lam, p)


def _guarded(count: int, lam: tuple, p: int) -> int:
    """A shape's count as read from its digit, refused if negative: the
    only way a count that overflowed the census width can show."""
    if count < 0:
        raise ArithmeticError(
            f"shape {lam} at p = {p} read the count {count}: a digit overflowed the packed width"
        )
    return count


@lru_cache(maxsize=1)
def _shifted_census(p: int) -> tuple:
    """The skew matrix that holds every shape's T A T^t for
    gf_shifted_sum_coefficient at p, and the memo of its sub-Pfaffians, as
    (width, skew, partners, memo, top_of), packed at the _digit_width of
    _row_strict_count(p).

    Its rows are the labels m = M, ..., 0, with M the largest label whose
    c(m) = m(m+1)/2 is at most p, and a border row last; top_of is p less
    the c(m) of a row set's labels, summed over its bits alone, which only
    grows as rows leave it.  With T_m(v) = x^v G(v-1, m) and C_m(w) =
    x^(m+1) G(w, m+1) the sum of T_m(v) over 1 <= v <= w (the
    q-hockey-stick: q-Pascal telescopes), entry (a, b) for labels a > b is

        sum over w of T_b(w) (2 (C_a(p) - C_a(w)) + T_a(w)) - C_a(p) C_b(p)
            = C_a(p) C_b(p) - F_ab(p),
        F_ab(p) = sum over v <= p of T_b(v) (C_a(v) + C_a(v-1)),

    held as (a+b+2, its quotient by x^(a+b+2)) mod x^(p+1-c(a)-c(b)), where
    T_b(v) vanishes for v <= b and each term of F_ab for v + a + 1 >
    p - c(a) - c(b).  The border entry of row a is (a+1, C_a(p) / x^(a+1)).
    That holds every digit _pfaffian reads, and a pair that no shape reaching
    x^p holds is left 0.  Each F_ab adds its term at v as _gauss_rows streams
    row v, up to the column M + 1, and C_a(p) C_b(p) comes from row p last.
    """
    width = _digit_width(_row_strict_count(p))
    labels = range((isqrt(8 * p + 1) - 1) // 2, -1, -1)
    costs = [m * (m + 1) // 2 for m in labels] + [0]
    border = len(labels)
    pairs = []  # (i, j, a, b, top), top the quotient's last digit read
    for i, a in enumerate(labels):
        for j in range(i + 1, border):
            b = labels[j]
            top = p - costs[i] - costs[j] - (a + b + 2)
            if top >= 0:
                pairs.append((i, j, a, b, top))
    sums = [0] * len(pairs)  # each pair's F_ab(v), summed as the rows v go by
    for v, row in enumerate(_gauss_rows(p, labels[0] + 1, width)):
        for n, (_, _, a, b, top) in enumerate(pairs):
            if b < v <= top + b + 1:
                sums[n] += _low_product(prev[b], row[a + 1] + prev[a + 1], v - b - 1, top, width)
        prev = row
    at_p = [row[m + 1] for m in labels]  # C_m(p) / x^(m+1), from row p
    skew = [[0] * (border + 1) for _ in range(border + 1)]
    for i, a in enumerate(labels):
        skew[i][border] = (a + 1, at_p[i])
    for (i, j, a, b, top), f in zip(pairs, sums):
        acc = (_low_product(at_p[i], at_p[j], 0, top, width) - f) & ((1 << (top + 1) * width) - 1)
        skew[i][j] = (a + b + 2, acc) if acc else 0
    return width, skew, _partner_masks(skew), {}, lambda rowmask: p - _masked_sum(costs, rowmask)
