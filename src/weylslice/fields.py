"""Exact scalar arithmetic: rationals, Q(i), rational functions K(t) and
small finite fields.

Field elements are plain Python values (``Fraction`` for the rationals,
pairs of Fractions for Q(i), canonical ``(num, den)`` coefficient tuples
for K(t), ints in ``range(q)`` for F_q) and every field is an ops object
passed to the matrix routines.  Nothing here ever rounds.  F_{p^k} is
F_p[x] modulo the lexicographically first monic irreducible of degree k,
which `linalg.poly_factor` recognizes.

Besides the scalar operations, each field supplies the vector and
matrix operations that carry all of `linalg`'s products, row updates and
eliminations: ``dot(xs, ys)`` (the sum of the products),
``sub_scaled(xs, f, ys)`` (the list ``[x - f*y]``), ``mat_mul(a, b)``
and ``mat_mul_derived`` (for an a read off b), ``mat_add``, ``rref(a,
max_pivots)`` and ``det(a)``.  F_p computes the first two and sums on
plain ints and reduces once per entry, multiplies matrices on packed
rows, and eliminates on plain ints (`PrimeField`).  Q multiplies and
row-reduces on cleared numerators (`Rationals`): integer dot products
with one ``Fraction`` per entry, and fraction-free Gauss-Jordan whose
rows and pivots are the shared body's; its ``det`` is the shared body.
Every other field multiplies rows by columns with its own ``dot`` and
eliminates with the shared bodies of `_FieldOps` on its own scalar
operations.  Its ``dot`` and ``sub_scaled`` skip the zero terms, whose
Fraction, polynomial or table products are what the skipping saves.
"""

from __future__ import annotations

import operator
import sys
from array import array
from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd, lcm
from operator import index as _index, mul as _int_mul
from typing import Iterable, Optional

from .linalg import (fsum, poly_add, poly_divmod, poly_factor, poly_gcd,
                     poly_mul)


class _FieldOps:
    """The matrix product and the eliminations of every field without
    faster ones of its own, on the field's scalar and row operations."""

    def mat_mul(self, a, b):
        """Rows of a by columns of b, one `dot` per entry."""
        bt = tuple(zip(*b))
        dot = self.dot
        return tuple(tuple(dot(ra, cb) for cb in bt) for ra in a)

    def mat_mul_derived(self, a, b):
        """`mat_mul` for an a of copies of b's entries and their `neg`s."""
        return self.mat_mul(a, b)

    def mat_add(self, a, b):
        """a + b, entry by entry."""
        return tuple(tuple(map(self.add, r, s)) for r, s in zip(a, b))

    def rref(self, a,
             max_pivots: int | None = None) -> tuple[list[list], list[int]]:
        """Reduced row echelon form of `a` (new rows) and its pivot columns.

        Gauss-Jordan elimination, exact over any field.  The form is
        unique, so bases read off it are canonical.  With `max_pivots` the
        elimination stops once it has that many pivots, and the rows are
        only partly reduced.
        """
        is_zero, mul, sub_scaled = self.is_zero, self.mul, self.sub_scaled
        m = [list(row) for row in a]
        rows = len(m)
        cols = len(m[0]) if rows else 0
        pivots: list[int] = []
        for c in range(cols):
            r = len(pivots)
            if r == rows or r == max_pivots:
                break
            piv = None
            for i in range(r, rows):
                if not is_zero(m[i][c]):
                    piv = i
                    break
            if piv is None:
                continue
            m[r], m[piv] = m[piv], m[r]
            inv = self.inv(m[r][c])
            prow = m[r] = [mul(inv, x) for x in m[r]]
            for i in range(rows):
                f = m[i][c]
                if i != r and not is_zero(f):
                    m[i] = sub_scaled(m[i], f, prow)
            pivots.append(c)
        return m, pivots

    def det(self, a):
        """Determinant by ordinary elimination (exact over a field)."""
        n = len(a)
        m = [list(r) for r in a]
        out = self.one
        for c in range(n):
            piv = None
            for i in range(c, n):
                if not self.is_zero(m[i][c]):
                    piv = i
                    break
            if piv is None:
                return self.zero
            if piv != c:
                m[c], m[piv] = m[piv], m[c]
                out = self.neg(out)
            out = self.mul(out, m[c][c])
            inv = self.inv(m[c][c])
            for i in range(c + 1, n):
                if not self.is_zero(m[i][c]):
                    m[i] = self.sub_scaled(m[i], self.mul(inv, m[i][c]), m[c])
        return out


def _cleared(xs) -> tuple[int, list[int]]:
    """(d, [d x for x in xs]) for d the lcm of the denominators of the
    rationals xs (ints or Fractions): the numerators over one denominator."""
    d = lcm(*[x.denominator for x in xs])
    if d == 1:
        return 1, [x.numerator for x in xs]
    return d, [x.numerator * (d // x.denominator) for x in xs]


class Rationals(_FieldOps):
    """Field operations on arbitrary-precision rationals."""

    char = 0
    order = None

    zero = Fraction(0)
    one = Fraction(1)

    def of(self, n) -> Fraction:
        return Fraction(n)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return 1 / Fraction(a)

    def div(self, a, b):
        return Fraction(a) / b

    def is_zero(self, a) -> bool:
        return a == 0

    def dot(self, xs, ys):
        return sum((x * y for x, y in zip(xs, ys) if x and y), self.zero)

    def sub_scaled(self, xs, f, ys) -> list:
        return [x - f * y if y else x for x, y in zip(xs, ys)]

    def mat_mul(self, a, b):
        """Rows of a by columns of b on cleared numerators: row i of a is
        (integer row)/d_i and column j of b is (integer column)/e_j, so
        entry (i, j) is one integer dot product over d_i e_j."""
        cols = [_cleared(c) for c in zip(*b)]
        out = []
        for ra in a:
            d, ints = _cleared(ra)
            out.append(tuple([Fraction(sum(map(_int_mul, ints, cb)), d * e)
                              for e, cb in cols]))
        return tuple(out)

    def rref(self, a, max_pivots: int | None = None):
        """`_FieldOps.rref` on integer rows, with the same rows and pivots.

        Row i is held as an integer vector v_i and a denominator s_i with
        row i = v_i / s_i.  Clearing column c with pivot row r, whose
        entry there is p, gives row i - (v_i[c] / p) row r, that is
        (p v_i - v_i[c] v_r) / (p s_i); the content shared by the new
        vector and denominator is divided out.  The rows are the
        reference's, found by the same search and swaps, so only the
        `Fraction` entries built at the end are new: a pivot row divided
        by its pivot, every other row by its denominator.
        """
        m, dens = [], []
        for row in a:
            d, ints = _cleared(row)
            m.append(ints)
            dens.append(d)
        rows = len(m)
        cols = len(m[0]) if rows else 0
        pivots: list[int] = []
        for c in range(cols):
            r = len(pivots)
            if r == rows or r == max_pivots:
                break
            for piv in range(r, rows):
                if m[piv][c]:
                    break
            else:
                continue
            m[piv], m[r] = m[r], m[piv]
            dens[piv], dens[r] = dens[r], dens[piv]
            prow = m[r]
            p = prow[c]
            for i, ri in enumerate(m):
                f = ri[c]
                if f and i != r:
                    new = [p * y - f * z for y, z in zip(ri, prow)]
                    s = p * dens[i]
                    g = gcd(s, *new)
                    m[i] = [y // g for y in new]
                    dens[i] = s // g
            pivots.append(c)
            if not any(map(any, m[r + 1:])):
                break
        out = [[Fraction(y, row[c]) for y in row]
               for row, c in zip(m, pivots)]
        out += [[Fraction(y, s) for y in row]
                for row, s in zip(m[len(pivots):], dens[len(pivots):])]
        return out, pivots

    def elements(self) -> Iterable:
        raise TypeError("the rational field is infinite")

    def sqrt(self, a) -> Optional[Fraction]:
        a = Fraction(a)
        if a < 0:
            return None
        from math import isqrt

        rn, rd = isqrt(a.numerator), isqrt(a.denominator)
        if rn * rn == a.numerator and rd * rd == a.denominator:
            return Fraction(rn, rd)
        return None

    def __repr__(self):
        return "QQ"


QQ = Rationals()


class GaussianRationals(_FieldOps):
    """Q(i), each element a pair (a, b) of Fractions standing for a + b i."""

    char = 0
    zero = (Fraction(0), Fraction(0))
    one = (Fraction(1), Fraction(0))

    def of(self, n):
        return (Fraction(n), Fraction(0))

    def add(self, a, b):
        return (a[0] + b[0], a[1] + b[1])

    def sub(self, a, b):
        return (a[0] - b[0], a[1] - b[1])

    def mul(self, a, b):
        # a zero imaginary part (a Fraction 0) drops its two products
        (a0, a1), (b0, b1) = a, b
        if not a1:
            return (a0 * b0, a0 * b1 if b1 else a1)
        if not b1:
            return (a0 * b0, a1 * b0)
        return (a0 * b0 - a1 * b1, a0 * b1 + a1 * b0)

    def neg(self, a):
        return (-a[0], -a[1])

    def inv(self, a):
        norm = a[0] * a[0] + a[1] * a[1]
        if not norm:
            raise ZeroDivisionError("inverse of 0")
        return (a[0] / norm, -a[1] / norm)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def is_zero(self, a) -> bool:
        return not (a[0] or a[1])

    def dot(self, xs, ys):
        return fsum(self, (self.mul(x, y) for x, y in zip(xs, ys)
                           if (x[0] or x[1]) and (y[0] or y[1])))

    def sub_scaled(self, xs, f, ys) -> list:
        return [self.sub(x, self.mul(f, y)) if y[0] or y[1] else x
                for x, y in zip(xs, ys)]

    def fourth_root_of_unity(self):
        return (Fraction(0), Fraction(1))


QQI = GaussianRationals()


class RationalFunctions(_FieldOps):
    """K(t) over an exact base field K, elements (num, den) in lowest terms.

    num and den are low-first coefficient tuples over K with den monic and
    gcd(num, den) = 1, so ``==`` is equality of functions (von zur
    Gathen-Gerhard, Modern Computer Algebra, ch. 3).
    """

    def __init__(self, base):
        self.base = base
        self.char = base.char
        one = (base.one,)
        self.zero = ((), one)
        self.one = (one, one)
        self.t = ((base.zero, base.one), one)

    def _reduce(self, num, den):
        """num/den in lowest terms; both must be trimmed, den nonzero."""
        base = self.base
        if not num:
            return self.zero
        if len(den) > 1:
            g = poly_gcd(base, num, den)
            if len(g) > 1:
                num, den = poly_divmod(base, num, g)[0], poly_divmod(base, den, g)[0]
        return self._monic(num, den)

    def _monic(self, num, den):
        """num/den scaled so that den is monic."""
        base = self.base
        if den[-1] != base.one:
            lead = base.inv(den[-1])
            num = tuple(base.mul(lead, c) for c in num)
            den = tuple(base.mul(lead, c) for c in den)
        return (num, den)

    def of(self, n):
        c = self.base.of(n)
        return self.zero if self.base.is_zero(c) else ((c,), self.one[1])

    def add(self, a, b):
        base = self.base
        if a[1] == b[1]:
            return self._reduce(poly_add(base, a[0], b[0]), a[1])
        return self._reduce(
            poly_add(base, poly_mul(base, a[0], b[1]), poly_mul(base, b[0], a[1])),
            poly_mul(base, a[1], b[1]))

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        base = self.base
        return self._reduce(poly_mul(base, a[0], b[0]), poly_mul(base, a[1], b[1]))

    def neg(self, a):
        return (tuple(self.base.neg(c) for c in a[0]), a[1])

    def inv(self, a):
        if not a[0]:
            raise ZeroDivisionError("inverse of 0")
        return self._monic(a[1], a[0])  # already coprime: no gcd

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def is_zero(self, a) -> bool:
        return not a[0]

    def dot(self, xs, ys):
        return fsum(self, (self.mul(x, y) for x, y in zip(xs, ys)
                           if x[0] and y[0]))

    def sub_scaled(self, xs, f, ys) -> list:
        return [self.sub(x, self.mul(f, y)) if y[0] else x
                for x, y in zip(xs, ys)]

    def fourth_root_of_unity(self):
        w = self.base.fourth_root_of_unity()
        return None if w is None else ((w,), self.one[1])


# Miller-Rabin with the first 12 prime bases is exact below this bound
# (Sorenson and Webster, Math. Comp. 86 (2017) 985-1003), which exceeds 2^64.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_BOUND = 318665857834031151167461


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n below `_MR_BOUND` (about 3.18e23)."""
    if n >= _MR_BOUND:
        raise ValueError(
            f"primality of {n} is decided only below {_MR_BOUND}")
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while not d & 1:
        d, s = d >> 1, s + 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _in_range(m, p: int) -> bool:
    """Every entry of the nonempty matrix m lies in range(p)."""
    return max(map(max, m)) < p and min(map(min, m)) >= 0


class PrimeField(_FieldOps):
    """F_p with elements represented as ints in range(p).

    `mat_mul` packs each row of the right factor into one int with a
    64-bit slot per column.  Slot j of row i of the product then holds
    sum_k a[i][k] b[k][j] <= k (p-1)^2 before its one reduction, so the
    packed product needs k (p-1)^2 < 2^64 for inner dimension k (true for
    p = 1009 up to k = 1.8e13, false for p = 2^61 - 1 at every k).  Other
    shapes and entries outside range(p) take the rows-by-columns product
    with `dot`, which gives the same matrix.  Both refuse a non-int entry
    (TypeError), at no cost per product.

    `rref` and `det` are the `_FieldOps` eliminations on ints: a pivot is
    found by ``x % p``, inverted by ``pow(x, -1, p)``, and the rows are
    updated only from the pivot column on.  They take any ints, as the
    reference does, and agree with it up to entries of the input that
    were outside range(p) and that no step touched.
    """

    def __init__(self, p: int):
        if not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.char = p
        self.order = p
        self.zero = 0
        self.one = 1 % p
        self._slot_terms = ((1 << 64) - 1) // (p - 1) ** 2

    def of(self, n) -> int:
        if type(n) is int:
            return n % self.p
        if isinstance(n, Fraction):
            if n.denominator % self.p == 0:
                raise ZeroDivisionError(f"denominator divisible by {self.p}")
            return n.numerator * pow(n.denominator, -1, self.p) % self.p
        return operator.index(n) % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of 0")
        return pow(a, -1, self.p)

    def div(self, a, b):
        return a * self.inv(b) % self.p

    def is_zero(self, a) -> bool:
        return a % self.p == 0

    def dot(self, xs, ys) -> int:
        return _index(sum(map(_int_mul, xs, ys))) % self.p

    def sub_scaled(self, xs, f, ys) -> list:
        p = self.p
        return [(x - f * y) % p for x, y in zip(xs, ys)]

    def mat_mul(self, a, b):
        """ab on packed rows of b; see the class docstring for the bound."""
        if a and b and b[0] and (a is b or _in_range(a, self.p)):
            return self.mat_mul_derived(a, b)
        return super().mat_mul(a, b)

    def mat_mul_derived(self, a, b):
        """`mat_mul` scanning b alone: such an a is in range(p) if b is."""
        p = self.p
        if not (a and b and b[0] and len(b) <= self._slot_terms
                and _in_range(b, p)):
            return super().mat_mul(a, b)
        n, order = len(b[0]), sys.byteorder
        try:
            packs = [int.from_bytes(array("Q", row), order) for row in b]
            flat = [x % p for x in array("Q", b"".join([
                int.to_bytes(sum(map(_int_mul, ra, packs)), 8 * n, order)
                for ra in a]))]
        except TypeError:
            raise TypeError(f"{self!r} matrix entries must be ints") from None
        return tuple([tuple(flat[i:i + n]) for i in range(0, len(flat), n)])

    def mat_add(self, a, b):
        p = self.p
        return tuple([tuple([(x + y) % p for x, y in zip(r, s)])
                      for r, s in zip(a, b)])

    def rref(self, a, max_pivots: int | None = None):
        """`_FieldOps.rref` on ints: the same pivots, and the same rows up
        to entries of the input that were outside range(p).

        A pivot is an entry nonzero mod p, its inverse is pow(x, -1, p),
        and a row update runs only from the pivot column on, since the
        pivot row is zero to its left.  Once the rows below the last pivot
        are all 0, no column holds another one, and the elimination stops.
        """
        p = self.p
        m = [list(row) for row in a]
        rows = len(m)
        cols = len(m[0]) if rows else 0
        pivots: list[int] = []
        for c in range(cols):
            r = len(pivots)
            if r == rows or r == max_pivots:
                break
            for piv in range(r, rows):
                x = m[piv][c] % p
                if x:
                    break
            else:
                continue
            row = m[piv]
            m[piv], m[r] = m[r], row
            inv = pow(x, -1, p)
            row[c:] = tail = [y * inv % p for y in row[c:]]
            for ri in m:
                f = ri[c]
                if f and ri is not row:
                    ri[c:] = [(y - f * z) % p for y, z in zip(ri[c:], tail)]
            pivots.append(c)
            if not any(map(any, m[r + 1:])):
                break
        return m, pivots

    def det(self, a) -> int:
        """`_FieldOps.det` on ints.  Each step drops the pivot column, and
        the other rows subtract f times the pivot row scaled to 1 without
        reducing: an entry changes at most once per step by less than p^2,
        and only a pivot candidate is reduced."""
        p = self.p
        m = [list(row) for row in a]
        out = 1 % p
        while m:
            for piv, row in enumerate(m):
                x = row[0] % p
                if x:
                    break
            else:
                return 0
            if piv:
                m[piv] = m[0]
                out = -out
            out = out * x % p
            inv = pow(x, -1, p)
            tail = [y * inv % p for y in row[1:]]
            m = [[y - f * z for y, z in zip(r[1:], tail)]
                 if (f := r[0] % p) else r[1:] for r in m[1:]]
        return out

    def elements(self):
        return range(self.p)

    def units(self):
        return range(1, self.p)

    @cached_property
    def _roots(self) -> dict:
        """Each square mod p mapped to its smallest root."""
        p = self.p
        return {r * r % p: r for r in range(p - 1, -1, -1)}

    def sqrt(self, a) -> Optional[int]:
        return self._roots.get(a % self.p)

    def fourth_root_of_unity(self) -> Optional[int]:
        """A primitive 4th root of 1, when q = 1 mod 4."""
        return self.sqrt(self.p - 1) if self.p % 4 == 1 else None

    def __repr__(self):
        return f"GF({self.p})"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("GF", self.p))


def _find_irreducible(p: int, k: int) -> tuple[int, ...]:
    """Lexicographically first monic irreducible of degree k over F_p, by
    `poly_factor`.

    Returned as low-to-high coefficients of the non-leading part, i.e. the
    polynomial is x^k + sum(c[i] x^i).
    """
    field = PrimeField(p)
    for code in range(p**k):
        coeffs = tuple((code // p**i) % p for i in range(k))
        if poly_factor(field, coeffs + (1,)) == [(coeffs + (1,), 1)]:
            return coeffs
    raise RuntimeError("no irreducible polynomial found")


class ExtField(_FieldOps):
    """F_{p^k} via multiplication tables; elements are ints in range(p^k).

    The int encodes a polynomial in the generator with base-p digits.
    Table-driven so the oracle's inner loops stay cheap; only built for
    the tiny orders the group enumerations need.
    """

    def __init__(self, p: int, k: int):
        if not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        if k < 2:
            raise ValueError("use PrimeField for k = 1")
        q = p**k
        if q > 128:
            raise ValueError(f"extension field of order {q} exceeds table budget")
        self.p = p
        self.k = k
        self.char = p
        self.order = q
        self.zero = 0
        self.one = 1
        self.modulus = _find_irreducible(p, k)
        self._mul = [[0] * q for _ in range(q)]
        for a in range(q):
            for b in range(q):
                self._mul[a][b] = self._poly_mul(a, b)
        self._inv = [0] * q
        for a in range(1, q):
            for b in range(1, q):
                if self._mul[a][b] == 1:
                    self._inv[a] = b
                    break

    def _digits(self, a: int) -> list[int]:
        out = []
        for _ in range(self.k):
            out.append(a % self.p)
            a //= self.p
        return out

    def _undigits(self, ds) -> int:
        out = 0
        for d in reversed(ds):
            out = out * self.p + d
        return out

    def _poly_mul(self, a: int, b: int) -> int:
        p, k = self.p, self.k
        da, db = self._digits(a), self._digits(b)
        prod = [0] * (2 * k - 1)
        for i, x in enumerate(da):
            if x:
                for j, y in enumerate(db):
                    prod[i + j] = (prod[i + j] + x * y) % p
        # reduce modulo x^k + modulus
        for deg in range(2 * k - 2, k - 1, -1):
            c = prod[deg]
            if c:
                prod[deg] = 0
                for i, m in enumerate(self.modulus):
                    prod[deg - k + i] = (prod[deg - k + i] - c * m) % p
        return self._undigits(prod[:k])

    def of(self, n) -> int:
        if isinstance(n, Fraction):
            num = self.of(n.numerator)
            den = self.of(n.denominator)
            return self.div(num, den)
        return operator.index(n) % self.p

    def add(self, a, b):
        p = self.p
        da, db = self._digits(a), self._digits(b)
        return self._undigits([(x + y) % p for x, y in zip(da, db)])

    def sub(self, a, b):
        p = self.p
        da, db = self._digits(a), self._digits(b)
        return self._undigits([(x - y) % p for x, y in zip(da, db)])

    def mul(self, a, b):
        return self._mul[a][b]

    def neg(self, a):
        return self.sub(0, a)

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return self._inv[a]

    def div(self, a, b):
        return self._mul[a][self.inv(b)]

    def is_zero(self, a) -> bool:
        return a == 0

    def dot(self, xs, ys) -> int:
        acc = 0
        for x, y in zip(xs, ys):
            if x and y:
                acc = self.add(acc, self._mul[x][y])
        return acc

    def sub_scaled(self, xs, f, ys) -> list:
        row = self._mul[f]
        return [self.sub(x, row[y]) if y else x for x, y in zip(xs, ys)]

    def elements(self):
        return range(self.order)

    def units(self):
        return range(1, self.order)

    @cached_property
    def _roots(self) -> dict:
        """Each square mapped to its smallest root."""
        return {self._mul[r][r]: r for r in range(self.order - 1, -1, -1)}

    def sqrt(self, a) -> Optional[int]:
        return self._roots.get(a)

    def fourth_root_of_unity(self) -> Optional[int]:
        if self.char == 2:
            return None
        return self.sqrt(self.of(-1)) if (self.order - 1) % 4 == 0 else None

    def __repr__(self):
        return f"GF({self.p}^{self.k})"

    def __eq__(self, other):
        return isinstance(other, ExtField) and (other.p, other.k) == (self.p, self.k)

    def __hash__(self):
        return hash(("GF", self.p, self.k))


@lru_cache(maxsize=None)
def gf(q: int):
    """The finite field with q elements (q = p, or p^k up to 128), one
    object per q for the process."""
    if _is_prime(q):
        return PrimeField(q)
    for p in range(2, q):
        if _is_prime(p):
            k, n = 0, q
            while n % p == 0:
                n //= p
                k += 1
            if n == 1 and k >= 2:
                return ExtField(p, k)
    raise ValueError(f"{q} is not a prime power")


# The field the certificates sample over: the smallest prime above 1000
# with p = 1 mod 4, so that F_p holds a primitive 4th root of unity i.
VERIFICATION_PRIME = 1009
