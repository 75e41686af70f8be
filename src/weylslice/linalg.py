"""Dense exact matrices over a field-ops object.

Matrices are immutable tuples of tuples.  Every product is the field's
own ``field.mat_mul`` (packed rows over F_p, integer numerators over Q,
rows by columns with ``field.dot`` elsewhere), every other row update
goes through ``field.sub_scaled``, and the eliminations are the field's
own ``field.rref`` and ``field.det``: the shared Gauss-Jordan and
elimination bodies of `fields._FieldOps`, which F_p and Q replace by the
same eliminations on plain ints.  So each routine here has one code path
for every field.
Every elimination (rank over any field, inverses, and the exact solver
`solve` / `kernel` the rest of the package uses over Q) goes through
`rref`; a rank compared with a fixed value passes that bound as
`at_most`, and the elimination stops one pivot past it.  Characteristic
polynomials use the division-free Berkowitz algorithm so they are valid
over any field, including small characteristic.  Polynomials are
low-first coefficient tuples; the ``poly_*`` helpers are also the arithmetic
of K(t).  The one class invariant is `class_type`: the irreducible factors of
the characteristic polynomial over F_q (`poly_factor`, in every
characteristic), each with its Jordan partition.  Bruhat decoding
(`bruhat_permutation`) pivots each column on its lowest nonzero entry in a
row not yet used and clears the unused rows above it, with row operations
only.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import count
from typing import Sequence

Matrix = tuple[tuple[object, ...], ...]


@lru_cache(maxsize=64)
def identity(field, n: int) -> Matrix:
    zeros = (field.zero,) * (n - 1)
    return tuple(zeros[:i] + (field.one,) + zeros[i:] for i in range(n))


def transpose(a: Matrix) -> Matrix:
    return tuple(zip(*a))


def mat_mul(field, a: Matrix, b: Matrix) -> Matrix:
    return field.mat_mul(a, b)


def fsum(field, items) -> object:
    """Fold with field.add (plain sum() would skip modular reduction)."""
    acc = field.zero
    for x in items:
        acc = field.add(acc, x)
    return acc


def mat_pow(field, a: Matrix, k: int) -> Matrix:
    """a^k by binary powering: no product with the identity, no spare square."""
    if k == 0:
        return identity(field, len(a))
    out = None
    while True:
        if k & 1:
            out = a if out is None else mat_mul(field, out, a)
        k >>= 1
        if not k:
            return out
        a = mat_mul(field, a, a)


def scalar_shift(field, a: Matrix, c) -> Matrix:
    """a - c * I."""
    out = [list(row) for row in a]
    for i, row in enumerate(out):
        row[i] = field.sub(row[i], c)
    return tuple(map(tuple, out))


def rank(field, a: Matrix, at_most: int | None = None) -> int:
    """Exact rank, by Gauss-Jordan elimination.

    With `at_most`, the rank when it is at most `at_most`, else
    at_most + 1: the elimination stops at that many pivots.
    """
    if not a or not a[0]:
        return 0
    return len(rref(field, a, None if at_most is None else at_most + 1)[1])


def rref(field, a,
         max_pivots: int | None = None) -> tuple[list[list], list[int]]:
    """Reduced row echelon form of `a` (new rows) and its pivot columns,
    by the field's Gauss-Jordan elimination `field.rref`.

    The form is unique, so bases read off it are canonical.  With
    `max_pivots` the elimination stops once it has that many pivots, and
    the rows are only partly reduced.
    """
    return field.rref(a, max_pivots)


def solve(field, a, b) -> tuple | None:
    """The x with a x = b, or None when b is off the column span of a.

    The columns of `a` must be independent, so that x is unique.
    """
    n = len(a[0])
    m, pivots = rref(field, [list(row) + [y] for row, y in zip(a, b)])
    if pivots and pivots[-1] == n:
        return None
    if len(pivots) != n:
        raise ValueError("solve needs a matrix with independent columns")
    return tuple(m[i][n] for i in range(n))


def kernel(field, a) -> list[tuple]:
    """Canonical basis of {x : a x = 0}: one vector per free column of the
    reduced row echelon form, 1 in that column and 0 in the other free ones."""
    m, pivots = rref(field, a)
    cols = len(m[0]) if m else 0
    basis = []
    for c in range(cols):
        if c in pivots:
            continue
        vec = [field.zero] * cols
        vec[c] = field.one
        for r, pc in enumerate(pivots):
            vec[pc] = field.neg(m[r][c])
        basis.append(tuple(vec))
    return basis


def inverse(field, a: Matrix) -> Matrix:
    n = len(a)
    m, pivots = rref(field, [
        list(row) + [field.one if i == j else field.zero for j in range(n)]
        for i, row in enumerate(a)])
    if pivots != list(range(n)):
        raise ZeroDivisionError("matrix is singular")
    return tuple(tuple(row[n:]) for row in m)


def det(field, a: Matrix):
    """Determinant by the field's elimination `field.det`."""
    return field.det(a)


def charpoly(field, a: Matrix) -> tuple:
    """Coefficients of det(xI - a), low degree first, by Berkowitz.

    Division-free, hence valid over any commutative base including
    small prime fields where Leverrier-style traces break down.
    """
    n = len(a)
    if n == 0:
        return (field.one,)
    # Berkowitz: iteratively build the characteristic polynomial vector.
    # poly holds coefficients of det(xI - leading principal minor), highest
    # degree first.
    poly = [field.one, field.neg(a[0][0])]
    for k in range(1, n):
        row = a[k][:k]          # R: 1 x k
        vecs = [[a[i][k] for i in range(k)]]  # C: k x 1
        sub = [r[:k] for r in a[:k]]          # A_k: k x k
        for _ in range(k - 1):
            vecs.append([field.dot(r, vecs[-1]) for r in sub])
        # Toeplitz column: [1, -akk, -R C, -R A C, ..., -R A^(k-1) C]
        toep = [field.one, field.neg(a[k][k])] + [
            field.neg(field.dot(row, v)) for v in vecs]
        new = [field.zero] * (k + 2)
        for i, t in enumerate(toep):
            if not field.is_zero(t):
                new[i:i + k + 1] = field.sub_scaled(new[i:i + k + 1],
                                                    field.neg(t), poly)
        poly = new
    return tuple(reversed(poly))


def poly_eval(field, coeffs: Sequence, x):
    """Evaluate a low-first coefficient list at x."""
    acc = field.zero
    for c in reversed(coeffs):
        acc = field.add(field.mul(acc, x), c)
    return acc


def poly_trim(field, coeffs):
    out = list(coeffs)
    while out and field.is_zero(out[-1]):
        out.pop()
    return tuple(out)


def poly_add(field, a, b):
    """Sum of two low-first coefficient sequences, trimmed."""
    if len(a) < len(b):
        a, b = b, a
    return poly_trim(field, [field.add(x, y) for x, y in zip(a, b)]
                     + list(a[len(b):]))


def poly_mul(field, a, b):
    """Product of two low-first coefficient sequences, trimmed."""
    out = [field.zero] * max(0, len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if not field.is_zero(x):
            out[i:i + len(b)] = field.sub_scaled(out[i:i + len(b)],
                                                 field.neg(x), b)
    return poly_trim(field, out)


def poly_divmod(field, num, den):
    num = list(poly_trim(field, num))
    den = poly_trim(field, den)
    if not den:
        raise ZeroDivisionError("polynomial division by zero")
    n = len(den)
    quot = [field.zero] * max(0, len(num) - n + 1)
    inv_lead = field.inv(den[-1])
    for shift in range(len(quot) - 1, -1, -1):
        factor = field.mul(num[shift + n - 1], inv_lead)
        if not field.is_zero(factor):
            quot[shift] = factor
            num[shift:shift + n] = field.sub_scaled(num[shift:shift + n],
                                                    factor, den)
    return tuple(quot), poly_trim(field, num[:n - 1])


def poly_gcd(field, a, b):
    a, b = poly_trim(field, a), poly_trim(field, b)
    while b:
        _, r = poly_divmod(field, a, b)
        a, b = b, r
    if a:
        inv = field.inv(a[-1])
        a = tuple(field.mul(inv, c) for c in a)
    return a


def poly_eval_matrix(field, coeffs, a: Matrix) -> Matrix:
    """`coeffs` (degree >= 1) at the matrix a, by Horner from c_d a + c_(d-1)."""
    acc = scalar_shift(field, [[field.mul(coeffs[-1], x) for x in row]
                               for row in a], field.neg(coeffs[-2]))
    for c in reversed(coeffs[:-2]):
        acc = scalar_shift(field, mat_mul(field, acc, a), field.neg(c))
    return acc


def _poly_powmod(field, a, e: int, m):
    """a^e mod m, by binary powering."""
    out = (field.one,)
    if len(a) >= len(m):
        a = poly_divmod(field, a, m)[1]
    while e:
        if e & 1:
            out = poly_divmod(field, poly_mul(field, out, a), m)[1]
        e >>= 1
        if e:
            a = poly_divmod(field, poly_mul(field, a, a), m)[1]
    return out


def poly_factor(field, f) -> list[tuple[tuple, int]]:
    """The monic irreducible factors of a monic f over a finite field F_q,
    with multiplicities, by degree and then by coefficients.  The linear
    ones come from the roots, by evaluation at each element.  Then for
    d = 2, 3, ..., gcd(f, x^(q^d) - x) is the product of the factors of
    degree d left in f (`_split_equal_degree` splits it), until 2d > deg f
    and what is left is irreducible."""
    q = field.order
    if not q:
        raise ValueError("poly_factor needs a finite field")
    f, out = poly_trim(field, f), []
    for z in field.elements():
        if len(f) == 1:
            break
        m, (quo, rem) = 0, _deflate(field, f, z)
        while field.is_zero(rem):
            f, m = quo, m + 1
            quo, rem = _deflate(field, f, z)
        if m:
            out.append(((field.neg(z), field.one), m))
    x, minus_x = (field.zero, field.one), (field.zero, field.neg(field.one))
    d, h = 1, x  # h = x^(q^d) mod f once d > 1
    while 2 * (d + 1) < len(f):
        d += 1
        h = _poly_powmod(field, h, q * q if d == 2 else q, f)
        for p in _split_equal_degree(
                field, poly_gcd(field, f, poly_add(field, h, minus_x)), d):
            m, (quo, rem) = 0, poly_divmod(field, f, p)
            while not rem:
                f, m = quo, m + 1
                quo, rem = poly_divmod(field, f, p)
            out.append((p, m))
            h = poly_divmod(field, h, f)[1]
    if len(f) > 1:
        out.append((f, 1))
    return sorted(out, key=lambda pm: (len(pm[0]), pm[0]))


def _deflate(field, f, z):
    """The quotient and the remainder f(z) of f by x - z, by Horner."""
    acc, quo = field.zero, []
    for c in reversed(f):
        acc = field.add(field.mul(acc, z), c)
        quo.append(acc)
    return tuple(reversed(quo[:-1])), quo[-1]


def _split_equal_degree(field, g, d: int) -> list[tuple]:
    """The factors, sorted, of a monic squarefree g whose irreducible
    factors all have degree d, by Cantor-Zassenhaus (*Math. Comp.* 36,
    1981): gcd(g, a^((q^d - 1)/2) - 1) keeps the factors at which a is a
    nonzero square, for trial a = x, x + 1, ... in the order of their
    base-q codes; some a of degree < deg g separates two factors (Chinese
    remainder theorem).  For q = 2^k the test is the trace map instead:
    gcd(g, a + a^2 + ... + a^(2^(kd - 1))) keeps the factors at which a
    has trace 0 over F_2 (von zur Gathen-Gerhard, *Modern Computer
    Algebra*, ch. 14)."""
    if len(g) - 1 <= d:
        return [g] if len(g) > 1 else []
    q, minus_one = field.order, (field.neg(field.one),)
    for code in count(q):
        a = []
        while code:
            code, digit = divmod(code, q)
            a.append(digit)
        if field.char == 2:
            test = power = poly_divmod(field, a, g)[1]
            for _ in range((q.bit_length() - 1) * d - 1):
                power = _poly_powmod(field, power, 2, g)
                test = poly_add(field, test, power)
        else:
            test = poly_add(field, _poly_powmod(field, a, (q ** d - 1) // 2,
                                                g), minus_one)
        h = poly_gcd(field, g, test)
        if 1 < len(h) < len(g):
            return sorted(_split_equal_degree(field, h, d)
                          + _split_equal_degree(
                              field, poly_divmod(field, g, h)[0], d))


def class_type(field, g: Matrix) -> tuple[tuple[tuple, tuple[int, ...]], ...]:
    """The type of g over a finite field F_q: each monic irreducible factor
    p of its characteristic polynomial (as `poly_factor` lists them) with
    the Jordan partition of g at p.  Two matrices over F_q are conjugate in
    GL_n(F_q) exactly when their types agree (Green, *Trans. AMS* 80, 1955).

    g has (r_(k-1) - r_k) / deg p blocks of size >= k at p, r_k the rank of
    p(g)^k; the ranks stop once the rest of p's multiplicity is forced: a
    single unit, or all of it in the one block still growing."""
    n, out = len(g), []
    for p, m in poly_factor(field, charpoly(field, g)):
        d, at_least, prev, power, pg = len(p) - 1, [], n, None, None
        while m:
            if m == 1 or at_least and at_least[-1] == 1:
                at_least += [1] * m
                break
            pg = pg or poly_eval_matrix(field, p, g)
            power = pg if power is None else mat_mul(field, power, pg)
            r = rank(field, power)
            at_least.append((prev - r) // d)
            prev, m = r, m - at_least[-1]
        out.append((p, tuple(sum(1 for c in at_least if c >= j)
                             for j in range(1, at_least[0] + 1))))
    return tuple(out)


def unipotent_partition(field, u: Matrix) -> tuple[int, ...]:
    """Jordan partition of a unipotent matrix: its type at x - 1."""
    (p, parts), *rest = class_type(field, u)
    if rest or p != (field.neg(field.one), field.one):
        raise ValueError("matrix is not unipotent")
    return parts


def bruhat_permutation(field, g: Matrix) -> tuple[int, ...]:
    """The permutation w with g in B w B, B upper triangular in GL_n.

    Returns w as a tuple: column j of the permutation matrix has its 1 in
    row w[j].  Decoded column by column: pivot on the lowest nonzero entry
    in a row not yet used, then clear the rows above it in that column
    with upper-triangular row operations.  No column operation is needed:
    clearing the pivot row to the right would only rewrite a used row,
    and no later column reads one, since every unused row is already 0 in
    the columns processed so far.  For the same reason a row update
    starts right of the pivot column.
    """
    n = len(g)
    m = [list(r) for r in g]
    perm = [-1] * n
    used_rows: set[int] = set()
    for j in range(n):
        piv = None
        for i in range(n - 1, -1, -1):
            if i not in used_rows and not field.is_zero(m[i][j]):
                piv = i
                break
        if piv is None:
            raise ZeroDivisionError("matrix is singular")
        perm[j] = piv
        used_rows.add(piv)
        inv, tail = field.inv(m[piv][j]), m[piv][j + 1:]
        for i in range(piv):
            if i not in used_rows and not field.is_zero(m[i][j]):
                m[i][j + 1:] = field.sub_scaled(
                    m[i][j + 1:], field.mul(inv, m[i][j]), tail)
    return tuple(perm)
