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
low-first coefficient tuples; the ``poly_*`` helpers are also the
arithmetic of K(t).  Bruhat decoding (`bruhat_permutation`) pivots each
column on its lowest nonzero entry in a row not yet used and clears the
unused rows above it, with row operations only.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

Matrix = tuple[tuple[object, ...], ...]


@lru_cache(maxsize=64)
def identity(field, n: int) -> Matrix:
    zeros = (field.zero,) * (n - 1)
    return tuple(zeros[:i] + (field.one,) + zeros[i:] for i in range(n))


def zero_matrix(field, n: int, m: int | None = None) -> Matrix:
    m = n if m is None else m
    return tuple(tuple(field.zero for _ in range(m)) for _ in range(n))


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
        akk = a[k][k]
        row = a[k][:k]          # R: 1 x k
        col = [a[i][k] for i in range(k)]  # C: k x 1
        sub = [r[:k] for r in a[:k]]       # A_k: k x k
        # Toeplitz column: [1, -akk, -R C, -R A C, -R A^2 C, ...]
        toep = [field.one, field.neg(akk)]
        vec = col
        for _ in range(k):
            toep.append(field.neg(field.dot(row, vec)))
            vec = [field.dot(r, vec) for r in sub]
        new = [field.zero] * (k + 2)
        for i, t in enumerate(toep[: k + 2]):
            if field.is_zero(t):
                continue
            for j, c in enumerate(poly):
                if i + j < k + 2:
                    new[i + j] = field.add(new[i + j], field.mul(t, c))
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
    quot = [field.zero] * max(0, len(num) - len(den) + 1)
    inv_lead = field.inv(den[-1])
    while len(num) >= len(den):
        shift = len(num) - len(den)
        factor = field.mul(num[-1], inv_lead)
        quot[shift] = factor
        num[shift:] = field.sub_scaled(num[shift:], factor, den)
        num = list(poly_trim(field, num))
    return tuple(quot), tuple(num)


def poly_gcd(field, a, b):
    a, b = poly_trim(field, a), poly_trim(field, b)
    while b:
        _, r = poly_divmod(field, a, b)
        a, b = b, r
    if a:
        inv = field.inv(a[-1])
        a = tuple(field.mul(inv, c) for c in a)
    return a


def poly_derivative(field, coeffs):
    return poly_trim(field, tuple(
        field.mul(field.of(i), c) for i, c in enumerate(coeffs) if i >= 1))


def squarefree_part(field, coeffs):
    """The radical of a polynomial (inseparable factors handled by gcd loop)."""
    coeffs = poly_trim(field, coeffs)
    d = poly_derivative(field, coeffs)
    if not d:
        return coeffs  # p-th power or constant; callers only need a divisor
    g = poly_gcd(field, coeffs, d)
    q, r = poly_divmod(field, coeffs, g)
    if r:
        raise AssertionError("gcd does not divide")
    return poly_trim(field, q)


def poly_eval_matrix(field, coeffs, a: Matrix) -> Matrix:
    n = len(a)
    acc = zero_matrix(field, n)
    for c in reversed(coeffs):
        acc = mat_mul(field, acc, a)
        acc = tuple(
            tuple(field.add(acc[i][j], c) if i == j else acc[i][j]
                  for j in range(n)) for i in range(n))
    return acc


def unipotent_partition(field, u: Matrix) -> tuple[int, ...]:
    """Jordan partition of a unipotent matrix from ranks of (u-1)^k."""
    n = len(u)
    nil = scalar_shift(field, u, field.one)
    if rank(field, mat_pow(field, nil, n)) != 0:
        raise ValueError("matrix is not unipotent")
    ranks = [n]
    power = identity(field, n)
    while ranks[-1] > 0:
        power = mat_mul(field, power, nil)
        ranks.append(rank(field, power))
    # conjugate partition parts: lambda'_k = r_{k-1} - r_k
    conj = [ranks[k - 1] - ranks[k] for k in range(1, len(ranks))]
    parts: list[int] = []
    for k, c in enumerate(conj):
        width = c - (conj[k + 1] if k + 1 < len(conj) else 0)
        parts.extend([k + 1] * width)
    return tuple(sorted(parts, reverse=True))


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
