"""Parametrized slice families wdot_S T^{w_S} U^{w_S} per catalog sheet.

A family is its sheet's `SheetDescriptor` plus a chart.  The one
`SliceFamily` constructor reads n, the label and, for a matrix family, the
`GroupContext` off the descriptor (w = w_S on first use); `build_family`
finds the class in one family table keyed by (type, label).  A subclass is
only its chart: exact matrices (tuples for E6/E7) in the catalog's
coordinates, one claimed component per entry s of `signs()`, labelled
`label_format.format(*s)`, with the class's `coordinate` and `coord_arity`
and the points `_component_point(*s)`; and membership by the group test,
then rank and minimal-polynomial conditions (never by root-finding in
extension fields: eigenvalue pairs l, 1/l enter through mu = l + 1/l, a
base-field eigenvalue of X + X^-1); type A, good in every characteristic,
reads the class type of X over F_q (`linalg.class_type`) instead.  For
Sp and SO the group test is the form (`GroupContext.form_inverse`): an SO
branch that accepts X fixes det X = 1 by itself, and det X is taken only
to word a rejection (`_rejected`).  It
also answers the sampling questions:
`is_matrix`, `sample_coords(field, rng, count)` (special values first),
`ambient(field, rng)` (a random chart point, or None on a claimed
component, decided in closed form: a check by `membership` would make the
off-locus samples vacuous) and `transitivity_points(field, mu)`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from fractions import Fraction
from itertools import product
from typing import Callable, Optional, Sequence

from .fields import PrimeField
from .linalg import (
    Matrix,
    class_type,
    det,
    fsum,
    identity,
    mat_mul,
    rank as mat_rank,
    scalar_shift,
)
from .matgroups import GroupContext
from .sheetcat import SheetDescriptor, catalog_sheet


class ExtensionRequired(ValueError):
    """The base field lacks a needed constant (square root / 4th root of 1)."""


@dataclass(frozen=True)
class MembershipResult:
    member: bool
    reason: str
    member_type: Optional[str] = None

    def __bool__(self):
        return self.member


@dataclass(frozen=True)
class Component:
    """One claimed irreducible component of the slice intersection."""

    label: str
    coordinate: str            # human description of the parametrization
    point: Callable            # point(field, coord) -> Matrix or tuple
    coord_arity: int = 1


def _fourth_root(field):
    w = field.fourth_root_of_unity() if hasattr(field, "fourth_root_of_unity") else None
    if w is None:
        raise ExtensionRequired(
            "a primitive 4th root of unity is required; extend the field")
    return w


def _sqrt_sign(field, e: int):
    """zeta with zeta^2 = e for e in {1,-1}."""
    if e == 1:
        return field.one
    return _fourth_root(field)


def _random_unit(field, rng):
    q = field.order
    while True:
        x = rng.randrange(q)
        if not field.is_zero(x):
            return x


def _uniform(field, rng):
    return field.of(rng.randrange(field.order))


_GROUPS = {"A": "GL", "B": "SO-odd", "C": "Sp", "D": "SO-even"}


class SliceFamily:
    """A catalog sheet's slice family: its descriptor plus a chart.

    A subclass gives the chart: `signs()`, `label_format`, `coordinate`,
    `coord_arity` and `_component_point` make its components, and
    `membership`, `ambient` and `sample_coords` answer for its points."""

    is_matrix = True
    coord_arity = 1

    def __init__(self, descriptor: SheetDescriptor):
        self.descriptor = descriptor
        self.n = descriptor.rank
        self.label = descriptor.label
        if self.is_matrix:
            self.ctx = GroupContext(_GROUPS[descriptor.group_type], self.n)

    @property
    def w(self):
        """w_S, on first use: the E6/E7 families need no root system."""
        return self.descriptor.w_S()

    def components(self):
        """The claimed components, one per entry s of `signs()`."""
        return [Component(self.label_format.format(*s), self.coordinate,
                          self._component_point(*s), self.coord_arity)
                for s in self.signs()]

    def sample_coords(self, field, rng, count):
        """Deterministic stream of component coordinates, special values first."""
        out = [field.zero, field.one, field.of(2), field.of(-2)]
        while len(out) < count:
            out.append(_uniform(field, rng))
        return out[:count]

    def transitivity_points(self, field, mu):
        raise TypeError("transitivity check covers the big-cell families")


def _is_scalar(field, g):
    n = len(g)
    z = g[0][0]
    return all(g[i][j] == (z if i == j else field.zero)
               for i in range(n) for j in range(n))


def _rank_shift(field, g, c, at_most=None):
    """rank(g - c), bounded by `at_most` as in `linalg.rank`."""
    return mat_rank(field, scalar_shift(field, g, c), at_most)


def _form_sum(ctx: GroupContext, field, X):
    """Y = X + X^-1 as rows if X preserves the group's form, else None
    (`form_inverse`: no det; see `_rejected`).  As lam^2 = 1,
    (X - lam)^2 = X(Y - 2 lam) and X^2 - mu X + 1 = X(Y - mu), with X
    invertible: same ranks, same kernels."""
    inv = ctx.form_inverse(field, X)
    return inv and field.mat_add(X, inv)


def _off_group(ctx: GroupContext) -> MembershipResult:
    return MembershipResult(
        False, f"X is not in {ctx.label.split('-')[0]}_{ctx.size}")


def _rejected(ctx: GroupContext, field, X, reason: str) -> MembershipResult:
    """The result for an X that preserves the form but meets no accepting
    branch: off the group when SO needs det X = 1 and it fails, else
    `reason`.  The only det of an SO membership: each accepting branch
    fixes det X = 1 (its docstring says why), by det g = (-1)^{rk(g - 1)}
    for orthogonal g in odd characteristic (Scherk, Proc. AMS 1, 1950);
    in characteristic 2, det^2 = 1 forces det = 1."""
    if ctx._det_one and det(field, X) != field.one:
        return _off_group(ctx)
    return MembershipResult(False, reason)


def _square_zero_or_mu(ctx, field, X, r, r_text, unipotent, semisimple,
                       failure):
    """Membership shared by the C and D families: X in the group, and
    X = lam(1 + N) with N of rank r and N^2 = 0, or X + X^-1 = mu with
    mu != +-2.  By `_form_sum` both need Y = X + X^-1 scalar: N^2 = 0 is
    Y = 2 lam, and X^2 - mu X + 1 = 0 is Y = mu.

    Both branches fix det X = 1 for SO_2n.  Branch mu != +-2: 1 is not a
    root of t^2 - mu t + 1, so rk(X - 1) = 2n is even.  Square-zero
    branch: X = lam(1 + N) with N nilpotent, so det X = lam^{2n} = 1."""
    Y = _form_sum(ctx, field, X)
    if Y is None:
        return _off_group(ctx)
    if _is_scalar(field, Y):
        mu, two = Y[0][0], field.of(2)
        if mu != two and mu != field.neg(two):
            return MembershipResult(True, "X + X^-1 = mu with mu != +-2",
                                    semisimple)
        lam = field.one if mu == two else field.neg(field.one)
        if _rank_shift(field, X, lam, at_most=r) == r:
            return MembershipResult(
                True, f"rk(X-({lam}))={r_text} and square zero", unipotent)
    return _rejected(ctx, field, X, failure)


def _fixes_a_column(field, X, m) -> bool:
    """X u = u for the first nonzero column u of m (False when m = 0)."""
    j = next((j for j in range(len(m[0]))
              if any(not field.is_zero(row[j]) for row in m)), None)
    if j is None:
        return False
    u = [row[j] for row in m]
    return all(field.is_zero(field.sub(field.dot(r, u), x))
               for r, x in zip(X, u))


def _unitriangular_inverse_t(field, U) -> Matrix:
    """(U^T)^-1 for an upper unitriangular U, by back substitution: row i
    of U^-1 is e_i minus U[i][k] times row k of U^-1 over k > i."""
    n = len(U)
    rows = [None] * n
    for i in range(n - 1, -1, -1):
        row = [field.one if j == i else field.zero for j in range(n)]
        for k in range(i + 1, n):
            if not field.is_zero(U[i][k]):
                row = field.sub_scaled(row, U[i][k], rows[k])
        rows[i] = row
    return tuple(zip(*rows))


# ---------------------------------------------------------------------------
# type B, sheet S (w_S = w0)
# ---------------------------------------------------------------------------

class BFamilyS(SliceFamily):
    """SO_{2n+1} slice family X(E, M, Q, v) over the big cell."""

    label_format = "e={} eta={}"
    coordinate = "a in k (mu = 2(-1)^n - a^2/2)"

    def __init__(self, descriptor: SheetDescriptor):
        super().__init__(descriptor)
        self.sign = -1 if self.n % 2 else 1  # (-1)^n

    def representative(self, field) -> Matrix:
        return self.point(field, (1,) * self.n, [field.zero] * self.n, {}, {})

    def point(self, field, e: Sequence[int], v: Sequence, q_upper, a_upper) -> Matrix:
        """X from sign vector e, vector v, strict-upper Q and skew A data."""
        n = self.n
        one, zero = field.one, field.zero
        Q = tuple(tuple(one if i == j else (q_upper.get((i, j), zero) if i < j
                                            else zero) for j in range(n))
                  for i in range(n))
        Qt_inv = _unitriangular_inverse_t(field, Q)
        A = [[zero] * n for _ in range(n)]
        for (i, j), val in a_upper.items():
            A[i][j] = val
            A[j][i] = field.neg(val)
        half = field.inv(field.of(2))
        M = [[field.sub(A[i][j],
                        field.mul(half, field.mul(v[i], v[j])))
              for j in range(n)] for i in range(n)]
        E = [field.of(x) for x in e]
        u0 = field.of(self.sign)
        N = 2 * n + 1
        X = [[zero] * N for _ in range(N)]
        X[0][0] = u0
        for j in range(n):
            X[0][1 + n + j] = field.mul(u0, v[j])
        EQ = [[field.mul(E[i], Q[i][j]) for j in range(n)] for i in range(n)]
        EQv = [field.dot(row, v) for row in EQ]
        EQM = mat_mul(field, EQ, M)
        for i in range(n):
            for j in range(n):
                X[1 + i][1 + n + j] = field.mul(E[i], Qt_inv[i][j])
                X[1 + n + i][1 + j] = EQ[i][j]
                X[1 + n + i][1 + n + j] = EQM[i][j]
            X[1 + n + i][0] = field.neg(EQv[i])
        return tuple(tuple(r) for r in X)

    def signs(self):
        """(e, eta) with eta_1 = 1."""
        return [(e, (1,) + eta) for e in product((1, -1), repeat=self.n)
                for eta in product((1, -1), repeat=self.n - 1)]

    def _component_point(self, e, eta):
        """The point of component (e, eta) at a, C0 + a C1 + a^2 C2, with
        the coefficient matrices built once per field (`_b_coefficients`)."""
        @cache
        def coefficients(field):
            return _b_coefficients(self, field, e, eta)

        return lambda field, a: _quadratic_point(field, coefficients(field), a)

    def membership(self, field, X) -> MembershipResult:
        """Semisimple, unipotent or twisted unipotent member of the sheet.

        X must lie in SO_{2n+1}; its form test's h X = 1 is the only matrix
        product, and h = X^-1 gives Y = X + X^-1 (`_form_sum`).  Semisimple:
        (X - 1)(X^2 - mu X + 1) = X(X - 1)(Y - mu) = 0, mu != +-2 and
        rk(X - 1) = 2n.  As t - 1 and t^2 - mu t + 1 are then coprime,
        ker(X - 1) = im(Y - mu): rk(X - 1) = 2n is rk(Y - mu) = 1, and mu
        is the one value (X - 1)Y = mu (X - 1) allows at the first nonzero
        entry of X - 1 (one dot product).  Y - mu = u w^T for its first
        nonzero column u, so (X - 1)(Y - mu) = 0 is (X - 1)u = 0.
        Unipotent (or twisted by -1): rk((X -+ 1)^2) = rk(Y -+ 2) = 1.

        At most one branch holds, so the cheaper semisimple test can run
        first.  With mu != +-2 the cubic is squarefree, so X is
        diagonalizable and rk((X -+ 1)^2) = 1 makes +-1 an eigenvalue of
        multiplicity 2n: for +1 that contradicts rk(X - 1) = 2n, and for -1
        it makes -1 a root of t^2 - mu t + 1, that is mu = -2.

        The group test is the form alone (`_rejected` takes det X).  The
        semisimple branch fixes det X = 1, as rk(X - 1) = 2n is even.  A
        unipotent branch leaves 2n eigenvalues lam and one more, eps =
        det X = +-1, so it needs tr X = 2n lam + 1: a reflection has
        rk((X - 1)^2) = 1 and det -1.
        """
        Y = _form_sum(self.ctx, field, X)
        if Y is None:
            return _off_group(self.ctx)
        one = field.one
        u0 = field.of(self.sign)
        k = scalar_shift(field, X, one)
        i, j = next(((i, j) for i, row in enumerate(k) for j, x in
                     enumerate(row) if not field.is_zero(x)), (0, 0))
        if not field.is_zero(k[i][j]):
            mu = field.div(field.dot(k[i], [row[j] for row in Y]), k[i][j])
            if mu != field.of(2) and mu != field.of(-2):
                quad = scalar_shift(field, Y, mu)
                if (mat_rank(field, quad, at_most=1) == 1
                        and _fixes_a_column(field, X, quad)):
                    return MembershipResult(
                        True, "semisimple with eigenvalue trace mu",
                        "semisimple O_lambda member")
        for lam in (one, field.neg(one)):
            if mat_rank(field, scalar_shift(field, Y, field.add(lam, lam)),
                        at_most=1) == 1:
                if fsum(field, (r[i] for i, r in enumerate(X))) != field.add(
                        field.mul(field.of(2 * self.n), lam), one):
                    return _off_group(self.ctx)
                if lam == u0:
                    t = ("unipotent (3,2^(n-2),1^2) member" if self.sign == 1
                         else "rho-twisted unipotent member")
                else:
                    t = ("unipotent (3,2^(n-1)) member" if lam == field.one
                         else "rho-twisted unipotent member")
                return MembershipResult(True, f"rk((X-{lam})^2)=1", t)
        return _rejected(self.ctx, field, X,
                         "no sheet membership condition holds")

    def ambient(self, field, rng):
        n = self.n
        e = tuple(rng.choice((1, -1)) for _ in range(n))
        v = [_uniform(field, rng) for _ in range(n)]
        q_upper = {(i, j): _uniform(field, rng)
                   for i in range(n) for j in range(i + 1, n)}
        a_upper = {(i, j): _uniform(field, rng)
                   for i in range(n) for j in range(i + 1, n)}
        return self.point(field, e, v, q_upper, a_upper)

    def transitivity_points(self, field, mu):
        """Both roots +-a of a^2 = 2(2u0 - mu) on every component."""
        u0 = field.of(self.sign)
        a = field.sqrt(field.mul(field.of(2),
                                 field.sub(field.mul(field.of(2), u0), mu)))
        if a is None:
            return None
        return [comp.point(field, aa) for comp in self.components()
                for aa in {a, field.neg(a)}]


def _b_coefficients(fam: BFamilyS, field, e, eta):
    """C0 and the rows that depend on a, for `_quadratic_point`.

    With zeta_i^2 = e_i and v0_i = eta_i / zeta_i, the chart data of the
    component are v = a v0, mu = 2 u0 - a^2/2 and A = mu A0 for the skew
    A0_ij = eta_i eta_j / (zeta_i zeta_j) (i < j), while
    qinv = D (I + 2U) D^-1 with D = diag(v0) and U the all-ones strict
    upper matrix does not depend on a.  With S the superdiagonal shift,
    (I + 2U)^-1 = I + sum_k 2 (-1)^k S^k, so Q = qinv^-1 is qinv with entry
    (i, j) times (-1)^(j - i), and its inverse transpose is qinv^T.  Then
    M = A - v v^T / 2 = 2 u0 A0 - (a^2/2)(A0 + v0 v0^T), so of the rows of
    X (see `BFamilyS.point`) row 0 gains a u0 v0^T, and row 1 + n + i is
    (-a (EQ v0)_i, EQ_i, 2 u0 (EQ A0)_i - (a^2/2)(EQ A0 + EQ v0 v0^T)_i).
    """
    n, N = fam.n, 2 * fam.n + 1
    zero, mul, neg = field.zero, field.mul, field.neg
    zeta = [_sqrt_sign(field, ei) for ei in e]
    zinv = [field.inv(z) for z in zeta]
    u0 = field.of(fam.sign)
    half = field.inv(field.of(2))
    v0 = [mul(field.of(eta[i]), zinv[i]) for i in range(n)]
    qinv = [[field.one if i == j else zero for j in range(n)]
            for i in range(n)]
    A0 = [[zero] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            qinv[i][j] = mul(field.of(2 * eta[i] * eta[j]),
                             mul(zinv[i], zeta[j]))
            A0[i][j] = mul(field.of(eta[i] * eta[j]), mul(zinv[i], zinv[j]))
            A0[j][i] = neg(A0[i][j])
    E = [field.of(x) for x in e]
    EQ = [[mul(E[i], neg(x) if (j - i) % 2 else x) for j, x in enumerate(row)]
          for i, row in enumerate(qinv)]
    EQv0 = [field.dot(row, v0) for row in EQ]
    EQA0 = mat_mul(field, EQ, A0)
    two_u0 = field.add(u0, u0)
    C0 = [[zero] * N for _ in range(N)]
    C0[0][0] = u0
    for i in range(n):
        C0[1 + i][1 + n:] = [mul(E[i], qinv[j][i]) for j in range(n)]
        C0[1 + n + i][1:1 + n] = EQ[i]
        C0[1 + n + i][1 + n:] = [mul(two_u0, x) for x in EQA0[i]]
    varying = [(0, tuple(C0[0]),
                (zero,) * (1 + n) + tuple(mul(u0, x) for x in v0),
                (zero,) * N)]
    for i in range(n):
        c2 = [neg(mul(half, field.add(x, mul(EQv0[i], y))))
              for x, y in zip(EQA0[i], v0)]
        varying.append((1 + n + i, tuple(C0[1 + n + i]),
                        (neg(EQv0[i]),) + (zero,) * (N - 1),
                        (zero,) * (1 + n) + tuple(c2)))
    return tuple(map(tuple, C0)), varying


def _quadratic_point(field, coeffs, a) -> Matrix:
    """C0 + a C1 + a^2 C2 from `coeffs` = (C0, [(i, C0_i, C1_i, C2_i)] over
    the rows i where C1 or C2 is nonzero); the other rows are C0's own.
    Over F_p each entry is one (x + a y + a^2 z) % p on ints."""
    const, varying = coeffs
    out = list(const)
    if isinstance(field, PrimeField):
        p, a2 = field.p, a * a
        for i, r0, r1, r2 in varying:
            out[i] = tuple([(x + a * y + a2 * z) % p
                            for x, y, z in zip(r0, r1, r2)])
    else:
        add, mul = field.add, field.mul
        a2 = mul(a, a)
        for i, r0, r1, r2 in varying:
            out[i] = tuple(add(x, add(mul(a, y), mul(a2, z)))
                           for x, y, z in zip(r0, r1, r2))
    return tuple(out)


# ---------------------------------------------------------------------------
# rank-two-support sheets: B Sprime, C S1, D Sprime  (w flips eps_1, eps_2)
# ---------------------------------------------------------------------------

class TwoFlipFamily(SliceFamily):
    """wdot * t(eps,eta,c) * prod of the four (two for D) flip-root subgroups.

    Covers B_n Sprime, C_n S1/-S1 and D_n Sprime; membership in each case
    is rk(X - zI) = 2 for the sheet's central twist z.
    """

    label_format = "eps={} eta={}"
    coordinate = "x in k"

    def __init__(self, descriptor: SheetDescriptor):
        super().__init__(descriptor)
        group_type = descriptor.group_type
        self.central = -1 if self.label == "-S1" else 1
        sys = self.ctx.system

        def eps(i, j=None, sj=1):
            v = [Fraction(0)] * sys.dim
            v[i] = Fraction(1)
            if j is not None:
                v[j] += Fraction(sj)
            return tuple(v)

        if group_type == "C":
            self.roots = [eps(0, 1, -1), eps(0, 1, 1), eps(0, 0, 1), eps(1, 1, 1)]
        elif group_type == "B":
            self.roots = [eps(0, 1, -1), eps(0, 1, 1), eps(0), eps(1)]
        else:
            self.roots = [eps(0, 1, -1), eps(0, 1, 1)]
        self.n_unip = len(self.roots)

    def representative(self, field) -> Matrix:
        """The displayed block-swap representative on the (1,2)-coordinates."""
        n, N = self.n, self.ctx.size
        m = [list(r) for r in identity(field, N)]
        t = self.descriptor.group_type
        off = 1 if t == "B" else 0
        for i in range(2):
            ui = off + i
            wi = off + n + i
            m[ui][ui] = field.zero
            m[wi][wi] = field.zero
            m[ui][wi] = field.one
            m[wi][ui] = field.neg(field.one) if t == "C" else field.one
        return tuple(tuple(r) for r in m)

    def point(self, field, eps: int, eta: int, c, coeffs: Sequence) -> Matrix:
        if len(coeffs) != self.n_unip:
            raise ValueError(f"need {self.n_unip} unipotent coefficients")
        return self._times_root_elements(
            field, self._torus_part(field, eps, eta, c), coeffs)

    def _torus_part(self, field, eps: int, eta: int, c) -> Matrix:
        """wdot t(eps, eta, c), negated for the central twist -1: the
        columns of wdot scaled by the diagonal of t, with no product."""
        t = self.ctx.torus(field, [field.of(eps), field.of(eta)]
                           + [c] * (self.n - 2))
        z = field.of(self.central)
        scale = [field.mul(z, t[j][j]) for j in range(len(t))]
        return tuple(tuple(map(field.mul, row, scale))
                     for row in self.representative(field))

    def _times_root_elements(self, field, out, coeffs) -> Matrix:
        """out times x_r(c) for the flip roots r in order, skipping c = 0,
        by column operations (`GroupContext.times_root_element`)."""
        for r, cf in zip(self.roots, coeffs):
            if not field.is_zero(cf):
                out = self.ctx.times_root_element(field, out, r, cf)
        return out

    def signs(self):
        """(eps, eta)."""
        return list(product((1, -1), repeat=2))

    def _component_point(self, eps, eta):
        """`point` at c = 1 on the solution line through x; wdot t(eps, eta, 1)
        does not depend on x, so each field builds it once."""
        symplectic = self.descriptor.group_type == "C"

        @cache
        def head(field):
            return self._torus_part(field, eps, eta, field.one)

        def point(field, x):
            if symplectic:
                # coefficients (p, eta*p, -2eps, -2eta) on the solution line
                coeffs = [x, field.mul(field.of(eta), x),
                          field.of(-2 * eps), field.of(-2 * eta)]
            else:
                # q = -eta*p, short-root coefficients vanish
                q = field.mul(field.of(-eta), x)
                coeffs = [x, q] + [field.zero] * (self.n_unip - 2)
            return self._times_root_elements(field, head(field), coeffs)

        return point

    def membership(self, field, X) -> MembershipResult:
        """rk(X - z) = 2 in the group; unipotent exactly when X - z is
        nilpotent, i.e. rk(Y - 2z) = rk (X - z)^2 <= 1 (eigenvalues other
        than z come as l, 1/l or as -z, of even multiplicity in Sp, SO).
        Nilpotent X - z has tr(Y - 2z) = 0, a cheap test that goes first.

        The group test is the form alone (`_rejected` takes det X).  For
        B and D, z = 1 (z = -1 occurs only for C, in Sp), and rk(X - 1) = 2
        is even, so an accepted X has det X = 1."""
        Y = _form_sum(self.ctx, field, X)
        if Y is None:
            return _off_group(self.ctx)
        z = field.of(self.central)
        if _rank_shift(field, X, z, at_most=2) == 2:
            zz, tr = field.add(z, z), fsum(field, (r[i] for i, r in enumerate(Y)))
            if (tr == field.mul(field.of(len(Y)), zz)
                    and _rank_shift(field, Y, zz, at_most=1) <= 1):
                t = "unipotent member" + (" (times -1)" if self.central < 0 else "")
            else:
                t = "semisimple or mixed member"
            return MembershipResult(True, f"rk(X - ({self.central}))=2", t)
        return _rejected(self.ctx, field, X,
                         f"rk(X - ({self.central})) != 2")

    def ambient(self, field, rng):
        coeffs = [_uniform(field, rng) for _ in range(self.n_unip)]
        return self.point(field, rng.choice((1, -1)), rng.choice((1, -1)),
                          _random_unit(field, rng), coeffs)


# ---------------------------------------------------------------------------
# type C, sheet S2 (w = w0)
# ---------------------------------------------------------------------------

class CFamilyS2(SliceFamily):
    """Sp_2n family x(E, V, X) = [[0, E V^-T], [-EV, -EVX]]."""

    label_format = "e={}"
    coordinate = "mu = l + 1/l in k"

    def representative(self, field) -> Matrix:
        return self.point(field, (1,) * self.n, {}, {})

    def point(self, field, e: Sequence[int], v_upper, x_sym) -> Matrix:
        n = self.n
        one, zero = field.one, field.zero
        V = [[one if i == j else (v_upper.get((i, j), zero) if i < j else zero)
              for j in range(n)] for i in range(n)]
        Xs = [[zero] * n for _ in range(n)]
        for (i, j), val in x_sym.items():
            Xs[i][j] = val
            if i != j:
                Xs[j][i] = val
        Vt_inv = _unitriangular_inverse_t(field, V)
        E = [field.of(x) for x in e]
        N = 2 * n
        out = [[zero] * N for _ in range(N)]
        EV = [[field.mul(E[i], V[i][j]) for j in range(n)] for i in range(n)]
        EVX = mat_mul(field, EV, Xs)
        for i in range(n):
            for j in range(n):
                out[i][n + j] = field.mul(E[i], Vt_inv[i][j])
                out[n + i][j] = field.neg(EV[i][j])
                out[n + i][n + j] = field.neg(EVX[i][j])
        return tuple(tuple(r) for r in out)

    def signs(self):
        return [(e,) for e in product((1, -1), repeat=self.n)]

    def _component_point(self, e):
        def point(field, mu):
            x_sym = {(i, i): field.neg(field.mul(mu, field.of(e[i])))
                     for i in range(self.n)}
            return self.point(field, e, {}, x_sym)

        return point

    def membership(self, field, X) -> MembershipResult:
        return _square_zero_or_mu(
            self.ctx, field, X, self.n, "n",
            "unipotent (2^n) member up to sign",
            "semisimple O_lambda member", "no S2 membership condition holds")

    def ambient(self, field, rng):
        n = self.n
        e = tuple(rng.choice((1, -1)) for _ in range(n))
        v_upper = {(i, j): _uniform(field, rng)
                   for i in range(n) for j in range(i + 1, n)}
        x_sym = {(i, j): _uniform(field, rng)
                 for i in range(n) for j in range(i, n)}
        return self.point(field, e, v_upper, x_sym)

    def transitivity_points(self, field, mu):
        return [c.point(field, mu) for c in self.components()]


# ---------------------------------------------------------------------------
# type D, sheets S (n even) and R (n odd)
# ---------------------------------------------------------------------------

class DFamilyS(SliceFamily):
    """SO_2n family x(E, D) = [[0, E],[E, D]] in 2x2 sign blocks, n = 2h."""

    label_format = "e={}"
    coordinate = "mu = l + 1/l in k"

    def __init__(self, descriptor: SheetDescriptor):
        super().__init__(descriptor)
        self.h = self.n // 2

    def representative(self, field) -> Matrix:
        return self.point(field, (1,) * self.h, [field.zero] * self.h)

    def point(self, field, e: Sequence[int], x: Sequence) -> Matrix:
        if len(e) != self.h or len(x) != self.h:
            raise ValueError("need h signs and h coordinates")
        out = tuple(tuple(r) for r in _d_blocks(field, self.n, e, x))
        if self.label == "thetaS":
            out = _theta_swap(field, out, self.n)
        return out

    def signs(self):
        return [(e,) for e in product((1, -1), repeat=self.h)]

    def _component_point(self, e):
        def point(field, mu):
            # D = mu * I on the solution line: x_b = -e_b * mu
            return self.point(
                field, e, [field.neg(field.mul(field.of(e[b]), mu))
                           for b in range(self.h)])

        return point

    def membership(self, field, X) -> MembershipResult:
        return _square_zero_or_mu(
            self.ctx, field, X, self.n, "n",
            "very even unipotent (2^n) member up to sign",
            "semisimple member", "no S membership condition holds")

    def ambient(self, field, rng):
        e = tuple(rng.choice((1, -1)) for _ in range(self.h))
        x = [_uniform(field, rng) for _ in range(self.h)]
        if len({field.mul(field.of(e[b]), x[b]) for b in range(self.h)}) == 1:
            return None  # D = mu * I: on the component e
        return self.point(field, e, x)

    def transitivity_points(self, field, mu):
        return [c.point(field, mu) for c in self.components()]


def _d_blocks(field, n: int, e: Sequence[int], x: Sequence) -> list[list]:
    """Rows of the SO_2n matrix [[0, E], [E, D]] in 2x2 sign blocks: block b
    carries e_b J, J = [[0,1],[-1,0]], off the diagonal and -e_b x_b I on it,
    for b < n // 2; every other entry is zero."""
    N = 2 * n
    m = [[field.zero] * N for _ in range(N)]
    for b in range(n // 2):
        i, j = 2 * b, 2 * b + 1
        eb = field.of(e[b])
        m[i][n + j] = eb
        m[j][n + i] = field.neg(eb)
        m[n + i][j] = eb
        m[n + j][i] = field.neg(eb)
        d = field.neg(field.mul(eb, x[b]))
        m[n + i][n + i] = d
        m[n + j][n + j] = d
    return m


def _theta_swap(field, m: Matrix, n: int) -> Matrix:
    """Conjugate by the coordinate swap u_n <-> w_n (the graph twist)."""
    N = 2 * n
    perm = list(range(N))
    perm[n - 1], perm[N - 1] = perm[N - 1], perm[n - 1]
    return tuple(
        tuple(m[perm[i]][perm[j]] for j in range(N)) for i in range(N)
    )


class DFamilyR(SliceFamily):
    """SO_2n family for odd n: the even-rank family plus a (zeta, 1/zeta) leg."""

    label_format = "e={}"
    coordinate = "zeta in k^* (mu = zeta + 1/zeta)"

    def __init__(self, descriptor: SheetDescriptor):
        super().__init__(descriptor)
        self.h = (self.n - 1) // 2

    def representative(self, field) -> Matrix:
        return self.point(field, (1,) * self.h, [field.zero] * self.h,
                          field.one)

    def point(self, field, e: Sequence[int], x: Sequence, zeta) -> Matrix:
        n, N = self.n, 2 * self.n
        m = _d_blocks(field, n, e, x)
        m[n - 1][n - 1] = zeta
        m[N - 1][N - 1] = field.inv(zeta)
        out = tuple(tuple(r) for r in m)
        if self.label == "thetaR":
            out = _theta_swap(field, out, self.n)
        return out

    def signs(self):
        return [(e,) for e in product((1, -1), repeat=self.h)]

    def _component_point(self, e):
        def point(field, zeta):
            mu = field.add(zeta, field.inv(zeta))
            return self.point(
                field, e,
                [field.neg(field.mul(field.of(e[b]), mu)) for b in range(self.h)],
                zeta)

        return point

    def membership(self, field, X) -> MembershipResult:
        return _square_zero_or_mu(
            self.ctx, field, X, self.n - 1, "n-1",
            "unipotent (2^(n-1),1^2) member up to sign",
            "semisimple member", "no R membership condition holds")

    def sample_coords(self, field, rng, count):
        out = [field.one, field.neg(field.one)]
        while len(out) < count:
            out.append(_random_unit(field, rng))
        return out[:count]

    def ambient(self, field, rng):
        e = tuple(rng.choice((1, -1)) for _ in range(self.h))
        x = [_uniform(field, rng) for _ in range(self.h)]
        zeta = _random_unit(field, rng)
        mu = field.add(zeta, field.inv(zeta))
        if all(field.mul(field.of(e[b]), x[b]) == field.neg(mu)
               for b in range(self.h)):
            return None  # D = mu * I: on the component e
        return self.point(field, e, x, zeta)


# ---------------------------------------------------------------------------
# type A (GL / SL)
# ---------------------------------------------------------------------------

class AFamily(SliceFamily):
    """GL_{n+1} family over the m-th sheet, in the 3-block antidiagonal
    shape; the one family made from (n, m), as it looks its sheet up."""

    label_format = "signs={}"
    coordinate = "(a, b) in k^* x k^*"
    coord_arity = 2

    def __init__(self, n: int, m: int):
        super().__init__(catalog_sheet("A", n, f"S_{m}"))
        self.m = m

    def representative(self, field) -> Matrix:
        n1, m = self.n + 1, self.m
        out = [[field.zero] * n1 for _ in range(n1)]
        for c in range(m):
            out[c][n1 - 1 - c] = field.one                 # J_m block, top right
            out[n1 - 1 - c][c] = field.neg(field.one)      # -J_m, bottom left
        for i in range(m, n1 - m):
            out[i][i] = field.one
        return tuple(tuple(r) for r in out)

    def point(self, field, a: Sequence, b, zeta: Sequence) -> Matrix:
        """wdot * diag(a_1..a_m, b,..,b, a_m..a_1) * prod x_{e_c - e_{n+2-c}}(z_c)."""
        n1, m = self.n + 1, self.m
        t = [field.zero] * n1
        for c in range(m):
            t[c] = a[c]
            t[n1 - 1 - c] = a[c]
        for i in range(m, n1 - m):
            t[i] = b
        tu = [[field.zero] * n1 for _ in range(n1)]
        for i in range(n1):
            tu[i][i] = t[i]
        for c in range(m):
            tu[c][n1 - 1 - c] = field.mul(t[c], zeta[c])
        wd = self.representative(field)
        return mat_mul(field, wd, tuple(tuple(r) for r in tu))

    def signs(self):
        return [((1,) + s,) for s in product((1, -1), repeat=self.m - 1)]

    def _component_point(self, signs):
        def point(field, ab):
            a, b = ab
            if field.is_zero(a) or field.is_zero(b):
                raise ValueError("component coordinates live in k^* x k^*")
            # zeta_1 from b^2 + a*zeta_1*b + a^2 = 0
            z1 = field.neg(field.div(
                field.add(field.mul(a, a), field.mul(b, b)), field.mul(a, b)))
            avec = [field.mul(field.of(s), a) for s in signs]
            zvec = [field.mul(field.of(s), z1) for s in signs]
            return self.point(field, avec, b, zvec)

        return point

    def sample_coords(self, field, rng, count):
        return [(_random_unit(field, rng), _random_unit(field, rng))
                for _ in range(count)]

    def ambient(self, field, rng):
        a = [_random_unit(field, rng) for _ in range(self.m)]
        b = _random_unit(field, rng)
        zeta = [_uniform(field, rng) for _ in range(self.m)]
        base, a0_sq = field.mul(a[0], zeta[0]), field.mul(a[0], a[0])
        signed_copies = all(field.mul(a[c], a[c]) == a0_sq
                            and field.mul(a[c], zeta[c]) == base
                            for c in range(self.m))
        # the components are the signed copies of (a_1, zeta_1) on the
        # curve b^2 + a_1 zeta_1 b + a_1^2 = 0; for n + 1 = 2m the point
        # does not read b, and every (a_1, zeta_1) has a b on the curve
        # over the closure
        if signed_copies and (self.n + 1 == 2 * self.m or field.is_zero(
                field.add(field.mul(b, b),
                          field.add(field.mul(base, b), a0_sq)))):
            return None
        return self.point(field, a, b, zeta)

    def membership(self, field, X) -> MembershipResult:
        """By the class type of X over F_q: X = z(1 + N) with N of rank m
        and square zero, or X semisimple with two eigenvalues of
        multiplicities m and n + 1 - m, a conjugate pair when they lie
        outside F_q."""
        if not self.ctx.in_group(field, X):
            return _off_group(self.ctx)
        n1, m = self.n + 1, self.m
        kind = tuple((len(p) - 1, parts) for p, parts in class_type(field, X))
        if kind == ((1, (2,) * m + (1,) * (n1 - 2 * m)),):
            return MembershipResult(
                True, f"X = z*(unipotent (2^{m},1^{n1 - 2 * m}))",
                "unipotent member up to scalar")
        if sorted(kind) == sorted([(1, (1,) * m), (1, (1,) * (n1 - m))]):
            return MembershipResult(
                True, "semisimple, multiplicities (n+1-m, m)",
                "semisimple member")
        if n1 == 2 * m and kind == ((2, (1,) * m),):
            return MembershipResult(
                True, "semisimple, conjugate eigenvalue pair",
                "semisimple member (non-split)")
        return MembershipResult(False, "no S_m membership condition holds")


# ---------------------------------------------------------------------------
# E6 / E7 at the root-datum level
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ETuplePoint:
    """A slice point recorded by torus coordinates and unipotent coefficients."""

    torus: tuple
    unipotent: tuple


class E6Family(SliceFamily):
    """Root-datum family: torus coordinates (h1,h3,h4,h5,h6) and (c_beta, c_gamma)."""

    is_matrix = False
    label_format = "eps={}"
    coordinate = "(a, d) with d^2 = a^3, a != 0"
    coord_arity = 2

    def signs(self):
        return [(1,), (-1,)]

    def _component_point(self, eps):
        def point(field, ad):
            a, d = ad
            if field.mul(d, d) != field.mul(a, field.mul(a, a)):
                raise ValueError("need d^2 = a^3")
            e = field.of(eps)
            ainv = field.inv(a)
            dinv = field.inv(d)
            a2 = field.mul(a, a)
            coeff = field.add(field.mul(field.mul(ainv, ainv), ainv), field.one)
            return ETuplePoint(
                torus=(
                    field.mul(e, field.mul(a2, field.mul(dinv, dinv))),  # h1
                    field.mul(e, field.mul(a, dinv)),                    # h3
                    e,                                                   # h4
                    field.mul(e, field.mul(a2, dinv)),                   # h5
                    field.mul(e, a),                                     # h6
                ),
                unipotent=(
                    field.neg(field.mul(d, coeff)),                      # x_beta
                    field.neg(field.mul(e, field.mul(d, coeff))),        # x_gamma
                ),
            )

        return point

    def membership(self, field, pt: ETuplePoint) -> MembershipResult:
        h1, h3, h4, h5, h6 = pt.torus
        cb, cg = pt.unipotent
        eps = h4
        if field.mul(eps, eps) != field.one:
            return MembershipResult(False, "h4 is not a sign")
        a = field.mul(eps, h6)
        if field.is_zero(a):
            return MembershipResult(False, "a = 0")
        if field.is_zero(h3):
            return MembershipResult(False, "h3 = 0")
        d = field.div(field.mul(eps, a), h3)
        if field.mul(d, d) != field.mul(a, field.mul(a, a)):
            return MembershipResult(False, "curve relation d^2 = a^3 fails")
        probe = self._component_point(1 if eps == field.one else -1)(
            field, (a, d))
        if probe.torus == pt.torus and probe.unipotent == pt.unipotent:
            return MembershipResult(True, "matches the curve parametrization",
                                    "curve component point")
        return MembershipResult(False, "tuple off the curve parametrization")

    def sample_coords(self, field, rng, count):
        """Points (s^2, +-s^3) of the cuspidal curve d^2 = a^3."""
        out = []
        for _ in range(count):
            s = _random_unit(field, rng)
            d = field.mul(s, field.mul(s, s))
            if rng.random() < 0.5:
                d = field.neg(d)
            out.append((field.mul(s, s), d))
        return out

    def ambient(self, field, rng):
        return ETuplePoint(tuple(_random_unit(field, rng) for _ in range(5)),
                           tuple(_uniform(field, rng) for _ in range(2)))


class E7Family(SliceFamily):
    """Root-datum family: torus coordinates (h2,h3,h5,h7) and three coefficients."""

    is_matrix = False
    label_format = "(eps,eta,theta)={}"
    coordinate = "mu = a + 1/a in k"

    def signs(self):
        return [(s,) for s in product((1, -1), repeat=3)]

    def _component_point(self, signs):
        eps, eta, theta = signs

        def point(field, mu):
            e, h, t = field.of(eps), field.of(eta), field.of(theta)
            return ETuplePoint(
                torus=(h, field.mul(e, h), e, field.mul(field.mul(e, h), t)),
                unipotent=(
                    field.neg(field.mul(e, mu)),
                    field.neg(field.mul(h, mu)),
                    field.neg(field.mul(t, mu)),
                ),
            )

        return point

    def membership(self, field, pt: ETuplePoint) -> MembershipResult:
        h2, h3, h5, h7 = pt.torus
        cb, cg, c7 = pt.unipotent
        eps, eta = h5, h2
        for s in (eps, eta):
            if field.mul(s, s) != field.one:
                return MembershipResult(False, "torus coordinate is not a sign")
        if h3 != field.mul(eps, eta):
            return MembershipResult(False, "h3 != h5*h2")
        theta = field.div(h7, h3)
        if field.mul(theta, theta) != field.one:
            return MembershipResult(False, "h7/h3 is not a sign")
        mu = field.neg(field.mul(eps, cb))
        if cg != field.neg(field.mul(eta, mu)):
            return MembershipResult(False, "x_gamma coefficient off the line")
        if c7 != field.neg(field.mul(theta, mu)):
            return MembershipResult(False, "x_alpha7 coefficient off the line")
        return MembershipResult(True, "matches the sign-line parametrization",
                                "line component point")

    def ambient(self, field, rng):
        return ETuplePoint(tuple(_random_unit(field, rng) for _ in range(4)),
                           tuple(_uniform(field, rng) for _ in range(3)))


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

# the family table; its key is (type, label) with E's rank in its type (E6
# and E7 are two families) and A's m cut from its label (one for every S_m)
_FAMILIES = {
    ("A", "S"): lambda d: AFamily(d.rank, int(d.label[2:])),
    ("B", "S"): BFamilyS, ("C", "S2"): CFamilyS2,
    ("D", "S"): DFamilyS, ("D", "thetaS"): DFamilyS,
    ("D", "R"): DFamilyR, ("D", "thetaR"): DFamilyR,
    ("E6", "S"): E6Family, ("E7", "S"): E7Family,
    **dict.fromkeys([("B", "Sprime"), ("C", "S1"), ("C", "-S1"),
                     ("D", "Sprime")], TwoFlipFamily),
}


def build_family(descriptor: SheetDescriptor) -> SliceFamily:
    t, n, label = descriptor.group_type, descriptor.rank, descriptor.label
    make = _FAMILIES.get((f"E{n}" if t == "E" else t, label.split("_")[0]))
    if make is None:
        raise ValueError(f"no slice family for {t}{n} {label}")
    return make(descriptor)


def family_for(group_type: str, rank: int, label: str):
    return build_family(catalog_sheet(group_type, rank, label))
