"""Cocharacter-lattice algebra for maximal tori.

For an involution w acting on the cocharacter lattice of a chosen isogeny
type this computes the fixed subtorus T^w, the anti-fixed S_w = T_w n T^w
and the finite 2-group G_w = {t in (T_w)deg : t^2 in T^w}, all as exact
integer-lattice invariants via Smith normal form.

Everything runs on integers: the action of w on each lattice comes in
closed form from its integer matrix on the simple roots (`w.matrix`) and
the Gram diagonal, and the invariant factors come from a gcd/lcm pass over
an integer diagonalisation.  The lattice bases' ambient coordinates are
kept only to report torsion points as cocharacters.

Torsion points are (cocharacter, root-of-unity order) pairs; no field
extensions are ever materialised here.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Sequence

from .fields import QQ
from .rootsys import RootSystem, WeylElement

IntMatrix = list[list[int]]


def smith_normal_form(a: Sequence[Sequence[int]]) -> list[int]:
    """Invariant factors d1 | d2 | ... (with trailing zeros for corank).

    Any integer diagonalisation determines the group.  Replacing a pair of
    nonzero diagonal entries by (gcd, lcm) keeps the least and the greatest
    valuation at every prime, so one pass over all pairs leaves the chain.
    """
    d, _ = smith_with_transforms(a)
    n = min(len(d), len(d[0]) if d else 0)
    diag = [abs(d[i][i]) for i in range(n) if d[i][i]]
    for i in range(len(diag)):
        for j in range(i + 1, len(diag)):
            g = gcd(diag[i], diag[j])
            diag[i], diag[j] = g, diag[i] * diag[j] // g
    return diag + [0] * (n - len(diag))


def smith_with_transforms(a: Sequence[Sequence[int]]):
    """(D, V) with U*A*V = D diagonal for some unimodular U, V unimodular.

    D's diagonal is not forced into chain order; use smith_normal_form for
    invariant factors.
    """
    d = [list(map(int, row)) for row in a]
    rows = len(d)
    cols = len(d[0]) if rows else 0
    v = [[int(i == j) for j in range(cols)] for i in range(cols)]

    def row_op(i, j, f):  # row_i -= f*row_j
        d[i] = [x - f * y for x, y in zip(d[i], d[j])]

    def col_op(i, j, f):  # col_i -= f*col_j
        for r in range(rows):
            d[r][i] -= f * d[r][j]
        for r in range(cols):
            v[r][i] -= f * v[r][j]

    def swap_rows(i, j):
        d[i], d[j] = d[j], d[i]

    def swap_cols(i, j):
        for r in range(rows):
            d[r][i], d[r][j] = d[r][j], d[r][i]
        for r in range(cols):
            v[r][i], v[r][j] = v[r][j], v[r][i]

    t = 0
    while t < min(rows, cols):
        # locate a minimal-magnitude nonzero pivot in the trailing block
        piv = None
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                if d[i][j] != 0 and (best is None or abs(d[i][j]) < best):
                    best, piv = abs(d[i][j]), (i, j)
        if piv is None:
            break
        swap_rows(t, piv[0])
        swap_cols(t, piv[1])
        dirty = False
        for i in range(t + 1, rows):
            if d[i][t]:
                f = d[i][t] // d[t][t]
                row_op(i, t, f)
                if d[i][t]:
                    dirty = True
        for j in range(t + 1, cols):
            if d[t][j]:
                f = d[t][j] // d[t][t]
                col_op(j, t, f)
                if d[t][j]:
                    dirty = True
        if dirty:
            continue  # remainders became new smaller pivots; redo this step
        if d[t][t] < 0:
            d[t] = [-x for x in d[t]]
        t += 1
    return d, v


def integer_kernel_basis(a: Sequence[Sequence[int]]) -> list[list[int]]:
    """Basis of the saturated integer kernel {x in Z^n : A x = 0}."""
    rows = len(a)
    cols = len(a[0]) if rows else 0
    d, v = smith_with_transforms(a)
    n = min(rows, cols)
    ker_cols = [j for j in range(cols) if j >= n or d[j][j] == 0]
    return [[v[i][j] for i in range(cols)] for j in ker_cols]


@dataclass(frozen=True)
class FiniteAbelianGroupShape:
    """Invariant-factor description d1 | d2 | ... of a finite abelian group."""

    divisors: tuple[int, ...]

    def __post_init__(self):
        if any(d < 2 for d in self.divisors):
            raise ValueError("invariant factors must be >= 2")
        for a, b in zip(self.divisors, self.divisors[1:]):
            if b % a != 0:
                raise ValueError("invariant factors must form a divisor chain")

    @property
    def order(self) -> int:
        out = 1
        for d in self.divisors:
            out *= d
        return out

    def __str__(self):
        if not self.divisors:
            return "1"
        return " x ".join(f"Z/{d}" for d in self.divisors)


def _shape_from_divisors(divs: Sequence[int]) -> FiniteAbelianGroupShape:
    return FiniteAbelianGroupShape(tuple(sorted(d for d in divs if d >= 2)))


@dataclass(frozen=True)
class TorsionPoint:
    """The torus point lambda(zeta_order) for a cocharacter lambda."""

    lattice_coords: tuple[int, ...]
    cocharacter: tuple[Fraction, ...]
    order: int


class TorusData:
    """A cocharacter lattice with the action of one Weyl involution."""

    ISOGENIES = ("sc", "ad", "matrix")

    def __init__(self, system: RootSystem, w: WeylElement, isogeny: str = "sc"):
        if isogeny not in self.ISOGENIES:
            raise ValueError(f"unknown isogeny label {isogeny!r}")
        self.system = system
        self.w = w
        self.isogeny = isogeny
        self.basis = _cocharacter_basis(system, isogeny)  # list of ambient vectors
        self.n = len(self.basis)
        self.action = self._action_matrix()
        # involution on the lattice: (1-w)(1+w) = 1 - w^2 = 0
        if _int_mat_mul(self.action, self.action) != _identity(self.n):
            raise ValueError("Weyl element does not act as a lattice involution")

    def _action_matrix(self) -> IntMatrix:
        """Column j holds the lattice coordinates of w(basis[j]), in closed
        form from the integer matrix M = w.matrix (column j holds the
        simple-root coefficients of w(alpha_j)):

        - sc, the simple coroots: w(alpha_j^vee) = (w alpha_j)^vee, so
          entry (i, j) is M[i][j] (alpha_i, alpha_i) / (alpha_j, alpha_j),
          an exact quotient;
        - ad, the fundamental coweights: the transpose of M^-1, which is M
          for an involution (for any other w, M^T is no involution either,
          and the constructor's check rejects it);
        - matrix, the standard basis: w's signed permutation.
        """
        w, n = self.w, self.n
        if self.isogeny == "sc":
            g = self.system._gram2
            return [[x * g[i][i] // g[j][j] for j, x in enumerate(row)]
                    for i, row in enumerate(w.matrix)]
        if self.isogeny == "ad":
            return [list(col) for col in zip(*w.matrix)]
        action = [[0] * n for _ in range(n)]
        for i, (j, sign) in enumerate(w.signed_permutation()):
            action[j][i] = sign
        return action

    def to_ambient(self, coords: Sequence[int]) -> tuple[Fraction, ...]:
        """sum_j coords[j] basis[j], one row-by-matrix product over Q."""
        return QQ.mat_mul((tuple(coords),), self.basis)[0]

    def __repr__(self):
        return (f"TorusData({self.system.label}{self.system.rank}, "
                f"isogeny={self.isogeny})")


def _identity(n: int) -> IntMatrix:
    return [[int(i == j) for j in range(n)] for i in range(n)]


def _int_mat_add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def _int_mat_sub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def _int_mat_mul(a, b):
    n, m = len(a), len(b[0])
    k = len(b)
    return [[sum(a[i][t] * b[t][j] for t in range(k)) for j in range(m)]
            for i in range(n)]


def _cocharacter_basis(system: RootSystem, isogeny: str):
    if isogeny == "sc":
        # (alpha_i, alpha_i) is half the diagonal entry of the doubled Gram
        g = system._gram2
        return [tuple(4 * x / g[i][i] for x in a)
                for i, a in enumerate(system.simple_roots)]
    if isogeny == "ad":
        # fundamental coweights: (alpha_i, pi_j) = delta_ij within the span
        return list(system.dual_basis)
    # natural diagonal lattice of the standard matrix group
    if system.label in ("B", "C", "D"):
        n = system.rank
        return [tuple(Fraction(int(i == j)) for i in range(n)) for j in range(n)]
    if system.label == "A":
        dim = system.rank + 1
        return [tuple(Fraction(int(i == j)) for i in range(dim)) for j in range(dim)]
    raise ValueError(f"no natural matrix lattice for type {system.label}")


def fixed_part(torus: TorusData) -> tuple[int, FiniteAbelianGroupShape]:
    """(dim (T^w)deg, component group of T^w) from the normal form of 1-w."""
    one_minus = _int_mat_sub(_identity(torus.n), torus.action)
    divs = smith_normal_form(one_minus)
    torus_rank = torus.n - sum(1 for d in divs if d != 0)
    return torus_rank, _shape_from_divisors(divs)


def s_w_group(torus: TorusData) -> FiniteAbelianGroupShape:
    """Shape of S_w = T_w n T^w; always elementary abelian of exponent 2."""
    stacked = (
        _int_mat_sub(_identity(torus.n), torus.action)
        + _int_mat_add(_identity(torus.n), torus.action)
    )
    divs = smith_normal_form(stacked)
    if any(d == 0 for d in divs):
        raise AssertionError("S_w came out infinite")
    shape = _shape_from_divisors(divs)
    if any(d != 2 for d in shape.divisors):
        raise AssertionError(f"S_w not elementary abelian: {shape}")
    return shape


def gamma_w(torus: TorusData) -> tuple[FiniteAbelianGroupShape,
                                        list[TorsionPoint]]:
    """The group G_w = {t in (T_w)deg : t^2 in T^w} and generating torsion points.

    G_w is the preimage of S_w n (T_w)deg under squaring on (T_w)deg.  For
    lambda in ker(1 + w), (1 - w) lambda = 2 lambda = 0 mod 2, so every
    2-torsion point lambda(-1) of (T_w)deg lies in T^w: the preimage is all
    of the 4-torsion, r copies of Z/4 with r = dim (T_w)deg.  Generators
    come out as cocharacter/root-of-unity pairs.  In characteristic 2
    squaring is inseparable and this count does not hold.
    """
    one_plus = _int_mat_add(_identity(torus.n), torus.action)
    kernel = integer_kernel_basis(one_plus)
    generators = [
        TorsionPoint(tuple(k), torus.to_ambient(k), 4) for k in kernel
    ]
    return FiniteAbelianGroupShape(tuple([4] * len(kernel))), generators
