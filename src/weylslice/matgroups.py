"""Classical matrix groups in the coordinates the slice catalog uses.

SL_{n+1} acts on k^{n+1}; Sp_2n preserves [[0,I],[-I,0]] on coordinates
(u_1..u_n, w_1..w_n); SO_2n+1 preserves [[1,0,0],[0,0,I],[0,I,0]] on
(z, u, w); SO_2n preserves [[0,I],[I,0]].  One table gives each group's
root type, coordinate kinds and form, and every structure routine derives
from it: u_i has weight e_i, w_i weight -e_i and z weight 0; the root
subgroup x_a(c) = 1 + cX + (c^2/2)X^2 has X = E_ab on a coordinate pair
of weight difference a, plus the entry the form adds; a class dimension
is the rank of ad_g on a Lie-algebra basis cached per field; the group
test is `group_inverse`, g^-1 = J^-1 g^T J checked by one product.  Monomial
Weyl representatives come from reduced words, and Bruhat decoding runs
against the standard Borel, upper triangular in u_1..u_n, z, w_n..w_1.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, reduce
from itertools import product
from operator import sub
from typing import Optional, Sequence

from .linalg import (
    Matrix,
    bruhat_permutation,
    det,
    identity,
    inverse,
    kernel,
    mat_mul,
    rank,
    transpose,
)
from .rootsys import Vector, WeylElement, build_root_system
from .toruslat import TorusData, gamma_w

Coord = tuple[str, int]  # ("z",0) | ("u",i) | ("w",i), i zero-based


# label -> (root type, coordinate kinds in order, sign of the w rows of the
# form or None for no form, whether det must be 1 rather than nonzero): Sp
# preserves an alternating form, SO a symmetric one
_GROUPS = {
    "SL": ("A", "u", None, True),
    "GL": ("A", "u", None, False),
    "Sp": ("C", "uw", -1, True),
    "SO-odd": ("B", "zuw", 1, True),
    "SO-even": ("D", "uw", 1, True),
}


class GroupContext:
    """One classical group: coordinates, form, roots, torus, Weyl lift."""

    def __init__(self, label: str, rank: int):
        if label not in _GROUPS:
            raise ValueError(f"unknown group label {label!r}")
        root_type, kinds, w_sign, det_one = _GROUPS[label]
        self.label = label
        self.rank = rank
        self.system = build_root_system(root_type, rank)
        # epsilon coordinates: rank + 1 for type A, rank otherwise
        self.torus_rank = n = self.system.dim
        self.coords: list[Coord] = [(kind, i) for kind in kinds
                                    for i in range(1 if kind == "z" else n)]
        self.size = len(self.coords)
        self._pos = {c: i for i, c in enumerate(self.coords)}
        # the standard Borel is upper triangular in u_1..u_n, z, w_n..w_1
        flag = ([("u", i) for i in range(n)] + [("z", 0)]
                + [("w", i) for i in reversed(range(n))])
        self.flag_order = tuple(self._pos[c] for c in flag if c in self._pos)
        # the tagged form is a signed permutation: row i of J has its one
        # nonzero entry, the sign, in column col (u_i pairs with w_i, z with
        # itself); the matrix is built once per field
        partner = {"u": "w", "w": "u", "z": "z"}
        self._signed_form = None if w_sign is None else tuple(
            (self._pos[(partner[kind], i)], w_sign if kind == "w" else 1)
            for kind, i in self.coords)
        # True: det must be 1, False: nonzero, None: no det test, since an
        # alternating form forces det 1
        self._det_one = None if w_sign == -1 else det_one
        # (row, column, sign is +) of g read by each entry of J^-1 g^T J
        self._inverse_reads = None if w_sign is None else tuple(
            tuple((cb, ca, sa == sb) for cb, sb in self._signed_form)
            for ca, sa in self._signed_form)
        self._forms: dict = {}
        self._lie_bases: dict = {}
        self._root_terms = self._root_matrices()
        # decoded cells by signed coordinate map; at most |W| entries
        self._weyl_by_signed: dict = {}

    def _root_matrices(self) -> dict:
        """Integer root -> (entries of X, entries of X^2) as (row, col, +-1),
        where x_root(c) = 1 + cX + (c^2/2)X^2.

        X is E_ab on the first coordinate pair (u before w before z, then
        by index) with weight(a) - weight(b) = root; a form adds the entry
        -s_a s_b at (b*, a*) that keeps X in its Lie algebra, and rejects
        the pair when that entry cancels E_ab itself.
        """
        n, form = self.torus_rank, self._signed_form
        weights = [tuple({"u": 1, "w": -1, "z": 0}[kind] if j == i else 0
                         for j in range(n)) for kind, i in self.coords]
        search = [self._pos[kind, i] for kind in "uwz" for i in range(n)
                  if (kind, i) in self._pos]
        terms: dict = {}
        for a in search:
            for b in range(self.size):
                root = tuple(map(sub, weights[a], weights[b]))
                if a == b or root in terms:
                    continue
                x = {(a, b): 1}
                if form is not None:
                    (a_star, s_a), (b_star, s_b) = form[a], form[b]
                    if (b_star, a_star) != (a, b):
                        x[b_star, a_star] = -s_a * s_b
                    elif s_a * s_b > 0:
                        continue
                square = tuple((i, l, s * t) for (i, j), s in x.items()
                               for (k, l), t in x.items() if j == k)
                terms[root] = (tuple((i, j, s) for (i, j), s in x.items()),
                               square)
        return terms

    # -- structure -------------------------------------------------------

    def form(self, field) -> Optional[Matrix]:
        """The invariant bilinear form, or None for SL/GL."""
        if self._signed_form is None:
            return None
        j = self._forms.get(field)
        if j is None:
            one, minus = field.one, field.neg(field.one)
            j = self._forms[field] = tuple(
                tuple((one if sign > 0 else minus) if k == col else field.zero
                      for k in range(self.size))
                for col, sign in self._signed_form)
        return j

    # -- element constructors ---------------------------------------------

    def torus(self, field, values: Sequence) -> Matrix:
        """Diagonal torus element with epsilon_i(t) = values[i]: values[i]
        on u_i, its inverse on w_i and 1 on z."""
        if len(values) != self.torus_rank:
            raise ValueError("need one value per epsilon coordinate")
        diagonal = [values[i] if kind == "u" else
                    field.inv(values[i]) if kind == "w" else field.one
                    for kind, i in self.coords]
        return tuple(tuple(d if k == i else field.zero
                           for k in range(self.size))
                     for i, d in enumerate(diagonal))

    def gamma_elements(self, field, w: WeylElement) -> list[Matrix]:
        """Gamma_w(F) as sorted diagonal matrices; [] if F lacks a primitive
        4th root of 1."""
        omega = field.fourth_root_of_unity()
        if omega is None:
            return []
        omega2 = field.mul(omega, omega)
        fourth_roots = (field.one, omega, omega2, field.mul(omega2, omega))
        return [self.torus(field, c)
                for c in self.anti_fixed_points(field, w, fourth_roots)]

    def anti_fixed_points(self, field, w: WeylElement,
                          values) -> list[tuple]:
        """Sorted epsilon-coordinate tuples of prod_k lambda_k(c_k) over all
        choices c_k in `values`, where lambda_k runs over the `gamma_w` basis
        of ker(1 + w) on the matrix lattice.

        With `values` all units of F these are the F-points of (T_w)deg;
        with the 4th roots of 1, Gamma_w(F).
        """
        torus = TorusData(self.system, w, "matrix")
        basis = [g.lattice_coords for g in gamma_w(torus)[1]]
        # lambda_k(c) for every basis vector and value: c^e coordinatewise
        lambdas = [[tuple(_power(field, c, e) for e in vec) for c in values]
                   for vec in basis]
        points = set()
        for choice in product(*lambdas):
            coords = (field.one,) * torus.n
            for lam in choice:
                coords = tuple(map(field.mul, coords, lam))
            points.add(coords)
        return sorted(points)

    def root_element(self, field, root: Vector, c) -> Matrix:
        """The one-parameter root subgroup element x_root(c); ValueError if
        `root` is not a root of the group."""
        m = [list(r) for r in identity(field, self.size)]
        for i, j, v in self._root_entries(field, root, c):
            m[i][j] = v
        return tuple(tuple(r) for r in m)

    def times_root_element(self, field, m: Matrix, root: Vector, c) -> Matrix:
        """m x_root(c) by column operations: the entry v of x_root(c) at
        each (i, j) of X and X^2 adds v times column i of m to column j."""
        ops = self._root_entries(field, root, c)
        out = [list(row) for row in m]
        for new, row in zip(out, m):
            for i, j, v in ops:
                new[j] = field.add(new[j], field.mul(v, row[i]))
        return tuple(map(tuple, out))

    def _root_entries(self, field, root: Vector, c) -> list:
        """(i, j, v) for the entries of x_root(c) off the diagonal: +-c on
        X and +-c^2/2 on X^2; ValueError if `root` is not a root."""
        # Fraction(k) hashes and compares like k, so a root given with
        # Fraction entries finds its integer key; nothing else does
        terms = self._root_terms.get(tuple(root))
        if terms is None:
            raise ValueError(f"{root} is not a root of {self.label}")
        x, square = terms
        c = field.mul(field.one, c)  # reduced, as every entry is
        cc = square and field.mul(field.mul(c, c), field.inv(field.of(2)))
        return [(i, j, v if s > 0 else field.neg(v))
                for v, t in ((c, x), (cc, square)) for i, j, s in t]

    @cached_property
    def _lift_coefficients(self) -> tuple[Fraction, ...]:
        """-2 / a(H) for each simple root a, H = [X_a, X_{-a}] for the root
        matrices X.

        (X_a, (2/a(H)) X_{-a}) spans an sl2 whose bracket h has a(h) = 2,
        so x_a(1) x_{-a}(-2/a(H)) x_a(1) is monomial.  a(H) is 2 for SL
        and Sp, but -1 for the short simple root of B_n and -2 for
        e_{n-1} + e_n of D_n, in these coordinates.
        """
        sys, out = self.system, []
        for a in sys.simple_roots:
            x, y = ({(i, j): s for i, j, s in self._root_terms[r][0]}
                    for r in (a, sys.roots[sys.neg[sys.index[a]]]))
            # a(H) = sum_i a_i e_i(H), and e_i(H) is the entry of the
            # diagonal H = XY - YX at u_i, the coordinate of weight e_i
            a_of_h = 0
            for i, c in enumerate(a):
                k = self._pos["u", i]
                a_of_h += c * sum(x.get((k, j), 0) * y.get((j, k), 0)
                                  - y.get((k, j), 0) * x.get((j, k), 0)
                                  for j in range(self.size))
            out.append(Fraction(-2, a_of_h))
        return tuple(out)

    def weyl_representative(self, field, w: WeylElement) -> Matrix:
        """Monomial lift of w: the product over a reduced word of
        x_a(1) x_{-a}(c) x_a(1), c from `_lift_coefficients`, as column
        operations (`times_root_element`)."""
        out = identity(field, self.size)
        sys = self.system
        for i in w.reduced_word():
            a = sys.simple_roots[i]
            na = sys.roots[sys.neg[sys.index[a]]]
            c = field.of(self._lift_coefficients[i])
            for root, coeff in ((a, field.one), (na, c), (a, field.one)):
                out = self.times_root_element(field, out, root, coeff)
        return out

    # -- predicates --------------------------------------------------------

    def in_group(self, field, g: Matrix) -> bool:
        """Whether g lies in the group: `group_inverse` with a form, else
        N x N with det 1 (SL) or nonzero (GL)."""
        if self._signed_form is not None:
            return self.group_inverse(field, g) is not None
        N = self.size
        if len(g) != N or any(len(row) != N for row in g):
            return False
        d = det(field, g)
        return d == field.one if self._det_one else not field.is_zero(d)

    def group_inverse(self, field, g: Matrix) -> Optional[Matrix]:
        """g^-1 when g lies in the group, else None: the one group test.
        With a form J, h = J^-1 g^T J is read off g: row k of J is s_k at
        column col(k), col is an involution and J^-1 = +-J, so h[a][b] =
        s_a s_b g[col(b)][col(a)].  g^T J g = J is h g = 1, one product
        (`mat_mul_derived`: F_p scans only g), then det g = 1 for SO (Sp's
        alternating form forces it).  SL/GL: `in_group`, `linalg.inverse`."""
        if self._signed_form is None:
            return inverse(field, g) if self.in_group(field, g) else None
        N = self.size
        if len(g) != N or any(len(row) != N for row in g):
            return None
        neg = field.neg
        h = tuple([tuple([g[i][j] if plus else neg(g[i][j])
                          for i, j, plus in row])
                   for row in self._inverse_reads])
        if field.mat_mul_derived(h, g) != identity(field, N) or (
                self._det_one and det(field, g) != field.one):
            return None
        return h

    # -- Bruhat decoding ----------------------------------------------------

    def borel_torus(self, field, b: Matrix) -> Optional[tuple]:
        """Epsilon-coordinates of the torus part of b when b lies in the
        standard Borel (upper triangular in `flag_order`, nonzero diagonal);
        None otherwise."""
        order, N = self.flag_order, self.size
        if any(not field.is_zero(b[order[i]][order[j]])
               for i in range(N) for j in range(i)):
            return None
        if any(field.is_zero(b[i][i]) for i in range(N)):
            return None
        return tuple(b[self._pos[("u", i)]][self._pos[("u", i)]]
                     for i in range(self.torus_rank))

    def bruhat_word(self, field, g: Matrix) -> WeylElement:
        """The Weyl element w with g in BwB for the standard Borel."""
        if self.label in ("SL", "GL"):
            if field.is_zero(det(field, g)):
                raise ValueError("matrix is singular")
        elif not self.in_group(field, g):
            raise ValueError("matrix does not preserve the tagged form")
        return self._cell(field, g)

    def _cell(self, field, g: Matrix) -> WeylElement:
        """`bruhat_word` for a g already known to be invertible and, except
        for SL/GL, to lie in the group."""
        order = self.flag_order
        flagged = tuple(
            tuple(g[order[i]][order[j]] for j in range(self.size))
            for i in range(self.size)
        )
        perm = bruhat_permutation(field, flagged)
        # perm[j] = i means the cell permutation sends flag coord j to i, so
        # w maps the weight of the first coordinate to that of the second:
        # read off as the signed coordinate map e_a -> +e_b (plus) or -e_b
        signed = {}
        for j, i in enumerate(perm):
            kind, a = self.coords[order[j]]
            kind_to, b = self.coords[order[i]]
            if (kind == "z") != (kind_to == "z"):
                raise AssertionError("cell permutation moved the null weight")
            if kind == "u":
                signed[a] = (b, kind_to == "u")
        flips = sum(not plus for _, plus in signed.values())
        if self.label == "SO-even" and flips % 2:
            raise AssertionError("decoded permutation lies outside W(D_n)")
        key = tuple(sorted(signed.items()))
        w = self._weyl_by_signed.get(key)
        if w is None:
            def image(r: Vector) -> Vector:
                out = [0] * len(r)
                for a, (b, plus) in signed.items():
                    out[b] = r[a] if plus else -r[a]
                return tuple(out)

            w = self._weyl_by_signed[key] = self.system.element(image)
        return w

    # -- slice building blocks ----------------------------------------------

    def inverted_positive_roots(self, w: WeylElement) -> list[Vector]:
        """{a > 0 : w(a) < 0}, in a fixed deterministic order."""
        sys = self.system
        out = [
            r for r in sys.positive_roots
            if not sys.is_positive_root(w.apply_root(r))
        ]
        return sorted(out, key=lambda r: (sys.height(r), r))

    def torus_fixed_points(self, field, w: WeylElement) -> list[Matrix]:
        """All F_q-points of T^w = {t : w(t) = t}."""
        if field.order is None:
            raise TypeError("enumeration needs a finite field")
        sp = w.signed_permutation()
        out = []
        for combo in product(field.units(), repeat=self.torus_rank):
            if self.label == "SL" and reduce(field.mul, combo) != field.one:
                continue
            if is_w_fixed(field, sp, combo):
                out.append(self.torus(field, combo))
        return out

    # -- invariants -----------------------------------------------------------

    def _lie_basis(self, field) -> Matrix:
        """The Lie algebra as an N^2 x dim matrix whose columns are a basis
        (Y flattened row by row): all of gl_N without a form, else the
        kernel of Y -> Y^T J + J Y.  Built once per field."""
        basis = self._lie_bases.get(field)
        if basis is None:
            N, j = self.size, self.form(field)
            if j is None:
                basis = identity(field, N * N)
            else:
                rows = []
                for a in range(N):
                    for b in range(N):
                        row = [field.zero] * (N * N)
                        for k in range(N):
                            row[k * N + a] = field.add(row[k * N + a], j[k][b])
                            row[k * N + b] = field.add(row[k * N + b], j[a][k])
                        rows.append(row)
                basis = transpose(kernel(field, rows))
            self._lie_bases[field] = basis
        return basis

    def class_dimension(self, field, g: Matrix) -> int:
        """dim of the conjugacy class: the rank of Y -> Yg - gY on the Lie
        algebra (for SL the gl centralizer's extra scalars cancel).

        Raises ValueError for SO in characteristic 2, where the kernel of
        Y -> Y^T J + J Y is not so_N (antisymmetric equals symmetric).
        """
        if self.label.startswith("SO") and field.char == 2:
            raise ValueError("SO class dimensions need odd characteristic")
        N = self.size
        rows = []
        # [Y, g][a][b] = sum_k Y[a][k] g[k][b] - g[a][k] Y[k][b]
        for a in range(N):
            for b in range(N):
                row = [field.zero] * (N * N)
                for k in range(N):
                    row[a * N + k] = field.add(row[a * N + k], g[k][b])
                    row[k * N + b] = field.sub(row[k * N + b], g[a][k])
                rows.append(tuple(row))
        return rank(field, mat_mul(field, tuple(rows), self._lie_basis(field)))


def is_w_fixed(field, sp, coords) -> bool:
    """Whether the torus point with epsilon-coordinates `coords` is fixed by
    the Weyl element with signed permutation `sp`."""
    return all(c == (coords[j] if s > 0 else field.inv(coords[j]))
               for c, (j, s) in zip(coords, sp))


def _power(field, c, e: int):
    """c^e in the field, for any integer e."""
    base = c if e >= 0 else field.inv(c)
    out = field.one
    for _ in range(abs(e)):
        out = field.mul(out, base)
    return out
