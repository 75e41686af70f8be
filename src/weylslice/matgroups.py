"""Classical matrix groups in the coordinates the slice catalog uses.

SL_{n+1} acts on k^{n+1}; Sp_2n preserves [[0,I],[-I,0]] on coordinates
(u_1..u_n, w_1..w_n); SO_2n+1 preserves [[1,0,0],[0,0,I],[0,I,0]] on
(z, u, w); SO_2n preserves [[0,I],[I,0]].  The diagonal torus carries the
epsilon-characters, root subgroups are explicit one-parameter matrices,
and monomial Weyl representatives come from reduced words.

Bruhat decoding runs against the upper-triangular Borel of the standard
positive system after the fixed flag reordering of coordinates.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from itertools import product
from typing import Optional, Sequence

from .linalg import (
    Matrix,
    bruhat_permutation,
    det,
    identity,
    kernel_dimension,
    mat_mul,
    transpose,
)
from .rootsys import Vector, WeylElement, build_root_system
from .toruslat import TorusData, gamma_w

Coord = tuple[str, int]  # ("z",0) | ("u",i) | ("w",i), i zero-based


class GroupContext:
    """One classical group: coordinates, form, roots, torus, Weyl lift."""

    def __init__(self, label: str, rank: int):
        if label not in ("SL", "GL", "Sp", "SO-odd", "SO-even"):
            raise ValueError(f"unknown group label {label!r}")
        self.label = label
        self.rank = rank
        if label in ("SL", "GL"):
            self.system = build_root_system("A", rank)
            self.size = rank + 1
            self.coords: list[Coord] = [("u", i) for i in range(rank + 1)]
        elif label == "Sp":
            self.system = build_root_system("C", rank)
            self.size = 2 * rank
            self.coords = [("u", i) for i in range(rank)] + [
                ("w", i) for i in range(rank)
            ]
        elif label == "SO-odd":
            self.system = build_root_system("B", rank)
            self.size = 2 * rank + 1
            self.coords = [("z", 0)] + [("u", i) for i in range(rank)] + [
                ("w", i) for i in range(rank)
            ]
        else:
            self.system = build_root_system("D", rank)
            self.size = 2 * rank
            self.coords = [("u", i) for i in range(rank)] + [
                ("w", i) for i in range(rank)
            ]
        self._pos = {c: i for i, c in enumerate(self.coords)}
        self.flag_order = self._flag_order()
        # the tagged form is a signed permutation: row i of J has its one
        # nonzero entry, the sign, in column col (u_i pairs with w_i, z with
        # itself; -1 on the w rows for Sp); the matrix is built once per field
        partner = {"u": "w", "w": "u", "z": "z"}
        self._signed_form = None if label in ("SL", "GL") else tuple(
            (self._pos[(partner[kind], i)],
             -1 if label == "Sp" and kind == "w" else 1)
            for kind, i in self.coords)
        self._forms: dict = {}
        # decoded cells by signed coordinate map; at most |W| entries
        self._weyl_by_signed: dict = {}

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

    def dimension(self) -> int:
        n, N = self.rank, self.size
        if self.label == "SL":
            return N * N - 1
        if self.label == "GL":
            return N * N
        if self.label == "Sp":
            return n * (2 * n + 1)
        return N * (N - 1) // 2

    def weight_of(self, coord: Coord) -> Vector:
        """Torus character of a defining-representation coordinate."""
        dim = self.system.dim
        kind, i = coord
        if kind == "z":
            return tuple(Fraction(0) for _ in range(dim))
        sign = 1 if kind == "u" else -1
        return tuple(Fraction(sign if j == i else 0) for j in range(dim))

    def _flag_order(self) -> tuple[int, ...]:
        """Coordinate order making the standard Borel upper triangular."""
        rho = tuple(Fraction(0) for _ in range(self.system.dim))
        for r in self.system.positive_roots:
            rho = tuple(a + b for a, b in zip(rho, r))
        keyed = []
        for idx, c in enumerate(self.coords):
            w = self.weight_of(c)
            keyed.append((-sum(a * b for a, b in zip(w, rho)), idx))
        return tuple(idx for _, idx in sorted(keyed))

    # -- element constructors ---------------------------------------------

    def torus(self, field, values: Sequence) -> Matrix:
        """Diagonal torus element with epsilon_i(t) = values[i].

        For SL/GL, values has length rank+1 (all diagonal entries).
        """
        N = self.size
        m = [[field.zero] * N for _ in range(N)]
        if self.label in ("SL", "GL"):
            if len(values) != N:
                raise ValueError("need one value per diagonal entry")
            for i, v in enumerate(values):
                m[i][i] = v
        else:
            if len(values) != self.rank:
                raise ValueError("need one value per epsilon coordinate")
            for i, v in enumerate(values):
                m[self._pos[("u", i)]][self._pos[("u", i)]] = v
                m[self._pos[("w", i)]][self._pos[("w", i)]] = field.inv(v)
            if self.label == "SO-odd":
                m[self._pos[("z", 0)]][self._pos[("z", 0)]] = field.one
        return tuple(tuple(row) for row in m)

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
        kernel = [g.lattice_coords for g in gamma_w(torus)[1]]
        # lambda_k(c) for every basis vector and value: c^e coordinatewise
        lambdas = [[tuple(_power(field, c, e) for e in vec) for c in values]
                   for vec in kernel]
        points = set()
        for choice in product(*lambdas):
            coords = (field.one,) * torus.n
            for lam in choice:
                coords = tuple(map(field.mul, coords, lam))
            points.add(coords)
        return sorted(points)

    def root_element(self, field, root: Vector, c) -> Matrix:
        """The one-parameter root subgroup element x_root(c)."""
        nz = [(i, x) for i, x in enumerate(root) if x != 0]
        m = [list(row) for row in identity(field, self.size)]
        p = self._pos
        if self.label in ("SL", "GL"):
            (i, xi), (j, xj) = nz
            if xi == 1 and xj == -1:
                m[p[("u", i)]][p[("u", j)]] = c
            elif xi == -1 and xj == 1:
                m[p[("u", j)]][p[("u", i)]] = c
            else:
                raise ValueError(f"{root} is not an A-type root")
            return tuple(tuple(r) for r in m)
        if len(nz) == 2:
            (i, xi), (j, xj) = nz
            if (xi, xj) == (1, -1):
                m[p[("u", i)]][p[("u", j)]] = c
                m[p[("w", j)]][p[("w", i)]] = field.neg(c)
            elif (xi, xj) == (-1, 1):
                m[p[("u", j)]][p[("u", i)]] = c
                m[p[("w", i)]][p[("w", j)]] = field.neg(c)
            elif (xi, xj) == (1, 1):
                m[p[("u", i)]][p[("w", j)]] = c
                other = field.neg(c) if self.label.startswith("SO") else c
                m[p[("u", j)]][p[("w", i)]] = other
            elif (xi, xj) == (-1, -1):
                m[p[("w", i)]][p[("u", j)]] = c
                other = field.neg(c) if self.label.startswith("SO") else c
                m[p[("w", j)]][p[("u", i)]] = other
            else:
                raise ValueError(f"{root} is not a root of {self.label}")
            return tuple(tuple(r) for r in m)
        (i, xi) = nz[0]
        if self.label == "Sp":
            if xi == 2:
                m[p[("u", i)]][p[("w", i)]] = c
            elif xi == -2:
                m[p[("w", i)]][p[("u", i)]] = c
            else:
                raise ValueError(f"{root} is not a C-type root")
            return tuple(tuple(r) for r in m)
        if self.label == "SO-odd":
            half = field.inv(field.of(2))
            cc = field.mul(field.mul(c, c), half)
            if xi == 1:
                m[p[("u", i)]][p[("z", 0)]] = c
                m[p[("z", 0)]][p[("w", i)]] = field.neg(c)
                m[p[("u", i)]][p[("w", i)]] = field.neg(cc)
            elif xi == -1:
                m[p[("w", i)]][p[("z", 0)]] = c
                m[p[("z", 0)]][p[("u", i)]] = field.neg(c)
                m[p[("w", i)]][p[("u", i)]] = field.neg(cc)
            else:
                raise ValueError(f"{root} is not a B-type root")
            return tuple(tuple(r) for r in m)
        raise ValueError(f"{root} is not a root of {self.label}")

    def weyl_representative(self, field, w: WeylElement) -> Matrix:
        """Monomial lift of w: product of x_a(1)x_{-a}(-1)x_a(1) over a word."""
        out = identity(field, self.size)
        sys = self.system
        for i in w.reduced_word():
            a = sys.simple_roots[i]
            na = sys.roots[sys.neg[sys.index[a]]]
            s = mat_mul(
                field,
                mat_mul(
                    field,
                    self.root_element(field, a, field.one),
                    self.root_element(field, na, field.neg(field.one)),
                ),
                self.root_element(field, a, field.one),
            )
            out = mat_mul(field, out, s)
        return out

    # -- predicates --------------------------------------------------------

    def in_group(self, field, g: Matrix) -> bool:
        N = self.size
        if len(g) != N or any(len(row) != N for row in g):
            return False
        j = self.form(field)
        if j is not None:
            # J g permutes and signs the rows of g, so g^T J g is one product
            jg = [g[col] if sign > 0 else [field.neg(x) for x in g[col]]
                  for col, sign in self._signed_form]
            if mat_mul(field, transpose(g), jg) != j:
                return False
        if self.label in ("SL", "SO-odd", "SO-even"):
            return det(field, g) == field.one
        if self.label == "GL":
            return not field.is_zero(det(field, g))
        return True  # Sp: form preservation forces det 1

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
        n = self.rank + 1 if self.label in ("SL", "GL") else self.rank
        return tuple(b[self._pos[("u", i)]][self._pos[("u", i)]]
                     for i in range(n))

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
        n = self.rank if self.label not in ("SL", "GL") else self.rank + 1
        out = []
        for combo in product(field.units(), repeat=n):
            if self.label == "SL" and reduce(field.mul, combo) != field.one:
                continue
            if is_w_fixed(field, sp, combo):
                out.append(self.torus(field, combo))
        return out

    # -- invariants -----------------------------------------------------------

    def class_dimension(self, field, g: Matrix) -> int:
        """dim of the conjugacy class: dim G minus the Lie centralizer."""
        N = self.size
        rows = []
        # [X, g] = 0: for each (a, b): sum_k X[a][k] g[k][b] - g[a][k] X[k][b] = 0
        for a in range(N):
            for b in range(N):
                row = [field.zero] * (N * N)
                for k in range(N):
                    row[a * N + k] = field.add(row[a * N + k], g[k][b])
                    row[k * N + b] = field.sub(row[k * N + b], g[a][k])
                rows.append(row)
        j = self.form(field)
        if j is None:
            # gl centralizer; sl correction cancels in the dimension count
            d_matrix = kernel_dimension(field, tuple(tuple(r) for r in rows))
            return N * N - d_matrix
        # X^T J + J X = 0
        for a in range(N):
            for b in range(N):
                row = [field.zero] * (N * N)
                for k in range(N):
                    row[k * N + a] = field.add(row[k * N + a], j[k][b])
                    row[k * N + b] = field.add(row[k * N + b], j[a][k])
                rows.append(row)
        d = kernel_dimension(field, tuple(tuple(r) for r in rows))
        return self.dimension() - d


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
