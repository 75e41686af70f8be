"""Root systems of all simple types and their Weyl groups.

Root geometry runs on the integer simple-root coefficients: with G twice
the Gram matrix of the simple roots (an integer matrix for every type),
the formula s_b(c) = c - (2 c^T G b / b^T G b) b gives every reflection
and pairing.  A simple reflection s_i changes only c_i, by a sum over
column i of the Cartan matrix; that one step generates the roots and
the orbit of rho that counts |W|.  Root sums are read from a table built
once per system on first use.  The coordinates in the standard
orthonormal models, tuples of ``Fraction``, are derived once and fix
the order of the roots.  Each is a `Root`, a tuple that stores its hash,
so looking a root up by its coordinates hashes no ``Fraction``; every
query also takes an equal plain tuple.  A Weyl element is the
permutation it induces on the root indices (Casselman, "Machine
calculations in Weyl groups", 1994), built by `RootSystem.element`.
Products are index composition; lengths and descents are lookups on the
permutation, and reduced words, Bruhat order and parabolic longest
elements are computed from them.  On ambient vectors an element acts by
one cached rational matrix, and rank(1 - w) is a rank over Q of the
integer matrix of w.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, lru_cache
from operator import mul as _mul
from typing import Callable, Hashable, Iterable, Optional, Sequence

from .fields import QQ, _cleared
from .linalg import inverse, kernel, mat_mul, rank as _rank

Vector = tuple[Fraction, ...]

#: number of roots per type, used as a construction invariant
ROOT_COUNTS = {
    "A": lambda n: n * (n + 1),
    "B": lambda n: 2 * n * n,
    "C": lambda n: 2 * n * n,
    "D": lambda n: 2 * n * (n - 1),
    "E": {6: 72, 7: 126, 8: 240},
    "F": {4: 48},
    "G": {2: 12},
}

#: degrees of the fundamental invariants; |W| is their product
WEYL_DEGREES = {
    "A": lambda n: list(range(2, n + 2)),
    "B": lambda n: list(range(2, 2 * n + 1, 2)),
    "C": lambda n: list(range(2, 2 * n + 1, 2)),
    "D": lambda n: list(range(2, 2 * n - 1, 2)) + [n],
    "E": {6: [2, 5, 6, 8, 9, 12], 7: [2, 6, 8, 10, 12, 14, 18],
          8: [2, 8, 12, 14, 18, 20, 24, 30]},
    "F": {4: [2, 6, 8, 12]},
    "G": {2: [2, 6]},
}

_VALID = {
    "A": lambda n: n >= 1,
    "B": lambda n: n >= 2,
    "C": lambda n: n >= 2,
    "D": lambda n: n >= 3,
    "E": lambda n: n in (6, 7, 8),
    "F": lambda n: n == 4,
    "G": lambda n: n == 2,
}


class BudgetError(ValueError):
    pass


def closure(seeds: Iterable[Hashable],
            step: Callable[[Hashable], Iterable[Hashable]]) -> list:
    """Everything reachable from `seeds` under `step`, in breadth-first order.

    `step(x)` lists the neighbours of x; repeats (seeds included) are dropped
    at first sight.  Its callers walk finite Weyl groups and their orbits,
    so it has no budget; the oracle's budgeted walks are `fforacle`'s.
    This is the orbit algorithm of Holt-Eick-O'Brien, *Handbook of
    Computational Group Theory*, ch. 4.
    """
    seen = dict.fromkeys(seeds)
    frontier = list(seen)
    while frontier:
        nxt = []
        for x in frontier:
            for y in step(x):
                if y not in seen:
                    seen[y] = None
                    nxt.append(y)
        frontier = nxt
    return list(seen)


class Root(tuple):
    """A root's ambient coordinates: a tuple of ``Fraction`` that computes
    its hash once.  Equality, hash, order, ``repr`` and JSON are those of
    the plain tuple, so an equal plain tuple finds it in any dict or set."""

    def __new__(cls, coords: Iterable[Fraction]):
        self = super().__new__(cls, coords)
        self._hash = tuple.__hash__(self)
        return self

    def __hash__(self):
        return self._hash


def dot(u: Vector, v: Vector) -> Fraction:
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


def _dot(c: Sequence[int], v: Sequence[int]) -> int:
    return sum(map(_mul, c, v))


def _reflect(c: Sequence[int], b: Sequence[int],
             coroot: Sequence[int]) -> tuple[int, ...]:
    """s_b(c) = c - <c, b^vee> b on simple-root coefficients."""
    k = _dot(c, coroot)
    return tuple(x - k * y for x, y in zip(c, b))


def _vec(dim: int, *terms) -> Vector:
    """The sum of c e_i over the pairs (i, c) in `terms`."""
    out = [Fraction(0)] * dim
    for i, c in terms:
        out[i] += c
    return tuple(out)


def _simple_roots(label: str, n: int) -> tuple[list[Vector], int]:
    dim = {"A": n + 1, "E": 8, "F": 4, "G": 3}.get(label, n)
    chain = [_vec(dim, (i, 1), (i + 1, -1)) for i in range(dim - 1)]
    half = Fraction(1, 2)
    if label == "A":
        simples = chain
    elif label == "B":
        simples = chain + [_vec(dim, (n - 1, 1))]
    elif label == "C":
        simples = chain + [_vec(dim, (n - 1, 2))]
    elif label == "D":
        simples = chain + [_vec(dim, (n - 2, 1), (n - 1, 1))]
    elif label == "E":
        simples = ([_vec(8, *((i, half if i in (0, 7) else -half)
                              for i in range(8))), _vec(8, (0, 1), (1, 1))]
                   + [_vec(8, (i, -1), (i + 1, 1)) for i in range(6)])[:n]
    elif label == "F":
        simples = chain[1:] + [_vec(4, (3, 1)),
                               _vec(4, (0, half), (1, -half), (2, -half),
                                    (3, -half))]
    else:
        simples = [chain[0], _vec(3, (0, -2), (1, 1), (2, 1))]
    return simples, dim


class RootSystem:
    """An irreducible root system in its standard coordinate model."""

    def __init__(self, label: str, rank: int):
        label = label.upper()
        if label not in _VALID or not _VALID[label](rank):
            raise ValueError(f"({label}, {rank}) is not a valid simple type")
        self.label = label
        self.rank = rank
        simples, dim = _simple_roots(label, rank)
        self.dim = dim
        #: twice the Gram matrix of the simple roots, an integer matrix
        self._gram2 = tuple(tuple(int(2 * dot(a, b)) for b in simples)
                            for a in simples)
        units = [tuple(int(i == j) for j in range(rank)) for i in range(rank)]
        simple_coroots = [self._coroot(e) for e in units]
        #: cartan[i][j] = <alpha_i, alpha_j^vee>
        self.cartan = tuple(zip(*simple_coroots))
        #: the nonzero entries (j, cartan[j][i]) of each column i
        self._cartan_columns = tuple(
            tuple((j, x) for j, x in enumerate(v) if x) for v in simple_coroots)
        coeffs = closure(units, self._simple_images)
        expected = ROOT_COUNTS[label]
        expected = expected(rank) if callable(expected) else expected[rank]
        if len(coeffs) != expected:
            raise AssertionError(
                f"{label}{rank}: generated {len(coeffs)} roots, expected {expected}"
            )
        # coordinates sum_i c_i alpha_i, doubled to integers while sorting
        #: the simple roots doubled, integer vectors in every type
        self._twice_simple = tuple(tuple(int(2 * x) for x in a)
                                   for a in simples)
        twice = tuple(zip(*self._twice_simple))
        by_coords = sorted((tuple(_dot(c, t) for t in twice), c) for c in coeffs)
        self.roots: tuple[Root, ...] = tuple(
            Root(Fraction(x, 2) for x in r) for r, _ in by_coords)
        self._coeffs = tuple(c for _, c in by_coords)
        #: root -> its position in `roots`
        self.index = {r: i for i, r in enumerate(self.roots)}
        self._positive = tuple(all(x >= 0 for x in c) for c in self._coeffs)
        self.positive_roots: tuple[Root, ...] = tuple(
            r for r, pos in zip(self.roots, self._positive) if pos)
        self._coroots = tuple(self._coroot(c) for c in self._coeffs)
        self._simple_index = tuple(self.index[a] for a in simples)
        self.simple_roots: tuple[Root, ...] = tuple(
            self.roots[k] for k in self._simple_index)
        self._identity = WeylElement(self, tuple(range(len(self.roots))))
        self._by_coeffs = {c: k for k, c in enumerate(self._coeffs)}
        #: neg[k] is the index of -roots[k]
        self.neg = tuple(self._by_coeffs[tuple(-x for x in c)]
                         for c in self._coeffs)
        self._simple_reflections = tuple(
            self._reflection_perm(k) for k in self._simple_index)
        #: the dual basis of the simple roots inside their span: row i is the
        #: fundamental coweight with (row i, alpha_j) = delta_ij
        self.dual_basis = mat_mul(QQ, inverse(QQ, tuple(
            tuple(Fraction(g, 2) for g in row) for row in self._gram2)),
            self.simple_roots)

    # -- construction helpers -------------------------------------------

    def _coroot(self, b: Sequence[int]) -> tuple[int, ...]:
        """The coroot of the root with simple-root coefficients b, as the
        integer vector v with <c, b^vee> = 2 c^T G b / b^T G b = c . v, G
        twice the Gram matrix (v_i = <alpha_i, b^vee>)."""
        gb = [_dot(row, b) for row in self._gram2]
        norm = _dot(b, gb)
        if any(2 * x % norm for x in gb):
            raise AssertionError("root with a non-integral coroot")
        return tuple(2 * x // norm for x in gb)

    def _simple_images(self, c: Sequence[int]) -> list[tuple[int, ...]]:
        """s_i(c) for every simple reflection s_i, in the order of i.

        s_i(c) = c - <c, alpha_i^vee> alpha_i changes only c_i, and
        <c, alpha_i^vee> = sum_j c_j cartan[j][i] runs over the nonzero
        entries of column i: at most four, on any Dynkin diagram."""
        out, img = [], list(c)
        for i, col in enumerate(self._cartan_columns):
            k = c[i]
            for j, x in col:
                k -= c[j] * x
            img[i] = k
            out.append(tuple(img))
            img[i] = c[i]
        return out

    def _reflection_perm(self, k: int) -> "WeylElement":
        """The reflection in roots[k] as a root permutation."""
        b, v = self._coeffs[k], self._coroots[k]
        return WeylElement(self, tuple(self._by_coeffs[_reflect(c, b, v)]
                                       for c in self._coeffs))

    def pair(self, a: Vector, b: Vector) -> int:
        """Cartan pairing <a, b^vee> = 2(a,b)/(b,b) of two roots."""
        return _dot(self.coefficients(a), self._coroots[self.index[b]])

    @cached_property
    def _sum_table(self) -> tuple[tuple[int, ...], ...]:
        """_sum_table[k][l] is the index of roots[k] + roots[l], or -1 when
        the sum is no root; built on first use."""
        get, coeffs = self._by_coeffs.get, self._coeffs
        return tuple(
            tuple(get(tuple(x + y for x, y in zip(a, b)), -1) for b in coeffs)
            for a in coeffs)

    def indecomposables(self, indices: Iterable[int]) -> list[int]:
        """The members of `indices` that are not the sum of two members, in
        index order: the simple roots of a positive system, or of the
        positive part of a root subsystem."""
        pos = set(indices)
        table = self._sum_table
        negs = [self.neg[s] for s in pos]
        return sorted(k for k in pos
                      if not any(table[k][n] in pos for n in negs))

    @cached_property
    def _complement(self) -> tuple[tuple[int, ...], ...]:
        """An integer basis of the orthogonal complement of the root span:
        empty unless dim > rank (A_n, E6, E7, G2)."""
        return tuple(tuple(_cleared(z)[1])
                     for z in kernel(QQ, self._twice_simple))

    def in_span(self, v: Vector) -> bool:
        """Whether the ambient vector v lies in the span of the roots: its
        cleared numerators are orthogonal to `_complement`."""
        if not self._complement:
            return True
        u = _cleared(v)[1]
        return not any(_dot(z, u) for z in self._complement)

    # -- basic queries ---------------------------------------------------

    def coefficients(self, root: Vector) -> tuple[int, ...]:
        return self._coeffs[self.index[root]]

    def is_positive_root(self, root: Vector) -> bool:
        return self._positive[self.index[root]]

    def height(self, root: Vector) -> int:
        return sum(self.coefficients(root))

    def highest_root(self) -> Vector:
        return max(self.positive_roots, key=self.height)

    # -- Weyl elements ---------------------------------------------------

    def element(self, image: Callable[[Vector], Vector]) -> "WeylElement":
        """The Weyl element that acts on the roots as `image`.

        `image` must be the restriction of a Weyl-group element; raises
        ValueError when it does not permute the roots.
        """
        try:
            perm = tuple(self.index[image(r)] for r in self.roots)
        except KeyError:
            raise ValueError("image does not map roots to roots") from None
        if len(set(perm)) != len(perm):
            raise ValueError("image is not a permutation of the roots")
        return WeylElement(self, perm)

    def identity_element(self) -> "WeylElement":
        return self._identity

    def simple_reflection(self, i: int) -> "WeylElement":
        return self._simple_reflections[i]

    def reflection(self, root: Vector) -> "WeylElement":
        """s_root; raises ValueError when `root` is not a root."""
        if root not in self.index:
            raise ValueError(f"{root} is not a root")
        return self._reflection_perm(self.index[root])

    def weyl_order(self) -> int:
        degs = WEYL_DEGREES[self.label]
        degs = degs(self.rank) if callable(degs) else degs[self.rank]
        out = 1
        for d in degs:
            out *= d
        return out

    def weyl_order_by_orbit(self) -> int:
        """|W| as the size of the orbit of a regular dominant vector.

        Independent of the degree table; exponential in rank, use <= E6.
        """
        rho = tuple(map(sum, zip(*map(self.coefficients,
                                      self.positive_roots))))
        return len(closure([rho], self._simple_images))

    def all_elements(self) -> list["WeylElement"]:
        """Every Weyl group element, by closure (small ranks only)."""
        refl = [self.simple_reflection(i) for i in range(self.rank)]
        return closure([self.identity_element()],
                       lambda w: [w.mul(s) for s in refl])

    def __repr__(self):
        return f"RootSystem({self.label}{self.rank})"


class WeylElement:
    """A Weyl group element as the permutation it induces on the roots:
    perm[k] is the index of w(roots[k]).  Built by `RootSystem.element`."""

    __slots__ = ("system", "perm", "_length", "_word", "_ambient")

    def __init__(self, system: RootSystem, perm: tuple[int, ...]):
        self.system = system
        self.perm = perm
        self._length: Optional[int] = None
        self._word: Optional[tuple[int, ...]] = None
        self._ambient = None

    def __eq__(self, other):
        return (
            isinstance(other, WeylElement)
            and self.system is other.system
            and self.perm == other.perm
        )

    def __hash__(self):
        return hash(self.perm)

    @property
    def matrix(self) -> tuple[tuple[int, ...], ...]:
        """Integer matrix on the simple-root basis; column j holds the
        coefficients of w(alpha_j)."""
        sys = self.system
        return tuple(zip(*(sys._coeffs[self.perm[k]]
                           for k in sys._simple_index)))

    def mul(self, other: "WeylElement") -> "WeylElement":
        return WeylElement(self.system,
                           tuple(map(self.perm.__getitem__, other.perm)))

    def is_identity(self) -> bool:
        return self.perm == self.system._identity.perm

    def is_involution(self) -> bool:
        p = self.perm
        return all(p[j] == k for k, j in enumerate(p))

    @property
    def ambient(self) -> tuple[tuple[Fraction, ...], ...]:
        """The action on ambient coordinates, A = I + B (M - I) D: B holds
        the simple roots as columns, M is `matrix` and D is `dual_basis`,
        so A is w on the root span and the identity on its complement."""
        if self._ambient is None:
            sys = self.system
            shift = tuple(tuple(x - (i == j) for j, x in enumerate(row))
                          for i, row in enumerate(self.matrix))
            a = mat_mul(QQ, mat_mul(QQ, tuple(zip(*sys.simple_roots)), shift),
                        sys.dual_basis)
            self._ambient = tuple(
                tuple(x + (i == j) for j, x in enumerate(row))
                for i, row in enumerate(a))
        return self._ambient

    def apply_root(self, root: Vector) -> Vector:
        sys = self.system
        return sys.roots[self.perm[sys.index[root]]]

    def apply_vector(self, v: Vector) -> Vector:
        """Action on an ambient vector (identity on the span-orthogonal part)."""
        return tuple(QQ.dot(row, v) for row in self.ambient)

    def sends_simple_negative(self, i: int) -> bool:
        """True iff w(alpha_i) < 0, i.e. i is a right descent."""
        sys = self.system
        return not sys._positive[self.perm[sys._simple_index[i]]]

    def length(self) -> int:
        """l(w) = #{positive roots sent to negative roots}."""
        if self._length is None:
            pos = self.system._positive
            self._length = sum(1 for k, j in enumerate(self.perm)
                               if pos[k] and not pos[j])
        return self._length

    def reduced_word(self) -> tuple[int, ...]:
        """A reduced word (left-to-right product order), by greedy descent."""
        if self._word is None:
            collected = []
            w = self
            while not w.is_identity():
                i = next(
                    i for i in range(self.system.rank) if w.sends_simple_negative(i))
                collected.append(i)
                w = w.mul(self.system.simple_reflection(i))
            self._word = tuple(reversed(collected))
        return self._word

    def signed_permutation(self) -> tuple[tuple[int, int], ...]:
        """For coordinate-model types: (j, sign) with w(e_i) = sign * e_j."""
        out = []
        for img in zip(*self.ambient):
            nz = [(j, x) for j, x in enumerate(img) if x != 0]
            if len(nz) != 1 or abs(nz[0][1]) != 1:
                raise ValueError("element is not a signed permutation in this model")
            out.append((nz[0][0], 1 if nz[0][1] > 0 else -1))
        return tuple(out)

    def fixed_simples(self) -> tuple[int, ...]:
        p = self.perm
        return tuple(i for i, k in enumerate(self.system._simple_index)
                     if p[k] == k)

    def __repr__(self):
        return f"WeylElement({self.system.label}{self.system.rank}, len={self.length()})"


# -- module-level operations ----------------------------------------------

@lru_cache(maxsize=None)
def build_root_system(label: str, rank: int) -> RootSystem:
    return RootSystem(label, rank)


def longest_element(system: RootSystem, pi: Iterable[int]) -> WeylElement:
    """Longest element of the parabolic subgroup generated by {s_i : i in pi}."""
    pi = tuple(sorted(set(pi)))
    for i in pi:
        if not 0 <= i < system.rank:
            raise ValueError(f"simple-root index {i} out of range")
    w = system.identity_element()
    while True:
        i = next(
            (i for i in pi if not w.sends_simple_negative(i)), None)
        if i is None:
            return w
        w = w.mul(system.simple_reflection(i))


def w0_wPi(system: RootSystem, pi: Iterable[int]) -> WeylElement:
    """The involution w0 * w_Pi, for Pi stable under the w0 diagram symmetry.

    Rejects subsets Pi with -w0(Pi) != Pi, where the product fails to be
    the involution used downstream.
    """
    pi = tuple(sorted(set(pi)))
    w0 = longest_element(system, range(system.rank))
    pi_index = {system._simple_index[i] for i in pi}
    if {system.neg[w0.perm[k]] for k in pi_index} != pi_index:
        raise ValueError(
            f"Pi={pi} is not stable under the longest-element symmetry")
    w = w0.mul(longest_element(system, pi))
    if not w.is_involution():
        raise ValueError(f"w0*w_Pi is not an involution for Pi={pi}")
    return w


def minus_one_rank(w: WeylElement) -> int:
    """rank(1 - w) on the reflection representation, exactly: the rank
    over Q of the integer matrix 1 - `w.matrix`."""
    return _rank(QQ, tuple(
        tuple(int(i == j) - x for j, x in enumerate(row))
        for i, row in enumerate(w.matrix)))


def bruhat_leq(u: WeylElement, v: WeylElement) -> bool:
    """Bruhat comparison via the subword test on one reduced word of v."""
    if u.system is not v.system:
        raise ValueError("elements from different Weyl groups")
    if u.length() > v.length():
        return False
    x = u
    for i in reversed(v.reduced_word()):
        if x.sends_simple_negative(i):
            x = x.mul(x.system.simple_reflection(i))
    return x.is_identity()


@lru_cache(maxsize=None)
def conjugacy_class(w: WeylElement) -> tuple[WeylElement, ...]:
    """The W-conjugacy class of w, by closure under simple conjugations,
    once per element for the process (elements of two systems are never
    equal)."""
    sys = w.system
    refl = [sys.simple_reflection(i) for i in range(sys.rank)]
    return tuple(closure([w], lambda x: [s.mul(x).mul(s) for s in refl]))


def is_bruhat_max_in_class(w: WeylElement) -> bool:
    if not w.is_involution():
        raise ValueError("Bruhat-maximality check is defined for involutions here")
    cls = conjugacy_class(w)
    lw = w.length()
    for x in cls:
        if x.length() > lw:
            return False
    return all(bruhat_leq(x, w) for x in cls)


def involution_conjugacy_classes(system: RootSystem) -> list[tuple[WeylElement, ...]]:
    """All involution classes (small-rank systems; full enumeration)."""
    classes = []
    seen: set = set()
    for w in system.all_elements():
        if w in seen or w.is_identity() or not w.is_involution():
            continue
        cls = conjugacy_class(w)
        seen.update(cls)
        classes.append(cls)
    return classes


def subsystem_highest_root(system: RootSystem, roots: Iterable[Vector]) -> Vector:
    """Highest root of an irreducible root subsystem of `system`.

    Every other positive root of the subsystem lies below it by a nonzero
    sum of the subsystem's simple roots, which are positive roots of
    `system`; so it is the positive member of largest height.
    """
    return max((r for r in roots if system.is_positive_root(r)),
               key=system.height)


def orthogonal_subsystem(system: RootSystem, v: Vector) -> list[Vector]:
    """The roots orthogonal to the root v: (r, v) = 0 iff <r, v^vee> = 0."""
    return [r for r in system.roots if system.pair(r, v) == 0]
