"""Brute-force oracle over tiny groups of Lie type.

Enumerates SL2/SL3/Sp4/SO5 over small fields by generator closure, expands
conjugacy classes, decodes Bruhat cells, and replays the dimension formula
and slice-orbit claims pointwise.  Group elements are flat tuples.  The
group and every conjugation orbit (`conjugation_orbits`: a class, the
B(F_q)-orbits of a top cell, the Gamma_w-orbits of a slice) are each one
run of a breadth-first walk (the orbit algorithm of Holt-Eick-O'Brien,
*Handbook of Computational Group Theory*, ch. 4), compiled by
`_compile_walk` once per (field, size, pairs) and kept for the process:
per element it unpacks x once, forms each a x b inline from the pairs'
nonzero terms, not two n^3 products, and looks each product up once.
Only slice points use the step x -> [a x b for each pair (a, b)] of
`_compile_step`, and every orbit on the indices of an enumerated group
(its classes and B-cosets) is `_orbits` under index tables.  Steps and
walks are built from a source made of int literals, local names and `add`,
`mul` and `C` (the field's operations and coefficients), and a walk's
BudgetError, with no builtins in reach, so they can do nothing but field
arithmetic on x.

Each orbit runs over the fewest generators it needs: the positive simple
root elements x_a(1) (x_a(c) for every unit c over F_{p^k}), one monomial
lift of w0 and, where the group needs one, a torus generator.
`_generating_set` builds them once per (group, field), with the reasons
they generate G(F_q).  `expand_class` conjugates by that set and
`enumerate_group` walks right products with it: 3 per element of SL3 or
Sp4.  The other torus generators, one per slot, are used only through
tables: with the positive simple root elements they generate B = T U,
whose left products give the cosets Bx.

An enumerated group (`OracleGroup`) holds its elements by index, in the
walk's order.  The enumeration records each right product x g of a walk
generator as an index and the Schreier tree of first appearances, so
x_d = x_a g_j for each element but the identity.  Left multiplication by
any group element g is then the table g x_d = (g x_a) g_j, read along the
tree from the index of g with no further matrix product, and conjugation
by a walk generator is x g -> g x, so classes are closures over ints.
Bruhat cells are read per left coset: B.BwB = BwB, so each coset Bx lies
in one cell, and the cosets are the closures of the `left` tables of the
generators that lie in B.  One member of each is decoded (a second one as
a check) and its cell is kept for every member as a small int aligned
with the elements, so classes read their cells by index.
Enumerated elements are products of generators of the group, and the
members of an `expand_class` orbit are conjugates of a checked rep by such
products, so their decoding skips `GroupContext.in_group`, which would cost
a product (and for SO a determinant) per element to re-prove membership;
`bruhat_word` keeps the check for everything else.

Shared with the code under test: the `matgroups` constructors, Bruhat
decoding (`linalg.bruhat_permutation`), the Borel reader
`borel_torus` and the (T_w)deg points `anti_fixed_points` (which also list
`gamma_elements`; `gamma_generators` reads the same basis), the
Weyl-group combinatorics, `linalg` `inverse`, `mat_mul` and `rank` (class
dimensions), and `class_type` (spherical marks,
and the class of an F_{q^2} slice point: equal types there mean conjugate
over the closure; Springer-Steinberg 1970, IV.2).  Closed forms guard
the oracle itself: enumeration must hit the order formula, the classes
must partition the group, every coset Bx must have |B| elements and two of
its members must decode to the same cell, every cell must have
|BwB| = |B| q^l(w), and every cell's monomial representative must decode
to that cell.
"""

from __future__ import annotations

from array import array
from collections import Counter
from dataclasses import dataclass, field as dc_field
from functools import cached_property, lru_cache
from typing import Optional

from .fields import ExtField, PrimeField, gf
from .linalg import Matrix, class_type, identity, inverse, mat_mul
from .matgroups import GroupContext, is_w_fixed
from .rootsys import (BudgetError, WeylElement, bruhat_leq,
                      conjugacy_class as weyl_class, longest_element,
                      minus_one_rank)
from .sheetcat import classify_spherical, expected_w_element

ENUMERATION_BUDGET = 2_000_000
CLASS_BUDGET = 300_000  # elements of one `expand_class` orbit
BOREL_ORBIT_BUDGET = 400_000  # elements of one B(F_q)-orbit in a top cell

ORDER_FORMULAS = {
    ("SL", 1): lambda q: q * (q**2 - 1),
    ("SL", 2): lambda q: q**3 * (q**2 - 1) * (q**3 - 1),
    ("Sp", 2): lambda q: q**4 * (q**2 - 1) * (q**4 - 1),
    ("SO-odd", 2): lambda q: q**4 * (q**2 - 1) * (q**4 - 1),
}


def _flat(m: Matrix) -> tuple:
    return tuple(x for row in m for x in row)


def _unflat(flat: tuple, n: int) -> Matrix:
    return tuple(tuple(flat[i * n + j] for j in range(n)) for i in range(n))


def _products(field, n: int, pairs: tuple, src: str) -> tuple:
    """(exprs, namespace): the tuple expression of a x b for each pair
    (a, b), over flat n x n sources spelled `src.format(s)` for entry s of
    x, and all the names they use: no builtins, the field's `add` and `mul`
    and the coefficients `C`.

    Entry (i, j) of a x b is the sum of a[i][k] b[l][j] x[k][l] over the
    nonzero a[i][k] and b[l][j]: each source x[k][l] occurs once, and the
    product of two nonzero field elements is nonzero, so nothing is merged
    or dropped.  A lone term with coefficient 1 is the source itself.
    Otherwise over F_p an entry is `(c*x + ...) % p` with integer literals
    (a c of 1 omitted); over any other field it nests `add` and `mul` over
    coefficients `C`.
    """
    prime, one = isinstance(field, PrimeField), field.one
    coeffs, products = [], []
    for a, b in pairs:
        entries = []
        for i in range(n):
            for j in range(n):
                terms = [(field.mul(a[i * n + k], b[l * n + j]),
                          src.format(k * n + l))
                         for k in range(n) if not field.is_zero(a[i * n + k])
                         for l in range(n) if not field.is_zero(b[l * n + j])]
                if len(terms) == 1 and terms[0][0] == one:
                    entries.append(terms[0][1])
                elif prime:
                    total = " + ".join(x if c == 1 else f"{c}*{x}"
                                       for c, x in terms)
                    entries.append(f"({total}) % {field.p}")
                else:
                    expr = None
                    for c, x in terms:
                        coeffs.append(c)
                        term = f"mul(C[{len(coeffs) - 1}], {x})"
                        expr = term if expr is None else f"add({expr}, {term})"
                    entries.append(expr)
        products.append(f"({', '.join(entries)},)")
    return products, {"__builtins__": {}, "add": field.add, "mul": field.mul,
                      "C": tuple(coeffs)}


@lru_cache(maxsize=None)
def _compile_step(field, n: int, pairs: tuple):
    """The orbit step x -> [a x b for (a, b) in pairs] on flat n x n tuples,
    one function compiled once per (field, n, pairs) for the process, from
    the expressions of `_products` over x[s]."""
    products, namespace = _products(field, n, pairs, "x[{}]")
    return eval(f"lambda x: [{', '.join(products)}]", namespace)


@lru_cache(maxsize=None)
def _compile_walk(field, n: int, pairs: tuple, record: bool):
    """The breadth-first orbit under x -> a x b, (a, b) in pairs, as one
    function compiled once per (field, n, pairs, record) for the process.

    `walk(orbit, found, count, budget, ...)` reads `orbit`, of `count`
    elements, as it grows, in the order of `rootsys.closure`: it unpacks
    each x into locals x0, x1, ..., forms each product from `_products`,
    looks it up once in the dict `found` of the elements so far and appends
    it when new.  BudgetError is raised once `count` exceeds `budget`,
    checked after each element.  Without `record` each element maps to
    itself, and as every product is a new tuple, `setdefault(y, y) is y`
    holds exactly when y is new.  With `record` each maps to its index, and
    the j-th product of element a has its index stored at a * len(pairs)
    + j of the preallocated array `products` and, when new, (a, j) appended
    to `tree`.  The source holds only int literals, local names and the
    names of `_products` and BudgetError.
    """
    exprs, namespace = _products(field, n, pairs, "x{}")
    namespace["BudgetError"] = BudgetError
    body = []
    for j, y in enumerate(exprs):
        body += [f"y = {y}", "i = setdefault(y, count)",
                 f"products[p + {j}] = i", "if i == count:", " append(y)",
                 f" branch((a, {j}))", " count += 1"] if record else [
                 f"y = {y}", "if setdefault(y, y) is y:", " append(y)",
                 " count += 1"]
    body += ["if count > budget:", " raise BudgetError(budget)"]
    if record:
        body += ["a += 1", f"p += {len(pairs)}"]
    exec("\n".join([
        f"def walk(orbit, found, count, budget{', products, tree' * record}):",
        " append, setdefault = orbit.append, found.setdefault",
        *([" branch, a, p = tree.append, 0, 0"] if record else []),
        " for x in orbit:", f"  {''.join(f'x{s}, ' for s in range(n * n))}= x",
        *(f"  {line}" for line in body), " return orbit"]), namespace)
    return namespace.pop("walk")


@lru_cache(maxsize=None)
def _conjugation_pairs(field, n: int, gens: tuple) -> tuple:
    """The pairs (g, g^-1) for g in gens, flat; the inverses are taken once."""
    return tuple((g, _flat(inverse(field, _unflat(g, n)))) for g in gens)


def conjugation_orbits(field, n: int, gens: tuple, points, budget: int):
    """The orbits of the flat n x n `points` under conjugation by the group
    that `gens` generates, streamed: each one run of the `_compile_walk`
    walk under the pairs (g, g^-1), from the least point not yet reached,
    in breadth-first order.  An orbit may leave `points`; BudgetError is
    raised once one exceeds `budget` elements."""
    walk = _compile_walk(field, n, _conjugation_pairs(field, n, gens), False)
    remaining = set(points)
    while remaining:
        x = min(remaining)
        orbit = walk([x], {x: x}, 1, budget)
        remaining.difference_update(orbit)
        yield orbit


@dataclass
class OracleGroup:
    """An enumerated group, its elements by index.

    `elements` are in the order the enumeration walk first reaches them,
    from the identity, and `index` maps each element to its position.
    `generators` are those of `_generating_set`: the walk generators (the
    positive simple root elements, the lift of w0 and, for SO, one torus
    generator), then the other torus generators.  With g = generators[k]
    and x = elements[i], `left[k][i]` is the index of g x, and for the walk
    generators, k < len(conj), `conj[k][i]` is that of g x g^-1.  The
    Bruhat cells are decoded on first use and kept.
    """
    label: str
    rank: int
    q: int
    field: object
    ctx: GroupContext
    size: int
    elements: tuple
    generators: tuple
    order: int
    index: dict = dc_field(repr=False)
    left: tuple = dc_field(repr=False)
    conj: tuple = dc_field(repr=False)

    def cells(self) -> list:
        """The Bruhat cell of every element, aligned with `elements`."""
        kinds, ids = self._cell_ids
        return [kinds[k] for k in ids]

    @cached_property
    def _cell_ids(self) -> tuple:
        """(kinds, ids): the distinct Bruhat cells, and the position in
        `kinds` of the cell of every element, aligned with `elements`.

        Walks the left cosets Bx (`_coset_cells` over the generators in B)
        and decodes one member of each by `GroupContext._cell`, without the
        `in_group` test, since enumerated elements lie in the group by
        construction.  Every coset must have |B| elements, and the last
        member the walk reaches must decode to the same cell.  The monomial
        representative of every cell found goes through the public
        `bruhat_word` and must decode to that cell: the size check in
        `cell_partition_check` cannot tell apart two cells of equal length.
        """
        ctx, field = self.ctx, self.field
        kinds, ids = _coset_cells(self, _borel_generators(self))
        for w in kinds:
            wdot = ctx.weyl_representative(field, w)
            if ctx.bruhat_word(field, wdot) != w:
                raise AssertionError(
                    f"representative of {w.reduced_word()} decodes to "
                    "another cell")
        return kinds, ids


def _borel_order(group: OracleGroup) -> int:
    """|B(F_q)| = (q-1)^r q^|positive roots|."""
    q = group.q
    return (q - 1) ** group.rank * q ** len(group.ctx.system.positive_roots)


def _borel_generators(group: OracleGroup) -> tuple:
    """Indices k of the generators that lie in the standard Borel: every
    one but the lift of w0 (`_generating_set`)."""
    return _generating_set(group.label, group.rank, group.field)[2]


def _coset_cells(group: OracleGroup, ks) -> tuple:
    """`OracleGroup._cell_ids`, one decoding per left coset.

    The cosets are the closures of the `left[k]` tables over the generator
    indices `ks`; when those generators generate B they are the cosets Bx,
    and B.BwB = BwB puts each in one cell.  Raises AssertionError when a
    coset does not have |B| elements (the generators do not generate B) or
    when its first and last members decode to different cells.
    """
    ctx, field, n, elements = group.ctx, group.field, group.size, group.elements
    b_order = _borel_order(group)
    kinds, ids = {}, array("i", [0]) * group.order
    for coset in _orbits([group.left[k] for k in ks], group.order):
        x = elements[coset[0]]
        if len(coset) != b_order:
            raise AssertionError(
                f"coset of {x} has {len(coset)} elements, |B| = {b_order}")
        w = ctx._cell(field, _unflat(x, n))
        if ctx._cell(field, _unflat(elements[coset[-1]], n)) != w:
            raise AssertionError(f"coset of {x} meets two Bruhat cells")
        k = kinds.setdefault(w, len(kinds))
        for j in coset:
            ids[j] = k
    return list(kinds), ids


def _orbits(tables, order: int):
    """The orbits of range(order) under the index maps `tables`, each a
    list in breadth-first order from its least index, in order of that
    index (`rootsys.closure` over ints, with a flag per index)."""
    seen = bytearray(order)
    for i in range(order):
        if seen[i]:
            continue
        seen[i] = 1
        orbit = [i]
        for x in orbit:
            for t in tables:
                y = t[x]
                if not seen[y]:
                    seen[y] = 1
                    orbit.append(y)
        yield orbit


@lru_cache(maxsize=None)
def _generating_set(label: str, rank: int, field) -> tuple:
    """(walk, generators, borel) for the group over `field`, flat tuples
    without repeats, built once per (label, rank, field) for the process.

    `walk` is what `expand_class` conjugates by and `enumerate_group`
    multiplies by: x_a(c) for the simple roots a, with c = 1 over F_p (it
    generates U_a(F_p)) and every unit over F_{p^k}; the monomial lift of
    w0 (`weyl_representative`), which lies in N(T) and conjugates U_{a_i}
    onto U_{w0 a_i} = U_{-a_pi(i)}, so that with the root elements it
    gives every root subgroup; and for every group but SL and Sp the first
    torus generator.  The root subgroups generate G(F_q) for the simply
    connected SL and Sp (Steinberg, *Lectures on Chevalley Groups*,
    sections 3 and 6).  For SO they generate Omega, of index 2 in SO(F_q)
    for odd q; the first torus generator's slot value generates F_q^x, so
    its spinor norm is a non-square and it lies outside Omega (Taylor,
    *The Geometry of the Classical Groups*, ch. 11).  For GL the same
    element has det a generator of F_q^x.

    `generators` (`OracleGroup.generators`) are `walk`, then the other
    torus generators: a generator u of F_q^x in each epsilon slot, for SL
    (u, u^-1) in slots k, k + 1 for k < n - 1, since the n-th such
    element is the inverse of the product of the others.  The torus and
    the positive simple root elements generate B = T U, so `borel`, the
    indices of every generator but the lift of w0, give the B-cosets of
    `_coset_cells`.
    """
    ctx = GroupContext(label, rank)
    sys = ctx.system
    coeffs = field.units() if isinstance(field, ExtField) else [field.one]
    roots = [_flat(ctx.root_element(field, a, c))
             for a in sys.simple_roots for c in coeffs]
    lift = _flat(ctx.weyl_representative(
        field, longest_element(sys, range(sys.rank))))
    units = field.units()
    for u in units:
        x, seen = field.one, set()
        for _ in units:
            x = field.mul(x, u)
            seen.add(x)
        if len(seen) == len(units):
            break
    n, torus = ctx.torus_rank, []
    for slot in range(n - 1 if label == "SL" else n):
        vals = [field.one] * n
        vals[slot] = u
        if label == "SL":
            vals[slot + 1] = field.inv(u)
        torus.append(_flat(ctx.torus(field, vals)))
    walk = tuple(dict.fromkeys(
        roots + [lift] + ([] if label in ("SL", "Sp") else torus[:1])))
    gens = tuple(dict.fromkeys(walk + tuple(torus)))
    return walk, gens, tuple(k for k, g in enumerate(gens) if g != lift)


@lru_cache(maxsize=None)
def enumerate_group(label: str, rank: int, q: int) -> OracleGroup:
    """All F_q points of the group, by closure under right products with
    the walk generators of `_generating_set`."""
    key = (label, rank)
    if key not in ORDER_FORMULAS:
        raise BudgetError(f"{label} rank {rank} is outside the oracle budget")
    if label == "SL" and q > 9:
        raise BudgetError("SL oracle limited to q <= 9")
    if label in ("Sp", "SO-odd") and q > 5:
        raise BudgetError(f"{label} oracle limited to q <= 5")
    if label != "SL" and q % 2 == 0:
        raise BudgetError(
            "characteristic 2 is bad outside type A; refused")
    expected = ORDER_FORMULAS[key](q)
    if expected > ENUMERATION_BUDGET:
        raise BudgetError(
            f"group order {expected} exceeds the enumeration budget "
            f"{ENUMERATION_BUDGET}")
    field = gf(q)
    ctx = GroupContext(label, rank)
    walk, gens, _ = _generating_set(label, rank, field)
    ident = _flat(identity(field, ctx.size))
    # products[d * len(walk) + k] is the index of x_d g_k, and
    # tree[d - 1] = (a, j) when x_d first appears as x_a g_j; the order
    # bounds the walk, so a wrong step fails before any table is built
    elements, index = [ident], {ident: 0}
    products, tree = array("i", [0]) * (expected * len(walk)), []
    _compile_walk(field, ctx.size, tuple((ident, g) for g in walk), True)(
        elements, index, 1, expected, products, tree)
    if len(elements) != expected:
        raise AssertionError(
            f"enumerated {len(elements)} elements of {label}{rank}(F_{q}), "
            f"order formula gives {expected}")
    left, conj = _index_tables(products, len(walk), tree,
                               [index[g] for g in gens])
    return OracleGroup(
        label=label, rank=rank, q=q, field=field, ctx=ctx, size=ctx.size,
        elements=tuple(elements), generators=gens, order=expected,
        index=index, left=left, conj=conj)


def _index_tables(products, walk: int, tree, starts) -> tuple:
    """The `left` and `conj` tables of `OracleGroup`, by index lookups only.

    products[d * walk + k] is the index of x_d g_k for the walk generators
    g_k, k < walk, and every x_d but the identity x_0 first appears as
    x_a g_j with (a, j) = tree[d - 1] and a < d.  That is a Schreier tree:
    for any group element g, g x_d = (g x_a) g_j gives
    left[d] = products[left[a] * walk + j] from left[0] = the index of g,
    one of `starts`.  With x_r = x_e g_k, g_k x_r g_k^-1 = g_k x_e, so the
    conjugate of x_r is x_{left[e]}.
    """
    left, conj = [], []
    for k, start in enumerate(starts):
        lk = array("i", [start])
        for a, j in tree:
            lk.append(products[lk[a] * walk + j])
        left.append(lk)
        if k < walk:
            ck = array("i", [0]) * len(lk)
            for e, r in enumerate(products[k::walk]):
                ck[r] = lk[e]
            conj.append(ck)
    return tuple(left), tuple(conj)


@dataclass(frozen=True)
class ClassData:
    """A class: `rep` is its least member from `conjugacy_classes`, which
    also keeps the members' `indices`, and the given rep from
    `expand_class`."""
    rep: tuple
    elements: frozenset
    size: int
    indices: Optional[tuple] = dc_field(default=None, compare=False,
                                        repr=False)


def expand_class(ctx: GroupContext, field, rep: Matrix) -> ClassData:
    """Full conjugation orbit of `rep` under the group, from
    `conjugation_orbits` under the walk generators of `_generating_set` (3
    per element for Sp4), within `CLASS_BUDGET` elements.

    Over F_p the integer entries of `rep` are reduced by `field.of`; over
    F_{p^k} they must already be encoded elements, ints in range(q).
    Either way a `rep` outside the group raises ValueError.
    """
    if isinstance(field, ExtField):
        if not all(isinstance(x, int) and 0 <= x < field.order
                   for row in rep for x in row):
            raise ValueError(f"entries of {rep} are not elements of {field}")
        rep = tuple(map(tuple, rep))
    else:
        rep = tuple(tuple(field.of(x) for x in row) for row in rep)
    if not ctx.in_group(field, rep):
        raise ValueError(f"{rep} is not in {ctx.label}{ctx.rank}")
    rep = _flat(rep)
    orbit = next(conjugation_orbits(
        field, ctx.size, _generating_set(ctx.label, ctx.rank, field)[0],
        [rep], CLASS_BUDGET))
    return ClassData(rep=rep, elements=frozenset(orbit), size=len(orbit))


def conjugacy_classes(group: OracleGroup) -> list[ClassData]:
    """All conjugacy classes, as closures of the `conj` tables of the walk
    generators, which generate the group, in order of their least members
    `rep`; sizes sum to the group order."""
    elements, classes = group.elements, []
    for orbit in _orbits(group.conj, group.order):
        members = [elements[j] for j in orbit]
        classes.append(ClassData(rep=min(members), elements=frozenset(members),
                                 size=len(orbit), indices=tuple(orbit)))
    classes.sort(key=lambda c: c.rep)
    total = sum(c.size for c in classes)
    if total != group.order:
        raise AssertionError("classes do not partition the group")
    return classes


# -- Bruhat cells -----------------------------------------------------------

def _cell_lookup(group_ctx, field):
    """Flat element -> its Bruhat cell, for members of a class from
    `expand_class`, decoded by `GroupContext._cell` without `in_group`,
    since each member is g rep g^-1 for a checked rep and a product g of
    group generators.  The classes of `conjugacy_classes` are read off
    `OracleGroup._cell_ids` by index instead."""
    ctx = group_ctx.ctx if isinstance(group_ctx, OracleGroup) else group_ctx
    return lambda e: ctx._cell(field, _unflat(e, ctx.size))


def cell_partition_check(group: OracleGroup) -> dict:
    """|BwB| = |B| q^{l(w)} for every cell, and the cells partition G."""
    kinds, ids = group._cell_ids
    counts = Counter(ids)
    q, b_order = group.q, _borel_order(group)
    mismatches = []
    for k, size in counts.items():
        w = kinds[k]
        want = b_order * q ** w.length()
        if size != want:
            mismatches.append((w.reduced_word(), size, want))
    return {
        "cells": len(counts),
        "weyl_order": group.ctx.system.weyl_order(),
        "partition_total": sum(counts.values()) == group.order,
        "sizes_match": not mismatches,
        "mismatches": mismatches,
    }


@dataclass
class WOfClassReport:
    w_max: WeylElement
    incident: list
    unique_max: bool


def w_of_class(group_ctx, field, cls: ClassData) -> WOfClassReport:
    """Bruhat-maximal cell among those meeting the class.

    Cells are sorted by (length, reduced word), so ties in length go to the
    larger word and the report does not depend on the frozenset's order.
    `cls` comes from `expand_class` (`_cell_lookup` decodes its members
    without a membership test) or `conjugacy_classes` (read by index)."""
    if cls.indices is None or not isinstance(group_ctx, OracleGroup):
        ws = set(map(_cell_lookup(group_ctx, field), cls.elements))
    else:
        kinds, ids = group_ctx._cell_ids
        ws = [kinds[k] for k in set(map(ids.__getitem__, cls.indices))]
    ws = sorted(ws, key=lambda w: (w.length(), w.reduced_word()))
    best = ws[-1]
    unique = all(bruhat_leq(w, best) for w in ws)
    return WOfClassReport(w_max=best, incident=ws, unique_max=unique)


@dataclass
class DimensionReport:
    class_size: int
    dim: int
    w_max_word: tuple
    inequality_holds: bool
    equality_at_max: bool
    spherical_marked: bool
    tag: Optional[str]
    expected_w_matches: Optional[bool]
    unique_max: bool

    @property
    def formula_consistent(self) -> bool:
        return (self.inequality_holds
                and self.equality_at_max == self.spherical_marked)


def verify_dimension_formula(group: OracleGroup, cls: ClassData) -> DimensionReport:
    """dim O >= l(w) + rk(1-w) on incident cells, equality iff spherical.

    Raises AssertionError when a class marked spherical carries a dim
    other than its `class_dimension`."""
    ctx, field = group.ctx, group.field
    rep = _unflat(cls.rep, group.size)
    dim = ctx.class_dimension(field, rep)
    wrep = w_of_class(group, field, cls)
    inequality = all(
        dim >= w.length() + minus_one_rank(w) for w in wrep.incident)
    w_max = wrep.w_max
    equality = dim == w_max.length() + minus_one_rank(w_max)
    tag = classify_spherical(ctx, field, rep)
    if tag is not None and tag.dim != dim:
        raise AssertionError(
            f"{tag.tag} is marked dim {tag.dim}, class_dimension gives {dim}")
    expected_match = None
    if tag is not None and tag.w_class is not None:
        expected = expected_w_element(ctx.system, tag.w_class)
        expected_match = w_max in weyl_class(expected)
        if tag.w_class in ("w0", "identity"):
            expected_match = w_max == expected
    return DimensionReport(
        class_size=cls.size,
        dim=dim,
        w_max_word=w_max.reduced_word(),
        inequality_holds=inequality,
        equality_at_max=equality,
        spherical_marked=tag is not None,
        tag=tag.tag if tag else None,
        expected_w_matches=expected_match,
        unique_max=wrep.unique_max,
    )


def borel_orbit_report(group: OracleGroup, cls: ClassData,
                       w: WeylElement) -> dict:
    """B(F_q)-conjugation orbits inside the top cell of the class.

    Over a finite field the rational points of the dense B-orbit may split
    into several B(F_q)-orbits; this reports the split and the share of the
    class sitting in the top cell, and never asserts a single orbit.  The
    orbits are `conjugation_orbits` under the generators in B, which
    generate B(F_q) (`_coset_cells` finds |Bx| = |B| on every coset).
    """
    field = group.field
    if cls.indices is None:
        cell = _cell_lookup(group, field)
        top = frozenset(e for e in cls.elements if cell(e) == w)
    else:
        kinds, ids = group._cell_ids
        k = kinds.index(w) if w in kinds else -1
        top = frozenset(group.elements[i] for i in cls.indices if ids[i] == k)
    if not top:
        return {"top_cell_points": 0, "orbit_sizes": [], "top_share": 0.0}
    gens = tuple(group.generators[k] for k in _borel_generators(group))
    sizes = []
    for orbit in conjugation_orbits(field, group.size, gens, top,
                                    BOREL_ORBIT_BUDGET):
        if not top.issuperset(orbit):
            raise AssertionError("B-conjugation left the top cell")
        sizes.append(len(orbit))
    return {
        "top_cell_points": len(top),
        "orbit_sizes": sorted(sizes, reverse=True),
        "top_share": len(top) / cls.size,
    }


# -- slice-orbit verification -------------------------------------------------

@dataclass
class SliceOrbitReport:
    group: str
    q: int
    class_size: int
    w_word: tuple
    intersection_size: int
    nonempty: bool
    gamma_points: int
    gamma_closed: bool
    gamma_transitive: bool
    extension_used: bool
    caveats: list = dc_field(default_factory=list)

    @property
    def passed(self):
        return self.nonempty and self.gamma_closed and self.gamma_transitive


def slice_points(ctx: GroupContext, field, w: WeylElement,
                 wdot: Optional[Matrix] = None):
    """All F_q points of wdot T^w U^w as flat tuples, streamed.

    The order is fixed: t over `torus_fixed_points`, then the coefficients
    c_a of the inverted roots a (`inverted_positive_roots` order, the first
    root outermost) over 0 and then `field.units()`, the order of
    `field.elements()`; the point is wdot t prod_a x_a(c_a).  Each root has
    one step x -> [x x_a(c) for every unit c], compiled once per process by
    `_compile_step`; c = 0 leaves x as it is.
    """
    if wdot is None:
        wdot = ctx.weyl_representative(field, w)
    n = ctx.size
    ident = _flat(identity(field, n))
    steps = [_compile_step(field, n, tuple(
        (ident, _flat(ctx.root_element(field, a, c))) for c in field.units()))
        for a in ctx.inverted_positive_roots(w)]

    def walk(i, x):
        if i == len(steps):
            yield x
            return
        yield from walk(i + 1, x)
        for y in steps[i](x):
            yield from walk(i + 1, y)

    for t in ctx.torus_fixed_points(field, w):
        yield from walk(0, _flat(mat_mul(field, wdot, t)))


def slice_orbit_check(label: str, rank: int, q: int, rep: Matrix,
                      w: WeylElement, wdot: Optional[Matrix] = None,
                      proposals: tuple = ()) -> SliceOrbitReport:
    """Pointwise check of O n wdot T^w U^w: nonempty, Gamma-closed, one orbit.

    `wdot` defaults to the reduced-word representative; pass the catalog's
    displayed representative to probe the slice in its native coordinates.
    `proposals` may carry candidate slice points over F_{q^2} (as matrices
    over gf(q*q)); they are verified structurally and by `class_type` when
    the rational intersection is empty.  Gamma points escalate to the
    quadratic extension when needed; base-field entries embed into the
    extension as constant digits, so comparisons stay exact.
    """
    field = gf(q)
    ctx = GroupContext(label, rank)
    cls = expand_class(ctx, field, rep)
    caveats = []
    if wdot is None:
        wdot = ctx.weyl_representative(field, w)
    elif ctx.bruhat_word(field, wdot) != w:
        raise ValueError("wdot does not represent w")
    inter = sorted(cls.elements.intersection(
        slice_points(ctx, field, w, wdot=wdot)))
    extension_used = False
    geometric_nonempty = False
    if not inter:
        geometric_nonempty, note = _nonempty_over_extension(
            ctx, field, cls, w, wdot)
        if not geometric_nonempty and proposals:
            geometric_nonempty, note = _verify_extension_proposals(
                ctx, field, cls, w, wdot, proposals)
        caveats.append(note)
        extension_used = geometric_nonempty
    gammas = ctx.gamma_elements(field, w)
    closed = True
    transitive = len(inter) <= 1
    if gammas:
        # the orbits (of at most |Gamma_w| elements) are disjoint and
        # cover inter, so they lie in it when their sizes sum to |inter|;
        # the walk runs under the generators lambda_k(omega) alone
        orbits = list(conjugation_orbits(
            field, ctx.size,
            tuple(_flat(g) for g in ctx.gamma_generators(field, w)), inter,
            len(gammas)))
        closed = sum(map(len, orbits)) == len(inter)
        transitive = transitive or len(orbits) == 1
    else:
        extension_used = True
        caveats.append(
            f"Gamma_w has no 4th root of 1 over F_{q}; escalated to F_{q * q}")
    if not transitive:
        # one Gamma_w(F_{q^2})-orbit through all points; base-field ints
        # embed as constant digits
        ext = gf(q * q)
        gens = tuple(_flat(g) for g in ctx.gamma_generators(ext, w))
        transitive = len(list(conjugation_orbits(
            ext, ctx.size, gens, inter,
            len(ctx.gamma_elements(ext, w))))) == 1
        if transitive:
            extension_used = True
            caveats.append("transitivity needed Gamma points over the "
                           "quadratic extension")
    return SliceOrbitReport(
        group=f"{label}{rank}",
        q=q,
        class_size=cls.size,
        w_word=w.reduced_word(),
        intersection_size=len(inter),
        nonempty=bool(inter) or geometric_nonempty,
        gamma_points=len(gammas),
        gamma_closed=closed,
        gamma_transitive=transitive,
        extension_used=extension_used,
        caveats=caveats,
    )


def _nonempty_over_extension(ctx: GroupContext, field, cls: ClassData,
                             w: WeylElement, wdot: Matrix) -> tuple[bool, str]:
    """Rational-point caveat path: exhibit a slice point over F_{q^2}.

    Finds a class element in wdot T U form and normalizes it into
    wdot T^w U, over F_q and then over the quadratic extension; the
    result must have the rep's `class_type` over F_{q^2}.
    """
    q = field.order
    wdot_inv = inverse(field, wdot)
    for e in sorted(cls.elements):
        candidate = _unflat(e, ctx.size)
        if ctx.borel_torus(field, mat_mul(field, wdot_inv, candidate)):
            break
    else:
        return False, ("no class point in the open cell wdot T U over the "
                       "base field")
    if not normalize_to_fixed_torus(ctx, field, candidate, w,
                                    wdot).extension_needed:
        return False, ("class point normalized over the base field but the "
                       "enumerated slice missed it; inspect manually")
    # base-field matrices embed entrywise (constant digits)
    ext = gf(q * q)
    x_new = normalize_to_fixed_torus(ctx, ext, candidate, w, wdot).normalized
    if x_new is not None and (class_type(ext, _unflat(cls.rep, ctx.size))
                              == class_type(ext, x_new)):
        return True, (f"intersection empty over F_{q}; slice point with "
                      f"matching invariants found over F_{q * q} "
                      "(rational-point caveat, not a refutation)")
    return False, (f"intersection empty over F_{q} and the quadratic "
                   "extension search failed")


def _verify_extension_proposals(ctx: GroupContext, field, cls: ClassData,
                                w: WeylElement, wdot: Matrix,
                                proposals) -> tuple[bool, str]:
    """Check caller-proposed F_{q^2} slice points structurally and by type."""
    q = field.order
    ext = gf(q * q)
    wdot_inv = inverse(ext, wdot)
    sp = w.signed_permutation()
    rep_type = class_type(ext, _unflat(cls.rep, ctx.size))
    for y in proposals:
        t_coords = ctx.borel_torus(ext, mat_mul(ext, wdot_inv, y))
        if (t_coords is not None and is_w_fixed(ext, sp, t_coords)
                and class_type(ext, y) == rep_type):
            return True, (f"intersection empty over F_{q}; proposed slice "
                          f"point over F_{q * q} verified structurally and "
                          "by invariants (rational-point caveat)")
    return False, (f"intersection empty over F_{q} and no extension "
                   "proposal verified")


@dataclass
class NormalizeResult:
    normalized: Optional[Matrix]
    conjugator: Optional[Matrix]
    extension_needed: bool
    note: str


def normalize_to_fixed_torus(ctx: GroupContext, field, x: Matrix,
                             w: WeylElement, wdot: Matrix) -> NormalizeResult:
    """Conjugate x = wdot t u into wdot T^w U by s in (T_w)deg with s^-2 = t_w.

    Searches the F_q points of (T_w)deg; reports the quadratic extension
    when no square root exists rationally.  For SL no determinant check is
    needed: on the matrix lattice of type A, w permutes the coordinates, so
    every lambda in ker(1 + w) has coordinate sum 0 and det s = 1.
    """
    t_coords = ctx.borel_torus(field, mat_mul(field, inverse(field, wdot), x))
    if t_coords is None:
        raise ValueError("x is not in the open cell wdot T U")
    sp = w.signed_permutation()
    if is_w_fixed(field, sp, t_coords):
        return NormalizeResult(x, None, False, "already in wdot T^w U")
    for s_coords in ctx.anti_fixed_points(field, w, field.units()):
        shifted = [field.mul(field.inv(field.mul(s, s)), t)
                   for s, t in zip(s_coords, t_coords)]
        if is_w_fixed(field, sp, shifted):
            s = ctx.torus(field, s_coords)
            x_new = mat_mul(field, mat_mul(field, s, x), inverse(field, s))
            return NormalizeResult(x_new, s, False,
                                   "normalized over the base field")
    return NormalizeResult(None, None, True,
                           f"square root requires F_{field.order ** 2}")
