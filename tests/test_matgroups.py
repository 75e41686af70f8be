import random
from fractions import Fraction
from itertools import product

import pytest

from weylslice.fforacle import enumerate_group
from weylslice.fields import QQ, gf
from weylslice.linalg import (bruhat_permutation, det, identity, inverse,
                              mat_mul, transpose, unipotent_partition)
from weylslice.matgroups import GroupContext
from weylslice.rootsys import (build_root_system,
                               involution_conjugacy_classes, longest_element)
from weylslice.toruslat import TorusData, gamma_w

CONTEXTS = [("SL", 2), ("Sp", 2), ("Sp", 3), ("SO-odd", 2), ("SO-odd", 3),
            ("SO-even", 4)]


@pytest.mark.parametrize("label,rank", CONTEXTS)
def test_root_elements_in_group(label, rank):
    ctx = GroupContext(label, rank)
    F = gf(7)
    for r in ctx.system.roots:
        x = ctx.root_element(F, r, 3)
        assert ctx.in_group(F, x)
        # one-parameter subgroup
        assert mat_mul(F, x, ctx.root_element(F, r, 2)) == \
            ctx.root_element(F, r, 5)


@pytest.mark.parametrize("label,rank", CONTEXTS)
def test_root_elements_hold_c_reduced(label, rank):
    # an int c is stored as the element it names, so x_r(-1) = x_r(p - 1),
    # and over F_9 (elements already) x_r(c) is the column-operation
    # product I x_r(c), which reduces every entry
    ctx = GroupContext(label, rank)
    F, F9 = gf(1009), gf(9)
    for r in ctx.system.roots:
        for c in (-1, -5, 1010):
            x = ctx.root_element(F, r, c)
            assert x == ctx.root_element(F, r, c % 1009)
            assert all(0 <= v < 1009 for row in x for v in row)
        for c in F9.elements():
            assert ctx.root_element(F9, r, c) == ctx.times_root_element(
                F9, identity(F9, ctx.size), r, c)


@pytest.mark.parametrize("label,rank", [("SO-odd", 2), ("SO-odd", 4),
                                        ("SO-even", 3), ("SO-even", 4),
                                        ("Sp", 2), ("Sp", 3)])
def test_group_inverse_is_the_signed_transpose(label, rank):
    ctx = GroupContext(label, rank)
    F, N = gf(1009), ctx.size
    rng = random.Random(rank)
    # a reflection: -1 in odd dimension, the swap u_n <-> w_n in even
    if label == "SO-odd":
        flip = tuple(tuple(F.neg(x) for x in row) for row in identity(F, N))
    else:
        perm = list(range(N))
        perm[rank - 1], perm[N - 1] = N - 1, rank - 1
        flip = tuple(tuple(F.of(perm[i] == j) for j in range(N))
                     for i in range(N))
    for _ in range(4):
        g = ctx.torus(F, [F.of(rng.randrange(1, 1009))
                          for _ in range(ctx.torus_rank)])
        for _ in range(10):
            r, c = rng.choice(ctx.system.roots), F.of(rng.randrange(1009))
            moved = ctx.times_root_element(F, g, r, c)
            g = mat_mul(F, g, ctx.root_element(F, r, c))
            assert moved == g
        assert ctx.group_inverse(F, g) == inverse(F, g)
        bumped = [list(row) for row in g]
        i, j = rng.randrange(N), rng.randrange(N)
        bumped[i][j] = F.add(bumped[i][j], F.one)
        assert ctx.group_inverse(F, tuple(map(tuple, bumped))) is None
        if label != "Sp":  # an alternating form forces det 1
            reflected = mat_mul(F, flip, g)
            assert det(F, reflected) == F.neg(F.one)
            assert mat_mul(F, mat_mul(F, transpose(reflected), ctx.form(F)),
                           reflected) == ctx.form(F)
            assert ctx.group_inverse(F, reflected) is None


def test_group_inverse_without_a_form():
    F = gf(7)
    for label in ("SL", "GL"):
        ctx = GroupContext(label, 2)
        g = mat_mul(F, ctx.torus(F, [3, 5, F.inv(15)]),
                    ctx.root_element(F, ctx.system.roots[0], 4))
        assert ctx.group_inverse(F, g) == inverse(F, g)
        assert ctx.group_inverse(F, identity(F, 2)) is None
    assert GroupContext("SL", 2).group_inverse(
        F, GroupContext("GL", 2).torus(F, [2, 1, 1])) is None
    assert GroupContext("GL", 2).group_inverse(
        F, ((1, 2, 0), (2, 4, 0), (0, 0, 1))) is None


@pytest.mark.parametrize("label,rank", [("SL", 2), ("GL", 2), ("Sp", 2),
                                        ("SO-odd", 2), ("SO-even", 3)])
def test_non_roots_raise_value_error(label, rank):
    ctx = GroupContext(label, rank)
    n = ctx.system.dim
    root = ctx.system.simple_roots[0]
    e1 = (1,) + (0,) * (n - 1)
    bad = [(0,) * n, root + (0,), root[:-1],
           (Fraction(1, 2), Fraction(-1, 2)) + (0,) * (n - 2)]
    bad += {"Sp": [e1], "SO-odd": [(2,) + e1[1:], e1 + (0,)],
            "SO-even": [(2,) + e1[1:], e1]}.get(label, [])
    F = gf(7)
    for vec in bad:
        with pytest.raises(ValueError):
            ctx.root_element(F, vec, 1)
        with pytest.raises(ValueError):
            ctx.times_root_element(F, identity(F, ctx.size), vec, 1)


@pytest.mark.parametrize("label,rank", CONTEXTS)
def test_torus_conjugation_weights(label, rank):
    ctx = GroupContext(label, rank)
    F = QQ
    rnd = random.Random(3)
    nvals = rank + 1 if label in ("SL", "GL") else rank
    vals = [Fraction(rnd.randint(2, 7)) for _ in range(nvals)]
    if label == "SL":
        prod = Fraction(1)
        for v in vals[:-1]:
            prod *= v
        vals[-1] = 1 / prod
    t = ctx.torus(F, vals)
    assert ctx.in_group(F, t)
    for r in ctx.system.roots:
        x = ctx.root_element(F, r, Fraction(1))
        conj = mat_mul(F, mat_mul(F, t, x), inverse(F, t))
        weight = Fraction(1)
        for i, ri in enumerate(r):
            weight *= vals[i] ** int(ri)
        assert conj == ctx.root_element(F, r, weight)


@pytest.mark.parametrize("label,rank", CONTEXTS)
def test_weyl_representative_decodes(label, rank):
    ctx = GroupContext(label, rank)
    F = gf(11)
    for w in ctx.system.all_elements():
        wd = ctx.weyl_representative(F, w)
        assert ctx.in_group(F, wd)
        assert ctx.bruhat_word(F, wd) == w


@pytest.mark.parametrize("q", [5, 7, 9, 1009])
@pytest.mark.parametrize("label,rank", [("SO-odd", 2), ("SO-odd", 3),
                                        ("SO-even", 4)])
def test_weyl_representatives_are_monomial(label, rank, q):
    # x_a(1) x_{-a}(c) x_a(1) with c = -2/a([X_a, X_{-a}]) lies in N(T)
    # for the short simple root of B_n (c = 2) and e_{n-1} + e_n of D_n
    # (c = 1) too: an invertible matrix with one nonzero entry per row
    ctx, F = GroupContext(label, rank), gf(q)
    for w in ctx.system.all_elements():
        wd = ctx.weyl_representative(F, w)
        assert all(sum(not F.is_zero(x) for x in row) == 1 for row in wd)
        assert ctx.in_group(F, wd)


def test_bruhat_word_basics():
    F = gf(5)
    sl2 = GroupContext("SL", 1)
    assert sl2.bruhat_word(F, ((2, 1), (0, 3))).is_identity()
    assert sl2.bruhat_word(F, ((1, 3), (2, 2))).length() == 1
    with pytest.raises(ValueError):
        sl2.bruhat_word(F, ((1, 1), (1, 1)))
    sp = GroupContext("Sp", 2)
    with pytest.raises(ValueError):
        sp.bruhat_word(F, identity(F, 3))


def test_bruhat_word_memo_keeps_checks():
    # once a cell is cached, matrices that would decode to it must still be
    # refused: one off the form, one singular
    F = gf(5)
    sp = GroupContext("Sp", 2)
    w = sp.system.reflection(sp.system.highest_root())
    wd = sp.weyl_representative(F, w)
    assert sp.bruhat_word(F, wd) is sp.bruhat_word(F, wd) == w
    scaled = tuple(tuple(2 * x % 5 if i == 0 else x for x in row)
                   for i, row in enumerate(wd))
    singular = (tuple(0 for _ in wd[0]),) + wd[1:]
    for bad in (scaled, singular):
        with pytest.raises(ValueError):
            sp.bruhat_word(F, bad)
    sl2 = GroupContext("SL", 1)
    assert sl2.bruhat_word(F, ((0, 1), (4, 0))).length() == 1
    with pytest.raises(ValueError, match="singular"):
        sl2.bruhat_word(F, ((0, 1), (0, 0)))


def test_bruhat_biinvariance_sampled():
    F = gf(5)
    ctx = GroupContext("Sp", 2)
    rnd = random.Random(0)
    w = ctx.system.reflection(ctx.system.highest_root())
    wd = ctx.weyl_representative(F, w)

    def random_b():
        b = ctx.torus(F, [rnd.choice([1, 2, 3, 4]) for _ in range(2)])
        for r in ctx.system.positive_roots:
            b = mat_mul(F, b, ctx.root_element(F, r, rnd.randrange(5)))
        return b

    for _ in range(10):
        g = mat_mul(F, mat_mul(F, random_b(), wd), random_b())
        assert ctx.bruhat_word(F, g) == w


def test_class_dimension_examples():
    # central element
    assert GroupContext("SL", 1).class_dimension(QQ, identity(QQ, 2)) == 0
    # regular semisimple in SL2: the torus is the centralizer
    g = ((Fraction(2), Fraction(0)), (Fraction(0), Fraction(1, 2)))
    assert GroupContext("SL", 1).class_dimension(QQ, g) == 2
    # minimal unipotent class of Sp4 has dimension 4 (= l(s_beta) + 1)
    F7 = gf(7)
    sp = GroupContext("Sp", 2)
    beta = sp.system.highest_root()
    u = sp.root_element(F7, beta, 1)
    assert sp.class_dimension(F7, u) == 4
    assert unipotent_partition(F7, u) == (2, 1, 1)
    slong = sp.system.reflection(beta)
    from weylslice.rootsys import minus_one_rank

    assert slong.length() + minus_one_rank(slong) == 4


def test_class_dimension_char_robust():
    # regular unipotent of SL3 keeps dimension 6 in characteristic 3
    F3 = gf(3)
    sl3 = GroupContext("SL", 2)
    ru = ((1, 1, 0), (0, 1, 1), (0, 0, 1))
    assert sl3.class_dimension(F3, ru) == 6
    assert sl3.class_dimension(gf(7), ru) == 6


def test_class_dimension_refuses_so_in_characteristic_2():
    # over even q the kernel of Y -> Y^T J + J Y is not so_N (15 instead of
    # 10 for SO5 over F_4), so SO class dimensions there are refused
    for label, rank, q in [("SO-odd", 2, 4), ("SO-odd", 2, 2),
                           ("SO-even", 4, 4)]:
        ctx, F = GroupContext(label, rank), gf(q)
        with pytest.raises(ValueError, match="odd characteristic"):
            ctx.class_dimension(F, identity(F, ctx.size))
    # Sp and SL keep their Lie algebras in characteristic 2
    F4 = gf(4)
    assert GroupContext("Sp", 2).class_dimension(F4, identity(F4, 4)) == 0
    assert GroupContext("SL", 2).class_dimension(F4, identity(F4, 3)) == 0
    assert GroupContext("SO-odd", 2).class_dimension(
        gf(5), identity(gf(5), 5)) == 0


def test_class_dimension_conjugation_invariant():
    F = gf(5)
    ctx = GroupContext("Sp", 2)
    rnd = random.Random(1)
    g = ctx.torus(F, [2, 2])
    base = ctx.class_dimension(F, g)
    for _ in range(5):
        h = ctx.weyl_representative(
            F, ctx.system.simple_reflection(rnd.randrange(2)))
        for r in ctx.system.positive_roots:
            h = mat_mul(F, h, ctx.root_element(F, r, rnd.randrange(5)))
        conj = mat_mul(F, mat_mul(F, h, g), inverse(F, h))
        assert ctx.class_dimension(F, conj) == base


def test_form_matrices():
    F = QQ
    for label, rank in CONTEXTS:
        ctx = GroupContext(label, rank)
        j = ctx.form(F)
        if label == "SL":
            assert j is None
            continue
        t = tuple(zip(*j))
        if label == "Sp":
            assert t == tuple(
                tuple(F.neg(x) for x in row) for row in j)
        else:
            assert t == j


# -- (T_w)deg points and the Borel reader ------------------------------------

SMALL_CONTEXTS = [("SL", 1), ("SL", 2), ("SO-odd", 2), ("Sp", 2)]  # A1 A2 B2 C2


def _involutions(ctx):
    return [w for cls in involution_conjugacy_classes(ctx.system)
            for w in cls]


def _kernel(ctx, w):
    torus = TorusData(ctx.system, w, "matrix")
    return torus.n, [g.lattice_coords for g in gamma_w(torus)[1]]


def _reference_gamma_elements(ctx, F, w):
    """Gamma_w(F) by exponent sums mod 4 over the kernel basis."""
    omega = F.fourth_root_of_unity()
    if omega is None:
        return []
    powers = [F.one]
    for _ in range(3):
        powers.append(F.mul(powers[-1], omega))
    n, gens = _kernel(ctx, w)
    out = set()
    for exps in product(range(4), repeat=len(gens)):
        coords = [sum(e * g[i] for e, g in zip(exps, gens)) for i in range(n)]
        out.add(ctx.torus(F, [powers[c % 4] for c in coords]))
    return sorted(out)


def _reference_anti_fixed_points(ctx, F, w):
    """F-points of (T_w)deg by repeated multiplication per kernel vector."""
    n, kernel = _kernel(ctx, w)
    units = [u for u in F.elements() if not F.is_zero(u)]
    pts = set()
    for choices in product(units, repeat=len(kernel)):
        coords = [F.one] * n
        for vec, c in zip(kernel, choices):
            cinv = F.inv(c)
            for i, e in enumerate(vec):
                for _ in range(abs(e)):
                    coords[i] = F.mul(coords[i], c if e >= 0 else cinv)
        pts.add(tuple(coords))
    return sorted(pts)


@pytest.mark.parametrize("q", [5, 7, 9, 13])
@pytest.mark.parametrize("label,rank", SMALL_CONTEXTS)
def test_anti_fixed_points_match_references(label, rank, q):
    ctx = GroupContext(label, rank)
    F = gf(q)
    for w in _involutions(ctx):
        # same list in the same order: gamma_stability_check strides it
        assert ctx.gamma_elements(F, w) == _reference_gamma_elements(ctx, F, w)
        points = ctx.anti_fixed_points(F, w, F.units())
        assert points == _reference_anti_fixed_points(ctx, F, w)
        if label == "SL":
            # w permutes the coordinates, so every kernel vector has
            # coordinate sum 0 and every point has determinant 1
            for c in points:
                det = F.one
                for x in c:
                    det = F.mul(det, x)
                assert det == F.one


@pytest.mark.parametrize("label,rank", CONTEXTS)
def test_borel_torus(label, rank):
    ctx = GroupContext(label, rank)
    F = gf(7)
    vals = [F.of(k + 2) for k in range(rank)]
    if label == "SL":
        prod = F.one
        for v in vals:
            prod = F.mul(prod, v)
        vals.append(F.inv(prod))
    b = ctx.torus(F, vals)
    for k, r in enumerate(ctx.system.positive_roots):
        b = mat_mul(F, b, ctx.root_element(F, r, F.of(k + 1)))
    assert ctx.borel_torus(F, b) == tuple(vals)
    for r in ctx.system.positive_roots:
        # one nonzero entry below the flag diagonal
        below = mat_mul(F, b, ctx.root_element(F, ctx.system.roots[
            ctx.system.neg[ctx.system.index[r]]], F.one))
        assert ctx.borel_torus(F, below) is None
    singular = tuple(tuple(F.zero if i == j == 0 else x
                           for j, x in enumerate(row))
                     for i, row in enumerate(ctx.torus(F, vals)))
    assert ctx.borel_torus(F, singular) is None



def _explicit_in_group(ctx, F, g):
    """The membership test by definition: g^T J g = J with two products,
    and det 1 for SO."""
    N = ctx.size
    if len(g) != N or any(len(row) != N for row in g):
        return False
    j = ctx.form(F)
    if mat_mul(F, mat_mul(F, transpose(g), j), g) != j:
        return False
    return ctx.label == "Sp" or det(F, g) == F.one


@pytest.mark.parametrize("label,rank", [("Sp", 2), ("Sp", 3), ("SO-odd", 2),
                                        ("SO-odd", 3), ("SO-even", 3),
                                        ("SO-even", 4)])
def test_monomial_in_group_matches_explicit_form_test(label, rank):
    ctx = GroupContext(label, rank)
    F = gf(7)
    rnd = random.Random(rank)
    assert ctx.form(F) is ctx.form(F)
    for _ in range(12):
        g = ctx.torus(F, [rnd.randrange(1, 7) for _ in range(rank)])
        for _ in range(6):
            r = rnd.choice(ctx.system.roots)
            g = mat_mul(F, g, ctx.root_element(F, r, rnd.randrange(7)))
        i, j = rnd.randrange(ctx.size), rnd.randrange(ctx.size)
        perturbed = tuple(
            tuple((x + 1 + rnd.randrange(6)) % 7 if (a, b) == (i, j) else x
                  for b, x in enumerate(row)) for a, row in enumerate(g))
        singular = tuple(tuple(0 if a == i else x for x in row)
                         for a, row in enumerate(g))
        minus = tuple(tuple(-x % 7 for x in row) for row in g)
        small = tuple(row[1:] for row in g[1:])
        for m in (g, perturbed, singular, minus, small, g[1:]):
            assert ctx.in_group(F, m) == _explicit_in_group(ctx, F, m)
        assert ctx.in_group(F, g) and not ctx.in_group(F, singular)


@pytest.mark.parametrize("label,rank,dets", [
    ("SL", 2, 1), ("GL", 2, 1), ("Sp", 2, 0), ("SO-odd", 2, 1),
    ("SO-even", 3, 1)])
def test_in_group_det_rule(label, rank, dets, monkeypatch):
    # det 1 for SL and SO, det nonzero for GL, and no det at all for Sp,
    # whose alternating form forces det 1: one det per point at most
    import weylslice.matgroups as matgroups

    ctx, F = GroupContext(label, rank), gf(7)
    calls = []
    monkeypatch.setattr(matgroups, "det",
                        lambda field, g: calls.append(g) or det(field, g))
    t = ctx.torus(F, [2] + [1] * (ctx.torus_rank - 1))
    x = mat_mul(F, t, ctx.root_element(F, ctx.system.simple_roots[0], 3))
    assert ctx.in_group(F, x) == (label != "SL")  # det 2 is not 1 in SL
    assert len(calls) == dets
    scaled = tuple(tuple(3 * v % 7 for v in row)
                   for row in identity(F, ctx.size))
    assert ctx.in_group(F, scaled) == (label == "GL")
    singular = ((0,) * ctx.size,) + identity(F, ctx.size)[1:]
    assert not ctx.in_group(F, singular)


def _group_test_cases(ctx, F, g, rng):
    """g with one entry bumped, negated (det -1 in odd dimension), with a
    row zeroed, and, over a prime field, with entries shifted by +-p."""
    N, i, j = ctx.size, rng.randrange(ctx.size), rng.randrange(ctx.size)
    bumped = tuple(tuple(F.add(x, F.one) if (a, b) == (i, j) else x
                         for b, x in enumerate(row))
                   for a, row in enumerate(g))
    negated = tuple(tuple(map(F.neg, row)) for row in g)
    zeroed = tuple((F.zero,) * N if a == i else row
                   for a, row in enumerate(g))
    cases = [g, bumped, negated, zeroed]
    if F.order == F.char:
        p = F.char
        cases += [tuple(tuple(x + p if (a + b) % 2 else x - p
                              for b, x in enumerate(row)) for a, row in
                        enumerate(m)) for m in (g, bumped, negated)]
    return cases


def _shapes(g):
    """g with a row dropped, with a column dropped, and both."""
    return [g[1:], tuple(row[1:] for row in g),
            tuple(row[1:] for row in g[1:])]


@pytest.mark.parametrize("label,rank,q", [
    ("Sp", 2, 3), ("SO-odd", 2, 3), ("Sp", 2, 9), ("SO-odd", 2, 9),
    ("SO-even", 3, 9), ("Sp", 3, 1009), ("SO-odd", 3, 1009),
    ("SO-even", 4, 1009)])
def test_group_test_matches_the_explicit_reference(label, rank, q):
    # in_group and group_inverse against g^T J g = J by two products, the
    # det rule and an elimination: on F_3 a stride of the enumerated
    # group, elsewhere random products of root elements and a torus
    ctx, F, rng = GroupContext(label, rank), gf(q), random.Random(q + rank)
    if q == 3:
        group = enumerate_group(label, rank, q)
        elements = [tuple(tuple(x[i * ctx.size:(i + 1) * ctx.size])
                          for i in range(ctx.size))
                    for x in group.elements[::1297]]
    else:
        elements = []
        for _ in range(12):
            g = ctx.torus(F, [rng.choice(list(F.units()))
                              for _ in range(ctx.torus_rank)])
            for _ in range(6):
                g = ctx.times_root_element(F, g, rng.choice(ctx.system.roots),
                                           rng.choice(list(F.elements())))
            elements.append(g)
    verdicts = set()
    for g in elements:
        for m in _group_test_cases(ctx, F, g, rng) + _shapes(g):
            member = _explicit_in_group(ctx, F, m)
            verdicts.add(member)
            assert ctx.in_group(F, m) == member
            got = ctx.group_inverse(F, m)
            if not member:
                assert got is None
                continue
            # an unreduced g gives an unreduced g^-1: compare mod p
            assert tuple(tuple(F.of(x) if F.order == F.char else x
                               for x in row) for row in got) == inverse(F, m)
    assert verdicts == {True, False}


def _column_sweep_permutation(p, g):
    """`linalg.bruhat_permutation` with its former column sweep, on ints
    mod p: after each pivot, the pivot row is cleared rightward by column
    operations.  The reference the sweep-free decoder must match."""
    n = len(g)
    m = [list(r) for r in g]
    perm, used = [], set()
    for j in range(n):
        piv = next((i for i in reversed(range(n))
                    if i not in used and m[i][j] % p), None)
        if piv is None:
            raise ZeroDivisionError("matrix is singular")
        perm.append(piv)
        used.add(piv)
        prow = m[piv]
        inv = pow(prow[j], -1, p)
        for i in range(piv):
            if i not in used and m[i][j] % p:
                f = inv * m[i][j]
                m[i] = [(x - f * y) % p for x, y in zip(m[i], prow)]
        for jj in range(j + 1, n):
            if prow[jj] % p:
                f = inv * prow[jj]
                for row in m:
                    if row[j] % p:
                        row[jj] = (row[jj] - f * row[j]) % p
    return tuple(perm)


def test_bruhat_permutation_matches_the_column_sweep():
    # every element of SL3(F_3), Sp4(F_3) and SO5(F_3), flag-ordered as
    # GroupContext._cell reads them
    from operator import itemgetter

    for label, rank in (("SL", 2), ("Sp", 2), ("SO-odd", 2)):
        group = enumerate_group(label, rank, 3)
        order, n = group.ctx.flag_order, group.ctx.size
        rows = [itemgetter(*[order[i] * n + order[j] for j in range(n)])
                for i in range(n)]
        for x in group.elements:
            g = [r(x) for r in rows]
            assert bruhat_permutation(group.field, g) == \
                _column_sweep_permutation(3, g)
    # random matrices, many singular (both decoders raise on those)
    rng = random.Random(9)
    raised = 0
    for p, sizes in ((3, range(1, 6)), (1009, range(1, 10))):
        F = gf(p)
        for n in sizes:
            for _ in range(30):
                g = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
                if rng.random() < 0.4 and n > 1:  # a repeated row
                    g[rng.randrange(n)] = list(g[rng.randrange(n)])
                try:
                    want = _column_sweep_permutation(p, g)
                except ZeroDivisionError:
                    raised += 1
                    with pytest.raises(ZeroDivisionError):
                        bruhat_permutation(F, g)
                    continue
                assert bruhat_permutation(F, g) == want
    assert raised > 50
