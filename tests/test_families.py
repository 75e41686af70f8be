import random
from fractions import Fraction
from itertools import product

import pytest

from conftest import cubic_mu_by_products
from weylslice.families import (
    AFamily,
    BFamilyS,
    CFamilyS2,
    DFamilyR,
    DFamilyS,
    E6Family,
    E7Family,
    ETuplePoint,
    ExtensionRequired,
    MembershipResult,
    TwoFlipFamily,
    build_family,
    family_for,
)
from weylslice.fields import QQ, QQI, gf
from weylslice.linalg import (
    charpoly,
    class_type,
    det,
    fsum,
    identity,
    inverse,
    mat_mul,
    mat_pow,
    poly_eval,
    poly_eval_matrix,
    rank,
    scalar_shift,
    unipotent_partition,
)
import weylslice.sheetcat as sheetcat
from weylslice.sheetcat import sheet_catalog

F = gf(1009)
F7 = gf(7)

ALL_MATRIX_SHEETS = [
    ("B", 2), ("B", 3), ("B", 4), ("C", 3), ("C", 4), ("D", 4), ("D", 5),
]


@pytest.mark.parametrize("t,n", ALL_MATRIX_SHEETS)
def test_representatives_in_group_and_cell(t, n):
    for d in sheet_catalog(t, n):
        fam = build_family(d)
        wd = fam.representative(F)
        assert fam.ctx.in_group(F, wd)
        assert fam.ctx.bruhat_word(F, wd) == fam.w


@pytest.mark.parametrize("t,n", ALL_MATRIX_SHEETS)
def test_component_points_member_and_in_cell(t, n):
    for d in sheet_catalog(t, n):
        fam = build_family(d)
        comp = fam.components()[0]
        pt = comp.point(F, F.of(9))
        assert fam.ctx.in_group(F, pt)
        assert fam.membership(F, pt).member
        assert fam.ctx.bruhat_word(F, pt) == fam.w


def test_ambient_never_consults_membership(monkeypatch):
    # certify_components rejects ambient points by membership; a chart
    # sampler that asked membership would make that check vacuous
    def forbidden(self, field, X):
        raise AssertionError("ambient called membership")

    rng = random.Random(0)
    for t, n in ALL_MATRIX_SHEETS + [("A", 3), ("A", 4), ("E", 6), ("E", 7)]:
        for d in sheet_catalog(t, n):
            fam = build_family(d)
            monkeypatch.setattr(type(fam), "membership", forbidden)
            pts = [fam.ambient(F7, rng) for _ in range(8)]
            assert any(pt is not None for pt in pts), (t, n, d.label)
            monkeypatch.undo()


def test_c_s2_paper_solution():
    # x(E, I, -(l + 1/l) E) with l = 2 over F_7 is a semisimple member
    fam = family_for("C", 3, "S2")
    mu = F7.add(2, F7.inv(2))
    pt = fam._component_point((1, -1, 1))(F7, mu)
    res = fam.membership(F7, pt)
    assert res.member and "semisimple" in res.member_type
    # V != I leaves the sheet
    bad = fam.point(F7, (1, 1, 1), {(0, 1): 1},
                    {(i, i): F7.neg(mu) for i in range(3)})
    assert fam.ctx.in_group(F7, bad)
    assert not fam.membership(F7, bad).member
    # l = 1 gives the unipotent member with partition (2,2,2)
    unip = fam._component_point((1, 1, 1))(F7, F7.of(2))
    assert unipotent_partition(F7, unip) == (2, 2, 2)


def test_b_sprime_display_solution():
    # display coordinates (c, a, b, l, m) = (1, 0, 0, eta x^2, -eta x) solve
    # rk(X - I) = 2; with a = b = 0 the point has unipotent coefficients
    # (x, m, 0, 0), and the group condition l = -a^2/2 - x m pins l
    fam = family_for("B", 3, "Sprime")
    for eps in (1, -1):
        for eta in (1, -1):
            x = F.of(17)
            m_disp = F.neg(F.mul(F.of(eta), x))
            X = fam.point(F, eps, eta, F.one, [x, m_disp, F.zero, F.zero])
            assert fam.ctx.in_group(F, X)
            assert rank(F, scalar_shift(F, X, F.one)) == 2
            assert fam.membership(F, X).member
            assert F.neg(F.mul(x, m_disp)) == F.mul(F.of(eta), F.mul(x, x))


def test_c_s1_paper_solution():
    # b = 1, x = -2 eps, y = eta xi, z = -2 eta
    fam = family_for("C", 3, "S1")
    xi = F.of(23)
    for eps in (1, -1):
        for eta in (1, -1):
            X = fam.point(F, eps, eta, F.one,
                          [xi, F.mul(F.of(eta), xi), F.of(-2 * eps),
                           F.of(-2 * eta)])
            assert fam.ctx.in_group(F, X)
            assert rank(F, scalar_shift(F, X, F.one)) == 2
            assert fam.membership(F, X).member
            assert X == fam._component_point(eps, eta)(F, xi)
    # off the line: z free
    bad = fam.point(F, 1, 1, F.one, [xi, xi, F.of(-2), F.of(5)])
    assert not fam.membership(F, bad).member


def test_minus_s1_membership():
    fam = family_for("C", 3, "-S1")
    X = fam._component_point(1, 1)(F, F.of(7))
    assert fam.ctx.in_group(F, X)
    assert rank(F, scalar_shift(F, X, F.neg(F.one))) == 2
    assert fam.membership(F, X).member


def test_b_s_family_branches():
    fam = family_for("B", 2, "S")
    comps = fam.components()
    assert len(comps) == 8
    # a = 0: lambda = 1 branch, rk((X-1)^2) = 1, partition (3,1^2)
    X0 = comps[0].point(F, F.zero)
    sh = scalar_shift(F, X0, F.one)
    assert rank(F, sh) == 2
    assert rank(F, mat_mul(F, sh, sh)) == 1
    assert unipotent_partition(F, X0) == (3, 1, 1)
    # generic a: semisimple member
    Xg = comps[3].point(F, F.of(100))
    res = fam.membership(F, Xg)
    assert res.member and "semisimple" in res.member_type
    # B3: a^2 = 8(-1)^n = -8 gives the unipotent (3,2,2) member
    fam3 = family_for("B", 3, "S")
    a = F.sqrt(F.of(-8))
    X = fam3.components()[0].point(F, a)
    assert unipotent_partition(F, X) == (3, 2, 2)
    sh = scalar_shift(F, X, F.one)
    assert rank(F, mat_mul(F, sh, sh)) == 1
    # a = 0 for odd n: the rho-twisted member, rk(X+1) = n, rk((X+1)^2) = 1
    X0 = fam3.components()[0].point(F, F.zero)
    sh = scalar_shift(F, X0, F.neg(F.one))
    assert rank(F, sh) == 3
    assert rank(F, mat_mul(F, sh, sh)) == 1


def test_b_s_needs_fourth_root():
    fam = family_for("B", 2, "S")
    point = fam._component_point((-1, 1), (1, 1))
    with pytest.raises(ExtensionRequired):
        point(F7, F7.of(1))  # F_7 has no primitive 4th root of 1


def _b_s_chart_point(fam, field, e, eta, a):
    """The point of component (e, eta) at a through the chart formula
    `point`: zeta_i^2 = e_i, d_i = eta_i / zeta_i, v = a d,
    mu = 2(-1)^n - a^2/2, A_ij = mu d_i d_j (i < j) and Q the inverse of
    qinv = diag(d) (I + 2U) diag(d)^-1, U the all-ones strict upper part."""
    n, one = fam.n, field.one
    zeta = [one if ei == 1 else field.fourth_root_of_unity() for ei in e]
    d = [field.div(field.of(h), z) for h, z in zip(eta, zeta)]
    mu = field.sub(field.of(2 * fam.sign),
                   field.mul(field.inv(field.of(2)), field.mul(a, a)))
    qinv = tuple(tuple(one if i == j else field.mul(
        field.of(2), field.div(d[i], d[j])) if i < j else field.zero
        for j in range(n)) for i in range(n))
    Q = inverse(field, qinv)
    upper = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return fam.point(field, e, [field.mul(a, x) for x in d],
                     {ij: Q[ij[0]][ij[1]] for ij in upper},
                     {(i, j): field.mul(mu, field.mul(d[i], d[j]))
                      for i, j in upper})


@pytest.mark.parametrize("n", [2, 3, 4])
def test_b_s_component_points_match_the_chart(n):
    # one family serves every field in turn, so a coefficient cache keyed
    # on the wrong field would hand F_13 matrices to F_1009 or QQ(i)
    fam = family_for("B", n, "S")
    signs = [(e, (1,) + eta) for e in product((1, -1), repeat=n)
             for eta in product((1, -1), repeat=n - 1)]
    rng = random.Random(n)
    F13 = gf(13)
    coords = [
        (F13, [F13.of(a) for a in range(13)]),
        (F, [F.of(a) for a in [0, 1, 1008] + rng.sample(range(2, 1008), 3)]),
        (QQ, [Fraction(0), Fraction(-3, 2)]),
        (QQI, [QQI.zero, (Fraction(2), Fraction(-1, 3))]),
    ]
    comps = fam.components()
    assert [c.label for c in comps] == [f"e={e} eta={eta}" for e, eta in signs]
    for rounds in range(2):
        for comp, (e, eta) in zip(comps, signs):
            for field, values in coords:
                if field is QQ and -1 in e:
                    with pytest.raises(ExtensionRequired):
                        comp.point(field, values[0])
                    continue
                for a in values[rounds::2]:
                    assert comp.point(field, a) == _b_s_chart_point(
                        fam, field, e, eta, a)


def test_d_families():
    fam = family_for("D", 4, "S")
    assert len(fam.components()) == 4
    X = fam.components()[0].point(F, F.of(2))
    assert unipotent_partition(F, X) == (2, 2, 2, 2)
    fam_t = family_for("D", 4, "thetaS")
    Xt = fam_t.components()[0].point(F, F.of(9))
    assert fam_t.ctx.in_group(F, Xt)
    assert fam_t.membership(F, Xt).member
    assert fam_t.ctx.bruhat_word(F, Xt) == fam_t.w != fam.w
    famR = family_for("D", 5, "R")
    assert len(famR.components()) == 4
    XR = famR.components()[0].point(F, F.one)
    assert unipotent_partition(F, XR) == (2, 2, 2, 2, 1, 1)
    # zeta and 1/zeta give the same rank conditions (mu is symmetric)
    z = F.of(11)
    assert famR.membership(F, famR.components()[0].point(F, z)).member
    assert famR.membership(F, famR.components()[0].point(F, F.inv(z))).member


def _unipotent(parts):
    """1 + N for the nilpotent N with Jordan blocks of the given sizes."""
    n = sum(parts)
    rows = [[F.of(i == j) for j in range(n)] for i in range(n)]
    start = 0
    for p in parts:
        for k in range(start, start + p - 1):
            rows[k][k + 1] = F.one
        start += p
    return tuple(map(tuple, rows))


def _eps(n, *terms):
    """sum of s e_i over the (i, s) terms, as a length-n vector."""
    v = [0] * n
    for i, s in terms:
        v[i] += s
    return tuple(v)


def _root_product(ctx, field, roots):
    """x_r(1) multiplied out over `roots` in order."""
    out = identity(field, ctx.size)
    for r in roots:
        out = mat_mul(field, out, ctx.root_element(field, r, field.one))
    return out


def test_square_zero_branch_needs_both_ranks():
    fam = family_for("D", 4, "S")
    famR = family_for("D", 5, "R")
    # the Jordan matrices 1 + N do not preserve the SO_2n form, so each is
    # rejected by the group test; (2^5) is not an orthogonal partition
    for f, parts in ((fam, (2, 2, 2, 2)), (fam, (3, 2, 2, 1)),
                     (famR, (2, 2, 2, 2, 1, 1)), (famR, (3, 2, 2, 1, 1, 1)),
                     (famR, (2, 2, 2, 2, 2))):
        X = _unipotent(parts)
        assert not f.ctx.in_group(F, X)
        assert f.membership(F, X) == MembershipResult(
            False, f"X is not in SO_{2 * f.n}")
    # in the group, (3,2,2,1) has rk(X - 1) = 4 like (2,2,2,2), but
    # (X - 1)^2 != 0; likewise (3,2,2,1^3) against (2^4,1^2)
    d4 = [_eps(4, (0, 1), (1, 1)), _eps(4, (2, 1), (3, 1))]
    d4_3 = [_eps(4, (2, 1), (3, -1)), _eps(4, (2, 1), (3, 1)),
            _eps(4, (0, 1), (1, -1))]
    d5 = [_eps(5, (0, 1), (1, 1)), _eps(5, (2, 1), (3, 1))]
    d5_3 = [_eps(5, (3, 1), (4, -1)), _eps(5, (3, 1), (4, 1)),
            _eps(5, (0, 1), (1, -1))]
    for f, roots, parts, member in (
            (fam, d4, (2, 2, 2, 2), True),
            (fam, d4_3, (3, 2, 2, 1), False),
            (famR, d5, (2, 2, 2, 2, 1, 1), True),
            (famR, d5_3, (3, 2, 2, 1, 1, 1), False)):
        X = _root_product(f.ctx, F, roots)
        assert unipotent_partition(F, X) == parts
        assert rank(F, scalar_shift(F, X, F.one)) == 4
        minus = tuple(tuple(F.neg(x) for x in row) for row in X)
        for Z in (X, minus):
            assert f.ctx.in_group(F, Z)
            assert f.membership(F, Z).member is member, (parts, Z is X)


def test_a_family():
    fam = AFamily(3, 2)
    assert len(fam.components()) == 2
    for comp in fam.components():
        X = comp.point(F, (F.of(5), F.of(7)))
        assert fam.membership(F, X).member
        assert det(F, X) == F.of(5**4 % 1009)
    # b = +-a collapses to the unipotent member z*(2^2)
    X = fam.components()[0].point(F, (F.of(5), F.of(5)))
    res = fam.membership(F, X)
    assert res.member and "unipotent" in res.member_type
    # random ambient fails
    bad = fam.point(F, [F.of(3), F.of(4)], F.of(6), [F.of(2), F.of(9)])
    assert not fam.membership(F, bad).member
    # split multiplicity check rejects wrong patterns
    sl_like = AFamily(3, 1)
    wrong = sl_like.point(F, [F.of(2)], F.of(3), [F.of(0)])
    assert not sl_like.membership(F, wrong).member


def _solve_deg2(field, g, gsq):
    """(s, p) with g^2 - s*g + p*I = 0, or None; `gsq` is g^2 and g is not
    scalar.  s is read off one nonzero off-diagonal entry of g, or, for
    diagonal g, is the sum of two distinct diagonal entries."""
    n = len(g)
    ij = next(((i, j) for i in range(n) for j in range(n)
               if i != j and not field.is_zero(g[i][j])), None)
    if ij is not None:
        s = field.div(gsq[ij[0]][ij[1]], g[ij[0]][ij[1]])
    else:
        j = next((j for j in range(1, n) if g[j][j] != g[0][0]), None)
        if j is None:
            return None
        s = field.add(g[0][0], g[j][j])
    p = field.sub(field.mul(s, g[0][0]), gsq[0][0])
    if all(gsq[i][j] == field.sub(field.mul(s, g[i][j]),
                                  p if i == j else field.zero)
           for i in range(n) for j in range(n)):
        return s, p
    return None


def _a_membership_reference(fam, field, X):
    """AFamily.membership by its own minimal-polynomial solver, in odd
    characteristic: X = z(1 + N) for z the trace over n + 1 (or a root of
    the charpoly when p divides n + 1), else x^2 - s x + p0 from
    `_solve_deg2` and the multiplicity of one eigenvalue."""
    if not fam.ctx.in_group(field, X):
        return MembershipResult(False, f"X is not in GL_{fam.n + 1}")
    n1, m = fam.n + 1, fam.m
    if n1 % field.char:
        cands = [field.div(fsum(field, (X[i][i] for i in range(n1))),
                           field.of(n1))]
    else:
        cands = [z for z in field.elements()
                 if field.is_zero(poly_eval(field, charpoly(field, X), z))]
    for z in cands:
        sh = scalar_shift(field, X, z)
        if (not field.is_zero(z) and rank(field, sh) == m
                and rank(field, mat_pow(field, sh, 2)) == 0):
            return MembershipResult(
                True, f"X = z*(unipotent (2^{m},1^{n1 - 2 * m}))",
                "unipotent member up to scalar")
    got = _solve_deg2(field, X, mat_mul(field, X, X))
    if got is not None:
        s, p0 = got
        disc = field.sub(field.mul(s, s), field.mul(field.of(4), p0))
        if not field.is_zero(disc) and not field.is_zero(p0):
            sq = field.sqrt(disc)
            if sq is None:
                if n1 == 2 * m:
                    return MembershipResult(
                        True, "semisimple, conjugate eigenvalue pair",
                        "semisimple member (non-split)")
                return MembershipResult(False, "unequal conjugate pair")
            lam = field.mul(field.inv(field.of(2)), field.add(s, sq))
            if n1 - rank(field, scalar_shift(field, X, lam)) in (m, n1 - m):
                return MembershipResult(
                    True, "semisimple, multiplicities (n+1-m, m)",
                    "semisimple member")
    return MembershipResult(False, "no S_m membership condition holds")


def _conjugate(field, rng, D):
    """P D P^-1 for a random invertible P."""
    n = len(D)
    while True:
        P = tuple(tuple(rng.randrange(field.order) for _ in range(n))
                  for _ in range(n))
        try:
            return mat_mul(field, mat_mul(field, P, D), inverse(field, P))
        except ZeroDivisionError:
            continue


def _block_diag(field, blocks):
    n = sum(len(b) for b in blocks)
    out, at = [[field.zero] * n for _ in range(n)], 0
    for b in blocks:
        for i, row in enumerate(b):
            out[at + i][at:at + len(b)] = row
        at += len(b)
    return tuple(map(tuple, out))


def _a_points(fam, field, rng):
    """Chart points (b = a among them), ambient points, random matrices,
    and random conjugates of z(1 + N) with N^2 = 0 of every rank, of
    diag(l, .., l, k, .., k) at every split and of equal companion blocks
    of an irreducible quadratic."""
    n1, q = fam.n + 1, field.order

    def unit():
        return 1 + rng.randrange(q - 1)

    points = []
    for comp in fam.components():
        a = unit()
        points += [comp.point(field, (a, a))]
        points += [comp.point(field, (unit(), unit())) for _ in range(2)]
    points += [X for X in (fam.ambient(field, rng) for _ in range(4)) if X]
    points += [tuple(tuple(rng.randrange(q) for _ in range(n1))
                     for _ in range(n1)) for _ in range(4)]
    z = unit()
    for r in range(n1 // 2 + 1):
        jordan = [((z, 1), (0, z))] * r + [((z,),)] * (n1 - 2 * r)
        points.append(_conjugate(field, rng, _block_diag(field, jordan)))
    lam, kap = unit(), unit()
    for k in range(1, n1):
        points.append(_conjugate(field, rng, _block_diag(
            field, [((lam,),)] * k + [((kap,),)] * (n1 - k))))
    if n1 % 2 == 0:
        s, p0 = next((s, p0) for s in field.elements() for p0 in field.units()
                     if field.sqrt(field.sub(field.mul(s, s), field.mul(
                         field.of(4), p0))) is None)
        companion = ((field.zero, field.neg(p0)), (field.one, s))
        points.append(_conjugate(field, rng, _block_diag(
            field, [companion] * (n1 // 2))))
    return points


def _assert_matches_the_reference(fam, field, X):
    """Membership agrees with the reference: the verdict and member type
    everywhere, and the reason too for a member.  Returns the type."""
    got, want = fam.membership(field, X), _a_membership_reference(
        fam, field, X)
    assert (got.member, got.member_type) == (
        want.member, want.member_type), (fam.n, fam.m, X)
    assert not got.member or got == want
    return got.member_type


@pytest.mark.parametrize("q", [3, 5, 7, 9, 13, 1009])
def test_a_membership_matches_the_reference(q):
    field, rng = gf(q), random.Random(q)
    kinds = set()
    for n in (3, 4, 5):
        for m in range(1, (n + 1) // 2 + 1):
            fam = AFamily(n, m)
            for X in _a_points(fam, field, rng):
                kinds.add(_assert_matches_the_reference(fam, field, X))
    assert kinds == {None, "unipotent member up to scalar",
                     "semisimple member", "semisimple member (non-split)"}


def test_a_membership_matches_the_reference_on_small_matrices():
    # random matrices over F_7, conjugates of diag(a, a, b, b), a diagonal
    # matrix and two companion blocks of the irreducible x^2 - 3x + 1
    rnd = random.Random(1)

    def rand(n):
        return tuple(tuple(rnd.randrange(7) for _ in range(n))
                     for _ in range(n))

    mats = [rand(n) for n in (2, 3, 4) for _ in range(20)]
    for _ in range(20):
        a, b = rnd.randrange(7), rnd.randrange(7)
        mats.append(_conjugate(F7, rnd, tuple(
            tuple((a if i < 2 else b) * (i == j) for j in range(4))
            for i in range(4))))
    mats += [((1, 0, 0), (0, 2, 0), (0, 0, 1)),
             ((0, 6, 0, 0), (1, 3, 0, 0), (0, 0, 0, 6), (0, 0, 1, 3))]
    members = 0
    for X in mats:
        for m in range(1, len(X) // 2 + 1):
            members += bool(_assert_matches_the_reference(
                AFamily(len(X) - 1, m), F7, X))
    assert members >= 20


@pytest.mark.parametrize("q", [4, 8])
def test_every_claimed_a_point_in_characteristic_2_is_a_member(q):
    field = gf(q)
    for n, m in ((2, 1), (3, 1), (3, 2)):
        fam = AFamily(n, m)
        for comp in fam.components():
            for a in field.units():
                for b in field.units():
                    X = comp.point(field, (a, b))
                    assert fam.membership(field, X).member, (n, m, a, b)


@pytest.mark.parametrize("q", [3, 4, 9])
def test_a_ambient_points_are_not_members(q):
    # for n + 1 = 2m the chart point does not read b, so a signed copy of
    # (a_1, zeta_1) is on a claimed component whatever b was drawn
    field, rng = gf(q), random.Random(q)
    for n in (3, 4, 5):
        for m in range(1, (n + 1) // 2 + 1):
            fam = AFamily(n, m)
            for _ in range(100):
                X = fam.ambient(field, rng)
                assert X is None or not fam.membership(field, X).member


def test_e6_family_tuples():
    fam = family_for("E", 6, "S")
    s = F.of(12)
    a, d = F.mul(s, s), F.mul(s, F.mul(s, s))
    for comp in fam.components():
        pt = comp.point(F, (a, d))
        assert fam.membership(F, pt).member
    with pytest.raises(ValueError):
        fam.components()[0].point(F, (a, F.add(d, F.one)))
    pt = fam.components()[0].point(F, (a, d))
    bad = ETuplePoint(pt.torus, (pt.unipotent[0], F.add(pt.unipotent[1], F.one)))
    assert not fam.membership(F, bad).member


def test_e7_family_tuples():
    fam = family_for("E", 7, "S")
    assert len(fam.components()) == 8
    mu = F.of(30)
    seen = set()
    for comp in fam.components():
        pt = comp.point(F, mu)
        assert fam.membership(F, pt).member
        seen.add(pt.torus + pt.unipotent)
    assert len(seen) == 8  # components disjoint at a fixed coordinate
    pt = fam.components()[0].point(F, mu)
    bad = ETuplePoint(pt.torus,
                      (pt.unipotent[0], pt.unipotent[1], F.add(pt.unipotent[2],
                                                               F.one)))
    assert not fam.membership(F, bad).member


B_S_RANKS = (2, 3, 4, 5)


def _q_blocks(fam, field, X):
    """Q and qinv = (Q^T)^-1 read off a B S point: its blocks E Q and E Q^-T."""
    n = fam.n
    e = [X[1 + n + i][1 + i] for i in range(n)]  # Q is unitriangular
    Q = [[field.mul(field.inv(e[i]), X[1 + n + i][1 + j]) for j in range(n)]
         for i in range(n)]
    qinv_t = [[field.mul(field.inv(e[i]), X[1 + i][1 + n + j])
               for j in range(n)] for i in range(n)]
    return Q, tuple(zip(*qinv_t))


@pytest.mark.parametrize("field", [F, QQI], ids=["F1009", "QQI"])
@pytest.mark.parametrize("n", B_S_RANKS)
def test_b_s_component_q_is_inverse_of_qinv(field, n):
    fam = family_for("B", n, "S")
    eye = identity(field, n)
    for comp in fam.components():
        # Q does not depend on the coordinate; a = 0 keeps Q(i) points cheap
        Q, qinv = _q_blocks(fam, field, comp.point(field, field.zero))
        assert mat_mul(field, Q, qinv) == eye


def _b_s_points(fam, rng):
    """Claimed points, ambient points, and conjugates g D g^-1 of torus
    elements D = diag(1, t, t^-1) with t in {1, l}^n, on which
    (X - 1)(X^2 - mu X + 1) = 0 holds with every multiplicity of 1."""
    comps = fam.components()
    if len(comps) > 32:
        comps = rng.sample(comps, 32)
    a8 = F.sqrt(F.of(8 * fam.sign))
    coords = [F.zero, F.one, F.of(2), F.of(-2)] + ([a8] if a8 else [])
    points = [c.point(F, a) for c in comps for a in coords]
    points += [fam.ambient(F, rng) for _ in range(8)]
    n, lam = fam.n, F.of(5)
    for k in range(n + 1):
        t = [lam] * k + [F.one] * (n - k)
        D = [[F.zero] * (2 * n + 1) for _ in range(2 * n + 1)]
        D[0][0] = F.one
        for i in range(n):
            D[1 + i][1 + i], D[1 + n + i][1 + n + i] = t[i], F.inv(t[i])
        g = fam.ambient(F, rng)
        points.append(mat_mul(F, mat_mul(F, g, D), inverse(F, g)))
    return points


@pytest.mark.parametrize("n", B_S_RANKS)
def test_b_s_kernel_of_x_minus_1_is_image_of_quadratic(n):
    fam = family_for("B", n, "S")
    N = 2 * n + 1
    checked = 0
    for X in _b_s_points(fam, random.Random(n)):
        mu = cubic_mu_by_products(F, X)
        if mu is None or mu == F.of(2):
            continue
        quad = poly_eval_matrix(F, (F.one, F.neg(mu), F.one), X)
        assert rank(F, scalar_shift(F, X, F.one)) == N - rank(F, quad)
        checked += 1
    assert checked > n + 1


def _membership_unipotent_first(fam, field, X):
    """BFamilyS.membership with the unipotent branches first, on
    products and full ranks, and mu from the whole cubic identity, after
    the group test."""
    if not fam.ctx.in_group(field, X):
        return MembershipResult(False, f"X is not in SO_{2 * fam.n + 1}")
    one = field.one
    for lam in (one, field.neg(one)):
        sh = scalar_shift(field, X, lam)
        if rank(field, mat_mul(field, sh, sh)) == 1:
            if lam == field.of(fam.sign):
                t = ("unipotent (3,2^(n-2),1^2) member" if fam.sign == 1
                     else "rho-twisted unipotent member")
            else:
                t = ("unipotent (3,2^(n-1)) member" if lam == one
                     else "rho-twisted unipotent member")
            return MembershipResult(True, f"rk((X-{lam})^2)=1", t)
    mu = cubic_mu_by_products(field, X)
    if (mu is not None and mu != field.of(2) and mu != field.of(-2)
            and rank(field, scalar_shift(field, X, one)) == 2 * fam.n):
        return MembershipResult(True, "semisimple with eigenvalue trace mu",
                                "semisimple O_lambda member")
    return MembershipResult(False, "no sheet membership condition holds")


@pytest.mark.parametrize("n", B_S_RANKS)
def test_b_s_membership_order_keeps_every_result(n):
    fam = family_for("B", n, "S")
    kinds = set()
    for X in _b_s_points(fam, random.Random(10 + n)):
        got = fam.membership(F, X)
        assert got == _membership_unipotent_first(fam, F, X)
        kinds.add((got.member, got.member_type))
    # semisimple and unipotent members and non-members all occur
    assert (False, None) in kinds
    assert (True, "semisimple O_lambda member") in kinds
    assert any(member and "unipotent" in t for member, t in kinds if t)


def test_b_s_component_points_invert_nothing(monkeypatch):
    import weylslice.families as families_module
    import weylslice.linalg as linalg_module

    def forbidden(field, a):
        raise AssertionError("a B S component point called inverse")

    # families no longer imports inverse; the patch there catches a return
    monkeypatch.setattr(families_module, "inverse", forbidden, raising=False)
    monkeypatch.setattr(linalg_module, "inverse", forbidden)
    for n in B_S_RANKS:
        fam = family_for("B", n, "S")
        for comp in fam.components()[:4]:
            assert fam.membership(F, comp.point(F, F.of(7))).member


def _b_s_point_kinds(fam, field, rng, n_comps):
    """On-locus points at the special coordinates, ambient points, their
    negatives, one-entry perturbations of both, and uniform matrices."""
    N = 2 * fam.n + 1
    a8 = field.sqrt(field.of(8 * fam.sign))
    coords = [field.zero, field.one, field.of(2), field.of(3)]
    coords += [a8] if a8 is not None else []
    base = []
    for comp in rng.sample(fam.components(), n_comps):
        for a in coords:
            try:
                base.append(comp.point(field, a))
            except ExtensionRequired:  # no square root of -1 over F_3
                break
    base += [fam.ambient(field, rng) for _ in range(n_comps)]
    points = list(base)
    points += [tuple(tuple(field.neg(x) for x in row) for row in X)
               for X in base]
    for X in base:
        m = [list(row) for row in X]
        i, j = rng.randrange(N), rng.randrange(N)
        m[i][j] = field.add(m[i][j], field.one)
        points.append(tuple(map(tuple, m)))
    points += [tuple(tuple(field.of(rng.randrange(field.order))
                           for _ in range(N)) for _ in range(N))
               for _ in range(n_comps)]
    return points


@pytest.mark.parametrize("q", [1009, 13, 5, 3])
def test_b_s_membership_matches_the_reference_over_small_fields(q):
    field = gf(q)
    rng = random.Random(q)
    kinds = set()
    for n in (2, 3, 4):
        fam = family_for("B", n, "S")
        for X in _b_s_point_kinds(fam, field, rng, 6 if n < 4 else 3):
            got = fam.membership(field, X)
            assert got == _membership_unipotent_first(fam, field, X), (n, X)
            if fam.ctx.in_group(field, X):
                kinds.add(got.member_type)
    # semisimple and unipotent members and non-members all occur in the group
    assert {None, "semisimple O_lambda member"} <= kinds
    assert any(t and "unipotent" in t for t in kinds)


def test_b_s_rank_one_quadratic_off_the_cubic_is_rejected():
    # X = diag(l, 1/l, ..., l, 1/l, c) with c != 1: mu = l + 1/l from entry
    # (0, 0) leaves X^2 - mu X + 1 of rank 1, yet (X - 1)(X^2 - mu X + 1)
    # is nonzero.  X is off SO_{2n+1}, and the group test rejects it.  In
    # the group, rank one already forces the cubic: X fixes some v != 0, so
    # (Y - mu)v = (2 - mu)v spans im(Y - mu), which X then fixes; the
    # `_fixes_a_column` check stays
    for q, lam, c in ((1009, 5, 7), (13, 2, 3)):
        field = gf(q)
        for n in (2, 3):
            fam = family_for("B", n, "S")
            diag = [field.of(lam), field.inv(field.of(lam))] * n + [field.of(c)]
            X = tuple(tuple(x if i == j else field.zero for j in range(2 * n + 1))
                      for i, x in enumerate(diag))
            mu = field.add(diag[0], diag[1])
            quad = poly_eval_matrix(field, (field.one, field.neg(mu), field.one), X)
            assert rank(field, quad) == 1
            assert not fam.ctx.in_group(field, X)
            got = fam.membership(field, X)
            assert not got.member
            assert got == _membership_unipotent_first(fam, field, X)


def _count_products(monkeypatch):
    """A list that gains the name of each `PrimeField` product entry point
    called: `mat_mul_derived` for the group test's one product, and
    `mat_mul` (which may go on through `mat_mul_derived`) for any other."""
    from weylslice.fields import PrimeField

    calls = []

    def counting(name):
        product = getattr(PrimeField, name)

        def counted(self, a, b):
            calls.append(name)
            return product(self, a, b)
        return counted

    for name in ("mat_mul", "mat_mul_derived"):
        monkeypatch.setattr(PrimeField, name, counting(name))
    return calls


FORM_SHEETS = [("C", 3, "S2"), ("C", 4, "S2"), ("D", 4, "S"),
               ("D", 4, "thetaS"), ("D", 5, "R"), ("D", 5, "thetaR"),
               ("B", 3, "Sprime"), ("C", 3, "S1"), ("C", 3, "-S1"),
               ("D", 4, "Sprime")]


def test_b_s_membership_makes_one_product(monkeypatch):
    # the one product is h X = 1 of the group test, h = J^-1 X^T J
    calls = _count_products(monkeypatch)
    rng = random.Random(3)
    seen = set()
    for n in (2, 3, 4):
        fam = family_for("B", n, "S")
        a8 = F.sqrt(F.of(8 * fam.sign))
        comp = fam.components()[-1]
        points = [comp.point(F, a) for a in (F.of(5), F.zero, a8)]
        points += [fam.ambient(F, rng) for _ in range(2)]
        for X in points:
            calls.clear()
            seen.add(fam.membership(F, X).member_type)
            assert calls == ["mat_mul_derived"]
    assert seen == {"semisimple O_lambda member", None,
                    "unipotent (3,2^(n-2),1^2) member",
                    "unipotent (3,2^(n-1)) member",
                    "rho-twisted unipotent member"}
    # C S2, D S/R and the rank-two flip families likewise
    for t, n, label in FORM_SHEETS:
        fam = family_for(t, n, label)
        points = [comp.point(F, c) for comp in fam.components()
                  for c in fam.sample_coords(F, rng, 4)]
        points += [fam.ambient(F, rng) for _ in range(4)]
        seen = set()
        for X in points:
            if X is None:
                continue
            calls.clear()
            seen.add(fam.membership(F, X).member_type)
            assert calls == ["mat_mul_derived"], (t, n, label)
        assert None in seen and len(seen) > 1, (t, n, label, seen)


FLIP_SHEETS = [("B", 2, "Sprime"), ("B", 3, "Sprime"), ("D", 4, "Sprime"),
               ("C", 3, "S1"), ("C", 3, "-S1")]


@pytest.mark.parametrize("t,n,label", FLIP_SHEETS)
def test_flip_membership_calls_unipotent_exactly_the_nilpotent_x_minus_z(
        t, n, label):
    # the labels against class_type: a member is "unipotent" exactly when
    # its only eigenvalue is the central twist z; on the B and D sheets the
    # coordinates +-2 give (3,1^k) unipotents, X + X^-1 not scalar
    fam = family_for(t, n, label)
    z, rng = F.of(fam.central), random.Random(n)
    partitions = set()
    for comp in fam.components():
        for c in fam.sample_coords(F, rng, 6):
            X = comp.point(F, c)
            got = fam.membership(F, X)
            (p, parts), *rest = class_type(F, X)
            nilpotent = not rest and p == (F.neg(z), F.one)
            assert got.member
            assert ("unipotent" in got.member_type) == nilpotent, (c, parts)
            if nilpotent:
                partitions.add(parts)
    N = fam.ctx.size
    want = (3,) + (1,) * (N - 3) if t != "C" else (2, 2) + (1,) * (N - 4)
    assert want in partitions


def test_flip_points_and_gamma_conjugates_make_no_product(monkeypatch):
    import weylslice.linalg as linalg_module
    import weylslice.sliceverify as sliceverify_module
    from weylslice.sliceverify import (_conjugate_by_diagonal,
                                       gamma_group_elements,
                                       gamma_stability_check,
                                       gamma_transitivity_check)

    fam = family_for("C", 3, "S2")
    x = fam.components()[1].point(F, F.of(7))
    gammas = gamma_group_elements(fam, F)[::9]
    want = [mat_mul(F, mat_mul(F, g, x), inverse(F, g)) for g in gammas]
    calls = _count_products(monkeypatch)
    assert [_conjugate_by_diagonal(F, g, x) for g in gammas] == want
    for t, n, label in FORM_SHEETS[-4:]:
        # a fresh family builds its x-free factor on the first point too
        comp = family_for(t, n, label).components()[0]
        for c in (F.of(5), F.zero):
            comp.point(F, c)
    assert not calls

    def forbidden(field, a):
        raise AssertionError("a Gamma_w check called inverse")

    monkeypatch.setattr(linalg_module, "inverse", forbidden)
    monkeypatch.setattr(sliceverify_module, "inverse", forbidden,
                        raising=False)
    for t, n, label in [("B", 2, "S"), ("C", 3, "S2"), ("D", 4, "S")]:
        d = next(d for d in sheet_catalog(t, n) if d.label == label)
        assert gamma_stability_check(d, samples=4)["passed"]
        assert gamma_transitivity_check(t, n, label)["passed"]


@pytest.mark.parametrize("n", [2, 3])
def test_b_s_rejects_matrices_off_the_group(n):
    # -X has det -1, so it is off SO_{2n+1}; without the group test,
    # rk((-X + 1)^2) = rk((X - 1)^2) = 1 made -X of a unipotent point a
    # (twisted) unipotent member
    fam = family_for("B", n, "S")
    off = MembershipResult(False, f"X is not in SO_{2 * n + 1}")
    rng = random.Random(n)
    for a in (F.zero, F.of(5)):
        X = fam.components()[0].point(F, a)
        assert fam.membership(F, X).member
        minus = tuple(tuple(F.neg(x) for x in row) for row in X)
        assert det(F, minus) == F.neg(F.one)
        assert fam.membership(F, minus) == off
        m = [list(row) for row in X]
        i, j = rng.randrange(2 * n + 1), rng.randrange(2 * n + 1)
        m[i][j] = F.add(m[i][j], F.one)
        assert fam.membership(F, tuple(map(tuple, m))) == off


@pytest.mark.parametrize("q", [1009, 13])
def test_chart_and_component_points_lie_in_the_group(q):
    # membership rejects whatever lies off G, so the off-locus half of a
    # certificate tests the sheet conditions only while the ambient chart
    # points lie in G
    field = gf(q)
    rng = random.Random(q)
    for t, n in ALL_MATRIX_SHEETS + [("A", 3), ("A", 4)]:
        for d in sheet_catalog(t, n):
            fam = build_family(d)
            points = [fam.ambient(field, rng) for _ in range(8)]
            for comp in fam.components():
                for c in fam.sample_coords(field, rng, 2):
                    points.append(comp.point(field, c))
            points = [X for X in points if X is not None]
            assert len(points) > 8, (t, n, d.label)
            for X in points:
                assert fam.ctx.in_group(field, X), (t, n, d.label, X)


@pytest.mark.parametrize("q", [1009, 13])
def test_b_s_and_c_s2_ambient_points_match_the_full_inverse(q, monkeypatch):
    # the chart points build (U^T)^-1 by back substitution; the full
    # Gauss-Jordan inverse gives the same matrices from the same draws
    import weylslice.families as families_module

    field = gf(q)
    fams = [family_for("B", n, "S") for n in (2, 3, 4)]
    fams += [family_for("C", n, "S2") for n in (3, 4)]
    draws = [[fam.ambient(field, random.Random(k)) for k in range(6)]
             for fam in fams]
    monkeypatch.setattr(families_module, "_unitriangular_inverse_t",
                        lambda fld, U: inverse(fld, tuple(zip(*U))))
    assert draws == [[fam.ambient(field, random.Random(k)) for k in range(6)]
                     for fam in fams]


@pytest.mark.parametrize("field", [F, QQI], ids=["F1009", "QQI"])
def test_unitriangular_inverse_transpose(field):
    from weylslice.families import _unitriangular_inverse_t

    rng = random.Random(5)
    for n in range(1, 6):
        U = tuple(tuple(field.one if i == j else (
            field.of(rng.randrange(-20, 20)) if i < j else field.zero)
            for j in range(n)) for i in range(n))
        assert _unitriangular_inverse_t(field, U) == inverse(
            field, tuple(zip(*U)))


CATALOG_RANKS = [("A", 3), ("A", 4), ("A", 5), ("B", 2), ("B", 3), ("B", 4),
                 ("C", 3), ("C", 4), ("D", 4), ("D", 5), ("D", 6), ("D", 7),
                 ("E", 6), ("E", 7)]

# (label, coordinate, arity) of every component, for one sheet per class
PINNED_COMPONENTS = {
    ("A", 3, "S_2"): (AFamily, [
        ("signs=(1, 1)", "(a, b) in k^* x k^*", 2),
        ("signs=(1, -1)", "(a, b) in k^* x k^*", 2),
    ]),
    ("B", 2, "S"): (BFamilyS, [
        ("e=(1, 1) eta=(1, 1)", "a in k (mu = 2(-1)^n - a^2/2)", 1),
        ("e=(1, 1) eta=(1, -1)", "a in k (mu = 2(-1)^n - a^2/2)", 1),
        ("e=(1, -1) eta=(1, 1)", "a in k (mu = 2(-1)^n - a^2/2)", 1),
        ("e=(1, -1) eta=(1, -1)", "a in k (mu = 2(-1)^n - a^2/2)", 1),
        ("e=(-1, 1) eta=(1, 1)", "a in k (mu = 2(-1)^n - a^2/2)", 1),
        ("e=(-1, 1) eta=(1, -1)", "a in k (mu = 2(-1)^n - a^2/2)", 1),
        ("e=(-1, -1) eta=(1, 1)", "a in k (mu = 2(-1)^n - a^2/2)", 1),
        ("e=(-1, -1) eta=(1, -1)", "a in k (mu = 2(-1)^n - a^2/2)", 1),
    ]),
    ("B", 2, "Sprime"): (TwoFlipFamily, [
        ("eps=1 eta=1", "x in k", 1),
        ("eps=1 eta=-1", "x in k", 1),
        ("eps=-1 eta=1", "x in k", 1),
        ("eps=-1 eta=-1", "x in k", 1),
    ]),
    ("C", 3, "S2"): (CFamilyS2, [
        ("e=(1, 1, 1)", "mu = l + 1/l in k", 1),
        ("e=(1, 1, -1)", "mu = l + 1/l in k", 1),
        ("e=(1, -1, 1)", "mu = l + 1/l in k", 1),
        ("e=(1, -1, -1)", "mu = l + 1/l in k", 1),
        ("e=(-1, 1, 1)", "mu = l + 1/l in k", 1),
        ("e=(-1, 1, -1)", "mu = l + 1/l in k", 1),
        ("e=(-1, -1, 1)", "mu = l + 1/l in k", 1),
        ("e=(-1, -1, -1)", "mu = l + 1/l in k", 1),
    ]),
    ("D", 4, "S"): (DFamilyS, [
        ("e=(1, 1)", "mu = l + 1/l in k", 1),
        ("e=(1, -1)", "mu = l + 1/l in k", 1),
        ("e=(-1, 1)", "mu = l + 1/l in k", 1),
        ("e=(-1, -1)", "mu = l + 1/l in k", 1),
    ]),
    ("D", 5, "R"): (DFamilyR, [
        ("e=(1, 1)", "zeta in k^* (mu = zeta + 1/zeta)", 1),
        ("e=(1, -1)", "zeta in k^* (mu = zeta + 1/zeta)", 1),
        ("e=(-1, 1)", "zeta in k^* (mu = zeta + 1/zeta)", 1),
        ("e=(-1, -1)", "zeta in k^* (mu = zeta + 1/zeta)", 1),
    ]),
    ("E", 6, "S"): (E6Family, [
        ("eps=1", "(a, d) with d^2 = a^3, a != 0", 2),
        ("eps=-1", "(a, d) with d^2 = a^3, a != 0", 2),
    ]),
    ("E", 7, "S"): (E7Family, [
        ("(eps,eta,theta)=(1, 1, 1)", "mu = a + 1/a in k", 1),
        ("(eps,eta,theta)=(1, 1, -1)", "mu = a + 1/a in k", 1),
        ("(eps,eta,theta)=(1, -1, 1)", "mu = a + 1/a in k", 1),
        ("(eps,eta,theta)=(1, -1, -1)", "mu = a + 1/a in k", 1),
        ("(eps,eta,theta)=(-1, 1, 1)", "mu = a + 1/a in k", 1),
        ("(eps,eta,theta)=(-1, 1, -1)", "mu = a + 1/a in k", 1),
        ("(eps,eta,theta)=(-1, -1, 1)", "mu = a + 1/a in k", 1),
        ("(eps,eta,theta)=(-1, -1, -1)", "mu = a + 1/a in k", 1),
    ]),
}


def test_family_is_its_descriptor_plus_a_chart(monkeypatch):
    groups = {"A": "GL", "B": "SO-odd", "C": "Sp", "D": "SO-even"}
    calls = []
    catalog = sheetcat.sheet_catalog
    monkeypatch.setattr(sheetcat, "sheet_catalog",
                        lambda *args: calls.append(args) or catalog(*args))
    sheets = [d for t, n in CATALOG_RANKS for d in catalog(t, n)]
    assert len(sheets) == 33
    for d in sheets:
        calls.clear()
        fam = build_family(d)
        # the catalog is read again only by AFamily(n, m), which looks its
        # own descriptor up, and in w_S for a theta twist's partner, at
        # most once per descriptor
        assert len(calls) == (d.group_type == "A")
        assert fam.descriptor is d
        calls.clear()
        w = fam.w
        assert len(calls) <= d.label.startswith("theta")
        calls.clear()
        assert fam.w is w is d.w_S()
        assert not calls
        if fam.is_matrix:
            assert fam.ctx.label == groups[d.group_type]
        key = (d.group_type, d.rank, d.label)
        if key in PINNED_COMPONENTS:
            cls, pinned = PINNED_COMPONENTS[key]
            assert type(fam) is cls
            assert [(c.label, c.coordinate, c.coord_arity)
                    for c in fam.components()] == pinned
    assert {cls for cls, _ in PINNED_COMPONENTS.values()} == {
        type(build_family(d)) for d in sheets}
