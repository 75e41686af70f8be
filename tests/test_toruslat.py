from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import group_order_statistics, torsion_brute_force
from weylslice.fields import QQ
from weylslice.linalg import solve
from weylslice.rootsys import (build_root_system, dot,
                               involution_conjugacy_classes, longest_element,
                               w0_wPi)
from weylslice.sheetcat import sheet_catalog
from weylslice.toruslat import (
    FiniteAbelianGroupShape,
    TorusData,
    fixed_part,
    gamma_w,
    integer_kernel_basis,
    s_w_group,
    smith_normal_form,
    smith_with_transforms,
)


def _solve_in_basis(basis, target) -> list[int]:
    """Integer coordinates of `target` in `basis`, by the Gram system over Q:
    the reference for the closed-form lattice actions."""
    coords = solve(QQ, [[dot(a, b) for b in basis] for a in basis],
                   [dot(target, a) for a in basis])
    assert all(x.denominator == 1 for x in coords), "not in the lattice"
    return [int(x) for x in coords]


def _int_det(m):
    """Integer determinant by cofactor expansion along the first row."""
    if not m:
        return 1
    return sum((-1) ** j * x * _int_det([row[:j] + row[j + 1:]
                                         for row in m[1:]])
               for j, x in enumerate(m[0]) if x)


def test_smith_normal_form_known():
    assert smith_normal_form([[12, 6, 4], [3, 9, 6], [2, 16, 14]]) == [1, 10, 30]
    assert smith_normal_form([[2, 0], [0, 2]]) == [2, 2]
    assert smith_normal_form([[2], [0]]) == [2]
    assert smith_normal_form([[0, 0], [0, 0]]) == [0, 0]
    assert smith_normal_form([[6, 0], [0, 4]]) == [2, 12]


@given(st.integers(1, 4).flatmap(lambda c: st.lists(
    st.lists(st.integers(-9, 9), min_size=c, max_size=c),
    min_size=1, max_size=4)))
@settings(max_examples=80, deadline=None)
def test_smith_normal_form_matches_determinantal_divisors(rows):
    # d_1 ... d_k is the gcd of the k x k minors, and the zeros number
    # min(r, c) - rank, rank the largest k with a nonzero k x k minor
    r, c = len(rows), len(rows[0])
    divs = smith_normal_form(rows)
    assert len(divs) == min(r, c)
    rank, prod = 0, 1
    for k in range(1, min(r, c) + 1):
        g = 0
        for ri in combinations(range(r), k):
            for ci in combinations(range(c), k):
                g = gcd(g, _int_det([[rows[i][j] for j in ci] for i in ri]))
        if g == 0:
            break
        rank, prod = k, prod * divs[k - 1]
        assert prod == g
    assert divs[rank:] == [0] * (min(r, c) - rank)


@given(st.lists(st.lists(st.integers(-6, 6), min_size=3, max_size=3),
                min_size=2, max_size=4))
@settings(max_examples=60, deadline=None)
def test_smith_transforms_diagonalize(rows):
    d, u, v = smith_with_transforms(rows)
    m, n = len(rows), len(rows[0])
    # U A V = D
    prod = [[sum(u[i][k] * rows[k][j] for k in range(m)) for j in range(n)]
            for i in range(m)]
    prod = [[sum(prod[i][k] * v[k][j] for k in range(n)) for j in range(n)]
            for i in range(m)]
    assert prod == d
    for i in range(m):
        for j in range(n):
            if i != j:
                assert d[i][j] == 0
    # U and V unimodular
    def idet(mm):
        from weylslice.linalg import det

        return det(QQ, tuple(tuple(map(Fraction, r)) for r in mm))

    assert abs(idet(u)) == 1
    assert abs(idet(v)) == 1


def test_integer_kernel_basis():
    k = integer_kernel_basis([[1, 1, 0], [0, 0, 0]])
    assert len(k) == 2
    for v in k:
        assert v[0] + v[1] == 0


def test_shape_validation():
    with pytest.raises(ValueError):
        FiniteAbelianGroupShape((1, 2))
    with pytest.raises(ValueError):
        FiniteAbelianGroupShape((4, 2))
    s = FiniteAbelianGroupShape((2, 4))
    assert s.order == 8
    assert str(s) == "Z/2 x Z/4"


def test_sl2_fixed_and_gamma():
    a1 = build_root_system("A", 1)
    s1 = a1.simple_reflection(0)
    t = TorusData(a1, s1, "sc")
    rank_fixed, comp = fixed_part(t)
    assert rank_fixed == 0 and comp.divisors == (2,)  # T^w = {+-1}
    assert s_w_group(t).divisors == (2,)
    shape, gens = gamma_w(t)
    assert shape.divisors == (4,)  # cyclic of order 4 = mu_4
    assert len(gens) == 1 and gens[0].order == 4


def test_identity_and_minus_one():
    a1 = build_root_system("A", 1)
    tid = TorusData(a1, a1.identity_element(), "sc")
    rank_fixed, comp = fixed_part(tid)
    assert rank_fixed == 1 and comp.divisors == ()
    assert s_w_group(tid).divisors == (2,)  # the 2-torsion of T, per definition
    assert gamma_w(tid)[0].divisors == ()
    c2 = build_root_system("C", 2)
    w0 = longest_element(c2, range(2))
    tm = TorusData(c2, w0, "sc")  # Sp4 torus
    rank_fixed, comp = fixed_part(tm)
    assert rank_fixed == 0 and comp.divisors == (2, 2)
    assert s_w_group(tm).divisors == (2, 2)
    assert gamma_w(tm)[0].divisors == (4, 4)


def test_rank_sum_invariant():
    # rank ker(1-w) + rank ker(1+w) = lattice rank, for involutions
    for label, n in [("A", 3), ("B", 3), ("C", 3), ("D", 4)]:
        rs = build_root_system(label, n)
        for cls in involution_conjugacy_classes(rs):
            w = cls[0]
            for iso in ("sc", "ad"):
                t = TorusData(rs, w, iso)
                fixed_rank, _ = fixed_part(t)
                one_plus = [[int(i == j) + x for j, x in enumerate(row)]
                            for i, row in enumerate(t.action)]
                anti_rank = smith_normal_form(one_plus).count(0)
                assert fixed_rank + anti_rank == t.n


def test_char2_guard():
    a1 = build_root_system("A", 1)
    t = TorusData(a1, a1.simple_reflection(0), "sc")
    with pytest.raises(ValueError):
        gamma_w(t, characteristic=2)


def test_gamma_matches_brute_force_catalog():
    """gamma_w against independent torsion enumeration, all small catalogs."""
    for label, rank in [("A", 3), ("B", 2), ("B", 3), ("B", 4),
                        ("C", 3), ("C", 4), ("D", 4)]:
        for d in sheet_catalog(label, rank):
            w = d.w_S()
            for iso in ("sc", "ad", "matrix"):
                t = TorusData(d.weyl_system(), w, iso)
                shape, gens = gamma_w(t)
                points = torsion_brute_force(t)
                order, two_torsion = group_order_statistics(points)
                assert order == shape.order, (label, rank, d.label, iso)
                r = len(shape.divisors)
                assert two_torsion == 2 ** r
                assert len(gens) == r


def test_isogeny_consistency():
    # the adjoint shape is a quotient shape of the simply connected one
    for label, rank in [("B", 3), ("C", 3), ("D", 4)]:
        for d in sheet_catalog(label, rank):
            w = d.w_S()
            sc_shape, _ = gamma_w(TorusData(d.weyl_system(), w, "sc"))
            ad_shape, _ = gamma_w(TorusData(d.weyl_system(), w, "ad"))
            assert len(ad_shape.divisors) == len(sc_shape.divisors)
            assert all(a <= b for a, b in
                       zip(ad_shape.divisors, sc_shape.divisors))


def test_gamma_contains_via_counts():
    # |Gamma_w| = 2^r * |S_w n (T_w)deg| with the quotient elementary abelian
    b3 = build_root_system("B", 3)
    w = w0_wPi(b3, (2,))
    t = TorusData(b3, w, "matrix")
    shape, gens = gamma_w(t)
    r = len(gens)
    assert shape.order == 2**r * 2**r


def _involutions(system):
    """Every involution, or for E6 and E7 the catalog w_S and w0."""
    if system.label == "E":
        return [d.w_S() for d in sheet_catalog("E", system.rank)] + [
            longest_element(system, range(system.rank))]
    return [w for cls in involution_conjugacy_classes(system) for w in cls]


@pytest.mark.parametrize("label,rank", [("A", 3), ("B", 3), ("C", 3), ("D", 4),
                                        ("G", 2), ("B", 2), ("C", 2), ("F", 4),
                                        ("E", 6), ("E", 7)])
def test_action_matrix_matches_per_vector_solve(label, rank):
    system = build_root_system(label, rank)
    for w in _involutions(system):
        for iso in TorusData.ISOGENIES:
            if iso == "matrix" and label in "EFG":
                continue
            torus = TorusData(system, w, iso)
            cols = [_solve_in_basis(torus.basis, w.apply_vector(b))
                    for b in torus.basis]
            assert torus.action == [list(r) for r in zip(*cols)]


@pytest.mark.parametrize("label,rank", [("A", 3), ("B", 3)])
def test_non_involutions_rejected(label, rank):
    system = build_root_system(label, rank)
    others = [w for w in system.all_elements() if not w.is_involution()]
    assert others
    for w in others:
        for iso in TorusData.ISOGENIES:
            with pytest.raises(ValueError, match="lattice involution"):
                TorusData(system, w, iso)
