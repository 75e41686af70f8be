from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weylslice.fields import QQ
from weylslice.linalg import solve
from weylslice.rootsys import (
    RootSystem,
    bruhat_leq,
    build_root_system,
    closure,
    conjugacy_class,
    dot,
    involution_conjugacy_classes,
    is_bruhat_max_in_class,
    longest_element,
    minus_one_rank,
    orthogonal_subsystem,
    subsystem_highest_root,
    w0_wPi,
)

B2_ROOTS = {
    (1, 0), (0, 1), (-1, 0), (0, -1),
    (1, 1), (1, -1), (-1, 1), (-1, -1),
}


def test_a1_trivial():
    rs = build_root_system("A", 1)
    assert len(rs.roots) == 2
    assert len(rs.positive_roots) == 1


def test_b2_roots_against_explicit_list():
    rs = build_root_system("B", 2)
    got = {tuple(int(x) for x in r) for r in rs.roots}
    assert got == B2_ROOTS
    assert len(rs.positive_roots) == 4


def test_counts_all_types():
    for label, n, count in [("A", 4, 20), ("B", 3, 18), ("C", 4, 32),
                            ("D", 5, 40), ("E", 6, 72), ("E", 7, 126),
                            ("E", 8, 240), ("F", 4, 48), ("G", 2, 12)]:
        assert len(build_root_system(label, n).roots) == count


def test_e6_weyl_order_cross_check():
    rs = build_root_system("E", 6)
    assert rs.weyl_order() == 51840
    assert rs.weyl_order_by_orbit() == 51840


ORBIT_TYPES = ([("A", n) for n in range(1, 7)] + [("B", n) for n in range(2, 6)]
               + [("C", n) for n in range(2, 6)] + [("D", n) for n in range(3, 7)]
               + [("F", 4), ("G", 2)])


@pytest.mark.parametrize("label,n", ORBIT_TYPES)
def test_weyl_order_by_orbit_matches_degrees(label, n):
    # the orbit of rho under the one-coordinate simple reflections.  B, C,
    # F and G have non-symmetric Cartan matrices: a step that read row i
    # of `cartan` instead of column i breaks the root generation of all
    # four, and the orbit alone counts 24 for C3 and 192 for C4
    rs = build_root_system(label, n)
    assert rs.weyl_order_by_orbit() == rs.weyl_order()


def test_invalid_types_rejected():
    for label, n in [("H", 3), ("E", 5), ("F", 3), ("G", 3), ("D", 2)]:
        with pytest.raises(ValueError):
            build_root_system(label, n)


def test_small_group_orders_by_enumeration():
    for label, n in [("A", 2), ("B", 2), ("C", 3), ("D", 4)]:
        rs = build_root_system(label, n)
        assert len(rs.all_elements()) == rs.weyl_order()


def _word_length_bfs(system, w):
    """Independent minimal-word-length oracle by breadth-first search."""
    gens = [system.simple_reflection(i) for i in range(system.rank)]
    frontier = {system.identity_element()}
    seen = set(frontier)
    depth = 0
    while True:
        if w in frontier:
            return depth
        nxt = set()
        for x in frontier:
            for s in gens:
                y = x.mul(s)
                if y not in seen:
                    seen.add(y)
                    nxt.add(y)
        frontier = nxt
        depth += 1


def test_length_equals_minimal_word_length():
    for label, n in [("A", 2), ("B", 2), ("C", 3)]:
        rs = build_root_system(label, n)
        for w in rs.all_elements():
            assert w.length() == _word_length_bfs(rs, w)
            word = w.reduced_word()
            assert len(word) == w.length()
            rebuilt = rs.identity_element()
            for i in word:
                rebuilt = rebuilt.mul(rs.simple_reflection(i))
            assert rebuilt == w


def test_length_examples():
    b2 = build_root_system("B", 2)
    assert b2.identity_element().length() == 0
    assert longest_element(b2, range(2)).length() == 4
    c2 = build_root_system("C", 2)
    assert c2.reflection(c2.highest_root()).length() == 3


def test_longest_element_parabolic():
    e6 = build_root_system("E", 6)
    assert longest_element(e6, ()).is_identity()
    a2 = build_root_system("A", 2)
    assert longest_element(a2, range(2)).length() == 3
    # Pi = {a3, a4, a5} spans an A3 inside E6: 6 positive roots
    assert longest_element(e6, (2, 3, 4)).length() == 6


def test_w0_wPi_examples_and_rejection():
    bn = build_root_system("B", 3)
    w = w0_wPi(bn, ())
    assert w == longest_element(bn, range(3))
    # C_n: Pi = {a3..an} gives s_{a1} s_{e1+e2} (the eps_1,eps_2 double flip)
    cn = build_root_system("C", 3)
    w = w0_wPi(cn, (2,))
    short_high = tuple(map(Fraction, (1, 1, 0)))
    expected = cn.simple_reflection(0).mul(cn.reflection(short_high))
    assert w == expected
    # E6: Pi = {a3,a4,a5} gives s_beta s_gamma
    e6 = build_root_system("E", 6)
    w = w0_wPi(e6, (2, 3, 4))
    beta = e6.highest_root()
    gamma = subsystem_highest_root(e6, orthogonal_subsystem(e6, beta))
    assert w == e6.reflection(beta).mul(e6.reflection(gamma))
    # an asymmetric subset is rejected in a type where w0 != -1
    a3 = build_root_system("A", 3)
    with pytest.raises(ValueError):
        w0_wPi(a3, (0,))


def test_minus_one_rank():
    b2 = build_root_system("B", 2)
    assert minus_one_rank(b2.identity_element()) == 0
    assert minus_one_rank(longest_element(b2, range(2))) == 2
    assert minus_one_rank(b2.reflection(b2.highest_root())) == 1


def _all_reduced_words(system, w):
    if w.is_identity():
        return [()]
    out = []
    for i in range(system.rank):
        if w.sends_simple_negative(i):
            for tail in _all_reduced_words(
                    system, w.mul(system.simple_reflection(i))):
                out.append(tail + (i,))
    return out


def _subword_oracle(system, u, v):
    """u <= v iff some reduced word of v has a subword equal to u."""
    from itertools import combinations

    u_len = u.length()
    for word in _all_reduced_words(system, v):
        for positions in combinations(range(len(word)), u_len):
            prod = system.identity_element()
            for p in positions:
                prod = prod.mul(system.simple_reflection(word[p]))
            if prod == u:
                return True
    return False


def test_bruhat_leq_matches_subword_enumeration():
    for label in ("A", "B"):
        rs = build_root_system(label, 2)
        elements = rs.all_elements()
        for u in elements:
            for v in elements:
                assert bruhat_leq(u, v) == _subword_oracle(rs, u, v), (
                    label, u.reduced_word(), v.reduced_word())


def test_bruhat_order_examples():
    a2 = build_root_system("A", 2)
    s1, s2 = a2.simple_reflection(0), a2.simple_reflection(1)
    w0 = longest_element(a2, range(2))
    for w in a2.all_elements():
        assert bruhat_leq(a2.identity_element(), w)
        assert bruhat_leq(w0, w) == (w == w0)
    assert bruhat_leq(s1, s1.mul(s2))
    assert not bruhat_leq(s1.mul(s2), s2.mul(s1))
    assert not bruhat_leq(s2.mul(s1), s1.mul(s2))


def test_bruhat_refines_length():
    b2 = build_root_system("B", 2)
    for u in b2.all_elements():
        for v in b2.all_elements():
            if bruhat_leq(u, v) and u != v:
                assert u.length() < v.length()


def test_bruhat_max_in_class():
    b2 = build_root_system("B", 2)
    w0 = longest_element(b2, range(2))
    assert is_bruhat_max_in_class(w0)
    assert is_bruhat_max_in_class(b2.reflection(b2.highest_root()))
    assert not is_bruhat_max_in_class(b2.simple_reflection(0))
    with pytest.raises(ValueError):
        s1, s2 = b2.simple_reflection(0), b2.simple_reflection(1)
        is_bruhat_max_in_class(s1.mul(s2))


def test_conjugacy_class_belongs_to_its_own_system():
    # two instances of B3 are two Weyl groups: the class of the second w0
    # lists elements of the second, which it is Bruhat-maximal among
    first, second = RootSystem("B", 3), RootSystem("B", 3)
    for rs in (first, second):
        w0 = longest_element(rs, range(3))
        cls = conjugacy_class(w0)
        assert cls == (w0,) and all(x.system is rs for x in cls)
        assert is_bruhat_max_in_class(w0)


def test_parabolic_length_identities():
    # l(w0 wPi) = l(w0) - l(wPi) for every subset, small ranks exhaustively
    for label, n in [("A", 3), ("B", 3), ("D", 4)]:
        rs = build_root_system(label, n)
        w0 = longest_element(rs, range(n))
        from itertools import combinations

        for k in range(n + 1):
            for pi in combinations(range(n), k):
                wpi = longest_element(rs, pi)
                assert w0.mul(wpi).length() == w0.length() - wpi.length()


def test_catalog_length_additivity():
    # l(w0 wPi sigma) = l(w0 wPi) + l(sigma) for sigma in W_Pi, B3 exhaustive
    rs = build_root_system("B", 3)
    pi = (2,)
    w0 = longest_element(rs, range(3))
    w = w0.mul(longest_element(rs, pi))
    # enumerate W_Pi
    frontier = {rs.identity_element()}
    seen = set(frontier)
    while frontier:
        nxt = set()
        for x in frontier:
            for i in pi:
                y = x.mul(rs.simple_reflection(i))
                if y not in seen:
                    seen.add(y)
                    nxt.add(y)
        frontier = nxt
    for sigma in seen:
        assert w.mul(sigma).length() == w.length() + sigma.length()


def test_length_subadditive_property():
    b2 = build_root_system("B", 2)
    els = b2.all_elements()
    for u in els:
        for v in els:
            assert u.mul(v).length() <= u.length() + v.length()


def test_closure_breadth_first():
    def step(x):
        return [(x + 1) % 5, 2 * x % 5]

    assert closure([0], step) == [0, 1, 2, 3, 4]
    # seeds first, repeats dropped, then level by level
    assert closure([3, 0, 3], step) == [3, 0, 4, 1, 2]


def _frac_reflect(v, root):
    """v - 2(v, root)/(root, root) root on Fraction coordinates."""
    k = 2 * dot(v, root) / dot(root, root)
    return tuple(x - k * y for x, y in zip(v, root))


def _simple_reflection_matrix(rs, i):
    """s_i on the simple-root basis: s_i(a_j) = a_j - <a_j, a_i^vee> a_i."""
    n = rs.rank
    m = [[int(a == b) for b in range(n)] for a in range(n)]
    for j in range(n):
        m[i][j] -= rs.cartan[j][i]
    return m


def _int_mat_mul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)]
            for row in a]


@pytest.mark.parametrize("label,n", [("A", 3), ("B", 3), ("C", 3), ("D", 4),
                                     ("G", 2)])
def test_root_permutations_match_reflections(label, n):
    rs = build_root_system(label, n)
    simple_mats = [_simple_reflection_matrix(rs, i) for i in range(n)]
    # A3 and G2 live in a larger space: v has a component off the root span
    v = tuple(Fraction(k + 1, k + 2) for k in range(rs.dim))
    units = [tuple(Fraction(int(j == i)) for j in range(rs.dim))
             for i in range(rs.dim)]
    for w in rs.all_elements():
        word = w.reduced_word()

        def reflected(x):
            for i in reversed(word):
                x = _frac_reflect(x, rs.simple_roots[i])
            return x

        for r in rs.roots:
            assert w.apply_root(r) == reflected(r)
        assert w.apply_vector(v) == reflected(v)
        images = [reflected(e) for e in units]
        signed = [[(j, int(x)) for j, x in enumerate(img) if x]
                  for img in images]
        if all(len(nz) == 1 and abs(nz[0][1]) == 1 for nz in signed):
            assert w.signed_permutation() == tuple(nz[0] for nz in signed)
        else:
            assert label == "G"
            with pytest.raises(ValueError):
                w.signed_permutation()
        m = [[int(a == b) for b in range(n)] for a in range(n)]
        for i in word:
            m = _int_mat_mul(m, simple_mats[i])
        assert w.matrix == tuple(tuple(row) for row in m)
        assert w.is_involution() == w.mul(w).is_identity()
        assert w.fixed_simples() == tuple(
            i for i, a in enumerate(rs.simple_roots) if w.apply_root(a) == a)
    with pytest.raises(ValueError):
        rs.element(lambda r: tuple(2 * x for x in r))


@pytest.mark.parametrize("label,n", [("A", 3), ("B", 3), ("C", 3), ("D", 4),
                                     ("F", 4), ("G", 2)])
def test_reflections_and_pairings_match_fraction_formulas(label, n):
    rs = build_root_system(label, n)
    for b in rs.roots:
        assert rs.reflection(b).perm == tuple(
            rs.index[_frac_reflect(r, b)] for r in rs.roots)
        for a in rs.roots:
            assert rs.pair(a, b) == 2 * dot(a, b) / dot(b, b)
    with pytest.raises(ValueError):
        rs.reflection(tuple(2 * x for x in rs.simple_roots[0]))


@pytest.mark.parametrize("label,n", [("A", 3), ("B", 3), ("C", 3), ("D", 4),
                                     ("E", 8), ("F", 4), ("G", 2)])
def test_coefficients_sum_to_roots(label, n):
    rs = build_root_system(label, n)
    for r in rs.roots:
        total = tuple(Fraction(0) for _ in range(rs.dim))
        for c, a in zip(rs.coefficients(r), rs.simple_roots):
            total = tuple(x + c * y for x, y in zip(total, a))
        assert total == r


def _gram_solve_highest_root(rs, roots):
    """The subsystem root of largest height measured in the subsystem's own
    simple roots, each height from one Gram solve."""
    positive = [r for r in roots if rs.is_positive_root(r)]
    simples = [rs.roots[k]
               for k in rs.indecomposables(rs.index[r] for r in positive)]
    gram = [[dot(a, b) for b in simples] for a in simples]
    return max(positive, key=lambda r: sum(
        solve(QQ, gram, [dot(r, a) for a in simples])))


@pytest.mark.parametrize("label,n,sub_roots", [("E", 6, 30), ("E", 7, 60),
                                               ("E", 8, 126), ("F", 4, 18)])
def test_subsystem_highest_root_matches_gram_solve(label, n, sub_roots):
    # the roots orthogonal to the highest root: A5, D6, E7 and C3
    rs = build_root_system(label, n)
    perp = orthogonal_subsystem(rs, rs.highest_root())
    assert len(perp) == sub_roots
    assert subsystem_highest_root(rs, perp) == _gram_solve_highest_root(rs, perp)
    assert subsystem_highest_root(rs, rs.roots) == rs.highest_root()


ALL_TYPES = [("A", 1), ("A", 3), ("B", 3), ("C", 3), ("D", 4), ("G", 2),
             ("F", 4), ("E", 6), ("E", 7), ("E", 8)]


@pytest.mark.parametrize("label,n", ALL_TYPES)
def test_roots_answer_as_the_equal_plain_tuple(label, n):
    # a root of `roots` and the plain tuple of new, equal Fractions are
    # the same key everywhere; E6, E7, E8 and F4 have half-integer
    # coordinates
    import json

    rs = build_root_system(label, n)
    plains = [tuple(Fraction(x.numerator, x.denominator) for x in r)
              for r in rs.roots]
    assert all(type(p) is tuple for p in plains)
    assert all(a is rs.roots[rs.index[a]] for a in rs.simple_roots)
    assert all(a is rs.roots[rs.index[a]] for a in rs.positive_roots)
    refl = [rs.simple_reflection(i) for i in range(n)]
    for k, (r, p) in enumerate(zip(rs.roots, plains)):
        assert type(r) is not tuple and isinstance(r, tuple)
        assert r == p and p == r and not r != p
        assert hash(r) == hash(p)
        assert repr(r) == repr(p) and str(r) == str(p)
        assert json.dumps(r, default=str) == json.dumps(p, default=str)
        assert rs.index[r] == rs.index[p] == k
        assert rs.coefficients(r) == rs.coefficients(p)
        assert rs.is_positive_root(r) == rs.is_positive_root(p)
        assert rs.reflection(r) == rs.reflection(p)
        for w in refl:
            assert w.apply_root(p) is w.apply_root(r)
        for a in rs.simple_roots:
            assert rs.pair(r, a) == rs.pair(p, a)
            assert rs.pair(a, r) == rs.pair(a, p)
    # order, and with it the iteration order of sets and dicts
    assert sorted(rs.roots) == sorted(plains)
    assert [rs.index[x] for x in set(rs.roots)] == [
        rs.index[x] for x in set(plains)]
    assert [a < b for a in rs.roots[:9] for b in rs.roots] == [
        a < b for a in plains[:9] for b in plains]
