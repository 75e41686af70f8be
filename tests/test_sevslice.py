import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weylslice.rootsys import (
    build_root_system,
    involution_conjugacy_classes,
    longest_element,
)
from weylslice.sevslice import (
    DegenerateBasisError,
    EigenBasisChoice,
    PositiveSystem,
    check_max_length,
    fixed_roots,
    minus_one_eigenbasis,
    positive_system,
    standard_system,
)


def _vec(*entries):
    return tuple(Fraction(x) for x in entries)


def test_a1_reflection():
    a1 = build_root_system("A", 1)
    w = a1.simple_reflection(0)
    coroot = tuple(2 * x / 2 for x in a1.simple_roots[0])
    ps = positive_system(EigenBasisChoice(w, (a1.simple_roots[0],)))
    assert ps.positive == frozenset({a1.simple_roots[0]})


def test_b2_w0_maximal_i_rule():
    b2 = build_root_system("B", 2)
    w0 = longest_element(b2, range(2))
    ps = positive_system(EigenBasisChoice(w0, (_vec(1, 0), _vec(0, 1))))
    got = {tuple(int(x) for x in r) for r in ps.positive}
    assert got == {(1, 0), (0, 1), (1, 1), (-1, 1)}
    assert ps.length_of(w0) == 4
    assert check_max_length(w0, ps)


def test_b2_highest_root_reflection():
    b2 = build_root_system("B", 2)
    beta = _vec(1, 1)
    w = b2.reflection(beta)
    assert {tuple(map(int, r)) for r in fixed_roots(w)} == {(1, -1), (-1, 1)}
    choice = EigenBasisChoice(w, (beta,), frozenset({_vec(1, -1)}))
    ps = positive_system(choice)
    assert ps.length_of(w) == 3
    assert check_max_length(w, ps)


def test_standard_system_not_maximal_for_simple_reflection():
    a2 = build_root_system("A", 2)
    assert not check_max_length(a2.simple_reflection(0), standard_system(a2))
    # the long reflection in its class is maximal
    theta = a2.highest_root()
    assert check_max_length(a2.reflection(theta), standard_system(a2))


def test_degenerate_basis_rejected_with_root_named():
    b2 = build_root_system("B", 2)
    w0 = longest_element(b2, range(2))
    with pytest.raises(DegenerateBasisError) as err:
        positive_system(EigenBasisChoice(w0, (_vec(1, 0),)))
    assert err.value.root is not None


def test_bad_eigenvectors_rejected():
    b2 = build_root_system("B", 2)
    w0 = longest_element(b2, range(2))
    with pytest.raises(ValueError):
        EigenBasisChoice(b2.simple_reflection(0), (_vec(1, 0),))
    with pytest.raises(ValueError):
        EigenBasisChoice(w0, (_vec(1, 0), _vec(2, 0)))
    s1s2 = b2.simple_reflection(0).mul(b2.simple_reflection(1))
    with pytest.raises(ValueError):
        EigenBasisChoice(s1s2, ())


def test_psi_choice_must_cover_psi():
    b2 = build_root_system("B", 2)
    w = b2.reflection(_vec(1, 1))
    with pytest.raises(ValueError):
        positive_system(EigenBasisChoice(w, (_vec(1, 1),),
                                         frozenset({_vec(1, 0)})))


def test_rescaling_invariance():
    b3 = build_root_system("B", 3)
    w0 = longest_element(b3, range(3))
    base = minus_one_eigenbasis(w0)
    ps1 = positive_system(EigenBasisChoice(w0, base))
    scaled = tuple(tuple(Fraction(3, 2) * x for x in v) for v in base)
    ps2 = positive_system(EigenBasisChoice(w0, scaled))
    assert ps1.positive == ps2.positive


def test_unfixed_positives_are_inverted():
    # Phi+ \ Psi = {a > 0 : w(a) < 0} for every involution class of B3
    rng = random.Random(1)
    b3 = build_root_system("B", 3)
    for cls in involution_conjugacy_classes(b3):
        w = cls[0]
        base = minus_one_eigenbasis(w)
        for _ in range(5):
            vecs = _random_recombination(rng, base, b3.dim)
            ps = positive_system(EigenBasisChoice(w, vecs))
            psi = set(fixed_roots(w))
            unfixed = set(ps.positive) - psi
            inverted = {r for r in ps.positive
                        if w.apply_root(r) not in ps.positive}
            assert unfixed == inverted
            # w(Phi+ \ Psi) = (-Phi+) \ Psi
            image = {w.apply_root(r) for r in unfixed}
            neg_unfixed = {tuple(-x for x in r) for r in unfixed}
            assert image == neg_unfixed
            assert check_max_length(w, ps)


def _random_recombination(rng, base, dim):
    from weylslice.fields import QQ
    from weylslice.linalg import rank

    r = len(base)
    while True:
        rows = [[Fraction(rng.randint(-3, 3)) for _ in range(r)]
                for _ in range(r)]
        vecs = [tuple(sum(c * b[i] for c, b in zip(row, base))
                      for i in range(dim)) for row in rows]
        if rank(QQ, vecs) == r:
            return tuple(vecs)


def test_simples_contain_psi_choice_simples():
    b3 = build_root_system("B", 3)
    w = b3.reflection(_vec(1, 1, 0))
    base = minus_one_eigenbasis(w)
    ps = positive_system(EigenBasisChoice(w, base))
    psi = set(fixed_roots(w))
    psi_pos = {r for r in psi if r in ps.positive}
    # indecomposables of the Psi choice within Psi
    psi_simples = {
        r for r in psi_pos
        if not any(tuple(a - b for a, b in zip(r, s)) in psi_pos
                   for s in psi_pos if s != r)
    }
    system_simples = set(ps.simples())
    assert psi_simples <= system_simples


@pytest.mark.parametrize("label,n", [("B", 3), ("G", 2), ("F", 4), ("E", 6)])
def test_root_index_tables(label, n):
    rs = build_root_system(label, n)
    roots = rs.roots
    for k, r in enumerate(roots):
        assert roots[rs.neg[k]] == tuple(-x for x in r)
        for l, s in enumerate(roots):
            total = tuple(a + b for a, b in zip(r, s))
            assert rs._sum_index(k, l) == rs.index.get(total, -1)
    std = standard_system(rs)
    assert std.simples() == sorted(rs.simple_roots)
    std.validate()
    theta = rs.highest_root()
    minus_theta = tuple(-x for x in theta)
    # both +-theta positive
    with pytest.raises(AssertionError, match="exactly one"):
        PositiveSystem(rs, std.positive | {minus_theta}).validate()
    # theta swapped for -theta: one of each pair, but theta = a + b with
    # a, b positive is no longer positive
    with pytest.raises(AssertionError, match="not closed"):
        PositiveSystem(rs, (std.positive - {theta}) | {minus_theta}).validate()
