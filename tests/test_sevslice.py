import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weylslice.fields import QQ
from weylslice.linalg import kernel, rank
from weylslice.rootsys import (
    build_root_system,
    dot,
    involution_conjugacy_classes,
    longest_element,
    minus_one_rank,
    subsystem_highest_root,
)
from weylslice.sevslice import (
    DegenerateBasisError,
    EigenBasisChoice,
    PositiveSystem,
    check_max_length,
    fixed_roots,
    minus_one_eigenbasis,
    positive_system,
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
    std = PositiveSystem(a2, frozenset(a2.positive_roots))
    assert not check_max_length(a2.simple_reflection(0), std)
    # the long reflection in its class is maximal
    theta = a2.highest_root()
    assert check_max_length(a2.reflection(theta), std)


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


def _random_recombination(rng, base, dim, denominators=(1,)):
    """r independent combinations of `base` with coefficients k/d, k drawn
    from -3..3 and d = denominators[i + j] (cyclically) for row i, column j."""
    r = len(base)
    m = len(denominators)
    while True:
        rows = [[Fraction(rng.randint(-3, 3), denominators[(i + j) % m])
                 for j in range(r)] for i in range(r)]
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


def _reference_rule(w, basis, psi_positive):
    """The last-nonzero-pairing rule on Fraction dot products: the positive
    set, or the first root (in index order) that pairs to zero with every
    basis vector without being fixed by w."""
    psi = set(fixed_roots(w))
    positive = set(psi_positive)
    for beta in w.system.roots:
        if beta in psi:
            continue
        for v in reversed(basis):
            pairing = sum((a * b for a, b in zip(beta, v)), Fraction(0))
            if pairing != 0:
                break
        else:
            return beta
        if pairing > 0:
            positive.add(beta)
    return frozenset(positive)


def _e6_involutions(e6):
    """Products of reflections in the first k = 1..4 roots of the
    highest-root cascade.  W(E6) has four involution classes, of sizes 36,
    270, 540 and 45 (Carter, Compositio Math. 25, 1972); rank(1 - w) = k
    tells these four apart without enumerating the 51,840 elements."""
    w, roots, out = e6.identity_element(), e6.roots, []
    for _ in range(4):
        theta = subsystem_highest_root(e6, roots)
        w = w.mul(e6.reflection(theta))
        out.append(w)
        roots = [r for r in roots if dot(r, theta) == 0]
    assert [minus_one_rank(x) for x in out] == [1, 2, 3, 4]
    return out


def _orthogonal_part(base, beta):
    """A basis of the vectors in span(base) orthogonal to beta."""
    pair = [dot(beta, v) for v in base]
    j = next(i for i, x in enumerate(pair) if x != 0)
    return tuple(tuple(a - pair[i] / pair[j] * b
                       for a, b in zip(base[i], base[j]))
                 for i in range(len(base)) if i != j)


@pytest.mark.parametrize("label,n", [("A", 3), ("B", 3), ("C", 3), ("D", 4),
                                     ("G", 2), ("F", 4), ("E", 6)])
def test_integer_sign_rule_matches_fraction_pairings(label, n):
    # F4 and E6 have half-integer root coordinates, and the combinations
    # with coefficients k/3 and k/2 give pairings with other denominators,
    # so the lcm scaling is exercised
    rs = build_root_system(label, n)
    rng = random.Random(7)
    reps = (_e6_involutions(rs) if label == "E"
            else [cls[0] for cls in involution_conjugacy_classes(rs)])
    for w in reps:
        base = minus_one_eigenbasis(w)
        psi = fixed_roots(w)
        standard = frozenset(r for r in psi if rs.is_positive_root(r))
        opposite = frozenset(tuple(-x for x in r) for r in standard)
        bases = [base] + [_random_recombination(rng, base, rs.dim, d)
                          for d in [(1,), (1,), (3, 1, 2)]]
        cases = [(b, None, standard) for b in bases] + [
            (bases[1], opposite, opposite)]
        for basis, choice, psi_pos in cases:
            ps = positive_system(EigenBasisChoice(w, basis, choice))
            assert ps.positive == _reference_rule(w, basis, psi_pos)
        # a partial basis orthogonal to an unfixed root
        beta = rng.choice([r for r in rs.roots if r not in set(psi)])
        partial = _orthogonal_part(bases[3], beta)
        expected = _reference_rule(w, partial, standard)
        assert expected in rs.index
        with pytest.raises(DegenerateBasisError) as err:
            positive_system(EigenBasisChoice(w, partial))
        assert err.value.root == expected


@pytest.mark.parametrize("label,n", [("B", 3), ("G", 2), ("F", 4), ("E", 6)])
def test_root_index_tables(label, n):
    rs = build_root_system(label, n)
    roots = rs.roots
    for k, r in enumerate(roots):
        assert roots[rs.neg[k]] == tuple(-x for x in r)
        for l, s in enumerate(roots):
            total = tuple(a + b for a, b in zip(r, s))
            assert rs._sum_table[k][l] == rs.index.get(total, -1)
    std = PositiveSystem(rs, frozenset(rs.positive_roots))
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


def test_eigenbasis_choice_keeps_its_integer_pairings():
    from weylslice.sevslice import _integer_pairings

    for label, n in [("A", 3), ("B", 3), ("E", 6)]:
        rs = build_root_system(label, n)
        w = longest_element(rs, range(n))
        base = minus_one_eigenbasis(w)
        choice = EigenBasisChoice(w, base)
        assert choice._pairings == tuple(
            _integer_pairings(rs, v) for v in base)
        assert choice == EigenBasisChoice(w, base)


def test_eigenbasis_choice_rejects_vectors_off_the_root_span():
    # w is the identity off the span, so such a vector is no (-1)-vector;
    # its pairings with the roots vanish, so only the span test sees it
    a3 = build_root_system("A", 3)
    w0 = longest_element(a3, range(3))
    ones = _vec(1, 1, 1, 1)
    with pytest.raises(ValueError, match="eigenspace"):
        EigenBasisChoice(w0, (ones,))
    good = minus_one_eigenbasis(w0)
    with pytest.raises(ValueError, match="eigenspace"):
        EigenBasisChoice(w0, (tuple(x + y for x, y in zip(good[0], ones)),))
    e6 = build_root_system("E", 6)
    w = longest_element(e6, range(6))
    # the kernel of the simple roots: two vectors orthogonal to every root
    perp = kernel(QQ, e6.simple_roots)
    assert len(perp) == 2
    assert all(dot(z, r) == 0 for z in perp for r in e6.roots)
    good = minus_one_eigenbasis(w)
    for z in perp:
        with pytest.raises(ValueError, match="eigenspace"):
            EigenBasisChoice(w, (z,))
        with pytest.raises(ValueError, match="eigenspace"):
            EigenBasisChoice(w, (tuple(x + Fraction(1, 3) * y
                                       for x, y in zip(good[0], z)),)
                             + good[1:])
    EigenBasisChoice(w, good)


def test_eigenbasis_choice_rejects_plus_one_vectors_and_dependence():
    for label, n in [("A", 3), ("B", 3), ("D", 4), ("E", 6)]:
        rs = build_root_system(label, n)
        for cls in (involution_conjugacy_classes(rs) if label != "E"
                    else [(longest_element(rs, range(n)),)]):
            w = cls[0]
            good = minus_one_eigenbasis(w)
            EigenBasisChoice(w, good)
            # a fixed root, and a fixed root added to a (-1)-vector
            for r in fixed_roots(w)[:2]:
                with pytest.raises(ValueError, match="eigenspace"):
                    EigenBasisChoice(w, (r,))
                with pytest.raises(ValueError, match="eigenspace"):
                    EigenBasisChoice(w, (tuple(
                        x + y for x, y in zip(good[0], r)),))
            # a root r with w r != +-r: r + w r is fixed and nonzero
            for r in rs.roots:
                if w.apply_root(r) not in (r, tuple(-x for x in r)):
                    with pytest.raises(ValueError, match="eigenspace"):
                        EigenBasisChoice(w, (tuple(
                            x + y for x, y in zip(r, w.apply_root(r))),))
                    break
            # dependent: a repeated vector, and a sum of two basis vectors
            with pytest.raises(ValueError, match="dependent"):
                EigenBasisChoice(w, good + (tuple(2 * x for x in good[0]),))
            if len(good) > 1:
                with pytest.raises(ValueError, match="dependent"):
                    EigenBasisChoice(w, (good[0], good[1], tuple(
                        x - Fraction(1, 2) * y
                        for x, y in zip(good[0], good[1]))))
    with pytest.raises(ValueError, match="eigenspace"):
        EigenBasisChoice(longest_element(build_root_system("B", 2), range(2)),
                         (_vec(1, 0, 0),))
