import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weylslice.fields import (QQ, QQI, ExtField, PrimeField, RationalFunctions,
                              _FieldOps, gf)
from weylslice.linalg import (
    bruhat_permutation,
    charpoly,
    class_type,
    det,
    identity,
    inverse,
    kernel,
    mat_mul,
    mat_pow,
    poly_add,
    poly_divmod,
    poly_eval,
    poly_gcd,
    poly_factor,
    poly_mul,
    poly_trim,
    rank,
    solve,
    unipotent_partition,
)


@pytest.mark.parametrize("field", [QQ, QQI, gf(5), gf(9)],
                         ids=["QQ", "QQI", "F5", "F9"])
def test_identity_matches_entrywise_definition(field):
    for n in range(6):
        assert identity(field, n) == tuple(
            tuple(field.one if i == j else field.zero for j in range(n))
            for i in range(n))


def test_prime_field_basics():
    F = gf(7)
    assert F.add(5, 4) == 2
    assert F.mul(3, 5) == 1
    assert F.inv(3) == 5
    assert F.of(Fraction(1, 3)) == 5
    assert F.sqrt(2) == 3 or F.sqrt(2) == 4
    assert F.sqrt(3) is None
    with pytest.raises(ValueError):
        PrimeField(6)


def test_field_of_refuses_non_integral_input():
    # ints, bools and Fractions are read into the field; a float is not
    # truncated (1.5 used to read as 1), not even an integral one
    for F in (gf(5), gf(9)):
        assert F.of(-1) == F.neg(F.one) and F.of(True) == F.one
        assert F.mul(F.of(Fraction(1, 2)), F.of(2)) == F.one
        for bad in (1.5, 1.0):
            with pytest.raises(TypeError):
                F.of(bad)


def test_fourth_roots():
    assert gf(5).fourth_root_of_unity() in (2, 3)
    assert gf(7).fourth_root_of_unity() is None
    assert gf(9).fourth_root_of_unity() is not None
    assert gf(1009).fourth_root_of_unity() is not None


def test_extension_field_is_a_field():
    for q in (9, 16, 81):
        F = gf(q)
        assert isinstance(F, ExtField)
        elems = list(F.elements())
        assert len(elems) == q
        for a in elems:
            for b in elems:
                assert F.mul(a, b) == F.mul(b, a)
                assert F.mul(a, F.add(b, 1)) == F.add(F.mul(a, b), a)
            if a != 0:
                assert F.mul(a, F.inv(a)) == F.one
        # the prime subfield embeds as constants
        assert F.add(1, F.p - 1) == 0
    # F4 works in characteristic 2
    F4 = gf(4)
    assert len(list(F4.elements())) == 4


def test_extension_moduli_are_the_first_irreducibles():
    # x^k + sum c_i x^i, lexicographically first in (c_0, ..., c_(k-1)) read
    # as base-p digits; the tables of every extension field rest on these
    assert {q: gf(q).modulus for q in (4, 8, 9, 25, 27, 49)} == {
        4: (1, 1), 8: (1, 1, 0), 9: (1, 0), 25: (2, 0), 27: (1, 2, 0),
        49: (1, 0)}


@given(st.lists(st.lists(st.integers(-9, 9), min_size=3, max_size=3),
                min_size=3, max_size=3))
@settings(max_examples=60, deadline=None, derandomize=True)
def test_rank_bareiss_matches_gauss_mod_p(rows):
    m_q = tuple(tuple(Fraction(x) for x in r) for r in rows)
    r_q = rank(QQ, m_q)
    # rank over Q is an upper bound for rank mod p, equal for most p
    F = gf(1009)
    m_p = tuple(tuple(F.of(x) for x in r) for r in rows)
    assert rank(F, m_p) == r_q


def test_rank_and_inverse():
    F = gf(5)
    m = ((1, 2), (3, 4))
    assert rank(F, m) == 2
    assert mat_mul(F, m, inverse(F, m)) == identity(F, 2)
    assert rank(F, ((1, 2), (2, 4))) == 1
    assert rank(QQ, identity(QQ, 4)) == 4
    assert rank(QQ, ((Fraction(0),) * 3,) * 3) == 0


def test_solve_over_q():
    a = ((Fraction(2), Fraction(1)), (Fraction(1), Fraction(3)),
         (Fraction(1), Fraction(-2)))
    x = solve(QQ, a, (Fraction(1), Fraction(2), Fraction(-1)))
    assert x == (Fraction(1, 5), Fraction(3, 5))
    assert all(type(c) is Fraction for c in x)
    # (1, 0, 0) is off the column span of a
    assert solve(QQ, a, (Fraction(1), Fraction(0), Fraction(0))) is None
    with pytest.raises(ValueError):
        solve(QQ, ((1, 2), (2, 4)), (1, 2))


def test_kernel_canonical_basis():
    a = ((1, 2, 0, -1), (2, 4, 1, 1), (3, 6, 1, 0))
    assert kernel(QQ, a) == [
        (Fraction(-2), Fraction(1), Fraction(0), Fraction(0)),
        (Fraction(1), Fraction(0), Fraction(-3), Fraction(1)),
    ]


@given(st.integers(1, 4).flatmap(lambda n: st.lists(
    st.lists(st.integers(-3, 3), min_size=n, max_size=n),
    min_size=1, max_size=4)))
@settings(max_examples=60, deadline=None, derandomize=True)
def test_kernel_is_complement_of_rank(rows):
    a = tuple(tuple(Fraction(x) for x in r) for r in rows)
    ker = kernel(QQ, a)
    assert len(ker) + rank(QQ, a) == len(rows[0])
    zero = (Fraction(0),) * len(rows)
    assert all(tuple(sum(x * y for x, y in zip(r, v)) for r in a) == zero
               for v in ker)


@pytest.mark.parametrize("field", [gf(7), QQ], ids=["F7", "QQ"])
def test_mat_pow_matches_repeated_products(field):
    m = tuple(tuple(field.of(x) for x in r)
              for r in [[1, 2, 0], [3, 1, 1], [0, 2, 5]])
    power = identity(field, 3)
    for k in range(7):
        assert mat_pow(field, m, k) == power
        power = mat_mul(field, power, m)


@given(st.lists(st.lists(st.integers(0, 4), min_size=3, max_size=3),
                min_size=3, max_size=3))
@settings(max_examples=40, deadline=None, derandomize=True)
def test_charpoly_by_evaluation(rows):
    # det(xI - A) evaluated at sample points matches the determinant directly
    F = gf(5)
    a = tuple(map(tuple, rows))
    cp = charpoly(F, a)
    assert len(cp) == 4 and cp[-1] == F.one
    for x in F.elements():
        shifted = tuple(
            tuple(F.sub(x, a[i][j]) if i == j else F.neg(a[i][j])
                  for j in range(3)) for i in range(3))
        assert poly_eval(F, cp, x) == det(F, shifted)


def test_unipotent_partition():
    F = gf(7)
    assert unipotent_partition(F, identity(F, 4)) == (1, 1, 1, 1)
    jordan = ((1, 1, 0), (0, 1, 1), (0, 0, 1))
    assert unipotent_partition(F, jordan) == (3,)
    block = ((1, 1, 0, 0), (0, 1, 0, 0), (0, 0, 1, 1), (0, 0, 0, 1))
    assert unipotent_partition(F, block) == (2, 2)
    with pytest.raises(ValueError):
        unipotent_partition(F, ((2, 0), (0, 4)))


def test_bruhat_permutation_basics():
    F = gf(5)
    # upper triangular -> identity permutation
    assert bruhat_permutation(F, ((2, 3), (0, 4))) == (0, 1)
    # antidiagonal -> the swap
    assert bruhat_permutation(F, ((0, 1), (1, 0))) == (1, 0)
    # B-biinvariance on random products
    import random

    rnd = random.Random(0)
    base = ((0, 1, 0), (0, 0, 1), (1, 0, 0))
    target = bruhat_permutation(F, base)
    for _ in range(20):
        b1 = ((1, rnd.randrange(5), rnd.randrange(5)),
              (0, 1, rnd.randrange(5)), (0, 0, 1))
        b2 = ((2, rnd.randrange(5), rnd.randrange(5)),
              (0, 3, rnd.randrange(5)), (0, 0, 4))
        g = mat_mul(F, mat_mul(F, b1, base), b2)
        assert bruhat_permutation(F, g) == target


def test_polynomial_helpers():
    F = gf(7)
    # (x^2 - 1) = (x-1)(x+1)
    q, r = poly_divmod(F, (6, 0, 1), (6, 1))
    assert r == ()
    assert poly_eval(F, q, 6) == 0
    g = poly_gcd(F, (6, 0, 1), (1, 1))  # gcd(x^2-1, x+1) = x+1
    assert poly_eval(F, g, 6) == 0 and len(g) == 2
    # (x-1)^2 (x-2) = x^3 - 4x^2 + 5x - 2: its factors, with multiplicities
    assert poly_factor(F, (5, 5, 3, 1)) == [((5, 1), 1), ((6, 1), 2)]


def _powmod(F, a, e, m):
    """a^e mod m, by the bits of e from the top."""
    out = (F.one,)
    for bit in bin(e)[2:]:
        out = poly_divmod(F, poly_mul(F, out, out), m)[1]
        if bit == "1":
            out = poly_divmod(F, poly_mul(F, out, a), m)[1]
    return out


def _frobenius_fixed(F, p, k):
    """x^(q^k) - x mod p, by k q-th powers of x."""
    h = (F.zero, F.one)
    for _ in range(k):
        h = _powmod(F, h, F.order, p)
    return poly_add(F, h, (F.zero, F.neg(F.one)))


def _is_irreducible(F, p):
    """Rabin's test: p of degree d divides x^(q^d) - x and is prime to
    x^(q^(d/r)) - x for every prime r dividing d."""
    d = len(p) - 1
    if poly_divmod(F, _frobenius_fixed(F, p, d), p)[1]:
        return False
    primes = [r for r in range(2, d + 1)
              if d % r == 0 and all(r % s for s in range(2, r))]
    return all(len(poly_gcd(F, p, _frobenius_fixed(F, p, d // r))) == 1
               for r in primes)


def _random_monic(F, rng, degree):
    return tuple(rng.randrange(F.order) for _ in range(degree)) + (F.one,)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 25, 1009])
def test_poly_factor_multiplies_back_to_irreducible_factors(q):
    F, rng = gf(q), random.Random(q)
    polys = [_random_monic(F, rng, rng.randint(1, 7)) for _ in range(25)]
    # products with repeated factors
    for _ in range(15):
        parts = [_random_monic(F, rng, rng.randint(1, 3))
                 for _ in range(rng.randint(1, 3))]
        f = (F.one,)
        for part in parts + parts[:rng.randint(0, len(parts))]:
            f = poly_mul(F, f, part)
        polys.append(f)
    # two distinct irreducibles of one degree in characteristic 2: the
    # quadratics x^2 + ax + 1 (a = 2, 3) over F_4, and x^3 + x + 1 and
    # x^3 + x^2 + 1 over F_2
    if q == 4:
        polys.append(poly_mul(F, (1, 2, 1), (1, 3, 1)))
    if q == 2:
        polys.append(poly_mul(F, (1, 1, 0, 1), (1, 0, 1, 1)))
    for f in polys:
        factors = poly_factor(F, f)
        back = (F.one,)
        for p, m in factors:
            assert m >= 1 and p[-1] == F.one and _is_irreducible(F, p), (f, p)
            for _ in range(m):
                back = poly_mul(F, back, p)
        assert back == poly_trim(F, f)
        assert [p for p, _ in factors] == sorted(
            {p for p, _ in factors}, key=lambda p: (len(p), p))


def test_class_type_reads_partitions_per_factor():
    F = gf(7)
    # x - 1 with partition (2), x - 3 with (1, 1), x^2 + 1 (irreducible
    # mod 7) with (1): the type lists each factor once, by degree
    g = ((1, 1, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0), (0, 0, 3, 0, 0, 0),
         (0, 0, 0, 3, 0, 0), (0, 0, 0, 0, 0, 6), (0, 0, 0, 0, 1, 0))
    assert class_type(F, g) == (((4, 1), (1, 1)), ((6, 1), (2,)),
                                ((1, 0, 1), (1,)))
    # two companion blocks C of x^2 + 1: (1, 1) at it; [[C, I], [0, C]],
    # one Jordan block of size 2 over it: (2,)
    two_blocks = ((0, 6, 0, 0), (1, 0, 0, 0), (0, 0, 0, 6), (0, 0, 1, 0))
    jordan = ((0, 6, 1, 0), (1, 0, 0, 1), (0, 0, 0, 6), (0, 0, 1, 0))
    assert class_type(F, two_blocks) == (((1, 0, 1), (1, 1)),)
    assert class_type(F, jordan) == (((1, 0, 1), (2,)),)


def test_prime_field_kernels_refuse_non_int_entries():
    F = gf(7)
    with pytest.raises(TypeError, match="must be ints"):
        F.mat_mul(((Fraction(1, 2),),), ((1,),))
    with pytest.raises(TypeError, match="must be ints"):
        F.mat_mul(((1,),), ((Fraction(1, 2),),))
    with pytest.raises(TypeError, match="as an integer"):
        F.dot([Fraction(1, 2)], [1])
    with pytest.raises(TypeError, match="as an integer"):
        F.dot([1, 2], [3, 0.5])
    assert F.mat_mul(((8, -1),), ((1,), (1,))) == ((0,),)


QQIT = RationalFunctions(QQI)
KERNEL_FIELDS = [QQ, gf(2), gf(3), gf(1009), gf(4), gf(9), QQI, QQIT]
KERNEL_IDS = ["QQ", "F2", "F3", "F1009", "F4", "F9", "QQI", "QQIT"]


def _function(F, coeffs):
    """sum (a_k + b_k i) t^k, built by field operations only."""
    i = F.fourth_root_of_unity()
    acc = F.zero
    for a, b in reversed(coeffs):
        acc = F.add(F.mul(acc, F.t), F.add(F.of(a), F.mul(F.of(b), i)))
    return acc


def _quotient(F, num, den):
    den = _function(F, den)
    return _function(F, num) if F.is_zero(den) else F.div(_function(F, num), den)


def _elements(field):
    rationals = st.fractions(min_value=-4, max_value=4, max_denominator=3)
    if field is QQ:
        values = rationals
    elif field is QQI:
        values = st.tuples(rationals, rationals)
    elif field is QQIT:
        coeffs = st.lists(st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
                          max_size=2)
        values = st.tuples(coeffs, coeffs).map(lambda nd: _quotient(QQIT, *nd))
    else:
        values = st.integers(0, field.order - 1)
    # zeros often, so the zero-skipping paths of QQ and F_{p^k} run
    return st.one_of(st.just(field.zero), values)


def _vector_pairs(field):
    return st.integers(0, 6).flatmap(lambda n: st.tuples(
        st.lists(_elements(field), min_size=n, max_size=n),
        st.lists(_elements(field), min_size=n, max_size=n)))


def _square_pairs(field):
    def matrices(n):
        return st.lists(st.lists(_elements(field), min_size=n, max_size=n),
                        min_size=n, max_size=n).map(
            lambda rows: tuple(map(tuple, rows)))
    return st.integers(1, 4).flatmap(lambda n: st.tuples(matrices(n), matrices(n)))


def _fold_products(field, pairs):
    acc = field.zero
    for x, y in pairs:
        acc = field.add(acc, field.mul(x, y))
    return acc


@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=KERNEL_IDS)
@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_dot_and_sub_scaled_match_scalar_ops(field, data):
    xs, ys = data.draw(_vector_pairs(field))
    f = data.draw(_elements(field))
    assert field.dot(xs, ys) == _fold_products(field, zip(xs, ys))
    assert field.sub_scaled(xs, f, ys) == [
        field.sub(x, field.mul(f, y)) for x, y in zip(xs, ys)]


@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=KERNEL_IDS)
@settings(max_examples=30, deadline=None, derandomize=True)
@given(data=st.data())
def test_matrix_kernel_identities(field, data):
    a, b = data.draw(_square_pairs(field))
    n = len(a)
    naive = tuple(
        tuple(_fold_products(field, [(a[i][k], b[k][j]) for k in range(n)])
              for j in range(n)) for i in range(n))
    assert mat_mul(field, a, b) == naive
    assert det(field, mat_mul(field, a, b)) == field.mul(det(field, a), det(field, b))
    if rank(field, a) == n:
        assert mat_mul(field, inverse(field, a), a) == identity(field, n)


@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=KERNEL_IDS)
@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_field_laws(field, data):
    a, b, c = (data.draw(_elements(field)) for _ in range(3))
    add, mul = field.add, field.mul
    assert add(a, b) == add(b, a) and mul(a, b) == mul(b, a)
    assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))
    assert mul(mul(a, b), c) == mul(a, mul(b, c))
    assert field.is_zero(field.sub(a, a)) and add(a, field.neg(a)) == field.zero
    if not field.is_zero(b):
        assert mul(b, field.inv(b)) == field.one
        assert mul(field.div(a, b), b) == a


def test_gaussian_rational_functions_are_canonical():
    F, t = QQIT, QQIT.t
    one = F.one
    i = F.fourth_root_of_unity()
    assert F.mul(i, i) == F.of(-1)
    assert QQI.mul(QQI.fourth_root_of_unity(), QQI.fourth_root_of_unity()) == QQI.of(-1)
    # (t^2 - 1)/(t - 1) is t + 1, and (2t - 2)/(4t + 4) has a monic denominator
    assert F.div(F.sub(F.mul(t, t), one), F.sub(t, one)) == F.add(t, one)
    num, den = F.div(F.sub(F.mul(F.of(2), t), F.of(2)),
                     F.add(F.mul(F.of(4), t), F.of(4)))
    assert den == (QQI.one, QQI.one)
    assert num == (QQI.of(Fraction(-1, 2)), QQI.of(Fraction(1, 2)))
    assert F.is_zero(F.sub(F.div(one, t), F.div(F.mul(i, i), F.neg(t))))
    # inv only swaps and rescales a pair that is already coprime: it agrees
    # with the full reduction, also when the numerator leads with 2 + 3i
    c = (((Fraction(2), Fraction(3)),), F.one[1])
    skew = F.div(F.add(F.mul(c, F.mul(t, t)), i), F.sub(t, F.of(5)))
    for a in ((num, den), skew):
        assert a[0][-1] != QQI.one
        assert F.inv(a) == F._reduce(a[1], a[0])
        assert F.mul(a, F.inv(a)) == one
    for field in (QQI, F):
        with pytest.raises(ZeroDivisionError):
            field.inv(field.zero)
    a = ((t, one), (one, t))
    assert det(F, a) == F.sub(F.mul(t, t), one)
    assert mat_mul(F, inverse(F, a), a) == identity(F, 2)


@pytest.mark.parametrize("field", [QQ, gf(7)], ids=["QQ", "F7"])
@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_poly_add_and_mul_by_evaluation(field, data):
    polys = st.lists(_elements(field), max_size=4)
    a, b = data.draw(polys), data.draw(polys)
    total, prod = poly_add(field, a, b), poly_mul(field, a, b)
    assert not total or not field.is_zero(total[-1])
    assert not prod or not field.is_zero(prod[-1])
    for x in map(field.of, range(-2, 4)):
        ea, eb = poly_eval(field, a, x), poly_eval(field, b, x)
        assert poly_eval(field, total, x) == field.add(ea, eb)
        assert poly_eval(field, prod, x) == field.mul(ea, eb)


@pytest.mark.parametrize("p", [2, 3, 1009])
@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_rank_ignores_unreduced_entries(p, data):
    F = gf(p)
    rows = data.draw(st.integers(1, 5).flatmap(lambda n: st.lists(
        st.lists(st.integers(0, p - 1), min_size=n, max_size=n),
        min_size=1, max_size=5)))
    shifts = st.integers(-3, 3)
    unreduced = tuple(tuple(x + p * data.draw(shifts) for x in r)
                      for r in rows)
    assert rank(F, unreduced) == rank(F, tuple(map(tuple, rows)))


def _scan_sqrt(p, a):
    """The square root by scanning, smallest root first."""
    a %= p
    if a == 0:
        return 0
    if p == 2:
        return a
    if pow(a, (p - 1) // 2, p) != 1:
        return None
    return next((r for r in range(1, p) if r * r % p == a), None)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 13, 1009])
def test_prime_sqrt_table_matches_scan(p):
    F = PrimeField(p)
    for a in range(-p, 2 * p):
        assert F.sqrt(a) == _scan_sqrt(p, a)


@pytest.mark.parametrize("q", [4, 9, 25, 49])
def test_ext_sqrt_table_matches_scan(q):
    F = gf(q)
    assert isinstance(F, ExtField)
    for a in F.elements():
        scan = next((r for r in F.elements() if F.mul(r, r) == a), None)
        assert F.sqrt(a) == scan


BOUNDED_FIELDS = [gf(3), gf(1009), gf(9), QQ, QQI]
BOUNDED_IDS = ["F3", "F1009", "F9", "QQ", "QQI"]


@pytest.mark.parametrize("field", BOUNDED_FIELDS, ids=BOUNDED_IDS)
@settings(max_examples=25, deadline=None, derandomize=True)
@given(data=st.data())
def test_bounded_rank_is_capped_rank(field, data):
    rows, cols, inner = (data.draw(st.integers(1, 5)) for _ in range(3))

    def matrix(n, m):
        return tuple(map(tuple, data.draw(st.lists(
            st.lists(_elements(field), min_size=m, max_size=m),
            min_size=n, max_size=n))))

    # a random matrix, one of rank <= inner, and the zero matrix
    thin = mat_mul(field, matrix(rows, inner), matrix(inner, cols))
    zero = ((field.zero,) * cols,) * rows
    for a in (matrix(rows, cols), thin, zero):
        full = rank(field, a)
        for at_most in range(max(rows, cols) + 1):
            assert rank(field, a, at_most) == min(full, at_most + 1)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_gaussian_mul_fast_path_keeps_values_and_types(data):
    parts = st.one_of(st.just(Fraction(0)), st.fractions(
        min_value=-4, max_value=4, max_denominator=3))
    (a0, a1), (b0, b1) = (data.draw(st.tuples(parts, parts)) for _ in range(2))
    full = (a0 * b0 - a1 * b1, a0 * b1 + a1 * b0)
    got = QQI.mul((a0, a1), (b0, b1))
    assert got == full and tuple(map(type, got)) == tuple(map(type, full))


PRODUCT_FIELDS = [gf(2), gf(3), gf(1009), gf(65521), gf(9), QQ, QQI, QQIT]
PRODUCT_IDS = ["F2", "F3", "F1009", "F65521", "F9", "QQ", "QQI", "QQIT"]


def _rows_by_columns(field, a, b):
    """ab with one scalar product and sum per term, the reference product."""
    return tuple(tuple(_fold_products(field, zip(row, col)) for col in zip(*b))
                 for row in a)


@pytest.mark.parametrize("field", PRODUCT_FIELDS, ids=PRODUCT_IDS)
@settings(max_examples=12, deadline=None, derandomize=True)
@given(data=st.data())
def test_mat_mul_matches_rows_by_columns(field, data):
    rows, inner, cols = (data.draw(st.integers(1, 10)) for _ in range(3))

    def matrix(n, m):
        return tuple(map(tuple, data.draw(st.lists(
            st.lists(_elements(field), min_size=m, max_size=m),
            min_size=n, max_size=n))))

    a, b = matrix(rows, inner), matrix(inner, cols)
    assert mat_mul(field, a, b) == _rows_by_columns(field, a, b)
    # a holds field elements, as mat_mul_derived requires of an a read off b
    assert field.mat_mul_derived(a, b) == _rows_by_columns(field, a, b)
    assert field.mat_add(a, a) == tuple(tuple(field.add(x, x) for x in r)
                                        for r in a)


@pytest.mark.parametrize("p", [2, 3, 1009, 65521])
@settings(max_examples=20, deadline=None, derandomize=True)
@given(data=st.data())
def test_mat_mul_reduces_unreduced_and_negative_entries(p, data):
    F = gf(p)
    rows, inner, cols = (data.draw(st.integers(1, 10)) for _ in range(3))
    shifts = st.integers(-3, 3)

    def matrix(n, m):
        return data.draw(st.lists(
            st.lists(st.integers(0, p - 1), min_size=m, max_size=m),
            min_size=n, max_size=n))

    a, b = matrix(rows, inner), matrix(inner, cols)
    # one side unreduced (or negative), the other in range(p), and both
    ua = tuple(tuple(x + p * data.draw(shifts) for x in r) for r in a)
    ub = tuple(tuple(x + p * data.draw(shifts) for x in r) for r in b)
    ta, tb = tuple(map(tuple, a)), tuple(map(tuple, b))
    want = _rows_by_columns(F, ta, tb)
    assert mat_mul(F, ta, tb) == want
    assert mat_mul(F, ua, tb) == want
    assert mat_mul(F, ta, ub) == want
    assert mat_mul(F, ua, ub) == want
    assert F.mat_mul_derived(ta, tb) == F.mat_mul_derived(ta, ub) == want
    assert mat_mul(F, ((-1,) * inner,), tb) == _rows_by_columns(
        F, ((p - 1,) * inner,), tb)
    # a square times itself is checked once for range(p), and still falls
    # back when unreduced
    k = min(rows, inner)
    sq, usq = (tuple(tuple(r[:k]) for r in m[:k]) for m in (a, ua))
    want = _rows_by_columns(F, sq, sq)
    assert mat_mul(F, sq, sq) == want
    assert mat_mul(F, usq, usq) == want


@pytest.mark.parametrize("inner", [9, 10])
def test_mat_mul_at_the_slot_bound(inner):
    # 9 (p - 1)^2 < 2^64 <= 10 (p - 1)^2: the packed product holds nine
    # terms of (p - 1)^2 per slot, and ten go to the rows-by-columns body
    F = PrimeField(1431655751)
    assert F._slot_terms == 9
    top = F.p - 1
    a = ((top,) * inner,) * 3
    b = ((top,) * 4,) * inner
    assert mat_mul(F, a, b) == _rows_by_columns(F, a, b)
    mixed = tuple(tuple((i * 7 + j * 13) % F.p for j in range(inner))
                  for i in range(9))
    assert mat_mul(F, mixed, b) == _rows_by_columns(F, mixed, b)


def test_is_prime_matches_trial_division():
    from weylslice.fields import _is_prime

    primes, small = [], 0  # trial division by primes[:small], those <= sqrt(n)
    for n in range(2, 10 ** 5):
        while small < len(primes) and primes[small] ** 2 <= n:
            small += 1
        if all(map(n.__mod__, primes[:small])):
            primes.append(n)
    assert [n for n in range(10 ** 5) if _is_prime(n)] == primes


def test_is_prime_rejects_strong_pseudoprimes_and_large_inputs():
    from weylslice.fields import _MR_BOUND, _is_prime

    # strong pseudoprimes to the bases 2, 3, 5, 7 and to 2, ..., 11
    for n in (3215031751, 2152302898747):
        assert not _is_prime(n)
        with pytest.raises(ValueError):
            PrimeField(n)
    assert _is_prime(2 ** 61 - 1) and _is_prime(2 ** 64 - 59)
    assert not _is_prime(2 ** 64 - 1)
    with pytest.raises(ValueError, match=str(_MR_BOUND)):
        _is_prime(_MR_BOUND)


def test_mat_mul_over_a_word_sized_prime():
    # p = 2^61 - 1 constructs without trial division, and every product
    # takes the rows-by-columns fallback
    start = time.perf_counter()
    F = PrimeField(2 ** 61 - 1)
    assert time.perf_counter() - start < 1.0
    assert F._slot_terms == 0
    a = tuple(tuple((i * 9 + j) ** 7 % F.p for j in range(6))
              for i in range(5))
    b = tuple(tuple(F.p - 1 - (i + j * 6) ** 11 % F.p for j in range(4))
              for i in range(6))
    assert mat_mul(F, a, b) == _rows_by_columns(F, a, b)
    sq = tuple(row[:5] for row in a)
    assert mat_mul(F, sq, sq) == _rows_by_columns(F, sq, sq)


def test_mat_mul_over_a_large_prime():
    # p = 2^32 + 15: (p - 1)^2 > 2^64, so every product takes the fallback
    F = PrimeField(4294967311)
    assert F._slot_terms == 0
    a = tuple(tuple((i * 9 + j) ** 5 % F.p for j in range(9))
              for i in range(9))
    b = tuple(tuple(F.p - 1 - (i + j * 9) ** 3 % F.p for j in range(9))
              for i in range(9))
    assert mat_mul(F, a, b) == _rows_by_columns(F, a, b)


ELIMINATION_PRIMES = [2, 3, 1009, 2**61 - 1]


def _matrix_mod(data, p, rows, cols):
    return tuple(map(tuple, data.draw(st.lists(
        st.lists(st.integers(0, p - 1), min_size=cols, max_size=cols),
        min_size=rows, max_size=rows))))


def _low_rank_mod(data, p, rows, cols):
    """A rows x cols matrix of rank at most k < min(rows, cols), k >= 0,
    as the product of rows x k and k x cols factors mod p."""
    k = data.draw(st.integers(0, max(0, min(rows, cols) - 1)))
    a, b = _matrix_mod(data, p, rows, k), _matrix_mod(data, p, k, cols)
    return tuple(tuple(sum(x * b[t][j] for t, x in enumerate(row)) % p
                       for j in range(cols)) for row in a)


@pytest.mark.parametrize("p", ELIMINATION_PRIMES)
@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_prime_rref_matches_field_ops_reference(p, data):
    # the int elimination gives the reference's rows and pivots, at every
    # bound on the pivots, on full and rank-deficient matrices alike
    F = gf(p)
    rows, cols = data.draw(st.integers(0, 6)), data.draw(st.integers(1, 6))
    for a in (_matrix_mod(data, p, rows, cols),
              _low_rank_mod(data, p, rows, cols)):
        for max_pivots in [None] + list(range(cols + 1)):
            assert F.rref(a, max_pivots) == _FieldOps.rref(F, a, max_pivots)


@pytest.mark.parametrize("p", ELIMINATION_PRIMES)
@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_prime_det_matches_field_ops_reference(p, data):
    F = gf(p)
    n = data.draw(st.integers(0, 6))
    for a in (_matrix_mod(data, p, n, n), _low_rank_mod(data, p, n, n)):
        assert F.det(a) == _FieldOps.det(F, a)
    if n:
        assert F.det(_low_rank_mod(data, p, n, n)) == 0


@pytest.mark.parametrize("p", ELIMINATION_PRIMES)
@settings(max_examples=25, deadline=None, derandomize=True)
@given(data=st.data())
def test_prime_elimination_reads_unreduced_entries(p, data):
    # entries outside range(p) give the pivots and the determinant of
    # their residues, and rows equal to the reference's mod p
    F = gf(p)
    n = data.draw(st.integers(1, 5))
    reduced = _matrix_mod(data, p, n, n)
    shifts = st.integers(-3, 3)
    unreduced = tuple(tuple(x + p * data.draw(shifts) for x in r)
                      for r in reduced)
    assert F.det(unreduced) == _FieldOps.det(F, reduced)
    got, pivots = F.rref(unreduced)
    want, want_pivots = _FieldOps.rref(F, reduced)
    assert pivots == want_pivots
    assert [[x % p for x in r] for r in got] == want


def _q_entry(rng, size):
    """0 (int or Fraction) a third of the time, else an int or a Fraction
    with numerator and denominator up to `size`."""
    k = rng.random()
    if k < 0.33:
        return rng.choice((0, Fraction(0)))
    if k < 0.55:
        return rng.randint(-size, size)
    return Fraction(rng.randint(-size, size), rng.randint(1, size))


def _q_matrix(rng, rows, cols, size=9, rank_at_most=None):
    """A random rows x cols matrix over Q; with `rank_at_most` = k the
    product of rows x k and k x cols factors (all zeros for k = 0), and
    sometimes a zeroed row and column."""
    if rank_at_most is None:
        m = [[_q_entry(rng, size) for _ in range(cols)] for _ in range(rows)]
    else:
        k = rank_at_most
        a = [[_q_entry(rng, size) for _ in range(k)] for _ in range(rows)]
        b = [[_q_entry(rng, size) for _ in range(cols)] for _ in range(k)]
        m = [[sum((x * b[t][j] for t, x in enumerate(row)), 0)
              for j in range(cols)] for row in a]
    if rows and cols and rng.random() < 0.3:
        i, j = rng.randrange(rows), rng.randrange(cols)
        m[i] = [0] * cols
        for row in m:
            row[j] = Fraction(0)
    return tuple(map(tuple, m))


def _all_fractions(rows):
    return all(type(x) is Fraction for row in rows for x in row)


@pytest.mark.parametrize("seed", range(4))
def test_rational_kernel_matches_field_ops_reference(seed):
    # products and eliminations on cleared numerators give the reference's
    # matrices, rows and pivots, every entry a Fraction
    rng = random.Random(seed)
    size = (9, 9, 40, 10**6)[seed]
    shapes = [(0, 0), (0, 3), (3, 0), (1, 1)] + [
        (rng.randint(1, 7), rng.randint(1, 7)) for _ in range(30)]
    for rows, cols in shapes:
        low = rng.randint(0, max(0, min(rows, cols) - 1))
        for a in (_q_matrix(rng, rows, cols, size),
                  _q_matrix(rng, rows, cols, size, rank_at_most=low)):
            for max_pivots in [None] + list(range(cols + 1)):
                got = QQ.rref(a, max_pivots)
                assert got == _FieldOps.rref(QQ, a, max_pivots)
                assert _all_fractions(got[0])
            for inner in (0, 1, 4):
                b = _q_matrix(rng, cols, inner, size)
                got = QQ.mat_mul(a, b)
                assert got == _FieldOps.mat_mul(QQ, a, b)
                assert _all_fractions(got)
