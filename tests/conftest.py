import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))


def torsion_brute_force(torus):
    """Independent enumeration of {t in (T_w)deg : t^2 in T^w} inside T[4].

    Walks all 4-torsion points of the torus as cocharacter coefficient
    vectors mod 4 and filters by the definitions; shares no code with the
    Smith-normal-form route.
    """
    from weylslice.toruslat import (_identity, _int_mat_add, _int_mat_sub,
                                    integer_kernel_basis)

    n = torus.n
    one_plus = _int_mat_add(_identity(n), torus.action)
    one_minus = _int_mat_sub(_identity(n), torus.action)
    kernel = integer_kernel_basis(one_plus)
    points = []
    for code in range(4**n):
        c = []
        k = code
        for _ in range(n):
            c.append(k % 4)
            k //= 4
        # in (T_w)deg: c must be a mod-4 combination of the kernel basis
        in_deg = False
        for combo in range(4 ** len(kernel)):
            acc = [0] * n
            m = combo
            for vec in kernel:
                e = m % 4
                m //= 4
                acc = [(a + e * v) % 4 for a, v in zip(acc, vec)]
            if acc == c:
                in_deg = True
                break
        if not in_deg:
            continue
        # t^2 in T^w: (1 - w) * (2c) = 0 mod 4
        img = [sum(one_minus[i][j] * 2 * c[j] for j in range(n)) % 4
               for i in range(n)]
        if all(x == 0 for x in img):
            points.append(tuple(c))
    return points


def group_order_statistics(points):
    """(order, count of elements of order <= 2) determines (Z/4)^r shapes."""
    order = len(points)
    two = sum(1 for c in points if all(x % 2 == 0 for x in c))
    return order, two


def cubic_mu_by_products(field, g):
    """Reference: (g - 1)(g^2 + 1) = mu (g - 1) g formed by three products,
    mu read off the first nonzero entry of (g - 1) g; None when no mu fits."""
    from weylslice.linalg import mat_mul, scalar_shift

    k = scalar_shift(field, g, field.one)
    lhs = mat_mul(field, k, scalar_shift(field, mat_mul(field, g, g),
                                         field.neg(field.one)))
    kg = mat_mul(field, k, g)
    pivot = next(((lr[j], x) for lr, kr in zip(lhs, kg)
                  for j, x in enumerate(kr) if not field.is_zero(x)), None)
    if pivot is None:
        return None
    mu = field.div(*pivot)
    target = tuple(tuple(field.mul(mu, x) for x in row) for row in kg)
    return mu if lhs == target else None
