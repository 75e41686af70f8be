#!/usr/bin/env python3
"""Print one sha256 per area of the certifier's exact outputs.

Two checkouts whose digests agree line by line produce identical outputs
in that area.  The script uses only the public API, so it also runs
against commits that predate it: copy it into that checkout's `scripts/`
and run it there.

Areas:
  roots    for each of ROOT_TYPES: roots, coefficients, positive roots,
           cartan, neg, the simple-reflection and every root reflection's
           permutation, the full pair table, highest root and dual basis,
           and the subsystem highest root of the whole system and (E6-E8,
           F4) of the roots orthogonal to its highest root; for every type
           but E7 and E8, weyl_order_by_orbit
  weyl     for the first 3 members of every involution class of the
           TYPES below: matrix, length, reduced word, the action on a
           fixed vector with a component off the root span, and the
           signed permutation (or the error it raises)
  sevslice for the same elements: the (-1)-eigenbasis, the positive
           system it defines, its simple roots, the length of w in it
           and the fixed roots; then the same for three seeded random
           eigenbases (integer combinations of the first, and one with
           coefficients k/2 and k/3) and for the first of them with the
           opposite positive choice on the fixed roots
  torus    for the same elements: the TorusData action and gamma_w for
           the sc, ad and (types A-D) matrix lattices
  oracle   for each of ORACLE_GROUPS: every conjugacy class (rep, size,
           sorted elements), cell_partition_check, and per class the
           verify_dimension_formula report and the w_of_class cells
           (w_max, incident, unique_max; cells as root permutations)
  slice    the SliceOrbitReport of every criterion-5 case (the six
           Sp4(F_5) reps, the sigma class, SL3(F_q) for q = 3, 5, 7
           unipotent and semisimple with F_{q^2} proposals) and the
           NormalizeResult of three SL2 points over F_5 and F_13
  expand   the sorted class elements from expand_class of the seven
           Sp4(F_5) reps and the SL3(F_q) reps of `slice`, and the
           borel_orbit_report of the top cell of every class of
           BOREL_GROUPS
  chain    the ChainReport of the big B_n cell equation chain for every
           sign datum of n = 2 and n = 3, plus the PERTURBED controls
  certify  the ComponentCertificate of the CRITERION1 sheets (n_in = n_out
           = 64, seed 0) and of every sheet of CERTIFY_TYPES (n_in = 6,
           n_out = 12, seeds 0 and 11), with gamma_stability_check at both
           seeds and gamma_transitivity_check at each of CERTIFY_MUS (or
           the error either raises)
  membership  along the certify sample streams of the CRITERION1 sheets
           (n_in = n_out = 8, seeds 0 and 11): every point drawn through
           sample_coords and comp.point, then every ambient point, with its
           MembershipResult and in_group verdict (or the error it raises)
  cells    for the matrix sheets of CRITERION1 (a stride of at most 8
           components, 5 sample coordinates each, seed 0, then 8 ambient
           points): the bruhat_word of every point and of its conjugates
           by a stride of 4 Gamma_w elements (or the error it raises), so
           Bruhat decoding is pinned on 5x5 to 10x10 matrices over F_1009
  groups   for each of GROUP_TYPES: coords, size, flag_order and the form
           over F_1009; every root's root_element at c = 1, 2, -1 over
           F_1009 (c as plain ints) and F_9 (c as field elements); the
           torus at the units 2, 3, ...; and the class_dimension of the
           lift of w0 and of a torus element times x_theta(1), theta the
           highest root
  catalog  for each of CATALOG_TYPES: every sheet's label, pi,
           expected_components, stratum_id, stratum_smooth and w_S()
           permutation, then per stratum its smoothness_verdict and
           stratum_singularity_witness
  report:* the printed reports of the REPORTS command lines

Usage: python3 scripts/parity_digest.py
"""

import contextlib
import dataclasses
import hashlib
import io
import os
import random
import sys
from fractions import Fraction
from itertools import product

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from weylslice.families import AFamily, build_family
from weylslice.fforacle import (borel_orbit_report, cell_partition_check,
                                conjugacy_classes, enumerate_group,
                                expand_class,
                                normalize_to_fixed_torus, slice_orbit_check,
                                verify_dimension_formula, w_of_class)
from weylslice.fields import QQ, gf
from weylslice.linalg import mat_mul, rank
from weylslice.matgroups import GroupContext
from weylslice.reportcli import main as cli_main
from weylslice.rootsys import (build_root_system, involution_conjugacy_classes,
                               longest_element, orthogonal_subsystem,
                               subsystem_highest_root)
from weylslice.sheetcat import catalog_w_S, sheet_catalog, smoothness_verdict
from weylslice.sliceverify import (_conjugate_by_diagonal, _random_ambient,
                                   certify_components, gamma_group_elements,
                                   gamma_stability_check,
                                   gamma_transitivity_check,
                                   stratum_singularity_witness,
                                   verify_equation_chain_Bn)
from weylslice.sevslice import (EigenBasisChoice, fixed_roots,
                                minus_one_eigenbasis, positive_system)
from weylslice.toruslat import TorusData, gamma_w

ROOT_TYPES = ([("A", n) for n in range(1, 7)] + [("B", n) for n in range(2, 6)]
              + [("C", n) for n in range(2, 6)] + [("D", n) for n in range(3, 7)]
              + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)])
TYPES = [("A", 3), ("A", 4), ("B", 3), ("B", 4), ("C", 3), ("C", 4),
         ("D", 4), ("D", 5), ("G", 2), ("F", 4)]
MEMBERS = 3  # elements per involution class
ORACLE_GROUPS = [("SL", 1, 3), ("SL", 1, 5), ("SL", 1, 7), ("SL", 2, 3)]
BOREL_GROUPS = [("SL", 1, 5), ("SL", 2, 3)]
PERTURBED = [(2, (1, 1), (1, 1)), (3, (1, -1, 1), (1, 1, -1)),
             (3, (1, 1, 1), (1, 1, 1))]
CRITERION1 = [("B", 2, "S"), ("B", 3, "S"), ("B", 4, "S"), ("B", 2, "Sprime"),
              ("B", 3, "Sprime"), ("B", 4, "Sprime"), ("C", 3, "S1"),
              ("C", 4, "S1"), ("C", 3, "S2"), ("C", 4, "S2"), ("D", 4, "S"),
              ("D", 4, "Sprime"), ("D", 5, "Sprime"), ("E", 7, "S")]
CERTIFY_TYPES = [("A", 3), ("A", 4), ("B", 2), ("B", 3), ("C", 3), ("C", 4),
                 ("D", 4), ("D", 5), ("E", 6), ("E", 7)]
CERTIFY_MUS = (7, 3, 11)
GROUP_TYPES = ([("SL", n) for n in range(1, 5)] + [("GL", n) for n in range(1, 5)]
               + [("Sp", n) for n in range(2, 5)]
               + [("SO-odd", n) for n in range(2, 5)]
               + [("SO-even", n) for n in range(3, 6)])
CATALOG_TYPES = ([("A", n) for n in range(1, 9)]
                 + [("B", n) for n in range(2, 9)]
                 + [("C", n) for n in range(3, 9)]
                 + [("D", n) for n in range(4, 9)]
                 + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)])
REPORTS = [
    ["all", "--format", "jsonl", "--seed", "1"],
    ["sev-check", "--trials", "20"],
    ["oracle", "--group", "sp4", "--q", "3"],
]


def _elements():
    for label, rank in TYPES:
        system = build_root_system(label, rank)
        for cls in involution_conjugacy_classes(system):
            for w in cls[:MEMBERS]:
                yield system, w


def _or_error(fn):
    try:
        return fn()
    except (ValueError, ArithmeticError, TypeError) as exc:
        return f"{type(exc).__name__}: {exc}"


def roots_records():
    for label, rank in ROOT_TYPES:
        rs = build_root_system(label, rank)
        top = rs.highest_root()
        yield (rs.roots, [rs.coefficients(r) for r in rs.roots],
               rs.positive_roots, rs.cartan, rs.neg,
               [rs.simple_reflection(i).perm for i in range(rank)],
               [rs.reflection(r).perm for r in rs.roots],
               [[rs.pair(a, b) for b in rs.roots] for a in rs.roots],
               top, rs.dual_basis, subsystem_highest_root(rs, rs.roots))
        if (label, rank) not in (("E", 7), ("E", 8)):
            yield rs.weyl_order_by_orbit()
        if label in "EF":
            yield subsystem_highest_root(rs, orthogonal_subsystem(rs, top))


def weyl_records():
    for system, w in _elements():
        v = tuple(Fraction(k + 1, k + 2) for k in range(system.dim))
        yield (w.matrix, w.length(), w.reduced_word(), w.apply_vector(v),
               _or_error(w.signed_permutation))


def _random_eigenbasis(rng, base, denominators):
    """len(base) independent combinations of `base`, with coefficients k/d
    for k in -3..3 and d drawn from `denominators`."""
    r = len(base)
    while True:
        vecs = []
        for _ in range(r):
            coeffs = [Fraction(rng.randint(-3, 3), rng.choice(denominators))
                      for _ in range(r)]
            vecs.append(tuple(sum(c * b[i] for c, b in zip(coeffs, base))
                              for i in range(len(base[0]))))
        if rank(QQ, vecs) == r:
            return tuple(vecs)


def sevslice_records():
    rng = random.Random(17)
    for system, w in _elements():
        base = minus_one_eigenbasis(w)
        ps = positive_system(EigenBasisChoice(w, base))
        psi = fixed_roots(w)
        yield (base, sorted(ps.positive), ps.simples(), ps.length_of(w), psi)
        bases = [_random_eigenbasis(rng, base, d)
                 for d in [(1,), (1,), (1, 2, 3)]]
        opposite = frozenset(tuple(-x for x in r) for r in psi
                             if system.is_positive_root(r))
        for basis, choice in [(b, None) for b in bases] + [
                (bases[0], opposite)]:
            ps = _or_error(lambda: positive_system(
                EigenBasisChoice(w, basis, choice)))
            yield (basis, ps) if isinstance(ps, str) else (
                basis, sorted(ps.positive), ps.simples(), ps.length_of(w))


def torus_records():
    for system, w in _elements():
        for iso in TorusData.ISOGENIES:
            if iso == "matrix" and system.label not in "ABCD":
                continue
            torus = TorusData(system, w, iso)
            shape, gens = gamma_w(torus)
            yield (iso, torus.action, str(shape),
                   [(g.lattice_coords, g.cocharacter, g.order) for g in gens])


def oracle_records():
    for label, rank, q in ORACLE_GROUPS:
        group = enumerate_group(label, rank, q)
        classes = conjugacy_classes(group)
        yield [(c.rep, c.size, sorted(c.elements)) for c in classes]
        yield cell_partition_check(group)
        for c in classes:
            cells = w_of_class(group, group.field, c)
            yield (verify_dimension_formula(group, c), cells.w_max.perm,
                   [w.perm for w in cells.incident], cells.unique_max)


def _sp4_cases():
    """(rep, w, wdot) of the seven criterion-5 Sp4(F_5) checks, sigma last."""
    f5, sp4 = gf(5), GroupContext("Sp", 2)
    c2 = sp4.system
    w0 = longest_element(c2, range(2))
    long_root = c2.highest_root()
    s_long = c2.reflection(long_root)
    wd = ((0, 0, 1, 0), (0, 0, 0, 1), (4, 0, 0, 0), (0, 4, 0, 0))
    sigma = sp4.torus(f5, [4, 1])
    x_long = sp4.root_element(f5, long_root, 1)
    cases = [
        (sp4.torus(f5, [2, 2]), w0, wd),
        (sp4.torus(f5, [2, 1]), w0, wd),
        (mat_mul(f5, x_long, sp4.root_element(f5, (0, 2), 1)), w0, wd),
        (x_long, s_long, None),
        (sp4.root_element(f5, long_root, 2), s_long, None),
        (mat_mul(f5, sigma, x_long), w0, wd)]
    w_sigma = w_of_class(sp4, f5, expand_class(sp4, f5, sigma)).w_max
    return cases + [(sigma, w_sigma, None)]


def _sl3_cases():
    """Per q = 3, 5, 7: q, wdot, the unipotent and the semisimple rep, and
    the F_{q^2} proposals for the semisimple one."""
    fam = AFamily(2, 1)
    for q in (3, 5, 7):
        fq, ext = gf(q), gf(q * q)
        a = 2 if q in (3, 5) else 3
        b = pow(a, -2, q)
        root = ext.sqrt(ext.mul(ext.of(b), ext.of(a)))
        props = () if root is None else (
            fam.components()[0].point(ext, (root, ext.of(a))),)
        yield (q, fam.representative(fq), ((1, 0, 1), (0, 1, 0), (0, 0, 1)),
               ((a, 0, 0), (0, a, 0), (0, 0, b)), props)


def slice_records():
    for rep, w, wdot in _sp4_cases():
        yield slice_orbit_check("Sp", 2, 5, rep, w, wdot=wdot)
    w_s = catalog_w_S("A", 2, "S_1")
    for q, wdot, unip, semi, props in _sl3_cases():
        yield slice_orbit_check("SL", 2, q, unip, w_s, wdot=wdot)
        yield slice_orbit_check("SL", 2, q, semi, w_s, wdot=wdot,
                                proposals=props)
    sl2 = GroupContext("SL", 1)
    s1 = sl2.system.simple_reflection(0)
    for q, t, c in [(5, [4, 4], 2), (5, [2, 3], 1), (13, [4, 10], 1)]:
        fq = gf(q)
        wdot = sl2.weyl_representative(fq, s1)
        x = mat_mul(fq, mat_mul(fq, wdot, sl2.torus(fq, t)),
                    sl2.root_element(fq, sl2.system.simple_roots[0], c))
        yield normalize_to_fixed_torus(sl2, fq, x, s1, wdot)


def expand_records():
    sp4 = GroupContext("Sp", 2)
    for rep, _, _ in _sp4_cases():
        yield sorted(expand_class(sp4, gf(5), rep).elements)
    sl3 = GroupContext("SL", 2)
    for q, _, unip, semi, _ in _sl3_cases():
        for rep in (unip, semi):
            yield sorted(expand_class(sl3, gf(q), rep).elements)
    for label, rank, q in BOREL_GROUPS:
        group = enumerate_group(label, rank, q)
        for c in conjugacy_classes(group):
            w = w_of_class(group, group.field, c).w_max
            yield borel_orbit_report(group, c, w)


def chain_records():
    for n in (2, 3):
        for e in product((1, -1), repeat=n):
            for eta_tail in product((1, -1), repeat=n - 1):
                yield verify_equation_chain_Bn(n, e, (1,) + eta_tail)
    for n, e, eta in PERTURBED:
        yield verify_equation_chain_Bn(n, e, eta, perturb_q=True)


def certify_records():
    f1009 = gf(1009)
    for t, n, label in CRITERION1:
        d = next(x for x in sheet_catalog(t, n) if x.label == label)
        yield dataclasses.asdict(certify_components(
            d, field=f1009, n_in=64, n_out=64, seed=0))
    for t, n in CERTIFY_TYPES:
        for d in sheet_catalog(t, n):
            for seed in (0, 11):
                yield dataclasses.asdict(certify_components(
                    d, field=f1009, n_in=6, n_out=12, seed=seed))
                yield _or_error(lambda: gamma_stability_check(
                    d, field=f1009, seed=seed))
            for mu in CERTIFY_MUS:
                yield _or_error(lambda: gamma_transitivity_check(
                    t, n, d.label, field=f1009, mu_int=mu))


def membership_records():
    f1009 = gf(1009)
    for t, n, label in CRITERION1:
        fam = build_family(
            next(x for x in sheet_catalog(t, n) if x.label == label))
        for seed in (0, 11):
            rng = random.Random(seed)
            points = [_or_error(lambda: comp.point(f1009, coord))
                      for comp in fam.components()
                      for coord in fam.sample_coords(f1009, rng, 8)]
            points += [_random_ambient(fam, f1009, rng) for _ in range(8)]
            for pt in points:
                yield pt if isinstance(pt, str) else (
                    pt, fam.membership(f1009, pt),
                    fam.is_matrix and fam.ctx.in_group(f1009, pt))


def cells_records():
    f1009 = gf(1009)
    for t, n, label in CRITERION1:
        fam = build_family(
            next(x for x in sheet_catalog(t, n) if x.label == label))
        if not fam.is_matrix:
            continue
        rng = random.Random(0)
        comps = fam.components()
        points = [_or_error(lambda: comp.point(f1009, coord))
                  for comp in comps[::max(1, len(comps) // 8)]
                  for coord in fam.sample_coords(f1009, rng, 5)]
        points += [_random_ambient(fam, f1009, rng) for _ in range(8)]
        gammas = gamma_group_elements(fam, f1009)
        gammas = gammas[::max(1, len(gammas) // 4)]
        for pt in points:
            if isinstance(pt, str):
                yield pt
                continue
            for x in [pt] + [_conjugate_by_diagonal(f1009, g, pt)
                             for g in gammas]:
                yield _or_error(lambda: fam.ctx.bruhat_word(f1009, x).perm)


def groups_records():
    f1009, f9 = gf(1009), gf(9)
    for label, rank in GROUP_TYPES:
        ctx = GroupContext(label, rank)
        rs = ctx.system
        yield ctx.coords, ctx.size, ctx.flag_order, ctx.form(f1009)
        yield [ctx.root_element(f1009, r, c)
               for r in rs.roots for c in (1, 2, -1)]
        yield [ctx.root_element(f9, r, f9.of(c))
               for r in rs.roots for c in (1, 2, -1)]
        t = ctx.torus(f1009, [k + 2 for k in range(rs.dim)])
        x = ctx.root_element(f1009, rs.highest_root(), 1)
        w0 = ctx.weyl_representative(f1009,
                                     longest_element(rs, range(rank)))
        yield (t, ctx.class_dimension(f1009, w0),
               ctx.class_dimension(f1009, mat_mul(f1009, t, x)))


def catalog_records():
    for t, n in CATALOG_TYPES:
        sheets = sheet_catalog(t, n)
        for d in sheets:
            yield (d.label, d.pi, d.expected_components, d.stratum_id,
                   d.stratum_smooth, d.w_S().perm)
        for sid in sorted({d.stratum_id for d in sheets}):
            yield (smoothness_verdict(t, n, sid),
                   stratum_singularity_witness(t, n, sid))


def report_text(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = cli_main(argv)
    return f"exit {status}\n{out.getvalue()}"


def digest(records) -> str:
    h = hashlib.sha256()
    for rec in records:
        h.update(repr(rec).encode())
        h.update(b"\n")
    return h.hexdigest()


def main():
    print("roots", digest(roots_records()))
    print("weyl", digest(weyl_records()))
    print("sevslice", digest(sevslice_records()))
    print("torus", digest(torus_records()))
    print("oracle", digest(oracle_records()))
    print("slice", digest(slice_records()))
    print("expand", digest(expand_records()))
    print("chain", digest(chain_records()))
    print("certify", digest(certify_records()))
    print("membership", digest(membership_records()))
    print("cells", digest(cells_records()))
    print("groups", digest(groups_records()))
    print("catalog", digest(catalog_records()))
    for argv in REPORTS:
        print("report:" + " ".join(argv), digest([report_text(argv)]))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
