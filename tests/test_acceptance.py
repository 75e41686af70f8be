"""Acceptance suite: every headline claim at its stated tolerance.

All tolerances are exact (integer equality / boolean); each criterion
prints one PASS line when it completes.  Slow suites (the full finite
group sweeps) stay inside the stated desk-scale budgets.
"""

import json

import pytest

from conftest import group_order_statistics, torsion_brute_force
from weylslice.fields import gf
from weylslice.matgroups import GroupContext
from weylslice.rootsys import build_root_system, longest_element
from weylslice.sheetcat import sheet_catalog

F1009 = gf(1009)


def _ok(name):
    print(f"ACCEPTANCE {name}: PASS")


# -- criterion 1: component counts reproduce the catalog exactly -----------

CRITERION1 = [
    ("B", 2, "S", 8), ("B", 3, "S", 32), ("B", 4, "S", 128),
    ("B", 2, "Sprime", 4), ("B", 3, "Sprime", 4), ("B", 4, "Sprime", 4),
    ("C", 3, "S1", 4), ("C", 4, "S1", 4),
    ("C", 3, "S2", 8), ("C", 4, "S2", 16),
    ("D", 4, "S", 4), ("D", 4, "Sprime", 4), ("D", 5, "Sprime", 4),
    ("E", 7, "S", 8),
]


def test_criterion_1_component_counts():
    from weylslice.sliceverify import certify_components

    for t, n, label, expected in CRITERION1:
        d = next(x for x in sheet_catalog(t, n) if x.label == label)
        cert = certify_components(d, field=F1009, n_in=64, n_out=64, seed=0)
        assert cert.found_components == expected, (t, n, label)
        assert cert.count_matches and cert.passed, (t, n, label,
                                                    cert.failures[:3])
    _ok("1 component counts (B/C/D/E7, exact)")


# -- criterion 2: dimension formula over the five oracle groups -------------

ORACLE_GROUPS = [("SL", 1, 3), ("SL", 1, 5), ("SL", 2, 3),
                 ("Sp", 2, 3), ("SO-odd", 2, 3)]


@pytest.mark.parametrize("label,rank,q", ORACLE_GROUPS)
def test_criterion_2_dimension_formula(label, rank, q):
    from weylslice.fforacle import (conjugacy_classes, enumerate_group,
                                    verify_dimension_formula)

    group = enumerate_group(label, rank, q)
    classes = conjugacy_classes(group)
    assert sum(c.size for c in classes) == group.order
    for c in classes:
        rep = verify_dimension_formula(group, c)
        assert rep.inequality_holds, (label, q, c.size)
        assert rep.equality_at_max == rep.spherical_marked, (
            label, q, c.size, rep.tag)
        assert rep.unique_max
        if rep.expected_w_matches is not None:
            assert rep.expected_w_matches
    _ok(f"2 dimension formula {label}{rank + 1 if label == 'SL' else ''}"
        f"(F_{q}), {len(classes)} classes")


# -- criterion 3: Sevostyanov positive systems ------------------------------

def test_criterion_3_sevostyanov_suite():
    import random
    from fractions import Fraction

    from weylslice.fields import QQ
    from weylslice.linalg import rank
    from weylslice.rootsys import involution_conjugacy_classes
    from weylslice.sevslice import (EigenBasisChoice, check_max_length,
                                    fixed_roots, minus_one_eigenbasis,
                                    positive_system)

    rng = random.Random(0)
    for t, n in [("A", 3), ("B", 3), ("B", 4), ("D", 4)]:
        system = build_root_system(t, n)
        for cls in involution_conjugacy_classes(system):
            w = cls[0]
            base = minus_one_eigenbasis(w)
            r = len(base)
            psi = set(fixed_roots(w))
            for _ in range(20):
                while True:
                    rows = [[Fraction(rng.randint(-3, 3)) for _ in range(r)]
                            for _ in range(r)]
                    vecs = [tuple(sum(c * b[i] for c, b in zip(row, base))
                                  for i in range(system.dim))
                            for row in rows]
                    if rank(QQ, vecs) == r:
                        break
                ps = positive_system(EigenBasisChoice(w, tuple(vecs)))
                ps.validate()
                unfixed = set(ps.positive) - psi
                inverted = {root for root in ps.positive
                            if w.apply_root(root) not in ps.positive}
                assert unfixed == inverted
                assert check_max_length(w, ps)
    _ok("3 Sevostyanov suite (A3/B3/B4/D4, 20 eigenbases per class)")


# -- criterion 4: Gamma_w against brute-force torsion enumeration ------------

def test_criterion_4_gamma_suite():
    from weylslice.sliceverify import etype_root_checks
    from weylslice.toruslat import TorusData, gamma_w

    for t, n in [("A", 3), ("B", 2), ("B", 3), ("B", 4), ("C", 3), ("C", 4),
                 ("D", 4)]:
        for d in sheet_catalog(t, n):
            w = d.w_S()
            for iso in ("sc", "ad"):
                torus = TorusData(d.weyl_system(), w, iso)
                shape, gens = gamma_w(torus)
                points = torsion_brute_force(torus)
                order, two_torsion = group_order_statistics(points)
                assert order == shape.order, (t, n, d.label, iso)
                assert two_torsion == 2 ** len(shape.divisors)
    for rank in (6, 7):
        rep = etype_root_checks(rank)
        gamma_checks = [ok for name, ok in rep.checks if "Gamma" in name]
        assert gamma_checks and all(gamma_checks)
    _ok("4 Gamma_w suite (catalog rank <= 4 both isogenies; E6/E7 generators)")


# -- criterion 5: slice-orbit suite ------------------------------------------

def _root_2eps2():
    from fractions import Fraction

    return (Fraction(0), Fraction(2))


def test_criterion_5_slice_orbits_sp4():
    from weylslice.fforacle import (expand_class, slice_orbit_check,
                                    w_of_class)
    from weylslice.linalg import mat_mul

    F5 = gf(5)
    ctx = GroupContext("Sp", 2)
    c2 = build_root_system("C", 2)
    w0 = longest_element(c2, range(2))
    s_long = c2.reflection(c2.highest_root())
    wd_catalog = ((0, 0, 1, 0), (0, 0, 0, 1), (4, 0, 0, 0), (0, 4, 0, 0))
    long_root = c2.highest_root()
    sigma = ctx.torus(F5, [4, 1])
    cases = [
        ("O_lambda(2,2)", ctx.torus(F5, [2, 2]), w0, wd_catalog),
        ("O_lambda,1", ctx.torus(F5, [2, 1]), w0, wd_catalog),
        ("(2^2) unip", mat_mul(F5, ctx.root_element(F5, long_root, 1),
                               ctx.root_element(F5, _root_2eps2(), 1)),
         w0, wd_catalog),
        ("transvection sq", ctx.root_element(F5, long_root, 1), s_long, None),
        ("transvection nonsq", ctx.root_element(F5, long_root, 2), s_long,
         None),
        ("mixed sigma*x(1)", mat_mul(F5, sigma,
                                     ctx.root_element(F5, long_root, 1)),
         w0, wd_catalog),
    ]
    escalations = []
    for name, rep, w, wd in cases:
        r = slice_orbit_check("Sp", 2, 5, rep, w, wdot=wd)
        assert r.nonempty, (name, r.caveats)
        assert r.gamma_closed and r.gamma_transitive, (name, r.caveats)
        if r.extension_used:
            escalations.append((name, r.caveats))
    # the sigma involution class: w computed from the class itself
    cls = expand_class(ctx, F5, sigma)
    wrep = w_of_class(ctx, F5, cls)
    r = slice_orbit_check("Sp", 2, 5, sigma, wrep.w_max)
    assert r.nonempty and r.gamma_closed and r.gamma_transitive
    print(f"  extension escalations logged: {escalations}")
    _ok("5a slice orbits Sp4(F_5)")


def test_criterion_5_slice_orbits_sl3():
    from weylslice.families import AFamily
    from weylslice.fforacle import slice_orbit_check
    from weylslice.sheetcat import catalog_w_S

    wS = catalog_w_S("A", 2, "S_1")
    fam = AFamily(2, 1)
    escalations = []
    for q in (3, 5, 7):
        Fq = gf(q)
        wd = fam.representative(Fq)
        unip = ((1, 0, 1), (0, 1, 0), (0, 0, 1))
        r = slice_orbit_check("SL", 2, q, unip, wS, wdot=wd)
        assert r.nonempty and r.gamma_closed and r.gamma_transitive, (
            q, "unip", r.caveats)
        if r.extension_used:
            escalations.append((q, "unip", r.caveats))
        a = 2 if q in (3, 5) else 3
        b = pow(a, -2, q)
        ss = ((a, 0, 0), (0, a, 0), (0, 0, b))
        # propose the catalog parametrization point over F_{q^2} in case the
        # rational intersection is empty (a^2 = b*a may be a non-residue)
        ext = gf(q * q)
        props = []
        root_a2 = ext.sqrt(ext.mul(ext.of(b), ext.of(a)))
        if root_a2 is not None:
            props.append(fam.components()[0].point(ext, (root_a2, ext.of(a))))
        r = slice_orbit_check("SL", 2, q, ss, wS, wdot=wd,
                              proposals=tuple(props))
        assert r.nonempty and r.gamma_closed and r.gamma_transitive, (
            q, "ss", r.caveats)
        if r.extension_used:
            escalations.append((q, "ss", r.caveats))
    print(f"  extension escalations logged: {escalations}")
    _ok("5b slice orbits SL3(F_3/F_5/F_7)")


# -- criterion 6: the symbolic equation chain --------------------------------

def test_criterion_6_equation_chain():
    from weylslice.sliceverify import verify_equation_chain_Bn

    for n in (2, 3):
        signs = [(1,) * n]
        # enumerate all discrete sign data
        from itertools import product

        for e in product((1, -1), repeat=n):
            for eta_tail in product((1, -1), repeat=n - 1):
                rep = verify_equation_chain_Bn(n, e, (1,) + eta_tail)
                assert rep.passed, (n, e, eta_tail, rep.first_failure)
        bad = verify_equation_chain_Bn(n, (1,) * n, (1,) * n, perturb_q=True)
        assert not bad.passed and bad.first_failure == "symmetric part"
    _ok("6 equation chain symbolic in the eigenvalue (n = 2, 3, all signs)")


# -- criterion 7: singularity witnesses ---------------------------------------

def test_criterion_7_witnesses():
    from weylslice.sliceverify import stratum_singularity_witness

    wb = stratum_singularity_witness("B", 2, "B2:unip(3,1^2)", field=F1009)
    assert wb.details["S_member_partition"] == (3, 1, 1)
    assert wb.details["Sprime_member_partition"] == (3, 1, 1)
    assert "(2^2)" in wb.witness
    wc = stratum_singularity_witness("C", 2, "B2:unip(3,1^2)", field=F1009)
    assert wc.witness is not None
    wd = stratum_singularity_witness("D", 5, "D5:R-thetaR", field=F1009)
    assert wd.details["R_member_partition"] == (2, 2, 2, 2, 1, 1)
    assert wd.details["thetaR_member_partition"] == (2, 2, 2, 2, 1, 1)
    assert wd.details["sign_twists_members"]
    for t, n in [("B", 3), ("B", 4), ("C", 3), ("C", 4), ("D", 4)]:
        for sid in sorted({d.stratum_id for d in sheet_catalog(t, n)}):
            rep = stratum_singularity_witness(t, n, sid, field=F1009)
            assert rep.witness is None, (t, n, sid)
    _ok("7 singular-stratum witnesses (B2=C2; D5; others none)")


# -- criterion 8: deterministic machine-readable reports ----------------------

def test_criterion_8_determinism():
    from weylslice.reportcli import RunConfig, format_jsonl, run

    for cfg in [
        dict(command="verify-slice", group_type="B", rank=2, q=1009,
             n_in=8, n_out=8, seed=21),
        dict(command="oracle", sheet="sl2", q=5, seed=21),
        dict(command="sev-check", group_type="A", rank=3, trials=4, seed=21),
    ]:
        s1, rows1 = run(RunConfig(**cfg))
        s2, rows2 = run(RunConfig(**cfg))
        assert s1 == s2 == 0
        b1 = format_jsonl(rows1).encode()
        b2 = format_jsonl(rows2).encode()
        assert b1 == b2
        for line in format_jsonl(rows1).splitlines():
            assert json.loads(line)["seed"] == 21
    _ok("8 byte-identical machine-readable reports")
