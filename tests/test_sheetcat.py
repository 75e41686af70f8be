import dataclasses

import pytest

from weylslice import sheetcat
from weylslice.families import AFamily, family_for
from weylslice.fields import gf
from weylslice.matgroups import GroupContext
from weylslice.rootsys import (
    build_root_system,
    is_bruhat_max_in_class,
    minus_one_rank,
)
from weylslice.sheetcat import (
    CatalogError,
    SphericalTag,
    catalog_sheet,
    catalog_w_S,
    classify_spherical,
    expected_w_element,
    sheet_catalog,
    smoothness_verdict,
)


def test_component_counts_are_catalog_data():
    expect = {
        ("B", 2, "S"): 8, ("B", 3, "S"): 32, ("B", 4, "S"): 128,
        ("B", 3, "Sprime"): 4,
        ("C", 3, "S1"): 4, ("C", 3, "S2"): 8, ("C", 4, "S2"): 16,
        ("D", 4, "S"): 4, ("D", 4, "Sprime"): 4, ("D", 5, "R"): 4,
        ("E", 6, "S"): 2, ("E", 7, "S"): 8,
    }
    for (t, n, label), count in expect.items():
        d = next(x for x in sheet_catalog(t, n) if x.label == label)
        assert d.expected_components == count


def test_empty_exceptional_catalogs():
    assert sheet_catalog("G", 2) == []
    assert sheet_catalog("F", 4) == []
    assert sheet_catalog("E", 8) == []


def test_hypothesis_bounds():
    with pytest.raises(CatalogError):
        sheet_catalog("C", 2)
    with pytest.raises(CatalogError):
        sheet_catalog("B", 1)
    with pytest.raises(CatalogError):
        sheet_catalog("D", 3)


def test_catalog_descriptors_are_built_once():
    # each call returns a new list of the same descriptors, whatever the
    # case of the type; a rank outside the catalog raises on every call
    first, second = sheet_catalog("D", 5), sheet_catalog("d", 5)
    assert first is not second and len(first) == len(second) > 0
    assert all(a is b for a, b in zip(first, second))
    first.clear()
    assert sheet_catalog("D", 5) == second
    assert catalog_sheet("D", 5, "R") in second
    for _ in range(2):
        with pytest.raises(CatalogError):
            sheet_catalog("B", 1)


def test_w_S_invariants():
    """Every catalog w_S: involution, fixes Pi pointwise, Bruhat-maximal."""
    for t, n in [("A", 3), ("B", 2), ("B", 3), ("B", 4), ("C", 3), ("C", 4),
                 ("D", 4), ("D", 5)]:
        for d in sheet_catalog(t, n):
            w = d.w_S()
            assert w.is_involution()
            sys = d.weyl_system()
            for i in d.pi:
                a = sys.simple_roots[i]
                assert w.apply_root(a) == a
            assert is_bruhat_max_in_class(w), (t, n, d.label)


def test_theta_twist_facts():
    # D_{2h}: theta(w_S) != w_S; D_{2h+1}: theta(w_R) = w_R
    assert catalog_w_S("D", 4, "S") != catalog_w_S("D", 4, "thetaS")
    assert catalog_w_S("D", 5, "R") == catalog_w_S("D", 5, "thetaR")


def test_a_type_pi_resolution():
    # w0*w_Pi for Pi = {a_{m+1}..a_{n-m}} is the nested involution, the
    # product of the reflections in e_j - e_{n+2-j} for j <= m
    for n in range(1, 9):
        sys = build_root_system("A", n)
        for m in range(1, (n + 1) // 2 + 1):
            nested = sys.identity_element()
            for j in range(1, m + 1):
                root = tuple(1 if t == j - 1 else -1 if t == n + 1 - j else 0
                             for t in range(n + 1))
                nested = nested.mul(sys.reflection(root))
            w = catalog_w_S("A", n, f"S_{m}")
            assert w == nested, (n, m)
            assert minus_one_rank(w) == m
            if n <= 5:
                assert is_bruhat_max_in_class(w)


def test_theta_twists_are_theta_images():
    # theta is conjugation by diag(1,..,1,-1): it negates the last coordinate
    def flip(v):
        return v[:-1] + (-v[-1],)

    for n in range(4, 8):
        sys = build_root_system("D", n)
        (d,) = [d for d in sheet_catalog("D", n) if d.label.startswith("theta")]
        w = catalog_w_S("D", n, d.label[len("theta"):])
        assert d.w_S() == sys.element(lambda r: flip(w.apply_root(flip(r))))


def test_theta_check_rejects_untwisted_pi():
    # a thetaS descriptor that carries the Pi of S fails its theta check
    for n in (4, 6):
        d = catalog_sheet("D", n, "thetaS")
        wrong = dataclasses.replace(d, pi=catalog_sheet("D", n, "S").pi)
        with pytest.raises(AssertionError, match="theta twist"):
            wrong.w_S()


def test_w_s_is_computed_once_per_descriptor(monkeypatch):
    # the same object on every call; a fresh copy runs the theta check
    # again, on its own first call
    d = catalog_sheet("D", 4, "thetaS")
    assert d.w_S() is d.w_S()
    monkeypatch.setattr(sheetcat, "_theta_conjugate",
                        lambda system, w: w.system.identity_element())
    assert d.w_S() is d.w_S()
    with pytest.raises(AssertionError, match="theta twist"):
        dataclasses.replace(d).w_S()


def test_uncatalogued_label_raises():
    for t, n, label in [("C", 2, "S2"), ("B", 3, "S2"), ("A", 3, "S_3"),
                        ("D", 5, "thetaS"), ("E", 8, "S")]:
        with pytest.raises(CatalogError):
            catalog_w_S(t, n, label)
        with pytest.raises(CatalogError):
            family_for(t, n, label)
    for m in (0, 3):
        with pytest.raises(ValueError):
            AFamily(3, m)


def test_dimension_formula_cross_module():
    """dim of each member class equals l(w_S) + rk(1 - w_S), at one point
    of every component of the 13 criterion-1 matrix sheets and of D5 R."""
    F = gf(1009)
    cases = [
        ("B", 2, "S", 0), ("B", 2, "Sprime", 3), ("B", 3, "S", 5),
        ("B", 3, "Sprime", 3), ("B", 4, "S", 5), ("B", 4, "Sprime", 3),
        ("C", 3, "S1", 5), ("C", 3, "S2", 7), ("C", 4, "S1", 5),
        ("C", 4, "S2", 7), ("D", 4, "S", 9), ("D", 4, "Sprime", 3),
        ("D", 5, "Sprime", 3), ("D", 5, "R", 11),
    ]
    for t, n, label, coord in cases:
        d = next(x for x in sheet_catalog(t, n) if x.label == label)
        fam = family_for(t, n, label)
        w = d.w_S()
        target = w.length() + minus_one_rank(w)
        for k, comp in enumerate(fam.components()):
            pt = comp.point(F, F.of(coord) if coord else F.of(7))
            assert fam.membership(F, pt).member
            assert fam.ctx.class_dimension(F, pt) == target, (t, n, label, k)


def test_b2_c2_crosslisting():
    vb = smoothness_verdict("B", 2, "B2:unip(3,1^2)")
    vc = smoothness_verdict("C", 2, "anything")
    assert not vb.smooth and not vc.smooth
    assert "(2^2)" in vb.witness
    assert "B_2" in vc.reason or "B2" in vc.reason


def test_smoothness_verdicts():
    # sheets always smooth; only the two listed stratum families fail
    for t, n in [("B", 3), ("B", 4), ("C", 3), ("C", 4), ("D", 4),
                 ("A", 3), ("E", 6), ("E", 7)]:
        for d in sheet_catalog(t, n):
            assert d.sheet_smooth
            v = smoothness_verdict(t, n, d.stratum_id)
            assert v.smooth == d.stratum_smooth
    assert not smoothness_verdict("D", 5, "D5:R-thetaR").smooth
    assert smoothness_verdict("D", 5, "D5:Sprime").smooth
    with pytest.raises(CatalogError):
        smoothness_verdict("B", 3, "nonsense")


def test_classify_spherical_examples():
    F = gf(5)
    sp = GroupContext("Sp", 2)
    assert classify_spherical(sp, F, sp.torus(F, [1, 1])).dim == 0
    beta = sp.system.highest_root()
    t = classify_spherical(sp, F, sp.root_element(F, beta, 1))
    assert t.dim == 4 and t.w_class == "long-root-reflection"
    ol = classify_spherical(sp, F, sp.torus(F, [2, 2]))
    assert ol.dim == 6 and ol.w_class == "w0"
    # regular semisimple is not spherical in Sp4 (4 distinct eigenvalues)
    F7 = gf(7)
    assert classify_spherical(sp, F7, sp.torus(F7, [2, 3])) is None
    so = GroupContext("SO-odd", 2)
    rho = so.torus(F, [4, 4])  # diag(1,-1,-1,-1,-1)
    t = classify_spherical(so, F, rho)
    assert t is not None and t.dim == 4
    sl3 = GroupContext("SL", 2)
    t = classify_spherical(sl3, F, ((2, 0, 0), (0, 2, 0), (0, 0, 4)))
    assert t is not None and t.dim == 4 and t.sheet == "S_1"
    assert classify_spherical(sl3, F, ((2, 0, 0), (0, 3, 0), (0, 0, 1))) is None


def test_expected_w_element():
    b2 = build_root_system("B", 2)
    from weylslice.rootsys import longest_element

    assert expected_w_element(b2, "w0") == longest_element(b2, range(2))
    assert expected_w_element(b2, "identity").is_identity()
    assert expected_w_element(b2, "long-root-reflection").length() == 3
    with pytest.raises(CatalogError):
        expected_w_element(b2, "nonsense")


def test_catalog_report_strings():
    for d in sheet_catalog("B", 3):
        assert d.semisimple_members
        assert d.unipotent_members
