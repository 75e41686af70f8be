import os
import random
import subprocess
import sys

import pytest

from weylslice.families import SliceFamily
from weylslice.fields import gf
from weylslice.sheetcat import CatalogError, sheet_catalog
from weylslice.sliceverify import (
    certify_components,
    etype_root_checks,
    gamma_group_elements,
    gamma_stability_check,
    gamma_transitivity_check,
    stratum_singularity_witness,
    verify_equation_chain_Bn,
    verify_sl_restriction,
)

F = gf(1009)


def _descriptor(t, n, label):
    return next(d for d in sheet_catalog(t, n) if d.label == label)


def test_certify_small_sheets():
    for t, n, label in [("B", 2, "S"), ("B", 3, "Sprime"), ("C", 3, "S1"),
                        ("C", 3, "S2"), ("D", 4, "S"), ("D", 5, "R"),
                        ("A", 3, "S_2"), ("E", 6, "S"), ("E", 7, "S")]:
        cert = certify_components(_descriptor(t, n, label), n_in=6, n_out=12,
                                  seed=11)
        assert cert.passed, (t, n, label, cert.failures)
        assert cert.count_matches


def test_certify_rejects_a_claimed_point_off_the_group(monkeypatch):
    # one component hands out -X, which has det -1 and so lies off SO_5;
    # membership starts with the group test and names the group
    import dataclasses

    from weylslice.families import BFamilyS, family_for

    components = BFamilyS.components

    def negated_second(self):
        comps = components(self)
        inner = comps[1].point

        def point(field, a):
            return tuple(tuple(field.neg(x) for x in row)
                         for row in inner(field, a))

        comps[1] = dataclasses.replace(comps[1], point=point)
        return comps

    monkeypatch.setattr(BFamilyS, "components", negated_second)
    cert = certify_components(_descriptor("B", 2, "S"), n_in=6, n_out=4,
                              seed=3)
    label = family_for("B", 2, "S").components()[1].label
    assert not cert.passed and len(cert.failures) == 6
    for failure in cert.failures:
        assert failure.startswith(f"claimed point rejected on {label} at ")
        assert failure.endswith(": X is not in SO_5")


def test_certify_decodes_accepted_points_without_a_second_group_test(
        monkeypatch):
    # membership has accepted each decoded point by the group test, so the
    # cell decode skips the checked `bruhat_word`
    from weylslice.matgroups import GroupContext

    def checked_decode(self, field, g):
        raise AssertionError("bruhat_word repeats the group test")

    monkeypatch.setattr(GroupContext, "bruhat_word", checked_decode)
    cert = certify_components(_descriptor("B", 2, "S"), n_in=6, n_out=4,
                              seed=3)
    assert cert.passed, cert.failures


def test_certificate_transcript_shape():
    cert = certify_components(_descriptor("C", 3, "S2"), n_in=4, n_out=4)
    tr = cert.transcript()
    assert tr["expected_components"] == 8
    assert tr["passed"] and not tr["failures"]
    assert tr["seed"] == 0 and tr["field"] == 1009


def test_gamma_group_realization():
    fam_d = _descriptor("C", 3, "S2")
    from weylslice.families import build_family

    fam = build_family(fam_d)
    gammas = gamma_group_elements(fam, F)
    assert len(gammas) == 4**3
    from weylslice.linalg import identity

    assert identity(F, 6) in gammas
    # closed under multiplication (it is a group)
    from weylslice.linalg import mat_mul

    gs = set(gammas)
    for a in gammas[:8]:
        for b in gammas[:8]:
            assert mat_mul(F, a, b) in gs


def test_gamma_stability_and_transitivity():
    assert gamma_stability_check(_descriptor("C", 3, "S2"), samples=4)["passed"]
    assert gamma_stability_check(_descriptor("B", 2, "S"), samples=4)["passed"]
    for args in [("B", 2, "S"), ("B", 3, "S"), ("C", 3, "S2"), ("D", 4, "S")]:
        rep = gamma_transitivity_check(*args)
        assert rep["passed"], (args, rep)
    # B_n S: the orbit of one point is exactly the fixed-trace point set
    rep = gamma_transitivity_check("B", 2, "S")
    assert rep["points"] == rep["orbit"] == 16
    # a^2 = 2(2 - 13) has no square root in F_1009
    assert gamma_transitivity_check("B", 2, "S", field=F, mu_int=13) == {
        "skipped": "no square root for mu=13"}
    for args in [("B", 3, "Sprime"), ("C", 3, "S1"), ("D", 5, "R"),
                 ("A", 3, "S_1"), ("E", 7, "S")]:
        with pytest.raises(TypeError, match="big-cell families"):
            gamma_transitivity_check(*args)
    for rank in (6, 7):
        with pytest.raises(TypeError, match="matrix families only"):
            gamma_stability_check(_descriptor("E", rank, "S"))


def _no_bruhat_word(monkeypatch):
    """Make `GroupContext.bruhat_word` fail and count `_cell` calls."""
    from weylslice.matgroups import GroupContext

    def checked_decode(self, field, g):
        raise AssertionError("bruhat_word repeats the group test")

    decodes = []
    cell = GroupContext._cell

    def counted_cell(self, field, g):
        decodes.append(g)
        return cell(self, field, g)

    monkeypatch.setattr(GroupContext, "bruhat_word", checked_decode)
    monkeypatch.setattr(GroupContext, "_cell", counted_cell)
    return decodes


def test_gamma_stability_decodes_each_accepted_conjugate_once(monkeypatch):
    decodes = _no_bruhat_word(monkeypatch)
    for label in ("S", "Sprime"):
        decodes.clear()
        rep = gamma_stability_check(_descriptor("B", 2, label), samples=4)
        assert rep["passed"] and rep["checked"] == len(decodes) > 0


def test_gamma_stability_records_a_conjugate_off_the_group(monkeypatch):
    # the conjugation hands out -(t X t^-1), which has det -1 and so lies
    # off SO_5: each one is a failure of membership, and none is decoded
    import weylslice.sliceverify as sv

    conjugate = sv._conjugate_by_diagonal

    def negated(field, t, x):
        return tuple(tuple(field.neg(y) for y in row)
                     for row in conjugate(field, t, x))

    honest = gamma_stability_check(_descriptor("B", 2, "S"), samples=4)
    decodes = _no_bruhat_word(monkeypatch)
    monkeypatch.setattr(sv, "_conjugate_by_diagonal", negated)
    rep = gamma_stability_check(_descriptor("B", 2, "S"), samples=4)
    assert not rep["passed"] and not decodes
    assert rep["checked"] == honest["checked"] == len(rep["failures"]) > 0
    for failure in rep["failures"]:
        assert failure.endswith(
            ": Gamma conjugate left the sheet: X is not in SO_5"), failure


def test_random_ambient_gives_up_after_claimed_draws():
    from weylslice.sliceverify import _random_ambient

    class AlwaysClaimed(SliceFamily):
        def ambient(self, field, rng):
            return None

    with pytest.raises(RuntimeError, match="off-locus"):
        _random_ambient(AlwaysClaimed(_descriptor("B", 2, "S")), F,
                        random.Random(0))


def test_equation_chain_all_signs_n2():
    for e in [(1, 1), (1, -1), (-1, 1), (-1, -1)]:
        for eta2 in (1, -1):
            rep = verify_equation_chain_Bn(2, e, (1, eta2))
            assert rep.passed, (e, eta2, rep.results)


def test_equation_chain_perturbation_control():
    rep = verify_equation_chain_Bn(2, (1, 1), (1, 1), perturb_q=True)
    assert not rep.passed
    assert rep.first_failure == "symmetric part"
    rep3 = verify_equation_chain_Bn(3, (1, -1, 1), (1, 1, -1), perturb_q=True)
    assert not rep3.passed


def test_equation_chain_n4():
    rep = verify_equation_chain_Bn(4, (1, -1, -1, 1), (1, -1, 1, 1))
    assert rep.passed, rep.results
    bad = verify_equation_chain_Bn(4, (1, -1, -1, 1), (1, -1, 1, 1),
                                   perturb_q=True)
    assert bad.first_failure == "symmetric part"


ROOT = os.path.join(os.path.dirname(__file__), "..")

NO_SYMPY = """
import importlib, pkgutil, sys
import weylslice
for mod in pkgutil.iter_modules(weylslice.__path__):
    importlib.import_module("weylslice." + mod.name)
from weylslice.sliceverify import verify_equation_chain_Bn
assert verify_equation_chain_Bn(2, (1, -1), (1, 1)).passed
print("sympy" in sys.modules)
"""


def test_no_runtime_dependency():
    # a fresh interpreter: the test session itself may have sympy loaded
    path = os.pathsep.join(filter(None, [os.path.join(ROOT, "src"),
                                         os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", NO_SYMPY],
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
    tomllib = pytest.importorskip("tomllib")
    with open(os.path.join(ROOT, "pyproject.toml"), "rb") as fh:
        assert tomllib.load(fh)["project"]["dependencies"] == []


def test_equation_chain_requires_eta1():
    with pytest.raises(ValueError):
        verify_equation_chain_Bn(2, (1, 1), (-1, 1))


def test_sl_restriction():
    rep = verify_sl_restriction(3, 1, 0)
    assert rep.contained_in_curves and not rep.non_reduced
    assert rep.det_points_checked > 0
    # p | m and p | n+1-2m: non-reduced curves flagged, reduced part smooth
    rep2 = verify_sl_restriction(3, 2, 2)
    assert rep2.non_reduced and rep2.smooth_at_samples
    rep3 = verify_sl_restriction(5, 3, 3)
    assert rep3.non_reduced and rep3.reduced_exponents == (2, 0)
    # p coprime to the exponents: reduced and smooth
    rep4 = verify_sl_restriction(4, 1, 3)
    assert not rep4.non_reduced and rep4.smooth_at_samples


def test_witnesses():
    wb = stratum_singularity_witness("B", 2, "B2:unip(3,1^2)")
    assert wb.witness and "(3,1^2)" in wb.witness
    assert wb.details["S_member_partition"] == (3, 1, 1)
    assert wb.details["Sprime_member_partition"] == (3, 1, 1)
    wc = stratum_singularity_witness("C", 2, "B2:unip(3,1^2)")
    assert wc.witness
    wd = stratum_singularity_witness("D", 5, "D5:R-thetaR")
    assert wd.details["R_member_partition"] == (2, 2, 2, 2, 1, 1)
    assert wd.details["thetaR_member_partition"] == (2, 2, 2, 2, 1, 1)
    assert wd.details["sign_twists_members"]
    for t, n, sid in [("B", 3, "B3:S"), ("B", 3, "B3:Sprime"),
                      ("C", 3, "C3:S2"), ("D", 4, "D4:S"),
                      ("D", 5, "D5:Sprime")]:
        assert stratum_singularity_witness(t, n, sid).witness is None
    for t, n, sid in [("B", 3, "nonsense"), ("B", 2, "B2:S"),
                      ("D", 5, "D4:R-thetaR")]:
        with pytest.raises(CatalogError):
            stratum_singularity_witness(t, n, sid)


def test_etype_checks():
    for rk in (6, 7):
        rep = etype_root_checks(rk)
        assert rep.passed, rep.checks
    with pytest.raises(ValueError):
        etype_root_checks(8)


def test_e6_curve_identity_fails_off_curve():
    from weylslice.sliceverify import _e6_curve_identity

    assert _e6_curve_identity(F, 8, seed=0)


@pytest.mark.parametrize("part", ["torus", "unipotent"])
def test_e6_curve_identity_rejects_perturbed_parametrization(monkeypatch, part):
    from weylslice.families import E6Family, ETuplePoint
    from weylslice.sliceverify import _e6_curve_identity

    honest = E6Family._component_point

    def perturbed(self, eps):
        point = honest(self, eps)

        def shifted(field, ad):
            pt = point(field, ad)
            torus, unip = list(pt.torus), list(pt.unipotent)
            if part == "torus":
                torus[3] = field.add(torus[3], field.one)  # h5
            else:
                unip[1] = field.neg(unip[1])  # x_gamma
            return ETuplePoint(tuple(torus), tuple(unip))

        return shifted

    monkeypatch.setattr(E6Family, "_component_point", perturbed)
    assert not _e6_curve_identity(F, 12, 0)
    rep = etype_root_checks(6)
    assert not rep.passed
    assert [name for name, ok in rep.checks if not ok] == [
        "cuspidal curve coordinate identity"]
