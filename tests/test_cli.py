import json

import pytest

from weylslice import sliceverify
from weylslice.reportcli import RunConfig, format_jsonl, format_text, main, run


def test_catalog_command(capsys):
    status = main(["catalog", "--type", "B", "--rank", "3"])
    out = capsys.readouterr().out
    assert status == 0
    assert "catalog:B3:S" in out
    assert "4 pass" in out


def test_catalog_lists_component_counts():
    _, rows = run(RunConfig("catalog", group_type="B", rank=3))
    by_claim = {r["claim"]: r for r in rows}
    assert by_claim["catalog:B3:S"]["detail"]["components"] == 32
    assert by_claim["catalog:B3:Sprime"]["detail"]["components"] == 4
    _, rows = run(RunConfig("catalog", group_type="C", rank=3))
    by_claim = {r["claim"]: r for r in rows}
    assert by_claim["catalog:C3:S2"]["detail"]["components"] == 8


def test_verify_slice_command(capsys):
    status = main(["verify-slice", "--type", "C", "--rank", "3",
                   "--sheet", "S2", "--q", "1009", "--n-in", "4",
                   "--n-out", "4"])
    out = capsys.readouterr().out
    assert status == 0
    assert "components:C3:S2" in out


def test_verify_slice_never_passes_on_zero_claims():
    # an unknown sheet or a rank outside the catalog is one fail row that
    # names the CatalogError; a type with an empty catalog is one caveat
    for rank, sheet, message in [(2, "Nonsense", "no catalog sheet Nonsense"),
                                 (1, None, "type B requires rank >= 2")]:
        status, rows = run(RunConfig("verify-slice", group_type="B",
                                     rank=rank, sheet=sheet))
        assert status == 1 and len(rows) == 1
        assert rows[0]["status"] == "fail" and message in rows[0]["detail"]
    status, rows = run(RunConfig("verify-slice", group_type="F", rank=4))
    assert status == 0 and [r["status"] for r in rows] == ["caveat"]


def test_invalid_types_and_ranks_fail_where_empty_catalogs_pass(capsys):
    # a (type, rank) that names no simple type is a CatalogError, so one
    # fail row, from catalog and verify-slice alike; F4, G2 and E8 keep
    # their empty catalogs
    for t, n in [("A", 0), ("E", 5), ("F", 3), ("G", 3)]:
        assert main(["catalog", "--type", t, "--rank", str(n)]) == 1
        assert f"catalog:{t}{n}  FAIL" in capsys.readouterr().out
        status, rows = run(RunConfig("catalog", group_type=t, rank=n))
        assert status == 1 and [r["status"] for r in rows] == ["fail"]
        assert "is not a valid simple type" in rows[0]["detail"]
    status, rows = run(RunConfig("verify-slice", group_type="A", rank=0))
    assert status == 1 and len(rows) == 1
    assert rows[0]["claim"] == "components:A0"
    assert rows[0]["status"] == "fail"
    assert rows[0]["detail"] == "(A, 0) is not a valid simple type"
    for t, n in [("F", 4), ("G", 2), ("E", 8)]:
        assert run(RunConfig("catalog", group_type=t, rank=n)) == (0, [])


def test_oracle_command(capsys):
    status = main(["oracle", "--group", "sl2", "--q", "3"])
    out = capsys.readouterr().out
    assert status == 0
    assert "bruhat-partition:sl2:q3" in out
    assert "dimension-formula" in out


def test_sev_check_command():
    _, rows = run(RunConfig("sev-check", group_type="A", rank=3, trials=3,
                            seed=2))
    assert rows and all(r["status"] == "pass" for r in rows)


def test_jsonl_schema_and_seed():
    _, rows = run(RunConfig("catalog", group_type="B", rank=2, seed=9))
    text = format_jsonl(rows)
    for line in text.splitlines():
        obj = json.loads(line)
        assert obj["schema"] == 1
        assert obj["seed"] == 9
        assert obj["status"] in ("pass", "fail", "caveat")
        assert "claim" in obj and "detail" in obj


def test_reports_are_deterministic(tmp_path):
    cfg = dict(group_type="B", rank=2, q=1009, n_in=6, n_out=6, seed=13)
    _, rows1 = run(RunConfig("verify-slice", **cfg))
    _, rows2 = run(RunConfig("verify-slice", **cfg))
    assert format_jsonl(rows1) == format_jsonl(rows2)
    # and through the file-writing path
    p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    main(["verify-slice", "--type", "B", "--rank", "2", "--q", "1009",
          "--n-in", "4", "--n-out", "4", "--seed", "3",
          "--format", "jsonl", "--output", str(p1)])
    main(["verify-slice", "--type", "B", "--rank", "2", "--q", "1009",
          "--n-in", "4", "--n-out", "4", "--seed", "3",
          "--format", "jsonl", "--output", str(p2)])
    assert p1.read_bytes() == p2.read_bytes()


def test_invalid_selectors():
    with pytest.raises(SystemExit):
        main(["oracle", "--group", "e8"])
    status, rows = run(RunConfig("catalog", group_type="C", rank=2))
    assert status == 1  # out-of-hypothesis rank flagged, not crashed
    assert any(r["status"] == "fail" for r in rows)


def test_text_format_summary_line():
    _, rows = run(RunConfig("catalog", group_type="G", rank=2))
    text = format_text(rows)
    assert text.endswith("0 fail")


def test_witness_rows_fail_when_a_member_check_fails(monkeypatch):
    # a witness whose members are not both on their sheets reads "fail";
    # B3:S has no witness and no member check, so it still passes
    witness = sliceverify.stratum_singularity_witness

    def members_off(*args, **kwargs):
        report = witness(*args, **kwargs)
        for key in ("both_members", "sign_twists_members"):
            if key in report.details:
                report.details[key] = False
        return report

    monkeypatch.setattr(sliceverify, "stratum_singularity_witness",
                        members_off)
    _, rows = run(RunConfig("all", seed=1))
    assert {r["claim"]: r["status"] for r in rows
            if r["claim"].startswith("witness:")} == {
        "witness:B2:unip(3,1^2)": "fail", "witness:D5:R-thetaR": "fail",
        "witness:B3:S": "pass"}
