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
