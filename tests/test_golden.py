"""The `weylslice all` report against its committed golden copy.

tests/golden/all_seed1.jsonl is the output of

    weylslice all --format jsonl --seed 1

Updating it is a change to a check: do it in the change that alters the
report, and say which claims changed and why.
"""

import json
from pathlib import Path

from weylslice.reportcli import main

GOLDEN = Path(__file__).parent / "golden" / "all_seed1.jsonl"


def _by_claim(text):
    return {row["claim"]: row for row in map(json.loads, text.splitlines())}


def test_all_report_matches_golden(capsys):
    status = main(["all", "--format", "jsonl", "--seed", "1"])
    got = capsys.readouterr().out
    want = GOLDEN.read_text()
    assert status == 0
    old, new = _by_claim(want), _by_claim(got)
    differing = sorted(c for c in old.keys() | new.keys()
                       if old.get(c) != new.get(c))
    assert not differing, f"claims differing from {GOLDEN.name}: {differing}"
    assert got == want  # same rows: order and formatting
