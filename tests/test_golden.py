"""Certifier outputs against their committed golden copies.

tests/golden/all_seed1.jsonl is the output of

    weylslice all --format jsonl --seed 1

and tests/golden/parity_digests.txt holds the lines of

    python3 scripts/parity_digest.py

for its sub-second areas (weyl, sevslice, torus, oracle, groups,
catalog), for slice and expand, which run slice_orbit_check and
expand_class (about 0.2 s each), for membership, the certify sample
streams point by point (about 1.6 s), and for cells, bruhat_word of
sample and ambient points of the criterion-1 sheets and of their
Gamma_w-conjugates (5x5 to 10x10 over F_1009, about 0.3 s), which pins
the decoder beyond the oracle's small groups, for roots, the root data
and Weyl orbits built on rootsys.closure (about 1 s), and for certify,
the certify_components and gamma_stability_check transcripts (about 3 s).
tests/golden/oracle_f3_classes.json
holds the class structure of Sp4(F_3) and SO5(F_3) and the spherical tag
of each class, which the oracle digest area (SL groups only) does not
cover.  Updating any of them is a
change to a check: do it in the change that alters the output, and say
which claims or areas changed and why.
"""

import importlib.util
import json
from pathlib import Path

from weylslice.fforacle import (cell_partition_check, conjugacy_classes,
                                enumerate_group)
from weylslice.reportcli import main
from weylslice.sheetcat import classify_spherical

GOLDEN = Path(__file__).parent / "golden" / "all_seed1.jsonl"
DIGESTS = Path(__file__).parent / "golden" / "parity_digests.txt"
ORACLE_CLASSES = Path(__file__).parent / "golden" / "oracle_f3_classes.json"
PARITY = Path(__file__).parent.parent / "scripts" / "parity_digest.py"


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


def test_parity_digest_areas_match_golden():
    spec = importlib.util.spec_from_file_location("parity_digest", PARITY)
    parity = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(parity)
    want = dict(line.split() for line in DIGESTS.read_text().splitlines())
    got = {area: parity.digest(getattr(parity, f"{area}_records")())
           for area in want}
    differing = sorted(a for a in want if got[a] != want[a])
    assert not differing, f"areas differing from {DIGESTS.name}: {differing}"


def test_sp4_so5_f3_classes_match_golden():
    # per group: (rep, size) of every class in the order conjugacy_classes
    # lists them, cell_partition_check, the size of every Bruhat cell by
    # reduced word, and per class its classify_spherical tag (or None)
    for key, want in json.loads(ORACLE_CLASSES.read_text()).items():
        label, rank, q = key.rsplit("-", 2)
        group = enumerate_group(label, int(rank), int(q))
        classes = [[list(c.rep), c.size] for c in conjugacy_classes(group)]
        assert classes == want["classes"], key
        assert cell_partition_check(group) == want["cell_partition_check"]
        sizes = {}
        for w in group.cells():
            word = ",".join(map(str, w.reduced_word()))
            sizes[word] = sizes.get(word, 0) + 1
        assert sizes == want["cell_sizes"], key
        n = group.size
        tags = []
        for c in conjugacy_classes(group):
            rep = tuple(c.rep[i:i + n] for i in range(0, n * n, n))
            t = classify_spherical(group.ctx, group.field, rep)
            tags.append(t and [t.tag, t.dim, t.sheet, t.w_class])
        assert tags == want["tags"], key
