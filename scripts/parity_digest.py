#!/usr/bin/env python3
"""Print one sha256 per area of the certifier's exact outputs.

Two checkouts whose digests agree line by line produce identical outputs
in that area.  The script uses only the public API, so it also runs
against commits that predate it: copy it into that checkout's `scripts/`
and run it there.

Areas:
  weyl     for the first 3 members of every involution class of the
           TYPES below: matrix, length, reduced word, the action on a
           fixed vector with a component off the root span, and the
           signed permutation (or the error it raises)
  sevslice for the same elements: the (-1)-eigenbasis, the positive
           system it defines, its simple roots, the length of w in it
           and the fixed roots
  torus    for the same elements: the TorusData action and gamma_w for
           the sc, ad and (types A-D) matrix lattices
  oracle   for each of ORACLE_GROUPS: every conjugacy class (rep, size,
           sorted elements), cell_partition_check, and per class the
           verify_dimension_formula report and the w_of_class cells
           (w_max, incident, unique_max; cells as root permutations)
  report:* the printed reports of the REPORTS command lines

Usage: python3 scripts/parity_digest.py
"""

import contextlib
import hashlib
import io
import os
import sys
from fractions import Fraction

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from weylslice.fforacle import (cell_partition_check, conjugacy_classes,
                                enumerate_group, verify_dimension_formula,
                                w_of_class)
from weylslice.reportcli import main as cli_main
from weylslice.rootsys import build_root_system, involution_conjugacy_classes
from weylslice.sevslice import (EigenBasisChoice, fixed_roots,
                                minus_one_eigenbasis, positive_system)
from weylslice.toruslat import TorusData, gamma_w

TYPES = [("A", 3), ("A", 4), ("B", 3), ("B", 4), ("C", 3), ("C", 4),
         ("D", 4), ("D", 5), ("G", 2), ("F", 4)]
MEMBERS = 3  # elements per involution class
ORACLE_GROUPS = [("SL", 1, 3), ("SL", 1, 5), ("SL", 1, 7), ("SL", 2, 3)]
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
    except (ValueError, ArithmeticError) as exc:
        return f"{type(exc).__name__}: {exc}"


def weyl_records():
    for system, w in _elements():
        v = tuple(Fraction(k + 1, k + 2) for k in range(system.dim))
        yield (w.matrix, w.length(), w.reduced_word(), w.apply_vector(v),
               _or_error(w.signed_permutation))


def sevslice_records():
    for system, w in _elements():
        base = minus_one_eigenbasis(w)
        ps = positive_system(EigenBasisChoice(w, base))
        yield (base, sorted(ps.positive), ps.simples(), ps.length_of(w),
               fixed_roots(w))


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
    print("weyl", digest(weyl_records()))
    print("sevslice", digest(sevslice_records()))
    print("torus", digest(torus_records()))
    print("oracle", digest(oracle_records()))
    for argv in REPORTS:
        print("report:" + " ".join(argv), digest([report_text(argv)]))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
