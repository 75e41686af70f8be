"""Command-line front door: catalog listings, certifications, oracle runs.

Reports come out as plain text tables plus machine-readable JSON lines
(schema below); reruns with the same configuration and seed are
byte-identical, and the exit status is the conjunction of all checks.

JSONL schema v1: one object per claim with keys
    schema, claim, params, status ("pass"|"fail"|"caveat"), detail, seed
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from typing import Optional

from .fields import VERIFICATION_PRIME, gf
from .sheetcat import (
    CatalogError,
    sheet_catalog,
    smoothness_verdict,
)

SCHEMA_VERSION = 1


@dataclass
class RunConfig:
    command: str
    group_type: Optional[str] = None
    rank: Optional[int] = None
    sheet: Optional[str] = None
    q: int = 0
    n_in: int = 64
    n_out: int = 64
    trials: int = 20
    seed: int = 0
    fmt: str = "text"
    output: Optional[str] = None


def _row(claim: str, status: str, params: dict, detail, seed: int) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "claim": claim,
        "params": params,
        "status": status,
        "detail": detail,
        "seed": seed,
    }


def run(config: RunConfig):
    """Execute one command; returns (exit_status, rows)."""
    rows = getattr(sys.modules[__name__], f"_cmd_{config.command.replace('-', '_')}")(config)
    status = 0 if all(r["status"] != "fail" for r in rows) else 1
    return status, rows


def _cmd_catalog(config: RunConfig):
    rows = []
    targets = []
    if config.group_type:
        targets.append((config.group_type, config.rank))
    else:
        targets = [("A", 3), ("B", 2), ("B", 3), ("B", 4), ("C", 3), ("C", 4),
                   ("D", 4), ("D", 5), ("E", 6), ("E", 7), ("E", 8)]
    for t, n in targets:
        try:
            cat = sheet_catalog(t, n)
        except CatalogError as exc:
            rows.append(_row(f"catalog:{t}{n}", "fail",
                             {"type": t, "rank": n}, str(exc), config.seed))
            continue
        for d in cat:
            w = d.w_S()
            from .rootsys import minus_one_rank

            detail = {
                "sheet": d.label,
                "Pi": list(d.pi),
                "l_wS": w.length(),
                "rk_1_minus_wS": minus_one_rank(w),
                "components": d.expected_components,
                "geometry": d.component_geometry,
                "sheet_smooth": d.sheet_smooth,
                "stratum": d.stratum_id,
                "stratum_smooth": d.stratum_smooth,
                "members": {
                    "semisimple": d.semisimple_members,
                    "unipotent": list(d.unipotent_members),
                    "isolated": list(d.isolated_members),
                },
            }
            ok = w.is_involution()
            rows.append(_row(
                f"catalog:{t}{n}:{d.label}", "pass" if ok else "fail",
                {"type": t, "rank": n}, detail, config.seed))
        for sid in sorted({d.stratum_id for d in cat}):
            v = smoothness_verdict(t, n, sid)
            rows.append(_row(
                f"stratum:{sid}", "pass",
                {"type": t, "rank": n},
                {"smooth": v.smooth, "reason": v.reason, "witness": v.witness},
                config.seed))
    return rows


def _cmd_verify_slice(config: RunConfig):
    from .families import build_family
    from .sliceverify import (certify_components, gamma_stability_check,
                              gamma_transitivity_check)

    if not config.group_type or config.rank is None:
        raise SystemExit("verify-slice needs --type and --rank")
    q = config.q or VERIFICATION_PRIME
    field = gf(q)
    rows = []
    cat = sheet_catalog(config.group_type, config.rank)
    for d in cat:
        if config.sheet and d.label != config.sheet:
            continue
        cert = certify_components(
            d, field=field, n_in=config.n_in, n_out=config.n_out,
            seed=config.seed)
        rows.append(_row(
            f"components:{cert.group}:{cert.sheet}",
            "pass" if cert.passed else "fail",
            {"q": q, "n_in": config.n_in, "n_out": config.n_out},
            cert.transcript(), config.seed))
        if build_family(d).is_matrix:
            gs = gamma_stability_check(d, field=field, seed=config.seed)
            rows.append(_row(
                f"gamma-stability:{cert.group}:{cert.sheet}",
                "pass" if gs["passed"] else "fail",
                {"q": q}, gs, config.seed))
            if d.label in ("S", "S2") and d.group_type in ("B", "C", "D"):
                gt = gamma_transitivity_check(
                    d.group_type, d.rank, d.label, field=field)
                status = "pass" if gt.get("passed") else (
                    "caveat" if "skipped" in gt else "fail")
                rows.append(_row(
                    f"gamma-transitivity:{cert.group}:{cert.sheet}",
                    status, {"q": q}, gt, config.seed))
    return rows


def _cmd_sev_check(config: RunConfig):
    import random

    from .fields import QQ
    from .linalg import rank
    from .rootsys import build_root_system, involution_conjugacy_classes
    from .sevslice import (EigenBasisChoice, check_max_length,
                           minus_one_eigenbasis, positive_system)
    from fractions import Fraction

    targets = ([(config.group_type, config.rank)]
               if config.group_type else
               [("A", 3), ("B", 3), ("B", 4), ("D", 4)])
    rows = []
    rng = random.Random(config.seed)
    for t, n in targets:
        system = build_root_system(t, n)
        classes = involution_conjugacy_classes(system)
        for idx, cls in enumerate(classes):
            w = cls[0]
            base = minus_one_eigenbasis(w)
            failures = []
            for trial in range(config.trials):
                # random invertible rational recombination of the eigenbasis
                r = len(base)
                while True:
                    coeffs = [[Fraction(rng.randint(-3, 3)) for _ in range(r)]
                              for _ in range(r)]
                    vecs = []
                    for row in coeffs:
                        v = tuple(
                            sum(c * b[i] for c, b in zip(row, base))
                            for i in range(system.dim))
                        vecs.append(v)
                    if rank(QQ, vecs) == r:
                        break
                choice = EigenBasisChoice(w, tuple(vecs))
                ps = positive_system(choice)
                inverted = set(ps.inverted_roots(w))
                psi = {root for root in system.roots
                       if w.apply_root(root) == root}
                unfixed_pos = set(ps.positive) - psi
                if inverted != unfixed_pos:
                    failures.append(f"trial {trial}: Phi+\\Psi mismatch")
                if not check_max_length(w, ps):
                    failures.append(f"trial {trial}: w not maximal")
            rows.append(_row(
                f"sevostyanov:{t}{n}:class{idx}",
                "pass" if not failures else "fail",
                {"type": t, "rank": n, "trials": config.trials,
                 "class_size": len(cls), "rk": len(base)},
                {"failures": failures}, config.seed))
    return rows


_ORACLE_GROUPS = {
    "sl2": ("SL", 1),
    "sl3": ("SL", 2),
    "sp4": ("Sp", 2),
    "so5": ("SO-odd", 2),
}


def _cmd_oracle(config: RunConfig):
    from .fforacle import (cell_partition_check, conjugacy_classes,
                           enumerate_group, verify_dimension_formula)

    if not config.sheet or config.sheet not in _ORACLE_GROUPS:
        raise SystemExit(
            f"oracle needs --group from {sorted(_ORACLE_GROUPS)}")
    label, rank = _ORACLE_GROUPS[config.sheet]
    q = config.q or 3
    rows = []
    group = enumerate_group(label, rank, q)
    rows.append(_row(
        f"enumeration:{config.sheet}:q{q}", "pass",
        {"q": q}, {"order": group.order}, config.seed))
    rep = cell_partition_check(group)
    rows.append(_row(
        f"bruhat-partition:{config.sheet}:q{q}",
        "pass" if rep["partition_total"] and rep["sizes_match"] else "fail",
        {"q": q}, rep, config.seed))
    classes = conjugacy_classes(group)
    for i, c in enumerate(sorted(classes, key=lambda c: (c.size, c.rep))):
        drep = verify_dimension_formula(group, c)
        rows.append(_row(
            f"dimension-formula:{config.sheet}:q{q}:class{i}",
            "pass" if drep.formula_consistent else "fail",
            {"q": q, "class_size": c.size},
            {
                "dim": drep.dim,
                "w_max": list(drep.w_max_word),
                "inequality": drep.inequality_holds,
                "equality_at_max": drep.equality_at_max,
                "spherical": drep.spherical_marked,
                "tag": drep.tag,
                "unique_max": drep.unique_max,
            }, config.seed))
    return rows


def _cmd_all(config: RunConfig):
    rows = []
    rows += _cmd_catalog(RunConfig("catalog", seed=config.seed))
    for t, n in [("B", 2), ("B", 3), ("C", 3), ("D", 4), ("E", 6), ("E", 7)]:
        sub = RunConfig("verify-slice", group_type=t, rank=n,
                        n_in=16, n_out=16, seed=config.seed)
        rows += _cmd_verify_slice(sub)
    rows += _cmd_sev_check(RunConfig("sev-check", group_type="B", rank=3,
                                     trials=5, seed=config.seed))
    from .sliceverify import (etype_root_checks, stratum_singularity_witness,
                              verify_equation_chain_Bn)

    chain = verify_equation_chain_Bn(2, (1, -1), (1, 1))
    rows.append(_row("equation-chain:B2", "pass" if chain.passed else "fail",
                     {"n": 2}, {"results": chain.results}, config.seed))
    for rk in (6, 7):
        er = etype_root_checks(rk)
        rows.append(_row(f"etype:E{rk}", "pass" if er.passed else "fail",
                         {}, {"checks": er.checks}, config.seed))
    for args in [("B", 2, "B2:unip(3,1^2)"), ("D", 5, "D5:R-thetaR"),
                 ("B", 3, "B3:S")]:
        wr = stratum_singularity_witness(*args)
        held = all(wr.details.get(key, True)
                   for key in ("both_members", "sign_twists_members"))
        rows.append(_row(f"witness:{args[2]}", "pass" if held else "fail",
                         {"type": args[0], "rank": args[1]},
                         {"witness": wr.witness, "details": wr.details},
                         config.seed))
    rows += _cmd_oracle(RunConfig("oracle", sheet="sl2", q=3,
                                  seed=config.seed))
    return rows


def format_text(rows) -> str:
    lines = []
    width = max((len(r["claim"]) for r in rows), default=10) + 2
    for r in rows:
        status = r["status"].upper()
        lines.append(f"{r['claim']:<{width}}{status}")
    n_fail = sum(1 for r in rows if r["status"] == "fail")
    n_caveat = sum(1 for r in rows if r["status"] == "caveat")
    lines.append(
        f"-- {len(rows)} claims: {len(rows) - n_fail - n_caveat} pass, "
        f"{n_caveat} caveat, {n_fail} fail")
    return "\n".join(lines)


def format_jsonl(rows) -> str:
    return "\n".join(
        json.dumps(r, sort_keys=True, default=str) for r in rows)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="weylslice",
        description="certify slice decompositions of spherical sheets")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--format", dest="fmt", choices=("text", "jsonl"),
                       default="text")
        p.add_argument("--output", default=None)

    p = sub.add_parser("catalog", help="list the sheet catalog")
    p.add_argument("--type", dest="group_type", default=None)
    p.add_argument("--rank", type=int, default=None)
    common(p)

    p = sub.add_parser("verify-slice", help="certify component structure")
    p.add_argument("--type", dest="group_type", required=True)
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--sheet", default=None)
    p.add_argument("--q", type=int, default=0)
    p.add_argument("--n-in", dest="n_in", type=int, default=64)
    p.add_argument("--n-out", dest="n_out", type=int, default=64)
    common(p)

    p = sub.add_parser("sev-check", help="positive-system property suite")
    p.add_argument("--type", dest="group_type", default=None)
    p.add_argument("--rank", type=int, default=None)
    p.add_argument("--trials", type=int, default=20)
    common(p)

    p = sub.add_parser("oracle", help="finite-group brute-force suites")
    p.add_argument("--group", dest="sheet", required=True,
                   choices=sorted(_ORACLE_GROUPS))
    p.add_argument("--q", type=int, default=3)
    common(p)

    p = sub.add_parser("all", help="desk-scale battery of every suite")
    common(p)

    args = parser.parse_args(argv)
    kwargs = {k: v for k, v in vars(args).items() if v is not None}
    config = RunConfig(**kwargs)
    status, rows = run(config)
    text = format_jsonl(rows) if config.fmt == "jsonl" else format_text(rows)
    if config.output:
        with open(config.output, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return status


if __name__ == "__main__":
    raise SystemExit(main())
