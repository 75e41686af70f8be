"""The benchmark's four workloads: their inputs, claim sets and known answers.

Every known answer is stated here, from the paper or from a closed formula,
and never read back from the code under test.  Each workload has

* ``setup(seed)``: build the inputs (imports, root systems, catalog
  descriptors, families, contexts); this is what ``setup_s`` times;
* ``run(inputs, seed, claims)``: one pass over the claim set, which records
  every verdict in ``claims`` and returns the pass's report bytes (or None).

The package is reached through module attributes at call time, so that a
traced pass sees the wrapped functions.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import traceback
from fractions import Fraction

import weylslice.families as families
import weylslice.fforacle as fforacle
import weylslice.fields as fields
import weylslice.linalg as linalg
import weylslice.matgroups as matgroups
import weylslice.reportcli as reportcli
import weylslice.rootsys as rootsys
import weylslice.sevslice as sevslice
import weylslice.sheetcat as sheetcat
import weylslice.sliceverify as sliceverify
import weylslice.toruslat as toruslat


class Claims:
    """Verdicts of one pass against the known answers.

    ``poison`` names one claim whose known answer is deliberately made wrong;
    the self-check uses it to show that the gate fails.  ``on_verdict`` is
    called before each verdict is recorded.
    """

    def __init__(self, poison: str | None = None, on_verdict=lambda: None):
        self.poison = poison
        self.on_verdict = on_verdict
        self.attempted = 0
        self.failed: list[str] = []

    def check(self, claim: str, observed, expected=True) -> None:
        self.on_verdict()
        self.attempted += 1
        if claim == self.poison:
            expected = _wrong(expected)
        if observed != expected:
            self.failed.append(f"{claim}: got {observed!r}, expected {expected!r}")

    def fail(self, claim: str, detail: str) -> None:
        self.on_verdict()
        self.attempted += 1
        self.failed.append(f"{claim}: {detail}")

    def guard(self, claim: str, fn, expected=True) -> None:
        """Check ``fn()`` against ``expected``; an exception fails the claim."""
        try:
            observed = fn()
        except Exception:
            self.fail(claim, "raised\n" + traceback.format_exc(limit=4))
            return
        self.check(claim, observed, expected)


def _wrong(answer):
    """A deliberately wrong version of a known answer."""
    if isinstance(answer, tuple):
        return (_wrong(answer[0]),) + answer[1:]
    return (not answer) if isinstance(answer, bool) else answer + 1


def _rank_q(rows) -> int:
    """Rank over Q by plain Gauss-Jordan elimination (the benchmark's own)."""
    m = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for col in range(len(m[0]) if m else 0):
        pivot = next((i for i in range(rank, len(m)) if m[i][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for i in range(len(m)):
            if i != rank and m[i][col]:
                f = m[i][col] / m[rank][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


# -- certify: criterion-1 component certificates ------------------------------

CERTIFY_Q = 1009
CERTIFY_SAMPLES = 8  # n_in = n_out per sheet

# (type, rank, sheet, components): the paper's component counts
CERTIFY_SHEETS = [
    ("B", 2, "S", 8), ("B", 3, "S", 32), ("B", 4, "S", 128),
    ("B", 2, "Sprime", 4), ("B", 3, "Sprime", 4), ("B", 4, "Sprime", 4),
    ("C", 3, "S1", 4), ("C", 4, "S1", 4),
    ("C", 3, "S2", 8), ("C", 4, "S2", 16),
    ("D", 4, "S", 4), ("D", 4, "Sprime", 4), ("D", 5, "Sprime", 4),
    ("E", 7, "S", 8),
]


def certify_setup(seed):
    field = fields.gf(CERTIFY_Q)
    sheets = []
    for t, n, label, count in CERTIFY_SHEETS:
        d = next(x for x in sheetcat.sheet_catalog(t, n) if x.label == label)
        families.build_family(d)  # builds the contexts and (cached) root systems
        sheets.append((f"{t}{n}:{label}", d, count))
    return field, sheets


def certify_run(inputs, seed, claims):
    field, sheets = inputs
    for name, d, count in sheets:
        def certify(d=d):
            cert = sliceverify.certify_components(
                d, field=field, n_in=CERTIFY_SAMPLES, n_out=CERTIFY_SAMPLES,
                seed=seed)
            return cert.found_components, cert.passed
        claims.guard(f"certify:{name}", certify, (count, True))


# -- oracle: criterion-2 dimension-formula sweep ------------------------------

# (label, rank, q, conjugacy classes, |W|); SL2(F_q) has q + 4 classes
ORACLE_GROUPS = [
    ("SL", 1, 3, 7, 2),
    ("SL", 1, 5, 9, 2),
    ("SL", 2, 3, 12, 6),
]


def sl_order(n: int, q: int) -> int:
    """|SL_n(F_q)| = q^(n(n-1)/2) * prod_{i=2..n} (q^i - 1)."""
    out = q ** (n * (n - 1) // 2)
    for i in range(2, n + 1):
        out *= q ** i - 1
    return out


def oracle_setup(seed):
    for label, rank, q, _, _ in ORACLE_GROUPS:
        fields.gf(q)
        matgroups.GroupContext(label, rank)
    return None


def oracle_run(inputs, seed, claims):
    for label, rank, q, n_classes, weyl in ORACLE_GROUPS:
        name = f"oracle:{label}{rank + 1}(F_{q})"
        try:
            group = fforacle.enumerate_group(label, rank, q)
            classes = fforacle.conjugacy_classes(group)
        except Exception:
            claims.fail(f"{name}:enumerate", traceback.format_exc(limit=4))
            continue
        claims.check(f"{name}:order", (group.order, len(group.elements)),
                     (sl_order(rank + 1, q),) * 2)
        claims.check(f"{name}:classes",
                     (len(classes), sum(c.size for c in classes)),
                     (n_classes, sl_order(rank + 1, q)))

        def cells():
            rep = fforacle.cell_partition_check(group)
            return rep["cells"], rep["partition_total"], rep["sizes_match"]
        claims.guard(f"{name}:cells", cells, (weyl, True, True))
        for i, c in enumerate(sorted(classes, key=lambda c: (c.size, c.rep))):
            def dimension(c=c):
                rep = fforacle.verify_dimension_formula(group, c)
                return (rep.inequality_holds,
                        rep.equality_at_max == rep.spherical_marked,
                        rep.unique_max,
                        rep.expected_w_matches is not False)
            claims.guard(f"{name}:dimension:class{i}", dimension,
                         (True, True, True, True))


# -- weyl: Weyl-group orbits, Sevostyanov systems, Gamma_w --------------------

WEYL_ORBITS = [("F", 4, 1152), ("B", 5, 3840)]  # |W| from the degrees
SEV_TYPES = [("A", 3), ("B", 3), ("B", 4), ("D", 4)]
SEV_TRIALS = 5  # random eigenbases per involution class
GAMMA_TYPES = [("A", 3), ("B", 2), ("B", 3), ("B", 4), ("C", 3), ("C", 4),
               ("D", 4)]


def weyl_setup(seed):
    systems = {(t, n): rootsys.build_root_system(t, n)
               for t, n in [o[:2] for o in WEYL_ORBITS] + SEV_TYPES}
    for rank in (6, 7):
        rootsys.build_root_system("E", rank)
    sheets = [(t, n, d) for t, n in GAMMA_TYPES
              for d in sheetcat.sheet_catalog(t, n)]
    return systems, sheets


def _sevostyanov_class(system, w, rng):
    """Property suite on SEV_TRIALS random eigenbases of one class rep."""
    base = sevslice.minus_one_eigenbasis(w)
    r = len(base)
    psi = set(sevslice.fixed_roots(w))
    for _ in range(SEV_TRIALS):
        while True:
            rows = [[Fraction(rng.randint(-3, 3)) for _ in range(r)]
                    for _ in range(r)]
            vecs = [tuple(sum(c * b[i] for c, b in zip(row, base))
                          for i in range(system.dim)) for row in rows]
            if _rank_q(vecs) == r:
                break
        ps = sevslice.positive_system(sevslice.EigenBasisChoice(w, tuple(vecs)))
        ps.validate()
        unfixed = set(ps.positive) - psi
        inverted = {root for root in ps.positive
                    if w.apply_root(root) not in ps.positive}
        if unfixed != inverted or not sevslice.check_max_length(w, ps):
            return False
    return True


def _gamma_order(system, w, iso):
    """(|Gamma_w|, 4^rk(1-w)) with the rank from the benchmark's elimination."""
    torus = toruslat.TorusData(system, w, iso)
    shape, _ = toruslat.gamma_w(torus)
    n = torus.n
    one_minus = [[(i == j) - torus.action[i][j] for j in range(n)]
                 for i in range(n)]
    return shape.order, 4 ** _rank_q(one_minus)


def weyl_run(inputs, seed, claims):
    systems, sheets = inputs
    for t, n, order in WEYL_ORBITS:
        claims.guard(f"weyl:orbit:{t}{n}",
                     systems[(t, n)].weyl_order_by_orbit, order)
    rng = random.Random(seed)
    for t, n in SEV_TYPES:
        system = systems[(t, n)]
        try:
            classes = rootsys.involution_conjugacy_classes(system)
        except Exception:
            claims.fail(f"weyl:sev:{t}{n}", traceback.format_exc(limit=4))
            continue
        for i, cls in enumerate(classes):
            claims.guard(f"weyl:sev:{t}{n}:class{i}",
                         lambda: _sevostyanov_class(system, cls[0], rng))
    for t, n, d in sheets:
        for iso in ("sc", "ad"):
            def gamma(d=d, iso=iso):
                order, expected = _gamma_order(d.weyl_system(), d.w_S(), iso)
                return order == expected
            claims.guard(f"weyl:gamma:{t}{n}:{d.label}:{iso}", gamma)
    for rank in (6, 7):
        def etype(rank=rank):
            rep = sliceverify.etype_root_checks(rank)
            oks = [ok for name, ok in rep.checks if "Gamma" in name]
            return bool(oks) and all(oks)
        claims.guard(f"weyl:gamma:E{rank}", etype)


# -- battery: `weylslice all` plus the criterion-5 slice-orbit suite ----------

ALL_ROWS = 88  # rows of `weylslice all`, every one passing


def battery_setup(seed):
    f5 = fields.gf(5)
    ctx = matgroups.GroupContext("Sp", 2)
    c2 = rootsys.build_root_system("C", 2)
    w0 = rootsys.longest_element(c2, range(2))
    long_root = c2.highest_root()
    s_long = c2.reflection(long_root)
    wd = ((0, 0, 1, 0), (0, 0, 0, 1), (4, 0, 0, 0), (0, 4, 0, 0))
    two_eps2 = (Fraction(0), Fraction(2))
    sigma = ctx.torus(f5, [4, 1])
    x_long = ctx.root_element(f5, long_root, 1)
    sp4_cases = [
        ("O_lambda(2,2)", ctx.torus(f5, [2, 2]), w0, wd),
        ("O_lambda,1", ctx.torus(f5, [2, 1]), w0, wd),
        ("(2^2) unip", linalg.mat_mul(
            f5, x_long, ctx.root_element(f5, two_eps2, 1)), w0, wd),
        ("transvection sq", x_long, s_long, None),
        ("transvection nonsq", ctx.root_element(f5, long_root, 2), s_long,
         None),
        ("mixed sigma*x(1)", linalg.mat_mul(f5, sigma, x_long), w0, wd),
    ]
    w_s = sheetcat.catalog_w_S("A", 2, "S_1")
    fam = families.AFamily(2, 1)
    sl3 = []
    for q in (3, 5, 7):
        fq = fields.gf(q)
        ext = fields.gf(q * q)
        a = 2 if q in (3, 5) else 3
        b = pow(a, -2, q)
        sl3.append((q, ext, fam.representative(fq), a, b))
    return f5, ctx, sigma, sp4_cases, w_s, fam, sl3


def _orbit_ok(r):
    return r.nonempty and r.gamma_closed and r.gamma_transitive


def battery_run(inputs, seed, claims):
    f5, ctx, sigma, sp4_cases, w_s, fam, sl3 = inputs
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            status = reportcli.main(
                ["all", "--format", "jsonl", "--seed", str(seed)])
    except Exception:
        status = "raised"
        claims.fail("battery:all", traceback.format_exc(limit=4))
    report = out.getvalue()
    rows = [json.loads(line) for line in report.splitlines() if line]
    claims.check("battery:all:exit", status, 0)
    claims.check("battery:all:rows", len(rows), ALL_ROWS)
    for row in rows:
        claims.check(f"battery:all:{row['claim']}", row["status"] != "fail")
    for name, rep, w, wd in sp4_cases:
        claims.guard(f"battery:sp4:{name}", lambda: _orbit_ok(
            fforacle.slice_orbit_check("Sp", 2, 5, rep, w, wdot=wd)))

    def sigma_class():
        cls = fforacle.expand_class(ctx, f5, sigma)
        wrep = fforacle.w_of_class(ctx, f5, cls)
        return _orbit_ok(fforacle.slice_orbit_check("Sp", 2, 5, sigma,
                                                    wrep.w_max))
    claims.guard("battery:sp4:sigma class", sigma_class)
    unip = ((1, 0, 1), (0, 1, 0), (0, 0, 1))
    for q, ext, wd, a, b in sl3:
        claims.guard(f"battery:sl3:q{q}:unip", lambda: _orbit_ok(
            fforacle.slice_orbit_check("SL", 2, q, unip, w_s, wdot=wd)))

        def semisimple():
            ss = ((a, 0, 0), (0, a, 0), (0, 0, b))
            # propose the catalog point over F_{q^2}: a^2 = b*a may be a
            # non-residue, so the rational intersection can be empty
            props = []
            root = ext.sqrt(ext.mul(ext.of(b), ext.of(a)))
            if root is not None:
                props.append(fam.components()[0].point(ext, (root, ext.of(a))))
            return _orbit_ok(fforacle.slice_orbit_check(
                "SL", 2, q, ss, w_s, wdot=wd, proposals=tuple(props)))
        claims.guard(f"battery:sl3:q{q}:ss", semisimple)
    return report.encode()


WORKLOADS = {
    "certify": (certify_setup, certify_run),
    "oracle": (oracle_setup, oracle_run),
    "weyl": (weyl_setup, weyl_run),
    "battery": (battery_setup, battery_run),
}
