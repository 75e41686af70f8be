"""weylslice benchmark: run one workload for a while and print its metrics.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 25 --trace 0

Every pass runs in a fresh process (perfbench/passrun.py), so module caches
and lru_caches start cold as they do for each `weylslice` invocation.  With
--trace 0 the run spawns a few set-up-only processes, then untraced passes
for about --seconds, and reports the end-to-end metrics as medians; times
are in reference seconds (see passrun.py).  With --trace 1 it alternates
untraced and traced passes and reports the per-layer metrics.  Every verdict is checked against the known answers in
workloads.py; the last stdout line is the result object, and the exit status
is nonzero when any claim failed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
PASSRUN = os.path.join(HERE, "passrun.py")

WORKLOADS = ("certify", "oracle", "weyl", "battery")  # see workloads.py
SETUP_SPAWNS = 3       # set-up-only processes per untraced run
PASS_TIMEOUT_S = 170

# (name, unit, better)
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("run_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]

PER_LAYER = [
    ("fields.self_s", "s", "lower"),
    ("fields.sqrt.calls", "count", "lower"),
    ("fields.sqrt.self_s", "s", "lower"),
    ("linalg.self_s", "s", "lower"),
    ("linalg.fp.self_s", "s", "lower"),
    ("linalg.ext.self_s", "s", "lower"),
    ("linalg.qq.self_s", "s", "lower"),
    ("linalg.mat_mul.calls", "count", "lower"),
    ("linalg.mat_mul.self_s", "s", "lower"),
    ("linalg.rank.calls", "count", "lower"),
    ("linalg.rank.self_s", "s", "lower"),
    ("linalg.inverse.calls", "count", "lower"),
    ("linalg.charpoly.calls", "count", "lower"),
    ("linalg.mat_pow.calls", "count", "lower"),
    ("linalg.mat_pow.products_per_call", "ratio", "lower"),
    ("matgroups.self_s", "s", "lower"),
    ("matgroups.bruhat_word.calls", "count", "lower"),
    ("matgroups.bruhat_word.self_s", "s", "lower"),
    ("matgroups.bruhat_word.per_element", "ratio", "lower"),
    ("matgroups.in_group.calls", "count", "lower"),
    ("matgroups.in_group.from_bruhat_word", "count", "lower"),
    ("matgroups.class_dimension.self_s", "s", "lower"),
    ("rootsys.self_s", "s", "lower"),
    ("rootsys.reflect.calls", "count", "lower"),
    ("rootsys.weyl_order_by_orbit.self_s", "s", "lower"),
    ("rootsys.conjugacy_class.calls", "count", "lower"),
    ("rootsys.conjugacy_class.self_s", "s", "lower"),
    ("rootsys.bruhat_leq.calls", "count", "lower"),
    ("rootsys.length.calls", "count", "lower"),
    ("toruslat.self_s", "s", "lower"),
    ("toruslat.gamma_w.calls", "count", "lower"),
    ("toruslat.smith_normal_form.calls", "count", "lower"),
    ("sevslice.self_s", "s", "lower"),
    ("sevslice.positive_system.calls", "count", "lower"),
    ("sevslice.check_max_length.self_s", "s", "lower"),
    ("sheetcat.self_s", "s", "lower"),
    ("sheetcat.sheet_catalog.calls", "count", "lower"),
    ("sheetcat.classify_spherical.self_s", "s", "lower"),
    ("families.self_s", "s", "lower"),
    ("families.membership.calls", "count", "lower"),
    ("families.membership.self_s", "s", "lower"),
    ("families.point.calls", "count", "lower"),
    ("families.point.errors", "count", "lower"),
    ("sliceverify.self_s", "s", "lower"),
    ("sliceverify.certify_components.self_s", "s", "lower"),
    ("sliceverify.in_samples_checked_ratio", "ratio", "higher"),
    ("sliceverify.equation_chain.self_s", "s", "lower"),
    ("sliceverify.gamma_checks.self_s", "s", "lower"),
    ("fforacle.self_s", "s", "lower"),
    ("fforacle.enumerate_group.self_s", "s", "lower"),
    ("fforacle.conjugacy_classes.self_s", "s", "lower"),
    ("fforacle.cell_partition_check.self_s", "s", "lower"),
    ("fforacle.verify_dimension_formula.self_s", "s", "lower"),
    ("fforacle.expand_class.self_s", "s", "lower"),
    ("fforacle.slice_orbit_check.self_s", "s", "lower"),
    ("fforacle.elements", "count", "higher"),
    ("fforacle.escalations", "count", "lower"),
    ("reportcli.self_s", "s", "lower"),
    ("reportcli.rows", "count", "higher"),
    ("harness.run_wall_s", "s", "lower"),
    ("harness.wait_s", "s", "lower"),
    ("harness.trace_overhead_ratio", "ratio", "lower"),
]

HARNESS = ("harness.run_wall_s", "harness.wait_s",
           "harness.trace_overhead_ratio")


class PassError(RuntimeError):
    pass


def spawn(workload: str, seed: int, *flags: str) -> dict:
    """Run one pass (or set-up) in a fresh interpreter and parse its report."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    t = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, PASSRUN, "--workload", workload, "--seed",
             str(seed), "--spawned-at", repr(t), *flags],
            cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise PassError(f"{workload} pass exceeded {PASS_TIMEOUT_S} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise PassError(f"{workload} pass exited {proc.returncode}:\n"
                        f"{proc.stderr[-3000:]}")
    return json.loads(lines[-1])


def git_revision() -> str:
    """HEAD of the checkout's .git directory, read without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest() -> str:
    """sha256 over the package sources: names the code when .git is absent."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in sorted(os.walk(SRC)):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, SRC).encode() + b"\0")
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def machine_stamp(seed: int) -> dict:
    return {
        "git_revision": git_revision(),
        "source_sha256": source_digest(),
        "seed": seed,
        "python": platform.python_version(),
        "cpu_model": cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg": [round(x, 2) for x in os.getloadavg()],
    }


def repeat(seconds: float, step) -> None:
    """Call step() at least once, and again while the next call, taking as
    long as the last one, would end within `seconds` of the first."""
    start = time.monotonic()
    while True:
        t = time.monotonic()
        step()
        now = time.monotonic()
        if now - start + (now - t) > seconds:
            return


def end_to_end(workload: str, seed: int, seconds: float, poison) -> tuple:
    extra = ("--poison", poison) if poison else ()
    setups = [spawn(workload, seed, "--setup-only", *extra)
              for _ in range(SETUP_SPAWNS)]
    passes = []
    repeat(seconds, lambda: passes.append(spawn(workload, seed, *extra)))
    setups += passes
    metrics = {
        "setup_s": statistics.median(p["setup_s"] for p in setups),
        "run_s": statistics.median(p["run_s"] for p in passes),
        "peak_rss_mb": statistics.median(p["rss_mb"] for p in passes),
    }
    detail = {
        "setup_samples": len(setups),
        "setup_wall_s": statistics.median(p["setup_wall_s"] for p in setups),
        "run_wall_s": statistics.median(p["run_wall_s"] for p in passes),
        "probe_s": statistics.median(p["probe_s"] for p in passes),
        "run_s_samples": [round(p["run_s"], 4) for p in passes],
        "run_wall_s_samples": [round(p["run_wall_s"], 4) for p in passes],
    }
    return metrics, passes, detail


def per_layer(workload: str, seed: int, seconds: float, poison) -> tuple:
    extra = ("--poison", poison) if poison else ()
    names = [n for n, _, _ in PER_LAYER if n not in HARNESS]
    plain, traced = [], []

    def pair():
        plain.append(spawn(workload, seed, *extra))
        traced.append(spawn(workload, seed, "--trace", *extra))

    repeat(seconds, pair)
    units = {n: u for n, u, _ in PER_LAYER}
    metrics, unsteady = {}, []
    for name in names:
        values = [p["layers"][name] for p in traced]
        if units[name] == "s":
            metrics[name] = statistics.median(values)
        else:  # counts, and ratios of counts, repeat exactly between passes
            metrics[name] = values[0]
            if any(v != values[0] for v in values):
                unsteady.append(name)
    plain_run = statistics.median(p["run_s"] for p in plain)
    metrics["harness.run_wall_s"] = statistics.median(
        p["run_wall_s"] for p in plain)
    metrics["harness.wait_s"] = statistics.median(p["wait_s"] for p in plain)
    metrics["harness.trace_overhead_ratio"] = statistics.median(
        p["run_s"] for p in traced) / plain_run
    detail = {
        "passes": {"untraced": len(plain), "traced": len(traced)},
        "aliases_per_layer": traced[0]["aliases"],
        "top_self_s": traced[0]["top_self"],
        "metrics_without_function": traced[0]["unknown"],
        "counts_not_repeating": unsteady,
    }
    return metrics, plain + traced, detail


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--poison", default=None,
                    help="claim whose known answer is made wrong (self-check)")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "weylslice", "__init__.py")):
        print(f"no weylslice sources under {SRC}", file=sys.stderr)
        return 2
    stamp = machine_stamp(args.seed)
    measure = per_layer if args.trace else end_to_end
    try:
        metrics, passes, detail = measure(args.workload, args.seed,
                                          args.seconds, args.poison)
    except PassError as exc:
        print(exc, file=sys.stderr)
        return 3

    attempted = sum(p["attempted"] for p in passes)
    failures = [f for p in passes for f in p["failed"]]
    shas = {p["report_sha"] for p in passes if p["report_sha"]}
    if shas:  # the report must be byte-identical across (traced) passes
        attempted += 1
        if len(shas) > 1:
            failures.append("report bytes differ between passes")
    for f in failures[:5]:
        print("FAILED", f, file=sys.stderr)
    detail["claim_fail_ratio"] = len(failures) / attempted
    units = {n: u for n, u, _ in END_TO_END + PER_LAYER}
    print(json.dumps({"stamp": stamp, "workload": args.workload,
                      "detail": detail}))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {n: {"value": v, "unit": units[n]}
                    for n, v in metrics.items()},
    }))
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
