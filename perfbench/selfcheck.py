"""Self-checks of the benchmark itself (about 30 s).

    python3 perfbench/selfcheck.py

1. BENCHMARK.json lists exactly the workloads and metrics run.py reports.
2. The gate fails: with one known answer deliberately made wrong, run.py
   reports the claim as failed and exits nonzero.
3. The tracer rebinds aliases, and its coverage check catches an unwrapped one.
4. Count metrics repeat exactly between two traced passes at the same seed.
5. Without the program's sources, run.py exits nonzero and prints no result.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

import run


class CheckFailed(AssertionError):
    pass


def expect(condition, detail) -> None:
    """Like assert, but kept under python -O."""
    if not condition:
        raise CheckFailed(detail)


def check_manifest():
    import workloads

    expect(tuple(workloads.WORKLOADS) == run.WORKLOADS, workloads.WORKLOADS)
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    expect(tuple(w["name"] for w in spec["workloads"]) == run.WORKLOADS,
           spec["workloads"])
    for key, listed in (("end_to_end", run.END_TO_END),
                        ("per_layer", run.PER_LAYER)):
        expect([(m["name"], m["unit"], m["better"]) for m in spec[key]]
               == listed, key)


def check_poisoned_answer():
    claim = "oracle:SL2(F_3):classes"
    proc = subprocess.run(
        [sys.executable, os.path.join(run.HERE, "run.py"), "--workload",
         "oracle", "--seed", "0", "--seconds", "0", "--trace", "0",
         "--poison", claim], cwd=run.ROOT, capture_output=True, text=True,
        timeout=170)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    expect(proc.returncode == 1, proc.returncode)
    expect(result["correct"] is False and result["failed"] == 1, result)
    expect(claim in proc.stderr, proc.stderr)


def check_coverage():
    import tracer
    import weylslice.families as families
    import weylslice.linalg as linalg

    original, original_rank = linalg.mat_mul, linalg.rank
    t = tracer.Tracer()
    tracer.install(t)
    expect(families.mat_mul is linalg.mat_mul is not original, "mat_mul")
    expect(families.mat_rank is linalg.rank is not original_rank,
           "renamed alias mat_rank")
    expect(t.aliases["linalg"] > 0, t.aliases)
    families._stale_alias = original
    try:
        missing = tracer.find_unwrapped(t, tracer._scope(()))
        expect(missing == ["weylslice.families._stale_alias"], missing)
    finally:
        del families._stale_alias


def check_counts_repeat():
    names = [n for n, u, _ in run.PER_LAYER
             if u != "s" and n not in run.HARNESS]
    a, b = (run.spawn("oracle", 0, "--trace") for _ in range(2))
    expect(all(a["layers"][n] == b["layers"][n] for n in names), (a, b))
    expect(a["layers"]["matgroups.bruhat_word.per_element"] > 0, a["layers"])


def check_without_sources():
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp)
        shutil.copytree(run.HERE, os.path.join(tmp, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "certify",
             "--seed", "0", "--seconds", "1", "--trace", "0"],
            cwd=tmp, capture_output=True, text=True, timeout=170)
    expect(proc.returncode != 0 and not proc.stdout.strip(), proc)


def main() -> int:
    sys.path.insert(0, run.SRC)
    for check in (check_manifest, check_poisoned_answer, check_coverage,
                  check_counts_repeat, check_without_sources):
        check()
        print(f"ok {check.__name__}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
