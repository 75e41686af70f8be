"""One benchmark pass in a fresh process; prints one JSON line.

The pass builds the workload's inputs, reports how long after its spawn the
inputs were ready, then (unless --setup-only) runs the workload's claim set
once, checks every verdict and reports wall time, CPU time, peak RSS and the
claims that failed.  With --trace it wraps the package first and adds the
per-layer metrics of the pass.

Times are also reported in reference seconds.  The speed of the shared host
drifts by tens of percent over seconds to minutes, so a fixed integer loop
(the probe) is timed after set-up, before the pass, between verdicts and
after the pass; each stretch of the pass is scaled by the probe time at its
two ends.  One reference second is a second on a host where the probe takes
PROBE_REF_S.

    python3 perfbench/passrun.py --workload certify --seed 0 \\
        --spawned-at "$(python3 -c 'import time; print(time.monotonic())')"
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import sys
import time

PROBE_LOOPS = 20_000
PROBE_REF_S = 0.002


class SpeedProbe:
    """Times the probe loop; keeps (start, end) of every probe."""

    def __init__(self):
        self.marks: list[tuple[float, float]] = []

    def tick(self) -> None:
        start = time.perf_counter()
        x = 1
        for i in range(PROBE_LOOPS):
            x = (x * 7919 + i) % 1_000_003
        self.marks.append((start, time.perf_counter()))

    def durations(self) -> list[float]:
        return [end - start for start, end in self.marks]

    def stretches(self) -> tuple[float, float]:
        """(wall s, reference s) of the time between consecutive probes."""
        wall = ref = 0.0
        for (s0, e0), (s1, e1) in zip(self.marks, self.marks[1:]):
            wall += s1 - e0
            ref += (s1 - e0) * PROBE_REF_S / ((e0 - s0 + e1 - s1) / 2)
        return wall, ref


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--spawned-at", type=float, required=True,
                    help="time.monotonic() of the parent just before spawning")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--poison", default=None)
    args = ap.parse_args(argv)

    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    import weylslice

    if not os.path.abspath(weylslice.__file__).startswith(src + os.sep):
        raise SystemExit(f"weylslice imported from {weylslice.__file__}, "
                         f"not from {src}")
    import tracer as tracing
    import workloads

    tr = None
    if args.trace:
        tr = tracing.Tracer()
        tracing.install(tr, extra_modules=[workloads])
    setup, run = workloads.WORKLOADS[args.workload]
    inputs = setup(args.seed)
    setup_wall = time.monotonic() - args.spawned_at
    probe = SpeedProbe()
    for _ in range(3):
        probe.tick()
    out = {"setup_wall_s": setup_wall,
           "setup_s": setup_wall * PROBE_REF_S / statistics.mean(
               probe.durations())}
    if not args.setup_only:
        probe = SpeedProbe()
        claims = workloads.Claims(args.poison, on_verdict=probe.tick)
        probe.tick()
        if tr is not None:
            tr.active = True
        cpu0 = time.process_time()
        report = run(inputs, args.seed, claims)
        if tr is not None:
            tr.active = False
        probe.tick()
        cpu_s = time.process_time() - cpu0 - sum(probe.durations()[1:-1])
        run_wall, run_ref = probe.stretches()
        out.update(
            run_wall_s=run_wall,
            run_s=run_ref,
            probe_s=statistics.median(probe.durations()),
            wait_s=run_wall - cpu_s,
            rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            attempted=claims.attempted,
            failed=claims.failed,
            report_sha=hashlib.sha256(report).hexdigest() if report else None,
        )
        if tr is not None:
            import run as bench

            names = [n for n, _, _ in bench.PER_LAYER if n not in bench.HARNESS]
            out["layers"] = {n: tracing.metric_value(tr, n) for n in names}
            out["unknown"] = tracing.unknown_functions(tr, names)
            out["aliases"] = dict(sorted(tr.aliases.items()))
            out["top_self"] = tracing.top_self(tr)
    sys.stdout.write("\n" + json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
