"""One workload in a fresh interpreter; started by run.py, not by hand.

    python perfbench/worker.py --workload W --seed S --seconds T --trace 0|1
        [--cycles N] --out RESULT.json --workdir DIR

Runs whole cycles of the workload while the next one is predicted to end
within T seconds (at least one), or exactly N cycles when --cycles is
given.  Unit times are summed, raw and in reference seconds (speed.py),
and their p50 and p90 are taken per cycle.  With --trace 1 the calls into the package are traced (see
tracer.py) and the summary and spans are written next to the result.
"""

from __future__ import annotations

import argparse
import json
import os
import time
from contextlib import nullcontext

from speed import SpeedProbe, StartupProbe
from tracer import Tracer, merge
from verify import Tally, percentile
from workloads import WORKLOADS


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--cycles", type=int)
    p.add_argument("--out", required=True)
    p.add_argument("--workdir", required=True)
    args = p.parse_args(argv)
    if "GQ_DEFAULT_TRIALS" in os.environ:
        raise SystemExit("GQ_DEFAULT_TRIALS must not reach the worker")

    import greenquadrics

    traced = bool(args.trace)
    workload = WORKLOADS[args.workload](args.seed, args.workdir, traced)
    tracer = Tracer() if traced and args.workload != "cli" else None
    if tracer is not None:
        tracer.install()
    quiet = tracer.paused if tracer is not None else nullcontext

    tally = Tally()
    cycles = 0
    # sums and per-cycle percentiles only, so that the bookkeeping of a
    # long run does not grow the worker's peak memory
    busy = raw_busy = timed = 0.0
    stats = {"p50": [], "p90": [], "raw_p50": [], "raw_p90": []}
    unit_raw_ms = []  # kept for the traced run's cli.run_ms
    perf = time.perf_counter
    probe = SpeedProbe() if workload.in_process else StartupProbe()
    with probe:
        start = perf()
        while True:
            spans = []  # (start, end, raw seconds) of each unit of the cycle
            for unit in workload.cycle():
                probe.between_units()
                spent = probe.spent
                t0 = perf()
                output = workload.run(unit)
                t1 = perf()
                spans.append((t0, t1, t1 - t0 - (probe.spent - spent)))
                with quiet():
                    tally.extend(workload.verify(unit, output))
            raw_ms = [r * 1e3 for _, _, r in spans]
            lat_ms = [r * 1e3 / probe.slowdown(a, b) for a, b, r in spans]
            busy += sum(lat_ms) / 1e3
            raw_busy += sum(raw_ms) / 1e3
            timed += sum(b - a for a, b, _ in spans)
            stats["p50"].append(percentile(lat_ms, 50))
            stats["p90"].append(percentile(lat_ms, 90))
            stats["raw_p50"].append(percentile(raw_ms, 50))
            stats["raw_p90"].append(percentile(raw_ms, 90))
            if traced:
                unit_raw_ms += raw_ms
            cycles += 1
            elapsed = perf() - start
            if args.cycles is not None:
                if cycles >= args.cycles:
                    break
            elif elapsed * (cycles + 1) / cycles > args.seconds:
                break
        wall = perf() - start

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "lane": getattr(greenquadrics, "LANE", None),
        "input_size": workload.input_size(),
        "cycles": cycles,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "errors": tally.errors,
        "busy_s": busy,  # reference seconds
        "raw_busy_s": raw_busy,
        "timed_s": timed,  # raw, the speed probe's time included
        "cycle_latency_ms": stats,
        "slowdown": probe.mean_slowdown(),
        "wall_s": wall,
    }
    if traced:
        if tracer is not None:
            tracer.uninstall()
            summary, groups = tracer.summary(), [tracer.spans()]
            run_ms = unit_raw_ms if args.workload in ("check", "export") else []
        else:  # cli: one summary per traced process
            summary = merge(workload.summaries)
            groups = [s["spans"] for s in workload.summaries]
            run_ms = [s["run_ms"] for s in workload.summaries]
        result.update(
            trace_summary=summary,
            run_ms=run_ms,
            suite_s=suite_seconds(summary),
            bytes_written=getattr(workload, "bytes_written", 0),
        )
        with open(os.path.splitext(args.out)[0] + "-spans.tsv", "w") as fh:
            fh.write("process\tindex\tname\tstart\tend\tparent\n")
            for proc, spans in enumerate(groups):
                for i, (name, t0, t1, parent) in enumerate(spans):
                    fh.write(f"{proc}\t{i}\t{name}\t{t0:.9f}\t{t1:.9f}\t{parent}\n")
    with open(args.out, "w") as fh:
        json.dump(result, fh)
    return 0


def suite_seconds(summary) -> dict:
    """Span time of each check suite, from its check functions' spans."""
    from greenquadrics import checks

    fn_time = summary["fn_time"]
    return {
        suite: sum(fn_time.get(f"checks.{fn.__qualname__}", 0.0) for fn in fns)
        for suite, fns in checks.SUITES.items()
    }


if __name__ == "__main__":
    raise SystemExit(main())
