#!/usr/bin/env python3
"""The greenquadrics benchmark: one workload, one run, every metric.

    python3 perfbench/run.py --workload {check,cli,export,wide} --seed N
                             --seconds T --trace {0,1}
    python3 perfbench/run.py --write-manifest     # regenerate BENCHMARK.json

Run from the repository root.  The package is imported from `src/` (it
need not be installed).  Each workload runs in a fresh worker interpreter,
one at a time, single-threaded, with a hermetic environment: every `GQ_*`
and `PYTHON*` variable is dropped, `PYTHONPATH` is `src`.

--trace 0 prints the end-to-end metrics; --trace 1 runs the workload for
T/2 seconds untraced, then the same number of cycles traced, and prints
the per-layer metrics.  Times are rescaled to reference seconds by the
machine-speed probe in speed.py; the raw times stay in the run record.  The last line of standard output is the result:
{"correct", "attempted", "failed", "metrics"}; the lines before it are a
run header and the metrics as a table.  The full record, with the header
and any verification errors, goes to perfbench/out/.  Exit status: 0 when
every output verified, 1 when any did not, 2 when the package source is
missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import spec  # noqa: E402
from speed import NOMINAL_S, bare_start_s  # noqa: E402

OUT = HERE / "out"
RUN_TIMEOUT_S = 165.0  # workers are killed after this; the run must end within 180 s
IMPORT_SAMPLES = 11


def hermetic_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith(("GQ_", "PYTHON"))}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def import_seconds(env, n: int, warm: bool = False) -> list[float]:
    """Time `import greenquadrics.cli` in n fresh interpreters, in reference
    seconds; unless `warm`, one unmeasured import first fills the bytecode
    cache."""
    times = []
    for i in range(n + (not warm)):
        proc = subprocess.run(
            [sys.executable, str(HERE / "speed.py"), "import-probe"], env=env, cwd=ROOT,
            capture_output=True, text=True, timeout=60, check=True,
        )
        if i or warm:
            elapsed, ref = map(float, proc.stdout.split())
            times.append(elapsed * NOMINAL_S / ref)
    return times


def run_worker(workload, seed, env, name: str, seconds: float, trace: int, deadline, cycles=None):
    """Run worker.py to completion, or kill it at `deadline` (monotonic);
    returns (result or None, peak RSS in MB)."""
    out = OUT / f"{workload}-{name}.json"
    workdir = OUT / f"work-{workload}"
    workdir.mkdir(parents=True, exist_ok=True)
    if out.exists():
        out.unlink()
    argv = [
        sys.executable, str(HERE / "worker.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
        "--out", str(out), "--workdir", str(workdir),
    ]
    if cycles is not None:
        argv += ["--cycles", str(cycles)]
    proc = subprocess.Popen(argv, env=env, cwd=ROOT, stdout=sys.stderr, start_new_session=True)
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if time.monotonic() > deadline:
            os.killpg(proc.pid, 9)
            pid, status, usage = os.wait4(proc.pid, 0)
            break
        time.sleep(0.02)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0 or not out.exists():
        print(f"worker {name} exited {proc.returncode}", file=sys.stderr)
        return None, 0.0
    with open(out) as fh:
        return json.load(fh), usage.ru_maxrss / 1024.0


def end_to_end(res, rss_mb, setup) -> dict:
    lat = res["cycle_latency_ms"]
    return {
        "ops_per_s": res["attempted"] / res["busy_s"],
        "latency_ms_p50": statistics.median(lat["p50"]),
        "latency_ms_p90": statistics.median(lat["p90"]),
        "peak_rss_mb": rss_mb,
        "setup_s": statistics.median(setup),
    }


def per_layer(plain, traced, interp_ms, import_ms) -> dict:
    s = traced["trace_summary"]
    calls, edges = s["fn_calls"], s["edges"]
    values = {}
    for layer in spec.LAYERS:
        n, self_s = s["layer_spans"][layer], s["layer_self"][layer]
        values[f"{layer}.calls"] = n
        values[f"{layer}.self_s"] = self_s
        values[f"{layer}.us_per_call"] = self_s / n * 1e6 if n else 0.0
    values["mat2.max_bits"] = s["max_bits"]
    draws = edges.get("sampling.rand_invertible>sampling.rand_mat", 0)
    values["sampling.accept_ratio"] = calls.get("sampling.rand_invertible", 0) / draws if draws else 0.0
    nat = calls.get("semigroup.natural_le", 0)
    solved = edges.get("semigroup.natural_le>linear.solve_linear", 0)
    values["semigroup.solve_share"] = solved / nat if nat else 0.0
    for suite in spec.CHECK_SUITES:
        values[f"checks.{suite}_s"] = traced["suite_s"].get(suite, 0.0)
    values["checks.trials"] = traced["attempted"] if traced["workload"] == "check" else 0
    fn_time = s["fn_time"]
    values["surfaces.sample_s"] = fn_time.get("surfaces.sample_surface", 0.0)
    values["surfaces.write_s"] = fn_time.get("surfaces.write_csv", 0.0) + fn_time.get("surfaces.write_obj", 0.0)
    values["surfaces.bytes_written"] = traced["bytes_written"]
    values["cli.interp_ms"] = interp_ms
    values["cli.import_ms"] = import_ms
    values["cli.run_ms"] = statistics.median(traced["run_ms"]) if traced["run_ms"] else 0.0
    plain_rate = plain["attempted"] / plain["busy_s"]
    traced_rate = traced["attempted"] / traced["busy_s"]
    values["trace.overhead_ratio"] = plain_rate / traced_rate
    # spans time raw seconds, with the speed probe's ticks inside them
    unaccounted = traced["timed_s"] - sum(s["layer_self"].values())
    values["trace.unaccounted_s"] = unaccounted
    values["trace.unaccounted_share"] = unaccounted / traced["timed_s"]
    values["trace.spans_kept"] = s["spans_kept"]
    return values


def git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except OSError:
        return None
    return proc.stdout.strip() or None


def run_one(workload: str, args, env) -> int:
    """One run of one workload: print the header, the table and the result."""
    deadline = time.monotonic() + RUN_TIMEOUT_S
    started = time.time()
    if args.trace == 0:
        # set-up samples before and after the workload, so one slow spell
        # of the machine does not decide the median
        setup = import_seconds(env, IMPORT_SAMPLES // 2)
        res, rss = run_worker(workload, args.seed, env, "plain", args.seconds, 0, deadline)
        setup += import_seconds(env, IMPORT_SAMPLES - IMPORT_SAMPLES // 2, warm=True)
        runs = [res]
        metrics = end_to_end(res, rss, setup) if res else {}
        table = spec.END_TO_END
    else:
        interp = statistics.median(bare_start_s(env) for _ in range(5)) * 1e3
        import_ms = statistics.median(import_seconds(env, 5)) * 1e3
        plain, _ = run_worker(workload, args.seed, env, "untraced", args.seconds / 2, 0, deadline)
        traced = None
        if plain:
            traced, _ = run_worker(workload, args.seed, env, "traced", args.seconds / 2, 1, deadline,
                                   cycles=plain["cycles"])
        runs = [plain, traced]
        metrics = per_layer(plain, traced, interp, import_ms) if traced else {}
        table = spec.PER_LAYER

    done = [r for r in runs if r]
    attempted = sum(r["attempted"] for r in done)
    failed = sum(r["failed"] for r in done)
    if len(done) < len(runs):
        failed, attempted = failed + 1, attempted + 1
    correct = attempted > 0 and failed == 0
    header = {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "lane": done[0]["lane"] if done else None,
        "workload": workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "input_size": done[0]["input_size"] if done else None,
        "cycles": [r["cycles"] for r in done],
        "slowdown": [r["slowdown"] for r in done],
        "started": started,
    }
    units = {name: unit for name, unit, *_ in table}
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    errors = [e for r in done for e in r["errors"]]
    with open(OUT / f"{workload}-trace{args.trace}.json", "w") as fh:
        json.dump({"header": header, "result": result, "errors": errors}, fh, indent=1)

    print(json.dumps({"header": header}))
    for name, value in metrics.items():
        print(f"  {name:<28} {value:>16.6g} {units[name]}")
    print(f"  {'fail_ratio':<28} {failed / attempted:>16.6g} ({failed}/{attempted})")
    for e in errors[:5]:
        print(f"  error: {e}")
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted({**spec.WORKLOADS, **spec.UNLISTED}) + ["all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--write-manifest", action="store_true", help="write BENCHMARK.json and exit")
    args = p.parse_args(argv)
    if args.write_manifest:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(spec.manifest(), indent=2) + "\n")
        return 0
    if args.workload is None:
        p.error("--workload is required")
    if not (ROOT / "src" / "greenquadrics" / "cli.py").is_file():
        print(f"no package source at {ROOT / 'src' / 'greenquadrics'}; run from a full checkout",
              file=sys.stderr)
        return 2
    env = hermetic_env()
    OUT.mkdir(exist_ok=True)
    names = sorted({**spec.WORKLOADS, **spec.UNLISTED}) if args.workload == "all" else [args.workload]
    return max(run_one(name, args, env) for name in names)


if __name__ == "__main__":
    sys.exit(main())
