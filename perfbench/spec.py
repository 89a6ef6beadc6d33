"""What the benchmark measures: workloads, metrics and their bounds.

`BENCHMARK.json` at the repository root is generated from this file by
`python3 perfbench/run.py --write-manifest`; the benchmark's tests check
that the two agree.
"""

from __future__ import annotations

RUN_SECONDS = 30

# name -> why the workload exists (one line each); these are in BENCHMARK.json
WORKLOADS = {
    "check": "gq check with default suites and trials: the package's own verification run, small exact entries",
    "export": "CSV and OBJ export of four surfaces at 50k points: float sampling and file writing, no exact kernel",
    "wide": "library calls on matrices with 256-bit numerators and denominators: exact arithmetic in the gcd-bound regime",
}
# Runnable by name but left out of BENCHMARK.json: on the 2-CPU sandbox a
# process start takes either about 65 ms or about 115 ms, and the share of
# slow starts drifts, so the run-to-run spread of its p50 reached 15 %, more
# than a third of any bound the driver allows.  The cli layer stays measured:
# check and export call cli.run, and every traced run probes interpreter
# start and import.
UNLISTED = {
    "cli": "one-shot gq processes over the nine other subcommands: start-up, import, argparse and rendering",
}

# (name, unit, better, bound); reported on every workload with --trace 0.
# Bounds are at least three times the largest quartile spread, over the
# listed workloads, of ten seeded runs on the 2-CPU sandbox (times in reference
# seconds, see speed.py); set-up time, the noisiest, gets the largest.
END_TO_END = [
    ("ops_per_s", "1/s", "higher", 0.2),
    ("latency_ms_p50", "ms", "lower", 0.25),
    ("latency_ms_p90", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("setup_s", "s", "lower", 0.25),
]

# Layer name as reported -> module it measures.  Metric names must start
# with a letter or digit, so `_linear` reports as `linear`.
LAYERS = {
    "exact": "greenquadrics.exact",
    "mat2": "greenquadrics.mat2",
    "linear": "greenquadrics._linear",
    "quadrics": "greenquadrics.quadrics",
    "green": "greenquadrics.green",
    "semigroup": "greenquadrics.semigroup",
    "sections": "greenquadrics.sections",
    "sampling": "greenquadrics.sampling",
    "surfaces": "greenquadrics.surfaces",
    "checks": "greenquadrics.checks",
    "cli": "greenquadrics.cli",
}

CHECK_SUITES = ("exact", "core", "green", "sets", "sections")

# (name, unit, better); reported on every workload with --trace 1
PER_LAYER = (
    [
        (f"{layer}.{what}", unit, better)
        for layer in LAYERS
        for what, unit, better in (
            ("calls", "count", "lower"),
            ("self_s", "s", "lower"),
            ("us_per_call", "us", "lower"),
        )
    ]
    + [
        ("mat2.max_bits", "bits", "lower"),
        ("sampling.accept_ratio", "ratio", "higher"),
        ("semigroup.solve_share", "ratio", "lower"),
    ]
    + [(f"checks.{suite}_s", "s", "lower") for suite in CHECK_SUITES]
    + [
        ("checks.trials", "count", "higher"),
        ("surfaces.sample_s", "s", "lower"),
        ("surfaces.write_s", "s", "lower"),
        ("surfaces.bytes_written", "bytes", "lower"),
        ("cli.interp_ms", "ms", "lower"),
        ("cli.import_ms", "ms", "lower"),
        ("cli.run_ms", "ms", "lower"),
        ("trace.overhead_ratio", "ratio", "lower"),
        ("trace.unaccounted_s", "s", "lower"),
        ("trace.unaccounted_share", "ratio", "lower"),
        ("trace.spans_kept", "count", "higher"),
    ]
)


def manifest() -> dict:
    """The content of BENCHMARK.json."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS.items()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }
