#!/usr/bin/env python3
"""Schema check of the committed BENCH_*.json baseline envelopes.

    python3 scripts/check_baselines.py BENCH_serve.json [BENCH_trace.json ...]

Every named file must be a known envelope (table below) that parses as
JSON, carries schema_version 1 and its own artifact name, and has each of
its required metrics present and positive. Metrics that are legitimately
zero or negative (chaos_drain_leaked, w1_steals, trace_overhead_pct) are
deliberately not required to be positive; the bounds table caps a metric
from above. BENCH_dispatch.json is Criterion JSONL, not an envelope, and is
not listed. Exits 1 on the first failing file.
"""

import json
import sys

# file -> (artifact name, metrics that must be present and > 0)
REQUIRED = {
    "BENCH_metrics.json": ("metrics", ["farm_jobs_per_sec"]),
    "BENCH_throughput.json": (
        "throughput",
        ["w%d_jobs_per_sec" % w for w in (1, 2, 4, 8)],
    ),
    "BENCH_profile.json": (
        "profile",
        ["%s_makespan_cycles" % s for s in ("edtlp", "llp2", "mgps")],
    ),
    "BENCH_serve.json": (
        "serve",
        [
            "serve_jobs_per_sec",
            "serve_e2e_ns_p50",
            "serve_e2e_ns_p90",
            "serve_e2e_ns_p99",
            "serve_e2e_ns_max",
            "serve_jobs_total",
        ],
    ),
    "BENCH_chaos.json": (
        "chaos",
        ["chaos_jobs_per_sec", "chaos_jobs_total", "chaos_cancelled_total"],
    ),
    "BENCH_trace.json": (
        "trace",
        ["trace_jobs_per_sec", "trace_jobs_per_sec_untraced", "trace_spans_per_job"],
    ),
    "BENCH_kernels.json": (
        "kernels",
        ["newview_%s_patterns_per_sec" % k for k in ("scalar", "vector", "wide4", "wide8")]
        + ["spr_round_p99"],
    ),
    "BENCH_scale.json": (
        "scale",
        [
            "compress_sites_per_sec",
            "load_sites_per_sec",
            "newview_patterns_per_sec",
            "checkpoint_write_p99",
        ],
    ),
}

# file -> {metric: inclusive upper bound}
BOUNDS = {
    # The tracing-overhead budget: traced throughput within 3% of untraced.
    "BENCH_trace.json": {"trace_overhead_pct": 3.0},
}


def check(path):
    name = path.rsplit("/", 1)[-1]
    if name not in REQUIRED:
        raise AssertionError("%s is not a known baseline envelope" % path)
    artifact, required = REQUIRED[name]
    with open(path) as f:
        doc = json.load(f)
    assert doc["schema_version"] == 1, "unexpected schema_version: %r" % doc["schema_version"]
    assert doc["artifact"] == artifact, "artifact %r, expected %r" % (doc["artifact"], artifact)
    metrics = doc["metrics"]
    missing = [m for m in required if m not in metrics]
    assert not missing, "missing metrics: %s" % missing
    nonpositive = [m for m in required if not metrics[m] > 0]
    assert not nonpositive, "metrics must be positive: %s" % nonpositive
    for metric, bound in BOUNDS.get(name, {}).items():
        assert metrics[metric] <= bound, "%s = %r exceeds %r" % (metric, metrics[metric], bound)


def main(paths):
    if not paths:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    for path in paths:
        try:
            check(path)
        except (AssertionError, KeyError, OSError, ValueError) as e:
            print("schema check FAILED: %s: %s" % (path, e), file=sys.stderr)
            return 1
        print("schema OK:", path)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
