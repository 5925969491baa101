#!/usr/bin/env bash
# Full local CI gate. Run from anywhere inside the repo.
#
#   scripts/ci.sh          # tier-1 + lints
#   scripts/ci.sh --quick  # skip the release build (debug test run only)
#
# Tier-1 (the driver's acceptance gate) is the release build plus the full
# test suite; formatting and clippy are held to zero warnings on top.

set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

quick=0
if [[ "${1:-}" == "--quick" ]]; then
    quick=1
fi

run() {
    echo
    echo "==> $*"
    "$@"
}

run cargo fmt --check
run cargo clippy --workspace --all-targets -- -D warnings

if [[ "$quick" -eq 0 ]]; then
    run cargo build --release
fi
run cargo test --workspace -q

# Benchmark harness: perfbench/ is its own cargo workspace built on the
# public APIs of phylo, serve and obs, so an API change there must still
# build it and pass its helper tests.
run env CARGO_TARGET_DIR=.bench_build cargo test -q --offline --manifest-path perfbench/Cargo.toml

# Determinism gate: the parallel-path tests must pass both pinned to one
# thread and at the default thread count — the fixed-chunk reductions make
# parallel log-likelihoods bit-identical regardless of RAYON_NUM_THREADS.
run env RAYON_NUM_THREADS=1 cargo test -q -p phylo parallel::
run cargo test -q -p phylo parallel::

# Inference-farm smoke: work-stealing mechanics under injected faults
# (panics, job failures, worker deaths), bootstrap worker-count bit
# invariance, and JSONL metrics validity.
run cargo run -p bench --bin throughput_study -- --smoke

# Fault-injection smoke: inert-plan bit-equality, deterministic fault
# replay, and checkpoint kill-and-resume bit-identity, end to end.
run cargo run -p bench --bin fault_study -- --smoke

# Observability smoke: per-scheduler traces of one SPR round, trace-derived
# utilization vs SimStats cross-check, and export well-formedness — then an
# independent check that the emitted Chrome trace parses as JSON.
run cargo run -p bench --bin profile_study -- --smoke
trace_dir="$(mktemp -d)"
# --no-artifact: CI must not overwrite the committed BENCH_profile.json
# baseline with quick-workload numbers.
run cargo run -p bench --bin profile_study -- --quick --out "$trace_dir" --no-artifact
for f in "$trace_dir"/*.trace.json; do
    echo "==> python3 json.load $f"
    python3 -c "import json,sys; json.load(open(sys.argv[1])); print('valid JSON:', sys.argv[1])" "$f"
done
rm -rf "$trace_dir"

# Wall-clock metrics smoke: instrumented farm batch, registry/FarmStats
# coherence, Prometheus + JSONL export validity after a filesystem round
# trip. Then schema-check the committed benchmark baselines and run the
# regression gate in advisory mode (wall-clock numbers on shared CI
# machines inform, they don't block).
metrics_dir="$(mktemp -d)"
run cargo run -p bench --bin metrics_study -- --smoke --out "$metrics_dir"
rm -rf "$metrics_dir"
# (BENCH_dispatch.json is Criterion JSONL, not an envelope — not listed.)
run python3 scripts/check_baselines.py BENCH_metrics.json BENCH_throughput.json BENCH_profile.json
run scripts/bench_gate --advisory

# One measured study: its --smoke self-checks, a schema check of its
# committed baseline (scripts/check_baselines.py holds each envelope's
# required metrics and bounds), then a fresh measurement with any extra
# flags given (never overwriting the baseline: --no-artifact) and an
# advisory regression gate of it against the baseline.
study() {
    local bin="$1" baseline="$2"
    shift 2
    run cargo run -p bench --bin "$bin" -- --smoke
    run python3 scripts/check_baselines.py "$baseline"
    local dir
    dir="$(mktemp -d)"
    echo
    echo "==> cargo run --release -q -p bench --bin $bin -- ${*:+$* }--no-artifact --format json > current.json"
    cargo run --release -q -p bench --bin "$bin" -- "$@" --no-artifact --format json \
        > "$dir/current.json"
    run scripts/bench_gate --advisory --baseline "$baseline" --current "$dir/current.json"
    rm -rf "$dir"
}

# Service tier: multi-tenant open-loop load over the real wire protocol
# with exactly-once verification and a validated /metrics scrape.
study serve_study BENCH_serve.json
# Chaos: deterministic wire fault injection (drops, truncation, stalls), a
# mid-stream graceful drain + restart on a fresh port, and the triple
# exactly-once cross-check (client view vs journal-replayed service view
# vs per-life farm accounting), plus cancellation and per-job deadlines.
study chaos_study BENCH_chaos.json
# Tracing: the served load tracing-off then tracing-on with throughput
# tolerance, integer-exact span/histogram coherence, exemplar linkage, lnL
# bit-identity across the two phases, and the live /jobs, /trace/<job>,
# /healthz, /readyz routes.
study trace_study BENCH_trace.json
# Kernels: bit-identity of every kernel width against the scalar reference
# (including a fixture that fires the underflow rescale), the
# reuse-vs-full-recompute SPR cross-check, and an envelope round trip.
study kernel_study BENCH_kernels.json --quick
# Large alignments: compress/expand, PHYLIP and checkpoint round trips,
# memory-budget admission, and a compression-linearity guard (4x sites
# must not cost quadratic time), measured at the same reference tier.
study scale_study BENCH_scale.json --quick

# Deprecation gate: the workspace has no deprecated items left, and
# shipping code (bins, examples, libs) must not start using any deprecated
# API again, ours or a dependency's.
run cargo clippy -q --workspace --bins --examples -- -D deprecated

echo
echo "ci: all checks passed"
