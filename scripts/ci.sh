#!/usr/bin/env bash
# The repo's CI gate, runnable locally: formatting, lints, and the
# tier-1 build+test pass (plus the full workspace test suite).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy --workspace (warnings are errors)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> tier-1: cargo build --release && cargo test -q"
cargo build --release
cargo test -q

echo "==> full workspace tests"
cargo test --workspace -q

# The fault-injection matrix is part of the workspace run above; this
# labeled pass exists so a failure seed can be replayed in isolation:
#   CHAOS_SEED=<seed from the failure message> scripts/ci.sh
echo "==> chaos suite (CHAOS_SEED=${CHAOS_SEED:-default})"
cargo test -q --test chaos_ingestd

# Observability gate: the metrics-specific end-to-end tests (exposition
# coverage + status-socket versioning) and the lint over every rendered
# exposition document they scrape. A regression that drops a family
# from the scrape, breaks legacy bare-connection status clients, or
# emits structurally invalid Prometheus text fails here by name.
echo "==> metrics: exposition coverage + status protocol"
cargo test -q --test ingestd_e2e metrics_
cargo test -q --test determinism metrics_
cargo test -q -p alertops-obs

# Incremental-engine gate: the differential suite (streaming deltas
# byte-identical to batch recomputation, sharded merges, checkpoint
# rehydration, lossless worker restarts) plus the eviction-algebra
# property tests. A detector change that breaks exact batch/streaming
# equivalence fails here by name.
echo "==> incremental engine: differential + eviction properties"
cargo test -q --test incremental_equivalence
cargo test -q -p alertops-detect --test incremental

# Emerging-channel gate: the streaming R4 differential suite (fit-free
# streaming vs the fixed offline run, 1-shard == N-shard under the
# ingestd coordinator merge, metrics-on/off byte-identity under chaos)
# plus the react-crate windowing regressions (explicit empty windows,
# refit == fresh). A change that breaks the single-sequential-pass
# determinism contract fails here by name.
echo "==> emerging channel: streaming differential + windowing regressions"
cargo test -q --test emerging_streaming
cargo test -q -p alertops-react emerging
cargo test -q -p alertops-topics grow_vocab

# Emerging-perf gate: the sparse/dense differential properties (sparse
# fit_window bit-identical to the dense oracle, cached digamma exact,
# grow-vocab-then-update equivalence), the criterion group over the
# observe path, and a fresh BENCH_streaming.json. The bench binary
# asserts its own differentials (governor local pass == standalone
# detector, budget seed-replayability) before timing anything, and the
# grep makes a silent `outputs_identical: false` regression impossible
# to commit.
echo "==> emerging perf: sparse differentials + bench regeneration"
cargo test -q -p alertops-topics --test properties
cargo bench -q -p alertops-bench --bench emerging
cargo run --release -q -p alertops-bench --bin streaming_bench
if grep -q '"outputs_identical": false' BENCH_streaming.json; then
    echo "BENCH_streaming.json reports non-identical outputs" >&2
    exit 1
fi
if grep -q '"budget_replayable": false' BENCH_streaming.json; then
    echo "BENCH_streaming.json reports a non-replayable budget run" >&2
    exit 1
fi

# Cluster gate: the topology differential (4-node == 2-node == 1-node
# == batch oracle), WAL crash-replay (in-process kill/rejoin plus the
# real binary under SIGKILL), live range handoff, node-fault chaos
# (seed-replayable via CHAOS_SEED), and the WindowDelta merge-monoid
# property tests. A change that breaks cluster == single-node
# equivalence or loses a journaled alert fails here by name.
echo "==> cluster: topology differential + WAL crash-replay + handoff"
cargo test -q --test cluster
cargo test -q -p alertops-cluster
cargo test -q --test determinism merge_monoid

# Benchmark correctness smoke on the held-out seed: a short run of each
# workload whose oracle replays every published window through a
# 1-shard daemon. soak-binary and study-loop exercise the shard close
# path (detection, checkpoint), cluster-wal the cluster close and WAL.
# The last stdout line is the result document.
for workload in soak-binary study-loop cluster-wal; do
    echo "==> govbench $workload smoke (held-out seed)"
    result=$(cargo run --release -q --offline --manifest-path govbench/Cargo.toml -- \
        --workload "$workload" --seed 7919 --seconds 2 --trace 0 | tail -n 1)
    if [[ "$result" != *'"correct":true'* || "$result" != *'"failed":0'* ]]; then
        echo "govbench $workload smoke failed: $result" >&2
        exit 1
    fi
done

# Soak gate: a short deterministic slice of the million-alert soak —
# seeded production-shaped traffic (diurnal curve, deploy waves, gray
# cascades, multi-tenant catalogs) streamed over real TCP into a live
# 4-shard ingestd while the harness scrapes the metrics socket for
# latency quantiles, queue depths, and RSS. The bench binary asserts
# its own gates (sampled-prefix byte-identity vs 1- and 4-shard batch
# oracles, conservation, zero drops, RSS ceiling, >= 1M alerts/hour)
# before exiting, and the greps make a silent regression in the
# emitted JSON impossible to commit. The hours-long production soak is
# opt-in: ALERTOPS_SOAK_FULL=1 scripts/ci.sh (or run soak_bench
# directly). Deep property-test sweeps are likewise opt-in via
# ALERTOPS_TEST_FULL=1.
echo "==> soak smoke: TCP load harness + BENCH_soak.json regeneration"
cargo test -q -p alertops-load
cargo run --release -q -p alertops-bench --bin soak_bench
if grep -q '"outputs_identical": false' BENCH_soak.json; then
    echo "BENCH_soak.json reports soak outputs diverging from the batch oracle" >&2
    exit 1
fi
if grep -q '"ceiling_ok": false' BENCH_soak.json; then
    echo "BENCH_soak.json reports a memory-ceiling breach" >&2
    exit 1
fi
if grep -q '"conservation_ok": false' BENCH_soak.json; then
    echo "BENCH_soak.json reports a conservation-law violation" >&2
    exit 1
fi

# Wire gate: the binary codec's adversarial property tests (round-trip,
# truncation at every offset, bit flips, byte soup — the decoder never
# fabricates a frame), the mixed-version WAL replay suite (v1 text and
# v2 binary segments stitched into one history, corrupt/unknown-version
# segments quarantined whole), the end-to-end wire differential
# (NDJSON == binary byte-for-byte across 1-shard, 4-shard, and 4-node
# topologies), and the cluster bench's per-WAL-format journaling-tax
# rows — regenerated, differential-gated, and grepped so a silent
# "binary changed the answer" regression is impossible to commit.
echo "==> wire: codec properties + mixed-version replay + format differential"
cargo test -q -p alertops-wire
cargo test -q -p alertops-cluster --test wal_negative
cargo test -q --test wire
cargo run --release -q -p alertops-bench --bin cluster_bench
if grep -q '"outputs_identical": false' BENCH_cluster.json; then
    echo "BENCH_cluster.json reports a WAL format changing cluster outputs" >&2
    exit 1
fi

# QoA-loop gate: the streaming feedback differential suite (batch ==
# 1-shard == 4-shard byte-identity on every published QoA report and
# escalation lane, seed-replayable label noise, escalated ⊆ delivered,
# cluster restart restoring the journaled model bit-for-bit), the
# qoa-crate property tests (partial_fit order/stream invariance,
# bit-exact checkpoint round-trips), and the bench's qoa rows — the
# bench asserts local-loop == standalone-model identity before timing,
# and the outputs_identical grep above already covers its row in
# BENCH_streaming.json. A change that makes the feedback loop depend
# on topology, or relearn instead of replay after a crash, fails here
# by name.
echo "==> qoa loop: feedback differential + model properties"
cargo test -q --test qoa_loop
cargo test -q -p alertops-qoa
if grep -q '"outputs_identical": false' BENCH_streaming.json; then
    echo "BENCH_streaming.json reports a QoA/emerging differential failure" >&2
    exit 1
fi

echo "CI green."
