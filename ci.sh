#!/usr/bin/env bash
# Offline CI for the BanditWare workspace.
#
# Everything here must pass with no network access: all dependencies are
# path crates inside this repository (see README.md, "Offline dependency
# shims"). Run from anywhere; the script cd's to the repo root.
set -euo pipefail
cd "$(dirname "$0")"

export CARGO_NET_OFFLINE=true

echo "==> cargo fmt --check"
if cargo fmt --version >/dev/null 2>&1; then
    cargo fmt --all --check
else
    echo "    (rustfmt not installed; skipping)"
fi

# The workspace analyzer (crates/lint) gates four invariants the test
# suite cannot see: panic-freedom in hot-path modules, a single global
# lock order, determinism hygiene in pinned crates, and a `SAFETY:`
# justification on every unsafe site. The baseline is zero findings;
# exceptions live next to the code as `// lint: allow(<pass>) -- <why>`.
echo "==> banditware-lint --check (no-panic / lock-order / determinism / unsafe gate)"
cargo run --release -p banditware-lint -- --check

echo "==> cargo build --release (tier-1, step 1)"
cargo build --release

# Tier-1 step 2 is `cargo test -q` (root crate); the workspace run below is
# a strict superset (unit + proptest + integration across every crate), so
# the root suite is not run twice.
echo "==> cargo test --workspace -q (unit + proptest + integration, all crates)"
cargo test --workspace -q

# The bitwise suites once more on the opt-level-3 build that serves: the
# whole linalg suite (the dispatched kernels' twin-vs-baseline tests and
# the packed-layout kernels they compile, `proptest_push_block` at m=64
# with its factor-failure cases), frame-vs-per-row
# equivalence, the zero-allocation pins, the record-frame equivalence,
# the facade-vs-engine frame contract (engine bursts vs per-row
# `recommend_ticketed`), interleaved shards on one thread's workspace vs
# each shard alone, the per-shard live-heap bound, and the durable TCP
# gate (a stream served by an `Engine::open`-ed engine, dropped without
# compacting and reopened, equals its in-process twin), and the v3
# checkpoint round trips with their pinned served-shard digests. The
# workspace run above builds them under the test profile only.
echo "==> bitwise suites under --release (linalg incl. simd twins, frame equivalence, alloc pins, workspace sharing, shard footprint, facade-vs-engine, snapshots, durable TCP)"
cargo test --release -q -p banditware-linalg
cargo test --release -q -p banditware-core --test frame_equivalence --test alloc_free --test workspace
cargo test --release -q -p banditware-serve --test record_frame_equivalence --test engine_equivalence \
    --test shard_footprint --test alloc_free --test snapshot_roundtrip
cargo test --release -q -p banditware-net --test durable_tcp

echo "==> cargo build --examples --release (examples smoke check)"
cargo build --examples --release

echo "==> serving-engine smoke run (concurrent_serving example)"
cargo run --release --example concurrent_serving >/dev/null

# The network acceptance gate: a TCP client stream (sync, pipelined, and a
# checkpoint fetch, all on a loopback port-0 bind to the epoll reactor)
# must be bitwise identical to an identically-seeded in-process engine
# (the example asserts it).
echo "==> network serving run (framed TCP front-end -> bitwise equivalence gate)"
cargo run --release --example network_serving >/dev/null

# The end-to-end benchmark (bwbench/, its own workspace) checks the
# program's outputs as it measures: bitwise TCP-vs-in-process streams,
# repeatable quality figures, matched reply IDs. Its self-test and a smoke
# run of each workload make a codec or engine change that breaks those
# checks fail CI.
echo "==> bwbench self-test (every workload at smoke size, correctness checks)"
cargo test --release --offline --manifest-path bwbench/Cargo.toml
for workload in paper-tenants wide-frames; do
    echo "==> bwbench --smoke ($workload)"
    cargo run --release --quiet --offline --manifest-path bwbench/Cargo.toml -- \
        --workload "$workload" --seed 1 --seconds 1 --trace 0 --smoke >/dev/null
done

echo "==> cargo build --benches --release (criterion benches compile)"
cargo build --benches --release

echo "==> bench_serve (batched vs per-call throughput, tracked number)"
cargo bench -p banditware-bench --bench bench_serve

# The correctness gates run before the perf gates: a timing gate that
# a slow host fails must not stop CI (under `set -e`) before they run.
echo "==> crash-recovery smoke run (WAL + v3 snapshot example)"
cargo run --release --example crash_recovery >/dev/null

# The replication acceptance gate: kill the primary mid-stream, promote the
# follower, and the post-promotion recommendation fingerprint must equal a
# never-crashed same-seed twin's (the example asserts it).
echo "==> replication failover run (ship -> crash -> promote -> bitwise fingerprint gate)"
cargo run --release --example replication_failover >/dev/null

# The perf gates, each a same-run check on this host (ratios are the best
# of 5 back-to-back pairs): a from-scratch m=65 refit costs >= 8x one
# incremental m=64 record; the columnar recommend round is <= 1.05x a
# per-request `Engine::recommend` loop and the columnar record round <= 1.0x
# a per-ticket `record` loop, both at batch 64; `push_block` runs >= 0.95x
# the speed of 64 sequential pushes; v3 restore after 100k rounds takes
# < 2x the restore after 1k; `load_checkpoint` of 1024 m=7 tenant
# checkpoints costs <= 2x `str::parse::<f64>` over their numeric fields
# (the text reader stays near its float-conversion floor); the TCP
# front-end sustains >= 50k rounds/s at 8 loopback connections; and a
# 1024-connection fan-out driven by one client thread is served to
# completion. The binary runs every gate and exits 1 if any failed. (The
# follower-staleness bound is a count, not a timing, so it is a test in
# crates/serve/tests/replication.rs.)
echo "==> perf gates (refit/record, frame/rows, push_block, restore, checkpoint parse, net throughput, 1024-conn fan-out, CRC dispatch)"
cargo run --release -p banditware-bench --bin perf_gates

echo "==> all green"
