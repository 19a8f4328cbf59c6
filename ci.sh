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

# The correctness gates run before the perf trajectory: a timing gate that
# a slow host fails must not stop CI (under `set -e`) before they run.
echo "==> crash-recovery smoke run (WAL + v3 snapshot example)"
cargo run --release --example crash_recovery >/dev/null

# The replication acceptance gate: kill the primary mid-stream, promote the
# follower, and the post-promotion recommendation fingerprint must equal a
# never-crashed same-seed twin's (the example asserts it).
echo "==> replication failover run (ship -> crash -> promote -> bitwise fingerprint gate)"
cargo run --release --example replication_failover >/dev/null

# The perf trajectory writes to target/ (untracked) so a CI run never
# dirties the committed BENCH_PR{3..9}.json snapshots with machine-local
# timing noise; refresh them deliberately when the hot path, the recovery
# path, the replication path, or the network path changes:
#   cargo run --release -p banditware-bench --bin perf_baseline \
#       BENCH_PR3.json BENCH_PR4.json BENCH_PR5.json BENCH_PR6.json \
#       BENCH_PR7.json BENCH_PR8.json BENCH_PR9.json
# The run also enforces the PR-4 acceptance gate (v3 snapshot-restore time
# at n=100k history must stay within 2x of n=1k — recovery independent of
# history length), the PR-5 gate (follower staleness after a no-seal ship
# stays under 2x the records-per-segment at every rotation size), the
# PR-6 gate (the TCP front-end sustains >= 50k rounds/sec at 8 loopback
# connections), the PR-7 gates (a same-run from-scratch refit at m=65 costs
# >= 8x a rank-one record at m=64 — the O(m^3)-vs-O(m^2) gap the updatable
# factorization exists for — and the columnar engine round no slower than
# the row round), the PR-8 gates (the frame record path never slower
# than the per-ticket row path at batch 64, plus the same >= 8x
# refit-over-record ratio), and the PR-9 gates (a 1024-connection reactor
# fan-out run is served to completion, and the rank-64 block absorption —
# `push_block`, the one block record path: panel cholupdate plus tiled
# Gram fold — is no slower than 64 sequential pushes).
# While iterating on one group locally, `BENCH_ONLY=<comma-separated PR
# numbers>` (e.g. `BENCH_ONLY=7,8`) restricts the binary to those groups;
# CI leaves it unset so every gate runs.
echo "==> perf trajectory (record/select/engine + kernels + recovery + catch-up + net round-trip + reactor fan-out -> target/BENCH_PR{3..9}.json)"
cargo run --release -p banditware-bench --bin perf_baseline \
    target/BENCH_PR3.json target/BENCH_PR4.json target/BENCH_PR5.json target/BENCH_PR6.json \
    target/BENCH_PR7.json target/BENCH_PR8.json target/BENCH_PR9.json

echo "==> all green"
