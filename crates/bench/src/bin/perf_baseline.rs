//! Machine-readable perf trajectory for the recommend/record hot path, the
//! checkpoint-recovery path, and the replication catch-up path.
//!
//! Runs the record-path and serving benches at realistic dimensions and
//! emits `BENCH_PR3.json` (median ns/op next to the pre-PR-3 numbers), plus
//! `BENCH_PR4.json`: the `recovery_10k_history` group — v3 snapshot-restore
//! vs full-log replay-restore at history lengths n ∈ {1k, 10k, 100k}. The
//! PR-4 claim pinned by the numbers: snapshot restore time is independent
//! of n (the 100k restore lands within 2× of the 1k restore, while replay
//! grows linearly), and so is snapshot size under `Retention::Tail`.
//! `BENCH_PR5.json` adds the `follower_catch_up` group: replication
//! catch-up throughput (observations/sec applied by a `FollowerEngine`)
//! and follower staleness across segment-rotation sizes, with the PR-5
//! acceptance gate — staleness after a no-seal ship stays under 2× the
//! records-per-segment implied by the rotation threshold (the active
//! segment is the only thing a ship leaves behind). `BENCH_PR6.json` adds
//! the `net_round_trip` group: full recommend→record rounds driven through
//! the `banditware-net` TCP front-end on loopback at N ∈ {1, 8, 32}
//! concurrent connections — sustained rounds/sec under pipelined bursts
//! (which the server coalesces into batched engine calls) plus p50/p99
//! synchronous round latency, with the PR-6 acceptance gate: ≥ 50k
//! sustained rounds/sec at 8 connections. `BENCH_PR7.json` adds the
//! SIMD-width kernel group: `dot_m64` / `cholupdate_m64` micro-benches over
//! the 4-lane block kernels, plus the columnar-vs-row engine round
//! (`recommend_batch_frame` over a staged `FeatureFrame` against a
//! per-request `Engine::recommend` loop over the same contexts), with two
//! PR-7 acceptance gates —
//! incremental `record_m64` at least 8× cheaper than a from-scratch
//! m=65 refactor measured in the same run (the O(m³)→O(m²) claim,
//! host-insensitive by construction), and the columnar round no slower
//! than the row round. `BENCH_PR8.json` adds the columnar *record* group:
//! the rank-64 Gram fold (`NormalEquations::push_block`) against 64
//! sequential pushes, the refactor cost a fold-then-refactor variant
//! would pay instead of the per-row cholupdates, and the record-isolating
//! engine round — per-ticket `record` loop vs one `record_batch_frame`
//! grouped absorption — with the PR-8 acceptance gates: the frame record
//! path never slower than the row path at batch 64, and the same ≥ 8×
//! refit-over-record ratio. `record_m64` and the rank-64 push pair are
//! each measured once per process (best of three) and every group that
//! reports them prints that one figure. Medians committed on other hosts
//! (`record_m64_pr3_committed`) stay in the JSON as informational
//! context, not as gates: absolute wall times do not transfer between
//! hosts. `BENCH_PR9.json` adds the epoll-reactor group: fan-out rounds
//! (every connection sends one request per wave, driven by a single bench
//! thread so the numbers hold at 1024 connections on small hosts) through
//! the reactor at N ∈ {1, 8, 64, 256, 1024}, plus the rank-64 block
//! absorption (`push_block`: panel cholupdate and tiled Gram fold) against
//! 64 sequential pushes — with the PR-9 acceptance gates: the
//! 1024-connection run served to completion, and the block absorption no
//! slower than sequential pushes. (The reactor-over-thread-per-connection
//! ratios this group once gated went with the thread-per-connection
//! server; the committed `BENCH_PR9.json` keeps them as history.) `ci.sh`
//! runs this on every pass so future PRs extend the trajectory instead of
//! re-asserting complexity claims.
//!
//! Usage: `cargo run --release -p banditware-bench --bin perf_baseline
//! [OUT_PR3.json [OUT_PR4.json [OUT_PR5.json [OUT_PR6.json
//! [OUT_PR7.json [OUT_PR8.json [OUT_PR9.json]]]]]]]` (defaults
//! `BENCH_PR3.json` / `BENCH_PR4.json` / `BENCH_PR5.json` /
//! `BENCH_PR6.json` / `BENCH_PR7.json` / `BENCH_PR8.json` /
//! `BENCH_PR9.json` in the current directory). Setting `BENCH_ONLY` to a
//! comma-separated list of PR numbers (e.g. `BENCH_ONLY=9`) runs just
//! those groups while iterating on one — CI always runs them all.

use banditware_core::arm::{ArmEstimator, RecursiveArm};
use banditware_core::persist::{
    load_checkpoint, restore_checkpoint, save_checkpoint, save_history,
};
use banditware_core::{
    ArmSpec, BanditConfig, BanditWare, DecayingEpsilonGreedy, FeatureFrame, Policy, Retention,
    Ticket,
};
use banditware_linalg::{
    vector, LinearFit, Matrix, NormalEquations, SolveScratch, UpdatableCholesky,
};
use banditware_serve::{
    DurableEngine, Engine, FollowerEngine, FsTransport, Replicator, WalOptions,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// Pre-PR-3 medians (ns/op), measured on the seed code (from-scratch O(m³)
/// Cholesky per record, allocating select) with this same binary. These are
/// the "before" of the O(m³)→O(m²) claim; `current` below is the "after".
const BASELINE: &[(&str, f64)] = &[
    ("record_m4", 636.0),
    ("record_m16", 2281.0),
    ("record_m64", 61726.0),
    ("select_m16", 153.0),
    ("engine_round_b64", 1678.0),
];

fn context(m: usize, rng: &mut StdRng) -> Vec<f64> {
    (0..m).map(|_| rng.gen_range(0.1..100.0)).collect()
}

/// Median ns/op of `op` over `samples` timed samples of `iters` calls each,
/// after one warmup sample.
fn median_ns_per_op(samples: usize, iters: usize, mut op: impl FnMut()) -> f64 {
    for _ in 0..iters {
        op();
    }
    let mut per_op: Vec<f64> = (0..samples)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..iters {
                op();
            }
            start.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    per_op.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    per_op[per_op.len() / 2]
}

/// Steady-state `RecursiveArm::update` after a 10k-observation stream.
fn bench_record(m: usize) -> f64 {
    let mut rng = StdRng::seed_from_u64(31);
    let mut arm = RecursiveArm::new(m);
    for _ in 0..10_000 {
        let x = context(m, &mut rng);
        arm.update(&x, rng.gen_range(1.0..100.0)).unwrap();
    }
    let xs: Vec<Vec<f64>> = (0..64).map(|_| context(m, &mut rng)).collect();
    let mut i = 0;
    median_ns_per_op(15, 2_000, move || {
        arm.update(&xs[i % xs.len()], 42.0).unwrap();
        i += 1;
    })
}

/// Warmed ε-greedy select at 5 arms × 16 features.
fn bench_select(m: usize) -> f64 {
    let mut rng = StdRng::seed_from_u64(32);
    let mut policy = DecayingEpsilonGreedy::<RecursiveArm>::new(
        ArmSpec::unit_costs(5),
        m,
        BanditConfig::paper().with_epsilon0(0.1).with_seed(9),
    )
    .unwrap();
    for _ in 0..500 {
        let x = context(m, &mut rng);
        let arm = rng.gen_range(0..5);
        policy.observe(arm, &x, rng.gen_range(1.0..1000.0)).unwrap();
    }
    let xs: Vec<Vec<f64>> = (0..64).map(|_| context(m, &mut rng)).collect();
    let mut i = 0;
    median_ns_per_op(15, 5_000, move || {
        policy.select(&xs[i % xs.len()]).unwrap();
        i += 1;
    })
}

/// One engine round of `batch` requests, reported per request: recommend
/// either as one `recommend_batch_frame` over a staged [`FeatureFrame`]
/// (`frame_recommend`) or as a per-request `Engine::recommend` loop over
/// the same contexts (one stripe-lock acquisition and one row select per
/// request), then one `record_batch_frame` on both variants, so the delta
/// isolates the recommend path — the recommend-side twin of
/// [`bench_engine_record`].
fn bench_engine_round(batch: usize, frame_recommend: bool) -> f64 {
    let engine = Engine::builder(ArmSpec::unit_costs(4), 8)
        .config(BanditConfig::paper().with_epsilon0(0.1).with_seed(5))
        .build()
        .unwrap();
    let mut rng = StdRng::seed_from_u64(33);
    let mut frame = FeatureFrame::new();
    let run = |contexts: &[Vec<f64>], frame: &FeatureFrame| {
        let issued: Vec<_> = if frame_recommend {
            engine.recommend_batch_frame("tenant", frame).unwrap()
        } else {
            contexts.iter().map(|x| engine.recommend("tenant", x).unwrap()).collect()
        };
        let outcomes: Vec<(Ticket, f64)> =
            issued.iter().map(|(t, r)| (*t, 10.0 + r.arm as f64)).collect();
        engine.record_batch_frame("tenant", &outcomes).unwrap();
    };
    for _ in 0..20 {
        let contexts: Vec<Vec<f64>> = (0..batch).map(|_| context(8, &mut rng)).collect();
        frame.fill_from_rows(&contexts).unwrap();
        run(&contexts, &frame);
    }
    let contexts: Vec<Vec<f64>> = (0..batch).map(|_| context(8, &mut rng)).collect();
    frame.fill_from_rows(&contexts).unwrap();
    median_ns_per_op(15, 30, || run(&contexts, &frame)) / batch as f64
}

/// The innermost predict kernel: one `m`-length dot product.
fn bench_dot(m: usize) -> f64 {
    let mut rng = StdRng::seed_from_u64(51);
    let a = context(m, &mut rng);
    let b = context(m, &mut rng);
    median_ns_per_op(15, 200_000, move || {
        std::hint::black_box(vector::dot(std::hint::black_box(&a), std::hint::black_box(&b)));
    })
}

/// The record-path factor maintenance: one rank-1 `cholupdate` of an
/// `m × m` LDLᵀ factor.
fn bench_cholupdate(m: usize) -> f64 {
    let mut rng = StdRng::seed_from_u64(52);
    let mut chol = UpdatableCholesky::decompose(&Matrix::identity(m)).unwrap();
    let ws: Vec<Vec<f64>> =
        (0..64).map(|_| (0..m).map(|_| rng.gen_range(-1.0..1.0)).collect()).collect();
    let mut i = 0;
    median_ns_per_op(15, 2_000, move || {
        chol.update(&ws[i % ws.len()]).unwrap();
        i += 1;
    })
}

/// The record-side twin pair of [`bench_engine_round`]: identical
/// burst selection (frame recommend on both variants), so the delta
/// isolates the record path — a per-ticket `record` loop (one stripe-lock
/// acquisition and one row observe per outcome, the pre-PR-8 per-request
/// path) vs one `record_batch_frame` grouped columnar absorption.
fn bench_engine_record(batch: usize, frame_record: bool) -> f64 {
    let engine = Engine::builder(ArmSpec::unit_costs(4), 8)
        .config(BanditConfig::paper().with_epsilon0(0.1).with_seed(5))
        .build()
        .unwrap();
    let mut rng = StdRng::seed_from_u64(34);
    let mut frame = FeatureFrame::new();
    let run = |engine: &Engine, frame: &FeatureFrame| {
        let issued = engine.recommend_batch_frame("tenant", frame).unwrap();
        if frame_record {
            let outcomes: Vec<(Ticket, f64)> =
                issued.iter().map(|(t, r)| (*t, 10.0 + r.arm as f64)).collect();
            engine.record_batch_frame("tenant", &outcomes).unwrap();
        } else {
            for (t, r) in &issued {
                engine.record("tenant", *t, 10.0 + r.arm as f64).unwrap();
            }
        }
    };
    for _ in 0..20 {
        let contexts: Vec<Vec<f64>> = (0..batch).map(|_| context(8, &mut rng)).collect();
        frame.fill_from_rows(&contexts).unwrap();
        run(&engine, &frame);
    }
    let contexts: Vec<Vec<f64>> = (0..batch).map(|_| context(8, &mut rng)).collect();
    frame.fill_from_rows(&contexts).unwrap();
    median_ns_per_op(15, 30, move || run(&engine, &frame)) / batch as f64
}

/// The block kernel pair: one `k`-row block absorption
/// ([`NormalEquations::push_block`]) vs `k` sequential
/// [`NormalEquations::push`] calls, on a warmed accumulator with a live
/// LDLᵀ factor (the serving configuration: every absorbed row also
/// cholupdates the factor). Reported per *block*, not per row.
fn bench_push(m: usize, k: usize, block: bool) -> f64 {
    let mut rng = StdRng::seed_from_u64(54);
    let mut acc = NormalEquations::new(m);
    for _ in 0..200 {
        let x = context(m, &mut rng);
        acc.push(&x, rng.gen_range(1.0..100.0)).unwrap();
    }
    let mut scratch = SolveScratch::new();
    let mut fit = LinearFit::zeros(m);
    acc.solve_into(1e-3, &mut scratch, &mut fit).unwrap(); // factor goes live
    let rows: Vec<Vec<f64>> = (0..k).map(|_| context(m, &mut rng)).collect();
    let ys: Vec<f64> = (0..k).map(|_| rng.gen_range(1.0..100.0)).collect();
    let mut xcols = vec![0.0; m * k];
    for (r, row) in rows.iter().enumerate() {
        for (f, &v) in row.iter().enumerate() {
            xcols[f * k + r] = v;
        }
    }
    median_ns_per_op(15, 200, move || {
        if block {
            acc.push_block(&xcols, &ys).unwrap();
        } else {
            for (row, &y) in rows.iter().zip(&ys) {
                acc.push(row, y).unwrap();
            }
        }
    })
}

/// One from-scratch LDLᵀ factorization of a `dim × dim` SPD Gram — what a
/// fold-then-refactor `push_block` variant would pay per block instead of
/// the `k` rank-1 cholupdates.
fn bench_refactor(dim: usize) -> f64 {
    let spd = Matrix::from_fn(dim, dim, |i, j| {
        if i == j {
            dim as f64 + 1.0
        } else {
            1.0 / (1.0 + (i as f64 - j as f64).abs())
        }
    });
    median_ns_per_op(15, 200, move || {
        std::hint::black_box(UpdatableCholesky::decompose(std::hint::black_box(&spd)).unwrap());
    })
}

/// One tenant's lifetime: an ε-greedy recommender over `m` features after
/// `n` live rounds, with a bounded retained tail (the serving
/// configuration).
fn trained_bandit(n: usize, m: usize) -> BanditWare<DecayingEpsilonGreedy<RecursiveArm>> {
    let mut rng = StdRng::seed_from_u64(41);
    let policy = DecayingEpsilonGreedy::<RecursiveArm>::new(
        ArmSpec::unit_costs(4),
        m,
        BanditConfig::paper().with_epsilon0(0.2).with_seed(7),
    )
    .unwrap();
    let mut bandit = BanditWare::new(policy, ArmSpec::unit_costs(4));
    for _ in 0..n {
        let x = context(m, &mut rng);
        let (t, rec) = bandit.recommend_ticketed(&x).unwrap();
        bandit.record_ticket(t, 5.0 + rec.arm as f64 + x[0] * 0.1).unwrap();
    }
    bandit
}

fn fresh_like(m: usize) -> BanditWare<DecayingEpsilonGreedy<RecursiveArm>> {
    let policy = DecayingEpsilonGreedy::<RecursiveArm>::new(
        ArmSpec::unit_costs(4),
        m,
        BanditConfig::paper().with_epsilon0(0.2).with_seed(7),
    )
    .unwrap();
    BanditWare::new(policy, ArmSpec::unit_costs(4))
}

/// Median wall time (ns) of `op` over `samples` single-shot runs.
fn median_ns(samples: usize, mut op: impl FnMut()) -> f64 {
    let mut times: Vec<f64> = (0..samples)
        .map(|_| {
            let start = Instant::now();
            op();
            start.elapsed().as_nanos() as f64
        })
        .collect();
    times.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    times[times.len() / 2]
}

struct RecoveryPoint {
    n: usize,
    replay_ns: f64,
    snapshot_ns: f64,
    snapshot_bytes: usize,
}

/// Restore cost at history length `n`: full-log replay (v2) vs statistics
/// snapshot (v3, `Retention::Tail(256)`), both measured from in-memory
/// bytes through `load_checkpoint` + `restore_checkpoint`.
fn bench_recovery(n: usize, m: usize) -> RecoveryPoint {
    let mut bandit = trained_bandit(n, m);
    let mut v2 = Vec::new();
    save_history(&bandit, &mut v2).unwrap();
    bandit.set_retention(Retention::Tail(256));
    let mut v3 = Vec::new();
    save_checkpoint(&bandit, &mut v3).unwrap();

    let samples = if n >= 50_000 { 3 } else { 7 };
    let replay_ns = median_ns(samples, || {
        let cp = load_checkpoint(v2.as_slice()).unwrap();
        let mut fresh = fresh_like(m);
        restore_checkpoint(&mut fresh, &cp).unwrap();
        assert_eq!(fresh.rounds(), n);
    });
    let snapshot_ns = median_ns(15, || {
        let cp = load_checkpoint(v3.as_slice()).unwrap();
        let mut fresh = fresh_like(m);
        restore_checkpoint(&mut fresh, &cp).unwrap();
        assert_eq!(fresh.rounds(), n);
    });
    RecoveryPoint { n, replay_ns, snapshot_ns, snapshot_bytes: v3.len() }
}

struct CatchUpPoint {
    rotate_bytes: u64,
    observations: usize,
    applied: usize,
    staleness_records: usize,
    staleness_bound_records: f64,
    catch_up_ns: f64,
    obs_per_sec: f64,
}

/// Replication catch-up at one segment-rotation size: a primary records
/// `n` observations per tenant, a `Replicator` ships **without** sealing
/// (so the active segment stays behind — that is the staleness being
/// measured), and a fresh follower's initial catch-up is timed.
fn bench_catch_up(rotate_bytes: u64, n: usize) -> CatchUpPoint {
    let tag = format!("{rotate_bytes}-{}", std::process::id());
    let primary_dir = std::env::temp_dir().join(format!("bw-bench-pr5-primary-{tag}"));
    let replica_dir = std::env::temp_dir().join(format!("bw-bench-pr5-replica-{tag}"));
    let _ = std::fs::remove_dir_all(&primary_dir);
    let _ = std::fs::remove_dir_all(&replica_dir);
    const M: usize = 8;
    let builder = || {
        Engine::builder(ArmSpec::unit_costs(4), M)
            .config(BanditConfig::paper().with_epsilon0(0.1).with_seed(5))
    };
    let options = WalOptions::new(&primary_dir).segment_max_bytes(rotate_bytes);
    let (primary, _) = DurableEngine::open(builder(), options).expect("open primary");
    let mut rng = StdRng::seed_from_u64(71);
    for _ in 0..n {
        let x = context(M, &mut rng);
        let (t, rec) = primary.recommend("tenant", &x).expect("recommend");
        primary.record("tenant", t, 10.0 + rec.arm as f64 + x[0] * 0.1).expect("record");
    }
    // Observed record size on disk (shortest-round-trip floats vary), for
    // the staleness bound: at most the active segment lags a no-seal ship.
    let key_dir = primary_dir.join("ktenant");
    let wal_bytes: u64 = std::fs::read_dir(&key_dir)
        .expect("key dir")
        .filter_map(|e| e.ok())
        .filter(|e| e.file_name().to_string_lossy().starts_with("wal-"))
        .map(|e| e.metadata().expect("metadata").len())
        .sum();
    let bytes_per_record = wal_bytes as f64 / n as f64;
    let replicator = Replicator::new(FsTransport::new(&replica_dir));
    replicator.ship_all(&primary, false).expect("ship");

    let start = Instant::now();
    let (follower, report) =
        FollowerEngine::open(builder(), WalOptions::new(&replica_dir)).expect("open follower");
    let catch_up_ns = start.elapsed().as_nanos() as f64;
    assert!(report.quarantined.is_empty(), "clean replica");
    let watermark = follower.watermark("tenant").unwrap_or(0);
    let staleness_records = n - watermark;
    let staleness_bound_records = 2.0 * rotate_bytes as f64 / bytes_per_record;
    let _ = std::fs::remove_dir_all(&primary_dir);
    let _ = std::fs::remove_dir_all(&replica_dir);
    CatchUpPoint {
        rotate_bytes,
        observations: n,
        applied: report.replayed,
        staleness_records,
        staleness_bound_records,
        catch_up_ns,
        obs_per_sec: report.replayed as f64 / (catch_up_ns / 1e9),
    }
}

struct NetServePoint {
    connections: usize,
    sustained_rounds: usize,
    sustained_rounds_per_sec: f64,
    p50_round_ns: f64,
    p99_round_ns: f64,
}

/// Full recommend→record rounds through the TCP front-end on loopback with
/// `connections` concurrent clients, each its own tenant key. Two phases
/// per connection: pipelined bursts of 64 (the server coalesces each burst
/// into one `recommend_batch_frame` / `record_batch_frame`) timed for
/// sustained throughput, then synchronous rounds timed individually for
/// the latency percentiles.
fn bench_net_serving(connections: usize) -> NetServePoint {
    use banditware_net::{NetClient, NetServer, Response, ServerConfig};
    const M: usize = 8;
    const BURST: usize = 64;
    const SUSTAINED_ROUNDS: usize = 4096;
    const LATENCY_ROUNDS: usize = 400;
    let engine = Engine::builder(ArmSpec::unit_costs(4), M)
        .config(BanditConfig::paper().with_epsilon0(0.1).with_seed(5))
        .build()
        .expect("engine");
    let mut server =
        NetServer::bind(std::sync::Arc::new(engine), "127.0.0.1:0", ServerConfig::default())
            .expect("bind loopback");
    let addr = server.local_addr();

    let mut round_ns: Vec<f64> = Vec::new();
    // Throughput is conservative: total rounds over the *slowest* worker's
    // sustained-phase wall time.
    let mut slowest_s = 0.0f64;
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..connections)
            .map(|c| {
                scope.spawn(move || {
                    let key = format!("tenant-{c}");
                    let mut client = NetClient::connect(addr).expect("connect");
                    let mut rng = StdRng::seed_from_u64(91 + c as u64);
                    let xs: Vec<Vec<f64>> = (0..BURST).map(|_| context(M, &mut rng)).collect();
                    let burst = |client: &mut NetClient| {
                        let ids: Vec<u64> =
                            xs.iter().map(|x| client.send_recommend(&key, x)).collect();
                        client.flush().expect("flush recommends");
                        let mut tickets = Vec::with_capacity(BURST);
                        for id in ids {
                            match client.wait(id).expect("recommend") {
                                Response::Recommend { ticket, arm, .. } => {
                                    tickets.push((ticket, arm))
                                }
                                other => panic!("expected recommendation, got {other:?}"),
                            }
                        }
                        let ids: Vec<u64> = tickets
                            .iter()
                            .map(|(t, a)| client.send_record(&key, *t, 10.0 + f64::from(*a)))
                            .collect();
                        client.flush().expect("flush records");
                        for id in ids {
                            client.wait(id).expect("record");
                        }
                    };
                    for _ in 0..4 {
                        burst(&mut client); // warmup
                    }
                    let start = Instant::now();
                    for _ in 0..(SUSTAINED_ROUNDS / BURST) {
                        burst(&mut client);
                    }
                    let elapsed_s = start.elapsed().as_secs_f64();
                    let mut lat = Vec::with_capacity(LATENCY_ROUNDS);
                    for i in 0..LATENCY_ROUNDS {
                        let t0 = Instant::now();
                        let rec = client.recommend(&key, &xs[i % BURST]).expect("recommend");
                        client.record(&key, rec.ticket, 10.0 + rec.arm as f64).expect("record");
                        lat.push(t0.elapsed().as_nanos() as f64);
                    }
                    (elapsed_s, lat)
                })
            })
            .collect();
        for worker in workers {
            let (elapsed_s, lat) = worker.join().expect("worker");
            slowest_s = slowest_s.max(elapsed_s);
            round_ns.extend(lat);
        }
    });
    server.shutdown();
    round_ns.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let sustained_rounds = connections * (SUSTAINED_ROUNDS / BURST) * BURST;
    NetServePoint {
        connections,
        sustained_rounds,
        sustained_rounds_per_sec: sustained_rounds as f64 / slowest_s,
        p50_round_ns: round_ns[round_ns.len() / 2],
        p99_round_ns: round_ns[(round_ns.len() * 99 / 100).min(round_ns.len() - 1)],
    }
}

/// Full recommend→record rounds with `connections` concurrent clients all
/// driven by **one** bench thread.
///
/// Each *wave* has every connection send a single recommend (one write per
/// connection, no pipelining within a connection), then reads every reply,
/// then does the same for the records. All connections serve the same hot
/// tenant key — the paper's serving story, one application with many
/// workflow submitters — so from the server's point of view all
/// `connections` sockets turn readable together with one tiny same-key
/// request each: the shape the reactor's cross-connection coalescing
/// targets (one epoll wake folds them into a single columnar engine
/// burst instead of one shard-lock round trip per request). The
/// single-threaded client keeps the measurement honest at 256 and 1024
/// connections on small hosts: no client-side thread storm competes with
/// the server for cores.
///
/// Runs at m = 64, the record-path dimension the PR-3/7/8 groups already
/// benchmark: per-request estimator work at that width is what separates
/// one columnar burst from `connections` individual row-path calls
/// serialized through the shard lock.
fn bench_net_fanout(connections: usize) -> NetServePoint {
    use banditware_net::{NetClient, NetServer, Response, ServerConfig};
    const M: usize = 64;
    const WAVE_ROUNDS_TARGET: usize = 16_384;
    const LATENCY_ROUNDS: usize = 400;
    let engine = Engine::builder(ArmSpec::unit_costs(4), M)
        .config(BanditConfig::paper().with_epsilon0(0.1).with_seed(5))
        .build()
        .expect("engine");
    let mut server =
        NetServer::bind(std::sync::Arc::new(engine), "127.0.0.1:0", ServerConfig::default())
            .expect("bind loopback");
    let addr = server.local_addr();

    let mut clients: Vec<NetClient> =
        (0..connections).map(|_| NetClient::connect(addr).expect("connect")).collect();
    let keys: Vec<String> = (0..connections).map(|_| "hot-app".to_string()).collect();
    let mut rng = StdRng::seed_from_u64(91);
    let xs: Vec<Vec<f64>> = (0..64).map(|_| context(M, &mut rng)).collect();

    let mut completed_rounds = 0usize;
    let wave = |clients: &mut [NetClient], i: usize, completed: &mut usize| {
        let x = &xs[i % xs.len()];
        let ids: Vec<u64> = clients
            .iter_mut()
            .zip(&keys)
            .map(|(cl, key)| {
                let id = cl.send_recommend(key, x);
                cl.flush().expect("flush recommend");
                id
            })
            .collect();
        let mut tickets = Vec::with_capacity(connections);
        for (cl, id) in clients.iter_mut().zip(&ids) {
            match cl.wait(*id).expect("recommend") {
                Response::Recommend { ticket, arm, .. } => tickets.push((ticket, arm)),
                other => panic!("expected recommendation, got {other:?}"),
            }
        }
        let ids: Vec<u64> = clients
            .iter_mut()
            .zip(&keys)
            .zip(&tickets)
            .map(|((cl, key), (t, a))| {
                let id = cl.send_record(key, *t, 10.0 + f64::from(*a));
                cl.flush().expect("flush record");
                id
            })
            .collect();
        for (cl, id) in clients.iter_mut().zip(&ids) {
            cl.wait(*id).expect("record");
            *completed += 1;
        }
    };

    let waves = (WAVE_ROUNDS_TARGET / connections).max(2);
    for i in 0..2 {
        wave(&mut clients, i, &mut completed_rounds); // warmup
    }
    completed_rounds = 0;
    let start = Instant::now();
    for i in 0..waves {
        wave(&mut clients, i, &mut completed_rounds);
    }
    let elapsed_s = start.elapsed().as_secs_f64();
    assert_eq!(
        completed_rounds,
        waves * connections,
        "every connection must be served to completion"
    );

    let mut round_ns = Vec::with_capacity(LATENCY_ROUNDS);
    for i in 0..LATENCY_ROUNDS {
        let c = i % connections;
        let t0 = Instant::now();
        let rec = clients[c].recommend(&keys[c], &xs[i % xs.len()]).expect("recommend");
        clients[c].record(&keys[c], rec.ticket, 10.0 + rec.arm as f64).expect("record");
        round_ns.push(t0.elapsed().as_nanos() as f64);
    }
    drop(clients);
    server.shutdown();
    round_ns.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    NetServePoint {
        connections,
        sustained_rounds: completed_rounds,
        sustained_rounds_per_sec: completed_rounds as f64 / elapsed_s,
        p50_round_ns: round_ns[round_ns.len() / 2],
        p99_round_ns: round_ns[(round_ns.len() * 99 / 100).min(round_ns.len() - 1)],
    }
}

fn main() {
    let out_path = std::env::args().nth(1).unwrap_or_else(|| "BENCH_PR3.json".to_string());
    let out_path_pr4 = std::env::args().nth(2).unwrap_or_else(|| "BENCH_PR4.json".to_string());
    let out_path_pr5 = std::env::args().nth(3).unwrap_or_else(|| "BENCH_PR5.json".to_string());
    let out_path_pr6 = std::env::args().nth(4).unwrap_or_else(|| "BENCH_PR6.json".to_string());
    let out_path_pr7 = std::env::args().nth(5).unwrap_or_else(|| "BENCH_PR7.json".to_string());
    let out_path_pr8 = std::env::args().nth(6).unwrap_or_else(|| "BENCH_PR8.json".to_string());
    let out_path_pr9 = std::env::args().nth(7).unwrap_or_else(|| "BENCH_PR9.json".to_string());

    // `BENCH_ONLY=7,9` (etc.) restricts the run to those groups while
    // iterating on one locally; unset — the CI configuration — runs all.
    let only: Option<Vec<u32>> = std::env::var("BENCH_ONLY")
        .ok()
        .map(|s| s.split(',').filter_map(|t| t.trim().parse().ok()).collect());
    let run_pr = |n: u32| only.as_ref().map_or(true, |v| v.contains(&n));

    // The PR-7/8/9 gates compare across runs (against a committed median)
    // or across distant windows of this run, so they take the best of three
    // independent measurements: on a shared host, steal time only ever
    // *inflates* a window, making the min the robust estimator of
    // steady-state cost. (The PR-4/5/6 gates are within-run ratios and
    // don't need this.)
    let best_of_3 = |first: f64, bench: &dyn Fn() -> f64| first.min(bench()).min(bench());
    // Figures that several groups report are measured once per process, so
    // one run never prints two values for the same quantity.
    let record_m64 = if run_pr(3) || run_pr(7) || run_pr(8) {
        best_of_3(bench_record(64), &|| bench_record(64))
    } else {
        f64::NAN
    };
    let (push_block_m64_k64, push_seq_m64_k64) = if run_pr(8) || run_pr(9) {
        (
            best_of_3(bench_push(64, 64, true), &|| bench_push(64, 64, true)),
            best_of_3(bench_push(64, 64, false), &|| bench_push(64, 64, false)),
        )
    } else {
        (f64::NAN, f64::NAN)
    };

    if run_pr(3) {
        let current: Vec<(&str, f64)> = vec![
            ("record_m4", bench_record(4)),
            ("record_m16", bench_record(16)),
            ("record_m64", record_m64),
            ("select_m16", bench_select(16)),
            ("engine_round_b64", bench_engine_round(64, true)),
        ];
        let fmt_map = |pairs: &[(&str, f64)]| {
            pairs
                .iter()
                .map(|(k, v)| format!("    \"{k}\": {v:.1}"))
                .collect::<Vec<_>>()
                .join(",\n")
        };
        let baseline_m16 = BASELINE.iter().find(|(k, _)| *k == "record_m16").expect("key").1;
        let current_m16 = current.iter().find(|(k, _)| *k == "record_m16").expect("key").1;
        let json = format!(
        "{{\n  \"schema\": \"banditware-bench-v1\",\n  \"pr\": 3,\n  \"unit\": \"ns_per_op\",\n  \
         \"baseline\": {{\n{}\n  }},\n  \"current\": {{\n{}\n  }},\n  \
         \"speedup_record_m16\": {:.2}\n}}\n",
        fmt_map(BASELINE),
        fmt_map(&current),
        baseline_m16 / current_m16
    );
        std::fs::write(&out_path, &json).expect("write bench json");
        println!("{json}");
        println!("wrote {out_path}");
    }

    // --- PR 4: the recovery_10k_history group (plus the 1k / 100k ends of
    // the scaling curve). ---
    const M: usize = 8;
    if run_pr(4) {
        let points: Vec<RecoveryPoint> =
            [1_000, 10_000, 100_000].iter().map(|&n| bench_recovery(n, M)).collect();
        let p1k = &points[0];
        let p100k = &points[2];
        let ratio_snapshot = p100k.snapshot_ns / p1k.snapshot_ns;
        let ratio_replay = p100k.replay_ns / p1k.replay_ns;
        let rows: Vec<String> = points
            .iter()
            .map(|p| {
                format!(
                "    \"n{}\": {{ \"replay_restore_ns\": {:.0}, \"snapshot_restore_ns\": {:.0}, \
                 \"snapshot_bytes\": {} }}",
                p.n, p.replay_ns, p.snapshot_ns, p.snapshot_bytes
            )
            })
            .collect();
        let json = format!(
            "{{\n  \"schema\": \"banditware-bench-v1\",\n  \"pr\": 4,\n  \"unit\": \"ns\",\n  \
         \"recovery_10k_history\": {{\n{}\n  }},\n  \
         \"snapshot_restore_100k_over_1k\": {ratio_snapshot:.2},\n  \
         \"replay_restore_100k_over_1k\": {ratio_replay:.2},\n  \
         \"replay_over_snapshot_at_100k\": {:.1}\n}}\n",
            rows.join(",\n"),
            p100k.replay_ns / p100k.snapshot_ns,
        );
        std::fs::write(&out_path_pr4, &json).expect("write bench json");
        println!("{json}");
        println!("wrote {out_path_pr4}");
        assert!(
            ratio_snapshot < 2.0,
            "PR-4 acceptance: snapshot restore at n=100k must stay within 2x of n=1k, got \
         {ratio_snapshot:.2}x"
        );
    }

    // --- PR 5: replication catch-up throughput + staleness vs rotation
    // size. ---
    if run_pr(5) {
        let points: Vec<CatchUpPoint> =
            [4 * 1024, 16 * 1024, 64 * 1024].iter().map(|&r| bench_catch_up(r, 20_000)).collect();
        let rows: Vec<String> = points
            .iter()
            .map(|p| {
                format!(
                    "    \"rotate_{}\": {{ \"observations\": {}, \"applied\": {}, \
                 \"staleness_records\": {}, \"staleness_bound_records\": {:.0}, \
                 \"catch_up_ms\": {:.1}, \"obs_per_sec\": {:.0} }}",
                    p.rotate_bytes,
                    p.observations,
                    p.applied,
                    p.staleness_records,
                    p.staleness_bound_records,
                    p.catch_up_ns / 1e6,
                    p.obs_per_sec
                )
            })
            .collect();
        let worst_ratio = points
            .iter()
            .map(|p| p.staleness_records as f64 / p.staleness_bound_records)
            .fold(0.0f64, f64::max);
        let json = format!(
            "{{\n  \"schema\": \"banditware-bench-v1\",\n  \"pr\": 5,\n  \"unit\": \"mixed\",\n  \
         \"follower_catch_up\": {{\n{}\n  }},\n  \
         \"max_staleness_over_2x_segment_bound\": {worst_ratio:.2}\n}}\n",
            rows.join(",\n"),
        );
        std::fs::write(&out_path_pr5, &json).expect("write bench json");
        println!("{json}");
        println!("wrote {out_path_pr5}");
        for p in &points {
            assert!(
                (p.staleness_records as f64) < p.staleness_bound_records,
                "PR-5 acceptance: staleness after a no-seal ship must stay under 2x the \
             records-per-segment at rotation {} B, got {} records (bound {:.0})",
                p.rotate_bytes,
                p.staleness_records,
                p.staleness_bound_records
            );
        }
    }

    // --- PR 6: the net_round_trip group — the TCP front-end on loopback at
    // 1 / 8 / 32 concurrent connections. ---
    if run_pr(6) {
        let points: Vec<NetServePoint> = [1, 8, 32].iter().map(|&c| bench_net_serving(c)).collect();
        let rows: Vec<String> = points
            .iter()
            .map(|p| {
                format!(
                    "    \"conns_{}\": {{ \"sustained_rounds\": {}, \"sustained_rounds_per_sec\": \
                 {:.0}, \"p50_round_us\": {:.1}, \"p99_round_us\": {:.1} }}",
                    p.connections,
                    p.sustained_rounds,
                    p.sustained_rounds_per_sec,
                    p.p50_round_ns / 1e3,
                    p.p99_round_ns / 1e3
                )
            })
            .collect();
        let at_8 = points
            .iter()
            .find(|p| p.connections == 8)
            .expect("8-connection point")
            .sustained_rounds_per_sec;
        let json = format!(
            "{{\n  \"schema\": \"banditware-bench-v1\",\n  \"pr\": 6,\n  \"unit\": \"mixed\",\n  \
         \"net_round_trip\": {{\n{}\n  }},\n  \
         \"sustained_rounds_per_sec_at_8_conns\": {at_8:.0}\n}}\n",
            rows.join(",\n"),
        );
        std::fs::write(&out_path_pr6, &json).expect("write bench json");
        println!("{json}");
        println!("wrote {out_path_pr6}");
        assert!(
            at_8 >= 50_000.0,
            "PR-6 acceptance: the TCP front-end must sustain at least 50k rounds/sec at 8 \
         connections on loopback, got {at_8:.0}"
        );
    }

    // The record_m64 median committed in BENCH_PR3.json at the close of
    // PR 6, on the host that ran that CI pass. Reported in the JSON for
    // trajectory context only — absolute nanoseconds do not transfer
    // between hosts, so the PR-7/8 gates below compare the incremental
    // record against a from-scratch refactor measured in the *same run*.
    const PR3_RECORD_M64: f64 = 5128.3;
    // The O(m³)→O(m²) bar: one incremental record at m=64 must be at
    // least this many times cheaper than decomposing the m=65 system from
    // scratch (what the seed paid per record). The asymptotic gap at this
    // size is ~20×; 8× leaves headroom for noise without ever passing an
    // accidental return to per-record refits.
    const REFIT_OVER_RECORD_MIN: f64 = 8.0;
    // Same-run ratio gates ("frame no slower than rows") are measured as
    // back-to-back (denominator, numerator) pairs, keeping the attempt
    // with the lowest ratio. Taking independent minima per side instead
    // lets one unusually clean denominator window inflate the ratio past
    // its tolerance on a noisy shared host; a paired window sees the same
    // host conditions on both sides, and steal time can only worsen a
    // ratio, so the min over pairs is the robust estimator.
    let paired_ratio =
        |n: usize, num: &dyn Fn() -> f64, den: &dyn Fn() -> f64| -> (f64, f64, f64) {
            let mut best: Option<(f64, f64, f64)> = None;
            for _ in 0..n {
                let d = den();
                let m = num();
                let r = m / d;
                if best.is_none_or(|(_, _, br)| r < br) {
                    best = Some((m, d, r));
                }
            }
            best.expect("n >= 1 attempts")
        };

    // --- PR 7: the SIMD-width kernel group — blocked dot / cholupdate
    // micro-benches plus the columnar-vs-row engine round. ---
    if run_pr(7) {
        let dot_m64 = bench_dot(64);
        let cholupdate_m64 = bench_cholupdate(64);
        let (engine_round_frame_b64, engine_round_rows_b64, frame_over_rows) =
            paired_ratio(5, &|| bench_engine_round(64, true), &|| bench_engine_round(64, false));
        let refit_m65 = best_of_3(bench_refactor(65), &|| bench_refactor(65));
        let record_speedup = PR3_RECORD_M64 / record_m64;
        let refit_over_record = refit_m65 / record_m64;
        let json = format!(
        "{{\n  \"schema\": \"banditware-bench-v1\",\n  \"pr\": 7,\n  \"unit\": \"ns_per_op\",\n  \
         \"kernels\": {{\n    \"dot_m64\": {dot_m64:.1},\n    \
         \"cholupdate_m64\": {cholupdate_m64:.1}\n  }},\n  \
         \"record_m64\": {record_m64:.1},\n  \
         \"refit_m65\": {refit_m65:.1},\n  \
         \"refit_over_record\": {refit_over_record:.2},\n  \
         \"record_m64_pr3_committed\": {PR3_RECORD_M64:.1},\n  \
         \"record_m64_speedup_vs_pr3\": {record_speedup:.2},\n  \
         \"engine_round_b64_rows\": {engine_round_rows_b64:.1},\n  \
         \"engine_round_b64_frame\": {engine_round_frame_b64:.1},\n  \
         \"frame_over_rows\": {frame_over_rows:.2}\n}}\n",
    );
        std::fs::write(&out_path_pr7, &json).expect("write bench json");
        println!("{json}");
        println!("wrote {out_path_pr7}");
        assert!(
            refit_over_record >= REFIT_OVER_RECORD_MIN,
            "PR-7 acceptance: an incremental record at m=64 ({record_m64:.1} ns) must be at \
         least {REFIT_OVER_RECORD_MIN}x cheaper than a from-scratch m=65 refactor \
         ({refit_m65:.1} ns) in the same run, got {refit_over_record:.2}x"
        );
        // "No slower" with a 5% noise allowance: the columnar round must never
        // regress the per-request row round; on this hardware it is
        // measurably faster.
        assert!(
            frame_over_rows <= 1.05,
            "PR-7 acceptance: the columnar engine round must be no slower than the per-request \
         row round, got {engine_round_frame_b64:.1} ns vs {engine_round_rows_b64:.1} ns \
         ({frame_over_rows:.2}x)"
        );
    }

    // --- PR 8: the columnar record group — the rank-64 Gram fold vs 64
    // sequential pushes, the fold-then-refactor alternative's refactor
    // cost, and the record-isolating engine round (per-ticket record loop
    // vs one grouped frame absorption). Cross-window comparisons take the
    // best of three for the same robustness reasons as the PR-7 gates. ---
    if run_pr(8) {
        let refactor_m65 = bench_refactor(65);
        let (engine_record_frame_b64, engine_record_rows_b64, record_frame_over_rows) =
            paired_ratio(5, &|| bench_engine_record(64, true), &|| bench_engine_record(64, false));
        let push_block_speedup = push_seq_m64_k64 / push_block_m64_k64;
        let record_m64_speedup_pr8 = PR3_RECORD_M64 / record_m64;
        let refit_over_record_pr8 = refactor_m65 / record_m64;
        let record_frame_speedup = 1.0 / record_frame_over_rows;
        let json = format!(
        "{{\n  \"schema\": \"banditware-bench-v1\",\n  \"pr\": 8,\n  \"unit\": \"ns_per_op\",\n  \
         \"kernels\": {{\n    \"push_block_m64_k64\": {push_block_m64_k64:.1},\n    \
         \"push_seq_m64_k64\": {push_seq_m64_k64:.1},\n    \
         \"refactor_m65\": {refactor_m65:.1}\n  }},\n  \
         \"push_block_speedup\": {push_block_speedup:.2},\n  \
         \"record_m64\": {record_m64:.1},\n  \
         \"refit_over_record\": {refit_over_record_pr8:.2},\n  \
         \"record_m64_pr3_committed\": {PR3_RECORD_M64:.1},\n  \
         \"record_m64_speedup_vs_pr3\": {record_m64_speedup_pr8:.2},\n  \
         \"engine_record_b64_rows\": {engine_record_rows_b64:.1},\n  \
         \"engine_record_b64_frame\": {engine_record_frame_b64:.1},\n  \
         \"record_frame_speedup\": {record_frame_speedup:.2},\n  \
         \"record_frame_over_rows\": {record_frame_over_rows:.2}\n}}\n",
    );
        std::fs::write(&out_path_pr8, &json).expect("write bench json");
        println!("{json}");
        println!("wrote {out_path_pr8}");
        assert!(
            record_frame_speedup >= 1.0,
            "PR-8 acceptance: the frame record path must never be slower than the per-ticket row \
         path at batch 64, got {engine_record_frame_b64:.1} ns vs {engine_record_rows_b64:.1} ns \
         ({record_frame_speedup:.2}x)"
        );
        assert!(
            refit_over_record_pr8 >= REFIT_OVER_RECORD_MIN,
            "PR-8 acceptance: an incremental record at m=64 ({record_m64:.1} ns) must stay \
         at least {REFIT_OVER_RECORD_MIN}x cheaper than a from-scratch m=65 refactor \
         ({refactor_m65:.1} ns) in the same run, got {refit_over_record_pr8:.2}x"
        );
    }

    if !run_pr(9) {
        return;
    }
    // --- PR 9: the epoll-reactor group — single-request-per-wave fan-out
    // rounds (the shape where one epoll wake sees every connection at once
    // and cross-connection coalescing turns N tiny requests into one
    // columnar burst), plus the rank-64 block absorption against 64
    // sequential pushes. ---
    let reactor_points: Vec<NetServePoint> =
        [1, 8, 64, 256, 1024].into_iter().map(bench_net_fanout).collect();
    let fmt_net = |points: &[NetServePoint]| {
        points
            .iter()
            .map(|p| {
                format!(
                    "    \"conns_{}\": {{ \"sustained_rounds\": {}, \
                     \"sustained_rounds_per_sec\": {:.0}, \"p50_round_us\": {:.1}, \
                     \"p99_round_us\": {:.1} }}",
                    p.connections,
                    p.sustained_rounds,
                    p.sustained_rounds_per_sec,
                    p.p50_round_ns / 1e3,
                    p.p99_round_ns / 1e3
                )
            })
            .collect::<Vec<_>>()
            .join(",\n")
    };
    let block_speedup = push_seq_m64_k64 / push_block_m64_k64;

    let json = format!(
        "{{\n  \"schema\": \"banditware-bench-v1\",\n  \"pr\": 9,\n  \"unit\": \"mixed\",\n  \
         \"net_round_trip_reactor\": {{\n{}\n  }},\n  \
         \"conns_1024_served_to_completion\": true,\n  \
         \"kernels\": {{\n    \
         \"push_block_m64_k64\": {push_block_m64_k64:.1},\n    \
         \"push_seq_m64_k64\": {push_seq_m64_k64:.1}\n  }},\n  \
         \"block_speedup\": {block_speedup:.2}\n}}\n",
        fmt_net(&reactor_points),
    );
    std::fs::write(&out_path_pr9, &json).expect("write bench json");
    println!("{json}");
    println!("wrote {out_path_pr9}");
    // "No slower" with the same 5% noise allowance as the PR-7 columnar
    // gate, on the one block path (panel cholupdate + tiled Gram fold).
    assert!(
        block_speedup >= 0.95,
        "PR-9 acceptance: the rank-64 block absorption (push_block) must be no slower than \
         64 sequential pushes, got {push_block_m64_k64:.1} ns vs \
         {push_seq_m64_k64:.1} ns ({block_speedup:.2}x)"
    );
}
