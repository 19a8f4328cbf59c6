//! The perf gates: every timing claim the serving chain is held to, checked
//! on the running host in one process.
//!
//! | gate | what is measured | bar |
//! |---|---|---|
//! | `refit_over_record` | m=65 from-scratch LDLᵀ refit / one incremental m=64 record | ≥ 8 |
//! | `frame_recommend_over_rows` | `recommend_batch_frame` round / per-request `Engine::recommend` loop, batch 64 | ≤ 1.05 |
//! | `frame_record_over_rows` | `record_batch_frame` round / per-ticket `record` loop, batch 64 | ≤ 1.0 |
//! | `push_block_speedup` | 64 sequential `push` calls / one rank-64 `push_block`, m=64 | ≥ 0.95 |
//! | `restore_100k_over_1k` | v3 snapshot restore after 100k rounds / after 1k rounds | < 2 |
//! | `checkpoint_parse_over_float_parse` | `load_checkpoint` of 1024 m=7 tenant checkpoints / `str::parse::<f64>` of their numeric fields | ≤ 2 |
//! | `rounds_per_s_8_conns` | pipelined recommend→record rounds/s over 8 loopback connections | ≥ 50 000 |
//! | `fanout_1024_rounds_served` | rounds answered when one client thread drives 1024 connections | all of them |
//! | `crc_dispatch_over_table` | host-dispatched CRC-32 / the slicing-by-8 table body, over the four payloads of an m=7 wire round | ≤ 1.05 |
//!
//! Each ratio gate is measured as [`PAIRS`] back-to-back pairs, reference
//! side first, and keeps the pair with the lowest `new / reference`: both
//! sides of a pair see the same host conditions, and steal time only ever
//! inflates a window, so the best pair is the robust estimate of the
//! steady-state ratio on a shared host. A gate stated as a speedup prints
//! `reference / new` of that same pair. The two network gates are single
//! runs: one absolute throughput bar and one completion count.
//!
//! Report-only figures (per-m record and select medians, kernel timings,
//! catch-up throughput, round-latency percentiles, fan-out at fewer
//! connections) belong to `bwbench --trace 1` and the criterion benches;
//! their last values from the per-PR snapshot files this binary replaced
//! are in the README's "Perf trajectory" table.
//!
//! Usage: `cargo run --release -p banditware-bench --bin perf_gates`. It
//! takes no arguments and writes no file. It prints one
//! `gate <name>: <value> (bar <op> <bar>) ok|FAIL` line per gate, runs
//! every gate even after one fails (a panicking gate counts as failed),
//! and exits 1 if any gate failed.

use banditware_core::arm::{ArmEstimator, RecursiveArm};
use banditware_core::persist::{load_checkpoint, restore_checkpoint, save_checkpoint};
use banditware_core::{
    ArmSpec, BanditConfig, BanditWare, DecayingEpsilonGreedy, FeatureFrame, Retention, Ticket,
};
use banditware_linalg::{LinearFit, Matrix, NormalEquations, SolveScratch, UpdatableCholesky};
use banditware_net::{NetClient, NetServer, Response, ServerConfig};
use banditware_serve::crc::{crc32, crc32_table};
use banditware_serve::Engine;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt;
use std::sync::Arc;
use std::time::Instant;

/// Back-to-back pairs per ratio gate.
const PAIRS: usize = 5;

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

/// The lowest `new / reference` over `pairs` back-to-back measurements,
/// reference side first.
fn paired_ratio(
    pairs: usize,
    mut new: impl FnMut() -> f64,
    mut reference: impl FnMut() -> f64,
) -> f64 {
    (0..pairs)
        .map(|_| {
            let r = reference();
            new() / r
        })
        .fold(f64::INFINITY, f64::min)
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

/// One from-scratch LDLᵀ factorization of a `dim × dim` SPD matrix: what
/// every record cost before the factor was updated incrementally.
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

fn engine(m: usize) -> Engine {
    Engine::builder(ArmSpec::unit_costs(4), m)
        .config(BanditConfig::paper().with_epsilon0(0.1).with_seed(5))
        .build()
        .unwrap()
}

/// One engine round of 64 requests at m=8, ns per request. `frame_recommend`
/// picks the recommend half — one `recommend_batch_frame` over a staged
/// frame, or a per-request `Engine::recommend` loop — while `frame_record`
/// picks the record half — one `record_batch_frame`, or a per-ticket
/// `record` loop. Each gate flips one half, so the delta isolates it.
fn bench_engine_round(frame_recommend: bool, frame_record: bool) -> f64 {
    const BATCH: usize = 64;
    let engine = engine(8);
    let mut rng = StdRng::seed_from_u64(33);
    let mut frame = FeatureFrame::new();
    let run = |contexts: &[Vec<f64>], frame: &FeatureFrame| {
        let issued: Vec<_> = if frame_recommend {
            engine.recommend_batch_frame("tenant", frame).unwrap()
        } else {
            contexts.iter().map(|x| engine.recommend("tenant", x).unwrap()).collect()
        };
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
        let contexts: Vec<Vec<f64>> = (0..BATCH).map(|_| context(8, &mut rng)).collect();
        frame.fill_from_rows(&contexts).unwrap();
        run(&contexts, &frame);
    }
    let contexts: Vec<Vec<f64>> = (0..BATCH).map(|_| context(8, &mut rng)).collect();
    frame.fill_from_rows(&contexts).unwrap();
    median_ns_per_op(15, 30, || run(&contexts, &frame)) / BATCH as f64
}

/// One `k`-row [`NormalEquations::push_block`] (`block`) or `k` sequential
/// [`NormalEquations::push`] calls, ns per block, on a warmed accumulator
/// with a live LDLᵀ factor (the serving configuration).
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

type Bandit = BanditWare<DecayingEpsilonGreedy<RecursiveArm>>;

fn fresh_bandit(m: usize) -> Bandit {
    let policy = DecayingEpsilonGreedy::<RecursiveArm>::new(
        ArmSpec::unit_costs(4),
        m,
        BanditConfig::paper().with_epsilon0(0.2).with_seed(7),
    )
    .unwrap();
    BanditWare::new(policy, ArmSpec::unit_costs(4))
}

/// The v3 snapshot (`Retention::Tail(256)`) of one m=8 tenant after `n`
/// live rounds.
fn v3_snapshot(n: usize) -> Vec<u8> {
    const M: usize = 8;
    let mut rng = StdRng::seed_from_u64(41);
    let mut bandit = fresh_bandit(M);
    for _ in 0..n {
        let x = context(M, &mut rng);
        let (t, rec) = bandit.recommend_ticketed(&x).unwrap();
        bandit.record_ticket(t, 5.0 + rec.arm as f64 + x[0] * 0.1).unwrap();
    }
    bandit.set_retention(Retention::Tail(256));
    let mut bytes = Vec::new();
    save_checkpoint(&bandit, &mut bytes).unwrap();
    bytes
}

/// Median wall time (ns) of a restore of `bytes` into a fresh tenant.
fn bench_restore(bytes: &[u8], n: usize) -> f64 {
    median_ns_per_op(15, 1, || {
        let cp = load_checkpoint(bytes).unwrap();
        let mut fresh = fresh_bandit(8);
        restore_checkpoint(&mut fresh, &cp).unwrap();
        assert_eq!(fresh.rounds(), n);
    })
}

/// v3 checkpoints shaped like the ones the `paper-tenants` bench workload
/// restores at set-up: 1024 ε-greedy tenants at m=7 with three arms, 64
/// warm-up rounds each, and a 16-round history tail.
fn tenant_checkpoints() -> Vec<Vec<u8>> {
    const M: usize = 7;
    let engine = Engine::builder(ArmSpec::unit_costs(3), M)
        .policy("epsilon-greedy")
        .config(BanditConfig::paper().with_seed(13))
        .retention(Retention::Tail(16))
        .build()
        .unwrap();
    let mut rng = StdRng::seed_from_u64(61);
    (0..1024)
        .map(|k| {
            let key = format!("tenant-{k:04}");
            for _ in 0..64 {
                let x = context(M, &mut rng);
                let (t, rec) = engine.recommend(&key, &x).unwrap();
                engine.record(&key, t, 5.0 + rec.arm as f64 + x[0] * 0.1).unwrap();
            }
            let mut bytes = Vec::new();
            engine.save_shard_checkpoint(&key, &mut bytes).unwrap();
            bytes
        })
        .collect()
}

/// Wall time (ns) of `load_checkpoint` over every checkpoint.
fn bench_checkpoint_parse(checkpoints: &[Vec<u8>]) -> f64 {
    let start = Instant::now();
    for bytes in checkpoints {
        std::hint::black_box(load_checkpoint(bytes.as_slice()).unwrap());
    }
    start.elapsed().as_nanos() as f64
}

/// Wall time (ns) of `str::parse::<f64>` over `fields`, the numeric fields
/// of the checkpoints: the floor of any reader that converts each of them
/// with the standard parser.
fn bench_float_parse(fields: &[&str]) -> f64 {
    let start = Instant::now();
    let mut sum = 0.0;
    for f in fields {
        sum += std::hint::black_box(f).parse::<f64>().unwrap();
    }
    std::hint::black_box(sum);
    start.elapsed().as_nanos() as f64
}

fn serve(m: usize) -> NetServer {
    NetServer::bind(Arc::new(engine(m)), "127.0.0.1:0", ServerConfig::default())
        .expect("bind loopback")
}

/// Sustained recommend→record rounds/s through the TCP front-end on
/// loopback, `connections` client threads each on its own tenant key,
/// sending pipelined bursts of 64 (which the server coalesces into one
/// frame call). Conservative: all rounds over the slowest client's time.
fn net_rounds_per_s(connections: usize) -> f64 {
    const M: usize = 8;
    const BURST: usize = 64;
    const ROUNDS: usize = 4096;
    let mut server = serve(M);
    let addr = server.local_addr();
    let slowest_s = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..connections)
            .map(|c| {
                scope.spawn(move || {
                    let key = format!("tenant-{c}");
                    let mut client = NetClient::connect(addr).expect("connect");
                    let mut rng = StdRng::seed_from_u64(91 + c as u64);
                    let xs: Vec<Vec<f64>> = (0..BURST).map(|_| context(M, &mut rng)).collect();
                    let mut burst = || {
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
                        burst(); // warmup
                    }
                    let start = Instant::now();
                    for _ in 0..ROUNDS / BURST {
                        burst();
                    }
                    start.elapsed().as_secs_f64()
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().expect("worker")).fold(0.0, f64::max)
    });
    server.shutdown();
    (connections * ROUNDS) as f64 / slowest_s
}

/// Fan-out waves at m=64: every one of `connections` sockets, all driven
/// by this one thread and all on one hot tenant key, sends a single
/// recommend, then every reply is read, then the same for the records —
/// the shape the reactor's cross-connection coalescing serves. Returns
/// the rounds answered over `waves` waves.
fn fanout_rounds_served(connections: usize, waves: usize) -> f64 {
    const M: usize = 64;
    let mut server = serve(M);
    let addr = server.local_addr();
    let mut clients: Vec<NetClient> =
        (0..connections).map(|_| NetClient::connect(addr).expect("connect")).collect();
    let mut rng = StdRng::seed_from_u64(91);
    let xs: Vec<Vec<f64>> = (0..64).map(|_| context(M, &mut rng)).collect();
    let mut served = 0usize;
    for i in 0..2 + waves {
        let x = &xs[i % xs.len()];
        let ids: Vec<u64> = clients
            .iter_mut()
            .map(|cl| {
                let id = cl.send_recommend("hot-app", x);
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
            .zip(&tickets)
            .map(|(cl, (t, a))| {
                let id = cl.send_record("hot-app", *t, 10.0 + f64::from(*a));
                cl.flush().expect("flush record");
                id
            })
            .collect();
        for (cl, id) in clients.iter_mut().zip(&ids) {
            cl.wait(*id).expect("record");
            if i >= 2 {
                served += 1; // the first two waves are warmup
            }
        }
    }
    drop(clients);
    server.shutdown();
    served as f64
}

/// The payload sizes of one `paper-tenants` round on the wire: a
/// recommend request at m=7, its reply, a record request and its reply.
const WIRE_PAYLOADS: [usize; 4] = [80, 50, 38, 9];

/// ns to checksum each of the [`WIRE_PAYLOADS`] once with `crc`.
fn bench_crc(crc: fn(&[u8]) -> u32) -> f64 {
    let bytes: Vec<u8> = (0..256u32).map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8).collect();
    let payloads: Vec<&[u8]> = WIRE_PAYLOADS.iter().map(|&n| &bytes[..n]).collect();
    median_ns_per_op(15, 20_000, || {
        for p in &payloads {
            std::hint::black_box(crc(std::hint::black_box(p)));
        }
    })
}

const FANOUT_CONNECTIONS: usize = 1024;
const FANOUT_WAVES: usize = 16;

#[derive(Clone, Copy)]
enum Bar {
    AtLeast(f64),
    AtMost(f64),
    Below(f64),
}

impl Bar {
    fn holds(self, value: f64) -> bool {
        match self {
            Bar::AtLeast(bar) => value >= bar,
            Bar::AtMost(bar) => value <= bar,
            Bar::Below(bar) => value < bar,
        }
    }
}

impl fmt::Display for Bar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Bar::AtLeast(bar) => write!(f, ">= {bar}"),
            Bar::AtMost(bar) => write!(f, "<= {bar}"),
            Bar::Below(bar) => write!(f, "< {bar}"),
        }
    }
}

/// A gate's name, its bar, and the measurement checked against it.
type Gate = (&'static str, Bar, fn() -> f64);

fn main() {
    let gates: [Gate; 9] = [
        ("refit_over_record", Bar::AtLeast(8.0), || {
            1.0 / paired_ratio(PAIRS, || bench_record(64), || bench_refactor(65))
        }),
        ("frame_recommend_over_rows", Bar::AtMost(1.05), || {
            paired_ratio(
                PAIRS,
                || bench_engine_round(true, true),
                || bench_engine_round(false, true),
            )
        }),
        ("frame_record_over_rows", Bar::AtMost(1.0), || {
            paired_ratio(
                PAIRS,
                || bench_engine_round(true, true),
                || bench_engine_round(true, false),
            )
        }),
        ("push_block_speedup", Bar::AtLeast(0.95), || {
            1.0 / paired_ratio(PAIRS, || bench_push(64, 64, true), || bench_push(64, 64, false))
        }),
        ("restore_100k_over_1k", Bar::Below(2.0), || {
            let (small, large) = (v3_snapshot(1_000), v3_snapshot(100_000));
            paired_ratio(PAIRS, || bench_restore(&large, 100_000), || bench_restore(&small, 1_000))
        }),
        ("checkpoint_parse_over_float_parse", Bar::AtMost(2.0), || {
            let checkpoints = tenant_checkpoints();
            let text: Vec<&str> =
                checkpoints.iter().map(|b| std::str::from_utf8(b).unwrap()).collect();
            let numeric: Vec<&str> = text
                .iter()
                .flat_map(|t| t.split(['\n', ',']))
                .filter(|f| f.parse::<f64>().is_ok())
                .collect();
            paired_ratio(
                PAIRS,
                || bench_checkpoint_parse(&checkpoints),
                || bench_float_parse(&numeric),
            )
        }),
        ("rounds_per_s_8_conns", Bar::AtLeast(50_000.0), || net_rounds_per_s(8)),
        (
            "fanout_1024_rounds_served",
            Bar::AtLeast((FANOUT_CONNECTIONS * FANOUT_WAVES) as f64),
            || fanout_rounds_served(FANOUT_CONNECTIONS, FANOUT_WAVES),
        ),
        ("crc_dispatch_over_table", Bar::AtMost(1.05), || {
            paired_ratio(PAIRS, || bench_crc(crc32), || bench_crc(crc32_table))
        }),
    ];
    let mut failed = 0;
    for (name, bar, gate) in gates {
        let (shown, ok) = match std::panic::catch_unwind(gate) {
            Ok(value) if value >= 100.0 => (format!("{value:.0}"), bar.holds(value)),
            Ok(value) => (format!("{value:.3}"), bar.holds(value)),
            Err(_) => ("panicked".to_string(), false),
        };
        failed += usize::from(!ok);
        println!("gate {name}: {shown} (bar {bar}) {}", if ok { "ok" } else { "FAIL" });
    }
    if failed > 0 {
        eprintln!("{failed} perf gate(s) failed");
        std::process::exit(1);
    }
}
