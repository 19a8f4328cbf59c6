//! Serving-engine throughput: the batched recommend/record path against the
//! per-call path, through the full `serve::Engine` stack (striped locks,
//! boxed policy, ticket table). This is the tracked number for the batch
//! path: one lock acquisition + one policy pass per batch must beat N of
//! each, and the gap should grow with the batch size.

use banditware_core::{ArmSpec, BanditConfig, FeatureFrame, Ticket};
use banditware_serve::Engine;
use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const N_ARMS: usize = 4;
const N_FEATURES: usize = 2;
const ROUNDS: usize = 256;

fn engine(policy: &str) -> Engine {
    Engine::builder(ArmSpec::unit_costs(N_ARMS), N_FEATURES)
        .policy(policy)
        .config(BanditConfig::paper().with_epsilon0(0.1).with_seed(7))
        .stripes(8)
        .build()
        .expect("valid engine")
}

fn contexts(n: usize, rng: &mut StdRng) -> Vec<Vec<f64>> {
    (0..n).map(|_| vec![rng.gen_range(1.0..100.0), rng.gen_range(0.1..5.0)]).collect()
}

/// Drive `ROUNDS` rounds through one tenant per-call: one lock acquisition
/// and one policy pass per recommend and per record.
fn per_call_rounds(e: &Engine, key: &str, rng: &mut StdRng) {
    for x in contexts(ROUNDS, rng) {
        let (t, rec) = e.recommend(key, &x).unwrap();
        e.record(key, t, (rec.arm + 1) as f64 * x[0] + 1.0).unwrap();
    }
}

/// The same rounds in batches of `batch`: one lock acquisition and one
/// policy batch pass per burst, staged in one reused frame.
fn batched_rounds(e: &Engine, key: &str, batch: usize, rng: &mut StdRng) {
    let mut remaining = ROUNDS;
    let mut frame = FeatureFrame::new();
    while remaining > 0 {
        let n = batch.min(remaining);
        let xs = contexts(n, rng);
        frame.fill_from_rows(&xs).unwrap();
        let issued = e.recommend_batch_frame(key, &frame).unwrap();
        let outcomes: Vec<(Ticket, f64)> = issued
            .iter()
            .zip(&xs)
            .map(|((t, rec), x)| (*t, (rec.arm + 1) as f64 * x[0] + 1.0))
            .collect();
        e.record_batch_frame(key, &outcomes).unwrap();
        remaining -= n;
    }
}

fn bench_batch_vs_per_call(c: &mut Criterion) {
    let mut group = c.benchmark_group("serve_throughput_256_rounds");
    // Every sample builds a fresh engine and a same-seeded RNG, so each
    // iteration times the *identical* 256 rounds (history length, ε
    // schedule and contexts all start from scratch); per-call and batched
    // variants stay comparable regardless of how many samples the harness
    // chooses to run.
    for policy in ["epsilon-greedy", "scaled-epsilon-greedy"] {
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{policy}_per_call")),
            &(),
            |b, ()| {
                b.iter_with_setup(
                    || (engine(policy), StdRng::seed_from_u64(3)),
                    |(e, mut rng)| per_call_rounds(black_box(&e), "bench", &mut rng),
                )
            },
        );
        for batch in [8usize, 32, 128] {
            group.bench_with_input(
                BenchmarkId::from_parameter(format!("{policy}_batched_{batch}")),
                &batch,
                |b, &batch| {
                    b.iter_with_setup(
                        || (engine(policy), StdRng::seed_from_u64(3)),
                        |(e, mut rng)| batched_rounds(black_box(&e), "bench", batch, &mut rng),
                    )
                },
            );
        }
    }
    group.finish();
}

fn bench_multi_tenant_fanout(c: &mut Criterion) {
    let mut group = c.benchmark_group("serve_multi_tenant");
    // 8 tenants × 32 rounds, single thread: measures striping + shard
    // lookup overhead rather than lock contention.
    let keys: Vec<String> = (0..8).map(|i| format!("tenant-{i}")).collect();
    group.bench_function("8_tenants_x32_batched", |b| {
        b.iter_with_setup(
            || (engine("epsilon-greedy"), StdRng::seed_from_u64(9)),
            |(e, mut rng)| {
                let mut frame = FeatureFrame::new();
                for key in &keys {
                    frame.fill_from_rows(&contexts(32, &mut rng)).unwrap();
                    let issued = e.recommend_batch_frame(key, &frame).unwrap();
                    let outcomes: Vec<(Ticket, f64)> =
                        issued.iter().map(|(t, r)| (*t, (r.arm + 1) as f64 * 10.0)).collect();
                    e.record_batch_frame(key, &outcomes).unwrap();
                }
            },
        )
    });
    group.finish();
}

criterion_group!(benches, bench_batch_vs_per_call, bench_multi_tenant_fanout);
criterion_main!(benches);
