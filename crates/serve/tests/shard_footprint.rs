//! The per-shard footprint pin: a restored and served shard holds its model
//! state, its history tail and its open tickets, and no scratch.
//!
//! A byte-counting global allocator tracks live heap bytes. Shards of two
//! shapes are restored from v3 checkpoints into a fresh engine and served a
//! few bursts each; the live bytes they add, per shard, must stay under the
//! shape's bound:
//! * the `paper-tenants` shape (m=7, three arms, `Retention::Tail(16)`,
//!   the ε-greedy policy), under [`MAX_BYTES_PER_SHARD`];
//! * the `wide-frames` shape (m=64, four arms, `Retention::Tail(64)`,
//!   ε-greedy), under [`MAX_BYTES_PER_WIDE_SHARD`].
//!
//! Per-call buffers live in the thread's workspace, which this thread warms
//! before counting.
//!
//! The counter is process-wide, so this binary opts out of the libtest
//! harness (`harness = false` in `Cargo.toml`) and runs from `main`.

use banditware_core::persist::load_checkpoint;
use banditware_core::{ArmSpec, BanditConfig, FeatureFrame, Retention, Ticket};
use banditware_serve::{Engine, EngineBuilder};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, Ordering};

struct LiveBytes;

static LIVE: AtomicI64 = AtomicI64::new(0);

// Counting requires delegating to the system allocator, which is inherently
// `unsafe`; the arithmetic around it is one relaxed atomic add per call.
#[allow(unsafe_code)]
unsafe impl GlobalAlloc for LiveBytes {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as i64, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as i64, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(new_size as i64 - layout.size() as i64, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: LiveBytes = LiveBytes;

/// Bursts served per shard after the restore.
const BURSTS: [usize; 4] = [1, 2, 5, 3];
/// The bound on live heap bytes per restored and served `paper-tenants`
/// shard. With each arm's Gram matrix and factor packed into one buffer
/// apiece a shard reads 6 319 bytes; with full 8×8 matrices spread over
/// seven blocks per arm it read 8 215, and shards that owned their scratch
/// buffers read 13 032.
const MAX_BYTES_PER_SHARD: i64 = 6_600;
/// The bound on live heap bytes per restored and served `wide-frames`
/// shard. With packed arm state a shard reads 188 459 bytes; with full
/// 65×65 matrices it read 324 139.
const MAX_BYTES_PER_WIDE_SHARD: i64 = 197_000;

/// One measured shard shape.
struct Shape {
    name: &'static str,
    m: usize,
    arms: usize,
    tail: usize,
    shards: usize,
    /// Rows per warm-up burst (eight bursts precede the checkpoint).
    warm_rows: usize,
    bound: i64,
}

const SHAPES: [Shape; 2] = [
    Shape {
        name: "paper-tenants",
        m: 7,
        arms: 3,
        tail: 16,
        shards: 64,
        warm_rows: 4,
        bound: MAX_BYTES_PER_SHARD,
    },
    Shape {
        name: "wide-frames",
        m: 64,
        arms: 4,
        tail: 64,
        shards: 8,
        warm_rows: 16,
        bound: MAX_BYTES_PER_WIDE_SHARD,
    },
];

fn builder(shape: &Shape) -> EngineBuilder {
    let specs = ["small", "medium", "big", "huge"][..shape.arms]
        .iter()
        .enumerate()
        .map(|(i, name)| ArmSpec::new(i, *name, (1 << i) as f64))
        .collect();
    Engine::builder(specs, shape.m)
        .policy("epsilon-greedy")
        .config(BanditConfig::paper().with_epsilon0(0.5).with_seed(17))
        .retention(Retention::Tail(shape.tail))
}

fn context(m: usize, step: usize, row: usize) -> Vec<f64> {
    (0..m).map(|j| ((step * 29 + row * 13 + j * 7) % 89) as f64 * 0.25 + 1.0).collect()
}

/// One recommend burst and its record burst on `key`.
fn serve(engine: &Engine, m: usize, key: &str, step: usize, rows: usize) {
    let xs: Vec<Vec<f64>> = (0..rows).map(|r| context(m, step, r)).collect();
    let frame = FeatureFrame::from_rows(&xs).unwrap();
    let recs = engine.recommend_batch_frame(key, &frame).unwrap();
    let outcomes: Vec<(Ticket, f64)> = recs
        .iter()
        .zip(&xs)
        .map(|((t, rec), x)| (*t, 30.0 + 5.0 * rec.arm as f64 + x.iter().sum::<f64>()))
        .collect();
    engine.record_batch_frame(key, &outcomes).unwrap();
}

/// Live heap bytes per restored and served shard of `shape`.
fn measure(shape: &Shape) -> i64 {
    let m = shape.m;
    let keys: Vec<String> = (0..shape.shards).map(|i| format!("tenant-{i:04}")).collect();
    // Warm shards and their v3 checkpoints, as a restarted server sees them.
    let warm = builder(shape).build().unwrap();
    let mut checkpoints = Vec::new();
    for (k, key) in keys.iter().enumerate() {
        for step in 0..8 {
            serve(&warm, m, key, k + step, shape.warm_rows);
        }
        let mut bytes = Vec::new();
        warm.save_shard_checkpoint(key, &mut bytes).unwrap();
        checkpoints.push(bytes);
    }
    // Warm this thread's workspace on a throwaway shard of the same shape.
    for (step, &rows) in BURSTS.iter().enumerate() {
        serve(&warm, m, &keys[0], 100 + step, rows);
    }
    drop(warm);
    let parsed: Vec<_> =
        checkpoints.iter().map(|b| load_checkpoint(b.as_slice()).unwrap()).collect();

    let before = LIVE.load(Ordering::Relaxed);
    let engine = builder(shape).build().unwrap();
    for (key, ckpt) in keys.iter().zip(&parsed) {
        engine.restore_shard_checkpoint(key, ckpt).unwrap();
    }
    for (k, key) in keys.iter().enumerate() {
        for (step, &rows) in BURSTS.iter().enumerate() {
            serve(&engine, m, key, 200 + k + step, rows);
        }
    }
    let per_shard = (LIVE.load(Ordering::Relaxed) - before) / shape.shards as i64;
    drop(engine);
    per_shard
}

fn main() {
    for shape in &SHAPES {
        let per_shard = measure(shape);
        println!(
            "shard_footprint: {per_shard} live heap bytes per restored and served {} shard",
            shape.name
        );
        assert!(
            per_shard <= shape.bound,
            "a restored and served {} shard holds {per_shard} live heap bytes (bound {}): \
             has per-call scratch moved back into the shard, or arm state grown?",
            shape.name,
            shape.bound
        );
    }
}
