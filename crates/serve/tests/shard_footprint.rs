//! The per-shard footprint pin: a restored and served shard holds its model
//! state, its history tail and its open tickets, and no scratch.
//!
//! A byte-counting global allocator tracks live heap bytes. 64 shards of
//! the `paper-tenants` shape (m=7, three arms, `Retention::Tail(16)`, the
//! ε-greedy policy) are restored from v3 checkpoints into a fresh engine
//! and served a few bursts each; the live bytes they add, per shard, must
//! stay under [`MAX_BYTES_PER_SHARD`]. Per-call buffers live in the
//! thread's workspace, which this thread warms before counting.
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

const M: usize = 7;
const SHARDS: usize = 64;
/// Bursts served per shard after the restore.
const BURSTS: [usize; 4] = [1, 2, 5, 3];
/// The bound on live heap bytes per restored and served shard. With every
/// per-call buffer in the thread's workspace a shard reads 8 330 bytes;
/// shards that owned their scratch buffers read 13 032.
const MAX_BYTES_PER_SHARD: i64 = 9_000;

fn builder() -> EngineBuilder {
    let specs = vec![
        ArmSpec::new(0, "small", 1.0),
        ArmSpec::new(1, "medium", 2.0),
        ArmSpec::new(2, "big", 4.0),
    ];
    Engine::builder(specs, M)
        .policy("epsilon-greedy")
        .config(BanditConfig::paper().with_epsilon0(0.5).with_seed(17))
        .retention(Retention::Tail(16))
}

fn context(step: usize, row: usize) -> Vec<f64> {
    (0..M).map(|j| ((step * 29 + row * 13 + j * 7) % 89) as f64 * 0.25 + 1.0).collect()
}

/// One recommend burst and its record burst on `key`.
fn serve(engine: &Engine, key: &str, step: usize, rows: usize) {
    let xs: Vec<Vec<f64>> = (0..rows).map(|r| context(step, r)).collect();
    let frame = FeatureFrame::from_rows(&xs).unwrap();
    let recs = engine.recommend_batch_frame(key, &frame).unwrap();
    let outcomes: Vec<(Ticket, f64)> = recs
        .iter()
        .zip(&xs)
        .map(|((t, rec), x)| (*t, 30.0 + 5.0 * rec.arm as f64 + x.iter().sum::<f64>()))
        .collect();
    engine.record_batch_frame(key, &outcomes).unwrap();
}

fn main() {
    let keys: Vec<String> = (0..SHARDS).map(|i| format!("tenant-{i:04}")).collect();
    // Warm shards and their v3 checkpoints, as a restarted server sees them.
    let warm = builder().build().unwrap();
    let mut checkpoints = Vec::new();
    for (k, key) in keys.iter().enumerate() {
        for step in 0..8 {
            serve(&warm, key, k + step, 4);
        }
        let mut bytes = Vec::new();
        warm.save_shard_checkpoint(key, &mut bytes).unwrap();
        checkpoints.push(bytes);
    }
    // Warm this thread's workspace on a throwaway shard of the same shape.
    for (step, &rows) in BURSTS.iter().enumerate() {
        serve(&warm, &keys[0], 100 + step, rows);
    }
    drop(warm);
    let parsed: Vec<_> =
        checkpoints.iter().map(|b| load_checkpoint(b.as_slice()).unwrap()).collect();

    let before = LIVE.load(Ordering::Relaxed);
    let engine = builder().build().unwrap();
    for (key, ckpt) in keys.iter().zip(&parsed) {
        engine.restore_shard_checkpoint(key, ckpt).unwrap();
    }
    for (k, key) in keys.iter().enumerate() {
        for (step, &rows) in BURSTS.iter().enumerate() {
            serve(&engine, key, 200 + k + step, rows);
        }
    }
    let per_shard = (LIVE.load(Ordering::Relaxed) - before) / SHARDS as i64;
    drop(engine);
    println!("shard_footprint: {per_shard} live heap bytes per restored and served shard");
    assert!(
        per_shard <= MAX_BYTES_PER_SHARD,
        "a restored and served shard holds {per_shard} live heap bytes (bound {MAX_BYTES_PER_SHARD}): \
         has per-call scratch moved back into the shard?"
    );
}
