//! The logged record path allocates nothing once warm: a record on an
//! engine opened with a per-key log formats its WAL text into the key
//! appender's reused buffer, so under [`Durability::Flush`] a warm
//! `Engine::record` or `Engine::record_batch_frame` makes zero heap
//! allocations, counted by a global allocator.
//!
//! The counter is process-wide, so this binary opts out of the libtest
//! harness (`harness = false` in `Cargo.toml`) and runs from `main`.

use banditware_core::{ArmSpec, BanditConfig, FeatureFrame, Retention, Ticket};
use banditware_serve::{Durability, Engine, WalOptions};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// Counting requires delegating to the system allocator, which is inherently
// `unsafe`; the arithmetic around it is a single relaxed atomic increment.
#[allow(unsafe_code)]
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

const M: usize = 7;
const KEY: &str = "tenant-0001";

fn context(round: usize) -> Vec<f64> {
    (0..M).map(|j| ((round * 31 + j * 7) % 97) as f64 * 0.5 + 0.1).collect()
}

fn logged_engine(name: &str) -> Engine {
    let dir =
        std::env::temp_dir().join("bw_wal_tests").join(format!("{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let builder = Engine::builder(ArmSpec::unit_costs(3), M)
        .policy("epsilon-greedy")
        .config(BanditConfig::paper().with_epsilon0(0.3).with_seed(11))
        .retention(Retention::Tail(16))
        .durability(Durability::Flush);
    Engine::open(builder, WalOptions::new(dir)).expect("open a logged engine").0
}

fn warm_logged_record_is_allocation_free() {
    let engine = logged_engine("alloc-record");
    let mut allocs = 0;
    for round in 0..200 {
        let (ticket, rec) = engine.recommend(KEY, &context(round)).unwrap();
        let runtime = 10.0 + rec.arm as f64 + round as f64 * 0.01;
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        engine.record(KEY, ticket, runtime).unwrap();
        if round >= 50 {
            allocs += ALLOCATIONS.load(Ordering::Relaxed) - before;
        }
    }
    assert_eq!(allocs, 0, "150 warm logged records allocated {allocs} times");
    assert_eq!(engine.history(KEY).unwrap().len(), 16);
}

fn warm_logged_record_batch_is_allocation_free() {
    const B: usize = 3;
    let engine = logged_engine("alloc-record-batch");
    let mut frame = FeatureFrame::new();
    let mut issued = Vec::new();
    let mut outcomes: Vec<(Ticket, f64)> = Vec::with_capacity(B);
    let mut allocs = 0;
    for burst in 0..100 {
        let rows: Vec<Vec<f64>> = (0..B).map(|r| context(burst * B + r)).collect();
        frame.fill_from_rows(&rows).unwrap();
        engine.recommend_batch_frame_into(KEY, &frame, &mut issued).unwrap();
        outcomes.clear();
        outcomes.extend(issued.iter().map(|(t, rec)| (*t, 10.0 + rec.arm as f64)));
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        engine.record_batch_frame(KEY, &outcomes).unwrap();
        if burst >= 20 {
            allocs += ALLOCATIONS.load(Ordering::Relaxed) - before;
        }
    }
    assert_eq!(allocs, 0, "80 warm logged record bursts allocated {allocs} times");
    assert_eq!(engine.stats().recorded_rounds, 100 * B);
}

fn main() {
    for (name, section) in [
        ("warm_logged_record_is_allocation_free", warm_logged_record_is_allocation_free as fn()),
        (
            "warm_logged_record_batch_is_allocation_free",
            warm_logged_record_batch_is_allocation_free,
        ),
    ] {
        section();
        println!("alloc_free: {name} ... ok");
    }
}
