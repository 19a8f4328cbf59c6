//! Deterministic multi-threaded stress harness for [`Engine`].
//!
//! The harness models the serving deployment: `n_threads` workers, each
//! owning a **disjoint** set of tenant keys (a shared cluster routes a
//! tenant's workflows through one ingestion queue, so per-tenant order is
//! fixed even when the fleet is concurrent). Every key's round stream —
//! contexts, batching, synthetic runtimes — is derived from the plan seed
//! and the key alone, so the engine's final per-shard state is a pure
//! function of the plan, regardless of thread count or OS scheduling. That
//! is what makes an 8-thread run comparable, shard by shard, with a
//! single-threaded legacy loop (see the crate's integration tests).

use crate::engine::Engine;
use banditware_core::{FeatureFrame, Result, Ticket};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

/// Shape of a stress run.
#[derive(Debug, Clone)]
pub struct StressPlan {
    /// Worker threads (each owns `keys_per_thread` keys).
    pub n_threads: usize,
    /// Keys per worker; key names are `"w<thread>-<k>"`.
    pub keys_per_thread: usize,
    /// Rounds driven through every key.
    pub rounds_per_key: usize,
    /// Rounds are issued in batches of this size (1 = per-call path).
    pub batch_size: usize,
    /// Master seed for context/runtime synthesis.
    pub seed: u64,
}

impl Default for StressPlan {
    fn default() -> Self {
        StressPlan { n_threads: 4, keys_per_thread: 2, rounds_per_key: 64, batch_size: 8, seed: 7 }
    }
}

impl StressPlan {
    /// The keys a given worker owns.
    pub fn keys_of(&self, thread: usize) -> Vec<String> {
        (0..self.keys_per_thread).map(|k| format!("w{thread}-{k}")).collect()
    }

    /// Every key in the plan, in worker order.
    pub fn all_keys(&self) -> Vec<String> {
        (0..self.n_threads).flat_map(|t| self.keys_of(t)).collect()
    }

    /// Per-key RNG for context/runtime synthesis — a function of the plan
    /// seed and the key only, so any executor (threaded or not) derives the
    /// identical stream.
    pub fn key_rng(&self, key: &str) -> StdRng {
        let mut h: u64 = self.seed ^ 0x9E37_79B9_7F4A_7C15;
        for b in key.as_bytes() {
            h = h.wrapping_mul(31).wrapping_add(u64::from(*b));
        }
        StdRng::seed_from_u64(h)
    }
}

/// Synthetic context for one round (1 feature, sized 1..100).
pub fn draw_context(rng: &mut StdRng) -> Vec<f64> {
    vec![rng.gen_range(1.0..100.0)]
}

/// Synthetic ground-truth runtime: arm `a` runs `x` in `(a+1)·x + 10` s,
/// plus a deterministic per-round jitter drawn from the key's stream.
pub fn true_runtime(arm: usize, x: &[f64], rng: &mut StdRng) -> f64 {
    (arm + 1) as f64 * x[0] + 10.0 + rng.gen_range(0.0..1.0)
}

/// Outcome of a stress run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StressReport {
    /// Rounds recorded, per key (BTreeMap → deterministic reporting order).
    pub rounds_per_key: BTreeMap<String, usize>,
    /// Total rounds recorded across the engine.
    pub total_rounds: usize,
}

/// Drive one key's full round stream through the engine (the same loop the
/// threaded harness runs; public so equivalence tests can replay it
/// single-threaded).
///
/// # Errors
/// Propagates engine failures (none are expected under a valid plan).
pub fn drive_key(engine: &Engine, plan: &StressPlan, key: &str) -> Result<usize> {
    let mut rng = plan.key_rng(key);
    let mut recorded = 0;
    let mut remaining = plan.rounds_per_key;
    let mut frame = FeatureFrame::new();
    while remaining > 0 {
        let batch = plan.batch_size.max(1).min(remaining);
        let contexts: Vec<Vec<f64>> = (0..batch).map(|_| draw_context(&mut rng)).collect();
        frame.fill_from_rows(&contexts)?;
        let issued = engine.recommend_batch_frame(key, &frame)?;
        let outcomes: Vec<(Ticket, f64)> = issued
            .iter()
            .zip(&contexts)
            .map(|((t, rec), x)| (*t, true_runtime(rec.arm, x, &mut rng)))
            .collect();
        engine.record_batch_frame(key, &outcomes)?;
        recorded += batch;
        remaining -= batch;
    }
    Ok(recorded)
}

/// Run the plan: `n_threads` scoped workers, each driving its own keys.
///
/// # Panics
/// Panics if a worker hits an engine error (stress harness, not a service).
pub fn run_stress(engine: &Engine, plan: &StressPlan) -> StressReport {
    let mut per_thread: Vec<Vec<(String, usize)>> = Vec::new();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..plan.n_threads)
            .map(|t| {
                let keys = plan.keys_of(t);
                s.spawn(move || {
                    keys.into_iter()
                        .map(|key| {
                            let n = drive_key(engine, plan, &key).expect("stress round failed");
                            (key, n)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for h in handles {
            per_thread.push(h.join().expect("stress worker panicked"));
        }
    });
    let mut report = StressReport::default();
    for (key, n) in per_thread.into_iter().flatten() {
        report.total_rounds += n;
        report.rounds_per_key.insert(key, n);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use banditware_core::{ArmSpec, BanditConfig};

    fn engine(stripes: usize) -> Engine {
        Engine::builder(ArmSpec::unit_costs(3), 1)
            .config(BanditConfig::paper().with_seed(5))
            .stripes(stripes)
            .build()
            .unwrap()
    }

    #[test]
    fn all_rounds_complete() {
        let e = engine(4);
        let plan = StressPlan {
            n_threads: 3,
            keys_per_thread: 2,
            rounds_per_key: 30,
            ..Default::default()
        };
        let report = run_stress(&e, &plan);
        assert_eq!(report.total_rounds, 3 * 2 * 30);
        assert_eq!(report.rounds_per_key.len(), 6);
        assert!(report.rounds_per_key.values().all(|&n| n == 30));
        let stats = e.stats();
        assert_eq!(stats.recorded_rounds, 180);
        assert_eq!(stats.in_flight, 0);
        assert_eq!(stats.keys, 6);
    }

    #[test]
    fn batch_size_never_exceeds_remaining() {
        let e = engine(2);
        let plan = StressPlan {
            n_threads: 1,
            keys_per_thread: 1,
            rounds_per_key: 10,
            batch_size: 64,
            seed: 3,
        };
        let report = run_stress(&e, &plan);
        assert_eq!(report.total_rounds, 10);
    }

    #[test]
    fn key_streams_are_executor_independent() {
        let plan = StressPlan::default();
        let mut a = plan.key_rng("w0-0");
        let mut b = plan.key_rng("w0-0");
        assert_eq!(draw_context(&mut a), draw_context(&mut b));
        let mut c = plan.key_rng("w1-0");
        assert_ne!(draw_context(&mut a), draw_context(&mut c), "distinct keys, distinct streams");
    }
}
