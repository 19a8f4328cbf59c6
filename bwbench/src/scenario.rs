//! Workload inputs, generated from the seed before any clock starts.
//!
//! A [`Scenario`] is everything a workload feeds the program: arm specs,
//! engine configuration, tenant keys, warm-up checkpoints, and a pool of
//! rounds (context, realized runtime on every arm, noise-free expected
//! runtime on every arm). The call sequence is a pure function of the
//! scenario and the step index ([`Scenario::calls`]), so the traced run and
//! the correctness replays see exactly the stream the timed phase sent.

use banditware_core::persist;
use banditware_core::{ArmSpec, BanditConfig, FeatureFrame, Retention, Ticket, Tolerance};
use banditware_serve::{Engine, EngineBuilder};
use banditware_workloads::bp3d::{paper_burn_units, Bp3dModel, Weather};
use banditware_workloads::hardware::ndp_hardware;
use banditware_workloads::{CostModel, HardwareConfig, NoiseModel};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The policy every workload serves (the paper's Algorithm 1).
pub const POLICY: &str = "epsilon-greedy";

/// Rounds: context, realized and expected runtime per arm, tenant.
pub struct Pool {
    pub m: usize,
    pub arms: usize,
    feats: Vec<f64>,
    realized: Vec<f64>,
    expected: Vec<f64>,
    key: Vec<u32>,
}

impl Pool {
    fn with_capacity(m: usize, arms: usize, n: usize) -> Self {
        Pool {
            m,
            arms,
            feats: Vec::with_capacity(n * m),
            realized: Vec::with_capacity(n * arms),
            expected: Vec::with_capacity(n * arms),
            key: Vec::with_capacity(n),
        }
    }

    fn push(
        &mut self,
        x: &[f64],
        key: u32,
        model: &impl CostModel,
        hw: &[HardwareConfig],
        rng: &mut StdRng,
    ) {
        self.feats.extend_from_slice(x);
        for h in hw {
            let e = model.expected_runtime(h, x);
            self.expected.push(e);
            self.realized.push(model.noise().apply(e, rng));
        }
        self.key.push(key);
    }

    pub fn len(&self) -> usize {
        self.key.len()
    }

    pub fn row(&self, r: usize) -> &[f64] {
        &self.feats[r * self.m..(r + 1) * self.m]
    }

    pub fn key(&self, r: usize) -> usize {
        self.key[r] as usize
    }

    pub fn realized(&self, r: usize, arm: usize) -> f64 {
        self.realized[r * self.arms + arm]
    }

    /// The paper's accuracy rule (`eval::matched::is_correct`) against the
    /// oracle: the chosen arm's expected runtime is within tolerance of the
    /// best arm's.
    pub fn correct(&self, r: usize, arm: usize, tol: Tolerance) -> bool {
        let e = &self.expected[r * self.arms..(r + 1) * self.arms];
        let best = e.iter().copied().fold(f64::INFINITY, f64::min);
        e[arm] <= tol.limit(best)
    }
}

/// One engine call: a tenant and the pool rows it carries.
pub struct Call {
    pub key: usize,
    pub rows: Vec<usize>,
}

/// Sizes of one workload run.
pub struct Sizes {
    /// Rows per step (in-process) or per burst (TCP).
    pub batch: usize,
    /// Leading steps whose rounds give the quality metrics.
    pub quality_steps: usize,
    /// Leading steps the traced run replays layer by layer.
    pub ladder_steps: usize,
    /// Steps whose calls the WAL ladder replays (one fsync per call).
    pub wal_steps: usize,
    /// Set-ups repeated per run; `setup_s` is their median.
    pub setups: usize,
}

pub struct Scenario {
    pub name: &'static str,
    pub specs: Vec<ArmSpec>,
    pub config: BanditConfig,
    pub retention: Retention,
    pub keys: Vec<String>,
    /// Warm-up rounds, `warm.len() / keys.len()` per key in key order.
    pub warm: Pool,
    /// The rounds the run serves, cycled.
    pub pool: Pool,
    pub sizes: Sizes,
    /// Round-robin tenants (in process) or Zipf tenants (TCP bursts).
    zipf: bool,
}

fn specs_for(hw: &[HardwareConfig]) -> Vec<ArmSpec> {
    hw.iter().map(|h| ArmSpec::new(h.id, h.name.clone(), h.resource_cost())).collect()
}

fn tolerance(ratio: f64) -> Tolerance {
    Tolerance::ratio(ratio).expect("a small positive ratio is a valid tolerance")
}

impl Scenario {
    pub fn m(&self) -> usize {
        self.pool.m
    }

    pub fn builder(&self) -> EngineBuilder {
        Engine::builder(self.specs.clone(), self.m())
            .policy(POLICY)
            .config(self.config)
            .retention(self.retention)
    }

    pub fn tolerance(&self) -> Tolerance {
        self.config.tolerance
    }

    /// The calls of step `step`: one tenant's `batch` consecutive pool rows
    /// (round robin), or for Zipf bursts the burst's rows grouped per
    /// tenant in first-appearance order — the per-key order the server
    /// sees.
    pub fn calls(&self, step: usize) -> Vec<Call> {
        let b = self.sizes.batch;
        let start = (step * b) % self.pool.len();
        let rows = start..start + b;
        if !self.zipf {
            return vec![Call { key: step % self.keys.len(), rows: rows.collect() }];
        }
        let mut calls: Vec<Call> = Vec::new();
        for r in rows {
            let key = self.pool.key(r);
            match calls.iter_mut().find(|c| c.key == key) {
                Some(c) => c.rows.push(r),
                None => calls.push(Call { key, rows: vec![r] }),
            }
        }
        calls
    }

    /// First pool row of step `step` (bursts and steps are `batch`
    /// consecutive rows; the pool length is a multiple of `batch`).
    pub fn step_start(&self, step: usize) -> usize {
        (step * self.sizes.batch) % self.pool.len()
    }

    /// Fill `frame` with the pool rows of `rows`.
    pub fn frame(&self, rows: &[usize], frame: &mut FeatureFrame) {
        frame.begin(rows.len(), self.m());
        for (i, &r) in rows.iter().enumerate() {
            frame.set_row(i, self.pool.row(r)).expect("pool rows have the scenario's arity");
        }
    }

    /// Run every key's warm-up rounds through `engine` in `batch`-row steps.
    pub fn warm_into(&self, engine: &Engine) -> Result<(), String> {
        let per_key = self.warm.len() / self.keys.len();
        let mut frame = FeatureFrame::new();
        let mut outcomes: Vec<(Ticket, f64)> = Vec::new();
        for (k, key) in self.keys.iter().enumerate() {
            for chunk in
                (k * per_key..(k + 1) * per_key).collect::<Vec<_>>().chunks(self.sizes.batch)
            {
                frame.begin(chunk.len(), self.m());
                for (i, &r) in chunk.iter().enumerate() {
                    frame.set_row(i, self.warm.row(r)).map_err(|e| e.to_string())?;
                }
                let recs = engine.recommend_batch_frame(key, &frame).map_err(|e| e.to_string())?;
                outcomes.clear();
                outcomes.extend(
                    recs.iter()
                        .zip(chunk)
                        .map(|((t, rec), &r)| (*t, self.warm.realized(r, rec.arm))),
                );
                engine.record_batch_frame(key, &outcomes).map_err(|e| e.to_string())?;
            }
        }
        Ok(())
    }

    /// Warm a fresh engine and checkpoint every key (v3 snapshots).
    pub fn checkpoints(&self) -> Result<Vec<Vec<u8>>, String> {
        let engine = self.builder().build().map_err(|e| e.to_string())?;
        self.warm_into(&engine)?;
        crate::ladder::snapshot(&engine, &self.keys)
    }
}

/// Parse checkpoint bytes and restore every key into `engine`.
pub fn restore_all(
    engine: &Engine,
    keys: &[String],
    checkpoints: &[Vec<u8>],
) -> banditware_core::Result<()> {
    for (key, bytes) in keys.iter().zip(checkpoints) {
        let ckpt = persist::load_checkpoint(bytes.as_slice())?;
        engine.restore_shard_checkpoint(key, &ckpt)?;
    }
    Ok(())
}

/// Zipf exponent of tenant popularity in `paper-tenants`: hot tenants
/// coalesce into groups while the tail stays singleton, and no handful of
/// tenants decides the workload's accuracy.
const ZIPF_S: f64 = 0.8;

/// `paper-tenants`: BurnPro3D contexts (Table 1, m = 7) on the NDP
/// hardware, 1024 tenants with Zipf popularity.
pub fn paper_tenants(seed: u64, smoke: bool) -> Scenario {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x7E4A_11C5);
    let model = Bp3dModel::paper();
    let hw = ndp_hardware();
    let n_keys = if smoke { 64 } else { 1024 };
    // Each tenant is its own burn campaign over its own six units.
    let units: Vec<_> = (0..n_keys).map(|_| paper_burn_units(&mut rng)).collect();
    let (warm_per_key, pool_len) = if smoke { (16, 4096) } else { (64, 1 << 17) };
    let cdf: Vec<f64> = {
        let mut acc = 0.0;
        let w: Vec<f64> = (0..n_keys).map(|i| ((i + 1) as f64).powf(-ZIPF_S)).collect();
        let total: f64 = w.iter().sum();
        w.iter()
            .map(|x| {
                acc += x / total;
                acc
            })
            .collect()
    };
    let context = |k: usize, rng: &mut StdRng| {
        let unit = &units[k][rng.gen_range(0..units[k].len())];
        let weather = Weather::sample(rng);
        let sim_time = [400.0, 600.0, 800.0, 1000.0, 1200.0][rng.gen_range(0..5)];
        Bp3dModel::features_for(unit, &weather, sim_time, rng)
    };
    let mut warm = Pool::with_capacity(7, hw.len(), n_keys * warm_per_key);
    for k in 0..n_keys {
        for _ in 0..warm_per_key {
            let x = context(k, &mut rng);
            warm.push(&x, k as u32, &model, &hw, &mut rng);
        }
    }
    let mut pool = Pool::with_capacity(7, hw.len(), pool_len);
    for _ in 0..pool_len {
        let u: f64 = rng.gen();
        let key = cdf.partition_point(|&c| c < u).min(n_keys - 1);
        let x = context(key, &mut rng);
        pool.push(&x, key as u32, &model, &hw, &mut rng);
    }
    Scenario {
        name: "paper-tenants",
        specs: specs_for(&hw),
        config: BanditConfig::paper().with_seed(seed).with_tolerance(tolerance(0.04)),
        retention: Retention::Tail(16),
        keys: (0..n_keys).map(|i| format!("tenant-{i:04}")).collect(),
        warm,
        pool,
        sizes: if smoke {
            Sizes { batch: 64, quality_steps: 16, ladder_steps: 8, wal_steps: 2, setups: 3 }
        } else {
            Sizes { batch: 256, quality_steps: 128, ladder_steps: 16, wal_steps: 1, setups: 21 }
        },
        zipf: true,
    }
}

/// Seed of `wide-frames`' runtime models: part of the workload's
/// definition, like the BurnPro3D model of `paper-tenants`. The run's seed
/// draws the contexts and the noise, so the quality figures vary between
/// seeds by sampling alone, not by which models a seed drew.
const WIDE_MODEL_SEED: u64 = 0x5EED_3D1D;

/// `wide-frames`: m = 64 contexts, 4 arms with distinct costs, runtimes
/// from a fixed linear model per tenant with log-normal noise, 8 tenants.
pub fn wide_frames(seed: u64, smoke: bool) -> Scenario {
    const M: usize = 64;
    let hw: Vec<HardwareConfig> =
        (0..4).map(|i| HardwareConfig::new(i, (2u32 << i) as f64, (8u32 << i) as f64)).collect();
    let n_keys = 8;
    // Each tenant is its own workflow class with its own runtime model.
    let mut model_rng = StdRng::seed_from_u64(WIDE_MODEL_SEED);
    let models: Vec<LinearModel> = (0..n_keys)
        .map(|_| LinearModel {
            intercepts: (0..4)
                .map(|a| 40.0 + 20.0 * a as f64 + model_rng.gen_range(0.0..10.0))
                .collect(),
            weights: (0..4)
                .map(|a| (0..M).map(|_| model_rng.gen_range(0.0..4.0) / (a + 1) as f64).collect())
                .collect(),
            noise: NoiseModel::LogNormal { sigma: 0.1 },
        })
        .collect();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x3D1D_E0F2);
    let (warm_per_key, pool_len) = if smoke { (128, 64 * 16) } else { (1024, 64 * 128) };
    let context =
        |rng: &mut StdRng| -> Vec<f64> { (0..M).map(|_| rng.gen_range(0.0..1.0)).collect() };
    let mut warm = Pool::with_capacity(M, hw.len(), n_keys * warm_per_key);
    for (k, model) in models.iter().enumerate() {
        for _ in 0..warm_per_key {
            let x = context(&mut rng);
            warm.push(&x, k as u32, model, &hw, &mut rng);
        }
    }
    let mut pool = Pool::with_capacity(M, hw.len(), pool_len);
    for r in 0..pool_len {
        let x = context(&mut rng);
        let k = (r / 64) % n_keys;
        pool.push(&x, k as u32, &models[k], &hw, &mut rng);
    }
    Scenario {
        name: "wide-frames",
        specs: specs_for(&hw),
        config: BanditConfig::paper().with_seed(seed).with_tolerance(tolerance(0.05)),
        retention: Retention::Tail(64),
        keys: (0..n_keys).map(|i| format!("wide-{i}")).collect(),
        warm,
        pool,
        sizes: if smoke {
            Sizes { batch: 64, quality_steps: 16, ladder_steps: 8, wal_steps: 4, setups: 3 }
        } else {
            Sizes { batch: 64, quality_steps: 256, ladder_steps: 64, wal_steps: 64, setups: 21 }
        },
        zipf: false,
    }
}

/// Seeded linear runtime model for `wide-frames`.
struct LinearModel {
    intercepts: Vec<f64>,
    weights: Vec<Vec<f64>>,
    noise: NoiseModel,
}

impl CostModel for LinearModel {
    fn expected_runtime(&self, hw: &HardwareConfig, x: &[f64]) -> f64 {
        self.intercepts[hw.id] + self.weights[hw.id].iter().zip(x).map(|(w, v)| w * v).sum::<f64>()
    }

    fn noise(&self) -> &NoiseModel {
        &self.noise
    }
}

/// Quality of served rounds: accuracy under the engine's tolerance and the
/// relative RMSE of the predicted runtime.
#[derive(Default, Clone, Copy, PartialEq)]
pub struct Quality {
    n: u64,
    correct: u64,
    fit_n: u64,
    sse: f64,
    realized_sum: f64,
}

impl Quality {
    pub fn add(&mut self, correct: bool, predicted: f64, realized: f64) {
        self.n += 1;
        self.correct += u64::from(correct);
        if predicted.is_finite() {
            self.fit_n += 1;
            self.sse += (predicted - realized).powi(2);
            self.realized_sum += realized;
        }
    }

    pub fn rounds(&self) -> u64 {
        self.n
    }

    pub fn accuracy(&self) -> f64 {
        self.correct as f64 / self.n as f64
    }

    pub fn rmse_rel(&self) -> f64 {
        (self.sse / self.fit_n as f64).sqrt() / (self.realized_sum / self.fit_n as f64)
    }
}

/// FNV-1a over a served stream: ticket, arm, exploration flag and the bits
/// of the predicted runtime of every round, in round order.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Digest(pub u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn round(&mut self, ticket: u64, arm: usize, explored: bool, predicted: f64) {
        for w in [ticket, arm as u64, u64::from(explored), predicted.to_bits()] {
            for b in w.to_le_bytes() {
                self.0 ^= u64::from(b);
                self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
}
