//! # BanditWare
//!
//! A contextual-bandit framework for hardware recommendation, reproducing
//! *BanditWare: A Contextual Bandit-based Framework for Hardware Prediction*
//! (HPDC 2025, arXiv:2506.13730) as a production-quality Rust workspace.
//!
//! BanditWare picks the best-fitting hardware configuration for an incoming
//! workflow **online**: it models each hardware setting's runtime as a linear
//! function of workflow features, refits after every observation, and
//! balances exploration and exploitation with a decaying ε-greedy schedule.
//! A *tolerant selection* rule trades a bounded slowdown
//! (`tolerance_ratio` / `tolerance_seconds`) for cheaper hardware.
//!
//! ## Quick start
//!
//! ```
//! use banditware::prelude::*;
//!
//! // Three hardware settings (the paper's NDP flavours).
//! let hardware = ndp_hardware();
//! let specs = specs_from_hardware(&hardware);
//!
//! // Algorithm 1 with the paper's parameters (ε₀=1, α=0.99) and a
//! // 20-second tolerance.
//! let config = BanditConfig::paper()
//!     .with_tolerance(Tolerance::seconds(20.0).unwrap())
//!     .with_seed(7);
//! let policy = EpsilonGreedy::new(specs.clone(), 1, config).unwrap();
//! let mut bandit = BanditWare::new(policy, specs);
//!
//! // The online loop: recommend → run → record.
//! for round in 0..50 {
//!     let workload_size = [100.0 + (round as f64 * 7.3) % 400.0];
//!     let (rec, _runtime) = bandit
//!         .run_round(&workload_size, |rec| {
//!             // ... submit to your cluster; here: a synthetic runtime.
//!             50.0 + workload_size[0] * (rec.arm + 1) as f64 * 0.1
//!         })
//!         .unwrap();
//!     let _ = rec;
//! }
//! assert_eq!(bandit.rounds(), 50);
//! ```
//!
//! ## Workspace map
//!
//! | Crate | Contents |
//! |-------|----------|
//! | [`core`] | Algorithm 1 ([`core::DecayingEpsilonGreedy`]), extension policies (LinUCB, Thompson, UCB1, Boltzmann), the [`core::BanditWare`] facade |
//! | [`linalg`] | dense matrices, QR/Cholesky, OLS/ridge, online accumulators |
//! | [`frame`] | columnar DataFrame + CSV (the pandas substrate of Fig. 1) |
//! | [`workloads`] | Cycles / BurnPro3D / matmul models & trace generators |
//! | [`cluster`] | discrete-event heterogeneous cluster simulator (NDP substrate) |
//! | [`baselines`] | offline linear-regression recommender, random, oracle, best-fixed |
//! | [`eval`] | the paper's Monte-Carlo protocol, metrics, ASCII plots |
//! | [`serve`] | concurrent serving engine: striped shards, runtime policy choice, batched ticketed rounds, checksummed WAL + snapshot compaction, replication to standby followers |
//! | [`net`] | framed TCP front-end over the engine: CRC-protected wire protocol, an epoll reactor coalescing requests across connections, blocking client |
//!
//! The figure/table regeneration binaries live in the `banditware-bench`
//! crate (`cargo run --release -p banditware-bench --bin run_all`).

pub use banditware_baselines as baselines;
pub use banditware_cluster as cluster;
pub use banditware_core as core;
pub use banditware_eval as eval;
pub use banditware_frame as frame;
pub use banditware_linalg as linalg;
pub use banditware_net as net;
pub use banditware_serve as serve;
pub use banditware_workloads as workloads;

/// The most common imports in one line.
pub mod prelude {
    pub use banditware_baselines::{
        BestFixedArm, FullFitBaseline, OfflineLinearRecommender, OracleRecommender,
        RandomRecommender,
    };
    pub use banditware_cluster::{ClusterSim, Discipline, RuntimeSampler};
    pub use banditware_core::epsilon::{EpsilonGreedy, ExactEpsilonGreedy};
    pub use banditware_core::objective::{BudgetedEpsilonGreedy, Objective};
    pub use banditware_core::persist::{
        load_checkpoint, load_history, load_snapshot, replay_into, restore_checkpoint,
        restore_snapshot, save_checkpoint, save_history, Checkpoint, HistorySnapshot,
        StateSnapshot,
    };
    pub use banditware_core::{
        ArmSpec, BanditConfig, BanditWare, DecayingEpsilonGreedy, DiscountedArm, Observation,
        Policy, PolicyState, Recommendation, Retention, ScaledPolicy, Selection, StandardScaler,
        Ticket, Tolerance, WindowedArm,
    };
    pub use banditware_eval::protocol::{run_experiment, specs_from_hardware, ExperimentConfig};
    pub use banditware_eval::{MatchedSet, RoundSeries};
    pub use banditware_net::{NetClient, NetError, NetServer, ServerConfig};
    pub use banditware_serve::{
        build_policy, policy_names, Durability, Engine, FollowerEngine, FsTransport, Replicator,
        ServeError, StressPlan, WalOptions,
    };
    pub use banditware_workloads::hardware::{
        gpu_hardware, matmul_hardware, ndp_hardware, synthetic_hardware,
    };
    pub use banditware_workloads::{CostModel, HardwareConfig, NoiseModel, Trace, TraceRow};
}
