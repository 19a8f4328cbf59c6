//! Runtime policy construction: any named algorithm from a
//! [`BanditConfig`], returned as `Box<dyn Policy>`.
//!
//! The paper fixes Algorithm 1 at deployment; the simulation literature
//! (and our own ablations) says the best bandit depends on the workload.
//! With an object-safe [`Policy`] the algorithm becomes a config string — a
//! service flag, a CLI option — instead of a type parameter recompiled into
//! every harness.

use banditware_core::boltzmann::Boltzmann;
use banditware_core::epsilon::{EpsilonGreedy, ExactEpsilonGreedy};
use banditware_core::linucb::LinUcb;
use banditware_core::objective::{BudgetedEpsilonGreedy, Objective};
use banditware_core::plain::PlainEpsilonGreedy;
use banditware_core::scaler::ScaledPolicy;
use banditware_core::thompson::LinThompson;
use banditware_core::ucb::Ucb1;
use banditware_core::{ArmSpec, BanditConfig, CoreError, Policy, Result, Retention};

use crate::engine::Engine;
use crate::wal::Durability;

/// The policy names [`build_policy`] understands.
pub fn policy_names() -> &'static [&'static str] {
    &[
        "epsilon-greedy",
        "exact-epsilon-greedy",
        "scaled-epsilon-greedy",
        "plain-epsilon-greedy",
        "budgeted-epsilon-greedy",
        "linucb",
        "thompson",
        "ucb1",
        "boltzmann",
    ]
}

/// Construct a named policy over `specs` from a [`BanditConfig`].
///
/// The ε-greedy family consumes the config directly (it *is* Algorithm 1's
/// parameter set); the other algorithms map the shared fields onto their own
/// knobs — `seed` seeds their RNG, `decay` drives the Boltzmann temperature
/// schedule, `ridge_lambda` (when positive) becomes the LinUCB/Thompson
/// regularizer.
///
/// # Errors
/// [`CoreError::InvalidParameter`] for an unknown name; propagates the
/// chosen policy's constructor validation.
pub fn build_policy(
    name: &str,
    specs: Vec<ArmSpec>,
    n_features: usize,
    config: &BanditConfig,
) -> Result<Box<dyn Policy>> {
    let lambda = if config.ridge_lambda > 0.0 { config.ridge_lambda } else { 1.0 };
    Ok(match name {
        "epsilon-greedy" | "decaying-contextual-epsilon-greedy" => {
            Box::new(EpsilonGreedy::new(specs, n_features, *config)?)
        }
        "exact-epsilon-greedy" => {
            Box::new(ExactEpsilonGreedy::new_exact(specs, n_features, *config)?)
        }
        "scaled-epsilon-greedy" => {
            Box::new(ScaledPolicy::new(EpsilonGreedy::new(specs, n_features, *config)?))
        }
        "plain-epsilon-greedy" => {
            Box::new(PlainEpsilonGreedy::new(specs, config.epsilon0, config.decay, config.seed)?)
        }
        "budgeted-epsilon-greedy" => Box::new(BudgetedEpsilonGreedy::new(
            specs,
            n_features,
            // The runtime-only objective reproduces the paper's goal; a
            // custom Objective still requires constructing the policy
            // directly (the shared config has no weight fields).
            Objective::RUNTIME_ONLY,
            config.epsilon0,
            config.decay,
            config.seed,
        )?),
        "linucb" => Box::new(LinUcb::new(specs, n_features, 1.0, lambda)?),
        "thompson" | "linear-thompson" => {
            Box::new(LinThompson::new(specs, n_features, lambda, 1.0, config.seed)?)
        }
        "ucb1" => Box::new(Ucb1::new(specs, n_features, std::f64::consts::SQRT_2)?),
        "boltzmann" => {
            Box::new(Boltzmann::new(specs, n_features, 100.0, config.decay, config.seed)?)
        }
        other => {
            return Err(CoreError::InvalidParameter {
                name: "policy",
                detail: format!("unknown policy {other:?}; expected one of {:?}", policy_names()),
            })
        }
    })
}

/// Builder for [`Engine`]: arm specs + feature arity are mandatory, policy
/// name, config and stripe count have serving-friendly defaults.
#[derive(Debug, Clone)]
pub struct EngineBuilder {
    pub(crate) specs: Vec<ArmSpec>,
    pub(crate) n_features: usize,
    pub(crate) policy: String,
    pub(crate) config: BanditConfig,
    pub(crate) n_stripes: usize,
    pub(crate) retention: Retention,
    pub(crate) durability: Durability,
}

impl EngineBuilder {
    /// Start a builder for bandits over `specs` with `n_features` context
    /// features. Defaults: `"epsilon-greedy"`, [`BanditConfig::paper`],
    /// 16 stripes, [`Retention::Full`], [`Durability::Flush`].
    pub fn new(specs: Vec<ArmSpec>, n_features: usize) -> Self {
        EngineBuilder {
            specs,
            n_features,
            policy: "epsilon-greedy".to_string(),
            config: BanditConfig::paper(),
            n_stripes: 16,
            retention: Retention::Full,
            durability: Durability::Flush,
        }
    }

    /// Set the history retention every shard runs with. A serving fleet
    /// should almost always pick [`Retention::Tail`]: the policies carry
    /// their own sufficient statistics, so per-tenant memory stays
    /// O(m² + tail) for the lifetime of the platform.
    pub fn retention(mut self, retention: Retention) -> Self {
        self.retention = retention;
        self
    }

    /// Choose the policy by name (see [`policy_names`]).
    pub fn policy(mut self, name: impl Into<String>) -> Self {
        self.policy = name.into();
        self
    }

    /// Set the bandit configuration shared by every shard. Each shard's
    /// seed is derived from `config.seed` and its key, so tenants draw
    /// independent exploration streams.
    pub fn config(mut self, config: BanditConfig) -> Self {
        self.config = config;
        self
    }

    /// Set the number of lock stripes (clamped to at least 1).
    pub fn stripes(mut self, n: usize) -> Self {
        self.n_stripes = n.max(1);
        self
    }

    /// Set the WAL fsync policy the log runs with, read by
    /// [`Engine::open`] (an engine from [`EngineBuilder::build`] has no
    /// log). See
    /// the [`Durability`] table in [`crate::wal`] — the default
    /// [`Durability::Flush`] can lose acknowledged records on power
    /// failure; [`Durability::FsyncPerBatch`] cannot.
    pub fn durability(mut self, durability: Durability) -> Self {
        self.durability = durability;
        self
    }

    /// Build the engine. Constructs one probe policy eagerly so a bad
    /// policy name or config fails here, not on the first request — and
    /// caches the name that policy reports, so serving paths never pay the
    /// `String`-allocating [`banditware_core::Policy::name`] per request.
    ///
    /// # Errors
    /// Propagates [`build_policy`] validation.
    pub fn build(self) -> Result<Engine> {
        let probe = build_policy(&self.policy, self.specs.clone(), self.n_features, &self.config)?;
        let effective_name = probe.name();
        Ok(Engine::from_builder(self, effective_name))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_listed_policy_builds_and_runs() {
        for name in policy_names() {
            let mut p =
                build_policy(name, ArmSpec::unit_costs(3), 2, &BanditConfig::paper().with_seed(11))
                    .unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(p.n_arms(), 3, "{name}");
            let sel = p.select(&[1.0, 2.0]).unwrap();
            p.observe(sel.arm, &[1.0, 2.0], 10.0).unwrap();
            assert_eq!(p.pulls().iter().sum::<usize>(), 1, "{name}");
            assert!(!p.name().is_empty());
        }
    }

    #[test]
    fn aliases_resolve() {
        let p = build_policy(
            "decaying-contextual-epsilon-greedy",
            ArmSpec::unit_costs(2),
            1,
            &BanditConfig::paper(),
        )
        .unwrap();
        assert_eq!(p.name(), "decaying-contextual-epsilon-greedy");
        let p = build_policy("linear-thompson", ArmSpec::unit_costs(2), 1, &BanditConfig::paper())
            .unwrap();
        assert_eq!(p.name(), "linear-thompson");
        let p = build_policy(
            "scaled-epsilon-greedy",
            ArmSpec::unit_costs(2),
            1,
            &BanditConfig::paper(),
        )
        .unwrap();
        assert_eq!(p.name(), "scaled:decaying-contextual-epsilon-greedy");
    }

    #[test]
    fn unknown_name_is_a_parameter_error() {
        let err =
            build_policy("gradient-descent", ArmSpec::unit_costs(2), 1, &BanditConfig::paper())
                .unwrap_err();
        match err {
            CoreError::InvalidParameter { name, detail } => {
                assert_eq!(name, "policy");
                assert!(detail.contains("gradient-descent") && detail.contains("linucb"));
            }
            other => panic!("expected InvalidParameter, got {other:?}"),
        }
    }

    #[test]
    fn bad_config_fails_at_build_time() {
        let builder = EngineBuilder::new(ArmSpec::unit_costs(2), 1)
            .policy("epsilon-greedy")
            .config(BanditConfig::paper().with_decay(7.0));
        assert!(builder.build().is_err());
        let builder = EngineBuilder::new(ArmSpec::unit_costs(2), 1).policy("nope");
        assert!(builder.build().is_err());
    }
}
