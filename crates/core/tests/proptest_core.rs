//! Property-based tests for the bandit core: Algorithm 1 invariants and the
//! exact/incremental arm equivalence.

use banditware_core::arm::{ArmEstimator, LinearArm, RecursiveArm};
use banditware_core::snapshot::FieldCursor;
use banditware_core::tolerance::{tolerant_select, Tolerance};
use banditware_core::{ArmSpec, BanditConfig, DecayingEpsilonGreedy, Policy};
use proptest::prelude::*;

type EpsilonGreedy = DecayingEpsilonGreedy<RecursiveArm>;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The exact (stored-data refit) and incremental (sufficient statistics)
    /// arms are the same regression, observation by observation. Fitted
    /// values are compared at *observed* contexts — they are unique even for
    /// rank-deficient designs, where the coefficient vector is not.
    #[test]
    fn exact_and_recursive_arms_agree(
        data in prop::collection::vec((prop::collection::vec(-10.0..10.0f64, 2), 0.1..1000.0f64), 1..30),
    ) {
        let mut exact = LinearArm::new(2);
        let mut rec = RecursiveArm::new(2);
        for (x, y) in &data {
            exact.update(x, *y).unwrap();
            rec.update(x, *y).unwrap();
            for (xi, yi) in &data[..exact.n_obs()] {
                let pe = exact.predict(xi);
                let pr = rec.predict(xi);
                prop_assert!(
                    (pe - pr).abs() < 1e-3 * (1.0 + yi.abs().max(pe.abs())),
                    "diverged at n={}: {} vs {}", exact.n_obs(), pe, pr
                );
            }
        }
    }

    /// Selection always returns a valid arm and exploration respects ε = 0 / 1.
    #[test]
    fn selection_always_in_range(
        n_arms in 1usize..8,
        xs in prop::collection::vec(-100.0..100.0f64, 1..40),
        seed in any::<u64>(),
    ) {
        let cfg = BanditConfig::paper().with_seed(seed);
        let mut p = EpsilonGreedy::new(ArmSpec::unit_costs(n_arms), 1, cfg).unwrap();
        for &x in &xs {
            let s = p.select(&[x]).unwrap();
            prop_assert!(s.arm < n_arms);
            p.observe(s.arm, &[x], x.abs() + 1.0).unwrap();
        }
    }

    /// ε decays exactly geometrically with the number of observations.
    #[test]
    fn epsilon_schedule_geometric(
        decay in 0.5..1.0f64,
        n in 1usize..60,
    ) {
        let cfg = BanditConfig::paper().with_decay(decay);
        let mut p = EpsilonGreedy::new(ArmSpec::unit_costs(2), 1, cfg).unwrap();
        for i in 0..n {
            p.observe(i % 2, &[1.0], 10.0).unwrap();
        }
        let expect = decay.powi(n as i32);
        prop_assert!((p.epsilon() - expect).abs() < 1e-9 * (1.0 + expect));
    }

    /// Tolerant selection: the chosen arm is always admissible, and no
    /// admissible arm has a strictly lower cost.
    #[test]
    fn tolerant_select_is_cost_minimal_among_admissible(
        preds in prop::collection::vec(0.1..1000.0f64, 1..10),
        costs_seed in prop::collection::vec(0.1..100.0f64, 10),
        ratio in 0.0..0.5f64,
        seconds in 0.0..100.0f64,
    ) {
        let costs = &costs_seed[..preds.len()];
        let tol = Tolerance::new(ratio, seconds).unwrap();
        let pick = tolerant_select(&preds, costs, tol).unwrap();
        let fastest = preds.iter().cloned().fold(f64::INFINITY, f64::min);
        let limit = tol.limit(fastest);
        prop_assert!(preds[pick] <= limit + 1e-12, "picked inadmissible arm");
        for i in 0..preds.len() {
            if preds[i] <= limit {
                prop_assert!(costs[pick] <= costs[i] + 1e-12,
                    "arm {i} admissible with lower cost than pick {pick}");
            }
        }
    }

    /// Zero tolerance degenerates to pure argmin of predictions.
    #[test]
    fn zero_tolerance_is_argmin(
        preds in prop::collection::vec(0.1..1000.0f64, 1..10),
        costs_seed in prop::collection::vec(0.1..100.0f64, 10),
    ) {
        let costs = &costs_seed[..preds.len()];
        let pick = tolerant_select(&preds, costs, Tolerance::ZERO).unwrap();
        let min = preds.iter().cloned().fold(f64::INFINITY, f64::min);
        prop_assert!(preds[pick] <= min + 1e-12);
    }

    /// With ε = 0 and well-separated deterministic arms, the policy always
    /// exploits the truly fastest arm after training on both.
    #[test]
    fn greedy_exploits_learned_best(
        slope0 in 1.0..5.0f64,
        gap in 1.5..3.0f64,
        x_eval in 1.0..50.0f64,
    ) {
        let slope1 = slope0 * gap; // arm 1 strictly slower everywhere
        let cfg = BanditConfig::paper().with_epsilon0(0.0);
        let mut p = EpsilonGreedy::new(ArmSpec::unit_costs(2), 1, cfg).unwrap();
        for i in 1..=20 {
            let x = i as f64;
            p.observe(0, &[x], slope0 * x + 1.0).unwrap();
            p.observe(1, &[x], slope1 * x + 1.0).unwrap();
        }
        let sel = p.select(&[x_eval]).unwrap();
        prop_assert_eq!(sel.arm, 0);
        prop_assert!(!sel.explored);
    }

    /// Pull counts always sum to the number of observations.
    #[test]
    fn pulls_conserve_observations(
        arms in 2usize..6,
        rounds in prop::collection::vec((0usize..6, 0.5..100.0f64), 1..50),
    ) {
        let mut p = EpsilonGreedy::new(ArmSpec::unit_costs(arms), 1, BanditConfig::paper()).unwrap();
        let mut n = 0usize;
        for (arm, rt) in rounds {
            let arm = arm % arms;
            p.observe(arm, &[1.0], rt).unwrap();
            n += 1;
        }
        prop_assert_eq!(p.pulls().iter().sum::<usize>(), n);
    }

    /// The checkpoint field cursor yields exactly what `str::split(',')`
    /// does on any line: empty fields, a trailing comma, the lone empty
    /// field of an empty line, and multi-byte text next to the commas.
    #[test]
    fn field_cursor_matches_split(
        line in "[,,,,a1.e\u{e9}\u{20ac}\u{1f980} -]{0,40}",
        at in 0usize..8,
    ) {
        let fields: Vec<&str> = line.split(',').collect();
        prop_assert_eq!(FieldCursor::new(&line).collect::<Vec<_>>(), fields.clone());
        prop_assert_eq!(FieldCursor::new(&line).remaining(), fields.len());
        // Part-way through, the rest, the count and the next pair agree too.
        let k = at.min(fields.len());
        let mut cur = FieldCursor::new(&line);
        let head: Vec<&str> = cur.by_ref().take(k).collect();
        prop_assert_eq!(&head[..], &fields[..k]);
        prop_assert_eq!(cur.remaining(), fields.len() - k);
        let rest: Option<Vec<&str>> = cur.rest().map(|r| r.split(',').collect());
        prop_assert_eq!(rest, (k < fields.len()).then(|| fields[k..].to_vec()));
        let pair = cur.next_n::<2>().map(|f| f.to_vec());
        prop_assert_eq!(pair, (k + 2 <= fields.len()).then(|| fields[k..k + 2].to_vec()));
    }
}
