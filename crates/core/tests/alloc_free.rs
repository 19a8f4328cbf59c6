//! The PR-3 acceptance gate: the steady-state record path performs **zero
//! heap allocations**, verified by a counting global allocator.
//!
//! The counter is process-wide, so this binary opts out of the libtest
//! harness (`harness = false` in `Cargo.toml`) and runs its sections
//! sequentially from `main`: even serialized `#[test]` bodies flake,
//! because the harness's own threads allocate (result printing, channel
//! bookkeeping) inside a sibling's counting window.

use banditware_core::arm::{ArmEstimator, RecursiveArm};
use banditware_core::boltzmann::Boltzmann;
use banditware_core::drift::{DiscountedArm, WindowedArm};
use banditware_core::linucb::LinUcb;
use banditware_core::objective::{BudgetedEpsilonGreedy, Objective};
use banditware_core::scaler::ScaledPolicy;
use banditware_core::thompson::LinThompson;
use banditware_core::{
    ArmSpec, BanditConfig, BanditWare, DecayingEpsilonGreedy, FeatureFrame, ObservationFrame,
    Policy, Recommendation, Retention, Ticket,
};
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

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// Deterministic pseudo-context without touching the heap.
fn fill_context(buf: &mut [f64], round: usize) {
    for (j, v) in buf.iter_mut().enumerate() {
        *v = ((round * 31 + j * 7) % 97) as f64 * 0.5 + 0.1;
    }
}

/// Run `op` for `rounds` rounds and return the number of heap allocations
/// it performed.
fn count_allocs(rounds: usize, mut op: impl FnMut(usize)) -> u64 {
    let before = allocations();
    for round in 0..rounds {
        op(round);
    }
    allocations() - before
}

fn steady_state_record_path_is_allocation_free() {
    const M: usize = 16;
    let mut x = vec![0.0; M];

    // --- RecursiveArm::update: the acceptance criterion itself. ---
    let mut arm = RecursiveArm::new(M);
    for round in 0..200 {
        fill_context(&mut x, round);
        arm.update(&x, 10.0 + (round % 13) as f64).unwrap();
    }
    let n = count_allocs(100, |round| {
        fill_context(&mut x, 200 + round);
        arm.update(&x, 42.0).unwrap();
    });
    assert_eq!(n, 0, "RecursiveArm::update allocated {n} times in 100 steady-state rounds");

    // --- DiscountedArm (the exponential-discount path): γ-scaling must
    // keep the factor live, so updates stay allocation-free too. ---
    let mut arm = DiscountedArm::new(M, 0.95).unwrap();
    for round in 0..200 {
        fill_context(&mut x, round);
        arm.update(&x, 10.0 + (round % 13) as f64).unwrap();
    }
    let n = count_allocs(100, |round| {
        fill_context(&mut x, 200 + round);
        arm.update(&x, 42.0).unwrap();
    });
    assert_eq!(n, 0, "DiscountedArm::update allocated {n} times in 100 steady-state rounds");

    // --- WindowedArm (the sliding-window path): a full window forgets its
    // oldest row and reuses that row's buffer for the new one. ---
    let mut arm = WindowedArm::new(M, 64).unwrap();
    for round in 0..200 {
        fill_context(&mut x, round);
        arm.update(&x, 10.0 + (round % 13) as f64).unwrap();
    }
    let n = count_allocs(100, |round| {
        fill_context(&mut x, 200 + round);
        arm.update(&x, 42.0).unwrap();
    });
    assert_eq!(n, 0, "WindowedArm::update allocated {n} times in 100 steady-state rounds");
    assert_eq!(arm.window_len(), 64);

    // --- ε-greedy select+observe (the serving default, Algorithm 1). ---
    let mut policy = DecayingEpsilonGreedy::<RecursiveArm>::new(
        ArmSpec::unit_costs(5),
        M,
        BanditConfig::paper().with_epsilon0(0.1).with_seed(7),
    )
    .unwrap();
    for round in 0..100 {
        fill_context(&mut x, round);
        policy.observe(round % 5, &x, 10.0 + (round % 17) as f64).unwrap();
    }
    // Select's buffers live in the thread's workspace: warm them once.
    policy.select(&x).unwrap();
    let n = count_allocs(200, |round| {
        fill_context(&mut x, 100 + round);
        let sel = policy.select(&x).unwrap();
        policy.observe(sel.arm, &x, 10.0 + (round % 17) as f64).unwrap();
    });
    assert_eq!(n, 0, "ε-greedy select+observe allocated {n} times in 200 steady-state rounds");

    // --- Scaled ε-greedy: the standardization wrapper scales in place. ---
    let mut policy = ScaledPolicy::new(
        DecayingEpsilonGreedy::<RecursiveArm>::new(
            ArmSpec::unit_costs(4),
            M,
            BanditConfig::paper().with_epsilon0(0.1).with_seed(8),
        )
        .unwrap(),
    );
    for round in 0..100 {
        fill_context(&mut x, round);
        let sel = policy.select(&x).unwrap();
        policy.observe(sel.arm, &x, 10.0 + (round % 11) as f64).unwrap();
    }
    let n = count_allocs(200, |round| {
        fill_context(&mut x, 100 + round);
        let sel = policy.select(&x).unwrap();
        policy.observe(sel.arm, &x, 10.0 + (round % 11) as f64).unwrap();
    });
    assert_eq!(n, 0, "scaled ε-greedy allocated {n} times in 200 steady-state rounds");

    // --- LinUCB select+observe. ---
    let mut policy = LinUcb::new(ArmSpec::unit_costs(5), M, 1.0, 1.0).unwrap();
    for round in 0..50 {
        fill_context(&mut x, round);
        policy.observe(round % 5, &x, 10.0 + (round % 13) as f64).unwrap();
    }
    let n = count_allocs(200, |round| {
        fill_context(&mut x, 50 + round);
        let sel = policy.select(&x).unwrap();
        policy.observe(sel.arm, &x, 10.0 + (round % 13) as f64).unwrap();
    });
    assert_eq!(n, 0, "LinUCB select+observe allocated {n} times in 200 steady-state rounds");

    // --- Thompson sampling select+observe. ---
    let mut policy = LinThompson::new(ArmSpec::unit_costs(4), M, 1.0, 1.0, 9).unwrap();
    for round in 0..50 {
        fill_context(&mut x, round);
        policy.observe(round % 4, &x, 10.0 + (round % 13) as f64).unwrap();
    }
    policy.select(&x).unwrap();
    let n = count_allocs(100, |round| {
        fill_context(&mut x, 50 + round);
        let sel = policy.select(&x).unwrap();
        policy.observe(sel.arm, &x, 10.0 + (round % 13) as f64).unwrap();
    });
    assert_eq!(n, 0, "Thompson select+observe allocated {n} times in 100 steady-state rounds");

    // --- Boltzmann select+observe. ---
    let mut policy = Boltzmann::new(ArmSpec::unit_costs(5), M, 10.0, 0.999, 3).unwrap();
    for round in 0..50 {
        fill_context(&mut x, round);
        policy.observe(round % 5, &x, 10.0 + (round % 13) as f64).unwrap();
    }
    policy.select(&x).unwrap();
    let n = count_allocs(200, |round| {
        fill_context(&mut x, 50 + round);
        let sel = policy.select(&x).unwrap();
        policy.observe(sel.arm, &x, 10.0 + (round % 13) as f64).unwrap();
    });
    assert_eq!(n, 0, "Boltzmann select+observe allocated {n} times in 200 steady-state rounds");
}

/// The PR-4 read-path pin: `&self` scoring — `predict`, `predict_all_into`
/// with a caller buffer, LinUCB's `lcb` — performs zero heap allocations
/// once warm, across the policies whose read paths previously allocated
/// (LinUCB/Thompson augmented contexts, the scaled wrapper's transform).
fn read_path_is_allocation_free() {
    const M: usize = 16;
    let mut x = vec![0.0; M];
    let mut preds = Vec::with_capacity(8);

    // --- LinUCB predict / predict_all_into / lcb. ---
    let mut policy = LinUcb::new(ArmSpec::unit_costs(5), M, 1.0, 1.0).unwrap();
    for round in 0..50 {
        fill_context(&mut x, round);
        policy.observe(round % 5, &x, 10.0 + (round % 13) as f64).unwrap();
    }
    // Warm the read scratch once before counting.
    policy.predict_all_into(&x, &mut preds).unwrap();
    let n = count_allocs(200, |round| {
        fill_context(&mut x, 50 + round);
        policy.predict(round % 5, &x).unwrap();
        policy.predict_all_into(&x, &mut preds).unwrap();
        policy.lcb(round % 5, &x).unwrap();
    });
    assert_eq!(n, 0, "LinUCB read path allocated {n} times in 200 sweeps");

    // --- Thompson predict. ---
    let mut policy = LinThompson::new(ArmSpec::unit_costs(4), M, 1.0, 1.0, 9).unwrap();
    for round in 0..50 {
        fill_context(&mut x, round);
        policy.observe(round % 4, &x, 10.0 + (round % 13) as f64).unwrap();
    }
    policy.predict_all_into(&x, &mut preds).unwrap();
    let n = count_allocs(200, |round| {
        fill_context(&mut x, 50 + round);
        policy.predict(round % 4, &x).unwrap();
        policy.predict_all_into(&x, &mut preds).unwrap();
    });
    assert_eq!(n, 0, "Thompson read path allocated {n} times in 200 sweeps");

    // --- Scaled ε-greedy predict / predict_all_into (transform + inner). ---
    let mut policy = ScaledPolicy::new(
        DecayingEpsilonGreedy::<RecursiveArm>::new(
            ArmSpec::unit_costs(4),
            M,
            BanditConfig::paper().with_epsilon0(0.1).with_seed(8),
        )
        .unwrap(),
    );
    for round in 0..50 {
        fill_context(&mut x, round);
        let sel = policy.select(&x).unwrap();
        policy.observe(sel.arm, &x, 10.0 + (round % 11) as f64).unwrap();
    }
    policy.predict_all_into(&x, &mut preds).unwrap();
    let n = count_allocs(200, |round| {
        fill_context(&mut x, 50 + round);
        policy.predict(round % 4, &x).unwrap();
        policy.predict_all_into(&x, &mut preds).unwrap();
    });
    assert_eq!(n, 0, "scaled read path allocated {n} times in 200 sweeps");

    // --- ε-greedy exploit, and the exploit-only recommendation a
    // replication follower serves (`BanditWare::recommend_exploit`: the
    // policy's rule over the arms' costs, plus the chosen arm's
    // prediction). ---
    let specs = ArmSpec::unit_costs(4);
    let config = BanditConfig::paper().with_epsilon0(0.1).with_seed(14);
    let policy = DecayingEpsilonGreedy::<RecursiveArm>::new(specs.clone(), M, config).unwrap();
    let mut bandit = BanditWare::new(policy, specs).with_retention(Retention::Tail(8));
    for round in 0..50 {
        fill_context(&mut x, round);
        bandit.run_round(&x, |r| 10.0 + ((round + r.arm) % 13) as f64).unwrap();
    }
    bandit.recommend_exploit(&x).unwrap();
    let n = count_allocs(200, |round| {
        fill_context(&mut x, 50 + round);
        bandit.policy().exploit(&x).unwrap();
        bandit.recommend_exploit(&x).unwrap();
    });
    assert_eq!(n, 0, "ε-greedy exploit / exploit-only recommend allocated {n} times in 200 sweeps");
}

/// The budgeted policy's exploit round: `select` with ε = 0 scalarizes
/// every arm's predicted runtime through the objective and keeps a running
/// argmin, so a warm exploit performs zero heap allocations.
fn budgeted_exploit_select_is_allocation_free() {
    const M: usize = 16;
    let mut x = vec![0.0; M];
    let specs = vec![
        ArmSpec::new(0, "small", 1.0),
        ArmSpec::new(1, "medium", 2.0),
        ArmSpec::new(2, "large", 4.0),
    ];
    let objective = Objective::new(1.0, 0.05, 0.0).unwrap();
    let mut policy = BudgetedEpsilonGreedy::new(specs, M, objective, 0.0, 1.0, 6).unwrap();
    for round in 0..50 {
        fill_context(&mut x, round);
        policy.observe(round % 3, &x, 10.0 + ((round * 7) % 13) as f64).unwrap();
    }
    policy.select(&x).unwrap();
    let n = count_allocs(200, |round| {
        fill_context(&mut x, 50 + round);
        let sel = policy.select(&x).unwrap();
        assert!(!sel.explored, "ε = 0 must exploit");
    });
    assert_eq!(n, 0, "budgeted exploit select allocated {n} times in 200 rounds");
}

/// The batched-select pin: refilling a reused `FeatureFrame` in place and
/// selecting through `select_frame_into` over a reused selections buffer —
/// the path `Engine::recommend_batch_frame_into` drives per coalesced
/// network burst — performs zero heap allocations once warm: the per-arm
/// columnar predict kernel, the scaled wrapper's column-wise scaler pass,
/// and the default row-gather (LinUCB).
fn batched_select_path_is_allocation_free() {
    const M: usize = 16;
    const B: usize = 32;
    let mut xs: Vec<Vec<f64>> = (0..B).map(|_| vec![0.0; M]).collect();
    let mut out = Vec::with_capacity(B);

    let fill_batch = |xs: &mut [Vec<f64>], round: usize| {
        for (i, x) in xs.iter_mut().enumerate() {
            fill_context(x, round * B + i);
        }
    };
    let mut frame = FeatureFrame::new();

    // --- ε-greedy (the serving default): the per-arm columnar kernel. ---
    let mut policy = DecayingEpsilonGreedy::<RecursiveArm>::new(
        ArmSpec::unit_costs(5),
        M,
        BanditConfig::paper().with_epsilon0(0.1).with_seed(9),
    )
    .unwrap();
    for round in 0..50 {
        fill_batch(&mut xs, round);
        policy.observe(round % 5, &xs[0], 10.0 + (round % 17) as f64).unwrap();
    }
    frame.fill_from_rows(&xs).unwrap();
    policy.select_frame_into(&frame, &mut out).unwrap();
    let n = count_allocs(100, |round| {
        fill_batch(&mut xs, 50 + round);
        frame.fill_from_rows(&xs).unwrap();
        policy.select_frame_into(&frame, &mut out).unwrap();
    });
    assert_eq!(n, 0, "ε-greedy frame path allocated {n} times in 100 warm bursts");

    // --- Scaled ε-greedy: the scratch frame must be reused. ---
    let mut policy = ScaledPolicy::new(
        DecayingEpsilonGreedy::<RecursiveArm>::new(
            ArmSpec::unit_costs(4),
            M,
            BanditConfig::paper().with_epsilon0(0.1).with_seed(10),
        )
        .unwrap(),
    );
    for round in 0..50 {
        fill_batch(&mut xs, round);
        let sel = policy.select(&xs[0]).unwrap();
        policy.observe(sel.arm, &xs[0], 10.0 + (round % 11) as f64).unwrap();
    }
    frame.fill_from_rows(&xs).unwrap();
    policy.select_frame_into(&frame, &mut out).unwrap();
    let n = count_allocs(100, |round| {
        fill_batch(&mut xs, 50 + round);
        frame.fill_from_rows(&xs).unwrap();
        policy.select_frame_into(&frame, &mut out).unwrap();
    });
    assert_eq!(n, 0, "scaled frame path allocated {n} times in 100 warm bursts");

    // --- LinUCB: the default row-gather `select_frame_into`. ---
    let mut policy = LinUcb::new(ArmSpec::unit_costs(5), M, 1.0, 1.0).unwrap();
    for round in 0..50 {
        fill_batch(&mut xs, round);
        policy.observe(round % 5, &xs[0], 10.0 + (round % 13) as f64).unwrap();
    }
    frame.fill_from_rows(&xs).unwrap();
    policy.select_frame_into(&frame, &mut out).unwrap();
    let n = count_allocs(100, |round| {
        fill_batch(&mut xs, 50 + round);
        frame.fill_from_rows(&xs).unwrap();
        policy.select_frame_into(&frame, &mut out).unwrap();
    });
    assert_eq!(n, 0, "LinUCB frame path allocated {n} times in 100 warm bursts");
}

/// The columnar record pin: staging a burst into a reused
/// [`ObservationFrame`] and absorbing it through `observe_frame` — the
/// per-arm counting sort, the augmented row staging, the block kernels
/// (`push_rows`: panel cholupdates into the policy's warm panel scratch and
/// the tiled Gram fold), and the scaled wrapper's column transform —
/// performs zero heap allocations once warm.
fn batched_record_path_is_allocation_free() {
    const M: usize = 16;
    const B: usize = 32;
    let mut xs: Vec<Vec<f64>> = (0..B).map(|_| vec![0.0; M]).collect();
    let mut obs = ObservationFrame::new();
    let mut absorbed: Vec<bool> = Vec::new();

    let fill_batch = |xs: &mut [Vec<f64>], round: usize| {
        for (i, x) in xs.iter_mut().enumerate() {
            fill_context(x, round * B + i);
        }
    };
    // Stage the round's burst: deterministic arms across `n_arms`,
    // strictly positive runtimes (the rank-k fast path).
    let stage = |obs: &mut ObservationFrame, xs: &[Vec<f64>], round: usize, n_arms: usize| {
        obs.begin(B, M);
        for (i, x) in xs.iter().enumerate() {
            let arm = (round * B + i) % n_arms;
            let rt = 10.0 + ((round + i) % 17) as f64;
            obs.set_row(i, arm, x, rt, false).unwrap();
        }
    };

    // --- ε-greedy grouped rank-k absorption (the serving default). ---
    let mut policy = DecayingEpsilonGreedy::<RecursiveArm>::new(
        ArmSpec::unit_costs(5),
        M,
        BanditConfig::paper().with_epsilon0(0.1).with_seed(11),
    )
    .unwrap();
    for round in 0..50 {
        fill_batch(&mut xs, round);
        policy.observe(round % 5, &xs[0], 10.0 + (round % 17) as f64).unwrap();
    }
    // Warm the group/block scratches (and every arm's live factor) once.
    fill_batch(&mut xs, 50);
    stage(&mut obs, &xs, 50, 5);
    policy.observe_frame(&obs, &mut absorbed).unwrap();
    let n = count_allocs(100, |round| {
        fill_batch(&mut xs, 51 + round);
        stage(&mut obs, &xs, 51 + round, 5);
        policy.observe_frame(&obs, &mut absorbed).unwrap();
    });
    assert_eq!(n, 0, "ε-greedy observe_frame allocated {n} times in 100 warm bursts");

    // --- Scaled ε-greedy: the column transform + lane copy must reuse the
    // wrapper's staging frame. ---
    let mut policy = ScaledPolicy::new(
        DecayingEpsilonGreedy::<RecursiveArm>::new(
            ArmSpec::unit_costs(4),
            M,
            BanditConfig::paper().with_epsilon0(0.1).with_seed(12),
        )
        .unwrap(),
    );
    for round in 0..50 {
        fill_batch(&mut xs, round);
        let sel = policy.select(&xs[0]).unwrap();
        policy.observe(sel.arm, &xs[0], 10.0 + (round % 11) as f64).unwrap();
    }
    fill_batch(&mut xs, 50);
    stage(&mut obs, &xs, 50, 4);
    policy.observe_frame(&obs, &mut absorbed).unwrap();
    let n = count_allocs(100, |round| {
        fill_batch(&mut xs, 51 + round);
        stage(&mut obs, &xs, 51 + round, 4);
        policy.observe_frame(&obs, &mut absorbed).unwrap();
    });
    assert_eq!(n, 0, "scaled observe_frame allocated {n} times in 100 warm bursts");
}

/// The recommender's own batch round: a warm ε-greedy
/// `BanditWare<Box<dyn Policy>>` issues each burst's tickets into its flat
/// feature arena and answers into a reused result buffer, then records the
/// burst through the columnar observe path, recycling the history rows a
/// bounded retention drops. 100 bursts allocate nothing, at a narrow and a
/// wide context, under a bounded tail and under no retention.
fn bandit_batch_round_is_allocation_free() {
    const B: usize = 64;
    for m in [7usize, 64] {
        for retention in [Retention::Tail(16), Retention::None] {
            let specs = ArmSpec::unit_costs(4);
            let config = BanditConfig::paper().with_epsilon0(0.2).with_seed(13);
            let policy: Box<dyn Policy> = Box::new(
                DecayingEpsilonGreedy::<RecursiveArm>::new(specs.clone(), m, config).unwrap(),
            );
            let mut bandit = BanditWare::new(policy, specs).with_retention(retention);
            let mut xs: Vec<Vec<f64>> = (0..B).map(|_| vec![0.0; m]).collect();
            let mut frame = FeatureFrame::new();
            let mut recs: Vec<(Ticket, Recommendation)> = Vec::new();
            let mut outcomes: Vec<(Ticket, f64)> = Vec::with_capacity(B);
            let mut burst = |bandit: &mut BanditWare<Box<dyn Policy>>, round: usize| {
                for (i, x) in xs.iter_mut().enumerate() {
                    fill_context(x, round * B + i);
                }
                frame.fill_from_rows(&xs).unwrap();
                bandit.recommend_batch_frame_into(&frame, &mut recs).unwrap();
                outcomes.clear();
                outcomes
                    .extend(recs.iter().map(|(t, r)| (*t, 10.0 + ((round + r.arm) % 17) as f64)));
                bandit.record_batch_frame(&outcomes).unwrap();
            };
            for round in 0..20 {
                burst(&mut bandit, round);
            }
            let n = count_allocs(100, |round| burst(&mut bandit, 20 + round));
            assert_eq!(
                n, 0,
                "BanditWare batch round (m={m}, {retention:?}) allocated {n} times in 100 warm bursts"
            );
            assert_eq!(bandit.rounds(), 120 * B);
            assert_eq!(bandit.in_flight(), 0);
        }
    }
}

fn main() {
    for (name, section) in [
        (
            "steady_state_record_path_is_allocation_free",
            steady_state_record_path_is_allocation_free as fn(),
        ),
        ("read_path_is_allocation_free", read_path_is_allocation_free),
        ("budgeted_exploit_select_is_allocation_free", budgeted_exploit_select_is_allocation_free),
        ("batched_select_path_is_allocation_free", batched_select_path_is_allocation_free),
        ("batched_record_path_is_allocation_free", batched_record_path_is_allocation_free),
        ("bandit_batch_round_is_allocation_free", bandit_batch_round_is_allocation_free),
    ] {
        section();
        println!("alloc_free: {name} ... ok");
    }
}
