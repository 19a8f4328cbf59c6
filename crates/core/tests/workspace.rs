//! The per-thread workspace leaks nothing between recommenders.
//!
//! Every recommender a thread serves shares that thread's scratch
//! [`Workspace`]. These tests serve interleaved shards of different widths,
//! burst sizes and policies on one thread and require each shard's results
//! — ticket ids, arms, explore flags, `predicted_runtime` bits and the
//! final checkpoint bytes — to equal the same shard served alone on a fresh
//! thread. A re-entrant case records into a second recommender from inside
//! the first one's record callback.

use banditware_core::epsilon::EpsilonGreedy;
use banditware_core::linucb::LinUcb;
use banditware_core::persist::save_checkpoint;
use banditware_core::scaler::scaled_epsilon_greedy;
use banditware_core::{
    ArmSpec, BanditConfig, BanditWare, FeatureFrame, Policy, Recommendation, Retention, Ticket,
    Workspace,
};

type Shard = BanditWare<Box<dyn Policy>>;

/// One served recommendation: ticket id, arm, explore flag, prediction bits.
type Served = (u64, usize, bool, u64);

const BURSTS: [usize; 4] = [1, 2, 5, 64];

#[derive(Clone, Copy, Debug)]
enum Kind {
    Epsilon,
    ScaledEpsilon,
    LinUcb,
}

fn specs() -> Vec<ArmSpec> {
    vec![ArmSpec::new(0, "small", 1.0), ArmSpec::new(1, "medium", 2.0), ArmSpec::new(2, "big", 4.0)]
}

fn shard(kind: Kind, m: usize, seed: u64) -> Shard {
    // A slow decay keeps all-explore bursts (no prediction columns) frequent.
    let config = BanditConfig::paper().with_epsilon0(0.5).with_decay(0.999).with_seed(seed);
    let policy: Box<dyn Policy> = match kind {
        Kind::Epsilon => Box::new(EpsilonGreedy::new(specs(), m, config).unwrap()),
        Kind::ScaledEpsilon => Box::new(scaled_epsilon_greedy(specs(), m, config).unwrap()),
        Kind::LinUcb => Box::new(LinUcb::new(specs(), m, 0.5, 1.0).unwrap()),
    };
    BanditWare::new(policy, specs()).with_retention(Retention::Tail(16))
}

/// The shards under test: every policy kind at m=7 and m=64.
fn shards() -> Vec<Shard> {
    let mut out = Vec::new();
    for (i, kind) in [Kind::Epsilon, Kind::ScaledEpsilon, Kind::LinUcb].into_iter().enumerate() {
        for m in [7usize, 64] {
            out.push(shard(kind, m, 31 + 7 * i as u64 + m as u64));
        }
    }
    out
}

fn context(step: usize, row: usize, m: usize) -> Vec<f64> {
    (0..m).map(|j| ((step * 37 + row * 11 + j * 5) % 97) as f64 * 0.5 - 20.0).collect()
}

fn runtime(arm: usize, x: &[f64]) -> f64 {
    50.0 + 7.0 * arm as f64 + 0.1 * x.iter().sum::<f64>().abs()
}

/// Serve shard step `step`: one recommend burst and its record burst.
fn serve_step(shard: &mut Shard, step: usize, trace: &mut Vec<Served>) {
    let m = shard.policy().n_features();
    let rows: Vec<Vec<f64>> =
        (0..BURSTS[step % BURSTS.len()]).map(|r| context(step, r, m)).collect();
    let frame = FeatureFrame::from_rows(&rows).unwrap();
    let mut recs: Vec<(Ticket, Recommendation)> = Vec::new();
    shard.recommend_batch_frame_into(&frame, &mut recs).unwrap();
    let outcomes: Vec<(Ticket, f64)> =
        recs.iter().zip(&rows).map(|((t, rec), x)| (*t, runtime(rec.arm, x))).collect();
    trace.extend(
        recs.iter().map(|(t, r)| (t.id(), r.arm, r.explored, r.predicted_runtime.to_bits())),
    );
    shard.record_batch_frame(&outcomes).unwrap();
}

fn checkpoint(shard: &Shard) -> Vec<u8> {
    let mut bytes = Vec::new();
    save_checkpoint(shard, &mut bytes).unwrap();
    bytes
}

const STEPS: usize = 12;

#[test]
fn interleaved_shards_match_each_shard_served_alone() {
    // One thread, every shard in turn: widths and burst sizes alternate
    // through the shared workspace. Shards `2k` and `2k + 1` (one policy
    // kind at m=7, then at m=64) serve equal burst sizes back to back, so
    // a buffer left sized by one shard fits the next.
    let mut mixed = shards();
    let mut traces: Vec<Vec<Served>> = vec![Vec::new(); mixed.len()];
    for step in 0..STEPS {
        for (s, shard) in mixed.iter_mut().enumerate() {
            serve_step(shard, step + s / 2, &mut traces[s]);
        }
    }
    for (s, shard) in mixed.iter().enumerate() {
        // The same shard alone, on a thread whose workspace is fresh.
        let (alone_trace, alone_ckpt) = std::thread::spawn(move || {
            let mut alone = shards().swap_remove(s);
            let mut trace = Vec::new();
            for step in 0..STEPS {
                serve_step(&mut alone, step + s / 2, &mut trace);
            }
            (trace, checkpoint(&alone))
        })
        .join()
        .unwrap();
        let (mixed_trace, n) = (&traces[s], traces[s].len().max(alone_trace.len()));
        if let Some(i) = (0..n).find(|&i| mixed_trace.get(i) != alone_trace.get(i)) {
            panic!(
                "shard {s}: served result {i} (ticket, arm, explored, prediction bits) is {:?} \
                 interleaved and {:?} alone",
                mixed_trace.get(i),
                alone_trace.get(i)
            );
        }
        assert_eq!(checkpoint(shard), alone_ckpt, "shard {s}: final checkpoint");
    }
}

/// A record callback that records into a second recommender runs on a
/// workspace of its own: both recommenders end bitwise where the same
/// operations leave them one after the other.
#[test]
fn recording_from_inside_a_record_callback_is_isolated() {
    let run = |nested: bool| {
        let (mut a, mut b) = (shard(Kind::Epsilon, 7, 5), shard(Kind::LinUcb, 64, 6));
        let mut trace = Vec::new();
        for step in 0..STEPS {
            serve_step(&mut a, step, &mut trace);
            serve_step(&mut b, step + 1, &mut trace);
        }
        let n = 5;
        let rows_a: Vec<Vec<f64>> = (0..n).map(|r| context(99, r, 7)).collect();
        let rows_b: Vec<Vec<f64>> = (0..n).map(|r| context(98, r, 64)).collect();
        let recs_a = a.recommend_batch_frame(&FeatureFrame::from_rows(&rows_a).unwrap()).unwrap();
        let recs_b = b.recommend_batch_frame(&FeatureFrame::from_rows(&rows_b).unwrap()).unwrap();
        let out_a: Vec<(Ticket, f64)> =
            recs_a.iter().zip(&rows_a).map(|((t, r), x)| (*t, runtime(r.arm, x))).collect();
        let out_b: Vec<(Ticket, f64)> =
            recs_b.iter().zip(&rows_b).map(|((t, r), x)| (*t, runtime(r.arm, x))).collect();
        let mut logged = Vec::new();
        if nested {
            let mut i = 0;
            a.record_batch_frame_logged(&out_a, |seq, ticket, _, _| {
                logged.push((seq, ticket.id()));
                b.record_batch_frame(&out_b[i..=i]).unwrap();
                i += 1;
            })
            .unwrap();
        } else {
            a.record_batch_frame_logged(&out_a, |seq, ticket, _, _| {
                logged.push((seq, ticket.id()));
            })
            .unwrap();
            for one in out_b.chunks(1) {
                b.record_batch_frame(one).unwrap();
            }
        }
        serve_step(&mut a, STEPS, &mut trace);
        serve_step(&mut b, STEPS + 1, &mut trace);
        (trace, logged, checkpoint(&a), checkpoint(&b))
    };
    // Run the sequential twin on a fresh thread, so the two runs share no
    // workspace either.
    let sequential = std::thread::spawn(move || run(false)).join().unwrap();
    let nested = run(true);
    assert_eq!(nested.0, sequential.0, "served results");
    assert_eq!(nested.1, sequential.1, "logged rounds");
    assert_eq!(nested.2, sequential.2, "outer recommender checkpoint");
    assert_eq!(nested.3, sequential.3, "inner recommender checkpoint");
}

/// An explicitly passed workspace and the thread's own give the same
/// selections and prediction columns.
#[test]
fn a_fresh_workspace_selects_like_the_threads() {
    let config = BanditConfig::paper().with_epsilon0(0.2).with_seed(3);
    let mut a = EpsilonGreedy::new(specs(), 7, config).unwrap();
    let mut b = a.clone();
    let rows: Vec<Vec<f64>> = (0..9).map(|r| context(4, r, 7)).collect();
    let frame = FeatureFrame::from_rows(&rows).unwrap();
    let (mut sa, mut sb, mut ca, mut cb) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    a.select_frame_with(&frame, &mut sa, &mut ca, &mut Workspace::default()).unwrap();
    Workspace::with(|ws| b.select_frame_with(&frame, &mut sb, &mut cb, ws)).unwrap();
    assert_eq!(sa, sb);
    assert_eq!(
        ca.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        cb.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
    );
}
