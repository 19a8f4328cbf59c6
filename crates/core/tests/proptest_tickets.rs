//! Model test for the in-flight ticket table: a [`BanditWare`] driven by
//! random issue / record / drop / reopen / checkpoint operations must keep
//! exactly the open rounds a `BTreeMap` reference model keeps, with the
//! same arms, feature bits and exploration flags, the same ticket counter,
//! and the same retained history.

use banditware_core::epsilon::EpsilonGreedy;
use banditware_core::persist::{load_checkpoint, restore_checkpoint, save_checkpoint};
use banditware_core::plain::PlainEpsilonGreedy;
use banditware_core::{
    ArmSpec, BanditConfig, BanditWare, CoreError, FeatureFrame, ObservationFrame, Policy,
    PolicyState, Retention, Selection, Ticket,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

const ARMS: usize = 3;
const WIDTH: usize = 3;
const TAIL: usize = 5;
/// Runtimes above this make [`Brittle`] refuse the observation.
const FAIL_ABOVE: f64 = 1000.0;

/// A policy whose absorption "numerically fails" on runtimes above
/// [`FAIL_ABOVE`]. Frames are absorbed row by row (the trait default), so a
/// failing burst absorbs a prefix and leaves the rest open; selection goes
/// through the inner policy's frame path, predictions included.
#[derive(Debug)]
struct Brittle(Box<dyn Policy>);

impl Policy for Brittle {
    fn name(&self) -> String {
        format!("brittle:{}", self.0.name())
    }
    fn n_arms(&self) -> usize {
        self.0.n_arms()
    }
    fn n_features(&self) -> usize {
        self.0.n_features()
    }
    fn select(&mut self, x: &[f64]) -> banditware_core::Result<Selection> {
        self.0.select(x)
    }
    fn select_frame_into(
        &mut self,
        frame: &FeatureFrame,
        out: &mut Vec<Selection>,
    ) -> banditware_core::Result<()> {
        self.0.select_frame_into(frame, out)
    }
    fn frame_predictions(&self) -> Option<&[f64]> {
        self.0.frame_predictions()
    }
    fn observe(&mut self, arm: usize, x: &[f64], runtime: f64) -> banditware_core::Result<()> {
        if runtime > FAIL_ABOVE {
            return Err(CoreError::Linalg(banditware_linalg::LinalgError::InsufficientData {
                have: 0,
                need: 1,
            }));
        }
        self.0.observe(arm, x, runtime)
    }
    fn observe_frame(
        &mut self,
        frame: &ObservationFrame,
        absorbed: &mut Vec<bool>,
    ) -> banditware_core::Result<()> {
        absorbed.clear();
        absorbed.resize(frame.n_rows(), false);
        for (r, flag) in absorbed.iter_mut().enumerate() {
            self.observe(frame.arm(r), frame.row(r), frame.outcome(r))?;
            *flag = true;
        }
        Ok(())
    }
    fn predict(&self, arm: usize, x: &[f64]) -> banditware_core::Result<f64> {
        self.0.predict(arm, x)
    }
    fn pulls(&self) -> Vec<usize> {
        self.0.pulls()
    }
    fn reset(&mut self) {
        self.0.reset()
    }
    fn snapshot(&self) -> PolicyState {
        self.0.snapshot()
    }
    fn restore(&mut self, state: &PolicyState) -> banditware_core::Result<()> {
        self.0.restore(state)
    }
}

fn fresh(contextual: bool) -> BanditWare<Brittle> {
    let specs = ArmSpec::unit_costs(ARMS);
    let inner: Box<dyn Policy> = if contextual {
        let config = BanditConfig::paper().with_epsilon0(0.5).with_seed(3);
        Box::new(EpsilonGreedy::new(specs.clone(), WIDTH, config).unwrap())
    } else {
        Box::new(PlainEpsilonGreedy::new(specs.clone(), 0.5, 0.99, 3).unwrap())
    };
    BanditWare::new(Brittle(inner), specs).with_retention(Retention::Tail(TAIL))
}

/// One open round as the model holds it: arm, feature bits, explored.
type Round = (usize, Vec<u64>, bool);

fn bits(x: &[f64]) -> Vec<u64> {
    x.iter().map(|v| v.to_bits()).collect()
}

/// The reference: open rounds by id, the ticket counter, and every
/// recorded round as (arm, feature bits, runtime bits, explored).
#[derive(Default)]
struct Model {
    open: BTreeMap<u64, Round>,
    next: u64,
    recorded: Vec<(usize, Vec<u64>, u64, bool)>,
}

impl Model {
    fn record(&mut self, id: u64, runtime: f64) {
        let (arm, x, explored) = self.open.remove(&id).expect("model: recorded an open id");
        self.recorded.push((arm, x, runtime.to_bits(), explored));
    }

    /// The checkpoint's open-round lines this model predicts.
    fn open_lines(&self) -> Vec<String> {
        self.open
            .iter()
            .map(|(id, (arm, x, explored))| {
                let x: Vec<String> = x.iter().map(|&b| format!("{}", f64::from_bits(b))).collect();
                format!("open,{id},{arm},{},{}", u8::from(*explored), x.join(","))
            })
            .collect()
    }
}

fn row(rng: &mut StdRng, width: usize) -> Vec<f64> {
    (0..width).map(|_| rng.gen_range(-50.0..50.0)).collect()
}

/// Row width: the policy's own, or any for a non-contextual policy
/// (zero-feature rounds included).
fn width(rng: &mut StdRng, contextual: bool) -> usize {
    if contextual {
        WIDTH
    } else {
        rng.gen_range(0..5usize)
    }
}

fn runtime(rng: &mut StdRng) -> f64 {
    if rng.gen_range(0..6u32) == 0 {
        5000.0
    } else {
        rng.gen_range(5.0..50.0)
    }
}

/// Every observable the table feeds: open tickets and their rounds, the
/// ticket counter, and the retained history.
fn assert_matches(bw: &BanditWare<Brittle>, model: &Model) -> Result<(), TestCaseError> {
    let ids: Vec<u64> = model.open.keys().copied().collect();
    let open: Vec<u64> = bw.open_tickets().iter().map(|t| t.id()).collect();
    prop_assert_eq!(open, ids);
    prop_assert_eq!(bw.in_flight(), model.open.len());
    for (&id, (arm, x, explored)) in &model.open {
        let round = bw.in_flight_round(Ticket::from_id(id)).expect("open round");
        prop_assert_eq!(
            (round.arm, bits(round.features), round.explored),
            (*arm, x.clone(), *explored)
        );
    }
    prop_assert_eq!(bw.next_ticket_id(), model.next);
    prop_assert_eq!(bw.rounds(), model.recorded.len());
    let from = model.recorded.len().saturating_sub(TAIL);
    prop_assert_eq!(bw.history().len(), model.recorded.len() - from);
    for (o, (i, (arm, x, rt, explored))) in
        bw.history().iter().zip(model.recorded.iter().enumerate().skip(from))
    {
        prop_assert_eq!(
            (o.round, o.arm, bits(&o.features), o.runtime.to_bits(), o.explored),
            (i, *arm, x.clone(), *rt, *explored)
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn ticket_table_matches_a_btreemap_model(
        contextual in any::<bool>(),
        ops in prop::collection::vec((0u8..6, any::<u64>()), 1..60),
    ) {
        let mut bw = fresh(contextual);
        let mut model = Model::default();
        for (op, seed) in ops {
            let mut rng = StdRng::seed_from_u64(seed);
            match op {
                // Issue a burst (or one ticket).
                0 => {
                    let w = width(&mut rng, contextual);
                    let rows: Vec<Vec<f64>> = (0..rng.gen_range(0..7usize)).map(|_| row(&mut rng, w)).collect();
                    if !rows.is_empty() && rng.gen_range(0..5u32) == 0 {
                        // A refused burst — a wider row (a width error for
                        // the contextual policy) with a non-finite or
                        // oversized feature — changes nothing.
                        let mut rows = rows;
                        let r = rng.gen_range(0..rows.len());
                        let f = rng.gen_range(0..w.max(1));
                        for row in &mut rows {
                            row.push(1.0);
                        }
                        rows[r][f] = if rng.gen_bool(0.5) { f64::NAN } else { 1e200 };
                        let frame = FeatureFrame::from_rows(&rows).unwrap();
                        prop_assert!(bw.recommend_batch_frame(&frame).is_err());
                        assert_matches(&bw, &model)?;
                        continue;
                    }
                    let issued = if rows.is_empty() {
                        let x = row(&mut rng, w);
                        let (t, rec) = bw.recommend_ticketed(&x).unwrap();
                        vec![(t, rec, x)]
                    } else {
                        let frame = FeatureFrame::from_rows(&rows).unwrap();
                        let recs = bw.recommend_batch_frame(&frame).unwrap();
                        recs.into_iter().zip(rows).map(|((t, r), x)| (t, r, x)).collect()
                    };
                    for (t, rec, x) in issued {
                        prop_assert_eq!(t.id(), model.next);
                        model.next += 1;
                        model.open.insert(t.id(), (rec.arm, bits(&x), rec.explored));
                    }
                }
                // Record a random subset in random order; a failing runtime
                // leaves it and its successors open.
                1 => {
                    let mut ids: Vec<u64> = model.open.keys().copied().filter(|_| rng.gen_bool(0.6)).collect();
                    for i in (1..ids.len()).rev() {
                        ids.swap(i, rng.gen_range(0..=i));
                    }
                    let mut outcomes: Vec<(Ticket, f64)> =
                        ids.iter().map(|&id| (Ticket::from_id(id), runtime(&mut rng))).collect();
                    match rng.gen_range(0..8u32) {
                        // A stray ticket or a duplicate: refused up front.
                        0 => outcomes.push((Ticket::from_id(model.next + 7), 5.0)),
                        1 if !outcomes.is_empty() => outcomes.push(outcomes[0]),
                        _ => {
                            let result = bw.record_batch_frame(&outcomes);
                            for &(t, rt) in &outcomes {
                                if rt > FAIL_ABOVE {
                                    break;
                                }
                                model.record(t.id(), rt);
                            }
                            let failed = outcomes.iter().any(|&(_, rt)| rt > FAIL_ABOVE);
                            prop_assert_eq!(result.is_err(), failed);
                            assert_matches(&bw, &model)?;
                            continue;
                        }
                    }
                    prop_assert!(bw.record_batch_frame(&outcomes).is_err());
                }
                // Drop an open ticket or a stray id.
                2 => {
                    let id = match model.open.keys().nth(rng.gen_range(0..model.open.len().max(1))) {
                        Some(&id) if rng.gen_bool(0.8) => id,
                        _ => model.next + rng.gen_range(0..3u64),
                    };
                    prop_assert_eq!(bw.drop_ticket(Ticket::from_id(id)), model.open.remove(&id).is_some());
                }
                // Reopen: below every open id, above the counter, or an
                // id already open (refused, changing nothing).
                3 => {
                    let w = width(&mut rng, contextual);
                    let (arm, x, explored) = (rng.gen_range(0..ARMS), row(&mut rng, w), rng.gen_bool(0.5));
                    let lowest = model.open.keys().next().copied().unwrap_or(model.next);
                    let id = match rng.gen_range(0..3u32) {
                        0 if lowest > 0 => rng.gen_range(0..lowest),
                        1 if !model.open.is_empty() => lowest,
                        _ => model.next + rng.gen_range(0..4u64),
                    };
                    let result = bw.reopen_ticket(Ticket::from_id(id), arm, &x, explored);
                    if model.open.contains_key(&id) {
                        let refused = matches!(result, Err(CoreError::InvalidParameter { name: "ticket", .. }));
                        prop_assert!(refused);
                    } else {
                        result.unwrap();
                        model.open.insert(id, (arm, bits(&x), explored));
                        model.next = model.next.max(id + 1);
                    }
                }
                // Record one ticket; a failing runtime keeps it open.
                4 => {
                    let Some(&id) = model.open.keys().nth(rng.gen_range(0..model.open.len().max(1))) else {
                        continue;
                    };
                    let rt = runtime(&mut rng);
                    let result = bw.record_ticket(Ticket::from_id(id), rt);
                    prop_assert_eq!(result.is_err(), rt > FAIL_ABOVE);
                    if rt <= FAIL_ABOVE {
                        model.record(id, rt);
                    }
                }
                // Checkpoint and continue from the restored copy: its bytes
                // match the original's and list the model's open rounds.
                _ => {
                    let mut saved = Vec::new();
                    save_checkpoint(&bw, &mut saved).unwrap();
                    let mut restored = fresh(contextual);
                    restore_checkpoint(&mut restored, &load_checkpoint(saved.as_slice()).unwrap()).unwrap();
                    let mut again = Vec::new();
                    save_checkpoint(&restored, &mut again).unwrap();
                    prop_assert_eq!(&again, &saved);
                    let text = String::from_utf8(saved).unwrap();
                    let open: Vec<String> =
                        text.lines().filter(|l| l.starts_with("open,")).map(str::to_string).collect();
                    prop_assert_eq!(open, model.open_lines());
                    bw = restored;
                }
            }
            assert_matches(&bw, &model)?;
        }
    }
}
