//! The traced layer-by-layer replay.
//!
//! Layers below the engine cannot be reached from outside the program, so
//! each is measured by replaying the workload's captured input stream —
//! the calls of its first `ladder_steps` steps, from the state the timed
//! phase started in — into a standalone replica of that layer: the engine,
//! a `BanditWare` with the same policy and seed, the policy, one
//! `RecursiveArm`, and the linalg kernels; plus the codec, a socket round
//! trip and the WAL. Every call is wrapped in a span, and every per-layer
//! figure is read back from the spans. A layer's self time is its span time
//! minus the next-lower layer's span time on identical inputs.

use crate::alloc;
use crate::report::{Ledger, Metrics};
use crate::scenario::{Call, Scenario, POLICY};
use crate::trace::{Tracer, NONE};
use banditware_core::epsilon::EpsilonGreedy;
use banditware_core::persist::{self, Checkpoint};
use banditware_core::{
    ArmEstimator, BanditWare, FeatureFrame, ObservationFrame, Policy, PolicyState, RecursiveArm,
    Selection, Ticket,
};
use banditware_linalg::{vector, Matrix, NormalEquations, SolveScratch, UpdatableCholesky};
use banditware_net::frame::{encode_frame, parse_frame, FrameEvent};
use banditware_net::protocol::{decode_request, encode_request, encode_response};
use banditware_net::{NetClient, NetServer, Request, Response, ServerConfig, ServerMode};
use banditware_serve::{build_policy, Durability, DurableEngine, Engine, WalOptions};
use std::path::Path;
use std::sync::Arc;

type Res<T> = Result<T, String>;

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// What the engine-facing layers chose, row by row, in call order.
type Choices = Vec<(usize, bool)>;

/// The captured stream: the calls of the first `steps` steps.
fn capture(sc: &Scenario, steps: usize) -> Vec<Call> {
    (0..steps).flat_map(|s| sc.calls(s)).collect()
}

fn fresh_engine(sc: &Scenario, ckpts: &[Vec<u8>]) -> Res<Engine> {
    let engine = sc.builder().build().map_err(err)?;
    crate::scenario::restore_all(&engine, &sc.keys, ckpts).map_err(err)?;
    Ok(engine)
}

fn stats_of(bytes: &[u8]) -> Res<persist::StateSnapshot> {
    match persist::load_checkpoint(bytes).map_err(err)? {
        Checkpoint::Stats(s) => Ok(s),
        Checkpoint::Replay(_) => Err("expected a v3 statistics checkpoint".into()),
    }
}

/// Engine layer: `Engine::recommend_batch_frame` / `record_batch_frame` on
/// the captured calls. Returns the choices and the allocations per call.
fn engine_layer(
    sc: &Scenario,
    ckpts: &[Vec<u8>],
    calls: &[Call],
    t: &mut Tracer,
) -> Res<(Choices, f64)> {
    let engine = fresh_engine(sc, ckpts)?;
    let mut frame = FeatureFrame::new();
    let mut outcomes: Vec<(Ticket, f64)> = Vec::new();
    let mut choices = Vec::new();
    let mut allocs = 0u64;
    for (i, c) in calls.iter().enumerate() {
        let key = &sc.keys[c.key];
        sc.frame(&c.rows, &mut frame);
        let a0 = alloc::bench();
        let s = t.begin("engine.recommend", NONE, i as u64);
        let recs = engine.recommend_batch_frame(key, &frame);
        t.end(s);
        let a1 = alloc::bench();
        let recs = recs.map_err(err)?;
        outcomes.clear();
        for ((ticket, rec), &r) in recs.iter().zip(&c.rows) {
            outcomes.push((*ticket, sc.pool.realized(r, rec.arm)));
            choices.push((rec.arm, rec.explored));
        }
        let a2 = alloc::bench();
        let s = t.begin("engine.record", NONE, i as u64);
        let res = engine.record_batch_frame(key, &outcomes);
        t.end(s);
        allocs += (a1 - a0) + (alloc::bench() - a2);
        res.map_err(err)?;
    }
    Ok((choices, allocs as f64 / (2 * calls.len()) as f64))
}

/// The engine on single-row calls: what the server runs per request when
/// requests arrive one at a time (the net ladder's shape).
fn engine_single(sc: &Scenario, ckpts: &[Vec<u8>], calls: &[Call], t: &mut Tracer) -> Res<Choices> {
    let engine = fresh_engine(sc, ckpts)?;
    let mut frame = FeatureFrame::new();
    let mut choices = Vec::new();
    for c in calls {
        let key = &sc.keys[c.key];
        for &r in &c.rows {
            sc.frame(&[r], &mut frame);
            let s = t.begin("engine1.recommend", NONE, r as u64);
            let recs = engine.recommend_batch_frame(key, &frame);
            t.end(s);
            let (ticket, rec) = recs.map_err(err)?.pop().ok_or("empty recommendation")?;
            choices.push((rec.arm, rec.explored));
            let outcome = [(ticket, sc.pool.realized(r, rec.arm))];
            let s = t.begin("engine1.record", NONE, r as u64);
            let res = engine.record_batch_frame(key, &outcome);
            t.end(s);
            res.map_err(err)?;
        }
    }
    Ok(choices)
}

/// Bandit layer: one standalone `BanditWare` per key with the engine's
/// policy and per-key seed, restored from the same checkpoint.
fn bandit_layer(sc: &Scenario, ckpts: &[Vec<u8>], calls: &[Call], t: &mut Tracer) -> Res<Choices> {
    let seeds = sc.builder().build().map_err(err)?;
    let mut bandits = Vec::with_capacity(sc.keys.len());
    for (key, bytes) in sc.keys.iter().zip(ckpts) {
        let config = sc.config.with_seed(seeds.shard_seed(key));
        let policy = build_policy(POLICY, sc.specs.clone(), sc.m(), &config).map_err(err)?;
        let mut b = BanditWare::new(policy, sc.specs.clone()).with_retention(sc.retention);
        persist::restore_checkpoint(
            &mut b,
            &persist::load_checkpoint(bytes.as_slice()).map_err(err)?,
        )
        .map_err(err)?;
        bandits.push(b);
    }
    let mut frame = FeatureFrame::new();
    let mut outcomes: Vec<(Ticket, f64)> = Vec::new();
    let mut choices = Vec::new();
    for (i, c) in calls.iter().enumerate() {
        let b = &mut bandits[c.key];
        sc.frame(&c.rows, &mut frame);
        let s = t.begin("bandit.recommend", NONE, i as u64);
        let recs = b.recommend_batch_frame(&frame);
        t.end(s);
        let recs = recs.map_err(err)?;
        outcomes.clear();
        for ((ticket, rec), &r) in recs.iter().zip(&c.rows) {
            outcomes.push((*ticket, sc.pool.realized(r, rec.arm)));
            choices.push((rec.arm, rec.explored));
        }
        let s = t.begin("bandit.record", NONE, i as u64);
        let res = b.record_batch_frame(&outcomes);
        t.end(s);
        res.map_err(err)?;
    }
    Ok(choices)
}

/// Policy layer: the ε-greedy policy alone, restored from each key's
/// checkpointed policy state.
fn policy_layer(sc: &Scenario, ckpts: &[Vec<u8>], calls: &[Call], t: &mut Tracer) -> Res<Choices> {
    let seeds = sc.builder().build().map_err(err)?;
    let mut policies = Vec::with_capacity(sc.keys.len());
    for (key, bytes) in sc.keys.iter().zip(ckpts) {
        let config = sc.config.with_seed(seeds.shard_seed(key));
        let mut p = EpsilonGreedy::new(sc.specs.clone(), sc.m(), config).map_err(err)?;
        p.restore(&stats_of(bytes)?.policy).map_err(err)?;
        policies.push(p);
    }
    let mut frame = FeatureFrame::new();
    let mut obs = ObservationFrame::new();
    let mut sel: Vec<Selection> = Vec::new();
    let mut absorbed: Vec<bool> = Vec::new();
    let mut choices = Vec::new();
    for (i, c) in calls.iter().enumerate() {
        let p = &mut policies[c.key];
        sc.frame(&c.rows, &mut frame);
        let s = t.begin("policy.select", NONE, i as u64);
        let res = p.select_frame_into(&frame, &mut sel);
        t.end(s);
        res.map_err(err)?;
        obs.begin(c.rows.len(), sc.m());
        for (j, (&r, pick)) in c.rows.iter().zip(&sel).enumerate() {
            obs.set_row(j, pick.arm, sc.pool.row(r), sc.pool.realized(r, pick.arm), pick.explored)
                .map_err(err)?;
            choices.push((pick.arm, pick.explored));
        }
        let s = t.begin("policy.observe", NONE, i as u64);
        let res = p.observe_frame(&obs, &mut absorbed);
        t.end(s);
        res.map_err(err)?;
    }
    Ok(choices)
}

/// Arm layer: every arm of the first captured key's policy as standalone
/// `RecursiveArm`s. Each row is predicted on every arm; each call's rows
/// are absorbed per chosen arm in one `absorb_block`, as the policy's own
/// frame path does.
fn arm_layer(
    sc: &Scenario,
    ckpts: &[Vec<u8>],
    calls: &[Call],
    choices: &Choices,
    t: &mut Tracer,
) -> Res<()> {
    let key = calls.first().map_or(0, |c| c.key);
    let PolicyState::Epsilon { arms: states, .. } = stats_of(&ckpts[key])?.policy else {
        return Err("expected an epsilon-greedy policy state".into());
    };
    let mut arms = Vec::new();
    for st in &states {
        let mut a = RecursiveArm::with_ridge(sc.m(), sc.config.ridge_lambda);
        a.restore_state(st).map_err(err)?;
        arms.push(a);
    }
    let m = sc.m();
    let (mut xcols, mut ys, mut sink) = (Vec::new(), Vec::new(), 0.0);
    let mut next = 0;
    for c in calls {
        let picked = &choices[next..next + c.rows.len()];
        next += c.rows.len();
        for &r in &c.rows {
            for (i, a) in arms.iter().enumerate() {
                let s = t.begin("arm.predict", NONE, i as u64);
                sink += a.predict(sc.pool.row(r));
                t.end(s);
            }
        }
        for (arm, estimator) in arms.iter_mut().enumerate() {
            let rows: Vec<usize> =
                c.rows.iter().zip(picked).filter(|(_, p)| p.0 == arm).map(|(&r, _)| r).collect();
            if rows.is_empty() {
                continue;
            }
            let k = rows.len();
            xcols.clear();
            xcols.resize(m * k, 0.0);
            ys.clear();
            for (i, &r) in rows.iter().enumerate() {
                for (f, v) in sc.pool.row(r).iter().enumerate() {
                    xcols[f * k + i] = *v;
                }
                ys.push(sc.pool.realized(r, arm));
            }
            let mut absorbed = 0;
            let s = t.begin("arm.record", NONE, k as u64);
            let res = estimator.absorb_block(&xcols, &ys, &mut absorbed);
            t.end(s);
            res.map_err(err)?;
        }
    }
    std::hint::black_box(sink);
    Ok(())
}

/// Linalg kernels at the workload's m, on the captured rows.
fn linalg_layer(sc: &Scenario, calls: &[Call], choices: &Choices, t: &mut Tracer) -> Res<()> {
    let m = sc.m();
    let rows: Vec<usize> = calls.iter().flat_map(|c| c.rows.iter().copied()).collect();
    let w: Vec<f64> = (0..m).map(|j| 1.0 / (j + 1) as f64).collect();
    let mut neq = NormalEquations::new(m);
    let mut scratch = SolveScratch::for_features(m);
    let mut fit = banditware_linalg::LinearFit::zeros(m);
    let mut chol = UpdatableCholesky::decompose(&Matrix::identity(m + 1)).map_err(err)?;
    let mut aug = vec![1.0; m + 1];
    let mut sink = 0.0;
    for (&r, &(arm, _)) in rows.iter().zip(choices) {
        let x = sc.pool.row(r);
        let y = sc.pool.realized(r, arm);
        let s = t.begin("linalg.dot", NONE, r as u64);
        sink += vector::dot(&w, x);
        t.end(s);
        let s = t.begin("linalg.push", NONE, r as u64);
        let res = neq.push(x, y);
        t.end(s);
        res.map_err(err)?;
        aug[..m].copy_from_slice(x);
        let s = t.begin("linalg.cholupdate", NONE, r as u64);
        let res = chol.update(&aug);
        t.end(s);
        res.map_err(err)?;
        if neq.n_obs() > m + 1 {
            let s = t.begin("linalg.solve", NONE, r as u64);
            let res = neq.solve_into(1e-6, &mut scratch, &mut fit);
            t.end(s);
            res.map_err(err)?;
        }
    }
    // The rank-k fold, on the workload's own block size.
    let mut neq = NormalEquations::new(m);
    let mut xcols = Vec::new();
    let mut ys = Vec::new();
    for block in rows.chunks(sc.sizes.batch) {
        let k = block.len();
        xcols.clear();
        xcols.resize(m * k, 0.0);
        ys.clear();
        for (i, &r) in block.iter().enumerate() {
            for (f, v) in sc.pool.row(r).iter().enumerate() {
                xcols[f * k + i] = *v;
            }
            ys.push(sc.pool.realized(r, 0));
        }
        let s = t.begin("linalg.push_block", NONE, k as u64);
        let res = neq.push_block(&xcols, &ys);
        t.end(s);
        res.map_err(err)?;
    }
    std::hint::black_box((sink, fit));
    Ok(())
}

/// Codec layer: decode every captured request, encode every response,
/// frame and parse every payload. Returns the allocations per request.
fn codec_layer(sc: &Scenario, calls: &[Call], choices: &Choices, t: &mut Tracer) -> Res<f64> {
    let mut payloads: Vec<Vec<u8>> = Vec::new();
    let mut responses: Vec<Response> = Vec::new();
    let rows = calls.iter().flat_map(|c| c.rows.iter().map(move |&r| (c.key, r)));
    for (i, ((key, r), &(arm, explored))) in rows.zip(choices).enumerate() {
        let id = 2 * i as u64;
        let mut p = Vec::new();
        let req =
            Request::Recommend { key: sc.keys[key].clone(), features: sc.pool.row(r).to_vec() };
        encode_request(id, &req, &mut p);
        payloads.push(p);
        let mut p = Vec::new();
        let req = Request::Record {
            key: sc.keys[key].clone(),
            ticket: id,
            runtime: sc.pool.realized(r, arm),
        };
        encode_request(id + 1, &req, &mut p);
        payloads.push(p);
        responses.push(Response::Recommend {
            ticket: id,
            arm: arm as u32,
            explored,
            predicted_runtime: 100.0,
            resource_cost: sc.specs[arm].resource_cost,
            name: sc.specs[arm].name.to_string(),
        });
        responses.push(Response::RecordOk);
    }
    let mut out = Vec::with_capacity(1 << 16);
    let mut framed = Vec::with_capacity(1 << 16);
    let mut allocs = 0u64;
    for (i, (p, resp)) in payloads.iter().zip(&responses).enumerate() {
        let a0 = alloc::bench();
        let s = t.begin("codec.decode_request", NONE, i as u64);
        let decoded = decode_request(p);
        t.end(s);
        let s = t.begin("codec.encode_response", NONE, i as u64);
        encode_response(i as u64, resp, &mut out);
        t.end(s);
        allocs += alloc::bench() - a0;
        let (id, _) = decoded.map_err(err)?;
        if id != i as u64 {
            return Err(format!("codec: request {i} decoded with id {id}"));
        }
        framed.clear();
        let s = t.begin("codec.frame", NONE, i as u64);
        encode_frame(p, &mut framed);
        let parsed = parse_frame(&framed);
        t.end(s);
        if !matches!(parsed, Ok(FrameEvent::Payload { consumed, .. }) if consumed == framed.len()) {
            return Err(format!("codec: frame {i} did not parse back"));
        }
    }
    Ok(allocs as f64 / payloads.len() as f64)
}

/// Net layer: the captured rounds as synchronous requests through a
/// reactor `NetServer` (one loop thread); `choices` are the single-row
/// engine replay's, which sees the same per-key call sequence. Returns
/// bytes and server-thread allocations per round.
fn net_layer(
    sc: &Scenario,
    ckpts: &[Vec<u8>],
    calls: &[Call],
    choices: &Choices,
    t: &mut Tracer,
) -> Res<(f64, f64)> {
    let engine = Arc::new(fresh_engine(sc, ckpts)?);
    let config = ServerConfig::default().with_mode(ServerMode::Reactor).with_reactor_threads(1);
    let mut server = NetServer::bind(Arc::clone(&engine), "127.0.0.1:0", config).map_err(err)?;
    let mut client = NetClient::connect(server.local_addr()).map_err(err)?;
    client.ping().map_err(err)?;
    let (mut bytes, mut payload, mut frame) = (0usize, Vec::new(), Vec::new());
    let mut frame_len = |req: Option<&Request>, resp: Option<&Response>| {
        payload.clear();
        frame.clear();
        if let Some(r) = req {
            encode_request(0, r, &mut payload);
        }
        if let Some(r) = resp {
            encode_response(0, r, &mut payload);
        }
        encode_frame(&payload, &mut frame);
        frame.len()
    };
    let rows = calls.iter().flat_map(|c| c.rows.iter().map(move |&r| (c.key, r)));
    let a0 = alloc::server();
    let mut rounds = 0usize;
    let mut result = Ok(());
    for ((key, r), &(arm, _)) in rows.zip(choices) {
        let k = &sc.keys[key];
        let x = sc.pool.row(r);
        let s = t.begin("net.recommend", NONE, r as u64);
        let rec = client.recommend(k, x);
        t.end(s);
        let rec = match rec {
            Ok(rec) => rec,
            Err(e) => {
                result = Err(format!("net recommend: {e}"));
                break;
            }
        };
        if rec.arm != arm {
            result = Err(format!(
                "net: round {rounds} served arm {} where the in-process engine chose {arm}",
                rec.arm
            ));
            break;
        }
        let y = sc.pool.realized(r, rec.arm);
        let s = t.begin("net.record", NONE, r as u64);
        let res = client.record(k, rec.ticket, y);
        t.end(s);
        if let Err(e) = res {
            result = Err(format!("net record: {e}"));
            break;
        }
        rounds += 1;
        bytes +=
            frame_len(Some(&Request::Recommend { key: k.clone(), features: x.to_vec() }), None)
                + frame_len(
                    Some(&Request::Record { key: k.clone(), ticket: rec.ticket, runtime: y }),
                    None,
                )
                + frame_len(
                    None,
                    Some(&Response::Recommend {
                        ticket: rec.ticket,
                        arm: rec.arm as u32,
                        explored: rec.explored,
                        predicted_runtime: rec.predicted_runtime,
                        resource_cost: rec.resource_cost,
                        name: rec.name,
                    }),
                )
                + frame_len(None, Some(&Response::RecordOk));
    }
    let server_allocs = alloc::server() - a0;
    drop(client);
    server.shutdown();
    result?;
    Ok((bytes as f64 / rounds as f64, server_allocs as f64 / rounds as f64))
}

fn dir_stats(dir: &Path) -> (u64, u64) {
    let mut bytes = 0;
    let mut segments = 0;
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        for entry in std::fs::read_dir(&d).into_iter().flatten().flatten() {
            let Ok(meta) = entry.metadata() else { continue };
            if meta.is_dir() {
                stack.push(entry.path());
            } else {
                bytes += meta.len();
                let name = entry.file_name().to_string_lossy().into_owned();
                segments += u64::from(name.starts_with("wal-") && name.ends_with(".log"));
            }
        }
    }
    (bytes, segments)
}

/// Replay `calls` into an `Engine`-like target, spanning the record calls
/// under `span`.
fn replay_into<R, Rec>(
    sc: &Scenario,
    calls: &[Call],
    t: &mut Tracer,
    span: &'static str,
    recommend: R,
    record: Rec,
) -> Res<usize>
where
    R: Fn(&str, &FeatureFrame) -> Res<Vec<(Ticket, banditware_core::Recommendation)>>,
    Rec: Fn(&str, &[(Ticket, f64)]) -> Res<()>,
{
    let mut frame = FeatureFrame::new();
    let mut outcomes = Vec::new();
    let mut rounds = 0;
    for (i, c) in calls.iter().enumerate() {
        let key = &sc.keys[c.key];
        sc.frame(&c.rows, &mut frame);
        let recs = recommend(key, &frame)?;
        outcomes.clear();
        outcomes.extend(
            recs.iter().zip(&c.rows).map(|((tk, rec), &r)| (*tk, sc.pool.realized(r, rec.arm))),
        );
        let s = t.begin(span, NONE, i as u64);
        let res = record(key, &outcomes);
        t.end(s);
        res?;
        rounds += outcomes.len();
    }
    Ok(rounds)
}

/// WAL layer: a `DurableEngine` restored from the checkpoints and
/// compacted, a pre-history under `Flush`, a restart under
/// `FsyncPerBatch`, then group commits next to a plain `Engine` fed the
/// same bursts.
fn wal_layer(sc: &Scenario, ckpts: &[Vec<u8>], dir: &Path, m: &mut Metrics) -> Res<()> {
    let steps = sc.sizes.wal_steps;
    let first: Vec<Call> = (0..steps).flat_map(|s| sc.calls(s)).collect();
    let second: Vec<Call> = (steps..2 * steps).flat_map(|s| sc.calls(s)).collect();
    let mut t = Tracer::new(true, 1 << 16);
    let opts = WalOptions::new(dir);
    let (flush, _) = DurableEngine::open(sc.builder().durability(Durability::Flush), opts.clone())
        .map_err(err)?;
    crate::scenario::restore_all(flush.engine(), &sc.keys, ckpts).map_err(err)?;
    for key in &sc.keys {
        let s = t.begin("wal.compact", NONE, 0);
        let res = flush.compact(key);
        t.end(s);
        res.map_err(err)?;
    }
    let t0 = std::time::Instant::now();
    let mut rounds = replay_into(
        sc,
        &first,
        &mut t,
        "wal.flush_record",
        |k, f| flush.recommend_batch_frame(k, f).map_err(err),
        |k, o| flush.record_batch_frame(k, o).map_err(err),
    )?;
    let prehistory_s = t0.elapsed().as_secs_f64();
    drop(flush);

    let t0 = std::time::Instant::now();
    let (durable, report) =
        DurableEngine::open(sc.builder().durability(Durability::FsyncPerBatch), opts)
            .map_err(err)?;
    let recover_s = t0.elapsed().as_secs_f64();
    let twin = fresh_engine(sc, ckpts)?;
    replay_into(
        sc,
        &first,
        &mut t,
        "wal.twin_warm",
        |k, f| twin.recommend_batch_frame(k, f).map_err(err),
        |k, o| twin.record_batch_frame(k, o).map_err(err),
    )?;
    let commits = second.len();
    rounds += replay_into(
        sc,
        &second,
        &mut t,
        "wal.record",
        |k, f| durable.recommend_batch_frame(k, f).map_err(err),
        |k, o| durable.record_batch_frame(k, o).map_err(err),
    )?;
    replay_into(
        sc,
        &second,
        &mut t,
        "wal.twin_record",
        |k, f| twin.recommend_batch_frame(k, f).map_err(err),
        |k, o| twin.record_batch_frame(k, o).map_err(err),
    )?;
    for key in &sc.keys {
        let same = durable.engine().with_shard(key, |s| s.rounds())
            == twin.with_shard(key, |s| s.rounds());
        if !same {
            return Err(format!("wal: durable and plain engines disagree on {key}"));
        }
    }
    drop(durable);
    let (bytes, segments) = dir_stats(dir);
    let second_rounds: usize = second.iter().map(|c| c.rows.len()).sum();
    m.put(
        "wal.commit_us",
        (t.mean_ns("wal.record", 0) - t.mean_ns("wal.twin_record", 0)) / 1e3,
        "us",
    );
    m.put("wal.commits_per_round", commits as f64 / second_rounds as f64, "count");
    m.put("wal.segments", segments as f64, "count");
    m.put("wal.recover_s", recover_s, "s");
    m.put("wal.replayed", report.replayed as f64, "count");
    m.put("wal.snapshots_loaded", report.snapshots_loaded as f64, "count");
    m.put("wal.compact_ms", t.mean_ns("wal.compact", 0) / 1e6, "ms");
    m.put("wal.prehistory_s", prehistory_s, "s");
    m.put("wal.bytes_per_round", bytes as f64 / rounds as f64, "B");
    Ok(())
}

/// Run every layer on the captured stream and put its metrics. `ckpts` is
/// every key's state when the timed phase began.
pub fn run(
    sc: &Scenario,
    ckpts: &[Vec<u8>],
    wal_dir: &Path,
    t: &mut Tracer,
    m: &mut Metrics,
    ledger: &mut Ledger,
) -> Res<()> {
    let calls = capture(sc, sc.sizes.ladder_steps);
    let rows: usize = calls.iter().map(|c| c.rows.len()).sum();
    // Only spans recorded from here on: the timed phase's own spans share
    // some names.
    let from = t.len();
    let per_row = |t: &Tracer, name: &str| t.sum(name, from).1 / rows as f64;
    let mean = |t: &Tracer, name: &str| t.mean_ns(name, from);
    let (engine_choices, engine_allocs) = engine_layer(sc, ckpts, &calls, t)?;
    let bandit_choices = bandit_layer(sc, ckpts, &calls, t)?;
    let policy_choices = policy_layer(sc, ckpts, &calls, t)?;
    ledger.check(bandit_choices == engine_choices, || {
        "ladder: bandit replica diverged from the engine".into()
    });
    ledger.check(policy_choices == engine_choices, || {
        "ladder: policy replica diverged from the engine".into()
    });
    arm_layer(sc, ckpts, &calls, &engine_choices, t)?;
    linalg_layer(sc, &calls, &engine_choices, t)?;
    let codec_allocs = codec_layer(sc, &calls, &engine_choices, t)?;
    let single_choices = engine_single(sc, ckpts, &calls, t)?;
    let (net_bytes, net_allocs) = net_layer(sc, ckpts, &calls, &single_choices, t)?;

    let engine_rec = per_row(t, "engine.recommend");
    let engine_obs = per_row(t, "engine.record");
    let bandit_rec = per_row(t, "bandit.recommend");
    let bandit_obs = per_row(t, "bandit.record");
    let policy_sel = per_row(t, "policy.select");
    let policy_obs = per_row(t, "policy.observe");
    let arm_predict = mean(t, "arm.predict");
    let arm_record = per_row(t, "arm.record");
    let decode = mean(t, "codec.decode_request");
    let encode = mean(t, "codec.encode_response");
    let frame = mean(t, "codec.frame");
    let engine1 = mean(t, "engine1.recommend") + mean(t, "engine1.record");
    let net_round = (mean(t, "net.recommend") + mean(t, "net.record")) / 2.0;

    m.put("net.round_us", net_round / 1e3, "us");
    m.put("net.gap_us", (net_round - (decode + encode + 2.0 * frame + engine1 / 2.0)) / 1e3, "us");
    m.put("net.bytes_per_round", net_bytes, "B");
    m.put("net.server_allocs_per_round", net_allocs, "count");
    m.put("codec.decode_request_ns", decode, "ns");
    m.put("codec.encode_response_ns", encode, "ns");
    m.put("codec.frame_ns", frame, "ns");
    m.put("codec.allocs_per_request", codec_allocs, "count");
    m.put("engine.recommend_ns_per_row", engine_rec, "ns");
    m.put("engine.record_ns_per_row", engine_obs, "ns");
    m.put("engine.self_ns", (engine_rec + engine_obs) - (bandit_rec + bandit_obs), "ns");
    m.put("engine.allocs_per_call", engine_allocs, "count");
    m.put("bandit.recommend_ns_per_row", bandit_rec, "ns");
    m.put("bandit.record_ns_per_row", bandit_obs, "ns");
    m.put("bandit.self_ns", (bandit_rec + bandit_obs) - (policy_sel + policy_obs), "ns");
    m.put("policy.select_ns_per_row", policy_sel, "ns");
    m.put("policy.observe_ns_per_row", policy_obs, "ns");
    // The policy's select path predicts through columnar frame kernels, not
    // through its arms, so its self time is taken on the observe side,
    // where both layers absorb the same blocks.
    m.put("policy.self_ns", policy_obs - arm_record, "ns");
    m.put("arm.record_ns", arm_record, "ns");
    m.put("arm.predict_ns", arm_predict, "ns");
    m.put("linalg.dot_ns", mean(t, "linalg.dot"), "ns");
    m.put("linalg.cholupdate_ns", mean(t, "linalg.cholupdate"), "ns");
    m.put("linalg.solve_ns", mean(t, "linalg.solve"), "ns");
    m.put("linalg.push_ns", mean(t, "linalg.push"), "ns");
    m.put("linalg.push_block_ns_per_row", per_row(t, "linalg.push_block"), "ns");
    wal_layer(sc, ckpts, wal_dir, m)
}

/// Checkpoint every key of `engine` (the state a timed phase starts from).
pub fn snapshot(engine: &Engine, keys: &[String]) -> Res<Vec<Vec<u8>>> {
    keys.iter()
        .map(|k| {
            let mut buf = Vec::new();
            engine.save_shard_checkpoint(k, &mut buf).map_err(err)?;
            Ok(buf)
        })
        .collect()
}
