//! `banditware-cli` — generate traces, run experiments, train and query
//! recommenders from the command line.
//!
//! ```text
//! banditware-cli generate <cycles|bp3d|matmul|llm> <out.csv> [--runs N] [--seed S]
//! banditware-cli experiment <cycles|bp3d|matmul> [--rounds R] [--sims S] [--batch B]
//!                [--policy P] [--tolerance-seconds TS] [--tolerance-ratio TR] [--export out.csv]
//! banditware-cli train <cycles|bp3d|matmul|llm> <trace.csv> <history.txt> [--policy P]
//! banditware-cli recommend <cycles|bp3d|matmul|llm> <checkpoint> --features a,b,c [--policy P]
//! banditware-cli checkpoint <app> <checkpoint-in> <out.v3> [--policy P] [--tail N]
//! banditware-cli inspect <checkpoint>
//! banditware-cli compact <app> <wal-dir> [--policy P] [--seed S]
//! banditware-cli replicate <app> <primary-wal-dir> <follower-dir> [--policy P] [--seed S] [--seal]
//! banditware-cli promote <app> <follower-dir> [--policy P] [--seed S]
//! banditware-cli serve <app> [--policy P] [--seed S] [--addr A] [--window-us U]
//!                [--reactor-threads N]
//! banditware-cli call <addr> <ping|recommend|record|checkpoint> [--key K] [...]
//! ```
//!
//! The policy is a **runtime** choice (`--policy epsilon-greedy|linucb|
//! thompson|ucb1|boltzmann|…`, see `banditware::serve::policy_names`): the
//! CLI holds a `BanditWare<Box<dyn Policy>>`, so no recompilation is needed
//! to swap algorithms.
//!
//! Everything round-trips through the plain-text formats the library
//! defines: CSV traces, `banditware-history v1/v2` observation logs, and
//! `banditware-history v3` statistics snapshots. `recommend` loads any
//! version; `checkpoint` converts a replay log into a v3 snapshot (with an
//! optional bounded tail) whose restore cost no longer grows with history
//! length; `inspect` summarizes any checkpoint; `compact` folds a serving
//! WAL directory's segments into per-tenant snapshots; `replicate` ships a
//! primary WAL directory's durable snapshots + sealed segments to a
//! follower directory; `promote` fails a follower directory over into a
//! full serving engine (printing the per-key watermarks it took over at).
//!
//! `serve` exposes an engine over TCP (the `banditware-net` framed
//! protocol; `--addr 127.0.0.1:0` picks an ephemeral port and prints it,
//! `--window-us` sets the request-coalescing window, `--reactor-threads`
//! the number of epoll event loops, 0 meaning `min(cores, 4)`) and runs
//! until stdin closes; `call` is the matching one-shot client. Unknown
//! flags are ignored, so a script that still passes the retired
//! server-mode flag serves on the reactor.

use banditware::core::tolerance::tolerant_select;
use banditware::eval::protocol::run_experiment_with;
use banditware::frame::csv;
use banditware::prelude::*;
use banditware::workloads::{bp3d, cycles, llm, matmul};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(report) => println!("{report}"),
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!("{USAGE}");
            std::process::exit(2);
        }
    }
}

const USAGE: &str = "usage:
  banditware-cli generate <cycles|bp3d|matmul|llm> <out.csv> [--runs N] [--seed S]
  banditware-cli experiment <cycles|bp3d|matmul> [--rounds R] [--sims S] [--batch B] [--policy P]
                 [--tolerance-seconds TS] [--tolerance-ratio TR] [--export out.csv]
  banditware-cli train <app> <trace.csv> <history.txt> [--policy P]
  banditware-cli recommend <app> <checkpoint> --features a,b,c [--policy P]
  banditware-cli checkpoint <app> <checkpoint-in> <out.v3> [--policy P] [--tail N]
  banditware-cli inspect <checkpoint>
  banditware-cli compact <app> <wal-dir> [--policy P] [--seed S]
  banditware-cli replicate <app> <primary-wal-dir> <follower-dir> [--policy P] [--seed S] [--seal]
  banditware-cli promote <app> <follower-dir> [--policy P] [--seed S]
  banditware-cli serve <app> [--policy P] [--seed S] [--addr A] [--window-us U]
                 [--reactor-threads N]
  banditware-cli call <addr> ping
  banditware-cli call <addr> recommend [--key K] --features a,b,c
  banditware-cli call <addr> record [--key K] --ticket T --runtime R
  banditware-cli call <addr> checkpoint [--key K] [--out FILE]

policies (P): epsilon-greedy (default), exact-epsilon-greedy, scaled-epsilon-greedy,
              plain-epsilon-greedy, budgeted-epsilon-greedy, linucb, thompson, ucb1,
              boltzmann";

/// Dispatch a CLI invocation; returns the report to print.
fn run(args: &[String]) -> Result<String, String> {
    match args.first().map(String::as_str) {
        Some("generate") => cmd_generate(&args[1..]),
        Some("experiment") => cmd_experiment(&args[1..]),
        Some("train") => cmd_train(&args[1..]),
        Some("recommend") => cmd_recommend(&args[1..]),
        Some("checkpoint") => cmd_checkpoint(&args[1..]),
        Some("inspect") => cmd_inspect(&args[1..]),
        Some("compact") => cmd_compact(&args[1..]),
        Some("replicate") => cmd_replicate(&args[1..]),
        Some("promote") => cmd_promote(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("call") => cmd_call(&args[1..]),
        Some(other) => Err(format!("unknown command {other:?}")),
        None => Err("missing command".into()),
    }
}

/// Parse `--flag value` pairs from a tail of arguments.
fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter().position(|a| a == name).and_then(|i| args.get(i + 1)).cloned()
}

fn parse_flag<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    match flag(args, name) {
        Some(v) => v.parse().map_err(|e| format!("bad {name}: {e}")),
        None => Ok(default),
    }
}

/// The per-app wiring: hardware catalogue, feature names, trace generator.
struct App {
    name: &'static str,
    hardware: Vec<HardwareConfig>,
    features: Vec<&'static str>,
}

fn app(name: &str) -> Result<App, String> {
    match name {
        "cycles" => Ok(App {
            name: "cycles",
            hardware: synthetic_hardware(),
            features: cycles::FEATURES.to_vec(),
        }),
        "bp3d" => {
            Ok(App { name: "bp3d", hardware: ndp_hardware(), features: bp3d::FEATURES.to_vec() })
        }
        "matmul" => Ok(App {
            name: "matmul",
            hardware: matmul_hardware(),
            features: matmul::FEATURES.to_vec(),
        }),
        "llm" => {
            Ok(App { name: "llm", hardware: gpu_hardware(), features: llm::FEATURES.to_vec() })
        }
        other => Err(format!("unknown application {other:?} (expected cycles|bp3d|matmul|llm)")),
    }
}

fn generate_trace(app_name: &str, runs: usize, seed: u64) -> Result<Trace, String> {
    let mut rng = StdRng::seed_from_u64(seed);
    Ok(match app_name {
        "cycles" => {
            cycles::generate_trace(&cycles::CyclesModel::paper(), runs, (100, 500), &mut rng)
        }
        "bp3d" => {
            let model = bp3d::Bp3dModel::paper();
            let units = bp3d::paper_burn_units(&mut rng);
            bp3d::generate_trace(&model, &units, runs, &mut rng)
        }
        "matmul" => {
            let small = runs * 5 / 7;
            matmul::generate_trace(&matmul::MatMulModel::paper(), small, runs - small, &mut rng)
        }
        "llm" => llm::generate_trace(&llm::LlmModel::default_7b(), runs, &mut rng),
        other => return Err(format!("unknown application {other:?}")),
    })
}

fn cmd_generate(args: &[String]) -> Result<String, String> {
    let app_name = args.first().ok_or("generate: missing application")?;
    let out = args.get(1).ok_or("generate: missing output path")?;
    let runs: usize = parse_flag(args, "--runs", 500)?;
    let seed: u64 = parse_flag(args, "--seed", 0)?;
    let trace = generate_trace(app_name, runs, seed)?;
    csv::write_path(&trace.to_frame(), out).map_err(|e| e.to_string())?;
    Ok(format!(
        "wrote {runs} {app_name} runs over {} hardware settings to {out}",
        trace.hardware.len()
    ))
}

/// One protocol, any policy: run the paper's Monte-Carlo experiment with a
/// runtime-named policy (one boxed instance per simulation, seeded).
fn run_policy_experiment<M: CostModel + Sync>(
    trace: &Trace,
    model: &M,
    cfg: &ExperimentConfig,
    policy_name: &str,
) -> Result<banditware::eval::protocol::ExperimentResult, String> {
    let n_features = trace.n_features();
    let specs = specs_from_hardware(&trace.hardware);
    // Validate the name/config once up front for a clean CLI error.
    build_policy(policy_name, specs.clone(), n_features, &cfg.bandit).map_err(|e| e.to_string())?;
    Ok(run_experiment_with(trace, model, cfg, |seed| {
        build_policy(policy_name, specs.clone(), n_features, &cfg.bandit.with_seed(seed))
            .expect("policy validated above")
    }))
}

fn cmd_experiment(args: &[String]) -> Result<String, String> {
    let app_name = args.first().ok_or("experiment: missing application")?;
    if app_name == "llm" {
        return Err("experiment: llm has no paper protocol; use generate/train/recommend".into());
    }
    let rounds: usize = parse_flag(args, "--rounds", 50)?;
    let sims: usize = parse_flag(args, "--sims", 20)?;
    let batch: usize = parse_flag(args, "--batch", 1)?;
    let ts: f64 = parse_flag(args, "--tolerance-seconds", 0.0)?;
    let tr: f64 = parse_flag(args, "--tolerance-ratio", 0.0)?;
    let seed: u64 = parse_flag(args, "--seed", 0)?;
    let policy_name = flag(args, "--policy").unwrap_or_else(|| "epsilon-greedy".to_string());
    let tolerance = Tolerance::new(tr, ts).map_err(|e| e.to_string())?;

    let mut rng = StdRng::seed_from_u64(seed);
    let cfg = ExperimentConfig::paper()
        .with_rounds(rounds)
        .with_sims(sims)
        .with_seed(seed)
        .with_batch(batch)
        .with_tolerance(tolerance);
    let result = match app_name.as_str() {
        "cycles" => {
            let model = cycles::CyclesModel::paper();
            let trace = cycles::generate_paper_trace(&model, &mut rng);
            run_policy_experiment(&trace, &model, &cfg, &policy_name)?
        }
        "bp3d" => {
            let model = bp3d::Bp3dModel::paper();
            let trace = bp3d::generate_paper_trace(&model, &mut rng);
            run_policy_experiment(&trace, &model, &cfg, &policy_name)?
        }
        "matmul" => {
            let model = matmul::MatMulModel::paper();
            let trace = matmul::generate_paper_trace(&model, &mut rng);
            run_policy_experiment(&trace, &model, &cfg, &policy_name)?
        }
        other => return Err(format!("unknown application {other:?}")),
    };

    if let Some(path) = flag(args, "--export") {
        let df = banditware::eval::export::result_to_frame(&result);
        csv::write_path(&df, &path).map_err(|e| e.to_string())?;
    }
    Ok(format!(
        "{app_name}: {rounds} rounds x {sims} sims\n\
         full-fit RMSE {:.3} | final RMSE {:.3} | tail accuracy {:.3} (random {:.3})\n\
         final cumulative regret {:.1}s",
        result.full_fit_rmse,
        result.series.tail_rmse(5),
        result.series.tail_accuracy(5),
        result.random_accuracy,
        result.series.regret_mean.last().copied().unwrap_or(0.0),
    ))
}

fn make_bandit(a: &App, policy_name: &str) -> Result<BanditWare<Box<dyn Policy>>, String> {
    let specs = specs_from_hardware(&a.hardware);
    let policy = build_policy(policy_name, specs.clone(), a.features.len(), &BanditConfig::paper())
        .map_err(|e| e.to_string())?;
    Ok(BanditWare::new(policy, specs))
}

fn cmd_train(args: &[String]) -> Result<String, String> {
    let a = app(args.first().ok_or("train: missing application")?)?;
    let trace_path = args.get(1).ok_or("train: missing trace CSV path")?;
    let out_path = args.get(2).ok_or("train: missing history output path")?;
    let df = csv::read_path(trace_path).map_err(|e| e.to_string())?;
    let trace = Trace::from_frame(a.name, &df, a.hardware.clone()).map_err(|e| e.to_string())?;
    if trace.n_features() != a.features.len() {
        return Err(format!(
            "trace has {} features, {} expects {}",
            trace.n_features(),
            a.name,
            a.features.len()
        ));
    }
    let policy_name = flag(args, "--policy").unwrap_or_else(|| "epsilon-greedy".to_string());
    let mut bandit = make_bandit(&a, &policy_name)?;
    for row in &trace.rows {
        bandit
            .record_external(row.hardware, &row.features, row.runtime)
            .map_err(|e| e.to_string())?;
    }
    let file = std::fs::File::create(out_path).map_err(|e| e.to_string())?;
    save_history(&bandit, file).map_err(|e| e.to_string())?;
    Ok(format!(
        "trained {policy_name} on {} runs; pulls per hardware {:?}; checkpoint written to {out_path}",
        trace.len(),
        bandit.pulls()
    ))
}

fn parse_features(feature_str: &str) -> Result<Vec<f64>, String> {
    feature_str
        .split(',')
        .map(|f| f.trim().parse::<f64>().map_err(|e| format!("bad feature {f:?}: {e}")))
        .collect()
}

fn cmd_recommend(args: &[String]) -> Result<String, String> {
    let a = app(args.first().ok_or("recommend: missing application")?)?;
    let history_path = args.get(1).ok_or("recommend: missing history path")?;
    let feature_str = flag(args, "--features").ok_or("recommend: missing --features")?;
    let features = parse_features(&feature_str)?;
    if features.len() != a.features.len() {
        return Err(format!(
            "{} expects {} features ({}), got {}",
            a.name,
            a.features.len(),
            a.features.join(","),
            features.len()
        ));
    }
    let policy_name = flag(args, "--policy").unwrap_or_else(|| "epsilon-greedy".to_string());
    let file = std::fs::File::open(history_path).map_err(|e| e.to_string())?;
    // Any checkpoint version: v1/v2 replay into the named policy; a v3
    // snapshot restores its exact state (and must match the policy kind).
    let checkpoint = load_checkpoint(file).map_err(|e| e.to_string())?;
    let rounds = checkpoint.total_rounds();
    let mut bandit = make_bandit(&a, &policy_name)?;
    restore_checkpoint(&mut bandit, &checkpoint).map_err(|e| e.to_string())?;
    // Pure exploitation over the restored models: tolerant selection with
    // the paper's (zero) slack — works for any boxed policy.
    let preds = bandit.policy().predict_all(&features).map_err(|e| e.to_string())?;
    let costs: Vec<f64> = bandit.specs().iter().map(|s| s.resource_cost).collect();
    let arm = tolerant_select(&preds, &costs, BanditConfig::paper().tolerance)
        .map_err(|e| e.to_string())?;
    let hw = &a.hardware[arm];
    let predicted = preds[arm];
    Ok(format!(
        "recommendation: {hw}\npredicted runtime: {predicted:.1} s (from {rounds} historical \
         runs, policy {policy_name})"
    ))
}

/// Convert any checkpoint into a v3 statistics snapshot: load (replaying a
/// v1/v2 log if that's what arrived), optionally bound the retained tail,
/// and write the exact policy state. Restore cost of the output is O(m²)
/// no matter how long the input log was.
fn cmd_checkpoint(args: &[String]) -> Result<String, String> {
    let a = app(args.first().ok_or("checkpoint: missing application")?)?;
    let in_path = args.get(1).ok_or("checkpoint: missing input checkpoint path")?;
    let out_path = args.get(2).ok_or("checkpoint: missing output path")?;
    let policy_name = flag(args, "--policy").unwrap_or_else(|| "epsilon-greedy".to_string());
    let tail: usize = parse_flag(args, "--tail", 64)?;

    let file = std::fs::File::open(in_path).map_err(|e| e.to_string())?;
    let checkpoint = load_checkpoint(file).map_err(|e| e.to_string())?;
    let mut bandit = make_bandit(&a, &policy_name)?;
    bandit.set_retention(Retention::Tail(tail));
    restore_checkpoint(&mut bandit, &checkpoint).map_err(|e| e.to_string())?;
    let out = std::fs::File::create(out_path).map_err(|e| e.to_string())?;
    save_checkpoint(&bandit, out).map_err(|e| e.to_string())?;
    Ok(format!(
        "compacted {} rounds (+{} open tickets) of {policy_name} into a v3 stats snapshot \
         with a {}-round tail at {out_path}",
        bandit.rounds(),
        bandit.in_flight(),
        bandit.history().len()
    ))
}

/// Summarize any checkpoint without needing the policy configuration.
fn cmd_inspect(args: &[String]) -> Result<String, String> {
    let path = args.first().ok_or("inspect: missing checkpoint path")?;
    let file = std::fs::File::open(path).map_err(|e| e.to_string())?;
    let checkpoint = load_checkpoint(file).map_err(|e| e.to_string())?;
    Ok(match &checkpoint {
        Checkpoint::Replay(h) => format!(
            "{path}: observation log (v1/v2)\n  rounds: {}\n  open tickets: {}\n  \
             next ticket id: {}\n  restore: replay, O(rounds)",
            h.observations.len(),
            h.open_rounds.len(),
            h.next_ticket
        ),
        Checkpoint::Stats(s) => format!(
            "{path}: statistics snapshot (v3)\n  policy kind: {}\n  rounds: {} (tail retained: \
             {})\n  open tickets: {}\n  next ticket id: {}\n  restore: state install, O(m²) — \
             independent of history length",
            s.policy.kind(),
            s.total_rounds,
            s.tail.len(),
            s.open_rounds.len(),
            s.next_ticket
        ),
    })
}

/// Fold every tenant's WAL segments in a serving directory into v3
/// snapshots (the offline counterpart of `Engine::compact`).
fn cmd_compact(args: &[String]) -> Result<String, String> {
    let a = app(args.first().ok_or("compact: missing application")?)?;
    let dir = args.get(1).ok_or("compact: missing WAL directory")?;
    let policy_name = flag(args, "--policy").unwrap_or_else(|| "epsilon-greedy".to_string());
    let seed: u64 = parse_flag(args, "--seed", 0)?;
    let specs = specs_from_hardware(&a.hardware);
    let builder = Engine::builder(specs, a.features.len())
        .policy(policy_name.clone())
        .config(BanditConfig::paper().with_seed(seed));
    let (engine, report) =
        Engine::open(builder, WalOptions::new(dir)).map_err(|e| e.to_string())?;
    let keys = engine.compact_all().map_err(|e| e.to_string())?;
    Ok(format!(
        "recovered {} tenant(s) from {dir} ({} snapshot(s) loaded, {} WAL record(s) replayed), \
         compacted {} key(s): {:?}",
        report.keys.len(),
        report.snapshots_loaded,
        report.replayed,
        keys.len(),
        keys
    ))
}

fn serving_builder(a: &App, args: &[String]) -> Result<banditware::serve::EngineBuilder, String> {
    let policy_name = flag(args, "--policy").unwrap_or_else(|| "epsilon-greedy".to_string());
    let seed: u64 = parse_flag(args, "--seed", 0)?;
    let specs = specs_from_hardware(&a.hardware);
    Ok(Engine::builder(specs, a.features.len())
        .policy(policy_name)
        .config(BanditConfig::paper().with_seed(seed)))
}

/// Ship a primary WAL directory's durable state (snapshots + sealed,
/// checksummed segments, as advertised by each key's MANIFEST) into a
/// follower directory. `--seal` rotates each active segment first, so
/// everything recorded so far is shipped.
fn cmd_replicate(args: &[String]) -> Result<String, String> {
    let a = app(args.first().ok_or("replicate: missing application")?)?;
    let primary_dir = args.get(1).ok_or("replicate: missing primary WAL directory")?;
    let follower_dir = args.get(2).ok_or("replicate: missing follower directory")?;
    let seal = args.iter().any(|arg| arg == "--seal");
    let builder = serving_builder(&a, args)?;
    let (primary, recovery) =
        Engine::open(builder, WalOptions::new(primary_dir)).map_err(|e| e.to_string())?;
    let replicator = Replicator::new(FsTransport::new(follower_dir));
    let report = replicator.ship_all(&primary, seal).map_err(|e| e.to_string())?;
    Ok(format!(
        "replicated {} tenant(s) from {primary_dir} to {follower_dir}: {} snapshot(s) + {} \
         segment(s), {} byte(s){}; primary watermarks {:?}",
        report.keys.len(),
        report.snapshots_shipped,
        report.segments_shipped,
        report.bytes_shipped,
        if seal { " (active segments sealed)" } else { "" },
        recovery.watermarks,
    ))
}

/// Fail a follower directory over: apply everything shipped, then promote
/// it into a full serving engine through the standard recovery path.
fn cmd_promote(args: &[String]) -> Result<String, String> {
    let a = app(args.first().ok_or("promote: missing application")?)?;
    let follower_dir = args.get(1).ok_or("promote: missing follower directory")?;
    let builder = serving_builder(&a, args)?;
    let (follower, catch_up) =
        FollowerEngine::open(builder, WalOptions::new(follower_dir)).map_err(|e| e.to_string())?;
    if !catch_up.quarantined.is_empty() {
        return Err(format!(
            "promote: refusing to fail over with quarantined files (re-replicate first): {:?}",
            catch_up.quarantined
        ));
    }
    let (promoted, recovery) = follower.promote().map_err(|e| e.to_string())?;
    let stats = promoted.stats();
    Ok(format!(
        "promoted {follower_dir}: {} tenant(s), {} recorded round(s), {} open ticket(s); \
         watermarks {:?}",
        stats.keys, stats.recorded_rounds, stats.in_flight, recovery.watermarks,
    ))
}

/// Expose an engine over TCP. Prints the bound address up front (port 0
/// resolves to a real ephemeral port), then serves until stdin closes —
/// the idiom that lets a parent process or shell script own the lifetime
/// (`printf '' | banditware-cli serve …` runs one accept-less lifecycle).
fn cmd_serve(args: &[String]) -> Result<String, String> {
    let a = app(args.first().ok_or("serve: missing application")?)?;
    let addr = flag(args, "--addr").unwrap_or_else(|| "127.0.0.1:0".to_string());
    let window_us: u64 = parse_flag(args, "--window-us", 0)?;
    let policy_name = flag(args, "--policy").unwrap_or_else(|| "epsilon-greedy".to_string());
    let reactor_threads: usize = parse_flag(args, "--reactor-threads", 0)?;
    let engine =
        std::sync::Arc::new(serving_builder(&a, args)?.build().map_err(|e| format!("serve: {e}"))?);
    let config = ServerConfig::default()
        .with_batch_window(std::time::Duration::from_micros(window_us))
        .with_reactor_threads(reactor_threads);
    let loops = config.resolved_reactor_threads();
    let mut server = NetServer::bind(engine, addr.as_str(), config)
        .map_err(|e| format!("serve: cannot bind {addr}: {e}"))?;
    {
        use std::io::{BufRead as _, Write as _};
        println!(
            "serving {} on {} (policy {policy_name}, window {window_us} us, mode reactor x{loops}); \
             close stdin to stop",
            a.name,
            server.local_addr()
        );
        std::io::stdout().flush().ok();
        for line in std::io::stdin().lock().lines() {
            if line.is_err() {
                break;
            }
        }
    }
    server.shutdown();
    Ok(format!("{} server on {} stopped", a.name, server.local_addr()))
}

/// One-shot client for a running `serve` instance. Every failure — unable
/// to connect, transport damage, or a typed error from the server — comes
/// back as a clean diagnostic on stderr with a nonzero exit, never a panic.
fn cmd_call(args: &[String]) -> Result<String, String> {
    let addr = args.first().ok_or("call: missing server address")?;
    let action = args.get(1).ok_or("call: missing action (ping|recommend|record|checkpoint)")?;
    let mut client =
        NetClient::connect(addr.as_str()).map_err(|e| format!("call: cannot reach {addr}: {e}"))?;
    let key = flag(args, "--key").unwrap_or_else(|| "default".to_string());
    match action.as_str() {
        "ping" => {
            client.ping().map_err(|e| format!("call: {e}"))?;
            Ok(format!("pong from {addr}"))
        }
        "recommend" => {
            let feature_str =
                flag(args, "--features").ok_or("call recommend: missing --features")?;
            let features = parse_features(&feature_str)?;
            let rec = client.recommend(&key, &features).map_err(|e| format!("call: {e}"))?;
            Ok(format!(
                "ticket {}: {} (arm {}, cost {}) predicted {:.1} s{}",
                rec.ticket,
                rec.name,
                rec.arm,
                rec.resource_cost,
                rec.predicted_runtime,
                if rec.explored { " [explored]" } else { "" }
            ))
        }
        "record" => {
            let ticket: u64 = flag(args, "--ticket")
                .ok_or("call record: missing --ticket")?
                .parse()
                .map_err(|e| format!("bad --ticket: {e}"))?;
            let runtime: f64 = flag(args, "--runtime")
                .ok_or("call record: missing --runtime")?
                .parse()
                .map_err(|e| format!("bad --runtime: {e}"))?;
            client.record(&key, ticket, runtime).map_err(|e| format!("call: {e}"))?;
            Ok(format!("recorded {runtime} s against ticket {ticket} for key {key:?}"))
        }
        "checkpoint" => {
            let bytes = client.checkpoint(&key).map_err(|e| format!("call: {e}"))?;
            match flag(args, "--out") {
                Some(path) => {
                    std::fs::write(&path, &bytes)
                        .map_err(|e| format!("call checkpoint: cannot write {path}: {e}"))?;
                    Ok(format!(
                        "wrote {} checkpoint byte(s) for key {key:?} to {path}",
                        bytes.len()
                    ))
                }
                None => Ok(format!("checkpoint for key {key:?}: {} byte(s)", bytes.len())),
            }
        }
        other => Err(format!("call: unknown action {other:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| x.to_string()).collect()
    }

    fn tmp(name: &str) -> String {
        let dir = std::env::temp_dir().join("bw_cli_tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name).to_string_lossy().into_owned()
    }

    #[test]
    fn usage_errors() {
        assert!(run(&[]).is_err());
        assert!(run(&s(&["frobnicate"])).is_err());
        assert!(run(&s(&["generate"])).is_err());
        assert!(run(&s(&["generate", "nope", "/tmp/x.csv"])).is_err());
        assert!(run(&s(&["experiment", "llm"])).is_err());
        assert!(run(&s(&["recommend", "cycles", "/nonexistent"])).is_err());
    }

    #[test]
    fn generate_then_train_then_recommend() {
        let trace_path = tmp("cycles_trace.csv");
        let hist_path = tmp("cycles_history.txt");
        let out =
            run(&s(&["generate", "cycles", &trace_path, "--runs", "200", "--seed", "3"])).unwrap();
        assert!(out.contains("200 cycles runs"), "{out}");

        let out = run(&s(&["train", "cycles", &trace_path, &hist_path])).unwrap();
        assert!(out.contains("trained epsilon-greedy on 200 runs"), "{out}");

        // Large workflows should be recommended the big synthetic flavour
        // (H3 wins by hundreds of seconds at 480 tasks — robust to noise).
        let out = run(&s(&["recommend", "cycles", &hist_path, "--features", "480"])).unwrap();
        assert!(out.contains("H3"), "{out}");
        // Small workflows get a *cheaper* flavour than the 480-task one; the
        // exact arm at x=5 depends on extrapolated intercepts (the trace
        // covers 100–500 tasks), so assert the direction, not the identity.
        let out = run(&s(&["recommend", "cycles", &hist_path, "--features", "5"])).unwrap();
        assert!(
            out.contains("H0") || out.contains("H1") || out.contains("H2"),
            "small workflow routed below H3: {out}"
        );
    }

    #[test]
    fn policy_is_a_runtime_choice() {
        let trace_path = tmp("cycles_trace_pol.csv");
        let hist_path = tmp("cycles_history_pol.txt");
        run(&s(&["generate", "cycles", &trace_path, "--runs", "150", "--seed", "3"])).unwrap();
        // Train and query with a non-default policy — no recompilation.
        let out =
            run(&s(&["train", "cycles", &trace_path, &hist_path, "--policy", "linucb"])).unwrap();
        assert!(out.contains("trained linucb"), "{out}");
        let out = run(&s(&[
            "recommend",
            "cycles",
            &hist_path,
            "--features",
            "480",
            "--policy",
            "linucb",
        ]))
        .unwrap();
        assert!(out.contains("policy linucb"), "{out}");
        // The history format is policy-agnostic: the same checkpoint replays
        // into a different algorithm.
        let out = run(&s(&[
            "recommend",
            "cycles",
            &hist_path,
            "--features",
            "480",
            "--policy",
            "thompson",
        ]))
        .unwrap();
        assert!(out.contains("policy thompson"), "{out}");
        // Unknown policies fail with the name list.
        let err =
            run(&s(&["recommend", "cycles", &hist_path, "--features", "480", "--policy", "sarsa"]))
                .unwrap_err();
        assert!(err.contains("sarsa") && err.contains("linucb"), "{err}");
        let err =
            run(&s(&["experiment", "cycles", "--rounds", "5", "--sims", "1", "--policy", "x"]))
                .unwrap_err();
        assert!(err.contains("unknown policy"), "{err}");
    }

    #[test]
    fn experiment_with_policy_and_batch() {
        let out = run(&s(&[
            "experiment",
            "cycles",
            "--rounds",
            "8",
            "--sims",
            "2",
            "--batch",
            "4",
            "--policy",
            "ucb1",
        ]))
        .unwrap();
        assert!(out.contains("tail accuracy"), "{out}");
    }

    #[test]
    fn experiment_runs_and_exports() {
        let export = tmp("cycles_series.csv");
        let out = run(&s(&[
            "experiment",
            "cycles",
            "--rounds",
            "10",
            "--sims",
            "2",
            "--tolerance-seconds",
            "20",
            "--export",
            &export,
        ]))
        .unwrap();
        assert!(out.contains("tail accuracy"), "{out}");
        let df = csv::read_path(&export).unwrap();
        assert_eq!(df.n_rows(), 10);
        assert!(df.has_column("full_fit_rmse"));
    }

    #[test]
    fn recommend_validates_features() {
        let trace_path = tmp("mm_trace.csv");
        let hist_path = tmp("mm_history.txt");
        run(&s(&["generate", "matmul", &trace_path, "--runs", "70", "--seed", "1"])).unwrap();
        run(&s(&["train", "matmul", &trace_path, &hist_path])).unwrap();
        // matmul expects 4 features
        assert!(run(&s(&["recommend", "matmul", &hist_path, "--features", "5000"])).is_err());
        let out =
            run(&s(&["recommend", "matmul", &hist_path, "--features", "9000,0.1,-10,10"])).unwrap();
        assert!(out.contains("predicted runtime"), "{out}");
    }

    #[test]
    fn llm_generate_and_train() {
        let trace_path = tmp("llm_trace.csv");
        let hist_path = tmp("llm_history.txt");
        run(&s(&["generate", "llm", &trace_path, "--runs", "150", "--seed", "9"])).unwrap();
        let out = run(&s(&["train", "llm", &trace_path, &hist_path])).unwrap();
        assert!(out.contains("150 runs"), "{out}");
        let out = run(&s(&["recommend", "llm", &hist_path, "--features", "16000,800,4"])).unwrap();
        assert!(out.contains("gpus"), "heavy request should get a GPU flavour: {out}");
    }

    #[test]
    fn checkpoint_compacts_and_recommend_loads_v3() {
        let trace_path = tmp("cycles_trace_v3.csv");
        let hist_path = tmp("cycles_history_v3.txt");
        let v3_path = tmp("cycles_snapshot.v3");
        run(&s(&["generate", "cycles", &trace_path, "--runs", "300", "--seed", "3"])).unwrap();
        run(&s(&["train", "cycles", &trace_path, &hist_path])).unwrap();

        // Convert the replay log into a stats snapshot with a bounded tail.
        let out = run(&s(&["checkpoint", "cycles", &hist_path, &v3_path, "--tail", "16"])).unwrap();
        assert!(out.contains("300 rounds"), "{out}");
        assert!(out.contains("16-round tail"), "{out}");

        // The snapshot recommends identically to the full log.
        let from_log = run(&s(&["recommend", "cycles", &hist_path, "--features", "480"])).unwrap();
        let from_v3 = run(&s(&["recommend", "cycles", &v3_path, "--features", "480"])).unwrap();
        assert_eq!(
            from_log.lines().next().unwrap(),
            from_v3.lines().next().unwrap(),
            "log: {from_log}\nv3: {from_v3}"
        );
        assert!(from_v3.contains("300 historical runs"), "{from_v3}");

        // inspect reports both formats.
        let out = run(&s(&["inspect", &hist_path])).unwrap();
        assert!(out.contains("observation log") && out.contains("rounds: 300"), "{out}");
        let out = run(&s(&["inspect", &v3_path])).unwrap();
        assert!(out.contains("statistics snapshot"), "{out}");
        assert!(out.contains("epsilon") && out.contains("tail retained: 16"), "{out}");

        // A v3 snapshot only restores into its own policy kind.
        let err =
            run(&s(&["recommend", "cycles", &v3_path, "--features", "480", "--policy", "linucb"]))
                .unwrap_err();
        assert!(err.contains("linucb"), "{err}");
        // Usage errors.
        assert!(run(&s(&["checkpoint", "cycles", &hist_path])).is_err());
        assert!(run(&s(&["inspect"])).is_err());
        assert!(run(&s(&["inspect", "/nonexistent-checkpoint"])).is_err());
    }

    #[test]
    fn compact_folds_a_wal_directory() {
        use banditware::prelude::*;
        let dir = tmp("cli_wal_dir");
        let _ = std::fs::remove_dir_all(&dir);
        // Build a small WAL by serving a few rounds durably.
        let specs = specs_from_hardware(&synthetic_hardware());
        let n_features = 1;
        let builder = Engine::builder(specs, n_features);
        let (engine, _) = Engine::open(builder, WalOptions::new(&dir)).unwrap();
        for i in 0..12 {
            let (t, _) = engine.recommend("wf", &[100.0 + i as f64]).unwrap();
            engine.record("wf", t, 50.0 + i as f64).unwrap();
        }
        drop(engine);

        let out = run(&s(&["compact", "cycles", &dir])).unwrap();
        assert!(out.contains("recovered 1 tenant"), "{out}");
        assert!(out.contains("12 WAL record(s) replayed"), "{out}");
        assert!(out.contains("\"wf\""), "{out}");
        // The snapshot exists and the segments are gone.
        let key_dir = std::path::Path::new(&dir).join("kwf");
        assert!(key_dir.join("snapshot.v3").exists());
        assert_eq!(
            std::fs::read_dir(&key_dir)
                .unwrap()
                .filter(|e| e.as_ref().unwrap().file_name().to_string_lossy().starts_with("wal-"))
                .count(),
            0
        );
        // Idempotent: compacting again replays nothing.
        let out = run(&s(&["compact", "cycles", &dir])).unwrap();
        assert!(out.contains("1 snapshot(s) loaded, 0 WAL record(s) replayed"), "{out}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn replicate_then_promote_a_wal_directory() {
        use banditware::prelude::*;
        let primary = tmp("cli_repl_primary");
        let follower = tmp("cli_repl_follower");
        let _ = std::fs::remove_dir_all(&primary);
        let _ = std::fs::remove_dir_all(&follower);
        // Build a small primary WAL (same wiring the replicate command
        // reconstructs: cycles hardware, seed 0, epsilon-greedy).
        let specs = specs_from_hardware(&synthetic_hardware());
        let builder = Engine::builder(specs, 1).config(BanditConfig::paper().with_seed(0));
        let (engine, _) = Engine::open(builder, WalOptions::new(&primary)).unwrap();
        for i in 0..15 {
            let (t, _) = engine.recommend("wf", &[100.0 + i as f64]).unwrap();
            engine.record("wf", t, 50.0 + i as f64).unwrap();
        }
        drop(engine);

        let out = run(&s(&["replicate", "cycles", &primary, &follower, "--seal"])).unwrap();
        assert!(out.contains("replicated 1 tenant"), "{out}");
        assert!(out.contains("1 segment(s)"), "{out}");
        assert!(out.contains("(\"wf\", 15)"), "{out}");

        let out = run(&s(&["promote", "cycles", &follower])).unwrap();
        assert!(out.contains("15 recorded round(s)"), "{out}");
        assert!(out.contains("(\"wf\", 15)"), "{out}");

        // A corrupted shipped segment blocks promotion with a pointer at
        // re-replication instead of silently serving damaged state.
        let seg = std::path::Path::new(&follower).join("kwf").join("wal-1.log");
        let text = std::fs::read_to_string(&seg).unwrap();
        std::fs::write(&seg, text.replacen("50", "51", 1)).unwrap();
        let err = run(&s(&["promote", "cycles", &follower])).unwrap_err();
        assert!(err.contains("quarantined"), "{err}");
        // Re-replicating heals the quarantined file; promote succeeds again.
        let out = run(&s(&["replicate", "cycles", &primary, &follower])).unwrap();
        assert!(out.contains("1 segment(s)"), "re-ship: {out}");
        let out = run(&s(&["promote", "cycles", &follower])).unwrap();
        assert!(out.contains("15 recorded round(s)"), "{out}");

        assert!(run(&s(&["replicate", "cycles", &primary])).is_err(), "missing follower dir");
        assert!(run(&s(&["promote", "cycles"])).is_err(), "missing follower dir");
        let _ = std::fs::remove_dir_all(&primary);
        let _ = std::fs::remove_dir_all(&follower);
    }

    #[test]
    fn call_drives_a_live_server_over_tcp() {
        // An in-process server stands in for a `serve` invocation (same
        // engine wiring; `serve` itself blocks on stdin, exercised by the
        // network_serving example in CI).
        let a = app("cycles").unwrap();
        let specs = specs_from_hardware(&a.hardware);
        let engine = std::sync::Arc::new(Engine::builder(specs, a.features.len()).build().unwrap());
        let mut server = NetServer::bind(engine, "127.0.0.1:0", ServerConfig::default()).unwrap();
        let addr = server.local_addr().to_string();

        let out = run(&s(&["call", &addr, "ping"])).unwrap();
        assert!(out.contains("pong"), "{out}");

        let out =
            run(&s(&["call", &addr, "recommend", "--key", "wf", "--features", "480"])).unwrap();
        assert!(out.contains("ticket 0"), "{out}");

        let out = run(&s(&[
            "call",
            &addr,
            "record",
            "--key",
            "wf",
            "--ticket",
            "0",
            "--runtime",
            "123.5",
        ]))
        .unwrap();
        assert!(out.contains("recorded 123.5 s against ticket 0"), "{out}");

        let ckpt = tmp("net_call_ckpt.v3");
        let out = run(&s(&["call", &addr, "checkpoint", "--key", "wf", "--out", &ckpt])).unwrap();
        assert!(out.contains("checkpoint byte(s)"), "{out}");
        assert!(std::fs::metadata(&ckpt).unwrap().len() > 0);

        // Server-side rejections surface as clean Err diagnostics (main()
        // turns these into stderr + exit 2), never panics.
        let err =
            run(&s(&["call", &addr, "record", "--key", "wf", "--ticket", "999", "--runtime", "1"]))
                .unwrap_err();
        assert!(err.starts_with("call:"), "{err}");
        let err = run(&s(&["call", &addr, "recommend", "--key", "wf", "--features", "1,2,3"]))
            .unwrap_err();
        assert!(err.starts_with("call:"), "{err}");

        // Usage errors.
        assert!(run(&s(&["call", &addr])).is_err(), "missing action");
        assert!(run(&s(&["call", &addr, "frob"])).is_err(), "unknown action");
        assert!(run(&s(&["call", &addr, "recommend", "--key", "wf"])).is_err(), "no features");
        assert!(
            run(&s(&["call", &addr, "record", "--key", "wf", "--runtime", "1"])).is_err(),
            "no ticket"
        );
        server.shutdown();
    }

    #[test]
    fn call_connection_failure_is_a_clean_error() {
        // A port nothing listens on: the diagnostic names the address and
        // the command errors instead of panicking.
        let err = run(&s(&["call", "127.0.0.1:9", "ping"])).unwrap_err();
        assert!(err.contains("cannot reach 127.0.0.1:9"), "{err}");
        assert!(run(&s(&["call"])).is_err(), "missing address");
    }

    #[test]
    fn serve_validates_arguments() {
        assert!(run(&s(&["serve"])).is_err(), "missing application");
        assert!(run(&s(&["serve", "nope"])).is_err(), "unknown application");
        assert!(run(&s(&["serve", "cycles", "--policy", "sarsa"])).is_err(), "unknown policy");
        assert!(
            run(&s(&["serve", "cycles", "--addr", "256.0.0.1:0"])).is_err(),
            "unbindable address"
        );
    }

    #[test]
    fn flag_parsing() {
        let args = s(&["--runs", "42", "--seed", "7"]);
        assert_eq!(flag(&args, "--runs"), Some("42".into()));
        assert_eq!(flag(&args, "--none"), None);
        assert_eq!(parse_flag::<usize>(&args, "--runs", 1).unwrap(), 42);
        assert_eq!(parse_flag::<usize>(&args, "--none", 5).unwrap(), 5);
        let bad = s(&["--runs", "not-a-number"]);
        assert!(parse_flag::<usize>(&bad, "--runs", 1).is_err());
    }
}
