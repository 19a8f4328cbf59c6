//! BanditWare end-to-end benchmark.
//!
//! ```text
//! bwbench --workload <paper-tenants|wide-frames> --seed <n>
//!         --seconds <s> --trace <0|1> [--smoke]
//! ```
//!
//! Inputs are generated from `--seed` before any clock starts; the program
//! receives only the generated inputs. With `--trace 0` the run prints the
//! end-to-end metrics, with `--trace 1` the per-layer metrics of a traced
//! run and a layer-by-layer replay of the same input stream. The last line
//! of stdout is one JSON object: `correct`, `attempted`, `failed`,
//! `metrics`. Timing figures are scaled to a reference host speed by an
//! interleaved gauge (see `report::Gauge`); stderr logs them as measured
//! too. The process, server threads included, runs on one CPU (see
//! `pin`). Scratch files live under `.bench_work/` in the working
//! directory; the span file of a traced run is kept there.

mod alloc;
mod inproc;
mod ladder;
mod pin;
mod report;
mod scenario;
mod tenants;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// Workload names, as `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 2] = ["paper-tenants", "wide-frames"];

/// Command-line arguments.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Small inputs and sizes, for the self-test.
    pub smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args =
        Args { workload: String::new(), seed: 1, seconds: 10.0, trace: false, smoke: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--smoke" => args.smoke = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    Ok(args)
}

fn main() -> ExitCode {
    alloc::tag_bench();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: bwbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]"
            );
            return ExitCode::from(2);
        }
    };
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    match pin::to_one_cpu() {
        Some(cpu) => eprintln!("pinned to CPU {cpu} of {cores}"),
        None => eprintln!("warning: running unpinned on {cores} CPUs"),
    }
    let root = PathBuf::from(".bench_work");
    let work = root.join(format!("{}-{}-{}", args.workload, args.seed, std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("error: cannot create {}: {e}", work.display());
        return ExitCode::from(1);
    }
    let mut tracer = trace::Tracer::new(args.trace, 1 << 20);
    let mut ledger = report::Ledger::default();
    let mut metrics = report::Metrics::default();
    let run = match args.workload.as_str() {
        "paper-tenants" => tenants::run,
        _ => inproc::wide,
    };
    let result = run(&args, &work, &mut tracer, &mut metrics, &mut ledger);
    let _ = std::fs::remove_dir_all(&work);
    if let Err(e) =
        tracer.write_out(&root.join(format!("trace-{}-{}.tsv", args.workload, args.seed)))
    {
        eprintln!("warning: spans not written: {e}");
    }
    if let Err(e) = result {
        eprintln!("error: {e}");
        return ExitCode::from(1);
    }
    if report::emit(&mut ledger, &metrics) {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
