//! Benchmark self-test: every workload at smoke size.
//!
//! Checks that every metric `BENCHMARK.json` names is printed with its
//! unit (end-to-end metrics untraced, per-layer metrics traced), that the
//! quality figures, byte counts and allocation counts repeat exactly under
//! one seed, and that at least one of them changes under another seed.
//!
//! Run with `cargo test --release --manifest-path bwbench/Cargo.toml`.

use std::collections::BTreeMap;
use std::process::Command;

const WORKLOADS: [&str; 2] = ["paper-tenants", "wide-frames"];

/// Figures that must repeat bit for bit under one seed.
const EXACT_E2E: [&str; 2] = ["accuracy", "rmse_rel"];
const EXACT_LAYER: [&str; 5] = [
    "wal.bytes_per_round",
    "net.bytes_per_round",
    "net.server_allocs_per_round",
    "codec.allocs_per_request",
    "engine.allocs_per_call",
];

type Metrics = BTreeMap<String, (f64, String)>;

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json sits next to the benchmark's directory");
    let body = text.split(&format!("\"{section}\": [")).nth(1).expect("section present");
    let body = &body[..body.find(']').expect("section closes")];
    let field = |obj: &str, key: &str| {
        let rest = obj.split(&format!("\"{key}\": \"")).nth(1).expect("field present");
        rest[..rest.find('"').expect("string closes")].to_string()
    };
    body.split('{').skip(1).map(|obj| (field(obj, "name"), field(obj, "unit"))).collect()
}

/// Parse the result line the benchmark prints last.
fn parse(line: &str) -> (bool, Metrics) {
    let correct = line.contains("\"correct\": true");
    let body = line.split("\"metrics\": {").nth(1).expect("metrics object");
    let mut metrics = Metrics::new();
    for entry in body.split("}, ") {
        let name = entry.split('"').nth(1).expect("metric name");
        let value = entry.split("\"value\": ").nth(1).expect("value");
        let value: f64 =
            value[..value.find(',').expect("value ends")].parse().expect("numeric value");
        let unit = entry.split("\"unit\": \"").nth(1).expect("unit");
        metrics.insert(
            name.to_string(),
            (value, unit[..unit.find('"').expect("unit ends")].to_string()),
        );
    }
    (correct, metrics)
}

fn run(workload: &str, seed: u64, trace: bool) -> Metrics {
    let dir = std::path::PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("selftest-{workload}-{seed}-{trace}"));
    std::fs::create_dir_all(&dir).expect("scratch directory");
    let out = Command::new(env!("CARGO_BIN_EXE_bwbench"))
        .args(["--workload", workload, "--seed", &seed.to_string(), "--seconds", "1", "--smoke"])
        .args(["--trace", if trace { "1" } else { "0" }])
        .current_dir(&dir)
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{workload} seed {seed}: exit {:?}\n{stderr}", out.status);
    let (correct, metrics) = parse(stdout.lines().last().expect("a result line"));
    assert!(correct, "{workload} seed {seed}: incorrect\n{stderr}");
    metrics
}

fn check_workload(workload: &str) {
    for (trace, section, exact) in
        [(false, "end_to_end", &EXACT_E2E[..]), (true, "per_layer", &EXACT_LAYER[..])]
    {
        let a = run(workload, 7, trace);
        let b = run(workload, 7, trace);
        let c = run(workload, 8, trace);
        let want = declared(section);
        assert_eq!(a.len(), want.len(), "{workload} {section}: metric count");
        for (name, unit) in &want {
            let (_, got) = a.get(name).unwrap_or_else(|| panic!("{workload}: {name} missing"));
            assert_eq!(got, unit, "{workload}: {name} unit");
        }
        for name in exact {
            assert_eq!(
                a[*name].0.to_bits(),
                b[*name].0.to_bits(),
                "{workload}: {name} must repeat under one seed"
            );
        }
        assert!(
            exact.iter().any(|n| a[*n].0.to_bits() != c[*n].0.to_bits()),
            "{workload} {section}: nothing changed under another seed"
        );
    }
}

#[test]
fn paper_tenants() {
    check_workload(WORKLOADS[0]);
}

#[test]
fn wide_frames() {
    check_workload(WORKLOADS[1]);
}
