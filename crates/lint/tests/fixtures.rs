//! End-to-end scans over the fixture trees plus the self-hosting baseline.
//!
//! `tests/fixtures/bad/` seeds one violation per pass; `tests/fixtures/good/`
//! mirrors the same shapes with the sanctioned remedies (allow annotations,
//! a consistent lock order, a `SAFETY:` comment, a `timing-module` file
//! exemption) and must scan clean. The final test scans the real workspace
//! and asserts the zero-findings baseline the `ci.sh` gate depends on.

use std::path::{Path, PathBuf};

use banditware_lint::{Finding, Pass, Workspace};

fn fixture_root(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests").join("fixtures").join(name)
}

fn scan(name: &str) -> Vec<Finding> {
    Workspace::load(&fixture_root(name)).expect("fixture tree is readable").check()
}

#[test]
fn bad_fixture_trips_every_pass() {
    let findings = scan("bad");
    let hit = |pass: Pass, file: &str, needle: &str| {
        findings.iter().any(|f| f.pass == pass && f.file == file && f.message.contains(needle))
    };

    assert!(
        hit(Pass::NoPanic, "crates/linalg/src/lib.rs", "unwrap"),
        "no-panic missed the bare unwrap: {findings:?}"
    );
    assert!(
        hit(Pass::LockOrder, "crates/serve/src/lib.rs", "forbidden lock order"),
        "lock-order missed the appender -> stripe edge: {findings:?}"
    );
    assert!(
        hit(Pass::LockOrder, "crates/serve/src/lib.rs", "lock-order cycle"),
        "lock-order missed the stripe/appender cycle: {findings:?}"
    );
    assert!(
        hit(Pass::Determinism, "crates/serve/src/lib.rs", "iterates a HashMap"),
        "determinism missed the keys() iteration: {findings:?}"
    );
    assert!(
        hit(Pass::Determinism, "crates/core/src/lib.rs", "Instant::now"),
        "determinism missed the wall-clock read: {findings:?}"
    );
    assert!(
        hit(Pass::Determinism, "crates/linalg/src/lib.rs", "`target_feature`"),
        "determinism missed the target_feature twin: {findings:?}"
    );
    assert!(
        hit(Pass::Determinism, "crates/linalg/src/lib.rs", "`is_x86_feature_detected`"),
        "determinism missed the CPU-detection dispatch: {findings:?}"
    );
    assert!(
        hit(Pass::UnsafeAudit, "crates/core/src/lib.rs", "SAFETY:"),
        "unsafe-audit missed the unjustified unsafe fn: {findings:?}"
    );
}

#[test]
fn good_fixture_scans_clean() {
    let findings = scan("good");
    assert!(findings.is_empty(), "good fixture should be silent: {findings:?}");
}

#[test]
fn workspace_self_scan_has_zero_findings() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/lint sits two levels under the workspace root")
        .to_path_buf();
    let ws = Workspace::load(&root).expect("workspace sources are readable");
    assert!(ws.files.len() > 50, "self-scan found only {} files", ws.files.len());
    let findings = ws.check();
    assert!(findings.is_empty(), "workspace baseline regressed: {findings:?}");
    // `linalg`'s one unsafe site is the kernel dispatch, justified by the
    // CPU-detection check it rests on.
    let inventory = banditware_lint::unsafety::check(&ws).inventory;
    let linalg: Vec<_> =
        inventory.iter().filter(|s| s.file.starts_with("crates/linalg/")).collect();
    assert_eq!(linalg.len(), 1, "linalg unsafe sites: {linalg:?}");
    assert_eq!(linalg[0].file, "crates/linalg/src/simd.rs");
    assert!(
        linalg[0].justification.contains("is_x86_feature_detected"),
        "dispatch site justification: {:?}",
        linalg[0].justification
    );
    // `serve`'s one unsafe site is the CRC-32 dispatch into the carry-less
    // multiply body, justified the same way.
    let serve: Vec<_> = inventory.iter().filter(|s| s.file.starts_with("crates/serve/")).collect();
    assert_eq!(serve.len(), 1, "serve unsafe sites: {serve:?}");
    assert_eq!(serve[0].file, "crates/serve/src/crc.rs");
    assert!(
        serve[0].justification.contains("is_x86_feature_detected"),
        "CRC dispatch site justification: {:?}",
        serve[0].justification
    );
}
