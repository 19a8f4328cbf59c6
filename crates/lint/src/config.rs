//! The workspace-specific policy: which paths each pass covers and which
//! lock orderings are forbidden.
//!
//! Everything here is data, not mechanism — the passes themselves are
//! generic over any workspace shaped like this one. Paths are
//! workspace-relative with `/` separators; an entry ending in `/` covers
//! the whole directory.

/// Hot-path modules where panicking constructs are forbidden (pass 1).
///
/// These are the modules on the serving request path: a panic here takes
/// down a serving thread (poisoning its stripe) or the reactor loop. The
/// lint crate polices itself — it runs in CI, and a panicking linter is a
/// broken gate.
pub const NO_PANIC_PATHS: &[&str] = &[
    "crates/linalg/src/",
    "crates/core/src/bandit.rs",
    "crates/core/src/tickets.rs",
    "crates/core/src/epsilon.rs",
    "crates/core/src/frame.rs",
    "crates/core/src/arm.rs",
    "crates/serve/src/engine.rs",
    "crates/serve/src/wal.rs",
    "crates/net/src/batch.rs",
    "crates/net/src/conn.rs",
    "crates/net/src/reactor.rs",
    "crates/net/src/server.rs",
    "crates/lint/src/",
];

/// Crates whose output streams are bitwise-pinned (pass 3): golden
/// determinism suites, WAL byte equivalence, and replication fingerprints
/// all depend on these never observing nondeterministic iteration order or
/// wall clocks.
pub const PINNED_PATHS: &[&str] =
    &["crates/core/src/", "crates/linalg/src/", "crates/serve/src/", "crates/net/src/"];

/// Canonical names for lock classes whose derived name is not the one the
/// architecture docs use: `(crate dir, derived, canonical)`.
pub const LOCK_CLASS_RENAMES: &[(&str, &str, &str)] = &[
    // `stripes: Vec<Stripe>` / `fn stripe(..) -> &Stripe` — the shard lock.
    ("crates/serve", "Stripe", "stripe"),
    // `wal: &Arc<Mutex<KeyWal>>` (DurableEngine::lock_wal) — the appender.
    ("crates/serve", "KeyWal", "appender"),
];

/// A lock-order edge that must never appear, even acyclically:
/// `(crate dir, held class, acquired class, why)`.
pub const FORBIDDEN_EDGES: &[(&str, &str, &str, &str)] = &[(
    "crates/serve",
    "appender",
    "stripe",
    "the record path takes stripe -> appender; acquiring a stripe (shard) lock while holding a \
     WAL appender lock closes a deadlock cycle",
)];

/// Does `rel` (workspace-relative path) fall under any of `paths`?
pub fn path_matches(rel: &str, paths: &[&str]) -> bool {
    paths.iter().any(|p| {
        if let Some(dir) = p.strip_suffix('/') {
            rel.starts_with(dir) && rel.len() > dir.len() && rel.as_bytes()[dir.len()] == b'/'
        } else {
            rel == *p
        }
    })
}

/// The crate directory (`crates/<name>`) a workspace-relative path belongs
/// to, or `"."` for the root crate's `src/`.
pub fn crate_dir(rel: &str) -> &str {
    if let Some(rest) = rel.strip_prefix("crates/") {
        if let Some(slash) = rest.find('/') {
            return &rel[..("crates/".len() + slash)];
        }
    }
    "."
}
