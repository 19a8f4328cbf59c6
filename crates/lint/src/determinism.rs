//! Pass 3: bitwise-determinism hygiene in pinned crates.
//!
//! The golden determinism suites, WAL byte-equivalence tests, and
//! replication fingerprints all assume the crates in
//! [`crate::config::PINNED_PATHS`] produce identical byte streams across
//! runs. Two things silently break that:
//!
//! * **Iterating a `HashMap`/`HashSet`** — `RandomState` hashing makes the
//!   order differ per process, so any iteration whose order can reach an
//!   output stream is a replay hazard. The pass tracks which identifiers
//!   are hash-typed (declarations, guard bindings, hash-returning helpers)
//!   and flags order-exposing method calls and direct `for ... in` loops on
//!   them.
//! * **Reading wall clocks** — `Instant::now`/`SystemTime` values must not
//!   feed pinned state. Files whose job *is* timing opt out with
//!   `// lint: timing-module -- <justification>`; individual sites use
//!   `// lint: allow(determinism) -- <justification>`.
//! * **Host-dependent code paths** — `#[target_feature]` and the
//!   `is_*_feature_detected!` macros (`is_x86_feature_detected!`,
//!   `is_aarch64_feature_detected!`, ...) make what runs depend on the CPU, so the
//!   same input can take different code on two hosts. Every such site must
//!   carry `// lint: allow(determinism) -- <why>` (there is no file-level
//!   opt-out), which keeps them in one audited dispatch seam whose paths are
//!   tested bitwise equal.

use crate::config::{crate_dir, path_matches, PINNED_PATHS};
use crate::lexer::TokKind;
use crate::symbols;
use crate::{Finding, Pass, SourceFile, Workspace};
use std::collections::{BTreeMap, BTreeSet};

/// Methods that expose a hash collection's iteration order.
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "into_iter",
    "into_keys",
    "into_values",
    "retain",
];

/// Run the pass over every pinned file in the workspace.
pub fn check(ws: &Workspace) -> Vec<Finding> {
    let mut findings = Vec::new();
    // Group files by crate so field/helper names resolve crate-wide.
    let mut by_crate: BTreeMap<&str, Vec<&SourceFile>> = BTreeMap::new();
    for file in &ws.files {
        by_crate.entry(crate_dir(&file.rel)).or_default().push(file);
    }
    for files in by_crate.values() {
        if !files.iter().any(|f| path_matches(&f.rel, PINNED_PATHS)) {
            continue;
        }
        check_crate(files, &mut findings);
    }
    findings
}

/// How an identifier relates to hash collections.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum HashKind {
    /// The value *is* a `HashMap`/`HashSet` (iterating it is order-random).
    Hash,
    /// A sequence of hash collections (`Vec<Stripe>`): iterating the
    /// sequence is deterministic, but each *element* is a hash collection.
    SeqOfHash,
}

fn classify_window(
    tokens: &[crate::lexer::Token],
    window: (usize, usize),
    hash_aliases: &BTreeSet<String>,
) -> Option<HashKind> {
    let mut seq_outer = false;
    for t in &tokens[window.0..window.1] {
        if t.kind != TokKind::Ident {
            continue;
        }
        if t.text == "Vec" || t.text == "VecDeque" {
            seq_outer = true;
        } else if t.text == "HashMap" || t.text == "HashSet" || hash_aliases.contains(&t.text) {
            return Some(if seq_outer { HashKind::SeqOfHash } else { HashKind::Hash });
        }
    }
    None
}

fn check_crate(files: &[&SourceFile], findings: &mut Vec<Finding>) {
    let names = symbols::crate_names(files);

    // Helpers whose return type carries a hash collection (directly or via
    // an alias / a guard over one): calling them yields hash-ordered data.
    let mut hash_fns: BTreeMap<String, HashKind> = BTreeMap::new();
    for file in files {
        for def in symbols::fn_defs(file, 0) {
            let tokens = &file.lexed.tokens;
            if let Some(w) = symbols::return_window(tokens, def.sig) {
                if let Some(kind) = classify_window(tokens, w, &names.hash_aliases) {
                    hash_fns.insert(def.name, kind);
                }
            }
        }
    }

    // Hash-typed identifiers are scoped per file (fields are used in the
    // file that declares them here; crate-wide sets let an unrelated
    // `keys` in one file poison a `Vec<String> keys` in another).
    let debug = std::env::var_os("BANDITWARE_LINT_DEBUG").is_some();
    for file in files {
        if !path_matches(&file.rel, PINNED_PATHS) {
            continue;
        }
        let mut hash_idents: BTreeMap<String, HashKind> = BTreeMap::new();
        for decl in symbols::decls(file) {
            if let Some(kind) =
                classify_window(&file.lexed.tokens, decl.window, &names.hash_aliases)
            {
                if debug && !hash_idents.contains_key(&decl.name) {
                    let line = file.lexed.tokens[decl.ident_tok].line;
                    eprintln!("lint-debug: {kind:?} decl `{}` at {}:{}", decl.name, file.rel, line);
                }
                // First declaration wins: the field/`let` type annotation
                // precedes any struct-literal re-mention of the same name.
                hash_idents.entry(decl.name).or_insert(kind);
            }
        }
        // Propagate through simple `let NAME = ...;` / `for NAME in ...`
        // bindings whose right-hand side mentions a hash ident or hash-
        // returning helper (covers lock-guard bindings over hash maps).
        for _ in 0..2 {
            propagate_bindings(file, &mut hash_idents, &hash_fns);
        }
        check_file(file, &hash_idents, &hash_fns, findings);
    }
}

/// Add `let`/`for` binding names whose initializer mentions a hash source.
/// A `let` binding inherits the source's kind (`let map = stripe.read()?`
/// stays `Hash`); a `for` binding over a sequence-of-hash binds the
/// *element* as `Hash`, while iterating a plain hash map binds nothing
/// (the elements are keys/values, not collections).
fn propagate_bindings(
    file: &SourceFile,
    hash_idents: &mut BTreeMap<String, HashKind>,
    hash_fns: &BTreeMap<String, HashKind>,
) {
    let tokens = &file.lexed.tokens;
    for (i, t) in file.active_tokens() {
        let (binding_at, stop): (usize, char) = if t.is_ident("let") {
            // Skip `if let` / `while let` (pattern bindings over options).
            if i > 0 && (tokens[i - 1].is_ident("if") || tokens[i - 1].is_ident("while")) {
                continue;
            }
            (i + 1, ';')
        } else if t.is_ident("for") {
            (i + 1, '{')
        } else {
            continue;
        };
        let mut b = binding_at;
        if tokens.get(b).is_some_and(|t| t.is_ident("mut")) {
            b += 1;
        }
        let Some(name_tok) = tokens.get(b) else { continue };
        if name_tok.kind != TokKind::Ident {
            continue; // tuple/struct pattern: too coarse to track
        }
        // An explicitly annotated `let keys: Vec<String> = ...` was already
        // classified by the declaration scan — don't let the initializer
        // re-mark a sequence-typed binding as hash.
        if tokens.get(b + 1).is_some_and(|t| t.is_punct(':'))
            && !tokens.get(b + 2).is_some_and(|t| t.is_punct(':'))
        {
            continue;
        }
        // Window: from past the binding to the statement terminator at
        // bracket depth 0.
        let mut depth = 0i32;
        let mut k = b + 1;
        let mut source: Option<HashKind> = None;
        while k < tokens.len() && source.is_none() {
            let t = &tokens[k];
            if t.is_punct('(') || t.is_punct('[') {
                depth += 1;
            } else if t.is_punct(')') || t.is_punct(']') {
                depth -= 1;
            } else if depth == 0 && t.is_punct(stop) {
                break;
            } else if depth <= 0 && (t.is_punct(';') || t.is_punct('{') || t.is_punct('}')) {
                break;
            } else if t.kind == TokKind::Ident {
                source = hash_idents.get(&t.text).or_else(|| hash_fns.get(&t.text)).copied();
            }
            k += 1;
        }
        let bound = match (stop, source) {
            // `let` inherits the source kind.
            (';', Some(kind)) => Some(kind),
            // `for` over a sequence-of-hash yields hash elements; over a
            // hash map it yields keys/values, which aren't collections.
            ('{', Some(HashKind::SeqOfHash)) => Some(HashKind::Hash),
            _ => None,
        };
        if let Some(kind) = bound {
            if std::env::var_os("BANDITWARE_LINT_DEBUG").is_some()
                && !hash_idents.contains_key(&name_tok.text)
            {
                eprintln!(
                    "lint-debug: {kind:?} binding `{}` at {}:{}",
                    name_tok.text, file.rel, name_tok.line
                );
            }
            hash_idents.insert(name_tok.text.clone(), kind);
        }
    }
}

fn check_file(
    file: &SourceFile,
    hash_idents: &BTreeMap<String, HashKind>,
    hash_fns: &BTreeMap<String, HashKind>,
    findings: &mut Vec<Finding>,
) {
    let tokens = &file.lexed.tokens;
    let mut report = |line: u32, message: String, findings: &mut Vec<Finding>| {
        if !file.allowed(Pass::Determinism, line) {
            findings.push(Finding {
                file: file.rel.clone(),
                line,
                pass: Pass::Determinism,
                message,
            });
        }
    };
    for (i, t) in file.active_tokens() {
        if t.kind != TokKind::Ident {
            continue;
        }
        let name = t.text.as_str();
        // Order-exposing method on a hash-typed receiver.
        if ITER_METHODS.contains(&name)
            && i >= 1
            && tokens[i - 1].is_punct('.')
            && tokens.get(i + 1).is_some_and(|n| n.is_punct('('))
        {
            if let Some(base) = symbols::receiver_base(tokens, i - 1) {
                let base_name = &tokens[base].text;
                let kind = hash_idents.get(base_name).or_else(|| hash_fns.get(base_name));
                if kind == Some(&HashKind::Hash) {
                    report(
                        t.line,
                        format!(
                            "`{base_name}.{name}()` iterates a HashMap/HashSet: the order is \
                             per-process random and must not reach a pinned output stream \
                             (sort first, switch to BTreeMap, or justify with \
                             `lint: allow(determinism)`)"
                        ),
                        findings,
                    );
                }
            }
        }
        // Direct `for ... in <hash>` loop (IntoIterator on the map itself).
        if t.is_ident("for") {
            check_for_header(file, i, hash_idents, &mut report, findings);
        }
        // Host-dependent code paths (not exempted by `timing-module`).
        let detection = name.starts_with("is_") && name.ends_with("_feature_detected");
        if name == "target_feature"
            || (detection && tokens.get(i + 1).is_some_and(|n| n.is_punct('!')))
        {
            report(
                t.line,
                format!(
                    "`{name}` in a pinned crate selects code by host CPU: keep it in the one \
                     dispatch seam whose paths are tested bitwise equal, and justify the site \
                     with `lint: allow(determinism)`"
                ),
                findings,
            );
        }
        // Wall clocks.
        if file.timing_module {
            continue;
        }
        if name == "Instant"
            && tokens.get(i + 1).is_some_and(|n| n.is_punct(':'))
            && tokens.get(i + 2).is_some_and(|n| n.is_punct(':'))
            && tokens.get(i + 3).is_some_and(|n| n.is_ident("now"))
        {
            report(
                t.line,
                "`Instant::now()` in a pinned crate: wall-clock reads must stay out of \
                 replayable state (annotate the file `lint: timing-module` or the site \
                 `lint: allow(determinism)`)"
                    .to_string(),
                findings,
            );
        } else if name == "SystemTime" {
            // Imports are fine; uses are not.
            let stmt = symbols::stmt_start(tokens, i);
            if !tokens.get(stmt).is_some_and(|t| t.is_ident("use")) {
                report(
                    t.line,
                    "`SystemTime` in a pinned crate: wall-clock values must stay out of \
                     replayable state"
                        .to_string(),
                    findings,
                );
            }
        }
    }
}

fn check_for_header(
    file: &SourceFile,
    for_idx: usize,
    hash_idents: &BTreeMap<String, HashKind>,
    report: &mut impl FnMut(u32, String, &mut Vec<Finding>),
    findings: &mut Vec<Finding>,
) {
    let tokens = &file.lexed.tokens;
    // Find the `in` keyword at bracket depth 0, then scan the iterated
    // expression up to the loop `{`.
    let mut depth = 0i32;
    let mut k = for_idx + 1;
    let mut in_at = None;
    while k < tokens.len() {
        let t = &tokens[k];
        if t.is_punct('(') || t.is_punct('[') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') {
            depth -= 1;
        } else if depth == 0 && t.is_ident("in") {
            in_at = Some(k);
            break;
        } else if t.is_punct('{') || t.is_punct(';') {
            return; // not a for-loop header after all
        }
        k += 1;
    }
    let Some(in_at) = in_at else { return };
    let mut depth = 0i32;
    let mut k = in_at + 1;
    while k < tokens.len() {
        let t = &tokens[k];
        if t.is_punct('(') || t.is_punct('[') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') {
            depth -= 1;
        } else if depth == 0 && t.is_punct('{') {
            return;
        } else if t.kind == TokKind::Ident && hash_idents.get(&t.text) == Some(&HashKind::Hash) {
            // `map.len()`-style uses continue with a `.` and are judged by
            // the method rule; a bare map here is iterated directly.
            if !tokens.get(k + 1).is_some_and(|n| n.is_punct('.')) {
                report(
                    t.line,
                    format!(
                        "`for ... in` over hash collection `{}`: iteration order is \
                         per-process random",
                        t.text
                    ),
                    findings,
                );
                return;
            }
        }
        k += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SourceFile;

    fn run(rel: &str, src: &str) -> Vec<Finding> {
        let (file, _) = SourceFile::parse(rel.to_string(), src);
        let mut findings = Vec::new();
        check_crate(&[&file], &mut findings);
        findings
    }

    #[test]
    fn flags_hash_iteration_methods() {
        let src = "struct S { index: HashMap<String, u32> }\nimpl S { fn f(&self) -> Vec<String> { self.index.keys().cloned().collect() } }\n";
        let findings = run("crates/core/src/x.rs", src);
        assert_eq!(findings.len(), 1);
        assert!(findings[0].message.contains("index.keys()"));
    }

    #[test]
    fn flags_direct_for_loop_and_alias() {
        let src = "type WalMap = HashMap<String, u32>;\nfn f(wals: &WalMap) { for (k, v) in wals { use_it(k, v); } }\n";
        let findings = run("crates/serve/src/x.rs", src);
        assert_eq!(findings.len(), 1);
        assert!(findings[0].message.contains("for ... in"));
    }

    #[test]
    fn guard_binding_propagates() {
        let src = "type WalMap = HashMap<String, u32>;\nstruct S { wals: RwLock<WalMap> }\nimpl S { fn f(&self) { let map = self.wals.read().ok(); map.keys(); } }\n";
        let findings = run("crates/serve/src/x.rs", src);
        assert_eq!(findings.len(), 1, "{findings:?}");
    }

    #[test]
    fn vec_iteration_is_fine() {
        let src = "fn f(items: &Vec<u32>) -> u32 { items.iter().sum() }\nfn g(s: &[u32]) { for x in s { use_it(x); } }\n";
        let findings = run("crates/core/src/x.rs", src);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn wall_clocks_flagged_unless_timing_module() {
        let src = "use std::time::SystemTime;\nfn f() { let t = Instant::now(); }\nfn g() -> SystemTime { SystemTime::now() }\n";
        let findings = run("crates/net/src/x.rs", src);
        // Instant::now once; SystemTime twice (return type + body), the
        // `use` line is exempt.
        assert_eq!(findings.len(), 3, "{findings:?}");
        let timing = format!("// lint: timing-module -- batch pacing\n{src}");
        let findings = run("crates/net/src/x.rs", &timing);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn allow_suppresses_site() {
        let src = "struct S { m: HashMap<u32, u32> }\nimpl S { fn f(&self) -> usize {\n    // lint: allow(determinism) -- commutative sum\n    self.m.values().map(|v| *v as usize).sum()\n} }\n";
        let findings = run("crates/core/src/x.rs", src);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn host_dispatch_flagged_unless_allowed() {
        let src = "#[target_feature(enable = \"avx2\")]\nfn twin() {}\nfn pick() -> bool { is_x86_feature_detected!(\"avx2\") }\nfn is_x86_feature_detected() {}\nfn arm() -> bool { std::arch::is_aarch64_feature_detected!(\"neon\") }\n";
        let findings = run("crates/linalg/src/x.rs", src);
        // The attribute and both macro calls (any architecture); a plain fn
        // of that name is not a detection.
        assert_eq!(findings.len(), 3, "{findings:?}");
        assert!(findings.iter().any(|f| f.message.contains("is_aarch64_feature_detected")));
        // A timing-module opt-out does not cover them.
        let timing = format!("// lint: timing-module -- pacing\n{src}");
        assert_eq!(run("crates/linalg/src/x.rs", &timing).len(), 3);
        let allowed = "// lint: allow(determinism) -- bitwise-equal twin\n#[target_feature(enable = \"avx2\")]\nfn twin() {}\nfn pick() -> bool {\n    // lint: allow(determinism) -- the dispatch seam\n    is_x86_feature_detected!(\"avx2\")\n}\n";
        let findings = run("crates/linalg/src/x.rs", allowed);
        assert!(findings.is_empty(), "{findings:?}");
        assert!(run("crates/bench/src/x.rs", src).is_empty());
    }

    #[test]
    fn unpinned_crates_are_skipped() {
        let src = "struct S { m: HashMap<u32, u32> }\nimpl S { fn f(&self) { self.m.keys(); } }\n";
        let findings = run("crates/bench/src/x.rs", src);
        assert!(findings.is_empty());
    }
}
