//! Pass 2: lock acquisition ordering.
//!
//! The serving stack layers three lock classes (see `crates/serve`):
//! stripe (shard map) → WAL map → per-key appender. Acquiring them in a
//! cycle — or acquiring a stripe lock while holding an appender — is a
//! latent deadlock that no test reliably reproduces. This pass extracts
//! every lock-acquisition site, approximates the intra-crate call graph,
//! computes the transitive *acquired-while-held* relation, and fails on:
//!
//! * any cycle in the class graph (including re-acquiring a class already
//!   held), and
//! * the explicitly forbidden edges in [`crate::config::FORBIDDEN_EDGES`].
//!
//! **Approximations.** Lock classes come from declared types (`wals:
//! RwLock<WalMap>` → class `WalMap`), lock-returning helpers (`fn
//! stripe(..) -> &Stripe`), and simple `let`/`for` binding propagation.
//! A call to a function that acquires locks is treated as holding those
//! classes over the call's parenthesized extent — which also covers
//! closures executed under the callee's locks (`with_shard_mut(key, |s|
//! ...)`). Guard-returning helpers (`-> MutexGuard<..>`) hold from the
//! call site to the end of the binding's block, like a direct acquisition.
//! Receivers the resolver cannot classify are skipped (under-approximate),
//! so keep lock receivers named after their declared fields.
//!
//! Calls resolve through `(owner, name)` keys, where the owner is the
//! enclosing `impl`/`trait` type: `self.f(..)` looks up the current impl's
//! `f`, `Type::f(..)` looks up `Type`'s, `self.field.f(..)` resolves the
//! field's declared type, and a bare `f(..)` looks up free functions.
//! A call whose receiver cannot be typed (generic fields, chained call
//! results, foreign types like `Mutex::new`) resolves to nothing rather
//! than to the union of every same-named function in the crate.

use crate::config::{crate_dir, FORBIDDEN_EDGES, LOCK_CLASS_RENAMES};
use crate::lexer::{TokKind, Token};
use crate::symbols::{self, CrateNames};
use crate::{Finding, Pass, SourceFile, Workspace};
use std::collections::{BTreeMap, BTreeSet};

/// Methods that acquire a `Mutex`/`RwLock`.
const LOCK_METHODS: &[&str] = &["lock", "read", "write"];

/// Wrapper/container types that never *are* the lock's payload class.
const CONTAINERS: &[&str] = &[
    "HashMap", "HashSet", "BTreeMap", "BTreeSet", "Vec", "VecDeque", "Box", "Arc", "Rc", "Option",
    "Result", "String", "PathBuf", "Cow",
];

/// Run the pass crate by crate over the whole workspace.
pub fn check(ws: &Workspace) -> Vec<Finding> {
    let mut findings = Vec::new();
    let mut by_crate: BTreeMap<&str, Vec<&SourceFile>> = BTreeMap::new();
    for file in &ws.files {
        by_crate.entry(crate_dir(&file.rel)).or_default().push(file);
    }
    for (cdir, files) in &by_crate {
        check_files(cdir, files, &mut findings);
    }
    findings
}

fn rename(cdir: &str, name: &str) -> String {
    for (c, from, to) in LOCK_CLASS_RENAMES {
        if *c == cdir && *from == name {
            return (*to).to_string();
        }
    }
    name.to_string()
}

/// Class resolution quality: alias-based beats inner-type beats the
/// declared binding name, so conflicting declarations of the same
/// identifier converge on the most structural answer.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Quality {
    Fallback,
    InnerType,
    Alias,
}

fn resolve_class(
    tokens: &[Token],
    window: (usize, usize),
    names: &CrateNames,
    cdir: &str,
    fallback: &str,
) -> Option<(String, Quality)> {
    let w = &tokens[window.0..window.1];
    for t in w {
        if t.kind == TokKind::Ident && names.lock_aliases.contains(&t.text) {
            return Some((rename(cdir, &t.text), Quality::Alias));
        }
    }
    for (i, t) in w.iter().enumerate() {
        if !(t.is_ident("Mutex") || t.is_ident("RwLock")) {
            continue;
        }
        for u in &w[i + 1..] {
            if u.kind == TokKind::Ident
                && u.text.chars().next().is_some_and(char::is_uppercase)
                && !CONTAINERS.contains(&u.text.as_str())
                && u.text != "Mutex"
                && u.text != "RwLock"
            {
                return Some((rename(cdir, &u.text), Quality::InnerType));
            }
        }
        return Some((rename(cdir, fallback), Quality::Fallback));
    }
    None
}

/// One lock-holding interval in a function body.
struct Event {
    /// Token index of the acquisition.
    at: usize,
    /// Exclusive token index where the hold ends.
    until: usize,
    /// Lock classes held over the interval.
    classes: Vec<String>,
    /// Line of the acquisition (for reporting the *second* lock of a pair).
    line: u32,
}

/// Resolution key for a function: `(impl/trait owner, name)`, with an
/// empty owner for free functions.
type FnKey = (String, String);

fn def_keys(def: &symbols::FnDef) -> Vec<FnKey> {
    if def.owners.is_empty() {
        vec![(String::new(), def.name.clone())]
    } else {
        def.owners.iter().map(|o| (o.clone(), def.name.clone())).collect()
    }
}

/// Candidate `(owner, name)` keys for a call at token `i` (an identifier
/// followed by `(`), given the enclosing definition's owners and the
/// declared types of fields/locals. Empty when the receiver cannot be
/// typed — such calls are skipped rather than over-approximated.
fn call_keys(
    tokens: &[Token],
    i: usize,
    owners: &[String],
    types_of: &BTreeMap<String, String>,
) -> Vec<FnKey> {
    let name = tokens[i].text.clone();
    let prev = |n: usize| i.checked_sub(n).map(|k| &tokens[k]);
    let self_keys =
        |name: String| -> Vec<FnKey> { owners.iter().map(|o| (o.clone(), name.clone())).collect() };
    if prev(1).is_some_and(|t| t.is_punct(':')) && prev(2).is_some_and(|t| t.is_punct(':')) {
        // `Type::name(..)` / `Self::name(..)`; turbofish and longer paths
        // fall through to empty.
        if let Some(t) = prev(3) {
            if t.kind == TokKind::Ident {
                if t.text == "Self" {
                    return self_keys(name);
                }
                return vec![(t.text.clone(), name)];
            }
        }
        return Vec::new();
    }
    if prev(1).is_some_and(|t| t.is_punct('.')) {
        let Some(recv) = prev(2) else { return Vec::new() };
        if recv.kind != TokKind::Ident {
            // Receiver is a call/index result: unresolvable.
            return Vec::new();
        }
        let deeper = prev(3).is_some_and(|t| t.is_punct('.'));
        if recv.text == "self" && !deeper {
            return self_keys(name);
        }
        if deeper {
            // `self.field.name(..)` via the field's declared type; longer
            // chains are unresolvable.
            if prev(4).is_some_and(|t| t.is_ident("self"))
                && !prev(5).is_some_and(|t| t.is_punct('.'))
            {
                if let Some(ty) = types_of.get(&recv.text) {
                    return vec![(ty.clone(), name)];
                }
            }
            return Vec::new();
        }
        // Plain local/param receiver with a declared type.
        if let Some(ty) = types_of.get(&recv.text) {
            return vec![(ty.clone(), name)];
        }
        return Vec::new();
    }
    vec![(String::new(), name)]
}

/// Analyze one crate's files; push findings.
pub fn check_files(cdir: &str, files: &[&SourceFile], findings: &mut Vec<Finding>) {
    let names = symbols::crate_names(files);

    // Declared identifier -> lock class.
    let mut ident_class: BTreeMap<String, (String, Quality)> = BTreeMap::new();
    for file in files {
        for decl in symbols::decls(file) {
            if let Some((class, q)) =
                resolve_class(&file.lexed.tokens, decl.window, &names, cdir, &decl.name)
            {
                let slot =
                    ident_class.entry(decl.name.clone()).or_insert_with(|| (class.clone(), q));
                if q > slot.1 {
                    *slot = (class, q);
                }
            }
        }
    }

    // Declared type of each field/local (`engine: Engine`, `transport:
    // Box<dyn SegmentTransport>` -> `SegmentTransport`) for receiver
    // resolution at call sites.
    let mut types_of: BTreeMap<String, String> = BTreeMap::new();
    for file in files {
        for decl in symbols::decls(file) {
            let tokens = &file.lexed.tokens;
            let ty = tokens[decl.window.0..decl.window.1].iter().find(|t| {
                t.kind == TokKind::Ident
                    && t.text.chars().next().is_some_and(char::is_uppercase)
                    && !CONTAINERS.contains(&t.text.as_str())
                    && t.text != "Mutex"
                    && t.text != "RwLock"
            });
            if let Some(ty) = ty {
                types_of.entry(decl.name.clone()).or_insert_with(|| ty.text.clone());
            }
        }
    }

    // Function tables: lock-returning and guard-returning helpers, keyed
    // by `(owner, name)`.
    let mut defs: Vec<(usize, symbols::FnDef)> = Vec::new();
    for (fi, file) in files.iter().enumerate() {
        for def in symbols::fn_defs(file, fi) {
            defs.push((fi, def));
        }
    }
    let known: BTreeSet<FnKey> = defs.iter().flat_map(|(_, d)| def_keys(d)).collect();
    let mut lock_fns: BTreeMap<FnKey, String> = BTreeMap::new();
    let mut guard_fns: BTreeSet<FnKey> = BTreeSet::new();
    for (fi, def) in &defs {
        let tokens = &files[*fi].lexed.tokens;
        let Some(ret) = symbols::return_window(tokens, def.sig) else { continue };
        if tokens[ret.0..ret.1]
            .iter()
            .any(|t| t.kind == TokKind::Ident && t.text.ends_with("Guard"))
        {
            guard_fns.extend(def_keys(def));
        } else if let Some((class, _)) = resolve_class(tokens, ret, &names, cdir, &def.name) {
            for key in def_keys(def) {
                lock_fns.insert(key, class.clone());
            }
        }
    }
    // Bare-name view of the lock helpers for binding propagation
    // (`let wal = self.key_wal(k)?` binds `wal` to `key_wal`'s class).
    let mut lock_fn_names: BTreeMap<String, String> = BTreeMap::new();
    for ((_, name), class) in &lock_fns {
        lock_fn_names.entry(name.clone()).or_insert_with(|| class.clone());
    }

    // `let`/`for` bindings of lock handles, per function body (parallel
    // to `defs`).
    let locals: Vec<BTreeMap<String, String>> = defs
        .iter()
        .map(|(fi, def)| match def.body {
            Some(body) => local_lock_bindings(files[*fi], body, &lock_fn_names, &ident_class),
            None => BTreeMap::new(),
        })
        .collect();

    // Direct acquisition classes and resolved callees per function key.
    let mut direct: BTreeMap<FnKey, BTreeSet<String>> = BTreeMap::new();
    let mut calls: BTreeMap<FnKey, BTreeSet<FnKey>> = BTreeMap::new();
    for ((fi, def), locals) in defs.iter().zip(&locals) {
        let file = files[*fi];
        let Some(body) = def.body else { continue };
        let mut d: BTreeSet<String> = BTreeSet::new();
        let mut c: BTreeSet<FnKey> = BTreeSet::new();
        scan_body(file, body, def, &ident_class, locals, &lock_fns, &types_of, &known, |kind| {
            match kind {
                Scanned::Direct { class, .. } => {
                    d.insert(class);
                }
                Scanned::Call { keys, .. } => {
                    c.extend(keys);
                }
            }
        });
        for key in def_keys(def) {
            direct.entry(key.clone()).or_default().extend(d.iter().cloned());
            calls.entry(key).or_default().extend(c.iter().cloned());
        }
    }

    // Fixpoint: effects(f) = direct(f) ∪ ⋃ effects(callee).
    let mut effects: BTreeMap<FnKey, BTreeSet<String>> = direct.clone();
    loop {
        let mut changed = false;
        for (key, callees) in &calls {
            let mut merged: BTreeSet<String> = effects.get(key).cloned().unwrap_or_default();
            for callee in callees {
                if let Some(extra) = effects.get(callee) {
                    for class in extra {
                        merged.insert(class.clone());
                    }
                }
            }
            let slot = effects.entry(key.clone()).or_default();
            if merged.len() > slot.len() {
                *slot = merged;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    // Per-body events, then acquired-while-held edges.
    let mut edges: BTreeMap<(String, String), (String, u32)> = BTreeMap::new();
    let mut self_loops: BTreeSet<(String, String, u32)> = BTreeSet::new();
    for ((fi, def), locals) in defs.iter().zip(&locals) {
        let file = files[*fi];
        let Some(body) = def.body else { continue };
        let tokens = &file.lexed.tokens;
        let mut events: Vec<Event> = Vec::new();
        scan_body(file, body, def, &ident_class, locals, &lock_fns, &types_of, &known, |kind| {
            match kind {
                Scanned::Direct { at, class } => {
                    events.push(Event {
                        at,
                        until: symbols::hold_end(tokens, at),
                        classes: vec![class],
                        line: tokens[at].line,
                    });
                }
                Scanned::Call { at, keys } => {
                    let mut classes: BTreeSet<String> = BTreeSet::new();
                    for key in &keys {
                        if let Some(extra) = effects.get(key) {
                            classes.extend(extra.iter().cloned());
                        }
                    }
                    if classes.is_empty() {
                        return;
                    }
                    let until = if keys.iter().any(|k| guard_fns.contains(k)) {
                        symbols::hold_end(tokens, at)
                    } else {
                        call_extent(tokens, at)
                    };
                    events.push(Event {
                        at,
                        until,
                        classes: classes.into_iter().collect(),
                        line: tokens[at].line,
                    });
                }
            }
        });
        for a in &events {
            for b in &events {
                if b.at <= a.at || b.at >= a.until {
                    continue;
                }
                if file.allowed(Pass::LockOrder, b.line) {
                    continue;
                }
                for ca in &a.classes {
                    for cb in &b.classes {
                        if ca == cb {
                            self_loops.insert((ca.clone(), file.rel.clone(), b.line));
                        } else {
                            edges
                                .entry((ca.clone(), cb.clone()))
                                .or_insert_with(|| (file.rel.clone(), b.line));
                        }
                    }
                }
            }
        }
    }

    for (class, file, line) in &self_loops {
        findings.push(Finding {
            file: file.clone(),
            line: *line,
            pass: Pass::LockOrder,
            message: format!(
                "lock class `{class}` acquired while a `{class}` lock is already held \
                 (self-deadlock on Mutex, writer starvation on RwLock)"
            ),
        });
    }

    // Explicitly forbidden edges.
    for (fcrate, held, acquired, why) in FORBIDDEN_EDGES {
        if *fcrate != cdir {
            continue;
        }
        if let Some((file, line)) = edges.get(&((*held).to_string(), (*acquired).to_string())) {
            findings.push(Finding {
                file: file.clone(),
                line: *line,
                pass: Pass::LockOrder,
                message: format!(
                    "forbidden lock order: `{acquired}` acquired while `{held}` is held — {why}"
                ),
            });
        }
    }

    // Any cycle in the class graph.
    for cycle in find_cycles(&edges) {
        let closing = (cycle[cycle.len() - 1].clone(), cycle[0].clone());
        let (file, line) = match edges.get(&closing) {
            Some(site) => site.clone(),
            None => continue,
        };
        findings.push(Finding {
            file,
            line,
            pass: Pass::LockOrder,
            message: format!(
                "lock-order cycle: {} -> {} (two threads taking these classes in opposite \
                 orders deadlock)",
                cycle.join(" -> "),
                cycle[0]
            ),
        });
    }
}

/// What `scan_body` surfaced at one token.
enum Scanned {
    /// `<receiver>.lock()/.read()/.write()` with a classified receiver.
    Direct {
        /// Token index of the method name.
        at: usize,
        /// The receiver's lock class.
        class: String,
    },
    /// A call resolved to crate-local function keys.
    Call {
        /// Token index of the callee name.
        at: usize,
        /// Candidate `(owner, name)` keys (all present in the crate).
        keys: Vec<FnKey>,
    },
}

#[allow(clippy::too_many_arguments)]
fn scan_body(
    file: &SourceFile,
    body: (usize, usize),
    def: &symbols::FnDef,
    ident_class: &BTreeMap<String, (String, Quality)>,
    locals: &BTreeMap<String, String>,
    lock_fns: &BTreeMap<FnKey, String>,
    types_of: &BTreeMap<String, String>,
    known: &BTreeSet<FnKey>,
    mut sink: impl FnMut(Scanned),
) {
    let tokens = &file.lexed.tokens;
    for (i, t) in file.active_tokens() {
        if i < body.0 || i >= body.1 || t.kind != TokKind::Ident {
            continue;
        }
        let name = t.text.as_str();
        let called = tokens.get(i + 1).is_some_and(|n| n.is_punct('('));
        let method = i >= 1 && tokens[i - 1].is_punct('.');
        if LOCK_METHODS.contains(&name) && method && called {
            let Some(base) = symbols::receiver_base(tokens, i - 1) else { continue };
            let base_name = tokens[base].text.as_str();
            let mut class = ident_class
                .get(base_name)
                .map(|(c, _)| c.clone())
                .or_else(|| locals.get(base_name).cloned());
            if class.is_none() && tokens.get(base + 1).is_some_and(|n| n.is_punct('(')) {
                // Receiver is a helper call: `self.stripe(key).write()`.
                class = call_keys(tokens, base, &def.owners, types_of)
                    .iter()
                    .find_map(|k| lock_fns.get(k).cloned());
            }
            if let Some(class) = class {
                sink(Scanned::Direct { at: i, class });
            }
            continue;
        }
        if called && !(LOCK_METHODS.contains(&name) && method) {
            // Skip definition sites (`fn name(`).
            if i >= 1 && tokens[i - 1].is_ident("fn") {
                continue;
            }
            let keys: Vec<FnKey> = call_keys(tokens, i, &def.owners, types_of)
                .into_iter()
                .filter(|k| known.contains(k))
                .collect();
            if !keys.is_empty() {
                sink(Scanned::Call { at: i, keys });
            }
        }
    }
}

/// Exclusive end of the call's `(...)` extent starting after `at`.
fn call_extent(tokens: &[Token], at: usize) -> usize {
    let mut depth = 0i32;
    let mut k = at + 1;
    while k < tokens.len() {
        if tokens[k].is_punct('(') {
            depth += 1;
        } else if tokens[k].is_punct(')') {
            depth -= 1;
            if depth == 0 {
                return k;
            }
        }
        k += 1;
    }
    tokens.len()
}

/// The `let`/`for` bindings of lock handles in one function body (e.g.
/// `let wal = self.key_wal(k)?` binds `wal` to `key_wal`'s class): a
/// binding takes the class of the first identifier on its right-hand side
/// that is a declared lock, an earlier binding of the same body, or a lock
/// helper. The bindings are scoped to the body, so a local elsewhere that
/// shares a name with one (a hasher `h` calling `.write(`) is not a lock.
/// Two sweeps let a binding feed a later one that textually precedes it.
fn local_lock_bindings(
    file: &SourceFile,
    body: (usize, usize),
    lock_fns: &BTreeMap<String, String>,
    ident_class: &BTreeMap<String, (String, Quality)>,
) -> BTreeMap<String, String> {
    let tokens = &file.lexed.tokens[..body.1];
    let mut locals: BTreeMap<String, String> = BTreeMap::new();
    for _ in 0..2 {
        let mut new_binds: Vec<(String, String)> = Vec::new();
        for (i, t) in
            file.active_tokens().skip_while(|(i, _)| *i < body.0).take_while(|(i, _)| *i < body.1)
        {
            let (binding_at, stop): (usize, char) = if t.is_ident("let") {
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
                continue;
            }
            let mut depth = 0i32;
            let mut k = b + 1;
            let mut class = None;
            while k < tokens.len() && class.is_none() {
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
                    class = ident_class
                        .get(&t.text)
                        .map(|(c, _)| c.clone())
                        .or_else(|| locals.get(&t.text).cloned())
                        .or_else(|| lock_fns.get(&t.text).cloned());
                }
                k += 1;
            }
            if let Some(class) = class {
                new_binds.push((name_tok.text.clone(), class));
            }
        }
        for (name, class) in new_binds {
            locals.entry(name).or_insert(class);
        }
    }
    locals
}

/// Find elementary cycles in the edge set (small graphs: DFS per node).
fn find_cycles(edges: &BTreeMap<(String, String), (String, u32)>) -> Vec<Vec<String>> {
    let mut adj: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
    for (a, b) in edges.keys() {
        adj.entry(a).or_default().push(b);
    }
    let mut cycles: Vec<Vec<String>> = Vec::new();
    let mut seen_keys: BTreeSet<Vec<String>> = BTreeSet::new();
    for start in adj.keys().copied().collect::<Vec<_>>() {
        let mut stack: Vec<&str> = vec![start];
        let mut path_set: BTreeSet<&str> = [start].into_iter().collect();
        dfs(start, start, &adj, &mut stack, &mut path_set, &mut |path: &[&str]| {
            let mut key: Vec<String> = path.iter().map(|s| (*s).to_string()).collect();
            key.sort();
            if seen_keys.insert(key) {
                cycles.push(path.iter().map(|s| (*s).to_string()).collect());
            }
        });
    }
    cycles
}

fn dfs<'a>(
    node: &'a str,
    start: &'a str,
    adj: &BTreeMap<&'a str, Vec<&'a str>>,
    stack: &mut Vec<&'a str>,
    path_set: &mut BTreeSet<&'a str>,
    found: &mut impl FnMut(&[&str]),
) {
    let Some(nexts) = adj.get(node) else { return };
    for next in nexts {
        if *next == start {
            found(stack);
        } else if !path_set.contains(next) {
            stack.push(next);
            path_set.insert(next);
            dfs(next, start, adj, stack, path_set, found);
            stack.pop();
            path_set.remove(next);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SourceFile;

    fn run(cdir: &str, srcs: &[(&str, &str)]) -> Vec<Finding> {
        let files: Vec<SourceFile> =
            srcs.iter().map(|(rel, src)| SourceFile::parse((*rel).to_string(), src).0).collect();
        let refs: Vec<&SourceFile> = files.iter().collect();
        let mut findings = Vec::new();
        check_files(cdir, &refs, &mut findings);
        findings
    }

    const TWO_LOCKS: &str = "\
struct S { a: Mutex<Alpha>, b: Mutex<Beta> }
impl S {
    fn ab(&self) { let g = self.a.lock(); let h = self.b.lock(); use_both(g, h); }
}
";

    #[test]
    fn consistent_order_is_clean() {
        let findings = run("crates/x", &[("crates/x/src/lib.rs", TWO_LOCKS)]);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn opposite_orders_cycle() {
        let src = format!(
            "{TWO_LOCKS}impl S {{ fn ba(&self) {{ let h = self.b.lock(); let g = self.a.lock(); use_both(g, h); }} }}\n"
        );
        let findings = run("crates/x", &[("crates/x/src/lib.rs", &src)]);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("cycle"), "{findings:?}");
    }

    #[test]
    fn cycle_through_helper_call() {
        // `ab` holds `a` and calls `grab_b`; `ba` holds `b` and calls
        // `grab_a` — the cycle only exists through the call graph.
        let src = "\
struct S { a: Mutex<Alpha>, b: Mutex<Beta> }
impl S {
    fn grab_a(&self) { let g = self.a.lock(); use_it(g); }
    fn grab_b(&self) { let g = self.b.lock(); use_it(g); }
    fn ab(&self) { let g = self.a.lock(); self.grab_b(); drop(g); }
    fn ba(&self) { let g = self.b.lock(); self.grab_a(); drop(g); }
}
";
        let findings = run("crates/x", &[("crates/x/src/lib.rs", src)]);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("cycle"));
    }

    #[test]
    fn self_reacquire_flagged() {
        let src = "\
struct S { a: Mutex<Alpha> }
impl S { fn f(&self) { let g = self.a.lock(); let h = self.a.lock(); use_both(g, h); } }
";
        let findings = run("crates/x", &[("crates/x/src/lib.rs", src)]);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("already held"));
    }

    #[test]
    fn temporary_guard_does_not_span_statements() {
        let src = "\
struct S { a: Mutex<Alpha>, b: Mutex<Beta> }
impl S { fn f(&self) { self.a.lock().touch(); self.b.lock().touch(); } }
impl S { fn g(&self) { self.b.lock().touch(); self.a.lock().touch(); } }
";
        let findings = run("crates/x", &[("crates/x/src/lib.rs", src)]);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn forbidden_edge_fires_without_cycle() {
        // Acquire a stripe lock while holding an appender: forbidden in
        // crates/serve even before any reverse path exists.
        let src = "\
type Stripe = RwLock<HashMap<String, Shard>>;
struct S { stripes: Vec<Stripe>, wal: Mutex<KeyWal> }
impl S {
    fn bad(&self, i: usize) {
        let w = self.wal.lock();
        let s = self.stripes[i].write();
        use_both(w, s);
    }
}
";
        let findings = run("crates/serve", &[("crates/serve/src/x.rs", src)]);
        assert!(
            findings.iter().any(|f| f.message.contains("forbidden lock order")),
            "{findings:?}"
        );
    }

    #[test]
    fn closure_under_scoped_call_sees_callee_lock() {
        // `with_a` runs the closure under lock `a`; the closure takes `b`.
        // Another fn takes `b` then `a` directly -> cycle through the
        // closure edge.
        let src = "\
struct S { a: Mutex<Alpha>, b: Mutex<Beta> }
impl S {
    fn with_a<R>(&self, f: impl FnOnce() -> R) -> R { let g = self.a.lock(); f() }
    fn uses_closure(&self) { self.with_a(|| { let h = self.b.lock(); use_it(h); }); }
    fn reversed(&self) { let h = self.b.lock(); let g = self.a.lock(); use_both(g, h); }
}
";
        let findings = run("crates/x", &[("crates/x/src/lib.rs", src)]);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("cycle"));
    }

    #[test]
    fn let_bindings_are_scoped_to_their_function() {
        // `f` binds `h` to a lock; `g`'s `h` is a hasher whose `.write(`
        // is no acquisition, so `g` holds one `a` lock, not two.
        let src = "\
struct S { a: RwLock<Alpha> }
impl S {
    fn f(&self) { let h = self.a.write(); h.touch(); }
    fn g(&self) { let g = self.a.write(); let mut h = Fnv::default(); h.write(b\"k\"); use_both(g, h); }
}
";
        let findings = run("crates/x", &[("crates/x/src/lib.rs", src)]);
        assert!(findings.is_empty(), "{findings:?}");
        // Within one function the binding still counts.
        let src = "\
struct S { a: RwLock<Alpha> }
impl S { fn f(&self) { let h = self.a.write(); let k = h; let g = k.write(); use_both(g, h); } }
";
        let findings = run("crates/x", &[("crates/x/src/lib.rs", src)]);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("already held"), "{findings:?}");
    }

    #[test]
    fn allow_suppresses_edge() {
        let src = "\
struct S { a: Mutex<Alpha>, b: Mutex<Beta> }
impl S {
    fn ab(&self) { let g = self.a.lock(); let h = self.b.lock(); use_both(g, h); }
    fn ba(&self) {
        let h = self.b.lock();
        // lint: allow(lock-order) -- b is private to this subsystem
        let g = self.a.lock();
        use_both(g, h);
    }
}
";
        let findings = run("crates/x", &[("crates/x/src/lib.rs", src)]);
        assert!(findings.is_empty(), "{findings:?}");
    }
}
