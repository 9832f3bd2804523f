//! Interprocedural pass 5: guard hold-scope, and the guard-liveness
//! engine every lock lint shares (DESIGN.md §9.3).
//!
//! [`lock_order`](crate::lock_order) proves the *ordering* of lock
//! acquisitions is cycle-free; this pass bounds how long a guard may
//! be *held*. A parking_lot `Mutex`/`RwLock` guard that stays live
//! across a call into a closeness kernel, telemetry export, or simnet
//! delivery serializes exactly the work the workspace spends its time
//! in, and every other thread contending for that lock stalls behind
//! it; this pass rules the pattern out statically.
//!
//! The engine is a forward may-analysis over each function's CFG.
//! A guard is born at an acquisition: a zero-argument `.lock()`,
//! `.read()` or `.write()` on a plain receiver chain whose last segment
//! is declared with a lock type, or not declared with a type at all. A
//! `let [mut] g = <recv>.lock()` binding lives to its scope's closing
//! brace, any other acquisition is a temporary that lives to the end of
//! its statement, and `drop(g)` kills a binding early. So a guard
//! dropped on only one branch of an `if` is still live at the join. The walk reports three kinds of [`Event`] met while a guard
//! may be live: acquisitions (the lock-order edges), channel calls
//! (the net crate's guard-across-channel rule in
//! [`lock_hygiene`](crate::lock_hygiene)) and caller-listed calls —
//! here, calls that can reach (via the call graph) one of the
//! forbidden targets.

use std::collections::{BTreeMap, BTreeSet};

use crate::callgraph::CallGraph;
use crate::cfg::{forward_fixpoint, Cfg, Forward};
use crate::lexer::{self, Token, TokenKind};
use crate::parser::{self, type_head};
use crate::{line_of, Finding, SourceFile};

/// Qualified-name suffixes a held guard must not cross into, with the
/// subsystem label used in findings.
pub const FORBIDDEN: &[(&str, &str)] = &[
    ("pair_cardinalities", "closeness kernel"),
    ("pair_cardinalities_windows", "closeness kernel"),
    ("JsonExporter::export", "telemetry export"),
    ("CsvExporter::export", "telemetry export"),
    ("Network::dispatch", "simnet delivery"),
];

/// Lock-guard-producing zero-arg methods.
const ACQUIRE: [&str; 3] = ["lock", "read", "write"];

/// Crossbeam channel methods a guard must not be held across.
const CHANNEL_OPS: [&str; 4] = ["send", "recv", "recv_timeout", "try_recv"];

/// Lock types whose guards the engine tracks (the parking_lot family;
/// the std locks are banned by the lock-hygiene lint).
const LOCK_TYPES: [&str; 2] = ["Mutex", "RwLock"];

/// A guard that may be live.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Guard {
    /// Bound variable name (`drop(name)` kills it); `None` for a
    /// temporary that lives to the end of its statement.
    pub name: Option<String>,
    /// Receiver chain of the acquisition, `self` dropped.
    pub lock: String,
    /// 1-based acquisition line.
    pub line: usize,
    /// Byte range the guard can be live in: from the acquisition to
    /// its scope's closing brace (a binding) or statement end (a
    /// temporary). Re-entering the range from its start (a loop back
    /// edge) means the guard was dropped on the way.
    live: (usize, usize),
}

/// What the walk met while a guard may be live.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event {
    /// An acquisition of the lock with this receiver chain.
    Acquire(String),
    /// A channel call (`send`, `recv`, `recv_timeout`, `try_recv`).
    Channel(&'static str),
    /// One of the call offsets the caller listed.
    Call,
}

/// One event with the guards that may be live when it runs.
#[derive(Debug, Clone)]
pub struct Held {
    /// Byte offset of the event's token (the `.` of a method call, or
    /// the listed call offset).
    pub offset: usize,
    /// What happened.
    pub event: Event,
    /// Live guards, sorted (named after temporaries, then by name).
    pub guards: Vec<Guard>,
}

/// The guard-liveness dataflow over one function body.
struct GuardFlow<'a> {
    code: &'a [&'a Token<'a>],
    src: &'a str,
    /// Names declared with a lock type in this file.
    locked: &'a BTreeSet<String>,
    /// Names declared with any type in this file.
    typed: &'a BTreeSet<String>,
    /// Call offsets to report as [`Event::Call`].
    calls: &'a BTreeSet<usize>,
    /// Byte offset past the end of the function body.
    body_end: usize,
}

impl GuardFlow<'_> {
    /// Applies one block's gen/kill to `fact`. When `out` is given,
    /// records every event met while a guard is live.
    fn walk(
        &self,
        cfg: &Cfg,
        block: usize,
        fact: &BTreeSet<Guard>,
        mut out: Option<&mut Vec<Held>>,
    ) -> BTreeSet<Guard> {
        let mut fact = fact.clone();
        let mut stmt = usize::MAX; // statement-start token index
        for i in cfg.block_tokens(block) {
            if stmt == usize::MAX {
                stmt = i;
            }
            let t = self.code[i];
            fact.retain(|g| g.live.0 <= t.start && t.start < g.live.1);
            let acquired = self.acquisition(i);
            if let Some(out) = out.as_deref_mut().filter(|_| !fact.is_empty()) {
                let channel = self
                    .method_at(i)
                    .and_then(|m| CHANNEL_OPS.into_iter().find(|&op| op == m))
                    .filter(|_| self.code.get(i + 2).is_some_and(|n| n.is_punct('(')));
                let events = [
                    acquired.clone().map(Event::Acquire),
                    channel.map(Event::Channel),
                    self.calls.contains(&t.start).then_some(Event::Call),
                ];
                for event in events.into_iter().flatten() {
                    out.push(Held {
                        offset: t.start,
                        event,
                        guards: fact.iter().cloned().collect(),
                    });
                }
            }
            if t.is_punct('{') || t.is_punct('}') || t.is_punct(';') {
                stmt = i + 1;
            } else if t.is_ident("drop")
                && self.code.get(i + 1).is_some_and(|n| n.is_punct('('))
                && self.code.get(i + 3).is_some_and(|n| n.is_punct(')'))
            {
                if let Some(arg) = self.code.get(i + 2).filter(|a| a.kind == TokenKind::Ident) {
                    fact.retain(|g| g.name.as_deref() != Some(arg.text));
                }
            } else if let Some(lock) = acquired {
                let recv_start = (i + 1).saturating_sub(2 * chain_len(self.code, i));
                let name = let_binding(self.code, stmt, recv_start);
                let end = self.end_after(i, name.is_none());
                fact.insert(Guard {
                    name,
                    lock,
                    line: line_of(self.src, t.start),
                    live: (t.start, end),
                });
            }
        }
        fact
    }

    /// The method name when `code[i]` is the `.` of a method call.
    fn method_at(&self, i: usize) -> Option<&str> {
        if !self.code[i].is_punct('.') {
            return None;
        }
        self.code
            .get(i + 1)
            .filter(|m| m.kind == TokenKind::Ident)
            .map(|m| m.text)
    }

    /// The one acquisition rule: a zero-argument `.lock()`, `.read()`
    /// or `.write()` on a plain receiver chain whose last segment is
    /// declared in this file with a lock type, or not declared with a
    /// type at all. Returns the chain.
    fn acquisition(&self, i: usize) -> Option<String> {
        let zero_arg = self.method_at(i).is_some_and(|m| ACQUIRE.contains(&m))
            && self.code.get(i + 2).is_some_and(|n| n.is_punct('('))
            && self.code.get(i + 3).is_some_and(|n| n.is_punct(')'));
        if !zero_arg {
            return None;
        }
        let chain = receiver_chain(self.code, i)?;
        let field = chain.rsplit('.').next().unwrap_or(&chain);
        (self.locked.contains(field) || !self.typed.contains(field)).then_some(chain)
    }

    /// Byte offset of the first unmatched `}` after token `i` (the end
    /// of the enclosing scope) or, with `at_semicolon`, of the first
    /// `;` at the same depth if that comes sooner (the end of the
    /// statement). Bounded by the body.
    fn end_after(&self, i: usize, at_semicolon: bool) -> usize {
        let mut depth = 0usize;
        for t in &self.code[i..] {
            if t.start >= self.body_end {
                break;
            }
            if t.is_punct('{') {
                depth += 1;
            } else if t.is_punct('}') {
                if depth == 0 {
                    return t.start;
                }
                depth -= 1;
            } else if at_semicolon && depth == 0 && t.is_punct(';') {
                return t.start;
            }
        }
        self.body_end
    }
}

impl Forward for GuardFlow<'_> {
    type Fact = BTreeSet<Guard>;
    fn entry(&self) -> Self::Fact {
        BTreeSet::new()
    }
    fn join(&self, a: &Self::Fact, b: &Self::Fact) -> Self::Fact {
        a.union(b).cloned().collect()
    }
    fn transfer(&self, cfg: &Cfg, block: usize, input: &Self::Fact) -> Self::Fact {
        self.walk(cfg, block, input, None)
    }
}

/// Runs the guard-liveness engine over the function bodies at byte
/// spans `bodies` of `src` (as recorded by
/// [`crate::parser::FnItem::body`]). Returns every acquisition,
/// channel call and `calls` offset met while at least one guard may be
/// live, sorted by offset. `lock_types` names the lock types (see
/// [`lock_types`]).
fn held_events(
    src: &str,
    bodies: &[(usize, usize)],
    lock_types: &BTreeSet<String>,
    calls: &BTreeSet<usize>,
) -> Vec<Held> {
    let toks = lexer::tokenize(src);
    let code = lexer::code(&toks);
    let (locked, typed) = declared_names(&code, lock_types);
    let mut out = Vec::new();
    for &body in bodies {
        let cfg = Cfg::build(&code, body, src);
        let flow = GuardFlow {
            code: &code,
            src,
            locked: &locked,
            typed: &typed,
            calls,
            body_end: body.1,
        };
        let facts = forward_fixpoint(&cfg, &flow);
        for (b, fact) in facts.iter().enumerate() {
            if let Some((input, _)) = fact {
                flow.walk(&cfg, b, input, Some(&mut out));
            }
        }
    }
    out.sort_by_key(|h| h.offset);
    out
}

/// [`held_events`] over every function body in `file`; items inside
/// `#[cfg(test)]` regions are skipped unless `with_tests`.
pub fn file_events(
    file: &SourceFile,
    lock_types: &BTreeSet<String>,
    with_tests: bool,
) -> Vec<Held> {
    let bodies: Vec<(usize, usize)> = parser::parse_file(file)
        .fns
        .iter()
        .filter(|f| with_tests || !f.is_test)
        .filter_map(|f| f.body)
        .collect();
    held_events(&file.content, &bodies, lock_types, &BTreeSet::new())
}

/// The lock type names: `Mutex`, `RwLock`, and every alias in `files`
/// declared as one of them (`type SpanTable = Mutex<…>;`).
pub fn lock_types(files: &[SourceFile]) -> BTreeSet<String> {
    let mut out: BTreeSet<String> = LOCK_TYPES.iter().map(|t| t.to_string()).collect();
    for file in files {
        if !LOCK_TYPES.iter().any(|t| file.content.contains(t)) {
            continue;
        }
        let toks = lexer::tokenize(&file.content);
        let code = lexer::code(&toks);
        for (i, t) in code.iter().enumerate() {
            let Some(alias) = code
                .get(i + 1)
                .filter(|a| t.is_ident("type") && a.kind == TokenKind::Ident)
            else {
                continue;
            };
            let rest = &code[i + 2..];
            let head = rest
                .iter()
                .position(|t| t.is_punct('=') || t.is_punct(';'))
                .filter(|&end| rest[end].is_punct('='))
                .and_then(|eq| type_head(&rest[eq + 1..]));
            if head.is_some_and(|h| LOCK_TYPES.contains(&h.as_str())) {
                out.insert(alias.text.to_string());
            }
        }
    }
    out
}

/// Names declared with a type (`peers: Arc<Mutex<…>>` fields,
/// annotated lets and params): `(lock-typed names, all typed names)`.
fn declared_names(
    code: &[&Token<'_>],
    lock_types: &BTreeSet<String>,
) -> (BTreeSet<String>, BTreeSet<String>) {
    let mut locked = BTreeSet::new();
    let mut typed = BTreeSet::new();
    for i in 0..code.len() {
        if code[i].kind != TokenKind::Ident
            || !code.get(i + 1).is_some_and(|c| c.is_punct(':'))
            || code.get(i + 2).is_some_and(|c| c.is_punct(':'))
        {
            continue;
        }
        let Some(head) = type_head(&code[i + 2..]) else {
            continue;
        };
        if lock_types.contains(&head) {
            locked.insert(code[i].text.to_string());
        }
        typed.insert(code[i].text.to_string());
    }
    (locked, typed)
}

/// Walks back from the `.` at `code[dot]` collecting the receiver chain
/// (`self.state.inner` → `state.inner`). `None` when the receiver is
/// not a plain ident chain (e.g. a call result).
pub(crate) fn receiver_chain(code: &[&Token<'_>], dot: usize) -> Option<String> {
    let mut parts: Vec<&str> = Vec::new();
    let mut k = dot; // index of a `.`
    loop {
        let ident = k.checked_sub(1).and_then(|i| code.get(i))?;
        if ident.kind != TokenKind::Ident {
            return None;
        }
        parts.push(ident.text);
        match k.checked_sub(2).and_then(|i| code.get(i)) {
            Some(prev) if prev.is_punct('.') => k -= 2,
            _ => break,
        }
    }
    parts.reverse();
    if parts.first() == Some(&"self") {
        parts.remove(0);
    }
    if parts.is_empty() {
        None
    } else {
        Some(parts.join("."))
    }
}

/// Number of `ident .` pairs in the receiver chain ending at the `.`
/// at `dot` (counting the `self` segment if present).
fn chain_len(code: &[&Token<'_>], dot: usize) -> usize {
    let mut n = 0;
    let mut k = dot;
    loop {
        match k.checked_sub(1).and_then(|i| code.get(i)) {
            Some(id) if id.kind == TokenKind::Ident => n += 1,
            _ => break,
        }
        match k.checked_sub(2).and_then(|i| code.get(i)) {
            Some(prev) if prev.is_punct('.') => k -= 2,
            _ => break,
        }
    }
    n
}

/// When the tokens from `stmt_start` to `recv_start` are exactly
/// `let [mut] name =`, returns `name`.
fn let_binding(code: &[&Token<'_>], stmt_start: usize, recv_start: usize) -> Option<String> {
    match code.get(stmt_start..recv_start)? {
        [l, n, eq] if l.is_ident("let") && n.kind == TokenKind::Ident && eq.is_punct('=') => {
            Some(n.text.to_string())
        }
        [l, m, n, eq]
            if l.is_ident("let")
                && m.is_ident("mut")
                && n.kind == TokenKind::Ident
                && eq.is_punct('=') =>
        {
            Some(n.text.to_string())
        }
        _ => None,
    }
}

/// One file's guard-scope work: the fn bodies to walk, and what each
/// forbidden call (by byte offset) reaches.
type FileWork = (Vec<(usize, usize)>, BTreeMap<usize, String>);

/// Runs the pass over the workspace sources and call graph.
pub fn run(files: &[SourceFile], graph: &CallGraph) -> Vec<Finding> {
    // Reverse-reachability closure: which nodes can reach a forbidden
    // target, labelled by the subsystem and target reached.
    let mut reach: BTreeMap<usize, (usize, &'static str)> = BTreeMap::new();
    for &(suffix, label) in FORBIDDEN {
        for n in graph.find_suffix(suffix) {
            reach.entry(n).or_insert((n, label));
        }
    }
    loop {
        let mut changed = false;
        for &(a, b) in &graph.edges {
            if let Some(&hit) = reach.get(&b) {
                if let std::collections::btree_map::Entry::Vacant(e) = reach.entry(a) {
                    e.insert(hit);
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }

    // Per file: the library fn bodies with a call that can cross into
    // a forbidden subsystem, and what each such call reaches.
    let by_path: BTreeMap<&str, &SourceFile> = files.iter().map(|f| (f.path.as_str(), f)).collect();
    let mut work: BTreeMap<&str, FileWork> = BTreeMap::new();
    for (n, node) in graph.nodes.iter().enumerate() {
        let item = &node.item;
        if item.is_test {
            continue;
        }
        let Some(body) = item.body else { continue };
        if !by_path
            .get(node.file.as_str())
            .is_some_and(|f| f.is_library_code())
        {
            continue;
        }
        let mut bad: BTreeMap<usize, String> = BTreeMap::new();
        for call in &item.calls {
            for t in graph.resolve_site(n, &call.callee) {
                if let Some(&(target, label)) = reach.get(&t) {
                    bad.entry(call.offset).or_insert_with(|| {
                        if t == target {
                            format!("{label} `{}`", graph.nodes[t].item.qualified)
                        } else {
                            format!(
                                "`{}`, which reaches {label} `{}`",
                                graph.nodes[t].item.qualified, graph.nodes[target].item.qualified
                            )
                        }
                    });
                    break;
                }
            }
        }
        if bad.is_empty() {
            continue;
        }
        let (bodies, calls) = work.entry(node.file.as_str()).or_default();
        bodies.push(body);
        calls.append(&mut bad);
    }

    let types = lock_types(files);
    let mut findings = Vec::new();
    for (path, (bodies, bad)) in &work {
        let Some(file) = by_path.get(path) else {
            continue;
        };
        let calls: BTreeSet<usize> = bad.keys().copied().collect();
        for held in held_events(&file.content, bodies, &types, &calls) {
            let (Event::Call, Some(g)) = (&held.event, held.guards.first()) else {
                continue;
            };
            let target = bad.get(&held.offset).map(String::as_str).unwrap_or("?");
            let message = match &g.name {
                Some(name) => format!(
                    "guard `{name}` on `{}` (line {}) may be held across a call into {target} — \
                     drop it before the call",
                    g.lock, g.line,
                ),
                None => format!(
                    "temporary guard on `{}` (line {}) is held across a call into {target} — \
                     split the statement and drop the guard first",
                    g.lock, g.line,
                ),
            };
            findings.push(Finding {
                lint: "guard-scope",
                path: file.path.clone(),
                line: line_of(&file.content, held.offset),
                message,
            });
        }
    }

    findings.sort_by(|a, b| (&a.path, a.line, &a.message).cmp(&(&b.path, b.line, &b.message)));
    findings.dedup();
    findings
}

#[cfg(test)]
mod tests {
    use super::*;

    const DELIVERY: (&str, &str) = (
        "crates/simnet/src/n.rs",
        "pub struct Network;\nimpl Network { pub fn dispatch() {} }\n",
    );

    fn pass(net_src: &str) -> Vec<Finding> {
        let files = vec![
            SourceFile::new(DELIVERY.0, DELIVERY.1),
            SourceFile::new("crates/net/src/x.rs", net_src),
        ];
        let graph = CallGraph::build(&files);
        run(&files, &graph)
    }

    #[test]
    fn guard_held_across_delivery_call_is_flagged() {
        let got = pass(
            "pub struct S { peers: Mutex<u32> }\n\
             impl S {\n\
               pub fn f(&self) {\n\
                 let g = self.peers.lock();\n\
                 greenps_simnet::n::Network::dispatch();\n\
                 drop(g);\n\
               }\n\
             }\n",
        );
        assert_eq!(got.len(), 1, "{got:?}");
        assert!(got[0].message.contains("guard `g` on `peers`"));
        assert!(got[0].message.contains("simnet delivery"));
    }

    #[test]
    fn dropping_the_guard_first_is_clean() {
        let got = pass(
            "pub struct S { peers: Mutex<u32> }\n\
             impl S {\n\
               pub fn f(&self) {\n\
                 let g = self.peers.lock();\n\
                 drop(g);\n\
                 greenps_simnet::n::Network::dispatch();\n\
               }\n\
             }\n",
        );
        assert!(got.is_empty(), "{got:?}");
    }

    #[test]
    fn scope_exit_releases_the_guard() {
        let got = pass(
            "pub struct S { peers: Mutex<u32> }\n\
             impl S {\n\
               pub fn f(&self) {\n\
                 { let g = self.peers.lock(); let _ = g; }\n\
                 greenps_simnet::n::Network::dispatch();\n\
               }\n\
             }\n",
        );
        assert!(got.is_empty(), "{got:?}");
    }

    #[test]
    fn guard_dropped_on_only_one_branch_is_still_flagged() {
        // The lexical lock-order walk cannot see this: one path drops
        // `g`, the other keeps it live to the call. May-analysis joins.
        let got = pass(
            "pub struct S { peers: RwLock<u32> }\n\
             impl S {\n\
               pub fn f(&self, c: bool) {\n\
                 let g = self.peers.read();\n\
                 if c { drop(g); }\n\
                 greenps_simnet::n::Network::dispatch();\n\
               }\n\
             }\n",
        );
        assert_eq!(got.len(), 1, "{got:?}");
    }

    #[test]
    fn transitive_crossing_via_a_local_helper_is_flagged() {
        let got = pass(
            "pub struct S { peers: Mutex<u32> }\n\
             impl S {\n\
               pub fn f(&self) {\n\
                 let g = self.peers.lock();\n\
                 helper();\n\
                 drop(g);\n\
               }\n\
             }\n\
             pub fn helper() { greenps_simnet::n::Network::dispatch(); }\n",
        );
        assert_eq!(got.len(), 1, "{got:?}");
        assert!(got[0].message.contains("helper"), "{got:?}");
        assert!(got[0].message.contains("Network::dispatch"), "{got:?}");
    }

    #[test]
    fn arc_shared_locks_are_tracked() {
        let got = pass(
            "pub fn f(peers: Arc<Mutex<u32>>) {\n\
               let g = peers.lock();\n\
               greenps_simnet::n::Network::dispatch();\n\
               drop(g);\n\
             }\n",
        );
        assert_eq!(got.len(), 1, "{got:?}");
    }

    #[test]
    fn non_lock_types_are_out_of_scope() {
        let got = pass(
            "pub struct S { peers: Journal<u32> }\n\
             impl S {\n\
               pub fn f(&self) {\n\
                 let g = self.peers.lock();\n\
                 greenps_simnet::n::Network::dispatch();\n\
                 drop(g);\n\
               }\n\
             }\n",
        );
        assert!(got.is_empty(), "{got:?}");
    }

    #[test]
    fn temporary_guard_across_delivery_call_is_flagged() {
        let got = pass(
            "pub struct S { peers: Mutex<u32> }\n\
             impl S {\n\
               pub fn f(&self) {\n\
                 self.peers.lock().touch(greenps_simnet::n::Network::dispatch());\n\
               }\n\
             }\n",
        );
        assert_eq!(got.len(), 1, "{got:?}");
        assert!(got[0].message.contains("temporary guard on `peers`"));
    }

    // The two joins below fail with a lexical walk, which drops the
    // guard at `drop(g)` on every path.

    #[test]
    fn channel_send_after_a_one_branch_drop_is_flagged() {
        let src = "fn f(&self, c: bool) {\n    let g = self.stats.lock();\n    if c { drop(g); }\n    self.tx.send(Msg::Ping).ok();\n}\n";
        let files = [SourceFile::new("crates/net/src/tcp.rs", src)];
        let got = crate::lock_hygiene::check_guard_across_channel(&files);
        assert_eq!(got.len(), 1, "{got:?}");
        assert!(got[0].message.contains("`g`"), "{got:?}");
        assert_eq!(got[0].line, 4);
    }

    #[test]
    fn lock_after_a_one_branch_drop_records_an_edge() {
        let src = "fn f(&self, c: bool) {\n    let a = self.peers.lock();\n    if c { drop(a); }\n    let b = self.stats.lock();\n    drop(b);\n}\n";
        let file = SourceFile::new("crates/net/src/x.rs", src);
        let edges = crate::lock_order::file_edges("net", &file, &lock_types(&[]));
        let got: Vec<(&str, &str, usize)> = edges
            .iter()
            .map(|e| (e.from.as_str(), e.to.as_str(), e.line))
            .collect();
        assert_eq!(got, vec![("net:peers", "net:stats", 4)]);
    }

    #[test]
    fn loop_back_edge_does_not_carry_a_guard_past_its_scope() {
        let src = "fn f(&self) {\n    loop {\n        self.tx.send(Msg::Ping).ok();\n        let g = self.stats.lock();\n        g.touch();\n    }\n}\n";
        let file = SourceFile::new("crates/net/src/tcp.rs", src);
        assert!(file_events(&file, &lock_types(&[]), true).is_empty());
    }

    #[test]
    fn one_acquisition_rule_for_every_consumer() {
        // Declared lock (through an alias), undeclared, and declared
        // non-lock receivers: the first two acquire, the third does not.
        let src = "type Table = Mutex<u32>;\n\
                   struct S { table: Arc<Table>, journal: Journal<u32> }\n\
                   fn f(&self) {\n\
                     let a = self.table.lock();\n\
                     let b = self.stats.lock();\n\
                     let c = self.journal.lock();\n\
                     drop(c); drop(b); drop(a);\n\
                   }\n";
        let file = SourceFile::new("crates/net/src/x.rs", src);
        let types = lock_types(std::slice::from_ref(&file));
        assert!(types.contains("Table"), "{types:?}");
        let acquired: Vec<(Event, Vec<String>)> = file_events(&file, &types, false)
            .into_iter()
            .map(|h| (h.event, h.guards.into_iter().map(|g| g.lock).collect()))
            .collect();
        assert_eq!(
            acquired,
            vec![(Event::Acquire("stats".into()), vec!["table".to_string()])]
        );
    }
}
