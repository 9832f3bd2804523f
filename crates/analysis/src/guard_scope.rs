//! Interprocedural pass 5: guard hold-scope (DESIGN.md §9.3).
//!
//! [`lock_order`](crate::lock_order) proves the *ordering* of lock
//! acquisitions is cycle-free; this pass bounds how long a guard may
//! be *held*. A parking_lot `Mutex`/`RwLock` guard that stays live
//! across a call into a closeness kernel, telemetry export, or simnet
//! delivery serializes exactly the work the workspace spends its time
//! in, and every other thread contending for that lock stalls behind
//! it; this pass rules the pattern out statically.
//!
//! Mechanically it is the first consumer of the CFG layer: guard
//! liveness is a forward may-analysis over basic blocks (gen at a
//! `let g = <recv>.lock()/.read()/.write()` on a lock-typed
//! receiver, kill at `drop(g)` or at the binding's scope-end byte),
//! so a guard dropped on only one branch of an `if` is still live at
//! the join — a case the lexical lock-order walk cannot see. Calls
//! are flagged when the live-guard set is non-empty and the call can
//! reach (via the call graph) one of the forbidden targets.

use std::collections::{BTreeMap, BTreeSet};

use crate::callgraph::CallGraph;
use crate::cfg::{forward_fixpoint, Cfg, Forward};
use crate::lexer::{self, Token, TokenKind};
use crate::lock_order::{chain_len, let_binding, receiver_chain};
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

/// Lock types whose guards this pass tracks (the parking_lot family;
/// the std locks are banned by the lock-hygiene lint).
const TRACKED_TYPES: [&str; 2] = ["Mutex", "RwLock"];

/// One live guard binding.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct Guard {
    /// Bound variable name (`drop(name)` kills it).
    name: String,
    /// Byte offset of the binding scope's closing brace.
    scope_end: usize,
    /// Receiver chain of the acquisition (for messages).
    lock: String,
    /// 1-based acquisition line.
    line: usize,
}

/// The guard-liveness dataflow over one function body.
struct GuardFlow<'a> {
    code: &'a [&'a Token<'a>],
    src: &'a str,
    tracked: &'a BTreeSet<String>,
    /// Byte offset past the end of the function body.
    body_end: usize,
}

/// A flagged crossing: `(call byte offset, live guards)`.
type Crossing = (usize, Vec<Guard>);

impl GuardFlow<'_> {
    /// Applies one block's gen/kill to `fact`. When `out` is given,
    /// records a crossing for every offset in `bad` met while a guard
    /// is live.
    fn walk(
        &self,
        cfg: &Cfg,
        block: usize,
        fact: &BTreeSet<Guard>,
        bad: &BTreeMap<usize, String>,
        mut out: Option<&mut Vec<Crossing>>,
    ) -> BTreeSet<Guard> {
        let mut fact = fact.clone();
        let mut stmt = usize::MAX; // statement-start token index
        for i in cfg.block_tokens(block) {
            if stmt == usize::MAX {
                stmt = i;
            }
            let t = self.code[i];
            fact.retain(|g| g.scope_end > t.start);
            if t.is_punct('{') || t.is_punct('}') || t.is_punct(';') {
                stmt = i + 1;
            } else if t.is_ident("drop")
                && self.code.get(i + 1).is_some_and(|n| n.is_punct('('))
                && self.code.get(i + 3).is_some_and(|n| n.is_punct(')'))
            {
                if let Some(arg) = self.code.get(i + 2).filter(|a| a.kind == TokenKind::Ident) {
                    fact.retain(|g| g.name != arg.text);
                }
            } else if t.is_punct('.')
                && self
                    .code
                    .get(i + 1)
                    .is_some_and(|m| m.kind == TokenKind::Ident && ACQUIRE.contains(&m.text))
                && self.code.get(i + 2).is_some_and(|n| n.is_punct('('))
                && self.code.get(i + 3).is_some_and(|n| n.is_punct(')'))
            {
                if let Some(chain) = receiver_chain(self.code, i) {
                    let field = chain.rsplit('.').next().unwrap_or(&chain);
                    if self.tracked.contains(field) {
                        let recv_start = (i + 1).saturating_sub(2 * chain_len(self.code, i));
                        if let Some(name) = let_binding(self.code, stmt, recv_start) {
                            fact.insert(Guard {
                                name,
                                scope_end: self.scope_end_after(i),
                                lock: chain,
                                line: line_of(self.src, t.start),
                            });
                        }
                    }
                }
            }
            if !fact.is_empty() && bad.contains_key(&t.start) {
                if let Some(out) = out.as_deref_mut() {
                    out.push((t.start, fact.iter().cloned().collect()));
                }
            }
        }
        fact
    }

    /// Byte offset of the closing brace of the scope enclosing token
    /// `i` (the binding's lexical lifetime end), bounded by the body.
    fn scope_end_after(&self, i: usize) -> usize {
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
        self.walk(cfg, block, input, &BTreeMap::new(), None)
    }
}

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

    let mut findings = Vec::new();
    let by_path: BTreeMap<&str, &SourceFile> = files.iter().map(|f| (f.path.as_str(), f)).collect();
    let mut tok_cache: BTreeMap<&str, (Vec<Token<'_>>, BTreeSet<String>)> = BTreeMap::new();

    for (n, node) in graph.nodes.iter().enumerate() {
        let item = &node.item;
        if item.is_test {
            continue;
        }
        let Some(body) = item.body else { continue };
        let Some(file) = by_path.get(node.file.as_str()) else {
            continue;
        };
        if !file.is_library_code() || !TRACKED_TYPES.iter().any(|t| file.content.contains(t)) {
            continue;
        }

        // Which calls in this fn can cross into a forbidden subsystem.
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

        let (toks, tracked) = tok_cache.entry(node.file.as_str()).or_insert_with(|| {
            let toks = lexer::tokenize(&file.content);
            let tracked = tracked_names(&lexer::code(&toks));
            (toks, tracked)
        });
        if tracked.is_empty() {
            continue;
        }
        let code = lexer::code(toks);
        let cfg = Cfg::build(&code, body, &file.content);
        let flow = GuardFlow {
            code: &code,
            src: &file.content,
            tracked,
            body_end: body.1,
        };
        let facts = forward_fixpoint(&cfg, &flow);
        let mut crossings: Vec<Crossing> = Vec::new();
        for (b, fact) in facts.iter().enumerate() {
            if let Some((inf, _)) = fact {
                flow.walk(&cfg, b, inf, &bad, Some(&mut crossings));
            }
        }
        crossings.sort();
        crossings.dedup();
        for (offset, guards) in crossings {
            let g = &guards[0];
            findings.push(Finding {
                lint: "guard-scope",
                path: node.file.clone(),
                line: line_of(&file.content, offset),
                message: format!(
                    "guard `{}` on `{}` (line {}) may be held across a call into {} — \
                     drop it before the call",
                    g.name,
                    g.lock,
                    g.line,
                    bad.get(&offset).map(String::as_str).unwrap_or("?"),
                ),
            });
        }
    }

    findings.sort_by(|a, b| (&a.path, a.line, &a.message).cmp(&(&b.path, b.line, &b.message)));
    findings.dedup();
    findings
}

/// Names declared with a lock type head (`peers: Mutex<…>` fields,
/// annotated lets/params), looking through a shared `Arc<…>`.
fn tracked_names(code: &[&Token<'_>]) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    for i in 0..code.len() {
        if code[i].kind != TokenKind::Ident
            || !code.get(i + 1).is_some_and(|c| c.is_punct(':'))
            || code.get(i + 2).is_some_and(|c| c.is_punct(':'))
        {
            continue;
        }
        // Walk the type path after `:` and take its last segment.
        let mut j = i + 2;
        let mut head: Option<&str> = None;
        while j < code.len() {
            match code[j].kind {
                TokenKind::Ident => head = Some(code[j].text),
                TokenKind::Punct if code[j].is_punct(':') => {}
                // `Arc<Mutex<…>>`: the shared lock is the head.
                TokenKind::Punct if code[j].is_punct('<') && head == Some("Arc") => head = None,
                _ => break,
            }
            j += 1;
        }
        if head.is_some_and(|h| TRACKED_TYPES.contains(&h)) {
            out.insert(code[i].text.to_string());
        }
    }
    out
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
}
