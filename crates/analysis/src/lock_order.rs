//! Lint 7: static lock-acquisition-order graph.
//!
//! Catches lock inversions at analysis time, on every path rather than
//! only those tests happen to execute. The guard-liveness engine in
//! [`guard_scope`] walks each function's CFG and reports every
//! acquisition met while a guard (a `let` binding or a statement
//! temporary) may be live; each such pair is an edge `A → B`: lock `B`
//! acquired while a guard on `A` is held. Cycles in the accumulated
//! graph are ordering violations: two threads taking the locks in
//! opposite orders can deadlock.
//!
//! Lock identity is the receiver chain with a leading `self` dropped
//! (`self.peers.lock()` → `peers`), scoped per crate. Only zero-arg
//! `.lock()`/`.read()`/`.write()` calls count, which keeps
//! `io::Read::read(&mut buf)`-style methods out of the graph.

use crate::guard_scope::{self, lock_types, Event};
use crate::{line_of, Finding, SourceFile};
use std::collections::{BTreeMap, BTreeSet};

/// Crates whose library code feeds the graph (the parking_lot users).
pub const CHECKED_CRATES: [&str; 2] = ["net", "telemetry"];

/// One observed held→acquired pair.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Edge {
    /// Lock already held (crate-scoped receiver chain).
    pub from: String,
    /// Lock acquired while `from` was held.
    pub to: String,
    /// Repo-relative path of the acquisition site.
    pub path: String,
    /// 1-based line of the acquisition site.
    pub line: usize,
}

/// Held→acquired edges of one file's non-test functions, taken from
/// the guard-liveness engine. `krate` scopes lock identities so
/// unrelated crates cannot alias.
pub fn file_edges(krate: &str, file: &SourceFile, lock_types: &BTreeSet<String>) -> Vec<Edge> {
    let mut edges = Vec::new();
    for held in guard_scope::file_events(file, lock_types, false) {
        let Event::Acquire(chain) = &held.event else {
            continue;
        };
        let to = format!("{krate}:{chain}");
        for g in &held.guards {
            let from = format!("{krate}:{}", g.lock);
            if from != to {
                edges.push(Edge {
                    from,
                    to: to.clone(),
                    path: file.path.clone(),
                    line: line_of(&file.content, held.offset),
                });
            }
        }
    }
    edges
}

/// Runs the lint: builds the workspace acquisition graph and reports
/// every cycle as a finding.
pub fn run(files: &[SourceFile]) -> Vec<Finding> {
    let types = lock_types(files);
    let mut edges: Vec<Edge> = Vec::new();
    for file in files {
        if let Some(krate) = file.crate_name() {
            if CHECKED_CRATES.contains(&krate) && file.is_library_code() {
                edges.extend(file_edges(krate, file, &types));
            }
        }
    }
    findings_from_edges(&edges)
}

/// Cycle detection over an explicit edge list (exposed for tests).
pub fn findings_from_edges(edges: &[Edge]) -> Vec<Finding> {
    let mut adj: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    let mut site: BTreeMap<(&str, &str), (&str, usize)> = BTreeMap::new();
    for e in edges {
        adj.entry(&e.from).or_default().insert(&e.to);
        site.entry((&e.from, &e.to)).or_insert((&e.path, e.line));
    }

    // DFS with an explicit stack path; a back edge into the current
    // path closes a cycle. Each cycle is reported once, keyed by its
    // sorted node set.
    let mut findings = Vec::new();
    let mut reported: BTreeSet<Vec<&str>> = BTreeSet::new();
    let nodes: Vec<&str> = adj.keys().copied().collect();
    for &start in &nodes {
        let mut path: Vec<&str> = vec![start];
        dfs(start, &adj, &mut path, &mut reported, &site, &mut findings);
    }
    findings
}

fn dfs<'a>(
    node: &'a str,
    adj: &BTreeMap<&'a str, BTreeSet<&'a str>>,
    path: &mut Vec<&'a str>,
    reported: &mut BTreeSet<Vec<&'a str>>,
    site: &BTreeMap<(&'a str, &'a str), (&'a str, usize)>,
    findings: &mut Vec<Finding>,
) {
    let Some(nexts) = adj.get(node) else {
        return;
    };
    for &next in nexts {
        if let Some(pos) = path.iter().position(|&n| n == next) {
            let cycle: Vec<&str> = path[pos..].to_vec();
            let mut key = cycle.clone();
            key.sort_unstable();
            if reported.insert(key) {
                let (p, line) = site.get(&(node, next)).copied().unwrap_or(("", 0));
                let shown: Vec<&str> = cycle.iter().chain([&next]).copied().collect();
                findings.push(Finding {
                    lint: "lock-order",
                    path: p.to_string(),
                    line,
                    message: format!(
                        "lock-order cycle: {} — acquire these locks in one global order",
                        shown.join(" -> ")
                    ),
                });
            }
            continue;
        }
        if path.len() > 64 {
            continue; // defensive bound; real graphs are tiny
        }
        path.push(next);
        dfs(next, adj, path, reported, site, findings);
        path.pop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn edges(src: &str) -> Vec<(String, String)> {
        let file = SourceFile::new("crates/net/src/x.rs", src);
        file_edges("net", &file, &lock_types(&[]))
            .into_iter()
            .map(|e| (e.from, e.to))
            .collect()
    }

    #[test]
    fn nested_acquisition_records_edge() {
        let src = "fn f(&self) {\n    let a = self.peers.lock();\n    let b = self.stats.lock();\n    drop(b);\n    drop(a);\n}\n";
        assert_eq!(
            edges(src),
            vec![("net:peers".to_string(), "net:stats".to_string())]
        );
    }

    #[test]
    fn scope_exit_and_drop_release_guards() {
        let src = "fn f(&self) {\n    { let a = self.peers.lock(); let _ = a; }\n    let b = self.stats.lock();\n    drop(b);\n    let c = self.peers.read();\n    let _ = c;\n}\n";
        assert!(edges(src).is_empty(), "{:?}", edges(src));
    }

    #[test]
    fn io_style_calls_with_args_are_ignored() {
        let src = "fn f(&self, buf: &mut [u8]) {\n    let a = self.peers.lock();\n    self.file.read(buf);\n    self.file.write(buf);\n}\n";
        assert!(edges(src).is_empty(), "{:?}", edges(src));
    }

    #[test]
    fn consistent_order_is_clean_inverted_order_cycles() {
        let consistent = vec![
            Edge {
                from: "net:a".into(),
                to: "net:b".into(),
                path: "p.rs".into(),
                line: 1,
            },
            Edge {
                from: "net:b".into(),
                to: "net:c".into(),
                path: "p.rs".into(),
                line: 2,
            },
            Edge {
                from: "net:a".into(),
                to: "net:c".into(),
                path: "p.rs".into(),
                line: 3,
            },
        ];
        assert!(findings_from_edges(&consistent).is_empty());

        let inverted = vec![
            Edge {
                from: "net:a".into(),
                to: "net:b".into(),
                path: "p.rs".into(),
                line: 1,
            },
            Edge {
                from: "net:b".into(),
                to: "net:a".into(),
                path: "q.rs".into(),
                line: 9,
            },
        ];
        let got = findings_from_edges(&inverted);
        assert_eq!(got.len(), 1, "{got:?}");
        assert!(got[0].message.contains("cycle"));
        assert!(got[0].message.contains("net:a"));
    }

    #[test]
    fn end_to_end_cycle_from_source() {
        let files = vec![SourceFile::new(
            "crates/net/src/x.rs",
            "fn f(&self) {\n    let a = self.peers.lock();\n    let b = self.stats.lock();\n    drop(b); drop(a);\n}\nfn g(&self) {\n    let b = self.stats.lock();\n    let a = self.peers.lock();\n    drop(a); drop(b);\n}\n",
        )];
        let got = run(&files);
        assert_eq!(got.len(), 1, "{got:?}");
        assert!(got[0].message.contains("lock-order cycle"));
    }

    #[test]
    fn test_code_is_exempt() {
        let files = vec![SourceFile::new(
            "crates/net/src/x.rs",
            "#[cfg(test)]\nmod tests {\n    fn t(&self) {\n        let b = self.stats.lock();\n        let a = self.peers.lock();\n        drop(a); drop(b);\n        let a2 = self.peers.lock();\n        let b2 = self.stats.lock();\n        drop(b2); drop(a2);\n    }\n}\n",
        )];
        assert!(run(&files).is_empty());
    }
}
