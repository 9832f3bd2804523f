//! Lint 3: lock hygiene.
//!
//! Two rules:
//!
//! 1. First-party crates must use `parking_lot::{Mutex, RwLock}`, never
//!    `std::sync::{Mutex, RwLock}` — the std variants poison, and the
//!    guard-scope pass tracks only the parking_lot family.
//! 2. In the net crate (the TCP backend's socket threads), a lock guard
//!    must not be held across a crossbeam channel `send`/`recv`: channel
//!    peers may block on the same lock, which turns a slow consumer
//!    into a deadlock.
//!
//! Rule 2 reads the guard-liveness engine in
//! [`guard_scope`](crate::guard_scope): every `.send(`/`.recv(`/
//! `.recv_timeout(`/`.try_recv(` call met while a guard may be live is
//! a finding, once per live guard.

use crate::guard_scope::{file_events, lock_types, Event};
use crate::lexer::{self, Token};
use crate::{line_of, Finding, SourceFile};

/// The std lock types rule 1 forbids.
const STD_LOCKS: [&str; 2] = ["Mutex", "RwLock"];

/// Rule 1: std sync primitive usage in any first-party crate, as a
/// `std::sync::Mutex` path or a `std::sync::{…, Mutex, …}` group.
pub fn check_std_sync(files: &[SourceFile]) -> Vec<Finding> {
    let mut findings = Vec::new();
    for file in files {
        if file.crate_name().is_none() {
            continue;
        }
        let toks = lexer::tokenize(&file.content);
        let code = lexer::code(&toks);
        let mut report = |t: &Token<'_>, name: &str| {
            findings.push(Finding {
                lint: "lock-hygiene",
                path: file.path.clone(),
                line: line_of(&file.content, t.start),
                message: format!(
                    "`std::sync::{name}` is forbidden — use the parking_lot equivalent"
                ),
            });
        };
        for i in 0..code.len() {
            let path = ["std", ":", ":", "sync", ":", ":"];
            if code.len() - i <= path.len()
                || !code[i..i + path.len()]
                    .iter()
                    .zip(path)
                    .all(|(t, p)| t.text == p)
            {
                continue;
            }
            let next = code[i + path.len()];
            if let Some(name) = STD_LOCKS.into_iter().find(|n| next.text.starts_with(n)) {
                report(code[i], name);
            } else if next.is_punct('{') {
                // Grouped import: a top-level `Mutex`/`RwLock` item.
                let mut depth = 0usize;
                for (k, t) in code.iter().enumerate().skip(i + path.len()) {
                    if t.is_punct('{') {
                        depth += 1;
                    } else if t.is_punct('}') {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    } else if depth == 1
                        && (code[k - 1].is_punct('{') || code[k - 1].is_punct(','))
                        && code
                            .get(k + 1)
                            .is_some_and(|n| n.is_punct(',') || n.is_punct('}'))
                    {
                        if let Some(name) = STD_LOCKS.into_iter().find(|&n| t.is_ident(n)) {
                            report(code[i], name);
                        }
                    }
                }
            }
        }
    }
    findings.sort_by(|a, b| (&a.path, a.line).cmp(&(&b.path, b.line)));
    findings
}

/// Rule 2: guard held across a channel operation, in net-crate library
/// code (test items included).
pub fn check_guard_across_channel(files: &[SourceFile]) -> Vec<Finding> {
    let types = lock_types(files);
    let mut findings = Vec::new();
    for file in files {
        if file.crate_name() != Some("net") || !file.is_library_code() {
            continue;
        }
        for held in file_events(file, &types, true) {
            let Event::Channel(op) = held.event else {
                continue;
            };
            let line = line_of(&file.content, held.offset);
            for g in &held.guards {
                let message = match &g.name {
                    Some(name) => format!(
                        "lock guard `{name}` (acquired line {}) held across `{op}` — drop it before touching the channel",
                        g.line
                    ),
                    None => format!(
                        "temporary lock guard (acquired line {}) held across `{op}` — split the statement and drop the guard first",
                        g.line
                    ),
                };
                findings.push(Finding {
                    lint: "lock-hygiene",
                    path: file.path.clone(),
                    line,
                    message,
                });
            }
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The channel rule over one net-crate library file.
    fn channel_findings(path: &str, src: &str) -> Vec<Finding> {
        check_guard_across_channel(&[SourceFile::new(path, src)])
    }

    #[test]
    fn std_mutex_fires() {
        let files = vec![SourceFile::new(
            "crates/net/src/x.rs",
            "use std::sync::Mutex;\nuse std::sync::{Arc, RwLock};\nlet m: std::sync::Mutex<u8>;\n",
        )];
        let got = check_std_sync(&files);
        assert_eq!(got.len(), 3, "{got:?}");
        assert!(got.iter().all(|f| f.message.contains("parking_lot")));
    }

    #[test]
    fn std_arc_and_atomics_pass() {
        let files = vec![SourceFile::new(
            "crates/net/src/x.rs",
            "use std::sync::Arc;\nuse std::sync::atomic::{AtomicBool, Ordering};\n",
        )];
        assert!(check_std_sync(&files).is_empty());
    }

    #[test]
    fn nested_groups_and_spaced_paths_fire() {
        let files = vec![SourceFile::new(
            "crates/net/src/x.rs",
            "use std::sync::{atomic::{AtomicBool, Ordering}, Mutex};\nlet m: std :: sync :: RwLock<u8>;\nlet s = \"std::sync::Mutex\"; // std::sync::Mutex\n",
        )];
        let got = check_std_sync(&files);
        let lines: Vec<usize> = got.iter().map(|f| f.line).collect();
        assert_eq!(lines, vec![1, 2], "{got:?}");
    }

    #[test]
    fn guard_across_send_fires() {
        let src = "fn f(&self) {\n    let stats = self.stats.lock();\n    self.tx.send(Msg::Ping).ok();\n}\n";
        let got = channel_findings("crates/net/src/tcp.rs", src);
        assert_eq!(got.len(), 1, "{got:?}");
        assert!(got[0].message.contains("`stats`"));
        assert_eq!(got[0].line, 3);
    }

    #[test]
    fn dropped_guard_passes() {
        let src = "fn f(&self) {\n    let stats = self.stats.lock();\n    drop(stats);\n    self.tx.send(Msg::Ping).ok();\n}\n";
        assert!(channel_findings("crates/net/src/tcp.rs", src).is_empty());
    }

    #[test]
    fn scoped_guard_passes() {
        let src = "fn f(&self) {\n    {\n        let stats = self.stats.lock();\n        stats.touch();\n    }\n    self.rx.recv().ok();\n}\n";
        assert!(channel_findings("crates/net/src/tcp.rs", src).is_empty());
    }

    #[test]
    fn temporary_guard_in_send_expression_fires() {
        let src = "fn f(&self) {\n    self.peers.read().get(&k).map(|tx| tx.send(m));\n}\n";
        let got = channel_findings("crates/net/src/tcp.rs", src);
        assert_eq!(got.len(), 1, "{got:?}");
        assert!(got[0].message.contains("temporary"));
    }

    #[test]
    fn channel_rule_covers_the_net_crate_only() {
        let src = "fn f(&self) {\n    let stats = self.stats.lock();\n    self.tx.send(Msg::Ping).ok();\n}\n";
        let files = vec![
            SourceFile::new("crates/net/src/tcp.rs", src),
            SourceFile::new("crates/workload/src/x.rs", src),
        ];
        let got = check_guard_across_channel(&files);
        assert_eq!(got.len(), 1, "{got:?}");
        assert_eq!(got[0].path, "crates/net/src/tcp.rs");
    }

    #[test]
    fn unrelated_methods_pass() {
        let src = "fn f(&self) {\n    let all = self.readings.read_all();\n    self.tx.sender();\n    self.log.write_back();\n}\n";
        assert!(channel_findings("crates/net/src/tcp.rs", src).is_empty());
    }
}
