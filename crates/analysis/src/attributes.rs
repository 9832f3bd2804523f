//! Lint 4: crate-root attribute policy.
//!
//! Every first-party crate root must carry `#![forbid(unsafe_code)]`
//! and `#![deny(missing_docs)]`. Vendored stand-ins under `vendor/`
//! only need the unsafe-code ban (their docs mirror upstream APIs).

use crate::lexer::{self, Token};
use crate::{Finding, SourceFile};

/// Required inner attributes for first-party crate roots.
pub const REQUIRED: [&str; 2] = ["#![forbid(unsafe_code)]", "#![deny(missing_docs)]"];

/// True when the code tokens contain `attr`'s token sequence, so
/// whitespace inside the attribute does not matter and a commented-out
/// or quoted attribute does not count.
fn has_inner_attr(code: &[&Token<'_>], attr: &str) -> bool {
    let want: Vec<&str> = lexer::tokenize(attr).iter().map(|t| t.text).collect();
    code.windows(want.len())
        .any(|w| w.iter().map(|t| t.text).eq(want.iter().copied()))
}

/// True when `path` is a crate root this lint governs.
fn policy_for(path: &str) -> Option<&'static [&'static str]> {
    if path == "src/lib.rs" || (path.starts_with("crates/") && path.ends_with("/src/lib.rs")) {
        Some(&REQUIRED)
    } else if path.starts_with("vendor/") && path.ends_with("/src/lib.rs") {
        Some(&REQUIRED[..1])
    } else {
        None
    }
}

/// Runs the attribute lint over `files`; non-crate-roots pass through.
pub fn run(files: &[SourceFile]) -> Vec<Finding> {
    let mut findings = Vec::new();
    for file in files {
        let Some(required) = policy_for(&file.path) else {
            continue;
        };
        let toks = lexer::tokenize(&file.content);
        let code = lexer::code(&toks);
        for attr in required {
            if !has_inner_attr(&code, attr) {
                findings.push(Finding {
                    lint: "attributes",
                    path: file.path.clone(),
                    line: 0,
                    message: format!("crate root is missing `{attr}`"),
                });
            }
        }
        // `warn(missing_docs)` alongside deny would shadow nothing, but
        // its presence means the promotion was done by addition, not
        // replacement — flag the leftover.
        if file.path.starts_with("crates/") && has_inner_attr(&code, "#![warn(missing_docs)]") {
            findings.push(Finding {
                lint: "attributes",
                path: file.path.clone(),
                line: 0,
                message: "leftover `#![warn(missing_docs)]` — superseded by the deny".to_string(),
            });
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn missing_attributes_fire() {
        let files = vec![SourceFile::new(
            "crates/core/src/lib.rs",
            "//! Docs.\n#![warn(missing_docs)]\npub fn f() {}\n",
        )];
        let got = run(&files);
        assert_eq!(got.len(), 3, "{got:?}");
        assert!(got.iter().any(|f| f.message.contains("unsafe_code")));
        assert!(got.iter().any(|f| f.message.contains("deny(missing_docs)")));
        assert!(got.iter().any(|f| f.message.contains("leftover")));
    }

    #[test]
    fn compliant_root_passes() {
        let files = vec![SourceFile::new(
            "crates/core/src/lib.rs",
            "//! Docs.\n#![forbid(unsafe_code)]\n#![deny(missing_docs)]\npub fn f() {}\n",
        )];
        assert!(run(&files).is_empty());
    }

    #[test]
    fn vendor_needs_only_unsafe_ban_and_modules_are_exempt() {
        let files = vec![
            SourceFile::new("vendor/rand/src/lib.rs", "#![forbid(unsafe_code)]\n"),
            SourceFile::new("crates/core/src/overlay.rs", "pub fn f() {}\n"),
        ];
        assert!(run(&files).is_empty());

        let files = vec![SourceFile::new("vendor/rand/src/lib.rs", "pub fn f() {}\n")];
        assert_eq!(run(&files).len(), 1);
    }

    #[test]
    fn commented_attribute_does_not_count() {
        let files = vec![SourceFile::new(
            "crates/core/src/lib.rs",
            "// #![forbid(unsafe_code)]\n// #![deny(missing_docs)]\n",
        )];
        assert_eq!(run(&files).len(), 2);
    }
}
