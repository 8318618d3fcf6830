//! `forbid-unsafe`: every crate on the unsafe-free roster must keep
//! `#![forbid(unsafe_code)]` at its root.
//!
//! The whole workspace is written without `unsafe`; `forbid` (unlike
//! `deny`) cannot be overridden further down the module tree, so the
//! attribute is a durable guarantee. The lint keeps it from silently
//! disappearing in a refactor: dropping the attribute from any roster
//! crate — or deleting a roster file — is a finding.

use crate::diag::{Diagnostic, RuleId};
use crate::lexer::lex;

/// Crate roots that must carry `#![forbid(unsafe_code)]`. Everything in
/// the workspace qualifies today; a future crate that genuinely needs
/// `unsafe` (e.g. an mmap-backed heap) is removed from this roster in the
/// same PR that introduces the `unsafe` block, making the change visible
/// in review.
pub const FORBID_ROSTER: &[&str] = &[
    "src/lib.rs",
    "crates/analysis/src/lib.rs",
    "crates/bench/src/lib.rs",
    "crates/btree/src/lib.rs",
    "crates/core/src/lib.rs",
    "crates/fault/src/lib.rs",
    "crates/server/src/lib.rs",
    "crates/stats/src/lib.rs",
    "crates/storage/src/lib.rs",
    "crates/trs/src/lib.rs",
    "crates/txn/src/lib.rs",
    "crates/workloads/src/lib.rs",
];

/// Check the roster against the loaded workspace file set.
pub fn check(files: &[(String, String)], out: &mut Vec<Diagnostic>) {
    for want in FORBID_ROSTER {
        let Some((_, text)) = files.iter().find(|(p, _)| p == want) else {
            out.push(Diagnostic {
                file: (*want).to_string(),
                line: 1,
                rule: RuleId::ForbidUnsafe,
                message: "crate root on the unsafe-free roster is missing from the workspace; \
                          update FORBID_ROSTER if the crate was intentionally removed"
                    .to_string(),
                chain: Vec::new(),
                allowed: None,
            });
            continue;
        };
        let tokens = lex(text);
        let has_attr = tokens
            .windows(3)
            .any(|w| w[0].is_ident("forbid") && w[1].is_punct("(") && w[2].is_ident("unsafe_code"));
        if !has_attr {
            out.push(Diagnostic {
                file: (*want).to_string(),
                line: 1,
                rule: RuleId::ForbidUnsafe,
                message: "crate root must declare #![forbid(unsafe_code)]; the workspace is \
                          unsafe-free and the attribute keeps it that way"
                    .to_string(),
                chain: Vec::new(),
                allowed: None,
            });
        }
    }
}
