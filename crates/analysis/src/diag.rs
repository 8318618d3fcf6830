//! Diagnostics and the `// hermit-lint: allow(rule-id) reason` escape
//! hatch.
//!
//! Every rule reports stable `file:line: [rule-id] message` diagnostics.
//! The **only** way to silence one is an inline annotation on the finding
//! line or the line directly above it — and the reason is mandatory: an
//! allow without a justification is itself a finding (`bad-annotation`),
//! so the annotation layer can never become a silent bypass.

use crate::lexer::{Token, TokenKind};
use std::fmt;

/// Stable rule identifiers, used in diagnostics and annotations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RuleId {
    /// Allocation constructor inside a `hermit-lint: hot-path` function.
    HotAlloc,
    /// Durability syscall without a `fault_point` in the same function.
    FaultCoverage,
    /// The same fault site name declared at two call sites.
    FaultUnique,
    /// Storage fault sites out of sync with `hermit_fault::CRASH_MATRIX_SITES`.
    FaultMatrix,
    /// `rename` without a preceding fsync in the same function.
    FsyncBeforeRename,
    /// A malformed `hermit-lint:` annotation (missing reason, unknown rule).
    BadAnnotation,
}

impl RuleId {
    /// The stable string form used in output and in `allow(…)`.
    pub fn as_str(self) -> &'static str {
        match self {
            RuleId::HotAlloc => "hot-alloc",
            RuleId::FaultCoverage => "fault-coverage",
            RuleId::FaultUnique => "fault-unique",
            RuleId::FaultMatrix => "fault-matrix",
            RuleId::FsyncBeforeRename => "fsync-before-rename",
            RuleId::BadAnnotation => "bad-annotation",
        }
    }

    /// Parse the string form; `None` for unknown rules.
    pub fn parse(s: &str) -> Option<RuleId> {
        Some(match s {
            "hot-alloc" => RuleId::HotAlloc,
            "fault-coverage" => RuleId::FaultCoverage,
            "fault-unique" => RuleId::FaultUnique,
            "fault-matrix" => RuleId::FaultMatrix,
            "fsync-before-rename" => RuleId::FsyncBeforeRename,
            _ => return None,
        })
    }
}

impl fmt::Display for RuleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One finding. `allowed` carries the annotation reason when suppressed;
/// `--deny-all` only counts findings with `allowed == None`.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// Workspace-relative path with `/` separators.
    pub file: String,
    /// 1-based source line.
    pub line: u32,
    /// Which rule fired.
    pub rule: RuleId,
    /// Human-readable message.
    pub message: String,
    /// `Some(reason)` when an inline annotation suppressed the finding.
    pub allowed: Option<String>,
}

impl Diagnostic {
    /// An unsuppressed finding.
    pub fn new(file: &str, line: u32, rule: RuleId, message: String) -> Diagnostic {
        Diagnostic { file: file.to_string(), line, rule, message, allowed: None }
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.file, self.line, self.rule, self.message)
    }
}

/// One parsed `hermit-lint:` annotation.
#[derive(Debug, Clone)]
pub struct Annotation {
    /// Line the comment sits on.
    pub line: u32,
    /// The rule it allows (`None` for malformed / unknown).
    pub rule: Option<RuleId>,
    /// The justification text after the `allow(…)`.
    pub reason: String,
}

const MARKER: &str = "hermit-lint:";

/// Sentinel reason for `hermit-lint: hot-path` markers (rule-less
/// annotations that never suppress anything; see [`hot_path_lines`]).
pub const HOT_PATH: &str = "\u{0}hot-path";

/// Lines carrying a `hermit-lint: hot-path` marker.
pub fn hot_path_lines(anns: &[Annotation]) -> Vec<u32> {
    anns.iter().filter(|a| a.rule.is_none() && a.reason == HOT_PATH).map(|a| a.line).collect()
}

/// Extract every `hermit-lint:` annotation from a token stream, returning
/// the annotations plus a `bad-annotation` diagnostic for each malformed
/// one (missing reason, unknown rule, unparsable shape).
///
/// Only comments that **begin** with the marker are annotations; this
/// keeps prose that merely mentions the syntax (doc comments, whose text
/// starts with `/` or `!`) from being parsed as one.
pub fn collect_annotations(file: &str, tokens: &[Token]) -> (Vec<Annotation>, Vec<Diagnostic>) {
    let mut anns = Vec::new();
    let mut bad = Vec::new();
    for t in tokens {
        if !matches!(t.kind, TokenKind::LineComment | TokenKind::BlockComment) {
            continue;
        }
        let Some(rest) = t.text.trim_start().strip_prefix(MARKER) else { continue };
        let rest = rest.trim_start();
        let mut push_bad = |msg: String| {
            bad.push(Diagnostic::new(file, t.line, RuleId::BadAnnotation, msg));
        };
        // `hermit-lint: hot-path` marks the next function for the
        // `hot-alloc` rule; it is a marker, not an allow, and carries no
        // reason. Recorded as a rule-less annotation the hot-alloc rule
        // looks up by line.
        if rest == "hot-path" {
            anns.push(Annotation { line: t.line, rule: None, reason: HOT_PATH.to_string() });
            continue;
        }
        let Some(args) = rest.strip_prefix("allow(") else {
            push_bad("annotation must be `hermit-lint: allow(rule-id) reason`".to_string());
            continue;
        };
        let Some(close) = args.find(')') else {
            push_bad("unclosed `allow(` in annotation".to_string());
            continue;
        };
        let rule_str = args[..close].trim();
        let reason = args[close + 1..].trim().to_string();
        let rule = RuleId::parse(rule_str);
        if rule.is_none() {
            push_bad(format!("unknown rule `{rule_str}` in allow(…)"));
            continue;
        }
        if reason.is_empty() {
            push_bad(format!(
                "allow({rule_str}) without a reason — the justification is mandatory"
            ));
            continue;
        }
        anns.push(Annotation { line: t.line, rule, reason });
    }
    (anns, bad)
}

/// Apply annotations to raw findings: a finding on line `L` is allowed by
/// a matching annotation on `L` (trailing comment) or `L - 1` (the line
/// above).
pub fn apply_annotations<'a>(
    diags: impl IntoIterator<Item = &'a mut Diagnostic>,
    anns: &[Annotation],
) {
    for d in diags {
        if d.allowed.is_some() {
            continue;
        }
        for a in anns {
            if a.rule == Some(d.rule) && (a.line == d.line || a.line + 1 == d.line) {
                d.allowed = Some(a.reason.clone());
                break;
            }
        }
    }
}
