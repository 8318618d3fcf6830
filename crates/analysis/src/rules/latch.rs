//! `latch-order` and `latch-hold-io`: enforce the canonical latch
//! hierarchy ([`hermit_core::latches::LATCH_HIERARCHY`]) over
//! `crates/core`.
//!
//! # Model
//!
//! Acquisitions are recognized lexically: `recv.read()` / `recv.write()` /
//! `recv.lock()` where `recv`'s final path segment is a declared receiver,
//! or a declared no-argument guard-returning method (`wal_guard()`,
//! `composites_mut()`, …). Guard lifetime uses the same heuristic a
//! reviewer applies when scanning a diff:
//!
//! * `let g = x.read();` — **held** to the end of the enclosing block
//!   (or an explicit `drop(g)`);
//! * anything else (`x.read().get(k)`, guards built inside match arms or
//!   tuples) — **transient**, live to the end of the current statement.
//!
//! The heuristic under-approximates (a guard smuggled through a tuple
//! into a long-lived binding is tracked only to its statement), so it can
//! miss a violation, but it does not invent one — the right bias for a
//! linter gating CI. Within any tracked window the rules are exact:
//! acquiring a latch that ranks at-or-above a held one is `latch-order`,
//! and a call that reaches the device (`sync_all`, WAL `append`, …) while
//! a non-`io_safe` latch is held is `latch-hold-io`.
//!
//! One device call is stricter than the rest: the **commit wait**
//! (`wait_durable`, `COMMIT_WAIT_CALLS`) parks on the log's fsync, and
//! may be entered under the quiesce latch only. The WAL guard is `io_safe`
//! for the `write` it brackets, never for a commit fsync — every other
//! statement would queue behind the device — and the transaction manager's
//! visibility latch (`read_visibility()` / `write_visibility()`; it lives in
//! `hermit_txn`, outside the ranked hierarchy, so it is tracked here for
//! this rule alone) would stall every reader. Either one held across a
//! commit wait is `latch-hold-io` too.

use crate::diag::{Diagnostic, RuleId};
use crate::lexer::{Token, TokenKind};
use crate::scope::Func;
use hermit_core::latches::{level_for_method, level_for_receiver, LatchLevel, LATCH_HIERARCHY};

/// Calls that reach the device: fsync family plus the WAL append/log
/// family. Holding a data latch across one of these stalls every reader
/// behind storage latency. Shared with the interprocedural pass
/// ([`crate::summary`]), which uses it to seed each function's local
/// `does_io` fact.
pub(crate) const IO_CALLS: &[&str] = &[
    "sync_all",
    "sync_data",
    "sync_dir",
    "append",
    "append_txn_commit",
    "append_txn_abort",
    "commit_point",
    "make_durable",
    "wait_durable",
    "log_txn",
    "log_txn_abort",
    "commit_auto",
    "force_commit",
];

/// The commit wait: [`IO_CALLS`] members that park on the log's fsync. Only
/// the quiesce latch may be held across one (see the module docs).
pub(crate) const COMMIT_WAIT_CALLS: &[&str] = &["wait_durable"];

/// Rank of the WAL guard in `LATCH_HIERARCHY`.
const WAL_GUARD_RANK: u32 = 20;

/// Guard-returning methods of the transaction manager's visibility latch.
const VISIBILITY_METHODS: &[&str] = &["read_visibility", "write_visibility"];

/// A tracked hold of the visibility latch (not a ranked [`Acquisition`]).
pub(crate) struct VisibilityHold {
    /// The acquiring method, for messages.
    pub(crate) via: String,
    pub(crate) pos: usize,
    /// Exclusive end of the guard's tracked lifetime.
    pub(crate) scope_end: usize,
}

/// Scan one function's effective tokens for visibility-latch acquisitions,
/// with the same guard-lifetime heuristic as [`find_acquisitions`].
pub(crate) fn find_visibility_holds(tokens: &[Token], eff: &[usize]) -> Vec<VisibilityHold> {
    let tok = |p: usize| -> &Token { &tokens[eff[p]] };
    let mut holds = Vec::new();
    for p in 0..eff.len().saturating_sub(3) {
        let m = tok(p + 1);
        if tok(p).is_punct(".")
            && m.kind == TokenKind::Ident
            && VISIBILITY_METHODS.contains(&m.text.as_str())
            && tok(p + 2).is_punct("(")
            && tok(p + 3).is_punct(")")
        {
            let scope_end = guard_scope_end(eff, tokens, p, p + 3);
            holds.push(VisibilityHold { via: m.text.clone(), pos: p + 1, scope_end });
        }
    }
    holds
}

/// What forbids a commit wait at effective position `p`: the WAL guard or
/// the visibility latch, held there. `(via, latch name)`.
pub(crate) fn commit_wait_blocker(
    acqs: &[Acquisition],
    vis: &[VisibilityHold],
    p: usize,
) -> Option<(String, &'static str)> {
    let spans = |pos: usize, end: usize| p > pos && p < end;
    acqs.iter()
        .find(|a| a.level.rank == WAL_GUARD_RANK && spans(a.pos, a.scope_end))
        .map(|a| (a.via.clone(), a.level.name))
        .or_else(|| {
            vis.iter()
                .find(|v| spans(v.pos, v.scope_end))
                .map(|v| (v.via.clone(), "txn-visibility"))
        })
}

/// One recognized latch acquisition inside a function.
pub(crate) struct Acquisition {
    pub(crate) level: &'static LatchLevel,
    /// Receiver or method name, for messages.
    pub(crate) via: String,
    /// Position (into the effective token vec) of the receiver/method.
    pub(crate) pos: usize,
    pub(crate) line: u32,
    /// Exclusive end of the guard's tracked lifetime.
    pub(crate) scope_end: usize,
}

/// A function's effective token positions: body indices minus nested fns
/// and comments. Every latch/IP scan operates on this view.
pub(crate) fn effective_indices(tokens: &[Token], func: &Func) -> Vec<usize> {
    func.body_indices()
        .filter(|&i| !matches!(tokens[i].kind, TokenKind::LineComment | TokenKind::BlockComment))
        .collect()
}

/// Scan one function's effective tokens for latch acquisitions, with the
/// guard-lifetime heuristic documented in the module docs.
pub(crate) fn find_acquisitions(tokens: &[Token], eff: &[usize]) -> Vec<Acquisition> {
    let tok = |p: usize| -> &Token { &tokens[eff[p]] };
    let mut acqs: Vec<Acquisition> = Vec::new();
    let mut p = 0usize;
    while p + 3 < eff.len() {
        if !tok(p).is_punct(".") {
            p += 1;
            continue;
        }
        let m = tok(p + 1);
        if m.kind != TokenKind::Ident || !tok(p + 2).is_punct("(") || !tok(p + 3).is_punct(")") {
            p += 1;
            continue;
        }
        let (level, via) = if matches!(m.text.as_str(), "read" | "write" | "lock") {
            // Receiver = identifier directly before the dot.
            if p == 0 || tok(p - 1).kind != TokenKind::Ident {
                p += 1;
                continue;
            }
            let recv = tok(p - 1).text.clone();
            match level_for_receiver(&recv) {
                Some(l) => (l, recv),
                None => {
                    p += 1;
                    continue;
                }
            }
        } else {
            match level_for_method(&m.text) {
                Some(l) => (l, m.text.clone()),
                None => {
                    p += 1;
                    continue;
                }
            }
        };
        let call_end = p + 3; // the `)`
        let scope_end = guard_scope_end(eff, tokens, p, call_end);
        acqs.push(Acquisition { level, via, pos: p + 1, line: m.line, scope_end });
        p = call_end + 1;
    }
    acqs
}

/// Render the declared order for diagnostics.
fn order_string() -> String {
    LATCH_HIERARCHY.iter().map(|l| l.name).collect::<Vec<_>>().join(" -> ")
}

/// Run both latch rules over one function of a `crates/core` file.
pub fn check_function(file: &str, tokens: &[Token], func: &Func, out: &mut Vec<Diagnostic>) {
    // Effective tokens: the function body minus nested fns and comments.
    let eff = effective_indices(tokens, func);
    let tok = |p: usize| -> &Token { &tokens[eff[p]] };

    // --- Pass 1: find acquisitions. ---
    let acqs = find_acquisitions(tokens, &eff);

    // --- Pass 2: order violations. ---
    for (i, a) in acqs.iter().enumerate() {
        for b in &acqs[..i] {
            if a.pos > b.pos && a.pos < b.scope_end && a.level.rank < b.level.rank {
                out.push(Diagnostic {
                    file: file.to_string(),
                    line: a.line,
                    rule: RuleId::LatchOrder,
                    message: format!(
                        "fn `{}` acquires `{}` ({}, rank {}) while holding `{}` ({}, rank {}); \
                         declared order: {}",
                        func.name,
                        a.via,
                        a.level.name,
                        a.level.rank,
                        b.via,
                        b.level.name,
                        b.level.rank,
                        order_string()
                    ),
                    chain: Vec::new(),
                    allowed: None,
                });
            }
        }
    }

    // --- Pass 3: non-io_safe guards held across device calls, and the WAL
    // guard or the visibility latch held across a commit wait. ---
    let vis = find_visibility_holds(tokens, &eff);
    for p in 0..eff.len() {
        let t = tok(p);
        if t.kind != TokenKind::Ident
            || !IO_CALLS.contains(&t.text.as_str())
            || p + 1 >= eff.len()
            || !tok(p + 1).is_punct("(")
        {
            continue;
        }
        // Skip the definitions themselves (`fn sync_dir(` …).
        if p > 0 && tok(p - 1).is_ident("fn") {
            continue;
        }
        for a in &acqs {
            if !a.level.io_safe && p > a.pos && p < a.scope_end {
                out.push(Diagnostic {
                    file: file.to_string(),
                    line: t.line,
                    rule: RuleId::LatchHoldIo,
                    message: format!(
                        "fn `{}` calls `{}` while holding `{}` ({}); only the quiesce latch and \
                         the WAL guard may be held across durability I/O",
                        func.name, t.text, a.via, a.level.name
                    ),
                    chain: Vec::new(),
                    allowed: None,
                });
            }
        }
        if COMMIT_WAIT_CALLS.contains(&t.text.as_str()) {
            if let Some((via, latch)) = commit_wait_blocker(&acqs, &vis, p) {
                out.push(Diagnostic {
                    file: file.to_string(),
                    line: t.line,
                    rule: RuleId::LatchHoldIo,
                    message: format!(
                        "fn `{}` parks in `{}` while holding `{via}` ({latch}); a commit wait \
                         may be entered under the quiesce latch only",
                        func.name, t.text
                    ),
                    chain: Vec::new(),
                    allowed: None,
                });
            }
        }
    }
}

/// Compute the exclusive end position of a guard's tracked lifetime.
///
/// Held (`let g = …read();` — the acquisition terminates the initializer):
/// to the end of the enclosing block, cut short by `drop(g)`. Transient:
/// to the end of the current statement (`;`), or the opening of a trailing
/// block / end of the enclosing group, whichever comes first.
fn guard_scope_end(eff: &[usize], tokens: &[Token], acq_pos: usize, call_end: usize) -> usize {
    let tok = |p: usize| -> &Token { &tokens[eff[p]] };

    // Chain end: the next token after `)` (skipping `?`) must close the
    // statement for the guard itself to be what's bound.
    let mut after = call_end + 1;
    if after < eff.len() && tok(after).is_punct("?") {
        after += 1;
    }
    let chain_ends_stmt = after < eff.len() && tok(after).is_punct(";");

    // Does the current statement begin with `let`? Walk backwards to the
    // statement boundary, skipping complete groups.
    let mut stmt_start = 0usize;
    let mut c = 0usize;
    let mut q = acq_pos;
    while q > 0 {
        q -= 1;
        let t = tok(q);
        if t.is_punct(")") || t.is_punct("]") || t.is_punct("}") {
            c += 1;
        } else if t.is_punct("(") || t.is_punct("[") {
            c = c.saturating_sub(1);
        } else if t.is_punct("{") {
            if c == 0 {
                stmt_start = q + 1;
                break;
            }
            c -= 1;
        } else if c == 0 && (t.is_punct(";") || t.is_punct("=>") || t.is_punct(",")) {
            stmt_start = q + 1;
            break;
        }
    }
    let is_let = tok(stmt_start).is_ident("let");

    if is_let && chain_ends_stmt {
        // Binding name for `drop(g)` detection: `let [mut] name = …`.
        let mut n = stmt_start + 1;
        if n < eff.len() && tok(n).is_ident("mut") {
            n += 1;
        }
        let bind = (tok(n).kind == TokenKind::Ident).then(|| tok(n).text.clone());

        // Enclosing block end: first unmatched `}` after the acquisition.
        let mut depth = 0usize;
        let mut p = call_end + 1;
        while p < eff.len() {
            let t = tok(p);
            if t.is_punct("{") {
                depth += 1;
            } else if t.is_punct("}") {
                if depth == 0 {
                    break;
                }
                depth -= 1;
            } else if depth == 0 {
                if let Some(name) = &bind {
                    // `drop(name)` ends the hold early.
                    if t.is_ident("drop")
                        && p + 2 < eff.len()
                        && tok(p + 1).is_punct("(")
                        && tok(p + 2).is_ident(name)
                    {
                        return p;
                    }
                }
            }
            p += 1;
        }
        p
    } else {
        // Transient: to the end of the current statement.
        let mut c = 0usize;
        let mut p = call_end + 1;
        while p < eff.len() {
            let t = tok(p);
            if t.is_punct("(") || t.is_punct("[") {
                c += 1;
            } else if t.is_punct(")") || t.is_punct("]") {
                if c == 0 {
                    break; // exiting the enclosing group
                }
                c -= 1;
            } else if t.is_punct("{") {
                if c == 0 {
                    break; // trailing block opens: condition temporaries die
                }
                c += 1;
            } else if t.is_punct("}") {
                if c == 0 {
                    break;
                }
                c -= 1;
            } else if c == 0 && (t.is_punct(";") || t.is_punct(",") || t.is_punct("=>")) {
                break;
            }
            p += 1;
        }
        p
    }
}
