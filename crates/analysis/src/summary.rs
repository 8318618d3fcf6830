//! Per-function latch summaries, propagated to a fixpoint over the call
//! graph — the engine behind `latch-order-ip` and `latch-hold-io-ip`.
//!
//! # Model
//!
//! Each function gets a **summary** built from its own body:
//!
//! * `acquires` — latch ranks the body acquires directly;
//! * `does_io` — whether the body itself calls into the durability layer
//!   (`rules::latch::IO_CALLS`), and whether one of those calls is a commit
//!   wait (`rules::latch::COMMIT_WAIT_CALLS`);
//! * per call site, the set of latches **provably held** at that point
//!   (an acquisition whose tracked guard scope spans the call — the same
//!   under-approximating lifetime heuristic the intraprocedural rule
//!   uses).
//!
//! Summaries then propagate callee → caller until nothing changes:
//! a function *reaches* an acquisition of rank `r` (or reaches I/O) if it
//! does so directly or any resolved callee does. Cycles are collapsed to
//! strongly-connected components first (Tarjan), and every function in an
//! SCC gets the conservative union of the component — recursion cannot
//! hide an acquisition. Unresolved calls contribute nothing (the same
//! miss-but-never-invent bias as the guard heuristic).
//!
//! # Rules
//!
//! * **`latch-order-ip`** — a call made while holding level L reaches an
//!   acquisition of level ≤ L. Note the ≤: re-acquiring the *same* level
//!   through a call is flagged too (self-deadlock on a write latch),
//!   which is why this is not just `latch-order` stretched across calls.
//!   Call sites whose callee is itself a declared latch-acquisition
//!   method are skipped — those are exactly the acquisitions the
//!   intraprocedural rule already judges, and double-reporting them would
//!   force every legal nesting to carry an allow.
//! * **`latch-hold-io-ip`** — a non-`io_safe` latch held across a call
//!   that transitively performs durability I/O, or the WAL guard / the
//!   visibility latch held across a call that transitively parks in a
//!   commit wait. Direct I/O calls are the intraprocedural
//!   `latch-hold-io`'s business and are skipped here.
//!
//! Both print the offending call chain (`a -> b -> c`), reconstructed by
//! BFS through resolved edges, so the diagnostic names the path a
//! reviewer must break, not just the endpoints.

use crate::callgraph::CallGraph;
use crate::diag::{Diagnostic, RuleId};
use crate::rules::latch::{self, Acquisition};
use hermit_core::latches::level_for_method;
use std::collections::BTreeSet;

/// What one function does, locally and (after propagation) transitively.
#[derive(Debug, Default, Clone)]
pub struct Summary {
    /// Latch ranks acquired in this function's own body.
    pub local_acquires: BTreeSet<u32>,
    /// Ranks acquired here or in any transitively-resolved callee.
    pub reaches_acquire: BTreeSet<u32>,
    /// Direct durability I/O in this function's own body.
    pub local_io: bool,
    /// I/O here or anywhere below.
    pub reaches_io: bool,
    /// A commit wait in this function's own body.
    pub local_commit_wait: bool,
    /// A commit wait here or anywhere below.
    pub reaches_commit_wait: bool,
}

/// Summaries for every node of a [`CallGraph`], propagated to fixpoint.
pub struct Summaries {
    pub per_fn: Vec<Summary>,
    /// `scc_id[f]` — the strongly-connected component containing `f`.
    pub scc_id: Vec<usize>,
}

/// Tarjan's SCC algorithm, iterative (analysis inputs are real source
/// files; a recursive walker would be at the mercy of their call depth).
fn tarjan(n: usize, succ: &[Vec<usize>]) -> Vec<usize> {
    let mut index = vec![usize::MAX; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut scc_id = vec![usize::MAX; n];
    let mut next_index = 0usize;
    let mut next_scc = 0usize;

    // Explicit DFS frames: (node, next child position).
    let mut frames: Vec<(usize, usize)> = Vec::new();
    for root in 0..n {
        if index[root] != usize::MAX {
            continue;
        }
        frames.push((root, 0));
        index[root] = next_index;
        low[root] = next_index;
        next_index += 1;
        stack.push(root);
        on_stack[root] = true;
        while let Some(&mut (v, ref mut ci)) = frames.last_mut() {
            if *ci < succ[v].len() {
                let w = succ[v][*ci];
                *ci += 1;
                if index[w] == usize::MAX {
                    index[w] = next_index;
                    low[w] = next_index;
                    next_index += 1;
                    stack.push(w);
                    on_stack[w] = true;
                    frames.push((w, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
            } else {
                frames.pop();
                if let Some(&(parent, _)) = frames.last() {
                    low[parent] = low[parent].min(low[v]);
                }
                if low[v] == index[v] {
                    loop {
                        let w = stack.pop().unwrap();
                        on_stack[w] = false;
                        scc_id[w] = next_scc;
                        if w == v {
                            break;
                        }
                    }
                    next_scc += 1;
                }
            }
        }
    }
    scc_id
}

/// Build local facts and run the fixpoint.
pub fn compute(graph: &CallGraph) -> Summaries {
    let n = graph.fns.len();
    let mut per_fn: Vec<Summary> = vec![Summary::default(); n];

    // Local facts. Acquisitions are re-derived with the shared latch
    // machinery; local I/O is an IO_CALLS ident at a call position.
    for (idx, summary) in per_fn.iter_mut().enumerate() {
        let (file_idx, func_idx) = graph.origin[idx];
        let ctx = &graph.files[file_idx];
        let func = &ctx.funcs[func_idx];
        let eff = latch::effective_indices(&ctx.tokens, func);
        for a in latch::find_acquisitions(&ctx.tokens, &eff) {
            summary.local_acquires.insert(a.level.rank);
        }
        for p in 0..eff.len() {
            let t = &ctx.tokens[eff[p]];
            if t.kind == crate::lexer::TokenKind::Ident
                && latch::IO_CALLS.contains(&t.text.as_str())
                && p + 1 < eff.len()
                && ctx.tokens[eff[p + 1]].is_punct("(")
                && !(p > 0 && ctx.tokens[eff[p - 1]].is_ident("fn"))
            {
                summary.local_io = true;
                summary.local_commit_wait |= latch::COMMIT_WAIT_CALLS.contains(&t.text.as_str());
            }
        }
        summary.reaches_acquire = summary.local_acquires.clone();
        summary.reaches_io = summary.local_io;
        summary.reaches_commit_wait = summary.local_commit_wait;
    }

    // Successor lists over resolved edges.
    let succ: Vec<Vec<usize>> =
        graph.fns.iter().map(|f| f.calls.iter().filter_map(|c| c.callee).collect()).collect();

    // SCC collapse, then fixpoint. With SCCs unioned, a reverse-topo pass
    // would converge in one sweep; iterating to quiescence is simpler and
    // the graphs are small (hundreds of nodes).
    let scc_id = tarjan(n, &succ);
    let mut changed = true;
    while changed {
        changed = false;
        for v in 0..n {
            for &w in &succ[v] {
                let (add_acq, add_io, add_wait): (Vec<u32>, bool, bool) = {
                    let sw = &per_fn[w];
                    (
                        sw.reaches_acquire
                            .difference(&per_fn[v].reaches_acquire)
                            .copied()
                            .collect(),
                        sw.reaches_io && !per_fn[v].reaches_io,
                        sw.reaches_commit_wait && !per_fn[v].reaches_commit_wait,
                    )
                };
                if !add_acq.is_empty() {
                    per_fn[v].reaches_acquire.extend(add_acq);
                    changed = true;
                }
                if add_io {
                    per_fn[v].reaches_io = true;
                    changed = true;
                }
                if add_wait {
                    per_fn[v].reaches_commit_wait = true;
                    changed = true;
                }
            }
        }
    }
    // Conservative union within each SCC (the fixpoint above already
    // produces it — mutual calls propagate both ways — but make the
    // invariant explicit and mutation-testable).
    {
        use std::collections::HashMap;
        let mut by_scc: HashMap<usize, (BTreeSet<u32>, bool, bool)> = HashMap::new();
        for v in 0..n {
            let e = by_scc.entry(scc_id[v]).or_default();
            e.0.extend(per_fn[v].reaches_acquire.iter().copied());
            e.1 |= per_fn[v].reaches_io;
            e.2 |= per_fn[v].reaches_commit_wait;
        }
        for v in 0..n {
            let e = &by_scc[&scc_id[v]];
            per_fn[v].reaches_acquire = e.0.clone();
            per_fn[v].reaches_io = e.1;
            per_fn[v].reaches_commit_wait = e.2;
        }
    }

    Summaries { per_fn, scc_id }
}

/// Shortest resolved-call chain `from → … → goal` where `goal` is judged
/// by `pred` on the callee's summary. Returns display names.
fn chain_to(
    graph: &CallGraph,
    summaries: &Summaries,
    from: usize,
    pred: &dyn Fn(&Summary) -> bool,
) -> Vec<String> {
    use std::collections::VecDeque;
    let mut prev: Vec<Option<usize>> = vec![None; graph.fns.len()];
    let mut seen = vec![false; graph.fns.len()];
    let mut queue = VecDeque::new();
    seen[from] = true;
    queue.push_back(from);
    let mut goal = None;
    'bfs: while let Some(v) = queue.pop_front() {
        if pred(&summaries.per_fn[v]) {
            goal = Some(v);
            break 'bfs;
        }
        for c in &graph.fns[v].calls {
            if let Some(w) = c.callee {
                if !seen[w] {
                    seen[w] = true;
                    prev[w] = Some(v);
                    queue.push_back(w);
                }
            }
        }
    }
    let mut chain = Vec::new();
    let mut cur = goal;
    while let Some(v) = cur {
        chain.push(graph.fns[v].display.clone());
        cur = prev[v];
    }
    chain.reverse();
    chain
}

/// Run both interprocedural rules over the graph. Scope: non-test
/// functions of `crates/core` (the crate the hierarchy governs), like the
/// intraprocedural latch rules.
pub fn check(graph: &CallGraph, summaries: &Summaries, out: &mut Vec<Diagnostic>) {
    for (idx, node) in graph.fns.iter().enumerate() {
        if node.is_test || !node.file.starts_with("crates/core/src/") {
            continue;
        }
        let (file_idx, func_idx) = graph.origin[idx];
        let ctx = &graph.files[file_idx];
        let func = &ctx.funcs[func_idx];
        let eff = latch::effective_indices(&ctx.tokens, func);
        let acqs: Vec<Acquisition> = latch::find_acquisitions(&ctx.tokens, &eff);
        let vis = latch::find_visibility_holds(&ctx.tokens, &eff);

        for call in &node.calls {
            let Some(callee) = call.callee else { continue };
            let callee_sum = &summaries.per_fn[callee];

            // --- latch-hold-io-ip, commit-wait half ---
            // Direct commit waits belong to `latch-hold-io`.
            if !latch::COMMIT_WAIT_CALLS.contains(&call.name.as_str())
                && callee_sum.reaches_commit_wait
            {
                if let Some((via, latch_name)) =
                    latch::commit_wait_blocker(&acqs, &vis, call.eff_pos)
                {
                    let chain = chain_to(graph, summaries, callee, &|s| s.local_commit_wait);
                    let mut full = vec![node.display.clone()];
                    full.extend(chain.iter().cloned());
                    out.push(Diagnostic {
                        file: node.file.clone(),
                        line: call.line,
                        rule: RuleId::LatchHoldIoIp,
                        message: format!(
                            "{} parks in a commit wait while `{via}` ({latch_name}) is held at \
                             the call to `{}`; a commit wait may be entered under the quiesce \
                             latch only",
                            full.join(" -> "),
                            call.name
                        ),
                        chain: full,
                        allowed: None,
                    });
                }
            }

            // Latches provably held at this call site.
            let held: Vec<&Acquisition> = acqs
                .iter()
                .filter(|a| call.eff_pos > a.pos && call.eff_pos < a.scope_end)
                .collect();
            if held.is_empty() {
                continue;
            }

            // --- latch-order-ip ---
            // Skip call sites that *are* latch acquisitions (read/write/
            // lock on a declared receiver, or a declared guard method):
            // the intraprocedural rule owns those.
            let is_acq_site = acqs.iter().any(|a| a.pos == call.eff_pos)
                || level_for_method(&call.name).is_some();
            if !is_acq_site {
                for a in &held {
                    let bad: Vec<u32> = callee_sum
                        .reaches_acquire
                        .iter()
                        .copied()
                        .filter(|&r| r <= a.level.rank)
                        .collect();
                    if let Some(&r) = bad.first() {
                        let chain =
                            chain_to(graph, summaries, callee, &|s| s.local_acquires.contains(&r));
                        let inner = hermit_core::latches::level(r);
                        let mut full = vec![node.display.clone()];
                        full.extend(chain.iter().cloned());
                        out.push(Diagnostic {
                            file: node.file.clone(),
                            line: call.line,
                            rule: RuleId::LatchOrderIp,
                            message: format!(
                                "{} acquires `{}` (rank {}) while `{}` ({}, rank {}) is held at \
                                 the call to `{}`",
                                full.join(" -> "),
                                inner.name,
                                r,
                                a.via,
                                a.level.name,
                                a.level.rank,
                                call.name
                            ),
                            chain: full,
                            allowed: None,
                        });
                    }
                }
            }

            // --- latch-hold-io-ip ---
            // Direct IO_CALLS call sites belong to `latch-hold-io`.
            if !latch::IO_CALLS.contains(&call.name.as_str())
                && callee_sum.reaches_io
                && held.iter().any(|a| !a.level.io_safe)
            {
                let a = held.iter().find(|a| !a.level.io_safe).unwrap();
                let chain = chain_to(graph, summaries, callee, &|s| s.local_io);
                let mut full = vec![node.display.clone()];
                full.extend(chain.iter().cloned());
                out.push(Diagnostic {
                    file: node.file.clone(),
                    line: call.line,
                    rule: RuleId::LatchHoldIoIp,
                    message: format!(
                        "{} reaches durability I/O while `{}` ({}) is held at the call to `{}`; \
                         only io_safe latches may bracket device writes",
                        full.join(" -> "),
                        a.via,
                        a.level.name,
                        call.name
                    ),
                    chain: full,
                    allowed: None,
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::callgraph;

    fn run(src: &str) -> Vec<Diagnostic> {
        let graph = callgraph::build(&[("crates/core/src/x.rs".to_string(), src.to_string())]);
        let summaries = compute(&graph);
        let mut out = Vec::new();
        check(&graph, &summaries, &mut out);
        out
    }

    const INVERSION: &str = "struct Db;\n\
         impl Db {\n\
             fn deep(&self) { let g = self.composites.write(); g.touch(); }\n\
             fn mid(&self) { self.deep(); }\n\
             fn top(&self) {\n\
                 let t = self.primary.read();\n\
                 self.mid();\n\
             }\n\
         }\n";

    #[test]
    fn cross_function_inversion_is_caught_with_chain() {
        let out = run(INVERSION);
        let d = out
            .iter()
            .find(|d| d.rule == RuleId::LatchOrderIp)
            .expect("latch-order-ip should fire");
        assert_eq!(d.chain, vec!["Db::top", "Db::mid", "Db::deep"]);
        assert!(d.message.contains("Db::top -> Db::mid -> Db::deep"), "{}", d.message);
        assert!(d.message.contains("composite-registry"), "{}", d.message);
    }

    #[test]
    fn dropping_the_guard_before_the_call_silences_it() {
        let src = "struct Db;\n\
             impl Db {\n\
                 fn deep(&self) { let g = self.composites.write(); g.touch(); }\n\
                 fn mid(&self) { self.deep(); }\n\
                 fn top(&self) {\n\
                     let t = self.primary.read();\n\
                     drop(t);\n\
                     self.mid();\n\
                 }\n\
             }\n";
        assert!(run(src).is_empty(), "no guard held at the call → no finding");
    }

    #[test]
    fn transitive_io_under_data_latch_is_caught() {
        let src = "struct Db;\n\
             impl Db {\n\
                 fn persist(&self) { self.file.sync_all(); }\n\
                 fn apply(&self) { self.persist(); }\n\
                 fn top(&self) {\n\
                     let t = self.primary.write();\n\
                     self.apply();\n\
                 }\n\
             }\n";
        let out = run(src);
        let d = out
            .iter()
            .find(|d| d.rule == RuleId::LatchHoldIoIp)
            .expect("latch-hold-io-ip should fire");
        assert_eq!(d.chain, vec!["Db::top", "Db::apply", "Db::persist"]);
    }

    #[test]
    fn io_safe_guard_across_transitive_io_is_legal() {
        let src = "struct Db;\n\
             impl Db {\n\
                 fn persist(&self) { self.file.sync_all(); }\n\
                 fn apply(&self) { self.persist(); }\n\
                 fn top(&self) {\n\
                     let w = self.wal.lock();\n\
                     self.apply();\n\
                 }\n\
             }\n";
        assert!(run(src).iter().all(|d| d.rule != RuleId::LatchHoldIoIp));
    }

    #[test]
    fn recursion_collapses_to_scc_and_still_reports() {
        // `a` and `b` are mutually recursive; the acquisition in `b` must
        // surface in `a`'s summary via the SCC union.
        let src = "struct Db;\n\
             impl Db {\n\
                 fn a(&self, d: u32) { if d > 0 { self.b(d - 1); } }\n\
                 fn b(&self, d: u32) { let g = self.composites.write(); self.a(d); }\n\
                 fn top(&self) {\n\
                     let t = self.primary.read();\n\
                     self.a(3);\n\
                 }\n\
             }\n";
        let out = run(src);
        assert!(
            out.iter().any(|d| d.rule == RuleId::LatchOrderIp),
            "SCC union must not lose facts"
        );
    }

    #[test]
    fn same_level_reacquisition_through_a_call_fires_leq() {
        // Rank equality: top holds the registry latch and calls into a
        // helper that takes it again — self-deadlock on the write latch.
        let src = "struct Db;\n\
             impl Db {\n\
                 fn helper(&self) { let g = self.composites.read(); g.len(); }\n\
                 fn top(&self) {\n\
                     let g = self.composites.write();\n\
                     self.helper();\n\
                 }\n\
             }\n";
        let out = run(src);
        assert!(
            out.iter().any(|d| d.rule == RuleId::LatchOrderIp),
            "rank == held must fire (≤ semantics)"
        );
    }

    #[test]
    fn unresolved_calls_contribute_nothing() {
        let src = "struct Db;\n\
             impl Db {\n\
                 fn top(&self) {\n\
                     let t = self.primary.read();\n\
                     std::fs::rename(a, b);\n\
                     unknown_external(t);\n\
                 }\n\
             }\n";
        assert!(run(src).is_empty(), "unresolved calls must not invent findings");
    }
}
