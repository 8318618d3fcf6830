//! hermit-lint end-to-end tests: golden fixtures proving each rule fires
//! (and stays quiet on the good twin), a self-check that the real
//! workspace is clean, and mutation tests proving the lint actually
//! guards the invariants it claims to (edit the real sources in memory,
//! watch it fail).

use hermit_analysis::diag::{Diagnostic, RuleId};
use hermit_analysis::{analyze, unannotated, Workspace};
use std::path::{Path, PathBuf};

/// A synthetic workspace from `(virtual path, source)` pairs.
fn synthetic(files: &[(&str, &str)]) -> Workspace {
    Workspace { files: files.iter().map(|(p, t)| ((*p).to_string(), (*t).to_string())).collect() }
}

/// Findings of one rule, unannotated only.
fn of_rule(diags: &[Diagnostic], rule: RuleId) -> Vec<Diagnostic> {
    diags.iter().filter(|d| d.allowed.is_none() && d.rule == rule).cloned().collect()
}

fn mentions(diags: &[Diagnostic], needle: &str) -> bool {
    diags.iter().any(|d| d.message.contains(needle))
}

// ---------------------------------------------------------------- latch

#[test]
fn latch_order_fires_on_reordered_nesting() {
    let ws = synthetic(&[("crates/core/src/fixture.rs", include_str!("fixtures/latch_order.rs"))]);
    let got = of_rule(&analyze(&ws), RuleId::LatchOrder);
    assert_eq!(got.len(), 2, "expected the two bad fns to fire: {got:?}");
    assert!(mentions(&got, "out_of_order"));
    assert!(mentions(&got, "registry_under_primary"));
    assert!(!mentions(&got, "in_order"));
    assert!(!mentions(&got, "drop_then_reacquire"));
}

#[test]
fn latch_hold_io_fires_only_on_non_io_safe_guards() {
    let ws =
        synthetic(&[("crates/core/src/fixture.rs", include_str!("fixtures/latch_hold_io.rs"))]);
    let got = of_rule(&analyze(&ws), RuleId::LatchHoldIo);
    assert_eq!(got.len(), 1, "only the primary-held fsync should fire: {got:?}");
    assert!(mentions(&got, "fsync_under_primary"));
}

#[test]
fn commit_wait_fires_under_the_wal_guard_and_the_visibility_latch_only() {
    let ws =
        synthetic(&[("crates/core/src/fixture.rs", include_str!("fixtures/latch_commit_wait.rs"))]);
    let diags = analyze(&ws);
    let direct = of_rule(&diags, RuleId::LatchHoldIo);
    assert_eq!(direct.len(), 2, "{direct:?}");
    assert!(direct
        .iter()
        .any(|d| d.message.contains("wait_under_wal_guard") && d.message.contains("wal-guard")));
    assert!(direct.iter().any(
        |d| d.message.contains("wait_under_visibility") && d.message.contains("txn-visibility")
    ));
    assert!(!mentions(&direct, "wait_under_quiesce_only"));
    assert!(!mentions(&direct, "write_release_wait_publish"));

    let far = of_rule(&diags, RuleId::LatchHoldIoIp);
    assert_eq!(far.len(), 2, "{far:?}");
    assert!(mentions(&far, "Db::far_wait_under_wal_guard -> Db::finish_statement -> Db::park"));
    assert!(mentions(&far, "Db::far_wait_under_visibility -> Db::finish_statement -> Db::park"));
    assert!(!mentions(&far, "far_wait_after_release"));
}

#[test]
fn latch_rules_do_not_run_outside_core() {
    // The same bad source under a non-core path is out of scope.
    let ws = synthetic(&[("crates/trs/src/fixture.rs", include_str!("fixtures/latch_order.rs"))]);
    let diags = analyze(&ws);
    assert!(of_rule(&diags, RuleId::LatchOrder).is_empty());
}

// ---------------------------------------------------------------- fault

#[test]
fn fault_coverage_unique_and_fsync_rules_fire() {
    let ws =
        synthetic(&[("crates/storage/src/fixture.rs", include_str!("fixtures/fault_rules.rs"))]);
    let diags = analyze(&ws);

    let cov = of_rule(&diags, RuleId::FaultCoverage);
    assert_eq!(cov.len(), 1, "{cov:?}");
    assert!(mentions(&cov, "write_meta_uncovered"));

    let uniq = of_rule(&diags, RuleId::FaultUnique);
    assert_eq!(uniq.len(), 1, "{uniq:?}");
    assert!(mentions(&uniq, "fixture.meta"));

    let fsr = of_rule(&diags, RuleId::FsyncBeforeRename);
    assert_eq!(fsr.len(), 1, "{fsr:?}");
    assert!(mentions(&fsr, "publish_unsynced"));
}

#[test]
fn fault_matrix_flags_sites_missing_from_the_const() {
    let ws = synthetic(&[(
        "crates/storage/src/fixture.rs",
        r#"fn f(x: &File) -> io::Result<()> {
            if fault_point("not.in.matrix") == FaultAction::Error { return Err(e()); }
            x.sync_all()
        }"#,
    )]);
    let got = of_rule(&analyze(&ws), RuleId::FaultMatrix);
    assert!(mentions(&got, "not.in.matrix"), "{got:?}");
}

// ---------------------------------------------------------------- panic

#[test]
fn panic_free_fires_per_construct_and_honors_annotations() {
    let ws = synthetic(&[("crates/server/src/proto.rs", include_str!("fixtures/panic_free.rs"))]);
    let diags = analyze(&ws);

    let got = of_rule(&diags, RuleId::PanicFree);
    // hostile_path: unwrap, expect, panic!, unreachable!, buf[0],
    // make_vec()[1]; unjustified_exception: buf[0]. The annotated buf[0]
    // in annotated_exception is suppressed.
    assert_eq!(got.len(), 7, "{got:?}");
    assert!(mentions(&got, "hostile_path"));
    assert!(mentions(&got, "unjustified_exception"));
    assert!(!mentions(&got, "checked_path"));
    assert!(!mentions(&got, "annotated_exception"));

    // The reasonless allow is itself flagged and suppressed nothing.
    assert_eq!(of_rule(&diags, RuleId::BadAnnotation).len(), 1);
    // The justified allow shows up as an allowed finding.
    assert!(diags.iter().any(|d| d.rule == RuleId::PanicFree
        && d.allowed.as_deref() == Some("fixture demonstrating the escape hatch")));
}

#[test]
fn panic_free_ignores_test_code() {
    let ws = synthetic(&[(
        "crates/txn/src/fixture.rs",
        "fn prod() {}\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { x.unwrap(); }\n}\n",
    )]);
    assert!(of_rule(&analyze(&ws), RuleId::PanicFree).is_empty());
}

// ------------------------------------------------- interprocedural latch

#[test]
fn latch_order_ip_fires_across_two_calls_with_chain() {
    let ws =
        synthetic(&[("crates/core/src/fixture.rs", include_str!("fixtures/latch_order_ip.rs"))]);
    let got = of_rule(&analyze(&ws), RuleId::LatchOrderIp);
    assert_eq!(got.len(), 2, "bad_top and bad_same_level: {got:?}");
    assert!(mentions(&got, "Db::bad_top -> Db::middle -> Db::deep_acquire"));
    assert!(mentions(&got, "Db::bad_same_level -> Db::middle -> Db::deep_acquire"));
    assert!(!mentions(&got, "good_drops_first"));
    assert!(!mentions(&got, "good_outer_held"));
    // The chain is carried structurally for --format json.
    let top = got.iter().find(|d| d.message.contains("bad_top")).unwrap();
    assert_eq!(top.chain, vec!["Db::bad_top", "Db::middle", "Db::deep_acquire"]);
}

#[test]
fn latch_hold_io_ip_fires_on_transitive_fsync_only() {
    let ws =
        synthetic(&[("crates/core/src/fixture.rs", include_str!("fixtures/latch_hold_io_ip.rs"))]);
    let got = of_rule(&analyze(&ws), RuleId::LatchHoldIoIp);
    assert_eq!(got.len(), 1, "{got:?}");
    assert!(mentions(&got, "Db::bad_hold -> Db::apply_all -> Db::persist"));
    assert!(!mentions(&got, "good_wal_bracket"));
    assert!(!mentions(&got, "good_release_first"));
}

// -------------------------------------------------------- error-swallow

#[test]
fn error_swallow_fires_on_discards_and_honors_annotations() {
    let ws =
        synthetic(&[("crates/core/src/fixture.rs", include_str!("fixtures/error_swallow.rs"))]);
    let diags = analyze(&ws);
    let got = of_rule(&diags, RuleId::ErrorSwallow);
    assert_eq!(got.len(), 3, "{got:?}");
    assert!(mentions(&got, "bad_let_discard"));
    assert!(mentions(&got, "bad_ok_discard"));
    assert!(mentions(&got, "bad_nested_discard"));
    assert!(!mentions(&got, "good_propagated"));
    assert!(!mentions(&got, "good_handled"));
    assert!(!mentions(&got, "good_non_durability"));
    // The annotated discard surfaces as allowed, not open.
    assert!(diags.iter().any(|d| d.rule == RuleId::ErrorSwallow
        && d.allowed.as_deref() == Some("fixture: best-effort sync on an already-failing path")));
}

// ------------------------------------------------------------ hot-alloc

#[test]
fn hot_alloc_fires_only_inside_marked_functions() {
    let ws = synthetic(&[("crates/core/src/fixture.rs", include_str!("fixtures/hot_alloc.rs"))]);
    let diags = analyze(&ws);
    let got = of_rule(&diags, RuleId::HotAlloc);
    // bad_gather: Vec::new, format!, collect, to_vec; bad_past_attribute: vec!
    assert_eq!(got.len(), 5, "{got:?}");
    assert!(mentions(&got, "bad_gather"));
    assert!(mentions(&got, "bad_past_attribute"));
    assert!(!mentions(&got, "cold_setup"));
    assert!(!mentions(&got, "good_scratch_reuse"));
    // The annotated one-time allocation is allowed, not open.
    assert!(diags.iter().any(|d| d.rule == RuleId::HotAlloc
        && d.allowed.as_deref() == Some("one-time lazy cache fill, not per-batch")));
}

// -------------------------------------------------------------- unsafe

#[test]
fn forbid_unsafe_fires_when_attribute_is_missing() {
    let mut files: Vec<(&str, String)> = hermit_analysis::rules::unsafe_attr::FORBID_ROSTER
        .iter()
        .map(|p| (*p, "#![forbid(unsafe_code)]\npub fn ok() {}\n".to_string()))
        .collect();
    // Strip the attribute from one crate root.
    files[3].1 = "pub fn ok() {}\n".to_string();
    let ws = Workspace { files: files.into_iter().map(|(p, t)| (p.to_string(), t)).collect() };
    let got = of_rule(&analyze(&ws), RuleId::ForbidUnsafe);
    assert_eq!(got.len(), 1, "{got:?}");
    assert_eq!(got[0].file, hermit_analysis::rules::unsafe_attr::FORBID_ROSTER[3]);
}

// ----------------------------------------------------- real workspace

fn repo_root() -> PathBuf {
    // crates/analysis -> workspace root
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..").canonicalize().unwrap()
}

/// The merged workspace must be clean: every rule runs, zero unannotated
/// findings. This is the same check CI's `--deny-all` run performs.
#[test]
fn real_workspace_is_clean() {
    let ws = Workspace::load(&repo_root()).unwrap();
    assert!(ws.files.len() > 50, "workspace loader found too few files");
    let diags = analyze(&ws);
    let open = unannotated(&diags);
    assert!(
        open.is_empty(),
        "unannotated findings in the workspace:\n{}",
        open.iter().map(|d| d.to_string()).collect::<Vec<_>>().join("\n")
    );
    // The storage escape hatch for the best-effort directory sync exists
    // and carries its reason.
    assert!(diags.iter().any(|d| d.allowed.is_some()), "expected at least one allowed finding");
}

/// Mutation: removing any fault_point from the WAL must fail the lint
/// (coverage and/or matrix reconciliation).
#[test]
fn stripping_a_wal_fault_point_fails_the_lint() {
    let mut ws = Workspace::load(&repo_root()).unwrap();
    let wal = ws.file_mut("crates/storage/src/wal.rs").expect("wal.rs in workspace");
    assert!(wal.contains("fault_point"), "wal.rs should declare fault points");
    *wal = wal.replace("fault_point", "fault_point_disabled");
    let open: Vec<RuleId> = unannotated(&analyze(&ws)).iter().map(|d| d.rule).collect();
    assert!(
        open.contains(&RuleId::FaultCoverage) && open.contains(&RuleId::FaultMatrix),
        "expected coverage+matrix findings, got {open:?}"
    );
}

/// Mutation: renaming a single site desynchronizes the crash matrix in
/// both directions.
#[test]
fn renaming_a_fault_site_desyncs_the_matrix() {
    let mut ws = Workspace::load(&repo_root()).unwrap();
    let wal = ws.file_mut("crates/storage/src/wal.rs").expect("wal.rs in workspace");
    assert!(wal.contains("\"wal.commit\""));
    *wal = wal.replace("\"wal.commit\"", "\"wal.kommit\"");
    let diags = analyze(&ws);
    let matrix = of_rule(&diags, RuleId::FaultMatrix);
    assert!(mentions(&matrix, "wal.kommit"), "unknown site should be flagged: {matrix:?}");
    assert!(mentions(&matrix, "wal.commit"), "stale matrix entry should be flagged: {matrix:?}");
}

/// Mutation: dropping `#![forbid(unsafe_code)]` from a crate root fails
/// the lint.
#[test]
fn dropping_forbid_unsafe_fails_the_lint() {
    let mut ws = Workspace::load(&repo_root()).unwrap();
    let root = ws.file_mut("crates/btree/src/lib.rs").expect("btree lib.rs");
    *root = root.replace("#![forbid(unsafe_code)]", "");
    let open: Vec<RuleId> = unannotated(&analyze(&ws)).iter().map(|d| d.rule).collect();
    assert!(open.contains(&RuleId::ForbidUnsafe), "got {open:?}");
}

/// The seed of a cross-function latch inversion: a three-hop chain in
/// `database.rs` whose endpoints never meet in one function body. Shared
/// by the mutation tests below; the runtime twin of this seed lives in
/// `tests/latch_violation.rs` at the workspace root.
const SEEDED_INVERSION: &str = "
fn seeded_deep(db: &Database) { let g = db.composites.write(); g.len(); }
fn seeded_mid(db: &Database) { seeded_deep(db); }
fn seeded_top(db: &Database) {
    let t = db.primary.read();
    seeded_mid(db);
    t.len();
}
";

/// Mutation: putting the commit wait back under the WAL guard — the shape
/// `Statement::commit_auto` and `commit_staged` exist to rule out — fails
/// the lint.
#[test]
fn waiting_for_the_fsync_under_the_wal_guard_fails_the_lint() {
    let mut ws = Workspace::load(&repo_root()).unwrap();
    let recovery = ws.file_mut("crates/core/src/recovery.rs").expect("recovery.rs");
    let released = "drop(wal);\n        match d.absorb_log_failure(owed)?";
    assert!(recovery.contains(released), "commit_with should release the guard before the wait");
    *recovery = recovery
        .replace(
            "let Statement { d, mut wal, quiesce: _quiesce } = self;",
            "let d = self.d; let mut wal = d.wal.lock();",
        )
        .replace(released, "match d.absorb_log_failure(owed)?");
    let got = of_rule(&analyze(&ws), RuleId::LatchHoldIo);
    assert!(mentions(&got, "fn `commit_with` parks in `wait_durable`"), "got {got:?}");
}

/// Mutation: seeding a cross-function inversion into the real workspace
/// must fail the lint with the full chain in the diagnostic — the static
/// half of the acceptance criterion (the runtime witness catches the
/// equivalent executed inversion in `latch_violation.rs`).
#[test]
fn seeding_a_cross_function_inversion_fails_the_lint() {
    let mut ws = Workspace::load(&repo_root()).unwrap();
    ws.file_mut("crates/core/src/database.rs").unwrap().push_str(SEEDED_INVERSION);
    let diags = analyze(&ws);
    let got = of_rule(&diags, RuleId::LatchOrderIp);
    assert_eq!(got.len(), 1, "{got:?}");
    assert!(mentions(&got, "seeded_top -> seeded_mid -> seeded_deep"), "{got:?}");
    assert!(mentions(&got, "composite-registry"), "{got:?}");
}

/// Mutation: the same seed with the guard dropped before the call must
/// stay clean — the finding above comes from held-guard tracking, not
/// from the mere existence of the chain.
#[test]
fn seeded_chain_with_dropped_guard_stays_clean() {
    let mut ws = Workspace::load(&repo_root()).unwrap();
    ws.file_mut("crates/core/src/database.rs")
        .unwrap()
        .push_str(&SEEDED_INVERSION.replace("seeded_mid(db);", "drop(t);\n    seeded_mid(db);"));
    let open: Vec<RuleId> = unannotated(&analyze(&ws)).iter().map(|d| d.rule).collect();
    assert!(!open.contains(&RuleId::LatchOrderIp), "got {open:?}");
}

/// Mutation: breaking the summary fixpoint loses the finding. Renaming
/// the middle hop's callee severs the `seeded_mid → seeded_deep` edge
/// (the call becomes unresolved), so the acquisition no longer propagates
/// to `seeded_top` — proving the diagnostic genuinely flows through the
/// call-graph propagation rather than any textual coincidence.
#[test]
fn severing_a_summary_edge_loses_the_seeded_finding() {
    let mut ws = Workspace::load(&repo_root()).unwrap();
    ws.file_mut("crates/core/src/database.rs")
        .unwrap()
        .push_str(&SEEDED_INVERSION.replace("seeded_deep(db);", "seeded_deep_elsewhere(db);"));
    let open: Vec<RuleId> = unannotated(&analyze(&ws)).iter().map(|d| d.rule).collect();
    assert!(!open.contains(&RuleId::LatchOrderIp), "got {open:?}");
}

/// Mutation: a transitive-fsync chain under a data latch fails the lint.
#[test]
fn seeding_transitive_io_under_a_data_latch_fails_the_lint() {
    let mut ws = Workspace::load(&repo_root()).unwrap();
    ws.file_mut("crates/core/src/database.rs").unwrap().push_str(
        "
fn io_deep(f: &File) { f.sync_all(); }
fn io_mid(f: &File) { io_deep(f); }
fn io_top(db: &Database, f: &File) {
    let t = db.primary.write();
    io_mid(f);
    t.len();
}
",
    );
    let diags = analyze(&ws);
    let got = of_rule(&diags, RuleId::LatchHoldIoIp);
    assert_eq!(got.len(), 1, "{got:?}");
    assert!(mentions(&got, "io_top -> io_mid -> io_deep"), "{got:?}");
}

/// Mutation: stripping a hot-path scratch-reuse idiom back to a fresh
/// allocation fails the lint — the regression PR 2 bought the markers for.
#[test]
fn reintroducing_an_allocation_into_a_hot_path_fails_the_lint() {
    let mut ws = Workspace::load(&repo_root()).unwrap();
    let batch = ws.file_mut("crates/core/src/batch.rs").expect("batch.rs");
    assert!(batch.contains("// hermit-lint: hot-path"), "markers should exist");
    batch.push_str(
        "\n// hermit-lint: hot-path\nfn seeded_hot(n: usize) { let v = Vec::with_capacity(n); }\n",
    );
    let open: Vec<RuleId> = unannotated(&analyze(&ws)).iter().map(|d| d.rule).collect();
    assert!(open.contains(&RuleId::HotAlloc), "got {open:?}");
}

/// `--format json`: one object per line with the structured fields; the
/// human format stays the default. Runs the real binary against the real
/// workspace (clean, so `--verbose` is what produces output lines — the
/// allowed findings).
#[test]
fn json_format_emits_one_object_per_line() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_hermit-lint"))
        .args(["--root", repo_root().to_str().unwrap(), "--format", "json", "--verbose"])
        .output()
        .expect("run hermit-lint");
    assert!(out.status.success(), "lint must pass on the clean workspace");
    let stdout = String::from_utf8(out.stdout).unwrap();
    let lines: Vec<&str> = stdout.lines().collect();
    assert!(!lines.is_empty(), "verbose mode should emit the allowed findings");
    for l in &lines {
        assert!(l.starts_with("{\"file\":\"") && l.ends_with('}'), "not a JSON object line: {l}");
        for key in ["\"line\":", "\"rule\":\"", "\"message\":\"", "\"chain\":["] {
            assert!(l.contains(key), "missing {key} in {l}");
        }
        // Only suppressed findings exist on the clean tree.
        assert!(l.contains("\"allowed\":\""), "expected allowed reason in {l}");
    }
}

/// Regression for the cross-pass ordering satellite: diagnostics must come
/// back sorted by line within each file even though rules run in separate
/// passes (per-file families, then the interprocedural pass).
#[test]
fn diagnostics_are_sorted_by_line_across_rule_passes() {
    // One file triggering an early IP finding and later intraprocedural
    // ones; sortedness must hold over the merged output.
    let src = "
struct Db;
impl Db {
    fn deep(&self) { let g = self.composites.write(); g.len(); }
    fn top(&self) {
        let t = self.primary.read();
        self.deep_caller();
        t.len();
    }
    fn deep_caller(&self) { self.deep(); }
    fn late_intra(&self) {
        let p = self.primary.read();
        let c = self.composites.read();
        p.len();
        c.len();
    }
}
";
    let ws = synthetic(&[("crates/core/src/fixture.rs", src)]);
    let diags = analyze(&ws);
    assert!(diags.len() >= 2, "need at least two findings to order: {diags:?}");
    for w in diags.windows(2) {
        assert!(
            (&w[0].file, w[0].line) <= (&w[1].file, w[1].line),
            "out of order: {} then {}",
            w[0],
            w[1]
        );
    }
    // Both families are present, so the ordering claim is cross-pass.
    assert!(diags.iter().any(|d| d.rule == RuleId::LatchOrderIp));
    assert!(diags.iter().any(|d| d.rule == RuleId::LatchOrder));
}
