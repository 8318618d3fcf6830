//! hermit-lint end-to-end tests: golden fixtures proving each rule fires
//! (and stays quiet on the good twin), a self-check that the real
//! workspace is clean, mutation tests proving the lint actually guards the
//! invariants it claims to (edit the real sources in memory, watch it
//! fail), and a check that every member inherits the workspace lints.

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

// ------------------------------------------------------- bad-annotation

#[test]
fn bad_annotations_are_findings_and_suppress_nothing() {
    let src = "
// hermit-lint: hot-path
fn gather(n: usize) {
    // hermit-lint: allow(hot-alloc)
    let a = Vec::with_capacity(n);
    // hermit-lint: allow(latch-order) a rule that no longer exists
    let b = vec![0u8; n];
    // hermit-lint: allow(hot-alloc) one-time scratch fill
    let c = format!(\"{n}\");
}
";
    let diags = analyze(&synthetic(&[("crates/core/src/fixture.rs", src)]));
    let bad = of_rule(&diags, RuleId::BadAnnotation);
    assert_eq!(bad.len(), 2, "{bad:?}");
    assert!(mentions(&bad, "without a reason"));
    assert!(mentions(&bad, "unknown rule `latch-order`"));
    // Neither malformed allow suppressed its line; the reasoned one did.
    assert_eq!(of_rule(&diags, RuleId::HotAlloc).len(), 2);
    assert!(diags.iter().any(|d| d.allowed.as_deref() == Some("one-time scratch fill")));
}

// ----------------------------------------------------- workspace lints

/// Every member manifest inherits `[workspace.lints]` (`unsafe_code =
/// "forbid"` among them), shims included: a member that drops the opt-in
/// silently loses the lints.
#[test]
fn every_member_inherits_the_workspace_lints() {
    let root = repo_root();
    let manifest = std::fs::read_to_string(root.join("Cargo.toml")).unwrap();
    assert!(manifest.contains("[workspace.lints.rust]\nunsafe_code = \"forbid\""));
    let members = manifest.split("members = [").nth(1).unwrap().split(']').next().unwrap();
    let dirs: Vec<&str> = std::iter::once(".")
        .chain(members.split(',').map(|m| m.trim().trim_matches('"')))
        .collect();
    let dirs: Vec<&str> = dirs.into_iter().filter(|d| !d.is_empty()).collect();
    assert!(dirs.len() >= 17, "members list not parsed: {dirs:?}");
    for dir in dirs {
        let text = std::fs::read_to_string(root.join(dir).join("Cargo.toml")).unwrap();
        assert!(text.contains("\n[lints]\nworkspace = true\n"), "{dir}/Cargo.toml opts out");
    }
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
        for key in ["\"line\":", "\"rule\":\"", "\"message\":\""] {
            assert!(l.contains(key), "missing {key} in {l}");
        }
        // Only suppressed findings exist on the clean tree.
        assert!(l.contains("\"allowed\":\""), "expected allowed reason in {l}");
    }
}

/// Regression for the cross-pass ordering satellite: diagnostics must come
/// back sorted by line within each file even though rules run in separate
/// passes (per-file families, then the global fault-matrix pass).
#[test]
fn diagnostics_are_sorted_by_line_across_rule_passes() {
    // One file whose global-pass finding (an unknown matrix site) sits
    // between two per-file findings; sortedness must hold over the merged
    // output.
    let src = "
// hermit-lint: hot-path
fn early(n: usize) { let v = Vec::with_capacity(n); }
fn f(x: &File) -> io::Result<()> {
    if fault_point(\"not.in.matrix\") == FaultAction::Error { return Err(e()); }
    x.sync_all()
}
fn late(x: &File) -> io::Result<()> { x.sync_all() }
";
    let ws = synthetic(&[("crates/storage/src/fixture.rs", src)]);
    let diags: Vec<Diagnostic> =
        analyze(&ws).into_iter().filter(|d| d.file == "crates/storage/src/fixture.rs").collect();
    assert!(diags.len() >= 3, "need findings from both passes to order: {diags:?}");
    for w in diags.windows(2) {
        assert!(
            (&w[0].file, w[0].line) <= (&w[1].file, w[1].line),
            "out of order: {} then {}",
            w[0],
            w[1]
        );
    }
    // Both passes are present, so the ordering claim is cross-pass.
    assert!(diags.iter().any(|d| d.rule == RuleId::FaultMatrix));
    assert!(diags.iter().any(|d| d.rule == RuleId::HotAlloc));
    assert!(diags.iter().any(|d| d.rule == RuleId::FaultCoverage));
}
