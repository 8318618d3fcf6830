//! `hermit_analysis` — the workspace's own static analyzer, exposed as the
//! `hermit-lint` binary.
//!
//! It checks what neither the type system nor a clippy lint can state: the
//! pairing of every durability syscall with a crash-injection point, the
//! agreement of those points with the crash matrix, the
//! write-new/fsync/rename recipe for atomic file replacement, and the
//! allocation-free batch hot path. It runs on every CI run with zero
//! crates.io dependencies — a hand-rolled lexer ([`lexer`]) and a
//! function-scope walker ([`scope`]) instead of `syn`, per the workspace's
//! offline-shim policy.
//!
//! # Rules
//!
//! | rule id | scope | invariant |
//! |---|---|---|
//! | `fault-coverage` | `crates/storage/src` | every durability syscall has a `fault_point` in its function |
//! | `fault-unique` | `crates/storage/src` | fault site names identify exactly one call site |
//! | `fault-matrix` | `crates/storage/src` | site names equal [`hermit_fault::CRASH_MATRIX_SITES`] |
//! | `fsync-before-rename` | `crates/storage/src` | `rename` is preceded by an fsync in the same function |
//! | `hot-alloc` | `// hermit-lint: hot-path` functions | no per-call allocation constructors on the batch hot path |
//! | `bad-annotation` | everywhere | a `hermit-lint:` annotation names a known rule and gives a reason |
//!
//! The guarantees the compiler can prove live there instead: the latch
//! order and the I/O a latch may be held across are types in
//! `hermit_core::latches`; `unsafe_code`, the panic lints on the serving
//! path and the discarded-`Result` lints are workspace or crate lints,
//! enforced by CI's clippy job.
//!
//! Suppression is per-line and reasoned: `// hermit-lint: allow(rule-id)
//! why this one is fine` on the finding line or the line above. A missing
//! reason is itself a finding (`bad-annotation`) and cannot be allowed.
#![warn(clippy::allow_attributes_without_reason)]

pub mod diag;
pub mod lexer;
pub mod rules;
pub mod scope;

use diag::{apply_annotations, collect_annotations, Diagnostic};
use std::io;
use std::path::Path;

/// An in-memory view of the workspace's Rust sources.
///
/// Files are `(workspace-relative path, text)` pairs with `/` separators.
/// The set is plain data on purpose: tests build synthetic workspaces
/// directly, and mutation tests load the real workspace, edit one file's
/// text in place (e.g. strip a `fault_point`), and assert the lint fails.
pub struct Workspace {
    /// Sorted by path for deterministic output.
    pub files: Vec<(String, String)>,
}

impl Workspace {
    /// Load every `.rs` file under `<root>/src` and `<root>/crates/*/src`.
    pub fn load(root: &Path) -> io::Result<Workspace> {
        let mut files = Vec::new();
        collect_rs(&root.join("src"), root, &mut files)?;
        let crates_dir = root.join("crates");
        if crates_dir.is_dir() {
            let mut entries: Vec<_> = std::fs::read_dir(&crates_dir)?.collect::<Result<_, _>>()?;
            entries.sort_by_key(|e| e.file_name());
            for e in entries {
                collect_rs(&e.path().join("src"), root, &mut files)?;
            }
        }
        files.sort();
        Ok(Workspace { files })
    }

    /// Mutable access to one file's text, for mutation tests.
    pub fn file_mut(&mut self, path: &str) -> Option<&mut String> {
        self.files.iter_mut().find(|(p, _)| p == path).map(|(_, t)| t)
    }
}

/// Recursively gather `.rs` files under `dir`, storing root-relative paths.
fn collect_rs(dir: &Path, root: &Path, out: &mut Vec<(String, String)>) -> io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    let mut entries: Vec<_> = std::fs::read_dir(dir)?.collect::<Result<_, _>>()?;
    entries.sort_by_key(|e| e.file_name());
    for e in entries {
        let p = e.path();
        if p.is_dir() {
            collect_rs(&p, root, out)?;
        } else if p.extension().is_some_and(|x| x == "rs") {
            let rel = p
                .strip_prefix(root)
                .unwrap_or(&p)
                .components()
                .map(|c| c.as_os_str().to_string_lossy())
                .collect::<Vec<_>>()
                .join("/");
            out.push((rel, std::fs::read_to_string(&p)?));
        }
    }
    Ok(())
}

/// Run every rule over the workspace. Returns **all** findings, including
/// annotation-suppressed ones (`allowed == Some(reason)`); callers decide
/// what to surface. Output is sorted by `(file, line, rule)`.
pub fn analyze(ws: &Workspace) -> Vec<Diagnostic> {
    let mut all: Vec<Diagnostic> = Vec::new();
    let mut fault_sites: Vec<rules::fault::FaultSite> = Vec::new();
    let mut annotations: Vec<(String, Vec<diag::Annotation>)> = Vec::new();
    // Where CRASH_MATRIX_SITES is declared, for anchoring stale-entry
    // findings; falls back to the file path at line 1.
    let mut matrix_decl = ("crates/fault/src/lib.rs".to_string(), 1u32);

    for (path, text) in &ws.files {
        let tokens = lexer::lex(text);

        if path == "crates/fault/src/lib.rs" {
            if let Some(t) = tokens.iter().find(|t| t.is_ident("CRASH_MATRIX_SITES")) {
                matrix_decl.1 = t.line;
            }
        }

        // Annotations (and malformed-annotation findings) are collected
        // everywhere — the escape hatch's integrity is workspace-wide.
        let (anns, bad) = collect_annotations(path, &tokens);
        all.extend(bad);

        let in_fault = path.starts_with("crates/storage/src/");
        let hot_lines = diag::hot_path_lines(&anns);
        if in_fault || !hot_lines.is_empty() {
            let funcs = scope::functions(&tokens);
            let mut file_diags: Vec<Diagnostic> = Vec::new();
            for f in funcs.iter().filter(|f| !f.is_test) {
                if in_fault {
                    rules::fault::check_function(
                        path,
                        &tokens,
                        f,
                        &mut fault_sites,
                        &mut file_diags,
                    );
                }
                // hot-alloc is marker-driven, so it runs wherever a
                // `hermit-lint: hot-path` comment appears.
                rules::hot_alloc::check_function(path, &tokens, f, &hot_lines, &mut file_diags);
            }
            apply_annotations(&mut file_diags, &anns);
            all.extend(file_diags);
        }
        if !anns.is_empty() {
            annotations.push((path.clone(), anns));
        }
    }

    // The global pass; its findings honor annotations in the anchor file.
    let mut global: Vec<Diagnostic> = Vec::new();
    rules::fault::check_global(&fault_sites, (&matrix_decl.0, matrix_decl.1), &mut global);
    for (path, anns) in &annotations {
        let in_file = global.iter_mut().filter(|d| &d.file == path);
        apply_annotations(in_file, anns);
    }
    all.extend(global);

    all.sort_by(|a, b| {
        (&a.file, a.line, a.rule, &a.message).cmp(&(&b.file, b.line, b.rule, &b.message))
    });
    all
}

/// The findings `--deny-all` counts: everything without an annotation.
pub fn unannotated(diags: &[Diagnostic]) -> Vec<&Diagnostic> {
    diags.iter().filter(|d| d.allowed.is_none()).collect()
}
