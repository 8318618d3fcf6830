//! `hermit-lint` — run the workspace invariant checks from the command
//! line.
//!
//! ```text
//! hermit-lint [--root <dir>] [--deny-all] [--verbose] [--format text|json]
//! ```
//!
//! The default `text` format prints stable `file:line: [rule-id] message`
//! lines, sorted by file and line — byte-stable across releases so diffs
//! and grep pipelines keep working. `--format json` emits one JSON object
//! per line (`file`, `line`, `rule`, `message`, and `allowed` when
//! suppressed) for CI and tooling. By default annotation-suppressed
//! findings are hidden; `--verbose` shows them with their reasons. With `--deny-all` the exit
//! code is nonzero when any unannotated finding exists — that is the CI
//! gate.
#![warn(clippy::allow_attributes_without_reason)]

use hermit_analysis::diag::Diagnostic;
use std::path::PathBuf;
use std::process::ExitCode;

#[derive(PartialEq)]
enum Format {
    Text,
    Json,
}

/// Escape a string for a JSON string literal (hand-rolled; the workspace
/// has no serde by policy).
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// One finding as a single-line JSON object.
fn json_line(d: &Diagnostic) -> String {
    let mut line = format!(
        "{{\"file\":\"{}\",\"line\":{},\"rule\":\"{}\",\"message\":\"{}\"",
        json_escape(&d.file),
        d.line,
        d.rule,
        json_escape(&d.message),
    );
    if let Some(reason) = &d.allowed {
        line.push_str(&format!(",\"allowed\":\"{}\"", json_escape(reason)));
    }
    line.push('}');
    line
}

fn main() -> ExitCode {
    let mut root = PathBuf::from(".");
    let mut deny_all = false;
    let mut verbose = false;
    let mut format = Format::Text;

    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--deny-all" => deny_all = true,
            "--verbose" => verbose = true,
            "--root" => match args.next() {
                Some(d) => root = PathBuf::from(d),
                None => {
                    eprintln!("hermit-lint: --root requires a directory");
                    return ExitCode::from(2);
                }
            },
            "--format" => match args.next().as_deref() {
                Some("text") => format = Format::Text,
                Some("json") => format = Format::Json,
                other => {
                    eprintln!(
                        "hermit-lint: --format requires `text` or `json` (got {})",
                        other.unwrap_or("nothing")
                    );
                    return ExitCode::from(2);
                }
            },
            "--help" | "-h" => {
                println!(
                    "usage: hermit-lint [--root <dir>] [--deny-all] [--verbose] \
                     [--format text|json]"
                );
                println!("  --root <dir>     workspace root (default: current directory)");
                println!("  --deny-all       exit nonzero on any unannotated finding");
                println!("  --verbose        also print annotation-suppressed findings");
                println!(
                    "  --format <fmt>   text (default, byte-stable) or json (one object/line)"
                );
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("hermit-lint: unknown argument `{other}` (try --help)");
                return ExitCode::from(2);
            }
        }
    }

    let ws = match hermit_analysis::Workspace::load(&root) {
        Ok(ws) => ws,
        Err(e) => {
            eprintln!("hermit-lint: failed to load workspace at {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };
    if ws.files.is_empty() {
        eprintln!("hermit-lint: no Rust sources under {} — wrong --root?", root.display());
        return ExitCode::from(2);
    }

    let diags = hermit_analysis::analyze(&ws);
    let open = hermit_analysis::unannotated(&diags);
    let allowed = diags.len() - open.len();

    match format {
        Format::Text => {
            for d in &open {
                println!("{d}");
            }
            if verbose {
                for d in diags.iter().filter(|d| d.allowed.is_some()) {
                    println!("{d} (allowed: {})", d.allowed.as_deref().unwrap_or(""));
                }
            }
        }
        Format::Json => {
            for d in &open {
                println!("{}", json_line(d));
            }
            if verbose {
                for d in diags.iter().filter(|d| d.allowed.is_some()) {
                    println!("{}", json_line(d));
                }
            }
        }
    }
    eprintln!(
        "hermit-lint: {} file(s), {} finding(s), {} allowed by annotation",
        ws.files.len(),
        open.len(),
        allowed
    );

    if deny_all && !open.is_empty() {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
