//! `hot-alloc`: no allocation constructors inside functions marked
//! `// hermit-lint: hot-path`.
//!
//! The executor's batch loops earn their throughput by reusing scratch
//! buffers across calls (`QueryResult::clear()` + `reserve`, the
//! side-buffer scans); one innocent `collect()` in a refactor quietly
//! reintroduces a per-batch allocation and the regression only shows up
//! in benchmarks weeks later. The marker makes the contract explicit: put
//! `// hermit-lint: hot-path` on the line (or the line above, past
//! attributes) of a function, and any allocation constructor in its body
//! becomes a finding.
//!
//! Recognized constructors: `Vec::new`, `String::new`, `Box::new`,
//! `*::with_capacity`, the `vec!` / `format!` macros, and the
//! `.to_vec()` / `.to_string()` / `.to_owned()` / `.collect()` methods.
//! `with_capacity` *is* flagged — on the hot path the capacity belongs in
//! the reused scratch object, not in a fresh allocation per batch; a
//! deliberate one-time setup allocation takes an
//! `allow(hot-alloc) reason` like any other exception.

use crate::diag::{Diagnostic, RuleId};
use crate::lexer::{Token, TokenKind};
use crate::scope::Func;

/// `Type::ctor` paths that allocate.
const CTOR_TYPES: &[&str] = &["Vec", "String", "Box", "VecDeque", "HashMap", "BTreeMap"];
/// Allocating macros (`name !`).
const ALLOC_MACROS: &[&str] = &["vec", "format"];
/// Allocating `.method()` calls.
const ALLOC_METHODS: &[&str] = &["to_vec", "to_string", "to_owned", "collect"];

/// Does a `hot-path` marker on `marker_line` bind to a function whose
/// `fn` keyword is on `fn_line`? Same line, or up to two lines above —
/// room for the marker to sit above `#[inline]`-style attributes.
fn marker_binds(marker_line: u32, fn_line: u32) -> bool {
    marker_line <= fn_line && fn_line - marker_line <= 2
}

/// Run the rule over one function, given the file's `hot-path` marker
/// lines (from [`crate::diag::hot_path_lines`]).
pub fn check_function(
    file: &str,
    tokens: &[Token],
    func: &Func,
    hot_lines: &[u32],
    out: &mut Vec<Diagnostic>,
) {
    if !hot_lines.iter().any(|&m| marker_binds(m, func.line)) {
        return;
    }
    let eff = crate::scope::effective_indices(tokens, func);
    let tok = |p: usize| -> &Token { &tokens[eff[p]] };

    for p in 0..eff.len() {
        let t = tok(p);
        if t.kind != TokenKind::Ident {
            continue;
        }
        let name = t.text.as_str();
        let flagged: Option<String> = if p + 1 < eff.len() && tok(p + 1).is_punct("!") {
            ALLOC_MACROS.contains(&name).then(|| format!("{name}!"))
        } else if p >= 2
            && tok(p - 1).is_punct("::")
            && tok(p - 2).kind == TokenKind::Ident
            && CTOR_TYPES.contains(&tok(p - 2).text.as_str())
            && (name == "new" || name == "with_capacity")
        {
            Some(format!("{}::{}", tok(p - 2).text, name))
        } else if p >= 1
            && tok(p - 1).is_punct(".")
            && ALLOC_METHODS.contains(&name)
            && p + 1 < eff.len()
            && (tok(p + 1).is_punct("(") || tok(p + 1).is_punct("::"))
        {
            Some(format!(".{name}()"))
        } else {
            None
        };
        if let Some(what) = flagged {
            out.push(Diagnostic::new(
                file,
                t.line,
                RuleId::HotAlloc,
                format!(
                    "fn `{}` is marked hot-path but allocates via `{what}`; reuse the scratch \
                     buffers (clear + reserve) or annotate why this allocation is one-time",
                    func.name
                ),
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::{collect_annotations, hot_path_lines};
    use crate::scope;

    fn run(src: &str) -> Vec<Diagnostic> {
        let tokens = crate::lexer::lex(src);
        let (anns, bad) = collect_annotations("t.rs", &tokens);
        assert!(bad.is_empty(), "{bad:?}");
        let hot = hot_path_lines(&anns);
        let mut out = Vec::new();
        for f in scope::functions(&tokens) {
            check_function("t.rs", &tokens, &f, &hot, &mut out);
        }
        out
    }

    #[test]
    fn allocations_in_marked_function_fire() {
        let out = run("// hermit-lint: hot-path\n\
             fn gather(&mut self) {\n\
                 let v = Vec::new();\n\
                 let s = format!(\"{}\", x);\n\
                 let w: Vec<u32> = it.collect();\n\
                 let t = row.to_vec();\n\
             }");
        assert_eq!(out.len(), 4, "{out:?}");
        assert!(out.iter().all(|d| d.rule == RuleId::HotAlloc));
    }

    #[test]
    fn unmarked_function_is_free_to_allocate() {
        let out = run("fn setup() { let v = Vec::new(); let s = x.to_string(); }");
        assert!(out.is_empty());
    }

    #[test]
    fn marker_reaches_past_an_attribute() {
        let out = run("// hermit-lint: hot-path\n\
             #[inline]\n\
             fn resolve(&mut self) { let v = vec![0u8; n]; }");
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn scratch_reuse_idiom_is_silent() {
        let out = run("// hermit-lint: hot-path\n\
             fn resolve(&mut self, out: &mut QueryResult) {\n\
                 out.clear();\n\
                 out.tids.reserve(n);\n\
                 for t in batch { out.tids.push(t); }\n\
             }");
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn turbofish_collect_is_caught() {
        let out = run("// hermit-lint: hot-path\n\
             fn resolve(&mut self) { let v = it.collect::<Vec<_>>(); }");
        assert_eq!(out.len(), 1);
    }
}
