//! Function-scope walker: carve a lexed token stream into function bodies.
//!
//! Rules operate per function (`fault-coverage` pairs syscalls with
//! `fault_point`s in the same function; `hot-alloc` scans one marked
//! body), so this module finds every `fn` with a body,
//! matches its braces, and classifies it as production or test code.
//! `#[cfg(test)] mod …` regions and `#[test]` functions are excluded from
//! every rule — `unwrap` in a test is idiomatic, not a finding.

use crate::lexer::{Token, TokenKind};

/// One function found in a file.
#[derive(Debug)]
pub struct Func {
    /// Function name (the identifier after `fn`).
    pub name: String,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Token index of the body's opening `{`.
    pub body_start: usize,
    /// Token index of the body's closing `}` (exclusive end is `+ 1`).
    pub body_end: usize,
    /// True when the function is test code (inside `#[cfg(test)]` mod or
    /// carrying a `#[test]`-ish attribute).
    pub is_test: bool,
    /// Body ranges of functions nested inside this one, to be skipped when
    /// scanning this function's own tokens.
    pub nested: Vec<(usize, usize)>,
}

impl Func {
    /// Iterate this function's own body token indices, skipping nested
    /// function bodies.
    pub fn body_indices(&self) -> impl Iterator<Item = usize> + '_ {
        let nested = &self.nested;
        (self.body_start + 1..self.body_end)
            .filter(move |i| !nested.iter().any(|&(s, e)| *i >= s && *i <= e))
    }
}

/// A function's effective token positions: body indices minus nested fns
/// and comments.
pub(crate) fn effective_indices(tokens: &[Token], func: &Func) -> Vec<usize> {
    func.body_indices()
        .filter(|&i| !matches!(tokens[i].kind, TokenKind::LineComment | TokenKind::BlockComment))
        .collect()
}

/// Find the token index of the `}` matching the `{` at `open`. Comments
/// are ignored; strings were already tokenized away by the lexer, so brace
/// counting is sound. Returns the last token index when unbalanced.
pub fn matching_brace(tokens: &[Token], open: usize) -> usize {
    let mut depth = 0usize;
    for (i, t) in tokens.iter().enumerate().skip(open) {
        if t.is_punct("{") {
            depth += 1;
        } else if t.is_punct("}") {
            depth -= 1;
            if depth == 0 {
                return i;
            }
        }
    }
    tokens.len().saturating_sub(1)
}

/// True when `tokens[i]` begins an attribute group `#[…]` whose interior
/// mentions the identifier `test` (covers `#[test]` and `#[cfg(test)]`).
fn attr_mentions_test(tokens: &[Token], i: usize) -> bool {
    if !tokens[i].is_punct("#") {
        return false;
    }
    let mut j = i + 1;
    if j < tokens.len() && tokens[j].is_punct("!") {
        j += 1;
    }
    if j >= tokens.len() || !tokens[j].is_punct("[") {
        return false;
    }
    let mut depth = 0usize;
    for t in &tokens[j..] {
        if t.is_punct("[") {
            depth += 1;
        } else if t.is_punct("]") {
            depth -= 1;
            if depth == 0 {
                return false;
            }
        } else if t.is_ident("test") {
            return true;
        }
    }
    false
}

/// Token index ranges (inclusive) of `#[cfg(test)] mod … { … }` bodies.
fn test_mod_ranges(tokens: &[Token]) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    for i in 0..tokens.len() {
        if !attr_mentions_test(tokens, i) {
            continue;
        }
        // Walk past this (and any following) attribute groups to the item.
        let mut j = i;
        while j < tokens.len() {
            if tokens[j].is_punct("#") {
                // Skip the whole `#[…]` group.
                let mut k = j + 1;
                if k < tokens.len() && tokens[k].is_punct("!") {
                    k += 1;
                }
                if k < tokens.len() && tokens[k].is_punct("[") {
                    let mut depth = 0usize;
                    while k < tokens.len() {
                        if tokens[k].is_punct("[") {
                            depth += 1;
                        } else if tokens[k].is_punct("]") {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        k += 1;
                    }
                    j = k + 1;
                    continue;
                }
            }
            break;
        }
        if j + 2 < tokens.len()
            && (tokens[j].is_ident("mod")
                || (tokens[j].is_ident("pub") && tokens[j + 1].is_ident("mod")))
        {
            // Find the mod body's `{`.
            let mut k = j;
            while k < tokens.len() && !tokens[k].is_punct("{") && !tokens[k].is_punct(";") {
                k += 1;
            }
            if k < tokens.len() && tokens[k].is_punct("{") {
                out.push((k, matching_brace(tokens, k)));
            }
        }
    }
    out
}

/// Walk `tokens` and return every function with a body, outermost and
/// nested alike, each knowing whether it is test code.
pub fn functions(tokens: &[Token]) -> Vec<Func> {
    let test_mods = test_mod_ranges(tokens);
    let mut funcs: Vec<Func> = Vec::new();

    for i in 0..tokens.len() {
        if !tokens[i].is_ident("fn") {
            continue;
        }
        // `fn` must be followed by a name (closures use `|…|`, `fn`
        // pointers in types are `fn(` and skipped here).
        let Some(name_tok) = tokens.get(i + 1) else { continue };
        if name_tok.kind != TokenKind::Ident {
            continue;
        }
        // Scan forward for the body `{` or a `;` (trait method decl),
        // ignoring nested delimiters in the signature.
        let mut j = i + 2;
        let mut paren = 0isize;
        let mut body = None;
        while j < tokens.len() {
            let t = &tokens[j];
            if t.is_punct("(") || t.is_punct("[") {
                paren += 1;
            } else if t.is_punct(")") || t.is_punct("]") {
                paren -= 1;
            } else if paren == 0 && t.is_punct(";") {
                break; // declaration without body
            } else if paren == 0 && t.is_punct("{") {
                body = Some(j);
                break;
            }
            j += 1;
        }
        let Some(body_start) = body else { continue };
        let body_end = matching_brace(tokens, body_start);

        // Test classification: inside a test mod, or attributed with test.
        let in_test_mod = test_mods.iter().any(|&(s, e)| i >= s && i <= e);
        let mut attr_test = false;
        // Look back over contiguous attribute groups / doc comments.
        let mut k = i;
        while k > 0 {
            let prev = &tokens[k - 1];
            match prev.kind {
                TokenKind::LineComment | TokenKind::BlockComment => k -= 1,
                TokenKind::Punct | TokenKind::Ident | TokenKind::Str => {
                    // Attribute groups end with `]`; walk back across one.
                    if prev.is_punct("]") {
                        let mut depth = 0isize;
                        let mut m = k - 1;
                        loop {
                            if tokens[m].is_punct("]") {
                                depth += 1;
                            } else if tokens[m].is_punct("[") {
                                depth -= 1;
                                if depth == 0 {
                                    break;
                                }
                            }
                            if m == 0 {
                                break;
                            }
                            m -= 1;
                        }
                        // Require a `#` (or `#!`) immediately before.
                        let attr_start = if m >= 1 && tokens[m - 1].is_punct("#") {
                            m - 1
                        } else if m >= 2
                            && tokens[m - 1].is_punct("!")
                            && tokens[m - 2].is_punct("#")
                        {
                            m - 2
                        } else {
                            break;
                        };
                        if attr_mentions_test(tokens, attr_start) {
                            attr_test = true;
                        }
                        k = attr_start;
                    } else if prev.is_ident("pub")
                        || prev.is_ident("const")
                        || prev.is_ident("unsafe")
                        || prev.is_ident("async")
                        || prev.is_ident("extern")
                    {
                        k -= 1;
                    } else {
                        break;
                    }
                }
                _ => break,
            }
        }

        funcs.push(Func {
            name: name_tok.text.clone(),
            line: tokens[i].line,
            body_start,
            body_end,
            is_test: in_test_mod || attr_test,
            nested: Vec::new(),
        });
    }

    // Record nesting: a function body strictly inside another's becomes a
    // skip range of the outer one.
    let ranges: Vec<(usize, usize)> = funcs.iter().map(|f| (f.body_start, f.body_end)).collect();
    for (idx, f) in funcs.iter_mut().enumerate() {
        for (jdx, &(s, e)) in ranges.iter().enumerate() {
            if jdx != idx && s > f.body_start && e < f.body_end {
                f.nested.push((s, e));
            }
        }
    }
    funcs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    #[test]
    fn finds_functions_and_matches_braces() {
        let toks = lex("fn a() { if x { y(); } } fn b(q: u8) -> u8 { q }");
        let fs = functions(&toks);
        assert_eq!(fs.len(), 2);
        assert_eq!(fs[0].name, "a");
        assert_eq!(fs[1].name, "b");
        assert!(fs[0].body_end < fs[1].body_start);
    }

    #[test]
    fn cfg_test_mod_marks_functions_as_test() {
        let toks = lex(
            "fn prod() {} #[cfg(test)] mod tests { use super::*; #[test] fn t() { x.unwrap(); } }",
        );
        let fs = functions(&toks);
        assert_eq!(fs.len(), 2);
        assert!(!fs[0].is_test);
        assert!(fs[1].is_test);
    }

    #[test]
    fn test_attribute_marks_function() {
        let toks = lex("#[test]\nfn standalone() { panic!(); }");
        let fs = functions(&toks);
        assert_eq!(fs.len(), 1);
        assert!(fs[0].is_test);
    }

    #[test]
    fn nested_fn_bodies_are_excluded_from_outer_iteration() {
        let toks = lex("fn outer() { fn inner() { bad(); } good(); }");
        let fs = functions(&toks);
        let outer = fs.iter().find(|f| f.name == "outer").unwrap();
        let own: Vec<&str> = outer.body_indices().map(|i| toks[i].text.as_str()).collect();
        assert!(own.contains(&"good"));
        assert!(!own.contains(&"bad"));
    }

    #[test]
    fn trait_declarations_without_body_are_skipped() {
        let toks = lex("trait T { fn decl(&self); fn with_default(&self) { x(); } }");
        let fs = functions(&toks);
        assert_eq!(fs.len(), 1);
        assert_eq!(fs[0].name, "with_default");
    }

    // Edge cases surfaced while building the call graph: signatures that
    // put tokens between the `fn` keyword and the body `{` which a naive
    // walker would mistake for the body itself.

    #[test]
    fn where_clause_does_not_truncate_the_signature() {
        let toks =
            lex("fn generic<K, V>(k: K, v: V) -> V\nwhere\n    K: Ord + Clone,\n    V: Default,\n\
             {\n    inner(k);\n    v\n}\nfn after() { tail(); }");
        let fs = functions(&toks);
        assert_eq!(fs.len(), 2, "{fs:?}");
        assert_eq!(fs[0].name, "generic");
        let body: Vec<&str> = fs[0].body_indices().map(|i| toks[i].text.as_str()).collect();
        assert!(body.contains(&"inner"), "body must start at the brace after `where`: {body:?}");
        assert!(!body.contains(&"Default"), "where-clause bounds are not body tokens");
        assert_eq!(fs[1].name, "after");
    }

    #[test]
    fn impl_trait_return_is_part_of_the_signature() {
        let toks =
            lex("fn maker(n: usize) -> impl Iterator<Item = u32> + '_ {\n    (0..n).map(go)\n}\n\
             fn plain() { leaf(); }");
        let fs = functions(&toks);
        assert_eq!(fs.len(), 2, "{fs:?}");
        assert_eq!(fs[0].name, "maker");
        let body: Vec<&str> = fs[0].body_indices().map(|i| toks[i].text.as_str()).collect();
        assert!(body.contains(&"map"));
        assert!(!body.contains(&"Iterator"), "return-position impl Trait is signature, not body");
    }

    #[test]
    fn raw_strings_with_braces_do_not_break_brace_matching() {
        // The `{` and `}` inside the raw string must not count as body
        // delimiters — the lexer owns string contents, the walker only
        // sees one Str token.
        let toks =
            lex("fn emits() {\n    let tpl = r#\"{ \"a\": { \"b\": } } }\"#;\n    used(tpl);\n}\n\
             fn next_one() { follow(); }");
        let fs = functions(&toks);
        assert_eq!(fs.len(), 2, "{fs:?}");
        let body: Vec<&str> = fs[0].body_indices().map(|i| toks[i].text.as_str()).collect();
        assert!(body.contains(&"used"));
        assert_eq!(fs[1].name, "next_one");
        let next: Vec<&str> = fs[1].body_indices().map(|i| toks[i].text.as_str()).collect();
        assert_eq!(next, vec!["follow", "(", ")", ";"]);
    }
}
