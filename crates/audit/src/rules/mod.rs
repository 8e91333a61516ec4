//! The audit rules and the per-file context they share.

pub mod atomics;
pub mod lint_headers;
pub mod panic_paths;
pub mod unsafe_confinement;

use crate::annotations::Annotations;
use crate::config::AuditConfig;
use crate::lexer::{Lexed, TokKind};
use crate::report::{Finding, Rule, Suppression};

/// Everything a rule needs to scan one file.
#[derive(Debug)]
pub struct FileCtx<'a> {
    /// Repo-relative path, `/`-separated.
    pub path: &'a str,
    /// The lexed token stream.
    pub lexed: &'a Lexed,
    /// The file's annotation index.
    pub ann: &'a Annotations,
    /// The manifest.
    pub config: &'a AuditConfig,
    /// Line spans (inclusive) of `#[cfg(test)] mod` blocks — test code
    /// panics by design, so the panic-path rules skip it.
    pub test_spans: Vec<(u32, u32)>,
}

impl FileCtx<'_> {
    /// Whether `line` falls inside a `#[cfg(test)]` module.
    #[must_use]
    pub fn in_test(&self, line: u32) -> bool {
        self.test_spans
            .iter()
            .any(|&(lo, hi)| (lo..=hi).contains(&line))
    }

    /// Whether the path starts with any of the given prefixes.
    #[must_use]
    pub fn matches_any(&self, prefixes: &[String]) -> bool {
        prefixes.iter().any(|p| self.path.starts_with(p.as_str()))
    }
}

/// Where a rule match lands: a finding, or a suppression when a
/// justified annotation covers the line.
pub fn emit(
    ctx: &FileCtx<'_>,
    rule: Rule,
    line: u32,
    message: String,
    findings: &mut Vec<Finding>,
    suppressions: &mut Vec<Suppression>,
) {
    if let Some(allow) = ctx.ann.allow_for(rule, line) {
        suppressions.push(Suppression {
            rule,
            path: ctx.path.to_string(),
            line,
            justification: allow.justification.clone(),
        });
    } else {
        findings.push(Finding {
            rule,
            path: ctx.path.to_string(),
            line,
            message,
        });
    }
}

/// Finds the line spans of `#[cfg(test)] mod … { … }` blocks.
///
/// The walk recognizes a `#`-led attribute whose idents include `test`
/// (and not `not`, so `#[cfg(not(test))]` stays in scope), optionally
/// followed by further attributes, then `mod <name> {`; the span runs
/// to the matching closing brace.
#[must_use]
pub fn test_spans(lexed: &Lexed) -> Vec<(u32, u32)> {
    let toks = &lexed.toks;
    let mut spans = Vec::new();
    let mut i = 0usize;
    let mut pending_cfg_test = false;
    while i < toks.len() {
        let tok = &toks[i];
        // An attribute: `#` then a run of in_attr tokens.
        if tok.kind == TokKind::Punct('#') {
            let mut j = i + 1;
            let mut has_test = false;
            let mut has_not = false;
            let mut has_cfg = false;
            while j < toks.len() && (toks[j].in_attr || toks[j].kind == TokKind::Punct('!')) {
                if toks[j].kind == TokKind::Ident {
                    match toks[j].text.as_str() {
                        "test" => has_test = true,
                        "not" => has_not = true,
                        "cfg" => has_cfg = true,
                        _ => {}
                    }
                }
                j += 1;
            }
            if has_cfg && has_test && !has_not {
                pending_cfg_test = true;
            }
            i = j;
            continue;
        }
        if tok.kind == TokKind::Ident && tok.text == "mod" && pending_cfg_test {
            // `mod name {` — find the matching `}`.
            let start_line = tok.line;
            let mut j = i + 1;
            while j < toks.len() && toks[j].kind != TokKind::Punct('{') {
                if toks[j].kind == TokKind::Punct(';') {
                    // `#[cfg(test)] mod name;` — an out-of-line module;
                    // its file is scanned separately.
                    break;
                }
                j += 1;
            }
            if j < toks.len() && toks[j].kind == TokKind::Punct('{') {
                let mut depth = 1i64;
                let mut k = j + 1;
                while k < toks.len() && depth > 0 {
                    match toks[k].kind {
                        TokKind::Punct('{') => depth += 1,
                        TokKind::Punct('}') => depth -= 1,
                        _ => {}
                    }
                    k += 1;
                }
                let end_line = toks
                    .get(k.saturating_sub(1))
                    .map_or(lexed.lines, |t| t.line);
                spans.push((start_line, end_line));
                i = k;
                pending_cfg_test = false;
                continue;
            }
            pending_cfg_test = false;
        } else if !tok.in_attr {
            // Any other code token detaches a pending cfg(test).
            pending_cfg_test = false;
        }
        i += 1;
    }
    spans
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    #[test]
    fn cfg_test_mod_span_found() {
        let src = "\
fn live() {}
#[cfg(test)]
mod tests {
    #[test]
    fn t() { x.unwrap(); }
}
fn after() {}
";
        let lexed = lex(src);
        let spans = test_spans(&lexed);
        assert_eq!(spans, vec![(3, 6)]);
    }

    #[test]
    fn cfg_not_test_is_not_a_test_span() {
        let lexed = lex("#[cfg(not(test))]\nmod live { fn f() {} }\n");
        assert!(test_spans(&lexed).is_empty());
    }

    #[test]
    fn attribute_stack_between_cfg_and_mod() {
        let lexed = lex("#[cfg(test)]\n#[allow(dead_code)]\nmod tests { fn t() {} }\n");
        assert_eq!(test_spans(&lexed).len(), 1);
    }

    #[test]
    fn out_of_line_test_mod_has_no_span() {
        let lexed = lex("#[cfg(test)]\nmod tests;\nfn live() {}\n");
        assert!(test_spans(&lexed).is_empty());
    }
}
