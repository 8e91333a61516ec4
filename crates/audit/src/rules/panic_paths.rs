//! The panic-path and index-path rules.
//!
//! In modules tagged `no_panic` in `audit.toml` (the wire decode path,
//! the flight recorder, the coding kernels), every
//! panicking construct is a finding: `.unwrap()`, `.expect(…)`,
//! `panic!`, `unreachable!`, `todo!`, `unimplemented!`, and — on the
//! stricter `index_paths` subset — bare slice/array indexing `x[i]`.
//! Test modules are exempt; everything else needs either a fix or an
//! `// audit:allow(panic-path) — <why>` justification.

use crate::lexer::TokKind;
use crate::report::{Finding, Rule, Suppression};
use crate::rules::{emit, FileCtx};

/// Macros whose expansion is an unconditional panic.
const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

/// Methods that panic on the unhappy path.
const PANIC_METHODS: &[&str] = &["unwrap", "expect"];

/// Runs the rule over one file.
pub fn check(ctx: &FileCtx<'_>, findings: &mut Vec<Finding>, suppressions: &mut Vec<Suppression>) {
    if !ctx.matches_any(&ctx.config.no_panic_paths) {
        return;
    }
    let check_index = ctx.matches_any(&ctx.config.no_index_paths);
    let toks = &ctx.lexed.toks;
    for (i, tok) in toks.iter().enumerate() {
        if tok.in_attr || ctx.in_test(tok.line) {
            continue;
        }
        match tok.kind {
            TokKind::Ident => {
                let name = tok.text.as_str();
                let next_is = |c: char| {
                    toks.get(i + 1)
                        .is_some_and(|t| t.kind == TokKind::Punct(c) && !t.in_attr)
                };
                let prev_is_dot = i > 0 && toks[i - 1].kind == TokKind::Punct('.');
                if PANIC_METHODS.contains(&name) && prev_is_dot && next_is('(') {
                    emit(
                        ctx,
                        Rule::PanicPath,
                        tok.line,
                        format!(
                            "`.{name}()` in a no-panic module — propagate the error \
                             or annotate why it cannot fire"
                        ),
                        findings,
                        suppressions,
                    );
                } else if PANIC_MACROS.contains(&name) && next_is('!') {
                    emit(
                        ctx,
                        Rule::PanicPath,
                        tok.line,
                        format!(
                            "`{name}!` in a no-panic module — return an error \
                             or annotate why the branch is unreachable"
                        ),
                        findings,
                        suppressions,
                    );
                }
            }
            // Indexing: a `[` glued to an expression tail. Array
            // types/literals (`[u8; 4]`, `vec![…]`) and attribute
            // brackets do not match: their `[` follows whitespace,
            // punctuation outside the tail set, or sits in an attribute.
            TokKind::Punct('[') if check_index && tok.glued => {
                let tail = i > 0
                    && !toks[i - 1].in_attr
                    && match toks[i - 1].kind {
                        TokKind::Ident => {
                            // `&mut [u8]` is glued in `&mut[u8]`? No —
                            // keywords can't be indexed; exclude them.
                            !matches!(
                                toks[i - 1].text.as_str(),
                                "mut" | "ref" | "return" | "break" | "in" | "as" | "dyn" | "impl"
                            )
                        }
                        TokKind::Punct(')' | ']' | '?') => true,
                        _ => false,
                    };
                if tail {
                    emit(
                        ctx,
                        Rule::IndexPath,
                        tok.line,
                        "slice indexing on a total-decode path — use `.get(…)` \
                         and handle the miss, or annotate why the bound holds"
                            .to_string(),
                        findings,
                        suppressions,
                    );
                }
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::annotations;
    use crate::config::AuditConfig;
    use crate::lexer::lex;
    use crate::rules::test_spans;

    fn run(path: &str, src: &str) -> (Vec<Finding>, Vec<Suppression>) {
        let config = AuditConfig {
            no_panic_paths: vec!["crates/store/src/net/".into()],
            no_index_paths: vec!["crates/store/src/net/frame.rs".into()],
            ..AuditConfig::default()
        };
        let lexed = lex(src);
        let ann = annotations::index(&lexed);
        let ctx = FileCtx {
            path,
            lexed: &lexed,
            ann: &ann,
            config: &config,
            test_spans: test_spans(&lexed),
        };
        let mut findings = Vec::new();
        let mut suppressions = Vec::new();
        check(&ctx, &mut findings, &mut suppressions);
        (findings, suppressions)
    }

    #[test]
    fn flags_unwrap_expect_and_macros() {
        let src = "fn f() {\n  x.unwrap();\n  y.expect(\"m\");\n  panic!(\"no\");\n  unreachable!();\n}\n";
        let (findings, _) = run("crates/store/src/net/frame.rs", src);
        let lines: Vec<u32> = findings.iter().map(|f| f.line).collect();
        assert_eq!(lines, vec![2, 3, 4, 5]);
    }

    #[test]
    fn unwrap_or_and_other_idents_pass() {
        let src = "fn f() { x.unwrap_or(0); x.unwrap_or_default(); expect_this(); }\n";
        let (findings, _) = run("crates/store/src/net/frame.rs", src);
        assert!(findings.is_empty());
    }

    #[test]
    fn indexing_only_on_index_paths() {
        let src = "fn f(b: &[u8]) { let x = b[0]; }\n";
        let (findings, _) = run("crates/store/src/net/frame.rs", src);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].rule, Rule::IndexPath);
        let (findings, _) = run("crates/store/src/net/tcp.rs", src);
        assert!(findings.is_empty());
    }

    #[test]
    fn array_types_and_macros_are_not_indexing() {
        let src = "fn f() -> [u8; 4] { let v = vec![1, 2]; [0; 4] }\n";
        let (findings, _) = run("crates/store/src/net/frame.rs", src);
        assert!(findings.is_empty());
    }

    #[test]
    fn untagged_paths_are_exempt() {
        let (findings, _) = run("crates/store/src/store.rs", "fn f() { x.unwrap(); }\n");
        assert!(findings.is_empty());
    }

    #[test]
    fn test_modules_are_exempt() {
        let src = "#[cfg(test)]\nmod tests {\n  fn t() { x.unwrap(); }\n}\n";
        let (findings, _) = run("crates/store/src/net/frame.rs", src);
        assert!(findings.is_empty());
    }

    #[test]
    fn annotation_suppresses_and_is_recorded() {
        let src = "fn f() {\n  x.unwrap(); // audit:allow(panic-path) — checked above\n}\n";
        let (findings, suppressions) = run("crates/store/src/net/frame.rs", src);
        assert!(findings.is_empty());
        assert_eq!(suppressions.len(), 1);
        assert_eq!(suppressions[0].justification, "checked above");
    }
}
