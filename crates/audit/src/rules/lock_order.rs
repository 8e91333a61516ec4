//! The lock-order rule: nested acquisitions must respect the hierarchy
//! declared in `audit.toml`.
//!
//! The analysis is intraprocedural and token-driven. An *acquisition*
//! is `<field>.lock()` / `.try_lock()` / `.read()` / `.write()` with an
//! empty argument list (which excludes `io::Read::read(&mut buf)` and
//! friends), where `<field>` — the identifier right before the call —
//! maps to a level in the manifest. While one acquisition is live,
//! acquiring a level of equal or lower rank is a finding.
//!
//! Guard lifetimes are approximated conservatively:
//!
//! - a guard bound by a simple `let g = field.lock();` lives until
//!   `drop(g)` or until its block closes;
//! - any other acquisition is a *temporary*: it lives to the end of the
//!   statement — the `;` at the acquisition's brace depth, or the `}`
//!   that closes back to it. That models Rust's real temporary rules
//!   for `match field.lock().x { … }` scrutinees and `for x in
//!   field.lock().iter() { … }` headers, where the guard outlives the
//!   whole block;
//! - a chain that ends in `.unwrap()` / `.expect(…)` (the `std::sync`
//!   poison dance) classifies like the bare call; any other chained
//!   method makes the acquisition a statement-scoped temporary.
//!
//! The approximation errs toward releasing early (struct-literal braces
//! close "blocks" that are not scopes), which can miss a hold but never
//! invents one — no false positives from the lifetime model.

use crate::config::LockLevel;
use crate::lexer::{Tok, TokKind};
use crate::report::{Finding, Rule, Suppression};
use crate::rules::{emit, FileCtx};

/// Methods that acquire a lock when called with no arguments.
const ACQUIRE_METHODS: &[&str] = &["lock", "try_lock", "read", "write"];

/// One live acquisition.
struct Held {
    rank: i64,
    level_name: String,
    field: String,
    /// `Some(name)` for a simple `let name = …;` binding (releasable by
    /// `drop(name)`), `None` otherwise.
    binding: Option<String>,
    /// Let-bound guards survive `;`; temporaries do not.
    is_let: bool,
    /// Brace depth at the acquisition site.
    depth: usize,
    line: u32,
}

/// Per-brace-depth statement tracking, enough to classify `let`s.
#[derive(Default)]
struct Stmt {
    seen_first: bool,
    is_let: bool,
    /// Waiting for the binding identifier after `let` / `let mut`.
    expect_binding: bool,
    binding: Option<String>,
}

/// Skips `in_attr` tokens; returns the index of the next code token.
fn next_code(toks: &[Tok], mut i: usize) -> Option<usize> {
    while i < toks.len() {
        if !toks[i].in_attr {
            return Some(i);
        }
        i += 1;
    }
    None
}

fn is_punct(toks: &[Tok], i: usize, c: char) -> bool {
    toks.get(i)
        .is_some_and(|t| t.kind == TokKind::Punct(c) && !t.in_attr)
}

/// The rank constant named in a `tracked_lock` call: the
/// last identifier before the first top-level comma of the argument
/// list (`ranks::KEY_STATE` → `KEY_STATE`).
fn rank_const_name(toks: &[Tok], start: usize, close: usize) -> Option<String> {
    let mut last_ident = None;
    let mut paren = 0i64;
    for tok in toks.iter().take(close).skip(start) {
        if tok.in_attr {
            continue;
        }
        match tok.kind {
            TokKind::Punct('(') => paren += 1,
            TokKind::Punct(')') => paren -= 1,
            TokKind::Punct(',') if paren == 0 => break,
            TokKind::Ident => last_ident = Some(tok.text.clone()),
            _ => {}
        }
    }
    last_ident
}

/// Walks past a `.unwrap()` / `.expect(…)` poison-handling tail so the
/// let/temp classification sees the real end of the acquisition
/// expression. `end` is the index of the chain's closing `)`.
fn poison_tail_end(toks: &[Tok], mut end: usize) -> usize {
    while is_punct(toks, end + 1, '.')
        && toks
            .get(end + 2)
            .is_some_and(|t| t.kind == TokKind::Ident && (t.text == "unwrap" || t.text == "expect"))
        && is_punct(toks, end + 3, '(')
    {
        match matching_paren(toks, end + 3) {
            Some(close) => end = close,
            None => break,
        }
    }
    end
}

/// Given the index of an opening `(`, returns the index of its match.
fn matching_paren(toks: &[Tok], open: usize) -> Option<usize> {
    let mut depth = 0i64;
    for (i, tok) in toks.iter().enumerate().skip(open) {
        if tok.in_attr {
            continue;
        }
        match tok.kind {
            TokKind::Punct('(') => depth += 1,
            TokKind::Punct(')') => {
                depth -= 1;
                if depth == 0 {
                    return Some(i);
                }
            }
            _ => {}
        }
    }
    None
}

/// Runs the rule over one file.
#[allow(clippy::too_many_lines)]
pub fn check(ctx: &FileCtx<'_>, findings: &mut Vec<Finding>, suppressions: &mut Vec<Suppression>) {
    if ctx.config.lock_levels.is_empty() {
        return;
    }
    let toks = &ctx.lexed.toks;
    let mut held: Vec<Held> = Vec::new();
    let mut depth: usize = 0;
    let mut stmts: Vec<Stmt> = vec![Stmt::default()];

    let mut i = 0usize;
    while i < toks.len() {
        let tok = &toks[i];
        if tok.in_attr {
            i += 1;
            continue;
        }
        match tok.kind {
            TokKind::Punct('{') => {
                depth += 1;
                stmts.push(Stmt::default());
            }
            TokKind::Punct('}') => {
                depth = depth.saturating_sub(1);
                if stmts.len() > 1 {
                    stmts.pop();
                }
                // Everything acquired deeper is out of scope; temporaries
                // acquired at this depth belonged to the statement the
                // block just finished (match/for headers).
                held.retain(|h| h.depth <= depth && (h.is_let || h.depth < depth));
                // A closing brace usually ends a statement too (`fn`,
                // `if`, `match` — none carry a `;`), so the next token
                // starts fresh.
                if let Some(stmt) = stmts.last_mut() {
                    *stmt = Stmt::default();
                }
            }
            // `;` ends a statement; `,` ends a brace-less match arm (and
            // arms are mutually exclusive, so their temporaries never
            // coexist). Releasing temporaries at commas inside argument
            // lists is early, but early release only misses holds — it
            // never invents one.
            TokKind::Punct(';' | ',') => {
                held.retain(|h| h.is_let || h.depth != depth);
                if let Some(stmt) = stmts.last_mut() {
                    *stmt = Stmt::default();
                }
            }
            TokKind::Ident => {
                let stmt = stmts.last_mut().expect("statement stack is never empty");
                let text = tok.text.as_str();
                if !stmt.seen_first {
                    stmt.seen_first = true;
                    if text == "let" {
                        stmt.is_let = true;
                        stmt.expect_binding = true;
                        i += 1;
                        continue;
                    }
                } else if stmt.expect_binding {
                    if text == "mut" {
                        i += 1;
                        continue;
                    }
                    stmt.expect_binding = false;
                    // A simple binding is `let name =` or `let name : Ty =`
                    // (`::` or `(` after the ident means an enum pattern).
                    let simple = match next_code(toks, i + 1) {
                        Some(j) if is_punct(toks, j, '=') => true,
                        Some(j) if is_punct(toks, j, ':') => !is_punct(toks, j + 1, ':'),
                        _ => false,
                    };
                    if simple {
                        stmt.binding = Some(text.to_string());
                    }
                    i += 1;
                    continue;
                }
                // `drop(name)` releases a let-bound guard early.
                if text == "drop"
                    && is_punct(toks, i + 1, '(')
                    && toks.get(i + 2).is_some_and(|t| t.kind == TokKind::Ident)
                    && is_punct(toks, i + 3, ')')
                {
                    let name = toks[i + 2].text.as_str();
                    if let Some(pos) = held
                        .iter()
                        .rposition(|h| h.binding.as_deref() == Some(name))
                    {
                        held.remove(pos);
                    }
                    i += 4;
                    continue;
                }
                // A checked acquisition through the runtime wrapper:
                // `tracked_lock(ranks::LEVEL, "name", || field.lock())`.
                // The declared level comes from the
                // `ranks::` constant — its lowercased name is the level
                // name — and the whole call is the acquisition, so the
                // `.lock()` inside the closure is not double-counted.
                if text == "tracked_lock" && is_punct(toks, i + 1, '(') {
                    if let Some(close) = matching_paren(toks, i + 1) {
                        let const_name = rank_const_name(toks, i + 2, close);
                        let level = const_name
                            .as_deref()
                            .and_then(|c| ctx.config.lock_level_named(&c.to_lowercase()));
                        if let Some(level) = level {
                            if !ctx.in_test(tok.line) {
                                report_conflicts(
                                    ctx,
                                    &held,
                                    level,
                                    &level.name,
                                    tok.line,
                                    findings,
                                    suppressions,
                                );
                                let end = poison_tail_end(toks, close);
                                let stmt = stmts.last().expect("statement stack is never empty");
                                let is_let = stmt.is_let && is_punct(toks, end + 1, ';');
                                held.push(Held {
                                    rank: level.rank,
                                    level_name: level.name.clone(),
                                    field: level.name.clone(),
                                    binding: if is_let { stmt.binding.clone() } else { None },
                                    is_let,
                                    depth,
                                    line: tok.line,
                                });
                            }
                            // Skip the call body: its commas and inner
                            // `.lock()` belong to the wrapper, not the
                            // surrounding statement.
                            i = close + 1;
                            continue;
                        } else if const_name.is_some() && !ctx.in_test(tok.line) {
                            emit(
                                ctx,
                                Rule::LockOrder,
                                tok.line,
                                format!(
                                    "`{text}` names rank constant `{}` with no matching \
                                     level in audit.toml",
                                    const_name.as_deref().unwrap_or_default()
                                ),
                                findings,
                                suppressions,
                            );
                        }
                    }
                }
                // An acquisition: `<field> . <method> ( )`.
                if ACQUIRE_METHODS.contains(&text)
                    && i >= 2
                    && is_punct(toks, i - 1, '.')
                    && toks[i - 2].kind == TokKind::Ident
                    && is_punct(toks, i + 1, '(')
                    && is_punct(toks, i + 2, ')')
                {
                    let field = toks[i - 2].text.clone();
                    if let Some(level) = ctx.config.lock_level_of(&field) {
                        if !ctx.in_test(tok.line) {
                            report_conflicts(
                                ctx,
                                &held,
                                level,
                                &field,
                                tok.line,
                                findings,
                                suppressions,
                            );
                            let end = poison_tail_end(toks, i + 2);
                            let stmt = stmts.last().expect("statement stack is never empty");
                            let is_let = stmt.is_let && is_punct(toks, end + 1, ';');
                            held.push(Held {
                                rank: level.rank,
                                level_name: level.name.clone(),
                                field,
                                binding: if is_let { stmt.binding.clone() } else { None },
                                is_let,
                                depth,
                                line: tok.line,
                            });
                        }
                        i += 3;
                        continue;
                    }
                }
            }
            _ => {
                if let Some(stmt) = stmts.last_mut() {
                    if !stmt.seen_first {
                        stmt.seen_first = true;
                    } else if stmt.expect_binding {
                        // `let (a, b) = …` / `let [x] = …`: a pattern,
                        // not a simple binding.
                        stmt.expect_binding = false;
                    }
                }
            }
        }
        i += 1;
    }
}

/// Emits one finding per held lock whose rank blocks the new acquisition.
fn report_conflicts(
    ctx: &FileCtx<'_>,
    held: &[Held],
    level: &LockLevel,
    field: &str,
    line: u32,
    findings: &mut Vec<Finding>,
    suppressions: &mut Vec<Suppression>,
) {
    for h in held {
        if h.rank >= level.rank {
            let shape = if h.rank == level.rank && h.field == field {
                "re-acquires the same level (self-deadlock)".to_string()
            } else {
                format!(
                    "inverts the declared order (`{}` is level {}, `{}` is level {})",
                    h.field, h.rank, field, level.rank
                )
            };
            emit(
                ctx,
                Rule::LockOrder,
                line,
                format!(
                    "acquiring `{field}` ({}) while holding `{}` ({}) from line {} {shape}",
                    level.name, h.field, h.level_name, h.line
                ),
                findings,
                suppressions,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::annotations;
    use crate::config::{AuditConfig, LockLevel};
    use crate::lexer::lex;
    use crate::rules::test_spans;

    fn config() -> AuditConfig {
        AuditConfig {
            lock_levels: vec![
                LockLevel {
                    rank: 0,
                    name: "shard_map".into(),
                    fields: vec!["map".into()],
                },
                LockLevel {
                    rank: 20,
                    name: "slot_table".into(),
                    fields: vec!["slots".into()],
                },
                LockLevel {
                    rank: 30,
                    name: "key_state".into(),
                    fields: vec!["state".into()],
                },
            ],
            ..AuditConfig::default()
        }
    }

    fn run(src: &str) -> Vec<Finding> {
        let config = config();
        let lexed = lex(src);
        let ann = annotations::index(&lexed);
        let ctx = FileCtx {
            path: "crates/store/src/shard.rs",
            lexed: &lexed,
            ann: &ann,
            config: &config,
            test_spans: test_spans(&lexed),
        };
        let mut findings = Vec::new();
        let mut suppressions = Vec::new();
        check(&ctx, &mut findings, &mut suppressions);
        findings
    }

    #[test]
    fn increasing_order_is_clean() {
        let src = "\
fn f(s: &Shard) {
    let guard = s.map.lock();
    let slots = s.slots.read();
    let mut st = s.state.lock();
    st.touch();
}
";
        assert!(run(src).is_empty());
    }

    #[test]
    fn inversion_is_flagged() {
        let src = "\
fn f(s: &Shard) {
    let st = s.state.lock();
    let guard = s.map.lock();
}
";
        let findings = run(src);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].line, 3);
        assert!(findings[0].message.contains("inverts"));
    }

    #[test]
    fn drop_releases_a_let_guard() {
        let src = "\
fn f(s: &Shard) {
    let st = s.state.lock();
    drop(st);
    let guard = s.map.lock();
}
";
        assert!(run(src).is_empty());
    }

    #[test]
    fn block_close_releases_a_let_guard() {
        let src = "\
fn f(s: &Shard) {
    {
        let st = s.state.lock();
    }
    let guard = s.map.lock();
}
";
        assert!(run(src).is_empty());
    }

    #[test]
    fn temporary_released_at_statement_end() {
        let src = "\
fn f(s: &Shard) {
    let token = *s.state.lock().token();
    let guard = s.map.lock();
}
";
        assert!(run(src).is_empty());
    }

    #[test]
    fn match_scrutinee_temporary_held_through_arms() {
        // The scrutinee guard lives until the match's closing brace —
        // acquiring a lower level inside an arm deadlocks for real.
        let src = "\
fn f(s: &Shard) {
    match s.state.lock().kind {
        Kind::A => {
            let guard = s.map.lock();
        }
        Kind::B => {}
    }
}
";
        let findings = run(src);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].line, 4);
    }

    #[test]
    fn for_loop_header_temporary_held_through_body() {
        let src = "\
fn f(s: &Shard) {
    for slot in s.slots.read().iter() {
        let guard = s.map.lock();
    }
}
";
        let findings = run(src);
        assert_eq!(findings.len(), 1);
    }

    #[test]
    fn braceless_match_arms_are_independent() {
        // Arms never execute together; the first arm's temporary must
        // not count as held in the second.
        let src = "\
fn f(s: &Shard, r: Result<u32, ()>) {
    match r {
        Ok(v) => s.state.lock().push(v),
        Err(()) => {
            let guard = s.map.lock();
        }
    }
}
";
        assert!(run(src).is_empty());
    }

    #[test]
    fn same_field_reacquire_is_self_deadlock() {
        let src = "\
fn f(s: &Shard) {
    let a = s.state.lock();
    let b = s.state.lock();
}
";
        let findings = run(src);
        assert_eq!(findings.len(), 1);
        assert!(findings[0].message.contains("self-deadlock"));
    }

    #[test]
    fn sequential_statements_do_not_conflict() {
        let src = "\
fn f(s: &Shard) {
    s.state.lock().touch();
    s.map.lock().insert(1);
}
";
        assert!(run(src).is_empty());
    }

    #[test]
    fn poison_unwrap_chain_counts_as_let_binding() {
        let src = "\
fn f(s: &Shard) {
    let st = s.state.lock().unwrap();
    let guard = s.map.lock().unwrap();
}
";
        let findings = run(src);
        assert_eq!(findings.len(), 1);
    }

    #[test]
    fn io_read_with_args_is_not_an_acquisition() {
        // `read(&mut buf)` has arguments — not a lock. The field name
        // even collides with a manifest field to prove the arg check.
        let src = "\
fn f(s: &Shard, buf: &mut [u8]) {
    let st = s.state.lock();
    s.slots.read(buf);
}
";
        assert!(run(src).is_empty());
    }

    #[test]
    fn unknown_fields_are_ignored() {
        let src = "fn f(m: &M) { let a = m.other.lock(); let b = m.thing.lock(); }\n";
        assert!(run(src).is_empty());
    }

    #[test]
    fn annotation_suppresses_lock_order() {
        let src = "\
fn f(s: &Shard) {
    let st = s.state.lock();
    // audit:allow(lock-order) — single-threaded recovery path, no contention
    let guard = s.map.lock();
}
";
        assert!(run(src).is_empty());
    }

    #[test]
    fn tracked_lock_calls_are_acquisitions() {
        // The wrapper names its level via the `ranks::` constant; the
        // `.lock()` inside the closure must not double-count, and a
        // let-bound `Tracked` guard holds until its block closes.
        let src = "\
fn f(s: &Shard) {
    let st = tracked_lock(ranks::KEY_STATE, \"key_state\", || s.inner.lock());
    let guard = tracked_lock(ranks::SHARD_MAP, \"shard_map\", || s.m.lock());
}
";
        let findings = run(src);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].line, 3);
        assert!(findings[0].message.contains("inverts"));
    }

    #[test]
    fn tracked_lock_increasing_order_is_clean() {
        let src = "\
fn f(s: &Shard) {
    let m = tracked_lock(ranks::SHARD_MAP, \"shard_map\", || s.m.lock());
    let st = tracked_lock(ranks::KEY_STATE, \"key_state\", || s.inner.lock());
    drop(st);
    drop(m);
}
";
        assert!(run(src).is_empty());
    }

    #[test]
    fn tracked_lock_unknown_level_is_flagged() {
        let src = "\
fn f(s: &Shard) {
    let g = tracked_lock(ranks::NOT_A_LEVEL, \"nope\", || s.m.lock());
}
";
        let findings = run(src);
        assert_eq!(findings.len(), 1);
        assert!(findings[0].message.contains("NOT_A_LEVEL"));
    }

    #[test]
    fn test_modules_are_exempt() {
        let src = "\
#[cfg(test)]
mod tests {
    fn t(s: &Shard) {
        let st = s.state.lock();
        let guard = s.map.lock();
    }
}
";
        assert!(run(src).is_empty());
    }
}
