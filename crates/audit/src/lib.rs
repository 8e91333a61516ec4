//! `rsb-audit` — the workspace's Rust-native static analyzer.
//!
//! The analyzer lexes every source file in the workspace with a
//! hand-rolled tokenizer (the vendored dependency set has no `syn`)
//! and enforces the project's concurrency and robustness discipline:
//!
//! | rule | what it enforces |
//! |------|------------------|
//! | `panic-path` | no `.unwrap()`/`.expect()`/`panic!`-family macros in tagged no-panic modules |
//! | `index-path` | no bare slice indexing on tagged total-decode paths |
//! | `atomics-relaxed` | every `Ordering::Relaxed` carries a written justification |
//! | `atomics-seqcst` | `Ordering::SeqCst` is suspicious by default and needs one too |
//! | `unsafe-confinement` | `unsafe` only in the allowed SIMD kernels, each under a `// SAFETY:` comment |
//! | `lint-headers` | every crate root carries `#![forbid(unsafe_code)]` + `#![warn(missing_docs)]` |
//! | `bad-annotation` | malformed `audit:allow` comments are findings themselves |
//!
//! Violations are suppressed — never silently — with
//! `// audit:allow(<rule>) — <justification>` on or directly above the
//! offending line; suppressions are kept in the report so they stay
//! reviewable. The manifest (`audit.toml` at the repo root) declares
//! the tagged paths. Lock ordering is not a static rule: the one nested
//! acquisition in the workspace crosses a function boundary, which a
//! token-level pass cannot follow, so the store checks its lock
//! hierarchy at run time (`rsb-store`'s `lockorder` module).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod annotations;
pub mod config;
pub mod lexer;
pub mod report;
pub mod rules;

use crate::config::AuditConfig;
use crate::report::{Finding, Report, Rule};
use crate::rules::FileCtx;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Audits one file's source text. `rel_path` is the repo-relative,
/// `/`-separated path used for rule scoping and diagnostics.
#[must_use]
pub fn audit_source(rel_path: &str, src: &str, config: &AuditConfig) -> Report {
    let lexed = lexer::lex(src);
    let ann = annotations::index(&lexed);
    let ctx = FileCtx {
        path: rel_path,
        lexed: &lexed,
        ann: &ann,
        config,
        test_spans: rules::test_spans(&lexed),
    };
    let mut report = Report {
        files_scanned: 1,
        ..Report::default()
    };
    rules::panic_paths::check(&ctx, &mut report.findings, &mut report.suppressions);
    rules::atomics::check(&ctx, &mut report.findings, &mut report.suppressions);
    rules::unsafe_confinement::check(&ctx, &mut report.findings, &mut report.suppressions);
    for bad in &ann.bad {
        report.findings.push(Finding {
            rule: Rule::BadAnnotation,
            path: rel_path.to_string(),
            line: bad.line,
            message: bad.message.clone(),
        });
    }
    report
}

/// Directory names never descended into: build output, vendored stub
/// crates, and the analyzer's own golden-file fixtures (deliberately
/// dirty by design).
fn skip_dir(name: &str) -> bool {
    name == "target" || name == "vendor" || name == "fixtures" || name.starts_with('.')
}

/// Collects every `.rs` file under `<root>/crates`, sorted, with the
/// skip list applied.
///
/// # Errors
///
/// Propagates filesystem errors other than a missing `crates/` dir.
pub fn collect_workspace_files(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    let crates = root.join("crates");
    if crates.is_dir() {
        walk(&crates, &mut files)?;
    }
    files.sort();
    Ok(files)
}

fn walk(dir: &Path, files: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if !skip_dir(&name) {
                walk(&path, files)?;
            }
        } else if name.ends_with(".rs") {
            files.push(path);
        }
    }
    Ok(())
}

/// The repo-relative, `/`-separated form of `path` under `root`.
fn rel_path(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    let mut out = String::new();
    for comp in rel.components() {
        if !out.is_empty() {
            out.push('/');
        }
        out.push_str(&comp.as_os_str().to_string_lossy());
    }
    out
}

/// Runs the full workspace audit from `root`: every crate source file
/// through the token rules, plus the per-crate lint-header check.
///
/// # Errors
///
/// Propagates filesystem errors (unreadable files or directories).
pub fn run_workspace_audit(root: &Path, config: &AuditConfig) -> io::Result<Report> {
    let mut report = Report::default();
    for path in collect_workspace_files(root)? {
        let src = fs::read_to_string(&path)?;
        report.merge(audit_source(&rel_path(root, &path), &src, config));
    }
    check_lint_headers(root, config, &mut report)?;
    report.sort();
    Ok(report)
}

/// Audits an explicit list of files (repo-relative or absolute); the
/// workspace-level lint-header rule does not run in this mode.
///
/// # Errors
///
/// Propagates filesystem errors (unreadable files).
pub fn run_files_audit(root: &Path, files: &[PathBuf], config: &AuditConfig) -> io::Result<Report> {
    let mut report = Report::default();
    for file in files {
        let abs = if file.is_absolute() {
            file.clone()
        } else {
            root.join(file)
        };
        let src = fs::read_to_string(&abs)?;
        report.merge(audit_source(&rel_path(root, &abs), &src, config));
    }
    report.sort();
    Ok(report)
}

/// Applies the lint-header rule to every crate root under
/// `<root>/crates`.
fn check_lint_headers(root: &Path, config: &AuditConfig, report: &mut Report) -> io::Result<()> {
    let crates = root.join("crates");
    if !crates.is_dir() {
        return Ok(());
    }
    let mut dirs: Vec<PathBuf> = fs::read_dir(&crates)?
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.is_dir())
        .collect();
    dirs.sort();
    for dir in dirs {
        let crate_name = dir
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        let lib = dir.join("src/lib.rs");
        let main = dir.join("src/main.rs");
        let root_file = if lib.is_file() {
            lib
        } else if main.is_file() {
            main
        } else {
            continue;
        };
        let src = fs::read_to_string(&root_file)?;
        let lexed = lexer::lex(&src);
        rules::lint_headers::check_crate_root(
            &crate_name,
            &rel_path(root, &root_file),
            &lexed,
            &config.deny_header_ok,
            &mut report.findings,
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn audit_source_wires_all_rules() {
        let config = AuditConfig {
            no_panic_paths: vec!["crates/store/src/net/".into()],
            ..AuditConfig::default()
        };
        let src = "\
fn f(a: &AtomicU64) {
    x.unwrap();
    a.load(Ordering::Relaxed);
    unsafe { y() }
}
// audit:allow(nope) — not a rule
";
        let report = audit_source("crates/store/src/net/frame.rs", src, &config);
        let rules_hit: Vec<&str> = report.findings.iter().map(|f| f.rule.id()).collect();
        assert!(rules_hit.contains(&"panic-path"));
        assert!(rules_hit.contains(&"atomics-relaxed"));
        assert!(rules_hit.contains(&"unsafe-confinement"));
        assert!(rules_hit.contains(&"bad-annotation"));
        assert_eq!(report.files_scanned, 1);
    }

    #[test]
    fn skip_list_covers_build_and_fixture_dirs() {
        assert!(skip_dir("target"));
        assert!(skip_dir("vendor"));
        assert!(skip_dir("fixtures"));
        assert!(skip_dir(".git"));
        assert!(!skip_dir("src"));
        assert!(!skip_dir("tests"));
    }
}
