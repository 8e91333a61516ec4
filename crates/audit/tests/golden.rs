//! Golden-file tests: each fixture under `tests/fixtures/` is audited
//! against the real repo manifest (`audit.toml`) and must produce
//! exactly the findings its `//~ <rule>` markers declare, at exactly
//! those lines. `//~v <rule>` anchors the expectation one line below
//! the marker (for findings on annotation comments themselves).
//!
//! The fixtures are excluded from workspace walks (`skip_dir` skips
//! `fixtures/` directories), so the deliberately dirty files never leak
//! into `--workspace` runs — `workspace_is_clean` below proves it.

use rsb_audit::config::{parse_config, AuditConfig};
use rsb_audit::report::{Report, Rule};
use rsb_audit::{audit_source, run_workspace_audit};
use std::path::Path;

fn repo_root() -> &'static Path {
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."))
}

fn manifest() -> AuditConfig {
    let src = std::fs::read_to_string(repo_root().join("audit.toml"))
        .expect("repo-root audit.toml is readable");
    parse_config(&src).expect("audit.toml parses")
}

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {}: {e}", path.display()))
}

/// The `(rule, line)` expectations a fixture's `//~` markers declare.
fn expected_markers(src: &str) -> Vec<(&'static str, u32)> {
    let mut want = Vec::new();
    for (idx, line) in src.lines().enumerate() {
        let lineno = u32::try_from(idx).expect("fixture fits in u32") + 1;
        let mut rest = line;
        while let Some(pos) = rest.find("//~") {
            let tail = &rest[pos + 3..];
            let (bump, tail) = match tail.strip_prefix('v') {
                Some(t) => (1, t),
                None => (0, tail),
            };
            let id = tail
                .split_whitespace()
                .next()
                .expect("`//~` marker names a rule");
            // Not `Rule::from_id`: that one deliberately excludes
            // `bad-annotation` (it cannot be allowlisted), but markers
            // may expect it.
            let rule = Rule::all()
                .iter()
                .copied()
                .find(|r| r.id() == id)
                .unwrap_or_else(|| panic!("`//~` marker names unknown rule `{id}`"));
            want.push((rule.id(), lineno + bump));
            rest = tail;
        }
    }
    want.sort_unstable();
    want
}

/// Audits `fixture_name` as if it lived at `rel_path` and asserts the
/// findings match the fixture's markers exactly.
fn check_golden(rel_path: &str, fixture_name: &str) -> Report {
    let src = fixture(fixture_name);
    let report = audit_source(rel_path, &src, &manifest());
    let want = expected_markers(&src);
    let mut got: Vec<(&'static str, u32)> = report
        .findings
        .iter()
        .map(|f| (f.rule.id(), f.line))
        .collect();
    got.sort_unstable();
    assert_eq!(
        got, want,
        "{fixture_name} (as {rel_path}): findings (left) diverge from `//~` markers (right)"
    );
    report
}

#[test]
fn panic_paths_bad_flagged_at_exact_lines() {
    let report = check_golden("crates/store/src/net/fixture.rs", "panic_paths_bad.rs");
    assert_eq!(report.findings.len(), 6, "all six panicking constructs");
}

#[test]
fn panic_paths_good_passes_with_suppressions() {
    let report = check_golden("crates/store/src/net/fixture.rs", "panic_paths_good.rs");
    assert!(report.is_clean());
    assert_eq!(report.suppressions.len(), 4, "one suppression per allow");
}

#[test]
fn index_paths_bad_flagged_at_exact_lines() {
    // Scoped as the decode file itself so the `index_paths` subset
    // applies on top of the `no_panic` prefix.
    let report = check_golden("crates/store/src/net/frame.rs", "index_paths_bad.rs");
    assert_eq!(report.findings_for(Rule::IndexPath).len(), 2);
    assert_eq!(report.findings_for(Rule::PanicPath).len(), 2);
}

#[test]
fn atomics_bad_flagged_at_exact_lines() {
    // The atomics rules are path-unscoped; any location works.
    check_golden("crates/store/src/fixture.rs", "atomics_bad.rs");
}

#[test]
fn atomics_good_passes_with_suppressions() {
    let report = check_golden("crates/store/src/fixture.rs", "atomics_good.rs");
    assert!(report.is_clean());
    assert_eq!(report.suppressions.len(), 2);
}

#[test]
fn unsafe_in_simd_scope_needs_safety_comments() {
    // As the allowed kernel file: only the SAFETY-less `unsafe` (the
    // marked line) is a finding; the commented one passes.
    let report = check_golden("crates/coding/src/gf256/simd.rs", "unsafe_bad.rs");
    assert!(report.findings[0].message.contains("SAFETY"));
}

#[test]
fn unsafe_outside_simd_scope_is_always_flagged() {
    // As an ordinary store file: both `unsafe` blocks are findings,
    // SAFETY comment or not.
    let src = fixture("unsafe_bad.rs");
    let report = audit_source("crates/store/src/fixture.rs", &src, &manifest());
    let unsafe_findings = report.findings_for(Rule::UnsafeConfinement);
    assert_eq!(unsafe_findings.len(), 2);
    for f in unsafe_findings {
        assert!(f.message.contains("outside the audited SIMD kernels"));
    }
}

#[test]
fn unsafe_good_passes_in_simd_scope() {
    let report = check_golden("crates/coding/src/gf256/simd.rs", "unsafe_good.rs");
    assert!(report.is_clean());
}

#[test]
fn malformed_annotations_are_findings() {
    let report = check_golden("crates/store/src/fixture.rs", "bad_annotation.rs");
    assert_eq!(report.findings.len(), 2);
}

#[test]
fn lint_headers_run_on_mini_workspace() {
    // A self-contained two-crate workspace under the fixtures dir: one
    // crate with both headers, one with neither.
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/lint_ws");
    let report = run_workspace_audit(&root, &manifest()).expect("mini workspace audits");
    assert_eq!(report.files_scanned, 2);
    let lint = report.findings_for(Rule::LintHeaders);
    assert_eq!(lint.len(), 2, "missing forbid + missing missing_docs");
    for f in &lint {
        assert_eq!(f.path, "crates/bare/src/lib.rs");
        assert_eq!(f.line, 1);
    }
    assert!(lint[0].message.contains("forbid"));
    assert!(lint[1].message.contains("missing_docs"));
}

/// The whole point of the fixtures: the real tree must audit clean.
/// (The deliberately dirty fixture files are skipped by the walk.)
#[test]
fn workspace_is_clean() {
    let report = run_workspace_audit(repo_root(), &manifest()).expect("workspace audits");
    assert!(
        report.files_scanned > 100,
        "walk found only {} files — did the layout move?",
        report.files_scanned
    );
    let listing: Vec<String> = report
        .findings
        .iter()
        .map(|f| format!("{}:{}: [{}] {}", f.path, f.line, f.rule.id(), f.message))
        .collect();
    assert!(
        report.is_clean(),
        "workspace audit must be clean, found:\n{}",
        listing.join("\n")
    );
}

/// Parity with the retired `scripts/static_audit.py`: every check the
/// Python script performed maps onto an rsb-audit rule, and the fixture
/// runs above prove each one fires. This is the superset argument that
/// justified deleting the script:
///
/// | static_audit.py check        | rsb-audit rule        |
/// |------------------------------|-----------------------|
/// | unsafe outside simd.rs       | `unsafe-confinement`  |
/// | frame.rs unwrap/expect       | `panic-path`          |
/// | frame.rs direct indexing     | `index-path`          |
/// | crate lint headers           | `lint-headers`        |
///
/// (panic-path beyond frame.rs, the atomics rules and
/// bad-annotation have no Python counterpart — strict superset.)
#[test]
fn parity_superset_of_static_audit_py() {
    let config = manifest();

    // 1. `unsafe` confinement, anywhere in the tree.
    let r = audit_source(
        "crates/store/src/x.rs",
        "fn f() { unsafe { g() } }\n",
        &config,
    );
    assert_eq!(r.findings_for(Rule::UnsafeConfinement).len(), 1);

    // 2. Decode-path totality: panic and indexing on frame.rs.
    let r = audit_source(
        "crates/store/src/net/frame.rs",
        "fn d(b: &[u8]) -> u8 { b.first().unwrap(); b[0] }\n",
        &config,
    );
    assert_eq!(r.findings_for(Rule::PanicPath).len(), 1);
    assert_eq!(r.findings_for(Rule::IndexPath).len(), 1);

    // 3. Lint headers — exercised end-to-end on the mini workspace.
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/lint_ws");
    let r = run_workspace_audit(&root, &config).expect("mini workspace audits");
    assert_eq!(r.findings_for(Rule::LintHeaders).len(), 2);
}
