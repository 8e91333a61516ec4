//! Structured findings and the machine-readable report.
//!
//! Findings are `file:line` diagnostics with a rule id; the JSON
//! emitter is hand-rolled (the vendored serde is a stub) and produces
//! the artifact CI uploads.

use std::fmt::Write as _;

/// The rule that produced a finding — also the name accepted by
/// `// audit:allow(<rule>)` annotations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rule {
    /// Panicking construct in a tagged no-panic module.
    PanicPath,
    /// Slice/array indexing on a tagged total-decode path.
    IndexPath,
    /// `Ordering::Relaxed` without a justification annotation.
    AtomicsRelaxed,
    /// `Ordering::SeqCst` (suspicious-by-default) without justification.
    AtomicsSeqCst,
    /// `unsafe` outside the allowed files, or without a SAFETY comment.
    UnsafeConfinement,
    /// A crate `lib.rs` missing its mandatory lint header.
    LintHeaders,
    /// A malformed `audit:allow` annotation (unknown rule or missing
    /// justification) — never suppressible.
    BadAnnotation,
}

impl Rule {
    /// The rule's stable string id (used in reports and annotations).
    #[must_use]
    pub fn id(self) -> &'static str {
        match self {
            Rule::PanicPath => "panic-path",
            Rule::IndexPath => "index-path",
            Rule::AtomicsRelaxed => "atomics-relaxed",
            Rule::AtomicsSeqCst => "atomics-seqcst",
            Rule::UnsafeConfinement => "unsafe-confinement",
            Rule::LintHeaders => "lint-headers",
            Rule::BadAnnotation => "bad-annotation",
        }
    }

    /// Every rule the analyzer knows, in report order.
    #[must_use]
    pub fn all() -> &'static [Rule] {
        &[
            Rule::PanicPath,
            Rule::IndexPath,
            Rule::AtomicsRelaxed,
            Rule::AtomicsSeqCst,
            Rule::UnsafeConfinement,
            Rule::LintHeaders,
            Rule::BadAnnotation,
        ]
    }

    /// Parses an annotation rule id. `bad-annotation` is excluded: a
    /// malformed annotation cannot be allowlisted.
    #[must_use]
    pub fn from_id(id: &str) -> Option<Rule> {
        Rule::all()
            .iter()
            .copied()
            .filter(|&r| r != Rule::BadAnnotation)
            .find(|r| r.id() == id)
    }
}

impl std::fmt::Display for Rule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.id())
    }
}

/// One diagnostic: a rule violated at a file:line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// The violated rule.
    pub rule: Rule,
    /// Repo-relative path, `/`-separated.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// What went wrong and what to do about it.
    pub message: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path, self.line, self.rule, self.message
        )
    }
}

/// One suppressed violation: the annotation that silenced it and where.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Suppression {
    /// The rule the annotation allows.
    pub rule: Rule,
    /// Repo-relative path.
    pub path: String,
    /// 1-based line of the suppressed construct.
    pub line: u32,
    /// The annotation's justification text.
    pub justification: String,
}

/// The outcome of one audit run.
#[derive(Debug, Default)]
pub struct Report {
    /// Unsuppressed violations — any entry fails the run.
    pub findings: Vec<Finding>,
    /// Violations silenced by a justified `audit:allow` annotation,
    /// kept in the artifact so suppressions stay reviewable.
    pub suppressions: Vec<Suppression>,
    /// Files scanned.
    pub files_scanned: usize,
}

impl Report {
    /// Whether the run passed (no unsuppressed findings).
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Findings for one rule.
    #[must_use]
    pub fn findings_for(&self, rule: Rule) -> Vec<&Finding> {
        self.findings.iter().filter(|f| f.rule == rule).collect()
    }

    /// Merges another report into this one.
    pub fn merge(&mut self, other: Report) {
        self.findings.extend(other.findings);
        self.suppressions.extend(other.suppressions);
        self.files_scanned += other.files_scanned;
    }

    /// Sorts findings and suppressions by path, then line, then rule —
    /// a stable order for golden tests and diffable artifacts.
    pub fn sort(&mut self) {
        self.findings
            .sort_by(|a, b| (&a.path, a.line, a.rule.id()).cmp(&(&b.path, b.line, b.rule.id())));
        self.suppressions
            .sort_by(|a, b| (&a.path, a.line, a.rule.id()).cmp(&(&b.path, b.line, b.rule.id())));
    }

    /// Renders the machine-readable JSON report.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"version\": 1,");
        let _ = writeln!(out, "  \"files_scanned\": {},", self.files_scanned);
        let _ = writeln!(out, "  \"clean\": {},", self.is_clean());
        out.push_str("  \"findings\": [\n");
        for (i, f) in self.findings.iter().enumerate() {
            let comma = if i + 1 < self.findings.len() { "," } else { "" };
            let _ = writeln!(
                out,
                "    {{\"rule\": {}, \"path\": {}, \"line\": {}, \"message\": {}}}{comma}",
                json_str(f.rule.id()),
                json_str(&f.path),
                f.line,
                json_str(&f.message)
            );
        }
        out.push_str("  ],\n");
        out.push_str("  \"suppressions\": [\n");
        for (i, s) in self.suppressions.iter().enumerate() {
            let comma = if i + 1 < self.suppressions.len() {
                ","
            } else {
                ""
            };
            let _ = writeln!(
                out,
                "    {{\"rule\": {}, \"path\": {}, \"line\": {}, \"justification\": {}}}{comma}",
                json_str(s.rule.id()),
                json_str(&s.path),
                s.line,
                json_str(&s.justification)
            );
        }
        out.push_str("  ]\n}\n");
        out
    }
}

/// Escapes a string for JSON output.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escapes_specials() {
        assert_eq!(json_str("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
    }

    #[test]
    fn report_round_trip_shape() {
        let mut report = Report::default();
        report.findings.push(Finding {
            rule: Rule::PanicPath,
            path: "crates/x/src/lib.rs".into(),
            line: 7,
            message: "`.unwrap()` in a no-panic module".into(),
        });
        report.files_scanned = 3;
        let json = report.to_json();
        assert!(json.contains("\"rule\": \"panic-path\""));
        assert!(json.contains("\"line\": 7"));
        assert!(json.contains("\"clean\": false"));
        assert!(!report.is_clean());
    }

    #[test]
    fn rule_ids_round_trip() {
        for &rule in Rule::all() {
            if rule == Rule::BadAnnotation {
                assert_eq!(Rule::from_id(rule.id()), None);
            } else {
                assert_eq!(Rule::from_id(rule.id()), Some(rule));
            }
        }
        assert_eq!(Rule::from_id("nonsense"), None);
    }
}
