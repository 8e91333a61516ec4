//! `audit.toml` — the analyzer's manifest — and the minimal TOML
//! subset it is written in.
//!
//! The build environment vendors stub crates only, so there is no real
//! TOML (or serde) implementation to lean on. The parser below covers
//! exactly what the manifest needs: `[section]` headers,
//! `key = "string"`, `key = true`, and (possibly multi-line)
//! `key = ["a", "b"]` string arrays. Anything
//! else is a hard error — the manifest is project infrastructure, not
//! user input.

use std::collections::BTreeMap;
use std::fmt;

/// A parse or validation error, with the offending line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError {
    /// 1-based line in the manifest (0 for structural errors).
    pub line: u32,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "audit.toml:{}: {}", self.line, self.message)
    }
}

impl std::error::Error for ConfigError {}

/// A parsed TOML value (the subset the manifest uses).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TomlValue {
    /// A quoted string.
    Str(String),
    /// A boolean.
    Bool(bool),
    /// An array of strings.
    StrArray(Vec<String>),
}

/// One `[section]`: its key/value pairs by key.
pub type TomlTable = BTreeMap<String, TomlValue>;

/// The parsed document: its `[name]` sections by name.
#[derive(Debug, Default)]
pub struct TomlDoc {
    /// `[name]` sections.
    pub tables: BTreeMap<String, TomlTable>,
}

fn err(line: u32, message: impl Into<String>) -> ConfigError {
    ConfigError {
        line,
        message: message.into(),
    }
}

/// Strips a trailing `#` comment that is not inside a quoted string.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    let mut escaped = false;
    for (i, c) in line.char_indices() {
        if escaped {
            escaped = false;
            continue;
        }
        match c {
            '\\' if in_str => escaped = true,
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

fn parse_scalar(raw: &str, line_no: u32) -> Result<TomlValue, ConfigError> {
    let raw = raw.trim();
    if let Some(rest) = raw.strip_prefix('"') {
        let Some(body) = rest.strip_suffix('"') else {
            return Err(err(line_no, "unterminated string"));
        };
        // The manifest needs no escapes beyond \" and \\.
        let mut out = String::new();
        let mut escaped = false;
        for c in body.chars() {
            if escaped {
                out.push(c);
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else {
                out.push(c);
            }
        }
        return Ok(TomlValue::Str(out));
    }
    if raw == "true" {
        return Ok(TomlValue::Bool(true));
    }
    if raw == "false" {
        return Ok(TomlValue::Bool(false));
    }
    Err(err(line_no, format!("unsupported value `{raw}`")))
}

/// Parses the supported TOML subset.
///
/// # Errors
///
/// Fails on any construct outside the subset (inline tables, numbers,
/// arrays of tables, non-string arrays, dotted keys), with the offending
/// line number.
pub fn parse_toml(src: &str) -> Result<TomlDoc, ConfigError> {
    let mut doc = TomlDoc::default();
    // The section key/value pairs currently land in.
    let mut cursor: Option<String> = None;
    let mut lines = src.lines().enumerate().peekable();
    while let Some((idx, raw)) = lines.next() {
        let line_no = u32::try_from(idx + 1).unwrap_or(u32::MAX);
        let line = strip_comment(raw).trim();
        if line.is_empty() {
            continue;
        }
        if line.starts_with("[[") {
            return Err(err(line_no, "arrays of tables are not supported"));
        }
        if let Some(rest) = line.strip_prefix('[') {
            let Some(name) = rest.strip_suffix(']') else {
                return Err(err(line_no, "malformed [section] header"));
            };
            let name = name.trim().to_string();
            doc.tables.entry(name.clone()).or_default();
            cursor = Some(name);
            continue;
        }
        let Some(eq) = line.find('=') else {
            return Err(err(
                line_no,
                format!("expected `key = value`, got `{line}`"),
            ));
        };
        let key = line[..eq].trim().to_string();
        if key.is_empty() || key.contains('.') {
            return Err(err(line_no, "unsupported key (empty or dotted)"));
        }
        let mut value_src = line[eq + 1..].trim().to_string();
        // Multi-line arrays: keep consuming lines until the bracket
        // closes (comments already stripped per line).
        if value_src.starts_with('[') {
            while !value_src.trim_end().ends_with(']') {
                let Some((_, next)) = lines.next() else {
                    return Err(err(line_no, "unterminated array"));
                };
                value_src.push(' ');
                value_src.push_str(strip_comment(next).trim());
            }
        }
        let value = if let Some(body) = value_src
            .trim()
            .strip_prefix('[')
            .and_then(|v| v.strip_suffix(']'))
        {
            let mut items = Vec::new();
            for item in split_array_items(body) {
                match parse_scalar(&item, line_no)? {
                    TomlValue::Str(s) => items.push(s),
                    _ => return Err(err(line_no, "arrays may only contain strings")),
                }
            }
            TomlValue::StrArray(items)
        } else {
            parse_scalar(&value_src, line_no)?
        };
        let Some(name) = &cursor else {
            return Err(err(line_no, "key/value before any [section]"));
        };
        let table = doc.tables.get_mut(name).expect("cursor points at a table");
        if table.insert(key.clone(), value).is_some() {
            return Err(err(line_no, format!("duplicate key `{key}`")));
        }
    }
    Ok(doc)
}

/// Splits a bracketless array body on commas outside quotes.
fn split_array_items(body: &str) -> Vec<String> {
    let mut items = Vec::new();
    let mut current = String::new();
    let mut in_str = false;
    let mut escaped = false;
    for c in body.chars() {
        if escaped {
            current.push(c);
            escaped = false;
            continue;
        }
        match c {
            '\\' if in_str => {
                current.push(c);
                escaped = true;
            }
            '"' => {
                in_str = !in_str;
                current.push(c);
            }
            ',' if !in_str => {
                items.push(std::mem::take(&mut current));
            }
            _ => current.push(c),
        }
    }
    if !current.trim().is_empty() {
        items.push(current);
    }
    items
        .into_iter()
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .collect()
}

/// The analyzer's full configuration.
#[derive(Debug, Clone, Default)]
pub struct AuditConfig {
    /// Path prefixes (repo-relative, `/`-separated) where panic paths
    /// are forbidden.
    pub no_panic_paths: Vec<String>,
    /// Path prefixes where slice indexing is additionally forbidden.
    pub no_index_paths: Vec<String>,
    /// Files allowed to contain `unsafe` (each use still needs a
    /// `// SAFETY:` comment).
    pub unsafe_allowed: Vec<String>,
    /// Crate names whose `lib.rs` may carry `#![deny(unsafe_code)]`
    /// instead of `#![forbid(unsafe_code)]`.
    pub deny_header_ok: Vec<String>,
}

fn take_str_array(table: &TomlTable, key: &str) -> Vec<String> {
    match table.get(key) {
        Some(TomlValue::StrArray(v)) => v.clone(),
        _ => Vec::new(),
    }
}

/// Parses `audit.toml`.
///
/// # Errors
///
/// Fails on TOML outside the supported subset.
pub fn parse_config(src: &str) -> Result<AuditConfig, ConfigError> {
    let doc = parse_toml(src)?;
    let mut config = AuditConfig::default();
    if let Some(table) = doc.tables.get("no_panic") {
        config.no_panic_paths = take_str_array(table, "paths");
        config.no_index_paths = take_str_array(table, "index_paths");
    }
    if let Some(table) = doc.tables.get("unsafe_code") {
        config.unsafe_allowed = take_str_array(table, "allowed");
        config.deny_header_ok = take_str_array(table, "deny_header_ok");
    }
    Ok(config)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"
# top comment
[no_panic]
paths = [
    "crates/store/src/net/",   # wire paths
    "crates/store/src/recorder.rs",
]
index_paths = ["crates/store/src/net/frame.rs"]

[unsafe_code]
allowed = ["crates/coding/src/gf256/simd.rs"]
deny_header_ok = ["coding"]
"#;

    #[test]
    fn parses_the_manifest_shape() {
        let config = parse_config(SAMPLE).unwrap();
        assert_eq!(config.no_panic_paths.len(), 2);
        assert_eq!(config.no_index_paths, vec!["crates/store/src/net/frame.rs"]);
        assert_eq!(
            config.unsafe_allowed,
            vec!["crates/coding/src/gf256/simd.rs"]
        );
        assert_eq!(config.deny_header_ok, vec!["coding"]);
    }

    #[test]
    fn rejects_unsupported_values() {
        assert!(parse_toml("[t]\nx = 1.5\n").is_err());
        assert!(parse_toml("[t]\nx = 1\n").is_err());
        assert!(parse_toml("x = true\n").is_err());
        assert!(parse_toml("[[t]]\nx = true\n").is_err());
        assert!(parse_toml("[t]\nx = { a = 1 }\n").is_err());
    }

    #[test]
    fn comments_and_strings_interact() {
        let doc = parse_toml("[t]\nx = \"a # not a comment\" # real one\n").unwrap();
        assert_eq!(
            doc.tables["t"]["x"],
            TomlValue::Str("a # not a comment".into())
        );
    }
}
