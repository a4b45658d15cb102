//! Machine-readable output formats for CI.
//!
//! `--format text` (the default) prints one `file:line: [rule] message`
//! line per finding — the human-facing shape. `--format json` emits a
//! single JSON object with a versioned schema that CI asserts against
//! (the same pattern as `BENCH_engine.json`): a schema bump is a
//! deliberate, reviewed event, not a side effect of a refactor.
//!
//! The JSON is hand-serialized — this crate is deliberately
//! zero-dependency — which is safe because the value space is small:
//! paths, rule names, and messages, all run through one escaping routine.

use crate::diag::Diagnostic;

/// The version CI pins. Bump only with the CI assertion and changelog.
pub const SCHEMA_VERSION: u32 = 1;

/// Selected output format.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Format {
    /// One `file:line: [rule] message` line per finding.
    Text,
    /// A single versioned JSON report object.
    Json,
}

impl Format {
    /// Parses a `--format` argument value.
    pub fn parse(s: &str) -> Option<Format> {
        match s {
            "text" => Some(Format::Text),
            "json" => Some(Format::Json),
            _ => None,
        }
    }
}

/// Renders the full report in `format`. `files_scanned` and `rules` are
/// part of the JSON schema so CI can assert the pass actually covered the
/// tree (a lint that silently scanned zero files also reports zero
/// findings).
pub fn render(
    format: Format,
    findings: &[Diagnostic],
    files_scanned: usize,
    rules: &[&'static str],
) -> String {
    match format {
        Format::Text => {
            let mut s = String::new();
            for d in findings {
                s.push_str(&d.to_string());
                s.push('\n');
            }
            s
        }
        Format::Json => render_json(findings, files_scanned, rules),
    }
}

fn render_json(findings: &[Diagnostic], files_scanned: usize, rules: &[&'static str]) -> String {
    let rule_list = rules
        .iter()
        .map(|r| json_string(r))
        .collect::<Vec<_>>()
        .join(", ");
    let mut s = format!(
        "{{\n  \"schema_version\": {SCHEMA_VERSION},\n  \"files_scanned\": {files_scanned},\n  \
         \"rules\": [{rule_list}],\n  \"finding_count\": {},\n  \"findings\": [",
        findings.len()
    );
    for (i, d) in findings.iter().enumerate() {
        s.push_str(if i == 0 { "\n" } else { ",\n" });
        s.push_str(&format!(
            "    {{\"file\": {}, \"line\": {}, \"rule\": {}, \"message\": {}}}",
            json_string(&d.file),
            d.line,
            json_string(d.rule),
            json_string(&d.message)
        ));
    }
    if !findings.is_empty() {
        s.push_str("\n  ");
    }
    s.push_str("]\n}\n");
    s
}

/// Escapes `s` as a JSON string literal.
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
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
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<Diagnostic> {
        vec![Diagnostic::new(
            "crates/sim/src/x.rs",
            3,
            "taint-ambient-nondeterminism",
            "a \"quoted\" read\nsecond line".to_string(),
        )]
    }

    #[test]
    fn json_report_is_versioned_and_escaped() {
        let s = render(
            Format::Json,
            &sample(),
            42,
            &["taint-ambient-nondeterminism"],
        );
        assert!(s.contains("\"schema_version\": 1"), "{s}");
        assert!(s.contains("\"files_scanned\": 42"), "{s}");
        assert!(s.contains("\"finding_count\": 1"), "{s}");
        assert!(s.contains("a \\\"quoted\\\" read\\nsecond line"), "{s}");
    }

    #[test]
    fn empty_json_report_has_an_empty_findings_array() {
        let s = render(Format::Json, &[], 42, &["taint-ambient-nondeterminism"]);
        assert!(s.contains("\"finding_count\": 0"), "{s}");
        assert!(s.contains("\"findings\": []"), "{s}");
    }

    #[test]
    fn format_parsing() {
        assert_eq!(Format::parse("json"), Some(Format::Json));
        assert_eq!(Format::parse("github"), None);
        assert_eq!(Format::parse("text"), Some(Format::Text));
        assert_eq!(Format::parse("yaml"), None);
    }
}
