//! Findings and the deterministic report rendering.

use std::fmt::Write as _;

/// One static-analysis finding. Every finding is an error: a run with
/// any finding fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Lint kind: `lockorder`, `detiter`, `atomics`, `lints`,
    /// `quirk-registry`, `probe-registry` or `drift`.
    pub kind: &'static str,
    /// Repo-relative path.
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

/// The complete result of a run.
#[derive(Debug, Default)]
pub struct Report {
    /// Cross-validation summary lines, in check order.
    pub drift: Vec<String>,
    /// All findings.
    pub findings: Vec<Finding>,
}

impl Report {
    /// Should the process exit non-zero?
    pub fn failed(&self) -> bool {
        !self.findings.is_empty()
    }

    /// Renders the deterministic report text.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("h2check: RFC 7540 conformance tables + source lints\n");
        for line in &self.drift {
            let _ = writeln!(out, "[drift] {line}");
        }
        let mut findings = self.findings.clone();
        findings.sort_by(|a, b| {
            (&a.file, a.line, a.kind, &a.message).cmp(&(&b.file, b.line, b.kind, &b.message))
        });
        for f in &findings {
            let _ = writeln!(
                out,
                "error: {}:{}: [{}] {}",
                f.file, f.line, f.kind, f.message
            );
        }
        let verdict = if self.failed() { "FAIL" } else { "PASS" };
        let _ = writeln!(out, "result: {verdict} ({} errors)", findings.len());
        out
    }
}
