//! Cross-validation of the [`crate::spec`] registries against the
//! workspace's source text: every public `ServerBehavior` field must
//! cite a rule in [`QUIRK_RULES`], every public `h2scope` probe one in
//! [`PROBE_RULES`], and neither list may name something that no longer
//! exists. Each check produces one `[drift]` summary line plus a finding
//! per mismatch.
//!
//! What the spec tables say about *running* code (the §5.1 lifecycle,
//! the §6 frame rules, the HPACK tables, each profile's quirk matrix) is
//! asserted by `cargo test -p h2check` (`tests/conformance.rs`,
//! `tests/conformance_hpack.rs`), not here.

#![allow(
    clippy::indexing_slicing,
    reason = "token indices come from enumerate/loop bounds over `sf.tokens`; `in_test` has the same length by construction"
)]

use std::path::Path;

use crate::lexer::{lex, SourceFile};
use crate::report::{Finding, Report};
use crate::spec::{PROBE_RULES, QUIRK_RULES};

/// Where a stale registry row is reported (as a whole-file finding).
const SPEC_FILE: &str = "crates/h2check/src/spec.rs";

/// Runs both registry checks, appending summary lines and any mismatch
/// findings to `report`. `root` is the repository root.
pub fn run_all(root: &Path, report: &mut Report) {
    check_quirk_registry(root, report);
    check_probe_registry(root, report);
}

/// Public field names of a struct named `struct_name` in `sf`, with
/// the line each was declared on.
pub fn struct_pub_fields(sf: &SourceFile, struct_name: &str) -> Vec<(String, usize)> {
    let mut fields = Vec::new();
    for i in 0..sf.tokens.len() {
        if sf.ident_at(i) != Some("struct") || sf.ident_at(i + 1) != Some(struct_name) {
            continue;
        }
        // Find the opening brace (skipping nothing for these structs).
        let mut j = i + 2;
        while j < sf.tokens.len() && !sf.punct_at(j, '{') {
            j += 1;
        }
        let mut depth = 0i32;
        while j < sf.tokens.len() {
            if sf.punct_at(j, '{') {
                depth += 1;
            } else if sf.punct_at(j, '}') {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            } else if depth == 1 && sf.ident_at(j) == Some("pub") && sf.punct_at(j + 2, ':') {
                if let Some(name) = sf.ident_at(j + 1) {
                    fields.push((name.to_string(), sf.tokens[j + 1].line));
                }
            }
            j += 1;
        }
        break;
    }
    fields
}

/// Cross-checks one file's `ServerBehavior`-shaped struct against
/// [`QUIRK_RULES`], forward direction only (every field must cite a
/// rule). Used both by the workspace run and by `--check-file`.
pub fn check_quirk_fields(
    file: &str,
    sf: &SourceFile,
    findings: &mut Vec<Finding>,
) -> Vec<(String, usize)> {
    let fields = struct_pub_fields(sf, "ServerBehavior");
    for (name, line) in &fields {
        if !QUIRK_RULES.iter().any(|(f, _)| f == name) {
            findings.push(Finding {
                kind: "quirk-registry",
                file: file.to_string(),
                line: *line,
                message: format!(
                    "quirk field `{name}` cites no spec rule; add it to h2check::spec::QUIRK_RULES"
                ),
            });
        }
    }
    fields
}

fn check_quirk_registry(root: &Path, report: &mut Report) {
    const FILE: &str = "crates/h2server/src/behavior.rs";
    let path = root.join(FILE);
    let Ok(src) = std::fs::read_to_string(&path) else {
        report.findings.push(Finding {
            kind: "drift",
            file: FILE.to_string(),
            line: 1,
            message: "cannot read behavior.rs for the quirk registry check".to_string(),
        });
        return;
    };
    let sf = lex(&src);
    let before = report.findings.len();
    let fields = check_quirk_fields(FILE, &sf, &mut report.findings);
    let unmapped = report.findings.len() - before;
    // Reverse direction: a mapping whose field no longer exists is stale.
    let mut stale = 0;
    for (field, _) in QUIRK_RULES {
        if !fields.iter().any(|(name, _)| name == field) {
            stale += 1;
            report.findings.push(Finding {
                kind: "drift",
                file: SPEC_FILE.to_string(),
                line: 1,
                message: format!("QUIRK_RULES maps `{field}`, which is not a ServerBehavior field"),
            });
        }
    }
    report.drift.push(format!(
        "quirk registry: {}/{} ServerBehavior fields cite a rule ({stale} stale mappings)",
        fields.len() - unmapped,
        fields.len()
    ));
}

/// `module::name` for every `pub fn` in `sf` whose parameter list
/// mentions `Target`.
pub fn probe_fns(module: &str, sf: &SourceFile) -> Vec<(String, usize)> {
    let mut fns = Vec::new();
    for i in 0..sf.tokens.len() {
        if sf.in_test[i] || sf.ident_at(i) != Some("pub") || sf.ident_at(i + 1) != Some("fn") {
            continue;
        }
        let Some(name) = sf.ident_at(i + 2) else {
            continue;
        };
        if !sf.punct_at(i + 3, '(') {
            continue;
        }
        let mut depth = 0i32;
        let mut j = i + 3;
        let mut takes_target = false;
        while j < sf.tokens.len() {
            if sf.punct_at(j, '(') {
                depth += 1;
            } else if sf.punct_at(j, ')') {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            } else if sf.ident_at(j) == Some("Target") {
                takes_target = true;
            }
            j += 1;
        }
        if takes_target {
            fns.push((format!("{module}::{name}"), sf.tokens[i + 2].line));
        }
    }
    fns
}

fn check_probe_registry(root: &Path, report: &mut Report) {
    let probes_dir = root.join("crates/h2scope/src/probes");
    let mut found: Vec<(String, String, usize)> = Vec::new();
    let mut entries: Vec<_> = match std::fs::read_dir(&probes_dir) {
        Ok(rd) => rd.filter_map(Result::ok).map(|e| e.path()).collect(),
        Err(_) => {
            report.findings.push(Finding {
                kind: "drift",
                file: "crates/h2scope/src/probes/mod.rs".to_string(),
                line: 1,
                message: "cannot read the probes directory for the probe registry check"
                    .to_string(),
            });
            return;
        }
    };
    entries.sort();
    for path in entries {
        let Some(stem) = path.file_stem().and_then(|s| s.to_str()) else {
            continue;
        };
        if stem == "mod" || path.extension().and_then(|e| e.to_str()) != Some("rs") {
            continue;
        }
        let Ok(src) = std::fs::read_to_string(&path) else {
            continue;
        };
        let file = format!("crates/h2scope/src/probes/{stem}.rs");
        for (name, line) in probe_fns(stem, &lex(&src)) {
            found.push((name, file.clone(), line));
        }
    }
    let mut unmapped = 0;
    for (name, file, line) in &found {
        if !PROBE_RULES.iter().any(|(p, _)| p == name) {
            unmapped += 1;
            report.findings.push(Finding {
                kind: "probe-registry",
                file: file.clone(),
                line: *line,
                message: format!(
                    "probe `{name}` cites no spec rule; add it to h2check::spec::PROBE_RULES"
                ),
            });
        }
    }
    let mut stale = 0;
    for (probe, _) in PROBE_RULES {
        if !found.iter().any(|(name, _, _)| name == probe) {
            stale += 1;
            report.findings.push(Finding {
                kind: "drift",
                file: SPEC_FILE.to_string(),
                line: 1,
                message: format!("PROBE_RULES maps `{probe}`, which is not a public probe"),
            });
        }
    }
    report.drift.push(format!(
        "probe registry: {}/{} h2scope probes map to spec rules ({stale} stale mappings)",
        found.len() - unmapped,
        found.len()
    ));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    #[test]
    fn struct_fields_are_extracted_with_lines() {
        let sf = lex("pub struct ServerBehavior {\n    pub tls: bool,\n    pub push: bool,\n    hidden: u8,\n}");
        let fields = struct_pub_fields(&sf, "ServerBehavior");
        assert_eq!(
            fields,
            vec![("tls".to_string(), 2), ("push".to_string(), 3)]
        );
    }

    #[test]
    fn probe_fns_require_a_target_parameter() {
        let sf = lex("pub fn probe(target: &Target) -> bool { true }\n\
             pub fn median(samples: &[f64]) -> f64 { 0.0 }\n\
             fn private(target: &Target) {}\n");
        let fns = probe_fns("ping", &sf);
        assert_eq!(fns.len(), 1);
        assert_eq!(fns[0].0, "ping::probe");
    }
}
