//! Workspace walking and lint scoping.
//!
//! Which lint applies where:
//!
//! | lint | scope |
//! |---|---|
//! | `lockorder` | every crate (one acquisition graph, merged by lock name) |
//! | `detiter` | the report/record/response-producing crates (hash-order iteration) |
//! | `atomics` | every crate (the atomic-ordering registry) |
//! | `lints` | every member manifest (`crates/*`, `compat/*`) inherits `[workspace.lints]` |
//! | registries | `ServerBehavior`'s fields and `h2scope`'s probes vs [`crate::spec`]'s rule lists |
//!
//! What the spec tables say about running code is not in this table: it
//! is `cargo test -p h2check` (`tests/conformance*.rs`), which links the
//! protocol stack so that this library and its binary need not.
//!
//! Panic-freedom, `unsafe` and wall-clock time are the toolchain's:
//! `[workspace.lints]`, the crate-root `#![warn(clippy::…)]` of the
//! crates that parse outside input, and the root `clippy.toml`, all
//! gated by CI's one `cargo clippy … -D warnings`. The `lints` row keeps
//! their coverage a counted fact of this report.

use std::path::{Path, PathBuf};

use crate::lexer::lex;
use crate::lints::{atomics, detiter, lockorder};
use crate::report::{Finding, Report};
use crate::{drift, spec};

/// Crates whose output (report rows, record lines, response bytes) must
/// not depend on hash-iteration order; the `detiter` lint errors on
/// `HashMap`/`HashSet` iteration here.
pub const DETERMINISTIC_ITER_CRATES: &[&str] = &[
    "h2scope",
    "h2campaign",
    "h2serve",
    "h2server",
    "h2conn",
    "bench",
];

/// The repository root, resolved from this crate's manifest directory.
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .unwrap_or_else(|_| PathBuf::from("."))
}

fn walk_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(rd) = std::fs::read_dir(dir) else {
        return;
    };
    let mut entries: Vec<PathBuf> = rd.filter_map(Result::ok).map(|e| e.path()).collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            walk_rs(&path, out);
        } else if path.extension().and_then(|e| e.to_str()) == Some("rs") {
            out.push(path);
        }
    }
}

/// The package directories under one member glob (`crates`, `compat`).
fn package_dirs(root: &Path, group: &str) -> Vec<PathBuf> {
    let mut dirs: Vec<PathBuf> = match std::fs::read_dir(root.join(group)) {
        Ok(rd) => rd.filter_map(Result::ok).map(|e| e.path()).collect(),
        Err(_) => Vec::new(),
    };
    dirs.sort();
    dirs
}

fn repo_relative(root: &Path, abs: &Path) -> Option<String> {
    let parts: Vec<_> = abs
        .strip_prefix(root)
        .ok()?
        .components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect();
    Some(parts.join("/"))
}

/// All lint-scoped source files, as (absolute path, repo-relative path).
fn source_files(root: &Path) -> Vec<(PathBuf, String)> {
    let mut files = Vec::new();
    for crate_dir in package_dirs(root, "crates") {
        walk_rs(&crate_dir.join("src"), &mut files);
    }
    walk_rs(&root.join("src"), &mut files);
    files
        .into_iter()
        .filter_map(|abs| {
            let rel = repo_relative(root, &abs)?;
            Some((abs, rel))
        })
        .collect()
}

/// `true` when a line of `manifest` inside `[table]` is `setting`
/// (`key=value`, compared with spaces removed). Not a TOML parser; it
/// reads the two spellings this check needs.
fn manifest_sets(manifest: &str, table: &str, setting: &str) -> bool {
    manifest
        .lines()
        .map(str::trim)
        .skip_while(|line| *line != table)
        .skip(1)
        .take_while(|line| !line.starts_with('['))
        .any(|line| line.replace(' ', "") == setting)
}

/// The `[drift] lints:` line. Panic-freedom, `unsafe` and wall-clock
/// time are enforced by the toolchain through `[workspace.lints]`; a
/// member that does not inherit the table silently leaves that
/// coverage, so inheritance is counted here.
fn check_lint_inheritance(root: &Path, report: &mut Report) {
    let mut lints_finding = |file: String, message: &str| {
        report.findings.push(Finding {
            kind: "lints",
            file,
            line: 1,
            message: message.to_string(),
        });
    };
    let root_manifest = std::fs::read_to_string(root.join("Cargo.toml")).unwrap_or_default();
    if !manifest_sets(
        &root_manifest,
        "[workspace.lints.rust]",
        "unsafe_code=\"forbid\"",
    ) {
        lints_finding(
            "Cargo.toml".to_string(),
            "[workspace.lints.rust] must set unsafe_code = \"forbid\"",
        );
    }
    let (mut inheriting, mut members) = (0usize, 0usize);
    for dir in ["crates", "compat"]
        .iter()
        .flat_map(|group| package_dirs(root, group))
    {
        let manifest = dir.join("Cargo.toml");
        members += 1;
        let text = std::fs::read_to_string(&manifest).unwrap_or_default();
        if manifest_sets(&text, "[lints]", "workspace=true") {
            inheriting += 1;
        } else {
            lints_finding(
                repo_relative(root, &manifest).unwrap_or_default(),
                "member manifest must say `[lints] workspace = true`",
            );
        }
    }
    report.drift.push(format!(
        "lints: {inheriting}/{members} member manifests inherit [workspace.lints]"
    ));
}

fn crate_name(rel: &str) -> &str {
    let mut parts = rel.split('/');
    if parts.next() == Some("crates") {
        parts.next().unwrap_or("h2ready")
    } else {
        "h2ready"
    }
}

/// Runs the full suite over the workspace at `root`.
pub fn run_workspace(root: &Path) -> Report {
    let mut report = Report::default();
    let mut lock_edges: Vec<lockorder::LockEdge> = Vec::new();
    let mut atomic_sites: Vec<atomics::AtomicSite> = Vec::new();
    for (abs, rel) in source_files(root) {
        let Ok(src) = std::fs::read_to_string(&abs) else {
            report.findings.push(Finding {
                kind: "drift",
                file: rel.clone(),
                line: 1,
                message: "unreadable source file".to_string(),
            });
            continue;
        };
        let krate = crate_name(&rel);
        let sf = lex(&src);
        lock_edges.extend(lockorder::collect(&rel, &sf));
        if DETERMINISTIC_ITER_CRATES.contains(&krate) {
            detiter::check(&rel, &sf, &mut report.findings);
        }
        atomic_sites.extend(atomics::collect(krate, &rel, &sf));
    }
    report.findings.extend(lockorder::cycles(&lock_edges));
    let (uses_ok, uses, decls_ok, decls, stale) =
        atomics::check_registry(&atomic_sites, true, &mut report.findings);
    report.drift.push(format!(
        "atomics registry: {uses_ok}/{uses} ordering uses sanctioned, \
         {decls_ok}/{decls} declarations registered ({stale} stale rows)"
    ));
    check_lint_inheritance(root, &mut report);
    drift::run_all(root, &mut report);
    report
}

/// Runs the source lints over a single file (the fixture/self-test
/// mode). Drift checks that need the whole workspace are skipped; the
/// quirk-registry check runs forward-only so known-bad fixtures can
/// exercise it.
pub fn check_file(path: &Path) -> Report {
    let mut report = Report::default();
    let rel = path.to_string_lossy().replace('\\', "/");
    let Ok(src) = std::fs::read_to_string(path) else {
        report.findings.push(Finding {
            kind: "drift",
            file: rel,
            line: 1,
            message: "unreadable source file".to_string(),
        });
        return report;
    };
    let sf = lex(&src);
    detiter::check(&rel, &sf, &mut report.findings);
    let edges = lockorder::collect(&rel, &sf);
    report.findings.extend(lockorder::cycles(&edges));
    let sites = atomics::collect(crate_name(&rel), &rel, &sf);
    atomics::check_registry(&sites, false, &mut report.findings);
    drift::check_quirk_fields(&rel, &sf, &mut report.findings);
    // Keep the spec tables honest even in single-file mode: a probe
    // mapping citing a modeling rule is always an error.
    for (probe, rule_ids) in spec::PROBE_RULES {
        for rule_id in *rule_ids {
            if spec::rule_by_id(rule_id).is_none() {
                report.findings.push(Finding {
                    kind: "probe-registry",
                    file: "crates/h2check/src/spec.rs".to_string(),
                    line: 1,
                    message: format!("{probe} cites unknown rule {rule_id}"),
                });
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crate_name_maps_paths() {
        assert_eq!(crate_name("crates/h2wire/src/frame.rs"), "h2wire");
        assert_eq!(crate_name("src/main.rs"), "h2ready");
    }

    #[test]
    fn manifest_settings_are_read_inside_their_table_only() {
        let inheriting = "[package]\nname = \"x\"\n\n[lints]\nworkspace = true\n";
        assert!(manifest_sets(inheriting, "[lints]", "workspace=true"));
        let elsewhere =
            "[package]\nworkspace = true\n\n[lints]\n\n[dependencies]\nworkspace = true\n";
        assert!(!manifest_sets(elsewhere, "[lints]", "workspace=true"));
        assert!(!manifest_sets("[package]\n", "[lints]", "workspace=true"));
    }

    #[test]
    fn repo_root_contains_the_workspace_manifest() {
        assert!(repo_root().join("Cargo.toml").exists());
    }
}
