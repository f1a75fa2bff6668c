//! Workspace walking and lint scoping.
//!
//! Which lint applies where:
//!
//! | lint | scope |
//! |---|---|
//! | `panic` / `index` | non-test code of the five protocol crates (`h2wire`, `h2hpack`, `h2conn`, `h2server`, `h2scope`) |
//! | `wallclock` | every crate except `bench` (the one consumer of real time) |
//! | `lockorder` | the thread-sharing modules: `bench::sched`, `h2obs`, `netsim::pipe` |
//! | `unsafe` | `#![forbid(unsafe_code)]` attestation in the protocol-adjacent crates |
//! | `detiter` | the report/record/response-producing crates (hash-order iteration) |
//! | `atomics` | every crate (the atomic-ordering registry) |
//! | registries + drift | the spec tables of [`crate::spec`] vs the implementations |

use std::path::{Path, PathBuf};

use crate::lexer::lex;
use crate::lints::{atomics, detiter, forbid_unsafe, lockorder, panics, wallclock};
use crate::report::{Finding, Report, Severity, Sink, Waivers};
use crate::{drift, spec};

/// Crates whose non-test code must be panic-free (they parse protocol
/// input — and h2check itself, which parses arbitrary source text).
pub const PANIC_FREE_CRATES: &[&str] = &[
    "h2wire", "h2hpack", "h2conn", "h2server", "h2scope", "h2serve", "h2check",
];

/// Crates that must carry `#![forbid(unsafe_code)]`.
pub const FORBID_UNSAFE_CRATES: &[&str] = &[
    "h2wire",
    "h2hpack",
    "h2conn",
    "h2server",
    "h2scope",
    "webpop",
    "h2fault",
    "h2campaign",
    "h2serve",
    "h2check",
    "bench",
];

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

/// Modules whose lock acquisitions feed the lock-order graph.
const LOCK_SCOPE: &[&str] = &[
    "crates/bench/src/sched.rs",
    "crates/h2obs/src/",
    "crates/netsim/src/pipe.rs",
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

/// All lint-scoped source files, as (absolute path, repo-relative path).
fn source_files(root: &Path) -> Vec<(PathBuf, String)> {
    let mut files = Vec::new();
    let crates_dir = root.join("crates");
    let mut crate_dirs: Vec<PathBuf> = match std::fs::read_dir(&crates_dir) {
        Ok(rd) => rd.filter_map(Result::ok).map(|e| e.path()).collect(),
        Err(_) => Vec::new(),
    };
    crate_dirs.sort();
    for crate_dir in crate_dirs {
        walk_rs(&crate_dir.join("src"), &mut files);
    }
    walk_rs(&root.join("src"), &mut files);
    files
        .into_iter()
        .filter_map(|abs| {
            let rel = abs
                .strip_prefix(root)
                .ok()?
                .components()
                .map(|c| c.as_os_str().to_string_lossy())
                .collect::<Vec<_>>()
                .join("/");
            Some((abs, rel))
        })
        .collect()
}

fn crate_name(rel: &str) -> &str {
    let mut parts = rel.split('/');
    if parts.next() == Some("crates") {
        parts.next().unwrap_or("h2ready")
    } else {
        "h2ready"
    }
}

fn in_lock_scope(rel: &str) -> bool {
    LOCK_SCOPE
        .iter()
        .any(|scope| rel == *scope || rel.starts_with(scope))
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
                severity: Severity::Error,
                file: rel.clone(),
                line: 1,
                message: "unreadable source file".to_string(),
            });
            continue;
        };
        let krate = crate_name(&rel).to_string();
        let sf = lex(&src);
        let waivers = Waivers::parse(&rel, &sf, &mut report.findings);
        let mut sink = Sink::new(&rel, &waivers, &mut report.findings, &mut report.waived);
        if PANIC_FREE_CRATES.contains(&krate.as_str()) {
            panics::check(&sf, &mut sink);
        }
        if krate != "bench" {
            wallclock::check(&sf, &mut sink);
        }
        if in_lock_scope(&rel) {
            lock_edges.extend(lockorder::collect(&rel, &sf));
        }
        if DETERMINISTIC_ITER_CRATES.contains(&krate.as_str()) {
            detiter::check(&sf, &mut sink);
        }
        atomic_sites.extend(atomics::collect(&krate, &rel, &sf));
        if FORBID_UNSAFE_CRATES.contains(&krate.as_str())
            && rel.ends_with("/src/lib.rs")
            && !forbid_unsafe::has_forbid_unsafe(&sf)
        {
            sink.emit(
                "unsafe",
                Severity::Error,
                1,
                "crate root must carry #![forbid(unsafe_code)]".to_string(),
            );
        }
    }
    report.findings.extend(lockorder::cycles(&lock_edges));
    let (uses_ok, uses, decls_ok, decls, stale) =
        atomics::check_registry(&atomic_sites, true, &mut report.findings);
    report.drift.push(format!(
        "atomics registry: {uses_ok}/{uses} ordering uses sanctioned, \
         {decls_ok}/{decls} declarations registered ({stale} stale rows)"
    ));
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
            severity: Severity::Error,
            file: rel,
            line: 1,
            message: "unreadable source file".to_string(),
        });
        return report;
    };
    let sf = lex(&src);
    let waivers = Waivers::parse(&rel, &sf, &mut report.findings);
    let mut sink = Sink::new(&rel, &waivers, &mut report.findings, &mut report.waived);
    panics::check(&sf, &mut sink);
    wallclock::check(&sf, &mut sink);
    detiter::check(&sf, &mut sink);
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
                    severity: Severity::Error,
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
    fn lock_scope_covers_the_thread_sharing_modules() {
        assert!(in_lock_scope("crates/bench/src/sched.rs"));
        assert!(in_lock_scope("crates/h2obs/src/trace.rs"));
        assert!(in_lock_scope("crates/netsim/src/pipe.rs"));
        assert!(!in_lock_scope("crates/h2wire/src/frame.rs"));
        assert!(!in_lock_scope("crates/bench/src/main.rs"));
    }

    #[test]
    fn repo_root_contains_the_workspace_manifest() {
        assert!(repo_root().join("Cargo.toml").exists());
    }
}
